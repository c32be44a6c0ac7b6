// PHDE — the original Harel-Koren High-Dimensional Embedding (Alg. 2),
// parallelized as §3.2 describes: the distance matrix is column-centered
// in two parallel phases (means, then subtraction), the small Gram matrix
// CᵀC is formed, and the two dominant eigenvectors give [x,y] = C·Y.
#pragma once

#include "hde/parhde.hpp"

namespace parhde {

/// Runs parallel PHDE. Reuses HdeOptions: pivots/kernel/seed/subspace_dim
/// apply; metric/gs_kind/basis are ignored (PHDE has no orthogonalization).
/// Phase names recorded: "BFS", "BFS:Other", "ColCenter", "MatMul",
/// "Eigensolve", "Other".
HdeResult RunPhde(const CsrGraph& graph, const HdeOptions& options = {});

/// The PCA tail PHDE and PivotMDS share, on the centered n x k matrix C:
/// the phases "MatMul" (CᵀC), "Eigensolve" (the two largest eigenpairs)
/// and "Other" (coordinates [x,y] = C·Y), booked into `result`. Throws
/// ParhdeError(kNumerical) on a non-finite coordinate.
void PcaCoordinates(const DenseMatrix& C, const HdeOptions& options,
                    HdeResult& result);

}  // namespace parhde
