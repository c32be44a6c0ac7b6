"""Pure logic of the benchmark: statistics, span self time, the rate ladder,
output checks and result comparison. run.py and loadgen.py do the process
and socket work; everything here is deterministic and unit-tested in
tests/test_benchlib.py."""

import math

# ------------------------------------------------------------ statistics --

# A percentile is reported only when at least this many samples lie beyond
# it, so a single slow sample cannot be the reported tail.
MIN_SAMPLES_BEYOND = 10


def nearest_rank(values, pct):
    """Nearest-rank percentile: the smallest sample with at least pct% of
    the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n, pct):
    """Samples strictly above the nearest-rank pct percentile of n."""
    return n - max(1, math.ceil(pct / 100.0 * n))


def reportable(n, pct):
    return samples_beyond(n, pct) >= MIN_SAMPLES_BEYOND


def median(values):
    """Nearest-rank median (a sample, never an interpolation)."""
    return nearest_rank(values, 50)


# ----------------------------------------------------------------- spans --


def self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    that its direct children cover. Spans are dicts with start, end and
    parent (index into `spans`, -1 at the top)."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s["parent"] >= 0:
            children[s["parent"]].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s["start"]
        for c in sorted(children[i], key=lambda k: spans[k]["start"]):
            lo = max(spans[c]["start"], cursor)
            hi = min(spans[c]["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(s["end"] - s["start"] - covered)
    return out


def self_time_by_name(spans, request=None):
    """Sum of self time per span name, optionally for one request id."""
    own = self_times(spans)
    totals = {}
    for s, t in zip(spans, own):
        if request is None or s["request"] == request:
            totals[s["name"]] = totals.get(s["name"], 0.0) + t
    return totals


def duration_by_name(spans, request=None):
    """Sum of whole-span duration per span name."""
    totals = {}
    for s in spans:
        if request is None or s["request"] == request:
            duration = s["end"] - s["start"]
            totals[s["name"]] = totals.get(s["name"], 0.0) + duration
    return totals


# ---------------------------------------------------------------- ladder --

LADDER_START = 12.0
LADDER_FACTOR = 1.5
# Steps that always run; above them the ladder stops at the first failure.
LADDER_MANDATORY = 2
LATENCY_LIMIT_S = 0.25
LIMIT_PCT = 95


def ladder_rate(step):
    return float(int(LADDER_START * LADDER_FACTOR ** step))


def backlog_growing(latencies_by_due, limit=LATENCY_LIMIT_S):
    """A backlog grows when the last quarter of a step's requests (in due
    order) waits longer than the first quarter by more than half the
    latency limit."""
    q = len(latencies_by_due) // 4
    if q == 0:
        return False
    first = median(latencies_by_due[:q])
    last = median(latencies_by_due[-q:])
    return last - first > 0.5 * limit


def step_passes(latencies_by_due, failed, limit=LATENCY_LIMIT_S):
    """A ladder step meets the limit when nothing failed or was shed, the
    LIMIT_PCT latency is within `limit`, and no backlog grows. Failed
    requests count as missing the limit."""
    if failed or not latencies_by_due:
        return False
    return (nearest_rank(latencies_by_due, LIMIT_PCT) <= limit
            and not backlog_growing(latencies_by_due, limit))


def ladder_continues(passed):
    """Given pass/fail of the steps run so far, whether to run the next."""
    return len(passed) < LADDER_MANDATORY or all(passed)


def ladder_max_rate(passed):
    """Highest step rate below which every step passed; 0.0 if the first
    step failed."""
    best = 0.0
    for step, ok in enumerate(passed):
        if not ok:
            break
        best = ladder_rate(step)
    return best


# ---------------------------------------------------------------- checks --


def check_coords(text, vertices):
    """Problems with a coordinates file: it must hold exactly one pair of
    finite numbers per vertex of the laid-out component."""
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    if len(lines) != vertices:
        return [f"coords: {len(lines)} lines for {vertices} vertices"]
    for i, line in enumerate(lines):
        parts = line.split()
        try:
            ok = len(parts) == 2 and all(math.isfinite(float(p))
                                         for p in parts)
        except ValueError:
            ok = False
        if not ok:
            return [f"coords: line {i + 1} is not a finite pair: {line!r}"]
    return []


def report_vertices(report):
    return report.get("graph", {}).get("vertices")


def check_report(report, subspace_dim, vertices):
    """Problems with a `parhde_cli layout` run report."""
    problems = []
    pivots = report.get("metrics", {}).get("effective_pivots")
    if pivots != subspace_dim:
        problems.append(
            f"report: effective_pivots {pivots} != s={subspace_dim}")
    if report_vertices(report) != vertices:
        problems.append(f"report: {report_vertices(report)} vertices, "
                        f"expected {vertices}")
    return problems


def check_energy(energy, reference, rel_tol):
    if energy is None or not math.isfinite(energy):
        return [f"energy: {energy} is not finite"]
    if abs(energy - reference) > rel_tol * abs(reference):
        return [f"energy: {energy!r} differs from reference {reference!r} "
                f"by more than {rel_tol:g} relative"]
    return []


def check_response(response, vertices):
    """Problems with one service layout response."""
    if response is None:
        return ["response: none received"]
    if response.get("status") != "ok":
        return [f"response: status {response.get('status')!r}"]
    got = report_vertices(response.get("report", {}))
    if got != vertices:
        return [f"response: {got} vertices, expected {vertices}"]
    return []


# ------------------------------------------------------------- compare --

# Fingerprint keys that must match for two results to be compared. The
# commit and source digest are recorded but expected to differ.
COMPARABLE_KEYS = ("nproc", "omp_env", "compiler", "build_type", "cpu_model")


def compare_results(base, head):
    """Per-metric comparison rows, or None when the fingerprints differ
    (the results are incomparable)."""
    fb, fh = base["fingerprint"], head["fingerprint"]
    if any(fb.get(k) != fh.get(k) for k in COMPARABLE_KEYS):
        return None
    rows = []
    for name, m in base["metrics"].items():
        if name not in head["metrics"]:
            continue
        b, h = m["value"], head["metrics"][name]["value"]
        rows.append((name, m["unit"], b, h, (h / b - 1.0) if b else None))
    return rows
