#!/usr/bin/env python3
"""Repository benchmark: layout wall time on ingest-, BFS- and linalg-bound
graphs, and open-loop latency of the layout service.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py all --seed <n>
    python3 perfbench/run.py compare <result.json> <result.json>

Run from the repository root. The first run configures and builds
perfbench/ (the library, parhde_cli, parhde_serve and perfbench_driver)
into .bench_build/. Each run generates its inputs from --seed through the
library, sets up, discards a warm-up, then measures for --seconds. With
--trace 0 it reports the end-to-end metrics; with --trace 1 it reports the
per-layer metrics of a traced run. Every metric is printed with its unit and
sample count; the last line of standard output is one JSON object
{correct, attempted, failed, metrics}. Any failed output check makes the
exit code 1. The full result, with the environment fingerprint, is written
to .bench_out/results/. See perfbench/README.md."""

import argparse
import hashlib
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import benchlib as bl  # noqa: E402
import loadgen  # noqa: E402

BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
DRIVER = os.path.join(BUILD, "perfbench_driver")
CLI = os.path.join(BUILD, "parhde", "tools", "parhde_cli")
SERVE = os.path.join(BUILD, "parhde", "tools", "parhde_serve")

# A measured process that runs this long is killed and counted as failed,
# so a hung layout cannot keep a run past its time limit.
PROCESS_TIMEOUT_S = 60
# Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 3
# Minimum timed samples per thread setting, whatever --seconds says.
MIN_CLI_SAMPLES = 3
# Energy of every CLI run vs the 1-thread reference run of the same commit.
ENERGY_REL_TOL = 1e-6
# Energy of the in-process traced layout vs the CLI's.
TRACE_ENERGY_REL_TOL = 1e-9

# Per-layer metrics, in BENCHMARK.json order; a layer a workload does not
# exercise reports 0.
PER_LAYER = {
    "graph.parse_s": "s", "graph.parse_mbps": "MB/s",
    "graph.read_bin_s": "s", "graph.build_s": "s",
    "graph.components_s": "s", "graph.extract_s": "s",
    "graph.kept_vertex_frac": "ratio",
    "bfs.phase_s": "s", "bfs.searches": "count", "bfs.levels": "count",
    "bfs.edges_examined": "count", "bfs.mteps": "Medges/s",
    "linalg.dortho_s": "s", "linalg.dortho_kept_frac": "ratio",
    "linalg.spmm_s": "s", "linalg.spmm_gbps_computed": "GB/s",
    "linalg.gemm_s": "s", "linalg.eigen_s": "s", "linalg.coords_s": "s",
    "hde.components_layout_s": "s", "hde.unattributed_s": "s",
    "hde.recovery_attempts": "count", "hde.layout_hash_mismatch": "count",
    "draw.write_coords_s": "s", "draw.energy_s": "s",
    "draw.edge_energy": "unitless",
    "cli.unattributed_s": "s",
    "svc.p95_s": "s", "svc.max_rps": "req/s",
    "svc.exec_s": "s", "svc.queue_wait_s": "s", "svc.transport_s": "s",
    "svc.cache_hit_ratio": "ratio", "svc.load_s": "s",
    "svc.shed_frac": "ratio", "svc.queue_peak": "count",
    "loadgen.late_p95_s": "s",
}
# RunParHde's own phase timings (HdeResult::timings, as `parhde_cli
# --report` prints them) and the per-layer metric each is booked to.
PARHDE_PHASES = {
    "BFS": "bfs.phase_s", "BFS:Other": "bfs.phase_s",
    "DOrtho": "linalg.dortho_s", "TripleProd:LS": "linalg.spmm_s",
    "TripleProd:GEMM": "linalg.gemm_s", "Eigensolve": "linalg.eigen_s",
    "Other": "linalg.coords_s",
}

# The three CLI workloads: what the generator makes, and the layout flags.
# Sizes keep one sample of each thread setting to a few seconds at most.
CLI_WORKLOADS = {
    # Ingest-bound: MatrixMarket text, disconnected, coordinates written.
    "kron-mtx": {"gen": ["--family=kron", "--scale=16", "--ef=16"],
                 "file": "kron.mtx", "s": 10, "pivots": "kcenters",
                 "coords": True},
    # BFS-bound: 1000x1000 grid (diameter ~2000) from a binary snapshot.
    "grid-bin": {"gen": ["--family=grid", "--rows=1000", "--cols=1000"],
                 "file": "grid.bin", "s": 10, "pivots": "kcenters",
                 "coords": False},
    # Linalg-bound: s=50 random pivots (the auto MS-BFS path), connected.
    "urand-s50": {"gen": ["--family=urand", "--n=131072", "--m=1048576",
                          "--largest"],
                  "file": "urand.bin", "s": 50, "pivots": "random",
                  "coords": False},
}

# svc-mixed: hot graphs, a rotating set larger than the cache, the mix.
SVC_CACHE = 4
SVC_ROTATING = 6
SVC_PATTERN = ["grid", "grid", "kron", "grid", "grid", "kron", "grid", "rot"]
SVC_REPORTED_RATE = 18.0
SVC_REPORTED_SAMPLES = 200
LADDER_TEXT = (f"x{bl.LADDER_FACTOR:g} from {bl.LADDER_START:g} req/s, limit "
               f"p{bl.LIMIT_PCT} <= {bl.LATENCY_LIMIT_S:g} s")


class SetupError(Exception):
    """The checkout cannot be built or run; no result is printed."""


# ------------------------------------------------------------- processes --


def child_env(**extra):
    """The environment a user would have: no wait-policy or binding tuning."""
    env = dict(os.environ)
    env.pop("OMP_WAIT_POLICY", None)
    env.pop("OMP_PROC_BIND", None)
    env.update(extra)
    return env


def run_timed(cmd, stderr_path):
    """Runs cmd to completion, killing it after PROCESS_TIMEOUT_S; returns
    (exit code, wall s, peak RSS MiB)."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err,
                                env=child_env(), cwd=ROOT)
        watchdog = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def run_json(cmd):
    out = subprocess.run(cmd, capture_output=True, text=True, env=child_env(),
                         cwd=ROOT, check=False)
    if out.returncode != 0:
        raise RuntimeError(f"{cmd[0]} exited {out.returncode}: {out.stderr}")
    return json.loads(out.stdout)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise SetupError(f"no repository sources next to {HERE}")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
                  "--target", "perfbench_driver", "parhde_cli",
                  "parhde_serve"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT, check=False).returncode != 0:
            raise SetupError("build failed: " + " ".join(cmd))


class Daemon:
    """One parhde_serve process; stop() terminates it and waits."""

    def __init__(self, work, name, env):
        self.socket = os.path.relpath(os.path.join(work, name + ".sock"), ROOT)
        snapshots = os.path.join(work, name + "-snapshots")
        self.log = open(os.path.join(work, name + ".log"), "wb")
        self.proc = subprocess.Popen(
            [SERVE, f"--socket={self.socket}", f"--cache={SVC_CACHE}",
             f"--snapshots={snapshots}"],
            stdout=subprocess.PIPE, stderr=self.log, env=child_env(**env),
            cwd=ROOT)
        line = self.proc.stdout.readline().decode()
        if not line.startswith("listening"):
            self.stop()
            raise RuntimeError(f"parhde_serve did not start: {line!r}")

    def peak_rss_mib(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for parhde_serve")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


# ----------------------------------------------------------- fingerprint --


def source_digest():
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
            if "__pycache__" not in d)
        for name in files:
            h.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def fingerprint(environment):
    """Where and how the numbers were measured. `environment` is the
    environment block of a run report from the measured binaries."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        got = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        commit = got.stdout.strip() or "unknown"
    return {
        "nproc": os.cpu_count(),
        "omp_env": {k: v for k, v in sorted(child_env().items())
                    if k.startswith("OMP_")},
        "compiler": environment.get("compiler"),
        "build_type": environment.get("build_type"),
        "cpu_model": cpu,
        "commit": commit,
        "source_digest": source_digest(),
    }


# ----------------------------------------------------------------- result --


class Result:
    def __init__(self):
        self.metrics = {}
        self.problems = []
        self.attempted = 0
        self.failed = 0
        self.environment = {}

    def add(self, name, value, unit, note, samples=None):
        self.metrics[name] = {"value": value, "unit": unit, "note": note}
        if samples is not None:
            self.metrics[name]["samples"] = samples

    def outcome(self, problems):
        """Counts one attempted operation; any problem fails it."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def per_layer_defaults(result):
    for name, unit in PER_LAYER.items():
        if name not in result.metrics:
            result.add(name, 0.0, unit, "layer not exercised by this workload")


# ---------------------------------------------------------- CLI workloads --


def generate(spec, work, seed):
    """Writes the workload input; returns (generator summary, seconds)."""
    path = os.path.join(work, spec["file"])
    start = time.perf_counter()
    info = run_json([DRIVER, "gen", *spec["gen"], f"--seed={seed}",
                     f"--out={path}"])
    return info, time.perf_counter() - start


class CliRunner:
    def __init__(self, spec, work, layout_seed, expected_vertices, result):
        self.spec = spec
        self.work = work
        self.layout_seed = layout_seed
        self.vertices = expected_vertices
        self.result = result
        self.reference_energy = None
        self.count = 0

    def layout_flags(self):
        return [f"--in={os.path.join(self.work, self.spec['file'])}",
                f"--s={self.spec['s']}", f"--pivots={self.spec['pivots']}",
                f"--seed={self.layout_seed}"]

    def run(self, threads):
        """One `parhde_cli layout` process: (wall s, RSS MiB, report)."""
        self.count += 1
        report_path = os.path.join(self.work, f"report{self.count}.json")
        coords = os.path.join(self.work, "cli.xy")
        cmd = [CLI, "layout", *self.layout_flags(), f"--report={report_path}"]
        if self.spec["coords"]:
            cmd.append(f"--coords={coords}")
        if threads:
            cmd.append(f"--threads={threads}")
        code, wall, rss = run_timed(cmd, os.path.join(self.work, "cli.err"))
        problems, report = [], None
        if code != 0:
            problems.append(f"parhde_cli exited {code}")
        else:
            with open(report_path) as f:
                report = json.load(f)
            os.remove(report_path)
            problems += bl.check_report(report, self.spec["s"], self.vertices)
            energy = report["metrics"].get("edge_length_energy")
            if self.reference_energy is None:
                self.reference_energy = energy
                self.result.environment = report["environment"]
            problems += bl.check_energy(energy, self.reference_energy,
                                        ENERGY_REL_TOL)
            if self.spec["coords"]:
                with open(coords) as f:
                    problems += bl.check_coords(f.read(), self.vertices)
        self.result.outcome(problems)
        return wall, rss, report


def setup_cli(spec, work, seed, result):
    """Sets up SETUP_REPEATS times: generates the input and runs the
    1-thread reference layout, which is also the discarded warm-up. Returns
    the runner and the median set-up time."""
    layout_seed = random.Random(seed).randrange(1, 1 << 30)
    runner, times = None, []
    for _ in range(SETUP_REPEATS):
        info, seconds = generate(spec, work, seed)
        if runner is None:
            runner = CliRunner(spec, work, layout_seed,
                               info["largest_vertices"], result)
        ref_wall, _, _ = runner.run(threads=1)
        times.append(seconds + ref_wall)
    return runner, bl.median(times)


def measure_cli(runner, seconds, result):
    walls = {"default": [], "1t": []}
    rss, energies = [], []
    deadline = time.perf_counter() + seconds
    while (time.perf_counter() < deadline
           or min(len(w) for w in walls.values()) < MIN_CLI_SAMPLES):
        for mode, threads in (("default", None), ("1t", 1)):
            wall, peak, report = runner.run(threads)
            walls[mode].append(wall)
            if mode == "default":
                rss.append(peak)
            if report:
                energies.append(report["metrics"]["edge_length_energy"])
    n = len(walls["default"])
    result.add("wall_s", bl.median(walls["default"]), "s",
               f"median of {n} parhde_cli layout processes, default threads",
               walls["default"])
    result.add("wall_1t_s", bl.median(walls["1t"]), "s",
               f"median of {len(walls['1t'])} processes, --threads=1",
               walls["1t"])
    result.add("peak_rss_mib", bl.median(rss), "MiB",
               f"median over {n} processes of wait4 ru_maxrss")
    return energies


def trace_cli(spec, runner, seconds, result):
    """Times CLI processes for cli.unattributed_s, then runs the same
    layout traced in-process (perfbench_driver trace) and books span self
    time to layers."""
    walls, reports = [], []
    deadline = time.perf_counter() + 0.4 * seconds
    while time.perf_counter() < deadline or len(walls) < MIN_CLI_SAMPLES:
        wall, _, report = runner.run(None)
        walls.append(wall)
        if report:
            reports.append(report)
    cli_wall = bl.median(walls)
    repeats = max(3, int(0.6 * seconds / cli_wall))
    spans_path = os.path.join(runner.work, "spans.json")
    coords = os.path.join(runner.work, "trace.xy")
    cmd = [DRIVER, "trace", *runner.layout_flags(), f"--repeats={repeats}",
           f"--spans={spans_path}"]
    if spec["coords"]:
        cmd.append(f"--coords={coords}")
    code, _, _ = run_timed(cmd, os.path.join(runner.work, "trace.err"))
    if code != 0:
        result.outcome([f"perfbench_driver trace exited {code}"])
        return
    with open(spans_path) as f:
        trace = json.load(f)
    if not reports:
        return  # every CLI run failed; the failures are already counted
    cli_energy = reports[0]["metrics"]["edge_length_energy"]
    for rec in trace["repeats"]:
        problems = bl.check_energy(rec["energy"], cli_energy,
                                   TRACE_ENERGY_REL_TOL)
        if rec["vertices"] != runner.vertices:
            problems.append(f"trace: {rec['vertices']} vertices, "
                            f"expected {runner.vertices}")
        if rec["effective_pivots"] != spec["s"]:
            problems.append(f"trace: {rec['effective_pivots']} pivots")
        result.outcome(problems)
    if spec["coords"]:
        with open(coords) as f:
            result.outcome(bl.check_coords(f.read(), runner.vertices))

    spans = trace["spans"]
    input_mb = os.path.getsize(os.path.join(runner.work, spec["file"])) / 1e6
    rows, layer_totals = [], []
    for r, rec in enumerate(trace["repeats"]):
        own = bl.self_time_by_name(spans, r)
        whole = bl.duration_by_name(spans, r)
        t = lambda name: own.get(name, 0.0)  # noqa: E731
        phase = {metric: 0.0 for metric in PARHDE_PHASES.values()}
        for name, value in rec["phases"].items():
            if name in PARHDE_PHASES:
                phase[PARHDE_PHASES[name]] += value
        # RunParHde's span minus its own phase timings is hde glue.
        hde_glue = (t("hde.components_layout") + whole["hde.parhde"]
                    - sum(phase.values()))
        layer_totals.append({
            "graph": sum(v for k, v in own.items() if k.startswith("graph.")),
            "bfs": phase["bfs.phase_s"],
            "linalg": sum(v for k, v in phase.items()
                          if k.startswith("linalg.")),
            "hde": hde_glue,
            "draw": sum(v for k, v in own.items() if k.startswith("draw.")),
        })
        rows.append({
            "graph.parse_s": t("graph.parse"),
            "graph.parse_mbps":
                input_mb / t("graph.parse") if t("graph.parse") else 0.0,
            "graph.read_bin_s": t("graph.read_bin"),
            "graph.build_s": t("graph.build"),
            "graph.components_s": t("graph.components"),
            "graph.extract_s": t("graph.extract"),
            "graph.kept_vertex_frac": rec["vertices"] / rec["raw_vertices"],
            **phase,
            "bfs.searches": rec["bfs_searches"],
            "bfs.levels": rec["bfs_levels"],
            "bfs.edges_examined": rec["bfs_edges_examined"],
            "bfs.mteps": rec["bfs_edges_examined"] / phase["bfs.phase_s"] / 1e6,
            "linalg.dortho_kept_frac":
                rec["kept_columns"] / rec["effective_pivots"],
            "linalg.spmm_gbps_computed":
                rec["spmm_bytes_computed"] / phase["linalg.spmm_s"] / 1e9,
            "hde.components_layout_s": whole["hde.components_layout"],
            "hde.unattributed_s": hde_glue,
            "draw.write_coords_s": t("draw.write_coords"),
            "draw.energy_s": t("draw.energy"),
            "draw.edge_energy": rec["energy"],
        })
    n = len(rows)
    for name in (m for m in PER_LAYER if m in rows[0]):
        result.add(name, bl.median([row[name] for row in rows]),
                   PER_LAYER[name], f"median of {n} traced repeats")
    shares = {layer: bl.median([tot[layer] for tot in layer_totals])
              / cli_wall for layer in layer_totals[0]}
    print("layer self time as a share of the median CLI wall time: "
          + ", ".join(f"{k} {v:.2f}" for k, v in shares.items()))
    result.add("cli.unattributed_s",
               cli_wall - bl.median([sum(t.values()) for t in layer_totals]),
               "s",
               f"median wall of {len(walls)} CLI processes minus median "
               f"traced layer total of {n} repeats")
    recoveries = sum(rec["recovery_attempts"] for rec in trace["repeats"])
    recoveries += sum(len(rep["recovery"]) for rep in reports)
    result.add("hde.recovery_attempts", recoveries, "count",
               f"{n} traced repeats + {len(reports)} CLI run reports")
    hashes = [rec["layout_hash"] for rec in trace["repeats"]]
    result.add("hde.layout_hash_mismatch",
               sum(h != hashes[0] for h in hashes[1:]), "count",
               f"repeats of {n} at one seed and {trace['threads']} threads "
               "whose coordinates differ bitwise from the first")


def run_cli_workload(name, work, seed, seconds, trace, result):
    spec = CLI_WORKLOADS[name]
    runner, setup_s = setup_cli(spec, work, seed, result)
    if trace:
        trace_cli(spec, runner, seconds, result)
        per_layer_defaults(result)
        return
    result.add("setup_s", setup_s, "s",
               f"median of {SETUP_REPEATS} set-ups: input generation + the "
               "1-thread reference run")
    energies = measure_cli(runner, seconds, result)
    print(f"edge_energy {bl.median(energies):.9f} unitless "
          f"(median of {len(energies)} runs; reference "
          f"{runner.reference_energy:.12f})")


# ------------------------------------------------------------- svc-mixed --


def setup_svc(work, seed, result, with_1t, daemons):
    """Generates the graphs, starts the daemon(s) and warms every graph
    once (the discarded warm-up). Repeated SETUP_REPEATS times; the last
    daemons stay in `daemons`, which the caller stops."""
    rng = random.Random(seed)
    gen_seeds = [rng.randrange(1, 1 << 30) for _ in range(SVC_ROTATING + 1)]
    times = []
    for k in range(SETUP_REPEATS):
        for d in daemons:
            d.stop()
        daemons.clear()
        start = time.perf_counter()
        graphs = {}
        for key, args, file in (
                ["grid", ["--family=grid", "--rows=60", "--cols=60"],
                 "grid60.mtx"],
                ["kron", ["--family=kron", "--scale=12", "--ef=16",
                          f"--seed={gen_seeds[0]}"], "kron12.mtx"]):
            path = os.path.join(work, file)
            graphs[key] = (path, run_json([DRIVER, "gen", *args,
                                           f"--out={path}"]))
        for i in range(SVC_ROTATING):
            path = os.path.join(work, f"rot{i}.mtx")
            graphs[f"rot{i}"] = (path, run_json(
                [DRIVER, "gen", "--family=kron", "--scale=10", "--ef=16",
                 f"--seed={gen_seeds[1 + i]}", f"--out={path}"]))
        daemons.append(Daemon(work, f"svc{k}", {}))
        if with_1t:
            # parhde_serve --threads=N sets the thread count of the main
            # thread only, not of its workers, so the single-thread daemon
            # gets it from the environment.
            daemons.append(
                Daemon(work, f"svc{k}-1t", {"OMP_NUM_THREADS": "1"}))
        for d in daemons:
            for key, (path, info) in graphs.items():
                reply = loadgen.query(d.socket, {
                    "op": "layout", "graph": os.path.relpath(path, ROOT),
                    "s": 10, "id": f"warm-{key}"})
                result.outcome(bl.check_response(
                    reply, info["largest_vertices"]))
                result.environment = reply.get("report", {}).get(
                    "environment", result.environment)
        times.append(time.perf_counter() - start)
    return graphs, bl.median(times)


def svc_requests(graphs, rng, tag, count, counter):
    """The request mix: 5/8 the hot grid, 2/8 the hot Kronecker graph,
    1/8 the next graph of the rotating set (a cache miss)."""
    reqs, expect = [], []
    for i in range(count):
        kind = SVC_PATTERN[i % len(SVC_PATTERN)]
        if kind == "rot":
            kind = f"rot{counter[0] % SVC_ROTATING}"
            counter[0] += 1
        path, info = graphs[kind]
        reqs.append({"op": "layout", "graph": os.path.relpath(path, ROOT),
                     "s": 10, "seed": rng.randrange(1, 1 << 30),
                     "id": f"{tag}-{i}"})
        expect.append(info["largest_vertices"])
    return reqs, expect


def svc_step(daemon, graphs, rng, counter, rate, count, connections):
    reqs, expect = svc_requests(graphs, rng, f"r{rate:g}", count, counter)
    before = loadgen.query(daemon.socket, {"op": "stats"})["stats"]
    records = loadgen.run_schedule(daemon.socket, reqs, rate, connections,
                                   timeout=count / rate + 20.0)
    after = loadgen.query(daemon.socket, {"op": "stats"})["stats"]
    problems = [bl.check_response(rec["response"], v)
                for rec, v in zip(records, expect)]
    return {"rate": rate, "records": records, "problems": problems,
            "before": before, "after": after}


def step_summary(step):
    ok = [not p for p in step["problems"]]
    lat = [rec["latency"] if good else float("inf")
           for rec, good in zip(step["records"], ok)]
    failed = ok.count(False)
    return lat, failed, bl.step_passes(lat, failed)


def run_svc(work, seed, seconds, trace, result):
    daemons = []
    try:
        graphs, setup_s = setup_svc(work, seed, result, not trace, daemons)
        measure_svc(daemons, graphs, seed, seconds, trace, result)
    finally:
        for d in daemons:
            d.stop()
    if not trace:
        result.add("setup_s", setup_s, "s",
                   f"median of {SETUP_REPEATS} set-ups: graph generation, "
                   "daemon start, one warm request per graph")


def measure_svc(daemons, graphs, seed, seconds, trace, result):
    rng = random.Random(seed * 7919 + 1)
    counter = [0]
    connections = min(4, os.cpu_count() or 1)
    # Share of --seconds per ladder step (the reported step also has a
    # sample floor), and for the 1-thread daemon's stream.
    unit = seconds / 20.0
    steps, passed = [], []
    while bl.ladder_continues(passed):
        rate = bl.ladder_rate(len(passed))
        if rate == SVC_REPORTED_RATE:
            count = max(SVC_REPORTED_SAMPLES, int(rate * 11 * unit))
        else:
            count = max(40, int(rate * 2 * unit))
        step = svc_step(daemons[0], graphs, rng, counter, rate, count,
                        connections)
        lat, failed, ok = step_summary(step)
        steps.append(step)
        passed.append(ok)
        p95 = bl.nearest_rank(lat, bl.LIMIT_PCT)
        print(f"step {rate:g} req/s: {len(lat)} requests, {failed} failed, "
              f"p50 {bl.median(lat):.4f} s, p95 {p95:.4f} s, "
              f"{'meets' if ok else 'misses'} the limit")
    for step in steps[:bl.LADDER_MANDATORY]:
        for problems in step["problems"]:
            result.outcome(problems)

    reported = next(s for s in steps if s["rate"] == SVC_REPORTED_RATE)
    lat, _, _ = step_summary(reported)
    n = len(lat)
    max_rps = bl.ladder_max_rate(passed)
    late = [rec["late"] for rec in reported["records"]]
    print(f"svc_p50_s {bl.median(lat):.6f} s (n={n} at "
          f"{SVC_REPORTED_RATE:g} req/s)")
    # At least SVC_REPORTED_SAMPLES samples, so ten or more lie beyond p95.
    assert bl.reportable(n, 95), n
    print(f"svc_p95_s {bl.nearest_rank(lat, 95):.6f} s (n={n}, "
          f"{bl.samples_beyond(n, 95)} beyond)")
    print(f"svc_max_rps {max_rps:g} req/s (ladder {LADDER_TEXT})")
    if not trace:
        result.add("wall_s", bl.median(lat), "s",
                   f"median latency from due time of {n} requests at "
                   f"{SVC_REPORTED_RATE:g} req/s, default daemon")
        result.add("peak_rss_mib", daemons[0].peak_rss_mib(), "MiB",
                   "VmHWM of the default daemon")
        count = max(40, int(SVC_REPORTED_RATE * 2 * unit))
        step = svc_step(daemons[1], graphs, rng, counter, SVC_REPORTED_RATE,
                        count, connections)
        for problems in step["problems"]:
            result.outcome(problems)
        lat_1t, _, _ = step_summary(step)
        result.add("wall_1t_s", bl.median(lat_1t), "s",
                   f"median latency from due time of {len(lat_1t)} requests "
                   f"at {SVC_REPORTED_RATE:g} req/s, OMP_NUM_THREADS=1 daemon")
        return

    ok_records = [rec for rec, p in
                  zip(reported["records"], reported["problems"]) if not p]
    oks = [rec["response"]["report"] for rec in ok_records]
    if not oks:
        per_layer_defaults(result)  # every request failed, already counted
        return
    exec_s = [r["total_seconds"] for r in oks]
    wait_s = [r["metrics"]["queue_wait_seconds"] for r in oks]
    transport = [rec["latency"] - r["metrics"]["queue_wait_seconds"]
                 - r["total_seconds"] for rec, r in zip(ok_records, oks)]
    misses = [r["metrics"]["load_seconds"] for r in oks
              if r["metrics"]["cache_hit"] == 0]
    before, after = reported["before"]["cache"], reported["after"]["cache"]
    hits = after["stat_hits"] - before["stat_hits"]
    total_sent = sum(len(s["records"]) for s in steps)
    final = steps[-1]["after"]["queue"]
    result.add("svc.p95_s", bl.nearest_rank(lat, 95), "s",
               f"p95 latency of {n} requests at {SVC_REPORTED_RATE:g} req/s")
    result.add("svc.max_rps", max_rps, "req/s", f"ladder {LADDER_TEXT}")
    result.add("svc.exec_s", bl.median(exec_s), "s",
               f"median report total_seconds of {len(exec_s)} requests")
    result.add("svc.queue_wait_s", bl.median(wait_s), "s",
               f"median queue wait of {len(wait_s)} requests")
    result.add("svc.transport_s", bl.median(transport), "s",
               "median latency minus queue wait minus execution")
    result.add("svc.cache_hit_ratio", hits / len(reported["records"]),
               "ratio", "stat-level cache hits per request (stats op)")
    result.add("svc.load_s", bl.median(misses) if misses else 0.0, "s",
               f"median load_seconds of {len(misses)} cache misses")
    result.add("svc.shed_frac", final["shed"] / total_sent, "ratio",
               f"sheds over {total_sent} requests of every ladder step")
    result.add("svc.queue_peak", final["peak_depth"], "count",
               "admission queue peak depth (stats op)")
    result.add("loadgen.late_p95_s", bl.nearest_rank(late, 95), "s",
               f"p95 of send time minus due time, {n} requests")
    per_layer_defaults(result)


# ------------------------------------------------------------------ main --


def workdir(name, seed, trace):
    path = os.path.join(OUT, f"{name}-seed{seed}-trace{trace}")
    prune(path, keep=())
    os.makedirs(path, exist_ok=True)
    return path


def prune(path, keep=(".json", ".err", ".log")):
    """Deletes the files under `path` whose suffix is not in `keep`, and
    the directories left empty: a run keeps its spans and logs, not its
    inputs, outputs and snapshots."""
    if not os.path.isdir(path):
        return
    for d, dirs, files in os.walk(path, topdown=False):
        for f in files:
            if not f.endswith(keep):
                os.remove(os.path.join(d, f))
        for sub in dirs:
            if not os.listdir(os.path.join(d, sub)):
                os.rmdir(os.path.join(d, sub))


WORKLOADS = list(CLI_WORKLOADS) + ["svc-mixed"]


def main(argv):
    if argv[:1] == ["compare"]:
        return compare(argv[1:])
    if argv[:1] == ["all"]:
        return run_all(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    # A terminated run still stops the daemons and processes it started:
    # SIGTERM unwinds through their `finally` blocks.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    # Socket and graph paths are relative to the root: unix socket paths
    # are limited to about 100 bytes, wherever the checkout lives.
    os.chdir(ROOT)
    try:
        build()
    except SetupError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2

    result = Result()
    print(f"# perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    work = workdir(args.workload, args.seed, args.trace)
    try:
        if args.workload == "svc-mixed":
            run_svc(work, args.seed, args.seconds, args.trace, result)
        else:
            run_cli_workload(args.workload, work, args.seed, args.seconds,
                             args.trace, result)
    finally:
        prune(work)

    fp = fingerprint(result.environment)
    print("fingerprint " + json.dumps(fp, sort_keys=True))
    for name, m in result.metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']} ({m['note']})")
    fail_frac = result.failed / max(1, result.attempted)
    print(f"fail_frac {fail_frac:g} ratio ({result.failed} failed of "
          f"{result.attempted} attempted)")
    for problem in result.problems[:20]:
        print(f"FAILED CHECK: {problem}")
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    with open(os.path.join(OUT, "results", f"{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "trace": args.trace, "fingerprint": fp,
                   "metrics": result.metrics, "attempted": result.attempted,
                   "failed": result.failed, "problems": result.problems},
                  f, indent=1)
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in result.metrics.items()},
    }))
    return 0 if result.failed == 0 else 1


def run_all(argv):
    """Every workload, end-to-end metrics then the traced per-layer ones,
    each for BENCHMARK.json's run_seconds; exits nonzero if any run's output
    checks failed."""
    parser = argparse.ArgumentParser(prog="run.py all")
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        seconds = json.load(f)["run_seconds"]
    worst = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            code = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload",
                 workload, "--seed", str(args.seed), "--seconds",
                 str(seconds), "--trace", str(trace)],
                check=False).returncode
            worst = max(worst, code)
    return worst


def compare(paths):
    """Diffs two saved results, or reports them incomparable when their
    environment fingerprints differ."""
    if len(paths) != 2:
        print("usage: run.py compare <base.json> <head.json>", file=sys.stderr)
        return 2
    base, head = (json.load(open(p)) for p in paths)
    rows = bl.compare_results(base, head)
    if rows is None:
        print("incomparable: fingerprints differ")
        for key in bl.COMPARABLE_KEYS:
            print(f"  {key}: {base['fingerprint'].get(key)!r} vs "
                  f"{head['fingerprint'].get(key)!r}")
        return 0
    for name, unit, b, h, change in rows:
        shown = f"{change:+.1%}" if change is not None else "n/a"
        print(f"{name:28s} {b:12.6g} -> {h:12.6g} {unit:9s} {shown}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
