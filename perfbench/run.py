"""bohrlab benchmark: campaign throughput through the command line tool.

Run from the root of a checkout:

    python3 perfbench/run.py --workload analytic-d3 --seed 1 --seconds 20 --trace 0

One client calls ``bohrlab.cli.main(argv)`` in this process, one round
after another (closed loop), with stdout captured and every report
written to a file, as users run the tool.  The workloads are defined in
``workloads.py``; every round's output is checked there.

--trace 0 reports the end-to-end metrics, timed in CPU time (this
process and its children) and corrected for the host's drifting speed
(see hostspeed.py):
  throughput     trials/s (radius solves/s on radii-sweep) over the rounds
  round_p50_ms   median latency of one round
  setup_s        median over fresh processes of import bohrlab + a warm-up round
  peak_rss_mb    peak resident memory of this process
Two more are printed but not in the final JSON line: round_p90_ms, which
is marked invalid unless ten rounds lie beyond it (analytic-d3's rounds
are too long for that), and error_ratio (failed / attempted rounds),
which the JSON line carries as ``failed`` / ``attempted``.  A run whose
rounds spend more than OFF_CPU_LIMIT of their wall time off the CPU
(blocked, sleeping, or stolen by the host) is not correct, since its
CPU-time figures would hide that wait.

--trace 1 runs every round twice, untraced and traced by ``tracer.py``,
and reports the per-layer metrics plus the tracing overhead.

The last line of stdout is the result as JSON.  The full result (with
the environment header and every round's suite, seed, pass_count and
min_margin) goes to perfbench/out/<workload>-seed<seed>-trace<t>.json,
and the spans of the latest traced run to <workload>.spans.csv.gz.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

from hostspeed import REFERENCE_S, kernel
from tracer import LAYERS, Tracer
from workloads import WORKLOADS, check_campaign, check_table, round_argvs, run_round

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")
SETUP_PROBES = 5
# Traced rounds whose per-round counts are reported; every traced run
# completes them, so the counts repeat exactly at one seed.
COUNT_ROUNDS = 3
# Kernel times whose median gives the host speed during one command: the
# one before it, the one after it and two more on each side.  A median of
# six was steadier than the mean of the two neighbours, which single slow
# kernel times throw off.
KERNEL_WINDOW = 6
# Largest share of the rounds' wall time they may spend off the CPU.
OFF_CPU_LIMIT = 0.2
# Rounds beyond the 90th percentile that make it a valid figure.
P90_MIN_BEYOND = 10


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    """Header of every result: what ran, and how busy the machine was."""
    load = os.getloadavg()
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "bohrlab", "*.py"))):
        digest.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": list(load),
        "platform": platform.platform(),
    }


def measure_setup(workload: str) -> tuple:
    """Median set-up time over SETUP_PROBES fresh processes, corrected
    for host speed and raw."""
    probe = os.path.join(ROOT, "perfbench", "setup_probe.py")
    times, raw = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, probe, "--workload", workload, "--out-dir", OUT],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["ok"]:
            raise RuntimeError("set-up probe's warm-up round failed")
        times.append(result["setup_s"])
        raw.append(result["raw_setup_s"])
    return statistics.median(times), statistics.median(raw)


class Loop:
    """Runs rounds, checks their output and keeps what the result needs."""

    def __init__(self, cli, radii, workload, seed, tmp):
        self.cli, self.radii, self.workload, self.seed, self.tmp = cli, radii, workload, seed, tmp
        self.attempted = 0
        self.failures = []
        self.records = []

    def round(self, index: int, tracer=None, record: bool = True, after_each=None) -> tuple:
        """Run and check round ``index``; returns the wall and CPU time of
        each of its commands.  Only the round itself is traced, not the
        checks."""
        argvs = round_argvs(self.workload, self.seed, index, self.tmp)
        if tracer is None:
            walls, cpus, outcomes = run_round(self.cli, argvs, after_each)
        else:
            tracer.current_round = index
            tracer.install()
            try:
                walls, cpus, outcomes = run_round(self.cli, argvs)
            finally:
                tracer.uninstall()
        problems = []
        for argv, (code, text) in zip(argvs, outcomes):
            if self.workload.trials is None:
                found = check_table(argv, code, self.radii)
            else:
                found, rec = check_campaign(argv, code)
                if rec is not None and record:
                    self.records.append(rec)
            if code != 0:
                found = [f"{p}: {text}" for p in found]
            problems += [f"{' '.join(argv[:2])}: {p}" for p in found]
        self.attempted += 1
        if problems:
            self.failures.append({"round": index, "problems": problems[:5]})
        return walls, cpus


def _quantiles(latencies: list) -> tuple:
    deciles = statistics.quantiles(latencies, n=10) if len(latencies) > 1 else latencies * 9
    p90 = deciles[8]
    return statistics.median(latencies), p90, sum(x > p90 for x in latencies)


def run_untraced(loop: Loop, seconds: float) -> dict:
    """Rounds until ``seconds`` have passed.  The reference kernel runs
    after every command.  Each command's CPU time is corrected by the
    median of the KERNEL_WINDOW kernel times centred on it (see
    hostspeed.py), and a round's time is the sum over its commands."""
    raw, cpus, commands, kernel_s = [], [], [], [kernel()]
    deadline = time.perf_counter() + seconds
    while not raw or time.perf_counter() < deadline:
        walls, round_cpus = loop.round(len(raw), after_each=lambda: kernel_s.append(kernel()))
        raw.append(sum(walls))
        cpus += round_cpus
        commands.append(len(round_cpus))
    # Command i ran between kernel times i and i + 1.
    half = KERNEL_WINDOW // 2
    scaled = [cpu * REFERENCE_S / statistics.median(kernel_s[max(0, i + 1 - half): i + 1 + half])
              for i, cpu in enumerate(cpus)]
    ends = list(itertools.accumulate(commands))
    corrected = [sum(scaled[end - n:end]) for n, end in zip(commands, ends)]
    stats = {"rounds": len(raw), "kernel_s_median": statistics.median(kernel_s),
             "off_cpu_share": 1.0 - sum(cpus) / sum(raw)}
    for prefix, latencies in (("", corrected), ("raw_", raw)):
        p50, p90, beyond = _quantiles(latencies)
        stats[prefix + "throughput"] = loop.workload.items_per_round * len(latencies) / sum(latencies)
        stats[prefix + "round_p50_ms"] = p50 * 1e3
        stats[prefix + "round_p90_ms"] = p90 * 1e3
        stats[prefix + "p90_rounds_beyond"] = beyond
    return stats


def run_traced(loop: Loop, tracer, seconds: float) -> dict:
    """Each round runs untraced and traced, in alternating order, so the
    overhead compares the same work."""
    traced = untraced = 0.0
    deadline = time.perf_counter() + seconds
    index = 0
    while index < COUNT_ROUNDS or time.perf_counter() < deadline:
        for trace in ((False, True) if index % 2 == 0 else (True, False)):
            if trace:
                traced += sum(loop.round(index, tracer)[0])
            else:
                untraced += sum(loop.round(index, record=False)[0])
        index += 1
    return layer_metrics(tracer, index, loop.workload.items_per_round * index / traced,
                         traced / untraced)


def layer_metrics(tracer, rounds: int, throughput: float, overhead: float) -> dict:
    """Per-layer metrics.  Counts are per round over the first COUNT_ROUNDS
    rounds; self times are per call and shares of the traced round time
    over all traced rounds."""
    a = tracer.arrays()
    counted = a["round"] < COUNT_ROUNDS
    ids = {name: i for i, name in enumerate(tracer.names)}

    def calls(name):
        return float(np.count_nonzero((a["name"] == ids[name]) & counted)) / COUNT_ROUNDS

    def self_us(name):
        mask = a["name"] == ids[name]
        n = np.count_nonzero(mask)
        return float(a["self"][mask].sum()) / n * 1e6 if n else 0.0

    def work(name):
        return float(a["work"][(a["name"] == ids[name]) & counted].sum())

    def ratio(x, y):
        return x / y if y else 0.0

    layer_of = np.array([LAYERS.index(n.split(".")[0]) for n in tracer.names])[a["name"]]
    shares = np.bincount(layer_of, weights=a["self"], minlength=len(LAYERS))
    shares = shares / a["dur"][a["parent"] < 0].sum()
    writes = a["dur"][a["name"] == ids["harness.Report.write"]].sum()

    metrics = {}
    for name in ("opmat.op_norms", "series.compose", "series.mul", "series.majorant",
                 "series.Majorant.bohr", "zoo.gen_schur_matrix", "zoo.blaschke_series",
                 "radii.solve_radius"):
        metrics[f"{name}.calls"] = (calls(name), "count")
        metrics[f"{name}.self_us"] = (self_us(name), "us")
    for name in ("zoo.starlike_from_q", "zoo.build_polyanalytic"):
        metrics[f"{name}.self_us"] = (self_us(name), "us")
    metrics["opmat.op_norms.matrices"] = (work("opmat.op_norms") / COUNT_ROUNDS, "count")
    metrics["series.bohr.certified_ratio"] = (
        ratio(work("series.Majorant.bohr"), calls("series.Majorant.bohr") * COUNT_ROUNDS), "ratio")
    metrics["radii.radius_poly_eval.points"] = (
        ratio(work("radii.radius_poly_eval"), calls("radii.solve_radius") * COUNT_ROUNDS), "count")
    for layer, share in zip(LAYERS, shares):
        metrics[f"{layer}.self_share"] = (float(share), "ratio")
    metrics["harness.report_write_us"] = (float(writes) / rounds * 1e6, "us")
    metrics["trace.throughput"] = (throughput, "1/s")
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if "BOHRLAB_THREADS" in os.environ:
        return fail("BOHRLAB_THREADS is set; the benchmark runs the default serial campaigns")
    if not os.path.isfile(os.path.join(SRC, "bohrlab", "__init__.py")):
        return fail(f"no bohrlab sources under {SRC}")
    os.makedirs(OUT, exist_ok=True)
    env = environment()
    workload = WORKLOADS[args.workload]
    try:
        setup_s, raw_setup_s = (None, None) if args.trace else measure_setup(workload.name)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return fail(str(exc))

    sys.path.insert(0, SRC)
    import bohrlab
    import bohrlab.cli
    import bohrlab.radii

    if os.path.dirname(os.path.abspath(bohrlab.__file__)) != os.path.join(SRC, "bohrlab"):
        return fail(f"imported bohrlab from {bohrlab.__file__}, not from {SRC}")

    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        loop = Loop(bohrlab.cli, bohrlab.radii, workload, args.seed, tmp)
        run_round(bohrlab.cli, round_argvs(workload, args.seed, 0, tmp))  # warm-up
        if args.trace:
            tracer = Tracer(bohrlab)
            metrics = run_traced(loop, tracer, args.seconds)
            stats = {}
        else:
            stats = run_untraced(loop, args.seconds)
            stats["raw_setup_s"] = raw_setup_s
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {
                "throughput": (stats["throughput"], "1/s"),
                "round_p50_ms": (stats["round_p50_ms"], "ms"),
                "setup_s": (setup_s, "s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }

    stem = os.path.join(OUT, f"{workload.name}-seed{args.seed}")
    if args.trace:
        tracer.write(os.path.join(OUT, f"{workload.name}.spans.csv.gz"))
    error_ratio = len(loop.failures) / loop.attempted
    result = {
        "environment": env,
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "work_unit": workload.unit,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "error_ratio": error_ratio,
        "failures": loop.failures[:20],
        "stats": stats,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "rounds": loop.records,
    }
    with open(f"{stem}-trace{args.trace}.json", "w") as fh:
        json.dump(result, fh, indent=1)

    print(f"# env {json.dumps(env, sort_keys=True)}")
    print(f"# workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"{loop.attempted} rounds, throughput unit {workload.unit}")
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:14.6g} {unit}")
    off_cpu = stats.get("off_cpu_share", 0.0)
    if stats:
        beyond = stats["p90_rounds_beyond"]
        validity = "valid" if beyond >= P90_MIN_BEYOND else f"invalid, needs {P90_MIN_BEYOND}"
        print(f"{'round_p90_ms':34s} {stats['round_p90_ms']:14.6g} ms "
              f"({beyond} rounds beyond it: {validity})")
        print(f"# {off_cpu:.3%} of the rounds' wall time was off the CPU (limit {OFF_CPU_LIMIT:.0%})")
    if stats:
        print("# uncorrected: " + ", ".join(
            f"{k[4:]} {stats[k]:.6g}" for k in stats if k.startswith("raw_"))
            + f"; median kernel time {stats['kernel_s_median'] * 1e3:.4g} ms"
            f" (reference {REFERENCE_S * 1e3:.4g} ms)")
    print(f"{'error_ratio':34s} {error_ratio:14.6g} ({len(loop.failures)}/{loop.attempted} rounds)")
    for failure in loop.failures[:3]:
        print(f"# failed round {failure['round']}: {failure['problems'][0]}", file=sys.stderr)
    if off_cpu > OFF_CPU_LIMIT:
        print(f"# rounds spent {off_cpu:.1%} of their wall time off the CPU", file=sys.stderr)
    print(json.dumps({
        "correct": (not loop.failures and off_cpu <= OFF_CPU_LIMIT
                    and all(math.isfinite(v) for v, _ in metrics.values())),
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
