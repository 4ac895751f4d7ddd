"""Run every workload of BENCHMARK.json untraced over several seeds,
for its run_seconds each, and summarise each end-to-end metric as median,
quartiles and spread (interquartile distance over the median), and
likewise the numeric ``stats`` of the result files (uncorrected timings,
round_p90_ms, off-CPU share).

    python3 perfbench/sweep.py --seeds 1-10 [--json perfbench/out/sweep.json]

Runs are sequential; the workloads take turns within each seed, so a
slow spell of the machine is shared between them.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")


def summarise(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="first-last")
    parser.add_argument("--json", default=None, help="also write the summary here")
    args = parser.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]
    first, last = (int(x) for x in args.seeds.split("-"))
    runs = {w: [] for w in WORKLOADS}
    for seed in range(first, last + 1):
        for w in WORKLOADS:
            proc = subprocess.run(
                [sys.executable, RUN, "--workload", w, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                capture_output=True, text=True, timeout=600)
            result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else None
            if result is None or not result["correct"]:
                print(f"{w} seed {seed}: rc {proc.returncode} {proc.stderr.strip()[-500:]}",
                      file=sys.stderr)
                return 1
            with open(os.path.join(HERE, "out", f"{w}-seed{seed}-trace0.json")) as fh:
                stats = json.load(fh)["stats"]
            runs[w].append(result["metrics"] | {k: {"value": v} for k, v in stats.items()})
            print(f"{w} seed {seed}: " + " ".join(
                f"{k}={m['value']:.6g}" for k, m in runs[w][-1].items()), file=sys.stderr)
    summary = {}
    for w, results in runs.items():
        summary[w] = {k: summarise([r[k]["value"] for r in results]) for k in results[0]}
        for k, s in summary[w].items():
            print(f"{w:14s} {k:34s} median {s['median']:12.6g}  "
                  f"q1 {s['q1']:12.6g}  q3 {s['q3']:12.6g}  spread {s['spread']:.4f}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(summary, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
