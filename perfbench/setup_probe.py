"""Set-up time of one fresh process: ``import bohrlab`` plus one warm-up
round of a workload.  The warm-up pays for numpy's lazy BLAS/LAPACK
initialisation.  It is round 0 of seed 0 whatever the benchmark's seed,
since a round's work depends on its seed.  Prints {"setup_s": ..., "raw_setup_s": ..., "ok": ...}
as one JSON line: setup_s is the wall time corrected for host speed by
the reference kernel timed right after (hostspeed.py), raw_setup_s the
wall time itself.  Wall time, not CPU time: numpy's BLAS threads start
during the import and add CPU time that nobody waits for.

    python3 perfbench/setup_probe.py --workload analytic-d3 --out-dir perfbench/out
"""

import argparse
import json
import os
import statistics
import sys
import tempfile
import time

from workloads import WORKLOADS, round_argvs, run_round

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    start = time.perf_counter()
    import bohrlab.cli

    with tempfile.TemporaryDirectory(dir=args.out_dir) as tmp:
        _, _, outcomes = run_round(bohrlab.cli,
                                   round_argvs(WORKLOADS[args.workload], 0, 0, tmp))
    raw_setup_s = time.perf_counter() - start
    from hostspeed import REFERENCE_S, kernel

    kernel_s = statistics.median(kernel() for _ in range(3))
    print(json.dumps({"setup_s": raw_setup_s * REFERENCE_S / kernel_s, "raw_setup_s": raw_setup_s,
                      "ok": all(code == 0 for code, _ in outcomes)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
