"""Steadiness check: two sets of runs of the same code must agree.

    python3 perfbench/steady.py [--runs 10] [--workload rest-hit ...]

Runs ``run.py`` ``--runs`` times per set and workload, one run at a time,
with seeds 1000, 1001, ... for the first set and 2000, 2001, ... for the
second.  The sets are interleaved run by run (seed 1000, then 2000, then
1001, 2001, ...), so a busy or quiet stretch of the host falls on both
sets alike.  For every workload and end-to-end metric it prints each set's
median and quartile spread (the distance between the first and third
quartile as a share of the median), and whether the metric holds:

* every set's spread is within the metric's bound;
* the set medians agree within the bound in both directions: the largest
  is at most ``1 + bound`` times the smallest;
* every set fails the same share of its attempted operations.

Bounds, metrics and the run length come from ``BENCHMARK.json``.  Exits 1
if any metric does not hold.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from fractions import Fraction
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from stats import quartile_spread  # noqa: E402

#: Sets of runs compared.
SETS = 2


def run_once(
    command: List[str], workload: str, seed: int, seconds: int, log_dir: str = ""
) -> dict:
    args = command + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    if log_dir:
        with open(os.path.join(log_dir, f"{workload}-{seed}.txt"), "w") as handle:
            handle.write(proc.stdout)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def agree(medians: List[float], bound: float) -> bool:
    """Whether the largest median is within ``bound`` of the smallest."""
    low, high = min(medians), max(medians)
    if low <= 0:
        return high == low
    return high / low - 1.0 <= bound


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument(
        "--workload", action="append",
        help="workload to run (repeatable; default: every workload)",
    )
    parser.add_argument("--log", default="", help="directory to keep each run's output in")
    args = parser.parse_args(argv)
    names = args.workload or [w["name"] for w in spec["workloads"]]

    results: Dict[str, List[List[dict]]] = {name: [[] for _ in range(SETS)] for name in names}
    for i in range(args.runs):
        for name in names:
            for k in range(SETS):
                seed = 1000 * (k + 1) + i
                result = run_once(spec["command"], name, seed, spec["run_seconds"], args.log)
                results[name][k].append(result)
                print(f"set {k + 1} {name} seed {seed}: "
                      + " ".join(f"{m}={v['value']:.4g}" for m, v in result["metrics"].items()),
                      flush=True)

    ok = True
    print()
    print(f"{'workload':<14} {'metric':<15} {'bound':>6} "
          + " ".join(f"{'median' + str(k + 1):>11} {'spread' + str(k + 1):>8}" for k in range(SETS))
          + "  verdict")
    for name in names:
        sets = results[name]
        shares = {
            Fraction(sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs))
            for runs in sets
        }
        if len(shares) != 1:
            ok = False
            print(f"{name}: failed shares differ between sets: {sorted(map(float, shares))}")
        if not all(r["correct"] for runs in sets for r in runs):
            ok = False
            print(f"{name}: a run reported wrong answers")
        for metric in spec["end_to_end"]:
            m, bound = metric["name"], metric["bound"]
            medians, spreads = [], []
            for runs in sets:
                values = [r["metrics"][m]["value"] for r in runs]
                medians.append(statistics.median(values))
                spreads.append(quartile_spread(values) if len(values) > 1 else 0.0)
            holds = agree(medians, bound) and all(spread <= bound for spread in spreads)
            ok = ok and holds
            print(f"{name:<14} {m:<15} {bound:>6.3f} "
                  + " ".join(f"{med:>11.4f} {spr:>8.3f}" for med, spr in zip(medians, spreads))
                  + ("  ok" if holds else "  NOT STEADY"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
