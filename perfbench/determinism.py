"""Determinism check: traced runs with one seed must repeat their counts.

Usage, from the root of a checkout::

    python3 perfbench/determinism.py --seed 3 --seconds 6

Runs every workload's traced run twice with the same seed and compares
the per-layer counts that ``metrics.json`` marks ``"deterministic":
true``. Prints one line per (workload, metric) and exits non-zero when a
count differs; such a count must then be marked ``false`` in
``metrics.json`` so that no claim rests on it.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def traced_counts(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--seconds", type=float, default=6)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args(argv)
    with open(os.path.join(HERE, "metrics.json"), encoding="utf-8") as f:
        cat = json.load(f)
    checked = [m["name"] for m in cat["per_layer"] if "deterministic" in m]
    workloads = args.workload or [w["name"] for w in cat["workloads"]]
    differing = 0
    for workload in workloads:
        first = traced_counts(workload, args.seed, args.seconds)
        second = traced_counts(workload, args.seed, args.seconds)
        for name in checked:
            same = first[name] == second[name]
            differing += not same
            print("%-10s %-32s %-14r %-14r %s" % (
                workload, name, first[name], second[name],
                "equal" if same else "DIFFERS"))
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
