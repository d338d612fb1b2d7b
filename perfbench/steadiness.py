"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/steadiness.py --workload plan-cold --seeds 1-10 --seconds 10

For every end-to-end metric (and the raw, un-normalised figures printed on
the ``# raw`` line) it prints the median and the inter-quartile distance as
a share of the median — the figure each metric's bound in BENCHMARK.json is
checked against.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from benchstats import spread  # noqa: E402


def _seeds(text: str):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-5", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", default="10")
    args = parser.parse_args()
    run_py = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
    values, raw = {}, {}
    for seed in _seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, run_py, "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", "0"],
            capture_output=True, text=True, check=True)
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        if not result["correct"]:
            print(f"seed {seed}: NOT CORRECT ({result['failed']} failed)")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        for line in lines:
            if line.startswith("# raw "):
                for name, value in json.loads(line[len("# raw "):]).items():
                    items = value.items() if isinstance(value, dict) else [("", value)]
                    for sub, v in items:
                        if isinstance(v, (int, float)):
                            raw.setdefault(f"{name}.{sub}" if sub else name, []).append(v)
        print(f"seed {seed}: " + " ".join(
            f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()), flush=True)
    for label, table in (("metric", values), ("raw", raw)):
        for name, vals in table.items():
            if len(vals) >= 2 and statistics.median(vals):
                print(f"{label:6s} {name:24s} median={statistics.median(vals):10.4g} "
                      f"spread={spread(vals):7.2%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
