"""Run-to-run spread of the end-to-end metrics, as the bounds judge it.

Usage (from the root of a checkout)::

    python3 perfbench/spread.py --workload read-hot --seeds 1-10

Runs ``run.py`` once per seed and prints, for each metric, the median,
the quartile spread ``(q3 - q1) / median`` and the bound from
``BENCHMARK.json``. A spread at or above a third of its bound is
marked. The JSON result lines of every run are appended to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(spec: str):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values = {}
    incorrect = 0
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            spec["command"] + ["--workload", args.workload,
                               "--seed", str(seed),
                               "--seconds", str(spec["run_seconds"]),
                               "--trace", str(args.trace)],
            cwd=str(ROOT), capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print("seed %d: exit %d\n%s" % (seed, proc.returncode,
                                              proc.stderr[-2000:]))
            return 1
        result = json.loads(lines[-1])
        if args.out:
            with open(args.out, "a") as out:
                out.write(json.dumps(dict(result, seed=seed,
                                          workload=args.workload)) + "\n")
        if not result["correct"]:
            incorrect += 1
            print("seed %d: incorrect (%d of %d failed): %s" % (
                seed, result["failed"], result["attempted"], lines[2]))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print("seed %d done" % seed, flush=True)
    print("%-30s %12s %8s %6s" % ("metric", "median", "spread", "bound"))
    for name, series in values.items():
        med = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4) \
            if len(series) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        flag = " <-- over a third of the bound" \
            if bound is not None and spread >= bound / 3 else ""
        print("%-30s %12.4f %8.4f %6s%s" % (name, med, spread, bound, flag))
    print("incorrect runs: %d" % incorrect)
    return 0


if __name__ == "__main__":
    sys.exit(main())
