"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage (from the root of a checkout):
  python3 bench/spread.py --workload NAME [--workload NAME ...]
                          [--seeds 1-10] [--out FILE]

Runs ``bench/run.py --trace 0`` once per seed, for ``run_seconds`` of
``BENCHMARK.json``, and reports, per metric, the
median and the distance between the first and third quartiles as a share of
the median (``statistics.quantiles(values, n=4)``), next to the metric's
bound from ``BENCHMARK.json``.  Runs one after another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def seeds_from(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--out", type=Path, default=None)
    args = p.parse_args()
    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    for workload in args.workload:
        values: dict[str, list[float]] = {}
        for seed in seeds_from(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                capture_output=True, text=True, check=True,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: INCORRECT\n{proc.stderr}", file=sys.stderr)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: attempted {result['attempted']} "
                  f"failed {result['failed']}", file=sys.stderr)
        rows = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / med if med else 0.0
            rows[name] = {"median": med, "iqr_share": share, "bound": bounds.get(name),
                          "values": vals}
            print(f"{workload:15s} {name:12s} median {med:10.4f}  iqr/median {share:6.3f}"
                  f"  bound {bounds.get(name)}")
        report[workload] = rows
    if args.out:
        args.out.write_text(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
