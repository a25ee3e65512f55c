"""Check a traced perfbench run's counts against scripts/traced_counts.json.

    python3 perfbench/run.py --workload sweep-sim --seed 3 --trace 1 > traced.out
    python3 scripts/check_counts.py sweep-sim traced.out

Reads the last line of the run's output, the result JSON, and compares
every metric whose unit is ``count``, plus ``transport.wire_bytes``, with
the values that traced_counts.json records for the workload at seed 3.
Exits 1, naming each metric, if a value differs or a metric is missing
from either side; a change that moves a count updates the file and says
why.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

COUNTS = Path(__file__).resolve().parent / "traced_counts.json"
EXTRA = ("transport.wire_bytes",)  # counted in bytes, so not unit "count"


def counted(metrics: dict) -> dict:
    """The metrics that the file pins: unit count, plus EXTRA."""
    return {name: m["value"] for name, m in metrics.items()
            if m["unit"] == "count" or name in EXTRA}


def mismatches(workload: str, metrics: dict, pinned: dict) -> list[str]:
    want = pinned[workload]
    got = counted(metrics)
    out = [f"{name}: expected {want[name]}, got {got.get(name, 'no value')}"
           for name in want if got.get(name) != want[name]]
    out += [f"{name}: {got[name]} is not in {COUNTS.name}" for name in got if name not in want]
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("workload")
    p.add_argument("output", type=Path, help="the traced run's standard output")
    args = p.parse_args(argv)
    result = json.loads(args.output.read_text().splitlines()[-1])
    bad = mismatches(args.workload, result["metrics"], json.loads(COUNTS.read_text()))
    for line in bad:
        print(f"{args.workload}: {line}", file=sys.stderr)
    if not bad:
        print(f"{args.workload}: every traced count equals {COUNTS.name}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
