"""Append end-to-end benchmark results to BENCH_e2e.json.

    python3 scripts/bench_e2e.py --tree . --seeds 101-110
    python3 scripts/bench_e2e.py --tree ../parent --tree . --seeds 101-110

Runs ``perfbench/run.py --seconds 20 --trace 0`` in each checkout for
every workload and seed, and appends one entry per checkout to
BENCH_e2e.json: the commit hash, the environment line of the runs, and
for each workload the median, quartiles, count and per-seed values of
every end-to-end metric, with the failed and attempted unit counts.
With two or more checkouts the runs of one (workload, seed) follow each
other, in an order that alternates from seed to seed, so that drift in
the machine's speed falls on every side; a summary of each later
checkout against the first is printed, with the pairs it wins.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sweep-sim", "stream-socket", "gen-physics")
RUN_SECONDS = 20
RUN_TIMEOUT_S = 900
OUT = ROOT / "BENCH_e2e.json"


def _seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    if not seeds:
        raise argparse.ArgumentTypeError(f"no seeds in {text!r}")
    return seeds


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--tree", action="append", type=Path, required=True,
                   help="checkout to measure; repeat to interleave several")
    p.add_argument("--seeds", type=_seeds, required=True, help="e.g. 101-110 or 3,5,7")
    return p.parse_args(argv)


def _git(tree: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(tree), *args], capture_output=True, text=True,
                          check=True).stdout.strip()


def _commit(tree: Path) -> str:
    """HEAD of the checkout, marked dirty when tracked files differ from it."""
    head = _git(tree, "rev-parse", "HEAD")
    return head + ("+dirty" if _git(tree, "status", "--porcelain", "--untracked-files=no") else "")


def _run(tree: Path, workload: str, seed: int) -> tuple[dict, dict]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(RUN_SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: {' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    *_, info_line, result_line = proc.stdout.strip().splitlines()
    return json.loads(info_line)["info"], json.loads(result_line)


def _summary(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def _metric(results: list[dict], name: str) -> dict:
    values = [r["metrics"][name]["value"] for r in results]
    return {"unit": results[0]["metrics"][name]["unit"], **_summary(values), "runs": values}


def _better(tree: Path) -> dict[str, str]:
    spec = json.loads((tree / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def _report(entries: list[dict], better: dict[str, str]) -> None:
    base = entries[0]
    for entry in entries[1:]:
        print(f"{entry['commit'][:12]} against {base['commit'][:12]}")
        for workload, side in entry["workloads"].items():
            for name, stats in side["metrics"].items():
                ref = base["workloads"][workload]["metrics"][name]
                sign = 1 if better.get(name) == "higher" else -1
                wins = sum(sign * (new - old) > 0 for new, old in zip(stats["runs"], ref["runs"]))
                print(f"  {workload:14s} {name:15s} {ref['median']:10.4g} "
                      f"[{ref['q1']:.4g}-{ref['q3']:.4g}] -> {stats['median']:10.4g} "
                      f"[{stats['q1']:.4g}-{stats['q3']:.4g}]  wins {wins}/{len(ref['runs'])}")


def main(argv=None) -> int:
    args = _parse(argv)
    trees = [t.resolve() for t in args.tree]
    runs = {t: {w: [] for w in WORKLOADS} for t in trees}
    environment = {}
    for i, seed in enumerate(args.seeds):
        for workload in WORKLOADS:
            for tree in trees if i % 2 == 0 else trees[::-1]:
                t0 = time.monotonic()
                info, result = _run(tree, workload, seed)
                environment.setdefault(tree, info["environment"])
                runs[tree][workload].append(result)
                sps = result["metrics"]["throughput_sps"]["value"]
                print(f"{workload} seed {seed} {tree}: {sps:.3f} sps, failed {result['failed']}"
                      f" ({time.monotonic() - t0:.0f} s)", file=sys.stderr, flush=True)

    entries = []
    for tree in trees:
        per_workload = {}
        for workload, results in runs[tree].items():
            per_workload[workload] = {
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": {name: _metric(results, name) for name in results[0]["metrics"]},
            }
        entries.append({
            "commit": _commit(tree),
            "command": f"perfbench/run.py --seconds {RUN_SECONDS} --trace 0",
            "seeds": args.seeds,
            "environment": environment[tree],
            "workloads": per_workload,
        })

    existing = json.loads(OUT.read_text()) if OUT.exists() else []
    OUT.write_text(json.dumps(existing + entries, indent=1) + "\n")
    _report(entries, _better(trees[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
