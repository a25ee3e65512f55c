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

The summary also gives the acceptance verdict for each workload and
metric: whether the later checkout's median is within the metric's bound
in BENCHMARK.json of the first one's, and whether it shows a gain, that
is, wins at least nine pairs in ten and beats the first median by more
than the first checkout's interquartile range. The share of failed units
must not grow either.
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
GAIN_WIN_SHARE = 0.9  # pairs a gain must win
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


def _end_to_end(tree: Path) -> dict[str, dict]:
    """BENCHMARK.json's end-to-end metrics by name: better, bound, unit."""
    spec = json.loads((tree / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"]}


def verdict(ref: dict, new: dict, better: str, bound: float) -> dict:
    """How one metric's runs compare with the reference's, pair by pair.

    `worse` is the relative move of the median in the bad direction
    (negative when it improved); `within` holds when it is at most
    `bound`; `gain` when the new runs win at least GAIN_WIN_SHARE of the
    pairs and the median improved by more than the reference's IQR.
    """
    sign = 1 if better == "higher" else -1
    pairs = list(zip(new["runs"], ref["runs"]))
    wins = sum(sign * (n - r) > 0 for n, r in pairs)
    improved = sign * (new["median"] - ref["median"])
    worse = -improved / abs(ref["median"]) if ref["median"] else 0.0
    return {
        "wins": wins,
        "pairs": len(pairs),
        "worse": worse,
        "within": worse <= bound,
        "gain": wins >= GAIN_WIN_SHARE * len(pairs) and improved > ref["q3"] - ref["q1"],
    }


def _report(entries: list[dict], metrics: dict[str, dict]) -> None:
    base = entries[0]
    for entry in entries[1:]:
        print(f"{entry['commit'][:12]} against {base['commit'][:12]}")
        all_within = True
        for workload, side in entry["workloads"].items():
            ref_side = base["workloads"][workload]
            for name, stats in side["metrics"].items():
                ref = ref_side["metrics"][name]
                spec = metrics[name]
                v = verdict(ref, stats, spec["better"], spec["bound"])
                all_within &= v["within"]
                print(f"  {workload:14s} {name:15s} {ref['median']:10.4g} "
                      f"[{ref['q1']:.4g}-{ref['q3']:.4g}] -> {stats['median']:10.4g} "
                      f"[{stats['q1']:.4g}-{stats['q3']:.4g}]  "
                      f"wins {v['wins']}/{v['pairs']}  worse {100 * v['worse']:+.1f}% "
                      f"(bound {100 * spec['bound']:.0f}%: "
                      f"{'within' if v['within'] else 'OUT OF BOUND'})  "
                      f"gain {'yes' if v['gain'] else 'no'}")
            ref_share = ref_side["failed"] / max(ref_side["attempted"], 1)
            share = side["failed"] / max(side["attempted"], 1)
            all_within &= share <= ref_share
            print(f"  {workload:14s} {'failed':15s} {ref_side['failed']}/{ref_side['attempted']}"
                  f" -> {side['failed']}/{side['attempted']}"
                  f"  ({'no more' if share <= ref_share else 'MORE'} than before)")
        print(f"  every median within its bound and no more failures: "
              f"{'yes' if all_within else 'NO'}")


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
    _report(entries, _end_to_end(trees[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
