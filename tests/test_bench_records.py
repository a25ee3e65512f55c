"""The committed end-to-end benchmark record, BENCH_e2e.json, holds a
complete and consistent entry for every measured checkout: each workload
and each end-to-end metric that BENCHMARK.json declares, summarised from
one run per seed."""

import importlib.util
import json
import re
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
ENTRIES = json.loads((ROOT / "BENCH_e2e.json").read_text())


def test_record_has_entries():
    assert isinstance(ENTRIES, list) and ENTRIES


@pytest.mark.parametrize("entry", ENTRIES, ids=[e.get("commit", "?")[:12] for e in ENTRIES])
def test_entry_complete(entry):
    assert re.fullmatch(r"[0-9a-f]{40}(\+dirty)?", entry["commit"])
    seeds = entry["seeds"]
    assert seeds and all(isinstance(s, int) for s in seeds)
    assert len(set(seeds)) == len(seeds)
    assert isinstance(entry["environment"], dict) and entry["environment"]
    assert set(entry["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    for name, side in entry["workloads"].items():
        assert 0 <= side["failed"] <= side["attempted"], name
        for metric in SPEC["end_to_end"]:
            stats = side["metrics"][metric["name"]]
            where = f"{name} {metric['name']}"
            assert stats["unit"] == metric["unit"], where
            assert stats["n"] == len(seeds) == len(stats["runs"]), where
            assert stats["q1"] <= stats["median"] <= stats["q3"], where
            # the summary is the inclusive quartiles of the per-seed runs
            quartiles = (statistics.quantiles(stats["runs"], n=4, method="inclusive")
                         if len(stats["runs"]) > 1 else stats["runs"] * 3)
            assert [stats["q1"], stats["median"], stats["q3"]] == quartiles, where


def _summary(runs):
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"runs": runs, "median": median, "q1": q1, "q3": q3}


def _bench_e2e():
    spec = importlib.util.spec_from_file_location("bench_e2e", ROOT / "scripts" / "bench_e2e.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_verdict_applies_bound_and_gain_rule():
    verdict = _bench_e2e().verdict
    base = [10.0 + i for i in range(10)]  # median 14.5, IQR 4.5
    ref = _summary(base)
    up = verdict(ref, _summary([v + 5.0 for v in base]), "higher", 0.25)
    assert (up["wins"], up["pairs"], up["within"], up["gain"]) == (10, 10, True, True)
    assert up["worse"] == pytest.approx(-5.0 / 14.5)
    # the same move is a regression when lower is better, and past a 25% bound
    down = verdict(ref, _summary([v + 5.0 for v in base]), "lower", 0.25)
    assert (down["wins"], down["within"], down["gain"]) == (0, False, False)
    assert down["worse"] == pytest.approx(5.0 / 14.5)
    # a median gain no larger than the parent's IQR is no gain
    small = verdict(ref, _summary([v + 4.0 for v in base]), "higher", 0.25)
    assert (small["wins"], small["within"], small["gain"]) == (10, True, False)
    # nine pairs in ten suffice, eight do not
    nine = [v + 6.0 for v in base[:9]] + [base[9] - 1.0]
    eight = [v + 6.0 for v in base[:8]] + [base[8] - 1.0, base[9] - 1.0]
    assert verdict(ref, _summary(nine), "higher", 0.25)["gain"]
    assert not verdict(ref, _summary(eight), "higher", 0.25)["gain"]
    # an IQR of 4.5 / 14.5 = 31% of the median cannot resolve a 25% bound,
    # even for a gain, but resolves a 35% one
    assert up["unresolved"] and small["unresolved"]
    same = verdict(ref, _summary(list(base)), "higher", 0.25)
    assert (same["within"], same["unresolved"]) == (True, True)
    assert not verdict(ref, _summary(list(base)), "higher", 0.35)["unresolved"]
    # unless every new run beats every reference run
    assert not verdict(ref, _summary([v + 10.0 for v in base]), "higher", 0.25)["unresolved"]
    assert verdict(ref, _summary([v + 9.0 for v in base]), "higher", 0.25)["unresolved"]


def _check_counts():
    spec = importlib.util.spec_from_file_location("check_counts", ROOT / "scripts" / "check_counts.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_counts_pin_every_count_metric():
    check = _check_counts()
    pinned = json.loads(check.COUNTS.read_text())
    assert set(pinned) == {w["name"] for w in SPEC["workloads"]}
    names = {m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"} | set(check.EXTRA)
    for workload, counts in pinned.items():
        assert set(counts) == names, workload
        metrics = {n: {"value": v, "unit": "count"} for n, v in counts.items()}
        assert check.mismatches(workload, metrics, pinned) == []
        # a moved count and a missing one are both named
        moved = dict(metrics, **{"model.encode.calls": {"value": -1, "unit": "count"}})
        del moved["physics.simulate.calls"]
        assert [line.split(":")[0] for line in check.mismatches(workload, moved, pinned)] == [
            "model.encode.calls", "physics.simulate.calls"]
