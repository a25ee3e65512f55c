"""Edge outputs are computed once per sweep and per bench, and reusing
them changes no map and no report byte."""

import contextlib
import dataclasses

import numpy as np
import pytest

from conftest import TINY
from splitfwi import reporting, runtime
from splitfwi.errors import ConfigError
from splitfwi.model import forward_full, init_weights
from splitfwi.netem import NetworkProfile
from splitfwi.reporting import (
    BenchmarkSpec,
    run_benchmark,
    write_per_sample_csv,
    write_report_json,
    write_summary_csv,
)
from splitfwi.runtime import InfraConfig, PipelineMode, random_drop_sets, run_robustness_sweep

LOSSY = NetworkProfile(bandwidth_bps=2e6, base_latency_s=0.02, loss_rate=0.3, mtu_bytes=32,
                       medium="shared")
ALL_K = range(TINY.n_devices + 1)


@pytest.fixture(scope="module")
def weights():
    return init_weights(TINY, seed=11)


@pytest.fixture(scope="module")
def fla_weights():
    return init_weights(dataclasses.replace(TINY, n_devices=1), seed=11)


def _waves(n=3, dtype=np.float32):
    rng = np.random.default_rng(42)
    return [rng.normal(size=(5, 40, 70)).astype(dtype) for _ in range(n)]


def _infra(**kw):
    return InfraConfig(n_devices=TINY.n_devices, network=LOSSY, deadline_s=0.09,
                       netem_mode="stochastic", seed=5, **kw)


class _Calls:
    """Wraps a runtime function and records the arguments of each call."""

    def __init__(self, monkeypatch, name):
        self.args = []
        original = getattr(runtime, name)

        def counted(*args, **kwargs):
            self.args.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(runtime, name, counted)


def _capture_runs(monkeypatch):
    """Record each run_baseline call of a sweep: its mode, drop sets and maps."""
    runs = []
    original = runtime.run_baseline

    def captured(mode, samples, weights, infra, drop_devices=None, ground_truth=None):
        maps, report = original(mode, samples, weights, infra,
                                drop_devices=drop_devices, ground_truth=ground_truth)
        runs.append((mode, drop_devices, maps, report))
        return maps, report

    monkeypatch.setattr(runtime, "run_baseline", captured)
    return runs


def _assert_same_maps(maps, ref_maps):
    assert len(maps) == len(ref_maps)
    for vmap, ref in zip(maps, ref_maps):
        if ref is None:
            assert vmap is None
        else:
            np.testing.assert_array_equal(vmap.values, ref.values)


def _report_bytes(reports, tmp_path, tag):
    paths = (write_per_sample_csv(reports, tmp_path / f"{tag}.csv"),
             write_summary_csv(reports, tmp_path / f"{tag}-summary.csv"),
             write_report_json(reports, tmp_path / f"{tag}.json"))
    return [p.read_bytes() for p in paths]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sweep_equals_separate_runs(monkeypatch, tmp_path, weights, fla_weights, dtype):
    waves = _waves(dtype=dtype)
    truths = [np.random.default_rng(i).uniform(1500, 4500, (70, 70)).astype(np.float32)
              for i in range(len(waves))]
    infra = _infra()
    runs = _capture_runs(monkeypatch)
    sweep = run_robustness_sweep(waves, weights, infra, drop_counts=ALL_K,
                                 modes=tuple(PipelineMode), ground_truth=truths,
                                 fla_weights=fla_weights)
    monkeypatch.undo()
    assert len(runs) == len(ALL_K) * len(PipelineMode)

    separate = []
    for mode, drops, maps, _ in runs:
        w = fla_weights if mode == PipelineMode.FLA else weights
        ref_maps, ref = runtime.run_baseline(mode, waves, w, infra, drop_devices=drops,
                                             ground_truth=truths)
        separate.append(ref)
        _assert_same_maps(maps, ref_maps)
    # k = n_devices drops everything: EPIC and SLA rows fail
    assert any(r.status == "failed" for rep in separate for r in rep.rows)
    assert _report_bytes(list(sweep.values()), tmp_path, "sweep") == \
        _report_bytes(separate, tmp_path, "separate")


def test_sweep_encodes_each_input_once(monkeypatch, weights, fla_weights):
    waves = _waves()
    infra = _infra()
    encodes = _Calls(monkeypatch, "encode")
    maps = _Calls(monkeypatch, "forward_full")
    run_robustness_sweep(waves, weights, infra, drop_counts=ALL_K, modes=tuple(PipelineMode),
                         fla_weights=fla_weights)

    present, dropped = set(), set()
    for k in ALL_K:
        for idx, drops in enumerate(random_drop_sets(infra.seed, infra.n_devices, k, len(waves))):
            present |= {(d, idx) for d in range(infra.n_devices) if d not in drops}
            dropped |= drops
    # one encode per (device, sample) that any run kept online, one per
    # dropped device's zero slice (all slices of a device share a shape)
    assert len(encodes.args) == len(present) + len(dropped)
    keys = [(id(enc), x.shape, x.tobytes()) for x, enc in encodes.args]
    assert len(set(keys)) == len(keys)
    zero = [x for x, _ in encodes.args if not x.any()]
    assert len(zero) == len(dropped)
    # FLA runs the single-device model once per (sample, slice)
    assert len(maps.args) == len(present)
    assert all(w is fla_weights for _, w, _ in maps.args)


def test_bench_encodes_each_input_once(monkeypatch):
    spec = BenchmarkSpec(
        modes=(PipelineMode.EPIC, PipelineMode.SLA, PipelineMode.CENTRALIZED, PipelineMode.FLA),
        device_counts=(2, 3), profiles=(NetworkProfile(), LOSSY), n_samples=2,
        model=dataclasses.replace(TINY, n_devices=1),
    )
    encodes = _Calls(monkeypatch, "encode")
    maps = _Calls(monkeypatch, "forward_full")
    reports = run_benchmark(spec)
    assert len(reports) == len(spec.modes) * len(spec.device_counts) * len(spec.profiles)
    # no drops: one latent per (device count, device, sample), whatever the
    # profile or mode, and one FLA map per (device count, slice, sample)
    assert len(encodes.args) == spec.n_samples * sum(spec.device_counts)
    assert len(maps.args) == spec.n_samples * sum(spec.device_counts)


def test_centralized_with_drops_equals_zero_filled_forward(weights):
    waves = _waves()
    infra = _infra(partition=((0, 20), (20, 45), (45, 70)))
    drops = [frozenset({1}), frozenset({0, 2}), frozenset({0, 1, 2})]
    maps, report = runtime.run_baseline(PipelineMode.CENTRALIZED, waves, weights, infra,
                                        drop_devices=drops)
    for wave, off, vmap in zip(waves, drops, maps):
        filled = wave.copy()
        for d in off:
            a, b = infra.partition[d]
            filled[:, :, a:b] = 0.0
        ref = forward_full(filled, weights, infra.partition)
        np.testing.assert_array_equal(vmap.values, ref.values)
    assert [r.mask for r in report.rows] == [(True, False, True), (False, True, False),
                                             (False, False, False)]


def test_reuse_needs_the_owning_samples(weights):
    """A run over other samples inside a sweep's scope computes its own."""
    waves, others = _waves(), [w + 1.0 for w in _waves()]
    infra = _infra()
    ref_maps, _ = runtime.run_baseline(PipelineMode.EPIC, others, weights, infra)
    with runtime._reuse_edge_outputs(waves, weights):
        runtime.run_baseline(PipelineMode.EPIC, waves, weights, infra)
        maps, _ = runtime.run_baseline(PipelineMode.EPIC, others, weights, infra)
    assert any(m is not None for m in maps)
    _assert_same_maps(maps, ref_maps)


def test_sweeps_share_no_state(monkeypatch, weights, fla_weights):
    waves = _waves(2)
    infra = _infra()
    encodes = _Calls(monkeypatch, "encode")

    def sweep(**kw):
        encodes.args.clear()
        run_robustness_sweep(waves, weights, infra, drop_counts=(0, 1),
                             modes=(PipelineMode.EPIC, PipelineMode.CENTRALIZED), **kw)
        return len(encodes.args)

    first = sweep()
    assert first > 0
    assert sweep() == first
    assert runtime._REUSED.get() is None
    # FLA without its weights fails after the k = 0 EPIC run has encoded
    encodes.args.clear()
    with pytest.raises(ConfigError, match="fla_weights"):
        run_robustness_sweep(waves, weights, infra, drop_counts=(0,),
                             modes=(PipelineMode.EPIC, PipelineMode.FLA))
    assert encodes.args
    assert runtime._REUSED.get() is None
    assert sweep() == first
    assert sweep(fla_weights=fla_weights) == first


def test_bench_report_unchanged_by_reuse(monkeypatch, tmp_path):
    """run_benchmark's files equal those of a bench with reuse disabled."""
    spec = BenchmarkSpec(modes=tuple(PipelineMode), device_counts=(2, 3),
                         profiles=(NetworkProfile(), LOSSY), n_samples=2,
                         model=dataclasses.replace(TINY, n_devices=1), deadline_s=0.3)
    run_benchmark(spec, tmp_path / "reused")

    monkeypatch.setattr(reporting, "_reuse_edge_outputs", lambda *args: contextlib.nullcontext())
    run_benchmark(spec, tmp_path / "fresh")
    for name in ("bench_samples.csv", "bench_summary.csv", "bench_report.json"):
        assert (tmp_path / "reused" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()
