"""Edge outputs are computed once per sweep and per bench, and reusing
them changes no map and no report byte."""

import dataclasses
import weakref

import numpy as np
import pytest

from conftest import TINY
from splitfwi import runtime
from splitfwi.errors import ConfigError, InputValidationError
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


def test_sweep_encodes_each_input_once(monkeypatch, fla_weights):
    weights = init_weights(TINY, seed=11)  # fresh: no zero-slice latent kept yet
    waves = _waves()
    infra = _infra()
    encodes = _Calls(monkeypatch, "encode")
    maps = _Calls(monkeypatch, "forward_full")

    def sweep():
        encodes.args.clear()
        maps.args.clear()
        run_robustness_sweep(waves, weights, infra, drop_counts=ALL_K,
                             modes=tuple(PipelineMode), fla_weights=fla_weights)

    sweep()

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
    # the weights keep the zero-slice latents: a second sweep encodes only
    # the slices of its samples
    sweep()
    assert len(encodes.args) == len(present)
    assert all(x.any() for x, _ in encodes.args)
    assert len(maps.args) == len(present)


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


def _memos(monkeypatch):
    """Record the shared-results dict in force after each run_baseline call."""
    memos = []
    original = runtime.run_baseline

    def captured(*args, **kwargs):
        result = original(*args, **kwargs)
        memos.append(runtime._DONE.get())
        return result

    monkeypatch.setattr(runtime, "run_baseline", captured)
    return memos


def test_reuse_needs_the_owning_sweep(monkeypatch, weights):
    """A run over other samples than a sweep's computes its own."""
    waves, others = _waves(), [w + 1.0 for w in _waves()]
    infra = _infra()
    ref_maps, _ = runtime.run_baseline(PipelineMode.EPIC, others, weights, infra)
    memos = _memos(monkeypatch)
    runtime.run_many(waves, [(PipelineMode.EPIC, weights, infra, None)])
    [done] = memos
    assert done
    monkeypatch.undo()
    maps, _ = runtime.run_baseline(PipelineMode.EPIC, others, weights, infra)
    runs = _capture_runs(monkeypatch)
    runtime.run_many(others, [(PipelineMode.EPIC, weights, infra, None)])
    [(_, _, shared_maps, _)] = runs
    for maps in (maps, shared_maps):
        assert any(m is not None for m in maps)
        _assert_same_maps(maps, ref_maps)


def test_sweeps_share_no_state(monkeypatch, fla_weights):
    """Sweeps share nothing but the zero-slice latents that the weights keep."""
    weights = init_weights(TINY, seed=11)  # fresh: no zero-slice latent kept yet
    attributes = set(vars(weights))
    waves = _waves(2)
    infra = _infra()
    encodes = _Calls(monkeypatch, "encode")

    def sweep(w=weights, **kw):
        encodes.args.clear()
        run_robustness_sweep(waves, w, infra, drop_counts=(0, 1),
                             modes=(PipelineMode.EPIC, PipelineMode.CENTRALIZED), **kw)
        return len(encodes.args)

    first = sweep()
    zero = sum(not x.any() for x, _ in encodes.args)
    assert first > zero > 0
    # one zero-slice encode per (weights, device, shape); every other
    # latent is encoded again by each sweep
    assert sweep() == first - zero
    assert all(x.any() for x, _ in encodes.args)
    assert set(vars(weights)) - attributes == {"_zero_latents"}
    assert len(vars(weights)["_zero_latents"]) == zero
    # FLA without its weights fails before the k = 0 EPIC run encodes
    encodes.args.clear()
    with pytest.raises(ConfigError, match="fla_weights"):
        run_robustness_sweep(waves, weights, infra, drop_counts=(0,),
                             modes=(PipelineMode.EPIC, PipelineMode.FLA))
    assert not encodes.args
    # a sweep that fails partway, at a second sample holding a NaN, which
    # encode rejects once sample 0 has encoded, leaves no state either
    nan = waves[1].copy()
    nan[0, 0, 0] = np.nan
    with pytest.raises(InputValidationError):
        run_robustness_sweep([waves[0], nan], weights, infra,
                             drop_counts=(0,), modes=(PipelineMode.EPIC,))
    assert encodes.args
    assert sweep() == first - zero
    assert sweep(fla_weights=fla_weights) == first - zero
    # other weights keep their own
    assert sweep(init_weights(TINY, seed=11)) == first


def test_bench_report_unchanged_by_reuse(monkeypatch, tmp_path):
    """run_benchmark's files equal those of a bench with reuse disabled."""
    spec = BenchmarkSpec(modes=tuple(PipelineMode), device_counts=(2, 3),
                         profiles=(NetworkProfile(), LOSSY), n_samples=2,
                         model=dataclasses.replace(TINY, n_devices=1), deadline_s=0.3)
    run_benchmark(spec, tmp_path / "reused")

    monkeypatch.setattr(runtime, "_once", lambda key, compute: compute())
    run_benchmark(spec, tmp_path / "fresh")
    for name in ("bench_samples.csv", "bench_summary.csv", "bench_report.json"):
        assert (tmp_path / "reused" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()


# ---------------------------------------------------------------------------
# central results and SSIM references


CLEAN = NetworkProfile(bandwidth_bps=1e9, base_latency_s=0.001)


def _clean_infra():
    # fast and lossless: no EPIC sample times out, so k = 0 masks are full
    return InfraConfig(n_devices=TINY.n_devices, network=CLEAN, deadline_s=0.5, seed=5)


def _distinct_decodes(drop_counts, n_samples, n_devices, seed):
    """(sample, what the fused latents are) of every EPIC and CENTRALIZED
    row with something to decode: EPIC's present latents, CENTRALIZED's
    latents with the dropped slices zero-filled. With no drop, both are
    the same latents of the same slices."""
    keys = set()
    for k in drop_counts:
        for idx, drops in enumerate(random_drop_sets(seed, n_devices, k, n_samples)):
            if len(drops) < n_devices:
                keys.add((idx, "encoded", frozenset(range(n_devices)) - drops))
            keys.add((idx, "encoded", frozenset(range(n_devices))) if not drops
                     else (idx, "zero-filled", drops))
    return keys


def test_sweep_fuses_and_decodes_each_latent_set_once(monkeypatch, weights):
    waves = _waves()
    infra = _clean_infra()
    decodes = _Calls(monkeypatch, "decode")
    fuses = _Calls(monkeypatch, "fuse")
    runs = _capture_runs(monkeypatch)
    run_robustness_sweep(waves, weights, infra, drop_counts=ALL_K,
                         modes=(PipelineMode.EPIC, PipelineMode.CENTRALIZED))
    assert all(all(r.mask) for mode, drops, _, rep in runs if mode == PipelineMode.EPIC
               and not any(drops) for r in rep.rows)
    expected = _distinct_decodes(ALL_K, len(waves), infra.n_devices, infra.seed)
    assert len(decodes.args) == len(fuses.args) == len(expected)
    # the k = 0 rows of both modes decoded once between them
    rows = sum(len(rep.rows) for _, _, _, rep in runs)
    failed = sum(r.status == "failed" for _, _, _, rep in runs for r in rep.rows)
    assert len(decodes.args) == rows - failed - len(waves)
    assert all(w is weights for _, _, w in decodes.args)


@pytest.mark.parametrize("modes", [BenchmarkSpec().modes, (PipelineMode.SLA,)],
                         ids=["default", "sla"])
def test_bench_decodes_each_latent_set_once(monkeypatch, modes):
    spec = BenchmarkSpec(modes=modes, device_counts=(2, 3),
                         profiles=(CLEAN, dataclasses.replace(CLEAN, bandwidth_bps=1e8)),
                         n_samples=2, model=TINY)
    decodes = _Calls(monkeypatch, "decode")
    plain = _Calls(monkeypatch, "decode_without_attention")
    reports = run_benchmark(spec)
    assert all(all(r.mask) and r.status == "ok" for rep in reports for r in rep.rows)
    # no drops: one latent set per (device count, sample), whatever the
    # profile or mode
    once = spec.n_samples * len(spec.device_counts)
    attended = PipelineMode.EPIC in modes or PipelineMode.CENTRALIZED in modes
    assert len(decodes.args) == (once if attended else 0)
    assert len(plain.args) == (once if PipelineMode.SLA in modes else 0)


def test_reused_maps_are_distinct_arrays(monkeypatch, weights):
    waves = _waves()
    infra = _clean_infra()
    runs = _capture_runs(monkeypatch)
    run_robustness_sweep(waves, weights, infra, drop_counts=(0,),
                         modes=(PipelineMode.EPIC, PipelineMode.CENTRALIZED))
    (_, _, epic, _), (_, _, central, _) = runs
    for wave, a, b in zip(waves, epic, central):
        full = forward_full(wave, weights, infra.partition).values
        np.testing.assert_array_equal(a.values, full)
        np.testing.assert_array_equal(b.values, full)
        assert not np.shares_memory(a.values, b.values)
        a.values[:] = 0.0
        np.testing.assert_array_equal(b.values, full)


def test_written_map_leaves_later_hits_unchanged(monkeypatch, weights):
    waves = _waves()
    infra = _clean_infra()
    decodes = _Calls(monkeypatch, "decode")
    runs = _capture_runs(monkeypatch)
    original = runtime.run_baseline

    def run(mode, *args, **kwargs):
        # the EPIC maps are written over before the CENTRALIZED run hits
        decodes.args.clear()
        maps, report = original(mode, *args, **kwargs)
        for vmap in maps if mode == PipelineMode.EPIC else ():
            vmap.values[:] = 0.0
        return maps, report

    monkeypatch.setattr(runtime, "run_baseline", run)
    runtime.run_many(waves, [(PipelineMode.EPIC, weights, infra, None),
                             (PipelineMode.CENTRALIZED, weights, infra, None)])
    [(_, _, first, _), (_, _, again, _)] = runs
    assert not any(vmap.values.any() for vmap in first)
    assert not decodes.args
    for wave, vmap in zip(waves, again):
        np.testing.assert_array_equal(vmap.values,
                                      forward_full(wave, weights, infra.partition).values)


@pytest.mark.parametrize("stacked", [False, True], ids=["list", "ndarray"])
def test_ssim_reference_once_per_sample(monkeypatch, weights, fla_weights, stacked):
    """One reference per sample, also when the ground truth is one array
    whose rows are new views on every index."""
    waves = _waves()
    truths = [np.random.default_rng(i).uniform(1500, 4500, (70, 70)).astype(np.float32)
              for i in range(len(waves))]
    refs = _Calls(monkeypatch, "ssim_reference")
    scores = _Calls(monkeypatch, "ssim")
    sweep = run_robustness_sweep(waves, weights, _infra(), drop_counts=ALL_K,
                                 modes=tuple(PipelineMode),
                                 ground_truth=np.stack(truths) if stacked else truths,
                                 fla_weights=fla_weights)
    ok = [r for rep in sweep.values() for r in rep.rows if r.status == "ok"]
    assert len(scores.args) == len(ok)
    assert len(refs.args) == len(truths)
    for (gt,), truth in zip(refs.args, truths):
        np.testing.assert_array_equal(gt, truth)


def test_no_central_state_outside_a_block(monkeypatch, weights):
    """A single run repeats nothing, so it keeps nothing: outside run_many
    no shared-results dict is in force, and every lookup computes."""
    waves = _waves()
    truths = [np.full((70, 70), 3000.0, np.float32)] * len(waves)
    kinds = []
    original = runtime._once

    def once(key, compute):
        assert runtime._DONE.get() is None
        kinds.append(key[0])
        return original(key, compute)

    monkeypatch.setattr(runtime, "_once", once)
    refs = _Calls(monkeypatch, "ssim_reference")
    for mode in (PipelineMode.EPIC, PipelineMode.SLA, PipelineMode.CENTRALIZED):
        runtime.run_baseline(mode, waves, weights, _clean_infra(), drop_devices={1},
                             ground_truth=truths)
    assert set(kinds) == {"latent", "fuse+decode", "plain", "truth"}
    assert len(refs.args) == 3 * len(waves)


def test_run_many_that_raises_leaves_no_shared_results(monkeypatch, weights):
    """A run_many whose second run raises partway keeps its dict only
    until it raises: afterwards no run shares anything."""
    waves = _waves(2)
    nan = waves[1].copy()
    nan[0, 0, 0] = np.nan  # in device 0's slice: the first run drops it
    memos = _memos(monkeypatch)
    runs = [(PipelineMode.EPIC, weights, _clean_infra(), {0}),
            (PipelineMode.EPIC, weights, _clean_infra(), None)]
    with pytest.raises(InputValidationError):
        runtime.run_many([waves[0], nan], runs)
    [done] = memos
    assert done
    assert runtime._DONE.get() is None
    encodes = _Calls(monkeypatch, "encode")
    runtime.run_baseline(PipelineMode.EPIC, waves, weights, _clean_infra())
    runtime.run_baseline(PipelineMode.EPIC, waves, weights, _clean_infra())
    assert len(encodes.args) == 2 * len(waves) * TINY.n_devices


@pytest.mark.parametrize("n_samples", [8, 16])
def test_single_run_frees_earlier_latents(monkeypatch, weights, n_samples):
    """Outside a sweep a run keeps no sample's latents once it is done:
    at each encode, the live latents of earlier samples never exceed one
    sample's devices."""
    waves = [np.random.default_rng(i).normal(size=(5, 40, 70)).astype(np.float32)
             for i in range(n_samples)]
    live, earlier = [], []  # (sample, weak reference) of each latent; count per encode
    original = runtime.encode

    def encode(wave_slice, encoder, device_id=0, sample_id=0):
        earlier.append(sum(s < sample_id and ref() is not None for s, ref in live))
        latent = original(wave_slice, encoder, device_id=device_id, sample_id=sample_id)
        live.append((sample_id, weakref.ref(latent)))
        return latent

    monkeypatch.setattr(runtime, "encode", encode)
    for mode in (PipelineMode.EPIC, PipelineMode.SLA, PipelineMode.CENTRALIZED):
        live.clear()
        earlier.clear()
        runtime.run_baseline(mode, waves, weights, _clean_infra())
        assert len(earlier) == n_samples * TINY.n_devices
        assert max(earlier) <= TINY.n_devices, (mode, earlier)
