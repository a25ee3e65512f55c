"""Acceptance suite: one test per release criterion, at full scale.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS line per
criterion.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from splitfwi.metrics import ssim
from splitfwi.model import (
    LatentSet,
    ModelConfig,
    decode,
    encode,
    forward_full,
    fuse,
    init_weights,
)
from splitfwi.netem import (
    FOUR_G,
    FrameKind,
    NetworkProfile,
    frame_decode,
    frame_encode,
    transmit_group,
)
from splitfwi.physics import (
    AcquisitionGeometry,
    VelocityModel,
    differential_waveform,
    energy_distribution,
    ricker_wavelet,
    simulate,
)
from splitfwi.reporting import BenchmarkSpec, run_benchmark
from splitfwi.runtime import (
    InfraConfig,
    PipelineMode,
    partition_receivers,
    run_epic,
    run_many,
)

PERFECT = NetworkProfile(bandwidth_bps=1e12, base_latency_s=0.0, loss_rate=0.0)
LATENT_BYTES = 512 * 4
RAW_SLICE_BYTES = 5 * 1000 * 14 * 4


def full_config(n):
    return ModelConfig(n_devices=n)


@pytest.fixture(scope="module")
def weights5():
    return init_weights(full_config(5), seed=1)


@pytest.fixture(scope="module")
def samples16():
    rng = np.random.default_rng(2024)
    return [rng.normal(size=(5, 1000, 70)).astype(np.float32) for _ in range(16)]


def test_criterion_1_oracle_equivalence(samples16):
    """run_epic under a perfect network is bit-identical to forward_full."""
    t0 = time.perf_counter()
    for n in (1, 2, 5, 7, 10):
        weights = init_weights(full_config(n), seed=1)
        infra = InfraConfig(
            n_devices=n, partition=partition_receivers(70, n),
            network=PERFECT, deadline_s=10.0,
        )
        maps, report = run_epic(samples16, weights, infra)
        for wave, vmap, row in zip(samples16, maps, report.rows):
            ref = forward_full(wave, weights, infra.partition)
            assert np.array_equal(vmap.values, ref.values), f"mismatch at n={n}"
            assert row.mask == (True,) * n
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"oracle equivalence took {elapsed:.1f}s (budget 120s)"
    print(f"\nPASS criterion 1: bit-identical for n in (1,2,5,7,10) x 16 samples "
          f"in {elapsed:.1f}s")


def test_criterion_2_attention_normalization(weights5):
    """Attention sums are 1 per block/pixel; masked keys weigh exactly 0."""
    cfg = weights5.config
    rng = np.random.default_rng(7)
    checked_blocks = 0
    for call in range(16):
        lset = LatentSet(cfg.n_devices)
        masked_device = call % cfg.n_devices if call % 2 else None
        for d in range(cfg.n_devices):
            if d == masked_device:
                continue
            vals = rng.normal(size=cfg.latent_dim).astype(np.float32)
            from splitfwi.model import LatentVector

            lset.add(LatentVector(values=vals, device_id=d, sample_id=call))
        collected = []
        gl = fuse(lset, weights5.fusion, cfg.n_heads)
        decode(gl, lset, weights5, attention_out=collected)
        assert len(collected) == cfg.n_decoder_blocks
        for alpha in collected:
            sums = alpha.sum(axis=0, dtype=np.float64)
            assert float(sums.min()) >= 1.0 - 1e-6
            assert float(sums.max()) <= 1.0 + 1e-6
            if masked_device is not None:
                assert (alpha[masked_device] == 0.0).all()
            checked_blocks += 1
    print(f"\nPASS criterion 2: {checked_blocks} blocks x 4900 pixels normalized; "
          f"masked keys exactly 0")


def test_criterion_3_timeout_semantics(weights5):
    """One straggler past T - T_d: decode over n-1, L_total <= T, 100/100."""
    rng = np.random.default_rng(55)
    samples = [rng.normal(size=(5, 64, 70)).astype(np.float32) for _ in range(100)]
    infra = InfraConfig(n_devices=5, network=FOUR_G, deadline_s=0.5, seed=17)
    t0 = time.perf_counter()
    maps, report = run_epic(samples, weights5, infra, extra_delay_s={3: 0.5})
    held = 0
    for vmap, row in zip(maps, report.rows):
        assert row.status == "ok"
        assert sum(row.mask) == 4 and not row.mask[3]
        assert row.deadline_fired
        assert row.l_total_s <= infra.deadline_s
        assert vmap is not None
        held += 1
    assert held == 100
    print(f"\nPASS criterion 3: 100/100 samples decoded over 4 latents with "
          f"L_total <= {infra.deadline_s}s ({time.perf_counter() - t0:.1f}s)")


def test_criterion_4_communication_reduction(weights5):
    """From run rows on 4G: payload ratio exact, latency ratios beat
    3x (dedicated) / 10x (shared), energy ratio equal to payload ratio."""
    assert RAW_SLICE_BYTES == 280000
    assert LATENT_BYTES == 2048
    ratio = RAW_SLICE_BYTES / LATENT_BYTES
    assert ratio == 280000 / 2048
    assert round(ratio, 1) == 136.7

    wave = [np.zeros((5, 1000, 70), np.float32)]
    media = {"dedicated": 3.0, "shared": 10.0}
    runs = [(mode, weights5, InfraConfig(n_devices=5, network=replace(FOUR_G, medium=medium),
                                         deadline_s=30.0), None)
            for medium in media for mode in (PipelineMode.CENTRALIZED, PipelineMode.EPIC)]
    reports = run_many(wave, runs)
    latency_ratios = {}
    for (medium, min_ratio), central, epic in zip(media.items(), reports[::2], reports[1::2]):
        c, e = central.rows[0], epic.rows[0]
        assert (c.status, e.status) == ("ok", "ok")
        assert c.comm_bytes == 5 * RAW_SLICE_BYTES
        assert e.comm_bytes == 5 * LATENT_BYTES
        latency_ratios[medium] = c.l_comm_s / e.l_comm_s
        assert latency_ratios[medium] >= min_ratio
        assert c.energy_j / e.energy_j == pytest.approx(ratio, rel=1e-12)
    print(f"\nPASS criterion 4: payload ratio {ratio:.4g}x; latency ratios "
          f"dedicated {latency_ratios['dedicated']:.2f}x, "
          f"shared {latency_ratios['shared']:.2f}x")


def test_criterion_5_physics_checks():
    t0 = time.perf_counter()
    dt_global = 0.4 * 10.0 / 4500.0

    # first arrival: 200 m at 3000 m/s
    vm = VelocityModel(grid=np.full((70, 70), 3000.0, np.float32), dx=10.0)
    dt = 0.4 * 10.0 / 3000.0
    geom = AcquisitionGeometry(source_cols=(20,), receiver_cols=tuple(range(70)),
                               n_t=300, dt=dt, f0=25.0)
    rec = simulate(vm, geom)
    trace = np.abs(rec.data[0, :, 40].astype(np.float64))
    src = np.abs(ricker_wavelet(25.0, 300, dt))
    t = np.arange(300) * dt
    onset = lambda x: t[np.argmax(x >= 0.1 * x.max())]
    estimated = onset(trace) - onset(src)
    expected = 200.0 / 3000.0
    arrival_err = abs(estimated - expected) / expected
    assert arrival_err <= 0.05

    # zero contrast
    geom_fast = AcquisitionGeometry(source_cols=(34,), receiver_cols=tuple(range(70)),
                                    n_t=100, dt=dt_global, f0=15.0)
    zero = differential_waveform(vm, vm, geom_fast)
    assert not zero.data.any()

    # symmetric pair of sources over a symmetric medium: 50/50 energy
    geom_sym = AcquisitionGeometry(source_cols=(15, 54), receiver_cols=tuple(range(70)),
                                   n_t=400, dt=dt_global, f0=15.0)
    ed = energy_distribution(simulate(vm, geom_sym), [(0, 35), (35, 70)])
    assert abs(ed.group_fractions[0] - 0.5) <= 0.02

    # left-side region of interest: left receivers dominate
    bg = np.full((70, 70), 3000.0, np.float32)
    bg[40:, :] = 3600.0
    roi = bg.copy()
    roi[25:45, 5:25] = 1800.0
    geom_roi = AcquisitionGeometry(source_cols=(34,), receiver_cols=tuple(range(70)),
                                   n_t=1000, dt=dt_global, f0=15.0)
    diff = differential_waveform(VelocityModel(grid=roi), VelocityModel(grid=bg), geom_roi)
    ed_roi = energy_distribution(diff, [(0, 35), (35, 70)])
    assert ed_roi.group_fractions[0] > 0.5

    elapsed = time.perf_counter() - t0
    assert elapsed < 180.0, f"physics checks took {elapsed:.1f}s (budget 180s)"
    print(f"\nPASS criterion 5: arrival err {arrival_err * 100:.1f}%, symmetric split "
          f"{ed.group_fractions[0]:.4f}, left fraction {ed_roi.group_fractions[0]:.3f} "
          f"({elapsed:.1f}s)")


def test_criterion_6_robustness_validity(weights5):
    """Every non-empty subset decodes to a valid map that depends only on
    the received latents."""
    cfg = weights5.config
    rng = np.random.default_rng(31)
    waves = [rng.normal(size=(5, 200, 70)).astype(np.float32) for _ in range(4)]
    partition = partition_receivers(70, 5)
    lo, hi = cfg.velocity_range

    base_latents = []
    perturbed_latents = []
    for wave in waves:
        # a twin waveform, different everywhere
        twin = wave + rng.normal(size=wave.shape).astype(np.float32)
        base, pert = [], []
        for d, (a, b) in enumerate(partition):
            base.append(encode(wave[:, :, a:b], weights5.encoders[d], device_id=d))
            pert_wave = twin.copy()
            pert_wave[:, :, a:b] = wave[:, :, a:b]  # this device's slice unchanged
            pert.append(encode(pert_wave[:, :, a:b], weights5.encoders[d], device_id=d))
        base_latents.append(base)
        perturbed_latents.append(pert)

    n_checked = 0
    for mask_bits in range(1, 2**5):
        received = [d for d in range(5) if mask_bits & (1 << d)]
        for s in range(4):
            lset = LatentSet(5)
            for d in received:
                lset.add(base_latents[s][d])
            vmap = decode(fuse(lset, weights5.fusion, cfg.n_heads), lset, weights5)
            assert vmap.values.shape == (70, 70)
            assert np.isfinite(vmap.values).all()
            assert float(vmap.values.min()) >= lo
            assert float(vmap.values.max()) <= hi

            # consistency: same received latents from a run whose other
            # slices carried different data give the identical map
            alt = LatentSet(5)
            for d in received:
                alt.add(perturbed_latents[s][d])
            vmap_alt = decode(fuse(alt, weights5.fusion, cfg.n_heads), alt, weights5)
            assert np.array_equal(vmap.values, vmap_alt.values)
            n_checked += 1
    assert n_checked == 31 * 4
    print(f"\nPASS criterion 6: {n_checked} subset decodes valid and "
          f"consistent across {2**5 - 1} masks x 4 samples")


def test_criterion_7_protocol():
    for size in (0, 1, 2048, 280000):
        rng = np.random.default_rng(size)
        payload = rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()
        frame = frame_decode(frame_encode(FrameKind.LATENT, size, 5, payload))
        assert frame.payload == payload
        assert frame.sample_id == size

    rng = np.random.default_rng(4242)
    payload = rng.integers(0, 256, size=2048, dtype=np.uint8).tobytes()
    pristine = frame_encode(FrameKind.LATENT, 1, 2, payload)
    misses = 0
    for _ in range(1000):
        corrupted = bytearray(pristine)
        bit = int(rng.integers(0, len(corrupted) * 8))
        corrupted[bit // 8] ^= 1 << (bit % 8)
        try:
            frame_decode(bytes(corrupted))
            misses += 1
        except Exception:
            pass
    assert misses == 0
    print("\nPASS criterion 7: round-trip exact for {0,1,2048,280000}B; "
          "1000/1000 bit flips rejected")


def test_criterion_8_metrics_and_netem():
    rng = np.random.default_rng(8)
    x = rng.uniform(1500, 4500, size=(70, 70)).astype(np.float32)
    assert ssim(x, x) == 1.0

    a = np.zeros((70, 70), np.float32)
    b = np.ones((70, 70), np.float32)
    c1 = (0.01 * 1.0) ** 2
    closed_form = c1 / (1.0 + c1)
    assert abs(ssim(a, b, dynamic_range=1.0) - closed_form) <= 1e-9

    expected = transmit_group([2048], FOUR_G)[0].completion_s
    lats = [transmit_group([2048], FOUR_G, mode="stochastic", seed=[99, i])[0].completion_s
            for i in range(10_000)]
    deviation = abs(float(np.mean(lats)) - expected) / expected
    assert deviation <= 0.05
    print(f"\nPASS criterion 8: ssim identity exact, constant field matches "
          f"{closed_form:.6g}, stochastic mean within {deviation * 100:.2f}%")


def test_criterion_9_bench_determinism(tmp_path):
    spec = BenchmarkSpec(
        modes=(PipelineMode.EPIC, PipelineMode.CENTRALIZED, PipelineMode.SLA),
        device_counts=(2, 5),
        profiles=(FOUR_G, NetworkProfile(15e6, 0.05, 0.005, medium="shared")),
        n_samples=2,
        deadline_s=5.0,
    )
    t0 = time.perf_counter()
    run_benchmark(spec, tmp_path / "a")
    run_benchmark(spec, tmp_path / "b")
    for name in ("bench_samples.csv", "bench_summary.csv", "bench_report.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    print(f"\nPASS criterion 9: two full sweeps byte-identical "
          f"({time.perf_counter() - t0:.1f}s)")
