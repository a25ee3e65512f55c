import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from conftest import TINY, make_latents
from splitfwi.errors import ConfigError
from splitfwi.model import (
    LatentVector,
    ModelConfig,
    decode_without_attention,
    encode,
    forward_full,
    init_weights,
)
from splitfwi.netem import FOUR_G, NetworkProfile
from splitfwi.runtime import (
    ComputeModel,
    HashBuffer,
    InfraConfig,
    InsertOutcome,
    PipelineMode,
    decoder_flops,
    encoder_flops,
    partition_receivers,
    profile_decoder,
    run_baseline,
    run_epic,
    run_robustness_sweep,
)

PERFECT = NetworkProfile(bandwidth_bps=1e12, base_latency_s=0.0, loss_rate=0.0)


def tiny_waves(n, n_t=40, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(5, n_t, 70)).astype(np.float32) for _ in range(n)]


@pytest.fixture(scope="module")
def weights():
    return init_weights(TINY, seed=11)


def tiny_infra(**kw):
    kw.setdefault("n_devices", TINY.n_devices)
    kw.setdefault("network", PERFECT)
    kw.setdefault("deadline_s", 10.0)
    return InfraConfig(**kw)


class TestPartition:
    def test_five_devices_equal_slices(self):
        assert partition_receivers(70, 5) == ((0, 14), (14, 28), (28, 42), (42, 56), (56, 70))

    def test_single_device(self):
        assert partition_receivers(70, 1) == ((0, 70),)

    def test_seventy_devices(self):
        slices = partition_receivers(70, 70)
        assert len(slices) == 70
        assert all(b - a == 1 for a, b in slices)

    def test_remainder_goes_first(self):
        slices = partition_receivers(70, 3)
        widths = [b - a for a, b in slices]
        assert widths == [24, 23, 23]

    def test_out_of_range(self):
        with pytest.raises(ConfigError):
            partition_receivers(70, 0)
        with pytest.raises(ConfigError):
            partition_receivers(70, 71)


class TestHashBuffer:
    def _latent(self, d, sample=0):
        return LatentVector(values=np.zeros(4, np.float32), device_id=d, sample_id=sample)

    def test_complete_set_any_order(self):
        buf = HashBuffer()
        for d in (2, 0, 1):
            assert buf.insert(0, d, self._latent(d), 0.1 * d) == InsertOutcome.INSERTED
        lset, collect, released = buf.finalize(0, 3, deadline=1.0)
        assert lset.mask().all()
        assert not released
        assert collect == pytest.approx(0.2)

    def test_release_on_missing_device(self):
        buf = HashBuffer()
        buf.insert(0, 0, self._latent(0), 0.0)
        buf.insert(0, 1, self._latent(1), 0.05)
        lset, collect, released = buf.finalize(0, 3, deadline=0.4)
        assert released
        assert collect == 0.4
        assert lset.present_ids() == [0, 1]

    def test_duplicate_ignored(self):
        buf = HashBuffer()
        assert buf.insert(0, 1, self._latent(1), 0.0) == InsertOutcome.INSERTED
        assert buf.insert(0, 1, self._latent(1), 0.1) == InsertOutcome.DUPLICATE
        lset, _, _ = buf.finalize(0, 3, deadline=1.0)
        assert len(lset) == 1

    def test_insert_after_release_dropped(self):
        buf = HashBuffer()
        buf.insert(0, 0, self._latent(0), 0.0)
        buf.finalize(0, 3, deadline=0.4)
        assert buf.insert(0, 2, self._latent(2), 0.6) == InsertOutcome.STALE
        assert buf._entries == {}

    def test_completed_sample_evicted(self):
        buf = HashBuffer()
        buf.insert(0, 0, self._latent(0), 0.0)
        buf.finalize(0, 1, deadline=1.0)
        assert buf.insert(0, 0, self._latent(0), 2.0) == InsertOutcome.STALE
        assert 0 not in buf._entries

    def test_other_samples_unaffected(self):
        buf = HashBuffer()
        buf.insert(0, 0, self._latent(0), 0.0)
        buf.finalize(0, 2, deadline=0.1)
        assert buf.insert(1, 0, self._latent(0, sample=1), 0.2) == InsertOutcome.INSERTED

    def test_collect_blocking_wakes_when_all_producers_inserted(self):
        buf = HashBuffer()
        n = 8  # more producer threads than cores
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            producers = [
                threading.Thread(target=buf.insert, args=(0, d, self._latent(d), 0.0))
                for d in range(n)
            ]
            for t in producers:
                t.start()
            lset, released = buf.collect_blocking(0, n, time.monotonic() + 10.0)
            for t in producers:
                t.join(timeout=5.0)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(old)
        assert not released
        assert lset.present_ids() == list(range(n))

    def test_collect_blocking_releases_at_deadline(self):
        buf = HashBuffer()
        buf.insert(0, 1, self._latent(1), 0.0)
        lset, released = buf.collect_blocking(0, 3, time.monotonic() + 0.05)
        assert released
        assert lset.present_ids() == [1]
        assert buf.insert(0, 2, self._latent(2), 0.0) == InsertOutcome.STALE
        lset, released = buf.collect_blocking(1, 1, time.monotonic() - 1.0)
        assert released
        assert len(lset) == 0

    def test_interrupt_releases_waiting_and_later_collects(self):
        buf = HashBuffer()
        buf.insert(0, 0, self._latent(0), 0.0)
        timer = threading.Timer(0.05, buf.interrupt)
        timer.start()
        t0 = time.monotonic()
        lset, released = buf.collect_blocking(0, 2, t0 + 30.0)
        timer.join()
        assert time.monotonic() - t0 < 10.0
        assert released and lset.present_ids() == [0]
        t0 = time.monotonic()
        lset, released = buf.collect_blocking(1, 1, t0 + 30.0)
        assert time.monotonic() - t0 < 10.0
        assert released and len(lset) == 0


SAMPLES = st.integers(min_value=0, max_value=5)
BUFFER_DEVICES = 3


class HashBufferMachine(RuleBasedStateMachine):
    """HashBuffer against a dict model under any order of inserts,
    duplicates, closes and an interrupt; a close completes its sample."""

    def __init__(self):
        super().__init__()
        self.buf = HashBuffer()
        self.arrivals: dict[int, dict[int, float]] = {}  # open sample -> device -> t
        self.done: set[int] = set()
        self.interrupted = False
        self.clock = 0.0

    def _latent(self, sample, d):
        return LatentVector(values=np.full(4, d, np.float32), device_id=d, sample_id=sample)

    @rule(sample=SAMPLES, d=st.integers(min_value=0, max_value=BUFFER_DEVICES - 1))
    def insert(self, sample, d):
        self.clock += 1.0
        outcome = self.buf.insert(sample, d, self._latent(sample, d), self.clock)
        devices = self.arrivals.get(sample, {})
        if sample in self.done:
            assert outcome == InsertOutcome.STALE
        elif d in devices:
            assert outcome == InsertOutcome.DUPLICATE
        else:
            assert outcome == InsertOutcome.INSERTED
            self.arrivals.setdefault(sample, {})[d] = self.clock

    def _open_keys(self):
        return sorted((s, d) for s, devices in self.arrivals.items() for d in devices)

    @precondition(lambda self: self._open_keys())
    @rule(data=st.data())
    def duplicate(self, data):
        sample, d = data.draw(st.sampled_from(self._open_keys()))
        assert self.buf.insert(sample, d, self._latent(sample, d), 0.0) == InsertOutcome.DUPLICATE

    def _close(self, sample):
        devices = self.arrivals.pop(sample, {})
        self.done.add(sample)
        return sorted(devices), len(devices) != BUFFER_DEVICES

    @rule(sample=SAMPLES)
    def finalize(self, sample):
        if sample in self.done:
            return
        devices = dict(self.arrivals.get(sample, {}))
        lset, collect, released = self.buf.finalize(sample, BUFFER_DEVICES, deadline=100.0)
        assert (lset.present_ids(), released) == self._close(sample)
        assert collect == (100.0 if released else max(devices.values()))

    @rule(sample=SAMPLES)
    def collect_blocking(self, sample):
        if sample in self.done:
            return
        # an interrupted buffer returns at once however far the deadline
        deadline = time.monotonic() + (30.0 if self.interrupted else -1.0)
        lset, released = self.buf.collect_blocking(sample, BUFFER_DEVICES, deadline)
        assert (lset.present_ids(), released) == self._close(sample)

    @rule()
    def interrupt(self):
        self.buf.interrupt()
        self.interrupted = True

    @invariant()
    def matches_model(self):
        for sample in range(6):
            if sample not in self.done:
                entry = self.buf._entries.get(sample)
                assert (entry.arrivals if entry else {}) == self.arrivals.get(sample, {})

    @invariant()
    def holds_nothing_for_completed_samples(self):
        low = min(set(range(7)) - self.done)
        assert self.buf._low == low
        assert self.buf._completed == {s for s in self.done if s > low}
        assert not set(self.buf._entries) & self.done


TestHashBufferModel = HashBufferMachine.TestCase
TestHashBufferModel.settings = settings(max_examples=100, stateful_step_count=40, deadline=None)


def test_hash_buffer_bounded_over_in_order_samples():
    buf = HashBuffer()
    latent = LatentVector(values=np.zeros(4, np.float32), device_id=0)
    for sample in range(1000):
        buf.insert(sample, 0, latent, 0.0)
        buf.finalize(sample, 2, deadline=1.0)
        assert buf.insert(sample, 1, latent, 2.0) == InsertOutcome.STALE
    assert buf.insert(3, 0, latent, 3.0) == InsertOutcome.STALE
    assert (buf._low, buf._entries, buf._completed) == (1000, {}, set())


class TestRunEpic:
    def test_matches_forward_full_bitwise(self, weights):
        waves = tiny_waves(3)
        infra = tiny_infra()
        maps, report = run_epic(waves, weights, infra)
        for wave, vmap, row in zip(waves, maps, report.rows):
            ref = forward_full(wave, weights, infra.partition)
            np.testing.assert_array_equal(vmap.values, ref.values)
            assert row.status == "ok"
            assert row.mask == (True,) * TINY.n_devices

    def test_total_is_sum_of_phases(self, weights):
        infra = tiny_infra(network=FOUR_G, deadline_s=2.0)
        _, report = run_epic(tiny_waves(2), weights, infra)
        for r in report.rows:
            assert r.l_total_s == pytest.approx(r.l_edge_s + r.l_comm_s + r.l_central_s)
            assert r.comm_bytes == TINY.n_devices * TINY.latent_dim * 4

    def test_straggler_released_within_deadline(self, weights):
        infra = tiny_infra(network=FOUR_G, deadline_s=0.5)
        waves = tiny_waves(4)
        maps, report = run_epic(waves, weights, infra, extra_delay_s={1: 5.0})
        for vmap, row in zip(maps, report.rows):
            assert row.mask == (True, False, True)
            assert row.deadline_fired
            assert row.l_total_s <= infra.deadline_s
            assert row.late_frames == 1
            assert vmap is not None

    def test_straggler_output_equals_subset_forward(self, weights):
        infra = tiny_infra(network=FOUR_G, deadline_s=0.5)
        waves = tiny_waves(1)
        maps, _ = run_epic(waves, weights, infra, extra_delay_s={0: 9.0})
        lset = make_latents(TINY, device_ids=[1, 2])
        slices = infra.partition
        from splitfwi.model import LatentSet, fuse, decode

        subset = LatentSet(TINY.n_devices)
        for d in (1, 2):
            a, b = slices[d]
            subset.add(encode(waves[0][:, :, a:b], weights.encoders[d], device_id=d))
        want = decode(fuse(subset, weights.fusion), subset, weights)
        np.testing.assert_array_equal(maps[0].values, want.values)

    def test_jittered_arrivals_bit_identical(self, weights):
        waves = tiny_waves(2)
        base = tiny_infra(network=FOUR_G, deadline_s=4.0)
        maps_a, _ = run_epic(waves, weights, base)
        # reorder arrivals but keep everything inside the deadline
        maps_b, report_b = run_epic(
            waves, weights, base, extra_delay_s={0: 0.8, 2: 0.4}
        )
        for r in report_b.rows:
            assert not r.deadline_fired
        for a, b in zip(maps_a, maps_b):
            np.testing.assert_array_equal(a.values, b.values)

    def test_all_devices_lost_marks_failed(self, weights):
        infra = tiny_infra(network=FOUR_G, deadline_s=0.5)
        maps, report = run_epic(
            tiny_waves(2), weights, infra, drop_devices=range(TINY.n_devices)
        )
        assert maps == [None, None]
        for r in report.rows:
            assert r.status == "failed"

    def test_device_count_mismatch(self, weights):
        with pytest.raises(ConfigError):
            run_epic(tiny_waves(1), weights, tiny_infra(n_devices=5))

    def test_budget_must_fit_deadline(self, weights):
        slow = ComputeModel(edge_flops_per_s=2e9, central_flops_per_s=1e3)
        with pytest.raises(ConfigError, match="decode budget"):
            run_epic(tiny_waves(1), weights, tiny_infra(compute=slow, deadline_s=0.5))

    def test_stochastic_mode_deterministic(self, weights):
        infra = tiny_infra(network=FOUR_G, deadline_s=2.0, netem_mode="stochastic", seed=5)
        _, a = run_epic(tiny_waves(2), weights, infra)
        _, b = run_epic(tiny_waves(2), weights, infra)
        assert [r.l_total_s for r in a.rows] == [r.l_total_s for r in b.rows]


class TestBaselines:
    def test_centralized_comm_bytes_ratio(self, weights):
        cfg = ModelConfig(n_devices=5)
        w5 = init_weights(cfg, 1)
        waves = [np.zeros((5, 1000, 70), np.float32)]
        infra = InfraConfig(n_devices=5, network=PERFECT, deadline_s=30.0)
        _, central = run_baseline(PipelineMode.CENTRALIZED, waves, w5, infra)
        _, epic = run_epic(waves, w5, infra)
        per_device_raw = central.rows[0].comm_bytes // 5
        per_device_latent = epic.rows[0].comm_bytes // 5
        assert per_device_raw == 280000
        assert per_device_latent == 2048
        assert per_device_raw / per_device_latent == 280000 / 2048

    def test_centralized_budget_uses_sample_length(self, weights):
        infra = tiny_infra()
        _, report = run_baseline(PipelineMode.CENTRALIZED, tiny_waves(1, n_t=40), weights, infra)
        widths = [b - a for a, b in infra.partition]
        flops = sum(encoder_flops(TINY, 40, w) for w in widths) + decoder_flops(TINY, len(widths))
        want = flops / infra.compute.central_flops_per_s
        assert report.decode_budget_s == want
        assert report.rows[0].l_central_s == want

    def test_fla_needs_single_device_weights(self, weights):
        with pytest.raises(ConfigError, match="single-device"):
            run_baseline(PipelineMode.FLA, tiny_waves(1), weights, tiny_infra())

    def test_fla_stitches_column_spans(self):
        single_cfg = ModelConfig(
            n_devices=1, latent_dim=16, d_k=8, d_pos=6,
            encoder_channels=(5, 6, 8, 16), decoder_channels=(12, 10, 8, 8, 6),
        )
        w1 = init_weights(single_cfg, 11)
        waves = tiny_waves(1)
        infra = tiny_infra()
        maps, report = run_baseline(PipelineMode.FLA, waves, w1, infra)
        for d, (a, b) in enumerate(infra.partition):
            sub = forward_full(waves[0][:, :, a:b], w1, ((0, b - a),))
            np.testing.assert_array_equal(
                maps[0].values[:, a:b], sub.values[:, a:b]
            )
        assert report.rows[0].l_central_s == 0.0

    def test_sla_single_device_equals_central_compute(self, weights):
        # with one device, encode-then-ship equals shipping raw and
        # encoding centrally: the latent boundary is lossless
        cfg = ModelConfig(
            n_devices=1, latent_dim=16, d_k=8, d_pos=6,
            encoder_channels=(5, 6, 8, 16), decoder_channels=(12, 10, 8, 8, 6),
        )
        w1 = init_weights(cfg, 11)
        waves = tiny_waves(1)
        infra = tiny_infra(n_devices=1)
        maps, _ = run_baseline(PipelineMode.SLA, waves, w1, infra)
        central_latent = encode(waves[0], w1.encoders[0], device_id=0)
        want = decode_without_attention(central_latent.values, w1)
        np.testing.assert_array_equal(maps[0].values, want.values)

    def test_sla_averages_received_latents(self, weights):
        waves = tiny_waves(1)
        infra = tiny_infra()
        maps, report = run_baseline(
            PipelineMode.SLA, waves, weights, infra, drop_devices=[1]
        )
        latents = []
        for d in (0, 2):
            a, b = infra.partition[d]
            latents.append(encode(waves[0][:, :, a:b], weights.encoders[d], device_id=d).values)
        merged = np.stack(latents).astype(np.float64).mean(axis=0).astype(np.float32)
        want = decode_without_attention(merged, weights)
        np.testing.assert_array_equal(maps[0].values, want.values)
        assert report.rows[0].mask == (True, False, True)

    def test_reports_share_schema(self, weights):
        waves = tiny_waves(1)
        infra = tiny_infra(network=FOUR_G, deadline_s=5.0)
        for mode in (PipelineMode.CENTRALIZED, PipelineMode.SLA):
            _, report = run_baseline(mode, waves, weights, infra)
            row = report.rows[0]
            assert row.l_total_s > 0
            assert row.energy_j > 0
            assert row.l_total_s == pytest.approx(
                row.l_edge_s + row.l_comm_s + row.l_central_s
            )


class TestRobustnessSweep:
    def test_zero_drop_equals_plain_run(self, weights):
        waves = tiny_waves(2)
        infra = tiny_infra()
        results = run_robustness_sweep(waves, weights, infra, drop_counts=[0])
        plain_maps, plain = run_epic(waves, weights, infra)
        swept = results[("epic", 0)]
        assert [r.mask for r in swept.rows] == [r.mask for r in plain.rows]
        assert [r.l_total_s for r in swept.rows] == [r.l_total_s for r in plain.rows]

    def test_all_partial_drops_valid(self, weights):
        waves = tiny_waves(2)
        infra = tiny_infra(network=FOUR_G, deadline_s=5.0)
        results = run_robustness_sweep(waves, weights, infra, drop_counts=[1, 2])
        for k in (1, 2):
            report = results[("epic", k)]
            for r in report.rows:
                assert r.status == "ok"
                assert sum(r.mask) == TINY.n_devices - k

    def test_full_drop_fails_cleanly(self, weights):
        waves = tiny_waves(1)
        infra = tiny_infra(network=FOUR_G, deadline_s=5.0)
        results = run_robustness_sweep(waves, weights, infra, drop_counts=[TINY.n_devices])
        report = results[("epic", TINY.n_devices)]
        assert all(r.status == "failed" for r in report.rows)

    def test_excessive_drop_rejected(self, weights):
        with pytest.raises(ConfigError):
            run_robustness_sweep(tiny_waves(1), weights, tiny_infra(), drop_counts=[9])


class TestProfiling:
    def test_profile_decoder_positive_and_below_deadline(self, weights):
        assert profile_decoder(weights) > 0

    def test_modeled_budget_used_downstream(self, weights):
        infra = tiny_infra(deadline_s=3.0)
        t_d = decoder_flops(TINY, TINY.n_devices) / infra.compute.central_flops_per_s
        _, report = run_epic(tiny_waves(1), weights, infra)
        assert report.decode_budget_s == t_d
        assert t_d < infra.deadline_s

    def test_flops_monotone_in_latents(self):
        assert decoder_flops(TINY, 3) > decoder_flops(TINY, 2) > decoder_flops(TINY, 1)

    def test_encoder_flops_monotone_in_width(self):
        assert encoder_flops(TINY, 100, 24) > encoder_flops(TINY, 100, 8)
