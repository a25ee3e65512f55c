import collections
import dataclasses
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from conftest import TINY, make_latents
from splitfwi import runtime, transport
from splitfwi.errors import ConfigError, PartitionError, SplitFwiError
from splitfwi.model import (
    LatentVector,
    ModelConfig,
    decode_without_attention,
    encode,
    forward_full,
    init_weights,
)
from splitfwi.netem import FOUR_G, EnergyModel, NetworkProfile
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
    random_drop_sets,
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
        latents, collect, released = buf.finalize(0, 3, deadline=1.0)
        assert sorted(latents) == [0, 1, 2]
        assert not released
        assert collect == pytest.approx(0.2)

    def test_release_on_missing_device(self):
        buf = HashBuffer()
        buf.insert(0, 0, self._latent(0), 0.0)
        buf.insert(0, 1, self._latent(1), 0.05)
        latents, collect, released = buf.finalize(0, 3, deadline=0.4)
        assert released
        assert collect == 0.4
        assert sorted(latents) == [0, 1]

    def test_duplicate_ignored(self):
        buf = HashBuffer()
        assert buf.insert(0, 1, self._latent(1), 0.0) == InsertOutcome.INSERTED
        assert buf.insert(0, 1, self._latent(1), 0.1) == InsertOutcome.DUPLICATE
        latents, _, _ = buf.finalize(0, 3, deadline=1.0)
        assert len(latents) == 1

    def test_insert_after_release_dropped(self):
        buf = HashBuffer()
        buf.insert(0, 0, self._latent(0), 0.0)
        buf.finalize(0, 3, deadline=0.4)
        assert buf.insert(0, 2, self._latent(2), 0.6) == InsertOutcome.STALE
        assert buf._entries == {}

    def test_closed_sample_evicted(self):
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

    def test_closing_a_higher_id_closes_every_lower_one(self):
        buf = HashBuffer()
        buf.insert(1, 0, self._latent(0, sample=1), 0.0)
        latents, _, released = buf.finalize(3, 2, deadline=0.5)
        assert (latents, released) == ({}, True)
        assert [buf.closed(s) for s in range(5)] == [True] * 4 + [False]
        assert buf.insert(2, 0, self._latent(0, sample=2), 0.6) == InsertOutcome.STALE
        assert buf.insert(1, 1, self._latent(1, sample=1), 0.6) == InsertOutcome.STALE
        assert buf._entries == {}
        assert buf.insert(4, 0, self._latent(0, sample=4), 0.7) == InsertOutcome.INSERTED

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
            latents, released = buf.collect_blocking(0, n, time.monotonic() + 10.0)
            for t in producers:
                t.join(timeout=5.0)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(old)
        assert not released
        assert sorted(latents) == list(range(n))

    def test_collect_blocking_releases_at_deadline(self):
        buf = HashBuffer()
        buf.insert(0, 1, self._latent(1), 0.0)
        latents, released = buf.collect_blocking(0, 3, time.monotonic() + 0.05)
        assert released
        assert sorted(latents) == [1]
        assert buf.insert(0, 2, self._latent(2), 0.0) == InsertOutcome.STALE
        latents, released = buf.collect_blocking(1, 1, time.monotonic() - 1.0)
        assert released
        assert len(latents) == 0

    def test_interrupt_releases_waiting_and_later_collects(self):
        buf = HashBuffer()
        buf.insert(0, 0, self._latent(0), 0.0)
        timer = threading.Timer(0.05, buf.interrupt)
        timer.start()
        t0 = time.monotonic()
        latents, released = buf.collect_blocking(0, 2, t0 + 30.0)
        timer.join()
        assert time.monotonic() - t0 < 10.0
        assert released and sorted(latents) == [0]
        t0 = time.monotonic()
        latents, released = buf.collect_blocking(1, 1, t0 + 30.0)
        assert time.monotonic() - t0 < 10.0
        assert released and len(latents) == 0


SAMPLES = st.integers(min_value=0, max_value=7)
SKIPS = st.integers(min_value=0, max_value=2)  # ids a close passes over
BUFFER_DEVICES = 3


class HashBufferMachine(RuleBasedStateMachine):
    """HashBuffer against a dict model under any order of inserts,
    duplicates and an interrupt, with samples closed in id order, at times
    passing over a few ids; a close closes every lower id too."""

    def __init__(self):
        super().__init__()
        self.buf = HashBuffer()
        self.arrivals: dict[int, dict[int, float]] = {}  # open sample -> device -> t
        self.next = 0  # every id below is closed
        self.interrupted = False
        self.clock = 0.0

    def _latent(self, sample, d):
        return LatentVector(values=np.full(4, d, np.float32), device_id=d, sample_id=sample)

    @rule(sample=SAMPLES, d=st.integers(min_value=0, max_value=BUFFER_DEVICES - 1))
    def insert(self, sample, d):
        self.clock += 1.0
        outcome = self.buf.insert(sample, d, self._latent(sample, d), self.clock)
        devices = self.arrivals.get(sample, {})
        if sample < self.next:
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

    def _close(self, sample, latents):
        devices = self.arrivals.pop(sample, {})
        self.arrivals = {s: a for s, a in self.arrivals.items() if s > sample}
        self.next = sample + 1
        assert all(lat.sample_id == sample and lat.values[0] == d for d, lat in latents.items())
        return sorted(devices), len(devices) != BUFFER_DEVICES

    @rule(skip=SKIPS)
    def finalize(self, skip):
        sample = self.next + skip
        devices = dict(self.arrivals.get(sample, {}))
        latents, collect, released = self.buf.finalize(sample, BUFFER_DEVICES, deadline=100.0)
        assert (sorted(latents), released) == self._close(sample, latents)
        assert collect == (100.0 if released else max(devices.values()))

    @rule(skip=SKIPS)
    def collect_blocking(self, skip):
        sample = self.next + skip
        # an interrupted buffer returns at once however far the deadline
        deadline = time.monotonic() + (30.0 if self.interrupted else -1.0)
        latents, released = self.buf.collect_blocking(sample, BUFFER_DEVICES, deadline)
        assert (sorted(latents), released) == self._close(sample, latents)

    @rule()
    def interrupt(self):
        self.buf.interrupt()
        self.interrupted = True

    @invariant()
    def matches_model(self):
        held = {s: {d: t for d, (_, t) in entry.items()} for s, entry in self.buf._entries.items()}
        assert held == self.arrivals

    @invariant()
    def holds_nothing_for_closed_samples(self):
        assert self.buf._next == self.next
        assert [self.buf.closed(s) for s in range(12)] == [s < self.next for s in range(12)]
        assert all(s >= self.next for s in self.buf._entries)


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
    assert (buf._next, buf._entries) == (1000, {})


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

    def test_measured_budget_must_fit_deadline_before_any_thread(self, monkeypatch):
        # the socket twin's T_d is measured, on weights it has not profiled yet
        _forbid_encode(monkeypatch)
        monkeypatch.setattr(runtime, "profile_decoder", lambda weights: 20.0)
        monkeypatch.setattr(transport, "_connect_edges", _work_started)
        with pytest.raises(ConfigError, match="decode budget T_d=20s must be below the deadline"):
            run_epic(tiny_waves(1), init_weights(TINY, seed=11),
                     tiny_infra(transport="socket", deadline_s=10.0))

    def test_stochastic_mode_deterministic(self, weights):
        infra = tiny_infra(network=FOUR_G, deadline_s=2.0, netem_mode="stochastic", seed=5)
        _, a = run_epic(tiny_waves(2), weights, infra)
        _, b = run_epic(tiny_waves(2), weights, infra)
        assert [r.l_total_s for r in a.rows] == [r.l_total_s for r in b.rows]

    @pytest.mark.parametrize("clock", ["simulated", "socket"])
    @pytest.mark.parametrize("faults, match", [
        ({"drop_devices": {7}}, r"drop device ids \[7\] outside \[0, 3\)"),
        ({"drop_devices": [set(), {-1}]}, r"drop device ids \[-1\] outside"),
        ({"extra_delay_s": {3: 0.1}}, r"extra delay for device 3 outside \[0, 3\)"),
        ({"extra_delay_s": {0: -5.0}}, "must be finite and >= 0, got -5.0"),
        ({"extra_delay_s": {0: float("nan")}}, "must be finite and >= 0, got nan"),
        ({"extra_delay_s": {2: float("inf")}}, "must be finite and >= 0, got inf"),
        ({"extra_delay_s": {0: "x"}}, "extra delay of device 0 must be a real number"),
        ({"extra_delay_s": {0: "0.25"}}, "extra delay of device 0 must be a real number"),
        ({"extra_delay_s": {0: True}}, "extra delay of device 0 must be a real number"),
        ({"drop_devices": ["a"]}, "drop_devices must be device ids or one set of them"),
        ({"drop_devices": 5}, "drop_devices must be device ids or one set of them"),
        ({"drop_devices": [{0}, 1]}, "drop_devices must be device ids or one set of them"),
    ])
    def test_faults_outside_the_run_rejected_before_any_encode(self, weights, monkeypatch,
                                                               clock, faults, match):
        _forbid_encode(monkeypatch)
        infra = tiny_infra(network=FOUR_G, deadline_s=2.0, transport=clock)
        with pytest.raises(ConfigError, match=match):
            run_epic(tiny_waves(2), weights, infra, **faults)

    @pytest.mark.parametrize("mode", [PipelineMode.EPIC, PipelineMode.CENTRALIZED])
    def test_ground_truth_count_must_match_samples(self, weights, monkeypatch, mode):
        _forbid_encode(monkeypatch)
        truths = [np.full((70, 70), 3000.0, np.float32)] * 2
        with pytest.raises(ConfigError, match="2 ground truth maps for 3 samples"):
            run_baseline(mode, tiny_waves(3), weights, tiny_infra(), ground_truth=truths)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("config, field", [
    (InfraConfig, "deadline_s"),
    (ComputeModel, "edge_flops_per_s"),
    (ComputeModel, "central_flops_per_s"),
    (NetworkProfile, "bandwidth_bps"),
    (NetworkProfile, "base_latency_s"),
    (EnergyModel, "tx_power_w"),
    (EnergyModel, "per_byte_j"),
])
def test_non_finite_config_value_rejected(config, field, value):
    # a NaN deadline used to give a failed row with deadline_met=True, and
    # a NaN bandwidth a NaN energy
    with pytest.raises(ConfigError, match=f"must be finite and .*, got {value}"):
        config(**{field: value})


@pytest.mark.parametrize("config, field, value", [
    (InfraConfig, "n_devices", True),
    (InfraConfig, "n_devices", 2.5),
    (InfraConfig, "seed", 1.5),
    (InfraConfig, "seed", "3"),
    (InfraConfig, "socket_port", 80.5),
    (InfraConfig, "deadline_s", "0.5"),
    (InfraConfig, "deadline_s", True),
    (ComputeModel, "edge_flops_per_s", True),
    (ComputeModel, "central_flops_per_s", "1e10"),
    (NetworkProfile, "mtu_bytes", 1.5),
    (NetworkProfile, "mtu_bytes", True),
    (NetworkProfile, "bandwidth_bps", "15e6"),
    (NetworkProfile, "base_latency_s", False),
    (NetworkProfile, "loss_rate", "0"),
    (EnergyModel, "tx_power_w", "0.8"),
    (EnergyModel, "per_byte_j", True),
])
def test_mistyped_config_number_rejected(config, field, value):
    # each was accepted, run with a bool as 1, or leaked a bare TypeError
    with pytest.raises(ConfigError, match=f"{field} must be a"):
        config(**{field: value})


def test_config_number_past_float_range_rejected():
    # math.isfinite(10**400) leaked a bare OverflowError
    with pytest.raises(ConfigError, match="deadline_s must be finite and > 0, got inf"):
        InfraConfig(deadline_s=10**400)
    with pytest.raises(ConfigError, match="base_latency_s must be finite and >= 0, got -inf"):
        NetworkProfile(base_latency_s=-(10**400))


@pytest.mark.parametrize("args, match", [
    ((1.5, 5, 1, 2), "drop seed must be an integer, got 1.5"),
    (("3", 5, 1, 2), "drop seed must be an integer, got '3'"),
    ((3, 5, True, 2), "drop count must be an integer, got True"),
])
def test_mistyped_drop_seed_or_count_rejected(args, match):
    # a float or a str seed leaked a bare TypeError, and True was read as 1
    with pytest.raises(ConfigError, match=match):
        random_drop_sets(*args)


def test_fractional_partition_bound_rejected():
    # it was stored as given, and the loop truncated 34.5 to 34
    with pytest.raises(ConfigError, match="partition slice 0 stop must be an integer, got 34.5"):
        InfraConfig(n_devices=2, partition=((0, 34.5), (34.5, 70)))


def test_config_integers_stored_as_ints():
    infra = InfraConfig(n_devices=np.int64(2), seed=np.int32(4), socket_port=np.uint16(80),
                        partition=[[np.int64(0), 35], (35, np.int64(70))],
                        network=NetworkProfile(mtu_bytes=np.int64(1000)))
    assert (infra.n_devices, infra.seed, infra.socket_port) == (2, 4, 80)
    assert infra.partition == ((0, 35), (35, 70))
    numbers = [infra.n_devices, infra.seed, infra.socket_port, infra.network.mtu_bytes,
               *(b for pair in infra.partition for b in pair)]
    assert all(type(n) is int for n in numbers)


def test_negative_seeds_rejected_typed():
    # numpy's own ValueError used to surface once a stochastic run or a
    # drop schedule drew from the seed
    with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
        InfraConfig(netem_mode="stochastic", seed=-1)
    with pytest.raises(ConfigError, match="drop seed must be >= 0, got -1"):
        random_drop_sets(-1, 5, 2, 3)


@pytest.mark.parametrize("clock", ["simulated", "socket"])
@pytest.mark.parametrize("call", [
    lambda w, i: run_epic(tiny_waves(2), w, i, drop_devices=[1.7]),
    lambda w, i: run_epic(tiny_waves(2), w, i, drop_devices=[set(), {1.0}]),
    lambda w, i: run_epic(tiny_waves(2), w, i, drop_devices=["1"]),
    lambda w, i: run_epic(tiny_waves(2), w, i, extra_delay_s={1.5: 0.0}),
    lambda w, i: run_epic(tiny_waves(2), w, i, extra_delay_s={"1": 0.0}),
    lambda w, i: run_robustness_sweep(tiny_waves(2), w, i, drop_counts=[1.5]),
    lambda w, i: run_robustness_sweep(tiny_waves(2), w, i, drop_counts=[0, "1"]),
], ids=["drop-float", "drop-set-float", "drop-str", "delay-float", "delay-str",
        "count-float", "count-str"])
def test_non_integral_ids_and_counts_rejected_before_any_encode(weights, monkeypatch, clock,
                                                                call):
    # each used to be truncated by int(), so 1.7 or "1" named device 1
    _forbid_encode(monkeypatch)
    infra = tiny_infra(network=FOUR_G, deadline_s=2.0, transport=clock)
    with pytest.raises(ConfigError, match="device ids|drop count must be an integer"):
        call(weights, infra)


def test_numpy_ids_and_counts_accepted(weights):
    waves, infra = tiny_waves(2), tiny_infra()
    _, by_int = run_epic(waves, weights, infra, drop_devices=[1], extra_delay_s={2: 0.1})
    _, by_numpy = run_epic(waves, weights, infra, drop_devices=np.array([1]),
                           extra_delay_s={np.int64(2): 0.1})
    assert by_numpy.rows == by_int.rows
    swept = run_robustness_sweep(waves, weights, infra, drop_counts=np.arange(2))
    assert list(swept) == [("epic", 0), ("epic", 1)]
    assert all(type(k) is int for _, k in swept)


def _forbid_encode(monkeypatch):
    """Fail the test if either clock encodes a slice."""
    def encode_called(*args, **kwargs):
        raise AssertionError("a slice was encoded")

    monkeypatch.setattr(runtime, "encode", encode_called)
    monkeypatch.setattr(transport, "encode", encode_called)


def _work_started(*args, **kwargs):
    raise AssertionError("work started before the inputs were checked")


class TestBaselines:
    @pytest.mark.parametrize("mode", [PipelineMode.SLA, PipelineMode.CENTRALIZED,
                                      PipelineMode.FLA])
    def test_only_epic_runs_on_a_socket_infra(self, weights, monkeypatch, mode):
        # any other mode would run on the simulated clock under a socket config
        _forbid_encode(monkeypatch)
        monkeypatch.setattr(runtime, "forward_full", _work_started)  # FLA's edge work
        with pytest.raises(ConfigError, match=f"runs EPIC only, not {mode.value}"):
            run_baseline(mode, tiny_waves(2), weights, tiny_infra(transport="socket"))

    def test_socket_sweep_over_other_modes_rejected_before_any_run(self, weights, monkeypatch):
        _forbid_encode(monkeypatch)
        monkeypatch.setattr(runtime, "profile_decoder", _work_started)  # a socket run's first
        with pytest.raises(ConfigError, match="runs EPIC only, not sla"):
            run_robustness_sweep(tiny_waves(2), weights, tiny_infra(transport="socket"), [0],
                                 modes=(PipelineMode.EPIC, PipelineMode.SLA))

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

    def test_count_above_devices_rejected_before_any_encode(self, weights, monkeypatch):
        # the k = 0 runs must not go first
        _forbid_encode(monkeypatch)
        with pytest.raises(ConfigError, match=r"drop count 4 outside \[0, 3\]"):
            run_robustness_sweep(tiny_waves(2), weights, tiny_infra(), drop_counts=[0, 4])

    def test_fla_without_its_weights_rejected_before_any_encode(self, weights, monkeypatch):
        # the EPIC runs must not go first
        _forbid_encode(monkeypatch)
        with pytest.raises(ConfigError, match="needs fla_weights"):
            run_robustness_sweep(tiny_waves(2), weights, tiny_infra(), drop_counts=[0, 1],
                                 modes=(PipelineMode.EPIC, PipelineMode.FLA))


def test_run_many_checks_every_run_before_the_first(weights, monkeypatch):
    _forbid_encode(monkeypatch)
    infra = tiny_infra()
    other = init_weights(dataclasses.replace(TINY, n_devices=2), seed=11)
    runs = [(PipelineMode.EPIC, weights, infra, None), (PipelineMode.SLA, weights, infra, [1]),
            (PipelineMode.CENTRALIZED, other, infra, None)]
    with pytest.raises(ConfigError, match="weights built for 2 devices, infra has 3"):
        runtime.run_many(tiny_waves(2), runs)


def test_run_many_checks_every_decode_budget_before_the_first(weights, monkeypatch):
    _forbid_encode(monkeypatch)
    slow = ComputeModel(central_flops_per_s=1e3)
    t_d = decoder_flops(TINY, TINY.n_devices) / slow.central_flops_per_s
    infra = tiny_infra(compute=slow, deadline_s=0.9 * t_d)
    runs = [(PipelineMode.CENTRALIZED, weights, infra, None),
            (PipelineMode.EPIC, weights, infra, None)]
    with pytest.raises(ConfigError, match="decode budget"):
        runtime.run_many(tiny_waves(2), runs)


def test_run_many_checks_a_measured_decode_budget_before_the_first(weights, monkeypatch):
    # the first socket run used to connect its edges before the second's T_d failed
    t_d = runtime._decode_budget(weights)
    work = _count_work(monkeypatch)
    runs = [(PipelineMode.EPIC, weights, tiny_infra(transport="socket", deadline_s=30.0), None),
            (PipelineMode.EPIC, weights, tiny_infra(transport="socket", deadline_s=t_d / 2), None)]
    with pytest.raises(ConfigError, match="decode budget"):
        runtime.run_many(tiny_waves(2), runs)
    assert work["connect"] == 0 and not work


def test_run_many_equals_separate_runs(weights):
    waves, infra = tiny_waves(2), tiny_infra(network=FOUR_G, deadline_s=5.0)
    runs = [(PipelineMode.EPIC, weights, infra, [1]), (PipelineMode.SLA, weights, infra, None),
            (PipelineMode.CENTRALIZED, weights, infra, [0])]
    reports = runtime.run_many(waves, runs)
    separate = [run_baseline(mode, waves, w, i, drop_devices=drops)[1]
                for mode, w, i, drops in runs]
    assert [r.rows for r in reports] == [r.rows for r in separate]


def _count_work(mp):
    """Count, through mp, the encodes of either clock, the socket twin's
    edge connections and thread starts."""
    counts = collections.Counter()

    def counting(name, real):
        def counted(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return counted

    mp.setattr(runtime, "encode", counting("encode", runtime.encode))
    mp.setattr(transport, "encode", counting("encode", transport.encode))
    mp.setattr(transport, "_connect_edges", counting("connect", transport._connect_edges))
    mp.setattr(threading.Thread, "start", counting("start", threading.Thread.start))
    return counts


@st.composite
def invalid_run_argument(draw):
    """One invalid argument of a two-sample run on TINY weights: (fault,
    samples, run_epic keyword arguments, T as a share of T_d or None)."""
    fault = draw(st.sampled_from(["drop id", "drop sets", "truths", "width", "delay", "T"]))
    samples, kwargs, share = tiny_waves(2), {}, None
    if fault == "drop id":
        bad = draw(st.integers(max_value=-1) | st.integers(min_value=TINY.n_devices))
        kwargs["drop_devices"] = draw(st.sampled_from([[bad], [set(), {0, bad}]]))
    elif fault == "drop sets":
        kwargs["drop_devices"] = [{0}] * draw(st.sampled_from([1, 3]))
    elif fault == "truths":
        truth = np.full((70, 70), 3000.0, np.float32)
        kwargs["ground_truth"] = [truth] * draw(st.sampled_from([0, 1, 3]))
    elif fault == "width":
        width = draw(st.integers(1, 69) | st.integers(71, 90))
        samples[draw(st.integers(0, 1))] = np.zeros((5, 40, width), np.float32)
    elif fault == "delay":
        delay = draw(st.floats(max_value=-1e-9) | st.sampled_from(
            [float("nan"), float("inf"), "0.25", True, None]))
        kwargs["extra_delay_s"] = {draw(st.integers(0, TINY.n_devices - 1)): delay}
    else:
        share = draw(st.floats(min_value=1e-3, max_value=1.0))
    return fault, samples, kwargs, share


@pytest.mark.parametrize("clock", ["simulated", "socket"])
@given(case=invalid_run_argument())
@settings(max_examples=30, deadline=None)
def test_invalid_run_argument_rejected_before_any_work(weights, clock, case):
    fault, samples, kwargs, share = case
    t_d = (runtime._decode_budget(weights) if clock == "socket"
           else runtime._epic_budget(weights, tiny_infra()))
    infra = tiny_infra(network=FOUR_G, transport=clock,
                       deadline_s=10.0 if share is None else share * t_d)
    drops, truths = kwargs.get("drop_devices"), kwargs.get("ground_truth")
    calls = [lambda: run_epic(samples, weights, infra, **kwargs)]
    if fault != "delay":  # only run_epic takes delays
        # only EPIC checks T against T_d, and only EPIC runs on a socket infra
        mode = PipelineMode.EPIC if fault == "T" or clock == "socket" else PipelineMode.SLA
        valid = (PipelineMode.EPIC if clock == "socket" else PipelineMode.CENTRALIZED,
                 weights, tiny_infra(network=FOUR_G, transport=clock), None)
        # a valid run goes first, so a check made only when its turn came would show as work
        calls += [lambda: run_baseline(mode, samples, weights, infra, drops, truths),
                  lambda: runtime.run_many(samples, [valid, (mode, weights, infra, drops)],
                                           truths)]
    for call in calls:
        with pytest.MonkeyPatch.context() as mp:
            work = _count_work(mp)
            with pytest.raises(SplitFwiError):
                call()
        assert not work, (fault, dict(work))


def test_run_many_checks_every_drop_set_before_the_first(weights, monkeypatch):
    # the EPIC run used to encode both samples before the SLA run's drop set failed
    work = _count_work(monkeypatch)
    infra = tiny_infra()
    runs = [(PipelineMode.EPIC, weights, infra, None), (PipelineMode.SLA, weights, infra, [7])]
    with pytest.raises(ConfigError, match=r"drop device ids \[7\] outside \[0, 3\)"):
        runtime.run_many(tiny_waves(2), runs)
    assert not work


@pytest.mark.parametrize("mode", [PipelineMode.EPIC, PipelineMode.SLA])
def test_run_many_reads_one_pass_drop_sets_once(weights, mode):
    # a generator checked once and read again would be empty, so run with nothing dropped
    runs = [(mode, weights, tiny_infra(deadline_s=30.0), (s for s in ({0}, {1, 2})))]
    [report] = runtime.run_many(tiny_waves(2), runs)
    assert [row.mask for row in report.rows] == [(False, True, True), (True, False, False)]


@pytest.mark.parametrize("faults, error", [
    ({"drop_devices": [7]}, ConfigError),
    ({"ground_truth": [np.full((70, 70), 3000.0, np.float32)]}, ConfigError),
    ({"samples": [tiny_waves(1)[0], np.zeros((5, 40, 60), np.float32)]}, PartitionError),
])
def test_socket_run_rejected_before_any_connection(weights, monkeypatch, faults, error):
    # each used to connect the edges and start 2 threads per device first
    faults = dict(faults)
    samples = faults.pop("samples", tiny_waves(2))
    work = _count_work(monkeypatch)
    with pytest.raises(error):
        run_epic(samples, weights, tiny_infra(transport="socket"), **faults)
    assert not work


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
