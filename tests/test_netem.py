import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitfwi.errors import ConfigError, ProtocolError
from splitfwi.netem import (
    FOUR_G,
    FRAME_OVERHEAD,
    EnergyModel,
    FrameKind,
    NetworkProfile,
    frame_decode,
    frame_encode,
    transmit_group,
)

NO_LOSS_4G = NetworkProfile(bandwidth_bps=15e6, base_latency_s=0.05, loss_rate=0.0)


class TestFraming:
    def test_overhead_is_header_plus_crc(self):
        payload = bytes(2048)
        frame = frame_encode(FrameKind.LATENT, 1, 2, payload)
        assert len(frame) == 2048 + FRAME_OVERHEAD

    @pytest.mark.parametrize("size", [0, 1, 2048, 280000])
    def test_round_trip(self, size):
        rng = np.random.default_rng(size)
        payload = rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()
        frame = frame_decode(frame_encode(FrameKind.RAW, 77, 3, payload))
        assert frame.kind == FrameKind.RAW
        assert frame.sample_id == 77
        assert frame.device_id == 3
        assert frame.payload == payload

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=100, deadline=None)
    def test_single_bit_flip_rejected(self, seed):
        rng = np.random.default_rng(seed)
        payload = rng.integers(0, 256, size=64, dtype=np.uint8).tobytes()
        frame = bytearray(frame_encode(FrameKind.LATENT, 5, 1, payload))
        bit = int(rng.integers(0, len(frame) * 8))
        frame[bit // 8] ^= 1 << (bit % 8)
        with pytest.raises(ProtocolError):
            frame_decode(bytes(frame))

    def test_length_mismatch_rejected(self):
        frame = frame_encode(FrameKind.CONTROL, 0, 0, b"abc")
        with pytest.raises(ProtocolError, match="length"):
            frame_decode(frame + b"x")

    def test_oversized_ids_rejected(self):
        with pytest.raises(ProtocolError):
            frame_encode(FrameKind.LATENT, 2**64, 0, b"")
        with pytest.raises(ProtocolError):
            frame_encode(FrameKind.LATENT, 0, 2**16, b"")


def uplink(size, profile, *args, **kwargs):
    """One transfer: the single uplink of a one-device group."""
    return transmit_group([size], profile, *args, **kwargs)[0]


class TestTransmit:
    def test_empty_payload(self):
        r = uplink(0, FOUR_G)
        assert r.completion_s == FOUR_G.base_latency_s
        assert r.energy_j == 0.0

    def test_latent_on_4g_expected(self):
        r = uplink(2048, NO_LOSS_4G)
        assert r.completion_s == pytest.approx(0.05 + 2048 * 8 / 15e6, rel=1e-12)
        assert r.completion_s * 1e3 == pytest.approx(51.09, abs=0.01)

    def test_raw_slice_on_4g_expected(self):
        r = uplink(280000, NO_LOSS_4G)
        assert r.completion_s * 1e3 == pytest.approx(199.33, abs=0.01)

    def test_energy_model(self):
        e = EnergyModel(tx_power_w=0.8, per_byte_j=1e-9)
        r = uplink(15_000_000 // 8, NetworkProfile(15e6, 0.0, 0.0), e)
        # one second of airtime at 0.8 W plus the per-byte charge
        assert r.completion_s == pytest.approx(1.0)
        assert r.energy_j == pytest.approx(0.8 + 1e-9 * 15_000_000 / 8)

    def test_stochastic_reproducible(self):
        a = uplink(280000, FOUR_G, mode="stochastic", seed=[1, 2])
        b = uplink(280000, FOUR_G, mode="stochastic", seed=[1, 2])
        assert a == b
        assert a.completion_s >= FOUR_G.base_latency_s

    def test_stochastic_mean_matches_expected_at_latent_size(self):
        expected = uplink(2048, FOUR_G).completion_s
        lats = [
            uplink(2048, FOUR_G, mode="stochastic", seed=[9, i]).completion_s
            for i in range(10_000)
        ]
        assert abs(np.mean(lats) - expected) / expected <= 0.05

    def test_stochastic_p0_equals_expected(self):
        a = uplink(4096, NO_LOSS_4G, mode="stochastic", seed=0)
        b = uplink(4096, NO_LOSS_4G)
        assert a.completion_s == pytest.approx(b.completion_s, rel=1e-12)
        assert a.retransmissions == 0

    @given(
        size=st.integers(min_value=0, max_value=10**6),
        extra=st.integers(min_value=0, max_value=10**5),
        p=st.floats(min_value=0, max_value=0.5),
        dp=st.floats(min_value=0, max_value=0.4),
    )
    @settings(max_examples=80, deadline=None)
    def test_expected_monotone(self, size, extra, p, dp):
        base = NetworkProfile(bandwidth_bps=1e7, base_latency_s=0.02, loss_rate=p)
        worse_p = NetworkProfile(bandwidth_bps=1e7, base_latency_s=0.02, loss_rate=min(p + dp, 0.95))
        worse_l = NetworkProfile(bandwidth_bps=1e7, base_latency_s=0.03, loss_rate=p)
        t0 = uplink(size, base).completion_s
        assert uplink(size + extra, base).completion_s >= t0
        assert uplink(size, worse_p).completion_s >= t0
        assert uplink(size, worse_l).completion_s >= t0

    @pytest.mark.parametrize("mode", ["expected", "stochastic"])
    def test_negative_size_rejected(self, mode):
        # before any device is charged, wherever the negative size stands
        for sizes in ([-1], [2048, -1000]):
            with pytest.raises(ConfigError, match="sizes must be >= 0"):
                transmit_group(sizes, FOUR_G, mode=mode, seed=[3, 0])

    @pytest.mark.parametrize("seed", [None, -1, 1.7, True, "3", [1, -1], [1, 1.5], (2, None)])
    def test_stochastic_mode_needs_a_seed_of_integers(self, seed):
        # None drew fresh entropy on every call, -1 leaked numpy's
        # ValueError, and 1.7 was truncated to 1
        with pytest.raises(ConfigError, match="seed must be"):
            transmit_group([2048, 0], FOUR_G, mode="stochastic", seed=seed)

    @pytest.mark.parametrize("seed", [0, 7, [3, 0], (3, 0), [np.int64(3), 0]])
    def test_stochastic_mode_is_a_function_of_its_seed(self, seed):
        calls = [transmit_group([280000] * 2, FOUR_G, mode="stochastic", seed=seed)
                 for _ in range(3)]
        assert calls[0] == calls[1] == calls[2]

    def test_expected_mode_ignores_the_seed(self):
        want = transmit_group([2048], FOUR_G)
        for seed in (None, -1, 1.7):
            assert transmit_group([2048], FOUR_G, seed=seed) == want

    @pytest.mark.parametrize("sizes", [[0, 0], [], [10]])
    def test_unknown_mode_rejected_whatever_the_sizes(self, sizes):
        # the zero-size shortcut charges nothing, but the mode is checked first
        with pytest.raises(ConfigError, match="transmit mode must be"):
            transmit_group(sizes, FOUR_G, mode="bogus")


class TestTransmitGroup:
    def test_dedicated_parallel(self):
        ups = transmit_group([2048] * 3, NO_LOSS_4G, start_times=[0.0, 0.0, 0.0])
        single = uplink(2048, NO_LOSS_4G).completion_s
        for u in ups:
            assert u.completion_s == pytest.approx(single, rel=1e-12)

    def test_shared_serializes_in_device_order(self):
        shared = NetworkProfile(15e6, 0.05, 0.0, medium="shared")
        ups = transmit_group([2048] * 3, shared, start_times=[0.0, 0.0, 0.0])
        air = 2048 * 8 / 15e6
        for i, u in enumerate(ups):
            assert u.completion_s == pytest.approx(0.05 + (i + 1) * air, rel=1e-12)

    def test_shared_respects_start_times(self):
        shared = NetworkProfile(1e6, 0.0, 0.0, medium="shared")
        ups = transmit_group([1000, 1000], shared, start_times=[1.0, 0.0])
        # device 1 was ready first, so it is granted first; device 0 finds
        # the channel free again when it is ready
        assert ups[1].completion_s == pytest.approx(0.008)
        assert ups[0].completion_s == pytest.approx(1.0 + 0.008)


@pytest.mark.parametrize("sizes, start_times, match", [
    ([1.5], None, "transfer size must be an integer, got 1.5"),
    (["x"], None, "transfer size must be an integer, got 'x'"),
    ([True], None, "transfer size must be an integer, got True"),
    (2048, None, "sizes must hold 0 or more entries, got 2048"),
    ([2048], ["0.1"], "start time must be a real number, got '0.1'"),
    ([2048], 0.1, "start_times must hold 0 or more entries, got 0.1"),
])
def test_mistyped_transfer_rejected_typed(sizes, start_times, match):
    # 1.5 was charged as 1 byte, and "x" leaked a bare ValueError
    with pytest.raises(ConfigError, match=match):
        transmit_group(sizes, FOUR_G, start_times=start_times)


class TestProfileValidation:
    def test_bounds(self):
        with pytest.raises(ConfigError):
            NetworkProfile(bandwidth_bps=0)
        with pytest.raises(ConfigError):
            NetworkProfile(loss_rate=1.0)
        with pytest.raises(ConfigError):
            NetworkProfile(medium="simplex")

    def test_label(self):
        assert FOUR_G.label() == "15Mbps/50ms/0.5%/dedicated"
