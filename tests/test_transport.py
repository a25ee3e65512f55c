import socket
import threading

import numpy as np
import pytest

from conftest import TINY
from splitfwi.errors import ProtocolError
from splitfwi.model import LatentVector, forward_full, init_weights
from splitfwi.netem import HEADER, HEADER_SIZE, FrameKind, frame_encode
from splitfwi.runtime import InfraConfig, PipelineMode
from splitfwi.transport import latent_from_frame, latent_to_frame, read_frame, run_epic_socket


@pytest.fixture(scope="module")
def weights():
    return init_weights(TINY, seed=11)


def test_latent_frame_round_trip():
    rng = np.random.default_rng(0)
    latent = LatentVector(values=rng.normal(size=16).astype(np.float32),
                          device_id=2, sample_id=9)
    frame_bytes = latent_to_frame(latent)
    from splitfwi.netem import frame_decode

    restored = latent_from_frame(frame_decode(frame_bytes))
    np.testing.assert_array_equal(restored.values, latent.values)
    assert restored.device_id == 2
    assert restored.sample_id == 9


def test_non_finite_latent_payload_rejected():
    bad = np.array([np.inf, 0.0], np.float32)
    frame_bytes = frame_encode(FrameKind.LATENT, 0, 0, bad.tobytes())
    from splitfwi.netem import frame_decode

    with pytest.raises(ProtocolError, match="non-finite"):
        latent_from_frame(frame_decode(frame_bytes))


def test_read_frame_over_socket_pair():
    a, b = socket.socketpair()
    rng = np.random.default_rng(1)
    latent = LatentVector(values=rng.normal(size=16).astype(np.float32), device_id=1)
    payload = latent_to_frame(latent)

    def writer():
        # dribble bytes to exercise partial reads
        for i in range(0, len(payload), 7):
            a.sendall(payload[i : i + 7])
        a.close()

    t = threading.Thread(target=writer)
    t.start()
    frame = read_frame(b)
    t.join()
    b.close()
    assert frame is not None
    np.testing.assert_array_equal(latent_from_frame(frame).values, latent.values)
    assert read_frame_closed(b) is None


def _read_sent(frame_bytes, **kwargs):
    """read_frame on a socket pair whose writer sent frame_bytes and closed."""
    a, b = socket.socketpair()
    with a, b:
        a.sendall(frame_bytes)
        a.close()
        return read_frame(b, **kwargs)


def test_read_frame_rejects_oversized_header():
    head = HEADER.pack(b"EP", 1, int(FrameKind.LATENT), 0, 0, 2**32 - 1)
    with pytest.raises(ProtocolError, match="4294967295-byte payload"):
        _read_sent(head)
    frame = latent_to_frame(LatentVector(values=np.zeros(16, np.float32), device_id=0))
    with pytest.raises(ProtocolError, match="at most 60 bytes"):
        _read_sent(frame, max_payload=60)
    assert _read_sent(frame, max_payload=64).payload == bytes(64)


def test_read_frame_rejects_truncated_frame():
    frame = latent_to_frame(LatentVector(values=np.ones(16, np.float32), device_id=0))
    for cut in (HEADER_SIZE, HEADER_SIZE + 1, len(frame) - 1):
        with pytest.raises(ProtocolError, match="closed mid-frame"):
            _read_sent(frame[:cut])
    assert _read_sent(frame[:0]) is None


def test_read_frame_rejects_every_bit_flip():
    rng = np.random.default_rng(5)
    frame = latent_to_frame(LatentVector(values=rng.normal(size=16).astype(np.float32),
                                         device_id=1, sample_id=3))
    for bit in range(8 * len(frame)):
        flipped = bytearray(frame)
        flipped[bit // 8] ^= 1 << (bit % 8)
        with pytest.raises(ProtocolError):
            _read_sent(bytes(flipped), max_payload=16 * 4)


def read_frame_closed(sock):
    try:
        return read_frame(sock)
    except OSError:
        return None


class TestSocketPipeline:
    def _infra(self, deadline=30.0):
        return InfraConfig(n_devices=TINY.n_devices, deadline_s=deadline, transport="socket")

    def test_matches_reference_bitwise(self, weights):
        rng = np.random.default_rng(3)
        waves = [rng.normal(size=(5, 40, 70)).astype(np.float32) for _ in range(2)]
        infra = self._infra()
        maps, report = run_epic_socket(waves, weights, infra)
        assert report.mode == PipelineMode.EPIC
        for wave, vmap, row in zip(waves, maps, report.rows):
            ref = forward_full(wave, weights, infra.partition)
            np.testing.assert_array_equal(vmap.values, ref.values)
            assert row.mask == (True,) * TINY.n_devices
            assert row.l_total_s > 0

    def test_slow_device_released(self, weights):
        rng = np.random.default_rng(4)
        waves = [rng.normal(size=(5, 40, 70)).astype(np.float32)]
        infra = self._infra(deadline=1.0)
        maps, report = run_epic_socket(
            waves, weights, infra, extra_delay_s={1: 3.0}
        )
        row = report.rows[0]
        assert row.mask == (True, False, True)
        assert row.deadline_fired
        assert maps[0] is not None
