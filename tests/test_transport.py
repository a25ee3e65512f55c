import socket
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import TINY, sealed
from splitfwi import runtime, transport
from splitfwi.errors import ConfigError, PartitionError, ProtocolError, ShapeError, WorkerError
from splitfwi.model import LatentVector, forward_full, init_weights
from splitfwi.netem import HEADER, HEADER_SIZE, FrameKind, NetworkProfile, frame_encode
from splitfwi.runtime import HashBuffer, InfraConfig, PipelineMode
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


# header fields after the magic, in HEADER order, with their bit widths
HEADER_FIELDS = {"version": 8, "kind": 8, "sample_id": 64, "device_id": 16, "payload_len": 32}
FRAME = latent_to_frame(LatentVector(values=np.arange(16, dtype=np.float32), device_id=1,
                                     sample_id=3))


@st.composite
def _resealed_frames(draw):
    """A latent frame with one drawn edit, CRC re-sealed: byte flips, a
    truncation, or one header field."""
    body = bytearray(FRAME[:-4])
    kind = draw(st.sampled_from(["flip", "truncate", *HEADER_FIELDS]))
    if kind == "flip":
        for _ in range(draw(st.integers(1, 3))):
            body[draw(st.integers(0, len(body) - 1))] ^= draw(st.integers(1, 255))
    elif kind == "truncate":
        del body[draw(st.integers(0, len(body) - 1)):]
    else:
        head = list(HEADER.unpack_from(body))
        bits = HEADER_FIELDS[kind]
        head[1 + list(HEADER_FIELDS).index(kind)] = draw(st.integers(0, 2**bits - 1))
        HEADER.pack_into(body, 0, *head)
    return sealed(bytes(body))


@given(blob=_resealed_frames())
@example(blob=sealed(FRAME[:10]))  # the stream closes inside the header
@settings(max_examples=200, deadline=None)
def test_resealed_frame_edits_decode_exactly_or_fail_typed(blob):
    t0 = time.perf_counter()
    try:
        latent = latent_from_frame(_read_sent(blob))
    except ProtocolError:
        pass
    else:
        assert latent_to_frame(latent) == blob
    assert time.perf_counter() - t0 < 1.0


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
        t0 = time.monotonic()
        maps, report = run_epic_socket(
            waves, weights, infra, extra_delay_s={1: 3.0}
        )
        # the straggler's extra delay ends with the run instead of holding it
        assert time.monotonic() - t0 < infra.deadline_s + 0.5
        row = report.rows[0]
        assert row.mask == (True, False, True)
        assert row.deadline_fired
        assert row.late_frames == 1
        assert maps[0] is not None

    def test_straggler_leaves_no_thread(self, weights):
        rng = np.random.default_rng(4)
        waves = [rng.normal(size=(5, 40, 70)).astype(np.float32)]
        before = set(threading.enumerate())
        run_epic_socket(waves, weights, self._infra(deadline=1.0), extra_delay_s={1: 3.0})
        # every edge worker and reader ends with the run; the listener
        # closed before the first sample
        assert not set(threading.enumerate()) - before

    def test_run_starts_two_threads_per_device(self, weights, monkeypatch):
        started = []
        real_start = threading.Thread.start

        def counting_start(thread):
            started.append(thread)
            real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        rng = np.random.default_rng(4)
        run_epic_socket([rng.normal(size=(5, 40, 70)).astype(np.float32)], weights, self._infra())
        # one edge worker and one reader per device
        assert len(started) == 2 * TINY.n_devices

    def test_ipv6_loopback_run_matches_reference(self, weights):
        # the listener takes the family that its host resolves to; the test
        # skips only on a host that cannot bind the IPv6 loopback at all
        try:
            socket.create_server(("::1", 0), family=socket.AF_INET6).close()
        except OSError:
            pytest.skip("this host cannot bind ::1")
        rng = np.random.default_rng(11)
        waves = [rng.normal(size=(5, 40, 70)).astype(np.float32) for _ in range(2)]
        infra = InfraConfig(n_devices=TINY.n_devices, deadline_s=30.0, transport="socket",
                            socket_host="::1")
        maps, report = run_epic_socket(waves, weights, infra)
        assert report.profile_label.startswith("socket:::1:")
        for wave, vmap in zip(waves, maps, strict=True):
            ref = forward_full(wave, weights, infra.partition)
            np.testing.assert_array_equal(vmap.values, ref.values)

    def test_port_out_of_range_rejected(self):
        # it used to reach the listener's bind as a bare OverflowError
        with pytest.raises(ConfigError, match=r"socket_port must be in \[0, 65535\], got 70000"):
            InfraConfig(n_devices=TINY.n_devices, transport="socket", socket_port=70000)

    def test_address_in_use_rejected_before_any_thread(self, weights, monkeypatch):
        def start(thread):
            raise AssertionError("a thread started")

        monkeypatch.setattr(threading.Thread, "start", start)
        rng = np.random.default_rng(4)
        with socket.create_server(("127.0.0.1", 0)) as taken:
            port = taken.getsockname()[1]
            infra = InfraConfig(n_devices=TINY.n_devices, transport="socket", socket_port=port)
            with pytest.raises(ConfigError, match=f"host '127.0.0.1' port {port}: "):
                run_epic_socket([rng.normal(size=(5, 40, 70)).astype(np.float32)], weights, infra)

    def test_stranger_cannot_deliver_frames(self, weights, monkeypatch):
        # a stranger connects to the run's listener before any edge does and
        # sends a CRC-valid zero latent for sample 1, device 0; its
        # connection must be closed unread, so every map stays exact
        real_connect = socket.create_connection
        strangers = []
        lock = threading.Lock()

        def connect_after_a_stranger(address, *args, **kwargs):
            with lock:
                if not strangers:
                    strangers.append(real_connect(address))
                    zero = LatentVector(values=np.zeros(TINY.latent_dim, np.float32),
                                        device_id=0, sample_id=1)
                    strangers[0].sendall(latent_to_frame(zero))
            return real_connect(address, *args, **kwargs)

        monkeypatch.setattr(socket, "create_connection", connect_after_a_stranger)
        rng = np.random.default_rng(10)
        waves = [rng.normal(size=(5, 40, 70)).astype(np.float32) for _ in range(3)]
        infra = self._infra()
        try:
            maps, report = run_epic_socket(waves, weights, infra)
        finally:
            for stranger in strangers:
                stranger.close()
        assert len(strangers) == 1
        assert [r.mask for r in report.rows] == [(True,) * TINY.n_devices] * 3
        for wave, vmap in zip(waves, maps):
            ref = forward_full(wave, weights, infra.partition)
            np.testing.assert_array_equal(vmap.values, ref.values)

    def test_straggler_skips_closed_samples(self, weights, monkeypatch):
        # device 1's encode of sample 0 returns only once sample 1 has
        # closed, so its job for sample 1 is always for a closed sample and
        # must be skipped; every encode that does start must follow the
        # worker's own closed() read of that sample returning False
        sample1_closed = threading.Event()
        reads, starts = {}, []
        real_close, real_closed = HashBuffer._close, HashBuffer.closed
        real_encode = transport.encode

        def recording_close(buffer, sample_id, n_devices):
            closed = real_close(buffer, sample_id, n_devices)
            if sample_id == 1:
                sample1_closed.set()
            return closed

        def recording_closed(buffer, sample_id):
            result = real_closed(buffer, sample_id)
            reads[threading.get_ident(), sample_id] = result
            return result

        def gated_encode(wave, enc, device_id, sample_id):
            starts.append((device_id, sample_id, reads.get((threading.get_ident(), sample_id))))
            if (device_id, sample_id) == (1, 0):
                sample1_closed.wait(timeout=10.0)
            return real_encode(wave, enc, device_id=device_id, sample_id=sample_id)

        monkeypatch.setattr(HashBuffer, "_close", recording_close)
        monkeypatch.setattr(HashBuffer, "closed", recording_closed)
        monkeypatch.setattr(transport, "encode", gated_encode)
        rng = np.random.default_rng(9)
        waves = [rng.normal(size=(5, 40, 70)).astype(np.float32) for _ in range(3)]
        _, report = run_epic_socket(waves, weights, self._infra(deadline=0.5))
        assert sample1_closed.is_set()
        assert [r.late_frames for r in report.rows[:2]] == [1, 1]
        assert [read for _, _, read in starts] == [False] * len(starts)
        device1 = [s for d, s, _ in starts if d == 1]
        assert 0 in device1 and 1 not in device1

    def test_decoder_profiled_once_per_weights(self, monkeypatch):
        profiled = []

        def counting(weights):
            profiled.append(id(weights))
            return runtime.profile_decoder(weights)

        monkeypatch.setattr(transport, "profile_decoder", counting)
        rng = np.random.default_rng(5)
        waves = [rng.normal(size=(5, 40, 70)).astype(np.float32)]
        infra = self._infra()
        first = init_weights(TINY, seed=12)
        budgets = [run_epic_socket(waves, first, infra)[1].decode_budget_s for _ in range(2)]
        assert profiled == [id(first)] and budgets[0] == budgets[1]
        second = init_weights(TINY, seed=12)
        run_epic_socket(waves, second, infra)
        assert profiled == [id(first), id(second)]

    @pytest.mark.parametrize("n_devices", [2, 4])
    def test_device_count_mismatch_rejected_before_threads(self, weights, n_devices):
        # 3-device weights: 2 devices would index past the partition, and 4
        # would never read the wave's last slice yet report the sample ok
        before = set(threading.enumerate())
        infra = InfraConfig(n_devices=n_devices, transport="socket")
        with pytest.raises(ConfigError, match=f"built for 3 devices, infra has {n_devices}"):
            run_epic_socket([np.zeros((5, 40, 70), np.float32)], weights, infra)
        assert not set(threading.enumerate()) - before

    def test_empty_input_gives_empty_report(self, weights):
        maps, report = run_epic_socket([], weights, self._infra())
        assert maps == [] and report.rows == []
        assert report.mode == PipelineMode.EPIC

    def test_narrower_sample_rejected_before_dispatch(self, weights, monkeypatch):
        encoded = []
        real_encode = transport.encode

        def counting(wave, enc, device_id, sample_id):
            encoded.append(sample_id)
            return real_encode(wave, enc, device_id=device_id, sample_id=sample_id)

        monkeypatch.setattr(transport, "encode", counting)
        rng = np.random.default_rng(7)
        waves = [rng.normal(size=(5, 40, w)).astype(np.float32) for w in (70, 60)]
        with pytest.raises(PartitionError, match="60 receivers"):
            run_epic_socket(waves, weights, self._infra())
        # every sample's width is checked before sample 0 is dispatched
        assert encoded == []


def test_socket_and_simulated_twins_agree(weights):
    """Each drop and delay schedule through both clocks: the rows that the
    two twins can share (everything but the timings) and the decoded maps
    agree, late frames included."""
    rng = np.random.default_rng(8)
    waves = [rng.normal(size=(5, 40, 70)).astype(np.float32) for _ in range(3)]
    link = NetworkProfile(bandwidth_bps=1e9, base_latency_s=1e-3, loss_rate=0.0)
    schedules = [
        # (T, drop sets, extra delays, statuses, deadline fired, late frames)
        (1.0, [(), {1}, {0, 1, 2}], None, ["ok", "ok", "failed"], [False, True, True], [0, 0, 0]),
        (0.5, None, {1: 0.8}, ["ok"] * 3, [True] * 3, [1, 1, 1]),
    ]
    fields = ("status", "mask", "comm_bytes", "deadline_fired", "late_frames")
    for deadline_s, drops, delays, statuses, fired, late in schedules:
        (sim_maps, sim), (wall_maps, wall) = [
            runtime.run_epic(waves, weights, InfraConfig(
                n_devices=TINY.n_devices, deadline_s=deadline_s, network=link, transport=clock),
                extra_delay_s=delays, drop_devices=drops)
            for clock in ("simulated", "socket")
        ]
        for a, b in zip(sim.rows, wall.rows, strict=True):
            assert [getattr(a, f) for f in fields] == [getattr(b, f) for f in fields]
        assert [(r.status, r.deadline_fired, r.late_frames) for r in sim.rows] == list(
            zip(statuses, fired, late))
        for a, b, row in zip(sim_maps, wall_maps, sim.rows):
            if row.status == "ok":
                np.testing.assert_array_equal(a.values, b.values)
            else:
                assert a is None and b is None


class TestSocketThreadFailures:
    """A reader or edge thread that raises ends the run with its error."""

    DEADLINE = 3.0

    def _failure(self, weights, monkeypatch, expected, match):
        hooked = []
        monkeypatch.setattr(threading, "excepthook", hooked.append)
        rng = np.random.default_rng(6)
        waves = [rng.normal(size=(5, 40, 70)).astype(np.float32) for _ in range(3)]
        infra = InfraConfig(n_devices=TINY.n_devices, deadline_s=self.DEADLINE, transport="socket")
        t0 = time.monotonic()
        with pytest.raises(expected, match=match) as info:
            run_epic_socket(waves, weights, infra)
        # the collector stops waiting when a thread fails, not at T - T_d
        assert time.monotonic() - t0 < self.DEADLINE
        assert hooked == []
        return info.value

    def test_edge_encode_error_is_wrapped(self, weights, monkeypatch):
        real_encode = transport.encode

        def failing_encode(wave, enc, device_id, sample_id):
            if device_id == 1:
                raise RuntimeError("encoder exploded")
            return real_encode(wave, enc, device_id=device_id, sample_id=sample_id)

        monkeypatch.setattr(transport, "encode", failing_encode)
        exc = self._failure(weights, monkeypatch, WorkerError, "encoder exploded")
        assert isinstance(exc.__cause__, RuntimeError)

    def test_edge_split_fwi_error_raised_as_is(self, weights, monkeypatch):
        def failing_encode(wave, enc, device_id, sample_id):
            raise ShapeError(f"device {device_id} cannot encode")

        monkeypatch.setattr(transport, "encode", failing_encode)
        self._failure(weights, monkeypatch, ShapeError, "cannot encode")

    def test_non_finite_frame_fails_the_reader(self, weights, monkeypatch):
        real_to_frame = transport.latent_to_frame

        def poisoned(latent):
            frame = real_to_frame(latent)
            if latent.device_id != 2 or latent.sample_id != 1:
                return frame
            payload = np.full(latent.values.shape, np.nan, "<f4").tobytes()
            return frame_encode(FrameKind.LATENT, latent.sample_id, latent.device_id, payload)

        monkeypatch.setattr(transport, "latent_to_frame", poisoned)
        self._failure(weights, monkeypatch, ProtocolError, "non-finite")

    @pytest.mark.parametrize("kind, device_id, payload, match", [
        # a device outside the run's 3 would complete the sample without device 1
        (FrameKind.LATENT, 5, None, r"device_id 5 outside \[0, 3\)"),
        # a CRC-valid, float32-aligned latent shorter than the run's 16 floats
        (FrameKind.LATENT, 1, b"\x00" * 4, "payload_len 4 is not the run's 64-byte latent"),
        # no sender emits a CONTROL frame, so one is not skipped
        (FrameKind.CONTROL, 1, None, "expected a latent frame, got CONTROL"),
    ])
    def test_frame_that_does_not_fit_the_run_fails_the_reader(self, weights, monkeypatch, kind,
                                                              device_id, payload, match):
        real_to_frame = transport.latent_to_frame

        def misfit(latent):
            if latent.device_id != 1:
                return real_to_frame(latent)
            body = latent.values.astype("<f4").tobytes() if payload is None else payload
            return frame_encode(kind, latent.sample_id, device_id, body)

        monkeypatch.setattr(transport, "latent_to_frame", misfit)
        self._failure(weights, monkeypatch, ProtocolError, match)


def test_first_failure_keeps_one_of_concurrent_errors():
    buffer = HashBuffer()
    failure = transport._FirstFailure(buffer)
    errors = [RuntimeError(f"thread {i}") for i in range(8)]  # more threads than cores
    start = threading.Barrier(len(errors))

    def boom(exc):
        start.wait(timeout=5.0)
        raise exc

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=failure.guard(boom), args=(e,)) for e in errors]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=5.0)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(old)
    assert any(failure.exc is e for e in errors)
    with pytest.raises(WorkerError) as info:
        failure.reraise()
    assert info.value.__cause__ is failure.exc
    _, released = buffer.collect_blocking(0, 1, time.monotonic() + 30.0)
    assert released
