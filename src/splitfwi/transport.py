"""Stream-socket transport for the split pipeline.

The same frames that the simulated link accounts for are sent here for
real, length-delimited over TCP: a fixed 18-byte header declares the
payload length, so the reader pulls header, payload and CRC and hands the
whole buffer to the frame decoder. Each device's edge thread writes one
connection, made before the first sample through a listener that then
closes, and one reader thread funnels its latents into the shared
hash-map buffer under wall-clock timestamps.

This module is the wall link of EPIC's per-sample loop, `_run_plan` in
runtime.py, which also drives the simulated twin: `_check_run` checks
every run argument, each sample's width included, before any work, and
the loop collects, decodes, counts late frames and builds the row the
same way on both clocks. Here collection puts each online device's
slice of the sample on that device's job queue, so edge threads never
see the input sequence, and waits on the buffer until every device reported or
T - T_d of wall time passed; a frame that lands after that is stale in
the buffer and counted late by the loop, and an edge thread skips the
job of a sample that has already closed. The central step fuses and
decodes what arrived, timed on the wall clock. T_d is measured by
runtime.profile_decoder once per weights object in a process, when
`_check_run` first checks a socket run of those weights, so a stream of
calls with the same weights profiles only once.
"""

from __future__ import annotations

import queue
import socket
import threading
import time

import numpy as np

from .errors import ConfigError, ProtocolError, SplitFwiError, WorkerError
from .model import LatentSet, LatentVector, VelocityMap, decode, encode, fuse
from .netem import HEADER, HEADER_SIZE, Frame, FrameKind, frame_decode, frame_encode
from .runtime import (
    HashBuffer,
    InfraConfig,
    PipelineMode,
    RunReport,
    _check_run,
    _Collected,
    _decode_budget,
    _Link,
    _Plan,
    _run_plan,
)

__all__ = ["read_frame", "send_frame", "latent_from_frame", "latent_to_frame", "run_epic_socket"]

# read_frame's default payload bound, far above any latent (2 KiB at the
# full-size latent_dim of 512)
MAX_PAYLOAD = 1 << 20


def _read_exact(sock: socket.socket, n: int) -> bytes | None:
    """n bytes from sock; None if it closes before the first of them."""
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            if buf:
                raise ProtocolError(f"stream closed mid-frame after {len(buf)} of {n} bytes")
            return None
        buf.extend(chunk)
    return bytes(buf)


def read_frame(sock: socket.socket, max_payload: int = MAX_PAYLOAD) -> Frame | None:
    """Read one length-delimited frame; None on a clean EOF, before the
    first byte of a frame. A stream that closes inside a frame, header
    included, is a ProtocolError.

    A header declaring more than max_payload bytes is rejected before
    any of its payload is read, so a corrupted length cannot stall the
    reader; a run passes the size of its latent payload.
    """
    head = _read_exact(sock, HEADER_SIZE)
    if head is None:
        return None
    magic, version, _, _, _, payload_len = HEADER.unpack(head)
    if magic != b"EP":
        raise ProtocolError(f"bad frame magic {magic!r} on stream")
    if payload_len > max_payload:
        raise ProtocolError(
            f"frame declares a {payload_len}-byte payload; at most {max_payload} bytes expected"
        )
    rest = _read_exact(sock, payload_len + 4)
    if rest is None:
        raise ProtocolError("stream closed mid-frame")
    return frame_decode(head + rest)


def send_frame(sock: socket.socket, frame_bytes: bytes) -> None:
    sock.sendall(frame_bytes)


def latent_to_frame(latent: LatentVector) -> bytes:
    return frame_encode(
        FrameKind.LATENT, latent.sample_id, latent.device_id,
        latent.values.astype("<f4").tobytes(),
    )


def latent_from_frame(frame: Frame) -> LatentVector:
    if frame.kind != FrameKind.LATENT:
        raise ProtocolError(f"expected a latent frame, got {frame.kind.name}")
    if len(frame.payload) % 4 != 0:
        raise ProtocolError(f"latent payload of {len(frame.payload)} bytes is not float32-aligned")
    values = np.frombuffer(frame.payload, dtype="<f4").copy()
    if not np.isfinite(values).all():
        raise ProtocolError("latent payload contains non-finite values")
    return LatentVector(values=values, device_id=frame.device_id, sample_id=frame.sample_id)


class _FirstFailure:
    """The first exception raised by any reader or edge thread of one run.

    A guarded thread that raises records its exception here instead of
    dying quietly, and interrupts the buffer so the waiting collector stops
    at once; the run re-raises it after cleanup.
    """

    def __init__(self, buffer: HashBuffer):
        self._buffer = buffer
        self._lock = threading.Lock()
        self.exc: Exception | None = None

    def guard(self, target):
        def run(*args):
            try:
                target(*args)
            except Exception as exc:
                with self._lock:
                    if self.exc is None:
                        self.exc = exc
                self._buffer.interrupt()
        return run

    def reraise(self) -> None:
        if isinstance(self.exc, SplitFwiError):
            raise self.exc
        if self.exc is not None:
            raise WorkerError(f"socket worker thread failed: {self.exc!r}") from self.exc


def _connect_edges(host: str, port: int, n_devices: int):
    """The listener's address and the edge and central ends of n_devices
    connections. Each edge connects before its central end is accepted,
    so accept() never waits; a connection from any other peer is closed
    unread, and the listener closes before this returns. A host or port
    that cannot be bound, in the family host resolves to, is a ConfigError."""
    try:
        family = socket.getaddrinfo(host, port, type=socket.SOCK_STREAM)[0][0]
        listener = socket.create_server((host, port), family=family)
    except OSError as exc:
        raise ConfigError(f"cannot listen on host {host!r} port {port}: {exc}") from exc
    made: list[socket.socket] = []
    try:
        with listener:
            address = listener.getsockname()[:2]
            for _ in range(n_devices):
                edge = socket.create_connection(address)
                made.append(edge)
                while True:
                    conn, peer = listener.accept()
                    if peer == edge.getsockname():
                        break
                    conn.close()
                made.append(conn)
    except BaseException:
        for sock in made:
            sock.close()
        raise
    return address, made[0::2], made[1::2]


def _read_latents(conn: socket.socket, buffer: HashBuffer, n_devices: int, latent_bytes: int,
                  stop: threading.Event) -> None:
    """Feed the latent frames of one edge connection into the buffer
    until the edge closes it.

    A latent frame must come from one of the run's n_devices and carry
    exactly latent_bytes of payload; any other frame is a ProtocolError
    that ends the run, like a corrupt one, unless the run has stopped.
    """
    with conn:
        while True:
            try:
                frame = read_frame(conn, latent_bytes)
            except ProtocolError:
                if stop.is_set():
                    return
                raise
            if frame is None:
                return
            if not 0 <= frame.device_id < n_devices:
                raise ProtocolError(
                    f"frame device_id {frame.device_id} outside [0, {n_devices})")
            if len(frame.payload) != latent_bytes:
                raise ProtocolError(f"frame payload_len {len(frame.payload)} is not the "
                                    f"run's {latent_bytes}-byte latent")
            latent = latent_from_frame(frame)
            buffer.insert(latent.sample_id, latent.device_id, latent, time.monotonic())


def _edge_worker(device_id: int, sock: socket.socket, weights, jobs: queue.SimpleQueue,
                 delay_s: float, stop: threading.Event, buffer: HashBuffer) -> None:
    """Encode and send each job's slice, (sample_id, wave slice, edge
    seconds by device), until a None job or a stop, then close the
    connection. A job whose sample already closed in the buffer is
    skipped: its frame could only be stale, so a straggler catches up
    instead of falling further behind."""
    with sock:
        for idx, wave_slice, edge_s in iter(jobs.get, None):
            if stop.is_set():
                return
            if buffer.closed(idx):
                continue
            t0 = time.monotonic()
            latent = encode(wave_slice, weights.encoders[device_id],
                            device_id=device_id, sample_id=idx)
            # the extra delay ends early when the run stops, and a stopped
            # worker sends nothing
            if stop.wait(delay_s):
                return
            edge_s[device_id] = time.monotonic() - t0
            send_frame(sock, latent_to_frame(latent))


def run_epic_socket(
    samples,
    weights,
    infra: InfraConfig,
    extra_delay_s=None,
    drop_devices=None,
    ground_truth=None,
) -> tuple[list[VelocityMap | None], RunReport]:
    """Wall-clock twin of run_epic over TCP at infra.socket_host and
    infra.socket_port (port 0 binds an ephemeral port).

    Edge workers run as threads, one connection and one job queue each;
    collection puts each online device's slice of the sample on its
    queue. The decode budget T_d comes from wall profiling of the
    decoder, done once per weights object in a process and reused by
    later calls. Rows count the payload bytes of every online device and
    its late frames, like the simulated twin, and charge no energy. A
    device's extra delay ends when the run returns, so a straggler does
    not hold the return past the deadline. The first exception raised in
    an edge or reader thread ends the run: it is re-raised after cleanup,
    a SplitFwiError as is and anything else as a WorkerError. Every
    argument, each sample's width and the measured T_d included, is
    checked before any connection or thread.
    """
    drops, delays = _check_run(PipelineMode.EPIC, weights, infra, samples, drop_devices,
                               ground_truth, extra_delay_s)
    t_d = _decode_budget(weights)
    cfg = weights.config
    latent_bytes = cfg.latent_dim * 4
    (host, port), edges, centrals = _connect_edges(infra.socket_host, infra.socket_port,
                                                   cfg.n_devices)
    buffer = HashBuffer()
    failure = _FirstFailure(buffer)
    stop = threading.Event()
    jobs = [queue.SimpleQueue() for _ in range(cfg.n_devices)]
    threads = []
    for d in range(cfg.n_devices):
        threads += [
            threading.Thread(target=failure.guard(_edge_worker), daemon=True,
                             args=(d, edges[d], weights, jobs[d], delays.get(d, 0.0), stop, buffer)),
            threading.Thread(target=failure.guard(_read_latents), daemon=True,
                             args=(centrals[d], buffer, cfg.n_devices, latent_bytes, stop)),
        ]

    def collect(idx, wave, online):
        t0 = time.monotonic()
        edge_s: dict[int, float] = {}
        for d in online:
            jobs[d].put((idx, wave[:, :, slice(*infra.partition[d])], edge_s))
        latents, released = buffer.collect_blocking(idx, cfg.n_devices, t0 + infra.deadline_s - t_d)
        failure.reraise()
        # a worker records its edge seconds before it sends the frame
        return _Collected(latents, {d: edge_s[d] for d in latents},
                          time.monotonic() - t0, released, 0.0, latent_bytes * len(online))

    def central(latents, wave, idx):
        if not latents:
            return None
        t0 = time.monotonic()
        # runtime._fuse_decode computes the same; fuse and decode are called
        # here, through this module's names, so that perfbench's per-layer
        # trace can tell the socket twin's central step by its call site
        lset = LatentSet.from_latents(latents.values(), cfg.n_devices)
        vmap = decode(fuse(lset, weights.fusion, cfg.n_heads), lset, weights)
        return vmap, time.monotonic() - t0

    try:
        for t in threads:
            t.start()
        result = _run_plan(PipelineMode.EPIC, _Plan(None, central, t_d, timeout=True), samples,
                           weights, infra, drops, ground_truth,
                           _Link(collect, f"socket:{host}:{port}"))
    finally:
        stop.set()
        for q in jobs:
            q.put(None)
        # a reader ends when its edge worker closes the connection
        for t in threads:
            if t.ident is not None:
                t.join(timeout=5.0)
        for sock in edges + centrals:
            sock.close()
    failure.reraise()
    return result
