"""Stream-socket transport for the split pipeline.

The same frames that the simulated link accounts for are sent here for
real, length-delimited over TCP: a fixed 18-byte header declares the
payload length, so the reader pulls header, payload and CRC and hands the
whole buffer to the frame decoder. One writer per connection; the central
collector accepts any number of connections and funnels every decoded
latent into the shared hash-map buffer under wall-clock timestamps.

This module is the wall-time twin of EPIC's simulated path in
runtime.py. The two share `_sample_row` (one report row from the
collection and decode results), the T_d < T budget check, and the drop
and delay helpers; each keeps its own clock and its own collection:
here the collector waits on the buffer until every device reported or
T - T_d of wall time passed, then decodes what arrived.
"""

from __future__ import annotations

import socket
import threading
import time

import numpy as np

from .errors import ProtocolError
from .model import LatentVector, VelocityMap, decode, fuse, validate_partition, encode
from .netem import FRAME_OVERHEAD, HEADER, HEADER_SIZE, Frame, FrameKind, frame_decode, frame_encode
from .runtime import (
    HashBuffer,
    InfraConfig,
    RunReport,
    PipelineMode,
    _as_wave,
    _check_budget,
    _per_sample_delays,
    _per_sample_drops,
    _sample_row,
    profile_decoder,
)

__all__ = ["read_frame", "send_frame", "latent_from_frame", "latent_to_frame", "run_epic_socket"]

# read_frame's default payload bound, far above any latent (2 KiB at the
# full-size latent_dim of 512)
MAX_PAYLOAD = 1 << 20


def _read_exact(sock: socket.socket, n: int) -> bytes | None:
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            return None
        buf.extend(chunk)
    return bytes(buf)


def read_frame(sock: socket.socket, max_payload: int = MAX_PAYLOAD) -> Frame | None:
    """Read one length-delimited frame; None on a clean EOF.

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


class _Collector:
    """Accepts device connections and feeds frames into the buffer."""

    def __init__(self, host: str, port: int, buffer: HashBuffer, max_payload: int):
        self.buffer = buffer
        self.max_payload = max_payload
        self._listener = socket.create_server((host, port))
        self._threads: list[threading.Thread] = []
        self._accepting = threading.Thread(target=self._accept_loop, daemon=True)
        self._closing = False

    @property
    def address(self) -> tuple[str, int]:
        return self._listener.getsockname()[:2]

    def start(self) -> None:
        self._accepting.start()

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            t = threading.Thread(target=self._reader, args=(conn,), daemon=True)
            t.start()
            self._threads.append(t)

    def _reader(self, conn: socket.socket) -> None:
        with conn:
            while True:
                try:
                    frame = read_frame(conn, self.max_payload)
                except ProtocolError:
                    if self._closing:
                        return
                    raise
                if frame is None:
                    return
                if frame.kind == FrameKind.CONTROL:
                    continue
                latent = latent_from_frame(frame)
                self.buffer.insert(latent.sample_id, latent.device_id, latent, time.monotonic())

    def close(self) -> None:
        self._closing = True
        self._listener.close()
        for t in self._threads:
            t.join(timeout=2.0)


def _edge_worker(
    device_id: int,
    address: tuple[str, int],
    weights,
    slices,
    samples,
    dispatch: list[threading.Event],
    delay_s: float,
    drops: list[frozenset[int]],
    edge_done: list[dict[int, float]],
) -> None:
    a, b = slices[device_id]
    with socket.create_connection(address) as sock:
        for idx, sample in enumerate(samples):
            dispatch[idx].wait()
            if device_id in drops[idx]:
                continue
            t0 = time.monotonic()
            wave = _as_wave(sample)
            latent = encode(wave[:, :, a:b], weights.encoders[device_id],
                            device_id=device_id, sample_id=idx)
            if delay_s > 0.0:
                time.sleep(delay_s)
            edge_done[idx][device_id] = time.monotonic() - t0
            send_frame(sock, latent_to_frame(latent))


def run_epic_socket(
    samples,
    weights,
    infra: InfraConfig,
    extra_delay_s=None,
    drop_devices=None,
    ground_truth=None,
    host: str = "127.0.0.1",
    port: int = 0,
    profile_trials: int = 3,
) -> tuple[list[VelocityMap | None], RunReport]:
    """Wall-clock twin of run_epic over localhost TCP.

    Edge workers run as threads, one connection each; the decode budget
    T_d comes from one-time wall profiling of the decoder.
    """
    cfg = weights.config
    t_d = profile_decoder(weights, trials=profile_trials)
    _check_budget(infra.deadline_s, t_d)
    delays = _per_sample_delays(extra_delay_s)
    drops = _per_sample_drops(drop_devices, len(samples))

    first = _as_wave(samples[0]) if samples else None
    slices = validate_partition(infra.partition, first.shape[2], cfg.n_devices) if samples else ()

    buffer = HashBuffer()
    collector = _Collector(host, port, buffer, max_payload=cfg.latent_dim * 4)
    collector.start()

    dispatch = [threading.Event() for _ in samples]
    edge_done: list[dict[int, float]] = [dict() for _ in samples]
    workers = [
        threading.Thread(
            target=_edge_worker,
            args=(d, collector.address, weights, slices, samples, dispatch,
                  delays.get(d, 0.0), drops, edge_done),
            daemon=True,
        )
        for d in range(cfg.n_devices)
    ]
    for w in workers:
        w.start()

    maps: list[VelocityMap | None] = []
    report = RunReport(
        mode=PipelineMode.EPIC,
        n_devices=cfg.n_devices,
        profile_label=f"socket:{collector.address[0]}:{collector.address[1]}",
        deadline_s=infra.deadline_s,
        decode_budget_s=t_d,
    )
    try:
        for idx in range(len(samples)):
            t0 = time.monotonic()
            dispatch[idx].set()
            lset, released = buffer.collect_blocking(
                idx, cfg.n_devices, t0 + infra.deadline_s - t_d
            )
            collect_time = time.monotonic() - t0
            result = None
            if len(lset):
                d0 = time.monotonic()
                gl = fuse(lset, weights.fusion, cfg.n_heads)
                vmap = decode(gl, lset, weights)
                result = vmap, time.monotonic() - d0
            buffer.complete(idx)
            maps.append(None if result is None else result[0])
            report.rows.append(
                _sample_row(
                    report, idx, result,
                    {d: edge_done[idx].get(d, 0.0) for d in lset.present_ids()},
                    collect_time, released, buffer.late_frames(idx), 0.0,
                    (cfg.latent_dim * 4 + FRAME_OVERHEAD) * len(lset),
                    ground_truth, cfg.velocity_range,
                )
            )
    finally:
        for ev in dispatch:
            ev.set()
        for w in workers:
            w.join(timeout=5.0)
        collector.close()
    return maps, report
