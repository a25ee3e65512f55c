"""Deterministic network emulation and the latent wire protocol.

Frame layout, little-endian and bit-exact:

    magic ``EP`` (2B) | version u8 | kind u8 | sample_id u64 |
    device_id u16 | payload_len u32 | payload | crc32 u32

The CRC covers every byte before it. The framing runs over the
stream-socket transport only: the simulated link charges payload bytes
alone, without the 22 bytes of header and CRC per frame.

The emulator is a pure function of its inputs plus a seed. Expected mode
uses the closed form latency = l + (bits/b) / (1 - p); stochastic mode
splits the payload into MTU packets, draws per-packet Bernoulli losses and
charges one round trip (2l) per retransmission. On a shared medium,
concurrent uplinks serialize in device-id order; a dedicated medium runs
them in parallel.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .errors import ConfigError, ProtocolError, int_field, real_field

FRAME_MAGIC = b"EP"
FRAME_VERSION = 1
HEADER = struct.Struct("<2sBBQHI")
HEADER_SIZE = HEADER.size  # 18
FRAME_OVERHEAD = HEADER_SIZE + 4  # header plus trailing crc32


class FrameKind(IntEnum):
    LATENT = 1
    RAW = 2
    CONTROL = 3


@dataclass(frozen=True)
class Frame:
    kind: FrameKind
    sample_id: int
    device_id: int
    payload: bytes


def frame_encode(kind: FrameKind, sample_id: int, device_id: int, payload: bytes) -> bytes:
    if not 0 <= sample_id < 2**64:
        raise ProtocolError(f"sample_id {sample_id} outside u64 range")
    if not 0 <= device_id < 2**16:
        raise ProtocolError(f"device_id {device_id} outside u16 range")
    if len(payload) >= 2**32:
        raise ProtocolError(f"payload of {len(payload)} bytes exceeds u32 length field")
    head = HEADER.pack(FRAME_MAGIC, FRAME_VERSION, int(kind), sample_id, device_id, len(payload))
    body = head + payload
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


def frame_decode(buf: bytes) -> Frame:
    if len(buf) < FRAME_OVERHEAD:
        raise ProtocolError(f"frame of {len(buf)} bytes is shorter than the {FRAME_OVERHEAD}-byte minimum")
    magic, version, kind, sample_id, device_id, payload_len = HEADER.unpack_from(buf, 0)
    if magic != FRAME_MAGIC:
        raise ProtocolError(f"bad frame magic {magic!r}")
    if version != FRAME_VERSION:
        raise ProtocolError(f"unsupported frame version {version}")
    if len(buf) != FRAME_OVERHEAD + payload_len:
        raise ProtocolError(
            f"frame length {len(buf)} does not match declared payload of {payload_len} bytes"
        )
    (stored,) = struct.unpack_from("<I", buf, len(buf) - 4)
    actual = zlib.crc32(buf[:-4]) & 0xFFFFFFFF
    if stored != actual:
        raise ProtocolError(f"frame CRC mismatch: stored {stored:#010x}, computed {actual:#010x}")
    try:
        kind = FrameKind(kind)
    except ValueError:
        raise ProtocolError(f"unknown frame kind {kind}") from None
    return Frame(kind=kind, sample_id=sample_id, device_id=device_id,
                 payload=bytes(buf[HEADER_SIZE:-4]))


# ---------------------------------------------------------------------------
# link model


@dataclass(frozen=True)
class NetworkProfile:
    bandwidth_bps: float = 15e6
    base_latency_s: float = 0.05
    loss_rate: float = 0.005
    medium: str = "dedicated"
    mtu_bytes: int = 1500

    def __post_init__(self):
        real_field("bandwidth_bps", self.bandwidth_bps, above=0)
        real_field("base_latency_s", self.base_latency_s, at_least=0)
        real_field("loss_rate", self.loss_rate)
        object.__setattr__(self, "mtu_bytes", int_field("mtu_bytes", self.mtu_bytes))
        if not 0.0 <= self.loss_rate < 1.0:
            raise ConfigError(f"loss_rate must be in [0, 1), got {self.loss_rate}")
        if self.medium not in ("dedicated", "shared"):
            raise ConfigError(f"medium must be 'dedicated' or 'shared', got {self.medium!r}")
        if self.mtu_bytes < 1:
            raise ConfigError(f"mtu_bytes must be >= 1, got {self.mtu_bytes}")

    def label(self) -> str:
        mbps = self.bandwidth_bps / 1e6
        return (
            f"{mbps:g}Mbps/{self.base_latency_s * 1e3:g}ms/"
            f"{self.loss_rate * 100:g}%/{self.medium}"
        )


#: The emulated cellular uplink used throughout the benchmarks.
FOUR_G = NetworkProfile(bandwidth_bps=15e6, base_latency_s=0.05, loss_rate=0.005)


@dataclass(frozen=True)
class EnergyModel:
    """Parametric radio cost: power while the radio transmits, plus an
    optional fixed per-byte charge."""

    tx_power_w: float = 0.8
    per_byte_j: float = 0.0

    def __post_init__(self):
        for name in ("tx_power_w", "per_byte_j"):
            real_field(name, getattr(self, name), at_least=0)


def _airtime_and_retries(size_bytes: int, profile: NetworkProfile, mode: str, seed):
    """Radio airtime (including retransmitted packets) and retry count;
    transmit_group has checked the mode."""
    if size_bytes == 0:
        return 0.0, 0
    if mode == "expected":
        return size_bytes * 8.0 / profile.bandwidth_bps / (1.0 - profile.loss_rate), 0
    rng = np.random.default_rng(seed)
    n_full, rem = divmod(size_bytes, profile.mtu_bytes)
    sizes = np.full(n_full + (1 if rem else 0), profile.mtu_bytes, dtype=np.float64)
    if rem:
        sizes[-1] = rem
    # at loss_rate 0 every packet takes exactly one attempt
    attempts = rng.geometric(1.0 - profile.loss_rate, size=sizes.shape[0])
    airtime = float((attempts * sizes * 8.0).sum() / profile.bandwidth_bps)
    return airtime, int(attempts.sum() - sizes.shape[0])


@dataclass(frozen=True)
class UplinkResult:
    completion_s: float
    energy_j: float
    retransmissions: int


def transmit_group(
    sizes,
    profile: NetworkProfile,
    energy: EnergyModel = EnergyModel(),
    mode: str = "expected",
    seed=None,
    start_times=None,
) -> list[UplinkResult]:
    """Completion time, radio energy and retries of one uplink per device
    (device_id = index); the only transfer model, so one transfer is
    ``transmit_group([size], ...)[0]``.

    Expected mode folds loss into the serialization term; stochastic mode
    additionally charges one round trip per retransmission, and device d
    draws from the stream [*seed, d], so it is reproducible for a given
    seed, which it needs: an integer >= 0 or a list or tuple of them
    (expected mode ignores the seed). ``start_times`` gives when each
    device's payload becomes ready. On a dedicated medium uplinks run in
    parallel; on a shared medium the channel grants airtime in device-id
    order and each transfer waits for the channel to free up.
    """
    if mode not in ("expected", "stochastic"):
        raise ConfigError(f"transmit mode must be 'expected' or 'stochastic', got {mode!r}")
    stream = _seed_stream(seed) if mode == "stochastic" else []
    sizes = [int(s) for s in sizes]
    if min(sizes, default=0) < 0:
        raise ConfigError(f"transfer sizes must be >= 0, got {min(sizes)}")
    starts = [0.0] * len(sizes) if start_times is None else [float(t) for t in start_times]
    if len(starts) != len(sizes):
        raise ConfigError(f"{len(starts)} start times for {len(sizes)} transfers")
    results = []
    channel_free = 0.0
    for dev, (size, start) in enumerate(zip(sizes, starts)):
        airtime, retries = _airtime_and_retries(size, profile, mode, stream + [dev])
        duration = airtime + retries * 2.0 * profile.base_latency_s
        if profile.medium == "shared":
            channel_free = max(channel_free, start) + duration
            completion = channel_free + profile.base_latency_s
        else:
            completion = start + duration + profile.base_latency_s
        energy_j = energy.tx_power_w * airtime + energy.per_byte_j * size
        results.append(UplinkResult(completion, energy_j, retries))
    return results


def _seed_stream(seed) -> list[int]:
    """The stochastic mode's seed, an int >= 0 or a list or tuple of
    them, as a list; anything else, None included, is a ConfigError."""
    parts = list(seed) if isinstance(seed, (list, tuple)) else [seed]
    stream = [int_field("seed", part) for part in parts]
    if min(stream, default=0) < 0:
        raise ConfigError(f"seed must be integers >= 0, got {seed!r}")
    return stream
