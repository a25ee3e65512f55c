"""Distributed execution engine.

Every pipeline mode runs the same per-sample loop: each online edge
device works on its receiver slice and uploads a payload, the emulated
link times the uploads, and the central node works on what arrived. The
modes differ only in those steps, in the decode budget T_d and in
whether a timeout closes collection:

=========== =================== ========= =========================== =======
mode        edge work           payload   central work                timeout
=========== =================== ========= =========================== =======
EPIC        encode slice        latent    fuse, decode with attention T - T_d
SLA         encode slice        latent    mean latent, plain decode   none
CENTRALIZED none                raw slice whole model                 none
FLA         single-device model map span  stitch the spans            none
=========== =================== ========= =========================== =======

T is the end-to-end deadline and T_d the central work's own modeled
latency (full-mask fuse + decode, plain decode, the whole model on the
first sample's length, and 0 for FLA). EPIC collects latents in a
hash-map buffer keyed by (sample_id, device_id), in any arrival order,
and decodes once all devices reported or T - T_d passed. The loop closes
each sample in the buffer before it dispatches the next, so samples close
in id order: a late frame, an online device's output that was not
present at the close, is counted in the sample's row and discarded,
never applied retroactively. The other modes wait for every online
device and only record whether T held. An offline device is
missing from the latent set (EPIC, SLA), zero-filled (CENTRALIZED) or
the velocity floor over its map span (FLA). A sample with nothing to
decode (EPIC, SLA) becomes a failed row and the run continues.

Edge outputs are pure functions of (weights, slice): a slice's latent
serves EPIC, SLA and CENTRALIZED (whose central step fuses and decodes
per-device latents, using the latent of a zero slice for an offline
device, which equals `forward_full` on the zero-filled wave), and an FLA
map span serves every drop set. A zero slice's latent is the same for
every sample and call, so it is encoded once per (device, slice shape)
and kept on the weights object, like the socket twin's T_d.
`run_many`, which runs every sweep and bench, checks all their runs
before the first, then hands every run the same `_Shared` sample list;
it is the only maker of one. Its `done` dict keeps what those runs
share, each computed once: latents, FLA map spans, central results keyed
by (kind, weights, sample, present latents), and each ground truth's
SSIM reference. A full-mask EPIC sample and its CENTRALIZED k = 0 twin
fuse the same latents, so they decode once, as do the rows of every
profile in a bench; each row gets its own copy of the map. The dict dies
with the call. A single run repeats no work, so it keeps none of it.

The loop runs on either of two clocks, through a link that brings the
edge outputs to the central step. The virtual link derives every
timestamp from the network emulator plus a declared parametric compute
model: the flop counts that model.py derives from each layer's weight
shape, over configured device rates. That makes full runs
bit-reproducible. The wall link (see transport.py) runs EPIC's edges as
threads that send frames over TCP, on wall time. On both, `_check_run`
checks every run argument, sample widths included, before any work (on
the wall clock, it profiles T_d once per weights object, before any
connection, so `check_runs` checks a socket run's T_d too); the
central step, late-frame counting and the report rows are the same code.
"""

from __future__ import annotations

import operator
import statistics
import threading
import time
from collections.abc import Iterable
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigError, PartitionError, ShapeError, int_field, real_field
from .metrics import SsimReference, ssim, ssim_reference
from .model import (
    LatentSet,
    LatentVector,
    ModelWeights,
    VelocityMap,
    decode,
    decode_without_attention,
    decoder_flops,
    encode,
    encoder_flops,
    forward_full,
    fuse,
    plain_decoder_flops,
    validate_partition,
)
from .netem import EnergyModel, NetworkProfile, transmit_group
from .numerics import as_f32


class PipelineMode(Enum):
    CENTRALIZED = "centralized"
    FLA = "fla"
    SLA = "sla"
    EPIC = "epic"


# ---------------------------------------------------------------------------
# compute model


@dataclass(frozen=True)
class ComputeModel:
    """Declared device throughputs that turn flop counts into simulated
    seconds. These are configuration, not measurements."""

    edge_flops_per_s: float = 2e9
    central_flops_per_s: float = 1e10

    def __post_init__(self):
        for name in ("edge_flops_per_s", "central_flops_per_s"):
            real_field(name, getattr(self, name), above=0)


# ---------------------------------------------------------------------------
# infrastructure configuration


def partition_receivers(n_receivers: int = 70, n_devices: int = 5) -> tuple[tuple[int, int], ...]:
    """Contiguous near-equal receiver slices; the first n mod d are wider."""
    if not 1 <= n_devices <= n_receivers:
        raise ConfigError(
            f"n_devices must be in [1, {n_receivers}], got {n_devices}"
        )
    base, extra = divmod(n_receivers, n_devices)
    starts = [i * base + min(i, extra) for i in range(n_devices + 1)]
    return tuple(zip(starts, starts[1:]))


@dataclass(frozen=True)
class InfraConfig:
    """Everything the runtime needs to place and time a run."""

    n_devices: int = 5
    partition: tuple[tuple[int, int], ...] = ()
    network: NetworkProfile = NetworkProfile()
    deadline_s: float = 0.5
    transport: str = "simulated"
    compute: ComputeModel = ComputeModel()
    energy: EnergyModel = EnergyModel()
    netem_mode: str = "expected"
    seed: int = 0
    # socket transport only; port 0 binds an ephemeral port
    socket_host: str = "127.0.0.1"
    socket_port: int = 0

    def __post_init__(self):
        for name in ("n_devices", "seed", "socket_port"):
            object.__setattr__(self, name, int_field(name, getattr(self, name)))
        real_field("deadline_s", self.deadline_s, above=0)
        if self.transport not in ("simulated", "socket"):
            raise ConfigError(f"transport must be 'simulated' or 'socket', got {self.transport!r}")
        if self.netem_mode not in ("expected", "stochastic"):
            raise ConfigError(f"netem_mode must be 'expected' or 'stochastic', got {self.netem_mode!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not 0 <= self.socket_port <= 65535:
            raise ConfigError(f"socket_port must be in [0, 65535], got {self.socket_port}")
        if not self.partition:
            object.__setattr__(self, "partition", partition_receivers(70, self.n_devices))
        try:
            slices = validate_partition(self.partition, self.partition[-1][1], self.n_devices)
        except PartitionError as exc:
            raise ConfigError(str(exc)) from exc
        object.__setattr__(self, "partition", slices)


# ---------------------------------------------------------------------------
# hash-map buffer


class InsertOutcome(Enum):
    INSERTED = "inserted"
    DUPLICATE = "duplicate"
    STALE = "stale"


class HashBuffer:
    """Collector keyed by (sample_id, device_id); samples close in id order.

    Inserts may arrive in any order and are idempotent per key. Closing a
    sample (finalize or collect_blocking) evicts it and moves a watermark
    past it, closing every lower id too: an insert for an id below the
    watermark is stale and dropped, so memory stays bounded by the samples
    in flight. An entry maps each device that reported to its (latent,
    arrival time). Safe for concurrent producers with a single consumer.
    """

    def __init__(self):
        self._cond = threading.Condition()
        self._entries: dict[int, dict[int, tuple[LatentVector, float]]] = {}
        self._next = 0  # every sample id below is closed
        self._interrupted = False

    def closed(self, sample_id: int) -> bool:
        """Whether the sample is closed, so any insert for it is stale."""
        with self._cond:
            return sample_id < self._next

    def insert(self, sample_id: int, device_id: int, latent: LatentVector, t: float) -> InsertOutcome:
        with self._cond:
            if sample_id < self._next:
                return InsertOutcome.STALE
            entry = self._entries.setdefault(sample_id, {})
            if device_id in entry:
                return InsertOutcome.DUPLICATE
            entry[device_id] = (latent, t)
            self._cond.notify_all()
            return InsertOutcome.INSERTED

    def _close(self, sample_id: int, n_devices: int):
        """Close every id up to sample_id and evict their entries; returns
        sample_id's latents by device, their arrival times and whether a
        device is missing (released). The caller holds the lock."""
        entry = self._entries.get(sample_id, {})
        self._next = max(self._next, sample_id + 1)
        self._entries = {s: e for s, e in self._entries.items() if s >= self._next}
        latents = {d: latent for d, (latent, _) in entry.items()}
        return latents, [t for _, t in entry.values()], len(entry) != n_devices

    def finalize(self, sample_id: int, n_devices: int, deadline: float):
        """Close collection under the virtual clock.

        Returns (latents by device, collect_time, released). collect_time
        is the last arrival when every device reported, or the deadline
        when the timeout release fired.
        """
        with self._cond:
            latents, arrivals, released = self._close(sample_id, n_devices)
            return latents, deadline if released else max(arrivals), released

    def collect_blocking(self, sample_id: int, n_devices: int, deadline_wall: float):
        """Wall-clock collection: wait until complete, the deadline or an
        interrupt, then close the sample. Returns (latents by device, released)."""
        with self._cond:
            entry = self._entries.setdefault(sample_id, {})
            self._cond.wait_for(lambda: self._interrupted or len(entry) == n_devices,
                                timeout=max(0.0, deadline_wall - time.monotonic()))
            latents, _, released = self._close(sample_id, n_devices)
            return latents, released

    def interrupt(self) -> None:
        """Release every current and later collect_blocking call at once."""
        with self._cond:
            self._interrupted = True
            self._cond.notify_all()


# ---------------------------------------------------------------------------
# run reports


@dataclass(frozen=True)
class SampleResult:
    sample_id: int
    status: str  # "ok" or "failed"
    mask: tuple[bool, ...]
    l_edge_s: float
    l_comm_s: float
    l_central_s: float
    l_total_s: float
    energy_j: float
    comm_bytes: int
    deadline_fired: bool
    deadline_met: bool
    late_frames: int
    ssim: float | None = None

    @property
    def comm_fraction_pct(self) -> float:
        return 100.0 * self.l_comm_s / self.l_total_s if self.l_total_s > 0 else 0.0


@dataclass
class RunReport:
    """Per-sample latency breakdown and totals for one pipeline run.

    l_edge is the slowest encode among the devices whose latents made the
    decode; l_comm is the remaining time until collection closed, so
    l_total = l_edge + l_comm + l_central always holds.
    """

    mode: PipelineMode
    n_devices: int
    profile_label: str
    deadline_s: float
    decode_budget_s: float
    rows: list[SampleResult] = field(default_factory=list)

    @property
    def ok_rows(self) -> list[SampleResult]:
        return [r for r in self.rows if r.status == "ok"]

    @property
    def total_energy_j(self) -> float:
        return sum(r.energy_j for r in self.rows)

    @property
    def total_comm_bytes(self) -> int:
        return sum(r.comm_bytes for r in self.rows)

    def mean(self, attr: str) -> float:
        rows = self.ok_rows
        return sum(getattr(r, attr) for r in rows) / len(rows) if rows else 0.0

    def mean_ssim(self) -> float | None:
        vals = [r.ssim for r in self.ok_rows if r.ssim is not None]
        return sum(vals) / len(vals) if vals else None


# ---------------------------------------------------------------------------
# helpers


def _as_wave(sample) -> np.ndarray:
    return as_f32(getattr(sample, "data", sample))


# profile_decoder's trials and the seed of its dummy latents
_PROFILE_TRIALS = 3
_PROFILE_SEED = 1234


def profile_decoder(weights: ModelWeights) -> float:
    """One-time wall-clock profiling of the central decoder.

    Returns the median duration of fuse+decode over _PROFILE_TRIALS sets
    of seeded dummy latents; socket mode uses this as T_d.
    """
    cfg = weights.config
    durations = []
    for trial in range(_PROFILE_TRIALS):
        rng = np.random.Generator(np.random.Philox(key=(_PROFILE_SEED << 64) | trial))
        latents = {}
        for d in range(cfg.n_devices):
            vals = rng.uniform(-1, 1, size=cfg.latent_dim).astype(np.float32)
            latents[d] = LatentVector(values=vals, device_id=d)
        t0 = time.perf_counter()
        _fuse_decode(weights, latents)
        durations.append(time.perf_counter() - t0)
    return statistics.median(durations)


def _decode_budget(weights: ModelWeights) -> float:
    """The socket twin's T_d: profile_decoder's measurement, kept on the
    weights object it was measured for, so it lives and dies with that
    object and a stream of runs with the same weights profiles once."""
    if "_decode_budget" not in vars(weights):
        vars(weights)["_decode_budget"] = profile_decoder(weights)
    return vars(weights)["_decode_budget"]


def _sample_row(report: RunReport, sample_id: int, result, got: _Collected, late: int,
                score: float | None) -> SampleResult:
    """One report row, in either clock domain.

    result is (map, central seconds), or None when nothing could be
    decoded, which makes the row failed; score is the map's SSIM against
    the ground truth, if there is one.
    """
    vmap, central_s = (None, 0.0) if result is None else result
    l_edge = max(got.edge_s.values(), default=0.0)
    l_total = got.collect_s + central_s
    return SampleResult(
        sample_id=sample_id,
        status="failed" if vmap is None else "ok",
        mask=tuple(d in got.edge_s for d in range(report.n_devices)),
        l_edge_s=l_edge,
        l_comm_s=got.collect_s - l_edge,
        l_central_s=central_s,
        l_total_s=l_total,
        energy_j=got.energy_j,
        comm_bytes=got.comm_bytes,
        deadline_fired=got.released or vmap is None,
        deadline_met=vmap is None or l_total <= report.deadline_s,
        late_frames=late,
        ssim=score,
    )


# ---------------------------------------------------------------------------
# results shared by the runs of one sweep or bench


class _Shared(list):
    """The samples of one sweep or bench, and in `done` the results its
    runs share, each computed once.

    A key holds the id() only of an object that the sweep keeps alive
    (its weights and ground truth) or that an entry of `done` holds (the
    latents of a central result), so that no id can be reused while
    `done` lives; never the id() of an input array, which as_f32 may just
    have allocated.
    """

    def __init__(self, samples):
        super().__init__(samples)
        self.done: dict[tuple, object] = {}


def _once(samples, key, compute):
    """compute(), once per key over a sweep's or bench's samples; runs
    over any other samples repeat nothing, so they keep nothing."""
    if not isinstance(samples, _Shared):
        return compute()
    if key not in samples.done:
        samples.done[key] = compute()
    return samples.done[key]


def _latent(samples, weights: ModelWeights, d: int, idx: int, span, wave_slice) -> LatentVector:
    """Device d's latent of sample idx's slice span."""
    return _once(samples, ("latent", id(weights), d, idx, span), lambda: encode(
        wave_slice, weights.encoders[d], device_id=d, sample_id=idx))


def _central(samples, kind: str, weights: ModelWeights, idx: int, latents: dict,
             compute: Callable[[], VelocityMap]) -> VelocityMap:
    """compute(), the `kind` of central work on sample idx's latents by
    device; each call gets its own copy of the map."""
    key = (kind, id(weights), idx, tuple((d, id(latents[d])) for d in sorted(latents)))
    _, values = _once(samples, key, lambda: (tuple(latents.values()), compute().values))
    return VelocityMap(values=values.copy())


def _reference(truth, dynamic_range: float) -> SsimReference:
    """The SSIM reference of a ground-truth map, or of its `grid` or `values`."""
    gt = getattr(truth, "grid", getattr(truth, "values", truth))
    return ssim_reference(gt, dynamic_range=dynamic_range)


def _zero_latent(weights: ModelWeights, d: int, shape) -> LatentVector:
    """Device d's latent of an all-zero slice of `shape`, the same for
    every sample and every call: encoded once, and kept on the weights
    object, keyed by (device, shape), so it lives and dies with it."""
    kept = vars(weights).setdefault("_zero_latents", {})
    if (d, shape) not in kept:
        kept[d, shape] = encode(np.zeros(shape, dtype=np.float32), weights.encoders[d],
                                device_id=d)
    return kept[d, shape]


# ---------------------------------------------------------------------------
# the per-sample loop and one plan per mode


@dataclass(frozen=True)
class _Plan:
    """One mode's steps in the per-sample loop (see the module table).

    edge(wave, sample_id, device, (a, b)) -> (output, payload bytes, edge s)
    central(outputs by present device, wave, sample_id)
    -> (map, central s), or None when nothing can be decoded.
    Only the virtual link runs edge; the wall link's edges are threads.
    """

    edge: Callable | None
    central: Callable
    t_d: float
    timeout: bool = False


class _Collected(NamedTuple):
    """What a link's collect step hands the central step, in its clock."""

    outputs: dict  # output by device that reached the central step
    edge_s: dict  # edge seconds of those devices
    collect_s: float  # from dispatch until collection closed
    released: bool  # the timeout closed collection
    energy_j: float
    comm_bytes: int  # payload bytes of every online device, late ones too


class _Link(NamedTuple):
    """How edge outputs reach the central step, on one clock:
    collect(sample_id, wave, online device ids) -> _Collected."""

    collect: Callable
    label: str


def _virtual_link(plan: _Plan, infra: InfraConfig) -> _Link:
    """The simulated clock: edge seconds from the plan, arrivals from the
    emulated link, collection closed by the buffer at T - T_d."""
    n = infra.n_devices
    deadline = infra.deadline_s - plan.t_d
    buffer = HashBuffer()

    def collect(idx, wave, online):
        outputs, sizes, edge_t = {}, [], {}
        for d in online:
            outputs[d], size, edge_t[d] = plan.edge(wave, idx, d, infra.partition[d])
            sizes.append(size)

        uplinks = transmit_group(
            sizes, infra.network, infra.energy, mode=infra.netem_mode,
            seed=[infra.seed, idx], start_times=list(edge_t.values()),
        )
        arrivals = sorted(zip((u.completion_s for u in uplinks), outputs))
        if plan.timeout:
            # a frame after T - T_d misses the release: it is late
            for t, d in arrivals:
                if t <= deadline:
                    buffer.insert(idx, d, outputs[d], t)
            present, collect_s, released = buffer.finalize(idx, n, deadline)
        else:
            present, released = outputs, False
            collect_s = max((t for t, _ in arrivals), default=0.0)
        return _Collected(present, {d: edge_t[d] for d in present}, collect_s, released,
                          sum((u.energy_j for u in uplinks), 0.0), sum(sizes))

    return _Link(collect, infra.network.label())


def _run_plan(mode: PipelineMode, plan: _Plan, samples, weights: ModelWeights,
              infra: InfraConfig, drops, ground_truth, link: _Link | None = None):
    """The per-sample loop of every mode and both clocks, over the drop
    sets that _check_run returned; link defaults to the virtual one.

    A late frame is an online device's output that was not present when
    its sample's collection closed; it is counted here, the same way on
    both clocks, and never decoded.
    """
    n = infra.n_devices
    link = link or _virtual_link(plan, infra)
    v_min, v_max = weights.config.velocity_range
    maps: list[VelocityMap | None] = []
    report = RunReport(mode=mode, n_devices=n, profile_label=link.label,
                       deadline_s=infra.deadline_s, decode_budget_s=plan.t_d)

    for idx, sample in enumerate(samples):
        wave = _as_wave(sample)
        online = [d for d in range(n) if d not in drops[idx]]
        got = link.collect(idx, wave, online)
        result = plan.central(got.outputs, wave, idx)
        late = len(online) - len(got.outputs)
        score = None
        if result is not None and ground_truth is not None:
            score = ssim(result[0].values, _once(
                samples, ("truth", id(ground_truth), idx, v_max - v_min),
                lambda: _reference(ground_truth[idx], v_max - v_min)))
        maps.append(None if result is None else result[0])
        report.rows.append(_sample_row(report, idx, result, got, late, score))
    return maps, report


def _encode_step(weights: ModelWeights, infra: InfraConfig, delays: dict[int, float], samples):
    cfg = weights.config

    def edge(wave, idx, d, span):
        a, b = span
        latent = _latent(samples, weights, d, idx, span, wave[:, :, a:b])
        seconds = encoder_flops(cfg, wave.shape[1], b - a) / infra.compute.edge_flops_per_s
        return latent, cfg.latent_dim * 4, seconds + delays.get(d, 0.0)

    return edge


def _fuse_decode(weights: ModelWeights, latents: dict) -> VelocityMap:
    """Fuse and decode the latents by device, as forward_full does."""
    cfg = weights.config
    lset = LatentSet.from_latents(latents.values(), cfg.n_devices)
    return decode(fuse(lset, weights.fusion, cfg.n_heads), lset, weights)


def _epic_plan(weights: ModelWeights, infra: InfraConfig, delays, samples) -> _Plan:
    cfg = weights.config

    def central(latents, wave, idx):
        if not latents:
            return None
        vmap = _central(samples, "fuse+decode", weights, idx, latents,
                        lambda: _fuse_decode(weights, latents))
        return vmap, decoder_flops(cfg, len(latents)) / infra.compute.central_flops_per_s

    return _Plan(_encode_step(weights, infra, delays, samples), central,
                 _epic_budget(weights, infra), timeout=True)


def _epic_budget(weights: ModelWeights, infra: InfraConfig) -> float:
    """EPIC's declared T_d: a full-mask fuse + decode on the central node."""
    cfg = weights.config
    return decoder_flops(cfg, cfg.n_devices) / infra.compute.central_flops_per_s


def _sla_plan(weights: ModelWeights, infra: InfraConfig, samples) -> _Plan:
    t_d = plain_decoder_flops(weights.config) / infra.compute.central_flops_per_s

    def plain_decode(latents):
        merged = (
            np.stack([lat.values for lat in latents.values()])
            .astype(np.float64)
            .mean(axis=0)
            .astype(np.float32)
        )
        return decode_without_attention(merged, weights)

    def central(latents, wave, idx):
        if not latents:
            return None
        return _central(samples, "plain", weights, idx, latents, lambda: plain_decode(latents)), t_d

    return _Plan(_encode_step(weights, infra, {}, samples), central, t_d)


def _centralized_plan(weights: ModelWeights, infra: InfraConfig, samples) -> _Plan:
    cfg = weights.config

    def model_s(n_t):
        flops = sum(encoder_flops(cfg, n_t, b - a) for a, b in infra.partition)
        return (flops + decoder_flops(cfg, infra.n_devices)) / infra.compute.central_flops_per_s

    def edge(wave, idx, d, span):
        raw = wave[:, :, span[0] : span[1]]
        return raw, raw.size * 4, 0.0

    def central(raws, wave, idx):
        # the whole model on the wave with offline slices zero-filled, as
        # forward_full computes it: one latent per slice, fused and decoded
        latents = {
            d: _latent(samples, weights, d, idx, (a, b), raws[d]) if d in raws
            else _zero_latent(weights, d, (*wave.shape[:2], b - a))
            for d, (a, b) in enumerate(infra.partition)
        }
        vmap = _central(samples, "fuse+decode", weights, idx, latents,
                        lambda: _fuse_decode(weights, latents))
        return vmap, model_s(wave.shape[1])

    t_d = model_s(_as_wave(samples[0]).shape[1]) if len(samples) else 0.0
    return _Plan(edge, central, t_d)


def _fla_plan(weights: ModelWeights, infra: InfraConfig, samples) -> _Plan:
    cfg = weights.config
    ho, wo = cfg.output_dims

    def edge(wave, idx, d, span):
        a, b = span
        lo, hi = _span_columns(wo, wave.shape[2], a, b)
        # a copy, so the rest of the map is not kept
        cols = _once(samples, ("map", id(weights), idx, span), lambda: forward_full(
            wave[:, :, a:b], weights, ((0, b - a),)).values[:, lo:hi].copy())
        flops = encoder_flops(cfg, wave.shape[1], b - a) + decoder_flops(cfg, 1)
        return cols, cols.size * 4, flops / infra.compute.edge_flops_per_s

    def central(spans, wave, idx):
        stitched = np.full((ho, wo), cfg.velocity_range[0], dtype=np.float32)
        for d, cols in spans.items():
            lo, hi = _span_columns(wo, wave.shape[2], *infra.partition[d])
            stitched[:, lo:hi] = cols
        return VelocityMap(values=stitched), 0.0

    return _Plan(edge, central, 0.0)


def _span_columns(out_w: int, n_rcv: int, a: int, b: int) -> tuple[int, int]:
    """Map a receiver slice [a, b) onto output-map columns."""
    return a * out_w // n_rcv, b * out_w // n_rcv


def _check_run(mode: PipelineMode, weights: ModelWeights, infra: InfraConfig, samples=(),
               drop_devices=None, ground_truth=None, extra_delay_s=None):
    """The one check of a run's arguments, before any work: raise a
    SplitFwiError unless the run can go through every sample; return each
    sample's drop set and each device's extra delay. An EPIC run's T_d
    is its declared one on the simulated clock and its measured one
    (_decode_budget) on a socket."""
    # only EPIC has a wall-clock twin; another mode would run simulated under a socket config
    if infra.transport == "socket" and mode != PipelineMode.EPIC:
        raise ConfigError(f"transport 'socket' runs EPIC only, not {mode.value}")
    if mode == PipelineMode.FLA:
        if weights.config.n_devices != 1:
            raise ConfigError("FLA needs single-device weights (a full model per edge)")
    elif weights.config.n_devices != infra.n_devices:
        raise ConfigError(f"weights built for {weights.config.n_devices} devices, "
                          f"infra has {infra.n_devices}")
    if mode == PipelineMode.EPIC:
        t_d = (_decode_budget(weights) if infra.transport == "socket"
               else _epic_budget(weights, infra))
        # a timeout at T - T_d must leave time to collect
        if t_d >= infra.deadline_s:
            raise ConfigError(f"decode budget T_d={t_d:.6g}s must be below the deadline "
                              f"T={infra.deadline_s:.6g}s")
    n, n_samples = infra.n_devices, len(samples)
    try:
        items = [] if drop_devices is None else list(drop_devices)
        if items and isinstance(items[0], (list, tuple, set, frozenset)):
            drops = [frozenset(operator.index(d) for d in s) for s in items]
        else:
            drops = [frozenset(operator.index(d) for d in items)] * n_samples
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"drop_devices must be device ids or one set of them per sample, "
                          f"got {drop_devices!r}") from exc
    if len(drops) != n_samples:
        raise ConfigError(f"{len(drops)} drop sets for {n_samples} samples")
    outside = sorted({d for s in drops for d in s if not 0 <= d < n})
    if outside:
        raise ConfigError(f"drop device ids {outside} outside [0, {n})")
    try:
        delays = {operator.index(d): v for d, v in dict(extra_delay_s or {}).items()}
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"extra_delay_s must map device ids to seconds, "
                          f"got {extra_delay_s!r}") from exc
    for d, v in delays.items():
        if not 0 <= d < n:
            raise ConfigError(f"extra delay for device {d} outside [0, {n})")
        delays[d] = real_field(f"extra delay of device {d}", v, at_least=0)
    if ground_truth is not None and len(ground_truth) != n_samples:
        raise ConfigError(f"{len(ground_truth)} ground truth maps for {n_samples} samples")
    for idx, sample in enumerate(samples):
        shape = np.shape(getattr(sample, "data", sample))  # read without converting it
        if len(shape) != 3:
            raise ShapeError(f"sample {idx} must be [n_src, n_t, n_rcv], got shape {shape}")
        if shape[2] != infra.partition[-1][1]:
            raise PartitionError(f"sample {idx} has {shape[2]} receivers, but the partition "
                                 f"covers [0,{infra.partition[-1][1]})")
    return drops, delays


def run_epic(
    samples,
    weights: ModelWeights,
    infra: InfraConfig,
    extra_delay_s=None,
    drop_devices=None,
    ground_truth=None,
) -> tuple[list[VelocityMap | None], RunReport]:
    """Run the split pipeline over samples; see the module docstring.

    extra_delay_s maps device_id to an added edge-side delay (fault
    injection); drop_devices marks devices offline, either one set for all
    samples or one set per sample. Every argument, sample widths
    included, is checked before any work (by run_epic_socket on a socket
    infra). A sample with no latents by the deadline is marked failed
    and the run continues.
    """
    if infra.transport == "socket":
        from .transport import run_epic_socket

        return run_epic_socket(samples, weights, infra, extra_delay_s, drop_devices, ground_truth)
    drops, delays = _check_run(PipelineMode.EPIC, weights, infra, samples, drop_devices,
                               ground_truth, extra_delay_s)
    plan = _epic_plan(weights, infra, delays, samples)
    return _run_plan(PipelineMode.EPIC, plan, samples, weights, infra, drops, ground_truth)


def run_baseline(
    mode: PipelineMode,
    samples,
    weights: ModelWeights,
    infra: InfraConfig,
    drop_devices=None,
    ground_truth=None,
) -> tuple[list[VelocityMap | None], RunReport]:
    """Run any mode with the RunReport schema; see the module table.

    EPIC goes through run_epic; the other modes run on the simulated
    clock only, so a socket infra raises ConfigError for them. CENTRALIZED
    and SLA take the split pipeline's weights; FLA needs single-device
    weights (one complete model per edge).
    """
    if mode == PipelineMode.EPIC:
        return run_epic(samples, weights, infra, drop_devices=drop_devices,
                        ground_truth=ground_truth)
    drops, _ = _check_run(mode, weights, infra, samples, drop_devices, ground_truth)
    plan = {PipelineMode.SLA: _sla_plan, PipelineMode.CENTRALIZED: _centralized_plan,
            PipelineMode.FLA: _fla_plan}[mode](weights, infra, samples)
    return _run_plan(mode, plan, samples, weights, infra, drops, ground_truth)


def check_runs(runs, samples=(), ground_truth=None) -> list:
    """Check every (mode, weights, infra, drop_devices) run over samples
    and their ground truth; return them with each iterable drop_devices
    read into a list once, so a generator is not used up by the check."""
    runs = [(mode, weights, infra, list(drops) if isinstance(drops, Iterable) else drops)
            for mode, weights, infra, drops in runs]
    for mode, weights, infra, drops in runs:
        _check_run(mode, weights, infra, samples, drops, ground_truth)
    return runs


def run_many(samples, runs, ground_truth=None) -> list[RunReport]:
    """The reports of runs, each (mode, weights, infra, drop_devices), over
    the same samples, in order. Every argument of every run, sample widths
    included, is checked before the first starts; they share one _Shared
    sample list (see the module docstring).
    """
    samples = _Shared(samples)
    runs = check_runs(runs, samples, ground_truth)
    return [run_baseline(mode, samples, weights, infra, drop_devices=drops,
                         ground_truth=ground_truth)[1]
            for mode, weights, infra, drops in runs]


# ---------------------------------------------------------------------------
# robustness harness


def random_drop_sets(seed: int, n_devices: int, k: int, n_samples: int) -> list[frozenset[int]]:
    """k seeded-random offline devices per sample, from the stream
    [seed, 7001, k, sample_id]; seed and k must be ints, Python's or numpy's."""
    seed, k = int_field("drop seed", seed), int_field("drop count", k)
    if seed < 0:
        raise ConfigError(f"drop seed must be >= 0, got {seed}")
    if not 0 <= k <= n_devices:
        raise ConfigError(f"drop count {k} outside [0, {n_devices}]")
    return [
        frozenset(np.random.default_rng([seed, 7001, k, idx]).choice(
            n_devices, size=k, replace=False).tolist())
        for idx in range(n_samples)
    ]


def run_robustness_sweep(
    samples,
    weights: ModelWeights,
    infra: InfraConfig,
    drop_counts,
    modes=(PipelineMode.EPIC,),
    ground_truth=None,
    fla_weights: ModelWeights | None = None,
) -> dict[tuple[str, int], RunReport]:
    """For each k, drop k seeded-random devices per sample and run every
    mode; reports are keyed (mode value, k), k-major.

    k may reach n_devices; those samples surface as failed rows rather
    than crashing. Every k's drop sets are drawn before run_many checks
    every run, and the runs share their edge outputs (see run_many).
    """
    if PipelineMode.FLA in modes and fla_weights is None:
        raise ConfigError("robustness sweep over FLA needs fla_weights")
    samples = list(samples)
    runs = {}
    for k in drop_counts:
        drop_sets = random_drop_sets(infra.seed, infra.n_devices, k, len(samples))
        for mode in modes:
            w = fla_weights if mode == PipelineMode.FLA else weights
            runs[mode.value, operator.index(k)] = (mode, w, infra, drop_sets)
    return dict(zip(runs, run_many(samples, runs.values(), ground_truth)))
