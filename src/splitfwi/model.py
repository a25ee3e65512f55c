"""Forward pass of the split inversion network.

The network maps a seismic shot gather [n_src, n_t, n_rcv] to a velocity
map [70, 70]. It is built to run split across devices:

* per-device convolutional encoders compress one receiver slice each into
  a 512-vector, so only compact latents cross the network;
* a self-attention fusion stage pools whatever latents arrived into one
  global latent;
* a convolutional decoder grows the global latent back to the output
  resolution, and after every block queries the individual latents through
  position-aware cross-attention, concatenating decoder features with
  interpolated position embeddings to form the per-pixel queries.

Because fusion and cross-attention operate only on the latents that are
actually present, decoding degrades gracefully when devices drop out: the
attention weights renormalize over the survivors.

There is no training here; weights are sampled once (seeded) or loaded
from a weight file, and every operation is a pure function of its inputs.
Building a ModelWeights also prepares one position grid per decoder
block, the embeddings resized to that block's resolution, so decoding
does not resize them again; the grids are derived state, not fields, and
a weight file does not store them.

The weight layout (each tensor's name, shape, fan-in and order) is
written once, in `_build`. Seeding, the weight-file reader and writer,
and the declared cost of each layer, which the runtime's simulated clock
charges, all read it off that one builder. The forward pass and the
cost share the rest of the geometry: one walk of the encoder blocks
(`_encoder_layers`) and one attention block (`_attention`).
"""

from __future__ import annotations

import io
import itertools
import json
import math
import struct
import zlib
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    CorruptFileError,
    EmptySupportError,
    InputValidationError,
    PartitionError,
    ShapeError,
    SplitFwiError,
    int_field,
    real_field,
    tuple_field,
)
from .numerics import (
    as_f32,
    bilinear_resize,
    conv2d,
    global_avg_pool,
    leaky_relu,
    linear,
    nearest_resize,
    softmax,
)
from .tensorio import Crc32Writer, record_array, tensor_from_bytes, write_tensor

WEIGHTS_MAGIC = b"EPICWGT1"
# position-grid channels resized at once: at full size a block of 8 holds
# 0.14 MB of float64 temporaries, and one channel at a time took about
# three times as long to resize
_GRID_CHANNELS = 8


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyper-parameters; everything the weights depend on."""

    n_devices: int = 5
    latent_dim: int = 512
    d_k: int = 64
    d_pos: int = 64
    n_heads: int = 1
    encoder_channels: tuple[int, ...] = (5, 32, 64, 128, 256, 512)
    decoder_channels: tuple[int, ...] = (128, 96, 64, 48, 32)
    decoder_resolutions: tuple[tuple[int, int], ...] = (
        (5, 5),
        (9, 9),
        (18, 18),
        (35, 35),
        (70, 70),
    )
    output_dims: tuple[int, int] = (70, 70)
    velocity_range: tuple[float, float] = (1500.0, 4500.0)

    def __post_init__(self):
        def ints(name, values, count, exact=True):
            return tuple(int_field(name, v, ShapeError)
                         for v in tuple_field(name, values, count, ShapeError, exact=exact))

        for name in ("n_devices", "latent_dim", "d_k", "d_pos", "n_heads"):
            object.__setattr__(self, name, int_field(name, getattr(self, name), ShapeError))
        object.__setattr__(self, "encoder_channels",
                           ints("encoder_channels", self.encoder_channels, 2, exact=False))
        object.__setattr__(self, "decoder_channels",
                           ints("decoder_channels", self.decoder_channels, 1, exact=False))
        object.__setattr__(self, "output_dims", ints("output_dims", self.output_dims, 2))
        object.__setattr__(self, "decoder_resolutions", tuple(
            ints("decoder_resolutions", r, 2)
            for r in tuple_field("decoder_resolutions", self.decoder_resolutions, 1, ShapeError,
                                 exact=False)))
        object.__setattr__(self, "velocity_range", tuple(
            real_field("velocity range", v, ShapeError)
            for v in tuple_field("velocity_range", self.velocity_range, 2, ShapeError)))
        if self.n_devices < 1:
            raise ShapeError(f"n_devices must be >= 1, got {self.n_devices}")
        if self.d_k < 1 or self.d_pos < 1 or self.latent_dim < 1:
            raise ShapeError("latent_dim, d_k and d_pos must be positive")
        if self.n_heads < 1 or self.d_k % self.n_heads != 0:
            raise ShapeError(f"n_heads={self.n_heads} must divide d_k={self.d_k}")
        if self.encoder_channels[-1] != self.latent_dim:
            raise ShapeError(
                f"encoder must end at latent_dim={self.latent_dim}, "
                f"got channels {self.encoder_channels}"
            )
        if len(self.decoder_channels) != len(self.decoder_resolutions):
            raise ShapeError("decoder_channels and decoder_resolutions must align")
        res = self.decoder_resolutions
        for a, b in zip(res, res[1:]):
            if not (a[0] < b[0] and a[1] < b[1]):
                raise ShapeError(f"decoder resolutions must strictly increase, got {res}")
        if res[-1] != self.output_dims:
            raise ShapeError(
                f"last decoder resolution {res[-1]} must equal output dims {self.output_dims}"
            )
        lo, hi = self.velocity_range
        if not lo < hi:
            raise ShapeError(f"velocity range must have low < high, got {(lo, hi)}")

    @property
    def n_encoder_blocks(self) -> int:
        return len(self.encoder_channels) - 1

    @property
    def n_decoder_blocks(self) -> int:
        return len(self.decoder_resolutions) - 1

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


# ---------------------------------------------------------------------------
# weight containers


@dataclass
class ConvParams:
    kernel: np.ndarray  # [C_out, C_in, kh, kw]
    bias: np.ndarray  # [C_out]


@dataclass
class LinearParams:
    weight: np.ndarray  # [D_out, D_in]
    bias: np.ndarray  # [D_out]


@dataclass
class AttentionParams:
    query: LinearParams
    key: LinearParams
    value: LinearParams
    out: LinearParams


@dataclass
class DecoderBlockParams:
    conv: ConvParams
    attention: AttentionParams


@dataclass
class ModelWeights:
    config: ModelConfig
    encoders: list[list[ConvParams]]  # [n_devices][n_encoder_blocks]
    fusion: AttentionParams
    seed_proj: LinearParams  # latent -> C0 * h0 * w0
    blocks: list[DecoderBlockParams]
    position_embeddings: np.ndarray  # [d_pos, H_out, W_out]
    head: ConvParams  # 1x1 conv to a single channel

    def __post_init__(self):
        # Block j's position grid at its resolution, resized once here
        # instead of in every decode. An attribute, not a field: weight
        # files, repr and == ignore it, and dataclasses.replace rebuilds it.
        # Resizing _GRID_CHANNELS channels at a time into the float32 grid
        # keeps bilinear_resize's float64 temporaries off the whole grid.
        emb = as_f32(self.position_embeddings)
        grids = []
        for res in self.config.decoder_resolutions[1:]:
            grid = np.empty((len(emb), *res), np.float32)
            for k in range(0, len(emb), _GRID_CHANNELS):
                grid[k : k + _GRID_CHANNELS] = bilinear_resize(emb[k : k + _GRID_CHANNELS], res)
            grids.append(grid)
        self.position_grids = tuple(grids)

    def named_tensors(self):
        """Yield (name, array) in the canonical serialization order: the
        builder's names beside the arrays in dataclass field order, which
        is that order."""
        names: list[str] = []
        _build(self.config, lambda name, shape, fan_in: names.append(name))
        return zip(names, _arrays(self), strict=True)


def _arrays(node):
    """The arrays under a weight container, depth first in field order."""
    if isinstance(node, np.ndarray):
        yield node
    elif isinstance(node, list):
        for item in node:
            yield from _arrays(item)
    elif not isinstance(node, ModelConfig):
        for f in fields(node):
            yield from _arrays(getattr(node, f.name))


def _build(config: ModelConfig, tensor) -> dict:
    """The weight layout, written once: the fields of a ModelWeights
    after its config, each tensor being tensor(name, shape, fan_in).

    The calls come in serialization order, so a reader can stop at the
    first tensor that a file lacks, and the call index keys each seeded
    stream. Every user of the layout passes its own tensor: init draws,
    the reader checks the next record, the cost model keeps the shape.
    """
    dim, dk = config.latent_dim, config.d_k

    def conv(prefix, cout, cin, k):
        fan = cin * k * k
        return ConvParams(tensor(f"{prefix}.kernel", (cout, cin, k, k), fan),
                          tensor(f"{prefix}.bias", (cout,), fan))

    def lin(prefix, dout, din):
        return LinearParams(tensor(f"{prefix}.weight", (dout, din), din),
                            tensor(f"{prefix}.bias", (dout,), din))

    def attn(prefix, q_in, out):
        return AttentionParams(query=lin(f"{prefix}.query", dk, q_in),
                               key=lin(f"{prefix}.key", dk, dim),
                               value=lin(f"{prefix}.value", dk, dim),
                               out=lin(f"{prefix}.out", out, dk))

    ch, dch = config.encoder_channels, config.decoder_channels
    h0, w0 = config.decoder_resolutions[0]
    return dict(
        encoders=[[conv(f"encoder{d}.conv{b}", ch[b + 1], ch[b], 3)
                   for b in range(config.n_encoder_blocks)]
                  for d in range(config.n_devices)],
        fusion=attn("fusion", dim, dim),
        seed_proj=lin("decoder.seed", dch[0] * h0 * w0, dim),
        blocks=[DecoderBlockParams(conv=conv(f"decoder.block{j}.conv", dch[j + 1], dch[j], 3),
                                   attention=attn(f"decoder.block{j}.attn",
                                                  dch[j + 1] + config.d_pos, dch[j + 1]))
                for j in range(config.n_decoder_blocks)],
        position_embeddings=tensor("decoder.pos_embed", (config.d_pos, *config.output_dims),
                                   config.d_pos),
        head=conv("decoder.head", 1, dch[-1], 1),
    )


def init_weights(config: ModelConfig, seed: int) -> ModelWeights:
    """Sample weights uniformly in +-sqrt(1/fan_in).

    Each tensor draws from its own counter-based stream keyed on
    (seed, tensor index), so the result is a pure function of
    (config, seed) regardless of evaluation order.
    """
    if seed < 0 or seed >= 2**64:
        raise ConfigError(f"seed must be an unsigned 64-bit integer, got {seed}")
    index = itertools.count()

    def draw(name, shape, fan_in):
        rng = np.random.Generator(np.random.Philox(key=(seed << 64) | next(index)))
        bound = math.sqrt(1.0 / fan_in)
        return rng.uniform(-bound, bound, size=shape).astype(np.float32)

    return ModelWeights(config, **_build(config, draw))


# ---------------------------------------------------------------------------
# latents


@dataclass(frozen=True)
class LatentVector:
    """One device's encoded payload: the values plus its routing identity."""

    values: np.ndarray  # [latent_dim] float32
    device_id: int
    sample_id: int = 0

    def __post_init__(self):
        object.__setattr__(self, "values", as_f32(self.values))
        if self.values.ndim != 1:
            raise ShapeError(f"latent values must be 1-D, got {self.values.shape}")
        if not np.isfinite(self.values).all():
            raise InputValidationError("latent values must be finite")
        for name in ("device_id", "sample_id"):
            object.__setattr__(self, name, int_field(name, getattr(self, name), ShapeError))
        if self.device_id < 0:
            raise ShapeError(f"device_id must be non-negative, got {self.device_id}")


class LatentSet:
    """Latents received for one sample, keyed by device id.

    A device is present exactly where an entry exists. present_ids and
    stacked are always in device-id order, never arrival order.
    """

    def __init__(self, n_devices: int):
        if n_devices < 1:
            raise ShapeError(f"n_devices must be >= 1, got {n_devices}")
        self.n_devices = n_devices
        self.entries: dict[int, LatentVector] = {}

    def add(self, latent: LatentVector) -> None:
        if not 0 <= latent.device_id < self.n_devices:
            raise ShapeError(
                f"device_id {latent.device_id} outside [0, {self.n_devices})"
            )
        self.entries[latent.device_id] = latent

    def present_ids(self) -> list[int]:
        return sorted(self.entries)

    def stacked(self) -> np.ndarray:
        """Present latent values as [k, latent_dim], in device-id order."""
        ids = self.present_ids()
        if not ids:
            raise EmptySupportError("latent set is empty")
        return np.stack([self.entries[d].values for d in ids])

    @classmethod
    def from_latents(cls, latents, n_devices: int) -> "LatentSet":
        out = cls(n_devices)
        for lat in latents:
            out.add(lat)
        return out

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class VelocityMap:
    """Reconstructed velocity grid in m/s."""

    values: np.ndarray  # [H, W] float32


# ---------------------------------------------------------------------------
# forward pass


def _encoder_layers(encoder, n_t: int, width: int):
    """Yield each block's conv, stride and output (h, w) on an
    [C, n_t, width] input. Every block halves the time axis; the
    receiver axis is halved only while it is wider than 4 columns. A 3x3
    kernel with padding 1 gives (n - 1) // stride + 1 outputs."""
    h, w = n_t, width
    for conv in encoder:
        stride = (2, 2 if w > 4 else 1)
        h, w = (h - 1) // stride[0] + 1, (w - 1) // stride[1] + 1
        yield conv, stride, (h, w)


def encode(wave_slice, encoder: list[ConvParams], device_id: int = 0, sample_id: int = 0) -> LatentVector:
    """Run one device's conv stack over its receiver slice.

    Input is [n_src, n_t, w_i]; `_encoder_layers` gives each block's
    stride, so arbitrarily narrow slices still work. Global average
    pooling collapses whatever remains into the latent vector.
    """
    x = as_f32(wave_slice)
    if x.ndim != 3:
        raise ShapeError(f"encoder input must be [C, n_t, w], got {x.shape}")
    if not np.isfinite(x).all():
        raise InputValidationError("encoder input contains non-finite values")
    for conv, stride, _ in _encoder_layers(encoder, x.shape[1], x.shape[2]):
        x = conv2d(x, conv.kernel, conv.bias, stride=stride, padding=(1, 1))
        x = leaky_relu(x)
    pooled = global_avg_pool(x).reshape(-1)
    return LatentVector(values=pooled, device_id=device_id, sample_id=sample_id)


def _split_heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    # [T, D] -> [n_heads, T, D / n_heads]
    t, d = x.shape
    return x.reshape(t, n_heads, d // n_heads).transpose(1, 0, 2)


def _attend(q, k, v, n_heads: int) -> tuple[np.ndarray, np.ndarray]:
    """Multi-head scaled dot-product attention of [T, d] queries over
    [S, d] keys and values.

    Returns the head-merged mix [T, d] (float32) and the weights
    [n_heads, T, S].
    """
    qh = _split_heads(q.astype(np.float64), n_heads)
    kh = _split_heads(k.astype(np.float64), n_heads)
    vh = _split_heads(v.astype(np.float64), n_heads)
    scale = 1.0 / math.sqrt(qh.shape[-1])
    scores = (qh @ kh.transpose(0, 2, 1)) * scale
    alpha = softmax(scores.astype(np.float32))
    mixed = alpha.astype(np.float64) @ vh  # [n_heads, T, d / n_heads]
    merged = mixed.transpose(1, 0, 2).reshape(q.shape[0], -1).astype(np.float32)
    return merged, alpha


def _attention(attn: AttentionParams, queries, tokens, n_heads: int):
    """Project [T, q_in] queries and [S, D] tokens, attend, and project
    the mix back: returns [T, out] (float32) and the weights
    [n_heads, T, S]."""
    q = linear(queries, attn.query.weight, attn.query.bias)
    k = linear(tokens, attn.key.weight, attn.key.bias)
    v = linear(tokens, attn.value.weight, attn.value.bias)
    merged, alpha = _attend(q, k, v, n_heads)
    return linear(merged, attn.out.weight, attn.out.bias), alpha


def _attention_flops(attn: AttentionParams, queries: int, k: int, d_k: int) -> int:
    """`_attention`'s cost: projections of `queries` query and k
    key/value tokens, plus the score and mixing products."""
    return (
        _flops(attn.query.weight, queries)
        + _flops(attn.key.weight, k)
        + _flops(attn.value.weight, k)
        + _flops(attn.out.weight, queries)
        + 2 * 2 * queries * k * d_k
    )


def fuse(latents: LatentSet, fusion: AttentionParams, n_heads: int = 1) -> np.ndarray:
    """Self-attention over the present latents, mean-pooled to one vector.

    Absent devices contribute neither queries nor keys; with a single
    present latent the pool of one token is returned unchanged.
    """
    tokens = latents.stacked()  # [k, D]
    token_out, _ = _attention(fusion, tokens, tokens, n_heads)  # [k, D]
    return token_out.astype(np.float64).mean(axis=0).astype(np.float32)


def cross_attention(
    features: np.ndarray,
    pos_embed: np.ndarray,
    latents: LatentSet,
    attn: AttentionParams,
    n_heads: int = 1,
    attention_out: list | None = None,
) -> np.ndarray:
    """Let every pixel query the present latents and add the result back.

    Queries come from [features; position embeddings at the features'
    resolution (`ModelWeights.position_grids`)], keys and values from
    the latents; attention weights are a joint softmax over
    the present keys, so they always form a distribution over whatever
    latents arrived. If ``attention_out`` is a list, the per-device weight
    maps [n_devices, H, W] (absent devices exactly 0) are appended.
    """
    f = as_f32(features)
    if f.ndim != 3:
        raise ShapeError(f"cross_attention features must be [C,H,W], got {f.shape}")
    if not np.isfinite(f).all():
        raise InputValidationError("cross_attention features contain non-finite values")
    tokens = latents.stacked()  # [k, D]
    c, h, w = f.shape
    grid = as_f32(pos_embed)
    if grid.ndim != 3 or grid.shape[1:] != (h, w):
        raise ShapeError(f"cross_attention position grid {grid.shape} does not match "
                         f"features at {(h, w)}")
    # one pixel per row, [features; position], written in place
    q_in = np.empty((h * w, c + grid.shape[0]), dtype=np.float32)
    q_in[:, :c] = f.reshape(c, h * w).T
    q_in[:, c:] = grid.reshape(-1, h * w).T
    proj, alpha = _attention(attn, q_in, tokens, n_heads)  # [hw, c], [nh, hw, k]
    if attention_out is not None:
        per_latent = alpha.astype(np.float64).mean(axis=0)  # [hw, k]
        full = np.zeros((latents.n_devices, h, w), dtype=np.float32)
        for col, dev in enumerate(latents.present_ids()):
            full[dev] = per_latent[:, col].reshape(h, w).astype(np.float32)
        attention_out.append(full)
    return f + proj.T.reshape(c, h, w)


def squash_to_range(x: np.ndarray, velocity_range: tuple[float, float]) -> np.ndarray:
    """Map unbounded activations into [v_min, v_max] via scaled tanh."""
    v_min, v_max = velocity_range
    y = v_min + (np.tanh(x.astype(np.float64)) + 1.0) * 0.5 * (v_max - v_min)
    return y.astype(np.float32)


def decode(
    global_latent: np.ndarray,
    latents: LatentSet,
    weights: ModelWeights,
    attention_out: list | None = None,
) -> VelocityMap:
    """Grow the global latent to a velocity map, querying latents per block."""
    if len(latents) == 0:
        raise EmptySupportError("decode needs at least one present latent")
    return _decoder_trunk(global_latent, weights, latents, attention_out)


def decode_without_attention(global_latent: np.ndarray, weights: ModelWeights) -> VelocityMap:
    """Plain decoder path: same conv blocks, no latent queries.

    This is the split-pipeline baseline's central half, where the merged
    latent is the only information the decoder sees.
    """
    return _decoder_trunk(global_latent, weights)


def _decoder_trunk(global_latent, weights: ModelWeights, latents: LatentSet | None = None,
                   attention_out: list | None = None) -> VelocityMap:
    """Seed projection, conv blocks and head; each block ends with
    cross-attention over ``latents`` unless they are None."""
    cfg = weights.config
    gl = as_f32(global_latent).reshape(-1)
    if gl.shape[0] != cfg.latent_dim:
        raise ShapeError(f"global latent length {gl.shape[0]} != latent_dim {cfg.latent_dim}")
    c0 = cfg.decoder_channels[0]
    h0, w0 = cfg.decoder_resolutions[0]
    x = linear(gl, weights.seed_proj.weight, weights.seed_proj.bias).reshape(c0, h0, w0)
    for j, block in enumerate(weights.blocks):
        x = nearest_resize(x, cfg.decoder_resolutions[j + 1])
        x = conv2d(x, block.conv.kernel, block.conv.bias, stride=(1, 1), padding=(1, 1))
        x = leaky_relu(x)
        if latents is not None:
            x = cross_attention(
                x,
                weights.position_grids[j],
                latents,
                block.attention,
                cfg.n_heads,
                attention_out=attention_out,
            )
    raw = conv2d(x, weights.head.kernel, weights.head.bias)[0]
    return VelocityMap(values=squash_to_range(raw, cfg.velocity_range))


def validate_partition(partition, n_receivers: int | None, n_devices: int
                       ) -> tuple[tuple[int, int], ...]:
    """Check slices are contiguous, disjoint and cover [0, n_receivers),
    or [0, the last stop) if n_receivers is None; return them as int
    pairs. A partition or slice that is not a sequence of the right
    length, or a bound that is not an integer (a float, a bool), is a
    PartitionError too."""
    slices = []
    for i, pair in enumerate(tuple_field("partition", partition, 1, PartitionError, exact=False)):
        a, b = tuple_field(f"partition slice {i}", pair, 2, PartitionError)
        slices.append((int_field(f"partition slice {i} start", a, PartitionError),
                       int_field(f"partition slice {i} stop", b, PartitionError)))
    if len(slices) != n_devices:
        raise PartitionError(
            f"partition has {len(slices)} slices for {n_devices} devices"
        )
    cursor = 0
    for i, (a, b) in enumerate(slices):
        if a != cursor or b <= a:
            raise PartitionError(
                f"slice {i} = [{a},{b}) breaks contiguous coverage at {cursor}"
            )
        cursor = b
    if n_receivers is not None and cursor != n_receivers:
        raise PartitionError(
            f"partition covers [0,{cursor}) but there are {n_receivers} receivers"
        )
    return tuple(slices)


def forward_full(waveform, weights: ModelWeights, partition) -> VelocityMap:
    """Single-process reference of the whole pipeline.

    Encodes every slice in device-index order, fuses, decodes. The
    distributed runtime must match this bit for bit under a perfect
    network.
    """
    wave = as_f32(waveform)
    if wave.ndim != 3:
        raise ShapeError(f"waveform must be [n_src, n_t, n_rcv], got {wave.shape}")
    cfg = weights.config
    slices = validate_partition(partition, wave.shape[2], cfg.n_devices)
    latents = LatentSet(cfg.n_devices)
    for d, (a, b) in enumerate(slices):
        latents.add(encode(wave[:, :, a:b], weights.encoders[d], device_id=d))
    gl = fuse(latents, weights.fusion, cfg.n_heads)
    return decode(gl, latents, weights)


# ---------------------------------------------------------------------------
# declared cost model: multiply-adds (x2) of each layer of the forward pass


def _flops(weight_shape, positions: int) -> int:
    """A weighted layer's cost: 2 x its weight tensor's size x the number
    of positions it is applied at."""
    return 2 * math.prod(weight_shape) * positions


def encoder_flops(config: ModelConfig, n_t: int, width: int) -> int:
    """Cost of one encoder stack on an [C, n_t, width] slice, pooling
    included; every device's stack has the same shapes."""
    encoder = _build(config, lambda name, shape, fan_in: shape)["encoders"][0]
    total, h, w = 0, n_t, width
    for conv, _, (h, w) in _encoder_layers(encoder, n_t, width):
        total += _flops(conv.kernel, h * w)
    return total + config.latent_dim * h * w  # pooling


def _central_flops(config: ModelConfig, k: int) -> int:
    """Cost of fuse + decode over k present latents; k = 0 is the
    attention-free decoder path, which fuses nothing."""
    shapes = _build(config, lambda name, shape, fan_in: shape)
    total = (_flops(shapes["seed_proj"].weight, 1)
             + _flops(shapes["head"].kernel, math.prod(config.output_dims)))
    if k:
        total += _attention_flops(shapes["fusion"], k, k, config.d_k)
    for block, (h, w) in zip(shapes["blocks"], config.decoder_resolutions[1:]):
        total += _flops(block.conv.kernel, h * w)
        if k:
            total += _attention_flops(block.attention, h * w, k, config.d_k)
    return total


def plain_decoder_flops(config: ModelConfig) -> int:
    """Cost of the attention-free decoder path (SLA central half)."""
    return _central_flops(config, 0)


def decoder_flops(config: ModelConfig, k: int) -> int:
    """Cost of fuse + decode over k present latents."""
    if k < 1:
        raise ConfigError(f"decoder cost needs k >= 1, got {k}")
    return _central_flops(config, k)


# ---------------------------------------------------------------------------
# weight file io


def weight_records(weights: ModelWeights) -> list[tuple[bytes, np.ndarray]]:
    """(name, record array) of every tensor in file order, each checked
    by record_array, so a tensor that no record can hold raises here,
    before any writing starts."""
    return [(name.encode("utf-8"), record_array(arr)) for name, arr in weights.named_tensors()]


def write_weights(f, config: ModelConfig, records) -> None:
    """Stream a weight file of weight_records' records to the binary file
    object f: magic, length-prefixed config JSON, named tensor records,
    trailing CRC32 over everything before it. No tensor is copied."""
    cfg_json = config.to_json().encode("utf-8")
    out = Crc32Writer(f)
    out.write(WEIGHTS_MAGIC + struct.pack("<I", len(cfg_json)) + cfg_json
              + struct.pack("<I", len(records)))
    for nb, arr in records:
        out.write(struct.pack("<H", len(nb)) + nb)
        write_tensor(out, arr)
    out.seal()


def weights_to_bytes(weights: ModelWeights) -> bytes:
    """The bytes of the weight file that write_weights writes."""
    buf = io.BytesIO()
    write_weights(buf, weights.config, weight_records(weights))
    return buf.getvalue()


@contextmanager
def _parsing(what: str, at: int):
    """Raise any failure to parse the weight file's `what` at byte `at`
    as a CorruptFileError that names both."""
    try:
        yield
    except (ValueError, LookupError, TypeError, ArithmeticError, RecursionError,
            SplitFwiError) as exc:
        raise CorruptFileError(f"weight file {what} at byte {at} is invalid: {exc}") from exc


def weights_from_bytes(buf: bytes) -> ModelWeights:
    """Parse a weight file. A malformed field or a non-finite weight
    raises CorruptFileError with its byte offset.

    The file must be exactly what weights_to_bytes writes: the config in
    its canonical JSON, and the records in serialization order. So a file
    that loads re-serializes to the same bytes, and checking the records
    against the config's tensors takes time bounded by the file, however
    many tensors the config declares. The tensors are views of buf, not
    copies, so a buffer that can change (a bytearray) must not while the
    weights are in use.
    """
    if len(buf) < len(WEIGHTS_MAGIC) + 8:
        raise CorruptFileError("weight file truncated")
    body = memoryview(buf)[:-4]
    (stored,) = struct.unpack_from("<I", buf, len(body))
    actual = zlib.crc32(body) & 0xFFFFFFFF
    if stored != actual:
        raise CorruptFileError(
            f"weight file CRC mismatch: stored {stored:#010x}, computed {actual:#010x}"
        )
    if buf[:8] != WEIGHTS_MAGIC:
        raise CorruptFileError("bad weight file magic")
    pos = 8
    (cfg_len,) = struct.unpack_from("<I", buf, pos)
    pos += 4
    if pos + cfg_len > len(body):
        raise CorruptFileError("weight file truncated inside config")
    with _parsing("config", pos):
        raw = json.loads(buf[pos : pos + cfg_len].decode("utf-8"))
        missing = [f.name for f in fields(ModelConfig) if f.name not in raw]
        if missing:
            raise ShapeError(f"missing keys {missing}")
        config = ModelConfig(**raw)
    if config.to_json().encode("utf-8") != buf[pos : pos + cfg_len]:
        raise CorruptFileError(f"weight file config at byte {pos} is not in canonical form")
    pos += cfg_len
    if pos + 4 > len(body):
        raise CorruptFileError("weight file truncated inside tensor count")
    (count,) = struct.unpack_from("<I", body, pos)
    pos += 4
    records: list[tuple[str, np.ndarray, int]] = []  # (name, tensor, byte offset)
    for _ in range(count):
        if pos + 2 > len(body):
            raise CorruptFileError(f"weight file truncated inside record name at byte {pos}")
        (name_len,) = struct.unpack_from("<H", buf, pos)
        pos += 2
        if pos + name_len > len(body):
            raise CorruptFileError(
                f"weight file record name of {name_len} bytes at byte {pos} runs past the body")
        with _parsing("record name", pos):
            name = buf[pos : pos + name_len].decode("utf-8")
        pos += name_len
        with _parsing(f"tensor {name}", pos):
            arr, end = tensor_from_bytes(body, pos)
        # a float64 sum of finite float32 values cannot overflow, and a NaN
        # or an inf makes it non-finite; np.isfinite would hold a flag per value
        if not math.isfinite(arr.sum(dtype=np.float64)):
            raise CorruptFileError(f"weight file tensor {name} at byte {pos} is not finite")
        records.append((name, arr, pos))
        pos = end
    if pos != len(body):
        raise CorruptFileError("trailing bytes after weight records")
    rest = iter(records)

    def take(want, shape, fan_in):
        name, arr, at = next(rest, (None, None, None))
        if name is None:
            raise CorruptFileError(f"weight file missing tensor {want}")
        if name != want:
            raise CorruptFileError(f"weight file record at byte {at} is {name!r}, "
                                   f"expected tensor {want}")
        if arr.shape != shape:
            raise CorruptFileError(f"tensor {name} at byte {at} has shape {arr.shape}, "
                                   f"expected {shape}")
        return arr

    parts = _build(config, take)
    unknown = [name for name, _, _ in rest]
    if unknown:
        raise CorruptFileError(f"weight file has tensors its config does not list: {unknown[:3]}")
    return ModelWeights(config, **parts)


def save_weights(weights: ModelWeights, path) -> None:
    """Stream the weight file to path. Every tensor is checked before the
    file is opened, so weights that no file can hold leave path as it was."""
    records = weight_records(weights)
    with open(path, "wb") as f:
        write_weights(f, weights.config, records)


def load_weights(path) -> ModelWeights:
    try:
        return weights_from_bytes(Path(path).read_bytes())
    except CorruptFileError as exc:
        raise CorruptFileError(f"{path}: {exc}") from exc
