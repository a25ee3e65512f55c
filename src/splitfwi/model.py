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

The declared cost of each layer, which the runtime's simulated clock
charges, is derived here from the same weight inventory that shapes the
weights.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
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
from .tensorio import tensor_from_bytes, tensor_to_bytes

LEAKY_SLOPE = 0.1

WEIGHTS_MAGIC = b"EPICWGT1"


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
        if tuple(res[-1]) != tuple(self.output_dims):
            raise ShapeError(
                f"last decoder resolution {res[-1]} must equal output dims {self.output_dims}"
            )
        if not self.velocity_range[0] < self.velocity_range[1]:
            raise ShapeError(f"invalid velocity range {self.velocity_range}")

    @property
    def n_encoder_blocks(self) -> int:
        return len(self.encoder_channels) - 1

    @property
    def n_decoder_blocks(self) -> int:
        return len(self.decoder_resolutions) - 1

    def to_json(self) -> str:
        return json.dumps(
            {
                "n_devices": self.n_devices,
                "latent_dim": self.latent_dim,
                "d_k": self.d_k,
                "d_pos": self.d_pos,
                "n_heads": self.n_heads,
                "encoder_channels": list(self.encoder_channels),
                "decoder_channels": list(self.decoder_channels),
                "decoder_resolutions": [list(r) for r in self.decoder_resolutions],
                "output_dims": list(self.output_dims),
                "velocity_range": list(self.velocity_range),
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "ModelConfig":
        raw = json.loads(text)
        return cls(
            n_devices=int(raw["n_devices"]),
            latent_dim=int(raw["latent_dim"]),
            d_k=int(raw["d_k"]),
            d_pos=int(raw["d_pos"]),
            n_heads=int(raw["n_heads"]),
            encoder_channels=tuple(int(c) for c in raw["encoder_channels"]),
            decoder_channels=tuple(int(c) for c in raw["decoder_channels"]),
            decoder_resolutions=tuple(tuple(int(v) for v in r) for r in raw["decoder_resolutions"]),
            output_dims=tuple(int(v) for v in raw["output_dims"]),
            velocity_range=tuple(float(v) for v in raw["velocity_range"]),
        )


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
        self.position_grids = tuple(
            bilinear_resize(self.position_embeddings, res)
            for res in self.config.decoder_resolutions[1:]
        )

    def named_tensors(self):
        """Yield (name, array) in the canonical serialization order."""
        for d, stack in enumerate(self.encoders):
            for b, conv in enumerate(stack):
                yield f"encoder{d}.conv{b}.kernel", conv.kernel
                yield f"encoder{d}.conv{b}.bias", conv.bias
        for part, lp in (
            ("query", self.fusion.query),
            ("key", self.fusion.key),
            ("value", self.fusion.value),
            ("out", self.fusion.out),
        ):
            yield f"fusion.{part}.weight", lp.weight
            yield f"fusion.{part}.bias", lp.bias
        yield "decoder.seed.weight", self.seed_proj.weight
        yield "decoder.seed.bias", self.seed_proj.bias
        for j, block in enumerate(self.blocks):
            yield f"decoder.block{j}.conv.kernel", block.conv.kernel
            yield f"decoder.block{j}.conv.bias", block.conv.bias
            for part, lp in (
                ("query", block.attention.query),
                ("key", block.attention.key),
                ("value", block.attention.value),
                ("out", block.attention.out),
            ):
                yield f"decoder.block{j}.attn.{part}.weight", lp.weight
                yield f"decoder.block{j}.attn.{part}.bias", lp.bias
        yield "decoder.pos_embed", self.position_embeddings
        yield "decoder.head.kernel", self.head.kernel
        yield "decoder.head.bias", self.head.bias


def _weight_inventory(config: ModelConfig):
    """Yield (name, (shape, fan_in)) for every tensor, in serialization
    order, so that a reader can stop at the first one a file lacks."""
    ch = config.encoder_channels
    for d in range(config.n_devices):
        for b in range(config.n_encoder_blocks):
            fan = ch[b] * 9
            yield f"encoder{d}.conv{b}.kernel", ((ch[b + 1], ch[b], 3, 3), fan)
            yield f"encoder{d}.conv{b}.bias", ((ch[b + 1],), fan)
    dim, dk = config.latent_dim, config.d_k
    for part, (dout, din) in (
        ("query", (dk, dim)),
        ("key", (dk, dim)),
        ("value", (dk, dim)),
        ("out", (dim, dk)),
    ):
        yield f"fusion.{part}.weight", ((dout, din), din)
        yield f"fusion.{part}.bias", ((dout,), din)
    c0 = config.decoder_channels[0]
    h0, w0 = config.decoder_resolutions[0]
    yield "decoder.seed.weight", ((c0 * h0 * w0, dim), dim)
    yield "decoder.seed.bias", ((c0 * h0 * w0,), dim)
    for j in range(config.n_decoder_blocks):
        cin = config.decoder_channels[j]
        cout = config.decoder_channels[j + 1]
        fan = cin * 9
        yield f"decoder.block{j}.conv.kernel", ((cout, cin, 3, 3), fan)
        yield f"decoder.block{j}.conv.bias", ((cout,), fan)
        q_in = cout + config.d_pos
        for part, (dout, din) in (
            ("query", (dk, q_in)),
            ("key", (dk, dim)),
            ("value", (dk, dim)),
            ("out", (cout, dk)),
        ):
            yield f"decoder.block{j}.attn.{part}.weight", ((dout, din), din)
            yield f"decoder.block{j}.attn.{part}.bias", ((dout,), din)
    ho, wo = config.output_dims
    yield "decoder.pos_embed", ((config.d_pos, ho, wo), config.d_pos)
    c_last = config.decoder_channels[-1]
    yield "decoder.head.kernel", ((1, c_last, 1, 1), c_last)
    yield "decoder.head.bias", ((1,), c_last)


def _assemble(config: ModelConfig, tensors: dict[str, np.ndarray]) -> ModelWeights:
    def conv(prefix):
        return ConvParams(tensors[f"{prefix}.kernel"], tensors[f"{prefix}.bias"])

    def lin(prefix):
        return LinearParams(tensors[f"{prefix}.weight"], tensors[f"{prefix}.bias"])

    def attn(prefix):
        return AttentionParams(
            query=lin(f"{prefix}.query"),
            key=lin(f"{prefix}.key"),
            value=lin(f"{prefix}.value"),
            out=lin(f"{prefix}.out"),
        )

    encoders = [
        [conv(f"encoder{d}.conv{b}") for b in range(config.n_encoder_blocks)]
        for d in range(config.n_devices)
    ]
    blocks = [
        DecoderBlockParams(conv=conv(f"decoder.block{j}.conv"), attention=attn(f"decoder.block{j}.attn"))
        for j in range(config.n_decoder_blocks)
    ]
    return ModelWeights(
        config=config,
        encoders=encoders,
        fusion=attn("fusion"),
        seed_proj=lin("decoder.seed"),
        blocks=blocks,
        position_embeddings=tensors["decoder.pos_embed"],
        head=conv("decoder.head"),
    )


def init_weights(config: ModelConfig, seed: int) -> ModelWeights:
    """Sample weights uniformly in +-sqrt(1/fan_in).

    Each tensor draws from its own counter-based stream keyed on
    (seed, tensor index), so the result is a pure function of
    (config, seed) regardless of evaluation order.
    """
    if seed < 0 or seed >= 2**64:
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed}")
    tensors: dict[str, np.ndarray] = {}
    for idx, (name, (shape, fan_in)) in enumerate(_weight_inventory(config)):
        rng = np.random.Generator(np.random.Philox(key=(seed << 64) | idx))
        bound = math.sqrt(1.0 / fan_in)
        tensors[name] = rng.uniform(-bound, bound, size=shape).astype(np.float32)
    return _assemble(config, tensors)


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
        if self.device_id < 0:
            raise ShapeError(f"device_id must be non-negative, got {self.device_id}")


class LatentSet:
    """Latents received for one sample, keyed by device id.

    The presence mask is derived from the stored entries, so it is true
    exactly where an entry exists. Iteration order is always device-id
    order, never arrival order.
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

    def mask(self) -> np.ndarray:
        m = np.zeros(self.n_devices, dtype=bool)
        for d in self.entries:
            m[d] = True
        return m

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


def _receiver_stride(width: int) -> int:
    """An encoder block halves the receiver axis only while it is wider
    than 4 columns."""
    return 2 if width > 4 else 1


def encode(wave_slice, encoder: list[ConvParams], device_id: int = 0, sample_id: int = 0) -> LatentVector:
    """Run one device's conv stack over its receiver slice.

    Input is [n_src, n_t, w_i]. Every block halves the time axis; the
    receiver axis is halved only while it is wider than 4 columns, so
    arbitrarily narrow slices still work. Global average pooling collapses
    whatever remains into the latent vector.
    """
    x = as_f32(wave_slice)
    if x.ndim != 3:
        raise ShapeError(f"encoder input must be [C, n_t, w], got {x.shape}")
    if not np.isfinite(x).all():
        raise InputValidationError("encoder input contains non-finite values")
    for conv in encoder:
        stride = (2, _receiver_stride(x.shape[2]))
        x = conv2d(x, conv.kernel, conv.bias, stride=stride, padding=(1, 1))
        x = leaky_relu(x, LEAKY_SLOPE)
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


def fuse(latents: LatentSet, fusion: AttentionParams, n_heads: int = 1) -> np.ndarray:
    """Self-attention over the present latents, mean-pooled to one vector.

    Absent devices contribute neither queries nor keys; with a single
    present latent the pool of one token is returned unchanged.
    """
    tokens = latents.stacked()  # [k, D]
    q = linear(tokens, fusion.query.weight, fusion.query.bias)
    k = linear(tokens, fusion.key.weight, fusion.key.bias)
    v = linear(tokens, fusion.value.weight, fusion.value.bias)
    merged, _ = _attend(q, k, v, n_heads)
    token_out = linear(merged, fusion.out.weight, fusion.out.bias)  # [k, D]
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
    q = linear(q_in, attn.query.weight, attn.query.bias)  # [hw, d_k]
    keys = linear(tokens, attn.key.weight, attn.key.bias)  # [k, d_k]
    vals = linear(tokens, attn.value.weight, attn.value.bias)  # [k, d_k]
    merged, alpha = _attend(q, keys, vals, n_heads)  # alpha: [nh, hw, k]
    proj = linear(merged, attn.out.weight, attn.out.bias)  # [hw, c]
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
        x = leaky_relu(x, LEAKY_SLOPE)
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


def validate_partition(partition, n_receivers: int, n_devices: int) -> tuple[tuple[int, int], ...]:
    """Check slices are contiguous, disjoint and cover [0, n_receivers)."""
    slices = tuple((int(a), int(b)) for a, b in partition)
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
    if cursor != n_receivers:
        raise PartitionError(
            f"partition covers [0,{cursor}) but there are {n_receivers} receivers"
        )
    return slices


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


def _layer_flops(inventory, name: str, positions: int) -> int:
    """A weighted layer's cost: 2 x its weight tensor's size x the number
    of positions it is applied at."""
    return 2 * math.prod(inventory[name][0]) * positions


def _attention_flops(inventory, prefix: str, queries: int, k: int, d_k: int) -> int:
    """Projections of `queries` query and k key/value tokens, plus the
    score and mixing products."""
    return (
        _layer_flops(inventory, f"{prefix}.query.weight", queries)
        + _layer_flops(inventory, f"{prefix}.key.weight", k)
        + _layer_flops(inventory, f"{prefix}.value.weight", k)
        + _layer_flops(inventory, f"{prefix}.out.weight", queries)
        + 2 * 2 * queries * k * d_k
    )


def encoder_flops(config: ModelConfig, n_t: int, width: int) -> int:
    """Cost of one encoder stack on an [C, n_t, width] slice, pooling
    included; every device's stack has the same shapes."""
    inventory = dict(_weight_inventory(config))
    h, w = n_t, width
    total = 0
    for b in range(config.n_encoder_blocks):
        # a 3x3 kernel with padding 1 gives (n - 1) // stride + 1 outputs
        h, w = (h - 1) // 2 + 1, (w - 1) // _receiver_stride(w) + 1
        total += _layer_flops(inventory, f"encoder0.conv{b}.kernel", h * w)
    return total + config.latent_dim * h * w  # pooling


def plain_decoder_flops(config: ModelConfig) -> int:
    """Cost of the attention-free decoder path (SLA central half)."""
    inventory = dict(_weight_inventory(config))
    total = _layer_flops(inventory, "decoder.seed.weight", 1)
    for j, (h, w) in enumerate(config.decoder_resolutions[1:]):
        total += _layer_flops(inventory, f"decoder.block{j}.conv.kernel", h * w)
    return total + _layer_flops(inventory, "decoder.head.kernel", math.prod(config.output_dims))


def decoder_flops(config: ModelConfig, k: int) -> int:
    """Cost of fuse + decode over k present latents."""
    if k < 1:
        raise ConfigError(f"decoder cost needs k >= 1, got {k}")
    inventory = dict(_weight_inventory(config))
    total = plain_decoder_flops(config) + _attention_flops(inventory, "fusion", k, k, config.d_k)
    for j, (h, w) in enumerate(config.decoder_resolutions[1:]):
        total += _attention_flops(inventory, f"decoder.block{j}.attn", h * w, k, config.d_k)
    return total


# ---------------------------------------------------------------------------
# weight file io


def weights_to_bytes(weights: ModelWeights) -> bytes:
    """Serialize weights: magic, length-prefixed config JSON, named tensor
    records, trailing CRC32 over everything before it."""
    cfg_json = weights.config.to_json().encode("utf-8")
    parts = [WEIGHTS_MAGIC, struct.pack("<I", len(cfg_json)), cfg_json]
    named = list(weights.named_tensors())
    parts.append(struct.pack("<I", len(named)))
    for name, arr in named:
        nb = name.encode("utf-8")
        parts.append(struct.pack("<H", len(nb)))
        parts.append(nb)
        parts.append(tensor_to_bytes(arr))
    blob = b"".join(parts)
    return blob + struct.pack("<I", zlib.crc32(blob) & 0xFFFFFFFF)


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
    many tensors the config declares.
    """
    if len(buf) < len(WEIGHTS_MAGIC) + 8:
        raise CorruptFileError("weight file truncated")
    body, stored = buf[:-4], struct.unpack("<I", buf[-4:])[0]
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
        config = ModelConfig.from_json(buf[pos : pos + cfg_len].decode("utf-8"))
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
        if not np.isfinite(arr).all():
            raise CorruptFileError(f"weight file tensor {name} at byte {pos} is not finite")
        records.append((name, arr, pos))
        pos = end
    if pos != len(body):
        raise CorruptFileError("trailing bytes after weight records")
    tensors: dict[str, np.ndarray] = {}
    for want, (shape, _) in _weight_inventory(config):
        if len(tensors) == len(records):
            raise CorruptFileError(f"weight file missing tensor {want}")
        name, arr, at = records[len(tensors)]
        if name != want:
            raise CorruptFileError(f"weight file record at byte {at} is {name!r}, "
                                   f"expected tensor {want}")
        if arr.shape != shape:
            raise CorruptFileError(f"tensor {name} at byte {at} has shape {arr.shape}, "
                                   f"expected {shape}")
        tensors[name] = arr
    if len(records) > len(tensors):
        unknown = [name for name, _, _ in records[len(tensors):]]
        raise CorruptFileError(f"weight file has tensors its config does not list: {unknown[:3]}")
    return _assemble(config, tensors)


def save_weights(weights: ModelWeights, path) -> None:
    Path(path).write_bytes(weights_to_bytes(weights))


def load_weights(path) -> ModelWeights:
    try:
        return weights_from_bytes(Path(path).read_bytes())
    except CorruptFileError as exc:
        raise CorruptFileError(f"{path}: {exc}") from exc
