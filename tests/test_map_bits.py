"""Map bits pinned against the row-major convolution and the per-block
position resize that the model used before.

`conv2d` builds a channel-major window matrix and the decoder takes each
block's position grid from the weights; both must leave every float32
output bit as it was. The float64 sums under the float32 store are not
compared: swapping the GEMM's operands changes which BLAS kernel runs,
so they can differ in the last bit, and these tests show only that no
difference reached a stored output on the inputs they draw. The
references below keep the earlier code: `conv2d_rows`
multiplies a row-major window matrix by the transposed kernel, and
`forward_rows` encodes with it and resizes the position embeddings in
every decoder block.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import splitfwi.model as model_module
from conftest import make_latents
from splitfwi.model import (
    LEAKY_SLOPE,
    LatentSet,
    LatentVector,
    ModelConfig,
    VelocityMap,
    _attend,
    cross_attention,
    decode,
    forward_full,
    fuse,
    init_weights,
    squash_to_range,
    validate_partition,
    weights_from_bytes,
    weights_to_bytes,
)
from splitfwi.numerics import (
    as_f32,
    bilinear_resize,
    conv2d,
    global_avg_pool,
    leaky_relu,
    linear,
    nearest_resize,
)


def conv2d_rows(x, kernel, bias, stride=(1, 1), padding=(0, 0)):
    """Row-major im2col: [H'*W', C_in*kh*kw] @ kernel^T, then transposed."""
    x, kernel, bias = as_f32(x), as_f32(kernel), as_f32(bias)
    c_in, h, w = x.shape
    c_out, _, kh, kw = kernel.shape
    sh, sw = stride
    ph, pw = padding
    xp = np.pad(x, ((0, 0), (ph, ph), (pw, pw))).astype(np.float64)
    out_h = (h + 2 * ph - kh) // sh + 1
    out_w = (w + 2 * pw - kw) // sw + 1
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(1, 2))[:, ::sh, ::sw]
    cols = windows.transpose(1, 2, 0, 3, 4).reshape(out_h * out_w, c_in * kh * kw)
    km = kernel.reshape(c_out, c_in * kh * kw).astype(np.float64)
    out = cols @ km.T + bias.astype(np.float64)
    return out.T.reshape(c_out, out_h, out_w).astype(np.float32)


def encode_rows(wave_slice, encoder, device_id):
    x = as_f32(wave_slice)
    for conv in encoder:
        stride_w = 2 if x.shape[2] > 4 else 1
        x = conv2d_rows(x, conv.kernel, conv.bias, stride=(2, stride_w), padding=(1, 1))
        x = leaky_relu(x, LEAKY_SLOPE)
    return LatentVector(values=global_avg_pool(x).reshape(-1), device_id=device_id)


def decode_rows(global_latent, latents, weights, attention_out=None):
    """Decoder loop that resizes the position embeddings in every block."""
    cfg = weights.config
    c0 = cfg.decoder_channels[0]
    h0, w0 = cfg.decoder_resolutions[0]
    x = linear(global_latent, weights.seed_proj.weight, weights.seed_proj.bias).reshape(c0, h0, w0)
    for j, block in enumerate(weights.blocks):
        x = nearest_resize(x, cfg.decoder_resolutions[j + 1])
        x = conv2d_rows(x, block.conv.kernel, block.conv.bias, stride=(1, 1), padding=(1, 1))
        x = leaky_relu(x, LEAKY_SLOPE)
        grid = bilinear_resize(weights.position_embeddings, cfg.decoder_resolutions[j + 1])
        x = cross_attention(x, grid, latents, block.attention, cfg.n_heads,
                            attention_out=attention_out)
    raw = conv2d_rows(x, weights.head.kernel, weights.head.bias)[0]
    return VelocityMap(values=squash_to_range(raw, cfg.velocity_range))


def forward_rows(wave, weights, partition, attention_out=None):
    cfg = weights.config
    latents = LatentSet(cfg.n_devices)
    for d, (a, b) in enumerate(validate_partition(partition, wave.shape[2], cfg.n_devices)):
        latents.add(encode_rows(wave[:, :, a:b], weights.encoders[d], d))
    gl = fuse(latents, weights.fusion, cfg.n_heads)
    return decode_rows(gl, latents, weights, attention_out), latents, gl


def _assert_same_bytes(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


@st.composite
def conv_cases(draw):
    kh, kw = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    ph, pw = draw(st.integers(0, 1)), draw(st.integers(0, 1))
    h = draw(st.integers(max(1, kh - 2 * ph), 24))
    w = draw(st.integers(max(1, kw - 2 * pw), 24))
    c_in = draw(st.integers(1, 12))
    c_out = draw(st.sampled_from([1, 2, 3, 17, 64]))
    stride = (draw(st.integers(1, 2)), draw(st.integers(1, 2)))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(c_in, h, w)).astype(np.float32)
    kernel = rng.normal(size=(c_out, c_in, kh, kw)).astype(np.float32)
    bias = rng.normal(size=c_out).astype(np.float32)
    return x, kernel, bias, stride, (ph, pw)


class TestConvBits:
    @given(conv_cases())
    @settings(max_examples=150, deadline=None)
    def test_matches_row_major_reference(self, case):
        x, kernel, bias, stride, padding = case
        _assert_same_bytes(conv2d(x, kernel, bias, stride, padding),
                           conv2d_rows(x, kernel, bias, stride, padding))

    def test_model_layer_shapes(self):
        # full-size encoder blocks of a 14- and a 35-column slice, every
        # decoder block and the 1x1 head
        rng = np.random.default_rng(8)
        cases = [
            ((5, 1000, 14), 32, (2, 2), (1, 1)),
            ((5, 1000, 35), 32, (2, 2), (1, 1)),
            ((256, 63, 4), 512, (2, 1), (1, 1)),
            ((128, 9, 9), 96, (1, 1), (1, 1)),
            ((48, 70, 70), 32, (1, 1), (1, 1)),
        ]
        for shape, c_out, stride, padding in cases:
            x = rng.normal(size=shape).astype(np.float32)
            kernel = rng.uniform(-0.1, 0.1, size=(c_out, shape[0], 3, 3)).astype(np.float32)
            bias = rng.normal(size=c_out).astype(np.float32)
            _assert_same_bytes(conv2d(x, kernel, bias, stride, padding),
                               conv2d_rows(x, kernel, bias, stride, padding))
        x = rng.normal(size=(32, 70, 70)).astype(np.float32)
        kernel = rng.normal(size=(1, 32, 1, 1)).astype(np.float32)
        bias = rng.normal(size=1).astype(np.float32)
        _assert_same_bytes(conv2d(x, kernel, bias), conv2d_rows(x, kernel, bias))


class TestFullSizeMaps:
    """The paper's input shape [5, 1000, 70] on the full-size model."""

    def _check(self, n_devices, seed):
        weights = init_weights(ModelConfig(n_devices=n_devices), seed=seed)
        rng = np.random.default_rng(seed)
        wave = rng.normal(size=(5, 1000, 70)).astype(np.float32)
        bounds = np.linspace(0, 70, n_devices + 1).astype(int)
        partition = tuple(zip(bounds[:-1], bounds[1:]))
        ref_alpha = []
        ref, latents, gl = forward_rows(wave, weights, partition, ref_alpha)
        _assert_same_bytes(forward_full(wave, weights, partition).values, ref.values)
        alpha = []
        _assert_same_bytes(decode(gl, latents, weights, attention_out=alpha).values, ref.values)
        assert len(alpha) == len(ref_alpha) == weights.config.n_decoder_blocks
        for got, want in zip(alpha, ref_alpha):
            _assert_same_bytes(got, want)

    def test_five_devices(self):
        self._check(5, seed=21)

    def test_two_devices(self):
        self._check(2, seed=22)


class TestPositionGrids:
    def test_one_grid_per_block_resolution(self, tiny_weights):
        cfg = tiny_weights.config
        assert len(tiny_weights.position_grids) == cfg.n_decoder_blocks
        for grid, res in zip(tiny_weights.position_grids, cfg.decoder_resolutions[1:]):
            _assert_same_bytes(grid, bilinear_resize(tiny_weights.position_embeddings, res))

    def test_replace_builds_fresh_grids(self, tiny_weights, tiny_latents):
        rng = np.random.default_rng(3)
        pos = rng.normal(size=tiny_weights.position_embeddings.shape).astype(np.float32)
        moved = dataclasses.replace(tiny_weights, position_embeddings=pos)
        for grid, res in zip(moved.position_grids, moved.config.decoder_resolutions[1:]):
            _assert_same_bytes(grid, bilinear_resize(pos, res))
        gl = fuse(tiny_latents, moved.fusion)
        _assert_same_bytes(decode(gl, tiny_latents, moved).values,
                           decode_rows(gl, tiny_latents, moved).values)
        assert not np.array_equal(decode(gl, tiny_latents, tiny_weights).values,
                                  decode(gl, tiny_latents, moved).values)

    def test_grids_are_not_fields(self, tiny_weights):
        assert "position_grids" not in {f.name for f in dataclasses.fields(tiny_weights)}
        assert "position_grids" not in repr(tiny_weights)
        loaded = weights_from_bytes(weights_to_bytes(tiny_weights))
        for got, want in zip(loaded.position_grids, tiny_weights.position_grids):
            _assert_same_bytes(got, want)

    def test_decode_matches_reference_with_drops(self, tiny_weights):
        lset = make_latents(tiny_weights.config, seed=9, device_ids=[0, 2])
        gl = fuse(lset, tiny_weights.fusion)
        alpha, ref_alpha = [], []
        _assert_same_bytes(decode(gl, lset, tiny_weights, attention_out=alpha).values,
                           decode_rows(gl, lset, tiny_weights, ref_alpha).values)
        for got, want in zip(alpha, ref_alpha):
            _assert_same_bytes(got, want)


def linear_out_of_place(x, weight, bias):
    """linear as it was: the bias added into a new array."""
    x, weight, bias = as_f32(x), as_f32(weight), as_f32(bias)
    y = x.astype(np.float64) @ weight.astype(np.float64).T + bias.astype(np.float64)
    return y.astype(np.float32)


def cross_attention_concat(features, pos_embed, latents, attn, n_heads=1):
    """cross_attention as it was: the position grid resized (a copy at the
    same size), concatenated below the features and transposed, with the
    transposed view made contiguous inside linear."""
    f = as_f32(features)
    tokens = latents.stacked()
    c, h, w = f.shape
    ep = bilinear_resize(pos_embed, (h, w))
    q_in = np.concatenate([f, ep], axis=0).reshape(c + ep.shape[0], h * w).T
    q = linear_out_of_place(q_in, attn.query.weight, attn.query.bias)
    keys = linear_out_of_place(tokens, attn.key.weight, attn.key.bias)
    vals = linear_out_of_place(tokens, attn.value.weight, attn.value.bias)
    merged, _ = _attend(q, keys, vals, n_heads)
    proj = linear_out_of_place(merged, attn.out.weight, attn.out.bias)
    return f + proj.T.reshape(c, h, w)


class TestQueryInput:
    """The decoder's queries are written in place; every value matches
    the concatenated form."""

    @given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(0, 4))
    @settings(max_examples=40, deadline=None)
    def test_matches_concatenated_form(self, tiny_weights, seed, present, block):
        cfg = tiny_weights.config
        rng = np.random.default_rng(seed)
        j = block % cfg.n_decoder_blocks
        h, w = cfg.decoder_resolutions[j + 1]
        feats = rng.normal(size=(cfg.decoder_channels[j + 1], h, w)).astype(np.float32)
        lset = make_latents(cfg, device_ids=list(range(present)), seed=seed % 1000)
        attn = tiny_weights.blocks[j].attention
        want = cross_attention_concat(feats, tiny_weights.position_embeddings, lset, attn)
        for grid in (tiny_weights.position_grids[j],
                     bilinear_resize(tiny_weights.position_embeddings, (h, w))):
            _assert_same_bytes(cross_attention(feats, grid, lset, attn), want)

    def test_linear_bias_in_place(self):
        rng = np.random.default_rng(12)
        for shape in ((70 * 70, 38), (512,), (3, 16)):
            x = rng.normal(size=shape).astype(np.float32)
            weight = rng.normal(size=(24, shape[-1])).astype(np.float32)
            bias = rng.normal(size=24).astype(np.float32)
            _assert_same_bytes(linear(x, weight, bias), linear_out_of_place(x, weight, bias))

    def test_decode_resizes_no_grid(self, monkeypatch, tiny_weights, tiny_latents):
        resized = []
        original = model_module.bilinear_resize
        monkeypatch.setattr(model_module, "bilinear_resize",
                            lambda *args: resized.append(args) or original(*args))
        gl = fuse(tiny_latents, tiny_weights.fusion)
        decode(gl, tiny_latents, tiny_weights)
        assert resized == []
