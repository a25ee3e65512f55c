"""Blocked conv2d and linear: equal float64 sums, bounded scratch.

`conv2d` and `linear` accumulate one block at a time
(`numerics._conv2d_sums`, `numerics._linear_sums`) so that no call holds
a float64 copy of a whole layer: conv2d casts its kernel in row blocks
and multiplies each by column blocks of the window matrix. The float32 outputs cannot show a
last-bit change in a float64 sum (tests/test_map_bits.py stores float32
on both sides), so the first test compares the float64 sums themselves
with one unblocked product, on every full-size layer shape the model
runs. BLAS sums depend on the thread count, so that comparison runs in a
child interpreter pinned to one BLAS thread, as perfbench runs the
model. The other tests bound each call's scratch with tracemalloc.

Run this file as a script to print the mismatches of the current
thread settings as JSON.
"""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import splitfwi
from splitfwi import numerics
from splitfwi.model import ModelConfig, _build, _encoder_layers
from splitfwi.numerics import _conv2d_sums, _linear_sums, conv2d, linear

ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
N_T = 1000  # time steps of a paper-shaped shot gather [5, 1000, 70]
ENCODER_WIDTHS = (14, 35, 70)  # receiver slices of 5, 2 and 1 devices
MAX_K = 5  # latents present at the central node
INPUTS_PER_SHAPE = 3


def conv_shapes(cfg=ModelConfig()):
    """(name, input shape, kernel shape, stride, padding) of every conv
    of the full-size model."""
    ch = cfg.encoder_channels
    encoder = _build(cfg, lambda name, shape, fan_in: shape)["encoders"][0]
    for width in ENCODER_WIDTHS:
        h, w = N_T, width
        for b, (conv, stride, out) in enumerate(_encoder_layers(encoder, N_T, width)):
            yield f"encoder w{width} b{b}", (ch[b], h, w), conv.kernel, stride, (1, 1)
            h, w = out
    dc = cfg.decoder_channels
    for j, (h, w) in enumerate(cfg.decoder_resolutions[1:]):
        yield f"decoder block{j}", (dc[j], h, w), (dc[j + 1], dc[j], 3, 3), (1, 1), (1, 1)
    yield "head", (dc[-1], *cfg.output_dims), (1, dc[-1], 1, 1), (1, 1), (0, 0)


def linear_shapes(cfg=ModelConfig()):
    """(name, input shape, weight shape) of every linear of the full-size
    model, at every count of present latents."""
    dim, dk = cfg.latent_dim, cfg.d_k
    c0, (h0, w0) = cfg.decoder_channels[0], cfg.decoder_resolutions[0]
    yield "seed projection", (dim,), (c0 * h0 * w0, dim)
    for k in range(1, MAX_K + 1):
        yield f"fusion qkv k{k}", (k, dim), (dk, dim)
        yield f"fusion out k{k}", (k, dk), (dim, dk)
    for j, (h, w) in enumerate(cfg.decoder_resolutions[1:]):
        cout = cfg.decoder_channels[j + 1]
        yield f"block{j} query", (h * w, cout + cfg.d_pos), (dk, cout + cfg.d_pos)
        yield f"block{j} out", (h * w, dk), (cout, dk)


def unblocked_conv(x, kernel, bias, stride, padding):
    """One GEMM over the whole channel-major window matrix."""
    c_out, c_in, kh, kw = kernel.shape
    (sh, sw), (ph, pw) = stride, padding
    xp = np.pad(x, ((0, 0), (ph, ph), (pw, pw))).astype(np.float64)
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(1, 2))[:, ::sh, ::sw]
    cols = windows.transpose(0, 3, 4, 1, 2).reshape(c_in * kh * kw, -1)
    out = kernel.reshape(c_out, -1).astype(np.float64) @ cols
    out += bias.astype(np.float64)[:, None]
    return out


def unblocked_linear(x, weight, bias):
    out = x.astype(np.float64) @ weight.astype(np.float64).T
    out += bias.astype(np.float64)
    return out


def _joined(blocks, axis):
    starts, sums = zip(*blocks)
    offsets = np.cumsum([0] + [s.shape[axis] for s in sums[:-1]])
    assert list(starts) == offsets.tolist(), "blocks must tile the output in order"
    return np.concatenate(sums, axis=axis)


def _draw(rng, x_shape, w_shape, fan_in):
    bound = np.sqrt(1.0 / fan_in)
    x = rng.normal(size=x_shape).astype(np.float32)
    weight = rng.uniform(-bound, bound, size=w_shape).astype(np.float32)
    bias = rng.uniform(-bound, bound, size=w_shape[0]).astype(np.float32)
    return x, weight, bias


def _differing(got, want, name, i):
    n = int(np.count_nonzero(got != want)) if got.shape == want.shape else got.size
    return [f"{name} input {i}: {n} of {want.size} float64 sums differ"] if n else []


def mismatches():
    """Every (layer, input) whose blocked float64 sums differ from the
    unblocked product."""
    found = []
    for idx, (name, x_shape, k_shape, stride, padding) in enumerate(conv_shapes()):
        for i in range(INPUTS_PER_SHAPE):
            rng = np.random.default_rng([idx, i])
            x, kernel, bias = _draw(rng, x_shape, k_shape, int(np.prod(k_shape[1:])))
            got = _joined(_conv2d_sums(x, kernel, bias, stride, padding), axis=1)
            found += _differing(got, unblocked_conv(x, kernel, bias, stride, padding), name, i)
    for idx, (name, x_shape, w_shape) in enumerate(linear_shapes(), start=1000):
        for i in range(INPUTS_PER_SHAPE):
            rng = np.random.default_rng([idx, i])
            x, weight, bias = _draw(rng, x_shape, w_shape, w_shape[1])
            got = _joined(_linear_sums(x, weight, bias), axis=-1)
            found += _differing(got, unblocked_linear(x, weight, bias), name, i)
    return found


def test_blocked_sums_equal_unblocked_with_one_blas_thread():
    src_root = Path(splitfwi.__file__).resolve().parents[1]
    env = {**os.environ, **ONE_BLAS_THREAD, "PYTHONPATH": str(src_root)}
    proc = subprocess.run([sys.executable, __file__], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_shape_lists_cover_the_model():
    convs = list(conv_shapes())
    assert len(convs) == 20
    assert ("encoder w70 b4", (256, 63, 5), (512, 256, 3, 3), (2, 2), (1, 1)) in convs
    assert ("decoder block3", (48, 70, 70), (32, 48, 3, 3), (1, 1), (1, 1)) in convs
    assert ("seed projection", (512,), (3200, 512)) in list(linear_shapes())


@pytest.mark.parametrize("block_cols", [1, 5, 9, 20, 64])
@pytest.mark.parametrize("stride, padding", [((1, 1), (1, 1)), ((2, 2), (1, 1)), ((2, 1), (0, 1))])
def test_any_block_width_tiles_the_windows(monkeypatch, block_cols, stride, padding):
    # widths that start and end blocks mid-row, on a row edge and across
    # several rows; sums may differ in the last bit, positions may not
    monkeypatch.setattr(numerics, "_BLOCK_COLS", block_cols)
    x, kernel, bias = _draw(np.random.default_rng(block_cols), (3, 11, 9), (4, 3, 3, 3), 27)
    want = unblocked_conv(x, kernel, bias, stride, padding)
    got = _joined(_conv2d_sums(x, kernel, bias, stride, padding), axis=1)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
    out = conv2d(x, kernel, bias, stride, padding)
    np.testing.assert_allclose(out.reshape(4, -1), want.astype(np.float32), rtol=1e-6, atol=1e-6)


@pytest.mark.parametrize("x_shape", [(6,), (4, 6), (2, 3, 6)])
def test_any_row_block_tiles_the_features(monkeypatch, x_shape):
    monkeypatch.setattr(numerics, "_CAST_BYTES", 8 * 6 * 3)  # 3 rows of 6 inputs
    x, weight, bias = _draw(np.random.default_rng(len(x_shape)), x_shape, (8, 6), 6)
    want = unblocked_linear(x, weight, bias)
    got = _joined(_linear_sums(x, weight, bias), axis=-1)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(linear(x, weight, bias), want.astype(np.float32), rtol=1e-6, atol=1e-6)


@pytest.mark.parametrize("c_out", [25, 48, 50])
@pytest.mark.parametrize("stride, padding", [((1, 1), (1, 1)), ((2, 1), (0, 1))])
def test_any_row_block_tiles_the_kernel(monkeypatch, c_out, stride, padding):
    # a budget of one 24-row block splits the kernel into 24-row casts,
    # the last one partial unless c_out is a multiple of 24; several
    # column blocks each take every row block
    monkeypatch.setattr(numerics, "_CAST_BYTES", 8 * 27 * 30)
    monkeypatch.setattr(numerics, "_BLOCK_COLS", 20)
    assert numerics._cast_rows(27) == 24 < c_out
    x, kernel, bias = _draw(np.random.default_rng(c_out), (3, 11, 9), (c_out, 3, 3, 3), 27)
    want = unblocked_conv(x, kernel, bias, stride, padding)
    got = _joined(_conv2d_sums(x, kernel, bias, stride, padding), axis=1)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
    out = conv2d(x, kernel, bias, stride, padding)
    np.testing.assert_allclose(out.reshape(c_out, -1), want.astype(np.float32),
                               rtol=1e-6, atol=1e-6)


def test_kernel_cast_rows_rule():
    # rows aligned to 24 within 2 MB: encoder blocks 4 and 3 split, every
    # decoder conv and the head fit in one row block
    assert numerics._cast_rows(2304) == 96
    assert numerics._cast_rows(1152) == 216
    for _, _, k_shape, _, _ in conv_shapes():
        rows = numerics._cast_rows(int(np.prod(k_shape[1:])))
        assert rows % 24 == 0 and (rows * np.prod(k_shape[1:]) * 8 <= numerics._CAST_BYTES)
    decoder_and_head = [k for name, _, k, _, _ in conv_shapes() if not name.startswith("encoder")]
    assert all(numerics._cast_rows(int(np.prod(k[1:]))) >= k[0] for k in decoder_and_head)
    # a row wider than the budget still casts one aligned block
    assert numerics._cast_rows(numerics._CAST_BYTES) == 24


def _peak_mb(fn, *args):
    """Peak traced memory above the entry level during fn(*args)."""
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return (tracemalloc.get_traced_memory()[1] - entry) / 1e6
    finally:
        tracemalloc.stop()


def test_conv2d_scratch_bounded():
    # the 48x70x70 -> 32 decoder conv: its whole float64 window matrix
    # alone is 16.9 MB
    rng = np.random.default_rng(0)
    x, kernel, bias = _draw(rng, (48, 70, 70), (32, 48, 3, 3), 432)
    assert _peak_mb(conv2d, x, kernel, bias, (1, 1), (1, 1)) < 12.0


@pytest.mark.parametrize("x_shape, stride", [((256, 63, 5), (2, 2)), ((256, 63, 4), (2, 1))])
def test_encoder_conv_scratch_bounded(x_shape, stride):
    # encoder block 4 at widths 70 and 14: its [512, 2304] kernel alone
    # is 9.4 MB in float64
    rng = np.random.default_rng(0)
    x, kernel, bias = _draw(rng, x_shape, (512, 256, 3, 3), 2304)
    assert _peak_mb(conv2d, x, kernel, bias, stride, (1, 1)) < 6.0


def test_linear_scratch_bounded():
    # the seed projection: its float64 weight alone is 13.1 MB
    rng = np.random.default_rng(0)
    x, weight, bias = _draw(rng, (512,), (3200, 512), 512)
    assert _peak_mb(linear, x, weight, bias) < 3.0


if __name__ == "__main__":
    print(json.dumps(mismatches()))
