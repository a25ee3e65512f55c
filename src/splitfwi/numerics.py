"""Dense numeric kernels shared by the model and physics code.

All kernels take and return float32 arrays. Dot products accumulate in
float64 and round to float32 on store, which keeps comparisons against
scalar reference loops tight and the arithmetic order stable. Every kernel
is pure: identical inputs produce bit-identical outputs.

conv2d and linear accumulate block by block, so no call holds a float64
copy of a whole layer: conv2d multiplies kernel row blocks of at most
2 MB, cast to float64 one at a time, by fixed-width column blocks of a
channel-major window matrix, and linear casts its weight in row blocks
(see `_conv2d_sums` and `_linear_sums`).
tests/test_map_bits.py keeps the row-major conv that the channel-major
one replaced as a byte-for-byte reference of the float32 outputs.
The float64 sums beneath them depend on which BLAS kernel runs, and can
change in the last bit with the operand layout, the block width or the
BLAS thread count; tests/test_blocked_sums.py checks that, under one
BLAS thread, the blocked sums equal one whole-layer product on every
full-size layer of the model.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError

__all__ = [
    "as_f32",
    "conv2d",
    "linear",
    "softmax",
    "bilinear_resize",
    "nearest_resize",
    "leaky_relu",
    "global_avg_pool",
]

LEAKY_SLOPE = 0.1  # the model's one activation slope


def as_f32(x) -> np.ndarray:
    """Coerce to a contiguous float32 array."""
    return np.ascontiguousarray(x, dtype=np.float32)


def conv2d(x, kernel, bias, stride=(1, 1), padding=(0, 0)) -> np.ndarray:
    """Convolve [C_in,H,W] with [C_out,C_in,kh,kw] (cross-correlation).

    Zero padding, integer strides. Each output element is the dot product
    of the kernel with the padded input window plus the channel bias, in
    float64, stored as float32. The sums come from `_conv2d_sums`, one
    block of output positions at a time, so no call holds a float64 copy
    of the whole layer; see there for the layout and why the blocks keep
    each sum's arithmetic.
    """
    x = as_f32(x)
    kernel = as_f32(kernel)
    bias = as_f32(bias)
    if x.ndim != 3 or kernel.ndim != 4:
        raise ShapeError(
            f"conv2d expects input [C,H,W] and kernel [O,C,kh,kw], "
            f"got input {x.shape} and kernel {kernel.shape}"
        )
    c_in, h, w = x.shape
    c_out, kc, kh, kw = kernel.shape
    if kc != c_in:
        raise ShapeError(f"conv2d channel mismatch: input {x.shape} vs kernel {kernel.shape}")
    if bias.shape != (c_out,):
        raise ShapeError(f"conv2d bias {bias.shape} does not match kernel {kernel.shape}")
    sh, sw = int(stride[0]), int(stride[1])
    ph, pw = int(padding[0]), int(padding[1])
    if sh < 1 or sw < 1:
        raise ShapeError(f"conv2d strides must be >= 1, got {stride!r}")
    if kh > h + 2 * ph or kw > w + 2 * pw:
        raise ShapeError(
            f"conv2d kernel {kernel.shape} exceeds padded input {x.shape} with padding {padding!r}"
        )
    out_h = (h + 2 * ph - kh) // sh + 1
    out_w = (w + 2 * pw - kw) // sw + 1
    out = np.empty((c_out, out_h * out_w), dtype=np.float32)
    for start, sums in _conv2d_sums(x, kernel, bias, (sh, sw), (ph, pw)):
        out[:, start : start + sums.shape[1]] = sums
    return out.reshape(c_out, out_h, out_w)


# Output positions per conv2d GEMM block. With one BLAS thread, 2048
# columns give float64 sums equal to one whole-layer GEMM on every
# full-size layer of the model, while 512 and 1024 do not (see
# tests/test_blocked_sums.py). The window block is C_in*kh*kw x 2048
# float64: 7.1 MB on the 70x70 decoder conv, the model's largest.
_BLOCK_COLS = 2048

# Kernel rows per conv2d float64 cast block come in multiples of this.
# Under the 2 MB budget only encoder blocks 3 and 4 split: [256, 1152]
# into 216 + 40 rows and [512, 2304] into 5 x 96 + 32 (1.8 MB cast
# instead of 9.4 MB). With one BLAS thread (OpenBLAS, SkylakeX core)
# these splits give float64 sums equal to the whole-kernel GEMM on every
# conv of the model, and so did 96, 144, 192, 288 and 480 rows on every
# conv; 16, 32, 64, 80, 128, 160 and 224 rows did not, nor did 24 or 48
# rows on every conv (the short last blocks of encoder blocks 0 and 1).
# tests/test_blocked_sums.py is the check, not the alignment itself.
_ROW_ALIGN = 24


def _conv2d_sums(x, kernel, bias, stride, padding):
    """Yield (start, sums): the float64 kernel sums plus bias, [C_out, n],
    of flat output positions [start, start + n), block by block.

    Arguments are conv2d's, already checked. The input is padded in
    float32, which is exact. Each block copies its positions' windows
    into one reused float64 block of the channel-major window matrix
    [C_in*kh*kw, positions], so the GEMM kernel @ windows needs no
    transpose on either side and the K axis keeps the kernel's
    (c, kh, kw) order. Against a row-major window matrix only the GEMM's
    M and N roles swap, but that changes which BLAS kernel runs (a gemv
    when C_out == 1), so a float64 sum can differ from the row-major one
    in its last bit; the float32 outputs matched on every tested input,
    which is measured, not guaranteed. The kernel is cast to float64 in
    row blocks of `_cast_rows` rows, at most `_CAST_BYTES` each, and each
    row block's product is written into its rows of the column block's
    sums; a kernel within the budget is one row block, cast again for
    each column block (the decoder's at most three). Row blocks start at
    multiples of `_ROW_ALIGN`; on every conv of the model the resulting
    float64 sums equal the whole-kernel product, which other splits did
    not (measured; see `_ROW_ALIGN`).
    """
    c_out, c_in, kh, kw = kernel.shape
    (sh, sw), (ph, pw) = stride, padding
    xp = np.pad(x, ((0, 0), (ph, ph), (pw, pw))) if ph or pw else x
    # [C_in, kh, kw, H', W'], a view of the padded input
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(1, 2))[
        :, ::sh, ::sw
    ].transpose(0, 3, 4, 1, 2)
    positions = windows.shape[3] * windows.shape[4]
    block = np.empty((c_in, kh, kw, min(_BLOCK_COLS, positions)), dtype=np.float64)
    cols = block.reshape(c_in * kh * kw, block.shape[3])
    km = kernel.reshape(c_out, c_in * kh * kw)
    rows = _cast_rows(km.shape[1])
    b64 = bias.astype(np.float64)[:, None]
    for start in range(0, positions, block.shape[3]):
        stop = min(start + block.shape[3], positions)
        _fill_windows(block, windows, start, stop)
        sums = np.empty((c_out, stop - start), dtype=np.float64)
        for r in range(0, c_out, rows):
            # a temporary, so no cast outlives its own product
            np.matmul(km[r : r + rows].astype(np.float64), cols[:, : stop - start],
                      out=sums[r : r + rows])
        sums += b64
        yield start, sums


def _cast_rows(k: int) -> int:
    """Kernel rows of K columns that conv2d casts to float64 at once: a
    multiple of _ROW_ALIGN, at most _CAST_BYTES unless that is below one
    aligned block."""
    return max(_ROW_ALIGN, _CAST_BYTES // (8 * k) // _ROW_ALIGN * _ROW_ALIGN)


def _fill_windows(block, windows, start, stop) -> None:
    """Copy flat output positions [start, stop) of windows [..., H', W']
    into block[..., :stop - start]: the rest of a row, then whole rows,
    then the head of a row."""
    out_w = windows.shape[-1]
    pos = start
    while pos < stop:
        row, col = divmod(pos, out_w)
        at = pos - start
        if col == 0 and stop - pos >= out_w:
            rows = (stop - pos) // out_w
            dst = block[..., at : at + rows * out_w]
            # splitting the last axis of a slice is always a view
            dst.reshape(dst.shape[:-1] + (rows, out_w))[...] = windows[..., row : row + rows, :]
            pos += rows * out_w
        else:
            n = min(out_w - col, stop - pos)
            block[..., at : at + n] = windows[..., row, col : col + n]
            pos += n


# Bytes of float64 weight that linear and conv2d cast at once. The seed
# projection's weight is 13.1 MB in float64; 2 MB row blocks gave the
# same sums as the whole cast (see tests/test_blocked_sums.py).
_CAST_BYTES = 2 << 20


def linear(x, weight, bias) -> np.ndarray:
    """Affine map along the trailing axis: y = x @ W^T + b.

    Accumulates in float64 and stores float32. The sums come from
    `_linear_sums`, which casts the weight to float64 in row blocks of at
    most 2 MB, so no call holds a float64 copy of a large weight.
    """
    x = as_f32(x)
    weight = as_f32(weight)
    bias = as_f32(bias)
    if weight.ndim != 2:
        raise ShapeError(f"linear weight must be 2-D, got {weight.shape}")
    d_out, d_in = weight.shape
    if x.ndim < 1 or x.shape[-1] != d_in:
        raise ShapeError(f"linear input {x.shape} does not match weight {weight.shape}")
    if bias.shape != (d_out,):
        raise ShapeError(f"linear bias {bias.shape} does not match weight {weight.shape}")
    out = np.empty(x.shape[:-1] + (d_out,), dtype=np.float32)
    for start, sums in _linear_sums(x, weight, bias):
        out[..., start : start + sums.shape[-1]] = sums
    return out


def _linear_sums(x, weight, bias):
    """Yield (start, sums): the float64 x @ W^T + b of output features
    [start, start + n), one row block of the weight at a time.

    Arguments are linear's, already checked. Each output feature is one
    row of the weight, so a row block keeps every sum's operands;
    tests/test_blocked_sums.py checks that it keeps their float64
    results too."""
    d_out, d_in = weight.shape
    rows = max(1, _CAST_BYTES // (8 * max(1, d_in)))
    x64 = x.astype(np.float64)
    b64 = bias.astype(np.float64)
    for start in range(0, d_out, rows):
        sums = x64 @ weight[start : start + rows].astype(np.float64).T
        sums += b64[start : start + rows]
        yield start, sums


def softmax(scores) -> np.ndarray:
    """Exp-normalize along the trailing axis with max-subtraction."""
    s = as_f32(scores).astype(np.float64)
    m = s.max(axis=-1, keepdims=True)
    e = np.exp(s - m)
    p = e / e.sum(axis=-1, keepdims=True)
    return p.astype(np.float32)


def _axis_coords(n_src: int, n_dst: int):
    # Corner-aligned sampling. Products are formed before the division so
    # exact integer positions stay exact and corners are fixed points.
    if n_dst == 1 or n_src == 1:
        return np.zeros(n_dst, dtype=np.intp), np.zeros(n_dst, dtype=np.float64)
    pos = (np.arange(n_dst) * (n_src - 1)) / (n_dst - 1)
    lo = np.floor(pos).astype(np.intp)
    return lo, pos - lo


def bilinear_resize(grid, target) -> np.ndarray:
    """Corner-aligned bilinear resampling of [C,H,W] to [C,H',W']."""
    grid = as_f32(grid)
    if grid.ndim != 3:
        raise ShapeError(f"bilinear_resize expects [C,H,W], got {grid.shape}")
    th, tw = int(target[0]), int(target[1])
    if th < 1 or tw < 1:
        raise ShapeError(f"bilinear_resize target {target!r} must have positive extents")
    c, h, w = grid.shape
    if (th, tw) == (h, w):
        return grid.copy()
    g = grid.astype(np.float64)
    ylo, ty = _axis_coords(h, th)
    xlo, tx = _axis_coords(w, tw)
    yhi = np.minimum(ylo + 1, h - 1)
    xhi = np.minimum(xlo + 1, w - 1)
    p00 = g[:, ylo][:, :, xlo]
    p01 = g[:, ylo][:, :, xhi]
    p10 = g[:, yhi][:, :, xlo]
    p11 = g[:, yhi][:, :, xhi]
    # chained lerps in a + t*(b-a) form, so constant fields survive exactly
    upper = p00 + tx[None, None, :] * (p01 - p00)
    lower = p10 + tx[None, None, :] * (p11 - p10)
    out = upper + ty[None, :, None] * (lower - upper)
    return out.astype(np.float32)


def nearest_resize(grid, target) -> np.ndarray:
    """Nearest-neighbour resampling of [C,H,W] via floor index mapping."""
    grid = as_f32(grid)
    if grid.ndim != 3:
        raise ShapeError(f"nearest_resize expects [C,H,W], got {grid.shape}")
    th, tw = int(target[0]), int(target[1])
    if th < 1 or tw < 1:
        raise ShapeError(f"nearest_resize target {target!r} must have positive extents")
    c, h, w = grid.shape
    ry = (np.arange(th) * h) // th
    rx = (np.arange(tw) * w) // tw
    # one gather over each flat channel plane, which comes back C-contiguous
    return grid.reshape(c, h * w).take(ry[:, None] * w + rx, axis=1)


def leaky_relu(x) -> np.ndarray:
    """Elementwise max(x, LEAKY_SLOPE * x)."""
    x = as_f32(x)
    return np.maximum(x, np.float32(LEAKY_SLOPE) * x)


def global_avg_pool(x) -> np.ndarray:
    """Per-channel arithmetic mean of [C,H,W], returned as [C,1,1]."""
    x = as_f32(x)
    if x.ndim != 3:
        raise ShapeError(f"global_avg_pool expects [C,H,W], got {x.shape}")
    m = x.astype(np.float64).mean(axis=(1, 2))
    return m.astype(np.float32).reshape(-1, 1, 1)
