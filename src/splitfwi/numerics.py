"""Dense numeric kernels shared by the model and physics code.

All kernels take and return float32 arrays. Dot products accumulate in
float64 and round to float32 on store, which keeps comparisons against
scalar reference loops tight and the arithmetic order stable. Every kernel
is pure: identical inputs produce bit-identical outputs.

conv2d lowers to one GEMM over a channel-major window matrix (see its
docstring); tests/test_map_bits.py keeps the row-major form it replaced
as a byte-for-byte reference. Bit-identity here is a property of the
float32 outputs: the float64 sums beneath them depend on which BLAS
kernel runs, and can change in the last bit with the operand layout or
the BLAS thread count.
"""

from __future__ import annotations

import numpy as np

from .errors import EmptySupportError, ShapeError

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


def as_f32(x) -> np.ndarray:
    """Coerce to a contiguous float32 array."""
    return np.ascontiguousarray(x, dtype=np.float32)


def conv2d(x, kernel, bias, stride=(1, 1), padding=(0, 0)) -> np.ndarray:
    """Convolve [C_in,H,W] with [C_out,C_in,kh,kw] (cross-correlation).

    Zero padding, integer strides. Each output element is the dot product
    of the kernel with the padded input window plus the channel bias.
    The input is written once into a zeroed float64 buffer, and its
    windows form a channel-major matrix [C_in*kh*kw, H'*W'], so the GEMM
    kernel @ windows yields [C_out, H'*W'] with no transpose on either
    side. Against a row-major window matrix [H'*W', C_in*kh*kw] only the
    M and N roles of the GEMM swap, and the K axis keeps the kernel's
    (c, kh, kw) order. The swap does change which BLAS kernel and tiling
    run (a vector-matrix gemv when C_out == 1), so a float64 sum can
    differ from the row-major one in its last bit; the float32 output
    matched the row-major form byte for byte on every tested input, but
    that is measured, not guaranteed.
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
    xp = np.zeros((c_in, h + 2 * ph, w + 2 * pw), dtype=np.float64)
    xp[:, ph : ph + h, pw : pw + w] = x
    out_h = (h + 2 * ph - kh) // sh + 1
    out_w = (w + 2 * pw - kw) // sw + 1
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(1, 2))[:, ::sh, ::sw]
    cols = windows.transpose(0, 3, 4, 1, 2).reshape(c_in * kh * kw, out_h * out_w)
    km = kernel.reshape(c_out, c_in * kh * kw).astype(np.float64)
    out = km @ cols
    out += bias.astype(np.float64)[:, None]
    return out.reshape(c_out, out_h, out_w).astype(np.float32)


def linear(x, weight, bias) -> np.ndarray:
    """Affine map along the trailing axis: y = x @ W^T + b."""
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
    y = x.astype(np.float64) @ weight.astype(np.float64).T
    y += bias.astype(np.float64)
    return y.astype(np.float32)


def softmax(scores, mask=None) -> np.ndarray:
    """Exp-normalize along the trailing axis with max-subtraction.

    ``mask`` marks the trailing entries that participate (True = keep); it
    applies to every row. Masked entries come out exactly 0 and each row of
    kept entries sums to 1.
    """
    scores = as_f32(scores)
    k = scores.shape[-1]
    s = scores.astype(np.float64)
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (k,):
            raise ShapeError(f"softmax mask {mask.shape} does not match trailing extent {k}")
        if not mask.any():
            raise EmptySupportError("softmax: all entries masked, empty support")
        s = s[..., mask]
    m = s.max(axis=-1, keepdims=True)
    e = np.exp(s - m)
    p = e / e.sum(axis=-1, keepdims=True)
    if mask is None:
        return p.astype(np.float32)
    out = np.zeros(scores.shape, dtype=np.float32)
    out[..., mask] = p.astype(np.float32)
    return out


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
    _, h, w = grid.shape
    ry = (np.arange(th) * h) // th
    rx = (np.arange(tw) * w) // tw
    return grid[:, ry][:, :, rx].copy()


def leaky_relu(x, slope: float = 0.1) -> np.ndarray:
    """Elementwise max(x, slope * x) for slope in [0, 1)."""
    if not 0.0 <= slope < 1.0:
        raise ValueError(f"leaky_relu slope must be in [0, 1), got {slope}")
    x = as_f32(x)
    return np.maximum(x, np.float32(slope) * x)


def global_avg_pool(x) -> np.ndarray:
    """Per-channel arithmetic mean of [C,H,W], returned as [C,1,1]."""
    x = as_f32(x)
    if x.ndim != 3:
        raise ShapeError(f"global_avg_pool expects [C,H,W], got {x.shape}")
    m = x.astype(np.float64).mean(axis=(1, 2))
    return m.astype(np.float32).reshape(-1, 1, 1)
