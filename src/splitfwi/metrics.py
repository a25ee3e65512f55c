"""Reconstruction fidelity metrics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .numerics import as_f32


@dataclass(frozen=True)
class SsimParams:
    """Structural-similarity settings: uniform window and the usual
    stabilizing constants, with the dynamic range of the compared maps."""

    window: int = 7
    k1: float = 0.01
    k2: float = 0.03
    dynamic_range: float = 3000.0

    def __post_init__(self):
        if self.window < 1 or self.window % 2 == 0:
            raise ShapeError(f"window must be odd and positive, got {self.window}")
        if self.k1 <= 0 or self.k2 <= 0:
            raise ShapeError("k1 and k2 must be positive")
        if self.dynamic_range <= 0:
            raise ShapeError(f"dynamic_range must be positive, got {self.dynamic_range}")


@dataclass(frozen=True, eq=False)
class SsimReference:
    """A map's per-window means and variances, the half of an SSIM score
    that depends on the reference alone.

    Scoring many maps against one ground truth computes these once; the
    window deviations are recomputed per score, so only two small arrays
    are kept beside the map.
    """

    values: np.ndarray  # [H, W] float64
    params: SsimParams
    mean: np.ndarray  # [H - window + 1, W - window + 1] float64
    var: np.ndarray  # same shape as mean


def _resolve(params: SsimParams | None, dynamic_range: float | None) -> SsimParams:
    if params is None:
        params = SsimParams()
    if dynamic_range is not None:
        params = SsimParams(window=params.window, k1=params.k1, k2=params.k2,
                            dynamic_range=dynamic_range)
    return params


def _deviations(v: np.ndarray, mean: np.ndarray, win: int) -> np.ndarray:
    """Each window of a 2-D map minus that window's mean."""
    return np.lib.stride_tricks.sliding_window_view(v, (win, win)) - mean[..., None, None]


def _window_stats(v: np.ndarray, win: int):
    """Per-window mean, deviations from it and variance of a 2-D map."""
    mean = np.lib.stride_tricks.sliding_window_view(v, (win, win)).mean(axis=(-2, -1))
    dev = _deviations(v, mean, win)
    return mean, dev, (dev * dev).mean(axis=(-2, -1))


def ssim_reference(b, params: SsimParams | None = None,
                   dynamic_range: float | None = None) -> SsimReference:
    """Window statistics of b, for `ssim(a, reference)`."""
    params = _resolve(params, dynamic_range)
    y = as_f32(b).astype(np.float64)
    if y.ndim != 2:
        raise ShapeError(f"ssim expects 2-D maps, got {y.shape}")
    if params.window > min(y.shape):
        raise ShapeError(f"window {params.window} larger than map {y.shape}")
    mean, _, var = _window_stats(y, params.window)
    return SsimReference(values=y, params=params, mean=mean, var=var)


def ssim(a, b, params: SsimParams | None = None, dynamic_range: float | None = None) -> float:
    """Mean local structural similarity over sliding windows.

    Symmetric in its arguments, 1.0 exactly for identical inputs, and
    bounded by [-1, 1].

    b is a map, or an `SsimReference` that `ssim_reference` built from
    one; a map is turned into its reference first. A reference's params
    apply unless others are given, which must equal them. Scoring many
    maps against one reference computes its window means and variances
    once; only a's statistics and the covariance are computed per call.
    """
    x = as_f32(a).astype(np.float64)
    if not isinstance(b, SsimReference):
        b = ssim_reference(b, params, dynamic_range)
    elif params is not None or dynamic_range is not None:
        params = _resolve(b.params if params is None else params, dynamic_range)
        if params != b.params:
            raise ShapeError(f"ssim params {params} differ from the reference's {b.params}")
    params = b.params
    if x.shape != b.values.shape:
        raise ShapeError(f"ssim inputs differ: {x.shape} vs {b.values.shape}")
    win = params.window
    mu_x, dx, var_x = _window_stats(x, win)
    mu_y, var_y = b.mean, b.var
    dy = _deviations(b.values, mu_y, win)
    c1 = (params.k1 * params.dynamic_range) ** 2
    c2 = (params.k2 * params.dynamic_range) ** 2
    cov = (dx * dy).mean(axis=(-2, -1))
    num = (2.0 * mu_x * mu_y + c1) * (2.0 * cov + c2)
    den = (mu_x * mu_x + mu_y * mu_y + c1) * (var_x + var_y + c2)
    return float((num / den).mean())


def loss_mae_mse(pred, gt, value_range=(1500.0, 4500.0)) -> float:
    """Equal-weight MAE + MSE over range-normalized maps."""
    p = as_f32(pred).astype(np.float64)
    g = as_f32(gt).astype(np.float64)
    if p.shape != g.shape:
        raise ShapeError(f"loss inputs differ: {p.shape} vs {g.shape}")
    lo, hi = float(value_range[0]), float(value_range[1])
    if not lo < hi:
        raise ShapeError(f"invalid value range {value_range}")
    span = hi - lo
    pn = (p - lo) / span
    gn = (g - lo) / span
    diff = pn - gn
    return float(0.5 * np.abs(diff).mean() + 0.5 * (diff * diff).mean())
