"""Reconstruction fidelity metrics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, real_field
from .numerics import as_f32

# SSIM's uniform window and its usual stabilizing constants
WINDOW = 7
K1 = 0.01
K2 = 0.03


@dataclass(frozen=True, eq=False)
class SsimReference:
    """A map's per-window means and variances, the half of an SSIM score
    that depends on the reference alone.

    Scoring many maps against one ground truth computes these once; the
    window deviations are recomputed per score, so only two small arrays
    are kept beside the map.
    """

    values: np.ndarray  # [H, W] float64
    dynamic_range: float
    mean: np.ndarray  # [H - WINDOW + 1, W - WINDOW + 1] float64
    var: np.ndarray  # same shape as mean


def _deviations(v: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """Each window of a 2-D map minus that window's mean."""
    return np.lib.stride_tricks.sliding_window_view(v, (WINDOW, WINDOW)) - mean[..., None, None]


def _window_stats(v: np.ndarray):
    """Per-window mean, deviations from it and variance of a 2-D map."""
    mean = np.lib.stride_tricks.sliding_window_view(v, (WINDOW, WINDOW)).mean(axis=(-2, -1))
    dev = _deviations(v, mean)
    return mean, dev, (dev * dev).mean(axis=(-2, -1))


def ssim_reference(b, dynamic_range: float | None = None) -> SsimReference:
    """Window statistics of b, for `ssim(a, reference)`.

    dynamic_range is the span of the compared values, 3000 (the velocity
    span in m/s) unless given.
    """
    dynamic_range = real_field("dynamic_range", 3000.0 if dynamic_range is None else dynamic_range,
                               ShapeError, above=0)
    y = as_f32(b).astype(np.float64)
    if y.ndim != 2:
        raise ShapeError(f"ssim expects 2-D maps, got {y.shape}")
    if WINDOW > min(y.shape):
        raise ShapeError(f"window {WINDOW} larger than map {y.shape}")
    mean, _, var = _window_stats(y)
    return SsimReference(values=y, dynamic_range=dynamic_range, mean=mean, var=var)


def ssim(a, b, dynamic_range: float | None = None) -> float:
    """Mean local structural similarity over sliding windows.

    Symmetric in its arguments, 1.0 exactly for identical inputs, and
    bounded by [-1, 1].

    b is a map, or an `SsimReference` that `ssim_reference` built from
    one; a map is turned into its reference first. A reference's dynamic
    range applies; one given with a reference must equal it. Scoring many
    maps against one reference computes its window means and variances
    once; only a's statistics and the covariance are computed per call.
    """
    x = as_f32(a).astype(np.float64)
    if not isinstance(b, SsimReference):
        b = ssim_reference(b, dynamic_range)
    elif (dynamic_range is not None and real_field("dynamic_range", dynamic_range, ShapeError,
                                                    above=0) != b.dynamic_range):
        raise ShapeError(f"ssim dynamic_range {dynamic_range} differs from the "
                         f"reference's {b.dynamic_range}")
    if x.shape != b.values.shape:
        raise ShapeError(f"ssim inputs differ: {x.shape} vs {b.values.shape}")
    mu_x, dx, var_x = _window_stats(x)
    mu_y, var_y = b.mean, b.var
    dy = _deviations(b.values, mu_y)
    c1 = (K1 * b.dynamic_range) ** 2
    c2 = (K2 * b.dynamic_range) ** 2
    cov = (dx * dy).mean(axis=(-2, -1))
    num = (2.0 * mu_x * mu_y + c1) * (2.0 * cov + c2)
    den = (mu_x * mu_x + mu_y * mu_y + c1) * (var_x + var_y + c2)
    return float((num / den).mean())
