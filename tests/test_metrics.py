import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitfwi.errors import ShapeError
from splitfwi.metrics import ssim, ssim_reference


class TestSsim:
    def test_identity_is_exactly_one(self, rng):
        x = rng.uniform(1500, 4500, size=(70, 70)).astype(np.float32)
        assert ssim(x, x) == 1.0

    def test_constant_fields_closed_form(self):
        # a = 0, b = L with unit dynamic range: score = C1 / (1 + C1)
        a = np.zeros((70, 70), np.float32)
        b = np.ones((70, 70), np.float32)
        c1 = (0.01 * 1.0) ** 2
        want = c1 / (1.0 + c1)
        got = ssim(a, b, dynamic_range=1.0)
        assert abs(got - want) <= 1e-9

    def test_symmetric(self, rng):
        a = rng.uniform(1500, 4500, size=(40, 40)).astype(np.float32)
        b = rng.uniform(1500, 4500, size=(40, 40)).astype(np.float32)
        assert abs(ssim(a, b) - ssim(b, a)) <= 1e-9

    def test_range_bounds(self, rng):
        a = rng.uniform(0, 1, size=(30, 30)).astype(np.float32)
        b = (1.0 - a).astype(np.float32)
        score = ssim(a, b, dynamic_range=1.0)
        assert -1.0 <= score <= 1.0

    def test_translation_nearly_invariant(self, rng):
        # the contrast/structure term is exactly shift-invariant; the
        # luminance term is not, so a common 250 m/s shift moves the
        # score only at the ~1e-6 level for maps in the working range
        a = rng.uniform(1500, 4500, size=(40, 40)).astype(np.float32)
        b = rng.uniform(1500, 4500, size=(40, 40)).astype(np.float32)
        base = ssim(a, b)
        shifted = ssim(a + 250.0, b + 250.0)
        assert abs(base - shifted) <= 5e-5

    def test_identity_survives_translation(self, rng):
        x = rng.uniform(1500, 4500, size=(30, 30)).astype(np.float32)
        assert ssim(x + 300.0, x + 300.0) == 1.0

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            ssim(np.zeros((10, 10), np.float32), np.zeros((10, 11), np.float32))

    def test_window_larger_than_map_rejected(self):
        with pytest.raises(ShapeError):
            ssim(np.zeros((5, 5), np.float32), np.zeros((5, 5), np.float32))  # window 7 > 5

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1.0])
    def test_non_finite_or_non_positive_dynamic_range_rejected(self, value):
        x = np.zeros((8, 8), np.float32)
        with pytest.raises(ShapeError, match="must be finite and > 0"):
            ssim_reference(x, dynamic_range=value)
        with pytest.raises(ShapeError, match="must be finite and > 0"):
            ssim(x, x, dynamic_range=value)

    @pytest.mark.parametrize("value", ["3", True, [3.0]])
    def test_mistyped_dynamic_range_rejected(self, value):
        # a str or a list leaked a bare TypeError, and True was read as 1;
        # given with a reference, "3" was reported as differing from its 3.0
        x = np.zeros((8, 8), np.float32)
        with pytest.raises(ShapeError, match="dynamic_range must be a real number"):
            ssim_reference(x, dynamic_range=value)
        with pytest.raises(ShapeError, match="dynamic_range must be a real number"):
            ssim(x, ssim_reference(x, dynamic_range=3.0), dynamic_range=value)


def ssim_two_maps(a, b, dynamic_range):
    """The two-map formula that ssim used before it took references, with
    its 7 × 7 window and constants 0.01 and 0.03."""
    x = np.ascontiguousarray(a, dtype=np.float32).astype(np.float64)
    y = np.ascontiguousarray(b, dtype=np.float32).astype(np.float64)
    win = 7
    c1 = (0.01 * dynamic_range) ** 2
    c2 = (0.03 * dynamic_range) ** 2
    wx = np.lib.stride_tricks.sliding_window_view(x, (win, win))
    wy = np.lib.stride_tricks.sliding_window_view(y, (win, win))
    mu_x = wx.mean(axis=(-2, -1))
    mu_y = wy.mean(axis=(-2, -1))
    dx = wx - mu_x[..., None, None]
    dy = wy - mu_y[..., None, None]
    var_x = (dx * dx).mean(axis=(-2, -1))
    var_y = (dy * dy).mean(axis=(-2, -1))
    cov = (dx * dy).mean(axis=(-2, -1))
    num = (2.0 * mu_x * mu_y + c1) * (2.0 * cov + c2)
    den = (mu_x * mu_x + mu_y * mu_y + c1) * (var_x + var_y + c2)
    return float((num / den).mean())


@st.composite
def map_pairs(draw):
    """Two maps of one shape: random, constant or identical."""
    h, w = draw(st.integers(7, 40)), draw(st.integers(7, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def one(kind):
        if kind == "constant":
            return np.full((h, w), rng.uniform(1500, 4500), dtype=np.float32)
        return rng.uniform(1500, 4500, size=(h, w)).astype(np.float32)

    a = one(draw(st.sampled_from(["random", "constant"])))
    b = a.copy() if draw(st.booleans()) else one(draw(st.sampled_from(["random", "constant"])))
    span = draw(st.sampled_from([1.0, 3000.0]))
    return a, b, span


class TestSsimReference:
    @given(map_pairs())
    @settings(max_examples=200, deadline=None)
    def test_matches_two_map_formula(self, case):
        a, b, span = case
        want = ssim_two_maps(a, b, span)
        assert ssim(a, b, span) == want
        assert ssim(b, a, span) == want == ssim_two_maps(b, a, span)
        assert ssim(a, ssim_reference(b, span)) == want
        assert ssim(b, ssim_reference(a, span)) == want
        assert ssim(a, ssim_reference(b, span), span) == want

    def test_identical_map_scores_one(self, rng):
        x = rng.uniform(1500, 4500, size=(70, 70)).astype(np.float32)
        assert ssim(x, ssim_reference(x)) == 1.0

    def test_dynamic_range_from_reference(self, rng):
        a = rng.uniform(0, 1, size=(20, 20)).astype(np.float32)
        b = rng.uniform(0, 1, size=(20, 20)).astype(np.float32)
        ref = ssim_reference(b, dynamic_range=1.0)
        assert ssim(a, ref) == ssim(a, b, dynamic_range=1.0) == ssim(a, ref, dynamic_range=1.0)

    def test_other_dynamic_range_rejected(self, rng):
        a = rng.uniform(0, 1, size=(20, 20)).astype(np.float32)
        ref = ssim_reference(a, dynamic_range=1.0)
        with pytest.raises(ShapeError, match="reference"):
            ssim(a, ref, dynamic_range=2.0)

    def test_shapes_checked(self):
        ref = ssim_reference(np.zeros((10, 10), np.float32))
        with pytest.raises(ShapeError, match="differ"):
            ssim(np.zeros((10, 11), np.float32), ref)
        with pytest.raises(ShapeError, match="window 7"):
            ssim_reference(np.zeros((5, 5), np.float32))
        with pytest.raises(ShapeError, match="2-D"):
            ssim_reference(np.zeros((8, 8, 8), np.float32))
