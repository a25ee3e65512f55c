import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitfwi.errors import ShapeError
from splitfwi.metrics import SsimParams, loss_mae_mse, ssim, ssim_reference


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

    def test_params_validated(self):
        with pytest.raises(ShapeError):
            SsimParams(window=8)
        with pytest.raises(ShapeError):
            SsimParams(k1=0.0)
        with pytest.raises(ShapeError):
            ssim(np.zeros((5, 5), np.float32), np.zeros((5, 5), np.float32))  # window 7 > 5

    @pytest.mark.parametrize("field, value, match", [
        ("dynamic_range", float("nan"), "must be finite"),
        ("dynamic_range", float("inf"), "must be finite"),
        ("k1", float("nan"), "must be finite"),
        ("k2", float("inf"), "must be finite"),
        ("window", True, "window must be an integer"),
    ])
    def test_non_finite_or_bool_params_rejected(self, field, value, match):
        with pytest.raises(ShapeError, match=match):
            SsimParams(**{field: value})


class TestLoss:
    def test_identity_zero(self, rng):
        x = rng.uniform(1500, 4500, size=(70, 70)).astype(np.float32)
        assert loss_mae_mse(x, x) == 0.0

    def test_unit_offset_in_normalized_units(self):
        gt = np.zeros((8, 8), np.float32)
        pred = np.ones((8, 8), np.float32)
        assert loss_mae_mse(pred, gt, value_range=(0.0, 1.0)) == pytest.approx(1.0)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(2)
        pred = rng.uniform(1500, 4500, size=(12, 12)).astype(np.float32)
        gt = rng.uniform(1500, 4500, size=(12, 12)).astype(np.float32)
        span = 3000.0
        acc_mae = 0.0
        acc_mse = 0.0
        for i in range(12):
            for j in range(12):
                d = (float(pred[i, j]) - 1500.0) / span - (float(gt[i, j]) - 1500.0) / span
                acc_mae += abs(d)
                acc_mse += d * d
        want = 0.5 * acc_mae / 144 + 0.5 * acc_mse / 144
        assert loss_mae_mse(pred, gt) == pytest.approx(want, abs=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            loss_mae_mse(np.zeros((4, 4), np.float32), np.zeros((4, 5), np.float32))


def ssim_two_maps(a, b, params):
    """The two-map formula that ssim used before it took references."""
    x = np.ascontiguousarray(a, dtype=np.float32).astype(np.float64)
    y = np.ascontiguousarray(b, dtype=np.float32).astype(np.float64)
    win = params.window
    c1 = (params.k1 * params.dynamic_range) ** 2
    c2 = (params.k2 * params.dynamic_range) ** 2
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
    window = draw(st.sampled_from([1, 3, 7]))
    h, w = draw(st.integers(window, 40)), draw(st.integers(window, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def one(kind):
        if kind == "constant":
            return np.full((h, w), rng.uniform(1500, 4500), dtype=np.float32)
        return rng.uniform(1500, 4500, size=(h, w)).astype(np.float32)

    a = one(draw(st.sampled_from(["random", "constant"])))
    b = a.copy() if draw(st.booleans()) else one(draw(st.sampled_from(["random", "constant"])))
    span = draw(st.sampled_from([1.0, 3000.0]))
    return a, b, SsimParams(window=window, dynamic_range=span)


class TestSsimReference:
    @given(map_pairs())
    @settings(max_examples=200, deadline=None)
    def test_matches_two_map_formula(self, case):
        a, b, params = case
        want = ssim_two_maps(a, b, params)
        assert ssim(a, b, params) == want
        assert ssim(b, a, params) == want == ssim_two_maps(b, a, params)
        assert ssim(a, ssim_reference(b, params)) == want
        assert ssim(b, ssim_reference(a, params)) == want
        assert ssim(a, ssim_reference(b, params), params) == want

    def test_identical_map_scores_one(self, rng):
        x = rng.uniform(1500, 4500, size=(70, 70)).astype(np.float32)
        assert ssim(x, ssim_reference(x)) == 1.0

    def test_dynamic_range_from_reference(self, rng):
        a = rng.uniform(0, 1, size=(20, 20)).astype(np.float32)
        b = rng.uniform(0, 1, size=(20, 20)).astype(np.float32)
        ref = ssim_reference(b, dynamic_range=1.0)
        assert ssim(a, ref) == ssim(a, b, dynamic_range=1.0) == ssim(a, ref, dynamic_range=1.0)

    def test_other_params_rejected(self, rng):
        a = rng.uniform(0, 1, size=(20, 20)).astype(np.float32)
        ref = ssim_reference(a, dynamic_range=1.0)
        with pytest.raises(ShapeError, match="reference"):
            ssim(a, ref, dynamic_range=2.0)
        with pytest.raises(ShapeError, match="reference"):
            ssim(a, ref, SsimParams(window=3, dynamic_range=1.0))

    def test_shapes_checked(self):
        ref = ssim_reference(np.zeros((10, 10), np.float32))
        with pytest.raises(ShapeError, match="differ"):
            ssim(np.zeros((10, 11), np.float32), ref)
        with pytest.raises(ShapeError, match="window 7"):
            ssim_reference(np.zeros((5, 5), np.float32))
        with pytest.raises(ShapeError, match="2-D"):
            ssim_reference(np.zeros((8, 8, 8), np.float32))
