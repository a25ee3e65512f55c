import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitfwi.errors import ShapeError
from splitfwi.numerics import (
    bilinear_resize,
    conv2d,
    global_avg_pool,
    leaky_relu,
    linear,
    nearest_resize,
    softmax,
)


def conv2d_loop(x, kernel, bias, stride, padding):
    """Scalar triple-loop reference, float64 accumulation."""
    c_in, h, w = x.shape
    c_out, _, kh, kw = kernel.shape
    sh, sw = stride
    ph, pw = padding
    xp = np.pad(x.astype(np.float64), ((0, 0), (ph, ph), (pw, pw)))
    out_h = (h + 2 * ph - kh) // sh + 1
    out_w = (w + 2 * pw - kw) // sw + 1
    out = np.zeros((c_out, out_h, out_w), dtype=np.float64)
    for o in range(c_out):
        for i in range(out_h):
            for j in range(out_w):
                acc = 0.0
                for c in range(c_in):
                    for a in range(kh):
                        for b in range(kw):
                            acc += xp[c, i * sh + a, j * sw + b] * float(kernel[o, c, a, b])
                out[o, i, j] = acc + float(bias[o])
    return out.astype(np.float32)


def linear_loop(x, weight, bias):
    flat = x.reshape(-1, x.shape[-1]).astype(np.float64)
    out = np.zeros((flat.shape[0], weight.shape[0]), dtype=np.float64)
    for r in range(flat.shape[0]):
        for o in range(weight.shape[0]):
            acc = 0.0
            for i in range(weight.shape[1]):
                acc += flat[r, i] * float(weight[o, i])
            out[r, o] = acc + float(bias[o])
    return out.astype(np.float32).reshape(x.shape[:-1] + (weight.shape[0],))


class TestConv2d:
    def test_identity_kernel(self, rng):
        x = rng.normal(size=(3, 5, 5)).astype(np.float32)
        kernel = np.zeros((3, 3, 1, 1), dtype=np.float32)
        for c in range(3):
            kernel[c, c, 0, 0] = 1.0
        out = conv2d(x, kernel, np.zeros(3, np.float32))
        np.testing.assert_array_equal(out, x)

    def test_uniform_field(self):
        x = np.ones((1, 4, 4), dtype=np.float32)
        kernel = np.ones((1, 1, 3, 3), dtype=np.float32)
        out = conv2d(x, kernel, np.zeros(1, np.float32))
        assert out.shape == (1, 2, 2)
        np.testing.assert_array_equal(out, np.full((1, 2, 2), 9.0, np.float32))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_loop_oracle(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(2, 8, 8)).astype(np.float32)
        kernel = rng.normal(size=(3, 2, 3, 3)).astype(np.float32)
        bias = rng.normal(size=3).astype(np.float32)
        got = conv2d(x, kernel, bias, stride=(2, 2), padding=(1, 1))
        want = conv2d_loop(x, kernel, bias, (2, 2), (1, 1))
        np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-6)

    def test_shape_errors_name_operands(self):
        x = np.zeros((2, 4, 4), np.float32)
        kernel = np.zeros((3, 5, 3, 3), np.float32)
        with pytest.raises(ShapeError, match=r"\(2, 4, 4\).*\(3, 5, 3, 3\)"):
            conv2d(x, kernel, np.zeros(3, np.float32))
        with pytest.raises(ShapeError, match="exceeds"):
            conv2d(x, np.zeros((1, 2, 7, 7), np.float32), np.zeros(1, np.float32))
        with pytest.raises(ShapeError, match="strides"):
            conv2d(x, np.zeros((1, 2, 3, 3), np.float32), np.zeros(1, np.float32), stride=(0, 1))

    def test_deterministic(self, rng):
        x = rng.normal(size=(2, 6, 6)).astype(np.float32)
        k = rng.normal(size=(4, 2, 3, 3)).astype(np.float32)
        b = rng.normal(size=4).astype(np.float32)
        a = conv2d(x, k, b, (1, 1), (1, 1))
        np.testing.assert_array_equal(a, conv2d(x, k, b, (1, 1), (1, 1)))


class TestLinear:
    def test_identity(self, rng):
        x = rng.normal(size=(4, 3)).astype(np.float32)
        out = linear(x, np.eye(3, dtype=np.float32), np.zeros(3, np.float32))
        np.testing.assert_array_equal(out, x)

    def test_hand_arithmetic(self):
        out = linear(
            np.array([1.0, 2.0], np.float32),
            np.array([[1.0, 1.0], [1.0, -1.0]], np.float32),
            np.zeros(2, np.float32),
        )
        np.testing.assert_array_equal(out, np.array([3.0, -1.0], np.float32))

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(7, 16)).astype(np.float32)
        w = rng.normal(size=(8, 16)).astype(np.float32)
        b = rng.normal(size=8).astype(np.float32)
        np.testing.assert_allclose(linear(x, w, b), linear_loop(x, w, b), rtol=1e-6, atol=1e-6)

    def test_shape_error(self):
        with pytest.raises(ShapeError, match="does not match"):
            linear(np.zeros((2, 5), np.float32), np.zeros((3, 4), np.float32), np.zeros(3, np.float32))


class TestSoftmax:
    def test_uniform_row(self):
        out = softmax(np.zeros(4, np.float32))
        np.testing.assert_array_equal(out, np.full(4, 0.25, np.float32))

    def test_matches_scalar_oracle(self):
        row = np.array([1.0, 2.0, 3.0], np.float64)
        e = np.exp(row - row.max())
        want = e / e.sum()
        got = softmax(row.astype(np.float32))
        np.testing.assert_allclose(got, want, atol=1e-7)

    @given(
        scores=st.lists(st.floats(-50, 50), min_size=1, max_size=8),
        shift=st.floats(-30, 30),
    )
    @settings(max_examples=100, deadline=None)
    def test_rows_sum_to_one_and_shift_invariant(self, scores, shift):
        row = np.asarray(scores, dtype=np.float32)
        p = softmax(row)
        assert abs(float(p.sum()) - 1.0) <= 1e-6
        q = softmax(row + np.float32(shift))
        np.testing.assert_allclose(p, q, atol=1e-6)


class TestBilinearResize:
    def test_identity_target(self, rng):
        g = rng.normal(size=(2, 4, 5)).astype(np.float32)
        np.testing.assert_array_equal(bilinear_resize(g, (4, 5)), g)

    def test_constant_preserved_exactly(self):
        g = np.full((1, 3, 3), 3.5, np.float32)
        out = bilinear_resize(g, (7, 5))
        np.testing.assert_array_equal(out, np.full((1, 7, 5), 3.5, np.float32))

    def test_center_value(self):
        g = np.array([[[0.0, 1.0], [2.0, 3.0]]], np.float32)
        out = bilinear_resize(g, (3, 3))
        assert out[0, 1, 1] == pytest.approx(1.5, abs=1e-7)

    def test_corners_coincide(self, rng):
        g = rng.normal(size=(1, 4, 6)).astype(np.float32)
        out = bilinear_resize(g, (9, 11))
        assert out[0, 0, 0] == g[0, 0, 0]
        assert out[0, -1, 0] == g[0, -1, 0]
        assert out[0, 0, -1] == g[0, 0, -1]
        assert out[0, -1, -1] == g[0, -1, -1]

    def test_zero_target_rejected(self):
        with pytest.raises(ShapeError):
            bilinear_resize(np.zeros((1, 2, 2), np.float32), (0, 3))


class TestSmallKernels:
    def test_leaky_relu_definition(self):
        out = leaky_relu(np.array([-1.0, 2.0], np.float32))
        np.testing.assert_allclose(out, [-0.1, 2.0], rtol=1e-7)

    def test_pool_constant(self):
        out = global_avg_pool(np.full((3, 4, 5), 2.25, np.float32))
        np.testing.assert_array_equal(out, np.full((3, 1, 1), 2.25, np.float32))

    def test_pool_hand_value(self):
        x = np.array([[[1.0, 3.0], [5.0, 7.0]]], np.float32)
        assert global_avg_pool(x)[0, 0, 0] == 4.0

    def test_nearest_resize_upsample(self):
        g = np.arange(4, dtype=np.float32).reshape(1, 2, 2)
        out = nearest_resize(g, (4, 4))
        np.testing.assert_array_equal(out[0, :2, :2], np.full((2, 2), 0.0))
        np.testing.assert_array_equal(out[0, 2:, 2:], np.full((2, 2), 3.0))

    @pytest.mark.parametrize("source, target", [
        ((5, 5), (9, 9)), ((9, 9), (18, 18)), ((18, 18), (35, 35)), ((35, 35), (70, 70)),
        ((70, 70), (18, 18)), ((7, 12), (20, 5)),
    ], ids=["5-9", "9-18", "18-35", "35-70", "down-70-18", "non-square"])
    def test_nearest_resize_is_the_floor_index_map(self, source, target):
        (h, w), (th, tw) = source, target
        g = np.random.default_rng(0).normal(size=(3, h, w)).astype(np.float32)
        out = nearest_resize(g, target)
        want = np.empty((3, th, tw), np.float32)
        for i in range(th):
            for j in range(tw):
                want[:, i, j] = g[:, i * h // th, j * w // tw]
        assert out.dtype == np.float32 and out.flags.c_contiguous
        np.testing.assert_array_equal(out, want)
