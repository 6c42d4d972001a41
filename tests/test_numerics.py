import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from slim.errors import RankError, ShapeError
from slim.numerics import (
    matmul,
    sigmoid,
    silu,
    softmax,
    truncated_svd,
)


def naive_matmul(a, b):
    """Triple-loop oracle, ascending-k summation."""
    out = np.zeros((a.shape[0], b.shape[1]))
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            acc = 0.0
            for k in range(a.shape[1]):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


def sign_split_sigmoid(x):
    """The sign-split sigmoid: exp() of a nonpositive argument on each side."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def where_sigmoid(x):
    """The branch-free sigmoid with fresh temporaries, which the in-place
    form computes step for step."""
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


class TestMatmul:
    def test_identity(self):
        m = np.arange(9.0).reshape(3, 3)
        assert np.array_equal(matmul(np.eye(3), m), m)

    def test_two_by_two(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(matmul(a, np.eye(2)), a)

    def test_against_naive_oracle(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((7, 5))
        b = rng.standard_normal((5, 3))
        assert np.max(np.abs(matmul(a, b) - naive_matmul(a, b))) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            matmul(np.zeros((2, 3)), np.zeros((2, 3)))

    def test_stack_is_matrix_by_matrix(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((3, 2, 5))
        b = rng.standard_normal((3, 5, 4))
        out = matmul(a, b)
        assert out.shape == (3, 2, 4)
        for i in range(3):
            assert np.array_equal(out[i], matmul(a[i], b[i]))

    @pytest.mark.parametrize("shapes", [((3, 2, 5), (5, 4)), ((5,), (5, 4)),
                                        ((3, 2, 5), (2, 5, 4)), ((3, 2, 5), (3, 4, 5))])
    def test_stack_shape_mismatch(self, shapes):
        a, b = (np.zeros(s) for s in shapes)
        with pytest.raises(ShapeError):
            matmul(a, b)

    def test_identity_associativity_bitwise(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4))
        assert np.array_equal(matmul(matmul(a, np.eye(4)), b), matmul(a, b))


class TestSilu:
    def test_zero(self):
        assert silu(np.array([[0.0]]))[0, 0] == 0.0

    def test_large_positive(self):
        # 10 / (1 + e^-10)
        assert_allclose(silu(np.array([[10.0]]))[0, 0], 9.999546021312976, rtol=1e-12)

    def test_large_negative(self):
        # -10 / (1 + e^10)
        assert_allclose(silu(np.array([[-10.0]]))[0, 0], -4.5397868702434395e-04, rtol=1e-9)

    def test_no_overflow(self):
        out = silu(np.array([[-1000.0, 1000.0]]))
        assert np.all(np.isfinite(out))


class TestSigmoid:
    EDGES = [0.0, -0.0, np.inf, -np.inf, 710.0, -710.0, -745.0, -746.0, 1e-310, -1e-310,
             5e-324, -5e-324, 36.7, -36.7, 1.0, -1.0]

    def test_bitwise_sign_split_on_edges(self):
        x = np.array(self.EDGES)
        assert sigmoid(x).tobytes() == sign_split_sigmoid(x).tobytes()

    @pytest.mark.parametrize("scale", [0.1, 1.0, 10.0, 100.0, 1000.0])
    def test_bitwise_sign_split_on_blocks(self, scale):
        x = np.random.default_rng(int(scale * 10)).standard_normal((64, 256)) * scale
        assert sigmoid(x).tobytes() == sign_split_sigmoid(x).tobytes()

    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                    max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_bitwise_sign_split_on_floats(self, values):
        # a nan's sign and payload are not pinned: the sign-split form keeps
        # the input's, the branch-free one does not
        x = np.array(values + [0.0, -0.0, np.inf, -np.inf, np.nan, 745.0, -745.0,
                               1e-310, -1e-310, 5e-324, -5e-324])
        got, want = sigmoid(x), sign_split_sigmoid(x)
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == want[~nan].tobytes()

    def test_nan_stays_nan(self):
        assert np.isnan(sigmoid(np.array([np.nan, -np.nan]))).all()

    def test_bitwise_where_form_on_edges(self):
        x = np.array(self.EDGES + [np.nan, -np.nan])
        assert sigmoid(x).tobytes() == where_sigmoid(x).tobytes()
        for v in x:  # 0-d arrays and scalars
            assert sigmoid(v).tobytes() == where_sigmoid(v).tobytes()

    @given(st.integers(0, 2**32 - 1), st.sampled_from([0.1, 1.0, 30.0, 800.0]),
           st.sampled_from([(128, 1024), (3, 5, 7), (1,)]))
    @settings(max_examples=30, deadline=None)
    def test_bitwise_where_form_on_blocks(self, seed, scale, shape):
        x = np.random.default_rng(seed).standard_normal(shape) * scale
        before = x.copy()
        assert sigmoid(x).tobytes() == where_sigmoid(x).tobytes()
        assert np.array_equal(x, before)  # the argument is not written


class TestSoftmax:
    def test_uniform_row(self):
        out = softmax(np.full((1, 5), 2.3))
        assert_allclose(out, np.full((1, 5), 0.2), atol=1e-15)

    def test_shift_invariance(self):
        rng = np.random.default_rng(5)
        v = rng.standard_normal((3, 6))
        assert np.max(np.abs(softmax(v) - softmax(v + 17.0))) <= 1e-12

    def test_closed_form(self):
        out = softmax(np.array([[0.0, np.log(2.0)]]))
        assert_allclose(out, [[1.0 / 3.0, 2.0 / 3.0]], atol=1e-15)

    def test_stack_reduces_last_axis(self):
        rng = np.random.default_rng(8)
        v = rng.standard_normal((3, 2, 6)) * 10.0
        out = softmax(v)
        for i in range(3):
            assert np.array_equal(out[i], softmax(v[i]))

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_rows_sum_to_one(self, row):
        out = softmax(np.array([row]))
        assert np.all(out > 0) and np.all(out <= 1)
        assert abs(out.sum() - 1.0) <= 1e-12


class TestTruncatedSvd:
    def test_rank_one_exact(self):
        u = np.array([[1.0], [2.0], [3.0]])
        v = np.array([[4.0, 5.0]])
        m = u @ v
        uu, s, vv = truncated_svd(m, 1)
        assert np.linalg.norm(uu @ np.diag(s) @ vv.T - m) < 1e-10

    def test_identity_full_rank(self):
        u, s, v = truncated_svd(np.eye(6), 6)
        assert_allclose(u @ np.diag(s) @ v.T, np.eye(6), atol=1e-12)

    @pytest.mark.parametrize("shape, spectrum, r", [
        ((20, 30), None, 5),  # a random matrix, wide
        ((30, 20), None, 5),  # and tall: the Gram matrix of m.T
        # singular values from 1 down to 1e-3, the top part kept
        ((24, 40), np.geomspace(1.0, 1e-3, 24), 8),
    ])
    def test_matches_svd_oracle(self, shape, spectrum, r):
        """The leading triplets agree with LAPACK's SVD: singular values to
        working precision of the largest, and the same rank-r product."""
        rng = np.random.default_rng(7)
        m = rng.standard_normal(shape)
        if spectrum is not None:
            q1, _ = np.linalg.qr(rng.standard_normal((shape[0], shape[0])))
            q2, _ = np.linalg.qr(rng.standard_normal((shape[1], shape[0])))
            m = q1 @ np.diag(spectrum) @ q2.T
        u, s, v = truncated_svd(m, r)
        uo, so, vto = np.linalg.svd(m, full_matrices=False)
        assert u.shape == (shape[0], r) and v.shape == (shape[1], r)
        assert_allclose(s, so[:r], rtol=0, atol=1e-12 * so[0])
        assert_allclose(u @ np.diag(s) @ v.T, uo[:, :r] @ np.diag(so[:r]) @ vto[:r],
                        rtol=0, atol=1e-10 * so[0])
        assert_allclose(u.T @ u, np.eye(r), atol=1e-12)
        assert np.all(np.diff(s) <= 0) and np.all(s >= 0)

    def test_full_rank_reconstructs(self):
        rng = np.random.default_rng(8)
        m = rng.standard_normal((9, 12))
        u, s, v = truncated_svd(m, 9)
        assert np.linalg.norm(u @ np.diag(s) @ v.T - m) < 1e-8

    def test_rank_out_of_range(self):
        with pytest.raises(RankError):
            truncated_svd(np.eye(3), 4)
        with pytest.raises(RankError):
            truncated_svd(np.eye(3), 0)
