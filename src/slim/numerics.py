"""Dense linear algebra primitives used throughout the package.

A "matrix" is a 2-D float64 numpy array, row-major; ``matmul`` and
``softmax`` also take stacks of matrices (leading axes are batch axes).
Everything here is pure: no function mutates its arguments.
"""

from __future__ import annotations

import numpy as np

from .errors import RankError, ShapeError

Matrix = np.ndarray


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """Matrix product with an explicit shape check.

    Operands are matrices, or stacks of matrices of the same rank whose
    leading (batch) axes match; a stack is multiplied matrix by matrix.
    Backed by numpy's GEMM; deterministic for a fixed build. The naive
    triple-loop reference lives in the tests as an independent oracle.
    """
    if (a.ndim < 2 or a.ndim != b.ndim or a.shape[:-2] != b.shape[:-2]
            or a.shape[-1] != b.shape[-2]):
        raise ShapeError(f"matmul shape mismatch: {a.shape} x {b.shape}")
    return a @ b


def sigmoid(x):
    # exp(-|x|) never overflows; for x < 0 it is exp(x), so e / (1 + e) is
    # the same float as the sign-split form's, and for x >= 0 the numerator
    # max(e, 1) is 1, since e <= 1 (nan stays nan). Two fresh arrays: the
    # rest is computed in place
    x = np.asarray(x)
    e = np.abs(x, out=np.empty(x.shape))
    np.exp(np.negative(e, out=e), out=e)
    d = np.add(1.0, e, out=np.empty_like(e))
    return np.divide(np.maximum(e, x >= 0, out=e), d, out=d)


def silu(x: Matrix) -> Matrix:
    """Elementwise x * sigmoid(x), multiplied into the sigmoid's array."""
    x = np.asarray(x, dtype=np.float64)
    s = sigmoid(x)
    return np.multiply(x, s, out=s)


def softmax(v: Matrix) -> Matrix:
    """Max-shifted softmax along rows (the last axis); each row sums to 1."""
    v = np.asarray(v, dtype=np.float64)
    e = np.subtract(v, np.max(v, axis=-1, keepdims=True))
    np.exp(e, out=e)
    return np.divide(e, np.sum(e, axis=-1, keepdims=True), out=e)


def truncated_svd(m: Matrix, r: int) -> tuple[Matrix, np.ndarray, Matrix]:
    """Best rank-r factorization: returns (U, S, V) with m ~= U @ diag(S) @ V.T.

    S is nonincreasing and nonnegative; U is rows x r, V is cols x r. Taken
    from the eigendecomposition of the smaller Gram matrix (``m @ m.T`` when
    m has no more rows than columns, else that of ``m.T`` with the factors
    swapped): U holds the top r eigenvectors, S the square roots of their
    eigenvalues and V = m.T @ U / S (left 0 where S is 0). Forming the Gram
    matrix squares the condition number, so the leading triplets are
    accurate to working precision relative to S[0], while singular values
    near sqrt(eps) * S[0] and below carry absolute errors of that order.
    """
    m = np.asarray(m, dtype=np.float64)
    if not (1 <= r <= min(m.shape)):
        raise RankError(f"rank {r} out of range for shape {m.shape}")
    if m.shape[0] > m.shape[1]:
        v, s, u = truncated_svd(m.T, r)
        return u, s, v
    vals, vecs = np.linalg.eigh(m @ m.T)  # ascending eigenvalues
    s = np.sqrt(np.clip(vals[::-1][:r], 0.0, None))
    u = vecs[:, ::-1][:, :r].copy()
    v = m.T @ u / np.where(s > 0, s, 1.0)
    return u, s, v
