"""Low-rank activation-sparsity predictor with runtime-tunable thresholding.

A predictor approximates a layer's gate projection ``x @ w_g.T`` by the
low-rank product ``x @ L @ R`` (L: dim_e x dim_lr, R: dim_lr x dim_h). Hidden
neurons whose predicted magnitude falls at or below a threshold are skipped.
Thresholds are calibrated offline per target sparsity and stored in a table so
sparsity stays tunable at run time.

Training runs in coordinates of the gate's column space when dim_h >
dim_e. With the Cholesky factor C of the dim_e x dim_e Gram matrix
``w_g.T @ w_g`` (C @ C.T), U = w_g C^-T is orthonormal, and a gradient step
on R only ever adds rows of R and of the target ``x @ w_g.T``, whose rows
lie in U's span. So if the initial R's rows do too (as the SVD init's do),
the loop steps R U, dim_e wide, against the target x C, and maps the result
back once; U is never formed.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass

import numpy as np

from .errors import RankError, ShapeError, TrainingDivergence
from .numerics import Matrix, matmul, truncated_svd

DIVERGENCE_FACTOR = 10.0  # training aborts when loss exceeds this multiple of the initial loss

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Predictor:
    l: Matrix  # dim_e x dim_lr
    r: Matrix  # dim_lr x dim_h

    @property
    def dim_lr(self) -> int:
        return self.l.shape[1]

    def scores(self, x: Matrix) -> Matrix:
        """Predicted gate magnitudes |x @ L @ R|, one row per token."""
        return np.abs(matmul(matmul(x, self.l), self.r))


def default_dim_lr(dim_e: int) -> int:
    return max(1, dim_e // 4)


def init_from_svd(w_g: Matrix, dim_lr: int) -> Predictor:
    """Initialize from the top-``dim_lr`` singular triplets of w_g.T so that
    x @ L @ R is the best rank-dim_lr approximation of x-agnostic x @ w_g.T."""
    dim_h, dim_e = w_g.shape
    if not (1 <= dim_lr <= min(dim_e, dim_h)):
        raise RankError(f"dim_lr={dim_lr} out of range for gate shape {w_g.shape}")
    u, s, v = truncated_svd(w_g.T, dim_lr)
    return Predictor(l=u * s, r=v.T.copy())


def reconstruction_loss(p: Predictor, x: Matrix, w_g: Matrix) -> float:
    """Squared Frobenius error between the true and predicted gate outputs."""
    err = matmul(x, w_g.T) - matmul(matmul(x, p.l), p.r)
    return float(np.sum(err * err))


def train(p: Predictor, calib: Matrix, w_g: Matrix, epochs: int = 50,
          lr: float = 1e-3) -> tuple[Predictor, list[float]]:
    """Full-batch gradient descent on the reconstruction loss.

    Steps follow the gradient of the per-sample mean (so ``lr`` is insensitive
    to the calibration-set size); the reported loss stays the plain squared
    Frobenius error. A step that would increase the loss is rejected and the
    rate halved, so the returned loss never exceeds the initial one. Training
    that cannot recover raises TrainingDivergence with the history attached:
    a non-finite candidate loss, or one still past DIVERGENCE_FACTOR times
    the initial loss after the step size has collapsed.

    R is stepped as R^ = R U in the coordinates of the module docstring,
    against the target x C, and returned as R^ C^-1 w_g.T. That is exact
    when p.r's rows lie in w_g's column space, which is checked as
    ||R^|| = ||p.r||; otherwise, and when dim_h <= dim_e or the Gram matrix
    is not positive definite (Cholesky fails or leaves a pivot that is
    rounding), the coordinates are the identity, all of dim_h. L never enters the loop: a step of lr * x.T @ G on L moves x @ L
    by lr * K @ G, with K = x @ x.T, so the loop carries x @ L, sums the
    accepted steps' lr * G in phi and returns L - x.T @ phi. At debug level
    one line gives the coordinates' width and the seconds of the
    factorization and of the loop.
    """
    x = np.asarray(calib, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != p.l.shape[0]:
        raise ShapeError(f"calibration shape {x.shape} vs dim_e {p.l.shape[0]}")
    if x.shape[0] < 1:
        raise ShapeError("calibration set is empty")
    t0 = time.perf_counter()
    c, r = None, p.r.copy()
    if w_g.shape[0] > w_g.shape[1]:
        try:
            c = np.linalg.cholesky(matmul(w_g.T, w_g))
            r = np.linalg.solve(c, matmul(p.r, w_g).T).T
        except np.linalg.LinAlgError:
            c = None
        # a pivot at or below 1e-3 of the largest marks w_g as rank-deficient
        # to working precision: a zero pivot comes out as rounding (up to
        # 5e-6 of the largest on random low-rank gates up to 512 x 2048),
        # while every pivot is at least 1 / cond(w_g) of the largest
        if c is None or np.min(np.diag(c)) <= 1e-3 * np.max(np.diag(c)) or not np.isclose(
                np.linalg.norm(r), np.linalg.norm(p.r), rtol=1e-12, atol=0.0):
            c, r = None, p.r.copy()
    target = matmul(x, w_g.T if c is None else c)
    t1 = time.perf_counter()

    kern = matmul(x, x.T)
    xl = matmul(x, p.l)
    phi = np.zeros_like(xl)
    err = matmul(xl, r) - target
    loss = float(np.vdot(err, err))
    history = [loss]
    step = lr
    for _ in range(epochs):
        scale = 2.0 * step / x.shape[0]  # the per-sample mean's factor times the step
        g = matmul(err, r.T)  # L's gradient is (2 / n) x.T @ g
        cand_r = r - scale * matmul(xl.T, err)
        with np.errstate(over="ignore", invalid="ignore"):
            cand_xl = xl - scale * matmul(kern, g)
            cand_err = matmul(cand_xl, cand_r) - target
            cand_loss = float(np.vdot(cand_err, cand_err))
        hopeless = step <= lr * 2.0 ** -50 and history[0] > 0.0 \
            and cand_loss > DIVERGENCE_FACTOR * history[0]
        if not np.isfinite(cand_loss) or hopeless:
            raise TrainingDivergence(
                f"loss diverged to {cand_loss:.3e} from initial {history[0]:.3e}",
                history + [cand_loss])
        if cand_loss > loss:
            step *= 0.5
            continue
        phi += scale * g
        r, xl, err, loss = cand_r, cand_xl, cand_err, cand_loss
        history.append(loss)
    log.debug("train: coordinates %d wide, factorization %.6f s, loop %.6f s",
              target.shape[1], t1 - t0, time.perf_counter() - t1)
    l = p.l - matmul(x.T, phi) if len(history) > 1 else p.l.copy()
    if c is not None:
        r = matmul(np.linalg.solve(c.T, r.T).T, w_g.T)
    return Predictor(l=l, r=r), history


def loss_gradients(p: Predictor, x: Matrix, w_g: Matrix) -> tuple[Matrix, Matrix]:
    """Analytic gradients of the reconstruction loss w.r.t. (L, R), the
    formula ``train`` steps with; checked against central finite
    differences in the tests."""
    xl = matmul(x, p.l)
    err = matmul(xl, p.r) - matmul(x, w_g.T)
    return 2.0 * matmul(x.T, matmul(err, p.r.T)), 2.0 * matmul(xl.T, err)


@dataclass(frozen=True)
class ThresholdTable:
    """Sorted (target_sparsity, threshold) pairs for one layer/expert."""

    entries: tuple[tuple[float, float], ...]

    def threshold_for(self, target: float) -> float:
        for s, t in self.entries:
            if abs(s - target) < 1e-12:
                return t
        raise KeyError(f"no threshold calibrated for target {target}")


def quantile_threshold(scores: np.ndarray, target: float) -> float:
    """Lower empirical quantile: the largest score whose CDF is <= target,
    so at most a ``target`` fraction of calibration scores falls at or below
    it. Target 0 maps to threshold 0."""
    n = scores.size
    k = int(np.floor(target * n))
    if k <= 0:
        return 0.0
    return float(np.partition(scores, k - 1)[k - 1])  # the k-th order statistic


def build_threshold_table(p: Predictor, calib: Matrix, targets) -> ThresholdTable:
    """Pool |x @ L @ R| over the calibration set and pick one threshold per
    target sparsity."""
    x = np.asarray(calib, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ShapeError("calibration set is empty")
    targets = [float(t) for t in targets]
    for t in targets:
        if not (0.0 <= t < 1.0):
            raise ShapeError(f"target sparsity {t} outside [0, 1)")
    pooled = p.scores(x).ravel()
    entries = tuple(sorted((t, quantile_threshold(pooled, t)) for t in targets))
    return ThresholdTable(entries=entries)


def predict_mask(p: Predictor, x: Matrix, threshold: float) -> np.ndarray:
    """Boolean mask per token: bit j set iff |x @ L @ R|_j > threshold.
    Returns (n_tokens x dim_h) for matrix input, (dim_h,) for a single row."""
    if threshold < 0:
        raise ShapeError(f"threshold must be >= 0, got {threshold}")
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    masks = p.scores(x.reshape(1, -1) if single else x) > threshold
    return masks[0] if single else masks


def thresholds_to_json(tables: dict[tuple[int, int], ThresholdTable]) -> str:
    """Serialize per-(layer, expert) tables to the interchange document."""
    doc = [
        {"layer": layer, "expert": expert,
         "entries": [[s, t] for s, t in tab.entries]}
        for (layer, expert), tab in sorted(tables.items())
    ]
    return json.dumps(doc, indent=2, sort_keys=True)


def thresholds_from_json(text: str) -> dict[tuple[int, int], ThresholdTable]:
    doc = json.loads(text)
    return {
        (int(d["layer"]), int(d["expert"])): ThresholdTable(
            entries=tuple((float(s), float(t)) for s, t in d["entries"]))
        for d in doc
    }
