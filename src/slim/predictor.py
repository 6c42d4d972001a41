"""Low-rank activation-sparsity predictor with runtime-tunable thresholding.

A predictor approximates a layer's gate projection ``x @ w_g.T`` by the
low-rank product ``x @ L @ R`` (L: dim_e x dim_lr, R: dim_lr x dim_h). Hidden
neurons whose predicted magnitude falls at or below a threshold are skipped.
Thresholds are calibrated offline per target sparsity and stored in a table so
sparsity stays tunable at run time.

Training runs in a subspace of the hidden dimension. Gradient descent on R
only ever adds rows of the target ``x @ w_g.T`` and of R itself, so every
iterate lies in the span of the initial R's rows and the target's rows; with
an orthonormal basis B of that span (k = min(n_tokens, dim_e) + dim_lr
columns, at most dim_h) the loop steps R~ = R B, not R, and the loss and
gradients come out the same up to rounding.
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


def _training_basis(r0: Matrix, gate: Matrix, w_g: Matrix) -> Matrix:
    """Orthonormal basis (dim_h x k) of a subspace that holds every R ``train``
    visits from ``r0``, given the target ``gate = x @ w_g.T``.

    A gradient step adds to R only combinations of R's own rows and of the
    target's rows, so R stays in the span of r0's rows and the target's
    rows. The target's rows also lie in the span of w_g's columns; the
    smaller of the two sets is taken, so
    k = min(n_tokens, dim_e) + dim_lr, at most dim_h. One QR factorization;
    the basis may hold a few directions more than that span needs."""
    spanning = w_g if gate.shape[0] > w_g.shape[1] else gate.T
    q, _ = np.linalg.qr(np.concatenate([spanning, r0.T], axis=1))
    return q


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

    Every product runs in the orthonormal basis B = ``_training_basis(p.r,
    x @ w_g.T, w_g)``: every iterate is R = R~ B.T, and since B.T B = I and the
    error's rows lie in span B, ||x L R - target||_F = ||x L R~ - target B||_F
    and the gradients map over exactly. The loop steps (L, R~), k columns
    wide instead of dim_h, and returns R~ B.T. At debug level one line gives
    k and the seconds of the basis and of the loop.
    """
    x = np.asarray(calib, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != p.l.shape[0]:
        raise ShapeError(f"calibration shape {x.shape} vs dim_e {p.l.shape[0]}")
    if x.shape[0] < 1:
        raise ShapeError("calibration set is empty")
    n = x.shape[0]
    t0 = time.perf_counter()
    gate = matmul(x, w_g.T)
    b = _training_basis(p.r, gate, w_g)
    t1 = time.perf_counter()
    target = matmul(gate, b)
    del gate
    l, r = p.l.copy(), matmul(p.r, b)

    xl = matmul(x, l)
    err = matmul(xl, r) - target
    loss = float(np.sum(err * err))
    init = loss
    history = [loss]
    step = lr
    for _ in range(epochs):
        prod_l, prod_r = _gradient_products(x, xl, r, err)
        grad_l = (2.0 / n) * prod_l
        grad_r = (2.0 / n) * prod_r
        cand_l = l - step * grad_l
        cand_r = r - step * grad_r
        with np.errstate(over="ignore", invalid="ignore"):
            cand_xl = matmul(x, cand_l)
            cand_err = matmul(cand_xl, cand_r) - target
            cand_loss = float(np.sum(cand_err * cand_err))
        hopeless = step <= lr * 2.0 ** -50 and init > 0.0 \
            and cand_loss > DIVERGENCE_FACTOR * init
        if not np.isfinite(cand_loss) or hopeless:
            raise TrainingDivergence(
                f"loss diverged to {cand_loss:.3e} from initial {init:.3e}",
                history + [cand_loss])
        if cand_loss > loss:
            step *= 0.5
            continue
        l, r, xl, err, loss = cand_l, cand_r, cand_xl, cand_err, cand_loss
        history.append(loss)
    log.debug("train: basis width %d, basis %.6f s, loop %.6f s",
              b.shape[1], t1 - t0, time.perf_counter() - t1)
    return Predictor(l=l, r=matmul(r, b.T)), history


def _gradient_products(x: Matrix, xl: Matrix, r: Matrix, err: Matrix) -> tuple[Matrix, Matrix]:
    """x.T @ err @ R.T and (x @ L).T @ err, given xl = x @ L: the gradients
    of sum(err**2) w.r.t. (L, R), where err = x @ L @ R - x @ w_g.T, without
    their factor 2. ``train`` and ``loss_gradients`` each apply their own
    scale."""
    return matmul(x.T, matmul(err, r.T)), matmul(xl.T, err)


def loss_gradients(p: Predictor, x: Matrix, w_g: Matrix) -> tuple[Matrix, Matrix]:
    """Analytic gradients of the reconstruction loss w.r.t. (L, R), by the
    formula ``train`` steps with; checked against central finite
    differences in the tests."""
    xl = matmul(x, p.l)
    err = matmul(xl, p.r) - matmul(x, w_g.T)
    prod_l, prod_r = _gradient_products(x, xl, p.r, err)
    return 2.0 * prod_l, 2.0 * prod_r


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


def measured_sparsity(mask: np.ndarray) -> float:
    """Fraction of hidden neurons skipped (zero bits / dim_h)."""
    mask = np.asarray(mask, dtype=bool)
    return float(np.size(mask) - np.count_nonzero(mask)) / float(np.size(mask))


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
