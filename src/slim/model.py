"""Functional (untimed) decoder layer: QKV projection, causal multi-head
attention within a block of tokens, gated FFN / mixture-of-experts. A
decode step passes a block of one or more tokens through one layer, so a
known stream (calibration or evaluation inputs) reads each layer's weights
once, and a caller chains the steps to take the stream through the model.
The layers can come from a lazy source (``synth_layers``, which draws the
next layer on a worker thread while the caller runs the current one), so a
caller that runs its streams layer-major never holds the whole model. The
FFN runs on every hidden neuron, or zeroes the hidden coordinates a neuron
mask skips.

Weights are synthetic (seeded Gaussians); there is no tokenizer or sampling.
Projections apply as ``x @ W.T``, except the FFN's down projection: it is
stored as neuron rows (``w_down``, dim_h x dim_e) and applies as
``hidden @ w_down``, so hidden neuron j is row j of the gate, up and down
matrices alike, the fused vector the accelerator stores and fetches.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .numerics import Matrix, matmul, silu, softmax


@dataclass(frozen=True)
class ModelConfig:
    n_dec: int = 4  # decoder layers
    dim_e: int = 64  # embedding dim
    dim_h: int = 256  # FFN hidden dim (per expert)
    n_heads: int = 4
    n_expert: int = 1  # 1 = plain gated FFN
    top_k: int = 1  # experts activated per token
    seq_len: int = 64  # context capacity L
    batch: int = 1
    seed: int = 0

    def __post_init__(self):
        for name in ("n_dec", "dim_e", "dim_h", "n_heads", "seq_len", "batch"):
            if getattr(self, name) < 1:
                raise ShapeError(f"{name} must be >= 1")
        if self.dim_e % self.n_heads != 0:
            raise ShapeError(f"dim_e={self.dim_e} not divisible by n_heads={self.n_heads}")
        if not (1 <= self.top_k <= self.n_expert):
            raise ShapeError(f"top_k={self.top_k} out of range for n_expert={self.n_expert}")


@dataclass
class LayerWeights:
    """One decoder layer. w_q/k/v/o are dim_e x dim_e; per expert e,
    w_g[e], w_u[e] and w_down[e] are dim_h x dim_e, one row per hidden
    neuron, so row j of the three is neuron j's fused vector (w_down[e] is
    the usual dim_e x dim_h down projection, transposed).
    router (n_expert x dim_e) is None when n_expert == 1."""

    w_q: Matrix
    w_k: Matrix
    w_v: Matrix
    w_o: Matrix
    w_g: list[Matrix]
    w_u: list[Matrix]
    w_down: list[Matrix]
    router: Matrix | None = None


def synth_layers(cfg: ModelConfig) -> Iterator[LayerWeights]:
    """Seeded Gaussian weights, one layer at a time in layer order, bitwise
    deterministic for a fixed seed. One worker thread draws each layer: the
    first when the first is asked for, and every later one while the caller
    holds the layer before it (``_draw_ahead``), so a caller that visits
    the layers in order holds at most the layer in use and the one being
    drawn, and numpy's normal fill, which releases the GIL, runs beside
    the caller's work. A draw that raises re-raises here; the worker is
    joined when the source is exhausted, closed or collected.

    Projections scale by 1/sqrt(fan_in); the residual-branch outputs (w_o and
    the down projection) carry an extra 1/sqrt(2*n_dec). There is no
    normalization layer, and the gated FFN is quadratic in its input, so
    without the residual damping a multi-layer decode blows up numerically.
    The down projection is drawn dim_e x dim_h, 32 rows at a time, and
    stored as its transpose; each weight is scaled in place.
    """
    return _draw_ahead(_draw_layers(cfg))


def _draw_layers(cfg: ModelConfig) -> Iterator[LayerWeights]:
    rng = np.random.default_rng([cfg.seed, 0x51])
    scale = 1.0 / np.sqrt(cfg.dim_e)
    resid = 1.0 / np.sqrt(2.0 * cfg.n_dec)

    def w(rows, cols, gain):
        a = rng.standard_normal((rows, cols))
        a *= gain  # the product of ``* gain``, without a second array
        return a

    def down():
        # 32 rows at a time draw the same normals in the same order as one
        # dim_e x dim_h draw, and need no full-size copy for the transpose
        gain, wt = resid / np.sqrt(cfg.dim_h), np.empty((cfg.dim_h, cfg.dim_e))
        for r in range(0, cfg.dim_e, 32):
            wt[:, r : r + 32] = w(min(32, cfg.dim_e - r), cfg.dim_h, gain).T
        return wt

    for _ in range(cfg.n_dec):
        yield LayerWeights(
            w_q=w(cfg.dim_e, cfg.dim_e, scale),
            w_k=w(cfg.dim_e, cfg.dim_e, scale),
            w_v=w(cfg.dim_e, cfg.dim_e, scale),
            w_o=w(cfg.dim_e, cfg.dim_e, scale * resid),
            w_g=[w(cfg.dim_h, cfg.dim_e, scale) for _ in range(cfg.n_expert)],
            w_u=[w(cfg.dim_h, cfg.dim_e, scale) for _ in range(cfg.n_expert)],
            w_down=[down() for _ in range(cfg.n_expert)],
            router=w(cfg.n_expert, cfg.dim_e, scale) if cfg.n_expert > 1 else None,
        )


def _draw_ahead(items: Iterator[LayerWeights]) -> Iterator[LayerWeights]:
    """The items of ``items`` in order, each advanced on one worker thread
    while the caller holds the item before it. Only the worker advances
    ``items``, one item per handover, so it never runs more than one item
    ahead; an exception it raises (other than the end of ``items``) is
    re-raised here in its place. The worker starts on the first request
    and is joined when this generator ends, is closed or is collected."""
    drawn: list = []  # the worker's finished draw: the item or the exception
    go, ready = threading.Semaphore(1), threading.Semaphore(0)
    stop = False

    def work():
        while True:
            go.acquire()
            if stop:
                return
            try:
                drawn.append(next(items))
            except BaseException as exc:  # StopIteration included: it ends the source
                drawn.append(exc)
                ready.release()
                return
            ready.release()

    worker = threading.Thread(target=work, name="slim-draw-ahead", daemon=True)
    worker.start()
    try:
        while True:
            ready.acquire()
            if isinstance(drawn[0], BaseException):
                exc = drawn.pop(0)
                if isinstance(exc, StopIteration):
                    return
                raise exc
            go.release()
            # yielded without a local name, so this frame holds no item
            # while the caller uses it or asks for the next
            yield drawn.pop(0)
    finally:
        stop = True
        go.release()
        worker.join()


# perfbench counts the rows of KVCache.stacked (model.kv_rows_stacked) until ROADMAP item 18
@dataclass(frozen=True)
class KVCache:
    """The key and value rows of one block, as attention reads them."""

    keys: Matrix
    values: Matrix

    def stacked(self) -> tuple[Matrix, Matrix]:
        return self.keys, self.values


def mha_forward(q: Matrix, k: Matrix, v: Matrix, n_heads: int) -> Matrix:
    """Causal scaled dot-product attention of every head at once, scores
    scaled by sqrt(head dim); concatenates heads.

    q, k and v hold one row per position of the same block, and query row i
    attends keys 0..i. Heads are stacked as strided views ``(h, rows, d)``
    of q, k and v, so each head's product sees the same operands, strides
    included, as a slice ``[:, h*d:(h+1)*d]`` would. The output projection
    is deliberately excluded (decode_step applies it).
    """
    if q.shape != k.shape or k.shape != v.shape:
        raise ShapeError(f"mha shape mismatch: q{q.shape} k{k.shape} v{v.shape}")
    dim_e = q.shape[1]
    if dim_e % n_heads != 0:
        raise ShapeError(f"dim_e={dim_e} not divisible by n_heads={n_heads}")
    d = dim_e // n_heads

    def heads(m):
        return m.reshape(m.shape[0], n_heads, d).transpose(1, 0, 2)

    scores = matmul(heads(q), heads(k).transpose(0, 2, 1)) / np.sqrt(d)
    future = np.triu(np.ones(scores.shape[1:], dtype=bool), 1)  # key j > query row i
    scores = np.where(future, -np.inf, scores)
    out = matmul(softmax(scores), heads(v))
    return out.transpose(1, 0, 2).reshape(q.shape[0], dim_e)


NeuronMask = np.ndarray  # bool, (dim_h,) shared by every row or (rows x dim_h)


def ffn_forward(x: Matrix, w_g: Matrix, w_u: Matrix, w_down: Matrix,
                mask: NeuronMask | None = None) -> Matrix:
    """Gated FFN (silu(x @ w_g.T) * (x @ w_u.T)) @ w_down, with the hidden
    coordinates that ``mask`` skips set to zero (none when it is None).

    Hidden neuron j is row j of the gate, up and down matrices. The mask is
    one vector for every row of ``x`` or one row per row of ``x``. Skipped
    coordinates are replaced by ``np.where``, not multiplied by zero, so a
    skipped neuron's inf or nan never reaches the output. None and a full
    mask run the same products and agree bitwise; an empty mask gives
    zeros.
    """
    if x.shape[1] != w_g.shape[1]:
        raise ShapeError(f"ffn input {x.shape} vs gate {w_g.shape}")
    if w_down.shape != w_g.shape:
        raise ShapeError(f"down {w_down.shape} vs gate {w_g.shape}; "
                         "pass neuron rows (dim_h x dim_e)")
    hidden = silu(matmul(x, w_g.T)) * matmul(x, w_u.T)
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape not in ((w_g.shape[0],), (x.shape[0], w_g.shape[0])):
            raise ShapeError(f"mask shape {mask.shape} vs {x.shape[0]} rows x "
                             f"dim_h {w_g.shape[0]}")
        if not mask.all():
            hidden = np.where(mask, hidden, 0.0)
    return matmul(hidden, w_down)


def route_top_k(logits: np.ndarray, top_k: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-k expert indices (ties broken toward the lower index) and softmax
    weights over the selected logits only."""
    order = np.argsort(-logits, kind="stable")
    chosen = order[:top_k]
    weights = softmax(logits[chosen].reshape(1, -1)).reshape(-1)
    return chosen, weights


def moe_forward(x: Matrix, weights: LayerWeights, top_k: int,
                masks: dict[int, NeuronMask] | None = None) -> Matrix:
    """Route each token to its top-k experts and mix their FFN outputs.

    ``masks`` optionally maps expert index -> neuron mask, one vector shared
    by every token or one row per token; an expert without one (or with
    None) runs dense.
    """
    masks = masks or {}
    if len(weights.w_g) == 1:
        return ffn_forward(x, weights.w_g[0], weights.w_u[0], weights.w_down[0],
                           masks.get(0))
    logits = matmul(x, weights.router.T)
    out = np.zeros((x.shape[0], x.shape[1]))
    for t in range(x.shape[0]):
        chosen, wts = route_top_k(logits[t], top_k)
        xt = x[t : t + 1]
        for e, w in zip(chosen, wts):
            mask = masks.get(int(e))
            if mask is not None and np.ndim(mask) == 2:
                mask = mask[t]
            y = ffn_forward(xt, weights.w_g[e], weights.w_u[e], weights.w_down[e], mask)
            out[t] += w * y[0]
    return out


# perfbench times Decoder.decode_step (model.decode_step.*) until ROADMAP item 18
@dataclass(frozen=True)
class Decoder:
    """The decoder layer function for one model config."""

    cfg: ModelConfig

    def decode_step(self, x: Matrix, layer: tuple[int, LayerWeights],
                    mask_fn=None) -> tuple[Matrix, Matrix]:
        """Pass a block of n token embeddings (n x dim_e, ShapeError for any
        other shape) through one layer, given as its (index, weights) pair;
        returns the block's FFN input and the layer's output, both n x dim_e.

        The layer's weights are read once for all n tokens: project QKV (one
        product each over the block), attend causally within the block
        (token i sees tokens 0..i), apply the output projection, residual
        add, FFN/MoE (masked when ``mask_fn`` supplies masks), residual add.
        A caller decodes a stream through the model by passing each layer's
        output to the next layer's call.

        mask_fn(layer, expert, x) gets the layer's FFN input block and
        returns a NeuronMask, (dim_h,) or (n x dim_h), or None.
        """
        li, lw = layer
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.cfg.dim_e:
            raise ShapeError(f"decode block {x.shape} is not n x dim_e={self.cfg.dim_e}")
        q = matmul(x, lw.w_q.T)
        ks, vs = KVCache(matmul(x, lw.w_k.T), matmul(x, lw.w_v.T)).stacked()
        x = x + matmul(mha_forward(q, ks, vs, self.cfg.n_heads), lw.w_o.T)
        masks = None if mask_fn is None else {
            e: mask_fn(li, e, x) for e in range(self.cfg.n_expert)}
        return x, x + moe_forward(x, lw, self.cfg.top_k, masks)


def harvest_ffn_inputs(dec: Decoder, layers: Iterable[LayerWeights], n_tokens: int,
                       seed: int = 1) -> Iterator[tuple[int, list[Matrix], Matrix]]:
    """Pass a stream of seeded random embeddings, decoded as one block,
    through the decoder layer by layer, and yield (layer index, the
    layer's gates ``w_g``, FFN input) as it passes each layer; the FFN
    input is n_tokens x dim_e.
    Stands in for sampling a text corpus.

    ``layers`` gives the weights in layer order and can be a lazy source
    (``synth_layers``). A layer is asked for only when the caller resumes
    the generator past the one before, and this generator drops every
    reference to a layer but its gates before yielding them, so a caller
    that drops the gates before resuming holds at most one layer's gates,
    the layer being decoded and the one drawn ahead.

    Fresh inputs per token, rather than output feedback, keep activations
    bounded: the gated FFN is quadratic in its input and there is no
    normalization layer to damp a feedback loop.
    """
    rng = np.random.default_rng([seed, 0xCA11])
    x = rng.standard_normal((n_tokens, dec.cfg.dim_e))
    source = iter(layers)
    # indexed by range: enumerate's recycled result tuple would hold the
    # last layer while the source draws the next
    for li in range(dec.cfg.n_dec):
        lw = next(source, None)
        if lw is None:
            raise ShapeError(f"layer source ended after {li} of {dec.cfg.n_dec} layers")
        ffn_in, x = dec.decode_step(x, (li, lw))
        gates = lw.w_g
        del lw  # the caller's fit reads only the gates
        yield li, gates, ffn_in
        del gates, ffn_in
