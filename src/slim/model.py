"""Functional (untimed) decoder: QKV projection, multi-head attention over a
KV cache, gated FFN / mixture-of-experts, and the token-by-token generation
loop. The FFN runs on every hidden neuron or on a neuron mask.

Weights are synthetic (seeded Gaussians); there is no tokenizer or sampling.
Projections apply as ``x @ W.T``, except the FFN's down projection: it is
stored as neuron rows (``w_down``, dim_h x dim_e) and applies as
``hidden @ w_down``, so hidden neuron j is row j of the gate, up and down
matrices alike, the fused vector the accelerator stores and fetches.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, ShapeError
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
        if self.dim_e % self.n_heads != 0:
            raise ShapeError(f"dim_e={self.dim_e} not divisible by n_heads={self.n_heads}")
        if not (1 <= self.top_k <= self.n_expert):
            raise ShapeError(f"top_k={self.top_k} out of range for n_expert={self.n_expert}")
        for name in ("n_dec", "dim_e", "dim_h", "n_heads", "seq_len", "batch"):
            if getattr(self, name) < 1:
                raise ShapeError(f"{name} must be >= 1")


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


def synth_model(cfg: ModelConfig) -> list[LayerWeights]:
    """Seeded Gaussian weights, bitwise deterministic for a fixed seed.

    Projections scale by 1/sqrt(fan_in); the residual-branch outputs (w_o and
    the down projection) carry an extra 1/sqrt(2*n_dec). There is no
    normalization layer, and the gated FFN is quadratic in its input, so
    without the residual damping a multi-layer rollout blows up numerically.
    The down projection is drawn dim_e x dim_h and stored as its transpose.
    """
    rng = np.random.default_rng([cfg.seed, 0x51])
    scale = 1.0 / np.sqrt(cfg.dim_e)
    resid = 1.0 / np.sqrt(2.0 * cfg.n_dec)

    def w(rows, cols, gain):
        return rng.standard_normal((rows, cols)) * gain

    layers = []
    for _ in range(cfg.n_dec):
        layers.append(
            LayerWeights(
                w_q=w(cfg.dim_e, cfg.dim_e, scale),
                w_k=w(cfg.dim_e, cfg.dim_e, scale),
                w_v=w(cfg.dim_e, cfg.dim_e, scale),
                w_o=w(cfg.dim_e, cfg.dim_e, scale * resid),
                w_g=[w(cfg.dim_h, cfg.dim_e, scale) for _ in range(cfg.n_expert)],
                w_u=[w(cfg.dim_h, cfg.dim_e, scale) for _ in range(cfg.n_expert)],
                w_down=[w(cfg.dim_e, cfg.dim_h, resid / np.sqrt(cfg.dim_h)).T.copy()
                        for _ in range(cfg.n_expert)],
                router=w(cfg.n_expert, cfg.dim_e, scale) if cfg.n_expert > 1 else None,
            )
        )
    return layers


class KVCache:
    """Per-layer key/value rows, append-only during generation.

    Each layer keeps its keys and its values in one (rows, dim) buffer per
    kind, and every row is written once, in place. A buffer starts at
    ``INITIAL_ROWS`` rows and doubles, up to ``capacity``, when it fills, so
    it holds at most ``INITIAL_ROWS`` or twice the rows written, whichever
    is larger. ``stacked`` returns
    views of the rows written so far; a later append never changes them,
    because it writes past them or copies into a new buffer.
    """

    INITIAL_ROWS = 16

    def __init__(self, n_layers: int, capacity: int):
        self.capacity = capacity
        self._keys: list[np.ndarray | None] = [None] * n_layers
        self._values: list[np.ndarray | None] = [None] * n_layers
        self._lens = [0] * n_layers

    @property
    def current_len(self) -> int:
        return self._lens[0]

    def append(self, layer: int, k: np.ndarray, v: np.ndarray) -> None:
        n = self._lens[layer]
        if n >= self.capacity:
            raise CapacityError(f"KV cache full at capacity {self.capacity}")
        self._keys[layer] = _write_row(self._keys[layer], n, k, self.capacity)
        self._values[layer] = _write_row(self._values[layer], n, v, self.capacity)
        self._lens[layer] = n + 1

    def stacked(self, layer: int) -> tuple[Matrix, Matrix]:
        n = self._lens[layer]
        return self._keys[layer][:n], self._values[layer][:n]


def _write_row(buf: np.ndarray | None, n: int, row: np.ndarray,
               capacity: int) -> np.ndarray:
    """Write ``row`` as row ``n`` of ``buf``, first doubling a full buffer
    (or allocating a missing one) up to ``capacity`` rows."""
    row = np.asarray(row, dtype=np.float64).reshape(-1)
    if buf is None or n == buf.shape[0]:
        grown = np.empty((min(capacity, max(KVCache.INITIAL_ROWS, 2 * n)), row.size))
        if buf is not None:
            grown[:n] = buf
        buf = grown
    if row.size != buf.shape[1]:
        raise ShapeError(f"KV row of {row.size} values vs cache width {buf.shape[1]}")
    buf[n] = row
    return buf


def mha_forward(q: Matrix, k: Matrix, v: Matrix, n_heads: int) -> Matrix:
    """Scaled dot-product attention of every head at once, scores scaled by
    sqrt(head dim); concatenates heads.

    Heads are stacked as strided views ``(h, rows, d)`` of q, k and v, so
    each head's product sees the same operands, strides included, as a slice
    ``[:, h*d:(h+1)*d]`` would. The output projection is deliberately
    excluded (decode_step applies it).
    """
    if q.shape[1] != k.shape[1] or k.shape != v.shape:
        raise ShapeError(f"mha shape mismatch: q{q.shape} k{k.shape} v{v.shape}")
    dim_e = q.shape[1]
    if dim_e % n_heads != 0:
        raise ShapeError(f"dim_e={dim_e} not divisible by n_heads={n_heads}")
    d = dim_e // n_heads

    def heads(m):
        return m.reshape(m.shape[0], n_heads, d).transpose(1, 0, 2)

    scores = matmul(heads(q), heads(k).transpose(0, 2, 1)) / np.sqrt(d)
    out = matmul(softmax(scores), heads(v))
    return out.transpose(1, 0, 2).reshape(q.shape[0], dim_e)


NeuronMask = np.ndarray  # bool vector of length dim_h


def ffn_forward(x: Matrix, w_g: Matrix, w_u: Matrix, w_down: Matrix,
                mask: NeuronMask | None = None) -> Matrix:
    """Gated FFN over the hidden neurons selected by ``mask`` (all of them
    when it is None): (silu(x @ w_g[sel].T) * (x @ w_u[sel].T)) @ w_down[sel].

    Each selected neuron is one gate row, one up row and one down row. A
    partial mask gathers its rows; None or a full mask selects by a slice,
    which gathers nothing, so the dense FFN and an all-true mask run the same
    products on the same operands and agree bitwise. An empty mask gives
    zeros, the dense FFN with every hidden coordinate zeroed.
    """
    if x.shape[1] != w_g.shape[1]:
        raise ShapeError(f"ffn input {x.shape} vs gate {w_g.shape}")
    if w_down.shape != w_g.shape:
        raise ShapeError(f"down {w_down.shape} vs gate {w_g.shape}; "
                         "pass neuron rows (dim_h x dim_e)")
    sel = slice(None)
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (w_g.shape[0],):
            raise ShapeError(f"mask length {mask.shape} vs dim_h {w_g.shape[0]}")
        if not mask.all():
            sel = np.flatnonzero(mask)
    # gathering inline keeps one gathered copy alive at a time
    hidden = silu(matmul(x, w_g[sel].T)) * matmul(x, w_u[sel].T)
    return matmul(hidden, w_down[sel])


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

    ``masks`` optionally maps expert index -> neuron mask, shared across the
    batch; an expert without one (or with None) runs dense.
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
            y = ffn_forward(xt, weights.w_g[e], weights.w_u[e], weights.w_down[e],
                            masks.get(int(e)))
            out[t] += w * y[0]
    return out


@dataclass
class Decoder:
    """Weights plus config; drives the generation loop one token at a time."""

    cfg: ModelConfig
    layers: list[LayerWeights] = field(default_factory=list)

    @classmethod
    def synth(cls, cfg: ModelConfig) -> "Decoder":
        return cls(cfg=cfg, layers=synth_model(cfg))

    def new_cache(self) -> KVCache:
        return KVCache(self.cfg.n_dec, self.cfg.seq_len)

    def decode_step(self, x: Matrix, cache: KVCache, mask_fn=None,
                    ffn_input_hook=None) -> Matrix:
        """One generation step for a single token embedding (1 x dim_e).

        Per layer: project QKV, append K/V to the cache, attend over the full
        cache, apply the output projection, residual add, FFN/MoE (masked when
        ``mask_fn`` supplies masks), residual add.

        mask_fn(layer, expert, x_row) -> NeuronMask or None.
        ffn_input_hook(layer, x_matrix) is invoked with each layer's FFN input
        (used to harvest calibration samples).
        """
        if cache.current_len >= self.cfg.seq_len:
            raise CapacityError(f"cache at seq_len={self.cfg.seq_len}")
        x = np.asarray(x, dtype=np.float64).reshape(1, self.cfg.dim_e)
        for li, lw in enumerate(self.layers):
            q = matmul(x, lw.w_q.T)
            k = matmul(x, lw.w_k.T)
            v = matmul(x, lw.w_v.T)
            cache.append(li, k[0], v[0])
            ks, vs = cache.stacked(li)
            attn = mha_forward(q, ks, vs, self.cfg.n_heads)
            x = x + matmul(attn, lw.w_o.T)
            if ffn_input_hook is not None:
                ffn_input_hook(li, x.copy())
            masks = None if mask_fn is None else {
                e: mask_fn(li, e, x[0]) for e in range(self.cfg.n_expert)}
            x = x + moe_forward(x, lw, self.cfg.top_k, masks)
        return x

    def rollout(self, x0: Matrix, n_tokens: int, mask_fn=None) -> list[Matrix]:
        """Feed each step's output back as the next input; returns the
        sequence of output embeddings."""
        cache = self.new_cache()
        outs = []
        x = x0
        for _ in range(n_tokens):
            x = self.decode_step(x, cache, mask_fn=mask_fn)
            outs.append(x)
        return outs


def harvest_ffn_inputs(dec: Decoder, n_tokens: int, seed: int = 1) -> list[Matrix]:
    """Decode a stream of seeded random embeddings (the KV cache accumulates
    across them) and collect each layer's FFN inputs; returns one
    (n_tokens x dim_e) matrix per layer. Stands in for sampling a text corpus.

    Fresh inputs per step, rather than output feedback, keep activations
    bounded: the gated FFN is quadratic in its input and there is no
    normalization layer to damp a feedback loop.
    """
    rng = np.random.default_rng([seed, 0xCA11])
    grabbed: list[list[np.ndarray]] = [[] for _ in range(dec.cfg.n_dec)]

    def hook(layer, xm):
        grabbed[layer].append(xm[0])

    cache = dec.new_cache()
    for _ in range(n_tokens):
        x = rng.standard_normal((1, dec.cfg.dim_e))
        dec.decode_step(x, cache, ffn_input_hook=hook)
    return [np.vstack(rows) for rows in grabbed]
