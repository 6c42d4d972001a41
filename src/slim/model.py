"""Functional (untimed) decoder: QKV projection, multi-head attention over a
KV cache, gated FFN / mixture-of-experts, and the token-by-token generation
loop, with dense and neuron-masked variants.

Weights are synthetic (seeded Gaussians); there is no tokenizer or sampling.
All projections apply as ``x @ W.T``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

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
    attn_scale: str = "head_dim"  # "head_dim" -> sqrt(dim_e/h), "model_dim" -> sqrt(dim_e)

    def __post_init__(self):
        if self.dim_e % self.n_heads != 0:
            raise ShapeError(f"dim_e={self.dim_e} not divisible by n_heads={self.n_heads}")
        if not (1 <= self.top_k <= self.n_expert):
            raise ShapeError(f"top_k={self.top_k} out of range for n_expert={self.n_expert}")
        for name in ("n_dec", "dim_e", "dim_h", "n_heads", "seq_len", "batch"):
            if getattr(self, name) < 1:
                raise ShapeError(f"{name} must be >= 1")
        if self.attn_scale not in ("head_dim", "model_dim"):
            raise ShapeError(f"unknown attn_scale {self.attn_scale!r}")


@dataclass
class LayerWeights:
    """One decoder layer. w_q/k/v/o are dim_e x dim_e; per expert e,
    w_g[e] and w_u[e] are dim_h x dim_e and w_d[e] is dim_e x dim_h.
    router (n_expert x dim_e) is None when n_expert == 1."""

    w_q: Matrix
    w_k: Matrix
    w_v: Matrix
    w_o: Matrix
    w_g: list[Matrix]
    w_u: list[Matrix]
    w_d: list[Matrix]
    router: Matrix | None = None

    @cached_property
    def down_rows(self) -> list[Matrix]:
        """Per expert, w_d[e].T as a contiguous dim_h x dim_e array: one down
        row per hidden neuron, so a masked FFN gathers rows, not columns.
        Built on first use; only the masked path uses it, so dense decoding
        never holds the copy."""
        return [np.ascontiguousarray(w.T) for w in self.w_d]


def synth_model(cfg: ModelConfig) -> list[LayerWeights]:
    """Seeded Gaussian weights, bitwise deterministic for a fixed seed.

    Projections scale by 1/sqrt(fan_in); the residual-branch outputs (w_o and
    the down projection) carry an extra 1/sqrt(2*n_dec). There is no
    normalization layer, and the gated FFN is quadratic in its input, so
    without the residual damping a multi-layer rollout blows up numerically.
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
                w_d=[w(cfg.dim_e, cfg.dim_h, resid / np.sqrt(cfg.dim_h))
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


def mha_forward(q: Matrix, k: Matrix, v: Matrix, n_heads: int,
                attn_scale: str = "head_dim") -> Matrix:
    """Scaled dot-product attention of every head at once; concatenates heads.

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
    scale = np.sqrt(dim_e) if attn_scale == "model_dim" else np.sqrt(d)

    def heads(m):
        return m.reshape(m.shape[0], n_heads, d).transpose(1, 0, 2)

    scores = matmul(heads(q), heads(k).transpose(0, 2, 1)) / scale
    out = matmul(softmax(scores, axis="row"), heads(v))
    return out.transpose(1, 0, 2).reshape(q.shape[0], dim_e)


def ffn_forward(x: Matrix, w_g: Matrix, w_u: Matrix, w_d: Matrix) -> Matrix:
    """Gated FFN: (silu(x @ w_g.T) * (x @ w_u.T)) @ w_d.T."""
    if x.shape[1] != w_g.shape[1]:
        raise ShapeError(f"ffn input {x.shape} vs gate {w_g.shape}")
    hidden = silu(matmul(x, w_g.T)) * matmul(x, w_u.T)
    return matmul(hidden, w_d.T)


NeuronMask = np.ndarray  # bool vector of length dim_h


def ffn_forward_masked(x: Matrix, w_g: Matrix, w_u: Matrix, down_rows: Matrix,
                       mask: NeuronMask) -> Matrix:
    """FFN restricted to the hidden neurons selected by ``mask``; equals the
    dense FFN with masked hidden coordinates zeroed after the gating product.

    ``down_rows`` is w_d.T as a contiguous dim_h x dim_e array
    (``LayerWeights.down_rows``), so each selected neuron is one gate row, one
    up row and one down row, and a full mask gathers nothing. The down
    product reads row-major rows, while ``ffn_forward`` reads w_d.T as an
    F-ordered operand, and BLAS rounds the two layouts differently. So an
    all-true mask matches the dense FFN to rounding, not bitwise: target 0
    of ``slim infer`` (every neuron on) reports an output MSE near 1e-31,
    not 0, and the tests compare the two within 1e-12.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (w_g.shape[0],):
        raise ShapeError(f"mask length {mask.shape} vs dim_h {w_g.shape[0]}")
    if down_rows.shape != w_g.shape:
        raise ShapeError(f"down rows {down_rows.shape} vs gate {w_g.shape}; "
                         "pass w_d.T, not w_d")
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        return np.zeros((x.shape[0], down_rows.shape[1]))
    # a full mask selects by a slice, which gathers nothing; gathering inline
    # keeps one gathered copy alive at a time
    sel = slice(None) if idx.size == mask.size else idx
    hidden = silu(matmul(x, w_g[sel].T)) * matmul(x, w_u[sel].T)
    return matmul(hidden, down_rows[sel])


def union_masks(masks: list[NeuronMask]) -> NeuronMask:
    """Union of per-token masks; batched sparse execution fetches each weight
    vector once for the whole batch."""
    out = np.zeros_like(np.asarray(masks[0], dtype=bool))
    for m in masks:
        out |= np.asarray(m, dtype=bool)
    return out


def route_top_k(logits: np.ndarray, top_k: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-k expert indices (ties broken toward the lower index) and softmax
    weights over the selected logits only."""
    order = np.argsort(-logits, kind="stable")
    chosen = order[:top_k]
    weights = softmax(logits[chosen].reshape(1, -1), axis="row").reshape(-1)
    return chosen, weights


def moe_forward(x: Matrix, weights: LayerWeights, top_k: int,
                masks: dict[int, NeuronMask] | None = None) -> Matrix:
    """Route each token to its top-k experts and mix their FFN outputs.

    ``masks`` optionally maps expert index -> neuron mask (shared across the
    batch; callers union per-token masks first).
    """
    n_expert = len(weights.w_g)
    if n_expert == 1:
        if masks is not None and 0 in masks:
            return ffn_forward_masked(x, weights.w_g[0], weights.w_u[0],
                                      weights.down_rows[0], masks[0])
        return ffn_forward(x, weights.w_g[0], weights.w_u[0], weights.w_d[0])
    logits = matmul(x, weights.router.T)
    out = np.zeros((x.shape[0], x.shape[1]))
    for t in range(x.shape[0]):
        chosen, wts = route_top_k(logits[t], top_k)
        xt = x[t : t + 1]
        for e, w in zip(chosen, wts):
            if masks is not None and int(e) in masks:
                y = ffn_forward_masked(xt, weights.w_g[e], weights.w_u[e],
                                       weights.down_rows[e], masks[int(e)])
            else:
                y = ffn_forward(xt, weights.w_g[e], weights.w_u[e], weights.w_d[e])
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
            attn = mha_forward(q, ks, vs, self.cfg.n_heads, self.cfg.attn_scale)
            x = x + matmul(attn, lw.w_o.T)
            if ffn_input_hook is not None:
                ffn_input_hook(li, x.copy())
            masks = None
            if mask_fn is not None:
                masks = {}
                for e in range(self.cfg.n_expert):
                    m = mask_fn(li, e, x[0])
                    if m is not None:
                        masks[e] = m
                if not masks:
                    masks = None
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
