import dataclasses
import gc
import threading
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import slim.model
from slim.errors import ShapeError
from slim.model import (
    Decoder,
    KVCache,
    ModelConfig,
    ffn_forward,
    harvest_ffn_inputs,
    mha_forward,
    moe_forward,
    route_top_k,
    synth_layers,
)
from slim.numerics import matmul, silu, softmax

TOY = ModelConfig(n_dec=2, dim_e=16, dim_h=24, n_heads=4, seq_len=32, seed=9)


# Bit-exact oracles. BLAS kernels differ across CPUs, so the tests compare the
# decoder with these loops on the same machine instead of with stored values.

def reference_mha(q, k, v, n_heads):
    """mha_forward as a loop over heads: one product pair and one softmax per
    head, on column slices of q, k and v. Query row i is the key position
    len(k) - len(q) + i; the scores of later keys are set to -inf."""
    dim_e = q.shape[1]
    d = dim_e // n_heads
    out = np.empty((q.shape[0], dim_e))
    for h in range(n_heads):
        sl = slice(h * d, (h + 1) * d)
        scores = matmul(q[:, sl], k[:, sl].T) / np.sqrt(d)
        for i in range(q.shape[0]):
            scores[i, k.shape[0] - q.shape[0] + i + 1:] = -np.inf
        out[:, sl] = matmul(softmax(scores), v[:, sl])
    return out


def reference_ffn_masked(x, w_g, w_u, w_d, mask):
    """The masked FFN as a column gather on the dim_e x dim_h down projection
    w_d: gate and up rows and strided down columns gathered on every call,
    full mask included."""
    idx = np.flatnonzero(np.asarray(mask, dtype=bool))
    if idx.size == 0:
        return np.zeros((x.shape[0], w_d.shape[0]))
    hidden = silu(matmul(x, w_g[idx].T)) * matmul(x, w_u[idx].T)
    return matmul(hidden, w_d[:, idx].T)


def reference_ffn_zeroed(x, w_g, w_u, w_down, mask=None):
    """The masked FFN written out as zeroing: the dense hidden activations,
    each skipped coordinate overwritten with 0.0, times the down rows."""
    hidden = silu(matmul(x, w_g.T)) * matmul(x, w_u.T)
    if mask is not None:
        hidden[~np.broadcast_to(np.asarray(mask, dtype=bool), hidden.shape)] = 0.0
    return matmul(hidden, w_down)


def assert_close(got, want, rel=1e-12):
    """Equal to ``rel`` of the larger of 1 and want's largest magnitude."""
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= rel * max(1.0, np.max(np.abs(want)))


def reference_ffn_masked_rows(x, w_g, w_u, w_down, mask=None):
    """reference_ffn_masked behind ffn_forward's signature, to patch into the
    decoder. w_d is rebuilt from the neuron rows as a C-ordered copy, and
    None gathers every neuron."""
    if mask is None:
        mask = np.ones(w_g.shape[0], dtype=bool)
    return reference_ffn_masked(x, w_g, w_u, w_down.T.copy(), mask)


class ReferenceCache:
    """A KV cache that grows across decode steps, as one list of rows per
    layer, stacked by np.vstack on every read."""

    def __init__(self, n_layers):
        self.keys = [[] for _ in range(n_layers)]
        self.values = [[] for _ in range(n_layers)]

    def append(self, layer, k, v):
        self.keys[layer] += list(k)
        self.values[layer] += list(v)

    def stacked(self, layer):
        return np.vstack(self.keys[layer]), np.vstack(self.values[layer])


def reference_decode_step(cfg, layers, x, cache, mask_fn=None):
    """A block of rows (n x dim_e), the tokens that follow those already in
    ``cache``, through every layer of ``layers``: each layer appends the
    block's K/V rows and attends over the whole cache with reference_mha, so
    row i sees the cached rows and the block's rows up to i. Over a fresh
    cache this is the block form; one row at a time over a growing cache it
    is the incremental decode."""
    x = np.asarray(x, dtype=np.float64).reshape(-1, cfg.dim_e)
    for li, lw in enumerate(layers):
        q = matmul(x, lw.w_q.T)
        cache.append(li, matmul(x, lw.w_k.T), matmul(x, lw.w_v.T))
        ks, vs = cache.stacked(li)
        x = x + matmul(reference_mha(q, ks, vs, cfg.n_heads), lw.w_o.T)
        masks = None if mask_fn is None else {e: mask_fn(li, e, x) for e in range(cfg.n_expert)}
        x = x + moe_forward(x, lw, cfg.top_k, masks)
    return x


def rollout(cfg, layers, x0, n_tokens, mask_fn=None):
    """Feed each one-row step's output back as the next input over one
    growing cache; returns the sequence of output embeddings."""
    cache = ReferenceCache(cfg.n_dec)
    outs = []
    x = x0
    for _ in range(n_tokens):
        x = reference_decode_step(cfg, layers, x, cache, mask_fn=mask_fn)
        outs.append(x)
    return outs


def decode(dec, layers, x, mask_fn=None):
    """A block through every layer, one decode_step per layer."""
    for layer in enumerate(layers):
        x = dec.decode_step(x, layer, mask_fn=mask_fn)[1]
    return x


@st.composite
def decode_cases(draw):
    n_heads = draw(st.sampled_from([1, 2, 4, 8]))
    n_expert = draw(st.sampled_from([1, 3]))
    cfg = ModelConfig(n_dec=draw(st.integers(1, 2)),
                      dim_e=n_heads * draw(st.integers(1, 6)),
                      dim_h=draw(st.integers(2, 16)), n_heads=n_heads,
                      n_expert=n_expert, top_k=draw(st.integers(1, n_expert)),
                      seq_len=draw(st.integers(1, 40)),
                      seed=draw(st.integers(0, 2**16)))
    # None: dense; inf: every neuron masked off
    threshold = draw(st.sampled_from([None, 0.0, 0.5, 2.0, np.inf]))
    return cfg, threshold


@st.composite
def block_cases(draw):
    n_heads = draw(st.sampled_from([1, 2, 4]))
    n_expert = draw(st.sampled_from([1, 3]))
    cfg = ModelConfig(n_dec=draw(st.integers(1, 2)),
                      dim_e=n_heads * draw(st.integers(1, 6)),
                      dim_h=draw(st.integers(2, 16)), n_heads=n_heads,
                      n_expert=n_expert, top_k=draw(st.integers(1, n_expert)),
                      seq_len=draw(st.integers(1, 24)), seed=draw(st.integers(0, 2**16)))
    return cfg, draw(st.integers(1, cfg.seq_len)), draw(st.booleans())


def test_synth_deterministic():
    a = list(synth_layers(TOY))
    b = list(synth_layers(TOY))
    assert np.array_equal(a[0].w_q, b[0].w_q)
    assert np.array_equal(a[1].w_g[0], b[1].w_g[0])


def reference_synth(cfg):
    """The seeded draw as one eager loop over every layer: per layer w_q,
    w_k, w_v, w_o, each expert's gate, each expert's up, each expert's down
    (drawn dim_e x dim_h, stored as its transpose), then the router."""
    rng = np.random.default_rng([cfg.seed, 0x51])
    scale, resid = 1.0 / np.sqrt(cfg.dim_e), 1.0 / np.sqrt(2.0 * cfg.n_dec)
    layers = []
    for _ in range(cfg.n_dec):
        attn = [rng.standard_normal((cfg.dim_e, cfg.dim_e)) * g
                for g in (scale, scale, scale, scale * resid)]
        gate = [rng.standard_normal((cfg.dim_h, cfg.dim_e)) * scale
                for _ in range(cfg.n_expert)]
        up = [rng.standard_normal((cfg.dim_h, cfg.dim_e)) * scale for _ in range(cfg.n_expert)]
        down = [(rng.standard_normal((cfg.dim_e, cfg.dim_h)) * (resid / np.sqrt(cfg.dim_h))).T
                for _ in range(cfg.n_expert)]
        router = (rng.standard_normal((cfg.n_expert, cfg.dim_e)) * scale
                  if cfg.n_expert > 1 else None)
        layers.append((*attn, gate, up, down, router))
    return layers


def assert_layer_bits(lw, want):
    *attn, gate, up, down, router = want
    for got, w in zip((lw.w_q, lw.w_k, lw.w_v, lw.w_o), attn, strict=True):
        assert got.dtype == np.float64 and np.array_equal(got, w)
    for got, ws in ((lw.w_g, gate), (lw.w_u, up), (lw.w_down, down)):
        assert len(got) == len(ws)
        assert all(g.dtype == np.float64 and g.flags.c_contiguous and np.array_equal(g, w)
                   for g, w in zip(got, ws))
    assert (lw.router is None) == (router is None)
    assert router is None or np.array_equal(lw.router, router)


@given(decode_cases())
# the down projection is drawn 32 rows at a time: two blocks, the last short
@example((ModelConfig(n_dec=1, dim_e=40, dim_h=8, n_heads=4, seq_len=8, seed=3), None))
@settings(max_examples=40, deadline=None)
def test_synth_layers_match_eager_draw(case):
    # layers drawn one at a time, dense or MoE with a router, carry the bits
    # of the eager draw; two sources drawn in turn do not share a generator
    cfg, _ = case
    want = reference_synth(cfg)
    first, second = synth_layers(cfg), synth_layers(cfg)
    for layer in want:
        assert_layer_bits(next(first), layer)
        assert_layer_bits(next(second), layer)
    assert next(first, None) is None and next(second, None) is None


def new_threads(before):
    """Threads alive now that were not in ``before``."""
    return set(threading.enumerate()) - before


def test_synth_layers_reraise_a_failed_draw(monkeypatch):
    # layer 1 is drawn on the worker while the caller holds layer 0; its
    # error reaches the caller when it asks for layer 1
    made = []

    class FailSecond(slim.model.LayerWeights):
        def __init__(self, **weights):
            if made:
                raise RuntimeError("draw failed")
            made.append(1)
            super().__init__(**weights)

    monkeypatch.setattr(slim.model, "LayerWeights", FailSecond)
    before = set(threading.enumerate())
    source = synth_layers(TOY)
    assert isinstance(next(source), FailSecond)
    with pytest.raises(RuntimeError, match="draw failed"):
        next(source)
    assert not new_threads(before)


def test_exhausted_source_joins_its_worker():
    before = set(threading.enumerate())
    assert len(list(synth_layers(TOY))) == TOY.n_dec
    assert not new_threads(before)


def test_closed_or_dropped_source_joins_its_worker():
    before = set(threading.enumerate())
    closed, dropped = synth_layers(TOY), synth_layers(TOY)
    next(closed)
    assert len(new_threads(before)) == 1  # one worker per source
    closed.close()
    assert not new_threads(before)
    next(dropped)
    del dropped
    assert not new_threads(before)


def test_synth_no_router_for_single_expert():
    assert list(synth_layers(TOY))[0].router is None


def test_synth_router_present_for_moe():
    cfg = ModelConfig(n_dec=1, dim_e=16, dim_h=8, n_heads=2, n_expert=4, top_k=2, seed=1)
    layer = list(synth_layers(cfg))[0]
    assert layer.router is not None and layer.router.shape == (4, 16)


def test_synth_frobenius_scaling():
    # E||W||_F^2 = rows*cols/dim_e for N(0, 1/dim_e) entries; Monte-Carlo over seeds.
    rows = cols = 16
    norms = []
    for seed in range(100):
        cfg = ModelConfig(n_dec=1, dim_e=16, dim_h=8, n_heads=2, seed=seed)
        norms.append(np.linalg.norm(list(synth_layers(cfg))[0].w_q))
    expected = np.sqrt(rows * cols / 16)
    assert abs(np.mean(norms) - expected) < 3 * np.std(norms) / np.sqrt(len(norms)) + 0.05


def test_config_validation():
    with pytest.raises(ShapeError):
        ModelConfig(dim_e=10, n_heads=3)
    with pytest.raises(ShapeError):
        ModelConfig(n_expert=2, top_k=3)
    with pytest.raises(ShapeError):
        ModelConfig(n_dec=0)
    with pytest.raises(ShapeError):  # before dim_e % n_heads divides by it
        ModelConfig(n_heads=0)


class TestMha:
    def test_single_row_returns_v(self):
        rng = np.random.default_rng(0)
        q, k, v = (rng.standard_normal((1, 8)) for _ in range(3))
        assert_allclose(mha_forward(q, k, v, 2), v, atol=1e-14)

    def test_uniform_scores_average_v(self):
        # queries orthogonal to every key: row i's scores are equal, so it
        # averages the values of rows 0..i
        rng = np.random.default_rng(1)
        q = np.zeros((5, 8))
        k = rng.standard_normal((5, 8))
        v = rng.standard_normal((5, 8))
        means = np.cumsum(v, axis=0) / np.arange(1, 6)[:, None]
        assert_allclose(mha_forward(q, k, v, 2), means, atol=1e-12)

    def test_against_naive_oracle(self):
        # causal: query i sees keys 0 .. i
        rng = np.random.default_rng(2)
        L, dim_e, h = 6, 8, 2
        q = rng.standard_normal((L, dim_e))
        k, v = (rng.standard_normal((L, dim_e)) for _ in range(2))
        d = dim_e // h
        out = np.zeros((L, dim_e))
        for i in range(L):
            seen = range(i + 1)
            for head in range(h):
                sl = slice(head * d, (head + 1) * d)
                scores = np.array([q[i, sl] @ k[j, sl] for j in seen]) / np.sqrt(d)
                probs = softmax(scores.reshape(1, -1)).ravel()
                out[i, sl] = sum(probs[j] * v[j, sl] for j in seen)
        assert np.max(np.abs(mha_forward(q, k, v, h) - out)) < 1e-10

    def test_more_queries_than_keys_rejected(self):
        # queries and keys are the same block's rows, so fewer queries are
        # refused too
        rng = np.random.default_rng(3)
        q, k = rng.standard_normal((3, 8)), rng.standard_normal((2, 8))
        with pytest.raises(ShapeError):
            mha_forward(q, k, k, 2)
        with pytest.raises(ShapeError):
            mha_forward(k, q, q, 2)

    def test_rows_are_convex_combinations(self):
        rng = np.random.default_rng(4)
        q, k, v = (rng.standard_normal((6, 8)) for _ in range(3))
        out = mha_forward(q, k, v, 4)
        d = 2
        for head in range(4):
            sl = slice(head * d, (head + 1) * d)
            lo, hi = v[:, sl].min(axis=0), v[:, sl].max(axis=0)
            assert np.all(out[:, sl] >= lo - 1e-12) and np.all(out[:, sl] <= hi + 1e-12)

    @given(st.integers(0, 10_000), st.sampled_from([1, 2, 4, 8]),
           st.integers(1, 6), st.integers(1, 40))
    @settings(max_examples=100, deadline=None)
    def test_matches_per_head_loop_bitwise(self, seed, n_heads, d, n):
        rng = np.random.default_rng(seed)
        dim_e = n_heads * d
        q = rng.standard_normal((n, dim_e)) * 3.0
        # k and v are row views of larger buffers, and the oracle's are
        # vstack-ed copies: the products must not depend on the strides
        k = rng.standard_normal((n + 5, dim_e))[:n]
        v = rng.standard_normal((n + 5, dim_e))[:n]
        assert np.array_equal(mha_forward(q, k, v, n_heads),
                              reference_mha(q, np.vstack(list(k)), np.vstack(list(v)),
                                            n_heads))


class TestFfn:
    def test_zero_input(self):
        lw = list(synth_layers(TOY))[0]
        out = ffn_forward(np.zeros((2, 16)), lw.w_g[0], lw.w_u[0], lw.w_down[0])
        assert np.all(out == 0.0)

    def test_scalar_hand_formula(self):
        g, u, d, x = 0.7, -1.3, 2.1, 0.9
        out = ffn_forward(np.array([[x]]), np.array([[g]]), np.array([[u]]), np.array([[d]]))
        hand = silu(np.array([[x * g]]))[0, 0] * (x * u) * d
        assert_allclose(out[0, 0], hand, rtol=1e-12)

    def test_against_column_major_oracle(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((3, 16))
        lw = list(synth_layers(TOY))[0]
        wg, wu, wd = lw.w_g[0], lw.w_u[0], lw.w_down[0].T.copy()
        # oracle composes per hidden unit, accumulating output columns
        out = np.zeros((3, 16))
        for j in range(wg.shape[0]):
            hj = silu(x @ wg[j : j + 1].T) * (x @ wu[j : j + 1].T)
            out += hj @ wd[:, j : j + 1].T
        assert np.max(np.abs(ffn_forward(x, wg, wu, lw.w_down[0]) - out)) < 1e-10


class TestMaskedFfn:
    def _setup(self, seed):
        rng = np.random.default_rng(seed)
        lw = list(synth_layers(TOY))[0]
        x = rng.standard_normal((2, 16))
        return rng, x, lw.w_g[0], lw.w_u[0], lw.w_down[0]

    def test_all_ones_equals_dense(self):
        _, x, wg, wu, wdown = self._setup(6)
        dense = ffn_forward(x, wg, wu, wdown)
        masked = ffn_forward(x, wg, wu, wdown, np.ones(24, dtype=bool))
        assert np.array_equal(dense, masked)

    def test_all_zeros_mask(self):
        _, x, wg, wu, wdown = self._setup(7)
        out = ffn_forward(x, wg, wu, wdown, np.zeros(24, dtype=bool))
        assert out.shape == (2, 16) and np.all(out == 0.0)

    def test_equals_zeroed_hidden_oracle(self):
        rng, x, wg, wu, wdown = self._setup(8)
        mask = rng.random(24) < 0.5
        hidden = silu(x @ wg.T) * (x @ wu.T)
        hidden[:, ~mask] = 0.0
        oracle = hidden @ wdown
        assert np.max(np.abs(ffn_forward(x, wg, wu, wdown, mask) - oracle)) < 1e-12

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_zeroed_hidden_property(self, seed):
        rng, x, wg, wu, wdown = self._setup(seed)
        mask = rng.random(24) < rng.random()
        hidden = silu(x @ wg.T) * (x @ wu.T)
        hidden[:, ~mask] = 0.0
        assert np.max(np.abs(ffn_forward(x, wg, wu, wdown, mask) - hidden @ wdown)) < 1e-12

    def test_per_row_mask_is_rowwise(self):
        rng, x, wg, wu, wdown = self._setup(11)
        masks = rng.random((2, 24)) < 0.5
        got = ffn_forward(x, wg, wu, wdown, masks)
        for t in range(2):
            assert_close(got[t], ffn_forward(x[t:t + 1], wg, wu, wdown, masks[t])[0])
        with pytest.raises(ShapeError):
            ffn_forward(x, wg, wu, wdown, masks[:1].repeat(3, axis=0))

    def test_skipped_overflow_neuron_stays_out(self):
        # neuron 3's gate product overflows to inf on every row; skipped, it
        # must not turn the output into inf or nan (0 * inf would)
        _, x, wg, wu, wdown = self._setup(12)
        x = np.abs(x) + 1.0
        wg = wg.copy()
        wg[3] = 1e308
        mask = np.ones(24, dtype=bool)
        mask[3] = False
        zeroed = wg.copy()
        zeroed[3] = 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.all(np.isfinite(ffn_forward(x, wg, wu, wdown)))
            got = ffn_forward(x, wg, wu, wdown, mask)
        assert np.all(np.isfinite(got))
        assert np.array_equal(got, ffn_forward(x, zeroed, wu, wdown, mask))

    def test_mask_length_checked(self):
        _, x, wg, wu, wdown = self._setup(9)
        with pytest.raises(ShapeError):
            ffn_forward(x, wg, wu, wdown, np.ones(5, dtype=bool))

    def test_down_rows_shape_checked(self):
        # the down projection passed as dim_e x dim_h instead of as neuron
        # rows; a mask that selects only neurons below dim_e would otherwise
        # return dim_h columns
        _, x, wg, wu, wdown = self._setup(9)
        mask = np.zeros(24, dtype=bool)
        mask[:4] = True
        for m in (mask, None):
            with pytest.raises(ShapeError):
                ffn_forward(x, wg, wu, wdown.T.copy(), m)

    @given(st.integers(0, 2**16), st.sampled_from([1, 3]), st.integers(1, 4),
           st.integers(1, 40), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_dense_is_all_true_mask_bitwise(self, seed, n_expert, d, dim_h, rows):
        # one layout: no mask and a full mask run the same products, for a
        # plain FFN and for every expert of an MoE layer
        top_k = min(2, n_expert)
        cfg = ModelConfig(n_dec=1, dim_e=2 * d, dim_h=dim_h, n_heads=2, n_expert=n_expert,
                          top_k=top_k, seed=seed)
        lw = list(synth_layers(cfg))[0]
        x = np.random.default_rng(seed).standard_normal((rows, cfg.dim_e))
        ones = np.ones(dim_h, dtype=bool)
        for wg, wu, wdown in zip(lw.w_g, lw.w_u, lw.w_down):
            assert np.array_equal(ffn_forward(x, wg, wu, wdown),
                                  ffn_forward(x, wg, wu, wdown, ones))
        assert np.array_equal(moe_forward(x, lw, top_k),
                              moe_forward(x, lw, top_k, {e: ones for e in range(n_expert)}))

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_column_gather_bitwise(self, seed):
        # the train-infer shape; every kind of mask a decode step can see
        rng = np.random.default_rng(seed)
        dim_e, dim_h = 256, 1024
        w_g = rng.standard_normal((dim_h, dim_e)) / np.sqrt(dim_e)
        w_u = rng.standard_normal((dim_h, dim_e)) / np.sqrt(dim_e)
        w_d = rng.standard_normal((dim_e, dim_h)) / np.sqrt(dim_h)
        w_down = w_d.T.copy()
        one = np.zeros(dim_h, dtype=bool)
        one[rng.integers(dim_h)] = True
        masks = [np.zeros(dim_h, dtype=bool), one, np.ones(dim_h, dtype=bool)]
        masks += [rng.random(dim_h) < d for d in (0.4, 0.6, 0.8)]
        for rows in (1, 3):
            x = rng.standard_normal((rows, dim_e))
            for mask in masks:
                got = ffn_forward(x, w_g, w_u, w_down, mask)
                assert np.array_equal(got, reference_ffn_zeroed(x, w_g, w_u, w_down, mask))
                assert_close(got, reference_ffn_masked(x, w_g, w_u, w_d, mask))

    def test_layer_down_rows(self):
        # synth_layers draws each down projection dim_e x dim_h, as before the
        # one layout, and stores it as contiguous neuron rows
        cfg = TestMoe.CFG
        rng = np.random.default_rng([cfg.seed, 0x51])
        rng.standard_normal((4 * cfg.dim_e + 2 * cfg.n_expert * cfg.dim_h, cfg.dim_e))
        gain = 1.0 / np.sqrt(2.0 * cfg.n_dec) / np.sqrt(cfg.dim_h)
        lw = list(synth_layers(cfg))[0]
        for w_down in lw.w_down:
            drawn = rng.standard_normal((cfg.dim_e, cfg.dim_h)) * gain
            assert w_down.flags.c_contiguous and np.array_equal(w_down, drawn.T)


class TestMoe:
    CFG = ModelConfig(n_dec=1, dim_e=16, dim_h=8, n_heads=2, n_expert=4, top_k=2, seed=11)

    def test_single_expert_reduces_to_ffn(self):
        lw = list(synth_layers(TOY))[0]
        x = np.random.default_rng(12).standard_normal((3, 16))
        assert np.array_equal(moe_forward(x, lw, 1),
                              ffn_forward(x, lw.w_g[0], lw.w_u[0], lw.w_down[0]))

    def test_top_k_equals_all_mixture(self):
        lw = list(synth_layers(self.CFG))[0]
        x = np.random.default_rng(13).standard_normal((2, 16))
        logits = x @ lw.router.T
        full = softmax(logits)
        expected = np.zeros_like(x)
        for t in range(2):
            for e in range(4):
                expected[t] += full[t, e] * ffn_forward(
                    x[t : t + 1], lw.w_g[e], lw.w_u[e], lw.w_down[e])[0]
        assert_allclose(moe_forward(x, lw, 4), expected, atol=1e-12)

    def test_crafted_routing(self):
        chosen, wts = route_top_k(np.array([3.0, 1.0, 2.0, 0.0]), 2)
        assert chosen.tolist() == [0, 2]
        assert_allclose(wts, softmax(np.array([[3.0, 2.0]])).ravel(), atol=1e-15)
        assert abs(wts.sum() - 1.0) <= 1e-12

    @pytest.mark.parametrize("seed", range(6))
    def test_masked_matches_column_gather_bitwise(self, seed):
        cfg = ModelConfig(n_dec=1, dim_e=64, dim_h=256, n_heads=2, n_expert=4, top_k=2,
                          seed=seed)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((3, 64))
        # expert 3 stays dense; expert 2 keeps every neuron
        masks = {0: rng.random(256) < 0.4, 1: rng.random(256) < 0.8,
                 2: np.ones(256, dtype=bool)}
        lw = list(synth_layers(cfg))[0]
        # moe_forward's loop with each expert's FFN from an oracle: the
        # zeroing one bitwise, the column gather (on each expert's own down
        # projection) to rounding
        def mixed(ffn):
            want = np.zeros_like(x)
            logits = matmul(x, lw.router.T)
            for t in range(3):
                chosen, wts = route_top_k(logits[t], 2)
                for e, w in zip(chosen, wts):
                    want[t] += w * ffn(x[t : t + 1], lw.w_g[e], lw.w_u[e], lw.w_down[e],
                                       masks.get(e))[0]
            return want

        got = moe_forward(x, lw, 2, masks)
        assert np.array_equal(got, mixed(reference_ffn_zeroed))
        assert_close(got, mixed(reference_ffn_masked_rows))

    def test_tie_break_lower_index(self):
        chosen, _ = route_top_k(np.array([1.0, 1.0, 1.0]), 2)
        assert chosen.tolist() == [0, 1]

    def test_routing_shift_invariant(self):
        logits = np.array([0.3, -1.2, 0.9, 0.1])
        a, _ = route_top_k(logits, 2)
        b, _ = route_top_k(logits + 5.0, 2)
        assert a.tolist() == b.tolist()


class TestDecode:
    @given(decode_cases())
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_decode_bitwise(self, case):
        # a block of seq_len tokens, one decode_step per layer, gives the
        # bits of the reference block decode, masked per token or not
        cfg, threshold = case
        dec, layers = Decoder(cfg), list(synth_layers(cfg))
        rng = np.random.default_rng([cfg.seed, 1])
        proj = rng.standard_normal((cfg.n_dec, cfg.n_expert, cfg.dim_e, cfg.dim_h))

        def mask_fn(layer, expert, x):
            if expert == 1:
                return None  # this expert runs dense
            return np.abs(x @ proj[layer, expert]) > threshold

        fn = None if threshold is None else mask_fn
        x = rng.standard_normal((cfg.seq_len, cfg.dim_e))
        want = reference_decode_step(cfg, layers, x, ReferenceCache(cfg.n_dec), mask_fn=fn)
        assert np.array_equal(decode(dec, layers, x, mask_fn=fn), want)

    @given(block_cases())
    @settings(max_examples=60, deadline=None)
    def test_block_matches_one_row_steps(self, case):
        # an n-row block decodes as n one-row steps over a growing cache do,
        # dense or with a mask per token (expert 1 of an MoE layer dense)
        cfg, n, masked = case
        dec, layers = Decoder(cfg), list(synth_layers(cfg))
        rng = np.random.default_rng([cfg.seed, 2])
        xs = rng.standard_normal((n, cfg.dim_e))
        table = rng.random((cfg.n_dec, cfg.n_expert, n, cfg.dim_h)) < 0.5

        def masks_from(pos):
            # masks by token position, so block and steps see the same ones
            if not masked:
                return None
            return lambda layer, expert, x: (
                None if expert == 1 else table[layer, expert, pos:pos + len(x)])

        got = decode(dec, layers, xs, mask_fn=masks_from(0))
        steps = ReferenceCache(cfg.n_dec)
        want = np.vstack([reference_decode_step(cfg, layers, xs[i], steps, mask_fn=masks_from(i))
                          for i in range(n)])
        assert_close(got, want)

    @given(block_cases())
    @settings(max_examples=40, deadline=None)
    def test_layer_major_streams_match_whole_decode(self, case):
        # a dense and a masked stream passing each layer (drawn one at a
        # time) before the next one is drawn give the bits of decoding each
        # stream alone through the resident layers
        cfg, n, _ = case
        dec = Decoder(cfg)
        rng = np.random.default_rng([cfg.seed, 3])
        xs = rng.standard_normal((n, cfg.dim_e))
        table = rng.random((cfg.n_dec, cfg.n_expert, n, cfg.dim_h)) < 0.5
        fns = [None, lambda layer, expert, x: table[layer, expert]]
        want = [decode(dec, list(synth_layers(cfg)), xs, mask_fn=fn) for fn in fns]
        got = [xs] * len(fns)
        for layer in enumerate(synth_layers(cfg)):
            got = [dec.decode_step(x, layer, mask_fn=fn)[1] for x, fn in zip(got, fns)]
        for g, w in zip(got, want, strict=True):
            assert np.array_equal(g, w)

    def test_first_token_attention_is_v(self):
        # token 0 of a block attends only to itself, so its FFN input is x
        # plus its own V row through the output projection
        dec, lw = Decoder(TOY), list(synth_layers(TOY))[0]
        x = np.random.default_rng(14).standard_normal((3, 16))
        ffn_in, _ = dec.decode_step(x, (0, lw))
        v = x[:1] @ lw.w_v.T
        assert_allclose(ffn_in[:1], x[:1] + v @ lw.w_o.T, atol=1e-14)

    @pytest.mark.parametrize("shape", [(3, 16), (3, 4), (8,), (2, 3, 8)])
    def test_block_not_n_by_dim_e_refused(self, shape):
        # a (3 x 16) block on a dim_e=8 model is refused, not decoded as 6 tokens
        cfg = ModelConfig(n_dec=1, dim_e=8, dim_h=12, n_heads=2, seq_len=8, seed=3)
        dec, lw = Decoder(cfg), list(synth_layers(cfg))[0]
        with pytest.raises(ShapeError):
            dec.decode_step(np.ones(shape), (0, lw))
        ffn_in, out = dec.decode_step(np.ones((3, 8)), (0, lw))
        assert ffn_in.shape == out.shape == (3, 8)

    def test_all_ones_masks_match_dense(self):
        dec, layers = Decoder(TOY), list(synth_layers(TOY))
        x = np.random.default_rng(15).standard_normal((3, 16))
        dense = decode(dec, layers, x)
        masked = decode(dec, layers, x, mask_fn=lambda l, e, row: np.ones(24, dtype=bool))
        assert np.array_equal(dense, masked)

    def test_masked_rollout_matches_column_gather_bitwise(self, monkeypatch):
        # a rollout without a cache: each step decodes the whole sequence so
        # far as one block and feeds its last output row back
        cfg = ModelConfig(n_dec=2, dim_e=256, dim_h=1024, n_heads=8, seq_len=8, seed=18)
        dec, layers = Decoder(cfg), list(synth_layers(cfg))
        x0 = np.random.default_rng(19).standard_normal((1, cfg.dim_e))

        def masked_rollout():
            # one draw per call, in call order, so both rollouts see the same masks
            rng = np.random.default_rng(20)
            densities = iter([0.0, 1.0, 0.4, 0.6, 0.8, 1.0] * cfg.seq_len)
            xs, outs = x0, []
            for _ in range(6):
                outs.append(decode(dec, layers, xs, mask_fn=lambda layer, expert, x:
                                   rng.random(cfg.dim_h) < next(densities))[-1:])
                xs = np.vstack([xs, outs[-1]])
            return outs

        got = masked_rollout()
        monkeypatch.setattr(slim.model, "ffn_forward", reference_ffn_zeroed)
        for a, b in zip(got, masked_rollout(), strict=True):
            assert np.array_equal(a, b)
        monkeypatch.setattr(slim.model, "ffn_forward", reference_ffn_masked_rows)
        for a, b in zip(got, masked_rollout(), strict=True):
            assert_close(a, b)

    def test_rollout_matches_cache_free_oracle(self):
        # the incremental rollout, one-row steps over a growing cache, gives
        # each output the block decode of the inputs so far gives its last row
        cfg = TOY
        dec, layers = Decoder(cfg), list(synth_layers(cfg))
        x0 = np.random.default_rng(16).standard_normal((1, cfg.dim_e))
        outs = rollout(cfg, layers, x0, 5)
        inputs = np.vstack([x0] + outs[:-1])
        for t, got in enumerate(outs):
            want = decode(dec, layers, inputs[:t + 1])[-1:]
            assert np.max(np.abs(got - want)) < 1e-9

    def test_cache_grows_one_row_per_step(self, monkeypatch):
        # the incremental decode's cache grows one row per step and ends with
        # the K/V rows the block form attends over: one KVCache per layer,
        # holding the block's n rows (perfbench counts these rows)
        dec, layers = Decoder(TOY), list(synth_layers(TOY))
        x = np.random.default_rng(17).standard_normal((4, 16))
        seen = []
        stacked = KVCache.stacked

        def recorded(self):
            seen.append(stacked(self))
            return seen[-1]

        monkeypatch.setattr(KVCache, "stacked", recorded)
        decode(dec, layers, x)
        assert len(seen) == TOY.n_dec
        cache = ReferenceCache(TOY.n_dec)
        for n in range(1, 5):
            reference_decode_step(TOY, layers, x[n - 1], cache)
            assert all(len(cache.stacked(li)[0]) == n for li in range(TOY.n_dec))
        for li, block in enumerate(seen):
            for a, b in zip(block, cache.stacked(li), strict=True):
                assert a.shape == (4, 16)
                assert_close(a, b)

    def test_kv_row_width_checked(self):
        # attention refuses keys or values whose rows are not the queries' width
        q = np.ones((2, 4))
        for k, v in ((np.ones((2, 5)), np.ones((2, 5))), (q, np.ones((2, 5)))):
            with pytest.raises(ShapeError):
                mha_forward(q, k, v, 2)


def test_harvest_shapes():
    dec, layers = Decoder(TOY), list(synth_layers(TOY))
    items = list(harvest_ffn_inputs(dec, layers, 6, seed=2))
    # every layer once, in order, with its own gates
    assert [li for li, _, _ in items] == list(range(TOY.n_dec))
    assert all(gates is want.w_g for (_, gates, _), want in zip(items, layers, strict=True))
    sets = [x for _, _, x in items]
    assert len(sets) == TOY.n_dec
    assert all(s.shape == (6, TOY.dim_e) for s in sets)
    again = [x for _, _, x in harvest_ffn_inputs(dec, layers, 6, seed=2)]
    assert np.array_equal(sets[0], again[0])


def test_harvest_from_drawn_layers_matches_resident_model():
    dec, resident = Decoder(TOY), list(synth_layers(TOY))
    layers, drawn = reference_synth(TOY), []

    def keep(lw):  # the streamed layers, kept to check every weight's bits
        drawn.append(lw)
        return lw

    streamed = harvest_ffn_inputs(dec, map(keep, synth_layers(TOY)), 6, seed=2)
    for (li, gates, got), (lj, _, want) in zip(streamed,
                                               harvest_ffn_inputs(dec, resident, 6, seed=2),
                                               strict=True):
        assert li == lj
        assert gates is drawn[li].w_g
        assert_layer_bits(drawn[li], layers[li])
        assert np.array_equal(got, want)


@pytest.mark.parametrize("cfg", [TOY, dataclasses.replace(TOY, n_expert=3, top_k=2)],
                         ids=["dense", "moe"])
def test_harvest_holds_only_the_gates_of_a_passed_layer(cfg):
    # the caller fits from the gates alone, so once a layer is passed
    # nothing else of it may stay alive through the fit
    layer_refs, gate_refs = [], []

    def track(lw):  # fresh from the draw, and held by nothing but the harvest
        layer_refs.append(weakref.ref(lw))
        gate_refs.append([weakref.ref(g) for g in lw.w_g])
        return lw

    for li, gates, _ in harvest_ffn_inputs(Decoder(cfg), map(track, synth_layers(cfg)), 6,
                                           seed=2):
        gc.collect()
        assert len(layer_refs) == li + 1
        assert layer_refs[li]() is None
        assert all(ref() is g for ref, g in zip(gate_refs[li], gates, strict=True))


def test_harvest_from_short_source_raises():
    stream = harvest_ffn_inputs(Decoder(TOY), list(synth_layers(TOY))[:1], 6, seed=2)
    assert next(stream)[0] == 0
    with pytest.raises(ShapeError, match="after 1 of"):
        next(stream)


def test_harvest_matches_one_row_stream():
    # one (n x dim_e) draw is the n one-row draws of a one-token-at-a-time
    # harvest, and the block decode collects their FFN inputs to rounding
    layers = list(synth_layers(TOY))
    block_rng, row_rng = (np.random.default_rng([2, 0xCA11]) for _ in range(2))
    rows = [row_rng.standard_normal((1, TOY.dim_e)) for _ in range(6)]
    assert np.array_equal(block_rng.standard_normal((6, TOY.dim_e)), np.vstack(rows))
    grabbed = [[] for _ in range(TOY.n_dec)]

    def grab(li, expert, xm):  # records the FFN input and leaves the FFN dense
        grabbed[li].append(xm.copy())

    cache = ReferenceCache(TOY.n_dec)
    for x in rows:
        reference_decode_step(TOY, layers, x, cache, mask_fn=grab)
    harvested = [x for _, _, x in harvest_ffn_inputs(Decoder(TOY), layers, 6, seed=2)]
    for got, want in zip(harvested, grabbed, strict=True):
        assert_close(got, np.vstack(want))
