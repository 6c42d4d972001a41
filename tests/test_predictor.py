import logging

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import measured_sparsity
from slim.errors import RankError, ShapeError, TrainingDivergence
from slim.model import Decoder, ModelConfig, ffn_forward, harvest_ffn_inputs, synth_layers
from slim.predictor import (
    DIVERGENCE_FACTOR,
    Predictor,
    build_threshold_table,
    default_dim_lr,
    init_from_svd,
    loss_gradients,
    predict_mask,
    quantile_threshold,
    reconstruction_loss,
    thresholds_from_json,
    thresholds_to_json,
    train,
)


def rand_gate(dim_h, dim_e, seed):
    return np.random.default_rng(seed).standard_normal((dim_h, dim_e)) / np.sqrt(dim_e)


def reference_train(p, x, w_g, epochs, lr):
    """``train``'s rules stepped on (L, R) in all of dim_h: the oracle for
    its coordinates and for its carried x @ L."""
    n = x.shape[0]
    l, r = p.l.copy(), p.r.copy()
    target = x @ w_g.T
    err = x @ l @ r - target
    loss = float(np.sum(err * err))
    init = loss
    history = [loss]
    step = lr
    for _ in range(epochs):
        grad_l = (2.0 / n) * (x.T @ (err @ r.T))
        grad_r = (2.0 / n) * ((x @ l).T @ err)
        cand_l = l - step * grad_l
        cand_r = r - step * grad_r
        with np.errstate(over="ignore", invalid="ignore"):
            cand_err = x @ cand_l @ cand_r - target
            cand_loss = float(np.sum(cand_err * cand_err))
        hopeless = step <= lr * 2.0 ** -50 and init > 0.0 \
            and cand_loss > DIVERGENCE_FACTOR * init
        if not np.isfinite(cand_loss) or hopeless:
            raise TrainingDivergence("diverged", history + [cand_loss])
        if cand_loss > loss:
            step *= 0.5
            continue
        l, r, err, loss = cand_l, cand_r, cand_err, cand_loss
        history.append(loss)
    return Predictor(l=l, r=r), history


class TestInit:
    def test_exact_rank_recovery(self):
        rng = np.random.default_rng(0)
        u = rng.standard_normal((24, 3))
        v = rng.standard_normal((3, 16))
        w_g = u @ v  # rank 3
        p = init_from_svd(w_g, 3)
        x = rng.standard_normal((5, 16))
        assert np.linalg.norm(x @ p.l @ p.r - x @ w_g.T) < 1e-9

    def test_full_rank_exact(self):
        w_g = rand_gate(24, 16, 1)
        p = init_from_svd(w_g, 16)
        x = np.random.default_rng(2).standard_normal((4, 16))
        assert np.linalg.norm(x @ p.l @ p.r - x @ w_g.T) < 1e-8

    def test_init_loss_matches_svd_truncation_bound(self):
        # With orthonormal-by-construction X the loss reduces to the sum of
        # discarded squared singular values of w_g.T.
        w_g = rand_gate(20, 12, 3)
        r = 5
        p = init_from_svd(w_g, r)
        x = np.eye(12)
        s = np.linalg.svd(w_g.T, compute_uv=False)
        assert abs(reconstruction_loss(p, x, w_g) - np.sum(s[r:] ** 2)) < 1e-8

    def test_rank_error(self):
        with pytest.raises(RankError):
            init_from_svd(rand_gate(8, 6, 4), 7)

    def test_default_dim_lr(self):
        assert default_dim_lr(4096) == 1024
        assert default_dim_lr(2) == 1

    def test_param_budget_under_10_percent(self):
        # predictor params vs per-layer model params, dim_h >= 2*dim_e
        for dim_e, dim_h in [(64, 256), (128, 256), (4096, 11008)]:
            dim_lr = default_dim_lr(dim_e)
            params = dim_lr * (dim_e + dim_h)
            layer_params = 4 * dim_e**2 + 3 * dim_e * dim_h
            assert params / layer_params < 0.10


class TestTrain:
    def test_full_rank_stays_at_optimum(self):
        w_g = rand_gate(12, 8, 5)
        p = init_from_svd(w_g, 8)
        x = np.random.default_rng(6).standard_normal((10, 8))
        trained, hist = train(p, x, w_g, epochs=20, lr=1e-3)
        assert hist[0] < 1e-9 and hist[-1] < 1e-9
        assert np.max(np.abs(trained.l - p.l)) < 1e-6
        assert np.max(np.abs(trained.r - p.r)) < 1e-6

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        w_g = rand_gate(8, 6, 8)
        p = Predictor(l=rng.standard_normal((6, 3)), r=rng.standard_normal((3, 8)))
        x = rng.standard_normal((5, 6))
        gl, gr = loss_gradients(p, x, w_g)
        eps = 1e-6

        def num_grad(which):
            base = p.l if which == "l" else p.r
            g = np.zeros_like(base)
            for i in range(base.shape[0]):
                for j in range(base.shape[1]):
                    hi = base.copy(); hi[i, j] += eps
                    lo = base.copy(); lo[i, j] -= eps
                    ph = Predictor(l=hi, r=p.r) if which == "l" else Predictor(l=p.l, r=hi)
                    pl = Predictor(l=lo, r=p.r) if which == "l" else Predictor(l=p.l, r=lo)
                    g[i, j] = (reconstruction_loss(ph, x, w_g)
                               - reconstruction_loss(pl, x, w_g)) / (2 * eps)
            return g

        assert np.max(np.abs(gl - num_grad("l"))) / np.max(np.abs(gl)) < 1e-5
        assert np.max(np.abs(gr - num_grad("r"))) / np.max(np.abs(gr)) < 1e-5

    def test_train_steps_along_loss_gradients(self):
        # one accepted step moves (L, R) by lr times the per-sample mean of
        # the gradients checked above
        w_g = rand_gate(48, 32, 11)
        p = init_from_svd(w_g, 8)
        x = np.random.default_rng(12).standard_normal((64, 32))
        lr = 1e-4
        trained, hist = train(p, x, w_g, epochs=1, lr=lr)
        assert len(hist) == 2 and hist[1] < hist[0]
        gl, gr = loss_gradients(p, x, w_g)
        np.testing.assert_allclose(trained.l, p.l - lr * gl / 64, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(trained.r, p.r - lr * gr / 64, rtol=1e-12, atol=1e-15)

    def test_loss_strictly_decreases(self):
        w_g = rand_gate(48, 32, 9)
        p = init_from_svd(w_g, 8)
        x = np.random.default_rng(10).standard_normal((64, 32))
        _, hist = train(p, x, w_g, epochs=50, lr=1e-3)
        assert hist[-1] < hist[0]
        rerun = train(init_from_svd(w_g, 8), x, w_g, epochs=50, lr=1e-3)[1]
        assert rerun == hist  # run-to-run deterministic

    def test_divergence_raises_with_history(self):
        w_g = rand_gate(12, 8, 11)
        p = init_from_svd(w_g, 2)
        # absurd activation scale: the first step overflows and cannot recover
        x = np.random.default_rng(12).standard_normal((30, 8)) * 1e100
        with pytest.raises(TrainingDivergence) as exc:
            train(p, x, w_g, epochs=200, lr=5.0)
        assert len(exc.value.history) >= 2

    def test_recoverable_overshoot_backs_off(self):
        w_g = rand_gate(12, 8, 30)
        p = init_from_svd(w_g, 2)
        x = np.random.default_rng(31).standard_normal((30, 8)) * 4.0
        trained, hist = train(p, x, w_g, epochs=100, lr=5.0)
        assert hist[-1] <= hist[0]

    @pytest.mark.parametrize("case", [
        # name: dim_h, dim_e, n_tokens, dim_lr, x scale, epochs, lr, R0 from the SVD
        ("svd init", 48, 32, 24, 8, 1.0, 50, 1e-3, True),
        ("random R0 off w_g's columns", 64, 16, 12, 4, 1.0, 50, 1e-3, False),
        ("n > dim_e: basis from w_g", 64, 16, 40, 4, 1.0, 50, 1e-3, True),
        ("n + dim_lr >= dim_h: complete basis", 20, 32, 16, 8, 1.0, 50, 1e-3, True),
        ("lr=5.0 overshoot rejects steps", 12, 8, 30, 2, 4.0, 100, 5.0, True),
    ], ids=lambda c: c[0])
    def test_basis_matches_full_space_loop(self, case):
        _, dim_h, dim_e, n, dim_lr, scale, epochs, lr, svd = case
        rng = np.random.default_rng(dim_h * 1000 + n)
        w_g = rand_gate(dim_h, dim_e, n)
        p = (init_from_svd(w_g, dim_lr) if svd else
             Predictor(l=rng.standard_normal((dim_e, dim_lr)),
                       r=rng.standard_normal((dim_lr, dim_h))))
        x = rng.standard_normal((n, dim_e)) * scale
        got, hist = train(p, x, w_g, epochs=epochs, lr=lr)
        want, ref_hist = reference_train(p, x, w_g, epochs=epochs, lr=lr)
        assert len(hist) == len(ref_hist)
        if lr == 5.0:
            assert len(hist) < epochs + 1  # the case does reject steps
        np.testing.assert_allclose(hist, ref_hist, rtol=1e-12)
        for a, ref in ((got.l, want.l), (got.r, want.r)):
            np.testing.assert_allclose(a, ref, rtol=1e-10, atol=1e-10 * np.max(np.abs(ref)))

    @given(st.integers(0, 2**32 - 1), st.booleans(), st.booleans(), st.booleans(),
           st.booleans(), st.booleans())
    @example(seed=0, above=True, n_above=False, svd=True, overshoot=False, deficient=True)
    @settings(max_examples=60, deadline=None)
    def test_matches_full_space_loop(self, seed, above, n_above, svd, overshoot, deficient):
        # dim_h above dim_e (twice or more, so the gate is well conditioned)
        # or at most dim_e; n above or below dim_e; R0 from the SVD or off
        # w_g's columns; lr=5.0 rejections; a rank-3 gate such as u @ v.
        # dim_lr stays below the rank of the target x @ w_g.T, so the loss
        # keeps a floor well above rounding, and lr=5.0 runs 15 epochs: with
        # more, tiny problems reach a plateau where rounding noise decides
        # whether a step is accepted
        rng = np.random.default_rng(seed)
        dim_e = int(rng.integers(4, 17))
        dim_h = int(rng.integers(2 * dim_e, 4 * dim_e + 1) if above else rng.integers(3, dim_e + 1))
        n = int(rng.integers(dim_e + 1, 3 * dim_e) if n_above else rng.integers(2, dim_e))
        if deficient:
            w_g = rng.standard_normal((dim_h, 3)) @ rng.standard_normal((3, dim_e)) / dim_e
        else:
            w_g = rand_gate(dim_h, dim_e, seed)
        dim_lr = int(rng.integers(1, min(dim_h, dim_e, n, 3 if deficient else 8)))
        p = (init_from_svd(w_g, dim_lr) if svd else
             Predictor(l=rng.standard_normal((dim_e, dim_lr)),
                       r=rng.standard_normal((dim_lr, dim_h))))
        x = rng.standard_normal((n, dim_e)) * (4.0 if overshoot else 1.0)
        lr, epochs = (5.0, 15) if overshoot else (1e-3, 30)

        got, hist = train(p, x, w_g, epochs=epochs, lr=lr)
        want, ref_hist = reference_train(p, x, w_g, epochs=epochs, lr=lr)
        assert len(hist) == len(ref_hist)
        np.testing.assert_allclose(hist, ref_hist, rtol=1e-12)
        for a, ref in ((got.l, want.l), (got.r, want.r)):
            np.testing.assert_allclose(a, ref, rtol=1e-10, atol=1e-10 * np.max(np.abs(ref)))

    @pytest.mark.parametrize("case", [
        # name: dim_h, dim_e, R0 from the SVD, rank of w_g (None: a full-rank
        # Gaussian gate), coordinates' width
        ("svd init, dim_h > dim_e", 48, 16, True, None, 16),
        ("R0 off w_g's columns", 48, 16, False, None, 48),
        ("dim_h <= dim_e", 16, 16, True, None, 16),
        ("rank-deficient gate", 24, 16, True, 3, 24),  # Cholesky fails
        ("rank-deficient gate, rounding pivot", 12, 8, True, 7, 12),  # Cholesky succeeds
    ], ids=lambda c: c[0])
    def test_coordinates_width(self, caplog, case):
        _, dim_h, dim_e, svd, rank, width = case
        rng = np.random.default_rng(dim_h + (rank or 0))
        w_g = (rand_gate(dim_h, dim_e, dim_h) if rank is None else
               rng.standard_normal((dim_h, rank)) @ rng.standard_normal((rank, dim_e)) / dim_e)
        p = (init_from_svd(w_g, 2) if svd else
             Predictor(l=rng.standard_normal((dim_e, 2)), r=rng.standard_normal((2, dim_h))))
        x = rng.standard_normal((12, dim_e))
        caplog.set_level(logging.DEBUG, logger="slim")
        got, hist = train(p, x, w_g, epochs=20)
        lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("train:")]
        assert len(lines) == 1 and lines[0].startswith(f"train: coordinates {width} wide,")
        want, ref_hist = reference_train(p, x, w_g, epochs=20, lr=1e-3)
        assert len(hist) == len(ref_hist)
        np.testing.assert_allclose(hist, ref_hist, rtol=1e-12)
        for a, ref in ((got.l, want.l), (got.r, want.r)):
            np.testing.assert_allclose(a, ref, rtol=1e-10, atol=1e-10 * np.max(np.abs(ref)))

    @pytest.mark.parametrize("scale", [1e100, 1e160, 1e300, np.inf])
    def test_basis_diverges_like_full_space_loop(self, scale):
        w_g = rand_gate(12, 8, 11)
        p = init_from_svd(w_g, 2)
        x = np.random.default_rng(12).standard_normal((30, 8)) * scale
        with np.errstate(all="ignore"):
            with pytest.raises(TrainingDivergence) as got:
                train(p, x, w_g, epochs=200, lr=5.0)
            with pytest.raises(TrainingDivergence) as want:
                reference_train(p, x, w_g, epochs=200, lr=5.0)
        # Same step, same finite losses. Which non-finite value a diverged loss
        # takes is not pinned: at the SVD init the gradient is zero up to
        # rounding, so at 1e160 the step follows rounding noise and the signs
        # of the overflowing products decide between inf and nan.
        hist, ref_hist = np.array(got.value.history), np.array(want.value.history)
        assert hist.shape == ref_hist.shape
        finite = np.isfinite(ref_hist)
        assert np.array_equal(np.isfinite(hist), finite)
        np.testing.assert_allclose(hist[finite], ref_hist[finite], rtol=1e-12)

    def test_shape_check(self):
        w_g = rand_gate(12, 8, 13)
        p = init_from_svd(w_g, 2)
        with pytest.raises(ShapeError):
            train(p, np.zeros((4, 5)), w_g)


class TestThresholds:
    def test_hand_quantile(self):
        scores = np.array([0.1, 0.5, 0.9, 1.3])
        assert quantile_threshold(scores, 0.5) == 0.5

    def test_target_zero(self):
        assert quantile_threshold(np.array([0.4, 0.2]), 0.0) == 0.0

    @given(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, 3.0]) | st.floats(0, 10),
                    min_size=1, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_order_statistic_matches_sort(self, pool):
        # pools with ties and duplicates; every k from 0 (target 0) to n - 1
        scores = np.array(pool)
        ordered = np.sort(scores)
        n = scores.size
        for target in [i / n for i in range(n)] + [0.999999]:
            k = int(np.floor(target * n))
            got = quantile_threshold(scores, target)
            assert got == (0.0 if k == 0 else ordered[k - 1])
        assert np.array_equal(scores, np.array(pool))  # the pool is left as it was

    def test_table_monotone(self):
        w_g = rand_gate(24, 16, 14)
        p = init_from_svd(w_g, 4)
        x = np.random.default_rng(15).standard_normal((32, 16))
        table = build_threshold_table(p, x, [0.2, 0.4, 0.6])
        thr = [t for _, t in table.entries]
        assert thr == sorted(thr)
        assert all(t2 >= t1 for t1, t2 in zip(thr, thr[1:]))
        # sort-based oracle for each target
        pooled = np.sort(p.scores(x).ravel())
        for s, t in table.entries:
            k = int(np.floor(s * pooled.size))
            assert t == (0.0 if k == 0 else pooled[k - 1])

    def test_calibration_consistency(self):
        w_g = rand_gate(40, 24, 16)
        p = init_from_svd(w_g, 6)
        x = np.random.default_rng(17).standard_normal((16, 24))
        targets = [0.0, 0.25, 0.5, 0.75]
        table = build_threshold_table(p, x, targets)
        n_scores = x.shape[0] * 40
        for s, thr in table.entries:
            masks = predict_mask(p, x, thr)
            got = measured_sparsity(masks)
            assert abs(got - s) <= 1.0 / n_scores + 1e-12

    def test_empty_calibration_rejected(self):
        w_g = rand_gate(8, 6, 18)
        p = init_from_svd(w_g, 2)
        with pytest.raises(ShapeError):
            build_threshold_table(p, np.zeros((0, 6)), [0.5])

    def test_json_roundtrip(self):
        w_g = rand_gate(8, 6, 19)
        p = init_from_svd(w_g, 2)
        x = np.random.default_rng(20).standard_normal((8, 6))
        tables = {(0, 0): build_threshold_table(p, x, [0.0, 0.5])}
        text = thresholds_to_json(tables)
        assert thresholds_from_json(text) == tables


class TestMasks:
    def test_threshold_zero_sets_nonzero_scores(self):
        w_g = rand_gate(12, 8, 21)
        p = init_from_svd(w_g, 3)
        x = np.random.default_rng(22).standard_normal(8)
        assert predict_mask(p, x, 0.0).all()

    def test_huge_threshold_empty(self):
        w_g = rand_gate(12, 8, 23)
        p = init_from_svd(w_g, 3)
        x = np.random.default_rng(24).standard_normal(8)
        assert not predict_mask(p, x, 1e18).any()

    def test_direct_comparison(self):
        # identity-ish predictor so scores equal x @ l @ r rows exactly
        p = Predictor(l=np.eye(3), r=np.eye(3))
        mask = predict_mask(p, np.array([-0.3, 0.05, 0.8]), 0.1)
        assert mask.tolist() == [True, False, True]

    def test_measured_sparsity_values(self):
        assert measured_sparsity(np.array([True, True])) == 0.0
        assert measured_sparsity(np.array([False, False])) == 1.0
        assert measured_sparsity(np.array([True, False, True, False])) == 0.5

    @given(st.integers(0, 10_000), st.floats(0, 2), st.floats(0, 2))
    @settings(max_examples=60, deadline=None)
    def test_mask_nesting(self, seed, t1, t2):
        rng = np.random.default_rng(seed)
        p = Predictor(l=rng.standard_normal((6, 2)), r=rng.standard_normal((2, 10)))
        x = rng.standard_normal(6)
        lo, hi = min(t1, t2), max(t1, t2)
        m_hi = predict_mask(p, x, hi)
        m_lo = predict_mask(p, x, lo)
        assert np.all(~m_hi | m_lo)  # mask(hi) subset of mask(lo)
        assert measured_sparsity(m_hi) >= measured_sparsity(m_lo)


def test_degradation_mse_nondecreasing():
    """Masked-vs-dense FFN error grows with target sparsity (trend check)."""
    cfg = ModelConfig(n_dec=2, dim_e=32, dim_h=64, n_heads=4, seq_len=64, seed=25)
    dec, layers = Decoder(cfg), list(synth_layers(cfg))
    calib = [x for _, _, x in harvest_ffn_inputs(dec, layers, 24, seed=3)]
    evalset = [x for _, _, x in harvest_ffn_inputs(dec, layers, 16, seed=4)]
    targets = [0.0, 0.2, 0.4, 0.6]
    mses = []
    for t in targets:
        total = 0.0
        for li, lw in enumerate(layers):
            p = init_from_svd(lw.w_g[0], default_dim_lr(cfg.dim_e))
            p, _ = train(p, calib[li], lw.w_g[0], epochs=20, lr=1e-4)
            thr = build_threshold_table(p, calib[li], targets).threshold_for(t)
            x = evalset[li]
            dense = ffn_forward(x, lw.w_g[0], lw.w_u[0], lw.w_down[0])
            for row in range(x.shape[0]):
                mask = predict_mask(p, x[row], thr)
                got = ffn_forward(x[row : row + 1], lw.w_g[0], lw.w_u[0], lw.w_down[0], mask)
                total += float(np.mean((got - dense[row : row + 1]) ** 2))
        mses.append(total)
    assert all(b >= a - 1e-12 for a, b in zip(mses, mses[1:])), mses
    assert mses[0] < 1e-20  # target 0 -> all-on mask
