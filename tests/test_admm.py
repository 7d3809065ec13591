import tracemalloc

import numpy as np
import pytest

from struprune.admm import (
    BlockState,
    SolverConfig,
    _descend,
    _init_state,
    _Residual,
    export_trace_csv,
    ffn_prune_step,
    ffn_update_activation,
    ffn_update_output,
    mha_grad_a,
    mha_grad_attn,
    mha_grad_z,
    mha_obj_a,
    mha_obj_attn,
    mha_obj_z,
    mha_objective,
    mha_prune_step,
    mha_update,
    recover_weights,
    run_outer_loop,
)
from struprune.allocation import apply_masks, build_masks, uniform_plan
from struprune.errors import ParameterError, SingularSystemError, SolverError
from struprune.evaluation import total_reconstruction_loss
from struprune.linalg import make_rng, relu
from struprune.model import (
    MASK_BEARING,
    ModelArch,
    capture_reference_activations,
    generate_toy_model,
    make_calibration,
)
from struprune.oracle import cache_checksum, finite_diff_grad

from conftest import assert_close, build_toy, cache_copy


def ffn_setup(d=8, ffn_dim=0, n=4, seq=8, mseed=0, cseed=1, retention=1.0):
    arch = ModelArch(d, 1, 1, ffn_dim=ffn_dim)
    model = generate_toy_model(arch, make_rng(mseed), layout="ffn")
    calib = make_calibration(arch, n, seq, make_rng(cseed))
    cache = capture_reference_activations(model, calib)
    plan = uniform_plan(model, 0.5)
    state = _init_state(0, model.blocks[0], plan, cache.blocks[0])
    state.budget = {"w1": int(round(retention * model.blocks[0].w1.shape[0]))}
    return model, cache, state


def mha_setup(d=8, h=2, n=4, seq=8, mseed=0, cseed=1, retention=1.0, tie_qk=False):
    arch = ModelArch(d, 1, h)
    model = generate_toy_model(arch, make_rng(mseed), layout="mha")
    if tie_qk:
        model.blocks[0].wk = model.blocks[0].wq.copy()
    calib = make_calibration(arch, n, seq, make_rng(cseed))
    cache = capture_reference_activations(model, calib)
    plan = uniform_plan(model, 0.5)
    state = _init_state(0, model.blocks[0], plan, cache.blocks[0])
    k = int(round(retention * d))
    state.budget = {"wq": k, "wk": k, "wv": k}
    return model, cache, state


class TestFfnPruneStep:
    def test_full_budget_recovers_exactly(self):
        model, cache, state = ffn_setup(retention=1.0)
        cfg = SolverConfig(ridge_eps=1e-10)
        rec = cache.blocks[0]
        ffn_prune_step(state, rec, cfg, cache.n_samples, make_rng(0))
        target = state.teacher["w1"] @ rec.input_pre
        loss = float(np.sum((target - state.effective("w1") @ rec.input_pre) ** 2))
        assert loss / cache.n_samples < 1e-9

    def test_zero_budget_zero_output(self):
        model, cache, state = ffn_setup(retention=0.0)
        cfg = SolverConfig()
        rec = cache.blocks[0]
        ffn_prune_step(state, rec, cfg, cache.n_samples, make_rng(0))
        assert np.all(state.effective("w1") == 0.0)
        prune_loss = float(np.sum((state.teacher["w1"] @ rec.input_pre) ** 2))
        got = float(
            np.sum((state.teacher["w1"] @ rec.input_pre - state.effective("w1") @ rec.input_pre) ** 2)
        )
        assert abs(got - prune_loss) < 1e-12

    def test_closed_form_mask_beats_magnitude_on_prune_loss(self):
        # Same budget, same ridge refit; only the mask criterion differs.
        def prune_loss(criterion, seed):
            model, cache, state = ffn_setup(mseed=seed, cseed=seed + 50, retention=0.5)
            cfg = SolverConfig(ridge_eps=1e-10, mask_criterion=criterion)
            rec = cache.blocks[0]
            ffn_prune_step(state, rec, cfg, cache.n_samples, make_rng(0))
            resid = state.teacher["w1"] @ rec.input_pre - state.effective("w1") @ rec.input_pre
            return float(np.sum(resid * resid))

        assert prune_loss("closed-form", 3) <= prune_loss("magnitude", 3) + 1e-12

    def test_mask_at_planned_budget(self):
        model, cache, state = ffn_setup(retention=0.5)
        ffn_prune_step(state, cache.blocks[0], SolverConfig(), cache.n_samples, make_rng(0))
        assert state.masks["w1"].sum() == state.budget["w1"]

    @pytest.mark.parametrize("criterion", ["closed-form", "wanda"])
    def test_first_iteration_reads_targets_from_the_record(self, criterion):
        # ffn_dim x T = 256 x 512; at retention 1/4 the w1 refit's kept
        # rows of target, product and residual are 3/4 of one such array.
        # Teacher copies are not the captured matrices, so the same step
        # on them forms every product with a GEMM.
        n, tokens = 256, 8 * 64
        cfg = SolverConfig(mask_criterion=criterion)
        _, cache, state = ffn_setup(d=16, ffn_dim=n, n=8, seq=64, retention=0.25)
        rec = cache.blocks[0]
        _, gemm_cache, gemm = ffn_setup(d=16, ffn_dim=n, n=8, seq=64, retention=0.25)
        gemm.teacher = {name: w.copy() for name, w in gemm.teacher.items()}
        ffn_prune_step(gemm, gemm_cache.blocks[0], cfg, cache.n_samples, make_rng(0))  # also loads scipy
        tracemalloc.start()
        try:
            ffn_prune_step(state, rec, cfg, cache.n_samples, make_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * tokens * 8, f"peak {peak} B"
        assert state.masks["w1"].tobytes() == gemm.masks["w1"].tobytes()
        for name in ("w1", "w2"):
            assert state.w_hat[name].tobytes() == gemm.w_hat[name].tobytes()


class TestFfnUpdateActivation:
    def test_identity_weight_case(self):
        w = np.eye(2)
        z_pre = np.array([[1.0], [1.0]])
        z = np.array([[-1.0], [2.0]])
        a = ffn_update_activation(w, z_pre, z, 1.0, 1.0)
        assert_close(a, [[0.5], [1.5]], 1e-12)

    def test_large_beta_limit(self, rng):
        w = rng.normal(size=(4, 4))
        z_pre = rng.normal(size=(4, 3))
        z = rng.normal(size=(4, 3))
        a = ffn_update_activation(w, z_pre, z, 1.0, 1e9)
        assert_close(a, relu(z), 1e-6)

    def test_stationarity_and_local_minimum(self):
        rng = make_rng(40)
        for _ in range(5):
            w = rng.normal(size=(5, 4))
            z_pre = rng.normal(size=(5, 6))
            z = rng.normal(size=(4, 6))
            alpha, beta = 1.3, 0.7
            a = ffn_update_activation(w, z_pre, z, alpha, beta)
            resid = alpha * (w.T @ w @ a) + beta * a - (alpha * w.T @ z_pre + beta * relu(z))
            assert float(np.max(np.abs(resid))) < 1e-8

            def objective(mat):
                return alpha * np.sum((z_pre - w @ mat) ** 2) + beta * np.sum(
                    (mat - relu(z)) ** 2
                )

            base = objective(a)
            delta = rng.normal(size=a.shape)
            delta *= 1e-3 / np.linalg.norm(delta)
            assert objective(a + delta) > base


class TestFfnUpdateOutput:
    def test_traced_example(self):
        # z1 and a supplied directly; w1_eff = I reproduces z1 on input.
        w1 = np.eye(2)
        input_pre = np.array([[1.0], [-2.0]])
        a = np.array([[3.0], [4.0]])
        z_prev = np.array([[-1.0], [1.0]])
        z = ffn_update_output(w1, input_pre, a, z_prev, 1.0, 1.0)
        # z1 = [1, -2]; z2 = (a + z1)/2 = [2, 1]; select: coord0 z_prev<0 -> z1
        assert_close(z, [[1.0], [1.0]], 1e-12)

    def test_branches_agree_when_a_equals_z1(self, rng):
        w1 = rng.normal(size=(3, 3))
        x = rng.normal(size=(3, 4))
        z1 = w1 @ x
        z = ffn_update_output(w1, x, z1, rng.normal(size=z1.shape), 1.0, 1.0)
        assert_close(z, z1, 1e-12)

    def test_all_negative_prior_takes_masked_product(self, rng):
        w1 = rng.normal(size=(3, 3))
        x = rng.normal(size=(3, 4))
        a = rng.normal(size=(3, 4))
        z_prev = -np.ones((3, 4))
        assert_close(ffn_update_output(w1, x, a, z_prev, 1.0, 1.0), w1 @ x, 1e-12)

    def test_holds_one_output_array(self, rng):
        # Beyond its inputs: the result (ffn_dim x T) and, per 64-row
        # block, the blend, beta * a and two boolean masks, under three
        # 64-row float blocks in all.
        n, tokens = 256, 512
        w1, x = rng.normal(size=(n, 16)), rng.normal(size=(16, tokens))
        a, z_prev = np.asfortranarray(rng.normal(size=(n, tokens))), rng.normal(size=(n, tokens))
        tracemalloc.start()
        try:
            z = ffn_update_output(w1, x, a, z_prev, 1.0, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert z.shape == (n, tokens)
        assert peak < n * tokens * 8 + 3 * 64 * tokens * 8, f"peak {peak} B"


class TestMhaUpdate:
    def test_zero_inner_steps_noop(self):
        model, cache, state = mha_setup()
        cfg = SolverConfig(inner_steps=0)
        rec = cache.blocks[0]
        before = (state.a.copy(), state.a_attn.copy(), state.z.copy())
        mha_update(state, rec, cfg, cache.seq_len)
        assert np.array_equal(state.a, before[0])
        assert np.array_equal(state.a_attn, before[1])
        assert np.array_equal(state.z, before[2])

    def test_tied_qk_dense_fixed_point(self):
        # With shared query/key weights the pre-trained values satisfy all
        # three sub-objectives exactly; gradients vanish there too.
        model, cache, state = mha_setup(tie_qk=True)
        cfg = SolverConfig()
        rec = cache.blocks[0]
        scale = state.head_scale
        assert scale == float(np.sqrt(model.arch.d // model.arch.num_heads))
        seg = cache.seq_len
        wq, wk = state.effective("wq"), state.effective("wk")
        wv, wo = state.effective("wv"), state.effective("wo")
        q_pre, k_pre = wq @ rec.input_pre, wk @ rec.input_pre
        a, a_attn, z = state.a, state.a_attn, state.z
        resid_a, resid_o, v = _Residual(a_attn, wv), _Residual(rec.out_pre, wo), wv @ a
        objs = [
            mha_obj_a(a, resid_a, z, 1.0, 1.0, scale, seg),
            mha_obj_attn(a_attn, resid_o, v, 1.0),
            mha_obj_z(z, a, q_pre, k_pre, 1.0, 1.0, scale, seg),
        ]
        grads = [
            mha_grad_a(a, resid_a, z, 1.0, 1.0, scale, seg),
            mha_grad_attn(a_attn, resid_o, v, 1.0),
            mha_grad_z(z, a, q_pre, k_pre, 1.0, 1.0, scale, seg),
        ]
        for obj in objs:
            assert obj < 1e-8
        for grad in grads:
            assert float(np.max(np.abs(grad))) < 1e-8

    def test_gradients_match_finite_differences(self):
        rng = make_rng(60)
        d, h, t, seg = 8, 2, 6, 3
        scale = float(np.sqrt(d // h))
        wv = rng.normal(size=(d, d)) / np.sqrt(d)
        wo = rng.normal(size=(d, d)) / np.sqrt(d)
        a = rng.normal(size=(d, t))
        a_attn = rng.normal(size=(d, t))
        z = rng.normal(size=(d, t))
        q_pre = rng.normal(size=(d, t))
        k_pre = rng.normal(size=(d, t))
        z_next = rng.normal(size=(d, t))
        alpha, beta = 1.1, 0.9
        v = wv @ a
        # finite_diff_grad perturbs x in place, and the memo is keyed on
        # the iterate's identity, so every evaluation gets a fresh one.
        cases = [
            (
                a,
                lambda x: mha_obj_a(x, _Residual(a_attn, wv), z, alpha, beta, scale, seg),
                mha_grad_a(a, _Residual(a_attn, wv), z, alpha, beta, scale, seg),
            ),
            (
                a_attn,
                lambda x: mha_obj_attn(x, _Residual(z_next, wo), v, alpha),
                mha_grad_attn(a_attn, _Residual(z_next, wo), v, alpha),
            ),
            (
                z,
                lambda x: mha_obj_z(x, a, q_pre, k_pre, alpha, beta, scale, seg),
                mha_grad_z(z, a, q_pre, k_pre, alpha, beta, scale, seg),
            ),
        ]
        for x, obj, analytic in cases:
            numeric = finite_diff_grad(obj, x.copy(), h=1e-6)
            denom = max(1.0, float(np.max(np.abs(numeric))))
            assert float(np.max(np.abs(numeric - analytic))) / denom < 1e-5

    def test_descend_reduces_objectives(self):
        model, cache, state = mha_setup(retention=0.5)
        cfg = SolverConfig(inner_steps=25, learning_rate=0.01)
        rec = cache.blocks[0]
        mha_prune_step(state, rec, cfg, cache.n_samples, make_rng(0))
        before = mha_objective(state, rec, cfg, cache.n_samples, cache.seq_len)
        mha_update(state, rec, cfg, cache.seq_len)
        after = mha_objective(state, rec, cfg, cache.n_samples, cache.seq_len)
        assert after <= before + 1e-12

    def test_divergence_guard(self):
        x0 = np.array([[10.0]])
        obj = lambda x: float(np.sum(x * x))
        grad = lambda x: 2.0 * x
        with pytest.raises(SolverError, match="trace"):
            _descend(x0, obj, grad, steps=10, lr=10.0, label="unit", layer=0, iteration=1)


class TestRecoverWeights:
    def test_exact_recovery(self):
        rng = make_rng(70)
        w = rng.normal(size=(4, 6))
        a_prev = rng.normal(size=(6, 20))
        z = w @ a_prev
        assert_close(recover_weights(z, a_prev, 0.0), w, 1e-8)

    def test_identity_activations(self, rng):
        z = rng.normal(size=(3, 3))
        assert_close(recover_weights(z, np.eye(3), 0.0), z, 1e-10)

    def test_rank_deficient_needs_eps(self):
        a_prev = np.ones((2, 8))  # rank 1
        z = np.ones((3, 8))
        with pytest.raises(SingularSystemError):
            recover_weights(z, a_prev, 0.0)
        w = recover_weights(z, a_prev, 1e-6)
        # Gradient-descent oracle on the same ridge objective.
        w_gd = np.zeros_like(w)
        lr = 1.0 / (2.0 * np.linalg.norm(a_prev, 2) ** 2 + 2e-6)
        for _ in range(200_000):
            grad = 2.0 * (w_gd @ a_prev - z) @ a_prev.T + 2e-6 * w_gd
            w_new = w_gd - lr * grad
            if np.max(np.abs(w_new - w_gd)) < 1e-13:
                w_gd = w_new
                break
            w_gd = w_new
        assert_close(w, w_gd, 1e-5)


class TestOuterLoop:
    def test_dense_budget_is_noop(self, ffn_toy):
        model, calib, cache = ffn_toy
        plan = uniform_plan(model, 0.5)
        plan.entries = [
            type(e)(e.layer, e.block_kind, e.importance, e.temperature, 1.0, 0.0, e.allocator)
            for e in plan.entries
        ]
        cfg = SolverConfig(outer_iters=1, ridge_eps=1e-10)
        result = run_outer_loop(model, cache, plan, cfg)
        assert result.final_loss < 1e-9
        for pb, db in zip(result.model.blocks, model.blocks):
            for name in pb.matrices:
                assert_close(pb.matrices[name], db.matrices[name], 1e-6)

    def test_trace_shape_and_determinism(self, ffn_toy):
        model, calib, cache = ffn_toy
        plan = uniform_plan(model, 0.5)
        cfg = SolverConfig(outer_iters=3, seed=5)
        r1 = run_outer_loop(model, cache_copy(cache), plan, cfg)
        r2 = run_outer_loop(model, cache, plan, cfg)
        assert len(r1.trace) == 3 * len(model.blocks)
        assert r1.trace == r2.trace
        assert export_trace_csv(r1.trace) == export_trace_csv(r2.trace)

    def test_mask_persistence_and_frozen_cache(self, decoder_toy):
        model, calib, cache = decoder_toy
        checksum = cache_checksum(cache)
        plan = uniform_plan(model, 0.4)
        cfg = SolverConfig(outer_iters=2, inner_steps=10, learning_rate=0.01)
        result = run_outer_loop(model, cache_copy(cache), plan, cfg)
        assert cache_checksum(cache) == checksum
        for i, block in enumerate(result.model.blocks):
            masks = result.masks[i]
            if block.kind == "ffn":
                dead = ~masks["w1"]
                assert np.all(block.w1[dead] == 0.0)
                assert np.all(block.w2[:, dead] == 0.0)
                assert masks["w1"].sum() == int(round(0.6 * block.w1.shape[0]))
            else:
                for name in ("wq", "wk", "wv"):
                    dead = ~masks[name]
                    assert np.all(block.matrices[name][dead] == 0.0)
                assert np.all(block.wo[:, ~masks["wv"]] == 0.0)

    def test_objective_decreases_on_ffn_fixture(self, ffn_toy):
        model, calib, cache = ffn_toy
        plan = uniform_plan(model, 0.5)
        cfg = SolverConfig(outer_iters=8)
        result = run_outer_loop(model, cache, plan, cfg)
        assert result.final_loss < result.initial_post_prune_loss
        assert np.isfinite(result.initial_post_prune_loss)

    def test_plan_must_cover_blocks(self, ffn_toy):
        model, calib, cache = ffn_toy
        plan = uniform_plan(model, 0.5)
        plan.entries = plan.entries[:1]
        with pytest.raises(ParameterError, match="missing"):
            run_outer_loop(model, cache, plan, SolverConfig())

    def test_eval_loss_improves_vs_oneshot(self, ffn_toy):
        # The alternating solve should beat pure mask-zeroing.
        from struprune.allocation import apply_masks, build_masks

        model, calib, cache = ffn_toy
        plan = uniform_plan(model, 0.5)
        masks = build_masks(model, cache, plan, "magnitude")
        oneshot = total_reconstruction_loss(apply_masks(model, masks), cache).total
        result = run_outer_loop(model, cache_copy(cache), plan, SolverConfig(outer_iters=6))
        solved = total_reconstruction_loss(result.model, cache).total
        assert solved < oneshot


class TestUnitRule:
    """One structured-unit rule (model.UNIT_OWNER) for the one-shot
    and the solver paths."""

    @pytest.mark.parametrize("layout", ["decoder", "ffn"])
    def test_apply_masks_matches_effective(self, layout):
        model, _, cache = build_toy(layout)
        masks = build_masks(model, cache, uniform_plan(model, 0.5), "magnitude")
        pruned = apply_masks(model, masks)
        seen = set()
        for i, block in enumerate(model.blocks):
            state = BlockState(i, block.kind, dict(block.matrices), {}, masks=masks[i])
            for name, w in pruned.blocks[i].matrices.items():
                eff = state.effective(name)
                assert w.shape == eff.shape and w.tobytes() == eff.tobytes(), (i, name)
                seen.add(name)
        want = {"w1", "w2", "wq", "wk", "wv", "wo"} if layout == "decoder" else {"w1", "w2"}
        assert seen == want

    @pytest.mark.parametrize("layout", ["decoder", "ffn"])
    def test_admm_masks_are_mask_bearing(self, layout):
        model, _, cache = build_toy(layout)
        cfg = SolverConfig(outer_iters=1, inner_steps=2)
        result = run_outer_loop(model, cache, uniform_plan(model, 0.5), cfg)
        for i, block in enumerate(model.blocks):
            assert tuple(result.masks[i]) == MASK_BEARING[block.kind]


def test_solver_config_validation():
    with pytest.raises(ParameterError):
        SolverConfig(alpha=0.0)
    with pytest.raises(ParameterError):
        SolverConfig(outer_iters=0)
    with pytest.raises(ParameterError):
        SolverConfig(inner_steps=-1)
