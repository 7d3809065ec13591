import math

import numpy as np
import pytest

from struprune.allocation import (
    ClosedFormContext,
    allocate_plan,
    apply_masks,
    binarize_by_threshold,
    build_masks,
    closed_form_context,
    closed_form_retention,
    default_temperature_grid,
    export_plan_csv,
    export_sweep_csv,
    global_closed_form_masks,
    inverse_weight_allocate,
    post_correct,
    round_half_away,
    softmax_allocate,
    temperature_sweep,
    uniform_plan,
    unit_scores_closed_form,
)
from struprune.errors import ParameterError
from struprune.evaluation import total_reconstruction_loss
from struprune.linalg import make_rng
from struprune.model import (
    CalibrationSet,
    ModelArch,
    capture_reference_activations,
    generate_toy_model,
    make_calibration,
)
from struprune.oracle import recover_multiplier, relaxed_mask

from conftest import assert_close


class TestClosedFormContext:
    def test_dense_model_b_equals_c(self, decoder_toy):
        model, _, cache = decoder_toy
        for i in range(len(model.blocks)):
            ctx = closed_form_context(model, cache, i)
            assert_close(ctx.b, ctx.c, 1e-12)

    def test_zero_calibration_all_zero(self):
        arch = ModelArch(d=4, num_layers=1, num_heads=1)
        model = generate_toy_model(arch, make_rng(0), layout="ffn")
        calib = CalibrationSet(inputs=np.zeros((2, 3, 4)))
        cache = capture_reference_activations(model, calib)
        ctx = closed_form_context(model, cache, 0)
        for vec in (ctx.b, ctx.c, ctx.d, ctx.z_pre):
            assert_close(vec, np.zeros_like(vec), 0.0)

    def test_single_layer_matches_product_oracle(self):
        arch = ModelArch(d=5, num_layers=1, num_heads=1)
        model = generate_toy_model(arch, make_rng(4), layout="ffn")
        calib = make_calibration(arch, 2, 4, make_rng(5))
        cache = capture_reference_activations(model, calib)
        ctx = closed_form_context(model, cache, 0)
        x = cache.blocks[0].input_pre
        expected = (model.blocks[0].w1 @ x).mean(axis=1)
        assert_close(ctx.b, expected, 1e-12)
        assert_close(ctx.c, expected, 1e-12)
        assert np.all(ctx.d == 0.0) and np.all(ctx.z_pre == 0.0)

    def test_square_ffn_carries_live_coupling(self):
        arch = ModelArch(d=6, num_layers=2, num_heads=1, ffn_dim=6)
        model = generate_toy_model(arch, make_rng(6), layout="ffn")
        calib = make_calibration(arch, 2, 8, make_rng(7))
        cache = capture_reference_activations(model, calib)
        ctx = closed_form_context(model, cache, 0)
        assert np.any(ctx.d != 0.0)
        rec = cache.blocks[0]
        assert_close(ctx.d, (model.blocks[0].w2 @ rec.a_pre).mean(axis=1), 1e-12)
        assert_close(ctx.z_pre, rec.out_pre.mean(axis=1), 1e-12)

    def test_mha_context_is_degenerate(self, decoder_toy):
        model, _, cache = decoder_toy
        ctx = closed_form_context(model, cache, 0, "wq")
        assert np.all(ctx.d == 0.0) and np.all(ctx.z_pre == 0.0)


class TestUnitScores:
    def test_perfect_fit_scores_one(self, rng):
        b = rng.normal(size=6)
        d = rng.normal(size=6)
        ctx = ClosedFormContext(b, b, d, d)
        assert_close(unit_scores_closed_form(ctx), np.ones(6), 1e-12)

    def test_hand_case(self):
        ctx = ClosedFormContext([2.0, 0.0], [1.0, 1.0], [0.0, 0.0], [0.0, 0.0])
        assert unit_scores_closed_form(ctx).tolist() == [2.0, 0.0]

    def test_sign_symmetry(self, rng):
        b = rng.normal(size=5)
        c = rng.normal(size=5)
        ctx_pos = ClosedFormContext(b, c, np.zeros(5), np.zeros(5))
        ctx_neg = ClosedFormContext(-b, -c, np.zeros(5), np.zeros(5))
        assert_close(
            unit_scores_closed_form(ctx_pos), unit_scores_closed_form(ctx_neg), 1e-12
        )

    def test_degenerate_units_score_zero(self):
        ctx = ClosedFormContext([1.0, 5.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0])
        assert unit_scores_closed_form(ctx).tolist() == [1.0, 0.0]


class TestRetention:
    def test_perfect_fit(self, rng):
        b = rng.normal(size=4)
        ctx = ClosedFormContext(b, b, np.zeros(4), np.zeros(4))
        assert abs(closed_form_retention(unit_scores_closed_form(ctx)) - 1.0) < 1e-12

    def test_hand_mean(self):
        ctx = ClosedFormContext([2.0, 0.0], [1.0, 1.0], [0.0, 0.0], [0.0, 0.0])
        assert closed_form_retention(unit_scores_closed_form(ctx)) == 1.0

    def test_all_zero(self):
        ctx = ClosedFormContext([0.0, 0.0], [1.0, 1.0], [0.0, 0.0], [0.0, 0.0])
        assert closed_form_retention(unit_scores_closed_form(ctx)) == 0.0

    def test_clamp_flag(self):
        ctx = ClosedFormContext([5.0], [1.0], [0.0], [0.0])
        assert unit_scores_closed_form(ctx).mean() == 5.0
        assert closed_form_retention(unit_scores_closed_form(ctx)) == 1.0


class TestRelaxedMask:
    def test_multiplier_free_point_returns_scores(self, rng):
        b, c = rng.normal(size=6), rng.normal(size=6)
        ctx = ClosedFormContext(b, c, np.zeros(6), np.zeros(6))
        retention = float(unit_scores_closed_form(ctx).mean())
        assert_close(relaxed_mask(ctx, retention), unit_scores_closed_form(ctx), 1e-9)

    def test_symmetric_two_units(self):
        ctx = ClosedFormContext([1.0, 1.0], [2.0, 2.0], [0.5, 0.5], [1.5, 1.5])
        for retention in (0.2, 0.5, 0.9):
            assert_close(relaxed_mask(ctx, retention), [retention, retention], 1e-9)

    def test_kkt_stationarity_seeded(self):
        rng = make_rng(88)
        for _ in range(10):
            n = 6
            ctx = ClosedFormContext(
                rng.normal(size=n), rng.normal(size=n), rng.normal(size=n), rng.normal(size=n)
            )
            retention = float(rng.uniform(0.1, 0.9))
            mask = relaxed_mask(ctx, retention)
            lam = recover_multiplier(ctx, retention)
            resid = (
                -2.0 * ctx.c * (ctx.b - mask * ctx.c)
                - 2.0 * ctx.d * (ctx.z_pre - mask * ctx.d)
                + lam
            )
            assert_close(resid, np.zeros(n), 1e-8)
            assert abs(mask.sum() - retention * n) < 1e-9

    def test_budget_with_degenerate_units(self):
        ctx = ClosedFormContext([1.0, 2.0, 3.0], [1.0, 0.0, 2.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0])
        mask = relaxed_mask(ctx, 0.5)
        assert mask[1] == 0.0
        assert abs(mask.sum() - 1.5) < 1e-9

    def test_all_degenerate_rejected(self):
        ctx = ClosedFormContext([1.0], [0.0], [0.0], [0.0])
        with pytest.raises(ParameterError):
            relaxed_mask(ctx, 0.5)

    def test_relaxed_beats_every_binary_mask(self):
        # The stationary continuous point solves the relaxation, so no
        # binary mask of the same budget can do better.
        from itertools import combinations

        rng = make_rng(121)
        for _ in range(5):
            n = 8
            ctx = ClosedFormContext(
                rng.normal(size=n), rng.normal(size=n), rng.normal(size=n), rng.normal(size=n)
            )
            for k in range(n + 1):
                relaxed_loss = ctx.mask_loss(relaxed_mask(ctx, k / n))
                for subset in combinations(range(n), k):
                    bits = np.zeros(n)
                    bits[list(subset)] = 1.0
                    assert relaxed_loss <= ctx.mask_loss(bits) + 1e-9


class TestBinarize:
    def test_full_and_empty(self):
        assert binarize_by_threshold([1.0, 2.0], 2).tolist() == [True, True]
        assert binarize_by_threshold([1.0, 2.0], 0).tolist() == [False, False]

    def test_tie_keeps_lower_index(self):
        mask = binarize_by_threshold([2.0, 0.0, 2.0, 1.0], 2)
        assert mask.tolist() == [True, False, True, False]

    def test_bad_budget(self):
        with pytest.raises(ParameterError):
            binarize_by_threshold([1.0], 2)

    def test_round_half_away(self):
        assert round_half_away(2.5) == 3
        assert round_half_away(2.4) == 2
        assert round_half_away(0.5) == 1


class TestSoftmaxAllocate:
    def test_equal_importance_uniform(self):
        plan = softmax_allocate([1.0] * 4, 0.5, 2.0)
        assert_close(plan.sparsities(), [0.5] * 4, 1e-12)

    def test_hand_case(self):
        plan = softmax_allocate([0.0, math.log(3.0)], 0.5, 1.0)
        assert_close(plan.sparsities(), [0.75, 0.25], 1e-12)

    def test_high_temperature_uniform(self):
        plan = softmax_allocate([1.0, 2.0, 9.0], 0.4, 1e9)
        assert_close(plan.sparsities(), [0.4] * 3, 1e-6)

    def test_budget_conservation(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 9))
            imps = rng.normal(size=n)
            r_bar = float(rng.uniform(0.05, 0.95))
            plan = softmax_allocate(imps, r_bar, float(rng.uniform(0.2, 5.0)))
            assert abs(plan.sparsities().sum() - r_bar * n) < 1e-12

    def test_monotone_in_importance(self, rng):
        imps = np.sort(rng.normal(size=6))
        vals = softmax_allocate(imps, 0.5, 1.3).sparsities()
        assert np.all(np.diff(vals) < 0)  # higher importance -> less sparsity

    def test_shift_invariance(self, rng):
        imps = rng.normal(size=5)
        a = softmax_allocate(imps, 0.3, 0.9).sparsities()
        b = softmax_allocate(imps + 17.0, 0.3, 0.9).sparsities()
        assert_close(a, b, 1e-12)

    def test_domain_checks(self):
        with pytest.raises(ParameterError):
            softmax_allocate([1.0], 1.5, 1.0)
        with pytest.raises(ParameterError):
            softmax_allocate([1.0], 0.5, 0.0)


class TestPostCorrect:
    def test_cap_branch(self):
        from struprune.allocation import PlanEntry, SparsityPlan

        raw = SparsityPlan(
            [
                PlanEntry(0, "", 0.0, 1.0, 0.0, 1.2, "softmax"),
                PlanEntry(1, "", 0.0, 1.0, 0.8, 0.2, "softmax"),
            ]
        )
        out = post_correct(raw, 0.5)
        assert_close(out.sparsities(), [0.95, 0.2], 1e-12)

    def test_rescale_branch(self):
        from struprune.allocation import PlanEntry, SparsityPlan

        raw = SparsityPlan(
            [
                PlanEntry(0, "", 0.0, 1.0, 0.4, 0.6, "softmax"),
                PlanEntry(1, "", 0.0, 1.0, 0.8, 0.2, "softmax"),
            ]
        )
        out = post_correct(raw, 0.5)
        assert_close(out.sparsities(), [0.75, 0.25], 1e-12)

    def test_in_range_plan_unchanged(self):
        plan = softmax_allocate([1.0, 1.0], 0.5, 1.0)
        out = post_correct(plan, 0.5)
        assert_close(out.sparsities(), plan.sparsities(), 1e-12)

    def test_mean_zero_rejected(self):
        from struprune.allocation import PlanEntry, SparsityPlan

        raw = SparsityPlan([PlanEntry(0, "", 0.0, 1.0, 1.0, 0.0, "x")])
        with pytest.raises(ParameterError):
            post_correct(raw, 0.5)

    def test_mean_matches_target_when_cap_slack(self, rng):
        for _ in range(50):
            n = int(rng.integers(4, 9))
            raw_vals = rng.uniform(0.2, 0.6, size=n)
            from struprune.allocation import PlanEntry, SparsityPlan

            raw = SparsityPlan(
                [PlanEntry(i, "", 0.0, 1.0, 1 - v, v, "softmax") for i, v in enumerate(raw_vals)]
            )
            out = post_correct(raw, 0.4)
            if np.all(out.sparsities() < 0.95):
                assert abs(out.sparsities().mean() - 0.4) < 1e-9


class TestInverseWeight:
    def test_equal_importance_uniform(self):
        plan = inverse_weight_allocate([2.0, 2.0, 2.0], [5.0, 5.0, 5.0], 0.4, 1.0)
        assert_close(plan.sparsities(), [0.4] * 6, 1e-12)

    def test_hand_case(self):
        plan = inverse_weight_allocate(
            [0.0, math.log(3.0)], [0.0, math.log(3.0)], 0.5, 1.0,
            attn_layers=[0, 2], mlp_layers=[1, 3],
        )
        attn = [e.sparsity for e in plan.entries if e.block_kind == "mha"]
        assert_close(attn, [0.25, 0.75], 1e-12)

    def test_cap_engages(self):
        plan = inverse_weight_allocate([0.0, 10.0], [0.0, 10.0], 0.6, 0.5)
        assert max(e.sparsity for e in plan.entries) == 0.95

    def test_single_layer_family_rejected(self):
        with pytest.raises(ParameterError):
            inverse_weight_allocate([1.0], [1.0, 2.0], 0.5, 1.0)


class TestMaskPipeline:
    def test_uniform_plan_masks_budgets(self, decoder_toy):
        model, _, cache = decoder_toy
        plan = uniform_plan(model, 0.25)
        masks = build_masks(model, cache, plan, "magnitude")
        for i, block in enumerate(model.blocks):
            for name, mask in masks[i].items():
                n = block.matrices[name].shape[0]
                assert mask.dtype == bool and mask.shape == (n,)
                assert mask.sum() == round_half_away(0.75 * n)

    def test_apply_masks_zeroes_pairs(self, decoder_toy):
        model, _, cache = decoder_toy
        plan = uniform_plan(model, 0.5)
        masks = build_masks(model, cache, plan, "wanda")
        pruned = apply_masks(model, masks)
        ffn_idx = next(i for i, b in enumerate(model.blocks) if b.kind == "ffn")
        dead = ~masks[ffn_idx]["w1"]
        assert np.all(pruned.blocks[ffn_idx].w1[dead] == 0.0)
        assert np.all(pruned.blocks[ffn_idx].w2[:, dead] == 0.0)
        mha_idx = next(i for i, b in enumerate(model.blocks) if b.kind == "mha")
        vdead = ~masks[mha_idx]["wv"]
        assert np.all(pruned.blocks[mha_idx].wv[vdead] == 0.0)
        assert np.all(pruned.blocks[mha_idx].wo[:, vdead] == 0.0)

    def test_global_closed_form_budget_floor(self, decoder_toy):
        model, _, cache = decoder_toy
        masks, plan = global_closed_form_masks(model, cache, 0.3)
        total_units = sum(
            block.matrices[m].shape[0]
            for block in model.blocks
            for m in (("w1",) if block.kind == "ffn" else ("wq", "wk", "wv"))
        )
        kept = sum(int(m.sum()) for per in masks.values() for m in per.values())
        assert kept == math.floor(0.7 * total_units)
        assert len(plan.entries) == len(model.blocks)

    def test_allocate_plan_dispatch(self, decoder_toy):
        model, _, cache = decoder_toy
        for method in ("softmax", "inverse-weight", "closed-form", "magnitude"):
            plan = allocate_plan(model, cache, method, 0.3, temperature=1.0)
            assert len(plan.entries) == len(model.blocks)
        with pytest.raises(ParameterError):
            allocate_plan(model, cache, "unknown", 0.3)

    def test_closed_form_plan_mean_retention(self, decoder_toy):
        model, _, cache = decoder_toy
        plan = allocate_plan(model, cache, "closed-form", 0.4)
        retentions = np.array([e.retention for e in plan.entries])
        assert abs(retentions.mean() - 0.6) < 1e-9


class TestTemperatureSweep:
    def test_single_grid_point(self, decoder_toy):
        model, _, cache = decoder_toy
        best_t, plan, table = temperature_sweep(model, cache, [2.5], "softmax", 0.3)
        assert best_t == 2.5 and len(table) == 1

    def test_near_zero_target_keeps_dense_and_wins(self, decoder_toy):
        model, _, cache = decoder_toy
        # Sparsity below half a unit everywhere rounds every budget to
        # full retention: the model stays dense and the loss is ~0; the
        # tie then resolves to the smallest temperature.
        best_t, _, table = temperature_sweep(model, cache, [1.0, 2.0, 4.0], "softmax", 0.001)
        assert best_t == 1.0
        assert all(loss < 1e-9 for _, loss in table)

    def test_matches_exhaustive_reevaluation_oracle(self):
        arch = ModelArch(d=8, num_layers=3, num_heads=2)
        model = generate_toy_model(arch, make_rng(11), layout="ffn")
        calib = make_calibration(arch, 4, 8, make_rng(12))
        cache = capture_reference_activations(model, calib)
        from struprune.importance import layer_importance

        imps = [li.value for li in layer_importance(model, cache, "wanda-sum")]
        scale = float(np.mean(np.abs(imps)))
        grid = [0.5 * scale, scale, 2.0 * scale]
        best_t, _, table = temperature_sweep(model, cache, grid, "softmax", 0.4)
        # Independent re-evaluation of each grid point.
        expected = []
        for temp in grid:
            plan = allocate_plan(model, cache, "softmax", 0.4, temp)
            masks = build_masks(model, cache, plan, "wanda")
            loss = total_reconstruction_loss(apply_masks(model, masks), cache).total
            expected.append((temp, loss))
        assert table == expected
        best_by_oracle = min(expected, key=lambda r: (r[1], r[0]))[0]
        assert best_t == best_by_oracle

    def test_threaded_matches_sequential(self, decoder_toy):
        model, _, cache = decoder_toy
        grid = [0.5, 1.0, 2.0]
        seq = temperature_sweep(model, cache, grid, "softmax", 0.3, threads=1)
        par = temperature_sweep(model, cache, grid, "softmax", 0.3, threads=3)
        assert seq[0] == par[0] and seq[2] == par[2]

    def test_empty_grid_rejected(self, decoder_toy):
        model, _, cache = decoder_toy
        with pytest.raises(ParameterError):
            temperature_sweep(model, cache, [], "softmax", 0.3)

    def test_default_grid_scaling(self):
        grid = default_temperature_grid([2.0, -2.0, 2.0, -2.0])
        assert grid == [0.5, 1.0, 2.0, 4.0, 8.0]


class TestExports:
    def test_plan_csv(self, decoder_toy):
        model, _, cache = decoder_toy
        plan = allocate_plan(model, cache, "softmax", 0.3, 1.0)
        text = export_plan_csv(plan)
        lines = text.strip().split("\n")
        assert lines[0] == "layer,block_kind,importance,temperature,retention,sparsity,allocator"
        assert len(lines) == 1 + len(model.blocks)

    def test_sweep_csv(self):
        text = export_sweep_csv([(1.0, 0.5), (2.0, 0.25)])
        assert text.startswith("temperature,total_loss\n1.0,0.5\n")


class TestBinaryMaskOracleEquivalence:
    def test_separable_exact_coupled_gap_reported(self):
        # Separable regime (constant |c| per instance): exact equality.
        # Coupled regime: every gap beyond 1 + 1e-9 times the optimum is
        # reported; the acceptance gate bounds their size and frequency.
        from struprune.oracle import enumerate_masks

        rng = make_rng(515_151)
        violations = []
        for inst in range(12):
            n = (4, 6, 8)[inst % 3]
            sigma = float(rng.uniform(0.5, 2.0))
            if inst % 2 == 0:
                ctx = ClosedFormContext(
                    rng.normal(size=n), sigma * rng.choice([-1.0, 1.0], size=n),
                    np.zeros(n), rng.normal(size=n),
                )
                coupled = False
            else:
                radius = sigma * (1.0 + 0.1 * rng.normal(size=n))
                theta = rng.uniform(0, 2 * np.pi, size=n)
                ctx = ClosedFormContext(
                    rng.normal(size=n), radius * np.cos(theta),
                    radius * np.sin(theta), rng.normal(size=n),
                )
                coupled = True
            scores = unit_scores_closed_form(ctx)
            for k in range(n + 1):
                mask = binarize_by_threshold(scores, k)
                best = enumerate_masks(ctx, k).best_loss
                loss = ctx.mask_loss(mask)
                if best < 1e-15:
                    assert loss < 1e-12
                    continue
                if loss > (1.0 + 1e-9) * best:
                    assert coupled, "separable regime must be exactly optimal"
                    violations.append((inst, k, loss / best))
        for inst, k, ratio in violations:
            print(f"coupled-regime gap: instance {inst} budget {k} ratio {ratio:.4f}")
