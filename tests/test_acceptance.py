"""Acceptance gate: every criterion below runs at its stated tolerance and
prints one PASS/FAIL line. Run with -s to see the lines live."""

import math
import os
import time

import numpy as np

from struprune.admm import SolverConfig, export_trace_csv, run_outer_loop
from struprune.allocation import (
    ClosedFormContext,
    PlanEntry,
    SparsityPlan,
    allocate_plan,
    binarize_by_threshold,
    post_correct,
    softmax_allocate,
    unit_scores_closed_form,
)
from struprune.admm import (
    _Residual,
    ffn_update_activation,
    mha_grad_a,
    mha_grad_attn,
    mha_grad_z,
    mha_obj_a,
    mha_obj_attn,
    mha_obj_z,
)
from struprune.cli import main as cli_main
from struprune.evaluation import memory_report, total_reconstruction_loss
from struprune.importance import layer_importance
from struprune.linalg import make_rng, relu
from struprune.model import (
    ModelArch,
    capture_reference_activations,
    load_calibration,
    load_model,
)
from struprune.oracle import (
    energy_minimize_projected,
    enumerate_masks,
    finite_diff_grad,
    recover_multiplier,
    relaxed_mask,
)

from conftest import build_toy, cache_copy, importances

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def report(cid: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {cid:>2} {status}: {description}{suffix}")
    assert ok, f"criterion {cid} failed: {description}{suffix}"


def _separable_instance(rng, n):
    """Constant |c| per instance keeps score thresholding provably optimal."""
    sigma = float(rng.uniform(0.5, 2.0))
    c = sigma * rng.choice([-1.0, 1.0], size=n)
    return ClosedFormContext(rng.normal(size=n), c, np.zeros(n), rng.normal(size=n))


def _coupled_instance(rng, n, jitter=0.1):
    sigma = float(rng.uniform(0.5, 2.0))
    radius = sigma * (1.0 + jitter * rng.normal(size=n))
    theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
    return ClosedFormContext(
        rng.normal(size=n),
        radius * np.cos(theta),
        radius * np.sin(theta),
        rng.normal(size=n),
    )


SIZES = (4, 6, 8, 12)


def test_criterion_01_separable_oracle_equivalence():
    started = time.perf_counter()
    rng = make_rng(111_000)
    checked = 0
    worst = 0.0
    for inst in range(50):
        ctx = _separable_instance(rng, SIZES[inst % 4])
        scores = unit_scores_closed_form(ctx)
        for k in range(ctx.n_units + 1):
            mask = binarize_by_threshold(scores, k)
            best = enumerate_masks(ctx, k).best_loss
            gap = abs(ctx.mask_loss(mask) - best)
            worst = max(worst, gap)
            checked += 1
    elapsed = time.perf_counter() - started
    report(
        1,
        "separable-regime top-k equals exhaustive optimum",
        worst < 1e-9 and elapsed < 10.0,
        f"{checked} cases, worst gap {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_02_coupled_regime_bound():
    started = time.perf_counter()
    rng = make_rng(424_242)
    total = 0
    violations = []
    for inst in range(50):
        ctx = _coupled_instance(rng, SIZES[inst % 4])
        scores = unit_scores_closed_form(ctx)
        for k in range(ctx.n_units + 1):
            mask = binarize_by_threshold(scores, k)
            best = enumerate_masks(ctx, k).best_loss
            loss = ctx.mask_loss(mask)
            ratio = 1.0 if best < 1e-15 and loss < 1e-12 else loss / best
            total += 1
            if ratio > 1.05 + 1e-9:
                violations.append((inst, k, ratio))
    for inst, k, ratio in violations:
        print(f"  coupled-regime violation: instance {inst} budget {k} gap {ratio:.4f}x")
    elapsed = time.perf_counter() - started
    frac_ok = 1.0 - len(violations) / total
    report(
        2,
        "coupled-regime threshold mask within 1.05x of optimum in >=95% of cases",
        frac_ok >= 0.95 and elapsed < 30.0,
        f"{total} cases, {len(violations)} violations, {elapsed:.2f}s",
    )


def test_criterion_03_energy_cross_validation():
    started = time.perf_counter()
    rng = make_rng(333_000)
    done = 0
    worst = 0.0
    worst_budget = 0.0
    while done < 20:
        n_layers = int(rng.integers(2, 9))
        imps = rng.normal(size=n_layers)
        temp = float(np.mean(np.abs(imps)) + rng.uniform(0.5, 1.5))
        r_bar = float(rng.uniform(0.3, 0.7))
        plan = softmax_allocate(importances(imps), r_bar, temp)
        closed = plan.sparsities()
        if closed.max() > 1.0 - 1e-5 or closed.min() < 1e-5:
            continue  # keep the box constraints inactive so both agree
        solved = energy_minimize_projected(imps, r_bar, temp, n_layers)
        worst = max(worst, float(np.max(np.abs(closed - solved))))
        worst_budget = max(
            worst_budget,
            abs(closed.sum() - r_bar * n_layers),
            abs(solved.sum() - r_bar * n_layers),
        )
        done += 1
    elapsed = time.perf_counter() - started
    report(
        3,
        "softmax allocation matches projected energy solver",
        worst < 1e-4 and worst_budget < 1e-10 and elapsed < 10.0,
        f"worst layer gap {worst:.2e}, worst budget gap {worst_budget:.2e}, {elapsed:.2f}s",
    )


def test_criterion_04_kkt_stationarity():
    rng = make_rng(444_000)
    worst_resid = 0.0
    worst_budget = 0.0
    for _ in range(20):
        n = int(rng.integers(3, 13))
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
        worst_resid = max(worst_resid, float(np.max(np.abs(resid))))
        worst_budget = max(worst_budget, abs(mask.sum() - retention * n))
    report(
        4,
        "relaxed mask satisfies per-unit stationarity and the budget",
        worst_resid < 1e-8 and worst_budget < 1e-9,
        f"worst stationarity {worst_resid:.2e}, worst budget {worst_budget:.2e}",
    )


def test_criterion_05_activation_update_optimality():
    rng = make_rng(555_000)
    worst_resid = 0.0
    all_increase = True
    for _ in range(20):
        rows = int(rng.integers(3, 8))
        cols = int(rng.integers(3, 8))
        tokens = int(rng.integers(2, 6))
        w = rng.normal(size=(rows, cols))
        z_pre = rng.normal(size=(rows, tokens))
        z = rng.normal(size=(cols, tokens))
        alpha = float(rng.uniform(0.5, 2.0))
        beta = float(rng.uniform(0.5, 2.0))
        a = ffn_update_activation(w, z_pre, z, alpha, beta)
        resid = alpha * (w.T @ (w @ a)) + beta * a - (alpha * w.T @ z_pre + beta * relu(z))
        worst_resid = max(worst_resid, float(np.max(np.abs(resid))))

        def objective(mat):
            return alpha * float(np.sum((z_pre - w @ mat) ** 2)) + beta * float(
                np.sum((mat - relu(z)) ** 2)
            )

        delta = rng.normal(size=a.shape)
        delta *= 1e-3 / np.linalg.norm(delta)
        if objective(a + delta) <= objective(a):
            all_increase = False
    report(
        5,
        "closed-form activation update is stationary and a local minimum",
        worst_resid < 1e-8 and all_increase,
        f"worst stationarity {worst_resid:.2e}",
    )


def test_criterion_06_mha_gradient_correctness():
    rng = make_rng(666_000)
    d, h, tokens, seg = 8, 2, 6, 3
    scale = float(np.sqrt(d // h))
    worst = 0.0
    for _ in range(5):
        wv = rng.normal(size=(d, d)) / np.sqrt(d)
        wo = rng.normal(size=(d, d)) / np.sqrt(d)
        a = rng.normal(size=(d, tokens))
        a_attn = rng.normal(size=(d, tokens))
        z = rng.normal(size=(d, tokens))
        q_pre = rng.normal(size=(d, tokens))
        k_pre = rng.normal(size=(d, tokens))
        z_next = rng.normal(size=(d, tokens))
        alpha = float(rng.uniform(0.5, 2.0))
        beta = float(rng.uniform(0.5, 2.0))
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
            worst = max(worst, float(np.max(np.abs(numeric - analytic))) / denom)
    report(
        6,
        "all three attention sub-objective gradients match finite differences",
        worst < 1e-5,
        f"max relative error {worst:.2e}",
    )


def test_criterion_07_solver_progress_and_golden_trace(tmp_path):
    started = time.perf_counter()
    model_dir = str(tmp_path / "model")
    calib_dir = str(tmp_path / "calib")
    admm_dir = str(tmp_path / "admm")
    assert cli_main(["gen", "--layout", "ffn", "--d", "16", "--layers", "2", "--heads", "2",
                     "--seed", "101", "--out", model_dir]) == 0
    assert cli_main(["calibrate", "--model", model_dir, "--n", "8", "--seq-len", "16",
                     "--seed", "202", "--out", calib_dir]) == 0
    assert cli_main(["admm", "--model", model_dir, "--calib", calib_dir,
                     "--method", "closed-form", "--sparsity", "0.5", "--alpha", "1.0",
                     "--beta", "1.0", "--iters", "20", "--seed", "0", "--out", admm_dir]) == 0
    with open(os.path.join(admm_dir, "trace.csv"), "rb") as fh:
        produced = fh.read()
    with open(os.path.join(DATA_DIR, "golden_trace.csv"), "rb") as fh:
        golden = fh.read()

    model = load_model(model_dir)
    calib = load_calibration(calib_dir)
    cache = capture_reference_activations(model, calib)
    plan = allocate_plan(model, cache, "closed-form", 0.5)
    cfg = SolverConfig(alpha=1.0, beta=1.0, outer_iters=20, seed=0, mask_criterion="closed-form")
    result = run_outer_loop(model, cache, plan, cfg)
    ratio = result.final_loss / result.initial_post_prune_loss
    elapsed = time.perf_counter() - started
    report(
        7,
        "frozen fixture: loss drops below 0.8x post-prune and the golden trace reproduces",
        produced == golden
        and export_trace_csv(result.trace).encode() == golden
        and ratio <= 0.8
        and elapsed < 60.0,
        f"decrease ratio {ratio:.4f}, {elapsed:.2f}s",
    )


TABLE1 = [
    ("OPT-125M", "0.125B", 12, "10.4", "20.8"),
    ("OPT-350M", "0.350B", 24, "14.6", "29.2"),
    ("OPT-1.3B", "1.3B", 24, "54.2", "108.4"),
    ("OPT-2.7B", "2.7B", 32, "84.4", "168.8"),
    ("OPT-6.7B", "6.7B", 32, "209.4", "418.8"),
    ("OPT-13B", "13B", 40, "325.0", "650.0"),
    ("OPT-30B", "30B", 48, "625.0", "1250.0"),
    ("OPT-66B", "66B", 64, "1031.2", "2062.4"),
]
TABLE2 = {
    768: (4_718_592, 2_359_296),
    1024: (8_388_608, 4_194_304),
    2048: (33_554_432, 16_777_216),
    2560: (52_428_800, 26_214_400),
    4096: (134_217_728, 67_108_864),
    5120: (209_715_200, 104_857_600),
    7168: (411_041_792, 205_520_896),
    9216: (679_477_248, 339_738_624),
}


def test_criterion_08_reference_tables_exact():
    rows = memory_report()
    ok = len(rows) == len(TABLE1)
    for row, (name, total, layers, params, mem) in zip(rows, TABLE1):
        d = int(round(math.sqrt(row.ffn_params / 8)))
        ffn, mha = TABLE2[d]
        ok = ok and (
            row.name == name
            and row.total_display == total
            and row.num_layers == layers
            and f"{row.params_per_layer_m:.1f}" == params
            and f"{row.mem_per_layer_mb:.1f}" == mem
            and row.ffn_params == ffn
            and row.mha_params == mha
            and f"{row.ratio:.2f}" == "2.00"
        )
    report(8, "parameter and memory tables reproduce at printed precision", ok)


def test_criterion_09_post_correction():
    trace1 = post_correct(
        SparsityPlan(
            [
                PlanEntry(0, "", 0.0, 1.0, 0.0, 1.2, "softmax"),
                PlanEntry(1, "", 0.0, 1.0, 0.8, 0.2, "softmax"),
            ]
        ),
        0.5,
    ).sparsities()
    trace2 = post_correct(
        SparsityPlan(
            [
                PlanEntry(0, "", 0.0, 1.0, 0.4, 0.6, "softmax"),
                PlanEntry(1, "", 0.0, 1.0, 0.8, 0.2, "softmax"),
            ]
        ),
        0.5,
    ).sparsities()
    traces_ok = np.allclose(trace1, [0.95, 0.2], atol=1e-12) and np.allclose(
        trace2, [0.75, 0.25], atol=1e-12
    )
    rng = make_rng(999_000)
    mean_ok = True
    checked = 0
    while checked < 100:
        n = int(rng.integers(4, 9))
        r_bar = float(rng.uniform(0.2, 0.5))
        raw = rng.uniform(0.5 * r_bar, 1.5 * r_bar, size=n)
        plan = SparsityPlan(
            [PlanEntry(i, "", 0.0, 1.0, 1 - v, float(v), "softmax") for i, v in enumerate(raw)]
        )
        out = post_correct(plan, r_bar)
        if np.any(out.sparsities() >= 0.95):
            continue  # cap bound; excluded by the property's premise
        mean_ok = mean_ok and abs(out.sparsities().mean() - r_bar) < 1e-9
        checked += 1
    report(
        9,
        "post-correction branch traces reproduce; mean hits the target when the cap is slack",
        traces_ok and mean_ok,
        f"{checked} random plans",
    )


def test_criterion_10_baseline_ordering():
    started = time.perf_counter()
    arch = ModelArch(d=16, num_layers=2, num_heads=2)

    def method_loss(method, criterion, seed):
        model, calib, cache = build_toy("decoder", arch, 1000 + seed, 2000 + seed)
        temp = 1.0
        if method == "softmax":
            imps = [li.value for li in layer_importance(model, cache, "wanda-sum")]
            temp = float(np.mean(np.abs(imps)))
        plan = allocate_plan(model, cache, method, 0.3, temperature=temp)
        cfg = SolverConfig(
            outer_iters=4, inner_steps=20, learning_rate=0.01, seed=seed, mask_criterion=criterion
        )
        result = run_outer_loop(model, cache_copy(cache), plan, cfg)
        return total_reconstruction_loss(result.model, cache).total

    rows = []
    print("  seed  closed-form      softmax    magnitude")
    for seed in range(10):
        cf = method_loss("closed-form", "closed-form", seed)
        sm = method_loss("softmax", "wanda", seed)
        mg = method_loss("magnitude", "magnitude", seed)
        rows.append((cf, sm, mg))
        print(f"  {seed:>4}  {cf:>11.4f}  {sm:>11.4f}  {mg:>11.4f}")
    medians = np.median(np.array(rows), axis=0)
    elapsed = time.perf_counter() - started
    report(
        10,
        "median loss: closed-form and softmax do not exceed the magnitude baseline",
        medians[0] <= medians[2] and medians[1] <= medians[2] and elapsed < 300.0,
        f"medians closed-form {medians[0]:.3f} / softmax {medians[1]:.3f} / "
        f"magnitude {medians[2]:.3f}, {elapsed:.1f}s",
    )


def _run_pipeline(root: str):
    model = os.path.join(root, "model")
    calib = os.path.join(root, "calib")
    plan = os.path.join(root, "plan")
    admm = os.path.join(root, "admm")
    evald = os.path.join(root, "eval")
    for argv in (
        ["gen", "--d", "8", "--layers", "2", "--heads", "2", "--seed", "31", "--out", model],
        ["calibrate", "--model", model, "--n", "4", "--seq-len", "8", "--seed", "32", "--out", calib],
        ["plan", "--model", model, "--calib", calib, "--method", "softmax", "--sparsity",
         "0.3", "--seed", "33", "--out", plan],
        ["admm", "--model", model, "--calib", calib, "--method", "softmax", "--sparsity",
         "0.3", "--iters", "2", "--inner", "5", "--seed", "33", "--out", admm],
        ["eval", "--model", admm, "--dense", model, "--calib", calib, "--out", evald],
    ):
        assert cli_main(argv) == 0
    tree = {}
    for dirpath, _, filenames in os.walk(root):
        for name in filenames:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                tree[os.path.relpath(path, root)] = fh.read()
    return tree


def test_criterion_11_pipeline_determinism(tmp_path):
    tree1 = _run_pipeline(str(tmp_path / "run1"))
    tree2 = _run_pipeline(str(tmp_path / "run2"))
    same_names = set(tree1) == set(tree2)
    same_bytes = same_names and all(tree1[k] == tree2[k] for k in tree1)
    report(
        11,
        "identical config and seed produce byte-identical pipeline artifacts",
        same_bytes,
        f"{len(tree1)} artifacts compared",
    )
