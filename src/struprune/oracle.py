"""Independent verification machinery: exhaustive mask enumeration, the
relaxed (continuous) closed-form mask and its multiplier, a
projected-gradient solver for the constrained energy allocation, a
central-finite-difference gradient checker, the single-pass dense
forward, a digest of the frozen activation cache, the plain-expression
reference forms of the solver kernels and of the one-shot products, and
the log-log scaling regression over the published model-family figures.

These are slow paths for tests and the `verify` subcommand only; nothing
on the production pruning path imports this module.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np
import scipy.linalg

from .allocation import ClosedFormContext, unit_scores_closed_form
from .errors import ParameterError, SizeError
from .evaluation import LossReport, MemoryConfig
from .linalg import relu, row_softmax
from .model import FFN, MASK_BEARING, calibration_input

ENUM_UNIT_CAP = 12


@dataclass
class EnumResult:
    best_bits: np.ndarray
    best_loss: float
    table: list[tuple[tuple[int, ...], float]]


def enumerate_masks(ctx: ClosedFormContext, k: int) -> EnumResult:
    """Exact layer loss of every k-subset of retained units, iterated in
    lexicographic order; ties resolve to the lexicographically smallest
    bit tuple."""
    n = ctx.n_units
    if n > ENUM_UNIT_CAP:
        raise SizeError(f"enumeration capped at {ENUM_UNIT_CAP} units, got {n}")
    if not 0 <= k <= n:
        raise ParameterError(f"retained count {k} outside [0, {n}]")
    table: list[tuple[tuple[int, ...], float]] = []
    best: tuple[float, tuple[int, ...]] | None = None
    for subset in combinations(range(n), k):
        bits = np.zeros(n, dtype=bool)
        bits[list(subset)] = True
        loss = ctx.mask_loss(bits)
        key = tuple(int(b) for b in bits)
        table.append((key, loss))
        if best is None or (loss, key) < best:
            best = (loss, key)
    return EnumResult(np.array(best[1], dtype=bool), best[0], table)


def relaxed_mask(ctx: ClosedFormContext, retention: float) -> np.ndarray:
    """Continuous stationary mask meeting sum(M) = retention * n.

    Each live entry solves the per-unit Lagrangian stationarity condition;
    degenerate units are excluded from the multiplier sum and pinned to 0.
    """
    v = ctx.weights()
    live = v > 0
    if not np.any(live):
        raise ParameterError("all units degenerate: c and d vanish everywhere")
    n = ctx.n_units
    s = unit_scores_closed_form(ctx)
    inv_v = np.zeros(n)
    inv_v[live] = 1.0 / v[live]
    correction = (s[live].sum() - retention * n) / inv_v[live].sum()
    mask = np.zeros(n)
    mask[live] = s[live] - inv_v[live] * correction
    return mask


def recover_multiplier(ctx: ClosedFormContext, retention: float) -> float:
    """Lagrange multiplier consistent with the relaxed mask's budget."""
    v = ctx.weights()
    live = v > 0
    s = unit_scores_closed_form(ctx)
    return 2.0 * (s[live].sum() - retention * ctx.n_units) / (1.0 / v[live]).sum()


def project_box_sum(v, total: float, lower: float, upper: float) -> np.ndarray:
    """Euclidean projection of v onto {x : sum(x) = total, lower <= x <=
    upper} by bisection on the shift multiplier."""
    v = np.asarray(v, dtype=np.float64).ravel()
    n = v.size
    if not lower * n <= total <= upper * n:
        raise ParameterError(
            f"sum target {total} infeasible for {n} coordinates in [{lower}, {upper}]"
        )
    lo = float(np.min(v) - upper)
    hi = float(np.max(v) - lower)
    # 64 halvings shrink the bracket below 1e-18 relative; the residual
    # spread below then lands the constraint at 1e-12 or better.
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        s = np.clip(v - mid, lower, upper).sum()
        if s > total:
            lo = mid
        else:
            hi = mid
    x = np.clip(v - 0.5 * (lo + hi), lower, upper)
    # Spread the bisection residual over strictly interior coordinates.
    residual = total - x.sum()
    interior = (x > lower) & (x < upper)
    if np.any(interior) and residual != 0.0:
        x[interior] += residual / interior.sum()
        x = np.clip(x, lower, upper)
    return x


def energy_minimize_projected(
    importances,
    r_bar: float,
    temperature: float,
    n_layers: int,
    steps: int = 10_000,
    lr: float = 0.1,
    lower: float = 1e-6,
    tol: float = 1e-12,
) -> np.ndarray:
    """Minimize sum_l -exp(-I_l/T) * log(r_l) subject to sum(r) = r_bar *
    L and r in [lower, 1], by projected gradient descent with Armijo
    backtracking from the uniform feasible point."""
    imps = np.asarray(importances, dtype=np.float64).ravel()
    if imps.size != n_layers:
        raise ParameterError(f"expected {n_layers} importances, got {imps.size}")
    if temperature <= 0:
        raise ParameterError("temperature must be > 0")
    budget = r_bar * n_layers
    if not lower * n_layers < budget < n_layers:
        raise ParameterError(
            f"budget {budget} leaves no feasible interior for {n_layers} layers"
        )
    beta = np.exp(-imps / temperature)

    def objective(r: np.ndarray) -> float:
        return float(-np.dot(beta, np.log(r)))

    def gradient(r: np.ndarray) -> np.ndarray:
        return -beta / r

    r = project_box_sum(np.full(n_layers, r_bar), budget, lower, 1.0)
    value = objective(r)
    step = lr
    for _ in range(steps):
        grad = gradient(r)
        while True:
            candidate = project_box_sum(r - step * grad, budget, lower, 1.0)
            cand_value = objective(candidate)
            if cand_value <= value + 1e-15 or step < 1e-18:
                break
            step *= 0.5
        moved = float(np.max(np.abs(candidate - r)))
        improved = value - cand_value
        r, value = candidate, cand_value
        step = min(step * 2.0, lr)
        if moved < tol or (moved < 1e-9 and improved < 1e-15):
            break
    return r


def finite_diff_grad(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central differences of a scalar field, one coordinate at a time."""
    if h <= 0:
        raise ParameterError("step h must be > 0")
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = f(x)
        flat[i] = orig - h
        down = f(x)
        flat[i] = orig
        gflat[i] = (up - down) / (2.0 * h)
    return grad


# ---------------------------------------------------------------------------
# Single-pass dense forward
# ---------------------------------------------------------------------------
#
# Every GEMM over all tokens at once, every temporary a fresh array. The
# production forward (model._dense_forward) runs over token tiles on a
# pool; tests and `verify` require the same bits.


def ffn_forward(block, x):
    """Returns (z, a, out): pre-activation, post-activation, block output."""
    z = block.w1 @ x
    a = relu(z)
    return z, a, block.w2 @ a


def mha_forward(block, x, seq_len=None):
    """Returns (q, k, z, a, a_attn, out).

    z is the consensus of the query and key projections (the shared
    pre-logit both branches reconstruct), a = row softmax of z scaled by
    1/sqrt(head_dim) and normalized per sample segment, a_attn the value
    projection of a, out the output projection of a_attn.
    """
    d_head = block.wq.shape[0] // block.num_heads
    q = block.wq @ x
    k = block.wk @ x
    z = 0.5 * (q + k)
    a = row_softmax(z, scale=float(np.sqrt(d_head)), seg_len=seq_len)
    a_attn = block.wv @ a
    return q, k, z, a, a_attn, block.wo @ a_attn


def dense_forward_reference(model, calib):
    """Per block, every array of its forward by BlockActivations name,
    the ones capture stores and the ones it derives."""
    x = calibration_input(model, calib)
    arrays = []
    for block in model.blocks:
        if block.kind == FFN:
            z, a, out = ffn_forward(block, x)
            arrays.append({"input_pre": x, "z_pre": z, "a_pre": a, "out_pre": out})
        else:
            q, k, z, a, a_attn, out = mha_forward(block, x, calib.seq_len)
            arrays.append({"input_pre": x, "q_pre": q, "k_pre": k, "z_pre": z, "a_pre": a,
                           "a_attn_pre": a_attn, "out_pre": out})
        x = out
    return arrays


def cache_checksum(cache) -> str:
    """Digest over every frozen reference array of an ActivationCache; any
    mutation of the pre values changes it."""
    h = hashlib.sha256()
    for rec in cache.blocks:
        for arr in rec.frozen_arrays().values():
            h.update(arr.tobytes())
    return h.hexdigest()


def pseudo_perplexity_reference(model, calib):
    """evaluation.pseudo_perplexity as the single-pass forward and a
    per-token loop."""
    x = dense_forward_reference(model, calib)[-1]["out_pre"]
    logits = model.head @ x
    logits = logits - logits.max(axis=0, keepdims=True)
    logz = np.log(np.sum(np.exp(logits), axis=0))
    n, seq = calib.n_samples, calib.seq_len
    total = 0.0
    count = 0
    for s in range(n):
        for p in range(seq - 1):
            col = s * seq + p
            target = calib.tokens[s, p + 1]
            total += logz[col] - logits[target, col]
            count += 1
    return float(math.exp(total / count))


# ---------------------------------------------------------------------------
# Reference forms of the solver kernels
# ---------------------------------------------------------------------------
#
# The plain-expression bodies of linalg.row_softmax and of the admm
# kernels. The production kernels write their temporaries into buffers
# they own; tests require them to return the same bits, in the same
# memory order, as these forms.


def row_softmax_reference(z, scale=1.0, seg_len=None):
    z = np.asarray(z, dtype=np.float64)
    if seg_len is not None:
        shaped = z.reshape(z.shape[0], -1, seg_len)
        return row_softmax_reference(shaped, scale).reshape(z.shape)
    s = z / scale
    s = s - s.max(axis=-1, keepdims=True)
    w = np.exp(s)
    return w / w.sum(axis=-1, keepdims=True)


def _sq(arr):
    return float(np.sum(arr * arr))


def mha_obj_a_reference(a, wv_eff, a_attn, z, alpha, beta, head_scale, seg_len):
    phi = row_softmax_reference(z, head_scale, seg_len)
    return alpha * _sq(a_attn - wv_eff @ a) + beta * _sq(a - phi)


def mha_grad_a_reference(a, wv_eff, a_attn, z, alpha, beta, head_scale, seg_len):
    phi = row_softmax_reference(z, head_scale, seg_len)
    return -2.0 * alpha * wv_eff.T @ (a_attn - wv_eff @ a) + 2.0 * beta * (a - phi)


def mha_obj_attn_reference(a_attn, wo_eff, wv_eff, a, z_next_pre, alpha):
    return alpha * _sq(z_next_pre - wo_eff @ a_attn) + alpha * _sq(a_attn - wv_eff @ a)


def mha_grad_attn_reference(a_attn, wo_eff, wv_eff, a, z_next_pre, alpha):
    return -2.0 * alpha * wo_eff.T @ (z_next_pre - wo_eff @ a_attn) + 2.0 * alpha * (
        a_attn - wv_eff @ a
    )


def mha_obj_z_reference(z, a, q_pre, k_pre, alpha, beta, head_scale, seg_len):
    phi = row_softmax_reference(z, head_scale, seg_len)
    return beta * _sq(a - phi) + alpha * _sq(z - q_pre) + alpha * _sq(z - k_pre)


def mha_grad_z_reference(z, a, q_pre, k_pre, alpha, beta, head_scale, seg_len):
    phi = row_softmax_reference(z, head_scale, seg_len)
    resid = a - phi
    shaped = (resid * phi).reshape(z.shape[0], -1, seg_len)
    inner = shaped.sum(axis=2, keepdims=True)
    inner = np.broadcast_to(inner, shaped.shape).reshape(z.shape)
    soft_grad = -(2.0 * beta / head_scale) * phi * (resid - inner)
    return soft_grad + 2.0 * alpha * (z - q_pre) + 2.0 * alpha * (z - k_pre)


def closed_form_scores_reference(w_hat, x_pre, target):
    """importance.unit_scores with the closed-form criterion."""
    c_rows = w_hat @ x_pre
    return 2.0 * np.sum(c_rows * target, axis=1) - np.sum(c_rows * c_rows, axis=1)


def l0_gates_reference(w, x_in, target, n_samples, rng, steps=200, lam=1e-2, lr=0.05):
    """importance.l0_gates with the plain step, two full-size temporaries
    per step."""
    wx = w @ x_in
    theta = np.full(w.shape[0], 4.0) + rng.normal(0.0, 1e-3, size=w.shape[0])
    inv_n = 1.0 / float(n_samples)
    for _ in range(steps):
        g = 1.0 / (1.0 + np.exp(-theta))
        residual = g[:, None] * wx - target
        grad_g = 2.0 * inv_n * np.sum(residual * wx, axis=1) + lam
        theta -= lr * grad_g * g * (1.0 - g)
    return 1.0 / (1.0 + np.exp(-theta))


def cholesky_reference(gram):
    """linalg.cholesky through scipy's own LAPACK wrapper."""
    return scipy.linalg.cho_factor(gram, lower=True, check_finite=False)


def cho_solve_reference(factor, b):
    """linalg.cho_solve through scipy's own LAPACK wrapper."""
    return scipy.linalg.cho_solve(factor, b, check_finite=False)


def ffn_update_activation_reference(w_next, z_next_pre, z, alpha, beta):
    n = w_next.shape[1]
    gram = alpha * (w_next.T @ w_next) + beta * np.eye(n)
    rhs = alpha * (w_next.T @ z_next_pre) + beta * relu(z)
    return cho_solve_reference(cholesky_reference(gram), rhs)


def ffn_update_output_reference(w1_eff, input_pre, a, z_prev, alpha, beta):
    z1 = w1_eff @ input_pre
    z2 = (beta * a + alpha * z1) / (alpha + beta)
    return np.where(z_prev < 0.0, z1, z2)


def ffn_objective_reference(w1_eff, w2_eff, rec, a, z, alpha, beta, n_samples):
    """admm.ffn_objective with the masked matrices and the iterates passed in."""
    t1 = alpha * _sq(rec.out_pre - w2_eff @ a)
    t2 = beta * _sq(a - relu(z))
    t3 = alpha * _sq(z - w1_eff @ rec.input_pre)
    return (t1 + t2 + t3) / float(n_samples)


# ---------------------------------------------------------------------------
# Reference forms of the one-shot products
# ---------------------------------------------------------------------------
#
# The plain-expression bodies of evaluation.total_reconstruction_loss and
# allocation.closed_form_context: every product a GEMM, every temporary a
# fresh array, every squared residual summed whole by np.sum, and the
# arrays capture does not store (FFN a, MHA z) derived whole. The
# production forms read the row-unit products from the frozen activation
# cache, and the loss sums each squared residual a leaf of numpy's
# pairwise tree at a time (model._pairwise_sum) without building it;
# tests and `verify` require the same bits.


def sq_residual_reference(target, *products):
    """np.sum of the squared residual that evaluation._sq_residual sums by
    leaves: target - p for one product, p = 0.5 * (p1 + p2) for two, each
    an (array, zero) pair whose rows flagged in zero read as +0.0."""
    read = [p if zero is None else np.where(zero[:, None], 0.0, p) for p, zero in products]
    return _sq(target - (read[0] if len(read) == 1 else 0.5 * (read[0] + read[1])))


def total_reconstruction_loss_reference(model_pruned, cache, alpha=1.0):
    inv_n = 1.0 / float(cache.n_samples)
    per_layer = []
    for i, (pb, rec) in enumerate(zip(model_pruned.blocks, cache.blocks)):
        if pb.kind == FFN:
            up = _sq(rec.z_pre - pb.w1 @ rec.input_pre)
            down = _sq(rec.out_pre - pb.w2 @ relu(rec.z_pre))
            loss = alpha * inv_n * (up + down)
        else:
            cons_pruned = 0.5 * (pb.wq @ rec.input_pre + pb.wk @ rec.input_pre)
            qk = _sq(0.5 * (rec.q_pre + rec.k_pre) - cons_pruned)
            val = _sq(rec.a_attn_pre - pb.wv @ rec.a_pre)
            out = _sq(rec.out_pre - pb.wo @ rec.a_attn_pre)
            loss = alpha * inv_n * (qk + val + out)
        per_layer.append((i, pb.kind, float(loss)))
    return LossReport(per_layer, float(sum(l for _, _, l in per_layer)))


def closed_form_context_reference(model, cache, layer, matrix=None):
    block = model.blocks[layer]
    rec = cache.blocks[layer]
    if matrix is None:
        matrix = MASK_BEARING[block.kind][0]
    x_pre = rec.input_pre if matrix in ("w1", "wq", "wk") else rec.a_pre
    c = (block.matrices[matrix] @ x_pre).mean(axis=1)
    b = c.copy()
    n = b.size
    if block.kind == FFN and matrix == "w1" and model.arch.ffn_dim == model.arch.d:
        d_vec = (block.w2 @ relu(rec.z_pre)).mean(axis=1)
        z_pre = rec.out_pre.mean(axis=1)
    else:
        d_vec = np.zeros(n)
        z_pre = np.zeros(n)
    return ClosedFormContext(b, c, d_vec, z_pre)


# ---------------------------------------------------------------------------
# Scaling regression over the published family figures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalingReport:
    slope_layers: float
    slope_params_per_layer: float


def scaling_report(configs: list[MemoryConfig]) -> ScalingReport:
    """Log-log OLS slopes of layer count and of parameters-per-layer
    against total parameter count."""
    if len(configs) < 3:
        raise ParameterError("scaling regression needs at least 3 configs")
    x = np.log([c.total_params for c in configs])
    y_layers = np.log([c.num_layers for c in configs])
    y_width = np.log([c.total_params / c.num_layers for c in configs])
    return ScalingReport(_ols_slope(x, y_layers), _ols_slope(x, y_width))


def _ols_slope(x: np.ndarray, y: np.ndarray) -> float:
    dx = x - x.mean()
    dy = y - y.mean()
    return float(np.dot(dx, dy) / np.dot(dx, dx))
