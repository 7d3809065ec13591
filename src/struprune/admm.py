"""Divide-and-conquer alternating optimizer.

Each block is solved as an independent layer pair against the frozen
dense reference: per outer iteration it re-derives structured masks at
the planned budget, ridge-refits the reconstructed weights on retained
units, updates the activation/output iterates (closed form for FFN,
three sequential gradient sub-solves for MHA), and finally recovers the
teacher matrices from the iterates. Calibration inputs always come from
the frozen reference, which is what keeps block solves independent, so
run_outer_loop solves the blocks on a thread pool.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .allocation import SparsityPlan, binarize_by_threshold, round_half_away
from .errors import ParameterError, SingularSystemError, SolverError
from .importance import UNIT_CRITERIA, UNIT_OWNER, unit_mask
from .linalg import _cholesky, cho_solve, make_rng, relu, ridge_solve, row_softmax
from .model import FFN, ActivationCache, BlockActivations, ToyModel, _worker_pool, csv_text


@dataclass
class SolverConfig:
    alpha: float = 1.0
    beta: float = 1.0
    outer_iters: int = 8
    inner_steps: int = 30
    learning_rate: float = 0.01
    ridge_eps: float = 1e-6
    seed: int = 0
    mask_criterion: str = "closed-form"

    def __post_init__(self):
        if self.alpha <= 0 or self.beta <= 0:
            raise ParameterError("alpha and beta must be > 0")
        if self.outer_iters < 1:
            raise ParameterError("outer_iters must be >= 1")
        if self.inner_steps < 0:
            raise ParameterError("inner_steps must be >= 0")


@dataclass
class BlockState:
    """Single-owner mutable state of one layer pair: its matrices, masks
    and the iterates z, a and a_attn, which start as the frozen arrays of
    the block's record (_init_state)."""

    layer: int
    kind: str
    w_hat: dict[str, np.ndarray]
    teacher: dict[str, np.ndarray]
    masks: dict[str, np.ndarray] = field(default_factory=dict)
    budget: dict[str, int] = field(default_factory=dict)
    num_heads: int = 1
    iteration: int = 0  # outer iteration in progress; 0 before the solve
    z: np.ndarray | None = None
    a: np.ndarray | None = None
    a_attn: np.ndarray | None = None

    def effective(self, name: str) -> np.ndarray:
        w = self.w_hat[name]
        if UNIT_OWNER[name] not in self.masks:
            return w
        return w * unit_mask(name, self.masks)


@dataclass
class AdmmResult:
    model: ToyModel
    trace: list[tuple[int, int, str, float]]
    initial_post_prune_loss: float
    final_loss: float
    masks: dict[int, dict[str, np.ndarray]] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Weight recovery
# ---------------------------------------------------------------------------


def recover_weights(z: np.ndarray, a_prev: np.ndarray, eps: float) -> np.ndarray:
    """Solve min ||W a_prev - z||^2 + eps ||W||^2 for W by ridge regression."""
    return ridge_solve(a_prev.T, z.T, eps).T


def _refit_rows(w_hat: np.ndarray, bits: np.ndarray, x_in: np.ndarray, target: np.ndarray, eps: float) -> np.ndarray:
    """Ridge-refit the retained rows of w_hat so they reproduce the target
    rows on x_in; masked rows keep their previous values.

    The fit is on the residual, so under-determined directions stay at the
    current weights and an already-optimal matrix is returned unchanged.
    """
    out = w_hat.copy()
    retained = np.flatnonzero(bits)
    if retained.size:
        residual = target[retained] - w_hat[retained] @ x_in
        sol = ridge_solve(x_in.T, residual.T, eps)
        out[retained] = w_hat[retained] + sol.T
    return out


def _refit_cols(w_hat: np.ndarray, bits: np.ndarray, a_in: np.ndarray, target: np.ndarray, eps: float) -> np.ndarray:
    """Ridge-refit the retained columns of w_hat so the column-masked
    product reproduces the target; inputs are the retained rows of a_in.
    Residual-based like _refit_rows."""
    out = w_hat.copy()
    retained = np.flatnonzero(bits)
    if retained.size:
        residual = target - w_hat[:, retained] @ a_in[retained]
        sol = ridge_solve(a_in[retained].T, residual.T, eps)
        out[:, retained] = w_hat[:, retained] + sol.T
    return out


# ---------------------------------------------------------------------------
# FFN subproblems
# ---------------------------------------------------------------------------


SOLVER_CRITERIA = {**UNIT_CRITERIA, "l0": partial(UNIT_CRITERIA["l0"], steps=100)}


def prune_scores(
    w_hat: np.ndarray,
    x_pre: np.ndarray,
    target: np.ndarray,
    criterion: str,
    n_samples: int,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Unit scores for one mask-bearing matrix: w_hat acts on the frozen
    reference input x_pre; target is the teacher's product on the current
    input."""
    if criterion == "closed-form":
        # Exact per-unit decrease of the sample-summed prune objective
        # ||b_row - M_j c_row||^2: retaining unit j saves
        # 2 <c_j, b_j> - ||c_j||^2. This is the tie-aware completion of
        # thresholding the ratio score (identical ordering when the unit
        # weights c_j^2 are constant) and stays informative at the
        # pristine state, where every ratio score is exactly 1.
        c_rows = w_hat @ x_pre
        gain = np.empty(c_rows.shape[0])
        for r in _row_blocks(c_rows.shape[0]):
            np.sum(np.multiply(c_rows[r], target[r]), axis=1, out=gain[r])
        return 2.0 * gain - np.sum(np.multiply(c_rows, c_rows, out=c_rows), axis=1)
    if criterion not in SOLVER_CRITERIA:
        raise ParameterError(f"unknown mask criterion {criterion!r}")
    return SOLVER_CRITERIA[criterion](w_hat, x_pre, target, n_samples, rng)


def ffn_prune_step(
    state: BlockState,
    rec: BlockActivations,
    cfg: SolverConfig,
    n_samples: int,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Mask the hidden units at the planned budget, then ridge-refit the
    retained w1 rows and the matching w2 columns onto the teachers'
    current products."""
    target_up = state.teacher["w1"] @ rec.input_pre
    scores = prune_scores(
        state.w_hat["w1"], rec.input_pre, target_up, cfg.mask_criterion, n_samples, rng
    )
    mask = binarize_by_threshold(scores, state.budget["w1"])
    state.masks["w1"] = mask
    state.w_hat["w1"] = _refit_rows(state.w_hat["w1"], mask, rec.input_pre, target_up, cfg.ridge_eps)
    target_down = state.teacher["w2"] @ state.a
    state.w_hat["w2"] = _refit_cols(state.w_hat["w2"], mask, state.a, target_down, cfg.ridge_eps)
    return mask


def ffn_update_activation(
    w_next: np.ndarray, z_next_pre: np.ndarray, z: np.ndarray, alpha: float, beta: float
) -> np.ndarray:
    """Closed form a = (alpha W'W + beta I)^-1 (alpha W' z_next_pre +
    beta relu(z)); minimizes alpha ||z_next_pre - W a||^2 + beta
    ||a - relu(z)||^2."""
    n = w_next.shape[1]
    gram = alpha * (w_next.T @ w_next) + beta * np.eye(n)
    rhs = w_next.T @ z_next_pre
    np.multiply(alpha, rhs, out=rhs)
    act = relu(z)
    np.multiply(beta, act, out=act)
    np.add(rhs, act, out=rhs)
    del act  # freed before the solve copies rhs
    factor = _cholesky(gram, f"activation update Gram matrix not positive definite at --beta {beta:g}")
    return cho_solve(factor, rhs)


def ffn_update_output(
    w1_eff: np.ndarray,
    input_pre: np.ndarray,
    a: np.ndarray,
    z_prev: np.ndarray,
    alpha: float,
    beta: float,
) -> np.ndarray:
    """Piecewise output update: z1 = masked product on the reference
    input, z2 the convex blend with a; coordinates negative in the
    pre-update z take z1, the rest take z2."""
    z1 = w1_eff @ input_pre
    # np.where lays its result out like the C-ordered product z1, so the
    # blend is built in a buffer laid out like z1.
    z = np.multiply(alpha, z1)
    for r in _row_blocks(z.shape[0]):
        np.add(np.multiply(beta, a[r]), z[r], out=z[r])
    np.divide(z, alpha + beta, out=z)
    np.copyto(z, z1, where=z_prev < 0.0)
    return z


def ffn_objective(state: BlockState, rec: BlockActivations, cfg: SolverConfig, n_samples: int) -> float:
    w1 = state.effective("w1")
    w2 = state.effective("w2")
    t1 = cfg.alpha * _sq_owned(_residual(rec.out_pre, w2, state.a))
    t2 = cfg.beta * _sq_owned(_minus(state.a, relu(state.z)))
    t3 = cfg.alpha * _sq_owned(_residual(state.z, w1, rec.input_pre))
    return (t1 + t2 + t3) / float(n_samples)


# ---------------------------------------------------------------------------
# Kernel buffers
# ---------------------------------------------------------------------------
#
# The solver kernels evaluate their plain expressions (oracle.py keeps
# them) with the same floating-point operations in the same order, but
# write each temporary into a buffer the kernel allocated itself; they
# never write into an argument. Every buffer keeps the memory order numpy
# gives the plain expression, because np.sum and the axis sums add in
# memory order: a matrix product is C-ordered, and an elementwise result
# is Fortran-ordered only when all its full-size operands are. A
# full-size temporary that only feeds a per-row sum or an add into an
# owned buffer is built a block of rows at a time (_row_blocks): each
# element, and each row's sum, sees the same operations, and two blocks
# solved at once do not each hold one more ffn_dim x T array.


def _row_blocks(n: int):
    """Slices of 64 consecutive rows covering range(n)."""
    return (slice(i, i + 64) for i in range(0, n, 64))


def _order(x: np.ndarray) -> str | None:
    if x.flags.c_contiguous:
        return "C"
    return "F" if x.flags.f_contiguous else None


def _out(buf: np.ndarray, *operands: np.ndarray) -> np.ndarray | None:
    """buf when an elementwise result over operands (each shaped like buf)
    would have buf's memory order; otherwise None, so the ufunc allocates."""
    orders = {_order(x) for x in operands}
    if None in orders:
        return None
    return buf if _order(buf) == ("F" if orders == {"F"} else "C") else None


def _sq(arr: np.ndarray, out: np.ndarray | None = None) -> float:
    """sum(arr * arr), the product written into out when given."""
    return float(np.sum(np.multiply(arr, arr, out=out)))


def _sq_owned(arr: np.ndarray) -> float:
    """_sq of an array whose values the caller no longer needs: it is
    squared in place."""
    return _sq(arr, out=arr)


def _minus(x: np.ndarray, owned: np.ndarray) -> np.ndarray:
    """x - owned, written into owned when its memory order allows."""
    return np.subtract(x, owned, out=_out(owned, x, owned))


def _residual(target: np.ndarray, w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """target - w @ x, subtracted into the (C-ordered) product."""
    prod = w @ x
    return np.subtract(target, prod, out=prod)


class _Residual:
    """target - w @ x at the latest iterate x. _descend evaluates the
    objective and then the gradient at each iterate, so one slot keyed on
    the iterate's identity lets the two share the product; holding the
    iterate keeps its id from being reused by a later array."""

    def __init__(self, target: np.ndarray, w: np.ndarray):
        self.target, self.w = target, w
        self.x = self.value = None

    def __call__(self, x: np.ndarray) -> np.ndarray:
        if x is not self.x:
            self.x, self.value = x, _residual(self.target, self.w, x)
        return self.value


# ---------------------------------------------------------------------------
# MHA subproblems (gradient sub-solves on the separated objective)
# ---------------------------------------------------------------------------


def mha_obj_a(a, wv_eff, a_attn, z, alpha, beta, head_scale, seg_len, resid=None) -> float:
    """alpha ||a_attn - Wv a||^2 + beta ||a - softmax(z)||^2; resid(a),
    when given, returns a_attn - Wv a (a _Residual shared with the
    gradient)."""
    r = _residual(a_attn, wv_eff, a) if resid is None else resid(a)
    phi = row_softmax(z, head_scale, seg_len)
    d = _minus(a, phi)
    soft = _sq_owned(d)
    return alpha * _sq(r, out=_out(d, r)) + beta * soft


def mha_grad_a(a, wv_eff, a_attn, z, alpha, beta, head_scale, seg_len, resid=None) -> np.ndarray:
    """-2 alpha Wv'(a_attn - Wv a) + 2 beta (a - softmax(z)); resid as in
    mha_obj_a."""
    r = _residual(a_attn, wv_eff, a) if resid is None else resid(a)
    phi = row_softmax(z, head_scale, seg_len)
    g = (-2.0 * alpha * wv_eff.T) @ r
    d = _minus(a, phi)
    np.multiply(2.0 * beta, d, out=d)
    return np.add(g, d, out=g)


def mha_obj_attn(a_attn, wo_eff, wv_eff, a, z_next_pre, alpha, v=None, resid=None) -> float:
    """alpha ||z_next_pre - Wo a_attn||^2 + alpha ||a_attn - Wv a||^2; v,
    when given, is Wv a, and resid(a_attn) returns z_next_pre - Wo a_attn
    (a _Residual shared with the gradient)."""
    r = _residual(z_next_pre, wo_eff, a_attn) if resid is None else resid(a_attn)
    e = _residual(a_attn, wv_eff, a) if v is None else a_attn - v
    value = _sq_owned(e)
    return alpha * _sq(r, out=_out(e, r)) + alpha * value


def mha_grad_attn(a_attn, wo_eff, wv_eff, a, z_next_pre, alpha, v=None, resid=None) -> np.ndarray:
    """-2 alpha Wo'(z_next_pre - Wo a_attn) + 2 alpha (a_attn - Wv a); v and
    resid as in mha_obj_attn."""
    r = _residual(z_next_pre, wo_eff, a_attn) if resid is None else resid(a_attn)
    g = (-2.0 * alpha * wo_eff.T) @ r
    e = _residual(a_attn, wv_eff, a) if v is None else a_attn - v
    np.multiply(2.0 * alpha, e, out=e)
    return np.add(g, e, out=g)


def mha_obj_z(z, a, q_pre, k_pre, alpha, beta, head_scale, seg_len) -> float:
    """beta ||a - softmax(z)||^2 + alpha ||z - q_pre||^2 + alpha ||z - k_pre||^2."""
    phi = row_softmax(z, head_scale, seg_len)
    d = _minus(a, phi)
    soft = _sq_owned(d)
    d = np.subtract(z, q_pre, out=_out(d, z, q_pre))
    query = _sq_owned(d)
    d = np.subtract(z, k_pre, out=_out(d, z, k_pre))
    return beta * soft + alpha * query + alpha * _sq_owned(d)


def mha_grad_z(z, a, q_pre, k_pre, alpha, beta, head_scale, seg_len) -> np.ndarray:
    """Gradient of mha_obj_z: the softmax Jacobian applied per segment to
    -2 beta (a - softmax(z)), plus 2 alpha (z - q_pre) + 2 alpha (z - k_pre)."""
    phi = row_softmax(z, head_scale, seg_len)
    resid = np.subtract(a, phi)
    prod = np.multiply(resid, phi)
    # The plain form subtracts a C-ordered copy of inner spread over the
    # segments, so the difference is C-ordered, and the segment reshape of
    # a C-ordered resid is a view.
    inner = prod.reshape(z.shape[0], -1, seg_len).sum(axis=2, keepdims=True)
    resid = np.ascontiguousarray(resid)
    segments = resid.reshape(inner.shape[:2] + (seg_len,))
    np.subtract(segments, inner, out=segments)
    np.multiply(-(2.0 * beta / head_scale), phi, out=phi)
    g = np.multiply(phi, resid, out=_out(phi, phi, resid))
    for pre in (q_pre, k_pre):
        d = np.subtract(z, pre, out=_out(prod, z, pre))
        np.multiply(2.0 * alpha, d, out=d)
        g = np.add(g, d, out=_out(g, g, d))
    return g


def _descend(x0, obj, grad, steps, lr, label, layer, lipschitz=None):
    """Plain gradient descent with a divergence guard: an objective blow-up
    beyond 10x the entry value aborts with the entry objective and the
    step and value of the blow-up. For a quadratic sub-solve, lipschitz()
    gives the gradient's Lipschitz constant L; it is evaluated only on
    that path, and 1/L is the suggested step size. grad must return a
    fresh array: the step x - lr * grad(x) is written into it."""
    x = x0
    start = obj(x0)
    for step in range(1, steps + 1):
        g = grad(x)
        np.multiply(lr, g, out=g)
        x = np.subtract(x, g, out=_out(g, x, g))
        value = obj(x)
        if not np.isfinite(value) or value > 10.0 * max(start, 1e-30):
            hint = "" if lipschitz is None else f"; suggested --lr {1.0 / lipschitz():.3g} (1/L)"
            raise SolverError(
                f"{label} sub-solve diverged at layer {layer} with --lr {lr:g} "
                f"(objective trace: {start:.6g} at entry, {value:.6g} at step {step} of {steps}){hint}"
            )
    return x


def _spectral_sq(w: np.ndarray) -> float:
    return float(np.linalg.norm(w, 2)) ** 2


def mha_update(
    state: BlockState, rec: BlockActivations, cfg: SolverConfig, seg_len: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Three sequential gradient sub-solves: a, then a_attn, then z.
    The query and key branches share the single z iterate."""
    head_scale = float(np.sqrt(state.w_hat["wq"].shape[0] // state.num_heads))
    wv = state.effective("wv")
    wo = state.effective("wo")
    wq = state.effective("wq")
    wk = state.effective("wk")
    q_pre = wq @ rec.input_pre
    k_pre = wk @ rec.input_pre
    resid_a = _Residual(state.a_attn, wv)
    a = _descend(
        state.a,
        lambda x: mha_obj_a(x, wv, state.a_attn, state.z, cfg.alpha, cfg.beta, head_scale, seg_len, resid_a),
        lambda x: mha_grad_a(x, wv, state.a_attn, state.z, cfg.alpha, cfg.beta, head_scale, seg_len, resid_a),
        cfg.inner_steps,
        cfg.learning_rate,
        "activation",
        state.layer,
        lambda: 2.0 * (cfg.alpha * _spectral_sq(wv) + cfg.beta),
    )
    state.a = a
    v = wv @ a  # a is fixed in the attention sub-solve
    resid_o = _Residual(rec.out_pre, wo)
    a_attn = _descend(
        state.a_attn,
        lambda x: mha_obj_attn(x, wo, wv, a, rec.out_pre, cfg.alpha, v, resid_o),
        lambda x: mha_grad_attn(x, wo, wv, a, rec.out_pre, cfg.alpha, v, resid_o),
        cfg.inner_steps,
        cfg.learning_rate,
        "attention-activation",
        state.layer,
        lambda: 2.0 * cfg.alpha * (_spectral_sq(wo) + 1.0),
    )
    state.a_attn = a_attn
    z = _descend(
        state.z,
        lambda x: mha_obj_z(x, a, q_pre, k_pre, cfg.alpha, cfg.beta, head_scale, seg_len),
        lambda x: mha_grad_z(x, a, q_pre, k_pre, cfg.alpha, cfg.beta, head_scale, seg_len),
        cfg.inner_steps,
        cfg.learning_rate,
        "output",
        state.layer,
    )
    state.z = z
    return a, a_attn, z


def mha_prune_step(
    state: BlockState,
    rec: BlockActivations,
    cfg: SolverConfig,
    n_samples: int,
    rng: np.random.Generator | None = None,
) -> dict[str, np.ndarray]:
    """Mask each projection separately at the planned budget; the value
    mask owns the matching output-projection columns."""
    for name in ("wq", "wk", "wv"):
        x_pre, x_cur = (rec.a_pre, state.a) if name == "wv" else (rec.input_pre, rec.input_pre)
        # From iteration 2 on wq and wk share one recovered teacher, so wk
        # reuses wq's target; nothing writes into a target.
        if not (name == "wk" and state.teacher["wk"] is state.teacher["wq"]):
            target = state.teacher[name] @ x_cur
        scores = prune_scores(state.w_hat[name], x_pre, target, cfg.mask_criterion, n_samples, rng)
        mask = binarize_by_threshold(scores, state.budget[name])
        state.masks[name] = mask
        state.w_hat[name] = _refit_rows(state.w_hat[name], mask, x_cur, target, cfg.ridge_eps)
    target_o = state.teacher["wo"] @ state.a_attn
    state.w_hat["wo"] = _refit_cols(state.w_hat["wo"], state.masks["wv"], state.a_attn, target_o, cfg.ridge_eps)
    return state.masks


def mha_objective(
    state: BlockState, rec: BlockActivations, cfg: SolverConfig, n_samples: int, seg_len: int
) -> float:
    head_scale = float(np.sqrt(state.w_hat["wq"].shape[0] // state.num_heads))
    q_pre = state.effective("wq") @ rec.input_pre
    k_pre = state.effective("wk") @ rec.input_pre
    total = (
        cfg.alpha * _sq(rec.out_pre - state.effective("wo") @ state.a_attn)
        + cfg.alpha * _sq(state.a_attn - state.effective("wv") @ state.a)
        + cfg.beta * _sq(state.a - row_softmax(state.z, head_scale, seg_len))
        + cfg.alpha * _sq(state.z - q_pre)
        + cfg.alpha * _sq(state.z - k_pre)
    )
    return total / float(n_samples)


# ---------------------------------------------------------------------------
# Outer loop
# ---------------------------------------------------------------------------


def _init_state(layer: int, block, plan: SparsityPlan, rec: BlockActivations) -> BlockState:
    # The solver replaces its matrices and iterates and never writes into
    # them (the refits copy first), so the state starts from the block's
    # matrices and the record's frozen arrays themselves, not copies.
    retention = plan.retention_for(layer)
    state = BlockState(layer, block.kind, dict(block.matrices), dict(block.matrices))
    state.z, state.a, state.a_attn = rec.z_pre, rec.a_pre, rec.a_attn_pre
    if block.kind == FFN:
        state.budget = {"w1": round_half_away(retention * block.w1.shape[0])}
    else:
        d = block.wq.shape[0]
        k = round_half_away(retention * d)
        state.budget = {"wq": k, "wk": k, "wv": k}
        state.num_heads = block.num_heads
    return state


def solve_block(
    state: BlockState,
    rec: BlockActivations,
    cfg: SolverConfig,
    n_samples: int,
    seq_len: int,
    rng: np.random.Generator | None,
) -> tuple[list[tuple[int, int, str, float]], float]:
    """Alternating solve of one layer pair for cfg.outer_iters iterations
    against its frozen reference record; returns the block's trace rows
    and its post-prune objective at iteration 1. The iterates are
    released on return, so a block holds solver memory only while it is
    being solved. Overflow is caught by the finiteness checks, not warned
    about (np.errstate is per thread)."""
    trace = []
    initial_loss = 0.0
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for it in range(1, cfg.outer_iters + 1):
                state.iteration = it
                if state.kind == FFN:
                    ffn_prune_step(state, rec, cfg, n_samples, rng)
                    if it == 1:
                        initial_loss = ffn_objective(state, rec, cfg, n_samples)
                    state.a = None  # not read by the update; not kept alive through it
                    state.a = ffn_update_activation(
                        state.effective("w2"), rec.out_pre, state.z, cfg.alpha, cfg.beta
                    )
                    state.z = ffn_update_output(
                        state.effective("w1"), rec.input_pre, state.a, state.z, cfg.alpha, cfg.beta
                    )
                    state.teacher["w1"] = recover_weights(state.z, rec.input_pre, cfg.ridge_eps)
                    state.teacher["w2"] = recover_weights(rec.out_pre, state.a, cfg.ridge_eps)
                    objective = ffn_objective(state, rec, cfg, n_samples)
                else:
                    mha_prune_step(state, rec, cfg, n_samples, rng)
                    if it == 1:
                        initial_loss = mha_objective(state, rec, cfg, n_samples, seq_len)
                    mha_update(state, rec, cfg, seq_len)
                    wqk = recover_weights(state.z, rec.input_pre, cfg.ridge_eps)
                    state.teacher["wq"] = state.teacher["wk"] = wqk
                    state.teacher["wv"] = recover_weights(state.a_attn, state.a, cfg.ridge_eps)
                    state.teacher["wo"] = recover_weights(rec.out_pre, state.a_attn, cfg.ridge_eps)
                    objective = mha_objective(state, rec, cfg, n_samples, seq_len)
                if not np.isfinite(objective):
                    raise SolverError(f"non-finite objective at layer {state.layer}, iteration {it}")
                trace.append((it, state.layer, state.kind, objective))
    except SingularSystemError as exc:
        raise SingularSystemError(f"layer {state.layer}: {exc}") from exc
    finally:
        state.z = state.a = state.a_attn = None
    return trace, initial_loss


def run_outer_loop(
    model: ToyModel,
    cache: ActivationCache,
    plan: SparsityPlan,
    cfg: SolverConfig,
    threads: int = 1,
) -> AdmmResult:
    """Solve every layer pair on a pool of `threads` workers; returns the
    masked model and the objective trace (one row per block per outer
    iteration). Blocks are independent, so the result is the same for any
    thread count: rows are merged in (iteration, layer) order, the
    post-prune losses are summed in block order, and of several failing
    blocks the one that fails at the smallest (iteration, layer) raises,
    as it would in a sequential sweep over iterations."""
    layers = {e.layer for e in plan.entries}
    missing = [i for i in range(len(model.blocks)) if i not in layers]
    if missing:
        raise ParameterError(f"plan is missing entries for blocks {missing}")
    states = [_init_state(i, b, plan, cache.blocks[i]) for i, b in enumerate(model.blocks)]
    jobs = list(zip(states, make_rng(cfg.seed).spawn(len(states))))

    def solve(job):
        state, rng = job
        try:
            return solve_block(state, cache.blocks[state.layer], cfg, cache.n_samples, cache.seq_len, rng)
        except Exception as exc:  # returned, so every block finishes before one raises
            return exc

    with _worker_pool(jobs, threads) as run:
        results = run(solve)
    failures = [
        (state.iteration, state.layer, result)
        for state, result in zip(states, results)
        if isinstance(result, Exception)
    ]
    if failures:
        raise min(failures, key=lambda f: f[:2])[2]
    trace = []
    initial_post_prune_loss = 0.0
    for rows, initial_loss in results:
        trace.extend(rows)
        initial_post_prune_loss += initial_loss
    trace.sort(key=lambda row: row[:2])
    pruned = _masked_model(model, states)
    final_loss = float(sum(obj for t, _, _, obj in trace if t == cfg.outer_iters))
    masks = {s.layer: dict(s.masks) for s in states}
    return AdmmResult(pruned, trace, initial_post_prune_loss, final_loss, masks)


def _masked_model(model: ToyModel, states: list[BlockState]) -> ToyModel:
    out = model.copy()
    for state in states:
        for name in state.w_hat:
            setattr(out.blocks[state.layer], name, state.effective(name))
    return out


def export_trace_csv(trace: list[tuple[int, int, str, float]]) -> str:
    return csv_text(["iteration", "layer", "block_kind", "objective"], trace)
