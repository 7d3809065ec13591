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

import logging
from dataclasses import dataclass, field, replace

import numpy as np

from .allocation import SparsityPlan, apply_masks, binarize_by_threshold, round_half_away
from .errors import ParameterError, SingularSystemError, SolverError
from .importance import unit_scores
from .linalg import _left_sum, cho_solve, cholesky, make_rng, relu, ridge_solve, row_softmax
from .model import (DEFAULT_AXES, FFN, MASK_BEARING, MATRIX_IO, ROW, UNIT_OWNER, ActivationCache, BlockActivations,
                    ToyModel, _row_blocks, _worker_pool, csv_text, unit_mask)

log = logging.getLogger(__name__)


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
    and the iterates z, a and a_attn, which start as the block's reference
    arrays (_init_state)."""

    layer: int
    kind: str
    w_hat: dict[str, np.ndarray]
    teacher: dict[str, np.ndarray]
    masks: dict[str, np.ndarray] = field(default_factory=dict)
    budget: dict[str, int] = field(default_factory=dict)
    head_scale: float = 1.0  # MhaBlock.head_scale; unused by an FFN block
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


# ---------------------------------------------------------------------------
# Prune and refit (both block kinds)
# ---------------------------------------------------------------------------


def _refit(w_hat: np.ndarray, bits: np.ndarray, x_in: np.ndarray, target: np.ndarray, eps: float,
           axis: str) -> np.ndarray:
    """Ridge-refit the units of w_hat that bits keeps (rows, or columns
    for axis COL) so its product on x_in reproduces the target; a column
    unit reads its row of x_in, and pruned units keep their values.

    The fit is on the residual, so under-determined directions stay at the
    current weights and an already-optimal matrix is returned unchanged.
    """
    out = w_hat.copy()
    kept = np.flatnonzero(bits)
    if kept.size:
        row_units = axis == ROW
        units = kept if row_units else (slice(None), kept)
        x = x_in if row_units else x_in[kept]
        w = w_hat[units]
        residual = (target[kept] if row_units else target) - w @ x
        sol = ridge_solve(x.T, residual.T, eps)
        out[units] = w + sol.T
    return out


def _prune_step(
    state: BlockState, rec: BlockActivations, cfg: SolverConfig, n_samples: int, rng: np.random.Generator | None
) -> None:
    """Mask each mask-bearing matrix of the block at its planned budget,
    then ridge-refit the units its owner's mask keeps of every matrix onto
    the teacher's product on the matrix's current input: the frozen
    input_pre, or the iterate a (w2, wv) or a_attn (wo). The masks are
    scored on the frozen reference inputs by importance.unit_scores,
    whose l0 gates the solver trains for 100 steps.

    Until the first update (outer iteration 1) every current input is
    the record's own array (_init_state), so the teacher's product is
    the record's (rec.product: the frozen one for the captured dense
    matrix, else the GEMM)."""
    current = {"input_pre": rec.input_pre, "a_pre": state.a, "a_attn_pre": state.a_attn}
    first = state.iteration <= 1
    for name, w in state.w_hat.items():
        x_cur = current[MATRIX_IO[name][0]]
        # From iteration 2 on wq and wk share one recovered teacher, so wk
        # reuses wq's target; nothing writes into a target.
        if not (name == "wk" and state.teacher["wk"] is state.teacher["wq"]):
            teacher = state.teacher[name]
            target = rec.product(name, teacher) if first else teacher @ x_cur
        if name in MASK_BEARING[state.kind]:
            scores = unit_scores(cfg.mask_criterion, w, rec, name, target, n_samples, rng, l0_steps=100)
            state.masks[name] = binarize_by_threshold(scores, state.budget[name])
        state.w_hat[name] = _refit(w, state.masks[UNIT_OWNER[name]], x_cur, target, cfg.ridge_eps,
                                   DEFAULT_AXES[name])


def ffn_prune_step(state, rec, cfg, n_samples, rng) -> None:
    """_prune_step of an FFN block, under a name of its own so that a
    trace times the two block kinds apart."""
    _prune_step(state, rec, cfg, n_samples, rng)


def mha_prune_step(state, rec, cfg, n_samples, rng) -> None:
    """_prune_step of an MHA block; see ffn_prune_step."""
    _prune_step(state, rec, cfg, n_samples, rng)


# ---------------------------------------------------------------------------
# FFN subproblems
# ---------------------------------------------------------------------------


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
    factor = cholesky(gram, f"activation update Gram matrix not positive definite at --beta {beta:g}")
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
    pre-update z take z1, the rest take z2. The blend is built a block of
    rows at a time and written into z1's own (C-ordered) buffer."""
    z = w1_eff @ input_pre
    for r in _row_blocks(z.shape[0]):
        blend = np.multiply(alpha, z[r])
        np.add(np.multiply(beta, a[r]), blend, out=blend)
        np.divide(blend, alpha + beta, out=blend)
        np.copyto(z[r], blend, where=~(z_prev[r] < 0.0))
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
# owned buffer is built a block of rows at a time (model._row_blocks): each
# element, and each row's sum, sees the same operations, and two blocks
# solved at once do not each hold one more ffn_dim x T array.


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


def mha_obj_a(a, resid, z, alpha, beta, head_scale, seg_len) -> float:
    """alpha ||a_attn - Wv a||^2 + beta ||a - softmax(z)||^2, where
    resid = _Residual(a_attn, Wv) is shared with the gradient."""
    r = resid(a)
    phi = row_softmax(z, head_scale, seg_len)
    d = _minus(a, phi)
    soft = _sq_owned(d)
    return alpha * _sq(r, out=_out(d, r)) + beta * soft


def mha_grad_a(a, resid, z, alpha, beta, head_scale, seg_len) -> np.ndarray:
    """-2 alpha Wv'(a_attn - Wv a) + 2 beta (a - softmax(z)); resid as in
    mha_obj_a."""
    r = resid(a)
    phi = row_softmax(z, head_scale, seg_len)
    g = (-2.0 * alpha * resid.w.T) @ r
    d = _minus(a, phi)
    np.multiply(2.0 * beta, d, out=d)
    return np.add(g, d, out=g)


def mha_obj_attn(a_attn, resid, v, alpha) -> float:
    """alpha ||z_next_pre - Wo a_attn||^2 + alpha ||a_attn - v||^2, where
    v = Wv a and resid = _Residual(z_next_pre, Wo) is shared with the
    gradient."""
    r = resid(a_attn)
    e = a_attn - v
    value = _sq_owned(e)
    return alpha * _sq(r, out=_out(e, r)) + alpha * value


def mha_grad_attn(a_attn, resid, v, alpha) -> np.ndarray:
    """-2 alpha Wo'(z_next_pre - Wo a_attn) + 2 alpha (a_attn - v); resid
    and v as in mha_obj_attn."""
    r = resid(a_attn)
    g = (-2.0 * alpha * resid.w.T) @ r
    e = a_attn - v
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
    inner = prod.reshape(z.shape[0], -1, seg_len).sum(axis=2, keepdims=True)
    spread = np.broadcast_to(inner, inner.shape[:2] + (seg_len,))
    if 1 in spread.shape[1:]:
        # One segment, or one token per segment: the plain form's spread
        # of inner is a view, and the difference takes numpy's layout.
        resid = np.subtract(resid, spread.reshape(z.shape))
    else:
        # The plain form subtracts a C-ordered copy of the spread, so the
        # difference is C-ordered, and the segment reshape of a C-ordered
        # resid is a view.
        resid = np.ascontiguousarray(resid)
        segments = resid.reshape(spread.shape)
        np.subtract(segments, inner, out=segments)
    np.multiply(-(2.0 * beta / head_scale), phi, out=phi)
    g = np.multiply(phi, resid, out=_out(phi, phi, resid))
    for pre in (q_pre, k_pre):
        d = np.subtract(z, pre, out=_out(prod, z, pre))
        np.multiply(2.0 * alpha, d, out=d)
        g = np.add(g, d, out=_out(g, g, d))
    return g


def _descend(x0, obj, grad, steps, lr, label, layer, iteration, lipschitz=None):
    """Plain gradient descent with a divergence guard: an objective blow-up
    beyond 10x the entry value aborts with the entry objective and the
    step and value of the blow-up. For a quadratic sub-solve, lipschitz()
    gives the gradient's Lipschitz constant L; it is evaluated only on
    that path, and 1/L is the suggested step size unless L overflows.
    grad must return a fresh array: the step x - lr * grad(x) is written
    into it. At debug level one line logs the objective at entry and at
    exit, both values the descent computes anyway."""
    x = x0
    start = value = obj(x0)
    for step in range(1, steps + 1):
        g = grad(x)
        np.multiply(lr, g, out=g)
        x = np.subtract(x, g, out=_out(g, x, g))
        value = obj(x)
        if not np.isfinite(value) or value > 10.0 * max(start, 1e-30):
            hint = ""
            if lipschitz is not None:
                inv_l = 1.0 / lipschitz()
                hint = (f"; suggested --lr {inv_l:.3g} (1/L)" if 0.0 < inv_l < np.inf
                        else "; the Lipschitz constant L overflows: lower --alpha or --beta")
            raise SolverError(
                f"{label} sub-solve diverged at layer {layer} with --lr {lr:g} "
                f"(objective trace: {start:.6g} at entry, {value:.6g} at step {step} of {steps}){hint}"
            )
    log.debug("layer %d iteration %d %s sub-solve: objective %.6g at entry, %.6g at exit after %d steps",
              layer, iteration, label, start, value, steps)
    return x


def _spectral_sq(w: np.ndarray) -> float:
    return float(np.linalg.norm(w, 2)) ** 2


def mha_update(
    state: BlockState, rec: BlockActivations, cfg: SolverConfig, seg_len: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Three sequential gradient sub-solves: a, then a_attn, then z.
    The query and key branches share the single z iterate. Each sub-solve's
    residual memo, and v, are released when it returns, and q_pre and
    k_pre, read only by the z sub-solve, are formed after the attention
    sub-solve, so the update holds only arrays a later phase reads."""
    wv = state.effective("wv")
    wo = state.effective("wo")
    resid_a = _Residual(state.a_attn, wv)
    a = _descend(
        state.a,
        lambda x: mha_obj_a(x, resid_a, state.z, cfg.alpha, cfg.beta, state.head_scale, seg_len),
        lambda x: mha_grad_a(x, resid_a, state.z, cfg.alpha, cfg.beta, state.head_scale, seg_len),
        cfg.inner_steps,
        cfg.learning_rate,
        "activation",
        state.layer,
        state.iteration,
        lambda: 2.0 * (cfg.alpha * _spectral_sq(wv) + cfg.beta),
    )
    state.a = a
    resid_a = None
    v = wv @ a  # a is fixed in the attention sub-solve
    resid_o = _Residual(rec.out_pre, wo)
    a_attn = _descend(
        state.a_attn,
        lambda x: mha_obj_attn(x, resid_o, v, cfg.alpha),
        lambda x: mha_grad_attn(x, resid_o, v, cfg.alpha),
        cfg.inner_steps,
        cfg.learning_rate,
        "attention-activation",
        state.layer,
        state.iteration,
        lambda: 2.0 * cfg.alpha * (_spectral_sq(wo) + 1.0),
    )
    state.a_attn = a_attn
    v = resid_o = None
    q_pre = state.effective("wq") @ rec.input_pre
    k_pre = state.effective("wk") @ rec.input_pre
    z = _descend(
        state.z,
        lambda x: mha_obj_z(x, a, q_pre, k_pre, cfg.alpha, cfg.beta, state.head_scale, seg_len),
        lambda x: mha_grad_z(x, a, q_pre, k_pre, cfg.alpha, cfg.beta, state.head_scale, seg_len),
        cfg.inner_steps,
        cfg.learning_rate,
        "output",
        state.layer,
        state.iteration,
    )
    state.z = z
    return a, a_attn, z


def mha_objective(
    state: BlockState, rec: BlockActivations, cfg: SolverConfig, n_samples: int, seg_len: int
) -> float:
    q_pre = state.effective("wq") @ rec.input_pre
    k_pre = state.effective("wk") @ rec.input_pre
    total = (
        cfg.alpha * _sq(rec.out_pre - state.effective("wo") @ state.a_attn)
        + cfg.alpha * _sq(state.a_attn - state.effective("wv") @ state.a)
        + cfg.beta * _sq(state.a - row_softmax(state.z, state.head_scale, seg_len))
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
    # matrices and the record's arrays themselves, not copies: a stored
    # array, or a derived one (model.DERIVED) built here, read-only too.
    retention = plan.retention_for(layer)
    state = BlockState(layer, block.kind, dict(block.matrices), dict(block.matrices))
    state.z, state.a, state.a_attn = (rec.array(name) for name in ("z_pre", "a_pre", "a_attn_pre"))
    state.budget = {
        m: round_half_away(retention * block.matrices[m].shape[0]) for m in MASK_BEARING[block.kind]
    }
    if block.kind != FFN:
        state.head_scale = block.head_scale
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
    and its post-prune objective at iteration 1. A lean record releases
    its products once iteration 1's prune step and post-prune objective,
    their last readers, are done; the iterates are released on return,
    so a block holds solver memory only while it is being solved.
    Overflow is caught by the finiteness checks, not warned about
    (np.errstate is per thread)."""
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
                        rec.release_products()
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
                        rec.release_products()
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
    as it would in a sequential sweep over iterations.

    A lean cache (capture_reference_activations under a "lean"
    CapturePolicy) gives the same result: each block's pool job rebuilds
    its record's products for the block's outer iteration 1.

    The call consumes the cache: each block's record is released
    (cache.blocks[layer] = None) when that block's solve ends, also when
    it fails, so solved blocks hold no memory while others are solved. A
    caller that needs the records afterwards passes a shallow copy,
    ActivationCache(list(cache.blocks), cache.n_samples, cache.seq_len)."""
    layers = {e.layer for e in plan.entries}
    missing = [i for i in range(len(model.blocks)) if i not in layers]
    if missing:
        raise ParameterError(f"plan is missing entries for blocks {missing}")
    jobs = list(enumerate(make_rng(cfg.seed).spawn(len(model.blocks))))

    def solve(job):
        # A block's state, and with it its first iterates, is made when
        # the block's solve starts, not for every block up front, after a
        # lean record has rebuilt its products; the record is released
        # when the solve ends.
        layer, rng = job
        rec = cache.blocks[layer]
        rec.rebuild_products()
        state = _init_state(layer, model.blocks[layer], plan, rec)
        try:
            return state, solve_block(state, rec, cfg, cache.n_samples, cache.seq_len, rng)
        except Exception as exc:  # returned, so every block finishes before one raises
            return state, exc
        finally:
            cache.blocks[layer] = None

    with _worker_pool(jobs, threads) as run:
        states, results = zip(*run(solve))
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
    final_loss = _left_sum(obj for t, _, _, obj in trace if t == cfg.outer_iters)
    masks = {s.layer: dict(s.masks) for s in states}
    refit = replace(model, blocks=[replace(model.blocks[s.layer], **s.w_hat) for s in states])
    return AdmmResult(apply_masks(refit, masks), trace, initial_post_prune_loss, final_loss, masks)


def export_trace_csv(trace: list[tuple[int, int, str, float]]) -> str:
    return csv_text(["iteration", "layer", "block_kind", "objective"], trace)
