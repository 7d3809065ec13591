"""Sparsity allocation and structured-mask construction.

Two families of machinery live here. The closed-form side scores units
from the per-unit quadratic context (b, c, d, z_pre) and derives both the
continuous stationary mask and the layer retention. The energy side turns
layer importance into sparsity via the temperature-controlled negative
softmax, with the post-correction and inverse-weighting variants, plus a
temperature grid search scored by reconstruction loss.

Naming convention for the two readings of the allocated quantity: the
closed-form retention rho is mask density (fraction kept); the softmax
allocators produce sparsity s = 1 - rho and prune more where importance is
lower. Plan entries always carry both; mask construction consumes rho.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, fields, replace

import numpy as np

from .errors import ParameterError, SolverError
from .evaluation import total_reconstruction_loss
from .importance import MASK_BEARING, block_unit_scores, layer_importance, unit_mask
from .linalg import softmax_vec
from .model import FFN, MHA, ActivationCache, ToyModel, _worker_pool, csv_text

SPARSITY_CAP = 0.95


def round_half_away(x: float) -> int:
    """round() ties go to even; mask budgets round half away from zero."""
    return int(math.floor(x + 0.5))


# ---------------------------------------------------------------------------
# Closed-form unit scores and retention
# ---------------------------------------------------------------------------


@dataclass
class ClosedFormContext:
    """Per-unit quadratic context. The mask-dependent layer loss is
    sum_j (b_j - M_j c_j)^2 + (z_pre_j - M_j d_j)^2."""

    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    z_pre: np.ndarray

    def __post_init__(self):
        self.b = np.asarray(self.b, dtype=np.float64).ravel()
        self.c = np.asarray(self.c, dtype=np.float64).ravel()
        self.d = np.asarray(self.d, dtype=np.float64).ravel()
        self.z_pre = np.asarray(self.z_pre, dtype=np.float64).ravel()
        n = self.b.size
        if not (self.c.size == self.d.size == self.z_pre.size == n):
            raise ParameterError("context vectors must share one length")
        if n == 0:
            raise ParameterError("context must cover at least one unit")

    @property
    def n_units(self) -> int:
        return self.b.size

    def weights(self) -> np.ndarray:
        return self.c * self.c + self.d * self.d

    def mask_loss(self, mask: np.ndarray) -> float:
        """Exact layer loss of a (possibly fractional) mask."""
        m = np.asarray(mask, dtype=np.float64).ravel()
        return float(
            np.sum((self.b - m * self.c) ** 2) + np.sum((self.z_pre - m * self.d) ** 2)
        )


def closed_form_context(
    model: ToyModel,
    cache: ActivationCache,
    layer: int,
    matrix: str | None = None,
) -> ClosedFormContext:
    """Build the per-unit context for one mask-bearing matrix from model
    state, averaging the bracketed products over calibration tokens. The
    products on the frozen inputs come from the cache when the matrix's
    rows are dense rows or zero (BlockActivations.product_rows).

    The coupling term d needs a downstream matrix acting on this matrix's
    output units; that product only conforms on a square chain, so it is
    live for FFN up-projections when ffn_dim == d and zero otherwise (the
    documented degenerate form, same as a last layer without successor).
    """
    block = model.blocks[layer]
    rec = cache.blocks[layer]
    if matrix is None:
        matrix = MASK_BEARING[block.kind][0]
    if matrix not in MASK_BEARING[block.kind]:
        raise ParameterError(f"matrix {matrix!r} carries no unit mask on a {block.kind} block")
    c = _mean_product(rec, matrix, block.matrices[matrix])
    b = c.copy()  # the teacher is the matrix itself: the same product
    if block.kind == FFN and matrix == "w1" and model.arch.ffn_dim == model.arch.d:
        return ClosedFormContext(b, c, _mean_product(rec, "w2", block.w2), rec.out_pre.mean(axis=1))
    return ClosedFormContext(b, c, np.zeros(b.size), np.zeros(b.size))


def _mean_product(rec, matrix: str, w: np.ndarray) -> np.ndarray:
    """Per-row token mean of w @ x on the frozen input x of `matrix`."""
    prod, zero = rec.product_rows(matrix, w)
    mean = prod.mean(axis=1)
    if zero is not None:
        mean[zero] = 0.0
    return mean


def unit_scores_closed_form(ctx: ClosedFormContext) -> np.ndarray:
    """s_j = (c_j b_j + d_j z_pre_j) / (c_j^2 + d_j^2); units with zero
    weight score 0 (their loss is mask-independent)."""
    v = ctx.weights()
    s = np.zeros(ctx.n_units)
    live = v > 0
    s[live] = (ctx.c[live] * ctx.b[live] + ctx.d[live] * ctx.z_pre[live]) / v[live]
    return s


def closed_form_scores(model: ToyModel, cache: ActivationCache, layer: int) -> dict[str, np.ndarray]:
    """Closed-form unit scores of every mask-bearing matrix of one block;
    a NaN or inf score raises SolverError."""
    scores = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for m in MASK_BEARING[model.blocks[layer].kind]:
            s = scores[m] = unit_scores_closed_form(closed_form_context(model, cache, layer, m))
            if not np.all(np.isfinite(s)):
                raise SolverError(f"closed-form scores of layer {layer} matrix {m} are not finite")
    return scores


def closed_form_retention(scores: np.ndarray) -> float:
    """Mean unit score, clamped to [0, 1] (the multiplier-free derivation
    does not guarantee feasibility)."""
    return min(max(float(np.mean(scores)), 0.0), 1.0)


def binarize_by_threshold(scores, k: int) -> np.ndarray:
    """Bits retaining the k highest-scoring units; ties keep the lower index."""
    s = np.asarray(scores, dtype=np.float64).ravel()
    n = s.size
    if not 0 <= k <= n:
        raise ParameterError(f"retained count {k} outside [0, {n}]")
    bits = np.zeros(n, dtype=bool)
    if k > 0:
        order = np.argsort(-s, kind="stable")
        bits[order[:k]] = True
    return bits


# ---------------------------------------------------------------------------
# Sparsity plans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlanEntry:
    layer: int
    block_kind: str
    importance: float
    temperature: float
    retention: float
    sparsity: float
    allocator: str


@dataclass
class SparsityPlan:
    entries: list[PlanEntry]

    def sparsities(self) -> np.ndarray:
        return np.array([e.sparsity for e in self.entries])

    def retention_for(self, layer: int) -> float:
        for e in self.entries:
            if e.layer == layer:
                return e.retention
        raise ParameterError(f"plan has no entry for layer {layer}")


def _check_target(r_bar: float) -> None:
    if not 0.0 < r_bar < 1.0:
        raise ParameterError(f"global sparsity target must be in (0, 1), got {r_bar}")


def _entry(layer, kind, imp, temp, sparsity, allocator) -> PlanEntry:
    retention = 1.0 - min(max(sparsity, 0.0), 1.0)
    return PlanEntry(layer, kind, float(imp), float(temp), retention, float(sparsity), allocator)


def softmax_allocate(
    importances,
    r_bar: float,
    temperature: float,
    kinds: list[str] | None = None,
) -> SparsityPlan:
    """Raw energy allocation: sparsity_l = r_bar * L * softmax(-I/T).

    The values sum to r_bar * L exactly; individual entries may leave
    [0, 1] and post_correct is responsible for clipping."""
    imps = np.asarray(importances, dtype=np.float64).ravel()
    n_layers = imps.size
    if n_layers == 0:
        raise ParameterError("allocation needs at least one layer")
    _check_target(r_bar)
    weights = softmax_vec(imps, temperature)
    raw = r_bar * n_layers * weights
    if kinds is None:
        kinds = [""] * n_layers
    entries = [
        _entry(i, kinds[i], imps[i], temperature, raw[i], "softmax") for i in range(n_layers)
    ]
    return SparsityPlan(entries)


def post_correct(plan: SparsityPlan, r_bar: float) -> SparsityPlan:
    """Clip to [0, SPARSITY_CAP]; only when no entry exceeded the cap,
    rescale all entries by r_bar / mean and clip once more."""
    if not plan.entries:
        raise ParameterError("plan is empty")
    raw = plan.sparsities()
    clipped = np.clip(raw, 0.0, SPARSITY_CAP)
    cap_hit = bool(np.any(raw > SPARSITY_CAP))
    if not cap_hit:
        mean = clipped.mean()
        if mean == 0.0 and r_bar != 0.0:
            raise ParameterError("cannot rescale a plan with zero mean sparsity")
        rescaled = clipped * (r_bar / mean)
        clipped = np.clip(rescaled, 0.0, SPARSITY_CAP)
    entries = [
        replace(
            e,
            sparsity=float(clipped[i]),
            retention=1.0 - float(clipped[i]),
            allocator=e.allocator + "+post",
        )
        for i, e in enumerate(plan.entries)
    ]
    return SparsityPlan(entries)


def inverse_weight_allocate(
    attn_importances,
    mlp_importances,
    r_bar: float,
    temperature: float,
    attn_layers: list[int] | None = None,
    mlp_layers: list[int] | None = None,
) -> SparsityPlan:
    """Per-family inverse weighting: sparsity_l = clip(r_bar * L_f *
    (1 - w_l) / sum_j (1 - w_j), 0, SPARSITY_CAP) with w the negative softmax of
    the family's importances."""
    _check_target(r_bar)
    entries: list[PlanEntry] = []
    families = [
        (MHA, np.asarray(attn_importances, dtype=np.float64).ravel(), attn_layers),
        (FFN, np.asarray(mlp_importances, dtype=np.float64).ravel(), mlp_layers),
    ]
    for kind, imps, layers in families:
        n_family = imps.size
        if n_family < 2:
            raise ParameterError(
                f"inverse weighting needs >= 2 {kind} layers; the 1-w transform degenerates"
            )
        if layers is None:
            layers = list(range(n_family))
        w = softmax_vec(imps, temperature)
        inv = 1.0 - w
        raw = r_bar * n_family * inv / inv.sum()
        vals = np.clip(raw, 0.0, SPARSITY_CAP)
        for i in range(n_family):
            entries.append(
                _entry(layers[i], kind, imps[i], temperature, vals[i], "inverse-weight")
            )
    entries.sort(key=lambda e: e.layer)
    return SparsityPlan(entries)


def uniform_plan(model: ToyModel, r_bar: float, allocator: str = "uniform") -> SparsityPlan:
    _check_target(r_bar)
    entries = [
        _entry(i, b.kind, 0.0, 0.0, r_bar, allocator) for i, b in enumerate(model.blocks)
    ]
    return SparsityPlan(entries)


def closed_form_plan(model: ToyModel, cache: ActivationCache, r_bar: float) -> SparsityPlan:
    """Retention per block from the closed-form mean score, rescaled so
    mean retention matches 1 - r_bar (the budget constraint), then clipped."""
    _check_target(r_bar)
    imps = [
        float(np.mean([closed_form_retention(s) for s in closed_form_scores(model, cache, i).values()]))
        for i in range(len(model.blocks))
    ]
    rhos = np.asarray(imps)
    target = 1.0 - r_bar
    mean = rhos.mean()
    if mean > 0:
        rhos = np.clip(rhos * (target / mean), 0.0, 1.0)
    else:
        rhos = np.full(len(rhos), target)
    entries = [
        _entry(i, b.kind, imps[i], 0.0, 1.0 - float(rhos[i]), "closed-form")
        for i, b in enumerate(model.blocks)
    ]
    return SparsityPlan(entries)


def allocate_plan(
    model: ToyModel,
    cache: ActivationCache,
    method: str,
    r_bar: float,
    temperature: float = 1.0,
    gamma: float = 1.0,
    rho: float = 1.0,
) -> SparsityPlan:
    """Method-dispatching plan builder used by the CLI and the sweep."""
    kinds = [b.kind for b in model.blocks]
    if method == "softmax":
        imps = [li.value for li in layer_importance(model, cache, "wanda-sum")]
        return post_correct(softmax_allocate(imps, r_bar, temperature, kinds), r_bar)
    if method == "inverse-weight":
        lis = layer_importance(model, cache, "module-split", gamma=gamma, rho=rho)
        attn = [(li.layer, li.value) for li in lis if li.block_kind == MHA]
        mlp = [(li.layer, li.value) for li in lis if li.block_kind == FFN]
        return inverse_weight_allocate(
            [v for _, v in attn],
            [v for _, v in mlp],
            r_bar,
            temperature,
            attn_layers=[l for l, _ in attn],
            mlp_layers=[l for l, _ in mlp],
        )
    if method == "closed-form":
        return closed_form_plan(model, cache, r_bar)
    if method in ("magnitude", "snip", "l0", "wanda-local"):
        return uniform_plan(model, r_bar, allocator=method)
    raise ParameterError(f"unknown allocation method {method!r}")


# ---------------------------------------------------------------------------
# Mask construction and application
# ---------------------------------------------------------------------------

def build_masks(
    model: ToyModel,
    cache: ActivationCache,
    plan: SparsityPlan,
    criterion: str,
    rng: np.random.Generator | None = None,
) -> dict[int, dict[str, np.ndarray]]:
    """Mask bits per mask-bearing matrix per block, each at the block's
    planned retention, from the named unit criterion."""
    masks: dict[int, dict[str, np.ndarray]] = {}
    for i in range(len(model.blocks)):
        retention = plan.retention_for(i)
        masks[i] = {
            m: binarize_by_threshold(s, round_half_away(retention * s.size))
            for m, s in block_unit_scores(model, cache, i, criterion, rng).items()
        }
    return masks


def global_closed_form_masks(
    model: ToyModel, cache: ActivationCache, r_bar: float
) -> tuple[dict[int, dict[str, np.ndarray]], SparsityPlan]:
    """Single global threshold over all closed-form scores with a floored
    budget K = floor(retention * total_units); returns the induced plan.
    Ties keep the unit first in (block, sorted matrix name, unit index)
    order."""
    _check_target(r_bar)
    scores = [closed_form_scores(model, cache, i) for i in range(len(model.blocks))]
    keys = [(i, m) for i, per_matrix in enumerate(scores) for m in sorted(per_matrix)]
    pooled = [scores[i][m] for i, m in keys]
    bits = binarize_by_threshold(
        np.concatenate(pooled), int(math.floor((1.0 - r_bar) * sum(s.size for s in pooled)))
    )
    kept = dict(zip(keys, np.split(bits, np.cumsum([s.size for s in pooled])[:-1])))
    masks = {i: {m: kept[i, m] for m in per_matrix} for i, per_matrix in enumerate(scores)}
    entries = [
        _entry(i, block.kind, 0.0, 0.0, 1.0 - float(np.mean([b.mean() for b in masks[i].values()])),
               "closed-form-global")
        for i, block in enumerate(model.blocks)
    ]
    return masks, SparsityPlan(entries)


def apply_masks(model: ToyModel, masks: dict[int, dict[str, np.ndarray]]) -> ToyModel:
    """Multiplicative structured zeroing of every matrix by its owner's
    mask (importance.UNIT_OWNER), in place on the copy."""
    pruned = model.copy()
    for i, per_matrix in masks.items():
        for name, w in pruned.blocks[i].matrices.items():
            w *= unit_mask(name, per_matrix)
    return pruned


# ---------------------------------------------------------------------------
# Temperature sweep
# ---------------------------------------------------------------------------


def importance_scale(importances) -> float:
    """Mean absolute layer importance; 1.0 when every importance is 0."""
    scale = float(np.mean(np.abs(np.asarray(importances, dtype=np.float64))))
    return scale if scale > 0 else 1.0


def default_temperature_grid(importances) -> list[float]:
    """{0.25, 0.5, 1, 2, 4} scaled by the mean absolute importance."""
    scale = importance_scale(importances)
    return [scale * f for f in (0.25, 0.5, 1.0, 2.0, 4.0)]


def temperature_sweep(
    model: ToyModel,
    cache: ActivationCache,
    grid,
    allocator: str,
    r_bar: float,
    gamma: float = 1.0,
    rho: float = 1.0,
    alpha: float = 1.0,
    threads: int = 1,
) -> tuple[float, SparsityPlan, list[tuple[float, float]]]:
    """Evaluate every temperature on a pool of `threads` workers: allocate,
    mask by wanda scores, measure the total reconstruction loss of the
    masked model. Returns the argmin temperature (ties to the smallest),
    its plan, and the loss table."""
    grid = [float(t) for t in grid]
    if not grid:
        raise ParameterError("temperature grid is empty")

    def evaluate(temp: float) -> tuple[float, SparsityPlan]:
        plan = allocate_plan(model, cache, allocator, r_bar, temp, gamma, rho)
        masks = build_masks(model, cache, plan, "wanda")
        pruned = apply_masks(model, masks)
        loss = total_reconstruction_loss(pruned, cache, alpha=alpha).total
        return loss, plan

    with _worker_pool(grid, threads) as run:
        results = [(temp, loss, plan) for temp, (loss, plan) in zip(grid, run(evaluate))]
    best_temp, _, best_plan = min(results, key=lambda r: (r[1], r[0]))
    table = [(temp, loss) for temp, loss, _ in results]
    return best_temp, best_plan, table


# ---------------------------------------------------------------------------
# CSV exports
# ---------------------------------------------------------------------------


def export_plan_csv(plan: SparsityPlan) -> str:
    return csv_text([f.name for f in fields(PlanEntry)], map(astuple, plan.entries))


def export_sweep_csv(table: list[tuple[float, float]]) -> str:
    return csv_text(["temperature", "total_loss"], table)
