"""Unit- and layer-level importance criteria.

The activation-aware score `wanda_unit` averages the l1 norm of
weight-times-input products per calibration sample. `unit_scores` is
the one dispatch of row-unit criteria (the solver's closed-form
objective decrease, wanda, magnitude, gradient sensitivity, learnable
gates) for both one-shot masks and the alternating solver; the
attention/MLP split with geometric depth decay follows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError
from .linalg import frobenius
from .model import (COL, DEFAULT_AXES, FFN, MASK_BEARING, MATRIX_IO, ROW, ROW_BLOCK, ActivationCache,
                    BlockActivations, MhaBlock, ToyModel, _row_blocks, csv_text)


@dataclass
class LayerImportance:
    layer: int
    block_kind: str
    value: float


def wanda_unit(w: np.ndarray, axis: str, n_samples: int, x_l1: np.ndarray) -> np.ndarray:
    """Per-unit score: sum of |w_ij| * |x_jt| over the non-unit axes,
    divided by the calibration sample count, from x_l1, the input's
    per-feature sum_t |x_jt| (BlockActivations.col_l1 computes it once
    per frozen array)."""
    w = np.asarray(w, dtype=np.float64)
    if w.shape[1] != len(x_l1):
        raise DimensionError(
            f"weight expects {w.shape[1]} input features, activations carry {len(x_l1)}"
        )
    if n_samples < 1:
        raise ParameterError("n_samples must be >= 1")
    abs_w = np.abs(w)
    if axis == ROW:
        scores = abs_w @ x_l1
    elif axis == COL:
        scores = np.sum(abs_w, axis=0) * x_l1
    else:
        raise ParameterError(f"unknown unit axis {axis!r}")
    return scores / float(n_samples)


def magnitude_unit(w: np.ndarray) -> np.ndarray:
    """l1 norm of each row unit's weights."""
    return np.abs(np.asarray(w, dtype=np.float64)).sum(axis=1)


def reconstruction_gradient(
    w_hat: np.ndarray, x_in: np.ndarray, target: np.ndarray, n_samples: int
) -> np.ndarray:
    """Analytic gradient of (1/N) ||w_hat @ x_in - target||_F^2 in w_hat."""
    w_hat = np.asarray(w_hat, dtype=np.float64)
    residual = w_hat @ x_in - target
    return (2.0 / float(n_samples)) * residual @ x_in.T


def l0_gates(
    wx, target, n_samples, rng, steps: int = 200, lam: float = 1e-2, lr: float = 0.05
) -> np.ndarray:
    """Sigmoid gates per row of w, from wx = w @ x_in (the gated product
    is diag(g) @ wx), trained by gradient descent on the reconstruction
    loss against target plus lam * sum(gates). Returns final gate values
    in [0, 1]. Each step sums the gate gradient ROW_BLOCK rows at a time
    (model._row_blocks) in one buffer, so it builds no full-size
    temporary; the bits are those of oracle.l0_gates_reference."""
    if rng is None:
        raise ParameterError("l0 gates need an rng")
    if steps < 1:
        raise ParameterError("steps must be >= 1")
    # Saturated-open start with a tiny jitter so equal units break ties
    # deterministically per seed.
    theta = np.full(wx.shape[0], 4.0) + rng.normal(0.0, 1e-3, size=wx.shape[0])
    inv_n = 1.0 / float(n_samples)
    # wx is C-ordered, as a GEMM makes it, so the plain step's full-size
    # temporaries are too, and each row's sum adds the same elements in
    # the same order.
    buf = np.empty((min(ROW_BLOCK, wx.shape[0]), wx.shape[1]))
    sums = np.empty(wx.shape[0])
    for _ in range(steps):
        g = 1.0 / (1.0 + np.exp(-theta))
        for r in _row_blocks(wx.shape[0]):
            rows = wx[r]
            residual = np.multiply(g[r, None], rows, out=buf[:len(rows)])
            np.subtract(residual, target[r], out=residual)
            np.sum(np.multiply(residual, rows, out=residual), axis=1, out=sums[r])
        grad_g = 2.0 * inv_n * sums + lam
        theta -= lr * grad_g * g * (1.0 - g)
    return 1.0 / (1.0 + np.exp(-theta))


def unit_scores(criterion, w, rec: BlockActivations, name, target, n_samples, rng,
                l0_steps: int = 200) -> np.ndarray:
    """Row-unit scores of w, in the place of block matrix `name`, acting
    on its frozen input x_in in the record rec (MATRIX_IO) under one
    criterion, the one dispatch for one-shot masks and the alternating
    solver; target is the product the rows should reproduce. Each
    criterion reads from rec only what it needs.

    closed-form (the solver's): with c = w @ x_in, the exact per-unit
    decrease of the prune objective ||target - M c||^2 summed over the
    samples, 2 <c_j, target_j> - ||c_j||^2, the tie-aware completion of
    thresholding allocation's ratio score (the same order when the unit
    weights c_j^2 are constant); unlike that score, which is exactly 1
    on an untouched model, it ranks units there too. wanda:
    wanda_unit over rows, from x_in's col_l1 statistic. magnitude: the l1
    norm of each row. snip (gradient sensitivity): per row, sum of
    |dL/dW * W| where L is the quadratic reconstruction loss of w @ x_in
    against target; identically zero when the weights sit at the optimum.
    l0: the gates of l0_gates on w @ x_in, trained for l0_steps steps."""
    x_name = MATRIX_IO[name][0]
    if criterion == "closed-form":
        # c_rows may be the frozen product, so nothing writes into it.
        c_rows = rec.product(name, w)
        gain, norm = np.empty(len(c_rows)), np.empty(len(c_rows))
        for r in _row_blocks(len(c_rows)):
            c = c_rows[r]
            np.sum(np.multiply(c, target[r]), axis=1, out=gain[r])
            np.sum(np.multiply(c, c), axis=1, out=norm[r])
        return 2.0 * gain - norm
    if criterion == "wanda":
        return wanda_unit(w, ROW, n_samples, rec.col_l1(x_name))
    if criterion == "magnitude":
        return magnitude_unit(w)
    if criterion == "snip":
        grad = reconstruction_gradient(w, rec.array(x_name), target, n_samples)
        return np.abs(grad * w).sum(axis=1)
    if criterion == "l0":
        return l0_gates(rec.product(name, w), target, n_samples, rng, steps=l0_steps)
    raise ParameterError(f"unknown criterion {criterion!r}")


# ---------------------------------------------------------------------------
# Layer-level importance
# ---------------------------------------------------------------------------


def _population_var(w: np.ndarray) -> float:
    flat = np.asarray(w, dtype=np.float64).ravel()
    return float(np.mean((flat - flat.mean()) ** 2))


def attention_head_term(w_h: np.ndarray) -> float:
    """l1 + 0.1 * Var + 0.01 * Frobenius of one head's weight matrix."""
    return float(np.abs(w_h).sum()) + 0.1 * _population_var(w_h) + 0.01 * frobenius(w_h)


def mlp_matrix_term(w_m: np.ndarray) -> float:
    return float(np.abs(w_m).sum()) + 0.05 * _population_var(w_m)


def head_matrices(block: MhaBlock) -> list[np.ndarray]:
    """One matrix per head: the head's row slices of wq/wk/wv stacked with
    its wo column slice transposed."""
    out = []
    for sl in block.head_slices():
        out.append(
            np.vstack([block.wq[sl, :], block.wk[sl, :], block.wv[sl, :], block.wo[:, sl].T])
        )
    return out


def module_importance(block, gamma: float, rho: float, layer_one_based: int) -> float:
    """Depth-decayed module importance: attention blocks sum the per-head
    term scaled by rho, MLP blocks sum the fc1/fc2 term. Depth weight is
    gamma**layer with layers counted from 1."""
    if not 0.0 < gamma <= 1.0:
        raise ParameterError("gamma must be in (0, 1]")
    if rho <= 0:
        raise ParameterError("rho must be > 0")
    if layer_one_based < 1:
        raise ParameterError("layer index is 1-based")
    depth = gamma ** layer_one_based
    if block.kind == FFN:
        return depth * (mlp_matrix_term(block.w1) + mlp_matrix_term(block.w2))
    return depth * rho * sum(attention_head_term(w_h) for w_h in head_matrices(block))


def layer_importance(
    model: ToyModel,
    cache: ActivationCache,
    method: str,
    gamma: float = 1.0,
    rho: float = 1.0,
) -> list[LayerImportance]:
    """Per-block importance. "wanda-sum" averages the activation-aware
    unit scores over every matrix of the block; "module-split" applies the
    attention/MLP formulas with depth decay."""
    out: list[LayerImportance] = []
    if method == "wanda-sum":
        for i, block in enumerate(model.blocks):
            rec = cache.blocks[i]
            pooled: list[np.ndarray] = []
            for name, w in block.matrices.items():
                x_l1 = rec.col_l1(MATRIX_IO[name][0])
                pooled.append(wanda_unit(w, DEFAULT_AXES[name], cache.n_samples, x_l1))
            value = float(np.concatenate(pooled).mean())
            out.append(LayerImportance(i, block.kind, value))
        return out
    if method == "module-split":
        for i, block in enumerate(model.blocks):
            value = module_importance(block, gamma, rho, i + 1)
            out.append(LayerImportance(i, block.kind, value))
        return out
    raise ParameterError(f"unknown importance method {method!r}")


def block_unit_scores(
    model: ToyModel,
    cache: ActivationCache,
    block_index: int,
    criterion: str,
    rng: np.random.Generator | None = None,
) -> dict[str, np.ndarray]:
    """unit_scores of every mask-bearing matrix of one block against its
    dense-reference product; wanda reads the input statistic frozen with
    the cache."""
    block, rec = model.blocks[block_index], cache.blocks[block_index]
    scores = {}
    for name in MASK_BEARING[block.kind]:
        target = rec.array(MATRIX_IO[name][1])
        scores[name] = unit_scores(criterion, block.matrices[name], rec, name, target,
                                   cache.n_samples, rng)
    return scores


def export_scores_csv(
    scores: dict[int, dict[str, np.ndarray]], criterion: str, model: ToyModel
) -> str:
    """CSV with columns layer,block_kind,unit_axis,unit_index,criterion,score
    from {block: block_unit_scores(...)}; every unit is a row unit."""
    rows = (
        (i, model.blocks[i].kind, ROW, idx, criterion, score)
        for i, per_matrix in scores.items()
        for s in per_matrix.values()
        for idx, score in enumerate(s)
    )
    return csv_text(["layer", "block_kind", "unit_axis", "unit_index", "criterion", "score"], rows)
