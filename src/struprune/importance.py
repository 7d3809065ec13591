"""Unit- and layer-level importance criteria.

The activation-aware score `wanda_unit` averages the l1 norm of
weight-times-input products per calibration sample. `UNIT_CRITERIA` is
the one registry of row-unit criteria (wanda, magnitude, gradient
sensitivity, learnable gates) for both one-shot masks and the
alternating solver; the attention/MLP split with geometric depth decay
follows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DimensionError, ParameterError
from .linalg import frobenius
from .model import FFN, MATRIX_IO, MHA, ActivationCache, FfnBlock, MhaBlock, ToyModel, csv_text

ROW = "row"
COL = "col"

# Axis of each matrix's structured units.
DEFAULT_AXES = {"w1": ROW, "w2": COL, "wq": ROW, "wk": ROW, "wv": ROW, "wo": COL}

# Matrices whose unit masks are chosen directly.
MASK_BEARING = {FFN: ("w1",), MHA: ("wq", "wk", "wv")}

# The mask-bearing matrix whose mask zeroes each matrix's units: removing
# an FFN hidden unit removes a w1 row and the matching w2 column, and
# removing an attention channel's wv row removes the matching wo column.
UNIT_OWNER = {"w1": "w1", "w2": "w1", "wq": "wq", "wk": "wk", "wv": "wv", "wo": "wv"}


def unit_mask(name: str, masks: dict) -> np.ndarray:
    """The 0/1 factor that zeroes the pruned units of matrix `name`, from
    its owner's bits in `masks` (matrix name -> bool array): a column for
    a row-unit matrix, a row for w2/wo."""
    bits = masks[UNIT_OWNER[name]].astype(np.float64)
    return bits[:, None] if DEFAULT_AXES[name] == ROW else bits[None, :]


@dataclass
class LayerImportance:
    layer: int
    block_kind: str
    value: float


def _validate_inputs(w: np.ndarray, x_in: np.ndarray):
    if x_in.ndim != 2 or x_in.shape[1] < 1:
        raise ParameterError("calibration activations must be a nonempty (d_in, tokens) matrix")
    if w.shape[1] != x_in.shape[0]:
        raise DimensionError(
            f"weight expects {w.shape[1]} input features, activations carry {x_in.shape[0]}"
        )


def wanda_unit(
    w: np.ndarray, x_in: np.ndarray, axis: str, n_samples: int, x_l1: np.ndarray | None = None
) -> np.ndarray:
    """Per-unit score: sum of |w_ij| * |x_jt| over the non-unit axes,
    divided by the calibration sample count. x_l1, when given, is x_in's
    per-feature sum_t |x_jt| (BlockActivations.col_l1)."""
    w = np.asarray(w, dtype=np.float64)
    x_in = np.asarray(x_in, dtype=np.float64)
    _validate_inputs(w, x_in)
    if n_samples < 1:
        raise ParameterError("n_samples must be >= 1")
    abs_w = np.abs(w)
    # sum_t |x_jt| per feature j
    abs_x_rowsum = np.sum(np.abs(x_in), axis=1) if x_l1 is None else x_l1
    if axis == ROW:
        scores = abs_w @ abs_x_rowsum
    elif axis == COL:
        scores = np.sum(abs_w, axis=0) * abs_x_rowsum
    else:
        raise ParameterError(f"unknown unit axis {axis!r}")
    return scores / float(n_samples)


def magnitude_unit(w: np.ndarray, axis: str) -> np.ndarray:
    """l1 norm of each structured unit's weights."""
    abs_w = np.abs(np.asarray(w, dtype=np.float64))
    if axis == ROW:
        return abs_w.sum(axis=1)
    if axis == COL:
        return abs_w.sum(axis=0)
    raise ParameterError(f"unknown unit axis {axis!r}")


def reconstruction_gradient(
    w_hat: np.ndarray, x_in: np.ndarray, target: np.ndarray, n_samples: int
) -> np.ndarray:
    """Analytic gradient of (1/N) ||w_hat @ x_in - target||_F^2 in w_hat."""
    w_hat = np.asarray(w_hat, dtype=np.float64)
    residual = w_hat @ x_in - target
    return (2.0 / float(n_samples)) * residual @ x_in.T


# ---------------------------------------------------------------------------
# Row-unit criteria: criterion(w, x_in, target, n_samples, rng) -> scores
# ---------------------------------------------------------------------------


def wanda_rows(w, x_in, target, n_samples, rng=None, x_l1=None) -> np.ndarray:
    return wanda_unit(w, x_in, ROW, n_samples, x_l1)


def magnitude_rows(w, x_in, target, n_samples, rng=None) -> np.ndarray:
    return magnitude_unit(w, ROW)


def snip_rows(w, x_in, target, n_samples, rng=None) -> np.ndarray:
    """Gradient sensitivity: per row, sum of |dL/dW * W| where L is the
    quadratic reconstruction loss of w @ x_in against target. Identically
    zero when the weights sit at the optimum."""
    grad = reconstruction_gradient(w, x_in, target, n_samples)
    return np.abs(grad * w).sum(axis=1)


def l0_gates(
    w, x_in, target, n_samples, rng, steps: int = 200, lam: float = 1e-2, lr: float = 0.05
) -> np.ndarray:
    """Sigmoid gates per row trained by gradient descent on the
    reconstruction loss plus lam * sum(gates). Returns final gate values
    in [0, 1]."""
    if rng is None:
        raise ParameterError("l0 gates need an rng")
    if steps < 1:
        raise ParameterError("steps must be >= 1")
    wx = w @ x_in  # gated product is diag(g) @ wx
    # Saturated-open start with a tiny jitter so equal units break ties
    # deterministically per seed.
    theta = np.full(w.shape[0], 4.0) + rng.normal(0.0, 1e-3, size=w.shape[0])
    inv_n = 1.0 / float(n_samples)
    for _ in range(steps):
        g = 1.0 / (1.0 + np.exp(-theta))
        residual = g[:, None] * wx - target
        grad_g = 2.0 * inv_n * np.sum(residual * wx, axis=1) + lam
        theta -= lr * grad_g * g * (1.0 - g)
    return 1.0 / (1.0 + np.exp(-theta))


UNIT_CRITERIA = {"wanda": wanda_rows, "magnitude": magnitude_rows, "snip": snip_rows, "l0": l0_gates}


def _score_matrix(
    model: ToyModel, cache: ActivationCache, block_index: int, matrix: str,
    criterion: str, rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Row-unit scores of one mask-bearing matrix against its
    dense-reference product."""
    rec = cache.blocks[block_index]
    x_in, target = (getattr(rec, name) for name in MATRIX_IO[matrix])
    score = UNIT_CRITERIA[criterion]
    if criterion == "wanda":  # the input statistic is frozen with the cache
        score = partial(score, x_l1=rec.col_l1(MATRIX_IO[matrix][0]))
    return score(model.blocks[block_index].matrices[matrix], x_in, target, cache.n_samples, rng)


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
    if isinstance(block, MhaBlock):
        return depth * rho * sum(attention_head_term(w_h) for w_h in head_matrices(block))
    if isinstance(block, FfnBlock):
        return depth * (mlp_matrix_term(block.w1) + mlp_matrix_term(block.w2))
    raise ParameterError(f"unknown block type {type(block).__name__}")


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
                x_name = MATRIX_IO[name][0]
                pooled.append(wanda_unit(w, getattr(rec, x_name), DEFAULT_AXES[name],
                                         cache.n_samples, rec.col_l1(x_name)))
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
    """Row-unit scores for every mask-bearing matrix of one block under the
    named criterion (wanda | magnitude | snip | l0)."""
    if criterion not in UNIT_CRITERIA:
        raise ParameterError(f"unknown criterion {criterion!r}")
    return {
        name: _score_matrix(model, cache, block_index, name, criterion, rng)
        for name in MASK_BEARING[model.blocks[block_index].kind]
    }


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
