"""Outcome measurement: reconstruction loss, toy-scale pseudo-perplexity,
the analytic parameter/memory tables, and report emission.

The memory table reproduces the reference figures exactly at their printed
precision: parameters per layer are total/L rounded half-even to one
decimal in millions, and FP16 megabytes per layer are exactly twice that
printed value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapabilityError, DimensionError, ParameterError
from .importance import MASK_BEARING
from .model import (
    MATRIX_IO,
    ActivationCache,
    CalibrationSet,
    FfnBlock,
    ToyModel,
    _dense_forward,
    _token_tiles,
    _worker_pool,
    calibration_input,
    csv_text,
    json_text,
)


@dataclass
class LossReport:
    per_layer: list[tuple[int, str, float]]
    total: float


def total_reconstruction_loss(
    model_pruned: ToyModel, cache: ActivationCache, alpha: float = 1.0, threads: int = 1
) -> LossReport:
    """Layer reconstruction loss against the frozen dense reference held
    in the activation cache, normalized by the calibration sample count.

    Per FFN block: alpha * (||dense down product - pruned down product||^2
    + ||dense up product - pruned up product||^2) on the reference
    activations. MHA blocks compare the output projection, the value
    projection, and the shared query/key consensus. Zero iff the pruned
    weights act identically to the dense ones on the calibration support.

    The per-block losses are computed on a pool of `threads` workers and
    summed in block order. The row-unit products (w1, wq, wk, wv) are read
    from the cache when each pruned row is the dense row or zero
    (BlockActivations.product_rows); the column-masked w2 and wo products
    are GEMMs. Temporaries are written in place into arrays this function
    owns, with the bits of the plain expressions
    (oracle.total_reconstruction_loss_reference).
    """
    if [b.kind for b in model_pruned.blocks] != [rec.kind for rec in cache.blocks]:
        raise ParameterError("pruned model and activation cache disagree on block layout")
    pairs = list(zip(model_pruned.blocks, cache.blocks))
    for i, (pb, rec) in enumerate(pairs):
        _check_shapes(i, pb, rec)
    scale = alpha * (1.0 / float(cache.n_samples))
    with _worker_pool(pairs, threads) as run:
        losses = run(lambda pair: scale * _block_loss(*pair))
    per_layer = [(i, pb.kind, loss) for i, (pb, loss) in enumerate(zip(model_pruned.blocks, losses))]
    return LossReport(per_layer, float(sum(l for _, _, l in per_layer)))


def _block_loss(pb, rec) -> float:
    """The unscaled sum of a block's squared residual terms."""
    if isinstance(pb, FfnBlock):
        up = _sq_residual(rec.z_pre, *rec.product_rows("w1", pb.w1))
        down = _sq_residual(rec.out_pre, pb.w2 @ rec.a_pre)
        return up + down
    q, zq = rec.product_rows("wq", pb.wq)
    k, zk = rec.product_rows("wk", pb.wk)
    # Rows where q or k reads as zero are summed from their masked rows
    # before the full sum may overwrite an owned q or k.
    fix = zq if zk is None else (zk if zq is None else zq | zk)
    fixed = None if fix is None else _masked_rows(q, zq, fix) + _masked_rows(k, zk, fix)
    cons_pruned = np.add(q, k, out=_owned(q, k))
    if fixed is not None:
        cons_pruned[fix] = fixed
    np.multiply(0.5, cons_pruned, out=cons_pruned)
    qk = _sq_residual(rec.z_pre, cons_pruned)
    val = _sq_residual(rec.a_attn_pre, *rec.product_rows("wv", pb.wv))
    out = _sq_residual(rec.out_pre, pb.wo @ rec.a_attn_pre)
    return qk + val + out


def _check_shapes(layer: int, block, rec) -> None:
    """Each pruned matrix has the shape of the dense matrix whose frozen
    product it is compared against."""
    for name, w in block.matrices.items():
        x_name, prod_name = MATRIX_IO[name]
        want = (getattr(rec, prod_name).shape[0], getattr(rec, x_name).shape[0])
        if w.shape != want:
            raise DimensionError(
                f"layer {layer} {block.kind} matrix {name}: pruned model has shape "
                f"{w.shape}, dense reference has {want}"
            )


def _owned(*arrays: np.ndarray) -> np.ndarray | None:
    """The first array this function may write into: product results are
    fresh, the frozen products read-only."""
    return next((a for a in arrays if a.flags.writeable), None)


def _masked_rows(prod: np.ndarray, zero: np.ndarray | None, rows: np.ndarray) -> np.ndarray:
    """prod[rows] with the rows flagged in `zero` read as +0.0."""
    sub = prod[rows]
    if zero is not None:
        sub[zero[rows]] = 0.0
    return sub


def _sq_residual(target: np.ndarray, prod: np.ndarray, zero: np.ndarray | None = None) -> float:
    """sum((target - prod)^2) with the rows flagged in `zero` of prod read
    as +0.0; the temporaries are written into prod when it is owned."""
    resid = np.subtract(target, prod, out=_owned(prod))
    if zero is not None:
        resid[zero] = target[zero]  # target - (+0.0) is target
    return float(np.sum(np.multiply(resid, resid, out=resid)))


def pseudo_perplexity(model: ToyModel, calib: CalibrationSet, threads: int = 1) -> float:
    """exp of the mean next-token cross-entropy through the linear vocab
    head. Equals the vocab size for a uniform-output model and is
    invariant to adding a constant to all logits. The forward and the
    head run over token tiles on a pool of `threads` workers, with the
    same bits for every `threads`."""
    if model.head is None or model.embed is None:
        raise CapabilityError("pseudo-perplexity needs a model with a vocab head")
    if not calib.is_tokens:
        raise CapabilityError("pseudo-perplexity needs token calibration data")
    if calib.seq_len < 2:
        raise ParameterError("token sequences must have length >= 2 for next-token loss")
    x = calibration_input(model, calib)
    with _worker_pool(_token_tiles(x.shape[1]), threads) as run:
        for rec in _dense_forward(model.blocks, x, calib.seq_len, run):
            x = rec.out_pre
        rec = None  # release the last block's other arrays
        logits = np.empty((model.head.shape[0], x.shape[1]))  # (vocab, tokens)
        run(lambda t: np.matmul(model.head, x[:, t], out=logits[:, t]))
    # Every position but the last of each sample predicts the next token.
    n, seq = calib.n_samples, calib.seq_len
    cols = (np.arange(n)[:, None] * seq + np.arange(seq - 1)).ravel()
    targets = calib.tokens[:, 1:].ravel()
    np.subtract(logits, logits.max(axis=0, keepdims=True), out=logits)
    picked = logits[targets, cols]
    logz = np.log(np.sum(np.exp(logits, out=logits), axis=0))
    # cumsum adds left to right, in the order of a sample-major loop.
    vals = logz[cols] - picked
    return float(math.exp(np.cumsum(vals)[-1] / vals.size))


def achieved_sparsity(model: ToyModel) -> list[tuple[int, str, float]]:
    """Fraction of structured units whose weights are exactly zero,
    averaged over the block's mask-bearing matrices."""
    out = []
    for i, block in enumerate(model.blocks):
        fracs = [
            float(np.mean(~np.any(block.matrices[m] != 0.0, axis=1)))
            for m in MASK_BEARING[block.kind]
        ]
        out.append((i, block.kind, float(np.mean(fracs))))
    return out


# ---------------------------------------------------------------------------
# Analytic parameter / memory model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MemoryConfig:
    name: str
    total_params: float
    num_layers: int
    hidden_dim: int
    total_display: str = ""


@dataclass(frozen=True)
class MemoryRow:
    name: str
    total_display: str
    num_layers: int
    params_per_layer_m: float
    mem_per_layer_mb: float
    ffn_params: int
    mha_params: int
    ratio: float


# Published OPT family figures used as the reference fixture.
OPT_CONFIGS = [
    MemoryConfig("OPT-125M", 0.125e9, 12, 768, "0.125B"),
    MemoryConfig("OPT-350M", 0.350e9, 24, 1024, "0.350B"),
    MemoryConfig("OPT-1.3B", 1.3e9, 24, 2048, "1.3B"),
    MemoryConfig("OPT-2.7B", 2.7e9, 32, 2560, "2.7B"),
    MemoryConfig("OPT-6.7B", 6.7e9, 32, 4096, "6.7B"),
    MemoryConfig("OPT-13B", 13e9, 40, 5120, "13B"),
    MemoryConfig("OPT-30B", 30e9, 48, 7168, "30B"),
    MemoryConfig("OPT-66B", 66e9, 64, 9216, "66B"),
]


def memory_report() -> list[MemoryRow]:
    rows = []
    for cfg in OPT_CONFIGS:
        params_m = round(cfg.total_params / cfg.num_layers / 1e6, 1)
        mem_mb = round(params_m * 2.0, 1)  # FP16: two bytes per parameter
        ffn = 8 * cfg.hidden_dim * cfg.hidden_dim
        mha = 4 * cfg.hidden_dim * cfg.hidden_dim
        rows.append(
            MemoryRow(
                cfg.name,
                cfg.total_display or f"{cfg.total_params / 1e9:g}B",
                cfg.num_layers,
                params_m,
                mem_mb,
                ffn,
                mha,
                ffn / mha,
            )
        )
    return rows


def export_memory_csv(rows: list[MemoryRow]) -> str:
    return csv_text(
        ["Model", "Tot. Params", "#Layers", "Params/L (M)", "Mem/L (MB)"],
        ((r.name, r.total_display, r.num_layers, f"{r.params_per_layer_m:.1f}",
          f"{r.mem_per_layer_mb:.1f}") for r in rows),
    )


def export_module_split_csv(rows: list[MemoryRow]) -> str:
    return csv_text(
        ["Model", "Hidden Size d", "FFN Params (8d^2)", "MHA Params (4d^2)", "FFN:MHA Ratio"],
        ((r.name, f"{int(round(math.sqrt(r.ffn_params / 8))):,}", f"{r.ffn_params:,}",
          f"{r.mha_params:,}", f"{r.ratio:.2f}") for r in rows),
    )


# ---------------------------------------------------------------------------
# Evaluation report
# ---------------------------------------------------------------------------


@dataclass
class EvalReport:
    per_layer_loss: list[tuple[int, str, float]]
    total_loss: float
    sparsity_per_layer: list[tuple[int, str, float]]
    pseudo_perplexity: float | None = None
    config: dict = field(default_factory=dict)
    wall_time_s: float | None = None

    def to_json(self) -> str:
        """Deterministic serialization; wall time is volatile and stays
        out of the artifact."""
        payload = {
            "per_layer_loss": [
                {"layer": l, "block_kind": k, "loss": v} for l, k, v in self.per_layer_loss
            ],
            "total_loss": self.total_loss,
            "sparsity_per_layer": [
                {"layer": l, "block_kind": k, "sparsity": v}
                for l, k, v in self.sparsity_per_layer
            ],
            "pseudo_perplexity": self.pseudo_perplexity,
            "config": self.config,
        }
        return json_text(payload)
