"""Outcome measurement: reconstruction loss, toy-scale pseudo-perplexity,
the analytic parameter/memory tables, and report emission.

The memory table reproduces the reference figures exactly at their printed
precision: parameters per layer are total/L rounded half-even to one
decimal in millions, and FP16 megabytes per layer are exactly twice that
printed value.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import CapabilityError, DimensionError, ParameterError
from .model import (
    DERIVED,
    FFN,
    LOSS_TERMS,
    MASK_BEARING,
    TILE_TOKENS,
    ActivationCache,
    CalibrationSet,
    ToyModel,
    _consensus,
    _dense_forward,
    _pairwise_node,
    _pairwise_sum,
    _row_pairwise_sum,
    _tiled_product,
    _token_tiles,
    _whole_row_tree,
    _worker_pool,
    calibration_input,
    csv_text,
    json_text,
)


@dataclass
class LossReport:
    per_layer: list[tuple[int, str, float]]
    total: float
    # Each block's unscaled squared residual sums, named by LOSS_TERMS.
    terms: list[tuple[float, ...]] = field(default_factory=list)


def total_reconstruction_loss(
    model_pruned: ToyModel, cache: ActivationCache, alpha: float = 1.0, threads: int = 1
) -> LossReport:
    """Layer reconstruction loss against the frozen dense reference held
    in the activation cache, normalized by the calibration sample count.

    Per FFN block: alpha * (||dense up product - pruned up product||^2
    + ||dense down product - pruned down product||^2) on the reference
    activations. MHA blocks compare the shared query/key consensus, the
    value projection and the output projection. Zero iff the pruned
    weights act identically to the dense ones on the calibration support.

    The per-block losses are computed on a pool of `threads` workers,
    the FFN blocks handed to it first, and summed in block order, each
    with the bits of np.sum of the plain expressions
    (oracle.total_reconstruction_loss_reference). The row-unit terms
    (up, qk, val) of a masked model, whose pruned rows are zero and the
    others dense, are summed from one statistic per row (_term), when
    numpy's pairwise tree over the residual splits no row. Every other
    term (_sq_term) reads its products from the cache when each pruned
    row is the dense row or zero (BlockActivations.frozen_rows), else
    forms them by GEMM (the column-masked w2 and wo, w2's over relu
    sub-tiles, and refit rows), a token tile at a time when that tree
    splits no row. No residual is built whole: each squared residual is
    summed a tile or a leaf of numpy's pairwise tree at a time
    (model._pairwise_sum), the MHA consensus target derived there.
    """
    if [b.kind for b in model_pruned.blocks] != [rec.kind for rec in cache.blocks]:
        raise ParameterError("pruned model and activation cache disagree on block layout")
    pairs = list(zip(model_pruned.blocks, cache.blocks))
    for i, (pb, rec) in enumerate(pairs):
        _check_shapes(i, pb, rec)
    scale = alpha * (1.0 / float(cache.n_samples))
    # The costliest jobs go first: an FFN block's w2 term is the
    # ffn_dim-deep GEMM, so the pool's tail is the shorter MHA jobs. A
    # failing block raises in this order, FFN blocks before MHA blocks.
    order = sorted(range(len(pairs)), key=lambda i: pairs[i][0].kind != FFN)
    with _worker_pool(order, threads) as run:
        done = dict(zip(order, run(lambda i: _block_terms(*pairs[i]))))
    terms = [done[i] for i in range(len(pairs))]
    # The terms are added left to right, (qk + val) + out: sum() of floats
    # compensates its rounding on Python 3.12 and would change the bits.
    per_layer = [
        (i, pb.kind, scale * functools.reduce(operator.add, t))
        for i, (pb, t) in enumerate(zip(model_pruned.blocks, terms))
    ]
    return LossReport(per_layer, float(sum(l for _, _, l in per_layer)), terms)


def _block_terms(pb, rec) -> tuple[float, ...]:
    """The unscaled sums of a block's squared residuals, one per term of
    LOSS_TERMS[kind], in its order."""
    return tuple(_term(pb, rec, term) for term in LOSS_TERMS[rec.kind])


def _term(pb, rec, term: str) -> float:
    """The loss term `term` (model.LOSS_TERMS) of pruned block pb. A
    row-unit term (of mask-bearing matrices) is read from the record's
    row energies when every row of each of its matrices is its dense row
    or zero (BlockActivations.masked_rows) and the energies give the term
    bit for bit (row_energies): numpy's pairwise tree summed over one
    value per row (model._row_pairwise_sum). Any other term is the sum of
    its residual (_sq_term)."""
    target, matrices = LOSS_TERMS[rec.kind][term]
    if matrices[0] in MASK_BEARING[rec.kind]:
        zeros = [rec.masked_rows(m, pb.matrices[m]) for m in matrices]
        energies = None if any(z is None for z in zeros) else rec.row_energies(term)
        if energies is not None:
            # Pattern c of a row has bit i set when matrix i zeroes it; row
            # c - 1 of energies holds it, and a kept row (pattern 0) adds +0.0.
            pattern = sum(z.astype(np.intp) << i for i, z in enumerate(zeros))
            values = np.where(pattern > 0, energies[pattern - 1, np.arange(pattern.size)], 0.0)
            return _row_pairwise_sum(values, rec.tokens)
    return _sq_term(rec, target, *((m, pb.matrices[m]) for m in matrices))


def _sq_term(rec, target: str, *matrices) -> float:
    """sum((target - p)^2) for the record's array `target` and p = w @ x
    for the one (matrix, w) pair given, or the consensus 0.5 * (p1 + p2)
    of two, x the frozen input of each matrix (MATRIX_IO): the bits of
    np.sum of the plain expression.

    A target the record does not hold (a "loss" MHA record's out_pre,
    model.LOSS_HELD) is the dense product of the term's one matrix,
    formed again by the GEMM on its input (BlockActivations._gemm), with
    capture's bits: a tile at a time where the products are, else whole.

    When the record must form some product by GEMM (frozen_rows is None),
    T % 8 == 0 and numpy's pairwise tree over the residual splits no row
    (_whole_row_tree), each row's sum is taken a token tile at a time
    (_tile_sums), so no product is whole. Otherwise the products are
    read or formed whole and the residual summed a leaf at a time
    (_sq_residual)."""
    frozen = [rec.frozen_rows(m, w) for m, w in matrices]
    rows, cols = rec.dense[matrices[0][0]].shape[0], rec.tokens
    if all(frozen) or cols % 8 or not _whole_row_tree(rows, cols):
        products = [f or (rec._gemm(m, w), None) for f, (m, w) in zip(frozen, matrices)]
        if target in DERIVED[rec.kind]:
            return _sq_residual(_flat_reader(rec, target), *products)
        return _sq_residual(_target_columns(rec, target, matrices[0][0], slice(None)), *products)
    row_sums = _pairwise_node(0, cols, TILE_TOKENS, lambda lo, hi: _tile_sums(
        rec, target, frozen, matrices, slice(lo, hi)))
    return _row_pairwise_sum(row_sums, cols)


def _target_columns(rec, target: str, matrix: str, t: slice) -> np.ndarray:
    """The token columns t of the record's stored array `target`, the
    dense product of `matrix`: a view of it, or, when the record does not
    hold it, the GEMM that formed it in capture."""
    held = getattr(rec, target)
    return rec._gemm(matrix, rec.dense[matrix], t) if held is None else held[:, t]


def _tile_sums(rec, target: str, frozen, matrices, t: slice) -> np.ndarray:
    """The per-row sums of _sq_term's squared residual over the token
    columns t, a node of numpy's pairwise tree over one row of at most
    TILE_TOKENS tokens: np.sum(axis=1) of the tile, which is each row's
    np.sum of it. A product the record holds is copied from the tile of
    its frozen array, its zero rows set to +0.0; any other is the GEMM
    over the tile (BlockActivations._gemm), whose bits are those of the
    same columns of the whole GEMM at T % 8 == 0 (model.TILE_TOKENS)."""
    prods = []
    for f, (m, w) in zip(frozen, matrices):
        if f is None:
            prods.append(rec._gemm(m, w, t))
            continue
        prod = np.array(f[0][:, t])
        if f[1] is not None:
            prod[f[1]] = 0.0
        prods.append(prod)
    p = prods[0] if len(prods) == 1 else _consensus(*prods, out=prods[0])
    if target in DERIVED[rec.kind]:
        np.subtract(rec.derive(target, lambda a: a[:, t]), p, out=p)
    else:
        np.subtract(_target_columns(rec, target, matrices[0][0], t), p, out=p)
    return np.sum(np.multiply(p, p, out=p), axis=1)


def _flat_reader(rec, name: str):
    """read(lo, hi, out): the flat range [lo, hi) of rec's derived array
    `name`, derived into out from the same ranges of its sources."""
    return lambda lo, hi, out: rec.derive(name, lambda a: a.reshape(-1)[lo:hi], out)


def _check_shapes(layer: int, block, rec) -> None:
    """Each pruned matrix has the shape of the dense matrix the record
    captured."""
    for name, w in block.matrices.items():
        want = rec.dense[name].shape
        if w.shape != want:
            raise DimensionError(
                f"layer {layer} {block.kind} matrix {name}: pruned model has shape "
                f"{w.shape}, dense reference has {want}"
            )


def _sq_residual(target, *products) -> float:
    """sum((target - p)^2) over C-contiguous operands (as capture and
    GEMMs make them), where p is the one product given or the consensus
    0.5 * (p1 + p2) of two. Each product is an (array, zero) pair, as
    BlockActivations.frozen_rows gives it, whose rows flagged in zero
    read as +0.0. The target is an array, or a derived array given as a
    function read(lo, hi, out) that writes its flat range [lo, hi) into
    out."""
    derived = not isinstance(target, np.ndarray)
    read_target = target if derived else _row_reader(target, None)
    reads = [_row_reader(prod, zero) for prod, zero in products]

    def fill(lo, hi, out, *spare):
        p = reads[0](lo, hi, out)
        if len(reads) == 2:
            p = _consensus(p, reads[1](lo, hi, spare[0]), out=out)
        # p is in out or a view of a product: the last spare is free.
        np.subtract(read_target(lo, hi, spare[-1] if spare else None), p, out=out)
        np.multiply(out, out, out=out)

    size = products[0][0].size
    return _pairwise_sum(size, fill, buffers=max(len(reads), 1 + derived))


def _row_reader(prod: np.ndarray, zero: np.ndarray | None):
    """read(lo, hi, out): the flat range [lo, hi) of prod with the rows
    flagged in zero read as +0.0; a view of prod where no flagged row
    meets the range, else a copy in out."""
    flat = prod.reshape(-1)
    if zero is None:
        return lambda lo, hi, out: flat[lo:hi]
    cols = prod.shape[1]

    def read(lo, hi, out):
        first = lo // cols
        flagged = np.flatnonzero(zero[first:(hi - 1) // cols + 1]) + first
        if not flagged.size:
            return flat[lo:hi]
        out[:] = flat[lo:hi]
        for row in flagged:
            out[max(row * cols, lo) - lo:min(row * cols + cols, hi) - lo] = 0.0
        return out

    return read


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
        logits = _tiled_product(model.head, x, run)  # (vocab, tokens)
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
