"""The reconstruction loss sums each squared residual a leaf of numpy's
pairwise tree at a time (model._pairwise_sum): the bits of np.sum of the
plain expression, without a residual-sized temporary, and the same bits
on every pool size. The row-unit terms of a row-masked model are summed
over that tree from one statistic per row (evaluation._term), and a
term whose product must be formed by GEMM one token tile at a time
(evaluation._tile_sums), with the same bits.

The d=16 fixtures fit in one leaf, so the property tests shrink the leaf
to make the tree split."""

import contextlib
import gc
import io
import os
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_toy
from struprune import evaluation, oracle
from struprune import model as model_module
from struprune.allocation import apply_masks, build_masks, temperature_sweep, uniform_plan
from struprune.cli import main
from struprune.evaluation import _flat_reader, _sq_residual, _term, total_reconstruction_loss
from struprune.linalg import make_rng
from struprune.model import (
    LOSS_TERMS,
    MASK_BEARING,
    SUB_TILE_TOKENS,
    TILE_TOKENS,
    CapturePolicy,
    ModelArch,
    _pairwise_sum,
    _row_pairwise_sum,
    _whole_row_tree,
    capture_reference_activations,
    generate_toy_model,
    make_calibration,
)

SETTINGS = settings(derandomize=True, deadline=None, max_examples=40, database=None)
# Leaf sizes to patch in. _pairwise_sum never makes a leaf below 128
# elements: numpy sums a node of at most 128 in one unrolled loop, not by
# splitting it, so smaller sizes would run the 128 case again.
LEAVES = [128, 129, 136, 4096]
# Row-flag patterns of a product: none, some, every row, no row.
PATTERNS = ["none", "some", "all", "empty"]


@contextlib.contextmanager
def leaf(size):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model_module, "PAIRWISE_LEAF", size)
        yield


def flags(rng, pattern, rows):
    if pattern == "none":
        return None
    if pattern == "some":
        return rng.random(rows) < 0.4
    return np.full(rows, pattern == "all")


@SETTINGS
@given(size=st.integers(0, 5000), width=st.sampled_from(LEAVES))
def test_pairwise_sum_is_np_sum(size, width):
    values = make_rng(size).normal(size=size) ** 2
    with leaf(width):
        got = _pairwise_sum(size, lambda lo, hi, out: np.copyto(out, values[lo:hi]))
    assert got == float(np.sum(values))


@SETTINGS
@given(rows=st.integers(1, 40), cols=st.integers(1, 300), width=st.sampled_from(LEAVES),
       pq=st.sampled_from(PATTERNS), pk=st.sampled_from(PATTERNS), seed=st.integers(0, 99))
def test_sq_residual_is_np_sum(rows, cols, width, pq, pk, seed):
    rng = make_rng(seed)
    target, q, k = (rng.normal(size=(rows, cols)) for _ in range(3))
    q, k = (q, flags(rng, pq, rows)), (k, flags(rng, pk, rows))
    with leaf(width):
        for products in ((q,), (k,), (q, k)):
            got = _sq_residual(target, *products)
            assert got == oracle.sq_residual_reference(target, *products), products


def random_pruned(seed, layout, draw_mask):
    """A small random model, its frozen cache, and the model with its row
    units zeroed by draw_mask(rng, rows) per mask-bearing matrix; wq and wk
    are drawn apart."""
    rng = make_rng(seed)
    heads = int(rng.integers(1, 3))
    arch = ModelArch(d=2 * heads * int(rng.integers(1, 4)), num_layers=int(rng.integers(1, 3)),
                     num_heads=heads, ffn_dim=int(rng.integers(3, 20)))
    model = generate_toy_model(arch, rng, layout=layout)
    calib = make_calibration(arch, int(rng.integers(1, 6)), int(rng.integers(1, 20)), rng)
    cache = capture_reference_activations(model, calib)
    masks = {
        i: {name: ~draw_mask(rng, block.matrices[name].shape[0])
            for name in MASK_BEARING[block.kind]}
        for i, block in enumerate(model.blocks)
    }
    return model, cache, apply_masks(model, masks)


@SETTINGS
@given(seed=st.integers(0, 10_000), layout=st.sampled_from(["decoder", "ffn", "mha"]),
       pattern=st.sampled_from(["some", "all", "empty"]), width=st.sampled_from(LEAVES))
def test_loss_is_reference(seed, layout, pattern, width):
    _, cache, pruned = random_pruned(seed, layout, lambda rng, rows: flags(rng, pattern, rows))
    with leaf(width):
        got = total_reconstruction_loss(pruned, cache, alpha=1.3)
    ref = oracle.total_reconstruction_loss_reference(pruned, cache, alpha=1.3)
    assert got.per_layer == ref.per_layer
    assert got.total == ref.total


def test_block_terms_are_added_left_to_right(monkeypatch):
    """(1 + e) + e rounds to 1 for e = 2^-53; a compensated sum (sum() of
    floats on Python 3.12, math.fsum) gives 1 + 2^-52 and other bits than
    the reference's (qk + val) + out."""
    _, cache, pruned = random_pruned(3, "mha", lambda rng, rows: flags(rng, "some", rows))
    monkeypatch.setattr(evaluation, "_block_terms", lambda pb, rec: (1.0, 2.0**-53, 2.0**-53))
    got = total_reconstruction_loss(pruned, cache, alpha=cache.n_samples)
    assert [loss for _, _, loss in got.per_layer] == [1.0] * len(pruned.blocks)


@settings(derandomize=True, deadline=None, max_examples=10, database=None)
@given(seed=st.integers(0, 10_000), layout=st.sampled_from(["decoder", "ffn", "mha"]))
def test_identical_bits_on_every_pool_size(seed, layout):
    model, cache, pruned = random_pruned(seed, layout, lambda rng, rows: rng.random(rows) < 0.4)
    with leaf(128):
        loss = [total_reconstruction_loss(pruned, cache, threads=t) for t in (1, 2, 3)]
        sweep = [temperature_sweep(model, cache, [0.3, 1.0, 3.0], "softmax", 0.4, threads=t)
                 for t in (1, 2, 3)]
    assert loss[0] == loss[1] == loss[2]
    tables = [(best, plan.entries, table) for best, plan, table in sweep]
    assert tables[0] == tables[1] == tables[2]


# A (rows, cols) grid of shapes, and shapes of the paper's OPT-125M
# (768 and 3072 rows) and of the benchmark, at 2048 and 8192 tokens.
GRID = [(rows, cols) for rows in range(1, 65) for cols in range(1, 201)]
SPLIT_ROWS = [(24, 2048), (768, 2048), (3072, 2048), (768, 8192), (16, 65)]
WHOLE_ROWS = [(rows, cols) for rows in (128, 512) for cols in (2048, 8192)]


def test_row_pairwise_sum_is_np_sum():
    rng = make_rng(17)
    shapes = [shape for shape in GRID if _whole_row_tree(*shape)] + WHOLE_ROWS
    assert len(shapes) > len(WHOLE_ROWS)
    for rows, cols in shapes:
        a = rng.normal(size=(rows, cols))
        assert _row_pairwise_sum(np.sum(a, axis=1), cols) == np.sum(a), (rows, cols)


def test_whole_row_tree_at_known_shapes():
    assert [_whole_row_tree(*shape) for shape in SPLIT_ROWS] == [False] * len(SPLIT_ROWS)
    assert [_whole_row_tree(*shape) for shape in WHOLE_ROWS] == [True] * len(WHOLE_ROWS)


def row_terms(kind):
    """The row-unit terms of LOSS_TERMS[kind]: those of mask-bearing
    matrices."""
    return [term for term, (_, matrices) in LOSS_TERMS[kind].items() if matrices[0] in MASK_BEARING[kind]]


def product_pair(rec, matrix, w):
    """w @ x as the (array, zero) pair _sq_residual reads: frozen_rows
    where the record reads it, else the GEMM."""
    return rec.frozen_rows(matrix, w) or (rec.product(matrix, w), None)


# The leafwise sums of the row-unit terms (evaluation._sq_term).
LEAFWISE = {
    "up": lambda pb, rec: _sq_residual(rec.z_pre, product_pair(rec, "w1", pb.w1)),
    "qk": lambda pb, rec: _sq_residual(_flat_reader(rec, "z_pre"), product_pair(rec, "wq", pb.wq),
                                       product_pair(rec, "wk", pb.wk)),
    "val": lambda pb, rec: _sq_residual(rec.a_attn_pre, product_pair(rec, "wv", pb.wv)),
}


def sq_term_calls(monkeypatch):
    """The target of every evaluation._sq_term call made from here on."""
    calls, real = [], evaluation._sq_term

    def spy(rec, target, *matrices):
        calls.append(target)
        return real(rec, target, *matrices)

    monkeypatch.setattr(evaluation, "_sq_term", spy)
    return calls


def row_masked(model, seed, kept):
    """model with its row units zeroed, each mask-bearing matrix apart:
    `kept` is the fraction of rows kept, or "all" or "none"."""
    rng = make_rng(seed)
    masks = {}
    for i, block in enumerate(model.blocks):
        masks[i] = {}
        for name in MASK_BEARING[block.kind]:
            rows = block.matrices[name].shape[0]
            k = {"all": rows, "none": 0}.get(kept) if isinstance(kept, str) else round(kept * rows)
            bits = np.zeros(rows, dtype=bool)
            bits[rng.permutation(rows)[:k]] = True
            masks[i][name] = bits
    return apply_masks(model, masks)


@pytest.mark.parametrize("kept", [0.7, 0.5, 0.3, "all", "none"])  # sparsity 0.3, 0.5, 0.7
@pytest.mark.parametrize("layout", ["decoder", "ffn"])
def test_row_terms_from_statistics_are_the_leafwise_sums(layout, kept, monkeypatch):
    model, calib, full = build_toy(layout)
    # Statistics taken when first read, and taken by capture on two
    # workers before it drops the products.
    loss = capture_reference_activations(model, calib, threads=2,
                                         policy=CapturePolicy("loss", ("energies",)))
    calls = sq_term_calls(monkeypatch)
    for seed in range(4):
        pruned = row_masked(model, seed, kept)
        for pb, rec, lean in zip(pruned.blocks, full.blocks, loss.blocks):
            for term in row_terms(rec.kind):
                want = LEAFWISE[term](pb, rec)
                calls.clear()
                assert _term(pb, rec, term) == want, (term, seed)
                assert _term(pb, lean, term) == want, (term, seed)
                assert calls == [], (term, seed)
        got = total_reconstruction_loss(pruned, loss)
        ref = oracle.total_reconstruction_loss_reference(pruned, full)
        assert (got.per_layer, got.total) == (ref.per_layer, ref.total)


def test_row_split_takes_the_leafwise_path(monkeypatch):
    # T = 65: numpy's pairwise tree over a residual splits its rows.
    model, _, cache = build_toy("decoder", n_samples=5, seq_len=13)
    pruned = row_masked(model, 0, 0.5)
    calls = sq_term_calls(monkeypatch)
    for pb, rec in zip(pruned.blocks, cache.blocks):
        for term in row_terms(rec.kind):
            assert rec.row_energies(term) is None
            calls.clear()
            assert _term(pb, rec, term) == LEAFWISE[term](pb, rec)
            assert calls == [LOSS_TERMS[rec.kind][term][0]]
    got = total_reconstruction_loss(pruned, cache)
    ref = oracle.total_reconstruction_loss_reference(pruned, cache)
    assert (got.per_layer, got.total) == (ref.per_layer, ref.total)


@pytest.mark.parametrize("layout", ["decoder", "ffn"])
def test_non_finite_input_takes_the_leafwise_path(layout, monkeypatch):
    model, calib, _ = build_toy(layout)
    calib.inputs[0, 3, 5] = np.inf
    calls = sq_term_calls(monkeypatch)
    with np.errstate(invalid="ignore", over="ignore"):
        cache = capture_reference_activations(model, calib, policy=CapturePolicy("loss", ("energies",)))
        pruned = row_masked(model, 1, 0.5)
        for pb, rec in zip(pruned.blocks, cache.blocks):
            for term in row_terms(rec.kind):
                assert rec.row_energies(term) is None
                calls.clear()
                _term(pb, rec, term)
                assert calls == [LOSS_TERMS[rec.kind][term][0]]
            assert rec.input_pre is not None  # what the leafwise path reads stays
        got = total_reconstruction_loss(pruned, cache)
        ref = oracle.total_reconstruction_loss_reference(pruned, cache)
    assert np.array_equal([v for _, _, v in got.per_layer], [v for _, _, v in ref.per_layer],
                          equal_nan=True)


# (N, seq_len) of T = 792, 1920, 6144 and 8192: one tile of fewer than
# TILE_TOKENS tokens, and numpy's pairwise tree over a row cut into four
# tiles of 1536 and of 2048 tokens.
TILED = [(99, 8), (120, 16), (96, 64), (128, 64)]
TILE_ARCH = ModelArch(d=16, num_layers=2, num_heads=2, ffn_dim=64)


def tile_calls(monkeypatch):
    """The (target, tile width) of every evaluation._tile_sums call made
    from here on."""
    calls, real = [], evaluation._tile_sums

    def spy(rec, target, frozen, matrices, t):
        calls.append((target, t.stop - t.start))
        return real(rec, target, frozen, matrices, t)

    monkeypatch.setattr(evaluation, "_tile_sums", spy)
    return calls


def refit(pruned):
    """A copy of pruned whose w1, wq and wv rows are neither dense nor
    zero, as an admm refit leaves them; wk keeps its dense and zero rows,
    so the qk term reads one product from the cache and forms the other."""
    out = pruned.copy()
    for block in out.blocks:
        for name in ("w1", "wq", "wv"):
            if name in block.matrices:
                block.matrices[name][...] *= 1 + 1e-3
    return out


@pytest.mark.parametrize("n, seq", TILED)
@pytest.mark.parametrize("layout", ["decoder", "ffn"])
def test_tiled_terms_are_the_reference(layout, n, seq, monkeypatch):
    model = generate_toy_model(TILE_ARCH, make_rng(7), layout=layout)
    cache = capture_reference_activations(model, make_calibration(TILE_ARCH, n, seq, make_rng(8)))
    masked = row_masked(model, 0, 0.5)
    calls = tile_calls(monkeypatch)
    for pruned, tiled in ((masked, {"out_pre"}), (refit(masked), {"out_pre", "z_pre", "a_attn_pre"})):
        calls.clear()
        got = total_reconstruction_loss(pruned, cache, threads=2)
        ref = oracle.total_reconstruction_loss_reference(pruned, cache)
        assert (got.per_layer, got.total) == (ref.per_layer, ref.total)
        assert {target for target, _ in calls} == (tiled if layout == "decoder" else tiled - {"a_attn_pre"})
        T = n * seq
        width = T if T <= TILE_TOKENS else T // 4
        assert {w for _, w in calls} == {width}


@pytest.mark.parametrize("layout, arch, n, seq", [
    # 24 rows at T = 2048: numpy's pairwise tree splits a 3-row node.
    ("decoder", ModelArch(d=24, num_layers=2, num_heads=2, ffn_dim=48), 32, 64),
    ("ffn", ModelArch(d=24, num_layers=2, num_heads=2, ffn_dim=48), 32, 64),
    # The 1 x T product of w2 at T = 4100: a tree of one row, whose tiles
    # would not be multiples of 8 tokens.
    ("ffn", ModelArch(d=1, num_layers=2, num_heads=1, ffn_dim=8), 41, 100),
])
def test_untiled_shapes_take_the_leafwise_path(layout, arch, n, seq, monkeypatch):
    T = n * seq
    assert not _whole_row_tree(arch.d, T) or T % 8
    model = generate_toy_model(arch, make_rng(7), layout=layout)
    cache = capture_reference_activations(model, make_calibration(arch, n, seq, make_rng(8)))
    calls = tile_calls(monkeypatch)
    for pruned in (row_masked(model, 0, 0.5), refit(row_masked(model, 0, 0.5))):
        got = total_reconstruction_loss(pruned, cache)
        ref = oracle.total_reconstruction_loss_reference(pruned, cache)
        assert (got.per_layer, got.total) == (ref.per_layer, ref.total)
    assert calls == []


# An FFN block whose ffn_dim x T residual is 8 MiB: 256 x 4096 float64.
WIDE_FFN = ModelArch(d=16, num_layers=1, num_heads=1, ffn_dim=256)
WIDE_N, WIDE_SEQ = 64, 64


@pytest.fixture(scope="module")
def wide_ffn():
    model = generate_toy_model(WIDE_FFN, make_rng(5), layout="ffn")
    calib = make_calibration(WIDE_FFN, WIDE_N, WIDE_SEQ, make_rng(6))
    cache = capture_reference_activations(model, calib)
    residual = WIDE_FFN.ffn_dim * WIDE_N * WIDE_SEQ * 8
    assert residual >= 8 * 2**20
    return model, cache, residual


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_loss_builds_no_residual(wide_ffn):
    model, cache, residual = wide_ffn
    pruned = apply_masks(model, build_masks(model, cache, uniform_plan(model, 0.4), "wanda"))
    total_reconstruction_loss(pruned, cache)  # memoized input statistics first
    peak = traced_peak(lambda: total_reconstruction_loss(pruned, cache))
    assert peak < residual, f"peak {peak} B, residual {residual} B"


def test_sweep_builds_no_residual(wide_ffn):
    model, cache, residual = wide_ffn

    def run():
        temperature_sweep(model, cache, [0.5, 1.0], "softmax", 0.4, threads=2)

    run()  # memoized input statistics first
    peak = traced_peak(run)
    assert peak < residual, f"peak {peak} B, residual {residual} B"


def test_refit_loss_builds_no_whole_product(wide_ffn):
    """Refit w1 rows are neither the dense row nor zero, so the loss of an
    admm output forms w1 @ input_pre by GEMM, one token tile at a time:
    T = 4096 makes two tiles, each half an ffn_dim x T product."""
    model, cache, residual = wide_ffn
    pruned = apply_masks(model, build_masks(model, cache, uniform_plan(model, 0.4), "wanda"))
    pruned.blocks[0].w1 *= 1 + 1e-3
    total_reconstruction_loss(pruned, cache)  # memoized input statistics first
    peak = traced_peak(lambda: total_reconstruction_loss(pruned, cache))
    assert peak < 0.75 * residual, f"peak {peak} B, residual {residual} B"


# FFN blocks at T = 4096 whose ffn_dim x T residual numpy's pairwise tree
# splits a row of (_whole_row_tree is False), as at the paper's OPT-125M
# shapes: their up term takes the leafwise path.
SPLIT_FFN = [ModelArch(d=16, num_layers=1, num_heads=1, ffn_dim=192),
             ModelArch(d=24, num_layers=1, num_heads=1, ffn_dim=384)]


@pytest.mark.parametrize("arch", SPLIT_FFN, ids=lambda arch: f"d{arch.d}")
def test_leafwise_loss_builds_no_residual(arch):
    """The up term of a row-masked model is summed a leaf at a time from
    the frozen product, and that of refit w1 rows from one whole GEMM
    product: neither builds a residual beside it."""
    model = generate_toy_model(arch, make_rng(5), layout="ffn")
    cache = capture_reference_activations(model, make_calibration(arch, WIDE_N, WIDE_SEQ, make_rng(6)))
    assert not _whole_row_tree(arch.ffn_dim, WIDE_N * WIDE_SEQ)
    residual = arch.ffn_dim * WIDE_N * WIDE_SEQ * 8
    masked = apply_masks(model, build_masks(model, cache, uniform_plan(model, 0.4), "wanda"))
    refit = masked.copy()
    refit.blocks[0].w1 *= 1 + 1e-3
    for pruned, bound in ((masked, 0.5), (refit, 1.25)):
        total_reconstruction_loss(pruned, cache)  # memoized input statistics first
        peak = traced_peak(lambda: total_reconstruction_loss(pruned, cache))
        assert peak < bound * residual, f"peak {peak} B, residual {residual} B"


# Two FFN blocks whose w2 products are 64 x T, at T = 8192: four tiles.
TWO_FFN = ModelArch(d=64, num_layers=2, num_heads=1, ffn_dim=64)


@pytest.fixture(scope="module")
def two_ffn():
    model = generate_toy_model(TWO_FFN, make_rng(11), layout="ffn")
    calib = make_calibration(TWO_FFN, 128, 64, make_rng(12))
    return model, calib


def test_sweep_holds_one_pruned_model(two_ffn):
    """Above its cache, the sweep holds one pruned model and, on each of
    its loss's block workers, one w2 tile product and one relu sub-tile."""
    model, calib = two_ffn
    cache = capture_reference_activations(model, calib)
    threads = 2

    def run():
        temperature_sweep(model, cache, [0.5, 1.0, 2.0], "softmax", 0.4, threads=threads)

    run()  # memoized input statistics first
    peak = traced_peak(run)
    copy = sum(w.nbytes for _, w in model.named_matrices())
    tile = 8 * (TWO_FFN.d * TILE_TOKENS + TWO_FFN.ffn_dim * SUB_TILE_TOKENS)
    assert peak < copy + threads * tile, f"peak {peak} B, model {copy} B, tile {tile} B"


@pytest.mark.parametrize("stage", ["loss", "sweep"])
def test_records_die_with_the_cache(two_ffn, stage):
    """With the garbage collector off, no record outlives its cache once
    the loss or the sweep has read it: nothing they leave holds a
    reference cycle (a tree walk that is a closure calling itself would)."""
    model, calib = two_ffn
    cache = capture_reference_activations(model, calib)
    pruned = apply_masks(model, build_masks(model, cache, uniform_plan(model, 0.4), "wanda"))
    pruned.blocks[0].w1 *= 1 + 1e-3
    gc.collect()
    gc.disable()
    try:
        if stage == "loss":
            total_reconstruction_loss(pruned, cache, threads=2)
        else:
            temperature_sweep(model, cache, [0.5, 1.0], "softmax", 0.4, threads=2)
        records = [weakref.ref(rec) for rec in cache.blocks]
        del cache
        assert [r() for r in records] == [None] * len(records)
    finally:
        gc.enable()


SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")


def test_debug_log_splits_eval_loss(tmp_path):
    """STRUPRUNE_LOG=debug adds one line per block with its loss terms;
    stdout and every artifact byte stay those of the info level."""
    model, calib, pruned, out = (str(tmp_path / n) for n in ("model", "calib", "pruned", "out"))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen", "--d", "16", "--layers", "2", "--heads", "2", "--seed", "3",
                     "--out", model]) == 0
        assert main(["calibrate", "--model", model, "--n", "4", "--seq-len", "8", "--seed", "4",
                     "--out", calib]) == 0
        assert main(["prune", "--model", model, "--calib", calib, "--method", "magnitude",
                     "--out", pruned]) == 0
    runs = {}
    for level in ("info", "debug"):
        env = dict(os.environ, STRUPRUNE_LOG=level, OPENBLAS_NUM_THREADS="1")
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        done = subprocess.run(
            [sys.executable, "-m", "struprune.cli", "eval", "--model", pruned, "--dense", model,
             "--calib", calib, "--threads", "2", "--out", out],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        files = {}
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "rb") as fh:
                files[name] = fh.read()
        runs[level] = (done.stdout, files, done.stderr.splitlines())
    assert runs["info"][:2] == runs["debug"][:2]
    assert not [line for line in runs["info"][2] if line.startswith("DEBUG")]
    extra = [line for line in runs["debug"][2] if line.startswith("DEBUG")]
    # cli.main's one resource line per command (tests/test_cli.py) aside
    assert [line for line in extra if " resources: " in line] == [extra[-1]]
    extra = extra[:-1]
    assert [line.split()[3:5] for line in extra] == [["0", "mha"], ["1", "ffn"], ["2", "mha"], ["3", "ffn"]], extra
    assert all(line.startswith("DEBUG struprune: layer ") for line in extra)
    assert any(line.startswith("INFO") for line in runs["info"][2])
    assert "qk=" in extra[0] and "val=" in extra[0] and "out=" in extra[0]
    assert "up=" in extra[1] and "down=" in extra[1]
