"""Lean records (capture under a "lean" CapturePolicy), which admm reads: a block's
GEMM products are held only while the forward or the block's outer
iteration 1 reads them, and every product read from a lean record has
the bits of the full capture's array."""

import threading
import tracemalloc

import numpy as np
import pytest

from struprune import admm
from struprune.admm import SolverConfig, run_outer_loop, solve_block
from struprune.allocation import allocate_plan, uniform_plan
from struprune.cli import main as cli_main
from struprune.importance import layer_importance
from struprune.linalg import make_rng
from struprune.model import (MASK_BEARING, MATRIX_IO, STORED, CapturePolicy, ModelArch,
                             capture_reference_activations, generate_toy_model, make_calibration)

ARCH = ModelArch(d=16, num_layers=2, num_heads=2)
# (N, seq_len): T = 2560 makes two capture tiles of unequal width (2048 and
# 512); T = 65 is not a multiple of 8, so capture runs one tile.
CALIBS = {"two-tiles": (160, 16), "T%8!=0": (5, 13)}
LAYOUTS = ("decoder", "ffn", "mha")


def caches(layout, calib_name):
    model = generate_toy_model(ARCH, make_rng(31), layout=layout)
    calib = make_calibration(ARCH, *CALIBS[calib_name], make_rng(32))
    full = capture_reference_activations(model, calib)
    lean = capture_reference_activations(model, calib, threads=2, policy=CapturePolicy("lean", ("col_l1",)))
    return model, full, lean


def products(rec):
    return {MATRIX_IO[m][1]: getattr(rec, MATRIX_IO[m][1]) for m in MASK_BEARING[rec.kind]}


def same(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("calib_name", CALIBS)
@pytest.mark.parametrize("layout", LAYOUTS)
def test_rebuilt_products_equal_the_full_capture(layout, calib_name):
    model, full, lean = caches(layout, calib_name)
    for block, want, rec in zip(model.blocks, full.blocks, lean.blocks):
        assert rec.lean and not want.lean
        assert all(p is None for p in products(rec).values())
        kept = set(STORED[rec.kind]) - set(products(rec))
        assert set(rec.frozen_arrays()) == kept
        for name in kept:
            assert same(getattr(rec, name), getattr(want, name)), name
        for x_name in {MATRIX_IO[m][0] for m in block.names}:
            assert same(rec.col_l1(x_name), want.col_l1(x_name)), x_name
        # A read while absent rebuilds the product for that read only.
        for m in MASK_BEARING[rec.kind]:
            prod_name = MATRIX_IO[m][1]
            assert same(rec.product(m, block.matrices[m]), getattr(want, prod_name))
            masked = block.matrices[m] * (np.arange(block.matrices[m].shape[0]) % 3 > 0)[:, None]
            assert same(rec.product(m, masked), want.product(m, masked))
            assert getattr(rec, prod_name) is None
        rec.rebuild_products()
        for m in MASK_BEARING[rec.kind]:
            prod = getattr(rec, MATRIX_IO[m][1])
            assert same(prod, getattr(want, MATRIX_IO[m][1])), m
            assert not prod.flags.writeable
            assert rec.product(m, block.matrices[m]) is prod
        rec.release_products()
        assert all(p is None for p in products(rec).values())
        want.release_products()  # a full record keeps its products
        assert all(p is not None for p in products(want).values())


@pytest.mark.parametrize("calib_name", CALIBS)
@pytest.mark.parametrize("layout", LAYOUTS)
def test_plans_read_the_same_bits(layout, calib_name):
    model, full, lean = caches(layout, calib_name)
    assert layer_importance(model, lean, "wanda-sum") == layer_importance(model, full, "wanda-sum")
    for method in ("softmax", "closed-form"):
        assert allocate_plan(model, lean, method, 0.5) == allocate_plan(model, full, method, 0.5)


@pytest.mark.parametrize("criterion", ["wanda", "closed-form", "l0", "snip"])
@pytest.mark.parametrize("calib_name", CALIBS)
@pytest.mark.parametrize("layout", LAYOUTS)
def test_outer_loop_on_a_lean_cache_matches_the_full_cache(layout, calib_name, criterion):
    model, full, lean = caches(layout, calib_name)
    plan = uniform_plan(model, 0.5)
    cfg = SolverConfig(outer_iters=2, inner_steps=3, seed=5, mask_criterion=criterion)
    want = run_outer_loop(model, full, plan, cfg)
    got = run_outer_loop(model, lean, plan, cfg, threads=2)
    assert got.trace == want.trace
    assert got.initial_post_prune_loss == want.initial_post_prune_loss
    assert got.masks.keys() == want.masks.keys()
    for layer, masks in want.masks.items():
        assert {m: b.tobytes() for m, b in got.masks[layer].items()} == \
            {m: b.tobytes() for m, b in masks.items()}
    for g, w in zip(got.model.blocks, want.model.blocks):
        for name in w.names:
            assert same(g.matrices[name], w.matrices[name]), name


@pytest.mark.parametrize("layout", ["ffn", "mha"])
def test_products_released_after_the_first_prune_step(layout, monkeypatch):
    # The post-prune objective at iteration 1 is the last reader; every
    # later objective finds the record without its products.
    model, _, lean = caches(layout, "T%8!=0")
    name = "ffn_objective" if layout == "ffn" else "mha_objective"
    objective = getattr(admm, name)
    held = []

    def recording(state, rec, *args):
        held.append((state.iteration, all(p is not None for p in products(rec).values())))
        return objective(state, rec, *args)

    monkeypatch.setattr(admm, name, recording)
    run_outer_loop(model, lean, uniform_plan(model, 0.5), SolverConfig(outer_iters=3, inner_steps=2))
    per_block = [(1, True), (1, False), (2, False), (3, False)]
    assert held == per_block * len(model.blocks)


def _admm_peak(tmp_path, layers, monkeypatch):
    """tracemalloc peak of `admm` at --threads 2 on an FFN-only model of
    `layers` blocks, d = 8, ffn_dim = 32, T = 4096 (two capture tiles).
    The two workers take their own blocks, rebuild their products and
    make their states, but solve one at a time: unserialized, the peak
    moves by a few d x T arrays from run to run with how the two solves'
    phases happen to overlap."""
    model, calib = str(tmp_path / f"model{layers}"), str(tmp_path / f"calib{layers}")
    assert cli_main(["gen", "--layout", "ffn", "--d", "8", "--ffn-dim", "32", "--heads", "1",
                     "--layers", str(layers), "--seed", "3", "--out", model]) == 0
    assert cli_main(["calibrate", "--model", model, "--n", "64", "--seq-len", "64", "--seed", "4",
                     "--out", calib]) == 0
    one_at_a_time = threading.Lock()

    def serialized(*args):
        with one_at_a_time:
            return solve_block(*args)

    monkeypatch.setattr(admm, "solve_block", serialized)
    tracemalloc.start()
    try:
        assert cli_main(["admm", "--model", model, "--calib", calib, "--method", "closed-form",
                         "--sparsity", "0.5", "--iters", "2", "--threads", "2",
                         "--out", str(tmp_path / f"solved{layers}")]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_admm_peak_grows_by_the_idle_blocks_outputs_only(tmp_path, monkeypatch):
    # Four more blocks add their out_pre (d x T), which the next block
    # also reads as its input, and not their ffn_dim x T z_pre.
    _admm_peak(tmp_path, 1, monkeypatch)  # the first solve of the process loads scipy
    grow = _admm_peak(tmp_path, 8, monkeypatch) - _admm_peak(tmp_path, 4, monkeypatch)
    kept = 4 * 8 * 4096 * 8
    assert grow <= 1.25 * kept, f"peak grew by {grow} B; four blocks' out_pre are {kept} B"
