"""The peak memory of a one-shot stage run in process: capture drops
what the stage reads only through statistics (model.CapturePolicy), and
those bytes come off the stage's tracemalloc peak; and what a "loss"
capture holds above the records it returns."""

import contextlib
import io
import tracemalloc

import numpy as np
import pytest

from conftest import STD_ARCH
from struprune import cli
from struprune.linalg import make_rng
from struprune.model import (SUB_TILE_TOKENS, CapturePolicy, ModelArch, capture_reference_activations,
                             generate_toy_model, make_calibration)

# The decoder fixture's shapes (d = 16, 2 heads, ffn_dim 64) at 4 layers
# on 8192 token ids: the arrays outweigh the process's small allocations,
# and a token calibration set is small beside the d x T model input. Both
# runs take the same statistics, with the same temporaries; the full one
# takes them while it holds every array.
LAYERS, MEMORY_N, MEMORY_SEQ = 4, 128, 64


def _sweep_peak(tmp_path, monkeypatch, full: bool) -> int:
    """tracemalloc peak of an in-process `sweep` (--threads 1); with full,
    capture keeps every array, as a capture without a policy does."""
    model, calib = str(tmp_path / "model"), str(tmp_path / "calib")
    if full:
        capture = cli.capture_reference_activations
        monkeypatch.setattr(cli, "capture_reference_activations",
                            lambda model, calib, threads=1, **_: capture(model, calib, threads))
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["sweep", "--model", model, "--calib", calib, "--sparsity", "0.4",
                             "--out", str(tmp_path / f"swept-{full}")]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        monkeypatch.undo()


def test_sweep_peak_drops_the_released_arrays(tmp_path, monkeypatch):
    model, calib = str(tmp_path / "model"), str(tmp_path / "calib")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["gen", "--d", str(STD_ARCH.d), "--layers", str(LAYERS),
                         "--heads", str(STD_ARCH.num_heads), "--vocab", "32", "--seed", "101",
                         "--out", model]) == 0
        assert cli.main(["calibrate", "--model", model, "--n", str(MEMORY_N),
                         "--seq-len", str(MEMORY_SEQ), "--kind", "tokens", "--seed", "202",
                         "--out", calib]) == 0
    _sweep_peak(tmp_path, monkeypatch, full=False)  # first-call imports and caches
    full = _sweep_peak(tmp_path, monkeypatch, full=True)
    lean = _sweep_peak(tmp_path, monkeypatch, full=False)
    # Released: MHA q_pre, k_pre and a_pre, and the model input, all d x T;
    # MHA out_pre (d x T, which the loss forms again from a_attn_pre) of
    # every MHA block but the last: the last one is the last FFN block's
    # input, alive at the stage's peak (the capture of the last two
    # blocks), as it is in the full run; and of each FFN block's
    # ffn_dim x T z_pre, what its relu store does not hold (at T = 8192
    # the forward forms that store without a whole z_pre). The store
    # keeps the positive entries as values plus one bit per entry;
    # relu(z_pre) is 0.52-0.59 positive on this fixture's four FFN
    # blocks, so they release 0.39-0.47 of z_pre's bytes each, 0.43 on
    # average, and the bound counts 0.4 per block.
    n_tokens = MEMORY_N * MEMORY_SEQ
    released = ((3 * LAYERS + 1) + (LAYERS - 1)) * STD_ARCH.d * n_tokens * 8 \
        + LAYERS * int(0.4 * STD_ARCH.ffn_dim * n_tokens * 8)
    assert lean <= full - released, f"peak {lean} B, full reference {full} B, released {released} B"
    with open(tmp_path / "swept-True" / "sweep.csv", "rb") as a, \
            open(tmp_path / "swept-False" / "sweep.csv", "rb") as b:
        assert a.read() == b.read()


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_loss_capture_peak_is_a_few_relu_sub_tiles_per_worker(threads):
    """Above the records it returns, a "loss" capture of FFN blocks holds,
    on each worker, one sub-tile of z (model.SUB_TILE_TOKENS tokens),
    never a token tile of it: its relu buffer or a statistic's temporary,
    each at most that size, and the packing's temporaries (a bool mask,
    the nonzeros' flat indices: about half a sub-tile) beside it. The
    model input, the one other transient, is gone by the last block,
    where the capture peaks. A token tile of z per worker (four
    sub-tiles) exceeds the bound at every pool size."""
    arch = ModelArch(d=16, num_layers=2, num_heads=2, ffn_dim=128)
    model = generate_toy_model(arch, make_rng(5), layout="ffn")
    calib = make_calibration(arch, 128, 64, make_rng(6))  # T = 8192: sixteen sub-tiles
    policy = CapturePolicy("loss", ("col_l1", "energies"))
    capture_reference_activations(model, calib, threads=threads, policy=policy)  # first-call caches
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        cache = capture_reference_activations(model, calib, threads=threads, policy=policy)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    held = sum(arr.nbytes for rec in cache.blocks for arr in rec.frozen_arrays().values())
    held += sum(values.nbytes + bits.nbytes for rec in cache.blocks for store in rec.nonzeros.values()
                for _, values, bits in store.chunks)
    held += sum(stat.nbytes for rec in cache.blocks for stat in rec.stats.values() if isinstance(stat, np.ndarray))
    sub_tile = arch.ffn_dim * SUB_TILE_TOKENS * 8
    assert peak - held <= threads * 3 * sub_tile, f"peak {peak} B, held {held} B, z sub-tile {sub_tile} B"
