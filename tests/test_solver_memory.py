"""admm holds only live arrays: each MHA update's tracemalloc rise is
bounded by the arrays its sub-solves still read, not by the memos and
products of the sub-solves that have already returned."""

import tracemalloc

from struprune import admm
from struprune.admm import SolverConfig, run_outer_loop
from struprune.allocation import uniform_plan
from struprune.linalg import make_rng
from struprune.model import CapturePolicy, ModelArch, capture_reference_activations, generate_toy_model, make_calibration

# The decoder fixture's shapes (d = 16, 2 heads, 2 layers: two MHA and two
# FFN blocks) on T = 8192 tokens, where a d x T float64 array is 1 MiB and
# outweighs the solver's small allocations.
ARCH = ModelArch(d=16, num_layers=2, num_heads=2)
MEMORY_N, MEMORY_SEQ = 128, 64


def test_each_mha_update_rises_by_its_live_arrays_only(monkeypatch):
    # At entry the block holds its input, output and its three iterates.
    # An update returns three new iterates; while the z sub-solve runs, it
    # also holds q_pre, k_pre and the sub-solve's temporaries. The a
    # sub-solve's residual memo, v = Wv a and the attention memo are dead
    # by then.
    model = generate_toy_model(ARCH, make_rng(101), layout="decoder")
    calib = make_calibration(ARCH, MEMORY_N, MEMORY_SEQ, make_rng(202))
    cache = capture_reference_activations(model, calib, policy=CapturePolicy("lean", ("col_l1",)))
    update = admm.mha_update
    rises = []

    def measured(state, *args):
        entry = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = update(state, *args)
        rises.append(tracemalloc.get_traced_memory()[1] - entry)
        return result

    monkeypatch.setattr(admm, "mha_update", measured)
    tracemalloc.start()
    try:
        run_outer_loop(model, cache, uniform_plan(model, 0.5), SolverConfig(outer_iters=2, inner_steps=4))
    finally:
        tracemalloc.stop()
    d_by_t = ARCH.d * MEMORY_N * MEMORY_SEQ * 8
    assert len(rises) == 4  # two MHA blocks, two outer iterations
    assert max(rises) <= 9 * d_by_t, f"rises {[round(r / d_by_t, 2) for r in rises]} d x T arrays"
