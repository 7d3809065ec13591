"""Block-parallel admm: --threads changes neither the artifacts nor the
error a failing solve reports, and solver iterates and frozen records hold
memory only while their block is being solved."""

import math
import os
import re
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from struprune import admm
from struprune.admm import SolverConfig, _init_state, run_outer_loop, solve_block
from struprune.allocation import uniform_plan
from struprune.cli import main as cli_main
from struprune.errors import ParameterError, SolverError
from struprune.linalg import make_rng
from struprune.model import (DERIVED, FFN, ModelArch, capture_reference_activations, generate_toy_model,
                             make_calibration)
from struprune.oracle import cache_checksum

from conftest import build_toy, cache_copy

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
THREADS = ("1", "2", "3")


def _fixture_dirs(root, layout):
    model, calib = str(root / f"model-{layout}"), str(root / f"calib-{layout}")
    assert cli_main(["gen", "--layout", layout, "--d", "16", "--layers", "2", "--heads", "2",
                     "--seed", "101", "--out", model]) == 0
    assert cli_main(["calibrate", "--model", model, "--n", "8", "--seq-len", "16",
                     "--seed", "202", "--out", calib]) == 0
    return model, calib


@pytest.fixture(scope="module")
def fixtures(tmp_path_factory):
    root = tmp_path_factory.mktemp("parallel")
    return root, {layout: _fixture_dirs(root, layout) for layout in ("decoder", "ffn")}


def _dir_bytes(path):
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            out[name] = fh.read()
    return out


def _admm(fixtures, layout, out_name, *flags):
    root, dirs = fixtures
    model, calib = dirs[layout]
    out = str(root / out_name)
    code = cli_main(["admm", "--model", model, "--calib", calib, *flags, "--out", out])
    return code, out


@pytest.mark.parametrize("layout", ["decoder", "ffn"])
@pytest.mark.parametrize("method", ["softmax", "l0"])
def test_threads_leave_artifacts_byte_identical(fixtures, layout, method):
    produced = {}
    for threads in THREADS:
        code, out = _admm(fixtures, layout, f"{layout}-{method}-t{threads}", "--method", method,
                          "--sparsity", "0.5", "--iters", "3", "--inner", "10",
                          "--threads", threads)
        assert code == 0
        produced[threads] = _dir_bytes(out)
    names = set(produced["1"])
    assert {"trace.csv", "plan.csv", "manifest.json"} <= names
    assert any(name.endswith(".bin") for name in names)
    for threads in THREADS[1:]:
        assert produced[threads] == produced["1"], f"--threads {threads} changed the artifacts"


@pytest.mark.parametrize("layout, flags, golden", [
    ("ffn", ["--method", "closed-form", "--sparsity", "0.5", "--alpha", "1.0", "--beta", "1.0",
             "--iters", "20", "--seed", "0"], "golden_trace.csv"),
    ("decoder", ["--method", "softmax", "--sparsity", "0.5", "--iters", "4", "--inner", "10",
                 "--seed", "0"], "golden_trace_decoder.csv"),
])
def test_goldens_reproduce_on_two_threads(fixtures, layout, flags, golden):
    code, out = _admm(fixtures, layout, f"golden-{layout}", *flags, "--threads", "2")
    assert code == 0
    with open(os.path.join(out, "trace.csv"), "rb") as fh:
        produced = fh.read()
    with open(os.path.join(DATA_DIR, golden), "rb") as fh:
        assert produced == fh.read()


def _solver_error_line(capsys):
    err = capsys.readouterr().err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("solver error:"), err
    return lines[0]


# With --lr 3 the blocks at layer 0 and layer 2 both diverge; layer 2
# fails in an earlier outer iteration, so a sequential sweep over
# iterations reports it, and so must every pool size.
DIVERGE = ("--iters", "4", "--inner", "10", "--lr", "3")


def test_error_order_independent_of_threads(fixtures, capsys):
    lines = {}
    for threads in THREADS:
        code, _ = _admm(fixtures, "decoder", f"diverge-t{threads}", *DIVERGE, "--threads", threads)
        assert code == 2
        lines[threads] = _solver_error_line(capsys)
    assert "attention-activation sub-solve diverged at layer 2" in lines["1"]
    assert lines["2"] == lines["1"] and lines["3"] == lines["1"]


def test_divergence_message_suggests_step_size(fixtures, capsys):
    code, _ = _admm(fixtures, "decoder", "diverge-msg", *DIVERGE)
    assert code == 2
    line = _solver_error_line(capsys)
    assert "attention-activation sub-solve" in line and "layer 2" in line
    assert "at entry" in line and "at step 1 of 10" in line
    match = re.search(r"suggested --lr (\S+) \(1/L\)", line)
    assert match, line
    suggested = float(match.group(1))
    assert math.isfinite(suggested) and 0.0 < suggested < 3.0


# At 1e308 the Lipschitz constant overflows to inf and 1/L rounds to 0, so
# the message names the flags that overflow it instead of a step size.
@pytest.mark.parametrize("flag", ["--alpha", "--beta"])
def test_divergence_message_when_lipschitz_overflows(fixtures, capsys, flag):
    code, _ = _admm(fixtures, "decoder", f"overflow{flag}", flag, "1e308", "--iters", "1")
    assert code == 2
    line = _solver_error_line(capsys)
    assert "activation sub-solve diverged at layer 0" in line
    assert "suggested --lr" not in line
    assert line.endswith("the Lipschitz constant L overflows: lower --alpha or --beta"), line


def test_threads_below_one_rejected():
    model, _, cache = build_toy("ffn")
    with pytest.raises(ParameterError, match="threads"):
        run_outer_loop(model, cache, uniform_plan(model, 0.5), SolverConfig(outer_iters=1), threads=0)


def test_pool_under_fast_thread_switching():
    model, _, cache = build_toy("decoder")
    plan = uniform_plan(model, 0.5)
    cfg = SolverConfig(outer_iters=2, inner_steps=5, mask_criterion="l0")
    sequential = run_outer_loop(model, cache_copy(cache), plan, cfg)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pooled = run_outer_loop(model, cache, plan, cfg, threads=4)
    finally:
        sys.setswitchinterval(interval)
    assert cache.blocks == [None] * len(model.blocks)
    assert pooled.trace == sequential.trace
    assert pooled.initial_post_prune_loss == sequential.initial_post_prune_loss
    for got, want in zip(pooled.model.blocks, sequential.model.blocks):
        for name in want.matrices:
            assert np.array_equal(got.matrices[name], want.matrices[name])


def test_capture_allocates_no_iterates():
    model, calib, _ = build_toy("decoder")
    tracemalloc.start()
    try:
        cache = capture_reference_activations(model, calib)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Block inputs are the previous block's outputs; count each array once.
    frozen = {id(arr): arr.nbytes for rec in cache.blocks for arr in rec.frozen_arrays().values()}
    # Plus one derived array of one block: capture holds an MHA block's z
    # until its softmax has run.
    derived = max(rec.like(name).nbytes for rec in cache.blocks for name in DERIVED[rec.kind])
    assert peak < sum(frozen.values()) + calib.inputs.nbytes + derived


def test_iterates_start_as_the_frozen_arrays():
    model, _, cache = build_toy("decoder")
    plan = uniform_plan(model, 0.5)
    for i, (block, rec) in enumerate(zip(model.blocks, cache.blocks)):
        state = _init_state(i, block, plan, rec)
        assert state.a_attn is rec.a_attn_pre
        if rec.kind == FFN:
            assert state.z is rec.z_pre
            assert state.a.tobytes() == np.maximum(rec.z_pre, 0.0).tobytes()
        else:
            assert state.z.tobytes() == (0.5 * (rec.q_pre + rec.k_pre)).tobytes()
            assert state.a is rec.a_pre
        for name in ("z", "a", "a_attn"):
            arr = getattr(state, name)
            if arr is not None:
                with pytest.raises(ValueError):
                    arr[0, 0] += 1.0


DIVERGING = SolverConfig(outer_iters=2, inner_steps=10, learning_rate=3.0)


def _released(state):
    return state.z is None and state.a is None and state.a_attn is None


def test_solve_block_releases_iterates():
    model, _, cache = build_toy("decoder")
    plan = uniform_plan(model, 0.5)
    layer = next(i for i, b in enumerate(model.blocks) if b.kind == "mha")
    rec = cache.blocks[layer]
    state = _init_state(layer, model.blocks[layer], plan, rec)
    solve_block(state, rec, SolverConfig(outer_iters=2, inner_steps=5), cache.n_samples,
                cache.seq_len, None)
    assert _released(state)
    state = _init_state(layer, model.blocks[layer], plan, rec)
    with pytest.raises(SolverError):
        solve_block(state, rec, DIVERGING, cache.n_samples, cache.seq_len, None)
    assert _released(state)


@pytest.mark.parametrize("threads", [1, 2])
def test_blocks_release_iterates(threads, monkeypatch):
    model, _, cache = build_toy("decoder")
    checksum = cache_checksum(cache)
    plan = uniform_plan(model, 0.5)
    states = []

    def recording_solve(state, *args):
        states.append(state)
        return solve_block(state, *args)

    monkeypatch.setattr(admm, "solve_block", recording_solve)
    run_outer_loop(model, cache_copy(cache), plan, SolverConfig(outer_iters=2, inner_steps=5), threads=threads)
    assert len(states) == len(model.blocks)
    assert all(_released(s) for s in states)
    assert cache_checksum(cache) == checksum
    states.clear()
    with pytest.raises(SolverError):
        run_outer_loop(model, cache_copy(cache), plan, DIVERGING, threads=threads)
    assert len(states) == len(model.blocks)
    assert all(_released(s) for s in states)
    assert cache_checksum(cache) == checksum


@pytest.mark.parametrize("threads", [1, 2])
def test_records_released_as_blocks_finish(threads, monkeypatch):
    model, _, cache = build_toy("decoder")
    plan = uniform_plan(model, 0.5)
    refs = [weakref.ref(rec) for rec in cache.blocks]
    held = []

    def recording_solve(state, *args):
        held.append([rec is not None for rec in cache.blocks])
        return solve_block(state, *args)

    monkeypatch.setattr(admm, "solve_block", recording_solve)
    run_outer_loop(model, cache, plan, SolverConfig(outer_iters=2, inner_steps=5), threads=threads)
    assert cache.blocks == [None] * len(model.blocks)
    assert all(ref() is None for ref in refs)
    if threads == 1:
        # Block i starts with blocks 0 .. i-1 released.
        assert held == [[j >= i for j in range(len(model.blocks))] for i in range(len(model.blocks))]
    # A failing solve releases them too.
    _, _, cache = build_toy("decoder")
    with pytest.raises(SolverError):
        run_outer_loop(model, cache, plan, DIVERGING, threads=threads)
    assert cache.blocks == [None] * len(model.blocks)


@st.composite
def solver_cases(draw):
    """A small model of a drawn layout and width, its calibration (T = N
    * seq_len, T % 8 != 0 included), a plan and a solver configuration
    under the wanda, closed-form or l0 criterion."""
    layout = draw(st.sampled_from(["decoder", "ffn", "mha"]), label="layout")
    heads = draw(st.integers(1, 2), label="heads")
    arch = ModelArch(d=heads * draw(st.integers(2, 4), label="head dim"),
                     num_layers=draw(st.integers(1, 2), label="layers"), num_heads=heads)
    n, seq = draw(st.integers(2, 4), label="N"), draw(st.sampled_from([3, 5, 8]), label="seq_len")
    seed = draw(st.integers(0, 2**16), label="seed")
    model = generate_toy_model(arch, make_rng(seed), layout=layout)
    calib = make_calibration(arch, n, seq, make_rng(seed + 1))
    criterion = draw(st.sampled_from(["wanda", "closed-form", "l0"]), label="criterion")
    cfg = SolverConfig(outer_iters=2, inner_steps=3, seed=seed, mask_criterion=criterion)
    return model, calib, uniform_plan(model, draw(st.sampled_from([0.25, 0.5]), label="sparsity")), cfg


@settings(derandomize=True, deadline=None, max_examples=100, database=None)
@given(solver_cases())
def test_pool_size_changes_no_bit_and_every_record_is_released(case):
    # A drawn solve may diverge; then every pool size raises the same error.
    model, calib, plan, cfg = case
    outcomes = []
    for threads in (1, 2, 3):
        cache = capture_reference_activations(model, calib)
        try:
            result = run_outer_loop(model, cache, plan, cfg, threads=threads)
        except SolverError as exc:
            outcomes.append(str(exc))
        else:
            weights = [w.tobytes() for block in result.model.blocks for w in block.matrices.values()]
            outcomes.append((result.trace, result.initial_post_prune_loss, weights))
        assert cache.blocks == [None] * len(model.blocks)
    assert outcomes[1] == outcomes[0] and outcomes[2] == outcomes[0]
    event("diverged" if isinstance(outcomes[0], str) else "solved")
    event(f"T % 8 {'!=' if calib.n_samples * calib.seq_len % 8 else '=='} 0")
