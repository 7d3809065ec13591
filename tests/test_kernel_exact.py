"""The in-place solver kernels return the bits of their plain-expression
reference forms in oracle.py, in the same memory order, and never write
into an argument: on the fixture's arrays, and on drawn shapes, segment
lengths and memory orders. The solver's one refit equals the plain row
and column slice expressions on drawn shapes, kept units and orders."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import STD_N, STD_SEQ, build_toy
from struprune import oracle
from struprune.admm import (
    BlockState,
    SolverConfig,
    _descend,
    _refit,
    _Residual,
    ffn_objective,
    ffn_update_activation,
    ffn_update_output,
    mha_grad_a,
    mha_grad_attn,
    mha_grad_z,
    mha_obj_a,
    mha_obj_attn,
    mha_obj_z,
)
from struprune.importance import l0_gates, unit_scores
from struprune.linalg import make_rng, ridge_solve, row_softmax
from struprune.model import COL, FFN, MATRIX_IO, MHA, ROW, BlockActivations

ALPHA, BETA = 0.7, 1.3
SEGMENTS = [None, STD_SEQ]
# Which arrays are Fortran-ordered: none; the activation iterate a, as
# linalg.cho_solve returns it; every array.
LAYOUTS = ["C", "a-F", "all-F"]


def frozen(arr, fortran=False):
    out = np.asfortranarray(arr) if fortran else np.array(arr, order="C")
    out.setflags(write=False)
    return out


def assert_same(got, ref):
    if isinstance(ref, float):
        assert type(got) is float and got == ref
        return
    assert np.array_equal(got, ref)
    assert (got.flags.c_contiguous, got.flags.f_contiguous) == (
        ref.flags.c_contiguous,
        ref.flags.f_contiguous,
    )


def closed_form_scores(w, x, target):
    """unit_scores under the closed-form criterion for w acting on x,
    the input_pre of a record that froze no dense matrix, so that c_rows
    is the GEMM w @ x."""
    rec = BlockActivations(FFN, x, None, None, None, None)
    return unit_scores("closed-form", w, rec, "w1", target, 8, None)


def assert_same_l0_gates(w, x, target, steps=5):
    got = l0_gates(w @ x, target, 8, make_rng(4), steps=steps)
    assert_same(got, oracle.l0_gates_reference(w, x, target, 8, make_rng(4), steps=steps))


def _noisy(rng, arr, scale):
    return arr + scale * rng.normal(size=arr.shape)


def _masked_rows(rng, w):
    keep = rng.random(w.shape[0]) < 0.6
    return w * keep[:, None]


@pytest.fixture(scope="module")
def decoder():
    model, _, cache = build_toy("decoder")
    return model, cache


@pytest.fixture(params=LAYOUTS)
def mha_args(request, decoder):
    """Iterates and masked weights of the first MHA block, moved off the
    reference so no residual is zero."""
    model, cache = decoder
    layer = next(i for i, b in enumerate(model.blocks) if b.kind == MHA)
    block, rec = model.blocks[layer], cache.blocks[layer]
    rng = make_rng(5)
    all_f = request.param == "all-F"
    args = {
        "a": frozen(_noisy(rng, rec.a_pre, 0.01), fortran=request.param != "C"),
        "a_attn": frozen(_noisy(rng, rec.a_attn_pre, 0.05), all_f),
        "z": frozen(_noisy(rng, 0.5 * (rec.q_pre + rec.k_pre), 0.1), all_f),
        "q_pre": frozen(block.wq @ rec.input_pre, all_f),
        "k_pre": frozen(block.wk @ rec.input_pre, all_f),
        "out_pre": frozen(rec.out_pre, all_f),
        "wv": frozen(_masked_rows(rng, block.wv), all_f),
        "wo": frozen(block.wo, all_f),
        "head_scale": float(np.sqrt(block.wq.shape[0] // block.num_heads)),
    }
    return args


@pytest.mark.parametrize("seg_len", SEGMENTS)
@pytest.mark.parametrize("fortran", [False, True])
def test_row_softmax(decoder, seg_len, fortran):
    model, cache = decoder
    rec = cache.blocks[0]
    z = frozen(_noisy(make_rng(3), 0.5 * (rec.q_pre + rec.k_pre), 0.1), fortran)
    assert_same(row_softmax(z, 2.0, seg_len), oracle.row_softmax_reference(z, 2.0, seg_len))


def check_activation_kernels(a, wv, a_attn, z, alpha, beta, head_scale, seg_len):
    """mha_obj_a and mha_grad_a called the way admm.mha_update calls
    them: the objective fills the shared residual and the gradient at the
    same iterate reuses it; a gradient on a fresh memo computes it."""
    ref = (a, wv, a_attn, z, alpha, beta, head_scale, seg_len)
    resid = _Residual(a_attn, wv)
    assert_same(mha_obj_a(a, resid, z, alpha, beta, head_scale, seg_len),
                oracle.mha_obj_a_reference(*ref))
    ref_grad = oracle.mha_grad_a_reference(*ref)
    assert_same(mha_grad_a(a, resid, z, alpha, beta, head_scale, seg_len), ref_grad)
    assert_same(mha_grad_a(a, _Residual(a_attn, wv), z, alpha, beta, head_scale, seg_len), ref_grad)


def check_attention_kernels(a_attn, wo, wv, a, out_pre, alpha):
    """mha_obj_attn and mha_grad_attn as admm.mha_update calls them, with
    v = Wv a formed once; memo use as in check_activation_kernels."""
    ref = (a_attn, wo, wv, a, out_pre, alpha)
    v = frozen(wv @ a)
    resid = _Residual(out_pre, wo)
    assert_same(mha_obj_attn(a_attn, resid, v, alpha), oracle.mha_obj_attn_reference(*ref))
    ref_grad = oracle.mha_grad_attn_reference(*ref)
    assert_same(mha_grad_attn(a_attn, resid, v, alpha), ref_grad)
    assert_same(mha_grad_attn(a_attn, _Residual(out_pre, wo), v, alpha), ref_grad)


def check_output_kernels(*args):
    assert_same(mha_obj_z(*args), oracle.mha_obj_z_reference(*args))
    assert_same(mha_grad_z(*args), oracle.mha_grad_z_reference(*args))


@pytest.mark.parametrize("seg_len", [STD_SEQ])
def test_activation_kernels(mha_args, seg_len):
    p = mha_args
    check_activation_kernels(p["a"], p["wv"], p["a_attn"], p["z"], ALPHA, BETA, p["head_scale"], seg_len)


def test_attention_kernels(mha_args):
    p = mha_args
    check_attention_kernels(p["a_attn"], p["wo"], p["wv"], p["a"], p["out_pre"], ALPHA)


# One token per segment and one segment make the plain form's spread of
# the segment sums a view, which changes the gradient's memory order.
@pytest.mark.parametrize("seg_len", [1, STD_SEQ, STD_N * STD_SEQ])
def test_output_kernels(mha_args, seg_len):
    p = mha_args
    check_output_kernels(p["z"], p["a"], p["q_pre"], p["k_pre"], ALPHA, BETA, p["head_scale"], seg_len)


@st.composite
def kernel_inputs(draw):
    """The arrays of one MHA block's sub-solves (d x d matrices, as every
    MHA block has, and d x T iterates over T = segments * seg_len tokens),
    a memory order per array, and a seed for the values."""
    d = draw(st.integers(1, 9), label="d")
    seg_len = draw(st.integers(1, 7), label="seg_len")
    tokens = seg_len * draw(st.integers(1, 4), label="segments")
    names = ("a", "z", "q_pre", "k_pre", "wv", "a_attn", "wo", "out_pre")
    shapes = {name: (d, d) if name in ("wv", "wo") else (d, tokens) for name in names}
    fortran = {name: draw(st.booleans(), label=f"{name} Fortran") for name in names}
    rng = make_rng(draw(st.integers(0, 2**16), label="seed"))
    arrays = {name: frozen(rng.normal(size=shape), fortran[name]) for name, shape in shapes.items()}
    scalars = {"alpha": draw(st.floats(0.1, 3.0)), "beta": draw(st.floats(0.1, 3.0)),
               "head_scale": draw(st.sampled_from([1.0, float(np.sqrt(2)), 2.0, 3.0]))}
    return arrays, scalars, seg_len


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(kernel_inputs())
def test_kernels_match_references_on_drawn_inputs(inputs):
    p, s, seg_len = inputs
    alpha, beta, scale = s["alpha"], s["beta"], s["head_scale"]
    check_activation_kernels(p["a"], p["wv"], p["a_attn"], p["z"], alpha, beta, scale, seg_len)
    check_attention_kernels(p["a_attn"], p["wo"], p["wv"], p["a"], p["out_pre"], alpha)
    check_output_kernels(p["z"], p["a"], p["q_pre"], p["k_pre"], alpha, beta, scale, seg_len)
    for seg in (None, seg_len):
        assert_same(row_softmax(p["z"], scale, seg), oracle.row_softmax_reference(p["z"], scale, seg))


def test_residual_memo_keyed_on_iterate(mha_args):
    p = mha_args
    resid = _Residual(p["a_attn"], p["wv"])
    first = resid(p["a"])
    assert resid(p["a"]) is first
    other = frozen(p["a"] + 0.0)
    assert np.array_equal(resid(other), first) and resid(other) is not first


def test_descend_step_matches_plain_update(mha_args):
    p = mha_args
    x0 = p["a_attn"]
    grad = lambda x: 2.0 * (x - p["out_pre"])  # noqa: E731
    obj = lambda x: float(np.sum(x * x))  # noqa: E731
    x = x0
    for _ in range(3):
        x = x - 0.01 * grad(x)
    assert_same(_descend(x0, obj, grad, 3, 0.01, "unit", 0, 1), x)


@pytest.fixture(params=LAYOUTS)
def ffn_args(request, decoder):
    model, cache = decoder
    layer = next(i for i, b in enumerate(model.blocks) if b.kind == FFN)
    block, rec = model.blocks[layer], cache.blocks[layer]
    rng = make_rng(9)
    all_f = request.param == "all-F"
    z = _noisy(rng, rec.z_pre, 0.1)
    z[:, ::5] = 0.0  # the output update branches on z < 0
    return {
        "layer": layer,
        "rec": rec,
        "a": frozen(_noisy(rng, np.maximum(rec.z_pre, 0.0), 0.05), fortran=request.param != "C"),
        "z": frozen(z, all_f),
        "input_pre": frozen(rec.input_pre, all_f),
        "out_pre": frozen(rec.out_pre, all_f),
        "w1": frozen(_masked_rows(rng, block.w1), all_f),
        "w2": frozen(block.w2, all_f),
        "target": frozen(_noisy(rng, block.w1 @ rec.input_pre, 0.1), all_f),
    }


def test_closed_form_scores(ffn_args):
    p = ffn_args
    got = closed_form_scores(p["w1"], p["input_pre"], p["target"])
    assert_same(got, oracle.closed_form_scores_reference(p["w1"], p["input_pre"], p["target"]))


def test_l0_gates(ffn_args):
    p = ffn_args
    assert_same_l0_gates(p["w1"], p["input_pre"], p["target"], steps=100)


@pytest.mark.parametrize("name", ["w1", "wq", "wk", "wv"])
def test_closed_form_scores_of_a_dense_matrix_read_the_record(decoder, name):
    # c_rows of a captured dense matrix is the record's frozen product,
    # and the scores are those of the GEMM, bit for bit.
    model, cache = decoder
    rng = make_rng(3)
    for block, rec in zip(model.blocks, cache.blocks):
        if name in block.matrices:
            w = block.matrices[name]
            x = rec.array(MATRIX_IO[name][0])
            target = frozen(_noisy(rng, w @ x, 0.1))
            assert rec.product(name, w) is getattr(rec, MATRIX_IO[name][1])
            got = unit_scores("closed-form", w, rec, name, target, 8, None)
            assert_same(got, oracle.closed_form_scores_reference(w, x, target))


def test_ffn_activation_update(ffn_args):
    p = ffn_args
    args = (p["w2"], p["out_pre"], p["z"], ALPHA, BETA)
    assert_same(ffn_update_activation(*args), oracle.ffn_update_activation_reference(*args))


def test_ffn_output_update(ffn_args):
    p = ffn_args
    args = (p["w1"], p["input_pre"], p["a"], p["z"], ALPHA, BETA)
    assert_same(ffn_update_output(*args), oracle.ffn_update_output_reference(*args))


@pytest.mark.parametrize("layout", LAYOUTS)
def test_row_blocked_kernels_across_blocks(layout):
    # 150 rows: two full 64-row blocks of model._row_blocks and a short one
    # (the fixture's 64-row FFN fits in one block).
    rng = make_rng(11)
    all_f = layout == "all-F"
    w = frozen(rng.normal(size=(150, 12)), all_f)
    x = frozen(rng.normal(size=(12, 40)), all_f)
    target = frozen(rng.normal(size=(150, 40)), all_f)
    a = frozen(rng.normal(size=(150, 40)), layout != "C")
    z = frozen(rng.normal(size=(150, 40)), all_f)
    got = closed_form_scores(w, x, target)
    assert_same(got, oracle.closed_form_scores_reference(w, x, target))
    assert_same_l0_gates(w, x, target, steps=100)
    args = (w, x, a, z, ALPHA, BETA)
    assert_same(ffn_update_output(*args), oracle.ffn_update_output_reference(*args))


def test_ffn_objective(ffn_args):
    p = ffn_args
    rec = p["rec"]
    state = BlockState(p["layer"], FFN, {"w1": p["w1"], "w2": p["w2"]}, {}, z=p["z"], a=p["a"])
    ref = oracle.ffn_objective_reference(p["w1"], p["w2"], rec, p["a"], p["z"], ALPHA, BETA, 8)
    assert_same(ffn_objective(state, rec, SolverConfig(alpha=ALPHA, beta=BETA), 8), ref)


def refit_reference(w_hat, bits, x_in, target, eps, axis):
    """The ridge refit of the kept rows (ROW) or columns (COL) of w_hat,
    written out per axis."""
    out = w_hat.copy()
    kept = np.flatnonzero(bits)
    if kept.size and axis == ROW:
        residual = target[kept] - w_hat[kept] @ x_in
        out[kept] = w_hat[kept] + ridge_solve(x_in.T, residual.T, eps).T
    elif kept.size:
        residual = target - w_hat[:, kept] @ x_in[kept]
        out[:, kept] = w_hat[:, kept] + ridge_solve(x_in[kept].T, residual.T, eps).T
    return out


@st.composite
def refit_inputs(draw):
    """A matrix of `units` row or column units, its input x_in and target,
    a kept-unit pattern (none, all or drawn) and a memory order per array."""
    axis = draw(st.sampled_from([ROW, COL]), label="axis")
    units, other = draw(st.integers(1, 9), label="units"), draw(st.integers(1, 9), label="other dim")
    tokens = draw(st.integers(1, 12), label="tokens")
    rng = make_rng(draw(st.integers(0, 2**16), label="seed"))
    pattern = draw(st.sampled_from(["none", "all", "random"]), label="kept")
    bits = {"none": np.zeros(units, bool), "all": np.ones(units, bool)}.get(pattern, rng.random(units) < 0.5)
    shapes = {
        "w_hat": (units, other) if axis == ROW else (other, units),
        "x_in": (other if axis == ROW else units, tokens),
        "target": (units if axis == ROW else other, tokens),
    }
    arrays = {name: frozen(rng.normal(size=shape), draw(st.booleans(), label=f"{name} Fortran"))
              for name, shape in shapes.items()}
    bits.setflags(write=False)
    eps = draw(st.sampled_from([1e-3, 0.1, 1.0]), label="eps")
    return arrays["w_hat"], bits, arrays["x_in"], arrays["target"], eps, axis


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(refit_inputs())
def test_refit_matches_slice_expressions(args):
    assert_same(_refit(*args), refit_reference(*args))


@st.composite
def ffn_kernel_inputs(draw):
    """One FFN block's kernel arguments: w1 (n x d), the input (d x T), a
    target and iterates (n x T), w2 (d x n), with n up to past two of
    model._row_blocks' 64-row blocks, and a memory order per array."""
    n, d = draw(st.integers(1, 140), label="n"), draw(st.integers(1, 9), label="d")
    tokens = draw(st.integers(1, 12), label="tokens")
    shapes = {"w1": (n, d), "x": (d, tokens), "target": (n, tokens), "a": (n, tokens),
              "z": (n, tokens), "w2": (d, n), "out_pre": (d, tokens)}
    rng = make_rng(draw(st.integers(0, 2**16), label="seed"))
    arrays = {name: frozen(rng.normal(size=shape), draw(st.booleans(), label=f"{name} Fortran"))
              for name, shape in shapes.items()}
    alpha, beta = draw(st.floats(0.1, 3.0), label="alpha"), draw(st.floats(0.1, 3.0), label="beta")
    return arrays, alpha, beta


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(ffn_kernel_inputs())
def test_ffn_kernels_match_references_on_drawn_inputs(inputs):
    p, alpha, beta = inputs
    got = closed_form_scores(p["w1"], p["x"], p["target"])
    assert_same(got, oracle.closed_form_scores_reference(p["w1"], p["x"], p["target"]))
    assert_same_l0_gates(p["w1"], p["x"], p["target"])
    args = (p["w2"], p["out_pre"], p["z"], alpha, beta)
    assert_same(ffn_update_activation(*args), oracle.ffn_update_activation_reference(*args))
    args = (p["w1"], p["x"], p["a"], p["z"], alpha, beta)
    assert_same(ffn_update_output(*args), oracle.ffn_update_output_reference(*args))
