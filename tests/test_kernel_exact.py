"""The in-place solver kernels return the bits of their plain-expression
reference forms in oracle.py, in the same memory order, and never write
into an argument."""

import numpy as np
import pytest

from conftest import STD_SEQ, build_toy
from struprune import oracle
from struprune.admm import (
    BlockState,
    SolverConfig,
    _descend,
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
    prune_scores,
)
from struprune.linalg import make_rng, row_softmax
from struprune.model import FFN, MHA

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
        "z": frozen(_noisy(rng, rec.z_pre, 0.1), all_f),
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
    z = frozen(_noisy(make_rng(3), cache.blocks[0].z_pre, 0.1), fortran)
    assert_same(row_softmax(z, 2.0, seg_len), oracle.row_softmax_reference(z, 2.0, seg_len))


@pytest.mark.parametrize("seg_len", [STD_SEQ])
def test_activation_kernels(mha_args, seg_len):
    p = mha_args
    args = (p["a"], p["wv"], p["a_attn"], p["z"], ALPHA, BETA, p["head_scale"], seg_len)
    ref_obj = oracle.mha_obj_a_reference(*args)
    ref_grad = oracle.mha_grad_a_reference(*args)
    assert_same(mha_obj_a(*args), ref_obj)
    assert_same(mha_grad_a(*args), ref_grad)
    # The objective fills the shared residual, the gradient reuses it.
    resid = _Residual(p["a_attn"], p["wv"])
    assert_same(mha_obj_a(*args, resid), ref_obj)
    assert_same(mha_grad_a(*args, resid), ref_grad)


def test_attention_kernels(mha_args):
    p = mha_args
    args = (p["a_attn"], p["wo"], p["wv"], p["a"], p["out_pre"], ALPHA)
    ref_obj = oracle.mha_obj_attn_reference(*args)
    ref_grad = oracle.mha_grad_attn_reference(*args)
    assert_same(mha_obj_attn(*args), ref_obj)
    assert_same(mha_grad_attn(*args), ref_grad)
    v = frozen(p["wv"] @ p["a"])
    resid = _Residual(p["out_pre"], p["wo"])
    assert_same(mha_obj_attn(*args, v, resid), ref_obj)
    assert_same(mha_grad_attn(*args, v, resid), ref_grad)


@pytest.mark.parametrize("seg_len", [STD_SEQ])
def test_output_kernels(mha_args, seg_len):
    p = mha_args
    args = (p["z"], p["a"], p["q_pre"], p["k_pre"], ALPHA, BETA, p["head_scale"], seg_len)
    assert_same(mha_obj_z(*args), oracle.mha_obj_z_reference(*args))
    assert_same(mha_grad_z(*args), oracle.mha_grad_z_reference(*args))


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
    assert_same(_descend(x0, obj, grad, 3, 0.01, "unit", 0), x)


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
        "a": frozen(_noisy(rng, rec.a_pre, 0.05), fortran=request.param != "C"),
        "z": frozen(z, all_f),
        "input_pre": frozen(rec.input_pre, all_f),
        "out_pre": frozen(rec.out_pre, all_f),
        "w1": frozen(_masked_rows(rng, block.w1), all_f),
        "w2": frozen(block.w2, all_f),
        "target": frozen(_noisy(rng, block.w1 @ rec.input_pre, 0.1), all_f),
    }


def test_closed_form_scores(ffn_args):
    p = ffn_args
    got = prune_scores(p["w1"], p["input_pre"], p["target"], "closed-form", 8)
    assert_same(got, oracle.closed_form_scores_reference(p["w1"], p["input_pre"], p["target"]))


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
    # 150 rows: two full 64-row blocks of admm._row_blocks and a short one
    # (the fixture's 64-row FFN fits in one block).
    rng = make_rng(11)
    all_f = layout == "all-F"
    w = frozen(rng.normal(size=(150, 12)), all_f)
    x = frozen(rng.normal(size=(12, 40)), all_f)
    target = frozen(rng.normal(size=(150, 40)), all_f)
    a = frozen(rng.normal(size=(150, 40)), layout != "C")
    z = frozen(rng.normal(size=(150, 40)), all_f)
    got = prune_scores(w, x, target, "closed-form", 8)
    assert_same(got, oracle.closed_form_scores_reference(w, x, target))
    args = (w, x, a, z, ALPHA, BETA)
    assert_same(ffn_update_output(*args), oracle.ffn_update_output_reference(*args))


def test_ffn_objective(ffn_args):
    p = ffn_args
    rec = p["rec"]
    state = BlockState(p["layer"], FFN, {"w1": p["w1"], "w2": p["w2"]}, {}, z=p["z"], a=p["a"])
    ref = oracle.ffn_objective_reference(p["w1"], p["w2"], rec, p["a"], p["z"], ALPHA, BETA, 8)
    assert_same(ffn_objective(state, rec, SolverConfig(alpha=ALPHA, beta=BETA), 8), ref)
