"""Capture policies (model.CapturePolicy): what each one-shot stage's
capture keeps of the frozen reference once the forward has passed a
block, and the statistics it takes first. A dropped array must cost no
bit of any artifact, and its bytes must come off the stage's peak."""

import numpy as np
import pytest

from conftest import STD_ARCH
from struprune.allocation import (allocate_plan, apply_masks, build_masks, global_closed_form_masks,
                                  temperature_sweep, uniform_plan)
from struprune.errors import CapabilityError, ParameterError
from struprune import evaluation, model as model_module, oracle
from struprune.evaluation import total_reconstruction_loss
from struprune.importance import layer_importance
from struprune.linalg import make_rng, relu
from struprune.model import (FFN, LOSS_HELD, MASK_BEARING, MATRIX_IO, MHA, STORED, BlockActivations,
                             CapturePolicy, ModelArch, capture_reference_activations, generate_toy_model,
                             make_calibration)

LOSS = CapturePolicy("loss", ("col_l1", "energies"))


def fixture(layout, n=8, seq=16, seed=41, arch=STD_ARCH):
    model = generate_toy_model(arch, make_rng(seed), layout=layout)
    calib = make_calibration(arch, n, seq, make_rng(seed + 1))
    return model, calib


def test_policy_names_are_checked():
    with pytest.raises(ParameterError, match="unknown capture policy"):
        CapturePolicy("some")
    with pytest.raises(ParameterError, match="unknown capture statistics"):
        CapturePolicy("lean", ("col_l2",))


@pytest.mark.parametrize("layout", ["decoder", "ffn", "mha"])
def test_loss_records_hold_the_column_unit_arrays(layout):
    model, calib = fixture(layout)
    full = capture_reference_activations(model, calib)
    loss = capture_reference_activations(model, calib, threads=2, policy=LOSS)
    for rec, want in zip(loss.blocks, full.blocks):
        # An FFN record holds out_pre and relu(z_pre) as its nonzeros, not
        # z_pre; the store is about half of z_pre's bytes.
        assert set(rec.frozen_arrays()) | set(rec.nonzeros) == set(LOSS_HELD[rec.kind])
        assert set(rec.nonzeros) == ({"a_pre"} if rec.kind == FFN else set())
        # An MHA record holds no out_pre: the loss forms it again.
        assert (rec.out_pre is None) == (rec.kind == MHA)
        for name in LOSS_HELD[rec.kind]:
            if name in rec.nonzeros:
                assert np.array_equal(rec.array(name), relu(want.z_pre))
                held = sum(values.nbytes + bits.nbytes for _, values, bits in rec.nonzeros[name].chunks)
                assert held < 0.6 * want.z_pre.nbytes
            else:
                assert getattr(rec, name).tobytes() == getattr(want, name).tobytes()
        for x_name in {MATRIX_IO[m][0] for m in rec.dense}:
            assert rec.col_l1(x_name).tobytes() == want.col_l1(x_name).tobytes()
        assert not rec.lean
    # A product other than dense rows or zero needs the dropped input.
    rec, block = loss.blocks[0], model.blocks[0]
    name = MASK_BEARING[block.kind][0]
    with pytest.raises(CapabilityError, match="capture policy dropped it"):
        rec.product(name, 2.0 * block.matrices[name])
    # A read of the relu store other than a product, a whole array or
    # finiteness raises too (eval's records take no col_l1 at capture).
    rec = capture_reference_activations(model, calib, policy=CapturePolicy("loss", ("energies",))).blocks[-1]
    if rec.kind == FFN:
        with pytest.raises(CapabilityError, match="capture policy dropped it"):
            rec.col_l1("a_pre")
    # So does a whole read of an array derived from dropped ones.
    for rec in loss.blocks:
        if rec.kind == MHA:
            with pytest.raises(CapabilityError, match="capture policy dropped it"):
                rec.array("z_pre")


@pytest.mark.parametrize("layout", ["decoder", "ffn", "mha"])
def test_one_shot_stages_read_the_same_bits(layout):
    model, calib = fixture(layout)
    full = capture_reference_activations(model, calib)
    stats = capture_reference_activations(model, calib, threads=2,
                                          policy=CapturePolicy("lean", ("col_l1", "row_means")))
    loss = capture_reference_activations(model, calib, threads=2, policy=LOSS)
    for rec in stats.blocks:
        assert set(rec.frozen_arrays()) == set(STORED[rec.kind]) - {MATRIX_IO[m][1] for m in MASK_BEARING[rec.kind]}
    for method in ("softmax", "closed-form"):
        assert allocate_plan(model, stats, method, 0.5) == allocate_plan(model, full, method, 0.5)
    for got, want in zip(global_closed_form_masks(model, stats, 0.4)[0].values(),
                         global_closed_form_masks(model, full, 0.4)[0].values()):
        assert {m: b.tobytes() for m, b in got.items()} == {m: b.tobytes() for m, b in want.items()}
    assert layer_importance(model, loss, "wanda-sum") == layer_importance(model, full, "wanda-sum")
    pruned = apply_masks(model, build_masks(model, loss, uniform_plan(model, 0.4), "wanda"))
    assert total_reconstruction_loss(pruned, loss, threads=2) == total_reconstruction_loss(pruned, full)
    want = temperature_sweep(model, full, [0.3, 1.0], "softmax", 0.4)
    got = temperature_sweep(model, loss, [0.3, 1.0], "softmax", 0.4, threads=2)
    assert (got[0], got[1].entries, got[2]) == (want[0], want[1].entries, want[2])


def test_loss_records_keep_what_the_leafwise_path_reads():
    # T = 65: numpy's pairwise tree splits rows, so the energies cannot
    # give the row-unit terms and nothing is dropped.
    model, calib = fixture("decoder", n=5, seq=13)
    loss = capture_reference_activations(model, calib, policy=LOSS)
    full = capture_reference_activations(model, calib)
    for rec in loss.blocks:
        assert set(rec.frozen_arrays()) == set(STORED[rec.kind])
    pruned = apply_masks(model, build_masks(model, full, uniform_plan(model, 0.4), "wanda"))
    assert total_reconstruction_loss(pruned, loss) == total_reconstruction_loss(pruned, full)


def test_loss_records_take_row_means_from_z_pre():
    # The w1 product's row means read z_pre, so a "loss" capture that
    # takes them packs the relu store from a whole z_pre.
    model, calib = fixture("ffn")
    loss = capture_reference_activations(model, calib, policy=CapturePolicy("loss", ("row_means", "energies")))
    full = capture_reference_activations(model, calib)
    for rec, want in zip(loss.blocks, full.blocks, strict=True):
        assert "a_pre" in rec.nonzeros and rec.z_pre is None
        assert rec._dense_means("w1").tobytes() == want._dense_means("w1").tobytes()


@pytest.mark.parametrize("arch", [STD_ARCH, ModelArch(d=16, num_layers=2, num_heads=2, ffn_dim=16)])
def test_closed_form_plan_forms_no_product_on_lean_records(arch, monkeypatch):
    # admm --method closed-form: the plan reads the row means that capture
    # took before it dropped the products, with no GEMM of its own.
    model, calib = fixture("ffn", arch=arch)
    want = allocate_plan(model, capture_reference_activations(model, calib), "closed-form", 0.5)
    lean = capture_reference_activations(model, calib, policy=CapturePolicy("lean", ("col_l1", "row_means")))

    def no_gemm(*_):
        raise AssertionError("a product was formed")

    monkeypatch.setattr(BlockActivations, "_gemm", no_gemm)
    assert allocate_plan(model, lean, "closed-form", 0.5) == want


def plant_negative_zeros(monkeypatch):
    """-0.0 in the dense reference: every other entry of the +0.0 rows
    that the zero w1 rows of an FFN block give z_pre is set to -0.0 in
    the dense forward of each record that holds z_pre (z_pre stays the
    frozen product: a kept row's residual is still zero), and relu(z) as
    a record derives it reads each zero as -0.0. The relu store reads
    +0.0 there."""
    real = model_module._forward_block

    def forward(block, x, *args):
        rec = real(block, x, *args)
        if rec.z_pre is not None:
            rec.z_pre[~block.w1.any(axis=1), ::2] = -0.0
        return rec

    def negative_zero_relu(z, out=None):
        a = relu(z, out=out)
        a[a == 0.0] = -0.0
        return a

    monkeypatch.setattr(model_module, "_forward_block", forward)
    monkeypatch.setitem(model_module.DERIVED[FFN], "a_pre", (("z_pre",), negative_zero_relu))


@pytest.mark.parametrize("n, seq", [(8, 16), (128, 64), (96, 16), (190, 16), (96, 64)])  # T = 128, 8192, 1536, 3040, 6144
@pytest.mark.parametrize("layout", ["decoder", "ffn"])
def test_relu_store_keeps_the_loss_bits(layout, n, seq, monkeypatch):
    # At T = 128 (one sub-tile) and 8192 (sixteen) the store is formed in
    # the forward, a 512-token sub-tile per job, without a whole z_pre;
    # at T = 1536 a token tile per job, since numpy's pairwise tree over
    # a row splits at 768 tokens, so its sub-tiles are not tree nodes;
    # at T = 3040 (two 1520-token loss tiles, each ending in a 496-token
    # sub-tile) and 6144 (1536-token loss tiles) the loss tiles are not
    # the forward's, so it is packed from z_pre, still one chunk per
    # sub-tile of the forward's, which the loss's sub-tiles cross.
    model, calib = fixture(layout, n=n, seq=seq)
    for block in model.blocks:
        if block.kind == FFN:
            block.w1[:4] = 0.0
    calib.inputs[0, :3] = 0.0  # +0.0 columns of the first block's z_pre in the FFN layout
    plant_negative_zeros(monkeypatch)
    full = capture_reference_activations(model, calib)
    streamed, form = [], model_module._forward_ffn_nonzeros
    monkeypatch.setattr(model_module, "_forward_ffn_nonzeros", lambda *a: streamed.append(form(*a)) or streamed[-1])
    loss = capture_reference_activations(model, calib, threads=2, policy=LOSS)
    width = {128: model_module.SUB_TILE_TOKENS, 8192: model_module.SUB_TILE_TOKENS, 1536: model_module.TILE_TOKENS}
    assert model_module._stream_width(n * seq) == width.get(n * seq)
    assert len(streamed) == (sum(b.kind == FFN for b in model.blocks) if n * seq in width else 0)
    for rec, want in zip(loss.blocks, full.blocks):
        if rec.kind == FFN:
            assert "a_pre" in rec.nonzeros and rec.z_pre is None
            assert np.signbit(want.z_pre[:4, ::2]).all() and not np.signbit(want.z_pre[:4, 1::2]).any()
            a = want.array("a_pre")
            assert np.signbit(a[a == 0.0]).all()
            assert np.array_equal(rec.array("a_pre"), a)
            assert not np.signbit(rec.array("a_pre")).any()
            # The statistics a streamed record takes from its tiles.
            assert rec.row_energies("up").tobytes() == want.row_energies("up").tobytes()
            assert rec.col_l1("a_pre").tobytes() == want.col_l1("a_pre").tobytes()
    rng = make_rng(7)
    for kept in (0.6, 1.0, 0.0):
        masks = {i: {m: rng.random(b.matrices[m].shape[0]) < kept for m in MASK_BEARING[b.kind]}
                 for i, b in enumerate(model.blocks)}
        pruned = apply_masks(model, masks)
        got = total_reconstruction_loss(pruned, loss, threads=2)
        want = total_reconstruction_loss(pruned, full)
        ref = oracle.total_reconstruction_loss_reference(pruned, full)
        assert (got.per_layer, got.total, got.terms) == (want.per_layer, want.total, want.terms)
        assert (got.per_layer, got.total) == (ref.per_layer, ref.total)
        # The whole product (the leafwise path's) crosses the store's chunks.
        for pb, rec, full_rec in zip(pruned.blocks, loss.blocks, full.blocks):
            if pb.kind == FFN:
                assert np.array_equal(rec.product("w2", pb.w2), full_rec.product("w2", pb.w2))
    want = temperature_sweep(model, full, [0.3, 1.0], "softmax", 0.4)
    got = temperature_sweep(model, loss, [0.3, 1.0], "softmax", 0.4, threads=2)
    assert (got[0], got[1].entries, got[2]) == (want[0], want[1].entries, want[2])


@pytest.mark.parametrize("arch, n, seq, path", [
    (STD_ARCH, 128, 64, "tiled"),  # T = 8192: four 2048-token loss tiles, the forward's
    (STD_ARCH, 190, 16, "tiled"),  # T = 3040: two 1520-token loss tiles, off the forward's grid
    (STD_ARCH, 96, 64, "tiled"),  # T = 6144: four 1536-token loss tiles
    (ModelArch(d=1, num_layers=2, num_heads=1), 5, 13, "leafwise"),  # T = 65: one-row terms are exact
])
def test_mha_loss_records_form_out_pre_again(arch, n, seq, path, monkeypatch):
    model, calib = fixture("mha", n=n, seq=seq, arch=arch)
    full = capture_reference_activations(model, calib)
    loss = capture_reference_activations(model, calib, threads=2, policy=LOSS)
    for rec, want in zip(loss.blocks, full.blocks, strict=True):
        assert rec.out_pre is None and rec.row_energies("qk") is not None and rec.row_energies("val") is not None
        # wo @ a_attn_pre has the captured bits, tile by tile and whole.
        wo = rec.dense["wo"]
        assert rec.product("wo", wo).tobytes() == want.out_pre.tobytes()
        for lo, hi in ((0, n * seq // 2), (n * seq // 2, n * seq)):
            assert rec._gemm("wo", wo, slice(lo, hi)).tobytes() == want.out_pre[:, lo:hi].tobytes()
    tiles = []
    real = evaluation._tile_sums
    monkeypatch.setattr(evaluation, "_tile_sums", lambda rec, target, *a: tiles.append(target) or real(rec, target, *a))
    rng = make_rng(9)
    for kept in (0.6, 1.0, 0.0):
        masks = {i: {m: rng.random(b.matrices[m].shape[0]) < kept for m in MASK_BEARING[b.kind]}
                 for i, b in enumerate(model.blocks)}
        pruned = apply_masks(model, masks)
        refit = pruned.copy()
        refit.blocks[0].wo *= 1 + 1e-3
        for m in (pruned, refit):
            got = total_reconstruction_loss(m, loss, threads=2)
            want = total_reconstruction_loss(m, full)
            assert (got.per_layer, got.total, got.terms) == (want.per_layer, want.total, want.terms)
            ref = oracle.total_reconstruction_loss_reference(m, full)
            assert (got.per_layer, got.total) == (ref.per_layer, ref.total)
    assert ("out_pre" in tiles) == (path == "tiled")
