"""Capture policies (model.CapturePolicy): what each one-shot stage's
capture keeps of the frozen reference once the forward has passed a
block, and the statistics it takes first. A dropped array must cost no
bit of any artifact, and its bytes must come off the stage's peak."""

import pytest

from conftest import STD_ARCH
from struprune.allocation import (allocate_plan, apply_masks, build_masks, global_closed_form_masks,
                                  temperature_sweep, uniform_plan)
from struprune.errors import CapabilityError, ParameterError
from struprune.evaluation import total_reconstruction_loss
from struprune.importance import layer_importance
from struprune.linalg import make_rng
from struprune.model import (LOSS_HELD, MASK_BEARING, MATRIX_IO, STORED, BlockActivations, CapturePolicy,
                             ModelArch, capture_reference_activations, generate_toy_model,
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
        assert set(rec.frozen_arrays()) == set(LOSS_HELD[rec.kind])
        for name in LOSS_HELD[rec.kind]:
            assert getattr(rec, name).tobytes() == getattr(want, name).tobytes()
        for x_name in {MATRIX_IO[m][0] for m in rec.dense}:
            assert rec.col_l1(x_name).tobytes() == want.col_l1(x_name).tobytes()
        assert not rec.lean
    # A product other than dense rows or zero needs the dropped input.
    rec, block = loss.blocks[0], model.blocks[0]
    name = MASK_BEARING[block.kind][0]
    with pytest.raises(CapabilityError, match="capture policy dropped it"):
        rec.product(name, 2.0 * block.matrices[name])


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
