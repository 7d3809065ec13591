"""The one-shot stages read products and input statistics from the frozen
activation cache with the bits of the plain expressions in oracle.py;
capture freezes the dense matrices those products came from."""

import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from conftest import build_toy
from struprune import oracle
from struprune.allocation import (
    apply_masks,
    build_masks,
    closed_form_context,
    global_closed_form_masks,
    temperature_sweep,
    uniform_plan,
)
from struprune.evaluation import total_reconstruction_loss
from struprune.importance import block_unit_scores, layer_importance, wanda_unit
from struprune.linalg import make_rng
from struprune.model import (
    DEFAULT_AXES,
    DERIVED,
    FFN,
    MASK_BEARING,
    MATRIX_IO,
    MHA,
    ROW,
    STORED,
    BlockActivations,
    ModelArch,
    capture_reference_activations,
    generate_toy_model,
    make_calibration,
)

SQUARE_FFN = ModelArch(d=16, num_layers=2, num_heads=2, ffn_dim=16)


def toy(kind):
    if kind == "square-ffn":
        return build_toy("ffn", arch=SQUARE_FFN)
    return build_toy(kind)


def one_shot_pruned(model, cache, criterion):
    if criterion == "closed-form":
        masks, _ = global_closed_form_masks(model, cache, 0.4)
    else:
        masks = build_masks(model, cache, uniform_plan(model, 0.4), criterion)
    return apply_masks(model, masks)


def assert_same_loss(pruned, cache, alpha=1.7):
    got = total_reconstruction_loss(pruned, cache, alpha=alpha)
    ref = oracle.total_reconstruction_loss_reference(pruned, cache, alpha=alpha)
    assert got.per_layer == ref.per_layer
    assert got.total == ref.total


def assert_same_context(got, ref):
    for field in ("b", "c", "d", "z_pre"):
        assert getattr(got, field).tobytes() == getattr(ref, field).tobytes(), field


def plain_array(rec, name):
    """Array `name` of rec, by its plain expression where capture derives
    it."""
    if (rec.kind, name) == (FFN, "a_pre"):
        return np.maximum(rec.z_pre, 0.0)
    if (rec.kind, name) == (MHA, "z_pre"):
        return 0.5 * (rec.q_pre + rec.k_pre)
    return getattr(rec, name)


def row_unit_matrices(model):
    for i, block in enumerate(model.blocks):
        for name in MASK_BEARING[block.kind]:
            yield i, name, block.matrices[name]


class TestLossBits:
    @pytest.mark.parametrize("kind", ["decoder", "ffn", "square-ffn"])
    @pytest.mark.parametrize("criterion", ["closed-form", "wanda", "magnitude"])
    def test_one_shot_masks(self, kind, criterion):
        model, _, cache = toy(kind)
        pruned = one_shot_pruned(model, cache, criterion)
        assert any(not np.any(w[j]) for _, _, w in row_unit_matrices(pruned) for j in range(len(w)))
        assert_same_loss(pruned, cache)

    @pytest.mark.parametrize("kind", ["decoder", "ffn"])
    def test_dense_model(self, kind):
        model, _, cache = toy(kind)
        assert_same_loss(model, cache)
        assert total_reconstruction_loss(model, cache).total == 0.0

    @pytest.mark.parametrize("kind", ["decoder", "ffn"])
    @pytest.mark.parametrize("change", ["refit", "one-ulp"])
    def test_changed_retained_row_takes_gemm(self, kind, change):
        model, _, cache = toy(kind)
        pruned = one_shot_pruned(model, cache, "wanda")
        for i, name, w in row_unit_matrices(pruned):
            j = int(np.flatnonzero(np.any(w, axis=1))[0])
            if change == "refit":
                w[j] = make_rng(i).normal(size=w.shape[1]) / np.sqrt(w.shape[1])
            else:
                w[j, 0] = np.nextafter(w[j, 0], np.inf)
            rec = cache.blocks[i]
            x_name, prod_name = MATRIX_IO[name]
            assert rec.frozen_rows(name, w) is None
            got = rec.product(name, w)
            assert got.tobytes() == (w @ getattr(rec, x_name)).tobytes()
            assert not np.array_equal(got[j], getattr(rec, prod_name)[j])
        assert_same_loss(pruned, cache)


    @pytest.mark.parametrize("refit", ["wq", "wk"])
    def test_consensus_of_one_refit_and_one_masked_projection(self, decoder_toy, refit):
        # One of q, k is a fresh GEMM the sum may write into, the other the
        # frozen product with zero rows; wq and wk masks differ.
        model, _, cache = decoder_toy
        pruned = one_shot_pruned(model, cache, "wanda")
        for block in pruned.blocks:
            if block.kind == "mha":
                block.wq[1::4] = 0.0
                block.matrices[refit][np.any(block.matrices[refit], axis=1)] *= 1.5
        assert_same_loss(pruned, cache)


class TestProduct:
    def test_dense_rows_return_the_frozen_product(self, decoder_toy):
        model, _, cache = decoder_toy
        for i, name, w in row_unit_matrices(model):
            rec = cache.blocks[i]
            prod, zero = rec.frozen_rows(name, w)
            assert prod is getattr(rec, MATRIX_IO[name][1]) and zero is None
        # product reads every captured dense matrix's frozen product.
        for rec in cache.blocks:
            for name, dense in rec.dense.items():
                assert rec.product(name, dense) is getattr(rec, MATRIX_IO[name][1])

    def test_zero_rows_read_frozen_rows(self, ffn_toy):
        # A marker in place of the frozen product shows which rows the
        # result was read from.
        model, _, cache = ffn_toy
        rec = cache.blocks[0]
        marker = rec.z_pre + 1.0
        probe = BlockActivations(FFN, rec.input_pre, marker, rec.a_pre, rec.out_pre, None,
                                 dense=rec.dense)
        w = model.blocks[0].w1.copy()
        w[::3] = -0.0
        prod, zero = probe.frozen_rows("w1", w)
        assert prod is marker and np.array_equal(zero, np.arange(len(w)) % 3 == 0)
        # The flagged rows of the frozen product, read as +0.0, are the GEMM.
        prod, zero = rec.frozen_rows("w1", w)
        got = prod.copy()
        got[zero] = 0.0
        assert got.tobytes() == (w @ rec.input_pre).tobytes()
        assert rec.product("w1", w).tobytes() == got.tobytes()

    def test_layout_or_unknown_dense_takes_gemm(self, ffn_toy):
        model, _, cache = ffn_toy
        rec = cache.blocks[0]
        w = np.asfortranarray(model.blocks[0].w1)
        assert rec.frozen_rows("w1", w) is None
        got = rec.product("w1", w)
        assert got is not rec.z_pre and np.array_equal(got, w @ rec.input_pre)
        bare = BlockActivations(FFN, rec.input_pre, rec.z_pre, rec.a_pre, rec.out_pre, None)
        assert bare.frozen_rows("w1", model.blocks[0].w1) is None
        assert bare.product("w1", model.blocks[0].w1) is not rec.z_pre

    def test_non_finite_input_takes_gemm(self):
        x = np.array([[1.0, np.inf], [2.0, 3.0]])
        dense = np.array([[1.0, 1.0], [0.5, -1.0]])
        frozen = dense @ x
        rec = BlockActivations(FFN, x, frozen, x, x, None, dense={"w1": dense})
        w = dense.copy()
        w[1] = 0.0
        with np.errstate(invalid="ignore"):  # 0 * inf
            assert rec.frozen_rows("w1", w) is None
            got = rec.product("w1", w)
        assert np.isnan(got[1, 1]) and np.array_equal(got[0], frozen[0])


class TestClosedFormContextBits:
    @pytest.mark.parametrize("kind", ["decoder", "ffn", "square-ffn"])
    def test_dense_and_masked_models(self, kind):
        model, _, cache = toy(kind)
        pruned = one_shot_pruned(model, cache, "magnitude")
        for m in (model, pruned):
            for i, name, _ in row_unit_matrices(m):
                assert_same_context(
                    closed_form_context(m, cache, i, name),
                    oracle.closed_form_context_reference(m, cache, i, name),
                )


class TestCapturedDense:
    def test_capture_freezes_dense_matrices_without_copies(self, decoder_toy):
        model, _, cache = decoder_toy
        for block, rec in zip(model.blocks, cache.blocks):
            assert rec.dense.keys() == block.matrices.keys()
            for name, w in block.matrices.items():
                assert rec.dense[name] is w and not w.flags.writeable

    def test_in_place_write_to_dense_matrix_raises(self, decoder_toy):
        model, _, _ = decoder_toy
        with pytest.raises(ValueError):
            model.blocks[0].wq[0, 0] = 1.0
        with pytest.raises(ValueError):
            model.blocks[1].w1 *= 0.0
        assert all(w.flags.writeable for _, w in model.copy().named_matrices())


class TestColumnL1:
    def test_sums_computed_once(self, decoder_toy):
        _, _, cache = decoder_toy
        for rec in cache.blocks:
            for name in ("input_pre", "a_pre"):
                sums = rec.col_l1(name)
                assert sums.tobytes() == np.sum(np.abs(plain_array(rec, name)), axis=1).tobytes()
                assert not sums.flags.writeable
                assert rec.col_l1(name) is sums

    @pytest.mark.parametrize("shape", [(1, 5), (63, 7), (64, 2047), (130, 9001), (65, 16384),
                                       (3, 20000)])
    def test_row_blocked_sums_match_whole_array(self, shape):
        # Row blocks of 64 must give each row the bits of one whole-array
        # sum, also when T % 8 != 0 and past numpy's 8192-element buffer.
        x = make_rng(shape[1]).normal(size=shape)
        rec = BlockActivations(FFN, x, x, x, x, None)
        assert rec.col_l1("input_pre").tobytes() == np.sum(np.abs(x), axis=1).tobytes()

    @pytest.mark.parametrize("shape", [(1, 5), (63, 7), (130, 9001), (65, 16384)])
    def test_row_blocked_sums_of_a_derived_array(self, shape):
        # relu(z) is derived a 64-row block at a time into one buffer.
        z = make_rng(shape[1]).normal(size=shape)
        rec = BlockActivations(FFN, z, z, None, z, None)
        want = np.sum(np.abs(np.maximum(z, 0.0)), axis=1)
        assert rec.col_l1("a_pre").tobytes() == want.tobytes()

    def test_wanda_scores_unchanged(self, decoder_toy):
        model, _, cache = decoder_toy
        got = [li.value for li in layer_importance(model, cache, "wanda-sum")]
        want = []
        for i, block in enumerate(model.blocks):
            pooled = []
            for name, w in block.matrices.items():
                x = plain_array(cache.blocks[i], MATRIX_IO[name][0])
                pooled.append(wanda_unit(w, DEFAULT_AXES[name], cache.n_samples, np.sum(np.abs(x), axis=1)))
            want.append(float(np.concatenate(pooled).mean()))
        assert got == want
        for i, block in enumerate(model.blocks):
            for name, scores in block_unit_scores(model, cache, i, "wanda").items():
                x_in = plain_array(cache.blocks[i], MATRIX_IO[name][0])
                expect = wanda_unit(block.matrices[name], ROW, cache.n_samples, np.sum(np.abs(x_in), axis=1))
                assert scores.tobytes() == expect.tobytes()

    def test_one_computation_under_fast_switching(self):
        # Every caller must get the one stored array; two computations
        # racing past the check would hand out two.
        workers = 8
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                _, _, cache = build_toy("ffn")
                rec = cache.blocks[1]
                start = threading.Barrier(workers)

                def read(_):
                    start.wait(timeout=10)
                    return rec.col_l1("a_pre")

                with ThreadPoolExecutor(max_workers=workers) as pool:
                    got = [f.result(timeout=30) for f in [pool.submit(read, i) for i in range(workers)]]
                assert all(sums is got[0] for sums in got)
        finally:
            sys.setswitchinterval(old)

    def test_sweep_race_free_under_fast_switching(self):
        def sweep(threads):
            model, calib, _ = build_toy("decoder")
            cache = capture_reference_activations(model, calib)
            return temperature_sweep(model, cache, [0.05, 0.1, 0.2, 0.4, 0.8, 1.6], "softmax",
                                     0.4, threads=threads), cache

        (t1, plan1, table1), _ = sweep(1)
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            (t4, plan4, table4), cache4 = sweep(4)
        finally:
            sys.setswitchinterval(old)
        assert (t4, plan4.entries, table4) == (t1, plan1.entries, table1)
        for rec in cache4.blocks:
            for (stat, name), sums in rec.stats.items():
                if stat == "col_l1":
                    assert np.array_equal(sums, np.sum(np.abs(plain_array(rec, name)), axis=1))


def layout_bytes(arch, layout, n_tokens, tables):
    """Bytes of the record arrays named in tables (kind -> names) over a
    model's blocks, from the shapes alone: z_pre and a_pre of an FFN block
    have ffn_dim rows, every other array d; a block's input_pre is the
    previous block's out_pre, so only the first block's counts."""
    kinds = {"decoder": (MHA, FFN), "ffn": (FFN,), "mha": (MHA,)}[layout] * arch.num_layers
    rows = arch.d
    for kind in kinds:
        for name in tables[kind]:
            if name != "input_pre":
                wide = kind == FFN and name in ("z_pre", "a_pre")
                rows += arch.ffn_dim if wide else arch.d
    return rows * n_tokens * 8


def unique_stored_bytes(cache):
    return sum({id(a): a.nbytes for rec in cache.blocks for a in rec.frozen_arrays().values()}.values())


class TestStoredLayout:
    """Capture stores only what no reader can recompute exactly; the FFN
    relu and the MHA q/k consensus are derived where read."""

    def test_records_hold_the_stored_arrays_only(self, decoder_toy):
        _, _, cache = decoder_toy
        want = {FFN: {"input_pre", "z_pre", "out_pre"},
                MHA: {"input_pre", "q_pre", "k_pre", "a_pre", "a_attn_pre", "out_pre"}}
        assert {kind: set(names) for kind, names in STORED.items()} == want
        for rec in cache.blocks:
            assert set(rec.frozen_arrays()) == want[rec.kind]
            for name in DERIVED[rec.kind]:
                assert getattr(rec, name) is None

    def test_closed_form_matches_capture_and_the_benchmark_shapes(self, decoder_toy):
        model, calib, cache = decoder_toy
        tokens = calib.n_samples * calib.seq_len
        assert unique_stored_bytes(cache) == layout_bytes(model.arch, "decoder", tokens, STORED)
        # The oneshot-wide benchmark: d=128, 4 decoder layers, ffn_dim 512,
        # N=128 x 64 tokens.
        wide = ModelArch(d=128, num_layers=4, num_heads=4, ffn_dim=512, vocab=512)
        assert layout_bytes(wide, "decoder", 128 * 64, STORED) == 328 * 2**20
        both = {kind: STORED[kind] + tuple(DERIVED[kind]) for kind in STORED}
        assert layout_bytes(wide, "decoder", 128 * 64, both) == 488 * 2**20

    def test_capture_and_loss_peak_below_the_whole_layout(self):
        # T = 2560 spans two capture tiles and five relu sub-tiles.
        arch = ModelArch(d=16, num_layers=2, num_heads=2)
        model = generate_toy_model(arch, make_rng(21), layout="decoder")
        calib = make_calibration(arch, 160, 16, make_rng(22))
        pruned = one_shot_pruned(model, capture_reference_activations(model, calib), "wanda")
        tracemalloc.start()
        try:
            cache = capture_reference_activations(model, calib)
            total_reconstruction_loss(pruned, cache)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        stored = unique_stored_bytes(cache)
        assert stored == layout_bytes(arch, "decoder", 2560, STORED)
        # The layout that also stored FFN a and MHA z.
        derived = sum(rec.like(name).nbytes for rec in cache.blocks for name in DERIVED[rec.kind])
        assert peak < stored + derived, f"peak {peak} B, stored {stored} B, derived {derived} B"
