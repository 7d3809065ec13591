"""Every step of the dense forward runs on the --threads pool, also over
one token tile, and the loss hands its costliest blocks to the pool
first; the bits are those of the plain calls for every pool size."""

import sys
import threading
from contextlib import contextmanager

import numpy as np
import pytest

from struprune import evaluation, linalg, model as model_mod, oracle
from struprune.allocation import apply_masks, build_masks, uniform_plan
from struprune.linalg import make_rng, row_softmax
from struprune.model import (
    CapturePolicy,
    ModelArch,
    _token_tiles,
    _worker_pool,
    capture_reference_activations,
    generate_toy_model,
    make_calibration,
)

ARCH = ModelArch(d=16, num_layers=2, num_heads=2, vocab=32)
N, SEQ = 128, 16  # T = 2048: one token tile


def fixture(layout):
    model = generate_toy_model(ARCH, make_rng(21), layout=layout)
    return model, make_calibration(ARCH, N, SEQ, make_rng(22), kind="tokens")


@pytest.mark.parametrize("rows", [1, 3, 16, 128])
@pytest.mark.parametrize("seg_len", [13, 64, 96])
@pytest.mark.parametrize("workers", [1, 2, 3, 4])
@pytest.mark.parametrize("block_bytes", [None, 1])
def test_pooled_row_softmax_is_the_plain_call(monkeypatch, rows, seg_len, workers, block_bytes):
    # block_bytes 1 makes each row a job of its own.
    if block_bytes is not None:
        monkeypatch.setattr(linalg, "BLOCK_BYTES", block_bytes)
    z = make_rng(rows * seg_len).normal(size=(rows, 40 * seg_len))
    with _worker_pool(range(workers), workers) as run:
        got = row_softmax(z, 2.5, seg_len, run=run)
        whole = row_softmax(z, 2.5, run=run)
        shaped = z.reshape(rows, -1, seg_len)
        three_d = row_softmax(shaped, 2.5, run=run)
    assert got.tobytes() == row_softmax(z, 2.5, seg_len).tobytes()
    assert whole.tobytes() == row_softmax(z, 2.5).tobytes()
    assert three_d.tobytes() == row_softmax(shaped, 2.5).tobytes()


@pytest.mark.parametrize("seg_len", [None, 13])
def test_non_contiguous_row_softmax_keeps_the_plain_path(seg_len):
    z = np.asfortranarray(make_rng(5).normal(size=(16, 13 * 8)))

    def run(fn, over):
        raise AssertionError("a non-contiguous z must not reach the pool")

    got = row_softmax(z, 2.0, seg_len, run=run)
    want = row_softmax(z, 2.0, seg_len)
    assert got.strides == want.strides and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("layout", ["decoder", "ffn", "mha"])
@pytest.mark.parametrize("threads", [1, 3])
def test_one_tile_capture_matches_single_pass_forward(layout, threads):
    model, calib = fixture(layout)
    assert len(_token_tiles(N * SEQ)) == 1
    cache = capture_reference_activations(model, calib, threads=threads)
    for rec, arrays in zip(cache.blocks, oracle.dense_forward_reference(model, calib), strict=True):
        for name, want in arrays.items():
            assert rec.array(name).tobytes() == want.tobytes(), name


def test_one_tile_capture_jobs_reach_several_workers(monkeypatch):
    """The first two jobs of every pool pass over two or more items wait
    for each other, so a pool of one worker would time out here."""
    model, calib = fixture("decoder")
    policy = model_mod.CapturePolicy("lean", ("col_l1", "row_means"))
    ref = capture_reference_activations(model, calib, policy=policy)
    ids, passes = set(), []
    real = model_mod._worker_pool

    @contextmanager
    def spied(items, threads):
        with real(items, threads) as run:
            def spy(fn, over=items):
                if len(over) < 2:
                    return run(fn, over)
                meet = threading.Barrier(2, timeout=30)
                passes.append(len(over))

                def job(indexed):
                    i, item = indexed
                    if i < 2:
                        meet.wait()
                    ids.add(threading.get_ident())
                    return fn(item)

                return run(job, list(enumerate(over)))

            yield spy

    monkeypatch.setattr(model_mod, "_worker_pool", spied)
    # One row per job: the row_softmax and statistics passes split too.
    monkeypatch.setattr(linalg, "BLOCK_BYTES", 1)
    cache = capture_reference_activations(model, calib, threads=2, policy=policy)
    assert len(ids) >= 2 and threading.get_ident() not in ids
    # One job per 512-token sub-tile: each MHA block's q/k GEMMs (one
    # pass of 2 x 4 jobs) and its v/o pass, and each FFN block's pass (4
    # jobs each); each MHA block's row_softmax (one of d rows) and the
    # statistics' row blocks.
    subs = N * SEQ // model_mod.SUB_TILE_TOKENS
    mha = sum(block.kind == "mha" for block in model.blocks)
    assert passes.count(2 * subs) == mha and passes.count(subs) == len(model.blocks)
    assert passes.count(ARCH.d) > mha
    for got, want in zip(cache.blocks, ref.blocks, strict=True):
        assert got.frozen_arrays().keys() == want.frozen_arrays().keys()
        for name, arr in want.frozen_arrays().items():
            assert got.frozen_arrays()[name].tobytes() == arr.tobytes(), name
        assert got.stats.keys() == want.stats.keys()
        for key, stat in want.stats.items():
            assert got.stats[key].tobytes() == stat.tobytes(), key


def test_forward_under_fast_thread_switches_keeps_its_bits():
    # More workers than cores and a thread switch every microsecond: the
    # jobs write disjoint slices, so no interleaving changes a byte.
    model = generate_toy_model(ARCH, make_rng(23), layout="decoder")
    calib = make_calibration(ARCH, 3 * N, SEQ, make_rng(24), kind="tokens")  # three tiles
    want = capture_reference_activations(model, calib)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = capture_reference_activations(model, calib, threads=6)
        ppl = evaluation.pseudo_perplexity(model, calib, threads=6)
    finally:
        sys.setswitchinterval(interval)
    assert oracle.cache_checksum(got) == oracle.cache_checksum(want)
    assert ppl == evaluation.pseudo_perplexity(model, calib)


def test_relu_stores_under_fast_thread_switches_keep_their_bits():
    # A "loss" capture over four token tiles forms each FFN block's relu
    # store in the forward: every job packs its own chunks and statistics
    # and writes its own columns of out_pre.
    model = generate_toy_model(ARCH, make_rng(25), layout="decoder")
    calib = make_calibration(ARCH, 4 * N, SEQ, make_rng(26), kind="tokens")
    policy = CapturePolicy("loss", ("col_l1",))
    want = capture_reference_activations(model, calib, policy=policy)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = capture_reference_activations(model, calib, threads=6, policy=policy)
    finally:
        sys.setswitchinterval(interval)
    assert oracle.cache_checksum(got) == oracle.cache_checksum(want)
    for g, w in zip(got.blocks, want.blocks, strict=True):
        assert g.nonzeros.keys() == w.nonzeros.keys() and g.stats.keys() == w.stats.keys()
        for name, store in w.nonzeros.items():
            chunks = [(cols, values.tobytes(), bits.tobytes()) for cols, values, bits in store.chunks]
            assert [(cols, values.tobytes(), bits.tobytes()) for cols, values, bits in g.nonzeros[name].chunks] == chunks
        for key, stat in w.stats.items():
            assert np.asarray(g.stats[key]).tobytes() == np.asarray(stat).tobytes(), key
    assert sum(len(rec.nonzeros) for rec in got.blocks) == sum(b.kind == "ffn" for b in model.blocks)


def pruned_decoder():
    model, calib = fixture("decoder")
    cache = capture_reference_activations(model, calib)
    return apply_masks(model, build_masks(model, cache, uniform_plan(model, 0.4), "wanda")), cache


def test_loss_report_identical_for_every_pool_size():
    pruned, cache = pruned_decoder()
    reports = [evaluation.total_reconstruction_loss(pruned, cache, threads=t) for t in (1, 2, 3, 4)]
    for report in reports[1:]:
        assert (report.per_layer, report.total, report.terms) == \
            (reports[0].per_layer, reports[0].total, reports[0].terms)


def test_loss_submits_ffn_blocks_first_and_returns_block_order(monkeypatch):
    pruned, cache = pruned_decoder()
    kinds = [block.kind for block in pruned.blocks]
    assert kinds == ["mha", "ffn"] * ARCH.num_layers
    submitted = []
    real = evaluation._block_terms

    def spy(pb, rec):
        submitted.append(rec)
        return real(pb, rec)

    monkeypatch.setattr(evaluation, "_block_terms", spy)
    report = evaluation.total_reconstruction_loss(pruned, cache, threads=1)
    index = {id(rec): i for i, rec in enumerate(cache.blocks)}
    order = [index[id(rec)] for rec in submitted]
    assert order == [i for i, k in enumerate(kinds) if k == "ffn"] + [i for i, k in enumerate(kinds) if k == "mha"]
    assert [kind for _, kind, _ in report.per_layer] == kinds
    assert report.terms == [real(pb, rec) for pb, rec in zip(pruned.blocks, cache.blocks)]
