"""The dense forward of capture and pseudo-perplexity runs over token
tiles on a pool of --threads workers; its bits are those of the
single-pass forward in oracle.py, whatever the pool size."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from struprune import linalg, model as model_mod, oracle
from struprune.allocation import apply_masks, build_masks, uniform_plan
from struprune.cli import main
from struprune.errors import ParameterError
from struprune.evaluation import pseudo_perplexity, total_reconstruction_loss
from struprune.linalg import make_rng
from struprune.model import (
    DERIVED,
    ModelArch,
    _token_tiles,
    capture_reference_activations,
    generate_toy_model,
    make_calibration,
)

ARCH = ModelArch(d=16, num_layers=2, num_heads=2, vocab=32)
N, SEQ = 160, 16  # T = 2560: a full 2048-token tile and a 512-token one


def fixture(layout, kind, n=N, seq=SEQ):
    model = generate_toy_model(ARCH, make_rng(11), layout=layout)
    calib = make_calibration(ARCH, n, seq, make_rng(12), kind=kind)
    return model, calib


def test_tiles_depend_on_token_count_only():
    assert _token_tiles(2560) == [slice(0, 2048), slice(2048, 2560)]
    assert _token_tiles(8192) == [slice(s, s + 2048) for s in range(0, 8192, 2048)]
    assert _token_tiles(2048) == [slice(0, 2048)]
    assert _token_tiles(2445) == [slice(0, 2445)]


@pytest.mark.parametrize("layout", ["decoder", "ffn", "mha"])
@pytest.mark.parametrize("kind", ["dense", "tokens"])
@pytest.mark.parametrize("threads", [1, 3])
def test_frozen_arrays_match_single_pass_forward(layout, kind, threads):
    model, calib = fixture(layout, kind)
    assert len(_token_tiles(calib.n_samples * calib.seq_len)) == 2
    cache = capture_reference_activations(model, calib, threads=threads)
    ref = oracle.dense_forward_reference(model, calib)
    assert len(cache.blocks) == len(ref)
    for rec, arrays in zip(cache.blocks, ref):
        assert rec.frozen_arrays().keys() <= arrays.keys()
        for name, want in arrays.items():
            assert rec.array(name).tobytes() == want.tobytes(), name


def test_untiled_token_count_matches_single_pass_forward():
    model, calib = fixture("decoder", "tokens", n=163, seq=15)  # T = 2445, T % 8 != 0
    cache = capture_reference_activations(model, calib, threads=2)
    for rec, arrays in zip(cache.blocks, oracle.dense_forward_reference(model, calib)):
        for name, want in arrays.items():
            assert rec.array(name).tobytes() == want.tobytes(), name
    assert pseudo_perplexity(model, calib, threads=2) == oracle.pseudo_perplexity_reference(model, calib)


# (N, seq_len) strategies of the three token tilings: one tile, several
# tiles (the last one narrower, ending in a partial 512-token relu
# sub-tile: N % 32 != 0), and T % 8 != 0, which capture runs as one
# untiled GEMM.
TILINGS = {
    "one-tile": st.tuples(st.integers(1, 128), st.just(16)),
    "several-tiles": st.tuples(st.integers(129, 384).filter(lambda n: n % 32), st.just(16)),
    "ragged": st.tuples(st.integers(1, 400).filter(lambda n: n % 8), st.sampled_from([7, 15])),
}


@pytest.mark.parametrize("tiling", TILINGS)
@settings(derandomize=True, deadline=None, max_examples=25, database=None)
@given(data=st.data(), layout=st.sampled_from(["decoder", "ffn"]), d=st.sampled_from([4, 8, 16]),
       heads=st.sampled_from([1, 2]), ffn_factor=st.sampled_from([1, 4]),
       layers=st.integers(1, 2), kind=st.sampled_from(["dense", "tokens"]), seed=st.integers(0, 999))
def test_capture_stores_the_same_bits_and_derives_the_forward(
        tiling, data, layout, d, heads, ffn_factor, layers, kind, seed):
    n, seq = data.draw(TILINGS[tiling])
    arch = ModelArch(d=d, num_layers=layers, num_heads=heads, ffn_dim=ffn_factor * d, vocab=32)
    model = generate_toy_model(arch, make_rng(seed), layout=layout)
    calib = make_calibration(arch, n, seq, make_rng(seed + 1), kind=kind)
    caches = [capture_reference_activations(model, calib, threads=t) for t in (1, 2, 3)]
    ref = oracle.dense_forward_reference(model, calib)
    for *recs, arrays in zip(*(c.blocks for c in caches), ref):
        stored = [{name: arr.tobytes() for name, arr in rec.frozen_arrays().items()} for rec in recs]
        assert stored[0] == stored[1] == stored[2]
        rec = recs[0]
        assert set(rec.frozen_arrays()) | set(DERIVED[rec.kind]) == arrays.keys()
        for name, want in arrays.items():
            assert rec.array(name).tobytes() == want.tobytes(), name


@pytest.mark.parametrize("layout", ["decoder", "ffn"])
def test_loss_over_relu_sub_tiles_is_reference(layout):
    # T = 2560: five 512-token relu sub-tiles in the loss's w2 product.
    model, calib = fixture(layout, "dense")
    cache = capture_reference_activations(model, calib)
    pruned = apply_masks(model, build_masks(model, cache, uniform_plan(model, 0.4), "wanda"))
    for m in (model, pruned):
        got = total_reconstruction_loss(m, cache)
        ref = oracle.total_reconstruction_loss_reference(m, cache)
        assert (got.per_layer, got.total) == (ref.per_layer, ref.total)


@pytest.mark.parametrize("layout", ["decoder", "ffn", "mha"])
@pytest.mark.parametrize("n, seq", [(N, SEQ), (3, 8)])
def test_pseudo_perplexity_matches_loop(layout, n, seq):
    model, calib = fixture(layout, "tokens", n=n, seq=seq)
    pruned = apply_masks(model, build_masks(model, capture_reference_activations(model, calib),
                                            uniform_plan(model, 0.4), "wanda"))
    for m in (model, pruned):
        assert pseudo_perplexity(m, calib, threads=2) == oracle.pseudo_perplexity_reference(m, calib)


def test_library_results_identical_for_every_pool_size():
    model, calib = fixture("decoder", "tokens")
    base = capture_reference_activations(model, calib)
    pruned = apply_masks(model, build_masks(model, base, uniform_plan(model, 0.4), "wanda"))
    want = (oracle.cache_checksum(base), total_reconstruction_loss(pruned, base),
            pseudo_perplexity(pruned, calib).hex())
    for threads in (2, 3, 4):
        cache = capture_reference_activations(model, calib, threads=threads)
        got = (oracle.cache_checksum(cache), total_reconstruction_loss(pruned, cache, threads=threads),
               pseudo_perplexity(pruned, calib, threads=threads).hex())
        assert got == want, f"threads={threads}"


def test_eval_report_identical_for_every_pool_size(tmp_path):
    model, calib = str(tmp_path / "model"), str(tmp_path / "calib")
    assert main(["gen", "--d", "16", "--layers", "2", "--heads", "2", "--vocab", "32",
                 "--seed", "11", "--out", model]) == 0
    assert main(["calibrate", "--model", model, "--n", str(N), "--seq-len", str(SEQ),
                 "--kind", "tokens", "--seed", "12", "--out", calib]) == 0
    reports = {}
    for threads in ("1", "2", "3", "4"):
        out = str(tmp_path / f"t{threads}" / "pruned")  # the report names its basename
        assert main(["prune", "--model", model, "--calib", calib, "--method", "softmax",
                     "--sparsity", "0.4", "--threads", threads, "--out", out]) == 0
        report = tmp_path / f"t{threads}" / "report"
        assert main(["eval", "--model", out, "--dense", model, "--calib", calib,
                     "--threads", threads, "--out", str(report)]) == 0
        reports[threads] = (report / "report.json").read_bytes()
    assert json.loads(reports["1"])["pseudo_perplexity"] is not None
    assert all(r == reports["1"] for r in reports.values())


def test_row_softmax_once_per_mha_block(monkeypatch):
    model, calib = fixture("decoder", "tokens")
    calls = []

    def counting(z, *args, **kwargs):
        calls.append(z.shape)
        return linalg.row_softmax(z, *args, **kwargs)

    # The forward's own binding sees the top-level calls only.
    monkeypatch.setattr(model_mod, "row_softmax", counting)
    heads = sum(block.kind == "mha" for block in model.blocks)
    capture_reference_activations(model, calib, threads=2)
    assert calls == [(ARCH.d, N * SEQ)] * heads
    pseudo_perplexity(model, calib, threads=2)
    assert len(calls) == 2 * heads


def test_threads_below_one_rejected():
    model, calib = fixture("ffn", "dense", n=2, seq=4)
    with pytest.raises(ParameterError, match="threads"):
        capture_reference_activations(model, calib, threads=0)
