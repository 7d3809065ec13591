"""Byte-exact regression pins on the decoder fixture (MHA and FFN blocks)
and on a square-FFN fixture (ffn_dim == d), where the closed-form
coupling term is live.

The golden file and the digests below were generated once from the CLI
and are never regenerated to make a change pass: a refactor that is meant
to keep behaviour must reproduce them bit for bit at BLAS thread count 1.
"""

import hashlib
import os

import pytest

from struprune.cli import main as cli_main

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

ADMM_FLAGS = ["--sparsity", "0.5", "--iters", "4", "--inner", "10", "--seed", "0"]
PLAN_FLAGS = ["--sparsity", "0.5", "--seed", "0"]


def _fixture_dirs(root, gen_flags):
    model, calib = str(root / "model"), str(root / "calib")
    assert cli_main(["gen", *gen_flags, "--seed", "101", "--out", model]) == 0
    assert cli_main(["calibrate", "--model", model, "--n", "8", "--seq-len", "16",
                     "--seed", "202", "--out", calib]) == 0
    return root, model, calib


@pytest.fixture(scope="module")
def decoder_dirs(tmp_path_factory):
    return _fixture_dirs(tmp_path_factory.mktemp("pins"),
                         ["--layout", "decoder", "--d", "16", "--layers", "2", "--heads", "2"])


@pytest.fixture(scope="module")
def square_ffn_dirs(tmp_path_factory):
    return _fixture_dirs(tmp_path_factory.mktemp("pins-square"),
                         ["--layout", "ffn", "--d", "16", "--ffn-dim", "16"])


def _artifact(decoder_dirs, command, method, flags, name) -> bytes:
    root, model, calib = decoder_dirs
    out = str(root / f"{command}-{method}")
    assert cli_main([command, "--model", model, "--calib", calib, "--method", method,
                     *flags, "--out", out]) == 0
    with open(os.path.join(out, name), "rb") as fh:
        return fh.read()


def test_golden_trace_decoder(decoder_dirs):
    produced = _artifact(decoder_dirs, "admm", "softmax", ADMM_FLAGS, "trace.csv")
    with open(os.path.join(DATA_DIR, "golden_trace_decoder.csv"), "rb") as fh:
        golden = fh.read()
    assert produced == golden


# Snip plan scores are identically zero at the dense optimum, so only the
# admm trace pins that criterion.
@pytest.mark.parametrize(
    "command, method, name, digest",
    [
        ("admm", "magnitude", "trace.csv",
         "1b562d33a8cc40235fcbfe86912c14b20981add19ad7f05761e35108accc5479"),
        ("admm", "snip", "trace.csv",
         "2cf76253e9151097a32bd3c3ffd7eb8ff0324f704c28aa1a21167b76194d029c"),
        ("admm", "l0", "trace.csv",
         "7fdd5893b3bbb5fbdfac865f07e8ef2d0ac0e151d956e5efa1fbd25979a903ad"),
        ("admm", "inverse-weight", "trace.csv",
         "0c371f53f55c15dad4fd925b3003fe3fb98c09ceed4d05c407640beb6337da3b"),
        ("admm", "wanda-local", "trace.csv",
         "2e018c0f2cc84ae75830b192c2dddd18783603d7447a9996b68040a88515641d"),
        ("plan", "magnitude", "scores.csv",
         "f345a22dbca09100c73893b2655e1753f354f0e0c440fccd20af44fca1c91c21"),
        ("plan", "l0", "scores.csv",
         "9aa15673bd5360ab12c01d682355e550e39184b2fe2cb9b88414eee616bc2aaf"),
    ],
)
def test_pinned_artifact_digest(decoder_dirs, command, method, name, digest):
    flags = ADMM_FLAGS if command == "admm" else PLAN_FLAGS
    produced = _artifact(decoder_dirs, command, method, flags, name)
    assert hashlib.sha256(produced).hexdigest() == digest


def _dir_digest(dirs, out, command, flags) -> str:
    """sha256 over the sorted (file name, bytes) of one command's --out."""
    _, model, calib = dirs
    assert cli_main([command, "--model", model, "--calib", calib, *flags, "--out", str(out)]) == 0
    h = hashlib.sha256()
    for name in sorted(os.listdir(out)):
        data = (out / name).read_bytes()
        h.update(f"{name}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


# The one-shot pipeline: model blobs, manifest and plan.csv of prune; the
# plan.csv (and wanda scores.csv) of plan; sweep.csv and plan.csv of sweep.
@pytest.mark.parametrize(
    "command, flags, digest",
    [
        ("prune", ["--method", "closed-form", *PLAN_FLAGS],
         "3a4ed4bff61404e76a8f8b45c6c8bb5537baa8213192a297900753314f551882"),
        ("prune", ["--method", "softmax", *PLAN_FLAGS],
         "5be344540e8684b07efaaedf17347fda74b2e7a871940c5c93cf1f2f0616f278"),
        ("prune", ["--method", "magnitude", *PLAN_FLAGS],
         "6b2d8ca723d7f25c1f621a12d994c8454dbfce33555a5e7c8e5d9b7197937f36"),
        ("plan", ["--method", "closed-form", *PLAN_FLAGS],
         "a6b7ddd9f20c8c18bd18301627896144e4b05609f0eacf33d369d0b43e6d1f87"),
        ("plan", ["--method", "softmax", *PLAN_FLAGS],
         "5179417e4f1e1014553ff50f409d3f28ed2bdaa469e3e503b37bb803c495c12d"),
        ("sweep", ["--t-grid", "0.5,1,2", *PLAN_FLAGS],
         "aea9276ad9ca0e4deb49de0deea928684cb571dfb5405e9b76f9c30151bfa907"),
        ("prune", ["--method", "wanda-local", *PLAN_FLAGS],
         "cf939aaeaead6af83bd4d3b1357c2abf7bfe12ceaa9118ccfe6761c59efa9592"),
        ("prune", ["--method", "l0", *PLAN_FLAGS],
         "8848fe27743fc04ece96e761a17de536091327663fed62b6c958c67cbc53c4df"),
        ("prune", ["--method", "snip", *PLAN_FLAGS],
         "67dfecf67c18954b2b6f7edfca0a40111fc95c801df51ae912cd78779dc1e064"),
        ("prune", ["--method", "inverse-weight", *PLAN_FLAGS],
         "277c191594ecb4bbebd91cc4bd4fe8fb9ffa85548129e23f62628fa4fac2caae"),
        ("sweep", ["--allocator", "inverse-weight", "--t-grid", "0.5,1,2", *PLAN_FLAGS],
         "e8b75c64557540a521a575be4012dc70873fccfc8cb0b52169ec28a61a3d9218"),
    ],
)
def test_oneshot_output_digest(decoder_dirs, tmp_path, command, flags, digest):
    assert _dir_digest(decoder_dirs, tmp_path, command, flags) == digest


@pytest.mark.parametrize(
    "command, digest",
    [
        ("prune",
         "78faf32aa8b0df3d41b3417fc7c1ffb54c6f9e5ffdd2f0a7d5ca26053b403701"),
        ("plan",
         "bfd2329dd33a2758522e2f43d9841676766116fed432bf7e736dba96880a74c9"),
    ],
)
def test_square_ffn_closed_form_digest(square_ffn_dirs, tmp_path, command, digest):
    flags = ["--method", "closed-form", *PLAN_FLAGS]
    assert _dir_digest(square_ffn_dirs, tmp_path, command, flags) == digest


# `gen` alone, per layout (d 16, seed 101, the other flags at their
# defaults): the sha256 of manifest.json and of every blob.
GEN_PINS = {
    ("decoder", "--vocab", "32"): {
        "embed.bin": "6f634b55d60c8fdedd5b285eaaf75c60c61f3fb48b961ad300bfa6a825061598",
        "head.bin": "06f4cfd8cf038c036909605920560f0e8b398c95b7e83b92d0ec1de6340576de",
        "layer0_mha_wk.bin": "b30efa822084385d2d4f5f6d36c809ab97fc6d13983bb86fd681e0ae4eafa462",
        "layer0_mha_wo.bin": "efe02b200a70e3e95a9aa3ed874f1cbaed3ee22730c40157c6c344d671ae8725",
        "layer0_mha_wq.bin": "e3f01917ab679411ad3276c75ad63e06e490d00b5ed5a89caabf71dd2a356c75",
        "layer0_mha_wv.bin": "841cdd224dfb1eeb322785bd2b97da4ecc702204301747039ddaabe39c3c7c24",
        "layer1_ffn_w1.bin": "592cd0062b1ad0dcee50d555fbea477daee339c6ab9fdacff89610b7f062fef7",
        "layer1_ffn_w2.bin": "8279d44f8a52866535bf5b5b070786838b6e085f629d8d037911f3bce93ecd6f",
        "layer2_mha_wk.bin": "296ab2d7f33c601dc37e948dd69f30461939ea5754c6e408bbacf48ea2a66fe4",
        "layer2_mha_wo.bin": "d8e95ddaee872a081680890455a5280778632491e1b3f4229edd034e0380563c",
        "layer2_mha_wq.bin": "03380660a559cf4d7e64b82c2f80f53ce0364d67a2da24244ac498e349aa89ec",
        "layer2_mha_wv.bin": "2366aefdfc0c19fb81c4cd107dc91e403035a90e84fefc1fc2185322881abeb6",
        "layer3_ffn_w1.bin": "5e47040a4bf447df9054f9f528260eee87ee47c16b39c9f37bc407e42734b844",
        "layer3_ffn_w2.bin": "9064377c2be08f99914a7940a558692602bc2a4cfa7ea8313c5ddedf84de4796",
        "manifest.json": "72e9698567ae3a76134525c5ec3c0e083f2108af8d2d6fe716882cf54d04211d",
    },
    ("ffn",): {
        "layer0_ffn_w1.bin": "82e2d6a5d0be9b689751b6300b0562301eb1d9db1f43a788a2862c78a59d8b93",
        "layer0_ffn_w2.bin": "501188e65ebeb06dfb910eedcf6f5d1948a759fe06c8dbb169711505ff0dc5ac",
        "layer1_ffn_w1.bin": "dd6cf1ae523772f1bf970d83bf02c9993c1c43cb89fa29de910ec418465fe20b",
        "layer1_ffn_w2.bin": "dd65c49667034b2055a4ccff92ee3b9e7dea425502f7ff211bb35813eedd8c44",
        "manifest.json": "3b6297a093d0c887361056b0b3966f214da6f24938da1bd850262f98c9c3fb45",
    },
    ("mha",): {
        "layer0_mha_wk.bin": "b30efa822084385d2d4f5f6d36c809ab97fc6d13983bb86fd681e0ae4eafa462",
        "layer0_mha_wo.bin": "efe02b200a70e3e95a9aa3ed874f1cbaed3ee22730c40157c6c344d671ae8725",
        "layer0_mha_wq.bin": "e3f01917ab679411ad3276c75ad63e06e490d00b5ed5a89caabf71dd2a356c75",
        "layer0_mha_wv.bin": "841cdd224dfb1eeb322785bd2b97da4ecc702204301747039ddaabe39c3c7c24",
        "layer1_mha_wk.bin": "e3954007769251617091f1fd4d9f5f33f19c868c549885499b8aef0f74df8b38",
        "layer1_mha_wo.bin": "307289c4cd52e867b08b69faff90baee51dc4889afd5d3a14ac23e8fd643cccb",
        "layer1_mha_wq.bin": "4d3ca7d46c7f54ec0a7a197da6d1a8807e5d45317277d9e7cc28f5523c5df50b",
        "layer1_mha_wv.bin": "a1c191123aadc79ad10bfa5b151990ebebcdcba07782176dd5a7ecfdab92ddb4",
        "manifest.json": "66adf2bc27530c853046dfd9e90b5f2f68ebfc49d073b6daccd53d3b09eb0d0c",
    },
}


@pytest.mark.parametrize("layout", sorted(GEN_PINS), ids=lambda layout: layout[0])
def test_gen_digest(tmp_path, layout):
    out = tmp_path / "model"
    assert cli_main(["gen", "--layout", *layout, "--d", "16", "--seed", "101", "--out", str(out)]) == 0
    produced = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in sorted(os.listdir(out))}
    assert produced == GEN_PINS[layout]


# The admm solver's whole --out: model blobs, manifest, trace.csv and
# plan.csv, so the refit weights are pinned and not only the trace.
@pytest.mark.parametrize(
    "fixture, method, digest",
    [
        ("decoder_dirs", "softmax",
         "a282e34bbde41f1c9bab3153c0914c49f3978dce62d85bf15d330a4b248eb3f0"),
        ("decoder_dirs", "closed-form",
         "9281620f33acd1a193ba449b548d1cd21bc2f5f8788b9ccbdd1a0f72e6067ed4"),
        ("square_ffn_dirs", "closed-form",
         "2cdf858ce585ef5748a494a1188bead099ab38ddeec3e1be352058481e429474"),
    ],
)
def test_admm_output_digest(request, tmp_path, fixture, method, digest):
    dirs = request.getfixturevalue(fixture)
    assert _dir_digest(dirs, tmp_path, "admm", ["--method", method, *ADMM_FLAGS]) == digest
