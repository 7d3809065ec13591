"""Byte-exact regression pins on the decoder fixture (MHA and FFN blocks).

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


@pytest.fixture(scope="module")
def decoder_dirs(tmp_path_factory):
    root = tmp_path_factory.mktemp("pins")
    model, calib = str(root / "model"), str(root / "calib")
    assert cli_main(["gen", "--layout", "decoder", "--d", "16", "--layers", "2", "--heads", "2",
                     "--seed", "101", "--out", model]) == 0
    assert cli_main(["calibrate", "--model", model, "--n", "8", "--seq-len", "16",
                     "--seed", "202", "--out", calib]) == 0
    return root, model, calib


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
