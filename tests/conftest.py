import os
import sys

# Pin BLAS worker pools before numpy loads anywhere; the determinism
# contracts are stated at thread count 1.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

# Allow running the suite from a checkout without installing first.
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from struprune.importance import LayerImportance  # noqa: E402
from struprune.linalg import make_rng  # noqa: E402
from struprune.model import (  # noqa: E402
    FFN,
    MHA,
    ActivationCache,
    ModelArch,
    capture_reference_activations,
    generate_toy_model,
    make_calibration,
)

# The standard seeded fixture: a small decoder stack with enough tokens
# (N * seq_len = 128 >= every weight fan-in) for exact ridge recovery.
STD_ARCH = ModelArch(d=16, num_layers=2, num_heads=2)
STD_N = 8
STD_SEQ = 16
STD_MODEL_SEED = 101
STD_CALIB_SEED = 202


def build_toy(layout="decoder", arch=STD_ARCH, model_seed=STD_MODEL_SEED, calib_seed=STD_CALIB_SEED,
              n_samples=STD_N, seq_len=STD_SEQ):
    model = generate_toy_model(arch, make_rng(model_seed), layout=layout)
    calib = make_calibration(arch, n_samples, seq_len, make_rng(calib_seed))
    cache = capture_reference_activations(model, calib)
    return model, calib, cache


def cache_copy(cache):
    """A shallow copy of cache, for a caller that reads the records after
    admm.run_outer_loop, which releases the records of the cache it is
    given."""
    return ActivationCache(list(cache.blocks), cache.n_samples, cache.seq_len)


def importances(values, kind=FFN):
    """layer_importance's list for blocks 0..n-1, all of one kind."""
    return [LayerImportance(i, kind, float(v)) for i, v in enumerate(values)]


def decoder_importances(attn, mlp):
    """layer_importance's list for a decoder stack: MHA block i at layer
    2i, FFN block i at layer 2i + 1."""
    pairs = [(2 * i, MHA, v) for i, v in enumerate(attn)] + [(2 * i + 1, FFN, v) for i, v in enumerate(mlp)]
    return [LayerImportance(layer, kind, float(v)) for layer, kind, v in sorted(pairs)]


@pytest.fixture
def decoder_toy():
    return build_toy("decoder")


@pytest.fixture
def ffn_toy():
    return build_toy("ffn")


@pytest.fixture
def rng():
    return make_rng(0)


def assert_close(a, b, tol, msg=""):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    gap = float(np.max(np.abs(a - b))) if a.size else 0.0
    assert gap <= tol, f"{msg} max gap {gap:.3e} > {tol:.1e}"
