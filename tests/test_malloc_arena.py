"""The worker pools allocate from one glibc malloc arena (model._one_malloc_arena),
and a C library without mallopt leaves the results as they are."""

import functools
import os
import pathlib
import platform
import re
import subprocess
import sys

import pytest

from struprune import model
from struprune.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent

POOL_SCRIPT = """
import ctypes
import numpy as np
from struprune.model import _worker_pool

def job(i):
    for _ in range(4):
        a = np.ones(1 << 20)  # 8 MiB
        del a

with _worker_pool(list(range(8)), 2) as run:
    run(job)
ctypes.CDLL(None).malloc_stats()
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="malloc arenas are glibc's")
def test_pool_threads_share_one_arena():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", POOL_SCRIPT], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    arenas = re.findall(r"^Arena \d+:$", proc.stderr, flags=re.MULTILINE)
    assert arenas == ["Arena 0:"], proc.stderr


def test_glibc_function_is_none_off_glibc(monkeypatch):
    def no_glibc(name):
        raise ValueError(f"unrecognized configuration name {name!r}")

    monkeypatch.setattr(os, "confstr", no_glibc)
    assert model._glibc_function("mallopt") is None


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc lookup")
def test_glibc_function_finds_only_existing_functions():
    assert model._glibc_function("mallopt") is not None
    assert model._glibc_function("struprune_no_such_function") is None


def test_missing_mallopt_is_skipped_and_admm_writes_the_same_bytes(tmp_path, monkeypatch):
    """With the lookup finding no mallopt, the pool calls nothing and
    `admm --threads 2` exits 0 with the same bytes. The allocator of this
    process stays as earlier pools set it, so this checks the skip, not
    the arenas."""
    m, c = str(tmp_path / "model"), str(tmp_path / "calib")
    assert main(["gen", "--d", "8", "--layers", "2", "--heads", "2", "--seed", "7", "--out", m]) == 0
    assert main(["calibrate", "--model", m, "--n", "4", "--seq-len", "8", "--seed", "8", "--out", c]) == 0

    def admm(out):
        assert main(["admm", "--model", m, "--calib", c, "--method", "softmax", "--sparsity", "0.4",
                     "--iters", "2", "--inner", "4", "--seed", "3", "--threads", "2", "--out", out]) == 0
        return {p.name: p.read_bytes() for p in sorted(pathlib.Path(out).iterdir())}

    with_arena = admm(str(tmp_path / "a"))
    looked_up = []
    monkeypatch.setattr(model, "_glibc_function", lambda name: looked_up.append(name))
    monkeypatch.setattr(model, "_one_malloc_arena", functools.cache(model._one_malloc_arena.__wrapped__))
    assert admm(str(tmp_path / "b")) == with_arena
    assert looked_up == ["mallopt"]
