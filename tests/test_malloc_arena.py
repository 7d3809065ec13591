"""glibc's allocator policy (model._malloc_policy): the worker pools allocate
from one malloc arena, the CLI process also keeps freed pages resident for
the next large array, and a C library without mallopt leaves the results
as they are."""

import ctypes
import functools
import logging
import os
import pathlib
import platform
import re
import subprocess
import sys

import pytest

from struprune import cli, model
from struprune.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent

GLIBC_ONLY = pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's allocator")

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


# gen at --threads 1 starts no pool, so whatever policy holds after it
# is cli.main's own.
CLI_PRELUDE = """
import resource
import sys
import numpy as np
from struprune.cli import main

assert main(["gen", "--d", "8", "--layers", "1", "--heads", "2", "--seed", "7",
             "--threads", "1", "--out", sys.argv[1]]) == 0
"""

REUSE_SCRIPT = CLI_PRELUDE + """
a = np.ones(1 << 22)  # 32 MiB
del a
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
a = np.ones(1 << 22)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""

# 8, 32 and 16 MiB arrays allocated and freed in turn, each followed by a
# small array that stays alive, so the heap fragments if it can.
FRAGMENT_SCRIPT = CLI_PRELUDE + """
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
kept = []
for _ in range(16):
    for mib in (8, 32, 16):
        a = np.ones(mib << 17)
        kept.append(np.ones(64))
        del a
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before, sum(k.nbytes for k in kept))
"""


def run_script(script, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-c", script, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=120, check=True)


def last_line(proc):
    return proc.stdout.splitlines()[-1]


@GLIBC_ONLY
def test_pool_threads_share_one_arena():
    proc = run_script(POOL_SCRIPT)
    arenas = re.findall(r"^Arena \d+:$", proc.stderr, flags=re.MULTILINE)
    assert arenas == ["Arena 0:"], proc.stderr


def test_glibc_function_is_none_off_glibc(monkeypatch):
    def no_glibc(name):
        raise ValueError(f"unrecognized configuration name {name!r}")

    monkeypatch.setattr(os, "confstr", no_glibc)
    assert model._glibc_function("mallopt") is None


@GLIBC_ONLY
def test_cli_reuses_a_freed_large_array_without_faulting_pages_in(tmp_path):
    """A freed 32 MiB array's pages serve the next one: no fresh mapping
    for the kernel to fault in and zero (528 faults per allocation with
    glibc's default mmap of large chunks)."""
    faults = int(last_line(run_script(REUSE_SCRIPT, tmp_path / "model")))
    assert faults < 16, faults


@GLIBC_ONLY
def test_kept_heap_does_not_raise_peak_rss_above_live_memory(tmp_path):
    """A heap that keeps freed pages may grow the peak RSS by at most the
    largest live set (one 32 MiB array and the small ones) plus one more
    32 MiB array."""
    grew_kb, small = map(int, last_line(run_script(FRAGMENT_SCRIPT, tmp_path / "model")).split())
    assert grew_kb * 1024 <= 2 * (32 << 20) + small, grew_kb


@GLIBC_ONLY
def test_glibc_function_finds_only_existing_functions():
    assert model._glibc_function("mallopt") is not None
    assert model._glibc_function("struprune_no_such_function") is None


def test_rejected_mallopt_setting_is_logged_not_raised(monkeypatch, caplog):
    """mallopt is typed as int(int, int), every setting fits a C int (ctypes
    would mask a larger value), and a setting glibc rejects (return 0) is
    logged at debug."""
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 0

    monkeypatch.setattr(model, "_glibc_function", lambda name: mallopt)
    with caplog.at_level(logging.DEBUG, logger="struprune.model"):
        model._malloc_policy.__wrapped__(True)
    assert mallopt.argtypes == (ctypes.c_int, ctypes.c_int) and mallopt.restype is ctypes.c_int
    assert calls == [(model.M_ARENA_MAX, 1), (model.M_MMAP_MAX, 0),
                     (model.M_TRIM_THRESHOLD, model.KEEP_FREED_BYTES)]
    assert all(ctypes.c_int(value).value == value for _, value in calls)
    assert [r.getMessage() for r in caplog.records] == [
        f"glibc mallopt rejected parameter {p} = {v}" for p, v in calls]


def test_missing_mallopt_is_skipped_and_admm_writes_the_same_bytes(tmp_path, monkeypatch):
    """With the lookup finding no mallopt, cli.main and the pool call
    nothing and `admm --threads 2` exits 0 with the same bytes. The
    allocator of this process stays as earlier calls set it, so this
    checks the skip, not the policy."""
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
    monkeypatch.setattr(model, "_malloc_policy", functools.cache(model._malloc_policy.__wrapped__))
    monkeypatch.setattr(cli, "_malloc_policy", model._malloc_policy)
    assert admm(str(tmp_path / "b")) == with_arena
    assert looked_up == ["mallopt", "mallopt"]
