"""scipy loads on the first Cholesky factorization, not with struprune:
the commands that never factor never import it, and admm loads only the
LAPACK extension scipy.linalg.cython_lapack, never the scipy.linalg
package. Each check runs in a fresh interpreter, because this suite
imports scipy itself."""

import os
import subprocess
import sys
import textwrap

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")

SETUP = """
import contextlib, io, os, sys
from struprune.cli import main

root = sys.argv[1]
model, calib = os.path.join(root, "model"), os.path.join(root, "calib")

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(list(argv))
    assert code == 0, (argv, code)

run("gen", "--d", "16", "--layers", "2", "--heads", "2", "--seed", "101", "--out", model)
run("calibrate", "--model", model, "--n", "8", "--seq-len", "16", "--seed", "202", "--out", calib)
"""


def run_fresh(tmp_path, body, setup=SETUP):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    script = setup + textwrap.dedent(body)
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


def test_one_shot_commands_never_import_scipy(tmp_path):
    run_fresh(tmp_path, """
        data = ["--model", model, "--calib", calib, "--sparsity", "0.3"]
        run("plan", *data, "--method", "softmax", "--out", os.path.join(root, "plan"))
        run("prune", *data, "--method", "softmax", "--out", os.path.join(root, "soft"))
        run("prune", *data, "--method", "closed-form", "--out", os.path.join(root, "cf"))
        run("sweep", *data, "--t-grid", "0.5,1", "--out", os.path.join(root, "sweep"))
        run("eval", "--model", os.path.join(root, "soft"), "--dense", model, "--calib", calib,
            "--out", os.path.join(root, "eval"))
        run("memory", "--out", os.path.join(root, "mem"))
        assert "scipy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("scipy"))
    """)


def test_admm_and_verify_import_scipy_at_first_factorization(tmp_path):
    # With --threads 2 the first factorization, and so the load of LAPACK,
    # runs on a pool worker. verify compares the kernels with scipy.linalg's
    # own, so it imports the package, also after admm loaded the extension.
    run_fresh(tmp_path, """
        assert "scipy" not in sys.modules
        run("admm", "--model", model, "--calib", calib, "--iters", "2", "--inner", "3",
            "--threads", "2", "--out", os.path.join(root, "admm"))
        assert "scipy.linalg" not in sys.modules, sorted(m for m in sys.modules if m.startswith("scipy"))
        run("verify")
        assert "scipy.linalg" in sys.modules
    """)


FIRST_SOLVES_ON_FOUR_THREADS = """
import sys, threading
import numpy as np
from struprune.linalg import cho_solve, cholesky

barrier, results, errors = threading.Barrier(4), [], []

def first_solve(n):
    barrier.wait()
    try:
        results.append(cho_solve(cholesky(4.0 * np.eye(n), "not positive definite"), np.ones((n, 2))))
    except Exception as exc:
        errors.append(repr(exc))

threads = [threading.Thread(target=first_solve, args=(8 + i,)) for i in range(4)]
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=60)
assert not errors, errors
assert sorted(x.shape[0] for x in results) == [8, 9, 10, 11]
assert all(np.array_equal(x, np.full(x.shape, 0.25)) for x in results)
assert "scipy.linalg" not in sys.modules
"""


def test_first_factorizations_on_four_threads_at_once(tmp_path):
    # Four threads make the process's first factorization and solve
    # together, so they all reach the load of LAPACK at once; one that
    # read the module while another was still initialising it would find
    # no function-pointer table. Each interpreter loads LAPACK once, and
    # without the lock about half of them lose the race, so it runs in six.
    for _ in range(6):
        run_fresh(tmp_path, FIRST_SOLVES_ON_FOUR_THREADS, setup="")
