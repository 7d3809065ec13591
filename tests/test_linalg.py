import math
import threading
import time

import numpy as np
import pytest
import scipy.linalg

from struprune.errors import DimensionError, ParameterError, SingularSystemError
from struprune.linalg import cho_solve, cholesky, make_rng, relu, ridge_solve, row_softmax, softmax_vec

from conftest import assert_close


def gd_least_squares(a, b, eps, steps=200_000, tol=1e-14):
    """Gradient-descent solver for min ||AX-B||^2 + eps||X||^2."""
    x = np.zeros((a.shape[1], b.shape[1]))
    lip = 2.0 * (np.linalg.norm(a, 2) ** 2 + eps)
    lr = 1.0 / lip
    for _ in range(steps):
        grad = 2.0 * a.T @ (a @ x - b) + 2.0 * eps * x
        x_new = x - lr * grad
        if np.max(np.abs(x_new - x)) < tol:
            return x_new
        x = x_new
    return x


class TestRidgeSolve:
    def test_identity_system(self, rng):
        b = rng.normal(size=(3, 2))
        assert_close(ridge_solve(np.eye(3), b, 0.0), b, 1e-12)

    def test_mean_of_two_points(self):
        x = ridge_solve(np.array([[1.0], [1.0]]), np.array([[0.0], [2.0]]), 0.0)
        assert_close(x, [[1.0]], 1e-12)

    def test_matches_gradient_descent_oracle(self):
        rng = make_rng(11)
        a = rng.normal(size=(20, 4))
        b = rng.normal(size=(20, 2))
        x = ridge_solve(a, b, 1e-6)
        assert_close(x, gd_least_squares(a, b, 1e-6), 1e-6)

    def test_singular_requires_eps(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]])
        with pytest.raises(SingularSystemError, match="eps"):
            ridge_solve(a, np.ones((3, 1)), 0.0)
        # The instructed fallback works.
        ridge_solve(a, np.ones((3, 1)), 1e-6)

    def test_normal_equation_residual(self):
        rng = make_rng(23)
        for trial in range(10):
            a = rng.normal(size=(15, 5))
            # Scale one column to sweep the conditioning up to ~1e8.
            a[:, 0] *= 10.0 ** (trial / 2.5)
            b = rng.normal(size=(15, 3))
            gram = a.T @ a
            if np.linalg.cond(gram) > 1e8:
                continue
            x = ridge_solve(a, b, 0.0)
            rhs = a.T @ b
            resid = np.linalg.norm(gram @ x - rhs) / np.linalg.norm(rhs)
            assert resid < 1e-8

    def test_negative_eps_rejected(self):
        with pytest.raises(ParameterError):
            ridge_solve(np.eye(2), np.eye(2), -1.0)


def _spd_factor(rng, n, lower=True):
    a = rng.normal(size=(n, n))
    return scipy.linalg.cho_factor(a @ a.T + n * np.eye(n), lower=lower, check_finite=False)


def _gram_layouts(rng, n):
    """One positive definite gram, C-ordered, Fortran-ordered and as a
    view that strides over every other column of a wider array."""
    a = rng.normal(size=(n, n))
    gram = a @ a.T + n * np.eye(n)
    wide = np.zeros((n, 2 * n))
    wide[:, ::2] = gram
    return gram, np.asfortranarray(gram), wide[:, ::2]


def _max_tick_gap(solve) -> tuple[float, float]:
    """Run solve() on a worker thread while this thread ticks every
    millisecond; return the longest gap between two ticks and the solve's
    duration. A solve that holds the GIL stalls the ticks for its length."""
    duration = []

    def work():
        start = time.perf_counter()
        solve()
        duration.append(time.perf_counter() - start)

    worker = threading.Thread(target=work)
    ticks = [time.perf_counter()]
    worker.start()
    while worker.is_alive():
        time.sleep(0.001)
        ticks.append(time.perf_counter())
    worker.join(timeout=60)
    assert not worker.is_alive() and duration
    return float(np.max(np.diff(ticks))), duration[0]


class TestChoSolve:
    @pytest.mark.parametrize("n", [0, 1, 7, 128, 512])
    @pytest.mark.parametrize("nrhs", [1, 2048])
    def test_bits_match_scipy(self, n, nrhs):
        rng = make_rng(n + nrhs)
        b = rng.normal(size=(n, 2 * nrhs))
        rows_strided = np.repeat(b[:, :nrhs], 2, axis=0)[::2]
        factors = [_spd_factor(rng, n, lower) for lower in (True, False)]
        factors.append(cholesky(_gram_layouts(rng, n)[2], "unused"))
        for factor in factors:
            for rhs in (b[:, :nrhs].copy(), np.asfortranarray(b[:, :nrhs]), b[:, ::2], rows_strided):
                x = cho_solve(factor, rhs)
                ref = scipy.linalg.cho_solve(factor, rhs, check_finite=False)
                assert np.array_equal(x, ref)
                assert x.flags.f_contiguous and x.shape == ref.shape

    @pytest.mark.parametrize("n", [0, 1, 7, 64, 512])
    def test_cholesky_bits_match_scipy(self, n):
        # The factor in values, both triangles and memory order, from each
        # layout of the gram, which it leaves unchanged.
        rng = make_rng(1000 + n)
        for gram in _gram_layouts(rng, n):
            before = gram.copy()
            c, lower = cholesky(gram, "unused")
            ref_c, ref_lower = scipy.linalg.cho_factor(gram, lower=True, check_finite=False)
            assert lower is True and ref_lower is True
            assert np.array_equal(c, ref_c) and np.array_equal(gram, before)
            assert c.strides == ref_c.strides and c.flags.f_contiguous

    @pytest.mark.parametrize("gram", [-np.eye(3), np.ones((3, 3)), np.array([[1.0, 2.0], [2.0, 1.0]])],
                             ids=["negative", "singular", "indefinite"])
    def test_cholesky_not_positive_definite_raises_callers_message(self, gram):
        with pytest.raises(SingularSystemError, match=r"^no factor at --beta 2\.5$"):
            cholesky(gram, "no factor at --beta 2.5")

    def test_cholesky_needs_a_square_matrix(self):
        for gram in (np.ones((3, 2)), np.ones(4)):
            with pytest.raises(DimensionError):
                cholesky(gram, "unused")

    def test_rhs_left_unchanged(self, rng):
        factor = _spd_factor(rng, 16)
        for b in (rng.normal(size=(16, 5)), np.asfortranarray(rng.normal(size=(16, 5)))):
            before = b.copy()
            x = cho_solve(factor, b)
            assert x is not b and np.array_equal(b, before)

    def test_non_positive_factor_raises(self, rng):
        c, lower = _spd_factor(rng, 6)
        c[3, 3] = 0.0
        with pytest.raises(SingularSystemError):
            cho_solve((c, lower), np.ones((6, 2)))
        c[3, 3] = -1.0
        with pytest.raises(SingularSystemError):
            cho_solve((c, lower), np.ones((6, 2)))

    def test_shape_mismatch_raises(self, rng):
        with pytest.raises(DimensionError):
            cho_solve(_spd_factor(rng, 4), np.ones((5, 2)))

    # LAPACK rejects a leading dimension below 1, also for an empty system.
    def test_ridge_solve_on_no_columns(self, capfd):
        x = ridge_solve(np.zeros((5, 0)), np.ones((5, 3)), 1e-6)
        assert x.shape == (0, 3)
        assert capfd.readouterr().err == ""

    def test_solve_releases_the_gil(self):
        # One FFN activation solve's shape, widened: 512 x 4096.
        rng = make_rng(5)
        factor = _spd_factor(rng, 512)
        b = rng.normal(size=(512, 4096))
        # The best of three tries, so one scheduler hiccup cannot fail it;
        # a solve that holds the GIL stalls the ticks on every try.
        gap, duration = min(
            (_max_tick_gap(lambda: cho_solve(factor, b)) for _ in range(3)),
            key=lambda r: r[0] / r[1],
        )
        assert gap < duration / 4, f"longest tick gap {gap:.3f} s during a {duration:.3f} s solve"


class TestRelu:
    def test_hand_case(self):
        assert relu(np.array([[-1.0, 2.0]])).tolist() == [[0.0, 2.0]]

    def test_zeros(self):
        assert np.array_equal(relu(np.zeros((2, 2))), np.zeros((2, 2)))

    def test_elementwise_oracle(self, rng):
        z = rng.normal(size=(6, 5))
        expected = np.array([[max(0.0, v) for v in row] for row in z])
        assert np.array_equal(relu(z), expected)


class TestSoftmaxVec:
    def test_symmetry(self):
        for temp in (0.1, 1.0, 50.0):
            assert_close(softmax_vec([3.0] * 4, temp), [0.25] * 4, 1e-15)

    def test_hand_case(self):
        assert_close(softmax_vec([0.0, math.log(3.0)], 1.0), [0.75, 0.25], 1e-12)

    def test_high_temperature_limit(self):
        out = softmax_vec([1.0, 2.0, 5.0], 1e9)
        assert_close(out, [1 / 3] * 3, 1e-6)

    def test_sum_and_shift_invariance(self, rng):
        x = rng.normal(size=12)
        out = softmax_vec(x, 0.7)
        assert abs(out.sum() - 1.0) < 1e-12
        assert_close(out, softmax_vec(x + 123.456, 0.7), 1e-12)

    def test_bad_temperature(self):
        with pytest.raises(ParameterError):
            softmax_vec([1.0, 2.0], 0.0)

    def test_extreme_inputs_stable(self):
        out = softmax_vec([1e4, -1e4], 1.0)
        assert np.all(np.isfinite(out)) and abs(out.sum() - 1.0) < 1e-12
        # The max subtraction overflows to -inf for the first entry: weight 0.
        assert softmax_vec([1.7e308, -1.7e308], 1.0).tolist() == [0.0, 1.0]

    def test_temperature_too_small_for_inputs(self):
        with pytest.raises(ParameterError, match="temperature 1e-310"):
            softmax_vec([0.0, 2.0], 1e-310)


class TestRowSoftmax:
    def test_rows_sum_to_one(self, rng):
        p = row_softmax(rng.normal(size=(4, 9)), scale=2.0)
        assert_close(p.sum(axis=1), np.ones(4), 1e-12)

    def test_matches_definition(self):
        z = np.array([[0.0, math.log(3.0)]])
        assert_close(row_softmax(z, 1.0), [[0.25, 0.75]], 1e-12)


class TestRng:
    def test_same_seed_same_stream(self):
        a = make_rng(99).normal(size=16)
        b = make_rng(99).normal(size=16)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(make_rng(1).normal(size=8), make_rng(2).normal(size=8))

    def test_spawn_deterministic(self):
        kids_a = [g.normal() for g in make_rng(3).spawn(4)]
        kids_b = [g.normal() for g in make_rng(3).spawn(4)]
        assert kids_a == kids_b

    def test_negative_seed_rejected(self):
        with pytest.raises(ParameterError):
            make_rng(-1)
