import math

import numpy as np
import pytest

from struprune.allocation import ClosedFormContext
from struprune.errors import ParameterError, SizeError
from struprune.linalg import make_rng
from struprune.oracle import (
    energy_minimize_projected,
    enumerate_masks,
    finite_diff_grad,
    project_box_sum,
)

from conftest import assert_close


def recursive_subsets(n, k):
    """Second, independent subset generator for double-entry bookkeeping."""
    if k == 0:
        return [[]]
    if n < k:
        return []
    with_last = [s + [n - 1] for s in recursive_subsets(n - 1, k - 1)]
    without_last = recursive_subsets(n - 1, k)
    return without_last + with_last


class TestEnumerateMasks:
    def test_full_budget_single_mask(self, rng):
        ctx = ClosedFormContext(
            rng.normal(size=5), rng.normal(size=5), rng.normal(size=5), rng.normal(size=5)
        )
        res = enumerate_masks(ctx, 5)
        assert len(res.table) == 1
        assert res.best_bits.all()

    def test_two_case_hand_enumeration(self):
        ctx = ClosedFormContext([2.0, 0.0], [1.0, 1.0], [0.0, 0.0], [0.0, 0.0])
        res = enumerate_masks(ctx, 1)
        assert res.best_bits.tolist() == [True, False]
        assert abs(res.best_loss - 1.0) < 1e-12  # (2-1)^2 + 0^2

    def test_best_bounds_table(self, rng):
        ctx = ClosedFormContext(
            rng.normal(size=6), rng.normal(size=6), rng.normal(size=6), rng.normal(size=6)
        )
        res = enumerate_masks(ctx, 3)
        assert len(res.table) == math.comb(6, 3)
        assert all(res.best_loss <= loss for _, loss in res.table)

    def test_size_cap(self, rng):
        ctx = ClosedFormContext(
            rng.normal(size=13), rng.normal(size=13), rng.normal(size=13), rng.normal(size=13)
        )
        with pytest.raises(SizeError):
            enumerate_masks(ctx, 2)

    def test_double_entry_bookkeeping(self):
        rng = make_rng(55)
        for n in (2, 3, 4):
            ctx = ClosedFormContext(
                rng.normal(size=n), rng.normal(size=n), rng.normal(size=n), rng.normal(size=n)
            )
            for k in range(n + 1):
                res = enumerate_masks(ctx, k)
                expected = {}
                for subset in recursive_subsets(n, k):
                    bits = np.zeros(n)
                    bits[subset] = 1.0
                    expected[tuple(int(b) for b in bits)] = ctx.mask_loss(bits)
                got = dict(res.table)
                assert set(got) == set(expected)
                for key in expected:
                    assert abs(got[key] - expected[key]) < 1e-12


class TestProjection:
    def test_sum_and_bounds(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 10))
            v = rng.normal(size=n) * 3.0
            total = float(rng.uniform(n * 0.1, n * 0.9))
            x = project_box_sum(v, total, 1e-6, 1.0)
            assert abs(x.sum() - total) < 1e-10
            assert np.all(x >= 1e-6 - 1e-15) and np.all(x <= 1.0 + 1e-15)

    def test_interior_projection_is_shift(self):
        v = np.array([0.3, 0.5, 0.4])
        x = project_box_sum(v, 1.5, 0.0, 1.0)
        assert_close(x, v + 0.1, 1e-10)

    def test_infeasible_rejected(self):
        with pytest.raises(ParameterError):
            project_box_sum([0.5, 0.5], 3.0, 0.0, 1.0)

    def test_idempotent(self, rng):
        v = rng.uniform(0.1, 0.9, size=5)
        x = project_box_sum(v, 2.0, 1e-6, 1.0)
        y = project_box_sum(x, 2.0, 1e-6, 1.0)
        assert_close(x, y, 1e-9)


class TestEnergyMinimize:
    def test_equal_importance_uniform(self):
        r = energy_minimize_projected([2.0, 2.0, 2.0, 2.0], 0.5, 1.0, 4)
        assert_close(r, [0.5] * 4, 1e-6)

    def test_matches_softmax_closed_form(self):
        r = energy_minimize_projected([0.0, math.log(3.0)], 0.5, 1.0, 2)
        assert_close(r, [0.75, 0.25], 1e-4)

    def test_descends_from_uniform(self):
        imps = np.array([0.4, -0.2, 1.1])
        temp, r_bar = 0.8, 0.4
        beta = np.exp(-imps / temp)
        solved = energy_minimize_projected(imps, r_bar, temp, 3)
        uniform = np.full(3, r_bar)
        obj = lambda r: float(-np.dot(beta, np.log(r)))
        assert obj(solved) <= obj(uniform) + 1e-12

    def test_budget_exact(self, rng):
        for _ in range(5):
            n = int(rng.integers(2, 7))
            imps = rng.normal(size=n)
            r = energy_minimize_projected(imps, 0.45, 1.2, n)
            assert abs(r.sum() - 0.45 * n) < 1e-10

    def test_infeasible_budget(self):
        with pytest.raises(ParameterError):
            energy_minimize_projected([1.0, 1.0], 1.0, 1.0, 2)
        with pytest.raises(ParameterError):
            energy_minimize_projected([1.0, 1.0], 0.0, 1.0, 2)


class TestFiniteDiff:
    def test_quadratic_gradient_is_x(self, rng):
        x = rng.normal(size=(3, 4))
        grad = finite_diff_grad(lambda m: 0.5 * float(np.sum(m * m)), x)
        assert_close(grad, x, 1e-8)

    def test_constant_zero(self, rng):
        grad = finite_diff_grad(lambda m: 7.5, rng.normal(size=(2, 3)))
        assert_close(grad, np.zeros((2, 3)), 0.0)

    def test_known_hessian_quadratic(self):
        rng = make_rng(77)
        h = rng.normal(size=(4, 4))
        h = h @ h.T + np.eye(4)
        x = rng.normal(size=(4, 1))

        def f(v):
            return 0.5 * float((v.T @ h @ v)[0, 0])

        assert_close(finite_diff_grad(f, x), h @ x, 1e-7)

    def test_bad_step(self, rng):
        with pytest.raises(ParameterError):
            finite_diff_grad(lambda m: 0.0, rng.normal(size=(2, 2)), h=0.0)


def test_oracle_not_imported_by_production_path():
    # Layering rule: the pruning modules never import the oracle.
    import struprune.admm
    import struprune.allocation
    import struprune.evaluation
    import struprune.importance
    import struprune.linalg
    import struprune.model

    for mod in (
        struprune.admm,
        struprune.allocation,
        struprune.evaluation,
        struprune.importance,
        struprune.linalg,
        struprune.model,
    ):
        with open(mod.__file__, "r", encoding="utf-8") as fh:
            src = fh.read()
        assert "import oracle" not in src and "from .oracle" not in src, mod.__name__
