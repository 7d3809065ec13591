"""Sums of floats that reach an artifact are added left to right, which
is what builtin sum() does up to Python 3.11. From 3.12 on, sum() of
floats compensates its rounding (Neumaier), so a loss total, an
attention block's importance (and so an inverse-weight plan) or admm's
final loss summed with it would change the pinned bytes. Each test runs
with every such module's sum() replaced by the compensated one, on a
fixture where the two sums differ."""

import builtins
import functools
import operator

import pytest

from conftest import build_toy
from struprune import admm, evaluation, importance, oracle
from struprune.allocation import apply_masks, build_masks, uniform_plan
from struprune.linalg import make_rng
from struprune.model import ModelArch, generate_toy_model


def compensated_sum(values, start=0):
    """sum() as Python 3.12 has it: Neumaier's compensated sum when every
    item is a float, the builtin otherwise."""
    values = list(values)
    if not values or not all(type(v) is float for v in values):
        return builtins.sum(values, start)
    total, comp = float(start), 0.0
    for v in values:
        t = total + v
        comp += (total - t) + v if abs(total) >= abs(v) else (v - t) + total
        total = t
    return total + comp


def left_sum(values):
    return functools.reduce(operator.add, values, 0.0)


@pytest.fixture
def compensated(monkeypatch):
    for module in (admm, evaluation, importance, oracle):
        monkeypatch.setattr(module, "sum", compensated_sum, raising=False)


def test_loss_totals_add_left_to_right(compensated):
    model, _, cache = build_toy("decoder", model_seed=102)
    pruned = apply_masks(model, build_masks(model, cache, uniform_plan(model, 0.4), "wanda"))
    for report in (evaluation.total_reconstruction_loss(pruned, cache),
                   oracle.total_reconstruction_loss_reference(pruned, cache)):
        losses = [loss for _, _, loss in report.per_layer]
        assert compensated_sum(losses) != left_sum(losses)
        assert report.total == left_sum(losses)


def test_head_terms_add_left_to_right(compensated):
    block = generate_toy_model(ModelArch(d=16, num_layers=1, num_heads=4), make_rng(0), layout="mha").blocks[0]
    heads = [importance.attention_head_term(w) for w in importance.head_matrices(block)]
    assert compensated_sum(heads) != left_sum(heads)
    assert importance.module_importance(block, 1.0, 1.0, 1) == left_sum(heads)


def test_admm_final_loss_adds_left_to_right(compensated):
    model, _, cache = build_toy("decoder", model_seed=102)
    cfg = admm.SolverConfig(outer_iters=1, inner_steps=2)
    result = admm.run_outer_loop(model, cache, uniform_plan(model, 0.5), cfg)
    last = [objective for iteration, _, _, objective in result.trace if iteration == cfg.outer_iters]
    assert compensated_sum(last) != left_sum(last)
    assert result.final_loss == left_sum(last)
