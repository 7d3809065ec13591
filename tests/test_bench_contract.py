"""Guard the names the benchmark's traced run depends on.

perfbench/workloads.py maps metrics to "module.function" names and lists
module-global bindings the tracer must find. Deleting or renaming one of
them breaks the traced benchmark run, so it fails here first. The file is
only read, never changed.
"""

import importlib
import importlib.util
import inspect
import os
import sys

import pytest

WORKLOADS_PATH = os.path.join(os.path.dirname(__file__), "..", "perfbench", "workloads.py")


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load_workloads()


def _traced_functions() -> set[str]:
    names = {f for *_, funcs in WORKLOADS.LAYER_METRICS for f in funcs}
    for workload in WORKLOADS.WORKLOADS.values():
        names |= {key.split(">")[-1] for key in WORKLOADS.expected_counts(workload)}
    return names


@pytest.mark.parametrize("name", sorted(_traced_functions()))
def test_traced_function_is_public(name):
    module_name, func_name = name.split(".")
    assert module_name in WORKLOADS.TRACED_MODULES
    module = importlib.import_module(f"struprune.{module_name}")
    func = getattr(module, func_name, None)
    assert inspect.isfunction(func), f"struprune.{name} is not a function"
    assert func.__module__ == f"struprune.{module_name}" and not func_name.startswith("_")


@pytest.mark.parametrize("binding", WORKLOADS.REQUIRED_BINDINGS)
def test_required_binding_is_module_global(binding):
    site, attr = binding.split(".")
    module = importlib.import_module(f"struprune.{site}")
    assert attr in vars(module), f"struprune.{site} has no global {attr!r}"
    func = vars(module)[attr]
    owner = func.__module__.rpartition(".")[2]
    assert inspect.isfunction(func) and owner in WORKLOADS.TRACED_MODULES
