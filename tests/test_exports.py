"""Every exported name, and every flowlab function the benchmark's tracer wraps, resolves.

A rename or removal then fails here, before it can fail a traced benchmark
pass (``perfbench/spans.py`` refuses to install when a target is missing).
"""

import importlib
import pkgutil
from pathlib import Path

import pytest

import flowlab

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
MODULES = ["flowlab"] + [f"flowlab.{m.name}" for m in pkgutil.iter_modules(flowlab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def _span_targets():
    # executed from its source, so nothing is imported or cached under perfbench/
    namespace = {"__name__": "perfbench_spans", "__file__": str(SPANS)}
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), namespace)
    return namespace["TARGETS"]


def test_benchmark_span_targets_resolve():
    targets = _span_targets()
    missing = []
    for _, module, path, _ in targets:
        # resolved as the tracer patches it: the last name must be the owner's own attribute
        *outer, attr = path.split(".")
        owner = importlib.import_module(module)
        for part in outer:
            owner = getattr(owner, part, None)
        if owner is None or attr not in vars(owner):
            missing.append(f"{module}:{path}")
    assert targets and missing == []
