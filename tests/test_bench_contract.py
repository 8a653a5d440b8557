"""Static checks that the benchmark in perfbench/ still fits the package.

perfbench/ drives orthoseg through its public names and reads per-layer
metrics off span names such as ``autodiff.avg_pool``.  A deletion in src/
that one of those names relies on would break the benchmark, or silently
zero a metric, without failing any other test.  These checks parse the
benchmark's source with ``ast`` and resolve each such name in the package.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
SOURCES = sorted(BENCH.glob("*.py"))
LAYERS = ("autodiff", "network", "trainer", "inference", "data", "checkpoint")


def orthoseg_names(tree):
    """Local name -> the orthoseg module or object that the file imports
    under it; a name the package no longer has raises here."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name, importlib.import_module(a.name))
                         for a in node.names if a.name == "orthoseg")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("orthoseg"):
            for alias in node.names:
                if node.module == "orthoseg":
                    target = importlib.import_module(f"orthoseg.{alias.name}")
                else:
                    target = getattr(importlib.import_module(node.module), alias.name)
                names[alias.asname or alias.name] = target
    return names


def attribute_reads(tree, names):
    """(dotted name, object or None) for every attribute read whose base is
    one of ``names``; None marks a name the package does not have."""
    reads = []

    def resolve(node):
        if isinstance(node, ast.Name):
            return names.get(node.id), node.id
        if isinstance(node, ast.Attribute):
            base, dotted = resolve(node.value)
            if base is None:
                return None, None
            dotted = f"{dotted}.{node.attr}"
            value = getattr(base, node.attr, None)
            reads.append((dotted, value))
            return value, dotted
        return None, None

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            resolve(node)
    return reads


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_attributes_read_by_the_benchmark_exist(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    missing = sorted({dotted for dotted, value in attribute_reads(tree, orthoseg_names(tree))
                      if value is None})
    assert not missing, f"{path.name} reads names src/ no longer has: {missing}"


def span_names(tree):
    """Span names the per-layer metrics select on: the ELEMENTARY, INFO_HOOKS
    and SKIP entries, each ``pick(...)``'s first argument and every string
    compared with ``==`` or ``!=``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id in ("ELEMENTARY", "INFO_HOOKS", "SKIP")
                for t in node.targets):
            items = node.value.keys if isinstance(node.value, ast.Dict) else node.value.elts
            found.update(c.value for c in items)
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "pick" and node.args:
            found.add(node.args[0].value)
        elif isinstance(node, ast.Compare):
            found.update(c.value for c in (node.left, *node.comparators)
                         if isinstance(c, ast.Constant) and isinstance(c.value, str))
    return {n for n in found if n.split(".")[0] in LAYERS and not n.endswith(".bwd")
            and n != "inference.crop"}  # the tracer names the crop closure itself


def test_traced_span_names_are_public_functions():
    tree = ast.parse((BENCH / "tracing.py").read_text(encoding="utf-8"))
    names = span_names(tree)
    assert "autodiff.avg_pool" in names and "network.Model.forward" in names
    for name in sorted(names):
        layer, *path = name.split(".")
        obj = importlib.import_module(f"orthoseg.{layer}")
        for part in path:
            assert not part.startswith("_"), f"span {name} names a private function"
            obj = getattr(obj, part, None)
            assert obj is not None, f"span {name} names a function src/ no longer has"
        assert inspect.isfunction(obj) or inspect.ismethod(obj), f"span {name} is not a function"
