"""Repository hygiene checks that need only the standard library.

Unused imports in the package are found by walking each module's syntax
tree, and every name in pcdl.__all__ must resolve, once. The per-layer
tracer of the benchmark wraps pcdl entry points by name; installing and
uninstalling it here keeps a renamed or deleted entry point from
silently breaking traced benchmark runs.
"""

import ast
import importlib.util
import pathlib
import sys

import pytest

import pcdl
import pcdl.cli  # noqa: F401  (the tracer wraps cli entry points too)

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "pcdl").glob("*.py"))


def unused_imports(source: str) -> list:
    """Names imported anywhere in source and never read or exported."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and \
                node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and \
                any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_unused_import_finder():
    source = ("import os\nimport concurrent.futures\n"
              "from x import a, b as c\n__all__ = ['a']\n"
              "def f():\n    from y import d\n"
              "    return concurrent.futures.wait\n")
    assert unused_imports(source) == ["c", "d", "os"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_all_exports_resolve_once():
    names = pcdl.__all__
    assert sorted(n for n in set(names) if names.count(n) > 1) == []
    assert [n for n in names if not hasattr(pcdl, n)] == []


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def _bindings():
    """Every attribute of every pcdl module and of the classes they own."""
    out = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "pcdl" and not mod_name.startswith("pcdl."):
            continue
        for name, value in vars(mod).items():
            out[(mod_name, name)] = value
            if isinstance(value, type) and \
                    value.__module__.startswith("pcdl"):
                for attr, raw in vars(value).items():
                    out[(mod_name, name, attr)] = raw
    return out


def test_tracer_installs_and_uninstalls_cleanly():
    before = _bindings()
    tracer = _load_tracer()()
    try:
        tracer.install()
        # called through the package, whose bindings the tracer wraps
        pcdl.make_pcdl(pcdl.fan(2))
        pcdl.is_congruence_extensile_bounded(pcdl.make_pcdl(pcdl.fan(2)),
                                             3, 4)
        pcdl.extension_property_bounded(pcdl.make_pcdl(pcdl.fan(2)), 3, 4)
        # the (0,1) quotient has 3 points, so bound 4 has extension classes
        pcdl.check_lift_cases(pcdl.build_quotient_model(0, 1), 4)
    finally:
        tracer.uninstall()
    assert _bindings() == before
    assert tracer.calls["algebras.make_pcdl"] >= 2
    assert tracer.calls["congruences.extensile"] == 1
    # one call from each bounded search and one from the q-model check
    assert tracer.calls["amalgamation.extension_classes"] == 3
    assert tracer.counts["congruences.gamma_search.yields"] > 0
    assert tracer.calls["amalgamation.class_task"] > 0
    assert tracer.counts["amalgamation.gamma_search.yields"] > 0
    # the q-model's onto search is named after the check that runs it
    assert tracer.calls["qmodel.check_lift_cases"] == 1
    assert tracer.counts["qmodel.gamma_search.yields"] > 0
