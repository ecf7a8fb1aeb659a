"""Repository hygiene checks that need only the standard library.

Unused imports in the package, the benchmark tools and the tests are
found by walking each module's syntax tree, and every name in
pcdl.__all__ must resolve, once. No three consecutive code lines of the
package appear twice. The README's quick tour runs, and each
value its comments state is checked. Importing the CLI loads neither a
process pool nor dataclasses, which every fresh interpreter would pay
for, and the lift oracle starts no pool with --jobs 2. The per-layer
tracer of the benchmark wraps pcdl entry points by name; installing and
uninstalling it here keeps a renamed or deleted entry point from
silently breaking traced benchmark runs. The benchmark's algebra answers
keep their digests under Python 3.10, the oldest that pyproject.toml
admits, when a python3.10 is on PATH.
"""

import ast
import importlib.util
import io
import os
import pathlib
import re
import shutil
import subprocess
import sys
import tokenize

import pytest

import pcdl
import pcdl.cli  # noqa: F401  (the tracer wraps cli entry points too)
from pcdl.enumeration import classes_with_upsets_bounded

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "pcdl").glob("*.py")) \
    + sorted((ROOT / "tools").glob("*.py")) \
    + sorted((ROOT / "tests").glob("*.py"))


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


def code_lines(source: str) -> list:
    """(line number, text) of each line of source that holds code, with
    its whitespace collapsed and its comment cut; docstrings, import
    statements and lines of under 12 characters are left out."""
    tree = ast.parse(source)
    skip = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            skip.update(range(node.lineno, node.end_lineno + 1))
        elif isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                               ast.AsyncFunctionDef)) and \
                ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            skip.update(range(doc.lineno, doc.end_lineno + 1))
    lines = source.splitlines()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            row, col = tok.start
            lines[row - 1] = lines[row - 1][:col]
    return [(number, text) for number, text in
            enumerate((" ".join(line.split()) for line in lines), 1)
            if number not in skip and len(text) >= 12]


def repeated_blocks(sources: dict) -> list:
    """(first place, later place) of every run of three consecutive code
    lines that was seen before, in sources (name -> text) or its own."""
    seen = {}
    repeats = []
    for name, source in sources.items():
        rows = code_lines(source)
        for k in range(len(rows) - 2):
            window = tuple(text for _, text in rows[k:k + 3])
            place = "%s:%d" % (name, rows[k][0])
            if window in seen:
                repeats.append((seen[window], place))
            else:
                seen[window] = place
    return repeats


def test_repeated_block_finder():
    body = ("    first = x + 1  # one\n    second = first * 2\n"
            "    return second - 3\n")
    one = '"""Doc."""\nimport os\n\n\ndef f(x):\n    """Doc."""\n' + body
    # a comment, a short line and other spacing do not hide a repeat
    two = ("from os import path\n\n\ndef g(x):\n    first = x + 1\n"
           "    # a comment between\n    second  =  first * 2\n"
           "    y = 1\n    return second - 3\n")
    assert repeated_blocks({"a": one, "b": two}) == [("a:7", "b:5")]
    assert repeated_blocks({"a": one + one.replace("f(x)", "h(x)")}) \
        == [("a:7", "a:16")]
    assert repeated_blocks({"a": one, "b": two.replace("- 3", "- 4")}) == []
    assert repeated_blocks({"a": one, "b": '"""\n' + body + '"""\n'}) == []


def test_no_repeated_code_blocks():
    # three code lines twice over are one piece of code to share
    package = sorted((ROOT / "src" / "pcdl").glob("*.py"))
    assert repeated_blocks({p.name: p.read_text() for p in package}) == []


def test_all_exports_resolve_once():
    names = pcdl.__all__
    assert sorted(n for n in set(names) if names.count(n) > 1) == []
    assert [n for n in names if not hasattr(pcdl, n)] == []


def test_cli_import_loads_no_pool_or_dataclasses():
    # dataclasses and a process pool pull in inspect, ast, logging and
    # traceback
    heavy = ("concurrent.futures", "dataclasses", "multiprocessing")
    code = ("import sys\nimport pcdl.cli\n"
            "print(' '.join(m for m in %r if m in sys.modules))" % (heavy,))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, env=env, timeout=60)
    assert (r.returncode, r.stdout, r.stderr) == (0, "\n", "")


# runs the oracle with --jobs 2, then --jobs 1, through pcdl.cli.main
_TWO_JOBS = """\
import contextlib, io, sys
from pcdl.cli import main
outs = []
for jobs in ("2", "1"):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["amalgam", "--in", sys.argv[1], "--n", "3", "--oracle",
                     "--bound", "5", "--jobs", jobs])
    outs.append((code, buf.getvalue()))
    if jobs == "2":
        print(" ".join(m for m in ("concurrent.futures", "multiprocessing")
                       if m in sys.modules))
print(outs[0] == outs[1], outs[0][0], "fails_with_witness" in outs[0][1])
"""


def test_oracle_with_two_jobs_starts_no_pool(tmp_path):
    # --jobs is inert: the fan2 dual's oracle run loads no pool with two
    # jobs asked for, and prints the bytes of one
    fan2 = tmp_path / "fan2.json"
    fan2.write_text('{"elements": ["g", "t1", "t2"], '
                    '"covers": [["g", "t1"], ["g", "t2"]]}')
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    r = subprocess.run([sys.executable, "-c", _TWO_JOBS, str(fan2)],
                       capture_output=True, text=True, env=env, timeout=60)
    assert (r.returncode, r.stdout, r.stderr) == (0, "\nTrue 1 True\n", "")


def test_readme_quick_tour_runs():
    # each expression line of the tour states its value in its comment
    text = (ROOT / "README.md").read_text()
    block = re.search(r"```python\n(.*?)```", text, re.S).group(1)
    lines = block.splitlines()
    env = {}
    checked = []
    for node in ast.parse(block).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], []), "README.md", "exec"), env)
            continue
        comment = lines[node.end_lineno - 1].split("#", 1)[1]
        want = ast.literal_eval(
            re.match(r"\s*(\(.*?\)|\w+)", comment).group(1))
        got = eval(compile(ast.Expression(node.value), "README.md", "eval"),
                   env)
        assert got == want, lines[node.end_lineno - 1]
        checked.append(want)
    assert checked == [3, 9, 4, True, (2,), True]


# the seed-1 algebra digests of test_cli's
# test_algebra_answers_keep_their_digests, by output format
ALGEBRA_DIGESTS = {
    "json": "ac1f022c0ca29f39eded1ab8124d9acac5e7026ce094d430a090637b4c339ab7",
    "text": "e4ad5f07654f3e9ae6b789a63cd859f82e15d854ee2fd4f2aa8d15ae0b6c484c"}


def test_algebra_answers_keep_their_digests_on_python_3_10():
    # int.to_bytes and int.from_bytes take no default length or byte
    # order before 3.11; the digest tool and pcdl need only the stdlib
    exe = shutil.which("python3.10")
    if exe is None:
        pytest.skip("no python3.10 on PATH")
    # a pyenv shim runs 3.10 only when that version is asked for
    env = dict(os.environ, PYENV_VERSION="3.10")
    probe = subprocess.run([exe, "-c", "import sys; print(sys.version[:5])"],
                           capture_output=True, text=True, env=env,
                           timeout=60)
    if probe.returncode != 0 or not probe.stdout.startswith("3.10."):
        pytest.skip("python3.10 on PATH does not run")
    r = subprocess.run([exe, str(ROOT / "tools" / "cli_digest.py"),
                        "--seeds", "1", "--workloads", "algebra"],
                       capture_output=True, text=True, env=env, timeout=600)
    assert r.returncode == 0, r.stderr
    rows = [line.split() for line in r.stdout.splitlines()[:-1]]
    assert {row[3]: row[-1] for row in rows} == ALGEBRA_DIGESTS


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
        # onto fan(1) and fan(2) the onto maps are counted in closed
        # form; onto fan(3) they are searched
        pcdl.is_congruence_extensile_bounded(pcdl.make_pcdl(pcdl.fan(3)),
                                             3, 5)
        pcdl.extension_property_bounded(pcdl.make_pcdl(pcdl.fan(2)), 3, 4)
        # the (0,1) quotient has 3 points, so bound 4 has extension classes
        pcdl.check_lift_cases(pcdl.build_quotient_model(0, 1), 4)
        pcdl.quotient(pcdl.fan_algebra(3),
                      pcdl.dual_congruence(pcdl.fan(3), ["g", "t1"]))
        pcdl.star_hom_pairs(pcdl.fan_algebra(2), pcdl.fan_algebra(3))
        closed_before_growth = tracer.calls["posets.from_covers"]
        classes_with_upsets_bounded.__wrapped__(9)
        closed_by_growth = (tracer.calls["posets.from_covers"]
                            - closed_before_growth)
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
    # the searches read tables: a map object built per gamma would make
    # the maps outnumber the gammas of the three bounded searches
    gammas = sum(tracer.counts[name + ".gamma_search.yields"]
                 for name in ("amalgamation", "congruences", "qmodel"))
    assert tracer.calls["posets.OrderMap"] < gammas
    # quotients and transported homs are certified on the dual points; an
    # element-level homomorphism scan coming back shows up here
    assert tracer.calls["congruences.quotient"] == 1
    assert tracer.calls["algebras.hom_of_dual_map"] > 0
    assert tracer.calls["duality.is_homomorphism"] == 0
    # classes grow from masks: only the empty start poset may be closed
    # from label pairs
    assert tracer.counts["enumeration.candidates"] > 0
    assert closed_by_growth <= 1
