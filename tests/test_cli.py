import contextlib
import gc
import io
import json
import pathlib
import random
import subprocess
import sys

import pytest

from pcdl import (Poset, antichain, chain, cli, dual_congruence, dual_lattice,
                  duality, fan, poset_classes_exactly, poset_classes_upto,
                  qmodel, quotient)

from _oracles import (cube_tables, diamond_tables, product_tables,
                      upsets_brute)

FAN2 = {"format": "pcdl/1", "elements": ["g", "t1", "t2"],
        "covers": [["g", "t1"], ["g", "t2"]]}
FAN3 = {"format": "pcdl/1", "elements": ["g", "t1", "t2", "t3"],
        "covers": [["g", "t1"], ["g", "t2"], ["g", "t3"]]}


def run(*args, timeout=None):
    return subprocess.run([sys.executable, "-m", "pcdl.cli"] + list(args),
                          capture_output=True, text=True, timeout=timeout)


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def fan2(tmp_path):
    return write(tmp_path, "fan2.json", FAN2)


@pytest.fixture
def fan3(tmp_path):
    return write(tmp_path, "fan3.json", FAN3)


def test_dual_poset_to_lattice_and_back(tmp_path, fan2):
    r = run("dual", "--in", fan2)
    assert r.returncode == 0
    lat = json.loads(r.stdout)
    assert lat["format"] == "pcdl/1"
    assert len(lat["elements"]) == 5
    assert "joins" in lat and "meets" in lat

    back = write(tmp_path, "lat.json", lat)
    r = run("dual", "--in", back)
    assert r.returncode == 0
    pos = json.loads(r.stdout)
    assert sorted(pos) == ["covers", "elements", "format"]
    assert len(pos["elements"]) == 3


def test_dual_dot_output(fan2):
    r = run("dual", "--in", fan2, "--dot")
    assert r.returncode == 0
    assert r.stdout.startswith("digraph")


def test_check_pspace_map(tmp_path):
    doubling = {"format": "pcdl/1", "source": FAN3, "target": FAN2,
                "map": {"g": "g", "t1": "t1", "t2": "t2", "t3": "t2"}}
    path = write(tmp_path, "gamma.json", doubling)
    r = run("check-pspace-map", "--in", path)
    assert r.returncode == 0
    d = json.loads(r.stdout)
    assert d["p_morphism"] and d["onto"] and d["failure"] is None
    assert d["classification"] == "order_preserving"

    broken = dict(doubling, map={"g": "t1", "t1": "t1",
                                 "t2": "t2", "t3": "t2"})
    path = write(tmp_path, "broken.json", broken)
    r = run("check-pspace-map", "--in", path)
    assert r.returncode == 1
    d = json.loads(r.stdout)
    assert not d["p_morphism"] and d["failure"] is not None


def test_star_homs_counts(fan2, fan3):
    r = run("star-homs", "--from", fan2, "--to", fan3)
    assert r.returncode == 0
    d = json.loads(r.stdout)
    assert d["count"] == 8 and len(d["homs"]) == 8

    r = run("star-homs", "--from", fan2, "--to", fan3, "--onto")
    assert r.returncode == 1
    assert json.loads(r.stdout)["count"] == 0


def test_variety_index(fan3):
    r = run("variety-index", "--in", fan3)
    assert r.returncode == 0
    assert json.loads(r.stdout)["variety_index"] == 3


def test_congruences_count(fan3):
    r = run("congruences", "--in", fan3)
    assert r.returncode == 0
    assert json.loads(r.stdout)["count"] == 9


def test_quotient_by_labels(fan3):
    r = run("quotient", "--in", fan3, "--by", "g,t1")
    assert r.returncode == 0
    d = json.loads(r.stdout)
    assert len(d["algebra"]["elements"]) == 4
    assert d["projection"]["{t1}"] == "{}"


def test_extensile_exit_codes(fan2):
    r = run("extensile", "--in", fan2, "--n", "3", "--bound", "5")
    assert r.returncode == 0
    d = json.loads(r.stdout)
    assert d["verdict"] == "yes" and d["instances"] == 710


def test_amalgam_verdicts(fan2, fan3):
    r = run("amalgam", "--in", fan3, "--n", "3")
    assert r.returncode == 0
    d = json.loads(r.stdout)
    assert d["is_base"] is True and d["forbidden_is"] == []

    r = run("amalgam", "--in", fan2, "--n", "3")
    assert r.returncode == 1
    d = json.loads(r.stdout)
    assert d["is_base"] is False and d["forbidden_is"] == [2]
    assert d["witnesses"]["2"] == {"g": "g", "t1": "t1", "t2": "t2"}


def test_amalgam_oracle_column(fan2):
    r = run("amalgam", "--in", fan2, "--n", "3", "--oracle", "--bound", "5")
    assert r.returncode == 1
    d = json.loads(r.stdout)
    assert d["oracle"] == "fails_with_witness"


def test_lift_found_and_not_found(tmp_path):
    doubling = {"format": "pcdl/1", "source": FAN3, "target": FAN2,
                "map": {"g": "g", "t1": "t1", "t2": "t2", "t3": "t2"}}
    g_path = write(tmp_path, "gamma.json", doubling)
    a_path = write(tmp_path, "alpha.json", doubling)
    r = run("lift", "--gamma", g_path, "--alpha", a_path)
    assert r.returncode == 0
    d = json.loads(r.stdout)
    assert d["found"] is True and d["beta"] is not None

    total = {"format": "pcdl/1",
             "elements": ["g1", "a1", "b1", "c1", "g2", "a2", "b2", "c2"],
             "covers": [["g1", "a1"], ["g1", "b1"], ["g1", "c1"],
                        ["g2", "a2"], ["g2", "b2"], ["g2", "c2"]]}
    quot = {"format": "pcdl/1",
            "elements": ["g1", "a1", "b1", "c1", "g2", "a2", "b2"],
            "covers": [["g1", "a1"], ["g1", "b1"], ["g1", "c1"],
                       ["g2", "a2"], ["g2", "b2"]]}
    collapse = {"format": "pcdl/1", "source": total, "target": quot,
                "map": {"g1": "g1", "a1": "a1", "b1": "b1", "c1": "c1",
                        "g2": "g2", "a2": "a2", "b2": "b2", "c2": "a2"}}
    doubled = {"format": "pcdl/1", "source": FAN3, "target": quot,
               "map": {"g": "g2", "t1": "a2", "t2": "b2", "t3": "b2"}}
    g_path = write(tmp_path, "collapse.json", collapse)
    a_path = write(tmp_path, "doubled.json", doubled)
    r = run("lift", "--gamma", g_path, "--alpha", a_path)
    assert r.returncode == 1
    d = json.loads(r.stdout)
    assert d["found"] is False and d["beta"] is None


def test_q_model_verify_all():
    r = run("q-model", "--N", "1", "--m", "1", "--verify", "all",
            "--bound", "4")
    assert r.returncode == 0
    d = json.loads(r.stdout)
    assert d["sizes"] == {"total": 8, "quotient": 7}
    assert d["collapse_check"]["passed"] is True
    assert d["separation_check"]["passed"] is True
    lift = d["lift_check"]
    assert lift["case_counts"] == {"1": 10, "2": 12, "3a": 6, "3b": 3}
    assert lift["failures"] == 0
    assert lift["uncovered"] == 3
    assert d["divergence"]["diverges"] is True
    assert d["divergence"]["quotient_forbidden"] == [2]


def test_q_model_verify_all_runs_the_lift_check_once(monkeypatch, capsys):
    calls = []
    check = qmodel.check_lift_cases

    def counted(*args):
        calls.append(args)
        return check(*args)
    # the CLI and the divergence report each bind the check by name
    monkeypatch.setattr(qmodel, "check_lift_cases", counted)
    monkeypatch.setattr(cli, "check_lift_cases", counted)
    assert cli.main(["q-model", "--N", "1", "--m", "1", "--verify", "all",
                     "--bound", "4"]) == 0
    assert len(calls) == 1
    assert json.loads(capsys.readouterr().out)["lift_check"]["instances"] \
        == 34


def test_q_model_reads_only_the_dual_posets(monkeypatch, capsys):
    def no_algebra(*_):
        raise AssertionError("q-model built an up-set lattice")
    monkeypatch.setattr(duality.UpSetLattice, "__init__", no_algebra)
    assert cli.main(["q-model", "--N", "1", "--m", "1", "--verify", "all",
                     "--bound", "5"]) == 0
    divergence = json.loads(capsys.readouterr().out)["divergence"]
    assert divergence["diverges"] is True
    assert divergence["quotient_forbidden"] == [2]


def test_q_model_warns_when_the_bound_leaves_no_extension(capsys):
    # the (2,1) quotient has 11 points, so bound 6 searches no extension
    # class: the report stands, with one warning line on stderr
    assert cli.main(["q-model", "--N", "2", "--m", "1", "--verify", "lift",
                     "--bound", "6"]) == 0
    out, err = capsys.readouterr()
    assert json.loads(out)["lift_check"]["instances"] == 52
    assert err == ("warning: bound 6 is below the 11 points of the "
                   "quotient; only the identity and the collapse were "
                   "checked\n")


def test_q_model_gives_no_warning_when_extensions_fit(capsys):
    # the (0,1) quotient has 3 points, within bound 6
    assert cli.main(["q-model", "--N", "0", "--m", "1", "--bound", "6"]) == 0
    out, err = capsys.readouterr()
    assert json.loads(out)["lift_check"]["failures"] == 0
    assert err == ""


def test_q_model_refuses_a_separation_check_past_six_components(
        monkeypatch, capsys):
    def no_listing(self):
        raise AssertionError("the separation check listed up-sets")
    monkeypatch.setattr(Poset, "up_sets", no_listing)
    for verify in ("separation", "all"):
        assert cli.main(["q-model", "--N", "4", "--m", "3", "--verify",
                         verify]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: the separation check would list 4,782,969 "
                       "up-sets of the total poset (9^7); it takes at most "
                       "6 components\n")


def test_q_model_dot():
    r = run("q-model", "--N", "1", "--m", "1", "--dot")
    assert r.returncode == 0
    assert "subgraph cluster" in r.stdout
    assert "dashed" in r.stdout


def test_catalog_rows():
    r = run("catalog", "--max-points", "4", "--n", "3")
    assert r.returncode == 0
    d = json.loads(r.stdout)
    assert len(d["rows"]) == 16
    verdicts = {row["verdict"] for row in d["rows"]}
    assert verdicts == {"base", "not_base"}


def test_byte_identical_reruns(fan2):
    a = run("amalgam", "--in", fan2, "--n", "3", "--oracle", "--bound", "5")
    b = run("amalgam", "--in", fan2, "--n", "3", "--oracle", "--bound", "5")
    assert a.stdout == b.stdout

    one = run("amalgam", "--in", fan2, "--n", "3", "--oracle", "--bound",
              "5", "--jobs", "1")
    two = run("amalgam", "--in", fan2, "--n", "3", "--oracle", "--bound",
              "5", "--jobs", "2")
    assert one.stdout == two.stdout


def test_error_exit_codes(tmp_path, fan2):
    bad = tmp_path / "bad.json"
    bad.write_text('{"elements": [,]}')
    r = run("dual", "--in", str(bad))
    assert r.returncode == 3
    assert "line 1 column" in r.stderr

    r = run("dual", "--in", str(tmp_path / "missing.json"))
    assert r.returncode == 3
    assert r.stderr.startswith("error:")

    cyc = write(tmp_path, "cyc.json",
                {"format": "pcdl/1", "elements": ["a", "b"],
                 "covers": [["a", "b"], ["b", "a"]]})
    r = run("dual", "--in", cyc)
    assert r.returncode == 3
    assert "cycle" in r.stderr


def test_text_format(fan2):
    r = run("variety-index", "--in", fan2, "--format", "text")
    assert r.returncode == 0
    assert "variety_index: 2" in r.stdout


def test_out_file(tmp_path, fan2):
    out = tmp_path / "vi.json"
    r = run("variety-index", "--in", fan2, "--out", str(out))
    assert r.returncode == 0 and r.stdout == ""
    assert json.loads(out.read_text())["variety_index"] == 2

    # a path that cannot be opened is bad input, named in one line
    for bad in (tmp_path / "missing" / "vi.json", tmp_path):
        r = run("variety-index", "--in", fan2, "--out", str(bad))
        _one_error_line(r, str(bad))


def test_unusable_out_is_refused_before_the_command_runs(tmp_path, fan2):
    # the oracle over every dual of at most 5 points runs for minutes, so
    # only a refusal before the command runs ends within the timeout
    oracle = ("catalog", "--max-points", "5", "--n", "3", "--oracle")
    missing = tmp_path / "missing" / "x.json"
    for bad in (missing, tmp_path):
        _one_error_line(run(*oracle, "--out", str(bad), timeout=30),
                        str(bad))
    assert not missing.parent.exists()
    # the check neither creates nor truncates the file: --in may name it
    text = pathlib.Path(fan2).read_text()
    r = run("amalgam", "--in", fan2, "--n", "3", "--oracle", "--bound", "2",
            "--out", fan2, timeout=30)
    _one_error_line(r, "bound 2")
    assert pathlib.Path(fan2).read_text() == text
    r = run("variety-index", "--in", fan2, "--out", fan2, timeout=30)
    assert r.returncode == 0
    assert json.loads(pathlib.Path(fan2).read_text())["variety_index"] == 2


def test_json_reports_have_the_bytes_of_json_dumps(tmp_path, capsys):
    # the join and meet tables of every up-set lattice a report holds are
    # written row by row: 128 and 512 elements, and quotients of a poset
    # and of a lattice file
    docs = {n: {"elements": ["x%d" % i for i in range(n)], "covers": []}
            for n in (7, 9)}
    ac7, ac9 = (write(tmp_path, "ac%d.json" % n, d) for n, d in docs.items())
    out = tmp_path / "lattice.json"
    assert cli.main(["dual", "--in", ac7, "--out", str(out)]) == 0
    texts = [out.read_text()]
    for argv in (["dual", "--in", ac7], ["dual", "--in", ac9],
                 ["quotient", "--in", ac9, "--by", "x0,x3"],
                 ["quotient", "--in", str(out), "--by", "{x1}"]):
        assert cli.main(argv) == 0
        texts.append(capsys.readouterr().out)
    sizes = []
    for text in texts:
        doc = json.loads(text)
        assert text == json.dumps(doc, sort_keys=True, indent=2) + "\n"
        sizes.append(len(doc.get("algebra", doc)["joins"]))
    assert sizes == [128, 128, 512, 128, 64]
    # the text format renders the tables that to_dict() holds
    P = Poset.from_dict(docs[7])
    A = dual_lattice(P)
    q = quotient(A, dual_congruence(P, ["x2"]))
    for argv, payload in (
            (["dual", "--in", ac7], A.to_dict()),
            (["quotient", "--in", ac7, "--by", "x2"],
             {"algebra": q.algebra.to_dict(),
              "projection": q.projection.map_labels()})):
        assert cli.main(argv + ["--format", "text"]) == 0
        payload["format"] = cli.FORMAT_TAG
        assert capsys.readouterr().out == cli._render_text(payload) + "\n"


def test_algebra_answers_keep_their_digests():
    # every answer to the benchmark's requests at seed 1 (the algebra ones
    # in JSON and in text), as tools/cli_digest.py hashes them
    tool = pathlib.Path(__file__).resolve().parent.parent / "tools" \
        / "cli_digest.py"
    r = subprocess.run([sys.executable, str(tool), "--seeds", "1"],
                       capture_output=True, text=True, timeout=600)
    assert r.returncode == 0, r.stderr
    rows = [line.split() for line in r.stdout.splitlines()[:-1]]
    assert {(row[0], row[2], row[3]): row[-1] for row in rows} == {
        ("oracle-holds", "1", "json"):
            "99622d2cbd439b53506df8e5bf1dfd3c360100a735b92d4fef2bfaff36a2fcf2",
        ("oracle-refute", "1", "json"):
            "b9f822dd91cb7acbc1e0bdc6f8f4adf451ff1ff2487b40b40193e3553e517c72",
        ("model-search", "1", "json"):
            "583cb3b5cd703aa3530dba2f0709e4a0b636d281f51733e0bca90b296578d6df",
        ("algebra", "1", "json"):
            "ac1f022c0ca29f39eded1ab8124d9acac5e7026ce094d430a090637b4c339ab7",
        ("algebra", "1", "text"):
            "e4ad5f07654f3e9ae6b789a63cd859f82e15d854ee2fd4f2aa8d15ae0b6c484c"}


@pytest.mark.parametrize("payload", [
    {}, [], {"a": [], "b": {}}, [[]], [[], [1]], [[1, 2], [3], []],
    [True, 1, 0], [1, False], [False, True], None, {"x": None}, [None],
    {"é": ["雪", "\u2028", 'say "hi"', "back\\slash", ""]},
    ["a", 'b"c', "d\ne"], [1, "a", None, 2.5, {"k": [1]}],
    [-3, 0, 12345678901234567890], [0.5, 1], (1, 2), {"t": (1, "a")},
    {"b": 1, "a": {"d": [1, 2], "c": "x"}, "e": [{"f": [[0, 1], [1, 1]]}]},
    {1: "a", 2: "b"}, [{}, []], {"n": float("nan"), "i": float("inf")},
], ids=repr)
def test_json_writer_keeps_the_bytes_of_json_dumps(payload):
    chunks = []
    cli._write_json(chunks.append, payload)
    assert "".join(chunks) == json.dumps(payload, sort_keys=True, indent=2)


def test_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()


def test_lattice_requests_leave_no_cyclic_lattice(tmp_path, fan2, fan3):
    lattice = str(tmp_path / "lattice.json")
    assert cli.main(["dual", "--in", fan3, "--out", lattice]) == 0
    requests = [["dual", "--in", lattice], ["congruences", "--in", lattice],
                ["variety-index", "--in", lattice],
                ["quotient", "--in", lattice, "--by", "g,t1"],
                ["star-homs", "--from", lattice, "--to", fan2],
                ["amalgam", "--in", lattice, "--n", "3"]]

    def cyclic_lattices(run):
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                run()
            gc.collect()
            return sum(isinstance(o, duality.AbstractLattice)
                       for o in gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()

    def read_unit():
        lat = cli._load_poset_or_lattice(lattice)
        assert lat.unit is lat.unit
    # the probe sees the cycle that a read of unit makes
    assert cyclic_lattices(read_unit) == 1
    assert cyclic_lattices(lambda: [cli.main(argv) for argv in requests]) \
        == 0


def test_labelling_leaves_no_cyclic_garbage():
    # fresh copies, so each one is labelled inside the probe; rebuilding
    # the levels labels every kept child and searches the parents again
    copies = [Poset(p.labels, p.up) for p in
              (fan(3), chain(5), antichain(4)) + poset_classes_upto(5)]
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        keys = [p.canonical_form() for p in copies]
        levels = [poset_classes_exactly.__wrapped__(k) for k in range(6)]
        gc.collect()
        garbage = len(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert garbage == 0
    assert keys[3:] == [p.canonical_form() for p in poset_classes_upto(5)]
    assert [p.canonical_form() for level in levels for p in level] \
        == keys[3:]


def _lattice_doc(labels, joins, meets):
    return {"elements": labels, "joins": joins, "meets": meets}


def test_dual_rejects_large_non_distributive_lattice(tmp_path):
    labels, joins, meets = product_tables(diamond_tables(), cube_tables(5))
    assert len(labels) == 160
    path = write(tmp_path, "m3x32.json", _lattice_doc(labels, joins, meets))
    r = run("dual", "--in", path)
    assert r.returncode == 3
    assert r.stdout == ""
    assert r.stderr.startswith("error:") and "distributive" in r.stderr


# M_40's dual has 2^40 up-sets, so it must be rejected before they are listed
@pytest.mark.parametrize("k", [3, 40])
def test_congruences_rejects_non_distributive_lattice(tmp_path, k):
    path = write(tmp_path, "m%d.json" % k, _lattice_doc(*diamond_tables(k)))
    r = run("congruences", "--in", path, timeout=60)
    assert r.returncode == 3
    assert r.stdout == ""
    assert r.stderr.startswith("error:") and "distributive" in r.stderr
    assert r.stderr.count("\n") == 1


POINT_A = {"elements": ["a"], "covers": []}
POINT_X = {"elements": ["x"], "covers": []}


@pytest.mark.parametrize("command, doc", [
    ("check-pspace-map", {"source": POINT_A, "target": POINT_X,
                          "map": ["a"]}),
    ("check-pspace-map", {"source": POINT_A, "target": POINT_X,
                          "map": {"a": ["x"]}}),
    ("check-pspace-map", {"source": POINT_A, "target": POINT_X,
                          "map": {"a": "x", "b": "y"}}),
    ("dual", {"elements": ["a"], "joins": 5, "meets": [[0]]}),
    ("dual", {"elements": ["a"], "joins": [5], "meets": [[0]]}),
], ids=["map-list", "map-value-list", "map-extra-key", "joins-int",
        "joins-row-int"])
def test_malformed_documents_exit_3_with_one_line(tmp_path, capsys, command,
                                                  doc):
    path = write(tmp_path, "doc.json", doc)
    assert cli.main([command, "--in", path]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def _mutant(doc, rng):
    """A copy of doc with one seeded change.

    The change drops a key or an item, sets a value to a bad one, cuts a
    list short or gives one element the label of another. Bad values are
    -1, -n, n (n elements in the document), 1.0, "x", None, True and [].
    """
    doc = json.loads(json.dumps(doc))
    labelled = [d["elements"] for d in (doc, doc.get("source"),
                                        doc.get("target"))
                if d and "elements" in d]
    n = len(labelled[0])
    kind = rng.choice(["drop", "set", "set", "set", "cut", "relabel"])
    if kind == "relabel":
        elems = rng.choice(labelled)
        i, j = rng.sample(range(len(elems)), 2)
        elems[i] = elems[j]
        return doc
    places = []

    def walk(value):
        items = (value.items() if isinstance(value, dict)
                 else enumerate(value) if isinstance(value, list) else ())
        for key, item in items:
            places.append((value, key))
            walk(item)

    walk(doc)
    if kind == "cut":
        lists = [p for p in places if isinstance(p[0][p[1]], list)
                 and p[0][p[1]]]
        parent, key = rng.choice(lists)
        del parent[key][rng.randrange(len(parent[key])):]
        return doc
    parent, key = rng.choice(places)
    if kind == "drop":
        del parent[key]
    else:
        parent[key] = rng.choice([-1, -n, n, 1.0, "x", None, True, []])
    return doc


_MUTATED_RUNS = {
    "poset": [("dual", "--in", "X"), ("star-homs", "--from", "X", "--to", "F"),
              ("star-homs", "--from", "F", "--to", "X"),
              ("variety-index", "--in", "X"), ("congruences", "--in", "X"),
              ("quotient", "--in", "X", "--by", "B"),
              ("extensile", "--in", "X", "--n", "2", "--bound", "4"),
              ("amalgam", "--in", "X", "--n", "3")],
    "map": [("check-pspace-map", "--in", "X"),
            ("lift", "--gamma", "X", "--alpha", "F"),
            ("lift", "--gamma", "F", "--alpha", "X")],
}


@pytest.mark.parametrize("doc, runs, by", [
    (FAN3, "poset", "t1"),
    (dual_lattice(Poset.from_dict(FAN2)).to_dict(), "poset", "{t1}"),
    ({"source": FAN3, "target": FAN2,
      "map": {"g": "g", "t1": "t1", "t2": "t2", "t3": "t2"}}, "map", None),
], ids=["poset", "lattice", "map"])
def test_mutated_documents_exit_0_1_or_3(tmp_path, capsys, doc, runs, by):
    # every command that reads a document, on seeded one-step mutants
    rng = random.Random(26)
    fixed = write(tmp_path, "fixed.json", doc)
    for _ in range(150):
        mutant = _mutant(doc, rng)
        path = write(tmp_path, "mutant.json", mutant)
        for args in _MUTATED_RUNS[runs]:
            argv = [{"X": path, "F": fixed, "B": by}.get(a, a) for a in args]
            try:
                code = cli.main(argv)
            except BaseException as e:
                pytest.fail("%s raised %r on %s" % (args, e, mutant))
            out, err = capsys.readouterr()
            assert code in (0, 1, 3), (args, mutant, err)
            if code == 3:
                assert err.startswith("error:") and err.count("\n") == 1, \
                    (args, mutant, err)


def test_deeply_nested_json_exits_3_with_one_line(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    assert cli.main(["dual", "--in", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_variety_index_of_a_long_chain(tmp_path, capsys):
    # more points than the interpreter's recursion limit
    labels = ["c%d" % i for i in range(1200)]
    path = write(tmp_path, "chain.json", {
        "elements": labels, "covers": [list(p) for p in zip(labels,
                                                            labels[1:])]})
    assert cli.main(["variety-index", "--in", path]) == 0
    assert json.loads(capsys.readouterr().out)["variety_index"] == 1


@pytest.mark.parametrize("doc, count", [
    (FAN3, 9), (_lattice_doc(*cube_tables(2)), 4)], ids=["poset", "lattice"])
def test_congruences_reads_only_the_dual_poset(tmp_path, monkeypatch, capsys,
                                               doc, count):
    def no_algebra(_):
        raise AssertionError("congruences built an up-set lattice")
    monkeypatch.setattr(cli, "make_pcdl", no_algebra)
    # a lattice is read through its plain fields, never its unit
    monkeypatch.setattr(duality.AbstractLattice, "unit", property(no_algebra))
    path = write(tmp_path, "in.json", doc)
    assert cli.main(["congruences", "--in", path]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == count


def test_variety_index_reads_only_the_dual_poset(tmp_path, monkeypatch,
                                                capsys):
    # 2^24 up-sets would take minutes to list
    def no_algebra(_):
        raise AssertionError("variety-index built an up-set lattice")
    monkeypatch.setattr(cli, "make_pcdl", no_algebra)
    path = write(tmp_path, "antichain.json", {
        "elements": ["x%d" % i for i in range(24)], "covers": []})
    assert cli.main(["variety-index", "--in", path]) == 0
    assert json.loads(capsys.readouterr().out)["variety_index"] == 1


@pytest.mark.parametrize("args, code, key, value", [
    (("amalgam", "--n", "3"), 1, "forbidden_is", [2]),
    (("amalgam", "--n", "3", "--oracle", "--bound", "5"), 1, "oracle",
     "fails_with_witness"),
    (("extensile", "--n", "3", "--bound", "5"), 0, "instances", 710),
], ids=["amalgam", "amalgam-oracle", "extensile"])
def test_searches_read_only_the_dual_poset(fan2, monkeypatch, capsys, args,
                                           code, key, value):
    def no_algebra(*_):
        raise AssertionError("%s built an up-set lattice" % args[0])
    monkeypatch.setattr(duality.UpSetLattice, "__init__", no_algebra)
    assert cli.main([args[0], "--in", fan2, *args[1:]]) == code
    assert json.loads(capsys.readouterr().out)[key] == value


def test_catalog_reads_only_the_dual_posets(monkeypatch, capsys):
    def no_algebra(*_):
        raise AssertionError("catalog built an up-set lattice")
    monkeypatch.setattr(duality.UpSetLattice, "__init__", no_algebra)
    assert cli.main(["catalog", "--max-points", "4", "--n", "3"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert len(rows) == 16
    for row in rows:
        P = Poset.from_dict(row)
        assert row["algebra_size"] == len(upsets_brute(P))


def test_broken_invariant_exits_4_with_one_line(fan2, monkeypatch, capsys):
    def broken(_):
        raise AssertionError("index out of step")
    monkeypatch.setattr(cli, "variety_index", broken)
    assert cli.main(["variety-index", "--in", fan2]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "internal error: index out of step\n"


def _one_error_line(r, word) -> None:
    assert r.returncode == 3
    assert r.stdout == ""
    assert r.stderr.startswith("error:") and word in r.stderr
    assert r.stderr.count("\n") == 1


def _with_input(args, path) -> list:
    return [path if a == "IN" else a for a in args]


@pytest.mark.parametrize("args, flag", [
    (("variety-index", "--in", "IN", "--jobs", "0"), "--jobs"),
    (("amalgam", "--in", "IN", "--n", "3", "--oracle", "--bound", "-2"),
     "--bound"),
    # fan2 has three points, so no extension fits in two
    (("amalgam", "--in", "IN", "--n", "3", "--oracle", "--bound", "2"),
     "bound 2"),
    (("extensile", "--in", "IN", "--n", "3", "--bound", "2"), "bound 2"),
    (("catalog", "--max-points", "3", "--n", "-2"), "--n"),
    (("amalgam", "--in", "IN", "--n", "-1"), "--n"),
    (("q-model", "--N", "-1", "--m", "2"), "--N must be at least 0, got -1"),
    (("q-model", "--N", "2", "--m", "-1"), "--m must be at least 0, got -1"),
    (("catalog", "--max-points", "-1", "--n", "3"),
     "--max-points must be at least 0, got -1"),
    # level 10 holds 2,567,284 classes: refused before any level is listed
    (("amalgam", "--in", "IN", "--n", "3", "--oracle", "--bound", "10"),
     "bound 10 is past 9"),
    (("extensile", "--in", "IN", "--n", "3", "--bound", "10"),
     "bound 10 is past 9"),
    (("q-model", "--N", "1", "--m", "1", "--bound", "10"),
     "bound 10 is past 9"),
    (("catalog", "--max-points", "3", "--n", "3", "--oracle", "--bound",
      "10"), "bound 10 is past 9"),
    # 2^20000 maps have more digits than int formatting takes
    (("amalgam", "--in", "IN", "--n", "20000", "--oracle"),
     "at least 2^20000 - 2 maps of fan(20000) into the dual; it takes at "
     "most 100,000"),
    # fan2's dual has a point with two maximal points above it
    (("amalgam", "--in", "IN", "--n", "1"),
     "algebra is outside the variety of index 1"),
    (("extensile", "--in", "IN", "--n", "1", "--bound", "5"),
     "algebra is outside the variety of index 1"),
    (("catalog", "--max-points", "7", "--n", "3"),
     "catalog is limited to posets on at most 6 points"),
    (("q-model", "--N", "0", "--m", "0"), "need at least one component"),
], ids=["jobs", "bound", "oracle-room", "extensile-room", "catalog-n",
        "amalgam-n", "q-model-N", "q-model-m", "catalog-max-points",
        "oracle-bound-cap", "extensile-bound-cap", "q-model-bound-cap",
        "catalog-bound-cap", "oracle-map-cap", "amalgam-variety",
        "extensile-variety", "catalog-points-cap", "q-model-empty"])
def test_bad_numbers_exit_3_with_one_line(fan2, args, flag):
    _one_error_line(run(*_with_input(args, fan2), timeout=60), flag)


@pytest.mark.parametrize("points", [12, 30])
def test_dual_refuses_a_lattice_past_its_cap(tmp_path, points):
    # 2^12 up-sets would write 379 MB of tables, 2^30 would never finish
    path = write(tmp_path, "anti.json", antichain(points).to_dict())
    out = tmp_path / "out.json"
    r = run("dual", "--in", path, "--out", str(out), timeout=30)
    _one_error_line(r, "more than 2048 elements")
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ("star-homs", "--from", "IN", "--to", "IN"),
    ("star-homs", "--from", "F", "--to", "IN"),
    ("quotient", "--in", "IN", "--by", "x0"),
], ids=["star-homs-from", "star-homs-to", "quotient"])
def test_poset_algebra_refuses_a_lattice_past_its_cap(tmp_path, fan2, args):
    # 2^12 up-sets: refused before the lattice is built, let alone a hom
    path = write(tmp_path, "anti.json", antichain(12).to_dict())
    args = [fan2 if a == "F" else a for a in _with_input(args, path)]
    r = run(*args, timeout=30)
    _one_error_line(r, "anti.json: the dual lattice has more than 2048 "
                       "elements")


def test_star_homs_refuses_past_its_cap(tmp_path):
    # two 6-point antichains have 6^6 = 46,656 homs: refused once the
    # search passes 4096, before any hom is built or written
    path = write(tmp_path, "anti.json", antichain(6).to_dict())
    out = tmp_path / "out.json"
    r = run("star-homs", "--from", path, "--to", path, "--out", str(out),
            timeout=30)
    _one_error_line(r, "more than 4096 star homs from a 64-element algebra "
                       "into a 64-element one")
    assert not out.exists()


def test_star_homs_refuses_past_its_label_pair_cap(tmp_path):
    # the 11-point antichain's 2,048-element algebra has 11^3 = 1,331 homs
    # into the 3-point one's, 2,725,888 label pairs: refused once the
    # search passes 512 homs, before any hom is built or written; the
    # 9-point one's 729 homs of 512 elements each are listed
    big = write(tmp_path, "a11.json", antichain(11).to_dict())
    small = write(tmp_path, "a3.json", antichain(3).to_dict())
    out = tmp_path / "out.json"
    r = run("star-homs", "--from", big, "--to", small, "--out", str(out),
            timeout=30)
    _one_error_line(r, "more than 1048576 label pairs in the star homs "
                       "from a 2048-element algebra into a 8-element one")
    assert not out.exists()
    nine = write(tmp_path, "a9.json", antichain(9).to_dict())
    r = run("star-homs", "--from", nine, "--to", small, "--out", str(out),
            timeout=60)
    assert r.returncode == 0 and r.stderr == ""
    assert json.loads(out.read_text())["count"] == 729


def test_congruences_refuses_past_its_cap(tmp_path):
    # 2^13 congruences: the cap counts congruences, not points
    path = write(tmp_path, "anti.json", antichain(13).to_dict())
    r = run("congruences", "--in", path, timeout=30)
    _one_error_line(r, "more than 4096 congruences")


def test_oracle_refuses_a_fan_past_its_map_cap(fan2):
    # fan(20) has 2^20 - 2 maps onto fan2's two tops, and two more onto
    # its maximal points: refused before any is listed
    r = run("amalgam", "--in", fan2, "--n", "20", "--oracle", timeout=60)
    _one_error_line(r, "1,048,576 maps of fan(20)")


# argparse alone would print its usage and exit 2, but bad input exits 3
# with one line
@pytest.mark.parametrize("args, word", [
    (("amalgam", "--in", "IN", "--n", "3", "--no-such-flag"),
     "--no-such-flag"),
    (("amalgam", "--in", "IN", "--n", "abc"), "abc"),
    (("amalgam", "--n", "3"), "--in"),
    (("extensile", "--in", "IN", "--n", "3", "--bound", "5",
      "--max-instances", "10"), "--max-instances"),
    (("congruences", "--in", "IN", "--bound", "12"), "--bound"),
    (("variety-index", "--in", "IN", "--seed", "7"), "--seed"),
], ids=["unknown-flag", "n-not-int", "missing-in", "max-instances",
        "congruences-bound", "seed"])
def test_parser_errors_exit_3_with_one_line(fan2, args, word):
    _one_error_line(run(*_with_input(args, fan2)), word)


def test_help_still_exits_0():
    r = run("amalgam", "--help")
    assert r.returncode == 0 and "--oracle" in r.stdout and r.stderr == ""

