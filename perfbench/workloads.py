"""The benchmark's workloads: generated inputs, request lists and checks.

A workload is a fixed list of pcdl CLI requests. The shapes of its input
posets are fixed (listed here or drawn from SHAPE_SEED); the workload seed
only relabels every input poset and shuffles its element and cover order,
so verdicts and the pinned counts below do not depend on it. Every check
recomputes what it compares against with the small brute-force helpers in
this file and calls nothing in pcdl.
"""

from __future__ import annotations

import itertools
import json
import random
from collections import Counter
from functools import cache
from typing import Callable, NamedTuple

SHAPE_SEED = 20211230

# Lattices above this size skip dual and quotient: both emit
# size-squared JSON tables (110 MB for a 12-point antichain).
ROUND_TRIP_MAX = 512


class CheckFailed(Exception):
    pass


class Request(NamedTuple):
    """One CLI call. File arguments are names inside the work directory.

    check(code, output) raises CheckFailed on a wrong answer and returns a
    label-free summary of the answer, which the self-test compares across
    seeds. output is the text the request wrote, to stdout or to --out.
    """
    argv: tuple
    check: Callable


class Workload(NamedTuple):
    name: str
    moves: tuple          # per-layer metrics this workload is meant to move
    max_bound: int        # poset_classes_upto(max_bound) is warmed in set-up
    build: Callable       # build(rng) -> (files, requests)


def expect(cond: bool, what: str, *detail) -> None:
    if not cond:
        raise CheckFailed(what + (": %r" % (detail,) if detail else ""))


# -- brute-force poset helpers ------------------------------------------------
# A shape is (n, pairs): points 0..n-1 and generating pairs (i, j), i < j.
# A poset is the tuple of reflexive up-set masks of its points. The costly
# counts are cached so that a check pays for them once per run.

def up_masks(n: int, pairs) -> list:
    """Reflexive up-set mask of every point, by iterated propagation."""
    up = [1 << i for i in range(n)]
    for i, j in pairs:
        up[i] |= 1 << j
    changed = True
    while changed:
        changed = False
        for i in range(n):
            acc = up[i]
            for j in range(n):
                if acc >> j & 1:
                    acc |= up[j]
            if acc != up[i]:
                up[i] = acc
                changed = True
    return tuple(up)


def is_up_set(up, mask: int) -> bool:
    return all(up[i] & ~mask == 0 for i in range(len(up)) if mask >> i & 1)


@cache
def upset_count(up) -> int:
    return sum(1 for m in range(1 << len(up)) if is_up_set(up, m))


def maximals(up) -> int:
    return sum(1 << i for i in range(len(up)) if up[i] == 1 << i)


def m_sizes(up) -> list:
    mx = maximals(up)
    return sorted((up[x] & mx).bit_count() for x in range(len(up)))


def down_masks(up) -> list:
    n = len(up)
    return [sum(1 << i for i in range(n) if up[i] >> j & 1) for j in range(n)]


@cache
def congruence_count(up) -> int:
    """Erased sets T whose erased maximal points have their downsets in T."""
    down = down_masks(up)
    mx = maximals(up)
    return sum(1 for t in range(1 << len(up))
               if all(down[m] & ~t == 0
                      for m in range(len(up)) if (t & mx) >> m & 1))


def forbidden_sizes(up, n: int) -> list:
    sizes = set(m_sizes(up))
    return [i for i in range(2, n) if i in sizes]


@cache
def p_morphism_count(src_up, tgt_up) -> int:
    """Order maps src -> tgt carrying each M(y) onto M(f(y)), exhaustively."""
    ns, nt = len(src_up), len(tgt_up)
    smax, tmax = maximals(src_up), maximals(tgt_up)
    count = 0
    for f in itertools.product(range(nt), repeat=ns):
        ok = True
        for y in range(ns):
            img = 0
            for z in range(ns):
                if src_up[y] >> z & 1:
                    if not tgt_up[f[y]] >> f[z] & 1:
                        ok = False
                        break
                    if smax >> z & 1:
                        img |= 1 << f[z]
            if not ok or img != tgt_up[f[y]] & tmax:
                ok = False
                break
        count += ok
    return count


def restrict(up, keep: int) -> list:
    kept = [i for i in range(len(up)) if keep >> i & 1]
    return tuple(sum(1 << b for b, j in enumerate(kept) if up[i] >> j & 1)
                 for i in kept)


# -- relabelling --------------------------------------------------------------

def relabel(rng: random.Random, n: int, pairs) -> tuple:
    """A poset document for a shape under fresh labels and order.

    Returns (document, labels) where labels[i] names shape point i.
    """
    labels = ["e%d" % v for v in rng.sample(range(100, 1000), n)]
    elements = list(labels)
    rng.shuffle(elements)
    covers = [[labels[i], labels[j]] for i, j in pairs]
    rng.shuffle(covers)
    return {"elements": elements, "covers": covers}, labels


def out_json(output: str):
    try:
        return json.loads(output)
    except json.JSONDecodeError as e:
        raise CheckFailed("output is not JSON: %s" % e)


# -- oracle-holds / oracle-refute ---------------------------------------------

# (cover list, pinned oracle_instances or None)
ORACLE_HOLDS = [
    ((4, []), 53760),
    ((4, [(0, 3)]), 8224),
    ((4, [(0, 3), (1, 3)]), 16840),
    ((4, [(0, 2), (2, 3)]), 34168),
    ((4, [(0, 1), (0, 2), (0, 3)]), 18954),
    ((4, [(0, 2), (1, 3)]), 5960),
]
# oracle_instances moves by one between labellings here: verdicts only.
ORACLE_REFUTE = [
    ((3, [(0, 1), (0, 2)]), None),
    ((4, [(0, 2), (0, 3)]), None),
    ((4, [(0, 2), (0, 3), (1, 3)]), None),
    ((4, [(0, 1), (0, 2), (1, 3)]), None),
    ((4, [(0, 2), (0, 3), (1, 2), (1, 3)]), None),
    ((4, [(0, 1), (1, 2), (1, 3)]), None),
]


def check_oracle(shape, pinned):
    n, pairs = shape
    up = up_masks(n, pairs)
    forbidden = forbidden_sizes(up, 3)

    def check(code, output):
        p = out_json(output)
        expect(p["forbidden_is"] == forbidden, "criterion",
               p["forbidden_is"], forbidden)
        expect(p["is_base"] == (not forbidden), "is_base")
        expect(p["oracle"] in ("holds", "fails_with_witness"), "oracle",
               p["oracle"])
        expect((p["oracle"] == "holds") == p["is_base"],
               "oracle disagrees with the criterion", p["oracle"])
        expect(code == (0 if p["is_base"] else 1), "exit code", code)
        expect(p["oracle_bound"] == n + 3, "bound", p["oracle_bound"])
        if pinned is not None:
            expect(p["oracle_instances"] == pinned, "oracle_instances",
                   p["oracle_instances"], pinned)
        return (code, p["is_base"], tuple(forbidden), p["oracle"],
                p["oracle_instances"] if pinned is not None else None)
    return check


def build_oracle(table):
    def build(rng):
        files, requests = {}, []
        for k, (shape, pinned) in enumerate(table):
            name = "p%d.json" % k
            files[name], _ = relabel(rng, *shape)
            requests.append(Request(
                ("amalgam", "--in", name, "--n", "3", "--oracle"),
                check_oracle(shape, pinned)))
        return files, requests
    return build


# -- model-search -------------------------------------------------------------

# (N, m) -> lift_check at bound 7: instances, case counts 1/2/3a/3b, uncovered
QMODEL_LIFTS = {
    (0, 1): (62720, (15680, 0, 27432, 12621), 6987),
    (0, 2): (1568, (392, 0, 1020, 78), 78),
    (0, 3): (48, (12, 0, 18, 9), 9),
    (1, 0): (18972, (6324, 12648, 0, 0), 0),
    (1, 1): (238, (70, 84, 78, 3), 3),
    (1, 2): (50, (14, 12, 12, 6), 6),
    (2, 0): (36, (12, 24, 0, 0), 0),
    (2, 1): (52, (16, 24, 6, 3), 3),
    (3, 0): (54, (18, 36, 0, 0), 0),
}
# fan(2), the 2-chain and fan(3): extensile --n 3 --bound 7 instances
EXTENSILE = [
    ((3, [(0, 1), (0, 2)]), 39190),
    ((2, [(0, 1)]), 72186),
    ((4, [(0, 1), (0, 2), (0, 3)]), 18954),
]


def check_qmodel(full, merged):
    instances, cases, uncovered = QMODEL_LIFTS[(full, merged)]
    want = {"instances": instances, "uncovered": uncovered, "failures": 0,
            "bound": 7, "case_counts": dict(zip(("1", "2", "3a", "3b"),
                                                cases))}

    def check(code, output):
        p = out_json(output)
        expect(code == 0, "exit code", code)
        expect(p["sizes"] == {"total": 4 * (full + merged),
                              "quotient": 4 * full + 3 * merged}, "sizes")
        expect(p["collapse_check"]["passed"], "collapse check")
        expect(p["separation_check"]["passed"], "separation check")
        expect(p["lift_check"] == want, "lift_check", p["lift_check"], want)
        expect(p["divergence"]["diverges"] == (merged > 0), "divergence")
        return (code, instances, cases, uncovered,
                p["divergence"]["diverges"])
    return check


def check_extensile(pinned):
    def check(code, output):
        p = out_json(output)
        expect(code == 0 and p["verdict"] == "yes", "verdict", p["verdict"])
        expect(p["instances"] == pinned, "instances", p["instances"], pinned)
        return (code, p["verdict"], p["instances"])
    return check


def build_model_search(rng):
    files, requests = {}, []
    for (full, merged) in QMODEL_LIFTS:
        requests.append(Request(
            ("q-model", "--N", str(full), "--m", str(merged), "--verify",
             "all", "--bound", "7"), check_qmodel(full, merged)))
    for k, (shape, pinned) in enumerate(EXTENSILE):
        name = "e%d.json" % k
        files[name], _ = relabel(rng, *shape)
        requests.append(Request(
            ("extensile", "--in", name, "--n", "3", "--bound", "7"),
            check_extensile(pinned)))
    return files, requests


# -- algebra ------------------------------------------------------------------

# (points, edge probability, lattice size): densities straddle the
# 64-element law scan, the 512 round-trip cap and the 1024-element
# AXIOM_SCAN_LIMIT. The sizes are those of the shapes drawn from
# SHAPE_SEED, pinned so that set-up need not count up-sets; the checks
# and the self-test count them by brute force.
ALGEBRA_SPECS = [(8, 0.1, 120), (8, 0.3, 45), (9, 0.05, 288), (9, 0.2, 55),
                 (10, 0.0, 1024), (10, 0.08, 768), (10, 0.3, 192),
                 (11, 0.0, 2048), (11, 0.06, 396), (11, 0.15, 112),
                 (12, 0.04, 1920), (12, 0.1, 360), (12, 0.35, 96)]
STAR_HOM_SPECS = [(4, 5), (5, 5), (5, 6), (6, 4)]


def random_shape(rng: random.Random, n: int, p: float) -> tuple:
    return n, [(i, j) for i in range(n) for j in range(i + 1, n)
               if rng.random() < p]


def random_congruence(rng: random.Random, up) -> int:
    """Erased set: downsets of some maximal points, plus non-maximal points."""
    mx = maximals(up)
    down = down_masks(up)
    t = 0
    for i in range(len(up)):
        if rng.random() < 0.4:
            t |= down[i] if mx >> i & 1 else 1 << i
    return t


def check_variety_index(up):
    def check(code, output):
        want = max(m_sizes(up))
        p = out_json(output)
        expect(code == 0 and p["variety_index"] == want, "variety index",
               p["variety_index"], want)
        return (code, want)
    return check


def check_congruences(up):
    def check(code, output):
        want = congruence_count(up)
        p = out_json(output)
        expect(code == 0, "exit code", code)
        expect(p["count"] == want == len(p["congruences"]),
               "congruence count", p["count"], want)
        return (code, want)
    return check


def check_amalgam(up, index):
    forbidden = forbidden_sizes(up, index)

    def check(code, output):
        p = out_json(output)
        expect(code == (1 if forbidden else 0), "exit code", code)
        expect(p["forbidden_is"] == forbidden, "forbidden", p["forbidden_is"])
        expect(p["is_base"] == (not forbidden), "is_base")
        expect(sorted(map(int, p["witnesses"])) == forbidden, "witnesses")
        expect(p["variety_index"] == index, "variety index")
        return (code, tuple(forbidden))
    return check


def check_dual_lattice(up):
    def check(code, output):
        size = upset_count(up)
        p = out_json(output)
        expect(code == 0, "exit code", code)
        expect(len(p["elements"]) == size, "lattice size",
               len(p["elements"]), size)
        for key in ("joins", "meets"):
            expect(len(p[key]) == size
                   and all(len(row) == size for row in p[key]), key)
        return (code, size)
    return check


def check_dual_back(up, labels):
    """The lattice's dual is P again: its point {up(x)} must sit where x does.

    In the dual, the join-irreducibles of the up-set lattice are the
    principal up-sets ordered by reverse inclusion, so reading each point
    back as its up-set must give an order isomorphism onto the shape.
    """
    n = len(up)
    point_of = {frozenset(labels[j] for j in range(n) if up[x] >> j & 1): x
                for x in range(n)}

    def check(code, output):
        p = out_json(output)
        expect(code == 0, "exit code", code)
        index = {}
        for lab in p["elements"]:
            key = frozenset(s for s in lab.strip("{}").split(",") if s)
            expect(key in point_of, "dual point is not a principal up-set",
                   lab)
            index[lab] = point_of[key]
        expect(sorted(index.values()) == list(range(n)),
               "dual points do not match the poset's points")
        got = up_masks(n, [(index[a], index[b]) for a, b in p["covers"]])
        expect(got == up, "round trip is not an isomorphism")
        return (code, n)
    return check


def check_quotient(up, erased):
    def check(code, output):
        q_size = upset_count(restrict(up, ((1 << len(up)) - 1) & ~erased))
        size = upset_count(up)
        p = out_json(output)
        expect(code == 0, "exit code", code)
        expect(len(p["algebra"]["elements"]) == q_size, "quotient size",
               len(p["algebra"]["elements"]), q_size)
        expect(len(p["projection"]) == size, "projection domain")
        expect(set(p["projection"].values())
               == set(p["algebra"]["elements"]), "projection is not onto")
        return (code, q_size)
    return check


def check_star_homs(up_a, up_b):
    def check(code, output):
        want = p_morphism_count(up_b, up_a)
        p = out_json(output)
        expect(code == (0 if want else 1), "exit code", code)
        expect(p["count"] == want == len(p["homs"]), "star hom count",
               p["count"], want)
        return (code, want)
    return check


def check_catalog(code, output):
    p = out_json(output)
    expect(code == 0, "exit code", code)
    rows = p["rows"]
    expect(len(rows) == 318, "catalog rows", len(rows))
    verdicts = Counter()
    for row in rows:
        index = {s: i for i, s in enumerate(row["elements"])}
        up = up_masks(6, [(index[a], index[b]) for a, b in row["covers"]])
        sizes = m_sizes(up)
        expect(row["algebra_size"] == upset_count(up), "algebra size", row)
        expect(row["m_sizes"] == sizes, "m_sizes", row)
        expect(row["variety_index"] == max(sizes), "variety index", row)
        if max(sizes) > 3:
            want = ("not_in_variety", [])
        else:
            forb = forbidden_sizes(up, 3)
            want = ("not_base" if forb else "base", forb)
        expect((row["verdict"], row["forbidden"]) == want, "verdict", row)
        verdicts[row["verdict"]] += 1
    return (code, len(rows), tuple(sorted(verdicts.items())))


def algebra_shapes() -> tuple:
    """([(shape, erased set)] per ALGEBRA_SPECS, [star-hom shape pairs])."""
    shapes = random.Random(SHAPE_SEED)
    out = []
    for n, p, _ in ALGEBRA_SPECS:
        shape = random_shape(shapes, n, p)
        out.append((shape, random_congruence(shapes, up_masks(*shape))))
    pairs = [(random_shape(shapes, na, 0.4), random_shape(shapes, nb, 0.4))
             for na, nb in STAR_HOM_SPECS]
    return out, pairs


def build_algebra(rng):
    files, requests = {}, []

    def add(argv, check):
        requests.append(Request(tuple(argv), check))

    posets, pairs = algebra_shapes()
    for k, ((shape, erased), (n, _, size)) in enumerate(
            zip(posets, ALGEBRA_SPECS)):
        up = up_masks(*shape)
        files["a%d.json" % k], labels = relabel(rng, *shape)
        poset, lattice = "a%d.json" % k, "a%d-lattice.json" % k
        index = max(m_sizes(up))
        add(("variety-index", "--in", poset), check_variety_index(up))
        add(("congruences", "--in", poset), check_congruences(up))
        add(("amalgam", "--in", poset, "--n", str(index)),
            check_amalgam(up, index))
        if size > ROUND_TRIP_MAX:
            continue
        add(("dual", "--in", poset, "--out", lattice),
            check_dual_lattice(up))
        add(("dual", "--in", lattice), check_dual_back(up, labels))
        add(("congruences", "--in", lattice), check_congruences(up))
        by = ",".join(labels[i] for i in range(n) if erased >> i & 1)
        add(("quotient", "--in", poset, "--by", by),
            check_quotient(up, erased))
    for k, (sa, sb) in enumerate(pairs):
        files["s%da.json" % k], _ = relabel(rng, *sa)
        files["s%db.json" % k], _ = relabel(rng, *sb)
        add(("star-homs", "--from", "s%da.json" % k, "--to", "s%db.json" % k),
            check_star_homs(up_masks(*sa), up_masks(*sb)))
    add(("catalog", "--max-points", "6", "--n", "3"), check_catalog)
    return files, requests


# Class enumeration runs in set-up; these move setup_s on the workloads
# that warm classes up to 7 points.
ENUMERATION = ("posets.canonical_key.self_s",
               "enumeration.poset_classes_exactly.self_s",
               "enumeration.kept_ratio")

# Why each workload exists is in BENCHMARK.json; moves lists the per-layer
# metrics through which a change should move its wall_s (or setup_s).
WORKLOADS = {w.name: w for w in (
    Workload(
        "oracle-holds",
        ("amalgamation.find_lift.calls", "amalgamation.find_lift.total_s",
         "amalgamation.gamma_search.total_s",
         "amalgamation.class_task.total_s",
         "amalgamation.extension_classes.self_s",
         "posets.maximals_mask.calls", "posets.max_above.calls",
         "posets.from_covers.self_s", "posets.OrderMap.self_s")
        + ENUMERATION,
        7, build_oracle(ORACLE_HOLDS)),
    Workload(
        "oracle-refute",
        ("amalgamation.reported_ratio", "amalgamation.find_lift.calls",
         "amalgamation.find_lift.total_s", "amalgamation.class_task.calls",
         "amalgamation.class_task.total_s",
         "amalgamation.extension_classes.self_s",
         "posets.maximals_mask.calls", "posets.max_above.calls",
         "posets.from_covers.self_s", "posets.OrderMap.self_s")
        + ENUMERATION,
        7, build_oracle(ORACLE_REFUTE)),
    Workload(
        "model-search",
        ("qmodel.check_lift_cases.self_s", "qmodel.gamma_search.total_s",
         "qmodel.verify_separation.self_s", "qmodel.divergence_report.self_s",
         "congruences.pullback_congruence.self_s",
         "congruences.gamma_search.total_s", "algebras.is_p_morphism.self_s",
         "algebras.make_pcdl.self_s", "posets.maximals_mask.calls",
         "posets.max_above.calls") + ENUMERATION,
        7, build_model_search),
    Workload(
        "algebra",
        ("duality.UpSetLattice.self_s", "duality.AbstractLattice.self_s",
         "duality.unit_iso.self_s", "duality.is_homomorphism.self_s",
         "algebras.make_pcdl.self_s", "algebras.hom_of_dual_map.self_s",
         "congruences.enumerate_congruences.self_s",
         "congruences.masks_scanned", "congruences.yield_ratio",
         "congruences.quotient.self_s", "posets.up_sets.self_s",
         "catalog.catalog.self_s", "cli.main.self_s", "cli.emit.self_s"),
        6, build_algebra),
)}
