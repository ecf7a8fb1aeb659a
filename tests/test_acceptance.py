"""End-to-end acceptance checks for the whole package.

Each test covers one advertised guarantee, prints a single summary line,
and enforces the stated time budget. The universes are exhaustive up to
the stated sizes, not sampled.
"""

import time
from itertools import product

from pcdl import (AbstractLattice, OrderMap, build_quotient_model,
                  check_lift_cases, divergence_report, dual_lattice,
                  dual_of_order_map, dual_space, enumerate_congruences,
                  extension_property_bounded, fan,
                  is_amalgamation_base_finite, is_p_morphism,
                  is_subdirectly_irreducible, make_pcdl,
                  classes_with_upsets_bounded, poset_classes_upto,
                  verify_collapse, verify_separation, chain)

from _oracles import congruences_algebra_side, cube_plus_one_tables


def _report(n, detail, elapsed, budget):
    print("ACCEPTANCE %d: PASS (%s, %.2fs < %ds)" % (n, detail, elapsed,
                                                     budget))
    assert elapsed < budget


def test_acceptance_1_round_trips():
    t0 = time.monotonic()
    classes = poset_classes_upto(6)
    for P in classes:
        Q = dual_space(dual_lattice(P))
        assert P.find_isomorphism(Q) is not None, P.to_dict()
    for n in range(6):
        labels, joins, meets = cube_plus_one_tables(n)
        lat = AbstractLattice(labels, joins, meets)
        assert dual_space(lat).find_isomorphism(fan(n)) is not None, n
    _report(1, "%d poset round trips, 6 cube duals" % len(classes),
            time.monotonic() - t0, 10)


def test_acceptance_2_star_axiom_and_dictionary():
    t0 = time.monotonic()
    axiom_checked = 0
    for P in poset_classes_upto(5):
        lat = dual_lattice(P)
        star = lat.star_table
        for a in range(lat.size):
            assert lat.meet(a, star[a]) == lat.bottom
            for b in range(lat.size):
                if lat.meet(a, b) == lat.bottom:
                    assert lat.leq(b, star[a])
            axiom_checked += 1

    classes = poset_classes_upto(4)
    maps_checked = 0
    for P in classes:
        LP = dual_lattice(P)
        star_p = LP.star_table
        for Q in classes:
            LQ = dual_lattice(Q)
            star_q = LQ.star_table
            for table in product(range(Q.n), repeat=P.n):
                f = OrderMap(P, Q, table)
                if not f.is_order_preserving():
                    continue
                h = dual_of_order_map(f)
                preserves = all(h.table[star_q[b]] == star_p[h.table[b]]
                                for b in range(LQ.size))
                assert preserves == is_p_morphism(f), f.to_dict()
                maps_checked += 1
    _report(2, "%d star elements, %d maps" % (axiom_checked, maps_checked),
            time.monotonic() - t0, 60)


def test_acceptance_3_congruence_counts():
    t0 = time.monotonic()
    checked = 0
    for P in classes_with_upsets_bounded(9):
        A = make_pcdl(P)
        joins = [[A.join(i, j) for j in range(A.size)]
                 for i in range(A.size)]
        meets = [[A.meet(i, j) for j in range(A.size)]
                 for i in range(A.size)]
        brute = congruences_algebra_side(A.size, joins, meets,
                                         list(A.star_table))
        assert len(enumerate_congruences(P)) == brute, P.to_dict()
        checked += 1
    assert len(enumerate_congruences(chain(2))) == 3
    assert len(enumerate_congruences(fan(2))) == 5
    _report(3, "%d algebras cross-checked" % checked,
            time.monotonic() - t0, 30)


def test_acceptance_4_base_criterion_vs_bounded_oracle():
    t0 = time.monotonic()
    agreed = 0
    for P in poset_classes_upto(4):
        A = make_pcdl(P)
        verdict = is_amalgamation_base_finite(A, 3)
        oracle = extension_property_bounded(A, 3, P.n + 3)
        assert verdict.is_base == (oracle.verdict == "holds"), P.to_dict()
        agreed += 1
    _report(4, "%d duals agreed" % agreed, time.monotonic() - t0, 600)


def test_acceptance_5_model_family_verifies():
    t0 = time.monotonic()
    instances = 0
    for full in range(4):
        for merged in range(4 - full):
            if full + merged < 1:
                continue
            m = build_quotient_model(full, merged)
            assert verify_collapse(m).passed, (full, merged)
            assert verify_separation(m).passed, (full, merged)
            rep = check_lift_cases(m, bound=6)
            assert rep.failures == (), (full, merged)
            instances += rep.instances
            if full >= 1 and merged >= 1:
                assert all(rep.case_counts[k] > 0
                           for k in ("1", "2", "3a", "3b")), (full, merged)
    _report(5, "9 models, %d lift instances" % instances,
            time.monotonic() - t0, 600)


def test_acceptance_6_two_one_divergence():
    t0 = time.monotonic()
    m = build_quotient_model(2, 1)
    rep = divergence_report(m, bound=6)
    assert rep.total_forbidden == ()
    assert rep.quotient_forbidden == (2,)
    assert rep.diverges
    assert rep.lift.failures == ()
    assert rep.lift.case_counts == {"1": 16, "2": 24, "3a": 6, "3b": 3}
    assert rep.lift.uncovered == 3
    assert rep.lift.instances == 52
    _report(6, "quotient forbids size 2, 52 lift instances, 0 failures",
            time.monotonic() - t0, 300)


def test_acceptance_7_subdirectly_irreducible_means_fan():
    t0 = time.monotonic()
    fan_keys = {fan(i).canonical_key() for i in range(6)}
    checked = 0
    for P in poset_classes_upto(6):
        si = is_subdirectly_irreducible(make_pcdl(P))
        assert si == (P.canonical_key() in fan_keys), P.to_dict()
        checked += 1
    _report(7, "%d duals classified" % checked,
            time.monotonic() - t0, 60)
