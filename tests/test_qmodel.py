from itertools import permutations, product

import pytest

from pcdl import amalgamation, qmodel
from pcdl import (OrderMap, Poset, build_quotient_model, check_lift_cases,
                  divergence_report, fan, in_variety, make_pcdl,
                  p_morphisms, variety_index, verify_collapse,
                  verify_separation)

from _oracles import is_p_morphism_raw, lift_cases_per_alpha

# the nine fan-row models of the benchmark's q-model requests
NINE_MODELS = [(0, 1), (0, 2), (0, 3), (1, 0), (1, 1), (1, 2), (2, 0),
               (2, 1), (3, 0)]


def test_build_shapes():
    m = build_quotient_model(1, 0)
    assert m.total.n == 4 and m.quotient.n == 4
    assert m.total.find_isomorphism(fan(3)) is not None
    assert m.collapse.table == tuple(range(4))

    m = build_quotient_model(0, 1)
    assert m.total.n == 4 and m.quotient.n == 3
    assert m.quotient.find_isomorphism(fan(2)) is not None

    m = build_quotient_model(2, 1)
    assert m.total.n == 12 and m.quotient.n == 11


def test_build_requires_a_component():
    with pytest.raises(ValueError, match="component"):
        build_quotient_model(0, 0)


def test_roles_and_components():
    m = build_quotient_model(1, 1)
    assert m.total_roles.count("george") == 2
    assert m.total_roles.count("c") == 2
    assert m.quotient_roles.count("c") == 1
    assert set(m.total_component) == {1, 2}
    # collapse sends the merged c point to its component's a point
    c2 = m.total.index_of("c2")
    a2 = m.quotient.index_of("a2")
    assert m.collapse.table[c2] == a2


def test_variety_indices():
    for full in range(4):
        for merged in range(4):
            if full + merged < 1 or full + merged > 4:
                continue
            m = build_quotient_model(full, merged)
            A, Q = make_pcdl(m.total), make_pcdl(m.quotient)
            assert variety_index(A) == 3
            assert in_variety(A, 3)
            assert variety_index(Q) == (3 if full else 2)
            assert in_variety(Q, 3)


def test_verify_collapse():
    for full in range(4):
        for merged in range(4):
            if not 1 <= full + merged <= 3:
                continue
            rep = verify_collapse(build_quotient_model(full, merged))
            assert rep.passed
    rep = verify_collapse(build_quotient_model(3, 2))
    assert rep.passed
    assert len(rep.entries) == 20
    assert len(rep.component_embeddings) == 3


def test_verify_separation():
    rep = verify_separation(build_quotient_model(1, 0))
    assert rep.passed and not rep.vacuous
    assert rep.separation_checks > 0

    rep = verify_separation(build_quotient_model(0, 1))
    assert rep.passed and rep.vacuous

    m = build_quotient_model(2, 1)
    rep = verify_separation(m)
    assert rep.passed and not rep.vacuous
    assert rep.disconnected_pairs > 0
    # the down-set formula is checked against every up-set of both posets
    n_up = len(m.total.up_sets()) + len(m.quotient.up_sets())
    assert rep.downset_formula_checks == n_up


def test_separation_refuses_more_than_six_components(monkeypatch):
    # 9^7 up-sets of the total poset: refused before any is listed
    models = [build_quotient_model(f, m) for f, m in ((7, 0), (3, 4), (0, 7))]

    def no_listing(self):
        raise AssertionError("the separation check listed up-sets")
    monkeypatch.setattr(Poset, "up_sets", no_listing)
    for m in models:
        with pytest.raises(ValueError, match="4,782,969 up-sets"):
            verify_separation(m)


def test_lift_cases_frozen_one_one():
    m = build_quotient_model(1, 1)
    rep = check_lift_cases(m, bound=4)
    assert rep.failures == ()
    assert rep.case_counts == {"1": 10, "2": 12, "3a": 6, "3b": 3}
    assert rep.uncovered == 3
    assert rep.instances == 34


def test_lift_cases_no_failures_small_models():
    for full, merged in [(1, 0), (0, 1), (2, 0), (0, 2), (1, 1)]:
        m = build_quotient_model(full, merged)
        rep = check_lift_cases(m, bound=5)
        assert rep.failures == (), (full, merged)


def test_lift_cases_cover_all_four_when_mixed():
    for full, merged in [(1, 1), (2, 1), (1, 2)]:
        m = build_quotient_model(full, merged)
        rep = check_lift_cases(m, bound=4)
        assert all(rep.case_counts[k] > 0 for k in ("1", "2", "3a", "3b")), \
            (full, merged, rep.case_counts)


@pytest.mark.parametrize("full, merged, bound", [(1, 1, 4), (0, 1, 5)])
def test_uncovered_exactly_when_backtracking_finds_no_lift(full, merged,
                                                           bound):
    m = build_quotient_model(full, merged)
    P = m.quotient
    alphas = p_morphisms(fan(3), P)
    instances = missing = 0
    for Y, gammas in qmodel._onto_maps(m, bound):
        rows = amalgamation._max_rows(Y)
        for table in gammas:
            fibers = amalgamation._fiber_profiles(rows, table, 3)
            gamma = OrderMap(Y, P, table)
            for alpha in alphas:
                instances += 1
                closed = amalgamation._fan_lift(
                    fibers, amalgamation._top_profile(alpha.table, P.n))
                backtracked = amalgamation._find_lift(gamma, alpha)
                assert (closed is None) == (backtracked is None)
                if backtracked is None:
                    missing += 1
                    assert qmodel._classify_alpha(m, alpha) == "3"
    rep = check_lift_cases(m, bound)
    assert rep.failures == ()
    assert (rep.instances, rep.uncovered) == (instances, missing)
    assert missing > 0


def test_lift_cases_match_per_alpha_oracle(monkeypatch):
    # one lift per (gamma, top profile) reports what one lift per
    # (gamma, alpha) reports, failures included
    for full, merged in NINE_MODELS:
        m = build_quotient_model(full, merged)
        assert check_lift_cases(m, 7) == lift_cases_per_alpha(m, 7), \
            (full, merged)

    # alphas with one top profile differ by an automorphism of the fan
    # that permutes its tops
    V = fan(3)
    for full, merged in NINE_MODELS:
        P = build_quotient_model(full, merged).quotient
        orbits = {}
        for alpha in p_morphisms(V, P):
            orbits.setdefault(amalgamation._top_profile(alpha.table, P.n),
                              []).append(alpha.table)
        for first, *rest in orbits.values():
            for table in rest:
                assert any(
                    all(table[v] == first[s[v]] for v in range(V.n))
                    for s in ((0, *tops) for tops in permutations((1, 2, 3)))
                    if all(V.leq(i, j) == V.leq(s[i], s[j])
                           for i in range(V.n) for j in range(V.n)))

    # a certificate that fails on one profile fails every alpha of it, in
    # alpha order within each gamma, on both sides
    m = build_quotient_model(1, 1)
    P = m.quotient
    alphas = p_morphisms(V, P)
    # case 2: the fan's bottom on g1 and its tops onto a1, b1, c1
    target = amalgamation._top_profile(
        tuple(P.index_of(x) for x in ("g1", "a1", "b1", "c1")), P.n)
    orbit = [a for a in alphas
             if amalgamation._top_profile(a.table, P.n) == target]
    assert len(orbit) == 6
    plain = check_lift_cases(m, 7)
    certify = amalgamation._fan_lift_failure

    def fail_on_target(Y, gamma, alpha_table, beta_table):
        if amalgamation._top_profile(alpha_table, P.n) == target:
            return "rejected on purpose"
        return certify(Y, gamma, alpha_table, beta_table)

    monkeypatch.setattr(amalgamation, "_fan_lift_failure", fail_on_target)
    monkeypatch.setattr(qmodel, "_fan_lift_failure", fail_on_target)
    rep = check_lift_cases(m, 7)
    assert rep == lift_cases_per_alpha(m, 7)
    assert rep.failures and len(rep.failures) % len(orbit) == 0
    for k in range(0, len(rep.failures), len(orbit)):
        chunk = rep.failures[k:k + len(orbit)]
        assert [alpha for _, alpha, _ in chunk] == orbit
        assert {(gamma, reason) for gamma, _, reason in chunk} == \
            {(chunk[0][0], "rejected on purpose")}
    assert rep.case_counts["2"] == plain.case_counts["2"] - len(rep.failures)
    assert rep.instances == plain.instances


def test_uncovered_instance_really_has_no_lift():
    # an uncovered instance from the (1,1) model: map the rank-3 fan onto
    # the merged component of the quotient, doubling the tops on b2, and
    # try to lift it through the collapse by exhaustive search
    m = build_quotient_model(1, 1)
    V = fan(3)
    alpha = OrderMap.from_labels(V, m.quotient,
                                 {"g": "g2", "t1": "a2",
                                  "t2": "b2", "t3": "b2"})
    gamma = m.collapse
    found = []
    for table in product(range(m.total.n), repeat=V.n):
        if not is_p_morphism_raw(V, m.total, table):
            continue
        if all(gamma.table[table[v]] == alpha.table[v] for v in range(V.n)):
            found.append(table)
    assert found == []


def test_divergence_reports():
    rep = divergence_report(build_quotient_model(1, 0), 4)
    assert rep.total_forbidden == () and rep.quotient_forbidden == ()
    assert not rep.diverges
    assert "no merged components" in rep.text

    rep = divergence_report(build_quotient_model(0, 1), 4)
    assert rep.quotient_forbidden == (2,)
    assert rep.diverges

    rep = divergence_report(build_quotient_model(2, 1), 4)
    assert rep.total_forbidden == ()
    assert rep.quotient_forbidden == (2,)
    assert rep.diverges
    assert rep.lift.failures == ()
    assert rep.lift.instances == 52
    assert rep.lift.uncovered == 3


def test_model_is_immutable():
    m = build_quotient_model(1, 0)
    with pytest.raises(AttributeError):
        m.full_fans = 2
