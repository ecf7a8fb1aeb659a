import itertools
import random

import pytest

import pcdl
from pcdl import algebras, amalgamation, qmodel
from pcdl.algebras import _iter_p_morphisms, variety_index
from pcdl.enumeration import poset_classes_exactly, poset_classes_upto
from _oracles import (extension_class_task_plain, extension_classes_by_scan,
                      extension_classes_plain,
                      fan_lift_by_digits, first_lift_brute,
                      twin_classes_by_scan)
from pcdl import (ExtensionResult, LatticeHom, OrderMap,
                  amalgamate_or_separate, antichain, build_quotient_model,
                  catalog, check_lift_cases,
                  extension_property_bounded, fan, fan_algebra,
                  forbidden_images, is_amalgamation_base_finite,
                  is_congruence_extensile_bounded, is_p_morphism,
                  lift_through, make_pcdl, p_morphisms, Poset,
                  star_embeddings, star_homs, chain)


def test_forbidden_images_frozen():
    assert forbidden_images(fan_algebra(0), 3) == []
    assert forbidden_images(make_pcdl(chain(2)), 3) == []
    assert forbidden_images(fan_algebra(2), 3) == [2]
    assert forbidden_images(fan_algebra(3), 3) == []
    with pytest.raises(ValueError, match="variety"):
        forbidden_images(fan_algebra(4), 3)


def test_amalgamation_base_searches_each_size_once(monkeypatch):
    calls = []
    search = amalgamation.embedding_p_morphism_witness

    def counted(A, i):
        calls.append(i)
        return search(A, i)
    for module in (algebras, amalgamation):
        monkeypatch.setattr(module, "embedding_p_morphism_witness", counted)
    # no point has more maximal points above it than the index, so the
    # sizes past it are not searched, however large n is
    for P, n, forbidden, sizes in ((fan(2), 3, (2,), [2]),
                                   (fan(3), 5, (3,), [2, 3]),
                                   (fan(3), 3, (), [2]),
                                   (antichain(2), 4, (), []),
                                   (fan(2), 4000, (2,), [2])):
        calls.clear()
        v = is_amalgamation_base_finite(P, n)
        assert v.forbidden == forbidden
        assert calls == sizes


def test_amalgamation_base_verdicts():
    v = is_amalgamation_base_finite(fan_algebra(3), 3)
    assert v.is_base and v.forbidden == () and v.witnesses == {}

    v = is_amalgamation_base_finite(fan_algebra(2), 3)
    assert not v.is_base and v.forbidden == (2,)
    w = v.witnesses[2]
    # the witness embeds the fan of the forbidden size into the dual space
    assert w.source.n == fan(2).n
    assert w.is_order_embedding() and is_p_morphism(w)


def test_lift_through_positive():
    gamma = OrderMap.from_labels(fan(3), fan(2),
                                 {"g": "g", "t1": "t1",
                                  "t2": "t2", "t3": "t2"})
    alpha = OrderMap.from_labels(fan(3), fan(2),
                                 {"g": "g", "t1": "t1",
                                  "t2": "t2", "t3": "t2"})
    beta = lift_through(gamma, alpha)
    assert beta is not None
    assert is_p_morphism(beta)
    for v in range(beta.source.n):
        assert gamma.table[beta.table[v]] == alpha.table[v]


def test_lift_through_negative_from_witness():
    r = extension_property_bounded(fan_algebra(2), 3, 6)
    Y, gamma, alpha = r.witness
    assert lift_through(gamma, alpha) is None


def test_lift_through_validation():
    not_onto = OrderMap.from_labels(fan(1), fan(2),
                                    {"g": "g", "t1": "t1"})
    alpha = OrderMap.from_labels(fan(3), fan(2),
                                 {"g": "g", "t1": "t1",
                                  "t2": "t2", "t3": "t1"})
    with pytest.raises(ValueError, match="onto"):
        lift_through(not_onto, alpha)
    wrong_target = OrderMap.identity(fan(3))
    gamma = OrderMap.from_labels(fan(3), fan(2),
                                 {"g": "g", "t1": "t1",
                                  "t2": "t2", "t3": "t2"})
    with pytest.raises(ValueError, match="target"):
        lift_through(gamma, wrong_target)


def test_extension_property_frozen_values():
    r = extension_property_bounded(fan_algebra(2), 3, 6)
    assert r.verdict == "fails_with_witness"
    assert r.instances == 52

    r = extension_property_bounded(fan_algebra(3), 3, 6)
    assert r.verdict == "holds"
    assert r.instances == 2916

    r = extension_property_bounded(make_pcdl(chain(2)), 3, 5)
    assert r.verdict == "holds"
    assert r.instances == 686


def test_extension_property_jobs_deterministic():
    # a rerun gives the same verdict, witness and count
    first, again = (_answer(extension_property_bounded(fan_algebra(2), 3, 6))
                    for _ in range(2))
    assert first == again
    assert (first[0], first[2]) == ("fails_with_witness", 52)

    results = [extension_property_bounded(fan_algebra(3), 3, 6)
               for _ in range(2)]
    assert [(r.verdict, r.instances) for r in results] \
        == [("holds", 2916)] * 2


def _count_class_tasks(monkeypatch) -> list:
    calls = []
    task = amalgamation._extension_class_task

    def counted(Y, *args):
        calls.append(Y)
        return task(Y, *args)
    monkeypatch.setattr(amalgamation, "_extension_class_task", counted)
    return calls


def test_extension_property_stops_at_first_witness(monkeypatch):
    calls = _count_class_tasks(monkeypatch)
    r = extension_property_bounded(fan_algebra(2), 3, 6)
    classes = amalgamation._extension_classes(fan_algebra(2).base, 3, 6)
    position = [Y is r.witness[0] for Y in classes].index(True)
    assert r.verdict == "fails_with_witness"
    assert len(calls) == position + 1 < len(classes)


def test_extension_property_holds_after_the_last_class_with_an_onto_map():
    # after the class that reaches 76 instances, only classes with no onto
    # map to the 2-antichain are left, and the filter drops them
    r = extension_property_bounded(antichain(2), 2, 4)
    assert (r.verdict, r.instances) == ("holds", 76)


def _small_oracle_cases() -> list:
    """(P, n, bound) for every P of at most 4 points and n from its index
    to 3, at bound P.n + 2."""
    return [(P, n, P.n + 2) for P in poset_classes_upto(4)
            for n in range(variety_index(P), 4)]


def _dropped_classes(P: Poset, n: int, bound: int) -> list:
    """Classes of the plain filter that the extension filter drops.

    Asserts that the kept list is the plain list with some classes
    removed, in the same order, matched by identity.
    """
    kept = amalgamation._extension_classes(P, n, bound)
    plain = iter(extension_classes_plain(P, n, bound))
    dropped = []
    for Y in kept:
        for Z in plain:
            if Z is Y:
                break
            dropped.append(Z)
        else:
            raise AssertionError("kept class %r is not in the plain list"
                                 % (Y.canonical_key(),))
    return dropped + list(plain)


def test_extension_filter_drops_only_classes_with_no_onto_map():
    cases = _small_oracle_cases()
    for P in poset_classes_upto(4):
        if P.n == 4 and len(P.components()) >= 2:
            for n in range(variety_index(P), 4):
                cases.append((P, n, 7))
    dropped = 0
    for P, n, bound in cases:
        for Y in _dropped_classes(P, n, bound):
            assert next(_iter_p_morphisms(Y, P, onto=True), None) is None
            dropped += 1
    assert (len(cases), dropped) == (85, 11518)


def test_extension_filter_by_shape_matches_the_class_scan():
    # the shape index keeps the scan's own class objects, in its order,
    # for every P of at most 4 points (disconnected ones too, so the
    # component rule is read), n from its index to 3, bounds P.n to 7
    cases = [(P, n, bound) for P in poset_classes_upto(4)
             for n in range(variety_index(P), 4)
             for bound in range(P.n, 8)]
    assert any(len(P.components()) > 1 for P, _, _ in cases)
    for fresh in (False, True):
        if fresh:
            # the cached shape positions must name the new tuples' classes
            poset_classes_exactly.cache_clear()
            poset_classes_upto.cache_clear()
        kept = 0
        for P, n, bound in cases:
            got = amalgamation._extension_classes(P, n, bound)
            want = extension_classes_by_scan(P, n, bound)
            assert len(got) == len(want)
            assert all(Y is Z for Y, Z in zip(got, want))
            kept += len(got)
        assert (len(cases), kept) == (323, 80112)


def _answer(r: ExtensionResult) -> tuple:
    witness = None
    if r.witness is not None:
        Y, gamma, alpha = r.witness
        witness = (Y.canonical_key(), gamma.table, alpha.table)
    return r.verdict, witness, r.instances


def _plain_answer(monkeypatch, P, n, bound) -> tuple:
    """_answer of the oracle with every gamma of every class read."""
    with monkeypatch.context() as m:
        m.setattr(amalgamation, "_extension_class_task",
                  extension_class_task_plain)
        return _answer(extension_property_bounded(P, n, bound))


def _twin_swaps(P: Poset) -> list:
    """Every permutation of P's points made of swaps of its twins, as an
    index table: the group S of algebras._twin_swap_count."""
    tables = []
    classes = twin_classes_by_scan(P)
    for perms in itertools.product(*map(itertools.permutations, classes)):
        table = list(range(P.n))
        for cls, perm in zip(classes, perms):
            for a, b in zip(cls, perm):
                table[a] = b
        tables.append(tuple(table))
    return tables


def _swap_profiles(P: Poset, alpha_table: tuple) -> frozenset:
    """The top profiles of alpha and of its images tau o alpha under P's
    twin swaps."""
    return frozenset(amalgamation._top_profile(
        tuple(tau[p] for p in alpha_table), P.n) for tau in _twin_swaps(P))


def _refuse(monkeypatch, refused) -> None:
    """Make the closed-form lift refuse a set of top profiles, closed under
    the target's twin swaps (_swap_profiles), on some gammas.

    It refuses where more than one profile lies over the image of alpha's
    bottom. A swap tau carries the profiles over p for gamma onto those
    over tau(p) for tau o gamma, so, as for a real lift failure, tau o
    gamma refuses tau o alpha exactly when gamma refuses alpha: each orbit
    of the target's twin swaps fails as a whole, and the classes that
    fail are not only the first one with an onto gamma.
    """
    real = amalgamation._fan_lift

    def fan_lift(fibers, key):
        if key in refused and len(fibers[key[0]]) > 1:
            return None
        return real(fibers, key)
    monkeypatch.setattr(amalgamation, "_fan_lift", fan_lift)


def test_oracle_matches_plain_enumeration(monkeypatch):
    # every class read with all of its gammas gives the same verdict,
    # witness and instances as one gamma per twin-swap orbit
    cases = _small_oracle_cases() + [(fan(2), 3, 6)]
    verdicts = set()
    for P, n, bound in cases:
        got = _answer(extension_property_bounded(P, n, bound))
        assert got == _plain_answer(monkeypatch, P, n, bound), (P, n)
        verdicts.add(got[0])
    assert (len(cases), verdicts) == (69, {"holds", "fails_with_witness"})


def test_oracle_after_a_failing_orbit_matches_the_orbit_reference(
        monkeypatch):
    # with the profiles of one swap orbit of alphas refused, the target
    # has twins; the verdict, witness and count are those of plain
    # enumeration, also where the witness is not the class's first gamma
    runs = later = differs = 0
    for P in poset_classes_upto(4):
        if not P.twin_classes:
            continue
        orbits = dict.fromkeys(_swap_profiles(P, t)
                               for t in _iter_p_morphisms(fan(3), P))
        for refused in orbits:
            with monkeypatch.context() as m:
                _refuse(m, refused)
                r = extension_property_bounded(P, 3, P.n + 2)
                plain = _plain_answer(m, P, 3, P.n + 2)
            got = _answer(r)
            assert got[:2] == plain[:2], (P, refused)
            runs += 1
            differs += got[2] != plain[2]
            if r.witness is not None:
                Y, gamma, _ = r.witness
                later += gamma.table != next(_iter_p_morphisms(Y, P,
                                                               onto=True))
    assert (runs, later, differs) == (31, 13, 0)


# two twins below one point
TWINS_BELOW = Poset.from_covers("abc", [("a", "c"), ("b", "c")])


def test_oracle_in_process_pool_matches_plain(monkeypatch):
    # the oracle reads its classes in this process, in order; the witness
    # is the fourth gamma of its class, and the count is the plain one
    P = TWINS_BELOW
    _refuse(monkeypatch, _swap_profiles(P, (2, 2, 2, 2)))
    r = extension_property_bounded(P, 3, 5)
    Y, gamma, _ = r.witness
    assert list(_iter_p_morphisms(Y, P, onto=True)).index(gamma.table) == 3
    got = _answer(r)
    assert got == _plain_answer(monkeypatch, P, 3, 5)
    assert (got[0], got[2]) == ("fails_with_witness", 246)


def test_oracle_reads_each_class_once(monkeypatch):
    # every class before the failing one of
    # test_oracle_in_process_pool_matches_plain is searched once, one gamma
    # per orbit of the target's twin swaps; the failing one, whose witness
    # is past its first gamma, once so and once plain for the witness
    searches = []
    search = amalgamation._iter_p_morphisms

    def recorded(source, *args, onto=False, **kwargs):
        if onto:
            searches.append((source.canonical_key(),
                             kwargs.get("target_twins", False)))
        return search(source, *args, onto=onto, **kwargs)
    monkeypatch.setattr(amalgamation, "_iter_p_morphisms", recorded)
    P = TWINS_BELOW
    _refuse(monkeypatch, _swap_profiles(P, (2, 2, 2, 2)))
    r = extension_property_bounded(P, 3, 5)
    Y, gamma, _ = r.witness
    assert gamma.table != next(search(Y, P, onto=True))
    key = Y.canonical_key()
    assert searches[-2:] == [(key, True), (key, False)]
    keys = [k for k, _ in searches[:-1]]
    assert all(twins for _, twins in searches[:-1])
    assert len(keys) == len(set(keys)) == 35


def test_bounded_searches_share_the_target_twin_reduction(monkeypatch):
    # the oracle, extensile and the q-model lift check read one gamma per
    # orbit of the target's twin swaps; the one plain onto search is the
    # oracle's re-read of its failing class
    calls = []
    for module in (amalgamation, qmodel, algebras):
        def recorded(source, target, *args, onto=False,
                     search=module._iter_p_morphisms, name=module.__name__,
                     **kwargs):
            if onto:
                calls.append((name, kwargs.get("target_twins", False)))
            return search(source, target, *args, onto=onto, **kwargs)
        monkeypatch.setattr(module, "_iter_p_morphisms", recorded)
    runs = [("pcdl.amalgamation",
             lambda: extension_property_bounded(antichain(3), 3, 5)),
            ("pcdl.amalgamation",
             lambda: extension_property_bounded(fan(2), 3, 6)),
            ("pcdl.algebras",
             lambda: is_congruence_extensile_bounded(fan(2), 3, 6)),
            ("pcdl.qmodel",
             lambda: check_lift_cases(build_quotient_model(0, 1), 7))]
    reads = []
    for name, run in runs:
        calls.clear()
        run()
        assert calls and {caller for caller, _ in calls} == {name}
        reads.append([twins for _, twins in calls])
    assert all(reads[0]) and all(reads[2]) and all(reads[3])
    # the refuting dual: each class once, then the failing one plain
    assert reads[1][-1] is False and all(reads[1][:-1])


def _twin_search_counts(P: Poset, n: int, bound: int) -> tuple:
    """(plain gammas, representatives) over the extension classes of P.

    Asserts that the representatives of the target's twin swaps are some
    of the plain tables, in plain order, each standing for
    _twin_swap_count(P) of them.
    """
    swaps = algebras._twin_swap_count(P)
    gammas = reps = 0
    for Y in amalgamation._extension_classes(P, n, bound):
        plain = list(_iter_p_morphisms(Y, P, onto=True))
        got = list(_iter_p_morphisms(Y, P, onto=True, target_twins=True))
        rest = iter(plain)
        assert all(t in rest for t in got)
        assert len(got) * swaps == len(plain)
        gammas, reps = gammas + len(plain), reps + len(got)
    return gammas, reps


# the six duals of the benchmark's oracle-holds workload, as cover pairs
ORACLE_HOLDS_SHAPES = [[], [(0, 3)], [(0, 3), (1, 3)], [(0, 2), (2, 3)],
                       [(0, 1), (0, 2), (0, 3)], [(0, 2), (1, 3)]]


def test_twin_search_reduction_is_pinned(monkeypatch):
    assert _twin_search_counts(antichain(4), 3, 7) == (13440, 560)
    # the oracle itself reads the representatives
    read = []
    search = amalgamation._iter_p_morphisms

    def counted(*args, onto=False, **kwargs):
        for table in search(*args, onto=onto, **kwargs):
            read.append(onto)
            yield table
    monkeypatch.setattr(amalgamation, "_iter_p_morphisms", counted)
    r = extension_property_bounded(antichain(4), 3, 7)
    assert (r.verdict, r.instances) == ("holds", 53760)
    assert read.count(True) == 560
    total = [0, 0]
    for pairs in ORACLE_HOLDS_SHAPES:
        P = Poset.from_covers("abcd", [("abcd"[i], "abcd"[j])
                                       for i, j in pairs])
        for k, count in enumerate(_twin_search_counts(P, 3, 7)):
            total[k] += count
    assert total == [31844, 14076]


def _lift_agreement(Y: Poset, P: Poset, n: int) -> tuple:
    """(instances, instances without a lift); asserts the two tests agree.

    Wherever a lift exists, the one built from the closed form must
    compose back to alpha and be a p-morphism, and its table check must
    pass.
    """
    alphas = p_morphisms(fan(n), P)
    instances = missing = 0
    rows = amalgamation._max_rows(Y)
    for gamma in p_morphisms(Y, P, onto=True):
        fibers = amalgamation._fiber_profiles(rows, gamma.table, n)
        for alpha in alphas:
            backtracked = amalgamation._find_lift(gamma, alpha)
            y = amalgamation._fan_lift(
                fibers, amalgamation._top_profile(alpha.table, P.n))
            assert (y is None) == (backtracked is None), (gamma, alpha)
            if y is not None:
                beta = OrderMap(alpha.source, Y, amalgamation._fan_lift_table(
                    rows, gamma.table, alpha.table, y))
                assert gamma.compose(beta).table == alpha.table
                assert is_p_morphism(beta), (gamma, alpha, beta)
                assert amalgamation._fan_lift_failure(
                    Y, gamma.table, alpha.table, beta.table) is None
            instances += 1
            missing += backtracked is None
    return instances, missing


def test_packed_fit_matches_digit_wise_counts():
    # synthetic fibers over m points: 2n + 2 maximal points over each,
    # and points with n, n + 1 or 2n + 2 of them over one point, at and
    # past the field's limit, next to random ones; every top profile of
    # fan(n)
    rng = random.Random(20)
    for n in range(1, 10):
        at_limit = misses = 0
        for m in range(1, 5):
            table = [t % m for t in range(m * (2 * n + 2))]
            rows = [(t,) for t in range(len(table))]
            over = [[t for t in range(len(table)) if table[t] == p]
                    for p in range(m)]
            for _ in range(25):
                if rng.random() < 0.4:
                    row = over[rng.randrange(m)][
                        :rng.choice((n, n, n + 1, 2 * n + 2))]
                else:
                    row = sorted(rng.sample(range(len(table)),
                                            rng.randint(1, n + 1)))
                rows.append(tuple(row))
                table.append(rng.randrange(m))
            fibers = amalgamation._fiber_profiles(rows, tuple(table), n)
            for bottom in range(m):
                for tops in itertools.combinations_with_replacement(
                        range(m), n):
                    alpha = (bottom, *tops)
                    want = fan_lift_by_digits(rows, table, alpha, m)
                    got = amalgamation._fan_lift(
                        fibers, amalgamation._top_profile(alpha, m))
                    assert got == want, (n, m, alpha)
                    misses += want is None
                    at_limit += want is not None and len(rows[want]) == n \
                        and len({table[t] for t in rows[want]}) == 1
        assert at_limit and misses, n


def test_closed_form_fan_lift_matches_backtracking():
    instances = missing = 0
    for P in poset_classes_upto(3):
        for n in (1, 2, 3):
            for Y in amalgamation._extension_classes(P, n, P.n + 2):
                k, m = _lift_agreement(Y, P, n)
                instances, missing = instances + k, missing + m
    assert (instances, missing) == (11712, 138)


def test_find_lift_keeps_maximal_first_order():
    # the first lift found is the least one with maximal images first;
    # in some pairs index order alone would pick another lift
    pairs = reordered = 0
    sources = [S for S in poset_classes_upto(3) if S.n]
    for P in poset_classes_upto(2)[1:]:
        alphas = [alpha for S in sources for alpha in p_morphisms(S, P)]
        for Y in amalgamation._extension_classes(P, 3, P.n + 2):
            for gamma in p_morphisms(Y, P, onto=True):
                for alpha in alphas:
                    beta = amalgamation._find_lift(gamma, alpha)
                    want = first_lift_brute(gamma, alpha)
                    got = None if beta is None else beta.table
                    assert got == want, (gamma, alpha)
                    pairs += 1
                    reordered += want != first_lift_brute(
                        gamma, alpha, maximal_first=False)
    assert (pairs, reordered) == (1884, 257)


def _lift_verdict(gamma: OrderMap, alpha: OrderMap, table: tuple):
    """What the table check should say, from compose and is_p_morphism."""
    beta = OrderMap(alpha.source, gamma.source, table)
    if gamma.compose(beta).table != alpha.table:
        return "lift does not compose back"
    if not is_p_morphism(beta):
        return "lift is not a p-morphism"
    return None


def test_fan_lift_table_check_agrees_on_corrupted_lifts():
    # each built lift, corrupted by moving its bottom or one top to the
    # next point of Y, is judged alike by the table check and by compose
    # and is_p_morphism, failure label included
    seen = {"bottom": set(), "top": set()}
    for P in poset_classes_upto(3):
        for n in (1, 2, 3):
            alphas = p_morphisms(fan(n), P)
            for Y in amalgamation._extension_classes(P, n, P.n + 2):
                if Y.n < 2:
                    continue
                rows = amalgamation._max_rows(Y)
                for gamma in p_morphisms(Y, P, onto=True):
                    fibers = amalgamation._fiber_profiles(
                        rows, gamma.table, n)
                    for alpha in alphas:
                        y = amalgamation._fan_lift(
                            fibers,
                            amalgamation._top_profile(alpha.table, P.n))
                        if y is None:
                            continue
                        built = amalgamation._fan_lift_table(
                            rows, gamma.table, alpha.table, y)
                        for where, k in (("bottom", 0), ("top", n)):
                            bad = list(built)
                            bad[k] = (bad[k] + 1) % Y.n
                            bad = tuple(bad)
                            verdict = amalgamation._fan_lift_failure(
                                Y, gamma.table, alpha.table, bad)
                            assert verdict == _lift_verdict(gamma, alpha,
                                                            bad)
                            seen[where].add(verdict)
    everything = {None, "lift does not compose back",
                  "lift is not a p-morphism"}
    assert seen == {"bottom": everything, "top": everything}


def test_closed_form_fan_lift_on_random_larger_sources():
    targets = [P for P in poset_classes_upto(3) if P.n]
    missing = 0
    for seed in range(8):
        rng = random.Random(seed)
        size = rng.choice((7, 8))
        labels = ["y%d" % i for i in range(size)]
        Y = Poset.from_covers(labels, [(labels[i], labels[j])
                                       for i in range(size)
                                       for j in range(i + 1, size)
                                       if rng.random() < 0.3])
        for P in targets:
            for n in (1, 2, 3):
                missing += _lift_agreement(Y, P, n)[1]
    assert missing > 0


def test_bounded_searches_refuse_a_bound_below_the_dual():
    # no extension of fan(2)'s three points fits in two, so either answer
    # would hold vacuously over zero instances
    with pytest.raises(ValueError, match="bound 2 is below the 3 points"):
        extension_property_bounded(fan_algebra(2), 3, 2)
    with pytest.raises(ValueError, match="bound 2 is below the 3 points"):
        is_congruence_extensile_bounded(fan_algebra(2), 3, 2)
    assert extension_property_bounded(fan_algebra(2), 3, 3).instances > 0
    assert is_congruence_extensile_bounded(fan_algebra(2), 3, 3).instances > 0


def test_fan_map_count_matches_the_search():
    for P in poset_classes_upto(4):
        for n in range(7):
            assert amalgamation._fan_map_count(P, n) == \
                sum(1 for _ in _iter_p_morphisms(fan(n), P)), (P, n)


def test_oracle_refuses_a_fan_past_its_map_cap(monkeypatch):
    def no_listing(*args, **kwargs):
        raise AssertionError("the oracle listed maps")
    monkeypatch.setattr(amalgamation, "_iter_p_morphisms", no_listing)
    # 3! S(11, 3) = 171,006 maps of fan(11) onto fan(3)'s tops
    assert amalgamation._fan_map_count(fan(3), 10) < 100_000
    with pytest.raises(ValueError, match="the oracle would list 171,009 "
                       "maps of fan\\(11\\) into the dual; it takes at "
                       "most 100,000"):
        extension_property_bounded(fan(3), 11)


def test_amalgamate_two_into_cubes():
    two = fan_algebra(0)
    B3 = fan_algebra(3)
    e = star_embeddings(two, B3)[0]
    res = amalgamate_or_separate(two, B3, B3, e, e, 3)
    assert res.amalgamable
    assert res.checked_pairs == 72


def test_amalgamate_or_separate_split():
    B2, B3 = fan_algebra(2), fan_algebra(3)
    embs = star_embeddings(B2, B3)
    assert len(embs) == 6
    outcomes = []
    witness = None
    for e0 in embs:
        for e1 in embs:
            r = amalgamate_or_separate(B2, B3, B3, e0, e1, 3)
            outcomes.append(r.amalgamable)
            if not r.amalgamable and witness is None:
                witness = (e0, e1, r)
    assert outcomes.count(True) == 18
    assert outcomes.count(False) == 18

    # re-verify one separation witness by brute force: no pair of
    # homomorphisms into the bounding cube that agree on the shared
    # subalgebra can tell the witness pair apart
    e0, e1, r = witness
    side, lab_u, lab_v = r.witness
    B = fan_algebra(3)
    A = fan_algebra(2)
    target = fan_algebra(3)
    u = B.labels.index(lab_u)
    v = B.labels.index(lab_v)
    h0s = star_homs(B, target)
    h1s = star_homs(B, target)
    for f in h0s:
        for g in h1s:
            key_f = tuple(f.table[e0.table[a]] for a in range(A.size))
            key_g = tuple(g.table[e1.table[a]] for a in range(A.size))
            if key_f != key_g:
                continue
            h = f if side == "left" else g
            assert h.table[u] == h.table[v]


def test_catalog_row_counts():
    assert len(catalog(1, 3)) == 1
    assert len(catalog(2, 3)) == 2
    assert len(catalog(4, 3)) == 16
    with pytest.raises(ValueError, match="6"):
        catalog(7, 3)


def test_catalog_verdicts():
    rows = catalog(1, 3)
    assert rows[0]["verdict"] == "base"
    assert rows[0]["algebra_size"] == 2

    rows = catalog(4, 3)
    verdicts = [r["verdict"] for r in rows]
    assert "not_base" in verdicts and "base" in verdicts
    for r in rows:
        if r["verdict"] == "not_base":
            assert r["forbidden"]
        elif r["verdict"] == "base":
            assert not r["forbidden"]


def test_catalog_oracle_column_agrees():
    rows = catalog(3, 3, oracle=True)
    for r in rows:
        if r["verdict"] == "not_in_variety":
            assert "oracle" not in r
            continue
        if r["verdict"] == "base":
            assert r["oracle"] == "holds"
        else:
            assert r["oracle"] == "fails_with_witness"


def test_amalgamate_or_separate_rejects_non_injective_embedding():
    square, two = make_pcdl(antichain(2)), fan_algebra(0)
    projection = star_homs(square, two)[0]
    assert not projection.is_one_to_one()
    with pytest.raises(ValueError, match="e0 is not one-to-one"):
        amalgamate_or_separate(square, two, two, projection, projection, 3)


def test_amalgamate_or_separate_rejects_star_breaking_embedding():
    # a lattice embedding of the 3-chain into the square that breaks star
    square, three = make_pcdl(antichain(2)), make_pcdl(fan(1))
    x0 = square.index_of_mask(square.base.mask_of(["x0"]))
    emb = LatticeHom(three, square,
                     (square.bottom, x0, square.top))
    assert emb.is_homomorphism() and emb.is_one_to_one()
    with pytest.raises(ValueError, match="e0 does not preserve star"):
        amalgamate_or_separate(three, square, square, emb, emb, 3)


def test_bounded_searches_share_one_result_type():
    oracle = extension_property_bounded(fan_algebra(2), 3, 4)
    extensile = is_congruence_extensile_bounded(fan_algebra(2), 3, 4)
    assert type(oracle) is ExtensionResult
    assert type(extensile) is ExtensionResult
    assert extensile.verdict == "yes" and extensile.witness is None
    assert not hasattr(pcdl, "ExtensileResult")
