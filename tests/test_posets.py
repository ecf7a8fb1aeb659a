import pickle
import random
from math import factorial

import pytest

from pcdl import (DisjointSum, OrderMap, Poset, antichain, bits, chain,
                  classify_map, disjoint_sum, dual_lattice, dual_space, fan,
                  max_above, ordinal_sum, poset_classes_upto)
from pcdl.enumeration import _add_maximal, _orbit_minima

from _oracles import (automorphisms_brute, canonical_form_brute,
                      check_partial_order, closure_from_covers,
                      from_covers_warshall, iso_brute, random_poset,
                      random_relabel, upsets_brute)


def test_bits():
    assert list(bits(0)) == []
    assert list(bits(0b10110)) == [1, 2, 4]
    # one and two byte lookups, and wide masks read a byte at a time
    rng = random.Random(3)
    for width in (8, 16, 17, 64, 1200):
        for _ in range(20):
            mask = rng.getrandbits(width) >> rng.randrange(width)
            assert list(bits(mask)) == [i for i in range(width)
                                        if mask >> i & 1]
    assert list(bits(1 << 1199)) == [1199]
    for mask in (-1, -256, -(1 << 20)):
        with pytest.raises(ValueError, match="negative mask"):
            bits(mask)


def test_up_sets_stop_past_most():
    p = antichain(3)
    with pytest.raises(ValueError, match="3-point poset has more than 7"):
        p.up_sets(7)
    assert len(p.up_sets(8)) == 8
    # read again from the kept tuple
    with pytest.raises(ValueError, match="more than 7"):
        p.up_sets(7)
    assert p.up_sets() == p.up_sets(8)
    # the count stops near the cap, long before 2^40 up-sets are listed
    with pytest.raises(ValueError, match="40-point poset"):
        antichain(40).up_sets(2048)


def test_from_covers_closure_matches_brute():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randrange(1, 8)
        pairs = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.5:
                    pairs.append((i, j))
        p = Poset.from_covers(["x%d" % i for i in range(n)],
                              [("x%d" % a, "x%d" % b) for a, b in pairs])
        leq = closure_from_covers(n, pairs)
        for i in range(n):
            for j in range(n):
                assert p.leq(i, j) == leq[i][j]
        assert check_partial_order(n, p.leq)


def test_from_covers_matches_warshall_on_acyclic_and_cyclic_input():
    # pairs in any direction, repeated and redundant ones included: the
    # same up-sets as the Warshall closure, or the same cycle message
    rng = random.Random(20)
    cycles = 0
    for trial in range(300):
        n = rng.randrange(1, 24)
        rank = list(range(n))
        rng.shuffle(rank)
        density = rng.choice((0.05, 0.15, 0.4))
        pairs = [(i, j) for i in range(n) for j in range(n)
                 if rank[i] < rank[j] and rng.random() < density]
        if trial % 2 and n > 1:
            # a few back pairs close cycles, some through high indices
            for _ in range(rng.randrange(1, 4)):
                i, j = rng.sample(range(n), 2)
                pairs.append((i, j))
        pairs += rng.sample(pairs, min(len(pairs), 3))
        labels = ["p%d" % i for i in range(n)]
        up, cycle = from_covers_warshall(n, pairs)
        named = [(labels[a], labels[b]) for a, b in pairs]
        if cycle is None:
            assert Poset.from_covers(labels, named).up == up
        else:
            cycles += 1
            with pytest.raises(ValueError) as err:
                Poset.from_covers(labels, named)
            assert str(err.value) == "order cycle through %r" % labels[cycle]
    assert 40 < cycles < 150


def test_from_covers_accepts_transitive_generators():
    p = Poset.from_covers(["a", "b", "c"], [("a", "b"), ("b", "c"),
                                            ("a", "c")])
    # the redundant generator must not show up as a cover
    assert sorted(p.to_dict()["covers"]) == [["a", "b"], ["b", "c"]]


def test_from_covers_stringifies_cover_endpoints_like_labels():
    p = Poset.from_dict({"elements": [1, 2], "covers": [[1, 2]]})
    assert p.labels == ("1", "2")
    assert p.leq(0, 1) and not p.leq(1, 0)


def test_from_covers_rejects_cycles():
    with pytest.raises(ValueError, match="cycle"):
        Poset.from_covers(["a", "b"], [("a", "b"), ("b", "a")])


def test_from_covers_rejects_unknown_labels_and_duplicates():
    with pytest.raises(ValueError):
        Poset.from_covers(["a"], [("a", "zz")])
    with pytest.raises(ValueError):
        Poset.from_covers(["a", "a"], [])


def test_up_sets_match_brute():
    rng = random.Random(11)
    posets = [antichain(0), antichain(3), chain(3), fan(3)]
    posets += [random_poset(rng.randrange(1, 7), rng) for _ in range(25)]
    for p in posets:
        ups = list(p.up_sets())
        assert sorted(ups) == upsets_brute(p)
        assert ups == sorted(ups, key=lambda m: (m.bit_count(), m))


def test_up_sets_match_brute_on_larger_posets():
    rng = random.Random(29)
    for _ in range(24):
        p = random_poset(rng.randrange(7, 10), rng)
        assert list(p.up_sets()) == sorted(
            upsets_brute(p), key=lambda m: (m.bit_count(), m))


def test_up_sets_of_a_long_chain_are_its_suffixes():
    # deeper than the interpreter's recursion limit
    n = 1200
    full = (1 << n) - 1
    assert chain(n).up_sets() == tuple(full ^ ((1 << k) - 1)
                                       for k in range(n, -1, -1))


def test_up_set_predicates():
    p = fan(2)
    g = p.index_of("g")
    t1 = p.index_of("t1")
    assert p.is_up_set(1 << t1)
    assert not p.is_up_set(1 << g)
    assert p.up_closure(1 << g) == p.full_mask
    assert p.down_closure(1 << t1) == (1 << t1) | (1 << g)


def test_maximals_and_max_above():
    p = fan(3)
    assert p.maximals_mask == p.mask_of(["t1", "t2", "t3"])
    assert p.minimals_mask == p.mask_of(["g"])
    assert set(max_above(p, "g")) == {"t1", "t2", "t3"}
    assert set(max_above(p, "t2")) == {"t2"}


def test_restrict_and_dual():
    p = fan(3)
    keep = p.mask_of(["g", "t1"])
    sub = p.restrict(keep)
    assert sub.n == 2 and sub.leq(sub.index_of("g"), sub.index_of("t1"))
    d = p.dual()
    assert d.maximals_mask == d.mask_of(["g"])


def test_components():
    two_fans = disjoint_sum([fan(2), fan(1)]).poset
    comps = two_fans.components()
    assert sorted(m.bit_count() for m in comps) == [2, 3]
    assert antichain(0).components() == []


def test_canonical_key_is_isomorphism_invariant():
    rng = random.Random(3)
    for _ in range(30):
        p = random_poset(rng.randrange(1, 8), rng)
        q = random_relabel(p, rng)
        assert p.canonical_key() == q.canonical_key()
        assert p.isomorphic(q)
        iso = p.find_isomorphism(q)
        for i in range(p.n):
            for j in range(p.n):
                assert p.leq(i, j) == q.leq(iso[i], iso[j])


def test_canonical_key_separates_non_isomorphic():
    rng = random.Random(5)
    pool = [random_poset(n, rng) for n in (4, 4, 5, 5, 5) for _ in range(6)]
    for a in pool:
        for b in pool:
            same_key = a.canonical_key() == b.canonical_key()
            assert same_key == (iso_brute(a, b) is not None)


def test_canonical_form_matches_exhaustive_search():
    rng = random.Random(23)
    shapes = [random_poset(rng.randrange(7, 10), rng) for _ in range(40)]
    # large automorphism groups, with and without twins
    shapes += [antichain(7), fan(6), chain(7),
               disjoint_sum([chain(2)] * 4).poset,
               ordinal_sum(antichain(3), antichain(4))]
    # crowns of 6 and 4 points: color refinement cannot tell their points
    # apart, so the orderings reach different codes and the bound cuts
    crowns = Poset.from_covers(
        ["a0", "a1", "a2", "b0", "b1", "b2", "c0", "c1", "d0", "d1"],
        [("a0", "b0"), ("a0", "b1"), ("a1", "b1"), ("a1", "b2"),
         ("a2", "b2"), ("a2", "b0"), ("c0", "d0"), ("c0", "d1"),
         ("c1", "d0"), ("c1", "d1")])
    shapes += [crowns] + [random_relabel(crowns, rng) for _ in range(5)]
    for p in shapes:
        assert (p.canonical_key(), p.canonical_perm()) == \
            canonical_form_brute(p)


def _group_closure(gens, n) -> set:
    group = {tuple(range(n))}
    frontier = list(group)
    while frontier:
        g = frontier.pop()
        for h in gens:
            gh = tuple(h[i] for i in g)
            if gh not in group:
                group.add(gh)
                frontier.append(gh)
    return group


def test_automorphism_generators_and_down_set_orbits_match_brute():
    for p in poset_classes_upto(5) + (antichain(7), fan(6), chain(6)):
        auts = automorphisms_brute(p)
        gens = p._canonical_search()[2]
        assert set(gens) <= set(auts)
        assert len(_group_closure(gens, p.n)) == len(auts)
        downs = p.down_sets()
        minima = _orbit_minima(gens, downs)
        for d in downs:
            orbit = {sum(1 << a[i] for i in bits(d)) for a in auts}
            assert minima.get(d, d) == min(orbit)


def test_automorphism_generators_stay_few():
    # k 2-chains side by side have k! automorphisms and no twins
    for k in range(2, 11):
        p = disjoint_sum([chain(2)] * k).poset
        gens = p._canonical_search()[2]
        assert len(gens) <= k * (k - 1) // 2
        if k <= 5:
            assert len(_group_closure(gens, p.n)) == factorial(k)


def test_labelling_runs_past_the_recursion_limit():
    # more points than call frames one recursive call per point could use:
    # a chain, whose coloring is discrete, and a chain with two twin tops,
    # which the search walks down level by level
    rng = random.Random(1200)
    for p in (chain(1200), ordinal_sum(chain(1000), antichain(2))):
        q = random_relabel(p, rng)
        assert p.canonical_key() == q.canonical_key()
        iso = p.find_isomorphism(q)
        # a bijection carrying covers onto covers is an isomorphism
        assert sorted(iso.values()) == list(range(p.n))
        assert all(q.covers_up[iso[i]] == sum(1 << iso[j] for j in
                                              bits(p.covers_up[i]))
                   for i in range(p.n))


def test_constructions():
    assert chain(3).n == 3 and chain(0).n == 0
    assert antichain(4).maximals_mask == antichain(4).full_mask
    assert fan(0).n == 1
    s = ordinal_sum(antichain(2), antichain(2))
    assert s.n == 4
    lows = [i for i in range(4) if s.up[i].bit_count() == 3]
    assert len(lows) == 2
    d = disjoint_sum([chain(2), chain(2)])
    assert isinstance(d, DisjointSum)
    assert d.poset.n == 4
    assert d.part_mask(0) | d.part_mask(1) == d.poset.full_mask
    assert d.part_mask(0) & d.part_mask(1) == 0


def test_ordinal_sum_relabels_on_collision():
    s = ordinal_sum(chain(2), chain(2))
    assert s.n == 4 and len(set(s.labels)) == 4
    assert s.up[0].bit_count() == 4 or s.up[s.n - 1].bit_count() == 1


def test_dict_round_trip_and_validation():
    p = fan(2)
    q = Poset.from_dict(p.to_dict())
    assert q == p
    with pytest.raises(ValueError):
        Poset.from_dict({"elements": "bad", "covers": []})
    with pytest.raises(ValueError):
        Poset.from_dict({"elements": ["a"], "covers": [["a"]]})


def test_to_dot():
    dot = fan(2).to_dot("fan2")
    assert "digraph" in dot and "rankdir=BT" in dot
    assert dot.count("->") == 2


def test_order_map_basics():
    p, q = fan(2), fan(1)
    f = OrderMap.from_labels(p, q, {"g": "g", "t1": "t1", "t2": "t1"})
    assert f(p.index_of("g")) == q.index_of("g")
    assert f.is_order_preserving() and f.is_onto()
    assert not f.is_order_embedding()
    assert classify_map(f) == "order_preserving"
    ident = OrderMap.identity(p)
    assert classify_map(ident) == "both_embedding_and_onto"
    assert f.compose(ident).table == f.table
    assert f.map_labels()["t2"] == "t1"
    assert f.image_mask() == q.full_mask
    assert f.preimage_mask(1 << q.index_of("t1")) == \
        p.mask_of(["t1", "t2"])


def test_order_map_validation():
    p, q = fan(2), fan(1)
    with pytest.raises(ValueError, match="total"):
        OrderMap.from_labels(p, q, {"g": "g"})
    with pytest.raises(ValueError):
        OrderMap(p, q, (0, 1))
    with pytest.raises(ValueError, match="empty"):
        OrderMap(fan(1), antichain(0), (0, 0))
    f = OrderMap.from_labels(p, q, {"g": "t1", "t1": "g", "t2": "g"})
    assert classify_map(f) == "not_order_preserving"
    with pytest.raises(ValueError, match="composition"):
        OrderMap.identity(p).compose(OrderMap.identity(q))


def test_order_map_embedding_checks_all_pairs():
    # covers alone cannot tell an embedding: incomparability must reflect
    p = antichain(2)
    q = chain(2)
    f = OrderMap.from_labels(p, q, {"x0": "c0", "x1": "c1"})
    assert f.is_order_preserving()
    assert not f.is_order_embedding()


def _tables(p):
    return p.labels, p.up, p.down, p.covers_up, p.covers_down


def _strict_pairs(p, name=lambda s: s):
    return [(name(p.labels[i]), name(p.labels[j]))
            for i in range(p.n) for j in bits(p.up[i]) if i != j]


def _assert_built_as(built, labels, pairs):
    assert _tables(built) == _tables(Poset.from_covers(labels, pairs))


def test_derived_posets_match_from_covers_on_random_sources():
    # each derived poset is built from masks; the reference closes the
    # same label pairs the old label-pair constructions passed on
    rng = random.Random(19)
    for n in range(9):
        for _ in range(2):
            p = random_poset(n, rng)
            q = random_poset(rng.randrange(4), rng)
            for _ in range(4):
                mask = rng.getrandbits(n)
                _assert_built_as(p.restrict(mask), p.labels_of(mask),
                                 [(a, b) for a, b in _strict_pairs(p)
                                  if p.mask_of([a, b]) & ~mask == 0])
            _assert_built_as(p.dual(), p.labels,
                             [(b, a) for a, b in _strict_pairs(p)])
            # both sums relabel when q's labels collide with p's
            clash = bool(set(p.labels) & set(q.labels))
            lo = (lambda s: s + ".0") if clash else (lambda s: s)
            hi = (lambda s: s + ".1") if clash else (lambda s: s)
            labels = [lo(s) for s in p.labels] + [hi(s) for s in q.labels]
            _assert_built_as(
                ordinal_sum(p, q), labels,
                _strict_pairs(p, lo) + _strict_pairs(q, hi)
                + [(lo(a), hi(b)) for a in p.labels for b in q.labels])
            d = disjoint_sum([p, q])
            _assert_built_as(d.poset, labels,
                             _strict_pairs(p, lo) + _strict_pairs(q, hi))
            for down in p.down_sets():
                _assert_built_as(_add_maximal(p, down, "new"),
                                 p.labels + ("new",),
                                 _strict_pairs(p)
                                 + [(a, "new") for a in p.labels_of(down)])
            L = dual_lattice(p)
            principal = set(p.up)
            jis = [i for i in range(L.size) if L.carrier[i] in principal]
            _assert_built_as(dual_space(L), [L.labels[i] for i in jis],
                             [(L.labels[a], L.labels[b]) for a in jis
                              for b in jis if a != b and L.leq(b, a)])
            assert dual_space(L).isomorphic(p)


@pytest.mark.parametrize("labels, up", [
    (["a", "b"], [0b10, 0b10]),
    (["a"], [0b11]),
    (["a", "b", "c"], [0b011, 0b110, 0b100]),
    (["a", "b"], [0b11, 0b11]),
    (["a", "a"], [0b01, 0b10]),
    (["a", "b"], [0b01]),
    ([1], [0b1]),
], ids=["missing-own-point", "past-carrier", "not-transitive", "two-cycle",
        "duplicate-labels", "length-mismatch", "label-not-string"])
def test_constructor_certifies_up_masks(labels, up):
    with pytest.raises(ValueError):
        Poset(labels, up)


def test_pickle_round_trip_keeps_tables():
    rng = random.Random(23)
    for n in (0, 1, 5, 8):
        p = random_poset(n, rng)
        assert _tables(pickle.loads(pickle.dumps(p))) == _tables(p)
