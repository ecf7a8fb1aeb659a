import random
import tracemalloc
from math import factorial

import pytest

from pcdl import algebras, duality
from pcdl.algebras import (MAX_STAR_HOMS, _fan_rank, _iter_p_morphisms,
                           _onto_count, _twin_swap_count)
from pcdl.enumeration import poset_classes_exactly
from pcdl import (AbstractLattice, OrderMap, Poset, antichain,
                  build_quotient_model, chain, disjoint_sum,
                  embedding_p_morphism_witness, fan, fan_algebra,
                  hom_of_dual_map, in_variety,
                  is_p_morphism, make_pcdl, onto_star_hom_exists,
                  p_morphism_failure, p_morphisms, pcdl_from_abstract,
                  poset_classes_upto, pseudocomplement, star_embeddings,
                  star_hom_pairs, star_homs, variety_index)

from _oracles import (all_p_morphisms_raw, cube_plus_one_tables,
                      cube_tables, is_p_morphism_raw, is_star_hom_raw,
                      order_preserving_maps_raw, product_tables,
                      random_poset, random_relabel, star_table_brute,
                      twin_classes_by_scan)


def test_pseudocomplement_masks():
    p = fan(2)
    full = p.full_mask
    assert pseudocomplement(p, 0) == full
    assert pseudocomplement(p, full) == 0
    t1 = p.mask_of(["t1"])
    assert pseudocomplement(p, t1) == p.mask_of(["t2"])
    with pytest.raises(ValueError):
        pseudocomplement(p, p.mask_of(["g"]))


def test_star_axiom_brute():
    rng = random.Random(31)
    posets = [fan(3), chain(3), antichain(3)]
    posets += [random_poset(rng.randrange(1, 6), rng) for _ in range(10)]
    for p in posets:
        A = make_pcdl(p)
        for u in range(A.size):
            for v in range(A.size):
                meets_bottom = A.meet(u, v) == A.bottom
                assert meets_bottom == A.leq(v, A.star(u))


def test_make_pcdl_certifies_star_at_every_size(monkeypatch):
    # 2048 elements, above the size the former pair scan stopped at
    assert make_pcdl(antichain(11)).size == 2048
    star_mask = duality._star_mask

    def drops_a_point(poset, mask):
        s = star_mask(poset, mask)
        return s & (s - 1)
    monkeypatch.setattr(duality, "_star_mask", drops_a_point)
    with pytest.raises(AssertionError, match="pseudocomplement axiom"):
        make_pcdl(antichain(11))


def test_star_table_matches_brute_oracle():
    for n in range(5):
        A = fan_algebra(n)
        joins = [[A.join(i, j) for j in range(A.size)]
                 for i in range(A.size)]
        meets = [[A.meet(i, j) for j in range(A.size)]
                 for i in range(A.size)]
        brute = star_table_brute(A.size, joins, meets)
        assert list(A.star_table) == brute


def test_star_table_matches_brute_oracle_on_random_posets():
    for seed in range(8):
        rng = random.Random(7000 + seed)
        A = make_pcdl(random_poset(rng.randrange(7, 10), rng))
        elems = range(A.size)
        joins = [[A.join(i, j) for j in elems] for i in elems]
        meets = [[A.meet(i, j) for j in elems] for i in elems]
        assert list(A.star_table) == star_table_brute(A.size, joins, meets)


@pytest.mark.parametrize("tables", [
    cube_tables(3), product_tables(cube_tables(1), cube_plus_one_tables(2)),
], ids=["cube", "product"])
def test_pcdl_from_abstract_is_the_unit_target(tables):
    lat = AbstractLattice(*tables)
    A, unit = pcdl_from_abstract(lat)
    assert A is lat.unit.target and unit is lat.unit
    star_abs = star_table_brute(lat.size, tables[1], tables[2])
    for a in range(lat.size):
        assert unit.table[star_abs[a]] == A.star(unit.table[a])


def test_pcdl_from_abstract_transport():
    labels, joins, meets = cube_plus_one_tables(3)
    lat = AbstractLattice(labels, joins, meets)
    A, unit = pcdl_from_abstract(lat)
    assert A.size == lat.size
    assert A.base.isomorphic(fan(3))
    star_abs = star_table_brute(lat.size, joins, meets)
    for a in range(lat.size):
        assert unit.table[star_abs[a]] == A.star(unit.table[a])


def test_upset_star_table():
    A = fan_algebra(2)
    assert A.star_table == tuple(
        A.index_of_mask(pseudocomplement(A.base, u)) for u in A.carrier)


def test_p_morphisms_match_brute_exhaustively():
    classes = list(poset_classes_upto(3))
    for src in classes:
        for tgt in classes:
            want = set(all_p_morphisms_raw(src, tgt))
            got = {f.table for f in p_morphisms(src, tgt)}
            assert got == want, (src.to_dict(), tgt.to_dict())
            want_onto = set(all_p_morphisms_raw(src, tgt, onto=True))
            got_onto = {f.table for f in p_morphisms(src, tgt, onto=True)}
            assert got_onto == want_onto


def test_search_core_matches_brute_on_random_sources():
    # the core's tables against the product scan of _oracles, onto and
    # not; the scan lists each table once, in order, so a duplicate
    # yield or a missing table fails the sorted comparison
    rng = random.Random(808)
    sources = [random_poset(n, rng) for n in (5, 5, 6, 6, 7, 7)]
    targets = poset_classes_upto(3)
    for src in sources:
        for tgt in targets:
            for onto in (False, True):
                got = list(_iter_p_morphisms(src, tgt, onto=onto))
                assert sorted(got) == all_p_morphisms_raw(src, tgt, onto), \
                    (src.to_dict(), tgt.to_dict(), onto)


def _search_sources() -> list:
    """Every class of at most 5 points, relabelled copies of those of 3 to
    5 points, and relabelled samples of 6 and 7 points."""
    rng = random.Random(20)
    sources = list(poset_classes_upto(5))
    sources += [random_relabel(Y, rng) for Y in poset_classes_upto(5)
                if Y.n >= 3]
    sources += [random_relabel(Y, rng) for k in (6, 7)
                for Y in rng.sample(poset_classes_exactly(k), 6)]
    return sources


def test_search_order_of_onto_and_twin_searches():
    # onto and target_twins only drop tables from the plain search: onto
    # keeps the onto ones and target_twins one of each orbit of the
    # target's twin swaps, in plain order
    sources = _search_sources()
    targets = poset_classes_upto(4)
    onto_total = reps = 0
    for Y in sources:
        for P in targets:
            plain = list(_iter_p_morphisms(Y, P))
            onto = [t for t in plain if len(set(t)) == P.n]
            assert list(_iter_p_morphisms(Y, P, onto=True)) == onto
            got = list(_iter_p_morphisms(Y, P, onto=True, target_twins=True))
            classes = twin_classes_by_scan(P)
            assert got == [t for t in onto
                           if _first_hits_in_index_order(Y, t, classes)]
            onto_total, reps = onto_total + len(onto), reps + len(got)
    assert reps < onto_total


def _with_above_by_scan(P) -> dict:
    """Maximal-set mask -> mask of the points with that maximal set."""
    maxes = [z for z in range(P.n) if P.up[z] == 1 << z]
    out = {}
    for p in range(P.n):
        key = sum(1 << z for z in maxes if P.up[p] >> z & 1)
        out[key] = out.get(key, 0) | 1 << p
    return out


def test_search_yields_in_search_order():
    # witnesses and the CLI's answers follow search order: points sorted
    # by (up-set size, index), each search's tables strictly increase in
    # the images those points take
    sources = _search_sources()
    targets = poset_classes_upto(4)
    for Y in sources:
        order = sorted(range(Y.n), key=lambda y: (Y.up[y].bit_count(), y))
        for P in targets:
            keys = [tuple(t[y] for y in order)
                    for t in _iter_p_morphisms(Y, P)]
            assert all(a < b for a, b in zip(keys, keys[1:]))
    # each target keeps the points-by-maximal-set map its first search
    # built, and later searches leave it as a fresh scan gives it
    for P in targets[1:]:
        assert P._with_above is not None
        assert P.with_above == _with_above_by_scan(P)


def _search_rows_by_scan(Y) -> tuple:
    """(order, covers, above) by leq scan: the points by (up-set size,
    index), and in that order each one's upper covers and the maximal
    points above it."""
    n = Y.n
    strictly = [[z for z in range(n) if z != y and Y.leq(y, z)]
                for y in range(n)]
    order = tuple(sorted(range(n), key=lambda y: (len(strictly[y]), y)))
    covers = tuple(tuple(z for z in strictly[y]
                         if not any(Y.leq(w, z) and w != z
                                    for w in strictly[y]))
                   for y in order)
    above = tuple(tuple(z for z in range(n)
                        if Y.leq(y, z) and not strictly[z])
                  for y in order)
    return order, covers, above


def _check_search_gates_by_scan(P) -> None:
    """P's kept gates, and every opened and shapes entry the searches
    filled, against a leq scan."""
    pairs, preds, gated, opened, shapes = P.search_gates
    scan = twin_classes_by_scan(P)
    assert P.twin_classes == tuple(map(tuple, scan))
    before = {b: a for cls in scan for a, b in zip(cls, cls[1:])}
    assert pairs == tuple((1 << a, 1 << b) for b, a in before.items())
    assert preds == sum(1 << a for a in before.values())
    assert gated == sum(1 << b for b in before)
    for key, mask in opened.items():
        assert mask == sum(1 << p for p in range(P.n)
                           if p not in before or key >> before[p] & 1)
    tops = [p for p in range(P.n) if P.up[p] == 1 << p]
    tmax = sum(1 << p for p in tops)
    # whether a gated point is maximal, and whether one is not
    hit = [any(b in tops for b in before), any(b not in tops for b in before)]
    for (ns, block), (need, left, gates) in shapes.items():
        assert need == tuple(tmax if k < block else P.full_mask
                             for k in range(ns))
        assert left == tuple(block - 1 - k if k < block else ns - 1 - k
                             for k in range(ns))
        assert gates == tuple(hit[k >= block] for k in range(ns))


def test_kept_search_state_is_transparent():
    # each search mode yields the same tables in the same order whether
    # source and target keep state from earlier searches with other
    # partners in every mode, or are fresh copies; and what they keep is
    # what a fresh scan gives
    rng = random.Random(32)
    sources = list(poset_classes_upto(6))
    sources += rng.sample(poset_classes_exactly(7), 12)
    targets = list(poset_classes_upto(4))
    pairs = [(Y, P) for Y in sources for P in targets]
    rng.shuffle(pairs)
    for Y, P in pairs:
        fibers = [sum(1 << p for p in range(P.n) if rng.random() < 0.75)
                  for _ in range(Y.n)]
        modes = [{}, {"onto": True}, {"onto": True, "target_twins": True},
                 {"fibers": fibers}]
        rng.shuffle(modes)
        fresh_Y, fresh_P = Poset(Y.labels, Y.up), Poset(P.labels, P.up)
        for mode in modes:
            assert list(_iter_p_morphisms(Y, P, **mode)) == \
                list(_iter_p_morphisms(fresh_Y, fresh_P, **mode)), \
                (Y.to_dict(), P.to_dict(), mode)
    # the empty poset is read by no search: it has the one empty map
    for Y in sources:
        assert (Y._search_rows is not None) == (Y.n > 0)
        assert Y.search_rows == _search_rows_by_scan(Y)
        assert Y.twin_classes == tuple(map(tuple, twin_classes_by_scan(Y)))
    for P in targets:
        assert (P._search_gates is not None) == (P.n > 0)
        _check_search_gates_by_scan(P)
        assert P.with_above == _with_above_by_scan(P)


def test_kept_source_rows_stay_small():
    # the rows every class of at most 7 points keeps as a search source
    # take about 350 bytes a class, 0.85 MB in all, under tracemalloc; a
    # kept per-class plan of the whole search would pass the budget
    copies = [Poset(Y.labels, Y.up) for Y in poset_classes_upto(7)]
    assert len(copies) == 2451
    for Y in copies:
        Y.maximals_mask  # kept already by every search of Y
    tracemalloc.start()
    try:
        for Y in copies:
            Y.search_rows
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < 1_250_000, kept


def test_search_core_empty_source_and_target():
    empty, point = antichain(0), antichain(1)
    assert list(_iter_p_morphisms(empty, empty)) == [()]
    assert list(_iter_p_morphisms(empty, empty, onto=True)) == [()]
    assert list(_iter_p_morphisms(empty, point)) == [()]
    assert list(_iter_p_morphisms(empty, point, onto=True)) == []
    assert list(_iter_p_morphisms(point, empty)) == []
    assert list(_iter_p_morphisms(point, empty, onto=True)) == []


def _first_hits_in_index_order(Y, table, classes) -> bool:
    """Whether, read in search order, each target twin class is first hit
    in index order (the restricted-growth form of table)."""
    order = sorted(range(Y.n), key=lambda y: (Y.up[y].bit_count(), y))
    for cls in classes:
        hits = []
        for y in order:
            if table[y] in cls and table[y] not in hits:
                hits.append(table[y])
        if hits != cls[:len(hits)]:
            return False
    return True


def test_target_twin_search_yields_one_table_per_orbit():
    # one onto table per orbit of the target's twin swaps: the plain onto
    # tables in restricted-growth form, in plain order, each orbit of
    # _twin_swap_count members
    rng = random.Random(29)
    sources = list(poset_classes_upto(5))
    sources += [random_relabel(Y, rng) for Y in poset_classes_upto(5)
                if Y.n >= 3]
    targets = list(poset_classes_upto(4))
    targets += [random_relabel(P, rng) for P in targets if P.n >= 3]
    # two points below one: twins that are not maximal
    assert any(P.maximals_mask.bit_count() == 1 and P.n == 3
               and twin_classes_by_scan(P) for P in targets)
    plain_total = reps = 0
    for P in targets:
        classes = twin_classes_by_scan(P)
        swaps = _twin_swap_count(P)
        for Y in sources:
            plain = list(_iter_p_morphisms(Y, P, onto=True))
            got = list(_iter_p_morphisms(Y, P, onto=True,
                                         target_twins=True))
            assert got == [t for t in plain
                           if _first_hits_in_index_order(Y, t, classes)]
            assert len(got) * swaps == len(plain)
            plain_total, reps = plain_total + len(plain), reps + len(got)
    assert reps < plain_total
    empty = antichain(0)
    assert list(_iter_p_morphisms(empty, empty, onto=True,
                                  target_twins=True)) == [()]


def test_target_twin_search_refuses_twins_and_fibers():
    P = antichain(2)
    with pytest.raises(ValueError, match="target_twins and fibers"):
        list(_iter_p_morphisms(P, P, target_twins=True, fibers=[3, 3]))
    # refused before any early return: no map into the empty target
    with pytest.raises(ValueError, match="target_twins and fibers"):
        list(_iter_p_morphisms(P, antichain(0), target_twins=True,
                               fibers=[0, 0]))


def test_twin_swap_count():
    for n in range(6):
        assert _twin_swap_count(fan(n)) == factorial(n)
    assert _twin_swap_count(antichain(4)) == 24
    assert _twin_swap_count(chain(3)) == 1
    assert _twin_swap_count(build_quotient_model(1, 1).quotient) == 12


def test_fan_rank_names_exactly_the_fans():
    for P in poset_classes_upto(6):
        rank = _fan_rank(P)
        is_fan = P.n > 0 and P.isomorphic(fan(P.n - 1))
        assert rank == (P.n - 1 if is_fan else None)
    assert _fan_rank(fan(12)) == 12 and _fan_rank(antichain(13)) is None


def _small_fans() -> list:
    """fan(1) and fan(2) with fresh labels and their bottom at every
    index, as the benchmark relabels its inputs: 2 + 3 posets."""
    rng = random.Random(34)
    fans = list(dict.fromkeys(random_relabel(fan(k), rng)
                              for k in (1, 2) for _ in range(12)))
    assert len(fans) == 5
    return fans


def test_onto_count_onto_small_fans_is_closed_form(monkeypatch):
    # onto fan(1) and fan(2) no map is listed, whatever the labels and
    # the index of the bottom, and the count is that of the onto search
    targets = _small_fans()
    want = {(Y, P): len(list(_iter_p_morphisms(Y, P, onto=True)))
            for Y in poset_classes_upto(7) for P in targets}

    def refused(*args, **kwargs):
        raise AssertionError("onto maps listed")
    monkeypatch.setattr(algebras, "_iter_p_morphisms", refused)
    assert all(_onto_count(Y, P) == count for (Y, P), count in want.items())
    assert len(want) == 5 * len(poset_classes_upto(7))


def test_onto_count_onto_small_fans_matches_brute_force():
    rng = random.Random(35)
    sources = list(poset_classes_upto(5))
    sources += [random_relabel(Y, rng) for Y in sources if Y.n >= 2]
    for P in _small_fans():
        for Y in sources:
            assert _onto_count(Y, P) == len(all_p_morphisms_raw(Y, P,
                                                                onto=True))


def test_onto_count_searches_onto_every_other_target(monkeypatch):
    # one target_twins search per count, weighed by the swap count
    calls = []

    def recorded(source, target, **kwargs):
        calls.append((source, target, kwargs))
        return _iter_p_morphisms(source, target, **kwargs)
    monkeypatch.setattr(algebras, "_iter_p_morphisms", recorded)
    targets = [P for P in poset_classes_upto(4) if _fan_rank(P) not in (1, 2)]
    assert len(targets) == len(poset_classes_upto(4)) - 2
    for P in targets:
        for Y in poset_classes_upto(6):
            calls.clear()
            count = _onto_count(Y, P)
            assert calls == [(Y, P, {"onto": True, "target_twins": True})]
            assert count == len(list(_iter_p_morphisms(Y, P, onto=True)))


def test_p_morphism_failure_reports():
    p, q = fan(2), fan(2)
    f = OrderMap.from_labels(p, q, {"g": "g", "t1": "t1", "t2": "t1"})
    fail = p_morphism_failure(f)
    assert fail is not None and fail["reason"] == "max_set_mismatch"
    assert fail["point"] == "g"
    g = OrderMap.from_labels(p, q, {"g": "t1", "t1": "g", "t2": "t2"})
    assert p_morphism_failure(g)["reason"] == "not_order_preserving"
    assert is_p_morphism(OrderMap.identity(p))


def test_star_hom_counts():
    two = fan_algebra(0)
    B2, B3 = fan_algebra(2), fan_algebra(3)
    three = make_pcdl(fan(1))
    assert len(star_homs(two, two)) == 1
    assert len(star_homs(B3, two)) == 3
    assert len(star_homs(B2, B3)) == 8
    assert len(star_homs(B3, B3)) == 9
    assert len(star_embeddings(B2, B3)) == 6
    assert len(star_embeddings(three, B3)) == 1


def test_star_homs_stop_past_their_cap():
    # 4^6 homs fill the cap exactly; 4^7 are refused as the search counts
    A = make_pcdl(antichain(4))
    assert len(star_homs(A, make_pcdl(antichain(6)))) == MAX_STAR_HOMS
    with pytest.raises(ValueError, match="more than 4096 star homs from a "
                                         "16-element algebra into a "
                                         "128-element one"):
        star_homs(A, make_pcdl(antichain(7)))


def test_star_homs_stop_past_their_label_pair_cap(monkeypatch):
    # 4^2 homs of a 16-element algebra hold 256 label pairs: a cap of 256
    # lists them, one of 255 refuses them as the search counts
    A, B = make_pcdl(antichain(4)), make_pcdl(antichain(2))
    monkeypatch.setattr(algebras, "MAX_STAR_HOM_PAIRS", 256)
    assert len(star_homs(A, B)) == 16
    monkeypatch.setattr(algebras, "MAX_STAR_HOM_PAIRS", 255)
    with pytest.raises(ValueError, match="more than 255 label pairs in the "
                                         "star homs from a 16-element "
                                         "algebra into a 4-element one"):
        star_homs(A, B)
    # the hom cap is read first where both are passed
    monkeypatch.setattr(algebras, "MAX_STAR_HOMS", 15)
    with pytest.raises(ValueError, match="more than 15 star homs"):
        star_homs(A, B)


def test_star_hom_pairs_are_consistent():
    B2, B3 = fan_algebra(2), fan_algebra(3)
    for g, h in star_hom_pairs(B2, B3):
        assert h.table == hom_of_dual_map(g, B2, B3).table
        # star preservation, rechecked from the hom table alone
        for i in range(B2.size):
            assert h.table[B2.star(i)] == B3.star(h.table[i])


def test_hom_of_dual_map_rejects_wrong_posets():
    B2, B3 = fan_algebra(2), fan_algebra(3)
    bad = OrderMap.identity(B2.base)
    with pytest.raises(ValueError):
        hom_of_dual_map(bad, B2, B3)


def test_hom_of_dual_map_rejects_a_map_that_is_not_a_p_morphism():
    # collapsing t2 onto t1 keeps the order but shrinks the maximal set of g
    B2 = fan_algebra(2)
    g = OrderMap.from_labels(B2.base, B2.base,
                             {"g": "g", "t1": "t1", "t2": "t1"})
    with pytest.raises(ValueError, match="not a p-morphism"):
        hom_of_dual_map(g, B2, B2)


def test_transport_certificate_matches_star_hom_scan():
    # the preimage hom of an order-preserving g keeps the star, by a scan
    # of every pair of elements, exactly when g is a p-morphism
    classes = poset_classes_upto(3)
    agreed = 0
    for S in classes:
        B = make_pcdl(S)
        for T in classes:
            A = make_pcdl(T)
            for table in order_preserving_maps_raw(S, T):
                g = OrderMap(S, T, table)
                hom = tuple(B.index_of_mask(g.preimage_mask(u))
                            for u in A.carrier)
                scan = is_star_hom_raw(A, B, hom)
                assert scan == (p_morphism_failure(g) is None) \
                    == is_p_morphism_raw(S, T, table), (S, T, table)
                if scan:
                    assert hom_of_dual_map(g, A, B).table == hom
                else:
                    with pytest.raises(ValueError, match="not a p-morphism"):
                        hom_of_dual_map(g, A, B)
                agreed += 1
    assert agreed == 485


def test_unique_embedding_of_three_chain():
    three = make_pcdl(fan(1))
    B3 = fan_algebra(3)
    g, h = star_hom_pairs(B3, three)[0]
    # only one onto p-morphism from the fan to the 2-chain exists
    onto = [f for f in p_morphisms(B3.base, three.base, onto=True)]
    assert len(onto) == 1
    f = onto[0]
    assert f(f.source.index_of("g")) == three.base.index_of("g")


def test_variety_index():
    # the index is the largest maximal cover set in the dual, so the
    # two-element algebra (one dual point) sits at index 1 and only the
    # trivial algebra at 0
    for n in range(1, 6):
        assert variety_index(fan_algebra(n)) == n
    assert variety_index(fan_algebra(0)) == 1
    assert variety_index(make_pcdl(antichain(0))) == 0
    assert variety_index(make_pcdl(antichain(3))) == 1
    mixed = disjoint_sum([fan(3), fan(1)]).poset
    assert variety_index(make_pcdl(mixed)) == 3
    assert in_variety(fan_algebra(2), 2)
    assert in_variety(fan_algebra(2), 5)
    assert not in_variety(fan_algebra(4), 3)


def test_embedding_witness():
    B3 = fan_algebra(3)
    w = embedding_p_morphism_witness(B3, 3)
    assert w is not None and w.is_order_embedding() and is_p_morphism(w)
    assert embedding_p_morphism_witness(B3, 2) is None
    # rank 1 needs a non-maximal point below a single maximal
    assert embedding_p_morphism_witness(make_pcdl(chain(2)), 1) is not None
    assert embedding_p_morphism_witness(make_pcdl(antichain(2)), 1) is None
    assert embedding_p_morphism_witness(make_pcdl(antichain(2)), 0) \
        is not None
    assert embedding_p_morphism_witness(make_pcdl(antichain(0)), 0) is None


def test_fan_algebras_embed_in_bigger_fans():
    for n in range(5):
        for i in range(n + 1):
            assert len(star_embeddings(fan_algebra(i), fan_algebra(n))) >= 1


def test_onto_star_hom_exists_matches_hom_search():
    for P in poset_classes_upto(4):
        A = make_pcdl(P)
        for i in range(4):
            slow = any(h.is_onto() for h in star_homs(A, fan_algebra(i)))
            assert onto_star_hom_exists(A, i) == slow, (P.to_dict(), i)
