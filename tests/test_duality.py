import itertools
import random
import time
from collections import Counter
from operator import and_

import pytest

from pcdl import (AbstractLattice, LatticeHom, OrderMap, antichain, chain,
                  disjoint_sum, dual_congruence, dual_lattice,
                  dual_of_lattice_hom, dual_of_order_map, dual_space, fan,
                  poset_classes_upto, product_lattice, quotient, unit_iso)
from pcdl.duality import _join_irreducibles, _order_masks

from _oracles import (certify_lattice_tables, chain_tables,
                      cube_plus_one_tables, cube_tables, diamond_tables,
                      join_irreducibles_by_covers, ordinal_sum_tables,
                      product_tables, random_poset)


def test_dual_lattice_sizes():
    assert dual_lattice(fan(2)).size == 5
    for n in range(6):
        assert dual_lattice(fan(n)).size == (1 << n) + 1
    assert dual_lattice(chain(3)).size == 4
    assert dual_lattice(antichain(3)).size == 8
    assert dual_lattice(antichain(0)).size == 1


def test_up_set_lattice_operations():
    lat = dual_lattice(fan(2))
    bot, top = lat.bottom, lat.top
    assert lat.join(bot, top) == top and lat.meet(bot, top) == bot
    i1 = lat.index_of_mask(lat.base.mask_of(["t1"]))
    i2 = lat.index_of_mask(lat.base.mask_of(["t2"]))
    assert lat.carrier[lat.join(i1, i2)] == lat.base.mask_of(["t1", "t2"])
    assert lat.meet(i1, i2) == bot
    assert lat.leq(bot, i1) and not lat.leq(i1, i2)
    with pytest.raises(ValueError, match="up-set"):
        lat.index_of_mask(lat.base.mask_of(["g"]))


def test_abstract_lattice_validation():
    labels, joins, meets = cube_plus_one_tables(2)
    lat = AbstractLattice(labels, joins, meets)
    assert lat.unit.is_one_to_one() and lat.unit.is_onto()
    assert lat.size == 5
    bad = [row[:] for row in joins]
    bad[0][1] = 0
    with pytest.raises(ValueError, match="commut|absor|assoc|idempot"):
        AbstractLattice(labels, bad, meets)
    # the unit map reads only pairs i <= j, so a break in the other half
    # passes it and the commutativity check must reject it
    bad = [row[:] for row in joins]
    bad[4][0] = 3
    with pytest.raises(ValueError, match="commut"):
        AbstractLattice(labels, bad, meets)
    with pytest.raises(ValueError, match="at least one"):
        AbstractLattice([], [], [])


def test_non_distributive_lattice_is_rejected():
    with pytest.raises(ValueError, match="distribut"):
        AbstractLattice(*diamond_tables())
    # M3 x 2^5 has 160 elements; the certificate has no size cap
    labels, joins, meets = product_tables(diamond_tables(), cube_tables(5))
    assert len(labels) == 160
    with pytest.raises(ValueError, match="distribut"):
        AbstractLattice(labels, joins, meets)


def test_wide_diamond_is_rejected_before_up_sets_are_listed():
    # M_40's atoms form an antichain with 2^40 up-sets; the certificate
    # must reject the tables without enumerating them
    start = time.perf_counter()
    with pytest.raises(ValueError, match="distribut"):
        AbstractLattice(*diamond_tables(40))
    assert time.perf_counter() - start < 2.0


def test_dual_space_of_cube_plus_one_is_fan():
    for n in range(6):
        lat = AbstractLattice(*cube_plus_one_tables(n))
        assert dual_space(lat).isomorphic(fan(n))


def test_round_trip_poset_to_poset():
    rng = random.Random(23)
    posets = list(poset_classes_upto(4))
    posets += [random_poset(5, rng) for _ in range(5)]
    for p in posets:
        lat = dual_lattice(p)
        assert dual_space(lat).isomorphic(p)


def test_round_trip_lattice_to_lattice():
    for n in range(4):
        lat = AbstractLattice(*cube_plus_one_tables(n))
        eta = unit_iso(lat)
        assert eta.is_homomorphism()
        assert eta.is_one_to_one() and eta.is_onto()
        assert eta.target.size == lat.size


def test_dual_of_order_map_is_preimage():
    p, q = fan(2), fan(1)
    f = OrderMap.from_labels(p, q, {"g": "g", "t1": "t1", "t2": "t1"})
    h = dual_of_order_map(f)
    assert h.source.base == q and h.target.base == p
    for i, u in enumerate(h.source.carrier):
        assert h.target.carrier[h.table[i]] == f.preimage_mask(u)
    assert h.is_homomorphism()
    # f onto so its dual is one-to-one; f not an embedding so not onto
    assert h.is_one_to_one() and not h.is_onto()


def test_dual_of_order_map_rejects_non_monotone():
    p, q = chain(2), chain(2)
    f = OrderMap.from_labels(p, q, {"c0": "c1", "c1": "c0"})
    with pytest.raises(ValueError, match="order-preserving"):
        dual_of_order_map(f)


def test_dual_dictionary_exhaustive_small():
    classes = list(poset_classes_upto(3))
    for p in classes:
        for q in classes:
            if p.n == 0 and q.n > 0:
                continue
            for table in itertools.product(range(max(q.n, 1)),
                                           repeat=p.n):
                if q.n == 0 and p.n > 0:
                    break
                f = OrderMap(p, q, tuple(table)) if p.n else \
                    OrderMap(p, q, ())
                if not f.is_order_preserving():
                    continue
                h = dual_of_order_map(f)
                assert h.is_onto() == f.is_order_embedding()
                assert h.is_one_to_one() == f.is_onto()


def test_dual_of_lattice_hom_round_trip():
    # the double dual lives on principal up-sets; translate through the
    # natural correspondence x -> up-closure(x) and recover the original
    p, q = fan(2), fan(1)
    f = OrderMap.from_labels(p, q, {"g": "g", "t1": "t1", "t2": "t1"})
    h = dual_of_order_map(f)
    g = dual_of_lattice_hom(h)
    assert g.source.isomorphic(p) and g.target.isomorphic(q)

    def natural(poset, double):
        idx = {}
        for x in range(poset.n):
            hits = [k for k, lab in enumerate(double.labels)
                    if set(lab.strip("{}").split(","))
                    == set(poset.labels_of(poset.up[x]))]
            assert len(hits) == 1
            idx[x] = hits[0]
        return idx

    n_p = natural(p, g.source)
    n_q = natural(q, g.target)
    for x in range(p.n):
        assert g(n_p[x]) == n_q[f(x)]


def test_lattice_hom_validation():
    lat = dual_lattice(chain(2))
    ident = LatticeHom(lat, lat, tuple(range(lat.size)))
    assert ident.is_homomorphism()
    swapped = LatticeHom(lat, lat, (lat.top, 1, lat.bottom))
    assert not swapped.is_homomorphism()
    collapse = LatticeHom(lat, lat, (0, 0, 0))
    assert not collapse.is_homomorphism()  # drops the top


def test_product_lattice():
    a = AbstractLattice(*cube_plus_one_tables(1))
    prod = product_lattice(a, a)
    assert prod.size == 9
    assert dual_space(prod).isomorphic(disjoint_sum([fan(1), fan(1)]).poset)


def test_lattice_dict_round_trip():
    lat = AbstractLattice(*cube_plus_one_tables(2))
    again = AbstractLattice.from_dict(lat.to_dict())
    assert again.labels == lat.labels
    assert again.joins == lat.joins and again.meets == lat.meets


def _outcome(certify, tables):
    try:
        return "accepted", certify(*tables)
    except ValueError as e:
        return "rejected", str(e)


def _unit_masks(labels, joins, meets):
    lat = AbstractLattice(labels, joins, meets)
    return [lat.algebra.carrier[k] for k in lat.unit_table]


def _corruptions(labels, joins, meets):
    """Each table with one entry, or one symmetric pair of entries, changed.

    An entry takes every other element and a few bad values; a symmetric
    pair keeps commutativity, so the laws pass and the unit must reject.
    """
    n = len(labels)
    bad = [-1, -n, -n - 1, n, 2 * n, 1.0, "x", True, None]
    for which in (0, 1):
        for i in range(n):
            for j in range(n):
                for v in list(range(n)) + bad:
                    if type(v) is int and v == (joins, meets)[which][i][j]:
                        continue
                    tabs = [[list(r) for r in joins], [list(r) for r in meets]]
                    tabs[which][i][j] = v
                    yield labels, *tabs
                    if i < j and type(v) is int and 0 <= v < n:
                        tabs[which][j][i] = v
                        yield labels, *tabs


@pytest.mark.parametrize("tables", [
    cube_plus_one_tables(2), diamond_tables(),
    product_tables(cube_plus_one_tables(1), cube_tables(1)),
    ordinal_sum_tables(cube_tables(2), chain_tables(7))],
    ids=["cube2+1", "diamond", "chain3x2", "cube2+chain7"])
def test_certificate_matches_the_pair_scan(tables):
    messages = Counter()
    for corrupted in [tables, *_corruptions(*tables)]:
        want = _outcome(certify_lattice_tables, corrupted)
        assert _outcome(_unit_masks, corrupted) == want, corrupted
        if want[0] == "rejected":
            messages[want[1].split(" at ")[0].split(";")[0]] += 1
    # the laws and the unit each reject some of them
    assert {"idempotence fails", "join is not commutative",
            "meet is not commutative", "absorption fails"} < set(messages)
    assert any(m.startswith("unit map") for m in messages), messages


def test_certificate_reads_three_byte_cells():
    # 17 join-irreducibles: each unit mask fills a cell of three bytes
    tables = ordinal_sum_tables(cube_tables(2), chain_tables(15))
    lat = AbstractLattice(*tables)
    assert lat.algebra.base.n == 17
    assert _unit_masks(*tables) == certify_lattice_tables(*tables)
    # the two atoms of the square joined to the first point above it: the
    # laws still hold, so the unit map rejects the tables
    labels, joins, meets = tables
    joins = [list(r) for r in joins]
    joins[1][2] = joins[2][1] = 4
    want = _outcome(certify_lattice_tables, (labels, joins, meets))
    assert want == ("rejected", "unit map is not a homomorphism; "
                                "input is not distributive")
    assert _outcome(_unit_masks, (labels, joins, meets)) == want


def test_certificate_refuses_a_negative_entry_that_wraps_to_a_cell():
    # -1 stands where the top n - 1 belongs: read as an index, it is the
    # top's own cell, so only a check for negatives can refuse it
    labels, joins, meets = cube_plus_one_tables(2)
    n = len(labels)
    assert joins[0][n - 1] == n - 1
    joins = [list(r) for r in joins]
    joins[0][n - 1] = -1
    with pytest.raises(ValueError) as e:
        AbstractLattice(labels, joins, meets)
    assert str(e.value) == "joins table entry -1 out of range"


def test_join_irreducibles_match_the_cover_scan():
    rng = random.Random(5)
    posets = list(poset_classes_upto(4))
    posets += [random_poset(n, rng) for n in (5, 6, 7) for _ in range(3)]
    lattices = [dual_lattice(p) for p in posets]
    lattices += [AbstractLattice(*cube_plus_one_tables(n)) for n in range(4)]
    lattices += [AbstractLattice(*cube_tables(n)) for n in range(4)]
    lattices += [AbstractLattice(*product_tables(cube_plus_one_tables(1),
                                                 cube_plus_one_tables(2)))]
    lattices += [AbstractLattice(*ordinal_sum_tables(cube_tables(2),
                                                     chain_tables(k)))
                 for k in (7, 15)]
    A = dual_lattice(fan(3))
    lattices.append(quotient(A, dual_congruence(A.base, ["g", "t1"])).algebra)
    for lat in lattices:
        assert _join_irreducibles(_order_masks(lat, and_)) \
            == join_irreducibles_by_covers(lat.size, lat.leq), lat
