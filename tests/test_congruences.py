import random
import time

import pytest

from pcdl import (DualCongruence, OrderMap, PullbackError, amalgamation,
                  antichain, bits, chain, congruence_relates, disjoint_sum,
                  dual_congruence, enumerate_congruences, fan, fan_algebra,
                  is_congruence_extensile_bounded, is_congruence_mask,
                  is_essential_extension, is_subdirectly_irreducible,
                  make_pcdl, ordinal_sum, p_morphisms, poset_classes_upto,
                  product_lattice, pcdl_from_abstract, pullback_congruence,
                  quotient, restrict_congruence, star_embeddings,
                  validate_star_embedding, variety_index)
from pcdl.algebras import _iter_p_morphisms

from _oracles import (congruence_masks_scan, congruences_algebra_side,
                      extensile_per_pair, is_star_hom_raw, kernel_is_erasure,
                      random_poset, restriction_matches)


def _algebra_side_count(A):
    joins = [[A.join(i, j) for j in range(A.size)] for i in range(A.size)]
    meets = [[A.meet(i, j) for j in range(A.size)] for i in range(A.size)]
    return congruences_algebra_side(A.size, joins, meets,
                                    list(A.star_table))


def test_congruence_counts_frozen():
    assert len(enumerate_congruences(chain(2))) == 3
    assert len(enumerate_congruences(fan(2))) == 5
    assert len(enumerate_congruences(fan(3))) == 9
    assert len(enumerate_congruences(antichain(0))) == 1


def test_congruence_counts_match_algebra_side():
    for P in poset_classes_upto(4):
        A = make_pcdl(P)
        assert len(enumerate_congruences(P)) == _algebra_side_count(A), \
            P.to_dict()


def test_enumerate_matches_the_subset_scan():
    rng = random.Random(12)
    posets = [random_poset(n, rng) for n in (7, 8, 9) for _ in range(6)]
    posets += [antichain(9), chain(9), fan(8), antichain(0)]
    for P in posets:
        assert [t.mask for t in enumerate_congruences(P)] \
            == congruence_masks_scan(P)


def test_enumerate_bound():
    with pytest.raises(ValueError, match="more than 4096 congruences"):
        enumerate_congruences(antichain(13))


def test_enumerate_cap_counts_congruences_before_listing():
    # 4,097 congruences each; antichain(40) has 2^40, refused from its
    # first 4,097 closures before any mask is listed
    for P in (fan(12), chain(13), antichain(40)):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="more than 4096 congruences"):
            enumerate_congruences(P)
        assert time.perf_counter() - start < 1.0
    # past 12 points, but with at most 2^12 congruences: listed
    for P, count in ((ordinal_sum(antichain(11), antichain(2)), 2051),
                     (ordinal_sum(antichain(10), antichain(4)), 1039),
                     (antichain(12), 4096)):
        want = congruence_masks_scan(P)
        assert len(want) == count
        assert [t.mask for t in enumerate_congruences(P)] == want


def test_congruence_mask_condition():
    p = fan(2)
    assert is_congruence_mask(p, p.mask_of(["g"]))
    assert not is_congruence_mask(p, p.mask_of(["t1"]))
    assert is_congruence_mask(p, p.mask_of(["g", "t1"]))
    with pytest.raises(ValueError, match="down-closure"):
        dual_congruence(p, ["t1"])


def test_congruence_relates():
    p = fan(2)
    theta = dual_congruence(p, ["g", "t1"])
    u1 = p.mask_of(["t1", "t2"])
    u2 = p.mask_of(["t2"])
    assert congruence_relates(theta, u1, u2)
    assert not congruence_relates(theta, u1, 0)
    with pytest.raises(ValueError, match="up-set"):
        congruence_relates(theta, p.mask_of(["g"]), 0)


def test_quotient_shapes_and_projection():
    A = fan_algebra(3)
    for theta in enumerate_congruences(A.base):
        q = quotient(A, theta)
        keep = A.base.full_mask & ~theta.mask
        assert q.algebra.base.n == keep.bit_count()
        assert q.projection.is_onto()
        # kernel equals the congruence
        for i in range(A.size):
            for j in range(A.size):
                same = q.projection.table[i] == q.projection.table[j]
                assert same == theta.relates_masks(A.carrier[i],
                                                   A.carrier[j])
    with pytest.raises(ValueError, match="different poset"):
        quotient(A, dual_congruence(fan(2), ["g"]))


def test_quotient_certificate_matches_element_scan():
    # the projection onto the surviving points is an onto star hom whose
    # kernel is the erasure, by a scan of every pair of elements, exactly
    # when the erased mask is a congruence mask; the table is built here
    # because quotient refuses the other masks
    agreed = 0
    for P in poset_classes_upto(5):
        A = make_pcdl(P)
        for mask in range(1 << P.n):
            keep = P.full_mask & ~mask
            pos = {old: new for new, old in enumerate(bits(keep))}
            Q = make_pcdl(P.restrict(keep))
            table = tuple(Q.index_of_mask(sum(1 << pos[p]
                                              for p in bits(u & keep)))
                          for u in A.carrier)
            scan = is_star_hom_raw(A, Q, table, onto=True) and \
                kernel_is_erasure(A.carrier, table, mask)
            assert scan == is_congruence_mask(P, mask), (P, mask)
            raw = DualCongruence(P, mask)
            if scan:
                assert quotient(A, raw).projection.table == table
            else:
                with pytest.raises(ValueError, match="down-closure"):
                    quotient(A, raw)
            agreed += 1
    assert agreed == 2323


def test_quotient_refuses_a_raw_non_congruence_at_every_size():
    # 3072 up-sets: erasing the chain's top but not its bottom breaks the
    # down-closure condition
    P = disjoint_sum([antichain(10), chain(2)]).poset
    A = make_pcdl(P)
    assert A.size > 1024
    top = P.maximals_mask & ~P.minimals_mask
    with pytest.raises(ValueError, match="down-closure"):
        quotient(A, DualCongruence(P, top))


def test_quotient_of_trivial_congruence_is_identity_shaped():
    A = fan_algebra(2)
    q = quotient(A, dual_congruence(A.base, []))
    assert q.algebra.size == A.size
    assert q.projection.is_one_to_one()


def test_restrict_and_essential_frozen_values():
    two = fan_algebra(0)
    three = make_pcdl(fan(1))
    B2, B3 = fan_algebra(2), fan_algebra(3)

    e = star_embeddings(two, three)[0]
    assert not is_essential_extension(e)

    for emb in star_embeddings(B2, B3):
        assert is_essential_extension(emb)

    prod = product_lattice(B3, two)
    PA, _ = pcdl_from_abstract(prod)
    for emb in star_embeddings(B3, PA):
        assert not is_essential_extension(emb)


def test_essential_means_no_nonempty_congruence_restricts_trivially():
    # is_essential_extension reads triviality off the images itself
    algebras = [make_pcdl(P) for P in poset_classes_upto(4) if P.n]
    embeddings = [e for A in algebras for B in algebras
                  for e in star_embeddings(A, B)]
    essential = 0
    for e in embeddings:
        want = not any(restrict_congruence(theta, e).is_trivial
                       for theta in enumerate_congruences(e.target.base)
                       if theta.mask)
        assert is_essential_extension(e) == want
        essential += want
    assert (len(embeddings), essential) == (369, 142)


def test_restrict_congruence_details():
    three = make_pcdl(fan(1))
    two = fan_algebra(0)
    e = star_embeddings(two, three)[0]
    base = three.base
    trivial = restrict_congruence(dual_congruence(base, []), e)
    assert trivial.is_trivial and not trivial.is_full
    full = restrict_congruence(dual_congruence(base, base.full_mask), e)
    assert full.is_full
    erased_bottom = dual_congruence(base, ["g"])
    r = restrict_congruence(erased_bottom, e)
    assert r.is_trivial


def test_validate_star_embedding_rejects_non_star():
    # a lattice embedding of the 3-chain into the square that breaks star
    sq = make_pcdl(antichain(2))
    three = make_pcdl(fan(1))
    from pcdl import LatticeHom
    x0 = sq.index_of_mask(sq.base.mask_of(["x0"]))
    emb = LatticeHom(three, sq,
                     (sq.bottom, x0, sq.top))
    assert emb.is_homomorphism() and emb.is_one_to_one()
    with pytest.raises(ValueError, match="star"):
        validate_star_embedding(emb)


def test_pullback_congruence():
    total = disjoint_sum([fan(3), fan(3)]).poset
    quot = fan(3)
    table = tuple(quot.index_of(lab.split(".")[0]) for lab in total.labels)
    g = OrderMap(total, quot, table)
    theta = dual_congruence(quot, ["g"])
    psi = pullback_congruence(g, theta)
    assert psi.mask == g.preimage_mask(theta.mask)
    assert is_congruence_mask(total, psi.mask)

    not_onto = OrderMap.identity(fan(2))
    with pytest.raises(ValueError, match="different poset"):
        pullback_congruence(not_onto, theta)
    f = OrderMap.from_labels(fan(2), fan(2),
                             {"g": "g", "t1": "t1", "t2": "t1"})
    with pytest.raises(ValueError, match="onto|p-morphism"):
        pullback_congruence(f, dual_congruence(fan(2), ["g"]))


def test_extensile_certificate_matches_restriction_scan():
    # every (gamma, theta) pair the search counts has a pullback that is
    # a congruence mask and passes the pairwise restriction scan
    total = 0
    for P in poset_classes_upto(3):
        B = make_pcdl(P)
        thetas = enumerate_congruences(P)
        instances = 0
        for Y in amalgamation._extension_classes(P, 3, P.n + 2):
            for gamma in p_morphisms(Y, P):
                pres = [gamma.preimage_mask(u) for u in B.carrier]
                if not gamma.is_onto():
                    # onto is needed too: a missed point p leaves up(p)
                    # and up(p) minus p with one preimage
                    assert not restriction_matches(pres, Y.full_mask,
                                                   B.carrier, P.full_mask)
                    continue
                for theta in thetas:
                    instances += 1
                    psi = gamma.preimage_mask(theta.mask)
                    assert is_congruence_mask(Y, psi)
                    assert restriction_matches(pres, Y.full_mask & ~psi,
                                               B.carrier,
                                               P.full_mask & ~theta.mask)
        assert is_congruence_extensile_bounded(B, 3, P.n + 2).instances \
            == instances
        total += instances
    assert total == 7771


def test_pullback_error_type_is_value_error():
    assert issubclass(PullbackError, ValueError)


def _per_pair(P, n, bound):
    classes = amalgamation._extension_classes(P, n, bound)
    return extensile_per_pair(
        P, classes, lambda Y: _iter_p_morphisms(Y, P, onto=True))


def test_extensile_count_matches_per_pair_oracle():
    # the library counts onto maps; the oracle checks every pullback
    cases = total = 0
    for P in poset_classes_upto(4):
        for n in (1, 2, 3):
            if variety_index(P) > n:
                continue
            r = is_congruence_extensile_bounded(P, n, P.n + 2)
            assert (r.verdict, r.instances) == _per_pair(P, n, P.n + 2)
            cases += 1
            total += r.instances
    assert (cases, total) == (67, 710979)


def test_extensile_reads_one_gamma_per_target_orbit(monkeypatch):
    # the benchmark's three inputs at n = 3, bound 7: fan(2) and the
    # 2-chain, fan(1), are counted in closed form, and each gamma read
    # onto fan(3) stands for its orbit of 3! maps
    from pcdl import algebras
    search = algebras._iter_p_morphisms
    read = []

    def counted(source, target, **kwargs):
        for table in search(source, target, **kwargs):
            read.append((target, kwargs.get("target_twins", False)))
            yield table
    monkeypatch.setattr(algebras, "_iter_p_morphisms", counted)
    got = [is_congruence_extensile_bounded(P, 3, 7).instances
           for P in (fan(2), chain(2), fan(3))]
    assert got == [39190, 72186, 18954]
    assert len(read) == 351 and set(read) == {(fan(3), True)}


def test_extensile_frozen_results():
    r = is_congruence_extensile_bounded(fan_algebra(2), 3, 5)
    assert r.verdict == "yes" and r.instances == 710

    r = is_congruence_extensile_bounded(make_pcdl(chain(2)), 2, 5)
    assert r.verdict == "yes" and r.instances == 978

    with pytest.raises(ValueError, match="variety"):
        is_congruence_extensile_bounded(fan_algebra(3), 2, 4)


def test_subdirectly_irreducible_spot_checks():
    for n in range(5):
        assert is_subdirectly_irreducible(fan_algebra(n))
    assert not is_subdirectly_irreducible(make_pcdl(antichain(2)))
    assert not is_subdirectly_irreducible(make_pcdl(antichain(0)))
    two_fans = disjoint_sum([fan(2), fan(1)]).poset
    assert not is_subdirectly_irreducible(make_pcdl(two_fans))
    assert not is_subdirectly_irreducible(make_pcdl(chain(3)))
    # the test is O(n) in the dual, so it answers at every size
    assert not is_subdirectly_irreducible(make_pcdl(antichain(13)))
    assert is_subdirectly_irreducible(make_pcdl(fan(12)))


def test_essential_extension_of_si_is_si():
    # spot check: essential extensions of fans stay subdirectly irreducible
    B2, B3 = fan_algebra(2), fan_algebra(3)
    for emb in star_embeddings(B2, B3):
        if is_essential_extension(emb):
            assert is_subdirectly_irreducible(B3)
