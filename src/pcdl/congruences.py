"""Congruences of finite PCDLs in dual form.

A congruence is represented by the subset of dual points it erases: a set
T is admissible when the down-closure of its maximal members stays inside
T, and two up-sets are related exactly when they agree off T. Quotients
restrict the dual poset to the surviving points, and congruences pull back
along onto p-morphisms by taking preimages.
"""

from __future__ import annotations

from typing import NamedTuple

from .algebras import (_dual, _fan_rank, _onto_count, in_variety, make_pcdl,
                       p_morphism_failure, star_embedding_failure)
from .amalgamation import (ExtensionResult, _extension_classes,
                           _require_room)
from .duality import LatticeHom, UpSetLattice
from .posets import OrderMap, Poset, bits

MAX_CONGRUENCES = 4096  # 2^12: every dual of at most 12 points fits


class DualCongruence(NamedTuple):
    base: Poset
    mask: int

    def labels(self) -> tuple:
        return self.base.labels_of(self.mask)

    def relates_masks(self, u1: int, u2: int) -> bool:
        return u1 & ~self.mask == u2 & ~self.mask


def is_congruence_mask(poset: Poset, mask: int) -> bool:
    """Down-closures of erased maximal points must be erased too."""
    return not poset.down_closure(mask & poset.maximals_mask) & ~mask


def dual_congruence(poset: Poset, elems) -> DualCongruence:
    mask = elems if isinstance(elems, int) else poset.mask_of(elems)
    if not is_congruence_mask(poset, mask):
        raise ValueError("%s does not satisfy the down-closure condition"
                         % (poset.labels_of(mask),))
    return DualCongruence(poset, mask)


def enumerate_congruences(poset: Poset) -> list:
    """All dual congruences, sorted by size then mask.

    Each mask is built once, as down(S) | R: S is a set of maximal points
    and R any set of non-maximal points outside down(S). A congruence
    mask T is down(S) | R for exactly one such pair, S = T & M and R = T
    minus down(S): down(S) meets M in S, as nothing lies above a maximal
    point, and the condition puts down(S) inside T. Conversely every such
    union holds the down-set of each maximal point in it. So the count,
    the sum of 2^|non-maximal points outside d| over the closures d, is
    known before any mask is listed: past MAX_CONGRUENCES, ValueError.
    """
    closures = [0]  # down(S) for every set S of maximal points
    for m in bits(poset.maximals_mask):
        down_m = poset.down[m]
        closures += [d | down_m for d in closures]
        if len(closures) > MAX_CONGRUENCES:  # distinct, one mask each
            break
    non_max = poset.full_mask & ~poset.maximals_mask
    if sum(1 << (non_max & ~d).bit_count()
           for d in closures) > MAX_CONGRUENCES:
        raise ValueError("%d-point poset has more than %d congruences"
                         % (poset.n, MAX_CONGRUENCES))
    masks = []
    for d in closures:
        free = non_max & ~d
        r = free
        while True:  # every submask r of free, from free down to 0
            masks.append(d | r)
            if not r:
                break
            r = (r - 1) & free
    masks.sort(key=lambda m: (m.bit_count(), m))
    return [DualCongruence(poset, m) for m in masks]


def congruence_relates(theta: DualCongruence, u1: int, u2: int) -> bool:
    """Whether two up-sets of the base agree off the erased set."""
    for u in (u1, u2):
        if not theta.base.is_up_set(u):
            raise ValueError("%s is not an up-set"
                             % (theta.base.labels_of(u),))
    return theta.relates_masks(u1, u2)


class Quotient(NamedTuple):
    algebra: UpSetLattice
    projection: LatticeHom


def quotient(A: UpSetLattice, theta: DualCongruence) -> Quotient:
    """A modulo theta, with its canonical projection.

    The quotient's dual is the restriction of the dual poset to the
    surviving points, and the projection sends each up-set to its
    surviving part, so its kernel is theta by construction. It is dual
    to the inclusion of the surviving points, which is a p-morphism
    exactly when theta's mask satisfies the down-closure condition; that
    mask check is the projection's certificate, at every size, and a raw
    DualCongruence that fails it raises ValueError.
    """
    if theta.base != A.base:
        raise ValueError("congruence lives on a different poset")
    theta = dual_congruence(A.base, theta.mask)
    keep = A.base.full_mask & ~theta.mask
    kept = list(bits(keep))
    pos = {old: new for new, old in enumerate(kept)}
    sub = A.base.restrict(keep)
    Q = make_pcdl(sub)
    table = []
    for u in A.carrier:
        m = 0
        for old in bits(u & keep):
            m |= 1 << pos[old]
        table.append(Q.index_of_mask(m))
    return Quotient(Q, LatticeHom(A, Q, tuple(table)))


def validate_star_embedding(emb: LatticeHom):
    """Raise unless emb is a one-to-one star hom between up-set lattices."""
    if not isinstance(emb.source, UpSetLattice) or \
            not isinstance(emb.target, UpSetLattice):
        raise ValueError("embedding must run between up-set lattices")
    failure = star_embedding_failure(emb)
    if failure is not None:
        raise ValueError("embedding %s" % failure)


class RestrictedCongruence(NamedTuple):
    pairs: tuple
    is_trivial: bool
    is_full: bool


def restrict_congruence(theta: DualCongruence,
                        emb: LatticeHom) -> RestrictedCongruence:
    """Pull a congruence of the big algebra back along a star embedding.

    pairs lists the nontrivially related index pairs (i < j) of the
    embedded algebra; is_trivial flags the diagonal restriction.
    """
    validate_star_embedding(emb)
    if theta.base != emb.target.base:
        raise ValueError("congruence lives on a different poset")
    keep = theta.base.full_mask & ~theta.mask
    n = emb.source.size
    images = [emb.target.carrier[emb.table[i]] & keep for i in range(n)]
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            if images[i] == images[j]:
                pairs.append((i, j))
    return RestrictedCongruence(tuple(pairs), not pairs,
                                len(pairs) == n * (n - 1) // 2)


def is_essential_extension(emb: LatticeHom) -> bool:
    """Whether every nontrivial congruence of the target stays nontrivial."""
    validate_star_embedding(emb)
    # a restriction is trivial when the images stay distinct off the mask
    images = [emb.target.carrier[t] for t in emb.table]
    return all(len({u & ~t.mask for u in images}) < len(images)
               for t in enumerate_congruences(emb.target.base) if t.mask)


class PullbackError(ValueError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


def pullback_congruence(h: OrderMap, theta: DualCongruence) -> DualCongruence:
    """Preimage of a congruence along an onto p-morphism.

    h is certified onto and a p-morphism, and the down-closure condition
    of the preimage is checked. The transfer law (preimages of up-sets
    are related exactly when the originals are) needs no scan: preimage
    commutes with set difference, and along an onto map it is injective,
    so the preimages of u1 and u2 agree off the preimage of theta exactly
    when u1 and u2 agree off theta, for every pair of up-sets.
    """
    if theta.base != h.target:
        raise ValueError("congruence lives on a different poset")
    if not h.is_onto():
        raise ValueError("map is not onto")
    failure = p_morphism_failure(h)
    if failure is not None:
        raise ValueError("map is not a p-morphism: %r" % (failure,))
    psi_mask = h.preimage_mask(theta.mask)
    if not is_congruence_mask(h.source, psi_mask):
        bad = h.source.down_closure(psi_mask & h.source.maximals_mask) \
            & ~psi_mask
        raise PullbackError("preimage breaks the down-closure condition",
                            witness=h.source.labels_of(bad))
    return DualCongruence(h.source, psi_mask)


def is_congruence_extensile_bounded(B, n: int, bound: int) -> ExtensionResult:
    """Check that every congruence of B extends to every bounded extension.

    B is an algebra or its dual poset. Extensions are the duals Y of at
    most bound points inside the variety of index n with an onto
    p-morphism gamma to P = P(B), and each (gamma, congruence of P) pair
    is one instance. The verdict is always yes, with instances counting
    every pair in the bounded search space. A bound below the size of P
    is refused, as it would answer yes vacuously.

    No pair is checked, as none can fail: these varieties have the
    congruence extension property (Gratzer and Lakser 1971). Let T be a
    congruence mask of P and m maximal in Y with gamma(m) in T. gamma
    carries M(m) = {m} onto M(gamma(m)), so gamma(m) is maximal in P, and
    every y <= m maps into the down-closure of T's maximal points, inside
    T. So the preimage of T is a congruence mask, and it restricts to T
    (pullback_congruence). The per-pair check runs as a reference oracle
    in the test suite.

    So instances is |Con P| times the number of onto p-morphisms from
    the extension classes, and each class's number is counted, not
    listed (_onto_count, which holds the proofs): onto fan(1) it is the
    number of down-sets of Y's non-maximal points less one, onto fan(2)
    it is 2^|Max Y| - 2^(components of Y), and onto any other P the
    gammas are read one per orbit of P's twin swaps and each counts
    _twin_swap_count(P) times.
    """
    if not in_variety(B, n):
        raise ValueError("algebra is outside the variety of index %d" % n)
    P = _dual(B)
    _require_room(P, bound)
    maps = sum(_onto_count(Y, P) for Y in _extension_classes(P, n, bound))
    return ExtensionResult("yes", None,
                           len(enumerate_congruences(P)) * maps, bound)


def is_subdirectly_irreducible(A: UpSetLattice) -> bool:
    """Whether the nonempty dual congruences have a least member.

    By Lakser's theorem the subdirectly irreducible algebras are the
    2^n-plus-unit ones, whose duals are the fans (fan(0) is one point),
    which algebras._fan_rank tells apart in O(n), so it answers at every
    size.
    """
    return _fan_rank(A.base) is not None
