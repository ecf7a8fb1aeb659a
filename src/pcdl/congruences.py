"""Congruences of finite PCDLs in dual form.

A congruence is represented by the subset of dual points it erases: a set
T is admissible when the down-closure of its maximal members stays inside
T, and two up-sets are related exactly when they agree off T. Quotients
restrict the dual poset to the surviving points, and congruences pull back
along onto p-morphisms by taking preimages.
"""

from __future__ import annotations

from typing import NamedTuple

from .algebras import (in_variety, make_pcdl, p_morphism_failure,
                       star_hom_failure)
from .amalgamation import (ExtensionResult, _extension_classes,
                           _require_room)
from .duality import LatticeHom, UpSetLattice
from .posets import OrderMap, Poset, bits


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


def enumerate_congruences(poset: Poset, bound: int = 12) -> list:
    """All dual congruences, sorted by size then mask."""
    if poset.n > bound:
        raise ValueError("poset has %d points, over the bound %d"
                         % (poset.n, bound))
    out = [DualCongruence(poset, m) for m in range(1 << poset.n)
           if is_congruence_mask(poset, m)]
    out.sort(key=lambda t: (t.mask.bit_count(), t.mask))
    return out


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
    failure = star_hom_failure(emb, one_to_one=True)
    if failure is not None:
        raise ValueError("embedding %s" % failure)


class RestrictedCongruence(NamedTuple):
    pairs: tuple
    is_trivial: bool
    is_full: bool


def restrict_congruence(theta: DualCongruence, emb: LatticeHom,
                        validate: bool = True) -> RestrictedCongruence:
    """Pull a congruence of the big algebra back along an embedding.

    pairs lists the nontrivially related index pairs (i < j) of the
    embedded algebra; is_trivial flags the diagonal restriction.
    """
    if validate:
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


def is_essential_extension(emb: LatticeHom, bound: int = 12) -> bool:
    """Whether every nontrivial congruence of the target stays nontrivial."""
    validate_star_embedding(emb)
    for theta in enumerate_congruences(emb.target.base, bound):
        if theta.mask and restrict_congruence(theta, emb,
                                              validate=False).is_trivial:
            return False
    return True


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


def is_congruence_extensile_bounded(B: UpSetLattice, n: int, bound: int,
                                    max_instances=None) -> ExtensionResult:
    """Check that every congruence of B extends to every bounded extension.

    Extensions are all algebras with a dual of at most bound points inside
    the variety of index n that contain B, i.e. duals admitting an onto
    p-morphism to P(B). The verdict is yes when the whole search space
    within the bound was exhausted, or inconclusive when max_instances cut
    the run short. The congruence extension property of these varieties
    (Gratzer and Lakser 1971) is certified on points. Each gamma's fiber
    masks are built once from its table, and gamma is onto when no fiber
    is empty: preimage along an onto gamma is injective and commutes with
    set difference, so the pullback of theta relates two preimages
    exactly when theta relates the originals, and it restricts to theta.
    The pullback of theta, the union of the fibers over its points, is
    checked to be a congruence mask for every theta. A gamma or pullback
    that fails is a broken invariant and raises. A bound below the size
    of P(B) is refused, as it would answer yes vacuously.
    """
    if not in_variety(B, n):
        raise ValueError("algebra is outside the variety of index %d" % n)
    # local import: the benchmark tracer counts it as congruences.gamma_search
    from .algebras import _iter_p_morphisms
    P = B.base
    _require_room(P, bound)
    thetas = enumerate_congruences(P)
    erased = [tuple(bits(theta.mask)) for theta in thetas]
    instances = 0
    for Y in _extension_classes(P, n, bound):
        for gamma in _iter_p_morphisms(Y, P, onto=True):
            fiber = [0] * P.n
            for y, p in enumerate(gamma):
                fiber[p] |= 1 << y
            onto = all(fiber)
            for theta, points in zip(thetas, erased):
                instances += 1
                if max_instances is not None and instances > max_instances:
                    return ExtensionResult("inconclusive", None,
                                           instances - 1, bound)
                pullback = 0
                for p in points:
                    pullback |= fiber[p]
                if not (onto and is_congruence_mask(Y, pullback)):
                    raise AssertionError(
                        "pullback of %s is not a congruence restricting "
                        "to it" % (theta.labels(),))
    return ExtensionResult("yes", None, instances, bound)


def is_subdirectly_irreducible(A: UpSetLattice) -> bool:
    """Whether the nonempty dual congruences have a least member.

    By Lakser's theorem the subdirectly irreducible algebras are the
    2^n-plus-unit ones, whose duals are the fans (fan(0) is one point):
    the posets with exactly one point that is non-maximal or isolated.
    The test is O(n) in the dual, so it answers at every size.
    """
    base = A.base
    max_mask = base.maximals_mask
    return (base.n - max_mask.bit_count()
            + (max_mask & base.minimals_mask).bit_count()) == 1
