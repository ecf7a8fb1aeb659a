"""Amalgamation bases inside the bounded-fan varieties.

The decision procedure is dual: an algebra fails to be a base exactly when
some intermediate fan maps onto it from inside, i.e. when its dual poset
contains a point whose maximal cover set has one of the forbidden sizes.
A bounded search over extensions doubles as an independent oracle, and a
separation routine settles concrete two-sided embedding instances.
"""

from __future__ import annotations

import concurrent.futures
from typing import NamedTuple, Optional

from .algebras import (PcdLattice, _iter_p_morphisms,
                       embedding_p_morphism_witness, fan_algebra, in_variety,
                       is_p_morphism, onto_star_hom_exists, p_morphisms,
                       star_hom_failure, star_homs, variety_index)
from .enumeration import poset_classes_upto
from .posets import OrderMap, Poset, fan


def forbidden_images(A: PcdLattice, n: int) -> list:
    """Fan sizes i with 2 <= i < n that A maps onto.

    Nonempty output certifies that A is not an amalgamation base of the
    variety of index n.
    """
    if variety_index(A) > n:
        raise ValueError("algebra is outside the variety of index %d" % n)
    return [i for i in range(2, n) if onto_star_hom_exists(A, i)]


class AmalgamationVerdict(NamedTuple):
    is_base: bool
    forbidden: tuple
    witnesses: dict


def is_amalgamation_base_finite(A: PcdLattice, n: int) -> AmalgamationVerdict:
    """Decide whether A is an amalgamation base of the index-n variety.

    witnesses maps each forbidden size to an embedding of the fan of that
    size into the dual of A.
    """
    forb = forbidden_images(A, n)
    witnesses = {}
    for i in forb:
        w = embedding_p_morphism_witness(A, i)
        if w is None:
            raise AssertionError("forbidden size %d has no embedding witness"
                                 % i)
        witnesses[i] = w
    return AmalgamationVerdict(not forb, tuple(forb), witnesses)


def _find_lift(gamma: OrderMap, alpha: OrderMap) -> Optional[OrderMap]:
    fibers = [gamma.preimage_mask(1 << alpha(v))
              for v in range(alpha.source.n)]
    for beta in _iter_p_morphisms(alpha.source, gamma.source, fibers=fibers,
                                  prefer_max=True):
        return beta
    return None


def lift_through(gamma: OrderMap, alpha: OrderMap) -> Optional[OrderMap]:
    """A p-morphism beta with gamma o beta = alpha, or None.

    gamma must be an onto p-morphism and alpha a p-morphism into the same
    target. The returned map is re-verified on both counts.
    """
    if gamma.target != alpha.target:
        raise ValueError("maps do not share a target")
    if not gamma.is_onto():
        raise ValueError("first map is not onto")
    for name, f in (("first", gamma), ("second", alpha)):
        if not is_p_morphism(f):
            raise ValueError("%s map is not a p-morphism" % name)
    beta = _find_lift(gamma, alpha)
    if beta is None:
        return None
    if gamma.compose(beta).table != alpha.table:
        raise AssertionError("lift does not compose back")
    if not is_p_morphism(beta):
        raise AssertionError("lift is not a p-morphism")
    return beta


class ExtensionResult(NamedTuple):
    """Outcome of a bounded search over extensions.

    The extension oracle answers holds, fails_with_witness or inconclusive;
    the congruence-extension search answers yes or inconclusive.
    """
    verdict: str
    witness: object
    instances: int
    bound: int


def _extension_classes(P: Poset, n: int, bound: int) -> list:
    p_max = max((P.max_above(x).bit_count() for x in range(P.n)), default=0)
    n_max = P.maximals_mask.bit_count()
    out = []
    for Y in poset_classes_upto(bound):
        if Y.n < P.n or Y.maximals_mask.bit_count() < n_max:
            continue
        sizes = [Y.max_above(y).bit_count() for y in range(Y.n)]
        if sizes and (max(sizes) > n or max(sizes) < p_max):
            continue
        out.append(Y)
    return out


def _extension_class_task(payload: dict) -> dict:
    Y = Poset.from_dict(payload["y"])
    P = Poset.from_dict(payload["p"])
    V = fan(payload["n"])
    alphas = [OrderMap(V, P, tuple(t)) for t in payload["alpha_tables"]]
    instances = 0
    for gamma in _iter_p_morphisms(Y, P, onto=True):
        for alpha in alphas:
            instances += 1
            if _find_lift(gamma, alpha) is None:
                return {"instances": instances,
                        "witness": {"gamma": list(gamma.table),
                                    "alpha": list(alpha.table)}}
    return {"instances": instances, "witness": None}


def extension_property_bounded(A: PcdLattice, n: int, bound: int,
                               jobs: int = 1,
                               max_instances=None) -> ExtensionResult:
    """Check that every map of A to the top fan extends along extensions.

    Extensions range over duals of at most bound points inside the index-n
    variety that map onto the dual of A; the maps are the duals of all
    algebra maps into the fan algebra of rank n. holds means every such
    map lifted; a failed lift is returned as a witness triple. The
    max_instances cap is applied between isomorphism classes, so results
    are identical for any jobs value.
    """
    if not in_variety(A, n):
        raise ValueError("algebra is outside the variety of index %d" % n)
    P = A.base
    V = fan(n)
    alphas = p_morphisms(V, P)
    classes = _extension_classes(P, n, bound)
    payloads = [{"y": Y.to_dict(), "p": P.to_dict(), "n": n,
                 "alpha_tables": [list(a.table) for a in alphas]}
                for Y in classes]
    if jobs > 1 and len(payloads) > 1:
        ex = concurrent.futures.ProcessPoolExecutor(max_workers=jobs)
        try:
            results = list(ex.map(_extension_class_task, payloads))
        finally:
            ex.shutdown(wait=True)
    else:
        results = [_extension_class_task(p) for p in payloads]
    instances = 0
    for Y, res in zip(classes, results):
        instances += res["instances"]
        if res["witness"] is not None:
            gamma = OrderMap(Y, P, tuple(res["witness"]["gamma"]))
            alpha = OrderMap(V, P, tuple(res["witness"]["alpha"]))
            return ExtensionResult("fails_with_witness", (Y, gamma, alpha),
                                   instances, bound)
        if max_instances is not None and instances >= max_instances \
                and Y is not classes[-1]:
            return ExtensionResult("inconclusive", None, instances, bound)
    return ExtensionResult("holds", None, instances, bound)


class SeparationResult(NamedTuple):
    amalgamable: bool
    witness: object
    checked_pairs: int


def amalgamate_or_separate(A: PcdLattice, B0: PcdLattice, B1: PcdLattice,
                           e0, e1, n: int) -> SeparationResult:
    """Amalgamate two extensions of A inside the index-n variety, or refute.

    e0 and e1 are star embeddings of A into B0 and B1. The candidate
    amalgam is the power of the rank-n fan algebra indexed by compatible
    pairs of maps; it works exactly when compatible pairs separate the
    points of both sides. An inseparable pair is returned as
    (side, label, label).
    """
    for name, alg in (("A", A), ("B0", B0), ("B1", B1)):
        if not in_variety(alg, n):
            raise ValueError("%s is outside the variety of index %d"
                             % (name, n))
    for name, emb, tgt in (("e0", e0, B0), ("e1", e1, B1)):
        if emb.source is not A.lattice and emb.source != A.lattice:
            raise ValueError("%s does not start at A" % name)
        if emb.target is not tgt.lattice and emb.target != tgt.lattice:
            raise ValueError("%s does not land in its extension" % name)
        failure = star_hom_failure(emb, A.star_table, tgt.star_table,
                                   one_to_one=True)
        if failure is not None:
            raise ValueError("%s %s" % (name, failure))
    D = fan_algebra(n)

    def by_restriction(B, e):
        keys = {}
        for f in star_homs(B, D):
            keys.setdefault(tuple(f.table[t] for t in e.table), []).append(f)
        return keys

    keys0, keys1 = by_restriction(B0, e0), by_restriction(B1, e1)
    checked = 0
    for side, homs, other_keys, alg in (("left", keys0, keys1, B0),
                                        ("right", keys1, keys0, B1)):
        compatible = [f for key, fs in homs.items() if key in other_keys
                      for f in fs]
        for i in range(alg.size):
            for j in range(i + 1, alg.size):
                checked += 1
                if not any(f.table[i] != f.table[j] for f in compatible):
                    return SeparationResult(
                        False, (side, alg.labels[i], alg.labels[j]), checked)
    return SeparationResult(True, None, checked)
