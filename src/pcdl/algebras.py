"""Pseudocomplemented distributive lattices over their dual posets.

An algebra is the up-set lattice of a finite poset, duality.UpSetLattice,
which carries its own pseudocomplement: the star of an up-set U is the
complement of the down-closure of U, the largest up-set disjoint from U.
Homomorphisms that preserve the star correspond to maps g between the
dual posets satisfying the maximal-point condition g[M(y)] = M(g(y)),
called p-morphisms below.
"""

from __future__ import annotations

from functools import cache

from .duality import LatticeHom, UpSetLattice, _star_mask
from .posets import OrderMap, Poset, bits, fan


def pseudocomplement(poset: Poset, mask: int) -> int:
    """The largest up-set disjoint from mask."""
    if not poset.is_up_set(mask):
        raise ValueError("%s is not an up-set"
                         % (poset.labels_of(mask),))
    return _star_mask(poset, mask)


def make_pcdl(poset: Poset) -> UpSetLattice:
    """The up-set lattice of a poset, with its star certified.

    Reading star_table runs its O(n)-per-up-set certificate, so every
    algebra built here is certified at construction, at every size.
    """
    A = UpSetLattice(poset)
    A.star_table  # computed and certified on this first read
    return A


@cache
def fan_algebra(n: int) -> UpSetLattice:
    """The 2^n-plus-new-unit algebra: up-sets of the n-top fan."""
    return make_pcdl(fan(n))


def pcdl_from_abstract(lat):
    """An abstract PCDL as the up-set lattice of its dual poset.

    Returns (algebra, unit): the algebra is the target of the canonical
    isomorphism unit, certified when lat was built. A finite distributive
    lattice is pseudocomplemented, and an isomorphism carries its star
    onto the algebra's star, which is certified when first read.
    """
    return lat.unit.target, lat.unit


# -- p-morphisms -------------------------------------------------------------

def p_morphism_failure(f: OrderMap):
    """None if f is a p-morphism, else a small witness dict."""
    if not f.is_order_preserving():
        return {"reason": "not_order_preserving"}
    for y in range(f.source.n):
        img = f.image_of_mask(f.source.max_above(y))
        want = f.target.max_above(f.table[y])
        if img != want:
            return {"reason": "max_set_mismatch",
                    "point": f.source.labels[y],
                    "image": list(f.target.labels_of(img)),
                    "expected": list(f.target.labels_of(want))}
    return None


def is_p_morphism(f: OrderMap) -> bool:
    return p_morphism_failure(f) is None


def _iter_p_morphisms(source: Poset, target: Poset, onto: bool = False,
                      fibers=None):
    """Tables of the p-morphisms source -> target, in search order.

    The one p-morphism search: every caller reads plain tuples (index of
    the image of each source point) and builds an OrderMap only for a map
    it keeps. Points are assigned top down, so when a point comes up all
    maximals above it already have images and the maximal-set condition
    prunes exactly: a maximal point takes a maximal target point, and any
    other point y takes a target point whose maximal set is exactly the
    image of M(y), read from a map built once per call, below the images
    of its upper covers. The search is iterative: one candidate mask per
    position, taken lowest point first, on an explicit stack. fibers
    optionally restricts each source point to a candidate mask. With
    onto, a branch is cut once its unhit target points outnumber the
    points left to assign. The empty source has the one empty map, onto
    only the empty target.
    """
    ns, nt = source.n, target.n
    if ns == 0:
        if nt == 0 or not onto:
            yield ()
        return
    if nt == 0 or onto and nt > ns:
        return
    # source rows in search order, computed once per call
    order = sorted(range(ns), key=lambda i: (source.up[i].bit_count(), i))
    smax = source.maximals_mask
    covers = [tuple(bits(source.covers_up[y])) for y in order]
    is_max = [smax >> y & 1 for y in order]
    above = [tuple(bits(source.up[y] & smax)) for y in order]
    tfull, tmax, tdown = target.full_mask, target.maximals_mask, target.down
    with_above = {}
    for p in range(nt):
        key = target.up[p] & tmax
        with_above[key] = with_above.get(key, 0) | 1 << p
    allow = [tfull] * ns if fibers is None else [fibers[y] for y in order]
    last = ns - 1
    assign = [0] * ns
    image = [0] * ns
    cand = [0] * ns
    pos = 0
    mask = allow[0] & tmax  # the first point in search order is maximal
    while True:
        cand[pos] = mask
        # take the next candidate, backtracking past exhausted positions
        while True:
            m = cand[pos]
            if not m:
                if pos == 0:
                    return
                pos -= 1
                continue
            low = m & -m
            cand[pos] = m ^ low
            img = image[pos] | low
            assign[order[pos]] = low.bit_length() - 1
            if pos == last:
                if not onto or img == tfull:
                    yield tuple(assign)
                continue
            if onto and (tfull & ~img).bit_count() > last - pos:
                continue
            break
        pos += 1
        image[pos] = img
        mask = allow[pos]
        for z in covers[pos]:
            mask &= tdown[assign[z]]
        if is_max[pos]:
            mask &= tmax
        else:
            want = 0
            for t in above[pos]:
                want |= 1 << assign[t]
            mask &= with_above.get(want, 0)


def p_morphisms(source: Poset, target: Poset, onto: bool = False) -> list:
    """All p-morphisms source -> target, onto ones only if requested."""
    return [OrderMap(source, target, t)
            for t in _iter_p_morphisms(source, target, onto=onto)]


# -- star homomorphisms ------------------------------------------------------

def star_hom_failure(hom: LatticeHom, one_to_one: bool = False,
                     onto: bool = False):
    """None if hom is a {0,1}-hom between up-set lattices keeping star.

    one_to_one and onto additionally demand those properties. The reason
    reads after the hom's name, as in "embedding is not one-to-one".
    """
    if not hom.is_homomorphism():
        return "is not a homomorphism"
    if one_to_one and not hom.is_one_to_one():
        return "is not one-to-one"
    if onto and not hom.is_onto():
        return "is not onto"
    tab, tgt_star = hom.table, hom.target.star_table
    if any(tab[s] != tgt_star[tab[i]]
           for i, s in enumerate(hom.source.star_table)):
        return "does not preserve star"
    return None


def hom_of_dual_map(g: OrderMap, A: UpSetLattice,
                    B: UpSetLattice) -> LatticeHom:
    """Transport a p-morphism g: P(B) -> P(A) to the hom A -> B it encodes.

    The hom sends an up-set to its preimage under g. Preimage along an
    order-preserving map is a {0,1}-lattice hom, and it preserves the
    star exactly when g is a p-morphism (Priestley duality), so g itself
    is certified, in O(n) per point, and a map that is not a p-morphism
    raises ValueError.
    """
    if g.source != B.base or g.target != A.base:
        raise ValueError("map does not run between the dual posets")
    failure = p_morphism_failure(g)
    if failure is not None:
        raise ValueError("map is not a p-morphism: %r" % (failure,))
    table = tuple(B.index_of_mask(g.preimage_mask(u)) for u in A.carrier)
    return LatticeHom(A, B, table)


def star_hom_pairs(A: UpSetLattice, B: UpSetLattice) -> list:
    """All (dual p-morphism, hom A -> B) pairs, each dual map certified."""
    return [(g, hom_of_dual_map(g, A, B))
            for g in p_morphisms(B.base, A.base)]


def star_homs(A: UpSetLattice, B: UpSetLattice) -> list:
    """All star-preserving {0,1}-homomorphisms A -> B."""
    return [hom for _, hom in star_hom_pairs(A, B)]


def star_embeddings(A: UpSetLattice, B: UpSetLattice) -> list:
    """All one-to-one star homs A -> B; dual maps must be onto."""
    out = []
    for g, hom in star_hom_pairs(A, B):
        if g.is_onto():
            if not hom.is_one_to_one():
                raise AssertionError("dual of an onto map is not one-to-one")
            out.append(hom)
    return out


def _dual(A) -> Poset:
    """The dual poset of A, which is an algebra or already its dual."""
    return A if isinstance(A, Poset) else A.base


def embedding_p_morphism_witness(A, i: int):
    """An order-embedding p-morphism from the i-top fan into P(A), or None.

    A is an algebra or its dual poset. Such an embedding exists exactly
    when A has an onto star hom to the 2^i-plus-unit algebra. For i of at
    least 2 it is witnessed by a point with exactly i maximals above it;
    for i = 1 the point must also be non-maximal, otherwise the dual
    2-chain map would collapse.
    """
    if i < 0:
        raise ValueError("fan size must be nonnegative")
    base = _dual(A)
    source = fan(i)
    if i == 0:
        for x in bits(base.maximals_mask):
            return OrderMap(source, base, (x,))
        return None
    max_mask = base.maximals_mask
    for x in range(base.n):
        above = base.max_above(x)
        if above.bit_count() != i:
            continue
        if i == 1 and max_mask >> x & 1:
            continue
        return OrderMap(source, base, tuple([x] + list(bits(above))))
    return None


def onto_star_hom_exists(A, i: int) -> bool:
    """Whether some star hom maps A onto the 2^i-plus-unit algebra."""
    return embedding_p_morphism_witness(A, i) is not None


def variety_index(A) -> int:
    """Largest maximal-set size in the dual; 0 for the trivial algebra.

    A is an algebra or its dual poset. A lies in the variety generated by
    the 2^n-plus-unit algebra exactly when its index is at most n.
    """
    base = _dual(A)
    if base.n == 0:
        return 0
    return max(base.max_above(x).bit_count() for x in range(base.n))


def in_variety(A, n: int) -> bool:
    return variety_index(A) <= n
