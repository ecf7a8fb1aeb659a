"""Pseudocomplemented distributive lattices over their dual posets.

An algebra is carried by the up-set lattice of a finite poset; the
pseudocomplement of an up-set U is the complement of the down-closure of U,
the largest up-set disjoint from U. Homomorphisms that preserve the star
correspond to maps g between the dual posets satisfying the maximal-point
condition g[M(y)] = M(g(y)), called p-morphisms below.
"""

from __future__ import annotations

from functools import cache

from .duality import LatticeHom, UpSetLattice
from .posets import OrderMap, Poset, bits, fan


class PcdLattice:
    """Finite PCDL realized as the up-set lattice of its dual poset."""

    __slots__ = ("base", "lattice", "star_table")

    def __init__(self, base: Poset, lattice: UpSetLattice, star_table: tuple):
        self.base = base
        self.lattice = lattice
        self.star_table = star_table

    @property
    def size(self) -> int:
        return self.lattice.size

    @property
    def labels(self) -> tuple:
        return self.lattice.labels

    @property
    def carrier(self) -> tuple:
        return self.lattice.carrier

    @property
    def bottom(self) -> int:
        return 0

    @property
    def top(self) -> int:
        return self.lattice.size - 1

    def join(self, i: int, j: int) -> int:
        return self.lattice.join(i, j)

    def meet(self, i: int, j: int) -> int:
        return self.lattice.meet(i, j)

    def leq(self, i: int, j: int) -> bool:
        return self.lattice.leq(i, j)

    def star(self, i: int) -> int:
        return self.star_table[i]

    def index_of_mask(self, mask: int) -> int:
        return self.lattice.index_of_mask(mask)

    def __eq__(self, other):
        return isinstance(other, PcdLattice) and self.base == other.base

    def __hash__(self):
        return hash(("pcdl", self.base))

    def __repr__(self):
        return "PcdLattice(%d elements over %d points)" % (self.size,
                                                           self.base.n)


def _star_mask(poset: Poset, mask: int) -> int:
    return poset.full_mask & ~poset.down_closure(mask)


def pseudocomplement(poset: Poset, mask: int) -> int:
    """The largest up-set disjoint from mask."""
    if not poset.is_up_set(mask):
        raise ValueError("%s is not an up-set"
                         % (poset.labels_of(mask),))
    return _star_mask(poset, mask)


def upset_star_table(lat: UpSetLattice) -> tuple:
    """Pseudocomplement table of an up-set lattice, from its base poset."""
    return tuple(lat.index_of_mask(_star_mask(lat.base, u))
                 for u in lat.carrier)


def make_pcdl(poset: Poset) -> PcdLattice:
    """Equip the up-set lattice of a poset with its pseudocomplement.

    The defining biconditional (x below u-star exactly when x meets u at
    bottom) is certified at every size, in one pass over the up-sets u
    with O(n) work each: u-star must miss u, and every point outside
    u-star must see u above it. The first gives the forward direction;
    the second puts every up-set that misses u below u-star.
    """
    lattice = UpSetLattice(poset)
    star_table = upset_star_table(lattice)
    carrier, up, full = lattice.carrier, poset.up, poset.full_mask
    for u, j in zip(carrier, star_table):
        s = carrier[j]
        if s & u or any(not up[p] & u for p in bits(full & ~s)):
            raise AssertionError(
                "pseudocomplement axiom fails at %s with star %s"
                % (poset.labels_of(u), poset.labels_of(s)))
    return PcdLattice(poset, lattice, star_table)


@cache
def fan_algebra(n: int) -> PcdLattice:
    """The 2^n-plus-new-unit algebra: up-sets of the n-top fan."""
    return make_pcdl(fan(n))


def pcdl_from_abstract(lat):
    """Rebuild an abstract PCDL over its dual poset.

    Returns (algebra, unit) where unit is the canonical isomorphism from
    lat onto the algebra's carrier, certified when lat was built. A finite
    distributive lattice is pseudocomplemented, and an isomorphism carries
    its star onto the algebra's star.
    """
    return make_pcdl(lat.unit.target.base), lat.unit


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
                      fibers=None, prefer_max: bool = False):
    """Backtracking generator of p-morphisms source -> target.

    Points are assigned top down, so when a point comes up all maximals
    above it already have images and the maximal-set condition prunes
    exactly. fibers optionally restricts each source point to a candidate
    mask; prefer_max yields candidates that are maximal in target first.
    """
    ns, nt = source.n, target.n
    if ns == 0:
        if nt == 0 or not onto:
            yield OrderMap(source, target, ())
        return
    if nt == 0:
        return
    order = sorted(range(ns), key=lambda i: (source.up[i].bit_count(), i))
    smax = source.maximals_mask
    tmax = target.maximals_mask
    t_above = [target.max_above(p) for p in range(nt)]
    s_above = [source.max_above(y) for y in range(ns)]
    tfull = target.full_mask
    assign = [0] * ns

    if prefer_max:
        def cand_order(mask):
            yield from bits(mask & tmax)
            yield from bits(mask & ~tmax)
    else:
        def cand_order(mask):
            yield from bits(mask)

    def rec(pos: int, image: int):
        if pos == ns:
            if not onto or image == tfull:
                yield OrderMap(source, target, tuple(assign))
            return
        if onto and (tfull & ~image).bit_count() > ns - pos:
            return
        y = order[pos]
        allowed = tfull
        for z in bits(source.covers_up[y]):
            allowed &= target.down[assign[z]]
        if fibers is not None:
            allowed &= fibers[y]
        if smax >> y & 1:
            for p in cand_order(allowed & tmax):
                assign[y] = p
                yield from rec(pos + 1, image | 1 << p)
        else:
            want = 0
            for t in bits(s_above[y]):
                want |= 1 << assign[t]
            for p in cand_order(allowed):
                if t_above[p] == want:
                    assign[y] = p
                    yield from rec(pos + 1, image | 1 << p)

    yield from rec(0, 0)


def p_morphisms(source: Poset, target: Poset, onto: bool = False) -> list:
    """All p-morphisms source -> target, onto ones only if requested."""
    return list(_iter_p_morphisms(source, target, onto=onto))


# -- star homomorphisms ------------------------------------------------------

def star_hom_failure(hom: LatticeHom, src_star, tgt_star,
                     one_to_one: bool = False, onto: bool = False):
    """None if hom is a {0,1}-hom carrying src_star to tgt_star, else why.

    one_to_one and onto additionally demand those properties. The reason
    reads after the hom's name, as in "embedding is not one-to-one".
    """
    if not hom.is_homomorphism():
        return "is not a homomorphism"
    if one_to_one and not hom.is_one_to_one():
        return "is not one-to-one"
    if onto and not hom.is_onto():
        return "is not onto"
    tab = hom.table
    if any(tab[s] != tgt_star[tab[i]] for i, s in enumerate(src_star)):
        return "does not preserve star"
    return None


def hom_of_dual_map(g: OrderMap, A: PcdLattice, B: PcdLattice) -> LatticeHom:
    """Transport a p-morphism g: P(B) -> P(A) to the hom A -> B it encodes.

    The returned hom is re-verified to preserve bounds, join, meet and star.
    """
    if g.source != B.base or g.target != A.base:
        raise ValueError("map does not run between the dual posets")
    table = tuple(B.index_of_mask(g.preimage_mask(u)) for u in A.carrier)
    hom = LatticeHom(A.lattice, B.lattice, table)
    failure = star_hom_failure(hom, A.star_table, B.star_table)
    if failure is not None:
        raise AssertionError("dual transport %s" % failure)
    return hom


def star_hom_pairs(A: PcdLattice, B: PcdLattice) -> list:
    """All (dual p-morphism, hom A -> B) pairs, each hom verified."""
    return [(g, hom_of_dual_map(g, A, B))
            for g in p_morphisms(B.base, A.base)]


def star_homs(A: PcdLattice, B: PcdLattice) -> list:
    """All star-preserving {0,1}-homomorphisms A -> B."""
    return [hom for _, hom in star_hom_pairs(A, B)]


def star_embeddings(A: PcdLattice, B: PcdLattice) -> list:
    """All one-to-one star homs A -> B; dual maps must be onto."""
    out = []
    for g, hom in star_hom_pairs(A, B):
        if g.is_onto():
            if not hom.is_one_to_one():
                raise AssertionError("dual of an onto map is not one-to-one")
            out.append(hom)
    return out


def embedding_p_morphism_witness(A: PcdLattice, i: int):
    """An order-embedding p-morphism from the i-top fan into P(A), or None.

    Such an embedding exists exactly when A has an onto star hom to the
    2^i-plus-unit algebra. For i of at least 2 it is witnessed by a point
    with exactly i maximals above it; for i = 1 the point must also be
    non-maximal, otherwise the dual 2-chain map would collapse.
    """
    if i < 0:
        raise ValueError("fan size must be nonnegative")
    base = A.base
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


def onto_star_hom_exists(A: PcdLattice, i: int) -> bool:
    """Whether some star hom maps A onto the 2^i-plus-unit algebra."""
    return embedding_p_morphism_witness(A, i) is not None


def variety_index(A: PcdLattice) -> int:
    """Largest maximal-set size in the dual; 0 for the trivial algebra.

    A lies in the variety generated by the 2^n-plus-unit algebra exactly
    when its index is at most n.
    """
    base = A.base
    if base.n == 0:
        return 0
    return max(base.max_above(x).bit_count() for x in range(base.n))


def in_variety(A: PcdLattice, n: int) -> bool:
    return variety_index(A) <= n
