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
from itertools import islice
from math import factorial

from .duality import LatticeHom, UpSetLattice, _star_mask
from .posets import OrderMap, Poset, _twin_classes, bits, fan


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


def _orbit_weight(table: tuple, classes: list) -> int:
    """The number of maps in the twin-swap orbit of table.

    classes is _twin_classes of the source. Swaps permute the images
    within each class independently, so the orbit has, per class of k
    points, k! / (product of c! over the multiplicities c of its images)
    members, and the weight is the product of these.
    """
    weight = 1
    for cls in classes:
        weight *= factorial(len(cls))
        counts = {}
        for y in cls:
            counts[table[y]] = counts.get(table[y], 0) + 1
        for c in counts.values():
            weight //= factorial(c)
    return weight


def _twin_swap_count(target: Poset) -> int:
    """The number of maps in each orbit of the target's twin swaps.

    The swaps of twins of target (_twin_classes) generate one permutation
    group S, the product of the symmetric groups of its classes: per
    class of k points, k! members. Each swap tau is an automorphism of
    target, and S acts on the onto maps gamma into target by gamma ->
    tau o gamma. The action is free: tau o gamma = gamma would leave
    every point of gamma's image fixed, but an onto gamma hits the points
    that tau moves. So every orbit of onto maps has |S| members.
    """
    count = 1
    for cls in _twin_classes(target):
        count *= factorial(len(cls))
    return count


def _iter_p_morphisms(source: Poset, target: Poset, onto: bool = False,
                      fibers=None, twins=False, target_twins: bool = False):
    """Tables of the p-morphisms source -> target, in search order.

    The one p-morphism search: every caller reads plain tuples (index of
    the image of each source point) and builds an OrderMap only for a map
    it keeps. Points are assigned top down, so when a point comes up all
    maximals above it already have images and the maximal-set condition
    prunes exactly: a maximal point takes a maximal target point, and any
    other point y takes a target point whose maximal set is exactly the
    image of M(y), below the images of its upper covers. The points with
    each maximal set are read from target.with_above, built once per
    target and kept on it. The per-call rows are lookups: a stable sort
    of the points by up-set size (so ties keep index order), covers and
    maximal sets through bits, and the onto cut's two lists from
    the block size. The search is iterative: one candidate mask per
    position, taken lowest point first, on an explicit stack, so tables
    come in increasing order of the images of the points in that order.
    fibers optionally restricts each source point to a candidate mask.
    The empty source has the one empty map, onto only the empty target.

    With onto, the maximal points, which come first in search order as
    one block, are counted apart from the rest. A maximal target point p
    is hit only if some maximal source point hits it, since a preimage y
    has gamma(M(y)) = {p}, and a non-maximal one only by non-maximal
    points. So within the block a branch is cut once its unhit maximal
    targets outnumber the maximal positions left, and past it once its
    unhit targets outnumber the positions left; a source with fewer
    maximal or fewer non-maximal points than the target has no onto map.
    The cut drops only branches with no onto completion, so yields and
    their order are those of the plain search filtered to onto maps.

    With twins, only the least table of each orbit of the twin swaps of
    source (_twin_classes) is yielded; _orbit_weight gives its orbit's
    size. twins is True, or the source's _twin_classes where the caller
    has them. Twins have the same candidates and come up in index order,
    so a twin enters with its previous twin's remaining candidates and
    that twin's image: images never decrease along a twin class, which
    picks exactly the least member of each orbit, and yields stay in
    search order. With twins off, each step reads one list entry more.

    With target_twins, only one table per orbit of the twin swaps of
    target is yielded, gamma -> tau o gamma; on onto maps every orbit has
    _twin_swap_count(target) members. It is the table in which, read in
    search order, the points of each target twin class are first hit in
    index order: a gated point, one with a previous twin in its class,
    is open only once that twin is in the image. Maximal targets are hit
    only within the maximal block and the others only past it, so gates
    are read only in the part that can hit a gated point. Yields stay in
    search order, and a plain search reads no gate: its positions enter
    as before.

    fibers may tell twins apart, so it cannot be combined with twins or
    target_twins; nor can the two twin options be combined, as one table
    need not stand first in both orbits (ValueError).
    """
    if fibers is not None and (twins or target_twins):
        raise ValueError("%s and fibers cannot be combined: fibers may "
                         "tell twins apart"
                         % ("twins" if twins else "target_twins"))
    if twins and target_twins:
        raise ValueError("twins and target_twins cannot be combined: one "
                         "table need not stand first in both orbits")
    ns, nt = source.n, target.n
    if ns == 0:
        if nt == 0 or not onto:
            yield ()
        return
    smax = source.maximals_mask
    tfull, tmax, tdown = target.full_mask, target.maximals_mask, target.down
    # maximal points come first in search order, as one block
    block, tblock = smax.bit_count(), tmax.bit_count()
    if nt == 0 or onto and (tblock > block or nt - tblock > ns - block):
        return
    # source rows in search order, read by lookup once per call; the sort
    # is stable, so points of one up-set size keep index order
    up = source.up
    order = sorted(range(ns), key=list(map(int.bit_count, up)).__getitem__)
    covers = [bits(source.covers_up[y]) for y in order]
    above = [bits(up[y] & smax) for y in order]
    # the onto cut at each position: the target points still to be hit
    # and the positions left that can hit them, maximal ones within the
    # block and all of them past it
    need = [tmax] * block + [tfull] * (ns - block)
    left = [*range(block - 1, -1, -1), *range(ns - block - 1, -1, -1)]
    with_above = target.with_above
    allow = [tfull] * ns if fibers is None else [fibers[y] for y in order]
    # with twins, the position of each point's previous twin; with
    # target_twins, -2 where a gated point may be hit; else -1
    prev = [-1] * ns
    if twins:
        where = {y: k for k, y in enumerate(order)}
        for cls in _twin_classes(source) if twins is True else twins:
            for a, b in zip(cls, cls[1:]):
                prev[where[b]] = where[a]
    if target_twins:
        # (previous twin, gated point) bits, and per image of the previous
        # twins, the points open to the next position, filled as met
        pairs = [(1 << a, 1 << b) for cls in _twin_classes(target)
                 for a, b in zip(cls, cls[1:])]
        preds = sum(a for a, _ in pairs)
        gated = sum(b for _, b in pairs)
        opened = {}
        if gated & tmax:
            prev[:block] = [-2] * block
        if gated & ~tmax:
            prev[block:] = [-2] * (ns - block)
        allow[0] = tfull & ~gated  # nothing is hit yet
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
            if onto and (need[pos] & ~img).bit_count() > left[pos]:
                continue
            break
        pos += 1
        image[pos] = img
        q = prev[pos]
        if q == -1:
            mask = allow[pos]
        elif q >= 0:
            # a twin enters as its previous twin did: the same covers and
            # maximals above; it keeps that twin's image and later ones
            mask = cand[q] | 1 << assign[order[q]]
            continue
        else:
            key = img & preds
            mask = opened.get(key)
            if mask is None:
                mask = opened[key] = tfull & ~sum(
                    b for a, b in pairs if not key & a)
        for z in covers[pos]:
            mask &= tdown[assign[z]]
        if pos < block:
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

def star_embedding_failure(hom: LatticeHom):
    """None if hom is a one-to-one {0,1}-hom of up-set lattices keeping star.

    The reason reads after the hom's name, as in "embedding is not
    one-to-one".
    """
    if not hom.is_homomorphism():
        return "is not a homomorphism"
    if not hom.is_one_to_one():
        return "is not one-to-one"
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


# the most star homs listed between two algebras: two 6-point antichains
# have 6^6 = 46,656, which star-homs would write as 98 MB of JSON
MAX_STAR_HOMS = 4096


def star_hom_pairs(A: UpSetLattice, B: UpSetLattice) -> list:
    """All (dual p-morphism, hom A -> B) pairs, each dual map certified.

    The dual tables are counted as the search yields them: past
    MAX_STAR_HOMS, ValueError before any map or hom is built.
    """
    tables = list(islice(_iter_p_morphisms(B.base, A.base),
                         MAX_STAR_HOMS + 1))
    if len(tables) > MAX_STAR_HOMS:
        raise ValueError("more than %d star homs from a %d-element algebra "
                         "into a %d-element one"
                         % (MAX_STAR_HOMS, A.size, B.size))
    maps = [OrderMap(B.base, A.base, t) for t in tables]
    return [(g, hom_of_dual_map(g, A, B)) for g in maps]


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
