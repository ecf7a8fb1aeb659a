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


def _twin_swap_count(target: Poset) -> int:
    """The number of maps in each orbit of the target's twin swaps.

    The swaps of twins of target (target.twin_classes) generate one
    permutation group S, the product of the symmetric groups of its
    classes: per class of k points, k! members. Each swap tau is an
    automorphism of target, and S acts on the onto maps gamma into
    target by gamma -> tau o gamma. The action is free: tau o gamma =
    gamma would leave every point of gamma's image fixed, but an onto
    gamma hits the points that tau moves. So every orbit of onto maps
    has |S| members.

    The bounded searches over onto maps (the extension oracle, the
    q-model lift check, and extensile through _onto_count onto a target
    other than fan(1) and fan(2)) read one gamma per orbit
    (_iter_p_morphisms with target_twins) and weigh it by this count.
    Lifts do not tell an orbit's members apart: beta lifts alpha through
    gamma exactly when it lifts tau o alpha through tau o gamma, as tau
    is one-to-one, and alpha -> tau o alpha permutes the maps into
    target. So if gamma fails to lift some alpha, every member of its
    orbit fails to lift some alpha.
    """
    count = 1
    for cls in target.twin_classes:
        count *= factorial(len(cls))
    return count


def _fan_rank(poset: Poset):
    """k if poset is the fan fan(k), up to isomorphism, else None.

    The fans are the posets with exactly one point that is non-maximal
    or isolated: fan(0) is one isolated point, and past it every maximal
    point lies above the one non-maximal point, the fan's bottom, so a
    fan of n points has rank n - 1. The test is O(n).
    """
    max_mask = poset.maximals_mask
    if (poset.n - max_mask.bit_count()
            + (max_mask & poset.minimals_mask).bit_count()) == 1:
        return poset.n - 1
    return None


def _down_set_count(poset: Poset, mask: int) -> int:
    """The number of down-sets of the sub-poset on mask.

    Split on the least point y of mask: a down-set either misses y, and
    then all of up(y), or holds y, and then all of down(y); what is left
    is any down-set of the rest, on either side.
    """
    if not mask:
        return 1
    y = (mask & -mask).bit_length() - 1
    return (_down_set_count(poset, mask & ~poset.up[y])
            + _down_set_count(poset, mask & ~poset.down[y]))


def _onto_count(source: Poset, target: Poset) -> int:
    """The number of onto p-morphisms source -> target.

    Onto fan(1) and fan(2) the count is a closed form in source alone,
    and no map is listed; onto any other target the target_twins search
    is counted and weighed by _twin_swap_count(target). A maximal point
    y of source has M(y) = {y}, so a p-morphism gamma sends it to a
    maximal point.

    fan(1), g < t: the count is the number of down-sets of the
    non-maximal points of source, less one. Every maximal point goes to
    t, and each non-maximal point y may go to g or to t, as M(g) = M(t)
    = {t} = gamma(M(y)). gamma preserves order exactly when the points
    sent to g form a down-set, and it is onto exactly when that down-set
    is not empty (t is hit, as a nonempty source has maximal points).

    fan(2), g < t1, t2: the count is 2^|Max| - 2^c, where Max is the
    set of maximal points of source and c its number of connected
    components. gamma is fixed by its restriction h to Max: a
    non-maximal y must go to t_i when h(M(y)) = {t_i}, and to g when
    h(M(y)) = {t1, t2}, the only points with those maximal sets. Every
    h : Max -> {t1, t2} gives a p-morphism so, as y <= z puts M(z)
    inside M(y). gamma hits g exactly when h takes both tops on some
    M(y), and then it hits both tops too, so that is when it is onto.
    Along y <= z the nonempty sets M(z) and M(y) meet, so h is constant
    on every M(y) exactly when it is constant on each component: 2^c of
    the 2^|Max| maps h give no onto gamma.
    """
    rank = _fan_rank(target)
    if rank == 1:
        return _down_set_count(
            source, source.full_mask & ~source.maximals_mask) - 1
    if rank == 2:
        return (1 << source.maximals_mask.bit_count()) \
            - (1 << len(source.components()))
    count = 0
    for _ in _iter_p_morphisms(source, target, onto=True, target_twins=True):
        count += 1
    return count * _twin_swap_count(target)


def _iter_p_morphisms(source: Poset, target: Poset, onto: bool = False,
                      fibers=None, target_twins: bool = False):
    """Tables of the p-morphisms source -> target, in search order.

    The one p-morphism search: every caller reads plain tuples (index of
    the image of each source point) and builds an OrderMap only for a map
    it keeps. Points are assigned top down, so when a point comes up all
    maximals above it already have images and the maximal-set condition
    prunes exactly: a maximal point takes a maximal target point, and any
    other point y takes a target point whose maximal set is exactly the
    image of M(y), below the images of its upper covers. Nothing that
    depends on one poset alone is built per call: the search order (a
    stable sort of the points by up-set size, so ties keep index order)
    and the covers and maximal sets in that order are read from
    source.search_rows, the points with each maximal set from
    target.with_above, and the twin gates and the onto cut's rows from
    target.search_gates, each built on first read and kept on its poset.
    A call builds only its own state: the candidate masks allowed at
    each position and the stacks. The search is iterative: one candidate
    mask per position, taken lowest point first, on an explicit stack,
    so tables come in increasing order of the images of the points in
    that order.
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

    With target_twins, only one table per orbit of the twin swaps of
    target is yielded, gamma -> tau o gamma; on onto maps every orbit has
    _twin_swap_count(target) members. It is the table in which, read in
    search order, the points of each target twin class are first hit in
    index order: a gated point, one with a previous twin in its class,
    is open only once that twin is in the image. Maximal targets are hit
    only within the maximal block and the others only past it, so gates
    are read only in the part that can hit a gated point. Yields stay in
    search order, and a search without target_twins reads no gate.

    fibers may tell twins apart, so it cannot be combined with
    target_twins (ValueError).
    """
    if fibers is not None and target_twins:
        raise ValueError("target_twins and fibers cannot be combined: fibers "
                         "may tell twins apart")
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
    # the source's rows in search order and, for an onto or target_twins
    # search, the target's gates, each built once and kept on its poset
    order, covers, above = source.search_rows
    with_above = target.with_above
    allow = [tfull] * ns if fibers is None else [fibers[y] for y in order]
    if onto or target_twins:
        pairs, preds, gated, opened, shapes = target.search_gates
        shape = shapes.get((ns, block))
        if shape is None:
            # the onto cut at each position: the target points still to
            # be hit and the positions left that can hit them, maximal
            # ones within the block and all of them past it; and for
            # target_twins, whether a gated point may be hit there
            shape = shapes[ns, block] = (
                (tmax,) * block + (tfull,) * (ns - block),
                (*range(block - 1, -1, -1), *range(ns - block - 1, -1, -1)),
                (bool(gated & tmax),) * block
                + (bool(gated & ~tmax),) * (ns - block))
        need, left, gates = shape
    if target_twins:
        allow[0] = tfull & ~gated  # nothing is hit yet
    else:
        gates = (False,) * ns
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
        if gates[pos]:
            key = img & preds
            mask = opened.get(key)
            if mask is None:
                mask = opened[key] = tfull & ~sum(
                    b for a, b in pairs if not key & a)
        else:
            mask = allow[pos]
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
# the most label pairs in the listed homs, one per element of the source
# algebra in each: about 36 MB of JSON; the 11-point antichain's algebra
# has 1,331 homs into the 3-point one's, 2,725,888 pairs
MAX_STAR_HOM_PAIRS = 1 << 20


def star_hom_pairs(A: UpSetLattice, B: UpSetLattice) -> list:
    """All (dual p-morphism, hom A -> B) pairs, each dual map certified.

    The dual tables are counted as the search yields them: past
    MAX_STAR_HOMS, or past MAX_STAR_HOM_PAIRS label pairs at A.size per
    hom, ValueError before any map or hom is built.
    """
    most = min(MAX_STAR_HOMS, MAX_STAR_HOM_PAIRS // A.size)
    tables = list(islice(_iter_p_morphisms(B.base, A.base), most + 1))
    if len(tables) > MAX_STAR_HOMS:
        raise ValueError("more than %d star homs from a %d-element algebra "
                         "into a %d-element one"
                         % (MAX_STAR_HOMS, A.size, B.size))
    if len(tables) > most:
        raise ValueError("more than %d label pairs in the star homs from a "
                         "%d-element algebra into a %d-element one"
                         % (MAX_STAR_HOM_PAIRS, A.size, B.size))
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
