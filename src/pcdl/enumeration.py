"""Enumeration of finite poset isomorphism classes.

Classes on n points are generated by canonical augmentation (McKay,
J. Algorithms 26, 1998): each class on n - 1 points, in sorted-key order,
gains one new maximal point over a down-set D, and the child is kept only
when (parent, D) is the first pair, in (parent order, down-set order), that
builds its class. Every other pair comes from deleting another maximal
point m of the child, so the test needs no table of classes seen:
- D must be the least member of its orbit under the parent's automorphisms;
- deleting m must not leave an earlier parent, which the sorted (up, down)
  counts leading every key mostly settle without building anything;
- where deleting m leaves the same parent, m's down-set, carried into the
  parent by the two canonical orderings, must not have an earlier orbit.
The representative of a class is thus the first candidate of the plain
filter that labels every pair, and each class is labelled once. Classes
with a bounded up-set count grow the same way, with the bound as a prune.
"""

from __future__ import annotations

from functools import cache

from .posets import Poset, bits


def _add_maximal(base: Poset, down_mask: int, new_label: str) -> Poset:
    new = 1 << base.n
    up = [u | new if down_mask >> i & 1 else u for i, u in enumerate(base.up)]
    return Poset(base.labels + (new_label,), up + [new])


def _orbit_minima(gens: tuple, down_sets: tuple) -> dict:
    """Down-set -> least member of its orbit under the group of gens."""
    out = {}
    if not gens:
        return out
    # down_sets is sorted, so the first member met of each orbit is least
    for d in down_sets:
        if d in out:
            continue
        out[d] = d
        frontier = [d]
        while frontier:
            m = frontier.pop()
            for g in gens:
                image = 0
                for i in bits(m):
                    image |= 1 << g[i]
                if image not in out:
                    out[image] = d
                    frontier.append(image)
    return out


def _round0_ties(base: Poset, tops: int, counts: list, round0: list,
                 dmask: int):
    """Maximal points whose deletion may give the parent of the child.

    tops is the mask of the parent's maximal points, counts holds its
    (up, down) counts and round0 their sorted list, the part of its key
    after the size. Deleting a maximal point m of the child other than the
    new one keeps every down count and lowers the up count of each point
    below m. None if some deletion sorts lower, so gives an earlier parent.
    """
    ties = []
    others = tops & ~dmask
    if not others:
        return ties
    grown = counts[:]
    for i in bits(dmask):
        u, d = grown[i]
        grown[i] = (u + 1, d)
    new = (1, dmask.bit_count() + 1)
    for m in bits(others):
        rest = grown[:]
        rest[m] = new
        for i in bits(base.down[m] ^ 1 << m):
            u, d = rest[i]
            rest[i] = (u - 1, d)
        rest.sort()
        if rest < round0:
            return None
        if rest == round0:
            ties.append(m)
    return ties


def _deletion_not_earlier(child: Poset, m: int, base: Poset, dmask: int,
                          orbit_min: dict) -> bool:
    """Whether (class of child - m, m's down-set) comes no earlier."""
    rest = child.restrict(child.full_mask ^ 1 << m)
    key, mine = rest.canonical_form()
    base_key, theirs = base.canonical_form()
    if key != base_key:
        return key > base_key
    # rest -> base through the canonical orderings; rest skips index m
    to_base = [0] * len(mine)
    for r, b in zip(mine, theirs):
        to_base[r] = b
    image = 0
    for i in bits(child.down[m] ^ 1 << m):
        image |= 1 << to_base[i - (i > m)]
    low = orbit_min.get(image, image)
    return (low.bit_count(), low) >= (dmask.bit_count(), dmask)


def _grow(level: tuple, max_upsets=None) -> tuple:
    """The classes one point larger than those of level, in key order.

    level lists the classes on k points in key order. With max_upsets, a
    child with more up-sets is pruned: it has the parent's up-sets, each
    with the new point, and those missing the down-set, without it.
    """
    kept = []
    for base in level:
        ups = base.up_sets() if max_upsets is not None else ()
        counts = [(u.bit_count(), d.bit_count())
                  for u, d in zip(base.up, base.down)]
        tops = sum(1 << i for i, (u, _) in enumerate(counts) if u == 1)
        round0 = sorted(counts)
        down_sets = base.down_sets()
        orbit_min = _orbit_minima(base._take_automorphisms(), down_sets)
        for dmask in down_sets:
            if orbit_min.get(dmask, dmask) != dmask:
                continue
            if max_upsets is not None and len(ups) + sum(
                    1 for u in ups if not u & dmask) > max_upsets:
                continue
            ties = _round0_ties(base, tops, counts, round0, dmask)
            if ties is None:
                continue
            child = _add_maximal(base, dmask, "p%d" % base.n)
            if all(_deletion_not_earlier(child, m, base, dmask, orbit_min)
                   for m in ties):
                kept.append((child.canonical_key(), child))
    # keys are distinct, so no two children are compared
    kept.sort()
    return tuple(child for _, child in kept)


@cache
def poset_classes_exactly(n: int) -> tuple:
    """One representative per isomorphism class on exactly n points."""
    if n < 0:
        raise ValueError("size must be nonnegative")
    if n == 0:
        return (Poset((), ()),)
    return _grow(poset_classes_exactly(n - 1))


@cache
def poset_classes_upto(n: int) -> tuple:
    """Every class of at most n points, by size, then key."""
    out = []
    for k in range(n + 1):
        out.extend(poset_classes_exactly(k))
    return tuple(out)


@cache
def classes_with_upsets_bounded(max_upsets: int) -> tuple:
    """All poset classes whose up-set lattice has at most max_upsets members.

    Classes come by size, then key, as in poset_classes_exactly. Deleting a
    maximal point strictly lowers the up-set count, so the deletions the
    canonicity test makes stay inside the bound, which is a plain prune.
    """
    if max_upsets < 1:
        return ()
    level = (Poset((), ()),)
    out = []
    while level:
        out.extend(level)
        level = _grow(level, max_upsets)
    return tuple(out)
