"""Enumeration of finite poset isomorphism classes.

Classes on n points are generated by adding one new maximal point over every
down-set of every class on n - 1 points, deduplicating by canonical key.
"""

from __future__ import annotations

from functools import cache

from .posets import Poset


def _add_maximal(base: Poset, down_mask: int, new_label: str) -> Poset:
    new = 1 << base.n
    up = [u | new if down_mask >> i & 1 else u for i, u in enumerate(base.up)]
    return Poset(base.labels + (new_label,), up + [new])


@cache
def poset_classes_exactly(n: int) -> tuple:
    """One representative per isomorphism class on exactly n points."""
    if n < 0:
        raise ValueError("size must be nonnegative")
    if n == 0:
        return (Poset((), ()),)
    seen = {}
    for base in poset_classes_exactly(n - 1):
        for dmask in base.down_sets():
            cand = _add_maximal(base, dmask, "p%d" % (n - 1))
            key = cand.canonical_key()
            if key not in seen:
                seen[key] = cand
    return tuple(seen[k] for k in sorted(seen))


@cache
def poset_classes_upto(n: int) -> tuple:
    out = []
    for k in range(n + 1):
        out.extend(poset_classes_exactly(k))
    return tuple(out)


@cache
def classes_with_upsets_bounded(max_upsets: int) -> tuple:
    """All poset classes whose up-set lattice has at most max_upsets members.

    Removing a maximal point strictly shrinks the up-set count, so growing
    by one maximal point at a time with the bound as a prune is exhaustive.
    """
    if max_upsets < 1:
        return ()
    start = Poset((), ())
    frontier = {start.canonical_key(): start}
    out = dict(frontier)
    while frontier:
        nxt = {}
        for base in frontier.values():
            ups = base.up_sets()
            for dmask in base.down_sets():
                grown = len(ups) + sum(1 for u in ups if not u & dmask)
                if grown > max_upsets:
                    continue
                cand = _add_maximal(base, dmask, "p%d" % base.n)
                key = cand.canonical_key()
                if key not in out:
                    out[key] = cand
                    nxt[key] = cand
        frontier = nxt
    return tuple(out[k] for k in sorted(out, key=lambda k: (k[0], k)))
