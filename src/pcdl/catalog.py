"""Survey of all small dual posets against the base criterion."""

from __future__ import annotations

from .algebras import variety_index
from .amalgamation import extension_property_bounded, forbidden_images
from .enumeration import poset_classes_exactly

# the most points of the listed posets
MAX_POINTS = 6
# the most points the oracle's extensions may have: listing the classes up
# to 9 points, the default bound of a 6-point dual, takes about 25 s before
# the first one is read
MAX_ORACLE_BOUND = 8


def catalog(max_points: int, n: int, oracle: bool = False,
            bound=None) -> list:
    """One row per isomorphism class of posets on exactly max_points points.

    Each row reports the algebra size, variety index, multiset of maximal
    cover set sizes, the criterion verdict for the index-n variety, and
    the forbidden sizes behind it. With oracle=True the bounded extension
    search is run in this process as an independent check, at bound
    points (None for the oracle's default, three points more than the
    dual); a bound past MAX_ORACLE_BOUND is refused before any class is
    listed. Every column is read off the dual poset, so no algebra is
    built.
    """
    if max_points > MAX_POINTS:
        raise ValueError("catalog is limited to posets on at most %d points"
                         % MAX_POINTS)
    if oracle:
        reach = max_points + 3 if bound is None else bound
        if reach > MAX_ORACLE_BOUND:
            raise ValueError("bound %d is past %d, the most points catalog "
                             "runs the oracle to" % (reach, MAX_ORACLE_BOUND))
    rows = []
    for P in poset_classes_exactly(max_points):
        idx = variety_index(P)
        d = P.to_dict()
        row = {
            "elements": d["elements"],
            "covers": d["covers"],
            "points": P.n,
            "algebra_size": len(P.up_sets()),
            "variety_index": idx,
            "m_sizes": sorted(P.max_above(x).bit_count()
                              for x in range(P.n)),
        }
        if idx > n:
            row["verdict"] = "not_in_variety"
            row["forbidden"] = []
        else:
            forb = forbidden_images(P, n)
            row["verdict"] = "base" if not forb else "not_base"
            row["forbidden"] = forb
        if oracle and idx <= n:
            res = extension_property_bounded(P, n, bound)
            row["oracle"] = res.verdict
            row["oracle_instances"] = res.instances
        rows.append(row)
    return rows
