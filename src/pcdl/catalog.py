"""Survey of all small dual posets against the base criterion."""

from __future__ import annotations

from .algebras import variety_index
from .amalgamation import extension_property_bounded, forbidden_images
from .enumeration import poset_classes_exactly


def catalog(max_points: int, n: int, oracle: bool = False, bound=None,
            jobs: int = 1) -> list:
    """One row per isomorphism class of posets on exactly max_points points.

    Each row reports the algebra size, variety index, multiset of maximal
    cover set sizes, the criterion verdict for the index-n variety, and
    the forbidden sizes behind it. With oracle=True the bounded extension
    search is run as an independent check, at bound points (None for
    the oracle's default). Every column is read off the dual poset, so
    no algebra is built.
    """
    if max_points > 6:
        raise ValueError("catalog is limited to posets on at most 6 points")
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
            res = extension_property_bounded(P, n, bound, jobs=jobs)
            row["oracle"] = res.verdict
            row["oracle_instances"] = res.instances
        rows.append(row)
    return rows
