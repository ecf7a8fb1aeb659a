"""Amalgamation bases inside the bounded-fan varieties.

The decision procedure is dual: an algebra fails to be a base exactly when
some intermediate fan maps onto it from inside, i.e. when its dual poset
contains a point whose maximal cover set has one of the forbidden sizes.
A bounded search over extensions doubles as an independent oracle, and a
separation routine settles concrete two-sided embedding instances.
"""

from __future__ import annotations

from functools import cache
from math import comb
from typing import NamedTuple, Optional

from .algebras import (_dual, _iter_p_morphisms, _orbit_weight,
                       embedding_p_morphism_witness, fan_algebra, in_variety,
                       is_p_morphism, star_embedding_failure, star_homs,
                       variety_index)
from .duality import UpSetLattice
from .enumeration import poset_classes_exactly
from .posets import OrderMap, Poset, _twin_classes, bits, fan


class AmalgamationVerdict(NamedTuple):
    is_base: bool
    forbidden: tuple
    witnesses: dict


def is_amalgamation_base_finite(A, n: int) -> AmalgamationVerdict:
    """Decide whether A is an amalgamation base of the index-n variety.

    A is an algebra or its dual poset. A fan size i with 2 <= i < n is
    forbidden when A maps onto the fan algebra of rank i, that is, when
    fan(i) embeds in the dual of A; witnesses maps each forbidden size to
    such an embedding, found by one search per size. No point has more
    maximal points above it than the index of A, so the search stops at
    the index.
    """
    index = variety_index(A)
    if index > n:
        raise ValueError("algebra is outside the variety of index %d" % n)
    witnesses = {}
    for i in range(2, min(n, index + 1)):
        w = embedding_p_morphism_witness(A, i)
        if w is not None:
            witnesses[i] = w
    return AmalgamationVerdict(not witnesses, tuple(witnesses), witnesses)


def forbidden_images(A, n: int) -> list:
    """Fan sizes i with 2 <= i < n that A maps onto.

    A is an algebra or its dual poset. Nonempty output certifies that A is
    not an amalgamation base of the variety of index n.
    """
    return list(is_amalgamation_base_finite(A, n).forbidden)


def _find_lift(gamma: OrderMap, alpha: OrderMap) -> Optional[OrderMap]:
    """Backtracking lift of alpha through gamma, for any source poset.

    It serves lift_through (the lift command) and is the test oracle for
    the closed-form fan lift that the extension oracle and the q-model
    lift check use. The search runs into a copy of gamma's source listing
    its maximal points first, so maximal images are tried first.
    """
    Y = gamma.source
    order = sorted(range(Y.n), key=lambda y: Y.up[y] != 1 << y)
    where = {y: k for k, y in enumerate(order)}
    first = Poset([Y.labels[y] for y in order],
                  [sum(1 << where[z] for z in bits(Y.up[y])) for y in order])
    fiber = [0] * gamma.target.n
    for k, y in enumerate(order):
        fiber[gamma.table[y]] |= 1 << k
    for beta in _iter_p_morphisms(alpha.source, first,
                                  fibers=[fiber[a] for a in alpha.table]):
        return OrderMap(alpha.source, Y, [order[b] for b in beta])
    return None


def lift_through(gamma: OrderMap, alpha: OrderMap) -> Optional[OrderMap]:
    """A p-morphism beta with gamma o beta = alpha, or None.

    gamma must be an onto p-morphism and alpha a p-morphism into the same
    target; alpha may start anywhere, so the lift is found by backtracking.
    The returned map is re-verified on both counts.
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


def _max_rows(Y: Poset) -> list:
    """For each point y of Y, the indices of the maximal points above y."""
    maxes = Y.maximals_mask
    return [tuple(bits(u & maxes)) for u in Y.up]


def _field_width(n: int) -> int:
    """Bits per target point in a packed profile of fan(n) lifts.

    Every count in a profile that can fit is at most n, so a field holds
    n in its low bits and has one guard bit above them.
    """
    return n.bit_length() + 1


def _fiber_profiles(rows: list, table: tuple, n: int) -> dict:
    """Point p -> {profile: least point of Y over p with that profile}.

    rows is _max_rows(Y) and table the table of a map gamma from Y onto
    a poset P. The profile of y counts, for each point of P, the maximal
    points above y that gamma sends there, packed into one int with a
    field of _field_width(n) bits per point (point p in the p-th field
    from the bottom). A y with more than n maximal points above it fits
    no map of fan(n), so it is left out, and every packed count is at
    most n. Points are read in order, so each inner dict lists its
    profiles by their least points.
    """
    w = _field_width(n)
    out = {}
    for y, row in enumerate(rows):
        fiber = out.setdefault(table[y], {})
        if len(row) <= n:
            profile = 0
            for t in row:
                profile += 1 << table[t] * w
            fiber.setdefault(profile, y)
    return out


def _top_profile(alpha_table: tuple, m: int) -> tuple:
    """(image of the bottom, packed tops, guard) of a map of fan(n).

    The map runs into a poset of m points, and n is its number of tops.
    The packed tops count the tops sent to each point in the fields of
    _fiber_profiles, with every field's guard bit set; guard holds the m
    guard bits alone.
    """
    w = _field_width(len(alpha_table) - 1)
    guard = 0
    for p in range(m):
        guard |= 1 << p * w + w - 1
    tops = guard
    for p in alpha_table[1:]:
        tops += 1 << p * w
    return alpha_table[0], tops, guard


def _fan_lift(fibers: dict, top_profile: tuple) -> Optional[int]:
    """The least y that lifts a map of fan(n), n >= 1, or None.

    A lift sends the bottom to some y over alpha's bottom and the tops
    onto M(y), each top to a point over its own image. gamma carries M(y)
    onto M(alpha(bottom)), the image of the tops, so every top has a
    place to go; the lift exists exactly when some such y has at most as
    many maximal points over each p as alpha has tops there. Both counts
    are packed in fields below a guard bit, so one subtraction compares
    them all: a field borrows from its own guard bit exactly when the
    profile's count is the larger, and never past it. The first fitting
    profile, in the order of _fiber_profiles, has the least y.
    """
    bottom, tops, guard = top_profile
    for profile, y in fibers[bottom].items():
        if tops - profile & guard == guard:
            return y
    return None


def _fan_lift_table(rows: list, gamma_table: tuple, alpha_table: tuple,
                    y: int) -> tuple:
    """The lift of alpha through gamma at a y found by _fan_lift.

    The bottom goes to y, and the k-th top over each point p (from 0)
    goes to the (k mod j)-th of the j maximal points of y over p: dealt
    round-robin, which is onto M(y) as y fits.
    """
    pools = {}
    for u in rows[y]:
        pools.setdefault(gamma_table[u], []).append(u)
    table = [y]
    for p in alpha_table[1:]:
        pool = pools[p]
        u = pool.pop(0)
        pool.append(u)
        table.append(u)
    return tuple(table)


def _fan_lift_failure(Y: Poset, gamma_table: tuple, alpha_table: tuple,
                      beta_table: tuple) -> Optional[str]:
    """None if beta is a lift of alpha through gamma, else why not.

    The source is fan(n) with n >= 1, so the p-morphism condition is a
    check on the table: the tops must land exactly on M(beta(bottom)).
    That makes each top maximal and above the bottom's image, so beta is
    order-preserving and carries every maximal set onto a maximal set.
    beta composes back when gamma sends each point to alpha's image of it.
    """
    for a, b in zip(alpha_table, beta_table):
        if gamma_table[b] != a:
            return "lift does not compose back"
    tops = 0
    for b in beta_table[1:]:
        tops |= 1 << b
    if tops != Y.up[beta_table[0]] & Y.maximals_mask:
        return "lift is not a p-morphism"
    return None


class ExtensionResult(NamedTuple):
    """Outcome of a bounded search over extensions.

    The extension oracle answers holds or fails_with_witness; the
    congruence-extension search always answers yes, with no witness.
    instances counts the pairs decided, all in one process; the
    oracle's, on a failure, by whole twin-swap orbits up to its witness.
    """
    verdict: str
    witness: object
    instances: int
    bound: int


def _require_room(P: Poset, bound: int) -> None:
    """Refuse a bound below the size of P: no extension would fit in it."""
    if bound < P.n:
        raise ValueError("bound %d is below the %d points of the dual, so "
                         "no extension fits" % (bound, P.n))


def _shape(Y: Poset) -> tuple:
    """The shape of Y: what the extension filter's three rules read.

    That is its count of maximal points, the counts |M(y)| of maximal
    points above its non-maximal points, largest first, and its count of
    components (_extension_classes).
    """
    maxes = Y.maximals_mask
    sizes = sorted([(u & maxes).bit_count() for u in Y.up if u & ~maxes],
                   reverse=True)
    return maxes.bit_count(), tuple(sizes), len(Y.components())


@cache
def _class_shapes(k: int) -> dict:
    """The classes on exactly k points grouped by shape.

    Maps each shape (_shape) to the positions, ascending, of its classes
    in poset_classes_exactly(k): 0 to 7 points have 1, 1, 2, 4, 8, 17, 37
    and 82 shapes against 2,451 classes. The enumeration is deterministic,
    so the positions still name classes of the same shapes after
    poset_classes_exactly.cache_clear().
    """
    index = {}
    for pos, Y in enumerate(poset_classes_exactly(k)):
        index.setdefault(_shape(Y), []).append(pos)
    return {shape: tuple(where) for shape, where in index.items()}


# levels 0 to 9 list in about 25 s with a 518 MB peak in a fresh
# interpreter on a 2-core VM; level 10 holds 2,567,284 classes, 14 times
# level 9
_MAX_BOUND = 9


def _extension_classes(P: Poset, n: int, bound: int) -> list:
    """Classes Y of P.n to bound points, index at most n, in class order.

    Every Y with an onto p-morphism gamma to P is kept; a Y is dropped
    when one of these necessary conditions fails. Write M(y) for the
    maximal points above y; gamma carries M(y) onto M(gamma(y)).
    - Maximal points: for p maximal in P, a preimage y has gamma(M(y)) =
      {p}, so some maximal point of Y maps to p. Y has at least as many
      maximal points as P.
    - Hall profile: a maximal y has M(y) = {y}, so gamma(y) is maximal,
      and a non-maximal x of P has only non-maximal preimages, each with
      |M(y)| >= |M(x)|. Picking one preimage per x matches the
      non-maximal points of P to distinct non-maximal points of Y with at
      least as many maximal points above. With a and b the |M| lists of
      the non-maximal points of P and of Y, sorted largest first, such a
      matching exists exactly when b is at least as long as a and
      b_i >= a_i for every i.
    - Components: gamma preserves order, so it sends each connected
      component of Y into one component of P. Onto needs at least as
      many components in Y as in P.
    With the index (b_1, or 1 for a nonempty antichain), the three rules
    read only the shapes (_shape) of P and of Y: maximal count, list a or
    b, and component count. So each rule is decided once per shape of
    _class_shapes, and the classes of the kept shapes are read back in
    class order. A bound past _MAX_BOUND is refused before any level is
    listed.
    """
    if bound > _MAX_BOUND:
        raise ValueError("bound %d is past %d, the most points the "
                         "extension classes are listed to"
                         % (bound, _MAX_BOUND))
    n_max, need, parts = _shape(P)
    out = []
    for k in range(P.n, bound + 1):
        # a nonempty antichain has index 1
        floor = min(k, 1)
        kept = []
        for (tops, sizes, comps), where in _class_shapes(k).items():
            if tops < n_max or comps < parts \
                    or (sizes[0] if sizes else floor) > n \
                    or len(sizes) < len(need) \
                    or any(b < a for a, b in zip(need, sizes)):
                continue
            kept += where
        kept.sort()
        out += map(poset_classes_exactly(k).__getitem__, kept)
    return out


def _extension_class_task(Y: Poset, P: Poset, first: dict,
                          alpha_tables: list) -> tuple:
    """(instances, (gamma table, alpha table) of the first failure or None).

    The gammas are read one per orbit of Y's twin swaps (_twin_classes),
    in search order, and for each, the alphas in order; the alphas are
    maps of fan(n) into P, so each lift is the closed-form test of
    _fan_lift, which reads only alpha's top profile. first maps each top
    profile to the index of its first alpha, in alpha order, and each
    profile is tested once per gamma, in that order.

    A swap sigma is an automorphism of Y, and beta lifts alpha through
    gamma o sigma exactly when sigma o beta lifts it through gamma, so a
    whole orbit fails or none of it does. The representative is the
    least member of its orbit in search order, so the first failing one
    is the first failing gamma of plain enumeration, and its first
    failing profile holds the same alpha. Each representative that lifts
    adds its orbit's size (_orbit_weight) times the alpha count; the
    failing one adds the alphas up to its witness. So on a failure the
    count is at least the plain one, and equal to it unless an earlier
    orbit has a member that sorts after the witness.
    """
    alphas = len(alpha_tables)
    if not alphas:  # fan(n) has no map into an empty P
        return 0, None
    n = len(alpha_tables[0]) - 1
    rows = _max_rows(Y)
    twins = _twin_classes(Y)
    instances = 0
    for gamma in _iter_p_morphisms(Y, P, onto=True, twins=True):
        fibers = _fiber_profiles(rows, gamma, n)
        for key, k in first.items():
            if _fan_lift(fibers, key) is None:
                return instances + k + 1, (gamma, alpha_tables[k])
        instances += alphas * (_orbit_weight(gamma, twins) if twins else 1)
    return instances, None


# the oracle lists every map of fan(n) into P before it reads a class;
# into a point with three maximals above it there are 55,980 for n = 10
_MAX_FAN_MAPS = 100_000


def _fan_map_count(P: Poset, n: int) -> Optional[int]:
    """The number of p-morphisms fan(n) -> P, in closed form.

    Such a map sends the bottom to some b and the n tops onto M(b). A
    maximal b takes the whole fan, one map; any other b with k maximal
    points above it takes the k! S(n, k) onto maps of n tops to M(b),
    counted by inclusion-exclusion. For 2 <= k <= n that is at least
    2^n - 2, so past n = 64 such a b gives None, not a count whose digits
    cost time and memory to work out.
    """
    maxes = P.maximals_mask
    count = 0
    for row in P.up:
        k = (row & maxes).bit_count()
        if row & ~maxes:
            if k > 1 and n > 64:
                return None
            count += sum((-1) ** j * comb(k, j) * (k - j) ** n
                         for j in range(k + 1))
        else:
            count += 1
    return count


def extension_property_bounded(A, n: int,
                               bound: Optional[int] = None) -> ExtensionResult:
    """Check that every map of A to the top fan extends along extensions.

    A is an algebra or its dual poset. Extensions range over duals of at
    most bound points inside the index-n variety that map onto the dual
    of A; the maps are the duals of all algebra maps into the fan algebra
    of rank n, so each lift is a map of fan(n) and is decided in closed
    form (_fan_lift) with no search. holds means every such map lifted;
    a failed lift is returned as a witness triple, the first failing
    gamma and alpha of plain enumeration. Classes are read in order, in
    this process, and the search stops at the first witness. On a
    failure, instances counts the witness's class by whole twin-swap
    orbits (_extension_class_task). bound defaults to three points more
    than P(A); a bound below the size of P(A) is refused, as it would
    hold vacuously, and so is an n with more than _MAX_FAN_MAPS maps of
    fan(n) into P(A) (_fan_map_count), before any is listed.
    """
    if not in_variety(A, n):
        raise ValueError("algebra is outside the variety of index %d" % n)
    P = _dual(A)
    if bound is None:
        bound = P.n + 3
    _require_room(P, bound)
    maps = _fan_map_count(P, n)
    if maps is None or maps > _MAX_FAN_MAPS:
        shown = "at least 2^%d - 2" % n if maps is None else format(maps, ",")
        raise ValueError("the oracle would list %s maps of fan(%d) into the "
                         "dual; it takes at most %s"
                         % (shown, n, format(_MAX_FAN_MAPS, ",")))
    V = fan(n)
    tables = list(_iter_p_morphisms(V, P))
    first = {}
    for k, table in enumerate(tables):
        first.setdefault(_top_profile(table, P.n), k)
    instances = 0
    for Y in _extension_classes(P, n, bound):
        count, witness = _extension_class_task(Y, P, first, tables)
        instances += count
        if witness is not None:
            gamma = OrderMap(Y, P, witness[0])
            alpha = OrderMap(V, P, witness[1])
            return ExtensionResult("fails_with_witness",
                                   (Y, gamma, alpha), instances, bound)
    return ExtensionResult("holds", None, instances, bound)


class SeparationResult(NamedTuple):
    amalgamable: bool
    witness: object
    checked_pairs: int


def amalgamate_or_separate(A: UpSetLattice, B0: UpSetLattice,
                           B1: UpSetLattice,
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
        if emb.source != A:
            raise ValueError("%s does not start at A" % name)
        if emb.target != tgt:
            raise ValueError("%s does not land in its extension" % name)
        failure = star_embedding_failure(emb)
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
