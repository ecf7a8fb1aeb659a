"""A finite family of counterexample models built from fans.

Each model glues a row of four-point fans into a big poset, marks some
components as merged, and quotients those by identifying one outer point
with another. The full algebra of the big poset is an amalgamation base
of the index-3 variety, while the quotient acquires rank-2 fan images as
soon as one merged component is present. The routines below verify the
construction step by step: the collapse map, the separation facts the
construction rests on, and the case analysis of lifts of maps into the
rank-3 fan algebra. That analysis keeps no lift rule of its own: one
lift per top profile is built from the closed form the extension oracle
decides with, labelled by case, and certified on its table: the tops
land exactly on the maximal points over the bottom's image, and the
lift composes back.
"""

from __future__ import annotations

from itertools import chain
from typing import NamedTuple

from .algebras import (_iter_p_morphisms, _twin_swap_count,
                       p_morphism_failure, p_morphisms)
from .amalgamation import (_extension_classes, _fan_lift, _fan_lift_failure,
                           _fan_lift_table, _fiber_profiles, _max_rows,
                           _top_profile, forbidden_images)
from .posets import OrderMap, Poset, bits, fan


class QuotientModel(NamedTuple):
    """A row of fans, its merged quotient, and the collapse map.

    Components 1..full_fans are kept whole; the following merged_fans
    components lose their c point in the quotient, and collapse sends
    that point to the a point of its component. Role and component
    tuples are indexed by poset position.
    """
    full_fans: int
    merged_fans: int
    total: Poset
    quotient: Poset
    collapse: OrderMap
    total_roles: tuple
    quotient_roles: tuple
    total_component: tuple
    quotient_component: tuple


def build_quotient_model(full: int, merged: int) -> QuotientModel:
    if full < 0 or merged < 0 or full + merged < 1:
        raise ValueError("need at least one component")
    labels, covers = [], []
    for z in range(1, full + merged + 1):
        g, a, b, c = ("%s%d" % (r, z) for r in "gabc")
        labels += [g, a, b, c]
        covers += [(g, a), (g, b), (g, c)]
    total = Poset.from_covers(labels, covers)
    roles = ("george", "a", "b", "c") * (full + merged)
    comp = tuple(i // 4 + 1 for i in range(total.n))
    # merged components lose their c point, which collapses onto their a
    keep = total.full_mask
    for z in range(full, full + merged):
        keep ^= 1 << 4 * z + 3
    quotient = total.restrict(keep)
    kept = list(bits(keep))
    pos = {i: k for k, i in enumerate(kept)}
    collapse = OrderMap(total, quotient,
                        [pos[i if keep >> i & 1 else i - 2]
                         for i in range(total.n)])
    failure = p_morphism_failure(collapse)
    if failure is not None:
        raise AssertionError("collapse is not a p-morphism: %r" % (failure,))
    if not collapse.is_onto():
        raise AssertionError("collapse is not onto")
    return QuotientModel(full, merged, total, quotient, collapse,
                         roles, tuple(roles[i] for i in kept), comp,
                         tuple(comp[i] for i in kept))


class CollapseReport(NamedTuple):
    passed: bool
    entries: tuple
    component_embeddings: tuple


def verify_collapse(model: QuotientModel) -> CollapseReport:
    """Recheck the collapse map point by point.

    Each entry records a point of the big poset, its image, and whether
    the image of its maximal cover set is exactly the maximal cover set
    of the image. On top of the pointwise checks, the map must be onto,
    order-preserving, and an order-embedding on every full component.
    """
    g = model.collapse
    entries = []
    ok = g.is_order_preserving() and g.is_onto()
    for y in range(model.total.n):
        want = model.quotient.max_above(g(y))
        got = g.image_of_mask(model.total.max_above(y))
        good = want == got
        ok = ok and good
        entries.append((model.total.labels[y], model.quotient.labels[g(y)],
                        good))
    component_embeddings = []
    for z in range(1, model.full_fans + 1):
        pts = [i for i in range(model.total.n)
               if model.total_component[i] == z]
        good = len({g(i) for i in pts}) == len(pts)
        for i in pts:
            for j in pts:
                if model.total.leq(i, j) != model.quotient.leq(g(i), g(j)):
                    good = False
        ok = ok and good
        component_embeddings.append((z, good))
    return CollapseReport(ok, tuple(entries), tuple(component_embeddings))


class SeparationReport(NamedTuple):
    passed: bool
    separation_checks: int
    disconnected_pairs: int
    downset_formula_checks: int
    vacuous: bool


# each component of the total poset is a fan(3) with 9 up-sets, so the
# down-set formula check lists 9 ** components of them
_SEPARATION_MAX_COMPONENTS = 6


def verify_separation(model: QuotientModel) -> SeparationReport:
    """Check the order facts the quotient construction rests on.

    For each full component, the principal up-sets of the a and c points
    separate the two in both directions. Points of distinct components
    are incomparable. For every up-set R of either poset, the down
    closure of R is R together with the bottoms of the components R
    meets. The first family of checks is vacuous when there are no full
    components. A model of more than six components is refused before
    any up-set is listed: its total poset has over 4.7 million.
    """
    parts = model.full_fans + model.merged_fans
    if parts > _SEPARATION_MAX_COMPONENTS:
        raise ValueError("the separation check would list %s up-sets of the "
                         "total poset (9^%d); it takes at most %d components"
                         % (format(9 ** parts, ","), parts,
                            _SEPARATION_MAX_COMPONENTS))
    passed = True
    separation_checks = 0
    total = model.total
    for z in range(1, model.full_fans + 1):
        ia = total.index_of("a%d" % z)
        ic = total.index_of("c%d" % z)
        up_a, up_c = total.up[ia], total.up[ic]
        for inside, outside in ((up_a, ic), (up_c, ia)):
            separation_checks += 1
            if inside >> outside & 1:
                passed = False
    disconnected_pairs = 0
    for poset, comp in ((total, model.total_component),
                        (model.quotient, model.quotient_component)):
        for i in range(poset.n):
            for j in range(i + 1, poset.n):
                if comp[i] == comp[j]:
                    continue
                disconnected_pairs += 1
                if poset.leq(i, j) or poset.leq(j, i):
                    passed = False
    downset_formula_checks = 0
    for poset, comp in ((total, model.total_component),
                        (model.quotient, model.quotient_component)):
        georges = {}
        for i, role in enumerate(model.total_roles if poset is total
                                 else model.quotient_roles):
            if role == "george":
                georges[comp[i]] = i
        for r in poset.up_sets():
            downset_formula_checks += 1
            expect = r
            for i in bits(r):
                expect |= 1 << georges[comp[i]]
            if poset.down_closure(r) != expect:
                passed = False
    return SeparationReport(passed, separation_checks, disconnected_pairs,
                            downset_formula_checks,
                            model.full_fans == 0)


class LiftCaseReport(NamedTuple):
    case_counts: dict
    failures: tuple
    uncovered: int
    instances: int
    bound: int


def _classify_alpha(model: QuotientModel, alpha: OrderMap) -> str:
    """Case label for a map of the rank-3 fan into the quotient."""
    P = model.quotient
    v = alpha(0)
    if P.up[v] == 1 << v:
        return "1"
    if model.quotient_roles[v] != "george":
        raise AssertionError("fan bottom landed on a non-bottom, non-maximal "
                             "point %r" % P.labels[v])
    if model.quotient_component[v] <= model.full_fans:
        return "2"
    return "3"


def _fixed_maps(model: QuotientModel) -> tuple:
    """The identity on the quotient and the collapse from the big poset,
    each as (Y, (its table,))."""
    P = model.quotient
    return ((P, (tuple(range(P.n)),)),
            (model.total, (model.collapse.table,)))


def check_lift_cases(model: QuotientModel, bound: int) -> LiftCaseReport:
    """Run the lift construction over extensions of the quotient.

    Instances pair an onto p-morphism gamma from an extension poset onto
    the quotient with a map alpha of the rank-3 fan into the quotient.
    The case is where alpha sends the fan bottom: a maximal point (case
    1), the bottom of a full component (case 2) or the bottom of a merged
    component (case 3). Every lift comes from the closed form the
    extension oracle shares (amalgamation._fan_lift): the least fiber
    point y whose maximal points fit over alpha's tops, read from
    profiles packed for fan(3) (amalgamation._fiber_profiles), with the
    tops dealt onto M(y). A case 3 lift is 3a or 3b as M(y) has two or
    three points. Case 3 instances where no y fits are tallied as
    uncovered; in cases 1 and 2 a lift always exists, so a missing one
    is a failure. Each built lift is certified on its table
    (amalgamation._fan_lift_failure), with no map object: one that does
    not compose back to alpha or is not a p-morphism is a failure too.
    failures must stay empty.

    Alphas with one top profile (amalgamation._top_profile) differ by a
    permutation s of the fan's tops, an automorphism of the fan, and if
    beta lifts alpha, then beta o s lifts alpha o s: gamma o beta o s =
    alpha o s, and a composite of p-morphisms is one. So each (gamma,
    profile) is decided, built and certified once, for its first alpha,
    and counted once per alpha; a failed profile adds one failure per
    alpha, in alpha order.

    The identity on the quotient and the collapse map from the big poset
    are always included; extensions of at most bound points are
    enumerated on top of them. So a fixed map whose source has at most
    bound points is read twice: once fixed, and once among the onto maps
    of its own class. At bound 7 the quotient's class is listed for
    models (0,1), (1,0), (1,1) and (0,2), and the big poset's for (0,1)
    and (1,0), where it is the quotient's; the pinned counts of the nine
    benchmark models (perfbench QMODEL_LIFTS) hold these reads.

    Within an extension class, the gammas are read one per orbit of the
    quotient's twin swaps (_iter_p_morphisms with target_twins), and each
    counts _twin_swap_count times. That is exact: for a swap tau, the
    pair (tau o gamma, alpha) has the same fitting y as (gamma, tau^-1 o
    alpha), so the same least y, lift and 3a/3b label, and alpha ->
    tau^-1 o alpha permutes the alphas. Every twin class of a quotient
    lies in the tops of one component, so tau fixes every non-maximal
    point and every component, and alpha and tau^-1 o alpha have one
    case. A class with a failure is read again gamma by gamma, so
    failures come in the order of plain enumeration.
    """
    P = model.quotient
    alphas = p_morphisms(fan(3), P)
    keys = [_top_profile(alpha.table, P.n) for alpha in alphas]
    orbits = {}
    for alpha, key in zip(alphas, keys):
        if key not in orbits:
            orbits[key] = [0, alpha.table, _classify_alpha(model, alpha)]
        orbits[key][0] += 1

    def tally(Y, gammas, plain):
        """(counts, failures, uncovered, instances) of gammas, one map
        each; None at the first failure unless plain."""
        rows = _max_rows(Y)
        counts = dict.fromkeys(("1", "2", "3a", "3b"), 0)
        failures = []
        uncovered = read = 0
        for gamma in gammas:
            read += 1
            fibers = _fiber_profiles(rows, gamma, 3)
            failed = {}
            for key, (size, first, case) in orbits.items():
                y = _fan_lift(fibers, key)
                if y is None:
                    if case == "3":
                        uncovered += size
                    else:
                        failed[key] = "no lift in case %s" % case
                    continue
                failure = _fan_lift_failure(
                    Y, gamma, first, _fan_lift_table(rows, gamma, first, y))
                if failure is not None:
                    failed[key] = failure
                elif case == "3":
                    counts["3a" if len(rows[y]) == 2 else "3b"] += size
                else:
                    counts[case] += size
            if failed:
                if not plain:
                    return None
                failures += [(OrderMap(Y, P, gamma), alpha, failed[key])
                             for alpha, key in zip(alphas, keys)
                             if key in failed]
        return counts, failures, uncovered, read * len(alphas)

    swaps = _twin_swap_count(P)
    reads = chain(((Y, gammas, 1) for Y, gammas in _fixed_maps(model)),
                  ((Y, _iter_p_morphisms(Y, P, onto=True, target_twins=True),
                    swaps) for Y in _extension_classes(P, 3, bound)))
    counts = dict.fromkeys(("1", "2", "3a", "3b"), 0)
    failures = []
    uncovered = 0
    instances = 0
    for Y, gammas, weight in reads:
        got = tally(Y, gammas, weight == 1)
        if got is None:
            got, weight = tally(Y, _iter_p_morphisms(Y, P, onto=True),
                                True), 1
        for case, count in got[0].items():
            counts[case] += count * weight
        failures += got[1]
        uncovered += got[2] * weight
        instances += got[3] * weight
    return LiftCaseReport(counts, tuple(failures), uncovered, instances,
                          bound)


class DivergenceReport(NamedTuple):
    total_forbidden: tuple
    quotient_forbidden: tuple
    lift: LiftCaseReport
    diverges: bool
    text: str


def divergence_report(model: QuotientModel, bound: int) -> DivergenceReport:
    """Contrast the base behaviour of the big algebra and its quotient."""
    tf = tuple(forbidden_images(model.total, 3))
    qf = tuple(forbidden_images(model.quotient, 3))
    lift = check_lift_cases(model, bound)
    diverges = not tf and bool(qf)
    if diverges:
        text = ("the big algebra is an amalgamation base of the index-3 "
                "variety, but its quotient maps onto the rank-%d fan "
                "algebra and is not; the lift construction covered %d of "
                "%d instances with no failures, and the %d uncovered "
                "instances have no lift inside the finite model at all"
                % (qf[0], sum(lift.case_counts.values()), lift.instances,
                   lift.uncovered))
    elif model.merged_fans == 0:
        text = ("no merged components: the quotient equals the big algebra "
                "and both are amalgamation bases of the index-3 variety")
    else:
        text = ("no divergence detected: forbidden sizes %r and %r"
                % (tf, qf))
    return DivergenceReport(tf, qf, lift, diverges, text)
