"""Independent brute-force reference implementations.

Everything here recomputes results from first principles with the dumbest
possible method, so the fast library paths have something honest to be
checked against. No function in this file may call into the library
except to read off carrier data (labels, leq, tables).
"""

import itertools


def check_partial_order(n, leq) -> bool:
    """Reflexive, antisymmetric, transitive, by full triple scan."""
    for i in range(n):
        if not leq(i, i):
            return False
    for i in range(n):
        for j in range(n):
            if i != j and leq(i, j) and leq(j, i):
                return False
            for k in range(n):
                if leq(i, j) and leq(j, k) and not leq(i, k):
                    return False
    return True


def closure_from_covers(n, cover_pairs):
    """leq matrix from cover pairs by repeated relational squaring."""
    leq = [[i == j for j in range(n)] for i in range(n)]
    for lo, hi in cover_pairs:
        leq[lo][hi] = True
    changed = True
    while changed:
        changed = False
        for i in range(n):
            for j in range(n):
                if leq[i][j]:
                    continue
                if any(leq[i][k] and leq[k][j] for k in range(n)):
                    leq[i][j] = True
                    changed = True
    return leq


def from_covers_warshall(n, pairs) -> tuple:
    """(reflexive up-set masks, None), or (None, least point on a cycle).

    The closure of strict pairs (lo, hi) of indices, by the Warshall loop
    Poset.from_covers ran before it closed in topological order.
    """
    above = [0] * n
    for lo, hi in pairs:
        above[lo] |= 1 << hi
    for k in range(n):
        for i in range(n):
            if above[i] >> k & 1:
                above[i] |= above[k]
    for i in range(n):
        if above[i] >> i & 1:
            return None, i
    return tuple(above[i] | 1 << i for i in range(n)), None


def upsets_brute(poset) -> list:
    """All up-set masks by filtering every subset."""
    n = poset.n
    out = []
    for mask in range(1 << n):
        ok = True
        for i in range(n):
            if not mask >> i & 1:
                continue
            for j in range(n):
                if poset.leq(i, j) and not mask >> j & 1:
                    ok = False
        if ok:
            out.append(mask)
    return sorted(out)


def maximals_above(poset, x) -> frozenset:
    above = [y for y in range(poset.n) if poset.leq(x, y)]
    return frozenset(y for y in above
                     if all(not poset.leq(y, z) or y == z
                            for z in range(poset.n)))


def is_p_morphism_raw(source, target, table) -> bool:
    n = source.n
    for i in range(n):
        for j in range(n):
            if source.leq(i, j) and not target.leq(table[i], table[j]):
                return False
    for y in range(n):
        image = frozenset(table[u] for u in maximals_above(source, y))
        if image != maximals_above(target, table[y]):
            return False
    return True


def all_p_morphisms_raw(source, target, onto=False) -> list:
    ns, nt = source.n, target.n
    if ns == 0:
        if onto and nt > 0:
            return []
        return [()]
    if nt == 0:
        return []
    out = []
    for table in itertools.product(range(nt), repeat=ns):
        if onto and len(set(table)) != nt:
            continue
        if is_p_morphism_raw(source, target, table):
            out.append(table)
    return out


def first_lift_brute(gamma, alpha, maximal_first=True):
    """The least lift of alpha through gamma as an index tuple, or None.

    Lifts are the p-morphisms beta of all_p_morphisms_raw with gamma o beta
    = alpha. They are compared on their images of the source points taken
    by (number of points above, index), each image ranked maximal points
    of gamma's source first, then by index; with maximal_first false, by
    index alone.
    """
    source, Y = alpha.source, gamma.source
    order = sorted(range(source.n),
                   key=lambda i: (sum(source.leq(i, j)
                                      for j in range(source.n)), i))
    rank = [(maximal_first and maximals_above(Y, t) != {t}, t)
            for t in range(Y.n)]
    lifts = [beta for beta in all_p_morphisms_raw(source, Y)
             if all(gamma.table[beta[v]] == alpha.table[v]
                    for v in range(source.n))]
    return min(lifts, key=lambda beta: [rank[beta[v]] for v in order],
               default=None)


def iso_brute(p, q):
    """An isomorphism as an index tuple, or None. Permutation scan."""
    if p.n != q.n:
        return None
    for perm in itertools.permutations(range(p.n)):
        if all(p.leq(i, j) == q.leq(perm[i], perm[j])
               for i in range(p.n) for j in range(p.n)):
            return perm
    return None


def congruences_algebra_side(size, join, meet, star) -> int:
    """Number of congruences, computed on the algebra itself.

    Partitions are canonical restricted growth strings. Principal
    congruences are generated by closing a pair under the operations,
    and the full congruence set is the closure of the principals under
    pairwise join (transitive closure of the union).
    """
    def canon(parent):
        roots = {}
        rgs = []
        for i in range(size):
            r = i
            while parent[r] != r:
                r = parent[r]
            if r not in roots:
                roots[r] = len(roots)
            rgs.append(roots[r])
        return tuple(rgs)

    def close(pairs):
        blocks = list(range(size))

        def find(i):
            while blocks[i] != i:
                blocks[i] = blocks[blocks[i]]
                i = blocks[i]
            return i

        def union(i, j):
            ri, rj = find(i), find(j)
            if ri != rj:
                blocks[max(ri, rj)] = min(ri, rj)
                return True
            return False

        for a, b in pairs:
            union(a, b)
        changed = True
        while changed:
            changed = False
            reps = canon(blocks)
            for a in range(size):
                for b in range(size):
                    if reps[a] != reps[b]:
                        continue
                    if union(star[a], star[b]):
                        changed = True
                    for c in range(size):
                        if union(join[a][c], join[b][c]):
                            changed = True
                        if union(meet[a][c], meet[b][c]):
                            changed = True
        return canon(blocks)

    found = {canon(list(range(size)))}
    principals = set()
    for a in range(size):
        for b in range(a + 1, size):
            principals.add(close([(a, b)]))
    found |= principals
    frontier = set(found)
    while frontier:
        fresh = set()
        for theta in frontier:
            for psi in principals:
                pairs = [(i, j) for i in range(size) for j in range(size)
                         if theta[i] == theta[j] or psi[i] == psi[j]]
                merged = close(pairs)
                if merged not in found:
                    fresh.add(merged)
        found |= fresh
        frontier = fresh
    return len(found)


def cube_plus_one_tables(n):
    """The n-cube with a new unit on top, as raw operation tables.

    Returns (labels, joins, meets). Element i < 2^n is the subset with
    mask i; element 2^n is the added unit.
    """
    size = (1 << n) + 1
    unit = 1 << n
    labels = ["s%d" % i for i in range(unit)] + ["u"]
    joins = [[0] * size for _ in range(size)]
    meets = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(size):
            if i == unit or j == unit:
                joins[i][j] = unit
                meets[i][j] = j if i == unit else i
            else:
                joins[i][j] = i | j
                meets[i][j] = i & j
    return labels, joins, meets


def cube_tables(n):
    """The Boolean lattice 2^n of subsets, as raw operation tables."""
    rng = range(1 << n)
    return (["s%d" % i for i in rng], [[i | j for j in rng] for i in rng],
            [[i & j for j in rng] for i in rng])


def diamond_tables(k=3):
    """The diamond M_k: bottom 0, k pairwise complementary atoms, top k+1.

    For k >= 3 it is not distributive; its k atoms are an antichain, so
    its join-irreducibles have 2^k up-sets.
    """
    top = k + 1
    rng = range(k + 2)
    joins = [[max(i, j) if min(i, j) == 0 or i == j else top for j in rng]
             for i in rng]
    meets = [[min(i, j) if max(i, j) == top or i == j else 0 for j in rng]
             for i in rng]
    return ["0"] + ["a%d" % i for i in range(1, top)] + ["1"], joins, meets


def chain_tables(n):
    """The n-element chain 0 < 1 < ... < n-1, as raw operation tables."""
    rng = range(n)
    return (["c%d" % i for i in rng], [[max(i, j) for j in rng] for i in rng],
            [[min(i, j) for j in rng] for i in rng])


def ordinal_sum_tables(a, b):
    """The ordinal sum: every element of a below every element of b.

    The elements of a come first, those of b after them.
    """
    (la, ja, ma), (lb, jb, mb) = a, b
    na, n = len(la), len(la) + len(lb)

    def table(ta, tb, mixed):
        return [[ta[i][j] if i < na and j < na
                 else na + tb[i - na][j - na] if i >= na and j >= na
                 else mixed(i, j) for j in range(n)] for i in range(n)]
    return list(la) + list(lb), table(ja, jb, max), table(ma, mb, min)


def product_tables(a, b):
    """Direct product of two (labels, joins, meets) triples."""
    (la, ja, ma), (lb, jb, mb) = a, b
    nb = len(lb)
    pairs = [(i, j) for i in range(len(la)) for j in range(nb)]
    labels = ["(%s,%s)" % (la[i], lb[j]) for i, j in pairs]
    joins = [[ja[i][k] * nb + jb[j][l] for k, l in pairs] for i, j in pairs]
    meets = [[ma[i][k] * nb + mb[j][l] for k, l in pairs] for i, j in pairs]
    return labels, joins, meets


def star_table_brute(size, join, meet):
    """Pseudocomplement of every element, or None where it breaks down.

    star(y) is the join of everything meeting y at the bottom; it only
    counts if it meets y at the bottom itself and sits above all of them.
    """
    bottom = 0
    for i in range(size):
        bottom = meet[bottom][i]

    def leq(i, j):
        return meet[i][j] == i

    out = []
    for y in range(size):
        zeros = [x for x in range(size) if meet[x][y] == bottom]
        s = bottom
        for x in zeros:
            s = join[s][x]
        if meet[s][y] != bottom or not all(leq(x, s) for x in zeros):
            out.append(None)
        else:
            out.append(s)
    return out


def random_relabel(poset, rng):
    """An isomorphic copy of a poset under a random permutation.

    Up-sets are filled top down, each point's from those of its upper
    covers, so a copy of a long chain takes one OR per cover.
    """
    from pcdl import Poset, bits
    n = poset.n
    perm = list(range(n))
    rng.shuffle(perm)
    up = [0] * n
    for i in sorted(range(n), key=lambda i: poset.up[i].bit_count()):
        row = 1 << perm[i]
        for j in bits(poset.covers_up[i]):
            row |= up[perm[j]]
        up[perm[i]] = row
    return Poset(["r%d" % k for k in range(n)], up)


def random_poset(n, rng):
    """A random poset from a random DAG of forward edges."""
    from pcdl import Poset
    labels = ["q%d" % k for k in range(n)]
    covers = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                covers.append((labels[i], labels[j]))
    return Poset.from_covers(labels, covers)


def is_star_hom_raw(source, target, table, onto=False) -> bool:
    """Whether table is a {0,1}-hom of the algebras that keeps the star.

    source and target are read only through their carrier data: size,
    join, meet and star tables. With onto, every target element must be
    hit. Every pair of elements is scanned.
    """
    if table[source.bottom] != target.bottom or \
            table[source.top] != target.top:
        return False
    for i in range(source.size):
        if table[source.star(i)] != target.star(table[i]):
            return False
        for j in range(source.size):
            if table[source.join(i, j)] != target.join(table[i], table[j]):
                return False
            if table[source.meet(i, j)] != target.meet(table[i], table[j]):
                return False
    return not onto or set(table) == set(range(target.size))


def kernel_is_erasure(carrier, table, erased) -> bool:
    """Whether table identifies two up-sets exactly when they agree off
    the erased points, by scanning every pair."""
    for i, u in enumerate(carrier):
        for j, v in enumerate(carrier):
            if (table[i] == table[j]) != (u & ~erased == v & ~erased):
                return False
    return True


def restriction_matches(gamma_pres, keep_big, carrier, keep_small) -> bool:
    """Whether the pullback of a congruence restricts to it, pair by pair.

    carrier lists the up-sets of the small dual, gamma_pres their
    preimages, and keep_small and keep_big the points the congruence
    and its pullback keep.
    """
    n = len(carrier)
    for i in range(n):
        for j in range(i + 1, n):
            small = (carrier[i] & keep_small) == (carrier[j] & keep_small)
            big = (gamma_pres[i] & keep_big) == (gamma_pres[j] & keep_big)
            if small != big:
                return False
    return True


def _maximal_downs(poset) -> dict:
    """Maximal point -> mask of the points below it, by leq scan."""
    n = poset.n
    return {m: sum(1 << y for y in range(n) if poset.leq(y, m))
            for m in range(n)
            if all(z == m or not poset.leq(m, z) for z in range(n))}


def _is_congruence_mask_raw(downs, mask) -> bool:
    return not any(mask >> m & 1 and down & ~mask
                   for m, down in downs.items())


def extensile_per_pair(P, classes, onto_tables) -> tuple:
    """The bounded congruence-extension search, one (gamma, theta) at a time.

    classes lists the extension duals Y in search order, and onto_tables(Y)
    the tables of the onto p-morphisms Y -> P in search order. The thetas
    are the congruence masks of P, found by scanning every subset. Each
    pair is one instance: gamma must hit every point of P, and the union
    of its fibers over the points theta erases must be a congruence mask
    of Y, or AssertionError is raised. Returns ("yes", instances).
    """
    p_downs = _maximal_downs(P)
    thetas = [t for t in range(1 << P.n)
              if _is_congruence_mask_raw(p_downs, t)]
    instances = 0
    for Y in classes:
        y_downs = _maximal_downs(Y)
        for gamma in onto_tables(Y):
            fiber = [0] * P.n
            for y, p in enumerate(gamma):
                fiber[p] |= 1 << y
            if not all(fiber):
                raise AssertionError("gamma %r is not onto" % (gamma,))
            for theta in thetas:
                instances += 1
                pullback = 0
                for p in range(P.n):
                    if theta >> p & 1:
                        pullback |= fiber[p]
                if not _is_congruence_mask_raw(y_downs, pullback):
                    raise AssertionError(
                        "pullback of %s along %r is not a congruence mask"
                        % (bin(theta), gamma))
    return "yes", instances


def extension_classes_plain(P, n, bound) -> list:
    """The extension-class filter kept before the Hall and component checks.

    Every class of at most bound points, in class order, with at least as
    many points and maximal points as P, index at most n, and some point
    with as many maximal points above it as the most any point of P has.
    The class list itself is read from the library.
    """
    from pcdl import poset_classes_upto
    p_max = max((P.max_above(x).bit_count() for x in range(P.n)), default=0)
    n_max = P.maximals_mask.bit_count()
    out = []
    for Y in poset_classes_upto(bound):
        if Y.n < P.n or Y.maximals_mask.bit_count() < n_max:
            continue
        sizes = [Y.max_above(y).bit_count() for y in range(Y.n)]
        if sizes and (max(sizes) > n or max(sizes) < p_max):
            continue
        out.append(Y)
    return out


def extension_classes_by_scan(P, n, bound) -> list:
    """The extension-class filter decided class by class.

    Each class of P.n to bound points, in class order, is kept when it
    passes the maximal-count, Hall-profile and component rules of
    amalgamation._extension_classes, each read off the class itself. The
    class lists are read from the library.
    """
    from pcdl import poset_classes_exactly
    p_maxes = P.maximals_mask
    n_max = p_maxes.bit_count()
    need = sorted([(u & p_maxes).bit_count() for u in P.up if u & ~p_maxes],
                  reverse=True)
    parts = len(P.components())
    out = []
    for k in range(P.n, bound + 1):
        # a nonempty antichain has index 1
        floor = min(k, 1)
        for Y in poset_classes_exactly(k):
            maxes = Y.maximals_mask
            tops = maxes.bit_count()
            if tops < n_max:
                continue
            sizes = sorted([(u & maxes).bit_count()
                            for u in Y.up if u & ~maxes], reverse=True)
            if (sizes[0] if sizes else floor) > n or len(sizes) < len(need) \
                    or any(b < a for a, b in zip(need, sizes)):
                continue
            spread = tops - sizes[0] + 1 if sizes else tops
            if spread < parts or parts > 1 and len(Y.components()) < parts:
                continue
            out.append(Y)
    return out


def extension_class_task_plain(Y, P, profiles, alpha_tables) -> tuple:
    """The extension oracle's class task with every onto gamma read.

    This is amalgamation._extension_class_task before it read the gammas
    one per twin-swap orbit: (instances, (gamma table, alpha table) of the
    first failure or None), each profile tested once per gamma in the
    order of its first alpha. The oracle's profile table, profiles, is
    not read: this reference builds its own from alpha_tables. The search
    and lift helpers are read off their modules at call time, so a test
    may patch them.
    """
    from pcdl import algebras, amalgamation
    first = {}
    for k, table in enumerate(alpha_tables):
        first.setdefault(amalgamation._top_profile(table, P.n), k)
    n = len(alpha_tables[0]) - 1 if alpha_tables else 0
    rows = amalgamation._max_rows(Y)
    instances = 0
    for gamma in algebras._iter_p_morphisms(Y, P, onto=True):
        fibers = amalgamation._fiber_profiles(rows, gamma, n)
        for key, k in first.items():
            if amalgamation._fan_lift(fibers, key) is None:
                return instances + k + 1, (gamma, alpha_tables[k])
        instances += len(alpha_tables)
    return instances, None


def fan_lift_by_digits(rows, table, alpha_table, m):
    """The least y over alpha's bottom whose maximal points fit, or None.

    rows lists the maximal points above each point of Y and table maps Y
    to m points. y fits when, for each of the m points, no more of its
    maximal points go there than alpha sends tops: the profiles of
    amalgamation._fan_lift as tuples of counts, compared digit by digit.
    """
    tops = [0] * m
    for p in alpha_table[1:]:
        tops[p] += 1
    for y, row in enumerate(rows):
        if table[y] != alpha_table[0]:
            continue
        counts = [0] * m
        for t in row:
            counts[table[t]] += 1
        if all(c <= t for c, t in zip(counts, tops)):
            return y
    return None


def twin_classes_by_scan(poset) -> list:
    """Lists of two or more points with the same strict up-set and strict
    down-set, each in index order, by leq scan."""
    n = poset.n
    groups = {}
    for y in range(n):
        sig = (frozenset(z for z in range(n) if z != y and poset.leq(y, z)),
               frozenset(z for z in range(n) if z != y and poset.leq(z, y)))
        groups.setdefault(sig, []).append(y)
    return [g for g in groups.values() if len(g) > 1]


def extension_class_task_by_orbits(Y, P, profiles,
                                   alpha_tables) -> tuple:
    """The extension oracle's class task, counted by whole twin-swap orbits.

    Every onto gamma is read. The witness is that of
    extension_class_task_plain: the first failing gamma and its first
    failing alpha, the k-th. The count is the alphas times the gammas
    whose orbit's least member comes before the witness in search order,
    plus k + 1; with no failure, every gamma counts. An orbit's least
    member has the images of each twin class sorted along index order.
    As in extension_class_task_plain, profiles is not read. The search and
    lift helpers are read off their modules at call time, so a test may
    patch them.
    """
    from pcdl import algebras, amalgamation
    first = {}
    for k, table in enumerate(alpha_tables):
        first.setdefault(amalgamation._top_profile(table, P.n), k)
    n = len(alpha_tables[0]) - 1 if alpha_tables else 0
    rows = amalgamation._max_rows(Y)
    gammas = list(algebras._iter_p_morphisms(Y, P, onto=True))
    stop, extra, witness = len(gammas), 0, None
    for i, gamma in enumerate(gammas):
        fibers = amalgamation._fiber_profiles(rows, gamma, n)
        k = next((k for key, k in first.items()
                  if amalgamation._fan_lift(fibers, key) is None), None)
        if k is not None:
            stop, extra, witness = i, k + 1, (gamma, alpha_tables[k])
            break
    where = {gamma: i for i, gamma in enumerate(gammas)}
    classes = twin_classes_by_scan(Y)

    def least(gamma):
        table = list(gamma)
        for cls in classes:
            for y, p in zip(cls, sorted(gamma[y] for y in cls)):
                table[y] = p
        return tuple(table)
    before = sum(where[least(gamma)] < stop for gamma in gammas)
    return before * len(alpha_tables) + extra, witness


def lift_cases_per_alpha(model, bound):
    """The q-model lift check with one closed-form lift per (gamma, alpha).

    This is the loop of qmodel.check_lift_cases before it took one alpha
    per top profile: every alpha is classified, lifted, built into a table
    and certified on its own. The lift helpers are read off the
    amalgamation module at call time, so a test may patch them.
    """
    from pcdl import OrderMap, amalgamation, fan, p_morphisms, qmodel
    P = model.quotient
    V = fan(3)
    alphas = [(alpha, amalgamation._top_profile(alpha.table, P.n),
               qmodel._classify_alpha(model, alpha))
              for alpha in p_morphisms(V, P)]
    counts = {"1": 0, "2": 0, "3a": 0, "3b": 0}
    failures = []
    uncovered = 0
    instances = 0
    for Y, gammas in qmodel._onto_maps(model, bound):
        rows = amalgamation._max_rows(Y)
        for gamma in gammas:
            fibers = amalgamation._fiber_profiles(rows, gamma, V.n - 1)
            for alpha, key, case in alphas:
                instances += 1
                y = amalgamation._fan_lift(fibers, key)
                if y is None:
                    if case == "3":
                        uncovered += 1
                    else:
                        failures.append((OrderMap(Y, P, gamma), alpha,
                                         "no lift in case %s" % case))
                    continue
                failure = amalgamation._fan_lift_failure(
                    Y, gamma, alpha.table,
                    amalgamation._fan_lift_table(rows, gamma, alpha.table, y))
                if failure is not None:
                    failures.append((OrderMap(Y, P, gamma), alpha, failure))
                elif case == "3":
                    counts["3a" if len(rows[y]) == 2 else "3b"] += 1
                else:
                    counts[case] += 1
    return qmodel.LiftCaseReport(counts, tuple(failures), uncovered,
                                 instances, bound)


def order_preserving_maps_raw(source, target) -> list:
    """Every order-preserving table source -> target, by product scan."""
    out = []
    for table in itertools.product(range(target.n), repeat=source.n):
        if all(target.leq(table[i], table[j])
               for i in range(source.n) for j in range(source.n)
               if source.leq(i, j)):
            out.append(table)
    return out


def _stable_colors_plain(poset) -> list:
    """Color refinement by (up, down) counts and cover-color multisets."""
    n = poset.n
    covers_up = [[j for j in range(n) if poset.covers_up[i] >> j & 1]
                 for i in range(n)]
    covers_down = [[j for j in range(n) if poset.covers_down[i] >> j & 1]
                   for i in range(n)]
    color = [(sum(poset.leq(i, j) for j in range(n)),
              sum(poset.leq(j, i) for j in range(n))) for i in range(n)]
    while True:
        comp = {c: r for r, c in enumerate(sorted(set(color)))}
        ranks = [comp[c] for c in color]
        nxt = [(ranks[i], tuple(sorted(ranks[j] for j in covers_up[i])),
                tuple(sorted(ranks[j] for j in covers_down[i])))
               for i in range(n)]
        if len(set(nxt)) == len(set(color)):
            return ranks
        color = nxt


def canonical_form_brute(poset) -> tuple:
    """(key, perm) by walking every color-respecting ordering.

    At each position only the points with the least code against the points
    already placed are tried, and nothing else is pruned: the key is
    (n, sorted (up, down) counts, least code) and perm is the least
    ordering reaching that code.
    """
    n = poset.n
    leq = poset.leq
    colors = _stable_colors_plain(poset)
    target = sorted(colors)
    best = []

    def walk(placed, code):
        k = len(placed)
        if k == n:
            best.append((tuple(code), tuple(placed)))
            return
        exts = {}
        for e in range(n):
            if e not in placed and colors[e] == target[k]:
                enc = 0
                for p in placed:
                    enc = enc << 2 | leq(e, p) << 1 | leq(p, e)
                exts.setdefault(enc, []).append(e)
        low = min(exts)
        for e in exts[low]:
            walk(placed + [e], code + [low])

    walk([], [])
    code, perm = min(best)
    round0 = tuple(sorted((sum(leq(i, j) for j in range(n)),
                           sum(leq(j, i) for j in range(n)))
                          for i in range(n)))
    return (n, round0, code), perm


def poset_classes_by_filter(n) -> list:
    """Levels 0..n of (poset, key, perm) per class, each in key order.

    Every class on k points, in key order, gains a new maximal point over
    each of its down-sets in (size, mask) order; every candidate is
    labelled and the first one of each key is kept.
    """
    from pcdl import Poset
    empty = Poset((), ())
    levels = [[(empty,) + canonical_form_brute(empty)]]
    for k in range(n):
        seen = {}
        for base, _, _ in levels[-1]:
            downs = sorted((m for m in range(1 << k)
                            if all(not base.down[i] & ~m
                                   for i in range(k) if m >> i & 1)),
                           key=lambda m: (bin(m).count("1"), m))
            for d in downs:
                up = [u | 1 << k if d >> i & 1 else u
                      for i, u in enumerate(base.up)]
                cand = Poset(base.labels + ("p%d" % k,), up + [1 << k])
                key, perm = canonical_form_brute(cand)
                if key not in seen:
                    seen[key] = (cand, key, perm)
        levels.append([seen[key] for key in sorted(seen)])
    return levels


def automorphisms_brute(poset) -> list:
    """Every automorphism as an index tuple, by permutation scan."""
    n = poset.n
    return [perm for perm in itertools.permutations(range(n))
            if all(poset.leq(i, j) == poset.leq(perm[i], perm[j])
                   for i in range(n) for j in range(n))]


def congruence_masks_scan(poset) -> list:
    """Every congruence mask, by scanning all subsets, sorted by size then
    mask."""
    downs = _maximal_downs(poset)
    return sorted((t for t in range(1 << poset.n)
                   if _is_congruence_mask_raw(downs, t)),
                  key=lambda t: (t.bit_count(), t))


def join_irreducibles_by_covers(size, leq) -> list:
    """Elements with exactly one lower cover, by a scan over all pairs."""
    out = []
    for e in range(size):
        strict = [j for j in range(size) if j != e and leq(j, e)]
        covers = [j for j in strict
                  if not any(k != j and leq(j, k) for k in strict)]
        if len(covers) == 1:
            out.append(e)
    return out


def certify_lattice_tables(labels, joins, meets) -> list:
    """The lattice certificate as a pair-by-pair scan, or ValueError.

    The checks run in a fixed order, each naming the first failure: the
    table shapes and entries, the quadratic laws (idempotence,
    commutativity, absorption, neutral bounds), the dual poset of the
    join-irreducibles, and the unit map a -> {join-irreducibles below a}
    (one-to-one, into the up-sets, bounds kept, a homomorphism on the
    pairs i <= j). Returns the unit masks. Only the dual poset is built
    by the library, whose Poset constructor certifies the order.
    """
    from pcdl import Poset
    labels = tuple(str(s) for s in labels)
    n = len(labels)
    if len(set(labels)) != n:
        raise ValueError("duplicate element labels")
    for name, tab in (("joins", joins), ("meets", meets)):
        if len(tab) != n or any(len(row) != n for row in tab):
            raise ValueError("%s table is not %d x %d" % (name, n, n))
        for row in tab:
            for v in row:
                if not isinstance(v, int) or not 0 <= v < n:
                    raise ValueError("%s table entry %r out of range"
                                     % (name, v))
    if n == 0:
        raise ValueError("a bounded lattice has at least one element")
    jn, mt = joins, meets
    bottom = top = 0
    for i in range(n):
        bottom, top = mt[bottom][i], jn[top][i]
    for i in range(n):
        if jn[i][i] != i or mt[i][i] != i:
            raise ValueError("idempotence fails at %r" % (labels[i],))
        for j in range(n):
            if jn[i][j] != jn[j][i]:
                raise ValueError("join is not commutative at (%r, %r)"
                                 % (labels[i], labels[j]))
            if mt[i][j] != mt[j][i]:
                raise ValueError("meet is not commutative at (%r, %r)"
                                 % (labels[i], labels[j]))
            if jn[i][mt[i][j]] != i or mt[i][jn[i][j]] != i:
                raise ValueError("absorption fails at (%r, %r)"
                                 % (labels[i], labels[j]))
        if jn[bottom][i] != i or mt[top][i] != i:
            raise ValueError("bounds are not neutral at %r" % (labels[i],))

    def leq(i, j):
        return mt[i][j] == i

    jis = join_irreducibles_by_covers(n, leq)
    masks = [sum(1 << k for k, j in enumerate(jis) if leq(j, a))
             for a in range(n)]
    poset = Poset([labels[j] for j in jis], [masks[j] for j in jis])
    if len(set(masks)) != n:
        raise ValueError("unit map is not one-to-one; "
                         "input is not distributive")
    if not all(poset.is_up_set(m) for m in masks):
        raise ValueError("unit map leaves the up-sets; "
                         "input is not distributive")
    if masks[bottom] != 0 or masks[top] != poset.full_mask:
        raise ValueError("unit map misses the bounds; "
                         "input is not distributive")
    for i in range(n):
        for j in range(i, n):
            if (masks[jn[i][j]] != masks[i] | masks[j]
                    or masks[mt[i][j]] != masks[i] & masks[j]):
                raise ValueError("unit map is not a homomorphism; "
                                 "input is not distributive")
    return masks


def classes_with_upsets_by_bfs(max_upsets: int) -> tuple:
    """Classes with at most max_upsets up-sets, by breadth-first filter.

    Each class found, level by level, gains a new maximal point over each
    of its down-sets within the bound; every candidate is labelled and the
    first one of each key is kept. Classes come by size, then key.
    """
    from pcdl import Poset
    from pcdl.enumeration import _add_maximal
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
