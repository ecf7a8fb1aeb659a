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
    """An isomorphic copy of a poset under a random permutation."""
    from pcdl import Poset
    n = poset.n
    perm = list(range(n))
    rng.shuffle(perm)
    labels = ["r%d" % k for k in range(n)]
    covers = []
    for i in range(n):
        for j in range(n):
            if i != j and poset.leq(i, j):
                covers.append((labels[perm[i]], labels[perm[j]]))
    return Poset.from_covers(labels, covers)


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


def order_preserving_maps_raw(source, target) -> list:
    """Every order-preserving table source -> target, by product scan."""
    out = []
    for table in itertools.product(range(target.n), repeat=source.n):
        if all(target.leq(table[i], table[j])
               for i in range(source.n) for j in range(source.n)
               if source.leq(i, j)):
            out.append(table)
    return out
