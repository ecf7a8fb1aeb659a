"""Finite posets on bitmask subsets.

Elements are opaque string labels with a fixed index; any subset of the
carrier is an int whose bit i stands for element i. A poset is its labels
and up-set masks, certified as a partial order once at construction;
instances never mutate, and derived posets are built from masks.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple


# the set bits of every byte, and of every byte read as bits 8..15, so
# masks are read a byte at a time by lookup
_BYTE_BITS = tuple(tuple(i for i in range(8) if m >> i & 1)
                   for m in range(256))
_HIGH_BYTE_BITS = tuple(tuple(8 + i for i in b) for b in _BYTE_BITS)


def bits(mask: int):
    """Indices of the set bits of mask, ascending, as a sequence.

    Masks of up to 16 bits take one or two lookups. A wider mask with
    fewer set bits than bytes is read one set bit at a time, and any other
    one byte at a time, each non-zero byte's bits shifted to its place in
    one map: either way the steps are the fewer of bits and bytes. A
    negative mask has no finite set of bits and raises ValueError.
    """
    if mask < 256:
        if mask < 0:
            raise ValueError("negative mask %d has no finite bits" % mask)
        return _BYTE_BITS[mask]
    if mask < 65536:
        return _BYTE_BITS[mask & 255] + _HIGH_BYTE_BITS[mask >> 8]
    width = (mask.bit_length() + 7) >> 3
    out = []
    if mask.bit_count() < width:
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return out
    for k, byte in enumerate(mask.to_bytes(width, "little")):
        if byte:
            out += map((k << 3).__add__, _BYTE_BITS[byte])
    return out


def _label_index(labels: tuple) -> dict:
    """Position of each label; labels must be distinct strings."""
    index = {}
    for i, s in enumerate(labels):
        if not isinstance(s, str):
            raise ValueError("element label %r is not a string" % (s,))
        index[s] = i
    if len(index) != len(labels):
        raise ValueError("duplicate element labels")
    return index


def _twin_classes(poset: "Poset") -> list:
    """The twin classes of two or more points, each a tuple in index order.

    Twins are points with the same strict up-set and the same strict
    down-set. They are incomparable, and swapping two of them is an
    automorphism of the poset.
    """
    groups = {}
    for y in range(poset.n):
        sig = (poset.up[y] ^ 1 << y, poset.down[y] ^ 1 << y)
        groups.setdefault(sig, []).append(y)
    return [tuple(g) for g in groups.values() if len(g) > 1]


class Poset:
    """Immutable finite poset, given by its labels and up-set masks.

    up[i] / down[i] are reflexive up-set and down-set masks of element i;
    covers_up[i] / covers_down[i] hold the Hasse relation. The constructor
    certifies up as a partial order and derives the other three.
    """

    __slots__ = ("labels", "up", "down", "covers_up", "covers_down",
                 "_index", "_upsets", "_canon", "_aut", "_maximals",
                 "_with_above")

    def __init__(self, labels: Iterable[str], up: Iterable[int]):
        labels = tuple(labels)
        up = tuple(up)
        n = len(labels)
        index = _label_index(labels)
        if len(up) != n:
            raise ValueError("%d up-sets for %d elements" % (len(up), n))
        outside = ~((1 << n) - 1)
        strict_up = []
        for i, row in enumerate(up):
            if not isinstance(row, int) or row & outside or not row >> i & 1:
                raise ValueError("up-set of %r must hold it and lie in the "
                                 "carrier" % (labels[i],))
            strict_up.append(row ^ 1 << i)
        # transitive and antisymmetric: the strict up-sets of the strict
        # upper points lie inside the row and miss the point, so inside
        # the strict row; what none of them holds is a cover
        down = [1 << i for i in range(n)]
        covers_up = []
        covers_down = [0] * n
        for i, strict in enumerate(strict_up):
            bit = 1 << i
            above = 0
            for j in bits(strict):
                above |= strict_up[j]
                down[j] |= bit
            if above & ~strict:
                raise ValueError("up-sets are not a partial order at %r"
                                 % (labels[i],))
            cover = strict ^ above
            covers_up.append(cover)
            for j in bits(cover):
                covers_down[j] |= bit
        self.labels = labels
        self.up = up
        self.down = tuple(down)
        self.covers_up = tuple(covers_up)
        self.covers_down = tuple(covers_down)
        self._index = index
        self._upsets = None
        self._canon = None
        self._aut = None
        self._maximals = None
        self._with_above = None

    @classmethod
    def from_covers(cls, labels: Iterable[str],
                    covers: Iterable[tuple]) -> "Poset":
        """Build a poset from labels and generating strict-order pairs.

        Labels and cover endpoints are stringified. The pairs need not be a
        Hasse diagram; any acyclic set of strict relations is accepted and
        closed transitively. Cycles and unknown labels raise ValueError; a
        cycle is named by its least-index point.

        The closure runs top down in topological order: a point is closed
        once every point it is given below is, with one OR per distinct
        pair. Points left open lie on or below a cycle, and only then are
        they closed among themselves to find one on a cycle.
        """
        labels = tuple(str(s) for s in labels)
        index = _label_index(labels)
        n = len(labels)
        above = [0] * n
        # the distinct points given below each point, and how many points
        # given above it are not yet closed
        below = [[] for _ in range(n)]
        waiting = [0] * n
        for lo, hi in covers:
            lo, hi = str(lo), str(hi)
            if lo not in index:
                raise ValueError("unknown element %r in covers" % (lo,))
            if hi not in index:
                raise ValueError("unknown element %r in covers" % (hi,))
            i, j = index[lo], index[hi]
            if i == j:
                raise ValueError("element %r related strictly to itself" % (lo,))
            if not above[i] >> j & 1:
                above[i] |= 1 << j
                below[j].append(i)
                waiting[i] += 1
        ready = [i for i in range(n) if not waiting[i]]
        closed = 0
        while ready:
            j = ready.pop()
            closed += 1
            row = above[j]
            for i in below[j]:
                above[i] |= row
                waiting[i] -= 1
                if not waiting[i]:
                    ready.append(i)
        if closed < n:
            # a closed point has only closed points above it, so every
            # cycle runs through open points: close those among themselves
            stuck = [i for i in range(n) if waiting[i]]
            for k in stuck:
                for i in stuck:
                    if above[i] >> k & 1:
                        above[i] |= above[k]
            for i in stuck:
                if above[i] >> i & 1:
                    raise ValueError("order cycle through %r" % (labels[i],))
        return cls(labels, (above[i] | 1 << i for i in range(n)))

    # -- basic queries ----------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def full_mask(self) -> int:
        return (1 << len(self.labels)) - 1

    def index_of(self, label) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise ValueError("unknown element %r" % (label,)) from None

    def _as_index(self, x) -> int:
        return x if isinstance(x, int) else self.index_of(x)

    def leq(self, i: int, j: int) -> bool:
        return bool(self.up[i] >> j & 1)

    @property
    def maximals_mask(self) -> int:
        """Mask of the maximal elements. Computed once."""
        if self._maximals is None:
            m = 0
            for i in range(len(self.labels)):
                if self.up[i] == 1 << i:
                    m |= 1 << i
            self._maximals = m
        return self._maximals

    @property
    def with_above(self) -> dict:
        """Maximal-set mask -> mask of the points with exactly those
        maximal points above them. Computed once; read, never changed."""
        if self._with_above is None:
            maxes = self.maximals_mask
            out = {}
            for p, row in enumerate(self.up):
                key = row & maxes
                out[key] = out.get(key, 0) | 1 << p
            self._with_above = out
        return self._with_above

    @property
    def minimals_mask(self) -> int:
        m = 0
        for i in range(len(self.labels)):
            if self.down[i] == 1 << i:
                m |= 1 << i
        return m

    def max_above(self, x) -> int:
        """Mask of the maximal elements above x (x included if maximal)."""
        return self.up[self._as_index(x)] & self.maximals_mask

    def labels_of(self, mask: int) -> tuple:
        return tuple(map(self.labels.__getitem__, bits(mask)))

    def mask_of(self, elems: Iterable) -> int:
        m = 0
        for x in elems:
            m |= 1 << self._as_index(x)
        return m

    # -- subset operations -------------------------------------------------

    def up_closure(self, mask: int) -> int:
        out = 0
        for i in bits(mask):
            out |= self.up[i]
        return out

    def down_closure(self, mask: int) -> int:
        out = 0
        for i in bits(mask):
            out |= self.down[i]
        return out

    def is_up_set(self, mask: int) -> bool:
        return self.up_closure(mask) == mask

    def up_sets(self, most: float = float("inf")) -> tuple:
        """All up-set masks, sorted by (size, mask). Computed once.

        When there are more than most, ValueError is raised instead, as
        soon as the count passes most: each step at most doubles it.
        """
        if self._upsets is None:
            # add elements top down: acc holds the up-sets of the elements
            # added so far, and e may join one holding its upper covers
            order = sorted(range(len(self.labels)),
                           key=lambda i: (self.up[i].bit_count(), i))
            acc = [0]
            for e in order:
                cover, bit = self.covers_up[e], 1 << e
                acc += [m | bit for m in acc if not cover & ~m]
                if len(acc) > most:
                    break
            else:
                acc.sort(key=lambda m: (m.bit_count(), m))
                self._upsets = tuple(acc)
        if self._upsets is None or len(self._upsets) > most:
            raise ValueError("%d-point poset has more than %d up-sets"
                             % (len(self.labels), most))
        return self._upsets

    def down_sets(self) -> tuple:
        full = self.full_mask
        out = [full ^ u for u in self.up_sets()]
        out.sort(key=lambda m: (m.bit_count(), m))
        return tuple(out)

    # -- derived posets ----------------------------------------------------

    def restrict(self, mask: int) -> "Poset":
        """Induced sub-poset on the elements of mask, labels kept."""
        kept = bits(mask)
        pos = {i: k for k, i in enumerate(kept)}
        up = []
        for i in kept:
            row = 0
            for j in bits(self.up[i] & mask):
                row |= 1 << pos[j]
            up.append(row)
        return Poset([self.labels[i] for i in kept], up)

    def dual(self) -> "Poset":
        return Poset(self.labels, self.down)

    def components(self) -> list:
        """Masks of the connected components of the comparability graph."""
        up, down = self.up, self.down
        seen = 0
        out = []
        for i in range(len(up)):
            if seen >> i & 1:
                continue
            comp = frontier = 1 << i
            while frontier:
                nxt = 0
                for j in bits(frontier):
                    nxt |= up[j] | down[j]
                frontier = nxt & ~comp
                comp |= frontier
            seen |= comp
            out.append(comp)
        return out

    # -- isomorphism -------------------------------------------------------

    def _stable_colors(self) -> tuple:
        """(ranks, round0): the stable color rank of each point.

        Round 0 colors a point by its (up, down) counts, and round0 is
        their sorted list. Each later round colors a point by its rank
        and the sorted ranks of its upper and of its lower covers, until
        no color class splits; a discrete coloring cannot split.
        """
        n = len(self.labels)
        color = [(u.bit_count(), d.bit_count())
                 for u, d in zip(self.up, self.down)]
        round0 = tuple(sorted(color))
        distinct = set(color)
        above = below = None
        while True:
            comp = {c: r for r, c in enumerate(sorted(distinct))}
            ranks = [comp[c] for c in color]
            if len(comp) == n:
                return ranks, round0
            if above is None:
                above = [bits(c) for c in self.covers_up]
                below = [bits(c) for c in self.covers_down]
            rank = ranks.__getitem__
            color = [(ranks[i], tuple(sorted(map(rank, above[i]))),
                      tuple(sorted(map(rank, below[i]))))
                     for i in range(n)]
            distinct = set(color)
            if len(distinct) == len(comp):
                return ranks, round0

    def _canonical_search(self):
        """Least relation code over color-respecting orderings of the points.

        An ordering lists the points color class by color class; its code
        gives, for each position, the leq bits of that point against every
        earlier one. Returns (key, perm, generators): the key (n, round0,
        least code), the least ordering with that code, and generators of
        the automorphism group as index tables. When the stable coloring
        is discrete, one ordering respects it: that is the answer, and the
        group is trivial. Otherwise the orderings are walked depth first
        on an explicit stack, one frame per placed point. A branch is cut
        once its code prefix exceeds the best one found, and a point is
        skipped while a twin of lower index (an incomparable point with
        the same relations to all others) is unplaced: the swapped subtree
        repeats the same codes with a larger ordering. Two orderings with
        one code differ by an automorphism, so once an ordering ties the
        first one reaching the best code so far, the rest of the subtree
        where it left that first ordering holds no smaller code and is
        cut. The automorphism group is generated by the twin
        transpositions and the map from the best ordering to the tie found
        in each subtree left from it, at most one per point of each level,
        so there are fewer than n * n generators.
        """
        n = len(self.labels)
        up, down = self.up, self.down
        ranks, round0 = self._stable_colors()
        order = sorted(range(n), key=ranks.__getitem__)
        if not n or ranks[order[-1]] == n - 1:
            code = []
            for k, e in enumerate(order):
                v = 0
                for p in order[:k]:
                    v = v << 2 | (down[p] >> e & 1) << 1 | up[p] >> e & 1
                code.append(v)
            return (n, round0, tuple(code)), tuple(order), ()
        members = {}
        for e in order:
            members.setdefault(ranks[e], []).append(e)
        target = [members[ranks[e]] for e in order]
        twins_below = [0] * n
        gens = []
        for cls in _twin_classes(self):
            for t, e in zip(cls, cls[1:]):
                twins_below[e] = twins_below[t] | 1 << t
                swap = list(range(n))
                swap[t], swap[e] = e, t
                gens.append(tuple(swap))
        placed = [0] * n
        code = [0] * n
        best = None     # the least code found so far
        first = None    # the first ordering reaching it
        ties = []       # one later ordering reaching it per subtree left
        jump = n        # after a tie: the level to resume the search at
        # a frame per open level: [candidates, next candidate, used mask,
        # codes against the placed points, tight, best as its child began];
        # tight: the code so far equals the best code's prefix
        stack = []
        k, used, enc, tight = 0, 0, [0] * n, True
        while True:
            if k == n:
                leaf = tuple(placed)
                if tight and best is not None:
                    ties.append(leaf)
                    jump = next(i for i in range(n) if leaf[i] != first[i])
                else:
                    best, first = tuple(code), leaf
                    ties.clear()
            else:
                group = target[k]
                if len(group) == 1:
                    # a color of its own: placed here, with no twin
                    cands, low = group, enc[group[0]]
                else:
                    low = None
                    for e in group:
                        if used >> e & 1 or twins_below[e] & ~used:
                            continue
                        v = enc[e]
                        if low is None or v < low:
                            low, cands = v, [e]
                        elif v == low:
                            cands.append(e)
                if not tight or best is None or low <= best[k]:
                    code[k] = low
                    stack.append([cands, 0, used, enc,
                                  tight and (best is None or low == best[k]),
                                  None])
            # back up to the innermost level with a candidate left
            while stack:
                level = len(stack) - 1
                frame = stack[-1]
                cands, i = frame[0], frame[1]
                if i:
                    if jump <= level:
                        if jump < level:
                            stack.pop()
                            continue
                        jump = n
                    # a better code found below shares this prefix
                    if best is not frame[5]:
                        frame[4] = True
                if i == len(cands):
                    stack.pop()
                    continue
                e = cands[i]
                frame[1] = i + 1
                frame[5] = best
                placed[level] = e
                ue, de = up[e], down[e]
                k, used, tight = level + 1, frame[2] | 1 << e, frame[4]
                if k < n:
                    enc = [v << 2 | (de >> x & 1) << 1 | ue >> x & 1
                           for x, v in enumerate(frame[3])]
                if i + 1 == len(cands):
                    frame[3] = None     # no sibling reads it again
                break
            else:
                break
        for leaf in ties:
            g = [0] * n
            for p, q in zip(first, leaf):
                g[p] = q
            gens.append(tuple(g))
        return (n, round0, best), first, tuple(gens)

    def canonical_key(self):
        """Hashable value equal across isomorphic posets only."""
        if self._canon is None:
            key, perm, self._aut = self._canonical_search()
            self._canon = (key, perm)
        return self._canon[0]

    def canonical_form(self) -> tuple:
        """(canonical_key(), canonical_perm()), labelling at most once."""
        if self._canon is None:
            self.canonical_key()
        return self._canon

    def canonical_perm(self) -> tuple:
        """Canonical ordering as a tuple position -> element index."""
        return self.canonical_form()[1]

    def _take_automorphisms(self) -> tuple:
        """Index tables generating the automorphism group, handed out once.

        The search that labels the poset finds them and keeps them for
        `enumeration.poset_classes_exactly`, which takes them from each
        parent; taking drops them, so a later call searches again.
        """
        gens, self._aut = self._aut, None
        if gens is None:
            gens = self._canonical_search()[2]
        return gens

    def isomorphic(self, other: "Poset") -> bool:
        return self.canonical_key() == other.canonical_key()

    def find_isomorphism(self, other: "Poset"):
        """Dict old index -> other index realizing an isomorphism, or None."""
        if not self.isomorphic(other):
            return None
        mine = self.canonical_perm()
        theirs = other.canonical_perm()
        return {mine[k]: theirs[k] for k in range(len(mine))}

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        pairs = []
        for i in range(len(self.labels)):
            for j in bits(self.covers_up[i]):
                pairs.append([self.labels[i], self.labels[j]])
        pairs.sort()
        return {"elements": list(self.labels), "covers": pairs}

    @classmethod
    def from_dict(cls, d: dict) -> "Poset":
        if not isinstance(d, dict):
            raise ValueError("poset document must be an object")
        if "elements" not in d or "covers" not in d:
            raise ValueError("poset document needs 'elements' and 'covers'")
        elems = d["elements"]
        covers = d["covers"]
        if not isinstance(elems, list):
            raise ValueError("'elements' must be a list")
        if not isinstance(covers, list):
            raise ValueError("'covers' must be a list of pairs")
        pairs = []
        for entry in covers:
            if not isinstance(entry, (list, tuple)) or len(entry) != 2:
                raise ValueError("cover entry %r is not a pair" % (entry,))
            pairs.append((entry[0], entry[1]))
        return cls.from_covers(elems, pairs)

    def to_dot(self, name: str = "poset") -> str:
        lines = ["digraph %s {" % name, "  rankdir=BT;"]
        for s in self.labels:
            lines.append('  "%s";' % s)
        for i in range(len(self.labels)):
            for j in bits(self.covers_up[i]):
                lines.append('  "%s" -> "%s";' % (self.labels[i],
                                                  self.labels[j]))
        lines.append("}")
        return "\n".join(lines) + "\n"

    # -- value semantics ----------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Poset) and self.labels == other.labels
                and self.up == other.up)

    def __hash__(self):
        return hash((self.labels, self.up))

    def __repr__(self):
        return "Poset(%d points: %s)" % (len(self.labels),
                                         ", ".join(self.labels[:8])
                                         + ("..." if len(self.labels) > 8 else ""))

    def __reduce__(self):
        return (Poset, (self.labels, self.up))


class _TableMap:
    """Map from source to target, stored as an index table: table[i] is
    the image of source element i.

    A subclass checks the table before it stores it, and a map equals
    only a map of its own type.
    """

    __slots__ = ("source", "target", "table")

    def __init__(self, source, target, table: tuple):
        self.source = source
        self.target = target
        self.table = table

    def __call__(self, i: int) -> int:
        return self.table[i]

    def __eq__(self, other):
        return (type(other) is type(self) and self.table == other.table
                and self.source == other.source and self.target == other.target)

    def compose(self, inner):
        """The map doing inner first, then self, of self's type."""
        if inner.target != self.source:
            raise ValueError("composition mismatch")
        return type(self)(inner.source, self.target,
                          tuple(self.table[t] for t in inner.table))

    def map_labels(self) -> dict:
        return {self.source.labels[i]: self.target.labels[t]
                for i, t in enumerate(self.table)}


class OrderMap(_TableMap):
    """Total map between posets, stored as an index table."""

    __slots__ = ()

    def __init__(self, source: Poset, target: Poset, table: Iterable[int]):
        table = tuple(table)
        if len(table) != source.n:
            raise ValueError("map table does not cover the source")
        for t in table:
            if not 0 <= t < max(target.n, 1):
                raise ValueError("map table lands outside the target")
        if source.n and target.n == 0:
            raise ValueError("no maps into the empty poset")
        _TableMap.__init__(self, source, target, table)

    @classmethod
    def from_labels(cls, source: Poset, target: Poset,
                    assignment: dict) -> "OrderMap":
        tab = []
        for s in source.labels:
            if s not in assignment:
                raise ValueError("map is not total: %r unassigned" % (s,))
            value = assignment[s]
            if not isinstance(value, str):
                raise ValueError("map sends %r to %r, not a target label"
                                 % (s, value))
            tab.append(target.index_of(value))
        extra = [s for s in assignment if s not in source._index]
        if extra:
            raise ValueError("map assigns %r, not a source label"
                             % (extra[0],))
        return cls(source, target, tab)

    @classmethod
    def identity(cls, poset: Poset) -> "OrderMap":
        return cls(poset, poset, range(poset.n))

    def __hash__(self):
        return hash((self.source, self.target, self.table))

    def __repr__(self):
        body = ", ".join("%s->%s" % (self.source.labels[i],
                                     self.target.labels[t])
                         for i, t in enumerate(self.table))
        return "OrderMap(%s)" % body

    def image_mask(self) -> int:
        out = 0
        for t in self.table:
            out |= 1 << t
        return out

    def image_of_mask(self, mask: int) -> int:
        out = 0
        for i in bits(mask):
            out |= 1 << self.table[i]
        return out

    def preimage_mask(self, target_mask: int) -> int:
        out = 0
        for i, t in enumerate(self.table):
            if target_mask >> t & 1:
                out |= 1 << i
        return out

    def is_order_preserving(self) -> bool:
        # covers generate the order, so checking them is enough
        for i in range(self.source.n):
            fi = self.table[i]
            for j in bits(self.source.covers_up[i]):
                if not self.target.leq(fi, self.table[j]):
                    return False
        return True

    def is_order_embedding(self) -> bool:
        n = self.source.n
        for i in range(n):
            for j in range(n):
                if self.source.leq(i, j) != self.target.leq(self.table[i],
                                                            self.table[j]):
                    return False
        return True

    def is_onto(self) -> bool:
        return self.image_mask() == self.target.full_mask

    def classify(self) -> str:
        if not self.is_order_preserving():
            return "not_order_preserving"
        if not self.is_order_embedding():
            return "order_preserving"
        if not self.is_onto():
            return "order_embedding"
        return "both_embedding_and_onto"

    def to_dict(self) -> dict:
        return {"source": self.source.to_dict(),
                "target": self.target.to_dict(),
                "map": self.map_labels()}

    @classmethod
    def from_dict(cls, d: dict) -> "OrderMap":
        if not isinstance(d, dict) or "map" not in d:
            raise ValueError("map document needs 'source', 'target', 'map'")
        if "source" not in d or "target" not in d:
            raise ValueError("map document needs 'source', 'target', 'map'")
        src = Poset.from_dict(d["source"])
        tgt = Poset.from_dict(d["target"])
        if not isinstance(d["map"], dict):
            raise ValueError("'map' must be an object of label pairs")
        return cls.from_labels(src, tgt, d["map"])


def classify_map(f: OrderMap) -> str:
    return f.classify()


def max_above(poset: Poset, x) -> tuple:
    """Labels of the maximal elements above x."""
    return poset.labels_of(poset.max_above(x))


# -- constructions ----------------------------------------------------------

def antichain(n: int) -> Poset:
    if n < 0:
        raise ValueError("size must be nonnegative")
    return Poset.from_covers(["x%d" % i for i in range(n)], [])


def chain(n: int) -> Poset:
    if n < 0:
        raise ValueError("size must be nonnegative")
    labels = ["c%d" % i for i in range(n)]
    return Poset.from_covers(labels, [(labels[i], labels[i + 1])
                                      for i in range(n - 1)])


def fan(n: int) -> Poset:
    """One bottom below an n-element antichain of tops."""
    if n < 0:
        raise ValueError("size must be nonnegative")
    labels = ["g"] + ["t%d" % (i + 1) for i in range(n)]
    return Poset.from_covers(labels, [("g", t) for t in labels[1:]])


def _relabel(poset: Poset, suffix: str) -> Poset:
    return Poset([s + suffix for s in poset.labels], poset.up)


def ordinal_sum(lower: Poset, upper: Poset) -> Poset:
    """Stack lower entirely below upper."""
    if set(lower.labels) & set(upper.labels):
        lower = _relabel(lower, ".0")
        upper = _relabel(upper, ".1")
    # every lower point lies below all of upper
    above = upper.full_mask << lower.n
    return Poset(lower.labels + upper.labels,
                 [u | above for u in lower.up]
                 + [u << lower.n for u in upper.up])


class DisjointSum(NamedTuple):
    poset: Poset
    part_of: tuple

    def part_mask(self, k: int) -> int:
        out = 0
        for i, p in enumerate(self.part_of):
            if p == k:
                out |= 1 << i
        return out


def disjoint_sum(parts: Iterable[Poset]) -> DisjointSum:
    """Side-by-side sum; elements of different parts are incomparable."""
    parts = list(parts)
    all_labels = [s for p in parts for s in p.labels]
    if len(set(all_labels)) != len(all_labels):
        parts = [_relabel(p, ".%d" % k) for k, p in enumerate(parts)]
    labels = []
    part_of = []
    up = []
    for k, p in enumerate(parts):
        up.extend(u << len(labels) for u in p.up)
        labels.extend(p.labels)
        part_of.extend([k] * p.n)
    return DisjointSum(Poset(labels, up), tuple(part_of))
