"""Finite Priestley duality.

D(P) is the lattice of up-sets of a poset P with union and intersection;
P(L) is the poset of join-irreducible elements of a bounded distributive
lattice L under the reversed lattice order, which makes the two functors
mutually inverse on finite objects. Morphisms dualize contravariantly:
an order map f turns into the complete-preimage homomorphism, and a
homomorphism h turns into the map sending a join-irreducible j to the
least element h maps above j.
"""

from __future__ import annotations

from typing import Iterable

from .posets import OrderMap, Poset, bits


def _set_label(base: Poset, mask: int) -> str:
    return "{" + ",".join(base.labels[i] for i in bits(mask)) + "}"


class UpSetLattice:
    """The lattice of up-sets of a poset, ordered by inclusion."""

    __slots__ = ("base", "carrier", "labels", "_index")

    def __init__(self, base: Poset):
        self.base = base
        self.carrier = base.up_sets()
        self.labels = tuple(_set_label(base, m) for m in self.carrier)
        self._index = {m: i for i, m in enumerate(self.carrier)}

    @property
    def size(self) -> int:
        return len(self.carrier)

    @property
    def bottom(self) -> int:
        return 0

    @property
    def top(self) -> int:
        return len(self.carrier) - 1

    def index_of_mask(self, mask: int) -> int:
        try:
            return self._index[mask]
        except KeyError:
            raise ValueError("%s is not an up-set of the base poset"
                             % _set_label(self.base, mask)) from None

    def join(self, i: int, j: int) -> int:
        return self._index[self.carrier[i] | self.carrier[j]]

    def meet(self, i: int, j: int) -> int:
        return self._index[self.carrier[i] & self.carrier[j]]

    def leq(self, i: int, j: int) -> bool:
        return self.carrier[i] | self.carrier[j] == self.carrier[j]

    def __eq__(self, other):
        return isinstance(other, UpSetLattice) and self.base == other.base

    def __hash__(self):
        return hash(("upsets", self.base))

    def __repr__(self):
        return "UpSetLattice(%d up-sets of %d points)" % (self.size,
                                                          self.base.n)

    def to_dict(self) -> dict:
        rng = range(self.size)
        return {"elements": list(self.labels),
                "joins": [[self.join(i, j) for j in rng] for i in rng],
                "meets": [[self.meet(i, j) for j in rng] for i in rng]}


class AbstractLattice:
    """Finite distributive lattice given by join and meet tables.

    Construction certifies the tables: unit is the canonical isomorphism
    onto the up-sets of the dual poset, and it exists exactly when the
    tables form a bounded distributive lattice.
    """

    __slots__ = ("labels", "joins", "meets", "bottom", "top", "unit")

    def __init__(self, labels: Iterable[str], joins, meets):
        self.labels = tuple(str(s) for s in labels)
        n = len(self.labels)
        if len(set(self.labels)) != n:
            raise ValueError("duplicate element labels")
        self.joins = tuple(tuple(row) for row in joins)
        self.meets = tuple(tuple(row) for row in meets)
        for name, tab in (("joins", self.joins), ("meets", self.meets)):
            if len(tab) != n or any(len(row) != n for row in tab):
                raise ValueError("%s table is not %d x %d" % (name, n, n))
            for row in tab:
                for v in row:
                    if not isinstance(v, int) or not 0 <= v < n:
                        raise ValueError("%s table entry %r out of range"
                                         % (name, v))
        if n == 0:
            raise ValueError("a bounded lattice has at least one element")
        b = 0
        t = 0
        for i in range(n):
            b = self.meets[b][i]
            t = self.joins[t][i]
        self.bottom = b
        self.top = t
        self._validate()
        self.unit = unit_iso(self)

    def _validate(self):
        # quadratic laws only; unit_iso proves the rest, but it reads each
        # pair once (i <= j), so commutativity must be checked here
        n = len(self.labels)
        jn, mt = self.joins, self.meets
        for i in range(n):
            if jn[i][i] != i or mt[i][i] != i:
                raise ValueError("idempotence fails at %r" % (self.labels[i],))
            for j in range(n):
                if jn[i][j] != jn[j][i]:
                    raise ValueError("join is not commutative at (%r, %r)"
                                     % (self.labels[i], self.labels[j]))
                if mt[i][j] != mt[j][i]:
                    raise ValueError("meet is not commutative at (%r, %r)"
                                     % (self.labels[i], self.labels[j]))
                if jn[i][mt[i][j]] != i or mt[i][jn[i][j]] != i:
                    raise ValueError("absorption fails at (%r, %r)"
                                     % (self.labels[i], self.labels[j]))
            if jn[self.bottom][i] != i or mt[self.top][i] != i:
                raise ValueError("bounds are not neutral at %r"
                                 % (self.labels[i],))

    @property
    def size(self) -> int:
        return len(self.labels)

    def join(self, i: int, j: int) -> int:
        return self.joins[i][j]

    def meet(self, i: int, j: int) -> int:
        return self.meets[i][j]

    def leq(self, i: int, j: int) -> bool:
        return self.meets[i][j] == i

    def __eq__(self, other):
        return (isinstance(other, AbstractLattice) and self.labels == other.labels
                and self.joins == other.joins and self.meets == other.meets)

    def __hash__(self):
        return hash((self.labels, self.joins))

    def __repr__(self):
        return "AbstractLattice(%d elements)" % len(self.labels)

    def to_dict(self) -> dict:
        return {"elements": list(self.labels),
                "joins": [list(r) for r in self.joins],
                "meets": [list(r) for r in self.meets]}

    @classmethod
    def from_dict(cls, d: dict) -> "AbstractLattice":
        for key in ("elements", "joins", "meets"):
            if key not in d:
                raise ValueError("lattice document needs %r" % key)
        return cls(d["elements"], d["joins"], d["meets"])


def dual_lattice(poset: Poset) -> UpSetLattice:
    """D(P): all up-sets of P under inclusion."""
    return UpSetLattice(poset)


def _order_masks(lat) -> tuple:
    n = lat.size
    up = [0] * n
    down = [0] * n
    for i in range(n):
        for j in range(n):
            if lat.leq(i, j):
                up[i] |= 1 << j
                down[j] |= 1 << i
    return up, down


def _join_irreducibles(lat) -> list:
    """Indices of elements with exactly one lower cover."""
    up, down = _order_masks(lat)
    out = []
    for e in range(lat.size):
        strict = down[e] ^ 1 << e
        covers = 0
        for j in bits(strict):
            if not strict & (up[j] ^ 1 << j):
                covers += 1
                if covers > 1:
                    break
        if covers == 1:
            out.append(e)
    return out


def _dual_space_data(lat):
    jis = _join_irreducibles(lat)
    labels = [lat.labels[j] for j in jis]
    pairs = []
    for a in jis:
        for b in jis:
            # reversed order: below in the dual means above in the lattice
            if a != b and lat.leq(b, a):
                pairs.append((lat.labels[a], lat.labels[b]))
    return Poset.from_covers(labels, pairs), tuple(jis)


def dual_space(lat) -> Poset:
    """P(L): join-irreducibles of L, ordered opposite to L's order.

    With this orientation the dual of 2^n plus a new unit is the fan with
    n tops, and both round trips are natural isomorphisms. Distributivity
    is certified by unit_iso, which every AbstractLattice runs when built.
    """
    return _dual_space_data(lat)[0]


class LatticeHom:
    """Map between bounded lattices, stored as an index table."""

    __slots__ = ("source", "target", "table")

    def __init__(self, source, target, table: Iterable[int]):
        table = tuple(table)
        if len(table) != source.size:
            raise ValueError("hom table does not cover the source")
        for t in table:
            if not 0 <= t < target.size:
                raise ValueError("hom table lands outside the target")
        self.source = source
        self.target = target
        self.table = table

    def __call__(self, i: int) -> int:
        return self.table[i]

    def __eq__(self, other):
        return (isinstance(other, LatticeHom) and self.table == other.table
                and self.source == other.source and self.target == other.target)

    def __hash__(self):
        return hash(self.table)

    def __repr__(self):
        return "LatticeHom(%d -> %d elements)" % (self.source.size,
                                                  self.target.size)

    def is_homomorphism(self) -> bool:
        src, tgt, tab = self.source, self.target, self.table
        if tab[src.bottom] != tgt.bottom or tab[src.top] != tgt.top:
            return False
        n = src.size
        for i in range(n):
            for j in range(i, n):
                if tab[src.join(i, j)] != tgt.join(tab[i], tab[j]):
                    return False
                if tab[src.meet(i, j)] != tgt.meet(tab[i], tab[j]):
                    return False
        return True

    def is_one_to_one(self) -> bool:
        return len(set(self.table)) == len(self.table)

    def is_onto(self) -> bool:
        return len(set(self.table)) == self.target.size

    def compose(self, inner: "LatticeHom") -> "LatticeHom":
        """The hom doing inner first, then self."""
        if inner.target != self.source:
            raise ValueError("composition mismatch")
        return LatticeHom(inner.source, self.target,
                          tuple(self.table[t] for t in inner.table))

    def map_labels(self) -> dict:
        return {self.source.labels[i]: self.target.labels[t]
                for i, t in enumerate(self.table)}


def dual_of_order_map(f: OrderMap) -> LatticeHom:
    """The preimage homomorphism D(f): D(target) -> D(source).

    Requires f order-preserving. The classification dictionary is
    re-checked on every call: f is onto exactly when the dual is
    one-to-one, and f is an order-embedding exactly when the dual is onto.
    """
    if not f.is_order_preserving():
        raise ValueError("map is not order-preserving")
    source = UpSetLattice(f.target)
    target = UpSetLattice(f.source)
    table = tuple(target.index_of_mask(f.preimage_mask(u))
                  for u in source.carrier)
    hom = LatticeHom(source, target, table)
    if f.is_onto() != hom.is_one_to_one():
        raise AssertionError("duality dictionary broken: onto vs one-to-one")
    if f.is_order_embedding() != hom.is_onto():
        raise AssertionError("duality dictionary broken: embedding vs onto")
    return hom


def dual_of_lattice_hom(hom: LatticeHom) -> OrderMap:
    """The dual order map of a {0,1}-homomorphism.

    Sends a join-irreducible j of the target lattice to the least source
    element mapped above j. The classification dictionary is re-checked.
    """
    if not hom.is_homomorphism():
        raise ValueError("not a bounded-lattice homomorphism")
    src_poset, src_jis = _dual_space_data(hom.source)
    tgt_poset, tgt_jis = _dual_space_data(hom.target)
    table = []
    for j in tgt_jis:
        m = hom.source.top
        for x in range(hom.source.size):
            if hom.target.leq(j, hom.table[x]):
                m = hom.source.meet(m, x)
        if not hom.target.leq(j, hom.table[m]):
            raise AssertionError("preimage filter of %r has no least element"
                                 % (hom.target.labels[j],))
        if m not in src_jis:
            raise AssertionError("dual point of %r is not join-irreducible"
                                 % (hom.target.labels[j],))
        table.append(src_jis.index(m))
    out = OrderMap(tgt_poset, src_poset, table)
    if not out.is_order_preserving():
        raise AssertionError("dual map fails to preserve order")
    if hom.is_onto() != out.is_order_embedding():
        raise AssertionError("duality dictionary broken: onto vs embedding")
    if hom.is_one_to_one() != out.is_onto():
        raise AssertionError("duality dictionary broken: one-to-one vs onto")
    return out


def unit_iso(lat) -> LatticeHom:
    """The canonical isomorphism from lat onto the up-set lattice of its dual.

    Sends a to the set of join-irreducibles below a. Raising here is a
    certificate that the input was not a bounded distributive lattice.
    The map is certified on the masks before any up-set is enumerated:
    n distinct up-sets holding every principal up-set, kept by joins,
    meets and bounds, are all of Up(P), so the target has n elements.
    """
    poset, jis = _dual_space_data(lat)
    n = lat.size
    masks = []
    for a in range(n):
        mask = 0
        for pos, j in enumerate(jis):
            if lat.leq(j, a):
                mask |= 1 << pos
        masks.append(mask)
    if len(set(masks)) != n:
        raise ValueError("unit map is not one-to-one; "
                         "input is not distributive")
    # each j lies in its own mask, so a mask that is an up-set holds the
    # principal up-set of every join-irreducible in it
    if not all(poset.is_up_set(m) for m in masks):
        raise ValueError("unit map leaves the up-sets; "
                         "input is not distributive")
    if masks[lat.bottom] != 0 or masks[lat.top] != poset.full_mask:
        raise ValueError("unit map misses the bounds; "
                         "input is not distributive")
    for i in range(n):
        mi = masks[i]
        for j in range(i, n):
            if (masks[lat.join(i, j)] != mi | masks[j]
                    or masks[lat.meet(i, j)] != mi & masks[j]):
                raise ValueError("unit map is not a homomorphism; "
                                 "input is not distributive")
    target = UpSetLattice(poset)
    return LatticeHom(lat, target, [target.index_of_mask(m) for m in masks])


def product_lattice(a, b) -> AbstractLattice:
    """Direct product with componentwise operations."""
    na, nb = a.size, b.size
    labels = ["(%s,%s)" % (a.labels[i], b.labels[j])
              for i in range(na) for j in range(nb)]
    joins = [[a.join(i, k) * nb + b.join(j, l)
              for k in range(na) for l in range(nb)]
             for i in range(na) for j in range(nb)]
    meets = [[a.meet(i, k) * nb + b.meet(j, l)
              for k in range(na) for l in range(nb)]
             for i in range(na) for j in range(nb)]
    return AbstractLattice(labels, joins, meets)
