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

from itertools import chain, repeat
from operator import and_, eq, or_
from typing import Iterable, Iterator

from .posets import OrderMap, Poset, bits

_BIT_CHARS = bytes.maketrans(b"\0\1", b"01")


def _mask_where(flags) -> int:
    """The mask of the positions at which flags (bools) is true."""
    return int(b"0" + bytes(flags).translate(_BIT_CHARS)[::-1], 2)


def _set_label(base: Poset, mask: int) -> str:
    return "{" + ",".join(base.labels_of(mask)) + "}"


def _star_mask(poset: Poset, mask: int) -> int:
    return poset.full_mask & ~poset.down_closure(mask)


class UpSetLattice:
    """The lattice of up-sets of a poset, ordered by inclusion.

    It is the finite PCDL dual to the poset: the pseudocomplement of an
    up-set u is the complement of the down-closure of u, the largest
    up-set disjoint from u.
    """

    __slots__ = ("base", "carrier", "labels", "_index", "_star")

    def __init__(self, base: Poset):
        self.base = base
        self.carrier = base.up_sets()
        self.labels = tuple(_set_label(base, m) for m in self.carrier)
        self._index = {m: i for i, m in enumerate(self.carrier)}
        self._star = None

    @property
    def star_table(self) -> tuple:
        """Index of the pseudocomplement of each element. Computed once.

        The defining biconditional (x below u-star exactly when x meets u
        at bottom) is certified at every size, in one pass over the
        up-sets u with O(n) work each: u-star must miss u, and every point
        outside u-star must see u above it. The first gives the forward
        direction; the second puts every up-set that misses u below u-star.
        """
        if self._star is None:
            base = self.base
            up, full = base.up, base.full_mask
            table = []
            for u in self.carrier:
                s = _star_mask(base, u)
                if s & u or any(not up[p] & u for p in bits(full & ~s)):
                    raise AssertionError(
                        "pseudocomplement axiom fails at %s with star %s"
                        % (base.labels_of(u), base.labels_of(s)))
                table.append(self.index_of_mask(s))
            self._star = tuple(table)
        return self._star

    def star(self, i: int) -> int:
        return self.star_table[i]

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

    def rows(self, op) -> Iterator[list]:
        """The rows of the join table (op is or_) or meet table (and_)."""
        get, carrier = self._index.__getitem__, self.carrier
        for a in carrier:
            yield list(map(get, map(op, repeat(a), carrier)))

    def to_dict(self) -> dict:
        return {"elements": list(self.labels),
                "joins": list(self.rows(or_)),
                "meets": list(self.rows(and_))}


class AbstractLattice:
    """Finite distributive lattice given by join and meet tables.

    Construction certifies the tables by the unit, the canonical
    isomorphism onto the up-sets of the dual poset (unit_iso), which
    exists exactly when the tables form a bounded distributive lattice.
    The certificate also checks the entries: it indexes a list of n cells
    by every one of them, which takes only ints (bools among them) from
    -n to n - 1, and a negative entry is refused before it can wrap. The
    entry-by-entry scan and the law scan run only after a rejection, to
    name the first bad entry or broken law. The unit's table and its
    target algebra are kept as plain fields; unit itself is built on
    first read, so a lattice holds no reference back to itself until then.
    """

    __slots__ = ("labels", "joins", "meets", "bottom", "top", "unit_table",
                 "algebra", "_unit")

    def __init__(self, labels: Iterable[str], joins, meets):
        self.labels = tuple(str(s) for s in labels)
        n = len(self.labels)
        if len(set(self.labels)) != n:
            raise ValueError("duplicate element labels")
        self.joins = tuple(map(tuple, joins))
        self.meets = tuple(map(tuple, meets))
        for tab in (self.joins, self.meets):
            if len(tab) != n or any(len(row) != n for row in tab):
                self._scan_entries()
        if n == 0:
            raise ValueError("a bounded lattice has at least one element")
        try:
            if min(chain(*self.joins, *self.meets)) < 0:
                raise IndexError("a negative entry wraps to a real cell")
            b = 0
            t = 0
            for i in range(n):
                b = self.meets[b][i]
                t = self.joins[t][i]
            self.bottom = b
            self.top = t
            unit = unit_iso(self)
        except (ValueError, TypeError, IndexError) as e:
            # a bad entry is named first, then a broken law, then the unit
            self._scan_entries()
            self._validate()
            if not isinstance(e, ValueError):
                raise AssertionError("the certificate refused entries that "
                                     "the scan passes: %s" % e) from e
            raise
        self.unit_table = unit.table
        self.algebra = unit.target
        self._unit = None

    def _scan_entries(self):
        """Name the first table of the wrong shape or entry out of range.

        The joins table is read before the meets table, and each row by
        row. It runs only after a shape check or the certificate has
        failed, and a bool passes it as the int it is.
        """
        n = len(self.labels)
        for name, tab in (("joins", self.joins), ("meets", self.meets)):
            if len(tab) != n or any(len(row) != n for row in tab):
                raise ValueError("%s table is not %d x %d" % (name, n, n))
            for row in tab:
                for v in row:
                    if not isinstance(v, int) or not 0 <= v < n:
                        raise ValueError("%s table entry %r out of range"
                                         % (name, v))

    @property
    def unit(self) -> "LatticeHom":
        """The unit isomorphism onto algebra; built once, on first read."""
        if self._unit is None:
            self._unit = LatticeHom(self, self.algebra, self.unit_table)
        return self._unit

    def _validate(self):
        """Name the first broken law by a scan over every pair.

        It runs only after unit_iso has rejected the tables, and its
        message takes precedence. When every law it checks holds, the
        tables are commutative, so unit_iso read the same order relation
        as a scan over pairs i <= j would, and its message stands.
        """
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

    def rows(self, op) -> tuple:
        """The join table (op is or_) or the meet table (and_)."""
        return self.joins if op is or_ else self.meets

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
            if not isinstance(d[key], list):
                raise ValueError("%r must be a list" % key)
        for key in ("joins", "meets"):
            if not all(isinstance(row, list) for row in d[key]):
                raise ValueError("every row of %r must be a list" % key)
        return cls(d["elements"], d["joins"], d["meets"])


def dual_lattice(poset: Poset) -> UpSetLattice:
    """D(P): all up-sets of P under inclusion."""
    return UpSetLattice(poset)


def _order_masks(lat, op) -> list:
    """Per element, the mask of the elements above it or below it.

    With op or_ it reads i <= j as i join j == j, and with op and_ it
    reads j <= i as i meet j == j: either way one row of one table.
    """
    rng = range(lat.size)
    return [_mask_where(map(eq, row, rng)) for row in lat.rows(op)]


def _join_irreducibles(downs) -> list:
    """Elements with exactly one lower cover, read off the down-sets.

    In a finite order the lower covers of e are the maximal points of its
    strict down-set, and that set has exactly one maximal point c when it
    is not empty and lies below c: when it is the down-set of some
    element. So each element takes one set lookup. Tables that are no
    order may answer otherwise than a count of covers, but unit_iso
    certifies its result whatever this returns.
    """
    principal = set(downs)
    return [e for e, d in enumerate(downs)
            if (strict := d ^ 1 << e) and strict in principal]


def _dual_space_data(lat):
    """(P(L), its join-irreducibles, the unit mask of each element).

    The unit mask of a holds bit k when the k-th join-irreducible lies
    below a; a join-irreducible's own mask is its up-set in P(L), where
    the order is reversed.
    """
    downs = _order_masks(lat, and_)
    jis = _join_irreducibles(downs)
    masks = [sum(1 << k for k, j in enumerate(jis) if d >> j & 1)
             for d in downs]
    poset = Poset([lat.labels[j] for j in jis], [masks[j] for j in jis])
    return poset, tuple(jis), masks


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
    src_poset, src_jis, _ = _dual_space_data(hom.source)
    tgt_poset, tgt_jis, _ = _dual_space_data(hom.target)
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
    they must be distinct up-sets, send the bounds to the empty and the
    full set, and carry every entry of both tables, over the full square,
    to the union or intersection of the masks of its row and column.

    That certificate is complete. An injective map that carries the
    tables onto unions and intersections makes the tables isomorphic to a
    family of sets closed under both, so they obey every law that union
    and intersection obey: idempotence, commutativity, associativity,
    absorption and distributivity, with the bounds neutral because their
    masks are the empty and the full set. In that lattice j <= a exactly
    when a meet j is j, so the down-sets, the join-irreducibles and the
    masks are the true ones, and a -> mask is Birkhoff's isomorphism onto
    the up-sets of P(L): the target has exactly n elements.

    Each row is checked in one packed comparison, which is the same
    condition as masks[row[j]] == mi | masks[j] (or mi & masks[j]) for
    every j. Every mask is written as a little-endian cell of one fixed
    width, wide enough for the full mask; gathering the cells of the
    entries of a row gives the int holding masks[row[j]] in cell j.
    packed holds masks[j] in cell j, and spread holds 1 in every cell, so
    mi * spread holds mi in every cell, with no carry as mi fits a cell.
    OR and AND act bit by bit, hence cell by cell: packed | mi * spread
    holds mi | masks[j] in cell j, and packed & mi * spread holds
    mi & masks[j]. Both sides are n cells of the same width, so they are
    equal exactly when every cell is: when the row passes entry by entry.
    The rows are read in the same order, and a failure raises the same
    message.

    The gather also checks the entries, every one of which it has read
    when this returns: an entry that is not an int (or a bool) raises
    TypeError, and one outside -n..n-1 raises IndexError. A negative
    entry from -n to -1 wraps to a real cell, so the tables must hold
    none; AbstractLattice refuses them before it calls this.
    """
    poset, _, masks = _dual_space_data(lat)
    n = lat.size
    if len(set(masks)) != n:
        raise ValueError("unit map is not one-to-one; "
                         "input is not distributive")
    # each j lies in its own mask, so a mask that is an up-set holds the
    # principal up-set of every join-irreducible in it
    if not all(map(poset.is_up_set, masks)):
        raise ValueError("unit map leaves the up-sets; "
                         "input is not distributive")
    if masks[lat.bottom] != 0 or masks[lat.top] != poset.full_mask:
        raise ValueError("unit map misses the bounds; "
                         "input is not distributive")
    # one packed comparison per row, as the docstring shows
    width = max(1, (poset.n + 7) >> 3)
    cells = [m.to_bytes(width, "little") for m in masks]
    packed = int.from_bytes(b"".join(cells), "little")
    spread = int.from_bytes((1).to_bytes(width, "little") * n, "little")
    gather = cells.__getitem__
    for mi, jrow, mrow in zip(masks, lat.rows(or_), lat.rows(and_)):
        spread_i = mi * spread
        if int.from_bytes(b"".join(map(gather, jrow)), "little") \
                != packed | spread_i \
                or int.from_bytes(b"".join(map(gather, mrow)), "little") \
                != packed & spread_i:
            raise ValueError("unit map is not a homomorphism; "
                             "input is not distributive")
    target = UpSetLattice(poset)
    return LatticeHom(lat, target, map(target.index_of_mask, masks))


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
