"""Finite bounded distributive lattices and the frame operator suite.

Elements are integers 0..size-1; the order is bitmask rows like `Poset`, and
the full join/meet tables are stored (the corpus keeps lattices at or below
2^6 elements, so memory is traded for constant-time algebra). Every table row
is `bytes`, one byte per element, so a lattice has at most 256 elements, and
a larger one is refused with CapacityError before any table is built.

Way-below is read from one route, the definitional oracle quantifying over
all ideals, never from the finite shortcut `a <= b`. A derived fact kept by
`posets.cached` (J(L), the ideals, the prime filters, the compact elements)
is returned as the tuple it is kept as.
"""

from __future__ import annotations

from itertools import chain, product, repeat
from operator import attrgetter

from . import config
from .errors import (
    CapacityError,
    ConsistencyError,
    DistributivityError,
    NotLatticeError,
    UnknownPredicate,
)
from .posets import Poset, PointwiseMap, bits, cached, conjunction, iter_monotone_maps, upset_masks

FRAME_PREDICATES = (
    "compactFrame",
    "algebraic",
    "arithmetic",
    "coherent",
    "regular",
    "zeroDimensional",
    "stone",
    "spatial",
)

HOM_PREDICATES = ("latticeHom", "frameHom", "coherentHom", "properHom")
_FLAG_INDEX = {name: i for i, name in enumerate(HOM_PREDICATES)}


class FinDLat:
    """Finite bounded lattice with explicit operation tables.

    Distributivity is not enforced at construction; call
    `require_distributive` (or check `is_distributive`) where it matters, so
    non-distributive input can be constructed and then rejected explicitly.

    Each `join[a]` and `meet[a]` row is `bytes` (97 bytes for 64 elements,
    against a tuple's 552), so the size is at most 256: every constructor,
    this one included, refuses a larger lattice with CapacityError before
    its tables are built. The order rows `up` and `down` are those of the
    one carrier `Poset` that `carrier_poset` returns. Everything derived
    from the tables (J(L), the ideals, the way-below rows, the dual space,
    the frame predicates per name, ...) is computed on first use and kept in
    the one `_memo` dict by `posets.cached`.
    """

    __slots__ = ("size", "up", "down", "join", "meet", "bottom", "top", "_carrier", "_memo")

    def __init__(self, up, join, meet, bottom, top):
        up = tuple(up)
        _require_row_width(len(up))
        self._fill(Poset(up, _trusted=True), join, meet, bottom, top)

    def _fill(self, carrier, join, meet, bottom, top):
        self.size = carrier.size
        self._carrier = carrier
        self.up, self.down = carrier.up, carrier.down
        self.join = tuple(map(bytes, join))
        self.meet = tuple(map(bytes, meet))
        self.bottom = bottom
        self.top = top
        self._memo = {}

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_leq_pairs(cls, size, pairs, bottom=None, top=None):
        """Build from an explicit order; joins/meets are computed and must exist."""
        if size < 1:
            raise NotLatticeError("a bounded lattice needs at least one element")
        _require_row_width(size)
        carrier = Poset.from_leq_pairs(pairs, size)
        n, up, down = size, carrier.up, carrier.down
        join = [[0] * n for _ in range(n)]
        meet = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                common = up[i] & up[j]
                lub = _extreme_of(common, up)
                if lub is None:
                    raise NotLatticeError(f"elements {i}, {j} have no least upper bound")
                glb = _extreme_of(down[i] & down[j], down)
                if glb is None:
                    raise NotLatticeError(f"elements {i}, {j} have no greatest lower bound")
                join[i][j] = join[j][i] = lub
                meet[i][j] = meet[j][i] = glb
        # every pair has a meet and a join, so a least and a greatest element exist
        bot = _extreme_of((1 << n) - 1, up)
        tp = _extreme_of((1 << n) - 1, down)
        if bottom is not None and bottom != bot:
            raise NotLatticeError(f"declared bottom {bottom} is not the least element")
        if top is not None and top != tp:
            raise NotLatticeError(f"declared top {top} is not the greatest element")
        # the checked carrier is the lattice's own, not rebuilt from its rows
        lattice = object.__new__(cls)
        lattice._fill(carrier, join, meet, bot, tp)
        return lattice

    @classmethod
    def chain(cls, n):
        """The n-element chain 0 < 1 < ... < n-1; an n that is not an int (a
        bool included) raises ValueError."""
        if type(n) is not int:
            raise ValueError(f"chain size {n!r} is not an int")
        if n < 1:
            raise NotLatticeError("a bounded lattice needs at least one element")
        _require_row_width(n)
        full = (1 << n) - 1
        up = tuple((full >> i) << i for i in range(n))
        join = [[max(i, j) for j in range(n)] for i in range(n)]
        meet = [[min(i, j) for j in range(n)] for i in range(n)]
        return cls(up, join, meet, 0, n - 1)

    # -- algebra -----------------------------------------------------------

    def leq(self, a, b):
        return bool((self.up[a] >> b) & 1)

    def join_of(self, elements):
        out = self.bottom
        for a in elements:
            out = self.join[out][a]
        return out

    def carrier_poset(self):
        return self._carrier

    @property
    def full_mask(self):
        return (1 << self.size) - 1

    # -- distributivity -----------------------------------------------------

    @cached
    def distributivity_witness(self):
        """The first triple violating a ∧ (b ∨ c) = (a ∧ b) ∨ (a ∧ c), or None."""
        # one pair (a, b) is two translates over every c: join[b] through
        # meet[a] gives a ∧ (b ∨ c), and meet[a] through join[a ∧ b] gives
        # (a ∧ b) ∨ (a ∧ c); c is located only on a mismatch
        n, join, meet = self.size, self.join, self.meet
        join_tables = [row.ljust(256, b"\0") for row in join]
        for a in range(n):
            meet_a = meet[a]
            meet_table = meet_a.ljust(256, b"\0")
            for b in range(n):
                lhs = join[b].translate(meet_table)
                rhs = meet_a.translate(join_tables[meet_a[b]])
                if lhs != rhs:
                    return a, b, next(c for c in range(n) if lhs[c] != rhs[c])
        return None

    def is_distributive(self):
        return self.distributivity_witness() is None

    def require_distributive(self):
        w = self.distributivity_witness()
        if w is not None:
            a, b, c = w
            raise DistributivityError(
                f"distributivity fails on ({a}, {b}, {c})", witness=w
            )

    # -- serialization -------------------------------------------------------

    def to_doc(self):
        """Canonical JSON form: Birkhoff form when distributive, explicit otherwise."""
        if self.is_distributive():
            points = join_irreducible_poset(self)
            return {"birkhoff": points.canonical().to_doc()}
        pairs = [
            [i, j]
            for i in range(self.size)
            for j in bits(self.up[i])
            if i != j
        ]
        return {
            "elements": self.size,
            "leq": sorted(pairs),
            "bottom": self.bottom,
            "top": self.top,
        }

    @classmethod
    def from_doc(cls, doc):
        if not isinstance(doc, dict):
            raise ValueError("not a lattice document")
        if "birkhoff" in doc:
            return birkhoff_lattice(Poset.from_doc(doc["birkhoff"]))
        if "elements" in doc:
            size, pairs = doc["elements"], doc.get("leq", [])
            if type(size) is not int or not isinstance(pairs, list):
                raise ValueError("lattice elements must be an int and leq a list")
            for p in pairs:
                if not (isinstance(p, (list, tuple)) and len(p) == 2
                        and all(type(x) is int and 0 <= x < size for x in p)):
                    raise ValueError(f"leq pair {p!r} is not a pair of elements in 0..{size - 1}")
            return cls.from_leq_pairs(
                size,
                [tuple(p) for p in pairs],
                bottom=doc.get("bottom"),
                top=doc.get("top"),
            )
        raise ValueError("not a lattice document")

    def __repr__(self):
        return f"FinDLat(size={self.size})"


def _require_row_width(n):
    """Return n, or raise CapacityError when n elements do not fit a `bytes`
    row: the one size bound on a lattice, checked before its tables exist."""
    if n > 256:
        raise CapacityError(f"a lattice of {n} elements is over 256, the width of a bytes row")
    return n


def _extreme_of(mask, rows):
    """The member of `mask` whose row holds all of `mask`, or None: the least
    member when `rows` are `up` rows, the greatest when they are `down`."""
    for u in bits(mask):
        if mask & ~rows[u] == 0:
            return u
    return None


# -- Birkhoff construction ----------------------------------------------------


def birkhoff_lattice(points):
    """Lattice of upsets of a poset; join is union, meet is intersection.

    Project-wide convention: upsets, not downsets, so the dual space of
    birkhoff_lattice(P) comes out order-isomorphic to P itself, and element
    i is the i-th mask of `upset_masks(points)`. The upset family is bounded
    by `config.MAX_UPSET_FAMILY`, and more than 256 upsets raise
    CapacityError before the join/meet tables are allocated.

    The tables are composed row by row. Only the join and up rows of each
    principal upset ↑q and the meet row of each co-principal one X∖↓q are
    filled pair by pair: one of each per point, at most 16. Let m be the
    first point of a nonempty upset U in a linear extension of P (bottom
    first). Nothing below m is in U, so m is minimal in U, U∖{m} is an
    upset, and

        U = (U∖{m}) ∪ ↑m, so U ∪ W = (U∖{m}) ∪ (↑m ∪ W) for every W:

    the join row of U is the row of ↑m read through the row of U∖{m}, one
    `bytes.translate`, and the up row of U is that of U∖{m} cut to the
    upsets holding m. Dually, let m' be the last point outside an upset
    U ≠ X in that extension. Everything above m' is in U, so U ∪ {m'} is an
    upset, no point below m' is in U, and

        U = (U ∪ {m'}) ∩ (X∖↓m'), so U ∩ W = (U ∪ {m'}) ∩ ((X∖↓m') ∩ W):

    the meet row of U is the row of X∖↓m' read through the row of
    U ∪ {m'}, and the down row of U is that of U ∪ {m'} cut to the upsets
    without m'. U∖{m} comes before U in the canonical order (it has fewer
    points), and U ∪ {m'} after it, so the join rows are built upwards
    from the empty upset and the meet rows downwards from X. The carrier
    keeps the `down` rows built here.
    """
    masks = upset_masks(points)
    n = _require_row_width(len(masks))
    index = {m: i for i, m in enumerate(masks)}
    full = (1 << n) - 1
    # a point strictly below p has a strictly smaller down-set
    lin = sorted(range(points.size), key=lambda p: points.down[p].bit_count())
    top_first = lin[::-1]
    # the join row of ↑q, the meet row of X∖↓q, and the upsets holding q
    # (the up row of ↑q; the upsets without q are the down row of X∖↓q)
    cover, hull, contains = [], [], []
    for q in range(points.size):
        above, outside = points.up[q], points.full_mask & ~points.down[q]
        cover.append(bytes([index[above | w] for w in masks]))
        hull.append(bytes([index[outside & w] for w in masks]))
        contains.append(sum(1 << j for j, w in enumerate(masks) if w >> q & 1))
    ident = bytes(range(n))
    # each row is kept padded to the 256 bytes a translate table needs
    tables = [ident.ljust(256, b"\0")] * n
    join, up = [ident] * n, [full] * n
    for i in range(1, n):
        u = masks[i]
        for m in lin:
            if u >> m & 1:
                break
        rest = index[u ^ (1 << m)]
        join[i] = row = cover[m].translate(tables[rest])
        tables[i] = row.ljust(256, b"\0")
        up[i] = up[rest] & contains[m]
    tables = [tables[0]] * n
    meet, down = [ident] * n, [full] * n
    for i in range(n - 2, -1, -1):
        u = masks[i]
        for m in top_first:
            if not u >> m & 1:
                break
        rest = index[u | (1 << m)]
        meet[i] = row = hull[m].translate(tables[rest])
        tables[i] = row.ljust(256, b"\0")
        down[i] = down[rest] & ~contains[m]
    lattice = object.__new__(FinDLat)
    lattice._fill(Poset(up, _trusted=True, _down=tuple(down)), join, meet,
                  index[0], index[points.full_mask])
    return lattice


@cached
def join_irreducibles(lattice):
    """Elements j that are not the join of the elements strictly below them.

    Any join of elements below j stays below j, so j = a ∨ b with a, b < j
    exactly when everything strictly below j joins to j. The bottom is the
    empty join, so it is excluded with no special case. One join per element
    below j: O(n²), and valid on any finite lattice, distributive or not.
    """
    return tuple(
        j for j in range(lattice.size)
        if lattice.join_of(bits(lattice.down[j] & ~(1 << j))) != j
    )


def join_irreducible_poset(lattice):
    """Join-irreducibles ordered so the upset construction round-trips.

    With the project-wide upset convention the recovered point order is the
    reverse of the lattice order on irreducibles (the inclusion order of the
    principal filters they generate): birkhoff_lattice(join_irreducible_poset(L))
    is isomorphic to L, and the poset is the dual space's point order.
    """
    irr = join_irreducibles(lattice)
    pos = {j: k for k, j in enumerate(irr)}
    irr_mask = sum(1 << j for j in irr)
    up = [0] * len(irr)
    for j in irr:
        for i in bits(lattice.down[j] & irr_mask):
            up[pos[j]] |= 1 << pos[i]
    return Poset(up, _trusted=True)


# -- ideals and prime filters ------------------------------------------------


@cached
def all_ideals(lattice):
    """All ideals: nonempty downsets closed under binary joins, as masks.

    On a finite lattice they are the principal down-sets ↓a (Idl(L) ≅ L). An
    ideal I is nonempty and closed under binary joins, so it holds the join
    ⋁I of its finitely many members; as a down-set it then holds ↓⋁I, and
    every member lies below ⋁I, so I = ↓⋁I. Conversely each ↓a is a nonempty
    down-set closed under joins. So the ideals are the `down` rows, sorted.
    """
    return tuple(sorted(lattice.down))


@cached
def prime_filters(lattice):
    """Proper filters whose complement is an ideal, read off the ideals.

    The complement F = L∖I of an ideal I is a proper nonempty upset. On a
    finite lattice it is a filter iff it holds its meet, that is iff it is
    a principal ``up[a]``, and then it is completely prime. The search never
    consults join irreducibles, so the dual space's fast path can be
    checked against it.
    """
    full, principal = lattice.full_mask, set(lattice.up)
    return tuple(sorted(
        f for f in (full & ~ideal for ideal in all_ideals(lattice)) if f in principal
    ))


# -- way below ------------------------------------------------------------------


@cached
def way_below_rows_oracle(lattice):
    """Definitional way-below as bitmask rows: row[a] = {b : a << b}.

    a << b iff every ideal whose join dominates b contains a. This is the
    brute-force authority used by the predicates and validators; it never
    consults the order shortcut. It quantifies over every ideal of
    `all_ideals`, each the principal ↓a, and takes each one's join literally.
    """
    n = lattice.size
    full = lattice.full_mask
    rows = [full for _ in range(n)]
    for ideal in all_ideals(lattice):
        sup = lattice.join_of(bits(ideal))
        dominated = lattice.down[sup]
        blocked = ~ideal & full
        for a in bits(blocked):
            rows[a] &= ~dominated
    return tuple(rows)


@cached
def _way_below_pairs(lattice):
    """The oracle's way-below pairs a << b as two `bytes`: the a's and the b's."""
    rows = tuple(map(bits, way_below_rows_oracle(lattice)))
    return (
        bytes(a for a, row in enumerate(rows) for _ in row),
        bytes(chain.from_iterable(rows)),
    )


@cached
def compact_elements(lattice):
    """Elements a with a << a (oracle route); the full carrier on finite lattices."""
    rows = way_below_rows_oracle(lattice)
    return tuple(a for a in range(lattice.size) if (rows[a] >> a) & 1)


# -- pseudocomplement and well inside ----------------------------------------------


def pseudocomplement(lattice, a):
    """a* = join of {x : a ∧ x = 0}; a ∧ a* = 0 is checked (needs distributivity)."""
    row = lattice.meet[a]
    star = _pseudocomplement_joins(lattice)[a]
    if row[star] != lattice.bottom:
        raise ConsistencyError(
            "a ∧ a* != 0; the lattice is not distributive enough for pseudocomplements"
        )
    return star


@cached
def _pseudocomplement_joins(lattice):
    """⋁{x : a ∧ x = 0} for every a as `bytes`, unchecked."""
    bottom = lattice.bottom
    return bytes(lattice.join_of(x for x, m in enumerate(row) if m == bottom)
                 for row in lattice.meet)


def well_inside(lattice, a, b):
    """a ≺ b iff a* ∨ b = 1."""
    return lattice.join[pseudocomplement(lattice, a)][b] == lattice.top


def complemented_elements(lattice):
    """C(L) = {a : a ≺ a}."""
    return [a for a in range(lattice.size) if well_inside(lattice, a, a)]


# -- frame predicates -----------------------------------------------------------


def frame_predicate(lattice, name):
    ok, _ = frame_predicate_witness(lattice, name)
    return ok


@cached
def frame_predicate_witness(lattice, name):
    """Literal evaluation of a frame property; returns (bool, witness or None).

    Way-below always means the ideal oracle here, never the order shortcut.
    Each result is kept per lattice and name, and the composites (coherent,
    stone, arithmetic) read their parts through it: one evaluation each.
    """
    return _frame_predicate_witness(lattice, name)


# Composite frame predicates: each is the conjunction of the listed
# predicates, and its witness is that of the first one to fail.
_CONJUNCTIONS = {
    "coherent": ("arithmetic", "compactFrame"),
    "stone": ("compactFrame", "zeroDimensional"),
}


def _frame_predicate_witness(lattice, name):
    if name in _CONJUNCTIONS:
        return conjunction(frame_predicate_witness, lattice, _CONJUNCTIONS[name])
    n = lattice.size
    rows = way_below_rows_oracle(lattice)
    if name == "compactFrame":
        ok = bool((rows[lattice.top] >> lattice.top) & 1)
        return ok, (None if ok else {"element": lattice.top})
    if name == "algebraic":
        compact = sum(1 << a for a in compact_elements(lattice))
        return _join_sweep(lattice, lambda a: bits(compact & lattice.down[a]))
    if name == "arithmetic":
        ok, w = frame_predicate_witness(lattice, "algebraic")
        if not ok:
            return ok, w
        # `inside` is 1 exactly on ↟a; one translate pair maps every c ∈ ↟a
        # to [b ∧ c ∈ ↟a], and the c-loop runs only to name the witness
        meet_tables = [row.ljust(256, b"\0") for row in lattice.meet]
        for a in range(n):
            above = bits(rows[a])
            inside = bytearray(256)
            for x in above:
                inside[x] = 1
            above_bytes = bytes(above)
            for b in above:
                if 0 not in above_bytes.translate(meet_tables[b]).translate(inside):
                    continue
                for c in above:
                    if not inside[lattice.meet[b][c]]:
                        return False, {"triple": (a, b, c)}
        return True, None
    if name == "regular":
        # b ≺ a iff b* ∨ a = 1; each b*'s join row is read once per call
        star_rows = [lattice.join[pseudocomplement(lattice, b)] for b in range(n)]
        return _join_sweep(
            lattice, lambda a: [b for b in range(n) if star_rows[b][a] == lattice.top]
        )
    if name == "zeroDimensional":
        comp = complemented_elements(lattice)
        return _join_sweep(lattice, lambda a: [b for b in comp if lattice.leq(b, a)])
    if name == "spatial":
        # key each element by its prime filters (bit i for the i-th); the
        # witness is the first element that shares its key, with the next
        keys = [0] * n
        for i, f in enumerate(prime_filters(lattice)):
            for a in bits(f):
                keys[a] |= 1 << i
        classes = {}
        for a, key in enumerate(keys):
            classes.setdefault(key, []).append(a)
        pairs = [tuple(c[:2]) for c in classes.values() if len(c) > 1]
        return (False, {"pair": min(pairs)}) if pairs else (True, None)
    raise UnknownPredicate(f"unknown frame predicate {name!r}")


def _join_sweep(lattice, below):
    """(True, None) if every a is the join of ``below(a)``, else (False,
    {"element": a}) for the first a that is not; `spaces._density_sweep`'s twin."""
    for a in range(lattice.size):
        if lattice.join_of(below(a)) != a:
            return False, {"element": a}
    return True, None


# -- homomorphisms ---------------------------------------------------------------


def _flag_property(name):
    """The `LatticeHom` property that reads the `_flags` entry of `name`."""
    index = _FLAG_INDEX[name]

    def read(hom):
        flags = hom._flags
        return hom_predicate(hom, name) if flags is None else flags[index]

    return property(read)


class LatticeHom(PointwiseMap):
    """Element-wise map between lattices with cached predicate flags.

    The constructor is the checked one of `posets.PointwiseMap`.
    `enumerate_homs` builds its homs without it, from images in range by
    construction. `image` is a tuple; `_table`, the image as bytes padded to
    256, is the `translate` table of `_decide_flags`' byte-code kernels and
    the order in which `enumerate_homs` sorts; `_tables` is `_hom_tables`, shared
    by every hom of a search; `_flags` is None until `_decide_flags` decides
    the hom, and then its four flags, which the properties read.
    """

    __slots__ = ("_table", "_tables", "_flags")

    def __init__(self, source, target, image):
        super().__init__(source, target, image)
        self._table = bytes(self.image).ljust(256, b"\0")
        self._tables = _hom_tables(source, target)
        self._flags = None

    is_frame_hom = _flag_property("frameHom")
    is_coherent = _flag_property("coherentHom")
    is_proper = _flag_property("properHom")


@cached
def _pair_table(lattice):
    """Every index pair a <= b as four `bytes`: a, b, a ∨ b and a ∧ b, so the
    byte-code kernels of `_decide_flags` can `translate` them."""
    n = lattice.size
    return (
        bytes(chain.from_iterable(repeat(a, n - a) for a in range(n))),
        bytes(chain.from_iterable(range(a, n) for a in range(n))),
        bytes(chain.from_iterable(lattice.join[a][a:] for a in range(n))),
        bytes(chain.from_iterable(lattice.meet[a][a:] for a in range(n))),
    )


@cached
def _byte_tables(lattice):
    """For at most 16 elements: x ∨ y, x ∧ y and 1 iff x << y (by the ideal
    oracle), each a 256-byte `translate` table at index 16x + y."""
    rows = way_below_rows_oracle(lattice)
    join, meet, wb = bytearray(256), bytearray(256), bytearray(256)
    for x in range(lattice.size):
        for y in range(lattice.size):
            join[16 * x + y] = lattice.join[x][y]
            meet[16 * x + y] = lattice.meet[x][y]
            wb[16 * x + y] = (rows[x] >> y) & 1
    return bytes(join), bytes(meet), bytes(wb)


def _gather(col, tables):
    """`col` through each image table in turn, joined into one `bytes`."""
    return b"".join([col.translate(t) for t in tables])


def _pair_codes(a_col, b_col, tables):
    """16·h(a) + h(b) for each pair (a, b) of each hom h: every h(x) < 16, so
    each h(a), 4 bits up in its byte's high nibble, ORs in without a carry."""
    high = int.from_bytes(_gather(a_col, tables), "big") << 4
    low = int.from_bytes(_gather(b_col, tables), "big")
    return (high | low).to_bytes(len(a_col) * len(tables), "big")


@cached
def _hom_tables(source, target):
    """Everything `_decide_flags` reads for maps source → target, kept per pair
    and shared by every hom of a search: `small` (the target has at most 16
    elements, so the nibble kernels apply), the source's `_pair_table`, the
    target's `_byte_tables` when small and else its rows and the oracle's,
    the source's `_way_below_pairs`, and the compact elements and the bounds
    of both, as `bytes`.
    """
    small = target.size <= 16
    tgt_tables = (_byte_tables(target) if small
                  else (target.join, target.meet, way_below_rows_oracle(target)))
    return (small, _pair_table(source), tgt_tables, _way_below_pairs(source),
            bytes(compact_elements(source)), bytes(compact_elements(target)),
            bytes((source.bottom, source.top)), bytes((target.bottom, target.top)))


def hom_predicate(hom, name):
    """Literal evaluation of a homomorphism property, kept in ``hom._flags``.

    latticeHom checks h(a ∨ b) = h(a) ∨ h(b) and h(a ∧ b) = h(a) ∧ h(b) on
    every index pair a <= b of the source's `_pair_table`; frameHom is
    latticeHom with the two bounds kept; coherentHom and properHom are False
    whenever frameHom is, and otherwise coherentHom checks that h maps every
    compact element of the source to a compact element of the target, and
    properHom checks h(a) << h(b) on every pair a << b of the source, both by
    the ideal oracle. A hom that no search has decided is decided here, by
    `_decide_flags((hom,))`; every later call and flag property reads it.
    """
    index = _FLAG_INDEX.get(name)
    if index is None:
        raise UnknownPredicate(f"unknown hom predicate {name!r}")
    if hom._flags is None:
        _decide_flags((hom,))
    return hom._flags[index]


def _decide_flags(homs):
    """Set `_flags` (the four flags in `HOM_PREDICATES` order; only this
    function sets them) on each of the `homs`, which share one `_tables`.
    Each check runs once, on the source's columns gathered through every
    image table (`_gather`): coherentHom deletes the target's compact
    elements from the images of the source's, and up to 16 target elements
    each pair becomes the byte 16·h(a) + h(b) (`_pair_codes`), which
    `_byte_tables` translate to h(a) ∨ h(b), h(a) ∧ h(b) or [h(a) << h(b)];
    larger targets are scanned pair by pair. If a check fails, each hom is
    decided again alone, so its flags never depend on its batch-mates.
    """
    (small, (a_col, b_col, join_col, meet_col), (tgt_join, tgt_meet, tgt_wb), (wb_a, wb_b),
     src_compact, tgt_compact, src_bounds, tgt_bounds) = homs[0]._tables
    tables = [hom._table for hom in homs]
    if small:
        codes = _pair_codes(a_col, b_col, tables)
        lattice_hom = (
            codes.translate(tgt_join) == _gather(join_col, tables)
            and codes.translate(tgt_meet) == _gather(meet_col, tables)
        )
    else:
        lattice_hom = True
        for t, (a, b, ab_join, ab_meet) in product(tables, zip(a_col, b_col, join_col, meet_col)):
            ha, hb = t[a], t[b]
            if t[ab_join] != tgt_join[ha][hb] or t[ab_meet] != tgt_meet[ha][hb]:
                lattice_hom = False
                break
    frame_hom = lattice_hom and _gather(src_bounds, tables) == tgt_bounds * len(tables)
    coherent = proper = frame_hom
    if frame_hom:
        coherent = not _gather(src_compact, tables).translate(None, tgt_compact)
        if small:
            proper = 0 not in _pair_codes(wb_a, wb_b, tables).translate(tgt_wb)
        else:
            for t, (a, b) in product(tables, zip(wb_a, wb_b)):
                if not (tgt_wb[t[a]] >> t[b]) & 1:
                    proper = False
                    break
    if len(homs) > 1 and not (coherent and proper):
        for hom in homs:
            _decide_flags((hom,))
        return
    flags = (lattice_hom, frame_hom, coherent, proper)
    for hom in homs:
        hom._flags = flags


def enumerate_homs(source, target):
    """All frame homs source → target, in image order.

    Callers that want coherent or proper homs filter by the `is_coherent` or
    `is_proper` flag; lattice homs that need not preserve the bounds are not
    enumerated, but `hom_predicate` still decides latticeHom for any map.

    Search through the dual: frame homs L → M between finite distributive
    lattices correspond one to one to monotone maps f: X_M → X_L between
    their dual spaces, read from the cached `priestley_space_of` records,
    with h(a) = φ_M⁻¹({y ∈ X_M : f(y) ∈ φ_L(a)}). The search space counted
    against `config.MAX_SEARCH_SPACE` is |X_L|^|X_M|, and it is counted from
    `join_irreducibles` before either record is built. Both lattices must
    be distributive, or the correspondence fails.

    Each image is read from one packed integer, the sum of one precomputed
    term per dual point of M, with one field per source element, which
    `iter_monotone_maps` adds as it assigns the point. When X_M has at most 8
    points (so M has at most 256 elements, and every corpus lattice up to 8
    points qualifies), a field is one byte, and the whole image is one
    `translate` of the integer's bytes through the table φ_M(e) ↦ e; wider
    targets map each field through a dict. The table is kept on M
    (`_element_table`) and the terms on L per width of X_M (`_lift`), so a
    search builds neither. The images are in range by
    construction, so the homs skip the checked constructor and share one
    `_hom_tables` tuple. One `_decide_flags` batch decides every candidate,
    and one `hom_predicate` call per candidate reads its frameHom flag; the
    `is_coherent` and `is_proper` reads that follow make no call. The homs
    are sorted by their `_table`: image bytes sort as the image tuples do,
    since every image has one byte per source element.
    """
    from .duality import priestley_space_of  # duality imports this module

    source.require_distributive()
    target.require_distributive()
    space = len(join_irreducibles(source)) ** len(join_irreducibles(target))
    if space > config.MAX_SEARCH_SPACE:
        raise CapacityError("hom search space exceeds the configured bound")
    src_space = priestley_space_of(source).space
    tgt_space = priestley_space_of(target).space
    w = tgt_space.size
    n = source.size
    element_of = _element_table(target)
    if w <= 8:
        def image_of(packed):
            image = packed.to_bytes(n, "little").translate(element_of)
            return tuple(image), image.ljust(256, b"\0")
    else:
        shifts = [w * a for a in range(n)]
        field = (1 << w) - 1

        def image_of(packed):
            image = tuple([element_of[packed >> s & field] for s in shifts])
            return image, bytes(image).ljust(256, b"\0")
    tables, new = _hom_tables(source, target), object.__new__
    candidates = []
    for packed, _ in iter_monotone_maps(tgt_space, src_space, _lift(source, w)):
        hom = new(LatticeHom)
        hom.source, hom.target, hom._tables, hom._flags = source, target, tables, None
        hom.image, hom._table = image_of(packed)
        candidates.append(hom)
    if candidates:
        _decide_flags(candidates)
    candidates.sort(key=attrgetter("_table"))
    return [hom for hom in candidates if hom_predicate(hom, "frameHom")]


@cached
def _element_table(lattice):
    """φ(e) ↦ e over the elements e: 256 bytes for `translate` when the dual
    space has at most 8 points (then the lattice, the upsets of its dual,
    has at most 256 elements), a dict otherwise."""
    from .duality import priestley_space_of  # duality imports this module

    record = priestley_space_of(lattice)
    if record.space.size > 8:
        return {m: e for e, m in enumerate(record.phi)}
    table = bytearray(256)
    for e, m in enumerate(record.phi):
        table[m] = e
    return bytes(table)


@cached
def _lift(lattice, w):
    """The search terms of homs h out of the lattice L into a lattice M whose
    dual has w points.

    An image is packed into one integer, one field per element of L, 8 bits
    wide when w <= 8 and w bits otherwise: bit y of field a is set iff
    f(y) ∈ φ_L(a), so field a is φ_M(h(a)). f(y) = x contributes
    ``lift[y][x]``, that is spread[x] << y, where spread[x] has bit 0 of
    field a set for each a with x ∈ φ_L(a).
    """
    from .duality import priestley_space_of  # duality imports this module

    width = 8 if w <= 8 else w
    spread = [sum(1 << width * a for a in bits(m))
              for m in priestley_space_of(lattice).point_filters]
    return tuple([s << y for s in spread] for y in range(w))
