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

from itertools import chain, compress, repeat
from operator import itemgetter

from . import config
from .errors import (
    CapacityError,
    ConsistencyError,
    DistributivityError,
    NotLatticeError,
    UnknownPredicate,
)
from .posets import (
    Poset, PointwiseMap, _require_element, _require_row_width, bits, cached, conjunction,
    iter_monotone_maps, transpose, upset_masks,
)

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

    The constructor takes the carrier `Poset`, whose own constructor
    checks its order, and is the one way a lattice is built:
    `from_leq_pairs`, `chain` and `birkhoff_lattice` each hand it theirs.
    Each `join[a]` and `meet[a]` row is `bytes` (97 bytes for 64 elements,
    against a tuple's 552), so the size is at most 256, and a larger carrier
    is refused with CapacityError before any table is read. The order rows
    `up` and `down` are the carrier's, which `carrier_poset` returns.
    Everything derived from the tables (J(L), the ideals, the way-below
    rows, the dual space, the frame predicates per name, ...) is computed on
    first use and kept in the one `_memo` dict by `posets.cached`.
    """

    __slots__ = ("size", "up", "down", "join", "meet", "bottom", "top", "_carrier", "_memo")

    def __init__(self, carrier, join, meet, bottom, top):
        self.size = _require_row_width(carrier.size)
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
        return cls(carrier, join, meet, bot, tp)

    @classmethod
    def chain(cls, n):
        """The n-element chain 0 < 1 < ... < n-1; an n that is not an int (a
        bool included) raises ValueError."""
        if type(n) is not int:
            raise ValueError(f"chain size {n!r} is not an int")
        if n < 1:
            raise NotLatticeError("a bounded lattice needs at least one element")
        _require_row_width(n)
        join = [[max(i, j) for j in range(n)] for i in range(n)]
        meet = [[min(i, j) for j in range(n)] for i in range(n)]
        return cls(Poset.chain(n), join, meet, 0, n - 1)

    # -- algebra -----------------------------------------------------------

    def leq(self, a, b):
        """a <= b; an `a` or `b` outside 0..size-1 raises ValueError."""
        _require_element(self, a)
        _require_element(self, b)
        return bool((self.up[a] >> b) & 1)

    def join_of(self, elements):
        """The join of the elements, the bottom for none; an element outside
        0..size-1 raises ValueError. The library's own folds, over elements
        read off its rows, use the unchecked `_fold_join`."""
        elements = tuple(elements)
        for a in elements:
            _require_element(self, a)
        return _fold_join(self, elements)

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
            return cls.from_leq_pairs(size, pairs, bottom=doc.get("bottom"), top=doc.get("top"))
        raise ValueError("not a lattice document")

    def __repr__(self):
        return f"FinDLat(size={self.size})"


def _fold_join(lattice, elements):
    """The join of elements known to lie in 0..size-1, from the bottom."""
    join, out = lattice.join, lattice.bottom
    for a in elements:
        out = join[out][a]
    return out


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
    i is the i-th mask of `upset_masks(points)`, which refuses more than
    256 upsets with CapacityError, so the tables fit their `bytes` rows.

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
    handed to `FinDLat` keeps the `down` rows built here.
    """
    masks = upset_masks(points)
    n = len(masks)
    index = {m: i for i, m in enumerate(masks)}
    full = (1 << n) - 1
    # a point strictly below p has a strictly smaller down-set
    lin = sorted(range(points.size), key=lambda p: points.down[p].bit_count())
    top_first = lin[::-1]
    # the join row of ↑q, the meet row of X∖↓q, and the upsets holding q
    # (the up row of ↑q; the upsets without q are the down row of X∖↓q)
    cover, hull = [], []
    for q in range(points.size):
        above, outside = points.up[q], points.full_mask & ~points.down[q]
        cover.append(bytes([index[above | w] for w in masks]))
        hull.append(bytes([index[outside & w] for w in masks]))
    contains = transpose(masks, points.size)
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
    return FinDLat(Poset(up, _trusted=True, _down=tuple(down)), join, meet,
                   index[0], index[points.full_mask])


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
        if _fold_join(lattice, bits(lattice.down[j] & ~(1 << j))) != j
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
        sup = _fold_join(lattice, bits(ideal))
        dominated = lattice.down[sup]
        blocked = ~ideal & full
        for a in bits(blocked):
            rows[a] &= ~dominated
    return tuple(rows)


@cached
def compact_elements(lattice):
    """Elements a with a << a (oracle route); the full carrier on finite lattices."""
    rows = way_below_rows_oracle(lattice)
    return tuple(a for a in range(lattice.size) if (rows[a] >> a) & 1)


@cached
def _compact_joins(lattice):
    """⋁(K ∩ ↓a) for every element a as `bytes`, K the compact elements: the
    join that `frame_predicate(lattice, "algebraic")` and the
    algebraicEquivalence validator compare with a."""
    compact = sum(1 << a for a in compact_elements(lattice))
    return bytes(_fold_join(lattice, bits(compact & down)) for down in lattice.down)


# -- pseudocomplement and well inside ----------------------------------------------


def pseudocomplement(lattice, a):
    """a* = join of {x : a ∧ x = 0}; a ∧ a* = 0 is checked (needs distributivity).
    An `a` outside 0..size-1 raises ValueError."""
    _require_element(lattice, a)
    return _checked_star(lattice, a, _pseudocomplement_joins(lattice)[a])


def _checked_star(lattice, a, star):
    """`star`, or ConsistencyError when a ∧ star != 0."""
    if lattice.meet[a][star] != lattice.bottom:
        raise ConsistencyError(
            "a ∧ a* != 0; the lattice is not distributive enough for pseudocomplements"
        )
    return star


@cached
def _pseudocomplement_joins(lattice):
    """⋁{x : a ∧ x = 0} for every a as `bytes`, unchecked: the meet row of a,
    read through the table that marks the bottom, picks the x."""
    elements, is_bottom = range(lattice.size), _marker(lattice.bottom)
    return bytes(_fold_join(lattice, compress(elements, row.translate(is_bottom)))
                 for row in lattice.meet)


def _marker(x):
    """The 256-byte `translate` table that maps x to 1 and every other byte to 0."""
    table = bytearray(256)
    table[x] = 1
    return bytes(table)


@cached
def _pseudocomplements(lattice):
    """a* for every a as `bytes`, each checked in element order, so the first
    a with a ∧ a* != 0 raises ConsistencyError: what `regular` and
    `complemented_elements` read in place of one `pseudocomplement` call
    per element."""
    return bytes(_checked_star(lattice, a, star)
                 for a, star in enumerate(_pseudocomplement_joins(lattice)))


def well_inside(lattice, a, b):
    """a ≺ b iff a* ∨ b = 1. An `a` or `b` outside 0..size-1 raises ValueError."""
    _require_element(lattice, b)
    return lattice.join[pseudocomplement(lattice, a)][b] == lattice.top


def complemented_elements(lattice):
    """C(L) = {a : a ≺ a}, that is a* ∨ a = 1."""
    join, top = lattice.join, lattice.top
    return [a for a, star in enumerate(_pseudocomplements(lattice)) if join[star][a] == top]


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
        for a, sup in enumerate(_compact_joins(lattice)):
            if sup != a:
                return False, {"element": a}
        return True, None
    if name == "arithmetic":
        ok, w = frame_predicate_witness(lattice, "algebraic")
        if not ok:
            return ok, w
        # `inside` is the way-below byte row of a, 1 exactly on ↟a, padded to
        # a table. One translate of the meet rows of every b ∈ ↟a maps each
        # (b, c) to [b ∧ c ∈ ↟a]: 1 for every c ∈ ↟a when ↟a is closed under
        # meets, and 0 for every c ∉ ↟a, since b ∧ c ≤ c and ↟a is an upset.
        # The triple loop runs only on an a whose translate differs, to name
        # the witness; on rows that are no upsets it may find none, and the
        # sweep goes on.
        meet = lattice.meet
        for a, row in enumerate(_way_below_bytes(lattice)):
            above = bits(rows[a])
            inside = row.ljust(256, b"\0")
            if b"".join(map(meet.__getitem__, above)).translate(inside) == row * len(above):
                continue
            for b in above:
                for c in above:
                    if not inside[meet[b][c]]:
                        return False, {"triple": (a, b, c)}
        return True, None
    if name == "regular":
        # b ≺ a iff b* ∨ a = 1: the row of the stars, read through the join
        # row of a and then the table that marks the top, picks the b
        stars, elements, is_top = _pseudocomplements(lattice), range(n), _marker(lattice.top)
        return _join_sweep(lattice, lambda a: compress(
            elements, stars.translate(lattice.join[a].ljust(256, b"\0")).translate(is_top)
        ))
    if name == "zeroDimensional":
        comp = sum(1 << b for b in complemented_elements(lattice))
        return _join_sweep(lattice, lambda a: bits(comp & lattice.down[a]))
    if name == "spatial":
        # key each element by its prime filters (bit i for the i-th); the
        # witness is the first element that shares its key, with the next
        keys = transpose(prime_filters(lattice), n)
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
        if _fold_join(lattice, below(a)) != a:
            return False, {"element": a}
    return True, None


# -- homomorphisms ---------------------------------------------------------------


class LatticeHom(PointwiseMap):
    """Element-wise map between lattices with its four predicate flags.

    The constructor is the checked one of `posets.PointwiseMap`, and it
    decides the flags as a batch of one row, `_decide_flags(source, target,
    [bytes(image)])`. `enumerate_homs` builds its homs without it, each from
    its sorted row, in range by construction, with the flags `_decide_flags`
    returned for that row. `image` is a tuple, and `flags` the four flags in
    `HOM_PREDICATES` order, fixed when the hom is built: callers read them
    there or through `hom_predicate`, and nothing decides them again.
    """

    __slots__ = ("flags",)

    def __init__(self, source, target, image):
        super().__init__(source, target, image)
        self.flags = _decide_flags(source, target, [bytes(self.image)])[0]


@cached
def _way_below_bytes(lattice):
    """Row x as `bytes`: byte y is 1 iff x << y by the ideal oracle, read off
    the oracle row's binary digits, lowest first, with one `translate`."""
    n, digits = lattice.size, bytes.maketrans(b"01", b"\0\1")
    return tuple(bin(row)[:1:-1].ljust(n, "0").encode().translate(digits)
                 for row in way_below_rows_oracle(lattice))


@cached
def _source_tables(lattice):
    """What `_decide_flags` reads of a source: seven `itemgetter`s, then its
    join, meet and `_way_below_bytes` rows, each joined into one `bytes`
    whose byte n·a + b (n = size) is a ∨ b, a ∧ b or [a << b].

    The getters pick, out of a batch's image columns, those of the source
    elements a check reads: a, b, a ∨ b and a ∧ b over every index pair
    a <= b; the a's and the b's of the way-below pairs a << b by the ideal
    oracle; and the compact elements. A getter also picks index `size`, the
    empty column after the last, so it returns a tuple however few elements
    it names."""
    n, join, meet, way_below = lattice.size, lattice.join, lattice.meet, _way_below_bytes(lattice)
    above = [list(compress(range(n), row)) for row in way_below]
    columns = (
        bytes(chain.from_iterable(repeat(a, n - a) for a in range(n))),
        bytes(chain.from_iterable(range(a, n) for a in range(n))),
        bytes(chain.from_iterable(join[a][a:] for a in range(n))),
        bytes(chain.from_iterable(meet[a][a:] for a in range(n))),
        bytes(chain.from_iterable(repeat(a, len(row)) for a, row in enumerate(above))),
        bytes(chain.from_iterable(above)),
        bytes(compact_elements(lattice)),
    )
    return (*(itemgetter(*col, n) for col in columns),
            *(b"".join(rows) for rows in (join, meet, way_below)))


@cached
def _target_tables(lattice):
    """What `_decide_flags` reads of a target: its join, meet and
    `_way_below_bytes` tables, then its compact elements as `bytes`.

    The one place the 16-element threshold of the hom check is decided, by
    the format of the tables. Up to 16 elements each is one 256-byte
    `translate` table whose byte 16x + y is x ∨ y, x ∧ y or [x << y]: the
    rows padded to 16 bytes and joined. Over 16 each is a list of every
    element x's row padded to a 256-byte table, so that t.translate(table[x])
    maps every y of a row t to x ∨ y, x ∧ y or [x << y].
    """
    width = 16 if lattice.size <= 16 else 256
    tables = [[row.ljust(width, b"\0") for row in rows]
              for rows in (lattice.join, lattice.meet, _way_below_bytes(lattice))]
    if width == 16:
        tables = [b"".join(rows).ljust(256, b"\0") for rows in tables]
    return (*tables, bytes(compact_elements(lattice)))


def _pair_codes(high, low):
    """16x + y for each byte x of `high` and y of `low`: every x < 16, so
    each x, 4 bits up in its byte's high nibble, ORs in without a carry."""
    codes = int.from_bytes(high, "big") << 4 | int.from_bytes(low, "big")
    return codes.to_bytes(len(high), "big")


def hom_predicate(hom, name):
    """A homomorphism property of `hom`, read from its ``flags``.

    latticeHom is h(a ∨ b) = h(a) ∨ h(b) and h(a ∧ b) = h(a) ∧ h(b) on every
    pair of source elements; frameHom is latticeHom with the two bounds
    kept; coherentHom and properHom are False whenever frameHom is, and
    otherwise coherentHom is that h maps every compact element of the source
    to a compact element of the target, and properHom that h(a) << h(b) on
    every pair a << b of the source, both by the ideal oracle. All four are
    evaluated literally by `_decide_flags` when the hom is built, by the
    checked constructor as a batch of one and by `enumerate_homs` on its
    search's batch; this reads the one asked for, as `hom.flags` does.
    """
    index = _FLAG_INDEX.get(name)
    if index is None:
        raise UnknownPredicate(f"unknown hom predicate {name!r}")
    return hom.flags[index]


def _decide_flags(source, target, rows):
    """The four flags, in `HOM_PREDICATES` order, of each map source → target
    whose image is one of the n-byte `rows` (n = source.size): a list of
    one tuple per row, in row order.

    Each check runs once on the whole batch, and reads two cached facts:
    `_source_tables(source)` and `_target_tables(target)`. The column of
    source element a, its image under every row, is the strided slice
    images[a::n] of the rows joined, and the source's getters gather the
    columns a check reads into one `bytes`. frameHom reads the bottom's and
    the top's columns, and coherentHom deletes the target's compact elements
    from the images of the source's. The format of the target's tables chooses the route of
    latticeHom and properHom. As 256-byte tables (up to 16 target elements)
    each pair a <= b of the source becomes the byte 16·h(a) + h(b)
    (`_pair_codes`), which they translate to h(a) ∨ h(b), h(a) ∧ h(b) or
    [h(a) << h(b)]. As lists of rows (up to 256), each row t, padded to a
    256-byte table, translates the source's joined rows to h(a ∨ b) and
    h(a ∧ b) for every pair, and t translates through the target's row of
    each h(a) to h(a) ∨ h(b), h(a) ∧ h(b) and [h(a) << h(b)]; read as one
    int, the last must hold the source's way-below mask. When every check
    passes, the one flags tuple holds for every row; if one fails, each row
    is decided again as a batch of one, so its flags never depend on its
    batch-mates.
    """
    n, k = source.size, len(rows)
    images = b"".join(rows)
    (a_of, b_of, join_of, meet_of, wb_a_of, wb_b_of, compact_of,
     src_join, src_meet, src_wb) = _source_tables(source)
    tgt_join, tgt_meet, tgt_wb, tgt_compacts = _target_tables(target)
    cols = [images[a::n] for a in range(n)]
    cols.append(b"")  # the empty column every getter also picks
    small = type(tgt_join) is bytes
    if small:
        codes = _pair_codes(b"".join(a_of(cols)), b"".join(b_of(cols)))
        lattice_hom = (
            codes.translate(tgt_join) == b"".join(join_of(cols))
            and codes.translate(tgt_meet) == b"".join(meet_of(cols))
        )
    else:
        tables = [t.ljust(256, b"\0") for t in rows]
        lattice_hom = (
            b"".join([src_join.translate(table) for table in tables])
            == b"".join([t.translate(tgt_join[x]) for t in rows for x in t])
            and b"".join([src_meet.translate(table) for table in tables])
            == b"".join([t.translate(tgt_meet[x]) for t in rows for x in t])
        )
    frame_hom = lattice_hom and (cols[source.bottom] == bytes((target.bottom,)) * k
                                 and cols[source.top] == bytes((target.top,)) * k)
    coherent = proper = frame_hom
    if frame_hom:
        compacts = b"".join(compact_of(cols))
        coherent = not compacts.translate(None, tgt_compacts)
        if small:
            codes = _pair_codes(b"".join(wb_a_of(cols)), b"".join(wb_b_of(cols)))
            proper = 0 not in codes.translate(tgt_wb)
        else:
            mask = int.from_bytes(src_wb * k, "big")
            below = b"".join([t.translate(tgt_wb[x]) for t in rows for x in t])
            proper = int.from_bytes(below, "big") & mask == mask
    if k > 1 and not (coherent and proper):
        return [_decide_flags(source, target, [row])[0] for row in rows]
    return [(lattice_hom, frame_hom, coherent, proper)] * k


def enumerate_homs(source, target):
    """All frame homs source → target, in image order.

    Callers that want coherent or proper homs filter by the coherentHom or
    properHom entry of `flags`; lattice homs that need not preserve the
    bounds are not enumerated, but `hom_predicate` still decides latticeHom
    for any map.

    Search through the dual: frame homs L → M between finite distributive
    lattices correspond one to one to monotone maps f: X_M → X_L between
    their dual spaces, read from the cached `priestley_space_of` records,
    with h(a) = φ_M⁻¹({y ∈ X_M : f(y) ∈ φ_L(a)}). The search space counted
    against `config.MAX_SEARCH_SPACE` is |X_L|^|X_M|, and it is counted from
    `join_irreducibles` before either record is built. Both lattices must
    be distributive, or the correspondence fails.

    Each image is read from one packed integer, the sum of one precomputed
    term per dual point of M, with one field per source element, which
    `iter_monotone_maps` adds as it assigns the point. The search's k images
    are one buffer of k rows of |L| bytes (M has at most 256 elements). When
    X_M has at most 8 points (every corpus lattice up to 8 points
    qualifies), a field is one byte, and the buffer is one `b"".join` of the
    totals' bytes and one `translate` through the table φ_M(e) ↦ e; wider
    targets map each field through a dict. The table is kept on M
    (`_element_table`) and the terms on L per width of X_M (`_lift`), so a
    search builds neither. The rows sort as bytes as the image tuples do,
    and are sorted once, before one `_decide_flags` call decides them and
    returns one flags tuple per row. In one loop each hom is built from its
    row, without the checked constructor (its image is in range by
    construction), with its row's flags, and kept if the one
    `hom_predicate` call per candidate reads its frameHom flag as True;
    callers read the other flags from `flags` with no call.
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
    totals = [total for total, _ in iter_monotone_maps(tgt_space, src_space, _lift(source, w))]
    if not totals:
        return []
    element_of = _element_table(target)
    if w <= 8:
        images = b"".join([total.to_bytes(n, "little") for total in totals]).translate(element_of)
    else:
        shifts, field = range(0, w * n, w), (1 << w) - 1
        images = bytes([element_of[total >> s & field] for total in totals for s in shifts])
    rows = sorted([images[i:i + n] for i in range(0, len(images), n)])
    new, homs = object.__new__, []
    for image, flags in zip(map(tuple, rows), _decide_flags(source, target, rows)):
        hom = new(LatticeHom)
        hom.source, hom.target, hom.image, hom.flags = source, target, image, flags
        if hom_predicate(hom, "frameHom"):
            homs.append(hom)
    return homs


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
