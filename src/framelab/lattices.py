"""Finite bounded distributive lattices and the frame operator suite.

Elements are integers 0..size-1; the order is bitmask rows like `Poset`, and
the full join/meet tables are stored (the corpus keeps lattices at or below
2^6 elements, so memory is traded for constant-time algebra). Lattices built
from a poset by the upset construction retain that poset as the compressed
Birkhoff representation.

The way-below relation has two routes: the definitional oracle quantifying
over all ideals, and the fast path `a <= b` valid on finite carriers. The
oracle is the designated brute-force authority; the public predicate checks
the two routes against each other once per lattice.
"""

from __future__ import annotations

import itertools

from . import config
from .errors import (
    CapacityError,
    ConsistencyError,
    DistributivityError,
    NotLatticeError,
    UnknownPredicate,
)
from .posets import Poset, bits, popcount

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


class FinDLat:
    """Finite bounded lattice with explicit operation tables.

    Distributivity is not enforced at construction; call
    `require_distributive` (or check `is_distributive`) where it matters, so
    non-distributive input can be constructed and then rejected explicitly.
    """

    __slots__ = (
        "size",
        "up",
        "down",
        "join",
        "meet",
        "bottom",
        "top",
        "labels",
        "base_poset",
        "element_upsets",
        "_carrier",
        "_distributive_witness",
        "_ideals",
        "_prime_filters",
        "_wb_rows",
        "_wb_checked",
        "_join_irr",
        "_priestley_record",
    )

    def __init__(self, up, join, meet, bottom, top, labels=None,
                 base_poset=None, element_upsets=None):
        self.size = len(up)
        self.up = tuple(up)
        down = [0] * self.size
        for i in range(self.size):
            for j in bits(self.up[i]):
                down[j] |= 1 << i
        self.down = tuple(down)
        self.join = tuple(tuple(row) for row in join)
        self.meet = tuple(tuple(row) for row in meet)
        self.bottom = bottom
        self.top = top
        self.labels = tuple(labels) if labels is not None else None
        self.base_poset = base_poset
        self.element_upsets = tuple(element_upsets) if element_upsets is not None else None
        self._carrier = None
        self._distributive_witness = -1
        self._ideals = None
        self._prime_filters = None
        self._wb_rows = None
        self._wb_checked = False
        self._join_irr = None
        self._priestley_record = None

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_leq_pairs(cls, size, pairs, bottom=None, top=None, labels=None):
        """Build from an explicit order; joins/meets are computed and must exist."""
        if size < 1:
            raise NotLatticeError("a bounded lattice needs at least one element")
        carrier = Poset.from_leq_pairs(pairs, size, labels=labels)
        return cls._from_carrier(carrier, bottom, top, labels)

    @classmethod
    def _from_carrier(cls, carrier, bottom=None, top=None, labels=None):
        n = carrier.size
        up, down = carrier.up, carrier.down
        join = [[0] * n for _ in range(n)]
        meet = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                common = up[i] & up[j]
                lub = _least_of(common, up)
                if lub is None:
                    raise NotLatticeError(f"elements {i}, {j} have no least upper bound")
                glb = _greatest_of(down[i] & down[j], down)
                if glb is None:
                    raise NotLatticeError(f"elements {i}, {j} have no greatest lower bound")
                join[i][j] = join[j][i] = lub
                meet[i][j] = meet[j][i] = glb
        bot = _least_of((1 << n) - 1, up)
        tp = _greatest_of((1 << n) - 1, down)
        if bot is None or tp is None:
            raise NotLatticeError("order has no bottom or no top")
        if bottom is not None and bottom != bot:
            raise NotLatticeError(f"declared bottom {bottom} is not the least element")
        if top is not None and top != tp:
            raise NotLatticeError(f"declared top {top} is not the greatest element")
        return cls(up, join, meet, bot, tp, labels=labels)

    @classmethod
    def chain(cls, n):
        """The n-element chain 0 < 1 < ... < n-1."""
        if n < 1:
            raise NotLatticeError("a bounded lattice needs at least one element")
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

    def meet_of(self, elements):
        out = self.top
        for a in elements:
            out = self.meet[out][a]
        return out

    def carrier_poset(self):
        if self._carrier is None:
            self._carrier = Poset(self.up, _trusted=True)
        return self._carrier

    @property
    def full_mask(self):
        return (1 << self.size) - 1

    # -- distributivity -----------------------------------------------------

    def distributivity_witness(self):
        """A triple violating a ∧ (b ∨ c) = (a ∧ b) ∨ (a ∧ c), or None."""
        if self._distributive_witness == -1:
            witness = None
            join, meet = self.join, self.meet
            for a in range(self.size):
                meet_a = meet[a]
                for b in range(self.size):
                    ab = meet_a[b]
                    join_b = self.join[b]
                    for c in range(self.size):
                        if meet_a[join_b[c]] != join[ab][meet_a[c]]:
                            witness = (a, b, c)
                            break
                    if witness:
                        break
                if witness:
                    break
            self._distributive_witness = witness
        return self._distributive_witness

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
            return cls.from_leq_pairs(
                int(doc["elements"]),
                [tuple(p) for p in doc.get("leq", [])],
                bottom=doc.get("bottom"),
                top=doc.get("top"),
            )
        raise ValueError("not a lattice document")

    def __repr__(self):
        return f"FinDLat(size={self.size})"


def _least_of(mask, up):
    for u in bits(mask):
        if mask & ~up[u] == 0:
            return u
    return None


def _greatest_of(mask, down):
    for u in bits(mask):
        if mask & ~down[u] == 0:
            return u
    return None


# -- Birkhoff construction ----------------------------------------------------


def birkhoff_lattice(points, family_bound=None):
    """Lattice of upsets of a poset; join is union, meet is intersection.

    Project-wide convention: upsets, not downsets, so the dual space of
    birkhoff_lattice(P) comes out order-isomorphic to P itself.
    """
    from .posets import upset_masks

    masks = upset_masks(points, family_bound)
    index = {m: i for i, m in enumerate(masks)}
    n = len(masks)
    up = [0] * n
    for i, mi in enumerate(masks):
        for j, mj in enumerate(masks):
            if mi & ~mj == 0:
                up[i] |= 1 << j
    join = [[index[mi | mj] for mj in masks] for mi in masks]
    meet = [[index[mi & mj] for mj in masks] for mi in masks]
    lat = FinDLat(
        up,
        join,
        meet,
        index[0],
        index[points.full_mask],
        base_poset=points,
        element_upsets=masks,
    )
    return lat


def join_irreducibles(lattice):
    """Elements j != 0 admitting no decomposition j = a ∨ b with a, b < j."""
    if lattice._join_irr is None:
        n = lattice.size
        out = []
        for j in range(n):
            if j == lattice.bottom:
                continue
            reducible = False
            for a in range(n):
                row = lattice.join[a]
                for b in range(a, n):
                    if row[b] == j and a != j and b != j:
                        reducible = True
                        break
                if reducible:
                    break
            if not reducible:
                out.append(j)
        lattice._join_irr = tuple(out)
    return list(lattice._join_irr)


def join_irreducible_poset(lattice):
    """Join-irreducibles ordered so the upset construction round-trips.

    With the project-wide upset convention the recovered point order is the
    reverse of the lattice order on irreducibles (the inclusion order of the
    principal filters they generate): birkhoff_lattice(join_irreducible_poset(L))
    is isomorphic to L, and the poset is isomorphic to the dual space's points.
    """
    irr = join_irreducibles(lattice)
    pos = {j: k for k, j in enumerate(irr)}
    up = [0] * len(irr)
    irr_mask = _irr_mask(lattice)
    for j in irr:
        for j2 in bits(lattice.down[j] & irr_mask):
            up[pos[j]] |= 1 << pos[j2]
    return Poset(up, _trusted=True)


def _irr_mask(lattice):
    m = 0
    for j in join_irreducibles(lattice):
        m |= 1 << j
    return m


# -- ideals, filters, prime filters --------------------------------------------


def _closure_family(lattice, seed, table, rows):
    """Every ideal (or filter) reachable from `seed` by adding one element.

    The filter generated by a filter F and an element x is
    ↑{f ∧ x : f ∈ F}, and dually the ideal generated by an ideal I and x is
    ↓{i ∨ x : i ∈ I}. So one step ORs the `rows` (`up` for filters, `down`
    for ideals) of the `table` row of x (`meet` or `join`) over the members.
    Every ideal (filter) containing the seed is reached: a strictly larger
    one J contains some x outside the current I, and the ideal generated by
    I and x lies inside J.
    """
    seen = {seed}
    frontier = [seed]
    full = lattice.full_mask
    while frontier:
        current = frontier.pop()
        members = list(bits(current))
        for x in bits(full & ~current):
            row = table[x]
            grown = 0
            for f in members:
                grown |= rows[row[f]]
            if grown not in seen:
                seen.add(grown)
                frontier.append(grown)
    return sorted(seen)


def all_ideals(lattice):
    """All ideals: nonempty downsets closed under binary joins, as masks."""
    if lattice._ideals is None:
        lattice._ideals = tuple(_closure_family(
            lattice, lattice.down[lattice.bottom], lattice.join, lattice.down
        ))
    return list(lattice._ideals)


def all_filters(lattice):
    """All filters: nonempty upsets closed under binary meets, as masks."""
    return _closure_family(lattice, lattice.up[lattice.top], lattice.meet, lattice.up)


def prime_filters(lattice):
    """Proper filters whose complement is closed under the existing joins.

    On a finite lattice closure of the complement under binary joins is
    closure under all joins, so these are exactly the completely prime
    filters. The search never consults join irreducibles, so the dual
    space's fast path can be checked against it.
    """
    if lattice._prime_filters is None:
        out = []
        for f in all_filters(lattice):
            if f == lattice.full_mask:
                continue
            complement = lattice.full_mask & ~f
            members = list(bits(complement))
            prime = True
            for i, a in enumerate(members):
                row = lattice.join[a]
                for b in members[i:]:
                    if (f >> row[b]) & 1:
                        prime = False
                        break
                if not prime:
                    break
            if prime:
                out.append(f)
        lattice._prime_filters = tuple(sorted(out))
    return list(lattice._prime_filters)


# -- way below ------------------------------------------------------------------


def way_below_rows_oracle(lattice):
    """Definitional way-below as bitmask rows: row[a] = {b : a << b}.

    a << b iff every ideal whose join dominates b contains a. This is the
    brute-force authority used by the predicates and validators; it never
    consults the order shortcut.
    """
    if lattice._wb_rows is None:
        n = lattice.size
        full = lattice.full_mask
        rows = [full for _ in range(n)]
        for ideal in all_ideals(lattice):
            sup = lattice.join_of(bits(ideal))
            dominated = lattice.down[sup]
            blocked = ~ideal & full
            for a in bits(blocked):
                rows[a] &= ~dominated
        lattice._wb_rows = tuple(rows)
    return lattice._wb_rows


def _check_wb_collapse(lattice):
    if not lattice._wb_checked:
        if way_below_rows_oracle(lattice) != lattice.up:
            raise ConsistencyError(
                "ideal-based way-below disagrees with the order on a finite lattice"
            )
        lattice._wb_checked = True


def way_below(lattice, a, b):
    """a << b, via the ideal oracle, checked once against the fast path."""
    _check_wb_collapse(lattice)
    return bool((way_below_rows_oracle(lattice)[a] >> b) & 1)


def way_below_fast(lattice, a, b):
    """Fast path: on a finite lattice every element is compact, so a << b iff a <= b."""
    return lattice.leq(a, b)


def compact_elements(lattice):
    """Elements a with a << a (oracle route); the full carrier on finite lattices."""
    rows = way_below_rows_oracle(lattice)
    out = [a for a in range(lattice.size) if (rows[a] >> a) & 1]
    if len(out) != lattice.size:
        raise ConsistencyError("a finite lattice must have all elements compact")
    return out


# -- pseudocomplement and well inside ----------------------------------------------


def pseudocomplement(lattice, a):
    """a* = join of {x : a ∧ x = 0}; a ∧ a* = 0 is checked (needs distributivity)."""
    row = lattice.meet[a]
    star = lattice.join_of(x for x in range(lattice.size) if row[x] == lattice.bottom)
    if row[star] != lattice.bottom:
        raise ConsistencyError(
            "a ∧ a* != 0; the lattice is not distributive enough for pseudocomplements"
        )
    return star


def well_inside(lattice, a, b):
    """a ≺ b iff a* ∨ b = 1."""
    return lattice.join[pseudocomplement(lattice, a)][b] == lattice.top


def complemented_elements(lattice):
    """C(L) = {a : a ≺ a}."""
    return [a for a in range(lattice.size) if well_inside(lattice, a, a)]


def is_boolean(lattice):
    """Brute-force: every element has some complement."""
    n = lattice.size
    for a in range(n):
        if not any(
            lattice.meet[a][b] == lattice.bottom and lattice.join[a][b] == lattice.top
            for b in range(n)
        ):
            return False
    return True


# -- frame predicates -----------------------------------------------------------


def frame_predicate(lattice, name):
    ok, _ = frame_predicate_witness(lattice, name)
    return ok


def frame_predicate_witness(lattice, name):
    """Literal evaluation of a frame property; returns (bool, witness or None).

    Way-below always means the ideal oracle here, never the order shortcut.
    """
    n = lattice.size
    rows = way_below_rows_oracle(lattice)
    if name == "compactFrame":
        ok = bool((rows[lattice.top] >> lattice.top) & 1)
        return ok, (None if ok else {"element": lattice.top})
    if name == "algebraic":
        compact = 0
        for a in range(n):
            if (rows[a] >> a) & 1:
                compact |= 1 << a
        for a in range(n):
            if lattice.join_of(bits(compact & lattice.down[a])) != a:
                return False, {"element": a}
        return True, None
    if name == "arithmetic":
        ok, w = frame_predicate_witness(lattice, "algebraic")
        if not ok:
            return ok, w
        for a in range(n):
            above = list(bits(rows[a]))
            for b in above:
                meet_b = lattice.meet[b]
                for c in above:
                    if not (rows[a] >> meet_b[c]) & 1:
                        return False, {"triple": (a, b, c)}
        return True, None
    if name == "coherent":
        ok, w = frame_predicate_witness(lattice, "arithmetic")
        if not ok:
            return ok, w
        return frame_predicate_witness(lattice, "compactFrame")
    if name == "regular":
        for a in range(n):
            below = [b for b in range(n) if well_inside(lattice, b, a)]
            if lattice.join_of(below) != a:
                return False, {"element": a}
        return True, None
    if name == "zeroDimensional":
        comp = complemented_elements(lattice)
        for a in range(n):
            below = [b for b in comp if lattice.leq(b, a)]
            if lattice.join_of(below) != a:
                return False, {"element": a}
        return True, None
    if name == "stone":
        ok, w = frame_predicate_witness(lattice, "compactFrame")
        if not ok:
            return ok, w
        return frame_predicate_witness(lattice, "zeroDimensional")
    if name == "spatial":
        primes = prime_filters(lattice)
        for a in range(n):
            for b in range(n):
                if a != b and all(
                    ((f >> a) & 1) == ((f >> b) & 1) for f in primes
                ):
                    return False, {"pair": (a, b)}
        return True, None
    raise UnknownPredicate(f"unknown frame predicate {name!r}")


# -- homomorphisms ---------------------------------------------------------------


class LatticeHom:
    """Element-wise map between lattices with cached predicate flags."""

    __slots__ = ("source", "target", "image", "_flags")

    def __init__(self, source, target, image):
        image = tuple(image)
        if len(image) != source.size:
            raise ValueError("image length does not match the source size")
        for v in image:
            if not 0 <= v < target.size:
                raise IndexError(f"image element {v} outside the target")
        self.source = source
        self.target = target
        self.image = image
        self._flags = {}

    @classmethod
    def identity(cls, lattice):
        return cls(lattice, lattice, tuple(range(lattice.size)))

    def __call__(self, a):
        return self.image[a]

    def _flag(self, name):
        if name not in self._flags:
            self._flags[name] = hom_predicate(self, name)
        return self._flags[name]

    @property
    def is_lattice_hom(self):
        return self._flag("latticeHom")

    @property
    def is_frame_hom(self):
        return self._flag("frameHom")

    @property
    def is_coherent(self):
        return self._flag("coherentHom")

    @property
    def is_proper(self):
        return self._flag("properHom")

    def __eq__(self, other):
        return (
            isinstance(other, LatticeHom)
            and other.source is self.source
            and other.target is self.target
            and other.image == self.image
        )

    def __hash__(self):
        return hash((id(self.source), id(self.target), self.image))

    def __repr__(self):
        return f"LatticeHom({self.image})"


def compose_homs(outer, inner):
    if inner.target is not outer.source:
        raise ValueError("homs do not compose")
    return LatticeHom(
        inner.source, outer.target, tuple(outer.image[v] for v in inner.image)
    )


def hom_predicate(hom, name):
    """Literal evaluation of a homomorphism property."""
    src, tgt, img = hom.source, hom.target, hom.image
    if name not in HOM_PREDICATES:
        raise UnknownPredicate(f"unknown hom predicate {name!r}")
    preserves_ops = all(
        img[src.join[a][b]] == tgt.join[img[a]][img[b]]
        and img[src.meet[a][b]] == tgt.meet[img[a]][img[b]]
        for a in range(src.size)
        for b in range(a, src.size)
    )
    if name == "latticeHom":
        return preserves_ops
    frame = (
        preserves_ops
        and img[src.bottom] == tgt.bottom
        and img[src.top] == tgt.top
    )
    if name == "frameHom":
        return frame
    if name == "coherentHom":
        if not frame:
            return False
        tgt_compact = set(compact_elements(tgt))
        return all(img[a] in tgt_compact for a in compact_elements(src))
    # properHom: a << b implies h(a) << h(b), both sides by the ideal oracle
    if not frame:
        return False
    src_rows = way_below_rows_oracle(src)
    tgt_rows = way_below_rows_oracle(tgt)
    for a in range(src.size):
        ha_row = tgt_rows[img[a]]
        for b in bits(src_rows[a]):
            if not (ha_row >> img[b]) & 1:
                return False
    return True


def enumerate_homs(source, target, kind, search_bound=None):
    """All maps satisfying hom_predicate(., kind), in image order.

    Search: a lattice map is determined by its values on the join
    irreducibles (plus the bottom's image when bounds need not be
    preserved); candidates are generated by backtracking with monotonicity
    and pairwise meet-consistency pruning, then every candidate is checked
    against the literal predicate.
    """
    if kind not in HOM_PREDICATES:
        raise UnknownPredicate(f"unknown hom predicate {kind!r}")
    bound = config.MAX_SEARCH_SPACE if search_bound is None else search_bound
    irr = join_irreducibles(source)
    base_choices = 1 if kind != "latticeHom" else target.size
    if target.size ** len(irr) * base_choices > bound:
        raise CapacityError("hom search space exceeds the configured bound")

    # ascending in the source order so everything below a node is assigned
    irr.sort(key=lambda j: (popcount(source.down[j]), j))
    k = len(irr)
    irr_below = [
        [t for t in range(k) if source.leq(irr[t], irr[s])] for s in range(k)
    ]
    meet_irr = [
        [
            [t for t in range(k) if source.leq(irr[t], source.meet[irr[s1]][irr[s2]])]
            for s2 in range(k)
        ]
        for s1 in range(k)
    ]
    elem_irr = [
        [t for t in range(k) if source.leq(irr[t], a)] for a in range(source.size)
    ]

    results = []
    assigned = [0] * k

    def extend(base):
        image = []
        for a in range(source.size):
            v = base
            for t in elem_irr[a]:
                v = target.join[v][assigned[t]]
            image.append(v)
        return tuple(image)

    def backtrack(s, base):
        if s == k:
            candidate = extend(base)
            hom = LatticeHom(source, target, candidate)
            if hom_predicate(hom, kind):
                results.append(hom)
            return
        lower = base
        for t in irr_below[s]:
            if t != s:
                lower = target.join[lower][assigned[t]]
        for c in bits(target.up[lower]):
            assigned[s] = c
            ok = True
            for t in range(s):
                expected = base
                for r in meet_irr[s][t]:
                    expected = target.join[expected][assigned[r]]
                if target.meet[c][assigned[t]] != expected:
                    ok = False
                    break
            if ok:
                backtrack(s + 1, base)

    try:
        if kind == "latticeHom":
            for base in range(target.size):
                backtrack(0, base)
        else:
            backtrack(0, target.bottom)
    finally:
        del backtrack  # it refers to itself; free the cycle without the collector
    results.sort(key=lambda h: h.image)
    return results
