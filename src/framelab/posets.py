"""Finite posets, upset masks, monotone maps, and enumeration.

Points are the integers 0..size-1, and a set of points is an int mask: bit i
stands for point i. The library has no other set type. The order is stored
as one mask per point (``up[i]`` is the set of points above-or-equal to
``i``), so up- and down-closure (`Poset.up_mask`, `Poset.down_mask`) and the
upset family (`upset_masks`) are integer operations. A map is stored
pointwise on `PointwiseMap`, the one checked base of `MonotoneMap` and
`lattices.LatticeHom`. All values are immutable after construction and safe
to share.
"""

from __future__ import annotations

import functools
import itertools
import math

from . import config
from .errors import CapacityError, CycleError


def _low_byte_bits():
    """The set bits of each byte value 0..255, as index tuples."""
    # the values with bit i set repeat the ones below 2**i, each with i added
    table = [()]
    for i in range(8):
        table += [members + (i,) for members in table]
    return tuple(table)


# _BYTE_BITS[p][v]: the set bits of byte value v at byte position p. Only
# position 0 is built at import; `bits` adds positions 1-7 on first use.
_BYTE_BITS = [_low_byte_bits()]


def bits(mask):
    """The indices of the set bits of ``mask``, increasing, as a tuple.

    Masks of up to 64 bits are read a byte at a time from `_BYTE_BITS`,
    wider ones bit by bit. A negative mask raises ValueError.
    """
    if not mask >> 8:
        return _BYTE_BITS[0][mask]
    if mask < 0:
        raise ValueError("a mask must not be negative")
    if mask >> 64:
        out = []
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return tuple(out)
    tables = _BYTE_BITS
    while len(tables) < 8 and mask >> (8 * len(tables)):
        offset = 8 * len(tables)
        tables.append(tuple(tuple(offset + i for i in v) for v in tables[0]))
    out = ()
    for table in tables:
        if not mask:
            break
        out += table[mask & 255]
        mask >>= 8
    return out


def cached(fn):
    """Keep ``fn(obj)``, or ``fn(obj, arg)`` per argument, in ``obj._memo``.

    Every derived fact of a `Poset` (a dual space included), `FinDLat` or
    `PointSpace` is computed once per object this way. The key is the
    returned function, so facts of different modules never collide: a
    one-argument fact is stored under it, a two-argument one in a table
    under it keyed by the argument. A call that raises stores nothing.
    """
    if fn.__code__.co_argcount == 1:
        def memoized(obj):
            memo = obj._memo
            if memoized not in memo:
                memo[memoized] = fn(obj)
            return memo[memoized]
    else:
        def memoized(obj, arg):
            table = obj._memo.get(memoized)
            if table is None:
                table = obj._memo[memoized] = {}
            if arg not in table:
                table[arg] = fn(obj, arg)
            return table[arg]
    return functools.wraps(fn)(memoized)


def conjunction(witness, subject, names):
    """The first failing ``witness(subject, name)`` over `names`, else (True, None):
    the one route of every composite frame, L-space and point-space predicate."""
    for name in names:
        ok, w = witness(subject, name)
        if not ok:
            return ok, w
    return True, None


def popcount(mask):
    return mask.bit_count()


def mask_order_key(mask):
    """Canonical order of masks: by cardinality, then by sorted members."""
    return (popcount(mask), bits(mask))


class Poset:
    """Finite partial order. The empty poset (size 0) is a first-class value.

    `from_covers`, `from_leq_pairs`, `chain` and `antichain` refuse a size
    that is not an int >= 0, a bool included (ValueError), and size² >
    `config.MAX_SEARCH_SPACE` (CapacityError).
    """

    __slots__ = ("size", "up", "down", "_memo")

    def __init__(self, up, _trusted=False, _down=None):
        up = tuple(up)
        n = len(up)
        self.size = n
        self.up = up
        if not _trusted:
            self._validate()
        # a trusted caller that already holds the transposed rows passes them
        # as the tuple `_down`, and they are kept as given
        if _down is None:
            down = [0] * n
            for i in range(n):
                m = up[i]
                for j in bits(m):
                    down[j] |= 1 << i
            _down = tuple(down)
        self.down = _down
        self._memo = {}

    def _validate(self):
        n = self.size
        full = (1 << n) - 1
        for i, m in enumerate(self.up):
            if m & ~full:
                raise ValueError("relation references points outside 0..size-1")
            if not (m >> i) & 1:
                raise ValueError(f"relation is not reflexive at point {i}")
            for j in bits(m):
                if j != i and (self.up[j] >> i) & 1:
                    raise ValueError(f"relation is not antisymmetric on {i},{j}")
                if self.up[j] & ~m:
                    raise ValueError(f"relation is not transitive at {i} <= {j}")

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_covers(cls, covers, size):
        """Build a poset as the reflexive-transitive closure of cover pairs.

        Raises CycleError if the closure would violate antisymmetry and
        IndexError if a pair references a point outside 0..size-1.
        """
        _check_size(size)
        strict = [0] * size
        for a, b in covers:
            if not (0 <= a < size and 0 <= b < size):
                raise IndexError(f"cover ({a}, {b}) references points outside 0..{size - 1}")
            if a == b:
                continue
            strict[a] |= 1 << b
        for k in range(size):
            bit = 1 << k
            row = strict[k]
            for i in range(size):
                if strict[i] & bit:
                    strict[i] |= row
        for i in range(size):
            if (strict[i] >> i) & 1:
                raise CycleError(f"cover relation closes into a cycle through point {i}")
        up = tuple(strict[i] | (1 << i) for i in range(size))
        return cls(up, _trusted=True)

    @classmethod
    def from_leq_pairs(cls, pairs, size):
        """Build a poset from an explicit (already closed) order relation."""
        _check_size(size)
        up = [1 << i for i in range(size)]
        for a, b in pairs:
            if not (0 <= a < size and 0 <= b < size):
                raise IndexError(f"pair ({a}, {b}) references points outside 0..{size - 1}")
            up[a] |= 1 << b
        return cls(up)

    @classmethod
    def empty(cls):
        return cls((), _trusted=True)

    @classmethod
    def chain(cls, n):
        _check_size(n)
        full = (1 << n) - 1
        return cls(tuple((full >> i) << i for i in range(n)), _trusted=True)

    @classmethod
    def antichain(cls, n):
        _check_size(n)
        return cls(tuple(1 << i for i in range(n)), _trusted=True)

    # -- basic queries ---------------------------------------------------

    @property
    def full_mask(self):
        return (1 << self.size) - 1

    def leq(self, i, j):
        return bool((self.up[i] >> j) & 1)

    def up_mask(self, mask):
        """Upward closure of a subset given as a mask."""
        out = 0
        for i in bits(mask):
            out |= self.up[i]
        return out

    def down_mask(self, mask):
        """Downward closure of a subset given as a mask."""
        out = 0
        for i in bits(mask):
            out |= self.down[i]
        return out

    @cached
    def _cover_rows(self):
        """Per point, the mask of its upper covers and the mask of its lower
        covers: one `_cover_masks` pass over the strict up rows, transposed.
        `covers`, `lower_covers`, `_search_plan` and each refinement round of
        the canonical search read this pair."""
        upper = _cover_masks([m ^ (1 << i) for i, m in enumerate(self.up)])
        lower = [0] * self.size
        for i, m in enumerate(upper):
            for j in bits(m):
                lower[j] |= 1 << i
        return tuple(upper), tuple(lower)

    @cached
    def covers(self):
        """Cover pairs (i, j) meaning j covers i, sorted lexicographically."""
        upper = self._cover_rows()[0]
        return tuple((i, j) for i, m in enumerate(upper) for j in bits(m))

    def lower_covers(self, j):
        return list(bits(self._cover_rows()[1][j]))

    @cached
    def heights(self):
        """Length of the longest strictly increasing chain below each point.

        A minimal point has height 0, any other 1 + the greatest height
        strictly below it, read from the strict down row. That equals the
        greatest height of its lower covers, since a longest chain below the
        point ends in a cover, so no cover row is built. Points are taken by
        down-set size, a linear extension: a point strictly below has a
        strictly smaller down-set, so its height is known first. Twins, points
        with the same strict down-set and strict up-set, get the same height,
        so they share a starting color, which `_color_classes` relies on to
        stop before its first round.
        """
        down = self.down
        h = [0] * self.size
        for i in sorted(range(self.size), key=lambda i: down[i].bit_count()):
            below = down[i] ^ (1 << i)
            if below:
                h[i] = 1 + max([h[j] for j in bits(below)])
        return tuple(h)

    # -- canonical form -------------------------------------------------

    def _color_classes(self):
        """Iteratively refined structural colors; returns vertex lists per color.

        A point starts from (strict down count, strict up count, height) and
        is refined by the sorted colors of its lower and of its upper covers,
        read from `_cover_rows`, until a round splits no class. A signature
        leads with the point's color, so a round that splits no class keeps
        every color as it was, and a round after every point has a color of
        its own can split nothing: a discrete coloring, the starting one
        included, ends the refinement without that round.

        Nor can a round split a class whose points are twins, with the same
        strict up-set and the same strict down-set: twins have the same
        covers, so they get the same signature in every round, and a
        coloring whose classes are all twin groups is already stable (the
        equitable-partition argument of McKay, "Practical graph
        isomorphism", 1981). Twins get the same starting color, so the
        classes are all twin groups exactly when there are as many twin
        groups as colors; the refinement then stops before its first round,
        and the cover rows are built only when a round runs.
        """
        n = self.size
        up, down = self.up, self.down
        heights = self.heights()
        # the counts include the point itself, which shifts every one alike
        colors, count = _index_signatures([
            (down[i].bit_count(), up[i].bit_count(), heights[i]) for i in range(n)
        ])
        # one key per twin group; a discrete coloring needs no keys
        twins = {(up[i] ^ (1 << i), down[i] ^ (1 << i)) for i in range(n)} if count < n else ()
        if len(twins) > count:
            upper, lower = ([bits(m) for m in rows] for rows in self._cover_rows())
            while count < n:
                colors, split = _index_signatures([
                    (
                        colors[i],
                        tuple(sorted([colors[j] for j in lower[i]])),
                        tuple(sorted([colors[j] for j in upper[i]])),
                    )
                    for i in range(n)
                ])
                if split == count:
                    break
                count = split
        classes = {}
        for i, c in enumerate(colors):
            classes.setdefault(c, []).append(i)
        return [classes[c] for c in sorted(classes)]

    @cached
    def _canonicalize(self):
        """Canonical key: the up rows under the least relabelling.

        Only orderings that keep the color classes in color order are tried.
        Inside a class, points with the same strict up-set and the same strict
        down-set (twins) are interchangeable: permuting them is an
        automorphism, which leaves every key as it is. So each class tries
        the distinct arrangements of its twin groups, a group's points always
        in increasing order, in place of every permutation of its points. A
        search over more orderings than `config.MAX_SEARCH_SPACE` raises
        CapacityError before it starts.

        When every class of two or more points is a single twin group, there
        is one arrangement, each class in increasing order, and its key is
        computed directly. That is exact: the search would try that ordering
        alone, so its key is the least.
        """
        n = self.size
        up, down = self.up, self.down
        classes = []
        space = 1
        for points in self._color_classes():
            if len(points) == 1:
                classes.append([points])
                continue
            twins = {}
            for i in points:
                twins.setdefault((up[i] ^ (1 << i), down[i] ^ (1 << i)), []).append(i)
            groups = list(twins.values())
            space *= math.factorial(len(points)) // math.prod(
                math.factorial(len(g)) for g in groups
            )
            classes.append(groups)
        if space > config.MAX_SEARCH_SPACE:
            raise CapacityError("canonical form search exceeds the configured bound")
        rows = [bits(m) for m in up]
        pos = [0] * n

        def key_of(order):
            for k, old in enumerate(order):
                pos[old] = 1 << k
            # a row's bits are distinct powers of two, so their sum is their union
            return tuple([sum(map(pos.__getitem__, rows[old])) for old in order])

        if space == 1:
            return key_of([v for groups in classes for v in groups[0]])
        return min(
            key_of([v for part in parts for v in part])
            for parts in itertools.product(*map(_arrangements, classes))
        )

    def canonical_key(self):
        return (self.size, self._canonicalize())

    def canonical(self):
        """Canonically relabeled poset: the poset itself when its `up` rows
        are already its canonical form (an `enumerate_posets` representative,
        or one read back from a corpus document), else a copy that keeps the
        rows as its own `_canonicalize` (the canonical form is a fixed point
        of the search), so that it is never searched."""
        rows = self._canonicalize()
        if rows == self.up:
            return self
        copy = Poset(rows, _trusted=True)
        copy._memo[Poset._canonicalize] = rows
        return copy

    # -- serialization ----------------------------------------------------

    def to_doc(self):
        return {"size": self.size, "covers": [list(c) for c in self.covers()]}

    @classmethod
    def from_doc(cls, doc):
        """Inverse of `to_doc`. A malformed document raises ValueError, and
        one whose upsets could exceed `config.MAX_UPSET_FAMILY` raises
        CapacityError."""
        if not isinstance(doc, dict) or "size" not in doc:
            raise ValueError("not a poset document")
        size = doc["size"]
        if type(size) is not int or size < 0:
            raise ValueError(f"poset size {size!r} is not a non-negative int")
        # refused before anything is allocated: 2^size upsets must fit the bound
        if size >= config.MAX_UPSET_FAMILY.bit_length():
            raise CapacityError(f"poset size {size} exceeds the upset-family bound")
        covers = doc.get("covers", [])
        if not isinstance(covers, list):
            raise ValueError("poset covers must be a list")
        for c in covers:
            if not (isinstance(c, (list, tuple)) and len(c) == 2
                    and all(type(x) is int and 0 <= x < size for x in c)):
                raise ValueError(f"cover {c!r} is not a pair of points in 0..{size - 1}")
        return cls.from_covers(covers, size)

    def __repr__(self):
        return f"Poset(size={self.size}, covers={list(self.covers())})"


def _check_size(n):
    if type(n) is not int or n < 0:
        raise ValueError(f"size {n!r} is not an int >= 0")
    if n * n > config.MAX_SEARCH_SPACE:
        raise CapacityError(f"{n} points have {n * n} order pairs, over the search bound")


def _index_signatures(sig):
    """Each signature's rank among the distinct ones, and their number."""
    ordered = sorted(set(sig))
    index = {s: k for k, s in enumerate(ordered)}
    return [index[s] for s in sig], len(ordered)


def _cover_masks(strict):
    """Per point, its strict up row without what the row's points reach: the
    upper covers. `Poset._cover_rows` makes this one pass per poset and reads
    the lower covers off it by transposing."""
    out = []
    for row in strict:
        reach = 0
        for j in bits(row):
            reach |= strict[j]
        out.append(row & ~reach)
    return out


def _arrangements(groups):
    """The distinct orderings of a color class split into twin groups.

    Each group keeps its points in their given order, so only the
    interleaving of the groups varies: |class|! / ∏ |group|! orderings.
    """
    first, rest = groups[0], groups[1:]
    if not rest:
        yield tuple(first)
        return
    tails = list(_arrangements(rest))
    size = len(first) + len(tails[0])
    for spots in itertools.combinations(range(size), len(first)):
        slots = spots + tuple(k for k in range(size) if k not in spots)
        for tail in tails:
            order = [0] * size
            for k, v in zip(slots, (*first, *tail)):
                order[k] = v
            yield tuple(order)


class PointwiseMap:
    """A map stored pointwise, ``image[i]`` for source point i: the checked
    base of `MonotoneMap` and `lattices.LatticeHom`. An image of the wrong
    length raises ValueError, an entry outside the target IndexError. Maps
    are equal when their class, source and target objects and image agree.
    """

    __slots__ = ("source", "target", "image")

    def __init__(self, source, target, image):
        image = tuple(image)
        if len(image) != source.size:
            raise ValueError("image length does not match the source size")
        for v in image:
            if not 0 <= v < target.size:
                raise IndexError(f"image entry {v} outside the target")
        self.source = source
        self.target = target
        self.image = image

    @classmethod
    def identity(cls, obj):
        return cls(obj, obj, range(obj.size))

    def __call__(self, point):
        return self.image[point]

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and other.source is self.source
            and other.target is self.target
            and other.image == self.image
        )

    def __hash__(self):
        return hash((id(self.source), id(self.target), self.image))

    def __repr__(self):
        return f"{type(self).__name__}({self.image})"


class MonotoneMap(PointwiseMap):
    """Order-preserving map between posets; one that breaks a cover raises ValueError."""

    __slots__ = ()

    def __init__(self, source, target, image):
        super().__init__(source, target, image)
        for i, j in source.covers():
            if not target.leq(self.image[i], self.image[j]):
                raise ValueError(f"map is not monotone on cover ({i}, {j})")

    def preimage_mask(self, mask):
        out = 0
        for i, q in enumerate(self.image):
            if (mask >> q) & 1:
                out |= 1 << i
        return out


# -- upsets ------------------------------------------------------------------


def upset_masks(poset):
    """All upsets of the poset as masks, in canonical order, cached on it.

    Canonical order: by cardinality, then by the sorted tuple of members.
    Everything downstream that enumerates clopen upsets inherits this order.
    The upsets are generated top-down by `_upset_rows`, as `enumerate_posets`
    builds its rows, so the work grows with the number of upsets rather than
    with the 2^n subsets. A poset with more than `config.MAX_UPSET_FAMILY`
    subsets raises CapacityError, even when its upsets are already cached.
    """
    bound = config.MAX_UPSET_FAMILY
    n = poset.size
    if (1 << n) > bound:
        raise CapacityError(f"2^{n} upsets exceed the configured bound {bound}")
    return _upset_masks(poset)


@cached
def _upset_masks(poset):
    up = poset.up
    # a point above j has a strictly smaller up-set, so it comes before j
    order = sorted(range(poset.size), key=lambda j: popcount(up[j]))
    masks = _upset_rows([m ^ (1 << j) for j, m in enumerate(up)], order)
    masks.sort(key=mask_order_key)
    return tuple(masks)


def _upset_rows(strict, points):
    """Every upset of the order on `points`, as masks, given the strict up-set
    `strict[j]` of each point. `points` lists each point after every point
    above it, so every point above j is decided before j is, and j joins
    exactly the sets built so far that hold its strict up-set."""
    rows = [0]
    for j in points:
        above = strict[j]
        rows += [row | (1 << j) for row in rows if not above & ~row]
    return rows


# -- enumeration up to isomorphism ----------------------------------------


def enumerate_posets(n):
    """One representative per isomorphism class of posets on n points.

    Every poset has a linear extension, so every class has a labelling whose
    strict order lies inside the numeric order. Those labellings are built
    row by row, from point n-1 down to 0: the strict up-set of point i may be
    any upset of the order already built on i+1..n-1, and those are exactly
    the choices that keep the relation transitive. Each labelling is
    deduplicated by canonical form. Representatives are canonical and come
    in canonical-key order.

    The `down` rows are kept up to date as rows are placed: placing row i
    sets bit i in the down row of each point of the row, and backtracking
    clears it, so no labelling transposes its `up` rows. The canonical
    search reads those rows for heights and for twins, and most labellings
    need nothing else. Twins (points with the same strict up-set and strict
    down-set) have the same covers, so no refinement round can split a color
    class whose points are twins (`Poset._color_classes`). Of the 5,232
    labellings with n <= 6, 1,673 start discrete and 1,963 more start with
    classes that are all twin groups, so their cover rows are never built.
    """
    _check_size(n)
    cap = config.MAX_POSET_SIZE
    if n > cap:
        raise CapacityError(f"poset size {n} exceeds the configured bound {cap}")
    reps = {}
    strict = [0] * n
    down = [1 << k for k in range(n)]

    def place(i):
        if i < 0:
            p = Poset(tuple(m | (1 << k) for k, m in enumerate(strict)), _trusted=True,
                      _down=tuple(down))
            key = p.canonical_key()
            if key not in reps:
                reps[key] = p.canonical()
            return
        bit = 1 << i
        # the upsets of the order on i+1..n-1, deciding j = n-1 first
        for row in _upset_rows(strict, range(n - 1, i, -1)):
            strict[i] = row
            above = bits(row)
            for j in above:
                down[j] |= bit
            place(i - 1)
            for j in above:
                down[j] ^= bit

    place(n - 1)
    return [reps[k] for k in sorted(reps)]


# -- monotone maps ---------------------------------------------------------


def iter_monotone_maps(p, q, terms):
    """Yield ``(total, image)`` for every monotone map f: p -> q.

    ``total`` is the sum of ``terms[v][f(v)]`` over the points v of p, one
    addition per assigned point; ``image`` is the search's own list holding
    f, which changes as the search goes on (copy it to keep it).

    Backtracks along a linear extension of p, which `_search_plan` keeps on
    p with each point's lower covers; a point's candidates are the common
    upper bounds of the images of its lower covers. An explicit stack keeps
    one iterator over the candidates of each assigned point, and ``sums[k]``
    is the total of the first k points of the extension.
    """
    n = p.size
    if n == 0:
        yield 0, []
        return
    if q.size == 0:
        return
    order, lower = _search_plan(p)
    rows = [terms[v] for v in order]
    image = [0] * n
    sums = [0] * n
    q_up = q.up
    q_full = q.full_mask
    last = n - 1
    stack = [iter(bits(q_full))]  # order[0] is minimal: no lower covers
    while stack:
        k = len(stack) - 1
        v, row, base = order[k], rows[k], sums[k]
        for c in stack[k]:
            image[v] = c
            if k == last:
                yield base + row[c], image
                continue
            candidates = q_full
            for j in lower[k + 1]:
                candidates &= q_up[image[j]]
            if candidates:
                sums[k + 1] = base + row[c]
                stack.append(iter(bits(candidates)))
                break
        else:
            stack.pop()


@cached
def _search_plan(p):
    """The order `iter_monotone_maps` assigns p's points in, a linear
    extension by height, and the lower covers of each point in that order."""
    heights = p.heights()
    lower = p._cover_rows()[1]
    order = tuple(sorted(range(p.size), key=lambda i: (heights[i], i)))
    return order, tuple(bits(lower[v]) for v in order)


def monotone_maps(p, q):
    """All monotone maps p -> q in deterministic (image-lexicographic) order."""
    bound = config.MAX_SEARCH_SPACE
    if p.size and q.size and q.size ** p.size > bound:
        raise CapacityError(
            f"{q.size}^{p.size} candidate maps exceed the configured bound {bound}"
        )
    zero = [(0,) * q.size] * p.size
    images = sorted(tuple(image) for _, image in iter_monotone_maps(p, q, zero))
    return [MonotoneMap(p, q, img) for img in images]
