"""Finite posets, bulk subset calculus, monotone maps, and enumeration.

Points are the integers 0..size-1. The order is stored as one bitmask per
point (``up[i]`` is the set of points above-or-equal to ``i``), so the
up/down-set operations the rest of the library leans on are single integer
operations. All values are immutable after construction and safe to share.
"""

from __future__ import annotations

import itertools

from . import config
from .errors import BindingError, CapacityError, CycleError


def bits(mask):
    """Yield the indices of the set bits of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def popcount(mask):
    return mask.bit_count()


def mask_order_key(mask):
    """Canonical order of masks: by cardinality, then by sorted members."""
    return (popcount(mask), tuple(bits(mask)))


class Poset:
    """Finite partial order. The empty poset (size 0) is a first-class value."""

    __slots__ = (
        "size",
        "up",
        "down",
        "labels",
        "_covers",
        "_heights",
        "_canon",
        "_upset_masks",
    )

    def __init__(self, up, labels=None, _trusted=False):
        up = tuple(up)
        n = len(up)
        self.size = n
        self.up = up
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != n:
                raise ValueError("labels length does not match size")
        self.labels = labels
        if not _trusted:
            self._validate()
        down = [0] * n
        for i in range(n):
            m = up[i]
            for j in bits(m):
                down[j] |= 1 << i
        self.down = tuple(down)
        self._covers = None
        self._heights = None
        self._canon = None
        self._upset_masks = None

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
    def from_covers(cls, covers, size, labels=None):
        """Build a poset as the reflexive-transitive closure of cover pairs.

        Raises CycleError if the closure would violate antisymmetry and
        IndexError if a pair references a point outside 0..size-1.
        """
        if size < 0:
            raise ValueError("size must be >= 0")
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
        return cls(up, labels=labels, _trusted=True)

    @classmethod
    def from_leq_pairs(cls, pairs, size, labels=None):
        """Build a poset from an explicit (already closed) order relation."""
        up = [1 << i for i in range(size)]
        for a, b in pairs:
            if not (0 <= a < size and 0 <= b < size):
                raise IndexError(f"pair ({a}, {b}) references points outside 0..{size - 1}")
            up[a] |= 1 << b
        return cls(up, labels=labels)

    @classmethod
    def empty(cls):
        return cls((), _trusted=True)

    @classmethod
    def chain(cls, n, labels=None):
        full = (1 << n) - 1
        return cls(tuple((full >> i) << i for i in range(n)), labels=labels, _trusted=True)

    @classmethod
    def antichain(cls, n, labels=None):
        return cls(tuple(1 << i for i in range(n)), labels=labels, _trusted=True)

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
        out = 0
        for i in bits(mask):
            out |= self.down[i]
        return out

    def is_upset_mask(self, mask):
        return self.up_mask(mask) == mask

    def is_downset_mask(self, mask):
        return self.down_mask(mask) == mask

    def covers(self):
        """Cover pairs (i, j) meaning j covers i, sorted lexicographically."""
        if self._covers is None:
            out = []
            for i in range(self.size):
                strict = self.up[i] & ~(1 << i)
                reach = 0
                for j in bits(strict):
                    reach |= self.up[j] & ~(1 << j)
                for j in bits(strict & ~reach):
                    out.append((i, j))
            self._covers = tuple(sorted(out))
        return self._covers

    def lower_covers(self, j):
        return [i for i, jj in self.covers() if jj == j]

    def upper_covers(self, i):
        return [j for ii, j in self.covers() if ii == i]

    def heights(self):
        """Length of the longest strictly increasing chain below each point."""
        if self._heights is None:
            n = self.size
            h = [0] * n
            order = sorted(range(n), key=lambda i: popcount(self.down[i]))
            for i in order:
                below = self.down[i] & ~(1 << i)
                h[i] = max((h[j] + 1 for j in bits(below)), default=0)
            self._heights = tuple(h)
        return self._heights

    # -- subsets ---------------------------------------------------------

    def subset(self, points):
        mask = 0
        for p in points:
            if not 0 <= p < self.size:
                raise IndexError(f"point {p} outside 0..{self.size - 1}")
            mask |= 1 << p
        return PointSet(self, mask)

    def set_from_mask(self, mask):
        if mask & ~self.full_mask:
            raise IndexError("mask references points outside the poset")
        return PointSet(self, mask)

    def empty_set(self):
        return PointSet(self, 0)

    def full_set(self):
        return PointSet(self, self.full_mask)

    # -- relabeling and canonical form ------------------------------------

    def relabel(self, perm):
        """Copy with point i renamed to perm[i]."""
        n = self.size
        if sorted(perm) != list(range(n)):
            raise ValueError("perm is not a permutation of the points")
        new_up = [0] * n
        for i in range(n):
            m = 0
            for j in bits(self.up[i]):
                m |= 1 << perm[j]
            new_up[perm[i]] = m
        labels = None
        if self.labels is not None:
            labels = [None] * n
            for i in range(n):
                labels[perm[i]] = self.labels[i]
        return Poset(tuple(new_up), labels=labels, _trusted=True)

    def _color_classes(self):
        """Iteratively refined structural colors; returns vertex lists per color."""
        n = self.size
        heights = self.heights()
        sig = [
            (popcount(self.down[i]) - 1, popcount(self.up[i]) - 1, heights[i])
            for i in range(n)
        ]
        colors = _index_signatures(sig)
        lower = [self.lower_covers(i) for i in range(n)]
        upper = [self.upper_covers(i) for i in range(n)]
        while True:
            sig = [
                (
                    colors[i],
                    tuple(sorted(colors[j] for j in lower[i])),
                    tuple(sorted(colors[j] for j in upper[i])),
                )
                for i in range(n)
            ]
            refined = _index_signatures(sig)
            if refined == colors:
                break
            colors = refined
        classes = {}
        for i, c in enumerate(colors):
            classes.setdefault(c, []).append(i)
        return [classes[c] for c in sorted(classes)]

    def _canonicalize(self):
        """Canonical (key, permutation) pair.

        Color refinement narrows the candidate orderings; ties are broken by
        brute force over permutations inside each color class, which is cheap
        at the sizes this library targets.
        """
        if self._canon is not None:
            return self._canon
        n = self.size
        classes = self._color_classes()
        best_key = None
        best_order = None
        for perm_parts in itertools.product(
            *(itertools.permutations(cls_) for cls_ in classes)
        ):
            order = [v for part in perm_parts for v in part]
            pos = [0] * n
            for new_i, old in enumerate(order):
                pos[old] = new_i
            key = []
            for old in order:
                m = 0
                for j in bits(self.up[old]):
                    m |= 1 << pos[j]
                key.append(m)
            key = tuple(key)
            if best_key is None or key < best_key:
                best_key = key
                best_order = pos
        self._canon = (best_key, tuple(best_order))
        return self._canon

    def canonical_key(self):
        return (self.size, self._canonicalize()[0])

    def canonical(self):
        """Canonically relabeled copy (labels are dropped)."""
        return Poset(self._canonicalize()[0], _trusted=True)

    # -- serialization ----------------------------------------------------

    def to_doc(self):
        doc = {"size": self.size, "covers": [list(c) for c in self.covers()]}
        if self.labels is not None:
            doc["labels"] = list(self.labels)
        return doc

    @classmethod
    def from_doc(cls, doc):
        if not isinstance(doc, dict) or "size" not in doc:
            raise ValueError("not a poset document")
        return cls.from_covers(
            [tuple(c) for c in doc.get("covers", [])],
            int(doc["size"]),
            labels=doc.get("labels"),
        )

    def __repr__(self):
        return f"Poset(size={self.size}, covers={list(self.covers())})"


def _index_signatures(sig):
    ordered = sorted(set(sig))
    index = {s: k for k, s in enumerate(ordered)}
    return [index[s] for s in sig]


class PointSet:
    """Subset of a poset's points; bulk operations are integer bit operations.

    A PointSet is bound to its poset instance: combining sets over different
    posets raises BindingError.
    """

    __slots__ = ("poset", "mask")

    def __init__(self, poset, mask):
        if mask & ~poset.full_mask:
            raise IndexError("mask references points outside the poset")
        self.poset = poset
        self.mask = mask

    def _check(self, other):
        if not isinstance(other, PointSet):
            raise TypeError("expected a PointSet")
        if other.poset is not self.poset:
            raise BindingError("point sets are bound to different posets")

    def __or__(self, other):
        self._check(other)
        return PointSet(self.poset, self.mask | other.mask)

    def __and__(self, other):
        self._check(other)
        return PointSet(self.poset, self.mask & other.mask)

    def __sub__(self, other):
        self._check(other)
        return PointSet(self.poset, self.mask & ~other.mask)

    def complement(self):
        return PointSet(self.poset, self.poset.full_mask & ~self.mask)

    def __le__(self, other):
        self._check(other)
        return not (self.mask & ~other.mask)

    def __contains__(self, point):
        return bool((self.mask >> point) & 1)

    def __iter__(self):
        return bits(self.mask)

    def __len__(self):
        return popcount(self.mask)

    def __bool__(self):
        return self.mask != 0

    def __eq__(self, other):
        return (
            isinstance(other, PointSet)
            and other.poset is self.poset
            and other.mask == self.mask
        )

    def __hash__(self):
        return hash((id(self.poset), self.mask))

    def points(self):
        return tuple(bits(self.mask))

    def __repr__(self):
        return f"PointSet({{{', '.join(map(str, self.points()))}}})"


class MonotoneMap:
    """Order-preserving map between two posets, stored pointwise."""

    __slots__ = ("source", "target", "image")

    def __init__(self, source, target, image):
        image = tuple(image)
        if len(image) != source.size:
            raise ValueError("image length does not match source size")
        for q in image:
            if not 0 <= q < target.size:
                raise IndexError(f"image point {q} outside the target")
        for i, j in source.covers():
            if not target.leq(image[i], image[j]):
                raise ValueError(f"map is not monotone on cover ({i}, {j})")
        self.source = source
        self.target = target
        self.image = image

    @classmethod
    def identity(cls, poset):
        return cls(poset, poset, tuple(range(poset.size)))

    def __call__(self, point):
        return self.image[point]

    def image_mask(self, mask):
        out = 0
        for i in bits(mask):
            out |= 1 << self.image[i]
        return out

    def preimage_mask(self, mask):
        out = 0
        for i, q in enumerate(self.image):
            if (mask >> q) & 1:
                out |= 1 << i
        return out

    def preimage(self, point_set):
        if point_set.poset is not self.target:
            raise BindingError("point set is not bound to the map's target")
        return PointSet(self.source, self.preimage_mask(point_set.mask))

    def __eq__(self, other):
        return (
            isinstance(other, MonotoneMap)
            and other.source is self.source
            and other.target is self.target
            and other.image == self.image
        )

    def __hash__(self):
        return hash((id(self.source), id(self.target), self.image))

    def __repr__(self):
        return f"MonotoneMap({self.image})"


def compose_maps(outer, inner):
    """outer after inner."""
    if inner.target is not outer.source:
        raise BindingError("maps do not compose: inner target differs from outer source")
    return MonotoneMap(
        inner.source, outer.target, tuple(outer.image[q] for q in inner.image)
    )


# -- up/down closure ------------------------------------------------------


def _bound(poset, point_set):
    if point_set.poset is not poset:
        raise BindingError("point set belongs to another poset")


def up_closure(poset, point_set):
    """Smallest upset containing the given set."""
    _bound(poset, point_set)
    return PointSet(poset, poset.up_mask(point_set.mask))


def down_closure(poset, point_set):
    """Smallest downset containing the given set."""
    _bound(poset, point_set)
    return PointSet(poset, poset.down_mask(point_set.mask))


def min_elements(poset, point_set):
    """Points of the set with no strictly smaller point in the set."""
    _bound(poset, point_set)
    mask = point_set.mask
    out = 0
    for i in bits(mask):
        if poset.down[i] & mask == 1 << i:
            out |= 1 << i
    return PointSet(poset, out)


def max_elements(poset, point_set):
    _bound(poset, point_set)
    mask = point_set.mask
    out = 0
    for i in bits(mask):
        if poset.up[i] & mask == 1 << i:
            out |= 1 << i
    return PointSet(poset, out)


def upset_masks(poset, family_bound=None):
    """All upsets of the poset as masks, in canonical order.

    Canonical order: by cardinality, then by the sorted tuple of members.
    Everything downstream that enumerates clopen upsets inherits this order.
    """
    bound = config.MAX_UPSET_FAMILY if family_bound is None else family_bound
    n = poset.size
    if (1 << n) > bound:
        raise CapacityError(f"2^{n} upsets exceed the configured bound {bound}")
    cached = poset._upset_masks
    if cached is not None:
        return cached
    masks = [m for m in range(1 << n) if poset.up_mask(m) == m]
    masks.sort(key=mask_order_key)
    poset._upset_masks = tuple(masks)
    return poset._upset_masks


def all_upsets(poset, family_bound=None):
    """Every upset exactly once, as PointSets, in canonical order."""
    return [PointSet(poset, m) for m in upset_masks(poset, family_bound)]


# -- enumeration up to isomorphism ----------------------------------------


def enumerate_posets(n, max_size=None):
    """One representative per isomorphism class of posets on n points.

    Works by enumerating all strict orders contained in the numeric order
    (every poset admits a linear extension, so every class is hit) and
    deduplicating by canonical form. Representatives are canonical and the
    output order is deterministic.
    """
    cap = config.MAX_POSET_SIZE if max_size is None else max_size
    if n > cap:
        raise CapacityError(f"poset size {n} exceeds the configured bound {cap}")
    if n == 0:
        return [Poset.empty()]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    npairs = len(pairs)
    reps = {}
    for sel in range(1 << npairs):
        rel = [0] * n
        m = sel
        while m:
            low = m & -m
            i, j = pairs[low.bit_length() - 1]
            rel[i] |= 1 << j
            m ^= low
        ok = True
        for i in range(n):
            row = rel[i]
            probe = row
            while probe:
                low = probe & -probe
                if rel[low.bit_length() - 1] & ~row:
                    ok = False
                    break
                probe ^= low
            if not ok:
                break
        if not ok:
            continue
        p = Poset(tuple(rel[i] | (1 << i) for i in range(n)), _trusted=True)
        key = p.canonical_key()
        if key not in reps:
            reps[key] = p.canonical()
    return [reps[k] for k in sorted(reps)]


def isomorphic(p, q):
    """Order-isomorphism test via canonical forms."""
    return p.canonical_key() == q.canonical_key()


# -- monotone maps ---------------------------------------------------------


def iter_monotone_image_tuples(p, q):
    """Yield the image tuples of all monotone maps p -> q.

    Backtracks along a linear extension of p; a point's candidates are the
    common upper bounds of the images of its lower covers.
    """
    n = p.size
    if n == 0:
        yield ()
        return
    if q.size == 0:
        return
    order = sorted(range(n), key=lambda i: (p.heights()[i], i))
    pos_in_order = [0] * n
    for k, v in enumerate(order):
        pos_in_order[v] = k
    lower = [[j for j in p.lower_covers(v)] for v in order]
    image = [0] * n
    q_up = q.up
    q_full = q.full_mask

    def backtrack(k):
        if k == n:
            yield tuple(image)
            return
        v = order[k]
        candidates = q_full
        for j in lower[k]:
            candidates &= q_up[image[j]]
            if not candidates:
                return
        for c in bits(candidates):
            image[v] = c
            yield from backtrack(k + 1)

    try:
        yield from backtrack(0)
    finally:
        del backtrack  # it refers to itself; free the cycle without the collector


def monotone_maps(p, q, search_bound=None):
    """All monotone maps p -> q in deterministic (image-lexicographic) order."""
    bound = config.MAX_SEARCH_SPACE if search_bound is None else search_bound
    if p.size and q.size and q.size ** p.size > bound:
        raise CapacityError(
            f"{q.size}^{p.size} candidate maps exceed the configured bound {bound}"
        )
    images = sorted(iter_monotone_image_tuples(p, q))
    return [MonotoneMap(p, q, img) for img in images]
