"""Finite Priestley spaces and the clopen-upset operator calculus.

A finite Priestley space is a finite poset carrying the discrete topology.
Every subset is clopen, so closure is the identity and the clopen upsets are
exactly the upsets; the formulas below are written with that built in, and
the topology is not stored. Infinite (chain) duals, where closure is not the
identity, are meant to get their own closed-form backend (ROADMAP item 4)
rather than a topology layer here.

Operators on clopen upsets: kernel (union of clopen upsets way below U),
core (union of clopen Scott upsets inside U), regular part (union of clopen
upsets well inside U), center (union of clopen bisets inside U). Space,
map, and point-space predicates evaluate the defining conditions literally.
"""

from __future__ import annotations

from .errors import BindingError, ConsistencyError, UnknownPredicate
from .posets import MonotoneMap, PointSet, Poset, bits, mask_order_key, upset_masks

LSPACE_PREDICATES = (
    "continuousL",
    "algebraicL",
    "arithmeticL",
    "coherentL",
    "kernelStable",
    "lCompact",
    "regularL",
    "zeroDimL",
    "stoneL",
)

MAP_PREDICATES = ("lMorphism", "properL", "coherentL")

POINT_SPACE_PREDICATES = (
    "sober",
    "compactlyBased",
    "stablyCompactlyBased",
    "spectral",
    "stoneSpace",
    "zeroDimensional",
    "hausdorff",
    "compact",
)


class FinPriestley:
    """Finite Priestley space: a poset of points, topology implicitly discrete."""

    __slots__ = ("points", "_ker", "_core", "_reg", "_cen", "_scott", "_bisets",
                 "_components")

    def __init__(self, points):
        if not isinstance(points, Poset):
            raise TypeError("expected a Poset of points")
        self.points = points
        # per-operator memo dicts, created on first use: a corpus that is
        # only built never runs an operator, and each empty dict is 64 bytes
        self._ker = self._core = self._reg = self._cen = None
        self._scott = None
        self._bisets = None
        self._components = None

    @property
    def size(self):
        return self.points.size

    @property
    def full_mask(self):
        return self.points.full_mask

    def to_doc(self):
        return {"priestley": self.points.to_doc()}

    @classmethod
    def from_doc(cls, doc):
        if not isinstance(doc, dict) or "priestley" not in doc:
            raise ValueError("not a Priestley space document")
        return cls(Poset.from_doc(doc["priestley"]))

    def __repr__(self):
        return f"FinPriestley(points={self.points!r})"


# -- clopen upsets -----------------------------------------------------------


def clop_upset_masks(space):
    """Masks of the clopen upsets (= all upsets, discretely), canonical order."""
    return upset_masks(space.points)


def clop_upsets(space):
    return [PointSet(space.points, m) for m in clop_upset_masks(space)]


def _upset_mask_of(space, point_set):
    if point_set.poset is not space.points:
        raise BindingError("point set is not bound to this space")
    mask = point_set.mask
    if space.points.up_mask(mask) != mask:
        raise ValueError("point set is not an upset")
    return mask


# -- spatial part --------------------------------------------------------------


class PointSpace:
    """The spatial part with its space-of-points topology, opens listed."""

    __slots__ = ("poset", "opens")

    def __init__(self, poset, opens):
        self.poset = poset
        self.opens = tuple(sorted(set(opens), key=mask_order_key))

    @property
    def full_mask(self):
        return self.poset.full_mask

    def closed_sets(self):
        return [self.full_mask & ~o for o in self.opens]

    def clopen_sets(self):
        opens = set(self.opens)
        return [o for o in self.opens if (self.full_mask & ~o) in opens]

    def point_closure(self, y):
        """Closure of a single point: intersection of all closed sets containing it."""
        out = self.full_mask
        for c in self.closed_sets():
            if (c >> y) & 1:
                out &= c
        return out

    def __repr__(self):
        return f"PointSpace(size={self.poset.size}, opens={len(self.opens)})"


def spatial_mask(space):
    """Points whose downset is clopen: every point, since every set is clopen."""
    return space.full_mask


def spatial_part(space):
    """The spatial part and its point-space topology {U ∩ Y : U clopen upset}.

    Y is the whole space, so the opens are the clopen upsets: the upset
    (Alexandroff) topology of the order.
    """
    return (PointSet(space.points, spatial_mask(space)),
            PointSpace(space.points, clop_upset_masks(space)))


# -- way below / kernel ----------------------------------------------------------


def clop_way_below(space, v, u):
    """V ≪ U: every upset W with U ⊆ W (= cl W) already contains V.

    Checked against the finite collapse (V ≪ U iff V ⊆ U).
    """
    vm = _upset_mask_of(space, v)
    um = _upset_mask_of(space, u)
    result = _clop_way_below_masks(space, vm, um)
    if result != (vm & ~um == 0):
        raise ConsistencyError("clopen way-below must collapse to inclusion finitely")
    return result


def _clop_way_below_masks(space, vm, um):
    for w in clop_upset_masks(space):
        if um & ~w == 0 and vm & ~w:
            return False
    return True


def kernel(space, u):
    """ker U: union of the clopen upsets way below U."""
    um = _upset_mask_of(space, u)
    return PointSet(space.points, _kernel_mask(space, um))


def _kernel_mask(space, um):
    memo = space._ker
    if memo is None:
        memo = space._ker = {}
    if um not in memo:
        out = 0
        for vm in clop_upset_masks(space):
            if _clop_way_below_masks(space, vm, um):
                out |= vm
        memo[um] = out
    return memo[um]


# -- Scott upsets and the core ------------------------------------------------------


def is_scott_upset(space, subset):
    """Closed upsets (= upsets) whose minimal points lie in the spatial part.

    Also evaluates the closure-reflection formulation (F ⊆ cl W implies
    F ⊆ W for open upsets W, with cl W = W) and insists the two routes agree.
    """
    if subset.poset is not space.points:
        raise BindingError("point set is not bound to this space")
    mask = subset.mask
    points = space.points
    if points.up_mask(mask) == mask:
        min_mask = 0
        for i in bits(mask):
            if points.down[i] & mask == 1 << i:
                min_mask |= 1 << i
        route_min = min_mask & ~spatial_mask(space) == 0
        route_reflect = all(
            mask & ~w == 0 for w in clop_upset_masks(space) if mask & ~w == 0
        )
    else:
        route_min = route_reflect = False
    if route_min != route_reflect:
        raise ConsistencyError("the two Scott-upset formulations disagree")
    return route_min


def clop_scott_upset_masks(space):
    if space._scott is None:
        space._scott = tuple(
            m
            for m in clop_upset_masks(space)
            if is_scott_upset(space, PointSet(space.points, m))
        )
    return space._scott


def clop_scott_upsets(space):
    return [PointSet(space.points, m) for m in clop_scott_upset_masks(space)]


def core(space, u):
    """core U: union of the clopen Scott upsets contained in U."""
    um = _upset_mask_of(space, u)
    return PointSet(space.points, _core_mask(space, um))


def _core_mask(space, um):
    memo = space._core
    if memo is None:
        memo = space._core = {}
    if um not in memo:
        out = 0
        for vm in clop_scott_upset_masks(space):
            if vm & ~um == 0:
                out |= vm
        memo[um] = out
    return memo[um]


# -- well inside / regular part ------------------------------------------------------


def clop_well_inside(space, v, u):
    """V ≺ U: the downset of V is contained in U."""
    vm = _upset_mask_of(space, v)
    um = _upset_mask_of(space, u)
    return space.points.down_mask(vm) & ~um == 0


def reg_part(space, u):
    """reg U: union of the clopen upsets well inside U."""
    um = _upset_mask_of(space, u)
    memo = space._reg
    if memo is None:
        memo = space._reg = {}
    if um not in memo:
        out = 0
        for vm in clop_upset_masks(space):
            if space.points.down_mask(vm) & ~um == 0:
                out |= vm
        memo[um] = out
    return PointSet(space.points, memo[um])


# -- bisets / center --------------------------------------------------------------------


def comparability_components(space):
    """Connected components of the comparability graph, as masks."""
    if space._components is None:
        points = space.points
        n = points.size
        seen = 0
        comps = []
        for start in range(n):
            if (seen >> start) & 1:
                continue
            comp = 1 << start
            while True:
                grown = comp
                for i in bits(comp):
                    grown |= points.up[i] | points.down[i]
                if grown == comp:
                    break
                comp = grown
            comps.append(comp)
            seen |= comp
        space._components = tuple(comps)
    return space._components


def clopen_biset_masks(space):
    """Clopen bisets: exactly the unions of comparability components."""
    if space._bisets is None:
        comps = comparability_components(space)
        masks = set()
        for k in range(1 << len(comps)):
            m = 0
            for i in bits(k):
                m |= comps[i]
            masks.add(m)
        space._bisets = tuple(sorted(masks, key=mask_order_key))
    return space._bisets


def clopen_bisets(space):
    return [PointSet(space.points, m) for m in clopen_biset_masks(space)]


def center(space, u):
    """cen U: union of the clopen bisets contained in U."""
    um = _upset_mask_of(space, u)
    memo = space._cen
    if memo is None:
        memo = space._cen = {}
    if um not in memo:
        out = 0
        for vm in clopen_biset_masks(space):
            if vm & ~um == 0:
                out |= vm
        memo[um] = out
    return PointSet(space.points, memo[um])


# -- structural sanity predicates ----------------------------------------------------


def has_priestley_separation(space):
    """x not<= y implies a clopen upset contains x and misses y."""
    points = space.points
    ups = clop_upset_masks(space)
    for x in range(points.size):
        for y in range(points.size):
            if x != y and not points.leq(x, y):
                if not any((u >> x) & 1 and not (u >> y) & 1 for u in ups):
                    return False
    return True


# -- space predicates ---------------------------------------------------------------


# Composite L-space and point-space predicates: each is the conjunction of
# the listed predicates, and its witness is that of the first one to fail.
# stablyCompactlyBased needs no meet condition on the compact opens because
# every subset of a finite space is compact.
_CONJUNCTIONS = {
    "arithmeticL": ("kernelStable", "algebraicL"),
    "coherentL": ("lCompact", "arithmeticL"),
    "stoneL": ("lCompact", "zeroDimL"),
    "stablyCompactlyBased": ("compactlyBased", "sober"),
    "spectral": ("stablyCompactlyBased", "compact"),
    "stoneSpace": ("zeroDimensional", "compact", "hausdorff"),
}


def _conjunction(witness, subject, names):
    for name in names:
        ok, w = witness(subject, name)
        if not ok:
            return ok, w
    return True, None


def lspace_predicate(space, name):
    ok, _ = lspace_predicate_witness(space, name)
    return ok


def lspace_predicate_witness(space, name):
    """Evaluate an L-space condition; returns (bool, witness or None).

    Density of O in U means cl(O) = U, that is O = U on a finite space.
    """
    if name not in LSPACE_PREDICATES:
        raise UnknownPredicate(f"unknown L-space predicate {name!r}")
    if name in _CONJUNCTIONS:
        return _conjunction(lspace_predicate_witness, space, _CONJUNCTIONS[name])
    ups = clop_upset_masks(space)
    if name == "continuousL":
        return _density_sweep(space, ups, _kernel_mask)
    if name == "algebraicL":
        return _density_sweep(space, ups, _core_mask)
    if name == "regularL":
        return _density_sweep(space, ups, lambda s, m: reg_part(
            s, PointSet(s.points, m)).mask)
    if name == "zeroDimL":
        return _density_sweep(space, ups, lambda s, m: center(
            s, PointSet(s.points, m)).mask)
    if name == "kernelStable":
        for um in ups:
            for vm in ups:
                lhs = _kernel_mask(space, um & vm)
                rhs = _kernel_mask(space, um) & _kernel_mask(space, vm)
                if lhs != rhs:
                    return False, {"upsets": (um, vm)}
        return True, None
    # lCompact
    full = space.full_mask
    ok = _kernel_mask(space, full) == full
    return ok, (None if ok else {"upset": full})


def _density_sweep(space, ups, part):
    for um in ups:
        if part(space, um) != um:
            return False, {"upset": um}
    return True, None


# -- maps ------------------------------------------------------------------------------


class SpaceMap:
    """Monotone (hence continuous) map between finite Priestley spaces."""

    __slots__ = ("source", "target", "mapping", "_flags")

    def __init__(self, source, target, mapping):
        if mapping.source is not source.points or mapping.target is not target.points:
            raise BindingError("underlying map is not bound to these spaces")
        self.source = source
        self.target = target
        self.mapping = mapping
        self._flags = {}

    @classmethod
    def from_images(cls, source, target, image):
        return cls(source, target, MonotoneMap(source.points, target.points, image))

    @classmethod
    def identity(cls, space):
        return cls(space, space, MonotoneMap.identity(space.points))

    def __call__(self, point):
        return self.mapping(point)

    def _flag(self, name):
        if name not in self._flags:
            self._flags[name] = map_predicate(self, name)
        return self._flags[name]

    @property
    def is_l_morphism(self):
        return self._flag("lMorphism")

    @property
    def is_proper(self):
        return self._flag("properL")

    @property
    def is_coherent(self):
        return self._flag("coherentL")

    def __repr__(self):
        return f"SpaceMap({self.mapping.image})"


def compose_space_maps(outer, inner):
    from .posets import compose_maps

    if inner.target is not outer.source:
        raise BindingError("maps do not compose")
    return SpaceMap(inner.source, outer.target, compose_maps(outer.mapping, inner.mapping))


def map_predicate(space_map, name):
    """Literal evaluation over the clopen upsets of the target."""
    if name not in MAP_PREDICATES:
        raise UnknownPredicate(f"unknown space-map predicate {name!r}")
    # f⁻¹(cl U) = cl f⁻¹(U) holds outright: closure is the identity on both sides
    if name == "lMorphism":
        return True
    src, tgt = space_map.source, space_map.target
    f = space_map.mapping
    if name == "properL":
        for um in clop_upset_masks(tgt):
            if f.preimage_mask(_kernel_mask(tgt, um)) & ~_kernel_mask(
                src, f.preimage_mask(um)
            ):
                return False
        return True
    # coherentL
    for um in clop_upset_masks(tgt):
        if f.preimage_mask(_core_mask(tgt, um)) & ~_core_mask(
            src, f.preimage_mask(um)
        ):
            return False
    return True


def monotone_space_maps(source, target, search_bound=None):
    from .posets import monotone_maps

    return [
        SpaceMap(source, target, m)
        for m in monotone_maps(source.points, target.points, search_bound)
    ]


# -- point-space predicates ---------------------------------------------------------


def _irreducible_closed_sets(point_space):
    """Nonempty closed sets that are not the union of two proper closed subsets."""
    closed = point_space.closed_sets()
    out = []
    for c in closed:
        if c == 0:
            continue
        reducible = any(
            a | b == c
            for a in closed
            if a != c and a & ~c == 0
            for b in closed
            if b != c and b & ~c == 0
        )
        if not reducible:
            out.append(c)
    return out


def point_space_predicate(point_space, name):
    ok, _ = point_space_predicate_witness(point_space, name)
    return ok


def point_space_predicate_witness(point_space, name):
    if name not in POINT_SPACE_PREDICATES:
        raise UnknownPredicate(f"unknown point-space predicate {name!r}")
    if name in _CONJUNCTIONS:
        return _conjunction(point_space_predicate_witness, point_space,
                            _CONJUNCTIONS[name])
    opens = point_space.opens
    n = point_space.poset.size
    if name == "sober":
        for c in _irreducible_closed_sets(point_space):
            generic = [
                y for y in bits(c) if point_space.point_closure(y) == c
            ]
            if len(generic) != 1:
                return False, {"closed": c}
        return True, None
    # Every subset of a finite space is compact, so compactness conditions
    # hold outright and compactlyBased asks only for a basic open per point.
    if name == "compact":
        return True, None
    if name == "compactlyBased":
        for o in opens:
            for y in bits(o):
                if not any((b >> y) & 1 and b & ~o == 0 for b in opens):
                    return False, {"open": o, "point": y}
        return True, None
    if name == "zeroDimensional":
        clopens = point_space.clopen_sets()
        for o in opens:
            union = 0
            for b in clopens:
                if b & ~o == 0:
                    union |= b
            if union != o:
                return False, {"open": o}
        return True, None
    # hausdorff
    for x in range(n):
        for y in range(x + 1, n):
            if not any(
                (u >> x) & 1 and (v >> y) & 1 and u & v == 0
                for u in opens
                for v in opens
            ):
                return False, {"points": (x, y)}
    return True, None
