"""Finite Priestley spaces and the clopen-upset operator calculus.

A finite Priestley space is a finite poset carrying the discrete topology
(Priestley 1970), so a space is the `Poset` of its points, and a map of
spaces is a `MonotoneMap`. Every subset is clopen, so closure is the
identity and the clopen upsets are exactly the upsets; the formulas below
are written with that built in, and the topology is not stored. Infinite
(chain) duals, where closure is not the identity, are meant to get their
own closed-form backend (ROADMAP item 1) rather than a topology layer here.

A set of points is an int mask, bit i for point i, as in `posets`.
Operators on clopen upsets: kernel (union of clopen upsets way below U),
core (union of clopen Scott upsets inside U), regular part (union of clopen
upsets well inside U), center (union of clopen bisets inside U). Each
operator is evaluated on every clopen upset of a space at once, into one
table per space: a tuple aligned with `clop_upset_masks(space)`, with
`_upset_index` giving each upset's position. The validators and the
L-space predicates that sweep every upset read the tables; each of
`kernel`, `core`, `reg_part` and `center` takes one upset mask and reads
its entry, and a mask that is not an upset of the space, or that has a bit
outside its points (a negative mask included), raises ValueError. Space,
map, and point-space predicates evaluate the defining conditions
literally, and every derived fact is kept on the poset of points by
`posets.cached`.
"""

from __future__ import annotations

from .errors import UnknownPredicate
from .posets import bits, cached, conjunction, mask_order_key, upset_masks

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

MAP_PREDICATES = ("properL", "coherentL")

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


# -- clopen upsets -----------------------------------------------------------


def clop_upset_masks(space):
    """Masks of the clopen upsets (= all upsets, discretely), canonical order."""
    return upset_masks(space)


@cached
def _upset_index(space):
    """The position of each clopen upset in `clop_upset_masks(space)`, which
    is its position in every operator table of the space."""
    return {um: i for i, um in enumerate(clop_upset_masks(space))}


def _is_upset_mask(space, mask):
    """Whether the mask is an upset; ValueError if a bit lies outside the
    space's points, which a negative mask always has."""
    if mask & ~space.full_mask:
        raise ValueError(f"mask {mask:#x} has bits outside the space's points")
    return space.up_mask(mask) == mask


def _upset_mask_of(space, um):
    if not _is_upset_mask(space, um):
        raise ValueError(f"mask {um:#x} is not an upset of the space")
    return um


# -- spatial part --------------------------------------------------------------


class PointSpace:
    """The spatial part with its space-of-points topology, opens listed.

    The opens must be a topology on the poset's points: subsets of them,
    holding ∅ and the whole set and closed under binary unions and
    intersections, as every `spatial_part` is. `sober` and `point_closure`
    rely on it, and the constructor raises ValueError on a family that is
    not.
    """

    __slots__ = ("poset", "opens", "_memo")

    def __init__(self, poset, opens):
        opens = set(opens)
        self.poset = poset
        self.opens = tuple(sorted(opens, key=mask_order_key))
        for i, a in enumerate(self.opens):
            for b in self.opens[i + 1:]:
                if a | b not in opens or a & b not in opens:
                    raise ValueError(
                        f"opens {a:#b} and {b:#b} lack their union or intersection"
                    )
        full = poset.full_mask
        if 0 not in opens or full not in opens or any(o & ~full for o in opens):
            raise ValueError("opens must lie in the points and hold ∅ and the whole set")
        self._memo = {}

    @property
    def full_mask(self):
        return self.poset.full_mask

    @cached
    def closed_sets(self):
        return tuple(self.full_mask & ~o for o in self.opens)

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


@cached
def spatial_part(space):
    """The spatial part Y as a point space, opens {U ∩ Y : U clopen upset}.

    Y is the whole space (`spatial_mask`), so the opens are the clopen
    upsets: the upset (Alexandroff) topology of the order. It is built once
    per space, so its predicate memo is shared by every caller.
    """
    return PointSpace(space, clop_upset_masks(space))


# -- way below / kernel ----------------------------------------------------------


def _upsets_above_meet(ups, um, full):
    """⋂{W ∈ ups : U ⊆ W}, starting from the full mask. V ≪ U iff every
    upset W with U ⊆ W (= cl W) already contains V, that is iff V lies
    inside it."""
    out = full
    for w in ups:
        if um & ~w == 0:
            out &= w
    return out


def kernel(space, um):
    """ker U: union of the clopen upsets way below U."""
    return _kernel_mask(space, _upset_mask_of(space, um))


def _kernel_mask(space, um):
    return _kernel_table(space)[_upset_index(space)[um]]


@cached
def _kernel_table(space):
    """ker U for every clopen upset U, aligned with `clop_upset_masks`.

    V ≪ U iff V ⊆ ⋂{W clopen upset : U ⊆ W}, so the intersection is formed
    once per U and ker U is the union of the clopen upsets inside it.
    """
    ups, full = clop_upset_masks(space), space.full_mask
    return tuple(_union_inside(ups, _upsets_above_meet(ups, um, full)) for um in ups)


def _union_inside(family, bound):
    """Union of the members of `family` contained in `bound`."""
    out = 0
    for vm in family:
        if vm & ~bound == 0:
            out |= vm
    return out


# -- Scott upsets and the core ------------------------------------------------------


def is_scott_upset(space, mask):
    """Closed upsets (= upsets) whose minimal points lie in the spatial part.

    That is every upset of a finite space. The closure-reflection route
    (F ⊆ cl W implies F ⊆ W) holds by construction while cl W = W. A mask
    that is not an upset is not a Scott upset; one with a bit outside the
    space raises ValueError."""
    return _is_upset_mask(space, mask) and _minimal_points_spatial(space, mask)


def _minimal_points_spatial(space, um):
    """Whether the minimal points of the upset lie in the spatial part."""
    down = space.down
    min_mask = 0
    for i in bits(um):
        if down[i] & um == 1 << i:
            min_mask |= 1 << i
    return min_mask & ~spatial_mask(space) == 0


@cached
def clop_scott_upset_masks(space):
    """The clopen Scott upsets: the clopen upsets, known to be upsets, that
    pass the minimal-point test of `is_scott_upset`."""
    return tuple(m for m in clop_upset_masks(space) if _minimal_points_spatial(space, m))


def core(space, um):
    """core U: union of the clopen Scott upsets contained in U."""
    return _core_mask(space, _upset_mask_of(space, um))


def _core_mask(space, um):
    return _core_table(space)[_upset_index(space)[um]]


@cached
def _core_table(space):
    """core U for every clopen upset U, aligned with `clop_upset_masks`."""
    scott = clop_scott_upset_masks(space)
    return tuple(_union_inside(scott, um) for um in clop_upset_masks(space))


# -- well inside / regular part ------------------------------------------------------


def reg_part(space, um):
    """reg U: union of the clopen upsets V well inside U (V ≺ U), that is
    with ↓V ⊆ U."""
    return _reg_table(space)[_upset_index(space)[_upset_mask_of(space, um)]]


@cached
def _reg_table(space):
    """reg U for every clopen upset U, aligned with `clop_upset_masks`; the
    downset of each clopen upset is computed once."""
    ups = clop_upset_masks(space)
    pairs = tuple(zip(ups, map(space.down_mask, ups)))
    table = []
    for um in ups:
        out = 0
        for vm, dm in pairs:
            if dm & ~um == 0:
                out |= vm
        table.append(out)
    return tuple(table)


# -- bisets / center --------------------------------------------------------------------


@cached
def comparability_components(space):
    """Connected components of the comparability graph, as masks."""
    seen = 0
    comps = []
    for start in range(space.size):
        if (seen >> start) & 1:
            continue
        comp = 1 << start
        while True:
            grown = comp
            for i in bits(comp):
                grown |= space.up[i] | space.down[i]
            if grown == comp:
                break
            comp = grown
        comps.append(comp)
        seen |= comp
    return tuple(comps)


@cached
def clopen_biset_masks(space):
    """Clopen bisets: exactly the unions of comparability components."""
    comps = comparability_components(space)
    masks = set()
    for k in range(1 << len(comps)):
        m = 0
        for i in bits(k):
            m |= comps[i]
        masks.add(m)
    return tuple(sorted(masks, key=mask_order_key))


def center(space, um):
    """cen U: union of the clopen bisets contained in U."""
    return _center_table(space)[_upset_index(space)[_upset_mask_of(space, um)]]


@cached
def _center_table(space):
    """cen U for every clopen upset U, aligned with `clop_upset_masks`."""
    bisets = clopen_biset_masks(space)
    return tuple(_union_inside(bisets, um) for um in clop_upset_masks(space))


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


def lspace_predicate(space, name):
    ok, _ = lspace_predicate_witness(space, name)
    return ok


@cached
def lspace_predicate_witness(space, name):
    """Evaluate an L-space condition; returns (bool, witness or None).

    Density of O in U means cl(O) = U, that is O = U on a finite space.
    Each result is kept per space and name, so a condition shared by
    several conjunctions (kernelStable, lCompact) is evaluated once.
    """
    if name not in LSPACE_PREDICATES:
        raise UnknownPredicate(f"unknown L-space predicate {name!r}")
    if name in _CONJUNCTIONS:
        return conjunction(lspace_predicate_witness, space, _CONJUNCTIONS[name])
    ups = clop_upset_masks(space)
    if name == "continuousL":
        return _density_sweep(ups, _kernel_table(space))
    if name == "algebraicL":
        return _density_sweep(ups, _core_table(space))
    if name == "regularL":
        return _density_sweep(ups, _reg_table(space))
    if name == "zeroDimL":
        return _density_sweep(ups, _center_table(space))
    if name == "kernelStable":
        # ker(U ∩ V) = ker U ∩ ker V, read from the kernel table. The
        # condition is symmetric in U and V, so the first failing pair in
        # row-major order has V at or after U.
        ker, index = _kernel_table(space), _upset_index(space)
        for i, (um, ku) in enumerate(zip(ups, ker)):
            for vm, kv in zip(ups[i:], ker[i:]):
                if ker[index[um & vm]] != ku & kv:
                    return False, {"upsets": (um, vm)}
        return True, None
    # lCompact
    full = space.full_mask
    ok = _kernel_mask(space, full) == full
    return ok, (None if ok else {"upset": full})


def _density_sweep(ups, table):
    """Whether the operator fixes every clopen upset (its table is `ups`),
    else the first upset it does not fix."""
    if table != ups:
        for um, part in zip(ups, table):
            if part != um:
                return False, {"upset": um}
    return True, None


# -- maps ------------------------------------------------------------------------------


def map_predicate(f, name):
    """Literal evaluation over the clopen upsets of f.target.

    lMorphism is not one: f⁻¹(cl U) = cl f⁻¹(U) holds on every finite map."""
    if name not in MAP_PREDICATES:
        raise UnknownPredicate(f"unknown space-map predicate {name!r}")
    # f⁻¹(part U) ⊆ part f⁻¹(U), with the kernel for properL and the core
    # for coherentL
    part = _kernel_mask if name == "properL" else _core_mask
    src, tgt = f.source, f.target
    for um in clop_upset_masks(tgt):
        if f.preimage_mask(part(tgt, um)) & ~part(src, f.preimage_mask(um)):
            return False
    return True


# -- point-space predicates ---------------------------------------------------------


def _irreducible_closed_sets(point_space):
    """Nonempty closed sets that are not the union of two proper closed subsets.

    The closed sets are closed under finite unions, so c is such a union iff
    the closed sets strictly inside c cover it.
    """
    closed = point_space.closed_sets()
    irreducible = []
    for c in closed:
        inside = 0
        for a in closed:
            if a & ~c == 0 and a != c:
                inside |= a
        # the empty set has nothing strictly inside it and so is left out
        if inside != c:
            irreducible.append(c)
    return irreducible


def point_space_predicate(point_space, name):
    ok, _ = point_space_predicate_witness(point_space, name)
    return ok


@cached
def point_space_predicate_witness(point_space, name):
    """Evaluate a point-space condition; returns (bool, witness or None).

    Each result is kept on the point space per name, so a condition that
    several conjunctions or validators ask for (stablyCompactlyBased inside
    spectral, zeroDimensional inside stoneSpace) is evaluated once. The
    closed sets are cached too, for `point_closure`.
    """
    if name not in POINT_SPACE_PREDICATES:
        raise UnknownPredicate(f"unknown point-space predicate {name!r}")
    return _point_space_predicate_witness(point_space, name)


def _point_space_predicate_witness(point_space, name):
    if name in _CONJUNCTIONS:
        return conjunction(point_space_predicate_witness, point_space, _CONJUNCTIONS[name])
    opens = point_space.opens
    n = point_space.poset.size
    if name == "sober":
        # a point y is a generic point of c iff its closure is c
        closures = [point_space.point_closure(y) for y in range(n)]
        for c in _irreducible_closed_sets(point_space):
            if closures.count(c) != 1:
                return False, {"closed": c}
        return True, None
    # Every subset of a finite space is compact, so compactness conditions
    # hold outright. compactlyBased asks for a compact open inside o around
    # each point of o, and o itself is one.
    if name in ("compact", "compactlyBased"):
        return True, None
    if name == "zeroDimensional":
        clopens = point_space.clopen_sets()
        for o in opens:
            if _union_inside(clopens, o) != o:
                return False, {"open": o}
        return True, None
    # hausdorff: y is separated from x iff y ∈ reach[x], the union over the
    # opens u ∋ x of the opens disjoint from u
    reach = [0] * n
    for u in opens:
        apart = 0
        for v in opens:
            if u & v == 0:
                apart |= v
        for x in bits(u):
            reach[x] |= apart
    for x in range(n):
        unseparated = (point_space.full_mask & ~reach[x]) >> (x + 1)
        if unseparated:
            return False, {"points": (x, x + 1 + bits(unseparated)[0])}
    return True, None
