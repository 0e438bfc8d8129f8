"""The two functors between finite lattices and finite Priestley spaces.

A lattice goes to its space of prime filters ordered by inclusion, carried by
the assignment phi(a) = {points containing a}; a space goes to its lattice of
clopen upsets. The dual space is built by the fast path through join
irreducibles and checked, on every lattice, against the prime filters that
`lattices.prime_filters` finds by filter closure without consulting join
irreducibles. Round trips, hom dualization with its functor laws, and one
named validator per characterization statement live here.

Validators re-derive every side from the definitional operations (the ideal
oracle for way-below, the literal space operators); they never consult the
finite-collapse fast paths, so a bug in a fast path cannot mask a theorem
failure.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

# Content ids hash a few hundred bytes at a time. Like the standard library's
# random module, prefer the interpreter's built-in SHA-256 to hashlib, whose
# OpenSSL backend adds about 3.5 MB of resident memory to the process.
try:
    from _sha2 import sha256  # CPython 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

from . import config
from .errors import ConsistencyError, IsoFailure, NotFrameHom
from .lattices import (
    birkhoff_lattice,
    enumerate_homs,
    frame_predicate,
    hom_predicate,
    join_irreducible_poset,
    join_irreducibles,
    prime_filters,
    way_below_rows_oracle,
)
from .posets import MonotoneMap, PointSet, Poset, bits
from .spaces import (
    FinPriestley,
    SpaceMap,
    _core_mask,
    _kernel_mask,
    center,
    clop_scott_upset_masks,
    clop_upset_masks,
    clopen_biset_masks,
    is_scott_upset,
    lspace_predicate_witness,
    point_space_predicate_witness,
    reg_part,
    spatial_mask,
    spatial_part,
)

VALIDATOR_NAMES = (
    "coreChain",
    "compactCharacterization",
    "algebraicEquivalence",
    "scottExtensions",
    "properCoherent",
    "scottStable",
    "arithmeticEquivalence",
    "coherentEquivalence",
    "cenSubReg",
    "stoneCollapse",
    "zeroDimEquivalence",
    "stoneEquivalence",
)


@dataclass(frozen=True, slots=True)
class StoneMapRecord:
    """A lattice, its dual space, and the connecting assignment.

    phi[a] is the mask of the clopen upset of points whose filter contains a;
    point_filters[p] is the mask of lattice elements in point p's filter.
    """

    lattice: FinDLat
    space: FinPriestley
    phi: tuple
    point_filters: tuple

    def phi_mask(self, a):
        return self.phi[a]


def poset_content_id(poset):
    """Stable content hash of the canonical poset serialization."""
    doc = poset.canonical().to_doc()
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return sha256(payload).hexdigest()[:12]


def lattice_content_id(lattice):
    if lattice.base_poset is not None:
        return poset_content_id(lattice.base_poset)
    if lattice.is_distributive():
        return poset_content_id(join_irreducible_poset(lattice))
    return poset_content_id(lattice.carrier_poset())


# -- the dual space ------------------------------------------------------------


def priestley_space_of(lattice):
    """Dual space with its Stone map, cached on the lattice.

    Fast path: points are the join irreducibles, each carrying its principal
    filter, ordered by filter inclusion. On every lattice the prime filters
    of `lattices.prime_filters`, which never consults join irreducibles,
    must produce the same space up to the unique filter-preserving
    bijection, phi included; a mismatch raises ConsistencyError.
    """
    if lattice._priestley_record is not None:
        return lattice._priestley_record
    irr = join_irreducibles(lattice)
    filters = [lattice.up[j] for j in irr]
    k = len(irr)
    point_up = [0] * k
    for p in range(k):
        for q in range(k):
            if filters[p] & ~filters[q] == 0:
                point_up[p] |= 1 << q
    points = Poset(point_up, _trusted=True)
    phi = []
    for a in range(lattice.size):
        mask = 0
        for p in range(k):
            if (filters[p] >> a) & 1:
                mask |= 1 << p
        phi.append(mask)
    record = StoneMapRecord(lattice, FinPriestley(points), tuple(phi), tuple(filters))
    _check_against_oracle(record, prime_filters(lattice))
    lattice._priestley_record = record
    return record


def _check_against_oracle(record, oracle_filters):
    lattice = record.lattice
    if sorted(record.point_filters) != oracle_filters:
        raise ConsistencyError(
            "join-irreducible principal filters differ from the enumerated prime filters"
        )
    # the matching bijection is by literal filter equality; check it carries
    # the order and the Stone map (inclusion order on both sides)
    index = {f: p for p, f in enumerate(record.point_filters)}
    for fa in oracle_filters:
        for fb in oracle_filters:
            lhs = fa & ~fb == 0
            rhs = record.space.points.leq(index[fa], index[fb])
            if lhs != rhs:
                raise ConsistencyError("oracle and fast-path point orders disagree")
    for a in range(lattice.size):
        oracle_mask = 0
        for f in oracle_filters:
            if (f >> a) & 1:
                oracle_mask |= 1 << index[f]
        if oracle_mask != record.phi_mask(a):
            raise ConsistencyError("oracle and fast-path Stone maps disagree")


# -- the other direction ----------------------------------------------------------


def dualize_hom(hom):
    """A frame homomorphism h : L -> M dualizes to h^{-1} : X_M -> X_L."""
    if not hom_predicate(hom, "frameHom"):
        raise NotFrameHom("only frame homomorphisms dualize")
    rec_src = priestley_space_of(hom.source)
    rec_tgt = priestley_space_of(hom.target)
    index = {f: p for p, f in enumerate(rec_src.point_filters)}
    images = []
    for x_filter in rec_tgt.point_filters:
        preimage = 0
        for a in range(hom.source.size):
            if (x_filter >> hom.image[a]) & 1:
                preimage |= 1 << a
        if preimage not in index:
            raise ConsistencyError(
                "preimage of a prime filter under a frame hom must be a prime filter"
            )
        images.append(index[preimage])
    return SpaceMap(
        rec_tgt.space,
        rec_src.space,
        MonotoneMap(rec_tgt.space.points, rec_src.space.points, images),
    )


# -- round trips --------------------------------------------------------------------


@dataclass(frozen=True)
class RoundTripReport:
    kind: str
    size: int
    witness: tuple


def round_trip_frame(lattice):
    """phi : L -> ClopUp(X_L) must be a bounded lattice isomorphism."""
    record = priestley_space_of(lattice)
    space = record.space
    family = clop_upset_masks(space)
    images = [record.phi_mask(a) for a in range(lattice.size)]
    if sorted(images) != sorted(family):
        raise IsoFailure(
            "Stone map is not onto the clopen upsets",
            witness=(sorted(images), sorted(family)),
        )
    if len(set(images)) != lattice.size:
        raise IsoFailure("Stone map is not injective", witness=images)
    for a in range(lattice.size):
        for b in range(lattice.size):
            if images[lattice.join[a][b]] != images[a] | images[b]:
                raise IsoFailure("Stone map breaks a join", witness=(a, b))
            if images[lattice.meet[a][b]] != images[a] & images[b]:
                raise IsoFailure("Stone map breaks a meet", witness=(a, b))
            if lattice.leq(a, b) != (images[a] & ~images[b] == 0):
                raise IsoFailure("Stone map breaks the order", witness=(a, b))
    if images[lattice.bottom] != 0 or images[lattice.top] != space.full_mask:
        raise IsoFailure("Stone map breaks a bound", witness=None)
    return RoundTripReport("frame", lattice.size, tuple(images))


def round_trip_space(space):
    """x -> {clopen upsets containing x} must be an order-isomorphism onto
    the dual space of the clopen-upset lattice."""
    lattice = birkhoff_lattice(space.points)
    record = priestley_space_of(lattice)
    family = clop_upset_masks(space)
    index = {f: p for p, f in enumerate(record.point_filters)}
    eps = []
    for x in range(space.size):
        x_filter = 0
        for i, u in enumerate(family):
            if (u >> x) & 1:
                x_filter |= 1 << i
        if x_filter not in index:
            raise IsoFailure(
                "a point's clopen-upset filter is not a prime filter",
                witness=x,
            )
        eps.append(index[x_filter])
    if sorted(eps) != list(range(record.space.size)):
        raise IsoFailure("the unit is not a bijection on points", witness=tuple(eps))
    for x in range(space.size):
        for y in range(space.size):
            if space.points.leq(x, y) != record.space.points.leq(eps[x], eps[y]):
                raise IsoFailure("the unit breaks the order", witness=(x, y))
    return RoundTripReport("space", space.size, tuple(eps))


def phi_join_law(lattice, elements):
    """phi(join S) equals the closure of the union of the phi images.

    Closure is the identity on a finite space, so that is the union itself.
    """
    record = priestley_space_of(lattice)
    elements = list(elements)
    lhs = record.phi_mask(lattice.join_of(elements))
    union = 0
    for a in elements:
        union |= record.phi_mask(a)
    return lhs == union


# -- validators ------------------------------------------------------------------------


@dataclass(slots=True)
class ValidationReport:
    validator: str
    lattice_id: str
    status: str
    witness: dict | None = None
    micros: int = 0
    details: dict | None = None

    @property
    def passed(self):
        return self.status == "pass"

    def as_dict(self):
        doc = {
            "lattice": self.lattice_id,
            "validator": self.validator,
            "status": self.status,
            "micros": self.micros,
        }
        if self.witness is not None:
            doc["witness"] = self.witness
        return doc


def validate(name, lattice, corpus=None, lattice_id=None, proper_coherent_cap=None):
    """Run one named validator; returns a structured report.

    `corpus` supplies the partner lattices for the hom sweep; `lattice` alone
    is used when absent. A validator failure on a corpus lattice indicates an
    implementation bug, never new mathematics.
    """
    if name not in _VALIDATORS:
        raise KeyError(f"unknown validator {name!r}")
    if lattice_id is None:
        lattice_id = lattice_content_id(lattice)
    started = time.perf_counter_ns()
    witness = _VALIDATORS[name](lattice, corpus, proper_coherent_cap)
    micros = (time.perf_counter_ns() - started) // 1000
    return ValidationReport(
        validator=name,
        lattice_id=lattice_id,
        status="pass" if witness is None else "fail",
        witness=witness,
        micros=micros,
    )


def validate_all(lattice, corpus=None, lattice_id=None, proper_coherent_cap=None):
    return [
        validate(name, lattice, corpus, lattice_id, proper_coherent_cap)
        for name in VALIDATOR_NAMES
    ]


def _v_core_chain(lattice, corpus, cap):
    record = priestley_space_of(lattice)
    space = record.space
    for um in clop_upset_masks(space):
        core_m = _core_mask(space, um)
        ker_m = _kernel_mask(space, um)
        if core_m & ~ker_m or ker_m & ~um:
            return {"upset": um, "core": core_m, "kernel": ker_m}
    return None


def _v_compact_characterization(lattice, corpus, cap):
    record = priestley_space_of(lattice)
    space = record.space
    rows = way_below_rows_oracle(lattice)
    for a in range(lattice.size):
        phi_a = record.phi_mask(a)
        s1 = bool((rows[a] >> a) & 1)
        s2 = _kernel_mask(space, phi_a) == phi_a
        s3 = is_scott_upset(space, PointSet(space.points, phi_a))
        if not s1 == s2 == s3:
            return {"element": a, "sides": [s1, s2, s3]}
    frame_compact = bool((rows[lattice.top] >> lattice.top) & 1)
    space_compact = _kernel_mask(space, space.full_mask) == space.full_mask
    if frame_compact != space_compact:
        return {"coda": [frame_compact, space_compact]}
    return None


def _v_algebraic_equivalence(lattice, corpus, cap):
    record = priestley_space_of(lattice)
    space = record.space
    rows = way_below_rows_oracle(lattice)
    compact = 0
    for b in range(lattice.size):
        if (rows[b] >> b) & 1:
            compact |= 1 << b
    frame_side = True
    for a in range(lattice.size):
        lhs = lattice.join_of(bits(compact & lattice.down[a])) == a
        phi_a = record.phi_mask(a)
        rhs = _core_mask(space, phi_a) == phi_a
        if lhs != rhs:
            return {"element": a, "sides": [lhs, rhs]}
        frame_side = frame_side and lhs
    space_side, _ = lspace_predicate_witness(space, "algebraicL")
    if frame_side != space_side:
        return {"global": [frame_side, space_side]}
    return None


def _v_scott_extensions(lattice, corpus, cap):
    record = priestley_space_of(lattice)
    space = record.space
    continuous, _ = lspace_predicate_witness(space, "continuousL")
    if not continuous:
        return None  # premise of the statement
    ups = clop_upset_masks(space)
    scott = clop_scott_upset_masks(space)
    y_mask = spatial_mask(space)
    all_scott_upsets = [
        m for m in ups if is_scott_upset(space, PointSet(space.points, m))
    ]
    for um in ups:
        ker_m = _kernel_mask(space, um)
        core_m = _core_mask(space, um)
        s1 = ker_m == core_m
        s2 = core_m == um
        s3 = all(
            any((v >> y) & 1 and v & ~um == 0 for v in scott)
            for y in bits(um & y_mask)
        )
        s4 = all(
            any(f & ~v == 0 and v & ~um == 0 for v in scott)
            for f in all_scott_upsets
            if f & ~ker_m == 0
        )
        if not s1 == s2 == s3 == s4:
            return {"upset": um, "sides": [s1, s2, s3, s4]}
    return None


def _v_proper_coherent(lattice, corpus, cap):
    if cap is None:
        cap = config.PROPER_COHERENT_IRREDUCIBLE_CAP
    own = len(join_irreducibles(lattice))
    limit = min(own, cap)
    partners = []
    if corpus is None:
        if own <= limit:
            partners = [lattice]
    else:
        partners = [
            m for m in corpus if len(join_irreducibles(m)) <= limit
        ]
    for partner in partners:
        for src, tgt in ((lattice, partner), (partner, lattice)):
            for hom in enumerate_homs(src, tgt, "frameHom"):
                coherent = hom_predicate(hom, "coherentHom")
                proper = hom_predicate(hom, "properHom")
                if coherent != proper:
                    return {
                        "hom": list(hom.image),
                        "direction": "out" if src is lattice else "in",
                        "partner": lattice_content_id(partner),
                        "sides": [coherent, proper],
                    }
    return None


def _v_scott_stable(lattice, corpus, cap):
    record = priestley_space_of(lattice)
    space = record.space
    algebraic, _ = lspace_predicate_witness(space, "algebraicL")
    stable, _ = lspace_predicate_witness(space, "kernelStable")
    scott = set(clop_scott_upset_masks(space))
    closed_under_meets = all(a & b in scott for a in scott for b in scott)
    if (algebraic and stable) != closed_under_meets:
        return {"sides": [algebraic and stable, closed_under_meets]}
    return None


def _point_space_side(space, name):
    _, point_space = spatial_part(space)
    ok, _ = point_space_predicate_witness(point_space, name)
    return ok


def _three_way(lattice, frame_name, space_name, point_name):
    record = priestley_space_of(lattice)
    space = record.space
    s1 = frame_predicate(lattice, frame_name)
    s2, _ = lspace_predicate_witness(space, space_name)
    s3 = _point_space_side(space, point_name)
    if not s1 == s2 == s3:
        return {"sides": [s1, s2, s3]}
    return None


def _spatial_three_way(lattice, frame_name, space_name, point_name):
    """As _three_way, but the point-space side counts only on spatial frames."""
    record = priestley_space_of(lattice)
    space = record.space
    s1 = frame_predicate(lattice, frame_name)
    s2, _ = lspace_predicate_witness(space, space_name)
    if s1 != s2:
        return {"sides": [s1, s2]}
    if frame_predicate(lattice, "spatial"):
        s3 = _point_space_side(space, point_name)
        if s1 != s3:
            return {"sides": [s1, s2, s3]}
    return None


def _v_arithmetic_equivalence(lattice, corpus, cap):
    return _three_way(lattice, "arithmetic", "arithmeticL", "stablyCompactlyBased")


def _v_coherent_equivalence(lattice, corpus, cap):
    return _three_way(lattice, "coherent", "coherentL", "spectral")


def _v_cen_sub_reg(lattice, corpus, cap):
    record = priestley_space_of(lattice)
    space = record.space
    for um in clop_upset_masks(space):
        u = PointSet(space.points, um)
        if center(space, u).mask & ~reg_part(space, u).mask:
            return {"upset": um}
    return None


def _v_stone_collapse(lattice, corpus, cap):
    record = priestley_space_of(lattice)
    space = record.space
    stone, _ = lspace_predicate_witness(space, "stoneL")
    if not stone:
        return None  # statement premise
    if sorted(clop_scott_upset_masks(space)) != sorted(clopen_biset_masks(space)):
        return {"families": "ClopSUp != ClopBi"}
    for um in clop_upset_masks(space):
        u = PointSet(space.points, um)
        if center(space, u).mask != _core_mask(space, um):
            return {"upset": um}
    return None


def _v_zero_dim_equivalence(lattice, corpus, cap):
    return _spatial_three_way(lattice, "zeroDimensional", "zeroDimL", "zeroDimensional")


def _v_stone_equivalence(lattice, corpus, cap):
    return _spatial_three_way(lattice, "stone", "stoneL", "stoneSpace")


_VALIDATORS = {
    "coreChain": _v_core_chain,
    "compactCharacterization": _v_compact_characterization,
    "algebraicEquivalence": _v_algebraic_equivalence,
    "scottExtensions": _v_scott_extensions,
    "properCoherent": _v_proper_coherent,
    "scottStable": _v_scott_stable,
    "arithmeticEquivalence": _v_arithmetic_equivalence,
    "coherentEquivalence": _v_coherent_equivalence,
    "cenSubReg": _v_cen_sub_reg,
    "stoneCollapse": _v_stone_collapse,
    "zeroDimEquivalence": _v_zero_dim_equivalence,
    "stoneEquivalence": _v_stone_equivalence,
}
