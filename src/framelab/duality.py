"""The two functors between finite lattices and finite Priestley spaces.

A lattice goes to its space of prime filters ordered by inclusion, carried by
the assignment phi(a) = {points containing a}; a space goes to its lattice of
clopen upsets. A finite space is the `Poset` of its points, and a frame hom
dualizes to a `MonotoneMap`. The dual space is built by the fast path
through join irreducibles and checked, on every lattice, against the prime
filters that `lattices.prime_filters` reads off the ideals without
consulting join irreducibles. Round trips, hom dualization with its functor laws, and one
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
    compact_elements,
    enumerate_homs,
    frame_predicate,
    hom_predicate,
    join_irreducible_poset,
    join_irreducibles,
    prime_filters,
    way_below_rows_oracle,
)
from .posets import MonotoneMap, bits, cached
from .spaces import (
    _center_table,
    _core_table,
    _kernel_table,
    _reg_table,
    _upset_index,
    clop_scott_upset_masks,
    clop_upset_masks,
    clopen_biset_masks,
    lspace_predicate_witness,
    point_space_predicate_witness,
    spatial_mask,
    spatial_part,
)


@dataclass(frozen=True, slots=True)
class StoneMapRecord:
    """A lattice, its dual space, and the connecting assignment.

    space is `join_irreducible_poset(lattice)`, the poset of points; phi[a]
    is the mask of the clopen upset of points whose filter contains a;
    point_filters[p] is the mask of lattice elements in point p's filter.
    """

    lattice: FinDLat
    space: Poset
    phi: tuple
    point_filters: tuple


def poset_content_id(poset):
    """Stable content hash of the canonical poset serialization."""
    doc = poset.canonical().to_doc()
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return sha256(payload).hexdigest()[:12]


def lattice_content_id(lattice):
    """`poset_content_id` of the join-irreducible poset, so of P for
    birkhoff_lattice(P); of the carrier order when L is not distributive."""
    if lattice.is_distributive():
        return poset_content_id(join_irreducible_poset(lattice))
    return poset_content_id(lattice.carrier_poset())


# -- the dual space ------------------------------------------------------------


@cached
def priestley_space_of(lattice):
    """Dual space with its Stone map, cached on the lattice.

    Fast path: the points are `join_irreducible_poset(lattice)`, each
    carrying its principal filter, so p <= q iff that filter of p lies inside
    that of q, and φ(a) = {p : j_p <= a}, set one bit of a filter at a time.
    On every lattice the prime filters of `lattices.prime_filters`, read off
    the ideals without consulting join irreducibles, must produce the same
    space up to the unique filter-preserving bijection, φ included. The
    filter sets differ exactly when some join-irreducible is not join-prime,
    that is when L is not distributive, which raises DistributivityError
    with its witness triple; any other mismatch raises ConsistencyError.
    """
    points = join_irreducible_poset(lattice)
    filters = tuple(lattice.up[j] for j in join_irreducibles(lattice))
    phi = [0] * lattice.size
    for p, f in enumerate(filters):
        bit = 1 << p
        for a in bits(f):
            phi[a] |= bit
    record = StoneMapRecord(lattice, points, tuple(phi), filters)
    _check_against_oracle(record, prime_filters(lattice))
    return record


def _check_against_oracle(record, oracle_filters):
    lattice = record.lattice
    if tuple(sorted(record.point_filters)) != oracle_filters:
        lattice.require_distributive()
        raise ConsistencyError(
            "join-irreducible principal filters differ from the enumerated prime filters"
        )
    # the matching bijection is by literal filter equality; check it carries
    # the order (inclusion on both sides) row by row, and the Stone map
    index = {f: p for p, f in enumerate(record.point_filters)}
    up = record.space.up
    oracle_phi = [0] * lattice.size
    for fa in oracle_filters:
        row = 0
        for fb in oracle_filters:
            if not fa & ~fb:
                row |= 1 << index[fb]
        point = index[fa]
        if row != up[point]:
            raise ConsistencyError("oracle and fast-path point orders disagree")
        for a in bits(fa):
            oracle_phi[a] |= 1 << point
    if tuple(oracle_phi) != record.phi:
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
    return MonotoneMap(rec_tgt.space, rec_src.space, images)


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
    images = [record.phi[a] for a in range(lattice.size)]
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
    lattice = birkhoff_lattice(space)
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
            if space.leq(x, y) != record.space.leq(eps[x], eps[y]):
                raise IsoFailure("the unit breaks the order", witness=(x, y))
    return RoundTripReport("space", space.size, tuple(eps))


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


def validate(name, lattice, corpus=None, lattice_id=None):
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
    # every validator takes (lattice, corpus, cap); only properCoherent reads the cap
    witness = _VALIDATORS[name](lattice, corpus, config.PROPER_COHERENT_IRREDUCIBLE_CAP)
    micros = (time.perf_counter_ns() - started) // 1000
    return ValidationReport(
        validator=name,
        lattice_id=lattice_id,
        status="pass" if witness is None else "fail",
        witness=witness,
        micros=micros,
    )


def validate_all(lattice, corpus=None, lattice_id=None):
    """Every validator's report; the content id is computed once if not given."""
    if lattice_id is None:
        lattice_id = lattice_content_id(lattice)
    return [validate(name, lattice, corpus, lattice_id) for name in VALIDATOR_NAMES]


def _v_core_chain(lattice, corpus, cap):
    record = priestley_space_of(lattice)
    space = record.space
    ups = clop_upset_masks(space)
    for um, core_m, ker_m in zip(ups, _core_table(space), _kernel_table(space)):
        if core_m & ~ker_m or ker_m & ~um:
            return {"upset": um, "core": core_m, "kernel": ker_m}
    return None


def _v_compact_characterization(lattice, corpus, cap):
    record = priestley_space_of(lattice)
    space = record.space
    rows = way_below_rows_oracle(lattice)
    scott = clop_scott_upset_masks(space)
    ker, index = _kernel_table(space), _upset_index(space)
    for a in range(lattice.size):
        phi_a = record.phi[a]
        s1 = bool((rows[a] >> a) & 1)
        s2 = ker[index[phi_a]] == phi_a
        s3 = phi_a in scott
        if not s1 == s2 == s3:
            return {"element": a, "sides": [s1, s2, s3]}
    frame_compact = frame_predicate(lattice, "compactFrame")
    space_compact, _ = lspace_predicate_witness(space, "lCompact")
    if frame_compact != space_compact:
        return {"coda": [frame_compact, space_compact]}
    return None


def _v_algebraic_equivalence(lattice, corpus, cap):
    record = priestley_space_of(lattice)
    space = record.space
    compact = sum(1 << b for b in compact_elements(lattice))
    core, index = _core_table(space), _upset_index(space)
    frame_side = True
    for a in range(lattice.size):
        lhs = lattice.join_of(bits(compact & lattice.down[a])) == a
        phi_a = record.phi[a]
        rhs = core[index[phi_a]] == phi_a
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
    for um, ker_m, core_m in zip(ups, _kernel_table(space), _core_table(space)):
        inside = [v for v in scott if v & ~um == 0]
        covered = 0
        for v in inside:
            covered |= v
        s1 = ker_m == core_m
        s2 = core_m == um
        # every spatial point of U lies in a Scott upset inside U
        s3 = um & y_mask & ~covered == 0
        # an f inside U is its own v, so `inside` is scanned only for the rest
        s4 = all(
            f & ~um == 0 or any(f & ~v == 0 for v in inside)
            for f in scott if f & ~ker_m == 0
        )
        if not s1 == s2 == s3 == s4:
            return {"upset": um, "sides": [s1, s2, s3, s4]}
    return None


def _v_proper_coherent(lattice, corpus, cap):
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
        pairs = [(lattice, partner)]
        if partner is not lattice:
            pairs.append((partner, lattice))
        for src, tgt in pairs:
            for hom in enumerate_homs(src, tgt):
                coherent = hom.is_coherent
                proper = hom.is_proper
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
    closed_under_meets = all(scott.issuperset(map(a.__and__, scott)) for a in scott)
    if (algebraic and stable) != closed_under_meets:
        return {"sides": [algebraic and stable, closed_under_meets]}
    return None


def _point_space_side(space, name):
    ok, _ = point_space_predicate_witness(spatial_part(space), name)
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
    ups = clop_upset_masks(space)
    for um, cen_m, reg_m in zip(ups, _center_table(space), _reg_table(space)):
        if cen_m & ~reg_m:
            return {"upset": um}
    frame_regular = frame_predicate(lattice, "regular")
    space_regular, _ = lspace_predicate_witness(space, "regularL")
    if frame_regular != space_regular:
        return {"coda": [frame_regular, space_regular]}
    return None


def _v_stone_collapse(lattice, corpus, cap):
    record = priestley_space_of(lattice)
    space = record.space
    stone, _ = lspace_predicate_witness(space, "stoneL")
    if not stone:
        return None  # statement premise
    if sorted(clop_scott_upset_masks(space)) != sorted(clopen_biset_masks(space)):
        return {"families": "ClopSUp != ClopBi"}
    ups = clop_upset_masks(space)
    for um, cen_m, core_m in zip(ups, _center_table(space), _core_table(space)):
        if cen_m != core_m:
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

VALIDATOR_NAMES = tuple(_VALIDATORS)
