"""The two functors between finite lattices and finite Priestley spaces.

A lattice goes to its space of prime filters ordered by inclusion, carried by
the assignment phi(a) = {points containing a}; a space goes to its lattice of
clopen upsets. A finite space is the `Poset` of its points, and a frame hom
dualizes to a `MonotoneMap`. The dual space is built by the fast path
through join irreducibles and checked, on every lattice, against the prime
filters that `lattices.prime_filters` reads off the ideals without
consulting join irreducibles. Hom dualization and one named validator per
characterization statement live here.

Validators re-derive every side from the definitional operations (the ideal
oracle for way-below, the literal space operators); they never consult the
finite-collapse fast paths, so a bug in a fast path cannot mask a theorem
failure.

Eleven validators are bodies of one statement loop, `_statement`, which
stops at the first instance whose sides differ. `properCoherent` keeps its
own loop: it runs once per hom, tens of thousands of times per sweep,
unpacks the coherentHom and properHom flags that were fixed when the hom
was built, and computes the partner's content id only on failure.
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
from .errors import ConsistencyError, NotFrameHom
from .lattices import (
    _compact_joins,
    enumerate_homs,
    frame_predicate,
    hom_predicate,
    join_irreducible_poset,
    join_irreducibles,
    prime_filters,
    way_below_rows_oracle,
)
from .posets import AND, MonotoneMap, bits, cached, transpose, unclosed_rows
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
    record = StoneMapRecord(lattice, points, transpose(filters, lattice.size), filters)
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


def _statement(body):
    """The validator, (lattice, corpus, cap) -> witness | None, of a body that
    yields (key, value, sides) per instance, with key None on an instance
    that is the whole lattice. The first instance whose sides are not all
    equal fails, with {key: value, "sides": sides} as the witness (no key
    entry when key is None); the dict is built for that instance only. A
    body that returns before its first yield, as on a false premise, passes."""

    def validator(lattice, corpus, cap):
        for key, value, sides in body(lattice):
            if sides.count(sides[0]) != len(sides):
                witness = {} if key is None else {key: value}
                witness["sides"] = list(sides)
                return witness
        return None

    return validator


@_statement
def _v_core_chain(lattice):
    # core U ⊆ ker U ⊆ U, each inclusion a side against a constant True
    space = priestley_space_of(lattice).space
    ups = clop_upset_masks(space)
    for um, core_m, ker_m in zip(ups, _core_table(space), _kernel_table(space)):
        yield "upset", um, (True, not core_m & ~ker_m, not ker_m & ~um)


@_statement
def _v_compact_characterization(lattice):
    record = priestley_space_of(lattice)
    space = record.space
    rows = way_below_rows_oracle(lattice)
    scott = set(clop_scott_upset_masks(space))
    ker, index = _kernel_table(space), _upset_index(space)
    for a, phi_a in enumerate(record.phi):
        yield "element", a, (bool(rows[a] >> a & 1), ker[index[phi_a]] == phi_a, phi_a in scott)
    frame_compact = frame_predicate(lattice, "compactFrame")
    yield None, None, (frame_compact, lspace_predicate_witness(space, "lCompact")[0])


@_statement
def _v_algebraic_equivalence(lattice):
    record = priestley_space_of(lattice)
    space = record.space
    joins = _compact_joins(lattice)
    core, index = _core_table(space), _upset_index(space)
    frame_side = True
    for a, phi_a in enumerate(record.phi):
        lhs = joins[a] == a
        yield "element", a, (lhs, core[index[phi_a]] == phi_a)
        frame_side = frame_side and lhs
    yield None, None, (frame_side, lspace_predicate_witness(space, "algebraicL")[0])


@_statement
def _v_scott_extensions(lattice):
    space = priestley_space_of(lattice).space
    if not lspace_predicate_witness(space, "continuousL")[0]:
        return  # the statement's premise
    ups = clop_upset_masks(space)
    scott = clop_scott_upset_masks(space)
    y_mask = spatial_mask(space)
    for um, ker_m, core_m in zip(ups, _kernel_table(space), _core_table(space)):
        # s3: every spatial point of U lies in a Scott upset inside U; s4:
        # every Scott upset f inside ker U lies in a Scott upset v ⊆ U, that
        # is f ⊆ U (then f is its own v, and a v ⊆ U holds no f ⊄ U)
        covered, s4 = 0, True
        for v in scott:
            if v | um == um:
                covered |= v
            elif v | ker_m == ker_m:
                s4 = False
        s3 = um & y_mask & ~covered == 0
        yield "upset", um, (ker_m == core_m, core_m == um, s3, s4)


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
                _, _, coherent, proper = hom.flags
                if coherent != proper:
                    return {
                        "hom": list(hom.image),
                        "direction": "out" if src is lattice else "in",
                        "partner": lattice_content_id(partner),
                        "sides": [coherent, proper],
                    }
    return None


@_statement
def _v_scott_stable(lattice):
    space = priestley_space_of(lattice).space
    algebraic, _ = lspace_predicate_witness(space, "algebraicL")
    stable, _ = lspace_predicate_witness(space, "kernelStable")
    # a ∧ b = b ∧ a and a ∧ a = a, so each unordered pair is met once
    closed_under_meets = next(unclosed_rows(clop_scott_upset_masks(space), (AND,)), None) is None
    yield None, None, (algebraic and stable, closed_under_meets)


def _three_way(frame_name, space_name, point_name, spatial_only=False):
    """The body of a statement that a frame predicate, an L-space predicate and
    a point-space predicate of the spatial part agree; with `spatial_only`,
    the point-space side counts only on spatial frames."""

    def body(lattice):
        space = priestley_space_of(lattice).space
        sides = [frame_predicate(lattice, frame_name)]
        sides.append(lspace_predicate_witness(space, space_name)[0])
        if not spatial_only or frame_predicate(lattice, "spatial"):
            sides.append(point_space_predicate_witness(spatial_part(space), point_name)[0])
        yield None, None, sides

    return body


_v_arithmetic_equivalence = _statement(
    _three_way("arithmetic", "arithmeticL", "stablyCompactlyBased")
)
_v_coherent_equivalence = _statement(_three_way("coherent", "coherentL", "spectral"))


@_statement
def _v_cen_sub_reg(lattice):
    # cen U ⊆ reg U, a side against a constant True, then the regular coda
    space = priestley_space_of(lattice).space
    ups = clop_upset_masks(space)
    for um, cen_m, reg_m in zip(ups, _center_table(space), _reg_table(space)):
        yield "upset", um, (True, not cen_m & ~reg_m)
    frame_regular = frame_predicate(lattice, "regular")
    yield None, None, (frame_regular, lspace_predicate_witness(space, "regularL")[0])


@_statement
def _v_stone_collapse(lattice):
    space = priestley_space_of(lattice).space
    if not lspace_predicate_witness(space, "stoneL")[0]:
        return  # the statement's premise
    families = sorted(clop_scott_upset_masks(space)), sorted(clopen_biset_masks(space))
    yield "families", ["ClopSUp", "ClopBi"], families
    ups = clop_upset_masks(space)
    for um, cen_m, core_m in zip(ups, _center_table(space), _core_table(space)):
        yield "upset", um, (cen_m, core_m)


_v_zero_dim_equivalence = _statement(
    _three_way("zeroDimensional", "zeroDimL", "zeroDimensional", spatial_only=True)
)
_v_stone_equivalence = _statement(_three_way("stone", "stoneL", "stoneSpace", spatial_only=True))


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
