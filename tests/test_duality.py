"""Functors, Stone maps, round trips, hom dualization, theorem validators."""

import hashlib
import itertools
import json
from collections import Counter

import pytest
from hypothesis import given, settings

from framelab import (
    ConsistencyError,
    DistributivityError,
    MonotoneMap,
    NotFrameHom,
    Poset,
    enumerate_posets,
)
from framelab import duality, lattices, spaces
from framelab.lattices import (
    FinDLat,
    LatticeHom,
    birkhoff_lattice,
    enumerate_homs,
    join_irreducible_poset,
    join_irreducibles,
    prime_filters,
)
from framelab.duality import (
    VALIDATOR_NAMES,
    dualize_hom,
    lattice_content_id,
    poset_content_id,
    priestley_space_of,
    validate,
    validate_all,
)
from framelab.chains import materialize, parse_chain
from framelab.corpus import gen_corpus
from framelab.posets import bits
from framelab.spaces import clop_upset_masks, spatial_part
from test_lattices import compose_homs, m3, n5
from test_space_references import random_posets, upsets_fit_a_lattice
from test_spaces import compose_space_maps

_B2 = birkhoff_lattice(Poset.antichain(2))


def b2():
    return _B2


def corpus(max_size=3):
    return [
        birkhoff_lattice(p) for n in range(max_size + 1) for p in enumerate_posets(n)
    ]


# -- prime filters and the dual space -----------------------------------------


def test_priestley_space_of_b2():
    record = priestley_space_of(b2())
    # two incomparable points, phi of the atoms are the two singletons
    assert record.space.size == 2
    assert not record.space.leq(0, 1)
    assert not record.space.leq(1, 0)
    atoms = sorted(record.phi[a] for a in (1, 2))
    assert atoms == [0b01, 0b10]
    assert record.phi[0] == 0
    assert record.phi[3] == 0b11


def test_priestley_space_of_chains():
    two = FinDLat.chain(2)
    rec = priestley_space_of(two)
    assert rec.space.size == 1
    assert rec.phi[1] == 1 and rec.phi[0] == 0
    three = FinDLat.chain(3)
    rec3 = priestley_space_of(three)
    assert rec3.space.size == 2
    # prime filters up(1) strictly contains up(2); phi(m) is the top singleton
    assert sorted(rec3.point_filters) == [0b100, 0b110]
    (m_point,) = bits(rec3.phi[1])
    assert rec3.space.up[m_point] == 1 << m_point


def test_prime_filter_oracle_matches_fast_path_everywhere_small():
    for lat in corpus(3):
        # literal scan: proper nonempty upsets, meet closed, prime
        full = lat.full_mask
        scan = []
        for mask in range(1, full):
            members = list(bits(mask))
            outside = list(bits(full & ~mask))
            if (
                all(lat.up[a] & ~mask == 0 for a in members)
                and all((mask >> lat.meet[a][b]) & 1 for a in members for b in members)
                and not any(
                    (mask >> lat.join[a][b]) & 1 for a in outside for b in outside
                )
            ):
                scan.append(mask)
        assert prime_filters(lat) == tuple(scan)
        assert sorted(priestley_space_of(lat).point_filters) == scan


def test_oracle_catches_a_dropped_join_irreducible(monkeypatch):
    # 32 elements: beyond the reach of a subset scan over 2^|L| masks
    lat = birkhoff_lattice(Poset.antichain(5))
    assert lat.size == 32
    monkeypatch.setattr(
        duality, "join_irreducibles", lambda lattice: join_irreducibles(lattice)[:-1]
    )
    with pytest.raises(ConsistencyError):
        priestley_space_of(lat)
    monkeypatch.undo()
    assert priestley_space_of(lat).space.size == 5


@pytest.mark.parametrize("make, witness", [(m3, (1, 2, 3)), (n5, (3, 1, 2))])
def test_non_distributive_input_raises_distributivity_error(make, witness):
    # some join-irreducible of M3 and of N5 is not join-prime, so its
    # principal filter is missing from the prime filters
    for call in (priestley_space_of, validate_all):
        with pytest.raises(DistributivityError) as err:
            call(make())
        assert err.value.witness == witness


def test_dual_of_trivial_lattice_is_empty_space():
    rec = priestley_space_of(birkhoff_lattice(Poset.empty()))
    assert rec.space.size == 0


@pytest.mark.parametrize("n", range(5))
def test_convention_round_trip_on_points(n):
    for p in enumerate_posets(n):
        rec = priestley_space_of(birkhoff_lattice(p))
        assert rec.space.canonical_key() == p.canonical_key()


# -- clopen upset lattice -------------------------------------------------------


def test_clop_up_lattice_examples():
    for points, size in (
        (Poset.antichain(2), 4),
        (Poset.chain(2), 3),
        (Poset.empty(), 1),
    ):
        assert len(clop_upset_masks(points)) == size
        assert birkhoff_lattice(points).size == size


# -- hom dualization ---------------------------------------------------------------


def test_dualize_identity():
    lat = b2()
    f = dualize_hom(LatticeHom.identity(lat))
    assert f.image == tuple(range(f.source.size))


def test_dualize_examples_three_chain():
    three, two = FinDLat.chain(3), FinDLat.chain(2)
    up_m = priestley_space_of(three).point_filters.index(0b110)
    up_1 = priestley_space_of(three).point_filters.index(0b100)
    f = dualize_hom(LatticeHom(three, two, (0, 1, 1)))
    assert f.image == (up_m,)
    g = dualize_hom(LatticeHom(three, two, (0, 0, 1)))
    assert g.image == (up_1,)


def test_dualize_requires_frame_hom():
    with pytest.raises(NotFrameHom):
        dualize_hom(LatticeHom(b2(), FinDLat.chain(2), (0, 1, 1, 1)))


def test_dualize_refuses_a_preimage_that_is_no_prime_filter():
    # flags that call a meet-breaking map a frame hom: the preimage of the
    # 2-chain's one prime filter {1} is {1, 2, 3}, which holds both atoms of
    # B2 but not their meet 0
    h = LatticeHom(b2(), FinDLat.chain(2), (0, 1, 1, 1))
    h.flags = (True, True, True, True)
    with pytest.raises(ConsistencyError, match="prime filter"):
        dualize_hom(h)


def test_functor_laws_small():
    lats = corpus(2)
    for src in lats:
        ident = dualize_hom(LatticeHom.identity(src))
        assert ident.image == tuple(range(ident.source.size))
    for a, b, c in itertools.product(lats, repeat=3):
        for h in enumerate_homs(a, b):
            fh = dualize_hom(h)
            for g in enumerate_homs(b, c):
                fg = dualize_hom(g)
                composite = dualize_hom(compose_homs(g, h))
                chained = compose_space_maps(fh, fg)  # dualization reverses order
                assert composite.image == chained.image


def test_dualization_full_and_injective_small():
    from framelab.posets import monotone_maps

    lats = corpus(4)
    for src in lats:
        for tgt in lats:
            homs = enumerate_homs(src, tgt)
            duals = {dualize_hom(h).image for h in homs}
            assert len(duals) == len(homs)  # injective
            xs = priestley_space_of(src).space
            xt = priestley_space_of(tgt).space
            monos = {m.image for m in monotone_maps(xt, xs)}
            assert duals == monos  # full: every monotone map arises


# -- round trips ------------------------------------------------------------------


def frame_round_trip(lattice):
    """Assert that phi : L -> ClopUp(X_L) is a bounded lattice isomorphism;
    return the phi images."""
    record = priestley_space_of(lattice)
    images = record.phi
    assert sorted(images) == sorted(clop_upset_masks(record.space)), "not onto"
    assert len(set(images)) == lattice.size, "not injective"
    for a, b in itertools.product(range(lattice.size), repeat=2):
        assert images[lattice.join[a][b]] == images[a] | images[b], (a, b)
        assert images[lattice.meet[a][b]] == images[a] & images[b], (a, b)
        assert lattice.leq(a, b) == (images[a] & ~images[b] == 0), (a, b)
    assert images[lattice.bottom] == 0
    assert images[lattice.top] == record.space.full_mask
    return images


def space_round_trip(space):
    """Assert that x -> {clopen upsets containing x} is an order-isomorphism
    onto the dual space of the clopen-upset lattice; return the point images."""
    record = priestley_space_of(birkhoff_lattice(space))
    family = clop_upset_masks(space)
    index = {f: p for p, f in enumerate(record.point_filters)}
    eps = []
    for x in range(space.size):
        x_filter = sum(1 << i for i, u in enumerate(family) if (u >> x) & 1)
        assert x_filter in index, f"point {x}'s filter is not a prime filter"
        eps.append(index[x_filter])
    assert sorted(eps) == list(range(record.space.size)), "not a bijection on points"
    for x, y in itertools.product(range(space.size), repeat=2):
        assert space.leq(x, y) == record.space.leq(eps[x], eps[y]), (x, y)
    return tuple(eps)


@pytest.mark.parametrize("n", range(5))
def test_round_trips(n):
    for p in enumerate_posets(n):
        lat = birkhoff_lattice(p)
        assert len(frame_round_trip(lat)) == lat.size
        assert len(space_round_trip(p)) == p.size


def test_round_trip_examples():
    assert sorted(frame_round_trip(b2())) == [0b00, 0b01, 0b10, 0b11]
    assert sorted(space_round_trip(Poset.chain(2))) == [0, 1]
    assert frame_round_trip(birkhoff_lattice(Poset.empty())) == (0,)


@settings(max_examples=40, deadline=None)
@given(random_posets(9, 10).filter(upsets_fit_a_lattice))
def test_duality_round_trips_on_random_posets(poset):
    # every object is built fresh, so each example fills new memos; wide
    # orders reach lattices of up to 256 elements, the widest a row holds
    lat = birkhoff_lattice(poset)
    assert len(frame_round_trip(lat)) == lat.size
    assert len(space_round_trip(poset)) == poset.size
    assert priestley_space_of(lat).space.canonical_key() == poset.canonical_key()
    again = Poset.from_doc(poset.to_doc())
    assert again.canonical_key() == poset.canonical_key()
    assert poset_content_id(again) == poset_content_id(poset)
    points_again = join_irreducible_poset(FinDLat.from_doc(lat.to_doc()))
    assert points_again.canonical_key() == poset.canonical_key()
    assert poset_content_id(points_again) == poset_content_id(poset)
    # the functor laws on every h: L -> 3-chain and every g: 3-chain -> 2-chain
    three, two = FinDLat.chain(3), FinDLat.chain(2)
    ident = dualize_hom(LatticeHom.identity(lat))
    assert ident == MonotoneMap.identity(ident.source)
    gs = enumerate_homs(three, two)
    duals = [dualize_hom(g) for g in gs]
    for h in enumerate_homs(lat, three):
        fh = dualize_hom(h)
        for g, fg in zip(gs, duals):
            composite = dualize_hom(compose_homs(g, h))
            assert composite.image == compose_space_maps(fh, fg).image


@settings(max_examples=15, deadline=None)
@given(random_posets(3, 5), random_posets(3, 5))
def test_functor_laws_across_two_random_lattices(p, q):
    # dualize_hom(g∘h) == dualize_hom(h)∘dualize_hom(g) for every h: L -> M
    # and every g: M -> N, with N the 3-chain
    lat_l, lat_m = birkhoff_lattice(p), birkhoff_lattice(q)
    gs = [(g, dualize_hom(g)) for g in enumerate_homs(lat_m, FinDLat.chain(3))]
    for h in enumerate_homs(lat_l, lat_m):
        fh = dualize_hom(h)
        for g, fg in gs:
            composite = dualize_hom(compose_homs(g, h))
            assert composite.image == compose_space_maps(fh, fg).image


# -- phi join law ---------------------------------------------------------------------


def phi_join_law(lattice, elements):
    """phi(join S) equals the closure of the union of the phi images.

    Closure is the identity on a finite space, so that is the union itself.
    """
    phi = priestley_space_of(lattice).phi
    union = 0
    for a in elements:
        union |= phi[a]
    return phi[lattice.join_of(elements)] == union


def test_phi_join_law_examples():
    lat = b2()
    assert phi_join_law(lat, [])
    assert phi_join_law(lat, [1, 2])
    assert phi_join_law(lat, range(lat.size))


def test_phi_join_law_exhaustive_small():
    for lat in corpus(3):
        if lat.size > 10:
            continue
        for mask in range(1 << lat.size):
            assert phi_join_law(lat, bits(mask))


# -- validators -------------------------------------------------------------------------


def test_validator_names_are_complete():
    assert len(VALIDATOR_NAMES) == 12


@pytest.mark.parametrize("name", VALIDATOR_NAMES)
def test_validators_pass_on_small_corpus(name):
    pool = corpus(3)
    for lat in pool:
        report = validate(name, lat, corpus=pool)
        assert report.passed, (name, report.witness)
        assert report.validator == name
        assert report.micros >= 0


def test_proper_coherent_reports_a_disagreement(monkeypatch):
    # coherentHom reads compact_elements; properHom reads the way-below rows
    original = lattices.compact_elements
    monkeypatch.setattr(
        lattices,
        "compact_elements",
        lambda lat: [a for a in original(lat) if a != lat.top],
    )
    report = validate("properCoherent", FinDLat.chain(3))
    assert report.status == "fail"
    assert report.witness["sides"] == [False, True]


def _zeros(space):
    return (0,) * len(clop_upset_masks(space))


def _no_scott_upsets(space):
    return ()


# (validator, lattice, the name it reads in duality, its stand-in, witness):
# each stand-in breaks one side of the statement, so the first instance
# whose sides differ is the witness
_BROKEN_SIDES = [
    ("coreChain", "3-chain", "_kernel_table", _zeros,
     {"upset": 1, "sides": [True, False, True]}),
    ("compactCharacterization", "3-chain", "clop_scott_upset_masks", _no_scott_upsets,
     {"element": 0, "sides": [True, True, False]}),
    ("algebraicEquivalence", "3-chain", "_core_table", _zeros,
     {"element": 1, "sides": [True, False]}),
    ("scottExtensions", "3-chain", "clop_scott_upset_masks", _no_scott_upsets,
     {"upset": 1, "sides": [True, True, False, True]}),
    ("scottStable", "B2", "clop_scott_upset_masks", lambda space: (0b01, 0b10),
     {"sides": [True, False]}),
    ("arithmeticEquivalence", "3-chain", "frame_predicate", lambda lat, name: False,
     {"sides": [False, True, True]}),
    ("arithmeticEquivalence", "3-chain", "point_space_predicate_witness",
     lambda space, name: (False, None), {"sides": [True, True, False]}),
    ("coherentEquivalence", "3-chain", "frame_predicate", lambda lat, name: False,
     {"sides": [False, True, True]}),
    ("zeroDimEquivalence", "B2", "frame_predicate", lambda lat, name: name == "spatial",
     {"sides": [False, True, True]}),
    ("stoneEquivalence", "B2", "frame_predicate", lambda lat, name: name == "spatial",
     {"sides": [False, True, True]}),
    # a frame that is not spatial has no point-space side
    ("stoneEquivalence", "B2", "frame_predicate", lambda lat, name: False,
     {"sides": [False, True]}),
    ("cenSubReg", "B2", "_reg_table", _zeros, {"upset": 1, "sides": [True, False]}),
    ("stoneCollapse", "B2", "clopen_biset_masks", lambda space: (),
     {"families": ["ClopSUp", "ClopBi"], "sides": [[0, 1, 2, 3], []]}),
    ("stoneCollapse", "B2", "_center_table", _zeros, {"upset": 1, "sides": [0, 1]}),
]

_LATTICES = {"3-chain": FinDLat.chain(3), "B2": _B2}


@pytest.mark.parametrize(
    "name, lattice, patched, stand_in, witness",
    _BROKEN_SIDES,
    ids=[f"{row[0]}-{row[2]}" for row in _BROKEN_SIDES],
)
def test_a_statement_fails_at_its_first_instance_with_differing_sides(
    monkeypatch, name, lattice, patched, stand_in, witness
):
    monkeypatch.setattr(duality, patched, stand_in)
    report = validate(name, _LATTICES[lattice], lattice_id="x")
    assert report.status == "fail"
    assert report.witness == witness
    assert report.as_dict()["witness"] == witness


@pytest.mark.parametrize(
    "name, lattice, patched, stand_in",
    [
        ("scottExtensions", "3-chain", "clop_scott_upset_masks", _no_scott_upsets),
        ("stoneCollapse", "B2", "_center_table", _zeros),
    ],
)
def test_a_statement_with_a_false_premise_passes(
    monkeypatch, name, lattice, patched, stand_in
):
    # the stand-in fails the statement above, but not under a false premise
    monkeypatch.setattr(duality, patched, stand_in)
    assert validate(name, _LATTICES[lattice], lattice_id="x").status == "fail"
    monkeypatch.setattr(duality, "lspace_predicate_witness", lambda space, name: (False, None))
    assert validate(name, _LATTICES[lattice], lattice_id="x").passed


def test_validate_all_passes_on_the_18_element_chain():
    # its dual space is the 17-point chain, whose 18 upsets fit a lattice
    reports = validate_all(materialize(parse_chain("fin:16")))
    assert len(reports) == len(VALIDATOR_NAMES)
    assert all(r.passed for r in reports), [r for r in reports if not r.passed]


def test_validate_all_evaluates_each_predicate_once(monkeypatch):
    calls = Counter()
    frame_body = lattices._frame_predicate_witness
    point_body = spaces._point_space_predicate_witness

    def count_frame(lat, name):
        calls[lat, name] += 1
        return frame_body(lat, name)

    def count_point(point_space, name):
        calls[point_space, name] += 1
        return point_body(point_space, name)

    monkeypatch.setattr(lattices, "_frame_predicate_witness", count_frame)
    monkeypatch.setattr(spaces, "_point_space_predicate_witness", count_point)
    lat = birkhoff_lattice(Poset.antichain(6))
    assert all(r.passed for r in validate_all(lat))
    names = {name for _, name in calls}
    # every frame and point-space side of the four three-way validators ran
    assert {"arithmetic", "coherent", "spatial", "stone", "stoneSpace",
            "spectral", "zeroDimensional"} <= names
    assert max(calls.values()) == 1, calls.most_common(3)
    space = priestley_space_of(lat).space
    assert spatial_part(space) is spatial_part(space)


def test_validate_all_computes_the_content_id_once(monkeypatch):
    calls = Counter()
    original = duality.poset_content_id

    def counting(poset):
        calls["id"] += 1
        return original(poset)

    monkeypatch.setattr(duality, "poset_content_id", counting)
    lat = birkhoff_lattice(Poset.antichain(2))
    reports = validate_all(lat)
    assert calls["id"] == 1
    with_id = validate_all(lat, lattice_id=reports[0].lattice_id)
    assert calls["id"] == 1
    assert [r.as_dict() | {"micros": 0} for r in with_id] == [
        r.as_dict() | {"micros": 0} for r in reports
    ]


def test_validate_all_returns_every_validator():
    reports = validate_all(FinDLat.chain(3))
    assert [r.validator for r in reports] == list(VALIDATOR_NAMES)
    assert all(r.passed for r in reports)


def test_validate_unknown_name():
    with pytest.raises(KeyError):
        validate("fermat", FinDLat.chain(2))


def test_report_structure():
    report = validate("coreChain", b2(), lattice_id="abc")
    doc = report.as_dict()
    assert doc["lattice"] == "abc"
    assert doc["validator"] == "coreChain"
    assert doc["status"] == "pass"
    assert "witness" not in doc


def test_content_ids_stable_and_distinct():
    a = lattice_content_id(b2())
    assert a == lattice_content_id(birkhoff_lattice(Poset.antichain(2)))
    assert a != lattice_content_id(FinDLat.chain(3))


def test_lattice_content_id_is_the_entry_id_on_the_corpus():
    # entry ids hash the poset; lattice_content_id recovers it from J(L)
    entries = gen_corpus(5).entries
    assert len(entries) == 88
    for entry in entries:
        assert lattice_content_id(entry.lattice) == entry.entry_id


def _report_digest(corpus, partners):
    rows = [
        [r.lattice_id, r.validator, r.status, r.witness]
        for entry in corpus.entries
        for r in validate_all(entry.lattice, partners, lattice_id=entry.entry_id)
    ]
    payload = json.dumps(rows, sort_keys=True, separators=(",", ":")).encode()
    return len(rows), hashlib.sha256(payload).hexdigest()


def test_every_sweep_report_is_pinned():
    # every report apart from `micros`: the n=6 sweep without hom partners
    # and the n=5 sweep with the corpus as partners, so a change that moves
    # any status or witness is seen here
    six = gen_corpus(6)
    assert _report_digest(six, None) == (
        4872, "6b9d87a4ba11e8d52507ba6b8ef939b9249ccf61e45e0b4b93c149a0e86a8bec"
    )
    five = gen_corpus(5)
    assert _report_digest(five, five.lattices()) == (
        1056, "ee24b32072950c5a148efeb4409961a0dffe4386c68ae951a87a7b9ba5b293ab"
    )
