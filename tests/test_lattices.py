"""Lattice-side operators: Birkhoff construction, way-below, predicates, homs."""

import gc
import itertools

import pytest

from framelab import (
    CapacityError,
    ConsistencyError,
    DistributivityError,
    NotLatticeError,
    Poset,
    UnknownPredicate,
    enumerate_posets,
    isomorphic,
)
from framelab.lattices import (
    FinDLat,
    LatticeHom,
    _closure_family,
    all_filters,
    all_ideals,
    birkhoff_lattice,
    compact_elements,
    complemented_elements,
    compose_homs,
    enumerate_homs,
    frame_predicate,
    frame_predicate_witness,
    hom_predicate,
    is_boolean,
    join_irreducible_poset,
    join_irreducibles,
    prime_filters,
    pseudocomplement,
    way_below,
    way_below_fast,
    way_below_rows_oracle,
    well_inside,
)
from framelab.posets import bits, iter_monotone_image_tuples


def b2():
    """Boolean diamond: upsets of the 2-antichain. 0 < a, b < 1."""
    return birkhoff_lattice(Poset.antichain(2))


def corpus_lattices(max_size=4):
    return [
        birkhoff_lattice(p) for n in range(max_size + 1) for p in enumerate_posets(n)
    ]


# -- independent brute-force oracles (subset filtering) -----------------------


def ideals_brute(lat):
    out = []
    for mask in range(1, 1 << lat.size):
        members = list(bits(mask))
        if any(lat.down[i] & ~mask for i in members):
            continue
        if any(
            not (mask >> lat.join[a][b]) & 1 for a in members for b in members
        ):
            continue
        out.append(mask)
    return sorted(out)


def filters_brute(lat):
    out = []
    for mask in range(1, 1 << lat.size):
        members = list(bits(mask))
        if any(lat.up[i] & ~mask for i in members):
            continue
        if any(
            not (mask >> lat.meet[a][b]) & 1 for a in members for b in members
        ):
            continue
        out.append(mask)
    return sorted(out)


def way_below_brute(lat, a, b):
    return all(
        (ideal >> a) & 1
        for ideal in ideals_brute(lat)
        if lat.leq(b, lat.join_of(bits(ideal)))
    )


# -- Birkhoff construction -----------------------------------------------------


def test_birkhoff_examples():
    assert b2().size == 4
    three = birkhoff_lattice(Poset.chain(2))
    assert three.size == 3
    assert three.up == Poset.chain(3).up
    trivial = birkhoff_lattice(Poset.empty())
    assert trivial.size == 1 and trivial.bottom == trivial.top


def test_birkhoff_join_meet_are_union_intersection():
    lat = birkhoff_lattice(Poset.from_covers([(0, 1), (0, 2)], 3))
    for i, mi in enumerate(lat.element_upsets):
        for j, mj in enumerate(lat.element_upsets):
            assert lat.element_upsets[lat.join[i][j]] == mi | mj
            assert lat.element_upsets[lat.meet[i][j]] == mi & mj


@pytest.mark.parametrize("lat", corpus_lattices(), ids=lambda l: f"m{l.size}")
def test_birkhoff_is_distributive_and_recovers_points(lat):
    assert lat.is_distributive()
    assert isomorphic(join_irreducible_poset(lat), lat.base_poset)


def test_birkhoff_capacity():
    cached = Poset.antichain(6)
    birkhoff_lattice(cached)  # a default call fills the poset's upset cache
    for p in (Poset.antichain(6), cached):
        with pytest.raises(CapacityError):
            birkhoff_lattice(p, family_bound=32)


# -- explicit construction and the distributivity error path -------------------


def m3():
    # 0 below three incomparable atoms a,b,c below 1
    pairs = [(0, i) for i in range(5)] + [(i, 4) for i in range(5)]
    return FinDLat.from_leq_pairs(5, pairs)


def n5():
    # 0 < a < c < 1 and 0 < b < 1 with b incomparable to a, c
    pairs = [(0, 1), (0, 2), (0, 3), (1, 3), (1, 4), (2, 4), (3, 4), (0, 4)]
    return FinDLat.from_leq_pairs(5, pairs)


def test_non_distributive_input_is_constructible_then_rejected():
    for lat in (m3(), n5()):
        assert not lat.is_distributive()
        with pytest.raises(DistributivityError) as err:
            lat.require_distributive()
        a, b, c = err.value.witness
        lhs = lat.meet[a][lat.join[b][c]]
        rhs = lat.join[lat.meet[a][b]][lat.meet[a][c]]
        assert lhs != rhs


def test_pseudocomplement_consistency_guard_fires_on_m3():
    with pytest.raises(ConsistencyError):
        pseudocomplement(m3(), 1)


def test_not_a_lattice_is_rejected():
    # two maximal elements: no join
    with pytest.raises(NotLatticeError):
        FinDLat.from_leq_pairs(3, [(0, 1), (0, 2)])
    with pytest.raises(NotLatticeError):
        FinDLat.from_leq_pairs(2, [])


def test_declared_bounds_are_checked():
    with pytest.raises(NotLatticeError):
        FinDLat.from_leq_pairs(2, [(0, 1)], bottom=1)


# -- join irreducibles ----------------------------------------------------------


def test_join_irreducibles_examples():
    lat = b2()
    # elements: 0=empty, 1={p}, 2={q}, 3=all; irreducibles are the singletons
    assert join_irreducibles(lat) == [1, 2]
    assert join_irreducibles(FinDLat.chain(3)) == [1, 2]
    assert join_irreducibles(FinDLat.chain(2)) == [1]


@pytest.mark.parametrize("lat", corpus_lattices(), ids=lambda l: f"m{l.size}")
def test_join_irreducibles_have_unique_lower_cover(lat):
    carrier = lat.carrier_poset()
    expected = [
        j for j in range(lat.size) if len(carrier.lower_covers(j)) == 1
    ]
    assert join_irreducibles(lat) == expected


# -- ideals, filters, way below ---------------------------------------------------


def _closure_case_id(lat):
    # lattices of 4-point posets get their own prefix, so the ids of the
    # smaller cases do not depend on how many larger ones there are
    prefix = "n4-" if lat.base_poset.size == 4 else ""
    return f"{prefix}m{lat.size}"


@pytest.mark.parametrize("lat", corpus_lattices(4), ids=_closure_case_id)
def test_ideal_and_filter_enumeration_matches_bruteforce(lat):
    assert all_ideals(lat) == ideals_brute(lat)
    assert all_filters(lat) == filters_brute(lat)


def test_bruteforce_check_catches_an_ideal_step_over_up_rows():
    # mutant: the ideal step ORs `up` rows where it should OR `down` rows
    assert any(
        _closure_family(lat, lat.down[lat.bottom], lat.join, lat.up)
        != ideals_brute(lat)
        for lat in corpus_lattices(4)
    )


def test_ideals_of_b2():
    lat = b2()
    assert all_ideals(lat) == sorted(
        [0b0001, 0b0011, 0b0101, 0b1111]
    )


def test_way_below_examples():
    lat = b2()
    assert way_below_brute(lat, 1, 3)  # independent oracle
    assert way_below(lat, 1, 3)
    three = FinDLat.chain(3)
    assert not way_below(three, 2, 1)  # way-below implies leq
    for lat in (b2(), three):
        for b in range(lat.size):
            assert way_below(lat, lat.bottom, b)


@pytest.mark.parametrize("lat", corpus_lattices(3), ids=lambda l: f"m{l.size}")
def test_way_below_oracle_equals_bruteforce_and_fast_path(lat):
    rows = way_below_rows_oracle(lat)
    for a in range(lat.size):
        for b in range(lat.size):
            expected = way_below_brute(lat, a, b)
            assert bool((rows[a] >> b) & 1) == expected
            assert way_below_fast(lat, a, b) == expected


@pytest.mark.parametrize("lat", corpus_lattices(), ids=lambda l: f"m{l.size}")
def test_compact_elements_are_the_full_carrier(lat):
    assert compact_elements(lat) == list(range(lat.size))


def test_prime_filters_match_subset_filtering():
    for lat in corpus_lattices(3):
        brute = sorted(
            mask
            for mask in filters_brute(lat)
            if mask != lat.full_mask
            and all(
                not (mask >> lat.join[a][b]) & 1
                for a in bits(lat.full_mask & ~mask)
                for b in bits(lat.full_mask & ~mask)
            )
        )
        assert prime_filters(lat) == brute


# -- pseudocomplement, well inside, complemented ----------------------------------


def test_pseudocomplement_examples():
    lat = b2()
    assert pseudocomplement(lat, 1) == 2
    three = FinDLat.chain(3)
    assert pseudocomplement(three, 1) == 0
    for lat in (b2(), three):
        assert pseudocomplement(lat, lat.bottom) == lat.top


def test_well_inside_examples():
    lat = b2()
    assert well_inside(lat, 1, 1)
    three = FinDLat.chain(3)
    assert not well_inside(three, 1, 1)
    for lat in (b2(), three):
        for b in range(lat.size):
            assert well_inside(lat, lat.bottom, b)


def test_complemented_elements_examples():
    assert complemented_elements(b2()) == [0, 1, 2, 3]
    assert complemented_elements(FinDLat.chain(3)) == [0, 2]
    assert complemented_elements(FinDLat.chain(2)) == [0, 1]


@pytest.mark.parametrize("lat", corpus_lattices(), ids=lambda l: f"m{l.size}")
def test_well_inside_implies_way_below(lat):
    rows = way_below_rows_oracle(lat)
    for a in range(lat.size):
        for b in range(lat.size):
            if well_inside(lat, a, b):
                assert (rows[a] >> b) & 1


# -- frame predicates ---------------------------------------------------------------


def test_frame_predicate_examples():
    assert frame_predicate(b2(), "stone")
    assert not frame_predicate(FinDLat.chain(3), "zeroDimensional")
    ok, witness = frame_predicate_witness(FinDLat.chain(3), "zeroDimensional")
    assert not ok and witness == {"element": 1}
    with pytest.raises(UnknownPredicate):
        frame_predicate(b2(), "frobenius")


@pytest.mark.parametrize("lat", corpus_lattices(), ids=lambda l: f"m{l.size}")
def test_finite_collapse_of_frame_predicates(lat):
    assert frame_predicate(lat, "algebraic")
    assert frame_predicate(lat, "arithmetic")
    assert frame_predicate(lat, "coherent") == frame_predicate(lat, "compactFrame")
    assert frame_predicate(lat, "compactFrame")
    assert frame_predicate(lat, "spatial")


@pytest.mark.parametrize("lat", corpus_lattices(), ids=lambda l: f"m{l.size}")
def test_stone_is_zero_dimensional_compact_is_boolean(lat):
    stone = frame_predicate(lat, "stone")
    assert stone == (
        frame_predicate(lat, "zeroDimensional")
        and frame_predicate(lat, "compactFrame")
    )
    assert stone == is_boolean(lat)
    assert frame_predicate(lat, "regular") == frame_predicate(lat, "zeroDimensional")


# -- homomorphism predicates -----------------------------------------------------------


def test_identity_hom_satisfies_everything():
    lat = b2()
    ident = LatticeHom.identity(lat)
    for name in ("latticeHom", "frameHom", "coherentHom", "properHom"):
        assert hom_predicate(ident, name)


def test_collapse_hom_on_three_chain():
    h = LatticeHom(FinDLat.chain(3), FinDLat.chain(2), (0, 1, 1))
    assert hom_predicate(h, "frameHom")
    assert hom_predicate(h, "coherentHom")
    assert h.is_frame_hom and h.is_coherent


def test_meet_breaking_map_is_not_frame_hom():
    h = LatticeHom(b2(), FinDLat.chain(2), (0, 1, 1, 1))
    assert not hom_predicate(h, "frameHom")
    # witness triple: the atoms meet to 0 but their images meet to 1
    assert not h.is_frame_hom


def test_unknown_hom_predicate():
    with pytest.raises(UnknownPredicate):
        hom_predicate(LatticeHom.identity(b2()), "nonsense")


def test_lattice_hom_need_not_preserve_bounds():
    h = LatticeHom(FinDLat.chain(2), FinDLat.chain(2), (1, 1))
    assert hom_predicate(h, "latticeHom")
    assert not hom_predicate(h, "frameHom")


# -- hom enumeration ----------------------------------------------------------------


def homs_brute(src, tgt, kind):
    out = []
    for image in itertools.product(range(tgt.size), repeat=src.size):
        h = LatticeHom(src, tgt, image)
        if hom_predicate(h, kind):
            out.append(image)
    return sorted(out)


def test_enumerate_homs_counts():
    two = FinDLat.chain(2)
    assert len(enumerate_homs(two, two, "frameHom")) == 1
    assert len(enumerate_homs(FinDLat.chain(3), two, "frameHom")) == 2
    assert len(enumerate_homs(b2(), two, "frameHom")) == 2


def test_enumerate_homs_matches_bruteforce():
    lats = corpus_lattices(2) + [b2(), FinDLat.chain(3)]
    for src in lats:
        for tgt in lats:
            for kind in ("latticeHom", "frameHom", "coherentHom", "properHom"):
                got = [h.image for h in enumerate_homs(src, tgt, kind)]
                assert got == homs_brute(src, tgt, kind), (src, tgt, kind)


def test_enumerate_homs_capacity():
    big = birkhoff_lattice(Poset.antichain(4))
    with pytest.raises(CapacityError):
        enumerate_homs(big, big, "frameHom", search_bound=100)


def test_searches_leave_no_reference_cycles():
    source, target = b2(), FinDLat.chain(2)
    p, q = Poset.chain(2), Poset.antichain(2)
    gc.collect()
    gc.disable()
    try:
        assert enumerate_homs(source, target, "frameHom")
        assert list(iter_monotone_image_tuples(p, q))
        search = iter_monotone_image_tuples(p, q)
        next(search)
        search.close()  # an abandoned search must free its state too
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_hom_composition():
    three, two = FinDLat.chain(3), FinDLat.chain(2)
    h = LatticeHom(three, two, (0, 1, 1))
    g = LatticeHom(two, three, (0, 2))
    gh = compose_homs(g, h)
    assert gh.image == (0, 2, 2)
    assert hom_predicate(gh, "frameHom")


@pytest.mark.parametrize("lat", corpus_lattices(3), ids=lambda l: f"m{l.size}")
def test_frame_homs_preserve_arbitrary_joins_on_small_lattices(lat):
    # the finite reduction: binary + empty joins give all joins
    if lat.size > 8:
        pytest.skip("subset sweep kept to small carriers")
    for hom in enumerate_homs(lat, FinDLat.chain(2), "frameHom"):
        for mask in range(1 << lat.size):
            subset = list(bits(mask))
            lhs = hom(lat.join_of(subset))
            rhs = hom.target.join_of(hom(a) for a in subset)
            assert lhs == rhs


def test_coherent_iff_proper_on_small_corpus():
    lats = corpus_lattices(3)
    for src in lats:
        for tgt in lats:
            for h in enumerate_homs(src, tgt, "frameHom"):
                assert hom_predicate(h, "coherentHom") == hom_predicate(h, "properHom")


# -- serialization ---------------------------------------------------------------------


def test_lattice_doc_round_trip_birkhoff():
    lat = birkhoff_lattice(Poset.from_covers([(0, 1), (0, 2)], 3))
    doc = lat.to_doc()
    assert "birkhoff" in doc
    again = FinDLat.from_doc(doc)
    assert again.size == lat.size
    assert isomorphic(again.carrier_poset(), lat.carrier_poset())


def test_lattice_doc_round_trip_explicit():
    lat = m3()
    doc = lat.to_doc()
    assert doc["elements"] == 5 and "birkhoff" not in doc
    again = FinDLat.from_doc(doc)
    assert again.up == lat.up
    with pytest.raises(ValueError):
        FinDLat.from_doc({"nope": 1})
