"""Lattice-side operators: Birkhoff construction, way-below, predicates, homs."""

import gc
import itertools
import random
import tracemalloc
from collections import Counter

import pytest

from framelab import (
    CapacityError,
    ConsistencyError,
    DistributivityError,
    MonotoneMap,
    NotLatticeError,
    Poset,
    UnknownPredicate,
    enumerate_posets,
)
from framelab import config, duality, lattices
from framelab.lattices import (
    FinDLat,
    LatticeHom,
    all_ideals,
    birkhoff_lattice,
    compact_elements,
    complemented_elements,
    enumerate_homs,
    frame_predicate,
    frame_predicate_witness,
    hom_predicate,
    join_irreducible_poset,
    join_irreducibles,
    prime_filters,
    pseudocomplement,
    way_below_rows_oracle,
    well_inside,
)
from framelab.posets import bits, iter_monotone_maps, upset_masks


def b2():
    """Boolean diamond: upsets of the 2-antichain. 0 < a, b < 1."""
    return birkhoff_lattice(Poset.antichain(2))


def corpus_posets(max_size=4):
    return [p for n in range(max_size + 1) for p in enumerate_posets(n)]


def corpus_lattices(max_size=4):
    return [birkhoff_lattice(p) for p in corpus_posets(max_size)]


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


def is_boolean(lat):
    """Every element has some complement."""
    return all(
        any(lat.meet[a][b] == lat.bottom and lat.join[a][b] == lat.top
            for b in range(lat.size))
        for a in range(lat.size)
    )


def compose_homs(outer, inner):
    """outer after inner."""
    return LatticeHom(inner.source, outer.target, tuple(outer(v) for v in inner.image))


# -- Birkhoff construction -----------------------------------------------------


def test_birkhoff_examples():
    assert b2().size == 4
    three = birkhoff_lattice(Poset.chain(2))
    assert three.size == 3
    assert three.up == Poset.chain(3).up
    trivial = birkhoff_lattice(Poset.empty())
    assert trivial.size == 1 and trivial.bottom == trivial.top


def test_birkhoff_join_meet_are_union_intersection():
    p = Poset.from_covers([(0, 1), (0, 2)], 3)
    lat, masks = birkhoff_lattice(p), upset_masks(p)
    for i, mi in enumerate(masks):
        for j, mj in enumerate(masks):
            assert masks[lat.join[i][j]] == mi | mj
            assert masks[lat.meet[i][j]] == mi & mj


@pytest.mark.parametrize("p", corpus_posets(), ids=lambda p: f"m{len(upset_masks(p))}")
def test_birkhoff_is_distributive_and_recovers_points(p):
    lat = birkhoff_lattice(p)
    assert lat.is_distributive()
    assert join_irreducible_poset(lat).canonical_key() == p.canonical_key()


def test_birkhoff_capacity(monkeypatch):
    cached = Poset.antichain(6)
    birkhoff_lattice(cached)  # a default call fills the poset's upset cache
    monkeypatch.setattr(config, "MAX_UPSET_FAMILY", 32)
    for p in (Poset.antichain(6), cached):
        with pytest.raises(CapacityError):
            birkhoff_lattice(p)


def test_birkhoff_refuses_tables_over_the_search_bound():
    # a lattice's tables are bounded by the 256 elements a bytes row holds:
    # the 8-antichain's 256 upsets fit (test_birkhoff_tables_at_256_elements),
    # the 9-antichain's 512 do not
    with pytest.raises(CapacityError, match="256"):
        birkhoff_lattice(Poset.antichain(9))
    with pytest.raises(CapacityError, match="256"):
        FinDLat.from_doc({"birkhoff": Poset.antichain(9).to_doc()})


def test_chain_refuses_tables_over_the_search_bound():
    # refused before any of the n² join/meet entries is allocated
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="256"):
            FinDLat.chain(10**9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


# -- explicit construction and the distributivity error path -------------------


def m3():
    # 0 below three incomparable atoms a,b,c below 1
    pairs = [(0, i) for i in range(5)] + [(i, 4) for i in range(5)]
    return FinDLat.from_leq_pairs(5, pairs)


def n5():
    # 0 < a < c < 1 and 0 < b < 1 with b incomparable to a, c
    pairs = [(0, 1), (0, 2), (0, 3), (1, 3), (1, 4), (2, 4), (3, 4), (0, 4)]
    return FinDLat.from_leq_pairs(5, pairs)


@pytest.mark.parametrize("n", [256, 257])
def test_chain_tables_at_the_row_width_boundary(n):
    if n > 256:
        with pytest.raises(CapacityError, match="256"):
            FinDLat.chain(n)
        return
    lat = FinDLat.chain(n)
    assert isinstance(lat.join[0], bytes) and isinstance(lat.meet[0], bytes)
    corners = (0, 1, n - 2, n - 1)
    for a in corners:
        for b in corners:
            assert lat.join[a][b] == max(a, b)
            assert lat.meet[a][b] == min(a, b)


def test_birkhoff_tables_at_256_elements():
    p = Poset.antichain(8)
    lat, masks = birkhoff_lattice(p), upset_masks(p)
    assert lat.size == 256 and isinstance(lat.join[0], bytes)
    corners = (0, 1, 2, 127, 128, 253, 254, 255)
    for a in corners:
        for b in corners:
            assert masks[lat.join[a][b]] == masks[a] | masks[b]
            assert masks[lat.meet[a][b]] == masks[a] & masks[b]


def m3_below_chain(n):
    """M3 on elements 0..4, under a chain 5 < ... < n-1, built by the raw
    constructor."""
    small = m3()
    up = [small.up[x] | ((1 << n) - 1) >> 5 << 5 for x in range(5)]
    up += [((1 << n) - 1) >> x << x for x in range(5, n)]
    join = [[small.join[x][y] if max(x, y) < 5 else max(x, y) for y in range(n)]
            for x in range(n)]
    meet = [[small.meet[x][y] if max(x, y) < 5 else min(x, y) for y in range(n)]
            for x in range(n)]
    return FinDLat(up, join, meet, 0, n - 1)


def first_distributivity_failure(lat):
    for a, b, c in itertools.product(range(lat.size), repeat=3):
        if lat.meet[a][lat.join[b][c]] != lat.join[lat.meet[a][b]][lat.meet[a][c]]:
            return a, b, c
    return None


def test_non_distributive_input_is_constructible_then_rejected():
    # M4's first failing (a, b) = (1, 2) fails at c = 3 and at c = 4
    m4 = FinDLat.from_leq_pairs(6, [(0, i) for i in range(6)] + [(i, 5) for i in range(6)])
    for lat in (m3(), n5(), m4, m3_below_chain(256)):
        assert not lat.is_distributive()
        with pytest.raises(DistributivityError) as err:
            lat.require_distributive()
        # the row kernel reports the first failing triple in (a, b, c) order
        assert err.value.witness == first_distributivity_failure(lat)
    # one element more no longer fits a bytes row
    with pytest.raises(CapacityError, match="256"):
        m3_below_chain(257)


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


def test_orders_without_a_meet_or_a_declared_top_are_refused():
    # 0 and 1 have the join 2 but no meet, so there is no bottom; once every
    # pair has a meet and a join, a least and a greatest element exist
    with pytest.raises(NotLatticeError, match="no greatest lower bound"):
        FinDLat.from_leq_pairs(3, [(0, 2), (1, 2)])
    with pytest.raises(NotLatticeError, match="declared top 0"):
        FinDLat.from_leq_pairs(2, [(0, 1)], top=0)
    for empty in (lambda: FinDLat.from_leq_pairs(0, []), lambda: FinDLat.chain(0)):
        with pytest.raises(NotLatticeError, match="at least one element"):
            empty()


def test_from_leq_pairs_builds_the_carrier_order_once(monkeypatch):
    built = []
    original = Poset.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(Poset, "__init__", counting)
    lat = FinDLat.from_leq_pairs(3, [(0, 1), (0, 2), (1, 2)])
    assert len(built) == 1
    assert lat.carrier_poset().up == lat.up == (0b111, 0b110, 0b100)
    assert lat.down == (0b001, 0b011, 0b111)


# -- join irreducibles ----------------------------------------------------------


def test_join_irreducibles_examples():
    lat = b2()
    # elements: 0=empty, 1={p}, 2={q}, 3=all; irreducibles are the singletons
    assert join_irreducibles(lat) == (1, 2)
    assert join_irreducibles(FinDLat.chain(3)) == (1, 2)
    assert join_irreducibles(FinDLat.chain(2)) == (1,)


def hexagon():
    # 0 < a < b < 1 and 0 < c < d < 1: contains N5, so not distributive
    pairs = [(0, i) for i in range(1, 6)] + [(i, 5) for i in range(1, 5)] + [(1, 2), (3, 4)]
    return FinDLat.from_leq_pairs(6, pairs)


def square_with_a_tail():
    # 0 < a, b < c < 1 and 0 < d < 1: c ∧ (a ∨ d) = c but (c ∧ a) ∨ (c ∧ d) = a
    pairs = [(0, i) for i in range(1, 6)] + [(i, 5) for i in range(1, 5)] + [(1, 3), (2, 3)]
    return FinDLat.from_leq_pairs(6, pairs)


# the definition must hold on any finite lattice, not only on Birkhoff ones:
# on M3 "↑j is a prime filter" would miss the three atoms
@pytest.mark.parametrize(
    "lat",
    corpus_lattices()
    + [
        pytest.param(lat(), id=f"nd-{lat.__name__}")
        for lat in (m3, n5, hexagon, square_with_a_tail)
    ]
    + [pytest.param(FinDLat.chain(n), id=f"chain{n}") for n in range(1, 10)],
    ids=lambda l: f"m{l.size}",
)
def test_join_irreducibles_have_unique_lower_cover(lat):
    carrier = lat.carrier_poset()
    expected = [
        j for j in range(lat.size) if len(carrier.lower_covers(j)) == 1
    ]
    assert join_irreducibles(lat) == tuple(expected)


# -- ideals, filters, way below ---------------------------------------------------


def _corpus_case_id(lat):
    # lattices of 4-point posets get their own prefix, so the ids of the
    # smaller cases do not depend on how many larger ones there are
    prefix = "n4-" if len(join_irreducibles(lat)) == 4 else ""
    return f"{prefix}m{lat.size}"


def _relabelled_corpus_lattices(max_size=4, seed=29):
    """The corpus lattices of at least two elements, rebuilt from their order
    under shuffled labels with the bottom moved off element 0, so that no
    table is read in the order the Birkhoff construction writes it."""
    rng = random.Random(seed)
    out = []
    for lat in corpus_lattices(max_size)[1:]:
        perm = list(range(lat.size))
        rng.shuffle(perm)
        if perm[lat.bottom] == 0:
            perm[lat.bottom], perm[lat.top] = perm[lat.top], perm[lat.bottom]
        pairs = [(perm[a], perm[b]) for a in range(lat.size) for b in bits(lat.up[a])]
        copy = FinDLat.from_leq_pairs(lat.size, pairs)
        assert copy.bottom != 0
        out.append(pytest.param(copy, id=f"relabelled-{len(out)}-m{lat.size}"))
    return out


@pytest.mark.parametrize(
    "lat", corpus_lattices(4) + _relabelled_corpus_lattices(), ids=_corpus_case_id
)
def test_ideal_and_filter_enumeration_matches_bruteforce(lat):
    ideals = ideals_brute(lat)
    assert all_ideals(lat) == tuple(ideals)
    # a prime filter is a filter whose complement is an ideal
    ideal_set = set(ideals)
    assert prime_filters(lat) == tuple(
        f for f in filters_brute(lat) if lat.full_mask & ~f in ideal_set
    )


def test_bruteforce_check_catches_an_ideal_step_over_up_rows():
    # mutant: the ideals are read off the `up` rows, not the `down` rows;
    # {top} = up[top] is no down-set once the lattice has two elements
    for lat in corpus_lattices(4)[1:]:
        assert tuple(sorted(lat.up)) != tuple(ideals_brute(lat))


def test_ideals_of_b2():
    lat = b2()
    assert all_ideals(lat) == tuple(sorted(
        [0b0001, 0b0011, 0b0101, 0b1111]
    ))


def test_way_below_examples():
    lat = b2()
    assert way_below_brute(lat, 1, 3)  # independent oracle
    assert (way_below_rows_oracle(lat)[1] >> 3) & 1
    three = FinDLat.chain(3)
    assert not (way_below_rows_oracle(three)[2] >> 1) & 1  # way-below implies leq
    for lat in (b2(), three):
        assert way_below_rows_oracle(lat)[lat.bottom] == lat.full_mask


@pytest.mark.parametrize("lat", corpus_lattices(3), ids=lambda l: f"m{l.size}")
def test_way_below_oracle_equals_bruteforce_and_fast_path(lat):
    rows = way_below_rows_oracle(lat)
    for a in range(lat.size):
        for b in range(lat.size):
            expected = way_below_brute(lat, a, b)
            assert bool((rows[a] >> b) & 1) == expected
            assert lat.leq(a, b) == expected


@pytest.mark.parametrize("lat", corpus_lattices(), ids=lambda l: f"m{l.size}")
def test_way_below_oracle_collapses_to_the_order(lat):
    # on a finite lattice every element is compact, so a << b iff a <= b
    assert way_below_rows_oracle(lat) == lat.up


@pytest.mark.parametrize("lat", corpus_lattices(), ids=lambda l: f"m{l.size}")
def test_compact_elements_are_the_full_carrier(lat):
    assert compact_elements(lat) == tuple(range(lat.size))


def test_prime_filters_match_subset_filtering():
    # m3 and n5 are not distributive: reading the prime filters off the
    # ideals must still be exact there
    for lat in corpus_lattices(3) + [m3(), n5()]:
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
        assert prime_filters(lat) == tuple(brute)


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


def spatial_pairwise(lat):
    """Reference scan: the first a, then the first b != a, in the same prime filters."""
    primes = prime_filters(lat)
    for a in range(lat.size):
        for b in range(lat.size):
            if a != b and all((f >> a) & 1 == (f >> b) & 1 for f in primes):
                return False, {"pair": (a, b)}
    return True, None


def test_spatial_fails_where_prime_filters_do_not_separate():
    # M3 has no prime filter at all; in N5 the elements a and c lie in the
    # same prime filters (up-a and up-b)
    assert frame_predicate_witness(m3(), "spatial") == (False, {"pair": (0, 1)})
    assert frame_predicate_witness(n5(), "spatial") == (False, {"pair": (1, 3)})


def test_spatial_agrees_with_a_pairwise_scan():
    for lat in corpus_lattices() + [m3(), n5()]:
        assert frame_predicate_witness(lat, "spatial") == spatial_pairwise(lat)


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


def preserves(hom, op):
    """h(a op b) = h(a) op h(b) for every pair, op the name of a table."""
    src, tgt, h = hom.source, hom.target, hom.image
    src_op, tgt_op = getattr(src, op), getattr(tgt, op)
    return all(
        h[src_op[a][b]] == tgt_op[h[a]][h[b]]
        for a in range(src.size) for b in range(src.size)
    )


def hom_predicates_pairwise(hom):
    """The four hom predicates, pair by pair from the tables and the oracle."""
    src, tgt, h = hom.source, hom.target, hom.image
    lattice_hom = preserves(hom, "join") and preserves(hom, "meet")
    frame_hom = lattice_hom and h[src.bottom] == tgt.bottom and h[src.top] == tgt.top
    # read through the module, so a test that patches the oracle patches this too
    src_wb, tgt_wb = lattices.way_below_rows_oracle(src), lattices.way_below_rows_oracle(tgt)
    return [
        lattice_hom,
        frame_hom,
        frame_hom and all(
            (tgt_wb[h[a]] >> h[a]) & 1 for a in range(src.size) if (src_wb[a] >> a) & 1
        ),
        frame_hom and all(
            (tgt_wb[h[a]] >> h[b]) & 1 for a in range(src.size) for b in bits(src_wb[a])
        ),
    ]


def lattice_homs_brute(src, tgt):
    """Every map src -> tgt that preserves binary joins and meets."""
    out = []
    for image in itertools.product(range(tgt.size), repeat=src.size):
        hom = LatticeHom(src, tgt, image)
        if preserves(hom, "join") and preserves(hom, "meet"):
            out.append(hom)
    return out


def threshold_maps(chain16, chain17):
    """Fresh maps out of the lattices of posets with at most 3 points, into
    each other and into the two chains, which straddle the 16-element kernel
    threshold: lattice homs, perturbed ones and random maps."""
    rng = random.Random(20)
    lats = corpus_lattices(3)
    chain3 = FinDLat.chain(3)
    maps = []
    for src in lats:
        for tgt in lats:
            # lattice homs by brute force where at most 20,000 maps are to be
            # scanned, and otherwise the constant maps, lattice homs on any pair
            if tgt.size ** src.size <= 20_000:
                homs = lattice_homs_brute(src, tgt)
            else:
                homs = [LatticeHom(src, tgt, [v] * src.size) for v in range(tgt.size)]
            for hom in homs:
                maps.append(hom)
                image = list(hom.image)
                image[rng.randrange(src.size)] = rng.randrange(tgt.size)
                maps.append(LatticeHom(src, tgt, image))
            for _ in range(3):
                maps.append(LatticeHom(src, tgt, [rng.randrange(tgt.size) for _ in range(src.size)]))
        # targets on both sides of the 16-element kernel threshold, with
        # images through their top elements: homs into the 3-chain stretched
        # onto (0, 14, 15) and (0, 15, 16), perturbed, and random images
        assert chain3.size ** src.size <= 20_000
        into_chain3 = lattice_homs_brute(src, chain3)
        for tgt in (chain16, chain17):
            stretch = (0, tgt.size - 2, tgt.size - 1)
            for hom in into_chain3:
                image = [stretch[v] for v in hom.image]
                maps.append(LatticeHom(src, tgt, image))
                image[rng.randrange(src.size)] = rng.choice(stretch[1:])
                maps.append(LatticeHom(src, tgt, image))
            for _ in range(5):
                maps.append(LatticeHom(src, tgt, [rng.randrange(tgt.size) for _ in range(src.size)]))
    return maps


def test_hom_predicates_match_a_pairwise_reference_across_the_kernel_threshold():
    chain16, chain17 = FinDLat.chain(16), FinDLat.chain(17)
    maps = threshold_maps(chain16, chain17)
    kinds = ("latticeHom", "frameHom", "coherentHom", "properHom")
    for hom in maps:
        got = [hom_predicate(hom, name) for name in kinds]
        assert got == hom_predicates_pairwise(hom), (hom.source, hom.target, hom.image)
    # both sides of the threshold ran, and the inputs reach every branch:
    # joins kept but meets broken, and lattice homs into both chains that
    # are frame homs and that are not
    assert lattices._byte_tables in chain16._memo
    assert lattices._byte_tables not in chain17._memo
    assert any(preserves(h, "join") and not preserves(h, "meet") for h in maps)
    for tgt in (chain16, chain17):
        flags = {tuple(hom_predicates_pairwise(h)[:2]) for h in maps if h.target is tgt}
        assert {(True, True), (True, False), (False, False)} <= flags


def test_a_batch_decides_every_hom_as_it_decides_it_alone():
    # the maps of one (source, target) pair are one batch; a batch with a
    # failing check is decided again hom by hom, on both sides of the
    # kernel threshold
    chain16, chain17 = FinDLat.chain(16), FinDLat.chain(17)
    batches = {}
    for hom in threshold_maps(chain16, chain17):
        batches.setdefault((hom.source, hom.target), []).append(hom)
    # behind a frame hom of B2, monotone maps that keep the bounds but break
    # joins or meets: every check but latticeHom passes on the whole batch
    diamond = b2()
    for target in (chain16, chain17):
        top = target.size - 1
        images = [(0, 0, top, top), (0, top - 1, top - 1, top), (0, 0, 0, top), (0, top, top, top)]
        batches[diamond, target] = [LatticeHom(diamond, target, image) for image in images]
    mixed = set()
    for (source, target), homs in batches.items():
        lattices._decide_flags(homs)
        flags = [list(hom._flags) for hom in homs]
        assert flags == [hom_predicates_pairwise(hom) for hom in homs], (source, target)
        if any(f != flags[0] for f in flags):
            mixed.add(target.size)
    assert {16, 17} <= mixed


@pytest.mark.parametrize("size", [16, 17])
def test_proper_hom_fails_when_the_target_loses_a_way_below_pair(size, monkeypatch):
    # the oracle drops 0 << top from a fresh target before any of its caches
    # is built; compactness (a << a) is untouched, so coherentHom does not
    # change
    intact, target = FinDLat.chain(size), FinDLat.chain(size)
    oracle = lattices.way_below_rows_oracle

    def losing(lattice):
        rows = oracle(lattice)
        if lattice is target:
            rows = (rows[0] & ~(1 << size - 1),) + rows[1:]
        return rows

    monkeypatch.setattr(lattices, "way_below_rows_oracle", losing)
    for source, image in ((FinDLat.chain(2), (0, size - 1)), (FinDLat.chain(3), (0, size - 2, size - 1))):
        hom = LatticeHom(source, target, image)
        reference = LatticeHom(source, intact, image)
        assert hom.is_frame_hom and reference.is_frame_hom
        assert hom.is_coherent == reference.is_coherent
        assert reference.is_proper and not hom.is_proper


@pytest.mark.parametrize("size", [16, 17])
def test_coherent_hom_fails_when_the_target_loses_a_compact_element(size, monkeypatch):
    # the oracle drops a << a for a = size - 2, an element of the image, from
    # a fresh target before any of its caches is built; the target sizes
    # straddle the nibble kernels, which coherentHom does not use
    intact, target = FinDLat.chain(size), FinDLat.chain(size)
    oracle = lattices.way_below_rows_oracle
    lost = size - 2

    def losing(lattice):
        rows = oracle(lattice)
        if lattice is target:
            rows = rows[:lost] + (rows[lost] & ~(1 << lost),) + rows[lost + 1:]
        return rows

    monkeypatch.setattr(lattices, "way_below_rows_oracle", losing)
    source, image = FinDLat.chain(3), (0, lost, size - 1)
    hom = LatticeHom(source, target, image)
    reference = LatticeHom(source, intact, image)
    assert hom.is_frame_hom and reference.is_frame_hom
    assert reference.is_coherent and not hom.is_coherent


@pytest.mark.parametrize("size", [16, 17])
def test_a_search_batch_splits_where_the_target_loses_a_compact_element(size, monkeypatch):
    # the oracle of the test above; of the 3-chain's homs into the target,
    # exactly those through the lost element are neither coherent nor proper
    # (lost << lost is gone), so the search's batch is decided hom by hom
    target = FinDLat.chain(size)
    oracle = lattices.way_below_rows_oracle
    lost = size - 2

    def losing(lattice):
        rows = oracle(lattice)
        if lattice is target:
            rows = rows[:lost] + (rows[lost] & ~(1 << lost),) + rows[lost + 1:]
        return rows

    monkeypatch.setattr(lattices, "way_below_rows_oracle", losing)
    homs = enumerate_homs(FinDLat.chain(3), target)
    assert [h.image for h in homs] == [(0, e, size - 1) for e in range(size)]
    assert [h.image for h in homs if not h.is_coherent] == [(0, lost, size - 1)]
    for h in homs:
        assert list(h._flags) == hom_predicates_pairwise(h), h.image


def test_a_search_without_candidates_decides_nothing(monkeypatch):
    def undecidable(homs):
        raise AssertionError("an empty search decided a batch")

    monkeypatch.setattr(lattices, "_decide_flags", undecidable)
    assert enumerate_homs(FinDLat.chain(1), FinDLat.chain(2)) == []


def test_lattice_hom_constructor_refuses_bad_images():
    three, two = FinDLat.chain(3), FinDLat.chain(2)
    with pytest.raises(ValueError, match="length"):
        LatticeHom(three, two, (0, 1))
    with pytest.raises(IndexError, match="outside the target"):
        LatticeHom(three, two, (0, 1, 2))
    with pytest.raises(IndexError, match="outside the target"):
        LatticeHom(three, two, (0, -1, 1))


@pytest.mark.parametrize(
    "cls, source, target",
    [
        (MonotoneMap, Poset.chain(3), Poset.chain(2)),
        (LatticeHom, FinDLat.chain(3), FinDLat.chain(2)),
    ],
    ids=["MonotoneMap", "LatticeHom"],
)
def test_maps_share_the_checked_pointwise_base(cls, source, target):
    with pytest.raises(ValueError, match="length"):
        cls(source, target, (0, 1))
    with pytest.raises(IndexError, match="outside the target"):
        cls(source, target, (0, 1, 2))
    with pytest.raises(IndexError, match="outside the target"):
        cls(source, target, (0, -1, 1))
    f = cls(source, target, [0, 1, 1])
    assert repr(f) == f"{cls.__name__}((0, 1, 1))"
    assert f(2) == 1 and f.image == (0, 1, 1)
    same = cls(source, target, (0, 1, 1))
    assert f == same and hash(f) == hash(same)
    assert f != cls(source, target, (0, 0, 1))
    assert f != cls(source, type(target).chain(2), (0, 1, 1))  # another target object
    assert cls.identity(source).image == (0, 1, 2)


@pytest.mark.parametrize(
    "lat",
    [FinDLat.chain(1), FinDLat.chain(4), b2(), n5(),
     FinDLat.from_leq_pairs(3, [(0, 1), (0, 2), (1, 2)]),
     birkhoff_lattice(Poset.antichain(3))],
    ids=["chain1", "chain4", "b2", "n5", "leq-pairs", "b3"],
)
def test_carrier_poset_is_one_object_with_the_lattices_rows(lat):
    carrier = lat.carrier_poset()
    assert carrier is lat.carrier_poset()
    assert carrier.up is lat.up and carrier.down is lat.down


@pytest.mark.parametrize("size", [True, False, 2.0, "3", None],
                         ids=["true", "false", "float", "string", "none"])
def test_chain_lattice_refuses_bool_and_non_int_sizes(size):
    with pytest.raises(ValueError, match="not an int"):
        FinDLat.chain(size)


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
    assert len(enumerate_homs(two, two)) == 1
    assert len(enumerate_homs(FinDLat.chain(3), two)) == 2
    assert len(enumerate_homs(b2(), two)) == 2


def test_enumerate_homs_matches_bruteforce():
    # every ordered pair of lattices of posets with at most 3 points whose
    # map space is small enough to scan: 71 of the 81 pairs
    lats = corpus_lattices(3)
    pairs = [
        (src, tgt) for src in lats for tgt in lats if tgt.size ** src.size <= 20_000
    ]
    assert len(pairs) == 71
    for src, tgt in pairs:
        homs = enumerate_homs(src, tgt)
        assert [h.image for h in homs] == homs_brute(src, tgt, "frameHom"), (src, tgt)
        for kind, flag in (("coherentHom", "is_coherent"), ("properHom", "is_proper")):
            got = [h.image for h in homs if getattr(h, flag)]
            assert got == homs_brute(src, tgt, kind), (src, tgt, kind)


def test_enumerate_homs_on_both_sides_of_the_byte_image_boundary():
    # an image is one byte per source element while the target's dual has at
    # most 8 points, so at most 256 elements: chain(9) has 8 points and
    # chain(10) 9, and the 8-antichain's 256 upsets are the widest target;
    # chain(18), with 17 points and 18 elements, takes both the dict image
    # route and the pair-by-pair hom_predicate route
    source = FinDLat.chain(3)
    for target in (FinDLat.chain(9), FinDLat.chain(10), FinDLat.chain(18)):
        homs = enumerate_homs(source, target)
        assert [h.image for h in homs] == homs_brute(source, target, "frameHom")
        for kind, flag in (("coherentHom", "is_coherent"), ("properHom", "is_proper")):
            got = [h.image for h in homs if getattr(h, flag)]
            assert got == homs_brute(source, target, kind), (target, kind)
    wide = birkhoff_lattice(Poset.antichain(8))
    assert wide.size == 256 and (wide.bottom, wide.top) == (0, 255)
    images = [h.image for h in enumerate_homs(source, wide)]
    assert images == [(0, e, 255) for e in range(256)]


def test_enumerated_homs_scan_the_tables_once(monkeypatch):
    # one literal hom_predicate call per enumerated hom decides all four of
    # its flags, and the is_coherent and is_proper reads make no call
    calls = []
    original = lattices.hom_predicate

    def counting(hom, name):
        calls.append(name)
        return original(hom, name)

    monkeypatch.setattr(lattices, "hom_predicate", counting)
    source = birkhoff_lattice(Poset.antichain(2))
    target = birkhoff_lattice(Poset.chain(3))
    homs = enumerate_homs(source, target)
    assert homs
    assert calls == ["frameHom"] * len(homs)
    for h in homs:
        assert h.is_coherent and h.is_proper
    assert calls == ["frameHom"] * len(homs)


def test_enumerate_homs_fetches_the_tables_once_per_search(monkeypatch):
    # the 81 homs from the 4-chain into B4 (the monotone maps of the
    # 4-antichain into the 3-chain) are decided by the byte-code kernels in
    # one _decide_flags batch and share one table tuple: neither table is
    # read again per hom
    reads = Counter()
    for name in ("_pair_table", "_byte_tables"):
        original = getattr(lattices, name)

        def counting(lattice, name=name, original=original):
            reads[name] += 1
            return original(lattice)

        monkeypatch.setattr(lattices, name, counting)
    source = birkhoff_lattice(Poset.chain(3))
    target = birkhoff_lattice(Poset.antichain(4))
    assert target.size == 16
    batches = []
    decide = lattices._decide_flags

    def counting(homs):
        batches.append(len(homs))
        decide(homs)

    monkeypatch.setattr(lattices, "_decide_flags", counting)
    homs = enumerate_homs(source, target)
    assert len(homs) == 81
    assert all(h.is_coherent and h.is_proper for h in homs)
    assert reads == {"_pair_table": 1, "_byte_tables": 1}
    assert len({id(h._tables) for h in homs}) == 1
    # one batch decides every hom's flags, and nothing decides them again
    assert batches == [81]


def test_enumerate_homs_capacity(monkeypatch):
    big = birkhoff_lattice(Poset.antichain(4))
    # 4^6 maps of the dual 6-antichain into the dual 4-chain, every one a hom
    target = birkhoff_lattice(Poset.antichain(6))
    assert len(enumerate_homs(FinDLat.chain(5), target)) == 4096
    monkeypatch.setattr(config, "MAX_SEARCH_SPACE", 100)
    with pytest.raises(CapacityError):
        enumerate_homs(big, big)
    # the dual search counts |X_L|^|J(M)| maps: 4^4 here
    monkeypatch.setattr(config, "MAX_SEARCH_SPACE", 256)
    assert enumerate_homs(big, big)
    monkeypatch.setattr(config, "MAX_SEARCH_SPACE", 255)
    with pytest.raises(CapacityError):
        enumerate_homs(big, big)


def test_enumerate_homs_checks_the_bound_before_building_the_dual(monkeypatch):
    def unbuilt(lattice):
        raise AssertionError("dual space built before the bound check")

    big = birkhoff_lattice(Poset.antichain(4))
    monkeypatch.setattr(duality, "priestley_space_of", unbuilt)
    monkeypatch.setattr(config, "MAX_SEARCH_SPACE", 255)
    with pytest.raises(CapacityError):
        enumerate_homs(big, big)


def test_enumerate_homs_requires_distributive_lattices():
    # the dual correspondence fails on M3 and N5: without the guard, B2 -> N5
    # gives 4 frame homs where there are 6
    for bad in (m3(), n5()):
        for source, target in ((bad, b2()), (b2(), bad)):
            with pytest.raises(DistributivityError):
                enumerate_homs(source, target)


def test_enumerate_homs_refuses_lattice_homs():
    # bound-free lattice homs are decided by hom_predicate, never enumerated
    two = FinDLat.chain(2)
    assert hom_predicate(LatticeHom(two, two, (1, 1)), "latticeHom")
    assert [h.image for h in enumerate_homs(two, two)] == [(0, 1)]


def test_searches_leave_no_reference_cycles():
    source, target = b2(), FinDLat.chain(2)
    p, q = Poset.chain(2), Poset.antichain(2)
    gc.collect()
    gc.disable()
    try:
        assert enumerate_homs(source, target)
        terms = [(0,) * q.size] * p.size
        assert list(iter_monotone_maps(p, q, terms))
        search = iter_monotone_maps(p, q, terms)
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
    for hom in enumerate_homs(lat, FinDLat.chain(2)):
        for mask in range(1 << lat.size):
            subset = list(bits(mask))
            lhs = hom(lat.join_of(subset))
            rhs = hom.target.join_of(hom(a) for a in subset)
            assert lhs == rhs


def test_coherent_iff_proper_on_small_corpus():
    lats = corpus_lattices(3)
    for src in lats:
        for tgt in lats:
            for h in enumerate_homs(src, tgt):
                assert hom_predicate(h, "coherentHom") == hom_predicate(h, "properHom")


# -- serialization ---------------------------------------------------------------------


def test_lattice_doc_round_trip_birkhoff():
    lat = birkhoff_lattice(Poset.from_covers([(0, 1), (0, 2)], 3))
    doc = lat.to_doc()
    assert "birkhoff" in doc
    again = FinDLat.from_doc(doc)
    assert again.size == lat.size
    assert again.carrier_poset().canonical_key() == lat.carrier_poset().canonical_key()


def test_lattice_doc_round_trip_explicit():
    lat = m3()
    doc = lat.to_doc()
    assert doc["elements"] == 5 and "birkhoff" not in doc
    again = FinDLat.from_doc(doc)
    assert again.up == lat.up
    with pytest.raises(ValueError):
        FinDLat.from_doc({"nope": 1})


@pytest.mark.parametrize(
    "doc",
    [
        {"elements": None},
        {"elements": 2, "leq": 5},
        {"elements": 2, "leq": [[0, 7]]},
        {"elements": 2.7, "leq": []},
        {"elements": True, "leq": []},
        {"elements": 2, "leq": [[0, True]]},
    ],
    ids=["size-none", "leq-not-a-list", "pair-out-of-range", "size-float", "size-bool",
         "pair-bool"],
)
def test_malformed_lattice_doc_is_refused(doc):
    with pytest.raises(ValueError):
        FinDLat.from_doc(doc)


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"elements": 3, "leq": [[0, 1], [1, 2]]}, "transitive"),
        ({"elements": 2, "leq": [[0, 1], [1, 0]]}, "antisymmetric"),
        ([{"elements": 1}], "not a lattice document"),
    ],
    ids=["not-transitive", "not-antisymmetric", "not-a-dict"],
)
def test_lattice_doc_that_is_not_an_order_is_refused(doc, message):
    with pytest.raises(ValueError, match=message):
        FinDLat.from_doc(doc)


def m_shape(n):
    """Explicit order pairs of M_{n-2}: 0 below n-2 atoms below n-1."""
    return [[0, i] for i in range(1, n)] + [[i, n - 1] for i in range(1, n - 1)]


def test_lattice_doc_size_is_bounded_by_the_row_width():
    # 256 elements fit a bytes row and 257 do not, from a document or from
    # the order pairs themselves
    assert FinDLat.from_doc({"elements": 256, "leq": m_shape(256)}).size == 256
    with pytest.raises(CapacityError, match="256"):
        FinDLat.from_doc({"elements": 257, "leq": m_shape(257)})
    with pytest.raises(CapacityError, match="256"):
        FinDLat.from_leq_pairs(257, [tuple(p) for p in m_shape(257)])


def test_lattice_doc_size_is_bounded_by_the_search_space(monkeypatch):
    # a size over 256 is refused before the order or the join/meet tables
    # are allocated, and the order pairs of a smaller one count against the
    # search bound
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            FinDLat.from_doc({"elements": 1025, "leq": []})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    monkeypatch.setattr(config, "MAX_SEARCH_SPACE", 16)
    square = {"elements": 4, "leq": [[0, 1], [0, 2], [0, 3], [1, 3], [2, 3]]}
    assert FinDLat.from_doc(square).size == 4
    with pytest.raises(CapacityError):
        FinDLat.from_doc(m3().to_doc())
