"""Space-side operator calculus: kernel, core, regular part, center, predicates.

Sets of points are int masks, bit i for point i."""

import pytest

from framelab import MonotoneMap, Poset, UnknownPredicate, enumerate_posets, monotone_maps
from framelab import spaces
from framelab.spaces import (
    PointSpace,
    _upsets_above_meet,
    center,
    clop_scott_upset_masks,
    clop_upset_masks,
    clopen_biset_masks,
    comparability_components,
    core,
    is_scott_upset,
    kernel,
    lspace_predicate,
    lspace_predicate_witness,
    map_predicate,
    point_space_predicate,
    point_space_predicate_witness,
    reg_part,
    spatial_mask,
    spatial_part,
)


def spaces_up_to(max_size=4):
    return [p for n in range(max_size + 1) for p in enumerate_posets(n)]


def compose_space_maps(outer, inner):
    """outer after inner."""
    image = tuple(outer(q) for q in inner.image)
    return MonotoneMap(inner.source, outer.target, image)


def is_subset(a, b):
    return a & ~b == 0


# -- spatial part -----------------------------------------------------------


def test_spatial_part_examples():
    for x in (Poset.chain(2), Poset.antichain(3), Poset.empty()):
        assert spatial_mask(x) == x.full_mask
        assert spatial_part(x).poset is x


def test_point_space_topology_is_the_upset_topology():
    x = Poset.chain(3)
    ps = spatial_part(x)
    assert set(ps.opens) == {0b000, 0b100, 0b110, 0b111}


# -- way below and kernel ------------------------------------------------------


def test_clop_way_below_examples():
    # V << U iff V lies inside the meet of the clopen upsets above U
    x = Poset.chain(2)
    above_top = _upsets_above_meet(clop_upset_masks(x), 0b10, x.full_mask)
    assert is_subset(0b00, above_top)
    assert is_subset(0b10, above_top)
    assert not is_subset(0b11, above_top)


def test_clop_way_below_requires_upsets():
    x = Poset.chain(2)
    for operator in (kernel, core, reg_part, center):
        with pytest.raises(ValueError, match="not an upset"):
            operator(x, 0b01)


def test_operators_refuse_masks_outside_the_space():
    x = Poset.chain(2)
    for mask in (0b100, 0b111, -1, -4):
        for operator in (kernel, core, reg_part, center, is_scott_upset):
            with pytest.raises(ValueError, match="outside the space"):
                operator(x, mask)


def test_kernel_examples():
    x = Poset.chain(2)
    assert kernel(x, 0b10) == 0b10
    assert kernel(x, 0) == 0


@pytest.mark.parametrize("x", spaces_up_to(), ids=lambda x: repr(x.covers()))
def test_kernel_collapse_and_bounds(x):
    for u in clop_upset_masks(x):
        k = kernel(x, u)
        assert k == u  # finite collapse
        assert is_subset(k, u)


# -- Scott upsets and core -------------------------------------------------------


def test_scott_upset_examples():
    x = Poset.chain(2)
    assert is_scott_upset(x, 0b11)
    assert is_scott_upset(x, 0b10)
    assert not is_scott_upset(x, 0b01)  # not an upset


def test_scott_upsets_are_those_with_spatial_minimal_points(monkeypatch):
    # with point y taken out of the spatial part, the clopen Scott upsets are
    # the upsets that do not have y as a minimal point
    for p in spaces_up_to(3):
        for y in range(p.size):
            fresh = Poset(p.up)
            monkeypatch.setattr(spaces, "spatial_mask", lambda s, y=y: s.full_mask & ~(1 << y))
            expected = tuple(
                u for u in clop_upset_masks(fresh)
                if not ((u >> y) & 1 and fresh.down[y] & u == 1 << y)
            )
            assert clop_scott_upset_masks(fresh) == expected
            assert expected == tuple(u for u in clop_upset_masks(fresh) if is_scott_upset(fresh, u))
            monkeypatch.undo()


def test_core_examples():
    x = Poset.chain(2)
    assert core(x, 0b11) == 0b11
    assert core(x, 0b10) == 0b10


@pytest.mark.parametrize("x", spaces_up_to(), ids=lambda x: repr(x.covers()))
def test_core_kernel_chain_and_scott_characterization(x):
    for u in clop_upset_masks(x):
        c, k = core(x, u), kernel(x, u)
        assert is_subset(c, k) and is_subset(k, u)
        assert c == k == u  # finite collapse
        assert is_scott_upset(x, u) == (core(x, u) == u)


@pytest.mark.parametrize("x", spaces_up_to(3), ids=lambda x: repr(x.covers()))
def test_core_and_kernel_monotone(x):
    ups = clop_upset_masks(x)
    for u in ups:
        for v in ups:
            if is_subset(u, v):
                assert is_subset(core(x, u), core(x, v))
                assert is_subset(kernel(x, u), kernel(x, v))


# -- regular part -------------------------------------------------------------------


def test_reg_part_examples():
    x = Poset.chain(2)
    # the top is not well inside itself: its downset is every point
    assert not is_subset(x.down_mask(0b10), 0b10)
    assert reg_part(x, 0b10) == 0
    assert reg_part(x, 0b11) == 0b11
    a = Poset.antichain(2)
    assert reg_part(a, 0b01) == 0b01


# -- bisets and center -----------------------------------------------------------------


def test_biset_examples():
    x = Poset.chain(2)
    assert clopen_biset_masks(x) == (0b00, 0b11)
    assert center(x, 0b10) == 0
    a = Poset.antichain(2)
    assert len(clopen_biset_masks(a)) == 4
    assert center(a, 0b01) == 0b01
    assert center(a, 0b11) == 0b11


@pytest.mark.parametrize("x", spaces_up_to(), ids=lambda x: repr(x.covers()))
def test_bisets_match_literal_up_and_down_closed_definition(x):
    literal = sorted(
        m for m in range(1 << x.size) if x.up_mask(m) == m and x.down_mask(m) == m
    )
    assert sorted(clopen_biset_masks(x)) == literal
    # components partition the points
    comps = comparability_components(x)
    assert sum(comps) == x.full_mask if comps else x.full_mask == 0


# -- L-space predicates -------------------------------------------------------------


def test_lspace_predicate_examples():
    assert not lspace_predicate(Poset.chain(2), "zeroDimL")
    ok, witness = lspace_predicate_witness(Poset.chain(2), "zeroDimL")
    assert not ok and witness == {"upset": 0b10}
    for n in range(4):
        assert lspace_predicate(Poset.antichain(n), "stoneL")
    with pytest.raises(UnknownPredicate):
        lspace_predicate(Poset.chain(2), "mystery")


@pytest.mark.parametrize("x", spaces_up_to(), ids=lambda x: repr(x.covers()))
def test_lspace_finite_collapses(x):
    assert lspace_predicate(x, "continuousL")
    assert lspace_predicate(x, "algebraicL")
    assert lspace_predicate(x, "kernelStable")
    assert lspace_predicate(x, "lCompact")
    assert lspace_predicate(x, "arithmeticL")
    assert lspace_predicate(x, "coherentL")


@pytest.mark.parametrize("x", spaces_up_to(), ids=lambda x: repr(x.covers()))
def test_lspace_structural_relations(x):
    ups = clop_upset_masks(x)
    # cen U subset of reg U
    for u in ups:
        assert is_subset(center(x, u), reg_part(x, u))
    # stoneL implies regular and L-compact
    if lspace_predicate(x, "stoneL"):
        assert lspace_predicate(x, "regularL")
        assert lspace_predicate(x, "lCompact")
        # clopen Scott upsets equal clopen bisets, and cen = core throughout
        assert sorted(clop_scott_upset_masks(x)) == sorted(clopen_biset_masks(x))
        for u in ups:
            assert center(x, u) == core(x, u)
    # algebraic + kernel-stable iff Scott upsets closed under intersection
    lhs = lspace_predicate(x, "algebraicL") and lspace_predicate(x, "kernelStable")
    scott = set(clop_scott_upset_masks(x))
    rhs = all(a & b in scott for a in scott for b in scott)
    assert lhs == rhs


@pytest.mark.parametrize("x", spaces_up_to(), ids=lambda x: repr(x.covers()))
def test_vacuous_structure_predicates_hold(x):
    # Priestley separation: where p is not below q, the principal upset of p
    # is a clopen upset that contains p and misses q
    ups = set(clop_upset_masks(x))
    assert all(up in ups for up in x.up)


# -- maps ---------------------------------------------------------------------------


def test_map_predicate_identity():
    x = Poset.chain(2)
    ident = MonotoneMap.identity(x)
    for name in ("properL", "coherentL"):
        assert map_predicate(ident, name)


def test_map_to_point_space_is_coherent():
    x = Poset.chain(2)
    point = Poset.chain(1)
    bang = MonotoneMap(x, point, (0, 0))
    assert map_predicate(bang, "coherentL")
    assert map_predicate(bang, "properL")


def test_unknown_map_predicate():
    with pytest.raises(UnknownPredicate):
        map_predicate(MonotoneMap.identity(Poset.chain(1)), "weird")


def test_space_map_composition():
    x, y = Poset.chain(2), Poset.antichain(2)
    f = MonotoneMap(x, y, (0, 0))
    g = MonotoneMap(y, x, (1, 1))
    gf = compose_space_maps(g, f)
    assert gf.image == (1, 1)
    assert gf.source is x and gf.target is x


@pytest.mark.parametrize("x", spaces_up_to(3), ids=lambda x: repr(x.covers()))
def test_all_monotone_maps_are_proper_and_coherent(x):
    for y in spaces_up_to(3):
        for f in monotone_maps(x, y):
            assert map_predicate(f, "properL")
            assert map_predicate(f, "coherentL")


# -- point-space predicates ------------------------------------------------------------


def test_point_space_examples():
    two_chain = spatial_part(Poset.chain(2))
    assert point_space_predicate(two_chain, "sober")
    assert point_space_predicate(two_chain, "compactlyBased")
    assert not point_space_predicate(two_chain, "stoneSpace")
    assert not point_space_predicate(two_chain, "hausdorff")
    for n in range(4):
        anti = spatial_part(Poset.antichain(n))
        assert point_space_predicate(anti, "stoneSpace")
    with pytest.raises(UnknownPredicate):
        point_space_predicate(two_chain, "metrizable")


def test_sober_fails_on_the_indiscrete_two_point_space():
    # {0, 1} is the one nonempty closed set, irreducible, and the closure of
    # both points, so it has two generic points
    ps = PointSpace(Poset.antichain(2), [0, 0b11])
    for name in ("sober", "stablyCompactlyBased", "spectral"):
        assert point_space_predicate_witness(ps, name) == (False, {"closed": 3})


def test_point_space_refuses_opens_not_closed_under_unions_and_intersections():
    # {0, 1} ∪ {0, 2} = {0, 1, 2} is missing: `sober`'s union test would read
    # this family as sober, where the pair search finds {0, 1, 2} irreducible
    # with no generic point
    with pytest.raises(ValueError, match="union or intersection"):
        PointSpace(Poset.antichain(3), [0, 0b011, 0b101, 0b110])
    # unions alone are not enough: {0, 1} ∩ {1, 2} = {1} is missing
    with pytest.raises(ValueError, match="union or intersection"):
        PointSpace(Poset.antichain(3), [0, 0b011, 0b110, 0b111])
    closed = PointSpace(Poset.antichain(3), [0, 0b001, 0b011, 0b111])
    assert closed.opens == (0, 0b001, 0b011, 0b111)
    # the spatial part's clopen upsets are a topology
    assert spatial_part(Poset.antichain(3)).opens == clop_upset_masks(Poset.antichain(3))


@pytest.mark.parametrize("bad", [-1, 2, 5, True, 10 ** 6])
def test_point_closure_refuses_a_non_point(bad):
    # the Sierpinski space: 5 and 10**6 would otherwise read as the full mask
    ps = PointSpace(Poset.chain(2), [0, 0b10, 0b11])
    with pytest.raises(ValueError, match="is not an element of 0..1"):
        ps.point_closure(bad)
    assert [ps.point_closure(y) for y in range(2)] == [0b01, 0b11]


def test_point_space_refuses_opens_without_the_bounds_or_outside_the_points():
    # closed under ∪ and ∩, but without the whole set its closed sets leave
    # out ∅, without ∅ they leave out the whole set, and 0b100 is no point
    for opens in ([0b01], [0, 0b01], [0b01, 0b11], [0, 0b11, 0b100, 0b111]):
        with pytest.raises(ValueError, match="hold ∅ and the whole set"):
            PointSpace(Poset.antichain(2), opens)
    assert PointSpace(Poset.antichain(2), [0, 0b11]).opens == (0, 0b11)


@pytest.mark.parametrize("x", spaces_up_to(), ids=lambda x: repr(x.covers()))
def test_point_space_finite_facts(x):
    ps = spatial_part(x)
    assert point_space_predicate(ps, "sober")
    assert point_space_predicate(ps, "compactlyBased")
    assert point_space_predicate(ps, "stablyCompactlyBased")
    assert point_space_predicate(ps, "spectral")
    assert point_space_predicate(ps, "compact")
    # irreducible closed sets are exactly the point downsets
    from framelab.spaces import _irreducible_closed_sets

    expected = sorted({x.down[p] for p in range(x.size)})
    assert sorted(_irreducible_closed_sets(ps)) == expected


@pytest.mark.parametrize("x", spaces_up_to(), ids=lambda x: repr(x.covers()))
def test_zero_dimensionality_transfers_between_space_and_points(x):
    ps = spatial_part(x)
    assert lspace_predicate(x, "zeroDimL") == point_space_predicate(
        ps, "zeroDimensional"
    )
    # finite Hausdorff coincides with a discrete order
    discrete = all(
        not x.leq(i, j)
        for i in range(x.size)
        for j in range(x.size)
        if i != j
    )
    assert point_space_predicate(ps, "hausdorff") == discrete
