"""Space-side operator calculus: kernel, core, regular part, center, predicates."""

import pytest

from framelab import BindingError, Poset, UnknownPredicate, enumerate_posets
from framelab.posets import bits
from framelab.spaces import (
    FinPriestley,
    PointSet,
    SpaceMap,
    center,
    clop_scott_upsets,
    clop_upsets,
    clop_way_below,
    clop_well_inside,
    clopen_biset_masks,
    clopen_bisets,
    comparability_components,
    compose_space_maps,
    core,
    has_priestley_separation,
    is_scott_upset,
    kernel,
    lspace_predicate,
    lspace_predicate_witness,
    map_predicate,
    monotone_space_maps,
    point_space_predicate,
    reg_part,
    spatial_part,
)


def spaces_up_to(max_size=4):
    return [
        FinPriestley(p) for n in range(max_size + 1) for p in enumerate_posets(n)
    ]


def chain_space(n):
    return FinPriestley(Poset.chain(n))


def antichain_space(n):
    return FinPriestley(Poset.antichain(n))


# -- spatial part -----------------------------------------------------------


def test_spatial_part_examples():
    for x in (chain_space(2), antichain_space(3), FinPriestley(Poset.empty())):
        y, point_space = spatial_part(x)
        assert y.mask == x.full_mask
        assert point_space.poset is x.points


def test_point_space_topology_is_the_upset_topology():
    x = chain_space(3)
    _, ps = spatial_part(x)
    assert set(ps.opens) == {0b000, 0b100, 0b110, 0b111}


# -- way below and kernel ------------------------------------------------------


def test_clop_way_below_examples():
    x = chain_space(2)
    empty = x.points.empty_set()
    top = x.points.subset([1])
    full = x.points.full_set()
    assert clop_way_below(x, empty, top)
    assert clop_way_below(x, top, top)
    assert not clop_way_below(x, full, top)


def test_clop_way_below_requires_upsets():
    x = chain_space(2)
    with pytest.raises(ValueError):
        clop_way_below(x, x.points.subset([0]), x.points.full_set())


def test_kernel_examples():
    x = chain_space(2)
    assert kernel(x, x.points.subset([1])).points() == (1,)
    assert kernel(x, x.points.empty_set()).points() == ()


@pytest.mark.parametrize("x", spaces_up_to(), ids=lambda x: repr(x.points.covers()))
def test_kernel_collapse_and_bounds(x):
    for u in clop_upsets(x):
        k = kernel(x, u)
        assert k == u  # finite collapse
        assert k <= u


# -- Scott upsets and core -------------------------------------------------------


def test_scott_upset_examples():
    x = chain_space(2)
    assert is_scott_upset(x, x.points.full_set())
    assert is_scott_upset(x, x.points.subset([1]))
    assert not is_scott_upset(x, x.points.subset([0]))  # not an upset


def test_scott_binding():
    x, y = chain_space(2), chain_space(2)
    with pytest.raises(BindingError):
        is_scott_upset(x, y.points.full_set())


def test_core_examples():
    x = chain_space(2)
    assert core(x, x.points.full_set()) == x.points.full_set()
    assert core(x, x.points.subset([1])).points() == (1,)


@pytest.mark.parametrize("x", spaces_up_to(), ids=lambda x: repr(x.points.covers()))
def test_core_kernel_chain_and_scott_characterization(x):
    for u in clop_upsets(x):
        c, k = core(x, u), kernel(x, u)
        assert c <= k and k <= u
        assert c == k == u  # finite collapse
        assert is_scott_upset(x, u) == (core(x, u) == u)


@pytest.mark.parametrize("x", spaces_up_to(3), ids=lambda x: repr(x.points.covers()))
def test_core_and_kernel_monotone(x):
    ups = clop_upsets(x)
    for u in ups:
        for v in ups:
            if u <= v:
                assert core(x, u) <= core(x, v)
                assert kernel(x, u) <= kernel(x, v)


# -- regular part -------------------------------------------------------------------


def test_reg_part_examples():
    x = chain_space(2)
    top = x.points.subset([1])
    assert not clop_well_inside(x, top, top)
    assert reg_part(x, top).points() == ()
    assert reg_part(x, x.points.full_set()) == x.points.full_set()
    a = antichain_space(2)
    assert reg_part(a, a.points.subset([0])).points() == (0,)


# -- bisets and center -----------------------------------------------------------------


def test_biset_examples():
    x = chain_space(2)
    assert [b.points() for b in clopen_bisets(x)] == [(), (0, 1)]
    assert center(x, x.points.subset([1])).points() == ()
    a = antichain_space(2)
    assert len(clopen_bisets(a)) == 4
    assert center(a, a.points.subset([0])).points() == (0,)
    assert center(a, a.points.full_set()) == a.points.full_set()


@pytest.mark.parametrize("x", spaces_up_to(), ids=lambda x: repr(x.points.covers()))
def test_bisets_match_literal_up_and_down_closed_definition(x):
    points = x.points
    literal = sorted(
        m
        for m in range(1 << points.size)
        if points.up_mask(m) == m and points.down_mask(m) == m
    )
    assert sorted(clopen_biset_masks(x)) == literal
    # components partition the points
    comps = comparability_components(x)
    assert sum(comps) == x.full_mask if comps else x.full_mask == 0


# -- L-space predicates -------------------------------------------------------------


def test_lspace_predicate_examples():
    assert not lspace_predicate(chain_space(2), "zeroDimL")
    ok, witness = lspace_predicate_witness(chain_space(2), "zeroDimL")
    assert not ok and witness == {"upset": 0b10}
    for n in range(4):
        assert lspace_predicate(antichain_space(n), "stoneL")
    with pytest.raises(UnknownPredicate):
        lspace_predicate(chain_space(2), "mystery")


@pytest.mark.parametrize("x", spaces_up_to(), ids=lambda x: repr(x.points.covers()))
def test_lspace_finite_collapses(x):
    assert lspace_predicate(x, "continuousL")
    assert lspace_predicate(x, "algebraicL")
    assert lspace_predicate(x, "kernelStable")
    assert lspace_predicate(x, "lCompact")
    assert lspace_predicate(x, "arithmeticL")
    assert lspace_predicate(x, "coherentL")


@pytest.mark.parametrize("x", spaces_up_to(), ids=lambda x: repr(x.points.covers()))
def test_lspace_structural_relations(x):
    ups = clop_upsets(x)
    # cen U subset of reg U
    for u in ups:
        assert center(x, u) <= reg_part(x, u)
    # stoneL implies regular and L-compact
    if lspace_predicate(x, "stoneL"):
        assert lspace_predicate(x, "regularL")
        assert lspace_predicate(x, "lCompact")
        # clopen Scott upsets equal clopen bisets, and cen = core throughout
        assert sorted(m.mask for m in clop_scott_upsets(x)) == sorted(
            clopen_biset_masks(x)
        )
        for u in ups:
            assert center(x, u) == core(x, u)
    # algebraic + kernel-stable iff Scott upsets closed under intersection
    lhs = lspace_predicate(x, "algebraicL") and lspace_predicate(x, "kernelStable")
    scott = {m.mask for m in clop_scott_upsets(x)}
    rhs = all(a & b in scott for a in scott for b in scott)
    assert lhs == rhs


@pytest.mark.parametrize("x", spaces_up_to(), ids=lambda x: repr(x.points.covers()))
def test_vacuous_structure_predicates_hold(x):
    assert has_priestley_separation(x)


# -- maps ---------------------------------------------------------------------------


def test_map_predicate_identity():
    x = chain_space(2)
    ident = SpaceMap.identity(x)
    for name in ("lMorphism", "properL", "coherentL"):
        assert map_predicate(ident, name)
    assert ident.is_l_morphism and ident.is_proper and ident.is_coherent


def test_map_to_point_space_is_coherent():
    x = chain_space(2)
    point = chain_space(1)
    bang = SpaceMap.from_images(x, point, (0, 0))
    assert map_predicate(bang, "coherentL")
    assert map_predicate(bang, "properL")


def test_unknown_map_predicate():
    with pytest.raises(UnknownPredicate):
        map_predicate(SpaceMap.identity(chain_space(1)), "weird")


def test_space_map_composition():
    x, y = chain_space(2), antichain_space(2)
    f = SpaceMap.from_images(x, y, (0, 0))
    g = SpaceMap.from_images(y, x, (1, 1))
    gf = compose_space_maps(g, f)
    assert gf.mapping.image == (1, 1)


@pytest.mark.parametrize("x", spaces_up_to(3), ids=lambda x: repr(x.points.covers()))
def test_all_monotone_maps_are_proper_and_coherent(x):
    for y in spaces_up_to(3):
        for f in monotone_space_maps(x, y):
            assert map_predicate(f, "lMorphism")
            assert map_predicate(f, "properL")
            assert map_predicate(f, "coherentL")


# -- point-space predicates ------------------------------------------------------------


def test_point_space_examples():
    _, two_chain = spatial_part(chain_space(2))
    assert point_space_predicate(two_chain, "sober")
    assert point_space_predicate(two_chain, "compactlyBased")
    assert not point_space_predicate(two_chain, "stoneSpace")
    assert not point_space_predicate(two_chain, "hausdorff")
    for n in range(4):
        _, anti = spatial_part(antichain_space(n))
        assert point_space_predicate(anti, "stoneSpace")
    with pytest.raises(UnknownPredicate):
        point_space_predicate(two_chain, "metrizable")


@pytest.mark.parametrize("x", spaces_up_to(), ids=lambda x: repr(x.points.covers()))
def test_point_space_finite_facts(x):
    _, ps = spatial_part(x)
    assert point_space_predicate(ps, "sober")
    assert point_space_predicate(ps, "compactlyBased")
    assert point_space_predicate(ps, "stablyCompactlyBased")
    assert point_space_predicate(ps, "spectral")
    assert point_space_predicate(ps, "compact")
    # irreducible closed sets are exactly the point downsets
    from framelab.spaces import _irreducible_closed_sets

    expected = sorted({x.points.down[p] for p in range(x.size)})
    assert sorted(_irreducible_closed_sets(ps)) == expected


@pytest.mark.parametrize("x", spaces_up_to(), ids=lambda x: repr(x.points.covers()))
def test_zero_dimensionality_transfers_between_space_and_points(x):
    _, ps = spatial_part(x)
    assert lspace_predicate(x, "zeroDimL") == point_space_predicate(
        ps, "zeroDimensional"
    )
    # finite Hausdorff coincides with a discrete order
    discrete = all(
        not x.points.leq(i, j)
        for i in range(x.size)
        for j in range(x.size)
        if i != j
    )
    assert point_space_predicate(ps, "hausdorff") == discrete


def test_space_doc_round_trip():
    x = FinPriestley(Poset.from_covers([(0, 1)], 2))
    doc = x.to_doc()
    assert doc == {"priestley": {"size": 2, "covers": [[0, 1]]}}
    again = FinPriestley.from_doc(doc)
    assert again.points.up == x.points.up
