"""The upsets, the operator tables and kernel stability against their
literal definitions.

The references below are the pairwise quantifiers written out directly from
the relation of the points: the upsets filter all 2^n subsets, way-below
scans every clopen upset W above U, a Scott upset has every minimal point
spatial (every point is), well-inside takes the downset of V point by
point, a clopen biset is an upset that is also a downset, and kernel
stability scans every ordered pair in row-major order. They use no helper
of `framelab.spaces`.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framelab import CapacityError, Poset
from framelab import spaces
from framelab.corpus import gen_corpus
from framelab.posets import upset_masks
from framelab.spaces import (
    _upsets_above_meet,
    clop_upset_masks,
    lspace_predicate_witness,
    reg_part,
)


def _members(mask, n):
    return [i for i in range(n) if (mask >> i) & 1]


def _ref_upsets(poset):
    """Every upset of the points, by size and then by sorted members."""
    n = poset.size
    ups = [
        m
        for m in range(1 << n)
        if all(poset.up[i] & ~m == 0 for i in _members(m, n))
    ]
    return sorted(ups, key=lambda m: (len(_members(m, n)), _members(m, n)))


def _ref_way_below(above, vm):
    return all(vm & ~w == 0 for w in above)


def _ref_kernels(ups):
    kernels = {}
    for um in ups:
        above = [w for w in ups if um & ~w == 0]
        out = 0
        for vm in ups:
            if _ref_way_below(above, vm):
                out |= vm
        kernels[um] = out
    return kernels


def _ref_downset(poset, vm):
    n = poset.size
    out = 0
    for x in range(n):
        if any((poset.up[x] >> y) & 1 for y in _members(vm, n)):
            out |= 1 << x
    return out


def _ref_reg(ups, downsets, um):
    out = 0
    for vm in ups:
        if downsets[vm] & ~um == 0:
            out |= vm
    return out


def _ref_union_inside(family, um):
    out = 0
    for vm in family:
        if vm & ~um == 0:
            out |= vm
    return out


def _ref_scott_upsets(poset, ups):
    # the minimal points of U are those with no other point of U below them
    n = poset.size
    spatial = (1 << n) - 1
    return [
        um for um in ups
        if all((spatial >> x) & 1 for x in _members(um, n)
               if not any(y != x and (poset.up[y] >> x) & 1 for y in _members(um, n)))
    ]


def _ref_kernel_stable(ups, ker):
    for um in ups:
        for vm in ups:
            if ker(um & vm) != ker(um) & ker(vm):
                return False, {"upsets": (um, vm)}
    return True, None


def _check_against_references(space, full_pairs=False):
    ups = _ref_upsets(space)
    assert upset_masks(space) == tuple(ups)
    assert list(clop_upset_masks(space)) == ups
    kernels = _ref_kernels(ups)
    downsets = {vm: _ref_downset(space, vm) for vm in ups}
    scott = _ref_scott_upsets(space, ups)
    bisets = [vm for vm in ups if downsets[vm] == vm]
    for um in ups:
        assert spaces._kernel_mask(space, um) == kernels[um]
        assert reg_part(space, um) == _ref_reg(ups, downsets, um)
    assert spaces._core_table(space) == tuple(_ref_union_inside(scott, um) for um in ups)
    assert spaces._center_table(space) == tuple(_ref_union_inside(bisets, um) for um in ups)
    assert lspace_predicate_witness(space, "kernelStable") == _ref_kernel_stable(
        ups, kernels.__getitem__
    )
    if full_pairs:
        for um in ups:
            above = [w for w in ups if um & ~w == 0]
            meet = _upsets_above_meet(ups, um, space.full_mask)
            for vm in ups:
                assert (vm & ~meet == 0) == _ref_way_below(above, vm)


def test_operators_match_references_on_the_corpus():
    for entry in gen_corpus(4).entries:
        _check_against_references(entry.space, full_pairs=True)


@st.composite
def random_posets(draw, low, high):
    """Posets of low..high points, each pair i < j a cover with one
    probability drawn per example, so sparse and wide orders are drawn as
    well as dense ones (a fixed 1/2 closes to a dense order almost always)."""
    n = draw(st.integers(low, high))
    density = draw(st.sampled_from((0.1, 0.2, 0.35, 0.5)))
    # a seeded standard Random: hypothesis's own random() favours special
    # floats such as 0.0, which would keep almost every pair
    rng = draw(st.randoms(use_true_random=True))
    return Poset.from_covers(
        [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density], n
    )


def upsets_fit_a_lattice(poset):
    """Whether the poset has at most 256 upsets, the most a lattice holds:
    `upset_masks` refuses a larger family with CapacityError."""
    try:
        upset_masks(poset)
    except CapacityError:
        return False
    return True


@settings(max_examples=50, deadline=None)
@given(random_posets(9, 10).filter(upsets_fit_a_lattice))
def test_operators_match_references_on_random_posets(poset):
    _check_against_references(poset)


def _wrong_at(mask):
    """A table builder that reads every upset as itself but `mask` as 0."""
    return lambda s: tuple(0 if m == mask else m for m in clop_upset_masks(s))


def test_kernel_stable_witness_is_the_first_failing_pair(monkeypatch):
    # a kernel that is wrong only at {0} fails only for the two orders of
    # ({0, 1}, {0, 2}), the one pair of upsets meeting in {0}
    space = Poset.antichain(3)
    ups = clop_upset_masks(space)
    monkeypatch.setattr(spaces, "_kernel_table", _wrong_at(0b001))
    failing = [
        (um, vm) for um in ups for vm in ups
        if spaces._kernel_mask(space, um & vm)
        != spaces._kernel_mask(space, um) & spaces._kernel_mask(space, vm)
    ]
    assert failing == [(0b011, 0b101), (0b101, 0b011)]
    assert lspace_predicate_witness(space, "kernelStable") == (
        False, {"upsets": failing[0]}
    )



_DENSITY = {
    "continuousL": "_kernel_table",
    "algebraicL": "_core_table",
    "regularL": "_reg_table",
    "zeroDimL": "_center_table",
}


@pytest.mark.parametrize("name", sorted(_DENSITY))
def test_density_sweep_names_the_upset_its_table_gets_wrong(name, monkeypatch):
    # on an antichain all four operators fix every upset, so each density
    # predicate holds until its own table is wrong at one upset, {0, 2}, which
    # comes after {0}, {1}, {2} and {0, 1} in canonical order
    space = Poset.antichain(3)
    assert [lspace_predicate_witness(space, n) for n in sorted(_DENSITY)] == [(True, None)] * 4
    space = Poset.antichain(3)
    monkeypatch.setattr(spaces, _DENSITY[name], _wrong_at(0b101))
    for other in _DENSITY:
        expected = (False, {"upset": 0b101}) if other == name else (True, None)
        assert lspace_predicate_witness(space, other) == expected
