"""The upsets, the operator tables and kernel stability against their
literal definitions.

The references below are the pairwise quantifiers written out directly from
the relation of the points: the upsets filter all 2^n subsets, way-below
scans every clopen upset W above U, a Scott upset has every minimal point
spatial (every point is), well-inside takes the downset of V point by
point, a clopen biset is an upset that is also a downset, and kernel
stability, a topology's unions and intersections and a Scott family's
meets scan every pair. They use no helper of `framelab.spaces`.

Three pair checks take one route on spaces of at most 8 points, where
every set is a byte and a row of pairs is checked whole, and another on
larger ones: kernel stability, the topology check of `PointSpace` and the
scottStable closure under meets. The random posets have 8 to 10 points, so
both routes meet the references, on true tables and on planted failures.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framelab import CapacityError, Poset
from framelab import duality, spaces
from framelab.corpus import gen_corpus
from framelab.duality import priestley_space_of
from framelab.lattices import birkhoff_lattice
from framelab.posets import upset_masks
from framelab.spaces import (
    PointSpace,
    _upsets_above_meet,
    clop_scott_upset_masks,
    clop_upset_masks,
    lspace_predicate_witness,
    reg_part,
)


def _members(mask, n):
    return [i for i in range(n) if (mask >> i) & 1]


def _ref_order(masks, n):
    """The masks by size and then by sorted members."""
    return sorted(masks, key=lambda m: (len(_members(m, n)), _members(m, n)))


def _ref_upsets(poset):
    """Every upset of the points, by size and then by sorted members."""
    n = poset.size
    return _ref_order(
        [m for m in range(1 << n) if all(poset.up[i] & ~m == 0 for i in _members(m, n))], n
    )


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


def _ref_unclosed_pair(opens, n):
    """The first pair a, b of the opens, a before b by size and members,
    whose union or intersection is not an open, or None."""
    family, members = _ref_order(set(opens), n), set(opens)
    for i, a in enumerate(family):
        for b in family[i + 1:]:
            if a | b not in members or a & b not in members:
                return a, b
    return None


def _check_topology(poset, opens):
    """`PointSpace` accepts the opens, or names the reference's first pair."""
    pair = _ref_unclosed_pair(opens, poset.size)
    if pair is None:
        assert PointSpace(poset, opens).opens == tuple(_ref_order(set(opens), poset.size))
    else:
        with pytest.raises(ValueError, match=f"opens {pair[0]:#b} and {pair[1]:#b} lack"):
            PointSpace(poset, opens)


def _planted_kernel_stable(poset, ker):
    """kernelStable on a fresh copy of the poset whose `_kernel_table` memo is
    `ker`, against the reference over the same table."""
    copy = Poset(poset.up)
    copy._memo[spaces._kernel_table] = tuple(ker)
    ups = clop_upset_masks(copy)
    expected = _ref_kernel_stable(ups, dict(zip(ups, ker)).__getitem__)
    assert lspace_predicate_witness(copy, "kernelStable") == expected
    return expected


def _planted_scott_stable(lattice, family):
    """The scottStable validator with `family` read as the Scott upsets of the
    lattice's dual space, after its premise is decided on the true ones,
    against every pair of the family."""
    space = priestley_space_of(lattice).space
    premise = (lspace_predicate_witness(space, "algebraicL")[0]
               and lspace_predicate_witness(space, "kernelStable")[0])
    memo, key = space._memo, clop_scott_upset_masks
    true_family = memo.get(key)
    memo[key] = tuple(family)
    try:
        members = set(family)
        closed = all(a & b in members for a in family for b in family)
        expected = None if closed == premise else {"sides": [premise, closed]}
        assert duality._v_scott_stable(lattice, None, 0) == expected
    finally:
        memo[key] = true_family
        if true_family is None:
            del memo[key]
    return expected


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
    # the upsets are a topology; without one member they may not be
    _check_topology(space, ups)
    for drop in ups[1:-1:max(1, len(ups) // 3)]:
        _check_topology(space, [m for m in ups if m != drop])
    # a kernel table wrong at one upset, read as the one before it
    for j in range(1, len(ups), max(1, len(ups) // 3)):
        _planted_kernel_stable(space, [kernels[m] for m in ups[:j]] + [ups[j - 1]]
                               + [kernels[m] for m in ups[j + 1:]])
    # the Scott upsets are closed under meets; without one member they may not be
    lattice = birkhoff_lattice(space)
    dual = priestley_space_of(lattice).space
    family = _ref_scott_upsets(dual, _ref_upsets(dual))
    assert _planted_scott_stable(lattice, family) is None
    for drop in family[::max(1, len(family) // 3)]:
        _planted_scott_stable(lattice, [m for m in family if m != drop])
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
@given(random_posets(8, 10).filter(upsets_fit_a_lattice))
def test_operators_match_references_on_random_posets(poset):
    _check_against_references(poset)


# two spaces, of 8 points and of 9: the ninth point lies below every other,
# so the upsets of the second are those of the first, mask for mask, and the
# whole set after them, and a pair check fails at the same pair on the byte
# route of the first and the pair loop of the second
_COVERS = [(0, 1), (2, 3)]
_BYTE_SPACE = Poset.from_covers(_COVERS, 8)
_LOOP_SPACE = Poset.from_covers(_COVERS + [(8, i) for i in range(8)], 9)


def test_the_two_spaces_share_their_upsets():
    ups = clop_upset_masks(_BYTE_SPACE)
    assert clop_upset_masks(_LOOP_SPACE) == ups + (0x1FF,)
    assert len(ups) == 144


def test_a_planted_kernel_fails_at_the_same_pair_on_both_routes():
    ups = clop_upset_masks(_BYTE_SPACE)
    # the true kernels of a finite space are the upsets; read {0, 1} as ∅, so
    # the first pair to fail is {1} ∩ {0, 1} = {1} (0 lies below 1)
    wrong = [0 if m == 0b11 else m for m in ups]
    byte_route = _planted_kernel_stable(_BYTE_SPACE, wrong)
    loop_route = _planted_kernel_stable(_LOOP_SPACE, wrong + [0x1FF])
    assert byte_route == loop_route == (False, {"upsets": (0b10, 0b11)})


def test_an_opens_family_missing_one_union_fails_at_the_same_pair_on_both_routes():
    # {0, 1} ∪ {4} = {0, 1, 4} is gone, and so is every pair meeting in it
    opens = [m for m in clop_upset_masks(_BYTE_SPACE) if m != 0b10011]
    pair = _ref_unclosed_pair(opens, 8)
    assert pair == (0b10000, 0b11)
    _check_topology(_BYTE_SPACE, opens)
    _check_topology(_LOOP_SPACE, opens + [0x1FF])
    # an intersection alone missing: {1, 4} ∩ {1, 5} = {1}, every union held
    opens = [0, 0b10010, 0b100010, 0b110010, 0xFF]
    assert _ref_unclosed_pair(opens, 8) == (0b10010, 0b100010)
    _check_topology(_BYTE_SPACE, opens)
    _check_topology(_LOOP_SPACE, opens + [0x1FF])


def test_a_scott_family_missing_one_meet_fails_on_both_routes():
    # the meet of the first two members, {0, 1} ∧ {1, 2} = {1}, is the only
    # one missing, and a family that holds it is closed
    for points, extra in ((_BYTE_SPACE, []), (_LOOP_SPACE, [0x1FF])):
        lattice = birkhoff_lattice(points)
        family = [0b011, 0b110, 0b111] + extra
        assert _planted_scott_stable(lattice, family) == {"sides": [True, False]}
        assert _planted_scott_stable(lattice, [0b010] + family) is None


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
