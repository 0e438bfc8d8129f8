"""Frame and point-space kernels against the literal loops they replaced.

Each reference below is the plain loop the kernel stands for: the Birkhoff
tables compare, join and meet every pair of upsets; arithmetic
scans every triple a, b, c with b, c ∈ ↟a; the ideals are grown from the
bottom by a closure step that ORs the rows over every member; spatial keys
each element by a tuple; the pseudocomplement joins its row afresh;
compactlyBased and hausdorff quantify over the opens point by point; the
irreducible closed sets try every pair of proper closed subsets, and sober
lists each closed set's generic points; s4 of scottExtensions scans
`inside` for every Scott upset. Each kernel must return the same
`(ok, witness)` as its reference, on failing inputs too, so the first
witness in the reference's order is the one reported.
"""

import random

import pytest

from framelab import ConsistencyError, Poset, enumerate_posets
from framelab import duality, lattices, spaces
from framelab.corpus import gen_corpus
from framelab.duality import priestley_space_of
from framelab.lattices import (
    all_ideals,
    birkhoff_lattice,
    pseudocomplement,
)
from framelab.posets import bits, upset_masks
from framelab.spaces import (
    PointSpace,
    _core_mask,
    _kernel_mask,
    clop_scott_upset_masks,
    clop_upset_masks,
    lspace_predicate_witness,
    point_space_predicate_witness,
    spatial_mask,
    spatial_part,
)

from test_lattices import m3, n5

_ENTRIES = gen_corpus(5).entries


# -- references --------------------------------------------------------------


def _ref_birkhoff(points):
    """The tables of the upset lattice, one pair of upsets at a time."""
    masks = upset_masks(points)
    index = {m: i for i, m in enumerate(masks)}
    up = tuple(sum(1 << j for j, b in enumerate(masks) if not a & ~b) for a in masks)
    down = tuple(sum(1 << j for j, b in enumerate(masks) if not b & ~a) for a in masks)
    join = tuple(bytes(index[a | b] for b in masks) for a in masks)
    meet = tuple(bytes(index[a & b] for b in masks) for a in masks)
    return up, down, join, meet, index[0], index[points.full_mask]


def _ref_arithmetic(lattice):
    ok, w = lattices._frame_predicate_witness(lattice, "algebraic")
    if not ok:
        return ok, w
    rows = lattices.way_below_rows_oracle(lattice)
    for a in range(lattice.size):
        above = bits(rows[a])
        for b in above:
            for c in above:
                if not (rows[a] >> lattice.meet[b][c]) & 1:
                    return False, {"triple": (a, b, c)}
    return True, None


def _ref_closure(lattice, seed, table, rows):
    seen = {seed}
    frontier = [seed]
    while frontier:
        current = frontier.pop()
        for x in bits(lattice.full_mask & ~current):
            grown = 0
            for f in bits(current):
                grown |= rows[table[x][f]]
            if grown not in seen:
                seen.add(grown)
                frontier.append(grown)
    return sorted(seen)


def _ref_spatial(lattice):
    primes = lattices.prime_filters(lattice)
    classes = {}
    for a in range(lattice.size):
        classes.setdefault(tuple((f >> a) & 1 for f in primes), []).append(a)
    pairs = [tuple(c[:2]) for c in classes.values() if len(c) > 1]
    return (False, {"pair": min(pairs)}) if pairs else (True, None)


def _ref_pseudocomplement(lattice, a):
    row = lattice.meet[a]
    star = lattice.join_of(x for x in range(lattice.size) if row[x] == lattice.bottom)
    if row[star] != lattice.bottom:
        raise ConsistencyError("a ∧ a* != 0")
    return star


def _ref_compactly_based(point_space):
    opens = point_space.opens
    for o in opens:
        for y in bits(o):
            if not any((b >> y) & 1 and b & ~o == 0 for b in opens):
                return False, {"open": o, "point": y}
    return True, None


def _ref_hausdorff(point_space):
    opens = point_space.opens
    n = point_space.poset.size
    for x in range(n):
        for y in range(x + 1, n):
            if not any(
                (u >> x) & 1 and (v >> y) & 1 and u & v == 0
                for u in opens
                for v in opens
            ):
                return False, {"points": (x, y)}
    return True, None


def _ref_irreducible_closed_sets(point_space):
    closed = point_space.closed_sets()
    return [
        c for c in closed
        if c and not any(
            a | b == c
            for a in closed if a != c and a & ~c == 0
            for b in closed if b != c and b & ~c == 0
        )
    ]


def _ref_sober(point_space):
    for c in _ref_irreducible_closed_sets(point_space):
        generic = [y for y in bits(c) if point_space.point_closure(y) == c]
        if len(generic) != 1:
            return False, {"closed": c}
    return True, None


def _closed_family(opens):
    """The least family holding `opens` and closed under binary unions and
    intersections, as the opens of a point space must be."""
    opens = set(opens)
    while True:
        grown = opens | {a | b for a in opens for b in opens}
        grown |= {a & b for a in opens for b in opens}
        if grown == opens:
            return opens
        opens = grown


def _random_topology(rng, n):
    # a few random opens with the empty set and the whole space, closed
    # under unions and intersections
    return _closed_family(
        {0, (1 << n) - 1} | {rng.getrandbits(n) for _ in range(rng.randint(0, 4))}
    )


def _ref_scott_extensions(lattice):
    space = priestley_space_of(lattice).space
    continuous, _ = lspace_predicate_witness(space, "continuousL")
    if not continuous:
        return None
    scott = clop_scott_upset_masks(space)
    for um in clop_upset_masks(space):
        ker_m = _kernel_mask(space, um)
        core_m = _core_mask(space, um)
        inside = [v for v in scott if v & ~um == 0]
        covered = 0
        for v in inside:
            covered |= v
        sides = [
            ker_m == core_m,
            core_m == um,
            um & spatial_mask(space) & ~covered == 0,
            all(any(f & ~v == 0 for v in inside) for f in scott if f & ~ker_m == 0),
        ]
        if len(set(sides)) > 1:
            return {"upset": um, "sides": sides}
    return None


def _point_kernel(point_space, name):
    # unmemoized, so a second call on the same space evaluates again
    return spaces._point_space_predicate_witness(point_space, name)


# -- the corpus ----------------------------------------------------------------


def _shuffled_posets(seed, count):
    """Random posets of 9-16 points with at most 256 upsets (the widest
    lattice a bytes row holds), their labels shuffled, so a point is not
    always numbered below the points above it."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = 9 + len(out) % 8
        density = rng.choice((0.15, 0.3, 0.5))
        perm = list(range(n))
        rng.shuffle(perm)
        p = Poset.from_covers([(perm[i], perm[j]) for i in range(n) for j in range(i + 1, n)
                               if rng.random() < density], n)
        if len(upset_masks(p)) <= 256:
            out.append(p)
    return out


def test_birkhoff_tables_match_the_pairwise_definitions():
    # every n <= 6 corpus poset is labelled along its order, so the shuffled
    # ones, and the two points of 1 < 0, are what tell a minimal point of an
    # upset from its lowest-numbered one
    posets = [p for n in range(7) for p in enumerate_posets(n)]
    shuffled = [Poset.from_covers([(1, 0)], 2)] + _shuffled_posets(27, 48)
    assert any(p.up[i] & ((1 << i) - 1) for p in shuffled for i in range(p.size))
    for p in posets + [Poset.antichain(8)] + shuffled:
        lat = birkhoff_lattice(p)
        tables = (lat.up, lat.down, lat.join, lat.meet, lat.bottom, lat.top)
        assert tables == _ref_birkhoff(p), p.up


def test_lattice_kernels_match_references_on_the_corpus():
    for entry in _ENTRIES:
        lat = entry.lattice
        assert lattices._frame_predicate_witness(lat, "arithmetic") == _ref_arithmetic(lat)
        assert lattices._frame_predicate_witness(lat, "spatial") == _ref_spatial(lat)
        for a in range(lat.size):
            assert pseudocomplement(lat, a) == _ref_pseudocomplement(lat, a)
        assert duality._v_scott_extensions(lat, None, 0) == _ref_scott_extensions(lat)


def test_point_space_kernels_match_references_on_the_corpus():
    for entry in _ENTRIES:
        ps = spatial_part(entry.space)
        assert _point_kernel(ps, "compactlyBased") == _ref_compactly_based(ps)
        assert _point_kernel(ps, "hausdorff") == _ref_hausdorff(ps)


@pytest.mark.parametrize("make", [m3, n5])
def test_ideals_and_filters_match_the_full_closure_off_the_corpus(make):
    lat = make()
    assert all_ideals(lat) == tuple(_ref_closure(lat, lat.down[lat.bottom], lat.join, lat.down))


def test_ideals_and_filters_match_the_full_closure_on_the_corpus():
    for entry in _ENTRIES:
        lat = entry.lattice
        assert all_ideals(lat) == tuple(_ref_closure(lat, lat.down[lat.bottom], lat.join, lat.down))


# -- failing inputs -----------------------------------------------------------------


def _random_subrows(lat, rng, keep):
    """Each row a subset of ↑a that keeps a, so every element stays compact
    and `algebraic` holds; dropping members breaks closure under meets."""
    rows = []
    for a in range(lat.size):
        kept = [b for b in bits(lat.up[a]) if b == a or rng.random() < keep]
        rows.append(sum(1 << b for b in kept))
    return tuple(rows)


def test_arithmetic_kernel_matches_reference_on_broken_way_below_rows(monkeypatch):
    rng = random.Random(17)
    lats = [e.lattice for e in _ENTRIES if e.lattice.size >= 4] + [m3(), n5()]
    outcomes = set()
    for lat in lats:
        for keep in (0.5, 0.9):
            rows = _random_subrows(lat, rng, keep)
            monkeypatch.setattr(lattices, "way_below_rows_oracle", lambda _l, r=rows: r)
            expected = _ref_arithmetic(lat)
            assert lattices._frame_predicate_witness(lat, "arithmetic") == expected
            outcomes.add(expected[0])
    assert outcomes == {True, False}


def test_arithmetic_at_256_elements_matches_reference(monkeypatch):
    # the widest lattice a bytes row holds; sparse rows keep the reference's
    # triple scan small
    lat = birkhoff_lattice(Poset.antichain(8))
    rng = random.Random(3)
    for _ in range(3):
        rows = _random_subrows(lat, rng, 0.01)
        monkeypatch.setattr(lattices, "way_below_rows_oracle", lambda _l, r=rows: r)
        expected = _ref_arithmetic(lat)
        assert not expected[0]
        assert lattices._frame_predicate_witness(lat, "arithmetic") == expected
    monkeypatch.setattr(lattices, "way_below_rows_oracle",
                        lambda _l: tuple(1 << a for a in range(lat.size)))
    assert lattices._frame_predicate_witness(lat, "arithmetic") == (True, None)


def test_arithmetic_witness_is_not_the_first_triple(monkeypatch):
    # on the 2-antichain's lattice 0 < 1, 2 < 3, drop 0 from ↟0: (0, 1, 1)
    # passes, and the first failing triple is (0, 1, 2), whose meet is 0
    lat = birkhoff_lattice(Poset.antichain(2))
    rows = (0b1110,) + tuple(lat.up[1:])
    monkeypatch.setattr(lattices, "way_below_rows_oracle", lambda _l: rows)
    assert _ref_arithmetic(lat) == (False, {"triple": (0, 1, 2)})
    assert lattices._frame_predicate_witness(lat, "arithmetic") == _ref_arithmetic(lat)


def test_spatial_kernel_matches_reference_with_missing_prime_filters(monkeypatch):
    for entry in _ENTRIES:
        lat = entry.lattice
        primes = lattices.prime_filters(lat)
        for drop in range(len(primes)):
            kept = primes[:drop] + primes[drop + 1:]
            monkeypatch.setattr(lattices, "prime_filters", lambda _l, k=kept: list(k))
            expected = _ref_spatial(lat)
            assert not expected[0]
            assert lattices._frame_predicate_witness(lat, "spatial") == expected
            monkeypatch.undo()


def test_pseudocomplement_raises_only_for_its_own_element():
    lat = m3()
    # the three atoms fail a ∧ a* = 0; the bounds do not, in either order
    assert pseudocomplement(lat, 0) == 4
    for a in (1, 2, 3):
        with pytest.raises(ConsistencyError):
            pseudocomplement(lat, a)
        with pytest.raises(ConsistencyError):
            _ref_pseudocomplement(lat, a)
    assert pseudocomplement(lat, 4) == 0
    assert pseudocomplement(lat, 0) == 4
    lat = n5()
    assert [pseudocomplement(lat, a) for a in range(5)] == [
        _ref_pseudocomplement(lat, a) for a in range(5)
    ]


def test_hausdorff_witness_is_past_the_first_pair():
    # 2 and 3 are separated by {2, 4} and {3}; every open holding 2 holds 4
    ps = PointSpace(Poset.antichain(5), _closed_family([0b1, 0b10, 0b1000, 0b10100]))
    assert _ref_hausdorff(ps) == (False, {"points": (2, 4)})
    assert point_space_predicate_witness(ps, "hausdorff") == _ref_hausdorff(ps)
    # the Sierpinski space: the only open holding 0 is the whole space
    ps = PointSpace(Poset.chain(2), [0, 0b10, 0b11])
    assert point_space_predicate_witness(ps, "hausdorff") == (False, {"points": (0, 1)})
    # four points where only 2 and 3 fail to separate
    ps = PointSpace(Poset.antichain(4), _closed_family([0b1, 0b10, 0b1100]))
    assert point_space_predicate_witness(ps, "hausdorff") == (False, {"points": (2, 3)})


def test_point_space_kernels_match_references_on_random_open_families():
    # compactlyBased holds on every family: each open o is among the opens
    # inside o, so the union covers o; hausdorff fails on most of them
    rng = random.Random(5)
    witnesses = set()
    for _ in range(300):
        n = rng.randint(1, 6)
        opens = _closed_family(
            {0, (1 << n) - 1} | {rng.getrandbits(n) for _ in range(rng.randint(1, 8))}
        )
        ps = PointSpace(Poset.antichain(n), opens)
        assert _point_kernel(ps, "compactlyBased") == _ref_compactly_based(ps) == (True, None)
        expected = _ref_hausdorff(ps)
        assert _point_kernel(ps, "hausdorff") == expected
        witnesses.add(expected[1] and expected[1]["points"])
    # passing families, and failing ones at many first pairs
    assert None in witnesses and len(witnesses) > 8


def test_irreducible_closed_sets_and_sober_match_references_on_random_topologies():
    rng = random.Random(22)
    outcomes = set()
    for _ in range(300):
        n = rng.randint(1, 6)
        ps = PointSpace(Poset.antichain(n), _random_topology(rng, n))
        assert spaces._irreducible_closed_sets(ps) == _ref_irreducible_closed_sets(ps)
        expected = _ref_sober(ps)
        assert _point_kernel(ps, "sober") == expected
        outcomes.add(expected[0])
    # sober spaces, and ones where an irreducible closed set has two or more
    # generic points (a finite one always has at least one)
    assert outcomes == {True, False}
