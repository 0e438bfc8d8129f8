"""Poset substrate: construction, closures, upset families, enumeration.

Sets of points are int masks, bit i for point i."""

import itertools
import random

import pytest

from framelab import (
    CapacityError,
    CycleError,
    MonotoneMap,
    Poset,
    enumerate_posets,
    monotone_maps,
)
from framelab import config, posets, spaces
from framelab.posets import bits, iter_monotone_maps, popcount, upset_masks
from framelab.spaces import is_scott_upset


def small_posets(max_size=4):
    out = []
    for n in range(max_size + 1):
        out.extend(enumerate_posets(n))
    return out


def _relabel(p, perm):
    """Copy of p with point i renamed to perm[i]."""
    up = [0] * p.size
    for i in range(p.size):
        for j in bits(p.up[i]):
            up[perm[i]] |= 1 << perm[j]
    return Poset(up)


# -- construction -----------------------------------------------------------


def test_make_antichain_from_empty_covers():
    p = Poset.from_covers([], 2)
    assert p.size == 2
    assert not p.leq(0, 1) and not p.leq(1, 0)
    assert p.leq(0, 0) and p.leq(1, 1)


def test_make_two_chain():
    p = Poset.from_covers([(0, 1)], 2)
    assert p.leq(0, 1) and not p.leq(1, 0)


def test_cycle_is_rejected():
    with pytest.raises(CycleError):
        Poset.from_covers([(0, 1), (1, 0)], 2)
    with pytest.raises(CycleError):
        Poset.from_covers([(0, 1), (1, 2), (2, 0)], 3)


def test_out_of_range_cover_is_rejected():
    with pytest.raises(ValueError):
        Poset.from_covers([(0, 2)], 2)


@pytest.mark.parametrize(
    "up, message",
    [
        ((0b1, 0b110), "outside"),
        ((0b1, 0b0), "reflexive"),
        ((0b11, 0b11), "antisymmetric"),
        ((0b011, 0b110, 0b100), "transitive"),
    ],
    ids=["outside", "not-reflexive", "not-antisymmetric", "not-transitive"],
)
def test_up_rows_that_are_not_a_partial_order_are_refused(up, message):
    with pytest.raises(ValueError, match=message):
        Poset(up)


def test_out_of_range_order_pair_is_rejected():
    with pytest.raises(ValueError):
        Poset.from_leq_pairs([(0, 2)], 2)


@pytest.mark.parametrize(
    "item",
    [(True, 1), (0.5, 1), ("0", 1), None, 5, (0, 1, 2), (0, 3), (-1, 0)],
    ids=["bool", "float", "str", "none", "not-a-pair", "triple", "out-of-range", "negative"],
)
@pytest.mark.parametrize("build", [Poset.from_covers, Poset.from_leq_pairs],
                         ids=["covers", "leq-pairs"])
def test_pair_constructors_refuse_an_item_that_is_not_a_pair_of_points(build, item):
    # the cover (True, 1) was dropped as a loop on the point 1, 0.5 raised
    # TypeError and (0, 3) IndexError
    with pytest.raises(ValueError, match="is not a pair of points in 0..2"):
        build([(0, 1), item], 3)


def test_pair_constructors_read_a_generator_of_pairs():
    chain = Poset.chain(4)
    assert Poset.from_covers(((i, i + 1) for i in range(3)), 4).up == chain.up
    pairs = ((i, j) for i in range(4) for j in range(i, 4))
    assert Poset.from_leq_pairs(pairs, 4).up == chain.up


@pytest.mark.parametrize("bad", [-1, 3, True, 10 ** 6])
@pytest.mark.parametrize("call", [
    lambda p, bad: p.leq(bad, 0),
    lambda p, bad: p.leq(0, bad),
    lambda p, bad: p.lower_covers(bad),
], ids=["leq-first", "leq-second", "lower-covers"])
def test_leq_and_lower_covers_refuse_a_non_point(call, bad):
    # -1 would read the top's row, leq(0, 10**6) would read False, and True
    # would read as the point 1
    p = Poset.chain(3)
    with pytest.raises(ValueError, match="is not an element of 0..2"):
        call(p, bad)
    assert p.leq(0, 2) and not p.leq(2, 0) and p.lower_covers(2) == [1]


def test_transitive_closure_of_covers():
    p = Poset.from_covers([(0, 1), (1, 2)], 3)
    assert p.leq(0, 2)
    assert p.covers() == ((0, 1), (1, 2))


def test_empty_poset_is_first_class():
    p = Poset.empty()
    assert p.size == 0
    assert upset_masks(p) == (0,)
    assert p.canonical_key() == Poset.empty().canonical_key()


def test_self_cover_is_ignored():
    p = Poset.from_covers([(0, 0)], 1)
    assert p.size == 1 and p.leq(0, 0)


# -- closures ----------------------------------------------------------------


def test_up_closure_on_two_chain():
    p = Poset.chain(2)
    assert p.up_mask(0b01) == 0b11
    assert p.down_mask(0b10) == 0b11


def test_up_closure_on_antichain_is_identity():
    p = Poset.antichain(2)
    assert p.up_mask(0b01) == 0b01


@pytest.mark.parametrize("p", small_posets(), ids=lambda p: repr(p.covers()))
def test_closure_operator_laws(p):
    # up_mask and down_mask are extensive, idempotent and monotone
    for close in (p.up_mask, p.down_mask):
        for mask in range(1 << p.size):
            c = close(mask)
            assert mask & ~c == 0
            assert close(c) == c
            for other in range(1 << p.size):
                if mask & ~other == 0:
                    assert c & ~close(other) == 0


# -- upset families -----------------------------------------------------------


def test_all_upsets_examples():
    assert upset_masks(Poset.empty()) == (0,)
    assert upset_masks(Poset.antichain(2)) == (0b00, 0b01, 0b10, 0b11)
    # derived by brute force: filter all four subsets of the 2-chain
    chain = Poset.chain(2)
    expected = [
        m for m in range(4) if all(
            chain.leq(i, j) <= ((m >> j) & 1 or not (m >> i) & 1)
            for i in range(2)
            for j in range(2)
        )
    ]
    assert sorted(upset_masks(chain)) == expected
    assert upset_masks(chain) == (0b00, 0b10, 0b11)


@pytest.mark.parametrize("n", range(5))
def test_upset_counts_for_chains_and_antichains(n):
    assert len(upset_masks(Poset.chain(n))) == n + 1
    assert len(upset_masks(Poset.antichain(n))) == 2 ** n


@pytest.mark.parametrize("p", small_posets(), ids=lambda p: repr(p.covers()))
def test_upsets_form_bounded_distributive_family(p):
    fam = set(upset_masks(p))
    assert 0 in fam and p.full_mask in fam
    for a in fam:
        for b in fam:
            assert a | b in fam
            assert a & b in fam


def test_upsets_canonical_order_is_card_then_members():
    p = Poset.antichain(3)
    order = [bits(m) for m in upset_masks(p)]
    assert order == sorted(order, key=lambda t: (len(t), t))


def test_all_upsets_capacity():
    # bounded by the upsets built, not by 2^n: the 8-antichain's 256 fill a
    # lattice and 20 points in a chain have 21, while 9 unordered points, or
    # 8 under a top point (257 upsets), are refused on every call, since a
    # refusal caches nothing
    assert len(upset_masks(Poset.antichain(8))) == 256
    assert len(upset_masks(Poset.chain(20))) == 21
    for p in (Poset.antichain(9), Poset.from_covers([(i, 8) for i in range(8)], 9)):
        for _ in range(2):
            with pytest.raises(CapacityError, match="256"):
                upset_masks(p)
        assert not p._memo


def test_space_operators_refuse_a_wide_space_at_once():
    # 2^16 upsets: refused as the family passes 256, not enumerated
    with pytest.raises(CapacityError, match="256"):
        spaces.kernel(Poset.antichain(16), 0)


def test_enumeration_refuses_ten_points_by_the_upset_bound(monkeypatch):
    # the first labelling of 10 points leaves 1..9 unordered, and their 512
    # upsets are refused as the choices for row 0
    monkeypatch.setattr(config, "MAX_POSET_SIZE", 10)
    with pytest.raises(CapacityError, match="256"):
        enumerate_posets(10)


# -- minimal points ------------------------------------------------------------


def _minimal_points(p, um, monkeypatch):
    """The minimal points of an upset, read through `is_scott_upset`, the one
    route that computes them: a Scott upset's minimal points lie in the
    spatial part, so with the spatial part patched to every point but y, the
    upset fails the test exactly when y is one of its minimal points."""
    out = 0
    for y in range(p.size):
        monkeypatch.setattr(spaces, "spatial_mask", lambda s: s.full_mask & ~(1 << y))
        if not is_scott_upset(p, um):
            out |= 1 << y
    monkeypatch.undo()
    return out


def test_min_elements_examples(monkeypatch):
    assert _minimal_points(Poset.chain(2), 0b11, monkeypatch) == 0b01
    assert _minimal_points(Poset.antichain(2), 0b11, monkeypatch) == 0b11
    assert _minimal_points(Poset.chain(3), 0b110, monkeypatch) == 0b010
    assert _minimal_points(Poset.chain(3), 0, monkeypatch) == 0


@pytest.mark.parametrize("p", small_posets(), ids=lambda p: repr(p.covers()))
def test_min_elements_invariant(p, monkeypatch):
    for um in upset_masks(p):
        mins = _minimal_points(p, um, monkeypatch)
        assert mins & ~um == 0
        for x in bits(um):
            assert any(p.leq(m, x) for m in bits(mins))
            below = [y for y in bits(um) if y != x and p.leq(y, x)]
            assert bool((mins >> x) & 1) == (not below)


# -- enumeration and isomorphism ----------------------------------------------


def test_enumeration_counts():
    # OEIS A000112
    assert [len(enumerate_posets(n)) for n in range(6)] == [1, 1, 2, 5, 16, 63]
    assert len(enumerate_posets(6)) == 318


def _natural_labellings(n):
    """Every strict order on 0..n-1 inside the numeric order, as up rows:
    the scan over all subsets of the pairs i < j, keeping the transitive ones."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    out = []
    for chosen in itertools.product((False, True), repeat=len(pairs)):
        rel = [0] * n
        for (i, j), on in zip(pairs, chosen):
            if on:
                rel[i] |= 1 << j
        if all(rel[j] & ~rel[i] == 0 for i in range(n) for j in bits(rel[i])):
            out.append(tuple(rel[i] | (1 << i) for i in range(n)))
    return out


def _subset_scan_posets(n):
    reps = {}
    for up in _natural_labellings(n):
        p = Poset(up)
        reps.setdefault(p.canonical_key(), p.canonical())
    return [reps[k] for k in sorted(reps)]


@pytest.mark.parametrize("n", range(6))
def test_enumeration_matches_the_subset_scan(n):
    assert [p.up for p in enumerate_posets(n)] == [p.up for p in _subset_scan_posets(n)]


def test_enumeration_keeps_each_labelling_down_rows_transposed(monkeypatch):
    # the enumeration builds each labelling's down rows as it places rows;
    # every labelling it searches and every representative must carry the
    # transposition of its up rows
    def transposed(p):
        return tuple(sum(1 << i for i in range(p.size) if p.leq(i, j)) for j in range(p.size))

    searched = []
    key = Poset.canonical_key

    def recorded(p):
        searched.append((p.up, p.down, transposed(p)))
        return key(p)

    monkeypatch.setattr(Poset, "canonical_key", recorded)
    for n in range(7):
        del searched[:]
        reps = enumerate_posets(n)
        assert sorted(up for up, _, _ in searched) == sorted(_natural_labellings(n))
        for up, down, expected in searched:
            assert down == expected, up
        for p in reps:
            assert p.down == transposed(p), p


def test_enumeration_capacity(monkeypatch):
    with pytest.raises(CapacityError):
        enumerate_posets(7)
    monkeypatch.setattr(config, "MAX_POSET_SIZE", 3)
    assert len(enumerate_posets(3)) == 5
    with pytest.raises(CapacityError):
        enumerate_posets(4)


def test_no_two_representatives_isomorphic_bruteforce():
    # independent isomorphism oracle: search all relabelings
    def iso_brute(a, b):
        if a.size != b.size:
            return False
        return any(
            all(
                a.leq(i, j) == b.leq(perm[i], perm[j])
                for i in range(a.size)
                for j in range(a.size)
            )
            for perm in itertools.permutations(range(a.size))
        )

    for n in range(5):
        reps = enumerate_posets(n)
        for a, b in itertools.combinations(reps, 2):
            assert not iso_brute(a, b)


def test_canonical_agrees_with_bruteforce_iso():
    def iso_brute(a, b):
        return any(
            all(
                a.leq(i, j) == b.leq(perm[i], perm[j])
                for i in range(a.size)
                for j in range(a.size)
            )
            for perm in itertools.permutations(range(a.size))
        )

    reps = [p for n in range(5) for p in enumerate_posets(n)]
    for a in reps:
        for b in reps:
            if a.size == b.size:
                assert (a.canonical_key() == b.canonical_key()) == iso_brute(a, b)


def test_relabel_preserves_canonical_key():
    p = Poset.from_covers([(0, 1), (0, 2), (2, 3)], 4)
    for perm in itertools.permutations(range(4)):
        assert _relabel(p, perm).canonical_key() == p.canonical_key()


def test_canonical_key_capacity(monkeypatch):
    # ten disjoint 2-chains: no two points are twins, so the search would try
    # 10! orderings of the bottoms times 10! of the tops, over the default
    # bound of 2**20; it must be refused before it starts
    def no_search(*args):
        raise AssertionError("the ordering search started")

    chains = Poset.from_covers([(2 * k, 2 * k + 1) for k in range(10)], 20)
    monkeypatch.setattr(posets, "_arrangements", no_search)
    with pytest.raises(CapacityError):
        chains.canonical_key()
    monkeypatch.undo()
    # the ten points of an antichain are twins: one arrangement
    assert Poset.antichain(10).canonical_key() == (10, tuple(1 << i for i in range(10)))
    assert Poset.antichain(6).canonical_key() == (6, tuple(1 << i for i in range(6)))


def _reference_covers(p):
    """Per point, its upper and its lower covers, from the definition:
    j covers i when i < j and no k lies strictly between them."""
    n = p.size

    def less(i, j):
        return i != j and p.leq(i, j)

    def covered(i, j):
        return less(i, j) and not any(less(i, k) and less(k, j) for k in range(n))

    upper = [[j for j in range(n) if covered(i, j)] for i in range(n)]
    lower = [[i for i in range(n) if covered(i, j)] for j in range(n)]
    return upper, lower


def _reference_heights(p):
    """Peels off the minimal points of what is left: layer k has height k."""
    h = [0] * p.size
    rest = set(range(p.size))
    height = 0
    while rest:
        layer = [i for i in rest if not any(j != i and p.leq(j, i) for j in rest)]
        for i in layer:
            h[i] = height
        rest -= set(layer)
        height += 1
    return tuple(h)


def _reference_color_classes(p):
    """Color refinement from (strict down count, strict up count, height),
    by the sorted colors of the lower and of the upper covers, one round at
    a time until a round leaves every color as it was."""
    n = p.size
    upper, lower = _reference_covers(p)
    heights = _reference_heights(p)

    def ranks(sig):
        ordered = sorted(set(sig))
        return [ordered.index(s) for s in sig]

    colors = ranks([
        (sum(p.leq(j, i) for j in range(n)) - 1, sum(p.leq(i, j) for j in range(n)) - 1,
         heights[i])
        for i in range(n)
    ])
    while True:
        refined = ranks([
            (colors[i], tuple(sorted(colors[j] for j in lower[i])),
             tuple(sorted(colors[j] for j in upper[i])))
            for i in range(n)
        ])
        if refined == colors:
            break
        colors = refined
    return [[i for i in range(n) if colors[i] == c] for c in sorted(set(colors))]


def _reference_posets():
    """Every natural labelling up to 6 points (the labellings that
    `enumerate_posets` searches), the n <= 6 representatives and the seeded
    random posets."""
    return ([Poset(up) for n in range(7) for up in _natural_labellings(n)]
            + [p for n in range(7) for p in enumerate_posets(n)]
            + _random_posets(15, 150))


def test_covers_heights_and_color_classes_match_the_reference():
    for p in _reference_posets():
        upper, lower = _reference_covers(p)
        assert p.covers() == tuple((i, j) for i in range(p.size) for j in upper[i]), p
        assert [p.lower_covers(j) for j in range(p.size)] == lower, p
        assert p.heights() == _reference_heights(p), p
        assert p._color_classes()[0] == _reference_color_classes(p), p


def _reference_key(p):
    """The least key over every ordering that keeps the color classes in order."""
    best = None
    for parts in itertools.product(*map(itertools.permutations, _reference_color_classes(p))):
        order = [v for part in parts for v in part]
        new = {old: k for k, old in enumerate(order)}
        key = tuple(
            sum(1 << new[j] for j in range(p.size) if p.leq(old, j)) for old in order
        )
        if best is None or key < best:
            best = key
    return best


def _random_posets(seed, count):
    """Seeded 7-8-point posets, randomly relabelled. Every other one holds
    two or three copies of one small random poset side by side, whose swaps
    are automorphisms that color refinement cannot split. Each copy has the
    cover 0 < part-1: copies of an antichain would make one 8-point
    antichain, 8! orderings for the reference search."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        n = rng.choice((7, 8))
        if k % 2:
            copies = rng.choice((2, 3))
            part = n // copies
            part_covers = [(i, j) for i in range(part) for j in range(i + 1, part)
                           if (i, j) == (0, part - 1) or rng.random() < 0.5]
            covers = [(c * part + i, c * part + j) for c in range(copies)
                      for i, j in part_covers]
        else:
            density = rng.choice((0.15, 0.3, 0.5))
            covers = [(i, j) for i in range(n) for j in range(i + 1, n)
                      if rng.random() < density]
        perm = list(range(n))
        rng.shuffle(perm)
        out.append(_relabel(Poset.from_covers(covers, n), perm))
    return out


def test_canonical_key_matches_the_reference_search():
    for p in _reference_posets():
        assert p._canonicalize() == _reference_key(p), p


def test_a_canonical_copy_seeds_what_a_fresh_search_finds():
    # canonical() stores the rows it found as the copy's own canonical form,
    # so the copy is never searched again; that holds only because the
    # canonical form is a fixed point of the search
    for n in range(7):
        for c in enumerate_posets(n):
            assert Poset(c.up, _trusted=True)._canonicalize() == c._memo[Poset._canonicalize]


def test_canonical_returns_a_canonical_poset_itself_and_copies_the_rest():
    for n in range(7):
        for c in enumerate_posets(n):
            assert c.canonical() is c
    for p in _reference_posets():
        c = p.canonical()
        assert c.up == p._canonicalize(), p
        assert (c is p) == (p.up == c.up), p


# -- monotone maps ------------------------------------------------------------


def test_monotone_map_counts():
    point = Poset.chain(1)
    chain2 = Poset.chain(2)
    assert len(monotone_maps(point, chain2)) == 2
    assert len(monotone_maps(chain2, chain2)) == 3
    assert len(monotone_maps(Poset.antichain(2), chain2)) == 4


def test_monotone_maps_match_bruteforce():
    # the search's running total must be the sum of the terms of each
    # assigned point, so every (point, image) pair gets its own random term
    rng = random.Random(7)
    ps = small_posets(3)
    for p in ps:
        for q in ps:
            terms = [[rng.randrange(1 << 30) for _ in range(q.size)] for _ in range(p.size)]
            brute = sorted(
                (sum(terms[v][c] for v, c in enumerate(img)), img)
                for img in itertools.product(range(q.size), repeat=p.size)
                if all(
                    q.leq(img[i], img[j])
                    for i in range(p.size)
                    for j in range(p.size)
                    if p.leq(i, j)
                )
            )
            found = sorted((total, tuple(img)) for total, img in iter_monotone_maps(p, q, terms))
            assert found == brute
            assert [m.image for m in monotone_maps(p, q)] == sorted(img for _, img in brute)


_SIZED_CONSTRUCTORS = (Poset.chain, Poset.antichain, lambda n: Poset.from_covers([], n),
                       lambda n: Poset.from_leq_pairs([], n))


def test_constructors_refuse_negative_sizes():
    for build in (*_SIZED_CONSTRUCTORS, enumerate_posets):
        for n in (-1, -3):
            with pytest.raises(ValueError, match=">= 0"):
                build(n)


@pytest.mark.parametrize("size", [True, False, 2.0, "3", None],
                         ids=["true", "false", "float", "string", "none"])
def test_constructors_refuse_bool_and_non_int_sizes(size):
    for build in (*_SIZED_CONSTRUCTORS, enumerate_posets):
        with pytest.raises(ValueError, match=">= 0"):
            build(size)


def test_constructors_refuse_more_order_pairs_than_the_search_bound(monkeypatch):
    # the bound FinDLat.chain applies: 1025 points have 1025² > 2^20 pairs
    with pytest.raises(CapacityError, match="order pairs"):
        Poset.chain(1025)
    # 4 points have 16 order pairs, 5 have 25
    monkeypatch.setattr(config, "MAX_SEARCH_SPACE", 16)
    for build in _SIZED_CONSTRUCTORS:
        assert build(4).size == 4
        with pytest.raises(CapacityError, match="order pairs"):
            build(5)


def test_monotone_map_validation():
    chain2 = Poset.chain(2)
    with pytest.raises(ValueError):
        MonotoneMap(chain2, chain2, (1, 0))
    with pytest.raises(ValueError):
        MonotoneMap(chain2, chain2, (0, 5))
    with pytest.raises(ValueError, match="length"):
        MonotoneMap(chain2, chain2, (0,))
    with pytest.raises(ValueError, match="not an element"):
        MonotoneMap(chain2, chain2, (-1, 0))


def test_monotone_map_composition_and_preimage():
    c2, c3 = Poset.chain(2), Poset.chain(3)
    f = MonotoneMap(c2, c3, (0, 2))
    g = MonotoneMap(c3, c2, (0, 0, 1))
    gf = MonotoneMap(c2, c2, tuple(g(q) for q in f.image))
    assert gf.image == (0, 1)
    assert f.preimage_mask(0b110) == 0b10
    assert g.preimage_mask(0b10) == 0b100


def test_monotone_maps_capacity(monkeypatch):
    monkeypatch.setattr(config, "MAX_SEARCH_SPACE", 100)
    with pytest.raises(CapacityError):
        monotone_maps(Poset.antichain(4), Poset.antichain(4))


def test_empty_poset_maps():
    e = Poset.empty()
    assert len(monotone_maps(e, Poset.chain(2))) == 1
    assert len(monotone_maps(Poset.chain(1), e)) == 0


# -- serialization -------------------------------------------------------------


def test_doc_round_trip():
    p = Poset.from_covers([(2, 0), (1, 0)], 3)
    doc = p.to_doc()
    assert doc == {"size": 3, "covers": [[1, 0], [2, 0]]}
    assert Poset.from_doc(doc).up == p.up


def test_doc_rejects_garbage():
    with pytest.raises(ValueError):
        Poset.from_doc({"covers": []})


_NOT_A_SIZE = "poset size"
_NOT_A_COVER = "is not a pair of points"


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"size": None}, _NOT_A_SIZE),
        ({"size": "3"}, _NOT_A_SIZE),
        ({"size": -1}, _NOT_A_SIZE),
        ({"size": True, "covers": []}, _NOT_A_SIZE),
        ({"size": 3, "covers": [5]}, _NOT_A_COVER),
        ({"size": 3, "covers": [[0, 9]]}, _NOT_A_COVER),
        ({"size": 3, "covers": [[0, -1]]}, _NOT_A_COVER),
        ({"size": 3, "covers": [[0, 1, 2]]}, _NOT_A_COVER),
        ({"size": 3, "covers": [[0, "1"]]}, _NOT_A_COVER),
        ({"size": 3, "covers": [[False, 1]]}, _NOT_A_COVER),
    ],
    ids=["size-null", "size-string", "size-negative", "size-bool", "cover-not-a-pair",
         "cover-out-of-range", "cover-negative", "cover-triple", "cover-string",
         "cover-bool"],
)
def test_doc_refuses_malformed_input_with_value_error(doc, message):
    # the message pins the refusal to from_doc's own checks, not to an
    # exception raised further down
    with pytest.raises(ValueError, match=message):
        Poset.from_doc(doc)


def test_doc_size_is_bounded_by_the_upset_family():
    # n points have at least n + 1 upsets, a chain exactly that many, and a
    # lattice holds 256 elements: 255 points can fit, 256 never do
    assert Poset.from_doc({"size": 255}).size == 255
    chain = Poset.from_doc({"size": 255, "covers": [[i, i + 1] for i in range(254)]})
    assert len(upset_masks(chain)) == 256
    for doc in ({"size": 256}, {"size": 256, "covers": [[0, 1]]}):
        with pytest.raises(CapacityError, match="256"):
            Poset.from_doc(doc)


# -- low-level helpers ----------------------------------------------------------


def test_bits_and_popcount():
    assert list(bits(0b101001)) == [0, 3, 5]
    assert popcount(0b101001) == 3


def test_bits_matches_a_reference_loop():
    def reference(mask):
        return tuple(i for i in range(mask.bit_length()) if (mask >> i) & 1)

    rng = random.Random(5)
    masks = [0, 1, 255, 256, 2**64 - 1, 2**64, 2**300 - 1]
    masks += [rng.getrandbits(rng.randrange(301)) for _ in range(500)]
    for mask in masks:
        assert bits(mask) == reference(mask), mask
    with pytest.raises(ValueError):
        bits(-1)
