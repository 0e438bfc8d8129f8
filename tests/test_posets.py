"""Poset substrate: construction, closures, upset families, enumeration."""

import itertools

import pytest

from framelab import (
    BindingError,
    CapacityError,
    CycleError,
    MonotoneMap,
    Poset,
    all_upsets,
    down_closure,
    enumerate_posets,
    isomorphic,
    max_elements,
    min_elements,
    monotone_maps,
    up_closure,
)
from framelab.posets import bits, compose_maps, iter_monotone_image_tuples, popcount


def small_posets(max_size=4):
    out = []
    for n in range(max_size + 1):
        out.extend(enumerate_posets(n))
    return out


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
    with pytest.raises(IndexError):
        Poset.from_covers([(0, 2)], 2)


def test_transitive_closure_of_covers():
    p = Poset.from_covers([(0, 1), (1, 2)], 3)
    assert p.leq(0, 2)
    assert p.covers() == ((0, 1), (1, 2))


def test_empty_poset_is_first_class():
    p = Poset.empty()
    assert p.size == 0
    assert [s.points() for s in all_upsets(p)] == [()]
    assert p.canonical_key() == Poset.empty().canonical_key()


def test_self_cover_is_ignored():
    p = Poset.from_covers([(0, 0)], 1)
    assert p.size == 1 and p.leq(0, 0)


# -- closures ----------------------------------------------------------------


def test_up_closure_on_two_chain():
    p = Poset.chain(2)
    assert up_closure(p, p.subset([0])).points() == (0, 1)
    assert down_closure(p, p.subset([1])).points() == (0, 1)


def test_up_closure_on_antichain_is_identity():
    p = Poset.antichain(2)
    assert up_closure(p, p.subset([0])).points() == (0,)


def test_binding_error_across_posets():
    p, q = Poset.chain(2), Poset.chain(2)
    with pytest.raises(BindingError):
        up_closure(p, q.subset([0]))
    with pytest.raises(BindingError):
        p.subset([0]) | q.subset([1])


@pytest.mark.parametrize("p", small_posets(), ids=lambda p: repr(p.covers()))
def test_closure_operator_laws(p):
    # idempotent, extensive, monotone; dually for down_closure
    for mask in range(1 << p.size):
        s = p.set_from_mask(mask)
        u = up_closure(p, s)
        assert s <= u
        assert up_closure(p, u) == u
        d = down_closure(p, s)
        assert s <= d
        assert down_closure(p, d) == d
        for other in range(1 << p.size):
            if mask & ~other == 0:
                t = p.set_from_mask(other)
                assert up_closure(p, s) <= up_closure(p, t)


def test_pointset_algebra():
    p = Poset.antichain(3)
    a, b = p.subset([0, 1]), p.subset([1, 2])
    assert (a | b).points() == (0, 1, 2)
    assert (a & b).points() == (1,)
    assert (a - b).points() == (0,)
    assert a.complement().points() == (2,)
    assert (a & b) <= a
    assert len(a) == 2 and 0 in a and 2 not in a


# -- upset families -----------------------------------------------------------


def test_all_upsets_examples():
    assert [s.points() for s in all_upsets(Poset.empty())] == [()]
    assert [s.points() for s in all_upsets(Poset.antichain(2))] == [
        (),
        (0,),
        (1,),
        (0, 1),
    ]
    # derived by brute force: filter all four subsets of the 2-chain
    chain = Poset.chain(2)
    expected = [
        m for m in range(4) if all(
            chain.leq(i, j) <= ((m >> j) & 1 or not (m >> i) & 1)
            for i in range(2)
            for j in range(2)
        )
    ]
    got = [s.mask for s in all_upsets(chain)]
    assert sorted(got) == sorted(
        m for m in expected if chain.up_mask(m) == m
    )
    assert [s.points() for s in all_upsets(chain)] == [(), (1,), (0, 1)]


@pytest.mark.parametrize("n", range(5))
def test_upset_counts_for_chains_and_antichains(n):
    assert len(all_upsets(Poset.chain(n))) == n + 1
    assert len(all_upsets(Poset.antichain(n))) == 2 ** n


@pytest.mark.parametrize("p", small_posets(), ids=lambda p: repr(p.covers()))
def test_upsets_form_bounded_distributive_family(p):
    fam = {s.mask for s in all_upsets(p)}
    assert 0 in fam and p.full_mask in fam
    for a in fam:
        for b in fam:
            assert a | b in fam
            assert a & b in fam


def test_upsets_canonical_order_is_card_then_members():
    p = Poset.antichain(3)
    order = [s.points() for s in all_upsets(p)]
    assert order == sorted(order, key=lambda t: (len(t), t))


def test_all_upsets_capacity():
    cached = Poset.antichain(5)
    all_upsets(cached)  # a default call fills the poset's upset cache
    for p in (Poset.antichain(5), cached):
        with pytest.raises(CapacityError):
            all_upsets(p, family_bound=16)


# -- min/max ------------------------------------------------------------------


def test_min_elements_examples():
    chain = Poset.chain(2)
    assert min_elements(chain, chain.full_set()).points() == (0,)
    anti = Poset.antichain(2)
    assert min_elements(anti, anti.full_set()).points() == (0, 1)
    c3 = Poset.chain(3)
    assert min_elements(c3, c3.subset([1, 2])).points() == (1,)
    assert max_elements(c3, c3.subset([0, 1])).points() == (1,)


@pytest.mark.parametrize("p", small_posets(), ids=lambda p: repr(p.covers()))
def test_min_elements_invariant(p):
    for mask in range(1 << p.size):
        s = p.set_from_mask(mask)
        mins = min_elements(p, s)
        assert mins <= s
        for x in s:
            assert any(p.leq(m, x) for m in mins)


# -- enumeration and isomorphism ----------------------------------------------


def test_enumeration_counts():
    assert [len(enumerate_posets(n)) for n in range(6)] == [1, 1, 2, 5, 16, 63]


def test_enumeration_capacity():
    with pytest.raises(CapacityError):
        enumerate_posets(7)
    assert len(enumerate_posets(3, max_size=3)) == 5


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
                assert isomorphic(a, b) == iso_brute(a, b)


def test_isomorphic_examples():
    two_chain = Poset.from_covers([(0, 1)], 2)
    relabeled = Poset.from_covers([(1, 0)], 2)
    assert isomorphic(two_chain, relabeled)
    assert not isomorphic(two_chain, Poset.antichain(2))
    vee = Poset.from_covers([(0, 2), (1, 2)], 3)
    wedge = Poset.from_covers([(2, 0), (2, 1)], 3)
    assert not isomorphic(vee, wedge)


def test_relabel_preserves_canonical_key():
    p = Poset.from_covers([(0, 1), (0, 2), (2, 3)], 4)
    for perm in itertools.permutations(range(4)):
        assert p.relabel(list(perm)).canonical_key() == p.canonical_key()


# -- monotone maps ------------------------------------------------------------


def test_monotone_map_counts():
    point = Poset.chain(1)
    chain2 = Poset.chain(2)
    assert len(monotone_maps(point, chain2)) == 2
    assert len(monotone_maps(chain2, chain2)) == 3
    assert len(monotone_maps(Poset.antichain(2), chain2)) == 4


def test_monotone_maps_match_bruteforce():
    ps = small_posets(3)
    for p in ps:
        for q in ps:
            brute = sorted(
                img
                for img in itertools.product(range(q.size), repeat=p.size)
                if all(
                    q.leq(img[i], img[j])
                    for i in range(p.size)
                    for j in range(p.size)
                    if p.leq(i, j)
                )
            )
            assert sorted(iter_monotone_image_tuples(p, q)) == brute


def test_monotone_map_validation():
    chain2 = Poset.chain(2)
    with pytest.raises(ValueError):
        MonotoneMap(chain2, chain2, (1, 0))
    with pytest.raises(IndexError):
        MonotoneMap(chain2, chain2, (0, 5))


def test_monotone_map_composition_and_preimage():
    c2, c3 = Poset.chain(2), Poset.chain(3)
    f = MonotoneMap(c2, c3, (0, 2))
    g = MonotoneMap(c3, c2, (0, 0, 1))
    gf = compose_maps(g, f)
    assert gf.image == (0, 1)
    assert f.preimage(c3.subset([1, 2])).points() == (1,)
    with pytest.raises(BindingError):
        f.preimage(c2.subset([0]))


def test_monotone_maps_capacity():
    with pytest.raises(CapacityError):
        monotone_maps(Poset.antichain(4), Poset.antichain(4), search_bound=100)


def test_empty_poset_maps():
    e = Poset.empty()
    assert len(monotone_maps(e, Poset.chain(2))) == 1
    assert len(monotone_maps(Poset.chain(1), e)) == 0


# -- serialization -------------------------------------------------------------


def test_doc_round_trip():
    p = Poset.from_covers([(2, 0), (1, 0)], 3, labels=["top", "l", "r"])
    doc = p.to_doc()
    assert doc["covers"] == sorted(doc["covers"])
    q = Poset.from_doc(doc)
    assert q.up == p.up and q.labels == p.labels


def test_doc_rejects_garbage():
    with pytest.raises(ValueError):
        Poset.from_doc({"covers": []})


# -- low-level helpers ----------------------------------------------------------


def test_bits_and_popcount():
    assert list(bits(0b101001)) == [0, 3, 5]
    assert popcount(0b101001) == 3
