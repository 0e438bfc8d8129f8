"""Symbolic chains: normal forms, closed-form way-below, predicate fixtures."""

import itertools
from fractions import Fraction

import pytest

from framelab import CapacityError, NormalizationError, UnknownPredicate
from framelab.chains import (
    CHAIN_PREDICATES,
    FIXTURE_MATRIX,
    ChainElt,
    ChainFrame,
    all_elements,
    chain_join,
    chain_meet,
    chain_predicate,
    chain_size,
    chain_way_below,
    cmp,
    element_index,
    figure_fixtures,
    has_predecessor,
    is_limit,
    materialize,
    parse_chain,
    sample_elements,
)
from framelab.lattices import frame_predicate, way_below_rows_oracle


def omega_chain():
    return ChainFrame([("omega",)])


def dense_chain():
    return ChainFrame([("dense",)])


# -- construction and normalization ------------------------------------------


def test_block_merging():
    c = ChainFrame([("fin", 2), ("fin", 3)])
    assert c.blocks == (("fin", 5),)
    d = ChainFrame([("dense",), ("dense",), ("fin", 1)])
    assert d.blocks == (("dense",), ("fin", 1))
    assert ChainFrame([("omega",), ("omega",)]).blocks == (("omega",), ("omega",))


def test_malformed_blocks_rejected():
    with pytest.raises(NormalizationError):
        ChainFrame([("fin", 0)])
    with pytest.raises(NormalizationError):
        ChainFrame([("weird",)])
    with pytest.raises(NormalizationError):
        ChainFrame([("fin", 1)], degenerate=True)


def test_bools_are_refused_where_an_int_is_wanted():
    # bool is a subclass of int, but fin:True would not read back
    with pytest.raises(NormalizationError):
        ChainFrame([("fin", True)])
    c = ChainFrame([("fin", 2), ("omega",)])
    for block in (0, 1):
        for value in (True, False):
            with pytest.raises(NormalizationError):
                c.coord(block, value)
    assert omega_chain().coord(0, 1).coord == 1


def test_parse_round_trip():
    for spec in ("one", "two", "fin:3", "omega", "dense", "fin:2+omega+dense"):
        c = parse_chain(spec)
        assert c.spec_string() == spec
        assert ChainFrame.from_doc(c.to_doc()) == c
    assert parse_chain("") == ChainFrame(())
    with pytest.raises(NormalizationError):
        parse_chain("fin:x")
    with pytest.raises(NormalizationError):
        parse_chain("omega+banana")


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"chain": 5}, "is not a list"),
        ({"chain": "omega"}, "is not a list"),
        ({"chain": ["fin:2"], "degenerate": "no"}, "is not a bool"),
        ({"chain": [], "degenerate": "no"}, "is not a bool"),
    ],
    ids=["chain-int", "chain-string", "degenerate-string", "degenerate-string-empty"],
)
def test_doc_refuses_malformed_input_with_value_error(doc, message):
    with pytest.raises(ValueError, match=message):
        ChainFrame.from_doc(doc)


def test_coordinate_validation():
    c = ChainFrame([("fin", 2), ("omega",), ("dense",)])
    assert c.coord(0, 1).coord == 1
    with pytest.raises(NormalizationError):
        c.coord(0, 2)
    with pytest.raises(NormalizationError):
        c.coord(1, -1)
    assert c.coord(2, Fraction(1, 3)).coord == Fraction(1, 3)
    with pytest.raises(NormalizationError):
        c.coord(2, Fraction(3, 2))
    with pytest.raises(NormalizationError):
        c.coord(3, 0)


def test_block_sup_normalization():
    # before an omega block: absorbed as that block's first point
    c = ChainFrame([("omega",), ("omega",)])
    assert c.block_sup(0) == c.coord(1, 0)
    d = ChainFrame([("dense",), ("omega",)])
    assert d.block_sup(0) == d.coord(1, 0)
    # before fin or dense: a genuine symbolic element
    e = ChainFrame([("omega",), ("fin", 1)])
    assert e.block_sup(0).kind == "sup"
    f = ChainFrame([("omega",), ("dense",)])
    assert f.block_sup(0).kind == "sup"
    # of the last block: the global top
    assert omega_chain().block_sup(0) == omega_chain().top()
    with pytest.raises(NormalizationError):
        ChainFrame([("fin", 2)]).block_sup(0)


def test_element_check_rejects_non_normal_forms():
    c = ChainFrame([("omega",), ("omega",)])
    with pytest.raises(NormalizationError):
        c.check(ChainElt("sup", 0))  # normalizes to coord (1, 0)
    with pytest.raises(NormalizationError):
        omega_chain().check(ChainElt("sup", 0))  # normalizes to top
    with pytest.raises(NormalizationError):
        ChainFrame.trivial().check(ChainElt("top"))
    assert ChainFrame.trivial().top() == ChainFrame.trivial().bottom()


# -- comparison, meet, join -----------------------------------------------------


def test_cmp_examples():
    w = omega_chain()
    assert cmp(w, w.coord(0, 3), w.coord(0, 5)) == -1
    assert cmp(w, w.coord(0, 3), w.coord(0, 3)) == 0
    for c in (omega_chain(), dense_chain(), ChainFrame([("fin", 2)])):
        for x in sample_elements(c):
            assert cmp(c, x, c.top()) <= 0
            assert chain_join(c, [x, c.top()]) == c.top()
            assert chain_meet(c, [x, c.bottom()]) == c.bottom()
    m = ChainFrame([("fin", 2), ("dense",)])
    assert cmp(m, m.coord(0, 1), m.coord(1, Fraction(1, 2))) == -1


def test_listings_are_bounded_by_the_row_width():
    listed = parse_chain("fin:254")
    assert len(sample_elements(listed)) == len(all_elements(listed)) == 256
    refused = parse_chain("fin:255")
    with pytest.raises(CapacityError):
        sample_elements(refused)
    with pytest.raises(CapacityError):
        all_elements(refused)
    with pytest.raises(CapacityError):
        all_elements(parse_chain("fin:100000"))


def test_sample_elements_drop_duplicates_in_first_seen_order():
    # the sup of block 0 is coordinate 0 of block 1, and the sup of block 1
    # is the top: each is listed once, where it is first produced
    c = parse_chain("omega+omega")
    assert sample_elements(c) == [
        c.bottom(), c.top(), c.coord(0, 0), c.coord(0, 1), c.coord(0, 2),
        c.coord(1, 0), c.coord(1, 1), c.coord(1, 2),
    ]
    assert sample_elements(ChainFrame.trivial()) == [ChainFrame.trivial().bottom()]


def test_cmp_is_a_total_order_on_samples():
    c = ChainFrame([("fin", 2), ("omega",), ("dense",), ("fin", 1)])
    sample = sample_elements(c)
    for x, y in itertools.product(sample, repeat=2):
        sxy, syx = cmp(c, x, y), cmp(c, y, x)
        assert sxy == -syx
        assert (sxy == 0) == (x == y)
    for x, y, z in itertools.product(sample, repeat=3):
        if cmp(c, x, y) <= 0 and cmp(c, y, z) <= 0:
            assert cmp(c, x, z) <= 0


def test_join_meet_conventions():
    c = omega_chain()
    assert chain_join(c, []) == c.bottom()
    assert chain_meet(c, []) == c.top()
    xs = [c.coord(0, 4), c.coord(0, 1), c.coord(0, 2)]
    assert chain_join(c, xs) == c.coord(0, 4)
    assert chain_meet(c, xs) == c.coord(0, 1)


def test_cross_chain_elements_rejected():
    with pytest.raises(NormalizationError):
        cmp(omega_chain(), dense_chain().coord(0, Fraction(1, 2)), omega_chain().top())


# -- limit structure --------------------------------------------------------------


def test_is_limit_closed_forms():
    w = omega_chain()
    assert is_limit(w, w.top())
    assert not is_limit(w, w.coord(0, 0))
    assert not is_limit(w, w.bottom())

    f = ChainFrame([("fin", 3)])
    for x in all_elements(f):
        assert not is_limit(f, x)

    d = dense_chain()
    assert is_limit(d, d.coord(0, Fraction(1, 2)))
    assert is_limit(d, d.top())

    # absorbed sup of a preceding omega/dense block is a limit
    ww = ChainFrame([("omega",), ("omega",)])
    assert is_limit(ww, ww.coord(1, 0))
    assert not is_limit(ww, ww.coord(1, 1))
    dw = ChainFrame([("dense",), ("omega",)])
    assert is_limit(dw, dw.coord(1, 0))

    # retained sups are limits; the following fin point is isolated
    df = ChainFrame([("dense",), ("fin", 1)])
    assert is_limit(df, df.block_sup(0))
    assert not is_limit(df, df.coord(1, 0))
    assert not is_limit(df, df.top())

    # a fin point after a fin gap is isolated even at coordinate zero
    fw = ChainFrame([("fin", 1), ("omega",)])
    assert not is_limit(fw, fw.coord(1, 0))


def test_has_predecessor():
    w = omega_chain()
    assert not has_predecessor(w, w.bottom())
    assert has_predecessor(w, w.coord(0, 0))
    assert not has_predecessor(w, w.top())
    assert not has_predecessor(ChainFrame.trivial(), ChainFrame.trivial().bottom())


# -- way below ----------------------------------------------------------------------


def test_chain_way_below_examples():
    w = omega_chain()
    assert chain_way_below(w, w.coord(0, 3), w.top())
    assert not chain_way_below(w, w.top(), w.top())
    for c in (omega_chain(), dense_chain()):
        for b in sample_elements(c):
            assert chain_way_below(c, c.bottom(), b)


def test_way_below_witness_family_on_limits():
    """Confirm the closed form against the family S = {x : x < b}: when b is
    a limit, finite subfamilies of S have joins strictly below b, so b is not
    way below itself."""
    for c in (omega_chain(), dense_chain(), ChainFrame([("dense",), ("fin", 1)])):
        for b in sample_elements(c):
            if not is_limit(c, b):
                continue
            assert not chain_way_below(c, b, b)
            below = [x for x in sample_elements(c) if cmp(c, x, b) < 0]
            for r in range(len(below) + 1):
                for finite in itertools.combinations(below, r):
                    assert cmp(c, chain_join(c, list(finite)), b) < 0
            # every element strictly below a limit is way below it
            for a in below:
                assert chain_way_below(c, a, b)


def test_way_below_agrees_with_ideal_oracle_on_all_fin_chains():
    words = [
        ChainFrame.trivial(),
        ChainFrame(()),
        ChainFrame([("fin", 1)]),
        ChainFrame([("fin", 2)]),
        ChainFrame([("fin", 3)]),
        ChainFrame([("fin", 4)]),
    ]
    for c in words:
        lat = materialize(c)
        rows = way_below_rows_oracle(lat)
        for x in all_elements(c):
            for y in all_elements(c):
                chain_result = chain_way_below(c, x, y)
                oracle = bool(
                    (rows[element_index(c, x)] >> element_index(c, y)) & 1
                )
                assert chain_result == oracle


def test_way_below_transfer_and_stability_and_interpolation():
    fixtures = [c for _, c in figure_fixtures()]
    for c in fixtures:
        sample = sample_elements(c)
        for a, b in itertools.product(sample, repeat=2):
            if not chain_way_below(c, a, b):
                continue
            assert cmp(c, a, b) <= 0
            # transfer: x <= a << b <= y with matching limit status
            for x in sample:
                for y in sample:
                    if (
                        cmp(c, x, a) <= 0
                        and cmp(c, b, y) <= 0
                        and is_limit(c, y) == is_limit(c, b)
                    ):
                        assert chain_way_below(c, x, y)
        # stability
        for a, b, b2 in itertools.product(sample, repeat=3):
            if chain_way_below(c, a, b) and chain_way_below(c, a, b2):
                assert chain_way_below(c, a, chain_meet(c, [b, b2]))
    # interpolation witnesses: midpoint rationals in dense, successor in omega
    w = omega_chain()
    a, b = w.coord(0, 2), w.top()
    mid = w.coord(0, 3)
    assert chain_way_below(w, a, mid) and chain_way_below(w, mid, b)
    d = dense_chain()
    a, b = d.coord(0, Fraction(1, 4)), d.coord(0, Fraction(1, 2))
    mid = d.coord(0, (Fraction(1, 4) + Fraction(1, 2)) / 2)
    assert chain_way_below(d, a, mid) and chain_way_below(d, mid, b)


# -- predicates ------------------------------------------------------------------------


def test_chain_predicate_examples():
    w = omega_chain()
    assert chain_predicate(w, "algebraic")
    assert not chain_predicate(w, "compactFrame")
    assert not chain_predicate(w, "coherent")
    d = dense_chain()
    assert chain_predicate(d, "continuous")
    assert not chain_predicate(d, "algebraic")
    df = ChainFrame([("dense",), ("fin", 1)])
    assert chain_predicate(df, "stablyCompact")
    assert not chain_predicate(df, "algebraic")
    with pytest.raises(UnknownPredicate):
        chain_predicate(w, "sober")


def test_degenerate_chain_predicates():
    one = ChainFrame.trivial()
    assert chain_predicate(one, "compactFrame")
    assert chain_predicate(one, "stone")
    assert chain_size(one) == 1


def test_figure_fixture_matrix():
    fixtures = dict(figure_fixtures())
    assert set(fixtures) == set(FIXTURE_MATRIX)
    for name, chain in fixtures.items():
        for pred in CHAIN_PREDICATES:
            assert (
                chain_predicate(chain, pred) == FIXTURE_MATRIX[name][pred]
            ), (name, pred)


def test_chain_predicates_agree_with_lattice_predicates_on_all_fin():
    """Oracle obligation: all-fin chains up to six elements, every shared
    predicate, plus definitional evaluations of the continuity trio."""
    words = [
        ChainFrame.trivial(),
        ChainFrame(()),
        ChainFrame([("fin", 1)]),
        ChainFrame([("fin", 2)]),
        ChainFrame([("fin", 3)]),
        ChainFrame([("fin", 4)]),
    ]
    shared = (
        "compactFrame",
        "algebraic",
        "arithmetic",
        "coherent",
        "regular",
        "zeroDimensional",
        "stone",
    )
    for c in words:
        lat = materialize(c)
        for name in shared:
            assert chain_predicate(c, name) == frame_predicate(lat, name), (
                c,
                name,
            )
        rows = way_below_rows_oracle(lat)
        n = lat.size
        continuous = all(
            lat.join_of(b for b in range(n) if (rows[b] >> a) & 1) == a
            for a in range(n)
        )
        stable = all(
            (rows[a] >> lat.meet[b][c2]) & 1
            for a in range(n)
            for b in range(n)
            for c2 in range(n)
            if (rows[a] >> b) & 1 and (rows[a] >> c2) & 1
        )
        assert chain_predicate(c, "continuous") == continuous
        assert chain_predicate(c, "stablyContinuous") == (continuous and stable)
        assert chain_predicate(c, "stablyCompact") == (
            continuous and stable and frame_predicate(lat, "compactFrame")
        )


def test_materialize_is_bounded_by_the_search_space():
    # fin:1023 has 1,025 elements, over the 256 a bytes join/meet row holds
    with pytest.raises(CapacityError):
        materialize(parse_chain("fin:1023"))


def test_materialize_rejects_infinite():
    with pytest.raises(NormalizationError):
        materialize(omega_chain())
    with pytest.raises(NormalizationError):
        all_elements(dense_chain())
