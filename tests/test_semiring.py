"""Arithmetic, ordering, and exact string syntax of the weight semirings."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from desimone import BOOLEAN, INF, RATIONAL, SEMIRINGS, payload_key

finite = st.fractions(min_value=0, max_value=10)
weights = st.one_of(finite, st.just(INF))


def test_registry():
    assert SEMIRINGS == {"boolean": BOOLEAN, "rational": RATIONAL}
    assert BOOLEAN.name == "boolean"
    assert RATIONAL.name == "rational"


def test_boolean_tables():
    # or/and over {0, 1}, exhaustively
    assert [BOOLEAN.add(a, b) for a in (0, 1) for b in (0, 1)] == [0, 1, 1, 1]
    assert [BOOLEAN.mul(a, b) for a in (0, 1) for b in (0, 1)] == [0, 0, 0, 1]
    assert BOOLEAN.zero == 0 and BOOLEAN.one == 1
    assert BOOLEAN.is_zero(0) and not BOOLEAN.is_zero(1)


def test_rational_identities():
    half = Fraction(1, 2)
    assert RATIONAL.add(RATIONAL.zero, half) == half
    assert RATIONAL.mul(RATIONAL.one, half) == half
    assert RATIONAL.mul(RATIONAL.zero, half) == 0
    assert RATIONAL.sum([]) == 0
    assert RATIONAL.sum([Fraction(1, 3), Fraction(1, 6)]) == half


def test_infinity_is_a_singleton_absorbing_element():
    assert INF == INF and INF != Fraction(1, 2)
    assert RATIONAL.add(INF, Fraction(5)) is INF
    assert RATIONAL.add(Fraction(5), INF) is INF
    assert RATIONAL.mul(INF, Fraction(1, 2)) is INF
    assert RATIONAL.mul(INF, INF) is INF


def test_infinity_times_zero_is_zero():
    # The annihilator wins in [0, inf], in both argument orders.
    assert RATIONAL.mul(INF, Fraction(0)) == 0
    assert RATIONAL.mul(Fraction(0), INF) == 0


@pytest.mark.parametrize(
    "text, value",
    [("1/2", Fraction(1, 2)), ("3/4", Fraction(3, 4)), ("2", Fraction(2)),
     ("0", Fraction(0)), ("inf", INF), (" 1/3 ", Fraction(1, 3))],
)
def test_rational_parse(text, value):
    assert RATIONAL.parse(text) == value


@pytest.mark.parametrize("text", ["2/0", "-1", "-1/2", "0.5", "x", ""])
def test_rational_parse_rejects(text):
    with pytest.raises(ValueError):
        RATIONAL.parse(text)


def test_boolean_parse():
    assert BOOLEAN.parse("1") == 1 and BOOLEAN.parse("0") == 0
    with pytest.raises(ValueError):
        BOOLEAN.parse("1/2")


@given(weights)
def test_show_parse_round_trip(w):
    assert RATIONAL.parse(RATIONAL.show(w)) == w


def test_show_formats():
    assert RATIONAL.show(Fraction(3, 4)) == "3/4"
    assert RATIONAL.show(Fraction(2)) == "2"
    assert RATIONAL.show(INF) == "inf"
    assert BOOLEAN.show(1) == "1" and BOOLEAN.show(0) == "0"


def test_check_normalizes_and_rejects():
    assert RATIONAL.check(2) == Fraction(2)
    assert isinstance(RATIONAL.check(2), Fraction)
    assert RATIONAL.check(INF) is INF
    with pytest.raises(ValueError):
        RATIONAL.check(Fraction(-1, 2))
    with pytest.raises(ValueError):
        BOOLEAN.check(2)


def test_as_float():
    assert RATIONAL.as_float(Fraction(1, 4)) == 0.25
    assert RATIONAL.as_float(INF) == float("inf")
    assert BOOLEAN.as_float(1) == 1.0


@given(weights, weights)
def test_rational_commutative(a, b):
    assert RATIONAL.add(a, b) == RATIONAL.add(b, a)
    assert RATIONAL.mul(a, b) == RATIONAL.mul(b, a)


@given(weights, weights, weights)
def test_rational_associative_distributive(a, b, c):
    add, mul = RATIONAL.add, RATIONAL.mul
    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))


@given(weights, weights)
def test_order_is_total_and_antisymmetric(a, b):
    assert RATIONAL.leq(a, b) or RATIONAL.leq(b, a)
    if RATIONAL.leq(a, b) and RATIONAL.leq(b, a):
        assert a == b


@given(weights, weights, weights)
def test_order_transitive_and_add_monotone(a, b, c):
    if RATIONAL.leq(a, b) and RATIONAL.leq(b, c):
        assert RATIONAL.leq(a, c)
    if RATIONAL.leq(a, b):
        assert RATIONAL.leq(RATIONAL.add(a, c), RATIONAL.add(b, c))


@given(st.lists(weights, min_size=2, max_size=6))
def test_payload_key_sorts_weights_like_leq(ws):
    ordered = sorted(ws, key=payload_key)
    assert all(RATIONAL.leq(x, y) for x, y in zip(ordered, ordered[1:]))
    assert payload_key(INF) > payload_key(Fraction(10**9))


def test_infinity_and_semiring_reprs():
    assert repr(INF) == "inf"
    assert repr(RATIONAL) == "Semiring(rational)"
