"""Field axioms and frozen values for the scalar tower Q(i, sqrt(r))."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hkr.scalars import (Scalar, ZERO, ONE, I, parse_scalar, format_scalar,
                         ScalarParseError)


fractions = st.fractions(
    min_value=-20, max_value=20, max_denominator=12)

radicands = st.sampled_from([1, 2, 3, 5, 6, 7, 10])


@st.composite
def scalars(draw):
    n_terms = draw(st.integers(min_value=0, max_value=3))
    out = ZERO
    for _ in range(n_terms):
        re = draw(fractions)
        im = draw(fractions)
        rad = draw(radicands)
        out = out + Scalar.gaussian(re, im) * Scalar.sqrt(rad)
    return out


@settings(max_examples=150, deadline=None)
@given(scalars(), scalars(), scalars())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a - a == ZERO


@settings(max_examples=100, deadline=None)
@given(scalars())
def test_multiplicative_inverse(a):
    if a:
        assert a * (ONE / a) == ONE


@settings(max_examples=100, deadline=None)
@given(scalars(), scalars())
def test_conjugation_is_multiplicative(a, b):
    assert (a * b).conj() == a.conj() * b.conj()
    assert (a + b).conj() == a.conj() + b.conj()


@settings(max_examples=100, deadline=None)
@given(scalars())
def test_format_parse_round_trip(a):
    assert parse_scalar(format_scalar(a)) == a


@settings(max_examples=100, deadline=None)
@given(fractions, scalars())
def test_mixed_fraction_arithmetic(q, a):
    assert q + a == Scalar.of(q) + a
    assert q * a == Scalar.of(q) * a
    assert q - a == Scalar.of(q) - a


def test_sqrt_squares_to_radicand():
    for r in (2, 3, 5, Fraction(1, 2), Fraction(9, 4)):
        s = Scalar.sqrt(r)
        assert s * s == Scalar.of(r)


def test_sqrt_normalizes_square_factors():
    # sqrt(8) = 2 sqrt(2), so both live on the same radicand
    assert Scalar.sqrt(8) == Scalar.of(2) * Scalar.sqrt(2)
    assert Scalar.sqrt(Fraction(1, 2)) == Scalar.sqrt(2) / 2


def test_i_squares_to_minus_one():
    assert I * I == Scalar.of(-1)


def test_as_fraction_accepts_only_rationals():
    assert Scalar.of(Fraction(3, 4)).as_fraction() == Fraction(3, 4)
    with pytest.raises(ValueError):
        Scalar.sqrt(2).as_fraction()
    with pytest.raises(ValueError):
        I.as_fraction()


def test_independent_radicals_do_not_collapse():
    # 1 + sqrt(2) + sqrt(3) is nonzero and not rational
    v = ONE + Scalar.sqrt(2) + Scalar.sqrt(3)
    assert v
    assert not v.is_rational()
    # sqrt(2) * sqrt(3) = sqrt(6)
    assert Scalar.sqrt(2) * Scalar.sqrt(3) == Scalar.sqrt(6)


def test_frozen_values():
    assert format_scalar(ONE / (Scalar.of(2) * Scalar.sqrt(2))) == "1/4*sqrt(2)"
    assert format_scalar(I * Scalar.sqrt(3) / 3) == "1/3*i*sqrt(3)"


def test_parse_rejects_garbage():
    for bad in ("", "sqrt(", "1+", "x", "2**3"):
        with pytest.raises(ScalarParseError):
            parse_scalar(bad)


def test_parse_rejects_zero_denominators():
    for bad in ("1/0", "sqrt(1/0)", "2*(3/0)", "1 + 1/0*i"):
        with pytest.raises(ScalarParseError):
            parse_scalar(bad)
