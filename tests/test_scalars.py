from fractions import Fraction

import pytest
from hypothesis import given

from helpers import gr, scalars_st
from qgap import GaussianRational, ParseError, parse_scalar


def test_canonical_form():
    x = GaussianRational(Fraction(2, 4), Fraction(-3, -6))
    assert x.re == Fraction(1, 2) and x.im == Fraction(1, 2)
    assert GaussianRational(2) == GaussianRational(Fraction(4, 2))


def test_arithmetic():
    i = gr(0, 1)
    assert i * i == gr(-1)
    assert (gr(1, 2) + gr(3, -5)) == gr(4, -3)
    assert gr(1, 1) * gr(1, -1) == gr(2)
    assert gr(1) / gr(0, 1) == gr(0, -1)
    assert 2 * gr(1, 1) == gr(2, 2)
    assert gr(3, 4).conjugate() == gr(3, -4)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        gr(1) / gr(0)


@pytest.mark.parametrize(
    "value,text",
    [
        (gr(0), "0"),
        (gr(Fraction(3, 4)), "3/4"),
        (gr(-2), "-2"),
        (gr(0, Fraction(1, 4)), "1/4*i"),
        (gr(0, -1), "-1*i"),
        (gr(Fraction(1, 2), Fraction(-3, 4)), "1/2-3/4*i"),
        (gr(1, 1), "1+1*i"),
    ],
)
def test_str_and_parse_round_trip(value, text):
    assert str(value) == text
    assert parse_scalar(text) == value


def test_parse_convenience_forms():
    assert parse_scalar("i") == gr(0, 1)
    assert parse_scalar("-i") == gr(0, -1)
    assert parse_scalar(" 1/2 ") == gr(Fraction(1, 2))


@pytest.mark.parametrize("bad", ["", "x", "1+", "i*i", "1/0j", "2i", "1,2"])
def test_parse_rejects_garbage(bad):
    with pytest.raises(ParseError):
        parse_scalar(bad)


@pytest.mark.parametrize("text", ["1/0", "1/0*i", "1+1/0*i"])
def test_parse_rejects_zero_denominator(text):
    with pytest.raises(ParseError):
        parse_scalar(text)


@given(scalars_st, scalars_st, scalars_st)
def test_field_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    if not b.is_zero:
        assert (a / b) * b == a


@given(scalars_st)
def test_str_parse_round_trip_random(a):
    assert parse_scalar(str(a)) == a
