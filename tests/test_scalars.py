import copy
import operator
import pickle
import sys
from decimal import Decimal
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exact
from helpers import gr, scalar_pair, scalars_st, wide_fractions_st, wide_scalars_st
from qgap import GaussianRational, InvalidValueError, ParseError, parse_scalar


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
    assert parse_scalar("\t-i\r\n") == gr(0, -1)


@pytest.mark.parametrize(
    "bad",
    [
        "", "x", "1+", "i*i", "1/0j", "2i", "1,2",
        # one token: inner spaces and non-ASCII whitespace are malformed
        " ", "1 2", "1 0", "1/ 2 3", "1 + 2*i", "- 1", "\xa01", "1\u2003", "\u20031",
    ],
)
def test_parse_rejects_garbage(bad):
    with pytest.raises(ParseError):
        parse_scalar(bad)


NON_ASCII_DIGITS = [c for c in map(chr, range(0x80, 0x110000)) if c.isdecimal()]


@pytest.mark.parametrize(
    "template", ["{}", "-{}", "1/{}", "{}*i", "-{}/2*i", "1+{}*i", "{}-1*i", "1{}"]
)
def test_parse_rejects_non_ascii_digits(template):
    assert len(NON_ASCII_DIGITS) > 600
    for digit in NON_ASCII_DIGITS:
        with pytest.raises(ParseError, match="not a Gaussian rational"):
            parse_scalar(template.format(digit))


@pytest.mark.parametrize("text", ["1/0", "1/0*i", "1+1/0*i"])
def test_parse_rejects_zero_denominator(text):
    with pytest.raises(ParseError):
        parse_scalar(text)


# The interpreter refuses to convert an integer with more decimal digits
# than this between int and str.
DIGIT_LIMIT = sys.get_int_max_str_digits()


@pytest.mark.parametrize("template", ["{}", "-{}", "1/{}", "{}*i", "1+1/{}*i", "{}-1*i"])
def test_parse_rejects_a_numeral_past_the_int_string_limit(template):
    assert parse_scalar(template.format("1" * DIGIT_LIMIT)) is not None
    with pytest.raises(ParseError, match="numeral too long"):
        parse_scalar(template.format("1" * (DIGIT_LIMIT + 1)))


# The imaginary part is read first, so its fault is the one reported.
@pytest.mark.parametrize(
    "text,message",
    [
        ("1/0+" + "1" * (DIGIT_LIMIT + 1) + "*i", "numeral too long"),
        ("1" * (DIGIT_LIMIT + 1) + "+1/0*i", "zero denominator"),
    ],
    ids=["long-imaginary", "zero-imaginary-denominator"],
)
def test_parse_reports_the_imaginary_fault_when_both_parts_are_malformed(text, message):
    with pytest.raises(ParseError, match=message):
        parse_scalar(text)


def test_str_of_a_scalar_past_the_int_string_limit_is_an_invalid_value():
    big = 10**DIGIT_LIMIT
    for value in (GaussianRational(big), GaussianRational(1, Fraction(1, big)), GaussianRational(1, big)):
        with pytest.raises(InvalidValueError, match="too long to print"):
            str(value)
    # It is a ValueError too, as the decimal conversion's own error was.
    with pytest.raises(ValueError):
        str(GaussianRational(big))
    assert str(GaussianRational(10 ** (DIGIT_LIMIT - 1))) == "1" + "0" * (DIGIT_LIMIT - 1)


@given(scalars_st, scalars_st, scalars_st)
def test_field_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    if not b.is_zero:
        assert (a / b) * b == a


@settings(max_examples=200)
@given(st.one_of(scalars_st, wide_scalars_st))
def test_str_parse_round_trip_random(a):
    # exact.to_text prints plain Fraction pairs and loads no qgap module.
    text = exact.to_text((a.re, a.im))
    assert str(a) == text
    assert parse_scalar(text) == a


# --- differential tests of the integer-triple kernel against Fraction pairs ---

OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
PAIR_OPERATORS = {"+": exact.add, "-": exact.sub, "*": exact.mul, "/": exact.div}
operands_st = st.one_of(wide_scalars_st, wide_fractions_st, st.integers(-10**12, 10**12))


def assert_canonical(x):
    assert type(x) is GaussianRational
    assert x._d > 0 and gcd(x._a, x._b, x._d) == 1


@settings(max_examples=400)
@given(st.sampled_from(sorted(OPERATORS)), wide_scalars_st, operands_st, st.booleans())
def test_arithmetic_matches_pair_oracle(op, x, other, scalar_on_left):
    left, right = (x, other) if scalar_on_left else (other, x)
    try:
        expected = PAIR_OPERATORS[op](scalar_pair(left), scalar_pair(right))
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            OPERATORS[op](left, right)
        return
    got = OPERATORS[op](left, right)
    assert_canonical(got)
    assert (got.re, got.im) == expected


@settings(max_examples=200)
@given(wide_fractions_st, wide_fractions_st)
def test_unary_ops_and_parts_match_pair_oracle(re, im):
    x = GaussianRational(re, im)
    assert_canonical(x)
    assert (x.re, x.im) == (re, im)
    assert x.is_zero == (re == 0 and im == 0)
    for y, expected in ((-x, (-re, -im)), (x.conjugate(), (re, -im))):
        assert_canonical(y)
        assert (y.re, y.im) == expected


@settings(max_examples=200)
@given(wide_scalars_st, wide_scalars_st)
def test_equality_and_hash_follow_the_value(x, y):
    assert (x == y) == (scalar_pair(x) == scalar_pair(y))
    assert (x != y) == (scalar_pair(x) != scalar_pair(y))
    # The same value reached by other routes reduces to the same triple.
    routes = [(x + y) - y, GaussianRational(x.re, x.im)]
    if not y.is_zero:
        routes.append((x * y) / y)
    for same in routes:
        assert same == x and hash(same) == hash(x)
        assert (same._a, same._b, same._d) == (x._a, x._b, x._d)


@settings(max_examples=200)
@given(wide_scalars_st)
def test_repr_keeps_the_field_format(x):
    assert repr(x) == f"GaussianRational(re={x.re!r}, im={x.im!r})"


def test_repr_literal():
    assert repr(gr(Fraction(1, 2), -3)) == "GaussianRational(re=Fraction(1, 2), im=Fraction(-3, 1))"


def test_constructor_takes_int_or_fraction_by_position_or_keyword():
    assert GaussianRational() == gr(0)
    assert GaussianRational(3) == GaussianRational(re=Fraction(3)) == gr(3)
    assert GaussianRational(im=Fraction(2, 4)) == GaussianRational(0, Fraction(1, 2))
    assert type(GaussianRational(3).re) is Fraction and type(GaussianRational(3).im) is Fraction
    assert GaussianRational(Fraction(-6, 4), 5) == parse_scalar("-3/2+5*i")
    assert GaussianRational(im=-2) == parse_scalar("-2*i")
    # Text is read only by parse_scalar, and inexact numbers have no exact reading.
    for part in (0.1, 0.5, "1/2", "\u0661/2", "1e-2", "0.5", Decimal("0.5"), 1j, None):
        for args in ((part,), (0, part), (Fraction(1, 2), part), (part, 1)):
            with pytest.raises(TypeError):
                GaussianRational(*args)


@pytest.mark.parametrize("name", ["re", "im", "_a", "_b", "_d", "other"])
def test_instances_are_immutable(name):
    x = gr(1, 2)
    with pytest.raises(AttributeError):
        setattr(x, name, 5)
    with pytest.raises(AttributeError):
        delattr(x, name)
    assert x == gr(1, 2)
    assert not hasattr(x, "__dict__")


def test_copy_and_pickle_round_trip():
    x = gr(Fraction(-7, 6), Fraction(5, 4))
    assert copy.deepcopy(x) == x and pickle.loads(pickle.dumps(x)) == x


def test_never_equal_to_other_types():
    assert GaussianRational(1) != 1
    assert GaussianRational(1) != Fraction(1)
    assert gr(1, 2) != (1, 2) and gr(1, 2) != (1, 2, 1)
    assert not (GaussianRational(1) == 1)
