from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qhaar.scalars import (LaurentPoly, QRational, ZERO, ONE, qq, q_number,
                           q_factorial, q_binomial, q_multinomial, poch,
                           evaluate_numeric)


def test_cancellation():
    assert (qq(1) - qq(-1)) + qq(-1) == qq(1)


def test_geometric_factorization():
    assert (ONE - qq(4)) / (ONE - qq(2)) == ONE + qq(2)


def test_reduction():
    num = (ONE - qq(2)) ** 2 * (ONE - qq(4))
    assert num / (ONE - qq(2)) == (ONE - qq(2)) * (ONE - qq(4))


def test_qq_exponents():
    assert qq(Fraction(1, 2)) * qq(Fraction(1, 2)) == qq(1)
    assert qq(Fraction(4, 2)) == qq(2)
    with pytest.raises(ValueError):
        qq(Fraction(1, 3))


def test_q_number():
    assert q_number(3, 2) == ONE + qq(2) + qq(4)
    assert q_number(0, 2) == ZERO
    assert q_number(1, 2) == ONE


def test_q_binomial():
    assert q_binomial(2, 1) == ONE + qq(2)
    assert q_binomial(3, 5) == ZERO
    assert q_binomial(4, 2) == (ONE + qq(2) + qq(4)) * (ONE + qq(4))


def test_q_multinomial():
    assert q_multinomial(2, [1, 1, 0]) == ONE + qq(2)
    assert q_multinomial(3, [3, 0, 0]) == ONE
    assert q_multinomial(1, [1, 1, -1]) == ZERO


def test_pochhammer():
    assert poch(1, 2) == (ONE - qq(2)) * (ONE - qq(4))
    assert poch(1, 0) == ONE
    assert poch(2, 1) == ONE - qq(4)


def test_pochhammer_vs_factorial():
    for n in range(13):
        prod = ONE
        for j in range(1, n + 1):
            prod = prod * (ONE - qq(2 * j))
        assert poch(1, n) == prod


def test_binomial_symmetry_and_pascal():
    for n in range(13):
        for k in range(n + 1):
            assert q_binomial(n, k) == q_binomial(n, n - k)
            if n:
                assert q_binomial(n, k) == \
                    qq(2 * k) * q_binomial(n - 1, k) + q_binomial(n - 1, k - 1)


def test_evaluate_numeric():
    assert evaluate_numeric(ONE + qq(2), Fraction(1, 2)) == Fraction(5, 4)
    with pytest.raises(ZeroDivisionError):
        evaluate_numeric(ONE / (ONE - qq(2)), Fraction(1))
    with pytest.raises(ValueError):
        evaluate_numeric(qq(Fraction(1, 2)), Fraction(1, 2))
    # v = sqrt(q0) rational: half powers allowed
    assert evaluate_numeric(qq(Fraction(1, 2)), Fraction(1, 4)) == Fraction(1, 2)


def test_serialization_roundtrip():
    x = (ONE + qq(2)) / (ONE - qq(3))
    pairs = x.to_pairs()
    num = LaurentPoly({e: c for e, c in pairs["num"]})
    den = LaurentPoly({e: c for e, c in pairs["den"]})
    assert QRational(num, den) == x


scalars = st.builds(
    lambda pairs, qairs: QRational(
        LaurentPoly(dict(pairs)),
        LaurentPoly(dict(qairs)) + LaurentPoly({0: 1})
        if any(c for _, c in qairs) or True else LaurentPoly({0: 1})),
    st.lists(st.tuples(st.integers(-6, 6), st.integers(-9, 9)), max_size=4),
    st.lists(st.tuples(st.integers(0, 5), st.integers(0, 4)), max_size=3),
)


@settings(max_examples=60, deadline=None)
@given(scalars, scalars, scalars)
def test_ring_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x


@settings(max_examples=60, deadline=None)
@given(scalars, scalars)
def test_field_inverse(x, y):
    if not y.is_zero():
        assert (x / y) * y == x
