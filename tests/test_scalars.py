import ast
from fractions import Fraction
from functools import reduce
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import qhaar.scalars as qscalars
from qhaar.scalars import (LaurentPoly, QRational, ZERO, ONE, qq, q_number,
                           q_factorial, q_binomial, q_multinomial, poch,
                           evaluate_numeric, fraction_sum,
                           over_common_denominator, qdot)


def test_cancellation():
    assert (qq(1) - qq(-1)) + qq(-1) == qq(1)


def test_integer_scalars_hash_like_ints():
    # equality accepts ints, so an integer-valued scalar shares the int's
    # hash and one set or dict key
    for k in (0, 1, -1, 7, 2 ** 70):
        x = QRational.from_int(k)
        assert x == k and hash(x) == hash(k)
        assert len({x, k}) == 1
    assert {ONE: "a"}[1] == "a"
    assert qq(1) != 1 and len({qq(1), 1}) == 2


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
    # the int fast path builds the same scalar as the Fraction route
    for k in range(-4, 5):
        assert qq(k) == qq(Fraction(k)) == qq(Fraction(2 * k, 2))
        assert qq(k).num.terms == {2 * k: 1}


def test_q_number():
    assert q_number(3) == ONE + qq(2) + qq(4)
    assert q_number(0) == ZERO
    assert q_number(1) == ONE


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
    # memoized: a repeated call returns the same immutable scalar
    assert poch(1, 3) is poch(1, 3)
    with pytest.raises(ValueError):
        poch(1, -1)


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


def _termwise(terms, v0):
    return sum((Fraction(c) * v0 ** e for e, c in terms.items()), Fraction(0))


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.integers(-9, 6), st.integers(-20, 20), max_size=6),
       st.fractions(min_value=Fraction(1, 40), max_value=Fraction(7),
                    max_denominator=40))
def test_evaluate_matches_termwise_sum(terms, r):
    terms[min([0, *terms]) - 1] = 1           # negative valuation
    p = LaurentPoly(terms)
    # q0 = r^2 is a square, so v = sqrt(q0) = r and half q-powers occur
    assert evaluate_numeric(QRational(p), r * r) == _termwise(terms, r)
    # q0 = 2 r^2 is no square: integer q-powers only, evaluated at q0
    q0 = 2 * r * r
    even = QRational(LaurentPoly({2 * e: c for e, c in terms.items()}))
    assert evaluate_numeric(even, q0) == _termwise(terms, q0)


@pytest.mark.parametrize("v0", [Fraction(1, 2), Fraction(3, 2)])
def test_evaluate_strided_cases(v0):
    # odd offset (stride 8), negative valuation (stride 12), and a fraction
    # whose numerator is a monomial (stride 0) over a stride-8 denominator
    odd, neg = {3: 1, 11: 5}, {-8: 1, 4: -1}
    num, den = {12: 2}, {0: 1, 8: -1}
    strides = qscalars._dense_in_stride
    assert strides(LaurentPoly(odd))[0] == 8
    assert strides(LaurentPoly(neg))[0] == 12
    assert strides(LaurentPoly(num)) == (1, [(12, [2])])
    assert strides(LaurentPoly(num), LaurentPoly(den))[0] == 8
    frac = QRational(LaurentPoly(num), LaurentPoly(den))
    for terms in (odd, neg):
        assert LaurentPoly(terms).evaluate(v0) == _termwise(terms, v0)
        assert evaluate_numeric(QRational(LaurentPoly(terms)), v0 * v0) == \
            _termwise(terms, v0)
    assert evaluate_numeric(frac, v0 * v0) == \
        _termwise(num, v0) / _termwise(den, v0)
    # sqrt(q0) irrational: the even powers are evaluated at q0 itself
    q0 = Fraction(2)
    half = lambda terms: {e // 2: c for e, c in terms.items()}
    assert evaluate_numeric(QRational(LaurentPoly(neg)), q0) == \
        _termwise(half(neg), q0)
    assert evaluate_numeric(frac, q0) == \
        _termwise(half(num), q0) / _termwise(half(den), q0)
    with pytest.raises(ValueError):
        evaluate_numeric(QRational(LaurentPoly(odd)), q0)


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


def fold(xs):
    """The independent route: a left fold of pairwise +."""
    return reduce(lambda a, b: a + b, xs, ZERO)


@settings(max_examples=60, deadline=None)
@given(st.lists(scalars, max_size=6), st.lists(st.tuples(scalars, scalars),
                                               max_size=6))
def test_exact_sums_match_fold(parts, pairs):
    # both factors of a pair may have a denominator that is not 1
    pairs.append(((ONE + qq(1)) / (ONE - qq(2)), ONE / (ONE + qq(3))))
    assert fraction_sum(parts) == fold(parts)
    assert fraction_sum(parts + [-x for x in parts]) == ZERO
    assert qdot(pairs) == fold(a * b for a, b in pairs)


def test_exact_sum_cases():
    assert fraction_sum([]) == ZERO and qdot([]) == ZERO
    d = ONE - qq(2)
    # cancels to zero only over the common denominator
    assert fraction_sum([ONE / d, -qq(2) / d, -ONE]) == ZERO
    assert qdot([(ONE, ONE / d), (-qq(2), ONE / d), (ONE, -ONE)]) == ZERO
    # a single denominator that is not 1, reduced once
    assert fraction_sum([ONE / d, -qq(4) / d]) == ONE + qq(2)
    assert fraction_sum([qq(1) / d]) == qq(1) / d
    assert qdot([(ONE / d, ONE - qq(4))]) == ONE + qq(2)


def _laurent(content, terms):
    return LaurentPoly({e: content * c for e, c in terms})


# numerators and denominators with integer contents other than 1, any
# valuation and either sign of the leading coefficient, reduced by the full
# normalization
unreduced = st.builds(
    lambda nc, nt, dc, dt: QRational(_laurent(nc, nt.items()),
                                     _laurent(dc, dt.items())),
    st.integers(-6, 6).filter(bool),
    st.dictionaries(st.integers(-5, 5), st.integers(-6, 6), max_size=4),
    st.integers(-6, 6).filter(bool),
    st.dictionaries(st.integers(-4, 4), st.integers(-6, 6).filter(bool),
                    min_size=1, max_size=3),
)


def full_product(a, b, c, d):
    """The independent route: (a c) / (b d) normalized as a whole."""
    return QRational(a * c, b * d)


@settings(max_examples=150, deadline=None)
@given(st.one_of(unreduced, scalars), st.one_of(unreduced, scalars))
def test_cross_cancelled_products_match_full_normalization(x, y):
    # divisors whose numerator has a negative valuation or a negative
    # leading coefficient, a non-unit content, and a unit
    fixed = [(qq(-3) - qq(-1) * 2) / (ONE - qq(1)),
             QRational(LaurentPoly({-2: 6, 1: -4}), LaurentPoly({0: 3, 2: 9})),
             -qq(Fraction(1, 2))]
    for a, b in [(x, y)] + [(x, z) for z in fixed] + [(z, y) for z in fixed]:
        assert a * b == full_product(a.num, a.den, b.num, b.den)
        if not b.is_zero():
            assert a / b == full_product(a.num, a.den, b.den, b.num)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(unreduced, scalars), max_size=6))
def test_over_common_denominator(values):
    D, nums = over_common_denominator(values)
    assert len(nums) == len(values)
    for x, num in zip(values, nums):
        assert QRational(num, D) == x
    # D is the lcm: a common denominator that every smaller one misses
    dens = {x.den for x in values}
    assert all(QRational(D, d).den == LaurentPoly({0: 1}) for d in dens)
    assert QRational(D).den == LaurentPoly({0: 1})


def test_over_common_denominator_cases():
    assert over_common_denominator([]) == (LaurentPoly({0: 1}), [])
    d = ONE - qq(2)
    D, nums = over_common_denominator([ONE / d, ONE / (ONE - qq(4)), qq(1)])
    # canonical denominators have a positive leading coefficient
    assert QRational(D) == qq(4) - ONE
    assert [QRational(n) for n in nums] == [-ONE - qq(2), -ONE,
                                             qq(5) - qq(1)]



@settings(max_examples=80, deadline=None)
@given(st.one_of(unreduced, scalars))
def test_evaluate_numeric_matches_quotient_of_evaluations(x):
    # poles at 1/4 (v) and 1/4, 9/4, 2/3 (q), and half q-powers at 2/3
    fixed = [ONE / (ONE - qq(Fraction(1, 2)) * 2), ONE / (ONE - qq(1) * 4),
             ONE / (qq(1) * 4 - 9), ONE / (qq(1) * 3 - 2),
             qq(Fraction(1, 2)), qq(Fraction(-3, 2)) / (ONE + qq(1))]
    for y in [x] + fixed:
        for q0, v0 in ((Fraction(1, 4), Fraction(1, 2)),
                       (Fraction(9, 4), Fraction(3, 2))):
            den = y.den.evaluate(v0)
            if den:
                assert y.evaluate_numeric(q0) == y.num.evaluate(v0) / den
            else:
                with pytest.raises(ZeroDivisionError, match="pole"):
                    y.evaluate_numeric(q0)
        # sqrt(2/3) is irrational: integer q-powers are taken at q0 itself
        q0 = Fraction(2, 3)
        if any(e % 2 for p in (y.num, y.den) for e in p.terms):
            with pytest.raises(ValueError, match="half q-powers"):
                y.evaluate_numeric(q0)
            continue
        num, den = (LaurentPoly({e // 2: c for e, c in p.terms.items()})
                    .evaluate(q0) for p in (y.num, y.den))
        if den:
            assert y.evaluate_numeric(q0) == num / den
        else:
            with pytest.raises(ZeroDivisionError, match="pole"):
                y.evaluate_numeric(q0)
    with pytest.raises(ValueError, match="positive"):
        x.evaluate_numeric(0)


def test_lcm_of_one_denominator_takes_no_gcd(monkeypatch):
    # the first non-unit denominator starts the lcm as it is; only a second,
    # different one costs a gcd; the memo is cleared so that no earlier
    # reduction answers for the kernel
    qscalars._reduce_dense.cache_clear()
    calls = []
    gcd = qscalars._poly_gcd_dense
    monkeypatch.setattr(qscalars, "_poly_gcd_dense",
                        lambda a, b: calls.append(1) or gcd(a, b))
    one = LaurentPoly({0: 1})
    d1 = (ONE / (ONE - qq(2))).den
    d2 = (ONE / (ONE - qq(4))).den
    assert qscalars._lp_lcm([one, d1, one, d1])[0] == d1
    assert over_common_denominator([qq(1) / (ONE - qq(2))])[0] == d1
    assert not calls
    assert qscalars._lp_lcm([d1, d2])[0] == d2
    assert len(calls) == 1


def test_lcm_of_a_divisor_takes_no_gcd(monkeypatch):
    # a denominator that divides the running lcm leaves it as it is
    calls = []
    gcd = qscalars._poly_gcd_dense
    monkeypatch.setattr(qscalars, "_poly_gcd_dense",
                        lambda a, b: calls.append(1) or gcd(a, b))
    d1 = (ONE / (ONE - qq(2))).den
    d2 = (ONE / (ONE - qq(4))).den
    assert qscalars._lp_lcm([d2, d1])[0] == d2
    assert qscalars._lp_lcm([d2, d1, d2, d1])[0] == d2
    assert not calls


def test_gcd_runs_in_the_stride(monkeypatch):
    # (1 - q^8)/(1 - q^4) = (1 - v^16)/(1 - v^8) reaches the gcd as
    # 1 - w^2 and 1 - w in w = v^8, not as 17 and 9 coefficients in v
    qscalars._reduce_dense.cache_clear()
    lengths = []
    gcd = qscalars._poly_gcd_dense
    monkeypatch.setattr(qscalars, "_poly_gcd_dense",
                        lambda a, b: lengths.append((len(a), len(b)))
                        or gcd(a, b))
    x = QRational(LaurentPoly({0: 1, 16: -1}), LaurentPoly({0: 1, 8: -1}))
    assert lengths == [(3, 2)]
    assert x == ONE + qq(4)


def _dense(p):
    """(valuation, little-endian coefficient list in v) of a nonzero
    LaurentPoly."""
    lo = min(p.terms)
    return lo, [p.terms.get(e, 0) for e in range(lo, max(p.terms) + 1)]


def _ref_gcd(a, b):
    """The stride-1 route: the dense kernels on every power of v."""
    return LaurentPoly._from_dense(0, qscalars._poly_gcd_dense(
        _dense(a)[1], _dense(b)[1]))


def _ref_divexact(a, b):
    alo, ac = _dense(a)
    blo, bc = _dense(b)
    return LaurentPoly._from_dense(alo - blo,
                                   qscalars._poly_divexact(ac, bc))


def _ref_cancel(a, b):
    if qscalars._is_unit(a) or qscalars._is_unit(b):
        return a, b
    g = _ref_gcd(a, b)
    if g == LaurentPoly({0: 1}):
        return a, b
    return _ref_divexact(a, g), _ref_divexact(b, g)


# v^offset * P(v^s): odd and negative offsets, strides 1 to 8, and
# one-term polynomials such as 3v^8, whose stride is 0
strided = st.builds(
    lambda offset, s, terms: LaurentPoly({offset + s * k: c
                                          for k, c in terms.items()}),
    st.integers(-9, 9), st.sampled_from([1, 2, 3, 4, 6, 8]),
    st.dictionaries(st.integers(0, 3), st.integers(-6, 6).filter(bool),
                    min_size=1, max_size=4))


@settings(max_examples=150, deadline=None)
@given(strided, strided, strided)
def test_stride_route_matches_stride_one_route(a, b, g):
    # mixed strides: v^4 against v^6 gives s = 2; a monomial against a
    # stride-8 polynomial takes s = 8
    fixed = [(LaurentPoly({0: 1, 4: -1}), LaurentPoly({0: 1, 6: 1})),
             (LaurentPoly({8: 3}), LaurentPoly({-3: 2, 5: -2})),
             (LaurentPoly({-8: 4}), LaurentPoly({0: 6}))]
    for x, y in [(a, b)] + fixed:
        assert qscalars._cancel(x * g, y * g) == _ref_cancel(x * g, y * g)
        assert qscalars._lp_gcd(x, y) == _ref_gcd(x, y)
        assert qscalars._lp_divexact(x * y, y) == _ref_divexact(x * y, y) \
            == x


@settings(max_examples=100, deadline=None)
@given(strided, strided, strided, st.integers(-9, 9), st.integers(-9, 9))
def test_memoized_reduction_matches_memo_free_route(x, y, g, i, j):
    # v^i x g against v^j y g, from a cleared memo and again warm: a
    # monomial shift keeps the key, so the whole family takes one gcd
    pairs = [(x * g, y * g), ((x * g).shift(i), (y * g).shift(j)),
             ((x * g).shift(j), (y * g).shift(i))]
    qscalars._reduce_dense.cache_clear()
    for _warm in range(2):
        for a, b in pairs:
            assert qscalars._cancel(a, b) == _ref_cancel(a, b)
    assert qscalars._reduce_dense.cache_info().misses <= 1


GCD_NAMES = {"_lp_gcd", "_poly_gcd_dense", "_normalize", "_lp_lcm",
             "_reduce_dense"}


def test_gcd_stays_in_scalars():
    # fractions are added and reduced in scalars; no other module takes a gcd
    src = Path(__file__).resolve().parents[1] / "src" / "qhaar"
    for path in src.glob("*.py"):
        if path.name == "scalars.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            name = (getattr(node, "id", None) or getattr(node, "attr", None)
                    or getattr(node, "name", None))
            assert name not in GCD_NAMES, (path.name, name)
