"""Exact arithmetic in the field Q(v) of rational functions of v = q^(1/2).

Every scalar in the package lives here.  Haar values only ever involve
integer powers of q (even powers of v), but the quantized enveloping
algebra actions produce half-integer q-powers, so the base variable is v.
Printing collapses even v-powers back to q-powers.
"""

from fractions import Fraction
import math


class LaurentPoly:
    """Sparse Laurent polynomial in v with arbitrary-precision integer
    coefficients.  Immutable; no zero coefficients are stored."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        t = {}
        if terms:
            for e, c in terms.items():
                if c:
                    t[e] = c
        object.__setattr__(self, "terms", t)

    def __setattr__(self, *a):
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def const(c):
        return LaurentPoly({0: c})

    # -- structure ----------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, LaurentPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def valuation(self):
        return min(self.terms) if self.terms else 0

    def degree(self):
        return max(self.terms) if self.terms else 0

    def leading_coeff(self):
        return self.terms[self.degree()] if self.terms else 0

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        t = dict(self.terms)
        for e, c in other.terms.items():
            s = t.get(e, 0) + c
            if s:
                t[e] = s
            elif e in t:
                del t[e]
        r = LaurentPoly()
        object.__setattr__(r, "terms", t)
        return r

    def __neg__(self):
        r = LaurentPoly()
        object.__setattr__(r, "terms", {e: -c for e, c in self.terms.items()})
        return r

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not self.terms or not other.terms:
            return LaurentPoly()
        t = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                s = t.get(e, 0) + c1 * c2
                if s:
                    t[e] = s
                elif e in t:
                    del t[e]
        r = LaurentPoly()
        object.__setattr__(r, "terms", t)
        return r

    def shift(self, e):
        """Multiply by v^e."""
        r = LaurentPoly()
        object.__setattr__(r, "terms", {k + e: c for k, c in self.terms.items()})
        return r

    # -- conversion helpers for gcd/division --------------------------

    def _dense(self):
        """(valuation, little-endian coefficient list)."""
        if not self.terms:
            return 0, []
        lo, hi = self.valuation(), self.degree()
        coeffs = [0] * (hi - lo + 1)
        for e, c in self.terms.items():
            coeffs[e - lo] = c
        return lo, coeffs

    @staticmethod
    def _from_dense(lo, coeffs):
        return LaurentPoly({lo + i: c for i, c in enumerate(coeffs) if c})

    def evaluate(self, v0):
        """Exact value at a rational v0 > 0."""
        return sum((Fraction(c) * Fraction(v0) ** e for e, c in self.terms.items()),
                   Fraction(0))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            if e == 0:
                p = str(abs(c))
            else:
                mag = "q" if e == 2 else ("q^%d" % (e // 2) if e % 2 == 0
                                          else "q^(%d/2)" % e)
                p = mag if abs(c) == 1 else "%d*%s" % (abs(c), mag)
            parts.append(("- " if c < 0 else "+ ") + p)
        s = " ".join(parts)
        return s[2:] if s.startswith("+ ") else "-" + s[2:]

    __repr__ = __str__


_LP_ZERO = LaurentPoly()
_LP_ONE = LaurentPoly({0: 1})


def _content(coeffs):
    g = 0
    for c in coeffs:
        g = math.gcd(g, c)
        if g == 1:
            break
    return g or 1


def _primitive(coeffs):
    g = _content(coeffs)
    return [c // g for c in coeffs], g


def _trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _pseudo_rem(a, b):
    """Pseudo-remainder of dense integer polys (little-endian)."""
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    while len(a) - 1 >= db and a:
        da, la = len(a) - 1, a[-1]
        a = [c * lb for c in a]
        for i, bc in enumerate(b):
            a[da - db + i] -= la * bc
        _trim(a)
    return a


def _poly_gcd_dense(a, b):
    """Gcd in Z[x] of little-endian integer coefficient lists (primitive PRS)."""
    a, b = _trim(list(a)), _trim(list(b))
    if not a:
        return b
    if not b:
        return a
    a, ca = _primitive(a)
    b, cb = _primitive(b)
    cg = math.gcd(ca, cb)
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _pseudo_rem(a, b)
        a, b = b, (_primitive(r)[0] if r else [])
    if a[-1] < 0:
        a = [-c for c in a]
    return [c * cg for c in a]


def _poly_divexact(a, b):
    """Exact division of dense integer polys; raises if not exact."""
    a = list(a)
    q = [0] * (len(a) - len(b) + 1)
    db, lb = len(b) - 1, b[-1]
    for i in range(len(a) - 1, db - 1, -1):
        if a[i] == 0:
            continue
        if a[i] % lb:
            raise ArithmeticError("inexact polynomial division")
        c = a[i] // lb
        q[i - db] = c
        for j, bc in enumerate(b):
            a[i - db + j] -= c * bc
    if any(a):
        raise ArithmeticError("inexact polynomial division")
    return q


class QRational:
    """Reduced fraction of two LaurentPoly, the universal scalar.

    Canonical form: gcd(num, den) is a unit, den has valuation 0 and a
    positive leading coefficient.  Equality is structural."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=_LP_ONE, _reduced=False):
        # _reduced: the caller passes a canonical den with no common factor
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            num, den = _LP_ZERO, _LP_ONE
        elif not _reduced:
            num, den = self._normalize(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("QRational is immutable")

    @staticmethod
    def _normalize(num, den):
        # move the monomial unit out of den
        dv = den.valuation()
        if dv:
            den = den.shift(-dv)
            num = num.shift(-dv)
        nlo, nc = num._dense()
        _, dc = den._dense()
        g = _poly_gcd_dense(nc, dc)
        if len(g) > 1 or g[0] != 1:
            nc = _poly_divexact(nc, g)
            dc = _poly_divexact(dc, g)
            num = LaurentPoly._from_dense(nlo, nc)
            den = LaurentPoly._from_dense(0, dc)
        if den.leading_coeff() < 0:
            num, den = -num, -den
        return num, den

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_int(k):
        return QRational(LaurentPoly.const(k), _LP_ONE, _reduced=True)

    # -- structure ----------------------------------------------------

    def is_zero(self):
        return self.num.is_zero()

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if isinstance(other, int):
            other = QRational.from_int(other)
        return (isinstance(other, QRational)
                and self.num == other.num and self.den == other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = QRational.from_int(other)
        if self.den == other.den:
            if self.den == _LP_ONE:
                return QRational(self.num + other.num, _LP_ONE, _reduced=True)
            return QRational(self.num + other.num, self.den)
        return QRational(self.num * other.den + other.num * self.den,
                         self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return QRational(-self.num, self.den, _reduced=True)

    def __sub__(self, other):
        if isinstance(other, int):
            other = QRational.from_int(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            other = QRational.from_int(other)
        if self.den == _LP_ONE and other.den == _LP_ONE:
            return QRational(self.num * other.num, _LP_ONE, _reduced=True)
        return QRational(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, int):
            other = QRational.from_int(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero scalar")
        return QRational(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        if isinstance(other, int):
            other = QRational.from_int(other)
        return other / self

    def __pow__(self, k):
        if k < 0:
            return QRational.from_int(1) / self ** (-k)
        r = QRational.from_int(1)
        base = self
        while k:
            if k & 1:
                r = r * base
            base = base * base
            k >>= 1
        return r

    # -- evaluation / io ----------------------------------------------

    def evaluate_numeric(self, q0):
        """Exact rational value at q = q0 (q0 an exact positive rational).

        If sqrt(q0) is irrational the scalar must contain only integer
        q-powers (even v-powers)."""
        q0 = Fraction(q0)
        if q0 <= 0:
            raise ValueError("q0 must be positive")
        ns, ds = math.isqrt(q0.numerator), math.isqrt(q0.denominator)
        if ns * ns == q0.numerator and ds * ds == q0.denominator:
            v0 = Fraction(ns, ds)
            num, den = self.num.evaluate(v0), self.den.evaluate(v0)
        else:
            if any(e % 2 for e in self.num.terms) or any(e % 2 for e in self.den.terms):
                raise ValueError("sqrt(q0) is irrational and half q-powers occur")
            half = lambda p: sum((Fraction(c) * q0 ** (e // 2)
                                  for e, c in p.terms.items()), Fraction(0))
            num, den = half(self.num), half(self.den)
        if den == 0:
            raise ZeroDivisionError("pole at q0 = %s" % q0)
        return num / den

    def to_pairs(self):
        """JSON-friendly form: ([[v_exponent, coeff], ...], same for den)."""
        key = lambda p: [[e, p.terms[e]] for e in sorted(p.terms)]
        return {"num": key(self.num), "den": key(self.den)}

    def __str__(self):
        if self.den == _LP_ONE:
            return str(self.num)
        return "(%s)/(%s)" % (self.num, self.den)

    __repr__ = __str__


ZERO = QRational.from_int(0)
ONE = QRational.from_int(1)


def qq(a):
    """q^a as a QRational for integer or half-integer a (a may be a
    Fraction with denominator 1 or 2)."""
    e = Fraction(2) * Fraction(a)
    if e.denominator != 1:
        raise ValueError("exponent must be a half-integer: %r" % (a,))
    return QRational(LaurentPoly({int(e): 1}), _LP_ONE, _reduced=True)


# -- q-combinatorics ---------------------------------------------------


def poch(a, n):
    """(q^{2a}; q^2)_n = prod_{i=0}^{n-1} (1 - q^{2a+2i}) as a QRational."""
    if n < 0:
        raise ValueError("Pochhammer length must be >= 0")
    r = ONE
    for i in range(n):
        r = r * (ONE - qq(2 * (a + i)))
    return r


def q_number(n, base=2):
    """[n] in base q^base: (1 - q^{base*n})/(1 - q^base) = sum q^{base*i}."""
    if n < 0:
        raise ValueError("q_number needs n >= 0")
    return QRational(LaurentPoly({2 * i * base: 1 for i in range(n)}), _LP_ONE,
                     _reduced=True)


def q_factorial(n, base=2):
    r = ONE
    for i in range(2, n + 1):
        r = r * q_number(i, base)
    return r


def q_binomial(n, k):
    """Gaussian binomial {n choose k} in base q^2; 0 when out of range."""
    if k < 0 or k > n or n < 0:
        return ZERO
    return poch(1, n) / (poch(1, k) * poch(1, n - k))


def q_multinomial(m, parts):
    """{m choose parts} in base q^2; 0 when parts are out of range."""
    if m < 0 or any(p < 0 for p in parts) or sum(parts) != m:
        return ZERO
    r = poch(1, m)
    for p in parts:
        r = r / poch(1, p)
    return r


def evaluate_numeric(x, q0):
    return x.evaluate_numeric(q0)
