"""Exact arithmetic in the field Q(v) of rational functions of v = q^(1/2).

Every scalar in the package lives here.  Haar values only ever involve
integer powers of q (even powers of v), but the quantized enveloping
algebra actions produce half-integer q-powers, so the base variable is v.
Printing collapses even v-powers back to q-powers.
"""

from fractions import Fraction
from functools import cache, lru_cache
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

    # -- conversion helper for gcd/division ---------------------------

    @staticmethod
    def _from_dense(lo, coeffs, s=1):
        return LaurentPoly({lo + s * i: c for i, c in enumerate(coeffs) if c})

    def evaluate(self, v0):
        """Exact value at a rational v0 = a/b > 0: the integer
        N = sum c_e a^(e-lo) b^(hi-e) by Horner's rule in w = v^s, s the
        stride, then N a^lo / b^hi as one Fraction."""
        v0 = Fraction(v0)
        a, b = v0.numerator, v0.denominator
        s, ((lo, coeffs),) = _dense_in_stride(self)
        hi = lo + s * (len(coeffs) - 1)
        n = _horner(coeffs, a ** s, b ** s)
        return Fraction(n * a ** max(lo, 0) * b ** max(-hi, 0),
                        a ** max(-lo, 0) * b ** max(hi, 0))

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


def _horner(coeffs, a, b):
    """The integer sum c_i a^i b^(m-i) over the little-endian coefficients
    c_0 .. c_m: b^m P(a/b) for P their polynomial."""
    n, b_pow = 0, 1
    for c in reversed(coeffs):
        n = n * a + c * b_pow
        b_pow *= b
    return n


def _addmul(acc, a, b):
    """acc += a * b, for a dict acc of v-exponent -> integer coefficient and
    LaurentPoly a, b; zero coefficients may remain in acc, and LaurentPoly(acc)
    drops them."""
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = e1 + e2
            acc[e] = acc.get(e, 0) + c1 * c2


def _dense_in_stride(*polys):
    """(s, [(valuation, little-endian coefficient list in w = v^s)] per
    LaurentPoly in polys), s the stride they share: the gcd of
    e - valuation over each one's exponents e, 1 when all are monomials or
    zero, so that each is v^valuation * P(w).  Zero reads as (0, [0])."""
    los = []
    s = 0
    for p in polys:
        t = p.terms
        lo = min(t) if t else 0
        los.append(lo)
        for e in t:
            s = math.gcd(s, e - lo)
    s = s or 1
    out = []
    for p, lo in zip(polys, los):
        t = p.terms
        coeffs = [0] * ((max(t) - lo) // s + 1 if t else 1)
        for e, c in t.items():
            coeffs[(e - lo) // s] = c
        out.append((lo, coeffs))
    return s, out


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


@lru_cache(maxsize=4096)
def _reduce_dense(a, b):
    """(g, a/g, b/g) for g the gcd in Z[w] of two nonzero little-endian
    coefficient tuples, all three tuples; a and b come back as they are
    when g is 1.  A reduction is unchanged by a monomial shift, so the
    shift-free tuples that _dense_in_stride gives are the memo's key, and a
    repeated reduction costs one lookup and no division.  The bound holds
    the about 1,000 distinct reductions of every closed Gram matrix with
    l1 <= 6 and the 3,152 of the paper's display checks, and keeps a long
    process from growing without limit."""
    g = _poly_gcd_dense(a, b)
    if len(g) == 1 and g[0] == 1:
        return (1,), a, b
    return tuple(g), tuple(_poly_divexact(a, g)), tuple(_poly_divexact(b, g))


def _lp_gcd(a, b):
    """A gcd in Z[v] of two nonzero LaurentPoly, of valuation 0 (a Laurent
    gcd is defined up to a monomial unit)."""
    s, ((_, ac), (_, bc)) = _dense_in_stride(a, b)
    g = _reduce_dense(tuple(ac), tuple(bc))[0]
    return LaurentPoly._from_dense(0, g, s)


def _lp_divexact(a, b):
    """a / b for LaurentPoly where b divides a exactly; raises if not."""
    s, ((alo, ac), (blo, bc)) = _dense_in_stride(a, b)
    return LaurentPoly._from_dense(alo - blo, _poly_divexact(ac, bc), s)


def _lp_lcm(dens):
    """(D, cofactors): the canonical lcm D in Z[v] of a list of canonical
    denominators, and the list of D / d over it.  The first non-unit
    denominator is taken as it is, and a denominator that divides the
    running lcm leaves it as it is, both with no gcd; the division that
    tests this is the cofactor.  Any other d costs one reduction of D
    against d, which gives the cofactor D / g and the factor d / g that
    extends D, with no further division."""
    D, cof = _LP_ONE, []
    for d in dens:
        if d == D:
            c = _LP_ONE
        elif d == _LP_ONE:
            c = D
        elif D == _LP_ONE:
            D, c, cof = d, _LP_ONE, [d] * len(cof)
        else:
            try:
                c = _lp_divexact(D, d)
            except ArithmeticError:
                c, f = _cancel(D, d)
                D, cof = D * f, [k * f for k in cof]
        cof.append(c)
    return D, cof


def _is_unit(p):
    """True when p is +-v^e, a unit of Z[v, 1/v]."""
    return len(p.terms) == 1 and abs(next(iter(p.terms.values()))) == 1


def _cancel(a, b):
    """(a/g, b/g) for g a gcd of the nonzero LaurentPoly a and b; no gcd is
    taken when either is a unit."""
    if _is_unit(a) or _is_unit(b):
        return a, b
    s, ((alo, ac), (blo, bc)) = _dense_in_stride(a, b)
    g, ac, bc = _reduce_dense(tuple(ac), tuple(bc))
    if g == (1,):
        return a, b
    return (LaurentPoly._from_dense(alo, ac, s),
            LaurentPoly._from_dense(blo, bc, s))


def _canonical(num, den):
    """(num, den) times a unit of Z[v, 1/v], chosen so that den has
    valuation 0 and a positive leading coefficient."""
    dv = den.valuation()
    if dv:
        num, den = num.shift(-dv), den.shift(-dv)
    if den.leading_coeff() < 0:
        num, den = -num, -den
    return num, den


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
        return _canonical(*_cancel(num, den))

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
        # an integer-valued scalar equals its int, so it hashes like it
        if self.den == _LP_ONE and self.num.terms.keys() <= {0}:
            return hash(self.num.terms.get(0, 0))
        return hash((self.num, self.den))

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = QRational.from_int(other)
        # both operands are canonical: adding zero needs no gcd
        if not other.num.terms:
            return self
        if not self.num.terms:
            return other
        if self.den == other.den:
            if self.den == _LP_ONE:
                return QRational(self.num + other.num, _LP_ONE, _reduced=True)
            return QRational(self.num + other.num, self.den)
        return QRational(self.num * other.den + other.num * self.den,
                         self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return QRational(-self.num, self.den, _reduced=True)

    def shift(self, e):
        """self times v^e: a monomial cancels nothing, so no gcd is taken."""
        return QRational(self.num.shift(e), self.den, _reduced=True)

    def __sub__(self, other):
        if isinstance(other, int):
            other = QRational.from_int(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    @staticmethod
    def _product(a, b, c, d):
        """(a c) / (b d) in canonical form, for nonzero a, c and coprime
        pairs (a, b) and (c, d): cancelled crosswise (Henrici 1956), so
        the gcds are of a with d and of c with b, never of the products."""
        a, d = _cancel(a, d)
        c, b = _cancel(c, b)
        return QRational(*_canonical(a * c, b * d), _reduced=True)

    def __mul__(self, other):
        if isinstance(other, int):
            other = QRational.from_int(other)
        if not self.num.terms or not other.num.terms:
            return ZERO
        if self.den == _LP_ONE and other.den == _LP_ONE:
            return QRational(self.num * other.num, _LP_ONE, _reduced=True)
        return QRational._product(self.num, self.den, other.num, other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, int):
            other = QRational.from_int(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero scalar")
        if not self.num.terms:
            return ZERO
        return QRational._product(self.num, self.den, other.den, other.num)

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
        q-powers (even v-powers), which are then taken at q0 itself.  num
        and den share one stride s: at x0 = a/b they read x0^lo_n P(x0^s)
        and x0^lo_d Q(x0^s), one integer Horner pass each clears b from P
        and Q, and the value is one Fraction."""
        q0 = Fraction(q0)
        if q0 <= 0:
            raise ValueError("q0 must be positive")
        ns, ds = math.isqrt(q0.numerator), math.isqrt(q0.denominator)
        if ns * ns == q0.numerator and ds * ds == q0.denominator:
            a, b, h = ns, ds, 1
        elif any(e % 2 for p in (self.num, self.den) for e in p.terms):
            raise ValueError("sqrt(q0) is irrational and half q-powers occur")
        else:
            # every exponent, stride and valuation is even (a stride of 1
            # only goes with monomials, where it is never used): halve them
            a, b, h = q0.numerator, q0.denominator, 2
        s, ((nlo, nc), (dlo, dc)) = _dense_in_stride(self.num, self.den)
        s //= h
        a_s, b_s = a ** s, b ** s
        m = _horner(dc, a_s, b_s)
        if not m:
            raise ZeroDivisionError("pole at q0 = %s" % q0)
        n = _horner(nc, a_s, b_s)
        ea = (nlo - dlo) // h
        eb = s * (len(dc) - len(nc)) - ea
        return Fraction(n * a ** max(ea, 0) * b ** max(eb, 0),
                        m * a ** max(-ea, 0) * b ** max(-eb, 0))

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


# -- exact sums ---------------------------------------------------------


def _bucket_sum(buckets):
    """The sum of num/den over {den: {v-exponent: integer coefficient of
    num}}: each numerator is brought over the lcm of the denominators by
    its cofactor and the total is normalized once, so only the lcm and
    that one normalization take a gcd."""
    parts = [(LaurentPoly(t), den) for den, t in buckets.items()]
    parts = [(num, den) for num, den in parts if num]
    D, cof = _lp_lcm([den for _, den in parts])
    if len(parts) == 1:
        num = parts[0][0]
    else:
        acc = {}
        for (num, _den), c in zip(parts, cof):
            _addmul(acc, num, c)
        num = LaurentPoly(acc)
    if not num:
        return ZERO
    return QRational(num, D, _reduced=D == _LP_ONE)


def qdot(pairs):
    """The exact sum of a * b over an iterable of QRational pairs (a, b)."""
    buckets = {}
    for a, b in pairs:
        if a.den == _LP_ONE:
            den = b.den
        elif b.den == _LP_ONE:
            den = a.den
        else:
            den = a.den * b.den
        _addmul(buckets.setdefault(den, {}), a.num, b.num)
    return _bucket_sum(buckets)


def fraction_sum(parts):
    """The exact sum of an iterable of QRational."""
    return qdot((x, ONE) for x in parts)


def over_common_denominator(values):
    """(D, numerators) for an iterable of QRational: D is the canonical lcm
    of their denominators and the i-th numerator is the LaurentPoly
    values[i] * D."""
    values = list(values)
    dens = list({x.den for x in values})
    D, cof = _lp_lcm(dens)
    cofactor = dict(zip(dens, cof))
    return D, [x.num * cofactor[x.den] for x in values]


def qq(a):
    """q^a as a QRational for integer or half-integer a (a may be a
    Fraction with denominator 1 or 2)."""
    e = 2 * a
    if e.denominator != 1:
        raise ValueError("exponent must be a half-integer: %r" % (a,))
    return QRational(LaurentPoly({int(e): 1}), _LP_ONE, _reduced=True)


# -- q-combinatorics ---------------------------------------------------


@cache
def poch(a, n):
    """(q^{2a}; q^2)_n = prod_{i=0}^{n-1} (1 - q^{2a+2i}) as a QRational."""
    if n < 0:
        raise ValueError("Pochhammer length must be >= 0")
    r = ONE
    for i in range(n):
        r = r * (ONE - qq(2 * (a + i)))
    return r


def q_number(n):
    """[n] in base q^2: (1 - q^{2n})/(1 - q^2) = sum q^{2i}."""
    if n < 0:
        raise ValueError("q_number needs n >= 0")
    return QRational(LaurentPoly({4 * i: 1 for i in range(n)}), _LP_ONE,
                     _reduced=True)


def q_factorial(n):
    r = ONE
    for i in range(2, n + 1):
        r = r * q_number(i)
    return r


@cache
def q_binomial(n, k):
    """Gaussian binomial {n choose k} in base q^2; 0 when out of range."""
    if k < 0 or k > n or n < 0:
        return ZERO
    return poch(1, n) / (poch(1, k) * poch(1, n - k))


def q_multinomial(m, parts):
    """{m choose parts} in base q^2, a product of memoized q-binomials; 0
    when parts are out of range."""
    if m < 0 or any(p < 0 for p in parts) or sum(parts) != m:
        return ZERO
    r = ONE
    for i, p in enumerate(parts):
        r = r * q_binomial(sum(parts[:i + 1]), p)
    return r


def evaluate_numeric(x, q0):
    return x.evaluate_numeric(q0)
