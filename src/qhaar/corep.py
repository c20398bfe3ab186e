"""Irreducible corepresentations at rank 3: basis vectors and Gram
matrices.

A dominant weight (l1 >= l2 >= l3) is normalized to (l1-l3, l2-l3, 0); the
dropped det power never affects inner products.  A basis vector is a
semistandard tableau of that shape, stored as its column counts: d1, d2,
d3 columns (1,2), (1,3), (2,3) and c1, c2, c3 single boxes 1, 2, 3.  It is
the product

    (k*)^d1 (-q h*)^d2 (q^2 g*)^d3 a^c1 b^c2 c^c3 D_q^(d1+d2+d3)

with d3 c1 = 0: a (2,3) column cannot sit beside a single 1.

The tableaux of content mu have first row 1^mu1 2^(mu2-d1) 3^(mu3-l2+d1)
and second row 2^d1 3^(l2-d1), so a weight space is the closed chain
v_0, v_1, ... over d1 = max(0, l2-mu3) .. min(l2, mu1, mu2, mu1+mu2-l2),
with d3 = max(0, l2-mu1) and c1 = max(0, mu1-l2) fixed along it: each step
trades (d2, c2) for (d1, c3).  Inner products have closed hypergeometric
forms; gram_entry_direct recomputes them through the rewriter and the Haar
state as an independent check.
"""

from collections import namedtuple
from functools import cache

from .algebra import (AlgebraElement, apply_morphism, quantum_minor, star)
from .haar import haar_state
from .scalars import (ONE, ZERO, QRational, _LP_ONE, _LP_ZERO, _lp_divexact,
                      fraction_sum, over_common_denominator, poch,
                      q_binomial, qdot, qq)

_Q2 = ONE - qq(2)
_Q4 = ONE - qq(4)


class EmptyWeightSpaceError(ValueError):
    """The content does not occur in the weight."""


def normalize_weight(lam):
    l1, l2, l3 = lam
    if not (l1 >= l2 >= l3):
        raise ValueError("weight must be weakly decreasing")
    return (l1 - l3, l2 - l3, 0), l3


# ---------------------------------------------------------------------
# basis vectors


class BasisVector(namedtuple("BasisVector", "d1 d2 d3 c1 c2 c3")):
    """Column counts of a tableau (see the module docstring)."""

    __slots__ = ()

    def __new__(cls, d1, d2, d3, c1, c2, c3):
        if min(d1, d2, d3, c1, c2, c3) < 0:
            raise ValueError("exponents must be nonnegative")
        if d3 and c1:
            raise ValueError("no tableau has both a (2,3) column and a "
                             "single 1")
        return super().__new__(cls, d1, d2, d3, c1, c2, c3)

    @classmethod
    def _make(cls, iterable):
        # namedtuple's _make and _replace would skip the checks in __new__
        return cls(*iterable)

    def shape(self):
        d = self.d1 + self.d2 + self.d3
        return (d + self.c1 + self.c2 + self.c3, d, 0)

    def content(self):
        return (self.d1 + self.d2 + self.c1,
                self.d1 + self.d3 + self.c2,
                self.d2 + self.d3 + self.c3)


_XI_COLUMN = {1: ((1, 2), (1, 2)), 2: ((1, 2), (1, 3)), 3: ((1, 2), (2, 3))}


def vector_to_element(v, side="right"):
    """The vector as an algebra element.  Double columns contribute two-row
    minors, so the D_q powers cancel exactly.  side="left" applies the
    diagonal flip."""
    e = AlgebraElement.unit(3)
    for which, power in ((1, v.d1), (2, v.d2), (3, v.d3)):
        minor = quantum_minor(3, *_XI_COLUMN[which])
        for _ in range(power):
            e = e * minor
    for col, power in ((1, v.c1), (2, v.c2), (3, v.c3)):
        e = e * AlgebraElement.gen(3, 1, col) ** power
    if side == "left":
        e = apply_morphism(e, "gamma")
    return e


def _chain_range(l2, mu):
    """The d1 of the tableaux of content mu, second row l2 long; empty when
    mu does not occur (a negative entry included)."""
    m1, m2, m3 = mu
    return range(max(0, l2 - m3), min(l2, m1, m2, m1 + m2 - l2) + 1)


def weight_space(lam, mu):
    """Chain-ordered basis vectors of the weight space, smallest d1 first
    (v_0 carries the most single-2 boxes)."""
    (l1, l2, _), _shift = normalize_weight(lam)
    if sum(mu) != l1 + l2:
        raise EmptyWeightSpaceError("content does not match the weight")
    m1, m2, m3 = mu
    d3, c1 = max(0, l2 - m1), max(0, m1 - l2)
    return [BasisVector(d1, min(m1, l2) - d1, d3, c1, m2 - d1 - d3,
                        m3 - l2 + d1)
            for d1 in _chain_range(l2, mu)]


def contents(lam):
    """The distinct contents occurring in lam, sorted."""
    (l1, l2, _), _shift = normalize_weight(lam)
    n = l1 + l2
    mus = ((m1, m2, n - m1 - m2)
           for m1 in range(n + 1) for m2 in range(n - m1 + 1))
    return [mu for mu in mus if _chain_range(l2, mu)]


# ---------------------------------------------------------------------
# inner products

_SIZE_CAP = 6


def _rho_scale(v):
    return qq(4 * v.d1 + 2 * v.d2 + 4 * v.c1 + 2 * v.c2)


def _left_transfer(v):
    return qq(-4 * v.c3 - 2 * v.c2 - 4 * v.d3 - 2 * v.d2)


def _chain_offset(vi, vj):
    if vi.shape() != vj.shape() or vi.content() != vj.content():
        raise ValueError("vectors lie in different weight spaces")
    return vj.d1 - vi.d1


def _gram_double_sum(d1, d2, c1, c2, c3, k):
    """The double sum of the pair <v, v_k> at d3 = 0; _closed_pair passes
    c1 + d3 for c1.  Terms past j = min(d1, c3) vanish.

    The sum is symmetric in its second and fourth arguments (d2 <-> c2,
    with k fixed), which is what lets one formula serve d3 > 0 as well as
    c1 > 0: the paper's sum for a (2,3) column is this one at
    (d1, c2, d3, d2, c3, k).  The symmetry is checked, not proved: it
    holds exactly on all 6,875 argument tuples with entries <= 4 and
    0 <= k <= min(d2, c2); the test suite rechecks entries <= 2, and every
    pair with l1 <= 6 against the paper's two separate sums."""
    outer, inner = [], []
    for j in range(min(d1, c3) + 1):
        o = (qq(j * j - j) * q_binomial(d1, j) * q_binomial(c3, j)
             * poch(1, j) / poch(d1 + d2 + c1 + c3 - j + 2, c2 + 1))
        outer.append(-o if j % 2 else o)
        inner.append(fraction_sum(
            qq((2 * d1 + 2 * d2 + 2 * c3 - 2 * j + 2) * i)
            * poch(1, c1 + i) * poch(1, d1 + c2 + c3 - j - i)
            * q_binomial(c2 - k, i) for i in range(c2 - k + 1)))
    return qdot(zip(outer, inner))


@cache
def _closed_pair(v, k):
    """<v, v_k> for the right comodule and form L, with v_k the vector k
    steps further along v's chain; every other (form, side) is this entry
    times a monomial (gram_entry_closed)."""
    d1, d2, d3, c1, c2, c3 = v
    e2 = d1 * d2 + d1 * d3 + d2 * d3 + c1 * c2 + c1 * c3 + c2 * c3
    pre = qq(2 * e2 + 4 * (d1 + d2 + d3 + c1 + c2 + c3) + k * (d2 + c2 - k))
    den = poch(1, d1 + d2 + d3 + 1) * poch(1, c1 + c2 + c3 + 1)
    base = pre * _Q2 * _Q2 * _Q4 * poch(1, d2) * poch(1, c2) / den
    return base * _gram_double_sum(d1, d2, c1 + d3, c2, c3, k)


def _check_form_side(form, side):
    if form not in ("L", "R"):
        raise ValueError("unknown form %r" % (form,))
    if side not in ("right_comodule", "left_comodule"):
        raise ValueError("unknown side %r" % (side,))


def gram_entry_closed(vi, vj, form="L", side="right_comodule"):
    """The inner product <v_i, v_j> from the closed hypergeometric forms.

    form "L" is h(x* y), form "R" is h(x y*); side picks the right- or
    left-comodule chain (the latter differing by the diagonal flip).  The
    four variants differ from the base case by weight-space constants: the
    monomials _rho_scale and _left_transfer are constant along a chain, so
    the memoized base entry serves all four."""
    _check_form_side(form, side)
    k = _chain_offset(vi, vj)
    if k < 0:
        vi, vj, k = vj, vi, -k
    entry = _closed_pair(vi, k)
    if side == "left_comodule":
        entry = _left_transfer(vi) * entry
    if form == "R":
        entry = entry / _rho_scale(vi)
    return entry


def gram_entry_direct(vi, vj, form="L", side="right_comodule"):
    """The same inner product through the rewriter and the Haar state."""
    _check_form_side(form, side)
    for v in (vi, vj):
        if v.shape()[0] > _SIZE_CAP:
            raise ValueError("exponent sum exceeds the direct-method cap")
    _chain_offset(vi, vj)
    which = "right" if side == "right_comodule" else "left"
    x = vector_to_element(vi, which)
    y = vector_to_element(vj, which)
    if form == "L":
        return haar_state(star(x) * y)
    return haar_state(x * star(y))


# ---------------------------------------------------------------------
# Gram matrices


class GramMatrix:
    __slots__ = ("lam", "mu", "form", "side", "vectors", "entries")

    def __init__(self, lam, mu, form, side, vectors, entries):
        for name, val in zip(self.__slots__,
                             (lam, mu, form, side, tuple(vectors),
                              tuple(tuple(r) for r in entries))):
            object.__setattr__(self, name, val)

    def __setattr__(self, *a):
        raise AttributeError("GramMatrix is immutable")

    def dim(self):
        return len(self.vectors)

    def to_json_dict(self):
        return {
            "lambda": list(self.lam),
            "mu": list(self.mu),
            "form": self.form,
            "side": self.side,
            "vectors": [list(v) for v in self.vectors],
            "entries": [[e.to_pairs() for e in row]
                        for row in self.entries],
        }


def gram_matrix(lam, mu, form="L", side="right_comodule", method="closed"):
    entry = {"closed": gram_entry_closed,
             "direct": gram_entry_direct}.get(method)
    if entry is None:
        raise ValueError("unknown method %r" % (method,))
    vs = weight_space(lam, mu)
    if not vs:
        raise EmptyWeightSpaceError("empty weight space")
    n = len(vs)
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = entry(vs[i], vs[j], form, side)
    return GramMatrix(tuple(lam), tuple(mu), form, side, vs, rows)


def gram_schmidt(g):
    """Orthogonalize: a unit lower-triangular transform T with
    T G T^t diagonal, plus the diagonal (the squared norms).  No square
    roots are taken, so the output basis is orthogonal, not orthonormal.

    Fraction-free (Bareiss 1968): G = N / D over one common denominator,
    then Bareiss elimination on [N | I], where every division is exact.
    Row i ends as Delta_i times row i of [U | T], with Delta_i the i-th
    leading principal minor of N (Delta_0 = 1), so its pivot is
    Delta_(i+1), T[i] is its right half over Delta_i, and the i-th norm is
    Delta_(i+1) / (Delta_i D).  Each output entry is one reduction."""
    entries = g.entries if isinstance(g, GramMatrix) else g
    n = len(entries)
    if n == 1:
        if entries[0][0].is_zero():
            raise ValueError("singular leading minor")
        return [[ONE]], [entries[0][0]]
    D, nums = over_common_denominator(x for row in entries for x in row)
    rows = [nums[i * n:(i + 1) * n]
            + [_LP_ONE if j == i else _LP_ZERO for j in range(n)]
            for i in range(n)]
    minors = [_LP_ONE]
    for k in range(n):
        pivot = rows[k][k]
        if pivot.is_zero():
            raise ValueError("singular leading minor")
        prev = minors[-1]
        for i in range(k + 1, n):
            ri, rk, lead = rows[i], rows[k], rows[i][k]
            for j in range(k + 1, 2 * n):
                x = pivot * ri[j] - lead * rk[j]
                ri[j] = x if prev == _LP_ONE else _lp_divexact(x, prev)
        minors.append(pivot)
    transform = [[QRational(rows[i][n + j], minors[i]) if j < i
                  else (ONE if j == i else ZERO) for j in range(n)]
                 for i in range(n)]
    norms = [QRational(minors[i + 1], minors[i] * D) for i in range(n)]
    return transform, norms


# ---------------------------------------------------------------------
# dimensions and norms


def _rho_pairing(mu):
    # 2 rho = 2 eps_1 - 2 eps_3 at rank 3, so (rho, mu) = mu_1 - mu_3
    return mu[0] - mu[2]


def quantum_dimension(lam):
    return fraction_sum(len(weight_space(lam, mu)) * qq(2 * _rho_pairing(mu))
                        for mu in contents(lam))


def matrix_coeff_norm(lam, weight_i, weight_j):
    """Squared lengths (L, R) of the matrix coefficient joining the two
    weights of lam."""
    (l1, l2, _), shift = normalize_weight(lam)
    occurring = set(contents((l1, l2, 0)))
    for w in (weight_i, weight_j):
        if tuple(x - shift for x in w) not in occurring:
            raise ValueError("weight does not occur in lambda")
    d = quantum_dimension(lam)
    return (qq(2 * _rho_pairing(weight_i)) / d,
            qq(-2 * _rho_pairing(weight_j)) / d)
