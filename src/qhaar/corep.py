"""Irreducible corepresentations at rank 3: basis vectors and Gram
matrices.

A dominant weight (l1 >= l2 >= l3) is normalized to (l1-l3, l2-l3, 0); the
dropped det power never affects inner products, and the contents of lam
are those of the normalized weight plus l3 in each entry.  A basis vector
is a semistandard tableau of the normalized shape, stored as its column
counts: d1, d2, d3 columns (1,2), (1,3), (2,3) and c1, c2, c3 single boxes
1, 2, 3.  It is the product

    (k*)^d1 (-q h*)^d2 (q^2 g*)^d3 a^c1 b^c2 c^c3 D_q^(d1+d2+d3)

with d3 c1 = 0: a (2,3) column cannot sit beside a single 1.

The tableaux of normalized content mu have first row 1^mu1 2^(mu2-d1)
3^(mu3-l2+d1) and second row 2^d1 3^(l2-d1), so a weight space is the
closed chain v_0, v_1, ... over d1 = max(0, l2-mu3) .. min(l2, mu1, mu2,
mu1+mu2-l2), with d3 = max(0, l2-mu1) and c1 = max(0, mu1-l2) fixed along
it: each step trades (d2, c2) for (d1, c3).  Inner products have closed
hypergeometric forms, one reduced fraction per pair, and gram_schmidt
eliminates the four (form, side) matrices of a weight space, monomial
multiples of one, once.  gram_entry_direct recomputes the entries through
the rewriter and the Haar state as an independent check.  There a vector
is its list of column minors xi^I_J, one per tableau column, and x* is the
reversed product of their complementary minors (minor_star), each at
det_q^{-1}: x* sits at det_q^{-l1}, so x* y and x y* have order l1.
"""

from collections import namedtuple
from functools import cache, lru_cache, reduce
from operator import mul

from .algebra import AlgebraElement, minor_star, quantum_minor
from .haar import haar_state
from .linsys import FeasibilityError
from .scalars import (ONE, ZERO, LaurentPoly, QRational, _LP_ONE, _LP_ZERO,
                      _addmul, _lp_divexact, fraction_sum,
                      over_common_denominator, poch, q_binomial, qq)

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


# the (rows, columns) of each column's quantum minor, in BasisVector order
_COLUMNS = (((1, 2), (1, 2)), ((1, 2), (1, 3)), ((1, 2), (2, 3)),
            ((1,), (1,)), ((1,), (2,)), ((1,), (3,)))


def _column_minors(v, side):
    """v's quantum minors, one per tableau column; side="left" transposes
    each, since the diagonal flip maps xi^I_J to xi^J_I."""
    return [(J, I) if side == "left" else (I, J)
            for (I, J), power in zip(_COLUMNS, v) for _ in range(power)]


def _minor_product(minor, columns):
    """The product of the minors over columns, k - 1 rewriter products for
    k columns; the unit for none."""
    if not columns:
        return AlgebraElement.unit(3)
    return reduce(mul, (minor(3, I, J) for I, J in columns))


def vector_to_element(v, side="right"):
    """The vector as an algebra element: the product of its column minors.
    Double columns contribute two-row minors, so the D_q powers cancel
    exactly.  side="left" applies the diagonal flip."""
    return _minor_product(quantum_minor, _column_minors(v, side))


def _vector_star(v, side):
    """v*, the reversed product of minor_star over the column minors."""
    return _minor_product(minor_star, _column_minors(v, side)[::-1])


def _chain_range(l2, mu):
    """The d1 of the tableaux of content mu, second row l2 long; empty when
    mu does not occur (a negative entry included)."""
    m1, m2, m3 = mu
    return range(max(0, l2 - m3), min(l2, m1, m2, m1 + m2 - l2) + 1)


def weight_space(lam, mu):
    """Chain-ordered basis vectors of the weight space, smallest d1 first
    (v_0 carries the most single-2 boxes)."""
    (l1, l2, _), l3 = normalize_weight(lam)
    m1, m2, m3 = mu = tuple(m - l3 for m in mu)
    if sum(mu) != l1 + l2:
        raise EmptyWeightSpaceError("content does not match the weight")
    d3, c1 = max(0, l2 - m1), max(0, m1 - l2)
    return [BasisVector(d1, min(m1, l2) - d1, d3, c1, m2 - d1 - d3,
                        m3 - l2 + d1)
            for d1 in _chain_range(l2, mu)]


def contents(lam):
    """The distinct contents occurring in lam, sorted."""
    (l1, l2, _), l3 = normalize_weight(lam)
    n = l1 + l2
    mus = ((m1, m2, n - m1 - m2)
           for m1 in range(n + 1) for m2 in range(n - m1 + 1))
    return [tuple(m + l3 for m in mu) for mu in mus if _chain_range(l2, mu)]


# ---------------------------------------------------------------------
# inner products

_SIZE_CAP = 6


def _chain_shift(v, form, side):
    """The v-exponent e such that each (form, side) entry of v's weight space
    is v^e times its right-comodule form-L entry: form R divides by q^(4 d1
    + 2 d2 + 4 c1 + 2 c2), the left side multiplies by q^-(4 c3 + 2 c2 +
    4 d3 + 2 d2), and both powers are constant along a chain."""
    _check_form_side(form, side)
    left = side == "left_comodule"
    e = -4 * (2 * v.c3 + v.c2 + 2 * v.d3 + v.d2) if left else 0
    return e - 4 * (2 * v.d1 + v.d2 + 2 * v.c1 + v.c2) if form == "R" else e


def _chain_offset(vi, vj):
    if vi.shape() != vj.shape() or vi.content() != vj.content():
        raise ValueError("vectors lie in different weight spaces")
    return vj.d1 - vi.d1


@cache
def _gram_double_sum(d1, d2, c1, c2, c3, k):
    """The double sum of the pair <v, v_k> at d3 = 0 as (numerator,
    denominator), two LaurentPoly; _closed_pair passes c1 + d3 for c1.
    Terms past j = J = min(d1, c3) vanish, and the j-th term's one
    non-polynomial factor, 1 / (q^{2(N-j)}; q^2)_{c2+1} with N = d1 + d2 +
    c1 + c3 + 2, is (q^{2(N-J)}; q^2)_{J-j} (q^{2(N-j+c2+1)}; q^2)_j over
    the common denominator (q^{2(N-J)}; q^2)_{c2+1+J}: no gcd is taken.

    The sum is symmetric in its second and fourth arguments (d2 <-> c2,
    with k fixed), which is what lets one formula serve d3 > 0 as well as
    c1 > 0: the paper's sum for a (2,3) column is this one at
    (d1, c2, d3, d2, c3, k).  The symmetry is checked, not proved: it
    holds exactly on all 6,875 argument tuples with entries <= 4 and
    0 <= k <= min(d2, c2); the test suite rechecks entries <= 2, and every
    pair with l1 <= 6 against the paper's two separate sums."""
    n, top = d1 + d2 + c1 + c3 + 2, min(d1, c3)
    acc = {}
    for j in range(top + 1):
        outer = ((q_binomial(d1, j) * q_binomial(c3, j) * poch(1, j)).num
                 * poch(n - top, top - j).num
                 * poch(n - j + c2 + 1, j).num).shift(2 * (j * j - j))
        inner, step = {}, 4 * (d1 + d2 + c3 - j + 1)
        for i in range(c2 - k + 1):
            a = (poch(1, c1 + i) * q_binomial(c2 - k, i)).num.shift(step * i)
            _addmul(inner, a, poch(1, d1 + c2 + c3 - j - i).num)
        _addmul(acc, -outer if j % 2 else outer, LaurentPoly(inner))
    return LaurentPoly(acc), poch(n - top, c2 + 1 + top).num


@cache
def _closed_pair(v, k):
    """<v, v_k> for the right comodule and form L, with v_k the vector k
    steps further along v's chain; every other (form, side) is this entry
    times v^_chain_shift.  poch(1, d2) / poch(1, d1+d2+d3+1) is 1 /
    poch(d2+1, d1+d3+1), and likewise for c: one fraction, reduced once."""
    d1, d2, d3, c1, c2, c3 = v
    e2 = d1 * d2 + d1 * d3 + d2 * d3 + c1 * c2 + c1 * c3 + c2 * c3
    pre = 2 * e2 + 4 * (d1 + d2 + d3 + c1 + c2 + c3) + k * (d2 + c2 - k)
    num, den = _gram_double_sum(d1, d2, c1 + d3, c2, c3, k)
    return QRational((_Q2 * _Q2 * _Q4).num.shift(2 * pre) * num,
                     poch(d2 + 1, d1 + d3 + 1).num
                     * poch(c2 + 1, c1 + c3 + 1).num * den)


def _check_form_side(form, side):
    if form not in ("L", "R"):
        raise ValueError("unknown form %r" % (form,))
    if side not in ("right_comodule", "left_comodule"):
        raise ValueError("unknown side %r" % (side,))


def gram_entry_closed(vi, vj, form="L", side="right_comodule"):
    """The inner product <v_i, v_j> from the closed hypergeometric forms.

    form "L" is h(x* y), form "R" is h(x y*); side picks the right- or
    left-comodule chain (the latter differing by the diagonal flip).  All
    four are the memoized base entry shifted by _chain_shift."""
    e = _chain_shift(vi, form, side)
    k = _chain_offset(vi, vj)
    if k < 0:
        vi, vj, k = vj, vi, -k
    return _closed_pair(vi, k).shift(e)


def gram_entry_direct(vi, vj, form="L", side="right_comodule"):
    """The same inner product through the rewriter and the Haar state.

    star is anti-multiplicative, so x* is the reversed product of the
    complementary minors that minor_star gives for x's column minors, each
    at det_q^{-1}; x* y and x y* have order l1.  The route rests on the
    minor_star identity, which the tests check against the letter-level
    star.  Past _SIZE_CAP boxes in the first row it raises FeasibilityError."""
    _check_form_side(form, side)
    _chain_offset(vi, vj)
    if vi.shape()[0] > _SIZE_CAP:
        raise FeasibilityError("exponent sum exceeds the direct-method cap")
    which = "right" if side == "right_comodule" else "left"
    if form == "L":
        return haar_state(_vector_star(vi, which)
                          * vector_to_element(vj, which))
    return haar_state(vector_to_element(vi, which)
                      * _vector_star(vj, which))


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
    vs = weight_space(lam, mu)
    if not vs:
        raise EmptyWeightSpaceError("empty weight space")
    if method == "closed":
        e = _chain_shift(vs[0], form, side)
        entry = lambda vi, vj: _closed_pair(vi, vj.d1 - vi.d1).shift(e)
    elif method == "direct":
        entry = lambda vi, vj: gram_entry_direct(vi, vj, form, side)
    else:
        raise ValueError("unknown method %r" % (method,))
    n = len(vs)
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = entry(vs[i], vs[j])
    return GramMatrix(tuple(lam), tuple(mu), form, side, vs, rows)


def gram_schmidt(g):
    """Orthogonalize: a unit lower-triangular transform T with
    T G T^t diagonal, plus the diagonal (the squared norms).  No square
    roots are taken, so the output basis is orthogonal, not orthonormal.

    At dimension 1, T is [[1]] and the norm is G_00.  Otherwise T is that of
    v^-e G and the norms are v^e times its norms, e the valuation of G_00's
    numerator, so monomial multiples share one elimination (_bareiss)."""
    entries = g.entries if isinstance(g, GramMatrix) else g
    if not entries:
        return [], []
    if len(entries) == 1 and entries[0][0]:
        return [[ONE]], [entries[0][0]]
    e = entries[0][0].num.valuation()
    transform, norms = _bareiss(tuple(tuple(x.shift(-e) for x in row)
                                      for row in entries))
    return [list(row) for row in transform], [x.shift(e) for x in norms]


@lru_cache(maxsize=256)
def _bareiss(entries):
    """gram_schmidt's (T, norms) as tuples, for a tuple of rows G.

    Fraction-free (Bareiss 1968): G = N / D over one common denominator,
    then Bareiss elimination on [N | I], where every division is exact.
    Row i ends as Delta_i times row i of [U | T], with Delta_i the i-th
    leading principal minor of N (Delta_0 = 1), so its pivot is
    Delta_(i+1), T[i] is its right half over Delta_i, and the i-th norm is
    Delta_(i+1) / (Delta_i D).  Each output entry is one reduction, except
    the first norm: Delta_1 / D = N_00 / D is G_00, already reduced.  The
    closed Gram matrices with l1 <= 6 take 74 distinct eliminations."""
    n = len(entries)
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
    transform = tuple(tuple(QRational(rows[i][n + j], minors[i]) if j < i
                            else (ONE if j == i else ZERO) for j in range(n))
                      for i in range(n))
    norms = (entries[0][0],) + tuple(QRational(minors[i + 1], minors[i] * D)
                                     for i in range(1, n))
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
    occurring = set(contents(lam))
    for w in (weight_i, weight_j):
        if tuple(w) not in occurring:
            raise ValueError("weight does not occur in lambda")
    d = quantum_dimension(lam)
    return (qq(2 * _rho_pairing(weight_i)) / d,
            qq(-2 * _rho_pairing(weight_j)) / d)
