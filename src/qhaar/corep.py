"""Irreducible corepresentations at rank 3: tableaux, basis vectors, and
Gram matrices.

A dominant weight (l1 >= l2 >= l3) is normalized to (l1-l3, l2-l3, 0); the
dropped det power never affects inner products.  Basis vectors of a weight
space come in two families,

    A:  (k*)^d1 (-q h*)^d2 a^c1 b^c2 c^c3 D_q^(d1+d2)          (d3 = 0)
    B:  (k*)^d1 (-q h*)^d2 (q^2 g*)^d3 b^c2 c^c3 D_q^(d1+..)   (c1 = 0)

and a weight space is a single chain v_0, v_1, ... where each step trades
(d2, c2) for (d1, c3).  Inner products have closed hypergeometric forms;
gram_entry_direct recomputes them through the rewriter and the Haar state
as an independent check.
"""

from .algebra import (AlgebraElement, apply_morphism, quantum_minor, star)
from .haar import haar_state
from .scalars import ONE, ZERO, poch, q_binomial, qq

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
# tableaux


class Tableau:
    """A semistandard filling of a two-row shape with labels 1..3."""

    __slots__ = ("shape", "rows", "det_shift")

    def __init__(self, shape, rows, det_shift=0):
        (l1, l2, _), shift = normalize_weight(shape)
        r1, r2 = (tuple(rows[0]), tuple(rows[1]) if len(rows) > 1 else ())
        if len(r1) != l1 or len(r2) != l2:
            raise ValueError("row lengths do not match the shape")
        for row in (r1, r2):
            if any(not 1 <= x <= 3 for x in row):
                raise ValueError("labels must lie in 1..3")
            if any(row[i] > row[i + 1] for i in range(len(row) - 1)):
                raise ValueError("rows must weakly increase")
        if any(r1[i] >= r2[i] for i in range(len(r2))):
            raise ValueError("columns must strictly increase")
        object.__setattr__(self, "shape", (l1, l2, 0))
        object.__setattr__(self, "rows", (r1, r2))
        object.__setattr__(self, "det_shift", det_shift + shift)

    def __setattr__(self, *a):
        raise AttributeError("Tableau is immutable")

    def __eq__(self, other):
        return (isinstance(other, Tableau) and self.shape == other.shape
                and self.rows == other.rows
                and self.det_shift == other.det_shift)

    def __hash__(self):
        return hash((self.shape, self.rows, self.det_shift))

    def content(self):
        counts = [0, 0, 0]
        for row in self.rows:
            for x in row:
                counts[x - 1] += 1
        return tuple(counts)

    def __repr__(self):
        return "Tableau(%r, %r)" % (self.shape, self.rows)


def enumerate_ssyt(lam):
    """All semistandard tableaux of the (normalized) shape, sorted by
    content and then by chain position."""
    (l1, l2, _), shift = normalize_weight(lam)
    out = []

    def fill_row2(r1, r2):
        pos = len(r2)
        if pos == l2:
            out.append(Tableau((l1, l2, 0), (r1, r2), det_shift=shift))
            return
        lo = max(r1[pos] + 1, r2[-1] if r2 else 1)
        for x in range(lo, 4):
            fill_row2(r1, r2 + (x,))

    def fill_row1(r1):
        if len(r1) == l1:
            fill_row2(r1, ())
            return
        for x in range(r1[-1] if r1 else 1, 4):
            fill_row1(r1 + (x,))

    fill_row1(())
    out.sort(key=lambda t: (t.content(), tableau_to_vector(t).d1))
    return out


# ---------------------------------------------------------------------
# basis vectors


class BasisVector:
    """Exponent data of a chain vector; family A has d3 = 0, family B has
    c1 = 0 (a semistandard filling cannot need both)."""

    __slots__ = ("family", "d1", "d2", "d3", "c1", "c2", "c3", "det_shift")

    def __init__(self, family, d1, d2, d3, c1, c2, c3, det_shift=0):
        if family not in ("A", "B"):
            raise ValueError("family must be A or B")
        if min(d1, d2, d3, c1, c2, c3) < 0:
            raise ValueError("exponents must be nonnegative")
        if family == "A" and d3 or family == "B" and c1:
            raise ValueError("exponents do not match the family")
        for name, val in zip(self.__slots__,
                             (family, d1, d2, d3, c1, c2, c3, det_shift)):
            object.__setattr__(self, name, val)

    def __setattr__(self, *a):
        raise AttributeError("BasisVector is immutable")

    def _key(self):
        return (self.family, self.d1, self.d2, self.d3, self.c1, self.c2,
                self.c3, self.det_shift)

    def __eq__(self, other):
        return isinstance(other, BasisVector) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "BasisVector(%r, d=(%d,%d,%d), c=(%d,%d,%d))" % (
            self.family, self.d1, self.d2, self.d3, self.c1, self.c2, self.c3)

    def shape(self):
        d = self.d1 + self.d2 + self.d3
        return (d + self.c1 + self.c2 + self.c3, d, 0)

    def content(self):
        return (self.d1 + self.d2 + self.c1,
                self.d1 + self.d3 + self.c2,
                self.d2 + self.d3 + self.c3)


def tableau_to_vector(t):
    l1, l2 = t.shape[0], t.shape[1]
    r1, r2 = t.rows
    cols = {(1, 2): 0, (1, 3): 0, (2, 3): 0}
    for i in range(l2):
        cols[(r1[i], r2[i])] += 1
    singles = [0, 0, 0]
    for x in r1[l2:]:
        singles[x - 1] += 1
    d1, d2, d3 = cols[(1, 2)], cols[(1, 3)], cols[(2, 3)]
    c1, c2, c3 = singles
    family = "A" if d3 == 0 else "B"
    return BasisVector(family, d1, d2, d3, c1, c2, c3, t.det_shift)


_XI_COLUMN = {1: ((1, 2), (1, 2)), 2: ((1, 2), (1, 3)), 3: ((1, 2), (2, 3))}


def vector_to_element(v, side="right"):
    """The vector as an algebra element (det_shift ignored).  Double
    columns contribute two-row minors, so the D_q powers cancel exactly.
    side="left" applies the diagonal flip."""
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


def weight_space(lam, mu):
    """Chain-ordered basis vectors of the weight space, smallest d1 first
    (v_0 carries the most single-2 boxes)."""
    (l1, l2, _), _shift = normalize_weight(lam)
    if sum(mu) != l1 + l2:
        raise EmptyWeightSpaceError("content does not match the weight")
    return [tableau_to_vector(t) for t in enumerate_ssyt((l1, l2, 0))
            if t.content() == tuple(mu)]


def contents(lam):
    """The distinct contents occurring in lam, sorted."""
    return sorted({t.content() for t in enumerate_ssyt(lam)})


# ---------------------------------------------------------------------
# inner products

_SIZE_CAP = 6


def _rho_scale(v):
    if v.family == "A":
        return qq(4 * v.d1 + 2 * v.d2 + 4 * v.c1 + 2 * v.c2)
    return qq(4 * v.d1 + 2 * v.d2 + 2 * v.c2)


def _left_transfer(v):
    if v.family == "A":
        return qq(-4 * v.c3 - 2 * v.c2 - 2 * v.d2)
    return qq(-4 * v.c3 - 2 * v.c2 - 4 * v.d3 - 2 * v.d2)


def _chain_offset(vi, vj):
    if (vi.family != vj.family or vi.shape() != vj.shape()
            or vi.content() != vj.content()):
        raise ValueError("vectors lie in different weight spaces")
    return vj.d1 - vi.d1


def _family_a_double_sum(d1, d2, c1, c2, c3, k):
    """The double sum of the family A pair; family B's is this sum at
    (d1, c2, d3, d2, c3, k).  Terms past j = min(d1, c3) vanish."""
    total = ZERO
    for j in range(min(d1, c3) + 1):
        outer = (qq(j * j - j) * q_binomial(d1, j) * q_binomial(c3, j)
                 * poch(1, j) / poch(d1 + d2 + c1 + c3 - j + 2, c2 + 1))
        if j % 2:
            outer = -outer
        inner = ZERO
        for i in range(c2 - k + 1):
            inner = inner + (qq((2 * d1 + 2 * d2 + 2 * c3 - 2 * j + 2) * i)
                             * poch(1, c1 + i)
                             * poch(1, d1 + c2 + c3 - j - i)
                             * q_binomial(c2 - k, i))
        total = total + outer * inner
    return total


def _closed_pair_A(v, k):
    d1, d2, c1, c2, c3 = v.d1, v.d2, v.c1, v.c2, v.c3
    pre = qq(2 * d1 * d2 + 4 * d1 + 4 * d2 + 2 * c1 * c2 + 2 * c1 * c3
             + 2 * c2 * c3 + 4 * c1 + 4 * c2 + 4 * c3 + k * (d2 + c2 - k))
    base = (pre * _Q2 * _Q2 * _Q4 * poch(1, d2) * poch(1, c2)
            / (poch(1, d1 + d2 + 1) * poch(1, c1 + c2 + c3 + 1)))
    return base * _family_a_double_sum(d1, d2, c1, c2, c3, k)


def _closed_pair_B(v, k):
    d1, d2, d3, c2, c3 = v.d1, v.d2, v.d3, v.c2, v.c3
    pre = qq(2 * d2 * d3 + 2 * d1 * d2 + 2 * d1 * d3 + 4 * d3 + 4 * d1
             + 4 * d2 + 2 * c2 * c3 + 4 * c2 + 4 * c3 + k * (d2 + c2 - k))
    base = (pre * _Q2 * _Q2 * _Q4 * poch(1, d2) * poch(1, c2)
            / (poch(1, c2 + c3 + 1) * poch(1, d1 + d2 + d3 + 1)))
    return base * _family_a_double_sum(d1, c2, d3, d2, c3, k)


def gram_entry_closed(vi, vj, form="L", side="right_comodule"):
    """The inner product <v_i, v_j> from the closed hypergeometric forms.

    form "L" is h(x* y), form "R" is h(x y*); side picks the right- or
    left-comodule chain (the latter differing by the diagonal flip).  The
    four variants differ from the base case by weight-space constants."""
    k = _chain_offset(vi, vj)
    if k < 0:
        vi, vj, k = vj, vi, -k
    pair = _closed_pair_A if vi.family == "A" else _closed_pair_B
    right_l = pair(vi, k)
    if side == "right_comodule":
        if form == "L":
            return right_l
        if form == "R":
            return right_l / _rho_scale(vi)
    elif side == "left_comodule":
        if form == "L":
            return _left_transfer(vi) * right_l
        if form == "R":
            return _left_transfer(vi) * right_l / _rho_scale(vi)
    raise ValueError("unknown form/side")


def gram_entry_direct(vi, vj, form="L", side="right_comodule"):
    """The same inner product through the rewriter and the Haar state."""
    for v in (vi, vj):
        if v.d1 + v.d2 + v.d3 + v.c1 + v.c2 + v.c3 > _SIZE_CAP:
            raise ValueError("exponent sum exceeds the direct-method cap")
    _chain_offset(vi, vj)
    which = "right" if side == "right_comodule" else "left"
    x = vector_to_element(vi, which)
    y = vector_to_element(vj, which)
    if form == "L":
        return haar_state(star(x) * y)
    if form == "R":
        return haar_state(x * star(y))
    raise ValueError("unknown form %r" % form)


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
            "vectors": [[v.d1, v.d2, v.d3, v.c1, v.c2, v.c3]
                        for v in self.vectors],
            "entries": [[e.to_pairs() for e in row]
                        for row in self.entries],
        }


def gram_matrix(lam, mu, form="L", side="right_comodule", method="closed"):
    vs = weight_space(lam, mu)
    if not vs:
        raise EmptyWeightSpaceError("empty weight space")
    entry = gram_entry_closed if method == "closed" else gram_entry_direct
    n = len(vs)
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = entry(vs[i], vs[j], form, side)
    return GramMatrix(tuple(lam), tuple(mu), form, side, vs, rows)


def gram_schmidt(g):
    """Orthogonalize: a unit lower-triangular transform T with
    T G T^t diagonal, plus the diagonal (the squared norms).  No square
    roots are taken, so the output basis is orthogonal, not orthonormal."""
    entries = g.entries if isinstance(g, GramMatrix) else g
    n = len(entries)
    transform = [[ONE if i == j else ZERO for j in range(n)]
                 for i in range(n)]
    norms = []
    for i in range(n):
        for j in range(i):
            # <u_j, v_i> with u_j = sum_k T[j][k] v_k
            dot = ZERO
            for k in range(j + 1):
                dot = dot + transform[j][k] * entries[k][i]
            if norms[j].is_zero():
                raise ValueError("singular leading minor")
            coef = dot / norms[j]
            for k in range(j + 1):
                transform[i][k] = transform[i][k] - coef * transform[j][k]
        sq = ZERO
        for k in range(i + 1):
            for l in range(i + 1):
                sq = sq + transform[i][k] * transform[i][l] * entries[k][l]
        if sq.is_zero():
            raise ValueError("singular leading minor")
        norms.append(sq)
    return transform, norms


# ---------------------------------------------------------------------
# dimensions and norms


def _rho_pairing(mu):
    # 2 rho = 2 eps_1 - 2 eps_3 at rank 3, so (rho, mu) = mu_1 - mu_3
    return mu[0] - mu[2]


def quantum_dimension(lam):
    d = ZERO
    for t in enumerate_ssyt(lam):
        d = d + qq(2 * _rho_pairing(t.content()))
    if d.is_zero():
        return ONE
    return d


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
