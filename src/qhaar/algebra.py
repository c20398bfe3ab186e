"""The quantized coordinate bialgebra of n x n matrices, extended by the
inverse quantum determinant.

Elements are linear combinations of canonical words.  A word is a sequence
of generators x_{i,j} together with a power of det_q^{-1}; it is canonical
when its generators are sorted in row-lexicographic order (row first, then
column).  The quantum determinant D_q itself is never stored as a symbol:
it is always expanded into generator words, so a canonical form is unique
for a fixed det power.  Minors are written canonical, rows increasing
along each word; only products and non-canonical input are rewritten.
"""

from functools import cache
from itertools import permutations

from .scalars import QRational, ZERO, ONE, qq, fraction_sum, _bucket_sum
from .rewriter import _coproduct_legs, _times_words

# letter aliases for n = 3, row-major ('i' and 'j' are reserved for indices)
LETTERS = "abcdefghk"
LETTER_TO_GEN = {ch: (p // 3 + 1, p % 3 + 1) for p, ch in enumerate(LETTERS)}
GEN_TO_LETTER = {v: k for k, v in LETTER_TO_GEN.items()}


def inversions(perm):
    """Inversion count of a permutation given as a tuple of values."""
    return sum(1 for a in range(len(perm)) for b in range(a + 1, len(perm))
               if perm[a] > perm[b])


def _neg_q_power(e):
    """(-q)^e for any integer e."""
    s = -ONE if e % 2 else ONE
    return s * qq(e)


# ---------------------------------------------------------------------
# products of canonical terms


def _add_bucket(acc, key, den, c):
    """acc[key][den] += c for a Laurent coefficient c, a dict v-exponent ->
    integer from the rewriter, which a new bucket keeps as it is."""
    buckets = acc.setdefault(key, {})
    old = buckets.get(den)
    if old is None:
        buckets[den] = c
    else:
        for e, x in c.items():
            old[e] = old.get(e, 0) + x


def _wrap(acc):
    """{key: QRational} from {key: {den: v-exponent -> integer coefficient}},
    one exact sum per key; zero sums are dropped."""
    out = {}
    for key, buckets in acc.items():
        c = _bucket_sum(buckets)
        if c:
            out[key] = c
    return out


def _product(left, right):
    """Canonical terms {(word, det): QRational} of x y, for x given by its
    canonical terms left and y by terms right {(factors, det): QRational}
    whose words need not be canonical.  x y = sum_w x w over the right
    words w: the left terms are grouped by (det power, coefficient
    denominator), each group takes the words of a right group one letter at
    a time (_times_words), and the integer numerators are summed per (word,
    det, denominator) before one normalization per term (_wrap)."""
    groups = {}
    for (f, d), c in left.items():
        groups.setdefault((d, c.den), {})[f] = c.num.terms
    words = {}
    for (f, d), c in right.items():
        if c.is_zero():
            continue
        if d < 0:
            raise ValueError("det power must be >= 0")
        words.setdefault((d, c.den), []).append((tuple(f), c.num.terms))
    acc = {}
    for (d2, den2), ws in words.items():
        ws.sort(key=lambda wc: wc[0])
        for (d1, den1), terms in groups.items():
            det, den = d1 + d2, den1 * den2
            for w, c in _times_words(terms, ws).items():
                _add_bucket(acc, (w, det), den, c)
    return _wrap(acc)


# ---------------------------------------------------------------------


class AlgebraElement:
    """Linear combination of canonical words over QRational.

    terms maps (factors, det_power) to a scalar, where factors is a tuple of
    (row, col) pairs and det_power counts copies of det_q^{-1} (always >= 0).
    """

    __slots__ = ("n", "terms")

    def __init__(self, n, terms=None, canonical=False):
        if n < 1:
            raise ValueError("rank must be positive")
        merged = {}
        if terms:
            if canonical:
                merged = {w: c for w, c in terms.items() if not c.is_zero()}
            else:
                for g in (g for factors, _det in terms for g in factors):
                    if not (1 <= g[0] <= n and 1 <= g[1] <= n):
                        raise ValueError("generator %r out of range for "
                                         "rank %d" % (g, n))
                merged = _product({((), 0): ONE}, terms)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", merged)

    def __setattr__(self, *a):
        raise AttributeError("AlgebraElement is immutable")

    # -- constructors --------------------------------------------------

    @staticmethod
    def unit(n):
        return AlgebraElement(n, {((), 0): ONE}, canonical=True)

    @staticmethod
    def zero(n):
        return AlgebraElement(n, {}, canonical=True)

    @staticmethod
    def gen(n, i, j):
        if not (1 <= i <= n and 1 <= j <= n):
            raise ValueError("generator index out of range")
        return AlgebraElement(n, {(((i, j),), 0): ONE}, canonical=True)

    @staticmethod
    def det_inv(n, power=1):
        return AlgebraElement(n, {((), power): ONE}, canonical=True)

    @staticmethod
    def word(n, factors, det=0, coeff=ONE):
        return AlgebraElement(n, {(tuple(factors), det): coeff})

    @staticmethod
    def from_letters(text, det=0, coeff=ONE):
        """n=3 shorthand: a word from its letter string, e.g. 'ceg'."""
        return AlgebraElement.word(3, [LETTER_TO_GEN[ch] for ch in text], det,
                                   coeff)

    # -- structure -----------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (isinstance(other, AlgebraElement) and self.n == other.n
                and self.terms == other.terms)

    def __iter__(self):
        return iter(self.terms.items())

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        if self.n != other.n:
            raise ValueError("rank mismatch")
        t = dict(self.terms)
        for w, c in other.terms.items():
            s = t.get(w, ZERO) + c
            if s.is_zero():
                t.pop(w, None)
            else:
                t[w] = s
        return AlgebraElement(self.n, t, canonical=True)

    def __neg__(self):
        return AlgebraElement(self.n, {w: -c for w, c in self.terms.items()},
                              canonical=True)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        if isinstance(c, int):
            c = QRational.from_int(c)
        if c.is_zero():
            return AlgebraElement.zero(self.n)
        return AlgebraElement(self.n, {w: c * v for w, v in self.terms.items()},
                              canonical=True)

    def __mul__(self, other):
        if isinstance(other, (int, QRational)):
            return self.scale(other)
        if self.n != other.n:
            raise ValueError("rank mismatch")
        return AlgebraElement(self.n, _product(self.terms, other.terms),
                              canonical=True)

    def __rmul__(self, other):
        if isinstance(other, (int, QRational)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power of an algebra element")
        r = AlgebraElement.unit(self.n)
        for _ in range(k):
            r = r * self
        return r

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for (factors, det) in sorted(self.terms, key=lambda w: (w[1], w[0])):
            c = self.terms[(factors, det)]
            if self.n == 3:
                w = "".join(GEN_TO_LETTER[g] for g in factors)
            else:
                w = " ".join("x[%d,%d]" % g for g in factors)
            if det:
                w += (" " if w else "") + "det^-%d" % det
            bits.append("(%s)%s" % (c, "*" + w if w else ""))
        return " + ".join(bits)

    __repr__ = __str__


# ---------------------------------------------------------------------
# bialgebra structure


class TensorElement:
    """Linear combination of (word (x) word) tensors, both legs canonical."""

    __slots__ = ("n", "terms")

    def __init__(self, n, terms):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms",
                           {k: v for k, v in terms.items() if not v.is_zero()})

    def __setattr__(self, *a):
        raise AttributeError("TensorElement is immutable")

    def __eq__(self, other):
        return (isinstance(other, TensorElement) and self.n == other.n
                and self.terms == other.terms)

    def __iter__(self):
        return iter(self.terms.items())


def comultiply(x):
    """Coproduct into a TensorElement, both legs normal-ordered
    (rewriter._coproduct_legs)."""
    n = x.n
    acc = {}
    for (factors, det), coeff in x.terms.items():
        for (cl, cr), c in _coproduct_legs(n, factors,
                                           coeff.num.terms).items():
            _add_bucket(acc, ((cl, det), (cr, det)), coeff.den, c)
    return TensorElement(n, _wrap(acc))


def counit(x):
    return fraction_sum(coeff for (factors, _det), coeff in x.terms.items()
                        if all(i == j for (i, j) in factors))


def _index_sets(n, I, J):
    """I and J as tuples, checked to be strictly increasing inside 1..n (each
    its own sorted intersection with 1..n) and of equal size."""
    I, J, span = tuple(I), tuple(J), set(range(1, n + 1))
    if len(I) != len(J) or any(S != tuple(sorted(set(S) & span))
                               for S in (I, J)):
        raise ValueError("index sets %r and %r are not strictly increasing "
                         "inside 1..%d and of equal size" % (I, J, n))
    return I, J


def _minor(n, I, J, det, e):
    """(-q)^e xi^I_J det_q^{-det} for checked I and J: the word
    x_{I_1,J_tau(1)} ... x_{I_k,J_tau(k)} times (-q)^(l(tau) + e) for each
    permutation tau, canonical as written."""
    return AlgebraElement(n, {
        (tuple(zip(I, (J[t] for t in tau))), det):
            _neg_q_power(inversions(tau) + e)
        for tau in permutations(range(len(J)))}, canonical=True)


def quantum_minor(n, I, J):
    """The quantum minor with row set I and column set J."""
    return _minor(n, *_index_sets(n, I, J), 0, 0)


def quantum_determinant(n):
    return quantum_minor(n, range(1, n + 1), range(1, n + 1))


@cache
def quantum_determinant_power(n, m):
    """D_q^m, expanded and cached.  A cold call fills the powers below it in
    one upward pass of _det_power_step, so it makes O(m) cache lookups and
    no call nests deeper than two levels."""
    if m < 0:
        raise ValueError("D_q power must be nonnegative")
    for k in range(m):
        _det_power_step(n, k)
    return _det_power_step(n, m)


@cache
def _det_power_step(n, m):
    """D_q^m = D_q^(m-1) D_q.  quantum_determinant_power calls it for
    m = 0, 1, 2, ... in turn, so D_q^(m-1) is always a cache hit.  D_q is
    central, but the power stays on the left: the product inserts the n
    letters of each word of D_q into D_q^(m-1), where D_q D_q^(m-1) would
    insert all n (m - 1) letters of every word of the power."""
    if m == 0:
        return AlgebraElement.unit(n)
    return _det_power_step(n, m - 1) * quantum_determinant(n)


def _complement(n, S):
    return tuple(sorted(set(range(1, n + 1)) - set(S)))


def _anti_extend(x, gen_image):
    """The anti-multiplicative extension of x_{i,j} -> gen_image(n, i, j)
    and det_q^{-1} -> D_q, linear over scalars, in one pass.  Each
    generator image, a sum of words at det power 1 with integer
    coefficients, is formed once.  A term c x_{f_1} ... x_{f_L} det^-d
    maps to c D_q^d image(f_L) ... image(f_1) det^-L, in one call of
    _times_words that inserts each letter's image words into the normal
    form so far, and each output term is normalized once (_wrap)."""
    n = x.n
    images = {}
    acc = {}
    for (factors, det), c in x.terms.items():
        for g in factors:
            if g not in images:
                images[g] = sorted(((w, cw.num.terms) for (w, _d), cw
                                    in gen_image(n, *g).terms.items()),
                                   key=lambda wc: wc[0])
        left = {w: (cw.num * c.num).terms for (w, _d), cw
                in quantum_determinant_power(n, det).terms.items()}
        words = [images[g] for g in reversed(factors)]
        for w, cw in _times_words(left, *words).items():
            _add_bucket(acc, (w, len(factors)), c.den, cw)
    return AlgebraElement(n, _wrap(acc), canonical=True)


def antipode(x):
    """S(x_{i,j}) = (x_{j,i})^*, the 1 x 1 case of minor_star."""
    return _anti_extend(x, lambda n, i, j: minor_star(n, (j,), (i,)))


def star(x):
    """The star structure of the compact real form; anti-multiplicative and
    involutive, the identity on scalars (q is real)."""
    return _anti_extend(x, lambda n, i, j: minor_star(n, (i,), (j,)))


def minor_star(n, I, J):
    """(xi^I_J)^* = (-q)^(l(J, Jc) - l(I, Ic)) xi^Ic_Jc det_q^{-1}.  For S
    increasing, l(S, Sc), the pairs s > t with s in S and t in Sc, is
    sum_k (S_k - k), so the sign is (-q)^(sum J - sum I), in each word."""
    I, J = _index_sets(n, I, J)
    return _minor(n, _complement(n, I), _complement(n, J), 1, sum(J) - sum(I))


def _rho_exponent(n, factors):
    """The q-exponent by which the modular automorphism rho scales a word:
    the sum of 2n + 2 - 2i - 2j over its letters x_{i,j}."""
    return sum(2 * n + 2 - 2 * i - 2 * j for (i, j) in factors)


def apply_morphism(x, which):
    """gamma: diagonal flip homomorphism; omega: double flip anti-homomorphism;
    rho: the modular automorphism (diagonal rescaling)."""
    n = x.n
    # both flips map each canonical word to one canonical word, with no
    # rewriting: gamma's transposed word, sorted, moves only anti-diagonal
    # pairs, which commute, and omega's reversed rotation is already sorted
    if which == "gamma":
        return AlgebraElement(n, {(tuple(sorted((j, i) for (i, j) in f)), d): c
                                  for (f, d), c in x.terms.items()},
                              canonical=True)
    if which == "omega":
        return AlgebraElement(n, {
            (tuple((n + 1 - i, n + 1 - j) for (i, j) in reversed(f)), d): c
            for (f, d), c in x.terms.items()}, canonical=True)
    if which == "rho":
        return AlgebraElement(n, {(factors, det): c * qq(_rho_exponent(
            n, factors)) for (factors, det), c in x.terms.items()},
            canonical=True)
    raise ValueError("unknown morphism %r" % which)


# ---------------------------------------------------------------------
# counting matrices


def counting_matrix(n, factors):
    """Generator multiplicity matrix, as a tuple of row tuples."""
    rows = [[0] * n for _ in range(n)]
    for (i, j) in factors:
        rows[i - 1][j - 1] += 1
    return tuple(tuple(r) for r in rows)


def stochastic_order(theta):
    """The order an m-doubly-stochastic matrix represents, or None."""
    n = len(theta)
    rs = [sum(r) for r in theta]
    cs = [sum(theta[i][j] for i in range(n)) for j in range(n)]
    m = rs[0]
    if all(s == m for s in rs) and all(s == m for s in cs):
        return m
    return None


def is_order_m(x):
    """m when every word has det power m and an m-doubly-stochastic counting
    matrix; None otherwise."""
    m = None
    for (factors, det), _c in x.terms.items():
        got = stochastic_order(counting_matrix(x.n, factors))
        if got is None or got != det or (m is not None and m != det):
            return None
        m = det
    return m


def pseudo_word(theta):
    """The canonical (row-lexicographic) word with counting matrix theta."""
    factors = []
    for i, row in enumerate(theta):
        for j, mult in enumerate(row):
            factors.extend([(i + 1, j + 1)] * mult)
    return tuple(factors)


def lift_det(x, level):
    """Rewrite x so every word sits at det power `level`, multiplying by
    expanded powers of D_q (an equality in the algebra, since
    D_q * det_q^{-1} = 1)."""
    out = AlgebraElement.zero(x.n)
    for (factors, det), c in x.terms.items():
        if det > level:
            raise ValueError("cannot lower a det power")
        piece = AlgebraElement(x.n, {(factors, level): c}, canonical=True)
        if det < level:
            piece = piece * quantum_determinant_power(x.n, level - det)
        out = out + piece
    return out


def equal_mod_det(x, y):
    """Equality in the localized algebra: lift both sides to a common det
    power, where canonical words form a basis, and compare."""
    if x.n != y.n:
        return False
    dets = [d for (_f, d) in x.terms] + [d for (_f, d) in y.terms]
    level = max(dets) if dets else 0
    return lift_det(x, level) == lift_det(y, level)
