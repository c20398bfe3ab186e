"""The quantized coordinate bialgebra of n x n matrices, extended by the
inverse quantum determinant.

Elements are linear combinations of canonical words.  A word is a sequence
of generators x_{i,j} together with a power of det_q^{-1}; it is canonical
when its generators are sorted in row-lexicographic order (row first, then
column).  The quantum determinant D_q itself is never stored as a symbol:
it is always expanded into generator words, so a canonical form is unique
for a fixed det power.
"""

from bisect import bisect_right
from functools import cache
from itertools import permutations

from .scalars import LaurentPoly, QRational, ZERO, ONE, qq, fraction_sum, \
    _LP_ONE, _addmul, _bucket_sum

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
# the rewriting engine
#
# Normal forms are built one letter at a time: for a canonical word t and a
# generator g, t g = low (high g), where low holds the letters of t that are
# <= g and high the rest, and only high g needs rewriting.  No switching rule
# produces a letter outside the range of the pair it rewrites, so every word
# of nf(high g) has letters >= g and low stays in front.


def _polys(acc):
    """{word: LaurentPoly} from {word: {v-exponent: integer}}, dropping
    words whose coefficients cancel."""
    out = {}
    for w, t in acc.items():
        c = LaurentPoly(t)
        if c:
            out[w] = c
    return out


@cache
def _insert(high, g):
    """nf(high g) for a canonical word high, possibly empty, whose letters
    all exceed the generator g: dict canonical word -> LaurentPoly.

    g bubbles leftwards through high.  Passing a letter in its row or column
    multiplies by q^{-1} = v^{-2}; passing an anti-diagonal letter is free;
    passing h = high[p] = (i1, j1) strictly below and right of g = (i2, j2),
    i.e. i1 > i2 and j1 > j2, also splits off
    v^e (q^{-1} - q) nf(high[:p] (i2, j1) (i1, j2)) high[p + 1:].  That
    normal form has no letter above h, so the suffix stays in place."""
    i2, j2 = g
    e = 0
    acc = {}
    for p in range(len(high) - 1, -1, -1):
        i1, j1 = high[p]
        if i1 == i2 or j1 == j2:
            e -= 2
        elif j1 > j2:
            # v^e (q^{-1} - q) = v^(e - 2) - v^(e + 2)
            f = LaurentPoly({e - 2: 1, e + 2: -1})
            suffix = high[p + 1:]
            for w, c in _fold(high[:p], ((i2, j1), (i1, j2))).items():
                _addmul(acc.setdefault(w + suffix, {}), f, c)
    t = acc.setdefault((g,) + high, {})
    t[e] = t.get(e, 0) + 1
    return _polys(acc)


def _fold(start, letters):
    """nf(start letters) for a canonical word start, inserting the letters
    one at a time: dict canonical word -> LaurentPoly."""
    terms = {start: _LP_ONE}
    for g in letters:
        acc = {}
        for t, c in terms.items():
            s = bisect_right(t, g)
            low = t[:s]
            for w, c2 in _insert(t[s:], g).items():
                _addmul(acc.setdefault(low + w, {}), c, c2)
        terms = _polys(acc)
    return terms


@cache
def _expand(word):
    """Canonical expansion of a generator tuple: dict canonical word ->
    LaurentPoly (every rewriting coefficient has denominator 1), folding the
    letters after the longest sorted prefix into it one at a time.  The
    result is shared between callers and must not be mutated."""
    s = 1
    while s < len(word) and word[s - 1] <= word[s]:
        s += 1
    return _fold(word[:s], word[s:])


def _wrap(acc):
    """{key: QRational} from {key: {den: v-exponent -> integer coefficient}},
    one exact sum per key; zero sums are dropped."""
    out = {}
    for key, buckets in acc.items():
        c = _bucket_sum(buckets)
        if c:
            out[key] = c
    return out


def _normal_order(pieces):
    """Canonical terms {(word, det): QRational} of the sum of the
    ((factors, det), coefficient) pieces.  Coefficient numerators times
    rewriting polynomials are summed as integers per (canonical word, det,
    coefficient denominator)."""
    acc = {}
    for (factors, det), c in pieces:
        if c.is_zero():
            continue
        if det < 0:
            raise ValueError("det power must be >= 0")
        for cw, cc in _expand(tuple(factors)).items():
            _addmul(acc.setdefault((cw, det), {}).setdefault(c.den, {}),
                    c.num, cc)
    return _wrap(acc)


# ---------------------------------------------------------------------


class AlgebraElement:
    """Linear combination of canonical words over QRational.

    terms maps (factors, det_power) to a scalar, where factors is a tuple of
    (row, col) pairs and det_power counts copies of det_q^{-1} (always >= 0).
    """

    __slots__ = ("n", "terms")

    def __init__(self, n, terms=None, canonical=False):
        merged = {}
        if terms:
            if canonical:
                merged = {w: c for w, c in terms.items() if not c.is_zero()}
            else:
                merged = _normal_order(terms.items())
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
        return AlgebraElement(self.n, _normal_order(
            ((f1 + f2, d1 + d2), c1 * c2)
            for (f1, d1), c1 in self.terms.items()
            for (f2, d2), c2 in other.terms.items()), canonical=True)

    def __rmul__(self, other):
        if isinstance(other, (int, QRational)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, k):
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
    """Coproduct into a TensorElement, both legs normal-ordered."""
    n = x.n
    acc = {}
    for (factors, det), coeff in x.terms.items():
        legs = [((), ())]
        for (i, j) in factors:
            legs = [(lf + ((i, k),), rf + ((k, j),))
                    for lf, rf in legs for k in range(1, n + 1)]
        for lf, rf in legs:
            right = _expand(rf)
            for cl, ccl in _expand(lf).items():
                c = coeff.num * ccl
                for cr, ccr in right.items():
                    key = ((cl, det), (cr, det))
                    _addmul(acc.setdefault(key, {}).setdefault(coeff.den, {}),
                            c, ccr)
    return TensorElement(n, _wrap(acc))


def counit(x):
    return fraction_sum(coeff for (factors, _det), coeff in x.terms.items()
                        if all(i == j for (i, j) in factors))


def quantum_minor(n, I, J):
    """The quantum minor with row set I and column set J (increasing tuples)."""
    I, J = tuple(I), tuple(J)
    if len(I) != len(J):
        raise ValueError("row and column sets must have equal size")
    terms = {}
    for tau in permutations(range(len(J))):
        word = tuple((I[s], J[tau[s]]) for s in range(len(I)))
        terms[(word, 0)] = _neg_q_power(inversions(tau))
    return AlgebraElement(n, terms)


def quantum_determinant(n):
    return quantum_minor(n, range(1, n + 1), range(1, n + 1))


@cache
def quantum_determinant_power(n, m):
    """D_q^m, expanded and cached."""
    if m < 0:
        raise ValueError("D_q power must be nonnegative")
    if m == 0:
        return AlgebraElement.unit(n)
    return quantum_determinant_power(n, m - 1) * quantum_determinant(n)


def _complement(n, S):
    return tuple(sorted(set(range(1, n + 1)) - set(S)))


def antipode_gen(n, i, j):
    """S(x_{i,j}) = (-q)^{i-j} * minor(rows = complement j, cols = complement i)
    * det_q^{-1}."""
    minor = quantum_minor(n, _complement(n, (j,)), _complement(n, (i,)))
    return (minor * AlgebraElement.det_inv(n)).scale(_neg_q_power(i - j))


def _anti_extend(x, gen_image):
    """The anti-multiplicative extension of x_{i,j} -> gen_image(n, i, j)
    and det_q^{-1} -> D_q, linear over scalars."""
    n = x.n
    out = AlgebraElement.zero(n)
    for (factors, det), coeff in x.terms.items():
        piece = quantum_determinant_power(n, det)
        for (i, j) in reversed(factors):
            piece = piece * gen_image(n, i, j)
        out = out + piece.scale(coeff)
    return out


def antipode(x):
    return _anti_extend(x, antipode_gen)


def star_gen(n, i, j):
    """x_{i,j}^* = (-q)^{j-i} * minor(rows = complement i, cols = complement j)
    * det_q^{-1}."""
    minor = quantum_minor(n, _complement(n, (i,)), _complement(n, (j,)))
    return (minor * AlgebraElement.det_inv(n)).scale(_neg_q_power(j - i))


def star(x):
    """The star structure of the compact real form; anti-multiplicative and
    involutive, the identity on scalars (q is real)."""
    return _anti_extend(x, star_gen)


def _lseq(I, J):
    """Number of pairs (i, j), i in I, j in J, with i > j."""
    return sum(1 for i in I for j in J if i > j)


def minor_star(n, I, J):
    """(xi^I_J)^* as a single complementary minor times det_q^{-1}."""
    I, J = tuple(I), tuple(J)
    Ic, Jc = _complement(n, I), _complement(n, J)
    coeff = _neg_q_power(_lseq(J, Jc) - _lseq(I, Ic))
    return (quantum_minor(n, Ic, Jc) * AlgebraElement.det_inv(n)).scale(coeff)


def apply_morphism(x, which):
    """gamma: diagonal flip homomorphism; omega: double flip anti-homomorphism;
    rho: the modular automorphism (diagonal rescaling)."""
    n = x.n
    # both flips map distinct words to distinct words: no terms to add
    if which == "gamma":
        return AlgebraElement(n, {(tuple((j, i) for (i, j) in factors), det): c
                                  for (factors, det), c in x.terms.items()})
    if which == "omega":
        return AlgebraElement(n, {
            (tuple((n + 1 - i, n + 1 - j) for (i, j) in reversed(factors)),
             det): c for (factors, det), c in x.terms.items()})
    if which == "rho":
        t = {}
        for (factors, det), c in x.terms.items():
            e = sum(2 * n + 2 - 2 * i - 2 * j for (i, j) in factors)
            t[(factors, det)] = c * qq(e)
        return AlgebraElement(n, t, canonical=True)
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
