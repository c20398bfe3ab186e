import ast
import hashlib
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qhaar.scalars import LaurentPoly, QRational, ZERO, ONE, qq, q_binomial, \
    poch
from qhaar.algebra import (
    AlgebraElement, TensorElement, comultiply, counit,
    quantum_minor, quantum_determinant, quantum_determinant_power, antipode,
    star, minor_star, apply_morphism, counting_matrix, stochastic_order,
    is_order_m, pseudo_word, lift_det, equal_mod_det, inversions,
    LETTER_TO_GEN, _neg_q_power, _complement, _det_power_step,
)
from qhaar.linsys import enumerate_Bnm
from qhaar.rewriter import _insert, _times_words
from qhaar import algebra, rewriter

E = AlgebraElement


def word3(text, det=0, coeff=ONE):
    return E.from_letters(text, det, coeff)


def test_switching_rules():
    assert word3("ba") == word3("ab", coeff=qq(-1))
    assert word3("ca") == word3("ac", coeff=qq(-1))
    assert word3("da") == word3("ad", coeff=qq(-1))
    assert word3("cd") == word3("cd")
    assert word3("dc") == word3("cd")
    assert word3("ea") == word3("ae") + word3("bd", coeff=-(qq(1) - qq(-1)))
    assert word3("ka") == word3("ak") + word3("cg", coeff=-(qq(1) - qq(-1)))


def _slow_expand(word, rng):
    """Independent rewriter: resolve a randomly chosen descent each step."""
    pending = {tuple(word): ONE}
    done = {}
    while pending:
        w, c = pending.popitem()
        descents = [p for p in range(len(w) - 1) if w[p] > w[p + 1]]
        if not descents:
            done[w] = done.get(w, ZERO) + c
            continue
        p = rng.choice(descents)
        (i1, j1), (i2, j2) = w[p], w[p + 1]
        swapped = w[:p] + (w[p + 1], w[p]) + w[p + 2:]
        if i1 == i2 or j1 == j2:
            pieces = [(swapped, c * qq(-1))]
        elif j1 < j2:
            pieces = [(swapped, c)]
        else:
            extra = w[:p] + ((i2, j1), (i1, j2)) + w[p + 2:]
            pieces = [(swapped, c), (extra, c * -(qq(1) - qq(-1)))]
        for w2, c2 in pieces:
            s = pending.get(w2, ZERO) + c2
            if s.is_zero():
                pending.pop(w2, None)
            else:
                pending[w2] = s
    return {w: c for w, c in done.items() if not c.is_zero()}


def _nf(word):
    """The rewriter's normal form of one word, from the empty word."""
    return _times_words({(): {0: 1}}, [(tuple(word), {0: 1})])


def _scalars(terms):
    """The rewriter's Laurent coefficients (dicts v-exponent -> integer) of
    a dict of terms, as QRational."""
    return {w: QRational(LaurentPoly(c)) for w, c in terms.items()}


def _slow_terms(terms, rng):
    """Canonical terms of the sum of the (word, det) -> coefficient pieces,
    through the independent rewriter."""
    want = {}
    for (word, det), c in terms.items():
        for w, cw in _slow_expand(word, rng).items():
            want[(w, det)] = want.get((w, det), ZERO) + c * cw
    return {k: c for k, c in want.items() if not c.is_zero()}


def test_rewriting_confluence_random():
    rng = random.Random(20260826)
    gens = list(LETTER_TO_GEN.values())
    for _ in range(60):
        word = tuple(rng.choice(gens) for _ in range(rng.randint(2, 7)))
        assert _scalars(_nf(word)) == _slow_expand(word, rng)
    # the constructor on multi-term inputs: mixed det powers, non-unit
    # denominators, reorderings of one word whose normal forms merge, and a
    # same-row word beside its sorted form with the coefficient that cancels
    coeffs = [ONE, -qq(1), qq(-2) * QRational.from_int(3),
              ONE / (ONE - qq(2)), qq(1) / (ONE + qq(1))]
    for n in (2, 3, 4):
        gens = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
        for _ in range(15):
            terms = {}
            for _ in range(rng.randint(1, 3)):
                word = tuple(rng.choice(gens)
                             for _ in range(rng.randint(0, 5)))
                det = rng.randint(0, 2)
                for w in (word, tuple(rng.sample(word, len(word)))):
                    terms[(w, det)] = terms.get((w, det), ZERO) + \
                        rng.choice(coeffs)
            i = rng.randint(1, n)
            cols = sorted(rng.sample(range(1, n + 1), 2), reverse=True)
            row = tuple((i, j) for j in cols)
            c = rng.choice(coeffs)
            terms[(row, 3)] = c
            terms[(row[::-1], 3)] = -c * qq(-1)
            got = E(n, terms)
            assert got.terms == _slow_terms(terms, rng)
            assert all(det < 3 for (_w, det) in got.terms)


def test_diagonal_word_expansion():
    # x33^3 x22^3 x11^3: every switch of two diagonal generators spawns an
    # extra word, so this is the rewriter's worst case at nine letters
    word = ((3, 3),) * 3 + ((2, 2),) * 3 + ((1, 1),) * 3
    got = _nf(word)
    assert len(got) == 55
    assert _scalars(got) == _slow_expand(word, random.Random(3))


def test_diagonal_word_k6():
    # x33^6 x22^6 x11^6 from empty memos: one term per 6-doubly-stochastic
    # matrix, diagonal-word coefficients summing to the counit value 1, and
    # the terms' digest as recorded from an independent rewriter that
    # bubbles whole words and re-expands every extra word
    _insert.cache_clear()
    word = ((3, 3),) * 6 + ((2, 2),) * 6 + ((1, 1),) * 6
    got = _nf(word)
    assert len(got) == len(enumerate_Bnm(3, 6)) == 406
    assert counit(E(3, {(w, 0): c for w, c in _scalars(got).items()},
                    canonical=True)) == ONE
    rows = sorted((w, sorted(c.items())) for w, c in got.items())
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == \
        "4dd12a558fa8ae11b12090bd026b8dd8577e39ab06de9aaa306b6a539ce4f9ba"


def _elements(n, letters=4, det=2):
    """Canonical elements of rank n: up to four terms with words of
    unequal length (the unit word among them), mixed det powers, and
    coefficients with non-unit denominators."""
    gens = st.tuples(st.integers(1, n), st.integers(1, n))
    words = st.lists(gens, max_size=letters).map(lambda w: tuple(sorted(w)))
    coeffs = st.sampled_from([ONE, -qq(1), qq(-2) * QRational.from_int(3),
                              ONE / (ONE - qq(2)), qq(1) / (ONE + qq(1))])
    return st.dictionaries(st.tuples(words, st.integers(0, det)), coeffs,
                           min_size=1, max_size=4).map(
        lambda t: E(n, t, canonical=True))


@pytest.mark.parametrize("n", [2, 3, 4])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_canonical_products_random(n, data):
    # x y against the independent rewriter on the concatenated word of
    # every term pair
    x, y = data.draw(_elements(n)), data.draw(_elements(n))
    pieces = {}
    for (f1, d1), c1 in x:
        for (f2, d2), c2 in y:
            key = (f1 + f2, d1 + d2)
            pieces[key] = pieces.get(key, ZERO) + c1 * c2
    assert (x * y).terms == _slow_terms(pieces, random.Random(n))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.sampled_from(sorted(LETTER_TO_GEN.values())),
                         max_size=4).map(lambda w: tuple(sorted(w))),
                min_size=1, max_size=6, unique=True),
       st.lists(st.sampled_from(sorted(LETTER_TO_GEN.values())),
                min_size=1, max_size=3))
def test_times_words_unequal_lengths(words, start):
    # sorted words of unequal length, a word and its extensions among them:
    # the prefix stack must match one normal form per word
    start = tuple(sorted(start))
    words = sorted(set(words) | {words[0] + ((3, 3),)})
    pairs = [(w, {k: k + 1}) for k, w in enumerate(words)]
    want = {}
    for w, c in pairs:
        for t, ct in _slow_expand(start + w, random.Random(len(w))).items():
            want[t] = want.get(t, ZERO) + QRational(LaurentPoly(c)) * ct
    want = {t: c for t, c in want.items() if not c.is_zero()}
    got = _times_words({start: {0: 1}}, pairs)
    assert _scalars(got) == want


def _laurent(max_coeff):
    """Nonzero Laurent coefficients, dicts v-exponent -> nonzero integer,
    with exponents in [-3, 3] and integer coefficients up to max_coeff in
    absolute value."""
    return st.dictionaries(st.integers(-3, 3),
                           st.integers(-max_coeff, max_coeff).filter(bool),
                           min_size=1, max_size=3)


@pytest.mark.parametrize("n", [3, 4])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_kernel_matches_slow_rewriter(n, data):
    # sum_w c_w nf(terms w) against the independent rewriter on each
    # concatenated word, with coefficients both small and above 2^64
    gens = st.tuples(st.integers(1, n), st.integers(1, n))
    coeffs = _laurent(data.draw(st.sampled_from([3, 2 ** 70])))
    terms = data.draw(st.dictionaries(
        st.lists(gens, max_size=3).map(lambda w: tuple(sorted(w))), coeffs,
        min_size=1, max_size=3))
    words = sorted(data.draw(st.dictionaries(
        st.lists(gens, max_size=4).map(tuple), coeffs, min_size=1,
        max_size=4)).items(), key=lambda wc: wc[0])
    want = {}
    for t, ct in terms.items():
        for w, cw in words:
            for u, cu in _slow_expand(t + w, random.Random(len(w))).items():
                want[u] = want.get(u, ZERO) + \
                    QRational(LaurentPoly(ct) * LaurentPoly(cw)) * cu
    want = {u: c for u, c in want.items() if not c.is_zero()}
    got = _times_words(terms, words)
    assert _scalars(got) == want


@pytest.mark.parametrize("n", [2, 3])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_times_words_chains_word_lists(n, data):
    # terms L1 L2 in one call equals L2 inserted into the result for L1,
    # and both equal the independent rewriter on every concatenated word,
    # with coefficients both small and above 2^64
    gens = st.tuples(st.integers(1, n), st.integers(1, n))
    coeffs = _laurent(data.draw(st.sampled_from([3, 2 ** 70])))
    terms = data.draw(st.dictionaries(
        st.lists(gens, max_size=2).map(lambda w: tuple(sorted(w))), coeffs,
        min_size=1, max_size=2))
    lists = [sorted(data.draw(st.dictionaries(
        st.lists(gens, max_size=3).map(tuple), coeffs, min_size=1,
        max_size=3)).items(), key=lambda wc: wc[0]) for _ in range(2)]
    got = _times_words(terms, *lists)
    assert got == _times_words(_times_words(terms, lists[0]), lists[1])
    want = {}
    for t, ct in terms.items():
        for w1, c1 in lists[0]:
            for w2, c2 in lists[1]:
                c = QRational(LaurentPoly(ct) * LaurentPoly(c1)
                              * LaurentPoly(c2))
                for u, cu in _slow_expand(t + w1 + w2,
                                          random.Random(len(w2))).items():
                    want[u] = want.get(u, ZERO) + c * cu
    assert _scalars(got) == {u: c for u, c in want.items() if not c.is_zero()}


PACKED_NAMES = {"_pack", "_unpack", "_digits", "_certified", "_mass",
                "_tightened", "_mul_letter", "_times_packed", "_add_packed"}


def test_packed_format_stays_in_rewriter():
    # the packed (a, N) coefficients and their width certificate stay in
    # the rewriter: other modules trade Laurent coefficients with it
    src = Path(__file__).resolve().parents[1] / "src" / "qhaar"
    paths = [p for p in src.glob("*.py") if p.name != "rewriter.py"]
    assert len(paths) >= 9
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            name = (getattr(node, "id", None) or getattr(node, "attr", None)
                    or getattr(node, "name", None))
            assert name not in PACKED_NAMES, (path.name, name)


def test_widening_rerun_is_exact(monkeypatch):
    # the kernel decodes only below its certified bound, so a call whose
    # bound reaches 2^63 reruns at a wider width: once from a large input,
    # where c (q^{-1} - q) has the digit 2^63 that a 64-bit digit cannot
    # hold, and once from a 46-bit input whose bound passes 2^63 only
    # through rewriting.  The bound covers the total |coefficient| of the
    # result, and the first is exact.
    runs = []
    certified = rewriter._certified

    def spy(run):
        def logged(B):
            out = run(B)
            runs.append((B, out[1]))
            return out
        return certified(logged)

    def mass(terms):
        return sum(abs(x) for c in terms.values() for x in c.values())

    monkeypatch.setattr(rewriter, "_certified", spy)
    c = {0: -2 ** 62, 4: 2 ** 62}
    word = ((2, 2), (1, 1))
    got = _times_words({(): c}, [(word, {0: 1})])
    assert _scalars(got) == \
        {t: QRational(LaurentPoly(c)) * ct
         for t, ct in _slow_expand(word, random.Random(0)).items()}
    assert got[((1, 2), (2, 1))][2] == 2 ** 63
    assert [B for B, _ in runs] == [64, 67]
    assert runs[-1][1] == mass(got) == 3 * 2 ** 63
    # 2^64 - 1 reads back at 64 bits as the digits -1 and 1: a bound past
    # 2^63 must not be replaced by the total of such digits
    runs.clear()
    c = {0: 2 ** 64 - 1}
    got = _times_words({(): c}, [(word, {0: 1})])
    assert _scalars(got) == \
        {t: QRational(LaurentPoly(c)) * ct
         for t, ct in _slow_expand(word, random.Random(0)).items()}
    assert runs[0][0] == 64 < runs[-1][0]
    diagonal = ((3, 3),) * 6 + ((2, 2),) * 6 + ((1, 1),) * 6
    want = _nf(diagonal)
    assert runs[-1][0] == 64 and runs[-1][1] < 2 ** 63
    runs.clear()
    c = 2 ** 45
    got = _times_words({(): {0: c}}, [(diagonal, {0: 1})])
    assert got == {t: {e: c * x for e, x in ct.items()}
                   for t, ct in want.items()}
    assert runs[0][0] == 64 < runs[-1][0]
    assert runs[-1][1] >= mass(got) >= 2 ** 63


@pytest.mark.parametrize("width", [3, 6])
def test_narrow_start_width_matches(monkeypatch, width):
    # from a start width of a few bits nearly every call reruns, so each
    # structural bound decides whether digits are read back: a bound that
    # undercounts would let a digit overflow unnoticed.  Every bound that
    # is tightened must also cover the exact total that replaces it.
    tightened = rewriter._tightened

    def checked(terms, bound, B):
        exact = tightened(terms, bound, B)
        assert exact <= bound
        return exact

    monkeypatch.setattr(rewriter, "_tightened", checked)
    _insert.cache_clear()
    rng = random.Random(width)
    gens = list(LETTER_TO_GEN.values())
    words = [((3, 3),) * k + ((2, 2),) * k + ((1, 1),) * k
             for k in range(1, 6)]
    words += [tuple(rng.choice(gens) for _ in range(rng.randint(2, 9)))
              for _ in range(40)]
    want = [_nf(w) for w in words]
    monkeypatch.setattr(rewriter, "_WIDTH", width)
    assert [_nf(w) for w in words] == want


def test_long_word_without_deep_recursion():
    # x13^N x22 x11 = q^-N x11 x13^N x22 + (q^-1 - q) q^-N x12 x13^N x21:
    # one extra word, but N switches of x11 and of x12, N above the limit
    k = 1500
    word = ((1, 3),) * k + ((2, 2), (1, 1))
    expected = E(3, {(((1, 1),) + ((1, 3),) * k + ((2, 2),), 0): qq(-k),
                     (((1, 2),) + ((1, 3),) * k + ((2, 1),), 0):
                     (qq(-1) - qq(1)) * qq(-k)}, canonical=True)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        got = E.word(3, word)
    finally:
        sys.setrecursionlimit(limit)
    assert got == expected


def test_determinant_power_without_deep_recursion():
    # D_q^m at rank 1 is x11^m; m well above the recursion limit
    m = 1500
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        got = quantum_determinant_power(1, m)
    finally:
        sys.setrecursionlimit(limit)
        quantum_determinant_power.cache_clear()
    assert got == E.word(1, [(1, 1)] * m)


def test_determinant_power_cold_lookups():
    # a cold call fills the powers below it in one upward pass: O(m) cache
    # lookups, where a fill per lower power made about m^2 / 2
    m = 300
    caches = (quantum_determinant_power, _det_power_step)
    for f in caches:
        f.cache_clear()
    try:
        got = quantum_determinant_power(1, m)
        lookups = sum(f.cache_info().hits + f.cache_info().misses
                      for f in caches)
    finally:
        for f in caches:
            f.cache_clear()
    assert got == E.word(1, [(1, 1)] * m)
    assert lookups <= 3 * (m + 1)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.integers(1, n), st.lists(st.integers(1, n), max_size=8))))
def test_same_row_word_is_a_monomial(row_and_cols):
    # letters of one row q-commute: each inversion of the columns costs
    # q^-1 = v^-2 and no other word appears (the coproduct's left legs)
    i, cols = row_and_cols
    word = tuple((i, j) for j in cols)
    assert _nf(word) == {tuple(sorted(word)): {-2 * inversions(cols): 1}}


def test_coefficient_types():
    # the rewriter works on Laurent coefficients, dicts v-exponent ->
    # nonzero integer; elements keep QRational
    word = ((3, 3), (2, 2), (1, 1), (1, 2))
    assert all(isinstance(c, dict) and c and
               all(isinstance(e, int) and isinstance(x, int) and x
                   for e, x in c.items()) for c in _nf(word).values())
    x = E.word(3, word, 1, ONE / (ONE - qq(2))) + E.word(3, word[::-1])
    for y in (x, star(x) * x):
        assert y.terms
        assert all(isinstance(c, QRational) for c in y.terms.values())
    dx = comultiply(x)
    assert dx.terms
    assert all(isinstance(c, QRational) for c in dx.terms.values())


def test_canonical_words_sorted():
    rng = random.Random(7)
    gens = list(LETTER_TO_GEN.values())
    for _ in range(20):
        word = tuple(rng.choice(gens) for _ in range(6))
        x = E.word(3, word)
        for (factors, _det), _c in x:
            assert list(factors) == sorted(factors)


def _sample_elements(n):
    out = [E.unit(n), E.gen(n, 1, 1) * E.gen(n, n, 1)]
    rng = random.Random(n)
    gens = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    for det in (0, 1):
        word = tuple(rng.choice(gens) for _ in range(3))
        out.append(E.word(n, word, det) + E.word(n, word[:1], det, qq(2)))
    return out


@pytest.mark.parametrize("n", [2, 3])
def test_comultiply_homomorphism(n):
    rng = random.Random(n + 10)
    gens = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    for _ in range(4):
        x = E.word(n, [rng.choice(gens) for _ in range(2)])
        y = E.word(n, [rng.choice(gens) for _ in range(2)])
        dx, dy = comultiply(x), comultiply(y)
        prod = {}
        for (l1, r1), c1 in dx:
            for (l2, r2), c2 in dy:
                left = E(n, {l1: ONE}, canonical=True) * E(n, {l2: ONE},
                                                           canonical=True)
                right = E(n, {r1: ONE}, canonical=True) * E(n, {r2: ONE},
                                                            canonical=True)
                for wl, cl in left:
                    for wr, cr in right:
                        key = (wl, wr)
                        s = prod.get(key, ZERO) + c1 * c2 * cl * cr
                        if s.is_zero():
                            prod.pop(key, None)
                        else:
                            prod[key] = s
        assert TensorElement(n, prod) == comultiply(x * y)


@pytest.mark.parametrize("n", [2, 3])
def test_coassociativity(n):
    for x in _sample_elements(n):
        left, right = {}, {}
        for (wl, wr), c in comultiply(x):
            for (w1, w2), c2 in comultiply(E(n, {wl: c}, canonical=True)):
                key = (w1, w2, wr)
                left[key] = left.get(key, ZERO) + c2
            for (w2, w3), c2 in comultiply(E(n, {wr: c}, canonical=True)):
                key = (wl, w2, w3)
                right[key] = right.get(key, ZERO) + c2
        assert {k: v for k, v in left.items() if not v.is_zero()} == \
            {k: v for k, v in right.items() if not v.is_zero()}


@pytest.mark.parametrize("n", [2, 3])
def test_counit_laws(n):
    for x in _sample_elements(n):
        lhs = E.zero(n)
        rhs = E.zero(n)
        for (wl, wr), c in comultiply(x):
            lhs = lhs + E(n, {wr: c * counit(E(n, {wl: ONE}, canonical=True))},
                          canonical=True)
            rhs = rhs + E(n, {wl: c * counit(E(n, {wr: ONE}, canonical=True))},
                          canonical=True)
        assert lhs == x and rhs == x
    assert counit(quantum_determinant(n)) == ONE


@pytest.mark.parametrize("n", [2, 3])
def test_antipode_laws(n):
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            g = E.gen(n, i, j)
            lhs = E.zero(n)
            rhs = E.zero(n)
            for (wl, wr), c in comultiply(g):
                sl = antipode(E(n, {wl: ONE}, canonical=True))
                sr = antipode(E(n, {wr: ONE}, canonical=True))
                lhs = lhs + (sl * E(n, {wr: ONE}, canonical=True)).scale(c)
                rhs = rhs + (E(n, {wl: ONE}, canonical=True) * sr).scale(c)
            target = E.unit(n) if i == j else E.zero(n)
            assert equal_mod_det(lhs, target)
            assert equal_mod_det(rhs, target)


@pytest.mark.parametrize("n", [2, 3])
def test_laplace_expansions(n):
    D = quantum_determinant(n)
    hat = lambda k: _complement(n, (k,))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            target = D if i == j else E.zero(n)
            a = E.zero(n)
            b = E.zero(n)
            c = E.zero(n)
            d = E.zero(n)
            for k in range(1, n + 1):
                a = a + (quantum_minor(n, hat(k), hat(i)) *
                         E.gen(n, k, j)).scale(_neg_q_power(i - k))
                b = b + (E.gen(n, i, k) *
                         quantum_minor(n, hat(j), hat(k))).scale(
                             _neg_q_power(k - j))
                c = c + (E.gen(n, k, i) *
                         quantum_minor(n, hat(k), hat(j))).scale(
                             _neg_q_power(k - j))
                d = d + (quantum_minor(n, hat(i), hat(k)) *
                         E.gen(n, j, k)).scale(_neg_q_power(i - k))
            assert a == target and b == target
            assert c == target and d == target


@pytest.mark.parametrize("n", [2, 3, 4])
def test_determinant_group_like_and_central(n):
    D = quantum_determinant(n)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            g = E.gen(n, i, j)
            assert g * D == D * g
    dd = comultiply(D)
    expected = {}
    for wl, cl in D:
        for wr, cr in D:
            expected[(wl, wr)] = cl * cr
    assert dd == TensorElement(n, expected)
    assert equal_mod_det(D * E.det_inv(n), E.unit(n))


def test_determinant_powers_rank4():
    # D_q^m against the constructor route: each power's term pairs with D_q
    # concatenated, merged, and normal-ordered from the empty word
    D = quantum_determinant(4)
    assert quantum_determinant_power(4, 1) == D
    want = D
    for m in range(2, 4):
        pieces = {}
        for (f1, _), c1 in want:
            for (f2, _), c2 in D:
                pieces[(f1 + f2, 0)] = pieces.get((f1 + f2, 0), ZERO) + c1 * c2
        want = E(4, pieces)
        lower = quantum_determinant_power(4, m - 1)
        # D_q is central, so both orders of the factors agree
        assert quantum_determinant_power(4, m) == lower * D == D * lower \
            == want


def test_negative_element_power_rejected():
    # x11 has no inverse in the algebra; the loop used to return the unit
    x = E.gen(3, 1, 1)
    assert x ** 0 == E.unit(3) and x ** 2 == x * x
    with pytest.raises(ValueError):
        x ** -1


def test_negative_determinant_power_rejected():
    # a ValueError up front, not a RecursionError from counting down
    assert quantum_determinant_power(2, 0) == E.unit(2)
    with pytest.raises(ValueError):
        quantum_determinant_power(2, -1)
    with pytest.raises(ValueError):
        enumerate_Bnm(3, -1)
    # the constructor skips a zero coefficient before it checks the power
    assert E(2, {(((1, 1),), -1): ZERO}) == E.zero(2)
    with pytest.raises(ValueError):
        E(2, {(((1, 1),), -1): ONE})


@pytest.mark.parametrize("n", [0, -1])
def test_rank_below_one_rejected(n):
    # a ValueError where the rank enters, not an IndexError further down
    with pytest.raises(ValueError):
        E.unit(n)
    with pytest.raises(ValueError):
        E(n, {(((1, 1),), 0): ONE})
    with pytest.raises(ValueError):
        enumerate_Bnm(n, 1)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_generator_star_and_antipode(n):
    # x_ij^* = (-q)^(j-i) minor(rows != i, cols != j) det^-1 and
    # S(x_ij) = (-q)^(i-j) minor(rows != j, cols != i) det^-1
    det1 = E.det_inv(n)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            g = E.gen(n, i, j)
            want = quantum_minor(n, _complement(n, (i,)),
                                 _complement(n, (j,))) * det1
            assert star(g) == want.scale(_neg_q_power(j - i))
            want = quantum_minor(n, _complement(n, (j,)),
                                 _complement(n, (i,))) * det1
            assert antipode(g) == want.scale(_neg_q_power(i - j))


def _anti_extend_per_term(x, gen_image):
    """The anti-multiplicative extension by one element product per letter
    and one element sum per term."""
    n = x.n
    out = E.zero(n)
    for (factors, det), coeff in x.terms.items():
        piece = quantum_determinant_power(n, det)
        for (i, j) in reversed(factors):
            piece = piece * gen_image(n, i, j)
        out = out + piece.scale(coeff)
    return out


@pytest.mark.parametrize("n, letters, det", [(2, 4, 2), (3, 3, 2), (4, 2, 1)])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_one_pass_star_and_antipode(n, letters, det, data):
    # elements with det powers and non-unit denominators, against one
    # element product per letter and one element sum per term
    x = data.draw(_elements(n, letters, det))
    assert star(x) == _anti_extend_per_term(
        x, lambda n, i, j: minor_star(n, (i,), (j,)))
    assert antipode(x) == _anti_extend_per_term(
        x, lambda n, i, j: minor_star(n, (j,), (i,)))


def test_minor_coproduct():
    n, I, J = 3, (1, 2), (1, 3)
    got = comultiply(quantum_minor(n, I, J))
    expected = {}
    from itertools import combinations
    for K in combinations(range(1, n + 1), len(I)):
        for wl, cl in quantum_minor(n, I, K):
            for wr, cr in quantum_minor(n, K, J):
                key = (wl, wr)
                s = expected.get(key, ZERO) + cl * cr
                expected[key] = s
    assert got == TensorElement(n, expected)


@pytest.mark.parametrize("n", [2, 3])
def test_star_involution_and_antimultiplicativity(n):
    rng = random.Random(3 * n)
    gens = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            g = E.gen(n, i, j)
            assert equal_mod_det(star(star(g)), g)
    for _ in range(3):
        x = E.word(n, [rng.choice(gens) for _ in range(2)])
        y = E.word(n, [rng.choice(gens)])
        assert equal_mod_det(star(x * y), star(y) * star(x))
        assert equal_mod_det(star(star(x)), x)


def test_minor_star_formula():
    from itertools import combinations
    n = 3
    for r in (1, 2, 3):
        for I in combinations(range(1, n + 1), r):
            for J in combinations(range(1, n + 1), r):
                assert equal_mod_det(minor_star(n, I, J),
                                     star(quantum_minor(n, I, J)))


def _index_set_pairs(n):
    from itertools import combinations
    for r in range(n + 1):
        for I in combinations(range(1, n + 1), r):
            for J in combinations(range(1, n + 1), r):
                yield I, J


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_minors_match_normal_ordered_construction(n):
    # the canonical words as written equal the rewriter's normal form, and
    # the folded sign equals the product with det_inv and the scale pass
    from itertools import permutations
    for I, J in _index_set_pairs(n):
        terms = {(tuple((I[s], J[tau[s]]) for s in range(len(I))), 0):
                 _neg_q_power(inversions(tau))
                 for tau in permutations(range(len(J)))}
        assert quantum_minor(n, I, J) == E(n, terms)
        Ic, Jc = _complement(n, I), _complement(n, J)
        sign = sum(j > k for j in J for k in Jc) \
            - sum(i > k for i in I for k in Ic)
        assert minor_star(n, I, J) == \
            (quantum_minor(n, Ic, Jc) * E.det_inv(n)).scale(_neg_q_power(sign))


def test_minors_call_no_rewriter(monkeypatch):
    def refuse(*args):
        raise AssertionError("a minor went through the rewriter")

    monkeypatch.setattr(rewriter, "_mul_letter", refuse)
    monkeypatch.setattr(rewriter, "_times_words", refuse)
    monkeypatch.setattr(algebra, "_times_words", refuse)
    for I, J in _index_set_pairs(4):
        quantum_minor(4, I, J)
        minor_star(4, I, J)
    assert quantum_determinant(4) == quantum_minor(4, (1, 2, 3, 4),
                                                   (1, 2, 3, 4))


@pytest.mark.parametrize("I, J", [
    ((2, 1), (1, 2)), ((1, 2), (3, 2)),     # unsorted
    ((1, 1), (1, 2)), ((1, 2), (2, 2)),     # repeated
    ((1, 4), (1, 2)), ((1,), (4,)), ((0,), (1,)),   # out of range
    ((1,), (1, 2)),                         # unequal sizes
])
def test_minor_index_sets_rejected(I, J):
    with pytest.raises(ValueError):
        quantum_minor(3, I, J)
    with pytest.raises(ValueError):
        minor_star(3, I, J)


@pytest.mark.parametrize("letters", [
    [(1, 1), (2, 2), (4, 3)], [(0, 1)], [(1, 0)], [(3, 4)]])
def test_word_letter_out_of_range_rejected(letters):
    # a ValueError that names the letter, not an IndexError from haar_state
    # or a silent zero
    with pytest.raises(ValueError, match=r"generator .* rank 3"):
        E.word(3, letters, 1)
    with pytest.raises(ValueError):
        E(3, {(tuple(letters), 1): ONE})


def test_concrete_star_values():
    det1 = E.det_inv(3)
    qd = qq(1) - qq(-1)
    assert equal_mod_det(star(word3("a")),
                         (word3("ek") - word3("fh", coeff=qq(1))) * det1)
    assert equal_mod_det(star(word3("k")),
                         (word3("ae") - word3("bd", coeff=qq(1))) * det1)
    assert equal_mod_det(star(word3("h")).scale(-qq(1)),
                         quantum_minor(3, (1, 2), (1, 3)) * det1)
    assert equal_mod_det(star(word3("g")).scale(qq(2)),
                         quantum_minor(3, (1, 2), (2, 3)) * det1)


@pytest.mark.parametrize("n", [2, 3])
def test_morphisms(n):
    rng = random.Random(5 * n)
    gens = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    D = quantum_determinant(n)
    assert apply_morphism(D, "gamma") == D
    assert apply_morphism(D, "omega") == D
    assert apply_morphism(D, "rho") == D
    for _ in range(4):
        x = E.word(n, [rng.choice(gens) for _ in range(2)])
        y = E.word(n, [rng.choice(gens) for _ in range(2)])
        assert apply_morphism(x * y, "gamma") == \
            apply_morphism(x, "gamma") * apply_morphism(y, "gamma")
        assert apply_morphism(x * y, "omega") == \
            apply_morphism(y, "omega") * apply_morphism(x, "omega")
        assert apply_morphism(x * y, "rho") == \
            apply_morphism(x, "rho") * apply_morphism(y, "rho")
        assert apply_morphism(apply_morphism(x, "gamma"), "gamma") == x
        assert apply_morphism(apply_morphism(x, "omega"), "omega") == x


@pytest.mark.parametrize("n", [2, 3, 4])
def test_flips_match_normalizing_constructor(n):
    # gamma and omega write canonical words directly; the constructor route
    # normal-orders the flipped words through the rewriter
    rng = random.Random(11 * n)
    gens = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    for _ in range(100):
        x = E.word(n, [rng.choice(gens) for _ in range(rng.randrange(7))],
                   det=rng.randrange(3))
        assert apply_morphism(x, "gamma") == E(n, {
            (tuple((j, i) for (i, j) in f), d): c for (f, d), c in x})
        assert apply_morphism(x, "omega") == E(n, {
            (tuple((n + 1 - i, n + 1 - j) for (i, j) in reversed(f)), d): c
            for (f, d), c in x})


def test_rho_eigenvalues():
    n = 3
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            g = E.gen(n, i, j)
            assert apply_morphism(g, "rho") == \
                g.scale(qq(2 * n + 2 - 2 * i - 2 * j))


def test_counting_matrix_and_order():
    w = word3("aek", det=1)
    ((factors, det),) = list(w.terms)
    theta = counting_matrix(3, factors)
    assert theta == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert stochastic_order(theta) == 1
    assert pseudo_word(theta) == factors
    assert is_order_m(w) == 1
    assert is_order_m(quantum_determinant(3) * E.det_inv(3)) == 1
    assert is_order_m(word3("ab")) is None
    assert is_order_m(E.unit(3)) == 0


def test_lift_det():
    x = word3("a") + word3("aek", det=1)
    lifted = lift_det(x, 2)
    assert all(det == 2 for (_f, det) in lifted.terms)
    assert equal_mod_det(lifted, x)


def test_power_identity_in_commuting_pair():
    # (x_{i,k} x_{j,l} - q x_{j,k} x_{i,l})^m expands with Gaussian binomials
    for (xa, xe, xd, xb) in [("a", "e", "d", "b"), ("b", "k", "h", "c")]:
        base = word3(xa + xe) - word3(xd + xb, coeff=qq(1))
        for m in range(6):
            expected = E.zero(3)
            for p in range(m + 1):
                w = xa * p + (xd + xb) * (m - p) + xe * p
                coeff = _neg_q_power((1 - 2 * p) * (m - p)) * q_binomial(m, p)
                expected = expected + word3(w, coeff=coeff)
            assert base ** m == expected


def test_reordering_powers_identity():
    # x_{j,l}^s x_{i,k}^t as a sum over x_{i,k}^{t-p}(x_{j,k}x_{i,l})^p x_{j,l}^{s-p}
    for (xa, xe, xd, xb) in [("a", "e", "d", "b"), ("b", "k", "h", "c")]:
        for s in range(5):
            for t in range(5):
                lhs = word3(xe * s + xa * t)
                expected = E.zero(3)
                for p in range(min(s, t) + 1):
                    w = xa * (t - p) + (xd + xb) * p + xe * (s - p)
                    coeff = qq(3 * p * p - 2 * (s + t) * p) * \
                        q_binomial(s, p) * q_binomial(t, p) * poch(1, p)
                    expected = expected + word3(w, coeff=coeff)
                assert lhs == expected
