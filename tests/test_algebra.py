import hashlib
import random
import sys

import pytest

from qhaar.scalars import LaurentPoly, QRational, ZERO, ONE, qq, q_binomial, \
    poch
from qhaar.algebra import (
    AlgebraElement, TensorElement, comultiply, counit,
    quantum_minor, quantum_determinant, quantum_determinant_power, antipode,
    star, minor_star, apply_morphism, counting_matrix, stochastic_order,
    is_order_m, pseudo_word, lift_det, equal_mod_det, inversions,
    LETTER_TO_GEN, _expand, _insert, _neg_q_power, _complement,
)
from qhaar.linsys import enumerate_Bnm

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


def test_rewriting_confluence_random():
    rng = random.Random(20260826)
    gens = list(LETTER_TO_GEN.values())
    for _ in range(60):
        word = tuple(rng.choice(gens) for _ in range(rng.randint(2, 7)))
        assert {w: QRational(c) for w, c in _expand(word).items()} == \
            _slow_expand(word, rng)


def test_diagonal_word_expansion():
    # x33^3 x22^3 x11^3: every switch of two diagonal generators spawns an
    # extra word, so this is the rewriter's worst case at nine letters
    word = ((3, 3),) * 3 + ((2, 2),) * 3 + ((1, 1),) * 3
    got = _expand(word)
    assert len(got) == 55
    assert {w: QRational(c) for w, c in got.items()} == \
        _slow_expand(word, random.Random(3))


def test_diagonal_word_k6():
    # x33^6 x22^6 x11^6 from empty memos: one term per 6-doubly-stochastic
    # matrix, diagonal-word coefficients summing to the counit value 1, and
    # the terms' digest as recorded from an independent rewriter that
    # bubbles whole words and re-expands every extra word
    _expand.cache_clear()
    _insert.cache_clear()
    word = ((3, 3),) * 6 + ((2, 2),) * 6 + ((1, 1),) * 6
    got = _expand(word)
    assert len(got) == len(enumerate_Bnm(3, 6)) == 406
    assert counit(E(3, {(w, 0): QRational(c) for w, c in got.items()},
                    canonical=True)) == ONE
    rows = sorted((w, sorted(c.terms.items())) for w, c in got.items())
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == \
        "4dd12a558fa8ae11b12090bd026b8dd8577e39ab06de9aaa306b6a539ce4f9ba"


@pytest.mark.parametrize("n", [3, 4])
def test_canonical_products_random(n):
    # the shape AlgebraElement.__mul__ feeds: two canonical words in a row
    rng = random.Random(20261018 + n)
    gens = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    for _ in range(40):
        w1 = tuple(sorted(rng.choice(gens) for _ in range(rng.randint(1, 5))))
        w2 = tuple(sorted(rng.choice(gens) for _ in range(rng.randint(1, 5))))
        assert {w: QRational(c) for w, c in _expand(w1 + w2).items()} == \
            _slow_expand(w1 + w2, rng)


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


def test_coefficient_types():
    # the rewriter works on Laurent polynomials; elements keep QRational
    word = ((3, 3), (2, 2), (1, 1), (1, 2))
    assert all(isinstance(c, LaurentPoly) for c in _expand(word).values())
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


@pytest.mark.parametrize("n", [2, 3])
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


def test_negative_determinant_power_rejected():
    # a ValueError up front, not a RecursionError from counting down
    assert quantum_determinant_power(2, 0) == E.unit(2)
    with pytest.raises(ValueError):
        quantum_determinant_power(2, -1)
    with pytest.raises(ValueError):
        enumerate_Bnm(3, -1)


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
