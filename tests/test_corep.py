"""Corepresentation bases, Gram matrices, and their closed forms."""

from fractions import Fraction
from functools import reduce
from itertools import combinations_with_replacement, product

import pytest

from qhaar.algebra import AlgebraElement, equal_mod_det, star
from qhaar.corep import (BasisVector, _Q2, _Q4, _closed_pair,
                         _gram_double_sum, contents, gram_entry_closed,
                         gram_entry_direct, gram_matrix, gram_schmidt,
                         matrix_coeff_norm, quantum_dimension,
                         vector_to_element, weight_space)
from qhaar.haar import haar_state
from qhaar.scalars import (ONE, ZERO, evaluate_numeric, poch, q_binomial, qq)

E = AlgebraElement


def _from(text, det=0, coeff=ONE):
    return E.from_letters(text, det, coeff)


# ---------------------------------------------------------------------
# basis vectors


def _brute_force_ssyt(l1, l2):
    """Every semistandard tableau of shape (l1, l2, 0), as (content,
    column counts): weakly increasing rows from
    combinations_with_replacement, kept when the columns strictly
    increase."""
    out = []
    for r1 in combinations_with_replacement((1, 2, 3), l1):
        for r2 in combinations_with_replacement((2, 3), l2):
            if any(r1[i] >= r2[i] for i in range(l2)):
                continue
            cols = [(r1[i], r2[i]) for i in range(l2)]
            d = tuple(cols.count(c) for c in ((1, 2), (1, 3), (2, 3)))
            c = tuple(r1[l2:].count(x) for x in (1, 2, 3))
            content = tuple((r1 + r2).count(x) for x in (1, 2, 3))
            out.append((content, d + c))
    return out


def test_weight_space_matches_brute_force_ssyt():
    for l1 in range(7):
        for l2 in range(l1 + 1):
            ssyt = _brute_force_ssyt(l1, l2)
            n = l1 + l2
            for m1 in range(-2, n + 3):
                for m2 in range(-2, n + 3 - m1):
                    mu = (m1, m2, n - m1 - m2)
                    # chain order: increasing d1
                    want = sorted((key for content, key in ssyt
                                   if content == mu), key=lambda k: k[0])
                    vs = weight_space((l1, l2, 0), mu)
                    got = [(v.d1, v.d2, v.d3, v.c1, v.c2, v.c3) for v in vs]
                    assert got == want, ((l1, l2), mu)
                    assert all(v.content() == mu and v.shape() == (l1, l2, 0)
                               for v in vs)
            assert contents((l1, l2, 0)) == sorted({c for c, _ in ssyt})


def test_ssyt_counts():
    def dim(lam):
        return sum(len(weight_space(lam, mu)) for mu in contents(lam))

    assert dim((1, 0, 0)) == 3
    assert dim((1, 1, 0)) == 3
    assert dim((2, 1, 0)) == 8
    # lambda3 normalizes away
    assert dim((3, 2, 1)) == 8
    assert dim((0, 0, 0)) == 1


def test_tableau_to_vector():
    # rows (1), (2): one (1,2) column
    assert weight_space((1, 1, 0), (1, 1, 0)) == \
        [BasisVector(1, 0, 0, 0, 0, 0)]
    # row (2): one single 2
    assert weight_space((1, 0, 0), (0, 1, 0)) == \
        [BasisVector(0, 0, 0, 0, 1, 0)]
    # rows (1, 3), (2): the second vector of its chain
    assert weight_space((2, 1, 0), (1, 1, 1))[1] == \
        BasisVector(1, 0, 0, 0, 0, 1)
    # rows (2, 2), (3): a (2,3) column
    assert weight_space((2, 1, 0), (0, 2, 1)) == \
        [BasisVector(0, 0, 1, 0, 1, 0)]
    # a wrong sum is rejected; a right sum that does not occur is empty
    with pytest.raises(ValueError):
        weight_space((2, 1, 0), (1, 1, 0))
    assert weight_space((2, 1, 0), (3, -1, 1)) == []


def test_vector_to_element_examples():
    assert vector_to_element(BasisVector(1, 0, 0, 0, 0, 0)) == \
        _from("ae") + _from("bd", coeff=-qq(1))
    assert vector_to_element(BasisVector(0, 0, 0, 1, 0, 0)) == \
        _from("a")
    # q^2 g* D_q is exactly the two-row minor on columns 2,3
    assert vector_to_element(BasisVector(0, 0, 1, 0, 0, 0)) == \
        _from("bf") + _from("ce", coeff=-qq(1))


def test_vector_to_element_matches_star_form():
    # the defining product
    # (k*)^d1 (-q h*)^d2 (q^2 g*)^d3 a^c1 b^c2 c^c3 D_q^(d1+d2+d3)
    k_s, h_s, g_s = (star(E.gen(3, i, j)) for (i, j) in
                     ((3, 3), (3, 2), (3, 1)))
    from qhaar.algebra import quantum_determinant
    dq = quantum_determinant(3)
    for v in (BasisVector(1, 1, 0, 1, 1, 1),
              BasisVector(2, 1, 0, 0, 1, 0),
              BasisVector(1, 1, 1, 0, 1, 1)):
        built = E.unit(3)
        for _ in range(v.d1):
            built = built * k_s
        for _ in range(v.d2):
            built = built * h_s.scale(-qq(1))
        for _ in range(v.d3):
            built = built * g_s.scale(qq(2))
        built = built * _from("a") ** v.c1 * _from("b") ** v.c2 \
            * _from("c") ** v.c3
        for _ in range(v.d1 + v.d2 + v.d3):
            built = built * dq
        assert equal_mod_det(built, vector_to_element(v))


def test_weight_space_chain():
    vs = weight_space((2, 1, 0), (1, 1, 1))
    assert len(vs) == 2
    assert (vs[0].d2, vs[0].c2) == (1, 1)          # v_0: most label-2 boxes
    assert (vs[1].d1, vs[1].c3) == (1, 1)          # v_1 = O_2(v_0)
    # one-dimensional when lambda1 = lambda2
    for mu in contents((2, 2, 0)):
        assert len(weight_space((2, 2, 0), mu)) == 1


# ---------------------------------------------------------------------
# inner products


def test_square_length_two_column_family():
    # d2 = d3 = c2 = c3 = 0
    for d1, c1 in ((1, 0), (0, 2), (2, 1), (1, 2)):
        v = BasisVector(d1, 0, 0, c1, 0, 0)
        want = ((qq(2) - ONE) ** 2 * (qq(4) - ONE)
                / ((qq(2 * c1 + 2) - ONE) * (qq(2 * d1 + 2) - ONE)
                   * (qq(2 * (d1 + c1) + 4) - ONE)))
        assert gram_entry_closed(v, v, "R") == want
        assert gram_entry_direct(v, v, "R") == want


def test_square_length_pure_column_family():
    # h((g*)^d3 (h*)^d2 (k*)^d1 k^d1 h^d2 g^d3): a pure Pochhammer product
    for d1, d2, d3 in ((1, 1, 1), (2, 1, 0), (0, 1, 2)):
        x = AlgebraElement.unit(3)
        for (i, j), p in (((3, 1), d3), ((3, 2), d2), ((3, 3), d1)):
            x = x * star(AlgebraElement.gen(3, i, j)) ** p
        for (i, j), p in (((3, 3), d1), ((3, 2), d2), ((3, 1), d3)):
            x = x * AlgebraElement.gen(3, i, j) ** p
        want = (poch(1, d1) * poch(1, d2) * poch(1, d3) * poch(1, 2)
                / poch(1, d1 + d2 + d3 + 2))
        assert haar_state(x) == want


def test_square_length_no_c_boxes():
    # d3 = c2 = c3 = 0, against the two-Pochhammer display
    for d1 in range(3):
        for d2 in range(3):
            for c1 in range(3):
                v = BasisVector(d1, d2, 0, c1, 0, 0)
                disp = (qq(2 * d1 * d2) * (ONE - qq(2)) ** 2 * (ONE - qq(4))
                        * poch(1, d1) * poch(1, d2)
                        / ((ONE - qq(2 * c1 + 2)) * poch(1, d1 + d2 + 1)
                           * (ONE - qq(2 * (d1 + d2 + c1) + 4))))
                # the basis vector carries (-q)^d2, squaring to q^(2 d2)
                assert gram_entry_closed(v, v, "R") == qq(2 * d2) * disp


def test_square_length_no_d2():
    # d2 = k = 0 factorization of the general double sum
    for d1 in range(4):
        for c1 in range(3):
            for c2 in range(3):
                for c3 in range(3):
                    v = BasisVector(d1, 0, 0, c1, c2, c3)
                    want = (qq(2 * c1 * c2 + 2 * c1 * c3 + 2 * c2 * c3
                               + 2 * c2 + 4 * c3 + 2 * d1 * c3)
                            * (ONE - qq(2)) ** 2 * (ONE - qq(4))
                            * poch(1, c1) * poch(1, c2) * poch(1, c3)
                            / (poch(1, c1 + c2 + 1) * (ONE - qq(2 * d1 + 2))
                               * poch(d1 + c1 + c2 + 2, c3 + 1)))
                    assert gram_entry_closed(v, v, "R") == want


def test_closed_matches_direct_small():
    for lam in ((1, 0, 0), (1, 1, 0), (2, 1, 0), (2, 2, 0)):
        for mu in contents(lam):
            vs = weight_space(lam, mu)
            for i in range(len(vs)):
                for j in range(len(vs)):
                    for form in "LR":
                        for side in ("right_comodule", "left_comodule"):
                            assert gram_entry_closed(
                                vs[i], vs[j], form, side) == \
                                gram_entry_direct(vs[i], vs[j], form, side)


def test_modular_transfer():
    from qhaar.corep import _rho_scale
    vs = weight_space((2, 1, 0), (1, 1, 1))
    for vi in vs:
        for vj in vs:
            x = vector_to_element(vi)
            y = vector_to_element(vj)
            assert haar_state(star(x) * y) == \
                _rho_scale(vj) * haar_state(y * star(x))


def test_cross_weight_orthogonality():
    for lam in ((1, 0, 0), (2, 1, 0), (2, 2, 0)):
        mus = contents(lam)
        for mi in mus:
            for mj in mus:
                if mi == mj:
                    continue
                x = vector_to_element(weight_space(lam, mi)[0])
                y = vector_to_element(weight_space(lam, mj)[0])
                assert haar_state(star(x) * y) == ZERO


FORM_SIDES = [(form, side) for form in "LR"
              for side in ("right_comodule", "left_comodule")]


def test_weight_space_constants():
    # each (form, side) matrix is the right-comodule L matrix times one
    # monomial, although every entry scales by the monomials of its own
    # pair's first vector
    for l1 in range(7):
        for l2 in range(l1 + 1):
            for mu in contents((l1, l2, 0)):
                base = gram_matrix((l1, l2, 0), mu).entries
                for form, side in FORM_SIDES:
                    g = gram_matrix((l1, l2, 0), mu, form, side).entries
                    c = g[0][0] / base[0][0]
                    assert c.den == ONE.den and len(c.num.terms) == 1
                    assert list(c.num.terms.values()) == [1]
                    assert all(x == c * y for row, brow in zip(g, base)
                               for x, y in zip(row, brow))


def test_closed_pair_computed_once_per_weight_space():
    vs = weight_space((4, 2, 0), (2, 2, 2))
    n = len(vs)
    _closed_pair.cache_clear()
    for form, side in FORM_SIDES:
        gram_matrix((4, 2, 0), (2, 2, 2), form, side)
    info = _closed_pair.cache_info()
    # one base entry per upper-triangle pair, three further requests each
    assert n > 1 and info.misses == n * (n + 1) // 2
    assert info.hits == 3 * info.misses


def test_unknown_form_side_method_rejected():
    vs = weight_space((2, 1, 0), (1, 1, 1))
    _closed_pair.cache_clear()
    for form, side in (("bogus", "right_comodule"), ("L", "bogus"),
                       ("R", "right")):
        with pytest.raises(ValueError):
            gram_entry_closed(vs[0], vs[1], form, side)
        with pytest.raises(ValueError):
            gram_entry_direct(vs[0], vs[1], form, side)
    # a rejected call leaves nothing in the memo
    assert _closed_pair.cache_info().currsize == 0
    with pytest.raises(ValueError):
        gram_matrix((2, 1, 0), (1, 1, 1), method="bogus")


def test_weight_mismatch_rejected():
    va = BasisVector(1, 0, 0, 0, 0, 0)
    vb = BasisVector(0, 0, 0, 1, 1, 0)
    with pytest.raises(ValueError):
        gram_entry_closed(va, vb)
    with pytest.raises(ValueError):
        gram_entry_direct(va, vb)
    with pytest.raises(ValueError):
        gram_entry_direct(BasisVector(4, 0, 0, 4, 0, 0),
                          BasisVector(4, 0, 0, 4, 0, 0))


def test_same_tableau_is_one_vector():
    # a tableau is its six column counts, however the vector was made
    v, w = BasisVector(1, 0, 0, 0, 0, 0), weight_space((1, 1, 0), (1, 1, 0))[0]
    assert v == w and hash(v) == hash(w) and len({v, w}) == 1
    _closed_pair.cache_clear()
    assert gram_entry_closed(v, w) == gram_entry_closed(w, v) == \
        gram_entry_direct(v, w)
    assert _closed_pair.cache_info().currsize == 1
    with pytest.raises(AttributeError):
        v.d1 = 2
    # no semistandard filling has a (2,3) column beside a single 1
    with pytest.raises(ValueError):
        BasisVector(0, 0, 1, 1, 0, 0)
    with pytest.raises(ValueError):
        BasisVector(0, 0, 0, 0, -1, 1)
    with pytest.raises(ValueError):
        v._replace(d3=1, c1=1)


def _two_branch_pair(v, k):
    """<v, v_k> (right comodule, form L) as the paper writes it: one
    display for d3 = 0 and one for c1 = 0, with the double sum's arguments
    reordered for the latter."""
    d1, d2, d3, c1, c2, c3 = v
    if d3 == 0:
        pre = qq(2 * d1 * d2 + 4 * d1 + 4 * d2 + 2 * c1 * c2 + 2 * c1 * c3
                 + 2 * c2 * c3 + 4 * c1 + 4 * c2 + 4 * c3
                 + k * (d2 + c2 - k))
        den = poch(1, d1 + d2 + 1) * poch(1, c1 + c2 + c3 + 1)
        double = _gram_double_sum(d1, d2, c1, c2, c3, k)
    else:
        pre = qq(2 * d2 * d3 + 2 * d1 * d2 + 2 * d1 * d3 + 4 * d3 + 4 * d1
                 + 4 * d2 + 2 * c2 * c3 + 4 * c2 + 4 * c3
                 + k * (d2 + c2 - k))
        den = poch(1, c2 + c3 + 1) * poch(1, d1 + d2 + d3 + 1)
        double = _gram_double_sum(d1, c2, d3, d2, c3, k)
    return pre * _Q2 * _Q2 * _Q4 * poch(1, d2) * poch(1, c2) / den * double


def test_closed_pair_matches_two_branch_formula():
    pairs = with_d3 = 0
    for l1 in range(7):
        for l2 in range(l1 + 1):
            for mu in contents((l1, l2, 0)):
                vs = weight_space((l1, l2, 0), mu)
                for i, v in enumerate(vs):
                    for k in range(len(vs) - i):
                        assert _closed_pair(v, k) == _two_branch_pair(v, k), \
                            (v, k)
                        pairs += 1
                        with_d3 += v.d3 > 0
    assert pairs == 924 and with_d3 > 0


def test_gram_double_sum_symmetric():
    # the symmetry in the second and fourth arguments behind the single
    # closed form, for entries <= 2 and every chain offset k
    for d1, x, y, z, c3 in product(range(3), repeat=5):
        for k in range(min(x, z) + 1):
            assert _gram_double_sum(d1, x, y, z, c3, k) == \
                _gram_double_sum(d1, z, y, x, c3, k)


# ---------------------------------------------------------------------
# matrices and orthogonalization


def test_gram_matrix_agreement():
    g1 = gram_matrix((2, 1, 0), (1, 1, 1), "L", method="closed")
    g2 = gram_matrix((2, 1, 0), (1, 1, 1), "L", method="direct")
    assert g1.entries == g2.entries
    assert g1.dim() == 2
    assert g1.entries[0][1] == g1.entries[1][0]
    with pytest.raises(ValueError):
        gram_matrix((2, 1, 0), (3, 0, 0))


def test_gram_matrix_export():
    g = gram_matrix((1, 0, 0), (1, 0, 0))
    d = g.to_json_dict()
    assert d["lambda"] == [1, 0, 0] and len(d["entries"]) == 1


def test_gram_schmidt_trivial():
    one = gram_matrix((1, 0, 0), (1, 0, 0))
    t, norms = gram_schmidt(one)
    assert t == [[ONE]] and norms == [one.entries[0][0]]
    diag = [[qq(2), ZERO], [ZERO, qq(4)]]
    t, norms = gram_schmidt(diag)
    assert t[1][0] == ZERO and norms == [qq(2), qq(4)]


def test_gram_schmidt_diagonalizes():
    for mu in ((2, 1, 1), (1, 2, 1), (1, 1, 2)):
        g = gram_matrix((3, 1, 0), mu)
        t, norms = gram_schmidt(g)
        n = g.dim()
        for i in range(n):
            assert t[i][i] == ONE
            for j in range(n):
                dot = ZERO
                for k in range(n):
                    for l in range(n):
                        dot = dot + t[i][k] * t[j][l] * g.entries[k][l]
                assert dot == (norms[i] if i == j else ZERO)


def _textbook_gram_schmidt(entries):
    """u_i = v_i - sum_j (<v_i, u_j> / <u_j, u_j>) u_j, each u as its
    coefficients over the v's, with every sum a pairwise + fold."""
    n = len(entries)

    def fold(xs):
        return reduce(lambda a, b: a + b, xs, ZERO)

    def dot(x, y):
        return fold(x[k] * entries[k][l] * y[l]
                    for k in range(n) for l in range(n))

    us, norms = [], []
    for i in range(n):
        u = [ONE if k == i else ZERO for k in range(n)]
        for j in range(i):
            c = dot(u, us[j]) / norms[j]
            u = [a - c * b for a, b in zip(u, us[j])]
        us.append(u)
        norms.append(dot(u, u))
    return us, norms


def test_gram_schmidt_matches_textbook():
    for l1 in range(5):
        for l2 in range(l1 + 1):
            for mu in contents((l1, l2, 0)):
                for form, side in FORM_SIDES:
                    g = gram_matrix((l1, l2, 0), mu, form, side)
                    assert gram_schmidt(g) == _textbook_gram_schmidt(
                        g.entries), ((l1, l2), mu, form, side)


def test_gram_schmidt_singular_leading_minor():
    for entries in ([[ONE, ONE], [ONE, ONE]],
                    [[ZERO, ONE], [ONE, ONE]],
                    [[ZERO]],
                    [[qq(1), ONE, ZERO], [ONE, qq(-1), ZERO],
                     [ZERO, ZERO, ONE]]):
        with pytest.raises(ValueError, match="singular leading minor"):
            gram_schmidt(entries)
    assert gram_schmidt([]) == ([], [])


def test_positive_definite_at_sample_q():
    for lam in ((2, 1, 0), (3, 1, 0)):
        for mu in contents(lam):
            _, norms = gram_schmidt(gram_matrix(lam, mu))
            for s in norms:
                for q0 in (Fraction(1, 4), Fraction(9, 16)):
                    assert evaluate_numeric(s, q0) > 0


# ---------------------------------------------------------------------
# dimensions and norms


def test_quantum_dimension():
    d = qq(2) + ONE + qq(-2)
    assert quantum_dimension((1, 0, 0)) == d
    assert quantum_dimension((1, 1, 0)) == d
    assert quantum_dimension((0, 0, 0)) == ONE
    # classical (Weyl) dimension at q = 1, also with lambda3 != 0
    for l1 in range(7):
        for l2 in range(l1 + 1):
            weyl = (l1 - l2 + 1) * (l2 + 1) * (l1 + 2) // 2
            for lam in ((l1, l2, 0), (l1 + 1, l2 + 1, 1)):
                assert evaluate_numeric(quantum_dimension(lam),
                                        Fraction(1)) == weyl


def test_matrix_coeff_norm():
    d = quantum_dimension((1, 0, 0))
    left, right = matrix_coeff_norm((1, 0, 0), (1, 0, 0), (1, 0, 0))
    assert left == qq(2) / d and right == qq(-2) / d
    left, _ = matrix_coeff_norm((1, 0, 0), (0, 1, 0), (1, 0, 0))
    assert left == ONE / d
    assert matrix_coeff_norm((0, 0, 0), (0, 0, 0), (0, 0, 0)) == (ONE, ONE)
    with pytest.raises(ValueError):
        matrix_coeff_norm((1, 0, 0), (2, 0, 0), (1, 0, 0))
