"""Corepresentation bases, Gram matrices, and their closed forms."""

from fractions import Fraction

import pytest

from qhaar.algebra import AlgebraElement, equal_mod_det, star
from qhaar.corep import (BasisVector, Tableau, contents, enumerate_ssyt,
                         gram_entry_closed, gram_entry_direct, gram_matrix,
                         gram_schmidt, matrix_coeff_norm, quantum_dimension,
                         tableau_to_vector, vector_to_element, weight_space)
from qhaar.haar import haar_state
from qhaar.scalars import (ONE, ZERO, evaluate_numeric, poch, q_binomial, qq)

E = AlgebraElement


def _from(text, det=0, coeff=ONE):
    return E.from_letters(text, det, coeff)


# ---------------------------------------------------------------------
# tableaux and vectors


def test_ssyt_counts():
    assert len(enumerate_ssyt((1, 0, 0))) == 3
    assert len(enumerate_ssyt((1, 1, 0))) == 3
    assert len(enumerate_ssyt((2, 1, 0))) == 8
    # lambda3 normalizes away, carrying only a det shift
    assert len(enumerate_ssyt((3, 2, 1))) == 8
    assert enumerate_ssyt((3, 2, 1))[0].det_shift == 1
    assert len(enumerate_ssyt((0, 0, 0))) == 1


def test_ssyt_are_semistandard():
    for t in enumerate_ssyt((3, 2, 0)):
        r1, r2 = t.rows
        assert all(r1[i] <= r1[i + 1] for i in range(len(r1) - 1))
        assert all(r2[i] <= r2[i + 1] for i in range(len(r2) - 1))
        assert all(r1[i] < r2[i] for i in range(len(r2)))


def test_tableau_validation():
    with pytest.raises(ValueError):
        Tableau((2, 1, 0), ((2, 1), (3,)))  # row decreases
    with pytest.raises(ValueError):
        Tableau((2, 1, 0), ((1, 1), (1,)))  # column not strict
    with pytest.raises(ValueError):
        Tableau((1, 2, 0), ((1,), (2, 2)))  # bad shape


def test_tableau_to_vector():
    v = tableau_to_vector(Tableau((1, 1, 0), ((1,), (2,))))
    assert (v.family, v.d1) == ("A", 1)
    assert (v.d2, v.d3, v.c1, v.c2, v.c3) == (0, 0, 0, 0, 0)
    v = tableau_to_vector(Tableau((1, 0, 0), ((2,),)))
    assert (v.family, v.c2) == ("A", 1)
    v = tableau_to_vector(Tableau((2, 1, 0), ((1, 3), (2,))))
    assert (v.d1, v.c3) == (1, 1)
    v = tableau_to_vector(Tableau((2, 1, 0), ((2, 2), (3,))))
    assert (v.family, v.d3, v.c2) == ("B", 1, 1)


def test_vector_to_element_examples():
    assert vector_to_element(BasisVector("A", 1, 0, 0, 0, 0, 0)) == \
        _from("ae") + _from("bd", coeff=-qq(1))
    assert vector_to_element(BasisVector("A", 0, 0, 0, 1, 0, 0)) == \
        _from("a")
    # q^2 g* D_q is exactly the two-row minor on columns 2,3
    assert vector_to_element(BasisVector("B", 0, 0, 1, 0, 0, 0)) == \
        _from("bf") + _from("ce", coeff=-qq(1))


def test_vector_to_element_matches_star_form():
    # the defining product (k*)^d1 (-q h*)^d2 a^c1 b^c2 c^c3 D_q^(d1+d2)
    k_s, h_s, g_s = (star(E.gen(3, i, j)) for (i, j) in
                     ((3, 3), (3, 2), (3, 1)))
    from qhaar.algebra import quantum_determinant
    dq = quantum_determinant(3)
    for v in (BasisVector("A", 1, 1, 0, 1, 1, 1),
              BasisVector("A", 2, 1, 0, 0, 1, 0)):
        built = E.unit(3)
        for _ in range(v.d1):
            built = built * k_s
        for _ in range(v.d2):
            built = built * h_s.scale(-qq(1))
        built = built * _from("a") ** v.c1 * _from("b") ** v.c2 \
            * _from("c") ** v.c3
        for _ in range(v.d1 + v.d2):
            built = built * dq
        assert equal_mod_det(built, vector_to_element(v))
    for v in (BasisVector("B", 1, 1, 1, 0, 1, 1),):
        built = E.unit(3)
        for _ in range(v.d1):
            built = built * k_s
        for _ in range(v.d2):
            built = built * h_s.scale(-qq(1))
        for _ in range(v.d3):
            built = built * g_s.scale(qq(2))
        built = built * _from("b") ** v.c2 * _from("c") ** v.c3
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


def test_dimension_count():
    for lam in ((2, 1, 0), (3, 1, 0), (3, 2, 0)):
        total = sum(len(weight_space(lam, mu)) for mu in contents(lam))
        assert total == len(enumerate_ssyt(lam))


# ---------------------------------------------------------------------
# inner products


def test_square_length_two_column_family():
    # family A, d2 = c2 = c3 = 0
    for d1, c1 in ((1, 0), (0, 2), (2, 1), (1, 2)):
        v = BasisVector("A", d1, 0, 0, c1, 0, 0)
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
    # family A with c2 = c3 = 0, against the two-Pochhammer display
    for d1 in range(3):
        for d2 in range(3):
            for c1 in range(3):
                v = BasisVector("A", d1, d2, 0, c1, 0, 0)
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
                    v = BasisVector("A", d1, 0, 0, c1, c2, c3)
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


def test_weight_mismatch_rejected():
    va = BasisVector("A", 1, 0, 0, 0, 0, 0)
    vb = BasisVector("A", 0, 0, 0, 1, 1, 0)
    with pytest.raises(ValueError):
        gram_entry_closed(va, vb)
    with pytest.raises(ValueError):
        gram_entry_direct(va, vb)
    with pytest.raises(ValueError):
        gram_entry_direct(BasisVector("A", 4, 0, 0, 4, 0, 0),
                          BasisVector("A", 4, 0, 0, 4, 0, 0))


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
    # classical dimension at q = 1
    assert evaluate_numeric(quantum_dimension((2, 1, 0)), Fraction(1)) == 8


def test_matrix_coeff_norm():
    d = quantum_dimension((1, 0, 0))
    left, right = matrix_coeff_norm((1, 0, 0), (1, 0, 0), (1, 0, 0))
    assert left == qq(2) / d and right == qq(-2) / d
    left, _ = matrix_coeff_norm((1, 0, 0), (0, 1, 0), (1, 0, 0))
    assert left == ONE / d
    assert matrix_coeff_norm((0, 0, 0), (0, 0, 0), (0, 0, 0)) == (ONE, ONE)
    with pytest.raises(ValueError):
        matrix_coeff_norm((1, 0, 0), (2, 0, 0), (1, 0, 0))
