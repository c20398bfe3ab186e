"""Acceptance suite: one test per criterion, exact equality throughout."""

from fractions import Fraction

from qhaar.algebra import (AlgebraElement, _neg_q_power, apply_morphism,
                           comultiply, equal_mod_det, pseudo_word)
from qhaar.corep import contents, gram_matrix
from qhaar.haar import (haar_order1, haar_pseudo, haar_ref,
                        haar_ref_recursive, haar_state,
                        _pseudo_index_from_theta)
from qhaar.linsys import (build_system, enumerate_Bnm, solve_system,
                          source_matrix_solve)
from qhaar.scalars import ONE, evaluate_numeric, poch, q_binomial, qq
from qhaar.verify import (check_S_sum, check_paper_computations,
                          check_prop_5_3)

E = AlgebraElement


def pseudo_element(theta, m):
    x = E.unit(3)
    for (i, j) in pseudo_word(theta):
        x = x * E.gen(3, i, j)
    return x * E.det_inv(3, m)


def shapes_within_3():
    out = []
    for l1 in range(4):
        for l2 in range(l1 + 1):
            for l3 in range(l2 + 1):
                out.append((l1, l2, l3))
    return out


def test_criterion_01_rank3_system_matches_closed_form():
    for m in (1, 2, 3):
        values = solve_system(build_system(3, m))
        thetas = enumerate_Bnm(3, m)
        assert len(thetas) == {1: 6, 2: 21, 3: 55}[m]
        for theta in thetas:
            assert values[theta] == haar_pseudo(*_pseudo_index_from_theta(m, theta))


def test_criterion_02_reference_value_triple_agreement():
    for m in range(9):
        assert haar_ref(m) == haar_ref_recursive(m)
    for m in (1, 2, 3):
        assert source_matrix_solve(3, m) == haar_ref(m)


def test_criterion_03_order_one_general_rank():
    for n in (2, 3, 4):
        values = solve_system(build_system(n, 1))
        for theta, value in values.items():
            sigma = tuple(row.index(1) + 1 for row in theta)
            assert value == haar_order1(sigma, n)


def test_criterion_04_haar_invariance():
    order2 = enumerate_Bnm(3, 2)
    sampled = [order2[i] for i in (0, 3, 6, 9, 12, 15, 18, 20)]
    cases = [(theta, 1) for theta in enumerate_Bnm(3, 1)] + \
        [(theta, 2) for theta in sampled]
    for theta, m in cases:
        x = pseudo_element(theta, m)
        hx = E.unit(3).scale(haar_state(x))
        left = E.zero(3)
        right = E.zero(3)
        for (wl, wr), c in comultiply(x):
            left = left + E(3, {wl: ONE}, canonical=True).scale(
                c * haar_state(E(3, {wr: ONE}, canonical=True)))
            right = right + E(3, {wr: ONE}, canonical=True).scale(
                c * haar_state(E(3, {wl: ONE}, canonical=True)))
        assert equal_mod_det(left, hx)
        assert equal_mod_det(right, hx)


def test_criterion_05_flip_morphisms_preserve_haar():
    for m in (1, 2):
        for theta in enumerate_Bnm(3, m):
            x = pseudo_element(theta, m)
            h = haar_state(x)
            assert haar_state(apply_morphism(x, "gamma")) == h
            assert haar_state(apply_morphism(x, "omega")) == h


def test_criterion_06_gram_closed_equals_direct():
    for lam in shapes_within_3():
        for mu in contents(lam):
            for form in ("L", "R"):
                for side in ("right_comodule", "left_comodule"):
                    closed = gram_matrix(lam, mu, form, side, "closed")
                    direct = gram_matrix(lam, mu, form, side, "direct")
                    assert closed.entries == direct.entries, \
                        (lam, mu, form, side)


def test_criterion_07_display_regressions():
    reports = check_paper_computations()
    assert len(reports) == 17
    for report in reports:
        assert report.ok(), report.to_json()


def test_criterion_08_summation_identities():
    assert check_prop_5_3(6, 6).ok()
    assert check_S_sum(8, 8).ok()


def test_criterion_09_rewriter_closed_forms():
    # (x_{ik} x_{jl} - q x_{jk} x_{il})^n via Gaussian binomials, n <= 5
    for (xa, xe, xd, xb) in [("a", "e", "d", "b"), ("b", "k", "h", "c")]:
        base = E.from_letters(xa + xe) - E.from_letters(xd + xb, 0, qq(1))
        for n in range(6):
            expected = E.zero(3)
            for p in range(n + 1):
                w = xa * p + (xd + xb) * (n - p) + xe * p
                coeff = _neg_q_power((1 - 2 * p) * (n - p)) * q_binomial(n, p)
                expected = expected + E.from_letters(w, 0, coeff)
            assert base ** n == expected
    # x_{jl}^s x_{ik}^t reordering, s,t <= 4
    for (xa, xe, xd, xb) in [("a", "e", "d", "b"), ("b", "k", "h", "c")]:
        for s in range(5):
            for t in range(5):
                lhs = E.from_letters(xe * s + xa * t)
                expected = E.zero(3)
                for p in range(min(s, t) + 1):
                    w = xa * (t - p) + (xd + xb) * p + xe * (s - p)
                    coeff = qq(3 * p * p - 2 * (s + t) * p) * \
                        q_binomial(s, p) * q_binomial(t, p) * poch(1, p)
                    expected = expected + E.from_letters(w, 0, coeff)
                assert lhs == expected


def _leading_minors_positive(entries, q0):
    mat = [[evaluate_numeric(x, q0) for x in row] for row in entries]
    dim = len(mat)
    for k in range(1, dim + 1):
        block = [row[:k] for row in mat[:k]]
        det = Fraction(1)
        for col in range(k):
            pivot = next((r for r in range(col, k) if block[r][col] != 0),
                         None)
            if pivot is None:
                return False
            if pivot != col:
                block[col], block[pivot] = block[pivot], block[col]
                det = -det
            det *= block[col][col]
            for r in range(col + 1, k):
                f = Fraction(block[r][col], block[col][col])
                block[r] = [block[r][c] - f * block[col][c]
                            for c in range(k)]
        if det <= 0:
            return False
    return True


def test_criterion_10_gram_positive_definite():
    for lam in shapes_within_3():
        for mu in contents(lam):
            for form in ("L", "R"):
                g = gram_matrix(lam, mu, form=form, method="closed")
                for q0 in (Fraction(1, 4), Fraction(9, 16)):
                    assert _leading_minors_positive(g.entries, q0), \
                        (lam, mu, form, q0)
