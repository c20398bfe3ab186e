import random
import sys
from itertools import combinations, permutations, product

import pytest

from qhaar.scalars import LaurentPoly, QRational, ZERO, ONE, qq, \
    _LP_ONE, _LP_ZERO
from qhaar.algebra import (AlgebraElement, pseudo_word, counting_matrix,
                           stochastic_order, quantum_determinant, inversions,
                           comultiply, quantum_determinant_power,
                           _rho_exponent)
from qhaar.haar import haar_ref, haar_order1, haar_pseudo, haar_state
from qhaar.linsys import (enumerate_Bnm, detq_power_expand, build_system,
                          solve_system, source_matrix_solve, _eliminate,
                          _counting_matrices, _orbit_row, _orbit_min,
                          _source_rows, _detq_near_diagonal, _near_diagonal,
                          _polarity, _BOUNDS,
                          VerificationError)
from qhaar.rewriter import _times_words
from qhaar.actions import act
from qhaar import algebra, haar, linsys

E = AlgebraElement
NEG_ONE = QRational.from_int(-1)


def full_action_rows(n, m):
    """The invariance rows of every e_k and f_k over every counting matrix,
    without the orbit reduction, plus the normalization row: an independent
    route to the values, solved by _eliminate over all of enumerate_Bnm."""
    rows = []
    for k in range(1, n):
        for kind, moved in (("e", (m - 1, m + 1)), ("f", (m + 1, m - 1))):
            col_sums = (m,) * (k - 1) + moved + (m,) * (n - k - 1)
            for theta in _counting_matrices((m,) * n, col_sums):
                x = E(n, {(pseudo_word(theta), m): ONE}, canonical=True)
                coeffs = {}
                for (factors, det), c in act((kind, k), x).terms.items():
                    K = counting_matrix(n, factors)
                    assert det == m and stochastic_order(K) == m
                    coeffs[K] = c
                if coeffs:
                    rows.append((coeffs, ZERO,
                                 ("invariance", (kind, k), theta)))
    rows.append((detq_power_expand(n, m), ONE, ("normalization",)))
    return rows


def class_sort_exponent(n, word):
    """The exponent e of the scalar v^e that a stable sort of the word by
    polarity class (negatives first, then neutral, then positive) picks
    up, using only the switch rules that generate no extra terms: every
    pair standing in the wrong order is switched once, for v^-2 or v^2 when
    the two share a row or column, and for nothing when they are
    anti-diagonal."""
    pol = [_polarity(n, g) for g in word]
    e = 0
    for p, r in combinations(range(len(word)), 2):
        if pol[p] <= pol[r]:
            continue
        g1, g2 = word[p], word[r]
        if g1[0] == g2[0] or g1[1] == g2[1]:
            e += -2 if g1 > g2 else 2
        else:
            # must be an anti-diagonal pair; a diagonal pair would spawn
            # an extra monomial and break the reduction
            assert (g1[0] - g2[0]) * (g1[1] - g2[1]) < 0, (g1, g2)
    return e


def per_f_eta_scalar(n, mu, sigma):
    """sum_f v^(s(f) + z(f)) over every f, with s(f) from class-sorting
    the eta word of f and z(f) the zeta word's sorting exponent."""
    specials = [(s, n + 1 - r) for r, s in enumerate(sigma, 1)]
    scalar = {}
    for f in product(*(range(mu) if s != r else (0,)
                       for r, s in enumerate(sigma, 1))):
        eta = [g for r, s in enumerate(specials, 1)
               for g in [(r, n + 1 - r)] * f[r - 1] + [s]
               + [(r, n + 1 - r)] * (mu - 1 - f[r - 1])]
        e = class_sort_exponent(n, eta) - 2 * sum(
            mu - 1 - fr if s > r else fr
            for r, (s, fr) in enumerate(zip(sigma, f), 1))
        scalar[e] = scalar.get(e, 0) + 1
    return LaurentPoly(scalar)


def per_f_source_rows(n, mu):
    """The Source rows of order mu by one pass per sigma and f: the
    rewriter normal-orders every zeta word, which must be the single
    monomial lambda_f x_theta, and the eta prefix of every f, and the row
    sums lambda_f times the reduction of eta_f over f."""
    b = detq_power_expand(n, mu)
    sigma0 = tuple(range(n, 0, -1))
    rows = []
    for sigma in permutations(range(1, n + 1)):
        if sigma == tuple(range(1, n + 1)):
            continue
        theta = tuple(tuple((mu - 1) * (i == j) + (j == sigma[i - 1])
                            for j in range(1, n + 1))
                      for i in range(1, n + 1))
        specials = [(s, n + 1 - r) for r, s in enumerate(sigma, 1)]
        pol = {g: _polarity(n, g) for g in specials}
        coeffs = {}
        for f in product(*(range(mu) if sigma[r] != r + 1 else (0,)
                           for r in range(n))):
            zw = tuple(g for r in range(1, n + 1)
                       for g in [(r, r)] * f[r - 1] + [(r, sigma[r - 1])]
                       + [(r, r)] * (mu - 1 - f[r - 1]))
            exp = _times_words({(): {0: 1}}, [(zw, {0: 1})])
            assert len(exp) == 1 and pseudo_word(theta) in exp
            lam = LaurentPoly(exp[pseudo_word(theta)])
            word = [g for r, s in enumerate(specials, 1)
                    for g in [(r, n + 1 - r)] * f[r - 1] + [s]
                    + [(r, n + 1 - r)] * (mu - 1 - f[r - 1])]
            e = class_sort_exponent(n, word) + 2 * _rho_exponent(
                n, [g for g in specials if pol[g] >= 0])
            prefix = tuple(sorted(specials,
                                  key=lambda g: (pol[g] < 0, pol[g])))
            for cw, cc in _times_words({(): {0: 1}},
                                       [(prefix, {0: 1})]).items():
                tau = tuple(j for (_i, j) in cw)
                coeffs[tau] = coeffs.get(tau, _LP_ZERO) \
                    + lam * LaurentPoly(cc).shift(e)
        coeffs = {k: QRational(v, _LP_ONE, _reduced=True)
                  for k, v in coeffs.items()}
        coeffs[sigma0] = coeffs.get(sigma0, ZERO) - b.get(theta, ZERO)
        rows.append(({k: v for k, v in coeffs.items() if not v.is_zero()},
                     ZERO, ("source", mu, sigma)))
    return rows


def near_diagonal_chain(n, m):
    """The near-diagonal coefficients of D_q^mu for mu = 1..m, each order
    from the one before, as source_matrix_solve carries them."""
    b = {((0,) * n,) * n: ONE}
    out = []
    for mu in range(1, m + 1):
        b = _detq_near_diagonal(n, mu, b)
        out.append(b)
    return out


def product_filter_counting_matrices(row_sums, col_sums):
    """Every tuple of compositions of the row sums but the last, completed
    by the column sums' remainder when it is nonnegative, then sorted."""
    n = len(col_sums)
    heads = product(*([r for r in product(range(s + 1), repeat=n)
                       if sum(r) == s] for s in row_sums[:-1]))
    out = []
    for head in heads:
        last = tuple(c - sum(r[j] for r in head)
                     for j, c in enumerate(col_sums))
        if min(last) >= 0:
            out.append(head + (last,))
    return sorted(out)


def perm_matrix(sigma):
    n = len(sigma)
    return tuple(tuple(int(sigma[i] == j + 1) for j in range(n))
                 for i in range(n))


def test_enumeration_counts():
    for m in range(6):
        assert enumerate_Bnm(1, m) == [((m,),)]
        assert len(enumerate_Bnm(2, m)) == m + 1
        assert len(enumerate_Bnm(3, m)) == \
            (m + 1) * (m + 2) * (m * m + 3 * m + 4) // 8
    assert len(enumerate_Bnm(4, 2)) == 282
    assert len(enumerate_Bnm(4, 3)) == 2008
    assert len(enumerate_Bnm(5, 2)) == 6210
    perms = enumerate_Bnm(3, 1)
    assert len(perms) == 6
    assert all(stochastic_order(theta) == 1 for theta in perms)
    for m in (1, 2, 3):
        B = enumerate_Bnm(3, m)
        assert B == sorted(B)
        assert len(set(B)) == len(B)
        assert all(stochastic_order(theta) == m for theta in B)


def counting_sums(n, m):
    """The square sums of order m and the (m - 1, m + 1) column sums of
    the e_k rows."""
    cols = [(m,) * n] + [(m,) * (k - 1) + (m - 1, m + 1) + (m,) * (n - k - 1)
                         for k in range(1, n) if m]
    return [((m,) * n, c) for c in cols]


@pytest.mark.parametrize("row_sums, col_sums", [
    sums for n in (1, 2, 3, 4) for m in range(4)
    for sums in counting_sums(n, m)]
    + counting_sums(5, 1) + counting_sums(5, 2)
    + [((3, 1), (2, 2)), ((0, 2, 1), (1, 1, 1)), ((2,), (1, 1)),
       ((1, 1, 1), (3, 0, 0)), ((4, 0), (0, 4))])
def test_counting_matrices_match_product_filter(row_sums, col_sums):
    assert list(_counting_matrices(row_sums, col_sums)) == \
        product_filter_counting_matrices(row_sums, col_sums)


def test_detq_expansion_order1():
    from itertools import permutations
    b3 = detq_power_expand(3, 1)
    for sigma in permutations((1, 2, 3)):
        want = (NEG_ONE ** inversions(sigma)) * qq(inversions(sigma))
        assert b3[perm_matrix(sigma)] == want
    b2 = detq_power_expand(2, 1)
    assert b2[perm_matrix((1, 2))] == ONE
    assert b2[perm_matrix((2, 1))] == -qq(1)


def test_detq_expansion_squares_determinant():
    got = detq_power_expand(3, 2)
    direct = quantum_determinant(3) * quantum_determinant(3)
    assert got == {counting_matrix(3, f): c
                   for (f, _d), c in direct.terms.items()}
    r2 = ((0, 0, 2), (0, 2, 0), (2, 0, 0))
    assert got[r2] == qq(6)


def test_detq_normalization():
    # 1 = sum_L b_L h(x_L det^-m)
    for m in (1, 2):
        total = ZERO
        for theta, c in detq_power_expand(3, m).items():
            total = total + c * haar_state(E.word(3, pseudo_word(theta),
                                                  det=m))
        assert total == ONE


@pytest.mark.parametrize("n", [2, 3])
def test_order1_system(n):
    from itertools import permutations
    sol = solve_system(build_system(n, 1))
    for sigma in permutations(range(1, n + 1)):
        assert sol[perm_matrix(sigma)] == haar_order1(sigma, n)
    # the permutation relations: h(x_sigma0) = (-q)^{l(sigma0)-l(sigma)} h(x_sigma)
    sigma0 = tuple(range(n, 0, -1))
    l0 = inversions(sigma0)
    for sigma in permutations(range(1, n + 1)):
        d = l0 - inversions(sigma)
        assert sol[perm_matrix(sigma0)] == \
            (NEG_ONE ** (d % 2)) * qq(d) * sol[perm_matrix(sigma)]


def test_order2_system_matches_closed_form():
    sol = solve_system(build_system(3, 2))
    assert len(sol) == 21
    for theta, v in sol.items():
        idx = (2, theta[0][0], theta[0][2], theta[2][0], theta[2][2])
        assert v == haar_pseudo(*idx)
    assert sol[((1, 0, 1), (1, 0, 1), (0, 2, 0))] == haar_pseudo(2, 1, 1, 1, 1)
    r2 = ((0, 0, 2), (0, 2, 0), (2, 0, 0))
    assert sol[r2] == haar_ref(2)


def test_rank2_systems_and_registry():
    haar._fischer_values.cache_clear()
    for m in (2, 3, 4):
        # haar_state solves on demand, before any explicit solve
        got = {theta: haar_state(E.word(2, pseudo_word(theta), det=m))
               for theta in enumerate_Bnm(2, m)}
        sol = solve_system(build_system(2, m))
        assert len(sol) == m + 1
        assert got == sol


@pytest.mark.parametrize("m", [1, 2, 3])
def test_source_matrix_rank3(m):
    assert source_matrix_solve(3, m) == haar_ref(m)


def test_source_matrix_rank2_matches_system():
    for m in (1, 2, 3):
        sol = solve_system(build_system(2, m))
        assert source_matrix_solve(2, m) == sol[((0, m), (m, 0))]


def test_source_matrix_rank4():
    v1 = source_matrix_solve(4, 1)
    assert v1 == haar_order1((4, 3, 2, 1), 4)
    # order 2 value is new; sanity: it must be h-positive at a sample q
    v2 = source_matrix_solve(4, 2)
    assert not v2.is_zero()
    # and equals haar_state's closed product on the anti-diagonal
    r2 = tuple(tuple(2 * (j == 3 - i) for j in range(4)) for i in range(4))
    x = E.word(4, pseudo_word(r2), det=2)
    assert haar_state(x) == v2


def test_rows_and_values_are_qrational():
    system = build_system(2, 2)
    for row, rhs, _tag in system.rows:
        assert isinstance(rhs, QRational)
        assert all(isinstance(c, QRational) for c in row.values())
    assert all(isinstance(v, QRational)
               for v in solve_system(system).values())
    assert isinstance(source_matrix_solve(3, 2), QRational)
    assert isinstance(haar_state(E.word(2, [(1, 2), (2, 1)], det=1)),
                      QRational)


@pytest.mark.parametrize("n, m", [(2, 3), (2, 4), (3, 2), (4, 1)])
def test_values_satisfy_translation_invariance(n, m):
    # the paper's invariance relations, with coefficients from the naive
    # coproduct: (id (x) h) Delta(x_M det^-m) = h(x_M det^-m) 1 reads
    # sum_K c^M_{L,K} v_K = b_L v_M for every M and L, where 1 is
    # sum_L b_L x_L det^-m and only order-m right legs K have h nonzero
    v = solve_system(build_system(n, m))
    b = detq_power_expand(n, m)
    B = enumerate_Bnm(n, m)
    for M in B:
        lhs = {}
        for ((lf, _), (rf, _)), c in comultiply(E.word(n, pseudo_word(M))):
            K = counting_matrix(n, rf)
            if stochastic_order(K) == m:
                L = counting_matrix(n, lf)
                lhs[L] = lhs.get(L, ZERO) + c * v[K]
        assert set(lhs) <= set(B)
        for L in B:
            assert lhs.get(L, ZERO) == b.get(L, ZERO) * v[M]


@pytest.mark.parametrize("n, m", [(2, m) for m in range(1, 7)]
                         + [(3, m) for m in (1, 2, 3)] + [(4, 1), (4, 2)])
def test_reduced_system_matches_full_system(n, m):
    # the e_k rows over orbit representatives against every e_k and f_k row
    # over every counting matrix: equal values, so every orbit is constant
    want = _eliminate(full_action_rows(n, m), enumerate_Bnm(n, m))
    got = solve_system(build_system(n, m))
    assert got == want and list(got) == list(want)


@pytest.mark.parametrize("n, m", [(2, m) for m in range(1, 7)]
                         + [(3, m) for m in (1, 2, 3)] + [(4, 1), (4, 2)])
def test_invariance_rows_equal_action_images(n, m):
    # build_system writes each e_k image in closed form; act normal-orders
    # it through the rewriter, so every row is checked against a second
    # route, found by its tag theta
    want = {}
    for k in range(1, n):
        col_sums = (m,) * (k - 1) + (m - 1, m + 1) + (m,) * (n - k - 1)
        for theta in _counting_matrices((m,) * n, col_sums):
            x = E(n, {(pseudo_word(theta), m): ONE}, canonical=True)
            image = act(("e", k), x).terms.items()
            assert all(det == m for (_f, det), _c in image)
            row = _orbit_row((counting_matrix(n, f), c)
                             for (f, _det), c in image)
            if row:
                want[("invariance", ("e", k), theta)] = row
    rows = build_system(n, m).rows
    got = {tag: row for row, rhs, tag in rows
           if tag[0] == "invariance" and rhs == ZERO}
    assert len(got) == len(rows) - 1
    assert got == want


@pytest.mark.parametrize("n, m", [(2, m) for m in range(1, 7)]
                         + [(3, m) for m in range(1, 5)]
                         + [(4, 1), (4, 2), (4, 3), (5, 2)])
def test_source_rows_match_per_f_loop(n, m):
    # the near-diagonal coefficients carried from order to order against
    # the full expansion of D_q^m that per_f_source_rows reads
    b = near_diagonal_chain(n, m)[-1]
    assert _source_rows(n, m, b) == per_f_source_rows(n, m)


def test_eta_scalar_closed_form_matches_per_f_sum():
    # the f-sum of the Source rows is (sum_{t<mu} v^(4t-2(mu-1)))^k, k the
    # number of rows sigma moves, past the orders the row tests reach; the
    # class sort's assert checks that no wrong-order pair is diagonal
    shapes = [(2, 8), (3, 6), (4, 4), (5, 3), (6, 2)]
    cases = 0
    for n, top in shapes:
        for mu in range(1, top + 1):
            block = LaurentPoly({4 * t - 2 * (mu - 1): 1 for t in range(mu)})
            for sigma in list(permutations(range(1, n + 1)))[1:]:
                closed = _LP_ONE
                for _ in range(sum(s != r for r, s in enumerate(sigma, 1))):
                    closed = closed * block
                assert per_f_eta_scalar(n, mu, sigma) == closed, (n, mu, sigma)
                cases += 1
    assert cases == 1925


@pytest.mark.parametrize("n", sorted(_BOUNDS))
def test_near_diagonal_coefficients_match_full_power(n):
    # the step from D_q^(mu-1) to D_q^mu reads only near-diagonal words;
    # an identity checked here, not proved, at every order of the bound
    for mu, b in enumerate(near_diagonal_chain(n, _BOUNDS[n]), 1):
        full = detq_power_expand(n, mu)
        near = [_near_diagonal(mu, s) for s in permutations(range(1, n + 1))]
        assert b == {t: full[t] for t in near if t in full}


@pytest.mark.parametrize("n", sorted(_BOUNDS))
def test_system_rows_over_order_m_orbit_representatives(n):
    # build_system constructs every counting matrix of order m; each
    # coefficient key is the least of its orbit
    m = _BOUNDS[n]
    system = build_system(n, m)
    assert system.unknowns == sorted({_orbit_min(t)
                                      for t in enumerate_Bnm(n, m)})
    for row, _rhs, _tag in system.rows:
        for u in row:
            assert stochastic_order(u) == m and _orbit_min(u) == u


def test_system_rank3_order4_matches_closed_form():
    sol = solve_system(build_system(3, 4))
    assert len(sol) == len(enumerate_Bnm(3, 4)) == 120
    for theta, v in sol.items():
        assert v == haar_pseudo(4, theta[0][0], theta[0][2], theta[2][0],
                                theta[2][2])


def test_rewriter_only_where_words_split(monkeypatch):
    # the rows are closed forms: only D_q^m, the Source matrix's eta
    # prefixes and its near-diagonal step, words that can split, are
    # normal-ordered
    assert not hasattr(linsys, "act")
    assert not hasattr(linsys, "AlgebraElement")
    for n, m in ((3, 3), (4, 2)):
        quantum_determinant_power(n, m)

    def refuse(*args):
        raise AssertionError("the rewriter ran on %r" % (args,))

    monkeypatch.setattr(linsys, "_times_words", refuse)
    monkeypatch.setattr(algebra, "_times_words", refuse)
    for n, m in ((3, 3), (4, 2)):
        assert build_system(n, m).rows
    monkeypatch.undo()
    calls = []

    def counted(*args):
        calls.append(args)
        return _times_words(*args)

    def expanded(*args):
        raise AssertionError("the Source scheme expanded a power of D_q")

    monkeypatch.setattr(linsys, "_times_words", counted)
    monkeypatch.setattr(linsys, "detq_power_expand", expanded)
    monkeypatch.setattr(linsys, "quantum_determinant_power", expanded)
    monkeypatch.setattr(algebra, "quantum_determinant_power", expanded)
    source_matrix_solve(4, 2)
    # one call per sigma but the identity, and one for the near-diagonal
    # step, at each of the orders 1 and 2
    assert len(calls) == 2 * (23 + 1)


def test_action_rows_of_one_column_pair_are_rank_deficient():
    # the rows of e_1, f_1 alone only ask for invariance under the columns
    # 1, 2, which many functionals meet: elimination reports the shortfall
    rows = full_action_rows(3, 2)
    pair = [r for r in rows if r[2][0] != "invariance" or r[2][1][1] == 1]
    assert len(pair) < len(rows)
    with pytest.raises(VerificationError, match="^rank deficient"):
        _eliminate(pair, enumerate_Bnm(3, 2))
    # over the orbits, the rotation takes the columns 2, 3 at rank 4 to
    # themselves, so the reduced rows of e_2 alone fall short as well
    system = build_system(4, 2)
    pair = [r for r in system.rows
            if r[2][0] != "invariance" or r[2][1][1] == 2]
    assert len(pair) < len(system.rows)
    with pytest.raises(VerificationError, match="^rank deficient"):
        _eliminate(pair, system.unknowns)


def test_feasibility_guard():
    with pytest.raises(ValueError):
        build_system(3, 5)
    with pytest.raises(ValueError):
        build_system(6, 1)
    with pytest.raises(ValueError):
        source_matrix_solve(6, 1)
    # override runs the computation anyway
    sol = solve_system(build_system(2, 7, override_feasibility=True))
    assert len(sol) == 8
    assert source_matrix_solve(2, 7, override_feasibility=True) == \
        sol[((0, 7), (7, 0))]


def test_detq_power_expand_beyond_system_bound():
    # the expansion of D_q^m has no guard of its own: (2, 7) lies past the
    # system bound, and the coefficients are those of the cached power
    got = detq_power_expand(2, 7)
    want = quantum_determinant_power(2, 7)
    assert len(got) == len(enumerate_Bnm(2, 7)) == 8
    assert got == {counting_matrix(2, f): c
                   for (f, _d), c in want.terms.items()}


def test_eliminate_rank_deficient():
    rows = [({"x": ONE, "y": ONE}, ONE, "sum"),
            ({"x": qq(1), "y": qq(1)}, qq(1), "scaled sum")]
    with pytest.raises(VerificationError, match="rank deficient"):
        _eliminate(rows, ["x", "y"])


def test_eliminate_inconsistent():
    rows = [({"x": ONE}, ONE, "x = 1"), ({"x": qq(1)}, ONE, "q x = 1")]
    with pytest.raises(VerificationError, match="inconsistent"):
        _eliminate(rows, ["x"])


def test_eliminate_residual_gate(monkeypatch):
    # a faulty pivot normalization yields x = 2; the residual check on the
    # original rows must reject it
    monkeypatch.setattr(linsys, "ONE", QRational.from_int(2))
    with pytest.raises(VerificationError,
                       match="^nonzero residual on row 'x = 1'$"):
        _eliminate([({"x": ONE}, ONE, "x = 1")], ["x"])


def test_eliminate_long_dependency_chain():
    # x_i = x_{i+1} for every i, listed with i descending, and sum x_i = 1:
    # each pivot depends on the next, 1,500 deep
    k = 1500
    rows = [({i: ONE, i + 1: NEG_ONE}, ZERO, i) for i in range(k - 2, -1, -1)]
    rows.append(({i: ONE for i in range(k)}, ONE, "sum"))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        sol = _eliminate(rows, list(range(k)))
    finally:
        sys.setrecursionlimit(limit)
    assert set(sol.values()) == {ONE / QRational.from_int(k)}


def test_eliminate_inconsistent_after_full_rank():
    # x = y = z = 1/3 is fixed by the last three rows; the first, longer
    # homogeneous row comes after full rank, so only the gate sees it
    rows = [({"x": ONE, "y": ONE, "z": qq(1)}, ZERO, "x + y + q z = 0"),
            ({"x": ONE, "y": ONE, "z": ONE}, ONE, "sum"),
            ({"x": ONE, "y": NEG_ONE}, ZERO, "x = y"),
            ({"y": ONE, "z": NEG_ONE}, ZERO, "y = z")]
    third = ONE / QRational.from_int(3)
    assert _eliminate(rows[1:], ["x", "y", "z"]) == \
        {"x": third, "y": third, "z": third}
    with pytest.raises(VerificationError, match="^inconsistent system: "
                       "nonzero residual on row 'x \\+ y \\+ q z = 0'$"):
        _eliminate(rows, ["x", "y", "z"])


def test_residual_gate_checks_rows_never_pivoted(monkeypatch):
    # corrupt one value after elimination: the pivot rows reject it, and so
    # do the rows that never fixed a pivot, on their own
    system = build_system(3, 2)
    gate = linsys._residual_gate
    pivot_tags = []

    def corrupted(rows, solution, used):
        pivot_tags.extend(rows[i][2] for i in used)
        bad = dict(solution)
        u = max(bad)
        bad[u] = bad[u] + ONE
        with pytest.raises(VerificationError,
                           match="^nonzero residual on row"):
            gate(rows, bad, used)
        gate([row for i, row in enumerate(rows) if i not in set(used)],
             bad, ())

    monkeypatch.setattr(linsys, "_residual_gate", corrupted)
    with pytest.raises(VerificationError, match="^inconsistent system: "
                       "nonzero residual on row \\('invariance'") as err:
        solve_system(system)
    assert len(pivot_tags) == len(system.unknowns)
    assert not any(str(err.value).endswith(repr(t)) for t in pivot_tags)


def test_eliminate_non_unit_denominators():
    inv = ONE / (ONE - qq(2))
    # a coefficient 1/(1 - q^2) on a pivot row and on a row only the gate sees
    rows = [({"x": inv, "y": ONE}, ONE, "x/(1 - q^2) + y = 1"),
            ({"x": ONE, "y": NEG_ONE}, ZERO, "x = y"),
            ({"x": inv, "y": -inv}, ZERO, "(x - y)/(1 - q^2) = 0")]
    x = (ONE - qq(2)) / (QRational.from_int(2) - qq(2))
    assert _eliminate(rows, ["x", "y"]) == {"x": x, "y": x}
    with pytest.raises(VerificationError, match="^inconsistent system"):
        _eliminate(rows + [({"x": inv, "y": inv}, ZERO, "bad")], ["x", "y"])
    # a right-hand side 1/(1 - q^2), as the Source scheme's normalization
    # row passes the previous order's value
    rhs = ONE / (ONE - qq(2))
    rows = [({"x": ONE, "y": ONE}, rhs, "sum"),
            ({"x": ONE, "y": -qq(1)}, ZERO, "x = q y"),
            ({"x": qq(-1), "y": NEG_ONE}, ZERO, "x/q = y")]
    y = rhs / (ONE + qq(1))
    assert _eliminate(rows, ["x", "y"]) == {"x": qq(1) * y, "y": y}


def test_eliminate_row_order_independent():
    system = build_system(3, 2)
    values = solve_system(system)
    want = {u: values[u] for u in system.unknowns}
    for seed in (0, 1):
        rows = list(system.rows)
        random.Random(seed).shuffle(rows)
        got = _eliminate(rows, system.unknowns)
        assert got == want and list(got) == list(want)
