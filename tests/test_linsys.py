import sys

import pytest

from qhaar.scalars import QRational, ZERO, ONE, qq
from qhaar.algebra import (AlgebraElement, pseudo_word, counting_matrix,
                           stochastic_order, quantum_determinant, inversions)
from qhaar.haar import haar_ref, haar_order1, haar_pseudo, haar_state
from qhaar.linsys import (enumerate_Bnm, detq_power_expand, build_system,
                          solve_system, source_matrix_solve, _eliminate)
from qhaar import haar, linsys

E = AlgebraElement
NEG_ONE = QRational.from_int(-1)


def perm_matrix(sigma):
    n = len(sigma)
    return tuple(tuple(int(sigma[i] == j + 1) for j in range(n))
                 for i in range(n))


def test_enumeration_counts():
    assert len(enumerate_Bnm(1, 5)) == 1
    for m in range(6):
        assert len(enumerate_Bnm(3, m)) == \
            (m + 1) * (m + 2) * (m * m + 3 * m + 4) // 8
    perms = enumerate_Bnm(3, 1)
    assert len(perms) == 6
    assert all(stochastic_order(theta) == 1 for theta in perms)
    for m in (1, 2, 3):
        B = enumerate_Bnm(3, m)
        assert B == sorted(B)
        assert len(set(B)) == len(B)
        assert all(stochastic_order(theta) == m for theta in B)


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
    haar._system_values.cache_clear()
    haar._source_value.cache_clear()
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
    # and feeds haar_state via the Source route
    r2 = tuple(tuple(2 * (j == 3 - i) for j in range(4)) for i in range(4))
    x = E.word(4, pseudo_word(r2), det=2)
    assert haar_state(x) == v2


def test_feasibility_guard():
    with pytest.raises(ValueError):
        build_system(3, 4)
    with pytest.raises(ValueError):
        build_system(5, 1)
    with pytest.raises(ValueError):
        source_matrix_solve(5, 1)
    # override runs the computation anyway
    sol = solve_system(build_system(2, 7, override_feasibility=True))
    assert len(sol) == 8
    assert source_matrix_solve(2, 7, override_feasibility=True) == \
        sol[((0, 7), (7, 0))]


def test_eliminate_rank_deficient():
    rows = [({"x": ONE, "y": ONE}, ONE, "sum"),
            ({"x": qq(1), "y": qq(1)}, qq(1), "scaled sum")]
    with pytest.raises(ValueError, match="rank deficient"):
        _eliminate(rows, ["x", "y"])


def test_eliminate_inconsistent():
    rows = [({"x": ONE}, ONE, "x = 1"), ({"x": qq(1)}, ONE, "q x = 1")]
    with pytest.raises(ValueError, match="inconsistent"):
        _eliminate(rows, ["x"])


def test_eliminate_residual_gate(monkeypatch):
    # a faulty pivot normalization yields x = 2; the residual check on the
    # original rows must reject it
    monkeypatch.setattr(linsys, "ONE", QRational.from_int(2))
    with pytest.raises(ValueError, match="nonzero residual on row 'x = 1'"):
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
