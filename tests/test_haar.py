import ast
import inspect
import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import cache
from itertools import permutations
from math import factorial, prod
from pathlib import Path

import pytest

from qhaar.scalars import QRational, ZERO, ONE, qq, q_binomial, q_factorial
from qhaar.algebra import (AlgebraElement, comultiply, apply_morphism, equal_mod_det,
                           quantum_determinant, pseudo_word, counting_matrix,
                           star, is_order_m)
from qhaar.actions import act
from qhaar.corep import (gram_entry_closed, gram_entry_direct, gram_matrix,
                         gram_schmidt, weight_space, vector_to_element)
from qhaar.haar import (haar_ref, haar_ref_recursive, haar_pseudo,
                        haar_order1, haar_state, haar_ratio_general_n,
                        check_pseudo_index)
from qhaar.linsys import (enumerate_Bnm, FeasibilityError, _counting_matrices,
                          build_system, solve_system, source_matrix_solve,
                          detq_power_expand, _BOUNDS)
from qhaar import haar, linsys

E = AlgebraElement
NEG_ONE = QRational.from_int(-1)


def neg_q(e):
    return (NEG_ONE ** (e % 2)) * qq(e)


def theta_of(m, s, r, l, t):
    n = s + r + l + t - m
    return ((s, m - s - r, r), (m - s - l, n, m - r - t), (l, m - l - t, t))


def pseudo_element(m, s, r, l, t):
    return E.word(3, pseudo_word(theta_of(m, s, r, l, t)), det=m)


def valid_indices(m):
    out = []
    for s in range(m + 1):
        for r in range(m + 1):
            for l in range(m + 1):
                for t in range(m + 1):
                    try:
                        check_pseudo_index(m, s, r, l, t)
                    except ValueError:
                        continue
                    out.append((m, s, r, l, t))
    return out


def test_haar_ref_values():
    assert haar_ref(0) == ONE
    assert haar_ref(1) == neg_q(3) * (ONE - qq(2)) ** 2 / \
        ((qq(4) - ONE) * (qq(6) - ONE))
    assert haar_ref(2) == qq(6) * (qq(2) - ONE) ** 2 * (qq(4) - ONE) / \
        ((qq(6) - ONE) ** 2 * (qq(8) - ONE))


def test_haar_ref_recursion():
    for m in range(9):
        assert haar_ref_recursive(m) == haar_ref(m)


def test_pseudo_reference_case():
    for m in range(7):
        assert haar_pseudo(m, 0, m, m, 0) == haar_ref(m)


def test_pseudo_index_symmetry():
    for m in range(4):
        for (m_, s, r, l, t) in valid_indices(m):
            v = haar_pseudo(m, s, r, l, t)
            assert v == haar_pseudo(m, s, l, r, t)
            assert v == haar_pseudo(m, t, r, l, s)


def test_pseudo_index_validation():
    with pytest.raises(ValueError):
        haar_pseudo(1, 1, 1, 1, 1)
    with pytest.raises(ValueError):
        haar_pseudo(2, -1, 1, 1, 1)


def test_order1_values():
    assert haar_order1((1, 2, 3), 3) == ONE / ((ONE + qq(2)) *
                                               (ONE + qq(2) + qq(4)))
    assert haar_order1((3, 2, 1), 3) == neg_q(3) / q_factorial(3)
    assert haar_order1((1,), 1) == ONE
    assert haar_pseudo(1, 1, 0, 0, 1) == haar_order1((1, 2, 3), 3)


def test_order1_agreement_with_closed_form():
    from itertools import permutations
    for sigma in permutations((1, 2, 3)):
        w = E.word(3, tuple((i, sigma[i - 1]) for i in (1, 2, 3)), det=1)
        assert haar_state(w) == haar_order1(sigma, 3)


def test_haar_state_basics():
    assert haar_state(E.from_letters("ab", det=1)) == ZERO
    assert haar_state(quantum_determinant(3) * E.det_inv(3)) == ONE
    got = haar_state(E.word(3, [(1, 2), (2, 3), (3, 1),
                                (1, 3), (2, 2), (3, 1)], det=2))
    assert got == -qq(-1) * (ONE - qq(2)) / (ONE - qq(4)) * haar_ref(2)


def _termwise_haar(x):
    """h(x) as the plain sum of c * h(word), one QRational product per term."""
    total = ZERO
    for w, c in x.terms.items():
        total = total + c * haar_state(E(x.n, {w: ONE}, canonical=True))
    return total


def test_haar_state_matches_termwise_sum():
    vs = weight_space((2, 1, 0), (1, 1, 1))
    p = star(vector_to_element(vs[0])) * vector_to_element(vs[-1])
    assert all(c.den == ONE.den for c in p.terms.values())
    # coefficients with the denominator 1 - q^2, where it does not cancel
    scaled = p.scale(ONE / (ONE - qq(2)))
    assert any(c.den != ONE.den for c in scaled.terms.values())
    # h is gamma-invariant, so the terms of p - gamma(p) cancel under h
    cancel = p - apply_morphism(p, "gamma")
    assert not cancel.is_zero()
    mixed = scaled + cancel.scale(qq(3))
    # a different denominator on every other term, against Haar values that
    # have their own: the products' denominators are not 1 on either side
    varied = E(3, {w: c / (ONE + qq(k)) if k % 2 else c
                   for k, (w, c) in enumerate(p.terms.items())},
               canonical=True)
    assert len({c.den for c in varied.terms.values()}) > 2
    # six terms over [3]!, whose sum [3]!/[3]! must reduce to 1
    unit = quantum_determinant(3) * E.det_inv(3)
    for x in (p, scaled, cancel, mixed, varied, unit):
        assert haar_state(x) == _termwise_haar(x)
    assert haar_state(p) != ZERO
    assert haar_state(cancel) == ZERO
    assert haar_state(scaled) == haar_state(p) / (ONE - qq(2))
    assert haar_state(mixed) == haar_state(scaled)


def test_haar_state_rank1():
    # at rank 1, D_q = x11, so every x11^m det^-m has value 1
    for m in range(5):
        assert haar_state(E.word(1, [(1, 1)] * m, det=m)) == ONE
        assert haar._fischer_values(1, m) == {((m,),): ONE}


def test_haar_state_order0_any_rank():
    # order 0 is the unit at every rank, inside the guard or past it, and
    # the q-Fischer formula covers it too
    for n in range(1, 8):
        assert haar_state(E.word(n, [], det=0)) == ONE
        assert haar._fischer_values(n, 0) == {((0,) * n,) * n: ONE}


def test_haar_state_unavailable_rank():
    # rank 5, order 3 lies beyond the feasibility guard
    w = E.word(5, [(i, i) for i in (1, 2, 3, 4, 5)] * 3, det=3)
    with pytest.raises(FeasibilityError) as info:
        haar_state(w)
    # haar_state takes no override, so the message offers none
    assert str(info.value) == "rank 5 order 3 exceeds the feasibility guard"


def package_caches():
    """Every functools cache defined in a qhaar module."""
    found = {}
    for name, mod in list(sys.modules.items()):
        if name == "qhaar" or name.startswith("qhaar."):
            for obj in vars(mod).values():
                if hasattr(obj, "cache_clear"):
                    found[obj.__module__ + "." + obj.__qualname__] = obj
    return found


def run_python(*args):
    """Runs a fresh interpreter that imports qhaar from src; its stdout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_fills_no_cache():
    sizes = ast.literal_eval(run_python("-c", "\n".join([
        "import sys", "import qhaar", inspect.getsource(package_caches),
        "print({k: f.cache_info().currsize "
        "for k, f in package_caches().items()})"])))
    # the package's whole memo inventory: a module-level cache added or
    # removed shows up here
    assert set(sizes) == {
        "qhaar.rewriter._insert", "qhaar.algebra.quantum_determinant_power",
        "qhaar.algebra._det_power_step", "qhaar.corep._closed_pair",
        "qhaar.haar.haar_pseudo", "qhaar.haar.haar_ref",
        "qhaar.haar._fischer_values", "qhaar.scalars.q_binomial",
        "qhaar.scalars.poch", "qhaar.scalars._reduce_dense",
        "qhaar.corep._gram_double_sum", "qhaar.corep._bareiss"}
    assert set(sizes.values()) == {0}


def test_cli_eval_rank2_in_fresh_process():
    # the value is solved on demand: no earlier call has to prepare it
    out = run_python("-m", "qhaar.cli", "eval", "x[1,1]^2 x[2,2]^2 det^-2",
                     "--n", "2")
    assert out.strip() == "(1)/(q^4 + q^2 + 1)"


def test_values_independent_of_call_order():
    def antidiagonal(n, m):
        return [(i, n + 1 - i) for i in range(1, n + 1)] * m

    vectors = weight_space((2, 1, 0), (1, 1, 1))
    evaluations = [
        lambda: haar_state(E.word(2, [(1, 1), (1, 1), (2, 2), (2, 2)], 2)),
        lambda: haar_state(E.word(2, [(1, 1), (1, 2), (2, 1), (2, 2)], 2)),
        lambda: haar_state(E.word(2, antidiagonal(2, 2), 2)),
        lambda: haar_state(E.word(2, [(1, 1)] * 3 + [(2, 2)] * 3, 3)),
        lambda: haar_state(E.word(2, [(1, 1), (1, 1), (1, 2), (2, 1),
                                      (2, 2), (2, 2)], 3)),
        lambda: haar_state(E.word(2, antidiagonal(2, 3), 3)),
        lambda: haar_state(E.word(4, antidiagonal(4, 2), 2)),
        lambda: gram_entry_direct(vectors[0], vectors[-1]),
        lambda: gram_entry_closed(vectors[-1], vectors[0], "R",
                                  "left_comodule"),
        lambda: gram_schmidt(gram_matrix((3, 1, 0), (2, 1, 1), "R",
                                         "left_comodule")),
    ]
    forward = [f() for f in evaluations]
    for f in package_caches().values():
        f.cache_clear()
    backward = [f() for f in reversed(evaluations)]
    assert forward == backward[::-1]
    assert all(forward)


def test_translation_invariance():
    rng = random.Random(42)
    elems = [E.word(3, pseudo_word(theta), det=1)
             for theta in enumerate_Bnm(3, 1)]
    order2 = enumerate_Bnm(3, 2)
    elems += [E.word(3, pseudo_word(theta), det=2)
              for theta in rng.sample(order2, 8)]
    for x in elems:
        lhs = E.zero(3)
        for (wl, wr), c in comultiply(x):
            lhs = lhs + E(3, {wl: c * haar_state(E(3, {wr: ONE},
                                                   canonical=True))},
                          canonical=True)
        assert equal_mod_det(lhs, E.unit(3).scale(haar_state(x)))


def test_flip_morphisms_preserve_values():
    for m in (1, 2):
        for theta in enumerate_Bnm(3, m):
            x = E.word(3, pseudo_word(theta), det=m)
            v = haar_state(x)
            assert haar_state(apply_morphism(x, "gamma")) == v
            assert haar_state(apply_morphism(x, "omega")) == v


def test_modular_property():
    rng = random.Random(7)
    pool = [(theta, m) for m in (1, 2) for theta in enumerate_Bnm(3, m)]
    for _ in range(50):
        theta, m = rng.choice(pool)
        w = list(pseudo_word(theta))
        rng.shuffle(w)
        p = rng.randrange(len(w) + 1)
        d = rng.randint(0, m)
        x = E.word(3, w[:p], det=d)
        y = E.word(3, w[p:], det=m - d)
        assert haar_state(x * y) == haar_state(apply_morphism(y, "rho") * x)


def test_action_invariance():
    # h(g . x) = 0 = h(x . g) for e_k, f_k at n = 3, m <= 2, on every input
    # whose image is of order m.  On the left, g moves one column index, so
    # theta has row sums m and column sums m except at columns k, k + 1:
    # (m - 1, m + 1) for e_k, (m + 1, m - 1) for f_k.  On the right, g moves
    # a row index the other way, so the row sums take the offsets
    # (m + 1, m - 1) for e_k and (m - 1, m + 1) for f_k.
    def sums(m, k, pair):
        return (m,) * (k - 1) + pair + (m,) * (2 - k)

    for m in (1, 2):
        flat = (m,) * 3
        for k in (1, 2):
            for kind, lo, hi in (("e", m - 1, m + 1), ("f", m + 1, m - 1)):
                for side, rows, cols in (
                        ("left", flat, sums(m, k, (lo, hi))),
                        ("right", sums(m, k, (hi, lo)), flat)):
                    images = 0
                    for theta in _counting_matrices(rows, cols):
                        x = E.word(3, pseudo_word(theta), det=m)
                        y = act((kind, k), x, side)
                        if y.is_zero():
                            continue
                        images += 1
                        assert is_order_m(y) == m
                        assert haar_state(y) == ZERO
                    assert images, (m, k, kind, side)


def _h(text_powers, m):
    """h of a product of letter powers at det^-m."""
    gens = []
    for ch, p in text_powers:
        gens.extend([ch] * p)
    return haar_state(E.from_letters("".join(gens), det=m))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_single_defect_ratios(m):
    ref = haar_ref(m)
    ratio = -qq(-1) * (ONE - qq(2)) / (ONE - qq(2 * m))
    assert _h([("b", 1), ("f", 1), ("g", 1), ("c", m - 1), ("e", m - 1),
               ("g", m - 1)], m) == ratio * ref
    assert _h([("c", 1), ("d", 1), ("h", 1), ("c", m - 1), ("e", m - 1),
               ("g", m - 1)], m) == ratio * ref
    diag = qq(-2) * (ONE - qq(2)) ** 2 / (ONE - qq(2 * m)) ** 2
    assert _h([("b", 1), ("d", 1), ("k", 1), ("c", m - 1), ("e", m - 1),
               ("g", m - 1)], m) == diag * ref
    assert _h([("a", 1), ("f", 1), ("h", 1), ("c", m - 1), ("e", m - 1),
               ("g", m - 1)], m) == diag * ref
    aek = -((ONE - qq(2)) ** 2 / (ONE - qq(2 * m)) + qq(2)) * \
        qq(-3) * (ONE - qq(2)) / (ONE - qq(2 * m))
    assert _h([("a", 1), ("e", 1), ("k", 1), ("c", m - 1), ("e", m - 1),
               ("g", m - 1)], m) == aek * ref


@pytest.mark.parametrize("m", [1, 2, 3])
def test_boundary_n_zero_families(m):
    # h(m; 0, m, l, 0)
    for l in range(m + 1):
        got = haar_pseudo(m, 0, m, l, 0)
        assert got == neg_q((m - l) * (2 * l - 1)) / q_binomial(m, l) * \
            haar_ref(m)
    # h(m; 0, r, l, 0) with r + l >= m
    for r in range(m + 1):
        for l in range(m + 1):
            if r + l < m:
                continue
            want = (NEG_ONE ** (r + l)) * \
                qq((3 * m + 1) * (l + r) - 2 * l * l - 2 * r * r - r * l
                   - m * m - 2 * m) / \
                (q_binomial(m, r) * q_binomial(m, l)) * haar_ref(m)
            assert haar_pseudo(m, 0, r, l, 0) == want


@pytest.mark.parametrize("m", [1, 2, 3])
def test_boundary_t_zero(m):
    for (m_, s, r, l, t) in valid_indices(m):
        if t != 0:
            continue
        n = s + r + l - m
        want = (NEG_ONE ** (r + l)) * \
            qq((2 * m + 1) * (l + r) - 2 * l * l - 2 * r * r - r * l
               - 2 * m + (m - s) * n) / \
            (q_binomial(m, r) * q_binomial(m, l)) * haar_ref(m)
        assert haar_pseudo(m, s, r, l, 0) == want


@pytest.mark.parametrize("m", [1, 2, 3])
def test_boundary_e_free(m):
    for (m_, s, r, l, t) in valid_indices(m):
        if s + r + l + t != m:
            continue
        want = (NEG_ONE ** (r + l)) * \
            qq(4 * s * t + (2 * m + 1) * (l + r) - 2 * m - 2 * l * l
               - 2 * r * r - r * l) / \
            (q_binomial(m, r + t) * q_binomial(m, l + t)) * haar_ref(m)
        assert haar_pseudo(m, s, r, l, t) == want


@pytest.mark.parametrize("m", [1, 2, 3])
def test_boundary_r_zero(m):
    for (m_, s, r, l, t) in valid_indices(m):
        if r != 0:
            continue
        n = s + l + t - m
        want = (NEG_ONE ** (m - s - t)) * \
            qq(4 * s * t - (2 * s + 2 * t + 1 - l) * n + (2 * m + 1) * l
               - 2 * m - 2 * l * l) / \
            (q_binomial(m, t) * q_binomial(m, s)) * haar_ref(m)
        assert haar_pseudo(m, s, 0, l, t) == want


@pytest.mark.parametrize("m", [1, 2, 3])
def test_defect_recursion(m):
    for (m_, s, r, l, t) in valid_indices(m):
        n = s + r + l + t - m
        if n < 1:
            continue
        den = ONE - qq(2 * (m - r - t + 1))
        acc = ZERO
        if r >= 1:
            acc = acc - qq(3 * m - s - l - 4 * r - 3 * t + 3) * \
                (ONE - qq(2 * r)) / den * haar_pseudo(m, s, r - 1, l, t)
        if t >= 1:
            acc = acc - qq(2 * m - l - 4 * t - r + 1) * \
                (ONE - qq(2 * t)) / den * haar_pseudo(m, s, r, l, t - 1)
        assert haar_pseudo(m, s, r, l, t) == acc


@pytest.mark.parametrize("n,i", [(4, 1), (4, 2), (5, 1), (5, 2), (5, 3)])
def test_ratio_general_n_embedded_order1(n, i):
    """The ratio for each order-1 3x3 pattern embedded at rows and columns
    i..i+2 of a rank-n word, with x_jj on the other diagonal entries, against
    haar_state, which takes order-1 values at rank n from haar_order1.
    check_embedded_ratios checks higher orders."""
    def embedded(theta):
        sigma = list(range(1, n + 1))
        for a in range(3):
            sigma[i - 1 + a] = i + theta[a].index(1)
        return haar_state(E.word(n, [(r, sigma[r - 1])
                                     for r in range(1, n + 1)], 1))

    anti = embedded(((0, 0, 1), (0, 1, 0), (1, 0, 0)))
    for theta in enumerate_Bnm(3, 1):
        idx = (1, theta[0][0], theta[0][2], theta[2][0], theta[2][2])
        assert embedded(theta) / anti == haar_ratio_general_n(i, idx, n)


def check_embedded_ratios(n, m, i):
    """The ratio for each order-m 3x3 pattern embedded at rows and columns
    i..i+2 of a rank-n word, with x_jj^m on the other diagonal entries,
    divided by the embedded m x antidiagonal, against haar_state, which
    takes these values from the q-Fischer formula."""
    def embedded(theta):
        big = [[m * (r == c) for c in range(n)] for r in range(n)]
        for a in range(3):
            big[i - 1 + a][i - 1:i + 2] = theta[a]
        return haar_state(E.word(n, pseudo_word(big), m))

    anti = embedded(((0, 0, m), (0, m, 0), (m, 0, 0)))
    for theta in enumerate_Bnm(3, m):
        idx = (m, theta[0][0], theta[0][2], theta[2][0], theta[2][2])
        assert embedded(theta) / anti == haar_ratio_general_n(i, idx, n)


@pytest.mark.parametrize("i", [1, 2])
def test_ratio_general_n_embedded_order2(i):
    check_embedded_ratios(4, 2, i)


def test_ratio_general_n_embedded_order3():
    # 55 patterns at each of the two block positions
    for i in (1, 2):
        check_embedded_ratios(4, 3, i)


def test_ratio_general_n_embedded_rank5_order2():
    for i in (1, 2, 3):
        check_embedded_ratios(5, 2, i)


# every shape the feasibility guard admits from order 2 on; a raised bound
# extends the checks below
GUARD_SHAPES = [(n, m) for n, top in _BOUNDS.items()
                for m in range(2, top + 1)]


@cache
def solved_system(n, m):
    """solve_system(build_system(n, m)), solved once per session for the
    two tests below."""
    return solve_system(build_system(n, m))


@pytest.mark.parametrize("n, m", GUARD_SHAPES)
def test_system_antidiagonal_matches_source(n, m):
    # haar_state takes m x the antidiagonal from the closed product and
    # every other word of the order from the q-Fischer formula; the
    # invariance system, the Source scheme and, at rank 3, the closed form
    # agree with both
    sol = solved_system(n, m)
    fischer = haar._fischer_values(n, m)
    for theta, value in sol.items():
        assert fischer.get(theta, ZERO) == value
        if n == 3:
            assert haar_pseudo(*haar._pseudo_index_from_theta(m, theta)) \
                == value
        assert haar_state(E.word(n, pseudo_word(theta), m)) == value
    anti = tuple(tuple(m * (i + j == n - 1) for j in range(n))
                 for i in range(n))
    assert haar._antidiagonal(n, m) == source_matrix_solve(n, m) == sol[anti]


def classical_detpower(n, m):
    """The coefficients of det(U)^m over the monomials u^theta, keyed by
    theta: the commutative convolution b^(mu) = sum_sigma sgn(sigma)
    b^(mu-1) shifted by P_sigma, from b^(0) = 1 at the zero matrix."""
    perms = [(sigma, (-1) ** sum(a > b for i, a in enumerate(sigma)
                                 for b in sigma[i + 1:]))
             for sigma in permutations(range(n))]
    b = {((0,) * n,) * n: 1}
    for _ in range(m):
        nxt = {}
        for theta, c in b.items():
            for sigma, sgn in perms:
                key = tuple(tuple(x + (j == sigma[i]) for j, x in enumerate(r))
                            for i, r in enumerate(theta))
                nxt[key] = nxt.get(key, 0) + sgn * c
        b = {theta: c for theta, c in nxt.items() if c}
    return b


@pytest.mark.parametrize("n, m", GUARD_SHAPES)
def test_haar_values_at_q1_match_classical_integral(n, m):
    # at q = 1 the Haar state is the Haar integral over U(n), and monomials
    # are orthogonal under the Fischer product with norm theta!, so
    # h(u^theta det^-m) = b_theta(1) theta! / m!^n prod_{j<n} (j/(m+j))^(n-j)
    # (Howe duality); built without the rewriter, this checks haar_state
    # and the system at the one point q = 1 only: a fault that vanishes
    # there passes
    b = classical_detpower(n, m)
    scale = prod(Fraction(j, m + j) ** (n - j) for j in range(1, n)) / \
        factorial(m) ** n
    for theta, value in solved_system(n, m).items():
        want = b.get(theta, 0) * scale * \
            prod(factorial(t) for row in theta for t in row)
        assert value.evaluate_numeric(1) == want
        assert haar_state(E.word(n, pseudo_word(theta), m)) \
            .evaluate_numeric(1) == want


@pytest.mark.parametrize("n, m", [(n, m) for n, top in _BOUNDS.items()
                                  for m in range(1, top + 1)])
def test_fischer_normalizer_closed_form(n, m):
    # the normalization row sum_theta b_theta h(x_theta det^-m) = 1 under
    # the q-Fischer form: sum_theta b_theta^2 q^(-sum theta^2) prod
    # [theta_ij]! = q^(-n m^2) [m]!^n / P(n, m), with P(n, m) the closed
    # product of haar._antidiagonal
    facts = [q_factorial(k) for k in range(m + 1)]
    total = ZERO
    for theta, b in detq_power_expand(n, m).items():
        term = b * b * qq(-sum(t * t for row in theta for t in row))
        for row in theta:
            for t in row:
                term = term * facts[t]
        total = total + term
    want = qq(-n * m * m) * facts[m] ** n
    for j in range(1, n):
        want = want * ((ONE - qq(2 * m + 2 * j)) / (ONE - qq(2 * j))) \
            ** (n - j)
    assert total == want


def test_fischer_matches_pseudo_past_the_rank3_bound(monkeypatch):
    # haar_state takes rank 3 from haar_pseudo, never from the formula, so
    # the bound is raised here only, to compare the two at (3, 5), (3, 6)
    monkeypatch.setitem(linsys._BOUNDS, 3, 6)
    checked = 0
    try:
        for m in (5, 6):
            fischer = haar._fischer_values(3, m)
            for theta in enumerate_Bnm(3, m):
                assert fischer.get(theta, ZERO) == \
                    haar_pseudo(*haar._pseudo_index_from_theta(m, theta))
                checked += 1
    finally:
        haar._fischer_values.cache_clear()
    assert checked == 637


def test_ratio_general_n():
    assert haar_ratio_general_n(1, (2, 0, 2, 2, 0), 4) == ONE
    assert haar_ratio_general_n(1, (1, 1, 0, 0, 1), 4) == \
        haar_pseudo(1, 1, 0, 0, 1) / haar_ref(1)
    assert haar_ratio_general_n(2, (2, 0, 2, 1, 0), 5) == \
        haar_pseudo(2, 0, 2, 1, 0) / haar_ref(2)
    with pytest.raises(ValueError):
        haar_ratio_general_n(2, (1, 0, 1, 1, 0), 3)
