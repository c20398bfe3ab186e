import ast
import inspect
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from qhaar.scalars import QRational, ZERO, ONE, qq, q_binomial, q_factorial
from qhaar.algebra import (AlgebraElement, comultiply, apply_morphism, equal_mod_det,
                           quantum_determinant, pseudo_word, counting_matrix)
from qhaar.actions import act
from qhaar.corep import gram_entry_direct, weight_space
from qhaar.haar import (haar_ref, haar_ref_recursive, haar_pseudo,
                        haar_order1, haar_state, haar_ratio_general_n,
                        check_pseudo_index)
from qhaar.linsys import enumerate_Bnm, FeasibilityError

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


def test_haar_state_rank1():
    # at rank 1, D_q = x11, so every x11^m det^-m has value 1
    for m in range(5):
        assert haar_state(E.word(1, [(1, 1)] * m, det=m)) == ONE


def test_haar_state_unavailable_rank():
    # rank 5, order 2 lies beyond both oracles' feasibility guards
    w = E.word(5, [(i, i) for i in (1, 2, 3, 4, 5)] * 2, det=2)
    with pytest.raises(FeasibilityError):
        haar_state(w)


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
    assert sizes["qhaar.algebra._expand"] == 0
    assert sizes["qhaar.algebra.quantum_determinant_power"] == 0
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
    ]
    forward = [f() for f in evaluations]
    for f in package_caches().values():
        f.cache_clear()
    backward = [f() for f in reversed(evaluations)]
    assert forward == backward[::-1]
    assert all(not v.is_zero() for v in forward)


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
    # h(g . x) = 0 = h(x . g) for e_k, f_k, on all order <= 2 pseudo-basis
    for m in (1, 2):
        for theta in enumerate_Bnm(3, m):
            x = E.word(3, pseudo_word(theta), det=m)
            for g in (("e", 1), ("e", 2), ("f", 1), ("f", 2)):
                assert haar_state(act(g, x, "left")) == ZERO
                assert haar_state(act(g, x, "right")) == ZERO


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
    Orders >= 2 at n >= 4 are unverified: most of those words need the full
    rank-4 invariance system."""
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


def test_ratio_general_n():
    assert haar_ratio_general_n(1, (2, 0, 2, 2, 0), 4) == ONE
    assert haar_ratio_general_n(1, (1, 1, 0, 0, 1), 4) == \
        haar_pseudo(1, 1, 0, 0, 1) / haar_ref(1)
    assert haar_ratio_general_n(2, (2, 0, 2, 1, 0), 5) == \
        haar_pseudo(2, 0, 2, 1, 0) / haar_ref(2)
    with pytest.raises(ValueError):
        haar_ratio_general_n(2, (1, 0, 1, 1, 0), 3)
