import random
from fractions import Fraction
from itertools import combinations

import pytest

from qhaar.scalars import QRational, ZERO, ONE, qq
from qhaar.algebra import (AlgebraElement, comultiply, quantum_minor,
                           quantum_determinant, equal_mod_det)
from qhaar.actions import act, minor_action

E = AlgebraElement


def _pair(g, word, det):
    """Dual pairing of a generator with a single canonical word, computed
    straight from the defining rules (duality with the coproduct)."""
    kind = g[0]
    if kind == "q":
        lam = g[1]
        val = qq(-det * sum(lam))
        for (i, j) in word:
            if i != j:
                return ZERO
            val = val * qq(lam[i - 1])
        return val
    k = g[1]
    want = (k, k + 1) if kind == "e" else (k + 1, k)
    total = ZERO
    for pos, gen in enumerate(word):
        if gen != want:
            continue
        ok = True
        tw = Fraction(0)
        for r, (i, j) in enumerate(word):
            if r == pos:
                continue
            if i != j:
                ok = False
                break
            w = Fraction(1 if i == k else -1 if i == k + 1 else 0, 2)
            tw += w if r < pos else -w
        if ok:
            total = total + qq(tw)
    return total


def _act_oracle(g, x, side):
    n = x.n
    out = E.zero(n)
    for (wl, wr), c in comultiply(x):
        if side == "left":
            out = out + E(n, {wl: c * _pair(g, *wr)}, canonical=True)
        else:
            out = out + E(n, {wr: c * _pair(g, *wl)}, canonical=True)
    return out


def test_generator_table():
    n = 3
    for k in (1, 2):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                g = E.gen(n, i, j)
                assert act(("e", k), g) == \
                    (E.gen(n, i, j - 1) if j == k + 1 else E.zero(n))
                assert act(("f", k), g) == \
                    (E.gen(n, i, j + 1) if j == k else E.zero(n))
                assert act(("e", k), g, "right") == \
                    (E.gen(n, i + 1, j) if i == k else E.zero(n))
                assert act(("f", k), g, "right") == \
                    (E.gen(n, i - 1, j) if i == k + 1 else E.zero(n))
    lam = (2, 0, -1)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            g = E.gen(n, i, j)
            assert act(("q", lam), g) == g.scale(qq(lam[j - 1]))
            assert act(("q", lam), g, "right") == g.scale(qq(lam[i - 1]))


def test_right_action_with_det_power():
    x = E.from_letters("bcg", det=1)
    got = act(("e", 1), x, side="right")
    want = E.from_letters("ceg", det=1, coeff=qq(Fraction(-1, 2))) + \
        E.from_letters("bfg", det=1, coeff=qq(Fraction(1, 2)))
    assert got == want


def test_q_lambda_on_det_power():
    lam = (1, 2, 3)
    d = E.det_inv(3)
    assert act(("q", lam), d) == d.scale(qq(-6))
    assert act(("q", lam), d, "right") == d.scale(qq(-6))
    D = quantum_determinant(3)
    assert act(("q", lam), D) == D.scale(qq(6))


@pytest.mark.parametrize("n", [2, 3])
def test_against_pairing_oracle(n):
    rng = random.Random(100 + n)
    gens = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    hs = [("e", k) for k in range(1, n)] + [("f", k) for k in range(1, n)]
    hs.append(("q", tuple(range(1, n + 1))))
    for _ in range(6):
        x = E.word(n, [rng.choice(gens) for _ in range(3)],
                   det=rng.choice((0, 1)))
        for g in hs:
            for side in ("left", "right"):
                assert act(g, x, side) == _act_oracle(g, x, side), (g, side)


def test_minor_action_closed_form():
    n = 3
    for kind in ("e", "f"):
        for k in (1, 2):
            for r in (1, 2, 3):
                for I in combinations(range(1, n + 1), r):
                    for J in combinations(range(1, n + 1), r):
                        assert minor_action((kind, k), n, I, J) == \
                            act((kind, k), quantum_minor(n, I, J))


def test_minor_action_index_sets_rejected():
    # unsorted, repeated and out-of-range sets raise as quantum_minor does
    for I, J in (((2, 1), (1, 2)), ((1, 2), (2, 1)), ((1, 1), (1, 2)),
                 ((1, 4), (1, 2)), ((1,), (1, 2))):
        for g in (("e", 1), ("f", 2), ("q", (1, 0, 0))):
            with pytest.raises(ValueError, match="strictly increasing"):
                minor_action(g, 3, I, J)
        with pytest.raises(ValueError, match="strictly increasing"):
            quantum_minor(3, I, J)


def test_twisted_leibniz():
    # e_k (xy) = (e_k x)(q^{-h/2} y) + (q^{h/2} x)(e_k y), h = eps_k - eps_{k+1}
    rng = random.Random(11)
    gens = [(i, j) for i in range(1, 4) for j in range(1, 4)]
    for k in (1, 2):
        h = tuple(Fraction(1 if r == k else -1 if r == k + 1 else 0, 2)
                  for r in range(1, 4))
        mh = tuple(-c for c in h)
        for _ in range(4):
            x = E.word(3, [rng.choice(gens) for _ in range(2)])
            y = E.word(3, [rng.choice(gens) for _ in range(2)])
            lhs = act(("e", k), x * y)
            rhs = act(("e", k), x) * act(("q", mh), y) + \
                act(("q", h), x) * act(("e", k), y)
            assert lhs == rhs
