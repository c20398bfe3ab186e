"""Left and right actions of the U_q(gl_n) generators e_k, f_k and q^lambda
on algebra elements, through the dual pairing.

A generator is a tuple: ("e", k), ("f", k), or ("q", lam) with lam an integral
weight (a length-n tuple).  The actions on a product follow the twisted
Leibniz rule coming from Delta(e_k) = e_k (x) q^{-h/2} + q^{h/2} (x) e_k with
h = eps_k - eps_{k+1}, so single factors pick up half-integer powers of q.
"""

from fractions import Fraction

from .scalars import ZERO, ONE, qq
from .algebra import AlgebraElement, _index_sets, quantum_minor


def act(g, x, side="left"):
    kind = g[0]
    n = x.n
    if kind == "q":
        lam = g[1]
        if len(lam) != n:
            raise ValueError("weight length mismatch")
        total = sum(lam)
        out = {}
        for (factors, det), c in x.terms.items():
            e = -det * total
            for (i, j) in factors:
                e += lam[(j if side == "left" else i) - 1]
            out[(factors, det)] = c * qq(e)
        return AlgebraElement(n, out, canonical=True)

    if kind not in ("e", "f"):
        raise ValueError("unknown generator %r" % (g,))
    k = g[1]
    if not 1 <= k <= n - 1:
        raise ValueError("generator index out of range")

    # column (left) or row (right) weight under h = eps_k - eps_{k+1}
    def wt(i, j):
        idx = j if side == "left" else i
        return 1 if idx == k else -1 if idx == k + 1 else 0

    pieces = {}     # (word, det) -> summed coefficient, normal-ordered once
    for (factors, det), c in x.terms.items():
        weights = [wt(i, j) for (i, j) in factors]
        total = sum(weights)
        prefix = 0
        for pos, (i, j) in enumerate(factors):
            if kind == "e":
                hit = (j == k + 1) if side == "left" else (i == k)
                rep = (i, j - 1) if side == "left" else (i + 1, j)
            else:
                hit = (j == k) if side == "left" else (i == k + 1)
                rep = (i, j + 1) if side == "left" else (i - 1, j)
            if hit:
                suffix = total - prefix - weights[pos]
                twist = qq(Fraction(prefix - suffix, 2))
                nf = factors[:pos] + (rep,) + factors[pos + 1:]
                pieces[(nf, det)] = pieces.get((nf, det), ZERO) + c * twist
            prefix += weights[pos]
    return AlgebraElement(n, pieces)


def minor_action(g, n, I, J):
    """The closed form of the left action of e_k or f_k on a quantum minor:
    shift one column index or annihilate.  I and J must be strictly
    increasing inside 1..n and of equal size, as for quantum_minor."""
    kind, k = g[0], g[1]
    I, J = _index_sets(n, I, J)
    if kind == "e":
        if k not in J and k + 1 in J:
            shifted = tuple(sorted(set(J) - {k + 1} | {k}))
            return quantum_minor(n, I, shifted)
        return AlgebraElement.zero(n)
    if kind == "f":
        if k in J and k + 1 not in J:
            shifted = tuple(sorted(set(J) - {k} | {k + 1}))
            return quantum_minor(n, I, shifted)
        return AlgebraElement.zero(n)
    if kind == "q":
        lam = g[1]
        e = sum(lam[j - 1] for j in J)
        return quantum_minor(n, I, J).scale(qq(e))
    raise ValueError("unknown generator %r" % (g,))
