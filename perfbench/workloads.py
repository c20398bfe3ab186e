"""The benchmark workloads.

Each workload lists its items in a fixed canonical order, runs one item
through the library's public functions, checks the item's exact outputs
against an independent route, and renders them as canonical text for the
digest gate.  With a Tracer the same calls run inside per-layer spans; the
direct Gram path is then split into its public pieces (vector_to_element,
star and the product in algebra; haar_state in haar) so each layer gets its
own span.
"""

import hashlib
from fractions import Fraction

from qhaar import (build_system, contents, evaluate_numeric, gram_matrix,
                   gram_schmidt, haar_pseudo, haar_state, solve_system,
                   source_matrix_solve, star, vector_to_element, weight_space)

SIDE = "right_comodule"
DIRECT_LAMBDA = (3, 2, 0)
CLOSED_MAX_L1 = 6
Q_CHECK = Fraction(1, 4)
SYSTEM_SHAPE = (3, 3)   # build_system(n, m): inside the feasibility guard
SOURCE_SHAPE = (4, 3)   # source_matrix_solve(n, m): inside the guard


def scalar_text(x):
    """A reduced scalar as its numerator and denominator coefficients, by
    exponent of v = q^(1/2)."""
    return "%r/%r" % (sorted(x.num.terms.items()),
                      sorted(x.den.terms.items()))


def digest(lines):
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def gate(wl, key, out, expected, tr):
    """True when an item's outputs pass the workload's independent check and
    their digest equals the one recorded from the seed library."""
    return wl.check(key, out, tr) and digest(wl.lines(key, out)) == expected


def _matrix_text(rows):
    return [" ".join(scalar_text(x) for x in row) for row in rows]


class GramDirect:
    """gram_matrix(DIRECT_LAMBDA, mu, form, SIDE, method="direct") for every
    content mu and both forms: the rewriter plus the Haar state."""

    name = "gram-direct-cold"

    def __init__(self):
        self.vectors = {mu: weight_space(DIRECT_LAMBDA, mu)
                        for mu in contents(DIRECT_LAMBDA)}

    def items(self):
        return [(mu, form) for mu in self.vectors for form in ("L", "R")]

    def run(self, key, tr):
        mu, form = key
        if not tr.enabled:
            return gram_matrix(DIRECT_LAMBDA, mu, form, SIDE,
                               method="direct").entries
        # the steps of gram_entry_direct, one span per layer
        vs = self.vectors[mu]
        n = len(vs)
        rows = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                with tr.span("algebra.product"):
                    x = vector_to_element(vs[i], "right")
                    y = vector_to_element(vs[j], "right")
                    p = star(x) * y if form == "L" else x * star(y)
                tr.count("algebra.product_terms", len(p.terms))
                with tr.span("haar.state"):
                    rows[i][j] = rows[j][i] = haar_state(p)
        tr.count("corep.entries", n * n)
        return tuple(tuple(r) for r in rows)

    def check(self, key, out, tr):
        mu, form = key
        with tr.span("corep.closed_check"):
            closed = gram_matrix(DIRECT_LAMBDA, mu, form, SIDE,
                                 method="closed").entries
        return out == closed

    def lines(self, key, out):
        return _matrix_text(out)


class GramClosed:
    """For every lambda = (l1, l2, 0) with l1 <= CLOSED_MAX_L1, every content,
    both forms and both sides: the closed-form Gram matrix, its Gram-Schmidt
    orthogonalization, and every entry and norm evaluated at Q_CHECK."""

    name = "gram-closed"

    def items(self):
        return [((l1, l2, 0), mu, form, side)
                for l1 in range(CLOSED_MAX_L1 + 1)
                for l2 in range(l1 + 1)
                for mu in contents((l1, l2, 0))
                for form in ("L", "R")
                for side in ("right_comodule", "left_comodule")]

    def run(self, key, tr):
        lam, mu, form, side = key
        with tr.span("corep.gram_closed"):
            g = gram_matrix(lam, mu, form, side)
        with tr.span("corep.gram_schmidt"):
            transform, norms = gram_schmidt(g)
        with tr.span("scalars.evaluate"):
            at_q = [[evaluate_numeric(x, Q_CHECK) for x in row]
                    for row in g.entries]
            norms_at_q = [evaluate_numeric(x, Q_CHECK) for x in norms]
        tr.count("corep.entries", g.dim() ** 2)
        return g.entries, transform, norms, at_q, norms_at_q

    def check(self, key, out, tr):
        # criterion 10: the Gram matrix is positive definite at q = 1/4
        return all(v > 0 for v in out[4])

    def lines(self, key, out):
        entries, transform, norms, at_q, norms_at_q = out
        return (_matrix_text(entries) + _matrix_text(transform)
                + [scalar_text(x) for x in norms]
                + [" ".join(map(str, row)) for row in at_q]
                + [" ".join(map(str, norms_at_q))])


class Oracle:
    """The independent oracles: solve_system(build_system(*SYSTEM_SHAPE)),
    whose values are checked against haar_pseudo, and
    source_matrix_solve(*SOURCE_SHAPE)."""

    name = "oracle"

    def items(self):
        return ["system", "source"]

    def run(self, key, tr):
        if key == "system":
            with tr.span("linsys.build"):
                system = build_system(*SYSTEM_SHAPE)
            tr.count("linsys.rows", len(system.rows))
            tr.count("linsys.unknowns", len(system.unknowns))
            with tr.span("linsys.solve"):
                return solve_system(system)
        with tr.span("linsys.source"):
            return source_matrix_solve(*SOURCE_SHAPE)

    def check(self, key, out, tr):
        if key != "system":
            return True     # no closed form at rank 4; the digest gate only
        m = SYSTEM_SHAPE[1]
        with tr.span("haar.pseudo_check"):
            return all(value == haar_pseudo(m, theta[0][0], theta[0][2],
                                            theta[2][0], theta[2][2])
                       for theta, value in out.items())

    def lines(self, key, out):
        if key == "system":
            return ["%r %s" % (theta, scalar_text(out[theta]))
                    for theta in sorted(out)]
        return [scalar_text(out)]


WORKLOADS = {wl.name: wl for wl in (GramDirect, GramClosed, Oracle)}

