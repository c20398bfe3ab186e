"""Linear systems for Haar state values, the references for `haar`.

Enumerates counting matrices with given row and column sums, expands
powers of the quantum determinant over the pseudo-basis, builds the
invariance system of a given order from the left action of U_q(gl_n),
solves it exactly, and runs the recursive Source-matrix scheme that
yields h(x_{sigma_0}^m) on O(U_q(n)) without touching the full system.
The e_k images and the Source matrix's zeta words are single monomials,
written down in closed form, and a Source row's sum over the zeta and
eta words is a closed product (proved in `_source_rows`);
`rewriter._times_words` runs only on the words that can split: the eta
prefixes and the step of D_q^mu between near-diagonal terms (the
scheme's one identity checked, not proved; `_source_rows`) here, and
D_q^m for the normalization row in `algebra`, whose cache `haar` shares.
"""

from itertools import permutations

from .scalars import LaurentPoly, QRational, ZERO, ONE, _LP_ONE, \
    over_common_denominator, qdot, fraction_sum
from .algebra import (counting_matrix, stochastic_order, pseudo_word,
                      quantum_determinant, quantum_determinant_power,
                      _rho_exponent)
from .rewriter import _times_words

# the largest orders of the solvers here and of haar's formula: each system
# builds and solves in a few seconds and under 100 MB on a 2-core VM
_BOUNDS = {2: 6, 3: 4, 4: 3, 5: 2}


class FeasibilityError(ValueError):
    """The rank and order exceed the solvability guard."""


class VerificationError(ValueError):
    """A solved system failed its exact check: a row with nonzero residual,
    an inconsistent system, or one whose rank is deficient."""


def _check_feasible(n, m, override):
    # at rank 1 or order 0 the system is the normalization row alone
    if not override and n != 1 and m != 0 and (
            n not in _BOUNDS or m > _BOUNDS[n]):
        raise FeasibilityError(
            "rank %d order %d exceeds the feasibility guard" % (n, m))


def _bounded_compositions(s, caps):
    """The compositions of s bounded by caps, in lexicographic order."""
    if len(caps) == 1:
        return [(s,)] if s <= caps[0] else []
    rest = sum(caps[1:])
    return [(x,) + r for x in range(max(0, s - rest), min(s, caps[0]) + 1)
            for r in _bounded_compositions(s - x, caps[1:])]


def _counting_matrices(row_sums, col_sums):
    """The counting matrices with the given row and column sums (equal
    totals), one at a time, in lexicographic order of their flattened
    vector: the first row from the compositions of its sum bounded by the
    column sums, in order, each followed by the matrices of the rows below
    under the column sums left over; the last row is the remainder."""
    if len(row_sums) == 1:
        yield (tuple(col_sums),)
        return
    for r in _bounded_compositions(row_sums[0], col_sums):
        left = tuple(c - x for c, x in zip(col_sums, r))
        for rest in _counting_matrices(row_sums[1:], left):
            yield (r,) + rest


def iter_Bnm(n, m):
    """The n x n m-doubly-stochastic matrices one at a time, in
    lexicographic order of their flattened vector (the order the
    pseudo-bases are indexed in)."""
    if n < 1:
        raise ValueError("rank must be positive")
    if m < 0:
        raise ValueError("order must be nonnegative")
    return _counting_matrices((m,) * n, (m,) * n)


def enumerate_Bnm(n, m):
    """All of iter_Bnm(n, m), as a list."""
    return list(iter_Bnm(n, m))


def detq_power_expand(n, m):
    """Coefficients b_L of D_q^m over the canonical pseudo-basis, keyed by
    counting matrix."""
    out = {}
    for (factors, det), c in quantum_determinant_power(n, m).terms.items():
        theta = counting_matrix(n, factors)
        assert det == 0 and stochastic_order(theta) == m
        assert pseudo_word(theta) == factors
        out[theta] = c
    return out


class HaarLinearSystem:
    """rows: list of (coefficient dict orbit representative -> QRational,
    rhs, tag) over unknowns, the representatives of the symmetry orbits of
    the counting matrices of order m (`_orbit_min`)."""

    def __init__(self, n, m, unknowns, rows):
        self.n = n
        self.m = m
        self.unknowns = unknowns
        self.rows = rows


def _orbit_min(theta):
    """The least of theta, its transpose, its 180-degree rotation and its
    anti-transpose."""
    t = tuple(zip(*theta))
    return min(theta, t, tuple(r[::-1] for r in theta[::-1]),
               tuple(r[::-1] for r in t[::-1]))


def _orbit_row(coeffs):
    """(theta, coefficient) pairs over counting matrices of one order,
    summed onto the orbit representatives, without the sums that cancel."""
    parts = {}
    for theta, c in coeffs:
        parts.setdefault(_orbit_min(theta), []).append(c)
    row = {u: fraction_sum(cs) for u, cs in parts.items()}
    return {u: c for u, c in row.items() if not c.is_zero()}


def build_system(n, m, override_feasibility=False):
    """The invariance relations of order m plus normalization, over the
    symmetry orbits of the counting matrices.

    For e_k, h(e_k . x_theta det^-m) = 0 for every theta with row sums m
    and column sums m except (m - 1, m + 1) at the columns k, k + 1: e_k
    turns a column k + 1 into a column k, so every word of the image is of
    order m, and the row reads sum_K c_K h(x_K det^-m) = 0.  With the rows
    of all k = 1..n-1 the system has full rank: at fixed row content the
    words form the tensor product of the q-symmetric powers S^m_q(V) of the
    rows under the column action, a functional that kills every e_k image
    is fixed by its values on the lowest-weight vectors, those of weight
    zero span the invariants, which D_q^m spans, and the normalization row
    fixes the scale.

    h(x_theta det^-m) is constant on the orbit of theta under transpose
    and 180-degree rotation (`_orbit_min`).  gamma (x_ij -> x_ji) is a
    homomorphism that fixes D_q and maps the row-major word of theta to
    that of theta^T, reordering only anti-diagonal pairs, which commute.
    omega (x_ij -> x_{n+1-i,n+1-j}, reversing products) fixes D_q and maps
    the word exactly to the row-major word of the rotation.  And
    h o gamma = h o omega = h.  So each row is summed onto the orbit
    representatives, which are the unknowns, and the f_k rows, which under
    the symmetry repeat the e_k rows, are not built.

    The image is one monomial per row i of theta with b = theta_{i,k+1} > 0:
    with a = theta_{i,k} and P_i = sum_{r<i} (theta_{r,k} - theta_{r,k+1}),
    e_k . x_theta det^-m = sum_i (sum_{t<b} v^(2(P_i + a) + 1 - 4t))
    x_{theta + E_{i,k} - E_{i,k+1}} det^-m.  The twist on the t-th letter
    (i, k+1) of the row-major word is q^(P_i + a - t + 1/2), and the new
    letter (i, k) moves left past t letters of its own row, for q^-t."""
    _check_feasible(n, m, override_feasibility)
    rows = []
    for k in range(1, n):
        col_sums = (m,) * (k - 1) + (m - 1, m + 1) + (m,) * (n - k - 1)
        for theta in _counting_matrices((m,) * n, col_sums):
            image, p = [], 0    # p: P_i, summed over the rows above
            for i, r in enumerate(theta):
                a, b = r[k - 1], r[k]
                if b:
                    c = {2 * (p + a) + 1 - 4 * t: 1 for t in range(b)}
                    r = r[:k - 1] + (a + 1, b - 1) + r[k + 1:]
                    image.append((theta[:i] + (r,) + theta[i + 1:],
                                  QRational(LaurentPoly(c), _reduced=True)))
                p += a - b
            row = _orbit_row(image)
            if row:
                rows.append((row, ZERO, ("invariance", ("e", k), theta)))
    rows.append((_orbit_row(detq_power_expand(n, m).items()), ONE,
                 ("normalization",)))
    unknowns = sorted({_orbit_min(t) for t in enumerate_Bnm(n, m)})
    return HaarLinearSystem(n, m, unknowns, rows)


def _add_scaled(row, f, other):
    """row += f * other, for sparse rows of QRational coefficients."""
    for t, c in other.items():
        s = row.get(t, ZERO) + f * c
        if s.is_zero():
            row.pop(t, None)
        else:
            row[t] = s


def _eliminate(rows, unknowns):
    """The values of the unknowns from (coefficient dict, rhs, tag) rows.

    Rows with a nonzero rhs come first (homogeneous rows fix the values only
    up to scale), then the shortest, in a stable order.  Each is reduced
    against a reduced echelon form, whose pivot rows hold only unknowns
    without a pivot, and elimination stops once every unknown has a pivot;
    the pivots' right-hand sides are then the values.  Every row, used or
    not, passes the residual gate."""
    order = sorted(range(len(rows)),
                   key=lambda i: (rows[i][1].is_zero(), len(rows[i][0])))
    free = set(unknowns)
    pivots = {}     # unknown -> [row over free unknowns, rhs]
    used = []
    for i in order:
        if not free:
            break
        row, rhs, tag = rows[i]
        row = dict(row)
        for u in [u for u in row if u in pivots]:
            f = row.pop(u)
            _add_scaled(row, f, pivots[u][0])
            rhs = rhs - f * pivots[u][1]
        if not row:
            if not rhs.is_zero():
                raise VerificationError(
                    "inconsistent system: nonzero residual on row %r" % (tag,))
            continue
        u = min(row)
        inv = ONE / row.pop(u)
        prow = {t: -c * inv for t, c in row.items()}
        prhs = rhs * inv
        for entry in pivots.values():
            f = entry[0].pop(u, None)
            if f is not None:
                _add_scaled(entry[0], f, prow)
                entry[1] = entry[1] + f * prhs
        pivots[u] = [prow, prhs]
        free.discard(u)
        used.append(i)
    if free:
        raise VerificationError(
            "rank deficient system: %d unknowns undetermined" % len(free))
    solution = {u: pivots[u][1] for u in unknowns}
    _residual_gate(rows, solution, used)
    return solution


def _residual_gate(rows, solution, used):
    """Checks sum_u c_u x_u = rhs exactly on every row, as
    sum_u c_u (x_u D) = rhs D with D the lcm of the values' denominators:
    each x_u D is a Laurent polynomial, so a row of Laurent coefficients
    sums without a gcd.  The rows in used, which fixed the pivots, go first:
    a failure there is a fault of the elimination, and once they pass the
    values solve a full-rank subsystem, so a failure elsewhere means the
    system is inconsistent."""
    D, nums = over_common_denominator(solution.values())
    scaled = {u: QRational(num, _LP_ONE, _reduced=True)
              for u, num in zip(solution, nums)}
    D = QRational(D, _LP_ONE, _reduced=True)
    first = set(used)
    for i in list(used) + [i for i in range(len(rows)) if i not in first]:
        row, rhs, tag = rows[i]
        if qdot((c, scaled[u]) for u, c in row.items()) != rhs * D:
            raise VerificationError(
                ("nonzero residual on row %r" if i in first else
                 "inconsistent system: nonzero residual on row %r") % (tag,))


def solve_system(system):
    """Solves the invariance system exactly: dict theta -> value for every
    theta in enumerate_Bnm, each read off its orbit representative."""
    values = _eliminate(system.rows, system.unknowns)
    return {theta: values[_orbit_min(theta)]
            for theta in enumerate_Bnm(system.n, system.m)}


# ---------------------------------------------------------------------
# the Source matrix


def _polarity(n, g):
    return (n + 1 - g[0] - g[1] > 0) - (n + 1 - g[0] - g[1] < 0)


def _near_diagonal(mu, sigma):
    """theta_sigma = (mu - 1) I + P_sigma, a counting matrix of order mu."""
    return tuple(tuple((mu - 1) * (i == j) + (j == s)
                       for j in range(1, len(sigma) + 1))
                 for i, s in enumerate(sigma, 1))


def _detq_near_diagonal(n, mu, b):
    """[x_theta] D_q^mu at every theta_sigma, from b, the same of
    D_q^(mu-1) ({zero matrix: 1} at mu = 1): one _times_words call inserts
    the words of D_q, from quantum_determinant.  At q = 1 only x_phi x_tau
    with phi near-diagonal reach a theta_sigma; for generic q a few others
    do (10 of 6,192 at (4, 3)), and they cancel."""
    dq = quantum_determinant(n).terms.items()
    out = _times_words({pseudo_word(t): c.num.terms for t, c in b.items()},
                       sorted((w, c.num.terms) for (w, _d), c in dq))
    near = (_near_diagonal(mu, s) for s in permutations(range(1, n + 1)))
    return {t: QRational(LaurentPoly(out[w]), _reduced=True)
            for t in near if (w := pseudo_word(t)) in out}


def _source_rows(n, mu, b):
    """The Source-matrix rows of order mu, one per sigma but the identity,
    over the unknowns h(x_mu^tau), keyed by tau.  Row r of zeta_f is
    (r, r)^f_r (r, sigma(r)) (r, r)^(mu-1-f_r), of eta_f core^f_r special
    core^(mu-1-f_r), core = (r, n+1-r), special = (sigma(r), n+1-r), and
    f_r = 0 in a fixed row.  zeta_f = v^z x_theta, z = -2 sum_r
    (mu-1-f_r if sigma(r) > r else f_r): sorting row r moves (r, sigma(r))
    past that many letters of its row.  The class sort of eta_f, for v^s,
    leaves the moving rows' specials at the two ends, in row order, and
    commuting anti-diagonal letters between, so the fixed rows' specials
    can trail the cores, and modular transfer, for v^2rho, brings them and
    the positives to the front, onto a prefix that depends on sigma only.
    The row is sum_f v^(z+s+2rho) nf(prefix), less b_theta at sigma_0.

    The sum over f is a closed product: with k moved rows,
    sum_f v^(z+s) = (sum_{t<mu} v^(4t-2(mu-1)))^k.  A core is neutral, and
    the special of row r has polarity sign(r - sigma(r)).  The class sort
    switches each pair in the wrong order once, for v^(+-2) when the two
    share a row or column and for nothing when they are anti-diagonal.  A
    wrong-order pair sharing a row or column is a special and a core of its
    own row, in column n+1-r: the negative special of row r (sigma(r) > r)
    passes the f_r cores before it, for v^(2 f_r), and the cores after the
    positive special of row r (sigma(r) < r) pass it, for v^(2(mu-1-f_r));
    a core of row r' shares the special's row only when r' = sigma(r),
    whose block lies on the far side of the move.  Every other pair in the
    wrong order is anti-diagonal, never diagonal, so no switch spawns a
    second monomial.  Adding z, a moved row contributes
    +-(4 f_r - 2(mu-1)), and over f_r < mu both signs give one set of
    exponents.

    The rewriter runs once per sigma, on the prefix, and once per order in
    _detq_near_diagonal, whose b_theta = [x_theta] D_q^mu is an identity
    checked, not proved: it equals the full power at (2, <= 10), (3, <= 7),
    (4, <= 4) and (5, <= 3), and the tests check every shape of _BOUNDS."""
    sigma0 = tuple(range(n, 0, -1))
    block = LaurentPoly({4 * t - 2 * (mu - 1): 1 for t in range(mu)})
    rows = []
    for sigma in list(permutations(range(1, n + 1)))[1:]:
        specials = [(s, n + 1 - r) for r, s in enumerate(sigma, 1)]
        scalar = _LP_ONE
        for r, s in enumerate(sigma, 1):
            if s != r:
                scalar = scalar * block
        pol = {g: _polarity(n, g) for g in specials}
        lam = scalar.shift(
            2 * _rho_exponent(n, [g for g in specials if pol[g] >= 0]))
        prefix = tuple(sorted(specials, key=lambda g: (pol[g] < 0, pol[g])))
        coeffs = {}
        for w, c in _times_words({(): {0: 1}}, [(prefix, {0: 1})]).items():
            tau = tuple(j for (_i, j) in w)
            assert sorted(tau) == list(range(1, n + 1))
            coeffs[tau] = QRational(lam * LaurentPoly(c), _reduced=True)
        theta = _near_diagonal(mu, sigma)
        coeffs[sigma0] = coeffs.get(sigma0, ZERO) - b.get(theta, ZERO)
        rows.append(({k: v for k, v in coeffs.items() if not v.is_zero()},
                     ZERO, ("source", mu, sigma)))
    return rows


def source_matrix_solve(n, m, override_feasibility=False):
    """h(x_{sigma_0}^m) on O(U_q(n)) through the recursive Source-matrix
    scheme: n! unknowns h(x_mu^sigma) per order mu, solved for mu = 1..m."""
    if n < 2 or m < 1:
        raise ValueError("need rank >= 2 and order >= 1")
    _check_feasible(n, m, override_feasibility)
    perms = list(permutations(range(1, n + 1)))
    detq = {tuple(j for (_i, j) in w): c
            for (w, _d), c in quantum_determinant(n).terms.items()}
    value = ONE
    b = {((0,) * n,) * n: ONE}
    for mu in range(1, m + 1):
        b = _detq_near_diagonal(n, mu, b)
        rows = _source_rows(n, mu, b)
        rows.append((detq, value, ("normalization", mu)))
        value = _eliminate(rows, perms)[perms[-1]]
    return value
