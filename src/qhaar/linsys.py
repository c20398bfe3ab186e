"""Linear systems for Haar state values.

Enumerates m-doubly-stochastic counting matrices, expands powers of the
quantum determinant over the pseudo-basis, builds the full translation
invariance system of a given order, solves it exactly, and runs the
recursive Source-matrix scheme that yields h(x_{sigma_0}^m) on O(U_q(n))
without touching the full system.

The invariance system needs the coproduct of every pseudo-basis word x_M.
Its left legs are never rewritten: x_M is a product of row blocks, the
left-leg letters that a row block produces all lie in that row, and
letters of one row q-commute, so each left leg is a single word up to a
power of q.  Only the right legs are normal-ordered, row block by row
block (`_comultiply_filtered`).  Every normal form here, of a row block
or of a Source-matrix word, comes from the one insertion routine
`algebra._times_words` that the algebra's constructor and products use.
"""

from itertools import combinations, permutations, product

from .scalars import LaurentPoly, QRational, ZERO, ONE, _LP_ONE, _LP_ZERO, \
    over_common_denominator, qdot
from .algebra import (counting_matrix, stochastic_order, pseudo_word,
                      quantum_determinant_power, inversions,
                      _neg_q_power, _rho_exponent, _times_words)

# conservative solvability bounds for the full system and the Source matrix
_SYSTEM_BOUNDS = {2: 6, 3: 3, 4: 2}
_SOURCE_BOUNDS = {2: 6, 3: 4, 4: 3}


class FeasibilityError(ValueError):
    """The rank and order exceed the solvability guard."""


class VerificationError(ValueError):
    """A solved system failed its exact check: a row with nonzero residual,
    an inconsistent system, or one whose rank is deficient."""


def _check_feasible(n, m, bounds, override=False):
    if override:
        return
    if n not in bounds or m > bounds[n]:
        raise FeasibilityError(
            "rank %d order %d exceeds the feasibility guard; pass "
            "override_feasibility to force" % (n, m))


def enumerate_Bnm(n, m):
    """All n x n m-doubly-stochastic matrices, sorted lexicographically by
    their flattened vector (the order the pseudo-bases are indexed in):
    n - 1 rows from the compositions of m, and the column sums' complement
    to m as the last row when it is nonnegative."""
    if n < 1:
        raise ValueError("rank must be positive")
    if m < 0:
        raise ValueError("order must be nonnegative")
    rows = [r for r in product(range(m + 1), repeat=n) if sum(r) == m]
    out = []
    for head in product(rows, repeat=n - 1):
        last = tuple(m - sum(r[j] for r in head) for j in range(n))
        if min(last) >= 0:
            out.append(head + (last,))
    return sorted(out)


def detq_power_expand(n, m, override_feasibility=False):
    """Coefficients b_L of D_q^m over the canonical pseudo-basis, keyed by
    counting matrix."""
    _check_feasible(n, m, _SYSTEM_BOUNDS, override_feasibility)
    out = {}
    for (factors, det), c in quantum_determinant_power(n, m).terms.items():
        theta = counting_matrix(n, factors)
        assert det == 0 and stochastic_order(theta) == m
        assert pseudo_word(theta) == factors
        out[theta] = c
    return out


def _arrangements(content):
    """(k, inv(k)) for every sequence k holding content[c - 1] copies of c,
    with inv(k) its number of inversions."""
    if not any(content):
        yield (), 0
        return
    for c, a in enumerate(content):
        if a:
            rest = content[:c] + (a - 1,) + content[c + 1:]
            below = sum(content[:c])
            for k, inv in _arrangements(rest):
                yield (c + 1,) + k, inv + below


def _comultiply_filtered(n, m, factors):
    """Tensor terms of the coproduct of the pseudo-word x_M of an order-m
    matrix M whose legs are both order-m words.  Returns a dict
    L -> {K: coefficient}, keyed by the legs' counting matrices (a canonical
    word is the pseudo-basis word of its matrix).

    Delta(x_M) is the sum over all index sequences k of
    x_{i_1,k_1}...x_{i_N,k_N} (x) x_{k_1,j_1}...x_{k_N,j_N}.  x_M is made of
    row blocks, and the left-leg letters of row i's block all lie in row i,
    where they q-commute: their normal form is the single word
    v^(-2 inv(k)) x_{i,sorted(k)}, and row i of L is the content of k.  So
    the left leg is never expanded: the x_L part of the coproduct is
    nf(P_1 ... P_n), where P_i sums v^(-2 inv(k)) x_{k_1,j_1}...x_{k_m,j_m}
    over the arrangements k of row i of L, and j holds the columns of row i
    of M.  L is walked row by row, depth first, with each row at most the
    column room left, so L is of order m; the running right product is
    multiplied by the normal form of the next P_i, which is built once per
    call by one _times_words call over the arrangements, each word weighted
    by v^(-2 inv(k)).  Rewriting keeps row and column counts, so every
    right word has the columns of M and the rows of L's columns: it is of
    order m too."""
    assert all(a[0] <= b[0] for a, b in zip(factors, factors[1:]))
    cols = [tuple(j for (i, j) in factors if i == r)
            for r in range(1, n + 1)]
    compositions = [r for r in product(range(m + 1), repeat=n)
                    if sum(r) == m]
    blocks = {}     # (row index, content) -> sorted nf(P) as pairs
    thetas = {}     # right word -> counting matrix
    out = {}

    def block(i, content):
        key = (i, content)
        if key not in blocks:
            words = sorted(((tuple(zip(k, cols[i])),
                             LaurentPoly({-2 * inv: 1}))
                            for k, inv in _arrangements(content)),
                           key=lambda wc: wc[0])
            blocks[key] = sorted(_times_words({(): _LP_ONE}, words).items(),
                                 key=lambda wc: wc[0])
        return blocks[key]

    def walk(i, room, L, terms):
        if not terms:
            return
        if i == n:
            row = out[L] = {}
            for w, c in terms.items():
                theta = thetas.get(w)
                if theta is None:
                    theta = thetas[w] = counting_matrix(n, w)
                    assert stochastic_order(theta) == m
                row[theta] = QRational(c, _LP_ONE, _reduced=True)
            return
        # the last row takes the room left, which sums to m
        for content in compositions if i < n - 1 else (room,):
            if all(a <= b for a, b in zip(content, room)):
                walk(i + 1, tuple(b - a for a, b in zip(content, room)),
                     L + (content,), _times_words(terms, block(i, content)))

    walk(0, (m,) * n, (), {(): _LP_ONE})
    return out


class HaarLinearSystem:
    """rows: list of (coefficient dict theta -> QRational, rhs, tag)."""

    def __init__(self, n, m, unknowns, rows):
        self.n = n
        self.m = m
        self.unknowns = unknowns
        self.rows = rows


def build_system(n, m, override_feasibility=False):
    """All translation invariance relations of order m plus normalization.

    For every equation basis x_M det^-m, (id (x) h) Delta(x_M det^-m) =
    h(x_M det^-m) * 1; comparing coefficients of each basis word x_L det^-m
    gives the row sum_K c^M_{L,K} h(x_K) = b_L h(x_M)."""
    _check_feasible(n, m, _SYSTEM_BOUNDS, override_feasibility)
    B = enumerate_Bnm(n, m)
    b = detq_power_expand(n, m, override_feasibility)
    rows = []
    for M in B:
        cM = _comultiply_filtered(n, m, pseudo_word(M))
        for L in B:
            coeffs = dict(cM.get(L, ()))
            bL = b.get(L, ZERO)
            if not bL.is_zero():
                coeffs[M] = coeffs.get(M, ZERO) - bL
            coeffs = {k: v for k, v in coeffs.items() if not v.is_zero()}
            if coeffs:
                rows.append((coeffs, ZERO, ("invariance", M, L)))
    rows.append((dict(b), ONE, ("normalization",)))
    return HaarLinearSystem(n, m, B, rows)


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
    """Solves the invariance system exactly: dict unknown -> value."""
    return _eliminate(system.rows, system.unknowns)


# ---------------------------------------------------------------------
# the Source matrix


def _polarity(n, g):
    return (n + 1 - g[0] - g[1] > 0) - (n + 1 - g[0] - g[1] < 0)


def _class_sort_exponent(n, word):
    """The exponent e of the scalar v^e that a stable sort of the word by
    polarity class (negative, neutral, positive from the right end to the
    left, i.e. negatives first) picks up, using only the switch rules that
    generate no extra terms: every pair standing in the wrong order is
    switched once, for v^-2 or v^2 when the two share a row or column, and
    for nothing when they are anti-diagonal."""
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


def _eta_reduction(n, m, sigma, f):
    """h(eta_f det^-m) as a dict tau -> LaurentPoly coefficient over the
    Source unknowns h(x_m^tau).  Row r of eta_f is core^f_r special
    core^(m-1-f_r), core = (r, n+1-r) and special = (sigma(r), n+1-r);
    a fixed row's special is its core."""
    specials = [(s, n + 1 - r) for r, s in enumerate(sigma, 1)]
    word = [g for r, s in enumerate(specials, 1)
            for g in [(r, n + 1 - r)] * f[r - 1] + [s]
            + [(r, n + 1 - r)] * (m - 1 - f[r - 1])]
    e = _class_sort_exponent(n, word)
    # The class sort leaves the moving rows' specials at the two ends, in
    # row order, and between them the neutral block: the cores and the
    # fixed rows' specials, anti-diagonal letters that commute.  So the
    # fixed rows' specials can trail the m - 1 cores per row, and modular
    # transfer brings them and the positives to the front.
    pol = {g: _polarity(n, g) for g in specials}
    e += 2 * _rho_exponent(n, [g for g in specials if pol[g] >= 0])
    prefix = tuple(sorted(specials, key=lambda g: (pol[g] < 0, pol[g])))
    out = {}
    for cw, cc in _times_words({(): _LP_ONE}, [(prefix, _LP_ONE)]).items():
        tau = tuple(j for (_i, j) in cw)
        assert sorted(tau) == list(range(1, n + 1))
        out[tau] = out.get(tau, _LP_ZERO) + cc.shift(e)
    return out


def source_matrix_solve(n, m, override_feasibility=False):
    """h(x_{sigma_0}^m) on O(U_q(n)) through the recursive Source-matrix
    scheme: n! unknowns h(x_mu^sigma) per order mu, solved for mu = 1..m."""
    if n < 2 or m < 1:
        raise ValueError("need rank >= 2 and order >= 1")
    _check_feasible(n, m, _SOURCE_BOUNDS, override_feasibility)
    sigma0 = tuple(range(n, 0, -1))
    perms = list(permutations(range(1, n + 1)))
    value = ONE
    for mu in range(1, m + 1):
        # the Source bounds were checked above; mu may exceed the system's
        b = detq_power_expand(n, mu, override_feasibility=True)
        rows = []
        for sigma in perms:
            if sigma == tuple(range(1, n + 1)):
                continue
            theta = tuple(tuple((mu - 1) * (i == j) + (j == sigma[i - 1])
                                for j in range(1, n + 1))
                          for i in range(1, n + 1))
            coeffs = {}
            # row r of zeta_f is (r, r)^f_r (r, sigma(r)) (r, r)^(mu-1-f_r);
            # a fixed row is (r, r)^mu whatever f_r, so it takes f_r = 0
            for f in product(*(range(mu) if sigma[r] != r + 1 else (0,)
                               for r in range(n))):
                zw = tuple(g for r in range(1, n + 1)
                           for g in [(r, r)] * f[r - 1] + [(r, sigma[r - 1])]
                           + [(r, r)] * (mu - 1 - f[r - 1]))
                # the zeta leg row-reorders onto the comparing basis without
                # extra terms, contributing a single power of q
                exp = _times_words({(): _LP_ONE}, [(zw, _LP_ONE)])
                assert len(exp) == 1 and pseudo_word(theta) in exp
                lam = exp[pseudo_word(theta)]
                for tau, c in _eta_reduction(n, mu, sigma, f).items():
                    coeffs[tau] = coeffs.get(tau, _LP_ZERO) + lam * c
            coeffs = {k: QRational(v, _LP_ONE, _reduced=True)
                      for k, v in coeffs.items()}
            bL = b.get(theta, ZERO)
            coeffs[sigma0] = coeffs.get(sigma0, ZERO) - bL
            rows.append(({k: v for k, v in coeffs.items() if not v.is_zero()},
                         ZERO, ("source", mu, sigma)))
        rows.append(({u: _neg_q_power(inversions(u)) for u in perms}, value,
                     ("normalization", mu)))
        value = _eliminate(rows, perms)[sigma0]
    return value
