"""Linear systems for Haar state values.

Enumerates m-doubly-stochastic counting matrices, expands powers of the
quantum determinant over the pseudo-basis, builds the full translation
invariance system of a given order, solves it exactly, and runs the
recursive Source-matrix scheme that yields h(x_{sigma_0}^m) on O(U_q(n))
without touching the full system.
"""

from itertools import combinations, permutations, product

from .scalars import LaurentPoly, QRational, ZERO, ONE, _LP_ONE, _LP_ZERO, \
    _addmul, over_common_denominator, qdot
from .algebra import (counting_matrix, stochastic_order, pseudo_word,
                      quantum_determinant_power, inversions, _expand,
                      _neg_q_power)

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
    their flattened vector (the order the pseudo-bases are indexed in)."""
    if m < 0:
        raise ValueError("order must be nonnegative")
    out = []
    rows = []

    def fill(i, colleft):
        if i == n:
            out.append(tuple(rows))
            return
        if i == n - 1:
            rows.append(tuple(colleft))
            fill(i + 1, None)
            rows.pop()
            return
        row = []

        def cell(j, left):
            if j == n:
                if left == 0:
                    rows.append(tuple(row))
                    fill(i + 1, [colleft[c] - row[c] for c in range(n)])
                    rows.pop()
                return
            for v in range(min(left, colleft[j]), -1, -1):
                row.append(v)
                cell(j + 1, left - v)
                row.pop()

        cell(0, m)

    fill(0, [m] * n)
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


def _comultiply_filtered(n, m, factors):
    """Tensor terms of the coproduct of the given order-m word whose legs are
    both order-m words, with incremental pruning on the right-leg row sums.
    Returns a dict L -> {K: coefficient}, keyed by the legs' counting
    matrices (a canonical word is the pseudo-basis word of its matrix)."""
    # every coefficient is a rewriting polynomial: LaurentPoly until out.
    # Rewriting keeps each row's letter count, so a leg carries the row
    # counts of its right word.
    legs = {((), ()): (_LP_ONE, (0,) * n)}
    for (i, j) in factors:
        nxt = {}
        for (lf, rf), (c, rows) in legs.items():
            for k in range(n):
                if rows[k] >= m:
                    continue
                bumped = rows[:k] + (rows[k] + 1,) + rows[k + 1:]
                right = _expand(rf + ((k + 1, j),))
                for cl, ccl in _expand(lf + ((i, k + 1),)).items():
                    cc = c * ccl
                    for cr, ccr in right.items():
                        entry = nxt.get((cl, cr))
                        if entry is None:
                            entry = nxt[(cl, cr)] = ({}, bumped)
                        _addmul(entry[0], cc, ccr)
        legs = {}
        for key, (t, rows) in nxt.items():
            c = LaurentPoly(t)
            if c:
                legs[key] = (c, rows)
    alpha = [sum(r) for r in counting_matrix(n, factors)]
    beta = [sum(c) for c in zip(*counting_matrix(n, factors))]
    # one counting matrix per distinct canonical leg word, checked once;
    # None marks a right word that is not of order m.  Both matrices of a
    # kept pair are of order m, so the left column sums equal the right row
    # sums.
    lefts, rights = {}, {}
    out = {}
    for (lf, rf), (c, _rows) in legs.items():
        if rf not in rights:
            tr = counting_matrix(n, rf)
            keep = stochastic_order(tr) == m
            assert not keep or [sum(col) for col in zip(*tr)] == beta
            rights[rf] = tr if keep else None
        tr = rights[rf]
        if tr is None:
            continue
        if lf not in lefts:
            tl = lefts[lf] = counting_matrix(n, lf)
            assert stochastic_order(tl) == m
            assert [sum(r) for r in tl] == alpha
        out.setdefault(lefts[lf], {})[tr] = QRational(c, _LP_ONE,
                                                      _reduced=True)
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


def _class_sort(n, word):
    """Stable sort by polarity class (negative, neutral, positive from the
    right end to the left, i.e. negatives first) using only the switch rules
    that generate no extra terms.  Returns the sorted list and the exponent e
    of the scalar v^e the switches picked up: every pair standing in the
    wrong order is switched once, for v^-2 or v^2 when the two share a row
    or column, and for nothing when they are anti-diagonal."""
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
    return sorted(word, key=lambda g: _polarity(n, g)), e


def _eta_reduction(n, m, sigma, f):
    """h(eta_f det^-m) as a dict tau -> LaurentPoly coefficient over the
    Source unknowns h(x_m^tau)."""
    word = []
    for r in range(1, n + 1):
        core = (r, n + 1 - r)
        if sigma[r - 1] == r:
            word.extend([core] * m)
        else:
            word.extend([core] * f[r - 1])
            word.append((sigma[r - 1], n + 1 - r))
            word.extend([core] * (m - 1 - f[r - 1]))
    swapped, e = _class_sort(n, word)
    neg = [g for g in swapped if _polarity(n, g) < 0]
    pos = [g for g in swapped if _polarity(n, g) > 0]
    fixed = [(r, n + 1 - r) for r in range(1, n + 1) if sigma[r - 1] == r]
    # the neutral block must be the anti-diagonal cores in row order, with the
    # fixed-point extras inline (all copies of a block's core are identical)
    neutrals = [g for g in swapped if _polarity(n, g) == 0]
    expected = []
    for r in range(1, n + 1):
        expected.extend([(r, n + 1 - r)] * (m - 1 + (sigma[r - 1] == r)))
    assert neutrals == expected and swapped == neg + neutrals + pos
    # modular transfer of the trailing neutral extras and positives
    d = sum(2 * n + 2 - 2 * i - 2 * j for (i, j) in fixed + pos)
    e += 2 * d
    prefix = tuple(fixed + pos + neg)
    out = {}
    for cw, cc in _expand(prefix).items():
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
            moving = [r for r in range(1, n + 1) if sigma[r - 1] != r]
            theta = tuple(tuple((mu - 1) * (i == j) + (j == sigma[i - 1])
                                for j in range(1, n + 1))
                          for i in range(1, n + 1))
            coeffs = {}
            for shifts in product(range(mu), repeat=len(moving)):
                f = [0] * n
                for r, shift in zip(moving, shifts):
                    f[r - 1] = shift
                zw = []
                for r in range(1, n + 1):
                    if sigma[r - 1] == r:
                        zw.extend([(r, r)] * mu)
                    else:
                        zw.extend([(r, r)] * f[r - 1])
                        zw.append((r, sigma[r - 1]))
                        zw.extend([(r, r)] * (mu - 1 - f[r - 1]))
                # the zeta leg row-reorders onto the comparing basis without
                # extra terms, contributing a single power of q
                exp = _expand(tuple(zw))
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
