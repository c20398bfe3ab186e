"""Linear systems for Haar state values.

Enumerates m-doubly-stochastic counting matrices, expands powers of the
quantum determinant over the pseudo-basis, builds the full translation
invariance system of a given order, solves it exactly, and runs the
recursive Source-matrix scheme that yields h(x_{sigma_0}^m) on O(U_q(n))
without touching the full system.
"""

from itertools import permutations

from .scalars import ZERO, ONE, qq
from .algebra import (counting_matrix, stochastic_order, pseudo_word,
                      quantum_determinant_power, inversions, _expand,
                      _neg_q_power)

# conservative solvability bounds for the full system and the Source matrix
_SYSTEM_BOUNDS = {2: 6, 3: 3, 4: 2}
_SOURCE_BOUNDS = {2: 6, 3: 4, 4: 3}


class FeasibilityError(ValueError):
    """The rank and order exceed the solvability guard."""


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
    legs = {((), ()): ONE}
    for (i, j) in factors:
        nxt = {}
        for (lf, rf), c in legs.items():
            for k in range(1, n + 1):
                if sum(1 for (r, _) in rf if r == k) >= m:
                    continue
                for cl, ccl in _expand(lf + ((i, k),)).items():
                    for cr, ccr in _expand(rf + ((k, j),)).items():
                        key = (cl, cr)
                        s = nxt.get(key, ZERO) + c * ccl * ccr
                        if s.is_zero():
                            nxt.pop(key, None)
                        else:
                            nxt[key] = s
        legs = nxt
    alpha = [sum(r) for r in counting_matrix(n, factors)]
    beta = [sum(c) for c in zip(*counting_matrix(n, factors))]
    out = {}
    for (lf, rf), c in legs.items():
        tr = counting_matrix(n, rf)
        if stochastic_order(tr) != m:
            continue
        tl = counting_matrix(n, lf)
        assert stochastic_order(tl) == m
        assert [sum(r) for r in tl] == alpha
        assert [sum(col) for col in zip(*tl)] == [sum(r) for r in tr]
        assert [sum(col) for col in zip(*tr)] == beta
        out.setdefault(tl, {})[tr] = c
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


def _eliminate(rows, unknowns):
    """The values of the unknowns from (coefficient dict, rhs, tag) rows by
    exact sparse elimination, always pivoting on the shortest remaining row;
    verifies that every row has zero residual."""
    pending = [(dict(row), rhs) for row, rhs, _tag in rows]
    pivots = []
    while pending:
        pending.sort(key=lambda rv: len(rv[0]), reverse=True)
        row, rhs = pending.pop()
        if not row:
            if not rhs.is_zero():
                raise ValueError("inconsistent system")
            continue
        u = min(row)
        inv = ONE / row[u]
        prow = {t: -c * inv for t, c in row.items() if t != u}
        prhs = rhs * inv
        pivots.append((u, prow, prhs))
        nxt = []
        for orow, orhs in pending:
            f = orow.pop(u, None)
            if f is not None:
                for t, c in prow.items():
                    s = orow.get(t, ZERO) + f * c
                    if s.is_zero():
                        orow.pop(t, None)
                    else:
                        orow[t] = s
                orhs = orhs - f * prhs
            if orow or not orhs.is_zero():
                nxt.append((orow, orhs))
        pending = nxt
    if {p[0] for p in pivots} != set(unknowns):
        raise ValueError(
            "rank deficient system: %d unknowns undetermined"
            % (len(unknowns) - len(pivots)))
    # a pivot's row holds only unknowns pivoted after it
    solution = {}
    for u, row, acc in reversed(pivots):
        for t, c in row.items():
            acc = acc + c * solution[t]
        solution[u] = acc
    for row, rhs, tag in rows:
        acc = ZERO
        for u, c in row.items():
            acc = acc + c * solution[u]
        if acc != rhs:
            raise ValueError("nonzero residual on row %r" % (tag,))
    return solution


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
    that generate no extra terms."""
    w = list(word)
    coeff = ONE

    def key(g):
        return _polarity(n, g)

    changed = True
    while changed:
        changed = False
        for p in range(len(w) - 1):
            g1, g2 = w[p], w[p + 1]
            if key(g1) <= key(g2):
                continue
            if g1[0] == g2[0] or g1[1] == g2[1]:
                coeff = coeff * (qq(-1) if g1 > g2 else qq(1))
            else:
                # must be an anti-diagonal pair; a diagonal pair would spawn
                # an extra monomial and break the reduction
                assert (g1[0] - g2[0]) * (g1[1] - g2[1]) < 0, (g1, g2)
            w[p], w[p + 1] = g2, g1
            changed = True
    return w, coeff


def _eta_reduction(n, m, sigma, f):
    """h(eta_f det^-m) as a dict tau -> coefficient over the Source unknowns
    h(x_m^tau)."""
    word = []
    for r in range(1, n + 1):
        core = (r, n + 1 - r)
        if sigma[r - 1] == r:
            word.extend([core] * m)
        else:
            word.extend([core] * f[r - 1])
            word.append((sigma[r - 1], n + 1 - r))
            word.extend([core] * (m - 1 - f[r - 1]))
    swapped, coeff = _class_sort(n, word)
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
    coeff = coeff * qq(d)
    prefix = tuple(fixed + pos + neg)
    out = {}
    for cw, cc in _expand(prefix).items():
        tau = tuple(j for (_i, j) in cw)
        assert sorted(tau) == list(range(1, n + 1))
        out[tau] = out.get(tau, ZERO) + coeff * cc
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
            for mask in range(mu ** len(moving)):
                f = [0] * n
                v = mask
                for r in moving:
                    f[r - 1] = v % mu
                    v //= mu
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
                    coeffs[tau] = coeffs.get(tau, ZERO) + lam * c
            bL = b.get(theta, ZERO)
            coeffs[sigma0] = coeffs.get(sigma0, ZERO) - bL
            rows.append(({k: v for k, v in coeffs.items() if not v.is_zero()},
                         ZERO, ("source", mu, sigma)))
        rows.append(({u: _neg_q_power(inversions(u)) for u in perms}, value,
                     ("normalization", mu)))
        value = _eliminate(rows, perms)[sigma0]
    return value
