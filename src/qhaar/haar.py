"""The Haar state.

Values of the Haar state on canonical monomials: the rank-3 closed form,
the reference value on (ceg)^m det^-m with its recursion, the order-1
formula for every rank, and linear evaluation of arbitrary elements.
Other ranks and orders take m times the anti-diagonal from a closed
product and every other word from the q-Fischer formula, under the
feasibility guard of `linsys`, whose solvers check both.  `_haar_word`
is the one place that picks among these routes: `qhaar eval` and
`qhaar table` both ask `haar_state`.
"""

from functools import cache

from .scalars import ZERO, ONE, qq, q_binomial, q_multinomial, q_factorial, \
    fraction_sum, qdot
from .algebra import counting_matrix, stochastic_order, inversions, \
    quantum_determinant_power, _neg_q_power
from .linsys import _check_feasible


def _antidiagonal(n, m):
    """h(x_{sigma_0}^m det^-m), sigma_0 the longest permutation:
    (-q)^(m n(n-1)/2) P(n, m), P(n, m) = prod_{j<n} ((1 - q^2j) /
    (1 - q^(2m+2j)))^(n-j)."""
    num = den = ONE
    for j in range(1, n):
        num = num * (ONE - qq(2 * j)) ** (n - j)
        den = den * (ONE - qq(2 * m + 2 * j)) ** (n - j)
    return _neg_q_power(m * n * (n - 1) // 2) * num / den


@cache
def haar_ref(m):
    """h((ceg)^m det^-m) in closed form, computed once per m."""
    if m < 0:
        raise ValueError("order must be >= 0")
    return _antidiagonal(3, m)


def haar_ref_recursive(m):
    """The same value through the order-lowering recursion."""
    if m < 0:
        raise ValueError("order must be >= 0")
    val = ONE
    for i in range(1, m + 1):
        val = -qq(3) * (qq(2 * i) - ONE) ** 2 * val / \
            ((ONE - qq(2 * i + 2)) * (ONE - qq(2 * i + 4)))
    return val


def check_pseudo_index(m, s, r, l, t):
    if min(s, r, l, t) < 0 or min(m - s - r, m - s - l, m - r - t,
                                  m - l - t) < 0 or s + r + l + t < m:
        raise ValueError("invalid pseudo index (%d;%d,%d,%d,%d)"
                         % (m, s, r, l, t))


@cache
def haar_pseudo(m, s, r, l, t):
    """h(a^s b^{m-s-r} c^r d^{m-s-l} e^n f^{m-r-t} g^l h^{m-l-t} k^t det^-m)
    with n = s+r+l+t-m, in closed form."""
    check_pseudo_index(m, s, r, l, t)
    n = s + r + l + t - m
    total = fraction_sum(
        (-ONE if k % 2 else ONE) *
        qq((n - k) * (n - 3 * k - 1) + 2 * k * (s + t)) *
        q_binomial(r, k) * q_binomial(l, k) *
        q_binomial(s, n - k) * q_binomial(t, n - k) / q_binomial(n, k)
        for k in range(max(n - s, n - t, 0), min(r, l, n) + 1))
    pref = qq((2 * m + 1) * (l + r) + (n - 2) * m - 2 * l * l - 2 * r * r
              - r * l + 4 * s * t - 3 * n * s - 3 * n * t) / \
        (q_multinomial(m, (n, m - l - s, m - r - t)) *
         q_multinomial(m, (n, m - r - s, m - l - t)))
    if (r + l + n) % 2:
        pref = -pref
    return total * pref * haar_ref(m)


def haar_order1(sigma, n):
    """h(x_sigma det^-1) = (-q)^{l(sigma)} / [n]_{q^2}! for any rank."""
    if sorted(sigma) != list(range(1, n + 1)):
        raise ValueError("not a permutation of 1..%d" % n)
    return _neg_q_power(inversions(tuple(sigma))) / q_factorial(n)


def _pseudo_index_from_theta(m, theta):
    return (m, theta[0][0], theta[0][2], theta[2][0], theta[2][2])


@cache
def _fischer_values(n, m):
    """h(x_theta det^-m) = b_theta q^(n m^2 - sum theta_ij^2) prod
    [theta_ij]! / [m]!^n P(n, m) (the q-Fischer form), b_theta = [x_theta]
    D_q^m and [k]! = q_factorial(k), keyed by theta where b_theta != 0.  On
    m times the anti-diagonal, b = (-q)^(m n(n-1)/2): _antidiagonal(n, m).
    A theorem at q = 1 (Howe duality); checked against the system at every
    shape of the guard, not proved."""
    _check_feasible(n, m, False)
    facts = [q_factorial(k) for k in range(m + 1)]
    scale = qq(n * m * m) * _antidiagonal(n, m) / \
        (_neg_q_power(m * n * (n - 1) // 2) * facts[m] ** n)
    out = {}
    for (factors, _det), c in quantum_determinant_power(n, m).terms.items():
        theta = counting_matrix(n, factors)
        c = c * qq(-sum(t * t for row in theta for t in row))
        for row in theta:
            for t in row:
                c = c * facts[t]
        out[theta] = c * scale
    return out


def _haar_word(n, factors, det):
    theta = counting_matrix(n, factors)
    if stochastic_order(theta) != det:
        return ZERO
    m = det
    if n == 3:
        return haar_pseudo(*_pseudo_index_from_theta(m, theta))
    if m == 1:
        sigma = [0] * n
        for (i, j) in factors:
            sigma[i - 1] = j
        return haar_order1(tuple(sigma), n)
    if all(theta[i][j] == m * (i + j == n - 1)
           for i in range(n) for j in range(n)):
        _check_feasible(n, m, False)
        return _antidiagonal(n, m)
    return _fischer_values(n, m).get(theta, ZERO)


def haar_state(x):
    """h(x) for an arbitrary element, by linearity over canonical words."""
    return qdot((c, _haar_word(x.n, factors, det))
                for (factors, det), c in x.terms.items())


def haar_ratio_general_n(i, idx, n):
    """h_n(i; m;s,r,l,t) / h_n(i; m;0,m,m,0) for an embedded 3x3 block
    starting at row i, taken to equal the rank-3 ratio.

    Verified against the rank-n values at order 1 for n = 4, 5
    (test_ratio_general_n_embedded_order1), at orders 2 and 3 for n = 4
    (test_ratio_general_n_embedded_order2, _order3) and at order 2 for
    n = 5 (test_ratio_general_n_embedded_rank5_order2).  Other orders and
    ranks are unverified."""
    m, s, r, l, t = idx
    if not 1 <= i <= n - 2:
        raise ValueError("block position out of range")
    check_pseudo_index(m, s, r, l, t)
    return haar_pseudo(m, s, r, l, t) / haar_pseudo(m, 0, m, m, 0)
