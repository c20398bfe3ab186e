"""The Haar state.

Values of the Haar state on canonical monomials: the rank-3 closed form,
the reference value on (ceg)^m det^-m with its recursion, the order-1
formula for every rank, and linear evaluation of arbitrary elements.
For ranks other than 3 and orders above 1, a value comes from the linear
system oracles, solved once per rank and order under their feasibility
guards.
"""

from functools import cache

from .scalars import ZERO, ONE, qq, q_binomial, q_multinomial, q_factorial
from .algebra import counting_matrix, stochastic_order, inversions, \
    _neg_q_power
from .linsys import build_system, solve_system, source_matrix_solve


def haar_ref(m):
    """h((ceg)^m det^-m) in closed form."""
    if m < 0:
        raise ValueError("order must be >= 0")
    if m == 0:
        return ONE
    num = _neg_q_power(3 * m) * (qq(2) - ONE) ** 2 * (qq(4) - ONE)
    den = (qq(2 * m + 2) - ONE) ** 2 * (qq(2 * m + 4) - ONE)
    return num / den


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
    total = ZERO
    for k in range(max(n - s, n - t, 0), min(r, l, n) + 1):
        term = qq((n - k) * (n - 3 * k - 1) + 2 * k * (s + t)) * \
            q_binomial(r, k) * q_binomial(l, k) * \
            q_binomial(s, n - k) * q_binomial(t, n - k) / q_binomial(n, k)
        total = total - term if k % 2 else total + term
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


def _pseudo_index_from_theta(theta):
    m = stochastic_order(theta)
    return (m, theta[0][0], theta[0][2], theta[2][0], theta[2][2])


@cache
def _source_value(n, m):
    return source_matrix_solve(n, m)


@cache
def _system_values(n, m):
    return solve_system(build_system(n, m))


def _haar_word(n, factors, det):
    theta = counting_matrix(n, factors)
    if stochastic_order(theta) != det:
        return ZERO
    m = det
    if m == 0 or n == 1:
        # at rank 1, D_q = x11
        return ONE
    if n == 3:
        return haar_pseudo(*_pseudo_index_from_theta(theta))
    if m == 1:
        sigma = [0] * n
        for (i, j) in factors:
            sigma[i - 1] = j
        return haar_order1(tuple(sigma), n)
    if all(theta[i][j] == m * (i + j == n - 1)
           for i in range(n) for j in range(n)):
        # the Source scheme reaches m times the antidiagonal far more cheaply
        return _source_value(n, m)
    return _system_values(n, m)[theta]


def haar_state(x):
    """h(x) for an arbitrary element, by linearity over canonical words."""
    total = ZERO
    for (factors, det), c in x.terms.items():
        total = total + c * _haar_word(x.n, factors, det)
    return total


def haar_ratio_general_n(i, idx, n):
    """h_n(i; m;s,r,l,t) / h_n(i; m;0,m,m,0) for an embedded 3x3 block
    starting at row i, taken to equal the rank-3 ratio.

    Verified only at order 1 (n = 4, 5, by
    test_ratio_general_n_embedded_order1); orders >= 2 at n >= 4 are
    unverified."""
    m, s, r, l, t = idx
    if not 1 <= i <= n - 2:
        raise ValueError("block position out of range")
    check_pseudo_index(m, s, r, l, t)
    return haar_pseudo(m, s, r, l, t) / haar_pseudo(m, 0, m, m, 0)
