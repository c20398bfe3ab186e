"""Batch verification of the q-series identities behind the Gram closed
forms.

Every check evaluates an identity by direct exact summation over a small
parameter grid; mixed-sign displays are compared against the brute-force
Haar oracle.  Results come back as IdentityReport records whose failure
lists are empty on a healthy build.
"""

import itertools
import json
import time

from .algebra import LETTER_TO_GEN, AlgebraElement, star_gen
from .corep import _Q2, _Q4, _family_a_double_sum
from .haar import haar_ref, haar_state
from .scalars import ONE, ZERO, poch, q_binomial, qq


_M2 = qq(2) - ONE   # (q^2 - 1), kept separate to mirror the sources
_M4 = qq(4) - ONE


class IdentityReport:
    __slots__ = ("identity_id", "parameter_grid", "failures", "elapsed")

    def __init__(self, identity_id, parameter_grid, failures, elapsed):
        object.__setattr__(self, "identity_id", identity_id)
        object.__setattr__(self, "parameter_grid", list(parameter_grid))
        object.__setattr__(self, "failures", list(failures))
        object.__setattr__(self, "elapsed", elapsed)

    def __setattr__(self, *a):
        raise AttributeError("IdentityReport is immutable")

    def ok(self):
        return not self.failures

    def to_json(self):
        return json.dumps({
            "identity_id": self.identity_id,
            "parameter_grid": [list(p) for p in self.parameter_grid],
            "failures": [list(p) for p in self.failures],
            "elapsed": self.elapsed,
        })

    def __repr__(self):
        return "IdentityReport(%r, %d points, %d failures)" % (
            self.identity_id, len(self.parameter_grid), len(self.failures))


def _report(identity_id, points, check):
    t0 = time.monotonic()
    grid, failures = [], []
    for p in points:
        grid.append(p)
        if not check(*p):
            failures.append(p)
    return IdentityReport(identity_id, grid, failures,
                          time.monotonic() - t0)


# ---------------------------------------------------------------------
# pure summation identities


def _s_sum(d1, c1):
    total = ZERO
    for i in range(d1 + 1):
        total = total + (qq(2 * (c1 + 1) * i) * q_binomial(d1, i)
                         / q_binomial(d1 + c1, i))
    return total


def check_S_sum(d1_max, c1_max):
    """S(d1) telescopes to a single ratio of q-brackets."""
    def check(d1, c1):
        want = (ONE - qq(2 * d1 + 2 * c1 + 2)) / (ONE - qq(2 * c1 + 2))
        return _s_sum(d1, c1) == want
    points = list(itertools.product(range(d1_max + 1), range(c1_max + 1)))
    return _report("S-sum", points, check)


def _double_sum(d1, d2):
    total = ZERO
    for i in range(d1 + 1):
        for j in range(d2 + 1):
            total = total + (qq(2 * d1 * j - 2 * i * j - 2 * i - 2 * j)
                             * q_binomial(d1, i) * q_binomial(d2, j)
                             / q_binomial(d1 + d2, i + j))
    return total


def check_prop_5_3(d1_max, d2_max):
    """The binomial double sum collapses to a single q-bracket ratio."""
    def check(d1, d2):
        want = ((ONE - qq(2 * (d1 + d2) + 2))
                / (qq(2 * d1 + 2 * d2) * _Q2))
        return _double_sum(d1, d2) == want
    points = list(itertools.product(range(d1_max + 1), range(d2_max + 1)))
    return _report("binomial-double-sum", points, check)


# ---------------------------------------------------------------------
# display regressions against the Haar oracle


def _h(parts):
    """haar_state of a product of (letter, power, starred) factors."""
    x = AlgebraElement.unit(3)
    for ch, p, starred in parts:
        make = star_gen if starred else AlgebraElement.gen
        g = make(3, *LETTER_TO_GEN[ch])
        for _ in range(p):
            x = x * g
    return haar_state(x)


def _grid(*bounds):
    return itertools.product(*(range(b + 1) for b in bounds))


def _sign(k):
    return ONE if k % 2 == 0 else -ONE


def _chain_anchor(d1, c1):
    # h(a^c1 (k*)^d1 (a*)^c1 k^d1) resummed over the reference value
    got = _h([("a", c1, 0), ("k", d1, 1), ("a", c1, 1), ("k", d1, 0)])
    m = d1 + c1
    return got == (_sign(m) * qq(-3 * m) * haar_ref(m) * _s_sum(d1, c1)
                   * _s_sum(c1, d1))


def _disp_two_column(d1, c1):
    got = _h([("k", d1, 1), ("a", c1, 0), ("a", c1, 1), ("k", d1, 0)])
    want = _M2 * _M2 * _M4 / ((qq(2 * c1 + 2) - ONE) * (qq(2 * d1 + 2) - ONE)
                              * (qq(2 * (d1 + c1) + 4) - ONE))
    return got == want


def _disp_pochhammer_product(d1, d2, d3):
    got = _h([("g", d3, 1), ("h", d2, 1), ("k", d1, 1),
              ("k", d1, 0), ("h", d2, 0), ("g", d3, 0)])
    want = (poch(1, d1) * poch(1, d2) * poch(1, d3) * poch(1, 2)
            / poch(1, d1 + d2 + d3 + 2))
    return got == want


def _disp_reordered_product(d1, d2):
    got = _h([("h", d2, 1), ("k", d1, 1), ("k", d1, 0), ("h", d2, 0)])
    m = d1 + d2
    want = (poch(1, d1) * poch(1, d2) / poch(1, m)
            * qq(2 * m) * _M2 * _M2 * _M4
            / ((qq(2 * m + 2) - ONE) ** 2 * (qq(2 * m + 4) - ONE))
            * _double_sum(d1, d2))
    return got == want


def _disp_no_c(d1, d2, c1):
    got = _h([("k", d1, 1), ("h", d2, 1), ("a", c1, 0),
              ("a", c1, 1), ("h", d2, 0), ("k", d1, 0)])
    want = (qq(2 * d1 * d2) * _Q2 * _Q2 * _Q4 * poch(1, d1) * poch(1, d2)
            / ((ONE - qq(2 * c1 + 2)) * poch(1, d1 + d2 + 1)
               * (ONE - qq(2 * (d1 + d2 + c1) + 4))))
    return got == want


def _single_sum_a(d1, d2, c1, c2, k, shift):
    total = ZERO
    for i in range(c2 - k + 1):
        total = total + (qq(2 * (d1 + d2 + shift) * i) * poch(1, c1 + i)
                         * poch(1, d1 + c2 - i) * q_binomial(c2 - k, i))
    return total


def _disp_square_ab(d1, d2, c1, c2):
    got = _h([("k", d1, 1), ("h", d2, 1), ("a", c1, 0), ("b", c2, 0),
              ("b", c2, 1), ("a", c1, 1), ("h", d2, 0), ("k", d1, 0)])
    want = (qq(2 * d1 * d2 + 2 * c1 * c2 + 2 * c2) * _Q2 * _Q2 * _Q4
            * poch(1, d2) * poch(1, c2)
            / (poch(1, d1 + d2 + 1) * poch(1, c1 + c2 + 1)
               * poch(d1 + d2 + c1 + 2, c2 + 1))
            * _single_sum_a(d1, d2, c1, c2, 0, 1))
    return got == want


def _disp_offdiag_g(d1, d2, c1, c2):
    got = _h([("k", d1, 1), ("h", d2, 1), ("a", c1, 0), ("b", c2 + 1, 0),
              ("b", c2, 1), ("a", c1 + 1, 1), ("g", 1, 0), ("h", d2 - 1, 0),
              ("k", d1, 0)])
    want = -(qq(2 * d1 * d2 + 2 * d1 + 2 * d2 + c1 + 2 + 2 * c1 * c2
                + 4 * c2) * _Q2 * _Q2 * _Q4
             * poch(1, c2 + 1) * poch(1, d2)
             / (poch(1, d1 + d2 + 1) * poch(1, c1 + c2 + 2)
                * poch(d1 + d2 + c1 + 2, c2 + 2))
             * _single_sum_a(d1, d2, c1 + 1, c2, 0, 0))
    return got == want


def _disp_chain_c(d1, d2, c1, c2, k):
    got = _h([("k", d1 + k, 1), ("h", d2 - k, 1), ("a", c1, 0),
              ("b", c2 - k, 0), ("c", k, 0), ("b", c2, 1), ("a", c1, 1),
              ("h", d2, 0), ("k", d1, 0)])
    want = (_sign(k) * qq(2 * d1 * d2 + 2 * c1 * c2 + (k + 2) * c2
                          + k * (d2 - k + 1))
            * _Q2 * _Q2 * _Q4 * poch(1, d2) * poch(1, c2)
            / (poch(1, c1 + c2 + 1) * poch(1, d1 + d2 + 1)
               * poch(d1 + d2 + c1 + 2, c2 + 1))
            * _single_sum_a(d1, d2, c1, c2, k, 1))
    return got == want


def _disp_family_a_full(d1, d2, c1, c2, c3, k):
    got = _h([("k", d1 + k, 1), ("h", d2 - k, 1), ("a", c1, 0),
              ("b", c2 - k, 0), ("c", c3 + k, 0), ("c", c3, 1),
              ("b", c2, 1), ("a", c1, 1), ("h", d2, 0), ("k", d1, 0)])
    want = (_sign(k) * qq(2 * d1 * d2 + 2 * c1 * c2 + 2 * c1 * c3
                          + 2 * c2 * c3 + 2 * c2 + 4 * c3
                          + k * (d2 + c2 - k + 1))
            * _Q2 * _Q2 * _Q4 * poch(1, d2) * poch(1, c2)
            / (poch(1, d1 + d2 + 1) * poch(1, c1 + c2 + c3 + 1))
            * _family_a_double_sum(d1, d2, c1, c2, c3, k))
    return got == want


def _disp_no_d2(d1, c1, c2, c3):
    got = _h([("k", d1, 1), ("a", c1, 0), ("b", c2, 0), ("c", c3, 0),
              ("c", c3, 1), ("b", c2, 1), ("a", c1, 1), ("k", d1, 0)])
    want = (qq(2 * c1 * c2 + 2 * c1 * c3 + 2 * c2 * c3 + 2 * c2 + 4 * c3
               + 2 * d1 * c3)
            * _Q2 * _Q2 * _Q4 * poch(1, c1) * poch(1, c2) * poch(1, c3)
            / (poch(1, c1 + c2 + 1) * (ONE - qq(2 * d1 + 2))
               * poch(d1 + c1 + c2 + 2, c3 + 1)))
    return got == want


def _disp_gc_square(d3, c3):
    got = _h([("g", d3, 1), ("c", c3, 0), ("c", c3, 1), ("g", d3, 0)])
    want = (qq(4 * c3) * _M2 * _M2 * _M4
            / ((ONE - qq(2 * c3 + 2)) * (ONE - qq(2 * d3 + 2))
               * (qq(2 * (d3 + c3) + 4) - ONE)))
    return got == want


def _disp_gbc_square(d3, c2, c3):
    got = _h([("g", d3, 1), ("b", c2, 0), ("c", c3, 0),
              ("c", c3, 1), ("b", c2, 1), ("g", d3, 0)])
    want = (qq(2 * c2 * c3 + 2 * c2 + 4 * c3) * _M2 * _M2 * _M4
            * poch(1, c2) * poch(1, c3)
            / (poch(1, c2 + c3 + 1) * (ONE - qq(2 * (d3 + 1)))
               * (qq(2 * (d3 + c2 + c3) + 4) - ONE)))
    return got == want


def _disp_g_offdiag(d3, c2, c3):
    got = _h([("g", d3, 1), ("a", 1, 0), ("b", c2 - 1, 0), ("c", c3, 0),
              ("c", c3, 1), ("b", c2, 1), ("g", d3 - 1, 0), ("h", 1, 0)])
    want = (qq(2 * c2 * c3 + 4 * c2 + 6 * c3 + d3 - 1) * _M2 * _M2 * _M4
            / ((ONE - qq(2 * (c2 + c3 + 1))) * (ONE - qq(2 * (d3 + 1))))
            * poch(1, c3) * poch(1, c2) / poch(1, c3 + c2)
            * _Q2 / ((ONE - qq(2 * (d3 + c2 + c3) + 2))
                     * (ONE - qq(2 * (d3 + c2 + c3) + 4))))
    return got == want


def _single_sum_b(d2, d3, c2, c3, k, shift):
    total = ZERO
    for i in range(d2 - k + 1):
        total = total + (qq((2 * c2 + 2 * c3 + shift) * i)
                         * poch(1, c3 + d2 - i) * poch(1, d3 + i)
                         * q_binomial(d2 - k, i))
    return total


def _disp_hg_square(d2, d3, c2, c3):
    got = _h([("h", d2, 1), ("g", d3, 1), ("b", c2, 0), ("c", c3, 0),
              ("c", c3, 1), ("b", c2, 1), ("g", d3, 0), ("h", d2, 0)])
    want = (qq(2 * c2 * c3 + 2 * c2 + 4 * c3 + 2 * d3 * d2)
            * _Q2 * _Q2 * _Q4 * poch(1, c2) * poch(1, d2)
            / (poch(1, c2 + c3 + 1) * poch(1, d2 + d3 + 1)
               * poch(d3 + c2 + c3 + 2, d2 + 1))
            * _single_sum_b(d2, d3, c2, c3, 0, 2))
    return got == want


def _disp_hg_offdiag(d2, d3, c2, c3):
    got = _h([("h", d2, 1), ("g", d3, 1), ("a", 1, 0), ("b", c2 - 1, 0),
              ("c", c3, 0), ("c", c3, 1), ("b", c2, 1), ("g", d3 - 1, 0),
              ("h", d2 + 1, 0)])
    want = -(qq(2 * c2 * c3 + 4 * c2 + 6 * c3 + 2 * d2 * d3 + d3 - 1)
             * _Q2 * _Q2 * _Q4 * poch(1, c2) * poch(1, d2 + 1)
             / (poch(1, c2 + c3 + 1) * poch(1, d2 + d3 + 1)
                * poch(d3 + c2 + c3 + 1, d2 + 2))
             * _single_sum_b(d2, d3, c2, c3, 0, 0))
    return got == want


def _disp_chain_k_start(d2, d3, c2, c3, k):
    got = _h([("k", k, 1), ("h", d2 - k, 1), ("g", d3, 1),
              ("b", c2 - k, 0), ("c", c3 + k, 0), ("c", c3, 1),
              ("b", c2, 1), ("g", d3, 0), ("h", d2, 0)])
    want = (_sign(k) * qq(2 * c2 * c3 + 2 * c2 + 4 * c3 + 2 * d3 * d2
                          + k * (d2 + c2 - k + 1))
            * _Q2 * _Q2 * _Q4 * poch(1, c2) * poch(1, d2)
            / (poch(1, c2 + c3 + 1) * poch(1, d2 + d3 + 1)
               * poch(d3 + c2 + c3 + 2, d2 + 1))
            * _single_sum_b(d2, d3, c2, c3, k, 2))
    return got == want


def _disp_family_b_full(d1, d2, d3, c2, c3, k):
    got = _h([("k", d1 + k, 1), ("h", d2 - k, 1), ("g", d3, 1),
              ("b", c2 - k, 0), ("c", c3 + k, 0), ("c", c3, 1),
              ("b", c2, 1), ("g", d3, 0), ("h", d2, 0), ("k", d1, 0)])
    want = (_sign(k) * qq(2 * d2 * d3 + 2 * d1 * d2 + 2 * d1 * d3
                          + 2 * c2 * c3 + 2 * c2 + 4 * c3
                          + k * (d2 + c2 - k + 1))
            * _Q2 * _Q2 * _Q4 * poch(1, d2) * poch(1, c2)
            / (poch(1, c2 + c3 + 1) * poch(1, d1 + d2 + d3 + 1))
            * _family_a_double_sum(d1, c2, d3, d2, c3, k))
    return got == want


def _with_k(points, d2_pos, c2_pos):
    for p in points:
        for k in range(min(p[d2_pos], p[c2_pos]) + 1):
            yield p + (k,)


_DISPLAYS = [
    ("chain-anchor", _chain_anchor, lambda: _grid(2, 2)),
    ("two-column-square", _disp_two_column, lambda: _grid(2, 2)),
    ("pochhammer-product", _disp_pochhammer_product, lambda: _grid(2, 2, 2)),
    ("reordered-product", _disp_reordered_product, lambda: _grid(2, 2)),
    ("no-c-square", _disp_no_c, lambda: _grid(2, 2, 2)),
    ("ab-square", _disp_square_ab, lambda: _grid(2, 2, 2, 2)),
    ("ab-offdiagonal", _disp_offdiag_g,
     lambda: ((d1, d2, c1, c2) for (d1, d2, c1, c2) in _grid(2, 2, 2, 2)
              if d2 >= 1)),
    ("abc-chain", _disp_chain_c,
     lambda: _with_k(_grid(2, 2, 2, 2), 1, 3)),
    ("family-a-full", _disp_family_a_full,
     lambda: _with_k(_grid(2, 2, 2, 2, 2), 1, 3)),
    ("no-d2-square", _disp_no_d2, lambda: _grid(2, 2, 2, 2)),
    ("gc-square", _disp_gc_square, lambda: _grid(2, 2)),
    ("gbc-square", _disp_gbc_square, lambda: _grid(2, 2, 2)),
    ("g-offdiagonal", _disp_g_offdiag,
     lambda: ((d3, c2, c3) for (d3, c2, c3) in _grid(2, 2, 2)
              if d3 >= 1 and c2 >= 1)),
    ("hg-square", _disp_hg_square, lambda: _grid(2, 2, 2, 2)),
    ("hg-offdiagonal", _disp_hg_offdiag,
     lambda: ((d2, d3, c2, c3) for (d2, d3, c2, c3) in _grid(2, 2, 2, 2)
              if d3 >= 1 and c2 >= 1)),
    ("bc-chain-start", _disp_chain_k_start,
     lambda: _with_k(_grid(2, 2, 2, 2), 0, 2)),
    ("family-b-full", _disp_family_b_full,
     lambda: _with_k(_grid(2, 2, 2, 2, 2), 1, 3)),
]


def check_paper_computations(only=None):
    """Run every display regression; returns one IdentityReport per
    display.  `only` restricts to a subset of identity ids."""
    reports = []
    for name, fn, points in _DISPLAYS:
        if only is not None and name not in only:
            continue
        reports.append(_report(name, points(), fn))
    return reports
