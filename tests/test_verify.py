"""The q-series identity suite."""

import json
from itertools import product

from qhaar.scalars import ONE, ZERO, poch, q_binomial, qq
from qhaar.verify import (IdentityReport, check_S_sum, check_paper_computations,
                          check_prop_5_3, _double_sum, _s_sum, _single_sum_a)


def test_s_sum_values():
    assert _s_sum(0, 3) == ONE
    # c1 = 0 row collapses to a q-bracket
    assert _s_sum(2, 0) == (ONE - qq(6)) / (ONE - qq(2))


def test_s_sum_grid():
    report = check_S_sum(8, 8)
    assert report.ok()
    assert len(report.parameter_grid) == 81


def test_double_sum_values():
    assert _double_sum(0, 0) == ONE
    assert _double_sum(1, 0) == (ONE - qq(4)) / (qq(2) * (ONE - qq(2)))


def test_double_sum_grid():
    report = check_prop_5_3(6, 6)
    assert report.ok()
    assert len(report.parameter_grid) == 49


def test_report_json():
    report = check_S_sum(1, 1)
    data = json.loads(report.to_json())
    assert data["identity_id"] == "S-sum"
    assert data["failures"] == []
    assert len(data["parameter_grid"]) == 4


def test_report_deterministic():
    a = check_prop_5_3(3, 3)
    b = check_prop_5_3(3, 3)
    assert a.parameter_grid == b.parameter_grid
    assert a.failures == b.failures


def test_small_display_regressions():
    names = {"chain-anchor", "two-column-square", "pochhammer-product",
             "reordered-product", "no-c-square", "gc-square", "gbc-square",
             "g-offdiagonal"}
    reports = check_paper_computations(only=names)
    assert {r.identity_id for r in reports} == names
    for r in reports:
        assert r.ok(), r.identity_id


def test_immutable_report():
    report = check_S_sum(0, 0)
    assert isinstance(report, IdentityReport)
    try:
        report.failures = ["x"]
    except AttributeError:
        pass
    else:
        raise AssertionError("report should be immutable")


def test_hg_single_sum_is_single_sum_a():
    # the sum the hg-square, hg-offdiagonal and bc-chain-start displays
    # write, summed over i <= d2 - k, against _single_sum_a with the roles
    # of (d1, d2, c1, c2) taken by (c3, c2, d3, d2) and half the shift
    def single_sum_b(d2, d3, c2, c3, k, shift):
        total = ZERO
        for i in range(d2 - k + 1):
            total = total + (qq((2 * c2 + 2 * c3 + shift) * i)
                             * poch(1, c3 + d2 - i) * poch(1, d3 + i)
                             * q_binomial(d2 - k, i))
        return total

    for d2, d3, c2, c3, k in product(range(3), repeat=5):
        if k > d2:
            continue
        for shift in (0, 2):
            assert single_sum_b(d2, d3, c2, c3, k, shift) == \
                _single_sum_a(c3, c2, d3, d2, k, shift // 2)
