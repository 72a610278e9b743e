"""Entropy tests: per-family values, the limiting constant, convergence report."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from barreldimer import entropy, errors

H_REF = 0.1615329736


@pytest.mark.parametrize(
    "m,closed",
    [
        (3, math.log(3.0) / 6.0),
        (4, math.log(2.0 + math.sqrt(2.0)) / 8.0),
        (5, math.log(5.0) / 10.0),
        (6, math.log(4.0 + 2.0 * math.sqrt(3.0)) / 12.0),
    ],
)
def test_entropy_closed_values(m, closed):
    assert entropy.entropy_of_family(m) == pytest.approx(closed, rel=1e-12)


def test_quadrature_matches_reference_constant():
    assert entropy.limit_entropy_quadrature() == pytest.approx(H_REF, abs=1e-8)


def test_gauss_legendre_matches_adaptive_quadrature():
    def smooth(t):
        return 0.0 if t == 0.0 else math.log(math.sin(t) / t)

    want, _ = quad(smooth, 0.0, math.pi / 3, epsabs=1e-15, epsrel=1e-14)
    got = entropy._smooth_integral(entropy.QUADRATURE_NODES)
    assert abs(got - want) <= 1e-14


def test_quadrature_error_estimate_above_tol_raises(monkeypatch):
    monkeypatch.setattr(entropy, "QUADRATURE_TOL", 1e-30)
    with pytest.raises(errors.ToleranceError):
        entropy.limit_entropy_quadrature()


def test_series_matches_quadrature():
    quad = entropy.limit_entropy_quadrature()
    ser = entropy.limit_entropy_series(1_000_000)
    assert abs(quad - ser) <= 1e-10


@pytest.mark.parametrize("terms", [10, 100, 1000])
def test_series_tail_bound(terms):
    """Partial sums converge like 1/N with the explicit constant 3*sqrt(3)/(8*pi)."""
    limit = entropy.limit_entropy_quadrature()
    err = abs(entropy.limit_entropy_series(terms) - limit)
    assert err <= 3.0 * math.sqrt(3.0) / (8.0 * math.pi * terms)


def _series_by_sign_array(terms):
    """The series as sign / n^2 over four terms-length arrays: the reference for the bits."""
    n = np.arange(1, terms + 1, dtype=float)
    sign = np.zeros(terms)
    sign[0::3] = 1.0
    sign[1::3] = -1.0
    partial = float(np.sum(sign / n**2)) * (math.sqrt(3) / 2)
    return (3 / (4 * math.pi)) * partial


def test_series_keeps_the_bits_of_the_sign_array_sum():
    # Around one block (8,192 terms) and across several levels of the split.
    sizes = [8191, 8192, 8193, 16391, 65543, 10**5, 123457, 999999, 10**6]
    for terms in [*range(1, 301), *sizes]:
        assert entropy.limit_entropy_series(terms).hex() == _series_by_sign_array(terms).hex(), terms


@pytest.mark.parametrize("terms", [10**6, 4 * 10**6, entropy.SERIES_TERMS_CAP])
def test_series_peak_does_not_grow_with_terms(terms):
    """One block of 8,192 terms is 64 KiB; one array of all terms would be 8 bytes a term."""
    tracemalloc.start()
    try:
        entropy.limit_entropy_series(terms)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024


def test_series_rejects_nonpositive_terms():
    with pytest.raises(errors.InvalidParamsError):
        entropy.limit_entropy_series(0)
    with pytest.raises(errors.InvalidParamsError):
        entropy.limit_entropy_series(10.5)


def test_series_above_the_cap_raises_before_allocating():
    terms = entropy.SERIES_TERMS_CAP + 1
    tracemalloc.start()
    try:
        with pytest.raises(errors.TooLargeError):
            entropy.limit_entropy_series(terms)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_convergence_report_shape():
    rep = entropy.convergence_report(60)
    assert rep.limit == pytest.approx(H_REF, abs=1e-8)
    assert [r.m for r in rep.rows] == list(range(3, 61))
    for row in rep.rows:
        assert row.delta == pytest.approx(row.h - rep.limit, abs=1e-15)


def test_convergence_is_monotone_per_residue_class_only():
    rep = entropy.convergence_report(60)
    assert rep.class_monotone == ((0, True), (1, True), (2, True))
    assert rep.overall_monotone is False


def test_h6_exceeds_the_limit():
    """|h(m) - h_inf| does not shrink monotonically in m; m = 6 overshoots."""
    rep = entropy.convergence_report(12)
    deltas = {r.m: r.delta for r in rep.rows}
    assert deltas[6] > 0
    assert deltas[5] < 0
    assert abs(deltas[6]) > abs(deltas[5])


def test_deep_rows_approach_limit():
    rep = entropy.convergence_report(240)
    tail = [abs(r.delta) for r in rep.rows if r.m >= 237]
    assert all(d < 1e-2 for d in tail)
    assert abs(rep.rows[-1].delta) < abs(rep.rows[0].delta)


def test_report_csv_format():
    rep = entropy.convergence_report(24)
    lines = rep.to_csv().splitlines()
    assert lines[0] == "m,h,delta"
    assert len(lines) == 1 + len(rep.rows)
    first = lines[1].split(",")
    assert int(first[0]) == 3
    assert float(first[1]) == pytest.approx(math.log(3.0) / 6.0, rel=1e-12)


def test_report_rejects_tiny_range():
    with pytest.raises(errors.InvalidParamsError):
        entropy.convergence_report(5)
    with pytest.raises(errors.InvalidParamsError):
        entropy.convergence_report(20.5)
