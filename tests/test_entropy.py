"""Entropy tests: per-family values, the limiting constant, convergence report."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from fractions import Fraction

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


def test_closed_form_matches_quadrature():
    quad = entropy.limit_entropy_quadrature()
    assert abs(quad - entropy.limit_entropy_closed_form()) <= 1e-14


def test_closed_form_matches_reference_constant():
    assert entropy.limit_entropy_closed_form() == pytest.approx(entropy.H_INF_REFERENCE, abs=1e-10)


def test_closed_form_matches_the_clausen_fourier_series():
    """Cl2(pi/3) = sum sin(n pi / 3) / n^2, summed by math.fsum to N terms.

    The partial sums of sin(n pi / 3) are bounded by 1 / sin(pi / 6) = 2, so
    by Abel summation the tail past N is at most 2 / (N + 1)^2.
    """
    terms = 10**5
    theta = math.pi / 3
    cl2 = math.fsum(math.sin(n * theta) / (n * n) for n in range(1, terms + 1))
    tail = 2.0 / (terms + 1) ** 2
    assert abs(entropy.limit_entropy_closed_form() - cl2 / (2 * math.pi)) <= (tail + 1e-15) / (2 * math.pi)


def test_closed_form_holds_the_bernoulli_numbers():
    """B_2 .. B_16 from sum_{j<=n} C(n+1, j) B_j = 0; the last ones sit below the 1e-14 check."""
    b = [Fraction(1)]
    for n in range(1, 17):
        b.append(-sum(math.comb(n + 1, j) * b[j] for j in range(n)) / (n + 1))
    assert [Fraction(num, den) for num, den in entropy._BERNOULLI] == b[2::2]


def test_closed_form_loads_neither_numpy_nor_fractions():
    code = ("import sys\n"
            "from barreldimer import entropy\n"
            "entropy.limit_entropy_closed_form()\n"
            "print('numpy' in sys.modules, 'fractions' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False False"


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
