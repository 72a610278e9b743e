"""Tests of the validation registry's own helpers and of its criteria's details."""

from __future__ import annotations

import types

import pytest
from scipy.stats import chi2

from barreldimer import bethe, entropy, errors, paths, transfer, validate


@pytest.mark.parametrize("q", [0.5, 0.9, 0.99, 0.999])
def test_chi2_quantile_matches_scipy(q):
    """The pinned critical value is scipy's CHI2_QUANTILE quantile of chi-square
    with 27 dof, and lies above every lower quantile."""
    want = chi2.ppf(q, 27)
    if q == validate.CHI2_QUANTILE:
        assert validate.CHI2_CRITICAL == pytest.approx(want, rel=1e-12, abs=0)
    else:
        assert q < validate.CHI2_QUANTILE
        assert validate.CHI2_CRITICAL > want


def test_unknown_level_is_invalid_params():
    with pytest.raises(errors.InvalidParamsError):
        validate.run_criteria("medium")


def _fast_detail(name: str) -> tuple[bool, str]:
    """(passed, detail) of one criterion at --level fast."""
    (fn,) = [fn for _, criterion, fn in validate.CRITERIA if criterion == name]
    return fn(True)


@pytest.mark.parametrize("name,detail", [
    ("empirical-growth", "Phi(m,61)/Phi(m,60) within 1e-6 of rho for m in (3, 4)"),
    ("sector-concentration", "p=1 sector holds 0.999690 of Phi(F(5,20))"),
    ("aggregate-coefficients",
     "aggregate = 9 * 3^k (m=3) and 2 (2+sqrt2)^(k+1) (m=4) to 1e-12"),
])
def test_passing_criterion_details_are_pinned(name, detail):
    assert _fast_detail(name) == (True, detail)


@pytest.mark.parametrize("bad_m,detail", [
    (3, "m=3: Phi ratio 3.0 vs rho 3.0000300000000006"),
    (4, "m=4: Phi ratio 3.414213562373076 vs rho 3.414247704508719"),
])
def test_empirical_growth_failure_prints_the_ratio(monkeypatch, bad_m, detail):
    """The exact ratio Phi(m,61)/Phi(m,60), correctly rounded, printed by repr."""
    real = bethe.growth_constant
    monkeypatch.setattr(bethe, "growth_constant",
                        lambda m: real(m) * (1 + 1e-5) if m == bad_m else real(m))
    assert _fast_detail("empirical-growth") == (False, detail)


@pytest.mark.parametrize("dominant,total,result", [
    (None, None, (False, "p=1 share of Phi(F(5,20)) is 0.997691 < 0.999")),
    (999, 1000, (True, "p=1 sector holds 0.999000 of Phi(F(5,20))")),
    (998_999, 1_000_000, (False, "p=1 share of Phi(F(5,20)) is 0.998999 < 0.999")),
])
def test_sector_concentration_threshold_is_exact(monkeypatch, dominant, total, result):
    """A share of exactly 0.999 passes and one a millionth below it fails; the
    first case scales the true p=1 count by 998/1000."""
    real = transfer.sector_count
    if dominant is None:
        monkeypatch.setattr(transfer, "sector_count", lambda m, k, p: real(m, k, p) * 998 // 1000)
    else:
        monkeypatch.setattr(transfer, "sector_count", lambda m, k, p: dominant)
        monkeypatch.setattr(transfer, "count_matchings_transfer", lambda m, k: total)
    assert _fast_detail("sector-concentration") == result


@pytest.mark.parametrize("bad_m,detail", [
    (3, "m=3 k=4: aggregate 729.0000007290005 != 3^(k+2) = 729"),
    (4, "m=4 k=4: aggregate 927.862049386237 != 2(2+sqrt2)^(k+1) = 927.862048458375"),
])
def test_aggregate_coefficient_failure_names_its_closed_form(monkeypatch, bad_m, detail):
    real = paths.aggregate_estimate

    def perturbed(m, k):
        value = real(m, k).value
        return types.SimpleNamespace(value=value * (1 + 1e-9) if m == bad_m else value)

    monkeypatch.setattr(paths, "aggregate_estimate", perturbed)
    assert _fast_detail("aggregate-coefficients") == (False, detail)


def test_entropy_limit_failure_names_the_closed_form(monkeypatch):
    """A closed form off by a relative 1e-12 sits 1.6e-13 from the quadrature,
    far above the 1e-14 agreement tolerance."""
    real = entropy.limit_entropy_closed_form
    monkeypatch.setattr(entropy, "limit_entropy_closed_form", lambda: real() * (1 + 1e-12))
    assert _fast_detail("entropy-limit") == (
        False, "quadrature 0.16153297360972527 vs closed form 0.16153297360988675: gap 1.61e-13")
