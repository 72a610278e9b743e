"""Tests of the validation registry's own helpers."""

from __future__ import annotations

import pytest
from scipy.stats import chi2

from barreldimer import errors, validate


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
