"""Tests of the validation registry's own helpers."""

from __future__ import annotations

import pytest
from scipy.stats import chi2

from barreldimer import errors, validate


@pytest.mark.parametrize("q", [0.5, 0.9, 0.99, 0.999])
def test_chi2_quantile_matches_scipy(q):
    for dof in range(1, 61):
        want = chi2.ppf(q, dof)
        assert validate._chi2_quantile(q, dof) == pytest.approx(want, rel=1e-10, abs=0)


@pytest.mark.parametrize("q,dof", [(0.0, 5), (1.0, 5), (0.5, 0)])
def test_chi2_quantile_rejects_bad_arguments(q, dof):
    with pytest.raises(errors.InvalidParamsError):
        validate._chi2_quantile(q, dof)


def test_unknown_level_is_invalid_params():
    with pytest.raises(errors.InvalidParamsError):
        validate.run_criteria("medium")
