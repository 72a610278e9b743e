"""Self-validation suite: every cross-route identity the package promises.

The same criteria back the test suite and the CLI `validate` command, so
CI and users run identical checks.  Levels: "fast" shrinks instance
sizes to a few seconds of work, "full" runs the complete list.  Each
criterion returns pass/fail with a human-readable detail instead of
raising, so one failure never hides the others.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass

from . import bethe, entropy, paths, transfer
from .errors import InvalidParamsError
from .graph import BarrelParams, build_graph, count_matchings_brute, validate_structure

SAMPLER_SEED = 20260814
CHI2_QUANTILE = 0.999
# Critical value of the sampler criterion: the CHI2_QUANTILE quantile of the
# chi-square distribution with 27 degrees of freedom (the 28 matchings of
# F(3, 1)), found by inverting the incomplete-gamma series to the nearest
# double.  tests/test_validate.py checks it against scipy.
CHI2_CRITICAL = 55.47602020575424


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str
    seconds: float


def _first_mismatch(name: str, count, grid) -> str | None:
    """Detail of the first (m, k) in grid where count differs from the transfer count."""
    for m, k in grid:
        lhs = count(m, k)
        rhs = transfer.count_matchings_transfer(m, k)
        if lhs != rhs:
            return f"F({m},{k}): {name} {lhs} != transfer {rhs}"
    return None


def _check_closed_forms(fast: bool) -> tuple[bool, str]:
    k_max = 6 if fast else 20
    grid = [(m, k) for m in (3, 4, 5) for k in range(k_max + 1)]
    failure = _first_mismatch("closed form", transfer.closed_form_345, grid)
    return failure is None, failure or f"closed form == transfer for m in 3..5, k in 0..{k_max}"


def _brute_count(m: int, k: int) -> int:
    g = build_graph(BarrelParams(m, k))
    validate_structure(g)
    return count_matchings_brute(g)


def _check_brute_vs_transfer(fast: bool) -> tuple[bool, str]:
    if fast:
        grid = [(m, k) for m in (3, 4, 5) for k in (0, 1)] + [(3, 2)]
    else:
        grid = [(m, k) for m in (3, 4, 5, 6) for k in (0, 1, 2)] + [(3, 3), (4, 3)]
    failure = _first_mismatch("brute", _brute_count, grid)
    return failure is None, failure or f"brute == transfer on {len(grid)} instances"


def _check_paths_vs_transfer(fast: bool) -> tuple[bool, str]:
    ms = (3, 4, 5) if fast else (3, 4, 5, 6)
    k_max = 2 if fast else 5
    grid = [(m, k) for m in ms for k in range(k_max + 1)]
    failure = _first_mismatch("paths", paths.total_via_paths, grid)
    return failure is None, failure or f"paths == transfer for m in {ms}, k in 0..{k_max}"


def _weight_draws(seed: int, m_max: int, draws: int):
    """(m, p, b, c) for every sector of 3 <= m <= m_max, draws times each;
    b, then c, uniform on [0.5, 2] from one seeded generator."""
    rng = random.Random(seed)
    for m in range(3, m_max + 1):
        for p in range(0, m + 1):
            for _ in range(draws):
                yield m, p, rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)


def _check_bethe_residuals(fast: bool) -> tuple[bool, str]:
    m_max = 5 if fast else 8
    draws = 2 if fast else 10
    worst = max(bethe.verify_sector(*draw).max_residual  # raises on failure
                for draw in _weight_draws(271828, m_max, draws))
    return True, f"all sectors m <= {m_max}, {draws} draws: max residual {worst:.2e}"


def _check_roots_identity(fast: bool) -> tuple[bool, str]:
    m_max = 8 if fast else 20
    draws = 5 if fast else 20
    worst = 0.0
    for m, p, b, c in _weight_draws(314159, m_max, draws):
        dev = bethe.roots_identity_check(m, p, b, c)
        scale = abs(b) ** m + abs(c) ** m
        if dev > 1e-9 * scale:
            return False, f"(m={m}, p={p}, b={b:.3f}, c={c:.3f}): deviation {dev:.2e}"
        worst = max(worst, dev / scale)
    return True, f"root product identity to {worst:.2e} relative, m <= {m_max}"


def _check_growth_constants(fast: bool) -> tuple[bool, str]:
    m_max = 32 if fast else 64
    for m in range(3, m_max + 1):
        bethe.growth_constant(m)  # raises FormulaMismatchError on route disagreement
    pinned = [(3, 3.0), (4, 2 + math.sqrt(2)), (5, 5.0)]
    for m, want in pinned:
        got = bethe.growth_constant(m)
        if abs(got - want) > 1e-12 * want:
            return False, f"rho({m}) = {got!r} != {want!r}"
    return True, f"rho routes agree for 3 <= m <= {m_max}; rho(3), rho(4), rho(5) pinned"


def _check_empirical_growth(fast: bool) -> tuple[bool, str]:
    ms = (3, 4) if fast else (3, 4, 5, 6)
    for m in ms:
        rho = bethe.growth_constant(m)
        hi = transfer.count_matchings_transfer(m, 61)
        lo = transfer.count_matchings_transfer(m, 60)
        ratio = hi / lo  # int / int is correctly rounded
        if abs(ratio - rho) > 1e-6 * rho:
            return False, f"m={m}: Phi ratio {ratio!r} vs rho {rho!r}"
    return True, f"Phi(m,61)/Phi(m,60) within 1e-6 of rho for m in {ms}"


def _check_sector_concentration(fast: bool) -> tuple[bool, str]:
    k = 20 if fast else 40
    dominant = transfer.sector_count(5, k, 1)
    total = transfer.count_matchings_transfer(5, k)
    if 1000 * dominant < 999 * total:
        return False, f"p=1 share of Phi(F(5,{k})) is {dominant / total:.6f} < 0.999"
    return True, f"p=1 sector holds {dominant / total:.6f} of Phi(F(5,{k}))"


def _check_leading_eigenterm(fast: bool) -> tuple[bool, str]:
    m_max = 32 if fast else 64
    for m in range(3, m_max + 1):
        paths.leading_n_consistency(m)  # raises FormulaMismatchError on failure
    return True, f"eigenterm(n) == lambda_max(m-n), maximizer n0, for 3 <= m <= {m_max}"


def _check_aggregate_coefficients(fast: bool) -> tuple[bool, str]:
    closed_forms = ((3, "3^(k+2)", lambda k: 3 ** (k + 2)),
                    (4, "2(2+sqrt2)^(k+1)", lambda k: 2 * (2 + math.sqrt(2)) ** (k + 1)))
    for m, formula, closed in closed_forms:
        for k in (4, 5):
            value, want = paths.aggregate_estimate(m, k).value, closed(k)
            if abs(value - want) > 1e-12 * want:
                return False, f"m={m} k={k}: aggregate {value!r} != {formula} = {want!r}"
    return True, "aggregate = 9 * 3^k (m=3) and 2 (2+sqrt2)^(k+1) (m=4) to 1e-12"


def _check_dp_estimate_cauchy(fast: bool) -> tuple[bool, str]:
    k_last = 36 if fast else 40
    ratios = {k: paths.dp_estimate_ratio(4, k, [0, 2], [0, 2])
              for k in range(28, k_last + 1)}
    for k in range(30, k_last - 1):
        gap = abs(ratios[k + 2] - ratios[k])
        if gap > 1e-3:
            return False, f"k={k}: successive ratio gap {gap:.2e} > 1e-3"
    final = ratios[k_last]
    if abs(final - 1.0) > 0.02:
        return False, f"ratio at k={k_last} is {final!r}, outside 1 +- 2%"
    return True, f"DP/estimate ratio Cauchy; value {final:.12f} at k={k_last}"


def _check_entropy(fast: bool) -> tuple[bool, str]:
    by_quad = entropy.limit_entropy_quadrature()
    by_closed_form = entropy.limit_entropy_closed_form()
    gap = abs(by_quad - by_closed_form)
    if gap > entropy.LIMIT_AGREEMENT_TOL:
        return False, f"quadrature {by_quad!r} vs closed form {by_closed_form!r}: gap {gap:.2e}"
    ref_gap = abs(by_quad - entropy.H_INF_REFERENCE)
    if ref_gap > 1e-8:
        return False, f"limit {by_quad!r} vs pinned reference: gap {ref_gap:.2e}"
    for m in (998, 999, 1000):
        delta = abs(entropy.entropy_of_family(m) - by_quad)
        if delta > entropy.TABLE_CRITERION_TOL:
            return False, f"|h({m}) - h_inf| = {delta:.2e} > 1e-3"
    return True, f"routes agree to {gap:.2e}; h(998..1000) within 1e-3 of the limit"


def _check_sampler(fast: bool) -> tuple[bool, str]:
    n_samples = 28 * (100 if fast else 1000)
    sampler = transfer.UniformSampler(3, 1)
    if sampler.total != 28:
        return False, f"F(3,1) has {sampler.total} matchings, expected 28"
    rng = random.Random(SAMPLER_SEED)
    freqs: dict[frozenset[int], int] = {}
    for _ in range(n_samples):
        key = sampler.draw(rng).edges
        freqs[key] = freqs.get(key, 0) + 1
    if len(freqs) != 28:
        return False, f"only {len(freqs)} of 28 matchings observed"
    expected = n_samples / 28
    stat = sum((obs - expected) ** 2 / expected for obs in freqs.values())
    if stat > CHI2_CRITICAL:
        return False, f"chi-square {stat:.2f} > {CHI2_CRITICAL:.2f} (27 dof, q={CHI2_QUANTILE})"
    return True, f"chi-square {stat:.2f} < {CHI2_CRITICAL:.2f} on {n_samples} seeded samples"


CRITERIA: tuple[tuple[int, str, object], ...] = (
    (1, "golden-closed-forms", _check_closed_forms),
    (2, "brute-vs-transfer", _check_brute_vs_transfer),
    (3, "paths-vs-transfer", _check_paths_vs_transfer),
    (4, "bethe-residuals", _check_bethe_residuals),
    (5, "roots-identity", _check_roots_identity),
    (6, "growth-constants", _check_growth_constants),
    (7, "empirical-growth", _check_empirical_growth),
    (8, "sector-concentration", _check_sector_concentration),
    (9, "leading-eigenterm", _check_leading_eigenterm),
    (10, "aggregate-coefficients", _check_aggregate_coefficients),
    (11, "dp-estimate-cauchy", _check_dp_estimate_cauchy),
    (12, "entropy-limit", _check_entropy),
    (13, "sampler-uniformity", _check_sampler),
)


def run_criteria(level: str = "fast") -> list[CriterionResult]:
    if level not in ("fast", "full"):
        raise InvalidParamsError(f"unknown validation level {level!r}")
    fast = level == "fast"
    results = []
    for index, name, fn in CRITERIA:
        t0 = time.perf_counter()
        try:
            passed, detail = fn(fast)
        except Exception as exc:  # a raising criterion is a failing criterion
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        results.append(CriterionResult(index, name, passed, detail,
                                       time.perf_counter() - t0))
    return results
