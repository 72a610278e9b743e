"""Entropy per vertex of the barrel family and its large-m limit.

Each family {F(m, k)}_k grows like rho(m)^k on 2m(k + 2) vertices, so
its entropy per vertex is h(m) = log(rho(m)) / (2m).  As m grows, h(m)
approaches the hexagonal-lattice dimer constant

    h_inf = -(3 / (2 pi)) * integral_0^{pi/3} log(2 sin t) dt,

computed here by two unrelated routes that must agree:

* quadrature: split off the exactly integrable log(2t) part and apply
  Gauss-Legendre quadrature to the smooth remainder log(sin t / t);
* series: integral_0^theta log(2 sin t) dt = -(1/2) sum sin(2 n theta)/n^2
  evaluated at theta = pi/3, where the sine takes the period-3 pattern
  (sqrt(3)/2, -sqrt(3)/2, 0) and the tail is bounded by 1/(2N).

The approach is not monotone: h(m) sits below h_inf for m = 1, 2 mod 3
and above it for m = 0 mod 3 (already h(6) > h_inf), so only the
per-residue-class trend is reported, never asserted globally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bethe import growth_constant
from .errors import FormulaMismatchError, InvalidParamsError, TooLargeError, ToleranceError

H_INF_REFERENCE = 0.1615329736
LIMIT_AGREEMENT_TOL = 1e-10
# Largest accepted gap between the QUADRATURE_NODES and CHECK_NODES rules.
QUADRATURE_TOL = 1e-10
TABLE_CRITERION_TOL = 1e-3
# The remainder is analytic on [0, pi/3] and 8 nodes already reach rounding
# level; the 16-node value is used and its gap to the 8-node value is the
# error estimate.
QUADRATURE_NODES = 16
CHECK_NODES = 8
# Most terms limit_entropy_series sums.  Its memory does not grow with the
# count, so the cap bounds run time and keeps n * n exact in floats, which
# holds while n < 2^26.5.
SERIES_TERMS_CAP = 2**25
# Longest run of terms held as one array: 64 KiB, below glibc's 128 KiB mmap
# threshold, so freeing a block never moves that threshold.
_SERIES_BLOCK = 8192


def entropy_of_family(m: int) -> float:
    """h(m) = log(rho(m)) / (2m)."""
    return math.log(growth_constant(m)) / (2 * m)


def _smooth_integral(nodes: int) -> float:
    """integral_0^{pi/3} log(sin t / t) dt by Gauss-Legendre with the given node count."""
    import numpy as np
    from numpy.polynomial.legendre import leggauss

    half = math.pi / 6
    x, w = leggauss(nodes)
    t = half * (x + 1.0)  # interior nodes, never t = 0
    return half * math.fsum(w * np.log(np.sin(t) / t))


def limit_entropy_quadrature() -> float:
    """h_inf by Gauss-Legendre quadrature with an exact singular part.

    integral_0^{pi/3} log(2 sin t) dt
        = (pi/3)(log(2 pi / 3) - 1) + integral_0^{pi/3} log(sin t / t) dt,
    the remaining integrand being analytic (value 0 at t = 0).  The gap
    to a rule with fewer nodes is the error estimate; above QUADRATURE_TOL
    it raises ToleranceError.
    """
    upper = math.pi / 3
    exact_part = upper * (math.log(2 * upper) - 1)
    smooth_part = _smooth_integral(QUADRATURE_NODES)
    err = abs(smooth_part - _smooth_integral(CHECK_NODES))
    if err > QUADRATURE_TOL:
        raise ToleranceError(f"quadrature error estimate {err:.2e} exceeds {QUADRATURE_TOL:.1e}")
    return -(3 / (2 * math.pi)) * (exact_part + smooth_part)


def _series_segment(lo: int, hi: int) -> float:
    """Sum of sign / n^2 for n = lo + 1 .. hi, split as numpy's pairwise sum splits.

    numpy sums a 1-D float array by halving it at n2 = n // 2 - (n // 2) % 8
    until a piece is short, then adding the two halves.  A segment of at
    most _SERIES_BLOCK terms is one such subtree: its own array, summed by
    np.sum, gives the bits it has inside the whole array.
    """
    import numpy as np

    n = hi - lo
    if n > _SERIES_BLOCK:
        n2 = n // 2 - (n // 2) % 8
        return _series_segment(lo, lo + n2) + _series_segment(lo + n2, hi)
    # ** 2 is n * n and ** -1 is 1.0 / x, each term as in the whole array.
    block = (np.arange(lo + 1, hi + 1, dtype=float) ** 2) ** -1
    block[(1 - lo) % 3 :: 3] *= -1.0  # n = 2 mod 3
    block[(2 - lo) % 3 :: 3] = 0.0  # n = 0 mod 3
    return float(np.sum(block))


def limit_entropy_series(terms: int = 10**6) -> float:
    """h_inf by the Fourier series; absolute tail below 3/(4 pi N).

    -(1/2) sum_{n>=1} sin(2 pi n / 3) / n^2 equals the integral; the sine
    is sqrt(3)/2 times the pattern +1, -1, 0 for n = 1, 2, 0 mod 3.
    The terms are formed and summed in blocks of at most _SERIES_BLOCK
    along numpy's pairwise tree, so the sum has the bits of np.sum over
    one array of sign / n^2 while memory stays at one block.
    More than SERIES_TERMS_CAP terms raise TooLargeError before any allocation.
    """
    if type(terms) is not int or terms < 1:
        raise InvalidParamsError(f"terms must be an int >= 1, got {terms!r}")
    if terms > SERIES_TERMS_CAP:
        raise TooLargeError(f"terms={terms} exceeds the series cap {SERIES_TERMS_CAP}")
    partial = _series_segment(0, terms) * (math.sqrt(3) / 2)
    return (3 / (4 * math.pi)) * partial


@dataclass(frozen=True)
class EntropyRow:
    m: int
    h: float
    delta: float  # h(m) - h_inf


@dataclass(frozen=True)
class EntropyReport:
    limit: float
    rows: tuple[EntropyRow, ...]
    class_monotone: tuple[tuple[int, bool], ...]  # residue of m mod 3 -> |delta| decreasing
    overall_monotone: bool

    def to_csv(self) -> str:
        lines = ["m,h,delta"]
        lines.extend(f"{row.m},{row.h:.17g},{row.delta:.17g}" for row in self.rows)
        return "\n".join(lines) + "\n"


def convergence_report(m_max: int = 60) -> EntropyReport:
    """Tabulate h(m) - h_inf for m = 3 .. m_max.

    When the table reaches m = 1000 the three last families must sit
    within 1e-3 of the limit; the monotonicity of the approach is only
    reported per residue class of m mod 3 (the global sequence is not
    monotone and m = 0 mod 3 approaches from above).
    """
    if type(m_max) is not int or m_max < 10:
        raise InvalidParamsError(f"m_max must be an int >= 10, got {m_max!r}")
    limit = limit_entropy_quadrature()
    rows = []
    for m in range(3, m_max + 1):
        h = entropy_of_family(m)
        rows.append(EntropyRow(m, h, h - limit))

    if m_max >= 1000:
        for row in rows:
            if row.m in (998, 999, 1000) and abs(row.delta) > TABLE_CRITERION_TOL:
                raise FormulaMismatchError(
                    f"h({row.m}) deviates from the limit by {row.delta:.3e} > 1e-3")

    class_monotone = []
    for residue in range(3):
        deltas = [abs(row.delta) for row in rows if row.m % 3 == residue and row.m >= 9]
        decreasing = all(a > b for a, b in zip(deltas, deltas[1:]))
        class_monotone.append((residue, decreasing))
    all_deltas = [abs(row.delta) for row in rows]
    overall = all(a > b for a, b in zip(all_deltas, all_deltas[1:]))
    return EntropyReport(limit, tuple(rows), tuple(class_monotone), overall)
