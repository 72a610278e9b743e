"""Entropy per vertex of the barrel family and its large-m limit.

Each family {F(m, k)}_k grows like rho(m)^k on 2m(k + 2) vertices, so
its entropy per vertex is h(m) = log(rho(m)) / (2m).  As m grows, h(m)
approaches the hexagonal-lattice dimer constant

    h_inf = -(3 / (2 pi)) * integral_0^{pi/3} log(2 sin t) dt,

computed here by two unrelated routes that must agree:

* quadrature: split off the exactly integrable log(2t) part and apply
  Gauss-Legendre quadrature to the smooth remainder log(sin t / t);
* closed form: integral_0^{pi/3} log(2 sin t) dt = -Cl2(pi/3) / 3, where
  Cl2(theta) = sum sin(n theta) / n^2 is the Clausen function, so
  h_inf = Cl2(pi/3) / (2 pi); Cl2 is summed from its Bernoulli-number
  expansion (Lewin, "Polylogarithms and associated functions", 1981).

The approach is not monotone: h(m) sits below h_inf for m = 1, 2 mod 3
and above it for m = 0 mod 3 (already h(6) > h_inf), so only the
per-residue-class trend is reported, never asserted globally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bethe import growth_constant
from .errors import FormulaMismatchError, InvalidParamsError, ToleranceError

H_INF_REFERENCE = 0.1615329736
LIMIT_AGREEMENT_TOL = 1e-14
# Largest accepted gap between the QUADRATURE_NODES and CHECK_NODES rules.
QUADRATURE_TOL = 1e-10
TABLE_CRITERION_TOL = 1e-3
# The remainder is analytic on [0, pi/3] and 8 nodes already reach rounding
# level; the 16-node value is used and its gap to the 8-node value is the
# error estimate.
QUADRATURE_NODES = 16
CHECK_NODES = 8
# B_2, B_4, .. B_16 as (numerator, denominator).  At theta = pi/3 each term of
# the Clausen expansion is about 1/36 of the one before; the first one left
# out (B_18) is below half an ulp of h_inf.
_BERNOULLI = ((1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6), (-3617, 510))


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


def limit_entropy_closed_form() -> float:
    """h_inf = Cl2(pi/3) / (2 pi) with the Clausen function in closed form.

    Cl2(theta) = theta - theta log theta
                 + sum_{k>=1} |B_2k| theta^(2k+1) / (2k (2k+1)!)
    for 0 < theta < 2 pi, B_2k being the Bernoulli numbers; the terms
    k = 1 .. 8 reach rounding level at theta = pi/3.
    """
    theta = math.pi / 3
    cl2 = theta - theta * math.log(theta)
    for k, (num, den) in enumerate(_BERNOULLI, start=1):
        cl2 += abs(num) * theta ** (2 * k + 1) / (den * 2 * k * math.factorial(2 * k + 1))
    return cl2 / (2 * math.pi)


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
