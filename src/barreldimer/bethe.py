"""Bethe-Ansatz diagonalization of the transfer operator's sectors.

The operator preserves profile cardinality, so it splits into blocks B_p
indexed by p-subsets of I_m.  Each block is diagonalized by free-fermion
determinant vectors: for the sector-p root set

    U_{p,m} = { z : z^m = (-1)^(p+1) },   z_r = exp(i pi (2r + eps) / m),
    eps = 1 if p even else 0,  r = 0 .. m-1,

every p-element selection R of root indices yields the eigenvector with
amplitudes det( z_{R_i}^{l_j} ) over subsets {l_1 < .. < l_p} and the
eigenvalue given by the complementary product

    lambda(R) = prod_{r not in R} (b - c z_r),

finite for all (b, c) including b = c.  Multiplying over the whole root
set recovers the integer polynomial b^m + (-1)^p c^m exactly, which is
the identity the complementary form is checked against.

At b = c = 1 the largest eigenvalue of B_p is

    p = 2q:    2 / prod_{r=0}^{q-1} 4 sin^2( pi (2r+1) / (2m) )
    p = 2q+1:  m / prod_{r=1}^{q}   4 sin^2( pi r / m )

and over sectors of the correct parity it is maximized at exactly
p0 = m - 2 floor((m+1)/3); the growth constant of the family is

    rho(m) = prod_{j=1}^{floor((m+1)/3)} ( 2 cos( pi (2j-1) / (2m) ) )^2,

computed by both routes and cross-checked to 1e-12 before being trusted.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    DegenerateRootsError,
    FormulaMismatchError,
    InvalidParamsError,
    PositivityViolationError,
    RankDeficientError,
    ResidualExceededError,
    SectorError,
    StructuralViolationError,
    TooLargeError,
)
from .transfer import _row_monomials, boundary_vector, mask_elements

VERIFY_M_CAP = 8
RESIDUAL_TOL = 1e-9
CROSSCHECK_TOL = 1e-12


def _check_sector(m: int, p: int) -> None:
    if m < 3:
        raise InvalidParamsError(f"m must be >= 3, got {m}")
    if not 0 <= p <= m:
        raise SectorError(f"sector p={p} outside [0, {m}]")


def roots_for_sector(m: int, p: int) -> tuple[complex, ...]:
    """The m solutions of z^m = (-1)^(p+1) in canonical index order."""
    _check_sector(m, p)
    eps = 1 if p % 2 == 0 else 0
    return tuple(cmath.exp(1j * math.pi * (2 * r + eps) / m) for r in range(m))


def selections_for_sector(m: int, p: int) -> tuple[tuple[int, ...], ...]:
    """All p-element root-index selections, in colex order."""
    _check_sector(m, p)
    return tuple(sorted(itertools.combinations(range(m), p), key=lambda t: t[::-1]))


@dataclass(frozen=True)
class BetheVector:
    """Determinant eigenvector of sector p, independent of (b, c).

    basis holds the p-subset bitmasks in ascending (colex) order and
    amplitudes the aligned determinant values.
    """

    m: int
    p: int
    selection: tuple[int, ...]
    basis: tuple[int, ...]
    amplitudes: tuple[complex, ...]


@lru_cache(maxsize=64)
def _block_basis(m: int, p: int) -> tuple[int, ...]:
    """Masks of cardinality p, ascending (= colex order on subsets)."""
    return tuple(mask for mask in range(1 << m) if bin(mask).count("1") == p)


def complementary_eigenvalue(m: int, p: int, selection: tuple[int, ...],
                             b: float = 1.0, c: float = 1.0) -> complex:
    roots = roots_for_sector(m, p)
    chosen = set(selection)
    lam = 1.0 + 0.0j
    for r, z in enumerate(roots):
        if r not in chosen:
            lam *= b - c * z
    return lam


def bethe_eigenpair(m: int, p: int, selection, b: float = 1.0, c: float = 1.0
                    ) -> tuple[BetheVector, complex]:
    """Eigenvector amplitudes and complementary-product eigenvalue for one selection."""
    _check_sector(m, p)
    sel = tuple(sorted(selection))
    if len(sel) != p:
        raise SectorError(f"selection size {len(sel)} != p = {p}")
    if len(set(sel)) != p:
        raise DegenerateRootsError(f"repeated root indices in {sel}")
    if sel and not (0 <= sel[0] and sel[-1] < m):
        raise SectorError(f"root indices {sel} outside [0, {m})")
    lam = complementary_eigenvalue(m, p, sel, b, c)
    return BetheVector(m, p, sel, _block_basis(m, p), _amplitudes(m, p, sel)), lam


# verify_sector draws several (b, c) per sector in a row and reuses each of
# its C(m, p) <= 70 selections (m <= VERIFY_M_CAP) per draw.
@lru_cache(maxsize=256)
def _amplitudes(m: int, p: int, sel: tuple[int, ...]) -> tuple[complex, ...]:
    """det(z_{R_i}^{l_j}) for every basis subset; sel is sorted and valid."""
    roots = roots_for_sector(m, p)
    zs = [roots[r] for r in sel]
    amps: list[complex] = []
    for mask in _block_basis(m, p):
        ls = mask_elements(mask)
        if p == 0:
            amps.append(1.0 + 0.0j)
        elif p == 1:
            amps.append(zs[0] ** ls[0])
        else:
            mat = np.array([[z ** l for l in ls] for z in zs], dtype=complex)
            amps.append(complex(np.linalg.det(mat)))
    return tuple(amps)


def eigenvalue_direct(m: int, p: int, selection, b: float, c: float) -> complex:
    """Quotient form (c^m + (-1)^p b^m) / prod_{r in R} (c z_r - b).

    Equal to the complementary product wherever the denominator is
    nonzero; kept as an independent cross-check of the closed form.
    """
    roots = roots_for_sector(m, p)
    denom = 1.0 + 0.0j
    for r in selection:
        denom *= c * roots[r] - b
    num = c**m + (-1) ** p * b**m
    return num / denom


def roots_identity_check(m: int, p: int, b: float, c: float) -> float:
    """|prod over all sector roots of (b - c z) - (b^m + (-1)^p c^m)|, exactly 0 in theory."""
    _check_sector(m, p)
    prod = 1.0 + 0.0j
    for z in roots_for_sector(m, p):
        prod *= b - c * z
    return abs(prod - (b**m + (-1) ** p * c**m))


# ---------------------------------------------------------------------------
# numeric sector verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectrumEntry:
    selection: tuple[int, ...]
    roots: tuple[complex, ...]
    eigenvalue: complex
    residual: float
    omega_overlap: complex


@dataclass(frozen=True)
class SectorSpectrum:
    m: int
    p: int
    b: float
    c: float
    dimension: int
    rank: int
    max_residual: float
    entries: tuple[SpectrumEntry, ...]


def _dense_block(m: int, p: int, b: float, c: float) -> tuple[np.ndarray, tuple[int, ...]]:
    basis = _block_basis(m, p)
    index = {mask: i for i, mask in enumerate(basis)}
    mat = np.zeros((len(basis), len(basis)))
    for i, mask in enumerate(basis):
        for t_mask, mono in _row_monomials(m, mask):
            mat[i, index[t_mask]] += mono.evaluate(b, c)
    return mat, basis


def verify_sector(m: int, p: int, b: float = 1.0, c: float = 1.0) -> SectorSpectrum:
    """Check every Bethe eigenpair of block B_p against the dense matrix.

    Residual ||B v - lambda v||_2 / ||v||_2 must stay below RESIDUAL_TOL
    for all C(m, p) selections, and the vectors must span the block.  A NaN
    residual fails the check; weights whose block entries overflow a float
    raise InvalidParamsError.
    """
    _check_sector(m, p)
    if not (math.isfinite(b) and math.isfinite(c)):
        raise InvalidParamsError(f"weights must be finite, got b={b}, c={c}")
    if m > VERIFY_M_CAP:
        raise TooLargeError(f"m={m} exceeds dense verification cap {VERIFY_M_CAP}")
    try:
        block, basis = _dense_block(m, p, b, c)
    except OverflowError:
        raise InvalidParamsError(
            f"weights b={b}, c={c} overflow a float in sector (m={m}, p={p})") from None
    roots = roots_for_sector(m, p)
    omega = boundary_vector(m)
    omega_vec = np.array([omega.get(mask, 0) for mask in basis], dtype=float)

    entries: list[SpectrumEntry] = []
    vectors = np.zeros((math.comb(m, p), len(basis)), dtype=complex)
    for row, sel in enumerate(selections_for_sector(m, p)):
        vec, lam = bethe_eigenpair(m, p, sel, b, c)
        v = np.array(vec.amplitudes, dtype=complex)
        residual = float(np.linalg.norm(block @ v - lam * v) / np.linalg.norm(v))
        vectors[row] = v
        entries.append(SpectrumEntry(
            selection=sel,
            roots=tuple(roots[r] for r in sel),
            eigenvalue=lam,
            residual=residual,
            omega_overlap=complex(omega_vec @ v),
        ))
    worst = float(np.max([e.residual for e in entries]))  # NaN propagates
    if not worst <= RESIDUAL_TOL:
        raise ResidualExceededError(
            f"sector (m={m}, p={p}, b={b}, c={c}): residual {worst:.3e} > {RESIDUAL_TOL:.1e}")
    rank = int(np.linalg.matrix_rank(vectors))
    if rank != math.comb(m, p):
        raise RankDeficientError(
            f"sector (m={m}, p={p}): eigenvectors span rank {rank} < {math.comb(m, p)}")
    return SectorSpectrum(m, p, b, c, math.comb(m, p), rank, worst, tuple(entries))


# ---------------------------------------------------------------------------
# extremal eigenvalues and the growth constant
# ---------------------------------------------------------------------------

def lambda_max_sector(m: int, p: int) -> float:
    """Largest eigenvalue of sector p at b = c = 1, in closed form."""
    _check_sector(m, p)
    if p % 2 == 0:
        q = p // 2
        denom = 1.0
        for r in range(q):
            denom *= 4 * math.sin(math.pi * (2 * r + 1) / (2 * m)) ** 2
        return 2.0 / denom
    q = (p - 1) // 2
    denom = 1.0
    for r in range(1, q + 1):
        denom *= 4 * math.sin(math.pi * r / m) ** 2
    return m / denom


def p_zero(m: int) -> int:
    """Sector carrying the largest eigenvalue overall: m - 2 floor((m+1)/3)."""
    if m < 3:
        raise InvalidParamsError(f"m must be >= 3, got {m}")
    return m - 2 * ((m + 1) // 3)


def n_zero(m: int) -> int:
    """Complementary walker number 2 floor((m+1)/3) = m - p_zero(m)."""
    if m < 3:
        raise InvalidParamsError(f"m must be >= 3, got {m}")
    return 2 * ((m + 1) // 3)


def growth_constant(m: int) -> float:
    """rho(m), by the cosine product, cross-checked against lambda_max of p0.

    Raises FormulaMismatchError if the two routes disagree beyond 1e-12
    relative; never silently prefers one.
    """
    if m < 3:
        raise InvalidParamsError(f"m must be >= 3, got {m}")
    prod = 1.0
    for j in range(1, (m + 1) // 3 + 1):
        prod *= (2 * math.cos(math.pi * (2 * j - 1) / (2 * m))) ** 2
    lam = lambda_max_sector(m, p_zero(m))
    if abs(prod - lam) > CROSSCHECK_TOL * abs(lam):
        raise FormulaMismatchError(
            f"rho({m}): product form {prod!r} vs sector maximum {lam!r}")
    return prod


@lru_cache(maxsize=None)
def top_selection(m: int, p: int) -> tuple[int, ...]:
    """Indices of the p sector roots nearest 1 (conjugation-closed)."""
    _check_sector(m, p)
    if p % 2 == 0:
        q = p // 2
        sel = set(range(q)) | {m - 1 - r for r in range(q)}
    else:
        q = (p - 1) // 2
        sel = {0} | set(range(1, q + 1)) | {m - r for r in range(1, q + 1)}
    if len(sel) != p:
        raise StructuralViolationError(f"selection {sorted(sel)} does not have p={p} roots")
    return tuple(sorted(sel))


@dataclass(frozen=True)
class PerronReport:
    m: int
    p0: int
    selection: tuple[int, ...]
    min_amplitude: float
    max_imag: float
    eigenvalue: float


def perron_positivity_check(m: int) -> PerronReport:
    """Check that the dominant-sector top eigenvector is strictly positive.

    The raw determinant amplitudes carry a constant phase; it is divided
    out using the first basis subset, after which every amplitude must be
    real and positive.
    """
    p0 = p_zero(m)
    sel = top_selection(m, p0)
    vec, lam = bethe_eigenpair(m, p0, sel)
    amps = np.array(vec.amplitudes, dtype=complex)
    pivot = amps[0]
    if abs(pivot) == 0:
        raise PositivityViolationError(f"m={m}: vanishing pivot amplitude")
    normalized = amps / pivot
    max_imag = float(np.max(np.abs(normalized.imag)))
    scale = float(np.max(np.abs(normalized)))
    if max_imag > RESIDUAL_TOL * scale:
        raise PositivityViolationError(
            f"m={m}: dephased top eigenvector has imaginary part {max_imag:.3e}")
    reals = normalized.real
    min_amp = float(reals.min())
    if min_amp <= 0:
        raise PositivityViolationError(
            f"m={m}: top eigenvector has nonpositive amplitude {min_amp:.3e}")
    if abs(lam.imag) > RESIDUAL_TOL * abs(lam):
        raise PositivityViolationError(f"m={m}: top eigenvalue not real: {lam!r}")
    return PerronReport(m, p0, sel, min_amp, max_imag, float(lam.real))
