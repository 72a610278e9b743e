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

At b = c = 1 the largest eigenvalue of B_p is, with e = p mod 2,

    lambda_max(p) = (m if e else 2) / prod_{j = 1+e, 3+e, .. < p} 4 sin^2( pi j / (2m) ),

one factor 2 - t_j per j, with t_j = 2 cos(pi j / m).  Over sectors of the
correct parity it is maximized at exactly p0 = m - 2 floor((m+1)/3).  It
equals the walker base eigenterm(m, m - p), a product of 4 cos^2 factors
formed by the same loop; the growth constant is rho(m) = eigenterm(m, n0),
n0 = m - p0, cross-checked against lambda_max(p0) to 1e-12 before being trusted.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Iterable

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
from .graph import BarrelParams
from .transfer import _check_count_size, _check_sector, _count_row, boundary_vector, mask_elements

if TYPE_CHECKING:  # numpy loads in the functions that compute with it
    import numpy as np

VERIFY_M_CAP = 8
RESIDUAL_TOL = 1e-9
CROSSCHECK_TOL = 1e-12


@lru_cache(maxsize=64)
def roots_for_sector(m: int, p: int) -> tuple[complex, ...]:
    """The m solutions of z^m = (-1)^(p+1) in canonical index order.

    Cached per (m, p): the eigenvalue of every selection reads them.  A bad
    (m, p) raises on every call, since lru_cache keeps no exception.
    """
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

    amplitudes holds one determinant per p-subset of I_m, in the colex
    order of selections_for_sector (ascending bitmask order).
    """

    m: int
    p: int
    selection: tuple[int, ...]
    amplitudes: tuple[complex, ...]


def _block_basis(m: int, p: int) -> tuple[int, ...]:
    """Masks of cardinality p, ascending: colex order on p-subsets is ascending
    mask order, so these are the subsets of selections_for_sector."""
    return tuple(sum(1 << l for l in subset) for subset in selections_for_sector(m, p))


def complementary_eigenvalue(m: int, p: int, selection: tuple[int, ...],
                             b: float = 1.0, c: float = 1.0) -> complex:
    roots = roots_for_sector(m, p)
    chosen = set(selection)
    lam = 1.0 + 0.0j
    for r, z in enumerate(roots):
        if r not in chosen:
            lam *= b - c * z
    return lam


def bethe_eigenpair(m: int, p: int, selection) -> tuple[BetheVector, complex]:
    """Eigenvector amplitudes and the eigenvalue at b = c = 1 for one selection.

    The vector does not depend on the weights; complementary_eigenvalue
    gives the eigenvalue at any (b, c).
    """
    _check_sector(m, p)
    sel = tuple(sorted(selection))
    if len(sel) != p:
        raise SectorError(f"selection size {len(sel)} != p = {p}")
    if len(set(sel)) != p:
        raise DegenerateRootsError(f"repeated root indices in {sel}")
    if not all(type(r) is int and 0 <= r < m for r in sel):
        raise SectorError(f"root indices {sel} outside [0, {m})")
    _check_count_size(m)  # before _amplitudes lists the C(m, p) subsets
    amplitudes = tuple(map(complex, _amplitudes(m, p, [sel])[0]))
    return BetheVector(m, p, sel, amplitudes), complementary_eigenvalue(m, p, sel)


def _amplitudes(m: int, p: int, sels: Iterable[tuple[int, ...]]) -> np.ndarray:
    """Row i: det(z_{R_i}^{l_j}) for every basis subset {l_1 < .. < l_p}, R_i = sels[i].

    Each selection is sorted and valid.  The p x p matrices gather the Python
    powers z_r ** l, built once per call, at each subset and go to one stacked
    determinant per selection; the determinant of a 0 x 0 matrix is 1.
    """
    import numpy as np

    powers = np.array([[z ** l for l in range(m)] for z in roots_for_sector(m, p)])
    subsets = np.array(selections_for_sector(m, p), dtype=np.intp)
    # One det call per selection: a single call over the sector would free a
    # C(m, p)^2 p^2 stack (1.25 MB at m = 8, p = 4) and raise peak RSS by ~1 MB.
    return np.array([np.linalg.det(powers[list(sel)][:, subsets].swapaxes(0, 1)) for sel in sels])


def roots_identity_check(m: int, p: int, b: float, c: float) -> float:
    """|prod over all sector roots of (b - c z) - (b^m + (-1)^p c^m)|, exactly 0 in theory."""
    return abs(complementary_eigenvalue(m, p, (), b, c) - (b**m + (-1) ** p * c**m))


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


@lru_cache(maxsize=64)
def _block_structure(m: int, p: int) -> tuple[
        tuple[np.ndarray, np.ndarray, np.ndarray],
        tuple[tuple[tuple[int, ...], tuple[complex, ...], float, complex], ...],
        np.ndarray, np.ndarray]:
    """Everything the dense check needs of sector (m, p) besides the weights.

    Returns ((row, col, exponent d) of every matching of every block row,
    in _count_row order; per selection in selections_for_sector order, the
    selection, its roots, ||v||_2 and <omega, v> of its eigenvector v; the
    C(m, p) x C(m, p) amplitude matrix, one row v per selection; omega
    restricted to the basis).  The matching of T in row S != 0 weighs
    c^d b^(m-p-d) with d = (sum T - sum S) mod m; the p = 0 entry lists
    d = 0 (b^m), then d = m (c^m).  The arrays are read-only.  The amplitude
    matrix must have full rank, which holds at every weight:
    RankDeficientError otherwise, and lru_cache keeps no exception, so a
    failing sector fails every call.
    """
    import numpy as np

    basis = _block_basis(m, p)
    index = {mask: i for i, mask in enumerate(basis)}
    rows, cols, exps = [], [], []
    for i, mask in enumerate(basis):
        s_sum = sum(mask_elements(mask))
        for t_mask, _ in _count_row(m, mask):
            d = (sum(mask_elements(t_mask)) - s_sum) % m
            for e in (d,) if mask else (0, m):
                rows.append(i)
                cols.append(index[t_mask])
                exps.append(e)
    sels = selections_for_sector(m, p)
    amplitudes = _amplitudes(m, p, sels)
    rank = int(np.linalg.matrix_rank(amplitudes))
    if rank != len(basis):
        raise RankDeficientError(
            f"sector (m={m}, p={p}): eigenvectors span rank {rank} < {len(basis)}")
    omega = boundary_vector(m)
    arrays = (np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp),
              np.array(exps, dtype=np.intp), amplitudes,
              np.array([omega.get(mask, 0) for mask in basis], dtype=float))
    for arr in arrays:
        arr.flags.writeable = False
    omega_vec, roots = arrays[4], roots_for_sector(m, p)
    table = tuple((sel, tuple(roots[r] for r in sel), float(np.linalg.norm(v)),
                   complex(omega_vec @ v)) for sel, v in zip(sels, amplitudes))
    return arrays[:3], table, amplitudes, omega_vec


def _dense_block(m: int, p: int, b: float, c: float) -> np.ndarray:
    """B_p at weights (b, c); b^(m-p-d) c^d is evaluated once per d = 0 .. m - p, as a float.

    Every such d occurs when p >= 1; at p = 0 only the ends d = 0 and d = m
    are read, and no d between them overflows where both ends do not.
    """
    import numpy as np

    (rows, cols, exps), *_ = _block_structure(m, p)
    values = np.array([b ** (m - p - d) * c ** d for d in range(m - p + 1)], dtype=float)
    mat = np.zeros((math.comb(m, p), math.comb(m, p)))
    np.add.at(mat, (rows, cols), values[exps])
    return mat


def _weight_text(w, text: Callable[[object], str] = repr) -> str:
    """text(w), but an int beyond the float range by its bit length: str() of an
    int of more than 4,300 digits raises ValueError."""
    if isinstance(w, int) and w.bit_length() > 1024:
        return f"an int of {w.bit_length()} bits"
    return text(w)


def verify_sector(m: int, p: int, b: float = 1.0, c: float = 1.0) -> SectorSpectrum:
    """Check every Bethe eigenpair of block B_p against the dense matrix.

    The eigenvectors are the rows of the cached amplitude matrix, whose full
    rank _block_structure checks once per sector; their norms and omega
    overlaps come from the same table.  Residual
    ||B v - lambda v||_2 / ||v||_2 must stay below RESIDUAL_TOL for all
    C(m, p) selections; a NaN residual fails the check.  Weights must be
    ints or finite floats (not bools), and weights whose block entries
    overflow a float raise InvalidParamsError.
    """
    import numpy as np

    _check_sector(m, p)
    # Ints are finite: math.isfinite would convert one beyond the float range and raise.
    if not all(isinstance(w, (int, float)) and not isinstance(w, bool)
               and (isinstance(w, int) or math.isfinite(w)) for w in (b, c)):
        raise InvalidParamsError(
            f"weights must be finite, got b={_weight_text(b)}, c={_weight_text(c)}")
    if m > VERIFY_M_CAP:
        raise TooLargeError(f"m={m} exceeds dense verification cap {VERIFY_M_CAP}")
    try:
        block = _dense_block(m, p, b, c)
    except OverflowError:
        raise InvalidParamsError(
            f"weights b={_weight_text(b, str)}, c={_weight_text(c, str)} overflow a float "
            f"in sector (m={m}, p={p})") from None
    _, table, amplitudes, _ = _block_structure(m, p)

    entries: list[SpectrumEntry] = []
    for (sel, roots, norm, overlap), v in zip(table, amplitudes):
        lam = complementary_eigenvalue(m, p, sel, b, c)
        entries.append(SpectrumEntry(
            selection=sel,
            roots=roots,
            eigenvalue=lam,
            residual=float(np.linalg.norm(block @ v - lam * v) / norm),
            omega_overlap=overlap,
        ))
    worst = float(np.max([e.residual for e in entries]))  # NaN propagates
    if not worst <= RESIDUAL_TOL:
        raise ResidualExceededError(
            f"sector (m={m}, p={p}, b={b}, c={c}): residual {worst:.3e} > {RESIDUAL_TOL:.1e}")
    dimension = math.comb(m, p)
    return SectorSpectrum(m, p, b, c, dimension, dimension, worst, tuple(entries))


# ---------------------------------------------------------------------------
# extremal eigenvalues and the growth constant
# ---------------------------------------------------------------------------

def _in_range(what: str, compute: Callable[[], float]) -> float:
    """compute(), or TooLargeError when `what` leaves the float range.

    Float ** raises OverflowError where * and / give inf, and a quotient
    whose denominator underflowed to 0 is out of range too.
    """
    try:
        value = compute()
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if not math.isfinite(value):
        raise TooLargeError(f"{what} exceeds the float range")
    return value


def _half_angle_product(m: int, x: int, trig: Callable[[float], float]) -> float:
    """prod (2 trig(pi j / (2m)))^2 over j = 1 + x%2, 3 + x%2, .. < x.

    Every factor is positive and finite, so the loop stops at a product of 0 or inf.
    """
    prod = 1.0
    for j in range(1 + x % 2, x, 2):  # (2 t) ** 2 keeps rho's bits; 4 * t ** 2 rounds apart
        prod *= (2 * trig(math.pi * j / (2 * m))) ** 2
        if not 0.0 < prod < math.inf:
            break
    return prod


def lambda_max_sector(m: int, p: int) -> float:
    """Largest eigenvalue of sector p at b = c = 1: with e = p mod 2,
    (m if e else 2) / prod 4 sin^2(pi j / (2m)) over j = 1+e, 3+e, .. < p.

    Each factor is 2 - t_j in half-angle form, which keeps the digits that
    2 - 2 cos(pi j / m) loses at small j.  TooLargeError when the result
    leaves the float range or its denominator underflows to 0.
    """
    _check_sector(m, p)
    denom = _half_angle_product(m, p, math.sin)
    return _in_range(f"result for m={m}", lambda: (m if p % 2 else 2.0) / denom)


def eigenterm(m: int, n: int) -> float:
    """The walker base 2^n prod_{j=1..n} cos( pi (j - (n+1)/2) / m ): factors j and
    n+1-j are equal, so it is a product of squares, times 2 for odd n."""
    BarrelParams(m, 0)
    if type(n) is not int or not 0 <= n <= m:
        raise SectorError(f"walker number n={n} outside [0, {m}]")
    return (2.0 if n % 2 else 1.0) * _half_angle_product(m, n, math.cos)


def _crosscheck(m: int, n: int) -> tuple[float, float, float]:
    """(eigenterm(m, n), lambda_max_sector(m, m - n), their relative gap).

    FormulaMismatchError when the gap exceeds CROSSCHECK_TOL, NaN included.
    """
    term = _in_range(f"result for m={m}", lambda: eigenterm(m, n))
    lam = lambda_max_sector(m, m - n)
    gap = abs(term - lam) / lam
    if not gap <= CROSSCHECK_TOL:
        raise FormulaMismatchError(
            f"m={m}, n={n}: eigenterm {term!r} vs lambda_max {lam!r} (rel {gap:.2e})")
    return term, lam, gap


def p_zero(m: int) -> int:
    """Sector carrying the largest eigenvalue overall: m - 2 floor((m+1)/3)."""
    return m - n_zero(m)


def n_zero(m: int) -> int:
    """Complementary walker number 2 floor((m+1)/3) = m - p_zero(m)."""
    BarrelParams(m, 0)
    return 2 * ((m + 1) // 3)


def growth_constant(m: int) -> float:
    """rho(m) = eigenterm(m, n0), cross-checked against lambda_max of p0.

    From m = 2198 rho(m) leaves the float range and TooLargeError is raised.
    """
    return _crosscheck(m, n_zero(m))[0]


def top_selection(m: int, p: int) -> tuple[int, ...]:
    """Indices of the p sector roots nearest 1 (conjugation-closed)."""
    _check_sector(m, p)
    sel = set(range((p + 1) // 2)) | {m - 1 - r for r in range(p // 2)}
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
    import numpy as np

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
