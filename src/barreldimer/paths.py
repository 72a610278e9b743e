"""Non-intersecting lattice paths: third counting route and asymptotics.

A perfect matching of F(m, k) maps to a family of n = m - p vicious
walkers on the 2m sites of a circle.  At time t (one time per horizontal
layer) the walkers occupy sites

    site_t(l) = (2l + t) mod 2m   for l in I_m minus S_t,

the "holes" not used by horizontal edges; the matched big-cycle edges
between layers move every walker one site up or down, no two walkers
colliding.  The exact DP counts in the co-moving frame, where slot l
holds the walker at site 2l + t: a walker stepping up keeps its slot,
one stepping down takes slot l - 1 (mod m), and no two may share a slot.
A state is an m-bit slot mask, and each step is generated from these
moves alone, independently of the transfer operator's rows.

Cap completions enter as boundary multiplicities: an admissible start or
end configuration is the complement of a cap-matchable subset, weighted
by the number of cap matchings that produce it (2 for the full parity
class when m is even, else 1; the walkerless configuration has weight 1
and absorbs the all-horizontal matching).

The k -> infinity shape of a fixed-boundary count is estimated by the
circular vicious-walker determinant asymptotics (Krattenthaler): with
walker coordinates eta_j = site/2 at time 0 and lambda_j at time k+1,

    2^(n^2-n) / (n m^n)
      * ( 2^n prod_j cos( pi (j - (n+1)/2) / m ) )^(k+1)
      * prod_{h<t} sin( pi (eta_h - eta_t) / m ) |sin( pi (lambda_h - lambda_t) / m )|

summed over the n cyclic shift classes of the end configuration.  The
eigenvalue base equals the sector maximum lambda_max(m - n) exactly.
Each sine product sees only pairwise distances mod m, which the drift and
the shifts keep, so every shift class gives the same term, and summed over
start and end boundaries B with n walkers the estimate is a square:
2^(n^2-n) / m^n * base^(k+1) * (sum_B mult_B prod_{h<t} |sin(pi (x_h - x_t) / m)|)^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .bethe import lambda_max_sector, n_zero
from .errors import (
    FormulaMismatchError,
    InvalidParamsError,
    OrderingViolationError,
    ParityViolationError,
    SectorError,
    SizeMismatchError,
    StructuralViolationError,
    TooLargeError,
)
from .graph import (
    EDGE_HORIZONTAL,
    BarrelGraph,
    BarrelParams,
    Matching,
    horizontal_profile,
)
from .transfer import TRANSFER_M_CAP, boundary_vector

LEADING_TOL = 1e-12


@dataclass(frozen=True)
class PathFamily:
    """Trajectories of the walkers; each is the site sequence at t = 0 .. k+1."""

    m: int
    k: int
    trajectories: tuple[tuple[int, ...], ...]

    @property
    def n_walkers(self) -> int:
        return len(self.trajectories)


def matching_to_paths(g: BarrelGraph, matching: Matching) -> PathFamily:
    """Encode a perfect matching as its vicious-walker trajectories."""
    m, k = g.m, g.k
    n_sites = 2 * m
    profile = horizontal_profile(g, matching)
    matched_cycle: dict[int, set[int]] = {j: set() for j in range(1, k + 2)}
    for eid in matching.edges:
        e = g.edges[eid]
        if e.kind != EDGE_HORIZONTAL and 1 <= e.layer <= k + 1:
            matched_cycle[e.layer].add(e.pos)

    holes0 = sorted(set(range(m)) - set(profile.layers[0]))
    positions = [2 * l for l in holes0]
    trajectories: list[list[int]] = [[site] for site in positions]

    for t in range(k + 1):
        moves: dict[int, int] = {}
        for i in matched_cycle[t + 1]:
            if i % 2 == 0:
                frm = (i + t) % n_sites
                moves[frm] = (frm + 1) % n_sites
            else:
                frm = (i + 1 + t) % n_sites
                moves[frm] = (frm - 1) % n_sites
        for traj in trajectories:
            site = traj[-1]
            if site not in moves:
                raise StructuralViolationError(f"walker at site {site} has no move at time {t}")
            traj.append(moves[site])
    fam = PathFamily(m, k, tuple(tuple(traj) for traj in trajectories))
    if fam.n_walkers != m - profile.cardinality:
        raise StructuralViolationError(
            f"{fam.n_walkers} walkers for {profile.cardinality} horizontal edges per layer")
    return fam


def admissible_boundaries(m: int) -> tuple[tuple[frozenset[int], int], ...]:
    """Start configurations (site set at even positions, cap multiplicity).

    Complements of cap-matchable horizontal subsets: the full parity
    class {0, 2, .., 2m-2} carries multiplicity 2 when m is even (the two
    alternating cap matchings leave the same holes), the walkerless empty
    configuration multiplicity 1, all others multiplicity 1.
    """
    out = []
    for s_mask, mult in sorted(boundary_vector(m).items()):
        holes = frozenset(2 * l for l in range(m) if not s_mask >> l & 1)
        out.append((holes, mult))
    out.sort(key=lambda pair: (len(pair[0]), sorted(pair[0])))
    return tuple(out)


# ---------------------------------------------------------------------------
# exact DP over walker moves
# ---------------------------------------------------------------------------

def _site_mask(m: int, sites: Iterable[int], t: int = 0) -> tuple[int, int]:
    """Validate a parity-homogeneous site set read at time t; return (slots, parity).

    Slot l holds site 2l + t (mod 2m), or 2l + t + 1 when the sites have
    the other parity.
    """
    sites = sorted(set(sites))
    mask = 0
    parities = set()
    for s in sites:
        if not isinstance(s, int) or not 0 <= s < 2 * m:
            raise InvalidParamsError(f"site {s!r} outside [0, {2 * m})")
        parities.add(s % 2)
        mask |= 1 << ((s - t) % (2 * m) // 2)
    if len(parities) > 1:
        raise ParityViolationError(f"sites {sites} mix parities")
    parity = parities.pop() if parities else 0
    return mask, parity


def _moves(m: int, slots: int) -> tuple[int, ...]:
    """The slot masks one step reaches from `slots`, one per admissible move set.

    With every slot full only "all up" and "all down" remain, so the full
    mask is listed twice.  Otherwise the scan starts at an empty slot, so
    no run wraps past it: the run above an empty slot sends a bottom part
    of itself down, which empties one slot of the span (empty slot + run).
    """
    full = (1 << m) - 1
    if slots == full:
        return (full, full)
    low = next(l for l in range(m) if not slots >> l & 1)
    succ = [0]
    span = [1 << low]
    for j in range(1, m + 1):
        bit = 1 << ((low + j) % m)
        if j < m and slots & bit:
            span.append(bit)
            continue
        if len(span) > 1:
            whole = sum(span)
            succ = [s | (whole ^ b) for s in succ for b in span]
        span = [bit]
    return tuple(succ)


def _walk(m: int, k: int, vec: dict[int, int]) -> dict[int, int]:
    """Advance weighted slot masks k+1 steps, generating each state's moves once."""
    succ: dict[int, tuple[int, ...]] = {}
    for _ in range(k + 1):
        out: dict[int, int] = {}
        for slots, weight in vec.items():
            targets = succ.get(slots)
            if targets is None:
                targets = succ[slots] = _moves(m, slots)
            for t in targets:
                out[t] = out.get(t, 0) + weight
        vec = out
    return vec


def path_dp_count(m: int, k: int, start: Iterable[int], end: Iterable[int]) -> int:
    """Exact number of non-intersecting walker families from start to end.

    start is read at time 0 and end at time k+1, both as plain site sets;
    k+1 steps of drift mean a reachable end set has parity (k+1) mod 2
    relative to start, and the count is 0 whenever that fails.
    """
    BarrelParams(m, k)
    if m > TRANSFER_M_CAP:
        raise TooLargeError(f"m={m} exceeds path DP cap {TRANSFER_M_CAP}")
    start_slots, parity = _site_mask(m, start)
    end_slots, end_parity = _site_mask(m, end, parity + k + 1)
    n_start, n_end = bin(start_slots).count("1"), bin(end_slots).count("1")
    if n_start != n_end:
        raise SizeMismatchError(f"start has {n_start} walkers, end {n_end}")
    if n_end and end_parity != (parity + k + 1) % 2:
        return 0
    return _walk(m, k, {start_slots: 1}).get(end_slots, 0)


def total_via_paths(m: int, k: int) -> int:
    """Phi(F(m, k)) as a boundary-weighted sum over all walker families.

    In the co-moving frame the start and end boundaries share one slot vector.
    """
    BarrelParams(m, k)
    if m > TRANSFER_M_CAP:
        raise TooLargeError(f"m={m} exceeds path DP cap {TRANSFER_M_CAP}")
    boundary = {_site_mask(m, sites)[0]: mult for sites, mult in admissible_boundaries(m)}
    vec = _walk(m, k, boundary)
    return sum(mult * vec.get(slots, 0) for slots, mult in boundary.items())


# ---------------------------------------------------------------------------
# asymptotics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AsymptoticEstimate:
    m: int
    k: int
    n: int
    eta: tuple[float, ...]
    lam: tuple[float, ...]
    s: int
    value: float


def _half_units(m: int, coords: Sequence[float], name: str) -> list[float]:
    out = []
    for x in coords:
        doubled = 2 * float(x)
        if not math.isfinite(doubled) or abs(doubled - round(doubled)) > 1e-9:
            raise InvalidParamsError(f"{name} coordinate {x} is not a finite half-integer")
        if not 0 <= float(x) < m:
            raise OrderingViolationError(f"{name} coordinate {x} outside [0, {m})")
        out.append(float(x))
    return out


def krattenthaler_estimate(m: int, k: int, eta: Sequence[float], lam: Sequence[float],
                           s: int = 0) -> AsymptoticEstimate:
    """Leading-term estimate of one fixed-boundary walker count.

    eta and lam are walker coordinates in circle units (site / 2), eta
    strictly decreasing, lam strictly decreasing after rotation by the
    shift class s, and every 2 eta_j + 2 lam_j must match k+1 mod 2.
    """
    BarrelParams(m, k)
    n = len(eta)
    if n == 0:
        raise InvalidParamsError("estimate needs at least one walker")
    if len(lam) != n:
        raise SizeMismatchError(f"eta has {n} walkers, lam {len(lam)}")
    if not 0 <= s < n:
        raise InvalidParamsError(f"shift class s={s} outside [0, {n})")
    etas = _half_units(m, eta, "eta")
    lams = _half_units(m, lam, "lam")
    if any(etas[i] <= etas[i + 1] for i in range(n - 1)):
        raise OrderingViolationError(f"eta {etas} not strictly decreasing")
    if len(set(lams)) != n:
        raise OrderingViolationError(f"lam {lams} has repeats")
    rotated = lams[s:] + lams[:s]
    if any(rotated[i] <= rotated[i + 1] for i in range(n - 1)):
        raise OrderingViolationError(
            f"lam {lams} with shift s={s} is not strictly decreasing")
    for j in range(n):
        if (round(2 * etas[j]) + round(2 * lams[j]) + k + 1) % 2:
            raise ParityViolationError(
                f"walker {j}: 2*eta + 2*lam = {round(2 * etas[j] + 2 * lams[j])} "
                f"breaks the k+1 = {k + 1} step parity")

    sines = _sine_product(m, etas) * _sine_product(m, lams)
    value = _finite(m, k, lambda: 2.0 ** (n * n - n) / (n * float(m) ** n)
                    * eigenterm(m, n) ** (k + 1) * sines)
    return AsymptoticEstimate(m, k, n, tuple(etas), tuple(lams), s, value)


def _sine_product(m: int, coords: Sequence[float]) -> float:
    """prod_{h<t} |sin( pi (x_h - x_t) / m )|, unchanged by a common shift or a rotation."""
    out = 1.0
    for h, x in enumerate(coords):
        for y in coords[h + 1:]:
            out *= abs(math.sin(math.pi * (x - y) / m))
    return out


def _finite(m: int, k: int, compute) -> float:
    """compute(), or TooLargeError when the estimate leaves the float range."""
    try:
        value = compute()
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise TooLargeError(f"estimate for m={m}, k={k} exceeds the float range")
    return value


def eigenterm(m: int, n: int) -> float:
    """The walker eigenvalue base 2^n prod_j cos( pi (j - (n+1)/2) / m )."""
    if not 0 <= n <= m:
        raise SectorError(f"walker number n={n} outside [0, {m}]")
    val = 1.0
    for j in range(1, n + 1):
        val *= 2 * math.cos(math.pi * (j - (n + 1) / 2) / m)
    return val


@dataclass(frozen=True)
class AggregateEstimate:
    m: int
    k: int
    n: int
    value: float
    base: float
    coefficient_k: float   # value / base^k
    coefficient_k1: float  # value / base^(k+1)


def aggregate_estimate(m: int, k: int, n: int | None = None) -> AggregateEstimate:
    """Boundary-and-shift summed estimate of the n-walker part of Phi.

    The single-boundary estimate summed over all admissible start and end
    boundaries with n walkers (with cap multiplicities) and over the n shift
    classes of the end set, which all give the same term; so it is the squared
    boundary sum of the module docstring.  Approximates sector_count(m, k, m - n).
    """
    BarrelParams(m, k)
    if n is None:
        n = n_zero(m)
    if n <= 0 or n > m or n % 2:
        raise SectorError(f"aggregate needs even n in [2, {m}], got {n}")
    base = eigenterm(m, n)
    _finite(m, k, lambda: base ** (k + 1))  # fail before enumerating 2^m boundaries
    amplitude = sum(mult * _sine_product(m, [site / 2 for site in sorted(sites)])
                    for sites, mult in admissible_boundaries(m) if len(sites) == n)
    total = _finite(m, k, lambda: 2.0 ** (n * n - n) / float(m) ** n
                    * base ** (k + 1) * amplitude * amplitude)
    return AggregateEstimate(m, k, n, total, base,
                             _finite(m, k, lambda: total / base**k),
                             _finite(m, k, lambda: total / base ** (k + 1)))


@dataclass(frozen=True)
class LeadingReport:
    m: int
    entries: tuple[tuple[int, float, float, float], ...]  # (n, eigenterm, lambda_max, rel_err)
    maximizer: int
    n0: int


def leading_n_consistency(m: int) -> LeadingReport:
    """Check eigenterm(n) = lambda_max(m - n) for every even n, maximized at n0.

    Raises FormulaMismatchError on any relative gap above LEADING_TOL or
    if the maximizing walker number is not n_zero(m).
    """
    if m < 3:
        raise InvalidParamsError(f"m must be >= 3, got {m}")
    entries = []
    best_n, best_val = 0, float("-inf")
    for n in range(0, m + 1, 2):
        term = eigenterm(m, n)
        lam = lambda_max_sector(m, m - n)
        rel = abs(term - lam) / abs(lam)
        if rel > LEADING_TOL:
            raise FormulaMismatchError(
                f"m={m}, n={n}: eigenterm {term!r} vs lambda_max {lam!r} (rel {rel:.2e})")
        entries.append((n, term, lam, rel))
        if term > best_val:
            best_n, best_val = n, term
    if best_n != n_zero(m):
        raise FormulaMismatchError(
            f"m={m}: eigenterm maximized at n={best_n}, expected n0={n_zero(m)}")
    return LeadingReport(m, tuple(entries), best_n, n_zero(m))


def dp_estimate_ratio(m: int, k: int, start: Iterable[int], end_raw: Iterable[int]) -> float:
    """Exact DP count over the shift-summed estimate for one boundary pair.

    end_raw is given at time 0 and is advanced by the k+1 drift before
    both the DP and the estimate see it.  The n shift classes give equal
    terms, so the estimate is n times the s = 0 term.
    """
    start = sorted(start)
    end = sorted((s + k + 1) % (2 * m) for s in end_raw)
    exact = path_dp_count(m, k, start, end)
    etas = sorted((s / 2 for s in start), reverse=True)
    lams = sorted((s / 2 for s in end), reverse=True)
    return exact / (len(start) * krattenthaler_estimate(m, k, etas, lams).value)
