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
Each step is generated from these moves alone, independently of the
transfer operator's rows.  The walk first finds the states that its
steps can reach from the start, generating each one's moves once, and
then pulls every state from its sources at each step, so a step is one
gather per state and a short walk never visits the masks it cannot reach.
Rotating a slot mask rotates its moves, and the cap boundary below is
rotation-invariant, so every vector of the total is constant on rotation
classes (necklaces) of m-bit slot masks: a state of the total is a
necklace, carried by its least mask and weighted by the sum over its
orbit, and walking that sum from the representative's moves is exact,
with no division.  The total also meets in the middle, from two facts:
the one-step operator M satisfies M^T = R M R for the slot reversal
R: l -> m-1-l, and the cap boundary b is R-invariant, so

    Phi = b^T M^(k+1) b = sum_S (b^T M^h)(R S) (b^T M^(k+1-h))(S),

h = floor((k+1)/2), and the walk runs only k+1-h steps.  path_dp_count
runs the same walk under the identity map: a fixed start is not
rotation-invariant, so there a state is a plain slot mask.

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
eigenvalue base, bethe.eigenterm, equals the sector maximum lambda_max(m - n).
Each sine product sees only pairwise distances mod m, which the drift and
the shifts keep, so every shift class gives the same term, and summed over
start and end boundaries B with n walkers the estimate is a square:
2^(n^2-n) / m^n * base^(k+1) * (sum_B mult_B prod_{h<t} |sin(pi (x_h - x_t) / m)|)^2.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .bethe import _crosscheck, _in_range, eigenterm, n_zero
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
from .transfer import _check_boundary_cap, boundary_vector

# The total walks ceil((k+1)/2) steps over the necklaces with an even
# number of walkers (2,068 of 4,116 at m = 16), with integers of up to
# ~(k/2) log2 rho bits; on 2 cores under Python 3.11 total_via_paths(12, 500)
# takes 0.08-0.09 s, (16, 40) 0.2-0.26 s and (16, 500) 3.0-3.2 s.  The m cap
# is the DP's own, apart from the transfer cap: (14, 100) takes 0.08-0.09 s.
PATHS_M_CAP = 16
PATHS_K_CAP = 500


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
    for s_mask, mult in boundary_vector(m).items():
        holes = frozenset(2 * l for l in range(m) if not s_mask >> l & 1)
        out.append((holes, mult))
    out.sort(key=lambda pair: (len(pair[0]), sorted(pair[0])))
    return tuple(out)


# ---------------------------------------------------------------------------
# exact DP over walker moves
# ---------------------------------------------------------------------------

def _site_list(m: int, sites: Iterable[int]) -> list[int]:
    """The sites as a list, each checked to be an int in [0, 2m) before any is compared."""
    out = list(sites)
    for s in out:
        if type(s) is not int or not 0 <= s < 2 * m:
            raise InvalidParamsError(f"site {s!r} is not an int in [0, {2 * m})")
    return out


def _site_mask(m: int, sites: Iterable[int], t: int = 0) -> tuple[int, int]:
    """Validate a parity-homogeneous site set read at time t; return (slots, parity).

    Slot l holds site 2l + t (mod 2m), or 2l + t + 1 when the sites have
    the other parity.
    """
    sites = sorted(set(_site_list(m, sites)))
    mask = 0
    parities = set()
    for s in sites:
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


def _necklaces(m: int) -> list[int]:
    """canon[S] is the least rotation of the m-bit slot mask S.

    The ascending scan meets each orbit first at its least mask and walks
    the orbit once from there, so the table costs O(2^m).  Reversal is not
    folded in, unlike transfer's bracelet classes, although the moves
    would allow it: the moves of R S are those of S reversed by R and
    rotated down one slot, the site reflection x -> -x read in the
    co-moving frame.
    """
    full = (1 << m) - 1
    canon = [-1] * (1 << m)
    for mask in range(1 << m):
        x = mask
        while canon[x] < 0:
            canon[x] = mask
            x = (x << 1 | x >> (m - 1)) & full
    return canon


def _walk(m: int, steps: int, start: Mapping[int, int],
          canon: Sequence[int]) -> tuple[dict[int, int], Iterator[list[int]]]:
    """(index, vectors): start walked `steps` steps through the walker moves.

    A state is canon[S], and start is folded through canon.  index numbers
    the states that start reaches in at most `steps` steps, and vectors
    yields v_0 = start, v_1, .., v_steps as lists in that numbering.  Each
    state nearer than `steps` generates its _moves once, mapped through
    canon, and is listed among the sources of each target once per move
    landing there; a step pulls every state from its sources, one
    sum(map(v.__getitem__, row)) per row, so the additions run in C.  The
    states first reached at the last step feed only v_(steps+1) and
    generate no moves, so a short walk visits only the masks it can reach.

    With the identity range(1 << m) a state is a slot mask.  With
    canon = _necklaces(m) a state is a necklace representative whose weight
    is its orbit total: moves commute with rotation, so every mask of a
    class has as many moves into each class as its representative, and the
    orbit totals walk exactly, with no division.
    """
    index: dict[int, int] = {}
    for slots in start:
        index.setdefault(canon[slots], len(index))
    sources: list[list[int]] = [[] for _ in index]
    frontier = list(index)
    for _ in range(steps):
        reached = []
        for state in frontier:
            i = index[state]
            for target in map(canon.__getitem__, _moves(m, state)):
                j = index.get(target)
                if j is None:
                    j = index[target] = len(sources)
                    sources.append([])
                    reached.append(target)
                sources[j].append(i)
        frontier = reached
    vec = [0] * len(index)
    for slots, weight in start.items():
        vec[index[canon[slots]]] += weight

    def vectors() -> Iterator[list[int]]:
        v = vec
        yield v
        for _ in range(steps):
            v = [sum(map(v.__getitem__, row)) for row in sources]
            yield v

    return index, vectors()


def _reverse(m: int, slots: int) -> int:
    """The slot reversal R: bit l of the m-bit mask moves to bit m-1-l."""
    return int(f"{slots:0{m}b}"[::-1], 2)


def _check_size(m: int, k: int) -> None:
    BarrelParams(m, k)
    if m > PATHS_M_CAP:
        raise TooLargeError(f"m={m} exceeds path DP cap {PATHS_M_CAP}")
    if k > PATHS_K_CAP:
        raise TooLargeError(f"k={k} exceeds path DP cap {PATHS_K_CAP}")


def path_dp_count(m: int, k: int, start: Iterable[int], end: Iterable[int]) -> int:
    """Exact number of non-intersecting walker families from start to end.

    start is read at time 0 and end at time k+1, both as plain site sets;
    k+1 steps of drift mean a reachable end set has parity (k+1) mod 2
    relative to start, and the count is 0 whenever that fails.
    """
    _check_size(m, k)
    start_slots, parity = _site_mask(m, start)
    end_slots, end_parity = _site_mask(m, end, parity + k + 1)
    n_start, n_end = start_slots.bit_count(), end_slots.bit_count()
    if n_start != n_end:
        raise SizeMismatchError(f"start has {n_start} walkers, end {n_end}")
    if n_end and end_parity != (parity + k + 1) % 2:
        return 0
    index, vectors = _walk(m, k + 1, {start_slots: 1}, range(1 << m))
    i = index.get(end_slots)
    return 0 if i is None else next(itertools.islice(vectors, k + 1, None))[i]


def total_via_paths(m: int, k: int) -> int:
    """Phi(F(m, k)) as a boundary-weighted sum over all walker families.

    In the co-moving frame the start and end boundaries share one slot
    vector b, so Phi = b^T M^(k+1) b for the one-step walker operator M.
    The slot reversal R gives M^T = R M R, and R b = b, so the count meets
    in the middle: with h = floor((k+1)/2) and u_j = b^T M^j,

        Phi = sum_S u_h(R S) u_(k+1-h)(S) = sum_c (T_h[R c] / |c|) T_(k+1-h)[c],

    where T_j is u_j's orbit total on the necklace classes c that _walk
    reaches in its k+1-h steps.  R maps a class onto a class of the same
    size, and u_h is constant on it, so the division is exact; a remainder
    raises StructuralViolationError.  By the reflection noted at _necklaces,
    each u_j is also R-invariant, so T_h[R c] = T_h[c]; reading R c keeps
    the sum resting on the two facts above alone.
    """
    _check_size(m, k)
    # hole 2l at time 0 is slot l
    boundary = {sum(1 << (site // 2) for site in holes): mult
                for holes, mult in admissible_boundaries(m)}
    canon = _necklaces(m)
    h = (k + 1) // 2
    index, vectors = _walk(m, k + 1 - h, boundary, canon)
    mid = next(itertools.islice(vectors, h, None))
    last = next(vectors) if (k + 1) % 2 else mid
    sizes = Counter(canon)
    total = 0
    for rep, i in index.items():
        j = index.get(canon[_reverse(m, rep)])
        if j is None:
            continue
        quotient, remainder = divmod(mid[j], sizes[rep])
        if remainder:
            raise StructuralViolationError(
                f"orbit total {mid[j]} is not a multiple of the class size {sizes[rep]}")
        total += quotient * last[i]
    return total


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
        if not isinstance(x, (int, float)) or isinstance(x, bool):
            raise InvalidParamsError(f"{name} coordinate {x!r} is not an int or a float")
        doubled = 2 * float(x)
        if not math.isfinite(doubled) or abs(doubled - round(doubled)) > 1e-9:
            raise InvalidParamsError(f"{name} coordinate {x} is not a finite half-integer")
        if not 0 <= float(x) < m:
            raise OrderingViolationError(f"{name} coordinate {x} outside [0, {m})")
        out.append(float(x))
    return out


def krattenthaler_estimate(m: int, k: int, eta: Sequence[float],
                           lam: Sequence[float]) -> AsymptoticEstimate:
    """Leading-term estimate of one fixed-boundary walker count.

    eta and lam are walker coordinates in circle units (site / 2), eta
    strictly decreasing and lam a rotation of a strictly decreasing list;
    every 2 eta_j + 2 lam_j must match k+1 mod 2, pairing them as listed.
    The shift class s is read off lam: the rotation that starts at its
    maximum.  Every shift class gives the same value.
    """
    BarrelParams(m, k)
    n = len(eta)
    if n == 0:
        raise InvalidParamsError("estimate needs at least one walker")
    if len(lam) != n:
        raise SizeMismatchError(f"eta has {n} walkers, lam {len(lam)}")
    etas = _half_units(m, eta, "eta")
    lams = _half_units(m, lam, "lam")
    if any(etas[i] <= etas[i + 1] for i in range(n - 1)):
        raise OrderingViolationError(f"eta {etas} not strictly decreasing")
    s = lams.index(max(lams))
    rotated = lams[s:] + lams[:s]
    if any(rotated[i] <= rotated[i + 1] for i in range(n - 1)):
        raise OrderingViolationError(
            f"lam {lams} is not a rotation of a strictly decreasing list")
    for j in range(n):
        if (round(2 * etas[j]) + round(2 * lams[j]) + k + 1) % 2:
            raise ParityViolationError(
                f"walker {j}: 2*eta + 2*lam = {round(2 * etas[j] + 2 * lams[j])} "
                f"breaks the k+1 = {k + 1} step parity")

    sines = _sine_product(m, etas) * _sine_product(m, lams)
    value = _in_range(f"estimate for m={m}, k={k}", lambda: 2.0 ** (n * n - n)
                      / (n * float(m) ** n) * eigenterm(m, n) ** (k + 1) * sines)
    return AsymptoticEstimate(m, k, n, tuple(etas), tuple(lams), s, value)


def _sine_product(m: int, coords: Sequence[float]) -> float:
    """prod_{h<t} |sin( pi (x_h - x_t) / m )|, unchanged by a common shift or a rotation."""
    out = 1.0
    for h, x in enumerate(coords):
        for y in coords[h + 1:]:
            out *= abs(math.sin(math.pi * (x - y) / m))
    return out


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
    _check_boundary_cap(m)  # before eigenterm's O(n) product
    base = eigenterm(m, n)
    what = f"estimate for m={m}, k={k}"
    _in_range(what, lambda: base ** (k + 1))  # fail before enumerating 2^m boundaries
    amplitude = sum(mult * _sine_product(m, [site / 2 for site in sorted(sites)])
                    for sites, mult in admissible_boundaries(m) if len(sites) == n)
    total = _in_range(what, lambda: 2.0 ** (n * n - n) / float(m) ** n
                      * base ** (k + 1) * amplitude * amplitude)
    return AggregateEstimate(m, k, n, total, base,
                             _in_range(what, lambda: total / base**k),
                             _in_range(what, lambda: total / base ** (k + 1)))


@dataclass(frozen=True)
class LeadingReport:
    m: int
    entries: tuple[tuple[int, float, float, float], ...]  # (n, eigenterm, lambda_max, rel_err)
    maximizer: int
    n0: int


def leading_n_consistency(m: int) -> LeadingReport:
    """Check eigenterm(n) = lambda_max(m - n) for every even n, maximized at n0.

    Each n goes through bethe's _crosscheck, which raises FormulaMismatchError
    on a relative gap above CROSSCHECK_TOL (NaN included); so does a
    maximizing walker number other than n_zero(m).
    """
    BarrelParams(m, 0)
    entries = []
    best_n, best_val = 0, float("-inf")
    for n in range(0, m + 1, 2):
        term, lam, gap = _crosscheck(m, n)
        entries.append((n, term, lam, gap))
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
    _check_size(m, k)
    start = sorted(_site_list(m, start))
    end = sorted((s + k + 1) % (2 * m) for s in _site_list(m, end_raw))
    exact = path_dp_count(m, k, start, end)
    etas = sorted((s / 2 for s in start), reverse=True)
    lams = sorted((s / 2 for s in end), reverse=True)
    return exact / (len(start) * krattenthaler_estimate(m, k, etas, lams).value)
