"""Transfer-operator counting of perfect matchings on barrel graphs.

Matchings are sliced along the cylinder by their horizontal profile
(S_0, .., S_{k+1}), S_j the set of matched slots in horizontal layer j.
Between consecutive layers sits one big cycle C_{2m}; once the horizontal
edges are fixed, the cycle must perfectly match its remaining vertices.
With the canonical labeling the layer on the left attaches at the even
positions {2l} and the layer on the right at the odd positions {2l+1},
so the number of completions is

    entry(S, T) = #PM( C_{2m} - {2l : l in S} - {2l+1 : l in T} ).

The total count factorizes through the operator A with these entries:

    Phi(F(m, k)) = <omega| A^(k+1) |omega>,

where omega_S = #PM(C_m - S) counts cap completions.  Entries vanish
unless |S| = |T| and the deleted evens and odds interlace around the
cycle; surviving entries equal 1 except entry(0, 0) = 2, and carry a
monomial b^i c^j when cycle edges (2i, 2i+1) are weighted b ("up") and
(2i+1, 2i+2) weighted c ("down").  For the singleton blocks this gives
the row action

    B|l> = sum_{l' <= l} c^(l-l') b^(m-1+l'-l) |l'>
         + sum_{l' > l}  b^(l'-l-1) c^(m+l-l') |l'>,

which pins down the orientation conventions used everywhere else.

Rotating S and T together by one slot rotates C_{2m} by two positions,
so entry(S, T) is invariant under it, and so is omega.  Every vector
A^j omega is therefore constant on necklace classes, and the exact counts
run on class representatives r (the least mask of each rotation orbit,
|r| = m mod 2) with the reduced operator

    Q[r, c] = sum of entry(r, t) over the t in class c,
    Phi     = sum_c omega_c |orbit c| (Q^(k+1) omega)_c.

At m = 14 this is 596 states and 21,388 nonzeros, against 8192 states
and 355,322 nonzeros of the parity block of A; rows are generated for
the representatives only.  The sampler keeps its suffix vectors on the
classes too.  TransferOperator is the unreduced operator, kept as the
reference the tests check the reduced kernel against.

Subsets of I_m = {0, .., m-1} are encoded as bitmasks (bit l set iff
l in S); all counting is exact big-integer arithmetic.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .errors import (
    InvalidParamsError,
    SectorError,
    StructuralViolationError,
    TooLargeError,
    UnsupportedParameterError,
)
from .graph import BarrelGraph, BarrelParams, Matching, build_graph

TRANSFER_M_CAP = 16
BOUNDARY_M_CAP = 20


# ---------------------------------------------------------------------------
# subset encoding
# ---------------------------------------------------------------------------

def as_mask(m: int, subset: int | Iterable[int]) -> int:
    """Coerce an iterable of elements of I_m (or a ready mask) to a bitmask."""
    if isinstance(subset, int):
        if subset < 0 or subset >> m:
            raise InvalidParamsError(f"mask {subset} out of range for m={m}")
        return subset
    mask = 0
    for l in subset:
        if not 0 <= l < m:
            raise InvalidParamsError(f"element {l} outside I_{m}")
        if mask >> l & 1:
            raise InvalidParamsError(f"repeated element {l}")
        mask |= 1 << l
    return mask


def mask_elements(mask: int) -> tuple[int, ...]:
    out = []
    l = 0
    while mask:
        if mask & 1:
            out.append(l)
        mask >>= 1
        l += 1
    return tuple(out)


@dataclass(frozen=True)
class WeightMonomial:
    """Single matching weight b^b_exp * c^c_exp."""

    b_exp: int
    c_exp: int

    def evaluate(self, b: float, c: float) -> float:
        return b**self.b_exp * c**self.c_exp


# ---------------------------------------------------------------------------
# per-entry primitives (arc decomposition of the punctured cycle)
# ---------------------------------------------------------------------------

def _punctured_even_cycle_monomials(m: int, removed: Sequence[int]) -> tuple[WeightMonomial, ...]:
    """Matchings of C_{2m} minus `removed` (sorted positions), one monomial each.

    Edge (x, x+1) weighs b when x is even, c when x is odd.  The removed
    vertices cut the cycle into arcs; each even-length arc has exactly one
    perfect matching, all of whose edges start on the same parity.
    """
    n = 2 * m
    if not removed:
        return (WeightMonomial(m, 0), WeightMonomial(0, m))
    b_exp = c_exp = 0
    for a, r in enumerate(removed):
        r_next = removed[(a + 1) % len(removed)]
        length = (r_next - r - 1) % n
        if length % 2:
            return ()
        start = (r + 1) % n
        if start % 2 == 0:
            b_exp += length // 2
        else:
            c_exp += length // 2
    return (WeightMonomial(b_exp, c_exp),)


def weighted_block_entry(m: int, S: int | Iterable[int], T: int | Iterable[int]) -> tuple[WeightMonomial, ...]:
    """Weighted entry: monomials of the matchings of the doubly punctured cycle.

    Single monomial of total degree m - |S| when nonzero; the (0, 0)
    entry alone is the binomial b^m + c^m.
    """
    if m < 1:
        raise InvalidParamsError(f"m must be >= 1, got {m}")
    s_mask = as_mask(m, S)
    t_mask = as_mask(m, T)
    removed = sorted([2 * l for l in mask_elements(s_mask)]
                     + [2 * l + 1 for l in mask_elements(t_mask)])
    return _punctured_even_cycle_monomials(m, removed)


def cycle_block_entry(m: int, S: int | Iterable[int], T: int | Iterable[int]) -> int:
    """Unweighted entry: number of perfect matchings of the punctured C_{2m}."""
    return len(weighted_block_entry(m, S, T))


def boundary_vector(m: int) -> dict[int, int]:
    """Cap vector omega_S = #PM(C_m - S), returned sparsely (nonzero only).

    omega at the empty set is 2 exactly when m is even; omega at I_m is 1;
    all other values are 0 or 1 by the arc-parity rule.  The scan visits
    all 2^m masks, so m above BOUNDARY_M_CAP raises TooLargeError.
    """
    if m < 3:
        raise InvalidParamsError(f"m must be >= 3, got {m}")
    if m > BOUNDARY_M_CAP:
        raise TooLargeError(f"m={m} exceeds boundary scan cap {BOUNDARY_M_CAP} (2^m masks)")
    omega: dict[int, int] = {}
    if m % 2 == 0:
        omega[0] = 2
    for mask in range(1, 1 << m):
        removed = mask_elements(mask)
        ok = True
        for a, r in enumerate(removed):
            r_next = removed[(a + 1) % len(removed)]
            if (r_next - r - 1) % m % 2:
                ok = False
                break
        if ok:
            omega[mask] = 1
    return omega


# ---------------------------------------------------------------------------
# rows of the operator, generated constructively from the interlacing rule
# ---------------------------------------------------------------------------

def _row_monomials(m: int, s_mask: int) -> tuple[tuple[int, WeightMonomial], ...]:
    """Row S of the weighted operator: one (T, weight) per matching, by ascending T.

    The package's single weighted row source, built without scanning 2^m
    masks.  For S != 0 a compatible T removes exactly one odd position
    strictly inside each cyclic gap between consecutive removed evens; the
    choice at offset d in a gap of length g contributes c^d b^(g-1-d).
    For S = 0 the intact C_{2m} has two matchings, so T = 0 is listed
    twice, as b^m and as c^m.
    """
    if s_mask == 0:
        return ((0, WeightMonomial(m, 0)), (0, WeightMonomial(0, m)))
    evens = mask_elements(s_mask)
    p = len(evens)
    gaps = [(evens[(a + 1) % p] - evens[a]) % m or m for a in range(p)]
    out: list[tuple[int, WeightMonomial]] = []
    for choice in itertools.product(*(range(g) for g in gaps)):
        t_mask = 0
        b_exp = c_exp = 0
        for a, d in enumerate(choice):
            t_mask |= 1 << ((evens[a] + d) % m)
            c_exp += d
            b_exp += gaps[a] - 1 - d
        out.append((t_mask, WeightMonomial(b_exp, c_exp)))
    out.sort(key=lambda pair: pair[0])
    return tuple(out)


@lru_cache(maxsize=None)
def _count_row(m: int, s_mask: int) -> tuple[tuple[int, int], ...]:
    """Row S of the integer operator, ((T, entry), ...) by ascending T.

    entry(S, T) is the number of matchings _row_monomials lists for T.
    The reduced kernel, the sampler's draws and the unreduced operator
    read their rows here; the walker DP in paths does not.
    """
    return tuple(Counter(t for t, _ in _row_monomials(m, s_mask)).items())


def _has_parity(m: int, mask: int) -> bool:
    """Whether |S| = m mod 2, the only profiles a perfect matching can have."""
    return bin(mask).count("1") % 2 == m % 2


@dataclass(frozen=True)
class TransferOperator:
    """The unreduced integer operator A, materialized row by row.

    rows holds (S, ((T, entry(S, T)), ...)) by ascending S; apply()
    computes x -> A x on those rows.
    """

    m: int
    rows: tuple[tuple[int, tuple[tuple[int, int], ...]], ...]

    def row(self, S: int | Iterable[int]) -> tuple[tuple[int, int], ...]:
        return _count_row(self.m, as_mask(self.m, S))

    def apply(self, vec: dict[int, int]) -> dict[int, int]:
        return _apply_rows(self.rows, vec)


def build_transfer(m: int, mode: str = "count", *,
                   parity_only: bool = False) -> TransferOperator:
    """Materialize the operator's integer rows for one barrel width.

    mode is kept for callers that pass "count" positionally; any other
    value raises InvalidParamsError.
    """
    if m < 3:
        raise InvalidParamsError(f"m must be >= 3, got {m}")
    if m > TRANSFER_M_CAP:
        raise TooLargeError(f"m={m} exceeds transfer cap {TRANSFER_M_CAP} (2^m states)")
    if mode != "count":
        raise InvalidParamsError(f"unknown transfer mode {mode!r}")
    rows = tuple((s, _count_row(m, s)) for s in range(1 << m)
                 if not parity_only or _has_parity(m, s))
    return TransferOperator(m, rows)


# ---------------------------------------------------------------------------
# exact counts on rotation classes
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _necklaces(m: int) -> tuple[tuple[int, ...], Mapping[int, int]]:
    """Rotation classes of the profiles |S| = m mod 2.

    Returns (canon, orbit): canon[S] is the least mask among the rotations
    of S (-1 for the other parity) and orbit maps each such representative,
    ascending, to the size of its class.
    """
    full = (1 << m) - 1
    canon = [-1] * (1 << m)
    orbit: dict[int, int] = {}
    for mask in range(1 << m):
        if canon[mask] >= 0 or not _has_parity(m, mask):
            continue
        x, size = mask, 0
        while canon[x] < 0:
            canon[x] = mask
            size += 1
            x = (x << 1 | x >> (m - 1)) & full
        orbit[mask] = size
    return tuple(canon), MappingProxyType(orbit)


def _apply_rows(rows, vec: dict[int, int]) -> dict[int, int]:
    """x -> A x over the given rows: (A x)_S = sum_T entry(S, T) x_T."""
    out: dict[int, int] = {}
    for s_mask, targets in rows:
        acc = 0
        for t_mask, w in targets:
            x = vec.get(t_mask)
            if x:
                acc += w * x
        if acc:
            out[s_mask] = acc
    return out


def _class_power(m: int, k: int, omega: dict[int, int], p: int | None = None, *,
                 keep: bool = False) -> tuple[int, list[dict[int, int]]]:
    """<omega| A^(k+1) |omega> summed over the classes of cardinality p (all if None).

    Every vector A^j omega is constant on rotation classes, so the loop runs
    on class representatives r with Q[r, c] = sum of A[r, t] over the t of
    class c, and the result is sum_c omega_c |orbit c| v_c.  omega is
    boundary_vector(m).  With keep, the reduced vectors Q^j omega for
    j = 0 .. k+1 come back as well.
    """
    canon, orbit = _necklaces(m)
    rows = []
    for r in orbit:
        if p is not None and bin(r).count("1") != p:
            continue
        acc: dict[int, int] = {}
        for t, w in _count_row(m, r):
            c = canon[t]
            acc[c] = acc.get(c, 0) + w
        rows.append((r, tuple(acc.items())))
    start = {r: omega[r] for r, _ in rows if r in omega}
    vec = start
    vecs = [start] if keep else []
    for _ in range(k + 1):
        vec = _apply_rows(rows, vec)
        if keep:
            vecs.append(vec)
    total = sum(w * orbit[c] * vec.get(c, 0) for c, w in start.items())
    return total, vecs


def count_matchings_transfer(m: int, k: int) -> int:
    """Phi(F(m, k)) = <omega| A^(k+1) |omega>, exact."""
    BarrelParams(m, k)  # validate
    if m > TRANSFER_M_CAP:
        raise TooLargeError(f"m={m} exceeds transfer cap {TRANSFER_M_CAP}")
    return _class_power(m, k, boundary_vector(m))[0]


def sector_count(m: int, k: int, p: int) -> int:
    """Contribution to Phi(F(m, k)) from profiles of fixed cardinality p.

    The operator preserves |S|, so Phi is the sum of sector_count over
    p = m mod 2, m mod 2 + 2, .., m.
    """
    BarrelParams(m, k)
    if m > TRANSFER_M_CAP:
        raise TooLargeError(f"m={m} exceeds transfer cap {TRANSFER_M_CAP}")
    if not 0 <= p <= m:
        raise SectorError(f"sector p={p} outside [0, {m}]")
    if p % 2 != m % 2:
        raise SectorError(f"sector p={p} has wrong parity for m={m}")
    return _class_power(m, k, boundary_vector(m), p)[0]


def closed_form_345(m: int, k: int) -> int:
    """Closed-form Phi(F(m, k)) for m in {3, 4, 5}, all-integer recurrences.

    m=3: 3^(k+2) + 1
    m=4: u_k + 2^(k+3) + 1,  u_0 = 8, u_1 = 24, u_(n+1) = 4 u_n - 2 u_(n-1)
    m=5: 5^(k+2) + 5 v_k + 1, v_0 = 2, v_1 = 5,  v_(n+1) = 5 v_n - 5 v_(n-1)
    """
    BarrelParams(m, k)
    if m == 3:
        return 3 ** (k + 2) + 1
    if m == 4:
        u_prev, u = 8, 24
        if k == 0:
            u = u_prev
        else:
            for _ in range(k - 1):
                u_prev, u = u, 4 * u - 2 * u_prev
        return u + 2 ** (k + 3) + 1
    if m == 5:
        v_prev, v = 2, 5
        if k == 0:
            v = v_prev
        else:
            for _ in range(k - 1):
                v_prev, v = v, 5 * v - 5 * v_prev
        return 5 ** (k + 2) + 5 * v + 1
    raise UnsupportedParameterError(f"closed form only for m in {{3, 4, 5}}, got m={m}")


# ---------------------------------------------------------------------------
# exact uniform sampling
# ---------------------------------------------------------------------------

def _cycle_pairing(n: int, removed: tuple[int, ...], choice: int = 0) -> list[tuple[int, int]]:
    """The adjacent-pair perfect matching of C_n minus `removed` (sorted).

    Unique when `removed` is nonempty (arc rule); for the intact even
    cycle `choice` picks the even-start (0) or odd-start (1) matching.
    Pairs are returned as (x, x+1 mod n).
    """
    if not removed:
        if n % 2:
            raise StructuralViolationError(f"odd cycle C_{n} has no perfect matching")
        start = 0 if choice == 0 else 1
        return [((start + 2 * t) % n, (start + 2 * t + 1) % n) for t in range(n // 2)]
    pairs: list[tuple[int, int]] = []
    for a, r in enumerate(removed):
        r_next = removed[(a + 1) % len(removed)]
        length = (r_next - r - 1) % n
        if length % 2:
            raise StructuralViolationError("arc of odd length has no perfect matching")
        for t in range(length // 2):
            x = (r + 1 + 2 * t) % n
            pairs.append((x, (x + 1) % n))
    return pairs


def _prefix_choice(rng: random.Random, total: int, row: Iterable[tuple[int, int]],
                   w: dict[int, int], canon: Sequence[int]) -> int:
    """Draw T from row ((T, cnt), ...) with probability cnt * w[canon[T]] / total.

    total must equal the sum of those weights; the row is scanned in its
    own order only up to the first T whose running weight passes the
    uniform draw, so no weighted list is built.
    """
    r = rng.randrange(total)
    for t, cnt in row:
        x = w.get(canon[t])
        if x:
            r -= cnt * x
            if r < 0:
                return t
    raise StructuralViolationError("weighted choice fell past the total weight")


class UniformSampler:
    """Exact uniform sampler over perfect matchings of F(m, k).

    Precomputes the suffix weights W_j = A^(k+1-j) omega, kept once per
    rotation class since W_j is rotation-invariant, then draws the
    profile layer by layer with conditional probabilities proportional to
    exact integer completion counts, finally filling the forced cycle and
    cap matchings (the only free choices are the 2-way alternations at
    empty layers of even m).  Since W_{j-1} = A W_j, the weight of every
    choice is already stored, W_{j-1}[S_{j-1}] (total for the first
    layer), and each layer scans its row against it only up to the hit.
    """

    def __init__(self, m: int, k: int):
        BarrelParams(m, k)
        if m > TRANSFER_M_CAP:
            raise TooLargeError(f"m={m} exceeds transfer cap {TRANSFER_M_CAP}")
        self.m, self.k = m, k
        self.graph: BarrelGraph = build_graph(BarrelParams(m, k))
        omega = boundary_vector(m)
        self._omega = sorted(omega.items())
        self._canon = _necklaces(m)[0]
        self.total, suffix = _class_power(m, k, omega, keep=True)
        suffix.reverse()  # suffix[j] = W_j on rotation classes, j = 0 .. k+1
        self._suffix = suffix

    def draw(self, rng: random.Random) -> Matching:
        m, k = self.m, self.k
        g = self.graph
        canon = self._canon
        suffix = self._suffix
        profile = [_prefix_choice(rng, self.total, self._omega, suffix[0], canon)]
        for j in range(1, k + 2):
            prev = profile[-1]
            profile.append(_prefix_choice(rng, suffix[j - 1][canon[prev]],
                                          _count_row(m, prev), suffix[j], canon))

        edges: set[int] = set()
        for j, s_mask in enumerate(profile):
            for l in mask_elements(s_mask):
                edges.add(g.horizontal_ids[(j, l)])
        left = mask_elements(profile[0])
        choice = rng.randrange(2) if not left else 0
        for x, _y in _cycle_pairing(m, left, choice):
            edges.add(g.cap_ids[("L", x)])
        right = mask_elements(profile[-1])
        choice = rng.randrange(2) if not right else 0
        for x, _y in _cycle_pairing(m, right, choice):
            edges.add(g.cap_ids[("R", x)])
        for j in range(1, k + 2):
            removed = tuple(sorted([2 * l for l in mask_elements(profile[j - 1])]
                                   + [2 * l + 1 for l in mask_elements(profile[j])]))
            choice = rng.randrange(2) if not removed else 0
            for x, _y in _cycle_pairing(2 * m, removed, choice):
                edges.add(g.cycle_ids[(j, x)])
        if len(edges) != g.n_vertices // 2:
            raise StructuralViolationError(
                f"sampled {len(edges)} edges for {g.n_vertices} vertices")
        return Matching(frozenset(edges))


@lru_cache(maxsize=8)
def _sampler(m: int, k: int) -> UniformSampler:
    return UniformSampler(m, k)


def sample_uniform(m: int, k: int, seed: int) -> Matching:
    """One exactly-uniform perfect matching of F(m, k), deterministic in seed."""
    return _sampler(m, k).draw(random.Random(seed))
