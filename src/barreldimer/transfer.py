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
so entry(S, T) is invariant under it, and so is omega.  Reflecting C_{2m}
by x -> -x mod 2m sends the removed evens 2l to 2(-l) and the removed odds
2l+1 to 2(m-1-l)+1, so entry(sigma S, tau T) = entry(S, T) with
sigma(l) = -l and tau(l) = m-1-l.  Every dihedral map of C_m fixes omega,
and tau is sigma followed by a rotation, so if w is invariant under the
dihedral group then (A w)(sigma S) = sum_T entry(S, T) w(tau T) = (A w)(S).
Every vector A^j omega is therefore constant on bracelet classes, the
orbits of masks under rotation and the reversal l -> m-1-l, and the exact
counts run on the classes c = 0 .. C-1 (numbered by their representative
r, the least mask of each orbit, |r| = m mod 2) with the reduced operator

    Q[r, c] = sum of entry(r, t) over the t in class c,
    Phi     = sum_c omega_c |orbit c| (Q^(k+1) omega)_c.

Reflecting C_{2m} by x -> 1 - x instead sends the removed evens 2l to the
odds 2(-l)+1 and the removed odds 2l+1 to the evens 2(-l), so
entry(S, T) = entry(-T, -S) with slots taken mod m: A^T = R A R for the
permutation R: S -> -S.  R is dihedral and fixes every A^j omega, so Q is
self-adjoint for the orbit-size inner product, |r| Q[r, c] = |c| Q[c, r],
and the count meets in the middle: with h = floor((k+1)/2),

    Phi = sum_c |orbit c| (Q^h omega)_c (Q^(k+1-h) omega)_c,

ceil((k+1)/2) matvecs, all on integers of at most half the final bit length.

At m = 14 this is 362 states, 15,676 listed row entries and 9,514
distinct nonzeros, against 8192 states and 355,322 nonzeros of the parity
block of A; rows are generated for the representatives only.  The
reflection x -> -x swaps the b and c weights of the cycle edges, so the
reduction holds for the integer operator only: the Bethe blocks read
_count_row, never the classes.  _count_row is the one source of rows for
the kernel, the sampler, the unreduced operator and the Bethe blocks; it
lists each target T of row S with its entry and caches nothing, and the
weight of a matching follows from S and T alone (see _count_row).  Vectors are plain
lists indexed by class, and a row is the tuple of the class indices
canon[t], each t listed entry(r, t) times, so one matvec step is
sum(map(vec.__getitem__, row)) per row: the additions run in C with no
dict lookups.  One generator, _class_vectors, yields Q^0 omega, Q^1 omega,
.. on the classes, and _orbit_dot is the one orbit-size inner product: the
counts pair Q^h omega with Q^(k+1-h) omega, and the sampler keeps the
first k+2 vectors as its suffix weights and scans its rows in the same form.
TransferOperator is the unreduced operator, kept as the reference the
tests check the reduced kernel against; it runs on the same matvec.

Subsets of I_m = {0, .., m-1} are encoded as bitmasks (bit l set iff
l in S); all counting is exact big-integer arithmetic.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import (
    InvalidParamsError,
    SectorError,
    StructuralViolationError,
    TooLargeError,
    UnsupportedParameterError,
)
from .graph import (EDGE_DOWN, EDGE_HORIZONTAL, EDGE_MGON, EDGE_UP, BarrelParams, Matching,
                    edge_block)

TRANSFER_M_CAP = 16
BOUNDARY_M_CAP = 20
# Counting time grows like k^2 (ceil((k+1)/2) matvecs on integers of up to
# ~(k/2) log2 rho bits); count_matchings_transfer(14, 2000) takes 3.2 s on
# 2 cores (Python 3.11).
TRANSFER_K_CAP = 2000
# Bytes of suffix weights one UniformSampler may keep, by _kept_bytes.
SAMPLER_BYTES_CAP = 256 << 20


# ---------------------------------------------------------------------------
# subset encoding
# ---------------------------------------------------------------------------

def mask_elements(mask: int) -> tuple[int, ...]:
    out = []
    l = 0
    while mask:
        if mask & 1:
            out.append(l)
        mask >>= 1
        l += 1
    return tuple(out)


def _check_sector(m: int, p: int) -> None:
    """InvalidParamsError for a bad width; SectorError unless p is an int in [0, m]."""
    BarrelParams(m, 0)
    if type(p) is not int or not 0 <= p <= m:
        raise SectorError(f"sector p={p} outside [0, {m}]")


def _check_boundary_cap(m: int) -> None:
    """TooLargeError for m above BOUNDARY_M_CAP, where omega is not scanned."""
    if m > BOUNDARY_M_CAP:
        raise TooLargeError(f"m={m} exceeds boundary scan cap {BOUNDARY_M_CAP}")


def boundary_vector(m: int) -> dict[int, int]:
    """Cap vector omega_S = #PM(C_m - S), returned sparsely (nonzero only).

    omega at the empty set is 2 exactly when m is even; every other nonzero
    value is 1.  C_m - S has a perfect matching iff every cyclic gap between
    consecutive elements of S is even, that is, iff the sorted elements
    alternate in parity and |S| = m mod 2.  The support is generated from
    this rule as chains of odd steps, by ascending top element, so the keys
    come out in ascending mask order without visiting the other masks.  m
    above BOUNDARY_M_CAP raises TooLargeError.
    """
    BarrelParams(m, 0)
    _check_boundary_cap(m)
    omega: dict[int, int] = {0: 2} if m % 2 == 0 else {}
    # chains[h][q]: ascending masks of alternating-parity sets with top
    # element h and cardinality = q mod 2.  Below {h} itself, the sets with
    # next element h2 < h (h - h2 odd) follow by ascending h2.
    chains: list[tuple[list[int], list[int]]] = []
    for h in range(m):
        bit = 1 << h
        even: list[int] = []
        odd = [bit]
        for h2 in range((h - 1) % 2, h, 2):
            below_even, below_odd = chains[h2]
            even += [x | bit for x in below_odd]
            odd += [x | bit for x in below_even]
        chains.append((even, odd))
        omega.update(dict.fromkeys(odd if m % 2 else even, 1))
    return omega


# ---------------------------------------------------------------------------
# rows of the operator, generated constructively from the interlacing rule
# ---------------------------------------------------------------------------

def _count_row(m: int, s_mask: int) -> tuple[tuple[int, int], ...]:
    """Row S of the integer operator, ((T, entry), ...) by ascending T.

    Built without scanning 2^m masks.  For S != 0 a compatible T removes
    exactly one odd position strictly inside each cyclic gap between
    consecutive removed evens, so T takes one slot of each gap and the
    targets are the sums of one slot bit per gap, all distinct, each with
    entry 1.  The matching of T weighs c^d b^(m-p-d), p = |S|, with
    d = (sum T - sum S) mod m the total offset of the slots into their
    gaps.  For S = 0 the intact C_{2m} has two matchings, b^m and c^m, so
    the row is ((0, 2),).  Nothing is cached: the reduced kernel, the
    sampler's draws, the unreduced operator and the Bethe blocks call it
    per row; the walker DP in paths does not read it.
    """
    if s_mask == 0:
        return ((0, 2),)
    evens = mask_elements(s_mask)
    p = len(evens)
    slots = [[1 << ((l + d) % m) for d in range((evens[(a + 1) % p] - l) % m or m)]
             for a, l in enumerate(evens)]
    return tuple((t, 1) for t in sorted(map(sum, itertools.product(*slots))))


def _has_parity(m: int, mask: int) -> bool:
    """Whether |S| = m mod 2, the only profiles a perfect matching can have."""
    return mask.bit_count() % 2 == m % 2


def _listed(row: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    """The T of row ((T, entry), ...), each listed entry times, in row order."""
    return tuple(itertools.chain.from_iterable(itertools.starmap(itertools.repeat, row)))


@dataclass(frozen=True)
class TransferOperator:
    """The unreduced integer operator A, materialized row by row.

    rows holds (S, ((T, entry(S, T)), ...)) by ascending S; apply()
    computes x -> A x on those rows with _apply_rows, on a list indexed by
    mask.
    """

    m: int
    rows: tuple[tuple[int, tuple[tuple[int, int], ...]], ...]

    def apply(self, vec: Mapping[int, int]) -> dict[int, int]:
        """A x for x given sparsely by mask; the nonzero entries come back."""
        x = [0] * (1 << self.m)
        for s_mask, value in vec.items():
            x[s_mask] = value
        out = _apply_rows([_listed(targets) for _, targets in self.rows], x)
        return {s_mask: value for (s_mask, _), value in zip(self.rows, out) if value}


def build_transfer(m: int, mode: str = "count", *,
                   parity_only: bool = False) -> TransferOperator:
    """Materialize the operator's integer rows for one barrel width.

    mode is kept for callers that pass "count" positionally; any other
    value raises InvalidParamsError.
    """
    _check_count_size(m)
    if mode != "count":
        raise InvalidParamsError(f"unknown transfer mode {mode!r}")
    rows = tuple((s, _count_row(m, s)) for s in range(1 << m)
                 if not parity_only or _has_parity(m, s))
    return TransferOperator(m, rows)


# ---------------------------------------------------------------------------
# exact counts on bracelet classes
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _classes(m: int) -> tuple[list[int], tuple[int, ...], tuple[int, ...]]:
    """Bracelet classes of the profiles |S| = m mod 2, numbered 0 .. C-1.

    A class is the orbit of a mask under rotation and under the reversal
    l -> m-1-l, so its size divides 2m.  Returns (canon, reps, sizes):
    canon[S] is the index of the class of S (-1 for the other parity),
    reps[c] the least mask of class c and sizes[c] its number of masks.
    Classes are numbered by ascending representative.  The reversal is
    taken once per class, from the elements of its representative; a 2^m
    table of reversals would raise the peak memory of every count, and so
    would a tuple copy of canon, which callers only read.
    """
    full = (1 << m) - 1
    canon = [-1] * (1 << m)
    reps: list[int] = []
    sizes: list[int] = []
    for mask in range(1 << m):
        if canon[mask] >= 0 or not _has_parity(m, mask):
            continue
        c = len(reps)
        size = 0
        reversed_mask = sum(1 << (m - 1 - l) for l in mask_elements(mask))
        for x in (mask, reversed_mask):  # the second orbit is empty when the first holds it
            while canon[x] < 0:
                canon[x] = c
                size += 1
                x = (x << 1 | x >> (m - 1)) & full
        reps.append(mask)
        sizes.append(size)
    return canon, tuple(reps), tuple(sizes)


def _class_row(m: int,
               row: Iterable[tuple[int, int]]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Row ((T, entry), ...) as (targets, classes): each T listed entry times,
    in row order, and the class index canon[T] of each."""
    canon = _classes(m)[0]
    targets = _listed(row)
    return targets, tuple(map(canon.__getitem__, targets))


def _apply_rows(rows: Iterable[Sequence[int]], vec: Sequence[int]) -> list[int]:
    """x -> A x on index rows: out[i] sums vec[j] over the j listed in rows[i].

    An index listed entry times carries that entry (every entry is 1 but
    entry(0, 0) = 2), so a step is only additions, which sum() runs in C.
    """
    get = vec.__getitem__
    return [sum(map(get, row)) for row in rows]


def _class_vectors(m: int, omega: Mapping[int, int],
                   p: int | None = None) -> Iterator[list[int]]:
    """The reduced vectors Q^j omega, j = 0, 1, .., on the classes of cardinality p (all if None).

    Every vector A^j omega is constant on bracelet classes, so each comes as
    a list indexed by class, and row r of Q is the class indices of
    _class_row of _count_row(m, r) (empty outside sector p).  omega is
    boundary_vector(m); the generator reads it into Q^0 omega and drops it
    before the rows are built, so a count, which passes it in and keeps no
    reference, holds only the rows and the vectors in its loop.  A vector is
    computed only when it is asked for, so the first n vectors cost n - 1
    matvecs.  Nothing caches the rows: they are rebuilt from _count_row on
    every call.
    """
    reps = _classes(m)[1]
    inside = [p is None or r.bit_count() == p for r in reps]
    vec = [omega.get(r, 0) if ok else 0 for r, ok in zip(reps, inside)]
    del omega
    rows = [_class_row(m, _count_row(m, r))[1] if ok else () for r, ok in zip(reps, inside)]
    while True:
        yield vec
        vec = _apply_rows(rows, vec)


def _orbit_dot(m: int, x: Sequence[int], y: Sequence[int]) -> int:
    """sum_c |orbit c| x_c y_c, the inner product for which Q is self-adjoint."""
    return sum(size * a * b for size, a, b in zip(_classes(m)[2], x, y))


def _class_power(m: int, k: int, p: int | None = None) -> int:
    """<omega| A^(k+1) |omega> summed over the classes of cardinality p (all if None).

    Q is self-adjoint for the orbit-size inner product (module docstring),
    so with h = (k+1) // 2 the result meets in the middle, the _orbit_dot
    of Q^h omega and Q^(k+1-h) omega.  k+1-h is h or h+1, so _class_vectors
    runs k+1-h matvecs, and only Q^h omega and the current vector are kept.
    """
    h = (k + 1) // 2
    vecs = _class_vectors(m, boundary_vector(m), p)
    mid = next(itertools.islice(vecs, h, None))
    return _orbit_dot(m, mid, next(vecs) if (k + 1) % 2 else mid)


def _check_count_size(m: int, k: int = 0) -> None:
    """Validate (m, k); TooLargeError for m or k above its transfer cap."""
    BarrelParams(m, k)
    for name, value, cap in (("m", m, TRANSFER_M_CAP), ("k", k, TRANSFER_K_CAP)):
        if value > cap:
            raise TooLargeError(f"{name}={value} exceeds transfer cap {cap}")


def count_matchings_transfer(m: int, k: int) -> int:
    """Phi(F(m, k)) = <omega| A^(k+1) |omega>, exact."""
    _check_count_size(m, k)
    return _class_power(m, k)


def sector_count(m: int, k: int, p: int) -> int:
    """Contribution to Phi(F(m, k)) from profiles of fixed cardinality p.

    The operator preserves |S|, so Phi is the sum of sector_count over
    p = m mod 2, m mod 2 + 2, .., m.
    """
    _check_count_size(m, k)
    _check_sector(m, p)
    if p % 2 != m % 2:
        raise SectorError(f"sector p={p} has wrong parity for m={m}")
    return _class_power(m, k, p)


def _second_order(a: int, b: int, x0: int, x1: int, k: int) -> int:
    """x_k of x_(n+1) = a x_n + b x_(n-1) from x_0 and x_1."""
    for _ in range(k):
        x0, x1 = x1, a * x1 + b * x0
    return x0


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
        return _second_order(4, -2, 8, 24, k) + 2 ** (k + 3) + 1
    if m == 5:
        return 5 ** (k + 2) + 5 * _second_order(5, -5, 2, 5, k) + 1
    raise UnsupportedParameterError(f"closed form only for m in {{3, 4, 5}}, got m={m}")


# ---------------------------------------------------------------------------
# exact uniform sampling
# ---------------------------------------------------------------------------

def _prefix_choice(rng: random.Random, total: int, classes: Sequence[int],
                   w: Sequence[int]) -> int:
    """Position i in a listed row, drawn with probability w[classes[i]] / total.

    total must equal the sum of those weights.  A row lists each T once per
    unit of entry(S, T), so the weights of its copies add up to
    entry * w[canon[T]].  The row is scanned in its own order only up to
    the first position whose running weight passes the uniform draw, so no
    weighted list is built and no canon[T] is read per entry.
    """
    r = rng.randrange(total)
    i = 0
    for c in classes:
        r -= w[c]
        if r < 0:
            return i
        i += 1
    raise StructuralViolationError("weighted choice fell past the total weight")


def _subset_table(m: int) -> tuple[tuple[int, ...], ...]:
    """mask_elements(mask) for every mask of I_m, indexed by the mask."""
    table: list[tuple[int, ...]] = [()]
    for l in range(m):
        table += [t + (l,) for t in table]
    return tuple(table)


def _down_slots(m: int, a: int, b: int, coin: int) -> int:
    """Slots i whose down edge (2i+1, 2i+2) the big cycle between S_(j-1) = a and S_j = b matches.

    The cycle loses the evens {2l : l in a} and the odds {2l+1 : l in b},
    which interlace.  The arc after 2l (l in a) runs up to the next removed
    odd 2l'+1 and is matched by the down edges of slots l .. l'-1; the arcs
    after the odds are matched by up edges.  With b's lowest slot moved up
    by m when it lies below a's (that b closes the wrapping arc), the
    difference b - a has exactly these runs of bits set, and folding bit
    m + i onto bit i undoes the wrap.  The intact cycle (a = b = 0) takes
    all of its down edges for coin 1 and none for coin 0.
    """
    if not a:
        return (1 << m) - 1 if coin else 0
    low = b & -b
    if low < a & -a:
        b += (low << m) - low
    d = b - a
    return (d | d >> m) & ((1 << m) - 1)


def _cap_slots(m: int, removed: tuple[int, ...], coin: int) -> int:
    """Edges x = (x, x+1 mod m) that match the cap m-gon minus the slots `removed` (sorted).

    Each cyclic gap after an element l of `removed` leaves an arc of
    n = l' - l - 1 vertices before the next element l', matched by its
    edges l + 1, l + 3, ..: the bits 0b0101.. cut to n bits, shifted to
    l + 1 and folded mod m.  Every n is even for the profiles a cap can
    meet (boundary_vector's support).  The intact cap (m even) takes its
    even edges for coin 0 and its odd edges for coin 1.
    """
    alt = ((1 << 2 * m) - 1) // 3  # bits 0, 2, 4, ..
    if not removed:
        return (alt & ((1 << m) - 1)) << coin
    d = 0
    for l, l_next in zip(removed, removed[1:] + (removed[0] + m,)):
        d |= (alt & ((1 << (l_next - l - 1)) - 1)) << (l + 1)
    return (d | d >> m) & ((1 << m) - 1)


def _kept_bytes(m: int, k: int) -> int:
    """Upper estimate of the memory of the sampler's k + 2 kept vectors.

    Row S of A sums to the product of the gaps of S (2 for S = 0), so no
    row sums to more than R, the largest product of a composition of m
    (parts of 3, with one 4 or one 2 for the remainder).  Every kept entry
    is at most 2 R^(k+1), and each of the (k + 2) x classes entries is
    costed at the bytes of that bound plus 64 for the int header and the
    list slot.  The lists hold every class, zeros included, and each list
    adds 128 bytes for its header and spare slots.
    """
    q, r = divmod(m, 3)
    row_max = 3 ** q if r == 0 else 4 * 3 ** (q - 1) if r == 1 else 2 * 3 ** q
    bits = 2 + math.ceil((k + 1) * math.log2(row_max))
    return (k + 2) * (len(_classes(m)[1]) * (bits // 8 + 64) + 128)


class UniformSampler:
    """Exact uniform sampler over perfect matchings of F(m, k).

    Precomputes the suffix weights W_j = A^(k+1-j) omega, the first k+2
    vectors of _class_vectors reversed in place, kept once per bracelet
    class as lists indexed by class since W_j is invariant under rotation
    and reversal (see the module docstring).  total is the meet of
    _class_power, read off the kept vectors, and is checked against the
    full contraction, the _orbit_dot of omega and Q^(k+1) omega.  A draw
    picks the profile layer by layer with conditional probabilities
    proportional to exact integer completion counts, then fills the forced
    cycle and cap matchings (the only free choices are the 2-way
    alternations at empty layers of even m).
    Since W_{j-1} = A W_j, the weight of every choice is already stored:
    one loop body draws all k+2 layers, layer j scanning the row of S_(j-1)
    against W_j only up to the hit, with W_{j-1}[S_{j-1}] as its total.
    The row before layer 0 lists omega, with weight total.  The rows are
    the (targets, classes) pairs of _class_row for _count_row(m, S), built
    the first time a draw reaches S and kept by the sampler; omega's row
    is rows[-1].  Draws walk the actual masks of each row, and the class of
    T only looks up W_j(T), so the choice of classes moves no weight and no
    sampled byte.  The chosen position gives both the next mask and its
    class.

    The fill works on slot masks.  Between a = S_(j-1) and b = S_j, big
    cycle j matches the down edges of D = _down_slots(m, a, b, coin) (the
    cyclic runs from each slot of a up to the next slot of b), the
    horizontal edges of b, and the up edges of every other slot; the coin
    is drawn for the intact cycle only, which takes D = I_m or D = 0 by it.
    The ids of a mask are read off per-layer tuples of edge_block's ids,
    built once per sampler, so all draws share the same int objects.  Each cap matches the edges of
    _cap_slots around its end profile, the intact cap by one more coin.
    The coins are drawn in the order left cap, right cap, then the big
    cycles.  Construction raises TooLargeError when _kept_bytes(m, k)
    exceeds SAMPLER_BYTES_CAP, and StructuralViolationError when the kept
    vectors break the reflection lemma (the meet differs from the full
    contraction).
    """

    def __init__(self, m: int, k: int):
        params = BarrelParams(m, k)
        _check_count_size(m)  # k is bounded by SAMPLER_BYTES_CAP instead
        kept = _kept_bytes(m, k)
        if kept > SAMPLER_BYTES_CAP:
            raise TooLargeError(
                f"sampler for F({m},{k}) would keep about {kept >> 20} MiB "
                f"of suffix weights, over the cap of {SAMPLER_BYTES_CAP >> 20} MiB")
        self.m, self.k = m, k
        omega = boundary_vector(m)
        # rows[S] for the masks S as the draws reach them; rows[-1] is omega's
        self._rows: list[tuple[tuple[int, ...], tuple[int, ...]] | None] = [None] * (1 << m)
        self._rows.append(_class_row(m, omega.items()))
        suffix = list(itertools.islice(_class_vectors(m, omega), k + 2))
        h = (k + 1) // 2
        self.total = _orbit_dot(m, suffix[h], suffix[k + 1 - h])
        if self.total != _orbit_dot(m, suffix[0], suffix[k + 1]):
            raise StructuralViolationError(
                f"Q is not self-adjoint on the classes of m={m}: meet != full contraction")
        suffix.reverse()  # suffix[j] = W_j on bracelet classes, j = 0 .. k+1
        self._suffix = suffix

        def block(kind: str, layer: int) -> tuple[int, ...]:
            return tuple(edge_block(params, kind, layer))

        self._elements = _subset_table(m)
        self._caps = (block(EDGE_MGON, 0), block(EDGE_MGON, k + 2))
        self._horizontal = tuple(block(EDGE_HORIZONTAL, j) for j in range(k + 2))
        self._cycles = tuple((block(EDGE_UP, j), block(EDGE_DOWN, j)) for j in range(1, k + 2))

    def draw(self, rng: random.Random) -> Matching:
        m, k = self.m, self.k
        rows = self._rows
        s_mask, total, profile = -1, self.total, []
        for w in self._suffix:
            row = rows[s_mask]
            if row is None:
                row = rows[s_mask] = _class_row(m, _count_row(m, s_mask))
            targets, classes = row
            i = _prefix_choice(rng, total, classes, w)
            s_mask, total = targets[i], w[classes[i]]
            profile.append(s_mask)

        elements = self._elements
        edges: list[int] = []
        fill = edges.extend
        for s_mask, ids in zip((profile[0], profile[-1]), self._caps):
            coin = rng.randrange(2) if not s_mask else 0
            fill(map(ids.__getitem__, elements[_cap_slots(m, elements[s_mask], coin)]))
        for s_mask, ids in zip(profile, self._horizontal):
            fill(map(ids.__getitem__, elements[s_mask]))
        full = (1 << m) - 1
        for a, b, (up, down) in zip(profile, profile[1:], self._cycles):
            d_mask = _down_slots(m, a, b, rng.randrange(2) if not a else 0)
            fill(map(up.__getitem__, elements[full & ~(d_mask | b)]))
            fill(map(down.__getitem__, elements[d_mask]))
        matched = frozenset(edges)
        if len(edges) != len(matched) or len(matched) != m * (k + 2):
            raise StructuralViolationError(
                f"sampled {len(edges)} edges for {2 * m * (k + 2)} vertices")
        return Matching(matched)


@lru_cache(maxsize=2)
def _sampler(m: int, k: int) -> UniformSampler:
    """The two most recent samplers stay cached.  SAMPLER_BYTES_CAP bounds the
    suffix vectors of each, not the rows and the id tuples it also keeps."""
    return UniformSampler(m, k)


def sample_uniform(m: int, k: int, seed: int) -> Matching:
    """One exactly-uniform perfect matching of F(m, k), deterministic in seed."""
    return _sampler(m, k).draw(random.Random(seed))
