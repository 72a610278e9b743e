"""Shared oracles, deliberately independent of the library's algorithms.

The subset-scan matching counter checks every V/2-subset of the edge set
for disjointness and coverage; exponential, but exact and structurally
unlike both the library's backtracking and its transfer recursion, so it
can arbitrate between them on small instances.

The per-entry arc reference builds one transfer entry at a time from the
arcs of the punctured big cycle, one (b_exp, c_exp) pair per matching,
where the library generates whole rows from the gap product.

The recursive enumerator, the entry-by-entry amplitude loop and the
pair-by-pair cycle matching are the earlier forms of the library's
explicit-stack enumeration, stacked determinants and slot-mask fill; the
library must reproduce their order and their bits.

The push walk is the earlier form of the walker DP: it scatters every
state's weight onto its move targets through dict updates, all k+1 steps,
where the library pulls each state from its sources and meets in the
middle.  It shares only the one-step moves, paths._moves, which the tests
check against the transfer rows.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Sequence

import numpy as np

from barreldimer.errors import InvalidParamsError, StructuralViolationError
from barreldimer.paths import _moves
from barreldimer.transfer import mask_elements


def pm_count_by_subsets(n_vertices: int, edges: list[tuple[int, int]]) -> int:
    """Perfect matchings of an arbitrary small graph by exhaustive subset scan."""
    if n_vertices % 2:
        return 0
    need = n_vertices // 2
    full = (1 << n_vertices) - 1
    masks = [(1 << u) | (1 << v) for u, v in edges]
    count = 0
    for combo in itertools.combinations(masks, need):
        acc = 0
        for mask in combo:
            if acc & mask:
                break
            acc |= mask
        else:
            if acc == full:
                count += 1
    return count


def punctured_cycle_pm_count(n: int, removed: set[int]) -> int:
    """Perfect matchings of the cycle C_n with `removed` vertices deleted."""
    keep = [v for v in range(n) if v not in removed]
    relabel = {v: i for i, v in enumerate(keep)}
    edges = [(relabel[a], relabel[b]) for a, b in ((i, (i + 1) % n) for i in range(n))
             if a in relabel and b in relabel]
    edges = sorted(set(tuple(sorted(e)) for e in edges))
    return pm_count_by_subsets(len(keep), edges)


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


def _punctured_even_cycle_monomials(m: int, removed: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """Matchings of C_{2m} minus `removed` (sorted positions), one (b_exp, c_exp) each.

    Edge (x, x+1) weighs b when x is even, c when x is odd.  The removed
    vertices cut the cycle into arcs; each even-length arc has exactly one
    perfect matching, all of whose edges start on the same parity.
    """
    n = 2 * m
    if not removed:
        return ((m, 0), (0, m))
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
    return ((b_exp, c_exp),)


def weighted_block_entry(m: int, S: int | Iterable[int], T: int | Iterable[int]) -> tuple[tuple[int, int], ...]:
    """Weighted entry: (b_exp, c_exp) of each matching of the doubly punctured cycle.

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


def cycle_pairing(n: int, removed: tuple[int, ...], choice: int = 0) -> list[tuple[int, int]]:
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


def matchings_by_recursion(adjacency: Sequence[Sequence[tuple[int, int]]]) -> Iterator[frozenset[int]]:
    """Edge-id sets of every perfect matching, one recursion level per matched edge.

    Backtracks on the lowest uncovered vertex, trying its neighbours in
    adjacency order.
    """
    n = len(adjacency)
    covered = bytearray(n)
    chosen: list[int] = []

    def emit(lo: int) -> Iterator[frozenset[int]]:
        while lo < n and covered[lo]:
            lo += 1
        if lo == n:
            yield frozenset(chosen)
            return
        covered[lo] = 1
        for u, eid in adjacency[lo]:
            if not covered[u]:
                covered[u] = 1
                chosen.append(eid)
                yield from emit(lo + 1)
                chosen.pop()
                covered[u] = 0
        covered[lo] = 0

    return emit(0)


def amplitudes_by_entry(roots: Sequence[complex], sel: Sequence[int],
                        basis: Sequence[int]) -> tuple[complex, ...]:
    """det(z_{R_i}^{l_j}) one basis mask at a time, with p = 0 and p = 1 by hand."""
    zs = [roots[r] for r in sel]
    amps: list[complex] = []
    for mask in basis:
        ls = mask_elements(mask)
        if not zs:
            amps.append(1.0 + 0.0j)
        elif len(zs) == 1:
            amps.append(zs[0] ** ls[0])
        else:
            mat = np.array([[z ** l for l in ls] for z in zs], dtype=complex)
            amps.append(complex(np.linalg.det(mat)))
    return tuple(amps)


def push_walk(m: int, k: int, start: dict[int, int], end: dict[int, int], canon: Sequence[int]) -> int:
    """sum_S end(S) v(S), where v is start pushed k+1 steps through the walker moves.

    A state is canon[S]: start is folded through canon, and each state's
    move targets are generated once and mapped as they are.  With the
    identity range(1 << m) a state is a slot mask.  With canon = _necklaces(m)
    a state is a necklace representative whose weight is its orbit total, so
    a target class is counted once per move of the representative landing
    in it; that is exact only when start, end and the moves are all
    rotation-invariant.
    """
    vec: dict[int, int] = {}
    for slots, weight in start.items():
        vec[canon[slots]] = vec.get(canon[slots], 0) + weight
    succ: dict[int, tuple[int, ...]] = {}
    for _ in range(k + 1):
        out: dict[int, int] = {}
        for slots, weight in vec.items():
            targets = succ.get(slots)
            if targets is None:
                targets = succ[slots] = tuple(map(canon.__getitem__, _moves(m, slots)))
            for t in targets:
                out[t] = out.get(t, 0) + weight
        vec = out
    return sum(weight * vec.get(slots, 0) for slots, weight in end.items())
