"""Transfer operator tests: entries, weights, counts, sectors, sampling.

Entry values are cross-checked against an exhaustive subset-scan matching
counter on punctured cycles, which shares no code with the operator's
arc-decomposition or gap-product constructions.
"""

from __future__ import annotations

import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barreldimer import bethe, errors, graph, paths, transfer
from conftest import as_mask, cycle_block_entry, punctured_cycle_pm_count, weighted_block_entry


def subsets(m: int):
    for r in range(m + 1):
        yield from itertools.combinations(range(m), r)


# ---------------------------------------------------------------------------
# Block entries against the independent oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m", [3, 4])
def test_entries_match_punctured_cycle_oracle(m):
    for S in subsets(m):
        for T in subsets(m):
            removed = {2 * l for l in S} | {2 * l + 1 for l in T}
            expected = punctured_cycle_pm_count(2 * m, removed)
            assert cycle_block_entry(m, S, T) == expected, (S, T)


def test_empty_empty_entry_is_two():
    for m in (3, 4, 5, 6):
        assert cycle_block_entry(m, (), ()) == 2


def test_singleton_diagonal_entry():
    assert cycle_block_entry(3, (0,), (0,)) == 1


def test_size_mismatch_entry_is_zero():
    assert cycle_block_entry(4, (0,), (0, 2)) == 0
    assert cycle_block_entry(4, (0, 1), ()) == 0


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_interlacing_characterizes_nonzero_entries(m):
    """entry(S,T) != 0 iff |S| = |T| and each cyclic gap of S holds one T odd."""
    for S in subsets(m):
        for T in subsets(m):
            entry = cycle_block_entry(m, S, T)
            if len(S) != len(T):
                assert entry == 0
                continue
            if not S:
                assert entry == 2
                continue
            # odd vertex 2t+1 lies in the S-gap starting at even 2a when
            # (t - a) mod m < gap length
            s_sorted = sorted(S)
            gaps = []
            for i, a in enumerate(s_sorted):
                nxt = s_sorted[(i + 1) % len(s_sorted)]
                gaps.append((a, (nxt - a) % m or m))
            ok = all(
                sum(1 for t in T if (t - a) % m < length) == 1 for a, length in gaps
            )
            assert (entry != 0) == ok, (S, T)


@pytest.mark.parametrize("m", [3, 4, 5])
def test_row_support_size_is_gap_product(m):
    for S in subsets(m):
        if not S:
            continue
        s_sorted = sorted(S)
        prod = 1
        for i, a in enumerate(s_sorted):
            nxt = s_sorted[(i + 1) % len(s_sorted)]
            prod *= (nxt - a) % m or m
        row = dict(transfer._count_row(m, as_mask(m, S)))
        assert len(row) == prod
        assert all(bin(t).count("1") == len(S) for t in row)


# ---------------------------------------------------------------------------
# Weighted entries
# ---------------------------------------------------------------------------


def test_weighted_empty_pair_is_bm_plus_cm():
    mons = weighted_block_entry(4, (), ())
    assert sorted(mons) == [(0, 4), (4, 0)]


def test_weighted_singleton_entry():
    mons = weighted_block_entry(3, (0,), (0,))
    assert list(mons) == [(2, 0)]


@pytest.mark.parametrize("m", [3, 4, 5])
def test_weighted_degree_is_m_minus_p(m):
    for S in subsets(m):
        for T in subsets(m):
            for b_exp, c_exp in weighted_block_entry(m, S, T):
                assert b_exp + c_exp == m - len(S)


@pytest.mark.parametrize("m", [3, 4, 5])
def test_weight_specialization_recovers_counts(m):
    for S in subsets(m):
        for T in subsets(m):
            mons = weighted_block_entry(m, S, T)
            assert len(mons) == cycle_block_entry(m, S, T)
            assert sum(1.0 ** b_exp * 1.0 ** c_exp for b_exp, c_exp in mons) == len(mons)


@pytest.mark.parametrize("m", [4, 5, 7])
def test_singleton_block_action_formula(m):
    """B|l> = sum_{l'<=l} c^(l-l') b^(m-1+l'-l) |l'> + sum_{l'>l} b^(l'-l-1) c^(m+l-l')|l'>."""
    for l in range(m):
        for lp in range(m):
            mons = weighted_block_entry(m, (lp,), (l,))
            assert len(mons) == 1
            mo = mons[0]
            if lp <= l:
                assert mo == (m - 1 + lp - l, l - lp)
            else:
                assert mo == (lp - l - 1, m + l - lp)


# ---------------------------------------------------------------------------
# Structural symmetries of the operator
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_reflection_transpose_symmetry(m):
    """entry(S,T) equals entry(sigma T, sigma S) for the reflection sigma(x) = -x mod m."""
    for S in subsets(m):
        for T in subsets(m):
            sS = tuple((-x) % m for x in S)
            sT = tuple((-x) % m for x in T)
            assert cycle_block_entry(m, S, T) == cycle_block_entry(m, sT, sS)


def test_operator_is_not_literally_symmetric():
    assert cycle_block_entry(4, (0, 1), (0, 2)) != cycle_block_entry(4, (0, 2), (0, 1))


# ---------------------------------------------------------------------------
# Boundary vector
# ---------------------------------------------------------------------------


def test_boundary_vector_m3():
    assert transfer.boundary_vector(3) == {0b001: 1, 0b010: 1, 0b100: 1, 0b111: 1}


def test_boundary_vector_m4():
    assert transfer.boundary_vector(4) == {
        0b0000: 2,
        0b0011: 1,
        0b0110: 1,
        0b1100: 1,
        0b1001: 1,
        0b1111: 1,
    }


def test_boundary_vector_rejects_m_above_cap():
    with pytest.raises(errors.TooLargeError):
        transfer.boundary_vector(transfer.BOUNDARY_M_CAP + 1)


def _boundary_scan(m):
    """omega by the arc-parity rule over all 2^m masks, in ascending mask order."""
    omega = {0: 2} if m % 2 == 0 else {}
    for mask in range(1, 1 << m):
        removed = transfer.mask_elements(mask)
        if all((removed[(a + 1) % len(removed)] - r - 1) % m % 2 == 0
               for a, r in enumerate(removed)):
            omega[mask] = 1
    return omega


@pytest.mark.parametrize("m", range(3, 17))
def test_boundary_vector_equals_mask_scan(m):
    """Same entries in the same (ascending) order as the scan it replaces."""
    assert list(transfer.boundary_vector(m).items()) == list(_boundary_scan(m).items())


@pytest.mark.parametrize("m", [3, 4, 5, 6, 7])
def test_boundary_vector_matches_cycle_oracle(m):
    omega = transfer.boundary_vector(m)
    for S in subsets(m):
        mask = as_mask(m, S)
        expected = punctured_cycle_pm_count(m, set(S))
        assert omega.get(mask, 0) == expected


# ---------------------------------------------------------------------------
# Counting
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "m,k,total",
    [(3, 0, 10), (4, 0, 17), (5, 0, 36), (6, 0, 54), (3, 1, 28), (4, 1, 41), (5, 1, 151), (6, 1, 272)],
)
def test_transfer_counts_golden(m, k, total):
    assert transfer.count_matchings_transfer(m, k) == total


@pytest.mark.parametrize("k", range(0, 21, 4))
def test_closed_forms_match_transfer(k):
    for m in (3, 4, 5):
        assert transfer.closed_form_345(m, k) == transfer.count_matchings_transfer(m, k)


def test_closed_form_values():
    assert transfer.closed_form_345(3, 0) == 10
    assert transfer.closed_form_345(3, 5) == 3 ** 7 + 1
    assert transfer.closed_form_345(4, 2) == 80 + 2 ** 5 + 1  # u_2 = 4*24 - 2*8 = 80
    assert transfer.closed_form_345(5, 1) == 151


def test_closed_form_rejects_other_m():
    with pytest.raises(errors.UnsupportedParameterError):
        transfer.closed_form_345(6, 0)


def test_transfer_rejects_oversized_m():
    with pytest.raises(errors.TooLargeError):
        transfer.count_matchings_transfer(17, 0)


def test_transfer_counts_refuse_k_over_the_cap(monkeypatch):
    k = transfer.TRANSFER_K_CAP + 1
    with pytest.raises(errors.TooLargeError, match="k="):
        transfer.count_matchings_transfer(3, k)
    with pytest.raises(errors.TooLargeError, match="k="):
        transfer.sector_count(3, k, 1)
    monkeypatch.setattr(transfer, "TRANSFER_K_CAP", 4)
    assert transfer.count_matchings_transfer(3, 4) == 3 ** 6 + 1
    with pytest.raises(errors.TooLargeError):
        transfer.count_matchings_transfer(3, 5)


# ---------------------------------------------------------------------------
# Sectors
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_full_sector_is_single_matching(k):
    assert transfer.sector_count(3, k, 3) == 1
    assert transfer.sector_count(4, k, 4) == 1


@pytest.mark.parametrize("k", [0, 1, 2, 5])
def test_empty_sector_m4_is_power_of_two(k):
    assert transfer.sector_count(4, k, 0) == 2 ** (k + 3)


@pytest.mark.parametrize("m,k", [(3, 2), (4, 2), (5, 2), (6, 1)])
def test_sectors_partition_total(m, k):
    total = sum(transfer.sector_count(m, k, p) for p in range(m % 2, m + 1, 2))
    assert total == transfer.count_matchings_transfer(m, k)


@pytest.mark.parametrize("m", range(3, 13))
def test_every_sector_of_the_right_parity_is_nonempty(m):
    """So asymptotic --aggregate never divides by a zero exact sector."""
    for p in range(m % 2, m + 1, 2):
        assert transfer.sector_count(m, 0, p) >= 1, p


def test_sector_rejects_bad_parity_and_range():
    with pytest.raises(errors.SectorError):
        transfer.sector_count(4, 1, 1)
    with pytest.raises(errors.SectorError):
        transfer.sector_count(4, 1, 6)
    with pytest.raises(errors.SectorError):
        transfer.sector_count(4, 1, -2)


# ---------------------------------------------------------------------------
# Operator plumbing
# ---------------------------------------------------------------------------


def test_block_masks_are_ascending_and_complete():
    """Every (m, p) with m <= 10 against the popcount scan of all 2^m masks."""
    for m in range(3, 11):
        for p in range(m + 1):
            masks = bethe._block_basis(m, p)
            assert masks == tuple(x for x in range(1 << m) if bin(x).count("1") == p), (m, p)
    assert len(bethe._block_basis(5, 2)) == 10


@pytest.mark.parametrize("m", [3, 4, 5, 6, 7])
def test_row_generator_matches_entry_reference(m):
    """Every production row equals the per-entry arc decomposition, and for
    S != 0 its distinct targets weigh (m - p - d, d), d = (sum T - sum S) mod m."""
    for s_mask in range(1 << m):
        reference = {t: weighted_block_entry(m, s_mask, t) for t in range(1 << m)
                     if cycle_block_entry(m, s_mask, t)}
        row = transfer._count_row(m, s_mask)
        assert row == tuple((t, len(mons)) for t, mons in sorted(reference.items()))
        if not s_mask:
            continue
        targets = [t for t, _ in row]
        assert len(set(targets)) == len(targets), s_mask
        p = bin(s_mask).count("1")
        s_sum = sum(transfer.mask_elements(s_mask))
        for t in targets:
            d = (sum(transfer.mask_elements(t)) - s_sum) % m
            assert reference[t] == ((m - p - d, d),), (s_mask, t)


@pytest.mark.parametrize("m,parity_only,states,nnz", [
    (8, True, 128, 1102), (8, False, 256, 2206), (10, True, 512, 7562), (10, False, 1024, 15126),
])
def test_build_transfer_table_shape(m, parity_only, states, nnz):
    """The shape the benchmark's traced warm-up reads: (S, targets) pairs, their sizes."""
    rows = transfer.build_transfer(m, "count", parity_only=parity_only).rows
    assert len(rows) == states
    assert sum(len(targets) for _, targets in rows) == nnz
    for s_mask, targets in rows:
        assert all(isinstance(t, int) and w > 0 for t, w in targets), s_mask


def test_build_transfer_rejects_other_modes():
    with pytest.raises(errors.InvalidParamsError):
        transfer.build_transfer(4, "numeric")


def test_apply_matches_manual_matvec():
    op = transfer.build_transfer(3)
    vec = {as_mask(3, (0,)): 5, as_mask(3, (1,)): 7}
    out = op.apply(vec)
    manual: dict[int, int] = {}
    for mask, coeff in vec.items():
        for target, entry in transfer._count_row(3, mask):
            manual[target] = manual.get(target, 0) + coeff * entry
    assert out == manual


# ---------------------------------------------------------------------------
# Rotation-class kernel against the unreduced operator and the walker DP
# ---------------------------------------------------------------------------


def unreduced_count(m: int, k: int) -> int:
    op = transfer.build_transfer(m)
    omega = transfer.boundary_vector(m)
    vec = dict(omega)
    for _ in range(k + 1):
        vec = op.apply(vec)
    return sum(w * vec.get(s, 0) for s, w in omega.items())


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(m=st.integers(3, 10), k=st.integers(0, 15))
def test_class_kernel_matches_unreduced_operator_and_paths(m, k):
    total = transfer.count_matchings_transfer(m, k)
    assert total == unreduced_count(m, k)
    assert total == paths.total_via_paths(m, k)
    assert sum(transfer.sector_count(m, k, p) for p in range(m % 2, m + 1, 2)) == total

    canon, reps, sizes = transfer._classes(m)
    assert len(reps) == len(sizes)
    assert list(reps) == sorted(reps)
    assert all(canon[r] == c for c, r in enumerate(reps))
    assert all(2 * m % size == 0 for size in sizes)
    assert sum(sizes) == 2 ** (m - 1)
    for mask in range(1 << m):
        if bin(mask).count("1") % 2 != m % 2:
            assert canon[mask] == -1
            continue
        assert 0 <= canon[mask] < len(reps) and reps[canon[mask]] <= mask
        assert canon[rotate(m, mask)] == canon[mask]
        assert canon[reverse(m, mask)] == canon[mask]
    assert Counter(c for c in canon if c >= 0) == dict(enumerate(sizes))
    for c, r in enumerate(reps):
        assert {mask for mask in range(1 << m) if canon[mask] == c} == dihedral_orbit(m, r)


def rotate(m: int, mask: int) -> int:
    """S -> S + 1 on slots mod m."""
    return (mask << 1 | mask >> (m - 1)) & ((1 << m) - 1)


def reverse(m: int, mask: int) -> int:
    """S -> {m-1-l : l in S}, by reading the m-digit binary string backwards."""
    return int(format(mask, f"0{m}b")[::-1], 2)


def dihedral_orbit(m: int, mask: int) -> set[int]:
    orbit = set()
    for x in (mask, reverse(m, mask)):
        for _ in range(m):
            orbit.add(x)
            x = rotate(m, x)
    return orbit


@pytest.mark.parametrize("m", range(3, 11))
def test_unreduced_iterates_are_invariant_under_reversal(m):
    """A^j omega of the unreduced operator, j <= 6, takes equal values at S and its reversal.

    This is the property the bracelet classes rest on, checked without the kernel.
    """
    op = transfer.build_transfer(m)
    vec = transfer.boundary_vector(m)
    for j in range(7):
        assert vec, j
        assert all(vec.get(reverse(m, s), 0) == value for s, value in vec.items()), j
        vec = op.apply(vec)


@pytest.mark.parametrize("m", range(3, 11))
def test_class_row_lists_each_target_entry_times(m):
    """For every mask: T of _count_row(m, S) entry(S, T) times, ascending, with canon[T]."""
    canon = transfer._classes(m)[0]
    for s_mask in range(1 << m):
        row = transfer._count_row(m, s_mask)
        targets, classes = transfer._class_row(m, row)
        assert Counter(targets) == dict(row), s_mask
        assert list(targets) == sorted(targets), s_mask
        assert classes == tuple(canon[t] for t in targets), s_mask


@pytest.mark.parametrize("m", range(3, 10))
def test_kept_class_vectors_are_the_unreduced_iterates(m):
    """_class_vectors reads A^j omega of the unreduced operator at the representatives."""
    op = transfer.build_transfer(m)
    omega = transfer.boundary_vector(m)
    reps = transfer._classes(m)[1]
    for k in range(7):
        total = transfer._class_power(m, k)
        vecs = list(itertools.islice(transfer._class_vectors(m, omega), k + 2))
        assert len(vecs) == k + 2
        vec = dict(omega)
        for j, got in enumerate(vecs):
            assert got == [vec.get(r, 0) for r in reps], (k, j)
            vec = op.apply(vec)
        assert total == unreduced_count(m, k)


def test_class_power_rereads_count_rows(monkeypatch):
    """The reduced rows are rebuilt from _count_row on every call, with no cache of their own."""
    want = transfer.count_matchings_transfer(3, 2)
    real = transfer._count_row

    def corrupted(m, s_mask):
        row = real(m, s_mask)
        if (m, s_mask) != (3, 0b001):
            return row
        (t0, cnt0), *more = row
        return ((t0, cnt0 + 1), *more)

    monkeypatch.setattr(transfer, "_count_row", corrupted)
    assert transfer.count_matchings_transfer(3, 2) != want


# ---------------------------------------------------------------------------
# Reflection lemma and the meet in the middle
# ---------------------------------------------------------------------------


def negate(m: int, mask: int) -> int:
    """S -> {-l mod m : l in S}."""
    return sum(1 << (-l % m) for l in transfer.mask_elements(mask))


@pytest.mark.parametrize("m", range(3, 11))
def test_count_rows_obey_the_reflection_lemma(m):
    """entry(S, T) = entry(-T, -S) on every row of _count_row, every mask."""
    rows = [dict(transfer._count_row(m, s)) for s in range(1 << m)]
    for s, row in enumerate(rows):
        for t, entry in row.items():
            assert rows[negate(m, t)].get(negate(m, s)) == entry, (s, t)


@pytest.mark.parametrize("m", range(3, 15))
def test_class_operator_is_self_adjoint_for_orbit_sizes(m):
    """|r| Q[r, c] = |c| Q[c, r] for every pair of bracelet classes."""
    _, reps, sizes = transfer._classes(m)
    q = [Counter(transfer._class_row(m, transfer._count_row(m, r))[1]) for r in reps]
    for r, row in enumerate(q):
        for c, value in row.items():
            assert sizes[r] * value == sizes[c] * q[c][r], (r, c)


def test_counts_run_half_the_steps_and_the_sampler_all(monkeypatch):
    """k + 1 - (k+1)//2 matvecs for a count or a sector, k + 1 for the sampler."""
    calls = []
    real = transfer._apply_rows

    def counted(rows, vec):
        calls.append(1)
        return real(rows, vec)

    monkeypatch.setattr(transfer, "_apply_rows", counted)
    for m, k in [(3, 0), (4, 1), (5, 4), (6, 7), (7, 10)]:
        for run, want in [(lambda: transfer.count_matchings_transfer(m, k), k + 1 - (k + 1) // 2),
                          (lambda: transfer.sector_count(m, k, m), k + 1 - (k + 1) // 2),
                          (lambda: transfer.UniformSampler(m, k), k + 1)]:
            calls.clear()
            run()
            assert len(calls) == want, (m, k)


@pytest.mark.parametrize("m", range(3, 13))
def test_meet_in_the_middle_equals_the_full_contraction(m):
    """Every sector p at k = 0..9 (h = 0 and both parities of k + 1): the halved
    result, the full contraction of the generated vectors and the unreduced operator agree."""
    op = transfer.build_transfer(m, parity_only=True)
    omega = transfer.boundary_vector(m)
    sizes = transfer._classes(m)[2]
    iterates = [dict(omega)]
    for _ in range(10):
        iterates.append(op.apply(iterates[-1]))
    for p in range(m % 2, m + 1, 2):
        for k in range(10):
            total = transfer._class_power(m, k, p)
            vecs = list(itertools.islice(transfer._class_vectors(m, omega, p), k + 2))
            full = sum(w * size * x for w, size, x in zip(vecs[0], sizes, vecs[k + 1]))
            unreduced = sum(w * iterates[k + 1].get(s, 0) for s, w in omega.items()
                            if bin(s).count("1") == p)
            assert total == full == unreduced, (p, k)


def test_sampler_rejects_a_row_that_breaks_the_reflection(monkeypatch):
    """One extra entry(001, 111) without entry(111, 001) makes the meet differ from the full sum."""
    real = transfer._count_row

    def corrupted(m, s_mask):
        row = real(m, s_mask)
        return (*row, (0b111, 1)) if (m, s_mask) == (3, 0b001) else row

    monkeypatch.setattr(transfer, "_count_row", corrupted)
    with pytest.raises(errors.StructuralViolationError, match="self-adjoint"):
        transfer.UniformSampler(3, 4)
