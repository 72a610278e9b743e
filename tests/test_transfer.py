"""Transfer operator tests: entries, weights, counts, sectors, sampling.

Entry values are cross-checked against an exhaustive subset-scan matching
counter on punctured cycles, which shares no code with the operator's
arc-decomposition or gap-product constructions.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barreldimer import bethe, errors, graph, paths, transfer
from conftest import punctured_cycle_pm_count


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
            assert transfer.cycle_block_entry(m, S, T) == expected, (S, T)


def test_empty_empty_entry_is_two():
    for m in (3, 4, 5, 6):
        assert transfer.cycle_block_entry(m, (), ()) == 2


def test_singleton_diagonal_entry():
    assert transfer.cycle_block_entry(3, (0,), (0,)) == 1


def test_size_mismatch_entry_is_zero():
    assert transfer.cycle_block_entry(4, (0,), (0, 2)) == 0
    assert transfer.cycle_block_entry(4, (0, 1), ()) == 0


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_interlacing_characterizes_nonzero_entries(m):
    """entry(S,T) != 0 iff |S| = |T| and each cyclic gap of S holds one T odd."""
    for S in subsets(m):
        for T in subsets(m):
            entry = transfer.cycle_block_entry(m, S, T)
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
    op = transfer.build_transfer(m)
    for S in subsets(m):
        if not S:
            continue
        s_sorted = sorted(S)
        prod = 1
        for i, a in enumerate(s_sorted):
            nxt = s_sorted[(i + 1) % len(s_sorted)]
            prod *= (nxt - a) % m or m
        row = dict(op.row(transfer.as_mask(m, S)))
        assert len(row) == prod
        assert all(bin(t).count("1") == len(S) for t in row)


# ---------------------------------------------------------------------------
# Weighted entries
# ---------------------------------------------------------------------------


def test_weighted_empty_pair_is_bm_plus_cm():
    mons = transfer.weighted_block_entry(4, (), ())
    assert sorted((mo.b_exp, mo.c_exp) for mo in mons) == [(0, 4), (4, 0)]


def test_weighted_singleton_entry():
    mons = transfer.weighted_block_entry(3, (0,), (0,))
    assert [(mo.b_exp, mo.c_exp) for mo in mons] == [(2, 0)]


@pytest.mark.parametrize("m", [3, 4, 5])
def test_weighted_degree_is_m_minus_p(m):
    for S in subsets(m):
        for T in subsets(m):
            for mo in transfer.weighted_block_entry(m, S, T):
                assert mo.b_exp + mo.c_exp == m - len(S)


@pytest.mark.parametrize("m", [3, 4, 5])
def test_weight_specialization_recovers_counts(m):
    for S in subsets(m):
        for T in subsets(m):
            mons = transfer.weighted_block_entry(m, S, T)
            assert len(mons) == transfer.cycle_block_entry(m, S, T)
            assert sum(mo.evaluate(1.0, 1.0) for mo in mons) == len(mons)


@pytest.mark.parametrize("m", [4, 5, 7])
def test_singleton_block_action_formula(m):
    """B|l> = sum_{l'<=l} c^(l-l') b^(m-1+l'-l) |l'> + sum_{l'>l} b^(l'-l-1) c^(m+l-l')|l'>."""
    for l in range(m):
        for lp in range(m):
            mons = transfer.weighted_block_entry(m, (lp,), (l,))
            assert len(mons) == 1
            mo = mons[0]
            if lp <= l:
                assert (mo.b_exp, mo.c_exp) == (m - 1 + lp - l, l - lp)
            else:
                assert (mo.b_exp, mo.c_exp) == (lp - l - 1, m + l - lp)


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
            assert transfer.cycle_block_entry(m, S, T) == transfer.cycle_block_entry(
                m, sT, sS
            )


def test_operator_is_not_literally_symmetric():
    assert transfer.cycle_block_entry(4, (0, 1), (0, 2)) != transfer.cycle_block_entry(
        4, (0, 2), (0, 1)
    )


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


@pytest.mark.parametrize("m", [3, 4, 5, 6, 7])
def test_boundary_vector_matches_cycle_oracle(m):
    omega = transfer.boundary_vector(m)
    for S in subsets(m):
        mask = transfer.as_mask(m, S)
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
    masks = bethe._block_basis(5, 2)
    assert list(masks) == sorted(masks)
    assert len(masks) == 10
    assert all(bin(x).count("1") == 2 for x in masks)


@pytest.mark.parametrize("m", [3, 4, 5, 6, 7])
def test_row_generator_matches_entry_reference(m):
    """Every production row equals the per-entry arc decomposition, matching by matching."""
    for s_mask in range(1 << m):
        reference = []
        for t_mask in range(1 << m):
            for mo in transfer.weighted_block_entry(m, s_mask, t_mask):
                reference.append((t_mask, (mo.b_exp, mo.c_exp)))
        row = transfer._row_monomials(m, s_mask)
        assert [t for t, _ in row] == sorted(t for t, _ in row)
        assert sorted((t, (mo.b_exp, mo.c_exp)) for t, mo in row) == sorted(reference)
        counts = {t: len(transfer.weighted_block_entry(m, s_mask, t))
                  for t in range(1 << m) if transfer.cycle_block_entry(m, s_mask, t)}
        assert transfer._count_row(m, s_mask) == tuple(sorted(counts.items()))


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
    vec = {transfer.as_mask(3, (0,)): 5, transfer.as_mask(3, (1,)): 7}
    out = op.apply(vec)
    manual: dict[int, int] = {}
    for mask, coeff in vec.items():
        for target, entry in op.row(mask):
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

    canon, orbit = transfer._necklaces(m)
    assert all(m % size == 0 for size in orbit.values())
    assert sum(orbit.values()) == 2 ** (m - 1)
    for mask in range(1 << m):
        if bin(mask).count("1") % 2 != m % 2:
            assert canon[mask] == -1
            continue
        rotated = (mask << 1 | mask >> (m - 1)) & ((1 << m) - 1)
        assert canon[mask] in orbit and canon[mask] <= mask
        assert canon[rotated] == canon[mask]
