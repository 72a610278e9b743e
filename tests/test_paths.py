"""Non-intersecting path encoding, DP counts, and walker-determinant asymptotics."""

from __future__ import annotations

import math
from collections import Counter

import pytest

from barreldimer import bethe, errors, graph, paths, transfer

SQRT2 = math.sqrt(2.0)


def barrel(m: int, k: int) -> graph.BarrelGraph:
    return graph.build_graph(graph.BarrelParams(m, k))


# ---------------------------------------------------------------------------
# Matching -> path encoding
# ---------------------------------------------------------------------------


def test_all_horizontal_matching_has_no_walkers():
    g = barrel(4, 1)
    all_h = graph.Matching(frozenset(g.horizontal_ids.values()))
    fam = paths.matching_to_paths(g, all_h)
    assert fam.trajectories == ()
    assert fam.n_walkers == 0


@pytest.mark.parametrize("m,k", [(3, 0), (3, 1), (4, 1)])
def test_trajectories_are_unit_step_and_non_colliding(m, k):
    g = barrel(m, k)
    for mt in graph.enumerate_matchings(g):
        fam = paths.matching_to_paths(g, mt)
        for traj in fam.trajectories:
            assert len(traj) == k + 2
            for t in range(k + 1):
                assert (traj[t + 1] - traj[t]) % (2 * m) in (1, 2 * m - 1)
        for t in range(k + 2):
            column = [traj[t] for traj in fam.trajectories]
            assert len(set(column)) == len(column)


def test_walker_count_complements_profile_cardinality():
    g = barrel(4, 1)
    for mt in graph.enumerate_matchings(g):
        p = graph.horizontal_profile(g, mt).cardinality
        fam = paths.matching_to_paths(g, mt)
        assert fam.n_walkers == 4 - p


def test_encoding_injective_for_odd_m():
    g = barrel(3, 1)
    families = {paths.matching_to_paths(g, mt).trajectories for mt in graph.enumerate_matchings(g)}
    assert len(families) == 28


def test_encoding_multiplicity_structure_even_m():
    """On F(4,1) matchings with empty profile share a family 4-to-1 (2 cap
    choices per side); all others are unique. 4*4 + 25 = 41."""
    g = barrel(4, 1)
    census: Counter = Counter()
    for mt in graph.enumerate_matchings(g):
        census[paths.matching_to_paths(g, mt).trajectories] += 1
    assert len(census) == 29
    assert Counter(census.values()) == {4: 4, 1: 25}
    for fam, count in census.items():
        expected = 4 if fam and len(fam) == 4 else 1
        assert count == expected


# ---------------------------------------------------------------------------
# Admissible boundaries
# ---------------------------------------------------------------------------


def test_admissible_boundaries_m3():
    got = [(frozenset(s), mult) for s, mult in paths.admissible_boundaries(3)]
    assert got == [
        (frozenset(), 1),
        (frozenset({0, 2}), 1),
        (frozenset({0, 4}), 1),
        (frozenset({2, 4}), 1),
    ]


def test_admissible_boundaries_m4():
    got = dict(paths.admissible_boundaries(4))
    assert got == {
        frozenset(): 1,
        frozenset({0, 2}): 1,
        frozenset({2, 4}): 1,
        frozenset({4, 6}): 1,
        frozenset({0, 6}): 1,
        frozenset({0, 2, 4, 6}): 2,
    }


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_boundaries_live_on_even_sites(m):
    for sites, mult in paths.admissible_boundaries(m):
        assert all(0 <= x < 2 * m and x % 2 == 0 for x in sites)
        assert mult in (1, 2)


# ---------------------------------------------------------------------------
# Dynamic-programming counts
# ---------------------------------------------------------------------------


def test_dp_single_step_bijections():
    assert paths.path_dp_count(3, 0, {0, 2}, {1, 3}) == 1
    assert paths.path_dp_count(3, 0, {0, 2}, {3, 5}) == 1
    assert paths.path_dp_count(3, 0, {0, 2}, {1, 5}) == 1


def test_dp_full_class_single_step_has_two_transitions():
    assert paths.path_dp_count(4, 0, {0, 2, 4, 6}, {1, 3, 5, 7}) == 2


def test_dp_unreachable_parity_returns_zero():
    assert paths.path_dp_count(4, 0, {0, 2}, {0, 2}) == 0


def test_dp_size_mismatch_raises():
    with pytest.raises(errors.SizeMismatchError):
        paths.path_dp_count(4, 1, {0, 2}, {1, 3, 5})


def test_dp_mixed_parity_sites_raise():
    with pytest.raises(errors.ParityViolationError):
        paths.path_dp_count(4, 1, {0, 3}, {1, 3})


def test_dp_out_of_range_site_raises():
    with pytest.raises(errors.InvalidParamsError):
        paths.path_dp_count(4, 1, {0, 8}, {1, 3})


def test_dp_without_walkers_counts_one_family():
    assert paths.path_dp_count(4, 0, set(), set()) == 1
    assert paths.path_dp_count(4, 1, set(), set()) == 1


def test_dp_odd_parity_start():
    assert paths.path_dp_count(3, 0, {1, 3}, {2, 4}) == 1
    assert paths.path_dp_count(6, 4, {1, 3, 7}, {0, 4, 8}) == 720


def test_dp_end_of_wrong_parity_returns_zero():
    assert paths.path_dp_count(5, 3, {1, 5}, {0, 4}) == 0


@pytest.mark.parametrize("m", range(3, 10))
def test_walker_moves_equal_transfer_rows_on_complements(m):
    """One step of walker moves from slot mask full ^ S reaches full ^ T entry(S, T) ways."""
    full = (1 << m) - 1
    for s_mask in range(1 << m):
        got = Counter(paths._moves(m, full ^ s_mask))
        assert got == {full ^ t: entry for t, entry in transfer._count_row(m, s_mask)}, s_mask


def test_total_via_paths_reads_no_transfer_rows(monkeypatch):
    def unavailable(m, s_mask):
        raise AssertionError("the walker DP read a transfer row")

    monkeypatch.setattr(transfer, "_count_row", unavailable)
    assert paths.total_via_paths(5, 3) == transfer.closed_form_345(5, 3)


def test_dp_growth_rate_matches_growth_constant():
    vals = {k: paths.path_dp_count(4, k, {0, 2}, {0, 2}) for k in (37, 39, 41)}
    target = math.log(2.0 + SQRT2)
    for k in (39, 41):
        rate = math.log(vals[k] / vals[k - 2]) / 2
        assert abs(rate - target) < 1e-3


# ---------------------------------------------------------------------------
# Totals via paths
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m", [3, 4, 5, 6])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_total_via_paths_equals_transfer(m, k):
    assert paths.total_via_paths(m, k) == transfer.count_matchings_transfer(m, k)


def test_total_via_paths_golden():
    assert paths.total_via_paths(3, 1) == 28
    assert paths.total_via_paths(4, 0) == 17


def test_total_via_paths_rejects_large_m():
    with pytest.raises(errors.TooLargeError):
        paths.total_via_paths(17, 0)


# ---------------------------------------------------------------------------
# Krattenthaler estimate
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k", [1, 3, 5])
def test_krattenthaler_m4_closed_value(k):
    est = paths.krattenthaler_estimate(4, k, (1.0, 0.0), (1.0, 0.0), 0)
    target = (1.0 / 8.0) * (2.0 + SQRT2) ** (k + 1) * 0.5
    assert est.value == pytest.approx(target, rel=1e-12)
    assert est.n == 2
    assert est.s == 0


@pytest.mark.parametrize("k", [1, 3, 5])
def test_krattenthaler_m3_closed_value(k):
    est = paths.krattenthaler_estimate(3, k, (1.0, 0.0), (1.0, 0.0), 0)
    target = (2.0 / 9.0) * 3.0 ** (k + 1) * 0.75
    assert est.value == pytest.approx(target, rel=1e-12)


def test_krattenthaler_rejects_repeated_eta():
    with pytest.raises(errors.OrderingViolationError):
        paths.krattenthaler_estimate(4, 1, (1.0, 1.0), (1.0, 0.0), 0)


def test_krattenthaler_rejects_increasing_eta():
    with pytest.raises(errors.OrderingViolationError):
        paths.krattenthaler_estimate(4, 1, (0.0, 1.0), (1.0, 0.0), 0)


def test_krattenthaler_rejects_non_half_integers():
    with pytest.raises(errors.InvalidParamsError):
        paths.krattenthaler_estimate(4, 1, (0.25, 0.0), (1.0, 0.0), 0)


def test_krattenthaler_rejects_parity_violation():
    with pytest.raises(errors.ParityViolationError):
        paths.krattenthaler_estimate(4, 2, (1.0, 0.0), (1.0, 0.0), 0)


def test_krattenthaler_rejects_bad_shift():
    with pytest.raises(errors.InvalidParamsError):
        paths.krattenthaler_estimate(4, 1, (1.0, 0.0), (1.0, 0.0), 5)
    with pytest.raises(errors.OrderingViolationError):
        paths.krattenthaler_estimate(4, 1, (1.0, 0.0), (0.0, 1.0), 0)


# ---------------------------------------------------------------------------
# Eigenterm and leading-order consistency
# ---------------------------------------------------------------------------


def test_eigenterm_values():
    assert paths.eigenterm(4, 2) == pytest.approx(2.0 + SQRT2, rel=1e-12)
    assert paths.eigenterm(3, 2) == pytest.approx(3.0, rel=1e-12)
    assert paths.eigenterm(5, 0) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("m", [3, 4, 5, 6, 8, 13, 21, 64])
def test_eigenterm_equals_sector_maximum(m):
    for n in range(0, m + 1, 2):
        assert paths.eigenterm(m, n) == pytest.approx(
            bethe.lambda_max_sector(m, m - n), rel=1e-12
        )


@pytest.mark.parametrize("m,n0,value", [(4, 2, 2.0 + SQRT2), (6, 4, 4.0 + 2.0 * math.sqrt(3.0)), (3, 2, 3.0)])
def test_leading_report(m, n0, value):
    rep = paths.leading_n_consistency(m)
    assert rep.maximizer == n0
    assert rep.n0 == n0
    best = {n: term for n, term, lam, err in rep.entries}[n0]
    assert best == pytest.approx(value, rel=1e-12)


# ---------------------------------------------------------------------------
# Aggregated estimate and convergence to exact counts
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k", [3, 4, 5])
def test_aggregate_coefficient_m3_is_nine(k):
    agg = paths.aggregate_estimate(3, k)
    assert agg.base == pytest.approx(3.0, rel=1e-12)
    assert agg.value / 3.0 ** k == pytest.approx(9.0, rel=1e-12)


@pytest.mark.parametrize("k", [3, 4, 5])
def test_aggregate_coefficient_m4_is_two(k):
    agg = paths.aggregate_estimate(4, k)
    assert agg.base == pytest.approx(2.0 + SQRT2, rel=1e-12)
    assert agg.coefficient_k1 == pytest.approx(2.0, rel=1e-12)


def test_aggregate_tracks_dominant_sector():
    k = 12
    agg = paths.aggregate_estimate(5, k)
    exact = transfer.sector_count(5, k, bethe.p_zero(5))
    assert agg.value == pytest.approx(float(exact), rel=1e-2)


def test_dp_estimate_ratio_near_one():
    assert paths.dp_estimate_ratio(4, 29, [0, 2], [0, 2]) == pytest.approx(1.0, abs=1e-6)
    assert paths.dp_estimate_ratio(4, 31, [0, 2], [0, 2]) == pytest.approx(1.0, abs=1e-6)


def _aggregate_by_pairs_and_shifts(m, k, n):
    """Reference: the single-boundary estimate summed pair by pair and shift by shift."""
    boundaries = [(sites, mult) for sites, mult in paths.admissible_boundaries(m)
                  if len(sites) == n]
    total = 0.0
    for left, mult_l in boundaries:
        etas = sorted((site / 2 for site in left), reverse=True)
        for right, mult_r in boundaries:
            shifted = sorted((((site + k + 1) % (2 * m)) / 2 for site in right),
                             reverse=True)
            for s in range(n):
                lam_seq = shifted[n - s:] + shifted[:n - s]
                est = paths.krattenthaler_estimate(m, k, etas, lam_seq, s)
                total += mult_l * mult_r * est.value
    return total


@pytest.mark.parametrize("m", range(3, 11))
def test_aggregate_equals_pair_and_shift_sum(m):
    for n in range(2, m + 1, 2):
        for k in (0, 1, 5, 20):
            agg = paths.aggregate_estimate(m, k, n)
            assert agg.value == pytest.approx(_aggregate_by_pairs_and_shifts(m, k, n),
                                              rel=1e-12)


@pytest.mark.parametrize("m", range(4, 10))
def test_shift_classes_contribute_equal_terms(m):
    k = 5
    for n in range(2, m + 1, 2):
        boundaries = [sites for sites, _ in paths.admissible_boundaries(m) if len(sites) == n]
        left, right = boundaries[0], boundaries[-1]
        etas = sorted((site / 2 for site in left), reverse=True)
        shifted = sorted((((site + k + 1) % (2 * m)) / 2 for site in right), reverse=True)
        values = [paths.krattenthaler_estimate(m, k, etas, shifted[n - s:] + shifted[:n - s],
                                               s).value
                  for s in range(n)]
        assert max(values) == pytest.approx(min(values), rel=1e-13)


def test_aggregate_does_not_call_single_estimate(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("aggregate_estimate called krattenthaler_estimate")

    monkeypatch.setattr(paths, "krattenthaler_estimate", boom)
    agg = paths.aggregate_estimate(6, 5)
    assert agg.n == 4 and agg.value > 0


def test_aggregate_overflow_raises_before_boundary_scan(monkeypatch):
    def boom(m):
        raise AssertionError("boundaries enumerated before the overflow check")

    monkeypatch.setattr(paths, "admissible_boundaries", boom)
    with pytest.raises(errors.TooLargeError, match="float range"):
        paths.aggregate_estimate(20, 300)


def test_dp_estimate_ratio_without_walkers_raises():
    with pytest.raises(errors.InvalidParamsError):
        paths.dp_estimate_ratio(4, 3, [], [])
