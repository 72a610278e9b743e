"""Exact-uniform sampler tests: validity, determinism, and distribution."""

from __future__ import annotations

import itertools
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest
from scipy.stats import chi2

from barreldimer import errors, graph, transfer
from barreldimer.validate import SAMPLER_SEED
from conftest import cycle_pairing


def _list_weighted_choice(rng, items):
    total = sum(w for _, w in items)
    r = rng.randrange(total)
    for key, w in items:
        if r < w:
            return key
        r -= w
    raise AssertionError("weighted choice fell past the total weight")


def _edge_ids(g):
    """(kind, layer, pos) -> edge id, read off the graph's edges; the two
    big-cycle kinds are both keyed "cycle"."""
    cycle = {graph.EDGE_UP, graph.EDGE_DOWN}
    return {("cycle" if e.kind in cycle else e.kind, e.layer, e.pos): eid
            for eid, e in enumerate(g.edges)}


def _list_and_sum_draw(sampler, rng):
    """Reference draw returning (profile masks, Matching).

    Each layer builds its whole weighted row and sums it before choosing;
    the fill that follows is the sampler's own, step for step.  Edge ids
    come from the edges build_graph makes, not from the sampler's tables.
    """
    m, k = sampler.m, sampler.k
    ids = _edge_ids(graph.build_graph(graph.BarrelParams(m, k)))
    canon = transfer._classes(m)[0]
    omega = sorted(transfer.boundary_vector(m).items())
    w0 = sampler._suffix[0]
    items = [(s, w * x) for s, w in omega if (x := w0[canon[s]])]
    profile = [_list_weighted_choice(rng, items)]
    for j in range(1, k + 2):
        wj = sampler._suffix[j]
        items = [(t, cnt * x) for t, cnt in transfer._count_row(m, profile[-1])
                 if (x := wj[canon[t]])]
        profile.append(_list_weighted_choice(rng, items))
    elements = transfer.mask_elements
    edges = set()
    for j, s_mask in enumerate(profile):
        for l in elements(s_mask):
            edges.add(ids[(graph.EDGE_HORIZONTAL, j, l)])
    left = elements(profile[0])
    choice = rng.randrange(2) if not left else 0
    for x, _y in cycle_pairing(m, left, choice):
        edges.add(ids[(graph.EDGE_MGON, 0, x)])
    right = elements(profile[-1])
    choice = rng.randrange(2) if not right else 0
    for x, _y in cycle_pairing(m, right, choice):
        edges.add(ids[(graph.EDGE_MGON, k + 2, x)])
    for j in range(1, k + 2):
        removed = tuple(sorted([2 * l for l in elements(profile[j - 1])]
                               + [2 * l + 1 for l in elements(profile[j])]))
        choice = rng.randrange(2) if not removed else 0
        for x, _y in cycle_pairing(2 * m, removed, choice):
            edges.add(ids[("cycle", j, x)])
    return profile, graph.Matching(frozenset(edges))


@pytest.mark.parametrize("m,k", [(3, 0), (3, 2), (4, 2), (5, 1), (6, 3)])
def test_samples_are_perfect_matchings(m, k):
    g = graph.build_graph(graph.BarrelParams(m, k))
    for seed in range(5):
        mt = transfer.sample_uniform(m, k, seed)
        assert graph.is_perfect(g, mt)


def test_sampling_is_seed_deterministic():
    a = transfer.sample_uniform(4, 3, 20260814)
    b = transfer.sample_uniform(4, 3, 20260814)
    assert a == b


def test_different_seeds_reach_different_matchings():
    seen = {transfer.sample_uniform(3, 1, seed) for seed in range(60)}
    assert len(seen) > 10


def test_sampler_covers_all_outcomes_f31():
    total = transfer.count_matchings_transfer(3, 1)
    assert total == 28
    seen = {transfer.sample_uniform(3, 1, seed) for seed in range(1200)}
    assert len(seen) == 28


def test_chi_square_uniformity_f31():
    """28,000 draws over the 28 matchings of F(3,1) at significance 0.001."""
    n_outcomes = 28
    n_samples = 28000
    counts = Counter(
        transfer.sample_uniform(3, 1, SAMPLER_SEED + i) for i in range(n_samples)
    )
    assert len(counts) == n_outcomes
    expected = n_samples / n_outcomes
    stat = sum((c - expected) ** 2 / expected for c in counts.values())
    assert stat < chi2.ppf(0.999, n_outcomes - 1)


def test_sector_frequency_tracks_exact_ratio_f40():
    """P(p = 0) on F(4,0) is exactly 8/17; a seeded run must land within 5 sigma."""
    g = graph.build_graph(graph.BarrelParams(4, 0))
    exact = Fraction(transfer.sector_count(4, 0, 0), transfer.count_matchings_transfer(4, 0))
    assert exact == Fraction(8, 17)
    n = 3000
    hits = 0
    for i in range(n):
        mt = transfer.sample_uniform(4, 0, SAMPLER_SEED + i)
        if graph.horizontal_profile(g, mt).cardinality == 0:
            hits += 1
    p = float(exact)
    sigma = (p * (1 - p) * n) ** 0.5
    assert abs(hits - p * n) < 5 * sigma


@pytest.mark.parametrize("m", range(3, 9))
@pytest.mark.parametrize("k", [0, 1, 5])
def test_suffix_rows_sum_to_stored_totals(m, k):
    """The totals the prefix scan draws against: W_{j-1}[S] = sum_T A[S, T] W_j[T]."""
    sampler = transfer.UniformSampler(m, k)
    canon, suffix = transfer._classes(m)[0], sampler._suffix
    omega = transfer.boundary_vector(m)
    assert sum(w * suffix[0][canon[s]] for s, w in omega.items()) == sampler.total
    for s_mask in range(1 << m):
        if canon[s_mask] < 0:
            continue
        row = transfer._count_row(m, s_mask)
        for j in range(1, k + 2):
            got = sum(cnt * suffix[j][canon[t]] for t, cnt in row)
            assert got == suffix[j - 1][canon[s_mask]], (s_mask, j)


@pytest.mark.parametrize("m,ks", [(3, (0, 1, 6)), (4, (0, 2, 5)), (5, (0, 1, 4)),
                                  (6, (0, 3)), (7, (1, 2)), (8, (0, 2)), (9, (0, 1)),
                                  (10, (0, 1)), (11, (0, 1)), (12, (0, 1))])
def test_prefix_draw_matches_list_and_sum_draw(m, ks):
    """Same profiles, matchings and RNG stream as the list-and-sum draw."""
    for k in ks:
        sampler = transfer.UniformSampler(m, k)
        g = graph.build_graph(graph.BarrelParams(m, k))
        for seed in (0, 1, 20260814):
            new_rng, old_rng = random.Random(seed), random.Random(seed)
            for _ in range(6):
                got = sampler.draw(new_rng)
                profile, want = _list_and_sum_draw(sampler, old_rng)
                layers = graph.horizontal_profile(g, got).layers
                assert layers == tuple(frozenset(transfer.mask_elements(s)) for s in profile)
                assert got.sorted_ids() == want.sorted_ids()
                assert new_rng.getstate() == old_rng.getstate()


# Even m, where the empty profile and its coins occur; at (12, 10) it is
# 8192 of about 3.8e19 matchings, so only the fill test below reaches it.
COIN_CASES = [(4, 0), (4, 1), (4, 2), (4, 3), (6, 2), (8, 1), (12, 10)]


def test_draw_choose_and_fill_are_defined_in_the_class_body():
    """The benchmark's tracer wraps vars(UniformSampler)["draw"] and ["__init__"]."""
    assert {"__init__", "draw", "choose", "fill"} <= set(vars(transfer.UniformSampler))


@pytest.mark.parametrize("m,k", COIN_CASES)
def test_fill_of_choose_is_the_draw(m, k):
    """choose makes every RNG call of a draw: the same matching, and the two
    generators end in the same state."""
    sampler = transfer.UniformSampler(m, k)
    for seed in (*range(30), 31, 139):  # 31 and 139 draw coins at (6, 2) and (8, 1)
        choose_rng, draw_rng = random.Random(seed), random.Random(seed)
        assert sampler.fill(sampler.choose(choose_rng)) == sampler.draw(draw_rng)
        assert choose_rng.getstate() == draw_rng.getstate()


@pytest.mark.parametrize("m,k", COIN_CASES)
def test_word_holds_the_masks_then_one_coin_per_empty_end(m, k):
    """k+2 masks, the list-and-sum draw's profile, then one 0/1 coin for each
    empty cap end and each empty lower profile of a big cycle."""
    sampler = transfer.UniformSampler(m, k)
    with_coins = 0
    for seed in range(150):
        word = sampler.choose(random.Random(seed))
        profile, coins = word[:k + 2], word[k + 2:]
        assert profile == tuple(_list_and_sum_draw(sampler, random.Random(seed))[0])
        empty = (not profile[0]) + (not profile[-1]) + sum(not a for a in profile[:-1])
        assert len(coins) == empty
        assert set(coins) <= {0, 1}
        with_coins += bool(coins)
    assert with_coins > 0 or m == 12


@pytest.mark.parametrize("m,k", COIN_CASES)
def test_fill_is_deterministic_in_the_word(m, k):
    sampler = transfer.UniformSampler(m, k)
    for seed in range(10):
        word = sampler.choose(random.Random(seed))
        assert sampler.fill(word) == sampler.fill(word)


@pytest.mark.parametrize("m,k", COIN_CASES)
def test_fill_tells_every_coin_word_of_the_empty_profile_apart(m, k):
    """The k+2 empty masks and their k+3 coins (two caps, k+1 intact cycles)
    fill to the sector_count(m, k, 0) = 2^(k+3) distinct matchings of p = 0."""
    sampler = transfer.UniformSampler(m, k)
    filled = {sampler.fill((0,) * (k + 2) + coins)
              for coins in itertools.product((0, 1), repeat=k + 3)}
    assert len(filled) == transfer.sector_count(m, k, 0) == 2 ** (k + 3)
    if m * k <= 24:
        g = graph.build_graph(graph.BarrelParams(m, k))
        assert all(graph.is_perfect(g, mt) for mt in filled)


def _pairing_slots(m, a, b, choice):
    """(up slots, down slots) of cycle_pairing on the cycle between profiles a and b."""
    removed = tuple(sorted([2 * l for l in transfer.mask_elements(a)]
                           + [2 * l + 1 for l in transfer.mask_elements(b)]))
    up = down = 0
    for x, _y in cycle_pairing(2 * m, removed, choice):
        if x % 2:
            down |= 1 << (x // 2)
        else:
            up |= 1 << (x // 2)
    return up, down


@pytest.mark.parametrize("m", range(3, 11))
def test_bitmask_fill_matches_cycle_pairing(m):
    """Every row entry (a, b) of the operator, and both coins of the intact cycle."""
    full = (1 << m) - 1
    for a in range(1 << m):
        for b, _cnt in transfer._count_row(m, a):
            for choice in ((0, 1) if a == 0 else (0,)):
                down = transfer._down_slots(m, a, b, choice)
                assert _pairing_slots(m, a, b, choice) == (full & ~(down | b), down), (a, b)


@pytest.mark.parametrize("m", range(3, 15))
def test_cap_fill_matches_cycle_pairing(m):
    """Every profile a cap can meet (omega's support), and both coins of the intact cap."""
    for s_mask in transfer.boundary_vector(m):
        removed = transfer.mask_elements(s_mask)
        for coin in ((0, 1) if s_mask == 0 else (0,)):
            want = sum(1 << x for x, _y in cycle_pairing(m, removed, coin))
            assert transfer._cap_slots(m, removed, coin) == want, (s_mask, coin)


def test_subset_table_lists_mask_elements():
    table = transfer._subset_table(7)
    assert len(table) == 1 << 7
    assert all(table[mask] == transfer.mask_elements(mask) for mask in range(1 << 7))


def test_draws_share_their_id_objects():
    """Two draws hold the same int object for every id they share: the fill
    reads the sampler's id tuples instead of making new ints."""
    sampler = transfer.UniformSampler(12, 10)
    first, second = (sampler.draw(random.Random(seed)) for seed in (5, 6))
    shared = first.edges & second.edges
    assert max(shared) > 256  # past the interpreter's shared small ints
    objects = {eid: id(eid) for eid in first.edges}
    assert all(objects[eid] == id(eid) for eid in second.edges if eid in shared)


def test_sampler_runs_without_the_graph(monkeypatch):
    """The sampler reads edge_block, never build_graph."""
    want = transfer.UniformSampler(12, 10).draw(random.Random(3))
    transfer._sampler.cache_clear()

    def unavailable(params):
        raise AssertionError("the sampler built the graph")

    monkeypatch.setattr(graph, "build_graph", unavailable)
    monkeypatch.setattr(transfer, "build_graph", unavailable, raising=False)
    assert transfer.UniformSampler(12, 10).draw(random.Random(3)) == want
    assert transfer.sample_uniform(12, 10, 3) == want


# ---------------------------------------------------------------------------
# size caps
# ---------------------------------------------------------------------------


def _largest_kept_bits(sampler):
    return max(x.bit_length() for vec in sampler._suffix for x in vec)


@pytest.mark.parametrize("m,k", [(3, 0), (4, 7), (6, 20), (9, 5), (12, 30)])
def test_kept_bytes_bounds_the_kept_vectors(m, k):
    """The estimate's bit bound covers every kept entry, and its count every entry."""
    sampler = transfer.UniformSampler(m, k)
    entries = sum(len(vec) for vec in sampler._suffix)
    est = transfer._kept_bytes(m, k)
    assert est >= entries * (_largest_kept_bits(sampler) // 8 + 64)
    assert entries <= (k + 2) * len(transfer._classes(m)[1])


@pytest.mark.parametrize("m,k", [(3, 0), (4, 7), (6, 20), (9, 5), (12, 30), (12, 200)])
def test_kept_bytes_bounds_the_kept_lists(m, k):
    """The estimate covers sys.getsizeof of every kept list and of every entry in it,
    each zero counted as if it were its own int."""
    sampler = transfer.UniformSampler(m, k)
    real = sum(sys.getsizeof(vec) + sum(map(sys.getsizeof, vec)) for vec in sampler._suffix)
    assert real <= transfer._kept_bytes(m, k)


def test_kept_bytes_keeps_benchmark_and_validate_sizes_under_the_cap():
    for m, k in [(12, 200), (3, 1), (4, 0), (8, 30), (12, 40)]:
        assert transfer._kept_bytes(m, k) <= transfer.SAMPLER_BYTES_CAP, (m, k)
    assert transfer._kept_bytes(16, 2000) > transfer.SAMPLER_BYTES_CAP


def test_sampler_refuses_sizes_over_the_memory_cap(monkeypatch):
    monkeypatch.setattr(transfer, "SAMPLER_BYTES_CAP", transfer._kept_bytes(5, 10) - 1)
    transfer.UniformSampler(5, 9)
    with pytest.raises(errors.TooLargeError, match="MiB"):
        transfer.UniformSampler(5, 10)
    transfer._sampler.cache_clear()
    with pytest.raises(errors.TooLargeError):
        transfer.sample_uniform(5, 10, 0)
