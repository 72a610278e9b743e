"""Structural and enumerative tests for the barrel graph builder.

Golden counts used below were frozen from runs of two independent counting
routines (edge-subset scan and backtracking) that agree on every instance
small enough for both.
"""

from __future__ import annotations

import itertools

import pytest

from barreldimer import errors, graph
from conftest import matchings_by_recursion, pm_count_by_subsets


def barrel(m: int, k: int) -> graph.BarrelGraph:
    return graph.build_graph(graph.BarrelParams(m, k))


# ---------------------------------------------------------------------------
# Parameter validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m,k", [(2, 0), (1, 3), (0, 0), (-3, 2)])
def test_rejects_small_m(m, k):
    with pytest.raises(errors.InvalidParamsError):
        graph.BarrelParams(m, k)


@pytest.mark.parametrize("m,k", [(3, -1), (5, -10)])
def test_rejects_negative_k(m, k):
    with pytest.raises(errors.InvalidParamsError):
        graph.BarrelParams(m, k)


@pytest.mark.parametrize("m,k", [(3.5, 0), (3, 1.0), ("4", 0), (3, True)])
def test_rejects_non_integer_params(m, k):
    with pytest.raises(errors.InvalidParamsError):
        graph.BarrelParams(m, k)


# ---------------------------------------------------------------------------
# Vertex / edge bookkeeping
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m,k", [(3, 0), (4, 1), (5, 0), (6, 5), (8, 2)])
def test_counts_are_cubic(m, k):
    g = barrel(m, k)
    n, e = len(g.labels), len(g.edges)
    assert n == 2 * m * (k + 2)
    assert e == 3 * m * (k + 2)
    assert all(len(nbrs) == 3 for nbrs in g.adjacency)


def test_labels_cover_caps_and_cylinder():
    g = barrel(3, 1)
    labels = set(g.labels)
    assert {"L:0", "L:1", "L:2", "R:0", "R:1", "R:2"} <= labels
    assert {"C:1:0", "C:2:5"} <= labels
    assert len(labels) == len(g.labels)


def test_edge_kind_partition():
    g = barrel(4, 2)
    kinds = [e.kind for e in g.edges]
    m, k = 4, 2
    assert kinds.count(graph.EDGE_MGON) == 2 * m
    assert kinds.count(graph.EDGE_HORIZONTAL) == m * (k + 2)
    assert kinds.count(graph.EDGE_UP) + kinds.count(graph.EDGE_DOWN) == 2 * m * (k + 1)


def test_horizontal_ids_index_every_layer():
    g = barrel(5, 3)
    horizontal = [(e.layer, e.pos) for e in g.edges if e.kind == graph.EDGE_HORIZONTAL]
    assert sorted(horizontal) == [(j, l) for j in range(5) for l in range(5)]


def _blocks(m: int, k: int) -> list[tuple[str, int]]:
    """Every (kind, layer) of F(m, k) that edge_block accepts."""
    return ([(graph.EDGE_MGON, 0), (graph.EDGE_MGON, k + 2)]
            + [(graph.EDGE_HORIZONTAL, j) for j in range(k + 2)]
            + [(kind, j) for kind in (graph.EDGE_UP, graph.EDGE_DOWN) for j in range(1, k + 2)])


@pytest.mark.parametrize("m", range(3, 9))
@pytest.mark.parametrize("k", range(4))
def test_edge_ids_lie_in_contiguous_blocks(m, k):
    """edge_block agrees with every edge build_graph makes, and its blocks tile the ids."""
    g = barrel(m, k)
    params = g.params
    for eid, e in enumerate(g.edges):
        slot = e.pos // 2 if e.kind in (graph.EDGE_UP, graph.EDGE_DOWN) else e.pos
        assert graph.edge_block(params, e.kind, e.layer)[slot] == eid, e
    ids = [eid for kind, layer in _blocks(m, k) for eid in graph.edge_block(params, kind, layer)]
    assert sorted(ids) == list(range(g.n_edges))


@pytest.mark.parametrize("kind,layer", [(graph.EDGE_MGON, 1), (graph.EDGE_MGON, 3),
                                        (graph.EDGE_HORIZONTAL, -1), (graph.EDGE_HORIZONTAL, 4),
                                        (graph.EDGE_UP, 0), (graph.EDGE_DOWN, 4), ("face", 1)])
def test_edge_block_rejects_layers_without_that_kind(kind, layer):
    with pytest.raises(errors.InvalidParamsError, match="no"):
        graph.edge_block(graph.BarrelParams(5, 2), kind, layer)


# ---------------------------------------------------------------------------
# Planar embedding and face census
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "m,k,census",
    [
        (3, 0, ((3, 2), (5, 6))),
        (4, 1, ((4, 2), (5, 8), (6, 4))),
        (5, 0, ((5, 12),)),
        (6, 5, ((5, 12), (6, 32))),
        (8, 2, ((5, 16), (6, 16), (8, 2))),
    ],
)
def test_face_census(m, k, census):
    report = graph.validate_structure(barrel(m, k))
    assert report.face_sizes == census
    assert report.euler_characteristic == 2
    assert report.pentagons == 2 * m
    assert report.hexagons == m * k


@pytest.mark.parametrize("m", range(3, 9))
@pytest.mark.parametrize("k", range(4))
def test_vertex_cell_is_the_cell_its_label_names(m, k):
    """L:l is (0, 2l), C:j:i is (j, i) and R:l is (k+2, 2l+1), heights in half slots."""
    g = barrel(m, k)
    for v, label in enumerate(g.labels):
        kind, *nums = label.split(":")
        want = {"L": lambda l: (0, 2 * l), "C": lambda j, i: (j, i),
                "R": lambda l: (k + 2, 2 * l + 1)}[kind](*map(int, nums))
        assert graph._vertex_cell(g.params, v) == want, label


def test_face_census_counts_m_gons():
    report = graph.validate_structure(barrel(7, 1))
    assert report.m_gons == 2
    assert report.n_faces == 2 + 2 * 7 + 7 * 1


# ---------------------------------------------------------------------------
# Brute force counting
# ---------------------------------------------------------------------------


GOLDEN_COUNTS = {
    (3, 0): 10,
    (4, 0): 17,
    (5, 0): 36,
    (6, 0): 54,
    (3, 1): 28,
    (4, 1): 41,
    (5, 1): 151,
    (6, 1): 272,
}


@pytest.mark.parametrize("m,k", sorted(GOLDEN_COUNTS))
def test_brute_golden_counts(m, k):
    assert graph.count_matchings_brute(barrel(m, k)) == GOLDEN_COUNTS[(m, k)]


@pytest.mark.parametrize("m,k", [(3, 0), (4, 0), (3, 1)])
def test_brute_matches_subset_scan_oracle(m, k):
    g = barrel(m, k)
    edges = [(e.u, e.v) for e in g.edges]
    assert graph.count_matchings_brute(g) == pm_count_by_subsets(len(g.labels), edges)


def test_brute_rejects_oversized_instance():
    with pytest.raises(errors.TooLargeError):
        graph.count_matchings_brute(barrel(3, 11))


def test_brute_cap_override_is_respected(monkeypatch):
    monkeypatch.setattr(graph, "BRUTE_VERTEX_CAP", 10)
    with pytest.raises(errors.TooLargeError):
        graph.count_matchings_brute(barrel(3, 0))


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


def test_enumeration_is_exhaustive_and_deterministic():
    g = barrel(4, 0)
    first = list(graph.enumerate_matchings(g))
    second = list(graph.enumerate_matchings(g))
    assert first == second
    assert len(first) == 17
    assert len(set(first)) == 17
    assert all(graph.is_perfect(g, mt) for mt in first)


@pytest.mark.parametrize("m,k", [(4, 1), (3, 2), (5, 0)])
def test_enumeration_order_matches_the_recursive_reference(m, k):
    """The order fixes which matching `render --index` draws."""
    g = barrel(m, k)
    got = [mt.edges for mt in graph.enumerate_matchings(g)]
    assert got == list(matchings_by_recursion(g.adjacency))


def test_enumeration_is_not_bounded_by_the_recursion_limit():
    g = barrel(3, 400)
    assert g.n_vertices > 2000
    assert graph.is_perfect(g, next(graph.enumerate_matchings(g)))


def test_enumeration_cap_raises(monkeypatch):
    g = barrel(5, 1)
    monkeypatch.setattr(graph, "ENUMERATION_CAP", 10)
    with pytest.raises(errors.TooManyMatchingsError):
        list(graph.enumerate_matchings(g))


def test_matching_edge_count_is_half_vertices():
    g = barrel(3, 1)
    for mt in graph.enumerate_matchings(g):
        assert len(mt.edges) == len(g.labels) // 2


# ---------------------------------------------------------------------------
# Horizontal profiles
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m,k", [(3, 0), (3, 1), (4, 0), (4, 1)])
def test_profile_cardinality_and_parity_invariant(m, k):
    g = barrel(m, k)
    for mt in graph.enumerate_matchings(g):
        prof = graph.horizontal_profile(g, mt)
        assert len(prof.layers) == k + 2
        cards = {len(layer) for layer in prof.layers}
        assert len(cards) == 1
        p = cards.pop()
        assert p % 2 == m % 2
        assert prof.cardinality == p


def test_profile_sector_sizes_f40():
    g = barrel(4, 0)
    from collections import Counter

    sizes = Counter(
        graph.horizontal_profile(g, mt).cardinality for mt in graph.enumerate_matchings(g)
    )
    assert sizes == {0: 8, 2: 8, 4: 1}


def test_profile_rejects_non_perfect_matching():
    g = barrel(3, 0)
    mt = next(graph.enumerate_matchings(g))
    broken = graph.Matching(frozenset(list(mt.edges)[:-1]))
    with pytest.raises(errors.NotPerfectMatchingError):
        graph.horizontal_profile(g, broken)


def test_profile_rejects_overlapping_edges():
    g = barrel(3, 0)
    # two edges sharing vertex 0 can never extend to a matching
    eids = sorted(i for i, e in enumerate(g.edges) if 0 in (e.u, e.v))
    bad = graph.Matching(frozenset(eids[:2]))
    with pytest.raises(errors.NotPerfectMatchingError):
        graph.horizontal_profile(g, bad)


# ---------------------------------------------------------------------------
# Tilings
# ---------------------------------------------------------------------------


def test_tiling_round_trip_f41():
    g = barrel(4, 1)
    for mt in graph.enumerate_matchings(g):
        t = graph.matching_to_tiling(g, mt)
        assert len(t.rhombi) == len(g.labels) // 2
        kinds = {kind for _, kind in t.rhombi}
        assert kinds <= {"horizontal", "up", "down", "cap"}
        assert graph.tiling_to_matching(g, t) == mt


def test_all_horizontal_tiling_kind():
    g = barrel(4, 1)
    all_horiz = graph.Matching(frozenset(eid for eid, e in enumerate(g.edges)
                                         if e.kind == graph.EDGE_HORIZONTAL))
    assert graph.is_perfect(g, all_horiz)
    t = graph.matching_to_tiling(g, all_horiz)
    assert {kind for _, kind in t.rhombi} == {"horizontal"}


# ---------------------------------------------------------------------------
# Export / import
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m,k", [(3, 2), (5, 0), (4, 1)])
def test_edge_list_round_trip(m, k):
    g = barrel(m, k)
    text = graph.export_graph(g, "edges")
    h = graph.parse_edge_list(text)
    assert h.params == g.params
    assert h.labels == g.labels
    assert [(e.u, e.v, e.kind) for e in h.edges] == [(e.u, e.v, e.kind) for e in g.edges]


def test_adjacency_export_shape():
    g = barrel(3, 0)
    text = graph.export_graph(g, "adj")
    lines = [ln for ln in text.splitlines() if ln.strip()]
    assert len(lines) == len(g.labels)
    assert all(ln.count("\t") >= 1 or " " in ln for ln in lines)


def test_export_unknown_format_raises():
    with pytest.raises(errors.UnknownFormatError):
        graph.export_graph(barrel(3, 0), "graphml")


def test_parse_counts_the_edges_before_building_the_graph(monkeypatch):
    """One edge naming F(10000, 9998) must not build that graph first."""
    def boom(params):
        raise AssertionError("graph built before the edge count was checked")

    monkeypatch.setattr(graph, "build_graph", boom)
    with pytest.raises(errors.StructuralViolationError):
        graph.parse_edge_list("L:9999 C:10000:0 horizontal")


@pytest.mark.parametrize("text", ["L:x C:1:0 horizontal", "L:0 C:y:0 horizontal",
                                  "L:0 C:1:y horizontal", "C:1:1 R:x horizontal"])
def test_parse_rejects_a_label_number_int_refuses(text):
    """UnknownFormatError, which names the line, and not int()'s bare ValueError."""
    with pytest.raises(errors.UnknownFormatError, match="line 1: bad vertex label"):
        graph.parse_edge_list(text)


def test_parse_rejects_tampered_edge_list():
    g = barrel(3, 1)
    text = graph.export_graph(g, "edges")
    lines = text.splitlines()
    body = [ln for ln in lines if ln.strip()]
    with pytest.raises(errors.StructuralViolationError):
        graph.parse_edge_list("\n".join(body[:-1]))
