"""Deterministic SVG renderings of barrels, tilings, and walker paths.

The cylinder is unrolled: layers run left to right (left cap, big cycles
1 .. k+1, right cap), circle positions run top to bottom, and edges that
wrap around the circle are drawn as a pair of stubs leaving the top and
bottom margins.  Tilings draw one rhombus per matched edge, paths draw
one polyline per walker over a light copy of the tiling.
"""

from __future__ import annotations

from .errors import InvalidParamsError
from .graph import EDGE_HORIZONTAL, BarrelGraph, Matching, _vertex_cell, matching_to_tiling
from .paths import matching_to_paths

UNIT_X = 60.0
UNIT_Y = 26.0
MARGIN = 40.0

_RHOMBUS_FILL = {
    "horizontal": "#e8c468",
    "up": "#7fb2d9",
    "down": "#8fd19a",
    "cap": "#d9a3c8",
}


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _vertex_xy(g: BarrelGraph, v: int) -> tuple[float, float]:
    column, height = _vertex_cell(g.params, v)
    return column * UNIT_X, height * UNIT_Y


def _wraps(dy: float) -> bool:
    """A wrapping edge spans at least 2m - 2 >= 4 half slots, any other at most 2."""
    return abs(dy) > 3 * UNIT_Y


def _svg(g: BarrelGraph, body: list[str]) -> str:
    """The SVG document holding body, on a canvas sized to g."""
    width = (g.k + 2) * UNIT_X + 2 * MARGIN
    height = (2 * g.m - 1) * UNIT_Y + 2 * MARGIN
    return "\n".join([
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
        *body,
        "</svg>",
    ]) + "\n"


def _edge_lines(g: BarrelGraph, eid: int, stroke: str, width: float) -> list[str]:
    """One <line> per edge, two stubs when the edge wraps around the circle."""
    e = g.edges[eid]
    (x1, y1), (x2, y2) = _vertex_xy(g, e.u), _vertex_xy(g, e.v)
    wraps = _wraps(y2 - y1)
    x1, y1 = x1 + MARGIN, y1 + MARGIN
    x2, y2 = x2 + MARGIN, y2 + MARGIN
    style = f'stroke="{stroke}" stroke-width="{_fmt(width)}"'
    span = (2 * g.m - 1) * UNIT_Y
    if not wraps:
        return [f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" {style}/>']
    stub = UNIT_Y * 0.8
    return [
        f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x1)}" y2="{_fmt(MARGIN + span + stub)}" {style}/>',
        f'<line x1="{_fmt(x2)}" y1="{_fmt(MARGIN - stub)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" {style}/>',
    ]


def _graph_body(g: BarrelGraph, light: bool = False) -> list[str]:
    parts: list[str] = []
    base = "#c9ccd1" if light else "#44474c"
    horiz = "#c9ccd1" if light else "#b8622f"
    for eid, e in enumerate(g.edges):
        color = horiz if e.kind == EDGE_HORIZONTAL else base
        parts.extend(_edge_lines(g, eid, color, 1.2 if light else 1.8))
    r = 2.2 if light else 3.5
    fill = "#dfe1e4" if light else "#24262a"
    for v in range(g.n_vertices):
        x, y = _vertex_xy(g, v)
        parts.append(f'<circle cx="{_fmt(x + MARGIN)}" cy="{_fmt(y + MARGIN)}" '
                     f'r="{_fmt(r)}" fill="{fill}"/>')
    return parts


def render_graph(g: BarrelGraph) -> str:
    return _svg(g, _graph_body(g))


def _rhombus_polygon(g: BarrelGraph, eid: int, kind: str) -> str:
    """Diamond centered on the matched edge, long axis along the edge."""
    e = g.edges[eid]
    (x1, y1), (x2, y2) = _vertex_xy(g, e.u), _vertex_xy(g, e.v)
    cx, cy = (x1 + x2) / 2 + MARGIN, (y1 + y2) / 2 + MARGIN
    dx, dy = x2 - x1, y2 - y1
    if _wraps(dy):  # draw at the bottom stub
        span = (2 * g.m - 1) * UNIT_Y
        cy = MARGIN + span + 0.5 * UNIT_Y
        dx, dy = 0.0, 2 * UNIT_Y
    norm = (dx * dx + dy * dy) ** 0.5 or 1.0
    ux, uy = dx / norm, dy / norm
    half_long = 0.42 * norm
    half_short = 0.30 * min(UNIT_X, 2 * UNIT_Y)
    px, py = -uy, ux
    pts = [
        (cx + ux * half_long, cy + uy * half_long),
        (cx + px * half_short, cy + py * half_short),
        (cx - ux * half_long, cy - uy * half_long),
        (cx - px * half_short, cy - py * half_short),
    ]
    coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in pts)
    return (f'<polygon class="rhombus-{kind}" points="{coords}" '
            f'fill="{_RHOMBUS_FILL[kind]}" stroke="#55585d" stroke-width="0.8"/>')


def render_tiling(g: BarrelGraph, matching: Matching) -> str:
    tiling = matching_to_tiling(g, matching)
    parts = _graph_body(g, light=True)
    for eid, kind in tiling.rhombi:
        parts.append(_rhombus_polygon(g, eid, kind))
    return _svg(g, parts)


def render_paths(g: BarrelGraph, matching: Matching) -> str:
    family = matching_to_paths(g, matching)
    parts = _graph_body(g, light=True)
    n_sites = 2 * g.m
    palette = ["#c0392b", "#2471a3", "#1e8449", "#b7950b", "#7d3c98", "#146c6c"]
    for w_idx, traj in enumerate(family.trajectories):
        color = palette[w_idx % len(palette)]
        segments: list[list[tuple[float, float]]] = [[]]
        prev = None
        for t, site in enumerate(traj):
            x = t * UNIT_X + UNIT_X / 2 + MARGIN  # time t between columns t and t+1
            y = site * UNIT_Y + MARGIN
            if prev is not None and abs(site - prev) > 1:  # wrapped around the circle
                up = prev == 0
                edge_y = MARGIN - 0.8 * UNIT_Y if up else MARGIN + (n_sites - 0.2) * UNIT_Y
                other_y = MARGIN + (n_sites - 0.2) * UNIT_Y if up else MARGIN - 0.8 * UNIT_Y
                segments[-1].append((x, edge_y))
                segments.append([(x - UNIT_X, other_y)])
            segments[-1].append((x, y))
            prev = site
        for seg in segments:
            if len(seg) < 2:
                continue
            coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in seg)
            parts.append(f'<polyline points="{coords}" fill="none" '
                         f'stroke="{color}" stroke-width="2.6"/>')
    return _svg(g, parts)


def render_view(g: BarrelGraph, what: str, matching: Matching | None = None) -> str:
    if what == "graph":
        return render_graph(g)
    if matching is None:
        raise InvalidParamsError(f"rendering {what!r} needs a matching")
    if what == "tiling":
        return render_tiling(g, matching)
    if what == "paths":
        return render_paths(g, matching)
    raise InvalidParamsError(f"unknown render target {what!r}")
