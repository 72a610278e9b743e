"""Exact and asymptotic enumeration of perfect matchings on m-barrel fullerenes.

Three independent exact counting routes (backtracking, transfer operator,
non-intersecting walkers), the Bethe-Ansatz diagonalization of the
transfer sectors, growth constants and entropy of the family, exactly
uniform sampling, and SVG rendering.
"""

from .graph import (
    BarrelGraph,
    BarrelParams,
    FaceCensusReport,
    HorizontalProfile,
    Matching,
    Tiling,
    build_graph,
    count_matchings_brute,
    enumerate_matchings,
    export_graph,
    horizontal_profile,
    is_perfect,
    matching_to_tiling,
    parse_edge_list,
    tiling_to_matching,
    validate_structure,
)
from .transfer import (
    UniformSampler,
    boundary_vector,
    closed_form_345,
    count_matchings_transfer,
    sample_uniform,
    sector_count,
)
from .bethe import (
    BetheVector,
    SectorSpectrum,
    bethe_eigenpair,
    growth_constant,
    lambda_max_sector,
    n_zero,
    p_zero,
    perron_positivity_check,
    roots_for_sector,
    roots_identity_check,
    verify_sector,
)
from .paths import (
    PathFamily,
    admissible_boundaries,
    aggregate_estimate,
    krattenthaler_estimate,
    leading_n_consistency,
    matching_to_paths,
    path_dp_count,
    total_via_paths,
)
from .entropy import (
    convergence_report,
    entropy_of_family,
    limit_entropy_closed_form,
    limit_entropy_quadrature,
)
from .render import render_graph, render_paths, render_tiling, render_view
from .validate import run_criteria

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
