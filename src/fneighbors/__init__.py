"""fneighbors: empty-sphere neighbor detection for sampled maps.

Given a finite sample of a continuous map f from a sphere or polytope
boundary into R^m, the package finds f-neighbor tuples (domain points whose
images lie on a common sphere with image-free interior), searches for
witness centers equidistant from every cover element, certifies covers as
non-null-homotopic via degree estimates, and optimizes map parameters to
estimate the smallest achievable extremal neighbor separation.
"""

from .geometry import (
    NotInHemisphereError,
    Sphere,
    angle_from_chord,
    angular_diameter,
    chord_from_angle,
    circumsphere,
    dekster_lhs,
    fit_sphere,
    min_enclosing_ball_angular,
    regular_edge_lengths,
    regular_simplex_vertices,
    separation_bound,
)
from .domains import (
    CoverAssignment,
    SampledDomain,
    cube_boundary_cover,
    cube_max_faces,
    regular_triangulation_cover,
    sample_sphere,
    simplex_boundary_cover,
)
from .maps import (
    FAMILIES,
    MapSpec,
    continuity_modulus,
    discretization_allowance,
    evaluate,
    map_from_json,
    map_to_json,
    random_map,
)
from .neighbors import (
    ImageScaleError,
    NeighborCertificate,
    NeighborGraph,
    check_certificate,
    check_graph,
    compute_df,
    extremal_pair,
    neighbor_graph,
    neighbor_span,
    pair_is_neighbor_fast,
    pair_is_neighbor_oracle,
)
from .witness import (
    DisjointFacesResult,
    WitnessNotFoundError,
    WitnessReport,
    disjoint_faces_check,
    witness_point,
    witness_slack,
)
from .homotopy import (
    CoverCertificate,
    HomotopyEstimate,
    PartitionOfUnity,
    build_partition,
    certify_cover,
    covering_scale,
    degree_estimate,
    h_map,
    project_to_sphere,
)
from .muopt import (
    BoundViolationError,
    DeltaHistogram,
    MuEstimate,
    OptimizerConfig,
    delta_sweep,
    df_objective,
    estimate_mu,
    verify_borsuk_ulam,
    verify_cube_faces,
    verify_sphere_bound,
)

__version__ = "0.1.0"
