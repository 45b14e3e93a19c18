"""Verification and construction toolkit for exterior sphere conditions.

Closed sets are described as CSG over analytic primitives; the package
checks the variable-radius extended exterior sphere condition, constructs
the witness balls that cover the complement, and tests the equivalent
convexity characterizations, all against brute-force geometric oracles at
desk scale (dimensions 2 and 3).
"""

from .geom import INF, Ball, GeometryError, ext_min, sphere_line_roots
from .sets import (
    AffineSubspace,
    BallComplement,
    ClosedBall,
    ClosedSetDesc,
    FinitePointSet,
    GridOracle,
    HalfSpace,
    Intersection,
    ProjectionResult,
    SetError,
    Slab,
    Union,
)
from .proximal import (
    Cone,
    RadiusField,
    capped_realization_radius,
    directional_distance,
    is_proximal_normal,
    is_realized_by_sphere,
    realization_radius,
    sample_unit_normals,
    sample_unit_normals_many,
)
from .conditions import (
    ConditionReport,
    audit_lower_semicontinuity,
    check_condition_on_interior_closure,
    check_extended_condition,
    cover_radius,
    verify_union_of_balls,
)
from .cover import WitnessBall, bridging_ball_radius, boundary_crossing, construct_witness, find_interior_point_near
from .sconvex import (
    EnvelopeContext,
    HarnessReport,
    SConvexityReport,
    check_boundary_projection_uniqueness,
    check_thin_margin_open,
    envelope_many,
    equivalence_harness,
    in_capped_envelope,
    in_full_envelope,
    in_unique_reach_zone,
    is_realizable_boundary_point,
    is_s_convex,
    near_thin_boundary,
    near_thin_boundary_many,
    near_unrealizable_boundary,
    normal_segments,
)
from .scene import Scene, SceneError, load_scene, parse_scene

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
