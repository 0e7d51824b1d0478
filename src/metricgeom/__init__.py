"""Numerical geometry in finite-dimensional normed and snowflaked metric spaces.

Norm and metric evaluation with sampled axiom checking, Lipschitz and
Holder calculus, polygonal curve length and unit-speed reparameterization,
and discrete minimal-Lipschitz-constant (geodesic) paths.
"""

from .curves import Polyline, glue, length, lipschitz_estimate, remove_constant_pieces, rescale
from .geodesic import (
    GeodesicProblem,
    GeodesicResult,
    linfty_geodesic_family,
    solve,
    straightness_check,
)
from .holder import (
    HolderFit,
    LipBound,
    OrderCollapseReport,
    check_order_gt1_constant,
    covering_resolution,
    fit_holder,
    hausdorff_covering_sum,
    koch_generator,
    lip_compose,
    lip_product,
    lip_scale,
    lip_sum,
)
from .metrics import (
    Metric,
    ball_containment_check,
    check_metric_axioms,
    distance,
    norm_metric,
    snowflake,
    snowflake_order_transfer,
)
from .norms import (
    DimensionMismatch,
    NormSpec,
    as_vector,
    basis,
    check_norm_axioms,
    check_unit_ball_convexity,
    eval_norm,
    is_strictly_convex,
)
from .reparam import (
    SampledC1Curve,
    SpeedFloorError,
    arclength_profile,
    central_difference_derivs,
    resample_uniform,
    unit_speed_reparam,
)
from .reporting import AxiomReport, CheckReport

__version__ = "0.1.0"

__all__ = [
    "AxiomReport",
    "CheckReport",
    "DimensionMismatch",
    "GeodesicProblem",
    "GeodesicResult",
    "HolderFit",
    "LipBound",
    "Metric",
    "NormSpec",
    "OrderCollapseReport",
    "Polyline",
    "SampledC1Curve",
    "SpeedFloorError",
    "arclength_profile",
    "as_vector",
    "ball_containment_check",
    "basis",
    "central_difference_derivs",
    "check_metric_axioms",
    "check_norm_axioms",
    "check_order_gt1_constant",
    "check_unit_ball_convexity",
    "covering_resolution",
    "distance",
    "eval_norm",
    "fit_holder",
    "glue",
    "hausdorff_covering_sum",
    "is_strictly_convex",
    "koch_generator",
    "length",
    "linfty_geodesic_family",
    "lip_compose",
    "lip_product",
    "lip_scale",
    "lip_sum",
    "lipschitz_estimate",
    "norm_metric",
    "remove_constant_pieces",
    "resample_uniform",
    "rescale",
    "snowflake",
    "snowflake_order_transfer",
    "solve",
    "straightness_check",
    "unit_speed_reparam",
]
