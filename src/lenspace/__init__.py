"""Hopf-Lax semigroup and functional inequalities on finite metric-measure spaces."""

__version__ = "0.1.0"

from .generators import SpaceSpec, generate, load_space, parse_space_spec, \
    refine, save_space
from .hopflax import SemigroupTrace, apply, lipschitz_constant, make_trace, \
    semigroup_defect
from .inequalities import ChainReport, ConstantEstimate, dual_talagrand_defect, \
    entropy_functional, estimate_constant, lsi_ratio, phi_trace, poincare_ratio, \
    psi_trace, talagrand_ratio, verify_chain
from .space import MeasuredSpace, ScalarField, build_from_graph, \
    doubling_constant, local_poincare_constant, make_field, validate_metric
from .transport import TransportPlan, w2

__all__ = [
    "MeasuredSpace", "ScalarField", "SemigroupTrace", "SpaceSpec",
    "TransportPlan", "ChainReport", "ConstantEstimate",
    "apply", "build_from_graph",
    "doubling_constant", "dual_talagrand_defect", "entropy_functional",
    "estimate_constant", "generate",
    "lipschitz_constant", "load_space", "local_poincare_constant",
    "lsi_ratio", "make_field", "make_trace",
    "parse_space_spec", "phi_trace", "poincare_ratio", "psi_trace", "refine",
    "save_space", "semigroup_defect", "talagrand_ratio",
    "validate_metric", "verify_chain", "w2",
]
