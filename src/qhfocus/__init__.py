"""Center-focus analysis and limit-cycle bifurcation for planar vector fields
with a p:q weighted-homogeneous leading part."""

from .fields import (
    Monomial,
    WeightedField,
    ValidationReport,
    validate,
    normalize,
    reduce_weights,
    parse_system,
    load_system,
)
from .jets import Jet
from .polar import PolarRHS, homog_component
from .flow import (
    JetTrajectory,
    SectionCrossing,
    integrate_jet,
    return_map,
    identity_residuals,
    section_return,
    nu1_closed_form,
)
from .focal import (
    FocalReport,
    focal_values,
    shifted_focal_check,
    focal_jacobian,
    parity_survey,
    structural_center,
)
from .cycles import CycleSet, displacement, find_cycles, alternation_search
from .quadrature import QuadResult
from . import casestudy

__version__ = "0.1.0"

__all__ = [
    "Monomial",
    "WeightedField",
    "ValidationReport",
    "validate",
    "normalize",
    "reduce_weights",
    "parse_system",
    "load_system",
    "Jet",
    "PolarRHS",
    "homog_component",
    "JetTrajectory",
    "SectionCrossing",
    "integrate_jet",
    "return_map",
    "identity_residuals",
    "section_return",
    "nu1_closed_form",
    "FocalReport",
    "focal_values",
    "shifted_focal_check",
    "focal_jacobian",
    "parity_survey",
    "structural_center",
    "CycleSet",
    "displacement",
    "find_cycles",
    "alternation_search",
    "QuadResult",
    "casestudy",
]
