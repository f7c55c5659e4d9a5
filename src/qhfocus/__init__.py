"""Center-focus analysis and limit-cycle bifurcation for planar vector fields
with a p:q weighted-homogeneous leading part."""

from .fields import Monomial, WeightedField
from .polar import PolarRHS
from .flow import return_map
from .focal import focal_values, parity_survey
from .cycles import find_cycles, alternation_search

__version__ = "0.1.0"

__all__ = [
    "Monomial",
    "WeightedField",
    "PolarRHS",
    "return_map",
    "focal_values",
    "parity_survey",
    "find_cycles",
    "alternation_search",
]
