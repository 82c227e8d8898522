"""Thermal single-phase Darcy flow with reactive transport in fractured
porous media, with fractures as lower-dimensional manifolds and a
mass-conservative operator-splitting time scheme."""

from .chemistry import ReactionParams, net_rate, react_cell
from .constitutive import (PhysParams, cubic_law, effective_conductivity,
                           effective_heat_capacity, kozeny_permeability,
                           update_pore_fraction)
from .errors import (ConfigurationError, FracReactError, MeshConformityError,
                     NumericError, SingularUpdateError, WellPosednessError)
from .mesh import MixedDimMesh, build_interval_mesh, build_structured_2d
from .physics import FieldState, SegmentBC
from .scenarios import Scenario, get_scenario, list_scenarios
from .splitting import (Problem, StepReport, TimeGrid, advance_step, run,
                        splitting_error_study)

__version__ = "1.0.0"

__all__ = [
    "ConfigurationError", "FieldState", "FracReactError", "MeshConformityError",
    "MixedDimMesh", "NumericError", "PhysParams", "Problem", "ReactionParams",
    "Scenario", "SegmentBC", "SingularUpdateError", "StepReport", "TimeGrid",
    "WellPosednessError", "advance_step", "build_interval_mesh",
    "build_structured_2d", "cubic_law", "effective_conductivity",
    "effective_heat_capacity", "get_scenario", "kozeny_permeability",
    "list_scenarios", "net_rate", "react_cell", "run",
    "splitting_error_study", "update_pore_fraction",
]
