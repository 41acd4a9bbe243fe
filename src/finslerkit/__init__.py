"""finslerkit: numerical Finsler geometry in the pullback formalism.

Builds the full derivative tower of a Finsler Lagrangian (fundamental
tensor, geodesic spray, nonlinear and linear connections, curvatures,
horizontal exterior calculus) by truncated jet arithmetic, and verifies
the governing identities on a catalog of concrete structures.
"""

__version__ = "0.1.0"

from .chart import ChartPoint, sample_points
from .errors import (
    CapabilityError,
    DegenerateFieldError,
    DomainError,
    FinslerError,
    NumericalError,
    SingularMetricError,
)
from .fields import (
    ComponentField,
    GradientField,
    PiVectorField,
    constant_field,
)
from .frame import PointFrame, point_frame
from .jets import Jet, fd_partial, field_value, jet_eval
from .structures import (
    FinslerStructure,
    by_name,
    conformal_change,
    conformal_quartic2,
    euclidean,
    minkowski_quartic,
    randers_change,
    randers_sphere2,
    riemannian,
    sphere2,
    structure_from_spec,
)

__all__ = [name for name in dir() if not name.startswith("_")]
