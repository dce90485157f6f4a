"""Numerical toolkit for Sasakian structures and sub-Riemannian geodesics.

Closed-form model manifolds (odd spheres, the Heisenberg group, and their
D-homothetic deformations) together with structure-identity checks,
curvature routes, a shooting-based Carnot-Caratheodory distance, parallel
transport and second-variation machinery, and transverse Kahler energy
functionals on the three-sphere quotient.
"""

from .core import (
    StructureReport,
    curvature_report,
    ricci,
    ricci_transverse,
    transverse_curvature,
    verify_structure,
)
from .dhomothety import DHomotheticModel, apply as dhomothetic, ricci_bound_check, volume_scaling_check
from .functionals import (
    functional_I,
    functional_J,
    functional_L,
    functional_M,
    functional_report,
    linear_path,
    power_path,
)
from .models import MODEL_KEYS, HeisenbergModel, SphereModel, get_model
from .quotient import BasicPotential, S2Grid, harmonic_potential, quotient_geometry, random_potential
from .subriemannian import (
    CotangentState,
    GeodesicPath,
    ShootingConfig,
    ShootingResult,
    cc_distance,
    estimate_diameter,
    geodesic_from_result,
    integrate_geodesic,
    theoretical_diameter_bound,
)
from .variations import (
    myers_certificate,
    second_variation,
    second_variation_sum,
    sine_frame_fields,
    transport_frame,
)

__version__ = "0.1.0"

__all__ = [
    "BasicPotential",
    "CotangentState",
    "DHomotheticModel",
    "GeodesicPath",
    "HeisenbergModel",
    "MODEL_KEYS",
    "S2Grid",
    "ShootingConfig",
    "ShootingResult",
    "SphereModel",
    "StructureReport",
    "__version__",
    "cc_distance",
    "curvature_report",
    "dhomothetic",
    "estimate_diameter",
    "functional_I",
    "functional_J",
    "functional_L",
    "functional_M",
    "functional_report",
    "geodesic_from_result",
    "get_model",
    "harmonic_potential",
    "integrate_geodesic",
    "linear_path",
    "myers_certificate",
    "power_path",
    "quotient_geometry",
    "random_potential",
    "ricci",
    "ricci_bound_check",
    "ricci_transverse",
    "second_variation",
    "second_variation_sum",
    "sine_frame_fields",
    "theoretical_diameter_bound",
    "transport_frame",
    "transverse_curvature",
    "verify_structure",
    "volume_scaling_check",
]
