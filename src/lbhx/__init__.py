"""lbhx: a lattice Boltzmann performance laboratory.

Library components: discrete velocity models (D2Q9/D2Q37), four population
memory layouts (AoS, SoA, CSoA, CAoSoA), the pull/bc/collide kernel pipeline,
a host+accelerator partitioning runtime with an analytic time model and
auto-tuner, and an X-decomposed multi-rank driver.  The `lbhx` CLI wraps the
benchmark and validation workflows.
"""

from .errors import (CommunicationFault, ConfigurationError, ContractViolation,
                     LbhxError, RuntimeFault, TuningError, ValidationFailure)
from .kernels import (BoundaryPolicy, Macroscopics, Region, apply_bc,
                      collide_region, compute_moments, equilibrium,
                      propagate_region, step_region)
from .layouts import (Clustering, Family, FieldBuffer, Geometry,
                      LayoutDescriptor, convert_layout, coords_of,
                      linear_index)
from .model import LatticeModel, ModelParams, builtin_model, validate_moments
from .perf_model import (PerfProfile, Prediction, autotune, mlups, optimal_m,
                         predict, whatif)

__version__ = "0.1.0"

__all__ = [
    "BoundaryPolicy", "Clustering", "CommunicationFault", "ConfigurationError",
    "ContractViolation", "Family", "FieldBuffer", "Geometry", "LatticeModel",
    "LayoutDescriptor", "LbhxError", "Macroscopics", "ModelParams",
    "PerfProfile", "Prediction", "Region", "RuntimeFault", "TuningError",
    "ValidationFailure", "apply_bc", "autotune", "builtin_model",
    "collide_region", "compute_moments", "convert_layout", "coords_of",
    "equilibrium", "linear_index", "mlups", "optimal_m",
    "predict", "propagate_region", "step_region", "validate_moments", "whatif",
]
