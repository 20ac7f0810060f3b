"""Numerical laboratory for the KdV approximation of small-amplitude FPU waves."""

from .core import (
    BlowUpError,
    BudgetViolationError,
    ConfigurationError,
    ErrorRecord,
    FieldProfile,
    InvalidInputError,
    LatticeState,
    ModelParams,
    l2_norm,
    sample_to_lattice,
    sobolev_norm,
)
from .kdv import (KdvIntegrator, KdvRunConfig, SolitonSpec, kdv_integrate, nonlinear_fields,
                  soliton_profile)
from .fpu import FpuRunConfig, fpu_energy, fpu_integrate
from .ansatz import build_p_epsilon, initial_lattice_data
from .diagnostics import energy_quantity, error_norms, residual_snapshot
from .harness import (
    ExperimentSpec,
    fit_scaling_exponent,
    run_error_scan,
    run_fpu,
    run_metastability,
    run_norm_growth,
    run_residual_scan,
    time_window,
)

__version__ = "0.1.0"

__all__ = [
    "BlowUpError",
    "BudgetViolationError",
    "ConfigurationError",
    "ErrorRecord",
    "ExperimentSpec",
    "FieldProfile",
    "FpuRunConfig",
    "InvalidInputError",
    "KdvIntegrator",
    "KdvRunConfig",
    "LatticeState",
    "ModelParams",
    "SolitonSpec",
    "build_p_epsilon",
    "energy_quantity",
    "error_norms",
    "fit_scaling_exponent",
    "fpu_energy",
    "fpu_integrate",
    "initial_lattice_data",
    "kdv_integrate",
    "l2_norm",
    "nonlinear_fields",
    "residual_snapshot",
    "run_error_scan",
    "run_fpu",
    "run_metastability",
    "run_norm_growth",
    "run_residual_scan",
    "sample_to_lattice",
    "sobolev_norm",
    "soliton_profile",
    "time_window",
    "__version__",
]
