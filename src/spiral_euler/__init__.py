"""Self-similar algebraic-spiral solutions of the planar Euler equations.

The package solves the fixed-point problem for the rescaled stream profile
on an adapted chart where spiral streamlines become straight lines, checks
the explicit contraction constants that certify the linearization is
invertible, and reconstructs and verifies the physical vorticity, velocity
and stream fields.

Importing the package loads no submodule: each name below is imported from
its module on first access (PEP 562), so a command loads only the code it
runs.
"""

import importlib

_EXPORTS = {
    "certifier": "Certificate certify contraction_and_threshold cutoff_norm_table dist_gap",
    "config": "RunConfig load_config parse_config_text",
    "errors": "AccuracyError ConfigError ConvergenceError DegenerateShiftError DroppedMassWarning "
    "InversionError NonFiniteError ParameterError SignConditionError SingularOperatorError "
    "StructureError",
    "grid_space": "AngularSignal CutoffSamples ModeProfile RadialGrid SolverParams SpectralField "
    "bracket build_grid cutoff_normalization delta_of field_from_json field_to_json mode_norm "
    "sample_cutoffs xi_far xi_near",
    "nonlinear": "NonlinearWorkspace ResidualField eval_residual fd_derivative_check "
    "linearization_at_base",
    "operators": "apply_linearization_inverse apply_mode_operator assemble_linearization "
    "dense_solve derived_fields invert_mode_operator linearization_set shift_minus shift_plus",
    "physical": "FieldEvaluator SpiralCurve eval_fields_batch initial_data spiral_extract to_chart "
    "to_plane verify",
    "solver": "SolveReport angular_initial_vorticity base_vorticity_factor bounds_check "
    "match_initial_data newton_solve",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
