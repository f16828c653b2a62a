"""Self-similar algebraic-spiral solutions of the planar Euler equations.

The package solves the fixed-point problem for the rescaled stream profile
on an adapted chart where spiral streamlines become straight lines, checks
the explicit contraction constants that certify the linearization is
invertible, and reconstructs and verifies the physical vorticity, velocity
and stream fields.
"""

from .certifier import Certificate, certify, contraction_and_threshold, cutoff_norm_table, delta_of, dist_gap
from .config import RunConfig, load_config, parse_config_text
from .errors import (
    AccuracyError,
    ConfigError,
    ConvergenceError,
    DegenerateShiftError,
    DroppedMassWarning,
    InversionError,
    NonFiniteError,
    ParameterError,
    SignConditionError,
    SingularOperatorError,
    StructureError,
)
from .grid_space import (
    AngularSignal,
    CutoffSamples,
    ModeProfile,
    RadialGrid,
    SolverParams,
    SpectralField,
    bracket,
    build_grid,
    cutoff_normalization,
    field_from_json,
    field_to_json,
    mode_norm,
    sample_cutoffs,
    xi_far,
    xi_near,
)
from .nonlinear import NonlinearWorkspace, ResidualField, eval_residual, fd_derivative_check, linearization_at_base
from .operators import (
    LinearModeOperator,
    apply_linearization_inverse,
    apply_mode_operator,
    assemble_linearization,
    derived_fields,
    invert_mode_operator,
    linearization_set,
    shift_minus,
    shift_plus,
)
from .physical import (
    FieldEvaluator,
    SpiralCurve,
    SpiralFit,
    eval_fields_batch,
    initial_data,
    spiral_extract,
    spiral_ode_oracle,
    to_chart,
    to_plane,
    verify,
)
from .solver import (
    SolveReport,
    angular_initial_vorticity,
    base_vorticity_factor,
    bounds_check,
    match_initial_data,
    newton_solve,
)

__version__ = "0.1.0"
