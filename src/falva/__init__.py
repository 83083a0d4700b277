"""falva: fractional action-like variational calculus.

Weighted action functionals whose Lagrangian is integrated against a
power-law observer weight, the left/right Riemann-Liouville and combined
complex (Cresson) fractional derivative operators that feed them, the
matching Euler-Lagrange residuals in one, two and three dimensions, a
shooting solver and a direct discrete minimizer for the one-dimensional
extremal problem, and a CSV-emitting command line front end.
"""

from .action import (
    ActionValue,
    action_1d,
    action_1d_cresson,
    action_2d,
    action_nd,
    trapezoid_action,
)
from .errors import (
    ArgumentError,
    BracketingError,
    DomainError,
    EvalError,
    ExprSyntaxError,
    FalvaError,
    GridError,
    NonConvergedError,
    SingularLagrangianError,
    SingularNodeError,
    SlotMismatchError,
    SpecError,
    StepFailure,
    UnknownFunctionError,
    UnsupportedDimensionError,
    ValidationError,
)
from .euler import (
    BoundaryData1D,
    BvpResult,
    MinimizeResult,
    ResidualField,
    direct_minimize,
    el_residual_1d,
    el_residual_1d_cresson,
    el_residual_2d,
    el_residual_nd,
    rayleigh,
    solve_el_bvp,
    solve_el_ivp,
)
from .exprdsl import (
    LagrangianExpr,
    evaluate,
    parse,
    partial,
    partials,
    second_partials,
    serialize,
)
from .fracops import (
    ORDER_CONVENTION,
    GridFunctionND,
    OrderSet,
    as_1d,
    as_nd,
    axis_cresson,
    cresson,
    rl_left,
    rl_right,
)
from .numcore import (
    Grid1D,
    GridFunction,
    find_root,
    gamma,
    observed_order,
    ode_step_rk4,
    product_weights,
    weighted_integral,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # numcore
    "Grid1D", "GridFunction", "gamma", "product_weights", "weighted_integral",
    "ode_step_rk4", "find_root", "observed_order",
    # exprdsl
    "LagrangianExpr", "parse", "serialize", "evaluate", "partial",
    "partials", "second_partials",
    # fracops
    "OrderSet", "GridFunctionND", "rl_left", "rl_right", "cresson",
    "axis_cresson", "as_nd", "as_1d", "ORDER_CONVENTION",
    # action
    "ActionValue", "action_1d", "action_1d_cresson", "action_2d", "action_nd",
    "trapezoid_action",
    # euler
    "ResidualField", "BoundaryData1D", "BvpResult", "MinimizeResult",
    "rayleigh", "el_residual_1d", "el_residual_1d_cresson", "el_residual_2d",
    "el_residual_nd", "solve_el_ivp", "solve_el_bvp", "direct_minimize",
    # errors
    "FalvaError", "ValidationError", "DomainError", "GridError",
    "ArgumentError", "SlotMismatchError", "SpecError", "ExprSyntaxError",
    "UnknownFunctionError", "EvalError", "BracketingError",
    "SingularNodeError", "SingularLagrangianError", "StepFailure",
    "NonConvergedError", "UnsupportedDimensionError",
]
