"""Shared exception types.

Every error carries a short machine-readable ``code`` (used by the CLI for
its ``FALVA-ERR <code>:`` diagnostics) and an ``exit_status``: 2 for
validation failures, 3 for numerical failures.
"""


class FalvaError(Exception):
    """Base class for all errors raised by this package."""

    code = "internal"
    exit_status = 3


class ValidationError(FalvaError):
    exit_status = 2
    code = "spec"


class DomainError(ValidationError):
    """Argument outside its mathematical domain (order not in (0,1), gamma pole, ...)."""

    code = "domain"


class GridError(ValidationError):
    code = "grid"


class ArgumentError(ValidationError):
    code = "argument"


class SlotMismatchError(ValidationError):
    """Lagrangian references variables outside the reserved slot set."""

    code = "slots"


class SpecError(ValidationError):
    """Malformed problem-spec file or command line."""

    code = "spec"


class ExprSyntaxError(ValidationError):
    """Syntax error in an expression; ``offset`` is 1-based into the source."""

    code = "parse"

    def __init__(self, message, offset, expected=None):
        self.offset = offset
        self.expected = expected
        tail = f", expected {expected}" if expected else ""
        super().__init__(f"{message} at offset {offset}{tail}")


class UnknownFunctionError(ExprSyntaxError):
    code = "func"


class EvalError(FalvaError):
    """Runtime evaluation failure (unbound variable, division by zero,
    real-mode domain violation).  ``index`` holds the flat node index when
    the evaluation ran over grid arrays."""

    code = "eval"

    def __init__(self, message, index=None):
        self.index = index
        super().__init__(message)


class BracketingError(FalvaError):
    """Root finder or shooting scan found no sign change."""

    code = "bracket"


class SingularNodeError(FalvaError):
    """An operation was asked to evaluate at a node where its formula diverges."""

    code = "singular"


class SingularLagrangianError(FalvaError):
    """The second derivative of L in the velocity slot vanished; carries
    ``tau`` when raised by an RK4 stage."""

    code = "degenerate"

    def __init__(self, message, tau=None):
        self.tau = tau
        super().__init__(message)


class StepFailure(FalvaError):
    """An RK4 stage evaluated to a non-finite derivative; carries ``tau``."""

    code = "step"

    def __init__(self, message, tau=None):
        self.tau = tau
        super().__init__(message)


class NonConvergedError(FalvaError):
    code = "noconv"


class UnsupportedDimensionError(ValidationError):
    code = "dim"


# every error class above is public
__all__ = [name for name, value in list(globals().items())
           if isinstance(value, type) and issubclass(value, FalvaError)]
