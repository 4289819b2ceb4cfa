"""Exception hierarchy shared across the package.

Exit-code mapping used by the CLI: assumption violations map to 2, solver
failures and a dead worker process to 3, verification failures to 4, and
configuration problems to 5.
"""

from __future__ import annotations


class RepgameError(Exception):
    """Base class for all package errors."""


def attempt(step, *args):
    """``step(*args)``, or the RepgameError that it raises: a row of a solve
    keeps its error as its value."""
    try:
        return step(*args)
    except RepgameError as exc:
        return exc


class DomainError(RepgameError, ValueError):
    """An operation was called with inputs outside its contract."""


class FieldError(DomainError):
    """A config value could not be read; the message leads with its key path."""


def read_field(key: str, convert, value):
    """``convert(value)``, with a failure re-raised as a FieldError naming
    ``key``. Nested keys join with '.', as in ``H.knots[1]: ...``."""
    try:
        return convert(value)
    except FieldError as exc:
        raise FieldError(f"{key}.{exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:  # DomainError is a ValueError
        raise FieldError(f"{key}: {exc}") from exc


class ConfigError(RepgameError):
    """A run configuration file or value is malformed."""


class AssumptionError(RepgameError):
    """Model parameters fail the regime-of-interest assumption check.

    Carries the structured clause-by-clause report when available.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class SolverError(RepgameError):
    """A root or fixed point could not be located or certified."""


class WorkerError(RepgameError):
    """A worker process of a parallel simulation run died."""


class EmptySweepError(RepgameError):
    """Every grid point of a parameter sweep was invalid."""


class EstimationError(RepgameError):
    """An estimator is undefined on the given sample."""


class InconsistentInputsError(EstimationError):
    """Plug-in estimate fell outside [0, 1]: the data contradict the model.

    The offending value is kept on the exception for diagnostics.
    """

    def __init__(self, message: str, value: float):
        super().__init__(message)
        self.value = value
