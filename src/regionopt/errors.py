"""Failure types shared across the solvers and the command line runner."""


class ConfigError(ValueError):
    """Bad or missing run configuration; maps to exit code 2."""


class FieldError(ValueError):
    """A model constructor rejected its field ``field``; the message is
    the field's name followed by ``complaint``."""

    def __init__(self, field: str, complaint: str):
        super().__init__(f"{field} {complaint}")
        self.field = field
        self.complaint = complaint


class SolverFailure(RuntimeError):
    """A discrete solve broke down (singular system, lost positivity, ...);
    maps to exit code 3."""


class ConvergenceFailure(RuntimeError):
    """An iteration failed to reach its tolerance within its budget;
    maps to exit code 4."""
