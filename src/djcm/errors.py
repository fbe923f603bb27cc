"""Exception types shared across the package.

The CLI maps these onto exit codes: configuration / physics validation
problems exit 2, oracle trouble exits 3, output problems exit 4.
"""


class SimulationError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(SimulationError):
    """A numeric argument is outside its documented domain."""


class InvalidNonlinearityError(SimulationError):
    """The deformation function returned a non-finite or non-positive value."""


class PhysicsValidationError(SimulationError):
    """A parameter combination violates a physical constraint of the model."""


class ConfigError(SimulationError):
    """A scenario document is malformed or contains unknown keys."""


class PresetLookupError(SimulationError):
    """Unknown preset name; carries the list of available names."""

    def __init__(self, name, available):
        self.name = name
        self.available = list(available)
        super().__init__(
            f"unknown preset {name!r}; available: {', '.join(self.available)}"
        )


class IntegrationFailureError(SimulationError):
    """The ODE oracle would need more than 2^24 steps for one output segment.

    Carries the offending doublet ``n`` and the segment's end time ``t``.
    """

    def __init__(self, n, t, detail=""):
        self.n = n
        self.t = t
        msg = f"integration failure at Fock doublet n={n}, t={t!r}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class NumericalConsistencyError(SimulationError):
    """A probability drifted beyond roundoff tolerance; likely a logic bug."""


class OutputError(SimulationError):
    """Emitting a result file failed or was requested with no data."""
