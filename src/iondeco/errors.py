"""Exception types shared across the package."""


class IondecoError(Exception):
    """Base class for all package-specific errors."""


class DegenerateRates(IondecoError):
    """A requested quantity is undefined because a scattering channel vanishes."""


class RegimeViolation(IondecoError):
    """Adiabatic elimination requested outside the weak-excitation regime."""


class OscillationUnresolved(IondecoError):
    """Input curve does not resolve a nutation oscillation (too few samples,
    span below one period, or overdamped)."""


class OutOfRange(IondecoError):
    """Value outside the invertible / physical range."""


class InfeasibleDesign(IondecoError):
    """Inverse design target cannot be met within the knob bounds.

    `constraint` names the binding constraint.
    """

    def __init__(self, message: str, constraint: str):
        super().__init__(message)
        self.constraint = constraint


class ConfigError(IondecoError):
    """Run configuration failed to parse or validate.

    `location` is a dotted path into the config document when applicable.
    """

    def __init__(self, message: str, location: str | None = None):
        super().__init__(message)
        self.location = location
