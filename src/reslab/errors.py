"""Exception types shared across the package."""


class ReslabError(Exception):
    """Base class for all package-specific errors."""


class DegenerateSelfInteraction(ReslabError):
    """m = n with opposite signs: the group-velocity difference vanishes
    identically at xi = 0 and no stationary frequency exists."""


class BracketFailure(ReslabError):
    """Root bracketing found no crossing of the requested level set."""


class ResolutionError(ReslabError):
    """Oscillatory quadrature cannot resolve the integrand within the node budget."""


class DegenerateStationaryPoint(ReslabError):
    """Second derivative of the phase is below tolerance at the stationary point."""


class BlowupDetected(ReslabError):
    """A trajectory norm exceeded the configured ceiling."""


class InterpolationRangeError(ReslabError):
    """Band-limited interpolation was requested outside the frequency window."""


class ConfigError(ReslabError):
    """Invalid run configuration; carries a list of (json_pointer, message) pairs."""

    def __init__(self, issues):
        self.issues = list(issues)
        super().__init__("; ".join(f"{path}: {msg}" for path, msg in self.issues))
