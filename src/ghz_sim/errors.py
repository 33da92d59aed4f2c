"""Exception types shared across the simulation modules.

The CLI maps these onto its exit-code contract: ConfigurationError (and any
argparse/usage problem) exits 2, AccuracyError / TruncationError and failed
validation checks exit 1.
"""


class GhzSimError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(GhzSimError, ValueError):
    """Inconsistent or unusable configuration (violated resonance condition,
    untuned protocol parameters, malformed run config)."""


class UntunedError(ConfigurationError):
    """Params held as given (not tuned) that miss the GHZ condition
    mu / a = 4 p. ``condition`` states the miss without a remedy, so a
    front end can name its own."""

    def __init__(self, condition: str):
        super().__init__(f"{condition}; retry with tune=True or adjust g")
        self.condition = condition


class ModelError(GhzSimError, ValueError):
    """A model object violates its contract, e.g. a non-Hermitian Hamiltonian
    handed to an evolution engine."""


class AccuracyError(GhzSimError, RuntimeError):
    """Numerical quality guard tripped (e.g. integrator norm drift)."""

    def __init__(self, message: str, drift: float | None = None):
        super().__init__(message)
        self.drift = drift


class TruncationError(GhzSimError, RuntimeError):
    """Fock-space truncation too small for the requested run; the message
    prescribes a larger shape, ``series`` holds the refused run's scores."""

    def __init__(self, message: str, series=None):
        super().__init__(message)
        self.series = series
