"""Exception types shared across the package."""


class OamRingError(Exception):
    """Base class for all package-specific errors."""


class NonPositiveLog(OamRingError):
    """Wire too thick for the thin-wire self-inductance formula (8r/a < e^2)."""


class NonRealField(OamRingError):
    """A harmonic decomposition failed to reconstruct a real-valued field."""


class TruncationExceeded(OamRingError, ValueError):
    """A level index lies outside the truncated basis (a usage error)."""


class StepSizeUnderflow(OamRingError):
    """The adaptive integrator could not meet the tolerance with a finite step."""


class NormDrift(OamRingError):
    """An evolved state's norm drifted past the run's tolerance."""


class NotTwoLevel(OamRingError):
    """Operation requires a state supported on exactly two levels."""


class ConfigError(OamRingError):
    """Base class for configuration-file problems."""


class ParseError(ConfigError):
    """Config file is not syntactically valid (carries line information)."""


class ValidationError(ConfigError):
    """A config field has an invalid value."""

    def __init__(self, field: str, reason: str):
        self.field = field
        self.reason = reason
        super().__init__(f"{field}: {reason}")


class UnknownKey(ConfigError):
    """Config contains a section or key that is not part of the schema."""


class MissingSection(ConfigError):
    """A command needs a config section that was not provided."""
