"""Shared exception types."""


class ConfigError(ValueError):
    """Invalid configuration or parameter value."""


class DimensionError(ValueError):
    """Array shape or length mismatch."""


class DataError(ValueError):
    """Dataset content violates a precondition."""


class FormatError(ValueError):
    """Malformed input file."""


class ProtocolError(RuntimeError):
    """Secure-aggregation protocol misuse (e.g. missing client)."""


class EncodingOverflowError(OverflowError):
    """A fixed-point sum could exceed the ring's signed range."""
