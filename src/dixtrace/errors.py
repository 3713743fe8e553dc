"""Exception types shared across the package."""


class DixtraceError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(DixtraceError):
    """Unsupported geometry kind, bad run configuration, malformed spec string."""


class SpectrumFormatError(DixtraceError):
    """Malformed spectrum or table file; message names the offending line."""


class TableLookupError(DixtraceError):
    """Symbol table has no entry for a requested label."""


class DomainError(DixtraceError):
    """Evaluation outside the mathematical domain (zero eigenvalue, bad power)."""


class NumericError(DixtraceError):
    """An iterative numeric routine failed to converge."""


class SizeError(DixtraceError):
    """A truncation or table exceeds a configured size cap."""


class EllipticityError(DixtraceError):
    """A symbol value that must be invertible is zero; message names the index."""


class FitError(DixtraceError):
    """A least-squares fit is degenerate (too few points, constant data)."""
