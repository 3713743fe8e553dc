"""Exception types shared across the package, and the count format their
messages use."""


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


def count_text(n: int) -> str:
    """An integer count for a message: exact below 10**15, else two
    significant digits and a decimal exponent (2.0e+300).  Decimal holds
    any int exactly, where float(n) overflows past about 1.8e308."""
    if n < 10 ** 15:
        return str(n)
    from decimal import Decimal  # imported here, off every process's start
    return format(Decimal(n), ".1e")
