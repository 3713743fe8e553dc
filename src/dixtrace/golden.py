"""Closed-form counting polynomials and hand-checkable series.

These are the small exact formulas used to benchmark the streaming code:
eigenvalue counts with multiplicity for SU(2) and SU(3), and the explicit
SU(2) partial series whose limit is known to three decimals.  Everything
here does integer arithmetic where possible so tests can assert equality,
not closeness.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError

# The direct substitution of n^2/(4 (1+lambda)^(3/2)) with lambda = n(n+2)/4
# gives coefficient 8: n^2/4 * (4/(n^2+2n+4))^(3/2) ~ 8 n^2 (n^2+3)^(-3/2)
# after completing the square.  The printed form of this series carries the
# coefficient 1/8 instead; the two differ by the exact factor 64, which
# su2_bessel_count_ratio makes easy to verify numerically.
SU2_PRINTED_COEFFICIENT = 0.125
SU2_DIRECT_COEFFICIENT = 8.0


def su2_count_cubic(n: int) -> float:
    """(N+1)(2N^2+7N+1)/6: the count polynomial printed with the series.

    This is not the exact dimension count (see su2_square_sum); it differs
    in lower-order terms but has the same leading N^3/3 growth, so it is
    interchangeable inside a log.  Not integer-valued in general, so the
    value comes back as a float (the product is formed in exact integers
    first).
    """
    if n < 0:
        raise ConfigError("count argument must be >= 0")
    return (n + 1) * (2 * n * n + 7 * n + 1) / 6.0


def su2_square_sum(n: int) -> int:
    """Exact sum of d^2 = (k+1)^2 over k = 0..N: (N+1)(N+2)(2N+3)/6."""
    if n < 0:
        raise ConfigError("count argument must be >= 0")
    return (n + 1) * (n + 2) * (2 * n + 3) // 6


def su2_bessel_terms(n: int, coefficient: float = SU2_PRINTED_COEFFICIENT) -> float:
    """sum_{k=1}^{N+1} coefficient * k^2 (k^2+3)^(-3/2), exact fsum."""
    if n < 0:
        raise ConfigError("series length must be >= 0")
    ks = np.arange(1, n + 2, dtype=np.float64)
    terms = coefficient * ks ** 2 * (ks ** 2 + 3.0) ** -1.5
    return float(math.fsum(terms.tolist()))


def su2_bessel_count_ratio(n: int,
                           coefficient: float = SU2_PRINTED_COEFFICIENT) -> float:
    """The printed partial quotient: series(N) / log(count cubic(N)).

    With the 1/8 coefficient this tends to about 0.0393.  Multiplying the
    coefficient by 64 (i.e. using 8.0) multiplies the quotient by exactly
    64 at every N, which pins down which convention a result was computed
    under.
    """
    if n < 2:
        raise ConfigError("ratio needs N >= 2 so the log is positive")
    return su2_bessel_terms(n, coefficient) / math.log(su2_count_cubic(n))


def su3_dim_sum(n: int) -> int:
    """Closed form for sum of d(a,b) over SU(3) labels with a+b <= N.

    d = (a+1)(b+1)(a+b+2)/2 and the double sum collapses to
    (N+1)(N+2)(N+3)(N+4)(2N+5)/120, exactly, for every N >= 0.  The honest
    double loop lives in su3_dim_sum_direct.  Note this sums d, not d^2;
    the d^2 count (eigenvalue count with multiplicity on the group) is what
    the geometry counting function returns.
    """
    if n < 0:
        raise ConfigError("count argument must be >= 0")
    return (n + 1) * (n + 2) * (n + 3) * (n + 4) * (2 * n + 5) // 120


def su3_dim_sum_direct(n: int) -> int:
    """Brute-force sum of d(a,b) over a+b <= N, exact integers."""
    if n < 0:
        raise ConfigError("count argument must be >= 0")
    total = 0
    for a in range(n + 1):
        for b in range(n + 1 - a):
            total += (a + 1) * (b + 1) * (a + b + 2) // 2
    return total

