"""Seeded matrix-symbol table for su2: non-Hermitian blocks with a known trace.

Label n (block size d = n + 1, eigenvalue lam_n = n(n+2)/4) gets

    sigma(n) = U diag(s) V*,   s_i = (2i + 1)/d * (1 + lam_n)^(-3/2),

with U, V Haar-random unitaries drawn from the seed.  The singular values
of sigma(n) are exactly s, whose sum is d * (1 + lam_n)^(-3/2): the nuclear
norm of the scalar symbol bessel:3:2 on the same block.  So the partial
sums of the table equal those of bessel:3:2 while every block with d > 1
goes through the symbol side's one-sided Jacobi path.
"""

from __future__ import annotations

import math

import numpy as np


def su2_eigenvalue(n: int) -> float:
    return n * (n + 2) / 4.0


def su2_label_max(weight_cutoff: float) -> int:
    """Largest su2 label n with lam_n <= N^2 - 1, the program's cutoff rule."""
    t = weight_cutoff ** 2 - 1.0
    n = 0
    while su2_eigenvalue(n + 1) <= t:
        n += 1
    return n


def haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar-distributed d x d unitary: QR of a complex Ginibre matrix with
    the phases of R's diagonal moved into Q."""
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    ph = np.diag(r) / np.abs(np.diag(r))
    return q * ph


def table_blocks(seed: int, n_max: int):
    """Yield (n, sigma(n)) for n = 0..n_max."""
    rng = np.random.default_rng(seed)
    for n in range(n_max + 1):
        d = n + 1
        scale = (1.0 + su2_eigenvalue(n)) ** -1.5
        s = (2.0 * np.arange(d) + 1.0) / d * scale
        u = haar_unitary(rng, d)
        v = haar_unitary(rng, d)
        yield n, (u * s) @ v.conj().T


def _entry(z: complex) -> str:
    return "%s%sj" % (format(z.real, ".17g"), format(z.imag, "+.17g"))


def write_table(path: str, seed: int, n_max: int) -> None:
    """Write labels 0..n_max in the matrix:PATH table format."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# su2 matrix symbol, seed %d: U diag((2i+1)/d (1+lam)^-1.5) V*\n" % seed)
        for n, block in table_blocks(seed, n_max):
            fh.write("%d\n" % n)
            for row in block:
                fh.write(" ".join(_entry(z) for z in row))
                fh.write("\n")


def bessel_sums(cutoffs) -> list[float]:
    """Partial sums of bessel:3:2 on su2 at each cutoff, summed term by term:
    S(N) = sum over lam_n <= N^2 - 1 of d^2 (1 + lam_n)^(-3/2)."""
    out = []
    for cut in cutoffs:
        n_top = su2_label_max(float(cut))
        out.append(math.fsum((n + 1) ** 2 * (1.0 + su2_eigenvalue(n)) ** -1.5
                             for n in range(n_top + 1)))
    return out
