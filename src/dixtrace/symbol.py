"""Symbol specifications and their evaluation on dual points.

A symbol spec is a small declarative object describing a matrix-valued
function on the dual.  Scalar families cover the weights used throughout:

  RadialWeight(s)        <xi>^{-s} = (1+lambda)^{-s/nu}, nu from the geometry
  PowerOfEigenvalue(s, shift) (shift+lambda)^{-s}; the Bessel potential
                         (1+lambda)^{-s/nu} with its own fixed nu is
                         PowerOfEigenvalue(s/nu, 1)
  ModulusWeight(s)       (1+sqrt(lambda))^{-s}, the lattice modulus on tori
  Scaled(c, inner), SymbolSum(parts) linear combinators

Matrix families read per-label tables from text files:

  DiagonalTable(path)    label line + one line of d diagonal entries
  FullMatrixTable(path)  label line + d lines of d entries

Each evaluates at a dual point to a plain numpy array, the top-left k x k
class-one corner of its block (DualPoint; k = d but on spheres, where the
corner is one entry): a diagonal block is 1-d (radial scalars, diag:
tables, Scaled of either), a dense one 2-d (matrix: tables, sums mixing
one with a diagonal).  The spelling mask:INNER parses to INNER itself.
Each point holds its corner D/k times, so a scalar weighs D |f|, and
specs built from radial scalars, Scaled and SymbolSum stream by shell
(is_radial_scalar).  No block of more than MAX_BLOCK_ENTRIES entries is
allocated.

Nuclear traces are sums of singular values: the modulus of a diagonal
(np.hypot of its real and imaginary parts), else a Hermitian eigenvalue
path or a one-sided Jacobi iteration of our own.  LAPACK (eigh) only
gives the Jacobi iteration a unitary start; its values are the column
norms the iteration certifies orthogonal, so the LAPACK SVD used by the
brute-force oracle remains an independent check.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (ConfigError, DomainError, NumericError, SizeError,
                     SpectrumFormatError, TableLookupError)
from .geometry import DualPoint, Geometry, _records, label_text

HERMITIAN_TOL = 1e-13
JACOBI_REL_TOL = 1e-12
JACOBI_MAX_SWEEPS = 60

# Most entries eval_symbol allocates for one block, d for a diagonal and
# d * d for a dense block (64 MiB of complex128).
MAX_BLOCK_ENTRIES = 2048 ** 2


class SymbolSpec:
    """Marker base class; concrete specs are the dataclasses below."""


@dataclass(frozen=True)
class RadialWeight(SymbolSpec):
    s: float


@dataclass(frozen=True)
class PowerOfEigenvalue(SymbolSpec):
    s: float
    shift: float = 0.0

    def __post_init__(self):
        if self.shift < 0:
            raise ConfigError("PowerOfEigenvalue shift must be >= 0")


@dataclass(frozen=True)
class ModulusWeight(SymbolSpec):
    s: float


@dataclass(frozen=True)
class Scaled(SymbolSpec):
    c: float
    inner: SymbolSpec


@dataclass(frozen=True)
class SymbolSum(SymbolSpec):
    parts: tuple

    def __init__(self, parts: Sequence[SymbolSpec]):
        object.__setattr__(self, "parts", tuple(parts))
        if not self.parts:
            raise ConfigError("SymbolSum needs at least one part")


@dataclass(frozen=True)
class DiagonalTable(SymbolSpec):
    path: str
    entries: dict = field(compare=False, repr=False, default=None)

    def __post_init__(self):
        if self.entries is None:
            object.__setattr__(self, "entries", _load_table(self.path, diagonal=True))


@dataclass(frozen=True)
class FullMatrixTable(SymbolSpec):
    path: str
    entries: dict = field(compare=False, repr=False, default=None)

    def __post_init__(self):
        if self.entries is None:
            object.__setattr__(self, "entries", _load_table(self.path, diagonal=False))


def parse_symbol(text: str) -> SymbolSpec:
    """Parse a CLI symbol string.

    Forms: radial:s, bessel:s[:nu], power:s[:shift], modulus:s, diag:PATH,
    matrix:PATH, scaled:c:INNER, and mask:INNER, which is INNER itself:
    every block is its class-one corner.  bessel:s:nu is power:s/nu:1, the
    same floats, since -(s/nu) = (-s)/nu exactly.
    """
    head, _, tail = text.partition(":")
    head = head.strip().lower()
    try:
        if head == "radial":
            return RadialWeight(float(tail))
        if head == "bessel":
            s_s, _, nu_s = tail.partition(":")
            s, nu = float(s_s), float(nu_s) if nu_s else 2.0
            if not (nu > 0):
                raise ConfigError("bessel nu must be positive, got %r in %r" % (nu, text))
            return PowerOfEigenvalue(s / nu, 1.0)
        if head == "power":
            s_s, _, shift_s = tail.partition(":")
            return PowerOfEigenvalue(float(s_s), float(shift_s) if shift_s else 0.0)
        if head == "modulus":
            return ModulusWeight(float(tail))
        if head == "scaled":
            c_s, _, inner = tail.partition(":")
            return Scaled(float(c_s), parse_symbol(inner))
        if head == "mask":
            return parse_symbol(tail)
        if head == "diag":
            return DiagonalTable(tail)
        if head == "matrix":
            return FullMatrixTable(tail)
    except ValueError:
        raise ConfigError("bad numeric field in symbol %r" % (text,)) from None
    raise ConfigError("unknown symbol spec %r" % (text,))


def is_radial_scalar(spec: SymbolSpec) -> bool:
    """True when the spec is a scalar function of the eigenvalue alone."""
    if isinstance(spec, (RadialWeight, PowerOfEigenvalue, ModulusWeight)):
        return True
    if isinstance(spec, Scaled):
        return is_radial_scalar(spec.inner)
    if isinstance(spec, SymbolSum):
        return all(is_radial_scalar(p) for p in spec.parts)
    return False


def _leaf_signs(spec: SymbolSpec, c: float = 1.0) -> set:
    """The signs (True for positive) of the nonzero leaves of a radial
    scalar spec: each leaf is positive in lambda, times the Scaled factors
    above it."""
    if isinstance(spec, Scaled):
        return _leaf_signs(spec.inner, c * spec.c)
    if isinstance(spec, SymbolSum):
        return set().union(*(_leaf_signs(p, c) for p in spec.parts))
    return {c > 0} if c != 0 else set()


def scalar_values(spec: SymbolSpec, lam: np.ndarray, geom: Geometry,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Vectorized scalar evaluation on an eigenvalue array.

    The result is computed into out where given (float64, lam's shape; a
    sum's later parts still take fresh arrays), else into a fresh float64
    array; either way callers may overwrite it.
    """
    if isinstance(spec, RadialWeight):
        base = np.add(1.0, lam, out=out)
        base **= -spec.s / geom.nu
        return base
    if isinstance(spec, PowerOfEigenvalue):
        base = np.add(spec.shift, lam, out=out)
        # lambda >= 0, so only shift 0 can put a zero under a negative power
        if spec.shift == 0 and spec.s > 0 and np.any(base == 0.0):
            raise DomainError("PowerOfEigenvalue with shift 0 hit eigenvalue 0")
        base **= -spec.s
        return base
    if isinstance(spec, ModulusWeight):
        base = np.sqrt(lam, out=out)
        base += 1.0
        base **= -spec.s
        return base
    if isinstance(spec, Scaled):
        values = scalar_values(spec.inner, lam, geom, out)
        values *= spec.c
        return values
    if isinstance(spec, SymbolSum):
        acc = scalar_values(spec.parts[0], lam, geom, out)
        for p in spec.parts[1:]:
            acc += scalar_values(p, lam, geom)
        return acc
    raise ConfigError("not a scalar spec: %r" % (spec,))


def check_block_size(label: str, shape: tuple) -> None:
    """SizeError for a block of more than MAX_BLOCK_ENTRIES entries."""
    if math.prod(shape) > MAX_BLOCK_ENTRIES:
        raise SizeError("label %s needs a %s symbol block, above the cap of %d "
                        "entries; lower the cutoff" % (
                            label, " x ".join(map(str, shape)), MAX_BLOCK_ENTRIES))


def eval_symbol(spec: SymbolSpec, point: DualPoint, geom: Geometry) -> np.ndarray:
    """The spec's block at one dual point, cut to its top-left k (x k)
    class-one corner, k = point.class_one_dim: k diagonal entries (1-d) or
    k x k.  A bare table's block is a view of its entry."""
    k = point.class_one_dim
    if isinstance(spec, Scaled):
        return spec.c * eval_symbol(spec.inner, point, geom)
    if isinstance(spec, SymbolSum):
        parts = [eval_symbol(p, point, geom) for p in spec.parts]
        shape = (k,) * max(b.ndim for b in parts)
        check_block_size(label_text(point), shape)
        acc = np.zeros(shape, dtype=np.complex128)
        for b in parts:  # in order, each entry adding up as it would densely
            into = np.einsum("ii->i", acc) if b.ndim < acc.ndim else acc  # a view
            into += b
        return acc
    if isinstance(spec, (RadialWeight, PowerOfEigenvalue, ModulusWeight)):
        check_block_size(label_text(point), (k,))
        value = float(scalar_values(spec, np.array([point.eigenvalue]), geom)[0])
        if not math.isfinite(value):
            raise DomainError("symbol value not finite at label %s" % label_text(point))
        return np.full(k, value, dtype=np.complex128)
    if isinstance(spec, (DiagonalTable, FullMatrixTable)):
        key = label_text(point)
        try:
            entry = spec.entries[key]
        except KeyError:
            raise TableLookupError("table %s has no entry for label %s"
                                   % (spec.path, key)) from None
        if entry.shape != (point.rep_dim,) * entry.ndim:  # diagonal: 1-d
            raise SizeError("table %s label %s is %s, point has rep_dim %d"
                            % (spec.path, key, entry.shape, point.rep_dim))
        check_block_size(key, (k,) * entry.ndim)
        return entry[(slice(k),) * entry.ndim]  # checked finite at load
    raise ConfigError("unknown symbol spec %r" % (spec,))


# ---------------------------------------------------------------------------
# Singular values of symbol blocks
# ---------------------------------------------------------------------------

def _block(m) -> np.ndarray:
    """A block as complex128, 1-d if it is a diagonal, else square 2-d."""
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim == 1:
        return m
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise SizeError("singular_values expects a diagonal or a square matrix, "
                        "got %s" % (m.shape,))
    diag = np.diag(m)
    return diag if np.count_nonzero(m) == np.count_nonzero(diag) else m


def singular_values(m: np.ndarray, label: str | None = None) -> np.ndarray:
    """Singular values of a symbol block, descending: the modulus (np.hypot)
    of a diagonal (1-d, or square with no nonzero off-diagonal entry), else
    the Hermitian eigenvalue path within HERMITIAN_TOL of the largest entry,
    else one-sided Jacobi to relative tolerance JACOBI_REL_TOL (NumericError
    naming the label if it stalls, or if the block is not finite).  A dense
    block is tested and decomposed as m / 2**e, its largest real or
    imaginary part in [0.5, 1), so no square overflows or underflows:
    Jacobi's values are exactly 2**e times those of the scaled block."""
    m = _block(m)
    if m.ndim == 1:
        return np.sort(np.hypot(m.real, m.imag))[::-1]
    a = m.copy()
    parts = a.view(np.float64)
    top = float(np.max(np.abs(parts)))
    if not math.isfinite(top):  # a scaled or summed block overflowed
        raise NumericError("symbol block%s is not finite (float64 overflow); scale the "
                           "symbol down" % (" at label %s" % label if label else ""))
    e = math.frexp(top)[1]
    np.ldexp(parts, -e, out=parts)
    if np.max(np.abs(a - a.conj().T)) <= HERMITIAN_TOL * np.max(np.abs(a)):
        return np.sort(np.abs(np.linalg.eigvalsh(m)))[::-1]
    return np.ldexp(_jacobi_singular_values(a, label), e)


@functools.lru_cache(maxsize=64)
def _round_robin(d: int) -> tuple:
    """Rounds of disjoint column pairs (i < j) meeting every pair once.

    Circle method: column 0 stays put while the others rotate one place per
    round.  Odd d is padded with a dummy column d whose pairs are dropped.
    """
    if d < 2:
        return ()
    n = d + d % 2
    ring = list(range(1, n))
    rounds = []
    for _ in range(n - 1):
        order = [0] + ring
        pairs = [(min(p, q), max(p, q))
                 for p, q in zip(order[:n // 2], order[::-1]) if max(p, q) < d]
        i, j = (np.array(col, dtype=np.intp) for col in zip(*pairs))
        i.flags.writeable = j.flags.writeable = False
        rounds.append((i, j))
        ring = ring[-1:] + ring[:-1]
    return tuple(rounds)


def _jacobi_singular_values(m: np.ndarray, label: str | None) -> np.ndarray:
    """One-sided Jacobi: rotate column pairs until they are all orthogonal.

    The block is first multiplied by the unitary eigenvector matrix V of its
    Gram matrix m^H m (Drmac-Veselic preconditioning), so the columns of mV
    start nearly orthogonal and a sweep or two usually certifies them.  V
    only has to be unitary: the values are still the column norms this
    iteration certifies orthogonal.  Each sweep visits every pair once in
    round-robin order; the pairs of one round are disjoint, so a round
    rotates all of them as array operations.  m should be scaled to entries
    of order one (singular_values does), so m^H m neither overflows nor
    underflows.
    """
    a = m @ np.linalg.eigh(m.conj().T @ m)[1]
    tol = JACOBI_REL_TOL
    rounds = _round_robin(a.shape[0])
    for _ in range(JACOBI_MAX_SWEEPS):
        rotated = False
        for i, j in rounds:
            u = a[:, i]
            v = a[:, j]
            uc = u.conj()
            alpha = np.einsum("rc,rc->c", uc, u).real
            beta = np.einsum("rc,rc->c", v.conj(), v).real
            gamma = np.einsum("rc,rc->c", uc, v)
            g = np.abs(gamma)
            act = (g > tol * np.sqrt(alpha * beta)) & (g != 0.0)
            if not act.any():
                continue
            rotated = True
            if not act.all():
                i, j, u, v = i[act], j[act], u[:, act], v[:, act]
                alpha, beta, gamma, g = alpha[act], beta[act], gamma[act], g[act]
            phase = gamma / g
            tau = (beta - alpha) / (2.0 * g)
            t = np.copysign(1.0, tau) / (np.abs(tau) + np.hypot(1.0, tau))
            c = 1.0 / np.hypot(1.0, t)
            s = c * t
            a[:, i] = c * u - (s * np.conj(phase)) * v
            a[:, j] = (s * phase) * u + c * v
        if not rotated:
            break
    else:
        raise NumericError("Jacobi singular value iteration did not converge "
                           "within %d sweeps%s" % (JACOBI_MAX_SWEEPS,
                                                   " at label %s" % label if label else ""))
    sv = np.sqrt(np.real(np.sum(a.conj() * a, axis=0)))
    return np.sort(sv)[::-1]


def nuclear_trace_abs(m: np.ndarray, label: str | None = None) -> float:
    """Sum of singular values; exactly d |c| for a diagonal of d entries c."""
    m = _block(m)
    if m.ndim == 1 and len(m) and (len(m) == 1 or np.all(m == m[0])):
        return len(m) * float(np.hypot(m[0].real, m[0].imag))
    return float(np.sum(singular_values(m, label)))


# ---------------------------------------------------------------------------
# Table files
# ---------------------------------------------------------------------------

def parse_complex(tok: str) -> complex:
    """Parse `re`, `re+imi` or `re-imi` (also accepts python's j suffix)."""
    text = tok.strip().replace("i", "j")
    try:
        return complex(text)
    except ValueError:
        raise SpectrumFormatError("bad complex literal %r" % (tok,)) from None


def _load_table(path: str, diagonal: bool) -> dict:
    """Read records: a label line, then the entry lines for that label, one
    record's lines at a time (geometry._records).

    The first entry line sets d, and a record holds up to d rows of d
    entries.  Full tables require d rows.  Diagonal tables take one row, or
    the full square shape when its off-diagonal part is zero; their rows end
    at the first line that is not d numbers.  A repeated label is refused.
    Entries are checked finite here, once, and come back read-only.
    """
    entries: dict = {}
    records = _records(path, "symbol table")
    rec = next(records, None)
    while rec is not None:
        lineno, line, fields = rec
        if len(fields) != 1:
            raise SpectrumFormatError("%s:%d: expected a label line, got %r"
                                      % (path, lineno, line.strip()))
        label = fields[0]
        if label in entries:
            raise SpectrumFormatError("%s:%d: label %r repeats an earlier record"
                                      % (path, lineno, label))
        rec = next(records, None)
        if rec is None:
            raise SpectrumFormatError("%s:%d: label %r has no entries"
                                      % (path, lineno, label))
        first_no = rec[0]
        rows = [np.array(_entries(path, rec), dtype=np.complex128)]
        d = len(rows[0])
        rec = next(records, None)
        while len(rows) < d:
            if diagonal:  # one row of d entries, unless a full d x d block follows
                row = _numbers(rec[2]) if rec is not None and len(rec[2]) == d else None
                if row is None:
                    break
            elif rec is None:
                raise SpectrumFormatError(
                    "%s:%d: label %r matrix is truncated" % (path, first_no, label))
            else:
                row = _entries(path, rec)
                if len(row) != d:
                    raise SpectrumFormatError(
                        "%s:%d: expected %d entries, got %d" % (path, rec[0], d, len(row)))
            rows.append(np.array(row, dtype=np.complex128))
            rec = next(records, None)
        if not diagonal:
            entries[label] = np.stack(rows)
        elif len(rows) == 1:
            entries[label] = rows[0]
        elif len(rows) != d:
            raise SpectrumFormatError(
                "%s:%d: diagonal table label %r has %d rows, expected 1 or %d"
                % (path, first_no, label, len(rows), d))
        else:
            full = np.stack(rows)
            if np.any(full - np.diag(np.diag(full)) != 0):
                raise SpectrumFormatError(
                    "%s:%d: diagonal table label %r has nonzero off-diagonal entries"
                    % (path, first_no, label))
            entries[label] = np.diag(full).copy()
    for label, entry in entries.items():
        if not np.all(np.isfinite(entry.view(np.float64))):
            raise DomainError("symbol table %s label %s has a non-finite entry"
                              % (path, label))
        entry.flags.writeable = False
    return entries


def _entries(path: str, rec: tuple) -> list:
    """A record's fields as complex numbers; a bad one names its line."""
    try:
        return [parse_complex(t) for t in rec[2]]
    except SpectrumFormatError as exc:
        raise SpectrumFormatError("%s:%d: %s" % (path, rec[0], exc)) from None


def _numbers(fields: list[str]) -> list | None:
    """The fields as complex numbers, or None if one is not a number."""
    try:
        return [parse_complex(t) for t in fields]
    except SpectrumFormatError:
        return None
