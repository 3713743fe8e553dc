"""Symbol specifications and their evaluation on dual points.

A symbol spec is a small declarative object describing a matrix-valued
function on the dual.  Scalar families cover the weights used throughout:

  RadialWeight(s)        <xi>^{-s} = (1+lambda)^{-s/nu}, nu from the geometry
  BesselPotential(s, nu) (1+lambda)^{-s/nu} with its own fixed nu
  PowerOfEigenvalue(s, shift) (shift+lambda)^{-s}
  ModulusWeight(s)       (1+sqrt(lambda))^{-s}, the lattice modulus on tori
  Scaled(c, inner), SymbolSum(parts) linear combinators

Matrix families read per-label tables from text files:

  DiagonalTable(path)    label line + one line of d diagonal entries
  FullMatrixTable(path)  label line + d lines of d entries

Each evaluates at a dual point to a plain numpy array: a diagonal block is
1-d (radial scalars, diag: tables, Scaled or ClassOneMask of either), a
dense d x d block 2-d (matrix: tables, sums mixing one with a diagonal).
ClassOneMask(inner), wherever the geometry's block rule masks the picture,
is the top-left k x k class-one corner, where homogeneous-space symbols
live; it passes k down, so each leaf builds only its corner.  On lifted
duals d k = D, so specs built from radial scalars, Scaled, SymbolSum and
ClassOneMask stream by shell there (is_radial_scalar(spec, lifted=True)).
No block of more than MAX_BLOCK_ENTRIES entries is allocated.

Nuclear traces are sums of singular values: the modulus of a diagonal
(np.hypot of its real and imaginary parts), else a Hermitian eigenvalue
path or a one-sided Jacobi iteration of our own, so the LAPACK SVD used
by the brute-force oracle remains an independent check.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (ConfigError, DomainError, NumericError, SizeError,
                     SpectrumFormatError, TableLookupError)
from .geometry import DualPoint, Geometry, label_text

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
class BesselPotential(SymbolSpec):
    s: float
    nu: float = 2.0

    def __post_init__(self):
        if not (self.nu > 0):
            raise ConfigError("BesselPotential nu must be positive")


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
class ClassOneMask(SymbolSpec):
    inner: SymbolSpec


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

    Forms: radial:s, bessel:s:nu, power:s[:shift], modulus:s, diag:PATH,
    matrix:PATH, scaled:c:INNER, mask:INNER.
    """
    head, _, tail = text.partition(":")
    head = head.strip().lower()
    try:
        if head == "radial":
            return RadialWeight(float(tail))
        if head == "bessel":
            s_s, _, nu_s = tail.partition(":")
            return BesselPotential(float(s_s), float(nu_s) if nu_s else 2.0)
        if head == "power":
            s_s, _, shift_s = tail.partition(":")
            return PowerOfEigenvalue(float(s_s), float(shift_s) if shift_s else 0.0)
        if head == "modulus":
            return ModulusWeight(float(tail))
        if head == "scaled":
            c_s, _, inner = tail.partition(":")
            return Scaled(float(c_s), parse_symbol(inner))
        if head == "mask":
            return ClassOneMask(parse_symbol(tail))
        if head == "diag":
            return DiagonalTable(tail)
        if head == "matrix":
            return FullMatrixTable(tail)
    except ValueError:
        raise ConfigError("bad numeric field in symbol %r" % (text,)) from None
    raise ConfigError("unknown symbol spec %r" % (text,))


def is_radial_scalar(spec: SymbolSpec, lifted: bool = False) -> bool:
    """True when the spec is a scalar function of the eigenvalue alone; with
    lifted=True masks count too, as d k = D keeps D |f| per point there."""
    if isinstance(spec, (RadialWeight, BesselPotential, PowerOfEigenvalue, ModulusWeight)):
        return True
    if isinstance(spec, Scaled):
        return is_radial_scalar(spec.inner, lifted)
    if isinstance(spec, ClassOneMask):
        return lifted and is_radial_scalar(spec.inner, lifted)
    if isinstance(spec, SymbolSum):
        return all(is_radial_scalar(p, lifted) for p in spec.parts)
    return False


def scalar_values(spec: SymbolSpec, lam: np.ndarray, geom: Geometry) -> np.ndarray:
    """Vectorized scalar evaluation on an eigenvalue array.

    The result is always a fresh float64 array that callers may overwrite.
    """
    if isinstance(spec, RadialWeight):
        return (1.0 + lam) ** (-spec.s / geom.nu)
    if isinstance(spec, BesselPotential):
        return (1.0 + lam) ** (-spec.s / spec.nu)
    if isinstance(spec, PowerOfEigenvalue):
        base = spec.shift + lam
        if spec.s > 0 and np.any(base == 0.0):
            raise DomainError("PowerOfEigenvalue with shift 0 hit eigenvalue 0")
        return base ** (-spec.s)
    if isinstance(spec, ModulusWeight):
        return (1.0 + np.sqrt(lam)) ** (-spec.s)
    if isinstance(spec, Scaled):
        return spec.c * scalar_values(spec.inner, lam, geom)
    if isinstance(spec, ClassOneMask):
        return scalar_values(spec.inner, lam, geom)
    if isinstance(spec, SymbolSum):
        acc = scalar_values(spec.parts[0], lam, geom)
        for p in spec.parts[1:]:
            acc = acc + scalar_values(p, lam, geom)
        return acc
    raise ConfigError("not a scalar spec: %r" % (spec,))


def eval_symbol(spec: SymbolSpec, point: DualPoint, geom: Geometry) -> np.ndarray:
    """The spec's block at one dual point: rep_dim diagonal entries (1-d) or
    rep_dim x rep_dim, cut to the class_one_dim corner under a ClassOneMask."""
    return _eval(spec, point, geom, point.rep_dim)


def check_block_size(label: str, shape: tuple) -> None:
    """SizeError for a block of more than MAX_BLOCK_ENTRIES entries."""
    if math.prod(shape) > MAX_BLOCK_ENTRIES:
        raise SizeError("label %s needs a %s symbol block, above the cap of %d "
                        "entries; lower the cutoff" % (
                            label, " x ".join(map(str, shape)), MAX_BLOCK_ENTRIES))


def _eval(spec: SymbolSpec, point: DualPoint, geom: Geometry, k: int) -> np.ndarray:
    """The spec's block at the point, cut to its top-left k (x k) corner."""
    if isinstance(spec, ClassOneMask):
        return _eval(spec.inner, point, geom, point.class_one_dim)
    if isinstance(spec, Scaled):
        return spec.c * _eval(spec.inner, point, geom, k)
    if isinstance(spec, SymbolSum):
        parts = [_eval(p, point, geom, k) for p in spec.parts]
        shape = (max(map(len, parts)),) * max(b.ndim for b in parts)
        check_block_size(label_text(point), shape)
        acc = np.zeros(shape, dtype=np.complex128)
        for b in parts:  # in order, each entry adding up as it would densely
            into = np.einsum("ii->i", acc) if b.ndim < acc.ndim else acc  # a view
            into[(slice(len(b)),) * b.ndim] += b
        return acc
    if isinstance(spec, (RadialWeight, BesselPotential, PowerOfEigenvalue, ModulusWeight)):
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
        m = entry[(slice(k),) * entry.ndim].astype(np.complex128)
        if not np.all(np.isfinite(m.view(np.float64))):
            raise DomainError("symbol value not finite at label %s" % key)
        return m
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
    the Hermitian eigenvalue path within HERMITIAN_TOL, else one-sided
    Jacobi to relative tolerance JACOBI_REL_TOL (NumericError naming the
    label if it stalls)."""
    m = _block(m)
    if m.ndim == 1:
        return np.sort(np.hypot(m.real, m.imag))[::-1]
    scale = max(1.0, float(np.max(np.abs(m))))
    if np.max(np.abs(m - m.conj().T)) <= HERMITIAN_TOL * scale:
        return np.sort(np.abs(np.linalg.eigvalsh(m)))[::-1]
    return _jacobi_singular_values(m, label)


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

    Each sweep visits every pair once in round-robin order; the pairs of one
    round are disjoint, so a round rotates all of them as array operations.
    """
    a = m.astype(np.complex128, copy=True)
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
    if m.ndim == 1 and len(m) and np.all(m == m[0]):
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
    """Read records: a label line, then the entry lines for that label.

    Full tables require d lines of d entries.  Diagonal tables take one line
    of d entries, or the full square shape when its off-diagonal part is zero.
    """
    entries: dict = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [(no, ln.strip()) for no, ln in enumerate(fh, start=1)]
    except OSError as exc:
        raise ConfigError("cannot read symbol table %s: %s" % (path, exc)) from None
    lines = [(no, ln) for no, ln in lines if ln and not ln.startswith("#")]
    pos = 0
    while pos < len(lines):
        lineno, label = lines[pos]
        if len(label.split()) != 1:
            raise SpectrumFormatError("%s:%d: expected a label line, got %r"
                                      % (path, lineno, label))
        pos += 1
        if pos >= len(lines):
            raise SpectrumFormatError("%s:%d: label %r has no entries"
                                      % (path, lineno, label))
        first_no, first = lines[pos]
        row = [parse_complex(t) for t in first.split()]
        d = len(row)
        pos += 1
        if diagonal:
            # one row of d entries, unless a full d x d block follows
            more = []
            while (len(more) < d - 1 and pos < len(lines)
                   and len(lines[pos][1].split()) == d
                   and _is_row_of_numbers(lines[pos][1])):
                more.append([parse_complex(t) for t in lines[pos][1].split()])
                pos += 1
            if more:
                if len(more) != d - 1:
                    raise SpectrumFormatError(
                        "%s:%d: diagonal table label %r has %d rows, expected 1 or %d"
                        % (path, first_no, label, 1 + len(more), d))
                full = np.array([row] + more, dtype=np.complex128)
                if np.any(full - np.diag(np.diag(full)) != 0):
                    raise SpectrumFormatError(
                        "%s:%d: diagonal table label %r has nonzero off-diagonal entries"
                        % (path, first_no, label))
                entries[label] = np.diag(full).copy()
            else:
                entries[label] = np.array(row, dtype=np.complex128)
        else:
            rows = [row]
            for _ in range(d - 1):
                if pos >= len(lines):
                    raise SpectrumFormatError(
                        "%s:%d: label %r matrix is truncated" % (path, first_no, label))
                rno, rline = lines[pos]
                vals = [parse_complex(t) for t in rline.split()]
                if len(vals) != d:
                    raise SpectrumFormatError(
                        "%s:%d: expected %d entries, got %d" % (path, rno, d, len(vals)))
                rows.append(vals)
                pos += 1
            entries[label] = np.array(rows, dtype=np.complex128)
    return entries


def _is_row_of_numbers(line: str) -> bool:
    try:
        for t in line.split():
            parse_complex(t)
        return True
    except SpectrumFormatError:
        return False
