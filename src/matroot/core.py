"""Dense square matrices over three scalar backends.

Everything downstream (factor polynomials, witness constructions, decision
procedures) works with one matrix type that carries its scalar backend:

* ``rational`` -- exact arithmetic with Python ints / ``fractions.Fraction``
  (a coerced integral value is stored as an ``int``),
* ``real``     -- IEEE double precision,
* ``complex``  -- pairs of IEEE doubles.

Backends never mix inside a matrix.  Exact backends compare exactly; float backends under
this entrywise contract, decided from each matrix's largest |x - y|, d, outside near ties:

    |x - y| <= absolute + relative * max(|x|, |y|)

d <= absolute holds every entry; d > absolute + relative * ((ymax + d) (1 + 2^-48) + 1e-320),
for ymax the largest |y|, fails the entry of d, with no second pass (proof at
``_entries_close``).

Storage is a read-only numpy array (``object`` dtype for the rational backend), so
matrices are immutable values and safe to share across threads.  Inside the library a
Matrix may also hold a (m, k, k) stack of matrices of one backend: the arithmetic below
broadcasts over the leading axis, and ``mat_eq`` / ``is_zero`` then give one bool per
stacked matrix.  Kernels such as ``mat_pow`` compute on the bare arrays and wrap each
result once, or hand it to the comparison, which checks it is finite.  An internal
rational stack, or an all-int matrix that ``theorems.evaluate`` checks, may be carried on
float64, which no public rational Matrix holds: ``_carried`` chooses it once, under a
row-sum bound that keeps every partial sum an integer of magnitude at most 2^53, so the
kernels multiply (on BLAS) and add exactly, unguarded.  A kernel's c * I target is shared
and read-only for c the int or float +-1.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence, Union

import numpy as np

RATIONAL = "rational"
REAL = "real"
COMPLEX = "complex"

BACKENDS = (RATIONAL, REAL, COMPLEX)

_BACKEND_RANK = {RATIONAL: 0, REAL: 1, COMPLEX: 2}
_BACKEND_DTYPE = {RATIONAL: object, REAL: np.float64, COMPLEX: np.complex128}
_CARRIER, _EXACT = np.dtype(np.float64), 2**53  # float64 holds every int of at most 2^53

RationalScalar = Union[int, Fraction]
Scalar = Union[int, Fraction, float, complex]


class MatrixError(ValueError):
    """Base class for matrix construction/arithmetic failures."""


class DimensionMismatch(MatrixError):
    """Operands have incompatible orders, or a non-square shape was given."""


class BackendMismatch(MatrixError):
    """Operands live over different scalar backends."""


@dataclass(frozen=True)
class Tolerance:
    """Entrywise comparison contract for the float backends.

    The rational backend ignores tolerances entirely: equality there is exact.
    """

    absolute: float = 1e-9
    relative: float = 1e-9

    def __post_init__(self) -> None:
        for name in ("absolute", "relative"):
            v = getattr(self, name)
            if not (isinstance(v, numbers.Real) and math.isfinite(v) and v >= 0):
                raise ValueError(f"{name} tolerance must be finite and >= 0, got {v!r}")


DEFAULT_TOLERANCE = Tolerance()


def _checked_int(name: str, value, least: int) -> int:
    """value as an int, if it is an int or numpy integer (not a bool) >= least."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def _coerce_rational(value) -> RationalScalar:
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    raise BackendMismatch(
        f"rational backend requires int or Fraction entries, got {type(value).__name__}"
    )


def _coerce_real(value) -> float:
    if isinstance(value, (complex, np.complexfloating)):
        raise BackendMismatch("real backend cannot hold complex entries")
    try:
        x = float(value)
    except OverflowError:  # an int or Fraction beyond the float range
        raise MatrixError("entry is beyond the float range") from None
    if not math.isfinite(x):
        raise MatrixError(f"non-finite real entry: {value!r}")
    return x


def _coerce_complex(value) -> complex:
    z = complex(_coerce_real(value) if isinstance(value, numbers.Rational) else value)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise MatrixError(f"non-finite complex entry: {value!r}")
    return z


_COERCE = {RATIONAL: _coerce_rational, REAL: _coerce_real, COMPLEX: _coerce_complex}


# x / d entrywise (d > 0), an int when integral
_over = np.frompyfunc(lambda x, d: x // d if x % d == 0 else Fraction(x, d), 2, 1)


class Matrix:
    """Immutable dense square matrix over a single scalar backend."""

    __slots__ = ("backend", "_arr")

    def __init__(self, rows: Sequence[Sequence], backend: str | None = None):
        data = [list(r) for r in rows]
        k = len(data)
        if k < 1 or any(len(r) != k for r in data):
            raise DimensionMismatch("matrix must be square with order >= 1")
        flat = [e for r in data for e in r]
        if backend is None:  # the narrowest backend that holds every entry
            backend = BACKENDS[max(_BACKEND_RANK[scalar_kind(e)] for e in flat)]
        if backend not in BACKENDS:
            raise MatrixError(f"unknown backend {backend!r}")
        coerce = _COERCE[backend]
        arr = np.array([coerce(e) for e in flat], dtype=_BACKEND_DTYPE[backend]).reshape(k, k)
        arr.flags.writeable = False
        self.backend = backend
        self._arr = arr

    @classmethod
    def _wrap(cls, arr: np.ndarray, backend: str) -> "Matrix":
        # Internal fast path: trusted, already-coerced square array, or a
        # (m, k, k) stack of them (see the module docstring).  The caller hands
        # over ownership of a fresh array that nothing else references; it is
        # frozen in place, not copied.  Float backends keep the no-NaN/inf
        # invariant, so overflow fails loudly.  One check per kernel result is
        # enough: inf and nan never turn finite again through +, scalar * or @.
        if backend != RATIONAL and not np.isfinite(arr).all():
            raise MatrixError("operation produced non-finite entries")
        arr.flags.writeable = False
        m = object.__new__(cls)
        object.__setattr__(m, "backend", backend)
        object.__setattr__(m, "_arr", arr)
        return m

    @property
    def order(self) -> int:
        return self._arr.shape[-1]

    @property
    def array(self) -> np.ndarray:
        """Read-only numpy view of the entries."""
        return self._arr

    def __getitem__(self, ij) -> Scalar:
        i, j = ij
        return self._arr[i, j]

    def rows(self) -> list:
        return [list(r) for r in self._arr]

    def entries(self) -> list:
        """Row-major flat entry list."""
        return [e for r in self._arr for e in r]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.backend == other.backend
            and self.order == other.order
            and bool((self._arr == other._arr).all())
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Matrix({self.rows()!r}, backend={self.backend!r})"


def _scalar_array(c: Scalar, k: int, dtype) -> np.ndarray:
    """A fresh k x k array of c * I for c already in its backend, exact 0 elsewhere, of
    the given dtype; of the object dtype where float64 would round c: c not a float, nor
    an int of at most 2^53 (a Fraction c on the rational carrier, see ``_carried``)."""
    if k < 1:
        raise DimensionMismatch("order must be >= 1")
    if dtype == _CARRIER and not (isinstance(c, float) or isinstance(c, int) and abs(c) <= _EXACT):
        dtype = object
    arr = np.zeros((k, k), dtype)  # int 0 on the object dtype
    arr.flat[:: k + 1] = c
    return arr


@lru_cache(maxsize=64, typed=True)
def _shared_unit(c, k: int, dtype) -> np.ndarray:
    """A read-only ``_scalar_array(c, k, dtype)``, cached by c's type as well as its value
    (1, 1.0 and True never share); the cache retains at most 64 k x k arrays."""
    arr = _scalar_array(c, k, dtype)
    arr.flags.writeable = False
    return arr


def _scalar_target(c, k: int, dtype) -> np.ndarray:
    """``_scalar_array(c, k, dtype)``, shared from ``_shared_unit`` for the int or float +-1."""
    shared = type(c) in (int, float) and c in (1, -1)
    return (_shared_unit if shared else _scalar_array)(c, k, dtype)


def identity(k: int, backend: str = RATIONAL) -> Matrix:
    """k x k identity over the given backend."""
    return scalar_matrix(1, k, backend)


def zeros(k: int, backend: str = RATIONAL) -> Matrix:
    return scalar_matrix(0, k, backend)


def scalar_matrix(c: Scalar, k: int, backend: str) -> Matrix:
    """c * I_k over the given backend."""
    return Matrix._wrap(_scalar_array(_COERCE[backend](c), k, _BACKEND_DTYPE[backend]), backend)


_LIKE = {RATIONAL: Fraction, REAL: float, COMPLEX: complex}


def scalar_matrix_like(c: Scalar, m: Matrix) -> Matrix:
    """c * I of m's order, with c cast into m's backend: through Fraction on
    the rational backend, so float inputs are taken at their exact binary value."""
    return scalar_matrix(_LIKE[m.backend](c), m.order, m.backend)


def _is_scalar(x: np.ndarray, backend: str, c: Scalar, tol: Tolerance):
    """mat_eq against c * I for the bare array x and c an int or a value of x's backend."""
    c = _COERCE[backend](c)
    return _entries_close(x, _scalar_target(c, x.shape[-1], x.dtype), backend, tol, abs(c))


def _check_pair(a: Matrix, b: Matrix) -> None:
    if a.order != b.order:
        raise DimensionMismatch(f"order mismatch: {a.order} vs {b.order}")
    if a.backend != b.backend:
        raise BackendMismatch(f"backend mismatch: {a.backend} vs {b.backend}")


def _add_diagonal(acc: np.ndarray, c) -> np.ndarray:
    """acc + c * I for c already in acc's backend, exact (see ``_scalar_array``): a carried
    acc meets an object target as Python ints, so a Fraction c makes Fractions, not floats."""
    target = _scalar_target(c, acc.shape[-1], acc.dtype)
    return (acc if target.dtype == acc.dtype else acc.astype(np.int64).astype(object)) + target


@lru_cache(maxsize=64)
def _ones(k: int) -> np.ndarray:
    """A read-only float64 vector of k ones, kept: np.ones costs more than the product."""
    ones = np.ones(k)
    ones.flags.writeable = False
    return ones


def _carried(m: Matrix, n: int) -> Matrix:
    """m carried on float64 if its entries are ints and n * max(1, r)^n <= 2^53 for r =
    ||m||_inf, its largest absolute row sum (n <= 2^53 where r <= 1); else m on Python ints.
    The norm is submultiplicative, so the bound caps every entry of the powers up to m^n
    and of the unit-coefficient factor sums, ||G(j)||_inf <= j R^(j-1) for R = max(1, r),
    whose steps G(b) (m^b + c^b I) and m^b G(j) + c^j G(b) stay under n R^n: the entries
    of G(n) reach n itself at r = 1.  It caps each partial sum of a product too, in any
    order (|sum over S of y_ij z_jl| <= ||y||_inf max|z|): every float64 sum and product,
    BLAS's included, takes integers of magnitude at most 2^53 to another, which is exact."""
    arr = m.array
    if m.backend != RATIONAL or arr.dtype == object and set(map(type, arr.flat)) != {int}:
        return m
    try:
        floats = arr.astype(_CARRIER, copy=False)
    except OverflowError:  # an entry, so a row sum, beyond the float range: no n >= 2 fits
        return m
    # row sums by one BLAS product: exact to 2^53; an entry or row sum above 2^53 may round,
    # but not below 2^53, where no n >= 2 fits
    r = (np.abs(floats) @ _ones(arr.shape[-1])).max()
    if (r <= 1 or n < 53) and n * max(1, int(r)) ** n <= _EXACT:  # r >= 2 fails at n >= 53
        return m if arr.dtype == _CARRIER else Matrix._wrap(floats, RATIONAL)
    return _uncarried(m)


def _uncarried(m: Matrix) -> Matrix:
    """m with a carried stack's entries as Python ints, -0.0 as 0, as a public Matrix holds them
    (an int64 stack too, which only a caller of ``Matrix._wrap`` can make)."""
    carried = m.backend == RATIONAL and m.array.dtype != object
    return Matrix._wrap(m.array.astype(np.int64).astype(object), RATIONAL) if carried else m


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Matrix product; exact on the rational backend (on float64 only as ``_carried`` bounds it)."""
    _check_pair(a, b)
    return Matrix._wrap(a.array @ b.array, a.backend)


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    _check_pair(a, b)
    return Matrix._wrap(a.array + b.array, a.backend)


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    _check_pair(a, b)
    return Matrix._wrap(a.array - b.array, a.backend)


def scalar_kind(c: Scalar) -> str:
    """Backend needed to hold the scalar c."""
    if isinstance(c, (complex, np.complexfloating)) and not isinstance(c, (float, np.floating)):
        return COMPLEX
    if isinstance(c, (float, np.floating)):
        return REAL
    if isinstance(c, (Fraction, int, np.integer)):
        return RATIONAL
    raise MatrixError(f"unsupported scalar type {type(c).__name__}")


def as_backend(m: Matrix, backend: str) -> Matrix:
    """Lift a matrix to a wider backend (rational -> real -> complex)."""
    if backend not in BACKENDS:
        raise MatrixError(f"unknown backend {backend!r}")
    if m.backend == backend:
        return m
    if _BACKEND_RANK[backend] < _BACKEND_RANK[m.backend]:
        raise BackendMismatch(f"cannot narrow {m.backend} matrix to {backend}")
    # astype calls float() / complex() per rational entry: huge ints raise OverflowError
    return Matrix._wrap(m.array.astype(_BACKEND_DTYPE[backend]), backend)


def scalar_mul(c: Scalar, m: Matrix) -> Matrix:
    """c * M, promoting the backend when the scalar demands it."""
    backend = BACKENDS[max(_BACKEND_RANK[m.backend], _BACKEND_RANK[scalar_kind(c)])]
    if backend == RATIONAL:  # (p * M) / q, so int entries stay in int arithmetic
        c = Fraction(_coerce_rational(c))  # no product at p = 1 (scale_to_unit of an exact root)
        arr, d = m.array * c.numerator if c.numerator != 1 else m.array, c.denominator
        # // everywhere, which turns an integral Fraction into an int; then the per-entry
        # quotient only at the entries q does not divide: never at the int 0, which scales to 0
        out, rest = arr // d, arr % d
        if rest.any():
            at = np.flatnonzero(rest)
            out.flat[at] = _over(arr.flat[at], d)
        return Matrix._wrap(out, backend)
    return Matrix._wrap(_COERCE[backend](c) * as_backend(m, backend).array, backend)


def mat_pow(a: Matrix, n: int) -> Matrix:
    """n-th power by binary exponentiation on the array, wrapped once; n = 0
    gives the identity.  Exact as ``mat_mul``: no power above n is formed."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise MatrixError(f"exponent must be an integer, got {n!r}")
    n = int(n)
    if n < 0:
        raise MatrixError("negative powers are not supported")
    if n == 0:
        return identity(a.order, a.backend)
    return a if n == 1 else Matrix._wrap(_pow_ladder(a, n)[0], a.backend)


def _pow_ladder(a: Matrix, n: int) -> tuple:
    """(a^n, the squares [X, X^2, ..., X^(2^i)] that form it), n >= 1: bare, unchecked arrays."""
    squares, result = [a.array], a.array if n & 1 else None
    for i in range(1, n.bit_length()):
        squares.append(squares[-1] @ squares[-1])
        if n >> i & 1:
            result = squares[i] if result is None else result @ squares[i]
    return result, squares


def mat_eq(a: Matrix, b: Matrix, tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
    """Entrywise comparison. Exact on the rational backend, tolerance-aware
    on float backends: |x - y| <= absolute + relative * max(|x|, |y|).
    A bool per matrix when a or b is a stack."""
    _check_pair(a, b)
    return _entries_close(a.array, b.array, a.backend, tol)


def is_zero(m: Matrix, tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
    """mat_eq against the zero matrix, broadcasting the scalar 0."""
    return _entries_close(m.array, 0, m.backend, tol)


_ALL, _MAX = np.logical_and.reduce, np.maximum.reduce  # no Python wrapper; a scalar per matrix


def _one(reduced, cast):
    """A reduction's value per matrix: for one matrix, cast to a Python bool or float."""
    return reduced if reduced.ndim else cast(reduced)


def _every(close) -> bool:
    return close if type(close) is bool else bool(_ALL(close, axis=None))


def _entries_close(x: np.ndarray, y, backend: str, tol: Tolerance, ymax=None):
    """Whether the arrays x and y (or y the int 0) agree, a bool per matrix.  On float backends
    the largest |x - y| of a matrix, d, decides, on Python floats for one matrix: d <= absolute
    holds every entry, and d > absolute + relative * ((ymax + d) (1 + 2^-48) + 1e-320) fails the
    entry of d, ymax being the largest |y| of the matrix (0 for y = 0; computed where None).  A
    near tie runs the entrywise test.  The failure is proven: at the entry of d, max(|x|, |y|)
    <= ymax + |x - y|, and rounding is monotone, so that entry's own bound is no larger.  The
    factor 1 + 2^-48 covers the roundings of d (complex moduli included), of |x|, |y| and of the
    sum, a few units of 2^-53 each; 1e-320, about 2000 units of 2^-1074, covers the same where
    they are subnormal.  A non-finite d raises as ``Matrix._wrap`` would on x."""
    if backend == RATIONAL:
        return _one(_ALL(x == y, axis=(-2, -1)), bool)
    zero = isinstance(y, int)  # is_zero's 0: max(|x|, 0) = |x - 0| = |x|, and no target array
    diff = np.abs(x) if zero else np.abs(x - y)
    d = _one(_MAX(diff, axis=(-2, -1)), float)
    close = d <= tol.absolute
    if _every(close):
        return close
    if not _every(d < math.inf) and not np.isfinite(x).all():
        raise MatrixError("operation produced non-finite entries")
    if ymax is None:
        ymax = 0 if zero else _one(_MAX(np.abs(y), axis=(-2, -1)), float)
    if _every(close | (d > tol.absolute + tol.relative * ((ymax + d) * (1 + 2.0**-48) + 1e-320))):
        return close
    return _entrywise(diff, diff if zero else np.maximum(np.abs(x), np.abs(y)), tol)


def _entrywise(diff: np.ndarray, mag: np.ndarray, tol: Tolerance):
    """The contract entry by entry, a bool per matrix: the near ties' test."""
    return _one(_ALL(diff <= tol.absolute + tol.relative * mag, axis=(-2, -1)), bool)


def block_diag(blocks: Sequence[Matrix]) -> Matrix:
    """Assemble diag(B1, ..., Bm); off-block entries are exact zeros."""
    blocks = list(blocks)
    if not blocks:
        raise MatrixError("block_diag needs at least one block")
    backend = blocks[0].backend
    if any(b.backend != backend for b in blocks):
        raise BackendMismatch("all blocks must share one backend")
    total = sum(b.order for b in blocks)
    out = _scalar_array(0, total, _BACKEND_DTYPE[backend])
    at = 0
    for b in blocks:
        k = b.order
        out[at : at + k, at : at + k] = b.array
        at += k
    return Matrix._wrap(out, backend)


def rotation(theta: float) -> Matrix:
    """2x2 planar rotation [[cos t, -sin t], [sin t, cos t]] (real backend)."""
    t = float(theta)
    if not math.isfinite(t):
        raise MatrixError(f"rotation angle must be finite, got {theta!r}")
    c, s = math.cos(t), math.sin(t)
    return Matrix._wrap(np.array([[c, -s], [s, c]], dtype=np.float64), REAL)


def determinant(m: Matrix) -> Scalar:
    """Determinant: fraction-free (Bareiss) elimination on the rational
    backend, partial-pivot LU (LAPACK) on the float backends."""
    if m.backend == RATIONAL:
        return _bareiss_determinant(m)
    d = np.linalg.det(m.array)
    return complex(d) if m.backend == COMPLEX else float(d)


def _bareiss_determinant(m: Matrix) -> Fraction:
    k = m.order
    a = [[Fraction(e) for e in row] for row in m.array]
    sign = 1
    prev = Fraction(1)
    for col in range(k - 1):
        if a[col][col] == 0:
            for r in range(col + 1, k):
                if a[r][col] != 0:
                    a[col], a[r] = a[r], a[col]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        pivot = a[col][col]
        for r in range(col + 1, k):
            for j in range(col + 1, k):
                a[r][j] = (a[r][j] * pivot - a[r][col] * a[col][j]) / prev
            a[r][col] = Fraction(0)
        prev = pivot
    return sign * a[k - 1][k - 1]


# --- JSON wire form ---------------------------------------------------------
#
# {"backend": "rational"|"real"|"complex", "order": k,
#  "entries": [row-major scalars]}
# rational entries are "num/den" strings, real entries JSON numbers,
# complex entries [re, im] pairs.


def scalar_to_json(value: Scalar, backend: str):
    if backend == RATIONAL:
        f = Fraction(value)
        try:
            return f"{f.numerator}/{f.denominator}"
        except ValueError:  # more digits than Python writes out; top has d + 1 or d + 2
            top = max(abs(f.numerator), f.denominator)
            d = int((top.bit_length() - 1) * math.log10(2))
            raise MatrixError(f"cannot write a rational of {d + 1 + (10 ** (d + 1) <= top)} "
                              "digits: more than Python's limit on int to str") from None
    if backend == REAL:
        return float(value)
    z = complex(value)
    return [z.real, z.imag]


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def scalar_from_json(value, backend: str) -> Scalar:
    if backend == RATIONAL:
        if not isinstance(value, str):
            raise MatrixError(f"rational entry must be a 'num/den' string, got {value!r}")
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise MatrixError(f"rational entry {value!r} is not a finite rational") from None
    if backend == REAL:
        if not _is_number(value):
            raise MatrixError(f"real entry must be a number, got {value!r}")
        return _coerce_real(value)
    if not (isinstance(value, (list, tuple)) and len(value) == 2 and all(map(_is_number, value))):
        raise MatrixError(f"complex entry must be a [re, im] pair of numbers, got {value!r}")
    return _coerce_complex(complex(*(_coerce_real(v) if isinstance(v, int) else v for v in value)))


def matrix_to_json(m: Matrix) -> dict:
    entries = []
    for at, e in enumerate(m.entries()):
        try:
            entries.append(scalar_to_json(e, m.backend))
        except MatrixError as exc:
            raise MatrixError(f"entry ({at // m.order}, {at % m.order}): {exc}") from None
    return {"backend": m.backend, "order": m.order, "entries": entries}


def matrix_from_json(data: dict) -> Matrix:
    if not isinstance(data, dict):
        raise MatrixError("matrix JSON must be an object")
    try:
        backend = data["backend"]
        order = data["order"]
        entries = data["entries"]
    except KeyError as missing:
        raise MatrixError(f"matrix JSON missing key {missing}") from None
    if backend not in BACKENDS:
        raise MatrixError(f"unknown backend {backend!r}")
    if not isinstance(order, int) or isinstance(order, bool) or order < 1:
        raise MatrixError(f"order must be a positive integer, got {order!r}")
    if not isinstance(entries, list) or len(entries) != order * order:
        raise MatrixError(f"expected {order * order} entries for order {order}")
    scalars = [scalar_from_json(e, backend) for e in entries]
    rows = [scalars[i * order : (i + 1) * order] for i in range(order)]
    return Matrix(rows, backend=backend)
