"""Factor polynomials of X^n - a*I.

Over the reals, x^n - a splits as (x - a^(1/n)) times the geometric cofactor

    x^(n-1) + a^(1/n) x^(n-2) + ... + a^((n-2)/n) x + a^((n-1)/n)

whenever a >= 0 or n is odd.  When n is even and a < 0 there is no real
linear factor; instead x^n - a splits into n/2 real quadratics coming from
conjugate pairs of complex roots.  ``unit_factors`` is the one table of
these real factors at |a| = 1; the kernels here and the candidate search
read it, and a witness builds the one or two blocks it places by
``_unit_blocks``, the table's own expression.  This module evaluates all of
those factor polynomials at a matrix argument, plus the closed-form n-th
power of a 2x2 upper-triangular matrix and a classifier that recognises
triangular n-th roots of the identity by their diagonal roots of unity.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from .core import (
    COMPLEX,
    RATIONAL,
    REAL,
    Matrix,
    Scalar,
    Tolerance,
    _COERCE,
    _add_diagonal,
    _checked_int,
    _is_scalar,
    as_backend,
    mat_pow,
    mat_sub,
    scalar_matrix,
    scalar_mul,
)

class ConventionError(ValueError):
    """Raised when (n, a) admits no root of the requested kind."""


@lru_cache(maxsize=64)
def unit_factors(n: int, sign: int) -> Tuple[Tuple[int, ...], np.ndarray]:
    """(roots, blocks), the real factorization of x^n - sign for sign = +-1:
    x - r for each root r and, for each block of the read-only (q, 2, 2) float
    array, its characteristic polynomial x^2 - 2 cos(t) x + 1.  The tables of
    the 64 latest (n, sign) are cached.

    x^n - 1 has the roots 1 (and -1 for even n) and the blocks
    rotation(2*pi*w/n), w = 1 .. ceil(n/2) - 1.  For even n, x^n + 1 has no
    real root and the blocks rotation((2j-1)*pi/n), j = 1 .. n/2; for odd n
    its factors are those of x^n - 1 at -x: the root -1 and the negated blocks.
    """
    if sign not in (1, -1) or n < 1:
        raise ValueError(f"need n >= 1 and sign 1 or -1, got n = {n}, sign = {sign!r}")
    if sign == 1 or n % 2:
        roots, blocks = (sign,) if n % 2 else (1, -1), _unit_blocks(n, sign, (n - 1) // 2)
    else:
        roots, blocks = (), _unit_blocks(n, sign, n // 2)
    blocks.flags.writeable = False
    return roots, blocks


def _unit_blocks(n: int, sign: int, count: int) -> np.ndarray:
    """The first count blocks of ``unit_factors(n, sign)``, bit for bit, as a fresh
    (count, 2, 2) array: a witness that places one or two blocks builds only those."""
    j = np.arange(1, count + 1)
    angles = 2.0 * math.pi * j / n if sign == 1 or n % 2 else (2 * j - 1) * math.pi / n
    # one IEEE product and quotient per angle, in the scalar order; math.cos and
    # math.sin, not np.cos and np.sin, so the blocks keep the libm bits
    angles = angles.tolist()
    c, s = (np.fromiter(map(f, angles), float, len(angles)) for f in (math.cos, math.sin))
    blocks = np.stack((c, -s, s, c), axis=1).reshape(-1, 2, 2)
    if sign == -1 and n % 2:
        blocks *= -1.0
    return blocks


def _int_nth_root(m: int, n: int) -> Optional[int]:
    """Exact integer n-th root of m >= 0, or None."""
    if m < 2 or m.bit_length() <= n:  # at 2 <= m < 2^n, 1 < m^(1/n) < 2: no integer root
        return m if 0 <= m < 2 else None
    x = math.isqrt(m) if n == 2 else _floor_root(m, n)
    return x if x**n == m else None


def _floor_root(m: int, n: int) -> int:
    """floor(m^(1/n)), m >= 2, n >= 3: integer Newton steps down from a start x >= m^(1/n) stop
    at it.  The start is a float estimate rounded up for a root below about 2^144, else
    (floor_root(m >> ns) + 1) << s, good to half the root's bits and 8 more: two full steps."""
    s = m.bit_length() // (2 * n) - 8
    x = ((_floor_root(m >> n * s, n) + 1) << s if s >= 64
         else int(math.exp(math.log(m) / n) * (1 + 1e-9)) + 1)
    while (y := ((n - 1) * x + m // x ** (n - 1)) // n) < x:
        x = y
    return x


def exact_nth_root(a, n: int) -> Optional[Fraction]:
    """Exact rational n-th root of a, honouring the real sign convention.

    Returns None when a has no rational n-th root (or none exists over the
    reals at all, i.e. a < 0 with n even).  n is an int or numpy integer >= 1.
    """
    n = _checked_int("n", n, 1)
    try:
        f = Fraction(a)
    except (TypeError, ValueError, OverflowError):
        return None
    if f < 0:
        if n % 2 == 0:
            return None
        neg = exact_nth_root(-f, n)
        return None if neg is None else -neg
    num = _int_nth_root(int(f.numerator), n)  # a numpy int a keeps numpy terms in Fraction
    den = _int_nth_root(int(f.denominator), n)
    if num is None or den is None:
        return None
    return Fraction(num, den)


def _float_root(mag, n: int, power: int) -> float:
    """|a|^(power/n) as a float, 0.0 where it rounds to 0.  Where float(|a|)
    overflows or rounds to 0 it comes from the logarithms of |a|'s exact
    numerator and denominator; a result above the float range raises ValueError."""
    try:
        f = float(mag)
    except OverflowError:
        f = 0.0
    if f > 0:
        return f ** (power / n)
    q = Fraction(mag)
    try:
        return math.exp(power * (math.log(q.numerator) - math.log(q.denominator)) / n)
    except OverflowError:
        raise ValueError(f"|a|^({power}/{n}) is outside the float range") from None


def _check_n(n) -> int:
    """n as an int, if it is an int or numpy integer >= 2 (``_checked_int``); else
    ConventionError."""
    if n < 2:
        raise ConventionError(f"n must be >= 2, got {n}")
    return _checked_int("n", n, 2, ConventionError)


@dataclass(frozen=True)
class RootConvention:
    """A committed choice of n-th root of a.

    ``real(n, a)`` picks the nonnegative real root for a >= 0 and, for a < 0
    with n odd, the negative real root -|a|^(1/n), by ``_float_root`` even
    where float(a) overflows or rounds to 0.  ``principal(n, a)`` picks
    the principal complex branch.  ``exact_root`` is the same root as an
    exact Fraction whenever one exists, so rational matrices can be handled
    without leaving exact arithmetic.
    """

    n: int
    a: Scalar
    root: complex | float
    exact_root: Optional[Fraction] = None

    def __post_init__(self) -> None:
        _check_n(self.n)

    @classmethod
    def real(cls, n: int, a) -> "RootConvention":
        n = _check_n(n)  # before the root, which divides by n
        if isinstance(a, complex):
            raise ConventionError("real convention needs a real a; use principal()")
        if not isinstance(a, (int, Fraction)) and not math.isfinite(float(a)):
            raise ConventionError(f"a must be finite, got {a!r}")
        if a < 0 and n % 2 == 0:
            raise ConventionError(f"a = {a} < 0 with even n = {n} has no real n-th root")
        root = _float_root(abs(a), n, 1) if a else 0.0
        return cls(n=n, a=a, root=-root if a < 0 else root, exact_root=exact_nth_root(a, n))

    @classmethod
    def principal(cls, n: int, a) -> "RootConvention":
        n = _check_n(n)
        z = complex(a)
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise ConventionError(f"a must be finite, got {a!r}")
        root = cmath.exp(cmath.log(z) / n) if z else 0.0
        return cls(n=n, a=a, root=root, exact_root=None if z else Fraction(0))


def geometric_factor_sum(x: Matrix, n: int, conv: RootConvention) -> Matrix:
    """Evaluate X^(n-1) + c X^(n-2) + ... + c^(n-2) X + c^(n-1) I at X = x, where
    c = conv.root, by halving in O(log n) products (``_geometric_sum``), not Horner's n - 2.

    Exact when x is rational and the root is exactly rational (so a = 0 and
    a = +-1 witnesses never leave exact arithmetic), on x's Python ints and Fractions:
    no public Matrix is carried on float64 (``core._carried``).  n is an int or numpy
    integer."""
    n, c = _check_n(n), conv.exact_root
    if conv.n != n:
        raise ConventionError(f"convention is for n = {conv.n}, called with n = {n}")
    if isinstance(conv.root, complex) or x.backend == COMPLEX:  # x on a backend that holds c
        x, c = as_backend(x, COMPLEX), complex(conv.root)
    elif x.backend != RATIONAL or c is None:
        x, c = as_backend(x, REAL), float(conv.root)
    if c == 0:
        # all lower coefficients vanish; the sum collapses to X^(n-1)
        return mat_pow(x, n - 1)
    return Matrix._wrap(_geometric_sum(x, n, c, [x.array]), x.backend)


def _geometric_sum(x: Matrix, n: int, c, squares: list) -> np.ndarray:
    """G(n) at X = x, a fresh bare array, for G(m) = X^(m-1) + c X^(m-2) + ... + c^(m-1) I, from
    squares = [X, X^2, ...], extended as needed, by G(2b) = G(b) (X^b + c^b I) and G(m + b) = X^b
    G(m) + c^m G(b) over the bits b of n, low to high: no X^j or c^j, j >= n, is formed."""
    # the int +-1 of evaluate stays an int +-1 in every product, which each backend holds as it is
    coerce = int if type(c) is int and c in (1, -1) else _COERCE[x.backend]
    top = n.bit_length() - 1
    while len(squares) < (n - 1).bit_length():
        squares.append(squares[-1] @ squares[-1])
    acc, g, cm, cb = None, None, None, coerce(c)  # G(m), G(b) (None: I), c^m (None: m = 0), c^b
    for i in range(top + 1):
        if i:
            half = _add_diagonal(squares[i - 1], cb)
            g, cb = (half if g is None else g @ half), (coerce(cb * cb) if i < top else None)
        if n >> i & 1:
            acc = g if cm is None else (squares[i] if acc is None else squares[i] @ acc) + (
                g if cm == 1 else cm * g)  # c^m = 1 adds G(b) itself, no product by 1
            cm = None if i == top else cb if cm is None else coerce(cm * cb)
    return acc


def _float_square(x: Matrix) -> tuple:
    """(X, X^2, backend): x lifted to floats, or kept complex, as arrays."""
    backend = COMPLEX if x.backend == COMPLEX else REAL
    xx = as_backend(x, backend).array
    return xx, xx @ xx, backend


def quadratic_factor_eval(x: Matrix, n: int, a, i: int) -> Matrix:
    """Evaluate the i-th real quadratic factor of X^n - a*I (n even, a < 0).

    With b = (-a)^(1/n) and theta_i = (2i-1)*pi/n, the angle of the i-th
    block of ``unit_factors(n, -1)``, this is

        X^2 - 2*b*cos(theta_i)*X + b^2*I,

    the quadratic that the rotation block by theta_i satisfies (its
    characteristic polynomial, by Cayley-Hamilton); the product of these
    n/2 quadratics reconstructs X^n - a*I.  It is row i of ``_quadratics``, the
    broadcast that ``evaluate``, ``odd_factorization_product`` and ``matroot
    factor`` read too, wrapped once.
    """
    n = _checked_int("n", n, 2, ConventionError)
    if n % 2 != 0:
        raise ConventionError(f"quadratic factors need even n >= 2, got {n}")
    if isinstance(a, complex) or not a < 0:
        raise ConventionError(f"quadratic factors need real a < 0, got {a!r}")
    half, i = n // 2, _checked_int("i", i, 1)
    if i > half:
        raise ValueError(f"factor index i must be in [1, {half}], got {i}")
    square = _float_square(x)
    return Matrix._wrap(_quadratics(square, n, a, i, i + 1)[0], square[2])


_QUADRATIC_ENTRIES = 2**14  # at most, in one chunk of quadratic factors


def _quadratic_chunks(n: int, size: int) -> range:
    """The first index of each chunk of the quadratics 1 .. n // 2 at a matrix, or stack, of
    size entries: at most ``_QUADRATIC_ENTRIES`` entries, or one quadratic, a chunk."""
    return range(1, n // 2 + 1, max(1, _QUADRATIC_ENTRIES // size))


def _quadratics(square: tuple, n: int, a, first: int, stop: int) -> np.ndarray:
    """The real quadratic factors i = first .. stop - 1 of x^n - a, a real and nonzero, at the
    X of ``square`` as one array, unwrapped: X^2 - 2 b cos(t_i) X + b^2 I for b = |a|^(1/n) and
    the i-th block of ``unit_factors(n, sign(a))``, by one broadcast over their cosines."""
    xx, x2, backend = square
    blocks = unit_factors(n, 1 if a > 0 else -1)[1]
    b, cos = _float_root(abs(a), n, 1), blocks[first - 1 : stop - 1, 0, 0]
    lin = (-2.0 * b * cos).reshape((-1,) + (1,) * xx.ndim)
    return _add_diagonal(x2 + lin * xx, _COERCE[backend](b * b))


def odd_factorization_product(x: Matrix, n: int) -> Matrix:
    """Evaluate prod_{w=1}^{(n-1)/2} (X^2 - 2*cos(2*pi*w/n)*X + I) at X = x,
    one factor per block of ``unit_factors(n, 1)``.

    For odd n this product equals X^(n-1) + ... + X + I, the geometric
    cofactor of (X - I) in X^n - I.  The factors are ``_quadratics`` at a = 1,
    read in chunks of at most ``_QUADRATIC_ENTRIES`` entries; they multiply left
    to right in increasing w, on the array, and the product is wrapped once.
    """
    n = _checked_int("n", n, 3, ConventionError)
    if n % 2 == 0:
        raise ConventionError(f"odd factorization needs odd n >= 3, got {n}")
    square, result, firsts = _float_square(x), None, _quadratic_chunks(n, x.array.size)
    for first in firsts:
        for factor in _quadratics(square, n, 1, first, first + firsts.step):
            result = factor if result is None else result @ factor
    return Matrix._wrap(result, square[2])


@dataclass(frozen=True)
class TriangularParams:
    """Parameters (p, q, r, n) of the 2x2 upper-triangular power problem:
    A = [[p, q], [0, r]] raised to the n-th power."""

    p: Scalar
    q: Scalar
    r: Scalar
    n: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _checked_int("n", self.n, 2))  # a numpy integer as an int
        for name in ("p", "q", "r"):
            v = getattr(self, name)
            if not isinstance(v, numbers.Number):
                raise TypeError(f"{name} must be a number, got {type(v).__name__}")

    def matrix(self) -> Matrix:
        return Matrix([[self.p, self.q], [0, self.r]])


def _complete_homogeneous(p, r, m: int):
    """Sum of all degree-(m-1) monomials p^i * r^(m-1-i), as m explicit terms."""
    p_pows = [1]
    r_pows = [1]
    for _ in range(m - 1):
        p_pows.append(p_pows[-1] * p)
        r_pows.append(r_pows[-1] * r)
    total = p_pows[0] * r_pows[m - 1]
    for i in range(1, m):
        total = total + p_pows[i] * r_pows[m - 1 - i]
    return total


def triangular_power_formula(params: TriangularParams) -> Matrix:
    """Closed form for [[p, q], [0, r]]^n:

        A^n = s_n * A - p*r*s_(n-1) * I

    where s_m = p^(m-1) + p^(m-2) r + ... + r^(m-1).  The symmetric sums are
    accumulated term by term (never as (p^m - r^m)/(p - r)), so p = r is not
    a singular case.
    """
    p, r, n = params.p, params.r, params.n
    a = params.matrix()
    s_n = _complete_homogeneous(p, r, n)
    s_n1 = _complete_homogeneous(p, r, n - 1)
    lead = scalar_mul(s_n, a)
    shift = scalar_matrix(p * r * s_n1, a.order, lead.backend)
    return mat_sub(lead, shift)


_CLASSIFIER_TOLERANCE = Tolerance(1e-8, 1e-8)


def _nearest_root_of_unity(z: complex, n: int) -> Tuple[int, complex]:
    u = round(n * cmath.phase(z) / (2.0 * math.pi)) % n
    return u, cmath.exp(2j * math.pi * u / n)


def lemma1_root_classifier(
    params: TriangularParams,
    tol: Tolerance = _CLASSIFIER_TOLERANCE,
) -> Optional[Tuple[int, int]]:
    """Classify a triangular non-simple n-th root of I by its diagonal.

    If A = [[p, q], [0, r]] satisfies A^n = I (within tol) and A != I, the
    diagonal entries must be n-th roots of unity; returns (u, v) with
    p ~ zeta_n^u and r ~ zeta_n^v, matching each to the nearest root of
    unity and requiring the match within tol.  Returns None otherwise --
    in particular for A = I (a simple root) and for the defective case
    p = r with q != 0, where A^n = [[p^n, n p^(n-1) q], [0, p^n]] can never
    equal I.
    """
    a, n = as_backend(params.matrix(), COMPLEX), params.n
    if not _is_scalar(mat_pow(a, n).array, COMPLEX, 1, tol) or _is_scalar(a.array, COMPLEX, 1, tol):
        return None
    out = []
    for z in (complex(params.p), complex(params.r)):
        u, zeta = _nearest_root_of_unity(z, n)
        if abs(z - zeta) > tol.absolute + tol.relative * max(abs(z), 1.0):
            return None
        out.append(u)
    return out[0], out[1]
