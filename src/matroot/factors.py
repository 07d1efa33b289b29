"""Factor polynomials of X^n - a*I.

Over the reals, x^n - a splits as (x - a^(1/n)) times the geometric cofactor

    x^(n-1) + a^(1/n) x^(n-2) + ... + a^((n-2)/n) x + a^((n-1)/n)

whenever a >= 0 or n is odd.  When n is even and a < 0 there is no real
linear factor; instead x^n - a splits into n/2 real quadratics coming from
conjugate pairs of complex roots.  This module evaluates all of those factor
polynomials at a matrix argument, plus the closed-form n-th power of a 2x2
upper-triangular matrix and a classifier that recognises triangular n-th
roots of the identity by their diagonal roots of unity.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from .core import (
    COMPLEX,
    RATIONAL,
    REAL,
    Matrix,
    Scalar,
    Tolerance,
    as_backend,
    identity,
    mat_add,
    mat_eq,
    mat_mul,
    mat_pow,
    mat_sub,
    scalar_matrix,
    scalar_mul,
)

class ConventionError(ValueError):
    """Raised when (n, a) admits no root of the requested kind."""


def _int_nth_root(m: int, n: int) -> Optional[int]:
    """Exact integer n-th root of m >= 0, or None.

    Binary search on integers, so arbitrarily large inputs are safe.
    """
    if m < 0:
        return None
    if m in (0, 1):
        return m
    lo, hi = 1, 1 << (m.bit_length() // n + 1)
    while lo <= hi:
        mid = (lo + hi) // 2
        power = mid**n
        if power == m:
            return mid
        if power < m:
            lo = mid + 1
        else:
            hi = mid - 1
    return None


def exact_nth_root(a, n: int) -> Optional[Fraction]:
    """Exact rational n-th root of a, honouring the real sign convention.

    Returns None when a has no rational n-th root (or none exists over the
    reals at all, i.e. a < 0 with n even).
    """
    try:
        f = Fraction(a)
    except (TypeError, ValueError, OverflowError):
        return None
    if f < 0:
        if n % 2 == 0:
            return None
        neg = exact_nth_root(-f, n)
        return None if neg is None else -neg
    num = _int_nth_root(f.numerator, n)
    den = _int_nth_root(f.denominator, n)
    if num is None or den is None:
        return None
    return Fraction(num, den)


@dataclass(frozen=True)
class RootConvention:
    """A committed choice of n-th root of a.

    ``real(n, a)`` picks the nonnegative real root for a >= 0 and, for a < 0
    with n odd, the negative real root -|a|^(1/n).  ``principal(n, a)`` picks
    the principal complex branch.  ``exact_root`` is the same root as an
    exact Fraction whenever one exists, so rational matrices can be handled
    without leaving exact arithmetic.
    """

    n: int
    a: Scalar
    root: complex | float
    exact_root: Optional[Fraction] = None

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ConventionError(f"n must be >= 2, got {self.n}")

    @classmethod
    def real(cls, n: int, a) -> "RootConvention":
        if isinstance(a, complex):
            raise ConventionError("real convention needs a real a; use principal()")
        if not isinstance(a, (int, Fraction)) and not math.isfinite(float(a)):
            raise ConventionError(f"a must be finite, got {a!r}")
        if a < 0:
            if n % 2 == 0:
                raise ConventionError(
                    f"a = {a} < 0 with even n = {n} has no real n-th root"
                )
            root = -((-float(a)) ** (1.0 / n))
        else:
            root = float(a) ** (1.0 / n)
        return cls(n=n, a=a, root=root, exact_root=exact_nth_root(a, n))

    @classmethod
    def principal(cls, n: int, a) -> "RootConvention":
        z = complex(a)
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise ConventionError(f"a must be finite, got {a!r}")
        if z == 0:
            root: complex | float = 0.0
            exact: Optional[Fraction] = Fraction(0)
        else:
            root = cmath.exp(cmath.log(z) / n)
            exact = None
        return cls(n=n, a=a, root=root, exact_root=exact)


def _lift_for_root(x: Matrix, conv: RootConvention) -> Tuple[Matrix, Scalar]:
    """Move x to a backend that can hold conv's root, returning (x, c)."""
    if isinstance(conv.root, complex) or x.backend == COMPLEX:
        return as_backend(x, COMPLEX), complex(conv.root)
    if x.backend == RATIONAL and conv.exact_root is not None:
        return x, conv.exact_root
    return as_backend(x, REAL), float(conv.root)


def geometric_factor_sum(x: Matrix, n: int, conv: RootConvention) -> Matrix:
    """Evaluate X^(n-1) + c X^(n-2) + ... + c^(n-2) X + c^(n-1) I at X = x,
    where c = conv.root, by Horner's scheme.

    Exact when x is rational and the root is exactly rational (so a = 0 and
    a = +-1 witnesses never leave exact arithmetic).
    """
    if n < 2:
        raise ConventionError(f"n must be >= 2, got {n}")
    if conv.n != n:
        raise ConventionError(f"convention is for n = {conv.n}, called with n = {n}")
    xx, c = _lift_for_root(x, conv)
    if c == 0:
        # all lower coefficients vanish; the sum collapses to X^(n-1)
        return mat_pow(xx, n - 1)
    k = xx.order
    acc = mat_add(xx, scalar_matrix(c, k, xx.backend))
    cpow = c
    for _ in range(n - 2):
        cpow = cpow * c
        acc = mat_add(mat_mul(acc, xx), scalar_matrix(cpow, k, xx.backend))
    return acc


def quadratic_factor_eval(x: Matrix, n: int, a, i: int) -> Matrix:
    """Evaluate the i-th real quadratic factor of X^n - a*I (n even, a < 0).

    With b = (-a)^(1/n) and theta_i = (2i-1)*pi/n this is

        X^2 - 2*b*cos(theta_i)*X + b^2*I,

    the quadratic that the rotation block by theta_i satisfies (its
    characteristic polynomial, by Cayley-Hamilton); the product of these
    n/2 quadratics reconstructs X^n - a*I.
    """
    if n < 2 or n % 2 != 0:
        raise ConventionError(f"quadratic factors need even n >= 2, got {n}")
    if isinstance(a, complex) or not a < 0:
        raise ConventionError(f"quadratic factors need real a < 0, got {a!r}")
    half = n // 2
    if not 1 <= i <= half:
        raise ValueError(f"factor index i must be in [1, {half}], got {i}")
    b = (-float(a)) ** (1.0 / n)
    cos_t = math.cos((2 * i - 1) * math.pi / n)
    lin = -2.0 * b * cos_t
    backend = COMPLEX if x.backend == COMPLEX else REAL
    xx = as_backend(x, backend)
    x2 = mat_mul(xx, xx)
    return mat_add(
        mat_add(x2, scalar_mul(lin, xx)),
        scalar_matrix(b * b, xx.order, backend),
    )


def odd_factorization_product(x: Matrix, n: int) -> Matrix:
    """Evaluate prod_{w=1}^{(n-1)/2} (X^2 - 2*cos(2*pi*w/n)*X + I) at X = x.

    For odd n this product equals X^(n-1) + ... + X + I, the geometric
    cofactor of (X - I) in X^n - I; factors multiply left to right in
    increasing w.
    """
    if n < 3 or n % 2 == 0:
        raise ConventionError(f"odd factorization needs odd n >= 3, got {n}")
    backend = COMPLEX if x.backend == COMPLEX else REAL
    xx = as_backend(x, backend)
    x2 = mat_mul(xx, xx)
    eye = identity(xx.order, backend)
    result = None
    for w in range(1, (n - 1) // 2 + 1):
        coeff = -2.0 * math.cos(2.0 * math.pi * w / n)
        factor = mat_add(mat_add(x2, scalar_mul(coeff, xx)), eye)
        result = factor if result is None else mat_mul(result, factor)
    return result


@dataclass(frozen=True)
class TriangularParams:
    """Parameters (p, q, r, n) of the 2x2 upper-triangular power problem:
    A = [[p, q], [0, r]] raised to the n-th power."""

    p: Scalar
    q: Scalar
    r: Scalar
    n: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")
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
    a = as_backend(params.matrix(), COMPLEX)
    n = params.n
    eye = identity(2, COMPLEX)
    if not mat_eq(mat_pow(a, n), eye, tol):
        return None
    if mat_eq(a, eye, tol):
        return None
    out = []
    for z in (complex(params.p), complex(params.r)):
        u, zeta = _nearest_root_of_unity(z, n)
        if abs(z - zeta) > tol.absolute + tol.relative * max(abs(z), 1.0):
            return None
        out.append(u)
    return out[0], out[1]
