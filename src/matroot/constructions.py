"""Witness matrices: concrete non-simple n-th roots of a*I.

Each construction here either refutes one of the two factor sentences for a
specific (k, n, a) cell or realises a boundary case exactly:

* a 0/1 nilpotent with nilpotency index exactly n (a = 0 cells),
* six block-diagonal families built from the 2x2 exchange matrix and
  rotation blocks (a = +-1, sentence 1 cells),
* a rotation direct sum with two distinct block angles (a = -1, even n,
  sentence 2 cells),
* a complex diagonal witness for the complex-scalar variant of sentence 1,

plus similarity conjugation by random unimodular integer shears (for
randomised invariance testing) and the scaling maps that reduce general
a != 0 to a = +-1.
"""

from __future__ import annotations

import math
import cmath
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from typing import Optional

import numpy as np

from .core import (
    COMPLEX,
    RATIONAL,
    REAL,
    Matrix,
    Scalar,
    block_diag,
    rotation,
    scalar_kind,
    scalar_mul,
    scalar_to_json,
    matrix_from_json,
    matrix_to_json,
)
from .factors import exact_nth_root
from .instances import ProblemInstance


class CaseTag(Enum):
    """Which construction produced a witness."""

    CASE_I = "case-i"  # n even, k even, a = 1
    CASE_II = "case-ii"  # n even, k odd,  a = 1
    CASE_III = "case-iii"  # n odd,  k even, a = 1
    CASE_IV = "case-iv"  # n odd,  k odd,  a = 1
    CASE_V = "case-v"  # n odd,  k even, a = -1
    CASE_VI = "case-vi"  # n odd,  k odd,  a = -1
    NILPOTENT_SHIFT = "nilpotent-shift"
    THEOREM2_CE = "theorem2-ce"
    COMPLEX_CE = "complex-ce"


CASE_TAGS = (
    CaseTag.CASE_I,
    CaseTag.CASE_II,
    CaseTag.CASE_III,
    CaseTag.CASE_IV,
    CaseTag.CASE_V,
    CaseTag.CASE_VI,
)


@dataclass(frozen=True)
class Witness:
    """A constructed matrix together with what it claims to refute.

    ``tag`` is None for search-generated witnesses; ``refutes_sentence`` is
    1, 2, or None for matrices that refute nothing (boundary constructions).
    ``a`` may be complex only for the complex diagonal construction.
    """

    matrix: Matrix
    tag: Optional[CaseTag]
    k: int
    n: int
    a: Scalar
    refutes_sentence: Optional[int]

    def __post_init__(self) -> None:
        if self.matrix.order != self.k:
            raise ValueError(f"matrix order {self.matrix.order} != k = {self.k}")
        if self.refutes_sentence not in (None, 1, 2):
            raise ValueError("refutes_sentence must be 1, 2 or None")

    @property
    def instance(self) -> ProblemInstance:
        if isinstance(self.a, complex):
            raise TypeError("complex-scalar witnesses have no real problem instance")
        return ProblemInstance(self.k, self.n, self.a)


def witness_to_json(w: Witness) -> dict:
    return {
        "matrix": matrix_to_json(w.matrix),
        "tag": w.tag.value if w.tag is not None else None,
        "k": w.k,
        "n": w.n,
        "a": scalar_to_json(w.a, scalar_kind(w.a)),
        "refutes_sentence": w.refutes_sentence,
    }


def witness_from_json(data: dict) -> Witness:
    tag = data.get("tag")
    a = data["a"]
    if isinstance(a, str):
        a_val: Scalar = Fraction(a)
    elif isinstance(a, list):
        a_val = complex(float(a[0]), float(a[1]))
    else:
        a_val = float(a)
    return Witness(
        matrix=matrix_from_json(data["matrix"]),
        tag=CaseTag(tag) if tag is not None else None,
        k=int(data["k"]),
        n=int(data["n"]),
        a=a_val,
        refutes_sentence=data.get("refutes_sentence"),
    )


def swap_block() -> Matrix:
    """The 2x2 exchange matrix [[0, 1], [1, 0]]; an involution."""
    return Matrix([[0, 1], [1, 0]], backend=RATIONAL)


def shift_nilpotent(k: int, n: int) -> Matrix:
    """k x k 0/1 matrix with A^n = O and A^(n-1) != O, exactly.

    For n = k this is the full first-superdiagonal shift, and for n = 2 a
    single 1 in the top-right corner; both are the uniform pattern
    a[i][j] = 1 iff j = i + (k - n + 1).  That uniform pattern has
    nilpotency index ceil(k / (k-n+1)), which equals n only when n = 2 or
    n = k, so for 2 < n < k the ones go on the first superdiagonal of the
    leading n x n block instead (an order-n shift padded with zeros), whose
    index is exactly n for every k >= n.
    """
    if not 2 <= n:
        raise ValueError(f"n must be >= 2, got {n}")
    if n > k:
        raise ValueError(f"need n <= k (no index-{n} nilpotent fits in order {k})")
    arr = np.full((k, k), 0, dtype=object)
    if n == 2 or n == k:
        offset = k - n + 1
        for i in range(k - offset):
            arr[i, i + offset] = 1
    else:
        for i in range(n - 1):
            arr[i, i + 1] = 1
    return Matrix._wrap(arr, RATIONAL)


def _one_by_one(value: int) -> Matrix:
    return Matrix([[value]], backend=RATIONAL)


def case_counterexample(tag: CaseTag, k: int, n: int) -> Witness:
    """The six block-diagonal families refuting sentence 1 at a = +-1.

    Tags I/II (even n, a = 1) are exact 0/1 exchange-block matrices; tags
    III-VI (odd n >= 3) mix a fixed scalar block with rotation blocks of
    angle 2*pi/n, negated for a = -1.
    """
    if tag not in CASE_TAGS:
        raise ValueError(f"tag must be one of the six case tags, got {tag!r}")
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if tag in (CaseTag.CASE_I, CaseTag.CASE_II):
        if n % 2 != 0:
            raise ValueError(f"{tag.value} needs even n, got {n}")
    else:
        if n % 2 == 0 or n < 3:
            raise ValueError(f"{tag.value} needs odd n >= 3, got {n}")

    t = swap_block()
    r = rotation(2.0 * math.pi / n)

    if tag is CaseTag.CASE_I:
        if k < 2 or k % 2 != 0:
            raise ValueError(f"case-i needs even k >= 2, got {k}")
        m = block_diag([t] * (k // 2))
        a: Scalar = 1
    elif tag is CaseTag.CASE_II:
        if k < 3 or k % 2 != 1:
            raise ValueError(f"case-ii needs odd k >= 3, got {k}")
        m = block_diag([_one_by_one(1)] + [t] * ((k - 1) // 2))
        a = 1
    elif tag is CaseTag.CASE_III:
        if k < 4 or k % 2 != 0:
            raise ValueError(f"case-iii needs even k >= 4, got {k}")
        eye2 = Matrix([[1.0, 0.0], [0.0, 1.0]], backend=REAL)
        m = block_diag([eye2] + [r] * (k // 2 - 1))
        a = 1
    elif tag is CaseTag.CASE_IV:
        if k < 3 or k % 2 != 1:
            raise ValueError(f"case-iv needs odd k >= 3, got {k}")
        one = Matrix([[1.0]], backend=REAL)
        m = block_diag([one] + [r] * ((k - 1) // 2))
        a = 1
    elif tag is CaseTag.CASE_V:
        if k < 4 or k % 2 != 0:
            raise ValueError(f"case-v needs even k >= 4, got {k}")
        minus_eye2 = Matrix([[-1.0, 0.0], [0.0, -1.0]], backend=REAL)
        minus_r = scalar_mul(-1.0, r)
        m = block_diag([minus_eye2] + [minus_r] * (k // 2 - 1))
        a = -1
    else:  # CASE_VI
        if k < 3 or k % 2 != 1:
            raise ValueError(f"case-vi needs odd k >= 3, got {k}")
        minus_one = Matrix([[-1.0]], backend=REAL)
        minus_r = scalar_mul(-1.0, r)
        m = block_diag([minus_one] + [minus_r] * ((k - 1) // 2))
        a = -1
    return Witness(matrix=m, tag=tag, k=k, n=n, a=a, refutes_sentence=1)


def theorem2_counterexample(k: int, n: int) -> Witness:
    """diag(R1, R2, ..., R2) with R_j = rotation((2j-1)*pi/n): an n-th root
    of -I (n even) on which none of the n/2 quadratic factors vanishes.

    Needs two distinct block angles, hence k >= 4; a single rotation block
    (k = 2) satisfies its own characteristic quadratic and refutes nothing,
    and for n = 2 the lone quadratic X^2 + I annihilates every root of -I.
    """
    if n % 2 != 0:
        raise ValueError(f"needs even n, got {n}")
    if n < 4:
        raise ValueError("n = 2 has a single quadratic factor satisfied by "
                         "every root of -I; no counterexample exists")
    if k % 2 != 0:
        raise ValueError(f"needs even k (no real root of -I has odd order), got {k}")
    if k < 4:
        raise ValueError("k = 2 admits only single-block roots, which satisfy "
                         "their own quadratic; need k >= 4")
    r1 = rotation(math.pi / n)
    r2 = rotation(3.0 * math.pi / n)
    m = block_diag([r1] + [r2] * (k // 2 - 1))
    return Witness(matrix=m, tag=CaseTag.THEOREM2_CE, k=k, n=n, a=-1, refutes_sentence=2)


def complex_counterexample(k: int, n: int, a: complex) -> Witness:
    """diag(z, z*zeta, ..., z*zeta) with z^n = a (principal root) and
    zeta = exp(2*pi*i/n): a non-simple complex n-th root of a*I whose
    geometric factor sum has (1,1) entry n*z^(n-1) != 0."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    a = complex(a)
    if a == 0:
        raise ValueError("a must be nonzero")
    z = cmath.exp(cmath.log(a) / n)
    zeta = cmath.exp(2j * math.pi / n)
    arr = np.zeros((k, k), dtype=np.complex128)
    arr[0, 0] = z
    for i in range(1, k):
        arr[i, i] = z * zeta
    return Witness(
        matrix=Matrix._wrap(arr, COMPLEX),
        tag=CaseTag.COMPLEX_CE,
        k=k,
        n=n,
        a=a,
        refutes_sentence=1,
    )


# --- similarity conjugation --------------------------------------------------

# Shear budget per backend.  Exact arithmetic tolerates long products of
# coefficient-2 shears; float backends get few, mild shears so that the
# conjugator's conditioning cannot push roundoff past the 1e-7 invariance
# contract.
_RATIONAL_SHEARS_PER_ORDER = 3
_FLOAT_SHEARS = 3


_SIGNS = np.array((-1, 1))


def _shear_draws(rng: np.random.Generator, k: int, backend: str):
    """One conjugation's shear coefficients and (i, j) index pairs, drawn from rng."""
    if backend == RATIONAL:
        count = _RATIONAL_SHEARS_PER_ORDER * k
        coeffs = rng.integers(-2, 3, size=count)
    else:
        count = _FLOAT_SHEARS
        coeffs = _SIGNS[rng.integers(0, 2, size=count)]  # as rng.choice((-1, 1)) draws
    return coeffs, rng.integers(0, k, size=(count, 2))


def _sheared(stack: np.ndarray, backend: str, coeffs: np.ndarray, pairs: np.ndarray):
    """A copy of the (m, k, k) stack with each matrix c conjugated by its own
    shears I + coeffs[c, s] * E[pairs[c, s]], in order s: row i += c * row j,
    then column j -= c * column i.  Shears with i = j or c = 0 are skipped."""
    arr = stack.copy()
    live = (pairs[..., 0] != pairs[..., 1]) & (coeffs != 0)
    if len(arr) == 1:  # one matrix: read its live shears out once, then slice plainly
        x = arr[0]
        for (i, j), c in zip(pairs[0, live[0]].tolist(), coeffs[0, live[0]].tolist()):
            x[i] += c * x[j]
            x[:, j] -= c * x[:, i]
        return arr
    if backend == RATIONAL:
        coeffs = coeffs.astype(object)  # Python ints, so entries stay ints and Fractions
    for s in np.flatnonzero(live.any(axis=0)):
        at = np.flatnonzero(live[:, s])
        if len(at) == 1:  # one live matrix: plain slicing beats fancy indexing
            x, (i, j), c = arr[at[0]], pairs[at[0], s].tolist(), coeffs[at[0], s]
            x[i] += c * x[j]
            x[:, j] -= c * x[:, i]
            continue
        i, j, c = pairs[at, s, 0], pairs[at, s, 1], coeffs[at, s, None]
        arr[at, i] += c * arr[at, j]
        arr[at, :, j] -= c * arr[at, :, i]
    return arr


def conjugate_with_rng(m: Matrix, rng: np.random.Generator) -> Matrix:
    """P * M * P^-1 for the unimodular shear product P drawn from rng: the
    one-matrix case of the shear kernel that the candidate search applies
    to whole stacks."""
    k = m.order
    if k < 2:
        return m
    coeffs, pairs = _shear_draws(rng, k, m.backend)
    arr = _sheared(m.array[None], m.backend, coeffs[None], pairs[None])[0]
    return Matrix._wrap(arr, m.backend)


def conjugate_matrix(m: Matrix, seed: int) -> Matrix:
    """P * M * P^-1 for a seed-deterministic random unimodular integer P
    (a short product of elementary shears)."""
    return conjugate_with_rng(m, np.random.default_rng(int(seed)))


def conjugate_random(w: Witness, seed: int) -> Witness:
    """Similarity-conjugated copy of a witness.

    Similarity preserves the defining equation X^n = a*I and conjugates
    every factor-polynomial value, so zero/nonzero status -- and hence the
    refutation claim -- carries over; tag and instance data are kept.
    """
    return replace(w, matrix=conjugate_matrix(w.matrix, seed))


# --- scaling reductions ------------------------------------------------------


def _float_root(mag, n: int, power: int) -> float:
    """|a|^(power/n) as a float.  Where float(|a|) overflows or rounds to 0 it
    comes from the logarithms of |a|'s exact numerator and denominator."""
    try:
        f = float(mag)
    except OverflowError:
        f = 0.0
    if f > 0:
        return f ** (power / n)
    q = Fraction(mag)
    log = power * (math.log(q.numerator) - math.log(q.denominator)) / n
    factor = math.exp(log) if log < 710 else math.inf  # exp(710) overflows
    if not 0 < factor < math.inf:
        raise ValueError(f"|a|^({power}/{n}) is outside the float range")
    return factor


def _scale(x: Matrix, n: int, a, power: int) -> Matrix:
    """|a|^(power/n) * X for power = +-1.  Stays on the rational backend when X
    is rational and |a| has a rational n-th root (a = 4, n = 2), else floats."""
    if isinstance(a, complex) or a == 0:
        raise ValueError(f"scaling reductions need a real nonzero a, got {a!r}")
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    mag = abs(a)
    if x.backend == RATIONAL:
        exact = exact_nth_root(mag, n)
        if exact is not None:
            return scalar_mul(exact**power, x)
    return scalar_mul(_float_root(mag, n, power), x)


def scale_to_unit(x: Matrix, n: int, a) -> Matrix:
    """|a|^(-1/n) * X: maps n-th roots of a*I to n-th roots of sign(a)*I."""
    return _scale(x, n, a, -1)


def scale_from_unit(x: Matrix, n: int, a) -> Matrix:
    """|a|^(1/n) * X: the inverse of scale_to_unit, used to lift unit-case
    witnesses to general a."""
    return _scale(x, n, a, 1)
