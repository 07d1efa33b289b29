"""Witness matrices: concrete non-simple n-th roots of a*I.

A clause p(X) = 0 holds exactly when the minimal polynomial of X divides p
(Horn & Johnson, *Matrix Analysis*, section 3.3), and for a != 0 that minimal
polynomial is a set S of distinct factors of x^n - a.  So a cell (k, n, a)
is refuted exactly when some refuting S fits in order k, and a witness is a
block sum realising the smallest one.  ``_refuting_tag`` is the one table of
which family that is, per cell:

* nilpotent-shift, S = x^n (a = 0): a 0/1 nilpotent of index exactly n,
* case-i/ii, S = {x - 1, x + 1} (a = 1, even n): exchange blocks, led by a 1
  for odd k,
* case-iii-vi, S = {x - r, q_1} (odd n, r = sign(a)): the first factor block
  of x^n - sign(a), led by r twice for even k, once for odd k,
* theorem2-ce, S = {q_1, q_2} (a = -1, even n): the first two factor blocks
  of x^n + 1,

and ``construct`` builds each from it.  A complex diagonal witness covers
the complex-scalar variant of sentence 1.  Also here: similarity
conjugation by random unimodular integer shears (for randomised invariance
testing) and the scaling maps that reduce general a != 0 to a = +-1.
"""

from __future__ import annotations

import math
import cmath
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache
from typing import Optional

import numpy as np

from .core import (
    COMPLEX,
    RATIONAL,
    REAL,
    Matrix,
    Scalar,
    _BACKEND_DTYPE,
    _checked_int,
    scalar_kind,
    scalar_from_json,
    scalar_mul,
    scalar_to_json,
    matrix_from_json,
    matrix_to_json,
)
from .factors import _float_root, _unit_blocks, exact_nth_root
from .instances import ProblemInstance, _sentence


class CaseTag(Enum):
    """Which construction produced a witness."""

    CASE_I = "case-i"
    CASE_II = "case-ii"
    CASE_III = "case-iii"
    CASE_IV = "case-iv"
    CASE_V = "case-v"
    CASE_VI = "case-vi"
    NILPOTENT_SHIFT = "nilpotent-shift"
    THEOREM2_CE = "theorem2-ce"
    COMPLEX_CE = "complex-ce"


# The family refuting sentence 1 at each (n % 2, k % 2, sign of a).
CASE_AT = {
    (0, 0, 1): CaseTag.CASE_I,
    (0, 1, 1): CaseTag.CASE_II,
    (1, 0, 1): CaseTag.CASE_III,
    (1, 1, 1): CaseTag.CASE_IV,
    (1, 0, -1): CaseTag.CASE_V,
    (1, 1, -1): CaseTag.CASE_VI,
}
# The a of each real tag's witness: 0, or the sign of a (1 where not listed).
_A_OF = {CaseTag.NILPOTENT_SHIFT: 0, CaseTag.CASE_V: -1, CaseTag.CASE_VI: -1,
         CaseTag.THEOREM2_CE: -1}


def _refuting_tag(k: int, n: int, a) -> Optional[CaseTag]:
    """The family whose witness refutes the sentence that applies at (k, n, a), a real,
    or None where no refuting minimal polynomial S fits in order k.

    S is realisable when deg S <= k and S has a linear factor or k - deg S is even
    (copies of its factors pad the rest).  The smallest refuting S is
    x^n at a = 0, so n <= k; {x - 1, x + 1} for sentence 1 at even n, so k >= 2;
    {x - r, q_1} for sentence 1 at odd n >= 3, so k >= 3; and two quadratics
    {q_1, q_2} for sentence 2, so k even, k >= 4 and n >= 4.
    """
    if a == 0:
        return CaseTag.NILPOTENT_SHIFT if 2 <= n <= k else None
    if _sentence(n, a) == 2:
        return CaseTag.THEOREM2_CE if k % 2 == 0 and k >= 4 and n >= 4 else None
    fits = k >= 2 if n % 2 == 0 else k >= 3 and n >= 3
    return CASE_AT[n % 2, k % 2, 1 if a > 0 else -1] if fits else None


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
        rs = self.refutes_sentence  # the int 1 or 2: not a bool, 1.0 or "1"
        if rs is not None and (type(rs) is not int or rs not in (1, 2)):
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
    tag, a = data.get("tag"), data["a"]
    backend = RATIONAL if isinstance(a, str) else COMPLEX if isinstance(a, list) else REAL
    return Witness(
        matrix=matrix_from_json(data["matrix"]),
        tag=CaseTag(tag) if tag is not None else None,
        k=_checked_int("k", data["k"], 2),
        n=_checked_int("n", data["n"], 2),
        a=scalar_from_json(a, backend),  # the wire form of a names its backend
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
    index is exactly n for every k >= n.  k and n are ints or numpy integers >= 2.
    """
    k, n = _checked_int("k", k, 2), _checked_int("n", n, 2)
    if n > k:
        raise ValueError(f"need n <= k (no index-{n} nilpotent fits in order {k})")
    arr = np.zeros((k, k), dtype=object)  # int 0 entries
    offset = k - n + 1 if n in (2, k) else 1  # n - 1 ones either way
    arr[range(n - 1), range(offset, offset + n - 1)] = 1
    return Matrix._wrap(arr, RATIONAL)


def _block_sum(k: int, lead: tuple, blocks: np.ndarray, backend: str) -> Matrix:
    """diag(*lead, B1, B2, ...) of order k, the B a stack or copies of one 2x2 block, written
    through views: the flat diagonal, and the block diagonal of the trailing square."""
    arr = np.zeros((k, k), _BACKEND_DTYPE[backend])  # int 0 on the object dtype
    lo, q = len(lead), (k - len(lead)) // 2
    arr.flat[: lo * (k + 1) : k + 1] = lead
    np.einsum("iaib->iab", arr[lo:, lo:].reshape(q, 2, q, 2))[...] = blocks
    return Matrix._wrap(arr, backend)


def case_counterexample(tag: CaseTag, k: int, n: int) -> Witness:
    """The witness of one of the six sentence-1 families at a = +-1 (see ``construct``)."""
    if tag not in CASE_AT.values():
        raise ValueError(f"tag must be one of the six case tags, got {tag!r}")
    return construct(tag, k, n)


def theorem2_counterexample(k: int, n: int) -> Witness:
    """diag(R1, R2, ..., R2) with R1, R2 the first two blocks of x^n + 1's
    factor table, the rotations by pi/n and 3*pi/n: an n-th root of -I
    (n even) on which none of the n/2 quadratic factors vanishes.  It needs
    k even, k >= 4 and n >= 4: a single rotation block satisfies its own
    quadratic, and for n = 2 the lone quadratic X^2 + I annihilates every
    root of -I."""
    return construct(CaseTag.THEOREM2_CE, k, n)


def complex_counterexample(k: int, n: int, a: complex) -> Witness:
    """diag(z, z*zeta, ..., z*zeta) with z^n = a (principal root) and
    zeta = exp(2*pi*i/n): a non-simple complex n-th root of a*I whose
    geometric factor sum has (1,1) entry n*z^(n-1) != 0.  k and n are ints or
    numpy integers >= 2."""
    k, n, a = _checked_int("k", k, 2), _checked_int("n", n, 2), complex(a)
    if a == 0:
        raise ValueError("a must be nonzero")
    z = cmath.exp(cmath.log(a) / n)
    zeta = cmath.exp(2j * math.pi / n)
    arr = np.zeros((k, k), dtype=np.complex128)
    arr.flat[:: k + 1] = [z] + [z * zeta] * (k - 1)
    return Witness(matrix=Matrix._wrap(arr, COMPLEX), tag=CaseTag.COMPLEX_CE, k=k, n=n, a=a,
                   refutes_sentence=1)


def construct(tag: CaseTag, k: int, n: int) -> Witness:
    """The witness of a real tag (all but complex-ce) at order k and exponent n,
    at a = 0 for nilpotent-shift and at a = +-1 for the others: a block sum
    realising the tag's S (see the module docstring), at the one cell kind
    where ``_refuting_tag`` names the tag.  Only the blocks it places are built.
    k and n are ints or numpy integers >= 1: the table names no family below 2."""
    k, n, a = _checked_int("k", k, 1), _checked_int("n", n, 1), _A_OF.get(tag, 1)
    if _refuting_tag(k, n, a) is not tag:
        raise ValueError(f"no {tag.value} witness refutes a sentence at k = {k}, n = {n}")
    if tag is CaseTag.NILPOTENT_SHIFT:
        return Witness(shift_nilpotent(k, n), tag, k, n, a=0, refutes_sentence=1)
    if tag is CaseTag.THEOREM2_CE:
        blocks = _unit_blocks(n, -1, 2)[[0] + [1] * (k // 2 - 1)]
        return Witness(_block_sum(k, (), blocks, REAL), tag, k, n, a=-1, refutes_sentence=2)
    if n % 2:
        lead, block, backend = (a,) * (2 - k % 2), _unit_blocks(n, a, 1)[0], REAL
    else:
        lead, block, backend = (1,) * (k % 2), np.array([[0, 1], [1, 0]], object), RATIONAL
    return Witness(_block_sum(k, lead, block, backend), tag, k, n, a=a, refutes_sentence=1)


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


def conjugate_matrix(m: Matrix, seed: int) -> Matrix:
    """P * M * P^-1 for a seed-deterministic random unimodular integer P
    (a short product of elementary shears), on one copy of the array: for
    each shear I + c * E[i, j] with i != j and c != 0, in order, row i += c *
    row j, then column j -= c * column i.  seed is an int >= 0."""
    seed, k = _checked_int("seed", seed, 0), m.order
    if k < 2:
        return m
    coeffs, pairs = _shear_draws(np.random.default_rng(seed), k, m.backend)
    x = m.array.copy()
    for (i, j), c in zip(pairs.tolist(), coeffs.tolist()):  # Python ints keep entries exact
        if i != j and c:
            x[i] += c * x[j]
            x[:, j] -= c * x[:, i]
    return Matrix._wrap(x, m.backend)


def conjugate_random(w: Witness, seed: int) -> Witness:
    """Similarity-conjugated copy of a witness.

    Similarity preserves the defining equation X^n = a*I and conjugates
    every factor-polynomial value, so zero/nonzero status -- and hence the
    refutation claim -- carries over; tag and instance data are kept.
    """
    return replace(w, matrix=conjugate_matrix(w.matrix, seed))


# --- scaling reductions ------------------------------------------------------


# The exact n-th roots of the 256 latest (|a|, n), keyed by |a|'s type as well
# (4, 4.0 and Fraction(4) never share); each entry retains |a| and its root.
_exact_root = lru_cache(maxsize=256, typed=True)(exact_nth_root)


def _scale(x: Matrix, n: int, a, power: int, floats=None) -> Matrix:
    """|a|^(power/n) * X for power = +-1.  Stays on the rational backend when X
    is rational and |a| has a rational n-th root (a = 4, n = 2), else floats:
    from floats(), where given, a kept float64 form of a rational X.  n is an int >= 2,
    which every caller has checked."""
    if isinstance(a, complex) or a == 0:
        raise ValueError(f"scaling reductions need a real nonzero a, got {a!r}")
    mag = abs(a)
    if x.backend == RATIONAL:
        exact = _exact_root(mag, n)
        if exact is not None:
            return scalar_mul(exact**power, x)
        if floats is not None:
            x = floats()
    factor = _float_root(mag, n, power)
    if not factor:  # scaling by 0 cannot be undone
        raise ValueError(f"|a|^({power}/{n}) is outside the float range")
    if x.backend == REAL:  # scalar_mul's bits; _wrap still checks the product is finite
        return Matrix._wrap(factor * x.array, REAL)
    return scalar_mul(factor, x)


def scale_to_unit(x: Matrix, n: int, a) -> Matrix:
    """|a|^(-1/n) * X: maps n-th roots of a*I to n-th roots of sign(a)*I.
    n is an int or numpy integer >= 2."""
    return _scale(x, _checked_int("n", n, 2), a, -1)


def scale_from_unit(x: Matrix, n: int, a) -> Matrix:
    """|a|^(1/n) * X: the inverse of scale_to_unit, used to lift unit-case
    witnesses to general a.  n is an int or numpy integer >= 2."""
    return _scale(x, _checked_int("n", n, 2), a, 1)
