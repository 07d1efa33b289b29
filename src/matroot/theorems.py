"""Closed-form decision procedures and the empirical search harness.

Two universally quantified sentences about real k x k matrices are decided
in closed form:

* sentence 1 (a > 0, a = 0, or a < 0 with n odd):
      X^n = a*I and X != a^(1/n)*I  imply  the geometric factor sum is O.
* sentence 2 (a < 0, n even):
      X^n = a*I  implies  some quadratic factor of X^n - a*I vanishes at X.

Each clause is p(X) = 0 for a divisor p of x^n - a, which holds exactly when
the minimal polynomial of X divides p (Horn & Johnson, *Matrix Analysis*,
section 3.3).  So a sentence fails at order k exactly when a refuting minimal
polynomial S fits there, and ``constructions._refuting_tag`` is the closed
form: it names the family of the smallest such S (x^n at a = 0; {x - 1, x + 1}
or {x - r, q_1} for sentence 1; {q_1, q_2} for sentence 2), or None.  Read
out, it names no family for sentence 1 exactly when (a != 0, k = 2, n odd) or
(a = 0, n >= k + 1), and for sentence 2 exactly when k is odd (vacuously: no
real root of a*I exists, by a determinant parity argument), or n = 2, or
k = 2.  The paper's sentence-2 formula, which ``theorem2_holds`` keeps, leaves
out k = 2 (see Quarantine below).

``evaluate`` gives both sentences' clause values at a single matrix, or at
each matrix of a stack; the sentence predicates, ``verify_witness``, the
search and the command line all read it.
It is also the one place that knows the scale.  Both sentences are invariant
under X -> |a|^(-1/n) X, so a real a outside {0, 1, -1} is evaluated at unit
scale, as scale_to_unit(X), and every tolerance applies at |a| = 1; the clauses
then take a as the int sign(a), 0, 1 or -1, which is sentence 1's root there.
A complex a is evaluated at its own scale, against its principal root.

Every "false" verdict carries a concrete witness that is re-verified before
being returned.  A budget-bounded randomized search over structured block
direct sums (the real ones conjugated by random unimodular shears)
cross-checks the closed forms, a stacked chunk of candidates at a time; it
reports SearchExhausted rather than claiming proof.

Quarantine: for k = 2, n >= 4, a < 0 even-n the paper's sentence-2 formula
(k odd or n = 2) says "false", yet every 2 x 2 real root of a*I is a single
scaled rotation block and satisfies its own characteristic quadratic, so no
counterexample can exist: the table names no family there.  Verdicts for
those cells are flagged ``quarantined`` and carry no witness; callers must
treat the cell as unresolved rather than trusting either answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterator, Optional

import numpy as np

from .core import (
    COMPLEX,
    DEFAULT_TOLERANCE,
    RATIONAL,
    REAL,
    DimensionMismatch,
    Matrix,
    Tolerance,
    _carried,
    _checked_int,
    _entries_close,
    _is_scalar,
    _pow_ladder,
    _uncarried,
    as_backend,
)
from .factors import (
    RootConvention, _check_n, _float_square, _geometric_sum, _quadratic_chunks, _quadratics,
    unit_factors,
)
from .constructions import (
    Witness,
    _FLOAT_SHEARS,
    _RATIONAL_SHEARS_PER_ORDER,
    _SIGNS,
    _exact_root,
    _refuting_tag,
    _scale,
    construct,
    scale_from_unit,
    witness_to_json,
)
from .instances import ApplicabilityError, ProblemInstance, _sentence

__all__ = [
    "ApplicabilityError",
    "ProblemInstance",
    "Verdict",
    "VerdictMode",
    "decide",
    "evaluate",
    "generate_candidates",
    "is_quarantined",
    "minus_identity_root_exists",
    "search_counterexample",
    "sentence1_holds_for",
    "sentence2_holds_for",
    "theorem1_holds",
    "theorem2_holds",
    "verdict_to_json",
    "verify_witness",
]


class VerdictMode(Enum):
    CLOSED_FORM = "closed-form"
    VACUOUS = "vacuous"
    WITNESS_FOUND = "witness-found"
    SEARCH_EXHAUSTED = "search-exhausted"


@dataclass(frozen=True)
class Verdict:
    """Outcome of deciding or searching one (k, n, a) cell.

    ``holds == False`` guarantees a re-verifiable witness except on
    quarantined cells, where the closed form and the empirical behaviour
    disagree and no witness exists.
    """

    holds: bool
    mode: VerdictMode
    witness: Optional[Witness] = None
    trials: int = 0
    quarantined: bool = False

    def __post_init__(self) -> None:
        if not self.holds and self.witness is None and not self.quarantined:
            raise ValueError("a non-quarantined failing verdict needs a witness")
        if self.mode is VerdictMode.VACUOUS and (not self.holds or self.witness):
            raise ValueError("vacuous verdicts hold and carry no witness")


def verdict_to_json(v: Verdict) -> dict:
    return {
        "holds": v.holds,
        "mode": v.mode.value,
        "witness": witness_to_json(v.witness) if v.witness is not None else None,
        "trials": v.trials,
        "quarantined": v.quarantined,
    }


_NOT_APPLICABLE = {
    1: "sentence 1 is undefined for a < 0 with even n (no real linear factor)",
    2: "sentence 2 applies only to a < 0 with even n",
}


def _require(inst: ProblemInstance, sentence: int) -> None:
    if inst.sentence != sentence:
        raise ApplicabilityError(_NOT_APPLICABLE[sentence])


def theorem1_holds(inst: ProblemInstance) -> bool:
    """Closed form for sentence 1, no refuting family fits in order k:
    (a != 0, k = 2, n odd) or (a = 0, n >= k+1)."""
    _require(inst, 1)
    return _refuting_tag(inst.k, inst.n, inst.a) is None


def theorem2_holds(inst: ProblemInstance) -> bool:
    """The paper's closed form for sentence 2, k odd or n = 2: no refuting
    family fits in order k, and the cell is not quarantined."""
    _require(inst, 2)
    return _refuting_tag(inst.k, inst.n, inst.a) is None and not is_quarantined(inst)


def minus_identity_root_exists(k: int, n: int) -> bool:
    """Whether any real k x k matrix satisfies X^n = -I (n even).

    For odd k, det(X)^n = det(-I) = (-1)^k = -1 would need a real number
    whose even power is negative, so no root exists.  For even k,
    diag of k/2 rotation(pi/n) blocks is an explicit root.
    """
    if n % 2 != 0:
        raise ApplicabilityError(f"only even n is meaningful here, got n = {n}")
    if k < 2 or n < 2:
        raise ValueError(f"need k, n >= 2, got k = {k}, n = {n}")
    return k % 2 == 0


def _no_real_root(inst: ProblemInstance) -> bool:
    """Whether no real k x k matrix satisfies X^n = a*I: sentence 2, where that is
    X^n = -I at unit scale, and no root of -I (``minus_identity_root_exists``)."""
    return inst.sentence == 2 and not minus_identity_root_exists(inst.k, inst.n)


def is_quarantined(inst: ProblemInstance) -> bool:
    """The k = 2, n >= 4, negative-even cells where the paper's closed form and
    the table of refuting families disagree (see module docstring)."""
    return inst.sentence == 2 and inst.k == 2 and inst.n >= 4


class _lazy:
    """A lock-free cached_property: computed on first access, then a plain attribute."""

    def __init__(self, fn) -> None:
        self.fn, self.name = fn, fn.__name__

    def __get__(self, obj, cls=None):
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


class Clauses:
    """Clause values of the applicable sentence (``sentence``, 1 or 2) at x,
    one matrix or a (m, k, k) stack of them: each clause is a bool, or a
    boolean array with one entry per stacked matrix, computed on first use.
    ``holds`` computes only what the implication needs: a factor polynomial
    runs only on a root of aI that is not a simple root, each clause on the
    whole stack while any matrix is open, and sentence 2's quadratics only up
    to the first chunk that settles every matrix; a chunk is computed once,
    for ``holds`` and ``zero_quadratics`` both.  Sentence 2 has no real
    linear factor, so its ``simple_root`` is False.  ``x`` is the matrix as
    given, on its own backend; the kernels read a private copy of it, made
    once here and carried on float64 where ``core._carried`` allows, which
    meets only the unit coefficients 0 and +-1 and never leaves."""

    def __init__(self, x: Matrix, n: int, a, sentence: int, tol: Tolerance) -> None:
        self.x, self.n, self.a, self.sentence, self.tol = x, n, a, sentence, tol
        self._x = _carried(x, n)

    @_lazy
    def _root(self):  # sentence 1's root: a real a, which evaluate leaves at 0 or +-1, itself
        a = self.a
        return RootConvention.principal(self.n, a).root if isinstance(a, complex) else a

    @_lazy
    def _ladder(self) -> tuple:  # X^e and the squares that formed it; e = n, or n - 1 at a = 0
        return _pow_ladder(self._x, self.n - 1 if self.a == 0 else self.n)

    @_lazy
    def equation(self):
        power, backend = self._ladder[0], self.x.backend
        if self.a == 0:
            # share the power: X^n = X * X^(n-1), and the factor sum is X^(n-1)
            return _entries_close(self._x.array @ power, 0, backend, self.tol)
        return _is_scalar(power, backend, self.a, self.tol)

    @_lazy
    def simple_root(self):
        if self.a == 0:
            return _entries_close(self._x.array, 0, self.x.backend, self.tol)
        if self.sentence == 2:  # no real linear factor
            return False if self.x.array.ndim == 2 else np.zeros(len(self.x.array), bool)
        return _is_scalar(self._x.array, self.x.backend, self._root, self.tol)

    @_lazy
    def factor_sum_zero(self):
        if self.a == 0:
            return _entries_close(self._ladder[0], 0, self.x.backend, self.tol)
        total = _geometric_sum(self._x, self.n, self._root, self._ladder[1])
        return _entries_close(total, 0, self.x.backend, self.tol)

    @_lazy
    def _square(self) -> tuple:  # a float X^2 is the ladder's, the same product
        if self.x.backend == RATIONAL:
            return _float_square(self._x)
        return self._x.array, self._ladder[1][1], self.x.backend

    @_lazy
    def _firsts(self) -> range:  # the first index of each chunk of quadratics
        return _quadratic_chunks(self.n, self.x.array.size)

    @_lazy
    def _chunk_zeros(self) -> dict:  # first -> _quadratic_zeros(first), shared by its readers
        return {}

    def _quadratic_zeros(self, first: int):
        """Whether each quadratic of the chunk from ``first`` vanishes, per matrix."""
        if first not in self._chunk_zeros:
            values = _quadratics(self._square, self.n, self.a, first, first + self._firsts.step)
            self._chunk_zeros[first] = _entries_close(values, 0, self._square[2], self.tol)
        return self._chunk_zeros[first]

    def zero_quadratics(self) -> Iterator[int]:
        """The indices i whose quadratic factor vanishes at one matrix X, in order."""
        return (first + int(j) for first in self._firsts
                for j in np.flatnonzero(self._quadratic_zeros(first)))

    def _settle(self, open_, clause):
        """open_ less the matrices at which clause() is true.  clause runs only
        while some matrix is open, and then on the whole stack."""
        if isinstance(open_, bool):  # one matrix
            return open_ and not clause()
        return open_ & ~clause() if open_.any() else open_

    @_lazy
    def holds(self):
        open_ = self.equation  # the roots whose implication is not settled yet
        if self.sentence == 1:
            open_ = self._settle(open_, lambda: self.simple_root)
            open_ = self._settle(open_, lambda: self.factor_sum_zero)
        else:
            for first in self._firsts:
                open_ = self._settle(open_, lambda: self._quadratic_zeros(first).any(axis=0))
        return not open_ if isinstance(open_, bool) else ~open_


def evaluate(x: Matrix, inst, tol: Tolerance = DEFAULT_TOLERANCE) -> Clauses:
    """The clauses at x of the sentence that applies to ``inst``, a
    ProblemInstance or a Witness: sentence 2 when a < 0 and n is even, else
    sentence 1 with the real root, or with the principal root on x lifted to
    the complex backend when a is complex (the complex variant of sentence 1).
    A real a is checked at unit scale, as its int sign (see the module
    docstring).  x may be a (m, k, k) stack, and each clause then has one
    value per matrix.  k and n must be ints or numpy integers >= 2."""
    n, a = _check_n(inst.n), inst.a
    if x.order != _checked_int("k", inst.k, 2):
        raise DimensionMismatch(f"matrix order {x.order} != k = {inst.k}")
    if isinstance(a, (complex, np.complexfloating)):  # np.complex64 is no complex, yet orders
        return Clauses(as_backend(x, COMPLEX), n, complex(a), 1, tol)
    if a != 0 and abs(a) != 1:
        x = _scale(x, n, a, -1)  # scale_to_unit, with n checked above
    a = 1 if a > 0 else -1 if a < 0 else 0  # not (a > 0) - (a < 0): numpy bools do not subtract
    return Clauses(x, n, a, _sentence(n, a), tol)


def sentence1_holds_for(x: Matrix, inst: ProblemInstance,
                        tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
    """Truth value, at the single matrix x, of the implication

        X^n = a*I and X != a^(1/n)*I  =>  geometric factor sum of X is O.
    """
    _require(inst, 1)
    return evaluate(x, inst, tol).holds


def sentence2_holds_for(x: Matrix, inst: ProblemInstance,
                        tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
    """Truth value, at the single matrix x, of the implication

        X^n = a*I  =>  some quadratic factor of X^n - a*I vanishes at X

    with the existential checked exhaustively over all n/2 factor indices.
    """
    _require(inst, 2)
    return evaluate(x, inst, tol).holds


# The unit witnesses of the 256 latest (tag, k, n) with k^2 <= _RETAINED_ENTRIES,
# about 2 MB at most: a witness is immutable, so every decide may share it.  An
# exact one keeps its float64 form too, which a scale with no rational n-th root
# lifts (cases i and ii at most |a|): about 2 MB more.
_unit_witness = lru_cache(maxsize=256)(construct)
_unit_floats = lru_cache(maxsize=256)(
    lambda tag, k, n: as_backend(_unit_witness(tag, k, n).matrix, REAL))
_RETAINED_ENTRIES = 1024


def _witness(inst: ProblemInstance, tag) -> Witness:
    """The refuted cell's witness of family tag: a nilpotent shift, or a unit case lifted to |a|."""
    k, n, a = inst.k, inst.n, inst.a
    retained = k * k <= _RETAINED_ENTRIES
    w = (_unit_witness if retained else construct)(tag, k, n)
    if a == 0:
        return w
    floats = (lambda: _unit_floats(tag, k, n)) if retained else None
    matrix = w.matrix if abs(a) == 1 else _scale(w.matrix, n, a, 1, floats)
    return Witness(matrix, tag, k, n, a, w.refutes_sentence)


def decide(inst: ProblemInstance, tol: Tolerance = DEFAULT_TOLERANCE) -> Verdict:
    """Decide the applicable sentence for (k, n, a) in closed form.

    Failing verdicts carry the witness of the family ``_refuting_tag`` names,
    re-verified through ``verify_witness``.  Quarantined cells (see module
    docstring) return holds=False with quarantined=True and no witness.  A float
    witness that fails re-verification, as rounding makes X^n drift from aI at
    odd n beyond about 10^8, raises ValueError.
    """
    tag = _refuting_tag(inst.k, inst.n, inst.a)
    if tag is None:
        if is_quarantined(inst):
            return Verdict(holds=False, mode=VerdictMode.CLOSED_FORM, quarantined=True)
        vacuous = _no_real_root(inst)
        return Verdict(holds=True, mode=VerdictMode.VACUOUS if vacuous else VerdictMode.CLOSED_FORM)
    w = _witness(inst, tag)
    if not verify_witness(w, tol):
        if w.matrix.backend == RATIONAL:  # exact: only a bug gets here
            raise RuntimeError(f"witness failed re-verification for {inst}")
        raise ValueError(f"the float {tag.value} witness at k = {inst.k}, n = {inst.n}, "
                         f"a = {inst.a} fails re-verification at absolute tolerance "
                         f"{tol.absolute}, relative {tol.relative}")
    return Verdict(holds=False, mode=VerdictMode.CLOSED_FORM, witness=w)


# --- randomized cross-checking search ----------------------------------------


# Candidates are built and checked a chunk at a time: a probe of _FIRST_CHUNK
# where the closed form expects a violator, so an early one costs few spares;
# else, and after it, full chunks of _MAX_CHUNK, as a chunk's set-up costs much
# the same at any size; the memory a chunk holds does not grow with the budget.
_FIRST_CHUNK = 4
_MAX_CHUNK = 64


def _shears_from_uniforms(u: np.ndarray, k: int):
    """The shears of each row of u, three uniforms in [0, 1) per shear: its
    coefficient, +-1, then i and j."""
    u = u.reshape(len(u), -1, 3)
    return _SIGNS[(u[..., 0] * 2).astype(np.intp)], (u[..., 1:] * k).astype(np.intp)


def _sheared(arr: np.ndarray, coeffs: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """A copy of the (m, k, k) float stack arr with each matrix r conjugated
    by its own shears I + coeffs[r, s] * E[pairs[r, s]], in order s.  Every
    shear runs on the whole stack, with c = 0 where i = j: all row operations
    (row i += c * row j), then all column operations (column j -= c * column
    i) as rows of the transpose, since left and right products commute."""
    m, k = arr.shape[:2]
    at = np.arange(m)[:, None] * k  # matrix r's row i is row r * k + i of a (m * k, k) view
    ri, rj = (pairs[..., 0] + at).T, (pairs[..., 1] + at).T
    c = (coeffs * (pairs[..., 0] != pairs[..., 1])).T[:, :, None]
    a = arr.reshape(m * k, k).copy()
    for _ in range(2):  # rows, then columns; each pass ends with a transpose
        for s in range(len(c)):
            a[ri[s]] = a.take(ri[s], 0) + c[s] * a.take(rj[s], 0)
        a = a.reshape(m, k, k).transpose(0, 2, 1).copy().reshape(m * k, k)
        ri, rj, c = rj, ri, -c
    return a.reshape(m, k, k)


class _Candidates:
    """The seed-deterministic candidate stream of ``generate_candidates``,
    built a chunk at a time (``first``, then 64) as one (m, k, k) stack from
    one ``rng.random((m, width))`` call: row i of it, alone, makes candidate
    i, so the chunk sizes do not move the stream.

    A candidate is a block direct sum.  Block t draws its order from u[t]
    and its pick from u[k + t]; it starts at the sum of the orders before it
    (one prefix sum per row), and the blocks that start before k are kept,
    the last cut to end at k.  For a = 0 a block is a superdiagonal shift of
    order 1 + floor(u[t] * n), so X^n = 0; an order is capped at k + 1
    before its int cast, which moves no cut block, and no factor table is
    read.  Otherwise it is a factor of x^n - sign(a) in ``unit_factors``:
    a 1 x 1 real root where the table has no quadratic or has roots and
    u[t] < 0.4, else the 2 x 2 block of a real quadratic.  When a < 0, n is
    even and k is odd, no such sum exists (the determinant obstruction), so
    the last block, cut to 1 x 1, is a +-1 pad: the candidate deliberately
    violates X^n = a*I.  A real sum is conjugated
    at unit scale by its shears, 3 uniforms each, from u[2k:]; then the sum
    is scaled by |a|^(1/n).

    The backend is fixed per cell: rational when a = 0, or when the table has
    no quadratic factor and |a|^(1/n) is rational, so every candidate stays
    exact; real otherwise.  An exact sum is not sheared (see ``width``).  Every
    unit-scale stack is built on float64: an exact one holds only 0 and +-1, the
    float64 carrier of ``core._carried``, and is scaled, on Python ints, only
    where |a| is not 0 or 1.
    """

    def __init__(self, inst: ProblemInstance, seed: int, first: int = _FIRST_CHUNK) -> None:
        k, n, a = self.k, self.n, self.a = inst.k, inst.n, inst.a
        self.rng, self.first = np.random.default_rng(seed), first
        self.zero = a == 0  # shifts read no factor table
        self.roots, self.quads = ((), ()) if self.zero else unit_factors(n, 1 if a > 0 else -1)
        exact = self.zero or (not len(self.quads) and _exact_root(abs(a), n) is not None)
        self.backend = RATIONAL if exact else REAL
        # An exact row keeps the width of its shears, which go unread, so
        # candidate i keeps its block draws.  Every clause is p(X) = 0 for some
        # p (X - rI, X^n - aI, a factor of x^n - a), and for an integer
        # unimodular P, p(P X P^-1) = P p(X) P^-1 is zero exactly when p(X) is:
        # compared exactly, a shear moves no clause, verdict or trials.
        self.width = 2 * k + 3 * (_RATIONAL_SHEARS_PER_ORDER * k if exact else _FLOAT_SHEARS)

    def _fill(self, arr: np.ndarray, u: np.ndarray) -> None:
        """Write the block sum of each row of u into the zero stack arr."""
        k, n, roots, quads = self.k, self.n, self.roots, self.quads
        draws = u[:, :k]
        order = (1 + np.minimum(draws * n, k).astype(np.intp) if self.zero
                 else np.where(bool(len(quads)) & ~(bool(roots) & (draws < 0.4)), 2, 1))
        first = np.cumsum(order, axis=1) - order  # block t starts where those before it end
        rows, t = np.nonzero(first < k)
        at, pick = first[rows, t], u[rows, k + t]
        size = np.minimum(order[rows, t], k - at)  # the last block of a row ends at k
        if self.zero:  # ones on the superdiagonal, but where a block ends
            diag, end = np.arange(k - 1), at + size
            arr[:, diag, diag + 1] = 1
            arr[rows[end < k], end[end < k] - 1, end[end < k]] = 0
            return
        one, two = size == 1, size == 2
        pool = np.array(roots or (1, -1))
        arr[rows[one], at[one], at[one]] = pool[(pick[one] * len(pool)).astype(np.intp)]
        at, quads = at[two][:, None, None], quads[(pick[two] * len(quads)).astype(np.intp)]
        arr[rows[two][:, None, None], at + [[0], [1]], at + [[0, 1]]] = quads

    def chunks(self, count: int) -> Iterator[Matrix]:
        """Yield the first ``count`` candidates as stacks of ``first``, then
        64, 64, ... matrices (the last holds what is left), each conjugated
        at unit scale if real, then scaled where |a| is not 0 or 1."""
        k, backend, size = self.k, self.backend, self.first
        while count > 0:
            size = min(size, count)
            u = self.rng.random((size, self.width))
            arr = np.zeros((size, k, k))
            self._fill(arr, u)
            if backend == REAL:
                arr = _sheared(arr, *_shears_from_uniforms(u[:, 2 * k :], k))
            stack = Matrix._wrap(arr, backend)
            if abs(self.a) not in (0, 1):  # unit-scale stacks are evaluated as built
                stack = scale_from_unit(_uncarried(stack), self.n, self.a)
            yield stack
            count, size = count - size, _MAX_CHUNK


def generate_candidates(inst: ProblemInstance, count: int, seed: int) -> Iterator[Matrix]:
    """Yield `count` seed-deterministic candidate roots of a*I.

    Candidates are direct sums of shifts (a = 0) or of the factor blocks of
    x^n - sign(a) (every real root of a*I is similar to one), on the real
    backend conjugated by random unimodular integer shears; an exact sum is
    yielded as built, since such a similarity moves no exact clause.  Raw
    random matrices would essentially never satisfy X^n = a*I.
    For |a| not in {0, 1} the unit-case candidate is scaled by |a|^(1/n).
    They are built in chunks of 4, then 64 candidates, one stack of one
    backend and one generator call per chunk, and yielded row by row, with
    Python int entries on the rational backend; candidate i of a seed is the
    same matrix whatever ``count`` is.  count is an int >= 1 and seed an
    int >= 0, checked at the call, before anything is drawn.
    """
    count, seed = _checked_int("count", count, 1), _checked_int("seed", seed, 0)
    stacks = map(_uncarried, _Candidates(inst, seed).chunks(count))
    return (Matrix._wrap(row, stack.backend) for stack in stacks for row in stack.array)


def search_counterexample(
    inst: ProblemInstance, budget: int, seed: int, tol: Tolerance = DEFAULT_TOLERANCE
) -> Verdict:
    """Try up to `budget` random candidates against the applicable sentence.

    Returns WitnessFound with the first violator in seed order, else
    SearchExhausted with trials = budget.  Exhaustion is evidence, not proof:
    the closed-form predicates remain the authority.  The candidates of
    ``generate_candidates(inst, budget, seed)`` are checked a chunk at a
    time, each chunk's stack by one ``evaluate``; ``trials`` is the stream
    index of the violator plus one, as if they were checked one by one.
    The first chunk is a probe of 4 where the closed form expects a violator
    and full elsewhere: that moves the cost, never a candidate or ``trials``.
    Where no real root of a*I exists (``minus_identity_root_exists``), it
    draws nothing and reports SearchExhausted at once.  budget is an int >= 1
    and seed an int >= 0.
    """
    budget, seed = _checked_int("budget", budget, 1), _checked_int("seed", seed, 0)
    if _no_real_root(inst):
        return Verdict(holds=True, mode=VerdictMode.SEARCH_EXHAUSTED, trials=budget)
    first = 0
    plan = _MAX_CHUNK if _refuting_tag(inst.k, inst.n, inst.a) is None else _FIRST_CHUNK
    for stack in _Candidates(inst, seed, plan).chunks(budget):
        clauses = evaluate(stack, inst, tol)
        bad = np.flatnonzero(~clauses.holds)
        if bad.size:
            matrix = _uncarried(Matrix._wrap(stack.array[bad[0]], stack.backend))
            w = Witness(matrix, None, inst.k, inst.n, inst.a, refutes_sentence=clauses.sentence)
            return Verdict(False, VerdictMode.WITNESS_FOUND, w, trials=first + int(bad[0]) + 1)
        first += len(stack.array)
    return Verdict(holds=True, mode=VerdictMode.SEARCH_EXHAUSTED, trials=budget)


def verify_witness(w: Witness, tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
    """Independently re-check what a witness claims.

    For refuting witnesses: the applicable sentence must evaluate to False
    at the matrix.  For non-refuting ones: the defining equation
    X^n = a*I must hold.  Complex-scalar witnesses are checked against the
    complex variant of sentence 1 (principal root convention).
    """
    clauses = evaluate(w.matrix, w, tol)
    if w.refutes_sentence is None:
        return clauses.equation
    if w.refutes_sentence != clauses.sentence:
        raise ApplicabilityError(_NOT_APPLICABLE[w.refutes_sentence])
    return not clauses.holds
