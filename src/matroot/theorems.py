"""Closed-form decision procedures and the empirical search harness.

Two universally quantified sentences about real k x k matrices are decided
in closed form:

* sentence 1 (a > 0, a = 0, or a < 0 with n odd):
      X^n = a*I and X != a^(1/n)*I  imply  the geometric factor sum is O.
  True exactly when (a != 0, k = 2, n odd) or (a = 0 and n >= k + 1).

* sentence 2 (a < 0, n even):
      X^n = a*I  implies  some quadratic factor of X^n - a*I vanishes at X.
  True exactly when k is odd (vacuously: no real root of a*I exists, by a
  determinant parity argument) or k is even with n = 2.

``evaluate`` gives both sentences' clause values at a single matrix, or at
each matrix of a stack; the sentence predicates, ``verify_witness``, the
search and the command line all read it.
It is also the one place that knows the scale.  Both sentences are invariant
under X -> |a|^(-1/n) X, so a real a outside {0, 1, -1} is evaluated at unit
scale, as scale_to_unit(X) against sign(a), and every tolerance applies at
|a| = 1.  A complex a is evaluated at its own scale.

Every "false" verdict carries a concrete witness that is re-verified before
being returned.  A budget-bounded randomized search over structured block
direct sums (the real ones conjugated by random unimodular shears)
cross-checks the closed forms, a stacked chunk of candidates at a time; it
reports SearchExhausted rather than claiming proof.

Quarantine: for k = 2, n >= 4, a < 0 even-n the closed form above says
"false", yet every 2 x 2 real root of a*I is a single scaled rotation block
and satisfies its own characteristic quadratic, so no counterexample can
exist.  Verdicts for those cells are flagged ``quarantined`` and carry no
witness; callers must treat the cell as unresolved rather than trusting
either answer.
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
    _entries_close,
    _is_scalar,
    _on_int64,
    _pow_ladder,
    as_backend,
)
from .factors import (
    RootConvention, _check_n, _float_square, _geometric_sum, _lift_for_root, _quadratics,
    _unit_convention, unit_factors,
)
from .constructions import (
    CASE_AT,
    CaseTag,
    Witness,
    _FLOAT_SHEARS,
    _RATIONAL_SHEARS_PER_ORDER,
    _SIGNS,
    _checked_int,
    _exact_root,
    construct,
    scale_from_unit,
    scale_to_unit,
    witness_to_json,
)
from .instances import ApplicabilityError, ProblemInstance, Regime, classify_regime

__all__ = [
    "ApplicabilityError",
    "ProblemInstance",
    "Regime",
    "Verdict",
    "VerdictMode",
    "classify_regime",
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


def theorem1_holds(inst: ProblemInstance) -> bool:
    """Closed form for sentence 1: (a != 0, k = 2, n odd) or (a = 0, n >= k+1)."""
    if not inst.sentence1_applicable:
        raise ApplicabilityError(_NOT_APPLICABLE[1])
    if inst.a == 0:
        return inst.n >= inst.k + 1
    return inst.k == 2 and inst.n % 2 == 1


def theorem2_holds(inst: ProblemInstance) -> bool:
    """Closed form for sentence 2: k odd, or k even with n = 2."""
    if not inst.sentence2_applicable:
        raise ApplicabilityError(_NOT_APPLICABLE[2])
    return inst.k % 2 == 1 or inst.n == 2


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


def is_quarantined(inst: ProblemInstance) -> bool:
    """The k = 2, n >= 4, negative-even cells where the closed form and the
    empirical behaviour disagree (see module docstring)."""
    return inst.regime is Regime.NEGATIVE_EVEN_N and inst.k == 2 and inst.n >= 4


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
    linear factor, so its ``simple_root`` is False."""

    def __init__(self, x: Matrix, n: int, a, sentence: int, tol: Tolerance) -> None:
        self.x, self.n, self.a, self.sentence, self.tol = x, n, a, sentence, tol

    @_lazy
    def conv(self) -> RootConvention:
        if isinstance(self.a, complex):
            return RootConvention.principal(self.n, self.a)
        return _unit_convention(self.n, int(self.a))  # evaluate leaves a real a in {0, 1, -1}

    @_lazy
    def _ladder(self) -> tuple:  # X^e and the squares that formed it; e = n, or n - 1 at a = 0
        return _pow_ladder(self.x, self.n - 1 if self.a == 0 else self.n)

    @_lazy
    def equation(self):
        power, backend = self._ladder[0], self.x.backend
        if self.a == 0:
            # share the power: X^n = X * X^(n-1), and the factor sum is X^(n-1)
            return _entries_close(self.x.array @ power, 0, backend, self.tol)
        return _is_scalar(power, backend, self.a, self.tol)

    @_lazy
    def simple_root(self):
        if self.a == 0:
            return _entries_close(self.x.array, 0, self.x.backend, self.tol)
        if self.sentence == 2:  # no real linear factor
            return False if self.x.array.ndim == 2 else np.zeros(len(self.x.array), bool)
        x, root = _lift_for_root(self.x, self.conv)
        return _is_scalar(x.array, x.backend, root, self.tol)

    @_lazy
    def factor_sum_zero(self):
        if self.a == 0:
            return _entries_close(self._ladder[0], 0, self.x.backend, self.tol)
        x, c = _lift_for_root(self.x, self.conv)  # x itself: evaluate put it on c's backend
        return _entries_close(_geometric_sum(x, self.n, c, self._ladder[1]), 0, x.backend, self.tol)

    @_lazy
    def _square(self) -> tuple:  # a float X^2 is the ladder's, the same product
        if self.x.backend == RATIONAL:
            return _float_square(self.x)
        return self.x.array, self._ladder[1][1], self.x.backend

    @_lazy
    def _firsts(self) -> range:  # the first index of each chunk of _QUADRATIC_ENTRIES entries
        return range(1, self.n // 2 + 1, max(1, _QUADRATIC_ENTRIES // self.x.array.size))

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
    sentence 1 with the real root convention, or with the principal root on
    x lifted to the complex backend when a is complex (the complex variant of
    sentence 1); at unit scale for a real a outside {0, 1, -1} (see the
    module docstring).  x may be a (m, k, k) stack, and each clause then has
    one value per matrix.  k and n must be at least 2."""
    _check_n(inst.n)
    _checked_int("k", inst.k, 2)
    if x.order != inst.k:
        raise DimensionMismatch(f"matrix order {x.order} != k = {inst.k}")
    n, a, real = inst.n, inst.a, not isinstance(inst.a, complex)
    if not real:
        x = as_backend(x, COMPLEX)
    elif a != 0 and abs(a) != 1:
        x, a = scale_to_unit(x, n, a), (1 if a > 0 else -1)
    return Clauses(_on_int64(x, n), n, a, 2 if real and a < 0 and n % 2 == 0 else 1, tol)


def sentence1_holds_for(x: Matrix, inst: ProblemInstance,
                        tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
    """Truth value, at the single matrix x, of the implication

        X^n = a*I and X != a^(1/n)*I  =>  geometric factor sum of X is O.
    """
    if not inst.sentence1_applicable:
        raise ApplicabilityError(_NOT_APPLICABLE[1])
    return evaluate(x, inst, tol).holds


def sentence2_holds_for(x: Matrix, inst: ProblemInstance,
                        tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
    """Truth value, at the single matrix x, of the implication

        X^n = a*I  =>  some quadratic factor of X^n - a*I vanishes at X

    with the existential checked exhaustively over all n/2 factor indices.
    """
    if not inst.sentence2_applicable:
        raise ApplicabilityError(_NOT_APPLICABLE[2])
    return evaluate(x, inst, tol).holds


# The unit witnesses of the 256 latest (tag, k, n) with k^2 <= _RETAINED_ENTRIES,
# about 2 MB at most: a witness is immutable, so every decide may share it.
_unit_witness = lru_cache(maxsize=256)(construct)
_RETAINED_ENTRIES = 1024


def _witness(inst: ProblemInstance) -> Witness:
    """The refuted cell's witness: a nilpotent shift, or a unit case lifted to |a|."""
    k, n, a = inst.k, inst.n, inst.a
    build = _unit_witness if k * k <= _RETAINED_ENTRIES else construct
    if a == 0:
        return build(CaseTag.NILPOTENT_SHIFT, k, n)
    if inst.regime is Regime.NEGATIVE_EVEN_N:
        w = build(CaseTag.THEOREM2_CE, k, n)
    else:
        w = build(CASE_AT[n % 2, k % 2, 1 if a > 0 else -1], k, n)
    matrix = w.matrix if abs(a) == 1 else scale_from_unit(w.matrix, n, a)
    return Witness(matrix, w.tag, k, n, a, w.refutes_sentence)


def _closed_form_holds(inst: ProblemInstance) -> bool:
    """Whether the closed form rules out a counterexample at (k, n, a): the
    theorem of its regime holds, or the cell is quarantined."""
    if inst.regime is Regime.NEGATIVE_EVEN_N:
        return theorem2_holds(inst) or is_quarantined(inst)
    return theorem1_holds(inst)


def decide(inst: ProblemInstance, tol: Tolerance = DEFAULT_TOLERANCE) -> Verdict:
    """Decide the applicable sentence for (k, n, a) in closed form.

    Failing verdicts carry the deterministic witness, re-verified through
    ``verify_witness``.  Quarantined cells (see module docstring) return
    holds=False with quarantined=True and no witness.
    """
    if is_quarantined(inst):
        return Verdict(holds=False, mode=VerdictMode.CLOSED_FORM, quarantined=True)
    if _closed_form_holds(inst):
        vacuous = inst.regime is Regime.NEGATIVE_EVEN_N and inst.k % 2 == 1
        return Verdict(holds=True, mode=VerdictMode.VACUOUS if vacuous else VerdictMode.CLOSED_FORM)
    w = _witness(inst)
    if not verify_witness(w, tol):
        raise RuntimeError(f"witness failed re-verification for {inst}")
    return Verdict(holds=False, mode=VerdictMode.CLOSED_FORM, witness=w)


# --- randomized cross-checking search ----------------------------------------


# Candidates are built and checked a chunk at a time: a probe of _FIRST_CHUNK
# where the closed form expects a violator, so an early one costs few spares;
# else, and after it, full chunks of _MAX_CHUNK, as a chunk's set-up costs much
# the same at any size; the memory a chunk holds does not grow with the budget.
_FIRST_CHUNK = 4
_MAX_CHUNK = 64
_QUADRATIC_ENTRIES = 2**14  # at most, in one chunk of sentence 2's quadratic factors


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
    order 1 + floor(u[t] * n), so X^n = 0.  Otherwise it is a factor of
    x^n - sign(a) in ``unit_factors``: a 1 x 1 real root where the table has
    no quadratic or has roots and u[t] < 0.4, else the 2 x 2 block of a real
    quadratic.  When a < 0, n is even and k is odd, no such sum exists (the
    determinant obstruction), so the last block, cut to 1 x 1, is a +-1 pad:
    the candidate deliberately violates X^n = a*I.  A real sum is conjugated
    at unit scale by its shears, 3 uniforms each, from u[2k:]; then the sum
    is scaled by |a|^(1/n).

    The backend is fixed per cell: rational when a = 0, or when the table has
    no quadratic factor and |a|^(1/n) is rational, so every candidate stays
    exact; real otherwise.  An exact sum is not sheared (see ``width``).  The
    unit-scale stack is int64 (see ``core``) or float, and is scaled, on
    Python ints if exact, only where |a| is not 0 or 1.
    """

    def __init__(self, inst: ProblemInstance, seed: int, first: int = _FIRST_CHUNK) -> None:
        k, n, a = self.k, self.n, self.a = inst.k, inst.n, inst.a
        self.rng, self.first = np.random.default_rng(seed), first
        self.zero = inst.regime is Regime.ZERO_A
        self.roots, self.quads = unit_factors(n, 1 if a > 0 else -1)
        exact = self.zero or (not len(self.quads) and _exact_root(abs(a), n) is not None)
        self.backend = RATIONAL if exact else REAL
        self.dtype = np.int64 if exact else float
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
        order = (1 + (draws * n).astype(np.intp) if self.zero
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
        pool = np.array(roots or (1, -1), dtype=arr.dtype)
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
            arr = np.zeros((size, k, k), self.dtype)
            self._fill(arr, u)
            if backend == REAL:
                arr = _sheared(arr, *_shears_from_uniforms(u[:, 2 * k :], k))
            stack = Matrix._wrap(arr, backend)
            if abs(self.a) not in (0, 1):  # unit-scale stacks are evaluated as built
                stack = scale_from_unit(_public(stack), self.n, self.a)
            yield stack
            count, size = count - size, _MAX_CHUNK


def _row(stack: Matrix, r: int) -> Matrix:
    return Matrix._wrap(stack.array[r], stack.backend)


def _public(stack: Matrix) -> Matrix:
    """The stack with int64 entries as Python ints, as a public Matrix holds them."""
    arr = stack.array
    return Matrix._wrap(arr.astype(object), stack.backend) if arr.dtype == np.int64 else stack


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
    stacks = map(_public, _Candidates(inst, seed).chunks(count))
    return (_row(stack, r) for stack in stacks for r in range(len(stack.array)))


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
    if inst.regime is Regime.NEGATIVE_EVEN_N and not minus_identity_root_exists(inst.k, inst.n):
        return Verdict(holds=True, mode=VerdictMode.SEARCH_EXHAUSTED, trials=budget)
    first = 0
    plan = _MAX_CHUNK if _closed_form_holds(inst) else _FIRST_CHUNK
    for stack in _Candidates(inst, seed, plan).chunks(budget):
        clauses = evaluate(stack, inst, tol)
        bad = np.flatnonzero(~clauses.holds)
        if bad.size:
            matrix = _public(_row(stack, bad[0]))
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
