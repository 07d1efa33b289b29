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
direct sums (conjugated by random unimodular shears) cross-checks the
closed forms, a stacked chunk of candidates at a time; it reports
SearchExhausted rather than claiming proof.

Quarantine: for k = 2, n >= 4, a < 0 even-n the closed form above says
"false", yet every 2 x 2 real root of a*I is a single scaled rotation block
and satisfies its own characteristic quadratic, so no counterexample can
exist.  Verdicts for those cells are flagged ``quarantined`` and carry no
witness; callers must treat the cell as unresolved rather than trusting
either answer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterator, Optional

import numpy as np

from .core import (
    DEFAULT_TOLERANCE,
    RATIONAL,
    REAL,
    DimensionMismatch,
    Matrix,
    Tolerance,
    _is_scalar,
    is_zero,
    mat_mul,
    mat_pow,
    rotation,
)
from .factors import (
    RootConvention, _lift_for_root, exact_nth_root, geometric_factor_sum,
    quadratic_factor_eval,
)
from .constructions import (
    CaseTag,
    Witness,
    _shear_draws,
    _sheared,
    case_counterexample,
    scale_from_unit,
    scale_to_unit,
    shift_nilpotent,
    theorem2_counterexample,
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
    runs only on the matrices that satisfy X^n = aI and are not simple
    roots, and sentence 2 stops at each matrix's first vanishing quadratic.
    Sentence 2 has no real linear factor, so its ``simple_root`` is False."""

    def __init__(self, x: Matrix, n: int, a, sentence: int, tol: Tolerance) -> None:
        self.x, self.n, self.a, self.sentence, self.tol = x, n, a, sentence, tol

    @_lazy
    def conv(self) -> RootConvention:
        if isinstance(self.a, complex):
            return RootConvention.principal(self.n, self.a)
        return RootConvention.real(self.n, self.a)

    @_lazy
    def _tail(self) -> Matrix:
        return mat_pow(self.x, self.n - 1)

    @_lazy
    def equation(self):
        x = self.x
        if self.a == 0:
            # share the power: X^n = X * X^(n-1), and the factor sum is X^(n-1)
            return is_zero(mat_mul(x, self._tail), self.tol)
        return _is_scalar(mat_pow(x, self.n), self.a, self.tol)

    @_lazy
    def simple_root(self):
        if self.a == 0:
            return is_zero(self.x, self.tol)
        if self.sentence == 2:  # no real linear factor
            return False if self.x.array.ndim == 2 else np.zeros(len(self.x.array), bool)
        x, root = _lift_for_root(self.x, self.conv)
        return _is_scalar(x, root, self.tol)

    @_lazy
    def factor_sum_zero(self):
        if self.a == 0:
            return is_zero(self._tail, self.tol)
        return is_zero(geometric_factor_sum(self.x, self.n, self.conv), self.tol)

    def _quadratic_zero(self, i: int):
        return is_zero(quadratic_factor_eval(self.x, self.n, self.a, i), self.tol)

    def zero_quadratics(self) -> Iterator[int]:
        """The indices i whose quadratic factor vanishes at one matrix X, in order."""
        for i in range(1, self.n // 2 + 1):
            if self._quadratic_zero(i):
                yield i

    def _settle(self, open_, clause):
        """open_ less the matrices at which clause(c) is true.  clause runs only
        on the matrices marked open: c is self when all of them are, else the
        Clauses of just the open ones."""
        if isinstance(open_, bool):  # one matrix
            return open_ and not clause(self)
        if open_.all():
            return ~clause(self)
        if open_.any():
            x = Matrix._wrap(self.x.array[open_], self.x.backend)
            open_ = open_.copy()
            open_[open_] = ~clause(Clauses(x, self.n, self.a, self.sentence, self.tol))
        return open_

    @_lazy
    def holds(self):
        open_ = self.equation  # the roots whose implication is not settled yet
        if self.sentence == 1:
            open_ = self._settle(open_, lambda c: c.simple_root)
            open_ = self._settle(open_, lambda c: c.factor_sum_zero)
        else:
            for i in range(1, self.n // 2 + 1):
                open_ = self._settle(open_, lambda c: c._quadratic_zero(i))
        return not open_ if isinstance(open_, bool) else ~open_


def evaluate(x: Matrix, inst, tol: Tolerance = DEFAULT_TOLERANCE) -> Clauses:
    """The clauses at x of the sentence that applies to ``inst``, a
    ProblemInstance or a Witness: sentence 2 when a < 0 and n is even, else
    sentence 1 with the real root convention, or with the principal root
    when a is complex (the complex variant of sentence 1); at unit scale for
    a real a outside {0, 1, -1} (see the module docstring).  x may be a
    (m, k, k) stack, and each clause then has one value per matrix."""
    if x.order != inst.k:
        raise DimensionMismatch(f"matrix order {x.order} != k = {inst.k}")
    n, a, real = inst.n, inst.a, not isinstance(inst.a, complex)
    if real and a != 0 and abs(a) != 1:
        x, a = scale_to_unit(x, n, a), (1 if a > 0 else -1)
    return Clauses(x, n, a, 2 if real and a < 0 and n % 2 == 0 else 1, tol)


def sentence1_holds_for(
    x: Matrix, inst: ProblemInstance, tol: Tolerance = DEFAULT_TOLERANCE
) -> bool:
    """Truth value, at the single matrix x, of the implication

        X^n = a*I and X != a^(1/n)*I  =>  geometric factor sum of X is O.
    """
    if not inst.sentence1_applicable:
        raise ApplicabilityError(_NOT_APPLICABLE[1])
    return evaluate(x, inst, tol).holds


def sentence2_holds_for(
    x: Matrix, inst: ProblemInstance, tol: Tolerance = DEFAULT_TOLERANCE
) -> bool:
    """Truth value, at the single matrix x, of the implication

        X^n = a*I  =>  some quadratic factor of X^n - a*I vanishes at X

    with the existential checked exhaustively over all n/2 factor indices.
    """
    if not inst.sentence2_applicable:
        raise ApplicabilityError(_NOT_APPLICABLE[2])
    return evaluate(x, inst, tol).holds


def _unit_case_tag(inst: ProblemInstance) -> CaseTag:
    if inst.a > 0:
        if inst.n % 2 == 0:
            return CaseTag.CASE_I if inst.k % 2 == 0 else CaseTag.CASE_II
        return CaseTag.CASE_III if inst.k % 2 == 0 else CaseTag.CASE_IV
    return CaseTag.CASE_V if inst.k % 2 == 0 else CaseTag.CASE_VI


def _witness(inst: ProblemInstance) -> Witness:
    """The refuted cell's witness: a nilpotent shift, or a unit case lifted to |a|."""
    k, n, a = inst.k, inst.n, inst.a
    if a == 0:
        shift = shift_nilpotent(k, n)
        return Witness(shift, CaseTag.NILPOTENT_SHIFT, k, n, a=0, refutes_sentence=1)
    if inst.regime is Regime.NEGATIVE_EVEN_N:
        w = theorem2_counterexample(k, n)
    else:
        w = case_counterexample(_unit_case_tag(inst), k, n)
    matrix = w.matrix if abs(a) == 1 else scale_from_unit(w.matrix, n, a)
    return replace(w, matrix=matrix, a=a)


def decide(inst: ProblemInstance, tol: Tolerance = DEFAULT_TOLERANCE) -> Verdict:
    """Decide the applicable sentence for (k, n, a) in closed form.

    Failing verdicts carry the deterministic witness, re-verified through
    ``verify_witness``.  Quarantined cells (see module docstring) return
    holds=False with quarantined=True and no witness.
    """
    if is_quarantined(inst):
        return Verdict(holds=False, mode=VerdictMode.CLOSED_FORM, quarantined=True)
    if inst.regime is Regime.NEGATIVE_EVEN_N:
        if theorem2_holds(inst):
            mode = VerdictMode.VACUOUS if inst.k % 2 == 1 else VerdictMode.CLOSED_FORM
            return Verdict(holds=True, mode=mode)
    elif theorem1_holds(inst):
        return Verdict(holds=True, mode=VerdictMode.CLOSED_FORM)
    w = _witness(inst)
    if not verify_witness(w, tol):
        raise RuntimeError(f"witness failed re-verification for {inst}")
    return Verdict(holds=False, mode=VerdictMode.CLOSED_FORM, witness=w)


# --- randomized cross-checking search ----------------------------------------


# Candidates are built and checked a chunk at a time: 4, 8, 16, ... up to
# _MAX_CHUNK, so an early violator costs few spare candidates and the memory
# a chunk holds does not grow with the budget.
_FIRST_CHUNK = 4
_MAX_CHUNK = 64


class _Candidates:
    """The seed-deterministic candidate stream of ``generate_candidates``,
    built a chunk at a time as one (m, k, k) stack per backend.

    A candidate is a block direct sum.  For a = 0 its blocks are
    first-superdiagonal shifts of order at most n, so X^n = 0.  Otherwise
    they are scalars s with s^n = sign(a) and 2 x 2 blocks: rotation(2*pi*w/n)
    for a > 0, -rotation(2*pi*w/n) for a < 0 with odd n, and
    rotation((2j-1)*pi/n) for a < 0 with even n; then the sum is scaled by
    |a|^(1/n).  When a < 0, n is even and k is odd, no such sum exists (the
    determinant obstruction), so one +-1 scalar pad is inserted and the
    candidate deliberately violates X^n = a*I.  Last, each candidate is
    conjugated by its own random unimodular shears.
    """

    def __init__(self, inst: ProblemInstance, seed: int, conjugate: bool) -> None:
        self.k, self.n, self.a = inst.k, inst.n, inst.a
        self.rng = np.random.default_rng(int(seed))
        self.conjugate = conjugate
        self.zero = inst.regime is Regime.ZERO_A
        self.scalars = []
        if self.zero:
            return
        n, sign = inst.n, 1.0
        if inst.regime is Regime.POSITIVE_A:
            self.scalars = [1, -1] if n % 2 == 0 else [1]
            angles = [2.0 * math.pi * w / n for w in range(1, n)]
        elif inst.regime is Regime.NEGATIVE_ODD_N:
            self.scalars, sign = [-1], -1.0
            angles = [2.0 * math.pi * w / n for w in range(1, n)]
        else:  # NEGATIVE_EVEN_N
            angles = [(2 * j - 1) * math.pi / n for j in range(1, n // 2 + 1)]
        self.blocks = sign * np.array([rotation(t).array for t in angles])
        # rational candidates stay rational through scaling when |a|^(1/n) is rational
        self.exact = abs(inst.a) == 1 or exact_nth_root(abs(inst.a), n) is not None

    def _draw(self) -> tuple:
        """One candidate's block draws, in the stream's fixed order (block
        sizes, then each block's scalar or angle): its backend, its (i, j, s)
        entries X[i, j] = s and its (i, angle index) 2 x 2 blocks."""
        k, rng, scalars = self.k, self.rng, self.scalars
        entries, rotations, sizes, at = [], [], [], 0
        if self.zero:
            while at < k:
                size = int(rng.integers(1, min(self.n, k - at) + 1))
                entries += [(i, i + 1, 1) for i in range(at, at + size - 1)]
                at += size
            return RATIONAL, entries, rotations
        if scalars:
            rem = k
            while rem:
                sizes.append(1 if rem == 1 or rng.random() < 0.4 else 2)
                rem -= sizes[-1]
        else:
            sizes = [2] * (k // 2)
            if k % 2:
                sizes.insert(int(rng.integers(0, len(sizes) + 1)), 1)
        for size in sizes:
            if size == 2:
                rotations.append((at, int(rng.integers(0, len(self.blocks)))))
            elif scalars:
                entries.append((at, at, scalars[int(rng.integers(0, len(scalars)))]))
            else:
                entries.append((at, at, 1 if rng.random() < 0.5 else -1))
            at += size
        return REAL if rotations or not self.exact else RATIONAL, entries, rotations

    def _stack(self, backend: str, drawn: list) -> tuple:
        """(positions, stack): the drawn candidates of one backend as a stacked
        Matrix, scaled and conjugated, with their positions in the chunk."""
        k = self.k
        arr = np.full((len(drawn), k, k), 0, dtype=object if backend == RATIONAL else float)
        for c, (_, entries, rotations, _) in enumerate(drawn):
            for i, j, s in entries:
                arr[c, i, j] = s if backend == RATIONAL else float(s)
            for i, w in rotations:
                arr[c, i : i + 2, i : i + 2] = self.blocks[w]
        stack = Matrix._wrap(arr, backend)
        if not self.zero and abs(self.a) != 1:
            stack = scale_from_unit(stack, self.n, self.a)
        if self.conjugate:
            coeffs = np.array([shears[0] for *_, shears in drawn])
            pairs = np.array([shears[1] for *_, shears in drawn])
            stack = Matrix._wrap(_sheared(stack.array, backend, coeffs, pairs), backend)
        return [d[0] for d in drawn], stack

    def chunks(self, count: int) -> Iterator[tuple]:
        """Yield (first, groups) for the first ``count`` candidates, a chunk at a
        time: ``first`` is the stream index of the chunk's first candidate and
        ``groups`` holds one (positions, stack) per backend."""
        first, size = 0, _FIRST_CHUNK
        while first < count:
            size = min(size, count - first)
            drawn = {}
            for position in range(size):
                backend, entries, rotations = self._draw()
                shears = _shear_draws(self.rng, self.k, backend) if self.conjugate else None
                drawn.setdefault(backend, []).append((position, entries, rotations, shears))
            yield first, [self._stack(backend, cands) for backend, cands in drawn.items()]
            first += size
            size = min(2 * size, _MAX_CHUNK)


def _row(stack: Matrix, r: int) -> Matrix:
    return Matrix._wrap(stack.array[r], stack.backend)


def generate_candidates(
    inst: ProblemInstance,
    count: int,
    seed: int,
    conjugate: bool = True,
) -> Iterator[Matrix]:
    """Yield `count` seed-deterministic candidate roots of a*I.

    Candidates are structured block direct sums (every real root of a*I is
    similar to one), optionally conjugated by random unimodular integer
    shears; raw random matrices would essentially never satisfy X^n = a*I.
    For |a| not in {0, 1} the unit-case candidate is scaled by |a|^(1/n).
    They are built in chunks of 4, 8, 16, ... (at most 64) candidates, one
    stack per backend, and yielded one by one in stream order; candidate i
    of a seed is the same matrix whatever ``count`` is.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    for _, groups in _Candidates(inst, seed, conjugate).chunks(count):
        rows = {p: _row(stack, r) for ps, stack in groups for r, p in enumerate(ps)}
        yield from (rows[p] for p in sorted(rows))


def search_counterexample(
    inst: ProblemInstance,
    budget: int,
    seed: int,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> Verdict:
    """Try up to `budget` random candidates against the applicable sentence.

    Returns WitnessFound with the first violator in seed order, else
    SearchExhausted with trials = budget.  Exhaustion is evidence, not proof:
    the closed-form predicates remain the authority.  The candidates of
    ``generate_candidates(inst, budget, seed)`` are checked a chunk at a
    time, each backend's stack by one ``evaluate``; ``trials`` is the stream
    index of the violator plus one, as if they were checked one by one.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    for first, groups in _Candidates(inst, seed, True).chunks(budget):
        violators = []  # each stack's first violator: (position, matrix, sentence)
        for positions, stack in groups:
            clauses = evaluate(stack, inst, tol)
            bad = np.flatnonzero(~clauses.holds)
            if bad.size:
                violators.append((positions[bad[0]], _row(stack, bad[0]), clauses.sentence))
        if violators:
            position, matrix, sentence = min(violators, key=lambda v: v[0])
            w = Witness(matrix, None, inst.k, inst.n, inst.a, refutes_sentence=sentence)
            return Verdict(False, VerdictMode.WITNESS_FOUND, w, trials=first + position + 1)
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
