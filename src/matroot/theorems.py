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

``evaluate`` gives both sentences' clause values at a single matrix; the
sentence predicates, ``verify_witness`` and the command line all read it.
It is also the one place that knows the scale.  Both sentences are invariant
under X -> |a|^(-1/n) X, so a real a outside {0, 1, -1} is evaluated at unit
scale, as scale_to_unit(X) against sign(a), and every tolerance applies at
|a| = 1.  A complex a is evaluated at its own scale.

Every "false" verdict carries a concrete witness that is re-verified before
being returned.  A budget-bounded randomized search over structured block
direct sums (conjugated by random unimodular shears) cross-checks the
closed forms; it reports SearchExhausted rather than claiming proof.

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
    block_diag,
    is_zero,
    mat_eq,
    mat_mul,
    mat_pow,
    rotation,
    scalar_matrix_like,
    scalar_mul,
)
from .factors import (
    RootConvention, _lift_for_root, geometric_factor_sum, quadratic_factor_eval,
)
from .constructions import (
    CaseTag,
    Witness,
    conjugate_with_rng,
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
    """Clause values of the applicable sentence (``sentence``, 1 or 2) at one
    matrix, each computed on first use; ``holds`` computes only what the
    implication needs, so a non-root never reaches a factor polynomial and
    sentence 2 stops at its first vanishing quadratic.  Sentence 2 has no real
    linear factor, so its ``simple_root`` is False."""

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
    def equation(self) -> bool:
        x = self.x
        if self.a == 0:
            # share the power: X^n = X * X^(n-1), and the factor sum is X^(n-1)
            return is_zero(mat_mul(x, self._tail), self.tol)
        return mat_eq(mat_pow(x, self.n), scalar_matrix_like(self.a, x), self.tol)

    @_lazy
    def simple_root(self) -> bool:
        if self.a == 0:
            return is_zero(self.x, self.tol)
        if self.sentence == 2:
            return False  # no real linear factor
        x, root = _lift_for_root(self.x, self.conv)
        return mat_eq(x, scalar_matrix_like(root, x), self.tol)

    @_lazy
    def factor_sum_zero(self) -> bool:
        if self.a == 0:
            return is_zero(self._tail, self.tol)
        return is_zero(geometric_factor_sum(self.x, self.n, self.conv), self.tol)

    def zero_quadratics(self) -> Iterator[int]:
        """The indices i whose quadratic factor vanishes at X, in order."""
        for i in range(1, self.n // 2 + 1):
            if is_zero(quadratic_factor_eval(self.x, self.n, self.a, i), self.tol):
                yield i

    @property
    def holds(self) -> bool:
        if self.sentence == 2:
            return not self.equation or next(self.zero_quadratics(), None) is not None
        return not self.equation or self.simple_root or self.factor_sum_zero


def evaluate(x: Matrix, inst, tol: Tolerance = DEFAULT_TOLERANCE) -> Clauses:
    """The clauses at x of the sentence that applies to ``inst``, a
    ProblemInstance or a Witness: sentence 2 when a < 0 and n is even, else
    sentence 1 with the real root convention, or with the principal root
    when a is complex (the complex variant of sentence 1); at unit scale for
    a real a outside {0, 1, -1} (see the module docstring)."""
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


def _zero_a_candidate(k: int, rng: np.random.Generator) -> Matrix:
    """Random nilpotent: direct sum of first-superdiagonal shift blocks."""
    arr = np.full((k, k), 0, dtype=object)
    at = 0
    while at < k:
        size = int(rng.integers(1, k - at + 1))
        for i in range(at, at + size - 1):
            arr[i, i + 1] = 1
        at += size
    return Matrix._wrap(arr, RATIONAL)


def _unit_root_candidate(inst: ProblemInstance, rng: np.random.Generator) -> Matrix:
    """Random block direct sum whose n-th power is sign(a)*I.

    Admissible blocks: scalar s with s^n = sign(a); rotation(2*pi*w/n) for
    a > 0; -rotation(2*pi*w/n) for a < 0 odd n; rotation((2j-1)*pi/n) for
    a < 0 even n.  When a < 0, n even and k is odd no admissible composition
    exists (the determinant obstruction), so one +-1 scalar pad is inserted;
    the padded candidate deliberately violates X^n = a*I.
    """
    k, n = inst.k, inst.n
    regime = inst.regime
    if regime is Regime.POSITIVE_A:
        scalars = [1, -1] if n % 2 == 0 else [1]
        angles = [2.0 * math.pi * w / n for w in range(1, n)]
        negate = False
    elif regime is Regime.NEGATIVE_ODD_N:
        scalars = [-1]
        angles = [2.0 * math.pi * w / n for w in range(1, n)]
        negate = True
    else:  # NEGATIVE_EVEN_N
        scalars = []
        angles = [(2 * j - 1) * math.pi / n for j in range(1, n // 2 + 1)]
        negate = False

    sizes = []
    rem = k
    if not scalars:
        sizes = [2] * (rem // 2)
        if rem % 2:
            sizes.insert(int(rng.integers(0, len(sizes) + 1)), 1)
    else:
        while rem:
            if rem == 1 or (angles and rng.random() < 0.4):
                sizes.append(1)
                rem -= 1
            else:
                sizes.append(2)
                rem -= 2

    has_rotation = any(s == 2 for s in sizes)
    backend = REAL if has_rotation else RATIONAL
    blocks = []
    for size in sizes:
        if size == 1:
            s = scalars[int(rng.integers(0, len(scalars)))] if scalars else (
                1 if rng.random() < 0.5 else -1
            )
            blocks.append(Matrix([[float(s)]], backend=REAL) if backend == REAL
                          else Matrix([[s]], backend=RATIONAL))
        else:
            block = rotation(angles[int(rng.integers(0, len(angles)))])
            if negate:
                block = scalar_mul(-1.0, block)
            blocks.append(block)
    return block_diag(blocks)


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
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    rng = np.random.default_rng(int(seed))
    for _ in range(count):
        if inst.regime is Regime.ZERO_A:
            cand = _zero_a_candidate(inst.k, rng)
        else:
            cand = _unit_root_candidate(inst, rng)
            if abs(inst.a) != 1:
                cand = scale_from_unit(cand, inst.n, inst.a)
        if conjugate:
            cand = conjugate_with_rng(cand, rng)
        yield cand


def search_counterexample(
    inst: ProblemInstance,
    budget: int,
    seed: int,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> Verdict:
    """Try up to `budget` random candidates against the applicable sentence.

    Returns WitnessFound with the first violator in seed order, else
    SearchExhausted with trials = budget.  Exhaustion is evidence, not proof:
    the closed-form predicates remain the authority.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    for trials, cand in enumerate(generate_candidates(inst, budget, seed), 1):
        clauses = evaluate(cand, inst, tol)
        if not clauses.holds:
            w = Witness(
                matrix=cand,
                tag=None,
                k=inst.k,
                n=inst.n,
                a=inst.a,
                refutes_sentence=clauses.sentence,
            )
            return Verdict(
                holds=False, mode=VerdictMode.WITNESS_FOUND, witness=w, trials=trials
            )
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
