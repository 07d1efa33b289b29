"""Independent correctness oracle for the benchmark.

The expected answer for a cell ``(k, n, a)`` is computed here from the two
closed forms of the paper, without calling matroot:

* sentence 1 (a > 0, a = 0, or a < 0 with n odd) holds iff
  (a != 0, k = 2, n odd) or (a = 0, n >= k + 1);
* sentence 2 (a < 0, n even) holds iff k is odd (vacuously) or n = 2,
  except on the quarantined cells k = 2, n >= 4, which matroot must flag
  as quarantined and answer with no witness.

A check returns ``None`` when the output is right and a failure cause
otherwise.  Causes in ``INCORRECT`` are wrong outputs; ``raised`` and
``contract`` mean no usable output was produced.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

WRONG_VERDICT = "wrong_verdict"
WITNESS_REJECTED = "witness_rejected"
BAD_OUTPUT = "bad_output"
CONTRACT = "contract"
RAISED = "raised"
INCORRECT = (WRONG_VERDICT, WITNESS_REJECTED, BAD_OUTPUT)

# The CLI's documented exit codes.
EXIT_HOLDS, EXIT_USAGE, EXIT_REFUTED, EXIT_QUARANTINED = 0, 2, 3, 4
CONTRACT_CODES = (EXIT_HOLDS, EXIT_USAGE, EXIT_REFUTED, EXIT_QUARANTINED)


@dataclass(frozen=True)
class Expected:
    holds: bool
    quarantined: bool
    sentence: int
    vacuous: bool

    @property
    def searched(self) -> bool:
        """Cells where a counterexample search must come back empty."""
        return self.holds or self.quarantined

    @property
    def exit_code(self) -> int:
        if self.quarantined:
            return EXIT_QUARANTINED
        return EXIT_HOLDS if self.holds else EXIT_REFUTED


def expected(k: int, n: int, a) -> Expected:
    if a < 0 and n % 2 == 0:
        if k == 2 and n >= 4:
            return Expected(False, True, 2, False)
        return Expected(k % 2 == 1 or n == 2, False, 2, k % 2 == 1)
    holds = n >= k + 1 if a == 0 else (k == 2 and n % 2 == 1)
    return Expected(holds, False, 1, False)


def check_decide(cell: tuple, exp: Expected, verdict, verified) -> str | None:
    """``verdict`` is decide's result, ``verified`` verify_witness on its
    witness (None when there is no witness)."""
    k, n, a = cell
    mode = "vacuous" if exp.vacuous else "closed-form"
    if (
        verdict.holds != exp.holds
        or verdict.quarantined != exp.quarantined
        or verdict.mode.value != mode
    ):
        return WRONG_VERDICT
    w = verdict.witness
    if exp.holds or exp.quarantined:
        return None if w is None else WRONG_VERDICT
    if w is None or (w.k, w.n, w.a, w.refutes_sentence) != (k, n, a, exp.sentence):
        return WITNESS_REJECTED
    return None if verified else WITNESS_REJECTED


def is_root(matrix_array, n: int, a) -> bool:
    """Whether X^n = a*I, in float arithmetic independent of matroot."""
    x = np.asarray(matrix_array).astype(np.float64)
    power = np.linalg.matrix_power(x, n)
    target = float(a) * np.eye(x.shape[0])
    return bool(np.allclose(power, target, rtol=0.0, atol=1e-8 * max(1.0, abs(float(a)))))
