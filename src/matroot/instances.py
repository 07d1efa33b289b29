"""Problem instances (k, n, a) and their regime classification.

The sign of a and the parity of n decide which universally quantified
sentence about n-th roots of a*I is meaningful:

* a > 0, a = 0, or a < 0 with n odd: x^n - a has a real linear factor, so
  the geometric-cofactor sentence (sentence 1) applies.
* a < 0 with n even: no real linear factor exists; the quadratic-factor
  sentence (sentence 2) applies instead.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction


class ApplicabilityError(ValueError):
    """An operation was asked about a regime where its sentence is undefined."""


class Regime(Enum):
    POSITIVE_A = "positive-a"
    ZERO_A = "zero-a"
    NEGATIVE_ODD_N = "negative-odd-n"
    NEGATIVE_EVEN_N = "negative-even-n"


def classify_regime(n: int, a) -> Regime:
    if a > 0:
        return Regime.POSITIVE_A
    if a == 0:
        return Regime.ZERO_A
    return Regime.NEGATIVE_ODD_N if n % 2 == 1 else Regime.NEGATIVE_EVEN_N


@dataclass(frozen=True)
class ProblemInstance:
    """The triple (k, n, a): order k matrices, n-th powers, target a*I."""

    k: int
    n: int
    a: "int | float | Fraction"

    def __post_init__(self) -> None:
        for name in ("k", "n"):  # any Integral, as a built-in int; a bool is < 2
            v = getattr(self, name)
            if not isinstance(v, numbers.Integral) or v < 2:
                raise ValueError(f"{name} must be an integer >= 2, got {v!r}")
            object.__setattr__(self, name, int(v))
        a = self.a
        if isinstance(a, (bool, complex)) or not isinstance(a, numbers.Real):
            raise ValueError(f"a must be a real number, got {a!r}")
        if not isinstance(a, (int, Fraction)) and not math.isfinite(float(a)):
            raise ValueError(f"a must be finite, got {a!r}")

    @property
    def regime(self) -> Regime:
        return classify_regime(self.n, self.a)

    @property
    def sentence1_applicable(self) -> bool:
        return self.regime is not Regime.NEGATIVE_EVEN_N

    @property
    def sentence2_applicable(self) -> bool:
        return self.regime is Regime.NEGATIVE_EVEN_N
