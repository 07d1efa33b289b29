"""Problem instances (k, n, a) and the sentence that applies to each.

Whether x^n - a has a real linear factor decides which universally
quantified sentence about n-th roots of a*I is meaningful, and
``_sentence`` is the one place that answers it:

* a >= 0, or a < 0 with n odd: x - a^(1/n) is a real linear factor, so the
  geometric-cofactor sentence (sentence 1) applies.
* a < 0 with n even: no real linear factor exists; the quadratic-factor
  sentence (sentence 2) applies instead.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

from .core import _checked_int


class ApplicabilityError(ValueError):
    """An operation was asked about a sentence that does not apply to its cell."""


def _sentence(n: int, a) -> int:
    """The sentence that applies to x^n - a, a real: 2 when a < 0 and n is even, else 1."""
    return 2 if a < 0 and n % 2 == 0 else 1


@dataclass(frozen=True)
class ProblemInstance:
    """The triple (k, n, a): order k matrices, n-th powers, target a*I."""

    k: int
    n: int
    a: "int | float | Fraction"

    def __post_init__(self) -> None:
        for name in ("k", "n"):  # any Integral, as a built-in int
            object.__setattr__(self, name, _checked_int(name, getattr(self, name), 2))
        a = self.a
        if isinstance(a, (bool, complex)) or not isinstance(a, numbers.Real):
            raise ValueError(f"a must be a real number, got {a!r}")
        if not isinstance(a, (int, Fraction)) and not math.isfinite(float(a)):
            raise ValueError(f"a must be finite, got {a!r}")

    @property
    def sentence(self) -> int:
        """The applicable sentence, 1 or 2 (see the module docstring)."""
        return _sentence(self.n, self.a)
