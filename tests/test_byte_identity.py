"""One SHA-256 over what decide, verify_witness and the search give on two cell grids.

The records are the ``decide`` verdict JSON of every cell; for each witness, its
backend, dtype, entry reprs and ``verify_witness`` result; and the
``search_counterexample`` verdict JSON on the acceptance grid at three seeds.  A
change meant to keep every verdict, witness and search stream byte-identical keeps
``DIGEST``; a change that moves one on purpose updates it and says why.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

from matroot import ProblemInstance, decide, search_counterexample, verdict_to_json, verify_witness

DIGEST = "498e07d5b03c20b3d90c0d2e6e9a572726122000fe1428430081a301255c4e6b"


def _grid_cells() -> list:
    """The acceptance grids: 140 sentence-1 cells, then 32 sentence-2 cells."""
    cells = []
    for k in range(2, 9):
        for n in range(2, 10):
            cells += [(k, n, 1)] + [(k, n, -1)] * (n % 2) + [(k, n, 0)]
    return cells + [(k, n, -1) for n in (2, 4, 6, 8) for k in range(2, 10)]


_SCALED_AS = (0, 1, -1, 2, -2, Fraction(1, 3), Fraction(-1, 3), 4, 27, 10**6, -(10**6),
              10**12, -(10**12), 1e300, Fraction(1, 10**30))
# 7 orders x 11 exponents x 15 scales: 1155 cells, |a| from 1e-30 to 1e300
_SCALED_CELLS = [(k, n, a) for k in (2, 3, 4, 5, 8, 12, 16) for n in range(2, 13)
                 for a in _SCALED_AS]


def _records():
    grid = _grid_cells()
    for cell in grid + _SCALED_CELLS:
        verdict = decide(ProblemInstance(*cell))
        yield [repr(cell), verdict_to_json(verdict)]
        w = verdict.witness
        if w is not None:
            m = w.matrix
            yield [m.backend, m.array.dtype.str, list(map(repr, m.entries())), verify_witness(w)]
    for seed in (0, 1, 12345):
        for cell in grid:
            verdict = search_counterexample(ProblemInstance(*cell), 50, seed)
            yield [repr(cell), seed, verdict_to_json(verdict)]


def test_decide_verify_and_search_outputs_keep_their_digest():
    h = hashlib.sha256()
    for record in _records():
        h.update(json.dumps(record).encode() + b"\n")
    assert len(_grid_cells()) == 172 and len(_SCALED_CELLS) == 1155
    assert h.hexdigest() == DIGEST
