"""Randomized cross-checking of the closed-form verdicts.

The search harness generates structured candidates -- block direct sums of
admissible scalar, rotation, and nilpotent blocks, the real ones conjugated
by random unimodular integer shears -- because a raw random matrix
essentially never satisfies X^n = a*I.  An exact sum is checked as built:
integer similarity cannot change whether a factor polynomial vanishes.  On cells where the closed form says the sentence
fails, the search should stumble on a counterexample; where it says the
sentence holds, the search should come back empty-handed.
"""

import time

from matroot import (
    ProblemInstance,
    VerdictMode,
    decide,
    search_counterexample,
    verify_witness,
)

CELLS = [
    (2, 3, 1),   # holds: only simple roots and cofactor-killing rotations
    (4, 4, 1),   # fails: exchange-block direct sums slip through
    (3, 2, 1),   # fails: mixed-sign diagonals
    (5, 3, 0),   # fails: nilpotents of index exactly 3
    (5, 6, 0),   # holds: index can be at most 5 < 6
    (4, 4, -1),  # fails: two distinct rotation angles
    (3, 4, -1),  # holds vacuously: no odd-order root of -I at all
]


def main():
    for k, n, a in CELLS:
        inst = ProblemInstance(k, n, a)
        verdict = decide(inst)
        t0 = time.perf_counter()
        searched = search_counterexample(inst, budget=1500, seed=42)
        dt = time.perf_counter() - t0
        agree = verdict.holds == searched.holds
        print(f"(k={k}, n={n}, a={a:+}): closed form "
              f"{'holds' if verdict.holds else 'fails'}, search "
              f"{searched.mode.value} after {searched.trials} trials "
              f"[{dt:.2f}s] {'OK' if agree else 'MISMATCH'}")
        if searched.witness is not None:
            w = searched.witness
            print(f"    found witness: backend={w.matrix.backend}, "
                  f"independently verified: {verify_witness(w)}")

    print("\nexhaustion is evidence, not proof; the closed forms stay the")
    print("authority, and the search exists to catch implementation slips.")


if __name__ == "__main__":
    main()
