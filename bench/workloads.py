"""The three benchmark workloads: their seed-derived inputs and operations.

Each workload turns a seed into a list of operations per cycle.  An
operation is a triple ``(key, call, check)``: ``key`` names it across
cycles, ``call(tracer)`` makes the calls into matroot (the timed part), and
``check(result)`` compares the result with the oracle and returns a failure
cause or None.  With a tracer, ``call`` wraps
each call into a layer in a span; without one it calls the public API
directly.  The library only ever sees the generated inputs.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import oracle

# Budget of the cross-check search on each cell that holds or is
# quarantined: enough candidates that search dominates the workload's time.
GRID_BUDGET = 50
CLI_SEARCH_BUDGET = 20
CLI_TIMEOUT_S = 60
# Where runs leave trace files and temporary witness files, under the root.
OUT_DIR = ".bench_out"

SCALED_KS = (2, 3, 4, 5, 8, 12, 16)
SCALED_NS = tuple(range(2, 13))
SCALED_AS = (
    0, 1, -1, 2, -2, Fraction(1, 3), Fraction(-1, 3), 4, 27,
    10**6, -(10**6), 10**12, -(10**12), 1e300, Fraction(1, 10**30),
)


def _sentence1_grid() -> list:
    cells = []
    for k in range(2, 9):
        for n in range(2, 10):
            cells.append((k, n, 1))
            if n % 2 == 1:
                cells.append((k, n, -1))
            cells.append((k, n, 0))
    return cells


# The acceptance grids: 140 sentence-1 cells and 32 sentence-2 cells.
GRID_CELLS = _sentence1_grid() + [(k, n, -1) for n in (2, 4, 6, 8) for k in range(2, 10)]
SCALED_CELLS = [(k, n, a) for k in SCALED_KS for n in SCALED_NS for a in SCALED_AS]

_NULL = contextlib.nullcontext()


def _no_span(name):
    return _NULL


def _cycle_rng(seed: int, cycle: int) -> random.Random:
    return random.Random(seed * 1_000_003 + cycle)


def decide_and_verify(lib, cell, span):
    inst = lib.ProblemInstance(*cell)
    with span("theorems.decide"):
        verdict = lib.decide(inst)
    verified = None
    if verdict.witness is not None:
        with span("theorems.verify_witness"):
            verified = lib.verify_witness(verdict.witness)
    return inst, verdict, verified


def traced_search(lib, inst, sentence: int, budget: int, seed: int, tracer):
    """search_counterexample's loop, spanned call by call.

    Returns (exhausted, trials) and counts candidates and valid roots.
    """
    if sentence == 1:
        checker, name = lib.sentence1_holds_for, "theorems.sentence_eval.s1"
    else:
        checker, name = lib.sentence2_holds_for, "theorems.sentence_eval.s2"
    with tracer.span("theorems.search"):
        candidates = lib.generate_candidates(inst, budget, seed)
        for trial in range(1, budget + 1):
            with tracer.span("theorems.generate"):
                cand = next(candidates)
            with tracer.span(name):
                held = checker(cand, inst)
            with tracer.span("bench.valid_root"):
                valid = oracle.is_root(cand.array, inst.n, inst.a)
            tracer.count("theorems.candidates")
            tracer.count("theorems.valid_roots", int(valid))
            if not held:
                return False, trial
    return True, budget


class GridCrosscheck:
    """decide + verify_witness on both acceptance grids, plus a fixed-budget
    search on every cell that holds or is quarantined."""

    name = "grid-crosscheck"

    def __init__(self, lib, seed: int, root: Path, tiny: bool = False) -> None:
        self.lib = lib
        self.seed = seed
        cells = GRID_CELLS[::12] if tiny else GRID_CELLS
        self.cells = [(cell, oracle.expected(*cell)) for cell in cells]

    def cycle(self, c: int) -> list:
        rng = _cycle_rng(self.seed, c)
        order = list(self.cells)
        rng.shuffle(order)
        return [(cell, *self._op(cell, exp, rng.randrange(2**32))) for cell, exp in order]

    def _op(self, cell, exp, search_seed):
        lib = self.lib

        def call(tracer):
            span = tracer.span if tracer else _no_span
            inst, verdict, verified = decide_and_verify(lib, cell, span)
            searched = None
            if exp.searched:
                if tracer:
                    searched = traced_search(
                        lib, inst, exp.sentence, GRID_BUDGET, search_seed, tracer
                    )
                else:
                    v = lib.search_counterexample(inst, GRID_BUDGET, search_seed)
                    exhausted = v.holds and v.mode is lib.VerdictMode.SEARCH_EXHAUSTED
                    searched = exhausted, v.trials
            return verdict, verified, searched

        def check(result):
            verdict, verified, searched = result
            cause = oracle.check_decide(cell, exp, verdict, verified)
            if cause is None and searched is not None and searched != (True, GRID_BUDGET):
                cause = oracle.WRONG_VERDICT
            return cause

        return call, check

    def close(self) -> None:
        pass


class DecideScaled:
    """decide + verify_witness over k x n x a with huge and tiny |a|, no search."""

    name = "decide-scaled"

    def __init__(self, lib, seed: int, root: Path, tiny: bool = False) -> None:
        self.lib = lib
        self.seed = seed
        cells = SCALED_CELLS[::60] if tiny else SCALED_CELLS
        self.cells = [(cell, oracle.expected(*cell)) for cell in cells]

    def cycle(self, c: int) -> list:
        order = list(self.cells)
        _cycle_rng(self.seed, c).shuffle(order)
        return [(cell, *self._op(cell, exp)) for cell, exp in order]

    def _op(self, cell, exp):
        lib = self.lib

        def call(tracer):
            _, verdict, verified = decide_and_verify(
                lib, cell, tracer.span if tracer else _no_span
            )
            return verdict, verified

        def check(result):
            return oracle.check_decide(cell, exp, *result)

        return call, check

    def close(self) -> None:
        pass


def cli_literal(a) -> str:
    """The CLI spelling of a; callers pass it as ``--a=...`` so that argparse
    does not take a negative fraction such as -1/3 for an option."""
    if isinstance(a, Fraction):
        return f"{a.numerator}/{a.denominator}"
    return repr(a) if isinstance(a, float) else str(a)


def _construct_pool() -> list:
    """(tag, k, n, a) for every construction refuting its cell, k <= 8, n <= 9."""
    pool = []
    for k in range(2, 9):
        odd_k = k % 2 == 1
        for n in range(2, 10):
            if n % 2 == 0:
                pool.append(("case-ii" if odd_k else "case-i", k, n, 1))
                if not odd_k and k >= 4 and n >= 4:
                    pool.append(("theorem2-ce", k, n, -1))
            elif odd_k or k >= 4:
                pool.append(("case-iv" if odd_k else "case-iii", k, n, 1))
                pool.append(("case-vi" if odd_k else "case-v", k, n, -1))
            if n <= k:
                pool.append(("nilpotent-shift", k, n, 0))
    return pool


MALFORMED_LITERALS = ("1.5x", "one", "2/", "1e", "0x10")


class CliCold:
    """Sequential cold `python -m matroot` calls covering every subcommand
    and all four documented exit codes."""

    name = "cli-cold"

    def __init__(self, lib, seed: int, root: Path, tiny: bool = False) -> None:
        del lib  # the calls go through fresh interpreters
        self.seed = seed
        self.tiny = tiny
        grid = [(cell, oracle.expected(*cell)) for cell in GRID_CELLS]
        self.holding = [c for c in grid if c[1].holds]
        self.refuted = [c for c in grid if not c[1].searched]
        scaled = [(cell, oracle.expected(*cell)) for cell in SCALED_CELLS]
        self.quarantined = [c for c in scaled if c[1].quarantined]
        self.scaled = scaled
        self.constructs = _construct_pool()
        self.cwd = root
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        workdir = root / OUT_DIR
        workdir.mkdir(parents=True, exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="cli-", dir=workdir))

    def cycle(self, c: int) -> list:
        rng = _cycle_rng(self.seed, c)
        ops = []
        for pool in (self.holding, self.refuted, self.quarantined, self.scaled):
            cell, exp = rng.choice(pool)
            ops.append(self._decide(cell, exp))
        ops.append(self._malformed(rng.choice(MALFORMED_LITERALS)))
        tag, k, n, a = rng.choice(self.constructs)
        path = self.tmp / f"witness-{c}.json"
        ops += self._round_trip(tag, k, n, a, path)
        cell, _ = rng.choice(self.holding)
        ops.append(self._search(cell, rng.randrange(2**31)))
        # No call repeats, so each is timed once.
        return [((c, i), *op) for i, op in enumerate(ops[:3] if self.tiny else ops)]

    def _run(self, argv: list):
        def call(tracer):
            cmd = [sys.executable, "-m", "matroot", *argv]
            with tracer.span("cli.call") if tracer else _NULL:
                return subprocess.run(
                    cmd, env=self.env, cwd=self.cwd, capture_output=True,
                    text=True, timeout=CLI_TIMEOUT_S,
                )
        return call

    @staticmethod
    def _checked(want_code: int, payload_check, read=None):
        def check(proc):
            if proc.returncode not in oracle.CONTRACT_CODES:
                return oracle.CONTRACT
            if proc.returncode != want_code:
                return oracle.WRONG_VERDICT
            if payload_check is None:
                return None if proc.stdout == "" else oracle.BAD_OUTPUT
            try:
                payload = json.loads(read() if read else proc.stdout)
            except (OSError, ValueError):
                return oracle.BAD_OUTPUT
            return payload_check(payload)
        return check

    def _decide(self, cell, exp):
        k, n, a = cell
        argv = ["decide", "--k", str(k), "--n", str(n), f"--a={cli_literal(a)}"]

        def payload_check(p):
            if p.get("holds") != exp.holds or p.get("quarantined") != exp.quarantined:
                return oracle.WRONG_VERDICT
            has_witness = p.get("witness") is not None
            return None if has_witness == (not exp.searched) else oracle.BAD_OUTPUT

        return self._run(argv), self._checked(exp.exit_code, payload_check)

    def _malformed(self, literal: str):
        argv = ["decide", "--k", "3", "--n", "2", f"--a={literal}"]
        return self._run(argv), self._checked(oracle.EXIT_USAGE, None)

    def _round_trip(self, tag, k, n, a, path: Path) -> list:
        kn = ["--k", str(k), "--n", str(n)]
        construct = ["construct", "--tag", tag, *kn, "--output", str(path)]
        verify = ["verify", str(path), *kn, f"--a={cli_literal(a)}"]
        factor = ["factor", str(path), "--n", str(n), f"--a={cli_literal(a)}"]

        def built(p):
            matrix = p.get("matrix") or {}
            ok = p.get("tag") == tag and matrix.get("order") == k
            return None if ok else oracle.BAD_OUTPUT

        def refuted(p):
            ok = p.get("sentence_value") is False and p.get("equation_satisfied") is True
            return None if ok else oracle.WRONG_VERDICT

        def nonzero(p):
            if tag == "theorem2-ce":
                ok = p.get("sentence") == 2 and p.get("zero_indices") == []
            else:
                ok = p.get("sentence") == 1 and p.get("is_zero") is False
            return None if ok else oracle.WRONG_VERDICT

        return [
            (self._run(construct), self._checked(0, built, path.read_text)),
            (self._run(verify), self._checked(oracle.EXIT_REFUTED, refuted)),
            (self._run(factor), self._checked(oracle.EXIT_HOLDS, nonzero)),
        ]

    def _search(self, cell, seed: int):
        k, n, a = cell
        argv = ["search", "--k", str(k), "--n", str(n), f"--a={cli_literal(a)}",
                "--budget", str(CLI_SEARCH_BUDGET), "--seed", str(seed)]

        def exhausted(p):
            ok = (p.get("holds") is True and p.get("mode") == "search-exhausted"
                  and p.get("trials") == CLI_SEARCH_BUDGET)
            return None if ok else oracle.WRONG_VERDICT

        return self._run(argv), self._checked(oracle.EXIT_HOLDS, exhausted)

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)


WORKLOADS = {w.name: w for w in (GridCrosscheck, DecideScaled, CliCold)}
