"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Every tolerance is pinned here, not configurable.
"""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time

import numpy as np

import matroot
from matroot import (
    ProblemInstance,
    Tolerance,
    TriangularParams,
    VerdictMode,
    decide,
    determinant,
    generate_candidates,
    geometric_factor_sum,
    identity,
    mat_eq,
    mat_mul,
    mat_pow,
    matrix_from_json,
    matrix_to_json,
    minus_identity_root_exists,
    odd_factorization_product,
    quadratic_factor_eval,
    scalar_matrix,
    scalar_mul,
    scale_from_unit,
    scale_to_unit,
    search_counterexample,
    sentence1_holds_for,
    sentence2_holds_for,
    shift_nilpotent,
    triangular_power_formula,
    zeros,
)
from matroot.core import Matrix
from matroot.factors import RootConvention
from matroot.cli import main as cli_main

EXACT = Tolerance(0.0, 0.0)
TOL9 = Tolerance(1e-9, 1e-9)


def _finish(number: int, name: str, t0: float, budget_s: float) -> None:
    elapsed = time.perf_counter() - t0
    assert elapsed < budget_s, f"criterion {number} took {elapsed:.1f}s (budget {budget_s}s)"
    print(f"[acceptance] criterion {number} ({name}): PASS in {elapsed:.1f}s "
          f"(budget {budget_s:.0f}s)")


def test_criterion_1_theorem1_grid():
    t0 = time.perf_counter()
    cells = []
    for k in range(2, 9):
        for n in range(2, 10):
            cells.append((k, n, 1))
            if n % 2 == 1:
                cells.append((k, n, -1))
            cells.append((k, n, 0))
    searched = 0
    for k, n, a in cells:
        inst = ProblemInstance(k, n, a)
        closed_form = (a != 0 and k == 2 and n % 2 == 1) or (a == 0 and n >= k + 1)
        verdict = decide(inst)
        assert verdict.holds == closed_form, (k, n, a)
        assert not verdict.quarantined
        if not closed_form:
            w = verdict.witness
            assert w is not None and w.matrix.order == k
            assert sentence1_holds_for(w.matrix, inst, TOL9) is False, (k, n, a)
            if w.matrix.backend == "rational":
                # exact refutation, zero tolerance
                assert sentence1_holds_for(w.matrix, inst, EXACT) is False, (k, n, a)
        else:
            sv = search_counterexample(inst, budget=2000, seed=42)
            assert sv.mode is VerdictMode.SEARCH_EXHAUSTED, (k, n, a)
            assert sv.trials == 2000
            searched += 1
    assert searched == 36  # every true cell went through the search
    _finish(1, "theorem-1 grid with witness re-verification and search", t0, 60.0)


def test_criterion_2_theorem2_grid():
    t0 = time.perf_counter()
    for n in (2, 4, 6, 8):
        for k in range(2, 10):
            inst = ProblemInstance(k, n, -1)
            verdict = decide(inst)
            if k == 2 and n >= 4:
                # quarantined: closed form and empirical behaviour disagree
                assert verdict.quarantined and verdict.witness is None
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
                    io.StringIO()
                ):
                    code = cli_main(["decide", "--k", str(k), "--n", str(n), "--a", "-1"])
                assert code == 4
                continue
            closed_form = k % 2 == 1 or n == 2
            assert verdict.holds == closed_form, (k, n)
            if k % 2 == 1:
                assert verdict.mode is VerdictMode.VACUOUS
                assert minus_identity_root_exists(k, n) is False
                continue
            if closed_form:
                continue
            w = verdict.witness
            assert mat_eq(
                mat_pow(w.matrix, n), scalar_matrix(-1.0, k, "real"), TOL9
            )
            # per-cell analytic lower bound on each factor's largest entry,
            # checked before trusting the 0.1 threshold: factor i acts on
            # rotation block j as 2(cos theta_j - cos theta_i) * R_j
            theta = lambda j: (2 * j - 1) * math.pi / n
            for i in range(1, n // 2 + 1):
                j_star = 2 if i == 1 else 1
                coeff = 2.0 * abs(math.cos(theta(j_star)) - math.cos(theta(i)))
                block_peak = max(
                    abs(math.cos(theta(j_star))), abs(math.sin(theta(j_star)))
                )
                bound = coeff * block_peak
                assert bound >= 0.1, (k, n, i, bound)
                value = quadratic_factor_eval(w.matrix, n, -1, i)
                observed = max(abs(e) for e in value.entries())
                assert observed >= 0.1, (k, n, i, observed)
    _finish(2, "theorem-2 grid: vacuity, quarantine, quadratic nonvanishing", t0, 30.0)


def test_criterion_3_triangular_power_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260809)

    def bounded_complex():
        while True:
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if abs(z) <= 2.0:
                return z

    def naive_pow(m, n):
        out = identity(2, m.backend)
        for _ in range(n):
            out = mat_mul(out, m)
        return out

    worst_scaled = 0.0
    for _ in range(500):
        p, q, r = bounded_complex(), bounded_complex(), bounded_complex()
        n = int(rng.integers(2, 21))
        params = TriangularParams(p, q, r, n)
        got = triangular_power_formula(params)
        want = naive_pow(params.matrix(), n)
        for x, y in zip(got.entries(), want.entries()):
            err = abs(x - y)
            # relative 1e-8 per entry; the 1e-10 absolute floor covers
            # entries that are themselves roundoff residue of cancellation,
            # where both sides agree only to machine precision at unit scale
            assert err <= 1e-8 * max(abs(x), abs(y)) or err <= 1e-10, (p, q, r, n)
            worst_scaled = max(worst_scaled, err / max(abs(x), abs(y), 1.0))
    print(f"[acceptance]   criterion 3 worst scaled deviation: {worst_scaled:.2e}")
    _finish(3, "closed-form triangular power vs 500 naive products", t0, 5.0)


def test_criterion_4_odd_factorization_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    tol = Tolerance(1e-7, 1e-7)
    for _ in range(200):
        x = Matrix(rng.uniform(-2.0, 2.0, size=(2, 2)))
        for n in (3, 5, 7, 9):
            lhs = odd_factorization_product(x, n)
            rhs = geometric_factor_sum(x, n, RootConvention.real(n, 1))
            assert mat_eq(lhs, rhs, tol)
    _finish(4, "odd-n quadratic product equals geometric factor sum", t0, 5.0)


def test_criterion_5_nilpotent_exactness():
    t0 = time.perf_counter()
    for k in range(2, 13):
        zero = zeros(k, "rational")
        for n in range(2, k + 1):
            a = shift_nilpotent(k, n)
            assert mat_pow(a, n) == zero, (k, n)
            assert mat_pow(a, n - 1) != zero, (k, n)
    _finish(5, "shift nilpotents have index exactly n, zero tolerance", t0, 5.0)


def test_criterion_6_scaling_reductions():
    t0 = time.perf_counter()
    rng = np.random.default_rng(606)
    tol8 = Tolerance(1e-8, 1e-8)
    a_pool = (2, -2, 3, -3, 0.5, -0.5)
    checked = 0
    while checked < 100:
        a = a_pool[int(rng.integers(0, len(a_pool)))]
        n = int(rng.integers(2, 10))
        k = int(rng.integers(2, 7))
        sign = 1 if a > 0 else -1
        unit_inst = ProblemInstance(k, n, sign)
        scaled_inst = ProblemInstance(k, n, a)
        u = next(iter(generate_candidates(unit_inst, 1, seed=int(rng.integers(2**32)))))
        x = scale_from_unit(u, n, a)
        back = scale_to_unit(x, n, a)
        u_float = scalar_mul(1.0, u)
        assert mat_eq(scalar_mul(1.0, back), u_float, tol8)
        if scaled_inst.sentence == 2:
            unit_verdict = sentence2_holds_for(u, unit_inst, tol8)
            scaled_verdict = sentence2_holds_for(x, scaled_inst, tol8)
        else:
            unit_verdict = sentence1_holds_for(u, unit_inst, tol8)
            scaled_verdict = sentence1_holds_for(x, scaled_inst, tol8)
        assert unit_verdict == scaled_verdict, (k, n, a)
        checked += 1
    _finish(6, "verdicts are invariant under the |a|^(1/n) scaling", t0, 5.0)


def test_criterion_7_determinant_obstruction():
    t0 = time.perf_counter()
    tol8 = Tolerance(1e-8, 1e-8)
    for k in (3, 5, 7):
        for n in (2, 4, 6):
            inst = ProblemInstance(k, n, -1)
            target = scalar_matrix(-1.0, k, "real")
            produced = 0
            for cand in generate_candidates(inst, 400, seed=k * 100 + n):
                produced += 1
                as_real = scalar_mul(1.0, cand)
                assert not mat_eq(mat_pow(as_real, n), target, tol8), (k, n)
                det = determinant(as_real)
                assert det**n >= 0 > -1, (k, n, det)
            assert produced == 400
    _finish(7, "odd order admits no real root of -I; determinants obstruct", t0, 10.0)


def test_criterion_8_cli_round_trip_and_exit_codes():
    t0 = time.perf_counter()

    src = os.path.dirname(os.path.dirname(os.path.abspath(matroot.__file__)))
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "matroot", *argv], capture_output=True, text=True, env=env
        )

    # all four exit codes through real scripted invocations
    assert run("decide", "--k", "2", "--n", "3", "--a", "1").returncode == 0
    assert run("decide", "--k", "2", "--n", "2", "--a", "1.5x").returncode == 2
    refuted = run("decide", "--k", "4", "--n", "4", "--a", "-1")
    assert refuted.returncode == 3
    quarantined = run("decide", "--k", "2", "--n", "4", "--a", "-1")
    assert quarantined.returncode == 4
    assert json.loads(quarantined.stdout)["quarantined"] is True

    # construct -> verify round trip, byte-identical rational matrix JSON
    for tag, k, n, a in (("case-i", 4, 4, "1"), ("nilpotent-shift", 5, 3, "0")):
        built = run("construct", "--tag", tag, "--k", str(k), "--n", str(n))
        assert built.returncode == 0
        witness = json.loads(built.stdout)
        emitted = json.dumps(witness["matrix"])
        reparsed = json.dumps(matrix_to_json(matrix_from_json(witness["matrix"])))
        assert emitted == reparsed  # byte-stable rational serialization
        with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
            fh.write(built.stdout)
            path = fh.name
        try:
            verified = run(
                "verify", path, "--k", str(k), "--n", str(n), "--a", a
            )
            assert verified.returncode == 3  # witnesses refute their sentence
            report = json.loads(verified.stdout)
            assert report["sentence_value"] is False
        finally:
            os.unlink(path)
    _finish(8, "CLI exit-code contract and byte-stable round trip", t0, 60.0)
