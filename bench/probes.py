"""Per-layer probe rows, run once at the end of every traced run.

Each row times one public function of a matroot layer, call by call, on
inputs drawn from the workloads' own cells: witnesses that ``decide``
returns for refuted cells of both compute workloads, and candidates that
``generate_candidates`` yields for the searched acceptance-grid cells.
Every call is recorded as a span on the probe tracer, so the per-layer
metrics of all three workloads come from the same rows.  Rows for theorems-layer
functions also run here, so a workload that never calls a function still
reports a median for it (see ``run.layer_metrics``).
"""

from __future__ import annotations

import contextlib
import importlib
import io
import random
import subprocess
import sys
from pathlib import Path

import oracle
import workloads

PROBE_KS = (2, 4, 8, 16)
PROBE_BACKENDS = ("rational", "real")
CLI_SUBCOMMANDS = ("decide", "construct", "verify", "factor", "search")


def build_pools(lib, seed: int, per_bucket: int) -> dict:
    """(backend, k) -> [(matrix, n, a)]: half witnesses, half candidates.

    k = 16 appears only in decide-scaled, which never searches, so its
    buckets hold witnesses alone.
    """
    rng = random.Random(seed)
    pools = {(b, k): [] for b in PROBE_BACKENDS for k in PROBE_KS}
    refuted = [
        c for c in workloads.GRID_CELLS + workloads.SCALED_CELLS
        if c[0] in PROBE_KS and not oracle.expected(*c).searched
    ]
    rng.shuffle(refuted)
    for k, n, a in refuted:
        if all(len(pools[b, k]) >= per_bucket // 2 for b in PROBE_BACKENDS):
            continue
        try:
            witness = lib.decide(lib.ProblemInstance(k, n, a)).witness
        except RuntimeError:
            continue  # a known re-verification failure; decide-scaled counts it
        bucket = pools[witness.matrix.backend, k]
        if len(bucket) < per_bucket // 2:
            bucket.append((witness.matrix, n, a))
    searched = [
        c for c in workloads.GRID_CELLS
        if c[0] in PROBE_KS and oracle.expected(*c).searched
    ]
    rng.shuffle(searched)
    for k, n, a in searched:
        inst = lib.ProblemInstance(k, n, a)
        for cand in lib.generate_candidates(inst, 4, rng.randrange(2**32)):
            bucket = pools[cand.backend, k]
            if len(bucket) < per_bucket:
                bucket.append((cand, n, a))
    return pools


def run_matrix_rows(lib, pools: dict, tracer, repeats: int) -> None:
    """core, constructions.conjugate and factor-sum rows per (backend, k)."""
    for _ in range(repeats):
        for (backend, k), items in pools.items():
            for i, (m, n, a) in enumerate(items):
                rows = m.rows()
                target = lib.scalar_matrix_like(a, m)
                with tracer.span(f"core.matrix_ctor.{backend}.k{k}"):
                    lib.Matrix(rows, backend=backend)
                with tracer.span(f"core.mat_mul.{backend}.k{k}"):
                    lib.mat_mul(m, m)
                with tracer.span(f"core.mat_pow.{backend}.k{k}"):
                    power = lib.mat_pow(m, n)
                with tracer.span(f"core.mat_eq.{backend}.k{k}"):
                    lib.mat_eq(power, target)
                with tracer.span(f"constructions.conjugate.{backend}"):
                    lib.conjugate_matrix(m, i)
                if a < 0 and n % 2 == 0:
                    for j in range(1, n // 2 + 1):
                        with tracer.span("factors.quadratic_factor_eval"):
                            lib.quadratic_factor_eval(m, n, a, j)
                else:
                    conv = lib.RootConvention.real(n, a)
                    with tracer.span(f"factors.geometric_factor_sum.{backend}"):
                        lib.geometric_factor_sum(m, n, conv)


def mat_pow_muls(lib, pools: dict) -> float:
    """Matrix products per mat_pow call over the pools, counted at the
    core.mat_mul boundary: a computed count, not a timing."""
    core = lib.core
    products = 0
    real_mul = core.mat_mul

    def counting_mul(x, y):
        nonlocal products
        products += 1
        return real_mul(x, y)

    calls = 0
    core.mat_mul = counting_mul
    try:
        for items in pools.values():
            for m, n, _ in items:
                core.mat_pow(m, n)
                calls += 1
    finally:
        core.mat_mul = real_mul
    return products / calls


def _witness_for(lib, k: int, n: int, a):
    """The public constructions decide uses for a refuted cell."""
    if a < 0 and n % 2 == 0:
        matrix = lib.theorem2_counterexample(k, n).matrix
    elif a == 0:
        return lib.shift_nilpotent(k, n)
    else:
        if a > 0:
            tag = ("case-i" if k % 2 == 0 else "case-ii") if n % 2 == 0 else (
                "case-iii" if k % 2 == 0 else "case-iv")
        else:
            tag = "case-v" if k % 2 == 0 else "case-vi"
        matrix = lib.case_counterexample(lib.CaseTag(tag), k, n).matrix
    return matrix if abs(a) == 1 else lib.scale_from_unit(matrix, n, a)


def run_scaled_rows(lib, seed: int, tracer, cells_per_row: int) -> None:
    """Witness construction, root conventions, decide and verify_witness on
    a seed-drawn sample of decide-scaled cells."""
    rng = random.Random(seed)
    cells = list(workloads.SCALED_CELLS)
    rng.shuffle(cells)
    refuted = [c for c in cells if not oracle.expected(*c).searched][:cells_per_row]
    for k, n, a in refuted:
        with tracer.span("constructions.witness"):
            _witness_for(lib, k, n, a)
    sentence1 = [c for c in cells if oracle.expected(*c).sentence == 1][:cells_per_row]
    for _, n, a in sentence1:
        with tracer.span("factors.root_convention"):
            lib.RootConvention.real(n, a)
    for cell in cells[:cells_per_row]:
        try:
            workloads.decide_and_verify(lib, cell, tracer.span)
        except RuntimeError:
            pass  # timed up to the raise; decide-scaled counts these failures


def run_search_rows(lib, seed: int, tracer, cells: int) -> None:
    """Spanned searches on a seed-drawn sample of searched grid cells."""
    rng = random.Random(seed)
    searched = [c for c in workloads.GRID_CELLS if oracle.expected(*c).searched]
    for sentence in (1, 2):
        pool = [c for c in searched if oracle.expected(*c).sentence == sentence]
        for cell in rng.sample(pool, min(cells, len(pool))):
            workloads.traced_search(
                lib, lib.ProblemInstance(*cell), sentence, workloads.GRID_BUDGET,
                rng.randrange(2**32), tracer,
            )


def run_cli_rows(root: Path, tracer, repeats: int, env: dict) -> None:
    """Interpreter start, matroot import and in-process cli.main per subcommand."""
    for _ in range(repeats):
        for name, code in (("cli.interpreter", "pass"), ("cli.import", "import matroot")):
            with tracer.span(name):
                subprocess.run([sys.executable, "-c", code], env=env, cwd=root,
                               check=True, capture_output=True)
    cli = importlib.import_module("matroot.cli")
    workdir = root / workloads.OUT_DIR
    workdir.mkdir(parents=True, exist_ok=True)
    path = workdir / "probe-witness.json"
    argvs = {
        "decide": ["decide", "--k", "4", "--n", "4", "--a", "-1"],
        "construct": ["construct", "--tag", "case-iii", "--k", "4", "--n", "3",
                      "--output", str(path)],
        "verify": ["verify", str(path), "--k", "4", "--n", "3", "--a", "1"],
        "factor": ["factor", str(path), "--n", "3", "--a", "1"],
        "search": ["search", "--k", "2", "--n", "3", "--a", "1",
                   "--budget", str(workloads.CLI_SEARCH_BUDGET), "--seed", "7"],
    }
    try:
        for _ in range(repeats):
            for sub in CLI_SUBCOMMANDS:
                sink = io.StringIO()
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    with tracer.span(f"cli.main.{sub}"):
                        cli.main(argvs[sub])
    finally:
        path.unlink(missing_ok=True)
