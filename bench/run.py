"""matroot benchmark: one workload per run, closed loop, single caller.

    python3 bench/run.py --workload grid-crosscheck --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --workload all --seconds 55   # every workload in turn

Run it from anywhere; it imports matroot from ``src/`` next to ``bench/``
and exits with code 2 when that is missing.  One process and one thread
issue one operation at a time, with BLAS pinned to one thread.  The run
checks every output against the oracle in ``oracle.py``.  ``--trace 0``
reports the end-to-end metrics and ``--trace 1`` the per-layer metrics,
from spans written to ``.bench_out/``.  The last stdout line is the result
JSON: ``{"correct", "attempted", "failed", "metrics"}``.  See README.md for
why each workload exists and which layer metric should move which
end-to-end metric.
"""

from __future__ import annotations

import os

# Pinned before anything imports numpy: the benchmark's load is one thread.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update({var: "1" for var in BLAS_THREAD_VARS})

import argparse
import gc
import importlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import oracle
import probes
import workloads
import spans
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Each run makes at least this many operations, so that at least ten
# samples lie beyond p90.
MIN_OPS = 100
SETUP_REPEATS = 15
REPIN_S = 0.5
PROBE_BUCKET = 12
PROBE_REPEATS = 3
# The reference loop that scales every end-to-end time (see `scaled_ns`),
# and its time on an undisturbed CPU of the host the benchmark was tuned on:
# a 2-vCPU Intel Xeon VM running CPython 3.11.
REF_ITERATIONS = 5_000
REF_NS = 300_000

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("ok_frac", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _per_layer() -> list:
    """(metric, unit, span) for every per-layer metric; span is None for
    counts and ratios computed from the tallies."""
    rows = []
    for op in ("matrix_ctor", "mat_mul", "mat_pow", "mat_eq"):
        for b in probes.PROBE_BACKENDS:
            for k in probes.PROBE_KS:
                rows.append((f"core.{op}_us.{b}.k{k}", "us", f"core.{op}.{b}.k{k}"))
    rows.append(("core.mat_pow_muls", "count", None))
    for b in probes.PROBE_BACKENDS:
        rows.append((f"constructions.conjugate_us.{b}", "us", f"constructions.conjugate.{b}"))
    rows.append(("constructions.witness_us", "us", "constructions.witness"))
    for b in probes.PROBE_BACKENDS:
        rows.append((f"factors.geometric_factor_sum_us.{b}", "us",
                     f"factors.geometric_factor_sum.{b}"))
    rows += [
        ("factors.quadratic_factor_eval_us", "us", "factors.quadratic_factor_eval"),
        ("factors.root_convention_us", "us", "factors.root_convention"),
        ("theorems.generate_us", "us", "theorems.generate"),
        ("theorems.sentence_eval_us.s1", "us", "theorems.sentence_eval.s1"),
        ("theorems.sentence_eval_us.s2", "us", "theorems.sentence_eval.s2"),
        ("theorems.candidates", "count", None),
        ("theorems.valid_roots", "count", None),
        ("theorems.valid_root_ratio", "ratio", None),
        ("theorems.decide_us", "us", "theorems.decide"),
        ("theorems.verify_witness_us", "us", "theorems.verify_witness"),
        ("theorems.decide_raised", "count", None),
        ("theorems.wrong_verdicts", "count", None),
        ("theorems.witness_rejected", "count", None),
        ("fail_frac", "ratio", None),
        ("cli.interpreter_ms", "ms", "cli.interpreter"),
        ("cli.import_ms", "ms", None),
    ]
    rows += [(f"cli.main_ms.{s}", "ms", f"cli.main.{s}") for s in probes.CLI_SUBCOMMANDS]
    rows += [
        ("cli.contract_violations", "count", None),
        ("trace.coverage", "ratio", None),
        ("trace.overhead_frac", "ratio", None),
    ]
    return rows


PER_LAYER = _per_layer()


def reference_ns(iterations: int = REF_ITERATIONS) -> int:
    """Wall time of a fixed pure-Python integer loop."""
    t0 = time.perf_counter_ns()
    total = 0
    for i in range(iterations):
        total += i * i % 7
    return time.perf_counter_ns() - t0


def scaled_ns(elapsed_ns: int, ref_before: int, ref_after: int) -> float:
    """An elapsed time scaled to the reference host's undisturbed speed.

    The host's speed swings by up to about 1.7x within seconds, and by
    tens of percent between minutes, as neighbouring load comes and goes.
    The reference loop slows by about as much as matroot does, so the
    elapsed time is scaled by REF_NS over the mean of the reference loop's
    times just before and just after it.  A time read this way changes with
    the program, not with the neighbours.
    """
    return elapsed_ns * 2 * REF_NS / (ref_before + ref_after)


class Tally:
    """Scaled operation times and failure causes of one measured phase.

    An operation that repeats across cycles (the same cell) is timed by its
    fastest repeat, the reading that load disturbed least.
    """

    def __init__(self) -> None:
        self.ops = 0
        self.best_ns: dict = {}
        self.causes: Counter = Counter()
        self.incorrect = 0
        self.wall_ns = 0
        self.reference_ns = 0  # time spent in the reference loop

    def add(self, key, elapsed_ns: int, cause: str | None) -> None:
        self.ops += 1
        best = self.best_ns.get(key)
        self.best_ns[key] = elapsed_ns if best is None else min(best, elapsed_ns)
        if cause is not None:
            self.causes[cause] += 1
            self.incorrect += cause in oracle.INCORRECT

    @property
    def failed(self) -> int:
        return sum(self.causes.values())

    def op_times_ns(self) -> list:
        return list(self.best_ns.values())

    def ops_per_s(self) -> float:
        times = self.op_times_ns()
        return len(times) / (sum(times) / 1e9)

    def category(self, name: str) -> int:
        return sum(n for cause, n in self.causes.items() if cause.split(":")[0] == name)


def pin_to_quietest_cpu(cpus: list) -> None:
    """Pin this process (and the CLI children it starts) to the CPU that
    runs a short spin loop fastest right now.

    Each CPU's speed rises and falls with its neighbours' load, and on the
    hosts measured the CPUs did so independently, so the quietest CPU of
    the moment gives the least disturbed operation times.
    """
    timings = []
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        timings.append((min(reference_ns(20_000), reference_ns(20_000)), cpu))
    os.sched_setaffinity(0, {min(timings)[1]})


def measure(wl, seconds: float, min_ops: int, tracer=None) -> Tally:
    """Run whole cycles until `seconds` have passed and `min_ops` are done.

    An operation's time covers its calls into matroot and excludes the
    oracle checks and any ``bench.`` spans; it is scaled by the reference
    loop run between operations.  Every REPIN_S the run moves to the
    quietest CPU, between operations.
    """
    tally = Tally()
    cpus = sorted(os.sched_getaffinity(0))
    start = time.perf_counter_ns()
    repinned = 0
    cycle = 0
    ref = None
    while True:
        for op_id, (key, call, check) in enumerate(wl.cycle(cycle)):
            if time.perf_counter_ns() - repinned > REPIN_S * 1e9:
                pin_to_quietest_cpu(cpus)
                repinned = time.perf_counter_ns()
                ref = None
            if ref is None:
                ref = reference_ns()
                tally.reference_ns += ref
            excluded = 0
            if tracer:
                tracer.op = cycle * 1_000_000 + op_id
                excluded = tracer.excluded_ns
            t0 = time.perf_counter_ns()
            try:
                result = call(tracer)
                cause = None
            except Exception as exc:  # a failed operation, counted by cause
                cause = f"{oracle.RAISED}:{type(exc).__name__}"
            elapsed = time.perf_counter_ns() - t0
            if tracer:
                elapsed -= tracer.excluded_ns - excluded
            ref_after = reference_ns()
            tally.reference_ns += ref_after
            if cause is None:
                cause = check(result)
            tally.add(key, scaled_ns(elapsed, ref, ref_after), cause)
            ref = ref_after
        cycle += 1
        done = (time.perf_counter_ns() - start) / 1e9 >= seconds
        if done and tally.ops >= min_ops:
            break
    tally.wall_ns = time.perf_counter_ns() - start
    os.sched_setaffinity(0, cpus)
    if tracer:
        tracer.op = -1
    return tally


def setup(cls, seed: int, tiny: bool):
    """Import matroot afresh and build the workload's inputs, several times.

    Returns the last library and workload and the median scaled set-up
    time in seconds.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    samples = []
    wl = None
    cpus = sorted(os.sched_getaffinity(0))
    for _ in range(SETUP_REPEATS):
        if wl is not None:
            wl.close()
        for name in [m for m in sys.modules if m == "matroot" or m.startswith("matroot.")]:
            del sys.modules[name]
        gc.collect()  # the previous import's garbage is not this set-up's cost
        pin_to_quietest_cpu(cpus)
        ref = reference_ns()
        t0 = time.perf_counter_ns()
        lib = importlib.import_module("matroot")
        wl = cls(lib, seed, ROOT, tiny)
        elapsed = time.perf_counter_ns() - t0
        samples.append(scaled_ns(elapsed, ref, reference_ns()) / 1e9)
    os.sched_setaffinity(0, cpus)
    if not Path(lib.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported matroot from {lib.__file__}, not from {SRC}")
    return lib, wl, statistics.median(samples)


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown: not a git checkout"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.SubprocessError) as exc:
        return f"unknown: {exc}"
    return out.stdout.strip() or "unknown"


def run_meta(workload: str, seed: int, seconds: int, trace: int) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "load": "closed loop, 1 process, 1 thread, 1 operation at a time",
    }


def end_to_end_metrics(tally: Tally, setup_s: float, children: bool) -> dict:
    times = tally.op_times_ns()
    return {
        "ops_per_s": tally.ops_per_s(),
        "op_ms_p50": statistics.median(times) / 1e6,
        "op_ms_p90": statistics.quantiles(times, n=10)[8] / 1e6,
        "ok_frac": (tally.ops - tally.failed) / tally.ops,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(children),
    }


def layer_metrics(tracer: Tracer, probe: Tracer, untraced: Tally, traced: Tally,
                  muls: float) -> dict:
    """Per-layer metrics.  A median comes from the workload's own calls
    when it made any, else from the probe rows."""
    own = tracer.summary()
    rows = probe.summary()
    values = {}
    for name, unit, span in PER_LAYER:
        if span is not None:
            row = own.get(span) or rows[span]
            values[name] = row["median_ns"] / (1e3 if unit == "us" else 1e6)
    counts = tracer.counts if tracer.counts.get("theorems.candidates") else probe.counts
    both = [untraced, traced]
    covered = sum(row["self_ns"] for span, row in own.items()
                  if not span.startswith("bench."))
    values.update({
        "core.mat_pow_muls": muls,
        "theorems.candidates": counts["theorems.candidates"],
        "theorems.valid_roots": counts["theorems.valid_roots"],
        "theorems.valid_root_ratio": counts["theorems.valid_roots"] / counts["theorems.candidates"],
        "theorems.decide_raised": sum(t.category(oracle.RAISED) for t in both),
        "theorems.wrong_verdicts": sum(t.causes[oracle.WRONG_VERDICT] for t in both),
        "theorems.witness_rejected": sum(t.causes[oracle.WITNESS_REJECTED] for t in both),
        "fail_frac": sum(t.failed for t in both) / sum(t.ops for t in both),
        "cli.import_ms": (rows["cli.import"]["median_ns"]
                          - rows["cli.interpreter"]["median_ns"]) / 1e6,
        "cli.contract_violations": sum(t.causes[oracle.CONTRACT] for t in both),
        "trace.coverage": covered / (traced.wall_ns - traced.reference_ns
                                     - tracer.excluded_ns),
        "trace.overhead_frac": 1.0 - traced.ops_per_s() / untraced.ops_per_s(),
    })
    return values


def run_workload(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """Run one workload; returns (result, report lines, meta)."""
    cls = workloads.WORKLOADS[workload]
    min_ops = 1 if tiny else MIN_OPS
    lib, wl, setup_s = setup(cls, seed, tiny)
    meta = run_meta(workload, seed, seconds, int(trace))
    report = []
    try:
        if not trace:
            tally = measure(wl, seconds, min_ops)
            tallies = [tally]
            values = end_to_end_metrics(tally, setup_s, children=workload == "cli-cold")
            units = dict(END_TO_END)
        else:
            untraced = measure(wl, seconds / 2, (min_ops + 1) // 2)
            tracer = Tracer()
            traced = measure(wl, seconds / 2, (min_ops + 1) // 2, tracer)
            tallies = [untraced, traced]
            probe = Tracer()
            muls = run_probes(lib, probe, seed, tiny)
            values = layer_metrics(tracer, probe, untraced, traced, muls)
            units = {name: unit for name, unit, _ in PER_LAYER}
            path = ROOT / workloads.OUT_DIR / f"trace-{workload}-seed{seed}.json"
            spans.write(path, meta, workload=tracer, probe=probe)
            report.append(f"# spans written to {path.relative_to(ROOT)}")
            report.append("# span calls self_ms median_us (workload spans, then probe rows)")
            for which, t in (("workload", tracer), ("probe", probe)):
                for span, row in sorted(t.summary().items()):
                    report.append(f"#   {which} {span} {row['calls']} "
                                  f"{row['self_ns'] / 1e6:.3f} {row['median_ns'] / 1e3:.2f}")
    finally:
        wl.close()
    causes = sum((t.causes for t in tallies), Counter())
    report.insert(0, f"# failures by cause: {json.dumps(dict(sorted(causes.items())))}")
    result = {
        "correct": sum(t.incorrect for t in tallies) == 0,
        "attempted": sum(t.ops for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return result, report, meta


def run_probes(lib, probe: Tracer, seed: int, tiny: bool) -> float:
    """Runs every probe row; returns the computed mat_pow product count."""
    pools = probes.build_pools(lib, seed, 2 if tiny else PROBE_BUCKET)
    probes.run_matrix_rows(lib, pools, probe, 1 if tiny else PROBE_REPEATS)
    probes.run_scaled_rows(lib, seed, probe, 4 if tiny else 40)
    probes.run_search_rows(lib, seed, probe, 1 if tiny else 3)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probes.run_cli_rows(ROOT, probe, 1 if tiny else 5, env)
    return probes.mat_pow_muls(lib, pools)


def run_all(args) -> int:
    """Each workload in its own child process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(out.stderr)
        lines = out.stdout.splitlines()
        if out.returncode != 0 or not lines:
            print(f"error: {workload} exited {out.returncode}", file=sys.stderr)
            return out.returncode or 1
        print(f"## {workload}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "matroot" / "__init__.py").is_file():
        print(f"error: no matroot sources at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    result, report, meta = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"# meta {json.dumps(meta)}")
    print("\n".join(report))
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
