"""Time two checkouts of matroot cell by cell, in one process, interleaved.

    python3 tools/ab_cells.py OLD_ROOT NEW_ROOT --workload decide-scaled --repeats 5

Each root's ``src/matroot`` is copied to a temporary directory and imported
under its own package name (``matroot_old``, ``matroot_new``), so both run in
this one interpreter.  The operations are those of ``bench/workloads.py`` (of
this checkout, for both sides): each repeat runs one cycle of the workload,
and for every operation the two sides run back to back, in random order.  An
operation is timed by its fastest repeat, as ``bench/run.py`` does, and each
side's ``ops_per_s``, ``op_ms_p50`` and ``op_ms_p90`` are read from those
times.  Every result is checked against the benchmark's oracle.  Only the
in-process workloads (not ``cli-cold``) can be timed this way.

It then prints, per family of operations, each side's operation count, summed
time and median time (fastest repeats).  An operation's family is its witness's
tag and backend, as the new side's ``decide`` gives it; else "search, a = 0" or
"search, a != 0" where the workload searches the cell, else "holds" (or
"quarantined").
"""

from __future__ import annotations

import os

# One BLAS thread, as in bench/run.py; set before anything imports numpy.
os.environ.update({var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                        "MKL_NUM_THREADS")})

import argparse
import importlib
import random
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
IN_PROCESS = ("grid-crosscheck", "decide-scaled")


def import_copy(root: Path, name: str, into: Path):
    """root's src/matroot, copied into the directory into and imported as the package name."""
    src = root / "src" / "matroot"
    if not (src / "__init__.py").is_file():
        raise SystemExit(f"no matroot package at {src}")
    shutil.copytree(src, into / name, ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(name)


def measure(workloads: list, repeats: int, seed: int) -> tuple:
    """(fastest ns per operation key, failed operations) for each side, the sides of an
    operation run back to back in an order drawn from seed."""
    best = [{} for _ in workloads]
    failed = [0 for _ in workloads]
    coin = random.Random(seed)
    for cycle in range(repeats):
        for ops in zip(*(wl.cycle(cycle) for wl in workloads)):
            sides = list(range(len(workloads)))
            coin.shuffle(sides)
            for side in sides:
                key, call, check = ops[side]
                t0 = time.perf_counter_ns()
                try:
                    result = call(None)
                except Exception:  # a failed operation: counted, as the benchmark does
                    failed[side] += 1
                    continue
                elapsed = time.perf_counter_ns() - t0
                failed[side] += check(result) is not None
                seen = best[side].get(key)
                best[side][key] = elapsed if seen is None else min(seen, elapsed)
    return best, failed


def family(lib, cell, exp, searches: bool) -> str:
    """The family of the operation on cell (see the module docstring)."""
    try:
        witness = lib.decide(lib.ProblemInstance(*cell)).witness
    except Exception:  # a cell that raises: its own family
        return "raises"
    if witness is not None:
        return f"{witness.tag.value}, {witness.matrix.backend}"
    if searches and exp.searched:
        return "search, a = 0" if cell[2] == 0 else "search, a != 0"
    return "holds" if exp.holds else "quarantined"


def by_family(best: list, families: dict) -> None:
    """Print each side's count, summed ms and median ms per family, and new/old of the sums."""
    print(f"{'family':<28}{'count':>6}{'old sum':>10}{'new sum':>10}{'new/old':>9}"
          f"{'old p50':>10}{'new p50':>10}")
    for name in sorted(set(families.values())):
        keys = [key for key, fam in families.items() if fam == name]
        old, new = ([side[key] / 1e6 for key in keys] for side in best)
        print(f"{name:<28}{len(keys):>6}{sum(old):>10.3f}{sum(new):>10.3f}"
              f"{sum(new) / sum(old):>9.3f}{statistics.median(old):>10.4f}"
              f"{statistics.median(new):>10.4f}")


def summary(times_ns: dict) -> dict:
    times = list(times_ns.values())
    return {
        "ops_per_s": len(times) / (sum(times) / 1e9),
        "op_ms_p50": statistics.median(times) / 1e6,
        "op_ms_p90": statistics.quantiles(times, n=10)[8] / 1e6,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_root", type=Path)
    parser.add_argument("new_root", type=Path)
    parser.add_argument("--workload", choices=IN_PROCESS, required=True)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    sys.path.insert(0, str(BENCH))
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(prefix="ab-cells-") as tmp:
        sys.path.insert(0, tmp)
        libs = [import_copy(root.resolve(), f"matroot_{side}", Path(tmp))
                for root, side in ((args.old_root, "old"), (args.new_root, "new"))]
        sides = [cls(lib, args.seed, BENCH.parent) for lib in libs]
        best, failed = measure(sides, args.repeats, args.seed)
        searches = args.workload == "grid-crosscheck"
        families = {cell: family(libs[1], cell, exp, searches) for cell, exp in sides[1].cells}
    rows = [summary(b) for b in best]
    print(f"{args.workload}: {len(best[0])} operations x {args.repeats} repeats, "
          f"seed {args.seed}, fastest repeat per operation")
    print(f"{'side':<8}{'ops_per_s':>12}{'op_ms_p50':>12}{'op_ms_p90':>12}{'failed':>8}")
    for name, row, bad in (("old", rows[0], failed[0]), ("new", rows[1], failed[1])):
        print(f"{name:<8}{row['ops_per_s']:>12.1f}{row['op_ms_p50']:>12.4f}"
              f"{row['op_ms_p90']:>12.4f}{bad:>8}")
    print(f"{'new/old':<8}" + "".join(f"{rows[1][m] / rows[0][m]:>12.3f}" for m in rows[0]))
    by_family(best, families)
    return 0


if __name__ == "__main__":
    sys.exit(main())
