"""Print one SHA-256 over what the command line gives on a fixed sweep of calls.

    python3 tools/cli_digest.py [ROOT]

ROOT is a checkout whose ``src/matroot`` is imported (default: the checkout that
holds this tool).  Every call runs ``matroot.cli.main`` in this process, and the
digest covers each call's arguments, exit code, stdout and stderr:

* ``construct`` for every tag, k and n in {2, 3, 4, 6}, plain and with
  ``--conjugate-seed`` 7 and 11;
* ``verify`` and ``factor`` of each witness built, at a in {1, -1, 0, 8, 1/8};
* ``decide`` over both acceptance grids (172 cells);
* ``search`` over the same cells at budget 20, seeds 0, 1 and 2.

Witness files go to a temporary directory, and the arguments are recorded with
the file's name in place of its path, so no path enters the digest.  A change
meant to keep the command line's output byte-identical keeps the digest.
``MATROOT_TOL`` is cleared first, so every call uses the default tolerance.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ORDERS = EXPONENTS = (2, 3, 4, 6)
CONJUGATE_SEEDS = (None, 7, 11)
SCALARS = ("1", "-1", "0", "8", "1/8")
SEARCH_SEEDS = (0, 1, 2)


def acceptance_cells() -> list:
    """The acceptance grids: 140 sentence-1 cells, then 32 sentence-2 cells."""
    cells = []
    for k in range(2, 9):
        for n in range(2, 10):
            cells += [(k, n, 1)] + [(k, n, -1)] * (n % 2) + [(k, n, 0)]
    return cells + [(k, n, -1) for n in (2, 4, 6, 8) for k in range(2, 10)]


def sweep(main, tags: list, workdir: Path):
    """Yield (recorded arguments, exit code, stdout, stderr) for every call of the sweep."""

    def run(argv: list, shown: list):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        return shown, code, out.getvalue(), err.getvalue()

    path = workdir / "witness.json"
    for tag in tags:
        for k in ORDERS:
            for n in EXPONENTS:
                for seed in CONJUGATE_SEEDS:
                    argv = ["construct", "--tag", tag, "--k", str(k), "--n", str(n)]
                    if seed is not None:
                        argv += ["--conjugate-seed", str(seed)]
                    record = run(argv, argv)
                    yield record
                    if record[1] != 0:
                        continue
                    path.write_text(record[2], encoding="utf-8")
                    for a in SCALARS:
                        for cmd, kn in (("verify", ["--k", str(k)]), ("factor", [])):
                            tail = [*kn, "--n", str(n), "--a", a]
                            yield run([cmd, str(path), *tail], [cmd, path.name, *tail])
    for k, n, a in acceptance_cells():
        argv = ["decide", "--k", str(k), "--n", str(n), "--a", str(a)]
        yield run(argv, argv)
    for seed in SEARCH_SEEDS:
        for k, n, a in acceptance_cells():
            argv = ["search", "--k", str(k), "--n", str(n), "--a", str(a), "--budget", "20",
                    "--seed", str(seed)]
            yield run(argv, argv)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    if len(args) > 1 or args and args[0].startswith("-"):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    root = Path(args[0] if args else Path(__file__).resolve().parent.parent).resolve()
    sys.path.insert(0, str(root / "src"))
    os.environ.pop("MATROOT_TOL", None)
    from matroot.cli import main as cli_main
    from matroot.constructions import CaseTag

    h, calls = hashlib.sha256(), 0
    with tempfile.TemporaryDirectory(prefix="cli-digest-") as tmp:
        for record in sweep(cli_main, [t.value for t in CaseTag], Path(tmp)):
            h.update(json.dumps(record).encode() + b"\n")
            calls += 1
    print(f"{h.hexdigest()}  {calls} calls")
    return 0


if __name__ == "__main__":
    sys.exit(main())
