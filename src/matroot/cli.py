"""Command line front end: decide / construct / verify / search / factor.

All structured output is single-line JSON on stdout (or in the file named
by --output); diagnostics go to stderr.  Exit codes form a stable contract
for scripting:

    0  the decided/verified sentence holds (or the command just succeeded)
    2  usage error: bad flags, malformed literals or files
    3  refuted: a verified witness falsifies the sentence
    4  quarantined cell: the closed form and empirical behaviour disagree
       (k = 2, n >= 4, a < 0 with n even) and no verdict is trusted

The environment variable MATROOT_TOL overrides the default absolute
tolerance (1e-9) for every tolerance-aware command; --tol (where offered)
overrides both.  decide, verify and search apply it at |a| = 1, where every
sentence is evaluated (see matroot.theorems); factor, at the scale of a.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

import numpy as np

from .core import (
    DEFAULT_TOLERANCE, Matrix, Tolerance, _checked_int, is_zero, matrix_from_json, matrix_to_json,
)
from .factors import RootConvention, _float_square, _quadratics, geometric_factor_sum
from .constructions import (
    CaseTag,
    Witness,
    complex_counterexample,
    conjugate_random,
    construct,
    witness_to_json,
)
from .instances import ProblemInstance, _sentence
from .theorems import _no_real_root, decide, evaluate, search_counterexample, verdict_to_json

EXIT_HOLDS = 0
EXIT_USAGE = 2
EXIT_REFUTED = 3
EXIT_QUARANTINED = 4

_CASE_TAGS = {t.value: t for t in CaseTag}


def _parse_real(text: str) -> Fraction:
    """Parse a decimal or p/q rational literal exactly."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational or decimal literal: {text!r}") from exc


def _parse_scalar(text: str):
    """Real literal, falling back to a Python complex literal like '1+2j'."""
    try:
        return _parse_real(text)
    except ValueError:
        try:
            return complex(text.strip().replace(" ", ""))
        except ValueError as exc:
            raise ValueError(f"not a real or complex literal: {text!r}") from exc


def _tolerance(args) -> Tolerance:
    absolute = DEFAULT_TOLERANCE.absolute
    env = os.environ.get("MATROOT_TOL")
    if env is not None:
        try:
            absolute = float(env)
        except ValueError as exc:
            raise ValueError(f"MATROOT_TOL is not a float: {env!r}") from exc
    if getattr(args, "tol", None) is not None:
        absolute = args.tol
    return Tolerance(absolute=absolute, relative=DEFAULT_TOLERANCE.relative)


def _emit(payload: dict, path: str | None = None) -> None:
    line = json.dumps(payload) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(line)
    else:
        sys.stdout.write(line)


def _load_matrix(path: str) -> Matrix:
    """Read a matrix from a JSON file; witness files contribute their matrix."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply to read") from None
    if isinstance(data, dict) and "matrix" in data and "entries" not in data:
        data = data["matrix"]
    return matrix_from_json(data)


def _cmd_decide(args) -> int:
    inst = ProblemInstance(args.k, args.n, _parse_real(args.a))
    verdict = decide(inst, _tolerance(args))
    _emit(verdict_to_json(verdict), args.output)
    if verdict.quarantined:
        print(f"note: k={inst.k}, n={inst.n}, a={inst.a}: the closed form says the "
              "sentence fails, but every 2x2 real root of a*I satisfies its own "
              "quadratic; cell quarantined, verdict not trusted", file=sys.stderr)
        return EXIT_QUARANTINED
    return EXIT_HOLDS if verdict.holds else EXIT_REFUTED


def _cmd_construct(args) -> int:
    tag = _CASE_TAGS[args.tag]
    if tag is CaseTag.COMPLEX_CE:
        a = _parse_scalar(args.a) if args.a is not None else 1
        witness = complex_counterexample(args.k, args.n, complex(a))
    elif args.a is not None:
        raise ValueError(f"--a is only meaningful for complex-ce, not {args.tag}")
    else:
        witness = construct(tag, args.k, args.n)
    if args.conjugate_seed is not None:
        witness = conjugate_random(witness, args.conjugate_seed)
    _emit(witness_to_json(witness), args.output)
    return EXIT_HOLDS


def _cmd_verify(args) -> int:
    m = _load_matrix(args.matrix_file)
    a = _parse_scalar(args.a)
    if isinstance(a, complex):  # the complex variant of sentence 1, as for a complex witness
        k, n = _checked_int("k", args.k, 2), _checked_int("n", args.n, 2)  # as on the real path
        inst = Witness(m, tag=None, k=k, n=n, a=a, refutes_sentence=None)
    else:
        inst = ProblemInstance(args.k, args.n, a)
    clauses = evaluate(m, inst, _tolerance(args))
    report: dict = {
        "equation_satisfied": clauses.equation,
        "is_simple_root": clauses.simple_root,
    }
    if clauses.sentence == 2:
        report["quadratic_zero_indices"] = list(clauses.zero_quadratics())
    else:
        report["factor_sum_zero"] = clauses.factor_sum_zero
    report["sentence_value"] = clauses.holds
    _emit(report, args.output)
    return EXIT_HOLDS if clauses.holds else EXIT_REFUTED


def _cmd_search(args) -> int:
    inst = ProblemInstance(args.k, args.n, _parse_real(args.a))
    verdict = search_counterexample(inst, args.budget, args.seed, _tolerance(args))
    _emit(verdict_to_json(verdict), args.output)
    if _no_real_root(inst):
        print(f"note: no real {inst.k}x{inst.k} matrix has an even power equal to "
              "a negative multiple of I (determinant parity); the sentence is "
              "vacuously true and the search has nothing to find", file=sys.stderr)
    return EXIT_HOLDS if verdict.holds else EXIT_REFUTED


def _cmd_factor(args) -> int:
    m = _load_matrix(args.matrix_file)
    a = _parse_real(args.a)
    if args.n < 2:
        raise ValueError(f"--n must be >= 2, got {args.n}")
    tol = _tolerance(args)
    if _sentence(args.n, a) == 2:
        square, factors = _float_square(m), []
        for i, row in enumerate(_quadratics(square, args.n, a, 1, args.n // 2 + 1), 1):
            value = Matrix._wrap(row, square[2])
            zero = is_zero(value, tol)
            factors.append({"i": i, "matrix": matrix_to_json(value), "is_zero": zero})
        zero_indices = [f["i"] for f in factors if f["is_zero"]]
        # "minus-2cos" is the only variant; the key is kept for the wire format
        payload = {"sentence": 2, "variant": "minus-2cos", "factors": factors,
                   "zero_indices": zero_indices}
    else:
        value = geometric_factor_sum(m, args.n, RootConvention.real(args.n, a))
        payload = {"sentence": 1, "factor_sum": matrix_to_json(value),
                   "is_zero": is_zero(value, tol)}
    _emit(payload, args.output)
    return EXIT_HOLDS


def _add_kn(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, required=True, help="matrix order (>= 2)")
    p.add_argument("--n", type=int, required=True, help="exponent (>= 2)")


def _add_output(p: argparse.ArgumentParser) -> None:
    p.add_argument("--output", metavar="PATH",
                   help="write the JSON result to a file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matroot",
        description="Decide, construct, verify, search and factor for the "
        "matrix equation X^n = a*I.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decide", help="closed-form verdict for (k, n, a)")
    _add_kn(p)
    p.add_argument("--a", required=True, help="rational ('p/q') or decimal literal")
    _add_output(p)
    p.set_defaults(func=_cmd_decide)

    p = sub.add_parser("construct", help="emit a witness construction as JSON")
    p.add_argument("--tag", required=True, choices=sorted(_CASE_TAGS), help="construction family")
    _add_kn(p)
    p.add_argument("--a", help="scalar a (complex-ce only; defaults to 1)")
    p.add_argument("--conjugate-seed", type=int, metavar="SEED",
                   help="conjugate the witness by a random unimodular matrix")
    _add_output(p)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="evaluate the applicable sentence at a matrix")
    p.add_argument("matrix_file", help="matrix or witness JSON file")
    _add_kn(p)
    p.add_argument("--a", required=True, help="rational, decimal or complex literal")
    p.add_argument("--tol", type=float, help="absolute tolerance, applied at |a| = 1")
    _add_output(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("search", help="randomized counterexample search")
    _add_kn(p)
    p.add_argument("--a", required=True, help="rational or decimal literal")
    p.add_argument("--budget", type=int, default=1000, help="candidates to try")
    p.add_argument("--seed", type=int, default=0, help="search RNG seed")
    p.add_argument("--tol", type=float, help="absolute tolerance, applied at |a| = 1")
    _add_output(p)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("factor", help="evaluate the factor polynomials at a matrix")
    p.add_argument("matrix_file", help="matrix or witness JSON file")
    p.add_argument("--n", type=int, required=True, help="exponent (>= 2)")
    p.add_argument("--a", required=True, help="rational or decimal literal")
    p.add_argument("--tol", type=float, help="absolute tolerance, at the scale of a")
    _add_output(p)
    p.set_defaults(func=_cmd_factor)

    return parser


def _bind_a(argv: list) -> list:
    """Glue '--a' to a following '-...' literal (-1/3, -1e6) argparse reads as an option."""
    out = []
    for tok in argv:
        if out and out[-1] == "--a" and tok[:1] == "-" and tok[:2] != "--":
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_bind_a(sys.argv[1:] if argv is None else list(argv)))
    except SystemExit as exc:  # argparse already reported the problem
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        # overflow is reported once, as the MatrixError of the kernel's result
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except (ValueError, TypeError, KeyError, OSError, OverflowError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
