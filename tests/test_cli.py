"""Command line behaviour: JSON output, exit codes, round trips."""

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import matroot
from matroot import (
    CaseTag,
    Matrix,
    case_counterexample,
    identity,
    mat_pow,
    matrix_from_json,
    matrix_to_json,
    quadratic_factor_eval,
    scalar_matrix,
    scale_from_unit,
    shift_nilpotent,
    swap_block,
    theorem2_counterexample,
    verify_witness,
    witness_from_json,
)
from matroot import cli
from matroot.cli import main
from matroot.factors import _float_square


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_line(out):
    lines = [l for l in out.strip().splitlines() if l]
    assert len(lines) == 1, f"expected one JSON line, got {out!r}"
    return json.loads(lines[0])


# --- decide -------------------------------------------------------------------


def test_decide_true_cell_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "decide", "--k", "2", "--n", "3", "--a", "1")
    assert code == 0
    verdict = parse_line(out)
    assert verdict["holds"] is True
    assert verdict["mode"] == "closed-form"
    assert verdict["witness"] is None


def test_decide_refuted_cell_exits_three(capsys):
    code, out, _ = run_cli(capsys, "decide", "--k", "4", "--n", "4", "--a", "-1")
    assert code == 3
    verdict = parse_line(out)
    assert verdict["holds"] is False
    assert verdict["witness"]["tag"] == "theorem2-ce"


def test_decide_quarantined_cell_exits_four(capsys):
    code, out, err = run_cli(capsys, "decide", "--k", "2", "--n", "4", "--a", "-1")
    assert code == 4
    verdict = parse_line(out)
    assert verdict["quarantined"] is True
    assert verdict["witness"] is None
    assert "quarantined" in err


def test_decide_vacuous_cell(capsys):
    code, out, _ = run_cli(capsys, "decide", "--k", "3", "--n", "4", "--a", "-1")
    assert code == 0
    assert parse_line(out)["mode"] == "vacuous"


def test_decide_malformed_literal_exits_two(capsys):
    code, _, err = run_cli(capsys, "decide", "--k", "2", "--n", "2", "--a", "1.5x")
    assert code == 2
    assert "error" in err


def test_decide_rejects_tiny_orders(capsys):
    code, _, _ = run_cli(capsys, "decide", "--k", "1", "--n", "3", "--a", "1")
    assert code == 2


@pytest.mark.parametrize("a", ["1e400", "1e-400", "-1e400"])
def test_decide_beyond_the_float_range_refutes(capsys, a):
    # float(a) overflows or rounds to 0; |a|^(1/3) comes from exact logarithms
    code, out, _ = run_cli(capsys, "decide", "--k", "4", "--n", "3", "--a", a)
    assert code == 3 and json.loads(out)["holds"] is False


def test_decide_scale_factor_outside_the_float_range_is_a_usage_error(capsys):
    # 2e-700 has no rational square root, and its square root is below the floats
    code, _, err = run_cli(capsys, "decide", "--k", "4", "--n", "2", "--a", "2e-700")
    assert code == 2 and "error" in err


def test_decide_names_a_witness_entry_too_long_to_write(capsys):
    # the witness is 10^5000 times the exchange blocks: its entries have 5001 digits, more
    # than Python writes as text by default; the library's verdict still stands
    code, out, err = run_cli(capsys, "decide", "--k", "4", "--n", "2", "--a", "1e10000")
    assert (code, out) == (2, "")
    assert err == ("error: entry (0, 1): cannot write a rational of 5001 digits: more than "
                   "Python's limit on int to str\n")
    verdict = matroot.decide(matroot.ProblemInstance(4, 2, 10**10000))
    assert not verdict.holds and verdict.witness.matrix[0, 1] == 10**5000


@pytest.mark.parametrize("a", ["-1/3", "-1e6"])
def test_decide_takes_a_negative_literal_after_a_space(capsys, a):
    kn = ("--k", "4", "--n", "3")
    code, out, _ = run_cli(capsys, "decide", *kn, "--a", a)
    assert code == 3
    assert out == run_cli(capsys, "decide", *kn, f"--a={a}")[1]


def test_decide_far_from_unit_scale_refutes_and_verify_agrees(capsys, tmp_path):
    kn = ("--k", "4", "--n", "3")
    code, out, _ = run_cli(capsys, "decide", *kn, "--a", "1e12")
    assert code == 3
    path = tmp_path / "w.json"
    path.write_text(json.dumps(parse_line(out)["witness"]))
    code, out, _ = run_cli(capsys, "verify", str(path), *kn, "--a", "1e12")
    assert code == 3
    report = parse_line(out)
    assert report["equation_satisfied"] is True and report["sentence_value"] is False


def test_unknown_command_exits_two(capsys):
    assert run_cli(capsys, "frobnicate")[0] == 2


# --- construct -----------------------------------------------------------------


def test_construct_nilpotent_shift(capsys):
    code, out, _ = run_cli(
        capsys, "construct", "--tag", "nilpotent-shift", "--k", "5", "--n", "3"
    )
    assert code == 0
    data = parse_line(out)
    assert data["matrix"]["backend"] == "rational"
    assert matrix_from_json(data["matrix"]) == shift_nilpotent(5, 3)
    assert data["a"] == "0/1" and data["refutes_sentence"] == 1


def test_construct_case_i_is_swap_blocks(capsys):
    code, out, _ = run_cli(capsys, "construct", "--tag", "case-i", "--k", "4", "--n", "4")
    assert code == 0
    data = parse_line(out)
    from matroot import block_diag

    assert matrix_from_json(data["matrix"]) == block_diag([swap_block()] * 2)


def test_construct_theorem2_ce(capsys):
    code, out, _ = run_cli(
        capsys, "construct", "--tag", "theorem2-ce", "--k", "4", "--n", "4"
    )
    assert code == 0
    data = parse_line(out)
    assert data["refutes_sentence"] == 2
    assert data["matrix"]["backend"] == "real"


def test_construct_complex_ce_with_scalar(capsys):
    code, out, _ = run_cli(
        capsys, "construct", "--tag", "complex-ce", "--k", "2", "--n", "4", "--a", "16"
    )
    assert code == 0
    data = parse_line(out)
    assert data["matrix"]["backend"] == "complex"
    assert data["a"] == [16.0, 0.0]


def test_construct_complex_ce_takes_a_negative_literal_after_a_space(capsys):
    code, out, _ = run_cli(
        capsys, "construct", "--tag", "complex-ce", "--k", "3", "--n", "3", "--a", "-3+0.5j"
    )
    assert code == 0
    assert parse_line(out)["a"] == [-3.0, 0.5]


def test_construct_rejects_scalar_for_real_tags(capsys):
    code, _, err = run_cli(
        capsys, "construct", "--tag", "case-i", "--k", "4", "--n", "4", "--a", "2"
    )
    assert code == 2 and "complex-ce" in err


def test_construct_invalid_parity_exits_two(capsys):
    code, _, _ = run_cli(capsys, "construct", "--tag", "case-i", "--k", "3", "--n", "4")
    assert code == 2


@pytest.mark.parametrize("tag, k, n", [("case-i", 3, 4), ("case-iv", 2, 3), ("theorem2-ce", 2, 4),
                                       ("nilpotent-shift", 3, 4), ("case-v", 4, 1)], ids=str)
def test_an_invalid_construct_names_the_tag_and_the_cell(capsys, tag, k, n):
    code, out, err = run_cli(capsys, "construct", "--tag", tag, "--k", str(k), "--n", str(n))
    assert (code, out) == (2, "")
    assert err == f"error: no {tag} witness refutes a sentence at k = {k}, n = {n}\n"


def test_output_flag_writes_file_instead_of_stdout(capsys, tmp_path):
    out_path = tmp_path / "verdict.json"
    code, out, _ = run_cli(
        capsys, "decide", "--k", "2", "--n", "3", "--a", "1", "--output", str(out_path)
    )
    assert code == 0 and out == ""
    assert json.loads(out_path.read_text())["holds"] is True
    # a written construct file feeds straight back into verify
    witness_path = tmp_path / "w.json"
    code, out, _ = run_cli(
        capsys, "construct", "--tag", "case-i", "--k", "4", "--n", "4",
        "--output", str(witness_path),
    )
    assert code == 0 and out == ""
    code, _, _ = run_cli(
        capsys, "verify", str(witness_path), "--k", "4", "--n", "4", "--a", "1"
    )
    assert code == 3


def test_construct_conjugate_seed_is_deterministic(capsys):
    args = ("construct", "--tag", "case-i", "--k", "4", "--n", "4",
            "--conjugate-seed", "5")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    plain = run_cli(capsys, *args[:-2])[1]
    assert plain != out1


# --- verify ---------------------------------------------------------------------


def write_matrix(tmp_path, m, name="m.json"):
    path = tmp_path / name
    path.write_text(json.dumps(matrix_to_json(m)))
    return str(path)


def test_construct_then_verify_round_trip(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "construct", "--tag", "case-i", "--k", "4", "--n", "4")
    assert code == 0
    witness_path = tmp_path / "w.json"
    witness_path.write_text(out)
    code, out, _ = run_cli(
        capsys, "verify", str(witness_path), "--k", "4", "--n", "4", "--a", "1"
    )
    assert code == 3  # refuted
    report = parse_line(out)
    assert report["equation_satisfied"] is True
    assert report["is_simple_root"] is False
    assert report["factor_sum_zero"] is False
    assert report["sentence_value"] is False


def test_verify_simple_root_holds(capsys, tmp_path):
    path = write_matrix(tmp_path, scalar_matrix(2, 3, "rational"))
    code, out, _ = run_cli(capsys, "verify", path, "--k", "3", "--n", "2", "--a", "4")
    assert code == 0
    report = parse_line(out)
    assert report["is_simple_root"] is True and report["sentence_value"] is True


def test_verify_rotation_factor_sum_zero(capsys, tmp_path):
    from matroot import rotation
    import math

    path = write_matrix(tmp_path, rotation(2.0 * math.pi / 5.0))
    code, out, _ = run_cli(capsys, "verify", path, "--k", "2", "--n", "5", "--a", "1")
    assert code == 0
    assert parse_line(out)["factor_sum_zero"] is True


def test_verify_negative_even_reports_quadratic_indices(capsys, tmp_path):
    from matroot import rotation
    import math

    path = write_matrix(tmp_path, rotation(math.pi / 4.0))
    code, out, _ = run_cli(capsys, "verify", path, "--k", "2", "--n", "4", "--a", "-1")
    assert code == 0
    report = parse_line(out)
    assert report["quadratic_zero_indices"] == [1]
    assert report["sentence_value"] is True


def test_verify_complex_witness_against_its_own_a(capsys, tmp_path):
    path = tmp_path / "w.json"
    kn = ("--k", "3", "--n", "4")
    code, _, _ = run_cli(
        capsys, "construct", "--tag", "complex-ce", *kn, "--a", "2+1j", "--output", str(path)
    )
    assert code == 0
    code, out, _ = run_cli(capsys, "verify", str(path), *kn, "--a", "2+1j")
    assert code == 3  # refuted: the complex variant of sentence 1 fails here
    report = parse_line(out)
    assert report["equation_satisfied"] is True
    assert report["sentence_value"] is False
    assert verify_witness(witness_from_json(json.loads(path.read_text())))


@pytest.mark.parametrize("backend", ["rational", "real", "complex"])
def test_verify_with_a_complex_a_is_the_same_on_every_backend(capsys, tmp_path, backend):
    # diag(2, -2) squares to 4 I, is not the principal root 2 and X + 2 I is not O
    path = write_matrix(tmp_path, Matrix([[2, 0], [0, -2]], backend=backend))
    code, out, err = run_cli(capsys, "verify", path, "--k", "2", "--n", "2", "--a", "4+0j")
    assert (code, err) == (3, "")
    assert out == (
        '{"equation_satisfied": true, "is_simple_root": false, '
        '"factor_sum_zero": false, "sentence_value": false}\n'
    )
    code, out, _ = run_cli(capsys, "verify", path, "--k", "2", "--n", "2", "--a", "1+0.5j")
    assert code == 0 and parse_line(out)["equation_satisfied"] is False


@pytest.mark.parametrize("k, n", [(1, 2), (2, 1), (2, 0)])
def test_verify_checks_k_and_n_alike_for_a_real_and_a_complex_a(capsys, tmp_path, k, n):
    # a complex a takes the Witness path, which checks neither k nor n itself
    path = write_matrix(tmp_path, identity(k, "rational"))
    bad = f"k must be an integer >= 2, got {k}" if k < 2 else f"n must be an integer >= 2, got {n}"
    for a in ("1", "1+1j", "0j"):
        code, out, err = run_cli(capsys, "verify", path, "--k", str(k), "--n", str(n), "--a", a)
        assert (code, out, err) == (2, "", f"error: {bad}\n"), a


def test_verify_takes_a_negative_literal_after_a_space(capsys, tmp_path):
    kn = ("--k", "4", "--n", "3")
    path = tmp_path / "w.json"
    code, out, _ = run_cli(capsys, "decide", *kn, "--a=-1/3")
    path.write_text(json.dumps(parse_line(out)["witness"]))
    code, out, _ = run_cli(capsys, "verify", str(path), *kn, "--a", "-1/3")
    assert code == 3
    assert parse_line(out)["sentence_value"] is False


def test_verify_order_mismatch_exits_two(capsys, tmp_path):
    path = write_matrix(tmp_path, identity(3, "rational"))
    code, _, err = run_cli(capsys, "verify", path, "--k", "4", "--n", "2", "--a", "1")
    assert code == 2 and "order" in err


def test_verify_missing_file_exits_two(capsys, tmp_path):
    code, _, _ = run_cli(
        capsys, "verify", str(tmp_path / "nope.json"), "--k", "2", "--n", "2", "--a", "1"
    )
    assert code == 2


def test_verify_garbage_json_exits_two(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, _ = run_cli(capsys, "verify", str(path), "--k", "2", "--n", "2", "--a", "1")
    assert code == 2


def test_verify_json_nested_past_the_recursion_limit_exits_two(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    code, out, err = run_cli(capsys, "verify", str(path), "--k", "2", "--n", "2", "--a", "1")
    assert (code, out) == (2, "")
    assert err == f"error: {path}: JSON nested too deeply to read\n"


def test_decide_at_n_beyond_int64_refutes(capsys):
    # the factor sum's entries grow up to n = 2^65, which an int64 sum would wrap
    code, out, err = run_cli(capsys, "decide", "--k", "2", "--n", str(2**65), "--a", "1")
    assert (code, err) == (3, "")
    assert parse_line(out)["witness"]["tag"] == "case-i"


def test_decide_at_a_huge_n_and_an_a_with_no_integer_root_refutes_promptly():
    # 2 < 2^n: the integer root of 2 lies between 1 and 2 and takes no Newton step, which
    # once formed an n-bit power and ran for minutes; a timeout turns a hang into a failure
    proc = subprocess.run(
        [sys.executable, "-m", "matroot", "decide", "--k", "2", "--n", str(2**65), "--a", "2"],
        capture_output=True, text=True, env=_subprocess_env(), timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (3, "")
    assert parse_line(proc.stdout)["witness"]["tag"] == "case-i"


@pytest.mark.parametrize("n", [2**62, 2**64 + 1], ids=["2^62", "2^64+1"])
def test_search_at_zero_a_and_n_beyond_the_array_range_holds(capsys, n):
    code, out, err = run_cli(capsys, "search", "--k", "3", "--n", str(n), "--a", "0",
                             "--budget", "5")
    assert (code, err) == (0, "")
    assert parse_line(out) == {"holds": True, "mode": "search-exhausted", "witness": None,
                               "trials": 5, "quarantined": False}


@pytest.mark.parametrize("argv", [
    ("decide", "--k", "100000000", "--n", "4", "--a", "1"),
    ("construct", "--tag", "case-i", "--k", "100000000", "--n", "2"),
], ids=" ".join)
def test_an_array_beyond_memory_exits_two(capsys, argv):
    # numpy refuses the k x k witness before allocating it
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: Unable to allocate") and err.count("\n") == 1


def _cap_address_space():
    limit = 1 << 30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.parametrize("k, n, tag", [(3, 10**9 + 1, "case-iv"), (4, 10**18 + 1, "case-iii")],
                         ids=str)
def test_a_float_witness_rounding_breaks_at_a_huge_odd_n_exits_two_promptly(k, n, tag):
    # the witness builds the one block it places, not the table of (n - 1)/2 blocks, so it
    # fits in 1 GiB of address space; at such n X^n loses X^n = I to rounding, and decide
    # reports the witness it cannot re-verify as a usage error, not a crash
    proc = subprocess.run(
        [sys.executable, "-m", "matroot", "decide", "--k", str(k), "--n", str(n), "--a", "1"],
        capture_output=True, text=True, env=_subprocess_env(), timeout=60,
        preexec_fn=_cap_address_space,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith(f"error: the float {tag} witness at k = {k}, n = {n}, a = 1 ")
    assert "tolerance 1e-09" in proc.stderr and proc.stderr.count("\n") == 1


@pytest.mark.parametrize("command, flags", [("verify", ("--k", "2")), ("factor", ())])
def test_a_zero_denominator_entry_is_a_usage_error(capsys, tmp_path, command, flags):
    path = tmp_path / "bad.json"
    entries = ["1/1", "1/0", "0/1", "1/1"]
    path.write_text(json.dumps({"backend": "rational", "order": 2, "entries": entries}))
    code, out, err = run_cli(capsys, command, str(path), *flags, "--n", "2", "--a", "1")
    assert (code, out) == (2, "")
    assert err == "error: rational entry '1/0' is not a finite rational\n"


def test_verify_tolerance_env_override(capsys, tmp_path, monkeypatch):
    # a sloppy tolerance makes a float witness's factor sum look like zero;
    # exact backends ignore tolerances, so use the rotation-based family
    code, out, _ = run_cli(capsys, "construct", "--tag", "case-iii", "--k", "4", "--n", "3")
    (tmp_path / "w.json").write_text(out)
    args = ("verify", str(tmp_path / "w.json"), "--k", "4", "--n", "3", "--a", "1")
    assert run_cli(capsys, *args)[0] == 3  # honest tolerance: refuted
    monkeypatch.setenv("MATROOT_TOL", "10")
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    assert parse_line(out)["factor_sum_zero"] is True
    monkeypatch.setenv("MATROOT_TOL", "not-a-number")
    assert run_cli(capsys, *args)[0] == 2


# --- search ----------------------------------------------------------------------


def test_search_finds_counterexample(capsys):
    code, out, _ = run_cli(
        capsys, "search", "--k", "4", "--n", "3", "--a", "1",
        "--budget", "500", "--seed", "7",
    )
    assert code == 3
    verdict = parse_line(out)
    assert verdict["mode"] == "witness-found"
    assert verdict["witness"]["tag"] is None


def test_search_exhausts_true_cell(capsys):
    code, out, _ = run_cli(
        capsys, "search", "--k", "2", "--n", "3", "--a", "1",
        "--budget", "500", "--seed", "7",
    )
    assert code == 0
    assert parse_line(out)["mode"] == "search-exhausted"


def test_search_rejects_a_negative_seed(capsys):
    code, out, err = run_cli(capsys, "search", "--k", "3", "--n", "3", "--a", "1", "--seed", "-1")
    assert (code, out) == (2, "")
    assert err == "error: seed must be an integer >= 0, got -1\n"


def test_construct_rejects_a_negative_conjugation_seed(capsys):
    code, out, err = run_cli(capsys, "construct", "--tag", "case-i", "--k", "4", "--n", "4",
                             "--conjugate-seed", "-1")
    assert (code, out) == (2, "")
    assert err == "error: seed must be an integer >= 0, got -1\n"


def test_search_notes_vacuous_negative_cells(capsys):
    code, out, err = run_cli(
        capsys, "search", "--k", "3", "--n", "4", "--a", "-1",
        "--budget", "300", "--seed", "7",
    )
    assert code == 0
    assert parse_line(out)["mode"] == "search-exhausted"
    assert "vacuous" in err


# --- factor -----------------------------------------------------------------------


def test_factor_quadratics_report_zero_indices(capsys, tmp_path):
    from matroot import rotation
    import math

    path = write_matrix(tmp_path, rotation(math.pi / 4.0))
    code, out, _ = run_cli(capsys, "factor", path, "--n", "4", "--a", "-1")
    assert code == 0
    report = parse_line(out)
    assert report["sentence"] == 2 and report["variant"] == "minus-2cos"
    assert report["zero_indices"] == [1]
    assert [f["is_zero"] for f in report["factors"]] == [True, False]


def test_factor_geometric_sum_at_identity(capsys, tmp_path):
    path = write_matrix(tmp_path, identity(2, "rational"))
    code, out, _ = run_cli(capsys, "factor", path, "--n", "3", "--a", "1")
    assert code == 0
    report = parse_line(out)
    assert report["sentence"] == 1 and report["is_zero"] is False
    assert matrix_from_json(report["factor_sum"]) == scalar_matrix(3, 2, "rational")


def test_factor_zero_a_reports_top_power(capsys, tmp_path):
    a = shift_nilpotent(4, 4)
    path = write_matrix(tmp_path, a)
    code, out, _ = run_cli(capsys, "factor", path, "--n", "4", "--a", "0")
    assert code == 0
    report = parse_line(out)
    assert report["is_zero"] is False
    assert matrix_from_json(report["factor_sum"]) == mat_pow(a, 3)


def test_factor_beyond_the_float_range(capsys, tmp_path):
    # float(10^400) overflows: the root comes from the exact logarithms of a
    w = case_counterexample(CaseTag.CASE_III, 4, 3)
    path = write_matrix(tmp_path, scale_from_unit(w.matrix, 3, 10**400))
    code, out, _ = run_cli(capsys, "factor", path, "--n", "3", "--a", "1e400")
    assert code == 0
    assert parse_line(out)["is_zero"] is False


def test_factor_squares_x_once(capsys, tmp_path, monkeypatch):
    calls = []

    def counted(x):
        calls.append(x.array.shape)
        return _float_square(x)

    monkeypatch.setattr(cli, "_float_square", counted)
    path = write_matrix(tmp_path, theorem2_counterexample(4, 8).matrix)
    code, out, _ = run_cli(capsys, "factor", path, "--n", "8", "--a", "-1")
    assert code == 0 and calls == [(4, 4)]
    m = cli._load_matrix(path)
    want = [matrix_to_json(quadratic_factor_eval(m, 8, -1, i)) for i in range(1, 5)]
    assert [f["matrix"] for f in parse_line(out)["factors"]] == want


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("a", ["1", "-1"])
def test_factor_overflow_exits_two(capsys, tmp_path, a):
    # X^2 overflows: the geometric sum (a = 1) and the quadratics (a = -1) fail loudly
    path = write_matrix(tmp_path, Matrix([[1e200, 0.0], [0.0, 1.0]]))
    code, out, err = run_cli(capsys, "factor", path, "--n", "4", "--a", a)
    assert (code, out) == (2, "")
    assert "error: operation produced non-finite entries" in err


def _subprocess_env() -> dict:
    """The environment with this matroot's source tree first on PYTHONPATH."""
    src = str(Path(matroot.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}


@pytest.mark.parametrize("argv", [
    ["factor", "--n", "4", "--a", "1"],
    ["factor", "--n", "4", "--a", "-1"],
    ["verify", "--k", "2", "--n", "4", "--a", "-1"],
])
def test_overflow_reports_only_the_error_line(tmp_path, argv):
    # pytest captures warnings in process, so numpy's RuntimeWarnings show only here
    path = write_matrix(tmp_path, Matrix([[1e200, 0.0], [0.0, 1.0]]))
    proc = subprocess.run(
        [sys.executable, "-m", "matroot", argv[0], path, *argv[1:]],
        capture_output=True, text=True, env=_subprocess_env(),
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: operation produced non-finite entries\n"


# --- packaging ---------------------------------------------------------------------


def test_module_entry_point_runs_as_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "matroot", "decide", "--k", "2", "--n", "3", "--a", "1"],
        capture_output=True,
        text=True,
        env=_subprocess_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["holds"] is True
