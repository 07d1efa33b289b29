"""Decision procedures, sentence evaluators, and the search harness."""

import itertools
import json
import math
import numbers
import re
import sys
import threading
import warnings
from fractions import Fraction

import numpy as np
import pytest

import matroot.constructions as constructions
import matroot.core as core
import matroot.factors as factors
import matroot.theorems as theorems
from matroot import (
    ApplicabilityError,
    CaseTag,
    ConventionError,
    DimensionMismatch,
    Matrix,
    ProblemInstance,
    RootConvention,
    Tolerance,
    Verdict,
    VerdictMode,
    Witness,
    block_diag,
    case_counterexample,
    complex_counterexample,
    conjugate_random,
    decide,
    determinant,
    evaluate,
    generate_candidates,
    geometric_factor_sum,
    identity,
    is_quarantined,
    is_zero,
    mat_add,
    mat_eq,
    mat_pow,
    minus_identity_root_exists,
    rotation,
    scalar_matrix,
    scalar_mul,
    scale_from_unit,
    search_counterexample,
    sentence1_holds_for,
    sentence2_holds_for,
    swap_block,
    theorem1_holds,
    theorem2_holds,
    theorem2_counterexample,
    verdict_to_json,
    verify_witness,
    witness_from_json,
    witness_to_json,
    zeros,
)
from matroot.cli import main as cli_main
from matroot.constructions import _FLOAT_SHEARS, _RATIONAL_SHEARS_PER_ORDER, _exact_root
from matroot.core import _carried, _pow_ladder, as_backend
from matroot.factors import _quadratics, exact_nth_root, unit_factors

TOL = Tolerance(1e-9, 1e-9)


# --- regimes ---------------------------------------------------------------------


def test_regime_classification_is_total_and_disjoint():
    for n in range(2, 8):
        for a in (-2, -1, -0.5, 0, 0.5, 1, 2):
            inst = ProblemInstance(3, n, a)
            expects_two = a < 0 and n % 2 == 0
            assert (inst.sentence == 2) == expects_two
            assert (inst.sentence == 1) != expects_two


def test_instance_validation():
    with pytest.raises(ValueError):
        ProblemInstance(1, 3, 1)
    with pytest.raises(ValueError):
        ProblemInstance(3, 1, 1)
    with pytest.raises(ValueError):
        ProblemInstance(3, 3, float("nan"))
    with pytest.raises(ValueError):
        ProblemInstance(3, 3, 1j)
    for flag in (True, False):  # a bool is not taken as a = 1 or a = 0
        with pytest.raises(ValueError, match="a must be a real number"):
            ProblemInstance(3, 3, flag)


@pytest.mark.parametrize("k, n", [(np.int64(4), 3), (4, np.int32(3)), (np.uint8(4), np.int64(3))],
                         ids=repr)
def test_instance_stores_numpy_integers_as_ints(k, n):
    inst, plain = ProblemInstance(k, n, 1), ProblemInstance(4, 3, 1)
    assert type(inst.k) is int and type(inst.n) is int
    assert inst == plain and hash(inst) == hash(plain) and repr(inst) == repr(plain)
    assert json.dumps(verdict_to_json(decide(inst))) == json.dumps(verdict_to_json(decide(plain)))


class _Whole:
    """An Integral that is no int, as a gmpy2.mpz or a sympy.Integer is."""

    def __init__(self, value):
        self.value = value

    def __int__(self):
        return self.value

    def __lt__(self, other):
        return self.value < other


numbers.Integral.register(_Whole)


def test_instance_takes_any_integral_as_an_int():
    inst = ProblemInstance(_Whole(4), _Whole(3), 1)
    assert type(inst.k) is int and type(inst.n) is int and inst == ProblemInstance(4, 3, 1)
    with pytest.raises(ValueError, match="k must be an integer >= 2"):
        ProblemInstance(_Whole(1), 3, 1)
    assert minus_identity_root_exists(_Whole(4), _Whole(4)) is True  # the same check


@pytest.mark.parametrize(
    "name, value",
    [("k", True), ("k", 4.0), ("k", np.float64(4.0)), ("k", np.int64(1)), ("k", "4"),
     ("n", False), ("n", 3.0), ("n", np.float64(3.0)), ("n", np.bool_(True)), ("n", Fraction(3))],
    ids=repr,
)
def test_instance_rejects_what_is_not_an_integer_at_least_2(name, value):
    message = f"{name} must be an integer >= 2, got {value!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        ProblemInstance(**{"k": 4, "n": 3, "a": 1, name: value})


# --- closed forms -----------------------------------------------------------------


def test_theorem1_closed_form_examples():
    assert theorem1_holds(ProblemInstance(2, 3, 1)) is True
    assert theorem1_holds(ProblemInstance(5, 6, 0)) is True
    assert theorem1_holds(ProblemInstance(4, 3, 1)) is False
    assert theorem1_holds(ProblemInstance(2, 4, 1)) is False
    assert theorem1_holds(ProblemInstance(4, 4, 0)) is False
    with pytest.raises(ApplicabilityError):
        theorem1_holds(ProblemInstance(2, 4, -1))


def test_theorem2_closed_form_examples():
    assert theorem2_holds(ProblemInstance(3, 4, -1)) is True
    assert theorem2_holds(ProblemInstance(4, 2, -1)) is True
    assert theorem2_holds(ProblemInstance(4, 4, -1)) is False
    with pytest.raises(ApplicabilityError):
        theorem2_holds(ProblemInstance(4, 3, -1))


def test_minus_identity_root_existence():
    assert minus_identity_root_exists(3, 4) is False
    assert minus_identity_root_exists(2, 2) is True
    assert minus_identity_root_exists(4, 6) is True
    with pytest.raises(ApplicabilityError):
        minus_identity_root_exists(3, 3)
    with pytest.raises(ValueError, match="need k, n >= 2, got k = 1, n = 4"):
        minus_identity_root_exists(1, 4)
    for k, n in ((4.0, 4), (4, 4.0), (True, 4), (4, "4")):  # k and n are integers
        with pytest.raises(ValueError, match="must be an integer"):
            minus_identity_root_exists(k, n)
    assert minus_identity_root_exists(np.int64(4), np.int64(4)) is True


def test_minus_identity_root_witnesses():
    r = rotation(math.pi / 2.0)
    assert mat_eq(mat_pow(r, 2), scalar_matrix(-1.0, 2, "real"), TOL)
    m = block_diag([rotation(math.pi / 6.0)] * 2)
    assert mat_eq(mat_pow(m, 6), scalar_matrix(-1.0, 4, "real"), TOL)


# --- sentence evaluators --------------------------------------------------------------


def test_sentence1_true_at_simple_root():
    inst = ProblemInstance(3, 2, 4)
    assert sentence1_holds_for(scalar_matrix(2, 3, "rational"), inst) is True


def test_sentence1_false_at_swap_witness():
    inst = ProblemInstance(4, 4, 1)
    w = case_counterexample(CaseTag.CASE_I, 4, 4)
    assert sentence1_holds_for(w.matrix, inst) is False


def test_sentence1_true_when_factor_sum_vanishes():
    inst = ProblemInstance(2, 5, 1)
    assert sentence1_holds_for(rotation(2.0 * math.pi / 5.0), inst) is True


def test_sentence1_true_when_equation_fails():
    inst = ProblemInstance(2, 3, 1)
    assert sentence1_holds_for(Matrix([[2, 0], [0, 2]]), inst) is True


def test_sentence1_zero_a_paths():
    inst = ProblemInstance(4, 3, 0)
    from matroot import shift_nilpotent

    assert sentence1_holds_for(shift_nilpotent(4, 3), inst) is False  # index 3
    assert sentence1_holds_for(zeros(4, "rational"), inst) is True  # simple root
    assert sentence1_holds_for(shift_nilpotent(4, 2), inst) is True  # index 2
    assert sentence1_holds_for(identity(4, "rational"), inst) is True  # not a root


def test_sentence1_applicability_and_order_checks():
    with pytest.raises(ApplicabilityError):
        sentence1_holds_for(identity(2, "real"), ProblemInstance(2, 4, -1))
    with pytest.raises(DimensionMismatch):
        sentence1_holds_for(identity(3, "rational"), ProblemInstance(2, 3, 1))


def test_sentence1_matches_naive_reference_evaluation():
    # reference: evaluate the implication from scratch with naive powers and
    # an explicit monomial sum, no Horner, no binary exponentiation
    import numpy as np
    from matroot import mat_add, mat_mul, mat_sub, scalar_mul, zeros
    from matroot.factors import RootConvention

    def naive_pow(m, e):
        out = identity(m.order, m.backend)
        for _ in range(e):
            out = mat_mul(out, m)
        return out

    def reference(x, inst, tol):
        conv = RootConvention.real(inst.n, inst.a)
        target = scalar_matrix(float(inst.a), x.order, "real")
        if not mat_eq(naive_pow(x, inst.n), target, tol):
            return True
        if mat_eq(x, scalar_matrix(conv.root, x.order, "real"), tol):
            return True
        total = zeros(x.order, "real")
        for idx in range(inst.n):
            total = mat_add(total, scalar_mul(conv.root**idx, naive_pow(x, inst.n - 1 - idx)))
        return mat_eq(total, zeros(x.order, "real"), tol)

    rng = np.random.default_rng(31415)
    tol = Tolerance(1e-8, 1e-8)
    pool = [
        rotation(2.0 * math.pi / 5.0),
        scalar_mul(1.0, case_counterexample(CaseTag.CASE_I, 2, 2).matrix),
        scalar_matrix(1.0, 2, "real"),
        Matrix(rng.uniform(-2, 2, size=(2, 2))),
        Matrix(rng.uniform(-2, 2, size=(2, 2))),
        scalar_mul(-1.0, rotation(2.0 * math.pi / 3.0)),
    ]
    for x in pool:
        for n, a in [(2, 1), (3, 1), (5, 1), (3, -1), (4, 2.0), (6, 1)]:
            inst = ProblemInstance(2, n, a)
            assert sentence1_holds_for(x, inst, tol) == reference(x, inst, tol), (n, a)


def test_sentence2_existential_scans_past_the_first_index():
    # a pure j=2 block sum is annihilated by the second quadratic, not the first
    m = block_diag([rotation(3.0 * math.pi / 8.0)] * 2)
    inst = ProblemInstance(4, 8, -1)
    assert sentence2_holds_for(m, inst) is True
    from matroot import is_zero, quadratic_factor_eval

    assert not is_zero(quadratic_factor_eval(m, 8, -1, 1))
    assert is_zero(quadratic_factor_eval(m, 8, -1, 2))


def test_sentence2_trivial_and_witness_cases():
    assert sentence2_holds_for(rotation(math.pi / 2.0), ProblemInstance(2, 2, -1)) is True
    w = theorem2_counterexample(4, 4)
    assert sentence2_holds_for(w.matrix, ProblemInstance(4, 4, -1)) is False
    assert sentence2_holds_for(identity(4, "real"), ProblemInstance(4, 4, -1)) is True
    with pytest.raises(ApplicabilityError):
        sentence2_holds_for(identity(2, "real"), ProblemInstance(2, 3, -1))


def _evaluator_cases():
    """Every decide witness of both acceptance grids, plain and conjugated,
    plus the complex-scalar construction."""
    cells = [
        (k, n, a)
        for k in range(2, 9)
        for n in range(2, 10)
        for a in (1, -1, 0)
        if a != -1 or n % 2 == 1
    ]
    cells += [(k, n, -1) for n in (2, 4, 6, 8) for k in range(2, 10)]
    for k, n, a in cells:
        w = decide(ProblemInstance(k, n, a)).witness
        if w is not None:
            name = f"{w.tag.value}-k{k}-n{n}-a{a}"
            yield pytest.param(w, id=name)
            yield pytest.param(conjugate_random(w, k * n), id=f"{name}-conjugated")
    yield pytest.param(complex_counterexample(3, 4, 2j), id="complex-ce-k3-n4")


@pytest.mark.parametrize("w", _evaluator_cases())
def test_one_evaluator_behind_cli_verify_and_verify_witness(w, tmp_path, capsys):
    clauses = evaluate(w.matrix, w)
    assert verify_witness(w) and clauses.equation and not clauses.holds
    if isinstance(w.a, complex):  # no real instance, so no CLI or sentence predicate
        return
    holds_for = sentence1_holds_for if w.refutes_sentence == 1 else sentence2_holds_for
    assert holds_for(w.matrix, w.instance) is False
    path = tmp_path / "w.json"
    path.write_text(json.dumps(witness_to_json(w)))
    argv = ["verify", str(path), "--k", str(w.k), "--n", str(w.n), f"--a={w.a}"]
    code = cli_main(argv)
    report = json.loads(capsys.readouterr().out)
    expected = {
        "equation_satisfied": clauses.equation,
        "is_simple_root": clauses.simple_root,
    }
    if clauses.sentence == 2:
        expected["quadratic_zero_indices"] = list(clauses.zero_quadratics())
    else:
        expected["factor_sum_zero"] = clauses.factor_sum_zero
    expected["sentence_value"] = clauses.holds
    assert list(report.items()) == list(expected.items())
    assert code == (0 if clauses.holds else 3)


def test_non_root_never_reaches_a_factor_polynomial(monkeypatch):
    def forbidden(*args):
        raise AssertionError("a factor polynomial was evaluated")

    # the kernels the clauses call: the factor sum and the quadratic broadcast
    monkeypatch.setattr(theorems, "_geometric_sum", forbidden)
    monkeypatch.setattr(theorems, "_quadratics", forbidden)
    non_roots = [
        (scalar_matrix(2, 3, "rational"), ProblemInstance(3, 3, 1)),
        (Matrix([[2.0, 1.0], [0.0, 2.0]]), ProblemInstance(2, 5, 2)),
        (identity(4, "real"), ProblemInstance(4, 4, -1)),
        (identity(4, "rational"), ProblemInstance(4, 3, 0)),
    ]
    for x, inst in non_roots:
        clauses = evaluate(x, inst)
        assert clauses.holds and not clauses.equation
        assert "factor_sum_zero" not in vars(clauses)
    with pytest.raises(AssertionError):  # a root does reach its factor sum
        evaluate(rotation(2.0 * math.pi / 5.0), ProblemInstance(2, 5, 1)).holds
    with pytest.raises(AssertionError):  # and its quadratics
        evaluate(theorem2_counterexample(4, 4).matrix, ProblemInstance(4, 4, -1)).holds


def test_sentence_two_squares_each_matrix_once():
    # all six quadratics read X^2 from the equation's ladder: evaluating the sentence takes
    # the products of X^12 and not one more, at one matrix and at a stack
    inst = ProblemInstance(4, 12, -1)
    w = theorem2_counterexample(4, 12)  # no quadratic vanishes: all six are evaluated
    for arr in (w.matrix.array, np.stack([w.matrix.array, -w.matrix.array])):
        x = Matrix._wrap(arr.copy().view(_CountedArray), "real")
        _CountedArray.products = 0
        mat_pow(x, 12)
        assert _CountedArray.products == 4  # X^2, X^4, X^8 and X^4 X^8
        _CountedArray.products = 0
        clauses = evaluate(x, inst)
        assert not np.any(clauses.holds) and "equation" in vars(clauses)
        if arr.ndim == 2:
            assert list(clauses.zero_quadratics()) == []
        assert _CountedArray.products == 4


def test_sentence_two_squares_an_exact_matrix_in_floats():
    # an exact X has an exact ladder; its quadratics read X^2 squared in floats, as before
    r = Matrix([[0, -1], [1, 0]])  # a quarter turn: X^6 = -I
    x, inst = block_diag([r, r]), ProblemInstance(4, 6, -1)
    exact, real = evaluate(x, inst), evaluate(as_backend(x, "real"), inst)
    assert exact._x.array.dtype == np.float64 and exact._x.backend == "rational"
    assert exact.holds and real.holds
    assert list(exact.zero_quadratics()) == list(real.zero_quadratics()) == [2]


def test_verify_witness_wraps_only_the_scaled_matrix(monkeypatch):
    # the clause chain runs on bare arrays: of a scaled float sentence-1 witness, only the
    # scaling to unit scale is wrapped (the power and the factor sum were too, before)
    w = decide(ProblemInstance(8, 7, 2)).witness
    assert w.matrix.backend == "real" and w.refutes_sentence == 1
    shapes, wrap = [], Matrix._wrap.__func__

    def counted(cls, arr, backend):
        shapes.append(arr.shape)
        return wrap(cls, arr, backend)

    monkeypatch.setattr(Matrix, "_wrap", classmethod(counted))
    assert verify_witness(w)
    assert shapes == [(8, 8)]


def test_a_stack_computes_its_power_once(monkeypatch):
    # the zero matrix settles as a simple root and the order-3 shift stays open;
    # its factor sum X^3 is read from the stack's own power, not recomputed
    calls = []

    def counted(x, n):
        calls.append((x.array.shape, n))
        return _pow_ladder(x, n)

    monkeypatch.setattr(theorems, "_pow_ladder", counted)
    arr = np.zeros((2, 3, 3))  # a carried stack, as the search builds one
    arr[1, [0, 1], [1, 2]] = 1
    clauses = evaluate(Matrix._wrap(arr, "rational"), ProblemInstance(3, 4, 0))
    assert list(clauses.holds) == [True, True]
    assert list(clauses.simple_root) == [True, False]
    assert list(clauses.factor_sum_zero) == [True, True]
    assert calls == [((2, 3, 3), 3)]


def _sentence2_pool():
    """(x, inst) for sentence 2, plain, conjugated, and lifted to a = -3: the block sums
    of one quadratic factor of x^n + 1, at which that factor vanishes, and the sum of two
    different ones and the theorem-2 witness, at which none does."""
    from matroot import conjugate_matrix

    for k in (2, 4, 6):
        for n in (2, 4, 6, 8, 12, 16):
            blocks = [Matrix._wrap(b.copy(), "real") for b in unit_factors(n, -1)[1]]
            sums = [block_diag([b] * (k // 2)) for b in blocks[:3]]
            if k >= 4 and n >= 4:
                sums += [block_diag([blocks[0], blocks[-1]] + blocks[:1] * (k // 2 - 2)),
                         theorem2_counterexample(k, n).matrix]
            for x in sums:
                for y in (x, conjugate_matrix(x, k * n)):
                    yield y, ProblemInstance(k, n, -1)
                    yield scale_from_unit(y, n, -3), ProblemInstance(k, n, -3)


@pytest.mark.parametrize("entries", [2**14, 16, 40], ids=str)
def test_zero_quadratics_are_the_indices_of_the_vanishing_quadratic_factors(entries, monkeypatch):
    # the broadcast, in chunks of one quadratic (16 entries at k = 4) up to all of them,
    # finds the same indices as one quadratic_factor_eval per index
    from matroot import is_zero, quadratic_factor_eval

    monkeypatch.setattr(factors, "_QUADRATIC_ENTRIES", entries)
    for x, inst in _sentence2_pool():
        clauses = evaluate(x, inst)
        q = range(1, inst.n // 2 + 1)
        want = [i for i in q if is_zero(quadratic_factor_eval(clauses.x, inst.n, -1, i))]
        assert list(clauses.zero_quadratics()) == want
        assert clauses.equation and clauses.holds is bool(want)


def test_a_stack_settles_each_matrix_by_its_own_quadratics(monkeypatch):
    monkeypatch.setattr(factors, "_QUADRATIC_ENTRIES", 40)
    pool = [(x, inst) for x, inst in _sentence2_pool() if inst.a == -1 and inst.k == 4]
    for n in (4, 8, 16):
        xs = [x.array for x, inst in pool if inst.n == n]
        stack = evaluate(Matrix._wrap(np.stack(xs), "real"), ProblemInstance(4, n, -1))
        want = [evaluate(Matrix._wrap(x.copy(), "real"), ProblemInstance(4, n, -1)).holds
                for x in xs]
        assert list(stack.holds) == want and True in want and False in want


class _CountedArray(np.ndarray):
    """An array that counts the matrix products taken of it, and of every array made from it."""

    products = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            _CountedArray.products += 1
        out = getattr(ufunc, method)(*(np.asarray(v) for v in inputs), **kwargs)
        return out.view(_CountedArray) if isinstance(out, np.ndarray) else out


@pytest.mark.parametrize("cell", [(4, 200001, 1), (4, 131072, 1), (3, 65535, -1)], ids=str)
def test_the_equation_and_the_factor_sum_take_logarithmically_many_products(cell):
    # the factor sum reads the squares of the equation's power: together they take at
    # most 2 * (bit_length(n) + popcount(n)) products, where Horner alone took n - 2 more
    n = cell[1]
    w = decide(ProblemInstance(*cell)).witness
    x = Matrix._wrap(w.matrix.array.view(_CountedArray), w.matrix.backend)
    _CountedArray.products = 0
    clauses = evaluate(x, w)
    assert clauses.equation and not clauses.holds and "factor_sum_zero" in vars(clauses)
    assert 0 < _CountedArray.products <= 2 * (n.bit_length() + bin(n).count("1"))


@pytest.mark.parametrize("cell", [(4, 200001, 1), (4, 200000, -1), (8, 20000, -3)], ids=str)
def test_large_n_cells_decide_and_verify(cell):
    verdict = decide(ProblemInstance(*cell))
    assert not verdict.holds and verify_witness(verdict.witness)
    clauses = evaluate(verdict.witness.matrix, verdict.witness)
    assert clauses.equation and not clauses.simple_root
    if clauses.sentence == 2:
        assert list(clauses.zero_quadratics()) == []
    else:
        assert not clauses.factor_sum_zero


def test_cli_verify_computes_each_quadratic_chunk_once(tmp_path, capsys, monkeypatch):
    # the report reads zero_quadratics() and then holds; both read the same chunks
    calls = []

    def counted(square, n, a, first, stop):
        calls.append(first)
        return _quadratics(square, n, a, first, stop)

    monkeypatch.setattr(theorems, "_quadratics", counted)
    w = theorem2_counterexample(4, 200000)
    path = tmp_path / "w.json"
    path.write_text(json.dumps(witness_to_json(w)))
    assert cli_main(["verify", str(path), "--k", "4", "--n", "200000", "--a=-1"]) == 3
    report = json.loads(capsys.readouterr().out)
    assert report["quadratic_zero_indices"] == [] and report["sentence_value"] is False
    firsts = list(evaluate(w.matrix, w)._firsts)
    assert len(firsts) == 98 and calls == firsts


def test_sentence_two_holds_a_bounded_number_of_chunk_entries():
    # 100000 quadratics at (4, 200000, -1): the broadcast holds a few chunks of at most
    # _QUADRATIC_ENTRIES floats at a time, never one 4 x 4 matrix per quadratic (12.8 MB)
    import tracemalloc

    w = decide(ProblemInstance(4, 200000, -1)).witness
    tracemalloc.start()
    try:
        assert verify_witness(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 8 * factors._QUADRATIC_ENTRIES


def test_exact_unit_stacks_are_evaluated_on_the_float64_carrier(monkeypatch):
    dtypes, evaluate_stack = [], theorems.evaluate

    def recorded(x, inst, tol=TOL):
        dtypes.append(x.array.dtype)
        return evaluate_stack(x, inst, tol)

    monkeypatch.setattr(theorems, "evaluate", recorded)
    verdict = search_counterexample(ProblemInstance(4, 2, 1), 50, 0)
    assert not verdict.holds and dtypes and set(dtypes) == {np.dtype(np.float64)}
    assert {type(e) for e in verdict.witness.matrix.entries()} == {int}
    assert verify_witness(verdict.witness)


def test_only_real_streams_are_sheared(monkeypatch):
    # integer similarity moves no exact clause, so exact sums are searched as built
    sheared, calls = theorems._sheared, []

    def refused(*args):
        raise AssertionError("an exact stack was sheared")

    monkeypatch.setattr(theorems, "_sheared", refused)
    for cell in ((5, 3, 0), (4, 2, 1), (4, 2, 4)):
        inst = ProblemInstance(*cell)
        for seed in (0, 1, 2):
            search_counterexample(inst, 50, seed)
            cands = np.array([c.array.tolist() for c in generate_candidates(inst, 50, seed)])
            if inst.a == 0:  # 0/1 shifts: ones on the superdiagonal and nowhere else
                assert set(np.unique(cands)) <= {0, 1}
                assert not np.triu(cands, 2).any() and not np.tril(cands).any()

    def recorded(*args):
        calls.append(args[0].dtype)
        return sheared(*args)

    monkeypatch.setattr(theorems, "_sheared", recorded)
    search_counterexample(ProblemInstance(3, 4, 1), 50, 0)
    assert calls and set(calls) == {np.dtype(float)}


# --- decide ------------------------------------------------------------------------------


def test_decide_vacuous_cell():
    v = decide(ProblemInstance(3, 4, -1))
    assert v.holds and v.mode is VerdictMode.VACUOUS and v.witness is None


def test_decide_attaches_case_three_witness():
    v = decide(ProblemInstance(4, 3, 1))
    assert not v.holds
    assert v.witness.tag is CaseTag.CASE_III
    assert verify_witness(v.witness)


def test_decide_attaches_case_two_witness():
    v = decide(ProblemInstance(3, 2, 1))
    assert not v.holds
    assert v.witness.tag is CaseTag.CASE_II
    assert verify_witness(v.witness)


def test_decide_zero_a_routes_to_nilpotent_shift():
    v = decide(ProblemInstance(4, 3, 0))
    assert not v.holds and v.witness.tag is CaseTag.NILPOTENT_SHIFT
    assert verify_witness(v.witness)
    assert decide(ProblemInstance(5, 6, 0)).holds


def test_decide_true_cells():
    assert decide(ProblemInstance(2, 3, 1)).holds
    assert decide(ProblemInstance(2, 9, -1)).holds
    assert decide(ProblemInstance(4, 2, -1)).holds
    assert decide(ProblemInstance(2, 7, Fraction(5, 3))).holds


def test_decide_quarantined_cells_have_no_witness():
    for n in (4, 6, 8):
        v = decide(ProblemInstance(2, n, -1))
        assert v.quarantined and not v.holds and v.witness is None
    assert not decide(ProblemInstance(2, 2, -1)).quarantined
    assert not decide(ProblemInstance(4, 4, -1)).quarantined
    assert is_quarantined(ProblemInstance(2, 4, -0.5))
    assert not is_quarantined(ProblemInstance(2, 4, 1))


def test_decide_scales_witnesses_for_general_a():
    v = decide(ProblemInstance(2, 2, 4))
    assert not v.holds
    assert v.witness.matrix == scalar_mul(2, swap_block())  # exact rational scaling
    assert v.witness.a == 4
    assert verify_witness(v.witness)

    v = decide(ProblemInstance(3, 3, -8))
    assert not v.holds and v.witness.tag is CaseTag.CASE_VI
    assert mat_eq(
        mat_pow(v.witness.matrix, 3), scalar_matrix(-8.0, 3, "real"), TOL
    )
    assert verify_witness(v.witness)


def test_decide_negative_even_witness_cell():
    v = decide(ProblemInstance(4, 4, -1))
    assert not v.holds and v.witness.tag is CaseTag.THEOREM2_CE
    assert verify_witness(v.witness)


def test_decide_is_deterministic():
    a = verdict_to_json(decide(ProblemInstance(6, 3, 1)))
    b = verdict_to_json(decide(ProblemInstance(6, 3, 1)))
    assert json.dumps(a) == json.dumps(b)


def test_verdict_invariants_enforced():
    with pytest.raises(ValueError):
        Verdict(holds=False, mode=VerdictMode.CLOSED_FORM)
    with pytest.raises(ValueError):
        Verdict(holds=False, mode=VerdictMode.VACUOUS, quarantined=True)


# --- search -----------------------------------------------------------------------------


def test_search_exhausts_on_true_cell():
    v = search_counterexample(ProblemInstance(2, 3, 1), budget=300, seed=7)
    assert v.holds and v.mode is VerdictMode.SEARCH_EXHAUSTED and v.trials == 300


def test_search_finds_swap_family_quickly():
    v = search_counterexample(ProblemInstance(4, 4, 1), budget=1000, seed=3)
    assert not v.holds and v.mode is VerdictMode.WITNESS_FOUND
    assert v.trials <= 1000 and v.witness.tag is None
    assert v.witness.refutes_sentence == 1
    assert verify_witness(v.witness)


def test_search_exhausts_on_zero_a_true_cell():
    v = search_counterexample(ProblemInstance(5, 6, 0), budget=500, seed=11)
    assert v.holds and v.mode is VerdictMode.SEARCH_EXHAUSTED


def test_search_finds_nilpotent_counterexample():
    v = search_counterexample(ProblemInstance(5, 3, 0), budget=500, seed=2)
    assert not v.holds
    w = v.witness
    assert mat_pow(w.matrix, 3) == zeros(5, "rational")
    assert mat_pow(w.matrix, 2) != zeros(5, "rational")


def test_search_finds_mixed_angle_negative_even_counterexample():
    v = search_counterexample(ProblemInstance(4, 4, -1), budget=500, seed=5)
    assert not v.holds and v.witness.refutes_sentence == 2
    assert verify_witness(v.witness)


def test_search_is_deterministic_in_seed():
    a = search_counterexample(ProblemInstance(4, 4, 1), budget=200, seed=21)
    b = search_counterexample(ProblemInstance(4, 4, 1), budget=200, seed=21)
    assert verdict_to_json(a) == verdict_to_json(b)


def test_search_exhausts_on_quarantined_cell():
    # the empirical half of the quarantine story: every 2x2 root of -I
    # satisfies its own quadratic, so nothing is ever found here even though
    # the closed form claims the sentence fails
    v = search_counterexample(ProblemInstance(2, 4, -1), budget=500, seed=1)
    assert v.mode is VerdictMode.SEARCH_EXHAUSTED
    assert decide(ProblemInstance(2, 4, -1)).quarantined


def test_search_rejects_silly_budget():
    with pytest.raises(ValueError):
        search_counterexample(ProblemInstance(2, 3, 1), budget=0, seed=1)


def test_search_respects_scaled_instances():
    v = search_counterexample(ProblemInstance(4, 2, 9), budget=300, seed=13)
    assert not v.holds
    assert mat_eq(
        mat_pow(v.witness.matrix, 2),
        scalar_matrix(Fraction(9), 4, "rational")
        if v.witness.matrix.backend == "rational"
        else scalar_matrix(9.0, 4, "real"),
        TOL,
    )


# --- candidate generator ------------------------------------------------------------------


def test_zero_a_candidates_are_nilpotent_of_bounded_index():
    inst = ProblemInstance(5, 7, 0)
    for cand in generate_candidates(inst, 200, seed=17):
        assert cand.backend == "rational"
        assert mat_pow(cand, 5) == zeros(5, "rational")  # index <= k
        assert mat_pow(cand, 6) == zeros(5, "rational")  # consequence for n-1 >= k


def test_unit_candidates_satisfy_their_equation():
    inst = ProblemInstance(4, 4, 1)
    eye = identity(4, "rational")
    for cand in generate_candidates(inst, 100, seed=19):
        if cand.backend == "rational":
            assert mat_pow(cand, 4) == eye
        else:
            assert mat_eq(mat_pow(cand, 4), identity(4, "real"), Tolerance(1e-8, 1e-8))


def test_negative_even_odd_order_candidates_all_miss_minus_identity():
    # determinant parity obstruction: no real odd-order matrix has an even
    # power equal to -I; padded candidates must fail the equation
    inst = ProblemInstance(5, 4, -1)
    target = scalar_matrix(-1.0, 5, "real")
    seen = 0
    for cand in generate_candidates(inst, 200, seed=23):
        seen += 1
        assert not mat_eq(mat_pow(scalar_mul(1.0, cand), 4), target, Tolerance(1e-8, 1e-8))
        det = determinant(scalar_mul(1.0, cand))
        assert det**4 >= 0 > -1
    assert seen == 200


def test_zero_a_candidates_are_roots_when_n_is_below_k():
    inst = ProblemInstance(6, 3, 0)
    for cand in generate_candidates(inst, 200, seed=37):
        assert mat_pow(cand, 3) == zeros(6, "rational")


@pytest.mark.parametrize(
    "cell", [(8, 2, 0), (12, 2, 0), (12, 3, 0), (16, 2, 0), (16, 3, 0), (16, 4, 0), (16, 9, 0)]
)
def test_search_refutes_zero_a_cells_with_n_below_k(cell):
    verdict = search_counterexample(ProblemInstance(*cell), 50, 0)
    assert verdict.mode is VerdictMode.WITNESS_FOUND and verdict.trials <= 2
    assert verify_witness(verdict.witness)
    # the search computes on int64, but its witness holds Python ints
    matrix = verdict.witness.matrix
    assert matrix.array.dtype == object and all(type(e) is int for e in matrix.entries())
    entries = witness_to_json(verdict.witness)["matrix"]["entries"]
    assert all(e.endswith("/1") for e in entries) and "1/1" in entries


@pytest.mark.parametrize("seed", [-1, 1.5, True, "3"])
def test_search_rejects_a_seed_that_is_not_a_non_negative_integer(seed):
    inst = ProblemInstance(3, 3, 1)
    message = f"seed must be an integer >= 0, got {seed!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        search_counterexample(inst, 10, seed)
    with pytest.raises(ValueError, match=re.escape(message)):
        next(generate_candidates(inst, 10, seed))
    with pytest.raises(ValueError, match=re.escape(message)):  # before the no-draw shortcut
        search_counterexample(ProblemInstance(5, 4, -1), 10, seed)


def test_search_accepts_numpy_integer_seeds():
    inst = ProblemInstance(4, 4, 1)
    want = verdict_to_json(search_counterexample(inst, 20, 5))
    assert verdict_to_json(search_counterexample(inst, 20, np.int64(5))) == want


@pytest.mark.parametrize("value", [0, -3, 2.5, True, "4", np.float64(3.0)], ids=repr)
def test_search_rejects_a_budget_or_count_that_is_not_a_positive_integer(value):
    message = "{} must be an integer >= 1, got " + repr(value)
    for inst in (ProblemInstance(3, 3, 1), ProblemInstance(5, 4, -1)):  # draws, and draws nothing
        with pytest.raises(ValueError, match=re.escape(message.format("budget"))):
            search_counterexample(inst, value, 0)
        with pytest.raises(ValueError, match=re.escape(message.format("count"))):
            next(generate_candidates(inst, value, 0))


def test_generate_candidates_checks_its_arguments_at_the_call():
    for inst in (ProblemInstance(3, 3, 1), ProblemInstance(5, 4, -1)):  # draws, and draws nothing
        with pytest.raises(ValueError, match=re.escape("count must be an integer >= 1, got 0")):
            generate_candidates(inst, 0, 0)
        with pytest.raises(ValueError, match=re.escape("seed must be an integer >= 0, got -1")):
            generate_candidates(inst, 5, -1)


def test_search_accepts_numpy_integer_budgets_and_counts():
    for inst in (ProblemInstance(4, 4, 1), ProblemInstance(2, 3, 1), ProblemInstance(5, 4, -1)):
        verdict = search_counterexample(inst, np.int64(20), 5)
        assert type(verdict.trials) is int
        want = json.dumps(verdict_to_json(search_counterexample(inst, 20, 5)))
        assert json.dumps(verdict_to_json(verdict)) == want
        got, want = generate_candidates(inst, np.int64(7), 5), generate_candidates(inst, 7, 5)
        assert [c.entries() for c in got] == [c.entries() for c in want]


@pytest.mark.parametrize("cell", [(4, 2, 1), (5, 2, 4), (4, 2, Fraction(1, 4)), (5, 3, 0)], ids=str)
def test_no_carried_float_leaves_the_search(cell):
    # exact stacks are built on the float64 carrier; what the search hands out holds
    # Python ints and Fractions, with every integral entry an int
    inst = ProblemInstance(*cell)
    matrices, witnesses = [], 0
    for seed in (0, 1, 2):
        matrices += generate_candidates(inst, 61, seed)
        verdict = search_counterexample(inst, 61, seed)
        if verdict.witness is not None:
            matrices.append(verdict.witness.matrix)
            witnesses += 1
    assert witnesses == 3
    for m in matrices:
        assert m.backend == "rational" and m.array.dtype == object
        assert all(type(e) is int or type(e) is Fraction and e.denominator != 1
                   for e in m.entries())


def _exact_stream_cells():
    """Every acceptance-grid cell whose candidates are built exactly: a = 0, or n = 2 and
    a = 1 (x^2 + 1 has no real root, so a = -1 draws rotation blocks, on floats)."""
    return [c for c in _acceptance_cells() if c[2] == 0 or c[1:] == (2, 1)]


@pytest.mark.parametrize("seed", [0, 1, 12345])
def test_exact_stack_outputs_hold_python_ints(seed):
    # the exact stacks are carried on float64; no float, and no -0.0, reaches a caller
    matrices = []
    for cell in _exact_stream_cells():
        inst = ProblemInstance(*cell)
        matrices += generate_candidates(inst, 70, seed)
        verdict = search_counterexample(inst, 70, seed)
        if verdict.witness is not None:
            matrices.append(verdict.witness.matrix)
    assert len(_exact_stream_cells()) == 63
    assert len(matrices) > 70 * 63  # some searches found a witness
    for m in matrices:
        assert m.backend == "rational" and m.array.dtype == object
        assert all(type(e) is int for e in m.array.flat), m


# The trials of seeds 0, 1 and 2 at budget 50 on every cell of both acceptance
# grids, in the order of _acceptance_cells; "-" marks a cell whose three searches
# exhaust (holds, trials 50).  Two lines per k = 2..8 of the sentence-1 grid
# (n = 2..5, then n = 6..9), then one per n = 2, 4, 6, 8 of the sentence-2 grid.
# The acceptance tests check verdicts only, so this table is what notices a stream
# change that moves a refuting search's trials.  A deliberate change of the
# candidate stream regenerates it and says so in CHANGES.md.
PINNED_TRIALS = """
2,1,1 1,1,2 - - - 2,12,1 - - - -
2,12,1 - - - - 2,12,1 - - - -
1,1,1 1,1,2 1,1,2 1,1,2 2,2,2 2,1,1 - 1,1,2 1,1,2 -
2,1,1 - 1,1,2 1,1,2 - 2,1,1 - 1,1,2 1,1,2 -
2,1,1 1,1,1 1,2,1 1,2,1 3,2,2 3,2,6 4,2,4 1,2,1 1,2,1 -
3,2,6 - 1,2,1 1,2,1 - 3,2,6 - 1,2,1 1,2,1 -
2,1,1 1,1,1 1,1,1 1,1,1 4,1,1 2,1,1 5,2,2 1,1,1 1,1,1 5,10,2
2,1,1 - 1,1,1 1,1,1 - 2,1,1 - 1,1,1 1,1,1 -
1,1,1 1,1,1 1,1,1 1,1,1 2,1,1 4,1,1 2,3,3 1,1,1 1,1,1 2,3,3
4,1,1 4,3,3 1,1,1 1,1,1 - 4,1,1 - 1,1,1 1,1,1 -
1,1,1 1,1,1 1,1,1 1,1,1 2,1,1 2,1,1 2,1,6 1,1,1 1,1,1 2,2,6
2,1,1 2,2,6 1,1,1 1,1,1 2,2,6 2,1,1 - 1,1,1 1,1,1 -
1,1,1 1,1,1 1,1,1 1,1,1 1,1,1 1,1,1 2,1,1 1,1,1 1,1,1 13,1,2
1,1,1 13,18,2 1,1,1 1,1,1 14,18,9 1,1,1 14,18,9 1,1,1 1,1,1 -
- - - - - - - -
- - 2,4,3 - 3,1,2 - 1,1,1 -
- - 2,1,1 - 1,1,2 - 1,1,1 -
- - 2,3,2 - 2,1,1 - 1,1,1 -
"""


def _acceptance_cells():
    cells = [(k, n, a) for k in range(2, 9) for n in range(2, 10) for a in (1, -1, 0)
             if a != -1 or n % 2 == 1]
    return cells + [(k, n, -1) for n in (2, 4, 6, 8) for k in range(2, 10)]


def test_search_verdicts_on_the_acceptance_grids_are_pinned():
    cells, pinned = _acceptance_cells(), PINNED_TRIALS.split()
    assert len(cells) == len(pinned) == 172
    for cell, trials in zip(cells, pinned):
        want = [(True, 50)] * 3 if trials == "-" else [(False, int(t)) for t in trials.split(",")]
        got = [search_counterexample(ProblemInstance(*cell), 50, seed) for seed in (0, 1, 2)]
        assert [(v.holds, v.trials) for v in got] == want, cell


def test_candidate_stream_is_deterministic():
    inst = ProblemInstance(4, 5, 1)
    first = [c for c in generate_candidates(inst, 50, seed=29)]
    second = [c for c in generate_candidates(inst, 50, seed=29)]
    assert all(a == b for a, b in zip(first, second))


# --- scaled instances across the grid -----------------------------------------------


def test_decide_grid_matches_closed_form_for_scaled_a():
    for a in (2, -2):
        for k in range(2, 9):
            for n in range(2, 10):
                inst = ProblemInstance(k, n, a)
                v = decide(inst)
                if inst.sentence == 2:
                    if k == 2 and n >= 4:
                        assert v.quarantined
                        continue
                    assert v.holds == (k % 2 == 1 or n == 2)
                else:
                    assert v.holds == (k == 2 and n % 2 == 1)
                if not v.holds:
                    assert verify_witness(v.witness), (k, n, a)


def test_search_exhausts_scaled_true_cells():
    for a in (2, -2, Fraction(1, 2)):
        for n in (3, 7):
            v = search_counterexample(ProblemInstance(2, n, a), budget=400, seed=42)
            assert v.mode is VerdictMode.SEARCH_EXHAUSTED, (n, a)
    v = search_counterexample(ProblemInstance(2, 2, -1), budget=400, seed=42)
    assert v.mode is VerdictMode.SEARCH_EXHAUSTED


# --- far from unit scale ---------------------------------------------------------------
# Every sentence is evaluated at |a| = 1, so the tolerance contract holds at any
# scale of a.  At a's own scale the absolute tolerance would reject these witnesses
# and make the search miss.


@pytest.mark.parametrize(
    "cell",
    [
        (4, 3, 10**12),
        (4, 3, 10**30),
        (4, 3, 1e300),
        (4, 3, Fraction(1, 10**30)),
        (4, 3, -Fraction(1, 10**30)),
        (4, 4, -(10**12)),
    ],
)
def test_decide_refutes_far_from_unit_scale(cell):
    verdict = decide(ProblemInstance(*cell))
    assert not verdict.holds and verify_witness(verdict.witness)


def test_search_finds_counterexample_far_from_unit_scale():
    verdict = search_counterexample(ProblemInstance(4, 3, 10**12), 300, 1)
    assert verdict.mode is VerdictMode.WITNESS_FOUND


SWEEP_AS = [
    s * m
    for s in (1, -1)
    for e in (6, 12, 30, 300)
    for m in (10**e, Fraction(1, 10**e))
] + [1e300, -1e300, 1e-300, -1e-300]


@pytest.mark.parametrize("a", SWEEP_AS, ids=lambda a: f"{type(a).__name__}:{float(a):g}")
def test_scale_sweep_agrees_with_the_closed_form(a):
    for k in range(2, 9):
        for n in range(2, 8):
            inst = ProblemInstance(k, n, a)
            verdict = decide(inst)
            if verdict.witness is not None:
                assert verify_witness(verdict.witness), (k, n)
            found = search_counterexample(inst, 40, 0)
            refuted = not verdict.holds and not verdict.quarantined
            assert found.holds != refuted, (k, n)
            if refuted:
                assert verify_witness(found.witness), (k, n)


def test_search_exhausts_far_from_unit_scale_on_a_true_cell():
    # at the scale of a, the absolute tolerance would report a bogus witness here
    verdict = search_counterexample(ProblemInstance(2, 2, -(10**6)), 400, 42)
    assert verdict.mode is VerdictMode.SEARCH_EXHAUSTED


@pytest.mark.parametrize("a", [10**400, -(10**400), Fraction(1, 10**400), -Fraction(1, 10**400)],
                         ids=["1e400", "-1e400", "1e-400", "-1e-400"])
def test_beyond_the_float_range_agrees_with_the_closed_form(a):
    for k, n in [(4, 3), (2, 3), (4, 4), (2, 2), (5, 4), (3, 5)]:
        inst = ProblemInstance(k, n, a)
        verdict = decide(inst)
        if verdict.witness is not None:
            assert verify_witness(verdict.witness), (k, n)
        found = search_counterexample(inst, 40, 0)
        assert found.holds != (not verdict.holds and not verdict.quarantined), (k, n)
        if not found.holds:
            assert verify_witness(found.witness), (k, n)


def test_scale_factor_outside_the_float_range_is_a_value_error():
    with pytest.raises(ValueError):  # |a|^(1/2) = 10^-350 rounds to 0
        scale_from_unit(identity(2, "real"), 2, Fraction(1, 10**700))
    with pytest.raises(ValueError):
        search_counterexample(ProblemInstance(4, 2, -Fraction(1, 10**700)), 4, 0)


# --- the unit-witness and exact-root caches ----------------------------------------
# decide takes its unit witness per (tag, k, n) and every scaling its exact root per
# (|a|, n) from a bounded cache; what decide returns must not depend on their state.

_SWEEP_AS = (0, 1, -1, 2, -2, Fraction(1, 3), Fraction(-1, 3), 4, 27,
             10**6, -(10**6), 10**12, -(10**12), 1e300, Fraction(1, 10**30))
_SWEEP_CELLS = [(k, n, a) for k in (2, 3, 4, 5, 8, 12, 16) for n in range(2, 13)
                for a in _SWEEP_AS]


def _clear_decide_caches():
    theorems._unit_witness.cache_clear()
    _exact_root.cache_clear()


def _decide_record(cell):
    verdict = decide(ProblemInstance(*cell))
    record = [json.dumps(verdict_to_json(verdict), sort_keys=True)]
    if verdict.witness is not None:
        m = verdict.witness.matrix
        record += [m.backend, m.array.dtype.str, [repr(e) for e in m.array.flat]]
        assert not m.array.flags.writeable
    return record


def test_decide_is_the_same_with_the_caches_warm_and_cleared():
    cells = _SWEEP_CELLS + _acceptance_cells()
    assert len(cells) == 1155 + 172
    for cell in cells:
        _decide_record(cell)
    warm = [_decide_record(cell) for cell in cells]
    cold = []
    for cell in cells:
        _clear_decide_caches()
        cold.append(_decide_record(cell))
    assert warm == cold


def test_cached_unit_witnesses_are_read_only():
    for tag, k, n in [(CaseTag.CASE_I, 4, 2), (CaseTag.CASE_III, 4, 3),
                      (CaseTag.THEOREM2_CE, 4, 4), (CaseTag.NILPOTENT_SHIFT, 4, 3)]:
        w = theorems._unit_witness(tag, k, n)
        assert w is theorems._unit_witness(tag, k, n)
        with pytest.raises(ValueError):
            w.matrix.array[0, 0] = 7


def test_decide_caches_are_bounded():
    assert theorems._unit_witness.cache_info().maxsize == 256
    assert _exact_root.cache_info().maxsize == 256
    _clear_decide_caches()
    for k, n in [(40, 3), (40, 2), (40, 4)]:  # 1600 entries: built, not retained
        assert not decide(ProblemInstance(k, n, 2)).holds
        assert not decide(ProblemInstance(k, n, 0)).holds
    assert theorems._unit_witness.cache_info().currsize == 0
    assert not decide(ProblemInstance(32, 3, 2)).holds  # 1024 entries are retained
    assert theorems._unit_witness.cache_info().currsize == 1


def _unit_tag(inst):
    return constructions._refuting_tag(inst.k, inst.n, inst.a)


def test_one_sweep_builds_each_unit_witness_and_exact_root_once():
    _clear_decide_caches()
    units = set()
    for cell in _SWEEP_CELLS:
        inst = ProblemInstance(*cell)
        verdict = decide(inst)
        if verdict.witness is not None:
            assert verify_witness(verdict.witness)
            units.add((_unit_tag(inst), inst.k, inst.n))
    # only the exact case I and II witnesses reach an exact root: a > 0 and even n
    roots = {(type(a), a, n) for _, n, a in _SWEEP_CELLS if a not in (0, 1) and a > 0
             and n % 2 == 0}
    assert (len(units), len(roots)) == (161, 48)
    assert theorems._unit_witness.cache_info().misses == len(units)
    assert _exact_root.cache_info().misses == len(roots)


def test_no_clause_of_a_decide_witness_reaches_the_entrywise_test(monkeypatch):
    # every float clause of decide's witnesses, on the scaled sweep and the acceptance
    # grids, is settled by its largest deviation: d <= absolute, or the failure rule
    def entrywise(diff, mag, tol):
        raise AssertionError("a clause ran the entrywise test")

    monkeypatch.setattr(core, "_entrywise", entrywise)
    for cell in _SWEEP_CELLS + _acceptance_cells():
        verdict = decide(ProblemInstance(*cell))
        if verdict.witness is not None:
            assert verify_witness(verdict.witness)


def test_float_forms_of_exact_unit_witnesses_are_retained_as_the_witnesses_are():
    _clear_decide_caches()
    for k in (40, 32):  # 1600 entries: built, not retained; 1024: retained
        w = decide(ProblemInstance(k, 2, 2)).witness  # |a|^(1/2) is irrational: floats
        exact = constructions.construct(CaseTag.CASE_I, k, 2).matrix
        assert exact.backend == "rational" and w.matrix.backend == "real"
        assert w.matrix.array.tobytes() == scale_from_unit(exact, 2, 2).array.tobytes()
    # the retained unit witness keeps the float form decide made in its own matrix
    unit = theorems._unit_witness(CaseTag.CASE_I, 32, 2).matrix
    real = unit._real[0]
    assert real.backend == "real" and not real.array.flags.writeable
    assert real.array.tobytes() == unit.array.astype(np.float64).tobytes()
    assert decide(ProblemInstance(32, 2, 4)).witness.matrix.backend == "rational"


def test_a_scale_outside_the_float_range_raises_on_every_call():
    inst = ProblemInstance(4, 2, Fraction(2, 10**700))  # |a|^(1/2) rounds to 0
    for _ in range(2):
        with pytest.raises(ValueError):
            decide(inst)


# --- stacked search against the per-candidate reference -----------------------------
# The reference draws, builds, conjugates at unit scale, scales and checks one Matrix
# per candidate; the stacked search must yield the same candidates, byte for byte,
# and the same verdicts, witnesses and trials.  Each candidate is a function of its
# own slice of the seed's uniform stream: k uniforms for its block orders, k for its blocks'
# picks, then 3 per shear (coefficient, i, j).  For a > 0 and odd-n a < 0 it draws
# one block per real quadratic factor (w < n/2), and only 1 x 1 blocks when there
# is none (n = 2, a > 0).  The backend is fixed per cell: rational for a = 0, and
# for cells with no quadratic factor and a rational |a|^(1/n); real otherwise.  On
# odd-k sentence-2 cells the last block is a +-1 pad, so no candidate is a root.


def _reference_factors(inst):
    """The 1 x 1 block values, the rotation angles (negated blocks when negate)
    and the backend of a cell with a != 0."""
    n = inst.n
    if inst.a > 0:
        scalars = [1, -1] if n % 2 == 0 else [1]
        angles = [2.0 * math.pi * w / n for w in range(1, (n + 1) // 2)]
        negate = False
    elif n % 2 == 1:
        scalars = [-1]
        angles = [2.0 * math.pi * w / n for w in range(1, (n + 1) // 2)]
        negate = True
    else:
        scalars = []
        angles = [(2 * j - 1) * math.pi / n for j in range(1, n // 2 + 1)]
        negate = False
    exact = not angles and exact_nth_root(abs(inst.a), n) is not None
    return scalars, angles, negate, "rational" if exact else "real"


def _reference_block_sum(inst, u):
    k, n = inst.k, inst.n
    if inst.a == 0:
        rows = [[0] * k for _ in range(k)]
        at = t = 0
        while at < k:
            size = min(1 + int(u[t] * n), k - at)
            for i in range(at, at + size - 1):
                rows[i][i + 1] = 1
            at, t = at + size, t + 1
        return Matrix(rows, backend="rational")
    scalars, angles, negate, backend = _reference_factors(inst)
    pad = scalars or [1, -1]  # the +-1 pad of an odd-k sentence-2 candidate
    blocks = []
    at = t = 0
    while at < k:
        pick = u[k + t]
        if k - at == 1 or not angles or (scalars and u[t] < 0.4):
            s = pad[int(pick * len(pad))]
            blocks.append(Matrix([[float(s)]], backend="real") if backend == "real"
                          else Matrix([[s]], backend="rational"))
            at += 1
        else:
            block = rotation(angles[int(pick * len(angles))])
            if negate:
                block = scalar_mul(-1.0, block)
            blocks.append(block)
            at += 2
        t += 1
    return block_diag(blocks)


def _reference_conjugate(m, u):
    """Real m conjugated by the live shears of the slice u: every row
    operation, then every column operation, each in shear order."""
    k = m.order
    shears = []
    for s in range(len(u) // 3):
        c = (-1, 1)[int(u[3 * s] * 2)]
        i, j = int(u[3 * s + 1] * k), int(u[3 * s + 2] * k)
        if i != j and c != 0:
            shears.append((i, j, c))
    arr = m.array.copy()
    for i, j, c in shears:
        arr[i] += c * arr[j]
    for i, j, c in shears:
        arr[:, j] -= c * arr[:, i]
    return Matrix._wrap(arr, m.backend)


def _reference_candidates(inst, seed):
    rng = np.random.default_rng(seed)
    k = inst.k
    rational = inst.a == 0 or _reference_factors(inst)[3] == "rational"
    width = 2 * k + 3 * (_RATIONAL_SHEARS_PER_ORDER * k if rational else _FLOAT_SHEARS)
    while True:
        u = rng.random(width).tolist()  # this candidate's slice, drawn on its own
        cand = _reference_block_sum(inst, u)
        if not rational:  # an exact sum is left unsheared, its shear uniforms unread
            cand = _reference_conjugate(cand, u[2 * k :])
        if inst.a != 0 and abs(inst.a) != 1:
            cand = scale_from_unit(cand, inst.n, inst.a)
        yield cand


def _same_matrix(got, want):
    assert got.backend == want.backend and got.array.dtype == want.array.dtype
    if got.backend == "rational":
        assert got.entries() == want.entries()
        assert [type(e) for e in got.entries()] == [type(e) for e in want.entries()]
    else:
        assert got.array.tobytes() == want.array.tobytes()


def _parity_cells():
    """Both acceptance grids but the a = 0, n < k cells, which refute early (see
    test_search_refutes_zero_a_cells_with_n_below_k), plus scaled a: candidates
    sheared at unit scale, then scaled to floats (a = 2) or exactly (a = 4);
    plus rows of many blocks, with many cut at k: small n at large k, an
    odd-k pad, and two a = 0 cells with n < k."""
    cells = [(k, n, a) for k in range(2, 9) for n in range(2, 10) for a in (1, -1, 0)
             if (a != -1 or n % 2 == 1) and (a != 0 or n >= k)]
    cells += [(k, n, -1) for n in (2, 4, 6, 8) for k in range(2, 10)]
    cells += [(12, 5, 1), (16, 12, -1), (15, 6, -1), (16, 4, 0), (13, 7, 0)]
    scaled = (2, -2, Fraction(1, 3), Fraction(-1, 3), 4, 27, 10**6, -(10**6),
              10**12, -(10**12), 1e300, Fraction(1, 10**30))
    return cells + [(k, n, a) for a in scaled for k, n in ((2, 3), (4, 2), (3, 4))]


# Where the closed form expects a violator, the stacked chunks end after 4, 68,
# 132, ... candidates: budgets 5, 12, 13, 50, 64 and 65 cut the second one short,
# and 68 and 69 straddle its end.  On a holding or quarantined cell they end after
# 64, 128, ...: budgets 64 and 65 straddle the first edge, and 68 and 69 cut the
# second chunk short.  Budget 400 (six full chunks and a short one) runs on seed 0
# only: on a holding cell the reference builds and checks every candidate one by
# one, and three seeds would triple the suite's slowest test.
PARITY_BUDGETS = (1, 4, 5, 12, 13, 50, 64, 65, 68, 69, 400)


def _check_against_the_reference(inst, seed, budgets):
    stream = _reference_candidates(inst, seed)
    got = generate_candidates(inst, 50, seed)
    violator = None
    for trial in range(1, budgets[-1] + 1):
        if violator is not None and trial > 13:  # past the probe, into the second chunk
            break
        cand = next(stream)
        if trial <= 50:
            _same_matrix(next(got), cand)
        clauses = evaluate(cand, inst)
        if violator is None and not clauses.holds:
            violator = trial, Witness(cand, None, inst.k, inst.n, inst.a, clauses.sentence)
    for budget in budgets:
        if violator is not None and violator[0] <= budget:
            want = Verdict(False, VerdictMode.WITNESS_FOUND, violator[1], violator[0])
        else:
            want = Verdict(True, VerdictMode.SEARCH_EXHAUSTED, trials=budget)
        verdict = search_counterexample(inst, budget, seed)
        assert verdict_to_json(verdict) == verdict_to_json(want), (seed, budget)
        if not verdict.holds:
            _same_matrix(verdict.witness.matrix, want.witness.matrix)


@pytest.mark.parametrize("cell", _parity_cells(), ids=str)
def test_stacked_search_matches_the_per_candidate_reference(cell):
    for seed in (0, 1, 2):
        budgets = PARITY_BUDGETS if seed == 0 else PARITY_BUDGETS[:-1]
        _check_against_the_reference(ProblemInstance(*cell), seed, budgets)


@pytest.mark.parametrize(
    "cell, backend",
    [((3, 4, 1), "real"), ((4, 2, 2), "real"), ((5, 4, -1), "real"),
     ((4, 2, 1), "rational"), ((4, 2, 4), "rational"), ((5, 3, 0), "rational")],
    ids=str,
)
def test_each_candidate_stream_has_one_backend(cell, backend):
    inst = ProblemInstance(*cell)
    for seed in (0, 1, 2):
        cands = list(generate_candidates(inst, 61, seed))
        assert len(cands) == 61 and {c.backend for c in cands} == {backend}, seed


@pytest.mark.parametrize("cell", [(4, 2, 1), (4, 3, 1), (5, 6, 0), (7, 4, -1), (3, 4, 2)], ids=str)
def test_the_first_candidates_do_not_depend_on_count(cell):
    # rational, real, a = 0, odd-k pad and scaled cells: candidate i is drawn from
    # its own slice of the stream, so the chunk sizes do not move it
    inst = ProblemInstance(*cell)
    for seed in (0, 1):
        full = list(generate_candidates(inst, 61, seed))
        for count in (1, 5, 13, 50, 61):
            prefix = list(generate_candidates(inst, count, seed))
            assert len(prefix) == count
            for got, want in zip(prefix, full):
                _same_matrix(got, want)


@pytest.mark.parametrize(
    "count, sizes",
    [(1, (1,)), (4, (4,)), (5, (4, 1)), (50, (4, 46)), (68, (4, 64)), (69, (4, 64, 1))],
)
def test_chunks_are_a_probe_of_4_then_full_chunks_of_64(count, sizes):
    for cell in ((4, 3, 1), (4, 2, 1), (5, 3, 0)):  # real, exact and a = 0 stacks
        chunks = theorems._Candidates(ProblemInstance(*cell), 0).chunks(count)
        assert tuple(len(stack.array) for stack in chunks) == sizes, cell


def _record_chunks(monkeypatch) -> list:
    """A list to which every search appends the size of each chunk it builds."""
    built, chunks = [], theorems._Candidates.chunks

    def recorded(self, count):
        for stack in chunks(self, count):
            built.append(len(stack.array))
            yield stack

    monkeypatch.setattr(theorems._Candidates, "chunks", recorded)
    return built


@pytest.mark.parametrize(
    "cell, seed, budget, want",
    [((2, 2, 1), 0, 50, (False, 2, [4])), ((4, 3, 0), 0, 50, (False, 3, [4])),
     ((4, 4, 1), 0, 50, (False, 3, [4])), ((4, 4, 0), 0, 50, (False, 4, [4])),
     ((4, 4, -1), 1, 50, (False, 4, [4])), ((5, 4, 0), 0, 50, (False, 5, [4, 46])),
     ((2, 3, 1), 0, 50, (True, 50, [50])), ((2, 4, -1), 0, 50, (True, 50, [50])),
     ((3, 5, 0), 0, 50, (True, 50, [50])), ((2, 3, 1), 0, 200, (True, 200, [64, 64, 64, 8]))],
    ids=str,
)
def test_a_violator_among_the_first_4_builds_one_chunk_of_4(cell, seed, budget, want,
                                                             monkeypatch):
    # where the closed form expects none (holding or quarantined cells), the
    # first chunk is a full one
    built = _record_chunks(monkeypatch)
    verdict = search_counterexample(ProblemInstance(*cell), budget, seed)
    assert (verdict.holds, verdict.trials, built) == want


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_wrong_closed_form_moves_only_the_chunk_plan(seed, monkeypatch):
    # the plan reads the closed form, but every candidate, verdict, trials value
    # and witness comes from the stream alone
    table, built = theorems._refuting_tag, _record_chunks(monkeypatch)

    def truth(inst):
        return table(inst.k, inst.n, inst.a) is None

    runs = {}
    for lie in (False, True):  # a lie names a family where the table names none, and back
        monkeypatch.setattr(theorems, "_refuting_tag", lambda k, n, a: (
            table(k, n, a) if not lie else None if table(k, n, a) else CaseTag.CASE_I))
        for cell in _acceptance_cells():
            inst = ProblemInstance(*cell)
            draws = not (inst.sentence == 2 and cell[0] % 2)  # odd k: no root
            for budget in (1, 4, 5, 50, 64, 65, 69, 200):
                del built[:]
                v = search_counterexample(inst, budget, seed)
                first = min(budget, 64 if truth(inst) != lie else 4)
                assert built[:1] == ([first] if draws else []), (lie, cell, budget)
                runs[lie, cell, budget] = (verdict_to_json(v),
                                           v.witness.matrix.entries() if v.witness else None)
    for (lie, cell, budget), run in runs.items():
        assert run == runs[False, cell, budget], (cell, budget)


class _NoCandidates:
    def __init__(self, *args):
        raise AssertionError("the search drew candidates")


@pytest.mark.parametrize("cell", [(5, 4, -1), (9, 8, -1), (3, 2, -5)], ids=str)
def test_odd_k_sentence_2_search_draws_nothing(cell, monkeypatch):
    # no real odd-order matrix has an even power equal to a negative multiple of I
    inst = ProblemInstance(*cell)
    assert len(list(generate_candidates(inst, 50, 3))) == 50  # the padded stream is intact
    monkeypatch.setattr(theorems, "_Candidates", _NoCandidates)
    for budget, seed in ((1, 0), (50, 3), (400, 7)):
        verdict = search_counterexample(inst, budget, seed)
        assert json.dumps(verdict_to_json(verdict)) == (
            '{"holds": true, "mode": "search-exhausted", "witness": null, '
            f'"trials": {budget}, "quarantined": false}}'
        )


@pytest.mark.parametrize("cell", [(16, 12, 1), (16, 12, 0), (4, 6, 1)], ids=str)
def test_verify_witness_checks_an_exact_witness_on_the_float64_carrier(cell, monkeypatch):
    seen = []

    def recorded(kernel):
        def call(x, *args):
            seen.append((kernel.__name__, x.array.dtype))
            if kernel.__name__ == "_geometric_sum":  # and the ladder's squares it reads
                seen.extend((kernel.__name__, square.dtype) for square in args[-1])
            return kernel(x, *args)
        return call

    for name in ("_pow_ladder", "_geometric_sum"):
        monkeypatch.setattr(theorems, name, recorded(getattr(theorems, name)))
    w = decide(ProblemInstance(*cell)).witness
    seen.clear()
    assert verify_witness(w)
    kernels = {"_pow_ladder"} if cell[2] == 0 else {"_pow_ladder", "_geometric_sum"}
    assert {name for name, _ in seen} == kernels
    assert {dtype for _, dtype in seen} == {np.dtype(np.float64)}


@pytest.mark.parametrize("cell", [(4, 40, 1), (3, 64, 1), (24, 20, 0)], ids=str)
def test_exact_decide_witnesses_are_evaluated_on_the_carrier_at_any_order(cell):
    # every exact witness has row sums of at most 1, so no power of it leaves the carrier
    w = decide(ProblemInstance(*cell)).witness
    x = evaluate(w.matrix, w)._x
    assert x.array.dtype == np.float64 and x.backend == "rational"
    assert verify_witness(w)


@pytest.mark.parametrize("backend", ["rational", "real"])
def test_a_complex_a_lifts_an_exact_or_real_matrix_to_complex(backend):
    def witness(p, q, a):
        return Witness(Matrix([[p, 0], [0, q]], backend=backend), None, 2, 2, a, 1)

    assert verify_witness(witness(1, 1, 1 + 0.5j)) is False  # I^2 is not (1 + 0.5j) I
    w = witness(2, -2, 4 + 0j)  # diag(2, -2) refutes at the principal root 2
    clauses = evaluate(w.matrix, w)
    assert clauses.x.backend == "complex" and w.matrix.backend == backend
    values = (clauses.equation, clauses.simple_root, clauses.factor_sum_zero, clauses.holds)
    assert values == (True, False, False, False) and verify_witness(w) is True


def test_verify_witness_of_a_non_refuting_witness_checks_the_equation():
    # refutes_sentence None claims only X^n = aI, which verify_witness checks
    swap = swap_block()
    assert verify_witness(Witness(swap, None, 2, 2, 1, None)) is True
    assert verify_witness(Witness(swap, None, 2, 3, 1, None)) is False
    assert verify_witness(Witness(scalar_mul(2, swap), None, 2, 2, 4, None)) is True


def test_verify_witness_refuses_a_claim_on_a_sentence_that_does_not_apply():
    rot = rotation(math.pi / 4)  # a root of -I at n = 4: sentence 2 applies
    with pytest.raises(ApplicabilityError, match="sentence 1 is undefined"):
        verify_witness(Witness(rot, None, 2, 4, -1, 1))
    with pytest.raises(ApplicabilityError, match="sentence 2 applies only"):
        verify_witness(Witness(swap_block(), None, 2, 2, 1, 2))


def test_a_complex_witness_has_no_real_problem_instance():
    w = complex_counterexample(2, 3, 1j)
    with pytest.raises(TypeError, match="complex-scalar witnesses have no real problem instance"):
        w.instance
    assert case_counterexample(CaseTag.CASE_III, 4, 3).instance == ProblemInstance(4, 3, 1)


def test_verify_witness_with_n_below_2_raises_a_convention_error():
    # a Witness does not check n, and its real root would divide by n = 0
    w = Witness(identity(2, "rational"), None, 2, 0, 1, refutes_sentence=1)
    with pytest.raises(ConventionError, match="n must be >= 2, got 0"):
        verify_witness(w)


@pytest.mark.parametrize("k, n, a", [(2, 1, 0), (1, 2, 1), (1, 2, 1 + 1j), (2, 1, 1 + 1j)],
                         ids=str)
def test_witnesses_with_k_or_n_below_2_are_refused_not_evaluated(k, n, a):
    # outside k, n >= 2 neither sentence is defined: refused before any clause is computed
    w = Witness(identity(k, "rational"), None, k, n, a, refutes_sentence=1)
    error, message = ((ConventionError, "n must be >= 2") if n < 2
                      else (ValueError, "k must be an integer >= 2"))
    with pytest.raises(ValueError, match=f"^{message}, got 1$") as raised:
        verify_witness(w)
    assert raised.type is error
    data = json.loads(json.dumps(witness_to_json(w)))
    name = "n" if n < 2 else "k"
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= 2, got 1$"):
        witness_from_json(data)


@pytest.mark.parametrize("cell", [(16, 12, 1), (16, 12, 0), (8, 2, 4), (5, 2, 4), (4, 6, 10**12)],
                         ids=str)
def test_exact_witnesses_and_verdicts_keep_python_types(cell):
    w = decide(ProblemInstance(*cell)).witness
    assert w.matrix.array.dtype == object
    assert {type(e) for e in w.matrix.entries()} == {int}
    clauses = evaluate(w.matrix, w)
    values = (clauses.equation, clauses.simple_root, clauses.factor_sum_zero, clauses.holds)
    assert {type(v) for v in values} == {bool} and type(verify_witness(w)) is bool
    assert {type(e) for e in w.matrix.entries()} == {int}  # evaluating left w as it was


def _python_power_and_sum(rows, n, a):
    """X^n and the Horner sum X^(n-1) + a X^(n-2) + ... + a^(n-1) I at an
    integer matrix X, for a in {0, 1, -1} (its own n-th root), on Python ints."""
    k = len(rows)

    def mul(x, y):
        return [[sum(x[i][l] * y[l][j] for l in range(k)) for j in range(k)] for i in range(k)]

    def plus(x, c):
        return [[x[i][j] + (c if i == j else 0) for j in range(k)] for i in range(k)]

    power, acc = rows, plus(rows, a)
    for j in range(2, n + 1):
        power = mul(power, rows)
        if j < n:
            acc = plus(mul(acc, rows), a**j)
    return power, acc


_BIG = 2**53  # the carrier's bound: float64 holds every integer of at most 2^53


@pytest.mark.parametrize(
    "rows, n, a",
    [
        ([[_BIG, 0], [0, 1]], 2, 1),  # the first diagonal add passes 2^53
        ([[-_BIG, 0], [0, 1]], 3, -1),
        ([[_BIG, 1], [0, -1]], 3, 1),
        ([[2**63 - 1, 0], [0, 1]], 2, 1),
        ([[2**20, 1], [0, 1]], 5, 1),  # the first products fit, later ones do not
        ([[2**31, 0], [1, -1]], 5, -1),
        ([[2**32, 0], [0, 0]], 2, 0),  # X^2 = 2^64 E11, beyond 2^53
        ([[2, 0], [0, 0]], 64, 0),  # so is X^64, from a row sum of only 2
        ([[0, 1], [-1, 0]], 4, 1),  # a root of I that is not simple
        ([[2**62, 2**62], [-(2**62), -(2**62)]], 2, 0),  # nilpotent, huge products
        # a root of I whose float64 square rounds: (2^27 + 1)^2 = 2^54 + 2^28 + 1
        ([[2**27 + 1, 2**27], [-(2**27) - 2, -(2**27) - 1]], 2, 1),
        ([[2**63, 0], [0, 1]], 2, 1),  # beyond int64 too: stays on Python ints
        ([[-(2**63), 0], [0, 1]], 3, 1),
        # the largest r with n * r^n <= 2^53 is carried, and r + 1 is not
        ([[1124, 0], [0, 1]], 5, 1),
        ([[1123, 1], [0, -1]], 5, -1),
        ([[1125, 0], [0, 1]], 5, 1),
        ([[338, 0], [0, 1]], 6, 1),
        ([[337, -1], [1, 0]], 6, 1),
        ([[339, 0], [0, 1]], 6, 1),
        ([[143, 1], [0, -1]], 7, -1),
        ([[-144, 0], [0, 1]], 7, 1),
        ([[145, 0], [0, 1]], 7, 1),
        ([[17, 0], [0, 1]], 12, 1),
        ([[16, 1], [1, 0]], 12, 1),
        ([[8, 9], [-8, -9]], 12, 0),
        ([[18, 0], [0, 1]], 12, 1),
    ],
    ids=str,
)
def test_carried_clauses_match_python_ints_past_the_bound(rows, n, a):
    # padded by a * I to order 8; evaluate carries a matrix of Python ints on float64 when
    # n * max(1, r)^n <= 2^53 for r its largest absolute row sum
    rows = [r + [0] * (8 - len(rows)) for r in rows]
    rows += [[a if j == i else 0 for j in range(8)] for i in range(len(rows), 8)]
    clauses = evaluate(Matrix(rows, backend="rational"), ProblemInstance(8, n, a))
    r = max(sum(map(abs, row)) for row in rows)
    assert (clauses._x.array.dtype == np.float64) == (n * max(1, r) ** n <= _BIG)
    power, horner = _python_power_and_sum(rows, n, a)
    scalar = [[a if j == i else 0 for j in range(8)] for i in range(8)]
    want = (power == scalar, rows == scalar, horner == [[0] * 8] * 8)
    assert (clauses.equation, clauses.simple_root, clauses.factor_sum_zero) == want
    assert clauses.holds == (not want[0] or want[1] or want[2])
    value = factors._geometric_sum(clauses._x, n, a, [clauses._x.array])  # on the carrier
    assert [int(e) for e in value.flat] == [e for r in horner for e in r]


@pytest.mark.parametrize(
    "rows, a, carried",
    [([[2**26, 0], [0, 1]], 1, True), ([[2**26 + 1, 0], [0, 1]], 1, False),
     ([[2**25, -(2**25)], [-1, 0]], 0, True), ([[2**25, 2**25 + 1], [-1, 0]], 0, False),
     ([[-1, 2**26 - 1], [0, 1]], 1, True), ([[-1, 2**26], [0, 1]], 1, False)],
    ids=str,
)
def test_the_carrier_is_chosen_by_the_row_sum_bound_at_n_2(rows, a, carried):
    # 2 * (2^26)^2 <= 2^53 < 2 * (2^26 + 1)^2, for r one entry or the sum of two
    clauses = evaluate(Matrix(rows, backend="rational"), ProblemInstance(2, 2, a))
    assert (clauses._x.array.dtype == np.float64) == carried
    power, horner = _python_power_and_sum(rows, 2, a)
    want = (power == [[a, 0], [0, a]], rows == [[a, 0], [0, a]], horner == [[0, 0], [0, 0]])
    assert (clauses.equation, clauses.simple_root, clauses.factor_sum_zero) == want
    value = geometric_factor_sum(clauses.x, 2, RootConvention.real(2, a))
    assert [int(e) for e in value.array.flat] == [e for r in horner for e in r]


def test_evaluate_hands_back_the_exact_matrix_it_was_given_not_its_carrier():
    # the clauses run on a float64 copy of x; x itself keeps its Python ints, so exact
    # arithmetic on it stays exact
    m = Matrix([[1, 2], [3, 4]])
    clauses = evaluate(m, ProblemInstance(2, 2, 1))
    x = clauses.x
    assert x is m and clauses._x.array.dtype == np.float64
    assert x.array.dtype == object and [type(e) for e in x.entries()] == [int] * 4
    total = mat_add(x, Matrix([[Fraction(1, 3), 0], [0, 0]]))
    assert type(total[0, 0]) is Fraction and total[0, 0] == Fraction(4, 3)
    third = scalar_mul(Fraction(1, 3), x)
    assert third.rows() == [[Fraction(1, 3), Fraction(2, 3)], [1, Fraction(4, 3)]]


def test_a_carried_array_meets_only_the_unit_coefficients(monkeypatch):
    # every float64 c * I target of decide, verify_witness and the search is a float's, or
    # one of the ints 0, 1 and -1 that float64 holds exactly, on the carrier
    calls, target = [], core._scalar_target

    def recorded(c, k, dtype):
        calls.append((c, dtype))
        return target(c, k, dtype)

    monkeypatch.setattr(core, "_scalar_target", recorded)
    for cell in _acceptance_cells() + _SWEEP_CELLS:
        inst = ProblemInstance(*cell)
        verdict = decide(inst)
        assert verdict.witness is None or verify_witness(verdict.witness)
        search_counterexample(inst, 20, 0)
    carried = [c for c, dtype in calls if dtype == np.float64 and type(c) is not float]
    assert {type(c) for c in carried} == {int} and 1 in carried
    assert set(carried) <= {0, 1, -1}


_ONES = (1, 1.0, Fraction(1), np.int64(1), np.float64(1.0))


def _clause_values(x, n, a):
    c = evaluate(x, ProblemInstance(4, n, a))
    values = [c.equation, c.simple_root, c.holds, c.factor_sum_zero if c.sentence == 1 else None]
    if c.sentence == 2 and x.array.ndim == 2:
        values.append(list(c.zero_quadratics()))
    return type(c.a), c.a, c.sentence, [np.asarray(v).tolist() for v in values]


@pytest.mark.parametrize("n, spellings", [
    (3, _ONES), (4, _ONES), (3, tuple(-a for a in _ONES)), (4, tuple(-a for a in _ONES)),
    (3, (0, 0.0)), (4, (0, 0.0)),
], ids=str)
def test_every_spelling_of_a_unit_a_gives_the_same_clause_values(n, spellings):
    # evaluate hands the clauses the int sign of a, also where (a > 0) - (a < 0) would raise
    want = int(spellings[0])
    rows = list(generate_candidates(ProblemInstance(4, n, want), 12, 3))
    stack = Matrix._wrap(np.stack([x.array for x in rows]), rows[0].backend)
    for x in rows + [stack]:
        got = [_clause_values(x, n, a) for a in spellings]
        assert got[0][:2] == (int, want) and all(g == got[0] for g in got)


@pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint8], ids=lambda t: t.__name__)
def test_a_numpy_integer_a_decides_verifies_and_searches_as_its_int(kind):
    # Fraction(np.int64(8)) keeps numpy terms; the integer root once read their bit_length
    for a in (2, 4, 8) if kind is np.uint8 else (2, 4, 8, -2, -8):
        assert exact_nth_root(kind(a), 3) == exact_nth_root(a, 3)
        assert exact_nth_root(kind(a), 2) == exact_nth_root(a, 2)
        for k in range(2, 6):
            for n in range(2, 7):
                inst, same = ProblemInstance(k, n, kind(a)), ProblemInstance(k, n, a)
                verdict = decide(inst)
                assert verdict_to_json(verdict) == verdict_to_json(decide(same))
                assert verdict.witness is None or verify_witness(verdict.witness)
                want = verdict_to_json(search_counterexample(same, 20, 0))
                assert verdict_to_json(search_counterexample(inst, 20, 0)) == want


def test_a_numpy_complex_a_is_checked_as_its_complex():
    # np.complex64 is not a complex, and orders against 0: it once took the real path
    for k, n, a in [(2, 3, 1j), (3, 3, 2j), (2, 4, -8 + 1j)]:
        w = complex_counterexample(k, n, a)
        want = evaluate(w.matrix, w)
        for kind in (np.complex64, np.complex128):
            got = evaluate(w.matrix, Witness(w.matrix, None, k, n, kind(a), 1))
            assert (got.sentence, got.equation, got.simple_root, got.factor_sum_zero) == (
                want.sentence, want.equation, want.simple_root, want.factor_sum_zero)
            assert got.holds is want.holds is False


# --- n beyond int64, and n of other integer types --------------------------------------


def test_a_unit_matrix_is_carried_only_while_n_fits():
    # at r <= 1 the bound n * max(1, r)^n <= 2^53 is n itself: the factor sum's entries
    # grow up to n, and a float64 sum rounds past 2^53
    x = Matrix([[0, 1], [1, 0]])
    assert _carried(x, 2**53).array.dtype == np.float64
    assert _carried(x, 2**53 + 1).array.dtype == object
    assert _carried(zeros(2), 2**64 + 1).array.dtype == object
    stack = _carried(x, 2**53)  # a carrier that fails a larger n goes back to Python ints
    assert _carried(stack, 2**53 + 1).array.tolist() == [[0, 1], [1, 0]]
    assert {type(e) for e in _carried(stack, 2**53 + 1).array.flat} == {int}
    huge = Matrix([[10**309, 0], [0, 1]])  # beyond the float range: stays on Python ints
    assert _carried(huge, 2) is huge
    wide = Matrix._wrap(np.array([[2**62, 0], [0, 1]]), "rational")  # int64: to Python ints
    assert _carried(wide, 2).array.tolist() == [[2**62, 0], [0, 1]]
    assert {type(e) for e in _carried(wide, 2).array.flat} == {int}


# --- the float form an exact matrix keeps --------------------------------------------


def _counted_conversions(monkeypatch):
    """The shapes of the exact matrices whose float form is made (converted, or summed) from
    here on, in order: the calls of ``core._float_form`` that find it missing from the slot."""
    calls, made = [], core._float_form

    def spy(m, summed):
        form = getattr(m, "_real", None)
        if form is None or summed and form[1] is None:
            calls.append(m.array.shape)
        return made(m, summed)

    monkeypatch.setattr(core, "_float_form", spy)
    return calls


@pytest.mark.parametrize("cell", [(8, 6, 1), (16, 12, 0), (8, 6, 2), (9, 4, 5)], ids=str)
def test_an_exact_witness_is_converted_to_floats_once_in_its_lifetime(cell, monkeypatch):
    # decide verifies its witness, and the caller verifies it twice more: one conversion of
    # the unit witness (lifted to |a| where its root is irrational); an equal matrix, again
    _clear_decide_caches()
    calls = _counted_conversions(monkeypatch)
    w = decide(ProblemInstance(*cell)).witness
    assert verify_witness(w) and verify_witness(w)
    assert decide(ProblemInstance(*cell)).witness.matrix.array.tobytes() == w.matrix.array.tobytes()
    k = cell[0]
    assert calls == [(k, k)]
    unit = theorems._unit_witness(w.tag, k, cell[1]).matrix
    assert unit.backend == "rational"
    again = Matrix(unit.rows())
    assert again == unit and again is not unit
    assert verify_witness(Witness(again, w.tag, k, cell[1], 1 if cell[2] else 0, 1))
    assert calls == [(k, k)] * 2


def test_a_lift_converts_and_only_an_evaluation_sums_the_rows(monkeypatch):
    # a one-shot lift pays for the conversion alone; the first evaluation adds the row sum
    sums, row_sum = [], core._row_sum
    monkeypatch.setattr(core, "_row_sum", lambda arr: sums.append(arr.shape) or row_sum(arr))
    m = Matrix(case_counterexample(CaseTag.CASE_I, 8, 6).matrix.rows())
    real = as_backend(m, "real")
    assert sums == [] and m._real == (real, None)
    for _ in range(2):
        assert evaluate(m, ProblemInstance(8, 6, 1)).holds is False
        assert sums == [(8, 8)] and m._real[0] is real and m._real[1] >= 1
    assert as_backend(m, "real") is real  # the same immutable matrix, wrapped once


@pytest.mark.parametrize("rows", [
    [[Fraction(1, 2), 0], [0, 1]],
    [[2**53 + 1, 0], [0, 1]],
    [[2**53, 2**53], [0, 1]],
    [[10**400, 0], [0, 1]],
    [[10**308, 10**308], [0, 1]],  # each entry floats, but the row sum is beyond the range
], ids=["fraction", "above-2^53", "row-sum-2^54", "beyond-the-floats", "row-sum-beyond"])
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # the row sum's inf
def test_a_matrix_the_carrier_cannot_hold_exactly_is_never_carried(rows):
    if rows[0][0] == 10**308:  # a lift converts the entries and sums no row: no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            want = np.array(rows, float)
            assert as_backend(Matrix(rows), "real").array.tobytes() == want.tobytes()
            assert scalar_mul(0.5, Matrix(rows)).array.tobytes() == (want * 0.5).tobytes()
    m = Matrix(rows)
    for n in (2, 3, 2**60):
        assert _carried(m, n) is m
    for n, a in ((2, 1), (3, 1), (3, 0), (4, -1)):
        clauses = evaluate(m, ProblemInstance(2, n, a))
        assert clauses._x is m and clauses.holds is True  # no root of aI, on Python ints


def test_a_matrix_beyond_the_float_range_is_evaluated_at_unit_scale_on_python_ints():
    m = Matrix([[10**400, 0], [0, 1]])
    clauses = evaluate(m, ProblemInstance(2, 2, 1))
    assert clauses._x is m and clauses.holds is True and clauses.equation is False
    with pytest.raises(core.MatrixError, match="beyond the float range"):
        evaluate(m, ProblemInstance(2, 2, 2))  # scaled to unit: a lift to floats


@pytest.mark.parametrize("cell", [(8, 6, 1), (16, 12, 0), (8, 5, 3), (8, 6, 2)], ids=str)
def test_every_evaluation_forms_its_own_powers(cell, monkeypatch):
    # the float form holds entries only: each evaluation runs its own ladder of squares
    calls, ladder = [], _pow_ladder
    monkeypatch.setattr(theorems, "_pow_ladder", lambda x, n: calls.append(n) or ladder(x, n))
    w = decide(ProblemInstance(*cell)).witness
    assert len(calls) == 1
    for count in (2, 3):
        assert verify_witness(w) and len(calls) == count


def _clause_tuple(c):
    return c.equation, c.simple_root, c.factor_sum_zero, c.holds


@pytest.mark.parametrize("a", [1, 2], ids=["unit", "lifted"])
def test_threads_that_evaluate_one_fresh_exact_matrix_agree_with_one_thread(a):
    # four threads race to make one matrix's float form; at a = 2 each lifts it to floats to
    # scale it to |a| = 1.  Two that race each make an equal form.
    x, inst = case_counterexample(CaseTag.CASE_I, 8, 6).matrix, ProblemInstance(8, 6, a)
    want = _clause_tuple(evaluate(Matrix(x.rows()), inst))
    floats = x.array.astype(np.float64).tobytes()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            fresh, got = Matrix(x.rows()), []  # no float form yet
            barrier = threading.Barrier(4)

            def run():
                barrier.wait(timeout=10)
                got.append(_clause_tuple(evaluate(fresh, inst)))

            threads = [threading.Thread(target=run) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in threads)
            assert got == [want] * 4
            assert as_backend(fresh, "real").array.tobytes() == floats
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("rows", [
    case_counterexample(CaseTag.CASE_II, 5, 4).matrix.rows(),
    [[2**53 + 1, -3], [7, 0]],
    [[-(2**70), 1], [0, 2**1000]],
    [[Fraction(1, 3), 2], [0, -1]],
], ids=["case-ii", "above-2^53", "wide", "fraction"])
def test_the_float_form_is_the_entries_astype_float64_before_and_after_an_evaluation(rows):
    for evaluated_first in (False, True):
        m = Matrix(rows)
        want = m.array.astype(np.float64).tobytes()
        k = m.order
        if evaluated_first:
            evaluate(m, ProblemInstance(k, 3, 2))
        assert as_backend(m, "real").array.tobytes() == want
        evaluate(m, ProblemInstance(k, 4, 1))
        assert as_backend(m, "real").array.tobytes() == want
        assert as_backend(m, "real").backend == "real"


def test_a_huge_n_with_an_a_of_no_rational_root_decides_promptly():
    # the integer root of 2 at n = 2^65 once ran Newton steps on n-bit powers for minutes
    verdict = decide(ProblemInstance(2, 2**65, 2))
    assert not verdict.holds and verdict.witness.tag is CaseTag.CASE_I
    assert verdict.witness.matrix.backend == "real" and verify_witness(verdict.witness)


@pytest.mark.parametrize("a, tag", [(1, CaseTag.CASE_IV), (-1, CaseTag.CASE_VI)])
def test_a_huge_odd_n_builds_only_the_block_its_witness_places(a, tag):
    # the witness once read the whole table of 10^7 factor blocks: seconds and about 1 GB
    import tracemalloc

    tracemalloc.start()
    try:
        verdict = decide(ProblemInstance(3, 20000001, a))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not verdict.holds and verdict.witness.tag is tag and verify_witness(verdict.witness)
    assert peak < 2**20, peak


def test_a_witness_that_fails_re_verification_raises_by_its_backend(monkeypatch):
    # rounding can break a float witness at a huge odd n, a usage error; an exact one, a bug
    with pytest.raises(ValueError, match=re.escape(
            "the float case-iv witness at k = 3, n = 1000000001, a = 1 fails re-verification "
            "at absolute tolerance 1e-09, relative 1e-09")):
        decide(ProblemInstance(3, 10**9 + 1, 1))
    monkeypatch.setattr(theorems, "verify_witness", lambda w, tol: False)
    with pytest.raises(RuntimeError):
        decide(ProblemInstance(4, 2, 1))  # the exact case-i witness
    with pytest.raises(ValueError):
        decide(ProblemInstance(4, 3, 1))


# --- the table of refuting families against the minimal-polynomial argument ----------
# p(X) = 0 exactly when the minimal polynomial of X divides p.  For a != 0 it is a set S
# of distinct factors of x^n - a, enumerated here by shape (which real roots, how many
# quadratics); for a = 0 it is x^j.  A cell is refuted exactly when some S refutes and
# fits in order k: deg S <= k, and S has a linear factor or k - deg S is even.


def _some_realisable_set_refutes(k, n, a):
    if a == 0:  # X^n = 0 and X != 0 with X^(n-1) != 0: S = x^n itself
        return any(j == n for j in range(2, min(n, k) + 1))
    sentence2 = a < 0 and n % 2 == 0
    r = 1 if a > 0 else -1  # the real root at unit scale, for sentence 1
    roots = () if sentence2 else (1, -1) if n % 2 == 0 else (r,)
    quadratics = n // 2 if sentence2 else (n - 1) // 2
    for count in range(len(roots) + 1):
        for linear in itertools.combinations(roots, count):
            for q in range(quadratics + 1):
                degree = count + 2 * q
                if not 0 < degree <= k or (not linear and (k - degree) % 2):
                    continue
                # sentence 2: no one quadratic is S; sentence 1: x - r in S, and S != {x - r}
                if (q >= 2) if sentence2 else (r in linear and count + q >= 2):
                    return True
    return False


def test_the_refuting_table_is_the_minimal_polynomial_argument():
    checked = quarantined = 0
    for k, n in itertools.product(range(2, 17), repeat=2):
        for a in (1, -1, 0, 2, Fraction(-1, 3)):
            inst, tag = ProblemInstance(k, n, a), constructions._refuting_tag(k, n, a)
            assert (tag is None) == (not _some_realisable_set_refutes(k, n, a)), (k, n, a)
            paper = inst.sentence == 2 and (k % 2 == 1 or n == 2)
            assert is_quarantined(inst) == (inst.sentence == 2 and tag is None and not paper)
            checked, quarantined = checked + 1, quarantined + is_quarantined(inst)
    assert (checked, quarantined) == (15 * 15 * 5, 14)


def test_a_cell_with_n_beyond_int64_is_refuted_by_a_verified_case_witness():
    inst = ProblemInstance(2, 2**65, 1)
    w = case_counterexample(CaseTag.CASE_I, 2, 2**65)
    clauses = evaluate(w.matrix, inst)
    assert clauses._x.array.dtype == object and clauses.equation and not clauses.holds
    verdict = decide(inst)
    assert not verdict.holds and verdict.witness.tag is CaseTag.CASE_I
    assert verify_witness(verdict.witness)


@pytest.mark.parametrize("n", [2**62, 2**64 + 1], ids=["2^62", "2^64+1"])
def test_the_zero_a_search_holds_at_n_beyond_the_array_range(n):
    # a shift block of order 1 + floor(u * n) is cut at k: the orders are clipped before
    # the intp cast, which once wrapped, or asked numpy for an array of n entries
    verdict = search_counterexample(ProblemInstance(3, n, 0), 5, 0)
    assert verdict.holds and verdict.mode is VerdictMode.SEARCH_EXHAUSTED and verdict.trials == 5
    for x in generate_candidates(ProblemInstance(3, n, 0), 5, 0):
        assert is_zero(mat_pow(x, 3))


def test_the_zero_a_search_builds_no_factor_table():
    unit_factors.cache_clear()
    search_counterexample(ProblemInstance(3, 200000, 0), 5, 0)
    list(generate_candidates(ProblemInstance(4, 9, 0), 70, 1))
    assert unit_factors.cache_info().currsize == 0


@pytest.mark.parametrize("kind", [np.int64, np.int32], ids=lambda t: t.__name__)
def test_a_numpy_integer_n_is_evaluated_as_its_int(kind):
    for cell in ((4, 3, 1), (2, 4, 1), (3, 5, -1), (4, 4, -1), (4, 4, 0)):
        w = decide(ProblemInstance(*cell)).witness
        numpy_n = Witness(w.matrix, None, w.k, kind(w.n), w.a, w.refutes_sentence)
        assert verify_witness(numpy_n) and verify_witness(w)
        got, want = evaluate(w.matrix, numpy_n), evaluate(w.matrix, w)
        assert (got.equation, got.simple_root, got.holds) == (want.equation, want.simple_root,
                                                               want.holds)
    x = case_counterexample(CaseTag.CASE_III, 4, 3).matrix
    got = geometric_factor_sum(x, kind(3), RootConvention.real(kind(3), 1))
    assert got == geometric_factor_sum(x, 3, RootConvention.real(3, 1))


def test_a_float_n_is_refused_by_evaluate_and_the_factor_sum():
    x = case_counterexample(CaseTag.CASE_III, 4, 3).matrix
    with pytest.raises(ValueError, match="n must be an integer >= 2, got 3.0"):
        verify_witness(Witness(x, None, 4, 3.0, 1, 1))
    with pytest.raises(ValueError, match="n must be an integer >= 2, got 3.0"):
        geometric_factor_sum(x, 3.0, RootConvention.real(3.0, 1))
    with pytest.raises(ConventionError):  # below 2, the n check comes first
        verify_witness(Witness(x, None, 4, 1.0, 1, 1))


def test_one_chunk_bound_moves_the_sentence_two_clauses_and_the_odd_product(monkeypatch):
    calls, quadratics = [], factors._quadratics

    def recorded(square, n, a, first, stop):
        calls.append((first, stop))
        return quadratics(square, n, a, first, stop)

    monkeypatch.setattr(factors, "_QUADRATIC_ENTRIES", 32)
    monkeypatch.setattr(factors, "_quadratics", recorded)
    x = decide(ProblemInstance(4, 8, -1)).witness.matrix
    assert evaluate(x, ProblemInstance(4, 8, -1))._firsts == range(1, 5, 2)
    factors.odd_factorization_product(case_counterexample(CaseTag.CASE_III, 4, 9).matrix, 9)
    assert calls == [(1, 3), (3, 5)]
