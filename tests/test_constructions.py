"""Witness constructions: nilpotents, case families, rotations, conjugation."""

import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from matroot import (
    CaseTag,
    Matrix,
    MatrixError,
    RootConvention,
    Tolerance,
    Witness,
    block_diag,
    case_counterexample,
    complex_counterexample,
    conjugate_matrix,
    conjugate_random,
    determinant,
    geometric_factor_sum,
    identity,
    is_zero,
    mat_eq,
    mat_pow,
    quadratic_factor_eval,
    rotation,
    scalar_matrix,
    scalar_mul,
    scale_from_unit,
    scale_to_unit,
    shift_nilpotent,
    swap_block,
    theorem2_counterexample,
    verify_witness,
    witness_from_json,
    witness_to_json,
    zeros,
)

import matroot.constructions as constructions
from matroot.constructions import (
    _FLOAT_SHEARS, _RATIONAL_SHEARS_PER_ORDER, _exact_root, _shear_draws, construct,
)
from matroot.factors import _float_root, unit_factors

TOL = Tolerance(1e-9, 1e-9)


# --- shift_nilpotent ------------------------------------------------------------


def test_full_shift_has_first_superdiagonal():
    a = shift_nilpotent(4, 4)
    assert a == Matrix([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0]])


def test_square_nilpotent_is_top_right_corner():
    a = shift_nilpotent(4, 2)
    expected = zeros(4, "rational").array.copy()
    expected[0, 3] = 1
    assert a == Matrix._wrap(expected, "rational")
    assert mat_pow(a, 2) == zeros(4, "rational")
    assert a != zeros(4, "rational")


def test_smallest_shift():
    assert shift_nilpotent(2, 2) == Matrix([[0, 1], [0, 0]])


def test_shift_nilpotency_index_is_exactly_n():
    for k in range(2, 13):
        for n in range(2, k + 1):
            a = shift_nilpotent(k, n)
            assert mat_pow(a, n) == zeros(k, "rational")
            assert mat_pow(a, n - 1) != zeros(k, "rational")


def test_shift_rejects_out_of_range_indices():
    with pytest.raises(ValueError):
        shift_nilpotent(3, 4)
    with pytest.raises(ValueError):
        shift_nilpotent(3, 1)


@pytest.mark.parametrize("k, n", [(3.0, 2), (3, 2.0), ("3", 2), (True, 2), (3, 1), (1, 2)], ids=str)
def test_shift_takes_k_and_n_as_integers_at_least_2(k, n):
    name, value = ("k", k) if type(k) is not int or k < 2 else ("n", n)
    message = f"{name} must be an integer >= 2, got {value!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        shift_nilpotent(k, n)
    assert shift_nilpotent(np.int64(3), np.int32(2)) == shift_nilpotent(3, 2)


# --- the six case families --------------------------------------------------------


def test_case_i_is_swap_blocks():
    w = case_counterexample(CaseTag.CASE_I, 4, 4)
    t = swap_block()
    assert w.matrix.backend == "rational"
    assert w.matrix == Matrix(
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    )
    assert mat_pow(w.matrix, 4) == identity(4, "rational")
    assert w.a == 1 and w.refutes_sentence == 1
    value = geometric_factor_sum(w.matrix, 4, RootConvention.real(4, 1))
    assert not is_zero(value)


def test_case_ii_has_unit_corner_and_refutes():
    w = case_counterexample(CaseTag.CASE_II, 5, 2)
    assert w.matrix[0, 0] == 1
    assert mat_pow(w.matrix, 2) == identity(5, "rational")
    value = geometric_factor_sum(w.matrix, 2, RootConvention.real(2, 1))
    assert value[0, 0] == 2  # the (1,1) entry accumulates one per power
    assert not is_zero(value)


def test_case_iii_entries_and_factor_sum():
    w = case_counterexample(CaseTag.CASE_III, 4, 3)
    m = w.matrix
    assert m.backend == "real"
    assert m[0, 0] == 1.0 and m[1, 1] == 1.0
    assert abs(m[2, 2] - math.cos(2.0 * math.pi / 3.0)) < 1e-15
    assert mat_eq(mat_pow(m, 3), identity(4, "real"), TOL)
    value = geometric_factor_sum(m, 3, RootConvention.real(3, 1))
    assert abs(value[0, 0] - 3.0) < 1e-12  # (1,1) entry of each power is 1
    assert not is_zero(value, TOL)


def test_case_v_alternating_sum_entry_is_n():
    w = case_counterexample(CaseTag.CASE_V, 4, 3)
    m = w.matrix
    assert w.a == -1
    assert mat_eq(mat_pow(m, 3), scalar_matrix(-1.0, 4, "real"), TOL)
    value = geometric_factor_sum(m, 3, RootConvention.real(3, -1))
    assert abs(value[0, 0] - 3.0) < 1e-12
    assert not is_zero(value, TOL)


@pytest.mark.parametrize(
    "tag,k,n",
    [
        (CaseTag.CASE_I, 2, 2),
        (CaseTag.CASE_I, 8, 6),
        (CaseTag.CASE_II, 3, 8),
        (CaseTag.CASE_II, 9, 2),
        (CaseTag.CASE_III, 4, 5),
        (CaseTag.CASE_III, 8, 9),
        (CaseTag.CASE_IV, 3, 3),
        (CaseTag.CASE_IV, 7, 7),
        (CaseTag.CASE_V, 6, 5),
        (CaseTag.CASE_VI, 5, 9),
    ],
)
def test_case_witnesses_satisfy_equation_and_refute(tag, k, n):
    w = case_counterexample(tag, k, n)
    target = scalar_matrix(float(w.a), k, "real")
    assert mat_eq(
        mat_pow(w.matrix if w.matrix.backend == "real" else scalar_mul(1.0, w.matrix), n),
        target,
        TOL,
    )
    conv = RootConvention.real(n, w.a)
    assert not mat_eq(
        scalar_mul(1.0, w.matrix), scalar_matrix(conv.root, k, "real"), TOL
    )
    assert verify_witness(w)


@pytest.mark.parametrize(
    "tag,k,n",
    [
        (CaseTag.CASE_I, 3, 4),  # odd k
        (CaseTag.CASE_I, 4, 3),  # odd n
        (CaseTag.CASE_II, 4, 4),  # even k
        (CaseTag.CASE_III, 2, 3),  # k = 2: sentence is true there
        (CaseTag.CASE_III, 4, 4),  # even n
        (CaseTag.CASE_IV, 4, 3),  # even k
        (CaseTag.CASE_IV, 1, 3),  # k too small
        (CaseTag.CASE_V, 2, 5),  # k = 2 rejected
        (CaseTag.CASE_V, 5, 5),  # odd k
        (CaseTag.CASE_VI, 3, 4),  # even n
        (CaseTag.NILPOTENT_SHIFT, 4, 4),  # not a case family tag
    ],
)
def test_case_parity_validation(tag, k, n):
    with pytest.raises(ValueError):
        case_counterexample(tag, k, n)


# --- the table-driven builders against the hand-written families -------------------
# Each family used to be written out by hand, its rotation blocks included.  That code
# is the reference: the builders that read the factor table must give the same
# witnesses, floats bit for bit and rationals by value and entry type, and must reject
# the same cells.


def _reference_case_counterexample(tag, k, n):
    if tag not in (CaseTag.CASE_I, CaseTag.CASE_II, CaseTag.CASE_III,
                   CaseTag.CASE_IV, CaseTag.CASE_V, CaseTag.CASE_VI):
        raise ValueError(tag)
    if n < 2:
        raise ValueError(n)
    if tag in (CaseTag.CASE_I, CaseTag.CASE_II):
        if n % 2 != 0:
            raise ValueError(n)
    elif n % 2 == 0 or n < 3:
        raise ValueError(n)
    t = swap_block()
    r = rotation(2.0 * math.pi / n)
    if tag is CaseTag.CASE_I:
        if k < 2 or k % 2 != 0:
            raise ValueError(k)
        m, a = block_diag([t] * (k // 2)), 1
    elif tag is CaseTag.CASE_II:
        if k < 3 or k % 2 != 1:
            raise ValueError(k)
        m, a = block_diag([Matrix([[1]], backend="rational")] + [t] * ((k - 1) // 2)), 1
    elif tag is CaseTag.CASE_III:
        if k < 4 or k % 2 != 0:
            raise ValueError(k)
        eye2 = Matrix([[1.0, 0.0], [0.0, 1.0]], backend="real")
        m, a = block_diag([eye2] + [r] * (k // 2 - 1)), 1
    elif tag is CaseTag.CASE_IV:
        if k < 3 or k % 2 != 1:
            raise ValueError(k)
        m, a = block_diag([Matrix([[1.0]], backend="real")] + [r] * ((k - 1) // 2)), 1
    elif tag is CaseTag.CASE_V:
        if k < 4 or k % 2 != 0:
            raise ValueError(k)
        minus_eye2 = Matrix([[-1.0, 0.0], [0.0, -1.0]], backend="real")
        m, a = block_diag([minus_eye2] + [scalar_mul(-1.0, r)] * (k // 2 - 1)), -1
    else:
        if k < 3 or k % 2 != 1:
            raise ValueError(k)
        minus_one = Matrix([[-1.0]], backend="real")
        m, a = block_diag([minus_one] + [scalar_mul(-1.0, r)] * ((k - 1) // 2)), -1
    return Witness(matrix=m, tag=tag, k=k, n=n, a=a, refutes_sentence=1)


def _reference_theorem2_counterexample(k, n):
    if n % 2 != 0 or n < 4 or k % 2 != 0 or k < 4:
        raise ValueError((k, n))
    r1 = rotation(math.pi / n)
    r2 = rotation(3.0 * math.pi / n)
    m = block_diag([r1] + [r2] * (k // 2 - 1))
    return Witness(matrix=m, tag=CaseTag.THEOREM2_CE, k=k, n=n, a=-1, refutes_sentence=2)


def _same_witness(got, want):
    assert witness_to_json(got) == witness_to_json(want)
    assert type(got.a) is type(want.a)
    m, r = got.matrix, want.matrix
    assert m.backend == r.backend and m.array.dtype == r.array.dtype
    if m.backend == "rational":
        assert m.entries() == r.entries()
        assert [type(e) for e in m.entries()] == [type(e) for e in r.entries()]
    else:
        assert m.array.tobytes() == r.array.tobytes()


def _check_builder(build, reference, *args):
    """build(*args) against reference(*args): the same witness, plain and
    conjugated, or a ValueError from both; returns whether the cell was valid."""
    try:
        want = reference(*args)
    except ValueError:
        with pytest.raises(ValueError):
            build(*args)
        return False
    got = build(*args)
    _same_witness(got, want)
    for seed in (3, 7):
        _same_witness(conjugate_random(got, seed), conjugate_random(want, seed))
    return True


BUILDER_CELLS = [(k, n) for k in range(1, 13) for n in range(1, 14)]


@pytest.mark.parametrize("tag", list(CaseTag), ids=lambda t: t.value)
def test_case_builder_matches_the_hand_written_families(tag):
    valid = [_check_builder(case_counterexample, _reference_case_counterexample, tag, k, n)
             for k, n in BUILDER_CELLS]
    assert any(valid) == (tag.value.startswith("case-"))


def test_two_angle_builder_matches_the_hand_written_witness():
    valid = [_check_builder(theorem2_counterexample, _reference_theorem2_counterexample, k, n)
             for k, n in BUILDER_CELLS]
    assert sum(valid) == 5 * 5  # k in {4, ..., 12} even, n in {4, ..., 12} even


def _nilpotent_witness(k, n):
    return Witness(shift_nilpotent(k, n), CaseTag.NILPOTENT_SHIFT, k, n, 0, 1)


@pytest.mark.parametrize("tag", list(CaseTag), ids=lambda t: t.value)
def test_construct_builds_each_real_tag(tag):
    builders = {CaseTag.NILPOTENT_SHIFT: _nilpotent_witness,
                CaseTag.THEOREM2_CE: theorem2_counterexample}
    build = builders.get(tag, lambda k, n: case_counterexample(tag, k, n))
    built = 0
    for k, n in BUILDER_CELLS:
        try:
            want = build(k, n)
        except ValueError:
            with pytest.raises(ValueError):
                construct(tag, k, n)
            continue
        _same_witness(construct(tag, k, n), want)
        built += 1
    assert (built > 0) == (tag is not CaseTag.COMPLEX_CE)  # complex-ce is not a real tag


def test_constructed_nilpotent_witness_keeps_an_exact_zero_a():
    w = construct(CaseTag.NILPOTENT_SHIFT, 5, 3)
    assert type(w.a) is int and witness_to_json(w)["a"] == "0/1"


# --- block sums through views against the index-array layout ------------------------


def _index_array_block_sum(k, lead, blocks, backend):
    """The reference layout: the lead and each 2x2 block placed through index arrays."""
    arr = np.zeros((k, k), constructions._BACKEND_DTYPE[backend])
    arr[range(len(lead)), range(len(lead))] = lead
    at = np.arange(len(lead), k, 2)[:, None, None]
    arr[at + [[0], [1]], at + [[0, 1]]] = blocks
    return arr


@pytest.mark.parametrize("tag", [t for t in CaseTag if t.value.startswith("case-")]
                         + [CaseTag.THEOREM2_CE], ids=lambda t: t.value)
def test_block_sum_views_match_the_index_array_layout(tag, monkeypatch):
    block_sum, calls = constructions._block_sum, []
    monkeypatch.setattr(constructions, "_block_sum",
                        lambda *args: calls.append(args) or block_sum(*args))
    built = 0
    for k in range(2, 17):
        for n in range(2, 9):
            try:
                w = construct(tag, k, n)
            except ValueError:
                continue
            built += 1
            (_, lead, blocks, backend), = calls
            calls.clear()
            table = unit_factors(n, w.a)[1]
            assert not np.shares_memory(w.matrix.array, table)
            for b in ("rational", "real"):
                got = block_sum(k, lead, blocks, b).array
                want = _index_array_block_sum(k, lead, blocks, b)
                assert got.dtype == want.dtype and (got == want).all()
                assert [type(e) for e in got.flat] == [type(e) for e in want.flat]
                assert not np.shares_memory(got, table) and not np.shares_memory(got, blocks)
                if b == backend:
                    assert (w.matrix.array == want).all()
    assert built >= 15


# --- theorem-2 counterexample -------------------------------------------------------


def test_two_angle_witness_structure_and_power():
    w = theorem2_counterexample(4, 4)
    m = w.matrix
    r1, r2 = rotation(math.pi / 4.0), rotation(3.0 * math.pi / 4.0)
    assert mat_eq(Matrix([[m[0, 0], m[0, 1]], [m[1, 0], m[1, 1]]]), r1, TOL)
    assert mat_eq(Matrix([[m[2, 2], m[2, 3]], [m[3, 2], m[3, 3]]]), r2, TOL)
    assert mat_eq(mat_pow(m, 4), scalar_matrix(-1.0, 4, "real"), Tolerance(1e-10, 0.0))
    for i in (1, 2):
        assert not is_zero(quadratic_factor_eval(m, 4, -1, i), TOL)
    assert w.refutes_sentence == 2 and w.a == -1


def test_two_angle_witness_larger_orders():
    w = theorem2_counterexample(6, 4)
    assert w.matrix.order == 6
    assert mat_eq(mat_pow(w.matrix, 4), scalar_matrix(-1.0, 6, "real"), TOL)
    for i in (1, 2):
        assert not is_zero(quadratic_factor_eval(w.matrix, 4, -1, i), TOL)

    w = theorem2_counterexample(4, 6)
    assert mat_eq(
        mat_pow(w.matrix, 6), scalar_matrix(-1.0, 4, "real"), Tolerance(1e-10, 0.0)
    )
    assert verify_witness(w)


@pytest.mark.parametrize("k,n", [(4, 2), (5, 4), (2, 4), (3, 6), (4, 5)])
def test_two_angle_witness_rejects_degenerate_cells(k, n):
    with pytest.raises(ValueError):
        theorem2_counterexample(k, n)


# --- complex witness -----------------------------------------------------------------


def test_complex_witness_simplest_case_is_real_diagonal():
    w = complex_counterexample(2, 2, 1)
    m = w.matrix
    assert m.backend == "complex"
    assert abs(m[0, 0] - 1) < 1e-15 and abs(m[1, 1] + 1) < 1e-15
    assert mat_eq(mat_pow(m, 2), identity(2, "complex"), TOL)
    assert verify_witness(w)


def test_complex_witness_cube_root_fills_diagonal():
    w = complex_counterexample(3, 3, 1)
    conv = RootConvention.principal(3, 1)
    value = geometric_factor_sum(w.matrix, 3, conv)
    assert abs(value[0, 0] - 3.0) < 1e-12
    assert verify_witness(w)


def test_complex_witness_scales_with_principal_root():
    w = complex_counterexample(2, 4, 16)
    m = w.matrix
    assert abs(m[0, 0] - 2.0) < 1e-12
    assert abs(m[1, 1] - 2.0j) < 1e-12
    assert mat_eq(
        mat_pow(m, 4), scalar_matrix(16.0 + 0.0j, 2, "complex"), Tolerance(1e-10, 1e-10)
    )


def test_complex_witness_rejects_zero_scalar():
    with pytest.raises(ValueError):
        complex_counterexample(2, 2, 0)


@pytest.mark.parametrize("k, n", [(2, 2.5), (2.0, 2), (2, 1), (1, 2), (2, np.float64(3))], ids=str)
def test_complex_witness_takes_k_and_n_as_integers_at_least_2(k, n):
    # n = 2.5 once built a "root" for a non-integer power
    name, value = ("n", n) if type(k) is int and k >= 2 else ("k", k)
    message = f"{name} must be an integer >= 2, got {value!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        complex_counterexample(k, n, 1j)


def test_construct_takes_k_and_n_as_integers():
    # a float n once gave a witness that verify_witness refused, n = 0 a case-i witness of
    # X^0, and numpy integers a witness that json.dumps refused
    for k, n in [(3, 3.0), (3.0, 3), (4, 0), (4, -2), (0, 2)]:
        name, value = ("k", k) if type(k) is not int or k < 1 else ("n", n)
        with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer >= 1")):
            construct(CaseTag.CASE_IV if n == 3 else CaseTag.CASE_I, k, n)
    with pytest.raises(ValueError, match="^n must be an integer >= 1, got 3.0$"):
        case_counterexample(CaseTag.CASE_IV, 3, 3.0)
    built = [case_counterexample(CaseTag.CASE_IV, np.int64(3), np.int64(3)),
             theorem2_counterexample(np.int64(4), np.int32(4)),
             construct(CaseTag.NILPOTENT_SHIFT, np.int64(3), np.int64(2)),
             complex_counterexample(np.int64(2), np.int64(3), 1j)]
    for w in built:
        assert type(w.k) is int and type(w.n) is int and verify_witness(w)
        assert json.loads(json.dumps(witness_to_json(w)))["n"] == w.n


# --- conjugation ------------------------------------------------------------------------


def test_conjugation_is_deterministic_per_seed():
    w = case_counterexample(CaseTag.CASE_I, 4, 4)
    a = conjugate_random(w, seed=1)
    b = conjugate_random(w, seed=1)
    assert a.matrix == b.matrix
    c = conjugate_random(w, seed=2)
    assert c.matrix != a.matrix


def test_conjugated_swap_witness_still_refutes_exactly():
    w = conjugate_random(case_counterexample(CaseTag.CASE_I, 4, 4), seed=0)
    assert w.matrix.backend == "rational"
    assert mat_pow(w.matrix, 4) == identity(4, "rational")
    value = geometric_factor_sum(w.matrix, 4, RootConvention.real(4, 1))
    assert not is_zero(value)
    assert verify_witness(w)


def test_conjugation_preserves_nilpotency_across_many_seeds():
    a = shift_nilpotent(5, 3)
    for seed in range(100):
        c = conjugate_matrix(a, seed)
        assert mat_pow(c, 3) == zeros(5, "rational")
        assert mat_pow(c, 2) != zeros(5, "rational")


def test_conjugation_preserves_determinant_exactly():
    m = Matrix([[2, 1, 0], [0, 1, 3], [1, 0, 1]])
    for seed in (0, 5, 17):
        assert determinant(conjugate_matrix(m, seed)) == determinant(m)


def test_float_conjugation_respects_invariance_tolerance():
    w = case_counterexample(CaseTag.CASE_III, 6, 5)
    loose = Tolerance(1e-7, 1e-7)
    for seed in range(25):
        c = conjugate_random(w, seed)
        assert mat_eq(mat_pow(c.matrix, 5), identity(6, "real"), loose)
        assert verify_witness(c, loose)


def test_conjugation_keeps_tag_and_instance_fields():
    w = conjugate_random(theorem2_counterexample(4, 4), seed=9)
    assert w.tag is CaseTag.THEOREM2_CE
    assert (w.k, w.n, w.a, w.refutes_sentence) == (4, 4, -1, 2)


def test_conjugated_complex_witness_still_refutes():
    w = complex_counterexample(3, 3, 2 - 1j)
    for seed in (0, 4, 9):
        assert verify_witness(conjugate_random(w, seed), Tolerance(1e-7, 1e-7))


def _list_shear_conjugate(m, seed):
    """Reference for conjugate_matrix: the same draws, with each shear done
    entry by entry on Python lists; returns the conjugated rows."""
    rng = np.random.default_rng(seed)
    k, rows = m.order, m.rows()
    if k < 2:
        return rows
    if m.backend == "rational":
        count = _RATIONAL_SHEARS_PER_ORDER * k
        coeffs = rng.integers(-2, 3, size=count)
    else:
        count = _FLOAT_SHEARS
        coeffs = rng.choice((-1, 1), size=count)
    pairs = rng.integers(0, k, size=(count, 2))
    for (i, j), c in zip(pairs, coeffs):
        i, j, c = int(i), int(j), int(c)
        if i == j or c == 0:
            continue
        rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
        for r in rows:
            r[j] = r[j] - c * r[i]
    return rows


def _random_matrix(backend, k, rng):
    if backend == "rational":
        pick = lambda: Fraction(int(rng.integers(-9, 10)), int(rng.choice((1, 1, 2, 3))))
    elif backend == "real":
        pick = lambda: float(rng.standard_normal())
    else:
        pick = lambda: complex(rng.standard_normal(), rng.standard_normal())
    return Matrix([[pick() for _ in range(k)] for _ in range(k)], backend=backend)


@pytest.mark.parametrize("backend", ["rational", "real", "complex"])
def test_conjugation_matches_the_list_shear_reference(backend):
    rng = np.random.default_rng(2024)
    for k in range(1, 9):
        m = _random_matrix(backend, k, rng)
        before = m.array.copy()
        for seed in range(20):
            got = conjugate_matrix(m, seed)
            ref = _list_shear_conjugate(m, seed)
            want = np.array(ref, dtype=m.array.dtype)
            assert got.backend == backend and got.array.dtype == m.array.dtype
            assert np.array_equal(got.array, want)
            if backend != "rational":
                assert got.array.tobytes() == want.tobytes()  # bit for bit
            assert [type(e) for e in got.entries()] == [type(e) for r in ref for e in r]
        assert np.array_equal(m.array, before) and not m.array.flags.writeable


@pytest.mark.parametrize("seed", [-1, 1.5, True, "3"])
def test_conjugation_rejects_a_seed_that_is_not_a_non_negative_integer(seed):
    message = f"seed must be an integer >= 0, got {seed!r}"
    for m in (swap_block(), Matrix([[2]])):  # also at order 1, which has no shears
        with pytest.raises(ValueError, match=re.escape(message)):
            conjugate_matrix(m, seed)


def test_conjugation_accepts_numpy_integer_seeds():
    m = case_counterexample(CaseTag.CASE_III, 6, 5).matrix
    got, want = conjugate_matrix(m, np.int64(5)), conjugate_matrix(m, 5)
    assert got.array.tobytes() == want.array.tobytes()


def test_float_shear_draws_match_rng_choice():
    # construct --conjugate-seed output depends on these draws staying the same
    for seed in range(2000):
        chosen, drawn = np.random.default_rng(seed), np.random.default_rng(seed)
        want = chosen.choice((-1, 1), size=_FLOAT_SHEARS), chosen.integers(0, 5, size=(3, 2))
        got = _shear_draws(drawn, 5, "real")
        assert all(g.dtype == w.dtype and np.array_equal(g, w) for g, w in zip(got, want))
        assert drawn.bit_generator.state == chosen.bit_generator.state


# --- scaling ---------------------------------------------------------------------------


def test_scale_to_unit_with_perfect_square_stays_rational():
    x = scalar_mul(2, swap_block())
    back = scale_to_unit(x, 2, 4)
    assert back.backend == "rational"
    assert back == swap_block()


def test_scale_to_unit_fixes_identity():
    assert scale_to_unit(identity(3, "rational"), 3, 1) == identity(3, "rational")


def test_scale_to_unit_negative_scalar_rotation():
    x = scalar_mul(3.0, rotation(math.pi / 4.0))
    back = scale_to_unit(x, 4, -81)
    assert mat_eq(back, rotation(math.pi / 4.0), Tolerance(1e-12, 1e-12))
    # x is indeed a 4th root of -81 I
    assert mat_eq(
        mat_pow(x, 4), scalar_matrix(-81.0, 2, "real"), Tolerance(1e-9, 1e-9)
    )


def test_scale_round_trip():
    rng = np.random.default_rng(59)
    for a in (2, -3, 0.5, Fraction(9, 4)):
        n = 3 if (isinstance(a, (int, float, Fraction)) and a < 0) else 2
        x = Matrix(rng.uniform(-2.0, 2.0, size=(3, 3)))
        there = scale_from_unit(x, n, a)
        back = scale_to_unit(there, n, a)
        assert mat_eq(back, x, Tolerance(1e-12, 1e-12))


def test_scale_round_trip_exact_for_perfect_roots():
    x = Matrix([[1, 2], [3, 4]])
    there = scale_from_unit(x, 2, Fraction(9, 4))
    assert there.backend == "rational"
    assert scale_to_unit(there, 2, Fraction(9, 4)) == x


def test_float_scaling_keeps_the_bits_of_scalar_mul():
    rng = np.random.default_rng(61)
    for backend in ("rational", "real", "complex"):
        x = Matrix(rng.integers(-3, 4, size=(3, 3)).tolist(), backend=backend)
        for a in (2, -3, 0.5, Fraction(1, 3), 1e300, -(10**12), Fraction(1, 10**400)):
            for n in (2, 3, 5):
                for power, scale in ((1, scale_from_unit), (-1, scale_to_unit)):
                    if backend == "rational" and _exact_root(abs(a), n) is not None:
                        continue  # scaled exactly instead
                    want = scalar_mul(_float_root(abs(a), n, power), x)
                    got = scale(x, n, a)
                    assert got.backend == want.backend and not got.array.flags.writeable
                    assert got.array.tobytes() == want.array.tobytes(), (backend, a, n, power)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_float_scaling_refuses_a_product_beyond_the_float_range():
    big = scalar_matrix(1e300, 2, "real")
    with pytest.raises(MatrixError):
        scale_from_unit(big, 2, 1e20)  # 1e300 * 1e10 overflows to inf
    with pytest.raises(MatrixError):
        scale_to_unit(big, 2, 1e-20)


def test_scaling_rejects_zero():
    with pytest.raises(ValueError):
        scale_to_unit(identity(2, "rational"), 3, 0)


@pytest.mark.parametrize("scale", [scale_to_unit, scale_from_unit], ids=lambda f: f.__name__)
@pytest.mark.parametrize("n", [2.5, 3.0, 1, 0, np.float64(2.0)], ids=str)
def test_scaling_takes_n_as_an_integer_at_least_2(scale, n):
    # scale_to_unit(x, 2.5, 4) once scaled by 4^(-1/2.5), and scale_from_unit(x, 3.0, 8)
    # raised TypeError
    with pytest.raises(ValueError, match=re.escape(f"n must be an integer >= 2, got {n!r}")):
        scale(identity(2, "rational"), n, 8)
    assert scale(identity(2, "rational"), np.int64(3), 8) == scale(identity(2, "rational"), 3, 8)


# --- witness JSON ------------------------------------------------------------------------


@pytest.mark.parametrize(
    "witness",
    [
        case_counterexample(CaseTag.CASE_I, 4, 4),
        case_counterexample(CaseTag.CASE_VI, 5, 3),
        theorem2_counterexample(6, 4),
        complex_counterexample(3, 4, 2 + 1j),
        Witness(shift_nilpotent(5, 3), CaseTag.NILPOTENT_SHIFT, 5, 3, 0, 1),
        construct(CaseTag.CASE_II, 5, 2),
        construct(CaseTag.CASE_III, 4, 3),
        construct(CaseTag.CASE_IV, 5, 3),
        construct(CaseTag.CASE_V, 6, 5),
        construct(CaseTag.NILPOTENT_SHIFT, 4, 4),
        conjugate_random(construct(CaseTag.CASE_I, 6, 2), 7),
        conjugate_random(construct(CaseTag.THEOREM2_CE, 4, 6), 3),
        complex_counterexample(2, 2, -0.5j),
    ],
)
def test_witness_json_round_trip(witness):
    data = json.loads(json.dumps(witness_to_json(witness)))
    again = witness_from_json(data)
    assert witness_to_json(again) == data and type(again.k) is type(again.n) is int
    assert again.matrix == witness.matrix
    assert again.tag == witness.tag
    assert (again.k, again.n) == (witness.k, witness.n)
    assert again.a == witness.a
    assert again.refutes_sentence == witness.refutes_sentence


@pytest.mark.parametrize(
    "key, value, error",
    [("k", 2.7, ValueError), ("n", True, ValueError), ("n", "2", ValueError),
     ("n", 2.0, ValueError), ("a", True, MatrixError), ("a", "abc", MatrixError),
     ("a", [1, "0"], MatrixError), ("a", None, MatrixError),
     pytest.param("a", 10**400, MatrixError, id="a-10**400-MatrixError"),
     ("refutes_sentence", True, ValueError), ("refutes_sentence", 1.0, ValueError),
     ("refutes_sentence", False, ValueError), ("refutes_sentence", 0, ValueError),
     ("refutes_sentence", "1", ValueError)],
)
def test_witness_from_json_rejects_malformed_fields(key, value, error):
    data = witness_to_json(case_counterexample(CaseTag.CASE_I, 2, 2))
    data[key] = value
    with pytest.raises(error):
        witness_from_json(data)


def test_witness_validates_order():
    with pytest.raises(ValueError):
        Witness(identity(3, "rational"), CaseTag.CASE_I, 4, 4, 1, 1)
