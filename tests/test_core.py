"""Core matrix arithmetic: backends, exactness, tolerance contract, JSON."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matroot.core as core
from matroot import (
    BackendMismatch,
    CaseTag,
    DimensionMismatch,
    Matrix,
    MatrixError,
    ProblemInstance,
    RootConvention,
    Tolerance,
    as_backend,
    block_diag,
    case_counterexample,
    conjugate_matrix,
    determinant,
    evaluate,
    geometric_factor_sum,
    identity,
    mat_add,
    mat_eq,
    mat_mul,
    mat_pow,
    matrix_from_json,
    matrix_to_json,
    rotation,
    scalar_matrix,
    scalar_mul,
    scale_from_unit,
    scale_to_unit,
    shift_nilpotent,
    swap_block,
    theorem2_counterexample,
    zeros,
)

TIGHT = Tolerance(1e-12, 1e-12)


def rotation_oracle(theta):
    """Independent scalar-trig construction of the rotation matrix."""
    return Matrix(
        [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
    )


# --- construction and validation ---------------------------------------------


def test_backend_is_inferred_from_entries():
    assert Matrix([[1, 2], [3, 4]]).backend == "rational"
    assert Matrix([[1.0, 2], [3, 4]]).backend == "real"
    assert Matrix([[1j, 0], [0, 1]]).backend == "complex"


def test_rational_backend_rejects_floats():
    with pytest.raises(BackendMismatch):
        Matrix([[0.5]], backend="rational")


def test_unsupported_entry_type_is_a_matrix_error():
    with pytest.raises(MatrixError, match="unsupported scalar type str") as exc:
        Matrix([[1, "2"], [3, 4]])
    assert type(exc.value) is MatrixError


def test_non_square_rejected():
    with pytest.raises(DimensionMismatch):
        Matrix([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(DimensionMismatch):
        Matrix([])


def test_non_finite_entries_rejected():
    with pytest.raises(MatrixError):
        Matrix([[float("nan")]])
    with pytest.raises(MatrixError):
        Matrix([[complex(1, float("inf"))]])


def test_entries_are_immutable():
    m = identity(3, "real")
    with pytest.raises(ValueError):
        m.array[0, 0] = 5.0


# --- mat_mul ------------------------------------------------------------------


def test_swap_block_squares_to_identity():
    t = swap_block()
    assert mat_mul(t, t) == identity(2, "rational")


def test_identity_fixes_any_matrix():
    rng = np.random.default_rng(7)
    m = Matrix([[int(v) for v in row] for row in rng.integers(-9, 10, size=(3, 3))])
    assert mat_mul(identity(3, "rational"), m) == m
    assert mat_mul(m, identity(3, "rational")) == m


def test_rotation_triple_product_matches_angle_sum():
    r = rotation(2.0 * math.pi / 3.0)
    product = mat_mul(mat_mul(r, r), r)
    assert mat_eq(product, rotation_oracle(3 * (2.0 * math.pi / 3.0)), TIGHT)
    assert mat_eq(product, identity(2, "real"), TIGHT)


def test_mat_mul_order_and_backend_mismatches():
    with pytest.raises(DimensionMismatch):
        mat_mul(identity(2, "rational"), identity(3, "rational"))
    with pytest.raises(BackendMismatch):
        mat_mul(identity(2, "rational"), identity(2, "real"))


# --- mat_pow ------------------------------------------------------------------


def test_shift_nilpotent_cube_is_exactly_zero():
    a = shift_nilpotent(3, 3)
    assert mat_pow(a, 3) == zeros(3, "rational")
    assert mat_pow(a, 2) != zeros(3, "rational")


def test_power_zero_is_identity():
    m = Matrix([[2, 1], [1, 1]])
    assert mat_pow(m, 0) == identity(2, "rational")


def test_quarter_turn_squared_is_half_turn():
    r = rotation(math.pi / 2.0)
    minus_eye = scalar_mul(-1.0, identity(2, "real"))
    assert mat_eq(mat_pow(r, 2), minus_eye, TIGHT)


def test_power_rejects_negative_and_non_integer_exponents():
    m = identity(2, "rational")
    with pytest.raises(MatrixError):
        mat_pow(m, -1)
    with pytest.raises(MatrixError):
        mat_pow(m, 1.5)


def naive_pow(m, n):
    out = identity(m.order, m.backend)
    for _ in range(n):
        out = mat_mul(out, m)
    return out


def test_binary_power_matches_naive_product_exactly():
    rng = np.random.default_rng(3)
    for _ in range(10):
        m = Matrix(
            [[Fraction(int(v), int(rng.integers(1, 5))) for v in row]
             for row in rng.integers(-3, 4, size=(4, 4))]
        )
        n = int(rng.integers(0, 9))
        assert mat_pow(m, n) == naive_pow(m, n)


def test_power_additivity_exact_on_rationals():
    rng = np.random.default_rng(11)
    m = Matrix([[int(v) for v in row] for row in rng.integers(-2, 3, size=(5, 5))])
    for mm, nn in [(0, 5), (3, 4), (7, 2)]:
        assert mat_pow(m, mm + nn) == mat_mul(mat_pow(m, mm), mat_pow(m, nn))


@settings(max_examples=50, deadline=None)
@given(
    entries=st.lists(st.integers(min_value=-3, max_value=3), min_size=9, max_size=9),
    m=st.integers(min_value=0, max_value=6),
    n=st.integers(min_value=0, max_value=6),
)
def test_power_additivity_property_on_rationals(entries, m, n):
    mat = Matrix([entries[0:3], entries[3:6], entries[6:9]])
    assert mat_pow(mat, m + n) == mat_mul(mat_pow(mat, m), mat_pow(mat, n))


def test_power_additivity_on_floats_within_tolerance():
    rng = np.random.default_rng(13)
    tol = Tolerance(1e-9, 1e-9)
    for order in (2, 5, 10):
        m = Matrix(rng.uniform(-2.0, 2.0, size=(order, order)))
        for mm, nn in [(1, 63), (32, 32), (17, 40)]:
            lhs = mat_pow(m, mm + nn)
            rhs = mat_mul(mat_pow(m, mm), mat_pow(m, nn))
            assert mat_eq(lhs, rhs, tol)


# --- the float64 carrier -----------------------------------------------------------
# Inside the library a rational stack of integer matrices may be carried on float64, once
# ``theorems.evaluate`` has bounded all its arithmetic (``core._carried``): every partial
# sum is then an integer of magnitude at most 2^53, which float64 holds exactly, so
# products are plain BLAS products, and c * I is added or compared in the array's dtype.

EDGE = math.isqrt(2**53 // 4)  # the largest max|entry| whose 4 x 4 square stays within 2^53


def _carried_stack(top):
    signs = np.array([[1, -1, 1, 1], [1, 1, -1, 1], [-1, 1, 1, 1], [1, 1, 1, -1]])
    arr = np.stack([np.full((4, 4), top), top * signs, np.eye(4, dtype=int)])
    return Matrix._wrap(arr.astype(np.float64), "rational")


def _object_power(x, n):
    arr = core._uncarried(x).array  # Python ints
    out = arr
    for _ in range(n - 1):
        out = out @ arr
    return out


def test_carried_products_at_the_bound_stay_exact_on_float64():
    x = _carried_stack(EDGE)
    assert 4 * EDGE**2 <= 2**53 < 4 * (EDGE + 1) ** 2
    for got in (mat_mul(x, x), mat_pow(x, 2)):
        assert got.array.dtype == np.float64 and got.backend == "rational"
        assert (core._uncarried(got).array == _object_power(x, 2)).all()
        assert got.array[0].max() == 4 * EDGE**2  # the bound is reached exactly


def test_uncarried_gives_python_ints_and_no_negative_zero():
    x = Matrix._wrap(np.array([[-0.0, -1.0], [2.0**53, 0.0]]), "rational")
    out = core._uncarried(x).array
    assert out.dtype == object and [type(e) for e in out.flat] == [int] * 4
    assert out.tolist() == [[0, -1], [2**53, 0]] and str(out[0, 0]) == "0"
    real = Matrix._wrap(np.array([[-0.0, 1.5], [2.0, 0.0]]), "real")
    assert core._uncarried(real) is real  # a real float64 array is no carrier


def test_is_scalar_compares_a_carried_matrix_against_a_float64_target(monkeypatch):
    targets, close = [], core._entries_close

    def recorded(x, y, backend, tol, ymax):
        targets.append(y.dtype)
        return close(x, y, backend, tol, ymax)

    monkeypatch.setattr(core, "_entries_close", recorded)
    x = _carried_stack(EDGE)
    for c, want in ((1, [False, False, True]), (Fraction(3), [False, False, False])):
        assert list(core._is_scalar(x.array, "rational", c, TIGHT)) == want
    assert targets == [np.dtype(np.float64)] * 2


def test_a_fraction_c_on_the_carrier_is_exact_on_the_object_dtype():
    # on float64, 1/3 would round and 2^53 + 1 would round to 2^53: both go to the object
    # dtype, and so does 1/2, which float64 holds, as every c that is no int or float does
    x = Matrix._wrap(np.zeros((2, 3, 3)), "rational")
    for c in (Fraction(1, 2), Fraction(1, 3), 2**53 + 1, -(2**53) - 1):
        added = core._add_diagonal(x.array, c)
        assert added.dtype == object and (added == np.eye(3, dtype=int) * c).all()
        assert all(type(e) is type(c) for e in added.diagonal(axis1=-2, axis2=-1).flat)
        assert list(core._is_scalar(x.array, "rational", c, TIGHT)) == [False, False]
        assert list(core._is_scalar(added, "rational", c, TIGHT)) == [True, True]
    near = core._add_diagonal(x.array, 2**53 - 1)  # an int float64 holds stays on it
    assert near.dtype == np.float64 and near[0, 0, 0] == 2**53 - 1


def test_a_float_c_on_a_real_array_gets_a_float64_target(monkeypatch):
    targets, close = [], core._entries_close

    def recorded(x, y, backend, tol, ymax):
        targets.append((y.dtype, y.flags.writeable))
        return close(x, y, backend, tol, ymax)

    monkeypatch.setattr(core, "_entries_close", recorded)
    x = np.stack([np.eye(3), 0.5 * np.eye(3)])
    assert list(core._is_scalar(x, "real", 1.0, TIGHT)) == [True, False]
    assert list(core._is_scalar(x, "real", 0.5, TIGHT)) == [False, True]
    assert targets == [(np.dtype(np.float64), False), (np.dtype(np.float64), True)]
    added = core._add_diagonal(x, 0.25)
    assert added.dtype == np.float64 and added[1, 0, 0] == 0.75


@pytest.mark.parametrize("c, dtype", [(1, np.float64), (-1, np.float64), (1, object),
                                      (-1, object), (1.0, np.float64), (-1.0, np.float64)],
                         ids=str)
def test_unit_targets_are_shared_and_read_only(c, dtype):
    target = core._scalar_target(c, 3, np.dtype(dtype))
    assert target is core._scalar_target(c, 3, np.dtype(dtype))
    assert target.dtype == dtype
    if dtype is object:
        assert type(target[1, 1]) is type(c)
    assert (target == np.eye(3, dtype=int) * c).all()
    with pytest.raises(ValueError):
        target[0, 0] = 2
    added = core._add_diagonal(np.ones((3, 3), dtype), c)  # a new array: target unchanged
    assert not np.shares_memory(added, target) and (target == np.eye(3, dtype=int) * c).all()


def test_one_one_point_oh_and_true_never_share_a_target():
    # 1 == 1.0 == True, and they hash alike: the cache is keyed by type as well, so the
    # carrier's int 1 and the real backend's 1.0 keep two float64 targets
    obj, f64 = np.dtype(object), np.dtype(np.float64)
    real = core._scalar_target(1.0, 4, f64)
    carried = core._scalar_target(1, 4, f64)
    assert real.dtype == carried.dtype == f64 and real is not carried
    assert carried is core._scalar_target(1, 4, f64) and real is core._scalar_target(1.0, 4, f64)
    assert core._scalar_target(1, 4, obj).dtype == obj
    assert core._scalar_target(1.0, 4, f64) is real  # asked again after the int keys
    for c in (1, 1.0):
        assert {type(e) for e in core._scalar_target(c, 4, obj).flat} == {int, type(c)}
    assert core._shared_unit(1, 4, f64) is not core._shared_unit(1.0, 4, f64)
    fresh = core._scalar_target(True, 4, obj)
    assert fresh.flags.writeable and type(fresh[0, 0]) is bool


@pytest.mark.parametrize("c, dtype", [(Fraction(1), object), (Fraction(-1), object),
                                      (1 + 0j, np.complex128), (2, np.float64), (-2.0, np.float64),
                                      (0, object), (np.float64(1.0), np.float64)], ids=str)
def test_other_targets_are_built_fresh(c, dtype):
    first, second = (core._scalar_target(c, 3, np.dtype(dtype)) for _ in range(2))
    assert first is not second and first.flags.writeable
    assert (first == core._scalar_array(c, 3, np.dtype(dtype))).all()


def test_the_shared_target_cache_is_bounded():
    assert core._shared_unit.cache_info().maxsize == 64
    assert "at most 64" in core._shared_unit.__doc__


_INTS = [[2, -4, 0], [6, 10, -12], [0, 8, 2]]
_ODDS = [[1, -3, 0], [5, 7, 9], [-11, 0, 2]]
_FRACTIONS = [[Fraction(3, 2), Fraction(-5, 2), Fraction(1, 2)],
              [Fraction(7, 2), Fraction(1, 2), Fraction(-9, 2)],
              [Fraction(1, 2), Fraction(3, 2), Fraction(5, 2)]]
_MIXED = [[Fraction(3, 2), 2, 0], [Fraction(-1, 3), 4, Fraction(10, 7)], [6, Fraction(1, 10), -1]]


@pytest.mark.parametrize("rows", [_INTS, _ODDS, _FRACTIONS, _MIXED],
                         ids=["ints", "odd-ints", "fractions", "mixed"])
@pytest.mark.parametrize("c", [2, -3, Fraction(1, 2), Fraction(3, 2), Fraction(-1, 10),
                               Fraction(5, 1), 1, Fraction(1, 3)], ids=str)
def test_exact_scalar_mul_matches_the_per_entry_quotient(rows, c):
    # the per-entry reference divides each entry of p * M by q on its own; a Fraction
    # entry times a factor with q = 1 must not be floored (3/2 * 5 is 15/2, not 7)
    m = Matrix(rows, backend="rational")
    f = Fraction(c)
    want = core._over(m.array * f.numerator, f.denominator)
    for x, ref in ((m, want), (Matrix._wrap(np.stack([m.array, -m.array]), "rational"),
                               np.stack([want, core._over(-m.array * f.numerator, f.denominator)]))):
        got = scalar_mul(c, x).array
        assert got.dtype == object and got.shape == ref.shape and (got == ref).all()
        assert [type(e) for e in got.flat] == [type(e) for e in ref.flat]
        assert (got == x.array * f).all()


# --- mat_eq -------------------------------------------------------------------


def test_equal_identities_compare_equal_under_any_tolerance():
    assert mat_eq(identity(2, "real"), identity(2, "real"), Tolerance(0.0, 0.0))


def test_absolute_tolerance_absorbs_tiny_entries():
    nearly_zero = Matrix([[1e-15, 0.0], [0.0, 0.0]])
    assert mat_eq(zeros(2, "real"), nearly_zero, Tolerance(1e-12, 0.0))
    assert not mat_eq(zeros(2, "real"), nearly_zero, Tolerance(1e-16, 0.0))


def test_swap_differs_from_identity():
    t = Matrix([[0.0, 1.0], [1.0, 0.0]])
    assert not mat_eq(t, identity(2, "real"), Tolerance(1e-12, 0.0))


def test_rational_comparison_ignores_tolerance():
    a = Matrix([[Fraction(1, 3)]])
    b = Matrix([[Fraction(1, 3) + Fraction(1, 10**30)]])
    assert not mat_eq(a, b, Tolerance(1.0, 1.0))


# --- the max-reduction against the entrywise contract ----------------------------

_TOLERANCES = [Tolerance(0, 0), Tolerance(1e-9, 0), Tolerance(0, 1e-9), Tolerance(1, 2)]
# a relative tolerance far above an ulp makes exact ties and tells |x| from |y| in the bound
_COARSE = [Tolerance(0, 0.25), Tolerance(0.5, 0.25)]
_VALUES = st.floats(-1e3, 1e3) | st.sampled_from([0.0, 1.0, -1.0, 4.0, 0.5, 1e-9, 1e300, -1e300])


def _entrywise_close(x, y, tol):
    """The tolerance contract written out entry by entry, one bool per matrix:
    |x - y| <= absolute + relative * max(|x|, |y|) at every entry."""
    y = np.zeros_like(x) if isinstance(y, int) else y
    bound = tol.absolute + tol.relative * np.maximum(np.abs(x), np.abs(y))
    return (np.abs(x - y) <= bound).all(axis=(-2, -1))


def _at_bound(y, tol, u):
    """The largest float t >= 0 (by bisection on its bits) at which the entry y + u * t is
    still within the bound of y, u a real or complex direction: y + u * t is the last close
    entry that way.  None where the bound is never left below 2^60."""
    def close(bits):
        x = y + u * float(np.int64(bits).view(np.float64))
        return bool(_entrywise_close(np.full((1, 1), x), np.full((1, 1), y), tol))

    lo, hi = 0, int(np.float64(2.0**60).view(np.int64))
    if close(hi):
        return None
    while hi - lo > 1:
        lo, hi = ((lo + hi) // 2, hi) if close((lo + hi) // 2) else (lo, (lo + hi) // 2)
    return float(np.int64(lo).view(np.float64))


@st.composite
def _comparisons(draw):
    """(x, target, backend, tol): a float matrix or stack and a target of zero, +-I or a
    general array, x equal to it, at the bound of it or +-1 ulp from there, or off it."""
    backend = draw(st.sampled_from(["real", "complex"]))
    tol = draw(st.sampled_from(_TOLERANCES + _COARSE))
    k, m = draw(st.integers(1, 4)), draw(st.sampled_from([None, 1, 3]))
    shape, dtype = ((k, k) if m is None else (m, k, k)), (complex if backend == "complex" else float)
    kind = draw(st.sampled_from(["zero", "unit", "general"]))
    if kind == "zero":
        target, y = 0, np.zeros(shape, dtype)
    elif kind == "unit":
        target = draw(st.sampled_from([1, -1]))
        y = np.broadcast_to(target * np.eye(k, dtype=dtype), shape)
    else:
        flat = draw(st.lists(_VALUES, min_size=2 * k * k * (m or 1), max_size=2 * k * k * (m or 1)))
        y = np.array(flat[::2], dtype).reshape(shape)
        if backend == "complex":
            y = y + 1j * np.array(flat[1::2]).reshape(shape)
        target = y
    x = np.array(y, dtype)
    for at in np.ndindex(shape):
        how = draw(st.sampled_from(["same", "bound", "off"]))
        if how == "bound":  # moved along the real axis, so |x - y| is that of the real parts
            sign, ulps = draw(st.sampled_from([1, -1])), draw(st.sampled_from([-1, 0, 1]))
            t = _at_bound(y[at].real, tol, sign)
            if t is not None:
                edge = y[at].real + sign * t
                for _ in range(abs(ulps)):
                    edge = np.nextafter(edge, math.inf * ulps)
                x[at] = edge + 1j * y[at].imag if backend == "complex" else edge
        elif how == "off":
            x[at] += draw(_VALUES)
    return x, target, backend, tol


@settings(max_examples=300, deadline=None)
@given(_comparisons())
def test_the_max_reduction_decides_as_the_entrywise_contract(case):
    x, target, backend, tol = case
    if isinstance(target, int) and target:  # +-I, through the helper that builds it
        got = core._is_scalar(x, backend, target, tol)
        want = _entrywise_close(x, target * np.eye(x.shape[-1]), tol)
    else:
        got, want = core._entries_close(x, target, backend, tol), _entrywise_close(x, target, tol)
    if x.ndim == 2:
        assert type(got) is bool and got == bool(want)
    else:
        assert got.dtype == bool and got.tolist() == want.tolist()


# c * I with the diagonal entry (0, 0) moved along u, c / |c| (outward: |x| = |c| + d, the
# largest |x| the failure rule allows for) or -c / |c| (inward), to the edge of the bound
# and 1 ulp either side, or by |c| and 1000 |c| where the bound is never left
@pytest.mark.parametrize("backend", ["real", "complex"])
@pytest.mark.parametrize("tol", [Tolerance(1e-9, 0), Tolerance(0, 2), Tolerance(0, 1e-9),
                                 Tolerance(0, 0.25)], ids=str)
@pytest.mark.parametrize("mag", [0.5, 2.0, 1e300, 1e-300])
def test_the_failure_rule_decides_at_the_bound_of_a_scalar_target(backend, tol, mag):
    turns = [1, -1] if backend == "real" else [1, -1, 1j, -0.6 + 0.8j]
    dtype = complex if backend == "complex" else float
    for c in (mag * w for w in turns):
        for u in (c / abs(c), -c / abs(c)):
            edge = _at_bound(c, tol, u)
            steps = ([np.nextafter(edge, -1.0) if edge else 0.0, edge, np.nextafter(edge, 2.0)]
                     if edge is not None else [mag, 1000 * mag])
            target, mats = c * np.eye(3, dtype=dtype), []
            for t in steps:
                x = target.copy()
                x[0, 0] = c + u * t
                mats.append(x)
            for x in mats + [np.stack(mats)]:
                want = _entrywise_close(x, target, tol)
                for got in (core._is_scalar(x, backend, c, tol),
                            core._entries_close(x, np.broadcast_to(target, x.shape), backend, tol)):
                    if x.ndim == 2:
                        assert type(got) is bool and got == bool(want), (c, u, x[0, 0])
                    else:
                        assert got.dtype == bool and got.tolist() == want.tolist(), (c, u)


# Each pair is close, and ymax + d, rounded, falls short of max(|x|, |y|) at it by the
# rounding of d or of the moduli: what the rule's factor 1 + 2^-48 and term 1e-320 allow for.
# x - y = 2^53 + 1 rounds to d = 2^53, and 1 + 2^53 to 2^53 < |x|: the bound
# (1 - 2^-53) * 2^53 = 2^53 - 1 < d, while (1 - 2^-53) * |x| rounds to 2^53 = d.
# |y| = sqrt(2) and |x - y| = sqrt(2) units of 2^-1074 each round to 1 unit, |x| =
# 2 sqrt(2) units to 3: 0.25 * 2 units rounds to 0 < d, while 0.25 * 3 rounds to 1 unit = d.
_ROUNDED = [(2.0**53 + 2, 1.0, "real", Tolerance(0, 1 - 2.0**-53)),
            (complex(1e-323, 1e-323), complex(5e-324, 5e-324), "complex", Tolerance(0, 0.25))]


@pytest.mark.parametrize("x, c, backend, tol", _ROUNDED, ids=["rounded-d", "subnormal-moduli"])
def test_the_failure_rule_allows_for_the_rounding_of_its_terms(x, c, backend, tol):
    dtype = complex if backend == "complex" else float
    x, y = np.diag([x, c]).astype(dtype), c * np.eye(2, dtype=dtype)
    assert bool(_entrywise_close(x, y, tol))
    assert core._entries_close(x, y, backend, tol) is True
    assert core._is_scalar(x, backend, c, tol) is True


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("tol", _TOLERANCES, ids=str)
@pytest.mark.parametrize("backend", ["real", "complex"])
def test_an_unwrapped_non_finite_result_raises_at_the_comparison(bad, tol, backend):
    dtype = complex if backend == "complex" else float
    one = np.eye(3, dtype=dtype)
    one[1, 2] = bad
    for x in (one, np.stack([np.eye(3, dtype=dtype), one])):
        for target in (0, np.eye(3, dtype=dtype)):
            with pytest.raises(MatrixError, match="^operation produced non-finite entries$"):
                core._entries_close(x, target, backend, tol)
        with pytest.raises(MatrixError, match="^operation produced non-finite entries$"):
            core._is_scalar(x, backend, -1, tol)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("a", [1, -1, 0])
def test_evaluate_raises_where_a_float_power_overflows(a):
    clauses = evaluate(Matrix([[1e200, 0.0], [0.0, 1.0]]), ProblemInstance(2, 4, a))
    with pytest.raises(MatrixError, match="^operation produced non-finite entries$"):
        clauses.holds


# --- block_diag and rotation ----------------------------------------------------


def test_block_diag_of_two_swaps():
    t = swap_block()
    m = block_diag([t, t])
    assert m.order == 4
    expected = Matrix(
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    )
    assert m == expected


def test_block_diag_single_block_is_the_block():
    m = Matrix([[1, 2], [3, 4]])
    assert block_diag([m]) == m


def test_block_diag_mixed_sizes_places_offdiagonal_zeros():
    one = Matrix([[1.0]])
    r = rotation(2.0 * math.pi / 5.0)
    m = block_diag([one, r])
    assert m.order == 3
    assert m[0, 0] == 1.0
    assert m[0, 1] == 0.0 and m[1, 0] == 0.0
    assert mat_eq(
        Matrix([[m[1, 1], m[1, 2]], [m[2, 1], m[2, 2]]]), r, Tolerance(0.0, 0.0)
    )


def test_block_diag_rejects_empty_and_mixed_backends():
    with pytest.raises(MatrixError):
        block_diag([])
    with pytest.raises(BackendMismatch):
        block_diag([identity(2, "rational"), identity(2, "real")])


def test_rotation_at_zero_and_pi():
    assert mat_eq(rotation(0.0), identity(2, "real"), Tolerance(0.0, 0.0))
    minus_eye = scalar_mul(-1.0, identity(2, "real"))
    assert mat_eq(rotation(math.pi), minus_eye, Tolerance(1e-12, 0.0))


def test_seventh_root_rotation_has_order_seven():
    r = rotation(2.0 * math.pi / 7.0)
    assert mat_eq(mat_pow(r, 7), identity(2, "real"), Tolerance(1e-10, 1e-10))
    assert not mat_eq(mat_pow(r, 6), identity(2, "real"), Tolerance(1e-3, 1e-3))


def test_rotation_rejects_non_finite_angle():
    with pytest.raises(MatrixError):
        rotation(float("inf"))


@settings(max_examples=60, deadline=None)
@given(
    theta=st.floats(min_value=-10.0, max_value=10.0),
    phi=st.floats(min_value=-10.0, max_value=10.0),
)
def test_rotation_is_a_homomorphism(theta, phi):
    lhs = mat_mul(rotation(theta), rotation(phi))
    assert mat_eq(lhs, rotation(theta + phi), TIGHT)


@pytest.mark.parametrize("theta", [0.1, 1.0, 2.5, -4.0, 3 * math.pi])
def test_rotation_determinant_is_one(theta):
    assert abs(determinant(rotation(theta)) - 1.0) < 1e-12


# --- determinant --------------------------------------------------------------


def test_determinant_of_identity_and_swap():
    assert determinant(identity(5, "rational")) == 1
    assert determinant(swap_block()) == -1


def test_determinant_zero_when_singular():
    m = Matrix([[1, 2], [2, 4]])
    assert determinant(m) == 0


def test_determinant_of_two_block_rotation_witness():
    w = theorem2_counterexample(4, 4)
    m = w.matrix
    # oracle: the determinant of a block-diagonal matrix is the product of
    # the 2x2 block determinants ad - bc
    expected = 1.0
    for at in (0, 2):
        expected *= (
            m[at, at] * m[at + 1, at + 1] - m[at, at + 1] * m[at + 1, at]
        )
    assert abs(determinant(m) - expected) < 1e-10
    assert abs(determinant(m) - 1.0) < 1e-10


def test_rational_determinant_matches_float_determinant():
    rng = np.random.default_rng(5)
    for order in (2, 3, 5, 8):
        rows = [[int(v) for v in row] for row in rng.integers(-4, 5, size=(order, order))]
        exact = determinant(Matrix(rows))
        approx = determinant(Matrix([[float(v) for v in row] for row in rows]))
        assert abs(float(exact) - approx) < 1e-6 * max(1.0, abs(approx))


def test_rational_product_determinant_is_exactly_multiplicative():
    rng = np.random.default_rng(17)
    a = Matrix([[int(v) for v in row] for row in rng.integers(-3, 4, size=(4, 4))])
    b = Matrix([[int(v) for v in row] for row in rng.integers(-3, 4, size=(4, 4))])
    assert determinant(mat_mul(a, b)) == determinant(a) * determinant(b)


# --- associativity / exactness -------------------------------------------------


def test_rational_multiplication_is_exactly_associative():
    rng = np.random.default_rng(23)
    mats = [
        Matrix(
            [[Fraction(int(v), int(rng.integers(1, 7))) for v in row]
             for row in rng.integers(-5, 6, size=(3, 3))]
        )
        for _ in range(3)
    ]
    a, b, c = mats
    assert mat_mul(mat_mul(a, b), c) == mat_mul(a, mat_mul(b, c))


# --- immutability and the rational form -----------------------------------------


@pytest.mark.parametrize(
    "make",
    [
        lambda: identity(3, "rational"),
        lambda: zeros(3, "real"),
        lambda: scalar_matrix(2j, 3, "complex"),
        lambda: mat_mul(swap_block(), swap_block()),
        lambda: mat_add(rotation(0.3), rotation(0.3)),
        lambda: scalar_mul(Fraction(1, 2), swap_block()),
        lambda: as_backend(swap_block(), "real"),
        lambda: block_diag([swap_block(), swap_block()]),
        lambda: rotation(0.3),
        lambda: conjugate_matrix(shift_nilpotent(4, 4), 3),
        lambda: conjugate_matrix(rotation(0.3), 3),
    ],
    ids=[
        "identity", "zeros", "scalar_matrix", "mat_mul", "mat_add", "scalar_mul",
        "as_backend", "block_diag", "rotation", "conjugate_rational", "conjugate_real",
    ],
)
def test_results_are_read_only(make):
    m = make()
    assert m.array.flags.writeable is False
    with pytest.raises(ValueError):
        m.array[0, 0] = 7


def _entry_types(m):
    return {type(e) for e in m.entries()}


def test_integral_rationals_are_stored_as_ints():
    assert type(Matrix([[Fraction(4, 2)]])[0, 0]) is int
    assert _entry_types(scalar_matrix(Fraction(3), 2, "rational")) == {int}
    w = case_counterexample(CaseTag.CASE_I, 4, 2).matrix
    assert _entry_types(scale_from_unit(w, 2, 10**6)) == {int}
    tiny = Fraction(1, 10**30)
    assert _entry_types(scale_to_unit(scale_from_unit(w, 2, tiny), 2, tiny)) == {int}
    assert _entry_types(geometric_factor_sum(w, 4, RootConvention.real(4, 1))) == {int}


def test_non_integral_rationals_stay_fractions_on_the_wire():
    m = Matrix([[Fraction(1, 3), Fraction(4, 2)], [2, Fraction(-7, 2)]])
    assert [type(e) for e in m.entries()] == [Fraction, int, int, Fraction]
    data = matrix_to_json(m)
    assert data["entries"] == ["1/3", "2/1", "2/1", "-7/2"]
    assert json.dumps(matrix_to_json(matrix_from_json(data))) == json.dumps(data)


# --- JSON wire form -------------------------------------------------------------


def test_json_round_trip_rational():
    m = Matrix([[Fraction(1, 3), -2], [0, Fraction(7, 2)]])
    data = matrix_to_json(m)
    assert data["backend"] == "rational"
    assert data["entries"][0] == "1/3"
    assert matrix_from_json(data) == m


def test_json_round_trip_real_is_bit_exact():
    m = Matrix([[0.1, -2.5e-17], [3.0, 1.0 / 3.0]])
    again = matrix_from_json(matrix_to_json(m))
    assert again == m  # bitwise float equality


def test_json_round_trip_complex():
    m = Matrix([[1 + 2j, 0], [0, -1j]], backend="complex")
    again = matrix_from_json(matrix_to_json(m))
    assert again == m


def test_json_serialization_is_byte_stable():
    m = Matrix([[Fraction(1, 3), -2], [0, Fraction(7, 2)]])
    first = json.dumps(matrix_to_json(m))
    second = json.dumps(matrix_to_json(matrix_from_json(matrix_to_json(m))))
    assert first == second


@pytest.mark.parametrize(
    "broken",
    [
        {"backend": "decimal", "order": 1, "entries": ["1/1"]},
        {"backend": "rational", "order": 2, "entries": ["1/1"]},
        {"backend": "rational", "order": 1, "entries": [1]},
        {"backend": "real", "order": 1, "entries": ["1"]},
        {"backend": "complex", "order": 1, "entries": [[1.0]]},
        {"backend": "real", "order": 0, "entries": []},
        {"order": 1, "entries": [1.0]},
        {"backend": "rational", "order": 1, "entries": ["1/0"]},
        {"backend": "rational", "order": 1, "entries": ["abc"]},
        {"backend": "complex", "order": 1, "entries": [["abc", 1]]},
        {"backend": "complex", "order": 1, "entries": [[None, 0]]},
        {"backend": "complex", "order": 1, "entries": [[[1], 0]]},
        {"backend": "complex", "order": 1, "entries": [["1.5", 0]]},
        {"backend": "complex", "order": 1, "entries": [[True, 0]]},
        {"backend": "real", "order": 1, "entries": [10**400]},
        {"backend": "complex", "order": 1, "entries": [[10**400, 0]]},
        {"backend": "complex", "order": 1, "entries": [[0.5, -(10**400)]]},
    ],
)
def test_matrix_from_json_rejects_malformed_payloads(broken):
    with pytest.raises(MatrixError):
        matrix_from_json(broken)


@pytest.mark.parametrize("backend", ["real", "complex"])
@pytest.mark.parametrize("entry", [10**400, -(10**400), Fraction(10**400, 3)],
                         ids=["10**400", "-10**400", "10**400/3"])
def test_matrix_rejects_entries_beyond_the_float_range(backend, entry):
    with pytest.raises(MatrixError):
        Matrix([[entry]], backend=backend)
