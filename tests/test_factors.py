"""Factor polynomials: geometric sums, quadratic factors, triangular powers."""

import cmath
import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from matroot import (
    CaseTag,
    ConventionError,
    Matrix,
    MatrixError,
    RootConvention,
    Tolerance,
    TriangularParams,
    as_backend,
    case_counterexample,
    conjugate_matrix,
    exact_nth_root,
    geometric_factor_sum,
    identity,
    is_zero,
    lemma1_root_classifier,
    mat_add,
    mat_eq,
    mat_mul,
    mat_pow,
    mat_sub,
    odd_factorization_product,
    quadratic_factor_eval,
    rotation,
    scalar_matrix,
    scalar_mul,
    shift_nilpotent,
    theorem2_counterexample,
    triangular_power_formula,
    zeros,
)
from matroot.core import _COERCE
import matroot.factors as factors
from matroot.factors import _float_square, _int_nth_root, _quadratics, unit_factors


def naive_pow(m, n):
    out = identity(m.order, m.backend)
    for _ in range(n):
        out = mat_mul(out, m)
    return out


def naive_factor_sum(x, n, c):
    """Oracle: sum the monomials c^i * X^(n-1-i) from independent powers."""
    k = x.order
    total = zeros(k, x.backend)
    cpow = type(c)(1) if not isinstance(c, int) else 1
    for i in range(n):
        term = scalar_mul(cpow, naive_pow(x, n - 1 - i))
        total = mat_add(total, term)
        cpow = cpow * c
    return total


# --- root conventions ----------------------------------------------------------


def test_an_integer_below_two_to_the_n_has_no_integer_root_above_one():
    # 2 <= m < 2^n puts m^(1/n) strictly between 1 and 2: no Newton step at any n
    assert exact_nth_root(2**64, 2**40) is None
    assert exact_nth_root(2**64 - 1, 64) is None and exact_nth_root(2**64, 64) == 2
    assert exact_nth_root(2**64, 65) is None and exact_nth_root(Fraction(2, 3), 2**70) is None
    assert exact_nth_root(1, 2**70) == 1
    assert exact_nth_root(Fraction(1, 2**70), 70) == Fraction(1, 2)
    for n in range(2, 12):
        for m in range(2, 2**n):
            assert exact_nth_root(m, n) is None


def test_exact_nth_root_finds_perfect_powers():
    assert exact_nth_root(4, 2) == 2
    assert exact_nth_root(Fraction(27, 8), 3) == Fraction(3, 2)
    assert exact_nth_root(-8, 3) == -2
    assert exact_nth_root(2, 2) is None
    assert exact_nth_root(-4, 2) is None
    assert exact_nth_root(0, 5) == 0
    for no_rational in ("x", 1j, None, math.inf, math.nan):
        assert exact_nth_root(no_rational, 2) is None


@pytest.mark.parametrize("n", [0, -1, 2.0, 2.5, "2", True], ids=repr)
def test_exact_nth_root_takes_n_as_an_integer_at_least_1(n):
    # n = 0 once raised ZeroDivisionError
    with pytest.raises(ValueError, match=re.escape(f"n must be an integer >= 1, got {n!r}")):
        exact_nth_root(8, n)
    assert exact_nth_root(8, 1) == 8 and exact_nth_root(8, np.int64(3)) == 2


@pytest.mark.parametrize("n", range(2, 13))
def test_int_nth_root_is_exact_on_large_powers_and_their_neighbours(n):
    # past 2^53 a float root is inexact; past 2^1000 a float estimate overflows
    for r in (2, 3, 10**6 + 3, 2**53 + 1, 3**40, 7**150, 2**1100 + 1):
        assert _int_nth_root(r**n, n) == r
        assert _int_nth_root(r**n - 1, n) is None and _int_nth_root(r**n + 1, n) is None
    for m in range(300):
        assert _int_nth_root(m, n) == next((r for r in range(m + 1) if r**n == m), None)


def _reference_int_nth_root(m, n):
    """The full-width Newton loop that _int_nth_root used to run, from 2^ceil(bits / n)
    or a float estimate rounded up: slow on huge m, but plainly correct."""
    if m in (0, 1):
        return m
    b = -(-m.bit_length() // n)
    x = 1 << b if b > 1000 else int(math.exp(math.log(m) / n) * (1 + 1e-9)) + 1
    while (y := ((n - 1) * x + m // x ** (n - 1)) // n) < x:
        x = y
    return x if x**n == m else None


@pytest.mark.parametrize("n", range(2, 13))
def test_int_nth_root_agrees_with_the_full_width_newton_loop(n):
    rng = random.Random(n)
    for _ in range(40):
        m = rng.randrange(10 ** rng.randrange(1, 2001))
        assert _int_nth_root(m, n) == _reference_int_nth_root(m, n)
    for _ in range(15):
        r = rng.randrange(2, 10 ** rng.randrange(1, 2000 // n + 1) + 2)
        for m in (r**n - 1, r**n, r**n + 1):
            assert _int_nth_root(m, n) == _reference_int_nth_root(m, n)
        assert _int_nth_root(r**n, n) == r


def test_real_convention_signs_and_consistency():
    conv = RootConvention.real(3, -8)
    assert conv.root == -2.0
    assert conv.exact_root == -2
    grid = [(2, 4), (3, 5), (5, 0), (4, Fraction(1, 16)), (3, -1), (7, -0.3)]
    for n, a in grid:
        conv = RootConvention.real(n, a)
        assert abs(conv.root**n - float(a)) <= 1e-12 + 1e-12 * abs(float(a))


@pytest.mark.parametrize("a", [1j, 2 + 0j, math.inf, -math.inf, math.nan], ids=str)
def test_real_convention_refuses_a_complex_or_non_finite_a(a):
    message = "real convention needs a real a" if isinstance(a, complex) else "a must be finite"
    with pytest.raises(ConventionError, match=message):
        RootConvention.real(3, a)


@pytest.mark.parametrize("a", [math.nan, complex(math.nan, 1), complex(1, math.inf)], ids=str)
def test_principal_convention_refuses_a_non_finite_a(a):
    with pytest.raises(ConventionError, match="a must be finite"):
        RootConvention.principal(3, a)


def test_real_convention_rejects_negative_a_with_even_n():
    with pytest.raises(ConventionError):
        RootConvention.real(4, -1)


def test_real_convention_in_range_roots_are_float_powers():
    for n, a in [(2, 2), (3, Fraction(1, 3)), (5, -7), (4, 1e300), (3, -1e-300), (2, 0)]:
        want = math.copysign(abs(float(a)) ** (1 / n), float(a))
        assert RootConvention.real(n, a).root == want


def test_real_convention_beyond_the_float_range():
    # float(|a|) rounds to 0 or overflows: the root comes from exact logarithms
    want = 10 ** (-400 / 3)
    assert abs(RootConvention.real(3, Fraction(1, 10**400)).root - want) <= 1e-12 * want
    assert RootConvention.real(3, -(10**400)).root == pytest.approx(-(10 ** (400 / 3)), 1e-12)
    # a root below the floats rounds to 0.0, and an exact one stays exact
    conv = RootConvention.real(2, Fraction(1, 10**800))
    assert conv.exact_root == Fraction(1, 10**400) and conv.root == 0.0
    value = geometric_factor_sum(identity(2, "rational"), 2, conv)
    assert value == scalar_matrix(1 + Fraction(1, 10**400), 2, "rational")
    assert RootConvention.real(3, -Fraction(2, 10**1200)).root == 0.0
    with pytest.raises(ValueError):  # 10^400 is above the floats
        RootConvention.real(2, 10**800)


def test_principal_convention_matches_complex_root():
    conv = RootConvention.principal(4, 16)
    assert abs(conv.root - 2.0) < 1e-12
    conv = RootConvention.principal(2, -1)
    assert abs(conv.root - 1j) < 1e-12
    conv = RootConvention.principal(3, 0j)
    assert (conv.root, conv.exact_root) == (0.0, Fraction(0))
    assert type(conv.exact_root) is Fraction
    assert RootConvention.principal(3, 8).exact_root is None


@pytest.mark.parametrize("n", [0, 1, -2])
@pytest.mark.parametrize(
    "kind, a", [("real", 2), ("real", -1), ("real", 0), ("principal", 1 + 1j), ("principal", 0)]
)
def test_root_conventions_check_n_before_they_compute_the_root(kind, a, n):
    # n = 0 would divide by zero in the root, and a < 0 would fail on n's parity
    with pytest.raises(ConventionError, match=f"^n must be >= 2, got {n}$"):
        getattr(RootConvention, kind)(n, a)


@pytest.mark.parametrize("n", [2.5, 4.0, np.float64(3.0), Fraction(5, 2)], ids=repr)
def test_the_n_check_takes_an_integer_and_raises_a_convention_error(n):
    # RootConvention.real(2.5, 4) was once accepted; every caller of factors._check_n now
    # gets n as an int, or a ConventionError
    message = re.escape(f"n must be an integer >= 2, got {n!r}")
    for check in (lambda: RootConvention.real(n, 4), lambda: RootConvention.principal(n, 1j),
                  lambda: geometric_factor_sum(identity(2), n, RootConvention.real(2, 1))):
        with pytest.raises(ConventionError, match=message):
            check()
    conv = RootConvention.real(np.int64(3), 8)
    assert type(conv.n) is int and conv == RootConvention.real(3, 8)


# --- geometric_factor_sum --------------------------------------------------------


def test_factor_sum_of_swap_blocks_is_n_halves_times_a_plus_identity():
    w = case_counterexample(CaseTag.CASE_I, 4, 4)
    conv = RootConvention.real(4, 1)
    value = geometric_factor_sum(w.matrix, 4, conv)
    expected = scalar_mul(2, mat_add(w.matrix, identity(4, "rational")))
    assert value == expected  # exact rational arithmetic


def test_factor_sum_at_identity_is_n_times_identity():
    value = geometric_factor_sum(identity(3, "rational"), 3, RootConvention.real(3, 1))
    assert value == scalar_matrix(3, 3, "rational")


def test_factor_sum_annihilates_fifth_root_rotation():
    value = geometric_factor_sum(rotation(2.0 * math.pi / 5.0), 5, RootConvention.real(5, 1))
    assert is_zero(value, Tolerance(1e-10, 1e-10))


def test_factor_sum_matches_monomial_oracle_exactly_on_rationals():
    rng = np.random.default_rng(29)
    conv = RootConvention.real(4, 16)  # exact root 2
    for _ in range(5):
        x = Matrix([[int(v) for v in row] for row in rng.integers(-3, 4, size=(2, 2))])
        assert geometric_factor_sum(x, 4, conv) == naive_factor_sum(x, 4, Fraction(2))


def test_factor_sum_matches_monomial_oracle_on_floats():
    rng = np.random.default_rng(31)
    tol = Tolerance(1e-10, 1e-10)
    for n, a in [(2, 3.0), (5, 2.0), (9, 0.5), (3, -1.5)]:
        conv = RootConvention.real(n, a)
        x = Matrix(rng.uniform(-2.0, 2.0, size=(3, 3)))
        assert mat_eq(geometric_factor_sum(x, n, conv), naive_factor_sum(x, n, conv.root), tol)


def _monomial_sum(x: np.ndarray, n: int, c) -> np.ndarray:
    """sum_j c^(n-1-j) X^j with X^j = X^(j-1) @ X, one monomial at a time."""
    power, total = np.eye(len(x), dtype=int).astype(object), 0
    for j in range(n):
        total = total + c ** (n - 1 - j) * power
        power = power @ x
    return total


@pytest.mark.parametrize("n", range(2, 65))
def test_factor_sum_equals_the_monomial_sum_exactly_on_ints_and_fractions(n):
    rng = np.random.default_rng(n)
    ints = rng.integers(-3, 4, size=(3, 3)).tolist()
    fractions = [[Fraction(int(v), int(d)) for v, d in zip(r, q)]
                 for r, q in zip(rng.integers(-3, 4, size=(3, 3)), rng.integers(1, 4, size=(3, 3)))]
    roots = [1, -1, 2, Fraction(1, 2), Fraction(-2, 3)]
    for rows in (ints, fractions):
        x = Matrix(rows, backend="rational")
        for c in roots if n % 2 else [c for c in roots if c > 0]:
            got = geometric_factor_sum(x, n, RootConvention.real(n, Fraction(c) ** n))
            assert got.array.tolist() == _monomial_sum(x.array, n, c).tolist(), c


def test_factor_sum_stays_within_the_rounding_bound_of_horner_on_floats():
    # each evaluation is within gamma_d * S of the exact sum, where S = sum_j |c|^(n-1-j) |X|^j
    # and d its depth of roundings, about (k + 2) per step; Horner takes n - 1 steps and the
    # halving recurrence about 2 log2(n), so they differ by at most n * (k + 2) * u * S
    u = 2.0**-53
    rng = np.random.default_rng(53)
    for _ in range(200):
        k, n = int(rng.integers(1, 9)), int(rng.integers(2, 65))
        a = float(rng.choice([1.0, 2.0, 0.5, -1.0, -3.0]))
        conv = RootConvention.real(n, a if n % 2 else abs(a))
        x = rng.standard_normal((k, k)) * rng.choice([0.3, 1.0, 1.5])
        got = geometric_factor_sum(Matrix._wrap(x.copy(), "real"), n, conv).array
        c, total, power = abs(conv.root), np.zeros((k, k)), np.eye(k)
        for j in range(n):
            total, power = total + c ** (n - 1 - j) * power, power @ np.abs(x)
        assert (np.abs(got - _reference_horner(x, n, conv.root)) <= n * (k + 2) * u * total).all()


@pytest.mark.filterwarnings("error")  # an overflow, even in an unused square, fails
@pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 8])
def test_factor_sum_forms_no_power_of_degree_n(n):
    # at a = 10^310, c^(n-1) and X^(n-1) stay below 10^272 while c^n and X^n overflow
    conv = RootConvention.real(n, 10**310)
    x = scalar_mul(conv.root, rotation(1.0))
    got = geometric_factor_sum(x, n, conv).array
    want = _reference_horner(x.array, n, conv.root)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_factor_sum_with_zero_root_collapses_to_top_power():
    x = Matrix([[1, 2], [3, 4]])
    conv = RootConvention.real(5, 0)
    assert geometric_factor_sum(x, 5, conv) == mat_pow(x, 4)


def test_factor_sum_checks_convention_consistency():
    with pytest.raises(ConventionError):
        geometric_factor_sum(identity(2, "real"), 4, RootConvention.real(3, 1))


def test_telescoping_identity():
    # (X - c*I) * factor_sum(X) == X^n - a*I
    rng = np.random.default_rng(37)
    tol = Tolerance(1e-8, 1e-8)
    cases = [(n, a) for n in range(2, 10) for a in (-2, -1, -0.5, 0, 0.5, 1, 2)
             if a >= 0 or n % 2 == 1]
    for n, a in cases:
        x = Matrix(rng.uniform(-2.0, 2.0, size=(3, 3)))
        conv = RootConvention.real(n, a)
        lhs = mat_mul(
            mat_sub(x, scalar_matrix(conv.root, 3, "real")),
            geometric_factor_sum(x, n, conv),
        )
        rhs = mat_sub(mat_pow(x, n), scalar_matrix(float(a), 3, "real"))
        assert mat_eq(lhs, rhs, tol)


# --- the real factor table ---------------------------------------------------------


@pytest.mark.parametrize("sign", [1, -1])
def test_unit_factor_table_multiplies_back_to_x_n_minus_sign(sign):
    for n in range(1, 25):
        roots, blocks = unit_factors(n, sign)
        assert len(roots) + 2 * len(blocks) == n and blocks.shape == (len(blocks), 2, 2)
        product = np.array([1.0])
        for r in roots:
            product = np.polymul(product, [1.0, -r])
        for block in blocks:  # the block's characteristic polynomial
            product = np.polymul(product, [1.0, -np.trace(block), np.linalg.det(block)])
        want = np.zeros(n + 1)
        want[0], want[-1] = 1.0, -sign
        assert np.allclose(product, want, rtol=0.0, atol=1e-9), (n, sign)


@pytest.mark.parametrize("sign", [1, -1])
def test_unit_factor_blocks_are_distinct_rotations(sign):
    for n in range(1, 25):
        _, blocks = unit_factors(n, sign)
        angles = np.sort(np.arccos(blocks[:, 0, 0]))  # x^2 - 2 cos(theta) x + 1
        assert np.all((angles > 0) & (angles < math.pi)), (n, sign)
        assert np.all(np.diff(angles) > 1e-9), (n, sign)
        for block in blocks:
            assert np.allclose(block.T @ block, np.eye(2), rtol=0.0, atol=1e-12)
            assert abs(np.linalg.det(block) - 1.0) < 1e-12
        assert not blocks.flags.writeable
        with pytest.raises(ValueError):
            blocks[...] = 0.0


def test_unit_factor_blocks_keep_the_bits_of_the_factor_angles():
    # the angles as the kernels, witnesses and search wrote them before the table,
    # each block as rotation() builds it
    for n in range(1, 65):
        plus = [2.0 * math.pi * w / n for w in range(1, (n + 1) // 2)]
        minus = [(2 * j - 1) * math.pi / n for j in range(1, n // 2 + 1)]
        cells = [(1, plus, 1.0), (-1, plus, -1.0) if n % 2 else (-1, minus, 1.0)]
        for sign, angles, scale in cells:
            want = np.array([scale * rotation(t).array for t in angles]).reshape(-1, 2, 2)
            assert unit_factors(n, sign)[1].tobytes() == want.tobytes(), (n, sign)


def _reference_unit_blocks(n, sign):
    """The block table as one (cos, sin) tuple per angle, from the scalar angles."""
    if sign == 1 or n % 2:
        angles = [2.0 * math.pi * w / n for w in range(1, (n + 1) // 2)]
    else:
        angles = [(2 * j - 1) * math.pi / n for j in range(1, n // 2 + 1)]
    c, s = np.array([(math.cos(t), math.sin(t)) for t in angles]).reshape(-1, 2).T
    blocks = np.stack((c, -s, s, c), axis=1).reshape(-1, 2, 2)
    return -1.0 * blocks if sign == -1 and n % 2 else blocks


@pytest.mark.parametrize("sign", [1, -1])
def test_unit_factor_table_equals_the_scalar_comprehension(sign):
    build = unit_factors.__wrapped__  # uncached, so the large tables are not retained
    for n in [*range(1, 65), 200000, 200001]:
        want = _reference_unit_blocks(n, sign)
        assert build(n, sign)[1].tobytes() == want.tobytes(), (n, sign)


@pytest.mark.parametrize("sign", [1, -1])
def test_the_first_blocks_alone_are_the_table_prefix_bit_for_bit(sign):
    # a witness builds only the one or two blocks it places, as the table holds them
    for n in range(1, 301):
        table = unit_factors.__wrapped__(n, sign)[1]
        for count in {1, 2, len(table)} - {c for c in (1, 2) if c > len(table)}:
            got = factors._unit_blocks(n, sign, count)
            assert got.shape == (count, 2, 2) and got.dtype == table.dtype, (n, count)
            assert got.tobytes() == table[:count].tobytes(), (n, sign, count)


def test_unit_factor_table_build_peak_stays_near_the_table():
    import tracemalloc

    for n, sign in [(200001, 1), (200000, -1), (200001, -1)]:
        tracemalloc.start()
        try:
            table = unit_factors.__wrapped__(n, sign)[1]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a (cos, sin) tuple per angle peaks near six times the table's bytes
        assert peak <= 4 * table.nbytes, (n, sign, peak, table.nbytes)


def test_unit_factor_table_is_cached_and_checks_its_arguments():
    assert unit_factors(6, -1) is unit_factors(6, -1)
    # one table per distinct n lives as long as the cache, so it is bounded
    assert unit_factors.cache_info().maxsize == 64
    roots = {(n, sign): unit_factors(n, sign)[0] for n in (1, 2, 3) for sign in (1, -1)}
    assert roots == {(1, 1): (1,), (1, -1): (-1,), (2, 1): (1, -1), (2, -1): (),
                     (3, 1): (1,), (3, -1): (-1,)}
    assert unit_factors(2, 1)[1].shape == (0, 2, 2)
    for n, sign in [(4, 0), (4, 2), (3, -2), (0, 1), (-1, -1)]:
        with pytest.raises(ValueError):
            unit_factors(n, sign)


@pytest.mark.parametrize("backend", ["rational", "real", "complex"])
def test_the_quadratic_broadcast_keeps_the_bits_of_each_factor(backend):
    # every row of one broadcast over all n/2 cosines is its factor's Matrix-op evaluation
    rng = np.random.default_rng(len(backend))
    for shape in ((3, 3), (5, 2, 2)):
        arr = random_matrix(backend, shape, rng)
        x = as_matrix(arr, backend) if len(shape) == 2 else Matrix._wrap(arr, backend)
        for n, a in [(2, -1), (4, -1), (8, -3), (12, -0.5)]:
            rows = _quadratics(_float_square(x), n, a, 1, n // 2 + 1)
            assert rows.shape == (n // 2, *shape)
            for i in range(1, n // 2 + 1):
                want = ref_quadratic_factor_eval(x, n, a, i)
                assert rows[i - 1].tobytes() == want.array.tobytes()
                assert rows[i - 1].dtype == want.array.dtype


# --- quadratic factors ------------------------------------------------------------


def test_first_quadratic_factor_annihilates_its_rotation_block():
    r1 = rotation(math.pi / 4.0)
    value = quadratic_factor_eval(r1, 4, -1, 1)
    assert is_zero(value, Tolerance(1e-10, 1e-10))


def test_other_quadratic_factor_is_a_nonzero_multiple_of_the_block():
    r1 = rotation(math.pi / 4.0)
    value = quadratic_factor_eval(r1, 4, -1, 2)
    coeff = -2.0 * math.cos(3.0 * math.pi / 4.0) + 2.0 * math.cos(math.pi / 4.0)
    assert mat_eq(value, scalar_mul(coeff, r1), Tolerance(1e-12, 1e-12))
    assert not is_zero(value, Tolerance(1e-3, 1e-3))


def test_quadratic_factor_at_zero_matrix_is_identity_for_n_two():
    value = quadratic_factor_eval(zeros(2, "real"), 2, -1, 1)  # cos(pi/2) = 0
    assert mat_eq(value, identity(2, "real"), Tolerance(1e-15, 0.0))


def test_minus_2cos_products_reconstruct_x_n_minus_a():
    # prod_i (X^2 - 2 b cos theta_i X + b^2 I) == X^n - a I
    rng = np.random.default_rng(41)
    tol = Tolerance(1e-8, 1e-8)
    for n, a in [(2, -1), (4, -1), (6, -2.0), (8, -0.5)]:
        x = Matrix(rng.uniform(-1.5, 1.5, size=(2, 2)))
        acc = None
        for i in range(1, n // 2 + 1):
            f = quadratic_factor_eval(x, n, a, i)
            acc = f if acc is None else mat_mul(acc, f)
        rhs = mat_sub(mat_pow(x, n), scalar_matrix(float(a), 2, "real"))
        assert mat_eq(acc, rhs, tol)


def test_quadratic_factor_beyond_the_float_range_is_finite():
    # a = -10^400 overflows float; b = 10^100 comes from the exact logarithms
    x = scalar_mul(1e100, rotation(math.pi / 4.0))
    first = quadratic_factor_eval(x, 4, -(10**400), 1)
    second = quadratic_factor_eval(x, 4, -(10**400), 2)
    assert np.isfinite(first.array).all() and np.isfinite(second.array).all()
    assert np.abs(first.array).max() <= 1e-12 * 1e200 < np.abs(second.array).max()


def test_quadratic_factor_argument_validation():
    r = rotation(math.pi / 4.0)
    with pytest.raises(ValueError):
        quadratic_factor_eval(r, 4, -1, 0)
    with pytest.raises(ValueError):
        quadratic_factor_eval(r, 4, -1, 3)
    with pytest.raises(ConventionError):
        quadratic_factor_eval(r, 3, -1, 1)
    with pytest.raises(ConventionError):
        quadratic_factor_eval(r, 4, 1, 1)


# --- odd factorization ------------------------------------------------------------


def test_odd_factorization_equals_geometric_sum_for_random_matrices():
    rng = np.random.default_rng(43)
    tol = Tolerance(1e-8, 1e-8)
    conv = RootConvention.real(5, 1)
    for _ in range(20):
        x = Matrix(rng.uniform(-2.0, 2.0, size=(2, 2)))
        assert mat_eq(
            odd_factorization_product(x, 5), geometric_factor_sum(x, 5, conv), tol
        )


def test_odd_factorization_at_identity():
    value = odd_factorization_product(identity(2, "real"), 3)
    # single factor (1 - 2cos(2pi/3) + 1) * I = 3 * I
    assert mat_eq(value, scalar_matrix(3.0, 2, "real"), Tolerance(1e-12, 1e-12))


def test_odd_factorization_annihilates_seventh_root_rotation():
    value = odd_factorization_product(rotation(2.0 * math.pi / 7.0), 7)
    assert is_zero(value, Tolerance(1e-9, 1e-9))


def test_odd_factorization_rejects_even_n():
    with pytest.raises(ConventionError):
        odd_factorization_product(identity(2, "real"), 4)


@pytest.mark.parametrize("backend", ["rational", "real", "complex"])
def test_the_odd_product_read_in_small_chunks_keeps_the_reference_bits(backend, monkeypatch):
    # at most 40 entries a chunk: 4 factors of a 3 x 3 matrix, 1 of a 7 x 7 one
    monkeypatch.setattr(factors, "_QUADRATIC_ENTRIES", 40)
    rng = np.random.default_rng(3 + len(backend))
    for k in (3, 7):
        x = as_matrix(random_matrix(backend, (k, k), rng), backend)
        for n in (3, 5, 9, 11, 17, 21):
            assert_same_result(odd_factorization_product(x, n), ref_odd_factorization_product(x, n))


# --- triangular powers -------------------------------------------------------------


def test_triangular_power_base_case():
    value = triangular_power_formula(TriangularParams(2, 1, 3, 2))
    assert value == Matrix([[4, 5], [0, 9]])


def test_triangular_power_equal_diagonal_is_not_singular():
    value = triangular_power_formula(TriangularParams(1, 0, 1, 5))
    assert value == identity(2, "rational")
    value = triangular_power_formula(TriangularParams(1, 1, 1, 4))
    assert value == Matrix([[1, 4], [0, 1]])


def test_triangular_power_matches_naive_product_for_random_complex_params():
    rng = np.random.default_rng(47)
    for _ in range(60):
        p, q, r = (
            complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(3)
        )
        n = int(rng.integers(2, 21))
        params = TriangularParams(p, q, r, n)
        got = triangular_power_formula(params)
        want = naive_pow(params.matrix(), n)
        scale = max(1.0, max(abs(e) for e in want.entries()))
        assert mat_eq(got, want, Tolerance(1e-8 * scale, 1e-8))


def test_triangular_params_validation():
    with pytest.raises(ValueError):
        TriangularParams(1, 1, 1, 1)
    with pytest.raises(TypeError):
        TriangularParams("x", 1, 1, 3)


# --- the classifier ------------------------------------------------------------------


def test_classifier_recognises_cube_root_diagonal():
    params = TriangularParams(
        cmath.exp(2j * math.pi / 3.0), 5, cmath.exp(4j * math.pi / 3.0), 3
    )
    assert lemma1_root_classifier(params) == (1, 2)


def test_classifier_rejects_identity_and_defective_shears():
    assert lemma1_root_classifier(TriangularParams(1, 0, 1, 4)) is None
    # (J)^n = [[1, n*q], [0, 1]] can never be I when q != 0
    assert lemma1_root_classifier(TriangularParams(1, 1, 1, 4)) is None


def test_classifier_rejects_non_roots():
    assert lemma1_root_classifier(TriangularParams(2, 0, 1, 4)) is None


def test_classifier_soundness_on_random_unit_diagonals():
    rng = np.random.default_rng(53)
    zeta = lambda n, u: cmath.exp(2j * math.pi * u / n)
    for _ in range(200):
        n = int(rng.integers(2, 13))
        u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
        q = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        params = TriangularParams(zeta(n, u), q, zeta(n, v), n)
        got = lemma1_root_classifier(params)
        if u == v:
            if abs(q) > 1e-9:
                assert got is None  # defective: A^n has off-diagonal n*q*p^(n-1)
            continue
        assert got == (u, v)
        # reconstruct from the classification and confirm it is an n-th root of I
        rebuilt = Matrix([[zeta(n, got[0]), q], [0, zeta(n, got[1])]], backend="complex")
        assert mat_eq(mat_pow(rebuilt, n), identity(2, "complex"), Tolerance(1e-7, 1e-7))


def test_classifier_exponent_sum_vanishes_mod_n_for_real_trace_inputs():
    # conjugate diagonal pairs have real trace and determinant; their
    # exponents must cancel mod n
    for n in range(2, 10):
        for u in range(1, n):
            if (2 * u) % n == 0:
                continue  # p = conj(p): a defective equal-diagonal shear
            p = cmath.exp(2j * math.pi * u / n)
            params = TriangularParams(p, 1.5, p.conjugate(), n)
            got = lemma1_root_classifier(params)
            assert got is not None
            assert (got[0] + got[1]) % n == 0


# --- array kernels against the Matrix-op reference -------------------------------------
#
# mat_pow and the factor polynomials compute on the numpy arrays and wrap each
# result once.  The reference below is the Matrix-op code they replaced: the same
# operations in the same order, each one wrapped (and checked) on its own.  Float
# results must match as bytes, signed zeros included; rational results must have
# the same values, dtype and Python entry types.


def ref_mat_pow(a, n):
    if n == 0:
        return identity(a.order, a.backend)
    while not n & 1:
        a, n = mat_mul(a, a), n >> 1
    result = a
    while n := n >> 1:
        a = mat_mul(a, a)
        if n & 1:
            result = mat_mul(result, a)
    return result


def _lift_for_root(x, conv):
    """x on a backend that holds conv's root, and the root on it."""
    if isinstance(conv.root, complex) or x.backend == "complex":
        return as_backend(x, "complex"), complex(conv.root)
    if x.backend == "rational" and conv.exact_root is not None:
        return x, conv.exact_root
    return as_backend(x, "real"), float(conv.root)


def ref_geometric_factor_sum(x, n, conv):
    xx, c = _lift_for_root(x, conv)
    if c == 0:
        return ref_mat_pow(xx, n - 1)
    coerce = _COERCE[xx.backend]
    return Matrix._wrap(_reference_halving(xx.array, n, coerce(c), coerce), xx.backend)


def ref_quadratic_factor_eval(x, n, a, i):
    b = (-float(a)) ** (1.0 / n)
    lin = -2.0 * b * math.cos((2 * i - 1) * math.pi / n)
    xx = as_backend(x, "complex" if x.backend == "complex" else "real")
    square_plus_linear = mat_add(mat_mul(xx, xx), scalar_mul(lin, xx))
    return mat_add(square_plus_linear, scalar_matrix(b * b, xx.order, xx.backend))


def ref_odd_factorization_product(x, n):
    xx = as_backend(x, "complex" if x.backend == "complex" else "real")
    x2 = mat_mul(xx, xx)
    eye = identity(xx.order, xx.backend)
    result = None
    for w in range(1, (n - 1) // 2 + 1):
        coeff = -2.0 * math.cos(2.0 * math.pi * w / n)
        factor = mat_add(mat_add(x2, scalar_mul(coeff, xx)), eye)
        result = factor if result is None else mat_mul(result, factor)
    return result


def assert_same_result(got, want):
    assert got.backend == want.backend
    assert got.array.dtype == want.array.dtype and got.array.shape == want.array.shape
    if got.backend == "rational":
        assert got.array.tolist() == want.array.tolist()
        assert [type(e) for e in got.array.flat] == [type(e) for e in want.array.flat]
    else:
        assert got.array.tobytes() == want.array.tobytes()


def assert_kernels_match_reference(x, n, real_as=(1, 0), complex_as=()):
    """Every kernel that applies at x and n: the power, the geometric sum for
    each real a in real_as (odd n also takes -a) and each complex a, the
    quadratics of a = -1 (even n) and the odd product (odd n)."""
    assert_same_result(mat_pow(x, n), ref_mat_pow(x, n))
    real_as = [*real_as, *(-a for a in real_as if a and n % 2)]
    convs = [RootConvention.real(n, a) for a in real_as]
    convs += [RootConvention.principal(n, a) for a in complex_as]
    for conv in convs:
        assert_same_result(geometric_factor_sum(x, n, conv), ref_geometric_factor_sum(x, n, conv))
    if n % 2 == 0:
        for i in range(1, n // 2 + 1):
            got = quadratic_factor_eval(x, n, -1, i)
            assert_same_result(got, ref_quadratic_factor_eval(x, n, -1, i))
    elif n >= 3:
        assert_same_result(odd_factorization_product(x, n), ref_odd_factorization_product(x, n))


def construct_pool():
    """(matrix, n) for every construction refuting its cell, k <= 8, n <= 9."""
    for k in range(2, 9):
        odd = k % 2 == 1
        for n in range(2, 10):
            if n % 2 == 0:
                yield case_counterexample(CaseTag.CASE_II if odd else CaseTag.CASE_I, k, n)
                if not odd and k >= 4 and n >= 4:
                    yield theorem2_counterexample(k, n)
            elif odd or k >= 4:
                yield case_counterexample(CaseTag.CASE_IV if odd else CaseTag.CASE_III, k, n)
                yield case_counterexample(CaseTag.CASE_VI if odd else CaseTag.CASE_V, k, n)
    for k in range(2, 9):
        for n in range(2, k + 1):
            yield shift_nilpotent(k, n), n


def test_kernels_match_the_matrix_op_reference_on_the_construct_pool():
    for item in construct_pool():
        w, n = item if isinstance(item, tuple) else (item.matrix, item.n)
        for x in (w, conjugate_matrix(w, 7), conjugate_matrix(w, 8)):
            assert_kernels_match_reference(x, n)
            assert_same_result(mat_pow(x, n - 1), ref_mat_pow(x, n - 1))


def random_matrix(backend, shape, rng):
    if backend == "rational":
        return np.array(
            [Fraction(int(rng.integers(-9, 10)), int(rng.choice((1, 1, 2, 3)))) for _ in
             range(int(np.prod(shape)))], dtype=object,
        ).reshape(shape)
    if backend == "real":
        return rng.standard_normal(shape)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def as_matrix(arr, backend):
    if backend == "rational":  # through the constructor, so integral values are ints
        return Matrix(arr.tolist(), backend="rational")
    return Matrix._wrap(arr, backend)


@pytest.mark.parametrize("backend", ["rational", "real", "complex"])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 8])
def test_kernels_match_the_matrix_op_reference_on_random_matrices(backend, k):
    rng = np.random.default_rng(100 * k + len(backend))
    x = as_matrix(random_matrix(backend, (k, k), rng), backend)
    for n in range(0, 13):
        assert_same_result(mat_pow(x, n), ref_mat_pow(x, n))
    for n in range(2, 13):
        if backend == "rational" and k == 8 and n > 6:
            continue  # exact entries grow fast; the smaller orders cover these n
        assert_kernels_match_reference(x, n, real_as=(1, 0, 2), complex_as=(2 - 1j,))


@pytest.mark.parametrize("backend", ["rational", "real", "complex"])
def test_kernels_match_the_matrix_op_reference_on_stacks(backend):
    rng = np.random.default_rng(len(backend))
    for k in (2, 3, 4):
        arr = random_matrix(backend, (5, k, k), rng)
        if backend == "rational":
            arr = np.array([as_matrix(a, backend).array for a in arr])
        stack = Matrix._wrap(arr, backend)
        for n in range(2, 9):
            assert_kernels_match_reference(stack, n, real_as=(1, 0, 2), complex_as=(2 - 1j,))


OVERFLOWING_KERNELS = {
    "mat_pow": lambda x: mat_pow(x, 3),
    "geometric_factor_sum": lambda x: geometric_factor_sum(x, 4, RootConvention.real(4, 1)),
    "geometric_factor_sum, negative root": lambda x: geometric_factor_sum(
        x, 3, RootConvention.real(3, -1)
    ),
    "quadratic_factor_eval": lambda x: quadratic_factor_eval(x, 4, -1, 1),
    "odd_factorization_product": lambda x: odd_factorization_product(x, 3),
}


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("kernel", list(OVERFLOWING_KERNELS))
def test_overflow_in_a_kernel_fails_loudly(kernel):
    # X^2 overflows to inf; the one check on the kernel's result must catch it,
    # also in a stack where only the first matrix overflows
    big = np.array([[1e200, 0.0], [0.0, 1.0]])
    for x in (Matrix(big.tolist()), Matrix._wrap(np.array([big, np.eye(2)]), "real")):
        with pytest.raises(MatrixError, match="operation produced non-finite entries"):
            OVERFLOWING_KERNELS[kernel](x)


def _plus(acc: np.ndarray, c) -> np.ndarray:
    """acc + c I, c I a fresh array with an exact 0 off the diagonal."""
    eye = np.zeros(acc.shape[-2:], acc.dtype)
    np.fill_diagonal(eye, c)
    return acc + eye


def _reference_halving(x: np.ndarray, n: int, c, coerce=lambda v: v) -> np.ndarray:
    """X^(n-1) + c X^(n-2) + ... + c^(n-1) I by the halving recurrence, written out:
    with G(m) the m-term sum and b the top bit of m, G(1) = I, G(2) = X + c I,
    G(2b) = G(b) (X^b + c^b I), and G(m) = X^b G(m - b) + c^(m - b) G(b) otherwise.
    c^(2^i) comes from squaring and c^e from those of e's bits, low to high;
    coerce puts each power into the backend."""

    def cpow(e):
        out, sq = None, coerce(c)
        for i in range(e.bit_length()):
            if e >> i & 1:
                out = sq if out is None else coerce(out * sq)
            if e >> (i + 1):
                sq = coerce(sq * sq)
        return out

    def square(i):  # X^(2^i) by squaring
        out = x
        for _ in range(i):
            out = out @ out
        return out

    def g(m):  # None for G(1) = I
        top = m.bit_length() - 1
        b = 1 << top
        if m == 1:
            return None
        if m == 2:
            return _plus(x, coerce(c))
        if m == b:
            return g(b // 2) @ _plus(square(top - 1), cpow(b // 2))
        low = g(m - b)
        head = square(top) if low is None else square(top) @ low
        return head + cpow(m - b) * g(b)

    return g(n)


def _reference_horner(x: np.ndarray, n: int, c) -> np.ndarray:
    """X^(n-1) + c X^(n-2) + ... + c^(n-1) I as X + cI, then acc @ X + c^j I."""
    acc, cj = _plus(x, c), c
    for _ in range(n - 2):
        cj = cj * c
        acc = _plus(acc @ x, cj)
    return acc


_NEGATIVE_ZEROS = [
    np.array([[1.0, -0.0, -0.0], [-0.0, -1.0, 2.0], [-0.0, -0.0, 0.5]]),
    np.array([[1 + 1j, 1j], [0.5, -1j]]),  # x @ x has -0.0 + 1j off the diagonal
    np.array([[complex(1, -0.0), complex(-0.0, 1)], [0.5, complex(-1, -0.0)]]),
]


@pytest.mark.parametrize("x", _NEGATIVE_ZEROS, ids=["real", "complex", "complex-diagonal"])
@pytest.mark.parametrize(
    "n, a",
    [(n, a) for n in (2, 3, 4, 5) for a in (1, -1, complex(2, -0.0), 1j) if a != -1 or n % 2],
    ids=str,
)
def test_geometric_factor_sum_keeps_the_reference_zeros(x, n, a):
    if isinstance(a, complex):
        c, x = RootConvention.principal(n, a), x.astype(complex)
    else:
        c = RootConvention.real(n, a)
    backend = "complex" if x.dtype == complex else "real"
    root = complex(c.root) if backend == "complex" else float(c.root)
    got = geometric_factor_sum(Matrix._wrap(x.copy(), backend), n, c).array
    want = _reference_halving(x, n, root)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
