"""Factor polynomials of X^n - a*I, evaluated at matrices.

x^n - a factors over the reals as (x - a^(1/n)) * (geometric cofactor) when
a >= 0 or n is odd, and into n/2 quadratics when n is even and a < 0.  The
same factorizations hold for matrix polynomials, and this script evaluates
both kinds of factor at interesting matrices.
"""

import math

from matroot import (
    RootConvention,
    Tolerance,
    geometric_factor_sum,
    identity,
    is_zero,
    mat_pow,
    odd_factorization_product,
    quadratic_factor_eval,
    rotation,
    swap_block,
)


def show(name, m):
    width = max(len(f"{e}") for row in m.rows() for e in row)
    print(f"{name} =")
    for row in m.rows():
        print("   [" + "  ".join(f"{e!s:>{width}}" for e in row) + "]")


def main():
    print("=== the geometric cofactor of (X - a^(1/n) I) ===\n")

    t = swap_block()
    show("T (the 2x2 exchange matrix)", t)
    conv = RootConvention.real(4, 1)
    value = geometric_factor_sum(t, 4, conv)
    print("\nT^4 = I, and T is not I, yet the cofactor does not vanish:")
    show("T^3 + T^2 + T + I", value)
    print("so T breaks the naive 'every root kills a factor' intuition.\n")

    r = rotation(2.0 * math.pi / 5.0)
    conv5 = RootConvention.real(5, 1)
    value = geometric_factor_sum(r, 5, conv5)
    print("A rotation by 2*pi/5 is a 5th root of I and DOES kill the cofactor:")
    print(f"   max |entry| of R^4 + ... + R + I = {max(abs(e) for e in value.entries()):.2e}")
    print(f"   is_zero within (1e-10, 1e-10): {is_zero(value, Tolerance(1e-10, 1e-10))}\n")

    print("=== odd n: the cofactor splits into quadratics ===\n")
    lhs = odd_factorization_product(r, 5)
    rhs = geometric_factor_sum(r, 5, conv5)
    diff = max(abs(x - y) for x, y in zip(lhs.entries(), rhs.entries()))
    print("prod_w (X^2 - 2cos(2 pi w/5) X + I) vs X^4 + ... + I at the rotation:")
    print(f"   max entrywise difference: {diff:.2e}\n")

    print("=== even n, a < 0: quadratic factors only ===\n")
    r1 = rotation(math.pi / 4.0)
    print("R = rotation(pi/4) satisfies R^4 = -I.  Factor i of X^4 + I is")
    print("X^2 - 2 cos((2i-1) pi/4) X + I; by Cayley-Hamilton factor 1 kills R:")
    for i in (1, 2):
        value = quadratic_factor_eval(r1, 4, -1, i)
        peak = max(abs(e) for e in value.entries())
        print(f"   i = {i}: max |entry| = {peak:.3e}  "
              f"({'zero' if is_zero(value) else 'NOT zero'})")

    print("\nSanity: R^4 really is -I:",
          [f"{e:+.3f}" for e in mat_pow(r1, 4).entries()])
    print("Identity check at I:",
          geometric_factor_sum(identity(3, "rational"), 3,
                               RootConvention.real(3, 1)).rows())


if __name__ == "__main__":
    main()
