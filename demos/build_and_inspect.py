"""Build a simultaneous approximant system and look inside it.

Walks the canonical two-series instance (a = 1/3,1/4; b = 1/2) through the
full construction at a few weights: exact rational coefficients, the degree
and vanishing-order contract, and the remainder coefficients shrinking as
the weight grows.  Run it directly; it asserts everything it prints.

    python3 demos/build_and_inspect.py
"""

from fractions import Fraction

from hgpade.arith import format_rational
from hgpade.pade import build_system, verify_system, window_coeff, window_order
from hgpade.polyops import HypergeometricSpec, poly_deg


def main() -> None:
    spec = HypergeometricSpec.from_ab((Fraction(1, 3), Fraction(1, 4)), (Fraction(1, 2),))
    alphas = (Fraction(1), Fraction(2))
    r, m = spec.r, len(alphas)
    fmt = lambda xs: ",".join(format_rational(x) for x in xs)
    print(f"spec: a={fmt(spec.a)} b={fmt(spec.b)}  (r={r} series), alphas={fmt(alphas)}")
    print(f"series coefficients c_0..c_5: "
          f"{[format_rational(spec.c(k)) for k in range(6)]}")
    print()

    for n in (1, 2, 3):
        system = build_system(spec, alphas, n)
        report = verify_system(system)
        assert report["ok"], report["failures"]

        # degree contract: deg P_ell = r*m*n + ell, one family per ell, each
        # P_ell an integer row (den, ints) of coefficients ints / den
        degs = {ell: poly_deg(ints) for ell, (_, ints) in system.P.items()}
        assert all(deg == r * m * n + ell for ell, deg in degs.items())

        # order contract: every remainder vanishes to order >= n+1 at infinity;
        # each window is an integer row (order, den, ints)
        orders = sorted(window_order(window) for window in system.R.values())
        assert orders[0] >= n + 1

        # the remainder scale at a fixed index, to watch the decay
        lead = Fraction(*window_coeff(system.R[(0, 1, 0)], orders[0]))
        print(f"n={n}: deg P_ell = {sorted(degs.values())}, "
              f"min ord R = {orders[0]}, "
              f"|leading R_0,1,0| ~ {float(abs(lead)):.3e}  [verified ok]")

    print()
    print("every invariant re-checked from scratch: ok")


if __name__ == "__main__":
    main()
