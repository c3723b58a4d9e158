"""Measure an effective irrationality exponent, end to end.

At the canonical instance (a=1/3,1/4; b=1/2; alpha=1) the decay rate of the
remainders beats the growth rate of the approximants once beta is large
enough, and the gap V feeds straight into an explicit measure mu_eps and
constant C_eps.  This demo runs the full measurement at beta = 10^6, shows
the diagnostics the verdict rests on, then bisects in log beta for the
smallest integer beta that still certifies (V > 0 there and V <= 0 one
below) and checks that the finite-place mass stays under its closed-form
budget, which holds here though the budget is no proven bound.

Takes about a second, building the systems of weight 4..16 exactly.

    python3 demos/irrationality_sweep.py
"""

from fractions import Fraction

from hgpade.arith import Place
from hgpade.criterion import Instance, measure, min_beta, place_consistency
from hgpade.polyops import HypergeometricSpec


def main() -> None:
    spec = HypergeometricSpec.from_ab((Fraction(1, 3), Fraction(1, 4)), (Fraction(1, 2),))
    alphas = (Fraction(1),)

    print("measuring at beta = 10^6 (archimedean place, epsilon = 0.1) ...")
    rep = measure(Instance(spec, alphas, range(4, 17)), Fraction(10**6), Place(), epsilon=0.1)
    print(f"  decay rate      A = {rep.A_emp:9.4f}   (closed form {rep.A_cf:9.4f})")
    print(f"  growth rate     U = {rep.U_emp:9.4f}")
    print(f"  certified gap   V = {rep.V_emp:9.4f}   (budget route "
          f"{rep.diagnostics['V_budget_route']:7.4f})")
    print(f"  measure    mu_eps = {rep.mu_eps:9.4f}")
    print(f"  constant    C_eps = {rep.C_eps:.3e}")
    assert rep.verdict, "the canonical instance must certify"
    assert rep.V_emp > 0 and rep.diagnostics["V_budget_route"] > 0
    assert rep.diagnostics["specialization_consistent"]

    print()
    print("smallest certified integer beta (search bound 1024) ...")
    threshold, _ = min_beta(Instance(spec, alphas, range(4, 13)), 1024)
    print(f"  min beta = {threshold}")
    assert threshold is not None and 2 <= threshold <= 1024

    print()
    pc = place_consistency(spec)
    print(f"finite places: measured mass vs closed-form budget (N = {pc['N']}) ...")
    print(f"  measured {pc['measured']:.4f} <= budget {pc['budget']:.4f} "
          f"(gap {100 * pc['relative_gap']:.1f}%)")
    assert pc["measured_le_budget"], "finite-place mass exceeded its budget"

    print()
    print("certified: irrational with an explicit measure at beta = 10^6")


if __name__ == "__main__":
    main()
