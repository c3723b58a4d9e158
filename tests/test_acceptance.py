"""Acceptance gate: the desk-scale matrix, ten checks over the exact kernel.

`CHECKS` has one row per check: its id, its description, its wall-clock
budget and its body.  A body takes the run's `Desk`, which builds the grid
systems, their contracts and the criterion instance once, on first read, and
returns (passed, details); its details keep rationals exact.  Each row is a
separate parametrized test on one module-level `Desk`, timed against its
budget, so a red run names the broken check directly and the expensive
approximant systems are not rebuilt ten times.  `test_desk_report_is_frozen`
pins every check's details, byte for byte, as `cli.emit_report` writes them.
Failure details name the offending instance label, so a red run points
straight at the broken link.
"""

import hashlib
import math
import random
import time
from fractions import Fraction
from functools import cached_property

import pytest

from conftest import (
    A_poly,
    B_poly,
    C_um_by_elimination,
    D_n_profile,
    T_c,
    a0s_change_of_basis,
    apply_H_theta,
    apply_H_theta_inverse,
    c_um_factor,
    check_remainder_identity,
    criterion_V,
    expand_F_s,
    final_det_by_phi,
    homogeneity_degree,
    poly_eval,
    poly_shift_up,
    psi,
    reduction_check,
    row_values,
    solve_pade_nullspace,
    vanishing_order_at_equal_alphas,
)
from hgpade import pade
from hgpade.arith import Place, log_mu, totient
from hgpade.cli import emit_report
from hgpade.criterion import Instance, decay_fit_R, measure, min_beta
from hgpade.numerics import _f_closed, _f_direct
from hgpade.pade import build_system, contract_failures
from hgpade.polyops import HypergeometricSpec, poly_deg
from hgpade.wronskian import (
    C_um,
    a0s_values,
    alpha_exponent,
    delta_route_check,
    final_det,
    theta_chain_holds,
)

SUITE_SEED = 20260815

ARCH = Place(None)

# (a, b) of the three specs the checks run on
SPECS = {
    "r1": ((Fraction(1, 3),), ()),
    "r2": ((Fraction(1, 3), Fraction(1, 4)), (Fraction(1, 2),)),
    "r3": ((Fraction(1, 3), Fraction(1, 4), Fraction(1, 5)),
           (Fraction(1, 2), Fraction(2, 3))),
}


def _spec(key: str) -> HypergeometricSpec:
    return HypergeometricSpec.from_ab(*SPECS[key])


# the instance grid every structural check runs over
GRID = (("r2", 1, (1, 2, 3, 4)), ("r2", 2, (1, 2, 3)), ("r3", 1, (1, 2)))


class Desk:
    """What the checks of one run share, each part built on its first read,
    and the seed of the randomized checks."""

    seed = SUITE_SEED

    @cached_property
    def grid(self) -> dict:
        """label -> (spec, alphas, n, system) over `GRID`, built without the
        cross-check: `contracts` runs `contract_failures` once per system."""
        specs = {key: _spec(key) for key in ("r2", "r3")}
        built = {}
        for key, m, ns in GRID:
            alphas = tuple(Fraction(j) for j in range(1, m + 1))
            for n in ns:
                built[f"{key}m{m}n{n}"] = (
                    specs[key], alphas, n,
                    build_system(specs[key], alphas, n, cross_check=False))
        return built

    @cached_property
    def contracts(self) -> dict:
        """label -> `contract_failures` of its grid system, read by
        pade-contract and nullspace-membership (Delta checks its own
        hypotheses)."""
        return {label: contract_failures(system)
                for label, (_, _, _, system) in self.grid.items()}

    @cached_property
    def criterion(self) -> Instance:
        return Instance(_spec("r2"), (Fraction(1),), range(4, 17))


def check_pade_contract(desk: Desk):
    """Degrees rmn+ell exact and every remainder of order >= n+1 on the grid:
    the system contract (`contract_failures`)."""
    rows, ok = [], True
    for label in sorted(desk.grid):
        failures = desk.contracts[label]
        here = not failures
        ok = ok and here
        row = {"instance": label, "ok": here}
        if failures:
            row["failures"] = failures
        rows.append(row)
    return ok, {"instances": rows}


def check_nullspace_membership(desk: Desk):
    """The constructed family solves the order-condition kernel of its own
    instance matrix: the ell=0 column is annihilated by the literal matrix
    rows, spans the (1-dimensional) kernel the solver finds at M = rmn, and
    every column passes the system contract (`contract_failures`).  The
    series F_s(alpha_i/z) come from their product formula (`expand_F_s`),
    not from the construction's psi weights, and the system's rows are read
    as Fractions (`row_values`)."""
    rows, ok = [], True
    for label, (spec, alphas, n, system) in sorted(desk.grid.items()):
        r, m = spec.r, len(alphas)
        M = r * m * n
        tails = [expand_F_s(spec, alpha, s, n + M)
                 for alpha in alphas for s in range(r)]
        P0 = row_values(system.P[0])
        annihilated = all(
            sum((c * tail[e + d - 1] for d, c in enumerate(P0)), Fraction(0)) == 0
            for tail in tails
            for e in range(1, n + 1)
        )
        families = solve_pade_nullspace(tails, [n] * (r * m), M)
        span_ok = len(families) == 1
        if span_ok:
            # same solution up to the one free scalar, all components at once
            Q0 = families[0][0]
            span_ok = poly_deg(Q0) == poly_deg(P0)
            lam = P0[-1] / Q0[-1] if span_ok else None
            if span_ok:
                keys = [(0, i, s) for i in range(1, m + 1) for s in range(r)]
                span_ok = [c * lam for c in Q0] == P0 and all(
                    [c * lam for c in families[0][1 + j]] == row_values(system.Pis[key])
                    for j, key in enumerate(keys)
                )
        member = not desk.contracts[label]
        here = annihilated and span_ok and member
        ok = ok and here
        rows.append(
            {"instance": label, "ok": here, "annihilated": annihilated,
             "kernel_dim_1_and_spanned": span_ok, "membership": member}
        )
    return ok, {"instances": rows}


def check_wronskian_routes(desk: Desk):
    """Delta constant in z and nonzero, Delta = lead(P_rm) * Theta, and the
    chain Theta * (n-1)!^(r^2 m) = prod(alpha)^r * prod(a0s)^m * C_{n,m},
    with C_{n,m} equal on the moment-determinant route and the elimination
    oracle (affordable here: rm <= 4 on the grid)."""
    rows, ok = [], True
    for label, (spec, alphas, n, system) in sorted(desk.grid.items()):
        route = delta_route_check(system)  # raises if Delta is not constant
        C = C_um(spec, alphas, n, n)
        chain = theta_chain_holds(
            spec, alphas, n, route["theta"], a0s_values(spec, n)["values"], C
        ) and C == C_um_by_elimination(spec, alphas, n, n)
        here = route["delta"] != 0 and route["equal"] and chain
        ok = ok and here
        rows.append(
            {"instance": label, "ok": here, "delta": route["delta"],
             "expansion_route": route["equal"], "chain_route": chain}
        )
    return ok, {"instances": rows}


def check_factorization(desk: Desk):
    """Measured homogeneity degree, vanishing order at merged alphas,
    two-point reduction, and the alpha-exponent across tuples."""
    s2 = _spec("r2")
    s3 = _spec("r3")
    details, ok = {}, True

    hom_rows = []
    for n, u in ((1, 0), (1, 1), (2, 1)):
        # m e(u) + binom(m, 2) (2n+1) r^2 at r = m = 2
        want = 2 * alpha_exponent(2, n, u) + (2 * n + 1) * 4
        got = homogeneity_degree(s2, (Fraction(1), Fraction(2)), n, u)
        hom_rows.append({"n": n, "u": u, "measured": got, "expected": want})
        ok = ok and got == want
    details["homogeneity"] = hom_rows

    van_rows = []
    for n, u in ((1, 1), (2, 2)):
        floor = (2 * n + 1) * 4  # r = 2
        got = vanishing_order_at_equal_alphas(s2, n, u, m=2)
        van_rows.append({"n": n, "u": u, "order": got, "floor": floor})
        ok = ok and got >= floor
    details["vanishing_order"] = van_rows

    red_rows = []
    for u in (0, 1):
        red = reduction_check(s2, (Fraction(1), Fraction(2)), 1, u)
        red_rows.append({"m": 2, "u": u, "equal": red["equal"]})
        ok = ok and red["equal"]
    red = reduction_check(s2, (Fraction(1),), 1, 0)
    red_rows.append({"m": 1, "u": 0, "equal": red["equal"]})
    ok = ok and red["equal"]
    details["reduction"] = red_rows

    exp_rows = []
    for spec, alphas, n, u in (
        (s2, (Fraction(1), Fraction(2)), 1, 1),
        (s2, (Fraction(1),), 1, 0),
        (s3, (Fraction(1),), 1, 0),
    ):
        # c_um_factor itself enforces (c, e) agreement across >= 3 tuples
        c, e = c_um_factor(spec, alphas, n, u)
        want = alpha_exponent(spec.r, n, u)
        exp_rows.append(
            {"r": spec.r, "m": len(alphas), "n": n, "u": u,
             "measured_e": e, "expected_e": want, "c": c}
        )
        ok = ok and e == want and c != 0
    details["alpha_exponent"] = exp_rows
    return ok, details


def check_a0s_final_det(desk: Desk):
    """a_{0,s} product formula vs change-of-basis oracle (r <= 3, n <= 4);
    the final determinant's closed product (`final_det`) vs the determinant
    of its phi-functionals (`final_det_by_phi`) for all r <= 3, n <= 3,
    u <= 2rm.  The product has no zero factor under (AB), so only a second
    route can catch a wrong one."""
    ok = True
    a0_rows = []
    for spec in (_spec("r1"), _spec("r2"), _spec("r3")):
        for n in range(1, 5):
            vals = a0s_values(spec, n)
            match = all(
                vals["values"][s] == a0s_change_of_basis(spec, n, s)
                for s in range(spec.r)
            )
            ok = ok and match and vals["all_nonzero"]
            a0_rows.append({"r": spec.r, "n": n, "oracle_match": match,
                            "all_nonzero": vals["all_nonzero"]})
    det_rows = []
    for spec, m_max in ((_spec("r1"), 1), (_spec("r2"), 2), (_spec("r3"), 1)):
        differ_at = [[n, u] for n in range(1, 4)
                     for u in range(0, 2 * spec.r * m_max + 1)
                     if final_det(spec, n, u) != final_det_by_phi(spec, n, u)]
        ok = ok and not differ_at
        det_rows.append({"r": spec.r, "u_max": 2 * spec.r * m_max,
                         "phi_route_match": not differ_at, "differ_at": differ_at})
    return ok, {"a0s": a0_rows, "final_det": det_rows}


def check_denominator_growth(desk: Desk):
    """(1/N) log D_N <= log mu(a) + den(b)/phi(den(b)) + 0.05 at N = 200."""
    pairs = (
        (Fraction(1, 3), Fraction(1, 2)),
        (Fraction(1, 4), Fraction(2, 3)),
        (Fraction(2, 5), Fraction(1, 5)),
    )
    rows, ok = [], True
    for a, b in pairs:
        prof = D_n_profile(a, b, 200)
        q = b.denominator
        bound = log_mu(a) + q / totient(q) + 0.05
        here = prof.log_rate <= bound
        ok = ok and here
        rows.append(
            {"a": a, "b": b,
             "log_rate": prof.log_rate, "bound": bound, "ok": here}
        )
    return ok, {"pairs": rows}


def _monomial(m: int) -> list:
    return [Fraction(0)] * m + [Fraction(1)]


def check_operator_identities(desk: Desk):
    """Shift, twist and evaluation identities, exact on monomials.

    - t^k H(theta)(t^m) = H(theta - k)(t^(k+m)), H of degree <= 3
    - [t^k] T_c = T_c prod_{j=1..k} A(theta-j) prod_{j=0..k-1} B(theta-j)^{-1} [t^k]
    - psi_{i,s}(P) = psi_{i,0}((theta+g_1)...(theta+g_s) P)
    - psi_{i,0}(T_c(P)) = alpha_i * P(alpha_i)
    """
    rng = random.Random(desk.seed)
    specs = [_spec("r1"), _spec("r2"), _spec("r3")]
    alphas = (Fraction(1), Fraction(2))
    H_set = (
        [Fraction(1), Fraction(1)],                             # X + 1
        [Fraction(0), Fraction(0), Fraction(1)],                # X^2
        [Fraction(2), Fraction(-1), Fraction(0), Fraction(1)],  # X^3 - X + 2
    )
    rows, ok = [], True
    for spec in specs:
        shift_ok = all(
            poly_shift_up(apply_H_theta(H, _monomial(m)), k)
            == apply_H_theta(H, _monomial(k + m), shift=Fraction(-k))
            for H in H_set
            for k in range(6)
            for m in range(11)
        )
        twist_ok = True
        A, B = A_poly(spec), B_poly(spec)
        for k in range(6):
            for m in range(16):
                lhs = poly_shift_up(T_c(spec, _monomial(m)), k)
                q = _monomial(k + m)
                for j in range(1, k + 1):
                    q = apply_H_theta(A, q, shift=Fraction(-j))
                for j in range(k):
                    q = apply_H_theta_inverse(B, q, shift=Fraction(-j))
                if T_c(spec, q) != lhs:
                    twist_ok = False
        P = [Fraction(rng.randint(-99, 99), rng.randint(1, 20)) for _ in range(16)]
        factor_ok = True
        for i in (1, 2):
            for s in range(spec.r):
                q = list(P)
                for w in range(s):
                    q = apply_H_theta([spec.gamma[w], Fraction(1)], q)
                if psi(spec, alphas, i, s, P) != psi(spec, alphas, i, 0, q):
                    factor_ok = False
        eval_ok = all(
            psi(spec, alphas, i, 0, T_c(spec, P))
            == alphas[i - 1] * poly_eval(P, alphas[i - 1])
            for i in (1, 2)
        )
        here = shift_ok and twist_ok and factor_ok and eval_ok
        ok = ok and here
        rows.append(
            {"r": spec.r, "ok": here, "shift": shift_ok, "twist": twist_ok,
             "psi_factorization": factor_ok, "psi_evaluation": eval_ok}
        )
    return ok, {"specs": rows}


def check_numerical_shadow(desk: Desk):
    """At beta = 10^6, archimedean place: remainder identity certified to
    2^-128; -(1/n) log|R| fits affine-in-n with residual < 2% on n = 4..16;
    doubling beta shifts the fitted rate by log 2 within 5%.

    On the n = 4 system, the identity ties each certified sum R(beta),
    which starts from prefix sums of the psi weights and reads no stored
    window, to P_ell(beta) F_s(alpha_i/beta) - P_{ell,i,s}(beta); the
    system's `contract_failures` ties each stored window, built here, to
    the literal product P_ell F_s - P_{ell,i,s}."""
    inst = desk.criterion
    beta = Fraction(10**6)

    ident = check_remainder_identity(inst.systems[4], beta, bits=128)
    budget_cap = max(e["budget"] for e in ident["entries"])
    certified = (ident["ok"] and budget_cap <= 2.0**-128
                 and not contract_failures(inst.systems[4]))

    fit = decay_fit_R(inst, beta, ARCH)
    fit2 = decay_fit_R(inst, 2 * beta, ARCH)
    shift = fit2.rate - fit.rate
    shift_ok = abs(shift - math.log(2)) <= 0.05 * math.log(2)

    return certified and fit.ok and shift_ok, {
        "identity_ok": ident["ok"],
        "certified_budget": budget_cap,
        "fit_rate": fit.rate,
        "fit_max_rel_residual": fit.max_rel_residual,
        "doubling_shift": shift,
        "log2": math.log(2),
    }


def check_criterion_end_to_end(desk: Desk):
    """min-beta certifies a beta with V_emp > 0; the measure report's two
    formula identities recompute exactly in float arithmetic; re-running at
    the returned beta on a fresh instance reproduces V_emp > 0."""
    spec = _spec("r2")
    alphas = (Fraction(1),)

    beta_min, _ = min_beta(Instance(spec, alphas, range(4, 13)), 1024)
    found = beta_min is not None
    v_rerun = (
        criterion_V(Instance(spec, alphas, range(4, 13)), Fraction(beta_min), ARCH)
        if found
        else float("-inf")
    )

    rep = measure(desk.criterion, Fraction(10**6), ARCH, epsilon=0.1)
    denom = rep.V_emp - rep.epsilon
    mu_ok = rep.mu_eps == (rep.A_emp + rep.U_emp) / denom
    c_ok = rep.C_eps == math.exp(
        -(math.log(2) / denom + 1) * (rep.A_emp + rep.U_emp)
    )

    return found and v_rerun > 0 and mu_ok and c_ok and rep.verdict, {
        "min_beta": beta_min,
        "V_at_min_beta": v_rerun,
        "V_emp_canonical": rep.V_emp,
        "mu_identity": mu_ok,
        "C_identity": c_ok,
        "verdict": rep.verdict,
    }


def check_dual_route_series(desk: Desk):
    """Closed form vs direct summation of every F_s, relative 2^-128 at
    512 bits, ten pseudo-random arguments with |z| <= 1/2."""
    rng = random.Random(desk.seed)
    rows, ok = [], True
    for spec in (_spec("r2"), _spec("r3")):
        for _ in range(5):
            z = Fraction(0)
            while z == 0:
                z = Fraction(rng.randint(-(2**30), 2**30), 2**31)
            worst = 0.0
            for s in range(spec.r):
                direct = _f_direct(spec, s, z, 512)
                closed = _f_closed(spec, s, z, 512)
                rel = abs(direct.value - closed.value) / max(
                    abs(closed.value), Fraction(1, 2**512)
                )
                worst = max(worst, float(rel))
            here = worst <= 2.0**-128
            ok = ok and here
            rows.append({"r": spec.r, "z": z,
                         "worst_rel": worst, "ok": here})
    return ok, {"arguments": rows}


# (id, description, wall-clock budget in seconds, body), in report order.
# Each budget is max(2 s, 20 times the row's slowest of six timed runs on a
# 2-core Xeon), rounded up to a whole second: operator-identities took
# 0.39 s, dual-route-series 0.14 s, every other row 0.08 s or less
CHECKS = (
    ("pade-contract",
     "deg P_ell = rmn+ell and ord R >= n+1, exact, across the (r,m,n) grid",
     2.0, check_pade_contract),
    ("nullspace-membership",
     "constructed rows lie in the null space of their own instance matrix",
     2.0, check_nullspace_membership),
    ("wronskian-routes",
     "Delta has z-degree 0, is nonzero, and both route equalities hold exactly",
     2.0, check_wronskian_routes),
    ("factorization",
     "homogeneity exact, vanishing order >= (2n+1)r^2, reduction exact, "
     "alpha-exponent consistent across tuples",
     2.0, check_factorization),
    ("a0s-final-det",
     "diagonal constants match the change-of-basis oracle; the final "
     "determinant's product equals its phi-route determinant on the tested range",
     2.0, check_a0s_final_det),
    ("denominator-growth",
     "profile growth rate stays under its mu-budget at N = 200",
     2.0, check_denominator_growth),
    ("operator-identities",
     "operator identities exact on monomial bases to degree 15, three specs",
     8.0, check_operator_identities),
    ("numerical-shadow",
     "certified remainder identity at beta = 10^6; affine decay fit "
     "residual < 2%; doubling beta shifts the rate by log 2 within 5%",
     2.0, check_numerical_shadow),
    ("criterion-end-to-end",
     "min-beta finds a certified beta, report formulas recompute exactly, "
     "rerun reproduces V_emp > 0",
     2.0, check_criterion_end_to_end),
    ("dual-route-series",
     "closed form vs direct series agree to relative 2^-128 at 512 bits "
     "on ten random arguments",
     3.0, check_dual_route_series),
)


DESK = Desk()


@pytest.mark.parametrize("row", CHECKS, ids=lambda row: row[0].replace("-", "_"))
def test_acceptance(row):
    check_id, _, budget_s, body = row
    t0 = time.perf_counter()
    passed, details = body(DESK)
    took = time.perf_counter() - t0
    assert passed, (check_id, details)
    assert took <= budget_s, f"{check_id} took {took:.2f}s, budget {budget_s:.0f}s"


def test_desk_report_is_frozen(monkeypatch):
    # every row on a fresh Desk, its details written as a report by
    # `cli.emit_report`
    calls = []
    remainder = pade.remainder

    def counted(*args, **kwargs):
        calls.append(None)
        return remainder(*args, **kwargs)

    monkeypatch.setattr(pade, "remainder", counted)
    desk = Desk()
    checks = []
    for check_id, description, budget_s, body in CHECKS:
        passed, details = body(desk)
        checks.append({"id": check_id, "description": description, "passed": passed,
                       "budget_s": budget_s, "details": details})
    report = {"level": "desk", "seed": SUITE_SEED,
              "all_passed": all(check["passed"] for check in checks), "checks": checks}
    text = emit_report(report)
    assert report["all_passed"]
    # one literal product per (ell, i, s) of the 108 on the grid for the
    # shared contract of pade-contract and nullspace-membership, and one
    # per (ell, i, s) of the 6 of the n = 4 system whose windows
    # numerical-shadow checks; Delta's own hypotheses on the grid's built
    # systems are proved by construction, with none
    assert len(calls) == 108 + 6
    # every check's details, byte for byte
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "ccd3239e21d52e90fcedc69afcb8ebab15ffb78646c5e895cf93f588843829ac"
    )
