"""Non-vanishing certification for the determinant of the Pade system.

The chain runs: the (rm+1) x (rm+1) polynomial determinant Delta(z) (shown
constant in z and computed exactly), its reduction to the rm x rm numeric
determinant Theta of functional values, the explicit constants a_{0,s}, the
multivariate value C_{u,m} (a product of one evaluation functional per
auxiliary variable, applied to a discriminant-like polynomial), its
factorization into alpha-powers and Vandermonde factors with a stated
exponent, the reduction from m points to m-1, and the final r x r determinant
of partial-fraction functionals, a closed product with no zero factor.

Every link is computed over exact rationals, and every identity that ties two
links together is asserted with exact equality — a failure is a theory
violation, never a tolerance event.

Each quantity has one polynomial-time route, and every determinant goes
through `det_bareiss`, on integer rows (den, ints) whose denominators one
helper divides out (`_det`).  Delta is constant by the paper's cofactor
argument: every remainder has order >= n+1 at infinity, so the expansion
along the top row leaves lead(P_rm) * Theta.  `delta_of_system` checks the
argument's hypotheses, the system's contract (`pade.contract_failures`),
and then evaluates Delta once, at z = 0: given the hypotheses its
constancy is a theorem, and `delta_route_check` compares that value with
lead(P_rm) * Theta.  The certify path builds windows only through
1/z^{n+1}, without the cross-check, and makes no P_{ell,i,s} row: Delta(0) reads their constant
terms (`pade.constant_term`).  Delta and Theta read integer rows of the
system and of its stored windows, each matrix row scaled once over the lcm
of its denominators, with no Fraction per entry.  C_{u,m} is the
moment determinant, whose columns are `_dot_rows` runs on integer rows.
The chain's constants are stated, from c_{u,0} = 1 by the paper's link, and
each level is checked once at the instance's own points, by one C_{u,k};
the oracle that measures (c, e) on sample tuples is in the tests.
`final_det`, L(u) = C_{u,1}(1) (`link_value`) and the change of
basis E between them (`final_det_basis`) are products, proved in the
README.  The subset elimination that checks `C_um` is exponential in rm
and lives in the tests, as an oracle for small sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .errors import InvalidInput, NonconstantDeterminant, TheoryViolation
from .linalg import det_bareiss
from .pade import (
    PadeSystem,
    base_polynomial,
    build_system,
    constant_term,
    contract_failures,
    window_coeff,
)
from .polyops import HypergeometricSpec, _dot_rows, _pochhammer, _scaled, _zeta_row

# ---------------------------------------------------------------------------
# Delta and Theta


def _row_index_pairs(r: int, m: int):
    """Row order of the system vectors: i ascending, s descending."""
    for i in range(1, m + 1):
        for s in range(r - 1, -1, -1):
            yield i, s


# the hypothesis of the cofactor argument that each contract check decides
_HYPOTHESES = {
    "deg_P": "deg P_ell = rmn + ell",
    "deg_Pis": "deg P_{ell,i,s} <= rmn + ell",
    "ord_R": "order >= n+1",
    "Pis_coeffs": "order >= n+1",
    "remainder_coeffs": "product coefficient",
    "weights": "psi weights = series of F_s",
}


def delta_of_system(system: PadeSystem) -> Fraction:
    """det( p_0(z) ... p_rm(z) ), column ell = (P_ell, P_{ell,i,s} in row
    order), proved constant in z by the cofactor argument and returned as
    that constant.

    Subtract F_s(alpha_i/z) times the top row from the row of (i, s): its
    entries become -R_{ell,i,s}, each of order >= n+1 at infinity.  Expanded
    along the top row, the cofactor of column ell is an rm x rm minor of
    remainders, of order >= rm(n+1), against deg P_ell = rmn + ell.  Every
    term but ell = rm therefore vanishes at infinity, so the polynomial
    Delta is the constant lead(P_rm) * Theta.  The hypotheses are the
    system's contract, checked exactly on its own data; the first failure
    raises NonconstantDeterminant naming its hypothesis.  They are
    `pade.contract_failures`:

    * deg P_ell = rmn + ell (deg_P);
    * psi weights = series of F_s (weights), so the rows and windows made
      from P_ell are the polynomial part and the tail of P_ell F_s;
    * deg P_{ell,i,s} <= rmn + ell (deg_Pis);
    * order >= n+1: the stored window has it (ord_R), and a given
      P_{ell,i,s} is the polynomial part of P_ell F_s (Pis_coeffs);
    * product coefficient: a given window is the tail that Theta reads
      (remainder_coeffs).

    A built system holds only made rows and windows, so only deg_P,
    weights and ord_R can fail on it.  Windows of truncation n + 2 are
    enough, so `certify_nonvanishing` builds at it: the order hypotheses
    read exponents 1..n, Theta reads n+1, and the polynomial part is
    checked at any truncation.

    With the hypotheses holding, Delta is constant, so it is evaluated
    once, at z = 0: one Bareiss determinant of p(0), the constant terms of
    the P_ell and of the P_{ell,i,s} (`pade.constant_term`, which makes no
    row of a built system), each matrix row scaled once (`_det`).
    `delta_route_check` compares it with lead(P_rm) * Theta.
    """
    failures = contract_failures(system)
    if failures:
        raise NonconstantDeterminant(
            f"hypothesis {_HYPOTHESES[failures[0]['check']]} fails: {failures[0]}")
    r, m = system.r, system.m
    N = r * m
    rows = [[(system.P[ell][1][0], system.P[ell][0]) for ell in range(N + 1)]]
    for i, s in _row_index_pairs(r, m):
        rows.append([constant_term(system, ell, i, s) for ell in range(N + 1)])
    return _det([_scaled(row) for row in rows])


def theta_det(system: PadeSystem) -> Fraction:
    """det of the rm x rm matrix with entries psi_{i,s}(t^n P_ell(t)), each
    read off the stored remainder window as its 1/z^{n+1} coefficient."""
    r, m, n = system.r, system.m, system.n
    return _det([
        _scaled([window_coeff(system.R[(ell, i, s)], n + 1) for ell in range(r * m)])
        for i, s in _row_index_pairs(r, m)
    ])


def _det(rows: list) -> Fraction:
    # the determinant of the matrix whose row j is the integer row
    # (den_j, ints_j), den_j > 0, that is ints_j / den_j: `det_bareiss` of
    # the ints over the product of the denominators
    return Fraction(det_bareiss([ints for _, ints in rows]),
                    math.prod(den for den, _ in rows))


def leading_coeff_P_rm(system: PadeSystem) -> Fraction:
    den, ints = system.P[system.r * system.m]
    return Fraction(ints[-1], den)


def delta_route_check(system: PadeSystem) -> dict:
    """Both computations of Delta: the determinant evaluated at z = 0, and
    the expansion along the top row, Delta = (leading coeff of P_rm) *
    Theta."""
    delta = delta_of_system(system)
    theta = theta_det(system)
    lead = leading_coeff_P_rm(system)
    return {
        "delta": delta,
        "theta": theta,
        "leading_coeff_Prm": lead,
        "equal": delta == lead * theta,
    }


def theta_chain_holds(spec: HypergeometricSpec, alphas, n: int, theta: Fraction,
                      a0s: list, C: Fraction) -> bool:
    """The Theta-chain identity
    Theta * ((n-1)!)^{r^2 m} = prod(alpha)^r * prod(a0s)^m * C_{n,m}, exact."""
    r, m = spec.r, len(alphas)
    lhs = theta * Fraction(math.factorial(n - 1)) ** (r * r * m)
    rhs = (math.prod(alphas, start=Fraction(1)) ** r
           * math.prod(a0s, start=Fraction(1)) ** m * C)
    return lhs == rhs


# ---------------------------------------------------------------------------
# the constants a_{0,s}


def a0s_values(spec: HypergeometricSpec, n: int) -> dict:
    """a_{0,s} = prod_{i=1}^r prod_{k=1}^n (eta_i - k - zeta_{s+1})
    = prod_i (eta_i - n - zeta_{s+1})_n; zero values are reported (they
    witness a hypothesis violation), not raised."""
    values = [math.prod((_pochhammer(e - n - z, n) for e in spec.eta), start=Fraction(1))
              for z in spec.zeta]
    zero_at = [s for s, v in enumerate(values) if v == 0]
    return {"values": values, "all_nonzero": not zero_at, "zero_at": zero_at}


# ---------------------------------------------------------------------------
# the multivariate functional value C_{u,m}


def C_um(spec: HypergeometricSpec, alphas, n: int, u: int, route: str = "det") -> Fraction:
    """The functional value C_{u,m}: one evaluation functional per variable
    applied to prod_v t_v^u prod_j (t_v - alpha_j)^{rn} * Vandermonde(t).

    It is the moment determinant det( psi~_v(t^{u+p} prod_j (t -
    alpha_j)^{rn}) ), p, v < rm, which Andreief's identity (Cauchy-Binet)
    gives for a product of functionals against a Vandermonde, in polynomial
    time.  Each of its columns is one `_dot_rows` run of the base
    polynomial's integer row against variable v's (`_zeta_row`), the kernel
    that computes every psi(t^k P).  `route` has the one value 'det'; any
    other raises InvalidInput.
    """
    if route != "det":
        raise InvalidInput(f"unknown route {route!r}")
    alphas = [Fraction(a) for a in alphas]
    if u < 0:
        raise InvalidInput("need u >= 0")
    r, m = spec.r, len(alphas)
    N = r * m
    dU, Ui = base_polynomial(alphas, r * n, u)
    count = len(Ui) - 1 + N  # the weights the columns meet
    # row v holds column v over dU * dw; det does not see the transpose
    weights = [_zeta_row(spec, al, s, count) for al in alphas for s in range(r)]
    return _det([(dU * dw, _dot_rows(Ui, wi, N)) for dw, wi in weights])


# ---------------------------------------------------------------------------
# factorization of C_{u,m}: the stated exponent


def alpha_exponent(r: int, n: int, u: int) -> int:
    """The alpha-exponent e(u) = r u + r^2 n + r(r-1)/2 of the factorization
    C_{u,k}(alpha) = c_{u,k} prod(alpha)^{e(u)} V(alpha)^{(2n+1) r^2}."""
    return r * u + r * r * n + r * (r - 1) // 2


def vandermonde(alphas) -> Fraction:
    out = Fraction(1)
    for a1, a2 in combinations(alphas, 2):
        out *= a2 - a1
    return out


# ---------------------------------------------------------------------------
# reduction to fewer points, and the final determinant


def _link_sign(r: int, n: int, m: int) -> int:
    return -1 if (r * r * n * (m - 1)) % 2 else 1


def _zeta_groups(spec: HypergeometricSpec):
    """Distinct zeta values in order of first occurrence, with multiplicities."""
    zhat, mult = [], []
    for z in spec.zeta:
        if z in zhat:
            mult[zhat.index(z)] += 1
        else:
            zhat.append(z)
            mult.append(1)
    return zhat, mult


def _moment_scalar(r: int, N: int) -> int:
    # (N!)^r prod_{0<=i<j<r} (N + j - i), shared by `final_det` and L(u)
    return math.factorial(N) ** r * math.prod(
        N + j - i for i, j in combinations(range(r), 2))


def final_det(spec: HypergeometricSpec, n: int, u: int) -> Fraction:
    """The r x r determinant of phi_{zeta,k}(t^d) = 1/(d + zeta)^k on
    t^{u+ell}(t-1)^{rn}, rows (j, k) by distinct zeta value zhat_j in order
    of first occurrence, then 1 <= k <= its multiplicity mu_j.  With N = rn
    and x_j = u + zhat_j it is the product (proof in the README)

        (-1)^{rN + sum_j mu_j(mu_j-1)/2} (N!)^r prod_{i<j}(N + j - i)
          prod_{a<b} (zhat_b - zhat_a)^{mu_a mu_b} / prod_j ((x_j)_{N+r})^{mu_j},

    never 0 under (AB).  L(u) = final_det_basis(spec) * final_det."""
    r, N = spec.r, spec.r * n
    zhat, mult = _zeta_groups(spec)
    value = Fraction((-1) ** (r * N + sum(mu * (mu - 1) // 2 for mu in mult))
                     * _moment_scalar(r, N))
    for (za, ma), (zb, mb) in combinations(zip(zhat, mult), 2):
        value *= (zb - za) ** (ma * mb)
    for z, mu in zip(zhat, mult):
        value /= _pochhammer(u + z, N + r) ** mu
    return value


def link_value(spec: HypergeometricSpec, n: int, u: int) -> Fraction:
    """L(u) = C_{u,1}(1), the factor of each link, as the product (proof in
    the README), with N = rn:

        (-1)^{rN + r(r-1)/2} (N!)^r prod_{i<j}(N + j - i) / prod_t (u + zeta_t)_{N+r}."""
    r, N = spec.r, spec.r * n
    return ((-1) ** (r * N + r * (r - 1) // 2) * _moment_scalar(r, N)
            / math.prod((_pochhammer(u + z, N + r) for z in spec.zeta), start=Fraction(1)))


def final_det_basis(spec: HypergeometricSpec) -> Fraction:
    """The exact change-of-basis scalar E with L(u) = E * final_det for every
    n and u, by the cover-up rule (proof in the README):

        E = prod_{t<s, zeta_t != zeta_s} eps_ts / (zeta_t - zeta_s),

    eps_ts = -1 when the value zeta_t first occurs after zeta_s, else +1.
    """
    first = spec.zeta.index
    E = Fraction(1)
    for zt, zs in combinations(spec.zeta, 2):
        if zt != zs:
            E *= (-1 if first(zt) > first(zs) else 1) / (zt - zs)
    return E


# ---------------------------------------------------------------------------
# the full certification chain


@dataclass
class WronskianReport:
    """Every value of the chain, exact; `cli._canonical` writes it."""

    delta: Fraction
    theta: Fraction
    a0s: list
    leading_coeff_Prm: Fraction
    c_um_chain: list
    final_det: Fraction
    exponent_e: int
    verdict: str
    hypothesis_flags: dict
    checks: dict
    zero_links: list = field(default_factory=list)


def certify_nonvanishing(spec: HypergeometricSpec, alphas, n: int) -> WronskianReport:
    """Run the whole chain and report every intermediate value exactly.

    Verdict is 'certified nonzero' iff Delta != 0 exactly.  When the
    hypothesis flags pass, any exact zero (or any broken link identity) is a
    theory violation and raises; when they fail, the report instead records
    where the zero enters.

    Levels k = m..1 sit at u_m = n, u_{k-1} = u_k + r(n+1); their constants
    follow from c_{u,0} = 1 by the link c_{u,k} = (-1)^{r^2 n (k-1)}
    c_{u + r(n+1), k-1} L(u) (`_link_sign`), L(u) = `link_value`, and
    each level is checked once, by one C_um: C_{u_k,k}(alpha_1..alpha_k) =
    c_{u_k,k} prod(alpha)^{e(u_k)} V^{(2n+1)r^2}, e from `alpha_exponent`.
    """
    alphas = [Fraction(a) for a in alphas]
    r, m = spec.r, len(alphas)
    flags = spec.hypothesis_flags()
    flags_pass = spec.flags_pass()
    zero_links = []
    checks = {}

    route = delta_route_check(
        build_system(spec, alphas, n, truncation=n + 2, cross_check=False))
    delta, theta = route["delta"], route["theta"]
    checks["delta_equals_lead_times_theta"] = route["equal"]
    if delta == 0:
        zero_links.append("delta")
    if theta == 0:
        zero_links.append("theta")

    a0s = a0s_values(spec, n)
    if not a0s["all_nonzero"]:
        zero_links.append("a0s")

    C = C_um(spec, alphas, n, n)
    if C == 0:
        zero_links.append("C_um")
    checks["theta_chain_identity"] = theta_chain_holds(
        spec, alphas, n, theta, a0s["values"], C)

    chain, fdet_value = [], Fraction(0)
    if a0s["all_nonzero"] and C != 0:
        us = [n + (m - k) * r * (n + 1) for k in range(m + 1)]  # us[k] = u_k
        L = {k: link_value(spec, n, us[k]) for k in range(m, 0, -1)}
        fdets = {k: final_det(spec, n, us[k]) for k in L}
        E = final_det_basis(spec)
        checks["final_det_basis_links"] = all(L[k] == E * fdets[k] for k in L)
        fdet_value = fdets[1]
        chain = [Fraction(1)]  # [c_{u_m,m}, ..., c_{u_1,1}, c_{u_0,0} = 1]
        for k in range(1, m + 1):
            chain.insert(0, _link_sign(r, n, k) * chain[0] * L[k])
        # level m's C is the Theta identity's; each lower level is one C_um
        checks["reduction_chain"] = all(
            (C if k == m else C_um(spec, alphas[:k], n, us[k])) == chain[m - k]
            * math.prod(alphas[:k]) ** alpha_exponent(r, n, us[k])
            * vandermonde(alphas[:k]) ** ((2 * n + 1) * r * r)
            for k in L)
    verdict = "certified nonzero" if delta != 0 else "zero determinant"

    report = WronskianReport(
        delta=delta,
        theta=theta,
        a0s=a0s["values"],
        leading_coeff_Prm=route["leading_coeff_Prm"],
        c_um_chain=chain,
        final_det=fdet_value,
        exponent_e=alpha_exponent(r, n, n) if chain else 0,
        verdict=verdict,
        hypothesis_flags=flags,
        checks=checks,
        zero_links=zero_links,
    )
    if flags_pass and (zero_links or not all(checks.values())):
        failed = [name for name, ok in checks.items() if not ok]
        raise TheoryViolation(
            "certification chain broke with hypothesis flags passing: "
            f"zero links {zero_links}, failed checks {failed}"
        )
    return report
