"""Construction of the simultaneous Pade-type system of weight (n,...,n).

For an order-r instance and m distinct nonzero evaluation points alpha_i, we
build the polynomials

    P_ell(z)       of degree  r*m*n + ell,        0 <= ell <= r*m,
    P_{ell,i,s}(z) of degree <= r*m*n + ell,

such that R_{ell,i,s}(z) = P_ell(z) F_s(alpha_i/z) - P_{ell,i,s}(z) has order
at least n+1 at infinity.  Every P_ell comes from one closed formula: the
coefficients of prod (t-alpha_i)^{rn} (multiplied out on integers, see
`base_polynomial`), shifted up by ell, times one hypergeometric multiplier
table M(k) shared by every ell (see `_P_family`);
P_{ell,i,s} is the psi_{i,s}-image of the divided difference
(P_ell(z)-P_ell(t))/(z-t).

The remainder admits two independent computations (the coefficient formula
psi_{i,s}(t^k P_ell) and the literal series product); both are kept and
compared.  The functional side -- P_{ell,i,s} and the coefficient formula --
reads the psi_{i,s} weight table of (alpha_i, s), shared by every ell and
kept on the spec, through the integer-scaled kernel `polyops.correlate`; the
product route multiplies the series of F_s out with its own integer loop
(`LaurentTail.mul_poly`) and shares no code with it; that series is expanded
once per (alpha_i, s), from the product formula of its coefficients, into a
table of its own on the spec (`polyops.expand_F_s`).  A generic exact
null-space solver provides a third, construction-free oracle for the same
approximation problem.  Past its window each remainder series goes on in
two append-only lists on the system, its terms and their sizes
(`PadeSystem.extension_terms` / `extension_sizes`), each grown only when a
caller reads past its end; the beta-free part of the remainder sums' ratio
bound is kept there too (`PadeSystem.tail_ratio`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .arith import format_rational, parse_rational
from .errors import InvalidInput, TheoryViolation
from .linalg import kernel_basis
from .numerics import _tail_ratio
from .polyops import (
    HypergeometricSpec,
    LaurentTail,
    Poly,
    correlate,
    expand_F_s,
    poly_deg,
    poly_trim,
    psi_weights,
    term_table,
)


def default_truncation(r: int, m: int, n: int) -> int:
    """Smallest 1/z-window that certifies the order bound and leaves slack
    for the determinant bookkeeping downstream."""
    return r * m * (n + 1) + n + 5


def base_polynomial(alphas, rn: int, ell: int) -> Poly:
    """t^ell * prod_i (t - alpha_i)^{rn}.

    With alpha_i = p_i/q_i this is prod_i q_i^{-rn} (q_i t - p_i)^{rn}: each
    power comes from the binomial theorem on integers, the product runs on
    integers, and the one division by prod_i q_i^{rn} comes last."""
    g, den = [1], 1
    for al in map(Fraction, alphas):
        p, q = al.numerator, al.denominator
        power = [math.comb(rn, k) * q**k * (-p) ** (rn - k) for k in range(rn + 1)]
        out = [0] * (len(g) + rn)
        for d, x in enumerate(g):
            for k, y in enumerate(power):
                out[d + k] += x * y
        g, den = out, den * q**rn
    return [Fraction(0)] * ell + [Fraction(c, den) for c in g]


def poly_pow_linear(c: Fraction, e: int) -> Poly:
    """(t + c)^e by binomials (c = -alpha gives (t - alpha)^e)."""
    out = [Fraction(0)] * (e + 1)
    binom = 1
    power = Fraction(1)
    for k in range(e, -1, -1):
        out[k] = binom * power
        binom = binom * k // (e - k + 1)
        power *= c
    return out


def _P_family(spec: HypergeometricSpec, alphas, n: int, top: int) -> list:
    """[P_0, ..., P_top] of weight n, exact; P_ell has degree r*m*n + ell.

    The paper's formula is
        P_ell = T_c^{-1} prod_{j=1}^{n-1} B(theta+j) [t^ell prod_i (t-alpha_i)^{rn}]
                / ((n-1)!)^r,
    with T_c^{-1} t^k = t^k / c_k (`suite.T_c`, "forward").  Every operator
    in it is diagonal on monomials, so with base_0 = prod_i (t-alpha_i)^{rn},
        P_ell[k] = base_0[k-ell] * M(k),
        M(k) = prod_{j=1}^{n-1} B(k+j) / (c_k ((n-1)!)^r).
    By c_{k+1}/c_k = A(k)/B(k+1) the multiplier is a hypergeometric term:
        M(0) = prod_{j=1}^{n-1} B(j) / (c_0 ((n-1)!)^r),
        M(k+1)/M(k) = B(k+n)/A(k),
    which (AB) keeps finite and nonzero.  One M table serves every ell.
    """
    alphas = [Fraction(a) for a in alphas]
    r = spec.r
    base = base_polynomial(alphas, r * n, 0)
    M0 = math.prod((spec.B_at(j) for j in range(1, n)), start=Fraction(1)) / (
        spec.c0 * math.factorial(n - 1) ** r
    )
    M = [M0] + term_table(M0, 0, len(base) - 1 + top, 1,
                          [z + n for z in spec.zeta], spec.eta)
    return [
        [Fraction(0)] * ell + [b * M[k + ell] for k, b in enumerate(base)]
        for ell in range(top + 1)
    ]


def divided_difference_image(P: Poly, weights) -> Poly:
    """Apply a functional (given by its monomial values `weights`, at least
    deg P of them) to the t-variable of (P(z) - P(t))/(z - t); returns a
    polynomial in z.

    The z^d coefficient is sum_k weights[k] * P[d+1+k], the Horner/synthetic
    form of the divided difference -- no polynomial remainder division.  All
    of them come from one `correlate` call of the weights against the
    coefficients of P above degree 0.
    """
    deg = len(P) - 1
    if deg < 1:
        return []
    return poly_trim(correlate(weights[:deg], P[1:], 0, deg))


def _functional_tail(P: Poly, weights, truncation: int) -> LaurentTail:
    """The remainder window whose 1/z^{k+1} coefficient is psi(t^k P), from
    the weight table of psi (it must reach truncation - 2 + deg P)."""
    return LaurentTail(1, correlate(P, weights, 0, truncation - 1), truncation)


def remainder(system: "PadeSystem", ell: int, i: int, s: int,
              truncation: int = None, route: str = "functional") -> LaurentTail:
    """Exact tail of R_{ell,i,s}(z) = P_ell(z) F_s(alpha_i/z) - P_{ell,i,s}(z).

    route='functional': coefficient of 1/z^{k+1} is psi_{i,s}(t^k P_ell(t)).
    route='product':    literal series product minus the polynomial part.
    """
    if truncation is None:
        truncation = system.truncation
    if truncation <= system.n + 1:
        raise InvalidInput("truncation must exceed n+1 to certify the order bound")
    spec, alphas = system.spec, system.alphas
    P = system.P[ell]
    if route == "functional":
        w = psi_weights(spec, alphas[i - 1], s, truncation - 2 + max(0, len(P) - 1))
        return _functional_tail(P, w, truncation)
    if route == "product":
        d = max(0, len(P) - 1)
        F = expand_F_s(spec, alphas[i - 1], s, truncation + d)
        return F.mul_poly(P).sub_poly(system.Pis[(ell, i, s)])
    raise InvalidInput(f"unknown route {route!r}")


def _check_alphas(alphas):
    if not alphas:
        raise InvalidInput("need at least one evaluation point")
    if any(a == 0 for a in alphas):
        raise InvalidInput("evaluation points must be nonzero")
    if len(set(alphas)) != len(alphas):
        raise InvalidInput("evaluation points must be pairwise distinct")


@dataclass
class PadeSystem:
    """One fully built instance: all P_ell, all P_{ell,i,s}, all remainders."""

    spec: HypergeometricSpec
    alphas: list
    n: int
    P: dict = field(default_factory=dict)           # ell -> Poly (in z)
    Pis: dict = field(default_factory=dict)         # (ell, i, s) -> Poly
    R: dict = field(default_factory=dict)           # (ell, i, s) -> LaurentTail
    truncation: int = 0
    # (ell, i, s) -> the (terms, sizes) lists of `extension_terms` and
    # `extension_sizes`, and s -> `tail_ratio(s)`; like `spec._psi_tables`,
    # a pure function of the system
    _extensions: dict = field(default_factory=dict, init=False, repr=False,
                              compare=False)

    @property
    def r(self) -> int:
        return self.spec.r

    @property
    def m(self) -> int:
        return len(self.alphas)

    def indices(self):
        for ell in range(self.r * self.m + 1):
            for i in range(1, self.m + 1):
                for s in range(self.r):
                    yield ell, i, s

    def tail_ratio(self, s: int) -> tuple:
        """(k0, c) of `numerics._tail_ratio` from the first index past the
        window, k = truncation - 1: the remainder sums of this system at any
        beta stop-test from k0 on, against the ratio bound |alpha/beta| c.
        Computed once per s."""
        got = self._extensions.get(s)
        if got is None:
            got = self._extensions[s] = _tail_ratio(self.spec, s, self.truncation - 1)
        return got

    def extension_terms(self, ell: int, i: int, s: int, j: int) -> list:
        """The terms of R_{ell,i,s} past its window, grown to hold entry j:
        terms[j] = psi_{i,s}(t^k P_ell), the 1/z^{k+1} coefficient, at
        k = truncation - 1 + j.  The list only grows, so a caller's
        reference stays valid."""
        return self._extend(ell, i, s, j, 0)

    def extension_sizes(self, ell: int, i: int, s: int, j: int) -> list:
        """The sizes of R_{ell,i,s} past its window, grown to hold entry j:
        sizes[j] = sum_d |P_d| |w_{k+d}| over the psi weights w, at
        k = truncation - 1 + j.  Grown apart from the terms, so a sum that
        reads only sizes (or only terms) computes nothing else."""
        return self._extend(ell, i, s, j, 1)

    def _extend(self, ell: int, i: int, s: int, j: int, half: int) -> list:
        # one list of the (terms, sizes) pair of (ell, i, s); a read past its
        # end grows it to max(j + 1, twice its length)
        out = self._extensions.setdefault((ell, i, s), ([], []))[half]
        if j >= len(out):
            P = self.P[ell]
            kfirst = self.R[(ell, i, s)].truncation - 1
            start = kfirst + len(out)
            stop = kfirst + max(j + 1, 2 * len(out))
            w = psi_weights(self.spec, self.alphas[i - 1], s, stop - 2 + len(P))
            if half:
                out.extend(correlate([abs(c) for c in P],
                                     [abs(x) for x in w[start:]], 0, stop - start))
            else:
                out.extend(correlate(P, w, start, stop))
        return out

    def to_jsonable(self) -> dict:
        return {
            "spec": self.spec.to_jsonable(),
            "alphas": [format_rational(a) for a in self.alphas],
            "n": self.n,
            "truncation": self.truncation,
            "P": {str(ell): [format_rational(c) for c in p] for ell, p in self.P.items()},
            "Pis": {
                f"{ell},{i},{s}": [format_rational(c) for c in p]
                for (ell, i, s), p in self.Pis.items()
            },
            "R": {f"{ell},{i},{s}": t.to_jsonable() for (ell, i, s), t in self.R.items()},
        }

    @classmethod
    def from_jsonable(cls, data: dict) -> "PadeSystem":
        spec = HypergeometricSpec.from_jsonable(data["spec"])
        sys = cls(
            spec=spec,
            alphas=[parse_rational(a) for a in data["alphas"]],
            n=data["n"],
            truncation=data["truncation"],
        )
        sys.P = {int(k): [parse_rational(c) for c in p] for k, p in data["P"].items()}
        for key, p in data["Pis"].items():
            ell, i, s = map(int, key.split(","))
            sys.Pis[(ell, i, s)] = [parse_rational(c) for c in p]
        for key, t in data["R"].items():
            ell, i, s = map(int, key.split(","))
            sys.R[(ell, i, s)] = LaurentTail.from_jsonable(t)
        return sys


def build_system(spec: HypergeometricSpec, alphas, n: int,
                 truncation: int = None, cross_check: bool = True) -> PadeSystem:
    """Build every P_ell, P_{ell,i,s} and remainder tail for the instance.

    All P_ell come from one multiplier table (`_P_family`); P_{ell,i,s} and
    the remainder read the psi_{i,s} weight table of (alpha_i, s), shared
    with every later caller through the spec.  When cross_check is set (the
    default), every remainder is re-computed from the literal series
    product over its whole window; any disagreement is a theory violation,
    not a warning.  The series F_s(alpha_i/z) of that product is expanded
    once per (alpha_i, s) and read by every ell (`expand_F_s`).
    """
    alphas = [Fraction(a) for a in alphas]
    _check_alphas(alphas)
    r, m = spec.r, len(alphas)
    if truncation is None:
        truncation = default_truncation(r, m, n)
    if n < 1:
        raise InvalidInput("need n >= 1")
    system = PadeSystem(spec=spec, alphas=alphas, n=n, truncation=truncation)
    system.P = dict(enumerate(_P_family(spec, alphas, n, r * m)))
    upto = truncation - 2 + len(system.P[r * m]) - 1
    weights = {
        (i, s): psi_weights(spec, alphas[i - 1], s, upto)
        for i in range(1, m + 1)
        for s in range(r)
    }
    for ell, i, s in system.indices():
        P, w = system.P[ell], weights[(i, s)]
        system.Pis[(ell, i, s)] = divided_difference_image(P, w)
        tail = _functional_tail(P, w, truncation)
        if cross_check:
            other = remainder(system, ell, i, s, truncation, route="product")
            lo, hi = min(tail.order, other.order), min(tail.truncation, other.truncation)
            if any(tail.coeff(e) != other.coeff(e) for e in range(lo, hi)) or (
                tail.is_zero_window() != other.is_zero_window()
            ):
                raise TheoryViolation(
                    f"remainder routes disagree at (ell,i,s)=({ell},{i},{s})"
                )
        system.R[(ell, i, s)] = tail
    return system


def verify_system(system: PadeSystem) -> dict:
    """Re-check every invariant; returns a report naming each failure."""
    failures = []
    r, m, n = system.r, system.m, system.n
    for ell in range(r * m + 1):
        want = r * m * n + ell
        got = poly_deg(system.P[ell])
        if got != want:
            failures.append(
                {"check": "deg_P", "index": [ell], "expected": want, "got": str(got)}
            )
    for ell, i, s in system.indices():
        bound = r * m * n + ell
        got = poly_deg(system.Pis[(ell, i, s)])  # -inf for the zero polynomial
        if got > bound:
            failures.append(
                {"check": "deg_Pis", "index": [ell, i, s], "bound": bound, "got": str(got)}
            )
        tail = system.R[(ell, i, s)]
        if not tail.ord_at_least(n + 1):
            failures.append(
                {"check": "ord_R", "index": [ell, i, s], "bound": n + 1,
                 "got": tail.ord_infinity()}
            )
    # P_{ell,i,s} and the remainder coefficients, re-derived from scratch
    for ell, i, s in system.indices():
        P = system.P[ell]
        w = psi_weights(system.spec, system.alphas[i - 1], s, len(P) - 2)
        if poly_trim(list(system.Pis[(ell, i, s)])) != divided_difference_image(P, w):
            failures.append({"check": "Pis_coeffs", "index": [ell, i, s]})
        tail = system.R[(ell, i, s)]
        fresh = remainder(system, ell, i, s, tail.truncation, route="functional")
        window = range(min(tail.order, fresh.order), min(tail.truncation, fresh.truncation))
        if any(tail.coeff(e) != fresh.coeff(e) for e in window):
            failures.append({"check": "remainder_coeffs", "index": [ell, i, s]})
    flags = system.spec.hypothesis_flags()
    return {
        "ok": not failures,
        "failures": failures,
        "hypothesis_flags": {k: ok for k, (ok, _) in flags.items()},
        "n": n,
        "r": r,
        "m": m,
    }


def solve_pade_nullspace(f, n_vec, M: int):
    """Construction-free oracle: all (P0, P_1..P_N) with deg P0 <= M and
    ord(P0 f_j - P_j) >= n_j + 1, by exact kernel computation.

    f is a list of LaurentTail; the return value is a list of families, one
    per kernel basis vector, each family being [P0, P_1, ..., P_N].
    """
    n_vec = list(n_vec)
    if len(f) != len(n_vec):
        raise InvalidInput("need one order target per tail")
    if M < 0:
        raise InvalidInput("need M >= 0")
    need = max(n_vec, default=0) + M
    for tail in f:
        if tail.truncation <= need:
            raise InvalidInput(
                f"tails must carry exact coefficients up to 1/z^{need}"
            )
    rows = []
    for j, tail in enumerate(f):
        for e in range(1, n_vec[j] + 1):
            rows.append([tail.coeff(e + d) for d in range(M + 1)])
    basis = kernel_basis(rows, M + 1)
    families = []
    for vec in basis:
        P0 = poly_trim(list(vec))
        family = [P0]
        for tail in f:
            # polynomial part of P0 * f_j (exponents <= 0 of 1/z)
            coeffs = []
            for d in range(M + 1):
                acc = Fraction(0)
                for k in range(d, M + 1):
                    if k < len(P0) and P0[k]:
                        acc += P0[k] * tail.coeff(k - d)
                coeffs.append(acc)
            family.append(poly_trim(coeffs))
        families.append(family)
    return families


def membership_in_nullspace(system: PadeSystem, ell: int) -> bool:
    """Check the constructed column ell solves its own approximation problem:
    ord(P_ell(z) F_s(alpha_i/z) - P_{ell,i,s}(z)) >= n+1 for every (i, s),
    with the polynomial part matched exactly (that is what R's tail already
    witnesses, re-verified here from the product route alone)."""
    for i in range(1, system.m + 1):
        for s in range(system.r):
            tail = remainder(system, ell, i, s, system.truncation, route="product")
            if not tail.ord_at_least(system.n + 1):
                return False
    return True
