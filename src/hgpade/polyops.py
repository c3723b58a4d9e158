"""The exact kernel: polynomials over Q, hypergeometric term tables, the
evaluation functionals psi_{i,s} / phi_{zeta,s}, truncated Laurent tails in
1/z with exact order bookkeeping, and the instance data (parameter vectors,
derived roots, seed coefficient, hypothesis flags).

Polynomials are plain coefficient lists (Fraction, low degree first, trailing
zeros stripped); the zero polynomial is [] with degree -inf.

Every exact weight table here -- c_k, the psi_{i,s} weights, the
zeta-prefix weights, and the coefficient multipliers of P_ell in `pade` -- is
a hypergeometric term t_{k+1}/t_k = x prod(k+u)/prod(k+d), stepped by one
routine, `term_table`; the first three are kept append-only on the spec,
per (alpha, s) where they depend on it, and grown on demand by one helper,
`_grown`.  Every value psi_{i,s}(t^k p) is a correlation of p against the
one weight table of (alpha_i, s), computed on integers scaled to common
denominators by one kernel, `_dot_rows`, whose integer outputs share one
denominator; a caller that reads rationals makes them (`_unscaled`), and a
caller that reads such a row's polynomial at a rational point takes one
integer Horner (`_row_value`).
`pade.PadeSystem` feeds it its own integer forms, and `correlate` scales per
call, for `psi` and the columns of the C_{u,m} moment matrix in
`wronskian`.  The literal product that `pade.contract_failures` checks
those values against (`pade.remainder`) runs a loop of its own on the
integer rows, on a series table of its own (`expand_F_s`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul

from .arith import format_rational, parse_rational
from .errors import (
    HypothesisViolation,
    InsufficientPrecision,
    InvalidInput,
)

Poly = list  # list[Fraction], low degree first

NEG_INF = float("-inf")

# ---------------------------------------------------------------------------
# polynomial helpers


def poly_trim(p: Poly) -> Poly:
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_deg(p: Poly):
    """Degree; the zero polynomial gets the distinguished value -inf."""
    return len(p) - 1 if p else NEG_INF


def poly_mul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return poly_trim(out)


def poly_eval(p: Poly, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_shift_up(p: Poly, k: int) -> Poly:
    """Multiply by t^k."""
    return [Fraction(0)] * k + list(p) if p else []


def poly_from_roots(roots) -> Poly:
    """prod over the roots of (X + root): roots enter with a plus sign."""
    out = [Fraction(1)]
    for rt in roots:
        out = poly_mul(out, [Fraction(rt), Fraction(1)])
    return out


# ---------------------------------------------------------------------------
# Laurent tails in 1/z


@dataclass
class LaurentTail:
    """A truncated series sum_e coeff_e / z^e: identically zero below `order`,
    stored exactly on order <= e < truncation, unknown from the truncation on.

    Normalized so the first stored coefficient is nonzero (leading zeros are
    absorbed into `order`); for a window that is zero throughout, order ==
    truncation and the coefficient list is empty.  ord_infinity below the
    truncation is therefore exact; when the window cannot decide it, we raise
    InsufficientPrecision rather than guess.
    """

    order: int
    coefficients: list  # Fraction, exponents order, order+1, ...
    truncation: int

    def __post_init__(self):
        if len(self.coefficients) != self.truncation - self.order:
            raise InvalidInput("LaurentTail window does not match coefficients")
        while self.coefficients and self.coefficients[0] == 0:
            self.coefficients.pop(0)
            self.order += 1

    def coeff(self, e: int) -> Fraction:
        if e < self.order:
            return Fraction(0)
        if e >= self.truncation:
            raise InsufficientPrecision(
                f"coefficient of 1/z^{e} is at or beyond the truncation {self.truncation}"
            )
        return self.coefficients[e - self.order]

    def ord_infinity(self) -> int:
        """Least exponent of 1/z with nonzero coefficient (exact)."""
        if self.coefficients:
            return self.order
        raise InsufficientPrecision(
            f"tail vanishes up to its truncation {self.truncation}; "
            "the order is not determined by this window"
        )

    def ord_at_least(self, k: int) -> bool:
        """Exact test ord_infinity >= k; needs the window to reach k."""
        if not self.coefficients:
            if k > self.truncation:
                raise InsufficientPrecision("ord query beyond the truncation")
            return True
        return self.order >= k

    def to_jsonable(self) -> dict:
        return {
            "order": self.order,
            "truncation": self.truncation,
            "coefficients": [format_rational(c) for c in self.coefficients],
        }

    @classmethod
    def from_jsonable(cls, data: dict) -> "LaurentTail":
        return cls(
            data["order"],
            [parse_rational(c) for c in data["coefficients"]],
            data["truncation"],
        )


# ---------------------------------------------------------------------------
# the instance data


@dataclass
class HypergeometricSpec:
    """Parameters of one instance: vectors a (length r) and b (length r-1),
    derived roots eta_i = a_i + 1 and zeta = (b_1, ..., b_{r-1}, 1), the
    gamma-ordering gamma_w = zeta_{r+1-w}, and the seed coefficient c0.

    The coefficient sequence follows c_{k+1} = c_k A(k)/B(k+1) with
    A(X) = prod (X + eta_i), B(X) = prod (X + zeta_j).  The default seed is
    c0 = prod a_i / prod b_j, which makes c_k the Pochhammer-ratio sequence
    of the contiguous hypergeometric family.  `from_roots` admits general
    (eta, zeta) with zeta_r not necessarily 1 (used by the Lerch cross-check).
    """

    a: tuple
    b: tuple
    c0: Fraction
    eta: tuple = ()
    zeta: tuple = ()
    _c_cache: list = field(default_factory=list, repr=False, compare=False)
    # (alpha, s) -> psi_{i,s} weights from k = 0, append-only (`_psi_table`)
    _psi_tables: dict = field(default_factory=dict, repr=False, compare=False)
    # (alpha, s) -> zeta-prefix weights from k = 0, append-only
    _zeta_tables: dict = field(default_factory=dict, repr=False, compare=False)
    # (alpha, s) -> coefficients of F_s(alpha/z) from 1/z, append-only (`expand_F_s`)
    _series_tables: dict = field(default_factory=dict, repr=False, compare=False)

    # -- constructors

    @classmethod
    def from_ab(cls, a, b, c0=None) -> "HypergeometricSpec":
        a = tuple(Fraction(x) for x in a)
        b = tuple(Fraction(x) for x in b)
        if len(b) != len(a) - 1:
            raise InvalidInput(f"need len(b) = len(a)-1, got {len(a)} and {len(b)}")
        eta = tuple(x + 1 for x in a)
        zeta = b + (Fraction(1),)
        if c0 is None:
            num = math.prod(a, start=Fraction(1))
            den = math.prod(b, start=Fraction(1))
            if num == 0 or den == 0:
                raise InvalidInput("default c0 = prod(a)/prod(b) undefined here; pass c0")
            c0 = num / den
        c0 = Fraction(c0)
        if c0 == 0:
            raise InvalidInput("c0 must be nonzero")
        spec = cls(a=a, b=b, c0=c0, eta=eta, zeta=zeta)
        spec._check_AB()
        return spec

    @classmethod
    def from_roots(cls, eta, zeta, c0) -> "HypergeometricSpec":
        eta = tuple(Fraction(x) for x in eta)
        zeta = tuple(Fraction(x) for x in zeta)
        if len(eta) != len(zeta):
            raise InvalidInput("need len(eta) == len(zeta)")
        a = tuple(x - 1 for x in eta)
        b = zeta[:-1]
        c0 = Fraction(c0)
        if c0 == 0:
            raise InvalidInput("c0 must be nonzero")
        spec = cls(a=a, b=b, c0=c0, eta=eta, zeta=zeta)
        spec._check_AB()
        return spec

    def _check_AB(self):
        # assumption (AB): A(k) B(k) != 0 for every k >= 0, i.e. no root
        # eta_i or zeta_j is a non-positive integer.
        for name, vals in (("eta", self.eta), ("zeta", self.zeta)):
            for x in vals:
                if x.denominator == 1 and x <= 0:
                    raise HypothesisViolation(
                        f"assumption (AB) fails: {name} contains the non-positive integer {x}"
                    )

    # -- basic derived data

    @property
    def r(self) -> int:
        return len(self.eta)

    @property
    def gamma(self) -> tuple:
        """gamma_w = zeta_{r+1-w} for w = 1..r-1 (zeta reversed, last dropped)."""
        return tuple(reversed(self.zeta))[:-1]

    def gamma_ext(self, w: int) -> Fraction:
        """gamma extended r-periodically to every index w >= 0."""
        return self.zeta[(self.r - w) % self.r]

    def A_poly(self) -> Poly:
        return poly_from_roots(self.eta)

    def B_poly(self) -> Poly:
        return poly_from_roots(self.zeta)

    def B_at(self, x: Fraction) -> Fraction:
        return math.prod((Fraction(x) + z for z in self.zeta), start=Fraction(1))

    def c(self, k: int) -> Fraction:
        """c_k by the recurrence, memoized."""
        return _grown(self._c_cache, k, lambda: (
            self.c0, 1, self.eta, [z + 1 for z in self.zeta]))[k]

    # -- hypothesis flags (gate certification, not construction)

    def hypothesis_flags(self) -> dict:
        """Named instance hypotheses; each maps to (ok, detail)."""
        flags = {}
        bad = [x for x in self.eta + self.zeta if x.denominator == 1 and x <= 0]
        flags["assumption_AB"] = (not bad, "A(k)B(k) != 0 for k >= 0")
        viol = [x for x in self.a if x.denominator == 1 and x > 0]
        flags["a_not_positive_integer"] = (
            not viol,
            "violated by a = " + ", ".join(map(format_rational, viol)) if viol else "a_k not in Z_{>0}",
        )
        pairs = [
            (ak, bj)
            for ak in self.a
            for bj in self.b
            if (ak + 1 - bj).denominator == 1 and ak + 1 - bj > 0
        ]
        flags["a_plus_one_minus_b_not_positive_integer"] = (
            not pairs,
            f"violated by pairs {pairs}" if pairs else "a_k+1-b_j not in Z_{>0}",
        )
        diffs = [
            (e, z)
            for e in self.eta
            for z in self.zeta
            if (e - z).denominator == 1 and e - z >= 0
        ]
        flags["eta_minus_zeta_not_natural"] = (
            not diffs,
            f"violated by pairs {diffs}" if diffs else "eta_i - zeta_j not in N",
        )
        return flags

    def flags_pass(self) -> bool:
        return all(ok for ok, _ in self.hypothesis_flags().values())

    def violated_hypotheses(self) -> list:
        return [name for name, (ok, _) in self.hypothesis_flags().items() if not ok]

    def to_jsonable(self) -> dict:
        return {
            "a": [format_rational(x) for x in self.a],
            "b": [format_rational(x) for x in self.b],
            "c0": format_rational(self.c0),
            "eta": [format_rational(x) for x in self.eta],
            "zeta": [format_rational(x) for x in self.zeta],
        }

    @classmethod
    def from_jsonable(cls, data: dict) -> "HypergeometricSpec":
        return cls.from_roots(
            [parse_rational(x) for x in data["eta"]],
            [parse_rational(x) for x in data["zeta"]],
            parse_rational(data["c0"]),
        )


# ---------------------------------------------------------------------------
# evaluation functionals


def term_table(t: Fraction, k: int, count: int, x, upper, lower) -> list:
    """[t_{k+1}, ..., t_{k+count}] of the hypergeometric term with t_k = t and
    t_{j+1}/t_j = x * prod_u (j + u) / prod_d (j + d), exact.

    Each factor j + p/q enters as the small integer q*j + p, its q folded
    into one constant, so a step is one product of t with a small reduced
    ratio (Fraction multiplication cancels across, big-by-small gcds only).
    """
    x = Fraction(x)
    upper = [Fraction(u) for u in upper]
    lower = [Fraction(d) for d in lower]
    num0 = x.numerator * math.prod(d.denominator for d in lower)
    den0 = x.denominator * math.prod(u.denominator for u in upper)
    out = []
    for j in range(k, k + count):
        t *= Fraction(
            num0 * math.prod(u.denominator * j + u.numerator for u in upper),
            den0 * math.prod(d.denominator * j + d.numerator for d in lower),
        )
        out.append(t)
    return out


def _grown(table: list, upto: int, term) -> list:
    """`table`, an append-only table of a term on the spec, grown to hold
    entry upto; term() gives its (t_0, x, upper, lower), see `term_table`."""
    if len(table) <= upto:
        t0, x, upper, lower = term()
        if not table:
            table.append(t0)
        table.extend(term_table(table[-1], len(table) - 1, upto + 1 - len(table),
                                x, upper, lower))
    return table


def _psi_table(spec: HypergeometricSpec, i_alpha: Fraction, s: int, upto: int) -> list:
    """The values psi_{i,s}(t^k) = (k+gamma_1)...(k+gamma_s) c_k alpha^{k+1}
    for k <= upto at least: the spec's own append-only weight table of
    (alpha, s), one hypergeometric term in k, grown to hold entry upto and
    not copied.  A caller slices the entries it reads, to the exact length
    wherever the slice meets a correlation (entries past the end of a run
    count as zero there)."""
    alpha = Fraction(i_alpha)
    gam = spec.gamma[:s]
    return _grown(spec._psi_tables.setdefault((alpha, s), []), upto, lambda: (
        math.prod(gam, start=Fraction(1)) * spec.c0 * alpha, alpha,
        spec.eta + tuple(g + 1 for g in gam),
        tuple(z + 1 for z in spec.zeta) + gam,
    ))


def _scaled(values: list) -> tuple:
    """(den, ints): the rationals `values` as the integers ints over their
    lcm denominator den."""
    den = math.lcm(*(x.denominator for x in values))
    return den, [x.numerator * (den // x.denominator) for x in values]


def _unscaled(den: int, ints: list) -> list:
    """The rationals ints / den, one reduced Fraction each: the inverse of
    `_scaled`."""
    return [Fraction(a, den) for a in ints]


def _row_value(den: int, ints: list, x: Fraction) -> Fraction:
    """The polynomial sum_d ints[d] / den * x^d at x = p/q, as one Fraction:
    the integer Horner sum_d ints[d] p^d q^{D-d} over den q^D, D = deg."""
    if not ints:
        return Fraction(0)
    p, q = x.numerator, x.denominator
    acc, qd = 0, 1
    for a in reversed(ints):
        acc = acc * p + a * qd
        qd *= q
    return Fraction(acc, den * (qd // q))  # qd = q^(D+1)


def _dot_rows(pi: list, wi: list, count: int) -> list:
    """[sum_d pi[d] * wi[j + d] for 0 <= j < count], integer dot products;
    entries past the end of wi count as zero."""
    return [sum(map(mul, pi, wi[j:j + len(pi)])) for j in range(count)]


def correlate(p: list, w: list, k0: int, k1: int) -> list:
    """[sum_d p[d] * w[k + d] for k0 <= k < k1], exact; entries past the end
    of w count as zero.

    With w the weight table of psi_{i,s}, entry k is psi_{i,s}(t^k p).  p and
    the window of w it meets are scaled to integers over their lcm
    denominators (`_scaled`), so each output is one integer dot product and
    one Fraction, equal to the Fraction sum it replaces.
    """
    dp, pi = _scaled(p)
    dw, wi = _scaled(w[k0:k1 - 1 + len(p)])
    return _unscaled(dp * dw, _dot_rows(pi, wi, k1 - k0))


def psi(spec: HypergeometricSpec, alphas, i: int, s: int, p: Poly) -> Fraction:
    """The functional psi_{i,s} applied to p (1 <= i <= m, 0 <= s <= r-1)."""
    if not (1 <= i <= len(alphas)):
        raise InvalidInput(f"i out of range: {i}")
    if not (0 <= s <= spec.r - 1):
        raise InvalidInput(f"s out of range: {s}")
    if not p:
        return Fraction(0)
    # correlate reads exactly the len(p) weights below its one output
    w = _psi_table(spec, Fraction(alphas[i - 1]), s, len(p) - 1)
    return correlate(p, w, 0, 1)[0]


def phi_zeta_s(zeta: Fraction, s: int, p: Poly) -> Fraction:
    """phi_{zeta,s}: t^k -> 1/(k+zeta)^s, extended linearly."""
    zeta = Fraction(zeta)
    total = Fraction(0)
    for k, c in enumerate(p):
        if c == 0:
            continue
        if zeta + k == 0:
            raise InvalidInput(f"pole: k + zeta = 0 at k = {k}")
        total += c / (k + zeta) ** s
    return total


def zeta_prefix_weights(spec: HypergeometricSpec, alpha: Fraction, s: int, upto: int) -> list:
    """Values alpha^k / ((k+zeta_1)...(k+zeta_{s+1})) on t^k, k = 0..upto.

    This is the normalized evaluation functional obtained from psi_{i,s} by
    stripping T_c and one alpha factor; the non-vanishing chain is built on it.
    Kept in one table per (alpha, s) on the spec, like the psi weights
    (`_psi_table`); the caller gets a fresh list of upto + 1 entries.
    """
    alpha = Fraction(alpha)
    zs = spec.zeta[: s + 1]
    table = _grown(spec._zeta_tables.setdefault((alpha, s), []), upto, lambda: (
        1 / math.prod(zs, start=Fraction(1)), alpha, zs, [z + 1 for z in zs]))
    return table[:upto + 1]


# ---------------------------------------------------------------------------
# series of the contiguous family


def f_s_coefficient(spec: HypergeometricSpec, s: int, k: int) -> Fraction:
    """Coefficient of z^{k+1} in F_s(z) = sum (k+gamma_1)...(k+gamma_s) c_k z^{k+1}."""
    w = Fraction(1)
    for g in spec.gamma[:s]:
        w *= k + g
    return w * spec.c(k)


def expand_F_s(spec: HypergeometricSpec, alpha: Fraction, s: int, truncation: int) -> LaurentTail:
    """Tail of F_s(alpha/z) in powers of 1/z, exact up to `truncation`.

    The coefficient of 1/z^{k+1} is f_s_coefficient(s, k) * alpha^{k+1}, kept
    in one append-only table per (alpha, s) on the spec and grown on demand,
    so every caller (each ell of a system's contract check) reads one
    expansion.  The table is filled by that product formula alone, never
    from the psi weights (`_psi_table` steps g_s(k) c_k alpha^{k+1} as one
    term): the literal product it feeds is the independent oracle of the
    remainder windows built from them.
    """
    alpha = Fraction(alpha)
    if not (0 <= s <= spec.r - 1):
        raise InvalidInput(f"s out of range: {s}")
    table = spec._series_tables.setdefault((alpha, s), [])
    if len(table) < truncation - 1:
        apow = alpha ** (len(table) + 1)
        for k in range(len(table), truncation - 1):
            table.append(f_s_coefficient(spec, s, k) * apow)
            apow *= alpha
    return LaurentTail(1, table[:max(0, truncation - 1)], truncation)
