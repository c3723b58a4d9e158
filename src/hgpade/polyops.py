"""The exact kernel: the degree of a polynomial over Q, hypergeometric term
tables, the weights of the evaluation functional psi_{i,s}, the series of
F_s in 1/z, the ratio bound of a hypergeometric tail on the parameter lists
of its terms (`_tail_ratio`, which every certified sum stops on;
`_series_params` gives those of F_s), the one rising factorial
(`_pochhammer`), and the instance data (roots, seed coefficient, derived
parameter vectors, hypothesis flags).

Polynomials are plain coefficient lists (Fraction, low degree first, trailing
zeros stripped); the zero polynomial is [] with degree -inf.

The tables of c_k, of the psi_{i,s} weights and of the multipliers of
P_ell in `pade` are hypergeometric terms, stepped by one routine,
`term_table`, as reduced integer pairs; the first two are kept append-only
on the spec and grown by one helper, `_grown`.  The tables of the
Wronskian chain are integer rows (den, ints) from their closed forms: the
zeta-prefix weights (`_zeta_row`) and the series of F_s (`_series_row`).
Every value psi_{i,s}(t^k p) is a correlation of p against the weights of
(alpha_i, s), computed on integers by one kernel, `_dot_rows`, whose
outputs share one denominator; a caller that reads a row's polynomial at
a rational point takes one integer Horner (`_row_value`).  The contract
(`pade.contract_failures`) compares the weights with the series row.  The
dense polynomial arithmetic, psi on a polynomial, the literal product of
a Pade system and the series as Fractions are test oracles, in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul

from .arith import format_rational, json_fields, parse_rationals
from .errors import HypothesisViolation, InvalidInput

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


# ---------------------------------------------------------------------------
# the instance data


@dataclass
class HypergeometricSpec:
    """Parameters of one instance: the roots eta (length r) and zeta
    (length r) and the seed coefficient c0, with the vectors a_i = eta_i - 1
    and b = (zeta_1, ..., zeta_{r-1}) and the gamma-ordering
    gamma_w = zeta_{r+1-w} derived from them.

    The coefficient sequence follows c_{k+1} = c_k A(k)/B(k+1) with
    A(X) = prod (X + eta_i), B(X) = prod (X + zeta_j), that is
    c_k = c0 prod (eta_i)_k / prod (1 + zeta_j)_k.  `from_ab` takes the
    vectors of the contiguous hypergeometric family, zeta_r = 1, with the
    default seed c0 = prod a_i / prod b_j that makes c_k its
    Pochhammer-ratio sequence; `from_roots` admits general (eta, zeta) with
    zeta_r not necessarily 1 (used by the Lerch cross-check).
    """

    eta: tuple
    zeta: tuple
    c0: Fraction
    _c_cache: list = field(default_factory=list, repr=False, compare=False)
    # (alpha, s) -> psi_{i,s} weights from k = 0, append-only (`_psi_table`)
    _psi_tables: dict = field(default_factory=dict, repr=False, compare=False)

    # -- constructors

    @classmethod
    def from_ab(cls, a, b, c0=None) -> "HypergeometricSpec":
        a = tuple(Fraction(x) for x in a)
        b = tuple(Fraction(x) for x in b)
        if len(b) != len(a) - 1:
            raise InvalidInput(f"need len(b) = len(a)-1, got {len(a)} and {len(b)}")
        if c0 is None:
            num = math.prod(a, start=Fraction(1))
            den = math.prod(b, start=Fraction(1))
            if num == 0 or den == 0:
                raise InvalidInput("default c0 = prod(a)/prod(b) undefined here; pass c0")
            c0 = num / den
        return cls.from_roots([x + 1 for x in a], b + (Fraction(1),), c0)

    @classmethod
    def from_roots(cls, eta, zeta, c0) -> "HypergeometricSpec":
        eta = tuple(Fraction(x) for x in eta)
        zeta = tuple(Fraction(x) for x in zeta)
        if len(eta) != len(zeta):
            raise InvalidInput("need len(eta) == len(zeta)")
        c0 = Fraction(c0)
        if c0 == 0:
            raise InvalidInput("c0 must be nonzero")
        spec = cls(eta=eta, zeta=zeta, c0=c0)
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
    def a(self) -> tuple:
        """a_i = eta_i - 1."""
        return tuple(x - 1 for x in self.eta)

    @property
    def b(self) -> tuple:
        """b = zeta without its last entry."""
        return self.zeta[:-1]

    @property
    def r(self) -> int:
        return len(self.eta)

    @property
    def gamma(self) -> tuple:
        """gamma_w = zeta_{r+1-w} for w = 1..r-1 (zeta reversed, last dropped)."""
        return tuple(reversed(self.zeta))[:-1]

    def c_pairs(self, upto: int) -> list:
        """The spec's table of c_k as reduced pairs, grown to hold entry
        upto and not copied."""
        return _grown(self._c_cache, upto, lambda: (
            self.c0.as_integer_ratio(), 1, self.eta, [z + 1 for z in self.zeta]))

    def c(self, k: int) -> Fraction:
        """c_k by the recurrence, memoized."""
        return Fraction(*self.c_pairs(k)[k])

    # -- hypothesis flags (gate certification, not construction)

    def hypothesis_flags(self) -> dict:
        """Named instance hypotheses, each mapped to whether it holds."""
        return {
            "assumption_AB": not any(x.denominator == 1 and x <= 0
                                     for x in self.eta + self.zeta),
            "a_not_positive_integer": not any(x.denominator == 1 and x > 0 for x in self.a),
            "a_plus_one_minus_b_not_positive_integer": not any(
                (ak + 1 - bj).denominator == 1 and ak + 1 - bj > 0
                for ak in self.a for bj in self.b),
            "eta_minus_zeta_not_natural": not any(
                (e - z).denominator == 1 and e - z >= 0 for e in self.eta for z in self.zeta),
        }

    def flags_pass(self) -> bool:
        return all(self.hypothesis_flags().values())

    def violated_hypotheses(self) -> list:
        return [name for name, ok in self.hypothesis_flags().items() if not ok]

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
        """The spec of a `to_jsonable` form; InvalidInput names a bad or a
        missing field, or says the form is no JSON object."""
        eta, zeta, c0 = json_fields(data, ("eta", "zeta", "c0"))
        return cls.from_roots(parse_rationals("eta", eta), parse_rationals("zeta", zeta),
                              *parse_rationals("c0", [c0]))


# ---------------------------------------------------------------------------
# evaluation functionals


def term_table(t: tuple, k: int, count: int, x, upper, lower) -> list:
    """[t_{k+1}, ..., t_{k+count}] of the hypergeometric term with t_k = t and
    t_{j+1}/t_j = x * prod_u (j + u) / prod_d (j + d), exact, as reduced
    pairs (num, den), den > 0, t one too.

    Each parameter p/q becomes its integer pair (p, q) once, so a factor
    j + p/q enters a step as the small integer q*j + p, a product of plain
    ints; a step multiplies t by a small reduced ratio a/b, cancelling
    across as Fraction multiplication does (two big-by-small gcds).
    """
    x = Fraction(x)
    ups = [Fraction(u).as_integer_ratio() for u in upper]
    downs = [Fraction(d).as_integer_ratio() for d in lower]
    num0 = x.numerator * math.prod(q for _, q in downs)
    den0 = x.denominator * math.prod(q for _, q in ups)
    num, den = t
    out = []
    for j in range(k, k + count):
        a, b = num0, den0
        for p, q in ups:
            a *= q * j + p
        for p, q in downs:
            b *= q * j + p
        g = math.gcd(a, b) if b > 0 else -math.gcd(a, b)
        a, b = a // g, b // g
        g1, g2 = math.gcd(num, b), math.gcd(a, den)
        num, den = (num // g1) * (a // g2), (den // g2) * (b // g1)
        out.append((num, den))
    return out


def _pochhammer(x: Fraction, k: int) -> Fraction:
    """The rising factorial (x)_k = x (x+1) ... (x+k-1), on integers."""
    w, v = x.as_integer_ratio()
    return Fraction(math.prod(w + v * i for i in range(k)), v ** k)


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
    for k <= upto at least, as reduced pairs: the spec's own append-only
    weight table of (alpha, s), one hypergeometric term in k, grown to hold
    entry upto and not copied.  A caller slices the entries it reads, to
    the exact length wherever the slice meets a correlation (entries past
    the end of a run count as zero there)."""
    alpha = Fraction(i_alpha)
    gam = spec.gamma[:s]
    return _grown(spec._psi_tables.setdefault((alpha, s), []), upto, lambda: (
        (math.prod(gam, start=Fraction(1)) * spec.c0 * alpha).as_integer_ratio(), alpha,
        spec.eta + tuple(g + 1 for g in gam),
        tuple(z + 1 for z in spec.zeta) + gam,
    ))


def _scaled(pairs: list) -> tuple:
    """(den, ints): the rationals of `pairs` (num, den), den > 0, as the
    integers ints over the lcm den of their denominators."""
    den = math.lcm(*(d for _, d in pairs))
    return den, [a * (den // d) for a, d in pairs]


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


def _zeta_row(spec: HypergeometricSpec, alpha: Fraction, s: int, count: int) -> tuple:
    """(den, ints): the zeta-prefix weights for k < count (count >= 1) as
    one integer row, each from its closed form.

    With alpha = p/q and zeta_j = u_j/v_j the weight is
    prod v_j p^k / (q^k E_k), E_k = prod_{j<=s+1} (v_j k + u_j), so over
    den = L q^K, K = count - 1, L = lcm(E_k), it is prod v_j p^k q^(K-k)
    (L / E_k); a negative E_k puts its sign into L // E_k.
    """
    p, q = Fraction(alpha).as_integer_ratio()
    zs, K = [z.as_integer_ratio() for z in spec.zeta[: s + 1]], count - 1
    E = [math.prod(v * k + u for u, v in zs) for k in range(count)]
    L, v = math.lcm(*E), math.prod(v for _, v in zs)
    return L * q ** K, [v * p ** k * q ** (K - k) * (L // e) for k, e in enumerate(E)]


# ---------------------------------------------------------------------------
# series of the contiguous family


def _series_row(spec: HypergeometricSpec, alpha: Fraction, s: int, count: int) -> tuple:
    """(den, ints): the coefficients g_s(k) c_k alpha^{k+1} of 1/z^{k+1} in
    F_s(alpha/z), g_s(k) = (k+gamma_1)...(k+gamma_s), for k < count, as
    one integer row; a prefix of it over den is exact too.

    It is built by that product formula from the spec's c_k, never from the
    psi weights: its comparison with the weights in the contract
    (`pade.contract_failures`), and the tests' literal product, are the
    oracles of the rows and windows made from them.  With alpha = p/q,
    gamma_j = u_j/v_j and c_k = a_k/b_k, over den = prod v_j C q^(K+1),
    K = count - 1, C = lcm(b_k), the entry is
    prod (v_j k + u_j) a_k (C / b_k) p^(k+1) q^(K-k).  Nothing is kept:
    each call makes its row.
    """
    p, q = Fraction(alpha).as_integer_ratio()
    gam = spec.gamma[:s]
    cs = spec.c_pairs(count - 1)[:count]
    C, K = math.lcm(*(b for _, b in cs)), count - 1
    ints = [math.prod(x.denominator * k + x.numerator for x in gam) * a * (C // b)
            * p ** (k + 1) * q ** (K - k) for k, (a, b) in enumerate(cs)]
    return math.prod(x.denominator for x in gam) * C * q ** (K + 1), ints


def _series_params(spec: HypergeometricSpec, s: int) -> tuple:
    """(upper, lower, weight) of the terms (k+gamma_1)...(k+gamma_s) c_k
    x^{k+1} of F_s(x): the term ratio is x prod(k + eta)/prod(k + 1 + zeta)
    times the weight prod(k + gamma) over gamma_1..gamma_s, see
    `_tail_ratio`."""
    return spec.eta, [1 + z for z in spec.zeta], spec.gamma[:s]


def _tail_ratio(upper, lower, weight, k: int) -> tuple:
    """(k0, c) for the terms G(j) t_j, G(j) = prod(j + g) over `weight` and
    t_{j+1}/t_j = x prod(j + u)/prod(j + d) over `upper` and `lower`:
    k0 = max(k, 1, 2 + floor |v|) over the nonzero parameters v (a zero
    one adds nothing: j + 0 >= j >= 1), and |x| c bounds every ratio of
    consecutive terms at j >= k0, at any x:

        c = k0^(#upper - #lower) prod (1 + |u|/k0) / prod (1 - |d|/k0)
            * (1 + 1/(k0 - gmax))^#weight,   gmax = max |g|.

    Neither k0 nor c depends on x, so a caller that sums at many x (the
    remainder values of one system) computes them once."""
    gmax = max([abs(g) for g in weight], default=Fraction(0))
    k = max(k, 1, *(2 + int(abs(v)) for v in (*upper, *lower, *weight) if v))
    out = Fraction(k) ** (len(upper) - len(lower))
    for u in upper:
        out *= 1 + abs(u) / k
    for d in lower:
        out /= 1 - abs(d) / k
    # (j+1+g)/(j+g) <= 1 + 1/(j - |g|), valid and decreasing past k
    return k, out * (1 + 1 / (k - gmax)) ** len(weight)
