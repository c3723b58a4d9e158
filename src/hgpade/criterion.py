"""Effective irrationality machinery built on top of the approximant systems.

Heights of rational tuples (the finite part is log of the lcm of the
denominators, so no height factors a number), empirical growth/decay rates
of the approximant data at a chosen place, the criterion value V whose
positivity certifies the linear-independence setup, the resulting measure mu
and constant C, and the search for the smallest usable integer beta.  The
remainder sums at both kinds of place read each system's remainder series by
exponent (`PadeSystem.terms`), one list per (ell, i, s) shared by every beta.

The closed-form rate constants are only partly recoverable from the source
material (the archimedean one is occluded), so every closed-form figure here
is labeled best-effort; the empirical fitted rates are the operative values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction

from .arith import (
    Place,
    log_abs_at_place,
    log_abs_fraction,
    log_int,
    log_mu,
    totient,
    v_p,
)
from .errors import (
    CriterionNotSatisfied,
    DivergentSeries,
    HypothesisViolation,
    InconclusiveComparison,
    InsufficientPrecision,
    InvalidInput,
)
from .numerics import remainder_value
from .pade import _P_family, build_system, default_truncation
from .polyops import _row_value


# ---------------------------------------------------------------------------
# rate fitting
# ---------------------------------------------------------------------------

MIN_FIT_SIZES = 4  # sizes n a rate fit needs; the CLI checks --n-range against it

# the largest relative residual of a fit that reads as affine in n
FIT_TOLERANCE = 0.02

# the N of the denominators D_N, D'_N (`c_denominators`) that stand in for
# their limsups at a finite place (`measure`, `place_consistency`)
PROFILE_N = 200


@dataclass
class FitResult:
    """Extrapolated linear rate of a sequence y_n ~ rate*n + offset.

    The fit regresses y_n/n against 1/n (so `rate` is the 1/n -> 0 intercept)
    with the largest-n half of the points weighted double.  `to_jsonable`
    adds what its fields do not hold, the tolerance and `ok`; `cli._canonical`
    writes the rest.
    """

    rate: float
    offset: float
    points: list = field(default_factory=list)  # (n, y_n/n)
    max_rel_residual: float = 0.0

    @property
    def ok(self) -> bool:
        return self.max_rel_residual <= FIT_TOLERANCE

    def to_jsonable(self) -> dict:
        return {**vars(self), "tolerance": FIT_TOLERANCE, "ok": self.ok}


def fit_rate(ns, values) -> FitResult:
    """Weighted least squares of y_n/n = rate + offset/n over the sample."""
    ns = list(ns)
    if len(ns) < MIN_FIT_SIZES:
        raise InvalidInput(f"rate fitting needs at least {MIN_FIT_SIZES} sample sizes")
    if len(set(ns)) != len(ns) or len(values) != len(ns):
        raise InvalidInput("sample sizes must be distinct and match the values")
    pts = sorted(zip(ns, values))
    half = pts[len(pts) // 2][0]
    xs = [1.0 / n for n, _ in pts]
    zs = [y / n for n, y in pts]
    ws = [2.0 if n >= half else 1.0 for n, _ in pts]
    sw = sum(ws)
    sx = sum(w * x for w, x in zip(ws, xs))
    sxx = sum(w * x * x for w, x in zip(ws, xs))
    sz = sum(w * z for w, z in zip(ws, zs))
    sxz = sum(w * x * z for w, x, z in zip(ws, xs, zs))
    denom = sw * sxx - sx * sx
    offset = (sw * sxz - sx * sz) / denom
    rate = (sz - offset * sx) / sw
    scale = max(abs(z) for z in zs) or 1.0
    residuals = [z - (rate + offset * x) for x, z in zip(xs, zs)]
    max_rel = max(abs(res) for res in residuals) / scale
    return FitResult(
        rate=rate,
        offset=offset,
        points=[(n, z) for (n, _), z in zip(pts, zs)],
        max_rel_residual=max_rel,
    )


# ---------------------------------------------------------------------------
# heights
# ---------------------------------------------------------------------------


def _h_arch(vec) -> float:
    top = max(abs(Fraction(x)) for x in vec)
    return log_abs_fraction(top) if top > 1 else 0.0


def heights(vec) -> float:
    """The height h = sum_v h_v, h_v = log max(1, max_i |x_i|_v): the
    archimedean part plus log of the lcm of the denominators.  That log is
    the finite part, sum e log q over the prime powers q^e of the lcm, with
    nothing factored."""
    vec = tuple(Fraction(x) for x in vec)
    if not vec or all(x == 0 for x in vec):
        raise InvalidInput("height of the zero tuple is undefined")
    return _h_arch(vec) + log_int(math.lcm(*(x.denominator for x in vec)))


def _row_lcm(den: int, ints: list) -> int:
    """The lcm of the reduced denominators of a_j / den over the row
    ints = [a_1, ..., a_n], den > 0: den / gcd(den, a_1, ..., a_n).

    At each prime p, the reduced denominator of a_j / den has valuation
    max(0, v_p(den) - v_p(a_j)), so the lcm has max_j of that, which is
    v_p(den) - min(v_p(den), min_j v_p(a_j)) = v_p(den / gcd(den, a_1, ...)).
    A zero entry, or an all-zero row, adds 1."""
    return den // math.gcd(den, *ints)


def _height_excluding(rows: list, v0: Place) -> float:
    """h(vec) - h_{v0}(vec) of the tuple vec of every a_j / den over the
    integer rows (den, [a_j]), den > 0: log of the lcm of its denominators
    (one gcd per row, `_row_lcm`, no factoring), plus at a finite v0 the
    archimedean part, log of the largest |a_j| / den, less the v0 part of
    that lcm."""
    big_lcm = math.lcm(*(_row_lcm(den, ints) for den, ints in rows))
    finite = log_int(big_lcm)
    if v0.is_archimedean:
        return finite
    tops = (Fraction(max(map(abs, ints), default=0), den) for den, ints in rows)
    return _h_arch(tops) + finite - v_p(big_lcm, v0.p) * math.log(v0.p)


# ---------------------------------------------------------------------------
# per-n raw data
# ---------------------------------------------------------------------------


def _check_flags(spec):
    bad = spec.violated_hypotheses()
    if bad:
        raise HypothesisViolation("; ".join(bad))


class Instance:
    """One criterion run's fixed family of systems: (spec, alphas) at every
    n of the fitting window.

    The systems are built on first access, so input checks that need none
    of them (divergence at beta) fire before any build.  Each system keeps
    its own remainder series, read by exponent (`PadeSystem.terms`, with
    the sizes of `PadeSystem.size`), so every beta, precision and place of
    the run reads one copy.
    """

    def __init__(self, spec, alphas, n_range):
        _check_flags(spec)
        self.spec = spec
        self.alphas = tuple(Fraction(a) for a in alphas)
        self.n_range = n_range
        if n_range:  # a window past the cap is refused before any build
            default_truncation(spec.r, len(self.alphas), max(n_range))

    @cached_property
    def systems(self) -> dict:
        return {
            n: build_system(self.spec, self.alphas, n, cross_check=False)
            for n in self.n_range
        }


def growth_fit_P(inst: Instance, beta, *places: Place) -> dict:
    """Fitted rate of log max_ell |P_ell(beta)|_v by place v; the empirical
    U at v.  Each P_ell(beta) is evaluated once per n and read at every
    place."""
    beta = Fraction(beta)
    ns, ys = [], {v: [] for v in places}
    for n, sysn in inst.systems.items():
        vals = [_row_value(den, ints, beta) for den, ints in sysn.P.values()]
        for v, y in ys.items():
            y.append(max(log_abs_at_place(x, v) for x in vals if x != 0))
        ns.append(n)
    return {v: fit_rate(ns, y) for v, y in ys.items()}


# --- remainder size at the two kinds of places -----------------------------


def _log_abs_R_arch(system, ell, i, s, beta) -> float:
    """log |R_{ell,i,s}(beta)|, escalating precision until the certified
    interval is narrow enough to take a log."""
    bits = 32
    while True:
        val = remainder_value(system, ell, i, s, beta, bits)
        # error 2^12 <= |value|, on the unreduced pairs (both denominators
        # are positive): the value is reduced once, for the log
        if val.num and (val.err * val.den << 12) <= abs(val.num) * val.err_den:
            return log_abs_fraction(val.value)
        bits *= 2
        if bits > 1 << 14:
            raise InsufficientPrecision(
                "remainder too close to zero to measure at this size"
            )


def _vp_remainder(system, ell, i, s, beta, p: int) -> int:
    """Exact p-adic valuation of R_{ell,i,s}(beta).

    Term k of R(beta) is psi_{i,s}(t^k P_ell) / beta^{k+1}, read by its
    exponent from the system's term list (`PadeSystem.terms`), the one the
    archimedean sums read past their first stop test, and made a Fraction
    here from its unreduced pair.  This sum starts at
    k = n, inside the window, so it fills the term head; the sizes
    that bound the archimedean sums are never computed here.

    Partial sums are exact rationals; the loop stops once every later term
    provably has larger valuation, which pins the valuation of the full sum
    (ultrametric). The per-term lower bound tracks the recurrence: each step
    multiplies by A(k)/B(k+1) * (alpha/beta) * (shifted gamma factors), and
    the B-side numerators can drop the valuation by at most a Pochhammer-type
    k/(p-1) + log_p(...) amount.  min_d v_p(P_d) comes from the integer
    row (den, a) of P_ell as min_d v_p(a_d) - v_p(den).
    """
    spec = system.spec
    den, Pn = system.P[ell]
    D = len(Pn) - 1
    alpha = Fraction(system.alphas[i - 1])
    beta = Fraction(beta)
    lp = math.log(p)

    va, vb = v_p(alpha, p), v_p(beta, p)
    a_neg = sum(min(0, v_p(e, p)) for e in spec.eta)
    g_neg = sum(min(0, v_p(g, p)) for g in spec.gamma[:s])
    min_p = min(v_p(a, p) for a in Pn if a) - v_p(den, p)
    vc0 = v_p(spec.c0, p)
    # zeta entries whose denominator is prime to p feed the Pochhammer bound
    zs = [(abs(z.numerator), z.denominator) for z in map(Fraction, spec.zeta)]
    zs = [(u, w) for u, w in zs if w % p != 0]
    cnt = len(zs)
    slope_a = a_neg - cnt / (p - 1)
    sigma = va - vb + slope_a

    if sigma <= 0:
        raise DivergentSeries(
            f"cannot certify p-adic contraction at p={p}: "
            f"v_p(alpha)-v_p(beta)={va - vb} does not beat the "
            f"denominator growth {-a_neg} (eta) + {cnt}/(p-1) (zeta) = {-slope_a:.3f}"
        )

    def lowbound(k: int) -> float:
        lin = min(
            j * slope_a + (j + 1) * va for j in (k, k + D)
        )
        logs = sum(
            math.log(max(2, (k + D) * w + u)) / lp + 1 for u, w in zs
        )
        return lin + g_neg + vc0 + min_p - logs - (k + 1) * vb

    max_u = max((u for u, _ in zs), default=0)
    k_star = max(
        math.ceil(cnt / (sigma * lp)) + 1, max_u + 2
    ) + D

    S = Fraction(0)
    k = system.n
    while True:
        a, den = system.terms(ell, i, s, k)[k]
        S += Fraction(a, den) / beta ** (k + 1)
        if S != 0 and k >= k_star and lowbound(k + 1) > v_p(S, p):
            return v_p(S, p)
        k += 1
        if k > 20000:
            raise InsufficientPrecision(
                "p-adic remainder valuation did not stabilize"
            )


def decay_fit_R(inst: Instance, beta, v0: Place) -> FitResult:
    """Fitted rate of -log max_{ell,i,s} |R_{ell,i,s}(beta)|_{v0}; the
    empirical A."""
    beta = Fraction(beta)
    for a in inst.alphas:
        x = a / beta
        if x and (abs(x) >= 1 if v0.is_archimedean else v_p(x, v0.p) <= 0):
            raise DivergentSeries(
                f"|alpha/beta| at {v0} is not < 1 (alpha={a}, beta={beta})"
            )
    ns, ys = [], []
    for n, sysn in inst.systems.items():
        if v0.is_archimedean:
            best = max(
                _log_abs_R_arch(sysn, ell, i, s, beta)
                for ell, i, s in sysn.indices()
            )
            ys.append(-best)
        else:
            vmin = min(
                _vp_remainder(sysn, ell, i, s, beta, v0.p)
                for ell, i, s in sysn.indices()
            )
            ys.append(vmin * math.log(v0.p))
        ns.append(n)
    return fit_rate(ns, ys)


# ---------------------------------------------------------------------------
# the criterion value V
# ---------------------------------------------------------------------------


def c_denominators(spec, N: int) -> tuple:
    """(D_N, D'_N): the lcm of the denominators of c_0/c_k and of c_k/c_0
    over k <= N, read off the spec's table of c_k.  c_0 cancels, so these
    are the denominators of prod (1+zeta)_k / prod (eta)_k and of its
    reciprocal; the numerator of c_k/c_0 is the denominator of c_0/c_k."""
    ratios = [Fraction(*ck) / spec.c0 for ck in spec.c_pairs(N)[:N + 1]]
    return (math.lcm(*(x.numerator for x in ratios)),
            math.lcm(*(x.denominator for x in ratios)))


def finite_place_budget(spec) -> float:
    """sum_j (log mu(eta_j) + 2 log mu(zeta_j) + den*den/(phi*phi)): a
    closed-form estimate of all finite-place growth combined, not a proven
    bound (`place_consistency` measures the mass above it at a = 1/5, 2/7,
    b = 1/2)."""
    total = 0.0
    for e, z in zip(spec.eta, spec.zeta):
        e, z = Fraction(e), Fraction(z)
        dd = e.denominator * z.denominator
        ff = totient(e.denominator) * totient(z.denominator)
        total += log_mu(e) + 2 * log_mu(z) + dd / ff
    return total


def stirling_growth_const(r: int, m: int) -> float:
    """Best-effort reconstruction of the occluded archimedean growth
    constant: rm factors of 2 from the difference operators plus r binomial
    column norms at ratio (rm+1)n choose n."""
    rm = r * m
    return rm * math.log(2) + r * (
        math.log(rm + 1) + rm * math.log((rm + 1) / rm)
    )


def height_fit_vec(inst: Instance, beta, v0: Place) -> FitResult:
    """Fitted rate of h(vec_n) - h_{v0}(vec_n) for the full coefficient
    vector vec_n of the matrix row polynomials P_ell, P_{ell,i,s}: the
    coefficient vector whose height controls the matrix rows at all places
    at once.  It is read from the integer rows the system keeps
    (`PadeSystem.P`, `PadeSystem.Pis`), so no P_ell or P_{ell,i,s}
    is made into Fractions.

    Evaluating a row polynomial at beta multiplies its size away from v0 by
    at most max(1,|beta|_v)^deg per place, which adds deg * (h - h_{v0}) of
    the 1-tuple (beta); that term vanishes for integer beta at finite places,
    keeping V(beta') - V(beta) = log(beta'/beta) exact in the fit."""
    beta = Fraction(beta)
    beta_part = _height_excluding([(beta.denominator, [beta.numerator])], v0)
    rm = inst.spec.r * len(inst.alphas)
    ns, qs = [], []
    for n, sysn in inst.systems.items():
        deg = rm * n + rm
        rows = [*sysn.P.values(), *sysn.Pis.values()]
        qs.append(
            _height_excluding(rows, v0)
            + deg * beta_part
        )
        ns.append(n)
    return fit_rate(ns, qs)


# ---------------------------------------------------------------------------
# the measure report
# ---------------------------------------------------------------------------


@dataclass
class MeasureReport:
    """Everything the effective criterion run produced at one instance.
    `to_jsonable` adds the one constant its fields do not hold,
    closed_form_status; `cli._canonical` writes the rest (the place v0 by
    its name)."""

    v0: Place
    A_emp: float
    U_emp: float
    V_emp: float
    A_cf: float | None
    U_cf: float | None
    V_cf: float | None
    mu_eps: float
    C_eps: float
    epsilon: float
    n_range: tuple
    verdict: bool
    diagnostics: dict = field(default_factory=dict)

    def to_jsonable(self) -> dict:
        return {**vars(self), "closed_form_status": "best_effort"}


def measure(inst: Instance, beta, v0: Place, epsilon: float) -> MeasureReport:
    """Run the full effective criterion at one instance.

    Raises CriterionNotSatisfied when V_emp - epsilon <= 0, and
    InconclusiveComparison when the empirical route certifies positivity but
    the budget-based closed-form route flips the sign.
    """
    spec, alphas, n_range = inst.spec, inst.alphas, inst.n_range
    beta = Fraction(beta)
    rm = spec.r * len(alphas)

    a_fit = decay_fit_R(inst, beta, v0)
    # U at v0, and the archimedean U that c_fit reads (one fit at v0 = inf)
    u_fits = growth_fit_P(inst, beta, v0, Place())
    u_fit, u_arch = u_fits[v0], u_fits[Place()].rate
    q_fit = height_fit_vec(inst, beta, v0)
    a_emp, u_emp = a_fit.rate, u_fit.rate
    v_emp = a_emp - q_fit.rate

    # closed forms: skeleton terms are computable, the archimedean growth
    # constant is occluded -- fitted (primary) and Stirling (side-by-side)
    tuple_ab = list(alphas) + [beta]
    h_all = heights(tuple_ab)
    h_arch = _h_arch(tuple_ab)
    h_v0 = h_arch if v0.is_archimedean else (
        max(0, -min(v_p(x, v0.p) for x in tuple_ab)) * math.log(v0.p))
    log_beta_v0 = log_abs_at_place(beta, v0)
    log_alpha_v0 = max(log_abs_at_place(a, v0) for a in alphas)
    budget = finite_place_budget(spec)
    c_stirling = stirling_growth_const(spec.r, len(alphas))
    c_fit = u_arch - rm * h_arch

    if v0.is_archimedean:
        n_prof = None
        a_cf = log_beta_v0 - (rm + 1) * log_alpha_v0 - c_fit
        u_cf = rm * h_v0 + c_fit
    else:
        # finite v0: the local rate constants are reconstructible from the
        # denominators D_N, D'_N and the mu mass of zeta at p (N = PROFILE_N
        # stands in for the limsups; declared in the diagnostics)
        p = v0.p
        n_prof = PROFILE_N
        D, D_prime = c_denominators(spec, n_prof)
        d_rate = v_p(D, p) / n_prof * math.log(p)
        dd_rate = d_rate + v_p(D_prime, p) / n_prof * math.log(p)
        c_xp = sum(
            p / (p - 1) * math.log(p)
            for z in spec.zeta
            if Fraction(z).denominator % p == 0
        )
        a_cf = log_beta_v0 - (rm + 1) * log_alpha_v0 - c_xp + rm * dd_rate
        u_cf = rm * h_v0 + c_xp + rm * d_rate
    v_skeleton = (
        log_beta_v0 - rm * h_all - (rm + 1) * log_alpha_v0 + rm * h_v0 - budget
    )
    v_cf = v_skeleton - c_fit
    v_cf_stirling = v_skeleton - c_stirling
    v_budget_route = a_emp - budget - (0.0 if v0.is_archimedean else u_arch)

    if v_emp - epsilon <= 0:
        raise CriterionNotSatisfied(
            f"V - epsilon = {v_emp - epsilon:.6f} <= 0 at beta={beta}"
        )
    if v_emp > 0 and v_budget_route <= 0:
        raise InconclusiveComparison(
            f"empirical V={v_emp:.4f} > 0 but the budget route gives "
            f"{v_budget_route:.4f} <= 0; instance too marginal to certify"
        )

    denom = v_emp - epsilon
    mu_eps = (a_emp + u_emp) / denom
    c_eps = math.exp(-(math.log(2) / denom + 1) * (a_emp + u_emp))

    # specialization consistency: rebuilding the spec through its root form
    # must reproduce the top system's P family identically (same code path),
    # row for row
    spec2 = type(spec).from_roots(spec.eta, spec.zeta, spec.c0)
    n_top = max(n_range)
    special_ok = (
        spec2.to_jsonable() == spec.to_jsonable()
        and dict(enumerate(_P_family(spec2, alphas, n_top, rm)))
        == inst.systems[n_top].P
    )

    return MeasureReport(
        v0=v0,
        A_emp=a_emp,
        U_emp=u_emp,
        V_emp=v_emp,
        A_cf=a_cf,
        U_cf=u_cf,
        V_cf=v_cf,
        mu_eps=mu_eps,
        C_eps=c_eps,
        epsilon=epsilon,
        n_range=(min(n_range), max(n_range)),
        verdict=v_emp > 0,
        diagnostics={
            "fit_A": a_fit.to_jsonable(),
            "fit_U": u_fit.to_jsonable(),
            "fit_height": q_fit.to_jsonable(),
            "height_rate": q_fit.rate,
            "finite_place_budget": budget,
            "V_budget_route": v_budget_route,
            "V_cf_stirling": v_cf_stirling,
            "c_fit": c_fit,
            "c_stirling": c_stirling,
            "finite_profile_N": n_prof,
            "specialization_consistent": special_ok,
        },
    )


# ---------------------------------------------------------------------------
# threshold search
# ---------------------------------------------------------------------------


def min_beta(inst: Instance, search_bound: int) -> tuple:
    """(beta, V): an integer beta <= search_bound where V crosses 0, with
    V = V_emp(beta) > 0 at the archimedean place, or (None, None) if
    V(search_bound) <= 0 or the bound is under the floor int(max |alpha|) + 1.

    What is certified: V(beta) > 0, and V(beta - 1) <= 0 unless beta is the
    floor.  That beta is the smallest rests on V growing with beta: all else
    fixed, V is close to affine in log beta with slope about 1 (1.06 between
    beta = 10 and 1024 on r = 2, m = 1, alpha = 1, n = 4..12, and 1.24
    between 9 and 10).  So the search bisects in log beta, at
    isqrt(lo * hi), and evaluates the floor, where |alpha/beta| is largest
    and the remainder sums are longest, only when the bracket closes on it.
    The instance's systems and remainder series serve every candidate, and
    the height part of V is beta-independent for integer beta, so it is
    fitted once: V is `measure`'s V_emp at beta, bit for bit.  Only at the
    archimedean place does V grow in log|beta|, so the search runs there
    alone.
    """
    arch = Place()
    search_bound = int(search_bound)
    floor = int(max(abs(a) for a in inst.alphas)) + 1
    if search_bound < floor:
        return None, None
    q_rate = height_fit_vec(inst, floor, arch).rate
    seen = {}

    def value(b: int) -> float:
        if b not in seen:
            seen[b] = decay_fit_R(inst, b, arch).rate - q_rate
        return seen[b]

    if value(search_bound) <= 0:
        return None, None
    lo, hi = floor, search_bound
    # invariant: 0 < value(hi), and value(lo) <= 0 unless lo is the floor
    while hi - lo > 1:
        mid = min(max(math.isqrt(lo * hi), lo + 1), hi - 1)
        if value(mid) > 0:
            hi = mid
        else:
            lo = mid
    if lo == floor and value(lo) > 0:
        return lo, seen[lo]
    return hi, seen[hi]


# ---------------------------------------------------------------------------
# place-consistency diagnostic
# ---------------------------------------------------------------------------


def place_consistency(spec) -> dict:
    """Measured finite-place rate mass at N = PROFILE_N against the
    closed-form estimate `finite_place_budget`.

    measured = (1/N) log(D_N D'_N) + sum_j log mu(zeta_j); the budget is
    sum_j (log mu(eta_j) + 2 log mu(zeta_j) + den den/phi phi).  The budget
    is not a proven bound: measured sits well below it on the canonical
    instance, and above it at a = 1/5, 2/7, b = 1/2.  `measured_le_budget`
    records which, with no slack."""
    N = PROFILE_N
    D, D_prime = c_denominators(spec, N)
    mu_part = sum(log_mu(Fraction(z)) for z in spec.zeta)
    measured = (log_int(D) + log_int(D_prime)) / N + mu_part
    budget = finite_place_budget(spec)
    gap = (budget - measured) / budget
    return {
        "N": N,
        "measured": measured,
        "budget": budget,
        "relative_gap": gap,
        "within_5pct": abs(gap) <= 0.05,
        "measured_le_budget": measured <= budget,
    }
