"""Certified evaluation of the hypergeometric series and the remainder
values at rational arguments.

Everything is interval arithmetic in disguise: a BigFloat is an exact rational
partial sum plus an exact rational bound on the discarded tail, so all error
tracking is rigorous (the tail bounds come from a geometric majorant with the
ratio frozen once it drops below (1+|z|)/2).  No binary floats enter any
certified quantity; floats appear only when a caller formats or fits rates,
and in the stop guess of `_sum_series`, which decides nothing.

Both series routes (`eval_pFq` and the direct sum of F_s) run on one kernel,
`_sum_series`, called by one helper that places their first stop test
(`_sum_bounded`).  The kernel multiplies the steps of the term recurrence
out by binary splitting, one product tree per range of steps, and reaches
exactly the unreduced integers (term, numerator, denominator) a
step-by-step sum would.
A range is taken only where one exact comparison at its end proves that no
stop test inside it can pass (the margin lemma of `_sum_series`), and the
stopping test is decided exactly on those integers, so the certified value
and bound are the same rationals a term-by-term Fraction sum would give, at
the same stopping index, kept unreduced: a BigFloat holds integer pairs,
and `eval` reads them without one gcd.  The remainder values R(beta) of
`remainder_value` are summed on integers too, over one running denominator
L * p^e for beta = p/q: up to the first stop test in one piece, from prefix
sums of the psi weights (`_head_sum`, which reads no coefficient and so no
window), and from there in one loop over the system's terms by
exponent.  Their beta-free set-up lives on the system: the ratio bound's
part without |alpha/beta|, P_ell and the weights on integers, the terms and
the sizes of the bound, each read only where the sum needs it
(`PadeSystem.tail_ratio`, `P`, `weight_run`, `terms`, `size`).
The terms and sizes are unreduced integer pairs over the denominators of
weight runs that the system scales once per range for every ell, so the
sum past the head makes no Fraction.  All three sums stop on one tail-ratio
bound, `polyops._tail_ratio` over the parameter lists of their terms; the
k! of `eval_pFq` enters it as a lower parameter 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .errors import (
    DivergentSeries,
    InsufficientPrecision,
    InvalidInput,
    StepBudgetExceeded,
)
from .polyops import HypergeometricSpec, _series_params, _tail_ratio


@dataclass(frozen=True, eq=False)
class BigFloat:
    """A rational num / den known to lie within err / err_den of the true
    sum.

    Both pairs are kept as the sums reach them, unreduced, each with a
    positive denominator (the constructor moves a sign onto the
    numerator), so no gcd is taken on the way: `agrees_with`, `to_decimal`
    and `error_exponent` depend only on the two rationals, not on their
    forms.  `value` is the reduced Fraction, made on each read and not
    kept, for the readers that need a reduced form.  Equality is identity
    (eq=False): compare values, not the pairs."""

    num: int
    den: int
    err: int
    err_den: int
    bits: int

    def __post_init__(self):
        if not self.den or not self.err_den:
            raise InvalidInput("zero denominator")
        for top, bottom in (("num", "den"), ("err", "err_den")):
            if getattr(self, bottom) < 0:
                object.__setattr__(self, top, -getattr(self, top))
                object.__setattr__(self, bottom, -getattr(self, bottom))
        if self.err < 0:
            raise InvalidInput("error bound must be nonnegative")

    @property
    def value(self) -> Fraction:
        return Fraction(self.num, self.den)

    def agrees_with(self, other: "BigFloat") -> bool:
        """True iff the certified intervals intersect: |x1 - x2| <= e1 + e2
        for the values x and errors e of the two sides.

        Decided first on fixed-point quotients, with no cross product of
        the long pairs.  For K >= 0 let v = floor(x 2^K) and
        u = ceil(e 2^K) on each side.  Then X = 2^K (x1 - x2) lies within
        less than 1 of v1 - v2, and W = 2^K (e1 + e2) lies in
        (u1 + u2 - 2, u1 + u2].  So |v1 - v2| > u1 + u2 + 1 gives
        |X| > |v1 - v2| - 1 > u1 + u2 >= W: the intervals are disjoint.
        And |v1 - v2| <= u1 + u2 - 3 gives |X| < |v1 - v2| + 1
        <= u1 + u2 - 2 < W: they meet.  Only the four gaps in between, and
        a zero error, go to the exact test `_agrees_exactly`.

        K = 64 + max (len(err_den) - len(err)) over both sides makes each
        e 2^K at least 2^63, so the band of four units is at most 2^-62 of
        W.  An error above 2^64 would make K negative, so K is clamped at 0,
        where every error is above 2^63 already."""
        if not (self.err and other.err):
            return _agrees_exactly(self, other)
        K = max(0, 64 + max(x.err_den.bit_length() - x.err.bit_length()
                            for x in (self, other)))
        gap = abs((self.num << K) // self.den - (other.num << K) // other.den)
        # the sum of the ceilings, as minus the sum of the floors of -e 2^K
        width = -((-self.err << K) // self.err_den
                  + (-other.err << K) // other.err_den)
        if gap > width + 1:
            return False
        if gap <= width - 3:
            return True
        return _agrees_exactly(self, other)

    def to_decimal(self, digits: int = 30) -> str:
        # truncation toward zero is fine for display
        whole = abs(self.num) * 10**digits // self.den
        sign = "-" if whole and self.num < 0 else ""
        ds = str(whole).rjust(digits + 1, "0")
        return f"{sign}{ds[:-digits]}.{ds[-digits:]}"

    def error_exponent(self) -> int:
        """Largest k <= 4 bits + 64 with error <= 2^-k (0 when the error
        exceeds 1)."""
        n, d = self.err, self.err_den
        if n == 0:
            return self.bits
        # 2^(k-1) < d/n < 2^(k+1) for k = len(d) - len(n), for any pair of
        # the error: the floor of log2(d/n) is k or k - 1, and one shift
        # comparison decides which
        k = d.bit_length() - n.bit_length()
        if (n << k > d) if k >= 0 else (n > d << -k):
            k -= 1
        return max(0, min(k, 4 * self.bits + 64))


def _agrees_exactly(x: BigFloat, y: BigFloat) -> bool:
    """`BigFloat.agrees_with` cross-multiplied: every denominator is
    positive, so |x.num/x.den - y.num/y.den| <= x.err/x.err_den +
    y.err/y.err_den holds iff it holds times x.den y.den x.err_den y.err_den."""
    return (abs(x.num * y.den - y.num * x.den) * x.err_den * y.err_den
            <= (x.err * y.err_den + y.err * x.err_den) * x.den * y.den)


def _linear(roots) -> list:
    """Each factor k + p/q as the integer pair (q, p) of q*k + p."""
    return [(Fraction(x).denominator, Fraction(x).numerator) for x in roots]


# `_sum_series` tries its budget proof only from this step on: the proof
# costs about what a few dozen steps of a short sum cost, and a sum that
# certifies sooner needs none
_BUDGET_CHECK_FROM = 1024

# `_segment` lists the integers of the steps (one `map` per factor costs far
# less than a call per step) at most _LIST_RUN at a time, so a long range
# never holds all of its lists at once, and it multiplies runs of at most
# _LEAF_RUN steps out in one loop instead of splitting them further: a step
# costs about what a call costs
_LIST_RUN = 1024
_LEAF_RUN = 16


def _segment(steps, lo: int, hi: int) -> tuple:
    """(P, Q, T) of the steps lo <= j < hi of `_sum_series`, whose integers
    (a_j, b_j, g_j) steps(lo, hi) lists: P = prod a_j, Q = prod b_j and
    T = sum_j g_j prod_{lo<=i<j} a_i prod_{j<=i<hi} b_i, so that the steps
    take the state (tn, N, D) at lo to (tn P, N Q + tn T, D Q) at hi.  The
    two halves of a range combine as (P1 P2, Q1 Q2, T1 Q2 + P1 T2): binary
    splitting, over lists of at most _LIST_RUN steps."""
    if hi - lo <= _LIST_RUN:
        return _split(*steps(lo, hi), 0, hi - lo)
    mid = (lo + hi) // 2
    P1, Q1, T1 = _segment(steps, lo, mid)
    P2, Q2, T2 = _segment(steps, mid, hi)
    return P1 * P2, Q1 * Q2, T1 * Q2 + P1 * T2


def _split(a: list, b: list, g: list, lo: int, hi: int) -> tuple:
    """`_segment` of the steps listed at lo <= j < hi of a, b and g."""
    if hi - lo <= _LEAF_RUN:
        P, Q, T = 1, 1, 0
        for j in range(lo, hi):
            T = (T + P * g[j]) * b[j]
            P *= a[j]
            Q *= b[j]
        return P, Q, T
    mid = (lo + hi) // 2
    P1, Q1, T1 = _split(a, b, g, lo, mid)
    P2, Q2, T2 = _split(a, b, g, mid, hi)
    return P1 * P2, Q1 * Q2, T1 * Q2 + P1 * T2


def _stop_guess(k: int, gt: int, N: int, D: int, ratio: float,
                need: float) -> int:
    """A float guess, from the state at k of `_sum_series` (term gt/D, sum
    N/D, term ratio `ratio` at k, need = bits + log2 tail_factor), of the
    last index at which the margin test still holds: the term must fall by
    about 2^need / max(1, |S|) before the sum stops.  It only picks where
    to try a jump; the exact margin test decides every jump, so any guess
    gives the same sum."""
    if not gt or not 0 < ratio < 1:
        return k
    over = gt.bit_length() - max(D.bit_length(), N.bit_length()) + need
    return k + int(over / -math.log2(ratio)) - 2


def _sum_series(t0, x, upper, lower, weight, k0: int, tail_factor: Fraction,
                bits: int, max_k: int) -> BigFloat:
    """sum_{k<K} G(k) t_k with G(k) = prod(k + g) over `weight` and
    t_{k+1}/t_k = x prod(k + u)/prod(k + d) over `upper` and `lower`, stopped
    at the first K >= k0 with |G(K) t_K| * tail_factor <= 2^-bits max(1, |S|).

    Every factor k + p/q enters as (q k + p) with the q's gathered into two
    constants, so step k has integers a_k, b_k > 0 (the sign moved to a_k)
    and g(k) = prod (q k + p) over `weight`, and the sum is kept as N / D
    with D = prod(q_g) * den(t_0) * prod b_j unreduced: with gt = tn g(k)
    (so gt / D = G(k) t_k), a step is N <- (N + gt) b_k, D <- D b_k,
    tn <- tn a_k.  The stop is decided exactly on these integers, and the
    returned value and tail bound are the rationals sum and
    |G(K) t_K| * tail_factor as the unreduced pairs (N, D) and
    (|gt| f, D f') for tail_factor = f / f'.

    The caller's k0 promises a term ratio of at most rho for k >= k0, with
    1/(1-rho) <= tail_factor, so the bound covers the whole discarded tail,
    the tested term included.  When the test fails at k = max(k0, 1024),
    and again at each k = 2k + 1 after it, `_budget_cannot_certify` tries to
    prove that no test up to max_k + 1 can pass; if it does, the sum raises
    StepBudgetExceeded there instead of running out the budget.

    The steps run in ranges, each one product tree (`_segment`), and the
    states they reach are exactly those of the steps one by one, so every
    test below sees the same integers.  No test runs below k0, so the steps
    there are one range.  From then on a range [k, e) is taken only where
    no stop test in it can pass, which one exact comparison at e proves.

    Margin lemma.  Let k0 <= k < e, write u_j = |G(j) t_j|, S_j = N_j / D_j,
    tau = tail_factor, and suppose u_e tau (2^bits - 1) > max(1, |S_e|),
    that is |gt_e| f (2^bits - 1) > f' max(D_e, |N_e|) with tau = f / f'.
    Then the test fails at every j in [k, e).  Past k0 the terms contract
    by rho, so u_e <= u_j and the terms j..e-1 add up to at most
    u_j / (1 - rho) <= u_j tau, whence |S_j| <= |S_e| + u_j tau.  So
    u_j tau 2^bits >= u_e tau 2^bits > max(1, |S_e|) >= 1, and
    u_j tau 2^bits = u_j tau (2^bits - 1) + u_j tau
    >= u_e tau (2^bits - 1) + u_j tau > |S_e| + u_j tau >= |S_j|.

    From each exact state past k0, `_stop_guess` picks the end e of the
    next range, capped at the next budget check and at max_k + 1, so that
    every budget check, the final stop test and the step budget run at the
    same k on the same integers as one step at a time would.  Where the
    lemma fails at e, the range is halved; at one step, the step is taken.
    """
    t0, x = Fraction(t0), Fraction(x)
    up, lo, gw = _linear(upper), _linear(lower), _linear(weight)
    a0 = x.numerator * math.prod(q for q, _ in lo)
    b0 = x.denominator * math.prod(q for q, _ in up)
    f_num, f_den = tail_factor.numerator, tail_factor.denominator
    # the stop needs T << bits <= f_den max(D, |N|); for gt != 0 the left
    # side is >= 2^(len(gt) + len(f_num) + bits - 2) and the right side is
    # < 2^(len(f_den) + max(len(D), len(N))), so the exact test is only worth
    # running once len(gt) + slack < max(len(D), len(N))
    slack = f_num.bit_length() + bits - 2 - f_den.bit_length()
    need = bits + math.log2(f_num) - math.log2(f_den)

    def steps(k: int, e: int) -> tuple:
        # the integers a_j, b_j > 0 and g(j) of the steps k <= j < e; each
        # factor q j + p runs over range(q k + p, q e + p, q)
        a, b, g = [a0] * (e - k), [b0] * (e - k), [1] * (e - k)
        for q, p in up:
            a = list(map(mul, a, range(q * k + p, q * e + p, q)))
        for q, p in lo:
            b = list(map(mul, b, range(q * k + p, q * e + p, q)))
        for q, p in gw:
            g = list(map(mul, g, range(q * k + p, q * e + p, q)))
        if b and min(b) < 0:
            a = [-u if v < 0 else u for u, v in zip(a, b)]
            b = list(map(abs, b))
        return a, b, g

    # no stop test runs below k0: the steps there are one range
    k = min(k0, max_k + 1)
    P, Q, T = _segment(steps, 0, k)
    if not Q:
        raise InvalidInput("lower-parameter pole while summing")
    tn = t0.numerator
    N = tn * T
    D = math.prod(q for q, _ in gw) * t0.denominator * Q
    tn *= P
    check_at = max(k0, _BUDGET_CHECK_FROM)
    while True:
        (a, _), (b, _), (g, g1) = steps(k, k + 2)
        gt = tn * g
        if k >= k0 and (not gt or gt.bit_length() + slack
                        < max(D.bit_length(), N.bit_length())):
            T = abs(gt) * f_num
            if (T << bits) <= f_den * max(D, abs(N)):
                return BigFloat(N, D, T, D * f_den, bits)
        if k == check_at:
            if _budget_cannot_certify(x, upper, lower, weight, k, gt, N, D,
                                      tail_factor, bits, max_k + 1 - k):
                raise StepBudgetExceeded(
                    f"|z| = {abs(x)}: the terms provably stay above 2^-{bits} "
                    f"through the step budget of {max_k} terms"
                )
            check_at = 2 * k + 1
        if k > max_k:
            raise InsufficientPrecision("series did not certify within budget")
        if b == 0:
            raise InvalidInput("lower-parameter pole while summing")
        ratio = abs(a * g1) / (b * abs(g)) if gt else 0.0
        e = min(max(_stop_guess(k, gt, N, D, ratio, need), k + 1),
                check_at, max_k + 1)
        while e - k > 1:
            P, Q, T = _segment(steps, k, e)
            tn_e, N_e, D_e = tn * P, N * Q + tn * T, D * Q
            # the margin lemma at e: no stop test in [k, e) passes (a pole
            # in (k, e), Q = 0, breaks the caller's promise: step to it)
            _, _, (g_e,) = steps(e, e + 1)
            G = abs(tn_e * g_e) * f_num
            if Q and (G << bits) - G > f_den * max(D_e, abs(N_e)):
                break
            e = (k + e) // 2
        else:  # one step
            tn_e, N_e, D_e = tn * a, (N + gt) * b, D * b
        tn, N, D, k = tn_e, N_e, D_e, e


def _budget_cannot_certify(x, upper, lower, weight, K: int, gt: int, N: int,
                           D: int, tail_factor: Fraction, bits: int,
                           steps: int) -> bool:
    """True when no stop test of `_sum_series` at K..K+steps can pass, given
    that the one at K failed with term gt/D and partial sum N/D (a False
    proves nothing).

    For k >= K > max(|u|, |g|) and as many upper as lower factors, the term
    ratio is at least lam = |x| prod (K-|u|)/(K+|d|) prod (K-|g|)/(K+|g|):
    each factor (k-a)/(k+b) grows with k.  So every later term is at least
    T_K lam^steps, while |S| stays below |S_K| + T_K (1 + tail_factor) by
    the caller's ratio bound.  With lam = P/Q, ln(Q/P) <= (Q-P)/P and
    1/ln 2 < 1443/1000, so everything is decided on integer bit lengths.
    """
    upper, lower, weight = ([abs(Fraction(v)) for v in vs]
                            for vs in (upper, lower, weight))
    if len(upper) != len(lower) or K <= max(upper + weight, default=0):
        return False  # no geometric lower bound on the ratio from K on
    lam = abs(Fraction(x))
    for u, d in zip(upper, lower):
        lam *= (K - u) / (K + d)
    for g in weight:
        lam *= (K - g) / (K + g)
    if lam == 0:
        return False
    P, Q = lam.numerator, lam.denominator
    f_num, f_den = tail_factor.numerator, tail_factor.denominator
    scale = (D * f_den).bit_length()
    # log2(T_K tail_factor) >= low; log2 max(1, S bound) <= high
    low = (abs(gt) * f_num).bit_length() - 1 - scale
    s_num = abs(N) * f_den + abs(gt) * (f_den + f_num)
    high = max(0, s_num.bit_length() + 1 - scale)
    return (low + bits - high) * 1000 * P > steps * max(Q - P, 0) * 1443


def _sum_bounded(t0, x, terms: tuple, bound: tuple, bits: int) -> BigFloat:
    """`_sum_series` of the terms from t0 whose (upper, lower, weight) are
    `terms`, its stop tests from the first k0 = floor * 2^j at which the
    ratio bound |x| c of `_tail_ratio` over the parameter lists `bound` is
    at most rho: (1 + |x|)/2 when they have as many upper as lower
    parameters, 1/2 otherwise.  The tail factor is 1/(1 - rho): the
    discarded tail starts with the term the stop is tested on."""
    rho = (1 + abs(x)) / 2 if len(bound[0]) == len(bound[1]) else Fraction(1, 2)
    k0, c = _tail_ratio(*bound, 0)
    while abs(x) * c > rho:
        k0, c = _tail_ratio(*bound, 2 * k0)
    return _sum_series(t0, x, *terms, k0, 1 / (1 - rho), bits, 64 * bits + 4 * k0 + 64)


def eval_pFq(a, b, z, bits: int) -> BigFloat:
    """Generalized hypergeometric sum_k prod(a)_k/prod(b)_k * z^k/k!, with a
    certified geometric tail bound.  Requires |z| < 1 when len(a) == len(b)+1.

    The terms are summed by `_sum_bounded` on unreduced integers (term ratio
    z prod(k+a)/((k+1) prod(k+b))); in the ratio bound the k! enters as a
    lower parameter 0, since k + 1 >= k.  The stop at the first k >= k0
    whose tail bound is under 2^-bits max(1, |sum|) is decided exactly."""
    a = [Fraction(x) for x in a]
    b = [Fraction(x) for x in b]
    z = Fraction(z)
    for bj in b:
        if bj.denominator == 1 and bj <= 0:
            raise InvalidInput(f"lower parameter {bj} is a non-positive integer")
    if len(a) == len(b) + 1 and abs(z) >= 1:
        raise DivergentSeries("need |z| < 1 on the G-function disk")
    if len(a) > len(b) + 1 and z != 0:
        raise DivergentSeries("series diverges for p > q+1")
    if z == 0:
        return BigFloat(1, 1, 0, 1, bits)
    return _sum_bounded(1, z, (a, b + [Fraction(1)], ()), (a, b + [Fraction(0)], ()), bits)


def _f_direct(spec: HypergeometricSpec, s: int, w: Fraction, bits: int) -> BigFloat:
    """F_s(w) by direct summation of (k+gamma_1)...(k+gamma_s) c_k w^{k+1},
    from c_0 and c_{k+1}/c_k = prod(k+eta)/prod(k+1+zeta), by `_sum_bounded`
    with the stop decided exactly."""
    w = Fraction(w)
    if abs(w) >= 1:
        raise DivergentSeries("need |w| < 1")
    if w == 0:
        return BigFloat(0, 1, 0, 1, bits)
    params = _series_params(spec, s)
    return _sum_bounded(spec.c0 * w, w, params, params, bits)


def _f_closed(spec: HypergeometricSpec, s: int, w: Fraction, bits: int):
    """Closed form: F_0 = rF_{r-1}(a;b;w) - 1, and for s >= 1
    F_s = [prod a / prod_{j<=r-s} b_j] * w * rF_{r-1}(a+1; b+1 on the first
    r-s entries; w), rescaled when the seed c0 is not the default.

    Returns None when the closed form does not apply: a zero parameter, or a
    spec built from roots with zeta_r != 1 (whose recurrence is not the
    hypergeometric one, so no rescaling of the seed can bridge the two)."""
    a, b = spec.a, spec.b
    if spec.zeta[-1] != 1 or any(x == 0 for x in a) or any(x == 0 for x in b):
        return None
    c0_default = math.prod(a, start=Fraction(1)) / math.prod(b, start=Fraction(1))
    scale = spec.c0 / c0_default
    w = Fraction(w)
    if s == 0:
        inner = eval_pFq(a, b, w, bits + 8)
        front, top = scale, inner.num - inner.den  # the sum minus 1
    else:
        r = spec.r
        if s > r - 1:
            raise InvalidInput(f"s out of range: {s}")
        shifted_b = [bj + 1 for bj in b[: r - s]] + list(b[r - s:])
        front = math.prod(a, start=Fraction(1))
        for bj in b[: r - s]:
            front /= bj
        inner = eval_pFq([x + 1 for x in a], shifted_b, w, bits + 8)
        front, top = scale * front * w, inner.num
    # front times the sum's pairs, still unreduced
    c, d = front.numerator, front.denominator
    return BigFloat(c * top, d * inner.den, abs(c) * inner.err,
                    d * inner.err_den, bits)


def eval_F_family(spec: HypergeometricSpec, w, bits: int):
    """All r values F_0(w)..F_{r-1}(w), each certified, each computed by the
    direct series and (where defined) re-derived from the closed form; the two
    must agree within the certified bounds."""
    w = Fraction(w)
    out = []
    for s in range(spec.r):
        direct = _f_direct(spec, s, w, bits)
        closed = _f_closed(spec, s, w, bits)
        if closed is not None and not direct.agrees_with(closed):
            raise InsufficientPrecision(
                f"series and closed form disagree beyond certified error at s={s}: "
                f"{direct.num / direct.den} vs {closed.num / closed.den}"
            )
        out.append(direct)
    return out


# ---------------------------------------------------------------------------
# remainder identities at a rational point


def remainder_value(system, ell: int, i: int, s: int, beta, bits: int) -> BigFloat:
    """R_{ell,i,s}(beta) = sum_k psi_{i,s}(t^k P_ell)/beta^{k+1}, exact up to
    a stop index and with a certified bound on the rest.

    The discarded part is sum_{k >= K} psi_{i,s}(t^k P_ell)/beta^{k+1}; each
    |psi weight| chain w(k+d) contracts by at least `ratio` per step once k is
    past every parameter magnitude, so the whole thing is dominated by one
    geometric series.  The triangle-inequality bound carries the full
    sum |P_d| slack (the true psi sums cancel heavily), so exact terms are
    appended until the bound drops under the 2^-bits target.

    No stop test runs below k0, the first index of the ratio bound
    (`PadeSystem.tail_ratio`, past the window), so the sum up to k0
    is taken whole from prefix sums of the psi weights (`_head_sum`),
    without a single coefficient psi_{i,s}(t^k P_ell): no window is built.
    From k0 on, a size sum_d |P_d| |w_{k+d}| (`PadeSystem.size`) is read at
    each stop test and a term (`PadeSystem.terms`) only once that test has
    failed, so past the window the lists grow only as far as some sum reads
    them: a sum that stops at its first test reads one size and no term.
    A size is read as the unreduced pair (sa, sb) the system keeps, and a
    term as its unreduced pair (a, b), with no gcd: the stop test and the
    bound below are homogeneous in (sa, sb), and a term enters N / L only
    as the rational a / b.
    Everything but |alpha/beta| and the prefix sums is set up once per
    system and shared by every beta and precision.

    As in `_sum_series`, the sum stays on unreduced integers.  With
    beta = p/q (p > 0, the sign on q), the sum through the 1/z^e term is
    N / (L p^e), L > 0 a common denominator of its coefficients: each
    coefficient a/b past k0 enters as N <- N (b/g) p + a (L/g) q^{e+1},
    L <- L b/g, with g = gcd(L, b).  The stop test
    bound > 2^-bits max(|S|, 2^-bits) is decided exactly on integers (p^e
    cancels from the |S| side); it is homogeneous in (N, L) and in the size's
    (sa, sb), and its bit-length prefilter is a necessary condition for any
    such pairs, so the value, the bound (both unreduced pairs in the
    BigFloat) and the stop index are those of the term-by-term Fraction sum.
    """
    beta = Fraction(beta)
    x = Fraction(system.alphas[i - 1]) / beta
    if abs(x) >= 1:
        raise DivergentSeries("need |alpha/beta| < 1")
    kmin, per_x = system.tail_ratio(s)
    ratio0 = abs(x) * per_x
    if ratio0 >= 1:
        raise InsufficientPrecision(
            f"tail ratio bound not contracting: it needs |alpha/beta| < 1/c ="
            f" {1 / per_x}, got {abs(x)}; take a larger --beta,"
            f" |beta| > |alpha| c = {abs(x * beta) * per_x}")
    geom = 1 / (1 - ratio0)

    p, q = beta.numerator, beta.denominator
    if p < 0:
        p, q = -p, -q
    # before term k (exponent k + 1): S = N / (L p^k) and qe = q^(k+1)
    k = kmin
    N, L = _head_sum(system, ell, i, s, p, q, k)
    pk, qe = p ** k, q ** (k + 1)
    # the step budget: 64 bits + 64 terms past the window, and past kmin
    budget = max(kmin, system.truncation + 64 * bits + 63)
    gn, gd = geom.numerator, geom.denominator
    # with size = sa/sb, bound = sa |q|^(k+1) gn / (sb p^(k+1) gd), and the
    # sum goes on while sa |q|^(k+1) gn L 2^(2 bits) > sb p gd max(|N| 2^bits,
    # L p^k); bit lengths settle that until the two sides come within `wide`
    wide = p.bit_length() + gd.bit_length() - gn.bit_length() + 4 - 2 * bits
    while True:
        if k > budget:
            raise InsufficientPrecision(
                "remainder tail did not certify within the step budget"
            )
        sa, sb = system.size(ell, i, s, k)
        qa = abs(qe)
        big = max(N.bit_length() + bits, L.bit_length() + pk.bit_length())
        if not sa or (
            sa.bit_length() + qa.bit_length() + L.bit_length()
            < sb.bit_length() + big + wide
            and (sa * qa * gn * L << 2 * bits)
            <= sb * p * gd * max(abs(N) << bits, L * pk)
        ):
            break
        a, b = system.terms(ell, i, s, k)[k]
        g = math.gcd(L, b)
        b //= g
        N = N * b * p + a * (L // g) * qe
        L *= b
        qe *= q
        pk *= p
        k += 1
    return BigFloat(N, L * pk, sa * qa * gn, sb * pk * p * gd, bits)


def _head_sum(system, ell: int, i: int, s: int, p: int, q: int, K: int) -> tuple:
    """(N, L), L > 0, with N / (L p^K) the sum over k < K of
    psi_{i,s}(t^k P_ell) / beta^{k+1} for beta = p/q, taken from prefix sums
    of the psi weights w_x without one coefficient psi_{i,s}(t^k P_ell).

    Reordered by y = k + d, the sum is sum_d P_d beta^d (W_{K+d} - W_d) with
    W_y = sum_{x<y} w_x beta^{-x-1}, D = deg P_ell.  On the system's integer
    forms P_d = Pn_d / dp and w_x = wn_x / V (the row `PadeSystem.P`,
    `weight_run(i, s, 0, K)`), U_y = V p^y W_y steps as U_0 = 0,
    U_{y+1} = U_y p + wn_y q^{y+1}, so
    N = sum_d Pn_d q^{D-d} (U_{K+d} - p^K U_d) over L = dp V q^D, the sign
    moved onto N.  That is the same rational as the sum of the
    coefficients, which are the window's from its order on and exact zeros
    below it."""
    dp, Pn = system.P[ell]
    V, wn = system.weight_run(i, s, 0, K)
    D = len(Pn) - 1
    U, u, qy = [0], 0, q
    for y in range(K + D):
        u = u * p + wn[y] * qy
        U.append(u)
        qy *= q
    # N = sum_d Pn_d q^{D-d} U_{K+d} - p^K sum_d Pn_d q^{D-d} U_d
    top = low = 0
    qd = 1
    for d in range(D, -1, -1):
        c = Pn[d] * qd
        top += c * U[K + d]
        low += c * U[d]
        qd *= q
    N, L = top - p ** K * low, dp * V * q ** max(D, 0)
    return (-N, -L) if L < 0 else (N, L)
