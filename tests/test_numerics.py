"""Certified evaluation: interval values, series routes, remainder identities."""

import dataclasses
import decimal
import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    check_remainder_identity,
    correlate,
    error_of,
    f_s_coefficient,
    head_filled,
    poly_eval,
    psi_weights,
    row_values,
    window_values,
)
from hgpade import numerics, pade
from hgpade.cli import main
from hgpade.errors import (
    DivergentSeries,
    HypothesisViolation,
    InsufficientPrecision,
    InvalidInput,
    StepBudgetExceeded,
)
from hgpade.numerics import (
    BigFloat,
    _f_direct,
    eval_F_family,
    eval_pFq,
    remainder_value,
)
from hgpade.pade import build_system
from hgpade.polyops import HypergeometricSpec

F = Fraction


decimal.getcontext().prec = 50  # the stdlib oracle must out-resolve 2^-160


def _as_decimal(x: Fraction) -> decimal.Decimal:
    return decimal.Decimal(x.numerator) / decimal.Decimal(x.denominator)


# ---------------------------------------------------------------------------
# the interval scalar


def _of(value, error, bits: int) -> BigFloat:
    """The BigFloat of two rationals, as their reduced pairs."""
    value, error = F(value), F(error)
    return BigFloat(value.numerator, value.denominator, error.numerator,
                    error.denominator, bits)


def _cmp(x: BigFloat, other) -> int:
    """-1, 0, +1 of x against a rational or another BigFloat; raises when
    the certified intervals overlap without coinciding."""
    if isinstance(other, BigFloat):
        lo = (other.value - error_of(other), other.value + error_of(other))
    else:
        lo = (F(other), F(other))
    if x.value + error_of(x) < lo[0]:
        return -1
    if x.value - error_of(x) > lo[1]:
        return 1
    if error_of(x) == 0 and lo[0] == lo[1] == x.value:
        return 0
    raise InsufficientPrecision("certified intervals overlap")


def test_bigfloat_invariants():
    x = BigFloat(1, 3, 1, 1000, 64)
    assert _cmp(x, F(1)) == -1
    assert _cmp(x, F(0)) == 1
    with pytest.raises(InsufficientPrecision):
        _cmp(x, F(1, 3))  # inside the interval: not decidable
    exact = BigFloat(1, 3, 0, 1, 64)
    assert _cmp(exact, F(1, 3)) == 0
    for err, err_den in ((-1, 1), (1, -1)):
        with pytest.raises(InvalidInput):
            BigFloat(1, 1, err, err_den, 64)
    with pytest.raises(InvalidInput):
        BigFloat(1, 0, 0, 1, 64)
    # a sign moves onto the numerator; the pairs stay unreduced
    y = BigFloat(2, -6, -2, -2000, 64)
    assert (y.num, y.den, y.err, y.err_den) == (-2, 6, 2, 2000)
    assert (y.value, error_of(y)) == (F(-1, 3), F(1, 1000))
    # the reduced value is made once, and cannot be assigned
    assert y.value is y.value
    with pytest.raises(dataclasses.FrozenInstanceError):
        y.value = F(0)


def test_bigfloat_agreement():
    a = BigFloat(10, 7, 1, 100, 64)
    b = BigFloat(143, 100, 1, 100, 64)
    assert a.agrees_with(b)
    c = BigFloat(2, 1, 1, 100, 64)
    assert not a.agrees_with(c)


def test_bigfloat_decimal_and_exponent():
    x = BigFloat(1, 3, 1, 2**100, 128)
    assert x.to_decimal(12) == "0.333333333333"
    assert x.to_decimal(3) == "0.333"
    assert BigFloat(-1, 4, 0, 1, 8).to_decimal(4) == "-0.2500"
    assert x.error_exponent() == 100
    assert BigFloat(1, 1, 0, 1, 96).error_exponent() == 96  # exact: full budget


def _error_exponent_by_doubling(error: Fraction, bits: int) -> int:
    """The doubling loop error_exponent replaced, kept as its oracle."""
    if error == 0:
        return bits
    k = 0
    e = Fraction(error)
    while e <= Fraction(1, 2) and k < 4 * bits + 64:
        e *= 2
        k += 1
    return k


def test_error_exponent_matches_doubling_loop():
    rng = random.Random(20261018)
    cases = [(F(0), 7), (F(1), 8), (F(3, 2), 8), (F(1, 2), 8), (F(2, 3), 1)]
    for _ in range(3000):
        bits = rng.randint(1, 64)
        cap = 4 * bits + 64
        cases += [
            # random rationals, of either size
            (F(rng.randint(1, 2 ** rng.randint(1, 400)),
               rng.randint(1, 2 ** rng.randint(1, 400))), bits),
            # exact powers of two, and their neighbours
            (F(2) ** rng.randint(-cap - 40, 8) * rng.choice((1, F(2**20 - 1, 2**20),
                                                              F(2**20 + 1, 2**20))), bits),
            # at the cap
            (F(2) ** (rng.randint(-3, 3) - cap) * rng.choice((1, F(3, 4), F(5, 4))), bits),
        ]
    for error, bits in cases:
        got = _of(0, error, bits).error_exponent()
        assert got == _error_exponent_by_doubling(error, bits), (error, bits)


def _random_value(rng) -> Fraction:
    return F(rng.randint(-2 ** rng.randint(0, 300), 2 ** rng.randint(0, 300)),
             rng.randint(1, 2 ** rng.randint(0, 300)))


def _random_error(rng) -> Fraction:
    """A nonzero error from about 2^-300 to 2^300: above 2^64 clamps the
    K of `agrees_with` at 0."""
    return F(rng.randint(1, 2 ** rng.randint(0, 300)),
             rng.randint(1, 2 ** rng.randint(0, 300)))


def _unreduced(value, error, bits: int, rng) -> BigFloat:
    """value +- error as pairs times random factors of either sign."""
    value, error = F(value), F(error)
    k, j = (rng.choice((1, -1)) * rng.randint(1, 2 ** rng.randint(0, 90))
            for _ in range(2))
    return BigFloat(k * value.numerator, k * value.denominator,
                    j * error.numerator, j * error.denominator, bits)


@pytest.fixture
def exact_calls(monkeypatch):
    """The calls `agrees_with` makes to its exact test."""
    calls = []
    exact = numerics._agrees_exactly

    def counted(x, y):
        calls.append((x, y))
        return exact(x, y)

    monkeypatch.setattr(numerics, "_agrees_exactly", counted)
    return calls


def test_agreement_equals_the_fraction_oracle(exact_calls):
    # random unreduced pairs of either sign: a second value near the first
    # (within a random multiple 0..2 of the summed errors) or anywhere,
    # errors of any size or zero
    rng = random.Random(20261019)
    seen = set()
    for _ in range(3000):
        x1, e1, e2 = _random_value(rng), _random_error(rng), _random_error(rng)
        if rng.random() < 0.2:
            e1 = F(0)
        if rng.random() < 0.2:
            e2 = F(0)
        x2 = rng.choice((
            _random_value(rng),
            x1 + rng.choice((1, -1)) * (e1 + e2) * F(rng.randint(0, 2**20), 2**19),
            x1,
        ))
        a, b = _unreduced(x1, e1, 64, rng), _unreduced(x2, e2, 64, rng)
        want = abs(x1 - x2) <= e1 + e2
        before = len(exact_calls)
        assert a.agrees_with(b) == want == b.agrees_with(a), (a, b)
        if not (e1 and e2):
            assert len(exact_calls) == before + 2
        seen.add(want)
    assert seen == {True, False}


def test_agreement_near_the_fast_path_bounds(exact_calls):
    # K, v = floor(x 2^K) and u = ceil(e 2^K) as `agrees_with` takes them
    # from the pairs it is given, and a second value placed so that
    # |v1 - v2| runs over u1 + u2 - 3 .. u1 + u2 + 2: the four gaps
    # u1 + u2 - 2 .. u1 + u2 + 1 reach the exact test, the two outside
    # them are decided on the quotients, and all match the oracle
    rng = random.Random(20261019)
    band, clamped = set(), 0
    for _ in range(400):
        sides = [_unreduced(0, _random_error(rng), 64, rng) for _ in range(2)]
        K = 64 + max(s.err_den.bit_length() - s.err.bit_length() for s in sides)
        clamped += K < 0
        K = max(0, K)
        width = -sum((-s.err << K) // s.err_den for s in sides)
        x1 = _random_value(rng)
        v1 = (x1.numerator << K) // x1.denominator
        for delta in range(-3, 3):
            v2 = v1 + rng.choice((1, -1)) * (width + delta)
            x2 = (v2 + F(rng.randint(0, 2**32 - 1), 2**32)) / 2**K
            a, b = (BigFloat(x.numerator, x.denominator, s.err, s.err_den, 64)
                    for x, s in zip((x1, x2), sides))
            before = len(exact_calls)
            got = a.agrees_with(b)
            assert got == (abs(x1 - x2) <= error_of(sides[0]) + error_of(sides[1]))
            assert (len(exact_calls) > before) == (-2 <= delta <= 1), delta
            if delta < 1:
                band.add(got)
    assert band == {True, False} and clamped


def _decimal_of(value: Fraction, digits: int) -> str:
    """The Fraction form `to_decimal` replaced, kept as its oracle."""
    whole = int(value * 10**digits)  # truncation toward zero
    sign = "-" if whole < 0 else ""
    ds = str(abs(whole)).rjust(digits + 1, "0")
    return f"{sign}{ds[:-digits]}.{ds[-digits:]}"


def test_decimal_and_exponent_depend_only_on_the_value():
    # both pairs scaled by random factors of either sign read as their
    # reduced pairs and as the Fraction oracles: negative values truncate
    # toward zero, a zero error gives the full budget, tiny errors the cap
    rng = random.Random(20261019)
    cases = [(F(-1, 3), F(0), 8, 3), (F(-1, 10**5), F(1, 7), 8, 3),
             (F(-7, 2), F(1, 2**400), 16, 5), (F(0), F(3, 2), 8, 1)]
    for _ in range(1500):
        bits = rng.randint(1, 64)
        cap = 4 * bits + 64
        error = rng.choice((F(0), _random_error(rng),
                            F(rng.randint(1, 3), 2 ** (cap + rng.randint(-3, 40)))))
        cases.append((_random_value(rng), error, bits, rng.randint(1, 60)))
    for value, error, bits, digits in cases:
        reduced, scaled = _of(value, error, bits), _unreduced(value, error, bits, rng)
        assert scaled.to_decimal(digits) == reduced.to_decimal(digits) \
            == _decimal_of(value, digits)
        assert scaled.error_exponent() == reduced.error_exponent() \
            == _error_exponent_by_doubling(error, bits)
    assert _of(F(-1, 3), 0, 8).to_decimal(3) == "-0.333"
    assert _of(F(-1, 10**5), 0, 8).to_decimal(3) == "0.000"


# ---------------------------------------------------------------------------
# reference series: one reduced Fraction per term, the stop tested on
# Fractions; the package sums the same terms on unreduced integers


def _naive_pFq(a, b, z, bits: int) -> BigFloat:
    a = [Fraction(x) for x in a]
    b = [Fraction(x) for x in b]
    z = Fraction(z)
    rho = (1 + abs(z)) / 2 if len(a) == len(b) + 1 else Fraction(1, 2)
    kmin = 1 + max([0] + [int(abs(x)) + 1 for x in b] + [int(abs(x)) + 1 for x in a])

    def ratio_bound(k: int) -> Fraction:
        out = abs(z) * Fraction(k) ** (len(a) - len(b) - 1)
        for x in a:
            out *= 1 + abs(x) / k
        for x in b:
            out /= 1 - abs(x) / k
        return out

    k0 = kmin
    while ratio_bound(k0) > rho:
        k0 *= 2
    target = Fraction(1, 2**bits)
    term, total, k = Fraction(1), Fraction(0), 0
    while True:
        total += term
        num, den = Fraction(1), Fraction(k + 1)
        for x in a:
            num *= x + k
        for x in b:
            den *= x + k
        term = term * z * num / den
        k += 1
        if k >= k0:
            tail = abs(term) / (1 - rho)  # the tail starts with this term
            if tail <= target * max(Fraction(1), abs(total)):
                return _of(total, tail, bits)


def _naive_f_direct(spec: HypergeometricSpec, s: int, w, bits: int) -> BigFloat:
    w = Fraction(w)
    rho = (1 + abs(w)) / 2
    gmax = max([abs(g) for g in spec.gamma[:s]], default=Fraction(0))
    kmin = 2 + int(max([abs(x) for x in spec.eta] + [abs(1 + z) for z in spec.zeta] + [gmax]))

    def ratio_bound(k: int) -> Fraction:
        out = abs(w)
        for x in spec.eta:
            out *= 1 + abs(x) / k
        for zj in spec.zeta:
            out /= 1 - abs(1 + zj) / k
        return out * (1 + 1 / (k - gmax)) ** s

    k0 = kmin
    while ratio_bound(k0) > rho:
        k0 *= 2
    target = Fraction(1, 2**bits)
    total, k, wpow = Fraction(0), 0, w
    while True:
        total += f_s_coefficient(spec, s, k) * wpow
        wpow *= w
        k += 1
        if k >= k0:
            tail = abs(f_s_coefficient(spec, s, k) * wpow) / (1 - rho)
            if tail <= target * max(Fraction(1), abs(total)):
                return _of(total, tail, bits)


def _lerch(c: int, x, w, bits: int) -> BigFloat:
    """sum_{k>=0} w^{k+1}/(x+k+1)^c — the classical one-variable ladder the
    order-r family specializes to at equal parameters."""
    x, w = Fraction(x), Fraction(w)
    if abs(w) >= 1:
        raise DivergentSeries("need |w| < 1")
    target = Fraction(1, 2**bits)
    total, k, wpow = Fraction(0), 0, w
    while True:
        total += wpow / (x + k + 1) ** c
        k += 1
        wpow *= w
        tail = abs(wpow / (x + k + 1) ** c) / (1 - abs(w))
        if tail <= target * max(Fraction(1), abs(total)):
            return _of(total, tail, bits)


_small_fractions = st.builds(F, st.integers(-7, 7), st.integers(2, 6)).filter(
    lambda x: x.denominator > 1
)
_arguments = st.builds(F, st.integers(-16, 16).filter(bool), st.integers(32, 64))


@st.composite
def _admissible_specs(draw):
    """r <= 3, small-height non-integer a and b that pass the hypothesis flags."""
    r = draw(st.integers(1, 3))
    a = draw(st.lists(_small_fractions, min_size=r, max_size=r))
    b = draw(st.lists(_small_fractions, min_size=r - 1, max_size=r - 1))
    spec = HypergeometricSpec.from_ab(a, b)
    assume(spec.flags_pass())
    return spec


def _same(got: BigFloat, want: BigFloat) -> bool:
    return (got.value, error_of(got), got.bits) == (want.value, error_of(want), want.bits)


@settings(deadline=None, derandomize=True, max_examples=60)
@given(_admissible_specs(), _arguments, st.sampled_from((16, 64, 160)))
def test_series_equal_the_reference_sums(spec, z, bits):
    # |z| <= 1/2 of both signs, every s, and the shifted closed-form sums
    r = spec.r
    assert _same(eval_pFq(spec.a, spec.b, z, bits), _naive_pFq(spec.a, spec.b, z, bits))
    for s in range(r):
        assert _same(_f_direct(spec, s, z, bits), _naive_f_direct(spec, s, z, bits))
        a1 = [x + 1 for x in spec.a]
        b1 = [y + 1 for y in spec.b[: r - s]] + list(spec.b[r - s:])
        assert _same(eval_pFq(a1, b1, z, bits), _naive_pFq(a1, b1, z, bits))


@pytest.mark.parametrize("a, b, z", [
    ((), (), F(1)),                          # p < q + 1: exp(1)
    ((), (F(1, 3),), F(-5, 2)),               # p < q + 1, large |z|
    ((F(1, 2),), (F(-3, 2), F(2, 5)), F(3)),  # p < q + 1, negative lower factors
    ((F(-3), F(1, 2)), (F(1, 3),), F(1, 2)),  # terminates: the terms reach zero
    ((), (), F(1, 4)),                        # p < q + 1: no parameter but the k!
])
def test_pFq_equals_the_reference_sum(a, b, z):
    for bits in (1, 8, 96):  # at 1 bit 0F0 at z = 1/4 stops at its floor
        assert _same(eval_pFq(a, b, z, bits), _naive_pFq(a, b, z, bits))


@pytest.mark.parametrize("a", [(F(999, 2), F(1, 4)), (F(301, 3), F(1, 5)),
                               (F(99, 2), F(1, 4))])
@pytest.mark.parametrize("b", [(F(1, 2),), (F(7, 3),)])
def test_pFq_interval_contains_the_mpmath_value(a, b):
    # large upper parameters and few bits: the sum stops where the terms
    # still fall slowly, so the first discarded term is a large part of the
    # tail and an error bound that leaves it out is too small
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.prec = 1200

    def q(x):
        return mp.mpf(x.numerator) / x.denominator

    for z in (F(1, 3), F(-1, 2), F(2, 3)):
        truth = mp.hyper([q(x) for x in a], [q(y) for y in b], q(z))
        for bits in (1, 8):
            got = eval_pFq(a, b, z, bits)
            slack = mp.mpf(2) ** -1100 * max(1, abs(truth))  # the oracle's rounding
            assert abs(q(got.value) - truth) <= q(error_of(got)) + slack, (z, bits)


def test_from_roots_spec_equals_the_reference_sum():
    # zeta_r = 2 != 1: only the direct route applies
    spec = HypergeometricSpec.from_roots((F(5, 3), F(1, 4)), (F(3, 2), F(2)), F(-2, 7))
    for z in (F(1, 2), F(-3, 7)):
        for s in range(spec.r):
            assert _same(_f_direct(spec, s, z, 128), _naive_f_direct(spec, s, z, 128))


# ---------------------------------------------------------------------------
# the series kernel against the step loop it replaced: the same unreduced
# integers at the same indices, so the same BigFloat, bit for bit


def _sum_series_by_steps(t0, x, upper, lower, weight, k0, tail_factor, bits, max_k):
    """`_sum_series` one step at a time, every stop test and budget check
    in place: the loop the product-tree kernel replaced, kept as its oracle
    (without its bit-length shortcut to the stop test, which decides
    nothing)."""
    t0, x = Fraction(t0), Fraction(x)
    up, lo, gw = (numerics._linear(v) for v in (upper, lower, weight))
    a0 = x.numerator * math.prod(q for q, _ in lo)
    b0 = x.denominator * math.prod(q for q, _ in up)
    f_num, f_den = tail_factor.numerator, tail_factor.denominator
    tn = t0.numerator
    D = math.prod(q for q, _ in gw) * t0.denominator
    N = 0
    k = 0
    check_at = max(k0, numerics._BUDGET_CHECK_FROM)
    while True:
        gt = tn
        for q, p in gw:
            gt *= q * k + p
        if k >= k0:
            T = abs(gt) * f_num
            if (T << bits) <= f_den * max(D, abs(N)):
                return BigFloat(N, D, T, D * f_den, bits)
        if k == check_at:
            if numerics._budget_cannot_certify(x, upper, lower, weight, k, gt, N, D,
                                               tail_factor, bits, max_k + 1 - k):
                raise StepBudgetExceeded("the step budget cannot certify")
            check_at = 2 * k + 1
        if k > max_k:
            raise InsufficientPrecision("series did not certify within budget")
        a, b = a0, b0
        for q, p in up:
            a *= q * k + p
        for q, p in lo:
            b *= q * k + p
        if b == 0:
            raise InvalidInput("lower-parameter pole while summing")
        if b < 0:
            a, b = -a, -b
        N = (N + gt) * b
        D *= b
        tn *= a
        k += 1


def _by_steps(fn, *args):
    with pytest.MonkeyPatch.context() as m:
        m.setattr(numerics, "_sum_series", _sum_series_by_steps)
        return fn(*args)


def _kernel_calls(spec, z, bits):
    # eval_pFq, and per s the direct sum of F_s and its shifted closed form
    r = spec.r
    calls = [(eval_pFq, spec.a, spec.b, z, bits)]
    for s in range(r):
        b1 = [y + 1 for y in spec.b[: r - s]] + list(spec.b[r - s:])
        calls += [(_f_direct, spec, s, z, bits),
                  (eval_pFq, [x + 1 for x in spec.a], b1, z, bits)]
    return calls


@settings(deadline=None, derandomize=True, max_examples=40)
@given(_admissible_specs(), _arguments, st.sampled_from((1024, 2048)))
def test_series_kernel_equals_the_step_loop(spec, z, bits):
    # |z| <= 1/2 of both signs, every s, and the shifted closed-form sums
    for fn, *args in _kernel_calls(spec, z, bits):
        assert _same(fn(*args), _by_steps(fn, *args)), (fn.__name__, args)


_R3 = HypergeometricSpec.from_ab((F(1, 3), F(1, 4), F(1, 5)), (F(1, 2), F(2, 3)))


@pytest.mark.parametrize("fn, args", [
    *((_f_direct, (_R3, s, F(1, 3), 4096)) for s in range(3)),
    (eval_pFq, ((), (F(1, 3),), F(-5, 2), 4096)),            # p < q + 1
    (eval_pFq, ((F(-3), F(1, 2)), (F(1, 3),), F(1, 2), 4096)),  # terminates
    (eval_pFq, ((), (F(1, 3),), F(-5, 2), 1024)),
    (eval_pFq, ((F(-3), F(1, 2)), (F(1, 3),), F(1, 2), 1024)),
    # the budget proof fails at k = 1024 and refuses at k = 2049
    (eval_pFq, ((F(1, 3), F(1, 4)), (F(1, 2),), F(199, 200), 64)),
])
def test_series_kernel_equals_the_step_loop_at_fixed_cases(fn, args):
    assert _outcome(fn, *args) == _by_steps(_outcome, fn, *args)


@pytest.mark.parametrize("guess", ["k", "past max_k", "random"])
def test_the_stop_guess_decides_nothing(guess, capsys):
    # the guess only picks where a jump is tried: guesses that are always
    # one step, always past the step budget (capped at max_k + 1, so every
    # jump fails its margin test first and is halved) or random give the
    # same BigFloat and the same budget refusal
    rng = random.Random(20261018)
    adversary = {
        "k": lambda k, *rest: k,
        "past max_k": lambda k, *rest: 1 << 62,
        "random": lambda k, *rest: k + rng.randint(-8, 4096),
    }[guess]
    calls = _kernel_calls(_R3, F(1, 3), 1024) + _kernel_calls(_R3, F(-1, 2), 512)
    calls += [(eval_pFq, (), (F(1, 3),), F(-5, 2), 1024),
              (eval_pFq, (F(-3), F(1, 2)), (F(1, 3),), F(1, 2), 1024),
              (eval_pFq, (F(1, 3), F(1, 4)), (F(1, 2),), F(199, 200), 64)]
    want = [_outcome(*call) for call in calls]
    assert want[-1] is StepBudgetExceeded
    with pytest.MonkeyPatch.context() as m:
        m.setattr(numerics, "_stop_guess", adversary)
        for call, outcome in zip(calls, want):
            assert _outcome(*call) == outcome, call
        argv = ["eval", "--a=1/3,1/4", "--b=1/2", "--z=999/1000", "--bits=512"]
        assert main(argv) == 1
    err = capsys.readouterr().err
    assert "StepBudgetExceeded" in err and "--z" in err


# ---------------------------------------------------------------------------
# series evaluation against classical closed forms (stdlib decimal oracle)


def test_2F1_log():
    # 2F1(1,1;2;z) = -log(1-z)/z at z = 1/2: value 2 log 2
    got = eval_pFq((F(1), F(1)), (F(2),), F(1, 2), 160)
    want = 2 * decimal.Decimal(2).ln()
    assert abs(_as_decimal(got.value) - want) < decimal.Decimal(10) ** -40
    assert error_of(got) <= F(1, 2**155)


def test_1F0_binomial():
    # 1F0(1/2;;z) = (1-z)^(-1/2) at z = 1/4: value 2/sqrt(3)
    got = eval_pFq((F(1, 2),), (), F(1, 4), 160)
    want = 2 / decimal.Decimal(3).sqrt()
    assert abs(_as_decimal(got.value) - want) < decimal.Decimal(10) ** -40


def test_0F0_exp():
    got = eval_pFq((), (), F(1), 128)  # no convergence restriction below p = q+1
    want = decimal.Decimal(1).exp()
    assert abs(_as_decimal(got.value) - want) < decimal.Decimal(10) ** -35


def test_pFq_guards():
    with pytest.raises(DivergentSeries):
        eval_pFq((F(1), F(1)), (F(2),), F(1), 64)  # |z| >= 1 on the disk
    with pytest.raises(DivergentSeries):
        eval_pFq((F(1), F(1), F(1)), (F(2),), F(1, 2), 64)  # p > q+1
    with pytest.raises(InvalidInput):
        eval_pFq((F(1),), (F(-2),), F(1, 2), 64)  # non-positive lower parameter
    assert eval_pFq((F(1), F(1)), (F(2),), F(0), 64).value == 1


def test_lerch_log2():
    # the Lerch oracle itself, against the stdlib
    got = _lerch(1, F(0), F(1, 2), 160)
    want = decimal.Decimal(2).ln()
    assert abs(_as_decimal(got.value) - want) < decimal.Decimal(10) ** -40
    with pytest.raises(DivergentSeries):
        _lerch(1, F(0), F(1), 64)


def test_family_specializes_to_lerch():
    # equal roots eta = zeta = (x+1,...) give c_k = 1/(x+k+1)^r, so
    # F_s(w) = sum w^(k+1)/(x+k+1)^(r-s): the classical ladder at x = 1/2
    x = F(1, 2)
    spec = HypergeometricSpec.from_roots(
        (x + 1,) * 3, (x + 1,) * 3, 1 / (x + 1) ** 3
    )
    for k in range(5):
        assert spec.c(k) == 1 / (x + k + 1) ** 3
    vals = eval_F_family(spec, F(1, 3), 192)
    for s in range(3):
        ladder = _lerch(3 - s, x, F(1, 3), 192)
        assert vals[s].agrees_with(ladder)
        assert abs(vals[s].value - ladder.value) <= F(1, 2**180)


def test_family_dual_route_canonical(spec_r2):
    # the direct series and the closed form are cross-checked inside; freeze
    # the certified 30-digit decimals at w = 1/7
    vals = eval_F_family(spec_r2, F(1, 7), 512)
    assert vals[0].to_decimal(30) == "0.025911802738654299509964214560"
    assert vals[1].to_decimal(30) == "0.028253552821257868789923775257"
    assert vals[0].error_exponent() >= 512
    assert vals[1].error_exponent() >= 512


@settings(deadline=None, derandomize=True, max_examples=30)
@given(_admissible_specs(), _arguments)
def test_family_intervals_contain_mpmath_values(spec, z):
    # an outside oracle: mpmath at 600 bits; F_0 = rF_{r-1}(a; b; z) - 1 and,
    # for s >= 1, F_s = prod(a)/(b_1...b_{r-s}) z rF_{r-1}(a+1; b_1+1, ...,
    # b_{r-s}+1, b_{r-s+1}, ..., b_{r-1}; z)
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.prec = 600

    def q(x):
        return mp.mpf(x.numerator) / x.denominator

    a, b, r = [q(x) for x in spec.a], [q(y) for y in spec.b], spec.r
    zz = q(z)
    truth = [mp.hyper(a, b, zz) - 1]
    for s in range(1, r):
        front = mp.fprod(a) / mp.fprod(b[: r - s]) * zz
        truth.append(front * mp.hyper([x + 1 for x in a],
                                      [y + 1 for y in b[: r - s]] + b[r - s:], zz))
    got = eval_F_family(spec, z, 256)
    for v, t in zip(got, truth):
        # the oracle's own rounding is far below 2^-256
        slack = mp.mpf(2) ** -520 * max(1, abs(t))
        assert abs(q(v.value) - t) <= q(error_of(v)) + slack


def test_family_rejects_outside_disk(spec_r2):
    with pytest.raises(DivergentSeries):
        eval_F_family(spec_r2, F(1), 64)
    assert eval_F_family(spec_r2, F(0), 64)[0].value == 0


# ---------------------------------------------------------------------------
# remainder values at a rational point


@pytest.fixture(scope="module")
def system_n4(spec_r2):
    return build_system(spec_r2, (F(1),), 4)


def test_remainder_value_frozen(system_n4):
    # R_{0,1,0}(2), frozen (matches the direct-product route)
    got = remainder_value(system_n4, 0, 1, 0, F(2), 128)
    assert float(got.value) == pytest.approx(-6.567703164992704e-04, rel=1e-12)
    assert error_of(got) <= F(1, 2**100)  # certified well past float precision


def test_remainder_value_matches_direct_route(system_n4):
    # P_0(beta) F_s(alpha/beta) - P_{0,i,s}(beta) lands inside the certified
    # interval of the tail-sum route
    beta = F(2)
    vals = eval_F_family(system_n4.spec, F(1) / beta, 256)
    P0b = poly_eval(row_values(system_n4.P[0]), beta)
    for s in (0, 1):
        direct = P0b * vals[s].value - poly_eval(row_values(system_n4.Pis[(0, 1, s)]), beta)
        tail_route = remainder_value(system_n4, 0, 1, s, beta, 128)
        assert abs(direct - tail_route.value) <= error_of(tail_route) + error_of(vals[s]) * abs(P0b)


def test_remainder_value_guards(system_n4):
    with pytest.raises(DivergentSeries):
        remainder_value(system_n4, 0, 1, 0, F(1, 2), 64)  # |alpha/beta| >= 1


def _grown(stop, end, k):
    """The length of a list that held the entries below `stop` (by exponent)
    after a read at k: a read past its end grows it to max(k + 1, twice its
    part past the window end)."""
    return stop if k < stop else max(k + 1, 2 * stop - end)


def test_remainder_value_cache_consistent(spec_r2, check_remainder_lists,
                                          remainder_state):
    # one system's lists, filled at 32 bits and grown by a higher precision
    # and a second beta: every answer, bound included, is the term-by-term
    # Fraction sum's, the lists only ever grow, and they grow by the growth
    # rule from exactly the reads of that sum (a size at each stop test, a
    # term from the first stop test to the stop index) and from nothing
    # else; no sum fills the head or makes the stored window
    alphas, key = (F(1),), (2, 1, 1)
    reused = build_system(spec_r2, alphas, 4, cross_check=False)
    end = reused.truncation - 1
    terms_stop = sizes_stop = end  # the exponents each list holds, below
    seen = []
    for beta, bits in ((F(10**6), 32), (F(3), 32), (F(3), 32), (F(3), 256),
                       (F(-7, 2), 256), (F(3), 128)):
        got = remainder_value(reused, *key, beta, bits)
        assert not remainder_state.head_filled(reused, key)
        assert not remainder_state.window_built(reused, key)
        want, kmin, K = _naive_remainder_sum(reused, *key, beta, bits)
        assert (got.value, error_of(got), got.bits) == (want.value, error_of(want), want.bits)
        for k in range(kmin, K):
            terms_stop = _grown(terms_stop, end, k)
        for k in range(kmin, K + 1):
            sizes_stop = _grown(sizes_stop, end, k)
        assert remainder_state.stops(reused, key) == (terms_stop, sizes_stop)
        terms, sizes = remainder_state.lists(reused, key)
        seen.append((terms, sizes, list(terms or []), list(sizes)))
    # at beta = 10^6 the sum stops at its first test: one size, no term
    assert seen[0][0] is None and len(seen[0][3]) == 1
    terms, sizes = seen[-1][:2]
    for now_terms, now_sizes, was_terms, was_sizes in seen:
        assert now_terms in (None, terms) and now_sizes is sizes
        assert terms[:len(was_terms)] == was_terms
        assert sizes[:len(was_sizes)] == was_sizes
    # the 256-bit calls read past the entries the 32-bit ones had grown
    assert len(seen[3][2]) > len(seen[2][2]) and len(seen[3][3]) > len(seen[2][3])
    # every term read lies past the window: the head was never filled
    assert terms[:end] == [None] * end
    check_remainder_lists(reused, key)


_END = 13  # the window's end, truncation - 1, of the system below


@settings(deadline=None, derandomize=True, max_examples=40)
@given(st.sampled_from([(0, 1, 0), (2, 1, 1), (1, 2, 0), (4, 2, 1)]),
       st.lists(st.one_of(
           st.tuples(st.just("term"), st.integers(min_value=0, max_value=_END + 40)),
           st.tuples(st.just("size"), st.integers(min_value=_END, max_value=_END + 40)),
           st.tuples(st.just("sum"), st.sampled_from(
               [(F(10**6), 32), (F(5), 32), (F(-7, 2), 128), (F(9, 2), 256)]))),
           min_size=1, max_size=8))
def test_extension_entries_at_any_index_in_any_order(check_remainder_lists,
                                                     remainder_state, key, reads):
    # terms read at any exponent, inside the window or past it, sizes at any
    # exponent from the window's end on, and whole sums, in random order:
    # each list grows on its own by the growth rule (so a list that no read
    # asked for stays as it started), a read inside the window fills the
    # head and is the only read that does, no read makes the window, a sum
    # reads only the sizes of its stop tests and the terms from its first
    # test to its stop index, and every entry equals its naive Fraction sum
    spec = HypergeometricSpec.from_ab((F(1, 3), F(1, 4)), (F(1, 2),))
    system = build_system(spec, (F(1), F(2)), 1, cross_check=False)
    end = system.truncation - 1
    assert end == _END
    first = [None, None]
    terms_stop = sizes_stop = end
    filled = False
    for kind, arg in reads:
        if kind == "term":
            got = system.terms(*key, arg)
            terms_stop = _grown(terms_stop, end, arg)
            filled = filled or arg < end
        elif kind == "size":
            got = system.size(*key, arg)
            sizes_stop = _grown(sizes_stop, end, arg)
        else:
            beta, bits = arg
            got = remainder_value(system, *key, beta, bits)
            want, kmin, K = _naive_remainder_sum(system, *key, beta, bits)
            assert (got.value, error_of(got)) == (want.value, error_of(want))
            for k in range(kmin, K):
                terms_stop = _grown(terms_stop, end, k)
            for k in range(kmin, K + 1):
                sizes_stop = _grown(sizes_stop, end, k)
        lists = remainder_state.lists(system, key)
        for j, made in enumerate(lists):
            first[j] = first[j] or made
            assert made is first[j]  # the lists only grow
        terms, sizes = lists
        assert remainder_state.stops(system, key) == (terms_stop, sizes_stop)
        if kind == "term":
            assert got is terms and got[arg] is not None
        elif kind == "size":
            assert got == sizes[arg - end]
        check_remainder_lists(system, key)
        assert remainder_state.head_filled(system, key) == filled
        assert not remainder_state.window_built(system, key)
    if filled:
        # the window made now holds the head's own entries, read as
        # rationals: none is computed a second time
        head = remainder_state.lists(system, key)[0][:end]
        with mock.patch.object(pade, "_dot_rows", side_effect=AssertionError):
            window = system.R[key]
        assert window_values(window) == [F(*term) for term in head]
        assert remainder_state.stops(system, key) == (terms_stop, sizes_stop)


def _naive_remainder_sum(system, ell, i, s, beta, bits):
    """The term-by-term Fraction sum of R_{ell,i,s}(beta): every term is a
    reduced Fraction and the stop test compares Fractions.  `remainder_value`
    must give the same value, bound and stop index on integers.  Returns the
    value with (kmin, K): `remainder_value` reads the sizes at kmin..K (its
    stop tests) and the terms at kmin..K-1, and takes the sum below kmin
    from prefix sums of the weights."""
    beta = F(beta)
    spec = system.spec
    alpha = F(system.alphas[i - 1])
    if abs(alpha / beta) >= 1:
        raise DivergentSeries("need |alpha/beta| < 1")
    P = row_values(system.P[ell])
    kfirst = system.truncation - 1
    # the terms below the window's end, each its own Fraction sum (this
    # reads neither the system's window nor its lists)
    w = psi_weights(spec, alpha, s, kfirst + len(P))
    value = sum(
        (sum((c * w[k + d] for d, c in enumerate(P)), F(0)) / beta ** (k + 1)
         for k in range(kfirst)),
        F(0),
    )
    gmax = max([abs(g) for g in spec.gamma[:s]], default=F(0))
    consts = [abs(x) for x in spec.eta] + [abs(1 + z) for z in spec.zeta] + [gmax]
    kmin = max(kfirst, int(max(consts)) + 2)
    ratio0 = abs(alpha) / abs(beta)
    for x in spec.eta:
        ratio0 *= 1 + abs(x) / kmin
    for zj in spec.zeta:
        ratio0 /= 1 - abs(1 + zj) / kmin
    ratio0 *= (1 + 1 / (kmin - gmax)) ** s
    if ratio0 >= 1:
        raise InsufficientPrecision("tail ratio bound not contracting")
    geom = 1 / (1 - ratio0)
    target = F(1, 2**bits)
    coeffs, sizes = [], []

    def reach(k):
        j = k - kfirst
        if j >= len(coeffs):
            start = kfirst + len(coeffs)
            stop = kfirst + max(j + 1, 2 * len(coeffs), 8)
            w = psi_weights(spec, alpha, s, stop - 2 + len(P))
            coeffs.extend(correlate(P, w, start, stop))
            sizes.extend(correlate([abs(c) for c in P],
                                   [abs(x) for x in w[start:]], 0, stop - start))
        return j

    def chain_bound(k):
        return sizes[reach(k)] / abs(beta) ** (k + 1) * geom

    k = kfirst
    while k < kmin:
        value += coeffs[reach(k)] / beta ** (k + 1)
        k += 1
    bound = chain_bound(k)
    while bound > target * max(abs(value), target):
        value += coeffs[reach(k)] / beta ** (k + 1)
        k += 1
        bound = chain_bound(k)
        if k > kfirst + 64 * bits + 64:
            raise InsufficientPrecision("step budget")
    return _of(value, bound, bits), kmin, k


def _naive_remainder_value(system, ell, i, s, beta, bits):
    return _naive_remainder_sum(system, ell, i, s, beta, bits)[0]


def _outcome(fn, *args, **kwargs):
    """(value, error, bits) of a certified value, or the exception class."""
    try:
        got = fn(*args, **kwargs)
    except (DivergentSeries, InsufficientPrecision) as exc:
        return type(exc)
    return got.value, error_of(got), got.bits


_small = st.fractions(min_value=-4, max_value=4, max_denominator=7).filter(bool)


@st.composite
def _remainder_calls(draw):
    r = draw(st.integers(min_value=1, max_value=3))
    m = draw(st.integers(min_value=1, max_value=2))
    n = draw(st.integers(min_value=1, max_value=3))
    a = draw(st.lists(_small, min_size=r, max_size=r))
    b = draw(st.lists(_small, min_size=r - 1, max_size=r - 1))
    alphas = draw(st.lists(_small, min_size=m, max_size=m, unique=True))
    # |beta| from just above max|alpha| (where the tail bound may not yet
    # contract) out to 10^9, of either sign, integer or not
    amax = max(abs(x) for x in alphas)
    scale = draw(st.sampled_from([F(17, 16), F(3, 2), F(7, 3), F(10), F(10**3), F(10**9)]))
    offset = draw(st.sampled_from([F(0), F(1, 7), F(1, 1000)]))
    beta = draw(st.sampled_from([1, -1])) * (amax * scale + offset)
    bits = draw(st.sampled_from([8, 32, 128, 512]))
    return a, b, alphas, n, beta, bits, draw(st.booleans())


@settings(deadline=None, derandomize=True, max_examples=40)
@given(_remainder_calls())
# the toy kernel c_k = 1 (a = 1): every remainder window is zero throughout
@example(([F(1)], [], [F(2), F(-1)], 2, F(-5, 2), 128, True))
def test_remainder_value_equals_the_fraction_sum(call):
    a, b, alphas, n, beta, bits, shared = call
    try:
        spec = HypergeometricSpec.from_ab(a, b)
    except HypothesisViolation:
        assume(False)  # (AB) fails: a non-positive integer root
    system = build_system(spec, alphas, n, cross_check=False)
    for key in system.indices():
        want = _outcome(_naive_remainder_value, system, *key, beta, bits)
        if shared:
            # a shorter run first, so the call below reads a filled table
            assert _outcome(remainder_value, system, *key, beta, 8) \
                == _outcome(_naive_remainder_value, system, *key, beta, 8)
            here = system
        else:
            here = dataclasses.replace(system)  # the same system, no table yet
        assert _outcome(remainder_value, here, *key, beta, bits) == want


_non_integer = st.fractions(min_value=-4, max_value=4, max_denominator=7).filter(
    lambda x: x.denominator > 1)


@st.composite
def _admissible_calls(draw):
    # an admissible instance (the hypothesis flags pass) with r*m <= 4 and
    # n <= 3, and a non-integer beta (q != 1) of either sign past every alpha
    r = draw(st.integers(min_value=1, max_value=3))
    m = draw(st.integers(min_value=1, max_value=4 // r))
    a = draw(st.lists(_non_integer, min_size=r, max_size=r))
    b = draw(st.lists(_non_integer, min_size=r - 1, max_size=r - 1))
    alphas = draw(st.lists(_small, min_size=m, max_size=m, unique=True))
    q = draw(st.integers(min_value=2, max_value=7))
    amax = max(abs(x) for x in alphas)
    over = draw(st.sampled_from([1, 2, 5, 10**3, 10**9]))
    beta = F(math.floor(amax * q) + over * q + draw(st.integers(1, q - 1)), q)
    assume(beta.denominator != 1)
    return (a, b, alphas, draw(st.integers(min_value=1, max_value=3)),
            draw(st.sampled_from([1, -1])) * beta, draw(st.sampled_from([32, 64, 256])))


@settings(deadline=None, derandomize=True, max_examples=30)
@given(_admissible_calls())
# beta = -7/2: q = -2 < 0, and deg P_1 = rmn + 1 = 3 is odd, so q^D < 0
@example(([F(1, 3), F(1, 4)], [F(1, 2)], [F(1)], 1, F(-7, 2), 64))
def test_remainder_value_starts_at_its_first_stop_test(call):
    # every remainder value takes its sum up to the first stop test whole,
    # from prefix sums of the weights, and fills no head and makes no
    # window: it is the term-by-term Fraction sum, in value, bound, stop and
    # exception
    a, b, alphas, n, beta, bits = call
    spec = HypergeometricSpec.from_ab(a, b)
    assume(spec.flags_pass())
    system = build_system(spec, alphas, n, cross_check=False)
    got = {key: _outcome(remainder_value, system, *key, beta, bits)
           for key in system.indices()}
    assert not system.R._made
    assert not any(head_filled(system, key) for key in system.indices())
    for key in system.indices():
        assert got[key] == _outcome(_naive_remainder_value, system, *key, beta, bits)


def test_check_remainder_identity_small_beta(canonical_m1):
    report = check_remainder_identity(canonical_m1, F(10), bits=96)
    assert report["ok"]
    assert all(e["ok"] for e in report["entries"])
    assert all(report["linear_form_rows"].values())
    assert all(e["budget"] <= 2.0**-90 for e in report["entries"])
