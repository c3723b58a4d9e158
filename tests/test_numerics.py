"""Certified evaluation: interval values, series routes, remainder identities."""

import decimal
from fractions import Fraction

import pytest

from hgpade.errors import DivergentSeries, InsufficientPrecision, InvalidInput
from hgpade.numerics import (
    BigFloat,
    check_remainder_identity,
    eval_F_family,
    eval_lerch,
    eval_pFq,
    remainder_value,
)
from hgpade.pade import build_system
from hgpade.polyops import HypergeometricSpec, poly_eval, psi_weights

F = Fraction


decimal.getcontext().prec = 50  # the stdlib oracle must out-resolve 2^-160


def _as_decimal(x: Fraction) -> decimal.Decimal:
    return decimal.Decimal(x.numerator) / decimal.Decimal(x.denominator)


# ---------------------------------------------------------------------------
# the interval scalar


def test_bigfloat_invariants():
    x = BigFloat(F(1, 3), F(1, 1000), 64)
    assert x.cmp(F(1)) == -1
    assert x.cmp(F(0)) == 1
    with pytest.raises(InsufficientPrecision):
        x.cmp(F(1, 3))  # inside the interval: not decidable
    exact = BigFloat(F(1, 3), F(0), 64)
    assert exact.cmp(F(1, 3)) == 0
    with pytest.raises(InvalidInput):
        BigFloat(F(1), F(-1), 64)


def test_bigfloat_agreement():
    a = BigFloat(F(10, 7), F(1, 100), 64)
    b = BigFloat(F(143, 100), F(1, 100), 64)
    assert a.agrees_with(b)
    c = BigFloat(F(2), F(1, 100), 64)
    assert not a.agrees_with(c)


def test_bigfloat_decimal_and_exponent():
    x = BigFloat(F(1, 3), F(1, 2**100), 128)
    assert x.to_decimal(12) == "0.333333333333"
    assert x.to_decimal(3) == "0.333"
    assert BigFloat(F(-1, 4), F(0), 8).to_decimal(4) == "-0.2500"
    assert x.error_exponent() == 100
    assert BigFloat(F(1), F(0), 96).error_exponent() == 96  # exact: full budget


# ---------------------------------------------------------------------------
# series evaluation against classical closed forms (stdlib decimal oracle)


def test_2F1_log():
    # 2F1(1,1;2;z) = -log(1-z)/z at z = 1/2: value 2 log 2
    got = eval_pFq((F(1), F(1)), (F(2),), F(1, 2), 160)
    want = 2 * decimal.Decimal(2).ln()
    assert abs(_as_decimal(got.value) - want) < decimal.Decimal(10) ** -40
    assert got.error <= F(1, 2**155)


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
    got = eval_lerch(1, F(0), F(1, 2), 160)
    want = decimal.Decimal(2).ln()
    assert abs(_as_decimal(got.value) - want) < decimal.Decimal(10) ** -40
    with pytest.raises(DivergentSeries):
        eval_lerch(1, F(0), F(1), 64)


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
        ladder = eval_lerch(3 - s, x, F(1, 3), 192)
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
    assert got.error <= F(1, 2**100)  # certified well past float precision


def test_remainder_value_matches_direct_route(system_n4):
    # P_0(beta) F_s(alpha/beta) - P_{0,i,s}(beta) lands inside the certified
    # interval of the tail-sum route
    beta = F(2)
    vals = eval_F_family(system_n4.spec, F(1) / beta, 256)
    for s in (0, 1):
        direct = poly_eval(system_n4.P[0], beta) * vals[s].value - poly_eval(
            system_n4.Pis[(0, 1, s)], beta
        )
        tail_route = remainder_value(system_n4, 0, 1, s, beta, 128)
        assert abs(direct - tail_route.value) <= tail_route.error + vals[s].error * abs(
            poly_eval(system_n4.P[0], beta)
        )


def test_remainder_value_guards(system_n4):
    with pytest.raises(DivergentSeries):
        remainder_value(system_n4, 0, 1, 0, F(1, 2), 64)  # |alpha/beta| >= 1


def test_remainder_value_cache_consistent(system_n4):
    # one cache filled at 32 bits, then grown by a higher precision and a
    # second beta: every answer, bound included, equals a fresh uncached call
    cache = {}
    for beta, bits in ((F(3), 32), (F(3), 32), (F(3), 256), (F(-7, 2), 256), (F(3), 128)):
        got = remainder_value(system_n4, 2, 1, 1, beta, bits, coeff_cache=cache)
        fresh = remainder_value(system_n4, 2, 1, 1, beta, bits)
        assert (got.value, got.error, got.bits) == (fresh.value, fresh.error, fresh.bits)
    assert list(cache) == [(2, 1, 1)]
    coeffs, sizes = cache[(2, 1, 1)]
    assert len(coeffs) == len(sizes) > 8  # the 256-bit calls grew the first batch
    # every batch holds psi(t^k P_2) and sum_d |P_d| |w_{k+d}| from the window on
    P, kfirst = system_n4.P[2], system_n4.truncation - 1
    w = psi_weights(system_n4.spec, F(1), 1, kfirst + len(coeffs) + len(P))
    for j, (coeff, size) in enumerate(zip(coeffs, sizes)):
        k = kfirst + j
        assert coeff == sum((c * w[k + d] for d, c in enumerate(P)), F(0))
        assert size == sum((abs(c) * abs(w[k + d]) for d, c in enumerate(P)), F(0))


def test_check_remainder_identity_small_beta(canonical_m1):
    report = check_remainder_identity(canonical_m1, F(10), bits=96)
    assert report["ok"]
    assert all(e["ok"] for e in report["entries"])
    assert all(report["linear_form_rows"].values())
    assert all(e["budget"] <= 2.0**-90 for e in report["entries"])
