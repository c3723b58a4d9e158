"""Exact rational utilities, places, and denominator growth constants."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import D_n_profile
from hgpade.arith import (
    Place,
    factorize,
    format_rational,
    is_prime,
    log_abs_at_place,
    log_int,
    log_mu,
    parse_place,
    parse_rational,
    totient,
    v_p,
)
from hgpade.criterion import Instance, c_denominators, decay_fit_R
from hgpade.errors import DivergentSeries, InvalidInput, RationalParseError
from hgpade.polyops import HypergeometricSpec, _pochhammer

F = Fraction

rationals = st.fractions(
    min_value=-1000, max_value=1000, max_denominator=999
)


# ---------------------------------------------------------------------------
# parsing and formatting


def test_parse_rational_forms():
    assert parse_rational("3/4") == F(3, 4)
    assert parse_rational("-3/4") == F(-3, 4)
    assert parse_rational("7") == F(7)
    assert parse_rational("  5/10 ") == F(1, 2)


@pytest.mark.parametrize("bad", ["1/0", "", "a/b", "1.5", "1/2/3", "--3", 5, None])
def test_parse_rational_rejects(bad):
    with pytest.raises(RationalParseError):
        parse_rational(bad)


@given(rationals)
def test_format_parse_round_trip(x):
    assert parse_rational(format_rational(x)) == x


def test_format_canonical():
    assert format_rational(F(4)) == "4"
    assert format_rational(F(-2, 6)) == "-1/3"


# ---------------------------------------------------------------------------
# integer kernels


def test_is_prime_small():
    primes = [p for p in range(60) if is_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def test_is_prime_large():
    assert is_prime(2**61 - 1)
    assert not is_prime(2**61 - 2)
    assert not is_prime(3825123056546413051)  # strong pseudoprime to small bases


@given(st.integers(min_value=2, max_value=10**6))
def test_factorize_reassembles(n):
    fac = factorize(n)
    prod = 1
    for p, e in fac.items():
        assert is_prime(p)
        prod *= p**e
    assert prod == n


def test_totient():
    assert totient(1) == 1
    assert totient(12) == 4
    assert totient(97) == 96


def pochhammer(a: Fraction, k: int) -> Fraction:
    """Rising factorial a(a+1)...(a+k-1); empty product = 1."""
    out = Fraction(1)
    for j in range(k):
        out *= Fraction(a) + j
    return out


@given(rationals, st.integers(min_value=0, max_value=30))
def test_pochhammer_recurrence(a, k):
    assert pochhammer(a, k + 1) == pochhammer(a, k) * (a + k)
    assert _pochhammer(a, k) == pochhammer(a, k)


def test_pochhammer_base():
    assert pochhammer(F(1, 3), 0) == _pochhammer(F(1, 3), 0) == 1
    assert pochhammer(F(1, 3), 3) == F(1, 3) * F(4, 3) * F(7, 3)
    # factors that step over 0, and that meet it
    assert _pochhammer(F(-7, 2), 6) == pochhammer(F(-7, 2), 6) == F(315, 64)
    assert _pochhammer(F(-3), 5) == pochhammer(F(-3), 5) == 0
    assert _pochhammer(F(-3), 3) == pochhammer(F(-3), 3) == -6


def den_of_set(values) -> int:
    """Smallest positive integer clearing all denominators (lcm of dens)."""
    values = list(values)
    if not values:
        raise InvalidInput("den_of_set needs a non-empty set")
    d = 1
    for x in values:
        d = math.lcm(d, Fraction(x).denominator)
    return d


def test_den_of_set():
    assert den_of_set([F(1, 6), F(1, 4)]) == 12
    assert den_of_set([F(3)]) == 1


@given(rationals.filter(lambda x: x != 0), rationals.filter(lambda x: x != 0))
def test_v_p_additive(x, y):
    for p in (2, 3, 5):
        assert v_p(x * y, p) == v_p(x, p) + v_p(y, p)


def test_log_int_beyond_float_range():
    n = 10**400
    assert log_int(n) == pytest.approx(400 * math.log(10), rel=1e-12)


# ---------------------------------------------------------------------------
# places


def test_place_parsing():
    assert parse_place("inf") == Place()
    assert parse_place("7") == Place(7)
    assert str(Place()) == "inf"
    assert str(Place(7)) == "7"
    with pytest.raises(InvalidInput):
        parse_place("6")  # not prime
    with pytest.raises(InvalidInput):
        Place(2**64 + 13)


def test_abs_at_place():
    x = F(50, 27)
    assert log_abs_at_place(x, Place(3)) == pytest.approx(3 * math.log(3))
    with pytest.raises(InvalidInput):
        log_abs_at_place(F(0), Place(3))
    # decay_fit_R needs |alpha/beta|_v < 1 for every alpha, read exactly:
    # |alpha/beta| < 1 at inf, v_p(alpha/beta) > 0 at p
    spec = HypergeometricSpec.from_ab([F(1, 3), F(1, 4)], [F(1, 2)])
    with pytest.raises(DivergentSeries, match="alpha=2, beta=-2"):
        decay_fit_R(Instance(spec, [1, 2], range(4, 8)), F(-2), Place())
    inst = Instance(spec, [1], range(4, 8))
    for beta in (F(2), F(2, 3)):  # v_5(alpha/beta) = 0
        with pytest.raises(DivergentSeries, match="at 5 is not < 1"):
            decay_fit_R(inst, beta, Place(5))
    fit = decay_fit_R(inst, F(1, 5), Place(5))  # v_5(alpha/beta) = 1
    assert [n for n, _ in fit.points] == [4, 5, 6, 7]
    assert fit.rate > 0


# ---------------------------------------------------------------------------
# the growth constant mu and rounding-mode selection


def test_log_mu_squarefree():
    # den squarefree: den * prod q^(1/(q-1)) collapses to prod q^(q/(q-1))
    assert log_mu(F(1, 2)) == pytest.approx(2 * math.log(2))
    assert log_mu(F(1, 3)) == pytest.approx(math.log(3) * 3 / 2)
    assert log_mu(F(2, 5)) == pytest.approx(math.log(5) * 5 / 4)
    assert log_mu(F(1, 6)) == pytest.approx(2 * math.log(2) + 1.5 * math.log(3))
    assert log_mu(F(3)) == 0.0


def test_log_mu_multiplicity_aware():
    # den = 4 contributes 2 log 2 from den itself plus log 2 from factorials:
    # the exact profile's rate is 3 log 2, not the flat 2 log 2
    assert log_mu(F(1, 4)) == pytest.approx(3 * math.log(2))
    assert log_mu(F(1, 8)) == pytest.approx(4 * math.log(2))
    assert log_mu(F(1, 9)) == pytest.approx(2.5 * math.log(3))
    assert log_mu(F(5, 12)) == pytest.approx(3 * math.log(2) + 1.5 * math.log(3))


@pytest.mark.parametrize(
    "a, rate",
    [
        # exact end rates of D_n_profile(a, 1, N=600), frozen
        (F(1, 4), 2.0748205604761027),
        (F(3, 4), 2.0748205604761027),
        (F(1, 8), 2.767967741036048),
    ],
)
def test_exact_rate_approaches_log_mu(a, rate):
    prof = D_n_profile(a, F(1), 600)
    assert prof.log_rate == pytest.approx(rate, rel=1e-6)
    # the multiplicity-aware constant is an upper bound and tight to ~0.5%
    assert prof.log_rate <= log_mu(a) + 1e-9
    assert log_mu(a) - prof.log_rate < 0.01


# mu_n rounding: the divisibility oracle den((zeta+1)_n/n!) | mu_n decides
# whether e(n,q) rounds n/(q-1) down or up; resolved once, lazily.
_MU_SWEEP_ZETAS = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(1, 5))
_MU_SWEEP_N = 100
_mu_rounding_cache: str | None = None


def _mu_n_with(zeta: Fraction, n: int, rounding: str) -> int:
    out = 1
    for q, v in factorize(Fraction(zeta).denominator).items():
        e = n // (q - 1) if rounding == "floor" else -((-n) // (q - 1))
        out *= q ** (n * v + e)
    return out


def mu_rounding() -> str:
    """'floor' or 'ceil': smallest exponent passing the divisibility sweep."""
    global _mu_rounding_cache
    if _mu_rounding_cache is None:
        for candidate in ("floor", "ceil"):
            ok = True
            for zeta in _MU_SWEEP_ZETAS:
                ratio = Fraction(1)
                for n in range(1, _MU_SWEEP_N + 1):
                    ratio *= (zeta + n) / n  # (zeta+1)_n / n!
                    if _mu_n_with(zeta, n, candidate) % ratio.denominator != 0:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                _mu_rounding_cache = candidate
                break
        else:  # pragma: no cover - the sweep always admits ceil
            _mu_rounding_cache = "ceil"
    return _mu_rounding_cache


def mu_n(zeta: Fraction, n: int) -> int:
    """prod over q | den(zeta) of q^(n v_q(den) + e(n,q)), e fixed by the oracle."""
    return _mu_n_with(Fraction(zeta), n, mu_rounding())


def test_mu_rounding_selected_by_oracle():
    assert mu_rounding() == "floor"


@pytest.mark.parametrize("zeta", [F(1, 2), F(1, 3), F(2, 3), F(1, 5), F(1, 4), F(3, 4), F(5, 8), F(1, 9), F(5, 12)])
def test_mu_n_divisibility(zeta):
    # den((zeta+1)_n / n!) divides mu_n(zeta, n) for every n
    ratio = F(1)
    for n in range(1, 61):
        ratio *= (zeta + n) / n
        assert mu_n(zeta, n) % ratio.denominator == 0, (zeta, n)


def test_mu_n_monotone():
    vals = [mu_n(F(1, 4), n) for n in range(13)]
    assert vals[0] == 1
    assert all(b % a == 0 or b >= a for a, b in zip(vals, vals[1:]))
    # growth rate of mu_n matches the factorial part of mu: den^n * q^(n v_q + e)
    assert math.log(mu_n(F(1, 4), 60)) / 60 == pytest.approx(3 * math.log(2), rel=0.02)


# ---------------------------------------------------------------------------
# denominator profiles


def test_profile_shape_and_monotonicity():
    prof = D_n_profile(F(1, 3), F(1, 2), 40)
    assert prof.N == 40
    assert len(prof.values) == 41
    assert prof.values[0] == 1
    for a, b in zip(prof.values, prof.values[1:]):
        assert b % a == 0  # running lcm divides forward


@pytest.mark.parametrize(
    "a, b, rate",
    [
        # frozen end rates at N = 200 for the three doc pairs
        (F(1, 3), F(1, 2), 2.5897498137786785),
        (F(1, 4), F(2, 3), 3.2153812728132203),
        (F(2, 5), F(1, 5), 1.8392002966969603),
    ],
)
def test_doc_pair_rates(a, b, rate):
    prof = D_n_profile(a, b, 200)
    assert prof.log_rate == pytest.approx(rate, rel=1e-6)
    q = b.denominator
    assert prof.log_rate <= log_mu(a) + q / totient(q) + 0.05


@pytest.mark.parametrize("spec", [
    HypergeometricSpec.from_ab((F(-1, 3), F(-1, 3)), (F(1, 2),)),
    HypergeometricSpec.from_ab((F(1, 3), F(-5, 4), F(2, 7)), (F(-3, 2), F(-3, 2))),
    HypergeometricSpec.from_roots((F(5, 3), F(1, 4)), (F(3, 2), F(2)), F(-2, 7)),
], ids=["repeated-negative-a", "repeated-negative-b", "roots-c0"])
def test_c_denominators_are_the_lcm_of_the_pochhammer_ratios(spec):
    # D_N and D'_N against the literal lcm of the denominators of
    # prod (1+zeta)_k / prod (eta)_k and of its reciprocal, k <= N
    ratios = [math.prod((pochhammer(1 + z, k) for z in spec.zeta), start=F(1))
              / math.prod((pochhammer(e, k) for e in spec.eta), start=F(1))
              for k in range(201)]
    for N in (0, 1, 25, 200):
        assert c_denominators(spec, N) == (
            math.lcm(*(x.denominator for x in ratios[:N + 1])),
            math.lcm(*((1 / x).denominator for x in ratios[:N + 1])))


def test_profile_jsonable():
    # one exact integer denominator per index 0..N: the running lcm of the
    # denominators of (1/2)_k / k! = 1, 1/2, 3/8, 5/16, 35/128, 63/256
    prof = D_n_profile(F(1, 2), F(1), 5)
    assert prof.N == 5
    assert prof.values == [1, 2, 8, 16, 128, 256]
    assert all(isinstance(v, int) for v in prof.values)
