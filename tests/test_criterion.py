"""Tests for the effective irrationality criterion layer.

Frozen constants in this module were measured by running the relevant
routine once and pinning the digits; identities (mu/C formulas, budget
route at the archimedean place) are asserted against the report fields
rather than re-frozen.
"""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import criterion_V, error_of, row_values
from hgpade import arith, criterion
from hgpade.arith import Place, factorize, log_abs_fraction, log_int, v_p
from hgpade.cli import _canonical, main
from hgpade.criterion import (
    Instance,
    _row_lcm,
    decay_fit_R,
    finite_place_budget,
    fit_rate,
    height_fit_vec,
    heights,
    measure,
    min_beta,
    place_consistency,
    stirling_growth_const,
)
from hgpade.errors import (
    CriterionNotSatisfied,
    HypothesisViolation,
    InconclusiveComparison,
    InvalidInput,
)
from hgpade.polyops import HypergeometricSpec

# a small fitting window keeps the failure-path tests fast; the canonical
# window range(4, 17) is exercised by the full measure() run below
SMALL_WINDOW = range(4, 9)


# ---------------------------------------------------------------------------
# rate fitting
# ---------------------------------------------------------------------------


def test_fit_rate_recovers_exact_affine_sequence():
    ns = list(range(4, 13))
    rate, offset = 3.5, 2.0
    fit = fit_rate(ns, [rate * n + offset for n in ns])
    assert fit.rate == pytest.approx(rate, abs=1e-10)
    assert fit.offset == pytest.approx(offset, abs=1e-10)
    assert fit.max_rel_residual < 1e-10
    assert fit.ok
    # points are stored normalized by n
    assert fit.points == [(n, (rate * n + offset) / n) for n in ns]


def test_fit_rate_flags_distorted_data():
    ns = list(range(4, 13))
    ys = [2.0 * n + 1.0 for n in ns]
    ys[3] *= 1.3  # 30% kick on one sample
    fit = fit_rate(ns, ys)
    assert fit.max_rel_residual > 0.02
    assert not fit.ok


def test_fit_rate_input_guards():
    with pytest.raises(InvalidInput):
        fit_rate([4, 5, 6], [1.0, 2.0, 3.0])  # too few samples
    with pytest.raises(InvalidInput):
        fit_rate([4, 5, 5, 6], [1.0, 2.0, 3.0, 4.0])  # duplicate n
    with pytest.raises(InvalidInput):
        fit_rate([4, 5, 6, 7], [1.0, 2.0, 3.0])  # length mismatch


def test_fit_rate_jsonable_round_trip_fields():
    ns = list(range(4, 9))
    fit = fit_rate(ns, [2.0 * n + 3.0 for n in ns])
    data = _canonical(fit.to_jsonable())
    assert data["rate"] == fit.rate
    assert data["ok"] is True
    assert data["tolerance"] == 0.02
    assert data["points"] == [[n, z] for n, z in fit.points]


# ---------------------------------------------------------------------------
# heights
# ---------------------------------------------------------------------------


def test_height_of_unit_tuple_is_zero():
    assert heights((Fraction(1),)) == 0.0


def test_height_integer_tuple_is_archimedean_only():
    assert heights((Fraction(1), Fraction(2))) == math.log(2) == 0.6931471805599453


def test_height_splits_between_places():
    h = heights((Fraction(1, 2), Fraction(3)))
    assert h == math.log(3) + math.log(2)
    assert h == pytest.approx(1.791759469228055)


def test_height_single_rational_is_log_max_num_den():
    # h(p/q) = log max(|p|, q) for p/q in lowest terms
    assert heights((Fraction(2, 3),)) == pytest.approx(math.log(3))
    assert heights((Fraction(-7, 4),)) == pytest.approx(math.log(7))


def test_height_zero_tuple_rejected():
    with pytest.raises(InvalidInput):
        heights((Fraction(0),))


def test_height_sums_the_archimedean_part_then_the_primes_ascending():
    # bit for bit: the measure's closed forms (V_cf, V_cf_stirling) read it
    h = heights((Fraction(5, 12), Fraction(7), Fraction(1, 9)))
    assert isinstance(h, float)
    assert h == math.log(7) + 2 * math.log(2) + 2 * math.log(3)


# products of small primes, so that denominators (of a tuple, or of a row
# and its entries) share factors
_smooth = st.lists(st.sampled_from([2, 3, 5, 7]), max_size=10).map(math.prod)


@settings(deadline=None, derandomize=True, max_examples=200)
@given(st.lists(st.builds(Fraction, st.integers(-10**6, 10**6), _smooth),
                min_size=1, max_size=6).filter(any))
@example([Fraction(1, 2**10 * 3**10 * 5**10 * 7**10), Fraction(-3, 5)])
def test_height_is_the_factoring_sum_over_the_lcm(vec):
    # log lcm(denominators) against sum e log q over its factored prime
    # powers q^e, plus the archimedean part
    top = max(abs(x) for x in vec)
    lcm = math.lcm(*(x.denominator for x in vec))
    expected = (log_abs_fraction(top) if top > 1 else 0.0) + sum(
        e * math.log(q) for q, e in factorize(lcm).items())
    assert heights(vec) == pytest.approx(expected, rel=1e-12, abs=0)


# ---------------------------------------------------------------------------
# closed-form skeleton constants
# ---------------------------------------------------------------------------


def test_finite_place_budget_frozen(spec_r2, spec_r3):
    # measured once from the exact denominator bookkeeping
    assert finite_place_budget(spec_r2) == pytest.approx(
        11.499948696921782, rel=1e-12
    )
    assert finite_place_budget(spec_r3) == pytest.approx(
        19.05758295346874, rel=1e-12
    )
    # more series and more zeta denominators can only cost more
    assert finite_place_budget(spec_r3) > finite_place_budget(spec_r2)


def test_stirling_growth_const_frozen():
    assert stirling_growth_const(2, 1) == pytest.approx(
        5.2053793708887675, rel=1e-12
    )
    assert stirling_growth_const(2, 2) == pytest.approx(
        7.77661295762166, rel=1e-12
    )
    # doubling the number of interpolation points increases the constant
    assert stirling_growth_const(2, 2) > stirling_growth_const(2, 1)


# ---------------------------------------------------------------------------
# heights of the matrix rows: integer rows against the Fraction route
# ---------------------------------------------------------------------------

@settings(deadline=None, derandomize=True, max_examples=200)
@given(_smooth, st.lists(st.one_of(
    st.just(0),
    st.builds(lambda a, sign, u: sign * a * u, _smooth, st.sampled_from([1, -1]),
              st.integers(1, 40))), max_size=6))
@example(12, [0, 0, 0])
@example(12, [])
@example(360, [-4, 0, 6])
def test_row_lcm_is_the_lcm_of_reduced_denominators(den, ints):
    # D / gcd(D, a_1, ..., a_n) against math.lcm of the reduced denominators
    # of a_j / D, with negative entries, zeros and an all-zero row
    assert _row_lcm(den, ints) == math.lcm(*(Fraction(a, den).denominator for a in ints))


def _fraction_route_height(vec, v0: Place) -> float:
    # the Fraction route the integer rows replaced: h(vec) - h_{v0}(vec) from
    # one reduced Fraction per nonzero coefficient and the lcm of their
    # denominators
    vec = [Fraction(x) for x in vec if x != 0]
    big_lcm = math.lcm(*(x.denominator for x in vec))
    finite = log_int(big_lcm)
    if v0.is_archimedean:
        return finite
    top = max(abs(x) for x in vec)
    arch = log_abs_fraction(top) if top > 1 else 0.0
    return arch + finite - v_p(Fraction(big_lcm), v0.p) * math.log(v0.p)


def _matrix_coefficients(system) -> list:
    # every z-coefficient of every P_ell and P_{ell,i,s}, as Fractions
    coeffs = []
    for ell in sorted(system.P):
        coeffs.extend(row_values(system.P[ell]))
    for key in sorted(system.Pis):
        coeffs.extend(row_values(system.Pis[key]))
    return coeffs


@pytest.mark.parametrize("alphas", [(Fraction(1),), (Fraction(1), Fraction(2))])
def test_height_fit_from_rows_equals_the_fraction_route(spec_r2, alphas):
    # r = 2, m = 1 and m = 2, at infinity, p = 5 and p = 3: the fit from
    # the integer rows equals, bit for bit, the fit of the Fraction route
    inst = Instance(spec_r2, alphas, range(4, 8))
    rm = spec_r2.r * len(alphas)
    for beta, v0 in [(Fraction(10**9), Place()), (Fraction(1, 5**10), Place(5)),
                     (Fraction(-2, 3**7), Place(3))]:
        got = height_fit_vec(inst, beta, v0)
        beta_part = _fraction_route_height([beta], v0)
        want = fit_rate(list(inst.systems), [
            _fraction_route_height(_matrix_coefficients(system), v0)
            + (rm * n + rm) * beta_part
            for n, system in inst.systems.items()])
        assert got == want, v0


# ---------------------------------------------------------------------------
# the empirical exponent V
# ---------------------------------------------------------------------------


def test_criterion_v_small_window_frozen(spec_r2):
    v = criterion_V(Instance(spec_r2, (Fraction(1),), SMALL_WINDOW), Fraction(10), Place())
    assert v == pytest.approx(0.9244315080059713, rel=1e-9)


# ---------------------------------------------------------------------------
# the full measurement at the canonical instance
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def canonical_measure(spec_r2):
    # alpha=1, beta=10^6 at the archimedean place: comfortably inside the
    # certified region, so every route in the report is populated
    inst = Instance(spec_r2, (Fraction(1),), range(4, 17))
    return measure(inst, Fraction(10**6), Place(), epsilon=0.1)


def test_measure_frozen_empirical_rates(canonical_measure):
    rep = canonical_measure
    assert rep.A_emp == pytest.approx(15.602356527876893, rel=1e-9)
    assert rep.U_emp == pytest.approx(31.47383033432584, rel=1e-9)
    assert rep.V_emp == pytest.approx(11.577754987334568, rel=1e-9)
    assert rep.verdict is True
    assert rep.n_range == (4, 16)
    assert rep.epsilon == 0.1


def test_measure_frozen_closed_forms(canonical_measure):
    rep = canonical_measure
    assert rep.A_cf == pytest.approx(9.972701339566981, rel=1e-9)
    assert rep.V_cf == pytest.approx(-1.5272473573548009, rel=1e-9)


def test_measure_mu_and_c_match_their_formulas(canonical_measure):
    rep = canonical_measure
    denom = rep.V_emp - rep.epsilon
    assert rep.mu_eps == pytest.approx((rep.A_emp + rep.U_emp) / denom, rel=1e-12)
    want_c = math.exp(-(math.log(2) / denom + 1) * (rep.A_emp + rep.U_emp))
    assert rep.C_eps == pytest.approx(want_c, rel=1e-12)
    assert rep.C_eps == pytest.approx(2.0911862055772257e-22, rel=1e-9)


def test_measure_diagnostics_contents(canonical_measure):
    d = canonical_measure.diagnostics
    assert {
        "fit_A",
        "fit_U",
        "fit_height",
        "height_rate",
        "finite_place_budget",
        "V_budget_route",
        "V_cf_stirling",
        "c_fit",
        "c_stirling",
        "finite_profile_N",
        "specialization_consistent",
    } <= set(d)
    assert d["finite_place_budget"] == pytest.approx(11.499948696921782, rel=1e-9)
    assert d["V_budget_route"] == pytest.approx(4.10240783095511, rel=1e-9)
    assert d["V_cf_stirling"] == pytest.approx(-2.889817509846276, rel=1e-9)
    assert d["c_fit"] == pytest.approx(3.842809218397292, rel=1e-9)
    assert d["c_stirling"] == pytest.approx(5.2053793708887675, rel=1e-9)
    assert d["finite_profile_N"] is None  # archimedean run
    assert d["specialization_consistent"] is True


def test_measure_budget_route_identity_at_arch(canonical_measure):
    # at the archimedean place the budget route is A_emp minus the finite
    # place budget, with no local growth correction
    d = canonical_measure.diagnostics
    assert d["V_budget_route"] == pytest.approx(
        canonical_measure.A_emp - d["finite_place_budget"], rel=1e-12
    )


def test_measure_fit_quality(canonical_measure):
    fit_a = canonical_measure.diagnostics["fit_A"]
    assert fit_a["rate"] == pytest.approx(canonical_measure.A_emp, rel=1e-12)
    assert fit_a["offset"] == pytest.approx(13.27166287962947, rel=1e-9)
    assert fit_a["max_rel_residual"] == pytest.approx(
        0.0013569951115179227, rel=1e-6
    )
    assert fit_a["ok"] is True


def test_measure_report_jsonable(canonical_measure):
    # the report keeps exact values; the CLI's one writer makes the text
    data = _canonical(canonical_measure.to_jsonable())
    assert data["v0"] == "inf"
    assert data["closed_form_status"] == "best_effort"
    assert data["verdict"] is True
    assert data["n_range"] == [4, 16]
    assert data["A_emp"] == canonical_measure.A_emp
    assert data["diagnostics"] == _canonical(canonical_measure.diagnostics)


# ---------------------------------------------------------------------------
# failure paths
# ---------------------------------------------------------------------------


def test_measure_rejects_beta_too_small(spec_r2):
    # at beta=2 the approximations grow faster than they decay: V < 0
    with pytest.raises(CriterionNotSatisfied, match="beta=2"):
        measure(Instance(spec_r2, (Fraction(1),), SMALL_WINDOW), Fraction(2),
                Place(), epsilon=0.01)


def test_measure_rejects_epsilon_eating_the_margin(spec_r2):
    # V ~ 0.92 at beta=10 on the small window, so epsilon=1 kills it
    with pytest.raises(CriterionNotSatisfied):
        measure(Instance(spec_r2, (Fraction(1),), SMALL_WINDOW), Fraction(10),
                Place(), epsilon=1.0)


def test_measure_marginal_instance_is_inconclusive_not_certified(spec_r2):
    # beta=10: empirically positive (V ~ 0.92) but far below the worst-case
    # budget, so the run must refuse to certify rather than pick a winner
    with pytest.raises(InconclusiveComparison, match="budget route"):
        measure(Instance(spec_r2, (Fraction(1),), SMALL_WINDOW), Fraction(10),
                Place(), epsilon=0.01)


def test_measure_p_adic_uncertified_instance(spec_r2):
    # 5-adically small target: alpha=25, beta=3 at v0=5 is not certified
    with pytest.raises(CriterionNotSatisfied):
        measure(Instance(spec_r2, (Fraction(25),), SMALL_WINDOW), Fraction(3),
                Place(5), epsilon=0.01)


def test_measure_checks_spec_hypotheses_first():
    bad = HypergeometricSpec.from_ab((Fraction(2), Fraction(1, 4)), (Fraction(1, 2),))
    with pytest.raises(HypothesisViolation):
        measure(Instance(bad, (Fraction(1),), range(4, 17)), Fraction(10**6),
                Place(), epsilon=0.1)


# ---------------------------------------------------------------------------
# no height factors alpha or beta
# ---------------------------------------------------------------------------

ROOT = Path(__file__).resolve().parents[1]
# the denominator of beta is a semiprime of two 65-bit primes, far past what
# any factoring would finish in the time the test allows
_SEMIPRIME = 10000000000000000051 * 30000000000000000041


def test_a_semiprime_beta_is_refused_at_once():
    beta = f"--beta={_SEMIPRIME * 10**6 + 1}/{_SEMIPRIME}"
    got = subprocess.run(
        [sys.executable, "-m", "hgpade.cli", "criterion", "--a=1/3,1/4", "--b=1/2",
         "--alphas=1", beta, "--n-range=4:7"],
        capture_output=True, text=True, timeout=10,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert got.returncode == 1
    assert got.stderr.startswith("hgpade criterion: CriterionNotSatisfied: ")
    assert got.stdout == ""


def test_criterion_runs_factor_only_the_specs_denominators(monkeypatch):
    # the benchmark's criterion and min-beta ops (perfbench/frozen.json, only
    # read) and a p-adic criterion: no factored number exceeds the CLI's
    # cap of 1000 on the spec's denominators
    frozen = json.loads((ROOT / "perfbench" / "frozen.json").read_text())
    argvs = [key.split() for key in frozen if key.split()[0] in ("criterion", "min-beta")]
    assert len(argvs) == 3
    argvs.append(["criterion", "--a=1/3,1/4", "--b=1/2", "--alphas=1",
                  "--beta=1/9765625", "--place", "5"])
    factored = []

    def spy(n):
        factored.append(n)
        return real(n)

    real = arith.factorize
    for module in [m for name, m in sys.modules.items() if name.startswith("hgpade")]:
        if getattr(module, "factorize", None) is real:
            monkeypatch.setattr(module, "factorize", spy)
    for argv in argvs:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0, argv
    assert factored and max(factored) <= 1000


# ---------------------------------------------------------------------------
# the beta threshold search
# ---------------------------------------------------------------------------


def test_min_beta_small_window(spec_r2):
    inst = Instance(spec_r2, (Fraction(1),), SMALL_WINDOW)
    mb, v_found = min_beta(inst, 64)
    assert mb == 5
    # bracketing: V flips sign exactly at the reported threshold, and the
    # V handed back is criterion_V's at it, to the bit
    v_at = criterion_V(inst, Fraction(5), Place())
    v_below = criterion_V(inst, Fraction(4), Place())
    assert v_found == v_at
    assert v_at == pytest.approx(0.02518398663377175, rel=1e-9)
    assert v_below == pytest.approx(-0.29439711685130376, rel=1e-9)
    assert v_at > 0 > v_below


def test_min_beta_canonical_window(spec_r2):
    # default fitting window, the value quoted in the docs
    found, v = min_beta(Instance(spec_r2, (Fraction(1),), range(4, 13)), 1024)
    assert found == 10 and v > 0


def test_min_beta_none_when_bound_too_small(spec_r2):
    # the search floor is int(max |alpha|) + 1 = 2
    inst = Instance(spec_r2, (Fraction(1),), SMALL_WINDOW)
    assert min_beta(inst, 1) == (None, None)
    # V(2) < 0, so a bound of 2 leaves nothing certified either
    assert min_beta(inst, 2) == (None, None)


def _floor_first_bisection(inst, v0, search_bound):
    """The oracle of `min_beta`: the same V, evaluated at the search bound,
    then at the floor int(max |alpha|) + 1 before anything else, then at
    arithmetic midpoints."""
    lo = int(max(abs(a) for a in inst.alphas)) + 1
    if search_bound < lo:
        return None, None
    q_rate = height_fit_vec(inst, lo, v0).rate
    seen = {}

    def value(b):
        seen[b] = decay_fit_R(inst, b, v0).rate - q_rate
        return seen[b]

    if value(search_bound) <= 0:
        return None, None
    if value(lo) > 0:
        return lo, seen[lo]
    hi = search_bound
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if value(mid) > 0:
            hi = mid
        else:
            lo = mid
    return hi, seen[hi]


# (a, b) by name, as text
_SEARCH_SPECS = {
    "r2": ("1/3,1/4", "1/2"),
    "r2-signs": ("-1/3,1/4", "-1/2"),
    "r3": ("1/3,1/4,1/5", "1/2,2/3"),
    "r3-signs": ("-1/3,1/4,-1/5", "1/2,-2/3"),
}


@pytest.mark.parametrize("alphas", ["1", "1/10", "1,2", "-1,1/2"])
@pytest.mark.parametrize("name", sorted(_SEARCH_SPECS))
def test_min_beta_agrees_with_the_floor_first_bisection(name, alphas):
    # the grid holds answers at the floor (r2, alpha = 1/10), inside the
    # bracket (up to beta = 7530) and none; wherever the old search returns
    # (it does on every point here), the new one returns the same (beta, V),
    # and what it returns is certified on a fresh Instance: V(beta) > 0 and
    # V(beta - 1) <= 0 unless beta is the floor
    a, b = ([Fraction(x) for x in text.split(",")] for text in _SEARCH_SPECS[name])
    alphas = tuple(Fraction(x) for x in alphas.split(","))
    spec = HypergeometricSpec.from_ab(a, b)
    # r * m = 6 fits over n = 4..7, the others over 4..8
    ns = range(4, 8) if len(a) * len(alphas) > 4 else range(4, 9)
    inst, fresh = Instance(spec, alphas, ns), Instance(spec, alphas, ns)
    floor = int(max(abs(x) for x in alphas)) + 1
    for bound in (2, 5, 64, 1024, 100000):
        found = min_beta(inst, bound)
        assert found == _floor_first_bisection(inst, Place(), bound), bound
        beta, v = found
        if beta is not None:
            assert criterion_V(fresh, Fraction(beta), Place()) == v > 0
            assert beta == floor or criterion_V(fresh, Fraction(beta - 1), Place()) <= 0


def _probes(monkeypatch):
    """The betas `min_beta` evaluates V at, in order."""
    probes = []
    real = criterion.decay_fit_R

    def recorded(inst, beta, v0):
        probes.append(beta)
        return real(inst, beta, v0)

    monkeypatch.setattr(criterion, "decay_fit_R", recorded)
    return probes


def test_min_beta_bisects_in_log_beta_and_skips_the_floor(spec_r2, monkeypatch):
    # the benchmark's op: midpoints isqrt(lo * hi) from the bound down to
    # the answer, and never V at the floor 2, the dearest beta
    probes = _probes(monkeypatch)
    found = min_beta(Instance(spec_r2, (Fraction(1),), range(4, 13)), 1024)
    assert found[0] == 10
    assert probes == [1024, 45, 9, 20, 13, 10]


def test_min_beta_probes_the_floor_last(spec_r2, monkeypatch):
    # at alpha = 1/10 V is positive already at the floor 1: the search
    # closes its bracket on it and evaluates it last, once
    probes = _probes(monkeypatch)
    inst = Instance(spec_r2, (Fraction(1, 10),), SMALL_WINDOW)
    assert min_beta(inst, 1024)[0] == 1
    assert probes == [1024, 32, 5, 2, 1]
    # a bound at the floor is one probe, not two
    probes.clear()
    assert min_beta(inst, 1)[0] == 1
    assert probes == [1]


# ---------------------------------------------------------------------------
# finite places: measured mass against the closed-form budget
# ---------------------------------------------------------------------------


def test_place_consistency_frozen(spec_r2):
    pc = place_consistency(spec_r2)
    assert pc["N"] == 200
    assert pc["measured"] == pytest.approx(7.901078214951886, rel=1e-9)
    assert pc["budget"] == pytest.approx(11.499948696921782, rel=1e-9)
    assert pc["relative_gap"] == pytest.approx(0.3129466553997075, rel=1e-9)
    # on the canonical instance the finite-N mass sits well below the
    # budget (not within 5%)
    assert pc["within_5pct"] is False
    assert pc["measured_le_budget"] is True


def test_place_consistency_budget_is_no_bound():
    # the budget is a closed-form estimate, not a bound: at a = 1/5, 2/7,
    # b = 1/2 the mass at N = 200 exceeds it, and the comparison, with no
    # slack, says so
    spec = HypergeometricSpec.from_ab((Fraction(1, 5), Fraction(2, 7)), (Fraction(1, 2),))
    pc = place_consistency(spec)
    assert pc["measured"] == pytest.approx(11.710865816640695, rel=1e-9)
    assert pc["budget"] == pytest.approx(10.721281286680274, rel=1e-9)
    assert pc["measured_le_budget"] is False


# ---------------------------------------------------------------------------
# the p-adic remainder valuation against an exact partial sum
# ---------------------------------------------------------------------------


def _v5(x: Fraction) -> int:
    v, num, den = 0, x.numerator, x.denominator
    while num % 5 == 0:
        num //= 5
        v += 1
    while den % 5 == 0:
        den //= 5
        v -= 1
    return v


def test_vp_remainder_matches_an_exact_partial_sum(spec_r2):
    # R(beta) = sum_k psi(t^k P)/beta^(k+1), summed here over 300 terms from
    # c_k, the weights and P alone; at |beta|_5 = 5^10 each later term has
    # valuation far above the sum's, so the partial sum pins v_5(R(beta))
    from hgpade.criterion import _vp_remainder
    from hgpade.pade import build_system

    beta, terms = Fraction(1, 5**10), 300
    system = build_system(spec_r2, (Fraction(1),), 4, cross_check=False)
    gam = spec_r2.gamma
    c = [spec_r2.c0]
    for k in range(terms + 20):
        c.append(c[-1] * math.prod(k + e for e in spec_r2.eta)
                 / math.prod(k + 1 + z for z in spec_r2.zeta))
    for ell, i, s in system.indices():
        P = row_values(system.P[ell])
        alpha = system.alphas[i - 1]
        w = [math.prod((k + g for g in gam[:s]), start=Fraction(1)) * c[k]
             * alpha ** (k + 1) for k in range(terms + len(P))]
        R = sum(
            sum(p * w[k + d] for d, p in enumerate(P)) / beta ** (k + 1)
            for k in range(terms)
        )
        assert _v5(R) == 49
        assert _vp_remainder(system, ell, i, s, beta, 5) == 49


def test_vp_remainder_and_remainder_value_share_one_table(spec_r2, check_remainder_lists,
                                                          remainder_state):
    # both sums read psi(t^k P) by exponent from the system's one term list:
    # whichever fills it, the other gets a fresh system's answer, every entry
    # is its naive sum, and the v_5 = 49 oracle above still holds on the
    # filled list; the p-adic sum reads from inside the window, so it fills
    # the head (and makes no window), and the archimedean one never does
    from hgpade.criterion import _vp_remainder
    from hgpade.numerics import remainder_value
    from hgpade.pade import build_system

    def fresh():
        return build_system(spec_r2, (Fraction(1),), 4, cross_check=False)

    system = fresh()
    end = system.truncation - 1
    near, far = Fraction(1, 5), Fraction(10**6)  # |1/5|_5 = 5: a long p-adic sum
    for key in system.indices():
        v = _vp_remainder(system, *key, near, 5)
        terms, sizes = remainder_state.lists(system, key)
        seen = list(terms)
        # the p-adic sum ran past the window one exponent at a time, each
        # read past the end doubling the part past the window; no size
        past = len(terms) - end
        assert past > 8 and past & (past - 1) == 0 and sizes is None
        assert remainder_state.head_filled(system, key) and None not in terms
        got = remainder_value(system, *key, far, 256)
        again = remainder_state.lists(system, key)
        assert again[0] is terms and again[1] is not None
        assert terms[:len(seen)] == seen
        want = remainder_value(fresh(), *key, far, 256)
        assert (got.value, error_of(got)) == (want.value, error_of(want))
        check_remainder_lists(system, key)
        # on its own, the sum at 10^6 and 32 bits stops at its first test:
        # one size, no term, no head, no window
        other = fresh()
        remainder_value(other, *key, far, 32)
        other_terms, other_sizes = remainder_state.lists(other, key)
        assert other_terms is None and len(other_sizes) == 1
        assert not remainder_state.head_filled(other, key)
        check_remainder_lists(other, key)
        assert v == _vp_remainder(system, *key, near, 5) \
            == _vp_remainder(fresh(), *key, near, 5)
        assert _vp_remainder(system, *key, Fraction(1, 5**10), 5) == 49
        assert remainder_state.lists(system, key)[0] is terms


def test_remainder_sums_grow_only_what_they_read(spec_r2, check_remainder_lists,
                                                 remainder_state):
    # an archimedean sum reads a size at each stop test and a term only once
    # that test has failed, and never the head or a window; a p-adic sum
    # reads terms only, from inside the window on, and makes no window
    from hgpade.criterion import _vp_remainder

    inst = Instance(spec_r2, (Fraction(1),), range(4, 8))  # the fit needs 4 n
    assert measure(inst, Fraction(10**6), Place(), 0.1).verdict
    for system in inst.systems.values():
        for key in system.indices():
            terms, sizes = remainder_state.lists(system, key)
            # at beta = 10^6 every sum stops at its first test, at the
            # window's end: no term, one size, no head, no window
            assert terms is None and len(sizes) == 1
            assert not remainder_state.head_filled(system, key)
            check_remainder_lists(system, key)
    system = inst.systems[4]
    end = system.truncation - 1
    for key in system.indices():
        was = list(remainder_state.lists(system, key)[1])
        _vp_remainder(system, *key, Fraction(1, 5), 5)
        terms, sizes = remainder_state.lists(system, key)
        # past the window, terms only, read one exponent at a time: each read
        # past the end doubled the part past the window
        past = len(terms) - end
        assert past > 8 and past & (past - 1) == 0 and sizes == was
        assert remainder_state.head_filled(system, key)
        check_remainder_lists(system, key)
        assert _vp_remainder(system, *key, Fraction(1, 5**10), 5) == 49


def test_archimedean_measure_builds_no_window(spec_r2, remainder_state):
    # every archimedean remainder sum starts at its first stop test from
    # prefix sums of the weights: a whole criterion run on r = 2, m = 2 at
    # beta = 10^9 fills no head and makes no stored window
    inst = Instance(spec_r2, (Fraction(1), Fraction(2)), range(4, 8))
    measure(inst, Fraction(10**9), Place(), 0.1)
    assert len(inst.systems) == 4
    for system in inst.systems.values():
        assert sorted(system.Pis) == sorted(system.indices())
        assert sorted(system.P) == list(range(5))
        for key in system.indices():
            assert not remainder_state.head_filled(system, key)
    # the p-adic criterion fills heads, and min-beta runs the archimedean
    # sums at every beta it tries
    for run in (lambda inst: measure(inst, Fraction(1, 5**10), Place(5), 0.1),
                lambda inst: min_beta(inst, 1024)):
        inst = Instance(spec_r2, (Fraction(1),), range(4, 8))
        run(inst)
        for system in inst.systems.values():
            assert sorted(system.P) == [0, 1, 2]


@pytest.mark.parametrize("p", [3, 5])
def test_vp_remainder_reads_the_valuation_of_P_off_its_row(spec_r2, p):
    # min_d v_p(P_d) off the integer row (den, a) of P_ell is
    # min_d v_p(a_d) - v_p(den), the Fraction route's value; with it, the
    # p-adic sum at |beta|_p = p^10 agrees with an exact partial sum of
    # R(beta) = sum_k psi(t^k P)/beta^(k+1), whose later terms all have far
    # larger valuation
    from hgpade.criterion import _vp_remainder
    from hgpade.pade import build_system

    system = build_system(spec_r2, (Fraction(1), Fraction(2)), 3, cross_check=False)
    for den, ints in system.P.values():
        assert min(v_p(a, p) for a in ints if a) - v_p(den, p) == min(
            v_p(c, p) for c in row_values((den, ints)) if c)
    beta = Fraction(1, p**10)
    for key in system.indices():
        R = sum(Fraction(*system.terms(*key, k)[k]) / beta ** (k + 1) for k in range(80))
        assert _vp_remainder(system, *key, beta, p) == v_p(R, p)
