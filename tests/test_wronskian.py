"""Determinant routes, factor extraction, reduction, and the zero ledger."""

import itertools
import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    C_um_by_elimination,
    FactorizationMismatch,
    _exact_power_of_2,
    a0s_change_of_basis,
    admissible_instances,
    c_um_factor,
    corrupted,
    fraction_det,
    homogeneity_degree,
    literal_contract_failures,
    final_det_by_phi,
    final_det_rows,
    partial_fractions,
    poly_eval,
    reduction_check,
    row_values,
    vanishing_order_at_equal_alphas,
)
from hgpade.cli import _canonical
from hgpade.errors import InvalidInput, NonconstantDeterminant, TheoryViolation
from hgpade.linalg import det_bareiss
from hgpade.pade import build_system, contract_failures, load_system, verify_system
from hgpade.polyops import HypergeometricSpec
from hgpade.wronskian import (
    C_um,
    a0s_values,
    certify_nonvanishing,
    delta_of_system,
    delta_route_check,
    _zeta_groups,
    final_det,
    final_det_basis,
    leading_coeff_P_rm,
    link_value,
    theta_det,
    vandermonde,
)

F = Fraction


def test_vandermonde():
    assert vandermonde([F(1), F(2), F(4)]) == (2 - 1) * (4 - 1) * (4 - 2)
    assert vandermonde([F(3)]) == 1


# ---------------------------------------------------------------------------
# Delta: frozen exact values across the grid


def _delta_rows(system):
    """The matrix of Delta(z), its entries the system's polynomials as
    Fraction lists: the top row P_ell, then the row of P_{ell,i,s} for i
    ascending and s descending."""
    r, m = system.r, system.m
    cols = range(r * m + 1)
    rows = [[row_values(system.P[ell]) for ell in cols]]
    for i in range(1, m + 1):
        for s in range(r - 1, -1, -1):
            rows.append([row_values(system.Pis[(ell, i, s)]) for ell in cols])
    return rows


def _delta_by_evaluation(system):
    """Oracle for Delta that assumes nothing of the cofactor argument: the
    values of the determinant at z = 0..D, where D (the sum over columns of
    the largest entry degree) bounds deg Delta.  Delta is constant exactly
    when they all agree; the list is returned for the caller to check."""
    rows = _delta_rows(system)
    D = sum(max(max(len(row[ell]) for row in rows) - 1, 0) for ell in range(len(rows)))
    return [fraction_det([[poly_eval(p, F(z)) for p in row] for row in rows])
            for z in range(D + 1)]


def _delta_by_sympy(system):
    """Oracle for Delta that shares no code with the package: Delta(z) as
    the determinant of a matrix over QQ[z] (sympy's DomainMatrix, whose
    det is fast where Matrix.det() is not), returned as a sympy Poly."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    z = sympy.Symbol("z")
    ring = sympy.QQ[z]

    def entry(p):
        return ring.from_sympy(sum((sympy.Rational(c.numerator, c.denominator) * z ** d
                                    for d, c in enumerate(p)), sympy.S.Zero))

    rows = [[entry(p) for p in row] for row in _delta_rows(system)]
    det = DomainMatrix(rows, (len(rows), len(rows)), ring).det()
    return sympy.Poly(ring.to_sympy(det), z)


@pytest.mark.parametrize(
    "spec_name, alphas, n, expected",
    [
        # exact determinants, frozen from the first build
        ("spec_r1", (1,), 1, F(9, 14)),
        ("spec_r2", (1,), 1, F(-432, 502775)),
        ("spec_r2", (1, 2), 1, F(3981312, 146652240109375)),
        ("spec_r2", (1,), 2, F(-648, 272935)),
        ("spec_r3", (1,), 1, F(-600, 11857224379)),
    ],
)
def test_delta_frozen(spec_name, alphas, n, expected, request):
    spec = request.getfixturevalue(spec_name)
    system = build_system(spec, tuple(F(a) for a in alphas), n)
    assert delta_of_system(system) == expected


def test_delta_route_equality(canonical_system):
    route = delta_route_check(canonical_system)
    assert route["equal"]
    assert route["delta"] == route["leading_coeff_Prm"] * route["theta"]
    assert route["delta"] == F(3981312, 146652240109375)
    assert route["theta"] == F(64, 97692469875)
    assert route["leading_coeff_Prm"] == leading_coeff_P_rm(canonical_system)


@settings(deadline=None, derandomize=True, max_examples=60)
@given(admissible_instances(), st.integers(1, 5))
def test_lead_of_P_rm_is_its_closed_product(instance, n):
    # base_0 = prod (t - alpha_i)^{rn} is monic, so lead(P_rm) is the
    # multiplier M(rmn + rm) = prod_t (rmn+rm+1+zeta_t)_{n-1} /
    # (c_{rmn+rm} ((n-1)!)^r), here with c_k = c0 prod (eta)_k /
    # prod (1+zeta)_k, every factor a literal product on Fractions
    spec, alphas = instance
    system = build_system(spec, alphas, n, truncation=n + 2, cross_check=False)
    r = spec.r
    top = r * len(alphas) * (n + 1)

    def rising(x, k):
        return math.prod((x + j for j in range(k)), start=F(1))

    c = spec.c0 * math.prod(rising(e, top) for e in spec.eta) / math.prod(
        rising(1 + z, top) for z in spec.zeta)
    assert leading_coeff_P_rm(system) == math.prod(
        rising(top + 1 + z, n - 1) for z in spec.zeta) / (c * math.factorial(n - 1) ** r)


def test_theta_chain_identity(canonical_system):
    sys = canonical_system
    spec, alphas, n = sys.spec, sys.alphas, sys.n
    r, m = spec.r, len(alphas)
    a0 = a0s_values(spec, n)
    lhs = theta_det(sys) * F(math.factorial(n - 1)) ** (r * r * m)
    rhs = (
        math.prod(alphas, start=F(1)) ** r
        * math.prod(a0["values"], start=F(1)) ** m
        * C_um(spec, alphas, n, n)
    )
    assert lhs == rhs


# ---------------------------------------------------------------------------
# diagonal constants and the reduced determinant


def test_a0s_against_change_of_basis(spec_r2, spec_r3):
    for spec in (spec_r2, spec_r3):
        for n in (1, 2, 3):
            vals = a0s_values(spec, n)
            assert vals["all_nonzero"]
            assert vals["zero_at"] == []
            for s in range(spec.r):
                assert vals["values"][s] == a0s_change_of_basis(spec, n, s)


def test_a0s_canonical_frozen(spec_r2):
    # n = 1 diagonal constants of the doc instance
    assert a0s_values(spec_r2, 1)["values"] == [F(1, 24), F(1, 2)]


def test_C_um_routes_agree(spec_r2, spec_r3):
    # the elimination oracle against the moment determinant, at every size it
    # affords, including the exponent u = n + r(n+1) the reduction chain visits
    for spec, alphas in ((spec_r2, (F(1),)), (spec_r2, (F(1), F(2))), (spec_r3, (F(1),))):
        r = spec.r
        for n in (1, 2):
            for u in sorted({0, 1, n, n + r * (n + 1)}):
                assert C_um_by_elimination(spec, alphas, n, u) == C_um(spec, alphas, n, u)


@settings(deadline=None, derandomize=True, max_examples=60)
@given(admissible_instances(), st.integers(1, 2), st.integers(0, 6))
def test_C_um_det_route_equals_elimination_on_random_instances(instance, n, u):
    # the integer moment determinant against the Fraction elimination, whose
    # weights are each their literal formula, on random admissible rm <= 4
    spec, alphas = instance
    assert C_um(spec, alphas, n, u) == C_um_by_elimination(spec, alphas, n, u)


def test_C_um_refuses_any_route_but_the_moment_determinant(spec_r2):
    # the elimination route is a test oracle (`C_um_by_elimination`): the
    # package's `route` has the one value "det"
    with pytest.raises(InvalidInput, match="eliminate"):
        C_um(spec_r2, (F(1),), 1, 1, route="eliminate")


@settings(deadline=None, derandomize=True, max_examples=60)
@given(admissible_instances(), st.integers(1, 3), st.integers(0, 8))
def test_final_det_equals_the_phi_route(instance, n, u):
    # every entry one integer sum over the lcm of its row, against the
    # Fraction sum of phi_{zeta,k}; negative zeta on random instances
    spec = instance[0]
    assert final_det(spec, n, u) == final_det_by_phi(spec, n, u)


@pytest.mark.parametrize("b", [(F(1, 2), F(1, 2)), (F(-1, 2), F(-1, 2)), (F(-3, 2), F(1))])
def test_final_det_of_repeated_zeta_equals_the_phi_route(b):
    # a zeta value of multiplicity 2 or 3 gives rows phi_{zeta,k}, k > 1
    spec = HypergeometricSpec.from_roots((F(4, 3), F(5, 4), F(6, 5)), (*b, F(1)), F(1))
    for n in (1, 2):
        for u in (0, 3):
            assert final_det(spec, n, u) == final_det_by_phi(spec, n, u)


@settings(deadline=None, derandomize=True)
@given(admissible_instances())
def test_chain_contracts_on_random_instances(instance):
    spec, alphas = instance
    n = 1
    assert C_um(spec, alphas, n, n) == C_um_by_elimination(spec, alphas, n, n)
    system = build_system(spec, alphas, n)
    delta = delta_of_system(system)  # raises NonconstantDeterminant otherwise
    assert delta == leading_coeff_P_rm(system) * theta_det(system)


@settings(deadline=None, derandomize=True, max_examples=40)
@given(admissible_instances(), st.integers(1, 2))
def test_delta_equals_the_evaluation_oracle(instance, n):
    # the argument's Delta against the determinant evaluated at every z up
    # to its degree bound, on random admissible rm <= 4 and n <= 2
    spec, alphas = instance
    system = build_system(spec, alphas, n)
    values = _delta_by_evaluation(system)
    assert all(v == values[0] for v in values)
    assert delta_of_system(system) == values[0]


@settings(deadline=None, derandomize=True, max_examples=20)
@given(admissible_instances(), st.integers(1, 2))
def test_delta_equals_the_sympy_determinant(instance, n):
    # Delta(z) computed by sympy over QQ[z] is a polynomial of degree 0, and
    # its constant is the package's Delta, on random admissible rm <= 4
    # and n <= 2
    spec, alphas = instance
    system = build_system(spec, alphas, n)
    delta = _delta_by_sympy(system)
    assert delta.degree() == 0
    constant = delta.LC()
    assert delta_of_system(system) == F(int(constant.p), int(constant.q))


@settings(deadline=None, derandomize=True, max_examples=60)
@given(admissible_instances(max_m=2), st.integers(1, 2))
def test_chain_constants_are_the_reduction_check_sides(instance, n):
    # the certified chain [c_{u_m,m}, ..., c_{u_1,1}, 1], stated from
    # c_{u,0} = 1 by the link, and its stated exponent, against
    # reduction_check, which measures both ends of each link on sample tuples
    # with c_um_factor
    spec, alphas = instance
    r, m = spec.r, len(alphas)
    report = certify_nonvanishing(spec, alphas, n)
    chain = report.c_um_chain
    assert len(chain) == m + 1
    u = n
    for k in range(m, 0, -1):
        red = reduction_check(spec, alphas[:k], n, u)
        assert red["equal"]
        assert red["lhs"] == chain[m - k]
        assert red["c_next"] == chain[m - k + 1]
        if k == m:
            assert red["exponent_here"] == report.exponent_e
        u += r * (n + 1)


@pytest.mark.parametrize("spec_name, alphas, n", [
    ("spec_r2", (1, 2, 3), 2),
    ("spec_r3", (1,), 2),
])
def test_certify_calls_no_c_um_factor(spec_name, alphas, n, request, monkeypatch):
    # the chain's constants and exponent are stated, not measured: the
    # measuring oracle is not in the package, and every C_um that certify
    # evaluates is at a prefix of the instance's own points, never at a
    # sample tuple of the measurement or its double
    import hgpade.wronskian

    assert not hasattr(hgpade.wronskian, "c_um_factor")
    seen = []
    real = hgpade.wronskian.C_um

    def recorded(spec, at, *args, **kwargs):
        seen.append(list(at))
        return real(spec, at, *args, **kwargs)

    monkeypatch.setattr(hgpade.wronskian, "C_um", recorded)
    points = [F(a) for a in alphas]
    report = certify_nonvanishing(request.getfixturevalue(spec_name), points, n)
    assert report.verdict == "certified nonzero"
    assert all(report.checks.values())
    assert seen and all(at == points[:len(at)] for at in seen)


@pytest.mark.parametrize("spec_name, alphas, n, calls", [
    ("spec_r2", (1, 2, 3), 2, 3),
    ("spec_r3", (1,), 2, 1),
])
def test_each_C_um_value_is_computed_once(spec_name, alphas, n, calls,
                                          request, monkeypatch):
    # one check per level at the instance's points, m in all: level m's is
    # the Theta identity's C_{n,m}, and each L(u) is the product
    # `link_value`, not a moment determinant
    import hgpade.wronskian

    seen = []
    c_um = hgpade.wronskian.C_um

    def counted(spec, alphas, n, u, route="det"):
        seen.append((tuple(alphas), u, route))
        return c_um(spec, alphas, n, u, route)

    monkeypatch.setattr(hgpade.wronskian, "C_um", counted)
    report = certify_nonvanishing(request.getfixturevalue(spec_name),
                                  [F(a) for a in alphas], n)
    assert report.verdict == "certified nonzero"
    assert all(report.checks.values())
    assert len(seen) == calls
    assert len(set(seen)) == calls


@pytest.mark.parametrize("target, failed", [
    ("final_det", "final_det_basis_links"),
    ("link_value", "final_det_basis_links, reduction_chain"),
    ("C_um", "reduction_chain"),
])
def test_certify_raises_when_one_link_is_broken(spec_r2, monkeypatch, target, failed):
    # with the flags passing, one wrong final_det(u), one wrong L(u) or one
    # wrong C value at a level's own points breaks the chain and names the
    # checks that failed: L(u_2) enters the constants of levels 2 and 3
    import hgpade.wronskian

    alphas, n = (F(1), F(2), F(3)), 1
    assert spec_r2.flags_pass()
    assert certify_nonvanishing(spec_r2, alphas, n).verdict == "certified nonzero"
    real = getattr(hgpade.wronskian, target)
    if target in ("final_det", "link_value"):
        def broken(spec, n, u):
            return real(spec, n, u) * (2 if u == n + 2 * (n + 1) else 1)
    else:
        # level 2 at alpha_1, alpha_2 and u_2 = n + r(n+1)
        def broken(spec, points, n, u, route="det"):
            value = real(spec, points, n, u, route)
            return value * 2 if (tuple(points), u) == ((1, 2), n + 2 * (n + 1)) else value
    monkeypatch.setattr(hgpade.wronskian, target, broken)
    with pytest.raises(TheoryViolation,
                       match=re.escape(f"failed checks {failed.split(', ')}")):
        certify_nonvanishing(spec_r2, alphas, n)


def test_certify_takes_no_literal_product_and_one_weight_check_per_pair(spec_r3,
                                                                        monkeypatch):
    # the certify path proves Delta's hypotheses by construction: no
    # literal product, one comparison of the psi weights with the series
    # row per (i, s), over the truncation - 2 + deg P_rm + 1 weights that a
    # window ending right past 1/z^{n+1} reads, and no P_{ell,i,s} row made
    import hgpade.pade

    compared, made = [], []
    series_row = hgpade.pade._series_row
    make = hgpade.pade._PisRows._make

    def counted(spec, alpha, s, count):
        compared.append((alpha, s, count))
        return series_row(spec, alpha, s, count)

    def made_row(rows, ell, i, s):
        made.append((ell, i, s))
        return make(rows, ell, i, s)

    assert not hasattr(hgpade.pade, "remainder")  # the literal product is in the tests
    monkeypatch.setattr(hgpade.pade, "_series_row", counted)
    monkeypatch.setattr(hgpade.pade._PisRows, "_make", made_row)
    report = certify_nonvanishing(spec_r3, [F(1), F(2)], 2)
    assert report.verdict == "certified nonzero"
    assert all(report.checks.values())
    assert made == []
    # (alpha_i, s) for m = 2, r = 3; 4 - 2 + 19 weights at n = 2, deg P_6 = 18
    assert sorted(compared) == [(F(a), s, 21) for a in (1, 2) for s in range(3)]


def test_final_det_canonical(spec_r2):
    # nonvanishing, and one change of basis E for every u: L(u) = E * final_det
    E = final_det_basis(spec_r2)
    assert E != 0
    for u in range(0, 9):
        v = final_det(spec_r2, 1, u)
        assert v != 0, u
        assert C_um(spec_r2, (F(1),), 1, u) == E * v, u


def _final_det_basis_by_partial_fractions(spec):
    """E as the product of the partial-fraction coefficients of the term
    each level s introduces, (group of zeta_s, its count so far), each read
    off one linear solve (`conftest.partial_fractions`), times the sign of
    the permutation from that order of introduction to the grouped rows."""
    zhat, mult = _zeta_groups(spec)
    counts = [0] * len(zhat)
    intro = []
    E = F(1)
    for s in range(spec.r):
        j = zhat.index(spec.zeta[s])
        counts[j] += 1
        intro.append((j, counts[j]))
        E *= partial_fractions(spec, s)[(j, counts[j])]
    perm = [final_det_rows(zhat, mult).index(pair) for pair in intro]
    inversions = sum(perm[x] > perm[y] for x, y in itertools.combinations(range(spec.r), 2))
    return E * (-1) ** inversions


@settings(deadline=None, derandomize=True, max_examples=150)
@given(st.lists(st.sampled_from([F(-5, 2), F(-1, 3), F(1, 2), F(1), F(7, 4)]),
                min_size=1, max_size=5))
def test_final_det_basis_equals_the_partial_fraction_route(zeta):
    # the cover-up product against one linear solve per level, on r <= 5
    # zeta drawn from five values, so most draws repeat one
    spec = HypergeometricSpec.from_roots([F(4, 3)] * len(zeta), zeta, F(1))
    assert final_det_basis(spec) == _final_det_basis_by_partial_fractions(spec)


@settings(deadline=None, derandomize=True, max_examples=100)
@given(st.lists(st.sampled_from([F(-5, 2), F(-1, 3), F(1, 2), F(1), F(7, 4)]),
                min_size=1, max_size=5), st.integers(1, 3), st.integers(0, 12))
def test_final_det_and_link_value_equal_their_determinant_routes(zeta, n, u):
    # the two closed products against the phi-route determinant and the
    # moment determinant C_{u,1}(1), on r <= 5 with zeta drawn from five
    # values, so most draws repeat one, n <= 3 and u <= 12
    spec = HypergeometricSpec.from_roots([F(4, 3)] * len(zeta), zeta, F(1))
    fdet = final_det(spec, n, u)
    assert fdet == final_det_by_phi(spec, n, u)
    L = link_value(spec, n, u)
    assert L == C_um(spec, (F(1),), n, u) == final_det_basis(spec) * fdet
    assert fdet != 0 and L != 0


# ---------------------------------------------------------------------------
# factor structure of C_{u,m}


def test_alpha_exponent_measured(spec_r2, spec_r3):
    # e = r u + r^2 n + r(r-1)/2, measured consistently across tuples
    c, e = c_um_factor(spec_r2, (F(1), F(2)), 1, 1)
    assert e == 2 * 1 + 4 * 1 + 1 == 7
    assert c != 0
    c, e = c_um_factor(spec_r2, (F(1),), 1, 0)
    assert e == 5
    c, e = c_um_factor(spec_r3, (F(1),), 1, 0)
    assert e == 3 * 0 + 9 * 1 + 3 == 12


def _power_of_by_division(ratio: Fraction, base: int) -> int:
    """The exponent g with ratio == base**g, by g exact divisions: the
    oracle of the bit test `_exact_power_of_2`."""
    if ratio <= 0:
        raise FactorizationMismatch(f"ratio {ratio} is not a power of {base}")
    g = 0
    x = Fraction(ratio)
    while x > 1:
        x /= base
        g += 1
    while x < 1:
        x *= base
        g -= 1
    if x != 1:
        raise FactorizationMismatch(f"ratio {ratio} is not a power of {base}")
    return g


def _outcome(fn, ratio):
    try:
        return fn(ratio)
    except FactorizationMismatch:
        return "mismatch"


@settings(max_examples=300, derandomize=True)
@given(st.one_of(
    st.integers(-80, 80).map(lambda g: F(2) ** g),
    st.integers(-80, 80).map(lambda g: -(F(2) ** g)),
    st.just(F(0)),
    st.fractions(),
))
def test_exact_power_of_2_matches_repeated_division(ratio):
    # powers of two, their negatives, 0 and arbitrary ratios
    assert _outcome(_exact_power_of_2, ratio) == _outcome(
        lambda x: _power_of_by_division(x, 2), ratio)


def test_homogeneity_degree(spec_r2):
    alphas = (F(1), F(2))
    for n, u, want in ((1, 0, 22), (1, 1, 26), (2, 1, 42)):
        assert homogeneity_degree(spec_r2, alphas, n, u) == want


def test_vanishing_order(spec_r2):
    for n, u in ((1, 1), (2, 2)):
        assert vanishing_order_at_equal_alphas(spec_r2, n, u, m=2) >= (2 * n + 1) * 4


def test_reduction_two_to_one(spec_r2):
    for u in (0, 1):
        red = reduction_check(spec_r2, (F(1), F(2)), 1, u)
        assert red["equal"]
        assert red["lhs"] == red["rhs"]
        assert red["L"] == C_um(spec_r2, (F(1),), 1, u)
        # the chain continues at u + r(n+1): the alpha-exponent steps by r^2(n+1)
        assert red["exponent_next"] - red["exponent_here"] == 4 * 2
        assert red["sign"] == 1  # (-1)^(r^2 n (m-1)) = +1 here
        assert red["c_next"] != 0


# ---------------------------------------------------------------------------
# the certification chain end to end


def test_certify_canonical(spec_r2):
    report = certify_nonvanishing(spec_r2, (F(1), F(2)), 1)
    assert report.verdict == "certified nonzero"
    assert report.zero_links == []
    assert all(report.checks.values())
    assert report.delta == F(3981312, 146652240109375)
    assert report.c_um_chain == [F(32, 10854718875), F(-4, 2297295), F(1)]
    assert report.exponent_e == 7
    assert report.final_det == F(2, 2297295)
    data = _canonical(vars(report))
    assert data["verdict"] == "certified nonzero"
    assert data["delta"] == "3981312/146652240109375"


def test_certify_degenerate_n1():
    # a_1 = 2 breaks two hypothesis flags; at n = 1 the chain still happens
    # to be nonzero and the report says exactly that
    bad = HypergeometricSpec.from_ab((F(2), F(1, 4)), (F(1, 2),))
    report = certify_nonvanishing(bad, (F(1),), 1)
    assert report.verdict == "certified nonzero"
    assert report.a0s == [F(-3, 8), F(-3, 4)]
    assert report.delta == F(-4, 16575)
    assert not report.hypothesis_flags["a_not_positive_integer"]
    assert not report.hypothesis_flags["eta_minus_zeta_not_natural"]


def test_certify_degenerate_n2_zero_ledger():
    # at n = 2 the same instance degenerates to an exact zero; with flags
    # failing this is reported, not raised
    bad = HypergeometricSpec.from_ab((F(2), F(1, 4)), (F(1, 2),))
    report = certify_nonvanishing(bad, (F(1),), 2)
    assert report.verdict == "zero determinant"
    assert report.delta == 0
    assert report.theta == 0
    assert 0 in report.a0s
    assert "delta" in report.zero_links
    assert "theta" in report.zero_links
    assert "a0s" in report.zero_links


def _window_plus_one(window, e):
    # the window (order, coefficients) of `corrupted`, 1 added at 1/z^e
    order, coeffs = window
    return order, [c + (k == e) for k, c in enumerate(coeffs, order)]


def test_nonconstant_determinant_raises(canonical_system):
    # corrupting one polynomial makes the determinant genuinely z-dependent
    broken, _ = corrupted(canonical_system, ("P", 0, lambda p: [p[0] + 1, *p[1:]]))
    values = _delta_by_evaluation(broken)
    assert any(v != values[0] for v in values)
    with pytest.raises(NonconstantDeterminant):
        delta_route_check(broken)


@pytest.mark.parametrize("part, key, edit, name", [
    # deg P_0 = rmn + 1 instead of rmn
    ("P", 0, lambda p: [*p, F(1)], "deg P_ell"),
    # a stored leading 0: deg P_4 = rmn + 3, whatever the list's length
    ("P", 4, lambda p: [*p[:-1], F(0)], "deg P_ell"),
])
def test_each_failed_hypothesis_is_named(canonical_system, part, key, edit, name):
    broken, _ = corrupted(canonical_system, (part, key, edit))
    with pytest.raises(NonconstantDeterminant, match="hypothesis " + re.escape(name)):
        delta_of_system(broken)


@pytest.mark.parametrize("part, key, edit, check", [
    # deg P_{0,1,0} = rmn + 2 past its bound rmn
    ("Pis", (0, 1, 0), lambda p: [*p, *[F(0)] * (6 - len(p)), F(1)], "deg_Pis"),
    # a constant term in P_{0,1,0}: the product has order 0
    ("Pis", (0, 1, 0), lambda p: [p[0] + 1, *p[1:]], "Pis_coeffs"),
    # the product is untouched, the window entry Theta reads is not
    ("R", (1, 2, 1), lambda w: _window_plus_one(w, 2), "remainder_coeffs"),
])
def test_a_files_own_rows_and_windows_are_verified_not_read_by_delta(
        canonical_system, part, key, edit, check):
    # Delta reads only the rows and windows made from the file's P_ell, so
    # an edited P_{ell,i,s} or window leaves it the build's Delta, and
    # verify names the edit
    broken, given = corrupted(canonical_system, (part, key, edit))
    assert delta_route_check(broken) == delta_route_check(canonical_system)
    first = verify_system(broken, given)["failures"][0]
    assert (first["check"], first["index"]) == (check, list(key))


def _alpha_k_series(real):
    # the series row of F_s(alpha/z) with alpha^k for alpha^{k+1}: over
    # alpha = p/q, every entry times q and the denominator times p
    def series_row(spec, alpha, s, count):
        den, ints = real(spec, alpha, s, count)
        p, q = F(alpha).as_integer_ratio()
        return den * p, [c * q for c in ints]
    return series_row


def _last_weight_doubled(real):
    # the weight table with its entry upto doubled: for the run of a
    # window's head, the last weight that its sums read
    def psi_table(spec, alpha, s, upto):
        table = list(real(spec, alpha, s, upto))
        table[upto] = (2 * table[upto][0], table[upto][1])
        return table
    return psi_table


@pytest.mark.parametrize("target, mutant", [
    # the weight table one entry on: psi_{i,s}(t^k) read as psi_{i,s}(t^{k+1})
    ("_psi_table", lambda real: lambda spec, alpha, s, upto: real(spec, alpha, s, upto + 1)[1:]),
    ("_psi_table", _last_weight_doubled),
    ("_series_row", _alpha_k_series),
])
def test_a_built_system_with_wrong_weights_breaks_a_named_hypothesis(spec_r2, monkeypatch,
                                                                      target, mutant):
    # the built system's rows and windows are made from the weight table, so
    # they agree with each other whatever the table holds, and so do those
    # the system loaded from its file makes; only the comparison of the
    # weights with the series row of F_s sees the fault
    import hgpade.pade

    monkeypatch.setattr(hgpade.pade, target, mutant(getattr(hgpade.pade, target)))
    system = build_system(spec_r2, (F(1), F(2)), 1, truncation=3, cross_check=False)
    loaded, _ = load_system(system.to_jsonable())
    for each in (system, loaded):
        with pytest.raises(NonconstantDeterminant,
                           match=re.escape("hypothesis psi weights = series of F_s")):
            delta_of_system(each)


@settings(deadline=None, derandomize=True, max_examples=60)
@given(admissible_instances(max_rm=6, any_flags=True), st.integers(1, 3))
def test_a_built_system_and_its_file_give_one_delta(instance, n):
    # the contract against the literal products, on the system certify
    # builds (windows of truncation n + 2) and on its JSON round trip, whose
    # own rows and windows the contract compares with those made from its
    # P_ell: random rm <= 6 and n <= 3, flags passing or failing, zeta
    # repeated or not
    spec, alphas = instance
    system = build_system(spec, alphas, n, truncation=n + 2, cross_check=False)
    loaded, given = load_system(system.to_jsonable())
    assert delta_route_check(system) == delta_route_check(loaded)
    assert contract_failures(system) == contract_failures(loaded, given) == []
    assert literal_contract_failures(system) == literal_contract_failures(loaded, given) == []


def test_delta_is_one_determinant(canonical_system, monkeypatch):
    # the hypotheses hold, so Delta is evaluated once, at z = 0
    import hgpade.wronskian

    calls = []

    def counted(matrix):
        calls.append(len(matrix))
        return det_bareiss(matrix)

    monkeypatch.setattr(hgpade.wronskian, "det_bareiss", counted)
    assert delta_of_system(canonical_system) == F(3981312, 146652240109375)
    assert calls == [5]  # rm + 1 at r = m = 2


@pytest.mark.parametrize("drifts, failed", [
    (1, ["delta_equals_lead_times_theta"]),
    (2, ["delta_equals_lead_times_theta", "theta_chain_identity"]),
])
def test_certify_raises_when_delta_or_theta_drifts(spec_r2, monkeypatch, drifts, failed):
    # with the flags passing, a determinant that drifts on the Delta call
    # (the first) or the Theta call (the second) breaks
    # Delta = lead(P_rm) * Theta, and certify names that check; a wrong
    # Theta breaks the Theta chain identity too
    import hgpade.wronskian

    calls = []

    def drifting(matrix):
        calls.append(len(matrix))
        return det_bareiss(matrix) + (len(calls) == drifts)

    monkeypatch.setattr(hgpade.wronskian, "det_bareiss", drifting)
    assert spec_r2.flags_pass()
    with pytest.raises(TheoryViolation, match=re.escape(f"failed checks {failed}")):
        certify_nonvanishing(spec_r2, (F(1), F(2)), 1)
    assert calls[:2] == [5, 4]  # Delta's (rm + 1) x (rm + 1), then Theta's rm x rm
