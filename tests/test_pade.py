"""System construction, invariant checking, and the construction-free oracle."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    B_at,
    B_poly,
    admissible_instances,
    check_remainder_identity,
    correlate,
    corrupted,
    expand_F_s,
    file_rows,
    literal_contract_failures,
    poly_eval,
    poly_mul,
    psi_weights,
    remainder,
    row_values,
    solve_pade_nullspace,
    window_values,
)
from hgpade.errors import HypothesisViolation, InvalidInput, TheoryViolation
from hgpade.pade import (
    MAX_TRUNCATION,
    PadeSystem,
    _P_family,
    base_polynomial,
    build_system,
    contract_failures,
    default_truncation,
    load_system,
    verify_system,
    window_coeff,
    window_order,
)
from hgpade.polyops import (
    HypergeometricSpec,
    _scaled,
    poly_deg,
    poly_trim,
)
from hgpade.wronskian import theta_det

F = Fraction


def divided_difference_image(P, weights):
    """The functional with monomial values `weights` (at least deg P of
    them) applied to the t-variable of (P(z) - P(t))/(z - t), as a
    polynomial in z: its z^d coefficient is sum_k weights[k] * P[d+1+k],
    all of them from one `correlate` call that scales its own inputs."""
    deg = len(P) - 1
    if deg < 1:
        return []
    return poly_trim(correlate(weights[:deg], P[1:], 0, deg))


def test_default_truncation_monotone():
    assert default_truncation(1, 1, 1) == 8
    for n in range(1, 5):
        assert default_truncation(2, 2, n + 1) > default_truncation(2, 2, n)
        assert default_truncation(2, 2, n) > 2 * 2 * n + n  # room beyond the order bound


@pytest.mark.parametrize("n, truncation", [(1, 2), (3, 4), (1, MAX_TRUNCATION + 1)])
def test_bad_truncation_is_refused_before_any_build(spec_r2, monkeypatch, n, truncation):
    # a window that cannot certify the order bound, or one past the cap, is
    # an input error naming the flag, raised before a single P_ell is made
    import hgpade.pade

    def no_build(*args):
        raise AssertionError("built a system for a refused truncation")

    monkeypatch.setattr(hgpade.pade, "_P_family", no_build)
    with pytest.raises(InvalidInput, match="--truncation"):
        build_system(spec_r2, (F(1),), n, truncation=truncation)


def test_a_default_window_past_the_cap_is_refused_before_any_build(spec_r2, monkeypatch):
    # rm(n + 1) + n + 5 is 1259 at r = m = 2, n = 250: build_system refuses
    # it, naming n and the window's length, and so does a criterion window
    # that reaches that n, before a single P_ell is made
    import hgpade.pade
    from hgpade.criterion import Instance

    def no_build(*args):
        raise AssertionError("built a system for a refused window")

    monkeypatch.setattr(hgpade.pade, "_P_family", no_build)
    alphas = (F(1), F(2))
    assert default_truncation(2, 2, 203) == MAX_TRUNCATION
    for refused in (lambda: build_system(spec_r2, alphas, 250),
                    lambda: build_system(spec_r2, alphas, 204, cross_check=False),
                    lambda: Instance(spec_r2, alphas, range(4, 251))):
        with pytest.raises(InvalidInput, match=r"^n = (250|204): .* (1259|1029) terms") as info:
            refused()
        assert "--truncation" not in str(info.value)


def test_shortest_and_longest_truncations_build(toy_spec):
    short = build_system(toy_spec, (F(1),), 1, truncation=3)
    assert len(window_values(short.R[(0, 1, 0)])) == 2 and verify_system(short)["ok"]
    assert build_system(toy_spec, (F(1),), 1, truncation=MAX_TRUNCATION,
                        cross_check=False).truncation == MAX_TRUNCATION


def test_base_polynomial_of_one_point_is_a_binomial_power():
    # (t + c)^e as base_polynomial((-c,), e, 0), an integer row over q^e
    assert row_values(base_polynomial((F(2),), 3, 0)) == poly_trim(
        poly_mul(poly_mul([F(-2), F(1)], [F(-2), F(1)]), [F(-2), F(1)])
    )
    assert base_polynomial((F(-1, 2),), 2, 0) == (4, [1, 4, 4])
    assert base_polynomial((F(-5),), 0, 0) == (1, [1])


@settings(deadline=None, derandomize=True, max_examples=60)
@given(st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=97),
                max_size=3),
       st.integers(min_value=0, max_value=9), st.integers(min_value=0, max_value=4))
def test_base_polynomial_equals_the_fraction_product(alphas, rn, ell):
    # t^ell prod (t - alpha)^rn, multiplied out on Fractions factor by factor
    want = [F(1)]
    for al in alphas:
        for _ in range(rn):
            want = poly_mul(want, [-F(al), F(1)])
    den, ints = base_polynomial(alphas, rn, ell)
    assert row_values((den, ints)) == [F(0)] * ell + want
    assert all(type(a) is int for a in ints) and ints[-1] == den


# ---------------------------------------------------------------------------
# the toy kernel: c_k = 1, F_0(w) = w/(1-w), so P_0 F_0(1/z) is exactly 1


def test_toy_P0(toy_spec):
    assert row_values(build_system(toy_spec, (F(1),), 1).P[0]) == [F(-1), F(1)]
    assert row_values(build_system(toy_spec, (F(1),), 1).Pis[(0, 1, 0)]) == [F(1)]


def test_toy_remainder_vanishes(toy_spec):
    system = build_system(toy_spec, (F(1),), 1)
    window = system.R[(0, 1, 0)]
    # 1 - 1 = 0, exactly, through the whole window
    assert window_order(window) is None and window_values(window) == [F(0)] * 7
    assert system.to_jsonable()["R"]["0,1,0"] == {
        "order": 8, "truncation": 8, "coefficients": []}


def test_toy_input_validation(toy_spec):
    with pytest.raises(InvalidInput):
        build_system(toy_spec, (F(1),), 0)  # n >= 1
    with pytest.raises(InvalidInput):
        build_system(toy_spec, (F(0),), 1)  # alpha = 0
    with pytest.raises(InvalidInput):
        build_system(toy_spec, (F(1), F(1)), 1)  # repeated alphas


# ---------------------------------------------------------------------------
# the multiplier table against the operator chain it replaces


def _operator_chain_P(spec, alphas, n, ell):
    """P_ell as the paper's operator chain: B(theta+j) for j = 1..n-1, one
    Fraction polynomial evaluation per coefficient, on t^ell prod (t-alpha)^{rn},
    then division by c_k (by its own recurrence) and by ((n-1)!)^r."""
    g = [F(1)]
    for al in alphas:
        for _ in range(spec.r * n):
            g = poly_mul(g, [-F(al), F(1)])
    g = [F(0)] * ell + g
    B = B_poly(spec)
    for j in range(1, n):
        g = [c * poly_eval(B, k + j) for k, c in enumerate(g)]
    c = spec.c0
    out = []
    for k, x in enumerate(g):
        out.append(x / c / math.factorial(n - 1) ** spec.r)
        c = c * math.prod(k + e for e in spec.eta) / B_at(spec, F(k + 1))
    return poly_trim(out)


_signed = st.fractions(min_value=-4, max_value=4, max_denominator=7)


@st.composite
def _instances(draw):
    r = draw(st.integers(min_value=1, max_value=3))
    m = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=1, max_value=6))
    a = draw(st.lists(_signed.filter(bool), min_size=r, max_size=r))
    b = draw(st.lists(_signed.filter(bool), min_size=r - 1, max_size=r - 1))
    alphas = draw(st.lists(_signed.filter(bool), min_size=m, max_size=m, unique=True))
    return a, b, alphas, n


@settings(deadline=None, derandomize=True, max_examples=40)
@given(_instances())
def test_build_P_equals_the_operator_chain(instance):
    a, b, alphas, n = instance
    try:
        spec = HypergeometricSpec.from_ab(a, b)
    except HypothesisViolation:
        assume(False)  # (AB) fails: a non-positive integer root
    top = spec.r * len(alphas)
    # each row is `_scaled` of the chain's reduced Fractions: the same
    # polynomial, over the least common denominator
    for ell, row in enumerate(_P_family(spec, alphas, n, top)):
        den, ints = _scaled([c.as_integer_ratio()
                             for c in _operator_chain_P(spec, alphas, n, ell)])
        assert row == (den, tuple(ints))


# ---------------------------------------------------------------------------
# the documented instance r = 2, alphas = (1, 2)


def test_degree_contract(canonical_system):
    sys = canonical_system
    rm = sys.r * sys.m
    for ell in range(rm + 1):
        assert poly_deg(sys.P[ell][1]) == rm * sys.n + ell
    for key, (_, ints) in sys.Pis.items():
        assert poly_deg(ints) <= rm * sys.n + key[0]


def test_order_contract(canonical_system):
    for key, window in canonical_system.R.items():
        assert window_order(window) >= canonical_system.n + 1, key


def _functional(system, ell, i, s):
    """The coefficients of 1/z, ..., 1/z^{truncation - 1} of R_{ell,i,s},
    psi_{i,s}(t^k P_ell), fresh from the weights by one `correlate` call
    that scales its own inputs."""
    P = row_values(system.P[ell])
    w = psi_weights(system.spec, system.alphas[i - 1], s,
                    system.truncation - 2 + max(0, len(P) - 1))
    return correlate(P, w, 0, system.truncation - 1)


def test_remainder_routes_agree(canonical_system):
    sys = canonical_system
    for key in [(0, 1, 0), (2, 2, 1), (4, 1, 1)]:
        assert window_values(remainder(sys, *key)) == _functional(sys, *key)


def test_product_route_does_not_use_the_kernel(spec_r2, monkeypatch):
    # the literal product is an oracle only if it never goes through the
    # kernel that fills P_{ell,i,s} and the windows, nor through the scaled
    # correlation built on it
    import hgpade.pade
    import hgpade.polyops

    sys = build_system(spec_r2, (F(1), F(2)), 1, cross_check=False)
    # every row and window made before the patch, as a file holds them;
    # reading the windows fills the term heads they are read from
    made = {"Pis": dict(sys.Pis), "R": dict(sys.R)}

    def kernel(*args):
        raise AssertionError("the product route called the kernel")

    monkeypatch.setattr(hgpade.polyops, "_dot_rows", kernel)
    monkeypatch.setattr(hgpade.pade, "_dot_rows", kernel)
    for key in [(0, 1, 0), (4, 2, 1)]:
        assert window_values(remainder(sys, *key, made)) == window_values(made["R"][key])
    # the whole contract, kernel-free, both ways
    assert literal_contract_failures(sys, made) == contract_failures(sys) == []


def test_one_build_expands_each_series_coefficient_once(monkeypatch):
    # the cross-check compares the weights with the row of F_s(alpha/z):
    # one build makes each row once per (alpha, s), as long as the longest
    # P_ell needs, and nothing keeps it, so `verify` after it makes each
    # once more
    import hgpade.pade

    made = []
    series_row = hgpade.pade._series_row

    def counted(spec, alpha, s, count):
        row = series_row(spec, alpha, s, count)
        made.append((alpha, s, len(row[1])))
        return row

    monkeypatch.setattr(hgpade.pade, "_series_row", counted)
    spec = HypergeometricSpec.from_ab((F(1, 3), F(1, 4)), (F(1, 2),))
    alphas = (F(1), F(-1, 2))
    system = build_system(spec, alphas, 2)
    longest = system.truncation + len(system.P[system.r * system.m][1]) - 2
    once = sorted((alpha, s, longest) for alpha in alphas for s in range(spec.r))
    assert sorted(made) == once
    made.clear()
    assert verify_system(system)["ok"]
    assert sorted(made) == once


def test_cross_check_off_matches(spec_r2, canonical_system):
    loose = build_system(spec_r2, (F(1), F(2)), 1, cross_check=False)
    assert loose.P == canonical_system.P
    assert loose.Pis == canonical_system.Pis
    # every window, built on its first read here, by index
    assert list(loose.R) == list(canonical_system.R) == list(loose.indices())
    for key in loose.indices():
        assert loose.R[key] == canonical_system.R[key], key


def _divided_difference_call(pi, wi, count):
    # the kernel's call shape for P_{ell,i,s}: deg P_ell outputs from the
    # deg P_ell coefficients P_ell[1:], so its run is exactly as long as its
    # outputs; a run of remainder coefficients reaches deg P_ell past them
    return len(wi) == count == len(pi)


def test_cross_check_compares_below_the_larger_order(spec_r2, monkeypatch):
    # both mutants, injected through the system's one kernel, leave every
    # coefficient from the larger of the two orders on intact, so only a
    # comparison from the smaller order sees them.  The mutated build's
    # rows and windows agree with its own weights, so its contract holds;
    # the literal product sees each mutant, and so does the contract of the
    # build's file, written under the mutant, loaded and checked with the
    # true kernel
    import hgpade.pade

    kernel = hgpade.pade._dot_rows

    def constant_plus_one(pi, wi, count):
        out = kernel(pi, wi, count)
        if _divided_difference_call(pi, wi, count):
            out[0] += 1
        return out

    def leading_zeroed(pi, wi, count):
        out = kernel(pi, wi, count)
        if not _divided_difference_call(pi, wi, count):
            out[next(j for j, x in enumerate(out) if x)] = 0
        return out

    for mutant in (constant_plus_one, leading_zeroed):
        with monkeypatch.context() as patch:
            patch.setattr(hgpade.pade, "_dot_rows", mutant)
            system = build_system(spec_r2, (F(1), F(2)), 1)
            failures = literal_contract_failures(system)
            data = system.to_jsonable()
        assert failures, mutant.__name__
        assert contract_failures(*load_system(data)) == failures


def test_cross_check_refuses_a_build_on_a_wrong_weight_table(spec_r2, monkeypatch):
    # the weight table one entry on: the build's rows and windows agree with
    # it, and only the cross-check's comparison with the series row of F_s
    # refuses the build
    import hgpade.pade

    table = hgpade.pade._psi_table
    monkeypatch.setattr(hgpade.pade, "_psi_table",
                        lambda spec, alpha, s, upto: table(spec, alpha, s, upto + 1)[1:])
    with pytest.raises(TheoryViolation, match="'check': 'weights'"):
        build_system(spec_r2, (F(1), F(2)), 1)
    # without the cross-check the build goes through
    build_system(spec_r2, (F(1), F(2)), 1, cross_check=False)


@pytest.mark.parametrize("a, b, alphas, n", [
    ((F(1, 3), F(1, 4)), (F(1, 2),), (F(1), F(2)), 2),
    ((F(1, 3), F(1, 4)), (F(1, 2),), (F(1),), 3),
    ((F(1, 3), F(1, 4), F(1, 5)), (F(1, 2), F(2, 3)), (F(1), F(2)), 1),
    ((F(1, 3), F(1, 4)), (F(1, 2),), (F(1, 2), F(-3)), 2),
])
def test_cross_check_passes_on_correct_builds(a, b, alphas, n):
    system = build_system(HypergeometricSpec.from_ab(a, b), alphas, n)
    assert verify_system(system)["ok"]


def test_verify_clean(canonical_system):
    report = verify_system(canonical_system)
    assert report["ok"]
    assert report["failures"] == []
    assert report["r"] == 2 and report["m"] == 2 and report["n"] == 1
    assert all(report["hypothesis_flags"].values())


def test_verify_names_degree_failure(canonical_system):
    # drop the leading coefficient
    report = verify_system(*corrupted(canonical_system, ("P", 1, lambda p: p[:-1])))
    assert not report["ok"]
    assert any(f["check"] == "deg_P" and f["index"] == [1] for f in report["failures"])


def test_verify_reads_the_degree_of_the_trimmed_P(spec_r2):
    # a stored leading coefficient of 0: P_4 of r2, alphas (1, 2), n = 2 has
    # degree rmn + 3, not rmn + 4, and deg_P says so without trimming the
    # stored list
    broken, given = corrupted(build_system(spec_r2, (F(1), F(2)), 2),
                              ("P", 4, lambda p: [*p[:-1], F(0)]))
    failures = verify_system(broken, given)["failures"]
    assert failures[0] == {"check": "deg_P", "index": [4], "expected": 12, "got": "11"}
    assert [f for f in failures if f["check"].startswith("deg")] == failures[:1]
    assert len(broken.P[4][1]) == 13 and broken.P[4][1][-1] == 0


def test_verify_names_a_zero_P(canonical_system):
    # P_ell = 0 read from a file: the literal product is -P_{ell,i,s}, and
    # the report names the failures instead of raising
    failures = verify_system(*corrupted(canonical_system, ("P", 2, lambda p: [])))["failures"]
    assert failures[0] == {"check": "deg_P", "index": [2], "expected": 6, "got": "-inf"}
    assert {"check": "Pis_coeffs", "index": [2, 1, 0]} in failures
    assert {"check": "remainder_coeffs", "index": [2, 1, 0]} in failures


def test_verify_names_order_failure(canonical_system):
    trunc = canonical_system.truncation
    report = verify_system(*corrupted(canonical_system, ("R", (0, 1, 0), lambda w: (
        1, [F(1)] + [F(0)] * (trunc - 2)))))
    assert not report["ok"]
    checks = {f["check"] for f in report["failures"]}
    assert "ord_R" in checks
    assert "remainder_coeffs" in checks  # the fresh recomputation disagrees too
    # the true window with a 1/z^0 term in front: the product's exponents
    # >= 1 still match, and the stored term below them is named
    broken = corrupted(canonical_system, ("R", (0, 1, 0), lambda w: (0, [F(1)] + w[1])))
    assert [f["check"] for f in verify_system(*broken)["failures"]] == [
        "ord_R", "remainder_coeffs"]


def test_verify_names_remainder_failure(canonical_system):
    # same degree, wrong polynomial
    report = verify_system(*corrupted(canonical_system, ("P", 0, lambda p: [p[0] + 1, *p[1:]])))
    assert not report["ok"]
    assert any(f["check"] == "remainder_coeffs" for f in report["failures"])


def test_a_system_is_fixed_when_it_is_made(canonical_system):
    # a row is a tuple (den, ints) with ints a tuple, in a read-only
    # mapping, and so is a window (order, den, ints): nothing assigns to a
    # system, an edit in place or an assignment raises, and the data stay
    # as made
    system = canonical_system
    P0, Pis0, theta = system.P[0], system.Pis[(0, 1, 0)], theta_det(system)
    with pytest.raises(TypeError):
        system.P[0][0] += 1
    with pytest.raises(TypeError):
        system.P[0][1][0] += 1
    with pytest.raises(TypeError):
        system.Pis[(0, 1, 0)][0] += 1
    with pytest.raises(TypeError):
        system.Pis[(0, 1, 0)][1][0] += 1
    with pytest.raises(TypeError):
        system.P[0] = (P0[0], tuple(2 * c for c in P0[1]))
    with pytest.raises(TypeError):
        system.Pis[(0, 1, 0)] = (Pis0[0], tuple(2 * c for c in Pis0[1]))
    with pytest.raises(TypeError):
        system.R[(0, 1, 0)] = system.R[(0, 1, 1)]
    with pytest.raises(TypeError):
        system.R[(0, 1, 0)][2][2] += 1
    assert system.P[0] == P0 and system.Pis[(0, 1, 0)] == Pis0
    assert theta_det(system) == theta
    assert verify_system(system)["ok"]


def _doubled(p):
    return [2 * c for c in p]


_DOUBLED_P0 = ([("P", 0, _doubled)]
               + [("Pis", (0, i, s), _doubled) for i in (1, 2) for s in (0, 1)])


@pytest.mark.parametrize("edits, verified, identity", [
    # a non-constant coefficient of P_0: P_{0,i,s} is no longer its
    # polynomial part
    ([("P", 0, lambda p: [p[0], p[1] + 1, *p[2:]])], False, False),
    ([("Pis", (0, 1, 0), lambda p: [p[0] + 1, *p[1:]])], False, False),
    # P_0, every P_{0,i,s} and every stored window doubled: still a system
    (_DOUBLED_P0 + [("R", (0, i, s), lambda w: (w[0], _doubled(w[1])))
                    for i in (1, 2) for s in (0, 1)], True, True),
    # a constant added to P_0 leaves P_{0,i,s} the polynomial part of
    # P_0 F_s, and P_0 with every P_{0,i,s} doubled is a system of its own:
    # only the stored windows, which the identity does not read, disagree
    ([("P", 0, lambda p: [p[0] + 1, *p[1:]])], False, True),
    (_DOUBLED_P0, False, True),
])
def test_verify_and_the_remainder_identity_on_edited_files(canonical_system, edits,
                                                           verified, identity):
    # the contract and the remainder identity read the file's own rows;
    # the identity checks less (no window, no order), so an edit that
    # breaks only the stored windows fails the contract alone
    broken, given = corrupted(canonical_system, *edits)
    assert verify_system(broken, given)["ok"] is verified
    assert check_remainder_identity(broken, 10**6, 64, given)["ok"] is identity


def test_json_round_trip(canonical_system):
    back, given = load_system(canonical_system.to_jsonable())
    assert back.spec.eta == canonical_system.spec.eta
    assert back.alphas == canonical_system.alphas
    assert back.n == canonical_system.n
    assert back.truncation == canonical_system.truncation
    # each row read back over the lcm of its denominators: the same values
    assert back.P == canonical_system.P
    assert ({key: row_values(row) for key, row in given["Pis"].items()}
            == {key: row_values(row) for key, row in canonical_system.Pis.items()})
    # a window is read back over the lcm of its denominators, its leading
    # zeros folded into its order: the same coefficients, and the same text
    assert all(window_values(given["R"][key]) == window_values(canonical_system.R[key])
               for key in back.indices())
    assert back.to_jsonable() == canonical_system.to_jsonable()
    assert verify_system(back, given)["ok"]


def test_a_loaded_system_holds_only_the_rows_made_from_its_P(canonical_system):
    # a file's P_{ell,i,s} rows and windows are data beside the system it
    # loads: the system makes its own from the file's P_ell, so it keeps
    # one copy of each window, and an edited row or window in the file is
    # named by verify, never read as the system's
    key = (1, 2, 0)
    loaded, given = corrupted(canonical_system, ("Pis", key, lambda p: [p[0] + 1, *p[1:]]),
                              ("R", key, lambda w: (1, [*w[1][:-1], w[1][-1] + 1])))
    assert given["Pis"][key] != loaded.Pis[key] == canonical_system.Pis[key]
    assert window_values(given["R"][key]) != window_values(loaded.R[key])
    assert window_values(loaded.R[key]) == window_values(canonical_system.R[key])
    assert [f["check"] for f in verify_system(loaded, given)["failures"]] == [
        "Pis_coeffs", "remainder_coeffs"]


def test_comparing_two_systems_builds_no_window(spec_r2, monkeypatch):
    # a system is equal only to itself: comparing two builds of one
    # instance reads neither a window nor a term list of either
    def refused(*args):
        raise AssertionError("comparing systems built a window")

    s, t = (build_system(spec_r2, (F(1), F(2)), 2, cross_check=False) for _ in range(2))
    monkeypatch.setattr(PadeSystem, "terms", refused)
    assert s == s and s != t


# ---------------------------------------------------------------------------
# construction-free nullspace oracle


def test_nullspace_toy():
    # f = 1/z alone: order >= 2 with deg P0 <= 1 forces P0 = z, P_1 = 1
    f = [[F(1)] + [F(0)] * 4]
    families = solve_pade_nullspace(f, [1], 1)
    assert families == [[[F(0), F(1)], [F(1)]]]


def test_nullspace_requires_window():
    f = [[F(1)]]
    with pytest.raises(InvalidInput):
        solve_pade_nullspace(f, [1], 1)  # window too short for the constraints
    with pytest.raises(InvalidInput):
        solve_pade_nullspace(f, [1, 2], 1)  # one order target per tail


def test_constructed_column_is_the_kernel(canonical_m1):
    # at M = rmn the solution family is unique up to scale and it is ours
    sys = canonical_m1
    rm, n = sys.r * sys.m, sys.n
    need = n + rm * n + 1
    tails = [
        expand_F_s(sys.spec, alpha, s, need)
        for alpha in sys.alphas
        for s in range(sys.r)
    ]
    families = solve_pade_nullspace(tails, [n] * len(tails), rm * n)
    assert len(families) == 1
    fam = families[0]
    P0 = row_values(sys.P[0])
    lam = P0[-1] / fam[0][-1]
    assert [lam * c for c in fam[0]] == P0
    idx = 0
    for i in range(1, sys.m + 1):
        for s in range(sys.r):
            idx += 1
            assert [lam * c for c in fam[idx]] == row_values(sys.Pis[(0, i, s)])


def _P_by_sympy(spec, alphas, n: int, ell: int) -> list:
    """A basis of the P = z^ell Q, deg Q <= rmn, whose products
    P(z) F_s(alpha_i/z) have no 1/z^e term for e = 1..n, for every (i, s),
    solved by sympy alone: each F_s(alpha_i/z) is a sympy series in
    w = 1/z with the coefficients (k+gamma_1)...(k+gamma_s) c_k alpha_i^{k+1},
    c_k = c0 prod rf(eta, k) / prod rf(1+zeta, k), the conditions are read
    off sympy's product of polynomials in w, and the basis is the nullspace
    of their matrix; each vector holds the coefficients of z^ell.. as
    Fractions."""
    sympy = pytest.importorskip("sympy")
    w = sympy.Symbol("w")

    def q(x):
        return sympy.Rational(x.numerator, x.denominator)

    eta, zeta, gamma = ([q(x) for x in v] for v in (spec.eta, spec.zeta, spec.gamma))
    top = spec.r * len(alphas) * n + ell
    coeffs = sympy.symbols(f"p{ell}:{top + 1}")
    conditions = []
    for alpha in map(q, alphas):
        for s in range(spec.r):
            series = sum(sympy.Mul(*(k + g for g in gamma[:s])) * q(spec.c0)
                         * sympy.Mul(*(sympy.rf(e, k) for e in eta))
                         / sympy.Mul(*(sympy.rf(1 + z, k) for z in zeta))
                         * alpha ** (k + 1) * w ** (k + 1) for k in range(top + n))
            # w^top P(1/w) F_s(alpha w): its w^(top+e) term is the 1/z^e
            # term of P(z) F_s(alpha/z)
            product = sympy.Poly(sum(c * w ** (top - d) for d, c in enumerate(coeffs, ell)),
                                 w) * sympy.Poly(series, w)
            conditions += [product.coeff_monomial(w ** (top + e)) for e in range(1, n + 1)]
    basis = sympy.Matrix([[cond.coeff(c) for c in coeffs] for cond in conditions]).nullspace()
    return [[F(int(x.p), int(x.q)) for x in vector] for vector in basis]


@settings(deadline=None, derandomize=True, max_examples=25)
@given(admissible_instances(), st.integers(1, 2))
def test_every_P_ell_is_the_sympy_solution_of_its_conditions(instance, n):
    # the type-II conditions with z^ell | P_ell fix P_ell up to a scalar,
    # and sympy's solution of them is the package's row: random
    # admissible r*m <= 4 and n <= 2
    spec, alphas = instance
    system = build_system(spec, alphas, n, truncation=n + 2, cross_check=False)
    for ell, row in system.P.items():
        basis = _P_by_sympy(spec, alphas, n, ell)
        assert len(basis) == 1, ell
        want, got = basis[0], row_values(row)
        assert got[:ell] == [0] * ell
        scale = got[-1] / want[-1]
        assert [scale * c for c in want] == got[ell:], ell


def test_membership_all_columns(canonical_system):
    # every column solves its own approximation problem: each literal
    # product P_ell F_s - P_{ell,i,s} has order >= n+1 and is the window
    # the weights give, and the contract names no failure
    sys = canonical_system
    for key in sys.indices():
        order, _, ints = product = remainder(sys, *key)
        assert not any(ints[:1 - order]), key  # nothing at exponents <= 0
        assert window_order(product) >= sys.n + 1, key
        assert window_values(product) == _functional(sys, *key), key
    assert contract_failures(sys) == literal_contract_failures(sys) == []


def test_psi_weights_agree_with_remainder(canonical_m1):
    # remainder coefficients are psi_{i,s}(t^k P(t)): spot-check k = n
    sys = canonical_m1
    P = row_values(sys.P[0])
    w = psi_weights(sys.spec, sys.alphas[0], 1, sys.n + len(P))
    acc = sum(c * w[sys.n + d] for d, c in enumerate(P))
    assert F(*window_coeff(sys.R[(0, 1, 1)], sys.n + 1)) == acc


# ---------------------------------------------------------------------------
# the contract against the two-route check it replaced


def _two_route_failures(system, given=None):
    """The failure list of the two-route `verify_system` that the literal
    product replaced: the degrees and orders as the contract checks them,
    P_{ell,i,s} against a fresh divided difference, and the stored window
    against a fresh functional window from the psi weights, on a file's
    own rows and windows (`given`), else the system's (`file_rows`)."""
    rows = file_rows(system, given)
    failures = []
    r, m, n = system.r, system.m, system.n
    for ell in range(r * m + 1):
        want = r * m * n + ell
        got = poly_deg(row_values(system.P[ell]))
        if got != want:
            failures.append(
                {"check": "deg_P", "index": [ell], "expected": want, "got": str(got)})
    for ell, i, s in system.indices():
        bound = r * m * n + ell
        got = poly_deg(row_values(rows["Pis"][(ell, i, s)]))
        if got > bound:
            failures.append({"check": "deg_Pis", "index": [ell, i, s],
                             "bound": bound, "got": str(got)})
        got = window_order(rows["R"][(ell, i, s)])
        if got is not None and got < n + 1:
            failures.append({"check": "ord_R", "index": [ell, i, s], "bound": n + 1,
                             "got": got})
    for ell, i, s in system.indices():
        P = row_values(system.P[ell])
        w = psi_weights(system.spec, system.alphas[i - 1], s, len(P) - 2)
        if poly_trim(row_values(rows["Pis"][(ell, i, s)])) != divided_difference_image(P, w):
            failures.append({"check": "Pis_coeffs", "index": [ell, i, s]})
        window = rows["R"][(ell, i, s)]
        start = min(window[0], 1)
        fresh = [F(0)] * (1 - start) + _functional(system, ell, i, s)
        if [F(*window_coeff(window, e)) for e in range(start, system.truncation)] != fresh:
            failures.append({"check": "remainder_coeffs", "index": [ell, i, s]})
    return failures


@st.composite
def _corrupted_systems(draw):
    """A built admissible system (r*m <= 4, n <= 2, flags passing or
    failing, zeta repeated or not) and a copy of it with one entry of one
    P_ell, P_{ell,i,s} or stored window moved by a nonzero rational, or
    with one window given a nonzero entry at an exponent <= 0."""
    spec, alphas = draw(admissible_instances(any_flags=True))
    system = build_system(spec, alphas, draw(st.integers(1, 2)), cross_check=False)
    part = draw(st.sampled_from(["P", "Pis", "R"]))
    below = part == "R" and draw(st.booleans())
    keys = sorted(getattr(system, part))
    key = keys[draw(st.integers(0, len(keys) - 1))]
    delta = draw(st.fractions(min_value=-3, max_value=3, max_denominator=5).filter(bool))

    def moved(entry):
        coeffs = list(entry[1] if part == "R" else entry)
        if below:
            # the window from the order -low <= 0 on
            low = draw(st.integers(0, 2))
            coeffs[:0] = [F(0)] * (low + 1)
            coeffs[draw(st.integers(0, low))] += delta
            return -low, coeffs
        coeffs[draw(st.integers(0, len(coeffs) - 1))] += delta
        return (1, coeffs) if part == "R" else coeffs

    return system, corrupted(system, (part, key, moved))


@settings(deadline=None, derandomize=True, max_examples=300)
@given(_corrupted_systems())
def test_contract_names_what_the_two_routes_named(systems):
    # the contract, the two-route check it replaced and the literal product
    # name the same failures, entry by entry and in order
    system, (broken, given) = systems
    assert (contract_failures(system) == _two_route_failures(system)
            == literal_contract_failures(system) == [])
    failures = contract_failures(broken, given)
    assert failures  # every corruption breaks the contract somewhere
    assert (failures == _two_route_failures(broken, given)
            == literal_contract_failures(broken, given))
    assert verify_system(broken, given)["failures"] == failures


def test_trailing_zeros_in_a_file_break_no_contract(canonical_system):
    # a given row is compared as a polynomial: a P_ell or P_{ell,i,s} with
    # a trailing zero is the same polynomial, for the contract and for the
    # literal product
    loaded = corrupted(canonical_system, ("P", 2, lambda p: [*p, F(0)]),
                       ("Pis", (1, 2, 0), lambda p: [*p, F(0), F(0)]))
    assert contract_failures(*loaded) == literal_contract_failures(*loaded) == []


# ---------------------------------------------------------------------------
# the one kernel against Fraction oracles


@st.composite
def _admissible_systems(draw):
    """A built admissible system, r*m <= 4 and n <= 2, at its default or at
    a short truncation."""
    spec, alphas = draw(admissible_instances())
    n = draw(st.integers(1, 2))
    truncation = draw(st.sampled_from([None, n + 2, n + 5]))
    return build_system(spec, alphas, n, truncation=truncation, cross_check=False)


@settings(deadline=None, derandomize=True, max_examples=30)
@given(_admissible_systems())
def test_every_psi_value_of_the_kernel_is_its_fraction_sum(system):
    # P_{ell,i,s} against the divided difference of one `correlate` call,
    # and every window entry against sum_d P_d w_{k+d} taken Fraction by
    # Fraction, which shares no integer scaling with the kernel
    end = system.truncation - 1
    for ell, i, s in system.indices():
        P = row_values(system.P[ell])
        w = psi_weights(system.spec, system.alphas[i - 1], s, end + len(P))
        assert row_values(system.Pis[(ell, i, s)]) == divided_difference_image(P, w)
        window = window_values(system.R[(ell, i, s)])
        assert len(window) == end
        for k in range(end):
            want = F(0)
            for d, c in enumerate(P):
                want += c * w[k + d]
            assert window[k] == want, (ell, i, s, k)
    assert contract_failures(system) == []
