"""Polynomial kernels, truncated tails, specs and the functional calculus."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    A_poly,
    B_at,
    B_poly,
    SingularEigenvalue,
    T_c,
    apply_H_theta,
    apply_H_theta_inverse,
    correlate,
    expand_F_s,
    f_s_coefficient,
    gamma_ext,
    phi_zeta_s,
    poly_eval,
    poly_from_roots,
    poly_mul,
    poly_shift_up,
    psi,
    psi_weights,
    remainder,
    row_values,
    zeta_prefix_weights,
)
from hgpade.errors import HypothesisViolation, InvalidInput
from hgpade.pade import _window_jsonable, _window_row, window_coeff, window_order
from hgpade.polyops import (
    HypergeometricSpec,
    _psi_table,
    _row_value,
    _scaled,
    _series_row,
    _zeta_row,
    poly_deg,
    poly_trim,
    term_table,
)

F = Fraction

small_rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)
polys = st.lists(small_rationals, min_size=0, max_size=7)


# ---------------------------------------------------------------------------
# dense polynomial helpers


def poly_pow(p, e: int):
    """p^e by repeated squaring."""
    out, sq = [F(1)], list(p)
    while e:
        if e & 1:
            out = poly_mul(out, sq)
        sq = poly_mul(sq, sq)
        e >>= 1
    return out


def poly_divexact_linear(p, alpha):
    """Exact division by (t - alpha) (synthetic division); raises if the
    remainder is nonzero."""
    if not p:
        return []
    q = [F(0)] * (len(p) - 1)
    carry = p[-1]
    for i in range(len(p) - 2, -1, -1):
        q[i] = carry
        carry = p[i] + F(alpha) * carry
    if carry != 0:
        raise InvalidInput("polynomial not divisible by (t - alpha)")
    return poly_trim(q)


def test_poly_basics():
    p = [F(1), F(2)]        # 1 + 2x
    q = [F(0), F(0), F(3)]  # 3x^2
    assert poly_mul(p, q) == [F(0), F(0), F(3), F(6)]
    assert poly_mul(p, p) == [F(1), F(4), F(4)]
    assert poly_deg([]) < 0  # zero polynomial: distinguished -inf degree
    assert poly_deg(p) == 1
    assert poly_trim([F(1), F(0), F(0)]) == [F(1)]
    assert poly_eval(p, F(3)) == 7
    assert poly_shift_up(p, 2) == [F(0), F(0), F(1), F(2)]


def test_poly_from_roots_and_divexact():
    p = poly_from_roots([F(-1), F(-2)])  # (x-1)(x-2) = 2 - 3x + x^2
    assert p == [F(2), F(-3), F(1)]
    assert poly_divexact_linear(p, F(1)) == [F(-2), F(1)]
    with pytest.raises(InvalidInput):
        poly_divexact_linear([F(1), F(1)], F(1))  # x + 1 not divisible by x - 1


@given(st.lists(small_rationals, max_size=4), small_rationals)
def test_poly_from_roots_of_shifted_roots_is_the_shifted_polynomial(roots, h):
    # prod (X + root + h) = A(X + h) for A = prod (X + root), the form in
    # which `conftest.a0s_change_of_basis` takes A(X - j): two monic
    # polynomials of degree d that agree at d + 1 points
    shifted, A = poly_from_roots([rt + h for rt in roots]), poly_from_roots(roots)
    assert len(shifted) == len(A)
    for x in range(len(roots) + 1):
        assert poly_eval(shifted, F(x)) == poly_eval(A, x + h)


@settings(deadline=None)
@given(st.lists(st.integers(-10**12, 10**12), max_size=9), st.integers(1, 10**9),
       st.integers(-10**6, 10**6), st.integers(2, 10**6))
@example([3, 0, -5], 12, -7, 4)
def test_row_value_is_poly_eval_of_the_rows_fractions(ints, den, p, q):
    # the integer Horner over den q^D is the polynomial ints / den at p/q
    x = F(p, q)
    assume(x.denominator > 1)
    assert _row_value(den, ints, x) == poly_eval(row_values((den, ints)), x)


@given(polys, polys)
def test_poly_mul_commutes_with_eval(p, q):
    x = F(3, 7)
    assert poly_eval(poly_mul(p, q), x) == poly_eval(p, x) * poly_eval(q, x)


@given(polys, st.integers(min_value=0, max_value=4))
def test_poly_pow_matches_repeated_mul(p, e):
    expected = [F(1)]
    for _ in range(e):
        expected = poly_mul(expected, p)
    assert poly_pow(p, e) == poly_trim(expected)


# ---------------------------------------------------------------------------
# remainder windows as integer rows (order, den, ints)


def test_tail_normalization_and_coeff():
    # a window row is zero below its order, its text folds leading zeros
    # into the order, and a file's window holds truncation - order entries
    window = (1, 3, [0, 0, 15, 21, 0])
    assert window_coeff(window, 3) == (15, 3)
    assert window_coeff(window, 4) == (21, 3)
    assert window_coeff(window, 5) == (0, 3)
    assert window_coeff((3, 1, [5, 7, 0]), 1) == (0, 1)  # below the order: exactly zero
    assert _window_jsonable(window) == {"order": 3, "truncation": 6,
                                        "coefficients": ["5", "7", "0"]}
    with pytest.raises(InvalidInput, match='^R "0,1,0": coefficients: .* = 6 rationals, got 1$'):
        _window_row("0,1,0", {"order": 1, "truncation": 7, "coefficients": ["5"]}, 7)


def test_tail_order_queries():
    assert window_order((2, 1, [1, 0, 0])) == 2
    assert window_order((1, 5, [0, 0, 4])) == 3
    assert window_order((0, 2, [3, 1])) == 0
    zero = (1, 7, [0] * 5)
    assert window_order(zero) is None  # zero up to its truncation: no order found
    assert _window_jsonable(zero) == {"order": 6, "truncation": 6, "coefficients": []}


def _naive_mul_poly(series, p, start, stop):
    """The coefficients of 1/z^e, start <= e < stop, of the product of a
    series in 1/z (series[e - 1] the coefficient of 1/z^e) and a polynomial
    p in z, taken Fraction by Fraction: sum_j p[j] * series[e + j - 1] over
    the j with e + j >= 1."""
    return [sum((pj * series[e + j - 1] for j, pj in enumerate(p) if pj and e + j >= 1), F(0))
            for e in range(start, stop)]


@settings(deadline=None, derandomize=True, max_examples=200)
@given(p=st.lists(small_rationals, min_size=0, max_size=6),
       q=st.lists(small_rationals, min_size=0, max_size=9),
       alpha=small_rationals.filter(bool), s=st.integers(0, 1),
       truncation=st.integers(3, 9))
@example(p=[], q=[F(1, 3), F(-2, 5)], alpha=F(1), s=0, truncation=3)  # zero P
@example(p=[F(0), F(-3, 4), F(0)], q=[], alpha=F(-1, 2), s=1, truncation=5)
@example(p=[F(-7, 15)] * 4, q=[F(2, 9), F(-5, 6)], alpha=F(3), s=0, truncation=4)
def test_remainder_equals_the_fraction_loop(spec_r2, p, q, alpha, s, truncation):
    # the row (order, den, ints) of the literal product P F_s(alpha/z) - Q,
    # on a system made from P as P_0 with Q given as P_{0,1,s}, against the
    # Fraction product of the series and P less Q: zero and trailing-zero P,
    # Q longer than P, and unequal denominators on every side
    from types import MappingProxyType

    from hgpade.pade import PadeSystem

    def rows(key, coeffs):
        # the one row of a mapping, as a system or a loaded file holds it
        den, ints = _scaled([c.as_integer_ratio() for c in coeffs])
        return MappingProxyType({key: (den, tuple(ints))})

    system = PadeSystem(spec_r2, (alpha,), 1, truncation, P=rows(0, p))
    d = max(len(p) - 1, 0)
    series = [f_s_coefficient(spec_r2, s, k) * alpha ** (k + 1)
              for k in range(truncation + d - 1)]
    order, den, ints = remainder(system, 0, 1, s, {"Pis": rows((0, 1, s), q)})
    assert order == min(1 - d, 1 - len(q)) and len(ints) == truncation - order
    product = _naive_mul_poly(series, p, order, truncation)
    for e in range(order, truncation):
        want = product[e - order] - (q[-e] if -len(q) < e <= 0 else 0)
        assert F(ints[e - order], den) == want, e


def test_tail_json_round_trip():
    # a file's window is read over the lcm of its denominators, its ints a
    # tuple as a system's windows hold them, and written back as the same
    # text
    text = {"order": 2, "truncation": 5, "coefficients": ["1/3", "0", "7"]}
    window = _window_row("1,1,0", text, 5)
    assert window == (2, 3, (1, 0, 21))
    assert _window_jsonable(window) == text


# ---------------------------------------------------------------------------
# hypergeometric specs


def test_from_ab_roots_consistency(spec_r2):
    # eta = a + 1 and zeta = (b, 1) give the same recurrence
    twin = HypergeometricSpec.from_roots(
        (F(4, 3), F(5, 4)), (F(1, 2), F(1)), spec_r2.c0
    )
    for k in range(8):
        assert twin.c(k) == spec_r2.c(k)


@pytest.mark.parametrize("a, b, c0", [
    ((F(1, 3), F(1, 4)), (F(1, 2),), None),
    ((F(1, 3), F(-5, 4), F(2, 7)), (F(-3, 2), F(-3, 2)), F(-2, 7)),
    ((F(1, 3),), (), F(5)),
])
def test_from_ab_is_from_roots_of_a_plus_one_and_b_one(a, b, c0):
    spec = HypergeometricSpec.from_ab(a, b, c0)
    seed = math.prod(a, start=F(1)) / math.prod(b, start=F(1)) if c0 is None else c0
    twin = HypergeometricSpec.from_roots([x + 1 for x in a], b + (F(1),), seed)
    assert spec == twin
    assert spec.a == twin.a == a and spec.b == twin.b == b
    assert spec.to_jsonable() == twin.to_jsonable()


@pytest.mark.parametrize("make, error, message", [
    (lambda: HypergeometricSpec.from_ab((F(1, 3),), (F(1, 2),), 0),
     InvalidInput, "need len(b) = len(a)-1, got 1 and 1"),
    (lambda: HypergeometricSpec.from_ab((F(0), F(-1)), (F(1, 2),)),
     InvalidInput, "default c0 = prod(a)/prod(b) undefined here; pass c0"),
    (lambda: HypergeometricSpec.from_ab((F(1, 3),), (), F(0)),
     InvalidInput, "c0 must be nonzero"),
    (lambda: HypergeometricSpec.from_ab((F(-1), F(1, 4)), (F(1, 2),), 0),
     InvalidInput, "c0 must be nonzero"),
    (lambda: HypergeometricSpec.from_ab((F(-1), F(1, 4)), (F(-2),)),
     HypothesisViolation, "assumption (AB) fails: eta contains the non-positive integer 0"),
    (lambda: HypergeometricSpec.from_ab((F(1, 3), F(1, 4)), (F(-2),)),
     HypothesisViolation, "assumption (AB) fails: zeta contains the non-positive integer -2"),
    (lambda: HypergeometricSpec.from_roots((F(4, 3),), (F(1, 2), F(1)), F(0)),
     InvalidInput, "need len(eta) == len(zeta)"),
    (lambda: HypergeometricSpec.from_roots((F(0),), (F(-1),), F(0)),
     InvalidInput, "c0 must be nonzero"),
    (lambda: HypergeometricSpec.from_roots((F(0),), (F(-1),), F(1)),
     HypothesisViolation, "assumption (AB) fails: eta contains the non-positive integer 0"),
])
def test_constructor_errors_and_their_order(make, error, message):
    with pytest.raises(error) as exc:
        make()
    assert str(exc.value) == message


def test_canonical_coefficients(spec_r2):
    # first few c_k of the doc instance, frozen
    assert [spec_r2.c(k) for k in range(4)] == [F(1, 6), F(5, 54), F(7, 108), F(65, 1296)]


def test_default_seed_coefficient(spec_r2):
    assert spec_r2.c0 == F(1, 3) * F(1, 4) / F(1, 2)


@given(st.integers(min_value=0, max_value=25))
def test_recurrence_property(k):
    spec = HypergeometricSpec.from_ab((F(1, 3), F(1, 4)), (F(1, 2),))
    A_k = math.prod(k + e for e in spec.eta)
    assert spec.c(k + 1) * B_at(spec, F(k + 1)) == spec.c(k) * A_k


def test_gamma_is_reversed_zeta(spec_r3):
    # gamma_w = zeta_{r+1-w} for w = 1..r-1: the appended 1 comes first
    assert spec_r3.gamma == (F(1), F(2, 3))
    for w in range(1, spec_r3.r):
        assert gamma_ext(spec_r3, w) == spec_r3.gamma[w - 1]
        assert gamma_ext(spec_r3, w) == gamma_ext(spec_r3, w + spec_r3.r)


def test_A_B_polys(spec_r2):
    assert poly_eval(A_poly(spec_r2), F(0)) == F(4, 3) * F(5, 4)
    assert poly_deg(A_poly(spec_r2)) == 2
    assert poly_deg(B_poly(spec_r2)) == 2
    assert B_at(spec_r2, F(-1)) == 0  # zeta contains 1


def test_arity_checked():
    with pytest.raises(InvalidInput):
        HypergeometricSpec.from_ab((F(1, 3), F(1, 4)), ())
    with pytest.raises(InvalidInput):
        HypergeometricSpec.from_roots((F(4, 3),), (F(1, 2), F(1)), F(1))


def test_hypothesis_flags_good(spec_r2):
    flags = spec_r2.hypothesis_flags()
    assert all(flags.values())
    assert spec_r2.flags_pass()
    assert spec_r2.violated_hypotheses() == []


def test_hypothesis_flags_degenerate():
    bad = HypergeometricSpec.from_ab((F(2), F(1, 4)), (F(1, 2),))
    assert not bad.flags_pass()
    assert bad.violated_hypotheses() == [
        "a_not_positive_integer",
        "eta_minus_zeta_not_natural",
    ]


def test_spec_json_round_trip(spec_r3):
    back = HypergeometricSpec.from_jsonable(spec_r3.to_jsonable())
    assert back.eta == spec_r3.eta
    assert back.zeta == spec_r3.zeta
    assert back.c0 == spec_r3.c0


# ---------------------------------------------------------------------------
# operators


def test_T_c_inverts(spec_r2):
    p = [F(3), F(-1, 2), F(0), F(7, 5)]
    inverse = [c * spec_r2.c(k) for k, c in enumerate(T_c(spec_r2, p))]
    assert inverse == p
    # T_c divides by c_k
    assert T_c(spec_r2, [F(0), F(1)])[1] == 1 / spec_r2.c(1)


class DiagonalOperator:
    """An endomorphism of Q[t] acting diagonally on monomials:
    t^k -> eigenvalue(k) * t^k."""

    def __init__(self, eigenvalue):
        self.eigenvalue = eigenvalue

    def apply(self, p):
        return poly_trim([c * self.eigenvalue(k) for k, c in enumerate(p)])

    def apply_inverse(self, p):
        out = []
        for k, c in enumerate(p):
            lam = self.eigenvalue(k)
            if lam == 0:
                if c != 0:
                    raise SingularEigenvalue(f"singular eigenvalue at degree {k}")
                out.append(F(0))
            else:
                out.append(c / lam)
        return poly_trim(out)


def S_n_zeta(n: int, zeta) -> DiagonalOperator:
    """S_{n,zeta}: t^k -> ((k+zeta+1)_n / n!) t^k."""
    def eig(k):
        out = F(1)
        for j in range(n):
            out *= k + F(zeta) + 1 + j
        return out / math.factorial(n)

    return DiagonalOperator(eig)


def test_S_n_zeta_diagonal():
    op = S_n_zeta(2, F(1, 2))
    p = [F(1), F(1), F(1)]
    q = op.apply(p)
    # eigenvalue at k is (k + zeta + 1)_n / n!
    assert q[0] == F(3, 2) * F(5, 2) / 2
    assert op.apply_inverse(q) == p
    with pytest.raises(SingularEigenvalue):
        # zeta = -1 makes the k = 0 eigenvalue vanish: division is singular
        S_n_zeta(2, F(-1)).apply_inverse(p)


def test_apply_H_theta_linear():
    # H(theta) with H = X acts as k on t^k
    assert apply_H_theta([F(0), F(1)], [F(5), F(7)]) == [F(0), F(7)]
    # H = X + 2 acts as k + 2
    assert apply_H_theta([F(2), F(1)], [F(5), F(7)]) == [F(10), F(21)]
    with pytest.raises(SingularEigenvalue):
        apply_H_theta_inverse([F(0), F(1)], [F(1)])  # eigenvalue 0 at k = 0


@given(polys, st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3))
def test_shift_identity(p, k, s):
    # t^k H(theta) = H(theta - k) t^k as maps on polynomials
    H = [F(s), F(1), F(0), F(2)]
    assert poly_shift_up(apply_H_theta(H, p), k) == apply_H_theta(
        H, poly_shift_up(p, k), shift=F(-k)
    )


@given(polys, st.integers(min_value=0, max_value=3))
def test_twist_identity(p, k):
    spec = HypergeometricSpec.from_ab((F(1, 3), F(1, 4)), (F(1, 2),))
    lhs = poly_shift_up(T_c(spec, p), k)
    q = poly_shift_up(p, k)
    for j in range(1, k + 1):
        q = apply_H_theta(A_poly(spec), q, shift=F(-j))
    for j in range(k):
        q = apply_H_theta_inverse(B_poly(spec), q, shift=F(-j))
    assert T_c(spec, q) == poly_trim(lhs)


@given(polys)
def test_psi_factorization_identity(p):
    spec = HypergeometricSpec.from_ab((F(1, 3), F(1, 4)), (F(1, 2),))
    alphas = (F(1), F(2))
    for s in range(spec.r):
        q = list(p)
        for w in range(s):
            q = apply_H_theta([spec.gamma[w], F(1)], q)
        assert psi(spec, alphas, 1, s, p) == psi(spec, alphas, 1, 0, q)


@given(polys)
def test_psi_evaluation_identity(p):
    spec = HypergeometricSpec.from_ab((F(1, 3), F(1, 4)), (F(1, 2),))
    alphas = (F(1), F(2))
    for i in (1, 2):
        assert psi(spec, alphas, i, 0, T_c(spec, p)) == alphas[i - 1] * poly_eval(
            p, alphas[i - 1]
        )


def test_shared_psi_table_grows_out_of_order():
    # a fresh spec: short, long, then short again, at two alpha
    spec = HypergeometricSpec.from_ab((F(1, 3), F(-1, 4)), (F(1, 2),))
    for alpha in (F(1), F(-2, 3)):
        for s in (1, 0):
            reached = -1
            for upto in (3, 40, 3, 0, 41):
                table = _psi_table(spec, alpha, s, upto)
                assert [F(*w) for w in table[:upto + 1]] == psi_weights(spec, alpha, s, upto)
                reached = max(reached, upto)
                assert table is spec._psi_tables[(alpha, s)]  # the spec's own, not copied
                assert len(table) == reached + 1  # grown on demand, never cut
    assert len(spec._psi_tables) == 4  # one table per (alpha, s)


def test_psi_weights_match_psi(spec_r2):
    alphas = (F(1), F(2))
    w = psi_weights(spec_r2, F(2), 1, 5)
    assert len(w) == 6
    for k in range(6):
        mono = [F(0)] * k + [F(1)]
        assert psi(spec_r2, alphas, 2, 1, mono) == w[k]
    # weight at k is (k + gamma_1) c_k alpha^(k+1) for s = 1
    k = 3
    assert w[k] == (k + spec_r2.gamma[0]) * spec_r2.c(k) * F(2) ** (k + 1)


@given(p=st.lists(small_rationals, min_size=0, max_size=6),
       w=st.lists(small_rationals, min_size=0, max_size=14),
       k0=st.integers(0, 5), count=st.integers(0, 6))
@example(p=[F(-3, 7)], w=[F(0), F(5, 2), F(-1, 3), F(4)], k0=2, count=3)
@example(p=[F(0), F(1, 4), F(-2, 9)], w=[F(1, 6), F(0), F(-7, 10), F(3)], k0=1, count=2)
def test_correlate_equals_naive_fraction_sum(p, w, k0, count):
    # entries past the end of w count as zero
    naive = [
        sum((c * w[k + d] for d, c in enumerate(p) if k + d < len(w)), F(0))
        for k in range(k0, k0 + count)
    ]
    got = correlate(p, w, k0, k0 + count)
    assert got == naive
    assert all(type(x) is F for x in got)


def test_correlate_on_the_weight_table_is_psi(spec_r3):
    alphas = (F(1), F(-3, 2))
    p = [F(2, 3), F(0), F(-5), F(1, 7)]
    w = psi_weights(spec_r3, alphas[1], 2, 12)
    got = correlate(p, w, 0, 9)
    for k in range(9):
        assert got[k] == psi(spec_r3, alphas, 2, 2, poly_shift_up(p, k))
        assert got[k] == sum((c * w[k + d] for d, c in enumerate(p)), F(0))


def test_phi_zeta_s_literal():
    p = [F(1), F(2), F(3)]
    z = F(1, 2)
    assert phi_zeta_s(z, 2, p) == sum(
        c / (k + z) ** 2 for k, c in enumerate(p)
    )
    assert phi_zeta_s(z, 0, p) == sum(p)
    with pytest.raises(InvalidInput):
        phi_zeta_s(F(-1), 1, p)  # pole at k = 1


def test_zeta_prefix_functional_literal(spec_r2):
    # t^k -> alpha^k / ((k+zeta_1)...(k+zeta_{s+1})); hand-checked at s = 1:
    # k=0: 1/((1/2)(1)) = 2, k=1: 2/((3/2)(2)) = 2/3
    assert zeta_prefix_weights(spec_r2, F(2), 1, 1) == [F(2), F(2, 3)]
    # s = 0 keeps only the first zeta factor
    assert zeta_prefix_weights(spec_r2, F(2), 0, 1) == [F(2), F(2) / F(3, 2)]


@settings(deadline=None, derandomize=True, max_examples=60)
@given(st.lists(small_rationals, min_size=1, max_size=3), small_rationals.filter(bool),
       st.integers(1, 40))
@example([F(-1, 2), F(-7, 3)], F(-3, 4), 12)   # alpha < 0, q > 1, zeta < 0
@example([F(1, 2)], F(1), 1)                   # one entry: den = L
def test_zeta_row_is_the_literal_weight(b, alpha, count):
    # the closed-form integer row of the zeta-prefix weights against the
    # literal alpha^k / prod (k + zeta_j), Fraction by Fraction, at every
    # level s; a negative k + zeta_j carries its sign into the row
    assume(all(x.denominator > 1 for x in b))
    spec = HypergeometricSpec.from_ab([F(1, 3)] * len(b) + [F(1, 5)], b)
    for s in range(spec.r):
        den, ints = _zeta_row(spec, alpha, s, count)
        assert den > 0 and len(ints) == count
        want = [alpha ** k / math.prod((k + z for z in spec.zeta[:s + 1]), start=F(1))
                for k in range(count)]
        assert row_values((den, ints)) == want
        assert zeta_prefix_weights(spec, alpha, s, count - 1) == want


@settings(deadline=None, derandomize=True, max_examples=40)
@given(st.lists(small_rationals.filter(lambda x: x.denominator > 1), min_size=1,
                max_size=3), small_rationals.filter(bool), st.integers(1, 30))
@example([F(-1, 3), F(1, 4), F(-1, 5)], F(-3, 2), 20)
def test_series_row_is_the_product_formula(a, alpha, count):
    # the integer row of F_s(alpha/z) against f_s_coefficient * alpha^(k+1),
    # built with the psi weights unreadable; each request makes a row of
    # exactly its count entries, so a shorter one is a prefix in value
    import hgpade.polyops

    b = [F(1, 2), F(-2, 3)][:len(a) - 1]
    try:
        spec = HypergeometricSpec.from_ab(a, b)
    except HypothesisViolation:
        assume(False)

    def weights(*args):
        raise AssertionError("the series row read the psi weights")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hgpade.polyops, "_psi_table", weights)
        for s in range(spec.r):
            den, ints = _series_row(spec, alpha, s, count)
            want = [f_s_coefficient(spec, s, k) * alpha ** (k + 1) for k in range(count)]
            assert len(ints) == count and row_values((den, ints)) == want
            assert row_values(_series_row(spec, alpha, s, count // 2)) == want[:count // 2]
            den, ints = _series_row(spec, alpha, s, count + 3)
            assert len(ints) == count + 3
            assert F(ints[-1], den) == f_s_coefficient(spec, s, count + 2) * alpha ** (count + 3)


@settings(deadline=None, derandomize=True, max_examples=60)
@given(small_rationals.filter(bool), st.lists(small_rationals, max_size=3),
       st.lists(small_rationals.filter(lambda x: x.denominator > 1), max_size=3),
       small_rationals.filter(bool), st.integers(0, 5), st.integers(0, 25))
@example(F(-5, 6), [F(-1, 2)], [F(-7, 3)], F(-9, 4), 0, 20)
def test_term_table_steps_reduced_pairs(x, upper, lower, t, k, count):
    # each entry is the reduced pair, den > 0, of the term stepped on
    # Fractions: zero factors, negative ratios and unequal denominators
    got = term_table(t.as_integer_ratio(), k, count, x, upper, lower)
    want, value = [], t
    for j in range(k, k + count):
        value *= x * math.prod((j + u for u in upper), start=F(1)) / math.prod(
            (j + d for d in lower), start=F(1))
        want.append(value.as_integer_ratio())
    assert got == want


# ---------------------------------------------------------------------------
# the series family


def test_f_s_coefficient(spec_r2, spec_r3):
    k = 4
    assert f_s_coefficient(spec_r2, 0, k) == spec_r2.c(k)
    assert f_s_coefficient(spec_r2, 1, k) == (k + spec_r2.gamma[0]) * spec_r2.c(k)
    assert f_s_coefficient(spec_r3, 2, k) == (
        (k + spec_r3.gamma[0]) * (k + spec_r3.gamma[1]) * spec_r3.c(k)
    )


def test_expand_F_s_matches_psi_weights(spec_r2, monkeypatch):
    # the series table grows in steps and is filled by the product formula
    # alone, never from the psi weights it is compared against
    import hgpade.polyops

    def weights(*args):
        raise AssertionError("expand_F_s read the psi weights")

    spec = HypergeometricSpec.from_ab(spec_r2.a, spec_r2.b)
    alpha = F(2)
    with monkeypatch.context() as patch:
        patch.setattr(hgpade.polyops, "_psi_table", weights)
        short = expand_F_s(spec, alpha, 1, 3)
        tail = expand_F_s(spec, alpha, 1, 7)
    w = psi_weights(spec, alpha, 1, 6)
    assert tail == w and short == w[:3]
