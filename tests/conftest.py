"""Shared fixtures and helpers: the worked instances every test module leans
on, one admissible-instance strategy, one way to corrupt a system, the
Fraction oracles of the package's integer tables (`correlate`,
`f_s_coefficient`, `phi_zeta_s`), a system's integer rows and a matrix
of rationals read as Fractions (`row_values`, `window_values`,
`fraction_det`), and the partial fractions of 1/prod(X + zeta_t) by a
linear solve (`partial_fractions`), the oracle of the closed-form change
of basis E."""

import math
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import assume
from hypothesis import strategies as st

from hgpade.arith import format_rational, parse_rational
from hgpade.linalg import det_bareiss
from hgpade.pade import PadeSystem, build_system, window_coeff
from hgpade.errors import InvalidInput
from hgpade.polyops import (
    HypergeometricSpec,
    _dot_rows,
    _psi_table,
    _scaled,
    _unscaled,
    poly_from_roots,
)
from hgpade.wronskian import _zeta_groups

F = Fraction

_small_fractions = st.builds(F, st.integers(-7, 7), st.integers(2, 6)).filter(
    lambda x: x.denominator > 1)


def psi_weights(spec, alpha, s, upto):
    """psi_{i,s}(t^k) for k = 0..upto, as a fresh list of exactly upto + 1
    Fractions cut from the spec's weight table of pairs: `correlate` reads
    entries past the end of a list as zero, so a longer list would change
    its results."""
    return [F(*w) for w in _psi_table(spec, alpha, s, upto)[:upto + 1]]


def correlate(p, w, k0, k1):
    """[sum_d p[d] * w[k + d] for k0 <= k < k1], exact; entries past the end
    of w count as zero.

    With w the weight table of psi_{i,s}, entry k is psi_{i,s}(t^k p).  p and
    the window of w it meets are scaled to integers over their lcm
    denominators (`_scaled`), so each output is one integer dot product and
    one Fraction, equal to the Fraction sum it replaces."""
    dp, pi = _scaled([c.as_integer_ratio() for c in p])
    dw, wi = _scaled([c.as_integer_ratio() for c in w[k0:k1 - 1 + len(p)]])
    return _unscaled(dp * dw, _dot_rows(pi, wi, k1 - k0))


def f_s_coefficient(spec, s, k):
    """Coefficient of z^{k+1} in F_s(z) = sum (k+gamma_1)...(k+gamma_s) c_k
    z^{k+1}, on Fractions."""
    w = F(1)
    for g in spec.gamma[:s]:
        w *= k + g
    return w * spec.c(k)


def phi_zeta_s(zeta, s, p):
    """phi_{zeta,s}: t^k -> 1/(k+zeta)^s, extended linearly, on Fractions."""
    zeta = F(zeta)
    total = F(0)
    for k, c in enumerate(p):
        if c == 0:
            continue
        if zeta + k == 0:
            raise InvalidInput(f"pole: k + zeta = 0 at k = {k}")
        total += c / (k + zeta) ** s
    return total


def solve_linear(matrix, rhs):
    """Solve a square nonsingular system exactly (Gauss with partial pivot)."""
    n = len(matrix)
    a = [[F(x) for x in row] + [F(rhs[i])] for i, row in enumerate(matrix)]
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            raise InvalidInput("singular system in solve_linear")
        a[k], a[piv] = a[piv], a[k]
        inv = 1 / a[k][k]
        a[k] = [x * inv for x in a[k]]
        for i in range(n):
            if i != k and a[i][k] != 0:
                f = a[i][k]
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return [a[i][n] for i in range(n)]


def partial_fractions(spec, s):
    """Exact decomposition 1/prod_{j<=s+1}(X+zeta_j) = sum p_{j,k}/(X+zhat_j)^k,
    by one linear solve.

    Returns {(j, k): p_{j,k}} with j indexing the distinct-value groups and
    1 <= k <= multiplicity of zhat_j within the first s+1 entries of zeta.
    """
    zhat, _ = _zeta_groups(spec)
    prefix = spec.zeta[: s + 1]
    mult = [sum(1 for z in prefix if z == zh) for zh in zhat]
    pairs = [(j, k) for j in range(len(zhat)) if mult[j] for k in range(1, mult[j] + 1)]
    # multiply through by prod (X+zhat_j)^{mult_j}: 1 = sum p_{j,k} B_{j,k}(X)
    cols = [poly_from_roots([zhat[j]] * (mult[j] - k) + [
        zhat[j2] for j2 in range(len(zhat)) if j2 != j for _ in range(mult[j2])])
        for j, k in pairs]
    size = s + 1
    mat = [[cols[c][row] if row < len(cols[c]) else F(0) for c in range(len(pairs))]
           for row in range(size)]
    rhs = [F(1)] + [F(0)] * (size - 1)
    sol = solve_linear(mat, rhs)
    return {pair: sol[idx] for idx, pair in enumerate(pairs)}


@st.composite
def admissible_instances(draw, max_m=4):
    """(spec, alphas): r <= 3, small-height non-integer a and b that pass
    the hypothesis flags, and rm <= 4 distinct nonzero points alpha, at
    most max_m of them."""
    r = draw(st.integers(1, 3))
    spec = HypergeometricSpec.from_ab(
        draw(st.lists(_small_fractions, min_size=r, max_size=r)),
        draw(st.lists(_small_fractions, min_size=r - 1, max_size=r - 1)))
    assume(spec.flags_pass())
    m = draw(st.integers(1, min(max_m, 4 // r)))
    alphas = draw(st.lists(st.builds(F, st.integers(-4, 4).filter(bool), st.integers(1, 3)),
                           min_size=m, max_size=m, unique=True))
    return spec, alphas


def fraction_det(matrix) -> Fraction:
    """The determinant of a square matrix of rationals: `det_bareiss` of
    its rows, each scaled to integers over the lcm of its denominators,
    divided by the product of those lcms."""
    rows, scale = [], 1
    for row in matrix:
        row = [F(x) for x in row]
        den = math.lcm(*(x.denominator for x in row))
        rows.append([x.numerator * (den // x.denominator) for x in row])
        scale *= den
    return F(det_bareiss(rows), scale)


def row_values(row) -> list:
    """The coefficients of an integer row (den, ints) of a system, low
    degree first, as Fractions."""
    den, ints = row
    return [F(a, den) for a in ints]


def window_values(window) -> list:
    """The coefficients of 1/z^e, e = 1, ..., truncation - 1, of a window
    row (order, den, ints), as Fractions (zero below its order)."""
    order, _, ints = window
    return [F(*window_coeff(window, e)) for e in range(1, order + len(ints))]


def corrupted(system, *edits):
    """The system loaded from its JSON form after the edits, each a triple
    (part, key, edit): the entry of "P", "Pis" or "R" at key becomes
    edit(entry), where a P_ell or P_{ell,i,s} is its list of Fractions and
    a window is the pair (order, coefficients), its Fractions from the
    exponent order on; it is given with order 1, and the edit's pair is
    written with the truncation order + len(coefficients)."""
    data = system.to_jsonable()
    for part, key, edit in edits:
        name = ",".join(map(str, key)) if isinstance(key, tuple) else str(key)
        if part == "R":
            text = data[part][name]
            order, coeffs = edit((1, [F(0)] * (text["order"] - 1)
                                  + [parse_rational(c) for c in text["coefficients"]]))
            data[part][name] = {"order": order, "truncation": order + len(coeffs),
                                "coefficients": [format_rational(c) for c in coeffs]}
        else:
            poly = edit([parse_rational(c) for c in data[part][name]])
            data[part][name] = [format_rational(c) for c in poly]
    return PadeSystem.from_jsonable(data)


@pytest.fixture(scope="session")
def spec_r1():
    # one upper parameter, no lower ones: c_k = (1/3)_{k+1} / (k+1)!
    return HypergeometricSpec.from_ab((F(1, 3),), ())


@pytest.fixture(scope="session")
def spec_r2():
    # the instance used throughout the docs: a = (1/3, 1/4), b = (1/2)
    return HypergeometricSpec.from_ab((F(1, 3), F(1, 4)), (F(1, 2),))


@pytest.fixture(scope="session")
def spec_r3():
    return HypergeometricSpec.from_ab(
        (F(1, 3), F(1, 4), F(1, 5)), (F(1, 2), F(2, 3))
    )


@pytest.fixture(scope="session")
def toy_spec():
    # A = X + 2, B = X + 1, c_0 = 1: c_k = 1 for every k, so F_0(w) = w/(1-w)
    return HypergeometricSpec.from_roots((F(2),), (F(1),), F(1))


@pytest.fixture(scope="session")
def canonical_system(spec_r2):
    # r = 2, m = 2, n = 1: big enough to be honest, small enough to be fast
    return build_system(spec_r2, (F(1), F(2)), 1)


@pytest.fixture(scope="session")
def canonical_m1(spec_r2):
    return build_system(spec_r2, (F(1),), 1)


def remainder_lists(system, key):
    """(terms, sizes) of R_{ell,i,s} on the system as they stand, read
    without growing or making either: None for a list no read has made."""
    return system._state.get(("terms", *key)), system._state.get(("sizes", *key))


def list_stops(system, key):
    """The exponents below which the term and the size lists of key hold
    entries (head placeholders included); a list no read has made holds
    nothing past the window's end."""
    terms, sizes = remainder_lists(system, key)
    end = system.truncation - 1
    return (end if terms is None else len(terms),
            end + (0 if sizes is None else len(sizes)))


def window_built(system, key) -> bool:
    """Whether the stored window of key has been made (or assigned)."""
    return key in system.R._built


def head_filled(system, key) -> bool:
    """Whether the head of the term list of key, below the window's end,
    has been filled."""
    terms = remainder_lists(system, key)[0]
    return terms is not None and terms[0] is not None


def _check_remainder_lists(system, key):
    # every entry of the term list of R_{ell,i,s} is psi(t^k P_ell): the
    # head, below the window's end, is None throughout until a read inside
    # it fills all of it, and a made window is that head; every entry, an
    # unreduced pair (a, den), is its naive Fraction sum, and every size,
    # an unreduced pair (sa, sb), is sum_d |P_d| |w_{k+d}| from the window's
    # end on, against its naive Fraction sum
    terms, sizes = remainder_lists(system, key)
    terms, sizes = terms or [], sizes or []
    end = system.truncation - 1
    ell, i, s = key
    P = row_values(system.P[ell])
    w = psi_weights(system.spec, system.alphas[i - 1], s,
                    max(len(terms), end + len(sizes)) + len(P))
    assert not terms or len(terms) >= end
    if not head_filled(system, key):
        assert terms[:end] == [None] * len(terms[:end])
        assert not window_built(system, key)
    elif window_built(system, key):
        assert [F(*term) for term in terms[:end]] == window_values(system.R[key])
    for k, term in enumerate(terms):
        if term is not None:
            assert F(*term) == sum((c * w[k + d] for d, c in enumerate(P)), F(0))
    for j, size in enumerate(sizes):
        assert F(*size) == sum((abs(c) * abs(w[end + j + d]) for d, c in enumerate(P)), F(0))


@pytest.fixture(scope="session")
def check_remainder_lists():
    """Check a system's term and size lists of one (ell, i, s) entry by entry."""
    return _check_remainder_lists


@pytest.fixture(scope="session")
def remainder_state():
    """Read a system's remainder state without growing or building any of
    it: `lists` and `stops` of one (ell, i, s), `head_filled` and
    `window_built`."""
    return SimpleNamespace(lists=remainder_lists, stops=list_stops,
                           head_filled=head_filled, window_built=window_built)
