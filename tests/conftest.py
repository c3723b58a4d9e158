"""Shared fixtures and helpers: the one loader of the golden texts
(`assert_golden`, `run_golden`, `run_own_goldens`, over the cases of
`golden_cases`), the worked instances every test module leans on, one
admissible-instance strategy, one way to edit a system's file and load it
(`edited`, of `golden_cases`, and `corrupted`), the literal product of a
system and the contract decided by it
(`remainder`, `literal_contract_failures`), the Fraction oracles of the package's integer tables (`psi_weights`, by the
literal product of the c_k, `correlate`, `f_s_coefficient`, `phi_zeta_s`,
`zeta_prefix_weights`), the subset elimination oracle of the moment
determinant C_{u,m} (`C_um_by_elimination`), a system's integer rows and a
matrix of rationals read as Fractions (`row_values`, `window_values`,
`fraction_det`), and the partial fractions of 1/prod(X + zeta_t) by a
linear solve (`partial_fractions`), the oracle of the closed-form change
of basis E, and the final determinant as the determinant of its
phi-functionals (`final_det_by_phi`).

The second half holds the oracles that two or more test modules read and
the package does not: dense polynomials over Q, the functional psi_{i,s}
on a polynomial, the series of F_s as Fractions, the diagonal operators
H(theta) and T_c, the construction-free null-space solver, the remainder
identity at a rational beta, the denominator profile of (a)_k/(b)_k
(`DenominatorProfile`), B(x) = prod (x + zeta_j), the criterion value V,
and the measured (c, e) factorization of C_{u,m} with the homogeneity,
vanishing-order and reduction checks built on it."""

import difflib
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from types import SimpleNamespace

import pytest
from hypothesis import assume
from hypothesis import strategies as st

import golden_cases
from golden_cases import edited
from hgpade.arith import log_int
from hgpade.criterion import decay_fit_R, height_fit_vec
from hgpade.errors import HgpadeError, InvalidInput, TheoryViolation
from hgpade.linalg import det_bareiss
from hgpade.numerics import BigFloat, eval_F_family, remainder_value
from hgpade.pade import (
    base_polynomial,
    build_system,
    load_system,
    window_coeff,
    window_order,
)
from hgpade.polyops import (
    HypergeometricSpec,
    _dot_rows,
    _psi_table,
    _row_value,
    _scaled,
    _series_row,
    poly_deg,
    poly_trim,
)
from hgpade.wronskian import C_um, _link_sign, _zeta_groups, alpha_exponent, vandermonde

F = Fraction


def assert_golden(results: dict):
    """Fail unless each result (exit code, stdout, stderr), by case name,
    writes the golden text of its case byte for byte; the failure shows a
    unified diff of the first case that differs, after the case's argv and
    its first differing line.  A case with no file differs from the empty
    text.  tools/golden.py rewrites the texts."""
    for name, result in results.items():
        path = golden_cases.GOLDEN / f"{name}.txt"
        want = path.read_bytes().decode("utf-8") if path.exists() else ""
        got = golden_cases.golden_text(golden_cases.CASES[name], *result)
        if got == want:
            continue
        want_lines, got_lines = want.splitlines(keepends=True), got.splitlines(keepends=True)
        line = next(k for k, (w, g) in enumerate(zip([*want_lines, ""], [*got_lines, ""]))
                    if w != g)
        diff = difflib.unified_diff(want_lines, got_lines, f"tests/golden/{name}.txt",
                                    "this run")
        pytest.fail(f"golden case {name} ({golden_cases.CASES[name].label}) differs "
                    f"first at line {line + 1}:\n" + "".join(list(diff)[:200]),
                    pytrace=False)


def _run_goldens(names, workdir) -> dict:
    results = {name: golden_cases.run_case(golden_cases.CASES[name], workdir)
               for name in names}
    assert_golden(results)
    # no case writes a file of its own, `--out=--` (argparse's []) included
    assert sorted(path.name for path in workdir.iterdir()) == sorted(
        file for name in names for file, _ in golden_cases.CASES[name].files)
    return results


def run_golden(name: str, workdir) -> tuple:
    """Run the golden case `name` in workdir (`golden_cases.run_case`),
    assert its golden text, and return its (exit code, stdout, stderr)."""
    return _run_goldens([name], workdir)[name]


def run_own_goldens(request, workdir) -> dict:
    """Run, in workdir, the golden cases of the requesting test
    (`golden_cases.cases_of`), and assert their golden texts; return their
    (exit code, stdout, stderr) by name."""
    test = f"{request.module.__name__}.{request.function.__name__}"
    return _run_goldens(golden_cases.cases_of(test), workdir)


_small_fractions = st.builds(F, st.integers(-7, 7), st.integers(2, 6)).filter(
    lambda x: x.denominator > 1)


# (eta, zeta, c0, alpha, s) -> [c_k / c0, alpha^{k+1}, the weights below k]
_PSI_WEIGHTS = {}


def psi_weights(spec, alpha, s, upto):
    """psi_{i,s}(t^k) = g_s(k) c_k alpha^{k+1} for k = 0..upto, as a fresh
    list of exactly upto + 1 Fractions (`correlate` reads entries past the
    end of a list as zero, so a longer list would change its results).
    g_s(k) = (k+gamma_1)...(k+gamma_s) and c_k = c0 prod (eta)_k /
    prod (1+zeta)_k are literal products on Fractions, the Pochhammer ratio
    and the power of alpha kept running over k in a table of the tests' own
    per (spec, alpha, s): no table of the spec is read."""
    alpha = F(alpha)
    state = _PSI_WEIGHTS.setdefault((spec.eta, spec.zeta, spec.c0, alpha, s),
                                    [F(1), alpha, []])
    ratio, power, out = state
    for k in range(len(out), upto + 1):
        g = math.prod((k + x for x in spec.gamma[:s]), start=F(1))
        out.append(g * spec.c0 * ratio * power)
        ratio *= math.prod(k + e for e in spec.eta) / math.prod(k + 1 + z for z in spec.zeta)
        power *= alpha
    state[:2] = ratio, power
    return out[:upto + 1]


def correlate(p, w, k0, k1):
    """[sum_d p[d] * w[k + d] for k0 <= k < k1], exact; entries past the end
    of w count as zero.

    With w the weight table of psi_{i,s}, entry k is psi_{i,s}(t^k p).  p and
    the window of w it meets are scaled to integers over their lcm
    denominators (`_scaled`), so each output is one integer dot product and
    one Fraction, equal to the Fraction sum it replaces."""
    dp, pi = _scaled([c.as_integer_ratio() for c in p])
    dw, wi = _scaled([c.as_integer_ratio() for c in w[k0:k1 - 1 + len(p)]])
    return row_values((dp * dw, _dot_rows(pi, wi, k1 - k0)))


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


def zeta_prefix_weights(spec, alpha, s: int, upto: int) -> list:
    """Values alpha^k / ((k+zeta_1)...(k+zeta_{s+1})) on t^k, k = 0..upto:
    the normalized evaluation functional obtained from psi_{i,s} by
    stripping T_c and one alpha factor, each by its literal Fraction
    formula, sharing no code with `polyops._zeta_row`."""
    alpha = F(alpha)
    zs = spec.zeta[: s + 1]
    return [alpha ** k / math.prod((k + z for z in zs), start=F(1))
            for k in range(upto + 1)]


def C_um_by_elimination(spec, alphas, n: int, u: int) -> Fraction:
    """C_{u,m} by subset elimination, the oracle of `wronskian.C_um`: the
    product functional, one zeta-prefix weight table per variable in (i, s)
    order (`zeta_prefix_weights`), applied to prod_v U(t_v) * prod_{v<v'}
    (t_v' - t_v), U = t^u prod_j (t - alpha_j)^{rn}, one variable at a
    time, never materializing the full expansion.  It runs on Fractions
    and shares no code with `_dot_rows`; it collapses each variable v over
    2^(rm-1-v) subsets, affordable only for rm <= 4 or so.

    The sparse accumulator maps exponent tuples of the remaining variables
    to rationals, and `tables[v][k]` is variable v's functional on t^k."""
    alphas = [F(a) for a in alphas]
    r = spec.r
    U = row_values(base_polynomial(alphas, r * n, u))
    count = len(U) - 1 + r * len(alphas)  # the weights the product meets
    tables = [zeta_prefix_weights(spec, al, s, count) for al in alphas for s in range(r)]
    N = len(tables)
    acc = {(0,) * N: F(1)}
    for v in range(N):
        rest_count = N - 1 - v
        nxt = {}
        for exps, coeff in acc.items():
            e0, rest = exps[0], exps[1:]
            for d, ud in enumerate(U):
                if not ud:
                    continue
                base = coeff * ud
                for mask in range(1 << rest_count):
                    popcount = bin(mask).count("1")
                    k = e0 + d + rest_count - popcount
                    w = tables[v][k]
                    if not w:
                        continue
                    term = base * w
                    if (rest_count - popcount) % 2:
                        term = -term
                    key = tuple(
                        rest[j] + ((mask >> j) & 1) for j in range(rest_count)
                    )
                    nxt[key] = nxt.get(key, F(0)) + term
        acc = {k: c for k, c in nxt.items() if c} or {(0,) * rest_count: F(0)}
    return acc.get((), F(0))


def partial_fractions(spec, s):
    """Exact decomposition 1/prod_{j<=s+1}(X+zeta_j) = sum p_{j,k}/(X+zhat_j)^k,
    by one linear solve (`kernel_basis`).

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
    # A p = e_0 for the square matrix A of those coefficients: the kernel
    # of [A | -e_0] is spanned by (p, 1) when A is nonsingular
    (sol,) = kernel_basis([[cols[c][row] if row < len(cols[c]) else F(0)
                            for c in range(len(pairs))] + [-F(row == 0)]
                           for row in range(s + 1)], len(pairs) + 1)
    assert sol[-1] == 1
    return {pair: sol[idx] for idx, pair in enumerate(pairs)}


def final_det_rows(zhat, mult):
    """The rows of the final determinant: (j, k) by distinct zeta value j,
    then 1 <= k <= its multiplicity."""
    return [(j, k) for j in range(len(zhat)) for k in range(1, mult[j] + 1)]


def final_det_by_phi(spec, n, u):
    """The final determinant on Fractions: each entry phi_{zeta,k} of
    t^{u+ell}(t-1)^{rn}, term by term (`phi_zeta_s`)."""
    r = spec.r
    zhat, mult = _zeta_groups(spec)
    base = [F(1)]
    for _ in range(r * n):
        base = poly_mul(base, [F(-1), F(1)])
    return fraction_det([[phi_zeta_s(zhat[j], k, [F(0)] * (u + ell) + base)
                          for ell in range(r)] for j, k in final_det_rows(zhat, mult)])


@st.composite
def admissible_instances(draw, max_m=4, max_rm=4, any_flags=False):
    """(spec, alphas): r <= 3, small-height a and b, and rm <= max_rm
    distinct nonzero points alpha, at most max_m of them.  The a and b are
    non-integers that pass the hypothesis flags; with any_flags they may be
    small integers too, so that flags fail, and each b_j may repeat 1 or an
    earlier b, a repeated zeta value; (AB) holds either way."""
    r = draw(st.integers(1, 3))
    if any_flags:
        values = _small_fractions | st.integers(-3, 3).filter(bool).map(F)
        a = draw(st.lists(values, min_size=r, max_size=r))
        b = []
        for _ in range(r - 1):
            b.append(draw(values | st.sampled_from([F(1), *b])))
        # an integer a or b must be positive: a <= -1 or b <= 0 breaks (AB)
        assume(all(x.denominator > 1 or x > 0 for x in a + b))
        spec = HypergeometricSpec.from_ab(a, b)
    else:
        spec = HypergeometricSpec.from_ab(
            draw(st.lists(_small_fractions, min_size=r, max_size=r)),
            draw(st.lists(_small_fractions, min_size=r - 1, max_size=r - 1)))
        assume(spec.flags_pass())
    m = draw(st.integers(1, min(max_m, max_rm // r)))
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
    """(system, given) of its JSON form after the edits (`edited`), as
    `load_system` reads it: the system made from the edited P_ell, and the
    edited file's own P_{ell,i,s} rows and windows."""
    return load_system(edited(system, *edits))


def file_rows(system, given=None) -> dict:
    """The P_{ell,i,s} rows and windows an oracle checks: a file's own
    (`given`, of `load_system`), else those the system makes."""
    return given if given is not None else {"Pis": system.Pis, "R": system.R}


def remainder(system, ell: int, i: int, s: int, given=None) -> tuple:
    """The literal product P_ell(z) F_s(alpha_i/z) - P_{ell,i,s}(z), exact
    up to the system's truncation, where every stored window ends, as the
    integer row (order, den, ints): the coefficient of 1/z^e is
    ints[e - order] / den for order <= e < truncation, and order <= 1.

    Its exponents <= 0 vanish exactly when P_{ell,i,s} is the polynomial
    part of P_ell F_s, and its exponents >= 1 are the remainder R_{ell,i,s}.
    It reads the row of P_ell, that of P_{ell,i,s} (a file's own if
    `given`, `file_rows`) and a prefix of the series row (`_series_row`,
    long enough for every P of the system), in a loop of its own: it
    shares no code with the rows and windows that the package makes from
    the psi weights by `_dot_rows`.
    """
    truncation = system.truncation
    dp, Pn = system.P[ell]
    dq, Qn = file_rows(system, given)["Pis"][(ell, i, s)]
    d = max(len(Pn) - 1, 0)
    width = max(len(ints) for _, ints in system.P.values())
    dc, cn = _series_row(system.spec, system.alphas[i - 1], s,
                         truncation - 1 + max(d, width - 1))
    # the product's 1/z^e coefficient, 1 - d <= e < truncation, is
    # sum_j Pn[j] cn[e + j - 1] / (dp dc); d zeros stand for the exponents
    # below the series' order 1 that e + j reaches
    cn = [0] * d + cn[:truncation - 1 + d]
    order = min(1 - d, 1 - len(Qn))
    ints = [0] * (1 - d - order) + [
        sum(map(mul, Pn, cn[k:k + len(Pn)])) * dq
        for k in range(truncation - 1 + d)]
    for q, c in enumerate(Qn):
        ints[-q - order] -= c * dp * dc
    return order, dp * dc * dq, ints


def literal_contract_failures(system, given=None) -> list:
    """The contract of `pade.contract_failures` decided by one literal
    product per (ell, i, s) (`remainder`), with no psi weight: the same
    checks in the same order, but for the weights, which it reads nowhere.
    It checks a file's own P_{ell,i,s} rows and windows (`given`), else
    the system's made ones, which the contract takes on trust from the
    weights (`file_rows`).

    * deg_P: deg P_ell = rmn + ell;
    * deg_Pis: deg P_{ell,i,s} <= rmn + ell;
    * ord_R: the window of R_{ell,i,s} has order >= n+1;
    * Pis_coeffs: the product vanishes at every exponent <= 0;
    * remainder_coeffs: its exponents >= 1, zero below, are the stored
      window, compared from the lower of the two orders on.

    Rows are compared on integers, by cross-multiplying their denominators.
    """
    n, rm = system.n, system.r * system.m
    rows = file_rows(system, given)
    failures = []
    for ell in range(rm + 1):
        got = poly_deg(poly_trim(list(system.P[ell][1])))
        if got != rm * n + ell:
            failures.append({"check": "deg_P", "index": [ell], "expected": rm * n + ell,
                             "got": str(got)})
    for ell, i, s in system.indices():
        got = poly_deg(poly_trim(list(rows["Pis"][(ell, i, s)][1])))
        if got > rm * n + ell:
            failures.append({"check": "deg_Pis", "index": [ell, i, s],
                             "bound": rm * n + ell, "got": str(got)})
        got = window_order(rows["R"][(ell, i, s)])
        if got is not None and got < n + 1:
            failures.append({"check": "ord_R", "index": [ell, i, s], "bound": n + 1,
                             "got": got})
    for ell, i, s in system.indices():
        porder, pden, pints = remainder(system, ell, i, s, rows)
        if any(pints[:1 - porder]):
            failures.append({"check": "Pis_coeffs", "index": [ell, i, s]})
        order, den, ints = rows["R"][(ell, i, s)]
        if any((pints[e - porder] if e > 0 else 0) * den
               != (ints[e - order] if e >= order else 0) * pden
               for e in range(min(order, 1), order + len(ints))):
            failures.append({"check": "remainder_coeffs", "index": [ell, i, s]})
    return failures


# ---------------------------------------------------------------------------
# oracles that two or more test modules read: dense polynomials over Q


def poly_mul(p, q):
    if not p or not q:
        return []
    out = [F(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return poly_trim(out)


def poly_eval(p, x):
    acc = F(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_shift_up(p, k: int):
    """Multiply by t^k."""
    return [F(0)] * k + list(p) if p else []


def poly_from_roots(roots):
    """prod over the roots of (X + root): roots enter with a plus sign."""
    out = [F(1)]
    for rt in roots:
        out = poly_mul(out, [F(rt), F(1)])
    return out


def A_poly(spec):
    """A(X) = prod (X + eta_i)."""
    return poly_from_roots(spec.eta)


def B_poly(spec):
    """B(X) = prod (X + zeta_j)."""
    return poly_from_roots(spec.zeta)


def gamma_ext(spec, w: int):
    """gamma extended r-periodically to every index w >= 0."""
    return spec.zeta[(spec.r - w) % spec.r]


# ---------------------------------------------------------------------------
# the functional psi_{i,s}, the series of F_s, and the diagonal operators


def psi(spec, alphas, i: int, s: int, p):
    """The functional psi_{i,s} applied to p (1 <= i <= m, 0 <= s <= r-1)."""
    if not (1 <= i <= len(alphas)):
        raise InvalidInput(f"i out of range: {i}")
    if not (0 <= s <= spec.r - 1):
        raise InvalidInput(f"s out of range: {s}")
    if not p:
        return F(0)
    dp, pi = _scaled([c.as_integer_ratio() for c in p])
    dw, wi = _scaled(_psi_table(spec, F(alphas[i - 1]), s, len(p) - 1)[:len(p)])
    return F(_dot_rows(pi, wi, 1)[0], dp * dw)


def expand_F_s(spec, alpha, s: int, count: int):
    """The coefficients of 1/z, ..., 1/z^count in F_s(alpha/z), exact: the
    literal products of `psi_weights`, which is psi_{i,s}(t^k) too."""
    if not (0 <= s <= spec.r - 1):
        raise InvalidInput(f"s out of range: {s}")
    return psi_weights(spec, alpha, s, count - 1)


class SingularEigenvalue(HgpadeError):
    """Inverting a diagonal operator hit a zero eigenvalue on a live degree."""


# The diagonal operators of the paper's construction; `pade` builds P_ell
# from their closed form instead.


def apply_H_theta(H, p, shift=F(0)):
    """H(theta_t + shift): multiply the t^k coefficient by H(k + shift)."""
    shift = F(shift)
    return poly_trim([c * poly_eval(H, k + shift) for k, c in enumerate(p)])


def apply_H_theta_inverse(H, p, shift=F(0)):
    """Coefficientwise division by H(k + shift); exact or loudly singular."""
    shift = F(shift)
    out = []
    for k, c in enumerate(p):
        lam = poly_eval(H, k + shift)
        if lam == 0:
            if c != 0:
                raise SingularEigenvalue(
                    f"singular eigenvalue at degree {k} for H(theta+{shift})")
            out.append(F(0))
        else:
            out.append(c / lam)
    return poly_trim(out)


def T_c(spec, p):
    """T_c: t^k -> t^k / c_k."""
    return poly_trim([c / spec.c(k) for k, c in enumerate(p)])


# ---------------------------------------------------------------------------
# the construction-free null-space solver


def kernel_basis(matrix, ncols: int):
    """Basis of the right kernel of a (possibly rectangular) matrix of
    rationals, by Gauss-Jordan elimination."""
    rows = [[F(x) for x in row] for row in matrix]
    nrows = len(rows)
    pivots = {}  # column -> row
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots[c] = r
        r += 1
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [F(0)] * ncols
        vec[fc] = F(1)
        for c, pr in pivots.items():
            vec[c] = -rows[pr][fc]
        basis.append(vec)
    return basis


def solve_pade_nullspace(f, n_vec, M: int):
    """Construction-free oracle: all (P0, P_1..P_N) with deg P0 <= M and
    ord(P0 f_j - P_j) >= n_j + 1, by exact kernel computation.

    Each f_j is a list of Fractions, f_j[e - 1] the coefficient of 1/z^e
    (`expand_F_s`); the return value is a list of families, one per kernel
    basis vector, each family being [P0, P_1, ..., P_N].
    """
    n_vec = list(n_vec)
    if len(f) != len(n_vec):
        raise InvalidInput("need one order target per tail")
    if M < 0:
        raise InvalidInput("need M >= 0")
    need = max(n_vec, default=0) + M
    if any(len(tail) < need for tail in f):
        raise InvalidInput(f"tails must carry exact coefficients up to 1/z^{need}")
    rows = [[tail[e + d - 1] for d in range(M + 1)]
            for tail, n_j in zip(f, n_vec) for e in range(1, n_j + 1)]
    families = []
    for vec in kernel_basis(rows, M + 1):
        P0 = poly_trim(list(vec))
        # the polynomial part of P0 * f_j: its z^d coefficient is
        # sum_{k > d} P0[k] f_j[k - d - 1]
        families.append([P0] + [
            poly_trim([sum((P0[k] * tail[k - d - 1] for k in range(d + 1, len(P0))),
                           F(0)) for d in range(M + 1)])
            for tail in f])
    return families


# ---------------------------------------------------------------------------
# certified values, the remainder identity, denominators and V


def error_of(x: BigFloat) -> Fraction:
    """The certified error bound of x, as one reduced Fraction."""
    return F(x.err, x.err_den)


def check_remainder_identity(system, beta, bits: int = 128, given=None) -> dict:
    """For every (ell, i, s): P_ell(beta) F_s(alpha_i/beta) - P_{ell,i,s}(beta)
    must agree with the remainder's certified value within the certified
    errors; also aggregates each row ell into the linear-form identity.

    The product P_ell(beta) * F_s cancels to the tiny remainder, so F is
    evaluated with enough extra precision to survive the cancellation and
    leave a budget of order 2^-bits on the difference itself.  Every
    polynomial is evaluated on its integer row (`polyops._row_value`).

    It reads the P_{ell,i,s} rows of a file (`given`), else the system's
    made ones (`file_rows`).  This is a numerical cross-check of the rows,
    not the system's contract: it reads no stored window and checks no
    order at infinity, so a file whose windows disagree with its rows, or
    whose P_ell carries an added constant that leaves P_{ell,i,s} the
    polynomial part of P_ell F_s, can pass it and still fail
    `pade.verify_system`, which is the contract."""
    beta = F(beta)
    spec = system.spec
    P_at = {ell: _row_value(*row, beta) for ell, row in system.P.items()}
    # log2 |P_ell(beta)|, to within one
    headroom = max(x.numerator.bit_length() - x.denominator.bit_length() if x else 0
                   for x in P_at.values())
    eff_bits = bits + max(0, headroom) + 16
    F_at = {i: eval_F_family(spec, F(system.alphas[i - 1]) / beta, eff_bits)
            for i in range(1, system.m + 1)}
    entries = []
    ok_all = True
    # per row ell, the linear form sum_{i,s} P_ell(b) F_s(a_i/b) - sum Pis(b)
    # must land on sum_{i,s} R(b) within the summed certified errors
    rows_acc = {}
    for ell, i, s in system.indices():
        Pb = P_at[ell]
        Pisb = _row_value(*file_rows(system, given)["Pis"][(ell, i, s)], beta)
        Fv = F_at[i][s]
        v, e = Pb * Fv.value - Pisb, abs(Pb) * error_of(Fv)
        lhs = BigFloat(v.numerator, v.denominator, e.numerator, e.denominator, bits)
        rhs = remainder_value(system, ell, i, s, beta, bits)
        ok = lhs.agrees_with(rhs)
        ok_all = ok_all and ok
        entries.append({
            "ell": ell, "i": i, "s": s, "ok": ok,
            "gap": float(abs(lhs.value - rhs.value)),
            "budget": float(error_of(lhs) + error_of(rhs)),
        })
        acc = rows_acc.setdefault(ell, [F(0)] * 4)
        acc[0] += lhs.value
        acc[1] += error_of(lhs)
        acc[2] += rhs.value
        acc[3] += error_of(rhs)
    rows = {ell: abs(a[0] - a[2]) <= a[1] + a[3] for ell, a in rows_acc.items()}
    return {
        "beta": beta,
        "bits": bits,
        "ok": ok_all and all(rows.values()),
        "entries": entries,
        "linear_form_rows": rows,
    }


@dataclass
class DenominatorProfile:
    """Exact running denominators D_0 | D_1 | ... | D_N plus the end rate."""

    N: int
    values: list
    log_rate: float


def _profile_from_terms(terms) -> DenominatorProfile:
    values, running = [], 1
    for t in terms:
        running = math.lcm(running, F(t).denominator)
        values.append(running)
    n = len(values) - 1
    return DenominatorProfile(n, values, log_int(values[-1]) / n if n > 0 else 0.0)


def B_at(spec, x):
    """B(x) = prod_j (x + zeta_j), on Fractions."""
    return math.prod((F(x) + z for z in spec.zeta), start=F(1))


def D_n_profile(a, b, N: int):
    """den((a)_k/(b)_k : k <= K) for K = 0..N, exact (N+1 values)."""
    a, b = F(a), F(b)
    if b.denominator == 1 and b <= 0:
        raise InvalidInput("b must not be a non-positive integer ((b)_k vanishes)")
    terms = []
    ratio = F(1)
    for k in range(N + 1):
        terms.append(ratio)
        ratio *= (a + k) / (b + k)
    return _profile_from_terms(terms)


def criterion_V(inst, beta, v0) -> float:
    """The criterion value at v0: A_emp minus the fitted growth of the
    coefficient vector's height away from v0."""
    return decay_fit_R(inst, beta, v0).rate - height_fit_vec(inst, beta, v0).rate


# ---------------------------------------------------------------------------
# the factorization of C_{u,m}, measured: the oracle of the chain that
# `wronskian.certify_nonvanishing` states


class FactorizationMismatch(HgpadeError):
    """The alpha-factorization quotient varied across evaluation tuples."""

    exit_code = 3


def a0s_change_of_basis(spec, n: int, s: int):
    """Independent route to a_{0,s}: expand prod_{j=1}^n A(X - j) in the
    falling basis B_k(X) = prod_{w=1}^k (X + gamma_{r-s-1+w}) (gamma
    extended periodically) and return the constant-term coordinate."""
    prod = [F(1)]
    for j in range(1, n + 1):
        # A(X - j) = prod_i (X + eta_i - j)
        prod = poly_mul(prod, poly_from_roots([e - j for e in spec.eta]))
    basis = [[F(1)]]
    for k in range(1, len(prod)):
        basis.append(poly_mul(basis[-1], [gamma_ext(spec, spec.r - s - 1 + k), F(1)]))
    coords = [F(0)] * len(prod)
    rest = list(prod)
    for k in range(len(prod) - 1, -1, -1):
        coords[k] = rest[k] if k < len(rest) else F(0)
        if coords[k]:
            for idx, c in enumerate(basis[k]):
                rest[idx] -= coords[k] * c
    if any(c != 0 for c in rest):
        raise TheoryViolation("falling-basis expansion failed to terminate")
    return coords[0]


def _exact_power_of_2(ratio) -> int:
    """g with ratio == 2**g, or raise FactorizationMismatch.  A reduced
    ratio is a power of 2 iff its numerator and denominator both are."""
    num, den = ratio.numerator, ratio.denominator
    if num <= 0 or num & (num - 1) or den & (den - 1):
        raise FactorizationMismatch(f"ratio {ratio} is not a power of 2")
    return num.bit_length() - den.bit_length()


def _factor_tuples(m: int):
    if m == 1:
        return [(F(1),), (F(2),), (F(3),), (F(5),)]
    return [tuple(F(j + d) for j in range(1, m + 1)) for d in (0, 1, 2)]


def c_um_factor(spec, alphas, n: int, u: int) -> tuple:
    """Measure the factorization C = c * prod alpha_i^e * Vandermonde^{(2n+1)r^2}.

    The alpha-exponent e is measured (never assumed), by scaling a sample
    tuple by 2 and reading the exact power of 2 in the quotient.  The
    constant c must then be identical across every sample tuple; any drift
    raises FactorizationMismatch.
    """
    alphas = [F(a) for a in alphas]
    r, m = spec.r, len(alphas)
    vpow = (2 * n + 1) * r * r
    tuples = _factor_tuples(m)
    if tuple(alphas) not in tuples:
        tuples.append(tuple(alphas))

    values = {}  # tuple -> Q(tuple): at m = 1 the doubled (1) is the base (2)

    def Q(t):
        if t not in values:
            C = C_um(spec, t, n, u)
            values[t] = C / vandermonde(t) ** vpow if m > 1 else C
        return values[t]

    e = None
    c = None
    for t in tuples:
        q1 = Q(t)
        if q1 == 0:
            raise FactorizationMismatch(f"C vanishes at alpha = {t}; nothing to factor")
        g = _exact_power_of_2(Q(tuple(2 * a for a in t)) / q1)
        if g % m:
            raise FactorizationMismatch(
                f"power of 2 in the scaled quotient ({g}) is not divisible by m = {m}")
        e_here = g // m
        c_here = q1 / math.prod(t, start=F(1)) ** e_here
        if e is None:
            e, c = e_here, c_here
        elif e != e_here or c != c_here:
            raise FactorizationMismatch(
                f"(c, e) = ({c_here}, {e_here}) at alpha = {t} disagrees with ({c}, {e})")
    if e < 0:
        raise FactorizationMismatch(f"measured exponent e = {e} is negative")
    return c, e


def homogeneity_degree(spec, alphas, n: int, u: int) -> int:
    """Measured integer D with C(2 alpha) = 2^D C(alpha), exact."""
    alphas = [F(a) for a in alphas]
    base = C_um(spec, alphas, n, u)
    if base == 0:
        raise FactorizationMismatch("C vanishes; homogeneity degree undefined")
    return _exact_power_of_2(C_um(spec, [2 * a for a in alphas], n, u) / base)


def newton_interpolate(xs, ys):
    """Coefficients (low to high) of the unique interpolating polynomial."""
    if len(xs) != len(ys) or not xs:
        raise InvalidInput("interpolation needs matching non-empty node/value lists")
    n = len(xs)
    # divided differences
    dd = [F(y) for y in ys]
    coeffs = [dd[0]]
    for level in range(1, n):
        for i in range(n - 1, level - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (xs[i] - xs[i - level])
        coeffs.append(dd[level])
    # expand the Newton form into monomial coefficients
    poly = [F(0)] * n
    acc = [F(1)]  # prod_{j<level} (x - xs[j])
    for level, c in enumerate(coeffs):
        for j, a in enumerate(acc):
            poly[j] += c * a
        if level < n - 1:
            # acc *= (x - xs[level])
            acc = [F(0)] + acc
            for j in range(len(acc) - 1):
                acc[j] -= xs[level] * acc[j + 1]
    return poly_trim(poly)


def vanishing_order_at_equal_alphas(spec, n: int, u: int, m: int = 2) -> int:
    """Order of vanishing of C at alpha_m = alpha_{m-1}, read off an exact
    interpolation: evaluate at alpha = (1, 2, ..., m-1, alpha_{m-1} + j) on
    enough nodes to pin the polynomial in j completely, then take the lowest
    nonzero coefficient's index."""
    if m < 2:
        raise InvalidInput("need at least two evaluation points")
    degree = m * alpha_exponent(spec.r, n, u) + math.comb(m, 2) * (2 * n + 1) * spec.r ** 2
    base = [F(i) for i in range(1, m)]
    xs = [F(j) for j in range(1, degree + 2)]
    coeffs = newton_interpolate(xs, [C_um(spec, base + [base[-1] + x], n, u) for x in xs])
    return next((idx for idx, c in enumerate(coeffs) if c != 0), len(coeffs))


def reduction_check(spec, alphas, n: int, u: int) -> dict:
    """Both sides of the link c_{u,m} = (-1)^{r^2 n (m-1)} c_{u + r(n+1), m-1} * L(u),
    L(u) = C_{u,1}(1), each constant measured by `c_um_factor` (c_{u,0} = 1
    closes the chain)."""
    alphas = [F(a) for a in alphas]
    r, m = spec.r, len(alphas)
    if m < 1:
        raise InvalidInput("need m >= 1")
    c_here, e_here = c_um_factor(spec, alphas, n, u)
    if m == 1:
        c_next, e_next = F(1), None
    else:
        c_next, e_next = c_um_factor(spec, alphas[:-1], n, u + r * (n + 1))
    L = C_um(spec, (1,), n, u)
    sign = _link_sign(r, n, m)
    rhs = sign * c_next * L
    return {"lhs": c_here, "rhs": rhs, "c_next": c_next, "L": L, "sign": sign,
            "equal": c_here == rhs, "exponent_here": e_here, "exponent_next": e_next}


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


def head_filled(system, key) -> bool:
    """Whether the head of the term list of key, below the window's end,
    has been filled."""
    terms = remainder_lists(system, key)[0]
    return terms is not None and terms[0] is not None


def _check_remainder_lists(system, key):
    # every entry of the term list of R_{ell,i,s} is psi(t^k P_ell): the
    # head, below the window's end, is None throughout until a read inside
    # it fills all of it, and the window read then is that head; every entry, an
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
    else:
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
    it: `lists` and `stops` of one (ell, i, s) and `head_filled`."""
    return SimpleNamespace(lists=remainder_lists, stops=list_stops,
                           head_filled=head_filled)
