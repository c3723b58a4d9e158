"""Construction of the simultaneous Pade-type system of weight (n,...,n).

For an order-r instance and m distinct nonzero evaluation points alpha_i, we
build the polynomials

    P_ell(z)       of degree  r*m*n + ell,        0 <= ell <= r*m,
    P_{ell,i,s}(z) of degree <= r*m*n + ell,

such that R_{ell,i,s}(z) = P_ell(z) F_s(alpha_i/z) - P_{ell,i,s}(z) has order
at least n+1 at infinity.  Every P_ell comes from one closed formula: the
coefficients of prod (t-alpha_i)^{rn} (multiplied out on integers, see
`base_polynomial`), shifted up by ell, times one hypergeometric multiplier
table M(k) shared by every ell (see `_P_family`).

Every other coefficient is a psi_{i,s}-value of P_ell, computed by one
integer kernel, `polyops._dot_rows`, over P_ell on integers and a scaled
run of the psi_{i,s} weights, each run of outputs over one denominator:
P_{ell,i,s} is the psi_{i,s}-image of the divided difference
(P_ell(z)-P_ell(t))/(z-t), and R_{ell,i,s} has psi_{i,s}(t^k P_ell) as its
1/z^{k+1} coefficient.  The same psi_{i,s} acts on every P_ell, so a
system scales the weights of one range of exponents once, at the width of
its longest row (`PadeSystem.weight_run`), and every ell reads a prefix of
that run.  A Fraction is made only where a caller reads a
rational.  A system is its P_ell, given once, when it is made: each P_ell
and each P_{ell,i,s} is only its integer row (den, ints) over one
denominator, ints a tuple, in a read-only mapping (`PadeSystem.P`,
`PadeSystem.Pis`); a reader that wants rationals makes them.  A system
makes each P_{ell,i,s} row on its first read, and Delta, which reads only
the constant terms, takes them one dot product each (`constant_term`).
Each remainder series is one append-only list on the system, read by
exponent (`PadeSystem.terms`): its head, below the window's end, is filled
on the first read inside it, and past the window it grows only as far as a
caller reads.  The stored window (`PadeSystem.R`) is that head, as the
integer row (order, den, ints), kept on its first read by the contract,
Theta or `to_jsonable`.  The p-adic sums
read the head, and the archimedean sums neither (`numerics.remainder_value`
starts from prefix sums of the weights, `PadeSystem.weight_run`).
Past the window, the sizes that bound the
remainder sums are a second such list (`PadeSystem.size`), next to the
beta-free part of their ratio bound (`PadeSystem.tail_ratio`).  Both lists
hold unreduced integer pairs (a, den) over their run's denominator.  Only
this module splits a series at the window's end.

One function, `contract_failures`, decides the contract of any system:
the degrees, one comparison of the psi weights with the spec's series row
of F_s per (i, s), the window orders, and for a file (`load_system`) its
own P_{ell,i,s} rows and windows, data beside the system made from its
P_ell, against the made ones.  The
rows and windows made from P_ell and those weights are the polynomial
part and the tail of P_ell F_s(alpha_i/z), so the literal product is a
test oracle; `verify_system`, `build_system`'s cross-check and Delta's
hypotheses read the contract.  A window becomes text only in
`to_jsonable`.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from types import MappingProxyType

from .arith import format_rational, json_fields, parse_rationals
from .errors import InvalidInput, TheoryViolation
from .polyops import (
    HypergeometricSpec,
    _dot_rows,
    _pochhammer,
    _psi_table,
    _scaled,
    _series_params,
    _series_row,
    _tail_ratio,
    poly_deg,
    poly_trim,
    term_table,
)


# a window's integers grow with its length, so its cost grows faster than the
# square: `build` r = 2, m = 2, n = 2 took 1.0 s at truncation 512, 4.2 s at
# 1024, 22 s at 2048 (2-core Xeon), and 10^9 exhausts memory
MAX_TRUNCATION = 1024


def default_truncation(r: int, m: int, n: int) -> int:
    """The 1/z-window of a system built without a truncation.  Delta and
    Theta need only n + 2 (`wronskian.delta_of_system`); this longer window
    is the one the `build` and `verify` reports hold, and the criterion's
    remainder sums take their first stop test at its end.  An n whose
    window is longer than MAX_TRUNCATION is refused, naming n."""
    truncation = r * m * (n + 1) + n + 5
    if truncation > MAX_TRUNCATION:
        raise InvalidInput(
            f"n = {n}: the default window rm(n + 1) + n + 5 at r = {r}, m = {m} "
            f"has {truncation} terms, more than {MAX_TRUNCATION}")
    return truncation


def check_truncation(n: int, truncation: int, name: str = "--truncation") -> None:
    """Reject a window that cannot certify the order bound (truncation <= n+1)
    or that is longer than MAX_TRUNCATION, before anything is built; the
    message names the window `name`."""
    if not n + 1 < truncation <= MAX_TRUNCATION:
        raise InvalidInput(
            f"{name}: need n + 1 < truncation <= {MAX_TRUNCATION}, "
            f"got {truncation} at n = {n}")


def base_polynomial(alphas, rn: int, ell: int) -> tuple:
    """t^ell * prod_i (t - alpha_i)^{rn} as the integer row (den, ints).

    With alpha_i = p_i/q_i this is prod_i q_i^{-rn} (q_i t - p_i)^{rn}: each
    power comes from the binomial theorem on integers, the product runs on
    integers, and den = prod_i q_i^{rn}."""
    g, den = [1], 1
    for al in map(Fraction, alphas):
        p, q = al.numerator, al.denominator
        power = [math.comb(rn, k) * q**k * (-p) ** (rn - k) for k in range(rn + 1)]
        out = [0] * (len(g) + rn)
        for d, x in enumerate(g):
            for k, y in enumerate(power):
                out[d + k] += x * y
        g, den = out, den * q**rn
    return den, [0] * ell + g


def _P_family(spec: HypergeometricSpec, alphas, n: int, top: int) -> list:
    """[P_0, ..., P_top] of weight n, exact, each as its integer row
    (den, ints) of `_scaled`, ints a tuple as `PadeSystem.P` holds it;
    P_ell has degree r*m*n + ell.

    The paper's formula is
        P_ell = T_c^{-1} prod_{j=1}^{n-1} B(theta+j) [t^ell prod_i (t-alpha_i)^{rn}]
                / ((n-1)!)^r,
    with T_c^{-1} t^k = t^k / c_k.  Every operator in it is diagonal on
    monomials, so with base_0 = prod_i (t-alpha_i)^{rn},
        P_ell[k] = base_0[k-ell] * M(k),
        M(k) = prod_t (k+1+zeta_t)_{n-1} / (c_k ((n-1)!)^r),
    as prod_{j=1}^{n-1} B(k+j) = prod_t (k+1+zeta_t)_{n-1}.  By
    c_{k+1}/c_k = A(k)/B(k+1) the multiplier is a hypergeometric term:
        M(0) = prod_t (1+zeta_t)_{n-1} / (c_0 ((n-1)!)^r),
        M(k+1)/M(k) = B(k+n)/A(k),
    which (AB) keeps finite and nonzero.  One M table serves every ell.

    With base_0 = bn / db and M[ell:] scaled to mn / dm, P_ell is the
    integer row bn * mn over db * dm, and dividing it by its one gcd g
    gives `_scaled` of the reduced Fractions: den / gcd(den, a_1, ...) is
    the lcm of the reduced denominators (`criterion._row_lcm`).
    """
    alphas = [Fraction(a) for a in alphas]
    r = spec.r
    db, bn = base_polynomial(alphas, r * n, 0)
    M0 = (math.prod((_pochhammer(1 + z, n - 1) for z in spec.zeta), start=Fraction(1)) / (
        spec.c0 * math.factorial(n - 1) ** r)).as_integer_ratio()
    M = [M0] + term_table(M0, 0, len(bn) - 1 + top, 1,
                          [z + n for z in spec.zeta], spec.eta)
    rows = []
    for ell in range(top + 1):
        dm, mn = _scaled(M[ell:ell + len(bn)])
        ints = [0] * ell + list(map(mul, bn, mn))
        g = math.gcd(db * dm, *ints)
        rows.append((db * dm // g, tuple(a // g for a in ints)))
    return rows


def _check_alphas(alphas):
    if not alphas:
        raise InvalidInput("need at least one evaluation point")
    if any(a == 0 for a in alphas):
        raise InvalidInput("evaluation points must be nonzero")
    if len(set(alphas)) != len(alphas):
        raise InvalidInput("evaluation points must be pairwise distinct")


def _indices(r: int, m: int):
    # every (ell, i, s) of a system, in its fixed order
    for ell in range(r * m + 1):
        for i in range(1, m + 1):
            for s in range(r):
                yield ell, i, s


class _Made(Mapping):
    """Rows of a system by (ell, i, s), keyed by its indices, each made on
    its first read (`_make`) and kept."""

    def __init__(self, system: "PadeSystem"):
        self._system, self._made = system, {}

    def __getitem__(self, key) -> tuple:
        got = self._made.get(key)
        if got is None:
            system = self._system
            ell, i, s = key
            if not (ell in system.P and 1 <= i <= system.m and 0 <= s < system.r):
                raise KeyError(key)
            got = self._made[key] = self._make(ell, i, s)
        return got

    def __iter__(self):
        return self._system.indices()

    def __len__(self) -> int:
        return sum(1 for _ in self._system.indices())


class _Windows(_Made):
    """The stored remainder windows, each the integer row (order, den,
    ints) read by `window_coeff`: the head of its term list, whose pairs
    share one denominator, as (1, den, ints)."""

    def _make(self, ell: int, i: int, s: int) -> tuple:
        system = self._system
        head = system.terms(ell, i, s, 0)[:system.truncation - 1]
        return 1, head[0][1], [a for a, _ in head]


class _PisRows(_Made):
    """The P_{ell,i,s}, each the integer row (den, ints), ints a tuple: the
    psi_{i,s}-image of the divided difference of P_ell, whose z^j
    coefficient is sum_k w_k P_ell[j+1+k], one `_dot_rows` call on the row
    of P_ell past its constant against the system's run of the weights
    below deg P_rm, over dp * dw, trailing zeros trimmed."""

    def _make(self, ell: int, i: int, s: int) -> tuple:
        dp, Pn = self._system.P[ell]
        dw, wn = self._system.weight_run(i, s, 0, 0)
        deg = len(Pn) - 1
        return dp * dw, tuple(poly_trim(_dot_rows(wn[:deg], Pn[1:], deg)))


def window_coeff(window: tuple, e: int) -> tuple:
    """The 1/z^e coefficient of a window row (order, den, ints) as the pair
    (a, den): ints[e - order], and 0 below the order; e must lie below the
    window's truncation, order + len(ints)."""
    order, den, ints = window
    return (ints[e - order] if e >= order else 0), den


def window_order(window: tuple):
    """The least exponent of 1/z with a nonzero coefficient in a window
    row, exact below its truncation; None for a window zero throughout."""
    order, _, ints = window
    return next((e for e, a in enumerate(ints, order) if a), None)


def _row_text(den: int, ints) -> list:
    # the rationals ints / den as text
    return [format_rational(Fraction(a, den)) for a in ints]


def _window_jsonable(window: tuple) -> dict:
    # the text of a window row, its leading zeros folded into the order: a
    # window zero throughout has order == truncation and no coefficients
    order, den, ints = window
    truncation = order + len(ints)
    lead = next((e for e, a in enumerate(ints, order) if a), truncation)
    return {"order": lead, "truncation": truncation,
            "coefficients": _row_text(den, ints[lead - order:])}


def _window_row(name: str, data, truncation: int) -> tuple:
    """The window "name" of a system file as its row (order, den, ints),
    den the lcm of the denominators.  Its order and truncation must be
    integers, the truncation the file's, and its coefficients a list of
    truncation - order rationals; otherwise InvalidInput names the window
    and the field."""
    where = f'R "{name}"'
    fields = data if isinstance(data, dict) else {}
    order, trunc, coeffs = map(fields.get, ("order", "truncation", "coefficients"))
    for part, value in (("order", order), ("truncation", trunc)):
        if type(value) is not int:
            raise InvalidInput(f"{where}: {part}: need an integer, got {value!r}")
    if trunc != truncation:
        raise InvalidInput(f'truncation: the window "{name}" has truncation {trunc}, '
                           f"not {truncation}")
    if not isinstance(coeffs, list) or len(coeffs) != trunc - order:
        got = len(coeffs) if isinstance(coeffs, list) else coeffs
        raise InvalidInput(f"{where}: coefficients: need a list of truncation - order "
                           f"= {trunc - order} rationals, got {got!r}")
    return (order, *_scaled([c.as_integer_ratio()
                             for c in parse_rationals(f"{where}: coefficients", coeffs)]))


@dataclass(eq=False)
class PadeSystem:
    """One instance: its P_ell, with every P_{ell,i,s} and remainder window
    made from them on first read.  A system equals only itself, as a
    `BigFloat` does: comparing the data would build every row and window.

    Its P_ell are given once, when it is made, and never assigned: `P` maps
    ell to P_ell and `Pis` maps (ell, i, s) to P_{ell,i,s}, read-only
    mappings of integer rows (den, ints), den > 0 and ints a tuple, and `R`
    maps (ell, i, s) to the stored window of R_{ell,i,s}, an integer row
    (order, den, ints) read by `window_coeff`.  `Pis` and `R` make each
    entry on its first read from P and the psi weights (`_PisRows`,
    `_Windows`); a file's own rows and windows are data beside the system
    (`load_system`), which the contract compares with these
    (`contract_failures`).
    Everything else a remainder sum reads is beta-free and
    kept on the system on first use, each computed once: the ratio bound
    past the window (`tail_ratio`), per (i, s) and range the psi weights on
    integers (`weight_run`), shared by every ell, and per
    (ell, i, s) the coefficients by exponent (`terms`) and the sizes that
    bound them (`size`), two lists of unreduced integer pairs that grow only
    as far as they are read, both from the kernel `_dot_rows` on the row of
    P_ell and a weight run.
    """

    spec: HypergeometricSpec
    alphas: tuple
    n: int
    truncation: int
    P: Mapping                                      # ell -> row of P_ell (in z)
    Pis: _PisRows = field(init=False, repr=False)   # (ell, i, s) -> row of P_{ell,i,s}
    R: _Windows = field(init=False, repr=False)     # (ell, i, s) -> window row
    # (tag, *index) -> the state of `_kept`; like `spec._psi_tables`, a
    # pure function of the system
    _state: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def __post_init__(self):
        self.Pis = _PisRows(self)
        self.R = _Windows(self)

    @property
    def r(self) -> int:
        return self.spec.r

    @property
    def m(self) -> int:
        return len(self.alphas)

    def indices(self):
        return _indices(self.r, self.m)

    def _kept(self, key: tuple, make):
        # the state under key, made on first use
        got = self._state.get(key)
        if got is None:
            got = self._state[key] = make()
        return got

    def tail_ratio(self, s: int) -> tuple:
        """(k0, c) of `polyops._tail_ratio` from the first index past the
        window, k = truncation - 1: the remainder sums of this system at any
        beta stop-test from k0 on, against the ratio bound |alpha/beta| c.
        Computed once per s."""
        return self._kept(("ratio", s), lambda: _tail_ratio(
            *_series_params(self.spec, s), self.truncation - 1))

    def weight_run(self, i: int, s: int, start: int, stop: int) -> tuple:
        """(dw, wi): the psi_{i,s} weights that outputs start..stop-1 of a
        correlation with the longest row, P_rm, meet, on integers over
        their lcm dw (`_weight_run`).  Every shorter P_ell meets a prefix of
        them, so one run serves the terms and the sizes of every ell over
        that range; start = stop = 0 gives the weights below deg P_rm,
        those the P_{ell,i,s} meet (`_PisRows`).  Scaled once per (i, s,
        start, stop)."""
        return self._kept(("run", i, s, start, stop), lambda: _weight_run(
            self.spec, self.alphas[i - 1], s, start, stop,
            max(len(ints) for _, ints in self.P.values())))

    def terms(self, ell: int, i: int, s: int, k: int) -> list:
        """The coefficients of R_{ell,i,s} by exponent, grown to hold index k:
        terms[k] = psi_{i,s}(t^k P_ell), the coefficient of 1/z^{k+1}, for
        every k >= 0, as the unreduced pair (a, den) of its integer sum over
        its run's denominator dp * dw (`P`, `weight_run`), the form of
        `size`: no Fraction is made.  The head, below the window's end
        truncation - 1, holds None until a read inside it fills the whole
        head, from which the stored window `R` is made; a read past the end
        grows the list (`_grow`).  The list only grows, so a caller's
        reference stays valid; an entry is set once a read at its index has
        returned."""
        end = self.truncation - 1
        terms = self._kept(("terms", ell, i, s), lambda: [None] * end)
        if k < end:
            if terms[k] is None:
                terms[:end] = self._psi_run(ell, i, s, 0, end)
        elif k >= len(terms):
            self._grow(terms, ell, i, s, len(terms), k)
        return terms

    def size(self, ell: int, i: int, s: int, k: int) -> tuple:
        """sum_d |P_d| |w_{k+d}| over the psi_{i,s} weights w, for k from the
        window's end on: the size that bounds terms[k] and every later term,
        as the unreduced pair (sa, sb) of its integer sum over its run's
        denominator, read off the same shared weight run as the terms.
        Kept in a list of its own that grows like the terms past the
        window, so a sum that reads only sizes (or only terms) computes
        nothing else, and no size fills a head or makes a window."""
        end = self.truncation - 1
        sizes = self._kept(("sizes", ell, i, s), list)
        if k >= end + len(sizes):
            self._grow(sizes, ell, i, s, end + len(sizes), k, absolute=True)
        return sizes[k - end]

    def _grow(self, run: list, ell: int, i: int, s: int, start: int, k: int,
              absolute: bool = False) -> None:
        # extend the terms (or sizes) of R_{ell,i,s} whose next exponent
        # index is start, past the window's end, to hold index k: up to
        # max(k + 1, twice their part past the window)
        stop = max(k + 1, 2 * start - (self.truncation - 1))
        run.extend(self._psi_run(ell, i, s, start, stop, absolute))

    def _psi_run(self, ell: int, i: int, s: int, start: int, stop: int,
                 absolute: bool = False) -> list:
        # [(a, den)]: psi_{i,s}(t^k P_ell) = a / den for start <= k < stop
        # (with `absolute`, the sizes sum_d |P_d| |w_{k+d}|), one `_dot_rows`
        # call over the row of P_ell and the prefix of the shared weight run
        # that it meets
        dp, Pn = self.P[ell]
        dw, wi = self.weight_run(i, s, start, stop)
        if absolute:
            Pn = [abs(c) for c in Pn]
            wi = [abs(x) for x in wi[:stop - start - 1 + len(Pn)]]
        den = dp * dw
        return [(a, den) for a in _dot_rows(Pn, wi, stop - start)]

    def to_jsonable(self) -> dict:
        return {
            "spec": self.spec.to_jsonable(),
            "alphas": [format_rational(a) for a in self.alphas],
            "n": self.n,
            "truncation": self.truncation,
            "P": {str(ell): _row_text(*row) for ell, row in self.P.items()},
            "Pis": {f"{ell},{i},{s}": _row_text(*row)
                    for (ell, i, s), row in self.Pis.items()},
            "R": {f"{ell},{i},{s}": _window_jsonable(w) for (ell, i, s), w in self.R.items()},
        }


def load_system(data: dict) -> tuple:
    """(system, given) of a `to_jsonable` form: the system made from its
    P_ell alone, and given = {"Pis": ..., "R": ...}, the form's own
    P_{ell,i,s} rows and windows by (ell, i, s), each parsed into the row
    a system makes (`_window_row`), for `contract_failures` to compare
    with the made ones.  The instance must be one `build_system` accepts:
    distinct nonzero alphas, an integer n >= 1 and an integer truncation
    `check_truncation` passes (a JSON true is neither), which every
    window's truncation equals; and P, Pis and R hold exactly the keys of
    ell = 0..rm and of the indices, each entry a list of rationals; the
    form, each part and the spec are JSON objects, with all their keys.
    Otherwise InvalidInput names the field (for the keys, the first
    missing, else the first extra; for an entry, its key too; for the
    spec, its own field)."""
    spec_data, alphas, n, truncation, *_ = json_fields(
        data, ("spec", "alphas", "n", "truncation", "P", "Pis", "R"))
    try:
        spec = HypergeometricSpec.from_jsonable(spec_data)
    except InvalidInput as exc:
        raise InvalidInput(f"spec: {exc}") from None
    alphas = tuple(parse_rationals("alphas", alphas))
    try:
        _check_alphas(alphas)
    except InvalidInput as exc:
        raise InvalidInput(f"alphas: {exc}") from None
    if type(n) is not int or n < 1:
        raise InvalidInput(f"n: need an integer n >= 1, got {n!r}")
    if type(truncation) is not int:
        raise InvalidInput(f"truncation: need an integer, got {truncation!r}")
    check_truncation(n, truncation, "truncation")
    r, m = spec.r, len(alphas)
    tops = {str(ell): ell for ell in range(r * m + 1)}
    index = {f"{ell},{i},{s}": (ell, i, s) for ell, i, s in _indices(r, m)}

    def entries(part, keys):
        # (name, key, entry) of data[part], its names exactly those of keys
        got = data[part]
        if not isinstance(got, dict):
            raise InvalidInput(f"{part}: need an object, got {type(got).__name__}")
        missing = [name for name in keys if name not in got]
        extra = [name for name in got if name not in keys]
        if missing or extra:
            raise InvalidInput(f'{part}: {"missing" if missing else "extra"} '
                               f'key "{(missing or extra)[0]}"')
        return [(name, keys[name], got[name]) for name in keys]

    def rows(part, keys):
        # each entry over the lcm of its denominators, as a system holds it
        scaled = {key: _scaled([c.as_integer_ratio()
                                for c in parse_rationals(f'{part} "{name}"', p)])
                  for name, key, p in entries(part, keys)}
        return MappingProxyType({key: (den, tuple(ints))
                                 for key, (den, ints) in scaled.items()})

    P, Pis = rows("P", tops), rows("Pis", index)
    windows = {key: _window_row(name, t, truncation)
               for name, key, t in entries("R", index)}
    system = PadeSystem(spec=spec, alphas=alphas, n=n, truncation=truncation, P=P)
    return system, {"Pis": Pis, "R": windows}


def _weight_run(spec: HypergeometricSpec, alpha, s: int, start: int, stop: int,
                width: int) -> tuple:
    # the psi_{i,s} weights of alpha = alpha_i that outputs start..stop-1 of
    # a correlation of width `width` meet, as (lcm, ints) of `_scaled`
    w = _psi_table(spec, alpha, s, stop - 2 + width)
    return _scaled(w[start:stop - 1 + width])


def build_system(spec: HypergeometricSpec, alphas, n: int,
                 truncation: int = None, cross_check: bool = True) -> PadeSystem:
    """Build every P_ell of the instance, as integer rows from one
    multiplier table (`_P_family`); each P_{ell,i,s} and each remainder
    window is made on its first read (`PadeSystem.Pis`, `.R`).  The window
    is checked before anything is built: a given truncation by
    `check_truncation`, the default one by `default_truncation`.
    When cross_check is set (the default), the built system must pass
    `contract_failures`: its degrees, its psi weights and the orders of
    its whole windows; any failure is a theory violation, not a warning.
    A caller that checks the contract itself (`wronskian.certify_nonvanishing`,
    through Delta's hypotheses) or never reads the windows
    (`criterion.Instance`) builds without it.
    """
    alphas = tuple(Fraction(a) for a in alphas)
    _check_alphas(alphas)
    if n < 1:
        raise InvalidInput("need n >= 1")
    r, m = spec.r, len(alphas)
    if truncation is None:
        truncation = default_truncation(r, m, n)
    else:
        check_truncation(n, truncation)
    P = dict(enumerate(_P_family(spec, alphas, n, r * m)))
    system = PadeSystem(spec=spec, alphas=alphas, n=n, truncation=truncation,
                        P=MappingProxyType(P))
    if cross_check:
        failures = contract_failures(system)
        if failures:
            raise TheoryViolation(
                f"the built system breaks its contract: {failures[0]}"
                f" ({len(failures)} failures)")
    return system


def constant_term(system: PadeSystem, ell: int, i: int, s: int) -> tuple:
    """The constant term of P_{ell,i,s} as the pair (a, den): the one dot
    product sum_k w_k P_ell[1+k] over the run its row reads (`_PisRows`),
    so no row is made."""
    dp, Pn = system.P[ell]
    dw, wn = system.weight_run(i, s, 0, 0)
    return sum(map(mul, wn, Pn[1:])), dp * dw


def contract_failures(system: PadeSystem, given: dict = None) -> list:
    """Every failure of the system's contract, in a fixed order; [] when it
    holds.  `given` holds a file's own P_{ell,i,s} rows and windows
    (`load_system`); without it the stored windows are the system's own.
    Each failure names its check and its index:

    * deg_P: deg P_ell = rmn + ell;
    * weights: the psi_{i,s} weights (`_psi_table`) equal the series row of
      F_s(alpha_i/z) (`_series_row`) entry by entry, over the
      truncation - 2 + D weights that the rows and windows read, D the
      width of P_rm: one comparison per (i, s);
    * deg_Pis: a given P_{ell,i,s} has degree <= rmn + ell;
    * ord_R: the stored window of R_{ell,i,s} has order >= n+1;
    * Pis_coeffs: a given P_{ell,i,s} is the made row, `system.Pis`;
    * remainder_coeffs: a given window is the made one, `system.R`,
      compared from the lower of its order and 1 on, so it vanishes at
      every exponent <= 0.

    The row and the window made from P_ell and the checked weights are
    the polynomial part and the tail of P_ell F_s(alpha_i/z) (proof in the
    README), so these are the paper's contract: the remainder
    P_ell F_s(alpha_i/z) - P_{ell,i,s} has order >= n+1 at infinity, and
    its exponents >= 1 are the stored window.  Without `given` the system
    is checked for deg_P, weights and ord_R alone, and no P_{ell,i,s} row
    is made.  Rows are compared on integers, by cross-multiplying their
    denominators, so the contract makes no Fraction.
    """
    n, rm = system.n, system.r * system.m
    rmn = rm * n
    failures = []
    for ell in range(rm + 1):
        got = poly_deg(poly_trim(list(system.P[ell][1])))
        if got != rmn + ell:
            failures.append(
                {"check": "deg_P", "index": [ell], "expected": rmn + ell, "got": str(got)})
    spec = system.spec
    count = system.truncation - 2 + max(len(ints) for _, ints in system.P.values())
    for i, alpha in enumerate(system.alphas, 1):
        for s in range(system.r):
            weights = _psi_table(spec, alpha, s, count - 1)
            dc, cn = _series_row(spec, alpha, s, count)
            if any(a * dc != c * b for (a, b), c in zip(weights[:count], cn)):
                failures.append({"check": "weights", "index": [i, s]})
    windows = system.R if given is None else given["R"]
    for ell, i, s in system.indices():
        if given is not None:
            # -inf for the zero polynomial
            got = poly_deg(poly_trim(list(given["Pis"][(ell, i, s)][1])))
            if got > rmn + ell:
                failures.append({"check": "deg_Pis", "index": [ell, i, s],
                                 "bound": rmn + ell, "got": str(got)})
        # None for a window zero throughout, whose truncation is past n + 1
        got = window_order(windows[(ell, i, s)])
        if got is not None and got < n + 1:
            failures.append({"check": "ord_R", "index": [ell, i, s], "bound": n + 1,
                             "got": got})
    if given is None:
        return failures
    for key in system.indices():
        made_den, made = system.Pis[key]
        den, ints = given["Pis"][key]
        ints = poly_trim(list(ints))
        if len(ints) != len(made) or any(a * made_den != b * den for a, b in zip(ints, made)):
            failures.append({"check": "Pis_coeffs", "index": list(key)})
        window, made = windows[key], system.R[key]
        order, den, ints = window
        if any(window_coeff(window, e)[0] * made[1] != window_coeff(made, e)[0] * den
               for e in range(min(order, 1), order + len(ints))):
            failures.append({"check": "remainder_coeffs", "index": list(key)})
    return failures


def verify_system(system: PadeSystem, given: dict = None) -> dict:
    """The system's `contract_failures`, on a file's `given` rows and
    windows if any, as a report, with the instance's hypothesis flags and
    its shape."""
    failures = contract_failures(system, given)
    return {
        "ok": not failures,
        "failures": failures,
        "hypothesis_flags": system.spec.hypothesis_flags(),
        "n": system.n,
        "r": system.r,
        "m": system.m,
    }

