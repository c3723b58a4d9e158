"""Exact rational and number-theoretic primitives.

Everything in here is exact big-rational arithmetic (`fractions.Fraction`);
floats appear only in logarithmic rates, where asymptotic comparisons are the
point.  The module provides rational parsing and formatting, primality and
factoring, the denominator-growth constant mu(x), Euler's totient, p-adic
valuations and the logs of normalized absolute values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidInput, RationalParseError

# ---------------------------------------------------------------------------
# parsing / formatting ("num/den" strings, den omitted when 1)


def parse_rational(text: str) -> Fraction:
    """Parse 'num/den' (or a plain integer string) into a Fraction; anything
    else, a JSON number included, raises RationalParseError."""
    if not isinstance(text, str):
        raise RationalParseError(f"not a rational 'num/den' string: {text!r}")
    s = text.strip()
    try:
        if "/" in s:
            num, den = s.split("/", 1)
            d = int(den)
            if d == 0:
                raise ZeroDivisionError
            return Fraction(int(num), d)
        return Fraction(int(s))
    except (ValueError, ZeroDivisionError):
        raise RationalParseError(f"not a rational 'num/den' string: {text!r}") from None


def parse_rationals(where: str, values) -> list:
    """The Fractions of a list of 'num/den' strings, else InvalidInput."""
    if not isinstance(values, list):
        raise InvalidInput(f"{where}: need a list of rationals, got {values!r}")
    try:
        return [parse_rational(v) for v in values]
    except RationalParseError as exc:
        raise InvalidInput(f"{where}: {exc}") from None


def json_fields(data, keys) -> list:
    """The values of keys in the JSON object data; InvalidInput when data
    is no object, or names the first key it lacks."""
    if not isinstance(data, dict):
        raise InvalidInput(f"need an object, got {type(data).__name__}")
    missing = [key for key in keys if key not in data]
    if missing:
        raise InvalidInput(f'missing key "{missing[0]}"')
    return [data[key] for key in keys]


def format_rational(x: Fraction) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# primality / factorization (deterministic below 2^64)

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 2^64 (the 12 standard witnesses)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    # Brent's variant; n must be odd composite.
    if n % 2 == 0:
        return 2
    x0, c = 2, 1
    while True:
        x = y = x0
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
        c += 1


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}."""
    if n < 1:
        raise InvalidInput(f"factorize expects n >= 1, got {n}")
    out: dict[int, int] = {}
    for p in (2, 3, 5, 7, 11, 13):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return out


def totient(n: int) -> int:
    """Euler's phi."""
    if n < 1:
        raise InvalidInput(f"totient expects n >= 1, got {n}")
    result = n
    for p in factorize(n):
        result = result // p * (p - 1)
    return result


# ---------------------------------------------------------------------------
# denominators / mu


def log_mu(x: Fraction) -> float:
    """log mu(x) = log den(x) + sum over primes q | den(x) of log(q)/(q-1).

    mu(x) is the exact growth constant of den((x)_k / k!, k <= n): the
    den(x)^n part plus q^(n/(q-1)) from the factorials, per prime q | den(x).
    For squarefree den this is prod q^(q/(q-1)); the multiplicity-aware form
    is the one the exact denominators of (x)_k / k! reproduce (den = 4 gives
    rate 3 log 2, not 2 log 2, measured in the tests).
    """
    den = Fraction(x).denominator
    if den == 1:
        return 0.0
    return math.log(den) + sum(math.log(q) / (q - 1) for q in factorize(den))


def v_p(x: Fraction, p: int) -> int:
    """Exact p-adic valuation of a nonzero rational."""
    x = Fraction(x)
    if x == 0:
        raise InvalidInput("v_p(0) is +infinity")
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def log_int(n: int) -> float:
    """log of a positive big integer, safe far beyond float range."""
    if n <= 0:
        raise InvalidInput("log_int needs n > 0")
    if n.bit_length() <= 900:
        return math.log(n)
    # mantissa * 2^shift with a 64-bit mantissa
    shift = n.bit_length() - 64
    return math.log(n >> shift) + shift * math.log(2)


def log_abs_fraction(x: Fraction) -> float:
    """log |x| for a nonzero rational of arbitrary size."""
    x = Fraction(x)
    if x == 0:
        raise InvalidInput("log|0| is -infinity")
    return log_int(abs(x.numerator)) - log_int(x.denominator)


# ---------------------------------------------------------------------------
# places of Q


@dataclass(frozen=True)
class Place:
    """A place of Q: the archimedean one ('inf') or a certified prime p."""

    p: int | None = None  # None = archimedean

    def __post_init__(self):
        if self.p is not None:
            if self.p >= 2**64:
                raise InvalidInput("primality certification limited to p < 2^64")
            if not is_prime(self.p):
                raise InvalidInput(f"{self.p} is not prime")

    @property
    def is_archimedean(self) -> bool:
        return self.p is None

    def __str__(self) -> str:
        return "inf" if self.p is None else str(self.p)


def parse_place(text: str) -> Place:
    s = text.strip().lower()
    if s in ("inf", "infinity", "arch", "oo"):
        return Place()
    try:
        return Place(int(s))
    except ValueError:
        raise RationalParseError(f"not a place (expected 'inf' or a prime): {text!r}") from None


def log_abs_at_place(x: Fraction, v: Place) -> float:
    x = Fraction(x)
    if x == 0:
        raise InvalidInput("log|0|_v is -infinity")
    if v.is_archimedean:
        return log_abs_fraction(x)
    return -v_p(x, v.p) * math.log(v.p)
