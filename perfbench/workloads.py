"""The benchmark's workloads: command lists made from a seed, and the checks
that decide whether each command's output is correct.

Seed 0 (`DEFAULT_SEED`) gives the canonical instances, whose stdout must
match the sha256 recorded in `frozen.json`; so must any op, at any seed,
whose arguments equal a canonical op's.  Any other seed draws variants of
the same (r, m, n, bits): the signs of the parameters a and b are flipped at
random among the sign patterns that pass the hypothesis flags, and the signs
and order of the points z of the 512-bit `eval` calls are redrawn.  Flipping
signs keeps every height, so a variant costs about what the canonical
instance costs; the hypothesis flags are what make the family certify.

Choices that would change the cost, and so widen the spread between seeds,
are kept fixed: the points alpha stay 1..m in order (permuting them changes
the cost of `wronskian` by about 25%), `min-beta` and the 4096-bit `eval`
always run their canonical instance, and the |z| of the 512-bit `eval`
calls are one fixed set.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

DEFAULT_SEED = 0
FROZEN_PATH = Path(__file__).with_name("frozen.json")

# canonical parameters (a, b) for r = 2 and r = 3
CANONICAL = {
    2: ((Fraction(1, 3), Fraction(1, 4)), (Fraction(1, 2),)),
    3: ((Fraction(1, 3), Fraction(1, 4), Fraction(1, 5)),
        (Fraction(1, 2), Fraction(2, 3))),
}

# each workload splits its ops into two groups, timed as part_a_s / part_b_s
GROUPS = {
    "certify": ("wronskian at r*m = 6", "wronskian at r*m <= 4"),
    "measure": ("criterion, one beta per system", "min-beta, systems reused across beta"),
    "series": ("eval at 4096 bits", "eval at 512 bits"),
}
WORKLOADS = tuple(GROUPS)


@dataclass(frozen=True)
class Op:
    argv: tuple  # arguments of `hgpade`
    part: str  # "a" or "b"
    shape: dict  # r, m, n, bits (None where the command has none)

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def _is_pos_int(x: Fraction) -> bool:
    return x.denominator == 1 and x > 0


def flags_pass(a, b) -> bool:
    """The package's four hypothesis flags, restated on (a, b)."""
    eta = [x + 1 for x in a]
    zeta = list(b) + [Fraction(1)]
    if any(x.denominator == 1 and x <= 0 for x in eta + zeta):
        return False
    if any(_is_pos_int(x) for x in a):
        return False
    if any(_is_pos_int(x + 1 - y) for x in a for y in b):
        return False
    return not any((e - z).denominator == 1 and e - z >= 0 for e in eta for z in zeta)


def sign_variants(r: int) -> list:
    """Every sign pattern of the canonical (a, b) that passes the flags."""
    a0, b0 = CANONICAL[r]
    out = []
    for signs in itertools.product((1, -1), repeat=len(a0) + len(b0)):
        a = tuple(s * x for s, x in zip(signs, a0))
        b = tuple(s * x for s, x in zip(signs[len(a0):], b0))
        if flags_pass(a, b):
            out.append((a, b))
    return out


def _fmt(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _fmt_list(xs) -> str:
    return ",".join(_fmt(x) for x in xs)


class _Draw:
    """Instance choices for one seed; seed 0 always picks the canonical one."""

    def __init__(self, seed: int):
        self.canonical = seed == DEFAULT_SEED
        self.rng = random.Random(seed)
        self.variants = {r: sign_variants(r) for r in CANONICAL}

    def spec(self, r: int) -> tuple:
        a, b = CANONICAL[r] if self.canonical else self.rng.choice(self.variants[r])
        # the --flag=value form keeps argparse from reading "-1/3" as a flag
        return (f"--a={_fmt_list(a)}", f"--b={_fmt_list(b)}")


def _alphas(m: int) -> str:
    return f"--alphas={_fmt_list(range(1, m + 1))}"


def _wronskian(d: _Draw, r: int, m: int, n: int, part: str) -> Op:
    return Op(("wronskian", *d.spec(r), _alphas(m), f"--n={n}"), part,
              {"r": r, "m": m, "n": n, "bits": None})


def _eval(d: _Draw, r: int, z: Fraction, bits: int, part: str) -> Op:
    return Op(("eval", *d.spec(r), f"--z={_fmt(z)}", f"--bits={bits}"), part,
              {"r": r, "m": None, "n": None, "bits": bits})


# |z| of the 512-bit evals: small heights, |z| <= 1/2, each taken once at
# r = 2 and once at r = 3.  A seed only picks signs and order, since the
# cost of a sum grows with |z|.
Z_MAGNITUDES = tuple(Fraction(p, q) for p, q in (
    (1, 2), (1, 3), (1, 4), (1, 5), (2, 5), (1, 6),
    (1, 7), (2, 7), (3, 7), (3, 8), (2, 9), (4, 9)))


def _z_list(rng: random.Random) -> list:
    lists = []
    for _ in range(2):
        zs = [rng.choice((1, -1)) * z for z in Z_MAGNITUDES]
        rng.shuffle(zs)
        lists.append(zs)
    return lists


def ops_for(workload: str, seed: int) -> list:
    d = _Draw(seed)
    if workload == "certify":
        # three instances of each small shape: their sum averages out the
        # +-8% by which the cost of one shape varies between sign variants
        return [
            _wronskian(d, 3, 2, 2, "a"),
            _wronskian(d, 2, 3, 2, "a"),
            *(_wronskian(d, 2, 2, 3, "b") for _ in range(3)),
            *(_wronskian(d, 3, 1, 2, "b") for _ in range(3)),
        ]
    if workload == "measure":
        return [
            Op(("criterion", *d.spec(2), _alphas(1), "--beta=1000000",
                "--epsilon=0.1"), "a", {"r": 2, "m": 1, "n": None, "bits": None}),
            Op(("criterion", *d.spec(2), _alphas(2), "--beta=1000000000"), "a",
               {"r": 2, "m": 2, "n": None, "bits": None}),
            # the canonical instance at every seed: the cost of min-beta follows
            # its bisection path and precision restarts, and across the sign
            # variants it spreads by +-20%
            Op(("min-beta", *_Draw(DEFAULT_SEED).spec(2), _alphas(1),
                "--search-bound=1024"), "b",
               {"r": 2, "m": 1, "n": None, "bits": None}),
        ]
    if workload == "series":
        # the 4096-bit sum takes the canonical spec and z = 1/3 at every
        # seed: across sign variants its cost spreads by +-12%, and at
        # z = -1/3 it certifies about 15% sooner
        ops = [_eval(_Draw(DEFAULT_SEED), 3, Fraction(1, 3), 4096, "a")]
        z2, z3 = _z_list(random.Random(f"series-z-{seed}"))
        for z_r2, z_r3 in zip(z2, z3):
            ops.append(_eval(d, 2, z_r2, 512, "b"))
            ops.append(_eval(d, 3, z_r3, 512, "b"))
        return ops
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# output checks


def _hyp_tail_value(a, b, z: Fraction, digits: int) -> Fraction:
    """rF_{r-1}(a; b; z) - 1, summed exactly until the terms fall below
    10^-digits; shares no code with the package."""
    total, term, k = Fraction(0), Fraction(1), 0
    eps = Fraction(1, 10**digits)
    while True:
        num, den = Fraction(1), Fraction(k + 1)
        for x in a:
            num *= x + k
        for y in b:
            den *= y + k
        term = term * z * num / den
        k += 1
        total += term
        if abs(term) < eps and k > 8:
            return total


def check_output(op: Op, code: int, out: str, frozen: dict) -> str | None:
    """None if the op's output is right, else why it is not."""
    if code != 0:
        return f"exit code {code}"
    if op.key in frozen and frozen[op.key] != hashlib.sha256(out.encode()).hexdigest():
        return "report bytes differ from the frozen ones"
    try:
        report = json.loads(out)
    except json.JSONDecodeError:
        return "stdout is not a JSON report"
    command = op.argv[0]
    if command == "wronskian":
        if report.get("verdict") != "certified nonzero" or not all(report["checks"].values()):
            return "wronskian not certified with every check true"
    elif command == "criterion":
        if report.get("verdict") is not True:
            return "criterion verdict is not true"
    elif command == "min-beta":
        if report.get("min_beta") is None:
            return "min-beta found no beta"
    elif command == "eval":
        return _check_eval(op, report)
    return None


def _check_eval(op: Op, report: dict) -> str | None:
    args = dict(arg[2:].split("=", 1) for arg in op.argv[1:])
    a = [Fraction(x) for x in args["a"].split(",")]
    b = [Fraction(x) for x in args["b"].split(",")]
    z, bits = Fraction(args["z"]), int(args["bits"])
    values = report["F"]
    if len(values) != len(a):
        return "eval did not return r values"
    if any(v["error_exponent"] < bits for v in values):
        return "eval error bound above 2^-bits"
    expected = _hyp_tail_value(a, b, z, 40)
    if abs(Fraction(values[0]["decimal"]) - expected) > Fraction(1, 10**35):
        return "F_0 disagrees with an independent series sum"
    return None


def load_frozen() -> dict:
    return json.loads(FROZEN_PATH.read_text())


def freeze() -> dict:
    """sha256 of the stdout of every default-seed op, run in this process."""
    import contextlib
    import io

    from hgpade.cli import main

    table = {}
    for workload in WORKLOADS:
        for op in ops_for(workload, DEFAULT_SEED):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(list(op.argv))
            if code != 0:
                raise SystemExit(f"{op.key}: exit code {code}")
            table[op.key] = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    return table


if __name__ == "__main__":
    # Records the frozen report hashes; run from the repository root with
    # PYTHONPATH=src python3 perfbench/workloads.py
    FROZEN_PATH.write_text(json.dumps(freeze(), indent=1, sort_keys=True) + "\n")
