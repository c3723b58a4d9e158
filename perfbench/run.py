"""The hgpade benchmark.  Run from the repository root:

    python3 perfbench/run.py --workload certify --seed 0 --seconds 30 --trace 0

It runs the workload as a closed loop with one client: one op at a time,
each in a fresh worker process (worker.py) that also times its import of
hgpade.cli, the whole command list repeated in passes
until the next pass would overrun --seconds (at least one pass always runs).
It prints two lines on stdout: a JSON `detail` object (environment, raw
wall times, every op with its (r, m, n, bits)), then the result object with
the keys `correct`, `attempted`, `failed` and `metrics`.  With --trace 0 the
metrics are the end-to-end ones of BENCHMARK.json; with --trace 1 the first
half of the budget runs untraced passes and the second half traced ones,
and the metrics are the per-layer ones.  perfbench/README.md says what each
metric means and what it should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads

HERE = Path(__file__).resolve().parent
DEADLINE_S = 170  # the whole run, set-up included
SPANS_DIR = Path(".perfbench")  # relative to the repository root

PER_LAYER = (
    "pade.busy_s", "pade.build_system.calls", "pade.build_system.distinct",
    "pade.remainder.calls",
    "wronskian.busy_s", "wronskian.C_um.calls", "wronskian.C_um.distinct",
    "wronskian.C_um.s", "wronskian.delta_of_system.s", "wronskian.theta_det.s",
    "linalg.busy_s", "linalg.det_bareiss.calls",
    "criterion.busy_s", "criterion.decay_fit_R.calls",
    "numerics.busy_s", "numerics.remainder_value.calls",
    "numerics.remainder_value.distinct", "numerics.remainder_value.s",
    "numerics.eval_F_family.s", "numerics.eval_pFq.s",
    "polyops.busy_s", "polyops.psi.calls", "polyops.psi_weights.calls",
    "polyops.psi_weights.s",
    "arith.busy_s", "cli.emit_report.s",
)

# Self-checks of the traced run.  The zero counts prove the workloads keep
# the layers apart; the nonzero ones prove the tracer sees calls made through
# names imported from another module.
EXPECT_ZERO = {
    "certify": ("numerics.remainder_value.calls",),
    "measure": ("wronskian.C_um.calls",),
    "series": ("wronskian.C_um.calls", "numerics.remainder_value.calls",
               "pade.build_system.calls"),
}
EXPECT_NONZERO = {
    "certify": ("pade.build_system.calls", "wronskian.C_um.calls",
                "linalg.det_bareiss.calls"),
    "measure": ("pade.build_system.calls", "numerics.remainder_value.calls",
                "criterion.decay_fit_R.calls"),
    "series": ("numerics.eval_pFq.s",),
}


def environment() -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    src = hashlib.sha256()
    for path in sorted(Path("src/hgpade").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,  # None in a checkout that is not a git repository
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return ""


def warm_up(env: dict):
    """Import hgpade once, so that writing the .pyc files is not timed."""
    subprocess.run([sys.executable, "-c", "import hgpade.cli"], env=env,
                   check=True, timeout=60)


class Runner:
    """Starts one worker per op run, within the run's deadline."""

    def __init__(self, args, env: dict, deadline: float):
        self.args, self.env, self.deadline = args, env, deadline

    def op(self, index: int, trace: int) -> dict:
        a = self.args
        child = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", a.workload,
             "--seed", str(a.seed), "--index", str(index), "--trace", str(trace)],
            env=self.env, capture_output=True, text=True, check=True,
            timeout=max(1.0, self.deadline - perf_counter()))
        return json.loads(child.stdout)

    def passes(self, count: int, budget: float, trace: int) -> list:
        """Closed loop over the `count` ops; one list of op records per pass."""
        passes = []
        start = perf_counter()
        while True:
            passes.append([self.op(index, trace) for index in range(count)])
            elapsed = perf_counter() - start
            if elapsed * (len(passes) + 1) / len(passes) > budget:
                return passes


def per_op_median(passes: list, field: str) -> list:
    """Each op's median over the passes, in op order."""
    return [statistics.median(p[k][field] for p in passes) for k in range(len(passes[0]))]


def end_to_end(passes: list, ops: list) -> dict:
    times = per_op_median(passes, "s")
    return {
        "run_s": sum(times),
        "part_a_s": sum(t for t, op in zip(times, ops) if op.part == "a"),
        "part_b_s": sum(t for t, op in zip(times, ops) if op.part == "b"),
    }


def layer_value(name: str, trace: dict, scale: float):
    layer, rest = name.split(".", 1)
    if rest == "busy_s":
        return trace["busy"][layer] * scale
    fn, kind = rest.rsplit(".", 1)
    qual = f"{layer}.{fn}"
    if kind == "s":
        return trace["seconds"].get(qual, 0.0) * scale
    return trace["calls" if kind == "calls" else "distinct"].get(qual, 0)


def layer_metrics(passes: list) -> dict:
    """Per-layer metrics summed over the op runs of a pass; times in
    reference seconds; the median over the traced passes."""
    rows = []
    for records in passes:
        row = dict.fromkeys(PER_LAYER, 0)
        for r in records:
            scale = r["s"] / r["wall_s"]
            for name in PER_LAYER:
                row[name] += layer_value(name, r["trace"], scale)
        rows.append(row)
    return {name: statistics.median_low(r[name] for r in rows) for name in PER_LAYER}


def self_check(workload: str, layers: dict) -> list:
    bad = [f"{m} is {layers[m]}, expected 0" for m in EXPECT_ZERO[workload] if layers[m]]
    bad += [f"{m} is 0, expected more" for m in EXPECT_NONZERO[workload] if not layers[m]]
    return bad


def op_rows(records: list) -> list:
    keys = ("op", "part", "r", "m", "n", "bits", "wall_s", "s")
    return [{k: r[k] for k in keys} for r in records]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not Path("src/hgpade/cli.py").is_file():
        print("run.py: no src/hgpade here; run it from the hgpade repository root",
              file=sys.stderr)
        return 2
    deadline = perf_counter() + DEADLINE_S
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        x for x in ("src", env.get("PYTHONPATH")) if x)
    detail = {"workload": args.workload, "seed": args.seed, **environment(),
              "loadavg_before": loadavg()}

    warm_up(env)
    ops = workloads.ops_for(args.workload, args.seed)
    runner = Runner(args, env, deadline)
    budget = args.seconds / 2 if args.trace else args.seconds
    try:
        untraced = runner.passes(len(ops), budget, trace=0)
        traced = runner.passes(len(ops), budget, trace=1) if args.trace else []
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(exc.stderr, file=sys.stderr)
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    detail["loadavg_after"] = loadavg()

    records = [r for records in untraced + traced for r in records]
    failures = [r for r in records if r["failure"]]
    for r in failures:
        print(f"failed: {r['op']}: {r['failure']} {r['stderr']}", file=sys.stderr)

    e2e = end_to_end(untraced, ops)
    detail.update({
        "groups": dict(zip(("part_a_s", "part_b_s"), workloads.GROUPS[args.workload])),
        "passes": len(untraced),
        "run_wall_s": sum(per_op_median(untraced, "wall_s")),
        "speed_samples": sum(r["speed_samples"] for r in records),
        "failed_ops": len(failures) / len(records),
        "ops": op_rows(untraced[-1]),
    })
    checks_failed = []
    if args.trace:
        metrics = layer_metrics(traced)
        metrics["trace.overhead_s"] = end_to_end(traced, ops)["run_s"] - e2e["run_s"]
        checks_failed = self_check(args.workload, metrics)
        for msg in checks_failed:
            print(f"self-check failed: {msg}", file=sys.stderr)
        SPANS_DIR.mkdir(exist_ok=True)
        spans = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        spans.write_text(json.dumps({
            "fields": ["id", "parent", "layer", "function", "start_s", "end_s"],
            "ops": [{"op": r["op"], "spans": r["trace"]["spans"]} for r in traced[-1]],
        }))
        detail["spans_file"] = str(spans)
        detail["traced_ops"] = op_rows(traced[-1])
        units = {m: "count" if m.endswith((".calls", ".distinct")) else "s"
                 for m in metrics}
    else:
        peak = max(r["peak_rss_mb"] for r in records)
        setup_s = statistics.median(r["import_s"] for r in records)
        metrics = {"setup_s": setup_s, **e2e, "peak_rss_mb": peak}
        units = {m: "MB" if m == "peak_rss_mb" else "s" for m in metrics}
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not failures and not checks_failed,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
