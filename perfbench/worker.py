"""Runs one op of a workload in a fresh interpreter and prints its
measurements as one JSON object on stdout.

run.py starts one worker per op run, with PYTHONPATH pointing at the
checkout's src/, just as a user starts one `hgpade` process per command.
The worker first imports hgpade.cli, timed (setup_s), and then times
`hgpade.cli.main(argv)` with stdout captured, so the CLI parse and report
path is timed with the command.  A process per op also keeps any state that
hgpade holds in its modules from carrying over from one op to the next,
which a user's separate `hgpade` processes would not see either.
"""

from __future__ import annotations

from time import perf_counter

# first, so that no module the benchmark imports is loaded before hgpade
# needs it and the import is timed whole
_start = perf_counter()
import hgpade.cli as cli  # noqa: E402

IMPORT_WALL_S = perf_counter() - _start

import argparse
import contextlib
import io
import json
import resource
import sys

import speed
import workloads


def run_op(op) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(op.argv))
        except Exception as exc:  # a traceback is a failed op, not a crash
            print(f"{type(exc).__name__}: {exc}", file=err)
            code = -1
    return code, out.getvalue(), err.getvalue()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--index", type=int, required=True, help="which op of the workload")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    op = workloads.ops_for(args.workload, args.seed)[args.index]
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    clock = speed.Clock()
    (code, out, err), wall, seconds = clock.timed(lambda: run_op(op))
    failure = workloads.check_output(op, code, out, workloads.load_frozen())
    json.dump({
        "op": op.key, "part": op.part, **op.shape,
        "import_s": clock.rescale(IMPORT_WALL_S, clock.samples[:speed.SAMPLES_AFTER]),
        "wall_s": wall, "s": seconds, "failure": failure,
        "stderr": err[-500:] if failure else "",
        "speed_samples": len(clock.samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "trace": tracer.take() if tracer else None,
    }, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
