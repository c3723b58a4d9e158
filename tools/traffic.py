"""Traffic audit: the lines of src/hgpade that no real run executes, and
how often each memo table is read again.

Under `sys.settrace`, in this process, it runs the ops of the benchmark's
three workloads at seeds 0-2 (`ops_for` of perfbench/workloads.py, whose
source it only reads), the command block of the README, one p-adic
`criterion` and the three demos.  It then prints every line of a function
of src/hgpade that holds an instruction and that none of those runs
executed, grouped by function, one function a line:

    module.qualname: 12 14-17

A function that no run entered lists its def line too.  After them comes
one line per memo table, with the reads that made (or grew) an entry and
the reads that found it already there:

    memo PadeSystem._kept terms: 120 made, 340 re-read

Each tag of `PadeSystem._kept` is a table, and so is each caller of
`polyops._grown`; both are wrapped for the runs and put back after.  A
table that no run reads again is a cache that buys nothing.  It writes nothing
under src/ or perfbench/: bytecode caching is off, and the README's build
writes its system file into a temporary directory.  Run from anywhere:

    python3 tools/traffic.py
"""

from __future__ import annotations

import ast
import contextlib
import importlib.util
import inspect
import io
import os
import runpy
import shlex
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hgpade"
SEEDS = (0, 1, 2)

# a p-adic criterion: |alpha/beta|_5 = 5^-10, over the default window
PADIC = ("criterion", "--a=1/3,1/4", "--b=1/2", "--alphas=1", "--beta=1/9765625",
         "--place", "5")


@contextlib.contextmanager
def _no_bytecode():
    cached, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        yield
    finally:
        sys.dont_write_bytecode = cached


def workload_ops() -> list:
    """The argv of every op of every workload at `SEEDS`, each once."""
    name = "_traffic_workloads"
    spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / "workloads.py")
    workloads = sys.modules[name] = importlib.util.module_from_spec(spec)
    try:
        with _no_bytecode():
            spec.loader.exec_module(workloads)
    finally:
        del sys.modules[name]
    argvs = [op.argv for workload in workloads.WORKLOADS for seed in SEEDS
             for op in workloads.ops_for(workload, seed)]
    return list(dict.fromkeys(argvs))


def readme_commands() -> list:
    """The argv of each `hgpade` line of the README's command-line block."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [tuple(shlex.split(line)[1:]) for line in block.splitlines()
            if line.startswith("hgpade ")]


def demos() -> list:
    return sorted(ROOT.glob("demos/*.py"))


def executable_lines() -> dict:
    """path -> the lines that hold an instruction of a function (a def,
    lambda or comprehension body) of that module of src/hgpade; module and
    class bodies run on import and are left out."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        lines, stack = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
        while stack:
            code = stack.pop()
            stack += [c for c in code.co_consts if inspect.iscode(c)]
            if code.co_flags & inspect.CO_NEWLOCALS:
                lines.update(line for _, _, line in code.co_lines() if line is not None)
        out[str(path)] = lines
    return out


def _tracer(hits: set, files: set):
    """A trace function that records (path, line), for frames whose file
    resolves to one of `files`, at each call (a function's first line) and
    each line event."""
    resolved = {}

    def calls(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in resolved:
            path = os.path.realpath(name)
            resolved[name] = path if path in files else None
        path = resolved[name]
        if path is None:
            return None
        hits.add((path, frame.f_lineno))

        def local(frame, event, arg):
            if event == "line":
                hits.add((path, frame.f_lineno))
            return local

        return local

    return calls


@contextlib.contextmanager
def _memo_counts(counts: dict):
    """While active, count each read of a memo table in counts, table ->
    [made, re-read]: a `PadeSystem._kept` read by its tag, made when its key
    was not yet kept, and a `polyops._grown` read by the function that
    asked for it, made when the table had to grow.  The wrappers only
    count, and the originals are put back on exit."""
    from hgpade import pade, polyops

    kept, grown = pade.PadeSystem._kept, polyops._grown

    def tally(table, made):
        counts.setdefault(table, [0, 0])[0 if made else 1] += 1

    def counted_kept(system, key, make):
        tally(f"PadeSystem._kept {key[0]}", key not in system._state)
        return kept(system, key, make)

    def counted_grown(table, upto, term):
        tally(f"polyops._grown {sys._getframe(1).f_code.co_name}", len(table) <= upto)
        return grown(table, upto, term)

    pade.PadeSystem._kept, polyops._grown = counted_kept, counted_grown
    try:
        yield
    finally:
        pade.PadeSystem._kept, polyops._grown = kept, grown


def run_traced(argvs, demo_paths) -> tuple:
    """(hits, exits, memos): the (file, line) pairs of src/hgpade that
    running each argv through `hgpade.cli.main` and each demo executed,
    the nonzero exit codes by run, and the reads of each memo table,
    table -> [made, re-read] (`_memo_counts`)."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    with _no_bytecode():
        from hgpade.cli import main

    files = {str(path) for path in PACKAGE.glob("*.py")}
    hits, exits, memos = set(), {}, {}
    previous = sys.gettrace()
    sink = io.StringIO()
    sys.settrace(_tracer(hits, files))
    try:
        with _no_bytecode(), tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp), \
                contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), \
                _memo_counts(memos):
            for argv in argvs:
                code = main(list(argv))
                if code:
                    exits[" ".join(argv)] = code
                sink.seek(0)
                sink.truncate()
            for path in demo_paths:
                runpy.run_path(str(path), run_name="__main__")
    finally:
        sys.settrace(previous)
    return hits, exits, memos


def _qualnames(path: str) -> list:
    """(first line, last line, qualname) of every def of the module, the
    innermost last among those that hold a line."""
    spans = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}{child.name}"
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                    spans.append((first, child.end_lineno, name))
                visit(child, name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(Path(path).read_text(encoding="utf-8")), Path(path).stem + ".")
    return spans


def unexecuted(hits: set) -> dict:
    """qualname -> the sorted executable lines of that function that no
    run executed."""
    out = {}
    for path, lines in executable_lines().items():
        spans = _qualnames(path)
        for line in sorted(lines - {ln for p, ln in hits if p == path}):
            inside = [span for span in spans if span[0] <= line <= span[1]]
            name = max(inside)[2] if inside else Path(path).stem + ".<module>"
            out.setdefault(name, []).append(line)
    return out


def _ranges(lines: list) -> str:
    runs = []
    for line in lines:
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return " ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def report(missed: dict) -> str:
    total = sum(len(lines) for lines in missed.values())
    head = f"{total} lines in {len(missed)} functions of src/hgpade ran in no traced run"
    rows = [f"{name}: {_ranges(lines)}" for name, lines in sorted(missed.items())]
    return "\n".join([head, *rows])


def memo_report(memos: dict) -> str:
    return "\n".join(f"memo {table}: {made} made, {again} re-read"
                     for table, (made, again) in sorted(memos.items()))


def main() -> int:
    argvs = [*workload_ops(), *readme_commands(), PADIC]
    hits, exits, memos = run_traced(argvs, demos())
    for argv, code in exits.items():
        print(f"exit {code}: hgpade {argv}", file=sys.stderr)
    print(report(unexecuted(hits)))
    print(memo_report(memos))
    return 0


if __name__ == "__main__":
    sys.exit(main())
