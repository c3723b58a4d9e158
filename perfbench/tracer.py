"""Outside-in tracer: times the calls into each hgpade module from outside.

`Tracer.install()` wraps every public function of each layer module in its
home module and rebinds the name in every loaded `hgpade` module that holds
it.  The rebinding matters because `criterion`, `wronskian` and `cli` call
through names they imported (`from .pade import build_system`); patching
`hgpade.pade` alone would miss those callers.  Functions reached only as
methods of classes are not wrapped: their time counts towards the layer that
called them.

What is recorded:
  * calls per function, and the wall time of its outermost calls (`.s`);
  * distinct calls for the functions in `KEYERS`, keyed on canonical
    arguments, so that a cache can name the exact number of builds it saves;
  * a span wherever a call crosses from one layer into another, with its
    parent span.  A layer's busy time is the duration of its spans minus the
    part covered by its child spans of other layers.  Spans stay in memory
    until `take()` hands them over.

The worker installs a tracer in a process that runs one op and then exits,
so nothing is ever unwrapped.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
from collections import Counter, defaultdict
from fractions import Fraction
from time import perf_counter

PACKAGE = "hgpade"
LAYERS = ("arith", "polyops", "pade", "wronskian", "linalg", "criterion",
          "numerics", "cli")


def _spec_key(spec):
    # eta, zeta and c0 determine the spec; the same data as spec.to_jsonable()
    # without calling into the traced package
    return (tuple(spec.eta), tuple(spec.zeta), spec.c0)


def _alphas_key(alphas):
    return tuple(Fraction(a) for a in alphas)


def _build_system_key(a):
    return (_spec_key(a["spec"]), _alphas_key(a["alphas"]), a["n"],
            a["truncation"], a["cross_check"])


def _c_um_key(a):
    return (_spec_key(a["spec"]), _alphas_key(a["alphas"]), a["n"], a["u"],
            a["route"])


def _remainder_value_key(a):
    # bits is left out on purpose: calls minus distinct then counts the
    # precision restarts of one remainder value plus its recomputations
    system = a["system"]
    return (_spec_key(system.spec), _alphas_key(system.alphas), system.n,
            system.truncation, a["ell"], a["i"], a["s"], Fraction(a["beta"]))


KEYERS = {
    "pade.build_system": _build_system_key,
    "wronskian.C_um": _c_um_key,
    "numerics.remainder_value": _remainder_value_key,
}


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.seconds = defaultdict(float)  # outermost calls only
        self.busy = defaultdict(float)
        self.distinct = defaultdict(set)
        self.spans = []  # (id, parent id or -1, layer, function, start, end)
        self._depth = Counter()
        self._stack = []  # open layer spans: [layer, child time, id]
        self._ids = itertools.count()

    def install(self):
        wrapped = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, fn in vars(module).items():
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not name.startswith("_")):
                    wrapped[fn] = self._wrap(layer, f"{layer}.{name}", fn)
        for modname, module in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrapped:
                    setattr(module, name, wrapped[value])

    def take(self) -> dict:
        """Everything recorded, as plain data."""
        return {
            "calls": dict(self.calls),
            "seconds": dict(self.seconds),
            "busy": {layer: self.busy.get(layer, 0.0) for layer in LAYERS},
            "distinct": {q: len(keys) for q, keys in self.distinct.items()},
            "spans": list(self.spans),
        }

    def _wrap(self, layer: str, qual: str, fn):
        keyer = KEYERS.get(qual)
        signature = inspect.signature(fn) if keyer else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.calls[qual] += 1
            if keyer is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                tracer.distinct[qual].add(keyer(bound.arguments))
            stack = tracer._stack
            frame = None
            if not stack or stack[-1][0] != layer:
                frame = [layer, 0.0, next(tracer._ids)]
                parent = stack[-1][2] if stack else -1
                stack.append(frame)
            depth = tracer._depth
            outermost = depth[qual] == 0
            depth[qual] += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                took = end - start
                depth[qual] -= 1
                if outermost:
                    tracer.seconds[qual] += took
                if frame is not None:
                    stack.pop()
                    tracer.busy[layer] += took - frame[1]
                    if stack:
                        stack[-1][1] += took
                    tracer.spans.append((frame[2], parent, layer, qual, start, end))

        return traced
