"""Outside-in layer tracing of qsquare, done entirely from the benchmark.

``Tracer.install`` finds every public module-level function of the
traced modules and rebinds each reference that any loaded ``qsquare``
module holds to a wrapper, so calls from one layer into another (for
example ``costs.measure_circuit`` calling ``ir.expand``) nest as child
spans.  Functions are found by discovery: one a commit lacks is simply
not there (reported absent), and one a commit adds is traced under its
own name.  Spans stay in memory until ``summary`` and ``dump``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from pathlib import Path

MODULES = ("layout", "synth", "blocks", "ir", "sim", "costs", "cli")


def _text_length(result):
    return len(result) if isinstance(result, str) else None


def _gate_count(result):
    gates = getattr(result, "gates", None)
    return len(gates) if isinstance(gates, list) else None


def _lanes(result):
    lanes = getattr(result, "lanes", None)
    return lanes if isinstance(lanes, int) else None


# Work counts read off a function's result.  A result of another shape
# (a later commit changed the function) makes the count unavailable.
COUNTERS = {
    "ir.expand": ("gates_out", _gate_count),
    "ir.to_json": ("bytes", _text_length),
    "ir.to_qasm": ("bytes", _text_length),
    "sim.run_basis_sweep": ("lanes", _lanes),
}


class Tracer:
    """Spans are ``[function, parent span, start, end, command]``; the
    command index groups the spans of one CLI command."""

    def __init__(self) -> None:
        self.functions: list[str] = []
        self.modules: list[str] = []
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.unavailable: set[str] = set()
        self.command = -1
        self._stack: list[int] = []

    def install(self, package: str = "qsquare", modules=MODULES) -> None:
        """Wrap the public functions of ``package.<module>`` for each of
        ``modules`` that exists, in every loaded module of the package."""
        wrappers: dict[int, tuple] = {}
        for short in modules:
            try:
                mod = importlib.import_module(f"{package}.{short}")
            except ModuleNotFoundError:
                continue
            self.modules.append(short)
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        for name, mod in list(sys.modules.items()):
            if name != package and not name.startswith(package + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                found = wrappers.get(id(obj))
                if found is not None and found[0] is obj:
                    setattr(mod, attr, found[1])

    def _wrap(self, name: str, fn):
        index = len(self.functions)
        self.functions.append(name)
        counter = COUNTERS.get(name)
        key = f"{name}.{counter[0]}" if counter else ""
        if counter:
            self.counts[key] = 0
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [index, stack[-1] if stack else -1, clock(), 0.0, self.command]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if counter:
                value = counter[1](result)
                if value is None:
                    self.unavailable.add(key)
                else:
                    self.counts[key] += value
            return result

        return traced

    def summary(self) -> dict:
        """Per function: calls, total and self seconds, and work counts;
        per module: self seconds; per caller>callee pair: seconds."""
        nf = len(self.functions)
        calls, total, own = [0] * nf, [0.0] * nf, [0.0] * nf
        covered = [0.0] * len(self.spans)
        edges: dict[str, float] = {}
        for f, parent, start, end, _ in self.spans:
            calls[f] += 1
            total[f] += end - start
            if parent >= 0:
                covered[parent] += end - start
                edge = f"{self.functions[self.spans[parent][0]]}>{self.functions[f]}"
                edges[edge] = edges.get(edge, 0.0) + end - start
        roots = 0.0
        for i, (f, parent, start, end, _) in enumerate(self.spans):
            own[f] += end - start - covered[i]
            if parent < 0:
                roots += end - start
        functions = {name: {"calls": calls[i], "total_s": total[i], "self_s": own[i]}
                     for i, name in enumerate(self.functions)}
        for key, value in self.counts.items():
            if key not in self.unavailable:
                name, _, field = key.rpartition(".")
                functions[name][field] = value
        modules = {m: 0.0 for m in self.modules}
        for name, entry in functions.items():
            modules[name.partition(".")[0]] += entry["self_s"]
        return {"functions": functions, "modules": modules, "edges": edges,
                "root_s": roots, "spans": len(self.spans)}

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({"functions": self.functions, "spans": self.spans},
                                   separators=(",", ":")), encoding="utf-8")
