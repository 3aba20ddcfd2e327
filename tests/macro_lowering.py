"""Adders lowered to CNOTs and AND/uncompute-AND macros, for the tests.

The result still runs on the classical basis engine, which makes the
adders' internal carry logic and ancilla hygiene directly checkable.  It
goes through the same ``ir._lower`` walk that ``expand`` uses, with an
emitter that appends validated ops instead of writing gates, and writes
each run of a pattern op by op: the independent reference for the
emitters that write a run in one call.
"""

from functools import partial

from qsquare.ir import (AND, CARRY, PATTERNS, RELEASE, UNAND, Gate, LogicalAnd, Netlist,
                        UncomputeAnd, _lower)


class MacroEmitter:
    """The ``_lower`` emitter interface over a list-form netlist: every
    primitive and AND macro passes through, every adder is lowered."""

    def __init__(self, out: Netlist) -> None:
        self.out = out
        self.new_wires = out.new_wires

    def gate(self, kind: str, w0: int, w1: int, cbit: int) -> None:
        self.out.append(Gate(kind, (w0,) if w1 < 0 else (w0, w1), None if cbit < 0 else cbit))

    def run(self, pattern, *columns) -> None:
        # each pattern restated op by op, not read off the pattern value
        if pattern not in PATTERNS:
            raise ValueError(f"unknown pattern {pattern.name!r}")
        out = self.out
        cx = partial(out.add_gate, "cx")
        for cell in zip(*columns, strict=True):
            if pattern is AND:
                out.append(LogicalAnd(*cell))
            elif pattern is UNAND:
                out.append(UncomputeAnd(*cell))
            elif pattern is CARRY:
                w, x, y, t = cell
                cx(w, x)
                cx(w, y)
                out.append(LogicalAnd(x, y, t))
                cx(w, t)
            else:  # RELEASE
                w, x, y, t = cell
                cx(w, t)
                out.append(UncomputeAnd(x, y, t))
                cx(w, x)
                cx(x, y)


def lower_adders(netlist: Netlist) -> Netlist:
    """Partial expansion: adders down to CNOTs and AND/uncompute-AND macros."""
    out = Netlist()
    out.new_wires(netlist.wire_count)
    for _ in range(netlist.cbit_count):
        out.new_cbit()
    for name, wires in netlist.registers.items():
        out.register_alias(name, wires)
    _lower(netlist, MacroEmitter(out))
    return out
