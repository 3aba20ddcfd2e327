"""Adders lowered to CNOTs and AND/uncompute-AND macros, for the tests.

The result still runs on the classical basis engine, which makes the
adders' internal carry logic and ancilla hygiene directly checkable.  It
goes through the same ``ir._lower`` walk that ``expand`` uses, with an
emitter that appends validated ops instead of writing gates, and writes
each run of ANDs, uncomputes or ripple cells op by op: the independent
reference for the emitters that write a run in one call.
"""

from qsquare.ir import Gate, LogicalAnd, Netlist, UncomputeAnd, _lower


class MacroEmitter:
    """The ``_lower`` emitter interface over a list-form netlist: every
    primitive and AND macro passes through, every adder is lowered."""

    def __init__(self, out: Netlist) -> None:
        self.out = out
        self.new_wires = out.new_wires

    def gate(self, kind: str, w0: int, w1: int, cbit: int) -> None:
        self.out.append(Gate(kind, (w0,) if w1 < 0 else (w0, w1), None if cbit < 0 else cbit))

    def cx(self, c: int, t: int) -> None:
        self.out.add_gate("cx", c, t)

    def logical_ands(self, x, y, t) -> None:
        for xi, yi, ti in zip(x, y, t, strict=True):
            self.out.append(LogicalAnd(xi, yi, ti))

    def uncompute_ands(self, x, y, t) -> None:
        for xi, yi, ti in zip(x, y, t, strict=True):
            self.out.append(UncomputeAnd(xi, yi, ti))

    def carry_cells(self, w, x, y, t) -> None:
        for wi, xi, yi, ti in zip(w, x, y, t, strict=True):
            self.cx(wi, xi)
            self.cx(wi, yi)
            self.out.append(LogicalAnd(xi, yi, ti))
            self.cx(wi, ti)

    def release_cells(self, w, x, y, t) -> None:
        for wi, xi, yi, ti in zip(w, x, y, t, strict=True):
            self.cx(wi, ti)
            self.out.append(UncomputeAnd(xi, yi, ti))
            self.cx(wi, xi)
            self.cx(xi, yi)


def lower_adders(netlist: Netlist) -> Netlist:
    """Partial expansion: adders down to CNOTs and AND/uncompute-AND macros."""
    out = Netlist()
    out.wire_count = netlist.wire_count
    out.cbit_count = netlist.cbit_count
    out.registers = dict(netlist.registers)
    _lower(netlist, MacroEmitter(out))
    return out
