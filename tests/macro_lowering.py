"""Adders lowered to CNOTs and AND/uncompute-AND macros, for the tests.

The result still runs on the classical basis engine, which makes the
adders' internal carry logic and ancilla hygiene directly checkable.  It
goes through the same ``ir._lower`` walk that ``expand`` uses, with an
emitter that appends validated ops instead of writing gates.
"""

from qsquare.ir import Gate, LogicalAnd, Netlist, UncomputeAnd, _lower


class MacroEmitter:
    """The ``_lower`` emitter interface over a list-form netlist: every
    primitive and AND macro passes through, every adder is lowered."""

    def __init__(self, out: Netlist) -> None:
        self.out = out
        self.new_wire = out.new_wire

    def gate(self, kind: str, w0: int, w1: int, cbit: int) -> None:
        self.out.append(Gate(kind, (w0,) if w1 < 0 else (w0, w1), None if cbit < 0 else cbit))

    def cx(self, c: int, t: int) -> None:
        self.out.add_gate("cx", c, t)

    def logical_and(self, x: int, y: int, t: int) -> None:
        self.out.append(LogicalAnd(x, y, t))

    def uncompute_and(self, x: int, y: int, t: int) -> None:
        self.out.append(UncomputeAnd(x, y, t))


def lower_adders(netlist: Netlist) -> Netlist:
    """Partial expansion: adders down to CNOTs and AND/uncompute-AND macros."""
    out = Netlist()
    out.wire_count = netlist.wire_count
    out.cbit_count = netlist.cbit_count
    out.registers = dict(netlist.registers)
    _lower(netlist, MacroEmitter(out))
    return out
