"""Adders lowered to CNOTs and AND/uncompute-AND macros, for the tests.

The result still runs on the classical basis engine, which makes the
adders' internal carry logic and ancilla hygiene directly checkable.  It
goes through the same ``lower_add_in_place`` that ``expand`` uses, with
an emitter that appends validated macro ops instead of writing gates.
"""

from qsquare.blocks import lower_add_in_place
from qsquare.ir import AddInPlace, LogicalAnd, Netlist, UncomputeAnd


class MacroEmitter:
    """The ``lower_add_in_place`` emitter interface over a list-form netlist."""

    def __init__(self, out: Netlist) -> None:
        self.out = out
        self.new_wire = out.new_wire

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
    emitter = MacroEmitter(out)
    for op in netlist.gates:
        if isinstance(op, AddInPlace):
            lower_add_in_place(emitter, op)
        else:
            out.append(op)
    return out
