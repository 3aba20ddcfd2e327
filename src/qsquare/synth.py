"""End-to-end synthesis of the garbage-free n-bit squaring circuit.

The circuit is emitted in eight phases over input register A and output
positions P_0..P_{2n-1}:

1. one logical-AND per partial product and one CNOT-copy per input bit
   a_1..a_{n-1} onto fresh ancillae;
2./3. binding of those ancillae (plus fresh zero pads) to the operand
   grid rows T_0..T_R;
4. a (2n-3)-bit in-place addition of rows T_0 and T_1 with carry-out;
   its two low sum bits become P_2, P_3;
5./6. the remaining R-1 carry-less additions, each folding row T_{i+1}
   into the running sum V and peeling two more P bits (the final stage
   emits its whole sum into the top P positions);
7. CNOTs restoring the input copies in row T_0 to zero;
8. uncompute-ANDs releasing every remaining partial-product ancilla.

P_0 aliases input wire a_0 and P_1 is a dedicated zero wire; every sum
bit lands on a row-T_1 wire or the first adder's carry wire, so no wire
outside A and P carries state at the end.

The netlist is the one record of this wiring, in its registers: ``A``
(the input), ``P`` (the 2n product bits, least significant first),
``P1`` (the zero wire of product bit 1), ``T0..TR`` (the grid rows),
``V0..`` (the running sum left after each stage that peels P bits) and
``carry`` (the first adder's carry-out).  Each adder stage is one
``AddInPlace`` op, in cascade order, which gives its width and whether
it has a carry-out.

Phase 8 releases every live partial product (all rows but T_1) in
reverse build order, i.e. by descending wire index.  It does not follow
the published phase-8 index-case loops: they never reach cell T(0,1)
(the a_0 a_2 product) at any n, and from n=8 on they also address
2*floor(n/2)-7 cells that hold no live product while missing as many
live ones, so they cannot release every ancilla without a fallback
pass.  The order changes no metric: phase 8 comes last and holds only
measurements and classically controlled CZs, with no T gate, CNOT or
new wire, so the T/CNOT counts and ASAP depths of the rest are
unchanged.
"""

from __future__ import annotations

from typing import NamedTuple

from .ir import AddInPlace, Gate, LogicalAnd, Netlist, UncomputeAnd, _same_type_eq, _same_type_ne
from .layout import InputCopy, OperandGrid, PartialProduct, arrange


class SquarerCircuit(NamedTuple):
    """A synthesized squaring circuit: its netlist and operand grid.

    The wiring lives in the netlist's ``A``, ``P``, ``P1``, ``T0..TR``,
    ``V*`` and ``carry`` registers (see the module docstring)."""

    n: int
    netlist: Netlist
    grid: OperandGrid

    __eq__, __ne__, __hash__ = _same_type_eq, _same_type_ne, tuple.__hash__

    @property
    def registers(self) -> dict[str, tuple[int, ...]]:
        return self.netlist.registers

    @property
    def input_wires(self) -> tuple[int, ...]:
        return self.registers["A"]


def synthesize_squarer(n: int) -> SquarerCircuit:
    """Build the full squaring netlist for an n-bit input (n > 4).

    Deterministic: the same n always yields an identical netlist.
    """
    grid = arrange(n)  # validates n > 4
    nl = Netlist()
    append, new_wire = nl.append, nl.new_wire
    # the ops are named tuples; tuple.__new__ builds each one without the
    # Python-level constructor, a tenth of the build, and append checks it
    new = tuple.__new__
    a = nl.alloc_register("A", n, "input")

    # phase 1: partial products and input copies
    pp_wire: dict[tuple[int, int], int] = {}
    copy_wire: dict[int, int] = {}
    for i in range(1, n):
        x = a[i - 1]
        for j in range(i, n):
            t = pp_wire[i - 1, j] = new_wire()
            append(new(LogicalAnd, (x, a[j], t)))
        w = copy_wire[i] = new_wire()
        append(new(Gate, ("prep0", (w,), None)))
        append(new(Gate, ("cx", (a[i], w), None)))

    p1 = nl.alloc_register("P1", 1, "zero")[0]

    # phases 2-3: bind each grid row's cells to wires (fresh zero wires for pads)
    for r, row in enumerate(grid.rows):
        wires = []
        for entry in row:
            cls = type(entry)
            if cls is PartialProduct:
                wires.append(pp_wire[entry.i, entry.j])
            elif cls is InputCopy:
                wires.append(copy_wire[entry.i])
            else:
                w = new_wire()
                append(new(Gate, ("prep0", (w,), None)))
                wires.append(w)
        nl.register_alias(f"T{r}", wires)

    # phases 4-6: the adder cascade, one stage per row after T_0
    running = list(nl.registers["T1"])
    carry = new_wire()
    append(AddInPlace(nl.registers["T0"], tuple(running), carry))
    nl.register_alias("carry", (carry,))
    running.append(carry)
    product = [a[0], p1] + running[:2]
    running = running[2:]
    nl.register_alias("V0", running)

    last = grid.row_count - 2
    for i in range(1, last + 1):
        append(AddInPlace(nl.registers[f"T{i + 1}"], tuple(running)))
        if i < last:
            product += running[:2]
            running = running[2:]
            nl.register_alias(f"V{i}", running)
    nl.register_alias("P", product + running)  # the final stage's whole sum

    # phase 7: restore the input copies in row T_0
    for i in range(1, n):
        append(new(Gate, ("cx", (a[i], copy_wire[i]), None)))

    # phase 8: release the partial-product ancillae in reverse build order.
    # Row T_1 is excluded: its wires were overwritten by the first adder's
    # sum and are now P bits.
    t1 = set(nl.registers["T1"])
    for (i, j), w in reversed(pp_wire.items()):
        if w not in t1:
            append(new(UncomputeAnd, (a[i], a[j], w)))

    return SquarerCircuit(n, nl, grid)
