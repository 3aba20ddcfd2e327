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

from dataclasses import dataclass

from .blocks import (
    adder_and_count,
    build_adder_in_place,
    build_logical_and,
    build_uncompute_and,
)
from .ir import Netlist
from .layout import (
    InputCopy,
    OperandGrid,
    PartialProduct,
    UnsupportedWidthError,
    arrange,
)


@dataclass(frozen=True)
class StageInfo:
    """One adder stage of the cascade."""

    index: int
    width: int
    with_carry_out: bool
    and_count: int


@dataclass
class SquarerCircuit:
    """A synthesized squaring circuit plus its layout metadata."""

    n: int
    netlist: Netlist
    grid: OperandGrid
    cell_wires: dict[tuple[int, int], int]
    output_map: dict[int, int]
    stages: list[StageInfo]

    @property
    def registers(self) -> dict[str, tuple[int, ...]]:
        return self.netlist.registers

    @property
    def input_wires(self) -> tuple[int, ...]:
        return self.registers["A"]

    def and_macro_counts(self) -> tuple[int, int]:
        """(partial-product ANDs, adder-internal ANDs)."""
        step1 = self.n * (self.n - 1) // 2
        return step1, sum(s.and_count for s in self.stages)


def stage_widths(n: int) -> list[int]:
    """Adder operand widths, first stage first: 2n-3, 2n-4, 2n-6, ..."""
    if n <= 4:
        raise UnsupportedWidthError(n)
    stages = n // 2 if n % 2 == 0 else (n - 1) // 2
    return [2 * n - 3] + [2 * n - 4 - 2 * i for i in range(stages - 1)]


def synthesize_squarer(n: int) -> SquarerCircuit:
    """Build the full squaring netlist for an n-bit input (n > 4).

    Deterministic: the same n always yields an identical netlist.
    """
    grid = arrange(n)  # validates n > 4
    nl = Netlist()
    a = nl.alloc_register("A", n, "input")

    # phase 1: partial products and input copies
    pp_wire: dict[tuple[int, int], int] = {}
    copy_wire: dict[int, int] = {}
    for i in range(1, n):
        for j in range(i, n):
            pp_wire[(i - 1, j)] = build_logical_and(nl, a[i - 1], a[j])
        w = nl.new_wire()
        nl.add_gate("prep0", w)
        nl.add_gate("cx", a[i], w)
        copy_wire[i] = w

    p1 = nl.alloc_register("P1", 1, "zero")[0]

    # phases 2-3: bind grid cells to wires (fresh zero wires for pads)
    cell_wires: dict[tuple[int, int], int] = {}
    for r, c, entry in grid.cells():
        if isinstance(entry, PartialProduct):
            cell_wires[(r, c)] = pp_wire[(entry.i, entry.j)]
        elif isinstance(entry, InputCopy):
            cell_wires[(r, c)] = copy_wire[entry.i]
        else:
            w = nl.new_wire()
            nl.add_gate("prep0", w)
            cell_wires[(r, c)] = w
    for r, row in enumerate(grid.rows):
        nl.register_alias(f"T{r}", tuple(cell_wires[(r, c)] for c in range(len(row))))

    # phases 4-6: the adder cascade
    widths = stage_widths(n)
    stages: list[StageInfo] = []
    output_map = {0: a[0], 1: p1}
    running = list(nl.registers["T1"])
    carry = build_adder_in_place(nl, nl.registers["T0"], running, with_carry_out=True)
    nl.register_alias("carry", (carry,))
    stages.append(StageInfo(0, widths[0], True, adder_and_count(widths[0], True)))
    sums = running + [carry]
    output_map[2], output_map[3] = sums[0], sums[1]
    running = sums[2:]
    nl.register_alias("V0", tuple(running))

    last = len(widths) - 1
    for i in range(1, last + 1):
        t_row = nl.registers[f"T{i + 1}"]
        build_adder_in_place(nl, t_row, running, with_carry_out=False)
        stages.append(StageInfo(i, widths[i], False, adder_and_count(widths[i], False)))
        if i < last:
            output_map[2 * i + 2], output_map[2 * i + 3] = running[0], running[1]
            running = running[2:]
            nl.register_alias(f"V{i}", tuple(running))
        else:
            for k, w in enumerate(running):
                output_map[2 * i + 2 + k] = w
    nl.register_alias("P", tuple(output_map[pos] for pos in range(2 * n)))

    # phase 7: restore the input copies in row T_0
    for i in range(1, n):
        nl.add_gate("cx", a[i], copy_wire[i])

    # phase 8: release the partial-product ancillae in reverse build order.
    # Row T_1 is excluded: its wires were overwritten by the first adder's
    # sum and are now P bits.
    t1 = set(nl.registers["T1"])
    for (i, j), w in reversed(pp_wire.items()):
        if w not in t1:
            build_uncompute_and(nl, a[i], a[j], w)

    return SquarerCircuit(n, nl, grid, cell_wires, output_map, stages)
