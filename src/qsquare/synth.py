"""End-to-end synthesis of the garbage-free n-bit squaring circuit.

The circuit is emitted in eight phases over input register A and output
positions P_0..P_{2n-1}:

1. one logical-AND per partial product and one CNOT-copy per input bit
   a_1..a_{n-1} onto fresh ancillae;
2./3. rows T_0..T_R: ``layout.stack`` places those ancillae, and each
   cell no term takes gets a fresh zero wire, in row-major order;
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
it has a carry-out.  No operand grid is built: the rows are
``layout.stack`` filled with wires, and ``layout.arrange(n)`` is the
same rule filled with the terms' labels.

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

from .ir import AddInPlace, Gate, LogicalAnd, Netlist, UncomputeAnd
from .layout import _check_width, stack


def synthesize_squarer(n: int) -> Netlist:
    """Build the full squaring netlist for an n-bit input (n > 4).

    Its ``A``, ``P``, ``P1``, ``T0..TR``, ``V*`` and ``carry`` registers
    hold the wiring (see the module docstring).  Deterministic: the same
    n always yields an identical netlist.
    """
    _check_width(n)
    nl = Netlist()
    append, new_wire, new_wires = nl.append, nl.new_wire, nl.new_wires
    # the ops are named tuples; tuple.__new__ builds each one without the
    # Python-level constructor, a tenth of the build, and append checks it
    new = tuple.__new__
    a = nl.alloc_register("A", n, "input")

    # phase 1: pp_wires[i] holds a_i*a_j for j = i+1..n-1, copy_wires[i - 1]
    # the copy of a_i, as ``stack`` reads them.  Wire ranges are listed so
    # that each wire is one int object, shared by all the ops and cells
    # that name it
    pp_wires, copy_wires = [], []
    for i in range(1, n):
        x = a[i - 1]
        pp_wires.append(targets := [*new_wires(n - i)])
        for y, t in zip(a[i:], targets):
            append(new(LogicalAnd, (x, y, t)))
        copy_wires.append(w := new_wire())
        append(new(Gate, ("prep0", (w,), None)))
        append(new(Gate, ("cx", (a[i], w), None)))

    p1 = nl.alloc_register("P1", 1, "zero")[0]

    # phases 2-3: the rows, a fresh zero wire in each empty cell
    rows = stack(n, copy_wires, pp_wires, None)
    for r, row in enumerate(rows):
        pads = [*new_wires(row.count(None))]
        for w in pads:
            append(new(Gate, ("prep0", (w,), None)))
        pad = iter(pads).__next__
        rows[r] = tuple([pad() if w is None else w for w in row])
        nl.register_alias(f"T{r}", rows[r])

    # phases 4-6: the adder cascade, one stage per row after T_0; each
    # stage before the last leaves two low sum bits as P bits
    carry = new_wire()
    append(AddInPlace(rows[0], rows[1], carry))
    nl.register_alias("carry", (carry,))
    product, running = [a[0], p1], [*rows[1], carry]
    for k in range(2, len(rows)):
        product += running[:2]
        running = running[2:]
        nl.register_alias(f"V{k - 2}", running)
        append(AddInPlace(rows[k], tuple(running)))
    nl.register_alias("P", product + running)  # the final stage's whole sum

    # phase 7: restore the input copies in row T_0
    for x, w in zip(a[1:], copy_wires):
        append(new(Gate, ("cx", (x, w), None)))

    # phase 8: release the partial-product ancillae in reverse build order.
    # Row T_1 is excluded: its wires were overwritten by the first adder's
    # sum and are now P bits.
    t1 = set(rows[1])
    for i in reversed(range(n - 1)):
        for y, t in zip(reversed(a[i + 1:]), reversed(pp_wires[i])):
            if t not in t1:
                append(new(UncomputeAnd, (a[i], y, t)))

    return nl
