"""Builders for the three reusable sub-circuits: temporary logical-AND,
its measurement-based uncomputation, and the in-place ripple-carry adder.

The adder computes b += a keeping a intact.  Each carry is produced by
one logical-AND (c_{i+1} = c_i XOR ((a_i XOR c_i) AND (b_i XOR c_i)),
the AND target being a fresh ancilla) and every internal carry is later
reverted by one uncompute-AND, so the block is garbage-free.  With a
carry-out the top carry is itself produced by the final AND stage and
kept as the extra sum bit, giving m ANDs for an m-bit adder; without it
the top stage is dropped and m-1 ANDs remain.  The caller of the
carry-less variant guarantees the addition cannot overflow.

Lowered, an m-bit adder with k ANDs is a head AND (c_1 = a_0 b_0), a
run of k-1 identical carry cells (``cx w,x; cx w,y; AND x,y->t;
cx w,t`` over w = c_i, x = a_i, y = b_i, t = c_{i+1}), the two CNOTs of
the top sum bit, a run of m-2 identical release cells (``cx w,t;
unAND x,y,t; cx w,x; cx x,y``, bits m-2 down to 1) and the tail
(``unAND a_0,b_0,c_1; cx a_0,b_0``).  ``lower_add_in_place`` hands each
run, and the head AND and tail uncompute as runs of one, to the emitter
in one call, over the run's wire columns.

What the blocks cost once lowered is stated in ``costs.adder_counts``,
beside the paper's booking of them.
"""

from __future__ import annotations

from .ir import AND, CARRY, RELEASE, UNAND, AddInPlace, LogicalAnd, Netlist, UncomputeAnd


def build_logical_and(netlist: Netlist, x: int, y: int) -> int:
    """Append target := x AND y onto a fresh ancilla; returns the target wire."""
    target = netlist.new_wire()
    netlist.append(LogicalAnd(x, y, target))
    return target


def build_uncompute_and(netlist: Netlist, x: int, y: int, target: int) -> None:
    """Append the measurement-based release of an AND ancilla.

    The caller guarantees target currently holds x AND y; simulation
    enforces this and the wire ends in |0> on both measurement branches.
    """
    netlist.append(UncomputeAnd(x, y, target))


def build_adder_in_place(netlist: Netlist, a_wires, b_wires,
                         with_carry_out: bool = False) -> int | None:
    """Append b += a over equal-width little-endian wire lists.

    Returns the freshly allocated carry-out wire, or None for the
    modular variant.
    """
    a_wires, b_wires = tuple(a_wires), tuple(b_wires)
    carry = netlist.new_wire() if with_carry_out else None
    netlist.append(AddInPlace(a_wires, b_wires, carry))
    return carry


def adder_and_count(m: int, with_carry_out: bool) -> int:
    """Logical-ANDs in the chosen m-bit adder realization: one per carry,
    so m with a carry-out and m-1 without."""
    return m if with_carry_out else m - 1


def lower_add_in_place(em, add: AddInPlace) -> None:
    """Lower one AddInPlace through the ``ir`` emitter ``em``, in order:
    a head AND, a run of carry cells, the top CNOTs, a run of release
    cells and a tail uncompute, each run in one ``em.run`` call, and the
    three CNOTs outside the runs, the top sum bit's two and the tail's,
    through ``em.gate``.
    ``ir._lower`` calls this for every adder.  The pre-allocated
    carry-out wire (when present) doubles as the top AND target.
    """
    a, b = add.a_wires, add.b_wires
    m = len(a)
    k = adder_and_count(m, add.carry_out is not None)  # carries c_1..c_k
    gate = em.gate

    # carry index -> wire: c_1..c_{m-1} on fresh wires, c_m on the carry-out
    w = [-1, *em.new_wires(m - 1)]
    if add.carry_out is not None:
        w.append(add.carry_out)

    # forward: c_1 = a_0 b_0, then the carry cell of each bit i = 1..k-1,
    # c_{i+1} = c_i ^ ((a_i^c_i)(b_i^c_i)) over (c_i, a_i, b_i, c_{i+1})
    em.run(AND, a[:1], b[:1], w[1:2])
    em.run(CARRY, w[1:k], a[1:k], b[1:k], w[2:k + 1])

    # top sum bit
    if add.carry_out is not None:
        gate("cx", w[m - 1], a[m - 1], -1)  # restore a
        gate("cx", a[m - 1], b[m - 1], -1)  # b = a ^ b ^ c
    else:
        gate("cx", a[m - 1], b[m - 1], -1)
        gate("cx", w[m - 1], b[m - 1], -1)

    # descending: the release cell of each bit i = m-2..1 frees c_{i+1}
    # and finalizes bit i (bit m-1 was finalized above; the carry-out
    # wire, when present, is never released)
    em.run(RELEASE, w[m - 2:0:-1], a[m - 2:0:-1], b[m - 2:0:-1], w[m - 1:1:-1])

    em.run(UNAND, a[:1], b[:1], w[1:2])
    gate("cx", a[0], b[0], -1)
