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

What the blocks cost once lowered is stated in ``costs.adder_counts``,
beside the paper's booking of them.
"""

from __future__ import annotations

from .ir import AddInPlace, LogicalAnd, Netlist, UncomputeAnd


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
    """Lower one AddInPlace to CNOTs and AND/uncompute-AND stages,
    written in order through the emitter ``em``.

    ``em`` provides ``new_wire()`` for the internal carry ancillae and
    ``cx(c, t)``, ``logical_and(x, y, t)`` and ``uncompute_and(x, y, t)``.
    ``ir._lower``, the one walk that lowers a netlist's ops, calls this
    for every adder with the emitter of its caller: gate columns for
    ``expand``, ASAP layers for ``schedule_asap``, text for ``to_json``
    and ``to_qasm``.  The pre-allocated carry-out wire (when present)
    doubles as the top AND target.
    """
    a, b = add.a_wires, add.b_wires
    m = len(a)
    k = adder_and_count(m, add.carry_out is not None)  # carries c_1..c_k
    cx, logical_and, uncompute_and = em.cx, em.logical_and, em.uncompute_and

    # forward: c_1 = a_0 b_0, then c_{i+1} = c_i ^ ((a_i^c_i)(b_i^c_i))
    w = [-1, em.new_wire()]  # carry index -> wire
    logical_and(a[0], b[0], w[1])
    for i in range(1, k):
        cx(w[i], a[i])
        cx(w[i], b[i])
        # i + 1 == m only when there is a carry-out (k == m)
        w.append(add.carry_out if i + 1 == m else em.new_wire())
        logical_and(a[i], b[i], w[i + 1])
        cx(w[i], w[i + 1])

    # top sum bit
    if add.carry_out is not None:
        cx(w[m - 1], a[m - 1])  # restore a
        cx(a[m - 1], b[m - 1])  # b = a ^ b ^ c
    else:
        cx(a[m - 1], b[m - 1])
        cx(w[m - 1], b[m - 1])

    # descending: release c_{i+1}, then finalize bit i (bit m-1 was
    # finalized above; the carry-out wire, when present, is never released)
    for i in range(m - 2, 0, -1):
        cx(w[i], w[i + 1])  # back to the bare AND value
        uncompute_and(a[i], b[i], w[i + 1])
        cx(w[i], a[i])
        cx(a[i], b[i])

    uncompute_and(a[0], b[0], w[1])
    cx(a[0], b[0])

