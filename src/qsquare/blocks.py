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

Every builder has a companion resource budget taken from the published
per-size accounting (T = 4(m-1), T-depth = 2(m-1), CNOT = 12m-9,
CNOT-depth = 8m-6 for an m-bit adder); measured figures from the actual
lowering are reported next to those budgets with signed deltas rather
than being forced to agree, since the published AND-per-adder counts (m
in one section, m-1 in another) are themselves inconsistent.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    ``cx(c, t)``, ``logical_and(x, y, t)`` and ``uncompute_and(x, y, t)``;
    ``ir.expand`` passes one that writes Clifford+T gate columns, and
    ``ir.schedule_asap`` one that layers the same gates.  The
    pre-allocated carry-out wire (when present) doubles as the top AND
    target.
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


# ---- resource budgets ----------------------------------------------------

@dataclass(frozen=True)
class BlockBudget:
    """Resource figures for one sub-circuit."""

    t_count: int
    t_depth: int
    cnot_count: int
    cnot_depth: int
    ancillae: int

    def delta(self, other: "BlockBudget") -> "BlockBudget":
        """self - other, field-wise (signed)."""
        return BlockBudget(
            self.t_count - other.t_count,
            self.t_depth - other.t_depth,
            self.cnot_count - other.cnot_count,
            self.cnot_depth - other.cnot_depth,
            self.ancillae - other.ancillae,
        )


LOGICAL_AND_BUDGET = BlockBudget(t_count=4, t_depth=2, cnot_count=6, cnot_depth=4, ancillae=1)


def adder_budget(m: int) -> BlockBudget:
    """Published per-size budget for an m-bit adder (the published AND
    accounting spans both m and m-1 ANDs per adder; the T figures here
    follow the 4(m-1) statement)."""
    return BlockBudget(
        t_count=4 * (m - 1),
        t_depth=2 * (m - 1),
        cnot_count=12 * m - 9,
        cnot_depth=8 * m - 6,
        ancillae=m,
    )


def measure_block(netlist: Netlist, io_wires: int) -> BlockBudget:
    """Expand a standalone block netlist and measure its budget.

    ``io_wires`` is the number of non-ancilla wires the block was built
    over; everything beyond them after expansion counts as ancillae.
    """
    t_count, t_depth, cnot_count, cnot_depth, wires = netlist.measure()
    return BlockBudget(t_count, t_depth, cnot_count, cnot_depth, wires - io_wires)


@dataclass(frozen=True)
class AdderReport:
    """Measured-vs-published budget for one adder size, with the true AND
    count and both published per-adder AND conventions."""

    width: int
    with_carry_out: bool
    published: BlockBudget
    measured: BlockBudget
    delta: BlockBudget
    and_count: int
    and_count_per_size: int   # published convention: m ANDs per m-bit adder
    and_count_per_t: int      # published convention implied by T = 4(m-1)


def adder_report(m: int, with_carry_out: bool) -> AdderReport:
    """Build a standalone m-bit adder, measure it, and compare budgets."""
    nl = Netlist()
    a = nl.alloc_register("a", m, "input")
    b = nl.alloc_register("b", m, "input")
    build_adder_in_place(nl, a, b, with_carry_out)
    measured = measure_block(nl, io_wires=2 * m)
    published = adder_budget(m)
    return AdderReport(
        width=m,
        with_carry_out=with_carry_out,
        published=published,
        measured=measured,
        delta=measured.delta(published),
        and_count=adder_and_count(m, with_carry_out),
        and_count_per_size=m,
        and_count_per_t=m - 1,
    )


def logical_and_report() -> tuple[BlockBudget, BlockBudget]:
    """(published, measured) budget of a single expanded logical-AND."""
    nl = Netlist()
    x, y = nl.alloc_register("xy", 2, "input")
    build_logical_and(nl, x, y)
    return LOGICAL_AND_BUDGET, measure_block(nl, io_wires=2)
