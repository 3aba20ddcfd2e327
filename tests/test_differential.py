"""Differential check of every reader against the expansion it reads.

``Netlist.append`` is the one way an op enters a netlist, and no reader
checks an op again.  So each reader that takes a macro netlist must
agree with the same reader run on its expansion, for any netlist that
``append`` builds: seeded random netlists of ANDs, uncomputes, adders
of width 2-4 with and without a carry-out, ``cx`` and ``x``.
"""

import random

from qsquare.ir import (
    AddInPlace, LogicalAnd, Netlist, UncomputeAnd, count_gates, expand, from_json,
    schedule_asap, to_json, to_qasm)
from qsquare.costs import measure_circuit
from qsquare.sim import verify_equivalence

NETLISTS = 300
MAX_OPS = 12
# uncomputes, an adder's m-1 among them: the statevector run follows both
# outcomes of each mx, so a netlist with k of them runs 2**k branches
MAX_MX = 3
INPUTS = 3


def random_netlist(rng: random.Random) -> Netlist:
    """A netlist whose basis sweep is clean: every AND targets a fresh
    wire, and an AND is uncomputed only while none of its three wires
    has been written since."""
    nl = Netlist()
    nl.alloc_register("in", INPUTS, "input")
    live: list[LogicalAnd] = []  # ANDs that can still be uncomputed
    mx = 0

    def written(*wires):
        live[:] = [op for op in live if not set(op) & set(wires)]

    for _ in range(rng.randint(1, MAX_OPS)):
        choice = rng.choice(("and", "and", "unand", "add", "cx", "x"))
        if choice == "and":
            op = LogicalAnd(*rng.sample(range(nl.wire_count), 2), nl.new_wire())
            nl.append(op)
            live.append(op)
        elif choice == "unand" and live and mx < MAX_MX:
            op = live.pop(rng.randrange(len(live)))
            nl.append(UncomputeAnd(*op))
            written(op.target)
            mx += 1
        elif choice == "add" and mx + 1 < MAX_MX:
            m = rng.randint(2, min(4, MAX_MX - mx + 1))
            if nl.wire_count < 2 * m:
                nl.new_wires(2 * m - nl.wire_count)
            wires = rng.sample(range(nl.wire_count), 2 * m)
            carry = nl.new_wire() if rng.random() < 0.5 else None
            nl.append(AddInPlace(tuple(wires[:m]), tuple(wires[m:]), carry))
            written(*wires[m:], *([] if carry is None else [carry]))
            mx += m - 1
        elif choice == "cx":
            c, t = rng.sample(range(nl.wire_count), 2)
            nl.add_gate("cx", c, t)
            written(t)
        else:
            t = rng.randrange(nl.wire_count)
            nl.add_gate("x", t)
            written(t)
    return nl


def test_readers_of_macros_agree_with_readers_of_the_expansion():
    for seed in range(NETLISTS):
        nl = random_netlist(random.Random(seed))
        full = expand(nl)
        depths = schedule_asap(full)
        assert schedule_asap(nl) == depths, seed
        (t_count, cnot_count) = count_gates(full)
        assert measure_circuit(nl)[:5] == (t_count, depths[0], cnot_count, depths[1],
                                           full.wire_count), seed
        assert to_json(nl, lower=True) == to_json(full), seed
        assert to_qasm(nl) == to_qasm(full), seed
        for form in nl, full:
            assert from_json(to_json(form)) == form, seed
        inputs = nl.registers["in"]
        assert verify_equivalence(nl, full, inputs) == {
            "inputs_checked": 1 << INPUTS, "mismatches": []}, seed
