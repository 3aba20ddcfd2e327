"""Basis and statevector engines, their agreement, and equivalence reports."""

import itertools
import json
import random

import numpy as np
import pytest

from qsquare import sim
from qsquare.blocks import build_adder_in_place, build_logical_and
from qsquare.ir import (
    PATTERNS, AddInPlace, Gate, LogicalAnd, Netlist, NetlistError, UncomputeAnd, expand,
    from_json_dict, to_json)
from qsquare.sim import (
    MAX_TERMS,
    NonClassicalGateError,
    SimulationError,
    TermBudgetError,
    UncomputeMisuseError,
    _evolve,
    basis_state,
    run_basis_sweep,
    run_statevector,
    verify_equivalence,
)
from qsquare.synth import synthesize_squarer

from macro_lowering import lower_adders
from planes import ints_of, lanes_of, pack_wires, packed, plane_of, planes_of

ONE = (1, 0, 0, 0)
T_STATE = {0: ONE, 1: (0, 1, 0, 0)}  # (|0> + ω|1>)/√2: k = 1, as its norms sum to 2


def _rebuilt(wires, gates):
    """A netlist over ``wires`` wires that holds ``gates``, each taken
    through ``append``."""
    nl = Netlist()
    nl.new_wires(wires)
    for g in gates:
        nl.append(g)
    return nl


# ---- basis engine ------------------------------------------------------------

def test_basis_squarer_small_examples():
    nl = synthesize_squarer(5)
    res = run_basis_sweep(nl, {w: (3 >> i) & 1 for i, w in enumerate(nl.registers["A"])}, 1)
    assert pack_wires(res.wires, nl.registers["P"]) == 9
    assert pack_wires(res.wires, nl.registers["A"]) == 3


def test_basis_squarer_n6_largest_input():
    nl = synthesize_squarer(6)
    res = run_basis_sweep(nl, {w: 1 for w in nl.registers["A"]}, 1)
    assert pack_wires(res.wires, nl.registers["P"]) == 3969


def test_basis_squarer_zero_leaves_everything_clean():
    nl = synthesize_squarer(6)
    res = run_basis_sweep(nl, {w: 0 for w in nl.registers["A"]}, 1)
    assert all(v == 0 for v in res.wires.values())


def test_basis_rejects_expanded_gates():
    nl = Netlist()
    nl.alloc_register("a", 1, "input")
    nl.add_gate("h", 0)
    with pytest.raises(NonClassicalGateError):
        run_basis_sweep(nl, {0: 0}, 1)


class _SubAnd(LogicalAnd):
    pass


@pytest.mark.parametrize("op", [("cx", (0, 1), None), "x", _SubAnd(0, 1, 2)],
                         ids=["plain-tuple", "string", "subclass"])
def test_basis_refuses_an_op_of_no_known_type(op):
    # append refuses each of these, and no other call can put one into a
    # netlist, so the sweep, which dispatches on the four types alone,
    # never takes one as the type it resembles
    nl = Netlist()
    nl.alloc_register("a", 3, "input")
    nl.add_gate("x", 2)
    with pytest.raises(NetlistError, match="^not a gate or macro op: "):
        nl.append(op)
    assert run_basis_sweep(nl, {0: 1}, 1).wires == {0: 1, 1: 0, 2: 1}


def test_basis_prep0_on_dirty_wire_rejected():
    nl = Netlist()
    nl.alloc_register("a", 1, "input")
    nl.add_gate("prep0", 0)
    with pytest.raises(SimulationError):
        run_basis_sweep(nl, {0: 1}, 1)


def test_basis_records_would_be_carries():
    nl = Netlist()
    a = nl.alloc_register("a", 2, "input")
    b = nl.alloc_register("b", 2, "input")
    build_adder_in_place(nl, a, b, with_carry_out=False)
    res = run_basis_sweep(nl, {a[0]: 1, a[1]: 1, b[0]: 1, b[1]: 1}, 1)  # 3 + 3 overflows
    assert list(res.would_be_carries.values()) == [1]
    res = run_basis_sweep(nl, {a[0]: 1, b[0]: 1}, 1)
    assert list(res.would_be_carries.values()) == [0]


def _ints_of(res, wires, lanes):
    return ints_of([res.wires[w] for w in wires], lanes)


def test_sweep_exact_at_wide_widths():
    # the adders span up to 2n-3 bits, beyond any fixed-width machine integer
    rng = random.Random(2406)
    # 17 and 128 draw from their own generator, so 40, 64 and the adder
    # below keep their inputs
    beyond = random.Random(17)
    for n in (5, 17, 40, 64, 128):
        nl = synthesize_squarer(n)
        if n == 5:
            a = list(range(1 << n))  # exhaustive; draws nothing from rng
        else:
            draw = beyond if n in (17, 128) else rng
            a = [draw.getrandbits(n) for _ in range(63)] + [(1 << n) - 1]
        lanes = len(a)
        res = run_basis_sweep(
            nl, dict(zip(nl.registers["A"], planes_of(a, n))), lanes)
        p_wires = nl.registers["P"]
        assert _ints_of(res, p_wires, lanes) == [v * v for v in a], n
        assert _ints_of(res, nl.registers["A"], lanes) == a, n
        keep = set(nl.registers["A"]) | set(p_wires)
        assert not any(res.wires[w]
                       for w in range(nl.wire_count) if w not in keep), n
        assert not any(res.would_be_carries.values()), n

    m = 40
    nl = Netlist()
    wa = nl.alloc_register("a", m, "input")
    wb = nl.alloc_register("b", m, "input")
    nl.append(AddInPlace(wa, wb))
    av = [(1 << m) - 1, 1 << (m - 1), rng.getrandbits(m), 5]
    bv = [1, 1 << (m - 1), rng.getrandbits(m) | (1 << (m - 1)), 7]
    inputs = dict(zip(wa, planes_of(av, m)))
    inputs.update(zip(wb, planes_of(bv, m)))
    res = run_basis_sweep(nl, inputs, len(av))
    sums = [x + y for x, y in zip(av, bv)]
    assert _ints_of(res, wb, len(av)) == [s % (1 << m) for s in sums]
    assert _ints_of(res, wa, len(av)) == av
    (carry,) = res.would_be_carries.values()
    assert ints_of([carry], len(av)) == [s >> m for s in sums] == [1, 1, 1, 0]


def _ripple_case(m, carry_out):
    """An m-bit ``AddInPlace`` over 48 seeded lanes, some of whose a wires
    are never assigned (zero planes), and one of those positions 0 in b
    too, so no lane carries out of it; returns the netlist, the input
    planes and the a and b values."""
    rng = random.Random(31 * m + carry_out)
    lanes = 48
    nl = Netlist()
    wa = nl.alloc_register("a", m, "input")
    wb = nl.alloc_register("b", m, "input")
    nl.append(AddInPlace(wa, wb, nl.new_wire() if carry_out else None))
    unset = set(rng.sample(range(m), m // 3 + 1))
    cut = rng.choice(sorted(unset))
    av = [rng.getrandbits(m) & ~sum(1 << i for i in unset) for _ in range(lanes)]
    bv = [rng.getrandbits(m) & ~(1 << cut) for _ in range(lanes)]
    inputs = {w: p for i, (w, p) in enumerate(zip(wa, planes_of(av, m))) if i not in unset}
    inputs.update(zip(wb, planes_of(bv, m)))
    return nl, inputs, av, bv


@pytest.mark.parametrize("carry_out", [False, True], ids=["modular", "carry-out"])
@pytest.mark.parametrize("m", range(2, 13))
def test_ripple_with_zero_planes_adds_exactly(m, carry_out):
    # the ripple skips the terms of a zero a or carry plane; each lane must
    # still hold its integer sum, and its carry-out or dropped carry
    nl, inputs, av, bv = _ripple_case(m, carry_out)
    (op,) = nl.gates
    lanes = len(av)
    assert len(inputs) < 2 * m  # some a wires start at 0 unassigned
    res = run_basis_sweep(nl, inputs, lanes)
    sums = [x + y for x, y in zip(av, bv)]
    assert _ints_of(res, op.b_wires, lanes) == [s % (1 << m) for s in sums]
    assert _ints_of(res, op.a_wires, lanes) == av
    if carry_out:
        assert res.would_be_carries == {}
        carry = res.wires[op.carry_out]
    else:
        (carry,) = res.would_be_carries.values()
    assert ints_of([carry], lanes) == [s >> m for s in sums]


def test_ripple_cases_cover_every_cell():
    # past bit 0, the cases reach all four cells: a and carry planes both
    # zero, either one zero, and neither
    seen = set()
    for m, carry_out in itertools.product(range(2, 13), (False, True)):
        _, _, av, bv = _ripple_case(m, carry_out)
        for i in range(1, m):
            low = (1 << i) - 1
            carry_in = any(((x & low) + (y & low)) >> i for x, y in zip(av, bv))
            seen.add((any((x >> i) & 1 for x in av), carry_in))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


@pytest.mark.parametrize("seed", range(6))
def test_uncompute_misuse_names_its_gate_and_first_lane(seed):
    # a cx onto x after the AND leaves t != x AND y in the lanes where z
    # and y are 1; the error names the gate and the lowest such lane,
    # found here lane by lane
    rng = random.Random(seed)
    lanes = 200
    nl = Netlist()
    x, y, z = nl.alloc_register("xyz", 3, "input")
    t = build_logical_and(nl, x, y)
    nl.add_gate("cx", z, x)
    idx = len(nl.gates)
    nl.append(UncomputeAnd(x, y, t))
    bit = 1 << rng.randrange(lanes)  # one lane that fails
    xs, ys = rng.getrandbits(lanes), rng.getrandbits(lanes) | bit
    zs = rng.getrandbits(lanes) & rng.getrandbits(lanes) | bit
    lane = next(k for k in range(lanes) if (zs >> k) & (ys >> k) & 1)
    with pytest.raises(UncomputeMisuseError,
                       match=f"^uncompute-misuse at gate {idx}, first lane {lane}$"):
        run_basis_sweep(nl, {x: xs, y: ys, z: zs}, lanes)
    # with z = 0 the release is clean and leaves t at 0
    assert run_basis_sweep(nl, {x: xs, y: ys}, lanes).wires[t] == 0


def test_sweep_reports_first_bad_lane_and_rejects_wide_planes():
    nl = Netlist()
    x, y = nl.alloc_register("xy", 2, "input")
    t = build_logical_and(nl, x, y)
    nl.add_gate("cx", x, t)  # corrupts the ancilla in the lanes where x = 1
    nl.append(UncomputeAnd(x, y, t))
    with pytest.raises(UncomputeMisuseError, match="first lane 1$"):
        run_basis_sweep(nl, {x: 0b1010, y: 0b1100}, 4)
    with pytest.raises(UncomputeMisuseError, match="first lane 3$"):
        run_basis_sweep(nl, {x: 0b1000, y: 0b1100}, 4)
    run_basis_sweep(nl, {y: 0b1111}, 4)
    with pytest.raises(ValueError):
        run_basis_sweep(nl, {x: 0b10000}, 4)
    with pytest.raises(ValueError):
        run_basis_sweep(nl, {x: -1}, 4)
    # True would pass as plane 1 and come back as wires={0: True}
    for plane in (True, 1.0, "1"):
        with pytest.raises(ValueError, match=f"^plane {plane!r} of wire 0 is not an int"):
            run_basis_sweep(nl, {x: plane}, 4)
    # True came back as SweepResult.lanes == True and 0 was taken; -1 and
    # 2.0 raised raw shift errors
    for lanes in (True, False, 0, -1, 2.0, "4", None):
        with pytest.raises(ValueError, match=f"^lanes {lanes!r} is not a positive int$"):
            run_basis_sweep(nl, {y: 1}, lanes)


@pytest.mark.parametrize("wire", [-1, 2, 5, "0", 1.0, True])
def test_sweep_refuses_an_input_wire_outside_the_netlist(wire):
    # -1 would load the plane into wire 1, and 5 would fail on a raw index
    nl = Netlist()
    x, y = nl.alloc_register("xy", 2, "input")
    nl.add_gate("cx", x, y)
    with pytest.raises(ValueError, match=f"^input wire {wire!r} is not one of the netlist's 2 wires$"):
        run_basis_sweep(nl, {wire: 1}, 1)
    assert run_basis_sweep(nl, {x: 1}, 1).wires == {x: 1, y: 1}


def test_squarer_is_injective_on_valid_inputs():
    nl = synthesize_squarer(5)
    seen = set()
    p_wires = nl.registers["P"]
    for a in range(32):
        res = run_basis_sweep(
            nl, {w: (a >> i) & 1 for i, w in enumerate(nl.registers["A"])}, 1)
        seen.add((pack_wires(res.wires, nl.registers["A"]),
                  pack_wires(res.wires, p_wires)))
    assert len(seen) == 32


# ---- statevector engine ---------------------------------------------------------

def test_statevector_basic_gates():
    nl = Netlist()
    nl.alloc_register("a", 1, "input")
    nl.add_gate("h", 0)
    nl.add_gate("h", 0)
    (br,) = run_statevector(nl)
    assert br.state == basis_state({0: 0}) == {0: ONE}


def test_statevector_initial_t_state_matches_prep():
    nl = Netlist()
    nl.alloc_register("m", 1, "input")
    (br,) = run_statevector(nl, initial={0: "T"})
    assert br.state == T_STATE
    (br,) = run_statevector(nl, initial={0: 1})
    assert br.state == basis_state({0: 1})
    # True and 1.0 equal 1, False and 0.0 equal 0: each set the wire as
    # that int would
    for spec in ("magicT", "1", "0", "zero", 2, True, 1.0, False, 0.0):
        with pytest.raises(ValueError, match=f"^unknown initial spec {spec!r} for wire 0 "):
            run_statevector(nl, initial={0: spec})
    with pytest.raises(ValueError, match="for wire 1 of 1"):
        run_statevector(nl, initial={1: 1})  # no such wire
    # True would set wire 1 of a wider netlist, and 0.0 fail on a raw shift
    for wire in (True, False, 0.0, "0"):
        with pytest.raises(ValueError, match=f"^initial wire {wire!r} is not an int$"):
            run_statevector(nl, initial={wire: 1})


def test_statevector_logical_and_from_drawn_gate_list():
    # the block as drawn, fed an externally prepared T-state ancilla
    nl = Netlist()
    x, y = nl.alloc_register("xy", 2, "input")
    (t,) = nl.alloc_register("anc", 1, "input")
    for g in (("cx", x, t), ("cx", y, t), ("cx", t, x), ("cx", t, y)):
        nl.add_gate(*g)
    nl.add_gate("tdg", x)
    nl.add_gate("tdg", y)
    nl.add_gate("t", t)
    nl.add_gate("cx", t, x)
    nl.add_gate("cx", t, y)
    nl.add_gate("h", t)
    nl.add_gate("s", t)
    for bx, by in itertools.product((0, 1), repeat=2):
        (br,) = run_statevector(nl, initial={x: bx, y: by, t: "T"})
        assert br.state == basis_state({x: bx, y: by, t: bx & by})


def test_statevector_term_budget():
    nl = Netlist()
    nl.alloc_register("a", 13, "input")
    (br,) = run_statevector(nl)  # width alone costs nothing
    assert br.state == basis_state({})
    for w in range(13):
        nl.add_gate("h", w)  # 2^13 terms, past the 2^12 budget
    with pytest.raises(TermBudgetError):
        run_statevector(nl)
    # certified as an expansion of the empty netlist, it fails each input
    macro = Netlist()
    macro.alloc_register("a", 13, "input")
    rep = verify_equivalence(macro, nl, (0,))
    assert [m["got"].partition(":")[0] for m in rep["mismatches"]] == ["TermBudgetError"] * 2


def test_statevector_forced_branches():
    nl = Netlist()
    x, y = nl.alloc_register("xy", 2, "input")
    t = build_logical_and(nl, x, y)
    nl.append(UncomputeAnd(x, y, t))
    full = expand(nl)
    for policy in ("forced-0", "forced-1"):
        (br,) = run_statevector(full, initial={x: 1, y: 1}, branch=policy)
        assert br.state == basis_state({x: 1, y: 1, t: 0})
        assert br.cbits == {0: int(policy[-1])}


def test_statevector_agrees_with_basis_for_adder_blocks():
    for m, carry in ((2, True), (2, False)):
        nl = Netlist()
        a = nl.alloc_register("a", m, "input")
        b = nl.alloc_register("b", m, "input")
        build_adder_in_place(nl, a, b, carry)
        macro = lower_adders(nl)
        full = expand(nl)
        for av, bv in itertools.product(range(1 << m), repeat=2):
            bits = {w: (av >> i) & 1 for i, w in enumerate(a)}
            bits.update({w: (bv >> i) & 1 for i, w in enumerate(b)})
            if not carry and av + bv >= (1 << m):
                continue  # modular variant is only contracted overflow-free
            basis = run_basis_sweep(macro, bits, 1)
            want = basis_state(basis.wires)
            for br in run_statevector(full, initial=bits):
                assert br.state == want


def test_statevector_2bit_adder_encodes_two():
    nl = Netlist()
    a = nl.alloc_register("a", 2, "input")
    b = nl.alloc_register("b", 2, "input")
    cw = build_adder_in_place(nl, a, b, True)
    full = expand(nl)
    for br in run_statevector(full, initial={a[0]: 1, b[0]: 1}):
        bits = br.wire_bits(full.wire_count)
        assert bits[b[0]] + 2 * bits[b[1]] + 4 * bits[cw] == 2


def test_statevector_amplitudes_are_canonical():
    # every state keeps the least k, so equal states are equal dicts: h h
    # and h t tdg h come back to amplitude exactly 1, and a phase is kept
    nl = Netlist()
    nl.alloc_register("a", 2, "input")
    for kind, w in (("h", 0), ("h", 1), ("t", 0), ("tdg", 0), ("h", 0), ("h", 1)):
        nl.add_gate(kind, w)
    (br,) = run_statevector(nl)
    assert br.state == {0: ONE}
    nl.add_gate("x", 1)
    for kind in ("h", "s", "s", "h"):  # h z h = x
        nl.add_gate(kind, 0)
    (br,) = run_statevector(nl)
    assert br.state == {0b11: ONE}
    nl.add_gate("z", 0)
    nl.add_gate("t", 1)
    (br,) = run_statevector(nl)
    assert br.state == {0b11: (0, -1, 0, 0)}  # -ω


def test_statevector_refuses_non_dyadic_measurement():
    # h, t, mx measures |+> with probability (2+√2)/4: no power of 1/2
    nl = Netlist()
    nl.alloc_register("a", 1, "input")
    nl.add_gate("h", 0)
    nl.add_gate("t", 0)
    nl.add_gate("mx", 0, cbit=0)
    for policy in ("explore", "forced-0", "forced-1"):
        with pytest.raises(SimulationError, match=r"non-dyadic probability \(2[+-]1√2\)/4"):
            run_statevector(nl, branch=policy)


def test_statevector_measurement_probabilities_are_exact():
    nl = Netlist()
    nl.alloc_register("a", 1, "input")
    nl.add_gate("mx", 0, cbit=0)  # |0> is |+> + |->: one half each
    assert [(br.state, br.cbits, br.probability) for br in run_statevector(nl)] == [
        ({0: ONE}, {0: 0}, 0.5), ({0: ONE}, {0: 1}, 0.5)]
    nl = Netlist()
    nl.alloc_register("a", 1, "input")
    nl.add_gate("h", 0)
    nl.add_gate("mx", 0, cbit=0)  # |+> measures 0 with probability 1
    assert run_statevector(nl, branch="explore") == run_statevector(nl, branch="forced-0")
    with pytest.raises(SimulationError, match="zero amplitude"):
        run_statevector(nl, branch="forced-1")


# ---- equivalence reports -----------------------------------------------------

def test_verify_equivalence_and_block():
    nl = Netlist()
    x, y = nl.alloc_register("xy", 2, "input")
    build_logical_and(nl, x, y)
    rep = verify_equivalence(nl, expand(nl), (x, y))
    assert rep == {"inputs_checked": 4, "mismatches": []}
    json.dumps(rep)


def test_verify_equivalence_refuses_a_repeated_input_wire():
    # (x, x) would give x two planes, the second overwriting the first,
    # and count 4 inputs where only 2 exist
    nl = Netlist()
    x, y = nl.alloc_register("xy", 2, "input")
    build_logical_and(nl, x, y)
    for wires in ((x, x), (x, y, x), (y, x, y)):
        with pytest.raises(ValueError, match=f"^input wire {wires[0]} is named more than once$"):
            verify_equivalence(nl, expand(nl), wires)


def test_check_squarer_refuses_a_netlist_it_cannot_read():
    # without the first uncompute, the 5-bit squarer leaves that AND's
    # target dirty in 8 lanes; appended to P, the target would be zipped
    # against no square plane and the mutant would read clean
    netlist = synthesize_squarer(5)
    k, op = next((k, op) for k, op in enumerate(netlist.gates) if type(op) is UncomputeAnd)
    mutant = netlist.without(k)
    assert sim.check_squarer(mutant)["failing"] == 8
    doc = json.loads(to_json(mutant))
    p_wires = doc["registers"]["P"]
    for wires, count in ((p_wires + [op.target], 11), (p_wires[:-1], 9)):
        wider = {**doc, "registers": {**doc["registers"], "P": wires}}
        with pytest.raises(ValueError, match=rf"^register P has {count} wires, not twice "
                                             rf"the 5 of register A$"):
            sim.check_squarer(from_json_dict(wider))
    for name in ("A", "P"):
        rest = {r: ws for r, ws in doc["registers"].items() if r != name}
        with pytest.raises(ValueError, match="^a squarer netlist needs registers A and P"):
            sim.check_squarer(from_json_dict({**doc, "registers": rest}))


def _failing_by_numpy(netlist) -> int:
    """How many inputs ``netlist`` fails, read back lane by lane from
    one sweep of numpy-built planes: P = a*a, A = a, every other wire 0
    and no would-be carry set."""
    a_wires, p_wires = netlist.registers["A"], netlist.registers["P"]
    lanes = 1 << len(a_wires)
    a = np.arange(lanes, dtype=np.int64)
    res = run_basis_sweep(netlist, {w: plane_of((a >> i) & 1 == 1)
                                    for i, w in enumerate(a_wires)}, lanes)
    bad = (packed(res, p_wires, lanes) != a * a) | (packed(res, a_wires, lanes) != a)
    for w in set(range(netlist.wire_count)) - {*a_wires, *p_wires}:
        bad |= lanes_of(res.wires[w], lanes)
    for carry in res.would_be_carries.values():
        bad |= lanes_of(carry, lanes)
    return int(bad.sum())


@pytest.mark.parametrize("n", range(5, 9))
def test_check_squarer_counts_every_drop_gate_mutant(n):
    # the oracle's count, taken on planes that differ from the reference,
    # equals a lane-by-lane count at every mutant whose sweep runs
    netlist = synthesize_squarer(n)
    counted = cut = 0
    for k in range(len(netlist.gates)):
        mutant = netlist.without(k)
        rep = sim.check_squarer(mutant)
        try:
            want = _failing_by_numpy(mutant)
        except SimulationError:
            assert "stopped" in rep and "failing" not in rep, k
            continue
        assert rep["failing"] == want, k
        assert len(rep["mismatches"]) == min(want, 16), k
        counted += 1
        cut += want > 16
    assert counted and cut  # some mutants run, and some fail past the listed 16


def _adder_m3():
    nl = Netlist()
    a = nl.alloc_register("a", 3, "input")
    b = nl.alloc_register("b", 3, "input")
    cw = build_adder_in_place(nl, a, b, True)
    return nl, a, b, cw


def test_verify_equivalence_adder_m3():
    nl, a, b, _ = _adder_m3()
    rep = verify_equivalence(nl, expand(nl), a + b)
    assert rep == {"inputs_checked": 64, "mismatches": []}
    # the adder lowered to CNOTs and AND macros expands to the same gates
    assert not verify_equivalence(nl, expand(lower_adders(nl)), a + b)["mismatches"]


def test_verify_equivalence_flags_corruption():
    nl, a, b, cw = _adder_m3()
    macro = lower_adders(nl)
    victim = next(i for i, g in enumerate(macro.gates)
                  if isinstance(g, Gate) and g.kind == "cx")
    rep = verify_equivalence(nl, expand(macro.without(victim)), a + b)
    assert rep["inputs_checked"] == 64
    # the dropped CNOT feeds carry c_1 = a_0 b_0 forward: exactly the 16
    # inputs with a_0 = b_0 = 1 go wrong, and each reports what it got,
    # every wire keyed by its string as in the JSON report
    assert len(rep["mismatches"]) == 16
    for m in rep["mismatches"]:
        bits = {int(w): bit for w, bit in m["input"].items()}
        assert bits[a[0]] == bits[b[0]] == 1
        s = sum(bits[w] << i for i, w in enumerate(a)) + sum(
            bits[w] << i for i, w in enumerate(b))
        # the reference sweep holds the sum, and every added wire at 0
        want = dict.fromkeys(range(expand(nl).wire_count), 0)
        want.update({w: bits[w] for w in a})
        want.update({w: (s >> i) & 1 for i, w in enumerate((*b, cw))})
        assert m["expected"] == {str(w): bit for w, bit in want.items()} != m["got"]


def test_every_dropped_cnot_of_the_adder_is_caught():
    nl, a, b, _ = _adder_m3()
    full = expand(nl)
    drops = [k for k, g in enumerate(full.gates) if g.kind == "cx"]
    assert len(drops) == 30
    for k in drops:
        assert verify_equivalence(nl, full.without(k), a + b)["mismatches"], k


_R = 0.5 ** 0.5


def _per_input_report(netlist, expanded, input_wires):
    """What ``verify_equivalence`` must report, one ``run_statevector``
    per input against a one-lane basis run of the macros."""
    mismatches = []
    for lane in range(1 << len(input_wires)):
        assignment = {w: (lane >> i) & 1 for i, w in enumerate(input_wires)}
        (mask,) = basis_state(run_basis_sweep(netlist, assignment, 1).wires)
        try:
            bad = [br for br in run_statevector(expanded, initial=assignment)
                   if br.state != {mask: ONE}]
            if not bad:
                continue
            bits = bad[0].wire_bits(expanded.wire_count)
            ((a, b, c, d),) = bad[0].state.values()  # a unit a + bω + cω² + dω³
            got = {**{str(w): bit for w, bit in bits.items()},
                   "amplitude": f"{complex(a + (b - d) * _R, c + (b + d) * _R):.6g}"}
        except SimulationError as exc:
            got = f"{type(exc).__name__}: {exc}"
        mismatches.append({
            "input": {str(w): bit for w, bit in assignment.items()},
            "expected": {str(w): (mask >> w) & 1 for w in range(expanded.wire_count)},
            "got": got})
    return {"inputs_checked": 1 << len(input_wires), "mismatches": mismatches}


def _counting_runs(monkeypatch) -> list:
    """Count the per-input ``run_statevector`` calls of ``verify_equivalence``."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return run_statevector(*args, **kwargs)
    monkeypatch.setattr(sim, "run_statevector", counted)
    return calls


def test_tagged_run_reports_as_the_per_input_runs(monkeypatch):
    # every single-gate drop of every battery block: the tagged run may
    # only accept what each input's own run accepts, and where it cannot
    # decide, the per-input runs write the same report as ever
    calls = _counting_runs(monkeypatch)
    mutants, refused, fell_back = 0, [], []
    for name, build, *args in sim._BLOCKS:
        nl = Netlist()
        inputs = build(nl, *args)
        calls.clear()
        full = expand(nl)
        assert verify_equivalence(nl, full, inputs)["mismatches"] == []
        assert calls == [], name  # the intact block needs no per-input run
        for k, gate in enumerate(full.gates):
            mutants += 1
            try:
                mutant = full.without(k)
            except NetlistError:  # caught: no netlist can hold this mutant
                refused.append((name, k, gate.kind))
                continue
            calls.clear()
            rep = verify_equivalence(nl, mutant, inputs)
            assert rep == _per_input_report(nl, mutant, inputs), (name, k)
            if calls and not rep["mismatches"]:
                fell_back.append((name, k, gate))
    assert mutants == 184
    # the mx of each uncompute, whose ccz_classical would read a cbit
    # that no mx wrote
    assert refused == [("and-uncompute", 14, "mx"), ("adder-m2-carry", 33, "mx"),
                       ("adder-m2-modular", 16, "mx"), ("adder-m3-carry", 51, "mx"),
                       ("adder-m3-carry", 55, "mx"), ("adder-m3-modular", 34, "mx"),
                       ("adder-m3-modular", 38, "mx")]
    # without cx x,t or cx y,t, each input still ends exactly in its
    # basis state, but not all at one constant: only the per-input runs
    # can certify these two
    assert [(name, k, g.kind) for name, k, g in fell_back] == [
        ("and-uncompute", 3, "cx"), ("and-uncompute", 4, "cx")]


@pytest.mark.parametrize("m", [5, 6])
def test_tagged_run_past_the_term_budget_falls_back(monkeypatch, m):
    # 7 fresh wires through h twice: 128 terms per input, and the tagged
    # run of 2**m inputs needs 2**m * 128, over the budget from m = 6 on
    macro = Netlist()
    inputs = macro.alloc_register("in", m, "input")
    fresh = macro.alloc_register("fresh", 7)
    full = expand(macro)
    for w in fresh * 2:
        full.add_gate("h", w)
    assert (128 << m > MAX_TERMS) == (m == 6)
    calls = _counting_runs(monkeypatch)
    assert verify_equivalence(macro, full, inputs) == {"inputs_checked": 1 << m,
                                                       "mismatches": []}
    assert len(calls) == (64 if m == 6 else 0)


@pytest.mark.parametrize("op, message", [
    (Gate("x", (1,)), r"wire 1 not allocated \(have 1\)"),
    (Gate("x", (-1,)), r"wire -1 not allocated \(have 1\)"),
    (("x", (0,), None), r"not a gate or macro op: \('x', \(0,\), None\)"),
    (LogicalAnd(0, 1, 2), None),
], ids=["wire-past-the-netlist", "negative-wire", "plain-tuple", "macro"])
def test_statevector_refuses_what_it_cannot_run(op, message):
    # append refuses a wire outside the netlist and an op of no known
    # type, so no expansion holds one; a macro enters only a netlist that
    # is not expanded, where neither the tagged run nor an input's own
    # run may certify or crash on it, and each input's report holds the
    # error
    macro = Netlist()
    (x,) = macro.alloc_register("x", 1, "input")
    full = expand(macro)
    if message is not None:
        with pytest.raises(NetlistError, match=f"^{message}$"):
            full.append(op)
        assert verify_equivalence(macro, full, (x,))["mismatches"] == []
        return
    macro.new_wires(2)
    macro.append(op)
    message = "statevector mode needs a fully expanded netlist"
    with pytest.raises(SimulationError, match=f"^{message}$"):
        run_statevector(macro)
    rep = verify_equivalence(macro, macro, (x,))
    assert rep == _per_input_report(macro, macro, (x,))
    assert [m["got"] for m in rep["mismatches"]] == [f"SimulationError: {message}"] * 2


# ---- phase of the whole expansion ---------------------------------------------

@pytest.mark.parametrize("n", range(5, 10))
def test_expanded_squarer_exact_with_phase(n):
    # every AND release must fix its phase: one wrong CZ leaves amplitude -1.
    # All 2**n inputs run at once, input a tagged with a in the bits above
    # the circuit's wires, which no gate touches: the one branch of each
    # forced policy must hold every input's square at one amplitude, so
    # each input's own run would end in it with amplitude exactly 1
    nl = synthesize_squarer(n)
    full = expand(nl)
    p_wires = nl.registers["P"]

    def tagged(a, wire_bits):
        (mask,) = basis_state(wire_bits)
        return a << full.wire_count | mask
    start, want = {}, {}
    for a in range(1 << n):
        inputs = {w: (a >> i) & 1 for i, w in enumerate(nl.registers["A"])}
        start[tagged(a, inputs)] = ONE
        want[tagged(a, {**inputs, **{w: (a * a >> i) & 1 for i, w in enumerate(p_wires)}})] = ONE
    for policy in ("forced-0", "forced-1"):
        (br,) = _evolve([*full.gates], start, policy)
        assert br.state == want, (n, policy)


def test_verify_equivalence_sees_phase():
    nl = Netlist()
    x, y = nl.alloc_register("xy", 2, "input")
    t = build_logical_and(nl, x, y)
    nl.append(UncomputeAnd(x, y, t))
    full = expand(nl)

    assert not verify_equivalence(nl, full, (x, y))["mismatches"]
    no_fix = _rebuilt(full.wire_count, (g for g in full.gates if g.kind != "ccz_classical"))
    rep = verify_equivalence(nl, no_fix, (x, y))
    sx, sy, st = map(str, (x, y, t))  # the report keys wires as its JSON does
    assert [m["input"] for m in rep["mismatches"]] == [{sx: 1, sy: 1}]
    assert rep["mismatches"][0]["got"] == {sx: 1, sy: 1, st: 0, "amplitude": "-1+0j"}
    stray_z = expand(nl)
    stray_z.add_gate("z", x)
    rep = verify_equivalence(nl, stray_z, (x, y))
    assert [m["input"] for m in rep["mismatches"]] == [{sx: 1, sy: 0}, {sx: 1, sy: 1}]


# ---- exact certificates of the four lowered patterns ----------------------------

def _pattern_netlist(pattern):
    """The netlist of the pattern's rows over its wires 0, 1, ..., each
    taken through ``append``, its cbit role on cbit 0."""
    def gate(kind, w0, w1, cbit):
        assert cbit in (-1, pattern.wires), (pattern.name, cbit)
        return Gate(kind, (w0,) if w1 < 0 else (w0, w1), None if cbit < 0 else 0)
    return _rebuilt(pattern.wires, (gate(*row) for row in pattern.gates))


# per pattern: each basis input that meets its precondition (a fresh AND
# target, an uncompute target equal to x AND y) mapped to the basis
# state it must leave, as wire-value tuples
_TRUTH_TABLES = {
    "logical_and": {(x, y, 0): (x, y, x & y) for x, y in itertools.product((0, 1), repeat=2)},
    "uncompute_and": {(x, y, x & y): (x, y, 0) for x, y in itertools.product((0, 1), repeat=2)},
    # w = c, x = a, y = b: x and y take c, t takes the carry c ^ (a^c)(b^c)
    "carry_cell": {(w, x, y, 0): (w, x ^ w, y ^ w, w ^ ((x ^ w) & (y ^ w)))
                   for w, x, y in itertools.product((0, 1), repeat=3)},
    # what a carry cell leaves, t = w ^ xy: t is released, x gets w back
    # and y holds the sum bit
    "release_cell": {(w, x, y, w ^ (x & y)): (w, x ^ w, y ^ x ^ w, 0)
                     for w, x, y in itertools.product((0, 1), repeat=3)},
}


@pytest.mark.parametrize("pattern", PATTERNS, ids=lambda p: p.name)
def test_lowered_pattern_is_exact_on_every_branch(pattern):
    # linearity lifts these to every context: each pattern takes each
    # basis input it is used on to one basis state with amplitude exactly 1;
    # a pattern with no truth table here fails
    name, table = pattern.name, _TRUTH_TABLES[pattern.name]
    nl = _pattern_netlist(pattern)
    measured = any(g.kind == "mx" for g in nl.gates)
    for given, want in table.items():
        branches = run_statevector(nl, initial=dict(enumerate(given)))
        assert len(branches) == (2 if measured else 1), (name, given)
        for br in branches:
            assert br.state == basis_state(dict(enumerate(want))), (name, given, br)
            assert br.probability == (0.5 if measured else 1)


# ---- mutants the exact engine must catch -----------------------------------------

def _and_block():
    nl = Netlist()
    x, y = nl.alloc_register("xy", 2, "input")
    t = build_logical_and(nl, x, y)
    return nl, x, y, t


def test_every_dropped_gate_of_the_and_block_is_caught():
    # the prep0 of a fresh ancilla is the one gate whose loss changes
    # nothing; every other drop is reported, a superposition among them
    nl, x, y, t = _and_block()
    full = expand(nl)
    survivors, got = [], set()
    for k, gate in enumerate(full.gates):
        rep = verify_equivalence(nl, full.without(k), (x, y))
        if not rep["mismatches"]:
            survivors.append(gate.kind)
        got.update(m["got"] for m in rep["mismatches"] if type(m["got"]) is str)
    assert survivors == ["prep0"]
    assert "SimulationError: state is not a computational basis vector" in got


@pytest.mark.parametrize("with_uncompute", [False, True])
def test_s_to_sdg_swap_leaves_amplitude_minus_one(with_uncompute):
    nl, x, y, t = _and_block()
    if with_uncompute:
        nl.append(UncomputeAnd(x, y, t))
    full = expand(nl)
    swapped = _rebuilt(full.wire_count, (g._replace(kind="sdg") if g.kind == "s" else g
                                         for g in full.gates))
    (mask,) = basis_state({x: 1, y: 1, t: int(not with_uncompute)})
    for br in run_statevector(swapped, initial={x: 1, y: 1}):
        assert br.state == {mask: (-1, 0, 0, 0)}
    rep = verify_equivalence(nl, swapped, (x, y))
    assert [m["input"] for m in rep["mismatches"]] == [{str(x): 1, str(y): 1}]
    assert rep["mismatches"][0]["got"]["amplitude"] == "-1+0j"
