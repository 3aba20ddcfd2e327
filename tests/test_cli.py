"""CLI contract: formats, exit codes, determinism, round-trips."""

import argparse
import gc
import hashlib
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
import tracemalloc
import typing
from pathlib import Path

import pytest

import qsquare
from qsquare import blocks, cli, ir, sim
from qsquare.cli import (
    BASIS_RANGE,
    _drop_gate,
    _UsageError,
    main,
)
from qsquare.ir import UncomputeAnd, expand, from_json, to_json, to_qasm
from qsquare.layout import arrange, dump_grid
from qsquare.sim import lane_planes
from qsquare.synth import synthesize_squarer

from planes import ints_of

# the compact report of verify 5..16 --mode both; it loads to the same
# object as the report every earlier engine wrote
_VERIFY_BOTH_DIGEST = "4d13c7d5c2473e9beefca7cdee20cfca512d3cc31544fc4c2e7acbf6b8d9d76e"


# the AND lowering with its final h, before the s, left out: it leaves
# the target in a superposition
_BROKEN_AND = ir._pattern("logical_and", 3, ir.AND.gates[:-2] + ir.AND.gates[-1:])


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_main_builds_the_parser_once(monkeypatch, capsys):
    # building the parser costs about ten parses, so a process that runs
    # many commands builds it for the first only
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counted_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    cli.build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    assert run(["compare", "5"], capsys)[0] == 0
    first = len(built)
    assert first and "qsq" in built
    assert run(["synth", "5", "--format", "grid"], capsys)[0] == 0
    assert len(built) == first
    assert cli.build_parser.cache_info().misses == 1


def _counted_builds(monkeypatch) -> list[int]:
    """Empty the squarer cache and list the width of every build from now."""
    built = []
    real = cli.synthesize_squarer

    def counted(n):
        built.append(n)
        return real(n)

    cli._squarer.cache_clear()
    monkeypatch.setattr(cli, "synthesize_squarer", counted)
    return built


def test_verify_builds_each_width_once(monkeypatch, capsys):
    # a process that runs many synth and verify commands builds each
    # width's squarer for the first only; compare builds its own and
    # keeps no circuit
    built = _counted_builds(monkeypatch)
    assert run(["synth", "5", "--out", os.devnull], capsys)[0] == 0
    assert cli._squarer.cache_info().currsize == 1
    assert run(["compare", "5..6", "--measured"], capsys)[0] == 0
    assert built == [5, 5, 6]
    assert cli._squarer.cache_info().currsize == 1
    for _ in range(2):
        assert run(["verify", "5..16"], capsys)[0] == 0
    assert built[3:] == list(range(6, 17))  # width 5 is synth's build
    info = cli._squarer.cache_info()
    assert (info.misses, info.hits, info.currsize) == (12, 13, 12)


def test_synth_between_verifies_evicts_no_verified_width(monkeypatch, capsys):
    # the cache keeps one width past BASIS_RANGE: with 12 slots the 128-bit
    # build would evict width 5, and the second verify, asking for each
    # width just before it is evicted, would rebuild all 12
    built = _counted_builds(monkeypatch)
    assert run(["verify", "5..16"], capsys)[0] == 0
    assert run(["synth", "128", "--format", "json", "--out", os.devnull], capsys)[0] == 0
    assert run(["verify", "5..16"], capsys)[0] == 0
    assert built == [*range(5, 17), 128]


def test_squarer_cache_keeps_at_most_its_bound(monkeypatch, capsys):
    built = _counted_builds(monkeypatch)
    bound = cli._squarer.cache_info().maxsize
    assert bound == BASIS_RANGE[1] - BASIS_RANGE[0] + 2
    for n in range(5, 25):
        assert run(["synth", str(n), "--format", "json", "--out", os.devnull], capsys)[0] == 0
        assert cli._squarer.cache_info().currsize == min(n - 4, bound)
    assert built == list(range(5, 25))
    # the least recently used widths went first: the last 13 are still held
    assert run(["synth", "12", "--format", "json", "--out", os.devnull], capsys)[0] == 0
    assert run(["synth", "11", "--format", "json", "--out", os.devnull], capsys)[0] == 0
    assert built[20:] == [11]


def test_plane_cache_keeps_as_many_widths_as_the_basis_range():
    # a library caller of check_squarer cannot grow the reference planes
    # past as many widths as verify sweeps
    sim._square_planes.cache_clear()
    for n in range(1, 14):
        sim._square_planes(n)
    info = sim._square_planes.cache_info()
    assert info.maxsize == info.currsize == BASIS_RANGE[1] - BASIS_RANGE[0] + 1


def test_synth_grid_row_t1_starts_with_a0a1(capsys):
    code, out, _ = run(["synth", "6", "--format", "grid"], capsys)
    assert code == 0
    rows = out.splitlines()
    assert rows[1].startswith("a0a1")
    assert rows[0].split(",")[0] == "a1"


def test_synth_expanded_json_has_no_macros(tmp_path, capsys):
    path = tmp_path / "c.json"
    code, _, _ = run(["synth", "5", "--format", "json", "--expanded",
                      "--out", str(path)], capsys)
    assert code == 0
    data = json.loads(path.read_text())
    assert all(not g["kind"].startswith("macro") for g in data["gates"])
    assert data["wires"] > 0


@pytest.mark.parametrize("flags", [[], ["--expanded"]], ids=["macro", "expanded"])
@pytest.mark.parametrize("n", [5, 6, 16, 64])
def test_synth_json_names_every_wire_it_counts(n, flags, tmp_path, capsys):
    # from_json refuses a wire count past one more than the largest wire
    # named, so what synth writes must name its last wire and load back
    path = tmp_path / "c.json"
    assert run(["synth", str(n), "--format", "json", *flags, "--out", str(path)], capsys)[0] == 0
    text = path.read_text()
    data = json.loads(text)
    named = {w for g in data["gates"] for w in g["wires"]}
    named.update(w for ws in data["registers"].values() for w in ws)
    assert data["wires"] == max(named) + 1
    assert to_json(from_json(text)) == text


def test_synth_rejects_small_width(capsys):
    code, _, err = run(["synth", "4"], capsys)
    assert code == 2
    assert "n > 4" in err


def test_synth_qasm_is_fully_primitive(capsys):
    code, out, _ = run(["synth", "5", "--format", "qasm"], capsys)
    assert code == 0
    assert "macro" not in out
    assert "cx q[" in out
    # qasm always expands, so --expanded is accepted and changes nothing
    assert run(["synth", "5", "--format", "qasm", "--expanded"], capsys) == (0, out, "")


def test_synth_deterministic_byte_identical(tmp_path, capsys):
    # two independent builds: synth would serve the second from its cache
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    for path in (p1, p2):
        cli._squarer.cache_clear()
        assert run(["synth", "8", "--format", "json", "--out", str(path)], capsys)[0] == 0
        assert cli._squarer.cache_info().misses == 1
    assert p1.read_bytes() == p2.read_bytes()


def test_verify_range_clean(tmp_path, capsys):
    report = tmp_path / "r.json"
    code, out, _ = run(["verify", "5..6", "--report", str(report)], capsys)
    assert code == 0
    assert "n=5" in out and "n=6" in out
    data = json.loads(report.read_text())
    assert data == {"inputs_checked": 96, "mismatches": []}


def test_verify_statevector_blocks(capsys):
    code, out, _ = run(["verify", "--mode", "statevector-blocks"], capsys)
    assert code == 0
    assert "logical-and" in out and "adder-m3-carry" in out


def test_verify_mutated_netlist_fails(capsys):
    # gate 0 is the first partial-product AND; dropping it breaks squaring
    code, _, err = run(["verify", "5", "--mutate", "drop-gate:0"], capsys)
    assert code == 3
    assert "first failure" in err


def test_drop_gate_copies_without_the_gate():
    source = synthesize_squarer(6)
    before = to_json(source)
    for k in (0, 7, len(source.gates) - 1):
        mutant = _drop_gate(source, k)
        assert len(mutant.gates) == len(source.gates) - 1
        assert mutant.gates == source.gates[:k] + source.gates[k + 1:]
        assert (mutant.wire_count, mutant.cbit_count, mutant.registers) == (
            source.wire_count, source.cbit_count, source.registers)
    assert to_json(source) == before
    with pytest.raises(_UsageError):
        _drop_gate(source, len(source.gates))


@pytest.mark.parametrize("n", range(1, 17))
def test_lane_and_square_planes_read_back(n):
    # lane k of the exhaustive sweep holds input k; lane a of the
    # reference holds a*a; neither plane has a bit past the last lane
    lanes = 1 << n
    a_planes, square = sim._square_planes(n)
    assert len(a_planes) == n and len(square) == 2 * n
    if n <= 12:  # reading every lane back takes seconds at 16 bits
        assert ints_of(a_planes, lanes) == list(range(lanes))
        assert ints_of(square, lanes) == [a * a for a in range(lanes)]
    assert all(0 <= p < 1 << lanes for p in a_planes + square)
    # verify reads them once per process, as tuples no caller can change;
    # the doubling that builds the squares builds the input planes that
    # the simulator's own sweeps use
    assert sim._square_planes(n)[0] == tuple(lane_planes(n))


def test_verify_basis_reports_garbage_and_overflow_lanes(monkeypatch):
    # without the release of a_i*a_j, P and A stay right and that wire is
    # left at 1 in exactly the lanes with bits i and j of a set
    nl = synthesize_squarer(5)
    k, op = next((k, op) for k, op in enumerate(nl.gates)
                 if isinstance(op, UncomputeAnd))
    i, j = nl.registers["A"].index(op.x), nl.registers["A"].index(op.y)
    rep = sim.check_squarer(_drop_gate(nl, k))
    assert rep["inputs_checked"] == 32
    assert [m["input"]["a"] for m in rep["mismatches"]] == [
        a for a in range(32) if (a >> i) & (a >> j) & 1]
    for m in rep["mismatches"]:
        a = m["input"]["a"]
        assert m["got"] == {"P": a * a, "A": a, "garbage": 1, "overflow": 0}

    real = sim.run_basis_sweep

    def overflowing(netlist, inputs, lanes):
        res = real(netlist, inputs, lanes)
        (idx,) = res.would_be_carries
        res.would_be_carries[idx] |= 1 << 21
        return res

    monkeypatch.setattr(sim, "run_basis_sweep", overflowing)
    assert sim.check_squarer(nl)["mismatches"] == [{
        "input": {"n": 5, "a": 21},
        "expected": {"P": 441, "A": 21, "garbage": 0, "overflow": 0},
        "got": {"P": 441, "A": 21, "garbage": 0, "overflow": 1}}]


def test_verify_basis_reads_a_corrupted_input_back():
    # a final cx from P's bit 3 onto A's bit 2 (not a P wire, as A's bit 0
    # is) leaves P right and flips A's bit 2 in exactly the lanes where
    # bit 3 of a*a is set
    netlist = from_json(to_json(synthesize_squarer(7)))
    netlist.add_gate("cx", netlist.registers["P"][3], netlist.registers["A"][2])
    rep = sim.check_squarer(netlist)
    lanes = [a for a in range(128) if (a * a >> 3) & 1]
    assert rep["failing"] == len(lanes) > 16
    assert [(m["input"]["a"], m["got"]) for m in rep["mismatches"]] == [
        (a, {"P": a * a, "A": a ^ 4, "garbage": 0, "overflow": 0}) for a in lanes[:16]]


def test_verify_basis_reads_a_netlist_alone():
    # the oracle needs only the netlist: one read back from JSON, whose
    # A and P registers are all it has of the wiring, reports the same
    for n in range(5, 9):
        netlist = synthesize_squarer(n)
        for checked in (netlist, _drop_gate(netlist, 8)):
            rep = sim.check_squarer(checked)
            assert rep == sim.check_squarer(from_json(to_json(checked)))
            assert rep["n"] == n and rep["inputs_checked"] == 1 << n
            assert bool(rep["mismatches"]) == (checked is not netlist)


def test_verify_cache_is_never_corrupted(tmp_path, capsys):
    # mutants verify copies of the cached netlists: after them the clean
    # run still writes its pinned report, synth writes from the warm cache
    # what it writes from a fresh build, and each cached circuit still
    # equals a fresh build
    for k in (0, 8, 17, 35):
        assert run(["verify", "5..16", "--mutate", f"drop-gate:{k}"], capsys)[0] == 3
    path = tmp_path / "r.json"
    assert run(["verify", "5..16", "--mode", "both", "--report", str(path)], capsys)[0] == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == _VERIFY_BOTH_DIGEST
    misses = cli._squarer.cache_info().misses
    for n in (5, 8, 16):
        fresh = synthesize_squarer(n)
        for flags, text in (([], to_json(fresh)),
                            (["--expanded"], to_json(fresh, lower=True)),
                            (["--format", "qasm"], to_qasm(fresh)),
                            (["--format", "grid"], dump_grid(arrange(n)))):
            assert run(["synth", str(n), *flags, "--out", str(path)], capsys)[0] == 0
            assert path.read_text() == text
    for n in range(5, 17):
        assert cli._squarer(n) == synthesize_squarer(n)
    assert cli._squarer.cache_info().misses == misses


def test_block_battery_checks_the_and_target_it_is_given(monkeypatch):
    # the battery's reference is the block's own macro netlist, so a
    # builder that allocates a spare wire first still checks clean
    real = blocks.build_logical_and

    def spare_first(netlist, x, y):
        netlist.new_wire()
        return real(netlist, x, y)

    monkeypatch.setattr(blocks, "build_logical_and", spare_first)
    reports = sim.check_blocks()
    assert [r["block"] for r in reports[:2]] == ["logical-and", "and-uncompute"]
    assert [r["mismatches"] for r in reports] == [[]] * len(reports)


def test_verify_range_outside_basis_window(capsys):
    code, _, err = run(["verify", "5..17"], capsys)
    assert code == 2
    assert "5..16" in err
    # the bounds are checked on the range itself: a list of these widths
    # would take tens of MB before the refusal
    tracemalloc.start()
    try:
        code, _, err = run(["verify", "5..2000000"], capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and "5..16" in err
    assert peak < 1 << 20


def test_verify_bad_mutate_spec(capsys):
    code, _, _ = run(["verify", "5", "--mutate", "zap:1"], capsys)
    assert code == 2
    # a digit str.isdigit accepts but int() refuses
    code, out, err = run(["verify", "5", "--mutate", "drop-gate:\u00b2"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("qsq: --mutate expects ") and err.count("\n") == 1


def test_block_battery_reports_a_broken_and_lowering(monkeypatch, tmp_path, capsys):
    # a lowering that leaves a superposition is a mismatch, not a crash
    monkeypatch.setattr(ir, "AND", _BROKEN_AND)
    path = tmp_path / "r.json"
    code, out, err = run(["verify", "--mode", "statevector-blocks",
                          "--report", str(path)], capsys)
    assert code == 3
    assert "verify logical-and: 4 inputs, 4 mismatch(es)" in out.splitlines()
    assert err.startswith("first failure: ")
    first = json.loads(path.read_text())["mismatches"][0]
    assert first["got"] == "SimulationError: state is not a computational basis vector"


def test_verify_mutate_refused_for_block_battery(capsys):
    # the block battery never reads the squarer netlist, so a mutation
    # there would be ignored and the run would pass
    code, out, err = run(["verify", "--mode", "statevector-blocks",
                          "--mutate", "drop-gate:3"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("qsq: --mutate ") and err.count("\n") == 1


def test_compare_t_counts_at_n6(tmp_path, capsys):
    csv_path = tmp_path / "t.csv"
    code, out, _ = run(["compare", "6..6", "--designs", "proposed,thapliyal",
                        "--csv", str(csv_path)], capsys)
    assert code == 0
    assert "152" in out and "440" in out
    text = csv_path.read_text()
    assert "6,proposed,t_count,152,," in text
    assert "6,thapliyal,t_count,440,," in text


def test_compare_ratios_table(capsys):
    code, out, _ = run(["compare", "--ratios"], capsys)
    assert code == 0
    assert "50.00%" in out and "66.67%" in out and "6.25%" in out


def test_compare_odd_width_uses_odd_polynomials(capsys):
    code, out, _ = run(["compare", "5..5", "--designs", "proposed"], capsys)
    assert code == 0
    assert "92" in out and "(n=5)" in out


def test_compare_measured_reports_delta_formula(capsys):
    code, out, _ = run(["compare", "6..6", "--designs", "proposed", "--measured"],
                       capsys)
    assert code == 0
    assert "T-count delta -8 (formula -8)" in out


def test_compare_unknown_design(capsys):
    code, _, err = run(["compare", "6", "--designs", "banerjee"], capsys)
    assert code == 2
    assert "unknown design" in err


@pytest.mark.parametrize("argv, message", [
    (["compare", "5.."], "has no upper end"),
    (["verify", "5.."], "has no upper end"),
    (["compare", "5..6", "--designs", "thapliyal", "--measured"],
     "--measured measures the proposed design"),
    (["synth", "5", "--format", "grid", "--expanded"],
     "--expanded lowers the netlist, which --format grid does not write"),
    # widths int() would read as another width than the one written
    (["synth", "1_0", "--format", "grid"], "width must be an integer in ASCII digits, got '1_0'"),
    (["compare", " 6"], "width must be an integer in ASCII digits, got ' 6'"),
    (["synth", "\u0666"], "width must be an integer in ASCII digits, got '\u0666'"),
    (["compare", "5..1_0"], "width must be an integer in ASCII digits, got '1_0'"),
    # a design named twice would write its rows and its column twice
    (["compare", "5", "--designs", "thapliyal,thapliyal", "--csv", "-"],
     "design 'thapliyal' named twice in --designs"),
    (["compare", "5", "--designs", "proposed, nagamani-osu,proposed"],
     "design 'proposed' named twice in --designs"),
    # the squarer sweep needs its widths, and the block battery reads none
    (["verify", "--mode", "both"], "--mode both needs a width or range"),
    (["verify", "--report", "-"], "--mode basis-exhaustive needs a width or range"),
    (["verify", "999", "--mode", "statevector-blocks"],
     "--mode statevector-blocks verifies fixed blocks and takes no width, got '999'"),
    # --ratios alone needs no range, but --measured would measure nothing
    (["compare", "--ratios", "--measured"],
     "--measured measures each width of a range, and no width was given to measure"),
    # an empty range is refused as a range, not read as no range
    (["compare", ""], "width must be an integer in ASCII digits, got ''"),
    (["compare", "", "--measured"], "width must be an integer in ASCII digits, got ''"),
    # --ratios alone writes no width's rows, so a CSV would hold only its header
    (["compare", "--ratios", "--csv", "-"],
     "--csv writes each width's rows, and no width was given to write"),
    # a gate index past the smallest width's netlist names that width
    (["verify", "5..6", "--mutate", "drop-gate:40"],
     "gate index 40 out of range at n=5 (netlist has 36)"),
])
def test_compare_and_verify_refuse_input_they_would_ignore(argv, message, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("qsq: ") and message in err and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["synth", "5", "--out", ""],
    ["compare", "5", "--csv", ""],
    ["verify", "5", "--report", ""],
    ["synth", "5", "--out", "{tmp}/no/such/dir/x"],
], ids=["synth-out-empty", "compare-csv-empty", "verify-report-empty", "synth-out-no-dir"])
def test_unwritable_output_path_is_an_io_error(argv, tmp_path, capsys):
    # a path that cannot be written, the empty one included, exits 1 before
    # anything reaches stdout, and is never read as stdout or as no path
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    code, out, err = run(argv, capsys)
    assert code == cli.EXIT_IO == 1
    assert out == ""
    assert err.startswith("qsq: I/O error: ") and err.count("\n") == 1


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "caller-disabled"])
def test_commands_restore_the_collector_and_leave_no_cycles(enabled, tmp_path, capsys):
    # main runs each command with the cyclic collector off, which is safe
    # only while no command leaves a reference cycle behind; it turns the
    # collector back on only if it was on when main was called
    cli.build_parser()
    commands = [
        (["synth", "6", "--format", "json"], 0),
        (["synth", "6", "--format", "json", "--expanded"], 0),
        (["synth", "6", "--format", "qasm"], 0),
        (["synth", "6", "--format", "grid"], 0),
        (["verify", "5..6", "--mode", "both"], 0),
        (["verify", "5", "--mutate", "drop-gate:0"], 3),
        (["verify", "5", "--mutate", "drop-gate:100000"], 2),
        (["compare", "5..6", "--measured"], 0),
        (["compare", "--ratios"], 0),
        (["synth", "6", "--out", str(tmp_path / "no-such-dir" / "s.json")], 1),
    ]
    threshold = gc.get_threshold()
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        for argv, exit_code in commands:
            gc.collect()
            assert run(argv, capsys)[0] == exit_code, argv
            assert gc.isenabled() is enabled, argv
            assert gc.get_threshold() == threshold, argv
            assert gc.collect() == 0, argv
    finally:
        (gc.enable if was else gc.disable)()


def test_traced_layer_functions_exist():
    # the benchmark traces public module-level functions by name, so a
    # per-layer metric "<module>.<function>.<metric>" reads as absent
    # once that function is renamed, moved or made private
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    checked = []
    for entry in spec["per_layer"]:
        parts = entry["name"].split(".")
        if len(parts) != 3:
            continue
        module, name, _ = parts
        mod = importlib.import_module(f"qsquare.{module}")
        fn = getattr(mod, name, None)
        assert not name.startswith("_") and inspect.isfunction(fn), entry["name"]
        assert fn.__module__ == mod.__name__, entry["name"]
        checked.append(entry["name"])
    assert checked


@pytest.mark.parametrize("n", [5, 8])
def test_traced_counters_stay_readable(n):
    # the benchmark reads ir.expand.gates_out as len(result.gates) only
    # while it is a list, and ir.to_json/ir.to_qasm bytes only from a str;
    # its self-test fails when one of them reads as unavailable
    netlist = synthesize_squarer(n)
    full = expand(netlist)
    assert isinstance(full.gates, list)
    assert len(full.gates) == sum(1 for _ in full.gates) > 0
    assert isinstance(to_json(full), str)
    assert isinstance(to_qasm(full), str)
    # synth writes its expanded JSON and QASM from the macros, with no expand
    assert isinstance(to_json(netlist, lower=True), str)
    assert isinstance(to_qasm(netlist), str)


@pytest.mark.parametrize("argv, name, exit_code, digest", [
    (["synth", "9", "--format", "qasm", "--out"], "q.qasm", 0,
     "1f746268923774f34cea32f58a91e293f8062b5c24722ec98a7b9767d7c64b51"),
    (["compare", "5..20", "--measured", "--csv"], "c.csv", 0,
     "b2bbc7a17fc2e0f2e52dc87984af19631001b3c2e143828f5c757e3f2c6c34f0"),
    (["compare", "5..64", "--measured", "--csv"], "c.csv", 0,
     ("05bb1ade2fd7efb3106bef5e78069e75dbdf388ec75ddb11f6f0cd553df57bf1",
      "45b62d13a32f37e95dd7a5a5cf35ec09a2b92e9eab095068bfe353bfed272575")),
    (["verify", "5..16", "--mode", "both", "--report"], "r.json", 0, _VERIFY_BOTH_DIGEST),
    (["verify", "5..16", "--mutate", "drop-gate:8", "--report"], "r.json", 3,
     "a23f47aac1af5d86214da242b097c314482e2257a0c5bebdcda6d27af5c8a41f"),
    (["synth", "16", "--format", "json", "--out"], "s.json", 0,
     "b9deaaff2e0c54a0ca8a5787106a3ceed1c602b47925d2cc54ebd3827f082841"),
    (["synth", "37", "--format", "json", "--out"], "s.json", 0,
     "fadece3c324430c69a2dfb3f7c7f2007993ca969f4119f8680b3aa44a0890f32"),
    (["synth", "64", "--format", "grid", "--out"], "g.txt", 0,
     "5de2a1b5fef3bed3d2694c7f2322898ed78eb7f82c8499c662302d6d2febf0ec"),
    (["synth", "16", "--format", "json", "--expanded", "--out"], "e.json", 0,
     "0d6e5ac1966254730b037122f74b6a868cc3ad55c67add87cd85ededac786447"),
    (["synth", "40", "--format", "qasm", "--out"], "q.qasm", 0,
     "f91257f8c046603c959e9f844bb9edcf212ed11801f6d4107e837f829df4314e"),
    (["synth", "128", "--format", "qasm", "--out"], "q.qasm", 0,
     "4f5c09f6eaa6de190a212cf13b00b148b72c847572f76537509611fbb2d17255"),
], ids=["synth-9-qasm", "compare-5..20-csv", "compare-5..64-csv", "verify-5..16-both", "verify-5..16-drop-8",
        "synth-16-json", "synth-37-json", "synth-64-grid", "synth-16-json-expanded",
        "synth-40-qasm", "synth-128-qasm"])
def test_outputs_match_pinned_digests(argv, name, exit_code, digest, tmp_path, capsys):
    # QASM and the cost CSV are byte-for-byte what the Gate-tuple
    # expansion wrote before the columnar rewrite; the verify reports load
    # to what the bool-lane basis sweep wrote, and the drop-gate:8 mutant's
    # report mixes P and garbage mismatches with uncompute-misuse lanes;
    # the macro JSON carries the registers, at an even and an odd width;
    # the 64-bit grid pins the placement of a wide even layout; the
    # expanded JSON and the 40-bit QASM are what expand-then-format wrote
    # before the text was written straight from the macros, and catch a
    # template change that moves both ways of writing it at once; the
    # 128-bit QASM, the width the benchmark exports, is what the adders
    # wrote gate by gate before each run of ripple cells was written in bulk;
    # compare 5..64, the benchmark's command, pins its CSV and its table on
    # stdout as they were when measure counted the whole expansion
    digest, out_digest = digest if isinstance(digest, tuple) else (digest, None)
    path = tmp_path / name
    code, out, _ = run(argv + [str(path)], capsys)
    assert code == exit_code
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
    if out_digest is not None:
        assert hashlib.sha256(out.encode()).hexdigest() == out_digest


# the report of verify 5..16 --mutate drop-gate:K for each K of the n=5
# netlist's 36 gates, as the checker wrote it when it decoded every P
# and A plane of every reported lane; each of these runs exits 3
_DROP_GATE_DIGESTS = (
    "87013cd180509955883721806d65e5936d880b48b770a891707c3f8b0b41fbf0",
    "fe97228b0aff476474b55686eccbc3baa63b5cd3eb109eb1586c13451c12bce8",
    "d0dc523bbd47ad889919abeafeae684f9a6970efdeae42d9eaf601cea66637b6",
    "56a357f64e3b47c463c84d711b878be2d548229388546184b20b1f9d5c778a98",
    "29645fddc38408ce9daebdb4edb75b3ef20bad4c2ccba70b3fd8a6cc11a31292",
    "f6036d92932516c389420f2d381011824497eaa975bf006a4aeabf3ac62be948",
    "08357d7e83120b50abdf17eb02294f13aa8a3b16fb33dffa38493a2cbdb6f7ec",
    "5229133d272e0bfe27e201f20cefa1604f64f977dd637ae87e286cead385d41b",
    "a23f47aac1af5d86214da242b097c314482e2257a0c5bebdcda6d27af5c8a41f",
    "20702d6b7ca2b6331b12b63e3e5dcfbd07b5e90b6d11dae22d1fa5cd5e45c57b",
    "137c9427a7a0aeb6a2538c22b12db493393fa0ac814053ce582b1b5c21d00b99",
    "167fe3063c6475a8225326ca23e81ae6f3c33e02c98f57575c0c9135a15c67a5",
    "75973c332774479da69400a88410ff3977e4e8fe796a9c60455a1c5a5c60055b",
    "fedf8ce4815c6ba5e523bb942e25ce2cf14f21b9378136e917ef1b78dc5808dd",
    "c13f2df2463ed924e84454d4fab91c3c7ed0fb359010da774c66bf221145aaeb",
    "78c5bfc6c14e286b96bc33b1c65548dec8556f4e81e9233fbaa710045db9a64b",
    "bcc0217b5484828efebb26feafe2b2548c8128576cac0f99c64e63541185aa3e",
    "ebbdd804d918e083a6adfa4c5989801f3b0cd78aefb78113917af55780724572",
    "b458be14f3607d941650db64b32d56ffb16aaa396e598e5bcad9c2ad21dfb537",
    "e02f8844cfc03038fe92a0749ffb68500373a55791939b5a8e0f4080465f58fd",
    "c3a352a73c056ca486edd9e0af70b6a24ebf6600133325f10c4f1ab10e830987",
    "dba530f08fcf3b788af482a3d15522654a6d94da291da674d8e964795fa813e6",
    "1b0796c89ad63b92610a2295fdfd7376f8ee649d10ee16ecc1608014000a3366",
    "0645897b9279f41b93e356ef7411813231d834037795d496fdd72d94bb3e7c7f",
    "cf1bced3c855b44c95611a6551ca49a8c7863824c270555e58cd3555dea711f3",
    "4c96f0021341973f81dcba688a8be8b8f7a323cdc4fd7223f0c0e9ddd196d29b",
    "b144e202c40282156df959c21fe845900b4e8a2b95512c61ad230b27056eaf66",
    "5216d0e7a748b5e7f39b0ba09979009aec882bbc395e24a6813cdf915a426a90",
    "388acdd173385f24706aa9a949c670670cf28ed4b6122e5bec1268203c2d9e94",
    "1ddad6506586558e3300b2224a570de9626f5881b5b244170308a9876d3eec72",
    "801bc0fabc1d53d0a286c06938cc3e64d4844cb1c0d40f7a70ef81d9b1a6b35d",
    "ad5b5d340b7a6b968e07170fc1ecf5f7ebba0bfd4b3d805900fecdf8e5a6867c",
    "0b0d61434d2bdff297983560c10abf770258ffe729a924ac4f5cc1fe58d983fc",
    "a0bf66b1f5012eb9b9dadf1341fe26cb8c8ed39c379925e5d73241300cae7e8b",
    "f8689cac81e9de1e9b7cd71af19eb3522c04b136eb959952f5f2216b4f781551",
    "88d6b15a06795f4cedba20b34001d5606c99b3090a6a46132e233cbf535575f3",
)


@pytest.mark.parametrize("k", range(36))
def test_drop_gate_reports_match_pinned_digests(k, tmp_path, capsys):
    path = tmp_path / "r.json"
    code, _, _ = run(["verify", "5..16", "--mutate", f"drop-gate:{k}", "--report", str(path)],
                     capsys)
    assert code == 3
    assert hashlib.sha256(path.read_bytes()).hexdigest() == _DROP_GATE_DIGESTS[k]


def test_verify_counts_every_failing_input(tmp_path, capsys):
    # dropping an adder of the 9-bit squarer breaks most of its inputs: the
    # line counts them all, here lane by lane on one-lane sweeps, and says
    # that the report lists only the first 16, which it reads as they are
    n, k = 9, 76
    mutant = _drop_gate(synthesize_squarer(n), k)
    a_wires, p_wires = mutant.registers["A"], mutant.registers["P"]
    ancillas = set(range(mutant.wire_count)) - {*a_wires, *p_wires}
    failing = []
    for a in range(1 << n):
        res = sim.run_basis_sweep(mutant, {w: (a >> i) & 1 for i, w in enumerate(a_wires)}, 1)
        got = {"P": ints_of([res.wires[w] for w in p_wires], 1)[0],
               "A": ints_of([res.wires[w] for w in a_wires], 1)[0],
               "garbage": int(any(res.wires[w] for w in ancillas)),
               "overflow": int(any(res.would_be_carries.values()))}
        if got != {"P": a * a, "A": a, "garbage": 0, "overflow": 0}:
            failing.append({"input": {"n": n, "a": a}, "got": got})
    assert len(failing) == 400
    path = tmp_path / "r.json"
    code, out, _ = run(["verify", str(n), "--mutate", f"drop-gate:{k}", "--report", str(path)],
                       capsys)
    assert code == 3
    assert out == f"verify n={n}: {1 << n} inputs, 400 mismatch(es), report lists the first 16\n"
    report = json.loads(path.read_text())
    assert [{"input": m["input"], "got": m["got"]} for m in report["mismatches"]] == failing[:16]
    # a width with at most 16 failing inputs lists them all, so its line
    # names no cut
    assert run(["verify", "5", "--mutate", "drop-gate:0"], capsys)[:2] == (
        3, "verify n=5: 32 inputs, 8 mismatch(es)\n")


def test_verify_names_a_sweep_that_stopped(tmp_path, capsys):
    # dropping the 9-bit squarer's gate 1 makes an uncompute raise: the
    # sweep stops there and counts no failing input, so the line says
    # that it stopped and why, and gives no count; the report and the
    # first-failure line still carry the one mismatch that names it
    path = tmp_path / "r.json"
    code, out, err = run(["verify", "9", "--mutate", "drop-gate:1", "--report", str(path)],
                         capsys)
    error = "UncomputeMisuseError: uncompute-misuse at gate 108, first lane 5"
    assert code == 3
    assert out == f"verify n=9: sweep stopped by {error}\n"
    assert err == f"first failure: input={{'n': 9}} expected=clean run got={error}\n"
    assert json.loads(path.read_text()) == {"inputs_checked": 512, "mismatches": [
        {"input": {"n": 9}, "expected": "clean run", "got": error}]}


@pytest.mark.parametrize("argv", [["5..16", "--mode", "both"]]
                         + [["5..16", "--mutate", f"drop-gate:{k}"] for k in range(36)]
                         + [["--mode", "statevector-blocks"]],
                         ids=["both", *(f"drop-gate:{k}" for k in range(36)),
                              "statevector-fallback"])
def test_verify_report_is_what_json_dumps_writes(argv, tmp_path, capsys, monkeypatch):
    # every report, of the basis sweep's mismatches or the battery's, is
    # compact JSON from one json.dumps call, of the object it loads back
    # to: every key is a string, so a sorted dump orders it too
    battery = "statevector" in argv[-1]
    if battery:
        # an AND lowering without its final h fails the battery with
        # statevector mismatches
        monkeypatch.setattr(ir, "AND", _BROKEN_AND)
    calls, dumps = [], json.dumps

    def counted_dumps(obj, **kw):
        calls.append((obj, kw))
        return dumps(obj, **kw)

    monkeypatch.setattr(cli.json, "dumps", counted_dumps)
    path = tmp_path / "r.json"
    code, _, _ = run(["verify", *argv, "--report", str(path)], capsys)
    monkeypatch.undo()
    text = path.read_text()
    report = json.loads(text)
    assert text == json.dumps(report, separators=(",", ":")) + "\n"
    assert calls == [(report, {"separators": (",", ":")})]
    json.dumps(calls[0][0], sort_keys=True)
    assert code == (3 if report["mismatches"] else 0)
    assert not battery or report["mismatches"]


def test_compare_measured_stdout_matches_pinned_digest(capsys):
    # each width's carry-less line, whose stage count and formula come from
    # the costs module's account of the built circuit, then its table
    code, out, err = run(["compare", "5..20", "--measured"], capsys)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "84cc6af172841866ba51fcaab046904c45827e9e6f8bba60d33824102ddcfac3")


@pytest.mark.parametrize("argv, digest", [
    (["6..9", "--measured", "--designs", "thapliyal,proposed,nagamani-osu"],
     "f2cf608f8bc14b49f24f11679935b463eb8e2a61ad45fae600d6e00d482c06b1"),
    (["7", "--designs", "nagamani-osu"],
     "9fbfe8f56675c2dd211235e5f713692205b5e8e77a81b0b56fd22514d9ea4b4f"),
], ids=["measured-proposed-second", "baseline-alone"])
def test_compare_csv_and_table_orders_match_pinned_digests(argv, digest, capsys):
    # the CSV on stdout lists the proposed design first, while each table
    # orders its columns as --designs names them
    code, out, err = run(["compare", *argv, "--csv", "-"], capsys)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _python(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports this qsquare."""
    src = str(Path(importlib.import_module("qsquare").__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)


def test_runtime_imports_leave_numpy_out():
    # numpy is a test dependency only: the CLI must not pay for importing it
    proc = _python("import qsquare, qsquare.cli, sys; "
                   "sys.exit('numpy imported' if 'numpy' in sys.modules else 0)")
    assert proc.returncode == 0, proc.stderr


# modules that starting qsq does not need: dataclasses (and the inspect
# it imports), fractions (for --ratios only), and the simulator and cost
# model, which only verify and compare run
_STARTUP_UNUSED = ("dataclasses", "fractions", "inspect", "qsquare.sim", "qsquare.costs")
_LOADED_AFTER = """
import json, sys
import qsquare.cli
steps = [["import", [m for m in {unused!r} if m in sys.modules]]]
for argv in {commands!r}:
    assert qsquare.cli.main(argv) == 0, argv
    steps.append([" ".join(argv), [m for m in {unused!r} if m in sys.modules]])
sys.stderr.write(json.dumps(steps))
"""


@pytest.mark.parametrize("commands, loaded", [
    ([["synth", "6", "--out", os.devnull], ["synth", "6", "--format", "qasm", "--out", os.devnull],
      ["verify", "5"]],
     [[], [], [], ["qsquare.sim"]]),
    ([["compare", "5"], ["compare", "5", "--measured", "--ratios"]],
     [[], ["qsquare.costs"], ["fractions", "qsquare.costs"]]),
], ids=["synth-verify", "compare"])
def test_each_command_loads_only_what_it_runs(commands, loaded):
    proc = _python(_LOADED_AFTER.format(unused=_STARTUP_UNUSED, commands=commands))
    assert proc.returncode == 0, proc.stderr
    steps = json.loads(proc.stderr)
    assert [step for step, _ in steps] == ["import", *(" ".join(argv) for argv in commands)]
    assert [modules for _, modules in steps] == loaded


# every public name of the package, as it exported them all on import
_PACKAGE_NAMES = (
    "AddInPlace", "Gate", "LogicalAnd", "MetricValues", "Netlist", "NonClassicalGateError",
    "TermBudgetError", "UncomputeAnd", "UncomputeMisuseError", "UnsupportedWidthError",
    "arrange", "baseline_costs", "blocks", "build_adder_in_place", "build_logical_and",
    "build_uncompute_and", "built_metrics", "costs", "count_gates", "dump_grid", "expand",
    "check_squarer", "from_json", "grid_value", "ir", "lane_planes", "layout",
    "proposed_metrics", "reconcile", "reduction_ratios", "run_basis_sweep",
    "run_statevector", "schedule_asap", "sim", "synth", "synthesize_squarer",
    "to_json", "to_qasm", "verify_equivalence",
)


def test_package_names_resolve_on_first_use():
    # sim and costs names load when first read, as attributes and by a
    # star import, each the object of the module that defines it
    proc = _python(f"""
import sys
import qsquare
names = {_PACKAGE_NAMES!r}
assert sorted(n for n in dir(qsquare) if not n.startswith("_")) == sorted(names)
values = {{name: getattr(qsquare, name) for name in names}}
star = {{}}
exec("from qsquare import *", star)
for name, value in values.items():
    assert star[name] is value, name
    home = sys.modules.get(getattr(value, "__module__", ""))  # a module has none
    assert home is None or getattr(home, name) is value, name
""")
    assert proc.returncode == 0, proc.stderr


def _defined_in(module):
    """Every function, method and class that ``module`` defines, a
    property by its getter."""
    name = module.__name__
    for value in vars(module).values():
        if not (inspect.isclass(value) or inspect.isfunction(value)) or value.__module__ != name:
            continue
        yield value
        if inspect.isclass(value):
            for member in vars(value).values():
                member = getattr(member, "fget", member)
                if inspect.isfunction(member) and member.__module__ == name:
                    yield member


@pytest.mark.parametrize("module", ["qsquare", *(
    f"qsquare.{info.name}" for info in pkgutil.iter_modules(qsquare.__path__))])
def test_every_annotation_resolves(module):
    # the annotations are strings (from __future__ import annotations), so
    # a name imported only inside a function would fail only when read
    defined = [*_defined_in(importlib.import_module(module))]
    assert defined
    for value in defined:
        try:
            typing.get_type_hints(value)
        except NameError as exc:
            pytest.fail(f"{value.__qualname__}: {exc}")
