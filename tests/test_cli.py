"""CLI contract: formats, exit codes, determinism, round-trips."""

import hashlib
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qsquare import sim
from qsquare.cli import _drop_gate, _square_planes, _UsageError, _verify_basis_one, main
from qsquare.ir import UncomputeAnd, expand, from_json, to_json, to_qasm
from qsquare.sim import lane_planes
from qsquare.synth import synthesize_squarer

from planes import ints_of


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_synth_macro_json_round_trips(tmp_path, capsys):
    path = tmp_path / "c.json"
    run(["synth", "6", "--out", str(path)], capsys)
    text = path.read_text()
    netlist = from_json(text)
    assert to_json(netlist) == text


def test_synth_rejects_small_width(capsys):
    code, _, err = run(["synth", "4"], capsys)
    assert code == 2
    assert "n > 4" in err


def test_synth_qasm_is_fully_primitive(capsys):
    code, out, _ = run(["synth", "5", "--format", "qasm"], capsys)
    assert code == 0
    assert "macro" not in out
    assert "cx q[" in out


def test_synth_deterministic_byte_identical(tmp_path, capsys):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    run(["synth", "8", "--format", "json", "--out", str(p1)], capsys)
    run(["synth", "8", "--format", "json", "--out", str(p2)], capsys)
    assert p1.read_bytes() == p2.read_bytes()


def test_verify_range_clean(tmp_path, capsys):
    report = tmp_path / "r.json"
    code, out, _ = run(["verify", "5..6", "--report", str(report)], capsys)
    assert code == 0
    assert "n=5" in out and "n=6" in out
    data = json.loads(report.read_text())
    assert data == {"inputs_checked": 96, "mismatches": []}


def test_verify_statevector_blocks(capsys):
    code, out, _ = run(["verify", "6", "--mode", "statevector-blocks"], capsys)
    assert code == 0
    assert "logical-and" in out and "adder-m3-carry" in out


def test_verify_mutated_netlist_fails(capsys):
    # gate 0 is the first partial-product AND; dropping it breaks squaring
    code, _, err = run(["verify", "5", "--mutate", "drop-gate:0"], capsys)
    assert code == 3
    assert "first failure" in err


def test_drop_gate_copies_without_the_gate():
    source = synthesize_squarer(6).netlist
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


@pytest.mark.parametrize("n", range(1, 13))
def test_lane_and_square_planes_read_back(n):
    # lane k of the exhaustive sweep holds input k; lane a of the
    # reference holds a*a; neither plane has a bit past the last lane
    lanes = 1 << n
    a_planes, square = lane_planes(n), _square_planes(n)
    assert len(a_planes) == n and len(square) == 2 * n
    assert ints_of(a_planes, lanes) == list(range(lanes))
    assert ints_of(square, lanes) == [a * a for a in range(lanes)]
    assert all(0 <= p < 1 << lanes for p in a_planes + square)


def test_verify_basis_reports_garbage_and_overflow_lanes(monkeypatch):
    # without the release of a_i*a_j, P and A stay right and that wire is
    # left at 1 in exactly the lanes with bits i and j of a set
    c = synthesize_squarer(5)
    k, op = next((k, op) for k, op in enumerate(c.netlist.gates)
                 if isinstance(op, UncomputeAnd))
    i, j = c.input_wires.index(op.x), c.input_wires.index(op.y)
    rep = _verify_basis_one(_drop_gate(c.netlist, k))
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
    assert _verify_basis_one(c.netlist)["mismatches"] == [{
        "input": {"n": 5, "a": 21},
        "expected": {"P": 441, "A": 21, "garbage": 0, "overflow": 0},
        "got": {"P": 441, "A": 21, "garbage": 0, "overflow": 1}}]


def test_verify_basis_reads_a_netlist_alone():
    # the oracle needs only the netlist: one read back from JSON, whose
    # A and P registers are all it has of the wiring, reports the same
    for n in range(5, 9):
        netlist = synthesize_squarer(n).netlist
        for checked in (netlist, _drop_gate(netlist, 8)):
            rep = _verify_basis_one(checked)
            assert rep == _verify_basis_one(from_json(to_json(checked)))
            assert rep["n"] == n and rep["inputs_checked"] == 1 << n
            assert bool(rep["mismatches"]) == (checked is not netlist)


def test_verify_range_outside_basis_window(capsys):
    code, _, err = run(["verify", "5..17"], capsys)
    assert code == 2
    assert "5..16" in err


def test_verify_bad_mutate_spec(capsys):
    code, _, _ = run(["verify", "5", "--mutate", "zap:1"], capsys)
    assert code == 2


def test_verify_mutate_refused_for_block_battery(capsys):
    # the block battery never reads the squarer netlist, so a mutation
    # there would be ignored and the run would pass
    code, out, err = run(["verify", "5..6", "--mode", "statevector-blocks",
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


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


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
    full = expand(synthesize_squarer(n).netlist)
    assert isinstance(full.gates, list)
    assert len(full.gates) == sum(1 for _ in full.gates) > 0
    assert isinstance(to_json(full), str)
    assert isinstance(to_qasm(full), str)


@pytest.mark.parametrize("argv, name, exit_code, digest", [
    (["synth", "9", "--format", "qasm", "--out"], "q.qasm", 0,
     "1f746268923774f34cea32f58a91e293f8062b5c24722ec98a7b9767d7c64b51"),
    (["compare", "5..20", "--measured", "--csv"], "c.csv", 0,
     "b2bbc7a17fc2e0f2e52dc87984af19631001b3c2e143828f5c757e3f2c6c34f0"),
    (["verify", "5..16", "--mode", "both", "--report"], "r.json", 0,
     "39896d9e5e9967e355e95ba6ce4b5802687456bf029f4a494f8c23c85cb26f96"),
    (["verify", "5..16", "--mutate", "drop-gate:8", "--report"], "r.json", 3,
     "6a3fb6085bfa1614aebb8fbba23adf5efaccdd816a53ca3e26d16b9ebb958dee"),
    (["synth", "16", "--format", "json", "--out"], "s.json", 0,
     "b9deaaff2e0c54a0ca8a5787106a3ceed1c602b47925d2cc54ebd3827f082841"),
], ids=["synth-9-qasm", "compare-5..20-csv", "verify-5..16-both", "verify-5..16-drop-8",
        "synth-16-json"])
def test_outputs_match_pinned_digests(argv, name, exit_code, digest, tmp_path, capsys):
    # QASM and the cost CSV are byte-for-byte what the Gate-tuple
    # expansion wrote before the columnar rewrite; the verify reports are
    # what the bool-lane basis sweep wrote, and the drop-gate:8 mutant's
    # report mixes P and garbage mismatches with uncompute-misuse lanes;
    # the macro JSON is the one pinned output that carries the registers
    path = tmp_path / name
    code, _, _ = run(argv + [str(path)], capsys)
    assert code == exit_code
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_compare_measured_stdout_matches_pinned_digest(capsys):
    # each width's carry-less line, whose stage count and formula come from
    # the costs module's account of the built circuit, then its table
    code, out, err = run(["compare", "5..20", "--measured"], capsys)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "84cc6af172841866ba51fcaab046904c45827e9e6f8bba60d33824102ddcfac3")


def test_runtime_imports_leave_numpy_out():
    # numpy is a test dependency only: the CLI must not pay for importing it
    src = str(Path(importlib.import_module("qsquare").__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    code = ("import qsquare, qsquare.cli, sys; "
            "sys.exit('numpy imported' if 'numpy' in sys.modules else 0)")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
