"""Fast self-test of the benchmark harness at tiny sizes.

Run from the root of a checkout: ``python3 perfbench/selftest.py``.  It
checks the result schema of every workload with and without tracing,
the discovery-based tracer on a throwaway package (nesting, self time, a
function reported absent, a new function picked up by name), that a
corrupted output, an undetected mutant and a changed digest each count
as failures, and that the benchmark refuses to run without a source
tree.  Exits 0 when every check holds.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import run
from tracer import Tracer
from workloads import CostsSweep, Export, VerifyExhaustive

ROOT = Path.cwd()
run.SETUP_PROBES = 1  # the schema needs one sample; speed matters more here


def tiny(tmp: Path, seed: int) -> list:
    return [CostsSweep(tmp, seed, lo=5, hi=7), Export(tmp, seed, n=6),
            VerifyExhaustive(tmp, seed, lo=5, hi=6, mutants=3)]


def run_once(workload, tmp: Path, out: Path, trace: int) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = argparse.Namespace(seed=3, seconds=0, trace=trace)
    return run.run(workload, args, spec, ROOT / "src", out, tmp, time.monotonic())


def check_schema(tmp: Path, out: Path) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        for workload in tiny(tmp, 3):
            record = run_once(workload, tmp, out, trace)
            result = record["result"]
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0, record["repetitions"]
            assert result["attempted"] == len(workload.commands) * (1 + trace)
            assert [m["name"] for m in listed] == list(result["metrics"]), workload.name
            for m in listed:
                got = result["metrics"][m["name"]]
                assert got["unit"] == m["unit"] and isinstance(got["value"], (int, float))
            if trace:
                layers = record["layers"][0]
                # self times partition the time inside the outermost spans
                assert abs(sum(layers["modules"].values()) - layers["root_s"]) < 1e-6
                rep = record["repetitions"][1]
                assert layers["root_s"] <= rep["raw_wall_s"] + rep["sampling_s"]
                assert layers["functions"]["cli.main"]["calls"] == len(workload.commands)
            if workload.name == "costs-sweep" and trace:
                assert "costs.measure_circuit>ir.expand" in layers["edges"]


def check_discovery(scratch: Path) -> None:
    pkg = scratch / "fakepkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "low.py").write_text(
        "import time\n"
        "def work(n):\n    time.sleep(0.01)\n    return 'x' * n\n"
        "def _hidden():\n    pass\n")
    (pkg / "high.py").write_text(
        "from .low import work\n"
        "def top():\n    return work(3) + work(4)\n"
        "def added_later():\n    return 1\n")
    sys.path.insert(0, str(scratch))
    try:
        import fakepkg.high
        tracer = Tracer()
        tracer.install("fakepkg", ("low", "high", "missing"))
        fakepkg.high.top()
    finally:
        sys.path.remove(str(scratch))
    summary = tracer.summary()
    assert tracer.modules == ["low", "high"]
    assert "low._hidden" not in summary["functions"]
    assert summary["functions"]["low.work"]["calls"] == 2
    assert summary["functions"]["high.added_later"]["calls"] == 0
    assert summary["edges"]["high.top>low.work"] >= 0.02
    assert summary["functions"]["high.top"]["self_s"] < 0.01
    rep = {"crashed": False, "wall_s": 1.0, "layers": summary}
    names = ["low.self_s", "low.work.calls", "high.added_later.self_s",
             "low.removed.self_s", "missing.self_s"]
    values, absent = run.per_layer(names, [rep], [rep])
    assert values["low.work.calls"] == 2 and values["high.added_later.self_s"] == 0
    assert absent == ["low.removed.self_s", "missing.self_s"], absent


class CorruptCsv(CostsSweep):
    """Changes one closed-form value in the CSV before it is checked."""

    def check(self, rcs):
        text = self.csv.read_text()
        self.csv.write_text(text.replace("\n6,proposed,t_count,", "\n6,proposed,t_count,1", 1))
        return super().check(rcs)


class SilentMutant(VerifyExhaustive):
    """Empties one mutant report, as if the mutation went undetected."""

    def check(self, rcs):
        self.reports[1].write_text(json.dumps({"inputs_checked": 96, "mismatches": []}))
        return super().check(rcs)


def check_failures(tmp: Path, out: Path) -> None:
    for workload in (CorruptCsv(tmp, 3, lo=5, hi=7),
                     SilentMutant(tmp, 3, lo=5, hi=6, mutants=2)):
        record = run_once(workload, tmp, out, 0)
        assert record["failed_frac"] > 0 and not record["result"]["correct"], workload.name
    # a digest that differs from an earlier run of the same source fails
    store = out / "digests.json"
    known = json.loads(store.read_text())
    for key in known:
        if key.endswith(" costs.csv"):
            known[key] = "0" * 64
    store.write_text(json.dumps(known))
    record = run_once(CostsSweep(tmp, 3, lo=5, hi=7), tmp, out, 0)
    assert record["result"]["failed"] == 1, record["repetitions"]


def check_refuses_without_source(bench: Path, bare: Path) -> None:
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(bench, bare / bench.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, f"{bench.name}/run.py", "--workload",
                           "costs-sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc


def main() -> int:
    out = ROOT / run.OUT_DIR / "selftest"
    tmp = out / "tmp"
    shutil.rmtree(out, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        check_discovery(tmp)
        check_refuses_without_source(Path(__file__).resolve().parent, out / "bare")
        check_schema(tmp, out)
        check_failures(tmp, out)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    print("perfbench self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
