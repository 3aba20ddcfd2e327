"""The qsq benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload costs-sweep --seed 1 --seconds 30 --trace 0

It repeats the workload's qsq commands, each repetition in a fresh
worker process (``worker.py``) that runs them one after another through
``qsquare.cli.main``, until the next repetition would overrun
``--seconds``.  Every output is checked (``workloads.py``) and its
digest compared with the other repetitions and with earlier runs of the
same source tree.  With ``--trace 0`` it reports the end-to-end metrics
of ``BENCHMARK.json`` as medians over repetitions.  With ``--trace 1``
each repetition is run once untraced and once traced (``tracer.py``),
and it reports the per-layer metrics.  The last line printed is the
JSON result.  Results, digests and spans are kept in ``.perfbench-out``.

Workers run with ``QSQ_THREADS`` unset and BLAS threads set to 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 5
DEADLINE_S = 160  # the whole run must end within 180 s
OUT_DIR = ".perfbench-out"


def worker_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "QSQ_THREADS"}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def source_hash(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def file_digest(path: Path) -> str | None:
    if not path.is_file():
        return None
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class Runner:
    """Starts workers for one workload in its scratch directory."""

    def __init__(self, src: Path, tmp: Path, started: float) -> None:
        self.src, self.tmp, self.started = src, tmp, started
        self.env = worker_env()

    def spawn(self, plan: dict) -> tuple[dict | None, float]:
        """Run one worker; returns (its result or None, when it was started)."""
        plan_path = self.tmp / "plan.json"
        plan_path.write_text(json.dumps({"src": str(self.src), **plan}), encoding="utf-8")
        remaining = max(1.0, DEADLINE_S - (time.monotonic() - self.started))
        t0 = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(plan_path)],
                                  cwd=self.tmp, env=self.env, capture_output=True,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            print("perfbench: worker timed out", file=sys.stderr)
            return None, t0
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: worker exited {proc.returncode}: {proc.stderr[-2000:]}",
                  file=sys.stderr)
            return None, t0
        return json.loads(lines[-1]), t0

    def setup_times(self) -> list[float]:
        """Calibrated seconds from process start until qsquare.cli is
        imported, after one unrecorded probe that warms the file cache.
        The worker's speed samples during its imports scale the whole."""
        samples = []
        for i in range(SETUP_PROBES + 1):
            result, t0 = self.spawn({"probe": True})
            if result is not None and i:
                imp = result["import"]
                own = result["imported"] - t0 - imp["sampling"]
                samples.append(own * imp["calibrated"] / imp["own"])
        return samples

    def repetition(self, workload, trace: bool, spans: Path | None = None) -> dict:
        for path in workload.outputs:  # never check a file an earlier repetition left
            path.unlink(missing_ok=True)
        plan = {"commands": workload.commands, "trace": trace,
                "spans": str(spans) if spans else None}
        result, _ = self.spawn(plan)
        if result is None:
            return {"trace": trace, "crashed": True, "rcs": [None] * len(workload.commands)}
        cmds = result["commands"]
        return {
            "trace": trace,
            "crashed": False,
            "rcs": [c["rc"] for c in cmds],
            "seconds": [c["seconds"] for c in cmds],
            "raw_wall_s": result["wall"]["own"],
            "sampling_s": result["wall"]["sampling"],
            "wall_s": result["wall"]["calibrated"],
            "errors": [c["error"] for c in cmds if c["error"]],
            "peak_rss_mb": result["peak_rss_mb"],
            "output_bytes": sum(p.stat().st_size for p in workload.outputs if p.is_file()),
            "digests": {p.name: file_digest(p) for p in workload.outputs},
            "layers": result.get("trace"),
        }


class Checker:
    """Checks each repetition's outputs as soon as it ends.  Outputs must
    also match the first repetition's, and any digest an earlier run of
    the same source recorded for the same command."""

    def __init__(self, workload, known: dict[str, str], source: str) -> None:
        self.workload, self.known = workload, known
        self.command_of = {p.name: i for p, i in workload.outputs.items()}
        self.keys = {p.name: f"{source} {' '.join(workload.commands[i])} {p.name}"
                     for p, i in workload.outputs.items()}
        self.first: dict | None = None
        self.verdicts: dict[str, object] = {}

    def add(self, rep: dict) -> None:
        key = json.dumps([rep["rcs"], rep.get("digests")], sort_keys=True)
        if key not in self.verdicts:  # identical bytes give an identical verdict
            self.verdicts[key] = self.workload.check(rep["rcs"])
        verdict = self.verdicts[key]
        rep["failures"] = dict(verdict.failures)
        rep["work"], rep["costs"] = verdict.work, verdict.costs
        if rep["crashed"]:
            for i in range(len(rep["rcs"])):
                rep["failures"].setdefault(i, "worker crashed")
            return
        self.first = self.first or rep["digests"]
        for name, digest in rep["digests"].items():
            command, key = self.command_of[name], self.keys[name]
            if digest != self.first[name]:
                rep["failures"].setdefault(command, f"{name} differs between repetitions")
            elif self.known.get(key, digest) != digest:
                rep["failures"].setdefault(command, f"{name} differs from an earlier run")
            elif digest is not None and command not in rep["failures"]:
                self.known[key] = digest


def end_to_end(reps: list[dict], setup: list[float]) -> dict[str, float]:
    timed = [r for r in reps if not r["crashed"] and r["wall_s"] > 0]
    values: dict[str, float] = {}
    if setup:
        values["setup_s"] = statistics.median(setup)
    if timed:
        values["wall_s"] = statistics.median(r["wall_s"] for r in timed)
        values["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in timed)
        values["output_mb"] = statistics.median(r["output_bytes"] for r in timed) / 1e6
        values["work_per_s"] = statistics.median(r["work"] / r["wall_s"] for r in timed)
        costs = next((r["costs"] for r in timed if r["costs"]), {})
        values.update({k: float(v) for k, v in costs.items()})
    return values


def per_layer(names: list[str], plain: list[dict], traced: list[dict]) -> tuple[dict, list]:
    """Medians over traced repetitions of each named layer metric; names
    whose module or function this source lacks are returned as absent."""
    layers = [r["layers"] for r in traced if not r["crashed"] and r["layers"]]
    values: dict[str, float] = {}
    absent = []
    if not layers:
        return values, list(names)
    for name in names:
        parts = name.split(".")
        if name == "trace.overhead_s":
            walls = [r["wall_s"] for r in plain if not r["crashed"]]
            if walls:
                traced_wall = statistics.median(r["wall_s"] for r in traced if not r["crashed"])
                values[name] = traced_wall - statistics.median(walls)
            continue
        if len(parts) == 2 and parts[0] in layers[0]["modules"]:
            values[name] = statistics.median(l["modules"][parts[0]] for l in layers)
        elif len(parts) == 3 and parts[2] in layers[0]["functions"].get(f"{parts[0]}.{parts[1]}", {}):
            fn = f"{parts[0]}.{parts[1]}"
            values[name] = statistics.median(l["functions"][fn][parts[2]] for l in layers)
        else:
            absent.append(name)
    return values, absent


def main(argv: list[str] | None = None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "qsquare" / "cli.py").is_file():
        print("perfbench: no src/qsquare/cli.py here; run from the root of a "
              "qsquare checkout", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    out = root / OUT_DIR
    tmp = out / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](tmp, args.seed)
        record = run(workload, args, spec, src, out, tmp, started)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(record["result"]))
    return 0


def run(workload, args, spec: dict, src: Path, out: Path, tmp: Path,
        started: float) -> dict:
    """Measure and check ``workload`` (built for ``tmp``); returns the
    run's record, whose "result" is the benchmark's JSON result."""
    runner = Runner(src, tmp, started)
    setup = [] if args.trace else runner.setup_times()
    if workload.refs:
        refs, _ = runner.spawn({"commands": workload.refs})
        if refs is None or any(c["rc"] != 0 for c in refs["commands"]):
            print("perfbench: reference commands failed", file=sys.stderr)

    store = out / "digests.json"
    known = json.loads(store.read_text()) if store.is_file() else {}
    source = source_hash(src)
    checker = Checker(workload, known, source)
    plain: list[dict] = []
    traced: list[dict] = []
    spans = out / f"spans-{workload.name}.json"
    spent = 0.0  # seconds inside repetitions; checking is not counted
    while True:
        t0 = time.monotonic()
        plain.append(runner.repetition(workload, trace=False))
        last = time.monotonic() - t0
        checker.add(plain[-1])
        if args.trace:
            t1 = time.monotonic()
            traced.append(runner.repetition(workload, trace=True, spans=spans))
            last += time.monotonic() - t1
            checker.add(traced[-1])
        spent += last
        if spent + last > args.seconds or time.monotonic() - started > DEADLINE_S / 2:
            break
    store.write_text(json.dumps(known, indent=1, sort_keys=True))

    reps = plain + traced
    attempted = sum(len(r["rcs"]) for r in reps)
    failed = sum(len(r["failures"]) for r in reps)
    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        values, absent = per_layer(names, plain, traced)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values, absent = end_to_end(plain, setup), []
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units if k in values}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    record = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "source_sha256": source, "result": result,
        "failed_frac": failed / attempted, "absent": absent,
        "samples": {"repetitions": len(plain), "traced": len(traced), "setup": len(setup)},
        "setup_s": setup,
        "repetitions": [{k: v for k, v in r.items() if k != "layers"} for r in reps],
        "layers": [r["layers"] for r in traced if r.get("layers")],
    }
    results = out / "results"
    results.mkdir(exist_ok=True)
    (results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    print(f"{workload.name} seed={args.seed}: {len(plain)} repetition(s)"
          + (f", {len(traced)} traced" if traced else "")
          + (f", {len(setup)} set-up probes" if setup else "")
          + f"; failed {failed}/{attempted}")
    timed = [r for r in plain if not r["crashed"]]
    if timed:
        wall = statistics.median(r["wall_s"] for r in timed)
        raw = statistics.median(r["raw_wall_s"] for r in timed)
        print(f"  wall_s median {wall:.4f} calibrated, {raw:.4f} raw"
              + (f"; setup_s median {statistics.median(setup):.4f}" if setup else ""))
    reasons = [(command, reason) for r in reps for command, reason in sorted(r["failures"].items())]
    for command, reason in reasons[:10]:
        print(f"  FAILED {' '.join(workload.commands[command])}: {reason}")
    if absent:
        print(f"  absent in this source: {', '.join(absent)}")
    return record


if __name__ == "__main__":
    sys.exit(main())
