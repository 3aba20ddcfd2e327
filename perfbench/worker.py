"""One repetition of a workload in a fresh process.

Usage: ``python3 perfbench/worker.py PLAN.json``.  The plan names the
source tree to import ``qsquare`` from, the qsq commands to run, whether
to trace, and where to write spans.  The commands run one after another
through ``qsquare.cli.main`` with their stdout and stderr captured.  The
last line printed is JSON: the ``time.monotonic`` at which
``qsquare.cli`` finished importing, each command's exit code and
seconds, the calibrated seconds, the peak RSS, and, when traced, the
per-layer summary.  A plan with ``"probe": true`` stops after the import.

The host's CPU speed drifts by tens of percent within seconds, and
further over minutes, because other tenants share the machine; the
speed of one vCPU does not follow the other's.  So a timer signal
interrupts this process every ``SAMPLE_EVERY_S`` seconds to time a
small fixed loop.  Sampler time is taken out of every measured
interval, and calibrated seconds are the remaining seconds times
(``SAMPLE_REF_S`` / mean sample time in the interval) **
``SPEED_EXPONENT``: they equal wall seconds when the machine runs at
the reference speed.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

SAMPLE_EVERY_S = 0.05
# Typical time of ``speed_loop`` on the 2-core machine where the figures
# in baseline.json were taken (Python 3.11.7).  It only fixes the scale.
SAMPLE_REF_S = 0.0013
# Command time grows as sample time to this power: the slope of log
# command seconds against log mean sample time, fitted over about 150
# repetitions of the three workloads there, was 0.73-0.75 for each
# (correlation 0.95-0.98).  Scaling by the full ratio over-corrects.
SPEED_EXPONENT = 0.75


def speed_loop() -> None:
    """A fixed loop with qsq's mix of work: tuples, dict lookups and
    updates, list appends and string formatting."""
    last: dict[int, int] = {}
    lines = []
    for i in range(1500):
        gate = (i & 4095, (i >> 2) & 255, None)
        last[gate[0]] = max(last.get(gate[0], 0), gate[1]) + 1
        lines.append(f"cx q[{gate[0]}], q[{gate[1]}];")
    "\n".join(lines)


class SpeedSampler:
    """Times ``speed_loop`` on every SIGALRM tick."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (start, seconds)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        speed_loop()
        self.samples.append((start, time.perf_counter() - start))

    def calibrate(self, start: float, end: float) -> dict[str, float]:
        """Seconds of [start, end] not spent sampling ("own"), the same
        calibrated, and the seconds spent sampling.  Takes one sample now
        if none fell in the interval."""
        inside = [s for t, s in self.samples if start <= t <= end]
        sampling = sum(inside)
        if not inside:
            self._sample()
            inside = [self.samples[-1][1]]
        own = end - start - sampling
        return {"own": own, "sampling": sampling,
                "calibrated": own * (SAMPLE_REF_S * len(inside) / sum(inside)) ** SPEED_EXPONENT}


def run_command(cli, argv: list[str]) -> dict:
    sink = io.StringIO()
    error = None
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            rc = exc.code
        except Exception:  # a crash is a failed command, not a failed run
            rc, error = None, traceback.format_exc(limit=3)
    return {"rc": rc, "start": start, "end": time.perf_counter(), "error": error}


def main() -> None:
    started = time.perf_counter()
    sampler = SpeedSampler()
    sampler.start()
    plan = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    sys.path.insert(0, plan["src"])
    import qsquare.cli
    imported = time.monotonic()
    # the part of set-up this process sees, which scales all of it
    out: dict = {"imported": imported,
                 "import": sampler.calibrate(started, time.perf_counter())}
    if not plan.get("probe"):
        tracer = None
        if plan.get("trace"):
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        commands = []
        for i, argv in enumerate(plan["commands"]):
            if tracer:
                tracer.command = i
            # look main up each time: with tracing it is the wrapper
            commands.append(run_command(qsquare.cli, argv))
        sampler.stop()
        out["commands"] = [
            {"rc": c["rc"], "error": c["error"],
             "seconds": sampler.calibrate(c["start"], c["end"])["own"]} for c in commands]
        out["wall"] = sampler.calibrate(commands[0]["start"], commands[-1]["end"])
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer:
            out["trace"] = tracer.summary()
            if plan.get("spans"):
                tracer.dump(Path(plan["spans"]))
    sampler.stop()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
