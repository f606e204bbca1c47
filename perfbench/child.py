"""One benchmark round: a fresh interpreter that sets up a workload and runs its ops.

Started by ``run.py``; writes one JSON object per line to stdout:

* ``{"ready": t}`` once the library is imported and the inputs exist
  (``t`` is ``time.monotonic()``, which the parent compares with its own);
* one ``{"op": i, ...}`` line per operation, with its latency, the
  reference time beside it, its output digest, domain-check verdict and
  any error;
* ``{"done": ...}`` with the timed loop's wall time, peak RSS and, in a
  traced round, the per-layer totals.

The reference task is a fixed piece of pure-Python work that does not touch
the library.  The host's speed changes by up to twofold in bursts of a
fraction of a second to minutes, and the reference task slows with it.  A
``SpeedProbe`` times it in a row before and after every operation and, from
a timer signal, every few milliseconds during it; an op's latency divided
by the mean probe time measures the program, not the moment.

Exit code 3 means set-up failed, for instance because the library is not
in ``src/`` next to this directory.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import signal
import statistics
import sys
import tempfile
import time
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")


# Steps of one probe: about 0.2 ms on a 2-core x86 VM at its fast speed.
PROBE_STEPS = 40
PROBE_INTERVAL_S = 0.01
EDGE_PROBES = 9
# Share of probe times dropped at each end: a probe preempted by the
# kernel reads many times too long.
TRIM = 0.1


def reference_task(steps: int) -> int:
    """Fixed Fraction and dict work."""
    x = Fraction(3, 7)
    table: dict = {}
    for i in range(1, steps + 1):
        f = Fraction(i % 97 + 1, 101) * x + Fraction(1, i % 13 + 2)
        key = (i % 61, f.denominator % 29)
        table[key] = table.get(key, 0) + f.numerator
    return sum(table.values())


def trimmed_mean(values: list[float], trim: float = TRIM) -> float:
    """Mean of ``values`` without the lowest and the highest ``trim`` share."""
    ordered = sorted(values)
    cut = int(len(ordered) * trim)
    return statistics.fmean(ordered[cut:len(ordered) - cut])


class SpeedProbe:
    """Times the reference task before, during and after each operation.

    The probes during an op run from a SIGALRM handler every
    ``PROBE_INTERVAL_S``, so a burst of host contention shorter than the op
    is sampled in proportion to its length.  Their time is taken out of the
    op's latency.
    """

    def __init__(self):
        self.during: list[float] = []
        self.edge = self._row()
        signal.signal(signal.SIGALRM, self._tick)

    @staticmethod
    def probe_ms() -> float:
        gc.disable()  # a collection inside a probe would time the program's heap
        try:
            start = time.perf_counter()
            reference_task(PROBE_STEPS)
            return (time.perf_counter() - start) * 1000
        finally:
            gc.enable()

    def _row(self) -> list[float]:
        return [self.probe_ms() for _ in range(EDGE_PROBES)]

    def _tick(self, signum, frame) -> None:
        self.during.append(self.probe_ms())

    def start(self) -> None:
        self.during = []
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> tuple[float, float]:
        """Ends an op's probes; returns (ms they took inside it, reference ms)."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        during = self.during
        before, self.edge = self.edge, self._row()
        return sum(during), trimmed_mean(before + during + self.edge)


def _emit(record: dict) -> None:
    sys.__stdout__.write(json.dumps(record) + "\n")
    sys.__stdout__.flush()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _import_library():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import reserve2d

    if not os.path.abspath(reserve2d.__file__).startswith(src + os.sep):
        raise ImportError(f"reserve2d was imported from {reserve2d.__file__}, not {src}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--variant", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        try:
            _import_library()
            import tracing
            from reserve2d import roster
            from workloads import WORKLOADS

            recorder = tracing.Recorder() if args.trace else None
            if recorder is not None:
                tracing.install(recorder)
            workload = WORKLOADS[args.workload](args.seed, args.variant, workdir)
        except Exception:
            traceback.print_exc()
            return 3
        _emit({"ready": time.monotonic(), "ops": len(workload.ops), "size": workload.size()})
        if args.setup_only:
            return 0

        loop_start = time.perf_counter()
        probe = SpeedProbe()
        for index, op in enumerate(workload.ops):
            record = {"op": index}
            probe.start()
            start = time.perf_counter()
            try:
                out = workload.run(op)
            except MemoryError:
                out, record["error"] = None, "MemoryError"
            except Exception as err:
                out, record["error"] = None, f"{type(err).__name__}: {err}"
            elapsed_ms = (time.perf_counter() - start) * 1000
            probed_ms, record["ref_ms"] = probe.stop()
            record["ms"] = elapsed_ms - probed_ms
            if out is not None:
                try:
                    record["digest"], record["ok"], record["counts"] = workload.check(op, out)
                except MemoryError:
                    record["error"] = "MemoryError while checking the output"
            if recorder is not None:
                record["memo_states"] = tracing.memo_states(roster)
            record["rss_mb"] = _peak_rss_mb()
            _emit(record)
        done = {"done": True, "loop_s": time.perf_counter() - loop_start, "rss_mb": _peak_rss_mb()}
        if recorder is not None:
            done["layers"] = tracing.layer_totals(recorder.spans)
            done["counters"] = recorder.counters
            trace_file = f"trace-{args.workload}-seed{args.seed}-variant{args.variant}.json"
            recorder.dump(os.path.join(OUT_DIR, trace_file))
            done["trace_file"] = trace_file
        _emit(done)
    return 0


if __name__ == "__main__":
    sys.exit(main())
