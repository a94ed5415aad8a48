"""Benchmark of gapsmith: four seeded workloads, end-to-end and per-layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload weak-dense --seed 1 --seconds 20 --trace 0

Every run is one process and one thread.  It times set-up (importing the
package and building the seeded inputs) in itself and in three fresh
interpreters, runs an untimed warm-up, then measures for ``--seconds`` of
operation time (longer if fewer than 100 operations completed).  Each
output is checked outside the timed operations.  Times are reported at
reference host speed (see calibrate.py).  ``--trace 0`` reports the
end-to-end metrics.  ``--trace 1`` measures untraced for 40% of the time,
then replays the same operations with every package function wrapped in a
span, and reports per-layer metrics per operation and the tracing overhead.
The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench.calibrate import REF_S, settled_factor, time_kernel  # noqa: E402
from perfbench.exact import CheckFailed  # noqa: E402

PROBES = 3  # fresh interpreters timing set-up, besides the run itself
WARMUP_S = 2.0
MIN_OPS = 100  # so that at least ten samples lie beyond the 90th percentile
MAX_STRETCH = 2.0  # the timed phase never runs past this many --seconds
TRACE_SHARE = 0.4  # --trace 1: untraced share of --seconds, then replayed traced

# name -> unit; every workload reports all of them with --trace 0.
END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ops_per_s": "1/s",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
    "max_den_bits": "bits",
    "out_pieces": "pieces/op",
}

# Per-layer metrics with --trace 1.  "calls" and "self_s" come from spans,
# everything else from counters; all are per operation of the traced phase.
SPAN_METRICS = [
    "plmap.compose.calls", "plmap.compose.self_s",
    "pointset.gaps.calls", "pointset.gaps.self_s",
    "pointset.normalize.self_s", "plmap.image.self_s",
    "debreu.remove_one.calls", "debreu.remove_one.self_s",
    "plmap.threshold_equiv.self_s", "plmap.is_strictly_increasing_on.self_s",
    "plmap.certificate_points.self_s",
    "pointset.contains.calls", "pointset.contains.self_s",
    "plmap.apply.calls", "plmap.apply.self_s",
    "threshold.sup_norm.self_s", "threshold.apply_plan.self_s",
    "threshold.remove_strong.self_s", "threshold.remove_epsilon.self_s",
    "structure.check_all.self_s",
    "structure.analyze_gap.calls", "structure.analyze_gap.self_s",
    "structure.co_frame_chains.self_s",
    "pointset.members_in_interval.self_s", "pointset.closure_gap.calls",
    "threshold.plan_gap.calls", "threshold.plan_gap.self_s",
    "cli.execute.self_s",
    "semiorder.canonical_form.calls", "semiorder.canonical_form.self_s",
    "semiorder.enumerate_semiorders.self_s",
    "semiorder.synthesize_ss.self_s",
    "semiorder.check_axioms.calls", "semiorder.check_axioms.self_s",
    "semiorder.trace.calls",
]
COUNTER_METRICS = [
    "plmap.compose.pieces_out", "plmap.threshold_equiv.pairs",
    "plmap.certificate_points.points", "structure.probes",
    "threshold.plan_pieces", "pointset.unit_partition.cells",
    "semiorder.canonical_form.perms", "semiorder.candidates", "cli.bytes_out",
]
PER_LAYER = {
    **{m: ("calls/op" if m.endswith(".calls") else "s/op") for m in SPAN_METRICS},
    **{m: "count/op" for m in COUNTER_METRICS},
    "plmap.den_bits_max": "bits",
    "semiorder.accept_ratio": "ratio",
    "setup.import_s": "s",
    "setup.inputs_s": "s",
    "trace.op_s": "s/op",
    "trace.layers_self_s": "s/op",
    "trace.unlisted_self_s": "s/op",
    "trace.coverage": "ratio",
    "trace.ops_per_s": "1/s",
    "trace.untraced_ops_per_s": "1/s",
    "trace.overhead": "ratio",
}


class Recorder:
    """Checks outputs: the first one of each key in full, later ones against it.

    Only a hash of each first output is kept, so memory does not grow with
    the number of inputs a run reaches.
    """

    def __init__(self, workload):
        self.workload = workload
        self.prints: dict = {}  # key -> hash of the first output's fingerprint
        self.checked: dict = {}  # key -> Checked
        self.bad_keys: dict = {}  # key -> reason

    def record(self, task, output, error) -> bool:
        """Record one finished task; False when this execution failed."""
        key = task.key
        if error is not None:
            self.bad_keys.setdefault(key, error)
            return False
        try:
            fingerprint = hash(self.workload.fingerprint(key, output))
            if key not in self.prints:
                self.prints[key] = fingerprint
                self.checked[key] = self.workload.check(key, output)
        except CheckFailed as exc:
            self.bad_keys.setdefault(key, str(exc))
            return False
        except Exception:  # an output that cannot be read back or checked
            self.bad_keys.setdefault(key, traceback.format_exc(limit=3))
            return False
        return fingerprint == self.prints[key] and key not in self.bad_keys


class Phase:
    """One stretch of task runs.  Times are seconds at reference host speed."""

    def __init__(self) -> None:
        self.latencies: list[float] = []  # of every counted operation
        self.keys: list = []  # key of every counted operation
        self.executions: list[tuple] = []  # (key, ran cleanly) of every task run
        self.busy = 0.0  # inside tasks, enumerations included
        self.busy_measured = 0.0  # the same, in measured seconds

    @property
    def ops_per_s(self) -> float:
        return len(self.latencies) / self.busy


def run_phase(workload, recorder, cursor: list, seconds: float, min_ops: int,
              tracer=None, tasks_run: int = 0) -> Phase:
    """Cycle through the tasks for ``seconds``; ``cursor`` carries the position.

    With ``tasks_run`` the phase runs exactly that many tasks instead.  A
    workload with ``whole_passes`` stops only at the end of its task list.
    """
    tasks = workload.tasks
    phase = Phase()
    kernel_before = time_kernel()
    while True:
        task = tasks[cursor[0] % len(tasks)]
        cursor[0] += 1
        error = output = None
        t0 = perf_counter()
        try:
            output = task.run() if tracer is None else tracer.root(task.run)
        except Exception:
            error = traceback.format_exc(limit=3)
        took = perf_counter() - t0
        kernel_after = time_kernel()
        latency = took * REF_S / ((kernel_before + kernel_after) / 2)
        kernel_before = kernel_after
        phase.busy += latency
        phase.busy_measured += took
        if task.counted:
            phase.latencies.append(latency)
            phase.keys.append(task.key)
        phase.executions.append((task.key, recorder.record(task, output, error)))
        if tracer is not None and hasattr(workload, "bytes_out") and error is None:
            tracer.counts["cli.bytes_out"] += workload.bytes_out(task.key)
        if tasks_run:
            if len(phase.executions) == tasks_run:
                break
            continue
        at_boundary = not workload.whole_passes or cursor[0] % len(tasks) == 0
        measured = phase.busy_measured
        if measured >= seconds and len(phase.latencies) >= min_ops and at_boundary:
            break
        if measured >= seconds * MAX_STRETCH and at_boundary:
            break
    return phase


def count_failures(phases, recorder) -> tuple[int, int]:
    """An execution fails if it raised, differs from the first output of its
    input, or that first output failed its check."""
    runs = [run for p in phases for run in p.executions]
    failed = sum(1 for key, clean in runs if not clean or key in recorder.bad_keys)
    return len(runs), failed


def setup(name: str, seed: int, workdir: str):
    """Import the package and build the inputs.

    Returns the workload and the import and input-building times, both in
    seconds at reference host speed.
    """
    t0 = perf_counter()
    sys.path.insert(0, SRC)
    import gapsmith  # noqa: F401  (the import is what is timed)
    import gapsmith.cli  # noqa: F401
    from perfbench import workloads

    if not os.path.abspath(gapsmith.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported gapsmith from {gapsmith.__file__}, not {SRC}")
    t1 = perf_counter()
    workload = workloads.WORKLOADS[name](seed, workdir)
    workload.build()
    t2 = perf_counter()
    factor = settled_factor()
    return workload, (t1 - t0) * factor, (t2 - t1) * factor


def probe_setup(args) -> tuple[float, float]:
    command = [sys.executable, os.path.abspath(__file__), "--probe",
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    sample = json.loads(done.stdout.strip().splitlines()[-1])
    return sample["import_s"], sample["inputs_s"]


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (q in 1..99) by statistics.quantiles."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(setup_s, phase, checked, attempted, failed) -> dict:
    ms = [x * 1000 for x in phase.latencies]
    keys = [k for k in phase.keys if k in checked]
    return {
        "setup_s": setup_s,
        "op_p50_ms": statistics.median(ms),
        "op_p90_ms": quantile(ms, 90),
        "ops_per_s": phase.ops_per_s,
        "ok_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "max_den_bits": statistics.fmean(checked[k].den_bits for k in keys) if keys else 0,
        "out_pieces": statistics.fmean(checked[k].pieces for k in keys) if keys else 0,
    }


def per_layer(tracer, traced: Phase, untraced: Phase, import_s, inputs_s) -> dict:
    from perfbench.tracing import ROOT as OP_SPAN

    ops = len(traced.latencies)
    factor = traced.busy / traced.busy_measured
    self_s = {k: v * factor for k, v in tracer.self_s.items()}
    out: dict = {}
    for m in SPAN_METRICS:
        layer, field = m.rsplit(".", 1)
        source = tracer.calls if field == "calls" else self_s
        out[m] = source.get(layer, 0) / ops
    for m in COUNTER_METRICS:
        out[m] = tracer.counts.get(m, 0) / ops
    out["plmap.den_bits_max"] = tracer.maxima.get("plmap.den_bits_max", 0)
    candidates = tracer.counts.get("semiorder.candidates", 0)
    out["semiorder.accept_ratio"] = (
        tracer.counts.get("semiorder.found", 0) / candidates if candidates else 0)
    out["setup.import_s"] = import_s
    out["setup.inputs_s"] = inputs_s
    op_s = traced.busy / ops
    layers = tracer.layer_self_s() * factor / ops
    listed = {m.rsplit(".", 1)[0] for m in SPAN_METRICS if m.endswith(".self_s")}
    out["trace.op_s"] = op_s
    out["trace.layers_self_s"] = layers
    out["trace.unlisted_self_s"] = sum(
        v for k, v in self_s.items() if k not in listed and k != OP_SPAN) / ops
    out["trace.coverage"] = layers / op_s
    out["trace.ops_per_s"] = traced.ops_per_s
    out["trace.untraced_ops_per_s"] = untraced.ops_per_s
    out["trace.overhead"] = traced.busy / untraced.busy - 1
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["weak-dense", "strong-clusters", "strong-wide-span",
                                 "semiorder-n5"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gapsmith", "__init__.py")):
        print(f"perfbench: no package source at {SRC}; run from a gapsmith checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    workload, import_s, inputs_s = setup(args.workload, args.seed, workdir)
    try:
        if args.probe:
            print(json.dumps({"import_s": import_s, "inputs_s": inputs_s}))
            return 0
        return measure(args, workload, import_s, inputs_s)
    finally:
        workload.close()


def measure(args, workload, import_s, inputs_s) -> int:
    samples = [(import_s, inputs_s)] + [probe_setup(args) for _ in range(PROBES)]
    setup_s = statistics.median(a + b for a, b in samples)
    recorder = Recorder(workload)
    cursor = [0]
    run_phase(workload, recorder, cursor, WARMUP_S, 1)
    if args.trace:
        from perfbench.tracing import Tracer

        # The traced phase replays the untraced phase's tasks, so the two
        # elapsed times compare the same work.
        start = cursor[0]
        untraced = run_phase(workload, recorder, cursor, args.seconds * TRACE_SHARE, 1)
        cursor[0] = start
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_phase(workload, recorder, cursor, 0, 0, tracer,
                               tasks_run=len(untraced.executions))
        finally:
            tracer.uninstall()
        phases = [untraced, traced]
    else:
        timed = run_phase(workload, recorder, cursor, args.seconds, MIN_OPS)
        phases = [timed]
    checked = recorder.checked
    attempted, failed = count_failures(phases, recorder)
    if args.trace:
        metrics = per_layer(tracer, traced, untraced,
                            statistics.median(a for a, _ in samples),
                            statistics.median(b for _, b in samples))
        units = PER_LAYER
    else:
        metrics = end_to_end(setup_s, timed, checked, attempted, failed)
        units = END_TO_END
    for key, reason in recorder.bad_keys.items():
        print(f"FAILED input {key!r}: {reason}")
    print(f"{args.workload}: {sum(len(p.latencies) for p in phases)} ops, "
          f"fail_ratio {failed}/{attempted}")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:14.6g} {units[name]}")
    result = {
        "correct": failed == 0 and not recorder.bad_keys,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
