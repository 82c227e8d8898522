"""fracreact benchmark.

    python3 perfbench/run.py --workload fracture_80 --seed 1 --seconds 15 --trace 0

runs one workload in this process, from the root of a source checkout,
and prints its metrics; the last line of standard output is one JSON
object. With ``--trace 0`` it reports the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run. ``--workload all``
runs every workload, each in a fresh process, in an order shuffled by
``--seed`` (the workloads themselves have no random input).

A run sets its case up several times (``setup_s`` is the median) and
then repeats the whole time loop until ``--seconds`` have passed
(``run_s`` is the median loop). See README.md in this directory for the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("fracture_80", "network_clogging", "splitting_study",
             "fracture_320")

# set-ups per run: at least MIN_SETUPS, more while they sum to less than
# SETUP_SECONDS, at most MAX_SETUPS
MIN_SETUPS, SETUP_SECONDS, MAX_SETUPS = 3, 1.0, 200
# the tail is the highest percentile with TAIL_BEYOND samples beyond it
TAIL_BEYOND = 10
# stop starting new loops after this, whatever --seconds asks
MAX_LOOP_SECONDS = 120.0

# Layer metrics that must read above 0 on the workloads that exercise
# them; a 0 there means a binding was missed. refine_rounds,
# fallback_accepts and chemistry.events are 0 on every workload at the
# seed commit, so they are not listed.
_ALL = ("mesh.build_s", "discretize.topology_s", "scenarios.setup_self_s",
        "linsolve.factor_ms", "linsolve.trisolve_ms", "linsolve.lu_nnz",
        "linsolve.factorizations_per_step", "linsolve.assemble_ms",
        "linsolve.solve_self_ms", "linsolve.solves_per_step",
        "linsolve.matrix_nnz", "physics.solute_ms",
        "physics.assembly_self_ms", "discretize.transmissibility_ms",
        "chemistry.react_ms", "splitting.step_self_ms")
_FLOW = ("physics.flow_ms", "physics.heat_ms")
EXERCISED = {
    "fracture_80": _ALL + _FLOW + ("output.vtk_ms", "output.vtk_mb",
                                   "output.balance_ms"),
    "network_clogging": _ALL + _FLOW + ("constitutive.clamp_events",),
    "splitting_study": _ALL + ("splitting.reference_ms",),
    "fracture_320": _ALL + _FLOW,
}


def import_program():
    """Import fracreact from this checkout's src/, or exit non-zero."""
    if not os.path.isfile(os.path.join(SRC, "fracreact", "__init__.py")):
        sys.exit(f"benchmark: no fracreact sources under {SRC}")
    sys.path.insert(0, SRC)
    import fracreact
    if not os.path.abspath(fracreact.__file__).startswith(SRC + os.sep):
        sys.exit(f"benchmark: imported fracreact from {fracreact.__file__}, "
                 f"not from {SRC}")


def environment() -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS",
                                                   "unset")}


def window_size(ops_per_loop: int) -> int:
    """Operations per tail window: whole loops, at least TAIL_BEYOND + 1."""
    loops = -(-(TAIL_BEYOND + 1) // ops_per_loop)
    return loops * ops_per_loop


def tail(samples: list[float], window: int) -> tuple[float, float, int]:
    """The highest percentile with TAIL_BEYOND samples beyond it, taken
    in each window of ``window`` consecutive operations; returns the
    median over windows, the percentile and the number of windows.

    A window holds whole time loops, so the percentile is fixed by the
    workload and does not move with the speed of the program. A run too
    short for one window reports its slowest operation (p100).
    """
    tails = [sorted(samples[i:i + window])[window - TAIL_BEYOND - 1]
             for i in range(0, len(samples) - window + 1, window)]
    if not tails:
        return max(samples), 100.0, 0
    return (statistics.median(tails), 100.0 * (window - TAIL_BEYOND) / window,
            len(tails))


class Run:
    """One workload measured in this process."""

    def __init__(self, name, seconds, scratch_dir):
        import workloads
        from fracreact.errors import FracReactError
        self.workloads = workloads
        self.error = FracReactError
        self.workload = workloads.make(name, scratch_dir)
        self.name = name
        self.seconds = seconds
        self.rec = workloads.OpRecorder()
        self.faults: list[str] = []
        self.first_output = None
        self.window = 0

    def setups(self, build) -> tuple[object, list[float]]:
        times = []
        case = None
        while (len(times) < MIN_SETUPS
               or (sum(times) < SETUP_SECONDS and len(times) < MAX_SETUPS)):
            case = None
            t0 = perf_counter()
            case = build()
            times.append(perf_counter() - t0)
        return case, times

    def loop(self, case) -> float:
        """One whole time loop; returns its seconds without the checks."""
        rec = self.rec
        check_s = rec.check_s
        ops = len(rec.times)
        t0 = perf_counter()
        try:
            outcome = self.workload.loop(case, rec)
        except self.error as exc:
            rec.attempted += 1
            rec.fail(f"{type(exc).__name__}: {exc}")
            raise
        elapsed = perf_counter() - t0 - (rec.check_s - check_s)
        output = self.workload.verify(case, outcome, rec)
        if self.first_output is None:
            self.first_output = output
            self.window = window_size(len(rec.times) - ops)
            self.faults += self.workloads.signature_faults(
                output, self.workload.expected)
        elif output != self.first_output:
            self.faults.append("outputs differ between two runs of the loop")
        return elapsed

    def repeat(self, case, loop, least: int) -> list:
        """Call ``loop(case)`` at least ``least`` times and until
        --seconds have passed."""
        results = []
        t0 = perf_counter()
        while len(results) < least or perf_counter() - t0 < self.seconds:
            if perf_counter() - t0 > MAX_LOOP_SECONDS:
                self.faults.append("time limit reached before enough loops")
                break
            try:
                results.append(loop(case))
            except self.error:
                break
        if not results:
            raise RuntimeError(f"{self.name}: no time loop completed: "
                               + "; ".join(self.rec.messages))
        return results

    def end_to_end(self) -> dict:
        case, setups = self.setups(self.workload.setup)
        runs = self.repeat(case, self.loop, 1)
        times = self.rec.times
        value, pct, windows = tail(times, self.window)
        print(f"set-up: {len(setups)} builds; time loop: {len(runs)} runs, "
              f"{len(times)} operations")
        if windows:
            print(f"tail: p{pct:.2f} of each window of {self.window} "
                  f"operations ({TAIL_BEYOND} beyond it), median over "
                  f"{windows} windows")
        else:
            print(f"tail: fewer than {self.window} operations, so the "
                  f"slowest of {len(times)} (p100)")
        return {
            "setup_s": (statistics.median(setups), "s"),
            "run_s": (statistics.median(runs), "s"),
            "step_ms_p50": (1e3 * statistics.median(times), "ms"),
            "step_ms_tail": (1e3 * value, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
        }

    def layers(self) -> dict:
        import tracing
        tracer = tracing.Tracer()
        setups = []

        def build():
            tracer.reset()
            case = tracer.wrap(tracing.SETUP, self.workload.setup)()
            setups.append(tracing.setup_layers(tracer))
            return case

        tracer.install()
        try:
            case, _ = self.setups(build)
        finally:
            tracer.uninstall()

        untraced, loops = [], []

        def loop_pair(case):
            """An untraced loop, then a traced one; returns the traced
            loop's seconds."""
            untraced.append(self.loop(case))
            tracer.reset()
            tracer.install()
            try:
                ops = len(self.rec.times)
                seconds = self.loop(case)
            finally:
                tracer.uninstall()
            loops.append(tracing.loop_layers(tracer, len(self.rec.times) - ops))
            return seconds

        runs = self.repeat(case, loop_pair, 2)

        times, counted, repeat, self_times = loops[0]
        for other in loops[1:]:
            if other[2] != repeat:
                diff = sorted(k for k in set(repeat) | set(other[2])
                              if repeat.get(k) != other[2].get(k))
                self.faults.append(f"counts differ between traced runs: {diff}")
                break
        metrics = {name: (value, "s")
                   for name, value in tracing.median_of(setups).items()}
        for name, value in tracing.median_of([l[0] for l in loops]).items():
            metrics[name] = (value, "ms/snapshot" if name == "output.vtk_ms"
                             else "ms/step")
        for name, value in counted.items():
            unit = ("MB/snapshot" if name == "output.vtk_mb" else
                    "count/step" if name.endswith("_per_step") else "count")
            metrics[name] = (value, unit)
        overhead = statistics.median(runs) - statistics.median(untraced)
        metrics["trace.overhead_s"] = (overhead, "s")
        metrics["trace.overhead_pct"] = (
            100.0 * overhead / statistics.median(untraced), "%")
        for name in EXERCISED[self.name]:
            if not metrics[name][0] > 0:
                self.faults.append(f"layer metric {name} reads 0 on "
                                   f"{self.name}: a binding is missing")
        print(f"traced: {len(setups)} builds; {len(runs)} traced loops "
              f"(counts compared between them), each after an untraced one")
        print("self time by span, ms per operation (first traced loop):")
        for span, ms in self_times:
            print(f"  {span:40s} {ms:12.4f}")
        return metrics


def measure(args) -> int:
    import_program()
    print(f"fracreact benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds} s, trace {args.trace}")
    print("environment: " + ", ".join(f"{k} {v}"
                                      for k, v in environment().items()))
    scratch_root = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(scratch_root, exist_ok=True)
    scratch = tempfile.mkdtemp(dir=scratch_root)
    try:
        run = Run(args.workload, args.seconds, scratch)
        try:
            metrics = run.layers() if args.trace else run.end_to_end()
        finally:
            run.workload.close()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(scratch_root)
        except OSError:            # another run is using it
            pass
    rec = run.rec
    for message in rec.messages + run.faults:
        print(f"FAIL: {message}")
    print("metrics:")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:16.6f} {unit}")
    print(f"operations: {rec.attempted} attempted, {rec.failed} failed")
    result = {"correct": rec.failed == 0 and not run.faults,
              "attempted": rec.attempted, "failed": rec.failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


def measure_all(args) -> int:
    """Every workload in a fresh process, in seed-shuffled order."""
    order = list(WORKLOADS)
    random.Random(args.seed).shuffle(order)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in order:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]) + "\n")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return measure_all(args) if args.workload == "all" else measure(args)


if __name__ == "__main__":
    sys.exit(main())
