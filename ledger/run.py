"""Performance ledger: fixed workloads on two clocks, layer by layer.

Runs one workload in this process, a closed loop with one caller, and
prints a report followed by one JSON line::

    python3 ledger/run.py --workload attention-fwd --seed 0 --seconds 38 --trace 0

``--trace 0`` measures with tracing off and reports the end-to-end
metrics: ``setup_s`` (median of several set-ups), ``step_ms_p50``,
``step_ms_tail`` (the step time with ten samples beyond it), ``sim_ms``
(simulated V100 ms per step), ``peak_rss_mb`` and ``ok_frac`` (operations
that passed their checks over operations attempted; the report also
prints its complement, ``fail_frac``).

``--trace 1`` alternates untraced steps with steps that have every layer
boundary wrapped (see ``spans.py``) and reports per-step calls and self
times per layer, the simulated phases, and trace health.

Simulated times come from the repository's V100 model, which no real-V100
measurement has validated: they are labelled ``sim`` and carry no error
figure. The command reads ``src/`` of the checkout it lives in and writes
no files of its own.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPS = 5
#: Samples that must lie beyond the reported tail step time.
TAIL_BEYOND = 10
#: A run always measures at least this many steps (enough for the tail).
MIN_STEPS = TAIL_BEYOND + 1
#: ``sim_ms``, ``sim_digest`` and the ``sim.*`` phases cover the first
#: this-many steps of a kind (rigl-train mutates its topology, so later
#: steps simulate differently). Only these steps' results are kept, so the
#: harness holds the same memory however many steps a run completes.
SIM_STEPS = 8
#: BLAS threads. One: a multi-threaded GEMM stalls whenever any of its
#: cores is taken by another process, so on a shared host its step time
#: follows the neighbours' load (with one busy neighbour on a 2-core
#: host, attention-fwd slowed by 40-75% at two threads and by 0-15% at one).
BLAS_THREADS = 1


def pin_environment(threads: int) -> None:
    """Fix the library's knobs before NumPy (and its BLAS) is imported."""
    for var in ("REPRO_FLIGHT", "REPRO_FLIGHT_DIR", "REPRO_HBM_CAP"):
        os.environ.pop(var, None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)


def import_repro() -> None:
    """Import ``repro`` from this checkout's ``src/``, and nothing else."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != src / "repro":
        raise ImportError(f"repro resolved outside {src}: {repro.__file__}")


class Tally:
    """Operations attempted and failed, for ``ok_frac``."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def add(self, counts: tuple[int, int]) -> None:
        self.attempted += counts[0]
        self.failed += counts[1]


def run_steps(workload, seconds: float, tally: Tally, tracing=None):
    """Step until ``seconds`` pass and every kind of step ran MIN_STEPS times.

    With ``tracing`` (a :class:`spans.Tracing`), steps alternate untraced
    and traced, so both kinds see the same host conditions; the wrappers
    are swapped in only around the timed step. Returns, per kind (untraced
    first), the walls of the steps that did not raise and the simulated
    records of the first SIM_STEPS of them; a step that raises fails all
    of its operations.
    """
    kinds = 1 if tracing is None else 2
    runs = tuple(([], []) for _ in range(kinds))
    deadline = time.perf_counter() + seconds
    attempts = 0
    while attempts < kinds * MIN_STEPS or time.perf_counter() < deadline:
        traced = attempts % kinds == 1
        attempts += 1
        # Every step starts from a collected heap, so neither a step's time
        # nor peak_rss_mb depends on how many steps left cyclic garbage
        # (a dead ExecutionContext is only freed by the cycle collector).
        gc.collect()
        try:
            workload.before()
            if traced:
                tracing.apply()
            try:
                start = time.perf_counter()
                step_records = workload.step(tracing.rec if traced else None)
                wall = time.perf_counter() - start
            finally:
                if traced:
                    tracing.revert()
            tally.add(workload.check(step_records))
        except Exception:
            traceback.print_exc(file=sys.stderr)
            tally.add((workload.ops_per_step, workload.ops_per_step))
            continue
        walls, records = runs[traced]
        walls.append(wall)
        if len(records) < SIM_STEPS:
            records.append(step_records)
    for walls, _ in runs:
        if len(walls) < MIN_STEPS:
            raise RuntimeError(
                f"only {len(walls)} of {MIN_STEPS} required steps succeeded"
            )
    return runs


def calibrate(reps: int = 5) -> float:
    """Median ms of a fixed interpreter + BLAS loop (host-speed reference)."""
    import numpy as np

    a = np.linspace(0.0, 1.0, 256 * 256).reshape(256, 256)
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        for _ in range(20):
            a = a @ a
            a /= np.abs(a).max()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def sim_ms(step_records) -> float:
    return sum(r.runtime_s for r in step_records) * 1e3


def setup_once(workload, seed: int) -> float:
    gc.collect()
    start = time.perf_counter()
    workload.setup(seed)
    return time.perf_counter() - start


def end_to_end(workload, args, report):
    """The untraced run: every end-to-end metric."""
    from workloads import digest

    setups = [setup_once(workload, args.seed) for _ in range(SETUP_REPS)]
    workload.prepare()
    tally = Tally()
    ((walls, records),) = run_steps(workload, args.seconds, tally)
    tally.add(workload.finish())

    n = len(walls)
    ordered = sorted(walls)
    tail = ordered[n - TAIL_BEYOND - 1]
    tail_pct = 100.0 * (n - TAIL_BEYOND) / n
    sim = statistics.fmean(sim_ms(r) for r in records)
    sim_digest = digest([r for step in records for r in step])
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "step_ms_p50": (statistics.median(walls) * 1e3, "ms"),
        "step_ms_tail": (tail * 1e3, "ms"),
        "sim_ms": (sim, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "ok_frac": (1.0 - tally.failed / tally.attempted, "frac"),
    }
    report.append(
        f"setup: {SETUP_REPS} set-ups, s = "
        + ", ".join(f"{s:.4f}" for s in setups)
    )
    report.append(
        f"steps: {n} measured; tail = p{tail_pct:.1f} "
        f"({TAIL_BEYOND} of {n} samples beyond it)"
    )
    report.append(
        f"sim: unvalidated V100 model, no error figure; sim_ms and "
        f"sim_digest over the first {len(records)} steps"
    )
    report.append(f"sim_digest: {sim_digest}")
    report.append(
        f"fail_frac: {tally.failed / tally.attempted:.6g} "
        f"({tally.failed} of {tally.attempted} operations)"
    )
    return metrics, tally


def layered(workload, args, report):
    """The traced run: per-layer metrics and trace health."""
    import spans

    setup_once(workload, args.seed)
    workload.prepare()
    calib = calibrate()
    tally = Tally()
    rec = spans.Recorder()
    (plain, _), (walls, records) = run_steps(
        workload, args.seconds, tally, spans.Tracing(rec)
    )
    tally.add(workload.finish())

    steps = len(walls)
    wall_ms = statistics.fmean(walls) * 1e3
    metrics = {}
    attributed = 0.0
    for name in spans.MODULE_LAYERS:
        calls, self_s = rec.stats.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = (calls / steps, "count")
        metrics[f"{name}.self_ms"] = (self_s * 1e3 / steps, "ms")
        attributed += self_s * 1e3 / steps
    counters = rec.counters
    hits = counters["ops.plan.hits"]
    misses = counters["ops.plan.misses"]
    metrics["ops.plan.hits"] = (hits / steps, "count")
    metrics["ops.plan.misses"] = (misses / steps, "count")
    metrics["ops.plan.repairs"] = (counters["ops.plan.repairs"] / steps, "count")
    metrics["ops.plan.hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0, "frac"
    )
    launches = counters["gpu.launches"]
    gpu_self_s = rec.stats.get("gpu.cost", (0, 0.0))[1]
    metrics["gpu.launches"] = (launches / steps, "count")
    metrics["gpu.host_us_per_launch"] = (
        gpu_self_s * 1e6 / launches if launches else 0.0, "us"
    )
    metrics["sparse.numerics.mb"] = (
        counters["sparse.numerics.bytes"] / 1e6 / steps, "MB"
    )
    for name in spans.MODEL_LAYERS:
        self_s = rec.stats.get(name, (0, 0.0))[1]
        metrics[f"{name}.self_ms"] = (self_s * 1e3 / steps, "ms")
        if name not in spans.NO_SIM_LAYERS:
            sim_s = rec.model_sim[name]
            metrics[f"{name}.sim_ms"] = (sim_s * 1e3 / steps, "ms")
    phases = dict.fromkeys(
        ("compute", "l1", "l2", "dram", "imbalance", "overhead"), 0.0
    )
    dram_bytes = 0.0
    for step in records:
        for r in step:
            dram_bytes += r.dram_bytes
            if r.phases is not None:
                for key, value in r.phases.as_dict().items():
                    phases[key] += value
    sim_steps = len(records)
    for key, value in phases.items():
        metrics[f"sim.{key}_us"] = (value * 1e6 / sim_steps, "us")
    metrics["sim.dram_mb"] = (dram_bytes / 1e6 / sim_steps, "MB")
    plain_p50 = statistics.median(plain)
    metrics["host.calib_ms"] = (calib, "ms")
    metrics["bench.traced_step_ms"] = (wall_ms, "ms")
    metrics["bench.trace_overhead_frac"] = (
        statistics.median(walls) / plain_p50 - 1.0, "frac"
    )
    metrics["bench.unattributed_ms"] = (wall_ms - attributed, "ms")

    report.append(
        f"trace: {len(plain)} untraced + {steps} traced steps; "
        f"traced step {wall_ms:.2f} ms, unattributed "
        f"{wall_ms - attributed:.2f} ms "
        f"({(wall_ms - attributed) / wall_ms:.1%})"
    )
    for name in workload.findings:
        ms = metrics[f"{name}.self_ms"][0]
        report.append(
            f"finding: {name} self {ms:.3f} ms per step = "
            f"{ms / wall_ms:.1%} of the traced step"
        )
    return metrics, tally


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    threads = BLAS_THREADS
    pin_environment(threads)
    import_repro()
    import numpy
    import scipy
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    report = [
        f"workload: {workload.name} (closed loop, one caller, one process)",
        f"why: {workload.why}",
        f"env: python {platform.python_version()}, numpy "
        f"{numpy.__version__}, scipy {scipy.__version__}, nproc "
        f"{os.cpu_count()}, blas threads {threads}, seed {args.seed}, "
        f"seconds {args.seconds:g}, trace {args.trace}",
    ]
    measure = layered if args.trace else end_to_end
    metrics, tally = measure(workload, args, report)
    for line in report:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
