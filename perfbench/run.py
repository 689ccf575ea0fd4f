"""pqharmonic benchmark: one closed-loop client driving the package in-process.

    python3 perfbench/run.py --workload survey --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. Operations go back to back in a single
process with BLAS/OpenMP pinned to one thread. Each is ``cli.main(argv)``
with stdout and stderr captured, or ``variational.first_variation`` where no
CLI command exists. Every output is checked outside the timed region.

``--trace 0`` times whole blocks of operations for about ``--seconds`` (and
at least 100 operations) and reports the end-to-end metrics. ``--trace 1`` runs a fixed operation
list twice, untraced then traced, and reports the per-layer metrics. The
last line of stdout is the JSON result; the line before it records the
machine and the run's details.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import bench_checks
import bench_trace
import bench_workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MIN_OPS = 100           # so that ten samples lie beyond the 90th percentile
SETUP_PROBES = 7        # fresh interpreters timed per run; the median is reported
TRACE_BLOCKS = 2        # blocks of operations in each pass of a traced run
PROBE_TIMEOUT_S = 60
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = (
    ("op_ms_p50", "ms"), ("op_ms_p90", "ms"), ("ops_per_s", "1/s"),
    ("setup_s", "s"), ("peak_rss_mb", "MB"),
)


def prepare(workload: str, seed: int):
    """Everything before the first operation can run: imports, inputs, and
    the allocator's steady state."""
    import numpy

    bench_workloads.load_modules(workload)
    # glibc's malloc maps every block above its mmap threshold afresh, so each
    # mid-size array costs page faults, until the process frees a large block
    # and the threshold rises to that block's size. Which of the two states a
    # run was in depended on its history and moved sweep times by 2x, so set
    # it here: freeing 32 MB, the largest size that raises the threshold, puts
    # every run in the state a long-lived client reaches anyway.
    numpy.empty(4_000_000)
    return bench_workloads.OpStream(workload, seed, blocks=TRACE_BLOCKS)


def setup_probe(workload: str, seed: int) -> None:
    prepare(workload, seed)
    print(time.monotonic(), flush=True)


def measure_setup(workload: str, seed: int, speed: HostSpeed) -> tuple[list[float], list[float]]:
    """Seconds from spawning a fresh interpreter to its first operation being
    ready, raw and scaled by the host-speed kernel timed around each probe;
    the monotonic clock is shared by parent and child."""
    raw, scaled = [], []
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_PROBES):
        before = [speed.sample() for _ in range(3)]
        start = time.monotonic()
        done = subprocess.run(argv, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                              check=True)
        raw.append(float(done.stdout.strip().splitlines()[-1]) - start)
        after = [speed.sample() for _ in range(3)]
        scaled.append(raw[-1] * speed.factor(before + after))
    return raw, scaled


def machine_info() -> dict:
    import numpy

    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "platform": platform.platform(),
    }


class Runner:
    """Runs, times and checks operations; remembers every failure."""

    def __init__(self, out_dir: Path):
        self.out_dir = str(out_dir)
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, op, tracer=None, op_id=None) -> float | None:
        """Seconds the operation took, or None if it failed its check."""
        if tracer is not None:
            tracer.op_id, tracer.enabled = op_id, True
        start = time.perf_counter()
        outcome = bench_workloads.execute(op, self.out_dir)
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.enabled = False
        self.attempted += 1
        problem = bench_checks.check(op, outcome, self.out_dir)
        if problem is not None:
            self.failures.append(f"{op.label}: {problem}")
            return None
        return elapsed

    def defects(self, workload: str, seed: int) -> list[dict]:
        records = []
        for op in bench_workloads.defect_probes(workload, seed):
            outcome = bench_workloads.execute(op, self.out_dir)
            problem = bench_checks.check_defect(op, outcome, self.out_dir)
            records.append({"probe": op.label, "met": problem is None, "why": problem})
        return records


class HostSpeed:
    """A fixed numpy-and-interpreter kernel, independent of pqharmonic, timed
    next to the operations.

    On a shared virtual machine the host's speed drifts, by up to 2x within
    minutes. Scaling every time by NOMINAL_MS / (the kernel's time around it)
    removes most of that drift and keeps changes in pqharmonic's own cost.
    """

    NOMINAL_MS = 5.0  # reported times are for a host that runs the kernel in 5 ms

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((20000, 4))
        self.m = rng.standard_normal((4, 4))
        self.samples: list[float] = []

    def sample(self) -> float:
        import numpy as np

        start = time.perf_counter()
        acc = 0.0
        for _ in range(4):
            y = self.x @ self.m.T
            y /= np.sqrt(np.sum(y * y, axis=1))[:, None]
            acc += float(np.sum(y * self.x))
        total = 0
        for i in range(10000):
            total += i * i % 7
        elapsed = 1e3 * (time.perf_counter() - start)
        self.samples.append(elapsed)
        return elapsed

    def factor(self, samples: list[float]) -> float:
        return self.NOMINAL_MS / statistics.fmean(samples)


def timed_loop(runner: Runner, ops, seconds: float, speed: HostSpeed) -> tuple[list[float], list[float]]:
    """Closed loop over whole blocks, so every run has the workload's exact mix.

    The host-speed kernel runs between operations; each operation's time is
    scaled by the mean of the kernel times just before and just after it.
    The loop stops at the block boundary nearest to ``seconds`` of operation
    time, once MIN_OPS operations are done. Returns the raw and the scaled
    seconds of every operation that passed its check.
    """
    raw: list[float] = []
    scaled: list[float] = []
    before = speed.sample()
    i = 0
    while True:
        elapsed = runner.run(ops[i])
        after = speed.sample()
        i += 1
        if elapsed is not None:
            raw.append(elapsed)
            scaled.append(elapsed * speed.factor([before, after]))
        before = after
        if i % ops.block_size == 0 and i >= MIN_OPS:
            busy = sum(raw)
            if busy + busy / (i // ops.block_size) / 2 >= seconds:
                return raw, scaled


def end_to_end(durations: list[float], setup: list[float]) -> dict:
    ms = [1e3 * d for d in durations]
    values = {
        "op_ms_p50": statistics.median(ms),
        "op_ms_p90": statistics.quantiles(ms, n=10, method="inclusive")[8],
        "ops_per_s": len(durations) / sum(durations),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def traced_passes(runner: Runner, workload: str, ops, trace_path: Path) -> tuple[dict, list[str]]:
    """Each operation of a fixed list runs once untraced and once traced,
    alternating which goes first so that neither side gets the warm caches."""
    fixed = [ops[i] for i in range(TRACE_BLOCKS * ops.block_size)]
    tracer = bench_trace.Tracer()
    untraced, traced = [], []
    for i, op in enumerate(fixed):
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if not with_trace:
                untraced.append(runner.run(op))
                continue
            tracer.install()
            try:
                traced.append(runner.run(op, tracer, i))
            finally:
                tracer.uninstall()
    linear_scaled = {i for i, op in enumerate(fixed)
                     if op.argv and op.label.split("/")[1].startswith(("linear", "scaled"))}
    values = bench_trace.per_layer_values(tracer, linear_scaled)
    if None not in untraced and None not in traced:
        values["trace.overhead_ratio"] = sum(untraced) / sum(traced)
    with open(trace_path, "w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps({"name": span.name, "op": span.op_id, "parent": span.parent,
                                 "start": span.start, "end": span.end, **span.attrs}) + "\n")
    return values, bench_trace.layer_problems(workload, values)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=bench_workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "pqharmonic" / "cli.py").is_file():
        print(f"error: no pqharmonic sources under {SRC}", file=sys.stderr)
        return 2
    # before numpy is first imported, here and in the set-up probes
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    ops = prepare(args.workload, args.seed)
    out_root = ROOT / ".bench_out"
    out_dir = out_root / f"run-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(out_dir)
        # untimed; they also pay the CLI's lazy imports before timing starts
        defects = runner.defects(args.workload, args.seed)
        info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                "machine": machine_info(),
                "known_defects": defects}
        problems: list[str] = []
        # objects alive after set-up are never collected again; the collector's
        # cost inside an operation then depends only on what the operation makes
        gc.collect()
        gc.freeze()
        if args.trace:
            trace_path = out_root / f"trace-{args.workload}-{args.seed}.jsonl"
            values, problems = traced_passes(runner, args.workload, ops, trace_path)
            values["defects.failed"] = sum(not d["met"] for d in defects)
            values["defects.fail_ratio"] = values["defects.failed"] / len(defects) if defects else 0.0
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in bench_trace.PER_LAYER}
            info["spans"] = str(trace_path.relative_to(ROOT))
        else:
            speed = HostSpeed()
            setup_raw, setup = measure_setup(args.workload, args.seed, speed)
            raw, scaled = timed_loop(runner, ops, args.seconds, speed)
            metrics = end_to_end(scaled, setup)
            info.update(op_ms_p90_samples=len(scaled), timed_s=sum(raw),
                        kernel_ms_median=statistics.median(speed.samples),
                        unscaled={k: v["value"] for k, v in end_to_end(raw, setup_raw).items()},
                        setup_s_samples=setup)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    failed = len(runner.failures)
    info["failures"] = runner.failures[:20]
    info["layer_problems"] = problems
    print(json.dumps(info))
    print(json.dumps({"correct": failed == 0 and not problems, "attempted": runner.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
