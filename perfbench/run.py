#!/usr/bin/env python3
"""affectpipe benchmark: one command, three workloads, checked outputs.

Run from the repository root:

    python3 perfbench/run.py --workload {ingest,screen,trunk} --seed N \
        --seconds S --trace {0,1}

The workload is one process and one caller (closed loop) that repeats a
round of operations until ``--seconds`` is used up; see ``workloads.py``
for what each round runs.  Inputs are generated from ``--seed``.

The host's speed is not steady: on a shared two-vCPU VM the same
operation ran 1.6-1.9x slower for stretches of ten seconds to over a
minute, so raw times of two runs can differ by more than any useful bound.
Each timed call is therefore followed by one pass of a fixed reference
workload (``Reference``, the benchmark's own code, never the program's),
and each sample is scaled by ``REFERENCE_SECONDS`` over the median of the
``REFERENCE_WINDOW`` passes on either side of it: the metric is the
operation's time at the reference speed.  A change to the program moves
the operation, not the reference.  The reference has two kinds of pass,
because other load slowed two resources independently: a ``cpu`` pass
(text parsing, small numpy operations) that the cohort commands, the
32 px trunk passes and ``train-toy`` follow, and a ``memory`` pass
(streaming arrays far larger than the caches) that the 112 px trunk passes
follow (``workloads.MEMORY_BOUND_HW``).  Over 20 s windows on that host,
the spread of medians fell from 22-40% raw to 2-7% for the cohort commands
(``cpu``) and from 9-16% to 6-7% for the 112 px passes (``memory``).  An
end-to-end timing is the median of a run's scaled samples, summed over the
operations that feed it; ``wall_s`` is the median over rounds of the
round's scaled operation times; ``setup_s`` is the median of
``SETUP_REPEATS`` scaled set-ups.  Raw medians are printed beside the
metrics, and every raw sample and reference pass is written to
``.perfbench_work/``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
traced and untraced rounds, then runs a coverage pass, and reports the
per-layer metrics (``layers.py``), a per-stage MAC table and the tracing
overhead; its spans are written as JSON lines under ``.perfbench_work/``.

Every run checks its outputs: report bytes repeat exactly across rounds and,
for seed 0, match the digests in ``expected.json``; trunk head outputs on
fixed frames match a stored float64 reference within a stated tolerance;
``train-toy`` losses fall.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--record-expected`` rewrites ``expected.json`` from the current program;
use it only when a report is meant to change.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
WORKLOAD_NAMES = ("ingest", "screen", "trunk")
SETUP_REPEATS = 5
# Seconds of one reference pass of each kind on an uncontended vCPU of the
# host the benchmark was tuned on (Intel Xeon at 2.0 GHz, two-vCPU VM); they
# set the scale of the end-to-end timings, not what counts as a change.
REFERENCE_SECONDS = {"cpu": 0.008, "memory": 0.005}
REFERENCE_WINDOW = 2
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("synth_s", "s"),
    ("features_s", "s"),
    ("ttest_s", "s"),
    ("loocv_s", "s"),
    ("ablate_s", "s"),
    ("trunk_ms_per_frame.bottleneck", "ms"),
    ("trunk_ms_per_frame.mobilenet", "ms"),
    ("trunk_ms_per_frame.eesp", "ms"),
    ("train_s", "s"),
    ("peak_rss_mb", "MB"),
)


def import_program() -> None:
    """Put the checkout's src/ first on the path; exit 2 if it is missing."""
    package = SRC / "affectpipe" / "__init__.py"
    if not package.is_file():
        sys.stderr.write(f"perfbench: {package} not found; run from the repository root\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import affectpipe
    if Path(affectpipe.__file__).resolve().parent != SRC / "affectpipe":
        sys.stderr.write(f"perfbench: imported {affectpipe.__file__}, not {SRC}\n")
        sys.exit(2)


class Reference:
    """Fixed work timed after each operation, a gauge of the host's speed.

    Two passes, for the two resources the host's other load was seen to
    slow: ``cpu`` parses text and runs small numpy operations (cache-resident
    work, like the cohort commands); ``memory`` streams arrays far larger
    than the caches (like the 112 px trunk passes).
    """

    KINDS = ("cpu", "memory")

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.lines = [",".join(f"{x:.6f}" for x in row) for row in rng.normal(size=(600, 40))]
        self.matrix = rng.normal(size=(48, 48))
        self.stream = rng.normal(size=(2, 2 << 20))  # two 16 MiB rows
        self.np = np
        self.times = {kind: [] for kind in self.KINDS}

    def _cpu(self) -> float:
        total = 0.0
        for line in self.lines:
            total += sum(float(x) for x in line.split(","))
        b = self.matrix
        for _ in range(100):
            b = self.np.tanh(b @ self.matrix / 48.0) + b.mean(axis=0)
        return total + b.sum()

    def _memory(self) -> float:
        a, b = self.stream
        self.np.copyto(b, a)
        self.np.copyto(a, b)
        return a[-1]

    def run(self) -> None:
        """Time one pass of each kind and record the seconds."""
        for kind in self.KINDS:
            t0 = time.perf_counter()
            value = getattr(self, f"_{kind}")()
            self.times[kind].append(time.perf_counter() - t0)
            if not self.np.isfinite(value):
                raise RuntimeError(f"{kind} reference pass produced a non-finite value")


class Runner:
    """Times operations and counts attempted and failed operations and checks.

    With a ``reference``, a reference pass follows every timed call (the
    pass after one call is the pass before the next), and ``ref_index``
    holds, for each sample, the index of the pass that followed it.
    """

    def __init__(self, reference: Reference | None = None):
        self.attempted = 0
        self.failures = []
        self.times = defaultdict(list)
        self.ref_index = defaultdict(list)
        self.first = {}
        self.reference = reference

    def timed(self, label: str, fn):
        """Call ``fn``, record its seconds under ``label`` and return its result."""
        if self.reference is not None and not self.reference.times["cpu"]:
            self.reference.run()
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            self.times[label].append(time.perf_counter() - t0)
            if self.reference is not None:
                self.reference.run()
                self.ref_index[label].append(len(self.reference.times["cpu"]) - 1)

    def scaled(self, label: str, kind: str = "cpu") -> list:
        """Samples of ``label`` at the reference speed (raw without a reference).

        Each sample is scaled by the median of the ``REFERENCE_WINDOW``
        passes of reference ``kind`` on either side of it.
        """
        if self.reference is None:
            return list(self.times[label])
        ref = self.reference.times[kind]
        return [t * REFERENCE_SECONDS[kind] / statistics.median(
                    ref[max(0, i - REFERENCE_WINDOW):i + REFERENCE_WINDOW])
                for t, i in zip(self.times[label], self.ref_index[label])]

    def fail(self, label: str, message: str) -> None:
        self.failures.append(f"{label}: {message}")
        sys.stderr.write(f"perfbench: FAILED {label}: {message}\n")

    def check(self, label: str, fn) -> None:
        self.attempted += 1
        try:
            fn()
        except Exception as err:  # a failed check is counted, not fatal
            self.fail(label, f"{type(err).__name__}: {err}")

    def execute(self, op) -> None:
        from workloads import CheckFailed, digest

        self.attempted += 1
        try:
            out = self.timed(op.label, op.run)
        except Exception as err:  # an operation that raises is counted as failed
            traceback.print_exc()
            self.fail(op.label, f"{type(err).__name__}: {err}")
            return
        sha = digest(out)
        first = self.first.setdefault(op.label, sha)

        def same_as_first():
            if sha != first:
                raise CheckFailed("output differs from the first round")

        self.check(op.label, same_as_first)
        if op.check is not None:
            self.check(op.label, lambda: op.check(out))


def measure_rounds(runner, ops, seconds, tracer=None):
    """Repeat the round until the next one would overrun ``seconds``."""
    walls = {"traced": [], "untraced": []}
    traced_runs = set()
    start = time.perf_counter()
    min_rounds = 4 if tracer is not None else 3
    rounds = 0
    while True:
        traced = tracer is not None and rounds % 2 == 0
        t0 = time.perf_counter()
        with tracer.installed() if traced else contextlib.nullcontext():
            if traced:
                tracer.begin_run(f"round{rounds}")
                traced_runs.add(len(tracer.runs) - 1)
            for op in ops:
                for _ in range(op.repeat):
                    runner.execute(op)
        wall = time.perf_counter() - t0
        walls["traced" if traced else "untraced"].append(wall)
        rounds += 1
        if rounds >= min_rounds and time.perf_counter() - start + wall > seconds:
            return walls, traced_runs


def time_setup(runner, workload, repeats: int) -> None:
    """Time ``repeats`` set-ups, each with a fresh interpreter's import."""
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def setup():
        subprocess.run([sys.executable, "-c", "import affectpipe.cli"], env=env, check=True)
        workload.setup()

    for _ in range(repeats):
        runner.timed("setup", setup)


def spread(values) -> float:
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def _git_commit() -> str:
    if not Path(".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_name() -> str:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = deps["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the layout of show_config differs between numpy versions
        return "unknown"


def metadata(workload, seed, seconds, trace) -> dict:
    import numpy as np

    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "cpu_model": _cpu_model(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": _blas_name(),
        "blas_thread_env": {k: os.environ.get(k, "unset") for k in THREAD_VARS},
        "git_commit": _git_commit(),
    }


def run_benchmark(workload_name, seed, seconds, trace, tiny=False, root=None):
    """Run one workload; returns (result object, human-readable lines)."""
    import layers
    import workloads as wl
    from spans import Tracer

    lines = []
    runner = Runner(None if trace else Reference())
    bench = wl.Workload(workload_name, seed, tiny=tiny, root=root or wl.WORK_DIR)
    time_setup(runner, bench, SETUP_REPEATS)
    tracer = Tracer() if trace else None
    ops = bench.round_ops()
    try:
        walls, traced_runs = measure_rounds(runner, ops, seconds, tracer)
        expected = wl.load_expected()
        if seed == wl.DEFAULT_SEED and not tiny:
            for label, recorded in expected[workload_name].items():
                runner.check(f"{label}.digest", lambda label=label, recorded=recorded:
                             wl.check_digest(runner.first.get(label), recorded))
        reference = wl.reference_outputs()
        for kind in reference:
            runner.check(f"reference.{kind}", lambda kind=kind: wl.check_reference(
                kind, reference, expected["trunk_reference"]))
        if tracer is not None:
            with tracer.installed():
                tracer.begin_run("coverage")
                for op in bench.coverage_ops():
                    runner.execute(op)
    finally:
        bench.teardown()

    untraced = walls["untraced"]
    lines.append("meta " + json.dumps(metadata(workload_name, seed, seconds, trace),
                                      sort_keys=True))
    lines.append(f"rounds {len(untraced)} untraced, {len(walls['traced'])} traced; "
                 f"setup repeated {SETUP_REPEATS} times")

    if not trace:
        units = dict(END_TO_END)
        ref = runner.reference.times
        lines.append("noise " + json.dumps({
            kind: {"passes": len(t), "min_s": min(t), "median_s": statistics.median(t),
                   "max_s": max(t), "iqr_ratio": spread(t)}
            for kind, t in ref.items()}, sort_keys=True))
        # wall_s: the operations of each round, summed, without the
        # reference passes and output checks between them.
        rounds, raw_rounds = [0.0] * len(untraced), [0.0] * len(untraced)
        values = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        raw = {}
        samples = {"reference": ref}
        timed = [("setup_s", "setup", "cpu", 1, 1.0)] + [
            (op.metric, op.label, op.reference, op.repeat,
             1e3 / wl.BATCH if op.metric.startswith("trunk_ms") else 1.0) for op in ops]
        for name, label, kind, repeat, scale in timed:
            scaled, plain = runner.scaled(label, kind), runner.times[label]
            values[name] = values.get(name, 0.0) + scale * statistics.median(scaled)
            raw[name] = raw.get(name, 0.0) + scale * statistics.median(plain)
            samples[label] = {"seconds": plain, "reference": kind,
                              "reference_index": runner.ref_index[label]}
            lines.append(f"samples {label} n={len(scaled)} scaled by {kind} "
                         f"min={min(scaled):.6g} median={statistics.median(scaled):.6g} "
                         f"max={max(scaled):.6g} s; raw median={statistics.median(plain):.6g} s")
            if label != "setup":
                for r in range(len(rounds)):
                    part = slice(r * repeat, (r + 1) * repeat)
                    rounds[r] += sum(scaled[part])
                    raw_rounds[r] += sum(plain[part])
        values["wall_s"] = statistics.median(rounds)
        raw["wall_s"] = statistics.median(raw_rounds)
        for name, value in raw.items():
            lines.append(f"raw {name} {value:.6g} (median of unscaled samples)")
        out = (root or wl.WORK_DIR) / f"samples-{workload_name}-{seed}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(samples, sort_keys=True) + "\n", encoding="utf-8")
        lines.append(f"raw and reference seconds of every sample written to {out}")
    else:
        units = dict(layers.per_layer_metrics())
        values, table = layers.compute(tracer, traced_runs, walls["traced"], untraced,
                                       bench.sizes)
        lines.extend(layers.format_table(table, bench.sizes.stage_hw))
        out = (root or wl.WORK_DIR) / f"spans-{workload_name}-{seed}.jsonl"
        out.parent.mkdir(parents=True, exist_ok=True)
        # The file keeps the first traced round and the coverage pass; the
        # metrics above use every traced round.
        kept = {min(traced_runs), tracer.runs.index("coverage")}
        tracer.write_jsonl(out, {"workload": workload_name, "seed": seed,
                                 "runs": [tracer.runs[r] for r in sorted(kept)]}, kept)
        lines.append(f"spans {len(tracer)} recorded; rounds {sorted(kept)} written to {out}")

    metrics = {}
    for name, unit in units.items():
        value = values.get(name)
        if value is None:
            runner.attempted += 1
            runner.fail(name, "metric was not measured")
            value = 0.0
        metrics[name] = {"value": value, "unit": unit}
        lines.append(f"metric {name} {value:.6g} {unit}")
    failed = len(runner.failures)
    lines.append(f"failed_ratio {failed}/{runner.attempted} = {failed / runner.attempted:.4g}")
    result = {"correct": failed == 0, "attempted": runner.attempted, "failed": failed,
              "metrics": metrics}
    return result, lines


def record_expected() -> None:
    import workloads as wl

    expected = {"trunk_reference": wl.reference_outputs()}
    for name in WORKLOAD_NAMES:
        bench = wl.Workload(name, wl.DEFAULT_SEED)
        bench.setup()
        try:
            expected[name] = {op.label: wl.digest(op.run())
                              for op in bench.round_ops() if op.digested}
        finally:
            bench.teardown()
    wl.EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n",
                                encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-expected", action="store_true")
    args = parser.parse_args(argv)
    # One BLAS thread: with two on a two-vCPU host, a call waits for a thread
    # held up by any other load (a busy process on the other vCPU made the
    # 32 px trunk passes up to 6x slower).  Set before numpy is first imported.
    os.environ.update({name: "1" for name in THREAD_VARS})
    import_program()
    if args.record_expected:
        record_expected()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    result, lines = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
