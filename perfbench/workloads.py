"""The three benchmark workloads: set-up, one round of operations, checks.

Every workload runs the same user-visible pipeline each round -- ``synth``,
``extract-features``, ``ttest``, ``loocv``, ``ablate`` (all through
``affectpipe.cli.main``), frames through each CU kind's trunk to a temporal
vector, and ``train-toy`` -- so that every end-to-end metric is measured on
every workload.  A workload scales up the stage it is about and keeps the
others at probe size:

- ``ingest``: one-minute streams (1800 frames), so CSV writing and parsing
  dominate; LOOCV and ablation use the cheap LDA classifier.
- ``screen``: short streams, all seven classifiers under LOOCV plus a
  logistic ablation; GBT dominates.
- ``trunk``: 112 px batch-8 trunk passes and the default ``train-toy``;
  the cohort stages run on a six-participant probe cohort.

Probe sizes: on ``ingest`` and ``screen`` the trunk op runs 32 px frames and
``train-toy`` runs three epochs.  A traced run adds a coverage pass after the
measured rounds (112 px batch-8 and batch-1 passes, 224 px batch-1 passes,
and LOOCV of the classifiers the round does not run) so that every per-layer
metric has spans on every workload.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from affectpipe import classifiers, cli, graph, temporal

DEFAULT_SEED = 0
WORK_DIR = Path(".perfbench_work")
EXPECTED_PATH = Path(__file__).with_name("expected.json")
BATCH = 8
EFFECTS = ("--expr-effect", "1.0", "--arousal-effect", "0.8",
           "--valence-effect", "0.8")

# Trunk reference check: fixed frames and parameters, independent of the
# workload seed.  Convolution paths may change summation order, so head
# outputs are compared within this float64 tolerance, fixed in advance.
REFERENCE_SEED = 1904
REFERENCE_HW = 32
REFERENCE_FRAMES = 2
TRUNK_RTOL = 1e-7
TRUNK_ATOL = 1e-9
# Trunk passes at this frame size and above stream arrays far larger than
# the caches, so their times follow the host's memory bandwidth and are
# scaled by the memory reference pass (see run.py); all else by the CPU one.
MEMORY_BOUND_HW = 112


@dataclass(frozen=True)
class Sizes:
    participants: int          # per diagnosis group
    frames: int                # per participant
    classifiers: tuple         # LOOCV kinds run every round
    ablate: str                # classifier of the ablation
    trunk_hw: int              # frame size of the round's batch-8 trunk op
    train_args: tuple          # extra train-toy flags (empty: defaults)
    probes: tuple              # op labels (before any ".") run as probes
    probe_repeat: int          # runs of each probe op per round
    stage_hw: int = 112        # batch-8 passes behind the per-stage metrics
    b1_hw: int = 112
    large_hw: int = 224
    coverage_participants: int = 3
    coverage_frames: int = 150


WORKLOADS = {
    "ingest": Sizes(3, 1800, ("lda",), "lda", 32, ("--epochs", "3"),
                    probes=("trunk", "train-toy"), probe_repeat=1),
    "screen": Sizes(3, 150, classifiers.KINDS, "logistic", 32, ("--epochs", "3"),
                    probes=("synth", "extract-features", "ttest", "trunk", "train-toy"),
                    probe_repeat=3),
    "trunk": Sizes(3, 150, ("lda",), "lda", 112, (),
                   probes=("synth", "extract-features", "ttest", "loocv", "ablate"),
                   probe_repeat=3),
}

# Smallest sizes that still exercise every layer; used by the smoke tests.
TINY = dict(participants=2, frames=20, trunk_hw=32,
            train_args=("--epochs", "2", "--samples", "16"),
            stage_hw=32, b1_hw=32, large_hw=64,
            coverage_participants=2, coverage_frames=20)


def sizes_for(workload: str, tiny: bool = False) -> Sizes:
    sizes = WORKLOADS[workload]
    return replace(sizes, **TINY) if tiny else sizes


class CheckFailed(Exception):
    """An operation's output is wrong."""


@dataclass
class Op:
    label: str                       # unique within the workload
    metric: str                      # end-to-end metric its time feeds
    run: Callable[[], bytes]
    check: Callable[[bytes], None] | None = None
    digested: bool = False           # seed-0 report bytes are recorded
    repeat: int = 1                  # back-to-back runs per round
    reference: str = "cpu"           # reference pass that scales its samples


def run_cli(argv) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    if code != 0:
        raise CheckFailed(f"affectpipe {argv[0]} exited with {code}")
    return out.getvalue().encode("utf-8")


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _losses_fall(report: bytes) -> None:
    losses = json.loads(report)["losses"]
    if not losses[-1] < losses[0]:
        raise CheckFailed(f"train-toy loss did not fall: {losses[0]} -> {losses[-1]}")


def trunk_features(g, params, frames) -> bytes:
    """Frames -> trunk -> per-frame attributes -> one 58-dim temporal vector."""
    outputs = graph.forward(g, params, frames)
    attrs = graph.predict_attributes(outputs)
    vector = temporal.temporal_feature_vector(temporal.attribute_matrix(attrs)).vector()
    heads = [np.ascontiguousarray(outputs[t]).tobytes() for t in graph.TASKS]
    return b"".join(heads) + vector.tobytes()


class Workload:
    """One workload at one seed; ``setup`` may be repeated to time it."""

    def __init__(self, name: str, seed: int, tiny: bool = False, root: Path = WORK_DIR):
        self.name = name
        self.seed = seed
        self.sizes = sizes_for(name, tiny)
        self.dir = Path(root) / name
        self.cohort = self.dir / "cohort"
        self.params = {}
        self.graphs = {}
        self.frames = {}

    # -- set-up -------------------------------------------------------------

    def _synth_argv(self, out_dir, participants, frames):
        return ("synth", "--out-dir", str(out_dir), "--participants", str(participants),
                "--frames", str(frames), "--seed", str(self.seed)) + EFFECTS

    def graph_at(self, kind: str, hw: int):
        key = (kind, hw)
        if key not in self.graphs:
            self.graphs[key] = graph.build_graph(kind, input_hw=(hw, hw))
        return self.graphs[key]

    def frames_at(self, hw: int, batch: int) -> np.ndarray:
        key = (hw, batch)
        if key not in self.frames:
            rng = np.random.default_rng([self.seed, hw, batch])
            self.frames[key] = rng.uniform(0.0, 1.0, (batch, 3, hw, hw))
        return self.frames[key]

    def setup(self) -> None:
        """Inputs for the rounds: cohort on screen, trunk graphs and frames."""
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.graphs, self.frames = {}, {}
        s = self.sizes
        if self.name == "screen":
            run_cli(self._synth_argv(self.cohort, s.participants, s.frames))
        for kind in graph.CU_KINDS:
            g = self.graph_at(kind, s.trunk_hw)
            self.params[kind] = graph.init_params(g, self.seed)
            graph.forward(g, self.params[kind], self.frames_at(s.trunk_hw, 1))
        self.frames_at(s.trunk_hw, BATCH)

    def teardown(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    # -- operations -------------------------------------------------------------

    def round_ops(self) -> list[Op]:
        s = self.sizes
        manifest = str(self.cohort / "manifest.json")
        seed = str(self.seed)
        ops = [
            Op("synth", "synth_s",
               lambda: run_cli(self._synth_argv(self.cohort, s.participants, s.frames)),
               digested=True),
            Op("extract-features", "features_s",
               lambda: run_cli(("extract-features", "--manifest", manifest)), digested=True),
            Op("ttest", "ttest_s",
               lambda: run_cli(("ttest", "--manifest", manifest)), digested=True),
        ]
        for kind in s.classifiers:
            ops.append(Op(f"loocv.{kind}", "loocv_s", lambda kind=kind: run_cli(
                ("loocv", "--manifest", manifest, "--classifier", kind, "--seed", seed)),
                digested=True))
        ops.append(Op("ablate", "ablate_s", lambda: run_cli(
            ("ablate", "--manifest", manifest, "--classifier", s.ablate, "--seed", seed)),
            digested=True))
        frames = self.frames_at(s.trunk_hw, BATCH)
        for kind in graph.CU_KINDS:
            g = self.graph_at(kind, s.trunk_hw)
            ops.append(Op(f"trunk.{kind}", f"trunk_ms_per_frame.{kind}",
                          lambda g=g, kind=kind: trunk_features(g, self.params[kind], frames),
                          reference="memory" if s.trunk_hw >= MEMORY_BOUND_HW else "cpu"))
        ops.append(Op("train-toy", "train_s",
                      lambda: run_cli(("train-toy", "--seed", seed) + s.train_args),
                      check=_losses_fall))
        for op in ops:
            if op.label.split(".")[0] in s.probes:
                op.repeat = s.probe_repeat
        return ops

    def coverage_ops(self) -> list[Op]:
        """Run once after a traced run's rounds, so every layer has spans."""
        s = self.sizes
        ops = []
        passes = [(s.b1_hw, 1), (s.large_hw, 1)]
        if s.trunk_hw != s.stage_hw:
            passes.insert(0, (s.stage_hw, BATCH))
        for kind in graph.CU_KINDS:
            for hw, batch in passes:
                g = self.graph_at(kind, hw)
                ops.append(Op(f"coverage.{kind}.{hw}.b{batch}", "coverage",
                              lambda g=g, kind=kind, hw=hw, batch=batch: trunk_features(
                                  g, self.params[kind], self.frames_at(hw, batch))))
        missing = [k for k in classifiers.KINDS if k not in s.classifiers]
        if missing:
            cohort = self.dir / "coverage"
            manifest = str(cohort / "manifest.json")
            ops.append(Op("coverage.synth", "coverage", lambda: run_cli(self._synth_argv(
                cohort, s.coverage_participants, s.coverage_frames))))
            for kind in missing:
                ops.append(Op(f"coverage.loocv.{kind}", "coverage", lambda kind=kind: run_cli(
                    ("loocv", "--manifest", manifest, "--classifier", kind,
                     "--seed", str(self.seed)))))
        return ops


def reference_outputs() -> dict:
    """Head outputs of each CU kind on the fixed reference frames."""
    frames = np.random.default_rng(REFERENCE_SEED).uniform(
        0.0, 1.0, (REFERENCE_FRAMES, 3, REFERENCE_HW, REFERENCE_HW))
    result = {}
    for kind in graph.CU_KINDS:
        g = graph.build_graph(kind, input_hw=(REFERENCE_HW, REFERENCE_HW))
        outputs = graph.forward(g, graph.init_params(g, 0), frames)
        result[kind] = {t: np.asarray(outputs[t]).tolist() for t in graph.TASKS}
    return result


def check_digest(got: str | None, recorded: str) -> None:
    if got != recorded:
        raise CheckFailed("report differs from the recorded seed-0 digest")


def check_reference(kind: str, measured: dict, expected: dict) -> None:
    for task in graph.TASKS:
        got = np.asarray(measured[kind][task])
        want = np.asarray(expected[kind][task])
        if got.shape != want.shape or not np.allclose(got, want, rtol=TRUNK_RTOL,
                                                      atol=TRUNK_ATOL):
            raise CheckFailed(f"{kind} head {task!r} differs from the stored reference")


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))
