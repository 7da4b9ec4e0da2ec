"""Span recorder that wraps the public functions of affectpipe's modules.

A traced round installs a wrapper around every public function of the
eight library modules (plus the forward methods of the graph's layer
classes and ``cli.main``).  Each call records one span: name, start, end,
parent span and run id, with its self time (duration minus the time of the
spans it caused).  Spans live in flat in-memory arrays and are written as
JSON lines when the benchmark ends.  ``Tracer.installed()`` always puts the
original functions back, even when the traced code raises.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import time
from array import array

from affectpipe import (classifiers, cli, dataio, evaluation, graph, numerics,
                        synth, temporal, training)

LAYERS = {
    "dataio": dataio,
    "synth": synth,
    "temporal": temporal,
    "classifiers": classifiers,
    "evaluation": evaluation,
    "graph": graph,
    "numerics": numerics,
    "training": training,
}
LAYER_CLASSES = (graph.ConvBlock, graph.BottleneckUnit, graph.MobileNetUnit,
                 graph.EespUnit, graph.GlobalPool, graph.Head)


def wrap_targets():
    """(owner, attribute, span name) for every function a traced round wraps."""
    targets = [(cli, "main", "cli.main")]
    for layer, module in LAYERS.items():
        for attr, obj in vars(module).items():
            if (inspect.isfunction(obj) and not attr.startswith("_")
                    and obj.__module__ == module.__name__):
                targets.append((module, attr, f"{layer}.{attr}"))
    for cls in LAYER_CLASSES:
        targets.append((cls, "forward", f"graph.{cls.__name__}.forward"))
    return targets


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _conv_class(spec) -> str:
    if spec.groups == 1:
        return "pointwise" if spec.kernel == 1 else "dense"
    if spec.groups == spec.in_channels:
        return "dilated_depthwise" if spec.dilation > 1 else "depthwise"
    return "grouped_pointwise" if spec.kernel == 1 else "grouped"


def _conv_attrs(args, kwargs, result):
    spec = _arg(args, kwargs, 1, "spec")
    x = _arg(args, kwargs, 0, "x")
    n, _, h, w = x.shape
    return {"cls": _conv_class(spec), "macs": spec.macs((h, w)) * n}


def _forward_attrs(args, kwargs, result):
    g = _arg(args, kwargs, 0, "graph")
    batch = _arg(args, kwargs, 2, "batch")
    return {"kind": g.cu, "batch": int(batch.shape[0]), "hw": int(batch.shape[2])}


def _layer_attrs(args, kwargs, result):
    return {"layer": args[0].name}


# Attributes recorded beside the span, keyed by span name.
ANNOTATORS = {
    "dataio.parse_frames": lambda a, k, r: {"rows": int(r.shape[0])},
    "dataio.write_frames": lambda a, k, r: {"rows": len(_arg(a, k, 1, "matrix"))},
    "temporal.temporal_feature_vector":
        lambda a, k, r: {"rows": len(_arg(a, k, 0, "F"))},
    "evaluation.loocv": lambda a, k, r: {"kind": _arg(a, k, 1, "spec").kind,
                                         "fallback": len(r.warnings)},
    "classifiers.fit": lambda a, k, r: {"kind": _arg(a, k, 0, "spec").kind},
    "classifiers.predict_proba": lambda a, k, r: {"kind": _arg(a, k, 0, "model").kind},
    "graph.forward": _forward_attrs,
    "numerics.conv2d": _conv_attrs,
    **{f"graph.{cls.__name__}.forward": _layer_attrs for cls in LAYER_CLASSES},
}


class Tracer:
    """Records spans while installed; ``run`` labels the spans it records."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.run_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.self_time = array("d")
        self.attrs: dict[int, dict] = {}
        self.runs: list[str] = []
        self._run = -1
        self._stack: list[list] = []  # [span id, time of children so far]
        self.origin = time.perf_counter()

    def begin_run(self, label: str) -> None:
        self.runs.append(label)
        self._run = len(self.runs) - 1

    def __len__(self) -> int:
        return len(self.start)

    def _wrap(self, name: str, fn):
        name_id = self.name_ids.setdefault(name, len(self.name_ids))
        if name_id == len(self.names):
            self.names.append(name)
        annotate = ANNOTATORS.get(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.start)
            parent = stack[-1][0] if stack else -1
            self.name_id.append(name_id)
            self.parent.append(parent)
            self.run_id.append(self._run)
            self.start.append(0.0)
            self.end.append(0.0)
            self.self_time.append(0.0)
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += t1 - t0
                self.start[sid] = t0 - self.origin
                self.end[sid] = t1 - self.origin
                self.self_time[sid] = (t1 - t0) - frame[1]
            if annotate is not None:
                self.attrs[sid] = annotate(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        saved = []
        try:
            for owner, attr, name in wrap_targets():
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
            self._stack.clear()

    def spans(self, name: str, runs=None):
        """Indices of spans called ``name``, optionally only from run ids ``runs``."""
        name_id = self.name_ids.get(name)
        if name_id is None:
            return []
        return [i for i, n in enumerate(self.name_id)
                if n == name_id and (runs is None or self.run_id[i] in runs)]

    def duration(self, i: int) -> float:
        return self.end[i] - self.start[i]

    def write_jsonl(self, path, header: dict, runs=None) -> None:
        """Write the spans of run ids ``runs`` (default all) after a header line."""
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"header": header}, sort_keys=True) + "\n")
            for i in range(len(self.start)):
                if runs is not None and self.run_id[i] not in runs:
                    continue
                record = {
                    "id": i,
                    "name": self.names[self.name_id[i]],
                    "parent": None if self.parent[i] < 0 else self.parent[i],
                    "run": self.runs[self.run_id[i]],
                    "start": self.start[i],
                    "end": self.end[i],
                    "self": self.self_time[i],
                }
                if i in self.attrs:
                    record["attrs"] = self.attrs[i]
                out.write(json.dumps(record, sort_keys=True) + "\n")
