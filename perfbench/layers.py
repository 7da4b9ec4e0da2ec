"""Per-layer metrics and the per-stage MAC table, derived from traced spans.

Per-call figures are medians over every span of a traced run (measured
rounds and the coverage pass); per-round figures (rows, fallback folds,
self times) use the traced measured rounds only.  Trunk stage and
convolution-class figures come from the batch-8 passes at ``stage_hw``.

The end-to-end metric each layer should move, and where:

- ``dataio`` and ``temporal``: ``synth_s``, ``features_s``, ``ttest_s``,
  ``loocv_s`` and ``ablate_s`` on ingest (a few per cent elsewhere).
- ``synth``: ``synth_s`` on ingest and ``setup_s`` on screen.
- ``classifiers`` and ``evaluation``: ``loocv_s`` and ``ablate_s`` on screen,
  where GBT dominates; ``ttest_s`` gains are hidden by parsing on ingest.
- ``graph`` and forward ``numerics``: ``trunk_ms_per_frame.*`` on trunk,
  and ``peak_rss_mb`` there if a kernel trades memory for speed.
- ``numerics.conv2d_backward`` and ``training``: ``train_s`` on trunk.

Everything runs in one process with no queues, so no layer waits on
another and no wait time is recorded.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from affectpipe import classifiers, graph

from spans import LAYER_CLASSES, LAYERS

STAGES = ("stem",) + tuple(f"cu{i}" for i in range(1, len(graph.TABLE_ROWS) + 1)) + (
    "tail", "pool", "heads")
CONV_CLASSES = ("dense", "pointwise", "grouped_pointwise", "depthwise", "dilated_depthwise")
SELF_LAYERS = tuple(LAYERS) + ("cli",)
LAYER_SPAN_NAMES = tuple(f"graph.{cls.__name__}.forward" for cls in LAYER_CLASSES)


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    names = [
        ("dataio.parse_frames.us_per_row", "us/row"),
        ("dataio.parse_frames.rows", "count"),
        ("dataio.write_frames.us_per_row", "us/row"),
        ("dataio.parse_manifest.ms", "ms"),
        ("dataio.render_report.ms", "ms"),
        ("synth.participant_stream.ms", "ms"),
        ("temporal.temporal_feature_vector.us_per_row", "us/row"),
    ]
    names += [(f"evaluation.loocv.{k}.s", "s") for k in classifiers.KINDS]
    names += [("evaluation.loocv.fallback_folds", "count"),
              ("evaluation.attribute_significance.ms", "ms"),
              ("evaluation.t_test.us", "us")]
    names += [(f"classifiers.fit.{k}.ms", "ms") for k in classifiers.KINDS]
    names += [(f"classifiers.predict_proba.{k}.us", "us") for k in classifiers.KINDS]
    for kind in graph.CU_KINDS:
        names += [(f"graph.stage.{kind}.{stage}.ms", "ms") for stage in STAGES]
    for kind in graph.CU_KINDS:
        names += [(f"graph.forward.{kind}.b1.ms_per_frame", "ms/frame"),
                  (f"graph.forward.{kind}.224_b1.ms_per_frame", "ms/frame"),
                  (f"graph.forward.{kind}.gmacs", "GMAC"),
                  (f"graph.forward.{kind}.gmac_per_s", "GMAC/s")]
    for cls in CONV_CLASSES:
        names += [(f"numerics.conv2d.{cls}.ms", "ms"),
                  (f"numerics.conv2d.{cls}.gmacs", "GMAC"),
                  (f"numerics.conv2d.{cls}.gmac_per_s", "GMAC/s")]
    names += [("numerics.channel_affine.ms", "ms"),
              ("numerics.conv2d_backward.ms", "ms"),
              ("training.task_loss.us", "us"),
              ("training.toy_forward.ms", "ms"),
              ("training.toy_backward.ms", "ms"),
              ("training.sgd_step.ms", "ms")]
    names += [(f"self.{layer}.s", "s") for layer in SELF_LAYERS]
    names += [("self.remainder.s", "s"),
              ("trace.wall_s", "s"),
              ("trace.untraced_wall_s", "s"),
              ("trace.wall_ratio", "ratio")]
    return names


def _median(values) -> float | None:
    values = list(values)
    return statistics.median(values) if values else None


def _stage(layer_name: str) -> str:
    head = layer_name.split(".")[0]
    return "heads" if head == "head" else head


class SpanIndex:
    """Lookups over one tracer's spans."""

    def __init__(self, tracer):
        self.t = tracer
        self.forward_of = {}  # span id -> enclosing graph.forward span id
        forward_id = tracer.name_ids.get("graph.forward")
        for i in range(len(tracer)):
            p = tracer.parent[i]
            if p >= 0:
                self.forward_of[i] = p if tracer.name_id[p] == forward_id else \
                    self.forward_of.get(p)

    def durations(self, name, kind=None, runs=None):
        t = self.t
        return [t.duration(i) for i in t.spans(name, runs)
                if kind is None or t.attrs.get(i, {}).get("kind") == kind]

    def attr_sum(self, name, key, runs=None):
        return sum(self.t.attrs.get(i, {}).get(key, 0) for i in self.t.spans(name, runs))

    def forwards(self, kind, batch, hw):
        return [i for i in self.t.spans("graph.forward")
                if self.t.attrs.get(i) == {"kind": kind, "batch": batch, "hw": hw}]


def compute(tracer, round_runs: set, traced_walls, untraced_walls, sizes) -> tuple[dict, dict]:
    """Return (per-layer metric values, stage table) for one traced run."""
    ix = SpanIndex(tracer)
    t = tracer
    m = {}
    n_rounds = max(len(round_runs), 1)

    def per_row(name):
        rows = ix.attr_sum(name, "rows")
        return 1e6 * sum(ix.durations(name)) / rows if rows else None

    def med(name, scale, kind=None):
        value = _median(ix.durations(name, kind))
        return None if value is None else value * scale

    m["dataio.parse_frames.us_per_row"] = per_row("dataio.parse_frames")
    m["dataio.parse_frames.rows"] = ix.attr_sum("dataio.parse_frames", "rows", round_runs) / n_rounds
    m["dataio.write_frames.us_per_row"] = per_row("dataio.write_frames")
    m["dataio.parse_manifest.ms"] = med("dataio.parse_manifest", 1e3)
    m["dataio.render_report.ms"] = med("dataio.render_report", 1e3)
    m["synth.participant_stream.ms"] = med("synth.participant_stream", 1e3)
    m["temporal.temporal_feature_vector.us_per_row"] = per_row("temporal.temporal_feature_vector")
    for k in classifiers.KINDS:
        m[f"evaluation.loocv.{k}.s"] = med("evaluation.loocv", 1.0, k)
        m[f"classifiers.fit.{k}.ms"] = med("classifiers.fit", 1e3, k)
        m[f"classifiers.predict_proba.{k}.us"] = med("classifiers.predict_proba", 1e6, k)
    m["evaluation.loocv.fallback_folds"] = ix.attr_sum(
        "evaluation.loocv", "fallback", round_runs) / n_rounds
    m["evaluation.attribute_significance.ms"] = med("evaluation.attribute_significance", 1e3)
    m["evaluation.t_test.us"] = med("evaluation.t_test", 1e6)

    # Trunk: stage times under each batch-8 pass at stage_hw.
    b8 = {kind: ix.forwards(kind, 8, sizes.stage_hw) for kind in graph.CU_KINDS}
    b8_ids = {i for ids in b8.values() for i in ids}
    per_forward = defaultdict(lambda: defaultdict(float))
    for name in LAYER_SPAN_NAMES:
        for i in t.spans(name):
            parent = t.parent[i]
            if parent in b8_ids:
                per_forward[parent][_stage(t.attrs[i]["layer"])] += t.duration(i)
    table = {}
    for kind in graph.CU_KINDS:
        g = graph.build_graph(kind, input_hw=(sizes.stage_hw, sizes.stage_hw))
        static = defaultdict(int)
        for row in graph.layer_table(g):
            static[_stage(row["name"])] += row["flops"]
        rows = []
        for stage in STAGES:
            values = [per_forward[i][stage] for i in b8[kind]]
            ms = 1e3 * _median(values) if values else None
            m[f"graph.stage.{kind}.{stage}.ms"] = ms
            gmac = static[stage] * 8 / 1e9
            rows.append((stage, gmac, ms, gmac / ms * 1e3 if ms else None))
        table[kind] = rows
        macs = graph.count_flops(g)
        m[f"graph.forward.{kind}.gmacs"] = macs / 1e9
        fwd = _median(t.duration(i) for i in b8[kind])
        m[f"graph.forward.{kind}.gmac_per_s"] = macs * 8 / fwd / 1e9 if fwd else None
        for label, hw in (("b1", sizes.b1_hw), ("224_b1", sizes.large_hw)):
            value = _median(t.duration(i) for i in ix.forwards(kind, 1, hw))
            m[f"graph.forward.{kind}.{label}.ms_per_frame"] = None if value is None else value * 1e3

    # Convolution classes and the channel affine, per set of three b8 passes.
    sets = sum(len(ids) for ids in b8.values()) / len(graph.CU_KINDS)
    conv_s, conv_macs = defaultdict(float), defaultdict(int)
    for i in t.spans("numerics.conv2d"):
        if ix.forward_of.get(i) in b8_ids:
            attrs = t.attrs[i]
            conv_s[attrs["cls"]] += t.duration(i)
            conv_macs[attrs["cls"]] += attrs["macs"]
    for cls in CONV_CLASSES:
        seconds, macs = conv_s.get(cls), conv_macs.get(cls)
        m[f"numerics.conv2d.{cls}.ms"] = 1e3 * seconds / sets if seconds else None
        m[f"numerics.conv2d.{cls}.gmacs"] = macs / sets / 1e9 if macs else None
        m[f"numerics.conv2d.{cls}.gmac_per_s"] = macs / seconds / 1e9 if seconds else None
    affine = sum(t.duration(i) for i in t.spans("numerics.channel_affine")
                 if ix.forward_of.get(i) in b8_ids)
    m["numerics.channel_affine.ms"] = 1e3 * affine / sets if sets else None
    m["numerics.conv2d_backward.ms"] = med("numerics.conv2d_backward", 1e3)
    m["training.task_loss.us"] = med("training.task_loss", 1e6)
    for name in ("toy_forward", "toy_backward", "sgd_step"):
        m[f"training.{name}.ms"] = med(f"training.{name}", 1e3)

    # Self time per layer in each traced round; the remainder is time
    # outside every span (the benchmark's own loop).
    self_by_round = {r: defaultdict(float) for r in round_runs}
    for i in range(len(t)):
        r = t.run_id[i]
        if r in self_by_round:
            self_by_round[r][t.names[t.name_id[i]].split(".")[0]] += t.self_time[i]
    ordered = sorted(round_runs)
    for layer in SELF_LAYERS:
        m[f"self.{layer}.s"] = _median(self_by_round[r][layer] for r in ordered)
    m["self.remainder.s"] = _median(
        wall - sum(self_by_round[r].values()) for r, wall in zip(ordered, traced_walls))
    m["trace.wall_s"] = _median(traced_walls)
    m["trace.untraced_wall_s"] = _median(untraced_walls)
    m["trace.wall_ratio"] = (m["trace.wall_s"] / m["trace.untraced_wall_s"]
                             if untraced_walls else None)
    return m, table


def format_table(table: dict, stage_hw: int) -> list[str]:
    lines = [f"stage table at {stage_hw} px, batch 8 (static MACs, measured ms, GMAC/s)"]
    for kind, rows in table.items():
        for stage, gmac, ms, rate in rows:
            ms_text = "n/a" if ms is None else f"{ms:9.2f}"
            rate_text = "n/a" if rate is None else f"{rate:7.2f}"
            lines.append(f"  {kind:<10} {stage:<6} {gmac:8.4f} GMAC {ms_text} ms {rate_text} GMAC/s")
    return lines
