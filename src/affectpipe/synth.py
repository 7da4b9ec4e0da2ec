"""Synthetic cohort generator standing in for private video-derived data.

Each participant gets a latent Gaussian profile (subject offset plus frame
noise) squashed into the attribute ranges: sigmoid for AUs, softmax for
expressions, tanh for arousal and valence. Group effects shift the ASD
latents before squashing, so effect size 0 makes the groups exchangeable.
"""

import json
import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import dataio
from . import evaluation as ev
from . import numerics as nm
from . import temporal as tp


@dataclass(frozen=True)
class SynthSpec:
    participants_per_group: int = 10
    frames_per_participant: int = 200
    au_effect: float = 0.0
    expr_effect: float = 0.0
    arousal_effect: float = 0.0
    valence_effect: float = 0.0
    noise: float = 0.5
    subject_scale: float = 0.3
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if self.participants_per_group < 1:
            raise ValueError("participants_per_group must be >= 1")
        if self.frames_per_participant < 1:
            raise ValueError("frames_per_participant must be >= 1")
        if not self.noise > 0:
            raise ValueError("noise must be > 0")
        if self.subject_scale < 0:
            raise ValueError("subject_scale must be >= 0")
        if not nm._is_count(self.seed) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")


def participant_stream(spec: SynthSpec, rng: np.random.Generator,
                       shifted: bool) -> np.ndarray:
    """Draw one participant's M x 22 attribute matrix."""
    m = spec.frames_per_participant
    # AUs sit mostly inactive at baseline; the group effect raises their latents.
    au_base = rng.normal(-1.0, spec.subject_scale, tp.N_AU)
    expr_base = rng.normal(0.0, spec.subject_scale, tp.N_EXPR)
    affect_base = rng.normal(0.0, spec.subject_scale, 2)
    au_latent = au_base + rng.normal(0.0, spec.noise, (m, tp.N_AU))
    expr_latent = expr_base + rng.normal(0.0, spec.noise, (m, tp.N_EXPR))
    affect_latent = affect_base + rng.normal(0.0, spec.noise, (m, 2))
    if shifted:
        au_latent += spec.au_effect
        expr_latent[:, 0] += spec.expr_effect
        affect_latent[:, 0] += spec.arousal_effect
        affect_latent[:, 1] += spec.valence_effect
    return np.column_stack([
        nm.sigmoid(au_latent),
        nm.softmax(expr_latent),
        np.tanh(affect_latent),
    ])


def synth_cohort(spec: SynthSpec, out_dir) -> Path:
    """Write frame CSVs plus a manifest under out_dir; returns the manifest path.

    Participants are drawn in manifest order (ASD group first), so a fixed
    seed reproduces every file byte for byte.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(spec.seed)
    entries = []
    for label, prefix, shifted in ((ev.ASD, "asd", True), (ev.NON_ASD, "ctl", False)):
        for i in range(spec.participants_per_group):
            pid = f"{prefix}_{i:03d}"
            name = f"{pid}.csv"
            dataio.write_frames(out_dir / name, participant_stream(spec, rng, shifted))
            entries.append({"id": pid, "label": label, "frames": name})
    manifest = out_dir / "manifest.json"
    manifest.write_text(json.dumps(entries, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
    return manifest
