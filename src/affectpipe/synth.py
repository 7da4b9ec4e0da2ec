"""Synthetic cohort generator standing in for private video-derived data.

Each participant gets a latent Gaussian profile (subject offset plus frame
noise) squashed into the attribute ranges: sigmoid for AUs, softmax for
expressions, tanh for arousal and valence. Group effects shift the ASD
latents before squashing, so effect size 0 makes the groups exchangeable.
Streams stay in memory; ``dataio.write_cohort`` writes them to disk.
"""

from dataclasses import dataclass

import numpy as np

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
        for name in ("au_effect", "expr_effect", "arousal_effect", "valence_effect", "noise",
                     "subject_scale"):
            nm.require_real(getattr(self, name), name)
        for name in ("participants_per_group", "frames_per_participant"):
            nm.require_count(getattr(self, name), name)
        if not self.noise > 0:
            raise ValueError("noise must be > 0")
        if self.subject_scale < 0:
            raise ValueError("subject_scale must be >= 0")
        nm.require_count(self.seed, "seed", minimum=0)


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


def draw_cohort(spec: SynthSpec):
    """Yield (id, diagnosis, stream) one participant at a time, ASD group first,
    all drawn from one generator, so a fixed seed reproduces every stream."""
    rng = np.random.default_rng(spec.seed)
    for label, prefix, shifted in ((ev.ASD, "asd", True), (ev.NON_ASD, "ctl", False)):
        for i in range(spec.participants_per_group):
            yield f"{prefix}_{i:03d}", label, participant_stream(spec, rng, shifted)
