"""Losses, optimizer, augmentation, and the toy multi-task trainer.

Losses consume raw head outputs and squash internally (softmax, sigmoid,
tanh), returning both the value and the exact adjoint with respect to the
raw output so the whole training path stays finite-difference checkable.
UNK labels contribute zero loss and zero adjoint.  The toy model is a
``graph.ModelGraph`` (a conv stem, pooling and the four heads), trained
through ``graph.forward`` and ``graph.backward``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import graph as gr
from . import numerics as nm
from .temporal import N_AU, N_EXPR


@dataclass(frozen=True)
class TaskLabels:
    """Per-sample supervision; None marks an UNK (missing) value."""

    expr: int | None = None
    au: tuple = (None,) * N_AU
    arousal: float | None = None
    valence: float | None = None

    def __post_init__(self):
        au = tuple(self.au)
        object.__setattr__(self, "au", au)
        if len(au) != N_AU:
            raise ValueError(f"expected {N_AU} AU labels, got {len(au)}")
        for v in au:
            if v is not None and v not in (0, 1):
                raise ValueError(f"AU labels must be 0, 1, or None, got {v!r}")
        if self.expr is not None and not 0 <= int(self.expr) < N_EXPR:
            raise ValueError(f"expression index out of range: {self.expr}")
        for name in ("arousal", "valence"):
            v = getattr(self, name)
            if v is not None and not -1.0 <= float(v) <= 1.0:
                raise ValueError(f"{name} target must lie in [-1, 1], got {v}")
        observed = (
            self.expr is not None
            or any(v is not None for v in au)
            or self.arousal is not None
            or self.valence is not None
        )
        if not observed:
            raise ValueError("every sample must supervise at least one task")


@dataclass(frozen=True)
class ClassWeights:
    """Inverse-frequency weights: one per expression class, a (0, 1) pair
    per action unit."""

    expr: np.ndarray
    au: np.ndarray

    def __post_init__(self):
        expr = np.asarray(self.expr, dtype=float)
        au = np.asarray(self.au, dtype=float)
        object.__setattr__(self, "expr", expr)
        object.__setattr__(self, "au", au)
        if au.ndim != 2 or au.shape[1] != 2:
            raise ValueError("AU weights must be pairs (weight for 0, weight for 1)")
        if np.any(expr <= 0) or np.any(au <= 0):
            raise ValueError("class weights must be positive")


@dataclass(frozen=True)
class TrainConfig:
    lr0: float = 0.01
    momentum: float = 0.9
    lr_decay: float = 0.05
    epochs: int = 30
    weight_decay: float = 1e-4
    batch_size: int | None = 25
    seed: int = 0

    def __post_init__(self):
        if not nm._is_count(self.epochs):
            raise ValueError(f"epochs must be an integer, got {self.epochs!r}")
        if self.batch_size is not None and not nm._is_count(self.batch_size):
            raise ValueError(f"batch_size must be an integer, got {self.batch_size!r}")
        if not nm._is_count(self.seed) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        if not (self.lr0 > 0 and math.isfinite(self.lr0)):
            raise ValueError(f"lr0 must be positive and finite, got {self.lr0!r}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if not 0.0 <= self.lr_decay < 1.0:
            raise ValueError("lr_decay must lie in [0, 1)")
        if self.epochs < 1:
            raise ValueError("epochs must be positive")
        if not (self.weight_decay >= 0 and math.isfinite(self.weight_decay)):
            raise ValueError(f"weight_decay must be nonnegative and finite, got {self.weight_decay!r}")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch_size must be None or a positive integer")


def inverse_frequency(counts) -> np.ndarray:
    """w_c = N / (C * max(n_c, 1)) for one label histogram."""
    counts = np.asarray(counts, dtype=float)
    if np.any(counts < 0):
        raise ValueError("category counts must be nonnegative")
    total = counts.sum()
    if total <= 0:
        raise ValueError("all-zero histogram has no class weights")
    return total / (counts.size * np.maximum(counts, 1.0))


def class_weights(labels) -> ClassWeights:
    """Build inverse-frequency weights from observed (non-UNK) labels.

    A task or unit with no observations anywhere gets unit weights; its
    weights can never be consulted because UNK samples skip the loss.
    """
    expr_counts = np.zeros(N_EXPR)
    au_counts = np.zeros((N_AU, 2))
    for lab in labels:
        if lab.expr is not None:
            expr_counts[lab.expr] += 1
        for i, v in enumerate(lab.au):
            if v is not None:
                au_counts[i, v] += 1
    expr_w = inverse_frequency(expr_counts) if expr_counts.sum() else np.ones(N_EXPR)
    au_w = np.vstack([
        inverse_frequency(au_counts[i]) if au_counts[i].sum() else np.ones(2)
        for i in range(N_AU)
    ])
    return ClassWeights(expr=expr_w, au=au_w)


def _expr_loss(raw, label, weights):
    x = np.asarray(raw, dtype=float)
    if label is None:
        return 0.0, np.zeros_like(x)
    w = np.asarray(weights, dtype=float)
    if w.shape != x.shape:
        raise ValueError(f"expression weights {w.shape} do not match logits {x.shape}")
    p = nm.softmax(x)
    wy = float(w[label])
    m = x.max()
    logsum = m + math.log(np.exp(x - m).sum())
    loss = wy * (logsum - float(x[label]))
    grad = wy * p
    grad[label] -= wy
    return loss, grad


def _au_loss(raw, labels, pair_weights):
    x = np.asarray(raw, dtype=float)
    grad = np.zeros_like(x)
    observed = [(i, int(v)) for i, v in enumerate(labels) if v is not None]
    if not observed:
        return 0.0, grad
    pair_weights = np.asarray(pair_weights, dtype=float)
    total = 0.0
    m = len(observed)
    for i, y in observed:
        w = float(pair_weights[i, y])
        xi = float(x[i])
        # stable: -y log s(x) - (1-y) log(1-s(x)) = max(x,0) - x y + log1p(e^-|x|)
        total += w * (max(xi, 0.0) - xi * y + math.log1p(math.exp(-abs(xi))))
    rows, ys = (np.array(column) for column in zip(*observed))
    grad[rows] = pair_weights[rows, ys] * (nm.sigmoid(x[rows]) - ys)
    return total / m, grad / m


def _arousal_loss(raw, target):
    if target is None:
        return 0.0, 0.0
    t = float(target)
    if not -1.0 <= t <= 1.0:
        raise ValueError(f"arousal target must lie in [-1, 1], got {t}")
    pred = math.tanh(float(raw))
    diff = pred - t
    return abs(diff), float(np.sign(diff)) * (1.0 - pred * pred)


def _valence_loss(raw, target):
    if target is None:
        return 0.0, 0.0
    t = float(target)
    if not -1.0 <= t <= 1.0:
        raise ValueError(f"valence target must lie in [-1, 1], got {t}")
    pred = math.tanh(float(raw))
    diff = pred - t
    return diff * diff, 2.0 * diff * (1.0 - pred * pred)


def task_loss(task: str, raw, labels: TaskLabels, weights: ClassWeights):
    """One task's loss and its adjoint with respect to the raw head output."""
    if task == "expr":
        return _expr_loss(raw, labels.expr, weights.expr)
    if task == "au":
        return _au_loss(raw, labels.au, weights.au)
    if task == "arousal":
        return _arousal_loss(raw, labels.arousal)
    if task == "valence":
        return _valence_loss(raw, labels.valence)
    raise ValueError(f"unknown task {task!r}")


def l2_penalty(params: dict) -> float:
    return float(sum(np.sum(np.square(v)) for v in params.values()))


def learning_rate(epoch: int, config: TrainConfig) -> float:
    return config.lr0 * (1.0 - config.lr_decay) ** epoch


def sgd_step(params: dict, velocity: dict, grads: dict, epoch: int,
             config: TrainConfig):
    """Momentum SGD: v' = mu v - lr g; p' = p + v'. Pure; returns new dicts."""
    lr = learning_rate(epoch, config)
    new_params, new_velocity = {}, {}
    for key, p in params.items():
        g = np.asarray(grads[key], dtype=float)
        if not np.all(np.isfinite(g)):
            raise nm.NumericError(f"non-finite gradient for {key}")
        v = config.momentum * np.asarray(velocity[key], dtype=float) - lr * g
        new_velocity[key] = v
        new_params[key] = np.asarray(p, dtype=float) + v
    return new_params, new_velocity


@dataclass(frozen=True)
class AugmentConfig:
    """Magnitudes of the four augmentations; zero (or scale 1) disables one."""

    flip_prob: float = 0.5
    crop_min_scale: float = 0.8
    rotation_deg: float = 15.0
    shear_deg: float = 10.0

    def __post_init__(self):
        if not 0.0 <= self.flip_prob <= 1.0:
            raise ValueError("flip_prob must lie in [0, 1]")
        if not 0.0 < self.crop_min_scale <= 1.0:
            raise ValueError("crop_min_scale must lie in (0, 1]")
        if self.rotation_deg < 0 or self.shear_deg < 0:
            raise ValueError("rotation_deg and shear_deg must be nonnegative")


def _bilinear_sample(img: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Sample (C, H, W) at fractional coordinates with zero fill outside."""
    c, h, w = img.shape
    r0 = np.floor(rows).astype(int)
    c0 = np.floor(cols).astype(int)
    dr = rows - r0
    dc = cols - c0
    out = np.zeros((c,) + rows.shape)
    for rr, cc, wt in (
        (r0, c0, (1 - dr) * (1 - dc)),
        (r0, c0 + 1, (1 - dr) * dc),
        (r0 + 1, c0, dr * (1 - dc)),
        (r0 + 1, c0 + 1, dr * dc),
    ):
        valid = (rr >= 0) & (rr < h) & (cc >= 0) & (cc < w)
        rs = np.clip(rr, 0, h - 1)
        cs = np.clip(cc, 0, w - 1)
        out += img[:, rs, cs] * (wt * valid)
    return out


def augment(images: np.ndarray, seed: int, config: AugmentConfig = AugmentConfig()) -> np.ndarray:
    """Composed random flip / crop-resize / rotation / shear per image.

    One affine sampling grid per image (bilinear, zero fill); draws come
    from a generator seeded once, so a seed fixes the whole batch.
    """
    x = nm._as_tensor4(images, "augment input")
    n, c, h, w = x.shape
    if h < 2 or w < 2:
        raise ValueError("images must be at least 2x2 for crop and resize")
    rng = np.random.default_rng(seed)
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    out_rows, out_cols = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    result = np.empty_like(x)
    for i in range(n):
        flip = rng.random() < config.flip_prob
        scale = rng.uniform(config.crop_min_scale, 1.0)
        if scale * h < 1 or scale * w < 1:
            raise ValueError(f"crop scale {scale} degenerates a {h}x{w} image")
        max_off_y = (1.0 - scale) * (h - 1) / 2.0
        max_off_x = (1.0 - scale) * (w - 1) / 2.0
        off_y = rng.uniform(-max_off_y, max_off_y)
        off_x = rng.uniform(-max_off_x, max_off_x)
        theta = math.radians(rng.uniform(-config.rotation_deg, config.rotation_deg))
        shear = math.tan(math.radians(rng.uniform(-config.shear_deg, config.shear_deg)))

        # output -> input map: centered rotation+shear, then crop scale/offset
        a11 = math.cos(theta) + shear * math.sin(theta)
        a12 = shear * math.cos(theta) - math.sin(theta)
        a21 = math.sin(theta)
        a22 = math.cos(theta)
        ry = out_rows - cy
        rx = out_cols - cx
        rows = scale * (a22 * ry + a21 * rx) + cy + off_y
        cols = scale * (a12 * ry + a11 * rx) + cx + off_x
        if flip:
            cols = (w - 1) - cols
        result[i] = _bilinear_sample(x[i], rows, cols)
    return result


# ---------------------------------------------------------------------------
# Toy multi-task model: a strided conv stem, pooling, the four linear heads.

TOY_CHANNELS = 8


def toy_graph(size: int) -> gr.ModelGraph:
    """The toy model as a graph over ``size`` x ``size`` images."""
    stem = gr.ConvBlock("stem", nm.ConvSpec(3, TOY_CHANNELS, kernel=3, stride=2, padding=1))
    return gr.ModelGraph(cu="toy", mode="multi", input_hw=(size, size),
                         layers=(stem, gr.GlobalPool(TOY_CHANNELS)),
                         heads=tuple(gr.Head(t, TOY_CHANNELS) for t in gr.TASKS))


def toy_forward(params: dict, batch: np.ndarray):
    """Returns (head outputs, cache for the backward pass)."""
    cache = []
    return gr.forward(toy_graph(batch.shape[2]), params, batch, cache), cache


def toy_backward(params: dict, cache: list, head_grads: dict) -> dict:
    """Exact adjoints for every toy parameter given head-output adjoints."""
    return gr.backward(toy_graph(cache[0].shape[2]), params, cache, head_grads)


def toy_dataset(n: int = 200, size: int = 16, seed: int = 0):
    """Synthetic labeled images whose labels are linear-ish in the pixels.

    Each image is a class prototype plus noise; AU, arousal, and valence
    labels derive from channel statistics so a one-conv network can fit
    them.  AU labels read the left half of the image, so ``size`` must be
    at least 2.
    """
    if n < 1:
        raise ValueError(f"samples must be a positive integer, got {n}")
    if size < 2:
        raise ValueError(f"image_size must be at least 2, got {size}")
    rng = np.random.default_rng(seed)
    protos = rng.normal(size=(N_EXPR, 3, size, size))
    images = np.empty((n, 3, size, size))
    labels = []
    for i in range(n):
        cls = int(rng.integers(N_EXPR))
        images[i] = protos[cls] + 0.3 * rng.normal(size=(3, size, size))
        means = images[i].mean(axis=(1, 2))
        au = tuple(int(images[i, j % 3, :, : size // 2].mean() > 0) for j in range(N_AU))
        labels.append(TaskLabels(
            expr=cls,
            au=au,
            arousal=math.tanh(2.0 * means[0]),
            valence=math.tanh(2.0 * means[1]),
        ))
    return images, labels


def batch_loss_and_grads(params: dict, images: np.ndarray, labels,
                         weights: ClassWeights, lam: float):
    """Mean total (multitask plus L2) loss over a batch and adjoints for
    every parameter."""
    outputs, cache = toy_forward(params, images)
    n = images.shape[0]
    head_grads = {t: np.zeros((n, gr.HEAD_WIDTHS[t])) for t in gr.TASKS}
    total = 0.0
    for i, lab in enumerate(labels):
        for task in gr.TASKS:
            value, adj = task_loss(task, outputs[task][i], lab, weights)
            total += value
            head_grads[task][i] = np.asarray(adj) / n
    loss = total / n + lam * l2_penalty(params)
    grads = toy_backward(params, cache, head_grads)
    for key, p in params.items():
        grads[key] = grads[key] + 2.0 * lam * np.asarray(p)
    return loss, grads


def train_toy(config: TrainConfig = TrainConfig(), n: int = 200, size: int = 16):
    """Mini-batch momentum SGD on the toy set; returns per-epoch losses.

    Batches are visited in fixed order, so a config seed pins the whole
    trajectory.  Epoch losses are averages of the batch losses seen while
    the epoch ran.
    """
    images, labels = toy_dataset(n=n, size=size, seed=config.seed)
    weights = class_weights(labels)
    params = gr.init_params(toy_graph(size), config.seed)
    velocity = {k: np.zeros_like(v) for k, v in params.items()}
    batch = n if config.batch_size is None else min(config.batch_size, n)
    epoch_losses = []
    for epoch in range(config.epochs):
        seen, accum = 0, 0.0
        for start in range(0, n, batch):
            chunk = slice(start, min(start + batch, n))
            loss, grads = batch_loss_and_grads(
                params, images[chunk], labels[chunk], weights, config.weight_decay
            )
            params, velocity = sgd_step(params, velocity, grads, epoch, config)
            size_ = chunk.stop - chunk.start
            accum += loss * size_
            seen += size_
        epoch_losses.append(accum / seen)
    return {"losses": epoch_losses, "params": params, "weights": weights}
