"""Losses, optimizer, and the toy multi-task trainer.

Labels take one form, a ``LabelBatch`` of arrays with -1 (classes) or NaN
(targets) marking UNK; it is checked when it is built.  Each task's loss
is evaluated over a whole batch at once: it consumes the raw head outputs,
squashes internally (softmax, sigmoid, tanh) and returns per-sample losses
and the exact adjoint with respect to the raw output, so the whole
training path stays finite-difference checkable.  UNK labels
contribute zero loss and zero adjoint.  The toy model is a
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


@dataclass(frozen=True, eq=False)
class LabelBatch:
    """The labels of n samples as one read-only array per task: ``expr`` (n,)
    and ``au`` (n, N_AU) as int with -1 for UNK, ``arousal`` and ``valence``
    (n,) as float with NaN for UNK.  Every sample must supervise at least
    one task.  Indexing takes a sub-batch; an integer index takes the
    one-sample batch ``self[[i]]``."""

    expr: np.ndarray
    au: np.ndarray
    arousal: np.ndarray
    valence: np.ndarray

    def __post_init__(self):
        arrays = {}
        for name in ("expr", "au"):
            value = np.array(getattr(self, name))
            if value.size and not np.issubdtype(value.dtype, np.integer):
                raise ValueError(f"{name} labels must be integers, got dtype {value.dtype}")
            arrays[name] = value.astype(int, copy=False)
        for name in ("arousal", "valence"):
            arrays[name] = np.array(getattr(self, name), dtype=float)
        n = len(arrays["expr"]) if arrays["expr"].ndim else 0
        for name, value in arrays.items():
            want = (n, N_AU) if name == "au" else (n,)
            if value.shape != want:
                raise ValueError(f"{name} labels have shape {value.shape}, expected {want}")
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        if np.any((self.expr < -1) | (self.expr >= N_EXPR)):
            raise ValueError(f"expr labels must be -1 (UNK) or a class index below {N_EXPR}")
        if np.any((self.au < -1) | (self.au > 1)):
            raise ValueError("AU labels must be -1 (UNK), 0 or 1")
        for name in ("arousal", "valence"):
            if np.any(np.abs(getattr(self, name)) > 1.0):
                raise ValueError(f"{name} targets must be NaN (UNK) or lie in [-1, 1]")
        unk = ((self.expr == -1) & np.all(self.au == -1, axis=1)
               & np.isnan(self.arousal) & np.isnan(self.valence))
        if np.any(unk):
            raise ValueError(f"sample {int(np.argmax(unk))} supervises no task; "
                             "every sample must supervise at least one task")

    def __len__(self) -> int:
        return len(self.expr)

    def __getitem__(self, index) -> LabelBatch:
        if nm._is_count(index):
            index = [index]
        return LabelBatch(self.expr[index], self.au[index], self.arousal[index], self.valence[index])


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
    batch_size: int = 25
    seed: int = 0

    def __post_init__(self):
        if not nm._is_count(self.epochs):
            raise ValueError(f"epochs must be an integer, got {self.epochs!r}")
        if not nm._is_count(self.batch_size):
            raise ValueError(f"batch_size must be an integer, got {self.batch_size!r}")
        if not nm._is_count(self.seed) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        for name in ("lr0", "momentum", "lr_decay", "weight_decay"):
            value = getattr(self, name)
            if not nm._is_real(value):
                raise ValueError(f"{name} must be a real number, got {value!r}")
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
        if self.batch_size < 1:
            raise ValueError("batch_size must be a positive integer")


def inverse_frequency(counts) -> np.ndarray:
    """w_c = N / (C * max(n_c, 1)) for one label histogram."""
    counts = np.asarray(counts, dtype=float)
    if np.any(counts < 0):
        raise ValueError("category counts must be nonnegative")
    total = counts.sum()
    if total <= 0:
        raise ValueError("all-zero histogram has no class weights")
    return total / (counts.size * np.maximum(counts, 1.0))


def class_weights(labels: LabelBatch) -> ClassWeights:
    """Build inverse-frequency weights from observed (non-UNK) labels.

    A task or unit with no observations anywhere gets unit weights; its
    weights can never be consulted because UNK samples skip the loss.
    """
    expr_counts = np.bincount(labels.expr[labels.expr >= 0], minlength=N_EXPR)
    au_counts = np.column_stack([(labels.au == 0).sum(axis=0), (labels.au == 1).sum(axis=0)])
    expr_w = inverse_frequency(expr_counts) if expr_counts.sum() else np.ones(N_EXPR)
    au_w = np.vstack([
        inverse_frequency(au_counts[i]) if au_counts[i].sum() else np.ones(2)
        for i in range(N_AU)
    ])
    return ClassWeights(expr=expr_w, au=au_w)


# The batched losses keep libm (math.log, math.exp, math.log1p, math.tanh)
# for the scalars a per-sample loop computed with it: numpy's vectorized
# versions differ from libm in the last bit on some inputs, and tanh feeds
# the arousal and valence adjoints, so the training trajectory would move.

def _expr_loss(x, y, weights):
    w = np.asarray(weights, dtype=float)
    if w.shape != x.shape[1:]:
        raise ValueError(f"expression weights {w.shape} do not match logits {x.shape[1:]}")
    loss, grad = np.zeros(len(x)), np.zeros_like(x)
    rows = np.flatnonzero(y >= 0)
    if not rows.size:
        return loss, grad
    xs, ys = x[rows], y[rows]
    picked = np.arange(rows.size), ys
    wy = w[ys]
    m = xs.max(axis=1)
    logsum = m + np.array([math.log(s) for s in np.exp(xs - m[:, None]).sum(axis=1).tolist()])
    loss[rows] = wy * (logsum - xs[picked])
    g = wy[:, None] * nm.softmax(xs)
    g[picked] -= wy
    grad[rows] = g
    return loss, grad


def _au_loss(x, y, pair_weights):
    pair_weights = np.asarray(pair_weights, dtype=float)
    if x.shape != y.shape or pair_weights.shape != (y.shape[1], 2):
        raise ValueError(f"AU outputs {x.shape} and weights {pair_weights.shape} do not "
                         f"match labels {y.shape}")
    rows, units = np.nonzero(y >= 0)
    xs, ys = x[rows, units], y[rows, units]
    w = pair_weights[units, ys]
    # stable: -y log s(x) - (1-y) log(1-s(x)) = max(x,0) - x y + log1p(e^-|x|)
    softplus = np.array([math.log1p(math.exp(-abs(v))) for v in xs.tolist()])
    terms = np.zeros_like(x)
    terms[rows, units] = w * (np.maximum(xs, 0.0) - xs * ys + softplus)
    grad = np.zeros_like(x)
    grad[rows, units] = w * (nm.sigmoid(xs) - ys)
    # each sample's terms summed left to right (np.sum would add them pairwise),
    # then averaged over its observed units
    total = np.zeros(len(x))
    for column in terms.T:
        total += column
    m = np.maximum(np.count_nonzero(y >= 0, axis=1), 1)
    return total / m, grad / m[:, None]


def _affect_loss(x, t, squared: bool):
    """L1 (arousal) or L2 (valence) distance between tanh(raw) and the target."""
    flat = x.reshape(len(x))
    loss, grad = np.zeros(len(x)), np.zeros(len(x))
    rows = np.flatnonzero(~np.isnan(t))
    pred = np.array([math.tanh(v) for v in flat[rows].tolist()])
    diff = pred - t[rows]
    if squared:
        loss[rows] = diff * diff
        grad[rows] = 2.0 * diff * (1.0 - pred * pred)
    else:
        loss[rows] = np.abs(diff)
        grad[rows] = np.sign(diff) * (1.0 - pred * pred)
    return loss, grad.reshape(x.shape)


def task_loss(task: str, raw, labels: LabelBatch, weights: ClassWeights):
    """One task's losses over a batch and their adjoint with respect to the
    raw head output.

    ``raw`` is the head output, (n, width), or (n,) for a width-1 head.
    Returns per-sample losses (n,) and an adjoint shaped like ``raw``;
    UNK samples (and UNK AUs) give a loss of 0 and an adjoint of 0.
    """
    if task not in gr.TASKS:
        raise ValueError(f"unknown task {task!r}")
    x = np.asarray(raw, dtype=float)
    if x.ndim not in (1, 2) or len(x) != len(labels):
        raise ValueError(f"{task} head output {x.shape} does not match {len(labels)} samples")
    if task == "expr":
        return _expr_loss(x, labels.expr, weights.expr)
    if task == "au":
        return _au_loss(x, labels.au, weights.au)
    if x.shape[1:] not in ((), (1,)):
        raise ValueError(f"{task} head output must be (n,) or (n, 1), got {x.shape}")
    return _affect_loss(x, getattr(labels, task), squared=task == "valence")


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


# ---------------------------------------------------------------------------
# Toy multi-task model: a strided conv stem, pooling, the four linear heads.

TOY_CHANNELS = 8


def toy_graph(size: int) -> gr.ModelGraph:
    """The toy model as a graph over ``size`` x ``size`` images."""
    stem = gr.ConvBlock("stem", nm.ConvSpec(3, TOY_CHANNELS, kernel=3, stride=2, padding=1))
    return gr.ModelGraph(cu="toy", input_hw=(size, size),
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
    expr, au = np.empty(n, dtype=int), np.empty((n, N_AU), dtype=int)
    arousal, valence = np.empty(n), np.empty(n)
    for i in range(n):
        expr[i] = int(rng.integers(N_EXPR))
        images[i] = protos[expr[i]] + 0.3 * rng.normal(size=(3, size, size))
        means = images[i].mean(axis=(1, 2))
        left = [int(images[i, c, :, : size // 2].mean() > 0) for c in range(3)]
        au[i] = [left[j % 3] for j in range(N_AU)]
        arousal[i] = math.tanh(2.0 * means[0])
        valence[i] = math.tanh(2.0 * means[1])
    return images, LabelBatch(expr, au, arousal, valence)


def batch_loss_and_grads(params: dict, images: np.ndarray, labels: LabelBatch,
                         weights: ClassWeights, lam: float):
    """Mean total (multitask plus L2) loss over a batch and adjoints for
    every parameter; one ``task_loss`` call per task."""
    outputs, cache = toy_forward(params, images)
    n = images.shape[0]
    losses, head_grads = [], {}
    for task in gr.TASKS:
        value, adj = task_loss(task, outputs[task], labels, weights)
        losses.append(value)
        head_grads[task] = adj / n
    # added one at a time, sample-major in TASKS order; np.sum would pair and round differently
    total = 0.0
    for value in np.column_stack(losses).ravel().tolist():
        total += value
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
    step = min(config.batch_size, n)
    batches = [(images[start:start + step], labels[start:start + step])
               for start in range(0, n, step)]
    epoch_losses = []
    for epoch in range(config.epochs):
        seen, accum = 0, 0.0
        for batch_images, batch_labels in batches:
            loss, grads = batch_loss_and_grads(
                params, batch_images, batch_labels, weights, config.weight_decay
            )
            params, velocity = sgd_step(params, velocity, grads, epoch, config)
            accum += loss * len(batch_labels)
            seen += len(batch_labels)
        epoch_losses.append(accum / seen)
    return {"losses": epoch_losses, "params": params, "weights": weights}
