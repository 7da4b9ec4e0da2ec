"""Losses, optimizer, and the toy multi-task trainer.

Labels take one form, a ``LabelBatch`` of arrays with -1 (classes) or NaN
(targets) marking UNK; it is checked when it is built.  Each task's loss
is evaluated over a whole batch at once: it consumes the raw head outputs,
squashes internally (softmax, sigmoid, tanh) and returns per-sample losses
and the exact adjoint with respect to the raw output, so the whole
training path stays finite-difference checkable.  UNK labels
contribute zero loss and zero adjoint.  A trainer keeps its parameters in
an ``Arena``, one vector that the optimizer steps in place.  The toy model
is a ``graph.ModelGraph`` (a conv stem, pooling and the four heads), trained
through ``graph.forward`` and ``graph.backward``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import graph as gr
from . import numerics as nm
from .temporal import N_AU, N_EXPR


def _read_only(*arrays) -> tuple:
    for array in arrays:
        array.flags.writeable = False
    return arrays


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

    # The labeled positions each loss reads, computed on first use and kept
    # read-only, so a batch that is trained on every epoch finds them once.

    @functools.cached_property
    def expr_index(self):
        """(rows, classes) of the samples whose expression is labeled."""
        rows = np.flatnonzero(self.expr >= 0)
        return _read_only(rows, self.expr[rows])

    @functools.cached_property
    def au_index(self):
        """(rows, units, labels, m) of the labeled AUs, m being each sample's
        count of labeled AUs, at least 1."""
        observed = self.au >= 0
        rows, units = np.nonzero(observed)
        m = np.maximum(np.count_nonzero(observed, axis=1), 1)
        return _read_only(rows, units, self.au[rows, units], m)

    @functools.cached_property
    def affect_index(self):
        """(rows, targets) of the labeled samples, keyed by "arousal" and "valence"."""
        index = {}
        for task in ("arousal", "valence"):
            targets = getattr(self, task)
            rows = np.flatnonzero(~np.isnan(targets))
            index[task] = _read_only(rows, targets[rows])
        return index

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
        nm.require_count(self.epochs, "epochs")
        nm.require_count(self.batch_size, "batch_size")
        nm.require_count(self.seed, "seed", minimum=0)
        nm.require_real(self.lr0, "lr0", positive=True)
        for name in ("momentum", "lr_decay", "weight_decay"):
            nm.require_real(getattr(self, name), name)
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if not 0.0 <= self.lr_decay < 1.0:
            raise ValueError("lr_decay must lie in [0, 1)")
        if self.weight_decay < 0:
            raise ValueError(f"weight_decay must be nonnegative and finite, got {self.weight_decay!r}")


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

def _expr_loss(x, labels, weights):
    w = np.asarray(weights, dtype=float)
    if w.shape != x.shape[1:]:
        raise ValueError(f"expression weights {w.shape} do not match logits {x.shape[1:]}")
    loss, grad = np.zeros(len(x)), np.zeros_like(x)
    rows, ys = labels.expr_index
    if not rows.size:
        return loss, grad
    xs = x[rows]
    picked = np.arange(rows.size), ys
    wy = w[ys]
    m = xs.max(axis=1)
    logsum = m + np.array(list(map(math.log, np.exp(xs - m[:, None]).sum(axis=1).tolist())))
    loss[rows] = wy * (logsum - xs[picked])
    g = wy[:, None] * nm.softmax(xs)
    g[picked] -= wy
    grad[rows] = g
    return loss, grad


def _au_loss(x, labels, pair_weights):
    pair_weights = np.asarray(pair_weights, dtype=float)
    if x.shape != labels.au.shape or pair_weights.shape != (N_AU, 2):
        raise ValueError(f"AU outputs {x.shape} and weights {pair_weights.shape} do not "
                         f"match labels {labels.au.shape}")
    rows, units, ys, m = labels.au_index
    xs = x[rows, units]
    w = pair_weights[units, ys]
    # stable: -y log s(x) - (1-y) log(1-s(x)) = max(x,0) - x y + log1p(e^-|x|)
    softplus = np.array(list(map(math.log1p, map(math.exp, (-np.abs(xs)).tolist()))))
    terms = np.zeros_like(x)
    terms[rows, units] = w * (np.maximum(xs, 0.0) - xs * ys + softplus)
    grad = np.zeros_like(x)
    grad[rows, units] = w * (nm.sigmoid(xs) - ys)
    # each sample's terms summed left to right (np.sum would add them pairwise),
    # then averaged over its observed units
    total = np.zeros(len(x))
    for column in terms.T:
        total += column
    return total / m, grad / m[:, None]


def _affect_loss(x, index, squared: bool):
    """L1 (arousal) or L2 (valence) distance between tanh(raw) and the
    target; ``index`` is the task's (rows, targets)."""
    flat = x.reshape(len(x))
    loss, grad = np.zeros(len(x)), np.zeros(len(x))
    rows, targets = index
    pred = np.array(list(map(math.tanh, flat[rows].tolist())))
    diff = pred - targets
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
        return _expr_loss(x, labels, weights.expr)
    if task == "au":
        return _au_loss(x, labels, weights.au)
    if x.shape[1:] not in ((), (1,)):
        raise ValueError(f"{task} head output must be (n,) or (n, 1), got {x.shape}")
    return _affect_loss(x, labels.affect_index[task], squared=task == "valence")


class Arena:
    """A trainer's parameters and momentum velocities, each one contiguous
    float64 vector.

    ``params`` maps each key of the dict the arena was built from, in its
    order, to a view of the parameter vector in that tensor's shape, so a
    graph or a perceptron reads it like any parameter dict.  The optimizer
    and the L2 penalty work on the whole vector at once: the optimizer
    gathers the gradients into ``grad``, and both write their arena-wide
    temporaries into ``scratch``, so that a step allocates no vector.
    ``grads`` views ``grad`` as ``params`` views the parameters: a trainer
    that writes its gradients there passes it to the optimizer, which then
    copies nothing.
    """

    def __init__(self, params: dict):
        self.keys = tuple(params)
        self.shapes = tuple(np.shape(params[key]) for key in self.keys)
        sizes = [math.prod(shape) for shape in self.shapes]
        ends = np.cumsum(sizes).tolist()
        self.slices = tuple(map(slice, [0] + ends, ends))
        self.flat = np.zeros(sum(sizes))
        self.velocity = np.zeros_like(self.flat)
        self.grad, self.scratch = np.empty_like(self.flat), np.empty_like(self.flat)

        def views(vector):
            return {key: vector[part].reshape(shape)
                    for key, part, shape in zip(self.keys, self.slices, self.shapes)}

        self.params, self.grads = views(self.flat), views(self.grad)
        for key, view in self.params.items():
            view[...] = params[key]

    def gather(self, grads: dict) -> np.ndarray:
        """The gradients copied into ``grad``, in the arena's layout; already
        there if ``grads`` is the arena's own ``grads``."""
        if grads is self.grads:
            return self.grad
        parts = [np.asarray(grads[key]) for key in self.keys]
        for key, part, shape in zip(self.keys, parts, self.shapes):
            if part.shape != shape:
                raise ValueError(f"gradient for {key} has shape {part.shape}, expected {shape}")
        return np.concatenate(parts, axis=None, out=self.grad)

    def copy(self) -> dict:
        """The parameters as a dict of new arrays."""
        return {key: value.copy() for key, value in self.params.items()}


def l2_penalty(arena: Arena) -> float:
    """||p||^2, summed per tensor in key order: the arena is squared once and
    each tensor's slice summed, which equals np.sum over the tensor."""
    square = np.square(arena.flat, out=arena.scratch)
    return float(sum(square[part].sum() for part in arena.slices))


def learning_rate(epoch: int, config: TrainConfig) -> float:
    return config.lr0 * (1.0 - config.lr_decay) ** epoch


def sgd_step(arena: Arena, grads: dict, epoch: int, config: TrainConfig) -> None:
    """One momentum SGD step on the arena, in place.

    ``grads`` holds the loss adjoints keyed like the arena; the adjoint of
    the L2 penalty, 2 lam p with lam = ``config.weight_decay``, is added
    here.  Then v' = mu v - lr g and p' = p + v'.  A non-finite gradient
    raises a NumericError naming its first key and leaves the arena as it
    was.
    """
    g = arena.gather(grads)
    g += np.multiply(2.0 * config.weight_decay, arena.flat, out=arena.scratch)
    if not np.all(np.isfinite(g)):
        key = next(key for key, part in zip(arena.keys, arena.slices) if not np.all(np.isfinite(g[part])))
        raise nm.NumericError(f"non-finite gradient for {key}")
    g *= learning_rate(epoch, config)
    arena.velocity *= config.momentum
    arena.velocity -= g
    arena.flat += arena.velocity


# ---------------------------------------------------------------------------
# Toy multi-task model: a strided conv stem, pooling, the four linear heads.

TOY_CHANNELS = 8


@functools.cache
def toy_graph(size: int) -> gr.ModelGraph:
    """The toy model as a graph over ``size`` x ``size`` images, built once
    per size; a graph holds no state a pass changes, so every caller shares
    it."""
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
    return gr.backward(toy_graph(cache[0].x.shape[2]), params, cache, head_grads)


def toy_dataset(n: int = 200, size: int = 16, seed: int = 0):
    """Synthetic labeled images whose labels are linear-ish in the pixels.

    Each image is a class prototype plus noise; AU, arousal, and valence
    labels derive from channel statistics so a one-conv network can fit
    them.  AU labels read the left half of the image, so ``size`` must be
    at least 2.
    """
    nm.require_count(n, "samples")
    nm.require_count(size, "image_size")
    if size < 2:
        raise ValueError(f"image_size must be at least 2, got {size}")
    nm.require_count(seed, "seed", minimum=0)
    rng = np.random.default_rng(seed)
    protos = rng.normal(size=(N_EXPR, 3, size, size))
    images, expr = np.empty((n, 3, size, size)), np.empty(n, dtype=int)
    for i in range(n):
        expr[i] = rng.integers(N_EXPR)
        images[i] = protos[expr[i]] + 0.3 * rng.normal(size=(3, size, size))
    means = images.mean(axis=(2, 3))
    left = (images[..., : size // 2].mean(axis=(2, 3)) > 0).astype(int)
    arousal, valence = (np.array(list(map(math.tanh, (2.0 * means[:, c]).tolist()))) for c in (0, 1))
    return images, LabelBatch(expr, left[:, np.arange(N_AU) % 3], arousal, valence)


def batch_loss_and_grads(arena: Arena, images: np.ndarray, labels: LabelBatch,
                         weights: ClassWeights, lam: float):
    """Mean total (multitask plus L2) loss over a batch at the arena's
    parameters, and the adjoints of its multitask part for every parameter;
    one ``task_loss`` call per task.  ``sgd_step`` adds the L2 part's
    adjoint."""
    outputs, cache = toy_forward(arena.params, images)
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
    loss = total / n + lam * l2_penalty(arena)
    return loss, toy_backward(arena.params, cache, head_grads)


def train_toy(config: TrainConfig = TrainConfig(), n: int = 200, size: int = 16):
    """Mini-batch momentum SGD on the toy set; returns per-epoch losses.

    Batches are visited in fixed order, so a config seed pins the whole
    trajectory.  Epoch losses are averages of the batch losses seen while
    the epoch ran.  The batches are sliced once, so each keeps its label
    indices for the whole run.
    """
    images, labels = toy_dataset(n=n, size=size, seed=config.seed)
    weights = class_weights(labels)
    arena = Arena(gr.init_params(toy_graph(size), config.seed))
    step = min(config.batch_size, n)
    batches = [(images[start:start + step], labels[start:start + step])
               for start in range(0, n, step)]
    epoch_losses = []
    for epoch in range(config.epochs):
        seen, accum = 0, 0.0
        for batch_images, batch_labels in batches:
            loss, grads = batch_loss_and_grads(
                arena, batch_images, batch_labels, weights, config.weight_decay
            )
            sgd_step(arena, grads, epoch, config)
            accum += loss * len(batch_labels)
            seen += len(batch_labels)
        epoch_losses.append(accum / seen)
    return {"losses": epoch_losses, "params": arena.copy(), "weights": weights}
