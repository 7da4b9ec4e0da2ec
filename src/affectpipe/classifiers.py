"""Seven binary classifiers over 58-dim participant features.

All are hand-built on numpy behind one fit/predict contract: features are
standardized with statistics captured at fit time, fitting is deterministic
given the spec seed, and predict_proba returns the probability of the
positive (ASD) label.  Only the model families are pinned down; every
hyperparameter default here is our own choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import numerics as nm
from . import training as tr

KINDS = (
    "logistic", "lasso", "lda", "qda", "svm_rbf", "gbt", "mlp2",
)
# Kinds that train a stack of same-shape training sets in one loop: a
# fixed-length gradient loop, or boosting rounds whose trees grow level by
# level over the open nodes of every set.
STACKED_KINDS = ("logistic", "lasso", "gbt", "mlp2")


class DegenerateTrainingError(ValueError):
    """Training set contains a single class; no decision boundary exists."""


@dataclass(frozen=True)
class ClassifierSpec:
    kind: str = "logistic"
    l2: float = 1e-3
    l1: float = 1e-2
    iterations: int = 500
    step: float = 0.1
    svm_c: float = 1.0
    svm_gamma: float | None = None
    rounds: int = 100
    depth: int = 3
    shrinkage: float = 0.1
    hidden: tuple = (32, 16)
    epochs: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown classifier kind {self.kind!r}; choose from {KINDS}")
        floats = {name: getattr(self, name) for name in ("l2", "l1", "step", "svm_c", "shrinkage")}
        if self.svm_gamma is not None:
            floats["svm_gamma"] = self.svm_gamma
        for name, value in floats.items():
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        for name in ("iterations", "rounds", "depth", "epochs"):
            value = getattr(self, name)
            if not nm._is_count(value) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        if not nm._is_count(self.seed) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        hidden = self.hidden
        if not (isinstance(hidden, (tuple, list)) and len(hidden) == 2 and all(
                nm._is_count(h) and h > 0 for h in hidden)):
            raise ValueError(f"hidden must be two positive ints, got {hidden!r}")


@dataclass(frozen=True)
class Standardizer:
    """Column statistics (d,), or one row of them per matrix of a stack (s, d)."""
    mean: np.ndarray
    std: np.ndarray

    def apply(self, X: np.ndarray) -> np.ndarray:
        return (np.asarray(X, dtype=float) - self.mean[..., None, :]) / self.std[..., None, :]


def standardize_fit(X: np.ndarray):
    """Column z-scores of X (n, d), or of each matrix of a stack (s, n, d).

    Zero-variance columns are centered with unit divisor.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim not in (2, 3) or X.shape[-2] < 2:
        raise ValueError("standardization needs a matrix with at least 2 rows")
    mean = X.mean(axis=-2)
    std = X.std(axis=-2)
    std = np.where(std > 0.0, std, 1.0)
    stats = Standardizer(mean=mean, std=std)
    return stats, stats.apply(X)


@dataclass(frozen=True)
class FittedModel:
    kind: str
    stats: Standardizer
    payload: dict = field(repr=False)

    @property
    def n_features(self) -> int:
        return self.stats.mean.size


def _check_training_set(X, y):
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.size:
        raise ValueError(f"feature matrix {X.shape} and labels {y.shape} do not align")
    if not set(np.unique(y)) <= {0, 1}:
        raise ValueError("labels must be binary 0/1")
    if np.unique(y).size == 1:
        raise DegenerateTrainingError("training set has a single label")
    if X.shape[0] < 2:
        raise ValueError("need at least 2 training rows")
    return X, y


# --- linear family ---------------------------------------------------------

def _fit_logistic(X, y, spec, lasso: bool):
    """Gradient descent on every training set of the stack X (s, n, d), y (s, n).

    Each matrix product is one gemv per stack entry, so every set's payload
    is the one a loop over the sets would give.
    """
    s, n, d = X.shape
    Xt = np.swapaxes(X, 1, 2)
    w = np.zeros((s, d, 1))
    b = np.zeros((s, 1))
    for _ in range(spec.iterations):
        p = nm.sigmoid((X @ w)[..., 0] + b)
        err = p - y
        gw = Xt @ err[..., None] / n
        gb = err.mean(axis=1, keepdims=True)
        if lasso:
            w = w - spec.step * gw
            b = b - spec.step * gb
            cut = spec.step * spec.l1
            w = np.sign(w) * np.maximum(np.abs(w) - cut, 0.0)
        else:
            w = w - spec.step * (gw + spec.l2 * w)
            b = b - spec.step * gb
    return [{"w": w[k, :, 0], "b": float(b[k, 0])} for k in range(s)]


# --- Gaussian discriminants ------------------------------------------------

RIDGE = 1e-6


def _fit_lda(X, y):
    d = X.shape[1]
    mu = [X[y == c].mean(axis=0) for c in (0, 1)]
    pooled = np.zeros((d, d))
    for c in (0, 1):
        centered = X[y == c] - mu[c]
        pooled += centered.T @ centered
    pooled /= max(X.shape[0] - 2, 1)
    pooled += RIDGE * np.eye(d)
    w = np.linalg.solve(pooled, mu[1] - mu[0])
    prior = [float((y == c).mean()) for c in (0, 1)]
    b = -0.5 * float((mu[1] + mu[0]) @ w) + math.log(prior[1] / prior[0])
    return {"w": w, "b": b}


def _fit_qda(X, y):
    d = X.shape[1]
    payload = {"priors": [], "means": [], "inv_covs": [], "logdets": []}
    for c in (0, 1):
        rows = X[y == c]
        mu = rows.mean(axis=0)
        centered = rows - mu
        cov = centered.T @ centered / max(rows.shape[0] - 1, 1) + RIDGE * np.eye(d)
        sign, logdet = np.linalg.slogdet(cov)
        payload["priors"].append(float((y == c).mean()))
        payload["means"].append(mu)
        payload["inv_covs"].append(np.linalg.inv(cov))
        payload["logdets"].append(float(logdet))
    return payload


def _qda_decision(payload, X):
    scores = []
    for c in (0, 1):
        diff = X - payload["means"][c]
        maha = np.einsum("nd,de,ne->n", diff, payload["inv_covs"][c], diff)
        scores.append(-0.5 * payload["logdets"][c] - 0.5 * maha + math.log(payload["priors"][c]))
    return scores[1] - scores[0]


# --- RBF SVM by sequential minimal optimization ----------------------------

def _rbf_kernel(A, B, gamma):
    sq = np.sum(A * A, axis=1)[:, None] + np.sum(B * B, axis=1)[None, :] - 2.0 * A @ B.T
    return np.exp(-gamma * np.maximum(sq, 0.0))


def _fit_svm(X, y, spec):
    n = X.shape[0]
    gamma = spec.svm_gamma if spec.svm_gamma is not None else 1.0 / X.shape[1]
    sy = 2.0 * y - 1.0
    K = _rbf_kernel(X, X, gamma)
    alpha = np.zeros(n)
    b = 0.0
    rng = np.random.default_rng(spec.seed)
    tol, c = 1e-3, spec.svm_c
    passes, max_passes, sweeps = 0, 3, 0
    while passes < max_passes and sweeps < 200:
        sweeps += 1
        changed = 0
        for i in range(n):
            f_i = float((alpha * sy) @ K[:, i] + b)
            e_i = f_i - sy[i]
            if not ((sy[i] * e_i < -tol and alpha[i] < c) or (sy[i] * e_i > tol and alpha[i] > 0)):
                continue
            j = int(rng.integers(n - 1))
            if j >= i:
                j += 1
            f_j = float((alpha * sy) @ K[:, j] + b)
            e_j = f_j - sy[j]
            a_i_old, a_j_old = alpha[i], alpha[j]
            if sy[i] != sy[j]:
                low, high = max(0.0, a_j_old - a_i_old), min(c, c + a_j_old - a_i_old)
            else:
                low, high = max(0.0, a_i_old + a_j_old - c), min(c, a_i_old + a_j_old)
            if low == high:
                continue
            eta = 2.0 * K[i, j] - K[i, i] - K[j, j]
            if eta >= 0:
                continue
            a_j = np.clip(a_j_old - sy[j] * (e_i - e_j) / eta, low, high)
            if abs(a_j - a_j_old) < 1e-5:
                continue
            a_i = a_i_old + sy[i] * sy[j] * (a_j_old - a_j)
            alpha[i], alpha[j] = a_i, a_j
            b1 = b - e_i - sy[i] * (a_i - a_i_old) * K[i, i] - sy[j] * (a_j - a_j_old) * K[i, j]
            b2 = b - e_j - sy[i] * (a_i - a_i_old) * K[i, j] - sy[j] * (a_j - a_j_old) * K[j, j]
            if 0 < a_i < c:
                b = b1
            elif 0 < a_j < c:
                b = b2
            else:
                b = (b1 + b2) / 2.0
            changed += 1
        passes = passes + 1 if changed == 0 else 0
    keep = alpha > 1e-12
    return {
        "support": X[keep], "coef": (alpha * sy)[keep], "b": b, "gamma": gamma,
    }


# --- gradient boosted trees -------------------------------------------------

MAX_LEAF_VALUE = 4.0


@dataclass(frozen=True)
class Tree:
    """One regression tree as flat per-node arrays; node 0 is the root.

    An inner node sends a row to ``left`` when its ``feature`` value is at
    most ``threshold`` and to ``right`` otherwise.  A leaf has feature -1,
    child indices -1 and threshold 0; only leaves carry a nonzero ``value``.
    Nodes are numbered depth-first, left subtree before right.
    """
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray


def _node_sums(gh, counts):
    """Per node of a tree level: its gradient sum, hessian sum and gradient
    dot product, from gh (K, 2, L) padded past each node's row count.

    Nodes of one row count are reduced as one contiguous (m, 2, count)
    block, whose row sums are numpy's pairwise sums and whose row products
    are BLAS dots: bit for bit what ``sum`` and ``@`` give on one node's
    1-D array.  Reductions over the padding would add in another order.
    """
    sums = np.empty((3, counts.size))
    for c in np.unique(counts):
        at = np.flatnonzero(counts == c)
        block = gh[at, :, :c]
        sums[:2, at] = block.sum(axis=-1).T
        sums[2, at] = (block[:, :1] @ block[:, 0, :, None])[:, 0, 0]
    return sums


# Elements of one padded (rows, nodes, features) block of a split search,
# 64 KiB of float64: its temporaries stay in cache while numpy calls stay
# few.  Of 2**11 to 2**17, 2**13 fitted 30- to 88-participant LOOCVs fastest.
_CHUNK = 1 << 13


def _chunks(counts, d):
    """The nodes that can split (two rows or more), largest first, in runs
    whose blocks padded to the run's largest node stay within _CHUNK."""
    nodes = np.argsort(-counts, kind="stable")
    nodes = nodes[counts[nodes] >= 2]
    start = 0
    while start < nodes.size:
        stop = start + max(1, _CHUNK // (counts[nodes[start]] * d))
        yield nodes[start:stop]
        start = stop


def _best_splits(vals, g, total, sq_total, counts):
    """Exact greedy SSE-minimizing split of every node of a tree level at once.

    vals (L, K, d) holds the values of each node k's feature j sorted along
    L by a stable sort, and g (L, K, d) the node's gradients in the same
    order; entries past a node's row count are padding.  gains[i, k, j] is
    the gain of splitting node k's feature j between its i-th and (i+1)-th
    smallest value.  Ties go to the lowest feature, then to the lowest
    position.  Returns each node's feature and threshold, and whether its
    best gain exceeds 1e-12.
    """
    L, K, _ = vals.shape
    # counts as floats: exact, and what dividing a float by an int converts to
    left_n = np.arange(1.0, L)[:, None, None]
    count = counts.astype(float)[:, None]
    # cumsum is sequential, so each prefix equals the node's own 1-D cumsum
    left_sum, left_sq = np.cumsum(np.stack([g, g * g])[:, :-1], axis=1)
    left_sse = left_sq - left_sum**2 / left_n
    right_sum = total[:, None] - left_sum
    # padding positions divide by 1, not by 0 or less; their gains are masked
    right_sse = (sq_total[:, None] - left_sq) - right_sum**2 / np.maximum(count - left_n, 1.0)
    gains = (sq_total - total * total / count[:, 0])[:, None] - (left_sse + right_sse)
    gains[(vals[1:] == vals[:-1]) | (left_n >= count)] = -np.inf
    gains = gains.transpose(1, 2, 0).reshape(K, -1)
    best = gains.argmax(axis=1)
    node = np.arange(K)
    feature, at = np.divmod(best, L - 1)
    threshold = (vals[at, node, feature] + vals[at + 1, node, feature]) / 2.0
    return feature, threshold, gains[node, best] > 1e-12


def _grow_trees(X, root, gh, depth):
    """Grow one regression tree per set of a stack, all sets level by level.

    X (n + 1, s, d) holds row i of every set's features at X[i], plus a
    padding row n of NaN, which sorts after every value; ``root`` is the
    (values, order) of each column's stable sort over the n rows.  gh
    (s, 2, n + 1) holds each row's gradient and hessian, zero at row n.
    Each level makes one split search over the open nodes of every set.  A
    node keeps its rows in increasing order, padded with row n past its
    count, so its sort breaks ties as a sort of its own rows would.

    Returns the level records of ``_depth_first`` and each row's leaf value
    (s, n + 1).
    """
    s, d = X.shape[1:]
    pad = X.shape[0] - 1
    fitted = np.empty((s, pad + 1))
    owner = np.arange(s)
    rows = np.broadcast_to(np.arange(pad), (s, pad))
    counts = np.full(s, pad)
    levels = []
    while owner.size:
        node_gh = gh[owner[:, None, None], np.arange(2)[:, None], rows[:, None, :]]
        total, h_total, sq_total = _node_sums(node_gh, counts)
        feature = np.zeros(owner.size, dtype=np.intp)
        threshold = np.zeros(owner.size)
        split = np.zeros(owner.size, dtype=bool)
        if len(levels) < depth:
            for at in _chunks(counts, d):
                if levels:
                    node_X = X[rows[at, :counts[at[0]]].T[:, :, None], owner[at, None],
                               np.arange(d)]
                    order = node_X.argsort(axis=0, kind="stable")
                    vals = np.take_along_axis(node_X, order, axis=0)
                else:
                    vals, order = root[0][:, at], root[1][:, at]
                g = node_gh[at, 0][np.arange(at.size)[:, None], order]
                feature[at], threshold[at], split[at] = _best_splits(
                    vals, g, total[at], sq_total[at], counts[at])
            go_left = X[rows, owner[:, None], feature[:, None]] <= threshold[:, None]
            n_left = np.count_nonzero(go_left, axis=1)
            # a midpoint can round onto the larger value and leave one side empty
            split &= (n_left > 0) & (n_left < counts)
        feature = np.where(split, feature, -1)
        threshold = np.where(split, threshold, 0.0)
        value = np.where(split, 0.0, np.clip(total / (h_total + 1e-12),
                                             -MAX_LEAF_VALUE, MAX_LEAF_VALUE))
        # the rows of a split node are written again by its children
        fitted[owner[:, None], rows] = value[:, None]
        parents = np.flatnonzero(split)
        levels.append((owner, feature, threshold, value, parents))
        if parents.size:
            # left children first, then right ones, each keeping its rows in order
            in_left = go_left[parents]
            member = np.concatenate([in_left, ~in_left & (rows[parents] < pad)])
            counts = np.count_nonzero(member, axis=1)
            first = np.argsort(~member, axis=1, kind="stable")[:, :counts.max()]
            both = np.concatenate([rows[parents], rows[parents]])
            rows = both[np.arange(both.shape[0])[:, None], first]
            rows = np.where(np.arange(rows.shape[1]) < counts[:, None], rows, pad)
        owner = np.concatenate([owner[parents], owner[parents]])
    return levels, fitted


def _depth_first(rounds, sets):
    """The trees of every round from their level records, numbered depth-first.

    rounds[r][l] is (owner, feature, threshold, value, parents) for the
    nodes of level l of round r, where owner is each node's set; the
    children of the level's i-th parent are nodes i (left) and m + i (right)
    of the next level, m being the level's parent count.  Levels of one
    depth are numbered together across rounds.  Returns the trees
    round-major: tree r * sets + k is round r's tree of set k.
    """
    columns = ([], [], [], [])
    links = []
    start = 0
    for level in range(max(map(len, rounds))):
        records = [(r, levels[level]) for r, levels in enumerate(rounds) if len(levels) > level]
        sizes = np.array([record[0].size for _, record in records])
        m = np.array([record[4].size for _, record in records])
        columns[0].append(np.concatenate([r * sets + record[0] for r, record in records]))
        for out, field in zip(columns[1:], (1, 2, 3)):
            out.append(np.concatenate([record[field] for _, record in records]))
        at = np.concatenate([record[4] for _, record in records])
        at += np.repeat(start + np.cumsum(sizes) - sizes, m)
        start += sizes.sum()
        left = start + np.arange(m.sum()) + np.repeat(np.cumsum(m) - m, m)
        links.append((at, left, left + np.repeat(m, m)))
    tree, feature, threshold, value = (np.concatenate(out) for out in columns)
    left_of = np.full(tree.size, -1, dtype=np.intp)
    right_of = np.full(tree.size, -1, dtype=np.intp)
    size = np.ones(tree.size, dtype=np.intp)
    for at, left, right in reversed(links):
        left_of[at] = left
        right_of[at] = right
        size[at] += size[left] + size[right]
    order = np.zeros(tree.size, dtype=np.intp)
    for at, left, right in links:
        order[left] = order[at] + 1
        order[right] = order[at] + 1 + size[left]
    trees = len(rounds) * sets
    ends = np.cumsum(size[:trees])
    slot = (ends - size[:trees])[tree] + order
    placed = []
    for column in (feature, threshold, np.where(left_of >= 0, order[left_of], -1),
                   np.where(right_of >= 0, order[right_of], -1), value):
        placed.append(np.empty_like(column))
        placed[-1][slot] = column
    bounds = np.concatenate([[0], ends]).tolist()
    return [Tree(*(column[a:b] for column in placed)) for a, b in zip(bounds, bounds[1:])]


def _forest_predict(trees, X):
    """Leaf value of every tree (result rows) for every row of X (result columns).

    The trees' node arrays are concatenated and walked together from their
    roots, one tree level per step.
    """
    sizes = [tree.feature.size for tree in trees]
    roots = np.cumsum([0] + sizes[:-1])
    shift = np.repeat(roots, sizes)
    feature = np.concatenate([tree.feature for tree in trees])
    threshold = np.concatenate([tree.threshold for tree in trees])
    left = np.concatenate([tree.left for tree in trees]) + shift
    right = np.concatenate([tree.right for tree in trees]) + shift
    value = np.concatenate([tree.value for tree in trees])
    n = X.shape[0]
    node = np.repeat(roots, n)
    row = np.tile(np.arange(n), len(trees))
    live = np.flatnonzero(feature[node] >= 0)
    while live.size:
        at = node[live]
        go_left = X[row[live], feature[at]] <= threshold[at]
        node[live] = np.where(go_left, left[at], right[at])
        live = live[feature[node[live]] >= 0]
    return value[node].reshape(len(trees), n)


def _fit_gbt(X, y, spec):
    """Gradient boosting on every training set of the stack X (s, n, d), y (s, n).

    Each round grows the trees of all sets together, so every set's payload
    is the one a separate fit gives, bit for bit.
    """
    s, n, d = X.shape
    rows_first = np.full((n + 1, s, d), np.nan)
    rows_first[:n] = np.swapaxes(X, 0, 1)
    order = np.argsort(rows_first[:n], axis=0, kind="stable")
    root = np.take_along_axis(rows_first, order, axis=0), order
    f0 = [math.log(pos / (1.0 - pos)) for pos in y.mean(axis=1).tolist()]
    score = np.repeat(np.array(f0)[:, None], n, axis=1)
    gh = np.zeros((s, 2, n + 1))
    rounds, losses = [], []
    for _ in range(spec.rounds):
        p = nm.sigmoid(score)
        losses.append(np.mean(
            np.maximum(score, 0.0) - score * y + np.log1p(np.exp(-np.abs(score))), axis=1))
        gh[:, 0, :n] = y - p
        gh[:, 1, :n] = p * (1.0 - p)
        levels, fitted = _grow_trees(rows_first, root, gh, spec.depth)
        rounds.append(levels)
        score = score + spec.shrinkage * fitted[:, :n]
    trees = _depth_first(rounds, s)
    losses = np.array(losses).T.tolist()
    return [{"f0": f0[k], "trees": trees[k::s], "shrinkage": spec.shrinkage,
             "train_losses": losses[k]} for k in range(s)]


# --- two-hidden-layer perceptron --------------------------------------------

def _mlp_shapes(d, hidden):
    h1, h2 = hidden
    return {
        "l1.w": (h1, d), "l1.b": (h1,),
        "l2.w": (h2, h1), "l2.b": (h2,),
        "out.w": (1, h2), "out.b": (1,),
    }


def _fit_mlp(X, y, spec):
    """Momentum SGD on every training set of the stack X (s, n, d), y (s, n).

    All sets start from the same seeded weights; each keeps its own class
    weights, and each matrix product is one gemm or gemv per stack entry.
    """
    s, n, d = X.shape
    rng = np.random.default_rng(spec.seed)
    params = {}
    for key, shape in sorted(_mlp_shapes(d, spec.hidden).items()):
        if key.endswith(".w"):
            init = rng.normal(0.0, np.sqrt(2.0 / shape[1]), size=shape)
        else:
            init = np.zeros(shape)
        params[key] = np.repeat(init[None], s, axis=0)
    velocity = {k: np.zeros_like(v) for k, v in params.items()}
    config = tr.TrainConfig(lr0=0.1, momentum=0.9, lr_decay=0.01,
                            epochs=spec.epochs, weight_decay=1e-4, seed=spec.seed)
    sample_w = np.empty((s, n))
    for k in range(s):
        counts = np.array([(y[k] == 0).sum(), (y[k] == 1).sum()], dtype=float)
        sample_w[k] = tr.inverse_frequency(counts)[y[k]]
    for epoch in range(config.epochs):
        z1 = nm.linear(X, params["l1.w"], params["l1.b"])
        a1 = nm.relu(z1)
        z2 = nm.linear(a1, params["l2.w"], params["l2.b"])
        a2 = nm.relu(z2)
        z = nm.linear(a2, params["out.w"], params["out.b"])[..., 0]
        p = nm.sigmoid(z)
        gz = (sample_w * (p - y) / n)[..., None]
        ga2, gw_out, gb_out = nm.linear_backward(gz, a2, params["out.w"])
        gz2 = nm.relu_backward(ga2, z2)
        ga1, gw2, gb2 = nm.linear_backward(gz2, a1, params["l2.w"])
        gz1 = nm.relu_backward(ga1, z1)
        _, gw1, gb1 = nm.linear_backward(gz1, X, params["l1.w"])
        grads = {
            "l1.w": gw1, "l1.b": gb1, "l2.w": gw2, "l2.b": gb2,
            "out.w": gw_out, "out.b": gb_out,
        }
        for key in params:
            grads[key] = grads[key] + 2.0 * config.weight_decay * params[key]
        params, velocity = tr.sgd_step(params, velocity, grads, epoch, config)
    return [{"params": {key: v[k] for key, v in params.items()}, "hidden": tuple(spec.hidden)}
            for k in range(s)]


def _mlp_decision(payload, X):
    params = payload["params"]
    a1 = nm.relu(nm.linear(X, params["l1.w"], params["l1.b"]))
    a2 = nm.relu(nm.linear(a1, params["l2.w"], params["l2.b"]))
    return nm.linear(a2, params["out.w"], params["out.b"])[:, 0]


# --- public contract ---------------------------------------------------------

def _fit_stack(spec, X, y) -> list[FittedModel]:
    """Standardize and train every set of a checked stack X (s, n, d), y (s, n)."""
    stats, Xs = standardize_fit(X)
    if spec.kind == "mlp2":
        payloads = _fit_mlp(Xs, y, spec)
    elif spec.kind == "gbt":
        payloads = _fit_gbt(Xs, y, spec)
    else:
        payloads = _fit_logistic(Xs, y, spec, lasso=spec.kind == "lasso")
    return [FittedModel(kind=spec.kind, stats=Standardizer(stats.mean[k], stats.std[k]),
                        payload=payload) for k, payload in enumerate(payloads)]


def fit(spec: ClassifierSpec, X, y) -> FittedModel | list[FittedModel]:
    """Standardize, then train the classifier named by the spec.

    X (n, d) with labels y (n,) gives one model.  For the STACKED_KINDS, a
    stack X (s, n, d) with labels y (s, n) gives a list of s models, trained
    in one loop and equal to s separate fits; their single fit is the stack
    of one.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim == 3 and spec.kind in STACKED_KINDS:
        y = np.asarray(y, dtype=int)
        if y.shape != X.shape[:2]:
            raise ValueError(f"feature stack {X.shape} and labels {y.shape} do not align")
        for X_set, y_set in zip(X, y):
            _check_training_set(X_set, y_set)
        return _fit_stack(spec, X, y)
    X, y = _check_training_set(X, y)
    if spec.kind in STACKED_KINDS:
        return _fit_stack(spec, X[None], y[None])[0]
    stats, Xs = standardize_fit(X)
    if spec.kind == "lda":
        payload = _fit_lda(Xs, y)
    elif spec.kind == "qda":
        payload = _fit_qda(Xs, y)
    else:
        payload = _fit_svm(Xs, y, spec)
    return FittedModel(kind=spec.kind, stats=stats, payload=payload)


def fit_folds(spec: ClassifierSpec, X_folds, y_folds) -> list[FittedModel]:
    """One model per training set (for example, per LOOCV fold), in order.

    The STACKED_KINDS (logistic, lasso, gbt, mlp2) train every set in one
    stacked ``fit`` call, so their sets must share one shape.  lda, qda and
    svm_rbf call ``fit`` once per set.
    """
    if spec.kind in STACKED_KINDS and len(X_folds):
        return fit(spec, np.stack(X_folds), np.stack(y_folds))
    return [fit(spec, X, y) for X, y in zip(X_folds, y_folds, strict=True)]


def decision_values(model: FittedModel, X) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != model.n_features:
        raise ValueError(f"expected {model.n_features} features, got {X.shape[1]}")
    Xs = model.stats.apply(X)
    kind, payload = model.kind, model.payload
    if kind in ("logistic", "lasso", "lda"):
        return Xs @ payload["w"] + payload["b"]
    if kind == "qda":
        return _qda_decision(payload, Xs)
    if kind == "svm_rbf":
        K = _rbf_kernel(Xs, payload["support"], payload["gamma"])
        return K @ payload["coef"] + payload["b"]
    if kind == "gbt":
        score = np.full(Xs.shape[0], payload["f0"])
        for leaf_values in _forest_predict(payload["trees"], Xs):
            score = score + payload["shrinkage"] * leaf_values
        return score
    return _mlp_decision(payload, Xs)


def predict_proba(model: FittedModel, x):
    """Probability of the positive label; scalar in, scalar out."""
    single = np.asarray(x).ndim == 1
    p = nm.sigmoid(decision_values(model, x))
    return float(p[0]) if single else p


def decide(p, threshold: float = 0.5):
    """Positive iff p strictly exceeds the threshold."""
    p = np.asarray(p, dtype=float)
    if not np.all((p >= 0) & (p <= 1)):
        raise ValueError("probabilities must lie in [0, 1]")
    out = p > threshold
    return bool(out) if out.ndim == 0 else out
