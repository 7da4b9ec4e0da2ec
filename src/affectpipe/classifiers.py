"""Seven binary classifiers over 58-dim participant features.

All are hand-built on numpy behind one fit/predict contract: features are
standardized with statistics captured at fit time, fitting is deterministic
given the spec seed, and predict_proba returns the probability of the
positive (ASD) label.  ``fit`` also takes a stack of same-shape training
sets, such as the folds of one LOOCV, and gives one model per set.  Only
the model families are pinned down; every hyperparameter default here is
our own choice.
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
        for name in ("l2", "l1", "step", "svm_c", "shrinkage"):
            nm.require_real(getattr(self, name), name, positive=True)
        if self.svm_gamma is not None:
            nm.require_real(self.svm_gamma, "svm_gamma", positive=True)
        for name in ("iterations", "rounds", "depth", "epochs"):
            nm.require_count(getattr(self, name), name)
        nm.require_count(self.seed, "seed", minimum=0)
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
    y = np.asarray(y)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.size:
        raise ValueError(f"feature matrix {X.shape} and labels {y.shape} do not align")
    nm.require_finite(X, "feature matrix")
    # checked before the cast, so 0.7 or 1.9 is refused rather than truncated
    if not np.all((y == 0) | (y == 1)):
        raise ValueError("labels must be binary 0/1")
    y = y.astype(int)
    if np.unique(y).size == 1:
        raise DegenerateTrainingError("training set has a single label")
    if X.shape[0] < 2:
        raise ValueError("need at least 2 training rows")
    return X, y


# --- linear family ---------------------------------------------------------

def _fit_logistic(X, y, spec, lasso: bool):
    """Gradient descent on every training set of the stack X (s, n, d), y (s, n).

    Each matrix product is one gemv per stack entry, so every set's payload
    is the one a loop over the sets would give.  Every step writes into
    arrays made once per fit.
    """
    s, n, d = X.shape
    Xt = np.swapaxes(X, 1, 2)
    y = y.astype(float)
    w, gw, step_w = np.zeros((s, d, 1)), np.empty((s, d, 1)), np.empty((s, d, 1))
    b, gb = np.zeros((s, 1)), np.empty((s, 1))
    # z and err as (s, n, 1) columns for the products, as (s, n) rows otherwise
    z, p, err = np.empty((s, n, 1)), np.empty((s, n)), np.empty((s, n, 1))
    z_rows, err_rows = z[..., 0], err[..., 0]
    cut = spec.step * spec.l1
    for _ in range(spec.iterations):
        np.matmul(X, w, out=z)
        nm.sigmoid(np.add(z_rows, b, out=z_rows), out=p)
        np.subtract(p, y, out=err_rows)
        np.matmul(Xt, err, out=gw)
        gw /= n
        np.add.reduce(err_rows, axis=1, keepdims=True, out=gb)
        gb /= n
        if lasso:
            w -= np.multiply(spec.step, gw, out=gw)
            # w = sign(w) * max(|w| - cut, 0)
            np.subtract(np.abs(w, out=step_w), cut, out=step_w)
            np.maximum(step_w, 0.0, out=step_w)
            np.multiply(np.sign(w, out=w), step_w, out=w)
        else:
            # w = w - step * (gw + l2 * w)
            np.add(gw, np.multiply(spec.l2, w, out=step_w), out=step_w)
            w -= np.multiply(spec.step, step_w, out=step_w)
        b -= np.multiply(spec.step, gb, out=gb)
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
    """Sequential minimal optimization on one training set.

    The loop steps Python floats: a float's min and max clip as np.clip
    does, ties to the value clipped included.  ``coef`` holds alpha * sy
    and changes at the two entries a pair update moves, and each f(x_i) is
    its dot with K's column i, as a product rebuilt per row would give.
    """
    n = X.shape[0]
    gamma = spec.svm_gamma if spec.svm_gamma is not None else 1.0 / X.shape[1]
    sy = 2.0 * y - 1.0
    K = _rbf_kernel(X, X, gamma)
    columns = [K[:, i] for i in range(n)]
    kernel, labels = K.tolist(), sy.tolist()
    alpha = [0.0] * n
    coef = np.zeros(n) * sy
    b = 0.0
    rng = np.random.default_rng(spec.seed)
    tol, c = 1e-3, spec.svm_c
    passes, max_passes, sweeps = 0, 3, 0
    while passes < max_passes and sweeps < 200:
        sweeps += 1
        changed = 0
        for i in range(n):
            y_i, a_i_old = labels[i], alpha[i]
            e_i = float(coef @ columns[i]) + b - y_i
            if not ((y_i * e_i < -tol and a_i_old < c) or (y_i * e_i > tol and a_i_old > 0)):
                continue
            j = int(rng.integers(n - 1))
            if j >= i:
                j += 1
            y_j, a_j_old = labels[j], alpha[j]
            e_j = float(coef @ columns[j]) + b - y_j
            if y_i != y_j:
                low, high = max(0.0, a_j_old - a_i_old), min(c, c + a_j_old - a_i_old)
            else:
                low, high = max(0.0, a_i_old + a_j_old - c), min(c, a_i_old + a_j_old)
            if low == high:
                continue
            k_ii, k_ij, k_jj = kernel[i][i], kernel[i][j], kernel[j][j]
            eta = 2.0 * k_ij - k_ii - k_jj
            if eta >= 0:
                continue
            a_j = min(max(a_j_old - y_j * (e_i - e_j) / eta, low), high)
            if abs(a_j - a_j_old) < 1e-5:
                continue
            a_i = a_i_old + y_i * y_j * (a_j_old - a_j)
            alpha[i], alpha[j] = a_i, a_j
            coef[i], coef[j] = a_i * y_i, a_j * y_j
            b1 = b - e_i - y_i * (a_i - a_i_old) * k_ii - y_j * (a_j - a_j_old) * k_ij
            b2 = b - e_j - y_i * (a_i - a_i_old) * k_ij - y_j * (a_j - a_j_old) * k_jj
            if 0 < a_i < c:
                b = b1
            elif 0 < a_j < c:
                b = b2
            else:
                b = (b1 + b2) / 2.0
            changed += 1
        passes = passes + 1 if changed == 0 else 0
    keep = np.array(alpha) > 1e-12
    return {"support": X[keep], "coef": coef[keep], "b": float(b), "gamma": gamma}


# --- gradient boosted trees -------------------------------------------------

MAX_LEAF_VALUE = 4.0


@dataclass(frozen=True)
class Forest:
    """The regression trees of one boosted fit as flat per-node arrays.

    Tree r starts at node ``roots[r]`` and ends where tree r + 1 starts.  An
    inner node sends a row to ``left`` when its ``feature`` value is at most
    ``threshold`` and to ``right`` otherwise.  A leaf has feature -1, child
    indices -1 and threshold 0; only leaves carry a nonzero ``value``.  Each
    tree is numbered level by level, and a level holds the left children of
    the level above, then the right ones, each in parent order.
    """
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    roots: np.ndarray


def _node_sums(gh, counts):
    """Per node of a tree level: its gradient sum, hessian sum and gradient
    dot product, from gh (K, 2, L) padded past each node's row count.

    Nodes of one row count are reduced as one (m, 2, count) block, whose
    row sums are numpy's pairwise sums and whose row products are BLAS
    dots: bit for bit what ``sum`` and ``@`` give on one node's 1-D array.
    Reductions over the padding would add in another order.  A level whose
    nodes all hold one row count is one block.
    """
    sums = np.empty((3, counts.size))
    uniform = counts.min() == counts.max()
    for c in counts[:1] if uniform else np.unique(counts):
        at = slice(None) if uniform else np.flatnonzero(counts == c)
        block = gh[at, :, :c]
        sums[:2, at] = np.add.reduce(block, axis=-1).T
        sums[2, at] = (block[:, :1] @ block[:, 0, :, None])[:, 0, 0]
    return sums


# Elements of one padded (rows, nodes, features) block of a split search,
# 64 KiB of float64: its temporaries stay in cache while numpy calls stay
# few.  Of 2**11 to 2**17, 2**13 fitted 30- to 88-participant LOOCVs fastest.
_CHUNK = 1 << 13


def _chunks(counts, d):
    """The nodes that can split (two rows or more) in runs whose blocks,
    padded to the run's largest node, stay within _CHUNK; each run comes
    with its largest row count.  A level that fits in one run keeps its
    node order, a larger one is cut into runs of its nodes largest first.
    Each node's search is its own, so neither order changes a split.
    """
    nodes = np.flatnonzero(counts >= 2)
    if not nodes.size:
        return
    widest = counts.max()
    if nodes.size <= max(1, _CHUNK // (widest * d)):
        yield nodes, widest
        return
    nodes = nodes[np.argsort(-counts[nodes], kind="stable")]
    start = 0
    while start < nodes.size:
        widest = counts[nodes[start]]
        stop = start + max(1, _CHUNK // (widest * d))
        yield nodes[start:stop], widest
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
    left = g[:-1]
    left_sum = np.cumsum(left, axis=0)
    left_sq = np.cumsum(np.multiply(left, left), axis=0)
    # left_sse = left_sq - left_sum**2 / left_n
    left_sse = np.square(left_sum)
    left_sse /= left_n
    np.subtract(left_sq, left_sse, out=left_sse)
    # right_sse = (sq_total - left_sq) - right_sum**2 / (count - left_n), where
    # padding positions divide by 1, not by 0 or less; their gains are masked
    right = np.subtract(total[:, None], left_sum, out=left_sum)
    np.square(right, out=right)
    right /= np.maximum(count - left_n, 1.0)
    np.subtract(np.subtract(sq_total[:, None], left_sq, out=left_sq), right, out=right)
    # gains = parent_sse - (left_sse + right_sse)
    gains = np.add(left_sse, right, out=right)
    np.subtract((sq_total - total * total / count[:, 0])[:, None], gains, out=gains)
    masked = np.equal(vals[1:], vals[:-1])
    np.copyto(gains, -np.inf, where=np.logical_or(masked, left_n >= count, out=masked))
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

    Returns the level records of ``_forests`` and each row's leaf value
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
            for at, width in _chunks(counts, d):
                if levels:
                    node_X = X[rows[at, :width].T[:, :, None], owner[at, None], np.arange(d)]
                    order = node_X.argsort(axis=0, kind="stable")
                    vals = node_X[order, np.arange(at.size)[:, None], np.arange(d)]
                else:
                    vals, order = root[0][:, at], root[1][:, at]
                g = node_gh[at[:, None], 0, order]
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


def _forests(rounds, sets):
    """Every set's Forest from the level records of its rounds.

    rounds[r][l] is (owner, feature, threshold, value, parents) for the
    nodes of level l of round r, where owner is each node's set; the
    children of the level's i-th parent are nodes i (left) and m + i (right)
    of the next level, m being the level's parent count.  The records are
    numbered round by round and level by level, then sorted stably by set.
    """
    levels = [level for levels in rounds for level in levels]
    owner, feature, threshold, value = (
        np.concatenate([level[i] for level in levels]) for i in range(4))
    starts = np.cumsum([0] + [level[0].size for level in levels])
    left = np.full(owner.size, -1, dtype=np.intp)
    right = np.full(owner.size, -1, dtype=np.intp)
    for start, stop, (*_, parents) in zip(starts, starts[1:], levels):
        left[start + parents] = stop + np.arange(parents.size)
        right[start + parents] = stop + parents.size + np.arange(parents.size)
    order = np.argsort(owner, kind="stable")
    bounds = np.searchsorted(owner[order], np.arange(sets + 1))
    # each node's place in its set's block: its rank in the stable sort
    local = np.argsort(order) - bounds[owner]
    first_levels = np.cumsum([0] + [len(levels) for levels in rounds[:-1]])
    roots = local[starts[first_levels] + np.arange(sets)[:, None]]
    columns = [column[order] for column in (
        feature, threshold, np.where(left >= 0, local[left], -1),
        np.where(right >= 0, local[right], -1), value)]
    return [Forest(*(column[a:b] for column in columns), roots=roots[k])
            for k, (a, b) in enumerate(zip(bounds[:-1], bounds[1:]))]


def _forest_predict(forest, X):
    """Leaf value of every tree (result rows) for every row of X (result columns).

    All trees are walked together from their roots, one tree level per step.
    """
    n = X.shape[0]
    node = np.repeat(forest.roots, n)
    row = np.tile(np.arange(n), forest.roots.size)
    live = np.flatnonzero(forest.feature[node] >= 0)
    while live.size:
        at = node[live]
        go_left = X[row[live], forest.feature[at]] <= forest.threshold[at]
        node[live] = np.where(go_left, forest.left[at], forest.right[at])
        live = live[forest.feature[node[live]] >= 0]
    return forest.value[node].reshape(forest.roots.size, n)


def _fit_gbt(X, y, spec):
    """Gradient boosting on every training set of the stack X (s, n, d), y (s, n).

    Each round grows the trees of all sets together, so every set's payload
    is the one a separate fit gives, bit for bit.  The rounds step the
    scores, losses, gradients and hessians in arrays made once per fit.
    """
    s, n, d = X.shape
    rows_first = np.full((n + 1, s, d), np.nan)
    rows_first[:n] = np.swapaxes(X, 0, 1)
    order = np.argsort(rows_first[:n], axis=0, kind="stable")
    root = rows_first[order, np.arange(s)[:, None], np.arange(d)], order
    f0 = [math.log(pos / (1.0 - pos)) for pos in y.mean(axis=1).tolist()]
    score = np.repeat(np.array(f0)[:, None], n, axis=1)
    y = y.astype(float)
    gh = np.zeros((s, 2, n + 1))
    grad, hess = gh[:, 0, :n], gh[:, 1, :n]
    p, loss, term = np.empty((s, n)), np.empty((s, n)), np.empty((s, n))
    losses = np.empty((spec.rounds, s))
    rounds = []
    for r in range(spec.rounds):
        nm.sigmoid(score, out=p)
        # the mean over each set of max(score, 0) - score y + log1p(e^-|score|)
        np.subtract(np.maximum(score, 0.0, out=loss), np.multiply(score, y, out=term), out=loss)
        np.exp(np.negative(np.abs(score, out=term), out=term), out=term)
        loss += np.log1p(term, out=term)
        np.divide(np.add.reduce(loss, axis=1, out=losses[r]), n, out=losses[r])
        np.subtract(y, p, out=grad)
        np.multiply(p, np.subtract(1.0, p, out=hess), out=hess)
        levels, fitted = _grow_trees(rows_first, root, gh, spec.depth)
        rounds.append(levels)
        score += np.multiply(spec.shrinkage, fitted[:, :n], out=term)
    forests = _forests(rounds, s)
    losses = losses.T.tolist()
    return [{"f0": f0[k], "forest": forests[k], "shrinkage": spec.shrinkage,
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

    All sets start from the same seeded weights, and all their parameters
    live in one ``training.Arena``; each keeps its own class weights, and
    each matrix product is one gemm or gemv per stack entry.  Each step
    makes the products and adjoints of ``numerics.linear`` and
    ``linear_backward`` in arrays made once per fit, and writes the
    gradients straight into the arena's ``grads``.
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
    arena = tr.Arena(params)
    params, grads = arena.params, arena.grads
    config = tr.TrainConfig(lr0=0.1, momentum=0.9, lr_decay=0.01,
                            epochs=spec.epochs, weight_decay=1e-4, seed=spec.seed)
    sample_w = np.empty((s, n))
    for k in range(s):
        counts = np.array([(y[k] == 0).sum(), (y[k] == 1).sum()], dtype=float)
        sample_w[k] = tr.inverse_frequency(counts)[y[k]]
    y = y.astype(float)
    # per layer: its weights and bias as views of the arena, which each step
    # updates in place; its input, output and output adjoint
    keys = ("l1", "l2", "out")
    weights = [params[key + ".w"] for key in keys]
    transposed = [np.swapaxes(w, 1, 2) for w in weights]
    biases = [params[key + ".b"][:, None, :] for key in keys]
    inputs = [X] + [np.empty((s, n, h)) for h in spec.hidden]
    outputs = [np.empty((s, n, h)) for h in (*spec.hidden, 1)]
    adjoints = [np.empty_like(out) for out in outputs]
    z, gz = outputs[-1][..., 0], adjoints[-1][..., 0]
    p = np.empty((s, n))
    for epoch in range(config.epochs):
        for layer in range(3):
            out = outputs[layer]
            np.add(np.matmul(inputs[layer], transposed[layer], out=out), biases[layer], out=out)
            if layer < 2:
                np.maximum(out, 0.0, out=inputs[layer + 1])
        nm.sigmoid(z, out=p)
        # gz = sample_w * (p - y) / n
        np.multiply(sample_w, np.subtract(p, y, out=gz), out=gz)
        gz /= n
        for layer in (2, 1, 0):
            g = adjoints[layer]
            np.matmul(np.swapaxes(g, 1, 2), inputs[layer], out=grads[keys[layer] + ".w"])
            np.add.reduce(g, axis=1, out=grads[keys[layer] + ".b"])
            if layer:
                below = adjoints[layer - 1]
                np.matmul(g, weights[layer], out=below)
                nm.relu_backward(below, outputs[layer - 1], out=below)
        tr.sgd_step(arena, grads, epoch, config)
    return [{"params": {key: v[k].copy() for key, v in params.items()}} for k in range(s)]


def _mlp_decision(payload, X):
    params = payload["params"]
    a1 = nm.relu(nm.linear(X, params["l1.w"], params["l1.b"]))
    a2 = nm.relu(nm.linear(a1, params["l2.w"], params["l2.b"]))
    return nm.linear(a2, params["out.w"], params["out.b"])[:, 0]


# --- public contract ---------------------------------------------------------

def fit(spec: ClassifierSpec, X, y) -> FittedModel | list[FittedModel]:
    """Standardize, then train the classifier named by the spec.

    X (n, d) with labels y (n,) gives one model.  A stack X (s, n, d) with
    labels y (s, n) gives a list of s models, each equal to a separate fit
    of its set; a single fit is the stack of one.  logistic, lasso, gbt and
    mlp2 train the whole stack in one loop, lda, qda and svm_rbf train its
    sets in turn.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    single = X.ndim != 3
    if single:
        X, y = _check_training_set(X, y)
        X, y = X[None], y[None]
    elif y.shape != X.shape[:2]:
        raise ValueError(f"feature stack {X.shape} and labels {y.shape} do not align")
    else:
        for X_set, y_set in zip(X, y):
            _check_training_set(X_set, y_set)
        y = y.astype(int)
    if not len(X):
        return []
    stats, Xs = standardize_fit(X)
    if spec.kind == "mlp2":
        payloads = _fit_mlp(Xs, y, spec)
    elif spec.kind == "gbt":
        payloads = _fit_gbt(Xs, y, spec)
    elif spec.kind in ("logistic", "lasso"):
        payloads = _fit_logistic(Xs, y, spec, lasso=spec.kind == "lasso")
    elif spec.kind == "lda":
        payloads = [_fit_lda(X_set, y_set) for X_set, y_set in zip(Xs, y)]
    elif spec.kind == "qda":
        payloads = [_fit_qda(X_set, y_set) for X_set, y_set in zip(Xs, y)]
    else:
        payloads = [_fit_svm(X_set, y_set, spec) for X_set, y_set in zip(Xs, y)]
    models = [FittedModel(kind=spec.kind, stats=Standardizer(stats.mean[k], stats.std[k]),
                          payload=payload) for k, payload in enumerate(payloads)]
    return models[0] if single else models


def decision_values(model: FittedModel, X) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != model.n_features:
        raise ValueError(f"expected {model.n_features} features, got {X.shape[1]}")
    nm.require_finite(X, "feature matrix")
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
        # f0, then each tree's shrunk leaf values added in tree order: one
        # accumulate makes the adds of a loop over the trees, in its order.
        leaves = _forest_predict(payload["forest"], Xs)
        steps = np.empty((len(leaves) + 1, Xs.shape[0]))
        steps[0] = payload["f0"]
        np.multiply(payload["shrinkage"], leaves, out=steps[1:])
        return np.add.accumulate(steps, axis=0, out=steps)[-1]
    return _mlp_decision(payload, Xs)


def predict_proba(model: FittedModel, x):
    """Probability of the positive label; scalar in, scalar out."""
    single = np.asarray(x).ndim == 1
    p = nm.sigmoid(decision_values(model, x))
    return float(p[0]) if single else p


def decide(p):
    """Positive iff p strictly exceeds 0.5."""
    p = np.asarray(p, dtype=float)
    if not np.all((p >= 0) & (p <= 1)):
        raise ValueError("probabilities must lie in [0, 1]")
    out = p > 0.5
    return bool(out) if out.ndim == 0 else out
