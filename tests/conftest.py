import math

import numpy as np
import pytest
from hypothesis import strategies as st

from affectpipe import classifiers as cl
from affectpipe import dataio as dio
from affectpipe import graph as gr
from affectpipe import numerics as nm
from affectpipe import training as tr


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def loop_conv2d(x, spec, weights, bias=None):
    """Nested-loop convolution reference, independent of the vectorized path."""
    n, cin, h, w = x.shape
    k, s, p, d, g = spec.kernel, spec.stride, spec.padding, spec.dilation, spec.groups
    oh = (h + 2 * p - d * (k - 1) - 1) // s + 1
    ow = (w + 2 * p - d * (k - 1) - 1) // s + 1
    cin_g = cin // g
    cout_g = spec.out_channels // g
    out = np.zeros((n, spec.out_channels, oh, ow))
    for b in range(n):
        for o in range(spec.out_channels):
            grp = o // cout_g
            for i in range(oh):
                for j in range(ow):
                    acc = 0.0
                    for c in range(cin_g):
                        for ki in range(k):
                            for kj in range(k):
                                ii = i * s + ki * d - p
                                jj = j * s + kj * d - p
                                if 0 <= ii < h and 0 <= jj < w:
                                    acc += weights[o, c, ki, kj] * x[b, grp * cin_g + c, ii, jj]
                    out[b, o, i, j] = acc + (bias[o] if bias is not None else 0.0)
    return out


def loop_conv2d_backward(grad_out, x, spec, weights):
    """Adjoints (grad_x, grad_weights, grad_bias) of ``loop_conv2d`` by the
    same nested loops: each output's adjoint is scattered onto the input
    and weight entries that made it."""
    n, cin, h, w = x.shape
    k, s, p, d, g = spec.kernel, spec.stride, spec.padding, spec.dilation, spec.groups
    _, _, oh, ow = grad_out.shape
    cin_g = cin // g
    cout_g = spec.out_channels // g
    gx = np.zeros(x.shape)
    gw = np.zeros(weights.shape)
    gb = np.zeros(spec.out_channels)
    for b in range(n):
        for o in range(spec.out_channels):
            grp = o // cout_g
            for i in range(oh):
                for j in range(ow):
                    up = grad_out[b, o, i, j]
                    gb[o] += up
                    for c in range(cin_g):
                        for ki in range(k):
                            for kj in range(k):
                                ii = i * s + ki * d - p
                                jj = j * s + kj * d - p
                                if 0 <= ii < h and 0 <= jj < w:
                                    gw[o, c, ki, kj] += up * x[b, grp * cin_g + c, ii, jj]
                                    gx[b, grp * cin_g + c, ii, jj] += up * weights[o, c, ki, kj]
    return gx, gw, gb


def offset_conv2d(x, spec, weights, bias=None, *, padded=None, return_columns=False):
    """Direct-summation convolution, one grouped einsum per kernel offset.

    A shared padded copy is ignored: the oracle pads ``x`` itself, and it
    builds no column tensor, so with ``return_columns`` it returns None for
    one.
    """
    n = x.shape[0]
    g = spec.groups
    s, d, p, k = spec.stride, spec.dilation, spec.padding, spec.kernel
    oh, ow = spec.out_hw(x.shape[2:])
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    xg = xp.reshape(n, g, spec.in_channels // g, *xp.shape[2:])
    wg = weights.reshape(g, spec.out_channels // g, spec.in_channels // g, k, k)
    out = np.zeros((n, g, spec.out_channels // g, oh, ow))
    for ki in range(k):
        for kj in range(k):
            patch = xg[:, :, :, ki * d : ki * d + s * (oh - 1) + 1 : s, kj * d : kj * d + s * (ow - 1) + 1 : s]
            out += np.einsum("ngchw,goc->ngohw", patch, wg[:, :, :, ki, kj], optimize=True)
    y = out.reshape(n, spec.out_channels, oh, ow)
    if bias is not None:
        y += bias[None, :, None, None]
    return (y, None) if return_columns else y


def row_run_matmul(wg, columns, rows):
    """``wg @ columns`` over (g, m, K) weights and (g, K, N) columns as one
    ``@`` per run of ``rows`` weight rows, stacked: the oracle of a GEMM
    walked in row runs."""
    return np.stack([np.concatenate([wg[gi, start:start + rows] @ columns[gi]
                                     for start in range(0, wg.shape[1], rows)])
                     for gi in range(wg.shape[0])])


def channel_taps(xp, margin, spec, weights, oh, ow):
    """``numerics._depthwise_taps`` as one einsum against the (k, k, c) taps,
    which sums each tap over c channels at a time: the bit-for-bit reference
    for the taps tiled across the output width."""
    c = xp.shape[3]
    k, s, d = spec.kernel, spec.stride, spec.dilation
    start = margin - spec.padding
    sn, sh, sw, sc = xp.strides
    windows = np.lib.stride_tricks.as_strided(
        xp[:, start:, start:],
        shape=(xp.shape[0], oh, ow, k, k, c),
        strides=(sn, sh * s, sw * s, sh * d, sw * d, sc),
        writeable=False,
    )
    taps = np.ascontiguousarray(weights.reshape(c, k, k).transpose(1, 2, 0))
    return np.einsum("nhwijc,ijc->nhwc", windows, taps).transpose(0, 3, 1, 2)


def where_relu_backward(grad_out, x):
    """The ReLU adjoint by np.where, the reference for ``nm.relu_backward``."""
    return np.where(np.asarray(x) > 0, grad_out, 0.0)


def window_im2col(x, spec, oh, ow):
    """Column tensor (groups, cin/g*k*k, n*oh*ow) of an unpadded input as a
    reshaped window view of its channel-major view, at every kernel size:
    the reference for ``numerics._im2col``."""
    xc = x.transpose(1, 0, 2, 3)
    n = xc.shape[1]
    g, k, s, d = spec.groups, spec.kernel, spec.stride, spec.dilation
    cin_g = spec.in_channels // g
    sc, sn, sh, sw = xc.strides
    windows = np.lib.stride_tricks.as_strided(
        xc,
        shape=(g, cin_g, k, k, n, oh, ow),
        strides=(sc * cin_g, sc, sh * d, sw * d, sn, sh * s, sw * s),
        writeable=False,
    )
    return windows.reshape(g, cin_g * k * k, n * oh * ow)


def pad_im2col(x, spec, oh, ow):
    """``window_im2col`` of a copy of x padded by ``np.pad``: the reference
    for the column tensor (groups, cin/g*k*k, n*oh*ow) built on the
    border-zeroed channel-major buffer."""
    p = spec.padding
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    return window_im2col(xp, spec, oh, ow)


def scalar_repr_frames(F):
    """FrameCsv text of ``F`` with each cell formatted as ``repr(float(v))``
    of its numpy scalar: the byte reference for ``dataio.write_frames``."""
    lines = [dio.FRAME_HEADER] + [",".join([str(i)] + [repr(float(v)) for v in row])
                                  for i, row in enumerate(F)]
    return "\n".join(lines) + "\n"


def recompute_block_backward(block, params, x, y, grad_y, input_grad=True):
    """``ConvBlock.backward`` from the block's input x and output y alone,
    under the same rule for where the affine goes: the weights are folded
    again, or the convolution's output u is computed again, and every
    column tensor is rebuilt from x.  An ``x`` that is a tuple of one input
    per group gives a tuple grad_x."""
    if block.relu:
        grad_y = nm.relu_backward(grad_y, y)
    xs = x if isinstance(x, tuple) else (x,)
    n = block.name
    scale = params[f"{n}.scale"]
    fold = block.folds(xs[0].shape)
    if fold:
        w = block._folded(params)[0]
    else:
        w = params[f"{n}.w"]
        u = nm.conv2d(np.concatenate(xs, axis=1), block.spec, w, params[f"{n}.b"])
        gscale, gshift = (grad_y * u).sum(axis=(0, 2, 3)), grad_y.sum(axis=(0, 2, 3))
        grad_y = grad_y * scale[:, None, None]
    if isinstance(x, tuple):
        groups = zip(np.split(grad_y, len(x), axis=1), x, w.reshape(len(x), -1, *w.shape[1:]))
        gxs, gws, gbs = zip(*(nm.conv2d_backward(gy, xg, block.group_spec, wg, input_grad=input_grad)
                              for gy, xg, wg in groups))
        gx = gxs if input_grad else None
        gw, gb = np.concatenate(gws), np.concatenate(gbs)
    else:
        gx, gw, gb = nm.conv2d_backward(grad_y, x, block.spec, w, input_grad=input_grad)
    if not fold:
        return gx, {f"{n}.w": gw, f"{n}.b": gb, f"{n}.scale": gscale, f"{n}.shift": gshift}
    return gx, {
        f"{n}.w": scale[:, None, None, None] * gw,
        f"{n}.b": scale * gb,
        f"{n}.scale": (gw * params[f"{n}.w"]).sum(axis=(1, 2, 3)) + gb * params[f"{n}.b"],
        f"{n}.shift": gb,
    }


def prove_then_convolve(block, params, *xs, padded=None):
    """``ConvBlock.forward`` with every check of the fold before any
    convolution: the fold is made and checked, or, for a block that does
    not fold, proven finite by a bound from one dot over W, and only then
    does a convolution run.  The reference for the block's errors, whose
    forward checks its output and checks the fold only where that output
    is not finite; the two differ only where finite parameters have a fold
    that overflows and an output that does not."""
    n = block.name
    scale = params[f"{n}.scale"]
    fold = block.folds(nm._as_tensor4(xs[0]).shape)
    if fold:
        w, b = block._folded(params)
    else:
        w, b = params[f"{n}.w"], params[f"{n}.b"]
        flat = w.reshape(-1)
        with np.errstate(over="ignore", invalid="ignore"):
            bound = float(2.0 * np.abs(scale).max() * np.sqrt(np.dot(flat, flat)))
            bias = scale * b + params[f"{n}.shift"]
        if not math.isfinite(bound):
            block._folded(params)
        nm.require_finite(bias, "folded bias")
    if len(xs) == 1:
        ys = [nm.conv2d(xs[0], block.spec, w, b, padded=padded)]
    else:
        ys = [nm.conv2d(x, block.group_spec, wg, bg)
              for x, wg, bg in zip(xs, w.reshape(len(xs), -1, *w.shape[1:]), b.reshape(len(xs), -1))]
    y = ys[0] if len(ys) == 1 else np.concatenate([y.transpose(1, 0, 2, 3) for y in ys]).transpose(1, 0, 2, 3)
    if not fold:
        with np.errstate(over="ignore", invalid="ignore"):
            y = y * scale[:, None, None] + params[f"{n}.shift"][:, None, None]
    return np.maximum(y, 0.0) if block.relu else y


def recompute_unit_backward(unit, params, x, grad_y):
    """``Unit.backward`` that runs the unit's forward walk again from its
    input x for its inner activations."""
    slots = unit._values(params, x)
    grads, param_grads = {unit.steps[-1][1]: grad_y}, {}
    for op, out, ins in reversed(unit.steps):
        g = grads.pop(out)
        if isinstance(op, gr.ConvBlock):
            xs = tuple(slots[s] for s in ins)
            g, block_grads = recompute_block_backward(op, params, xs if len(xs) > 1 else xs[0], slots[out], g)
            param_grads.update(block_grads)
        elif op == "relu":
            g = nm.relu_backward(g, slots[out])
        for slot, g_in in zip(ins, g if isinstance(g, tuple) else [g] * len(ins)):
            grads[slot] = grads[slot] + g_in if slot in grads else g_in
    return grads["x"], param_grads


def recompute_backward(graph, params, batch, head_grads):
    """``graph.backward`` without a tape: the forward keeps only each layer's
    input, and the backward runs every unit's forward again, folds every
    block again and rebuilds every column tensor.  Every layer computes its
    input adjoint, the stem's included: the reference for the tape and for
    the stem that skips its input adjoint."""
    xs = [np.asarray(batch, dtype=float)]
    for layer in graph.layers:
        xs.append(layer.forward(params, xs[-1]))
    pooled = xs[-1]
    grads = {}
    g = np.zeros_like(pooled)
    for head in graph.heads:
        grad_y = np.asarray(head_grads[head.task], dtype=float).reshape(len(pooled), head.width)
        gx, head_param_grads = head.backward(params, pooled, grad_y)
        grads.update(head_param_grads)
        g += gx
    for i in reversed(range(len(graph.layers))):
        layer, x, y = graph.layers[i], xs[i], xs[i + 1]
        if isinstance(layer, gr.ConvBlock):
            g, layer_grads = recompute_block_backward(layer, params, x, y, g)
        elif isinstance(layer, gr.Unit):
            g, layer_grads = recompute_unit_backward(layer, params, x, g)
        else:
            g, layer_grads = nm.global_avg_pool_backward(g, x.shape), {}
        grads.update(layer_grads)
    return grads


def channel_affine(x, scale, shift):
    """Per-channel y = scale[c] * x + shift[c], the oracle for a folded affine."""
    return x * scale[None, :, None, None] + shift[None, :, None, None]


def channel_affine_backward(grad_out, x, scale):
    """Adjoints of ``channel_affine`` in x, scale and shift."""
    gx = grad_out * scale[None, :, None, None]
    gscale = (grad_out * x).sum(axis=(0, 2, 3))
    gshift = grad_out.sum(axis=(0, 2, 3))
    return gx, gscale, gshift


def loop_best_split(X, grad, rows):
    """Per-feature GBT split search, the reference for the vectorized path.

    Scans one feature at a time and keeps a feature's best split only when
    its gain strictly beats every earlier feature's and 1e-12.
    """
    base = grad[rows]
    count = rows.size
    total = float(base.sum())
    sq_total = float(base @ base)
    sse_parent = sq_total - total * total / count
    best = None
    best_gain = 1e-12
    for j in range(X.shape[1]):
        order = np.argsort(X[rows, j], kind="stable")
        vals = X[rows[order], j]
        g = base[order]
        left_n = np.arange(1, count)
        left_sum = np.cumsum(g)[:-1]
        left_sq = np.cumsum(g * g)[:-1]
        splittable = vals[1:] != vals[:-1]
        if not splittable.any():
            continue
        left_sse = left_sq - left_sum**2 / left_n
        right_sum = total - left_sum
        right_sse = (sq_total - left_sq) - right_sum**2 / (count - left_n)
        gains = np.where(splittable, sse_parent - (left_sse + right_sse), -np.inf)
        k = int(np.argmax(gains))
        if gains[k] > best_gain:
            best_gain = float(gains[k])
            best = (j, (vals[k] + vals[k + 1]) / 2.0)
    return best


def node_best_split(X, grad, rows):
    """Split search of one node over all its features at once, the per-node
    reference for the level-wise search.

    gains[k, j] is the gain of splitting feature j between its k-th and
    (k+1)-th smallest node value.  Ties go to the lowest feature, then to
    the lowest position.
    """
    base = grad[rows]
    count = rows.size
    total = float(base.sum())
    sq_total = float(base @ base)
    sse_parent = sq_total - total * total / count
    node_X = X[rows]
    order = np.argsort(node_X, axis=0, kind="stable")
    vals = np.take_along_axis(node_X, order, axis=0)
    g = base[order]
    left_n = np.arange(1, count)[:, None]
    left_sum = np.cumsum(g, axis=0)[:-1]
    left_sq = np.cumsum(g * g, axis=0)[:-1]
    left_sse = left_sq - left_sum**2 / left_n
    right_sum = total - left_sum
    right_sse = (sq_total - left_sq) - right_sum**2 / (count - left_n)
    splittable = vals[1:] != vals[:-1]
    gains = np.where(splittable, sse_parent - (left_sse + right_sse), -np.inf)
    j, k = divmod(int(np.argmax(gains.T)), count - 1)
    if not gains[k, j] > 1e-12:
        return None
    return j, (vals[k, j] + vals[k + 1, j]) / 2.0


def loop_build_tree(X, grad, hess, depth, best_split=node_best_split, first=0):
    """Grow one tree level by level, node by node; a level holds the left
    children of the level above, then the right ones, each in parent order.

    Returns its nodes as [feature, threshold, left, right, value] lists
    numbered from ``first``, and each row's leaf value.
    """
    nodes = []
    fitted = np.empty(X.shape[0])
    level = [np.arange(X.shape[0])]
    while level:
        parents, lefts, rights = [], [], []
        for rows in level:
            node = [-1, 0.0, -1, -1, 0.0]
            nodes.append(node)
            split = best_split(X, grad, rows) if depth > 0 and rows.size >= 2 else None
            if split is not None:
                j, thr = split
                go_left = X[rows, j] <= thr
                if go_left.any() and not go_left.all():
                    node[:2] = j, thr
                    parents.append(node)
                    lefts.append(rows[go_left])
                    rights.append(rows[~go_left])
                    continue
            value = grad[rows].sum() / (hess[rows].sum() + 1e-12)
            node[4] = float(np.clip(value, -cl.MAX_LEAF_VALUE, cl.MAX_LEAF_VALUE))
            fitted[rows] = node[4]
        for i, node in enumerate(parents):
            node[2] = first + len(nodes) + i
            node[3] = first + len(nodes) + len(parents) + i
        level = lefts + rights
        depth -= 1
    return nodes, fitted


def loop_fit_gbt(X, y, spec, best_split=node_best_split):
    """Gradient boosting on one training set, one tree at a time, the
    reference for the stacked fit."""
    n = X.shape[0]
    pos = float(y.mean())
    f0 = math.log(pos / (1.0 - pos))
    score = np.full(n, f0)
    nodes = []
    roots = []
    losses = []
    for _ in range(spec.rounds):
        p = nm.sigmoid(score)
        losses.append(float(np.mean(
            np.maximum(score, 0.0) - score * y + np.log1p(np.exp(-np.abs(score)))
        )))
        grad = y - p
        hess = p * (1.0 - p)
        roots.append(len(nodes))
        tree, fitted = loop_build_tree(X, grad, hess, spec.depth, best_split, first=len(nodes))
        nodes += tree
        score = score + spec.shrinkage * fitted
    feature, threshold, left, right, value = zip(*nodes)
    forest = cl.Forest(
        feature=np.array(feature, dtype=np.intp), threshold=np.array(threshold),
        left=np.array(left, dtype=np.intp), right=np.array(right, dtype=np.intp),
        value=np.array(value), roots=np.array(roots, dtype=np.intp),
    )
    return {"f0": f0, "forest": forest, "shrinkage": spec.shrinkage, "train_losses": losses}


def walk_leaf_values(forest, X):
    """Leaf value of each tree for each row, one root-to-leaf walk at a time."""
    out = np.empty((forest.roots.size, X.shape[0]))
    for t, root in enumerate(forest.roots):
        for i, x in enumerate(X):
            node = root
            while forest.feature[node] >= 0:
                go_left = x[forest.feature[node]] <= forest.threshold[node]
                node = forest.left[node] if go_left else forest.right[node]
            out[t, i] = forest.value[node]
    return out


def two_branch_sigmoid(x):
    """Sigmoid by sign of x with boolean indexing, the reference for nm.sigmoid."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def loop_standardize(X):
    """Column z-scores of one training matrix, the reference for a stacked fit."""
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std = np.where(std > 0.0, std, 1.0)
    return mean, std, (X - mean) / std


def loop_fit_logistic(X, y, spec, lasso: bool):
    """Gradient descent on one training set, the reference for the stacked fit."""
    n, d = X.shape
    w = np.zeros(d)
    b = 0.0
    for _ in range(spec.iterations):
        p = nm.sigmoid(X @ w + b)
        err = p - y
        gw = X.T @ err / n
        gb = float(err.mean())
        if lasso:
            w = w - spec.step * gw
            b -= spec.step * gb
            cut = spec.step * spec.l1
            w = np.sign(w) * np.maximum(np.abs(w) - cut, 0.0)
        else:
            w = w - spec.step * (gw + spec.l2 * w)
            b -= spec.step * gb
    return {"w": w, "b": b}


def loop_fit_mlp(X, y, spec):
    """Momentum SGD on one training set, the reference for the stacked fit."""
    rng = np.random.default_rng(spec.seed)
    params = {}
    for key, shape in sorted(cl._mlp_shapes(X.shape[1], spec.hidden).items()):
        if key.endswith(".w"):
            params[key] = rng.normal(0.0, np.sqrt(2.0 / shape[1]), size=shape)
        else:
            params[key] = np.zeros(shape)
    velocity = {k: np.zeros_like(v) for k, v in params.items()}
    config = tr.TrainConfig(lr0=0.1, momentum=0.9, lr_decay=0.01,
                            epochs=spec.epochs, weight_decay=1e-4, seed=spec.seed)
    n = X.shape[0]
    counts = np.array([(y == 0).sum(), (y == 1).sum()], dtype=float)
    cls_w = tr.inverse_frequency(counts)
    sample_w = cls_w[y]
    for epoch in range(config.epochs):
        z1 = nm.linear(X, params["l1.w"], params["l1.b"])
        a1 = nm.relu(z1)
        z2 = nm.linear(a1, params["l2.w"], params["l2.b"])
        a2 = nm.relu(z2)
        z = nm.linear(a2, params["out.w"], params["out.b"])[:, 0]
        p = nm.sigmoid(z)
        gz = (sample_w * (p - y) / n)[:, None]
        ga2, gw_out, gb_out = nm.linear_backward(gz, a2, params["out.w"])
        gz2 = nm.relu_backward(ga2, z2)
        ga1, gw2, gb2 = nm.linear_backward(gz2, a1, params["l2.w"])
        gz1 = nm.relu_backward(ga1, z1)
        _, gw1, gb1 = nm.linear_backward(gz1, X, params["l1.w"])
        grads = {
            "l1.w": gw1, "l1.b": gb1, "l2.w": gw2, "l2.b": gb2,
            "out.w": gw_out, "out.b": gb_out,
        }
        params, velocity = dict_sgd_step(params, velocity, grads, epoch, config)
    return {"params": params}


def loop_fit(spec, X, y, best_split=node_best_split):
    """One model fitted alone on its own standardized matrix: the reference
    loops of the kinds that train a stack in one loop, and the single-set
    fits of lda, qda and svm_rbf."""
    X, y = cl._check_training_set(X, y)
    mean, std, Xs = loop_standardize(X)
    if spec.kind == "mlp2":
        payload = loop_fit_mlp(Xs, y, spec)
    elif spec.kind == "gbt":
        payload = loop_fit_gbt(Xs, y, spec, best_split)
    elif spec.kind == "lda":
        payload = cl._fit_lda(Xs, y)
    elif spec.kind == "qda":
        payload = cl._fit_qda(Xs, y)
    elif spec.kind == "svm_rbf":
        payload = cl._fit_svm(Xs, y, spec)
    else:
        payload = loop_fit_logistic(Xs, y, spec, lasso=spec.kind == "lasso")
    return cl.FittedModel(kind=spec.kind, stats=cl.Standardizer(mean, std), payload=payload)


def exact(value):
    """A payload value as nested tuples, each array and scalar by its type,
    dtype, shape and bytes, for exact comparison."""
    if isinstance(value, dict):
        return tuple((key, exact(inner)) for key, inner in sorted(value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(exact(inner) for inner in value)
    if isinstance(value, cl.Forest):
        return exact(vars(value))
    array = np.asarray(value)
    return type(value).__name__, array.dtype.str, array.shape, array.tobytes()


def model_bytes(model):
    """A fitted model as bytes, for exact comparison."""
    if model is None:
        return None
    return model.kind, exact(model.stats.mean), exact(model.stats.std), exact(model.payload)


def unit_weights():
    """Class weights of one for every expression class and AU label."""
    return tr.ClassWeights(expr=np.ones(tr.N_EXPR), au=np.ones((tr.N_AU, 2)))


def sample_class_weights(labels):
    """``training.class_weights`` counted one sample and one label at a time."""
    expr_counts = np.zeros(tr.N_EXPR)
    au_counts = np.zeros((tr.N_AU, 2))
    for i in range(len(labels)):
        if labels.expr[i] >= 0:
            expr_counts[labels.expr[i]] += 1
        for unit, v in enumerate(labels.au[i]):
            if v >= 0:
                au_counts[unit, v] += 1
    expr_w = tr.inverse_frequency(expr_counts) if expr_counts.sum() else np.ones(tr.N_EXPR)
    au_w = np.vstack([
        tr.inverse_frequency(au_counts[unit]) if au_counts[unit].sum() else np.ones(2)
        for unit in range(tr.N_AU)
    ])
    return tr.ClassWeights(expr=expr_w, au=au_w)


def sample_task_loss(task, raw, labels, i, weights):
    """One task's loss and adjoint for sample ``i`` of a ``LabelBatch`` (-1 or
    NaN marks UNK), the reference for the batched ``training.task_loss``."""
    if task == "expr":
        x = np.asarray(raw, dtype=float)
        y = int(labels.expr[i])
        if y < 0:
            return 0.0, np.zeros_like(x)
        wy = float(weights.expr[y])
        m = x.max()
        logsum = m + math.log(np.exp(x - m).sum())
        grad = wy * nm.softmax(x)
        grad[y] -= wy
        return wy * (logsum - float(x[y])), grad
    if task == "au":
        x = np.asarray(raw, dtype=float)
        grad = np.zeros_like(x)
        observed = [(unit, int(v)) for unit, v in enumerate(labels.au[i]) if v >= 0]
        if not observed:
            return 0.0, grad
        total = 0.0
        for unit, y in observed:
            w = float(weights.au[unit, y])
            xu = float(x[unit])
            total += w * (max(xu, 0.0) - xu * y + math.log1p(math.exp(-abs(xu))))
        rows, ys = (np.array(column) for column in zip(*observed))
        grad[rows] = weights.au[rows, ys] * (nm.sigmoid(x[rows]) - ys)
        return total / len(observed), grad / len(observed)
    target = float(getattr(labels, task)[i])
    if math.isnan(target):
        return 0.0, 0.0
    pred = math.tanh(float(raw))
    diff = pred - target
    if task == "arousal":
        return abs(diff), float(np.sign(diff)) * (1.0 - pred * pred)
    return diff * diff, 2.0 * diff * (1.0 - pred * pred)


def dict_l2_penalty(params):
    """||p||^2 as one np.sum per tensor, the reference for ``training.l2_penalty``."""
    return float(sum(np.sum(np.square(v)) for v in params.values()))


def dict_sgd_step(params, velocity, grads, epoch, config):
    """``training.sgd_step`` one tensor at a time on dicts, returning new
    dicts: the reference for the arena step.  Adds the L2 adjoint to each
    gradient, then v' = mu v - lr g and p' = p + v'."""
    lr = tr.learning_rate(epoch, config)
    new_params, new_velocity = {}, {}
    for key, p in params.items():
        g = np.asarray(grads[key], dtype=float) + 2.0 * config.weight_decay * np.asarray(p)
        if not np.all(np.isfinite(g)):
            raise nm.NumericError(f"non-finite gradient for {key}")
        v = config.momentum * np.asarray(velocity[key], dtype=float) - lr * g
        new_velocity[key] = v
        new_params[key] = np.asarray(p, dtype=float) + v
    return new_params, new_velocity


def loop_toy_dataset(n=200, size=16, seed=0):
    """``training.toy_dataset`` computing each sample's labels as it draws
    the sample, the reference for the whole-array labels."""
    rng = np.random.default_rng(seed)
    protos = rng.normal(size=(tr.N_EXPR, 3, size, size))
    images = np.empty((n, 3, size, size))
    expr, au = np.empty(n, dtype=int), np.empty((n, tr.N_AU), dtype=int)
    arousal, valence = np.empty(n), np.empty(n)
    for i in range(n):
        expr[i] = int(rng.integers(tr.N_EXPR))
        images[i] = protos[expr[i]] + 0.3 * rng.normal(size=(3, size, size))
        means = images[i].mean(axis=(1, 2))
        left = [int(images[i, c, :, : size // 2].mean() > 0) for c in range(3)]
        au[i] = [left[j % 3] for j in range(tr.N_AU)]
        arousal[i] = math.tanh(2.0 * means[0])
        valence[i] = math.tanh(2.0 * means[1])
    return images, tr.LabelBatch(expr, au, arousal, valence)


def sample_batch_loss_and_grads(params, images, labels, weights, lam):
    """``training.batch_loss_and_grads`` on a parameter dict with one
    ``sample_task_loss`` call per sample and task."""
    outputs, cache = tr.toy_forward(params, images)
    n = images.shape[0]
    head_grads = {t: np.zeros((n, gr.HEAD_WIDTHS[t])) for t in gr.TASKS}
    total = 0.0
    for i in range(len(labels)):
        for task in gr.TASKS:
            value, adj = sample_task_loss(task, outputs[task][i], labels, i, weights)
            total += value
            head_grads[task][i] = np.asarray(adj) / n
    loss = total / n + lam * dict_l2_penalty(params)
    return loss, tr.toy_backward(params, cache, head_grads)


def sample_train_toy(config, n=200, size=16):
    """``training.train_toy`` over ``loop_toy_dataset``,
    ``sample_batch_loss_and_grads``, ``sample_class_weights`` and
    ``dict_sgd_step``."""
    images, labels = loop_toy_dataset(n=n, size=size, seed=config.seed)
    weights = sample_class_weights(labels)
    params = gr.init_params(tr.toy_graph(size), config.seed)
    velocity = {k: np.zeros_like(v) for k, v in params.items()}
    batch = min(config.batch_size, n)
    losses = []
    for epoch in range(config.epochs):
        seen, accum = 0, 0.0
        for start in range(0, n, batch):
            chunk = slice(start, min(start + batch, n))
            loss, grads = sample_batch_loss_and_grads(
                params, images[chunk], labels[chunk], weights, config.weight_decay)
            params, velocity = dict_sgd_step(params, velocity, grads, epoch, config)
            accum += loss * (chunk.stop - chunk.start)
            seen += chunk.stop - chunk.start
        losses.append(accum / seen)
    return {"losses": losses, "params": params, "weights": weights}


def central_difference(f, x: np.ndarray, eps: float = 1e-4) -> np.ndarray:
    """Numerical gradient of scalar-valued ``f`` at ``x`` by central differences."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f(x)
        flat[i] = orig - eps
        lo = f(x)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * eps)
    return grad


def max_rel_error(analytic, numeric):
    analytic = np.asarray(analytic, dtype=float)
    numeric = np.asarray(numeric, dtype=float)
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / denom))


# Bytes inserted by the mutation test: separators, characters splitlines()
# treats as line breaks, characters float() or int() skip or accept
# (underscores, whitespace, Arabic-Indic digits), U+001F (whitespace to
# numpy's text reader, not to float()), and non-finite spellings.
INSERTS = [b",", b"\n", b"\r", b"\x0c", b"\x00", b"_", "\u0661".encode(), b"\x1f", b"nan",
           b"1e400", b" "]

MUTATION = st.tuples(
    st.sampled_from(["flip", "delete", "insert"]),
    st.floats(0.0, 1.0, exclude_max=True),
    st.integers(1, 255),
    st.sampled_from(INSERTS),
)


def mutate(data: bytes, start: int, mutations) -> bytes:
    """Apply byte flips, deletions and insertions at positions past ``start``."""
    buf = bytearray(data)
    for kind, where, mask, insert in mutations:
        at = start + int(where * (len(buf) - start))
        if kind == "flip":
            buf[at] ^= mask
        elif kind == "delete":
            del buf[at]
        else:
            buf[at:at] = insert
    return bytes(buf)
