import numpy as np
import pytest
from hypothesis import strategies as st


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


def offset_conv2d(x, spec, weights, bias=None):
    """Direct-summation convolution, one grouped einsum per kernel offset."""
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
    return y


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


def walk_leaf_values(trees, X):
    """Leaf value of each tree for each row, one root-to-leaf walk at a time."""
    out = np.empty((len(trees), X.shape[0]))
    for t, tree in enumerate(trees):
        for i, x in enumerate(X):
            node = 0
            while tree.feature[node] >= 0:
                go_left = x[tree.feature[node]] <= tree.threshold[node]
                node = tree.left[node] if go_left else tree.right[node]
            out[t, i] = tree.value[node]
    return out


def max_rel_error(analytic, numeric):
    analytic = np.asarray(analytic, dtype=float)
    numeric = np.asarray(numeric, dtype=float)
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / denom))


# Bytes inserted by the mutation test: separators, characters splitlines()
# treats as line breaks, characters float() or int() skip or accept
# (underscores, whitespace, Arabic-Indic digits), and non-finite spellings.
INSERTS = [b",", b"\n", b"\r", b"\x0c", b"\x00", b"_", "\u0661".encode(), b"nan",
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
