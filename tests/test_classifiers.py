"""Contract tests for the seven classifiers."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affectpipe import classifiers as cl
from affectpipe import numerics as nm
from conftest import (exact, loop_best_split, loop_fit, loop_gbt_decision, model_bytes, node_best_split,
                      walk_leaf_values)


def blobs(rng, n=40, d=6, gap=4.0, cov_scale=1.0):
    """Two Gaussian blobs separated along a random direction."""
    direction = rng.normal(size=d)
    direction /= np.linalg.norm(direction)
    X0 = rng.normal(size=(n, d)) * cov_scale - gap / 2 * direction
    X1 = rng.normal(size=(n, d)) * cov_scale + gap / 2 * direction
    X = np.vstack([X0, X1])
    y = np.concatenate([np.zeros(n, dtype=int), np.ones(n, dtype=int)])
    return X, y, direction


class TestStandardize:
    def test_constant_column_zeroed(self):
        X = np.column_stack([np.full(5, 7.0), np.arange(5.0)])
        _, Xs = cl.standardize_fit(X)
        np.testing.assert_array_equal(Xs[:, 0], np.zeros(5))

    def test_two_point_column(self):
        _, Xs = cl.standardize_fit(np.array([[1.0], [3.0]]))
        np.testing.assert_allclose(Xs[:, 0], [-1.0, 1.0])

    def test_round_trip_with_stored_stats(self):
        X = np.random.default_rng(0).normal(size=(10, 4)) * 3 + 1
        stats, Xs = cl.standardize_fit(X)
        np.testing.assert_allclose(stats.apply(X), Xs, atol=1e-15)

    def test_single_row_rejected(self):
        with pytest.raises(ValueError):
            cl.standardize_fit(np.ones((1, 3)))


class TestFitContract:
    def test_single_label_rejected(self):
        X = np.random.default_rng(1).normal(size=(6, 3))
        with pytest.raises(cl.DegenerateTrainingError):
            cl.fit(cl.ClassifierSpec("logistic"), X, np.zeros(6, dtype=int))

    def test_single_row_is_single_label(self):
        with pytest.raises(cl.DegenerateTrainingError):
            cl.fit(cl.ClassifierSpec("logistic"), np.ones((1, 3)), np.array([1]))

    @pytest.mark.parametrize("labels", [
        [0.7, 1.9, 0.2, 1.0], [0, 1, 2, 1], [0, 1, -1, 1], [0.0, 1.0, float("nan"), 1.0],
        ["0", "1", "0", "1"],
    ])
    def test_non_binary_labels_rejected(self, labels):
        """Checked before the cast to int, so 0.7 is not read as 0."""
        X = np.random.default_rng(6).normal(size=(4, 3))
        with pytest.raises(ValueError, match="labels must be binary 0/1"):
            cl.fit(cl.ClassifierSpec("lda"), X, labels)

    @pytest.mark.parametrize("kind", cl.KINDS)
    def test_non_binary_labels_rejected_in_a_stack(self, kind):
        X = np.random.default_rng(7).normal(size=(2, 4, 3))
        with pytest.raises(ValueError, match="labels must be binary 0/1"):
            cl.fit(cl.ClassifierSpec(kind), X, [[0, 1, 0, 1], [0.7, 1.9, 0.2, 1.0]])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("kind", cl.KINDS)
    def test_nonfinite_features_rejected(self, kind, value):
        X, y, _ = blobs(np.random.default_rng(9), n=4, d=3)
        X[5, 1] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for X_in, y_in in ((X, y), (np.stack([X[::-1], X]), np.stack([y[::-1], y]))):
                with pytest.raises(ValueError, match="^non-finite values in feature matrix$"):
                    cl.fit(cl.ClassifierSpec(kind), X_in, y_in)

    def test_float_and_bool_binary_labels_fit_as_ints(self):
        X, y, _ = blobs(np.random.default_rng(8), n=6, d=3)
        spec = cl.ClassifierSpec("lda")
        expect = model_bytes(cl.fit(spec, X, y))
        assert model_bytes(cl.fit(spec, X, y.astype(float))) == expect
        assert model_bytes(cl.fit(spec, X, y.astype(bool))) == expect

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            cl.ClassifierSpec("random_forest")

    @pytest.mark.parametrize("hidden", [
        (0, 16), (32,), (32, 16, 8), (2.5, 3), (-1, 4), (True, 4), (4, None), 32, "ab", (),
    ])
    def test_hidden_must_be_two_positive_ints(self, hidden):
        with pytest.raises(ValueError, match="hidden"):
            cl.ClassifierSpec("mlp2", hidden=hidden)

    @pytest.mark.parametrize("hidden", [(1, 1), (32, 16), (np.int64(3), 2), [4, 5]])
    def test_hidden_accepts_two_positive_ints(self, hidden):
        assert cl.ClassifierSpec("mlp2", hidden=hidden).hidden == hidden

    @pytest.mark.parametrize("field,value", [
        ("step", float("nan")), ("shrinkage", float("nan")), ("l1", float("inf")),
        ("l2", float("nan")), ("svm_c", float("nan")), ("svm_gamma", float("nan")),
        ("svm_gamma", float("inf")),
    ])
    def test_nonfinite_float_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
            cl.ClassifierSpec("logistic", **{field: value})

    # svm_gamma=None is its documented default, the 1/d rule.
    @pytest.mark.parametrize("field, value", [
        (field, value) for field in ("l2", "l1", "step", "svm_c", "svm_gamma", "shrinkage")
        for value in (None, "1", True, np.bool_(True), [0.1]) if (field, value) != ("svm_gamma", None)
    ])
    def test_float_must_be_a_real_number(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field} must be positive and finite, got "):
            cl.ClassifierSpec("logistic", **{field: value})

    @pytest.mark.parametrize("field", ["l2", "l1", "step", "svm_c", "svm_gamma", "shrinkage"])
    @pytest.mark.parametrize("value", [1, np.int64(2), np.float32(0.5), 0.25])
    def test_float_accepts_python_and_numpy_numbers(self, field, value):
        assert getattr(cl.ClassifierSpec("logistic", **{field: value}), field) == value

    @pytest.mark.parametrize("field", ["iterations", "rounds", "depth", "epochs"])
    @pytest.mark.parametrize("value", [2.5, 3.0, True, np.float64(4.0)])
    def test_count_must_be_int(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be a positive integer"):
            cl.ClassifierSpec("logistic", **{field: value})

    @pytest.mark.parametrize("value", [-1, 2.5, True, np.float64(0.0)])
    def test_seed_must_be_non_negative_int(self, value):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            cl.ClassifierSpec("logistic", seed=value)

    @pytest.mark.parametrize("field", ["iterations", "rounds", "depth", "epochs"])
    def test_count_accepts_numpy_int(self, field):
        assert getattr(cl.ClassifierSpec("logistic", **{field: np.int64(2)}), field) == 2

    def test_dim_mismatch_at_predict(self):
        X, y, _ = blobs(np.random.default_rng(2))
        model = cl.fit(cl.ClassifierSpec("lda"), X, y)
        with pytest.raises(ValueError):
            cl.predict_proba(model, np.zeros(X.shape[1] + 1))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("kind", cl.KINDS)
    def test_nonfinite_features_rejected_at_predict(self, kind, value):
        """As at fit: no NaN probability, no confident 0 or 1 from an inf, and
        no gbt score from a NaN sent down every right branch."""
        X, y, _ = blobs(np.random.default_rng(9), n=4, d=3)
        model = cl.fit(cl.ClassifierSpec(kind, epochs=30, rounds=10, iterations=100), X, y)
        row = X[0].copy()
        row[1] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x in (row, np.stack([X[1], row])):
                for predict in (cl.decision_values, cl.predict_proba):
                    with pytest.raises(nm.NumericError, match="^non-finite values in feature matrix$"):
                        predict(model, x)

    @pytest.mark.parametrize("kind", cl.KINDS)
    def test_deterministic_per_seed(self, kind):
        X, y, _ = blobs(np.random.default_rng(3), n=15, d=4)
        probe = np.random.default_rng(4).normal(size=(5, 4))
        spec = cl.ClassifierSpec(kind, epochs=30, rounds=10, iterations=100)
        a = cl.predict_proba(cl.fit(spec, X, y), probe)
        b = cl.predict_proba(cl.fit(spec, X, y), probe)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("kind", cl.KINDS)
    def test_separable_blobs_learned(self, kind):
        X, y, _ = blobs(np.random.default_rng(5), n=25, d=5)
        spec = cl.ClassifierSpec(kind)
        model = cl.fit(spec, X, y)
        acc = float(np.mean(cl.decide(cl.predict_proba(model, X)) == (y == 1)))
        assert acc >= 0.95, f"{kind} training accuracy {acc}"


class TestLogistic:
    def test_separable_1d_perfect(self):
        X = np.array([[-3.0], [-2.0], [-1.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 0, 1, 1, 1])
        model = cl.fit(cl.ClassifierSpec("logistic"), X, y)
        preds = cl.decide(cl.predict_proba(model, X))
        assert np.array_equal(preds, y == 1)

    def test_zero_weights_give_half(self):
        X, y, _ = blobs(np.random.default_rng(6), n=10, d=3)
        model = cl.fit(cl.ClassifierSpec("logistic"), X, y)
        zeroed = cl.FittedModel(
            kind="logistic", stats=model.stats,
            payload={"w": np.zeros(3), "b": 0.0},
        )
        assert cl.predict_proba(zeroed, np.ones(3)) == 0.5

    def test_label_flip_symmetry(self):
        X, y, _ = blobs(np.random.default_rng(7), n=20, d=4)
        probe = np.random.default_rng(8).normal(size=(7, 4))
        p = cl.predict_proba(cl.fit(cl.ClassifierSpec("logistic"), X, y), probe)
        q = cl.predict_proba(cl.fit(cl.ClassifierSpec("logistic"), X, 1 - y), probe)
        np.testing.assert_allclose(p + q, 1.0, atol=1e-12)

    def test_monotone_in_positive_direction(self):
        X, y, direction = blobs(np.random.default_rng(9), n=30, d=4)
        model = cl.fit(cl.ClassifierSpec("logistic"), X, y)
        steps = [cl.predict_proba(model, t * direction) for t in (-2.0, 0.0, 2.0, 4.0)]
        assert steps == sorted(steps)

    def test_feature_permutation_equivariance(self):
        X, y, _ = blobs(np.random.default_rng(10), n=20, d=5)
        probe = np.random.default_rng(11).normal(size=(6, 5))
        perm = [3, 0, 4, 1, 2]
        p = cl.predict_proba(cl.fit(cl.ClassifierSpec("logistic"), X, y), probe)
        q = cl.predict_proba(cl.fit(cl.ClassifierSpec("logistic"), X[:, perm], y), probe[:, perm])
        np.testing.assert_allclose(p, q, atol=1e-12)


class TestLasso:
    def test_strong_l1_zeroes_coefficients(self):
        X, y, _ = blobs(np.random.default_rng(12), n=25, d=8)
        spec = cl.ClassifierSpec("lasso", l1=50.0)
        model = cl.fit(spec, X, y)
        assert np.max(np.abs(model.payload["w"])) <= 1e-6
        # predictions collapse to the (standardized) base rate
        p = cl.predict_proba(model, np.random.default_rng(13).normal(size=(9, 8)))
        assert np.allclose(p, p[0])

    def test_moderate_l1_still_learns(self):
        X, y, _ = blobs(np.random.default_rng(14), n=25, d=5)
        model = cl.fit(cl.ClassifierSpec("lasso"), X, y)
        acc = float(np.mean(cl.decide(cl.predict_proba(model, X)) == (y == 1)))
        assert acc >= 0.95


class TestLdaQda:
    def test_lda_boundary_orthogonal_to_mean_gap(self):
        rng = np.random.default_rng(15)
        X, y, direction = blobs(rng, n=1500, d=4, gap=3.0)
        model = cl.fit(cl.ClassifierSpec("lda"), X, y)
        w = model.payload["w"] / model.stats.std
        cos = abs(w @ direction) / np.linalg.norm(w)
        angle = np.degrees(np.arccos(min(cos, 1.0)))
        assert angle <= 5.0

    def test_qda_equal_densities_give_half(self):
        rng = np.random.default_rng(16)
        X, y, direction = blobs(rng, n=300, d=4, gap=4.0)
        model = cl.fit(cl.ClassifierSpec("qda"), X, y)
        # the midpoint between the class means sits at equal density
        mid = (X[y == 0].mean(axis=0) + X[y == 1].mean(axis=0)) / 2
        assert cl.predict_proba(model, mid) == pytest.approx(0.5, abs=0.1)

    def test_lda_label_flip(self):
        X, y, _ = blobs(np.random.default_rng(17), n=30, d=4)
        probe = np.random.default_rng(18).normal(size=(5, 4))
        p = cl.predict_proba(cl.fit(cl.ClassifierSpec("lda"), X, y), probe)
        q = cl.predict_proba(cl.fit(cl.ClassifierSpec("lda"), X, 1 - y), probe)
        np.testing.assert_allclose(p + q, 1.0, atol=1e-9)


class TestSvm:
    def test_decision_uses_logistic_link(self):
        X, y, _ = blobs(np.random.default_rng(19), n=20, d=4)
        model = cl.fit(cl.ClassifierSpec("svm_rbf"), X, y)
        probe = np.random.default_rng(20).normal(size=(5, 4))
        d = cl.decision_values(model, probe)
        p = cl.predict_proba(model, probe)
        np.testing.assert_allclose(p, 1 / (1 + np.exp(-d)), atol=1e-12)

    def test_alphas_bounded_by_c(self):
        X, y, _ = blobs(np.random.default_rng(21), n=25, d=5, gap=1.0)
        model = cl.fit(cl.ClassifierSpec("svm_rbf", svm_c=1.0), X, y)
        assert np.all(np.abs(model.payload["coef"]) <= 1.0 + 1e-9)


class TestGbt:
    def test_training_loss_non_increasing(self):
        X, y, _ = blobs(np.random.default_rng(22), n=30, d=5, gap=2.0)
        model = cl.fit(cl.ClassifierSpec("gbt", rounds=60), X, y)
        losses = model.payload["train_losses"]
        assert len(losses) == 60
        diffs = np.diff(losses)
        assert np.all(diffs <= 1e-12), f"worst increase {diffs.max()}"

    def test_label_flip_symmetry(self):
        X, y, _ = blobs(np.random.default_rng(23), n=20, d=4)
        probe = np.random.default_rng(24).normal(size=(6, 4))
        p = cl.predict_proba(cl.fit(cl.ClassifierSpec("gbt", rounds=20), X, y), probe)
        q = cl.predict_proba(cl.fit(cl.ClassifierSpec("gbt", rounds=20), X, 1 - y), probe)
        np.testing.assert_allclose(p + q, 1.0, atol=1e-9)

    def test_depth_limits_tree_shape(self):
        X, y, _ = blobs(np.random.default_rng(25), n=30, d=4)
        model = cl.fit(cl.ClassifierSpec("gbt", rounds=5, depth=1), X, y)
        forest = model.payload["forest"]

        def depth(node):
            if forest.feature[node] < 0:
                return 0
            return 1 + max(depth(forest.left[node]), depth(forest.right[node]))

        assert all(depth(root) <= 1 for root in forest.roots)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 30), rows=st.integers(1, 12),
           rounds=st.integers(1, 40), depth=st.integers(1, 4), shrinkage=st.sampled_from([0.1, 0.37, 1.0]))
    def test_decision_values_equal_the_loop_over_trees(self, seed, n, rows, rounds, depth, shrinkage):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, 4))
        y = rng.integers(0, 2, size=n)
        y[:2] = [0, 1]
        model = cl.fit(cl.ClassifierSpec("gbt", rounds=rounds, depth=depth, shrinkage=shrinkage), X, y)
        assert model.payload["forest"].roots.size == rounds
        probe = np.vstack([X, 2.0 * rng.normal(size=(rows, 4))])
        assert exact(cl.decision_values(model, probe)) == exact(loop_gbt_decision(model, probe))


def tie_prone_matrix(rng, n, d, levels, n_constant):
    """Normal draws, or integers in [0, levels) when levels > 0 (many ties);
    the first n_constant columns are constant, and the last column mirrors
    the first varying one, so equal gains sit at different positions of two
    features."""
    if levels:
        X = rng.integers(0, levels, size=(n, d)).astype(float)
    else:
        X = rng.normal(size=(n, d))
    X[:, :n_constant] = 1.5
    if n_constant < d - 1:
        X[:, -1] = -X[:, n_constant]
    return X


PROBLEM = dict(
    seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40), d=st.integers(1, 12),
    levels=st.sampled_from([0, 2, 3]), n_constant=st.integers(0, 2),
)


class TestGbtSplitSearch:
    """The level-wise split search against the per-feature loop, exactly."""

    @settings(max_examples=150, deadline=None)
    @given(**PROBLEM, grad_kind=st.sampled_from(["normal", "tied", "equal"]),
           nodes=st.integers(1, 4))
    def test_matches_per_feature_loop(self, seed, n, d, levels, n_constant, grad_kind, nodes):
        rng = np.random.default_rng(seed)
        X = tie_prone_matrix(rng, n, d, levels, n_constant)
        grad = {
            "normal": rng.normal(size=n),
            "tied": rng.integers(-1, 2, size=n) * 0.25,
            "equal": np.full(n, 0.3),
        }[grad_kind]
        node_rows = []
        for _ in range(nodes):
            rows = np.flatnonzero(rng.random(n) < 0.7)
            node_rows.append(rows if rows.size >= 2 else np.arange(n))
        # one tree level: node values padded with NaN, gradients with 0
        counts = np.array([rows.size for rows in node_rows])
        node_X = np.full((counts.max(), nodes, d), np.nan)
        gh = np.zeros((nodes, 2, counts.max()))
        for k, rows in enumerate(node_rows):
            node_X[:rows.size, k] = X[rows]
            gh[k, 0, :rows.size] = grad[rows]
        order = node_X.argsort(axis=0, kind="stable")
        node = np.arange(nodes)[:, None]
        total, _, sq_total = cl._node_sums(gh, counts)
        feature, threshold, found = cl._best_splits(
            np.take_along_axis(node_X, order, axis=0), gh[node, 0, order], total, sq_total, counts)
        for k, rows in enumerate(node_rows):
            got = (int(feature[k]), threshold[k]) if found[k] else None
            assert got == loop_best_split(X, grad, rows) == node_best_split(X, grad, rows)

    @settings(max_examples=40, deadline=None)
    @given(**PROBLEM, depth=st.integers(1, 4))
    def test_fit_matches_per_feature_loop(self, seed, n, d, levels, n_constant, depth):
        rng = np.random.default_rng(seed)
        X = tie_prone_matrix(rng, n, d, levels, n_constant)
        y = rng.integers(0, 2, size=n)
        y[rng.choice(n, size=2, replace=False)] = [0, 1]
        spec = cl.ClassifierSpec("gbt", rounds=15, depth=depth)
        fast = cl.fit(spec, X, y)
        slow = loop_fit(spec, X, y, best_split=loop_best_split)
        assert model_bytes(fast) == model_bytes(slow)
        forest = fast.payload["forest"]
        assert forest.roots.size == 15
        probe = np.vstack([X, tie_prone_matrix(rng, 5, d, levels, n_constant)])
        assert np.array_equal(cl.decision_values(fast, probe), cl.decision_values(slow, probe))
        # standardized rows plus rows that sit exactly on each split threshold
        Xs = fast.stats.apply(probe)
        on_threshold = []
        for j, thr in zip(forest.feature, forest.threshold):
            if j >= 0:
                on_threshold.append(Xs[0].copy())
                on_threshold[-1][j] = thr
        Xs = np.vstack([Xs] + on_threshold)
        assert np.array_equal(cl._forest_predict(forest, Xs), walk_leaf_values(forest, Xs))


def training_sets(rng, sets, n, d, n_constant):
    """Stack of two-label training sets with some constant columns."""
    X = rng.normal(size=(sets, n, d)) * rng.uniform(0.1, 10.0, size=(sets, 1, d))
    X[:, :, rng.choice(d, min(n_constant, d), replace=False)] = rng.normal()
    y = rng.integers(0, 2, size=(sets, n))
    y[:, :2] = [0, 1]
    return X, y


class TestFitFolds:
    """The fit of a stack of training sets, such as LOOCV folds, against one
    reference fit per set, for every kind."""

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(cl.KINDS), sets=st.integers(1, 6),
           n=st.integers(2, 12), d=st.integers(1, 9), n_constant=st.integers(0, 3),
           rounds=st.integers(1, 8), depth=st.integers(1, 4), seed=st.integers(0, 2**16))
    def test_equals_per_set_reference(self, kind, sets, n, d, n_constant, rounds, depth, seed):
        rng = np.random.default_rng(seed)
        X, y = training_sets(rng, sets, n, d, n_constant)
        spec = cl.ClassifierSpec(kind, iterations=30, epochs=8, hidden=(5, 3), rounds=rounds,
                                 depth=depth, seed=seed % 4)
        expect = [model_bytes(loop_fit(spec, X_set, y_set)) for X_set, y_set in zip(X, y)]
        assert [model_bytes(m) for m in cl.fit(spec, X, y)] == expect
        assert [model_bytes(cl.fit(spec, X_set, y_set)) for X_set, y_set in zip(X, y)] == expect

    @settings(max_examples=40, deadline=None)
    @given(sets=st.integers(1, 6), n=st.integers(8, 40), d=st.integers(1, 64),
           levels=st.sampled_from([0, 2, 3]), n_constant=st.integers(0, 2),
           depth=st.integers(1, 5), seed=st.integers(0, 2**16))
    def test_gbt_stacks_of_many_rows(self, sets, n, d, levels, n_constant, depth, seed):
        """Nodes of 8 rows and more, where numpy's pairwise sum and the BLAS
        dot no longer add in plain order, and levels searched in several
        chunks."""
        rng = np.random.default_rng(seed)
        X = np.stack([tie_prone_matrix(rng, n, d, levels, n_constant) for _ in range(sets)])
        y = rng.integers(0, 2, size=(sets, n))
        y[:, :2] = [0, 1]
        spec = cl.ClassifierSpec("gbt", rounds=6, depth=depth)
        expect = [model_bytes(loop_fit(spec, X_set, y_set)) for X_set, y_set in zip(X, y)]
        assert [model_bytes(m) for m in cl.fit(spec, X, y)] == expect

    def test_gbt_node_storage_bounded_by_rows(self):
        """depth 64 on 12 rows: the trees stop where the rows run out."""
        X = np.arange(24.0).reshape(12, 2)
        y = np.arange(12) % 2
        spec = cl.ClassifierSpec("gbt", rounds=3, depth=64)
        model = cl.fit(spec, X, y)
        assert model_bytes(model) == model_bytes(loop_fit(spec, X, y))
        forest = model.payload["forest"]
        sizes = np.diff(forest.roots, append=forest.feature.size)
        assert sizes[0] == 2 * 12 - 1 and max(sizes) <= 2 * 12 - 1

    @settings(max_examples=40, deadline=None)
    @given(sets=st.integers(2, 6), n=st.integers(2, 12), d=st.integers(1, 9),
           n_constant=st.integers(0, 3), rounds=st.integers(1, 8), depth=st.integers(1, 4),
           seed=st.integers(0, 2**16))
    def test_gbt_forest_structure(self, sets, n, d, n_constant, rounds, depth, seed):
        """Each set's forest is its trees one after another, each a binary
        tree of at most ``depth`` levels of splits."""
        X, y = training_sets(np.random.default_rng(seed), sets, n, d, n_constant)
        spec = cl.ClassifierSpec("gbt", rounds=rounds, depth=depth)
        for model in cl.fit(spec, X, y):
            forest = model.payload["forest"]
            size = forest.feature.size
            assert forest.roots.size == rounds and forest.roots[0] == 0
            assert np.all(np.diff(forest.roots) > 0) and forest.roots[-1] < size
            leaf = forest.feature < 0
            assert np.all(forest.threshold[leaf] == 0.0)
            assert np.all(forest.left[leaf] == -1) and np.all(forest.right[leaf] == -1)
            assert np.all(forest.value[~leaf] == 0.0)
            node_depth = np.zeros(size, dtype=int)
            for a, b in zip(forest.roots, np.append(forest.roots[1:], size)):
                inner = np.flatnonzero(~leaf[a:b]) + a
                children = np.concatenate([forest.left[inner], forest.right[inner]])
                assert np.array_equal(np.sort(children), np.arange(a + 1, b))
                for node in inner:
                    node_depth[forest.left[node]] = node_depth[forest.right[node]] = (
                        node_depth[node] + 1)
            assert node_depth.max() <= depth

    @pytest.mark.parametrize("kind", cl.KINDS)
    def test_sets_of_different_shapes_rejected(self, kind):
        rng = np.random.default_rng(40)
        (X_a,), (y_a,) = training_sets(rng, 1, 6, 4, 1)
        (X_b,), (y_b,) = training_sets(rng, 1, 9, 4, 0)
        with pytest.raises(ValueError):
            cl.fit(cl.ClassifierSpec(kind), [X_a, X_b], [y_a, y_b])

    @pytest.mark.parametrize("kind", cl.KINDS)
    def test_other_kinds_fit_each_set(self, kind):
        """Each model of a stack predicts as the single fit of its set."""
        X, y = training_sets(np.random.default_rng(41), 3, 8, 3, 0)
        spec = cl.ClassifierSpec(kind, iterations=30, epochs=8, rounds=5)
        probe = np.random.default_rng(42).normal(size=(4, 3))
        got = cl.fit(spec, X, y)
        for model, X_set, y_set in zip(got, X, y, strict=True):
            expect = cl.predict_proba(cl.fit(spec, X_set, y_set), probe)
            assert cl.predict_proba(model, probe).tobytes() == expect.tobytes()

    @pytest.mark.parametrize("kind", cl.KINDS)
    def test_no_sets_no_models(self, kind):
        X = np.zeros((0, 5, 3))
        assert cl.fit(cl.ClassifierSpec(kind), X, np.zeros((0, 5), dtype=int)) == []

    def test_stack_checks_every_set(self):
        X, y = training_sets(np.random.default_rng(43), 3, 5, 2, 0)
        y[2] = 1
        for kind in cl.KINDS:
            spec = cl.ClassifierSpec(kind)
            with pytest.raises(cl.DegenerateTrainingError):
                cl.fit(spec, X, y)
            with pytest.raises(ValueError, match="do not align"):
                cl.fit(spec, X, y[:, :4])
            with pytest.raises(ValueError, match="do not align"):
                cl.fit(spec, X[None], y[None])


class TestMlp:
    def test_learns_nonlinear_xor(self):
        rng = np.random.default_rng(26)
        X = rng.uniform(-1, 1, size=(120, 2))
        y = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(int)
        model = cl.fit(cl.ClassifierSpec("mlp2", epochs=400, seed=1), X, y)
        acc = float(np.mean(cl.decide(cl.predict_proba(model, X)) == (y == 1)))
        assert acc >= 0.9


class TestDecide:
    def test_threshold_rule(self):
        assert cl.decide(0.6) is True
        assert cl.decide(0.5) is False
        assert cl.decide(0.4) is False

    def test_vector_input(self):
        np.testing.assert_array_equal(cl.decide(np.array([0.2, 0.8])), [False, True])

    def test_rejects_out_of_range(self):
        for p in (1.3, float("nan"), np.array([0.2, np.nan])):
            with pytest.raises(ValueError):
                cl.decide(p)
