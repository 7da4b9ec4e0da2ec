"""Label batches, losses, class weights, optimizer, and the toy trainer."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affectpipe import graph as gr
from affectpipe import numerics as nm
from affectpipe import training as tr

from affectpipe import classifiers as cl

from conftest import (central_difference, dict_l2_penalty, dict_sgd_step, exact, loop_toy_dataset,
                      max_rel_error, sample_batch_loss_and_grads, sample_class_weights,
                      sample_task_loss, sample_train_toy, unit_weights)


def labels_of(n=1, **columns):
    """A label batch of n samples; a task not given is UNK (-1 or NaN)."""
    arrays = dict(expr=np.full(n, -1), au=np.full((n, 12), -1),
                  arousal=np.full(n, np.nan), valence=np.full(n, np.nan))
    arrays.update(columns)
    return tr.LabelBatch(**arrays)


def one(**sample):
    """A label batch of one sample; a task not given is UNK."""
    return labels_of(**{task: [value] for task, value in sample.items()})


def au_row(*values):
    """One sample's twelve AU labels: the given leading units, the rest UNK (-1)."""
    return [list(values) + [-1] * (12 - len(values))]


class TestTaskLabels:
    """The per-sample label checks, made on a batch of one sample."""

    def test_bad_expr_index(self):
        with pytest.raises(ValueError, match="expr labels must be -1"):
            one(expr=8)

    def test_bad_au_value(self):
        with pytest.raises(ValueError, match="AU labels must be -1"):
            labels_of(au=au_row(2))

    def test_out_of_range_valence(self):
        with pytest.raises(ValueError, match="valence targets"):
            one(valence=1.2)

    @pytest.mark.parametrize("value", [2.7, 2.0, True, False, np.float64(1.0)])
    def test_non_integer_expr_rejected(self, value):
        with pytest.raises(ValueError, match="expr labels must be integers"):
            one(expr=value)

    @pytest.mark.parametrize("value", [1.0, 0.0, True, False, 0.5, np.float64(1.0)])
    def test_non_integer_au_rejected(self, value):
        with pytest.raises(ValueError, match="au labels must be integers"):
            labels_of(au=np.full((1, 12), value))

    def test_numpy_integers_accepted(self):
        batch = labels_of(expr=[np.int64(3)], au=au_row(np.int32(1)))
        assert batch.expr[0] == 3 and batch.au[0, 0] == 1
        assert batch.expr.dtype == batch.au.dtype == np.dtype(int)


class TestLabelBatch:
    def test_from_labels_marks_unk(self):
        batch = tr.LabelBatch(
            expr=np.array([2, -1, -1], dtype=np.int32),
            au=np.array([[1, -1] * 6, [-1] * 12, [0] + [-1] * 11], dtype=np.int8),
            arousal=[np.nan, 0.5, np.nan],
            valence=[np.nan, np.nan, -0.25],
        )
        np.testing.assert_array_equal(batch.expr, [2, -1, -1])
        np.testing.assert_array_equal(batch.au[0], [1, -1] * 6)
        np.testing.assert_array_equal(batch.au[1], [-1] * 12)
        np.testing.assert_array_equal(batch.au[2], [0] + [-1] * 11)
        np.testing.assert_array_equal(batch.arousal, [np.nan, 0.5, np.nan])
        np.testing.assert_array_equal(batch.valence, [np.nan, np.nan, -0.25])
        assert batch.expr.dtype == batch.au.dtype == np.dtype(int)
        assert len(batch) == 3

    def test_read_only_and_sliced(self):
        _, batch = tr.toy_dataset(n=9, size=4, seed=2)
        with pytest.raises(ValueError):
            batch.au[0, 0] = 1
        part = batch[3:7]
        assert len(part) == 4
        np.testing.assert_array_equal(part.au, batch.au[3:7])
        np.testing.assert_array_equal(part.valence, batch.valence[3:7])
        assert labels_of(0).au.shape == (0, 12)

    @pytest.mark.parametrize("index,rows", [(0, slice(0, 1)), (-1, slice(-1, None)),
                                            (np.int64(4), slice(4, 5))])
    def test_integer_index_is_one_sample_batch(self, index, rows):
        _, batch = tr.toy_dataset(n=9, size=4, seed=2)
        got, want = batch[index], batch[rows]
        assert len(got) == 1
        for task in ("expr", "au", "arousal", "valence"):
            np.testing.assert_array_equal(getattr(got, task), getattr(want, task))

    def test_integer_index_out_of_range(self):
        _, batch = tr.toy_dataset(n=9, size=4, seed=2)
        with pytest.raises(IndexError):
            batch[len(batch)]

    @pytest.mark.parametrize("field,value,match", [
        ("expr", [1.0, 2.0], "expr labels must be integers"),
        ("expr", [True, False], "expr labels must be integers"),
        ("au", np.ones((2, 12), dtype=bool), "au labels must be integers"),
        ("au", np.full((2, 12), 0.5), "au labels must be integers"),
        ("expr", [8, 0], "expr labels must be -1"),
        ("expr", [-2, 0], "expr labels must be -1"),
        ("au", np.full((2, 12), 2), "AU labels must be -1"),
        ("au", np.zeros((2, 11), dtype=int), "au labels have shape"),
        ("expr", [0, 1, 2], "au labels have shape"),
        ("arousal", [1.5, np.nan], "arousal targets"),
        ("valence", [np.inf, 0.0], "valence targets"),
        ("valence", [0.0], "valence labels have shape"),
        ("expr", ["3", "0"], "expr labels must be integers"),
        ("au", np.zeros((2, 12)), "au labels must be integers"),
        ("arousal", [np.nan, np.nan], "sample 1 supervises"),
    ])
    def test_bad_arrays_rejected(self, field, value, match):
        arrays = dict(expr=[0, -1], au=np.full((2, 12), -1), arousal=[np.nan, 0.1],
                      valence=[0.2, np.nan])
        arrays[field] = value
        with pytest.raises(ValueError, match=match):
            tr.LabelBatch(**arrays)


class TestClassWeights:
    def test_balanced_counts_give_unit_weights(self):
        np.testing.assert_allclose(tr.inverse_frequency([5, 5, 5, 5]), np.ones(4))

    def test_binary_formula(self):
        np.testing.assert_allclose(tr.inverse_frequency([10, 30]), [2.0, 2 / 3])

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            tr.inverse_frequency([0, 0, 0])

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(1, 500), min_size=2, max_size=12))
    def test_weighted_frequency_mean_is_one(self, counts):
        counts = np.asarray(counts, dtype=float)
        w = tr.inverse_frequency(counts)
        freq = counts / counts.sum()
        assert abs(float(freq @ w) - 1.0) <= 1e-12

    def test_counts_observed_labels(self):
        cw = tr.class_weights(labels_of(20, expr=[i % 2 for i in range(10)] + [0] * 10))
        # expr class 0 seen 15x, class 1 seen 5x, others unseen
        assert cw.expr[0] == 20 / (8 * 15)
        assert cw.expr[1] == 20 / (8 * 5)
        assert cw.expr[2] == 20 / 8
        # no AU observations at all: unit fallback, never consulted
        np.testing.assert_array_equal(cw.au, np.ones((12, 2)))

    @pytest.mark.parametrize("seed", range(6))
    def test_equals_per_sample_counts(self, seed):
        """Toy labels with random UNK entries, one AU unit never observed and
        (seed 0 and 3) no expression observed, bit for bit."""
        rng = np.random.default_rng(seed)
        _, full = tr.toy_dataset(n=30, size=4, seed=seed)
        expr, au, arousal = full.expr.copy(), full.au.copy(), full.arousal.copy()
        expr[rng.random(30) < (0.3 if seed % 3 else 1.0)] = -1
        au[rng.random(au.shape) < 0.5] = -1
        au[:, seed % 12] = -1
        arousal[rng.random(30) < 0.5] = np.nan
        labels = tr.LabelBatch(expr, au, arousal, full.valence)
        got, want = tr.class_weights(labels), sample_class_weights(labels)
        assert exact(got.expr) == exact(want.expr) and exact(got.au) == exact(want.au)

    def test_nonpositive_weights_rejected(self):
        with pytest.raises(ValueError):
            tr.ClassWeights(expr=np.zeros(8), au=np.ones((12, 2)))


class TestTaskLoss:
    def test_expr_perfect_prediction(self):
        raw = np.array([[100.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]])
        loss, grad = tr.task_loss("expr", raw, one(expr=0), unit_weights())
        assert loss.shape == (1,) and grad.shape == (1, 8)
        assert loss[0] == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(grad, 0.0, atol=1e-12)

    def test_expr_two_way_ln2(self):
        weights = tr.ClassWeights(expr=np.ones(2), au=np.ones((12, 2)))
        loss, _ = tr.task_loss("expr", np.zeros((1, 2)), one(expr=0), weights)
        assert loss[0] == pytest.approx(math.log(2.0), abs=1e-12)

    def test_expr_weight_scales_loss(self):
        w = tr.ClassWeights(expr=np.array([3.0] + [1.0] * 7), au=np.ones((12, 2)))
        raw = np.random.default_rng(0).normal(size=(1, 8))
        base, _ = tr.task_loss("expr", raw, one(expr=0), unit_weights())
        scaled, _ = tr.task_loss("expr", raw, one(expr=0), w)
        assert scaled[0] == pytest.approx(3.0 * base[0], rel=1e-12)

    def test_arousal_l1_value(self):
        raw = np.array([math.atanh(0.5)])
        loss, _ = tr.task_loss("arousal", raw, one(arousal=0.2), unit_weights())
        assert loss[0] == pytest.approx(0.3, abs=1e-12)

    def test_valence_l2_value(self):
        raw = np.array([[math.atanh(0.5)]])
        loss, grad = tr.task_loss("valence", raw, one(valence=0.2), unit_weights())
        assert loss[0] == pytest.approx(0.09, abs=1e-12)
        assert grad.shape == (1, 1)

    def test_au_balanced_midpoint(self):
        # raw 0 -> p=0.5 -> bce ln 2 per observed unit
        labels = one(au=(0, 1) * 6)
        loss, _ = tr.task_loss("au", np.zeros((1, 12)), labels, unit_weights())
        assert loss[0] == pytest.approx(math.log(2.0), abs=1e-12)

    def test_au_unk_units_excluded(self):
        labels = one(au=(1,) + (-1,) * 11)
        raw = np.zeros((1, 12))
        raw[0, 1:] = 50.0
        loss, grad = tr.task_loss("au", raw, labels, unit_weights())
        assert loss[0] == pytest.approx(math.log(2.0), abs=1e-12)
        np.testing.assert_array_equal(grad[0, 1:], 0.0)

    def test_unk_task_zero_loss_and_adjoint(self):
        labels = one(expr=3)
        for task, raw in (("au", np.ones((1, 12))), ("arousal", np.array([0.7])),
                          ("valence", np.array([-0.2]))):
            loss, grad = tr.task_loss(task, raw, labels, unit_weights())
            assert np.all(loss == 0.0)
            assert np.all(grad == 0.0) and grad.shape == raw.shape

    def test_unk_rows_zero_loss_and_adjoint(self):
        labels = labels_of(2, expr=[-1, 2], arousal=[0.1, np.nan], valence=[np.nan, 0.3])
        raw = {t: np.random.default_rng(1).normal(size=(2, gr.HEAD_WIDTHS[t])) for t in gr.TASKS}
        for task, unk_row in (("expr", 0), ("au", 0), ("au", 1), ("arousal", 1), ("valence", 0)):
            loss, grad = tr.task_loss(task, raw[task], labels, unit_weights())
            assert loss[unk_row] == 0.0 and np.all(grad[unk_row] == 0.0)

    def test_bad_affect_target(self):
        with pytest.raises(ValueError):
            one(arousal=-1.5)

    def test_shape_checks(self):
        labels = labels_of(3, expr=[1] * 3)
        with pytest.raises(ValueError, match="unknown task"):
            tr.task_loss("gaze", np.zeros(3), labels, unit_weights())
        with pytest.raises(ValueError, match="does not match 3 samples"):
            tr.task_loss("expr", np.zeros((2, 8)), labels, unit_weights())
        with pytest.raises(ValueError, match="do not match"):
            tr.task_loss("expr", np.zeros((3, 7)), labels, unit_weights())
        with pytest.raises(ValueError, match="do not match"):
            tr.task_loss("au", np.zeros((3, 11)), labels, unit_weights())
        with pytest.raises(ValueError, match=r"\(n,\) or \(n, 1\)"):
            tr.task_loss("arousal", np.zeros((3, 2)), labels, unit_weights())

    @pytest.mark.parametrize("observed", ["all", "partial", "none"])
    def test_au_adjoint_equals_per_element_formula(self, observed):
        rng = np.random.default_rng(8)
        weights = tr.ClassWeights(expr=np.ones(8), au=rng.uniform(0.2, 3.0, size=(12, 2)))
        rows = []
        for _ in range(20):
            raw = rng.normal(scale=20.0, size=12)
            raw[rng.integers(12, size=3)] = rng.choice([-1.0, 1.0], 3) * rng.uniform(30.0, 800.0, 3)
            au = [int(v) for v in rng.integers(0, 2, 12)]
            if observed != "all":
                au = [v if observed == "partial" and rng.random() < 0.5 else -1 for v in au]
            rows.append((raw, au))
        labels = labels_of(len(rows), expr=[0] * len(rows), au=[au for _, au in rows])
        _, grad = tr.task_loss("au", np.stack([raw for raw, _ in rows]), labels, weights)
        for (raw, au), got in zip(rows, grad):
            seen = [(i, y) for i, y in enumerate(au) if y >= 0]
            want = np.zeros(12)
            for i, y in seen:
                want[i] = float(weights.au[i, y]) * (float(nm.sigmoid(np.array(raw[i]))) - y)
            assert np.all(got == (want / len(seen) if seen else want))

    def test_losses_nonnegative(self):
        rng = np.random.default_rng(4)
        w = unit_weights()
        labels = tr.LabelBatch(expr=rng.integers(8, size=50), au=rng.integers(0, 2, (50, 12)),
                               arousal=rng.uniform(-1, 1, 50), valence=rng.uniform(-1, 1, 50))
        for task in gr.TASKS:
            raw = rng.normal(size=(50, gr.HEAD_WIDTHS[task]))
            assert np.all(tr.task_loss(task, raw, labels, w)[0] >= 0)


def batch_fd(task, raw, labels, weights):
    """Analytic and central-difference adjoints of the batch's summed loss."""
    _, grad = tr.task_loss(task, raw, labels, weights)
    num = central_difference(lambda v: float(tr.task_loss(task, v, labels, weights)[0].sum()),
                             raw.copy())
    return grad, num


class TestTaskLossGradients:
    """Central finite differences for all four loss adjoints, on batches of
    three samples."""

    @pytest.mark.parametrize("seed", range(20))
    def test_expr_adjoint(self, seed):
        rng = np.random.default_rng(seed)
        raw = rng.normal(size=(3, 8))
        weights = tr.ClassWeights(expr=rng.uniform(0.5, 2.0, 8), au=np.ones((12, 2)))
        labels = labels_of(3, expr=[int(rng.integers(8)) for _ in range(3)])
        assert max_rel_error(*batch_fd("expr", raw, labels, weights)) < 1e-4

    @pytest.mark.parametrize("seed", range(20))
    def test_au_adjoint(self, seed):
        rng = np.random.default_rng(seed)
        raw = rng.normal(size=(3, 12))
        au = rng.integers(0, 3, (3, 12))
        au[au == 2] = -1
        au[np.all(au == -1, axis=1), 0] = 1
        labels = labels_of(3, au=au)
        weights = tr.ClassWeights(expr=np.ones(8), au=rng.uniform(0.5, 2.0, (12, 2)))
        assert max_rel_error(*batch_fd("au", raw, labels, weights)) < 1e-4

    @pytest.mark.parametrize("seed", range(20))
    def test_arousal_adjoint(self, seed):
        rng = np.random.default_rng(seed)
        raw = rng.normal(size=3)
        targets = rng.uniform(-0.95, 0.95, size=3)
        # keep clear of the L1 kink at pred == target
        raw[np.abs(np.tanh(raw) - targets) < 1e-2] += 0.1
        labels = labels_of(3, arousal=targets)
        assert max_rel_error(*batch_fd("arousal", raw, labels, unit_weights())) < 1e-4

    @pytest.mark.parametrize("seed", range(20))
    def test_valence_adjoint(self, seed):
        rng = np.random.default_rng(seed)
        raw = rng.normal(size=(3, 1))
        labels = labels_of(3, valence=rng.uniform(-0.95, 0.95, size=3))
        assert max_rel_error(*batch_fd("valence", raw, labels, unit_weights())) < 1e-4


class TestMultitaskLoss:
    """The objective ``batch_loss_and_grads`` returns: the mean over the batch
    of the four task losses, plus lam * ||params||^2."""

    def batch(self, seed, n=3, size=8):
        images, labels = tr.toy_dataset(n=n, size=size, seed=seed)
        return tr.Arena(gr.init_params(tr.toy_graph(size), seed)), images, labels

    def test_only_regularizer_when_rest_unk_and_exact(self):
        arena, images, _ = self.batch(seed=3, n=1)
        outputs, _ = tr.toy_forward(arena.params, images)
        labels = one(arousal=math.tanh(float(outputs["arousal"][0])))
        loss, _ = tr.batch_loss_and_grads(arena, images, labels, unit_weights(), lam=0.1)
        assert loss == 0.1 * tr.l2_penalty(arena)

    def test_zero_params_no_penalty(self):
        arena, images, _ = self.batch(seed=4, n=2)
        arena.flat[:] = 0.0
        labels = labels_of(2, expr=[0, 5])
        loss, _ = tr.batch_loss_and_grads(arena, images, labels, unit_weights(), lam=123.0)
        expr_only = tr.task_loss("expr", np.zeros((1, 8)), one(expr=0), unit_weights())[0][0]
        assert loss == pytest.approx(expr_only, abs=1e-12)

    def test_compositional_oracle(self):
        arena, images, batch = self.batch(seed=5)
        w = tr.class_weights(batch)
        lam = 1e-4
        outputs, _ = tr.toy_forward(arena.params, images)
        total = sum(tr.task_loss(t, outputs[t], batch, w)[0].sum() for t in gr.TASKS)
        total = total / len(batch) + lam * sum(np.sum(p ** 2) for p in arena.params.values())
        got, _ = tr.batch_loss_and_grads(arena, images, batch, w, lam)
        assert got == pytest.approx(total, rel=1e-12)

    def test_unk_monotonicity(self):
        arena, images, _ = self.batch(seed=6, n=1)
        w = unit_weights()
        partial = one(expr=1)
        full = one(expr=1, arousal=np.nan, valence=np.nan)
        assert tr.batch_loss_and_grads(arena, images, partial, w, 1e-4)[0] == pytest.approx(
            tr.batch_loss_and_grads(arena, images, full, w, 1e-4)[0], rel=1e-15
        )

    def test_label_count_must_match_batch(self):
        arena, images, labels = self.batch(seed=7, n=3)
        with pytest.raises(ValueError, match="does not match 2 samples"):
            tr.batch_loss_and_grads(arena, images, labels[:2], unit_weights(), 1e-4)


class TestTrainConfig:
    @pytest.mark.parametrize("field,value", [
        ("lr0", float("nan")), ("lr0", float("inf")), ("weight_decay", float("nan")),
        ("weight_decay", float("inf")), ("momentum", float("nan")), ("lr_decay", float("nan")),
    ])
    def test_nonfinite_float_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must "):
            tr.TrainConfig(**{field: value})

    @pytest.mark.parametrize("field", ["lr0", "momentum", "lr_decay", "weight_decay"])
    @pytest.mark.parametrize("value", [None, "0.1", True, False, np.bool_(True), [0.1]])
    def test_float_must_be_a_real_number(self, field, value):
        need = "positive and finite" if field == "lr0" else "a finite real number"
        with pytest.raises(ValueError, match=rf"^{field} must be {need}, got "):
            tr.TrainConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [("lr0", 1), ("momentum", np.float32(0.5)),
                                              ("lr_decay", np.int64(0)), ("weight_decay", 0)])
    def test_float_accepts_python_and_numpy_numbers(self, field, value):
        assert getattr(tr.TrainConfig(**{field: value}), field) == value

    @pytest.mark.parametrize("field", ["epochs", "batch_size"])
    @pytest.mark.parametrize("value", [2.5, 3.0, True, "4"])
    def test_count_must_be_int(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be a positive integer"):
            tr.TrainConfig(**{field: value})

    def test_epochs_none_rejected(self):
        with pytest.raises(ValueError, match="epochs must be a positive integer"):
            tr.TrainConfig(epochs=None)

    def test_batch_size_none_rejected(self):
        with pytest.raises(ValueError, match="batch_size must be a positive integer"):
            tr.TrainConfig(batch_size=None)

    @pytest.mark.parametrize("value", [-1, 2.5, True, None])
    def test_seed_must_be_non_negative_int(self, value):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            tr.TrainConfig(seed=value)

    def test_counts_accept_numpy_int(self):
        cfg = tr.TrainConfig(epochs=np.int64(3), batch_size=np.int32(7))
        assert cfg.epochs == 3 and cfg.batch_size == 7


def arena_of(value):
    """A one-tensor arena holding ``value`` under the key "w"."""
    return tr.Arena({"w": np.array(value, dtype=float)})


def stacked_mlp_params(rng, s=3, d=5, hidden=(4, 3)):
    """Random parameters of s stacked perceptrons, keyed like ``classifiers._fit_mlp``'s."""
    return {key: rng.normal(size=(s,) + shape) for key, shape in sorted(cl._mlp_shapes(d, hidden).items())}


class TestSgd:
    """The optimizer steps the arena in place; weight decay is off here so
    the hand-iterated values hold."""

    def test_plain_step(self):
        cfg = tr.TrainConfig(momentum=0.0, weight_decay=0.0)
        arena = arena_of([1.0])
        tr.sgd_step(arena, {"w": np.array([1.0])}, 0, cfg)
        assert arena.params["w"][0] == pytest.approx(0.99, abs=1e-15)

    def test_lr_schedule_values(self):
        cfg = tr.TrainConfig()
        assert tr.learning_rate(0, cfg) == pytest.approx(0.01, abs=1e-15)
        assert tr.learning_rate(1, cfg) == pytest.approx(0.0095, abs=1e-12)
        assert tr.learning_rate(2, cfg) == pytest.approx(0.009025, abs=1e-12)

    def test_lr_schedule_closed_form(self):
        cfg = tr.TrainConfig()
        for e in range(30):
            assert abs(tr.learning_rate(e, cfg) - 0.01 * 0.95**e) <= 1e-12

    def test_momentum_recurrence_hand_iterated(self):
        cfg = tr.TrainConfig(momentum=0.9, lr0=0.01, lr_decay=0.0, weight_decay=0.0)
        arena = arena_of([1.0])
        grads = {"w": np.array([1.0])}
        tr.sgd_step(arena, grads, 0, cfg)
        assert arena.velocity[0] == pytest.approx(-0.01, abs=1e-15)
        assert arena.params["w"][0] == pytest.approx(0.99, abs=1e-15)
        tr.sgd_step(arena, grads, 0, cfg)
        assert arena.velocity[0] == pytest.approx(-0.019, abs=1e-15)
        assert arena.params["w"][0] == pytest.approx(0.971, abs=1e-15)

    def test_nonfinite_gradient_rejected(self):
        cfg = tr.TrainConfig()
        with pytest.raises(nm.NumericError):
            tr.sgd_step(arena_of(np.zeros(1)), {"w": np.array([np.nan])}, 0, cfg)

    @pytest.mark.parametrize("written", [False, True])
    @pytest.mark.parametrize("model", ["toy", "stacked_mlp"])
    def test_arena_step_equals_dict_oracle(self, model, written):
        """Steps on the arena equal the per-tensor reference byte for byte,
        parameters and velocities, across epochs of the learning-rate decay,
        whether the gradients come as a dict or are written into the
        arena's ``grads``."""
        rng = np.random.default_rng(61)
        if model == "toy":
            params = gr.init_params(tr.toy_graph(8), 3)
        else:
            params = stacked_mlp_params(rng)
        cfg = tr.TrainConfig(weight_decay=0.01)
        arena = tr.Arena(params)
        velocity = {key: np.zeros_like(value) for key, value in params.items()}
        for epoch in (0, 0, 1, 5):
            grads = {key: rng.normal(size=value.shape) for key, value in params.items()}
            if written:
                for key, grad in grads.items():
                    arena.grads[key][...] = grad
            tr.sgd_step(arena, arena.grads if written else grads, epoch, cfg)
            params, velocity = dict_sgd_step(params, velocity, grads, epoch, cfg)
            assert exact(arena.params) == exact(params)
            assert arena.velocity.tobytes() == np.concatenate(
                [v.ravel() for v in velocity.values()]).tobytes()

    @pytest.mark.parametrize("written", [False, True])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejected_step_leaves_the_arena_and_names_the_key(self, bad, written):
        rng = np.random.default_rng(62)
        params = gr.init_params(tr.toy_graph(8), 0)
        arena = tr.Arena(params)
        cfg = tr.TrainConfig()
        tr.sgd_step(arena, {key: rng.normal(size=v.shape) for key, v in params.items()}, 0, cfg)
        flat, velocity = arena.flat.tobytes(), arena.velocity.tobytes()
        grads = {key: rng.normal(size=v.shape) for key, v in params.items()}
        grads["head.au.w"][3, 2] = bad
        grads["stem.w"][0, 0, 0, 0] = bad
        if written:
            for key, grad in grads.items():
                arena.grads[key][...] = grad
            grads = arena.grads
        with pytest.raises(nm.NumericError, match="non-finite gradient for head.au.w"):
            tr.sgd_step(arena, grads, 1, cfg)
        assert arena.flat.tobytes() == flat and arena.velocity.tobytes() == velocity

    def test_gradient_of_the_wrong_shape_rejected(self):
        arena = tr.Arena({"a": np.zeros(2), "w": np.zeros((2, 3))})
        with pytest.raises(ValueError, match=r"gradient for w has shape \(3, 2\), expected \(2, 3\)"):
            tr.sgd_step(arena, {"a": np.zeros(2), "w": np.zeros((3, 2))}, 0, tr.TrainConfig())


class TestArena:
    def test_params_are_views_of_one_vector_in_key_order(self):
        params = stacked_mlp_params(np.random.default_rng(63))
        arena = tr.Arena(params)
        assert list(arena.params) == list(params)
        assert exact(arena.params) == exact(params)
        np.testing.assert_array_equal(arena.flat, np.concatenate([v.ravel() for v in params.values()]))
        for value in arena.params.values():
            assert value.flags.c_contiguous and np.shares_memory(value, arena.flat)

    def test_grads_view_the_gradient_vector_as_params_view_the_parameters(self):
        params = stacked_mlp_params(np.random.default_rng(64))
        arena = tr.Arena(params)
        assert list(arena.grads) == list(params)
        for key, view in arena.grads.items():
            assert view.shape == params[key].shape
            assert view.flags.c_contiguous and np.shares_memory(view, arena.grad)
            view[...] = params[key]
        np.testing.assert_array_equal(arena.grad, arena.flat)
        assert arena.gather(arena.grads) is arena.grad
        assert not np.any(arena.velocity)

    def test_copy_holds_no_view(self):
        arena = tr.Arena(gr.init_params(tr.toy_graph(4), 0))
        copied = arena.copy()
        assert exact(copied) == exact(arena.params)
        assert not any(np.shares_memory(value, arena.flat) for value in copied.values())

    @pytest.mark.parametrize("cu", ("toy",) + gr.CU_KINDS)
    def test_l2_penalty_equals_np_sum_per_tensor(self, cu):
        graph = tr.toy_graph(8) if cu == "toy" else gr.build_graph(cu, input_hw=(16, 16))
        rng = np.random.default_rng(64)
        params = {key: rng.normal(scale=3.0, size=v.shape) for key, v in gr.init_params(graph, 0).items()}
        assert tr.l2_penalty(tr.Arena(params)) == dict_l2_penalty(params)

    def test_trained_params_are_copies(self):
        out = tr.train_toy(tr.TrainConfig(epochs=1), n=4, size=4)
        assert all(value.flags.owndata for value in out["params"].values())

    def test_mlp_payloads_are_copies(self):
        rng = np.random.default_rng(65)
        X = rng.normal(size=(2, 10, 3))
        y = np.tile([0, 1], (2, 5))
        models = cl.fit(cl.ClassifierSpec("mlp2", epochs=3), X, y)
        assert all(value.flags.owndata for model in models for value in model.payload["params"].values())


class TestToyTraining:
    def test_loss_decreases_monotonically(self):
        losses = tr.train_toy(tr.TrainConfig())["losses"]
        assert len(losses) == 30
        diffs = np.diff(losses)
        assert np.all(diffs < 0), f"worst increase {diffs.max()}"

    def test_trajectory_deterministic(self):
        a = tr.train_toy(tr.TrainConfig())["losses"]
        b = tr.train_toy(tr.TrainConfig())["losses"]
        assert a == b

    def test_toy_gradients_match_finite_differences(self):
        """The batch adjoints plus the L2 adjoint sgd_step adds are the
        gradient of the total loss."""
        images, batch = tr.toy_dataset(n=4, size=8, seed=1)
        weights = tr.class_weights(batch)
        params = gr.init_params(tr.toy_graph(8), 1)
        _, grads = tr.batch_loss_and_grads(tr.Arena(params), images, batch, weights, lam=1e-4)

        def loss_of(key, flat):
            trial = dict(params)
            trial[key] = flat.reshape(params[key].shape)
            out, _ = tr.toy_forward(trial, images)
            total = sum(tr.task_loss(task, out[task], batch, weights)[0].sum() for task in gr.TASKS)
            return total / len(batch) + 1e-4 * tr.l2_penalty(tr.Arena(trial))

        for key in ("stem.w", "stem.scale", "stem.shift", "head.expr.w", "head.arousal.b"):
            num = central_difference(lambda v: loss_of(key, v), params[key].copy().ravel())
            total = grads[key] + 2.0 * 1e-4 * params[key]
            assert max_rel_error(total.ravel(), num) < 1e-4, key

    @pytest.mark.parametrize("config,n,size", [
        (tr.TrainConfig(), 200, 16),
        (tr.TrainConfig(epochs=3, batch_size=7, seed=9), 30, 8),
        (tr.TrainConfig(epochs=3, batch_size=30, seed=2), 30, 8),
    ])
    def test_equals_per_sample_trainer(self, config, n, size):
        """The batched objective walks the per-sample trajectory bit for bit."""
        got = tr.train_toy(config, n=n, size=size)
        want = sample_train_toy(config, n=n, size=size)
        assert got["losses"] == want["losses"]
        assert exact(got["params"]) == exact(want["params"])


class TestToyDataset:
    @pytest.mark.parametrize("size", [2, 7, 8, 16])
    def test_whole_array_labels_equal_the_per_sample_loop(self, size):
        images, labels = tr.toy_dataset(n=40, size=size, seed=size)
        want_images, want = loop_toy_dataset(n=40, size=size, seed=size)
        assert images.tobytes() == want_images.tobytes()
        for name in ("expr", "au", "arousal", "valence"):
            got_field, want_field = getattr(labels, name), getattr(want, name)
            assert got_field.dtype == want_field.dtype and got_field.tobytes() == want_field.tobytes(), name


class TestOncePerRun:
    """Work that depends only on the run is done once: label indices per
    ``LabelBatch``, the toy graph per image size."""

    def test_label_indices_computed_once_per_batch(self, monkeypatch):
        _, labels = tr.toy_dataset(n=12, size=4, seed=3)
        labels = tr.LabelBatch(labels.expr, np.where(np.arange(12) % 5 == 0, -1, labels.au),
                               np.where(np.arange(12) % 3 == 0, np.nan, labels.arousal), labels.valence)
        raw = {t: np.random.default_rng(66).normal(size=(12, gr.HEAD_WIDTHS[t])) for t in gr.TASKS}
        weights = tr.class_weights(labels)
        first = [tr.task_loss(t, raw[t], labels, weights) for t in gr.TASKS]
        cached = labels.expr_index, labels.au_index, labels.affect_index

        def refuse(*args, **kwargs):
            raise AssertionError("label indices computed again")

        monkeypatch.setattr(np, "nonzero", refuse)
        monkeypatch.setattr(np, "flatnonzero", refuse)
        again = [tr.task_loss(t, raw[t], labels, weights) for t in gr.TASKS]
        assert exact(again) == exact(first)
        assert all(a is b for a, b in zip(cached, (labels.expr_index, labels.au_index, labels.affect_index)))

    def test_label_indices_match_the_labels(self):
        labels = labels_of(3, expr=[-1, 4, 2], au=[[-1] * 12, [1, 0] + [-1] * 10, [0] * 12],
                           valence=[0.5, np.nan, -0.25])
        rows, classes = labels.expr_index
        assert rows.tolist() == [1, 2] and classes.tolist() == [4, 2]
        rows, units, ys, m = labels.au_index
        assert rows.tolist() == [1, 1] + [2] * 12 and units.tolist() == [0, 1] + list(range(12))
        assert ys.tolist() == [1, 0] + [0] * 12 and m.tolist() == [1, 2, 12]
        assert labels.affect_index["arousal"][0].size == 0
        rows, targets = labels.affect_index["valence"]
        assert rows.tolist() == [0, 2] and targets.tolist() == [0.5, -0.25]
        cached = [labels.expr_index, labels.au_index, *labels.affect_index.values()]
        assert not any(array.flags.writeable for index in cached for array in index)

    def test_a_run_computes_label_indices_once(self, monkeypatch):
        calls = []
        for name in ("nonzero", "flatnonzero"):
            real = getattr(np, name)
            monkeypatch.setattr(np, name, lambda *a, real=real, **kw: calls.append(1) or real(*a, **kw))
        counts = []
        for epochs in (1, 3):
            calls.clear()
            tr.train_toy(tr.TrainConfig(epochs=epochs, batch_size=7), n=30, size=4)
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0

    def test_a_run_builds_one_toy_graph(self, monkeypatch):
        built = []
        real = gr.ModelGraph
        monkeypatch.setattr(gr, "ModelGraph", lambda *a, **kw: built.append(1) or real(*a, **kw))
        tr.toy_graph.cache_clear()
        try:
            tr.train_toy(tr.TrainConfig(epochs=2, batch_size=7), n=30, size=5)
            assert len(built) == 1
            assert tr.toy_graph(5) is tr.toy_graph(5)
        finally:
            tr.toy_graph.cache_clear()


UNK_CLASS = st.just(-1)
UNK_TARGET = st.just(math.nan)


@st.composite
def labeled_batches(draw):
    """Random head outputs and mixed UNK labels: single samples, rows with
    every AU UNK, and tasks UNK in every row."""
    n = draw(st.just(1) | st.integers(2, 9))
    unk_tasks = draw(st.sets(st.sampled_from(gr.TASKS), max_size=3))
    expr, au = np.full(n, -1), np.full((n, 12), -1)
    arousal, valence = np.full(n, np.nan), np.full(n, np.nan)
    for i in range(n):
        if "expr" not in unk_tasks:
            expr[i] = draw(UNK_CLASS | st.integers(0, 7))
        au_unit = draw(st.sampled_from([UNK_CLASS, UNK_CLASS | st.integers(0, 1),
                                        st.integers(0, 1)]))
        if "au" not in unk_tasks:
            au[i] = draw(st.lists(au_unit, min_size=12, max_size=12))
        for task, column in (("arousal", arousal), ("valence", valence)):
            if task not in unk_tasks:
                column[i] = draw(UNK_TARGET | st.floats(-1.0, 1.0))
        if expr[i] == -1 and np.all(au[i] == -1) and np.isnan(arousal[i]) and np.isnan(valence[i]):
            valence[i] = 0.5
    seed = draw(st.integers(0, 2**16))
    scale = draw(st.sampled_from([0.1, 1.0, 30.0]))
    rng = np.random.default_rng(seed)
    raw = {t: scale * rng.normal(size=(n, gr.HEAD_WIDTHS[t])) for t in gr.TASKS}
    weights = tr.ClassWeights(expr=rng.uniform(0.2, 3.0, 8), au=rng.uniform(0.2, 3.0, (12, 2)))
    return tr.LabelBatch(expr, au, arousal, valence), raw, weights, seed


class TestBatchedEqualsPerSample:
    """The batched losses against the per-sample reference in conftest, bit
    for bit."""

    @settings(max_examples=80, deadline=None)
    @given(labeled_batches())
    def test_task_loss(self, case):
        batch, raw, weights, _ = case
        for task in gr.TASKS:
            x = raw[task][:, 0] if gr.HEAD_WIDTHS[task] == 1 else raw[task]
            loss, grad = tr.task_loss(task, x, batch, weights)
            assert grad.shape == x.shape
            for i in range(len(batch)):
                value, adj = sample_task_loss(task, x[i], batch, i, weights)
                assert loss[i] == value, (task, i)
                assert np.asarray(adj).tobytes() == grad[i].tobytes(), (task, i)

    @settings(max_examples=40, deadline=None)
    @given(labeled_batches(), st.sampled_from([0.0, 1e-4, 0.3]))
    def test_batch_loss_and_grads(self, case, lam):
        batch, _, weights, seed = case
        size = 6
        images = np.random.default_rng(seed).normal(size=(len(batch), 3, size, size))
        params = gr.init_params(tr.toy_graph(size), seed % 5)
        loss, grads = tr.batch_loss_and_grads(tr.Arena(params), images, batch, weights, lam)
        want_loss, want_grads = sample_batch_loss_and_grads(params, images, batch, weights, lam)
        assert loss == want_loss
        assert exact(grads) == exact(want_grads)
