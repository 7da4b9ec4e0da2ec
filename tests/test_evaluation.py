"""LOOCV harness, metrics, and t-test against scipy oracles."""

import warnings

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from affectpipe import classifiers as cl
from affectpipe import evaluation as ev
from conftest import loop_fit, model_bytes


def make_cohort(rng, n_pos=10, n_neg=10, gap=3.0, prefix="p"):
    """Separable synthetic cohort; signal lives in the AU mean dims."""
    n = n_pos + n_neg
    feats = np.array([rng.normal(size=58) * 0.5 for _ in range(n)])
    feats[:n_pos, 0:6] += gap
    return ev.Cohort([f"{prefix}{i:03d}" for i in range(n)],
                     [ev.ASD] * n_pos + [ev.NON_ASD] * n_neg, np.clip(feats, -8, 8))


class TestCohort:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            ev.Cohort(("a", "a"), (ev.ASD, ev.NON_ASD), np.zeros((2, 58)))

    def test_bad_diagnosis_rejected(self):
        with pytest.raises(ValueError, match="autism"):
            ev.Cohort(("a", "b"), (ev.ASD, "autism"), np.zeros((2, 58)))

    def test_wrong_dim_rejected(self):
        with pytest.raises(ValueError, match="feature matrix"):
            ev.Cohort(("a",), (ev.ASD,), np.zeros((1, 57)))

    def test_misaligned_rows_rejected(self):
        for diagnoses, features in (((ev.ASD,), np.zeros((2, 58))),
                                    ((ev.ASD, ev.NON_ASD), np.zeros((1, 58))),
                                    ((ev.ASD, ev.NON_ASD), np.zeros(58))):
            with pytest.raises(ValueError, match="feature matrix"):
                ev.Cohort(("a", "b")[:len(features)], diagnoses, features)

    def test_features_are_a_frozen_copy(self):
        features = np.zeros((2, 58))
        cohort = ev.Cohort(["a", "b"], [ev.ASD, ev.NON_ASD], features)
        features[0, 0] = 1.0
        assert cohort.features[0, 0] == 0.0 and cohort.ids == ("a", "b")
        with pytest.raises(ValueError):
            cohort.features[0, 0] = 1.0
        np.testing.assert_array_equal(cohort.labels, [1, 0])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_nonfinite_features_rejected(self, value):
        features = np.zeros((2, 58))
        features[1, 7] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^non-finite values in cohort features$"):
                ev.Cohort(("a", "b"), (ev.ASD, ev.NON_ASD), features)

    def test_single_class_not_evaluable(self):
        for n in (0, 4):
            cohort = ev.Cohort([f"r{i}" for i in range(n)], [ev.ASD] * n, np.zeros((n, 58)))
            with pytest.raises(ValueError, match="evaluation needs"):
                cohort.require_evaluable()


class TestAttributeMask:
    def test_au_has_36(self):
        assert len(ev.attribute_mask(["au"])) == 36

    def test_arousal_indices(self):
        assert ev.attribute_mask(["arousal"]) == (20, 42, 56)

    def test_full_union_is_partition(self):
        full = ev.attribute_mask(["au", "expr", "arousal", "valence"])
        assert full == tuple(range(58))
        singles = [ev.attribute_mask([a]) for a in ev.ATTRIBUTES]
        assert sum(len(s) for s in singles) == 58

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ev.attribute_mask([])
        with pytest.raises(ValueError):
            ev.attribute_mask(["gaze"])


class TestLoocv:
    def test_five_folds(self):
        rng = np.random.default_rng(0)
        cohort = make_cohort(rng, n_pos=3, n_neg=2)
        result = ev.loocv(cohort, cl.ClassifierSpec("logistic"))
        assert len(result.ids) == 5
        assert result.ids == tuple(sorted(result.ids))

    def test_separable_cohort_all_correct(self):
        rng = np.random.default_rng(1)
        cohort = make_cohort(rng, n_pos=3, n_neg=2, gap=5.0)
        result = ev.loocv(cohort, cl.ClassifierSpec("logistic"))
        assert result.predictions == result.truths

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        cohort = make_cohort(rng, n_pos=6, n_neg=6)
        a = ev.loocv(cohort, cl.ClassifierSpec("logistic"))
        b = ev.loocv(cohort, cl.ClassifierSpec("logistic"))
        assert a.predictions == b.predictions
        assert a.probabilities == b.probabilities

    def test_duplication_never_hurts(self):
        rng = np.random.default_rng(3)
        cohort = make_cohort(rng, n_pos=5, n_neg=5, gap=4.0)
        result = ev.loocv(cohort, cl.ClassifierSpec("logistic"))
        doubled = ev.Cohort(cohort.ids + tuple(pid + "_dup" for pid in cohort.ids),
                            cohort.diagnoses * 2, np.vstack([cohort.features] * 2))
        result2 = ev.loocv(doubled, cl.ClassifierSpec("logistic"))
        acc1 = np.mean([p == t for p, t in zip(result.predictions, result.truths)])
        acc2 = np.mean([p == t for p, t in zip(result2.predictions, result2.truths)])
        assert acc2 >= acc1

    def test_single_label_fold_base_rate_with_warning(self):
        feats = np.random.default_rng(4).normal(size=(3, 58))
        cohort = ev.Cohort("abc", (ev.ASD, ev.NON_ASD, ev.NON_ASD), feats)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = ev.loocv(cohort, cl.ClassifierSpec("logistic"))
        # holding out "a" leaves only non-ASD rows: base rate 0 -> predict negative
        idx = result.ids.index("a")
        assert result.predictions[idx] is False
        assert result.probabilities[idx] == 0.0
        assert result.warnings == ("fold a: single-label training set, "
                                   "predicting base rate 0.000",)

    def test_two_participants_every_fold_base_rate(self):
        feats = np.random.default_rng(6).normal(size=(2, 58))
        cohort = ev.Cohort("ab", (ev.ASD, ev.NON_ASD), feats)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = ev.loocv(cohort, cl.ClassifierSpec("logistic"), return_models=True)
        # each fold trains on the one other participant's label
        assert result.probabilities == (0.0, 1.0)
        assert len(result.warnings) == 2 and result.models == (None, None)

    @pytest.mark.parametrize("n_pos, n_neg, calls", [(1, 1, 0), (1, 4, 1), (3, 3, 1)])
    def test_one_fit_call_for_all_folds(self, monkeypatch, n_pos, n_neg, calls):
        stacks = []

        def fit(spec, X, y):
            stacks.append(X.shape)
            return real_fit(spec, X, y)

        real_fit = cl.fit
        monkeypatch.setattr(cl, "fit", fit)
        cohort = make_cohort(np.random.default_rng(7), n_pos=n_pos, n_neg=n_neg)
        ev.loocv(cohort, cl.ClassifierSpec("lda"), mask=ev.attribute_mask(["arousal"]))
        n = n_pos + n_neg
        assert stacks == [(n - (n_pos == 1) - (n_neg == 1), n - 1, 3)] * calls

    def test_masked_features_only(self):
        rng = np.random.default_rng(5)
        cohort = make_cohort(rng, n_pos=6, n_neg=6, gap=4.0)
        full = ev.loocv(cohort, cl.ClassifierSpec("logistic"))
        # signal is in AU dims; an arousal-only mask must do worse
        aro = ev.loocv(cohort, cl.ClassifierSpec("logistic"), mask=ev.attribute_mask(["arousal"]))
        acc_full = np.mean([p == t for p, t in zip(full.predictions, full.truths)])
        acc_aro = np.mean([p == t for p, t in zip(aro.predictions, aro.truths)])
        assert acc_full > acc_aro

    @pytest.mark.parametrize("mask", [(-1,), (0, 0), (58,), (1.5,), (True,), (np.float64(2.0),), (0, "1")])
    def test_mask_must_hold_unique_feature_indices(self, mask):
        cohort = make_cohort(np.random.default_rng(5), n_pos=2, n_neg=2)
        with pytest.raises(ValueError, match=r"^feature mask must hold unique integers in \[0, 58\), got "):
            ev.loocv(cohort, cl.ClassifierSpec("lda"), mask=mask)

    def test_mask_accepts_numpy_integers(self):
        cohort = make_cohort(np.random.default_rng(5), n_pos=2, n_neg=2)
        spec = cl.ClassifierSpec("lda")
        assert (ev.loocv(cohort, spec, mask=np.array([3, 0, 57])).probabilities
                == ev.loocv(cohort, spec, mask=(3, 0, 57)).probabilities)

    def test_no_leakage_from_held_out_features(self):
        rng = np.random.default_rng(6)
        cohort = make_cohort(rng, n_pos=4, n_neg=4)
        result = ev.loocv(cohort, cl.ClassifierSpec("logistic"), return_models=True)
        features = cohort.features.copy()
        features[cohort.ids.index(sorted(cohort.ids)[2])] += 100.0
        result2 = ev.loocv(ev.Cohort(cohort.ids, cohort.diagnoses, features),
                           cl.ClassifierSpec("logistic"), return_models=True)
        np.testing.assert_array_equal(result.models[2].payload["w"], result2.models[2].payload["w"])
        assert result.models[2].payload["b"] == result2.models[2].payload["b"]


SPECS = st.builds(
    lambda kind, iterations, epochs, h1, h2, rounds, depth, seed: cl.ClassifierSpec(
        kind, iterations=iterations, epochs=epochs, hidden=(h1, h2), rounds=rounds,
        depth=depth, seed=seed),
    st.sampled_from(cl.KINDS), st.integers(1, 40), st.integers(1, 12),
    st.integers(1, 8), st.integers(1, 8), st.integers(1, 12), st.integers(1, 4),
    st.integers(0, 3),
)
MASKS = (None,) + tuple(ev.attribute_mask(flags) for flags in ev.DEFAULT_ABLATION)


def oracle_loocv(cohort, spec, mask):
    """LOOCV as one reference fit per fold: probabilities, warnings, models."""
    ids = sorted(cohort.ids)
    rows = [cohort.ids.index(pid) for pid in ids]
    X = cohort.features[rows][:, list(mask or range(58))]
    y = np.array([cohort.diagnoses[row] == ev.ASD for row in rows], dtype=int)
    probs, notes, models = [], [], []
    for i, pid in enumerate(ids):
        keep = np.arange(len(ids)) != i
        try:
            model = loop_fit(spec, X[keep], y[keep])
        except cl.DegenerateTrainingError:
            base = float(y[keep].mean())
            notes.append(f"fold {pid}: single-label training set, "
                         f"predicting base rate {base:.3f}")
            probs.append(base)
            models.append(None)
        else:
            probs.append(cl.predict_proba(model, X[i]))
            models.append(model)
    return probs, notes, models


class TestStackedLoocvMatchesPerFoldLoop:
    """LOOCV fits every fold in one stacked ``fit`` call; the result must equal
    one reference fit per fold, byte for byte, for every kind."""

    @settings(max_examples=60, deadline=None)
    @given(n_pos=st.integers(1, 12), n_neg=st.integers(1, 12), seed=st.integers(0, 2**16),
           scale=st.sampled_from([1e-3, 1.0, 50.0]), n_constant=st.integers(0, 6),
           mask=st.sampled_from(MASKS), spec=SPECS)
    def test_probabilities_warnings_and_models(self, n_pos, n_neg, seed, scale, n_constant,
                                               mask, spec):
        rng = np.random.default_rng(seed)
        feats = rng.normal(size=(n_pos + n_neg, 58)) * scale
        feats[:n_pos, :6] += scale
        feats[:, rng.choice(58, n_constant, replace=False)] = rng.normal()
        ids = [f"p{i:02d}" for i in rng.permutation(n_pos + n_neg)]
        cohort = ev.Cohort(ids, [ev.ASD] * n_pos + [ev.NON_ASD] * n_neg, feats)
        probs, notes, models = oracle_loocv(cohort, spec, mask)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = ev.loocv(cohort, spec, mask=mask, return_models=True)
        assert np.array(result.probabilities).tobytes() == np.array(probs).tobytes()
        assert result.predictions == tuple(p > 0.5 for p in probs)
        assert result.warnings == tuple(notes)
        assert caught == []
        assert [model_bytes(m) for m in result.models] == [model_bytes(m) for m in models]
        plain = ev.loocv(cohort, spec, mask=mask)
        assert plain.probabilities == result.probabilities and plain.models == ()

    @pytest.mark.parametrize("kind", cl.KINDS)
    def test_fallback_folds_keep_their_place(self, kind):
        cohort = make_cohort(np.random.default_rng(8), n_pos=1, n_neg=4)
        spec = cl.ClassifierSpec(kind, iterations=20, epochs=5)
        probs, notes, models = oracle_loocv(cohort, spec, None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = ev.loocv(cohort, spec, return_models=True)
        assert result.models[0] is None and len(notes) == 1
        assert result.warnings == tuple(notes)
        assert np.array(result.probabilities).tobytes() == np.array(probs).tobytes()
        assert [model_bytes(m) for m in result.models] == [model_bytes(m) for m in models]


class TestConfusionMetrics:
    def test_all_correct(self):
        m = ev.confusion_metrics([True, False, True], [True, False, True])
        assert (m.f1, m.sensitivity, m.specificity) == (1.0, 1.0, 1.0)

    def test_reference_cohort_case_exact(self):
        preds = [True] * 38 + [False] * 11 + [True] * 12 + [False] * 27
        truths = [True] * 49 + [False] * 39
        m = ev.confusion_metrics(preds, truths)
        assert (m.tp, m.fn, m.fp, m.tn) == (38, 11, 12, 27)
        assert m.sensitivity == 38 / 49
        assert m.specificity == 27 / 39
        assert m.f1 == 76 / 99
        assert round(m.sensitivity, 3) == 0.776
        assert round(m.specificity, 3) == 0.692
        assert round(m.f1, 3) == 0.768

    def test_swapped_convention_swaps_sens_spec(self):
        rng = np.random.default_rng(7)
        preds = list(rng.random(30) > 0.5)
        truths = list(rng.random(30) > 0.5)
        m = ev.confusion_metrics(preds, truths)
        swapped = ev.confusion_metrics([not p for p in preds], [not t for t in truths])
        assert m.sensitivity == swapped.specificity
        assert m.specificity == swapped.sensitivity

    def test_undefined_reported_as_none(self):
        m = ev.confusion_metrics([False, False], [False, False])
        assert m.sensitivity is None
        assert m.f1 is None
        assert m.specificity == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ev.confusion_metrics([True], [True, False])


class TestTTest:
    def test_identical_samples(self):
        r = ev.t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert r.t == 0.0
        assert r.p == 1.0

    def test_reference_case(self):
        r = ev.t_test([2.1, 2.5, 2.3], [1.1, 1.4, 1.2])
        ref = scipy.stats.ttest_ind([2.1, 2.5, 2.3], [1.1, 1.4, 1.2], equal_var=True)
        assert r.t == pytest.approx(ref.statistic, abs=1e-6)
        assert r.p == pytest.approx(ref.pvalue, abs=1e-6)

    def test_hundred_random_pairs_against_scipy(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            n, m = int(rng.integers(2, 40)), int(rng.integers(2, 40))
            xs = rng.normal(rng.uniform(-2, 2), rng.uniform(0.5, 3), n)
            ys = rng.normal(rng.uniform(-2, 2), rng.uniform(0.5, 3), m)
            ours = ev.t_test(xs, ys)
            ref = scipy.stats.ttest_ind(xs, ys, equal_var=True)
            assert abs(ours.t - ref.statistic) < 1e-9
            assert abs(ours.p - ref.pvalue) < 1e-6

    def test_degenerate_zero_variance(self):
        same = ev.t_test([2.0, 2.0, 2.0], [2.0, 2.0])
        assert same.degenerate and same.p == 1.0
        apart = ev.t_test([2.0, 2.0, 2.0], [3.0, 3.0])
        assert apart.degenerate and apart.p == 0.0

    def test_antisymmetric_same_p(self):
        rng = np.random.default_rng(13)
        xs, ys = rng.normal(size=9), rng.normal(1.0, 1.0, size=7)
        a, b = ev.t_test(xs, ys), ev.t_test(ys, xs)
        assert a.t == pytest.approx(-b.t, abs=1e-12)
        assert a.p == pytest.approx(b.p, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10_000), scale=st.floats(0.01, 100.0))
    def test_scale_invariance(self, seed, scale):
        rng = np.random.default_rng(seed)
        xs = rng.normal(size=6)
        ys = rng.normal(0.5, 1.0, size=8)
        a = ev.t_test(xs, ys)
        b = ev.t_test(xs * scale, ys * scale)
        assert a.t == pytest.approx(b.t, rel=1e-9)
        assert a.p == pytest.approx(b.p, rel=1e-6, abs=1e-12)

    def test_too_small_sample_rejected(self):
        with pytest.raises(ValueError):
            ev.t_test([1.0], [1.0, 2.0])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_nonfinite_sample_rejected(self, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for xs, ys in (([1.0, value, 2.0], [1.0, 2.0]), ([1.0, 2.0], [value, 2.0, 3.0])):
                with pytest.raises(ValueError, match="^non-finite values in t-test sample$"):
                    ev.t_test(xs, ys)


class TestIncompleteBeta:
    def test_against_scipy(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            a = float(rng.uniform(0.5, 30))
            b = float(rng.uniform(0.5, 30))
            x = float(rng.uniform(0, 1))
            ours = ev.regularized_incomplete_beta(x, a, b)
            ref = scipy.special.betainc(a, b, x)
            assert abs(ours - ref) < 1e-10

    def test_bounds(self):
        assert ev.regularized_incomplete_beta(0.0, 2.0, 3.0) == 0.0
        assert ev.regularized_incomplete_beta(1.0, 2.0, 3.0) == 1.0


class TestAblation:
    def test_full_beats_au_only_when_signal_in_expr(self):
        rng = np.random.default_rng(15)
        feats = np.array([rng.normal(size=58) * 0.3 for _ in range(16)])
        feats[:8, 12:20] += 2.5
        cohort = ev.Cohort([f"q{i:02d}" for i in range(16)],
                           [ev.ASD] * 8 + [ev.NON_ASD] * 8, feats)
        rows = ev.ablation_study(cohort, cl.ClassifierSpec("logistic"))
        assert rows[0].attributes == ("au",)
        assert rows[-1].attributes == ("au", "arousal", "valence", "expr")
        assert rows[-1].f1 > rows[0].f1

    def test_reproducible(self):
        rng = np.random.default_rng(16)
        cohort = make_cohort(rng, n_pos=6, n_neg=6)
        a = ev.ablation_study(cohort, cl.ClassifierSpec("logistic"))
        b = ev.ablation_study(cohort, cl.ClassifierSpec("logistic"))
        assert a == b

    def test_row_feature_counts(self):
        rng = np.random.default_rng(17)
        cohort = make_cohort(rng, n_pos=4, n_neg=4)
        rows = ev.ablation_study(cohort, cl.ClassifierSpec("logistic"))
        assert [r.n_features for r in rows] == [36, 39, 42, 58]


class TestAttributeSignificance:
    def base_features(self, rng):
        au = rng.uniform(0.2, 0.8, 12)
        expr_logits = rng.normal(size=8)
        expr = np.exp(expr_logits) / np.exp(expr_logits).sum()
        frame = np.concatenate([au, expr, rng.uniform(-0.5, 0.5, 2)])
        sigma = np.abs(rng.normal(0.1, 0.02, 22))
        act = rng.uniform(0, 1, 12)
        return np.concatenate([frame, sigma, act, rng.uniform(0, 1, 2)])

    def make_cohort(self, rng, shift_attr=None, shift=0.0, n=12):
        rows = []
        for i in range(n):
            positive = i < n // 2
            feats = self.base_features(rng)
            if positive and shift_attr == "valence":
                feats[21] = np.clip(feats[21] + shift, -1, 1)
            if positive and shift_attr == "expr":
                probs = feats[12:20]
                probs[0] += shift
                feats[12:20] = probs / probs.sum()
            rows.append(feats)
        return ev.Cohort([f"s{i:02d}" for i in range(n)],
                         [ev.ASD] * (n // 2) + [ev.NON_ASD] * (n - n // 2), rows)

    def test_valence_shift_detected(self):
        rng = np.random.default_rng(18)
        cohort = self.make_cohort(rng, shift_attr="valence", shift=1.0, n=16)
        result = ev.attribute_significance(cohort)
        assert result["attributes"]["valence"].p < 0.01

    def test_expr_summary_not_degenerate(self):
        rng = np.random.default_rng(19)
        cohort = self.make_cohort(rng, shift_attr="expr", shift=1.5, n=16)
        result = ev.attribute_significance(cohort)
        assert not result["attributes"]["expr"].degenerate
        assert result["attributes"]["expr"].p < 0.05

    def test_null_groups_uniformish(self):
        rng = np.random.default_rng(20)
        ps = []
        for _ in range(100):
            cohort = self.make_cohort(rng, n=12)
            ps.append(ev.attribute_significance(cohort)["attributes"]["au"].p)
        assert np.median(ps) > 0.2

    def test_per_feature_pvalues_present(self):
        rng = np.random.default_rng(21)
        cohort = self.make_cohort(rng, n=10)
        result = ev.attribute_significance(cohort)
        assert len(result["features"]) == 58
        assert all(0 <= r.p <= 1 for r in result["features"].values())

    def test_small_group_rejected(self):
        rng = np.random.default_rng(22)
        rows = [self.base_features(rng) for _ in range(3)]
        cohort = ev.Cohort("abc", (ev.ASD, ev.NON_ASD, ev.NON_ASD), rows)
        with pytest.raises(ValueError):
            ev.attribute_significance(cohort)

    @pytest.mark.parametrize("seed", range(4))
    def test_summaries_equal_per_row_reference(self, seed):
        rng = np.random.default_rng(seed)
        features = np.array([self.base_features(rng) for _ in range(1 + 7 * seed)])
        reference = {
            "au": [float(row[:12].mean()) for row in features],
            "expr": [float(0.5 * np.abs(row[12:20] - 1.0 / 8).sum()) for row in features],
            "arousal": [float(row[20]) for row in features],
            "valence": [float(row[21]) for row in features],
        }
        for attribute, want in reference.items():
            got = ev._attribute_summary(features, attribute)
            assert got.tobytes() == np.array(want).tobytes()
