"""Synthetic cohort determinism plus null and injected-effect behavior."""

import numpy as np
import pytest

from affectpipe import dataio as dio
from affectpipe import evaluation as ev
from affectpipe import synth
from affectpipe import temporal as tp


def cohort_for(spec, tmp_path, name):
    return dio.load_cohort(dio.write_cohort(tmp_path / name, synth.draw_cohort(spec)))


class TestSpecValidation:
    def test_counts(self):
        with pytest.raises(ValueError):
            synth.SynthSpec(participants_per_group=0)
        with pytest.raises(ValueError):
            synth.SynthSpec(frames_per_participant=0)

    @pytest.mark.parametrize("field", ["participants_per_group", "frames_per_participant"])
    @pytest.mark.parametrize("value", [2.5, 3.0, True, "4"])
    def test_count_must_be_int(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be a positive integer"):
            synth.SynthSpec(**{field: value})

    @pytest.mark.parametrize("field", ["au_effect", "expr_effect", "arousal_effect", "valence_effect",
                                       "noise", "subject_scale"])
    @pytest.mark.parametrize("value", [None, "1", True, np.bool_(False), float("nan"), float("inf")])
    def test_float_must_be_a_finite_real_number(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field} must be a finite real number, got "):
            synth.SynthSpec(**{field: value})

    @pytest.mark.parametrize("field, value", [("au_effect", 1), ("noise", np.float32(0.5)),
                                              ("subject_scale", np.int64(0))])
    def test_float_accepts_python_and_numpy_numbers(self, field, value):
        assert getattr(synth.SynthSpec(**{field: value}), field) == value

    def test_noise_positive(self):
        with pytest.raises(ValueError):
            synth.SynthSpec(noise=0.0)

    @pytest.mark.parametrize("value", [-1, 2.5, True])
    def test_seed_must_be_non_negative_int(self, value):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            synth.SynthSpec(seed=value)


class TestStream:
    def test_shape_and_ranges(self):
        spec = synth.SynthSpec(frames_per_participant=50)
        F = synth.participant_stream(spec, np.random.default_rng(0), shifted=True)
        assert F.shape == (50, 22)
        assert np.all((F[:, :20] >= 0) & (F[:, :20] <= 1))
        assert np.all((F[:, 20:] >= -1) & (F[:, 20:] <= 1))
        np.testing.assert_allclose(F[:, 12:20].sum(axis=1), 1.0, atol=1e-12)

    def test_effect_moves_target_latent(self):
        spec = synth.SynthSpec(valence_effect=2.0)
        base = synth.participant_stream(spec, np.random.default_rng(1), shifted=False)
        bumped = synth.participant_stream(spec, np.random.default_rng(1), shifted=True)
        assert bumped[:, 21].mean() > base[:, 21].mean() + 0.3
        np.testing.assert_array_equal(base[:, 20], bumped[:, 20])


class TestDeterminism:
    def test_same_seed_byte_identical(self, tmp_path):
        spec = synth.SynthSpec(participants_per_group=2, frames_per_participant=20, seed=7)
        m1 = dio.write_cohort(tmp_path / "a", synth.draw_cohort(spec))
        m2 = dio.write_cohort(tmp_path / "b", synth.draw_cohort(spec))
        assert m1.read_bytes() == m2.read_bytes()
        for f in sorted(p.name for p in m1.parent.glob("*.csv")):
            assert (m1.parent / f).read_bytes() == (m2.parent / f).read_bytes()

    def test_different_seeds_differ(self, tmp_path):
        a = dio.write_cohort(tmp_path / "a", synth.draw_cohort(
            synth.SynthSpec(participants_per_group=1, frames_per_participant=5, seed=0)))
        b = dio.write_cohort(tmp_path / "b", synth.draw_cohort(
            synth.SynthSpec(participants_per_group=1, frames_per_participant=5, seed=1)))
        assert (a.parent / "asd_000.csv").read_bytes() != (b.parent / "asd_000.csv").read_bytes()


class TestGroupStructure:
    def test_manifest_counts(self, tmp_path):
        spec = synth.SynthSpec(participants_per_group=4, frames_per_participant=10)
        cohort = cohort_for(spec, tmp_path, "c")
        labels = cohort.diagnoses
        assert labels.count(ev.ASD) == 4
        assert labels.count(ev.NON_ASD) == 4

    def test_null_groups_indistinguishable(self, tmp_path):
        spec = synth.SynthSpec(participants_per_group=8, frames_per_participant=60, seed=3)
        cohort = cohort_for(spec, tmp_path, "null")
        X = cohort.features
        y = cohort.labels == 1
        ps = []
        for j in range(tp.FEATURE_DIM):
            r = ev.t_test(X[y, j], X[~y, j])
            ps.append(r.p)
        assert np.median(ps) > 0.2

    def test_valence_effect_detected(self, tmp_path):
        spec = synth.SynthSpec(participants_per_group=8, frames_per_participant=60,
                               valence_effect=1.5, seed=4)
        cohort = cohort_for(spec, tmp_path, "val")
        result = ev.attribute_significance(cohort)
        assert result["attributes"]["valence"].p < 0.01
