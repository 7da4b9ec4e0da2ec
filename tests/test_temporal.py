"""Temporal feature extraction against brute-force loop oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affectpipe import temporal as tp


def random_matrix(rng, m):
    au = rng.uniform(0.0, 1.0, size=(m, 12))
    logits = rng.normal(size=(m, 8))
    expr = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    aro = rng.uniform(-1.0, 1.0, size=(m, 1))
    val = rng.uniform(-1.0, 1.0, size=(m, 1))
    return np.hstack([au, expr, aro, val])


class TestAttributeMatrix:
    def test_valid_matrix_comes_back_unchanged(self):
        F = random_matrix(np.random.default_rng(7), 5)
        F[0, tp.AU_COLS] = 1.0
        F[1, tp.AU_COLS] = 0.0
        F[2, [tp.AROUSAL_COL, tp.VALENCE_COL]] = -1.0
        out = tp.attribute_matrix(np.asfortranarray(F))
        assert out.dtype == np.float64 and out.flags.c_contiguous
        assert out.tobytes() == F.tobytes()

    def test_rejects_wrong_column_count(self):
        with pytest.raises(ValueError, match="M x 22 matrix, got shape"):
            tp.attribute_matrix(np.full((2, 21), 0.125))

    def test_rejects_a_single_row_vector_and_no_rows(self):
        with pytest.raises(ValueError, match="M x 22 matrix, got shape"):
            tp.attribute_matrix(np.full(22, 0.125))
        with pytest.raises(ValueError, match="empty"):
            tp.attribute_matrix(np.empty((0, 22)))

    @pytest.mark.parametrize("col, value, name", [
        (tp.AROUSAL_COL, 1.5, "arousal"), (tp.VALENCE_COL, -1.0000000000000002, "valence"),
        (2, np.nan, "au_03"), (tp.N_AU, np.inf, "expr_01"),
    ], ids=["arousal", "valence", "au_03", "expr_01"])
    def test_names_the_column_out_of_bounds(self, col, value, name):
        F = random_matrix(np.random.default_rng(8), 3)
        F[1, col] = value
        with pytest.raises(ValueError, match=f"column {name} has values outside"):
            tp.attribute_matrix(F)

    def test_rejects_expression_sum_off_one(self):
        F = random_matrix(np.random.default_rng(9), 3)
        F[2, tp.EXPR_COLS] = 0.2
        with pytest.raises(ValueError, match="sum to 1"):
            tp.attribute_matrix(F)

    def test_column_names_follow_the_layout(self):
        names = np.array(tp.COLUMN_NAMES)
        assert len(names) == len(tp.COLUMN_BOUNDS) == tp.FRAME_DIM
        assert [n[:3] for n in names[tp.AU_COLS]] == ["au_"] * tp.N_AU
        assert [n[:5] for n in names[tp.EXPR_COLS]] == ["expr_"] * tp.N_EXPR
        assert names[tp.AROUSAL_COL] == "arousal" and names[tp.VALENCE_COL] == "valence"
        assert tp.COLUMN_BOUNDS[tp.N_AU + tp.N_EXPR - 1] == (0.0, 1.0)
        assert tp.COLUMN_BOUNDS[tp.AROUSAL_COL] == tp.COLUMN_BOUNDS[tp.VALENCE_COL] == (-1.0, 1.0)


class TestMeanStd:
    def test_identical_rows_zero_std(self):
        row = random_matrix(np.random.default_rng(0), 1)
        F = np.repeat(row, 5, axis=0)
        m, s = tp.mean_std(F)
        np.testing.assert_allclose(m, row[0])
        np.testing.assert_array_equal(s, np.zeros(22))

    def test_two_point_column(self):
        F = random_matrix(np.random.default_rng(1), 2)
        F[0, 0], F[1, 0] = 1.0, 3.0
        m, s = tp.mean_std(F)
        assert m[0] == 2.0
        assert s[0] == 1.0

    def test_matches_two_pass_loop_oracle(self):
        F = random_matrix(np.random.default_rng(2), 100)
        m, s = tp.mean_std(F)
        for j in range(22):
            col = [F[i, j] for i in range(100)]
            mu = sum(col) / len(col)
            var = sum((v - mu) ** 2 for v in col) / len(col)
            assert abs(m[j] - mu) < 1e-12
            assert abs(s[j] - np.sqrt(var)) < 1e-12

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError):
            tp.mean_std(np.empty((0, 22)))


class TestAuActivation:
    def test_boundary_value_excluded(self):
        F = random_matrix(np.random.default_rng(3), 4)
        F[:, 0] = [0.6, 0.4, 0.7, 0.5]
        a = tp.au_activation(F, tau=0.5)
        assert a[0] == 0.5

    def test_all_above_threshold(self):
        F = random_matrix(np.random.default_rng(4), 6)
        F[:, tp.AU_COLS] = 0.9
        np.testing.assert_array_equal(tp.au_activation(F, 0.5), np.ones(12))

    def test_matches_counting_oracle(self):
        F = random_matrix(np.random.default_rng(5), 73)
        a = tp.au_activation(F, 0.5)
        for j in range(12):
            count = sum(1 for i in range(73) if F[i, j] > 0.5)
            assert a[j] == count / 73

    def test_bad_tau_rejected(self):
        with pytest.raises(ValueError):
            tp.au_activation(random_matrix(np.random.default_rng(6), 3), tau=1.5)


class TestPositiveFractions:
    def test_zero_excluded(self):
        F = random_matrix(np.random.default_rng(7), 4)
        F[:, tp.AROUSAL_COL] = [0.1, -0.2, 0.0, 0.3]
        p_aro, _ = tp.positive_fractions(F)
        assert p_aro == 0.5

    def test_all_negative_valence(self):
        F = random_matrix(np.random.default_rng(8), 5)
        F[:, tp.VALENCE_COL] = -np.abs(F[:, tp.VALENCE_COL]) - 0.01
        _, p_val = tp.positive_fractions(F)
        assert p_val == 0.0

    def test_matches_counting_oracle(self):
        F = random_matrix(np.random.default_rng(9), 51)
        p_aro, p_val = tp.positive_fractions(F)
        assert p_aro == sum(1 for v in F[:, 20] if v > 0) / 51
        assert p_val == sum(1 for v in F[:, 21] if v > 0) / 51


class TestTemporalFeatureVector:
    def test_constant_stream(self):
        row = random_matrix(np.random.default_rng(10), 1)
        F = np.repeat(row, 8, axis=0)
        feats = tp.temporal_feature_vector(F)
        v = feats.vector()
        assert v.shape == (58,)
        np.testing.assert_array_equal(v[22:44], np.zeros(22))
        np.testing.assert_array_equal(v[44:56], (row[0, :12] > 0.5).astype(float))

    def test_single_frame(self):
        F = random_matrix(np.random.default_rng(11), 1)
        v = tp.temporal_feature_vector(F).vector()
        np.testing.assert_allclose(v[:22], F[0])
        np.testing.assert_array_equal(v[22:44], np.zeros(22))
        assert set(np.unique(v[44:56])) <= {0.0, 1.0}
        assert v[56] in (0.0, 1.0) and v[57] in (0.0, 1.0)

    def test_compositional_oracle_long_stream(self):
        F = random_matrix(np.random.default_rng(12), 9575)
        v = tp.temporal_feature_vector(F).vector()
        m, s = tp.mean_std(F)
        a = tp.au_activation(F, 0.5)
        p_aro, p_val = tp.positive_fractions(F)
        expected = np.concatenate([m, s, a, [p_aro, p_val]])
        np.testing.assert_allclose(v, expected, atol=1e-12, rtol=0)

    def test_matches_brute_force_oracle_tight(self):
        F = random_matrix(np.random.default_rng(13), 200)
        v = tp.temporal_feature_vector(F).vector()
        brute = []
        for j in range(22):
            brute.append(sum(F[:, j]) / 200)
        for j in range(22):
            mu = sum(F[:, j]) / 200
            brute.append(np.sqrt(sum((x - mu) ** 2 for x in F[:, j]) / 200))
        for j in range(12):
            brute.append(sum(1 for x in F[:, j] if x > 0.5) / 200)
        brute.append(sum(1 for x in F[:, 20] if x > 0) / 200)
        brute.append(sum(1 for x in F[:, 21] if x > 0) / 200)
        np.testing.assert_allclose(v, brute, atol=1e-12, rtol=0)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), m=st.integers(1, 40))
    def test_permutation_invariance(self, seed, m):
        rng = np.random.default_rng(seed)
        F = random_matrix(rng, m)
        v = tp.temporal_feature_vector(F).vector()
        perm = rng.permutation(m)
        v2 = tp.temporal_feature_vector(F[perm]).vector()
        np.testing.assert_allclose(v, v2, atol=1e-12, rtol=0)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), c=st.floats(0.05, 1.0))
    def test_au_scaling_property(self, seed, c):
        rng = np.random.default_rng(seed)
        F = random_matrix(rng, 17)
        before = tp.temporal_feature_vector(F)
        scaled = F.copy()
        scaled[:, 3] *= c
        after = tp.temporal_feature_vector(scaled)
        assert after.mean[3] == pytest.approx(c * before.mean[3], rel=1e-12, abs=1e-15)
        assert after.std[3] == pytest.approx(c * before.std[3], rel=1e-9, abs=1e-12)
        assert after.activation[3] <= before.activation[3]


class TestAttributeDims:
    def test_partition_of_58(self):
        all_dims = sorted(
            i for dims in tp.ATTRIBUTE_DIMS.values() for i in dims
        )
        assert all_dims == list(range(58))

    def test_group_sizes(self):
        sizes = {k: len(v) for k, v in tp.ATTRIBUTE_DIMS.items()}
        assert sizes == {"au": 36, "expr": 16, "arousal": 3, "valence": 3}

    def test_feature_names_align_with_dims(self):
        names = tp.feature_names()
        assert len(names) == 58
        for i in tp.ATTRIBUTE_DIMS["au"]:
            assert "au" in names[i]
        for i in tp.ATTRIBUTE_DIMS["arousal"]:
            assert "aro" in names[i]
