"""Frame CSV, manifest, and report round trips plus error locations."""

import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from affectpipe import dataio as dio
from affectpipe import evaluation as ev
from affectpipe import temporal as tp

from conftest import MUTATION, mutate, scalar_repr_frames


def random_matrix(rng, m=5):
    au = rng.uniform(0, 1, (m, 12))
    logits = rng.normal(size=(m, 8))
    expr = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    affect = rng.uniform(-1, 1, (m, 2))
    return np.column_stack([au, expr, affect])


def write_unchecked(path, F):
    """FrameCsv text of ``F`` laid out as ``write_frames`` lays it out, with
    the same ``repr`` cells, but without its contract check."""
    path.write_text(scalar_repr_frames(F), encoding="utf-8")


# Cells on either side of repr's switch to exponent notation (below 1e-4 it
# writes 1e-05, not 0.00001), signed zeros, subnormals and the bounds.
EDGE_CELLS = (0.0, -0.0, 1e-4, math.nextafter(1e-4, 0.0), 1e-5, math.nextafter(1e-5, 1.0),
              9.99999e-6, 5e-324, 2.2250738585072014e-308, 1.5e-310, 1e-300, 1.0,
              math.nextafter(1.0, 0.0), 0.1, 0.5)
UNIT_CELL = st.one_of(st.sampled_from(EDGE_CELLS), st.floats(0.0, 2e-4), st.floats(0.0, 1.0))
SIGNED_CELL = st.one_of(UNIT_CELL, UNIT_CELL.map(lambda v: -v))


@st.composite
def frame_rows(draw):
    """One row inside the frame contract, its expression cells summing to 1."""
    au = draw(st.lists(UNIT_CELL, min_size=12, max_size=12))
    expr_rest = draw(st.lists(UNIT_CELL.map(lambda v: v / 16.0), min_size=7, max_size=7))
    affect = draw(st.lists(SIGNED_CELL, min_size=2, max_size=2))
    return au + [1.0 - math.fsum(expr_rest)] + expr_rest + affect


def write_cohort(tmp_path, rng, n_pos=2, n_neg=2, m=6):
    entries = []
    for i in range(n_pos + n_neg):
        pid = f"p{i:02d}"
        label = ev.ASD if i < n_pos else ev.NON_ASD
        dio.write_frames(tmp_path / f"{pid}.csv", random_matrix(rng, m))
        entries.append({"id": pid, "label": label, "frames": f"{pid}.csv"})
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(entries))
    return manifest


class TestFrameCsv:
    def test_round_trip_identity(self, tmp_path):
        rng = np.random.default_rng(0)
        F = random_matrix(rng, m=20)
        path = tmp_path / "frames.csv"
        dio.write_frames(path, F)
        back = dio.parse_frames(path)
        np.testing.assert_array_equal(back, F)

    def test_two_row_file_exact(self, tmp_path):
        expr = ["0.125"] * 8
        row = ["0"] + ["0.25"] * 12 + expr + ["0.5", "-0.5"]
        text = dio.FRAME_HEADER + "\n" + ",".join(row) + "\n" + ",".join(["1"] + row[1:]) + "\n"
        path = tmp_path / "two.csv"
        path.write_text(text)
        F = dio.parse_frames(path)
        assert F.shape == (2, 22)
        assert F[0, 0] == 0.25
        assert F[1, 20] == 0.5
        assert F[1, 21] == -0.5

    def test_out_of_range_arousal_names_row_and_column(self, tmp_path):
        F = random_matrix(np.random.default_rng(1), m=3)
        path = tmp_path / "bad.csv"
        dio.write_frames(path, F)
        lines = path.read_text().splitlines()
        cells = lines[2].split(",")
        cells[21] = "1.5"
        lines[2] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(dio.ParseError) as err:
            dio.parse_frames(path)
        assert err.value.row == 3
        assert err.value.column == "arousal"
        assert "1.5" in str(err.value)

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(frame_rows(), min_size=1, max_size=4))
    @example(rows=[list(EDGE_CELLS[:12]) + [1.0] + [0.0] * 6 + [-0.0] + [-1e-5, -5e-324]])
    def test_write_bytes_equal_scalar_repr(self, tmp_path_factory, rows):
        F = np.array(rows)
        path = tmp_path_factory.mktemp("repr") / "frames.csv"
        dio.write_frames(path, F)
        assert path.read_bytes() == scalar_repr_frames(F).encode("utf-8")
        assert dio.parse_frames(path).tobytes() == F.tobytes()

    def test_bad_header(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("frame,au1\n0,0.5\n")
        with pytest.raises(dio.ParseError, match="header"):
            dio.parse_frames(path)

    def test_wrong_cell_count(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text(dio.FRAME_HEADER + "\n0,0.5\n")
        with pytest.raises(dio.ParseError, match="23 cells"):
            dio.parse_frames(path)

    def test_non_numeric_cell(self, tmp_path):
        F = random_matrix(np.random.default_rng(2), m=2)
        path = tmp_path / "n.csv"
        dio.write_frames(path, F)
        text = path.read_text().replace(repr(float(F[1, 0])), "oops", 1)
        path.write_text(text)
        with pytest.raises(dio.ParseError, match="not a number") as err:
            dio.parse_frames(path)
        assert err.value.column == "au_01"

    def test_nan_cell_rejected(self, tmp_path):
        path = tmp_path / "f.csv"
        row = ["0", "nan"] + ["0.5"] * 11 + ["0.125"] * 8 + ["0.0", "0.0"]
        path.write_text(dio.FRAME_HEADER + "\n" + ",".join(row) + "\n")
        with pytest.raises(dio.ParseError, match="not finite"):
            dio.parse_frames(path)

    def test_expr_sum_enforced(self, tmp_path):
        row = ["0"] + ["0.5"] * 12 + ["0.2"] * 8 + ["0.0", "0.0"]
        path = tmp_path / "s.csv"
        path.write_text(dio.FRAME_HEADER + "\n" + ",".join(row) + "\n")
        with pytest.raises(dio.ParseError, match="sum to 1"):
            dio.parse_frames(path)

    def test_empty_body_rejected(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text(dio.FRAME_HEADER + "\n")
        with pytest.raises(dio.ParseError, match="no frame rows"):
            dio.parse_frames(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(dio.ParseError):
            dio.parse_frames(tmp_path / "absent.csv")

    def test_write_rejects_out_of_range(self, tmp_path):
        F = random_matrix(np.random.default_rng(3), m=2)
        F[0, 21] = 1.5
        with pytest.raises(ValueError, match="valence"):
            dio.write_frames(tmp_path / "w.csv", F)

    def test_write_rejects_expression_sum_off_one(self, tmp_path):
        F = random_matrix(np.random.default_rng(4), m=2)
        F[1, tp.EXPR_COLS] = 0.5
        with pytest.raises(ValueError, match="sum to 1"):
            dio.write_frames(tmp_path / "w.csv", F)
        assert not (tmp_path / "w.csv").exists()

    def test_write_rejects_zero_rows(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            dio.write_frames(tmp_path / "w.csv", np.empty((0, 22)))
        assert not (tmp_path / "w.csv").exists()

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 5),
           bound=st.sampled_from([0.0, 0.5, -0.5, 1.0, -1.0]), edges=st.booleans(),
           order=st.sampled_from("CF"))
    def test_every_written_matrix_reads_back_exactly(self, tmp_path_factory, seed, m,
                                                     bound, edges, order):
        rng = np.random.default_rng(seed)
        F = random_matrix(rng, m)
        if bound:
            F[0, tp.EXPR_COLS] = disputed_sum_row(rng, bound * tp.EXPR_SUM_TOL)
        if edges:
            F[:, tp.AU_COLS] = rng.integers(0, 2, (m, tp.N_AU))
            F[:, tp.AROUSAL_COL:] = rng.choice([-1.0, 1.0], (m, 2))
        F = np.asarray(F, order=order)
        path = tmp_path_factory.mktemp("written") / "frames.csv"
        try:
            dio.write_frames(path, F)
        except ValueError as err:
            assert bound and "sum to 1" in str(err)
            return
        unchecked = path.with_name("unchecked.csv")
        write_unchecked(unchecked, F)
        assert path.read_bytes() == unchecked.read_bytes()

        def unreachable(_):
            raise AssertionError("row loop called on a written file")

        with mock.patch.object(dio, "_parse_frame_rows", unreachable):
            back = dio.parse_frames(path)
        assert back.tobytes() == np.ascontiguousarray(F).tobytes()


def parse_outcome(parse, path):
    """A parser's matrix, or the message and location of its ParseError."""
    try:
        return parse(path)
    except dio.ParseError as err:
        return (str(err), err.path, err.row, err.column)


def assert_same_outcome(path):
    fast = parse_outcome(dio.parse_frames, path)
    rows = parse_outcome(dio._parse_frame_rows, path)
    if isinstance(rows, np.ndarray):
        assert isinstance(fast, np.ndarray), fast
        assert fast.dtype == rows.dtype and fast.shape == rows.shape
        assert fast.flags.c_contiguous
        assert fast.tobytes() == rows.tobytes()
    else:
        assert fast == rows


def disputed_sum_row(rng, bound):
    """Expression values within a few ulp of summing to 1 + bound, on which a
    numpy row sum and ``math.fsum`` fall on opposite sides of ``|bound|``."""
    for _ in range(100_000):
        expr = rng.uniform(0.1, 1.0, 8)
        expr /= expr.sum()
        expr[rng.integers(8)] += bound + rng.integers(-8, 9) * math.ulp(1.0)
        numpy_sum = expr[None, :].sum(axis=1)[0]
        if (abs(numpy_sum - 1.0) <= abs(bound)) != (abs(math.fsum(expr) - 1.0) <= abs(bound)):
            return expr
    raise AssertionError("no disputed row found")


class TestFastPathMatchesRowLoop:
    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 6),
           mutations=st.lists(MUTATION, min_size=1, max_size=3))
    def test_mutated_bytes(self, tmp_path_factory, seed, m, mutations):
        path = tmp_path_factory.mktemp("mutated") / "frames.csv"
        dio.write_frames(path, random_matrix(np.random.default_rng(seed), m))
        data = path.read_bytes()
        path.write_bytes(mutate(data, len(dio.FRAME_HEADER) + 1, mutations))
        assert_same_outcome(path)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), bound=st.sampled_from([1.0, -1.0, 0.5, -0.5]))
    def test_expression_sums_at_the_tolerance(self, tmp_path_factory, seed, bound):
        rng = np.random.default_rng(seed)
        F = random_matrix(rng, m=3)
        F[1, tp.EXPR_COLS] = disputed_sum_row(rng, bound * tp.EXPR_SUM_TOL)
        path = tmp_path_factory.mktemp("sums") / "frames.csv"
        write_unchecked(path, F)
        assert_same_outcome(path)

    def test_valid_file_never_reaches_the_row_loop(self, tmp_path, monkeypatch):
        path = tmp_path / "frames.csv"
        F = random_matrix(np.random.default_rng(11), m=50)
        dio.write_frames(path, F)

        def unreachable(_):
            raise AssertionError("row loop called on a valid file")

        monkeypatch.setattr(dio, "_parse_frame_rows", unreachable)
        np.testing.assert_array_equal(dio.parse_frames(path), F)

    @pytest.mark.parametrize("index, accepted", [
        (" 1", True), ("+1", True), ("1_0", True), ("\u0661", True),
        ("7" * 700, True), ("7" * 5000, False), ("-", False), ("", False),
    ])
    def test_frame_indices_beyond_plain_digits(self, tmp_path, index, accepted):
        path = tmp_path / "frames.csv"
        dio.write_frames(path, random_matrix(np.random.default_rng(12), m=2))
        lines = path.read_text().splitlines()
        lines[2] = index + lines[2][1:]
        path.write_text("\n".join(lines) + "\n")
        assert_same_outcome(path)
        assert isinstance(parse_outcome(dio.parse_frames, path), np.ndarray) == accepted

    @pytest.mark.parametrize("cell, accepted", [
        ("0.1_5", True), (" 0.5\t", True), ("\u0660.\u0665", True), ("0.5\x00", False),
        ("0x1", False), ("1e400", False), ("-nan", False), ("1.0000000000000002", False),
        ("-5e-324", False),
    ])
    def test_cells_follow_float(self, tmp_path, cell, accepted):
        path = tmp_path / "frames.csv"
        F = random_matrix(np.random.default_rng(13), m=2)
        F[1, 0] = 0.5
        dio.write_frames(path, F)
        path.write_text(path.read_text().replace(",0.5,", f",{cell},", 1))
        assert_same_outcome(path)
        assert isinstance(parse_outcome(dio.parse_frames, path), np.ndarray) == accepted

    def test_cell_moved_between_lines(self, tmp_path):
        # One line gains a cell and the next loses one, so the file still has
        # 23 cells per line on average and the shifted cells all pass the
        # column checks; only counting per line tells the row loop's error.
        first = ["0"] + ["0.5"] * 12 + ["0.125"] * 8 + ["0.0", "0.0"] + ["1"]
        second = ["1"] + ["0.125"] * 19 + ["0.0", "0.0"]
        path = tmp_path / "frames.csv"
        path.write_text("\n".join([dio.FRAME_HEADER, ",".join(first), ",".join(second)]))
        assert_same_outcome(path)
        with pytest.raises(dio.ParseError, match="got 24") as err:
            dio.parse_frames(path)
        assert err.value.row == 2

    def test_not_utf8_names_the_file(self, tmp_path):
        path = tmp_path / "frames.csv"
        dio.write_frames(path, random_matrix(np.random.default_rng(14), m=2))
        path.write_bytes(path.read_bytes() + b"\xff\n")
        with pytest.raises(dio.ParseError, match="not valid UTF-8") as err:
            dio.parse_frames(path)
        assert err.value.path == str(path)


class TestManifest:
    def test_two_records(self, tmp_path):
        manifest = write_cohort(tmp_path, np.random.default_rng(4), n_pos=1, n_neg=1)
        entries = dio.parse_manifest(manifest)
        assert len(entries) == 2
        assert [e.participant_id for e in entries] == ["p00", "p01"]
        assert entries[0].label == ev.ASD

    def test_sorted_by_id(self, tmp_path):
        rng = np.random.default_rng(5)
        for pid in ("zz", "aa"):
            dio.write_frames(tmp_path / f"{pid}.csv", random_matrix(rng))
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps([
            {"id": "zz", "label": "ASD", "frames": "zz.csv"},
            {"id": "aa", "label": "non-ASD", "frames": "aa.csv"},
        ]))
        entries = dio.parse_manifest(manifest)
        assert [e.participant_id for e in entries] == ["aa", "zz"]

    def test_duplicate_id(self, tmp_path):
        rng = np.random.default_rng(6)
        dio.write_frames(tmp_path / "a.csv", random_matrix(rng))
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps([
            {"id": "a", "label": "ASD", "frames": "a.csv"},
            {"id": "a", "label": "non-ASD", "frames": "a.csv"},
        ]))
        with pytest.raises(dio.ParseError, match="duplicate participant id 'a'"):
            dio.parse_manifest(manifest)

    def test_unknown_label(self, tmp_path):
        rng = np.random.default_rng(7)
        dio.write_frames(tmp_path / "a.csv", random_matrix(rng))
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps([{"id": "a", "label": "autism", "frames": "a.csv"}]))
        with pytest.raises(dio.ParseError, match="unknown label"):
            dio.parse_manifest(manifest)

    def test_missing_frames_file(self, tmp_path):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps([{"id": "a", "label": "ASD", "frames": "gone.csv"}]))
        with pytest.raises(dio.ParseError, match="not found"):
            dio.parse_manifest(manifest)

    def test_not_utf8_names_the_file(self, tmp_path):
        manifest = tmp_path / "m.json"
        manifest.write_bytes(b'[{"id": "\xff"}]')
        with pytest.raises(dio.ParseError, match="not valid UTF-8") as err:
            dio.parse_manifest(manifest)
        assert err.value.path == str(manifest)

    @pytest.mark.parametrize("text", ["[" * 100_000 + "]" * 100_000, "[" + "1" * 5000 + "]"])
    def test_json_beyond_the_decoder_limits(self, tmp_path, text):
        manifest = tmp_path / "m.json"
        manifest.write_text(text)
        with pytest.raises(dio.ParseError, match="invalid JSON") as err:
            dio.parse_manifest(manifest)
        assert err.value.path == str(manifest)

    def test_invalid_json(self, tmp_path):
        manifest = tmp_path / "m.json"
        manifest.write_text("[{]")
        with pytest.raises(dio.ParseError, match="invalid JSON"):
            dio.parse_manifest(manifest)


class TestLoadCohort:
    def test_features_match_direct_extraction(self, tmp_path):
        rng = np.random.default_rng(8)
        F = random_matrix(rng, m=30)
        dio.write_frames(tmp_path / "p.csv", F)
        dio.write_frames(tmp_path / "q.csv", random_matrix(rng, m=30))
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps([
            {"id": "p", "label": "ASD", "frames": "p.csv"},
            {"id": "q", "label": "non-ASD", "frames": "q.csv"},
        ]))
        cohort = dio.load_cohort(manifest)
        expected = tp.temporal_feature_vector(F).vector()
        np.testing.assert_array_equal(cohort.features[0], expected)
        assert cohort.ids == ("p", "q") and cohort.diagnoses == (ev.ASD, ev.NON_ASD)

    def test_cohort_sizes(self, tmp_path):
        manifest = write_cohort(tmp_path, np.random.default_rng(9), n_pos=3, n_neg=2)
        cohort = dio.load_cohort(manifest)
        assert cohort.features.shape == (5, tp.FEATURE_DIM)
        assert cohort.diagnoses.count(ev.ASD) == 3

    def test_empty_manifest_gives_empty_matrix(self, tmp_path):
        manifest = tmp_path / "m.json"
        manifest.write_text("[]")
        cohort = dio.load_cohort(manifest)
        assert cohort.ids == () and cohort.features.shape == (0, tp.FEATURE_DIM)


class TestReports:
    def test_json_round_trip_exact(self):
        rng = np.random.default_rng(10)
        payload = {
            "metrics": {"f1": float(rng.random()), "sensitivity": 1 / 3, "specificity": None},
            "values": list(rng.normal(size=5)),
            "counts": {"tp": 38, "fn": 11},
        }
        back = json.loads(dio.render_report(payload, fmt="json"))
        assert back["schema_version"] == dio.SCHEMA_VERSION
        assert back["metrics"]["f1"] == payload["metrics"]["f1"]
        assert back["metrics"]["specificity"] is None
        assert back["values"] == payload["values"]

    def test_numpy_and_dataclass_conversion(self):
        result = ev.confusion_metrics([True, False], [True, False])
        payload = {"metrics": result, "arr": np.arange(3.0)}
        back = json.loads(dio.render_report(payload))
        assert back["metrics"]["tp"] == 1
        assert back["arr"] == [0.0, 1.0, 2.0]

    def test_text_contains_metric_triple(self):
        payload = {"f1": 0.768, "sensitivity": 0.776, "specificity": 0.692}
        text = dio.render_report(payload, fmt="text")
        for key in ("f1: 0.768", "sensitivity: 0.776", "specificity: 0.692"):
            assert key in text

    def test_empty_table_valid(self):
        assert json.loads(dio.render_report({"rows": []}))["rows"] == []
        text = dio.render_report({"rows": []}, fmt="text")
        assert "rows" in text

    def test_sorted_keys(self):
        out = dio.render_report({"b": 1, "a": 2})
        assert out.index('"a"') < out.index('"b"')

    def test_unknown_format(self):
        with pytest.raises(ValueError, match="format"):
            dio.render_report({}, fmt="yaml")

    def test_non_mapping_rejected(self):
        with pytest.raises(ValueError, match="mapping"):
            dio.render_report([1, 2])
