"""Frame CSV, manifest, and report round trips plus error locations."""

import hashlib
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


def write_text_only(path, F):
    """``write_frames`` without its sidecar, so ``parse_frames`` reads the text."""
    dio.write_frames(path, F)
    dio.sidecar_path(path).unlink()


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
        write_text_only(tmp_path / f"{pid}.csv", random_matrix(rng, m))
        entries.append({"id": pid, "label": label, "frames": f"{pid}.csv"})
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(entries))
    return manifest


class TestFrameCsv:
    def test_round_trip_identity(self, tmp_path):
        rng = np.random.default_rng(0)
        F = random_matrix(rng, m=20)
        path = tmp_path / "frames.csv"
        write_text_only(path, F)
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
        write_text_only(path, F)
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
        assert not list(tmp_path.iterdir())

    def test_write_rejects_zero_rows(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            dio.write_frames(tmp_path / "w.csv", np.empty((0, 22)))
        assert not list(tmp_path.iterdir())

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
            assert not dio.sidecar_path(path).exists()
            return
        unchecked = path.with_name("unchecked.csv")
        write_unchecked(unchecked, F)
        assert path.read_bytes() == unchecked.read_bytes()
        assert dio.sidecar_path(path).read_bytes() == sidecar_bytes(path, F)
        dio.sidecar_path(path).unlink()

        def unreachable(*_):
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
        assert not isinstance(fast, np.ndarray), rows
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


# numpy's text reader warns (UserWarning) on input it finds empty; a warning
# raised as an error is no ValueError, so it would escape the fast pass's
# fallback.  Other categories stay as they are: hypothesis's failure report
# itself raises a DeprecationWarning.
@pytest.mark.filterwarnings("error::UserWarning")
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
        write_text_only(path, F)

        def unreachable(*_):
            raise AssertionError("row loop called on a valid file")

        monkeypatch.setattr(dio, "_parse_frame_rows", unreachable)
        np.testing.assert_array_equal(dio.parse_frames(path), F)

    @pytest.mark.parametrize("index, accepted", [
        (" 1", True), ("+1", True), ("1_0", True), ("\u0661", True),
        ("7" * 700, True), ("7" * 5000, False), ("-", False), ("", False),
        ("1e3", False), ("1.0", False),
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
        ("-5e-324", False), ("0.5#1", False), ('"0.5"', False), ("+.5", True),
        ("5E-1", True), ("0.5\x0c", False), ("0.5 ", True), ("\xa00.5\xa0", True),
        ("0.5\x1f", False), ("\x1f0.5", False),
    ])
    def test_cells_follow_float(self, tmp_path, cell, accepted):
        path = tmp_path / "frames.csv"
        F = random_matrix(np.random.default_rng(13), m=2)
        F[1, 0] = 0.5
        dio.write_frames(path, F)
        path.write_text(path.read_text().replace(",0.5,", f",{cell},", 1))
        assert_same_outcome(path)
        assert isinstance(parse_outcome(dio.parse_frames, path), np.ndarray) == accepted

    @pytest.mark.parametrize("edit", [
        lambda lines: lines[:2] + [""] + lines[2:],
        lambda lines: lines[:2] + [" \t"] + lines[2:],
        lambda lines: lines + ["", ""],
        lambda lines: lines[:2] + [lines[2] + ","] + lines[3:],
        lambda lines: lines[:2] + [lines[2] + "#1"] + lines[3:],
    ], ids=["blank-line", "whitespace-line", "trailing-blank-lines", "trailing-comma",
            "comment-sign"])
    def test_lines_the_reader_would_skip_or_split(self, tmp_path, edit):
        path = tmp_path / "frames.csv"
        dio.write_frames(path, random_matrix(np.random.default_rng(15), m=3))
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        assert_same_outcome(path)
        with pytest.raises(dio.ParseError):
            dio.parse_frames(path)

    def test_crlf_file_takes_the_fast_pass(self, tmp_path, monkeypatch):
        path = tmp_path / "frames.csv"
        F = random_matrix(np.random.default_rng(16), m=4)
        dio.write_frames(path, F)
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        assert_same_outcome(path)

        def unreachable(*_):
            raise AssertionError("row loop called on a CRLF file")

        monkeypatch.setattr(dio, "_parse_frame_rows", unreachable)
        assert dio.parse_frames(path).tobytes() == F.tobytes()

    def test_byte_order_mark_is_named(self, tmp_path):
        path = tmp_path / "frames.csv"
        dio.write_frames(path, random_matrix(np.random.default_rng(17), m=2))
        path.write_text("\ufeff" + path.read_text(), encoding="utf-8")
        assert_same_outcome(path)
        with pytest.raises(dio.ParseError, match="U\\+FEFF") as err:
            dio.parse_frames(path)
        assert err.value.row == 1

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


def sidecar_bytes(csv, F):
    """A sidecar for the CSV at ``csv`` holding ``F``, laid out as ``write_frames``
    lays it out."""
    digest = hashlib.sha256(csv.read_bytes()).digest()
    return dio.SIDECAR_MAGIC + digest + np.asarray(F, dtype="<f8").tobytes()


def set_cell(data, line, column, value):
    """CSV bytes with cell ``column`` of line ``line`` (0 is the header) replaced."""
    lines = data.split(b"\n")
    cells = lines[line].split(b",")
    cells[column] = value
    lines[line] = b",".join(cells)
    return b"\n".join(lines)


class TestSidecar:
    def test_hit_skips_the_text(self, tmp_path, monkeypatch):
        path = tmp_path / "frames.csv"
        F = random_matrix(np.random.default_rng(20), m=40)
        dio.write_frames(path, F)
        assert dio.sidecar_path(path) == tmp_path / "frames.csv.f64"
        assert dio.sidecar_path(path).read_bytes() == sidecar_bytes(path, F)
        rows = dio._parse_frame_rows(path)

        def unreachable(*_, **__):
            raise AssertionError("text parsed on a sidecar hit")

        monkeypatch.setattr(np, "loadtxt", unreachable)
        monkeypatch.setattr(dio, "_parse_frame_rows", unreachable)
        back = dio.parse_frames(path)
        assert back.dtype == np.float64 and back.flags.c_contiguous and back.flags.writeable
        assert back.tobytes() == rows.tobytes() == F.tobytes()
        back[:] = 0.0
        assert dio.parse_frames(path).tobytes() == F.tobytes()

    def test_trusted_while_the_digest_holds(self, tmp_path):
        # The sidecar stands for the CSV whose digest it carries, whatever
        # its floats: a planted one with that digest is read, not checked
        # against the text.
        path = tmp_path / "frames.csv"
        F = random_matrix(np.random.default_rng(21), m=3)
        dio.write_frames(path, F)
        planted = F.copy()
        planted[0, 0] = 0.5 if F[0, 0] != 0.5 else 0.25
        dio.sidecar_path(path).write_bytes(sidecar_bytes(path, planted))
        assert dio.parse_frames(path).tobytes() == planted.tobytes()

    @pytest.mark.parametrize("edit", [
        lambda data: set_cell(data, 2, 1, b"0.25"),
        lambda data: data.replace(b"\n", b"\r\n"),
        lambda data: data + b"\n",
        lambda data: data[:-1],
    ], ids=["one-cell", "crlf", "trailing-blank-line", "no-final-newline"])
    def test_edited_csv_reads_as_with_no_sidecar(self, tmp_path, edit):
        path = tmp_path / "frames.csv"
        F = random_matrix(np.random.default_rng(22), m=4)
        dio.write_frames(path, F)
        path.write_bytes(edit(path.read_bytes()))
        with_sidecar = parse_outcome(dio.parse_frames, path)
        dio.sidecar_path(path).unlink()
        assert_same_outcome(path)
        without = parse_outcome(dio.parse_frames, path)
        if isinstance(without, np.ndarray):
            assert with_sidecar.tobytes() == without.tobytes()
        else:
            assert with_sidecar == without

    def test_out_of_range_edit_raises_the_located_error(self, tmp_path):
        path = tmp_path / "frames.csv"
        dio.write_frames(path, random_matrix(np.random.default_rng(24), m=3))
        path.write_bytes(set_cell(path.read_bytes(), 2, 21, b"1.5"))
        with_sidecar = parse_outcome(dio.parse_frames, path)
        dio.sidecar_path(path).unlink()
        assert with_sidecar == parse_outcome(dio.parse_frames, path)
        assert with_sidecar == parse_outcome(dio._parse_frame_rows, path)
        assert with_sidecar[1:] == (str(path), 3, "arousal")

    @pytest.mark.parametrize("spoil", [
        lambda side, F: b"affectpipe-frames-f64-v0\n" + side[len(dio.SIDECAR_MAGIC):],
        lambda side, F: side[:30] + bytes([side[30] ^ 1]) + side[31:],
        lambda side, F: side[:-F[0].nbytes],
        lambda side, F: side + side[-F[0].nbytes:],
        lambda side, F: side[:-1],
        lambda side, F: side + b"\0",
        lambda side, F: side[:len(side) - F.nbytes],
        lambda side, F: side[:10],
        lambda side, F: b"",
        lambda side, F: side[:-8] + np.array([1.5], dtype="<f8").tobytes(),
        lambda side, F: side[:-8] + np.array([np.nan], dtype="<f8").tobytes(),
        lambda side, F: side[:-F.nbytes] + np.asarray(F, dtype=">f8").tobytes(),
    ], ids=["magic", "digest", "row-short", "row-long", "byte-short", "byte-long",
            "zero-rows", "inside-header", "empty", "out-of-range", "nan", "big-endian"])
    def test_spoiled_sidecar_falls_back(self, tmp_path, spoil):
        path = tmp_path / "frames.csv"
        F = random_matrix(np.random.default_rng(25), m=5)
        dio.write_frames(path, F)
        # Every spoiled sidecar also carries a planted cell, so a sidecar read
        # where the text should be would show.
        planted = F.copy()
        planted[0, 0] = 0.5 if F[0, 0] != 0.5 else 0.25
        side = dio.sidecar_path(path)
        side.write_bytes(spoil(sidecar_bytes(path, planted), planted))
        assert dio.parse_frames(path).tobytes() == F.tobytes()

    def test_sidecar_path_that_is_a_directory(self, tmp_path):
        path = tmp_path / "frames.csv"
        F = random_matrix(np.random.default_rng(26), m=2)
        write_text_only(path, F)
        dio.sidecar_path(path).mkdir()
        assert dio.parse_frames(path).tobytes() == F.tobytes()

    def test_rewrite_replaces_the_sidecar(self, tmp_path):
        path = tmp_path / "frames.csv"
        rng = np.random.default_rng(28)
        dio.write_frames(path, random_matrix(rng, m=6))
        F = random_matrix(rng, m=3)
        dio.write_frames(path, F)
        assert dio.sidecar_path(path).read_bytes() == sidecar_bytes(path, F)
        assert dio.parse_frames(path).tobytes() == F.tobytes()

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
