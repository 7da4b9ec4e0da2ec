"""Frame-stream CSV and cohort-manifest I/O plus versioned report writing."""

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import evaluation as ev
from . import temporal as tp

SCHEMA_VERSION = 1

FRAME_COLUMNS = ("frame",) + tp.COLUMN_NAMES
FRAME_HEADER = ",".join(FRAME_COLUMNS)

# A frames CSV written by write_frames has a binary sidecar, <csv name>.f64:
# this magic line, the CSV's 32-byte sha256, then its matrix as little-endian
# float64 rows.
SIDECAR_MAGIC = b"affectpipe-frames-f64-v1\n"
_SIDECAR_HEAD = len(SIDECAR_MAGIC) + hashlib.sha256().digest_size
_SIDECAR_ROW = 8 * tp.FRAME_DIM

# sys.set_int_max_str_digits accepts no non-zero limit below 640, so int()
# converts every digit string up to this length under any setting.
_MAX_INDEX_DIGITS = 640


class ParseError(ValueError):
    """Malformed cohort input, located by file, row, and column."""

    def __init__(self, message: str, *, path=None, row=None, column=None):
        self.path = None if path is None else str(path)
        self.row = row
        self.column = column
        where = [p for p in (
            self.path,
            None if row is None else f"row {row}",
            None if column is None else f"column {column!r}",
        ) if p is not None]
        super().__init__((", ".join(where) + ": " if where else "") + message)


def parse_frames(path) -> np.ndarray:
    """Read one participant's frame stream into an M x 22 attribute matrix.

    Enforces the exact header, per-column ranges, and unit expression mass
    so downstream feature extraction never sees out-of-contract values.

    The file's bytes are read once.  A file ``write_frames`` wrote, still
    byte for byte as written, is answered from its sidecar (see
    ``_sidecar_matrix``) with no decimal conversion.  Any other file is
    parsed as text.  A well-formed file is accepted in one pass over the
    whole body: one ``np.loadtxt`` call, numpy's C text reader, converts
    every cell, and the matrix is checked column-wise.  That reader gives
    ``float()``'s value for every cell it accepts but accepts only a subset
    of ``float()``'s grammar (see ``_whole_body_matrix``).  Any file that
    pass cannot accept for certain goes to the row-by-row parser, which
    defines the grammar, raises the located ``ParseError``, and serves as
    the oracle the fast pass is tested against.  All three return the same
    matrix bit for bit.
    """
    path = Path(path)
    data = _frame_bytes(path)
    F = _sidecar_matrix(path, data)
    if F is not None:
        return F
    body = _frame_body(data, path)
    F = _whole_body_matrix(body)
    return F if F is not None else _parse_frame_rows(path, body)


def sidecar_path(path) -> Path:
    """Where ``write_frames`` puts the binary copy of the frames CSV at ``path``."""
    path = Path(path)
    return path.with_name(path.name + ".f64")


def _frame_bytes(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except OSError as err:
        raise ParseError(str(err), path=path) from None


def _sidecar_matrix(path: Path, data: bytes):
    """The matrix ``write_frames`` stored beside the CSV holding ``data``, or None.

    A sidecar is ``SIDECAR_MAGIC``, the sha256 of the CSV bytes it was
    written with, then the M x 22 matrix as little-endian float64, row by
    row.  It is trusted as the parse of the CSV whose digest it carries, as
    a hash-based ``.pyc`` file is trusted as the compiled source (PEP 552).
    It is used only when the magic matches, the digest is that of ``data``,
    and the rest is whole rows, as many as the CSV's last frame index says
    (M - 1, as ``write_frames`` numbers rows), so a sidecar cut short at a
    row boundary is refused too; the matrix must then pass
    ``temporal.attribute_matrix`` again, which also refuses zero rows.
    Anything else, including a missing or unreadable sidecar, gives None.
    """
    try:
        side = sidecar_path(path).read_bytes()
    except OSError:
        return None
    rows, rest = divmod(len(side) - _SIDECAR_HEAD, _SIDECAR_ROW)
    last_line = data[data.rfind(b"\n", 0, -1) + 1:]
    if not (side.startswith(SIDECAR_MAGIC) and rest == 0
            and last_line.startswith(b"%d," % (rows - 1))
            and side[len(SIDECAR_MAGIC):_SIDECAR_HEAD] == hashlib.sha256(data).digest()):
        return None
    F = np.frombuffer(side, dtype="<f8", offset=_SIDECAR_HEAD).reshape(rows, tp.FRAME_DIM)
    try:
        return tp.attribute_matrix(F.astype(float))
    except ValueError:
        return None


def _frame_body(data: bytes, path: Path) -> list:
    """The lines of a frames CSV's bytes after its checked header."""
    try:
        lines = data.decode("utf-8").splitlines()
    except UnicodeDecodeError as err:
        raise ParseError(f"not valid UTF-8: {err}", path=path) from None
    if lines and lines[0].startswith("\ufeff"):
        raise ParseError(f"header starts with U+FEFF, a byte-order mark; it must be "
                         f"exactly {FRAME_HEADER!r}", path=path, row=1)
    if not lines or lines[0] != FRAME_HEADER:
        raise ParseError(f"header must be exactly {FRAME_HEADER!r}", path=path, row=1)
    return lines[1:]


def _whole_body_matrix(body: list):
    """The attribute matrix of ``body`` if every row surely parses, else None.

    Each check accepts a subset of what the row parser accepts.  Frame
    indices must be non-empty plain ASCII digits no longer than the
    smallest digit limit ``int()`` can be given; that also refuses indices
    such as ``1e3`` the reader would take as floats, the blank lines it
    would skip, and an empty body, on which it warns.  The reader converts
    each cell with ``PyOS_string_to_double``, the converter ``float()``
    uses, after stripping the same whitespace but for U+001F, which it
    strips and ``float()`` refuses, so a body holding one is refused.  Every
    other cell it accepts has ``float()``'s value; the underscores and
    non-ASCII digits ``float()`` also takes, it refuses.  ``comments=None``
    keeps it from cutting a cell such as ``0.5#x`` at the ``#``, and the
    shape check refuses a body it read as anything but one 23-cell row per
    line.  The values must then pass ``temporal.attribute_matrix``, whose
    expression-sum margin makes ``math.fsum`` accept them too.
    """
    index = [line.partition(",")[0] for line in body]
    digits = "".join(index)
    if not (all(index) and digits.isascii() and digits.isdigit()
            and max(map(len, index)) <= _MAX_INDEX_DIGITS):
        return None
    if any("\x1f" in line for line in body):
        return None
    try:
        A = np.loadtxt(body, delimiter=",", comments=None, dtype=float, ndmin=2)
        if A.shape == (len(body), len(FRAME_COLUMNS)):
            return tp.attribute_matrix(A[:, 1:])
    except ValueError:
        pass
    return None


def _parse_frame_rows(path, body=None) -> np.ndarray:
    """Row-by-row ``parse_frames``: the grammar's definition and error locator.

    ``body`` is the file's lines after its header, as ``_frame_body`` gives
    them; when it is None the file at ``path`` is read for them.
    """
    path = Path(path)
    if body is None:
        body = _frame_body(_frame_bytes(path), path)
    rows = []
    for lineno, line in enumerate(body, start=2):
        cells = line.split(",")
        if len(cells) != len(FRAME_COLUMNS):
            raise ParseError(
                f"expected {len(FRAME_COLUMNS)} cells, got {len(cells)}",
                path=path, row=lineno)
        try:
            int(cells[0])
        except ValueError:
            raise ParseError(f"frame index {cells[0]!r} is not an integer",
                             path=path, row=lineno, column="frame") from None
        values = []
        for cell, name, (lo, hi) in zip(cells[1:], FRAME_COLUMNS[1:], tp.COLUMN_BOUNDS):
            try:
                value = float(cell)
            except ValueError:
                raise ParseError(f"{cell!r} is not a number",
                                 path=path, row=lineno, column=name) from None
            if not math.isfinite(value):
                raise ParseError(f"{value} is not finite",
                                 path=path, row=lineno, column=name)
            if not lo <= value <= hi:
                raise ParseError(f"{name} must lie in [{lo}, {hi}], got {value}",
                                 path=path, row=lineno, column=name)
            values.append(value)
        expr_sum = math.fsum(values[tp.EXPR_COLS])
        if abs(expr_sum - 1.0) > tp.EXPR_SUM_TOL:
            raise ParseError(
                f"expression probabilities must sum to 1, got {expr_sum}",
                path=path, row=lineno, column="expr_01..expr_08")
        rows.append(values)
    if not rows:
        raise ParseError("no frame rows", path=path)
    return np.array(rows, dtype=float)


def write_frames(path, matrix) -> None:
    """Write an M x 22 attribute matrix as FrameCsv with round-trip-exact floats.

    The matrix must pass ``temporal.attribute_matrix``, so ``parse_frames``
    reads every file written here back bit for bit.  The CSV is the record;
    beside it goes its sidecar, ``<csv name>.f64`` (see ``_sidecar_matrix``),
    which lets ``parse_frames`` skip the text while the CSV keeps the bytes
    written here.  Deleting a sidecar changes no result.
    """
    F = tp.attribute_matrix(matrix)
    lines = [FRAME_HEADER]
    for i, row in enumerate(F):
        lines.append(f"{i}," + ",".join(map(repr, row.tolist())))
    data = ("\n".join(lines) + "\n").encode("utf-8")
    path = Path(path)
    path.write_bytes(data)
    sidecar_path(path).write_bytes(
        SIDECAR_MAGIC + hashlib.sha256(data).digest() + F.astype("<f8", copy=False).tobytes())


def write_cohort(out_dir, participants) -> Path:
    """Write each (id, diagnosis, stream) as ``<id>.csv`` (and its sidecar) as it
    arrives, then a manifest listing them in that order; returns the manifest path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for pid, label, stream in participants:
        name = f"{pid}.csv"
        write_frames(out_dir / name, stream)
        entries.append({"id": pid, "label": label, "frames": name})
    manifest = out_dir / "manifest.json"
    manifest.write_text(json.dumps(entries, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
    return manifest


@dataclass(frozen=True)
class ManifestEntry:
    participant_id: str
    label: str
    frames: Path


def parse_manifest(path) -> tuple:
    """Read a cohort manifest; entries come back sorted by participant id.

    Frame paths are resolved relative to the manifest's directory.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as err:
        raise ParseError(str(err), path=path) from None
    except UnicodeDecodeError as err:
        raise ParseError(f"not valid UTF-8: {err}", path=path) from None
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as err:
        # ValueError also covers integers past int()'s digit limit.
        raise ParseError(f"invalid JSON: {err}", path=path) from None
    if not isinstance(raw, list):
        raise ParseError("manifest must be a JSON array", path=path)
    entries = []
    seen = set()
    for i, item in enumerate(raw):
        if not isinstance(item, dict):
            raise ParseError(f"entry {i} is not an object", path=path, row=i)
        for key in ("id", "label", "frames"):
            if key not in item:
                raise ParseError(f"entry {i} is missing {key!r}", path=path, row=i)
        pid = str(item["id"])
        label = item["label"]
        if label not in ev.DIAGNOSES:
            raise ParseError(f"unknown label {label!r} for id {pid!r}; "
                             f"expected one of {ev.DIAGNOSES}", path=path, row=i)
        if pid in seen:
            raise ParseError(f"duplicate participant id {pid!r}", path=path, row=i)
        seen.add(pid)
        if not isinstance(item["frames"], str):
            raise ParseError(f"frames for id {pid!r} must be a path string, "
                             f"got {item['frames']!r}", path=path, row=i)
        frames = path.parent / item["frames"]
        if not frames.is_file():
            raise ParseError(f"frames file {str(frames)!r} for id {pid!r} not found",
                             path=path, row=i)
        entries.append(ManifestEntry(pid, label, frames))
    return tuple(sorted(entries, key=lambda e: e.participant_id))


def load_cohort(manifest_path, tau: float = tp.DEFAULT_TAU) -> ev.Cohort:
    """Parse a manifest and all referenced frame streams into a feature cohort."""
    entries = parse_manifest(manifest_path)
    features = np.empty((len(entries), tp.FEATURE_DIM))
    for row, entry in zip(features, entries):
        row[:] = tp.temporal_feature_vector(parse_frames(entry.frames), tau=tau).vector()
    return ev.Cohort(tuple(e.participant_id for e in entries),
                     tuple(e.label for e in entries), features)


def to_jsonable(obj):
    """Recursively convert dataclasses, numpy scalars/arrays, and paths to JSON
    types.  A non-finite float, which JSON cannot hold (a degenerate t-test's
    t of +-inf), becomes None, written as null."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (float, np.floating)):
        return float(obj) if math.isfinite(obj) else None
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, Path):
        return str(obj)
    return obj


def render_report(result: dict, fmt: str = "json") -> str:
    """Serialize a report mapping with a schema_version stamp and stable key order."""
    if not isinstance(result, dict):
        raise ValueError("report result must be a mapping")
    body = to_jsonable(result)
    body["schema_version"] = SCHEMA_VERSION
    if fmt == "json":
        return json.dumps(body, sort_keys=True, indent=2, allow_nan=False) + "\n"
    if fmt == "text":
        return "\n".join(_text_lines(body)) + "\n"
    raise ValueError(f"unknown report format {fmt!r}; expected 'json' or 'text'")


def _text_lines(value, indent: int = 0) -> list:
    pad = "  " * indent
    lines = []
    if isinstance(value, dict):
        for key in sorted(value):
            inner = value[key]
            if isinstance(inner, (dict, list)) and inner:
                lines.append(f"{pad}{key}:")
                lines.extend(_text_lines(inner, indent + 1))
            else:
                lines.append(f"{pad}{key}: {_scalar_text(inner)}")
    elif isinstance(value, list):
        for inner in value:
            if isinstance(inner, (dict, list)) and inner:
                lines.append(f"{pad}-")
                lines.extend(_text_lines(inner, indent + 1))
            else:
                lines.append(f"{pad}- {_scalar_text(inner)}")
    else:
        lines.append(f"{pad}{_scalar_text(value)}")
    return lines


def _scalar_text(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, (dict, list)):
        return "(empty)"
    return str(value)
