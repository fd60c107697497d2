"""Labelling matrices, gold labels and the CSV and JSON input rules.

A labelling matrix holds one row per data point and one column per
labelling function (LF).  Entries are integers: 1 is a positive vote,
0 a negative vote and -1 an abstention.  Matrices are either ingested
from CSV (the usual route for externally produced LF outputs) or built
by applying simple keyword/regex labelling functions to text records
(``lf_engine``).
"""

from __future__ import annotations

import csv
import io
import json
import numbers
import re
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import ValidationError

ABSTAIN = -1
VALID_ENTRIES = (-1, 0, 1)
_INTEGER = re.compile(r"[+-]?[0-9]+")  # a CSV cell after the strip; int() alone also takes "١" or "0_1"


def _frozen_array(values, what: str = "entries") -> np.ndarray:
    """``values`` as a new read-only int64 array.  Ragged lists, non-numeric values
    and fractional or non-finite floats are a ValidationError, so none is truncated."""
    try:
        raw = np.asarray(values)
    except ValueError:  # a ragged list
        raise ValidationError(f"{what} must be a rectangular array") from None
    if raw.dtype.kind not in "biuf" or (
        raw.dtype.kind == "f" and not (np.isfinite(raw).all() and (raw == np.rint(raw)).all())
    ):
        raise ValidationError(f"{what} must be integers")
    arr = raw.astype(np.int64)  # a new array, never a view of the caller's
    arr.flags.writeable = False
    return arr


def _within(values: np.ndarray, allowed) -> bool:
    """Whether every entry of the non-empty integer array ``values`` is in ``allowed``,
    a run of consecutive integers.  The min/max bound is exact for integers and
    cheaper than ``np.isin``, which is left to find the first bad entry."""
    return allowed[0] <= values.min() and values.max() <= allowed[-1]


def _float_array(values, what: str) -> np.ndarray:
    """``values`` as a float array (maybe a view); a ragged list or a non-number ("1" too) is a ValidationError."""
    try:
        raw = np.asarray(values)
        if raw.dtype.kind not in "biuf":  # else float() would parse a string such as "1.0"
            raise TypeError
        return raw.astype(float, copy=False)
    except (TypeError, ValueError):
        raise ValidationError(f"{what} must be a rectangular array of numbers") from None


class _Frozen:
    """Base of the records that hold arrays: ``__init__`` fills ``__dict__``, and no
    field can be set or deleted after.  A frozen dataclass compiles its generated
    methods at every import, and its ``__eq__`` and ``__hash__`` raise on arrays;
    these records compare and hash by identity."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(f'{k}={v!r}' for k, v in vars(self).items())})"


class LabelMatrix(_Frozen):
    """n x m matrix of labelling-function votes with entries in {-1, 0, 1}."""

    def __init__(self, values: np.ndarray, lf_names: tuple[str, ...]):
        values = _frozen_array(values)
        self.__dict__.update(values=values, lf_names=tuple(lf_names))
        if values.ndim != 2:
            raise ValidationError(f"label matrix must be 2-dimensional, got shape {values.shape}")
        n, m = values.shape
        if n < 1 or m < 1:
            raise ValidationError(f"label matrix must be at least 1x1, got {n}x{m}")
        if len(self.lf_names) != m:
            raise ValidationError(
                f"{m} columns but {len(self.lf_names)} LF names"
            )
        for name in self.lf_names:  # the CSV readers strip names, and the writer leaves a lone "\r" unquoted
            if not isinstance(name, str) or name != name.strip() or "\r" in name:
                raise ValidationError(f"LF name {name!r} must be a string without surrounding spaces or a carriage return")
        if len(set(self.lf_names)) != m:
            dupes = sorted({x for x in self.lf_names if self.lf_names.count(x) > 1})
            raise ValidationError(f"duplicate LF names: {dupes}")
        if not _within(values, VALID_ENTRIES):
            i, j = np.argwhere(~np.isin(values, VALID_ENTRIES))[0]
            raise ValidationError(
                f"entry {values[i, j]} at row {i}, column '{self.lf_names[j]}' "
                f"is not in {{-1, 0, 1}}"
            )

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def m(self) -> int:
        return self.values.shape[1]

    def __eq__(self, other):
        if not isinstance(other, LabelMatrix):
            return NotImplemented
        return self.lf_names == other.lf_names and np.array_equal(self.values, other.values)

    def __hash__(self):
        return hash((self.lf_names, self.values.tobytes()))


class GoldLabels(_Frozen):
    """Ground-truth binary labels, one per row, used only for evaluation."""

    def __init__(self, values: np.ndarray):
        values = _frozen_array(values)
        object.__setattr__(self, "values", values)
        if values.ndim != 1 or values.shape[0] < 1:
            raise ValidationError("gold labels must be a non-empty 1-d vector")
        if not _within(values, (0, 1)):
            i = int(np.argwhere(~np.isin(values, (0, 1)))[0][0])
            raise ValidationError(f"gold label {values[i]} at row {i} is not in {{0, 1}}")

    @property
    def n(self) -> int:
        return self.values.shape[0]


class MatrixStats(_Frozen):
    """Per-LF vote counts and row-level abstention summary; ``counts`` is (m, 3):
    abstain / negative / positive."""

    def __init__(self, n_rows: int, n_lfs: int, lf_names: tuple[str, ...], counts: np.ndarray,
                 n_all_abstain_rows: int = 0, all_abstain_fraction: float = 0.0):
        self.__dict__.update(n_rows=n_rows, n_lfs=n_lfs, lf_names=lf_names, counts=counts,
                             n_all_abstain_rows=n_all_abstain_rows, all_abstain_fraction=all_abstain_fraction)


def _read_input(path, what: str) -> str:
    """The UTF-8 text of the input file of a ``what`` (e.g. "model"), else a ValidationError."""
    path = Path(path)
    if not path.is_file():
        raise ValidationError(f"{what} file not found: {path}")
    try:
        return path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8: {exc.reason} at byte {exc.start}") from None


def _text_mode(text: str) -> str:
    """``text`` with each '\\r\\n' and '\\r' turned into '\\n', as a text-mode read turns them."""
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _read_json(path, what: str, kind: type = dict, kind_name: str = "a JSON object"):
    """Parse the JSON file of a ``what`` (e.g. "model"), whose top level must be a ``kind``.

    A missing or non-UTF-8 file, invalid JSON or a wrong top-level type is a ValidationError.
    """
    path = Path(path)
    try:
        payload = json.loads(_text_mode(_read_input(path, what)))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(payload, kind):
        raise ValidationError(f"{path}: expected {kind_name}")
    return payload


@contextmanager
def _fields(what: str):
    """Report a missing or malformed field of a parsed ``what`` as a ValidationError.

    Field values come from outside the program, so a conversion such as
    ``float(payload["x"])`` can raise KeyError, TypeError or ValueError.
    """
    try:
        yield
    except KeyError as exc:
        raise ValidationError(f"{what} missing field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"malformed {what}: {exc}") from exc


def _check_count(name: str, value, minimum: int) -> None:
    """A ValidationError unless ``value`` is a Python or numpy integer, not a bool, >= ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {value}")


def _check_lf_names(lf_names, matrix: LabelMatrix, split: str, owner: str = "the training matrix") -> None:
    """A ValidationError, naming both lists, unless the ``split`` matrix has the LFs ``lf_names`` of ``owner``, in order."""
    if matrix.lf_names != tuple(lf_names):
        raise ValidationError(f"the {split} matrix has LFs {list(matrix.lf_names)} but {owner} has {list(lf_names)}")


def _check_split(train: LabelMatrix, matrix: LabelMatrix, gold: GoldLabels, split: str) -> None:
    """A ValidationError unless the ``split`` matrix has the training LFs, in order, and ``gold`` a label per row."""
    _check_lf_names(train.lf_names, matrix, split)
    if gold.n != matrix.n:
        raise ValidationError(f"{split} gold labels have {gold.n} rows but the {split} matrix has {matrix.n}")


def _json_int(payload: dict, key: str) -> int:
    """``payload[key]`` when it is a JSON integer; a float or a bool, even 1.0 or true,
    is a ValidationError naming the field, so no accepted value is truncated."""
    value = payload[key]
    if type(value) is not int:
        raise ValidationError(f"field {key!r} must be an integer, got {value!r}")
    return value


def _json_number(payload: dict, key: str, ndim: int = 0):
    """``payload[key]`` as a float when ``ndim`` is 0, else as a float array of ``ndim``
    dimensions.  A string, a bool or a null at any leaf, another depth, a ragged list or
    an integer beyond the float range is a ValidationError naming the field."""
    value = payload[key]
    leaves = [value]
    while leaves:
        leaf = leaves.pop()
        if isinstance(leaf, list):
            leaves.extend(reversed(leaf))  # so the first bad leaf in reading order is named
        elif type(leaf) not in (int, float):
            raise ValidationError(f"field {key!r} must hold JSON numbers only, got {leaf!r}")
    want = "a number" if ndim == 0 else f"a rectangular {ndim}-d array of numbers"
    try:
        array = np.array(value, dtype=float)
    except (ValueError, OverflowError) as exc:  # a ragged list, or an integer beyond the float range
        raise ValidationError(f"field {key!r} must be {want}: {exc}") from None
    if array.ndim != ndim:
        got = "a number" if array.ndim == 0 else f"a {array.ndim}-d array"
        raise ValidationError(f"field {key!r} must be {want}, got {got}")
    return float(array) if ndim == 0 else array


def _dump_json(payload: dict, path=None) -> str:
    """JSON text (2-space indent, trailing newline); also written to ``path`` when given."""
    text = json.dumps(payload, indent=2) + "\n"
    if path is not None:
        Path(path).write_text(text, encoding="utf-8")
    return text


def _read_csv(path, text: str) -> tuple[list[str], list[list[str]]]:
    """The stripped header and the data rows of ``text``, the content of the CSV file ``path``.

    Empty text, a row with another field count than the header (a blank line
    has 0 fields), no data rows or a field the csv module rejects is a ValidationError.
    """
    path = Path(path)
    try:
        rows = list(csv.reader(io.StringIO(text, newline="")))
    except csv.Error as exc:
        raise ValidationError(f"{path}: {exc}") from None
    if not rows:
        raise ValidationError(f"{path}: empty file")
    header = [h.strip() for h in rows[0]]
    for line, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise ValidationError(
                f"{path}: line {line} has {len(row)} fields, expected {len(header)}"
            )
    if len(rows) == 1:
        raise ValidationError(f"{path}: no data rows")
    return header, rows[1:]


def _int_cells(path, rows, allowed, noun: str, where=lambda i, j: f"line {i + 2}") -> np.ndarray:
    """The cells of ``rows`` as an int64 array, each ``_INTEGER`` after the strip and in ``allowed``.

    Else a ValidationError names the first bad cell in row-major order as the
    ``noun`` at ``where(i, j)`` (data row i, column j; by default its line).
    Each distinct spelling is checked once, at its first occurrence.
    """
    allowed_text = "{" + ", ".join(map(str, allowed)) + "}"
    values, known = [], {}  # each spelling accepted so far, and its value
    for i, row in enumerate(rows):
        for j, cell in enumerate(row):
            if cell not in known:
                text = cell.strip()
                try:
                    if not _INTEGER.fullmatch(text):
                        raise ValueError
                    value = int(text)  # raises too beyond int's digit limit
                except ValueError:
                    raise ValidationError(f"{Path(path)}: non-integer {noun} {cell!r} at {where(i, j)}") from None
                if value not in allowed:
                    raise ValidationError(f"{Path(path)}: {noun} {value} at {where(i, j)} is not in {allowed_text}")
                known[cell] = value
            values.append(known[cell])
    return np.array(values, np.int64).reshape(len(rows), len(rows[0]))


def _canonical_cells(text: str, allowed) -> tuple[list[str], np.ndarray] | None:
    """The stripped header and int64 cells of ``text``, the content of a CSV
    file, when it has the form the writers produce; else None.

    That form is a header line with no quote or carriage return, no longer
    than the csv module's field size limit, then lines of as many cells as
    header fields, each cell spelled exactly as one of ``allowed`` (-1, 0, 1
    or 0, 1), separated by ',' and each line ended by '\\n'.  It decodes
    with numpy alone; every other content, including each malformed one, is
    left to ``_read_csv`` and ``_int_cells``.
    """
    end = text.find("\n")
    head = text[:end]
    if not 0 < end <= csv.field_size_limit() or '"' in head or "\r" in head:
        return None
    if text.find("/", end) >= 0:  # a "/" in the body would read as a "-1"
        return None
    header = [h.strip() for h in head.split(",")]
    # One byte per character (a non-ASCII one as "?") and each "-1" as "/", the byte before
    # "0": a canonical body alternates one cell byte and one separator.
    body = text[end + 1 :].encode("ascii", "replace").replace(b"-1", b"/")
    chars = np.frombuffer(body, np.uint8)
    m = len(header)
    if chars.size == 0 or chars.size % (2 * m):
        return None
    cells, seps = chars[::2].reshape(-1, m), chars[1::2].reshape(-1, m)
    if (cells < ord("0") + min(allowed)).any() or (cells > ord("1")).any():
        return None
    if (seps[:, :-1] != ord(",")).any() or (seps[:, -1] != ord("\n")).any():
        return None
    return header, np.subtract(cells, ord("0"), dtype=np.int64)


def _write_csv(rows, path=None) -> str:
    """CSV text of ``rows`` ('\\n' line ends; a field is quoted only when it
    holds a comma, quote or line break); also written to ``path`` when given."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    text = buf.getvalue()
    if path is not None:
        Path(path).write_text(text, encoding="utf-8")
    return text


_VOTE_BYTES = np.frombuffer(b"-01", np.uint8)  # first byte of the cells -1, 0, 1
_WRITE_BLOCK = 1 << 14  # votes encoded at a time, which bounds the writer's buffers


def _write_votes(names, values: np.ndarray, path) -> None:
    """Write the CSV form ``_write_csv([names, *values.tolist()], path)`` gives,
    for an (n, m) array of cells in {-1, 0, 1}, with numpy alone.

    Each cell becomes three bytes: its first character, then '1' for -1 or a
    NUL pad byte, then ',' or, in the last column, '\\n'; the pads are dropped.
    The rows are encoded ``_WRITE_BLOCK // m`` at a time (at least one), so the
    buffers do not grow with n.
    """
    rows = max(1, _WRITE_BLOCK // values.shape[1])
    with open(path, "wb") as fh:
        fh.write(_write_csv([names]).encode("utf-8"))
        for start in range(0, len(values), rows):
            block = values[start : start + rows]
            cells = np.empty((*block.shape, 3), np.uint8)
            cells[..., 0] = _VOTE_BYTES[block + 1]
            cells[..., 1] = np.where(block < 0, ord("1"), 0)
            cells[..., 2] = ord(",")
            cells[:, -1, 2] = ord("\n")
            flat = cells.reshape(-1)
            fh.write(flat[flat != 0])


def load_label_matrix(path) -> LabelMatrix:
    """Read a labelling matrix from CSV: header = LF names, body = integers.

    Raises ValidationError naming the offending cell for out-of-range or
    non-integer entries, and for ragged rows or duplicate LF names.
    """
    text = _read_input(path, "label matrix")
    canonical = _canonical_cells(text, VALID_ENTRIES)
    names, cells = canonical or _read_csv(path, text)
    del text  # freed before LabelMatrix copies the cells, which sets the peak memory
    values = cells if canonical else _int_cells(
        path, cells, VALID_ENTRIES, "entry", lambda i, j: f"row {i + 1}, column '{names[j]}'"
    )
    return LabelMatrix(values=values, lf_names=tuple(names))


def save_label_matrix(matrix: LabelMatrix, path) -> None:
    """Write the canonical CSV form (UTF-8, '\\n' line endings)."""
    _write_votes(matrix.lf_names, matrix.values, path)


def load_gold_labels(path) -> GoldLabels:
    """Read gold labels from a single-column CSV with header 'y'."""
    text = _read_input(path, "gold labels")
    canonical = _canonical_cells(text, (0, 1))
    header, cells = canonical or _read_csv(path, text)
    if header != ["y"]:
        raise ValidationError(f"{Path(path)}: expected single header column 'y', got {header}")
    values = cells if canonical else _int_cells(path, cells, (0, 1), "label")
    return GoldLabels(values=values[:, 0])


def save_gold_labels(gold: GoldLabels, path) -> None:
    _write_votes(["y"], gold.values[:, None], path)


def matrix_stats(matrix: LabelMatrix) -> MatrixStats:
    """Count votes per LF and fully-abstaining rows."""
    values = matrix.values
    counts = np.stack(
        [(values == v).sum(axis=0) for v in VALID_ENTRIES], axis=1
    )  # columns: abstain, negative, positive
    all_abstain = int((values == ABSTAIN).all(axis=1).sum())
    return MatrixStats(
        n_rows=matrix.n,
        n_lfs=matrix.m,
        lf_names=matrix.lf_names,
        counts=counts,
        n_all_abstain_rows=all_abstain,
        all_abstain_fraction=all_abstain / matrix.n,
    )


def covariance_matrix(matrix: LabelMatrix) -> np.ndarray:
    """Sample covariance of the LF columns (entries taken as reals, n-1 normalization)."""
    if matrix.n < 2:
        raise ValidationError(f"covariance requires n >= 2 rows, got {matrix.n}")
    cov = np.cov(matrix.values.astype(float), rowvar=False, ddof=1)
    return np.atleast_2d(cov)
