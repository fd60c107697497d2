"""Round-trip properties for every file format the package reads and writes."""

import csv
import itertools
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from falabel import (
    CIParams,
    FAParams,
    GoldLabels,
    LabelMatrix,
    LabelModel,
    Predictions,
    SyntheticSpec,
    ValidationError,
    load_ci_params,
    load_gold_labels,
    load_label_matrix,
    load_label_model,
    load_spec,
    save_ci_params,
    save_gold_labels,
    save_label_matrix,
    save_label_model,
    save_predictions,
    save_spec,
)
from falabel import labelling
from falabel.cli import main
from falabel.label_model import _load_prediction_labels
from falabel.labelling import (
    VALID_ENTRIES,
    _WRITE_BLOCK,
    _canonical_cells,
    _int_cells,
    _read_csv,
    _read_input,
    _write_csv,
    _write_votes,
)

lf_names = st.lists(
    st.text(
        st.characters(codec="utf-8", categories=("L", "N", "P", "S", "Zs")),
        min_size=1,
        max_size=8,
    ).filter(lambda name: name == name.strip()),
    min_size=1,
    max_size=5,
    unique=True,
)
finite = st.floats(-1e6, 1e6, allow_nan=False)
positive = st.floats(1e-6, 1e6)


def roundtrip(obj, save, load):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "file"
        save(obj, path)
        return load(path)


@st.composite
def label_matrices(draw):
    names = draw(lf_names)
    n = draw(st.integers(1, 6))
    values = draw(arrays(np.int64, (n, len(names)), elements=st.sampled_from([-1, 0, 1])))
    return LabelMatrix(values=values, lf_names=tuple(names))


@st.composite
def label_models(draw):
    m = draw(st.integers(1, 4))
    params = FAParams(
        w=draw(arrays(float, m, elements=finite)),
        c=draw(arrays(float, m, elements=finite)),
        psi=draw(arrays(float, m, elements=positive)),
    )
    return LabelModel(
        params=params,
        threshold_kind=draw(st.sampled_from(["median", "mean", "cdf_youden"])),
        threshold_value=draw(finite),
    )


@st.composite
def ci_params(draw):
    m = draw(st.integers(1, 4))
    raw = draw(arrays(float, (m, 2, 3), elements=st.floats(0.01, 1.0)))
    return CIParams(
        class_prior=draw(st.floats(1e-3, 1 - 1e-3)),
        emissions=raw / raw.sum(axis=2, keepdims=True),
    )


@st.composite
def specs(draw):
    m = draw(st.integers(1, 5))
    return SyntheticSpec(
        n=draw(st.integers(1, 10**6)),
        m=m,
        class_prior=draw(st.floats(1e-3, 1 - 1e-3)),
        accuracies=tuple(draw(st.lists(st.floats(0.51, 1.0), min_size=m, max_size=m))),
        propensities=tuple(draw(st.lists(st.floats(1e-3, 1.0), min_size=m, max_size=m))),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


@given(label_matrices())
def test_label_matrix_csv_roundtrip(matrix):
    assert roundtrip(matrix, save_label_matrix, load_label_matrix) == matrix


@given(arrays(np.int64, st.integers(1, 20), elements=st.sampled_from([0, 1])))
def test_gold_csv_roundtrip(values):
    loaded = roundtrip(GoldLabels(values=values), save_gold_labels, load_gold_labels)
    np.testing.assert_array_equal(loaded.values, values)


def general_label_matrix(path) -> LabelMatrix:
    """The general CSV reader alone, without the canonical decode."""
    names, rows = _read_csv(path, _read_input(path, "label matrix"))
    values = _int_cells(
        path, rows, VALID_ENTRIES, "entry", lambda i, j: f"row {i + 1}, column '{names[j]}'"
    )
    return LabelMatrix(values=values, lf_names=tuple(names))


def general_gold_labels(path) -> GoldLabels:
    """The general CSV reader alone, as :func:`load_gold_labels` applies it."""
    header, rows = _read_csv(path, _read_input(path, "gold labels"))
    if header != ["y"]:
        raise ValidationError(f"{path}: expected single header column 'y', got {header}")
    return GoldLabels(values=_int_cells(path, rows, (0, 1), "label")[:, 0])


def outcome(load, path):
    """The object ``load`` reads from ``path`` (gold labels as a list), or the
    message of the ValidationError it raises."""
    try:
        loaded = load(path)
    except ValidationError as exc:
        return str(exc)
    return loaded.values.tolist() if isinstance(loaded, GoldLabels) else loaded


@example(["a\rb"], 1)  # the writer left the "\r" unquoted, so the header read back as two lines
@given(
    st.lists(st.text(st.one_of(st.characters(codec="utf-8"), st.sampled_from(',"\r\n '))), min_size=1, max_size=4),
    st.integers(1, 3),
)
def test_every_lf_name_a_matrix_accepts_round_trips(names, n):
    try:
        matrix = LabelMatrix(values=np.zeros((n, len(names)), np.int64), lf_names=tuple(names))
    except ValidationError:
        return
    assert roundtrip(matrix, save_label_matrix, load_label_matrix) == matrix


@st.composite
def vote_tables(draw):
    names = draw(
        st.lists(
            st.text(st.one_of(st.characters(codec="utf-8"), st.sampled_from(',"\r\n'))),  # quoted names too
            min_size=1,
            max_size=5,
        )
    )
    shape = (draw(st.integers(1, 20)), len(names))
    return names, draw(arrays(np.int64, shape, elements=st.sampled_from([-1, 0, 1])))


def _votes(n, m):
    return [f"lf{j}" for j in range(m)], np.resize(np.array([-1, 0, 1, 1, -1]), (n, m))


# n * m just under and just over the block, a block narrower than a row, and a single
# row; then n * m just under and just over the module's own block.
@example(_votes(5, 3), 16)
@example(_votes(6, 3), 17)
@example(_votes(4, 5), 3)
@example(_votes(1, 4), 2)
@example(_votes(_WRITE_BLOCK // 7, 7), _WRITE_BLOCK)
@example(_votes(_WRITE_BLOCK // 7 + 1, 7), _WRITE_BLOCK)
@given(vote_tables(), st.integers(1, 40))
def test_vote_writer_writes_the_bytes_of_the_csv_writer(table, block):
    names, values = table
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(labelling, "_WRITE_BLOCK", block):
        path = Path(tmp) / "votes.csv"
        _write_votes(names, values, path)
        assert path.read_bytes() == _write_csv([names, *values.tolist()]).encode("utf-8")


@given(label_matrices())
def test_canonical_decode_of_written_matrix_matches_general_reader(matrix):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.csv"
        save_label_matrix(matrix, path)
        quoted = b'"' in path.read_bytes().split(b"\n")[0]
        text = _read_input(path, "label matrix")
        canonical = _canonical_cells(text, VALID_ENTRIES)
        header, rows = _read_csv(path, text)
        values = _int_cells(path, rows, VALID_ENTRIES, "entry")
    # The writer quotes a name holding a comma or a quote; only then is the
    # header left to the general reader.
    assert (canonical is None) == quoted
    if canonical is not None:
        assert canonical[0] == header
        assert canonical[1].dtype == np.int64
        np.testing.assert_array_equal(canonical[1], values)


@given(arrays(np.int64, st.integers(1, 20), elements=st.sampled_from([0, 1])))
def test_canonical_decode_of_written_gold_matches_general_reader(values):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "y.csv"
        save_gold_labels(GoldLabels(values=values), path)
        text = _read_input(path, "gold labels")
        canonical = _canonical_cells(text, (0, 1))
        header, rows = _read_csv(path, text)
        general = _int_cells(path, rows, (0, 1), "label")
    assert canonical is not None
    assert canonical[0] == header == ["y"]
    np.testing.assert_array_equal(canonical[1], general)


@given(label_matrices(), st.data())
def test_mutated_matrix_file_reads_as_the_general_reader_reads_it(matrix, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.csv"
        save_label_matrix(matrix, path)
        lines = path.read_bytes().split(b"\n")[:-1]  # the header, then one line per row
        ends = [b"\n"] * len(lines)
        kind = data.draw(st.sampled_from(
            ["cell", "crlf", "cr", "no final newline", "add field", "drop field", "split line"]
        ))
        i = data.draw(st.integers(0 if kind in ("crlf", "cr") else 1, matrix.n))
        cells = lines[i].split(b",")
        if kind == "cell":
            j = data.draw(st.integers(0, matrix.m - 1))
            cells[j] = data.draw(st.sampled_from([b"2", b"x", b"", b"01", b"+1", b"-0", b" 1", b"1 "]))
        elif kind == "add field":
            cells.append(data.draw(st.sampled_from([b"-1", b"0", b"1"])))
        elif kind == "drop field":
            cells.pop()
        elif kind == "split line" and len(cells) > 1:
            cells[:2] = [cells[0] + b"\n" + cells[1]]
        elif kind in ("crlf", "cr"):
            ends[i] = b"\r\n" if kind == "crlf" else b"\r"
        elif kind == "no final newline":
            ends[-1] = b""
        lines[i] = b",".join(cells)
        path.write_bytes(b"".join(line + end for line, end in zip(lines, ends)))
        assert outcome(load_label_matrix, path) == outcome(general_label_matrix, path)


def test_slash_cell_is_left_to_the_general_reader(tmp_path, capsys):
    # the canonical decoder reads each "-1" as "/", so a "/" cell would decode as -1
    text = "a,b\n/,0\n1,0\n"
    assert _canonical_cells(text, VALID_ENTRIES) is None
    path = tmp_path / "m.csv"
    path.write_text(text)
    assert main(["stats", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: non-integer entry '/' at row 1, column 'a'\n"


@pytest.mark.parametrize(
    "content",
    [
        b"a\n",  # no data rows
        b"\n1\n",  # an empty header line
        b"a\rb\n0\n",  # a lone carriage return in the header
        b'"a""b"\n1\n',  # a quoted header
        b"a,b\n0\n1\n",  # a line break where a comma belongs
        b"a\n0,1\n",  # a comma where a line break belongs
        b"a,b\n-1,-\n",
        b"a,b\n1-1,0\n",
        b"a,b\n0,1",
        b"a" * (csv.field_size_limit() + 1) + b"\n1\n",  # a name the csv module rejects
        b"a\n\xff\n",  # not UTF-8
        b"y\n0\n1\n",
        b"y\n-1\n",  # an abstention is no gold label
        b"x\n0\n",
    ],
)
def test_edge_files_read_as_the_general_reader_reads_them(tmp_path, content):
    path = tmp_path / "m.csv"
    path.write_bytes(content)
    assert outcome(load_label_matrix, path) == outcome(general_label_matrix, path)
    assert outcome(load_gold_labels, path) == outcome(general_gold_labels, path)


def ascii_int(cell: str) -> int:
    """``int`` of the stripped cell, limited to ASCII and to no digit underscores:
    ``int`` alone also reads "١" (U+0661) and "0_1" as 1."""
    text = cell.strip()
    if not text.isascii() or "_" in text:
        raise ValueError(text)
    return int(text)


def two_pass_int_cells(path, rows, allowed, noun, where=lambda i, j: f"line {i + 2}"):
    """The two-pass form of ``_int_cells``, kept as its reference: a bulk parse,
    then, when that fails, a scan for the first bad cell in row-major order."""
    try:
        cells = map(ascii_int, itertools.chain.from_iterable(rows))
        values = np.fromiter(cells, np.int64, len(rows) * len(rows[0])).reshape(len(rows), -1)
        if np.isin(values, allowed).all():
            return values
    except (ValueError, OverflowError):
        pass
    allowed_text = "{" + ", ".join(map(str, allowed)) + "}"
    for i, row in enumerate(rows):
        for j, cell in enumerate(row):
            try:
                value = ascii_int(cell)
            except ValueError:
                raise ValidationError(
                    f"{Path(path)}: non-integer {noun} {cell!r} at {where(i, j)}"
                ) from None
            if value not in allowed:
                raise ValidationError(
                    f"{Path(path)}: {noun} {value} at {where(i, j)} is not in {allowed_text}"
                )


integer_cells = st.sampled_from(["-1", "0", "1", " 1", "0\t", "+1", "01", "-0"])
bad_cells = st.one_of(
    st.sampled_from(
        ["2", "-2", str(2**63), str(-(2**64)), "1" * 4301, "1.0", "x", "", "1_0", "1e0", "- 1", "\u0661", "0_1"]
    ),
    st.text(max_size=3),
)


@given(st.integers(1, 4), st.integers(1, 4), st.sampled_from([VALID_ENTRIES, (0, 1)]), st.data())
def test_int_cells_matches_the_two_pass_reference(n, m, allowed, data):
    rows = data.draw(st.lists(st.lists(integer_cells, min_size=m, max_size=m), min_size=n, max_size=n))
    for _ in range(data.draw(st.integers(0, 2))):
        rows[data.draw(st.integers(0, n - 1))][data.draw(st.integers(0, m - 1))] = data.draw(bad_cells)

    def result(int_cells):
        try:
            values = int_cells("m.csv", rows, allowed, "entry")
        except ValidationError as exc:
            return str(exc)
        assert values.dtype == np.int64
        return values.tolist()

    assert result(_int_cells) == result(two_pass_int_cells)


@given(label_models())
def test_label_model_json_roundtrip(model):
    loaded = roundtrip(model, save_label_model, load_label_model)
    for name in ("w", "c", "psi"):
        np.testing.assert_array_equal(getattr(loaded.params, name), getattr(model.params, name))
    assert loaded.params.m == model.params.m
    for name in ("threshold_kind", "threshold_value"):
        assert getattr(loaded, name) == getattr(model, name)


@given(ci_params())
def test_ci_params_json_roundtrip(params):
    loaded = roundtrip(params, save_ci_params, load_ci_params)
    assert loaded.class_prior == params.class_prior
    np.testing.assert_array_equal(loaded.emissions, params.emissions)


@given(specs())
def test_synthetic_spec_json_roundtrip(spec):
    assert roundtrip(spec, save_spec, load_spec) == spec


@given(
    arrays(np.int64, st.integers(1, 20), elements=st.sampled_from([0, 1])),
    st.data(),
)
def test_predictions_csv_roundtrip(labels, data):
    scores = data.draw(arrays(float, labels.shape, elements=finite))
    preds = Predictions(labels=labels, scores=scores)
    np.testing.assert_array_equal(roundtrip(preds, save_predictions, _load_prediction_labels), labels)


@pytest.mark.parametrize("cell, expected", [("\u0661", None), ("0_1", None), (" 01 ", 1), ("+1", 1)])
@pytest.mark.parametrize(
    "header, prefix, load",
    [
        ("a", "", lambda path: load_label_matrix(path).values[:, 0].tolist()),
        ("y", "", lambda path: load_gold_labels(path).values.tolist()),
        ("index,score,label", "0,0.5,", lambda path: _load_prediction_labels(path).tolist()),
    ],
    ids=["matrix", "gold", "predictions"],
)
def test_a_cell_is_an_ascii_integer(tmp_path, cell, expected, header, prefix, load):
    # int() alone read the Arabic-Indic digit one and "0_1" as votes of 1
    path = tmp_path / "f.csv"
    path.write_text(f"{header}\n{prefix}0\n{prefix}{cell}\n", encoding="utf-8")
    if expected is None:
        with pytest.raises(ValidationError, match=f"non-integer [a-z]+ {re.escape(repr(cell))} at "):
            load(path)
    else:
        assert load(path) == [0, expected]


@given(label_matrices().filter(lambda matrix: matrix.n >= 2))
def test_stats_and_cov_csv_keep_lf_names(matrix):
    with tempfile.TemporaryDirectory() as tmp:
        path, stats, cov = (Path(tmp) / name for name in ("m.csv", "stats.csv", "cov.csv"))
        save_label_matrix(matrix, path)
        assert main(["stats", str(path), "--out", str(stats)]) == 0
        assert main(["cov", str(path), "--out", str(cov)]) == 0
        with open(stats, newline="", encoding="utf-8") as fh:
            stats_rows = list(csv.reader(fh))
        with open(cov, newline="", encoding="utf-8") as fh:
            cov_rows = list(csv.reader(fh))
    assert all(len(row) == 3 for row in stats_rows)
    names = [row[1] for row in stats_rows if row[0] == "count_abstain"]
    assert tuple(names) == matrix.lf_names
    assert tuple(cov_rows[0]) == matrix.lf_names
    assert len(cov_rows) == matrix.m + 1
    assert all(len(row) == matrix.m for row in cov_rows)
