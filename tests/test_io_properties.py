"""Round-trip properties for every file format the package reads and writes."""

import csv
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given
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
from falabel.cli import main
from falabel.label_model import _load_prediction_labels

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
    k = draw(st.integers(1, m))
    params = FAParams(
        W=draw(arrays(float, (m, k), elements=finite)),
        c=draw(arrays(float, m, elements=finite)),
        psi=draw(arrays(float, m, elements=positive)),
        k=k,
        m=m,
    )
    return LabelModel(
        params=params,
        threshold_kind=draw(st.sampled_from(["median", "mean", "cdf_youden"])),
        threshold_value=draw(finite),
        train_factor_mean=draw(finite),
        train_factor_std=draw(positive),
        orientation=draw(st.sampled_from([1, -1])),
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


@given(label_models())
def test_label_model_json_roundtrip(model):
    loaded = roundtrip(model, save_label_model, load_label_model)
    for name in ("W", "c", "psi"):
        np.testing.assert_array_equal(getattr(loaded.params, name), getattr(model.params, name))
    assert (loaded.params.k, loaded.params.m) == (model.params.k, model.params.m)
    rule = ("threshold_kind", "threshold_value", "train_factor_mean", "train_factor_std", "orientation")
    for name in rule:
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
