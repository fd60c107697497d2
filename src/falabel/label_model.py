"""Binary pseudo-labels from a fitted model, and the one model file.

``predict`` labels a row 1 when its score is above a threshold.  A CI-EM model
scores a row by its posterior, cut at one half; the FA label model by the first
latent factor, cut at the median (the default) or mean of the training scores,
or at a Youden-optimal cut of a labelled dev split's scores.  The factor's sign
is arbitrary; under the signed vote coding that ``fa_core`` reads, loadings that
sum to >= 0 point to the positive class (``fa_core._sum_nonnegative``).

The model file of every method is this module's alone: ``save_model`` writes
it and ``load_model`` reads it, and a bad field is an error of the "label
model file".  It carries ``"version": 3``, the ``method`` that fitted it and
the ``lf_names`` of its training matrix, so a matrix of other or permuted
LFs can be refused; the method's own fields sit beside them.  Older files
are refused: a version-2 file names no LFs, and a file with no version was
an FA file under the older vote coding (abstain -1, negative 0) or a CI file.

The table of label methods, ``METHODS``, is here too: ``fit``, ``compare`` and
``sweep`` share it, and ``fit`` loads no evaluation code.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .fa_core import FAParams, FitConfig, _sum_nonnegative, fit_fa_em, fit_fa_vi, posterior_moments
from .labelling import (
    GoldLabels,
    LabelMatrix,
    _Frozen,
    _check_split,
    _dump_json,
    _fields,
    _float_array,
    _int_cells,
    _json_number,
    _read_csv,
    _read_input,
    _read_json,
)

THRESHOLD_KINDS = ("median", "mean", "cdf_youden")
MODEL_VERSION = 3  # the model file's version: 2 scored signed votes, 3 names the method and the LFs
MODEL_METHODS = ("fa-em", "fa-vi", "ci-em")  # the methods whose fit a model file holds


class LabelModel(_Frozen):
    """A deployable pseudo-labeler: oriented factor model + threshold.

    ``params.w`` is oriented, so a higher score means the positive class, and
    ``threshold_value`` is in score units for every kind: a row is positive
    when its score is above it.
    """

    def __init__(self, params: FAParams, threshold_kind: str, threshold_value: float):
        self.__dict__.update(params=params, threshold_kind=threshold_kind, threshold_value=threshold_value)
        if self.threshold_kind not in THRESHOLD_KINDS:
            raise ValidationError(
                f"threshold_kind must be one of {THRESHOLD_KINDS}, got {self.threshold_kind!r}"
            )
        if not np.isfinite(self.threshold_value):
            raise ValidationError("threshold_value must be finite")


class Predictions(_Frozen):
    """Binary labels, (n,) in {0, 1}, plus the scores that produced them: the
    oriented first-factor values, or the CI posteriors P(y=1 | row)."""

    def __init__(self, labels: np.ndarray, scores: np.ndarray):
        self.__dict__.update(labels=labels, scores=scores)


def _latent_threshold(kind: str, scores: np.ndarray) -> float:
    """Median (of an even count: the middle pair's mean) or mean of the training scores.

    The median is computed as ``np.median`` computes it, bit for bit: a
    partition at the middle index or pair and at the last index, then
    ``np.mean`` of the middle slice.  ``np.median`` itself imports ``numpy.ma``
    for its NaN check, and ``scores`` is finite.
    """
    if kind != "median":
        return float(np.mean(scores))
    half = scores.size // 2
    lo = half - 1 + scores.size % 2  # the middle index, or the first of the middle pair
    part = np.partition(scores, [*range(lo, half + 1), -1])
    return float(np.mean(part[lo : half + 1]))


def youden_threshold(scores: np.ndarray, gold: np.ndarray) -> tuple[float, float]:
    """Cut maximizing Youden's J = TPR - FPR under the rule ``score > t``.

    Candidates are every observed score plus one cut below the minimum
    (predict-all-positive); among maximizers the smallest cut wins.  Scores
    must be finite and gold labels in {0, 1}.

    Returns
    -------
    (threshold, j_statistic)
    """
    scores = _float_array(scores, "scores")
    gold = np.asarray(gold)  # no integer cast, which would take a label of 0.5 as 0
    if scores.shape != gold.shape:
        raise ValidationError("scores and gold labels must have equal length")
    if not np.isfinite(scores).all():
        raise ValidationError("scores must be finite")
    if not np.isin(gold, (0, 1)).all():
        raise ValidationError("gold labels must be in {0, 1}")
    n_pos = int((gold == 1).sum())
    n_neg = int((gold == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValidationError("Youden threshold requires both classes in the dev labels")
    cuts, inverse = np.unique(scores, return_inverse=True)
    candidates = np.concatenate([[scores.min() - 1.0], cuts])
    # rows of each class scoring above each candidate: its total minus those at or below it
    tp, fp = (
        total - np.cumsum(np.bincount(inverse[gold == label] + 1, minlength=candidates.size))
        for label, total in ((1, n_pos), (0, n_neg))
    )
    j = tp / n_pos - fp / n_neg
    best = int(np.argmax(j))  # the first maximiser: the smallest cut
    return float(candidates[best]), float(j[best])


def build_label_model(
    params: FAParams,
    train: LabelMatrix,
    threshold_kind: str = "median",
    dev: tuple[LabelMatrix, GoldLabels] | None = None,
) -> LabelModel:
    """Turn fitted factor parameters into a pseudo-labeler.

    Takes the loadings under the sign rule, so that a higher score means the
    positive class, and selects the threshold on the scores: the median or
    mean of the training scores, or the Youden-optimal cut of the dev scores
    (which requires ``dev``, a labelled split kept separate from any test data).
    """
    if threshold_kind == "cdf_youden" and dev is None:
        raise ValidationError("threshold_kind 'cdf_youden' requires a labelled dev set")

    params = FAParams(w=_sum_nonnegative(params.w), c=params.c, psi=params.psi)
    if threshold_kind == "cdf_youden":
        dev_matrix, dev_gold = dev
        _check_split(train, dev_matrix, dev_gold, "dev")
        threshold_value, _ = youden_threshold(posterior_moments(params, dev_matrix).mean, dev_gold.values)
    else:
        threshold_value = _latent_threshold(threshold_kind, posterior_moments(params, train).mean)
    return LabelModel(params=params, threshold_kind=threshold_kind, threshold_value=threshold_value)


def train_label_model(train: LabelMatrix, cfg: FitConfig = FitConfig()) -> LabelModel:
    """Fit the factor model by EM and build the median-split pseudo-labeler."""
    return build_label_model(fit_fa_em(train, cfg)[0], train)


def predict(model, matrix: LabelMatrix) -> Predictions:
    """Label the rows with a model of ``load_model``: 1 where a row's score is above the
    threshold, so a tie labels 0.  A ``LabelModel`` scores by the oriented first factor
    against ``threshold_value``, a ``CIParams`` by the posterior P(y=1 | row) against 0.5."""
    if isinstance(model, LabelModel):
        scores, threshold = posterior_moments(model.params, matrix).mean, model.threshold_value
    else:
        from .ci_baseline import ci_posterior

        scores, threshold = ci_posterior(model, matrix), 0.5
    return Predictions(labels=(scores > threshold).astype(np.int64), scores=scores)


# Each method fits on a training matrix and returns (model, fit report,
# labeller), where the labeller maps a matrix to 0/1 labels through
# ``predict``.  Fitters and ``predict`` are looked up by their global names
# when a method runs, so replacing one (to trace or patch it) takes effect:
# the FA fitters in this module, the CI ones in ci_baseline, which is imported
# only by the methods that run it, so an FA fit or an FA prediction never loads it.
def _fit_fa_em(train, cfg, threshold_kind, dev):
    return _fa_labeller(*fit_fa_em(train, cfg), train, threshold_kind, dev)


def _fit_fa_vi(train, cfg, threshold_kind, dev):
    return _fa_labeller(*fit_fa_vi(train, cfg), train, threshold_kind, dev)


def _fa_labeller(params, report, train, threshold_kind, dev):
    return _labeller(build_label_model(params, train, threshold_kind=threshold_kind, dev=dev), report)


def _fit_ci_em(train, cfg, threshold_kind, dev):
    from .ci_baseline import fit_ci_em

    return _labeller(*fit_ci_em(train, cfg))


def _labeller(model, report):
    return model, report, lambda matrix: predict(model, matrix).labels


def _majority(train, cfg, threshold_kind, dev):
    from .ci_baseline import majority_vote

    return None, None, majority_vote


METHODS = {"fa-em": _fit_fa_em, "fa-vi": _fit_fa_vi, "ci-em": _fit_ci_em, "majority": _majority}


def save_predictions(preds: Predictions, path) -> None:
    """Predictions CSV: columns index,score,label, each score spelled as ``repr``
    spells it; the bytes the csv module's writer gives."""
    rows = enumerate(zip(preds.scores.tolist(), preds.labels.tolist()))
    lines = "".join([f"{i},{score!r},{label}\n" for i, (score, label) in rows])
    Path(path).write_text("index,score,label\n" + lines, encoding="utf-8")


def _load_prediction_labels(path) -> np.ndarray:
    """The label column of a CSV written by :func:`save_predictions`; any content
    but that form is a ValidationError naming its first bad line."""
    header, rows = _read_csv(path, _read_input(path, "predictions"))
    if header != ["index", "score", "label"]:
        raise ValidationError(f"{Path(path)}: expected header 'index,score,label'")
    labels = _int_cells(path, [row[2:] for row in rows], (0, 1), "label")[:, 0]
    for i, (index, score, _) in enumerate(rows):
        if index != str(i):
            raise ValidationError(f"{Path(path)}: index {index!r} at line {i + 2}, expected {i}")
        try:
            value = float(score)
        except ValueError:
            value = math.nan
        if not (math.isfinite(value) and repr(value) == score):
            raise ValidationError(
                f"{Path(path)}: score {score!r} at line {i + 2} is not a finite number spelled as repr(float) spells it"
            )
    return labels


def save_model(path, method: str, lf_names, model) -> None:
    """Write the model file of ``model``, fitted by ``method`` to a matrix of the LFs
    ``lf_names``: the version, the method and the LF names, then the method's fields,
    floats at full precision.  An FA method writes its oriented loadings ``w``, ``c``,
    ``psi`` and its rule; ``ci-em`` its ``class_prior`` and ``emissions``, each LF's
    per-class distributions over the votes -1 (abstain), 0 and 1."""
    if method == "ci-em":
        fields = {"class_prior": float(model.class_prior), "emissions": model.emissions.tolist()}
    elif method in ("fa-em", "fa-vi"):
        fields = {
            "w": model.params.w.tolist(),
            "c": model.params.c.tolist(),
            "psi": model.params.psi.tolist(),
            "threshold_kind": model.threshold_kind,
            "threshold_value": float(model.threshold_value),
        }
    else:
        raise ValidationError(f"method {method!r} has no model file; expected one of {MODEL_METHODS}")
    _dump_json({"version": MODEL_VERSION, "method": method, "lf_names": list(lf_names), **fields}, path)


def load_model(path) -> tuple[str, tuple[str, ...], object]:
    """The method, the LF names and the model of the model file ``path``: a ``LabelModel``
    for an FA method, or a ``CIParams`` for ``ci-em``, the one method that imports
    ``ci_baseline``.  A file of another version than ``MODEL_VERSION`` asks for a refit;
    a bad field is a ValidationError naming it, and other fields are ignored."""
    payload = _read_json(path, "model")
    if type(payload.get("version")) is not int or payload["version"] != MODEL_VERSION:
        found = repr(payload["version"]) if "version" in payload else "missing"
        raise ValidationError(
            f"label model file is not version {MODEL_VERSION} (its field 'version' is {found}); older files do not"
            " name their LFs, and those before version 2 score votes coded abstain -1 and negative 0:"
            " refit it with falabel fit"
        )
    with _fields("label model file"):
        method, lf_names = payload["method"], payload["lf_names"]
        if method not in MODEL_METHODS:
            raise ValidationError(f"field 'method' must be one of {MODEL_METHODS}, got {method!r}")
        if type(lf_names) is not list or any(type(n) is not str for n in lf_names) or len(set(lf_names)) < len(lf_names):
            raise ValidationError(f"field 'lf_names' must be a list of distinct strings, got {lf_names!r}")
        if method == "ci-em":
            from .ci_baseline import CIParams

            model = CIParams(_json_number(payload, "class_prior"), _json_number(payload, "emissions", 3))
            key, m = "emissions", model.m
        else:
            w, c, psi = (_json_number(payload, name, 1) for name in ("w", "c", "psi"))
            model = LabelModel(FAParams(w, c, psi), payload["threshold_kind"], _json_number(payload, "threshold_value"))
            key, m = "w", model.params.m
        if m != len(lf_names):
            raise ValidationError(f"field 'lf_names' names {len(lf_names)} LFs but field {key!r} has {m}")
    return method, tuple(lf_names), model
