"""Binary pseudo-labeling from a fitted factor model.

The first latent factor scores every row, and a row is positive when its
score is above a threshold: the median (the default) or mean of the
training scores, or a Youden-optimal cut of the scores of a labelled dev
split.  Because the factor's sign is arbitrary, an orientation step negates
the loadings where needed, so that the positive class is the half of the
factor that correlates with positive votes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .fa_core import FAParams, FitConfig, fit_fa_em, params_from_dict, params_to_dict, posterior_moments
from .labelling import (
    ABSTAIN,
    GoldLabels,
    LabelMatrix,
    _dump_json,
    _fields,
    _float_array,
    _int_cells,
    _json_int,
    _json_number,
    _read_csv,
    _read_input,
    _read_json,
    _write_csv,
)

THRESHOLD_KINDS = ("median", "mean", "cdf_youden")


@dataclass(frozen=True)
class LabelModel:
    """A deployable pseudo-labeler: oriented factor model + threshold.

    ``params.w`` is oriented, so a higher score means the positive class, and
    ``threshold_value`` is in score units for every kind: a row is positive
    when its score is above it.
    """

    params: FAParams
    threshold_kind: str
    threshold_value: float

    def __post_init__(self):
        if self.threshold_kind not in THRESHOLD_KINDS:
            raise ValidationError(
                f"threshold_kind must be one of {THRESHOLD_KINDS}, got {self.threshold_kind!r}"
            )
        if not np.isfinite(self.threshold_value):
            raise ValidationError("threshold_value must be finite")


@dataclass(frozen=True)
class Predictions:
    """Binary labels plus the oriented factor scores that produced them."""

    labels: np.ndarray  # (n,) in {0, 1}
    scores: np.ndarray  # (n,) oriented first-factor values


def orient_factor(z_train: np.ndarray, matrix: LabelMatrix) -> int:
    """Decide which half of the factor is the positive class.

    Correlates the factor with the per-row mean of non-abstain votes
    (votes are 0/1, so higher mean = more positive votes); rows that
    abstain everywhere are excluded.  Returns +1 on non-negative or
    undefined correlation, -1 otherwise.
    """
    z_train = _float_array(z_train, "factor vector")
    if z_train.shape != (matrix.n,):
        raise ValidationError("factor vector length must match the matrix row count")
    n_votes = (matrix.values != ABSTAIN).sum(axis=1)
    has_vote = n_votes > 0
    if has_vote.sum() < 2:
        return 1
    vote_mean = (matrix.values == 1).sum(axis=1)[has_vote] / n_votes[has_vote]
    z = z_train[has_vote]
    if np.std(z) == 0 or np.std(vote_mean) == 0:
        return 1
    corr = float(np.corrcoef(z, vote_mean)[0, 1])
    if np.isnan(corr):
        return 1
    return 1 if corr >= 0 else -1


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


def _orient(params: FAParams, sign: int) -> FAParams:
    """``params`` with the loadings times ``sign``, +1 or -1.  Negating w negates
    every posterior mean exactly, so scores and cuts flip with no rounding."""
    return params if sign == 1 else FAParams(w=-params.w, c=params.c, psi=params.psi)


def build_label_model(
    params: FAParams,
    train: LabelMatrix,
    threshold_kind: str = "median",
    dev: tuple[LabelMatrix, GoldLabels] | None = None,
) -> LabelModel:
    """Turn fitted factor parameters into a pseudo-labeler.

    Scores the training matrix with the first factor, orients the loadings,
    and selects the threshold on the oriented scores: the median or mean of
    the training scores, or the Youden-optimal cut of the dev scores (which
    requires ``dev``, a labelled split kept separate from any test data).
    """
    if threshold_kind == "cdf_youden" and dev is None:
        raise ValidationError("threshold_kind 'cdf_youden' requires a labelled dev set")

    scores = posterior_moments(params, train).mean
    sign = orient_factor(scores, train)
    params = _orient(params, sign)
    if threshold_kind == "cdf_youden":
        dev_matrix, dev_gold = dev
        if dev_gold.n != dev_matrix.n:
            raise ValidationError("dev gold labels must match the dev matrix row count")
        threshold_value, _ = youden_threshold(posterior_moments(params, dev_matrix).mean, dev_gold.values)
    else:
        threshold_value = _latent_threshold(threshold_kind, sign * scores)
    return LabelModel(params=params, threshold_kind=threshold_kind, threshold_value=threshold_value)


def train_label_model(train: LabelMatrix, cfg: FitConfig = FitConfig()) -> LabelModel:
    """Fit the factor model by EM and build the median-split pseudo-labeler."""
    return build_label_model(fit_fa_em(train, cfg)[0], train)


def predict(model: LabelModel, matrix: LabelMatrix) -> Predictions:
    """Score rows with the oriented first factor: a row is positive when its
    score is above the threshold, so ties at the threshold resolve to label 0."""
    scores = posterior_moments(model.params, matrix).mean
    return Predictions(labels=(scores > model.threshold_value).astype(np.int64), scores=scores)


def save_predictions(preds: Predictions, path) -> None:
    """Predictions CSV: columns index,score,label."""
    rows = zip(range(len(preds.labels)), preds.scores.tolist(), preds.labels.tolist())
    _write_csv([("index", "score", "label"), *rows], path)


def _load_prediction_labels(path) -> np.ndarray:
    """The label column, each in {0, 1}, of a CSV written by :func:`save_predictions`."""
    header, rows = _read_csv(path, _read_input(path, "predictions"))
    if header != ["index", "score", "label"]:
        raise ValidationError(f"{Path(path)}: expected header 'index,score,label'")
    return _int_cells(path, [row[2:] for row in rows], (0, 1), "label")[:, 0]


def save_label_model(model: LabelModel, path) -> None:
    """Serialize as the factor-parameter JSON plus the decision-rule fields."""
    payload = {
        **params_to_dict(model.params),
        "threshold_kind": model.threshold_kind,
        "threshold_value": float(model.threshold_value),
    }
    _dump_json(payload, path)


def label_model_from_dict(payload: dict) -> LabelModel:
    """A model from its JSON fields.  A file that carries ``orientation`` is an older
    one, whose W and median or mean cut are unoriented: both are read times it."""
    params = params_from_dict(payload)
    with _fields("label model file"):
        sign = _json_int(payload, "orientation") if "orientation" in payload else 1
        if sign not in (1, -1):
            raise ValidationError(f"orientation must be +1 or -1, got {sign}")
        model = LabelModel(
            params=_orient(params, sign),
            threshold_kind=payload["threshold_kind"],
            threshold_value=sign * _json_number(payload, "threshold_value"),
        )
    if "orientation" in payload and model.threshold_kind == "cdf_youden":
        raise ValidationError(
            "label model file holds an older cdf_youden cut in normal-CDF units, which no score cut"
            " equals; refit it with --threshold cdf-youden"
        )
    return model


def load_label_model(path) -> LabelModel:
    return label_model_from_dict(_read_json(path, "label model"))
