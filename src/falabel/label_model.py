"""Binary pseudo-labeling from a fitted factor model.

The first latent factor scores every row; a threshold chosen on the
training factor (median by default, or its mean, or a Youden-optimal cut
on a labelled dev split) dichotomizes the scores into {0, 1}.  Because
the factor's sign is arbitrary, an orientation step anchors the positive
class to the half of the factor that correlates with positive votes.
"""

from __future__ import annotations

import math
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
    """A deployable pseudo-labeler: factor model + threshold + orientation.

    ``threshold_value`` lives in raw (pre-orientation) latent units for the
    median/mean kinds and in CDF units for cdf_youden.  ``train_factor_mean``
    and ``train_factor_std`` are moments of the oriented training scores,
    used by the CDF transform at prediction time.
    """

    params: FAParams
    threshold_kind: str
    threshold_value: float
    train_factor_mean: float
    train_factor_std: float
    orientation: int

    def __post_init__(self):
        if self.threshold_kind not in THRESHOLD_KINDS:
            raise ValidationError(
                f"threshold_kind must be one of {THRESHOLD_KINDS}, got {self.threshold_kind!r}"
            )
        if not np.isfinite(self.threshold_value):
            raise ValidationError("threshold_value must be finite")
        if not np.isfinite(self.train_factor_mean):
            raise ValidationError("train_factor_mean must be finite")
        if not (np.isfinite(self.train_factor_std) and self.train_factor_std > 0):
            raise ValidationError("train_factor_std must be finite and > 0")
        if self.orientation not in (1, -1):
            raise ValidationError(f"orientation must be +1 or -1, got {self.orientation}")


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


def _normal_cdf(x: np.ndarray) -> np.ndarray:
    """The standard normal CDF of a 1-d array, Phi(x) = erfc(-x / sqrt 2) / 2, with one
    ``math.erfc`` call per distinct value."""
    values, inverse = np.unique(x, return_inverse=True)
    return 0.5 * np.fromiter(map(math.erfc, (values * -math.sqrt(0.5)).tolist()), float, len(values))[inverse]


def _latent_threshold(kind: str, z_raw: np.ndarray) -> float:
    """Median (of an even count: the middle pair's mean) or mean of the raw training factor.

    The median is computed as ``np.median`` computes it, bit for bit: a
    partition at the middle index or pair and at the last index, then
    ``np.mean`` of the middle slice.  ``np.median`` itself imports ``numpy.ma``
    for its NaN check, and ``z_raw`` is finite.
    """
    if kind != "median":
        return float(np.mean(z_raw))
    half = z_raw.size // 2
    lo = half - 1 + z_raw.size % 2  # the middle index, or the first of the middle pair
    part = np.partition(z_raw, [*range(lo, half + 1), -1])
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

    Scores the training matrix with the first factor, orients it, and
    selects the threshold: the median or mean of the raw training factor,
    or a Youden-optimal cut on CDF-transformed dev scores (which requires
    ``dev``, a labelled split kept separate from any test data).
    """
    if threshold_kind == "cdf_youden" and dev is None:
        raise ValidationError("threshold_kind 'cdf_youden' requires a labelled dev set")

    z_raw = posterior_moments(params, train).mean
    orientation = orient_factor(z_raw, train)
    oriented = orientation * z_raw
    train_mean = float(oriented.mean())
    train_std = float(oriented.std())
    if not train_std > 0:
        train_std = 1.0  # degenerate factor; CDF transform collapses to 0.5

    if threshold_kind == "cdf_youden":
        dev_matrix, dev_gold = dev
        if dev_gold.n != dev_matrix.n:
            raise ValidationError("dev gold labels must match the dev matrix row count")
        dev_scores = orientation * posterior_moments(params, dev_matrix).mean
        dev_cdf = _normal_cdf((dev_scores - train_mean) / train_std)
        threshold_value, _ = youden_threshold(dev_cdf, dev_gold.values)
    else:
        threshold_value = _latent_threshold(threshold_kind, z_raw)

    return LabelModel(
        params=params,
        threshold_kind=threshold_kind,
        threshold_value=threshold_value,
        train_factor_mean=train_mean,
        train_factor_std=train_std,
        orientation=orientation,
    )


def train_label_model(train: LabelMatrix, cfg: FitConfig = FitConfig()) -> LabelModel:
    """Fit the factor model by EM and build the median-split pseudo-labeler."""
    return build_label_model(fit_fa_em(train, cfg)[0], train)


def predict(model: LabelModel, matrix: LabelMatrix) -> Predictions:
    """Score rows with the oriented first factor and threshold them.

    Ties at the threshold resolve to label 0.  For the median/mean kinds
    the stored raw-unit threshold is orientation-adjusted before the
    comparison; for cdf_youden the oriented score is first standardized by
    the training-factor moments and pushed through the normal CDF.
    """
    scores = model.orientation * posterior_moments(model.params, matrix).mean
    if model.threshold_kind == "cdf_youden":
        u = _normal_cdf((scores - model.train_factor_mean) / model.train_factor_std)
        labels = u > model.threshold_value
    else:
        labels = scores > model.orientation * model.threshold_value
    return Predictions(labels=labels.astype(np.int64), scores=scores)


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
        "orientation": int(model.orientation),
        "train_mean": float(model.train_factor_mean),
        "train_std": float(model.train_factor_std),
    }
    _dump_json(payload, path)


def label_model_from_dict(payload: dict) -> LabelModel:
    params = params_from_dict(payload)
    with _fields("label model file"):
        return LabelModel(
            params=params,
            threshold_kind=payload["threshold_kind"],
            threshold_value=_json_number(payload, "threshold_value"),
            train_factor_mean=_json_number(payload, "train_mean"),
            train_factor_std=_json_number(payload, "train_std"),
            orientation=_json_int(payload, "orientation"),
        )


def load_label_model(path) -> LabelModel:
    return label_model_from_dict(_read_json(path, "label model"))
