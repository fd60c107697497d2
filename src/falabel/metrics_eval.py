"""The table of label methods, binary classification metrics, the
class-imbalance index, and the training-size robustness sweep."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ValidationError
from .fa_core import FitConfig, FitReport, _fit_fa_batch, fit_fa_em, fit_fa_vi
from .label_model import build_label_model, predict
from .labelling import GoldLabels, LabelMatrix, _check_count, _check_split, _dump_json, _frozen_array, _within, _write_csv

DEFAULT_SWEEP_SIZES = (10, 20, 30, 40, 50, 60)


# Each method fits on a training matrix and returns (model, fit report,
# labeller), where the labeller maps a matrix to 0/1 labels.  Fitters and
# predictors are looked up by their global names when a method runs, so
# replacing one (to trace or patch it) takes effect: the FA ones in this
# module, the CI ones in ci_baseline, which is imported only by the methods
# that run it, so an FA fit or an evaluation never loads it.
def _fit_fa_em(train, cfg, threshold_kind, dev):
    return _fa_labeller(*fit_fa_em(train, cfg), train, threshold_kind, dev)


def _fit_fa_vi(train, cfg, threshold_kind, dev):
    return _fa_labeller(*fit_fa_vi(train, cfg), train, threshold_kind, dev)


def _fa_labeller(params, report, train, threshold_kind, dev):
    model = build_label_model(params, train, threshold_kind=threshold_kind, dev=dev)
    return model, report, lambda matrix: predict(model, matrix).labels


def _fit_ci_em(train, cfg, threshold_kind, dev):
    from .ci_baseline import ci_predict, fit_ci_em

    params, report = fit_ci_em(train, cfg)
    return params, report, lambda matrix: ci_predict(params, matrix).labels


def _majority(train, cfg, threshold_kind, dev):
    from .ci_baseline import majority_vote

    return None, None, majority_vote


METHODS = {"fa-em": _fit_fa_em, "fa-vi": _fit_fa_vi, "ci-em": _fit_ci_em, "majority": _majority}


@dataclass(frozen=True)
class MetricsReport:
    """Standard binary metrics with positive class 1.

    Metrics whose denominator is zero are reported as 0.0 and listed in
    ``undefined``.
    """

    accuracy: float
    precision: float
    recall: float
    f1: float
    tp: int
    fp: int
    tn: int
    fn: int
    n: int
    undefined: tuple[str, ...] = ()

    def to_json(self) -> str:
        return _dump_json(asdict(self))


def _label_array(labels, what: str) -> np.ndarray:
    arr = labels.values if isinstance(labels, GoldLabels) else _frozen_array(labels, f"{what} entries")
    if arr.ndim != 1:
        raise ValidationError(f"{what} must be a 1-d vector, got shape {arr.shape}")
    if arr.size and not _within(arr, (0, 1)):
        raise ValidationError(f"{what} entries must be in {{0, 1}}")
    return arr


def evaluate(pred, gold) -> MetricsReport:
    """Confusion counts and accuracy/precision/recall/F1.

    ``pred`` is a 0/1 vector; ``gold`` a GoldLabels or a 0/1 vector.
    """
    pred_arr = _label_array(pred, "predictions")
    gold_arr = _label_array(gold, "gold labels")
    if pred_arr.shape != gold_arr.shape:
        raise ValidationError(
            f"length mismatch: {pred_arr.shape[0]} predictions vs {gold_arr.shape[0]} gold labels"
        )
    if gold_arr.size == 0:
        raise ValidationError("cannot evaluate on empty input")

    tn, fp, fn, tp = np.bincount(2 * gold_arr + pred_arr, minlength=4).tolist()
    n = gold_arr.size
    undefined = []

    def ratio(name, num, den):
        if den > 0:
            return num / den
        undefined.append(name)
        return 0.0

    precision = ratio("precision", tp, tp + fp)
    recall = ratio("recall", tp, tp + fn)
    f1 = ratio("f1", 2.0 * precision * recall, precision + recall)
    return MetricsReport((tp + tn) / n, precision, recall, f1, tp, fp, tn, fn, n, tuple(undefined))


def imbalance_index(gold) -> float:
    """Class imbalance as |n_pos - n_neg| / (n_pos + n_neg), in [0, 1]."""
    values = _label_array(gold, "gold labels")
    if values.size == 0:
        raise ValidationError("cannot compute imbalance of empty input")
    n_neg, n_pos = np.bincount(values, minlength=2).tolist()
    return abs(n_pos - n_neg) / (n_pos + n_neg)


@dataclass(frozen=True)
class SweepRecord:
    """One cell's test metrics, and its fit's report (None for majority)."""

    method: str
    size: int
    repeat: int
    metrics: MetricsReport
    report: FitReport | None


@dataclass(frozen=True)
class SweepResult:
    """Per-repeat sweep records in deterministic (size, method, repeat) order."""

    records: tuple[SweepRecord, ...]
    sizes: tuple[int, ...]
    methods: tuple[str, ...]
    repeats: int
    seed: int

    def summary(self) -> list[dict]:
        """Mean and std accuracy per (method, size); one row per pair."""
        rows = []
        for method in self.methods:
            for size in self.sizes:
                accs = [
                    r.metrics.accuracy
                    for r in self.records
                    if r.method == method and r.size == size
                ]
                rows.append(
                    {
                        "method": method,
                        "size": size,
                        "accuracy_mean": float(np.mean(accs)),
                        "accuracy_std": float(np.std(accs)),
                        "repeats": len(accs),
                    }
                )
        return rows

    def to_csv(self) -> str:
        rows = [("method", "size", "repeat", "accuracy", "precision", "recall", "f1")]
        for r in self.records:
            m = r.metrics
            rows.append((r.method, r.size, r.repeat, m.accuracy, m.precision, m.recall, m.f1))
        return _write_csv(rows)


def robustness_sweep(
    train: LabelMatrix,
    test: LabelMatrix,
    gold_test: GoldLabels,
    sizes: tuple[int, ...] = DEFAULT_SWEEP_SIZES,
    repeats: int = 5,
    methods: tuple[str, ...] = ("fa-em", "ci-em", "majority"),
    cfg: FitConfig = FitConfig(),
    threshold_kind: str = "median",
) -> SweepResult:
    """Accuracy of each method as the training set shrinks.

    For every (size, repeat) cell a subsample of training rows is drawn
    without replacement; all methods see the identical subsample and are
    evaluated on the fixed test set.  ``cfg.seed`` drives only the
    subsamples, one spawned seed per cell (no fit draws a random number), so
    results are bit-reproducible, and ``SweepResult.seed`` records it.

    Each method fits every cell once, in ``methods`` order: an FA method in
    one lockstep batch (see ``fa_core._fit_fa_batch``), bit-identical to
    fitting its cells one at a time, and any other method cell by cell
    through ``METHODS``.  A fit that fails raises its own error, so the
    first failing fit in that order ends the sweep.  The records are then
    built in (size, method, repeat) order.
    """
    _check_count("repeats", repeats, 1)
    if not sizes:
        raise ValidationError("at least one size is required")
    if not methods:
        raise ValidationError("at least one method is required")
    if len(set(sizes)) != len(sizes):
        raise ValidationError(f"sizes must be distinct, got {tuple(sizes)}")
    if len(set(methods)) != len(methods):
        raise ValidationError(f"methods must be distinct, got {tuple(methods)}")
    for size in sizes:
        _check_count("sizes", size, -math.inf)  # the type; the range is checked next
        if size < 2:
            raise ValidationError(f"sizes must be >= 2 to fit models, got {size}")
        if size > train.n:
            raise ValidationError(f"size {size} exceeds available training rows ({train.n})")
    for method in methods:
        if method not in METHODS:
            raise ValidationError(f"unknown method {method!r}, expected one of {tuple(METHODS)}")
    _check_split(train, test, gold_test, "test")

    # one subsample per cell, in (size, repeat) order, from a seed spawned from cfg.seed
    subs = []
    for child, size in zip(np.random.SeedSequence(cfg.seed).spawn(len(sizes) * repeats), np.repeat(sizes, repeats)):
        idx = np.sort(np.random.default_rng(child).choice(train.n, size=size, replace=False))
        subs.append(LabelMatrix(values=train.values[idx], lf_names=train.lf_names))
    fits = {}  # each method's (model, report, labeller) per cell
    for method in methods:
        if method in ("fa-em", "fa-vi"):
            batch = zip(_fit_fa_batch(subs, cfg, method), subs)
            fits[method] = [_fa_labeller(*fit, sub, threshold_kind, None) for fit, sub in batch]
        else:
            fits[method] = [METHODS[method](sub, cfg, threshold_kind, None) for sub in subs]

    records = []
    for si, size in enumerate(sizes):
        for method in methods:
            for rep in range(repeats):
                _, report, labeller = fits[method][si * repeats + rep]
                metrics = evaluate(labeller(test), gold_test)
                records.append(SweepRecord(method, size, rep, metrics, report))
    return SweepResult(tuple(records), tuple(sizes), tuple(methods), repeats, cfg.seed)
