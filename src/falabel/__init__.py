"""falabel: weak-supervision label models over sparse labelling matrices.

Fits a Factor Analysis latent-variable model to the votes of heuristic
labelling functions, dichotomizes the latent factor into binary
pseudo-labels, and evaluates the result against a conditionally-independent
generative baseline and majority vote.

Importing the package loads none of its modules: each public name is
imported from its module on first use (PEP 562), so a caller pays only for
the modules it touches.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "ci_baseline": (
        "CIParams",
        "ci_posterior",
        "fit_ci_em",
        "majority_vote",
    ),
    "errors": ("FalabelError", "NumericalError", "ValidationError"),
    "fa_core": (
        "FAParams",
        "FitConfig",
        "FitReport",
        "PosteriorMoments",
        "fit_fa_em",
        "fit_fa_vi",
        "log_likelihood",
        "posterior_moments",
    ),
    "label_model": (
        "LabelModel",
        "Predictions",
        "build_label_model",
        "load_model",
        "predict",
        "save_model",
        "save_predictions",
        "train_label_model",
        "youden_threshold",
    ),
    "labelling": (
        "ABSTAIN",
        "GoldLabels",
        "LabelMatrix",
        "MatrixStats",
        "covariance_matrix",
        "load_gold_labels",
        "load_label_matrix",
        "matrix_stats",
        "save_gold_labels",
        "save_label_matrix",
    ),
    "lf_engine": ("LFSpec", "apply_lfs", "load_lf_specs"),
    "metrics_eval": (
        "MetricsReport",
        "SweepRecord",
        "SweepResult",
        "evaluate",
        "imbalance_index",
        "robustness_sweep",
    ),
    "synthetic": ("SyntheticSpec", "bayes_oracle", "generate", "load_spec", "save_spec"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
