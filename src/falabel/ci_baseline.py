"""Comparison baselines: a conditionally-independent label model and majority vote.

The CI model is a two-component mixture: a latent Bernoulli class y
generates each LF's output independently through a per-LF categorical
over the three emissions (-1 abstain, 0 negative, 1 positive).  It is
fit by EM on the count-weighted distinct rows of the unlabelled matrix
(at most 3^m of them); the exact Bayes posterior over y then scores
each row.  Majority vote needs no fitting.  ``label_model.save_model`` and
``load_model`` write and read a fitted ``CIParams`` in the one model file.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .fa_core import FitConfig, FitReport, _fit_loop
from .label_model import Predictions
from .labelling import LabelMatrix, _float_array

EMISSION_VALUES = (-1, 0, 1)
PROB_FLOOR = 1e-6


@dataclass(frozen=True)
class CIParams:
    """Mixture parameters: class prior and per-LF emission tables.

    ``emissions[j, y, v]`` is P(LF j emits EMISSION_VALUES[v] | class y).
    Every (j, y) slice sums to 1 and no probability sits below PROB_FLOOR.
    """

    class_prior: float
    emissions: np.ndarray  # (m, 2, 3)

    def __post_init__(self):
        class_prior = _float_array(self.class_prior, "class_prior")
        if class_prior.ndim or not 0.0 < class_prior < 1.0:
            raise ValidationError(f"class_prior must be in (0, 1), got {self.class_prior}")
        object.__setattr__(self, "class_prior", float(class_prior))
        emissions = _float_array(self.emissions, "emissions").copy()
        if emissions.ndim != 3 or emissions.shape[1:] != (2, 3):
            raise ValidationError(
                f"emissions must have shape (m, 2, 3), got {emissions.shape}"
            )
        if not np.isfinite(emissions).all():
            raise ValidationError("emissions contain non-finite values")
        if (emissions < PROB_FLOOR).any():
            raise ValidationError(f"emission probabilities must be >= {PROB_FLOOR}")
        sums = emissions.sum(axis=2)
        if not np.allclose(sums, 1.0, atol=1e-12, rtol=0.0):
            raise ValidationError("each emission distribution must sum to 1 within 1e-12")
        emissions.flags.writeable = False
        object.__setattr__(self, "emissions", emissions)

    @property
    def m(self) -> int:
        return self.emissions.shape[0]


def _one_hot(values: np.ndarray) -> np.ndarray:
    """(n, 3m) indicator: column 3j + v is 1 where LF j emits EMISSION_VALUES[v]."""
    return (values[:, :, None] == np.array(EMISSION_VALUES)).reshape(len(values), -1).astype(float)


def _log_class_scores(E: np.ndarray, class_prior: float, emissions: np.ndarray) -> np.ndarray:
    """(n, 2) array of log P(y) + log P(row | y) for the rows one-hot coded in E."""
    log_em = np.log(emissions).transpose(0, 2, 1).reshape(-1, 2)  # (3m, 2), rows as in E
    return E @ log_em + np.log([1.0 - class_prior, class_prior])


def fit_ci_em(matrix: LabelMatrix, cfg: FitConfig = FitConfig()) -> tuple[CIParams, FitReport]:
    """EM for the mixture-of-products model with a latent Bernoulli class.

    Each distinct row starts at class-1 responsibility 0.7 if it has more positive
    than negative votes, else 0.3, +0.05 at even and -0.05 at odd positions in sorted
    order, so the fit draws nothing and row order cannot change it; probabilities
    are floored at PROB_FLOOR and renormalized after every M-step.  After convergence
    the classes are canonicalized so class 1 better matches vote value 1: by
    mean P(emit 1 | class), then LF by LF, with gaps of 1e-9 or less tying.
    """
    if matrix.n < 2:
        raise ValidationError(f"CI fitting requires n >= 2 rows, got {matrix.n}")
    # rows as m-byte keys; votes + 1 makes byte order the order of np.unique(axis=0)
    codes = np.ascontiguousarray(matrix.values, dtype=np.int8) + 1
    keys, counts = np.unique(codes.view(np.dtype((np.void, matrix.m))).ravel(), return_counts=True)
    patterns = keys.view(np.int8).reshape(-1, matrix.m) - 1
    E, counts = _one_hot(patterns), counts.astype(float)  # (u, 3m), (u,)

    # the state: each distinct row's starting class-1 responsibility times its count
    r1 = np.where((patterns == 1).sum(axis=1) > (patterns == 0).sum(axis=1), 0.7, 0.3)
    mass1 = counts * (r1 + np.where(np.arange(len(counts)) % 2, -0.05, 0.05))

    def step(state):
        # M-step from the responsibilities, then the likelihood of the new
        # parameters and the responsibilities they imply (the next E-step);
        # the fit is a batch of one, so each state array has a member axis
        mass1 = state[-1][0]
        mass = np.column_stack([counts - mass1, mass1])  # (u, 2) class mass per pattern
        class_mass = mass.sum(axis=0)
        prior = float(np.clip(class_mass[1] / matrix.n, PROB_FLOOR, 1.0 - PROB_FLOOR))
        emissions = (E.T @ mass).reshape(matrix.m, 3, 2).transpose(0, 2, 1) / class_mass[:, None]
        # floor by mixing with uniform: keeps every probability >= PROB_FLOOR
        # and each distribution summing to exactly 1
        emissions = (1.0 - 3.0 * PROB_FLOOR) * emissions + PROB_FLOOR
        scores = _log_class_scores(E, prior, emissions)
        row_ll = np.logaddexp(scores[:, 0], scores[:, 1])
        mass1 = counts * np.exp(scores[:, 1] - row_ll)
        return (np.array([prior]), emissions[None], mass1[None]), np.array([counts @ row_ll])

    [((prior, emissions, _), report)] = _fit_loop(step, (mass1[None],), cfg, "ci-em")
    prior = float(prior)

    # canonicalize by the first gap above 1e-9, so rounding cannot decide
    gap = emissions[:, 1, 2] - emissions[:, 0, 2]
    decisive = [d for d in (gap.mean(), *gap) if abs(d) > 1e-9]
    if decisive and decisive[0] < 0:
        prior = 1.0 - prior
        emissions = emissions[:, ::-1, :].copy()

    return CIParams(class_prior=prior, emissions=emissions), report


def ci_posterior(params: CIParams, matrix: LabelMatrix) -> np.ndarray:
    """Exact Bayes posterior P(y=1 | row) for every row."""
    if matrix.m != params.m:
        raise ValidationError(
            f"matrix has {matrix.m} columns but the model expects {params.m}"
        )
    scores = _log_class_scores(_one_hot(matrix.values), params.class_prior, params.emissions)
    return np.exp(scores[:, 1] - np.logaddexp(scores[:, 0], scores[:, 1]))


def ci_predict(params: CIParams, matrix: LabelMatrix) -> Predictions:
    """The CI decision rule: label 1 where P(y=1 | row) exceeds one half.

    The posterior itself is the score.
    """
    posterior = ci_posterior(params, matrix)
    return Predictions(labels=(posterior > 0.5).astype(np.int64), scores=posterior)


def majority_vote(matrix: LabelMatrix) -> np.ndarray:
    """Per-row majority of the non-abstain votes; ties and all-abstain rows get 0."""
    pos = (matrix.values == 1).sum(axis=1)
    neg = (matrix.values == 0).sum(axis=1)
    return (pos > neg).astype(np.int64)
