"""Comparison baselines: a conditionally-independent label model and majority vote.

The CI model is a two-component mixture: a latent Bernoulli class y
generates each LF's output independently through a per-LF categorical
over the three emissions (-1 abstain, 0 negative, 1 positive).  It is
fit by EM on the count-weighted distinct rows of the unlabelled matrix
(at most 3^m of them); the exact Bayes posterior over y then scores
each row.  Both write a row's likelihood as an all-abstain row's times a
factor for each voted cell, so their cost follows the voted cells; every
sum over rows runs through ``np.bincount`` or a numpy reduction, in a
fixed order and never through BLAS, so no output depends on the BLAS
thread count.  Majority vote needs no fitting.  ``label_model.save_model`` and
``load_model`` write and read a fitted ``CIParams`` in the one model file.
"""

from __future__ import annotations

import math
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


def _patterns(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of ``values`` and their counts, in ``np.unique(axis=0)`` order.

    A row of m <= 39 votes is keyed by its big-endian base-3 number (3^39 < 2^63);
    a wider row by its m bytes.  With votes + 1 as the digits, both keys sort as
    the rows do.
    """
    m = values.shape[1]
    if m <= 39:
        powers = 3 ** np.arange(m - 1, -1, -1, dtype=np.int64)
        # (values + 1) @ powers less sum(powers), without an (n, m) copy
        keys, counts = np.unique(values @ powers, return_counts=True)
        return (keys[:, None] + (3**m - 1) // 2) // powers % 3 - 1, counts
    codes = np.ascontiguousarray(values, dtype=np.int8) + 1
    keys, counts = np.unique(codes.view(np.dtype((np.void, m))).ravel(), return_counts=True)
    return keys.view(np.int8).reshape(-1, m) - 1, counts


def _voted_cells(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (row, cell) of every non-abstain entry, in row-major order: ``cell`` is
    3j + v in an (m, 3) table whose column v is EMISSION_VALUES[v], so column 0
    (abstain) never occurs."""
    flat = np.flatnonzero(values != -1)
    rows, cells = np.divmod(flat, values.shape[1])
    cells *= 3
    cells += values.take(flat) + 1
    return rows, cells


def _sums(index: np.ndarray, weights: np.ndarray, size: int) -> np.ndarray:
    """The sum of ``weights`` at each of ``size`` indices, added in input order;
    float even when ``index`` is empty, where ``np.bincount`` gives int64."""
    return np.bincount(index, weights=weights, minlength=size).astype(float, copy=False)


def _log_odds(log_em: np.ndarray, class_prior: float, rows: np.ndarray, cells: np.ndarray, size: int) -> np.ndarray:
    """log P(y=1, row) - log P(y=0, row) for ``size`` rows, from ``log_em[y, j, v]``
    and the rows' voted cells: an all-abstain row's log-odds, plus each voted
    cell's change from an abstain, summed by ``np.bincount`` in cell order."""
    odds = log_em[1] - log_em[0]  # (m, 3)
    d = _sums(rows, (odds - odds[:, :1]).take(cells), size)
    d += math.log(class_prior) - math.log(1.0 - class_prior) + sum(odds[:, 0].tolist())
    return d


def _softplus(d: np.ndarray) -> np.ndarray:
    """log(1 + exp(d)) without overflow."""
    softplus = np.log1p(np.exp(-np.abs(d)))
    softplus += np.maximum(d, 0.0)
    return softplus


def fit_ci_em(matrix: LabelMatrix, cfg: FitConfig = FitConfig()) -> tuple[CIParams, FitReport]:
    """EM for the mixture-of-products model with a latent Bernoulli class.

    Each distinct row starts at class-1 responsibility 0.7 if it has more positive
    than negative votes, else 0.3, +0.05 at even and -0.05 at odd positions in sorted
    order, so the fit draws nothing and row order cannot change it; probabilities
    are floored at PROB_FLOOR and renormalized after every M-step.  An iteration
    reads only the voted cells of the distinct rows: the M-step's class-1 voted
    masses and the E-step's log-odds are one ``np.bincount`` each, and a class's
    abstain mass is its total less its voted mass.  No sum goes through BLAS, so
    the fit does not depend on the thread count.  After convergence
    the classes are canonicalized so class 1 better matches vote value 1: by
    mean P(emit 1 | class), then LF by LF, with gaps of 1e-9 or less tying.
    """
    if matrix.n < 2:
        raise ValidationError(f"CI fitting requires n >= 2 rows, got {matrix.n}")
    n, m = matrix.n, matrix.m
    patterns, counts = _patterns(matrix.values)
    counts = counts.astype(float)
    rows, cells = _voted_cells(patterns)
    # the rows' count of each (LF, emission); class 0's masses are these less
    # class 1's, so the classes' masses are base + sign * (class 1's masses)
    table = _sums(cells, counts.take(rows), 3 * m).reshape(m, 3)
    table[:, 0] = n - table.sum(axis=1)
    base, sign = np.zeros((2, m, 3)), np.array([-1.0, 1.0]).reshape(2, 1, 1)
    base[0] = table

    # the state: each distinct row's starting class-1 responsibility times its count
    r1 = np.where((patterns == 1).sum(axis=1) > (patterns == 0).sum(axis=1), 0.7, 0.3)
    mass1 = counts * (r1 + np.where(np.arange(len(counts)) % 2, -0.05, 0.05))

    def step(state):
        # M-step from the responsibilities, then the likelihood of the new
        # parameters and the responsibilities they imply (the next E-step);
        # the fit is a batch of one, so each state array has a member axis
        mass1 = state[-1][0]
        mass = float(mass1.sum())
        prior = min(max(mass / n, PROB_FLOOR), 1.0 - PROB_FLOOR)
        voted1 = _sums(cells, mass1.take(rows), 3 * m).reshape(m, 3)
        voted1[:, 0] = mass - voted1[:, 1] - voted1[:, 2]
        # emissions[y, j, v]: each class's masses over its total, where an abstain
        # mass that is 0 may round below it; floored by mixing with uniform, so every
        # probability stays >= PROB_FLOOR and each distribution sums to 1
        emissions = np.maximum(base + sign * voted1, 0.0)
        emissions *= np.divide(1.0 - 3.0 * PROB_FLOOR, [n - mass, mass])[:, None, None]
        emissions += PROB_FLOOR
        log_em = np.log(emissions)
        d = _log_odds(log_em, prior, rows, cells, len(counts))
        softplus = _softplus(d)
        # a row's log-likelihood is its class-0 score plus softplus(d), and the
        # count-weighted class-0 scores sum from the emission counts
        ll = n * math.log(1.0 - prior) + (table * log_em[0]).sum() + (counts * softplus).sum()
        mass1 = counts * np.exp(d - softplus)
        return (np.array([prior]), emissions[None], mass1[None]), np.array([ll])

    [((prior, emissions, _), report)] = _fit_loop(step, (mass1[None],), cfg, "ci-em")
    prior, emissions = float(prior), emissions.transpose(1, 0, 2)

    # canonicalize by the first gap above 1e-9, so rounding cannot decide
    gap = emissions[:, 1, 2] - emissions[:, 0, 2]
    decisive = [d for d in (gap.mean(), *gap) if abs(d) > 1e-9]
    if decisive and decisive[0] < 0:
        prior = 1.0 - prior
        emissions = emissions[:, ::-1, :]

    return CIParams(class_prior=prior, emissions=emissions), report


def ci_posterior(params: CIParams, matrix: LabelMatrix) -> np.ndarray:
    """Exact Bayes posterior P(y=1 | row) for every row, from its voted cells."""
    if matrix.m != params.m:
        raise ValidationError(
            f"matrix has {matrix.m} columns but the model expects {params.m}"
        )
    log_em = np.log(params.emissions).transpose(1, 0, 2)
    d = _log_odds(log_em, params.class_prior, *_voted_cells(matrix.values), matrix.n)
    return np.exp(d - _softplus(d))


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
