"""Synthetic labelling matrices with known ground truth.

Rows draw a Bernoulli class label; each LF independently abstains with
probability 1 - propensity and otherwise votes the true class with its
accuracy.  Because the generative law is known, an exact MAP predictor
(the Bayes oracle) upper-bounds what any label model can achieve on the
generated data.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import ValidationError
from .labelling import ABSTAIN, GoldLabels, LabelMatrix, _check_count, _dump_json, _fields, _float_array, _json_int, _json_number, _read_json


@dataclass(frozen=True)
class SyntheticSpec:
    """Generative configuration: class prior, per-LF accuracies and propensities.

    ``accuracies[j]`` is P(correct vote | LF j votes), in (0.5, 1];
    ``propensities[j]`` is P(LF j votes), in (0, 1].  Noise is symmetric
    across classes and abstention is independent of the class.
    """

    n: int
    m: int
    class_prior: float
    accuracies: tuple[float, ...]
    propensities: tuple[float, ...]
    seed: int = 123

    def __post_init__(self):
        _check_count("n", self.n, 1)
        _check_count("m", self.m, 1)
        class_prior = _float_array(self.class_prior, "class_prior")
        if class_prior.ndim or not 0.0 < class_prior < 1.0:
            raise ValidationError(f"class_prior must be in (0, 1), got {self.class_prior}")
        _check_count("seed", self.seed, 0)
        accuracies, propensities = self._vector("accuracies"), self._vector("propensities")
        for j, a in enumerate(accuracies):
            if not 0.5 < a <= 1.0:
                raise ValidationError(f"accuracy {a} for LF {j} not in (0.5, 1]")
        for j, q in enumerate(propensities):
            if not 0.0 < q <= 1.0:
                raise ValidationError(f"propensity {q} for LF {j} not in (0, 1]")
        object.__setattr__(self, "class_prior", float(class_prior))
        object.__setattr__(self, "accuracies", accuracies)
        object.__setattr__(self, "propensities", propensities)

    def _vector(self, name: str) -> tuple[float, ...]:
        """The field ``name`` as a tuple of m floats, else a ValidationError naming it."""
        values = _float_array(getattr(self, name), name)
        if values.shape != (self.m,):
            got = len(values) if values.ndim == 1 else f"shape {values.shape}"
            raise ValidationError(f"need {self.m} {name}, got {got}")
        return tuple(values.tolist())

    @property
    def lf_names(self) -> tuple[str, ...]:
        return tuple(f"lf{j + 1}" for j in range(self.m))


def generate(spec: SyntheticSpec) -> tuple[LabelMatrix, GoldLabels]:
    """Draw (matrix, gold) deterministically from the spec's seed."""
    rng = np.random.default_rng(spec.seed)
    acc = np.asarray(spec.accuracies)
    prop = np.asarray(spec.propensities)
    y = rng.random(spec.n) < spec.class_prior
    # One byte per vote until LabelMatrix's int64 copy: a vote is 1 where being correct equals y.
    votes = np.equal(rng.random((spec.n, spec.m)) < acc, y[:, None]).view(np.int8)
    fires = rng.random((spec.n, spec.m)) < prop
    values = np.where(fires, votes, np.int8(ABSTAIN))
    del votes, fires
    return LabelMatrix(values=values, lf_names=spec.lf_names), GoldLabels(values=y)


def bayes_oracle(spec: SyntheticSpec, matrix: LabelMatrix) -> np.ndarray:
    """Exact MAP labels under the true generative parameters.

    Abstains multiply both class likelihoods by the same propensity
    factor, so only the prior and the vote terms enter the posterior
    log-odds.  Exact ties resolve to label 0.  A vote of an LF with
    accuracy 1 decides its row; a row on which two such LFs disagree has
    probability 0 under the spec, and is taken as an exact tie.
    """
    if matrix.m != spec.m:
        raise ValidationError(
            f"matrix has {matrix.m} columns but the spec has m={spec.m}"
        )
    acc = np.asarray(spec.accuracies)
    sure = acc == 1.0
    log_odds_vote = np.log(acc) - np.log1p(-np.where(sure, 0.0, acc))  # log(a / (1 - a)), 0 where sure
    values = matrix.values
    contrib = np.where(values == 1, log_odds_vote, 0.0)  # one float array: the votes' terms
    np.copyto(contrib, -log_odds_vote, where=values == 0)
    labels = np.log(spec.class_prior) - np.log1p(-spec.class_prior) + contrib.sum(axis=1) > 0
    if sure.any():
        pos, neg = ((values[:, sure] == vote).any(axis=1) for vote in (1, 0))
        labels = np.where(pos | neg, pos & ~neg, labels)
    return labels.astype(np.int64)


def save_spec(spec: SyntheticSpec, path) -> None:
    _dump_json(asdict(spec), path)


def load_spec(path) -> SyntheticSpec:
    payload = _read_json(path, "synthetic spec")
    with _fields(f"synthetic spec {path}"):
        return SyntheticSpec(
            n=_json_int(payload, "n"),
            m=_json_int(payload, "m"),
            class_prior=_json_number(payload, "class_prior"),
            accuracies=_json_number(payload, "accuracies", 1),
            propensities=_json_number(payload, "propensities", 1),
            seed=_json_int(payload, "seed") if "seed" in payload else 123,
        )
