"""One-factor Factor Analysis on labelling matrices.

The generative model treats each row x of the matrix as a linear map of one
Gaussian factor z:

    x = w z + c + eps,    z ~ N(0, 1),    eps ~ N(0, diag(psi))

so the marginal over rows is N(c, Sigma) with Sigma = w w^T + diag(psi).
The bias c is fixed at the column means (its closed-form maximum-likelihood
value); the loadings w and the noise variances psi, both (m,) vectors, are
fitted either by expectation-maximization or by coordinate-ascent
variational inference on the evidence lower bound.  Both fit from one start,
the top eigenvector of S below, so no fit draws random numbers.

Both fits see the rows only through n, c and S = (X - c)^T (X - c) / n.  The
posterior precision of z is the scalar H = 1 + w^T Psi^-1 w >= 1, its variance
is G = 1 / H, and a centred row x has posterior mean a^T x with a = Psi^-1 w G,
so every step and objective needs only S a and scalars: O(m^2) per iteration
after one O(n m^2) pass.  With one factor the mean-field family holds the exact
posterior, so both routes take the same update; they differ only in the
objective that they trace.

Every step also works on a stack of problems: S, n, w, psi and the carried
E-step terms may carry a leading member axis.  The steps use per-member
operations only (stacked matmul, diagonals, and dot products as stacked
(1, m) @ (m, 1) matmuls), so a member's numbers are bit-identical whether it
is fitted alone or in a batch.  ``_fit_loop`` is the one driver: it steps all
members in lockstep, and a single fit is a batch of one.

Fitting accepts a :class:`~falabel.labelling.LabelMatrix` or any (n, m) float
array, read as given.  A label matrix's votes are read signed: abstain 0,
negative -1 and positive 1, the coding of data programming (Ratner et al.
2016).  Then loadings that sum to >= 0 point to the positive class, and that
one rule fixes the factor's sign, at the start and in ``build_label_model``.
This module reads and writes no file: the model file is ``label_model``'s.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, ValidationError
from .labelling import LabelMatrix, _Frozen, _check_count, _float_array

LOG_2PI = float(np.log(2.0 * np.pi))
PSI_FLOOR = 1e-6  # clamps the noise variances at every update, so constant columns keep psi > 0
_SIGNED = np.array([-1.0, 1.0, 0.0])  # indexed by a cell's vote: 0 -> -1, 1 -> 1, and ABSTAIN (-1) -> 0
# each fitting method's name, its route, and the objective that it traces
_OBJECTIVES = {"fa-em": "log-likelihood", "fa-vi": "evidence bound", "ci-em": "log-likelihood"}


@dataclass(frozen=True)
class FitConfig:
    """The settings of every fit: FA-EM, FA-VI, CI-EM and the sweep take one.

    Parameters
    ----------
    max_iter : int
        Iteration cap.
    tol : float
        Absolute objective improvement below which the fit stops; finite and > 0.
    seed : int
        Drives only the sweep's subsamples; no fit draws a random number.
    """

    max_iter: int = 1000
    tol: float = 1e-4
    seed: int = 123

    def __post_init__(self):
        _check_count("max_iter", self.max_iter, 1)
        if isinstance(self.tol, bool) or not isinstance(self.tol, numbers.Real):
            raise ValidationError(f"tol must be a real number, got {self.tol!r}")
        if not 0 < self.tol < math.inf:
            raise ValidationError(f"tol must be finite and > 0, got {self.tol}")
        _check_count("seed", self.seed, 0)


class FAParams(_Frozen):
    """Fitted one-factor parameters: three vectors of one length, the LF count
    ``m`` (a property, ``len(c)``).

    Attributes
    ----------
    w : ndarray, shape (m,)
        The loadings.
    c : ndarray, shape (m,)
        Bias (column means of the training data).
    psi : ndarray, shape (m,)
        Diagonal noise variances, all strictly positive.
    """

    def __init__(self, w: np.ndarray, c: np.ndarray, psi: np.ndarray):
        self.__dict__.update(w=w, c=c, psi=psi)
        for name in ("c", "w", "psi"):  # c first: w and psi must take its shape
            arr = _float_array(getattr(self, name), name).copy()
            if arr.ndim != 1 or not arr.size or arr.shape != np.shape(self.c):
                raise ValidationError(f"{name} must have shape (m,) with m = len(c) >= 1, got {arr.shape}")
            if not np.isfinite(arr).all():
                raise ValidationError(f"{name} contains non-finite values")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if not (self.psi > 0).all():
            raise ValidationError(f"psi entries must be > 0, got min {self.psi.min()}")

    @property
    def m(self) -> int:
        """The number of LFs."""
        return len(self.c)

    def sigma(self) -> np.ndarray:
        """Model covariance Sigma = w w^T + diag(psi)."""
        return np.outer(self.w, self.w) + np.diag(self.psi)


class PosteriorMoments(_Frozen):
    """Posterior factor moments: per-row means and the shared variance G."""

    def __init__(self, mean: np.ndarray, var: float):  # mean: (n,)
        self.__dict__.update(mean=mean, var=var)


@dataclass(frozen=True)
class FitReport:
    """Optimization trace of a fit.

    ``route`` is the method, "fa-em", "fa-vi" or "ci-em", and ``final_log_likelihood``
    its objective: the evidence lower bound for "fa-vi", else the log-likelihood.
    """

    iterations: int
    final_log_likelihood: float
    ll_trace: tuple[float, ...] = field(repr=False)
    converged: bool
    route: str

    def __post_init__(self):
        if self.route not in _OBJECTIVES:
            raise ValidationError(f"route must be one of {tuple(_OBJECTIVES)}, got {self.route!r}")
        if self.iterations != len(self.ll_trace):
            raise ValidationError("iterations must equal the trace length")


def _as_float_matrix(data, m: int | None = None) -> np.ndarray:
    """``data`` as a finite float matrix, a label matrix's votes signed; given the
    model's ``m``, it must have m columns.  The votes index ``_SIGNED`` directly,
    so no int64 temporary of the matrix's size is made."""
    X = _SIGNED[data.values] if isinstance(data, LabelMatrix) else _float_array(data, "data")
    if X.ndim != 2:
        raise ValidationError(f"data must be a 2-d array, got shape {X.shape}")
    if m is not None and X.shape[1] != m:
        raise ValidationError(f"matrix has {X.shape[1]} columns but the model expects {m}")
    if not np.isfinite(X).all():
        raise ValidationError("input matrix contains non-finite values")
    return X


def _second_moment(X: np.ndarray, c: np.ndarray) -> np.ndarray:
    """S = (X - c)^T (X - c) / n, the second moment of the rows about c (0 if none)."""
    Xc = X - c
    return Xc.T @ Xc / max(len(Xc), 1)


def _sum_nonnegative(w: np.ndarray) -> np.ndarray:
    """The sign rule: ``w``, or ``-w`` when its entries sum to < 0.  Negating w
    negates every posterior mean exactly, so scores flip with no rounding."""
    return -w if w.sum() < 0.0 else w


def _init_params(S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The svd start: w is the top eigenvector of S scaled by the square root of
    its eigenvalue, under the sign rule.  The update maps -w to -w exactly, so a
    fit's sign is its start's; ``build_label_model`` applies the rule to the fitted w."""
    eigval, eigvec = np.linalg.eigh(S)  # ascending
    w = _sum_nonnegative(eigvec[:, -1] * np.sqrt(max(eigval[-1], 0.0)))
    return w, np.maximum(np.diag(S) - w**2, PSI_FLOOR)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Each member's dot product of the vectors a and b (leading axes run over members).

    A stacked (1, m) @ (m, 1) matmul takes the BLAS dot that np.vdot takes, so it
    rounds as np.vdot does, alone or in a batch."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _estep(S: np.ndarray, w: np.ndarray, psi: np.ndarray) -> tuple:
    """The fit state (w, psi, S a, a^T S a, H) at (w, psi): the E-step's terms.

    H = 1 + w^T Psi^-1 w >= 1 is the posterior precision and a = Psi^-1 w / H,
    so the average E[z^2] is 1 / H + a^T S a.  The arguments may carry leading
    member axes; S a is then (..., m), and a^T S a and H are (...,).
    """
    pw = (1.0 / psi) * w
    H = 1.0 + _dot(w, pw)
    a = pw * (1.0 / H)[..., None]
    Sa = (S @ a[..., None])[..., 0]
    return w, psi, Sa, _dot(a, Sa), H


def _row_log_likelihood(S, w, psi, Sa, aSa, H) -> np.ndarray:
    """The mean log-likelihood per row at the state's (w, psi).

    -1/2 (m log 2pi + log|Sigma| + tr(Sigma^-1 S)) takes log|Sigma| = sum log psi +
    log H and, from x^T Sigma^-1 x = |x - w a^T x|^2_Psi^-1 + (a^T x)^2,
    tr(Sigma^-1 S) = a^T S a + sum_j (S - 2 S a w^T + w a^T S a w^T)_jj / psi_j.
    That form is stationary in a, so the rounding of 1 / H enters it at second
    order; the equal diag(S) . psi^-1 - (Psi^-1 w) . S a takes it at first order
    and drifts by up to 1e-5 relative where psi sits at the floor.
    """
    precision = 1.0 / psi
    quad = _dot(S.diagonal(0, -2, -1), precision) + _dot(precision * w, w * aSa[..., None] - 2.0 * Sa) + aSa
    logdet = np.log(psi).sum(axis=-1) + np.log(H)
    return -0.5 * (psi.shape[-1] * LOG_2PI + logdet + quad)


def _update(S, n, w, psi, Sa, aSa, H, route: str) -> tuple[tuple, np.ndarray]:
    """One iteration of either FA route: the M-step from the carried E-step, then
    the E-step at the new (w, psi); returns the new state and the route's objective.

    The M-step is w = S a / E[z^2], taken as S a times 1 / E[z^2]: at m >= 2
    that rounds as a LAPACK solve of w E[z^2] = S a does, so a fit keeps the
    bits that a solve gave it.  psi_fit = diag(S) - S a * w, and psi clamps
    psi_fit at PSI_FLOOR.

    "fa-em" traces the log-likelihood at the new (w, psi).  "fa-vi" traces the
    bound under the old posterior and the new (w, psi),
    -n/2 (sum psi_fit / psi + sum(log 2pi + log psi) + E[z^2] - log G - 1):
    the residual x - w a^T x and the posterior variance G through w, weighted
    by psi^-1, average sum_j (S - 2 S a w^T + w E[z^2] w^T)_jj / psi_j, and as
    w E[z^2] = S a, that is sum_j psi_fit_j / psi_j.
    """
    G = 1.0 / H
    Ezz = G + aSa
    w = Sa * (1.0 / Ezz)[..., None]
    psi_fit = S.diagonal(0, -2, -1) - Sa * w
    state = _estep(S, w, np.maximum(psi_fit, PSI_FLOOR))
    if route == "fa-em":
        return state, n * _row_log_likelihood(S, *state)
    psi = state[1]
    terms = (psi_fit / psi).sum(axis=-1) + (LOG_2PI + np.log(psi)).sum(axis=-1)
    return state, -0.5 * n * (terms + Ezz - np.log(G) - 1.0)


def _fit_loop(step, state, cfg: FitConfig, route: str) -> list:
    """The one iteration loop: every fitter, named by ``route``, steps a batch of members through it.

    ``state`` is a tuple of arrays whose leading axis runs over the members;
    ``step(state)`` returns the next state of those members and each one's
    objective there, so a member's final objective belongs to its returned
    state.  All active members step at once, and a member leaves the batch
    when an iteration after its first improves its objective by less than
    ``cfg.tol`` (converged) or at ``cfg.max_iter``.  As each step is built from
    per-member operations only, every member's trace, iteration count and
    result are bit-identical to running it alone.

    Any failure ends the whole batch: an error that the step raises passes
    through, and a member's non-finite objective raises
    NumericalError("non-finite <_OBJECTIVES[route]> at iteration N").

    Returns
    -------
    list
        One (state, FitReport) per member.
    """
    size = len(state[0])
    results: list = [None] * size
    traces: list[list[float]] = [[] for _ in range(size)]
    members = list(range(size))  # the active members, in batch order
    it = 0
    while members:
        state, values = step(state)
        keep = []  # positions in the batch of the members that go on
        for i, (j, value) in enumerate(zip(members, values.tolist())):
            if not math.isfinite(value):
                raise NumericalError(f"non-finite {_OBJECTIVES[route]} at iteration {it + 1}")
            trace = traces[j]
            converged = it > 0 and value - trace[-1] < cfg.tol
            trace.append(value)
            if converged or it + 1 == cfg.max_iter:
                report = FitReport(
                    iterations=len(trace),
                    final_log_likelihood=trace[-1],
                    ll_trace=tuple(trace),
                    converged=converged,
                    route=route,
                )
                results[j] = (tuple(x[i] for x in state), report)
            else:
                keep.append(i)
        if len(keep) < len(members):
            members = [members[i] for i in keep]
            state = tuple(x[keep] for x in state)
        it += 1
    return results


def _reduce_rows(data) -> tuple[np.ndarray, np.ndarray, int]:
    """Check the rows and reduce them to (c, S, n), which must be finite."""
    X = _as_float_matrix(data)
    n = len(X)
    if n < 2:
        raise ValidationError(f"fitting requires n >= 2 rows, got {n}")
    with np.errstate(all="ignore"):  # an overflow is raised below, once
        c = X.mean(axis=0)
        S = _second_moment(X, c)
    if not (np.isfinite(c).all() and np.isfinite(S).all()):
        raise NumericalError("column means c or second moment S of the rows not finite")
    return c, S, n


def _fit_fa_batch(datas, cfg: FitConfig, route: str) -> list:
    """Fit each data by ``route`` ("fa-em" or "fa-vi") under ``cfg`` in one lockstep batch.

    Each member's rows are checked and reduced to (n, c, S), and its start
    state is the E-step at its own svd start (w, psi); then _fit_loop steps
    all members at once by ``_update``.  The members must share m.  All or
    nothing: the first ValidationError or NumericalError met ends the batch,
    and a LinAlgError in the setup raises
    NumericalError("<error> at the initial parameters").

    Returns
    -------
    list
        One (FAParams, FitReport) per member, in order.
    """
    biases, states = [], []
    for data in datas:
        c, S, n = _reduce_rows(data)
        try:
            # n as a float: the objectives multiply by it without a cast, and as exactly
            states.append((S, float(n), *_estep(S, *_init_params(S))))
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"{exc} at the initial parameters") from None
        biases.append(c)

    def step(state):
        S, n, *fit = state
        fit, objectives = _update(S, n, *fit, route)
        return (S, n, *fit), objectives

    fits = _fit_loop(step, tuple(map(np.stack, zip(*states))), cfg, route)
    return [(FAParams(w=w, c=c, psi=psi), report) for c, ((_, _, w, psi, *_), report) in zip(biases, fits)]


def fit_fa_em(data, cfg: FitConfig = FitConfig()) -> tuple[FAParams, FitReport]:
    """Fit the Factor Analysis model by expectation-maximization.

    Parameters
    ----------
    data : LabelMatrix or (n, m) array
        Observations; a labelling matrix's votes are read signed (abstain 0).
    cfg : FitConfig
        Stopping rule; the fit always starts from the svd of S.

    Returns
    -------
    (FAParams, FitReport)
        Fitted parameters (c fixed at the column means) and the
        log-likelihood trace, which is non-decreasing up to the psi clamp.
    """
    return _fit_fa_batch([data], cfg, "fa-em")[0]


def fit_fa_vi(data, cfg: FitConfig = FitConfig()) -> tuple[FAParams, FitReport]:
    """Fit the Factor Analysis model by maximizing the evidence lower bound.

    Coordinate ascent alternates the closed-form mean-field update of the
    per-row Gaussian posteriors q(z_i) with point updates of (w, psi), and
    each block maximizes the bound exactly, so the trace is monotone.  With
    one factor the family holds the exact posterior: the iterates are those
    of EM, and the final bound matches the marginal log-likelihood.
    """
    return _fit_fa_batch([data], cfg, "fa-vi")[0]


def posterior_moments(params: FAParams, data) -> PosteriorMoments:
    """Exact posterior moments of the factor for every row.

    Returns
    -------
    PosteriorMoments
        ``var`` is G = 1 / (1 + w^T Psi^-1 w), shared by all rows;
        ``mean[i]`` is G w^T Psi^-1 (x_i - c).
    """
    X = _as_float_matrix(data, params.m)
    with np.errstate(all="ignore"):  # a model this degenerate raises NumericalError below
        precision = 1.0 / params.psi
        H = 1.0 + _dot(params.w * precision, params.w)
        G = 1.0 / H
        mean = (X - params.c) @ (precision * params.w) * G
    if not (np.isfinite(H) and np.isfinite(mean).all()):
        raise NumericalError("posterior precision or factor means not finite")
    return PosteriorMoments(mean=mean, var=float(G))


def log_likelihood(params: FAParams, data) -> float:
    """Gaussian log-likelihood of the rows under N(c, w w^T + diag(psi))."""
    X = _as_float_matrix(data, params.m)
    S = _second_moment(X, params.c)
    return float(len(X) * _row_log_likelihood(S, *_estep(S, params.w, params.psi)))
