"""One-factor Factor Analysis on labelling matrices.

The generative model treats each row x of the matrix as a linear map of one
Gaussian factor z:

    x = w z + c + eps,    z ~ N(0, 1),    eps ~ N(0, diag(psi))

so the marginal over rows is N(c, Sigma) with Sigma = w w^T + diag(psi).
The bias c is fixed at the column means (its closed-form maximum-likelihood
value); w and psi are fitted either by expectation-maximization or by
coordinate-ascent variational inference on the evidence lower bound.  The
loadings w are stored as the one column of an (m, 1) matrix W.

Both fits see the rows only through n, c and S = (X - c)^T (X - c) / n.  The
posterior precision of z is the scalar H = 1 + w^T Psi^-1 w >= 1, its variance
is G = 1 / H, and a centred row x has posterior mean a^T x with a = Psi^-1 w G,
so every step and objective needs only S a and scalars: O(m^2) per iteration
after one O(n m^2) pass.  With one factor the mean-field family holds the exact
posterior, so both routes take the same update; they differ only in the
objective that they trace.

Every step also works on a stack of problems: S, n, W, psi and the carried
E-step terms may carry a leading member axis.  The steps use per-member
operations only (stacked matmul, diagonals, and dot products as stacked
(1, N) @ (N, 1) matmuls), so a member's numbers are bit-identical whether it
is fitted alone or in a batch.  ``_fit_loop`` is the one driver: it steps all
members in lockstep, and a single fit is a batch of one.

Fitting accepts a :class:`~falabel.labelling.LabelMatrix` (entries cast to
the reals -1.0/0.0/1.0) or any (n, m) float array.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, ValidationError
from .labelling import LabelMatrix, _check_count, _fields, _json_int, _json_number

LOG_2PI = float(np.log(2.0 * np.pi))
PSI_FLOOR = 1e-6  # clamps the noise variances at every update, so constant columns keep psi > 0


@dataclass(frozen=True)
class FitConfig:
    """Knobs shared by both fitting routes.

    Parameters
    ----------
    max_iter : int
        Iteration cap.
    tol : float
        Absolute objective improvement below which the fit stops.
    seed : int
        Drives the random initialization route only.
    init : str
        "svd" seeds w from the top eigenvector of S scaled by the square root
        of its eigenvalue; "random" draws w from N(0, 0.01).  The initial w
        is then flipped to sum to >= 0, which fixes the sign of the fitted w.
    """

    max_iter: int = 1000
    tol: float = 1e-4
    seed: int = 123
    init: str = "svd"

    def __post_init__(self):
        _check_count("max_iter", self.max_iter, 1)
        if isinstance(self.tol, bool) or not isinstance(self.tol, numbers.Real):
            raise ValidationError(f"tol must be a real number, got {self.tol!r}")
        if not self.tol > 0:
            raise ValidationError(f"tol must be > 0, got {self.tol}")
        _check_count("seed", self.seed, 0)
        if self.init not in ("svd", "random"):
            raise ValidationError(f"init must be 'svd' or 'random', got {self.init!r}")


@dataclass(frozen=True)
class FAParams:
    """Fitted one-factor parameters.

    Attributes
    ----------
    W : ndarray, shape (m, 1)
        The loadings w, as a one-column matrix.
    c : ndarray, shape (m,)
        Bias (column means of the training data).
    psi : ndarray, shape (m,)
        Diagonal noise variances, all strictly positive.
    """

    W: np.ndarray
    c: np.ndarray
    psi: np.ndarray
    m: int

    def __post_init__(self):
        W = np.asarray(self.W, dtype=float).copy()
        c = np.asarray(self.c, dtype=float).copy()
        psi = np.asarray(self.psi, dtype=float).copy()
        _check_count("m", self.m, 1)
        if W.shape != (self.m, 1):
            raise ValidationError(f"W must have shape ({self.m}, 1), got {W.shape}")
        if c.shape != (self.m,):
            raise ValidationError(f"c must have shape ({self.m},), got {c.shape}")
        if psi.shape != (self.m,):
            raise ValidationError(f"psi must have shape ({self.m},), got {psi.shape}")
        for name, arr in (("W", W), ("c", c), ("psi", psi)):
            if not np.isfinite(arr).all():
                raise ValidationError(f"{name} contains non-finite values")
        if not (psi > 0).all():
            raise ValidationError(f"psi entries must be > 0, got min {psi.min()}")
        for arr in (W, c, psi):
            arr.flags.writeable = False
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "psi", psi)

    def sigma(self) -> np.ndarray:
        """Model covariance Sigma = W W^T + diag(psi)."""
        return self.W @ self.W.T + np.diag(self.psi)


@dataclass(frozen=True)
class PosteriorMoments:
    """Posterior factor moments: per-row means and the shared variance G."""

    mean: np.ndarray  # (n, 1)
    cov: np.ndarray  # (1, 1)


@dataclass(frozen=True)
class FitReport:
    """Optimization trace of a fit.

    ``final_log_likelihood`` holds the route's objective: the Gaussian
    log-likelihood for "em" and the evidence lower bound for "vi".
    """

    iterations: int
    final_log_likelihood: float
    ll_trace: tuple[float, ...] = field(repr=False)
    converged: bool
    route: str

    def __post_init__(self):
        if self.route not in ("em", "vi"):
            raise ValidationError(f"route must be 'em' or 'vi', got {self.route!r}")
        if self.iterations != len(self.ll_trace):
            raise ValidationError("iterations must equal the trace length")


def _as_float_matrix(data, m: int | None = None) -> np.ndarray:
    """``data`` as a float matrix; given the model's ``m``, it must have m columns."""
    X = np.asarray(data.values if isinstance(data, LabelMatrix) else data, dtype=float)
    if X.ndim != 2:
        raise ValidationError(f"data must be a 2-d array, got shape {X.shape}")
    if m is not None and X.shape[1] != m:
        raise ValidationError(f"matrix has {X.shape[1]} columns but the model expects {m}")
    return X


def _second_moment(X: np.ndarray, c: np.ndarray) -> np.ndarray:
    """S = (X - c)^T (X - c) / n, the second moment of the rows about c (0 if none)."""
    Xc = X - c
    return Xc.T @ Xc / max(len(Xc), 1)


def _init_params(S: np.ndarray, cfg: FitConfig) -> tuple[np.ndarray, np.ndarray]:
    if cfg.init == "svd":
        eigval, eigvec = np.linalg.eigh(S)  # ascending
        W = eigvec[:, -1:] * np.sqrt(max(eigval[-1], 0.0))
    else:
        rng = np.random.default_rng(cfg.seed)
        W = rng.normal(0.0, 0.1, size=(len(S), 1))
    # the sign rule; the update maps -w to -w exactly, so it fixes the fitted sign
    W = np.where(W.sum(axis=0) < 0.0, -W, W)
    psi = np.maximum(np.diag(S) - W[:, 0] ** 2, PSI_FLOOR)
    return W, psi


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Each member's dot product of the (m, 1) columns a and b, as a (1, 1) matrix.

    A stacked (1, m) @ (m, 1) matmul takes the BLAS dot that np.vdot takes, so it
    rounds as np.vdot does, alone or in a batch."""
    return a.swapaxes(-1, -2) @ b


def _estep(S: np.ndarray, W: np.ndarray, psi: np.ndarray) -> tuple:
    """The fit state (W, psi, S a, a^T S a, H) at (W, psi): the E-step's terms.

    H = 1 + w^T Psi^-1 w >= 1 is the posterior precision and a = Psi^-1 w / H,
    so the average E[z^2] is 1 / H + a^T S a.  The arguments may carry leading
    member axes; S a is then (..., m, 1), and a^T S a and H are (..., 1, 1).
    """
    PW = (1.0 / psi)[..., None] * W
    H = 1.0 + _dot(W, PW)
    A = PW * (1.0 / H)
    SA = S @ A
    return W, psi, SA, _dot(A, SA), H


def _row_log_likelihood(S, W, psi, SA, AtSA, H) -> np.ndarray:
    """The mean log-likelihood per row at the state's (W, psi).

    -1/2 (m log 2pi + log|Sigma| + tr(Sigma^-1 S)) takes log|Sigma| = sum log psi +
    log H and, from x^T Sigma^-1 x = |x - w a^T x|^2_Psi^-1 + (a^T x)^2,
    tr(Sigma^-1 S) = a^T S a + sum_j (S - 2 S a w^T + w a^T S a w^T)_jj / psi_j.
    That form is stationary in a, so the rounding of 1 / H enters it at second
    order; the equal diag(S) . psi^-1 - (Psi^-1 w) . S a takes it at first order
    and drifts by up to 1e-5 relative where psi sits at the floor.
    """
    precision = 1.0 / psi
    quad = (
        _dot(S.diagonal(0, -2, -1)[..., None], precision[..., None])
        + _dot(precision[..., None] * W, W * AtSA - 2.0 * SA)
        + AtSA
    )[..., 0, 0]
    logdet = np.log(psi).sum(axis=-1) + np.log(H[..., 0, 0])
    return -0.5 * (psi.shape[-1] * LOG_2PI + logdet + quad)


def _update(S, n, W, psi, SA, AtSA, H, psi_floor: float, route: str) -> tuple[tuple, np.ndarray]:
    """One iteration of either route: the M-step from the carried E-step, then
    the E-step at the new (w, psi); returns the new state and the route's objective.

    The M-step is w = S a / E[z^2], taken as S a times 1 / E[z^2]: at m >= 2
    that rounds as a LAPACK solve of w E[z^2] = S a does, so a fit keeps the
    bits that a solve gave it.  psi_fit = diag(S) - S a * w, and psi clamps
    psi_fit at ``psi_floor``.

    "em" traces the log-likelihood at the new (w, psi).  "vi" traces the
    bound under the old posterior and the new (w, psi),
    -n/2 (sum psi_fit / psi + sum(log 2pi + log psi) + E[z^2] - log G - 1):
    the residual x - w a^T x and the posterior variance G through w, weighted
    by psi^-1, average sum_j (S - 2 S a w^T + w E[z^2] w^T)_jj / psi_j, and as
    w E[z^2] = S a, that is sum_j psi_fit_j / psi_j.
    """
    G = 1.0 / H
    Ezz = G + AtSA
    W = SA * (1.0 / Ezz)
    psi_fit = S.diagonal(0, -2, -1) - (SA * W)[..., 0]
    state = _estep(S, W, np.maximum(psi_fit, psi_floor))
    if route == "em":
        return state, n * _row_log_likelihood(S, *state)
    psi = state[1]
    terms = (psi_fit / psi).sum(axis=-1) + (LOG_2PI + np.log(psi)).sum(axis=-1)
    return state, -0.5 * n * (terms + Ezz[..., 0, 0] - np.log(G[..., 0, 0]) - 1.0)


_OBJECTIVES = {"em": "log-likelihood", "vi": "evidence bound"}


def _fit_loop(step, state, max_iter: int, tol: float, route: str, objective: str) -> list:
    """The one iteration loop: every fitter steps a batch of members through it.

    ``state`` is a tuple of arrays whose leading axis runs over the members;
    ``step(state)`` returns the next state of those members and each one's
    objective there, so a member's final objective belongs to its returned
    state.  All active members step at once, and a member leaves the batch
    when an iteration after its first improves its objective by less than
    ``tol`` (converged) or at ``max_iter``.  As each step is built from
    per-member operations only, every member's trace, iteration count and
    result are bit-identical to running it alone.

    Any failure ends the whole batch: a step that raises LinAlgError raises
    NumericalError("<error> at iteration N"), a NumericalError from the step
    passes through, and a member's non-finite objective raises
    NumericalError("non-finite <objective> at iteration N").

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
        try:
            state, values = step(state)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"{exc} at iteration {it + 1}") from None
        keep = []  # positions in the batch of the members that go on
        for i, (j, value) in enumerate(zip(members, values.tolist())):
            if not math.isfinite(value):
                raise NumericalError(f"non-finite {objective} at iteration {it + 1}")
            trace = traces[j]
            converged = it > 0 and value - trace[-1] < tol
            trace.append(value)
            if converged or it + 1 == max_iter:
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
    """Check the rows and reduce them to (c, S, n)."""
    X = _as_float_matrix(data)
    n = len(X)
    if n < 2:
        raise ValidationError(f"fitting requires n >= 2 rows, got {n}")
    if not np.isfinite(X).all():
        raise ValidationError("input matrix contains non-finite values")
    c = X.mean(axis=0)
    return c, _second_moment(X, c), n


def _fit_fa_batch(datas, cfgs, route: str) -> list:
    """Fit each (data, cfg) pair by ``route`` ("em" or "vi") in one lockstep batch.

    Each member's rows are checked and reduced to (n, c, S), and its start
    state is the E-step at its own initial (W, psi); then _fit_loop steps all
    members at once by ``_update``.  The members must share m, max_iter and
    tol.  All or nothing: the first ValidationError or NumericalError met
    ends the batch, and a LinAlgError in the setup raises
    NumericalError("<error> at the initial parameters").

    Returns
    -------
    list
        One (FAParams, FitReport) per member, in order.
    """
    biases, states = [], []
    for data, cfg in zip(datas, cfgs):
        c, S, n = _reduce_rows(data)
        try:
            # n as a float: the objectives multiply by it without a cast, and as exactly
            states.append((S, float(n), *_estep(S, *_init_params(S, cfg))))
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"{exc} at the initial parameters") from None
        biases.append(c)
    cfg = cfgs[0]  # max_iter and tol: the members share them

    def step(state):
        S, n, *fit = state
        fit, objectives = _update(S, n, *fit, PSI_FLOOR, route)
        return (S, n, *fit), objectives

    fits = _fit_loop(step, tuple(map(np.stack, zip(*states))), cfg.max_iter, cfg.tol, route, _OBJECTIVES[route])
    return [
        (FAParams(W=W, c=c, psi=psi, m=len(c)), report)
        for c, ((_, _, W, psi, *_), report) in zip(biases, fits)
    ]


def fit_fa_em(data, cfg: FitConfig = FitConfig()) -> tuple[FAParams, FitReport]:
    """Fit the Factor Analysis model by expectation-maximization.

    Parameters
    ----------
    data : LabelMatrix or (n, m) array
        Observations; labelling matrices are read as reals in {-1, 0, 1}.
    cfg : FitConfig
        Initialization and stopping rule.

    Returns
    -------
    (FAParams, FitReport)
        Fitted parameters (c fixed at the column means) and the
        log-likelihood trace, which is non-decreasing up to the psi clamp.
    """
    return _fit_fa_batch([data], [cfg], "em")[0]


def fit_fa_vi(data, cfg: FitConfig = FitConfig()) -> tuple[FAParams, FitReport]:
    """Fit the Factor Analysis model by maximizing the evidence lower bound.

    Coordinate ascent alternates the closed-form mean-field update of the
    per-row Gaussian posteriors q(z_i) with point updates of (w, psi), and
    each block maximizes the bound exactly, so the trace is monotone.  With
    one factor the family holds the exact posterior: the iterates are those
    of EM, and the final bound matches the marginal log-likelihood.
    """
    return _fit_fa_batch([data], [cfg], "vi")[0]


def posterior_moments(params: FAParams, data) -> PosteriorMoments:
    """Exact posterior moments of the factor for every row.

    Returns
    -------
    PosteriorMoments
        ``cov`` is G = 1 / (1 + w^T Psi^-1 w), shared by all rows;
        ``mean`` row i is G w^T Psi^-1 (x_i - c).
    """
    X = _as_float_matrix(data, params.m)
    precision = 1.0 / params.psi
    H = 1.0 + (params.W.T * precision) @ params.W
    G = 1.0 / H
    mean = (X - params.c) @ (precision[:, None] * params.W) @ G
    if not (np.isfinite(H).all() and np.isfinite(mean).all()):
        raise NumericalError("posterior precision or factor means not finite")
    return PosteriorMoments(mean=mean, cov=G)


def log_likelihood(params: FAParams, data) -> float:
    """Gaussian log-likelihood of the rows under N(c, W W^T + diag(psi))."""
    X = _as_float_matrix(data, params.m)
    S = _second_moment(X, params.c)
    return float(len(X) * _row_log_likelihood(S, *_estep(S, params.W, params.psi)))


def params_to_dict(params: FAParams) -> dict:
    """The JSON fields of the parameters, floats at full precision; ``k`` is always 1."""
    return {
        "k": 1,
        "m": int(params.m),
        "W": params.W.tolist(),
        "c": params.c.tolist(),
        "psi": params.psi.tolist(),
    }


def params_from_dict(payload: dict) -> FAParams:
    with _fields("model file"):
        if _json_int(payload, "k") != 1:
            raise ValidationError(f"field 'k' must be 1 (the model has one factor), got {payload['k']}")
        return FAParams(
            W=_json_number(payload, "W", 2),
            c=_json_number(payload, "c", 1),
            psi=_json_number(payload, "psi", 1),
            m=_json_int(payload, "m"),
        )
