"""Factor Analysis on labelling matrices.

The generative model treats each row x of the matrix as a linear map of a
low-dimensional Gaussian factor z:

    x = W z + c + eps,    z ~ N(0, I_k),    eps ~ N(0, diag(psi))

so the marginal over rows is N(c, Sigma) with Sigma = W W^T + diag(psi).
The bias c is fixed at the column means (its closed-form maximum-likelihood
value); W and psi are fitted either by expectation-maximization or by
coordinate-ascent variational inference on the evidence lower bound.

Both fits see the rows only through n, c and S = (X - c)^T (X - c) / n:
a centred row x has posterior factor mean A^T x, so every step and objective
needs only S A and k x k matrices: O(m^2 k) per iteration after one O(n m^2) pass.

Every step also works on a stack of problems: S, n, W, psi and the carried
E-step terms may carry a leading member axis.  The steps use per-member
operations only (stacked matmul and linalg, diagonals, and dot products as
stacked (1, N) @ (N, 1) matmuls), so a member's numbers are bit-identical
whether it is fitted alone or in a batch.  ``_fit_loop`` is the one driver:
it steps all members in lockstep, and a single fit is a batch of one.

Fitting accepts a :class:`~falabel.labelling.LabelMatrix` (entries cast to
the reals -1.0/0.0/1.0) or any (n, m) float array.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cache

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
    k : int
        Latent dimension (one factor suffices for dichotomization; two
        supports joint-plot exports).
    max_iter : int
        Iteration cap.
    tol : float
        Absolute objective improvement below which the fit stops.
    seed : int
        Drives the random initialization route only.
    init : str
        "svd" seeds W from the top-k eigenvectors of S scaled by the square
        roots of their eigenvalues; "random" draws W from N(0, 0.01).  Each
        column of the initial W is then flipped to sum to >= 0, which fixes
        the sign of the fitted W.
    """

    k: int = 1
    max_iter: int = 1000
    tol: float = 1e-4
    seed: int = 123
    init: str = "svd"

    def __post_init__(self):
        _check_count("k", self.k, 1)
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
    """Fitted Factor Analysis parameters.

    Attributes
    ----------
    W : ndarray, shape (m, k)
        Loading matrix.
    c : ndarray, shape (m,)
        Bias (column means of the training data).
    psi : ndarray, shape (m,)
        Diagonal noise variances, all strictly positive.
    """

    W: np.ndarray
    c: np.ndarray
    psi: np.ndarray
    k: int
    m: int

    def __post_init__(self):
        W = np.asarray(self.W, dtype=float).copy()
        c = np.asarray(self.c, dtype=float).copy()
        psi = np.asarray(self.psi, dtype=float).copy()
        if W.ndim != 2:
            raise ValidationError(f"W must be 2-dimensional, got shape {W.shape}")
        m, k = W.shape
        if (k, m) != (self.k, self.m):
            raise ValidationError(
                f"W shape {W.shape} inconsistent with declared m={self.m}, k={self.k}"
            )
        if self.k < 1:
            raise ValidationError(f"k must be >= 1, got {self.k}")
        if self.k > self.m:
            raise ValidationError(
                f"k exceeds number of labelling functions (k={self.k}, m={self.m})"
            )
        if c.shape != (m,):
            raise ValidationError(f"c must have shape ({m},), got {c.shape}")
        if psi.shape != (m,):
            raise ValidationError(f"psi must have shape ({m},), got {psi.shape}")
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
    """Posterior factor moments: per-row means and the shared covariance G."""

    mean: np.ndarray  # (n, k)
    cov: np.ndarray  # (k, k)


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
        W = eigvec[:, ::-1][:, : cfg.k] * np.sqrt(np.maximum(eigval[::-1][: cfg.k], 0.0))
    else:
        rng = np.random.default_rng(cfg.seed)
        W = rng.normal(0.0, 0.1, size=(len(S), cfg.k))
    # the sign rule; EM and VI map -W to -W exactly, so it fixes the fitted sign
    W = np.where(W.sum(axis=0) < 0.0, -W, W)
    psi = np.maximum(np.diag(S) - (W**2).sum(axis=1), PSI_FLOOR)
    return W, psi


def _T(x: np.ndarray) -> np.ndarray:
    """Each member's matrix transposed."""
    return x.swapaxes(-1, -2)


@cache
def _eye(k: int) -> np.ndarray:
    """The k x k identity, built once and read-only."""
    eye = np.eye(k)
    eye.flags.writeable = False
    return eye


def _em_estep(S: np.ndarray, W: np.ndarray, psi: np.ndarray) -> tuple[tuple, np.ndarray]:
    """The EM state (W, psi, S A, average E[z z^T]) at (W, psi), and the mean
    log-likelihood per row there.

    With posterior precision H = I + W^T Psi^-1 W, G = H^-1 and A = Psi^-1 W G,
    a centred row x has posterior mean A^T x, and the average E[z z^T] is
    G + A^T S A.  The log-likelihood -1/2 (m log 2pi + log|Sigma| + tr(Sigma^-1 S))
    takes log|Sigma| = sum log psi + log|H| and, from x^T Sigma^-1 x =
    |x - W A^T x|^2_Psi^-1 + |A^T x|^2, tr(Sigma^-1 S) = tr(A^T S A) +
    sum_j (S - 2 S A W^T + W A^T S A W^T)_jj / psi_j.  That form is stationary
    in A, so the rounding of G enters it at second order; the equal
    diag(S) . psi^-1 - sum(Psi^-1 W * S A) takes it at first order and drifts
    by up to 1e-5 relative where psi sits at the floor.

    The arguments may carry leading member axes, and the log-likelihood then
    has their shape.
    """
    precision = 1.0 / psi
    PW = precision[..., None] * W
    H = _eye(W.shape[-1]) + (_T(W) * precision[..., None, :]) @ W
    sign, logdet_H = np.linalg.slogdet(H)
    if not sign.min() > 0:
        raise NumericalError(f"posterior precision not positive definite (determinant sign {sign.min()})")
    G = np.linalg.inv(H)
    A = PW @ G
    SA = S @ A
    AtSA = _T(A) @ SA
    # each member's dot products as stacked (1, N) @ (N, 1) matmuls: these take
    # the BLAS dot that np.vdot takes, so they round as np.vdot does
    row, column = W.shape[:-2] + (1, -1), W.shape[:-2] + (-1, 1)
    quad = (
        S.diagonal(0, -2, -1)[..., None, :] @ precision[..., None]
        + PW.reshape(row) @ (W @ AtSA - 2.0 * SA).reshape(column)
        + A.reshape(row) @ SA.reshape(column)
    )[..., 0, 0]
    logdet = np.log(psi).sum(axis=-1) + logdet_H
    return (W, psi, SA, G + AtSA), -0.5 * (psi.shape[-1] * LOG_2PI + logdet + quad)


def _em_step(S, W, psi, psi_floor):
    """One EM update of (W, psi) from S: the map that the EM fit iterates."""
    return _m_step(S, *_em_estep(S, W, psi)[0][2:], psi_floor)[:2]


def _m_step(
    S: np.ndarray, SA: np.ndarray, Ezz: np.ndarray, psi_floor: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (W, psi, psi_fit) update shared by EM and VI.

    Given SA = S A (the average x E[z]^T) and the average E[z z^T], W solves
    W Ezz = S A; psi_fit = diag(S) - rowsum(S A * W), and psi clamps it at ``psi_floor``.
    """
    W = _T(np.linalg.solve(_T(Ezz), _T(SA)))
    psi_fit = S.diagonal(0, -2, -1) - np.einsum("...jk,...jk->...j", SA, W)
    return W, np.maximum(psi_fit, psi_floor), psi_fit


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


def _reduce_rows(data, cfg: FitConfig) -> tuple[np.ndarray, np.ndarray, int]:
    """Check the rows and reduce them to (c, S, n)."""
    X = _as_float_matrix(data)
    n, m = X.shape
    if n < 2:
        raise ValidationError(f"fitting requires n >= 2 rows, got {n}")
    if cfg.k > m:
        raise ValidationError(f"k exceeds number of labelling functions (k={cfg.k}, m={m})")
    if not np.isfinite(X).all():
        raise ValidationError("input matrix contains non-finite values")
    c = X.mean(axis=0)
    return c, _second_moment(X, c), n


def _fit_fa_batch(datas, cfgs, route: str) -> list:
    """Fit each (data, cfg) pair by ``route`` ("em" or "vi") in one lockstep batch.

    Each member's rows are checked and reduced to (n, c, S) and its start
    state is formed from its own initial (W, psi); then _fit_loop steps all
    members at once by ``update(S, n, *state, PSI_FLOOR)``.  The members must
    share m, k, max_iter and tol.  All or nothing: the first
    ValidationError or NumericalError met ends the batch, and a LinAlgError
    raises NumericalError("<error> at the initial parameters") in the setup.

    Returns
    -------
    list
        One (FAParams, FitReport) per member, in order.
    """
    start, update, objective = _ROUTES[route]
    biases, states = [], []
    for data, cfg in zip(datas, cfgs):
        c, S, n = _reduce_rows(data, cfg)
        try:
            # n as a float: the objectives multiply by it without a cast, and as exactly
            states.append((S, float(n), *start(S, *_init_params(S, cfg))))
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"{exc} at the initial parameters") from None
        biases.append(c)
    cfg = cfgs[0]  # max_iter and tol: the members share them

    def step(state):
        S, n, *fit = state
        fit, objectives = update(S, n, *fit, PSI_FLOOR)
        return (S, n, *fit), objectives

    fits = _fit_loop(step, tuple(map(np.stack, zip(*states))), cfg.max_iter, cfg.tol, route, objective)
    return [
        (FAParams(W=W, c=c, psi=psi, k=W.shape[1], m=len(c)), report)
        for c, ((_, _, W, psi, *_), report) in zip(biases, fits)
    ]


def fit_fa_em(data, cfg: FitConfig = FitConfig()) -> tuple[FAParams, FitReport]:
    """Fit the Factor Analysis model by expectation-maximization.

    Parameters
    ----------
    data : LabelMatrix or (n, m) array
        Observations; labelling matrices are read as reals in {-1, 0, 1}.
    cfg : FitConfig
        Latent dimension, initialization, and stopping rule.

    Returns
    -------
    (FAParams, FitReport)
        Fitted parameters (c fixed at the column means) and the
        log-likelihood trace, which is non-decreasing up to the psi clamp.
    """
    return _fit_fa_batch([data], [cfg], "em")[0]


def _em_update(S, n, W, psi, SA, Ezz, psi_floor):
    """M-step from the carried E-step, then the state and log-likelihood at the new (W, psi)."""
    state, row_ll = _em_estep(S, *_m_step(S, SA, Ezz, psi_floor)[:2])
    return state, n * row_ll


def _vi_estep(W: np.ndarray, psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Optimal mean-field Gaussian posterior given (W, psi), as (A, v).

    A centred row x has posterior mean A^T x, the exact posterior mean; the
    diagonal variances v = 1 / diag(I + W^T Psi^-1 W) are shared by all
    rows.  With k = 1 the family contains the exact posterior, so no
    variational gap remains.
    """
    precision = 1.0 / psi
    H = _eye(W.shape[-1]) + (_T(W) * precision[..., None, :]) @ W  # posterior precision
    A = _T(np.linalg.solve(H, _T(precision[..., None] * W)))
    return A, 1.0 / H.diagonal(0, -2, -1)


def fit_fa_vi(data, cfg: FitConfig = FitConfig()) -> tuple[FAParams, FitReport]:
    """Fit the Factor Analysis model by maximizing the evidence lower bound.

    Coordinate ascent alternates the closed-form mean-field update of the
    per-row Gaussian posteriors q(z_i) with point updates of (W, psi).
    Each block maximizes the bound exactly, so the trace is monotone.  At
    k = 1 the variational family contains the exact posterior and the
    final bound matches the marginal log-likelihood.
    """
    return _fit_fa_batch([data], [cfg], "vi")[0]


def _vi_update(S, n, W, psi, psi_floor):
    """E-step, M-step, and the bound -n/2 (fit + smear + sum(log 2pi + log psi) +
    tr E[z z^T] - sum log v - k) under the old posterior and the new (W, psi).

    Fit plus smear, the residual x - W A^T x and the posterior variance through W
    weighted by psi^-1, averages sum_j (S - 2 S A W^T + W Ezz W^T)_jj / psi_j;
    as the M-step's W solves W Ezz = S A, that is sum_j psi_fit_j / psi_j.
    diag(H) >= 1 keeps v finite, so v[..., None] * I is diag(v) exactly."""
    A, v = _vi_estep(W, psi)
    SA = S @ A
    Ezz = v[..., None] * _eye(v.shape[-1]) + _T(A) @ SA
    W, psi, psi_fit = _m_step(S, SA, Ezz, psi_floor)
    terms = (
        (psi_fit / psi).sum(axis=-1)
        + (LOG_2PI + np.log(psi)).sum(axis=-1)
        + Ezz.trace(0, -2, -1)
        - np.log(v).sum(axis=-1)
    )
    return (W, psi), -0.5 * n * (terms - v.shape[-1])


# route -> (start(S, W, psi): the first state, the update, the objective's name)
_ROUTES = {
    "em": (lambda S, W, psi: _em_estep(S, W, psi)[0], _em_update, "log-likelihood"),
    "vi": (lambda S, W, psi: (W, psi), _vi_update, "evidence bound"),
}


def posterior_moments(params: FAParams, data) -> PosteriorMoments:
    """Exact posterior moments of the factor for every row.

    Returns
    -------
    PosteriorMoments
        ``cov`` is G = (I + W^T Psi^-1 W)^-1, shared by all rows;
        ``mean`` row i is G W^T Psi^-1 (x_i - c).
    """
    X = _as_float_matrix(data, params.m)
    precision = 1.0 / params.psi
    H = np.eye(params.k) + (params.W.T * precision) @ params.W
    try:
        G = np.linalg.inv(H)
        # inv returns a wrong inverse of some finite H that is singular in floating point
        if np.isfinite(H).all() and np.linalg.cond(H) >= 1.0 / np.finfo(float).eps:
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:
        raise NumericalError("posterior precision is singular") from None
    mean = (X - params.c) @ (precision[:, None] * params.W) @ G
    if not (np.isfinite(H).all() and np.isfinite(mean).all()):
        raise NumericalError("posterior precision or factor means not finite")
    return PosteriorMoments(mean=mean, cov=G)


def log_likelihood(params: FAParams, data) -> float:
    """Gaussian log-likelihood of the rows under N(c, W W^T + diag(psi))."""
    X = _as_float_matrix(data, params.m)
    return float(len(X) * _em_estep(_second_moment(X, params.c), params.W, params.psi)[1])


def params_to_dict(params: FAParams) -> dict:
    """The JSON fields of the parameters, floats at full precision."""
    return {
        "k": params.k,
        "m": params.m,
        "W": params.W.tolist(),
        "c": params.c.tolist(),
        "psi": params.psi.tolist(),
    }


def params_from_dict(payload: dict) -> FAParams:
    with _fields("model file"):
        return FAParams(
            W=_json_number(payload, "W", 2),
            c=_json_number(payload, "c", 1),
            psi=_json_number(payload, "psi", 1),
            k=_json_int(payload, "k"),
            m=_json_int(payload, "m"),
        )
