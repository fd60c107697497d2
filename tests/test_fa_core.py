import json
import math
from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy.stats import multivariate_normal, norm

from falabel import (
    FAParams,
    FitConfig,
    LabelMatrix,
    NumericalError,
    SyntheticSpec,
    ValidationError,
    fit_ci_em,
    fit_fa_em,
    fit_fa_vi,
    generate,
    load_label_model,
    log_likelihood,
    posterior_moments,
)
from falabel import fa_core
from falabel.fa_core import (
    LOG_2PI,
    PSI_FLOOR,
    _estep,
    _fit_fa_batch,
    _fit_loop,
    _init_params,
    _reduce_rows,
    _update,
)
from falabel.label_model import LabelModel, label_model_from_dict, save_label_model


def quadrature_posterior(params: FAParams, row: np.ndarray) -> tuple[float, float]:
    """Independent oracle: integrate p(z | row) on a dense grid.

    Uses p(z|row) proportional to N(z; 0, 1) * prod_j N(row_j; w_j z + c_j, psi_j)
    over z in [-8, 8] with step 1e-3.
    """
    z = np.arange(-8.0, 8.0 + 1e-3, 1e-3)
    log_w = norm.logpdf(z)
    for j in range(params.m):
        log_w = log_w + norm.logpdf(
            row[j], loc=params.w[j] * z + params.c[j], scale=np.sqrt(params.psi[j])
        )
    w = np.exp(log_w - log_w.max())
    w /= w.sum()
    mean = float((w * z).sum())
    var = float((w * (z - mean) ** 2).sum())
    return mean, var


def dense_gaussian_ll(params: FAParams, X: np.ndarray) -> float:
    """Naive O(m^3) oracle: explicit inverse and determinant, row by row."""
    sigma = np.outer(params.w, params.w) + np.diag(params.psi)
    inv = np.linalg.inv(sigma)
    _, logdet = np.linalg.slogdet(sigma)
    total = 0.0
    for row in X:
        d = row - params.c
        total += -0.5 * d @ inv @ d - 0.5 * params.m * np.log(2 * np.pi) - 0.5 * logdet
    return total


def random_params(rng: np.random.Generator, m: int) -> FAParams:
    return FAParams(
        w=rng.uniform(-1.5, 1.5, size=m),
        c=rng.uniform(-1.0, 1.0, size=m),
        psi=rng.uniform(0.3, 2.0, size=m),
    )


def sample_rows(rng: np.random.Generator, params: FAParams, n: int) -> np.ndarray:
    z = rng.standard_normal((n, 1))
    eps = rng.standard_normal((n, params.m)) * np.sqrt(params.psi)
    return z * params.w + params.c + eps


class TestPosteriorMoments:
    def test_single_lf_hand_value(self):
        params = FAParams(w=[1.0], c=[0.0], psi=[1.0])
        moments = posterior_moments(params, np.array([[2.0]]))
        assert moments.var == pytest.approx(0.5)
        assert moments.mean[0] == pytest.approx(1.0)

    def test_two_lf_hand_value(self):
        params = FAParams(w=[1.0, 1.0], c=[0.0, 0.0], psi=[1.0, 1.0])
        moments = posterior_moments(params, np.array([[1.0, 1.0]]))
        assert moments.var == pytest.approx(1.0 / 3.0)
        assert moments.mean[0] == pytest.approx(2.0 / 3.0)

    def test_zero_loadings_recover_prior(self):
        params = FAParams(w=np.zeros(3), c=[0.1, 0.2, 0.3], psi=[1.0, 2.0, 0.5])
        moments = posterior_moments(params, np.array([[1.0, -1.0, 0.5], [0.0, 0.0, 0.0]]))
        assert moments.var == pytest.approx(1.0)
        assert moments.mean == pytest.approx(np.zeros(2))

    def test_matches_quadrature(self):
        rng = np.random.default_rng(20240517)
        for _ in range(25):
            m = int(rng.integers(1, 4))
            params = random_params(rng, m)
            row = sample_rows(rng, params, 1)[0]
            moments = posterior_moments(params, row[None, :])
            q_mean, q_var = quadrature_posterior(params, row)
            assert moments.mean[0] == pytest.approx(q_mean, abs=1e-4)
            assert moments.var == pytest.approx(q_var, abs=1e-4)

    def test_dimension_mismatch(self):
        params = FAParams(w=[1.0], c=[0.0], psi=[1.0])
        with pytest.raises(ValidationError, match="columns"):
            posterior_moments(params, np.zeros((2, 3)))


# A non-finite row is the fit's ValidationError wherever the rows go: log_likelihood
# returned nan for it, and posterior_moments raised a NumericalError.
@pytest.mark.parametrize(
    "run",
    [
        fit_fa_em,
        fit_fa_vi,
        lambda X: log_likelihood(FAParams(w=[1.0], c=[0.0], psi=[1.0]), X),
        lambda X: posterior_moments(FAParams(w=[1.0], c=[0.0], psi=[1.0]), X),
    ],
    ids=["fit_fa_em", "fit_fa_vi", "log_likelihood", "posterior_moments"],
)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_rows_rejected(run, bad):
    with pytest.raises(ValidationError, match="^input matrix contains non-finite values$"):
        run([[bad], [1.0]])


# A ragged or non-numeric input raised numpy's bare ValueError.
@pytest.mark.parametrize(
    "run, what",
    [
        (lambda: FAParams(w=[1.0, [2.0]], c=[0.0, 0.0], psi=[1.0, 1.0]), "w"),
        (lambda: FAParams(w=["a"], c=[0.0], psi=[1.0]), "w"),
        (lambda: FAParams(w=[1.0], c=[[0.0], 0.0], psi=[1.0]), "c"),
        (lambda: posterior_moments(FAParams(w=[1.0], c=[0.0], psi=[1.0]), [["a"]]), "data"),
        (lambda: fit_fa_em([[1.0, 2.0], [1.0]]), "data"),
        (lambda: log_likelihood(FAParams(w=[1.0], c=[0.0], psi=[1.0]), [[1.0], [{}]]), "data"),
    ],
    ids=["ragged-w", "string-w", "ragged-c", "string-rows", "ragged-rows", "object-rows"],
)
def test_ragged_or_non_numeric_input_rejected(run, what):
    with pytest.raises(ValidationError, match=f"^{what} must be a rectangular array of numbers$"):
        run()


class TestLogLikelihood:
    def test_row_at_bias_zero_loadings(self):
        params = FAParams(w=np.zeros(2), c=[0.5, -0.5], psi=[1.0, 1.0])
        ll = log_likelihood(params, np.array([[0.5, -0.5]]))
        assert ll == pytest.approx(-np.log(2 * np.pi), abs=1e-9)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(99)
        for _ in range(10):
            params = random_params(rng, 3)
            X = sample_rows(rng, params, 4)
            assert log_likelihood(params, X) == pytest.approx(
                dense_gaussian_ll(params, X), abs=1e-8
            )

    def test_additive_over_rows(self):
        rng = np.random.default_rng(5)
        params = random_params(rng, 3)
        X = sample_rows(rng, params, 6)
        single = log_likelihood(params, X)
        doubled = log_likelihood(params, np.vstack([X, X]))
        assert doubled == pytest.approx(2.0 * single, rel=1e-12)

    def test_marginal_consistency_per_row(self):
        # each row's contribution equals the N(c, Sigma) log-density
        rng = np.random.default_rng(8)
        params = random_params(rng, 3)
        X = sample_rows(rng, params, 5)
        mvn = multivariate_normal(mean=params.c, cov=params.sigma())
        for row in X:
            assert log_likelihood(params, row[None, :]) == pytest.approx(
                float(mvn.logpdf(row)), abs=1e-9
            )

    def test_sign_symmetry(self):
        rng = np.random.default_rng(17)
        params = random_params(rng, 3)
        X = sample_rows(rng, params, 5)
        flipped = FAParams(w=-params.w, c=params.c, psi=params.psi)
        assert log_likelihood(flipped, X) == log_likelihood(params, X)
        m0 = posterior_moments(params, X).mean
        m1 = posterior_moments(flipped, X).mean
        np.testing.assert_allclose(m1, -m0, atol=1e-12)


class TestFitEM:
    def test_recovers_generating_covariance(self):
        rng = np.random.default_rng(7)
        W_true = np.array([[1.0], [0.5]])
        psi_true = np.array([0.1, 0.1])
        X = rng.standard_normal((10000, 1)) @ W_true.T
        X += rng.standard_normal((10000, 2)) * np.sqrt(psi_true)
        params, report = fit_fa_em(X)
        sigma_true = W_true @ W_true.T + np.diag(psi_true)
        rel_err = np.linalg.norm(params.sigma() - sigma_true) / np.linalg.norm(sigma_true)
        assert rel_err < 0.05
        assert report.converged

    def test_monotone_trace(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            m = LabelMatrix(
                values=rng.integers(-1, 2, size=(50, 4)),
                lf_names=tuple(f"lf{i}" for i in range(4)),
            )
            _, report = fit_fa_em(m)
            diffs = np.diff(report.ll_trace)
            assert (diffs >= -1e-9).all()

    def test_constant_columns_floor_psi(self):
        values = np.ones((20, 2), dtype=int)
        m = LabelMatrix(values=values, lf_names=("a", "b"))
        cfg = FitConfig()
        params, _ = fit_fa_em(m, cfg)
        assert params.psi == pytest.approx([1e-6, 1e-6])

    def test_stationarity_at_convergence(self):
        rng = np.random.default_rng(23)
        m = LabelMatrix(
            values=rng.integers(-1, 2, size=(200, 5)),
            lf_names=tuple(f"lf{i}" for i in range(5)),
        )
        cfg = FitConfig(tol=1e-6, max_iter=20000)
        params, report = fit_fa_em(m, cfg)
        assert report.converged
        _, S, _ = _reduce_rows(m)  # the S the fit saw: the votes read signed
        (w2, psi2, *_), _ = _update(S, m.n, *_estep(S, params.w, params.psi), "fa-em")
        extra = FAParams(w=w2, c=params.c, psi=psi2)
        before = log_likelihood(params, m)
        after = log_likelihood(extra, m)
        assert after - before < cfg.tol

    def test_c_is_column_means(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((30, 3))
        params, _ = fit_fa_em(X)
        np.testing.assert_allclose(params.c, X.mean(axis=0), atol=1e-12)

    def test_rejects_single_row(self):
        with pytest.raises(ValidationError):
            fit_fa_em(np.ones((1, 3)))

    def test_initial_loadings_columns_sum_to_non_negative(self):
        X = np.random.default_rng(3).integers(-1, 2, size=(40, 5)).astype(float)
        Xc = X - X.mean(axis=0)
        w, _ = _init_params(Xc.T @ Xc / len(Xc))
        assert w.sum() >= 0.0

    @pytest.mark.parametrize("fit", [fit_fa_em, fit_fa_vi])
    def test_overflowing_second_moment_raises_numerical_error(self, fit):
        # finite rows whose squares overflow: S holds inf.  The fits warned, then failed
        # at iteration 1 (m <= 3) or in the eigensolver (m >= 4); warnings are errors here
        for m in range(1, 9):
            with pytest.raises(NumericalError) as info:
                fit(OVERFLOWING[:, np.arange(m) % 3], FitConfig())
            assert str(info.value) == "column means c or second moment S of the rows not finite"

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError, match="seed must be >= 0"):
            FitConfig(seed=-3)

    @pytest.mark.parametrize(
        "field, value",
        [("max_iter", 2.5), ("max_iter", True), ("seed", 2.5), ("seed", np.float64(3.0)),
         ("tol", "x"), ("tol", False)],
    )
    def test_non_integer_count_or_non_real_tol_rejected(self, field, value):
        # max_iter=2.5 ran past the cap and True was taken as 1; the others raised a bare TypeError
        kind = "a real number" if field == "tol" else "an integer"
        with pytest.raises(ValidationError) as info:
            FitConfig(**{field: value})
        assert str(info.value) == f"{field} must be {kind}, got {value!r}"

    @pytest.mark.parametrize("tol", [math.inf, math.nan])
    def test_non_finite_tol_rejected(self, tol):
        # tol=inf stopped every fit after two iterations and reported it converged
        matrix = LabelMatrix(values=[[1, 0], [0, 1], [1, 1]], lf_names=("a", "b"))
        for fit in (lambda: fit_fa_em(matrix, FitConfig(tol=tol)), lambda: fit_ci_em(matrix, FitConfig(tol=tol))):
            with pytest.raises(ValidationError, match=f"^tol must be finite and > 0, got {tol}$"):
                fit()

    def test_fit_ci_em_rejects_a_fractional_max_iter(self):
        # it ignored the cap and ran to convergence
        matrix = LabelMatrix(values=[[1, 0], [0, 1], [1, 1]], lf_names=("a", "b"))
        with pytest.raises(ValidationError, match="^max_iter must be an integer, got 2.5$"):
            fit_ci_em(matrix, FitConfig(max_iter=2.5))

    def test_numpy_integer_counts_accepted(self):
        cfg = FitConfig(max_iter=np.int32(3), tol=np.float32(1e-3), seed=np.uint8(7))
        _, report = fit_fa_em(np.random.default_rng(0).standard_normal((30, 3)), cfg)
        assert report.iterations <= 3

    def test_deterministic(self):
        rng = np.random.default_rng(31)
        X = rng.standard_normal((50, 3))
        p1, r1 = fit_fa_em(X, FitConfig(seed=5))
        p2, r2 = fit_fa_em(X, FitConfig(seed=5))
        np.testing.assert_array_equal(p1.w, p2.w)
        assert r1.ll_trace == r2.ll_trace


class TestFitVI:
    def test_agrees_with_em_objective(self):
        rng = np.random.default_rng(7)
        W_true = np.array([[1.0], [0.5]])
        psi_true = np.array([0.1, 0.1])
        X = rng.standard_normal((10000, 1)) @ W_true.T
        X += rng.standard_normal((10000, 2)) * np.sqrt(psi_true)
        _, em_report = fit_fa_em(X)
        _, vi_report = fit_fa_vi(X)
        n = X.shape[0]
        assert abs(vi_report.final_log_likelihood - em_report.final_log_likelihood) < 1e-3 * n

    def test_zero_loadings_estep_is_prior(self):
        _, _, Sa, aSa, H = _estep(np.eye(3), np.zeros(3), np.ones(3))
        np.testing.assert_allclose(Sa, 0.0, atol=1e-15)
        np.testing.assert_allclose(aSa, 0.0, atol=1e-15)
        np.testing.assert_allclose(1.0 / H, 1.0, atol=1e-15)

    def test_centered_single_column_means_zero(self):
        X = np.full((10, 1), 0.7)
        params, _ = fit_fa_vi(X)
        moments = posterior_moments(params, X)
        np.testing.assert_allclose(moments.mean, 0.0, atol=1e-12)

    def test_elbo_equals_ll_at_k1(self):
        # the mean-field family contains the exact posterior of the one factor
        rng = np.random.default_rng(44)
        params = random_params(rng, 3)
        X = sample_rows(rng, params, 20)
        Xc = X - X.mean(axis=0)
        A, v = exact_posterior(params.w, params.psi)
        bound = reference_elbo(Xc.T @ Xc / len(Xc), len(Xc), params.w, params.psi, A, v)
        centered = FAParams(w=params.w, c=np.zeros(3), psi=params.psi)
        assert bound == pytest.approx(log_likelihood(centered, Xc), abs=1e-8)

    def test_monotone_trace(self):
        rng = np.random.default_rng(51)
        m = LabelMatrix(
            values=rng.integers(-1, 2, size=(80, 4)),
            lf_names=tuple(f"lf{i}" for i in range(4)),
        )
        _, report = fit_fa_vi(m)
        assert (np.diff(report.ll_trace) >= -1e-9).all()
        assert report.route == "fa-vi"


# The FA parameters' fields of the model file, which label_model alone reads and writes.
RULE = {"version": 2, "threshold_kind": "median", "threshold_value": 0.0}


def roundtrip(params: FAParams, tmp_path) -> LabelModel:
    save_label_model(LabelModel(params, "median", 0.0), tmp_path / "model.json")
    return label_model_from_dict(json.loads((tmp_path / "model.json").read_text()))


class TestParamsIO:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(12)
        params = random_params(rng, 4)
        loaded = roundtrip(params, tmp_path).params
        np.testing.assert_array_equal(loaded.w, params.w)
        np.testing.assert_array_equal(loaded.c, params.c)
        np.testing.assert_array_equal(loaded.psi, params.psi)
        assert loaded.m == params.m

    def test_negative_psi_rejected(self):
        text = json.dumps({**RULE, "k": 1, "m": 1, "W": [[1.0]], "c": [0.0], "psi": [-0.5]})
        with pytest.raises(ValidationError, match="psi entries must be > 0"):
            label_model_from_dict(json.loads(text))

    def test_k_above_m_rejected(self):
        text = json.dumps({**RULE, "k": 2, "m": 1, "W": [[1.0, 0.0]], "c": [0.0], "psi": [1.0]})
        with pytest.raises(ValidationError, match="field 'k' must be 1"):
            label_model_from_dict(json.loads(text))

    @pytest.mark.parametrize("m", [2, np.int64(2)])
    def test_integer_m_roundtrips(self, m, tmp_path):
        # the file's m is a JSON integer however the vectors' length was given
        params = FAParams(w=np.ones(m), c=np.zeros(m), psi=np.ones(m))
        assert roundtrip(params, tmp_path).params.m == 2

    @pytest.mark.parametrize("m", [2.0, True, 0])
    def test_m_that_is_not_a_positive_integer_rejected(self, m):
        # the file's m must be a JSON integer, and the length of W, c and psi
        with pytest.raises(ValidationError, match="field 'm'"):
            label_model_from_dict({**RULE, "k": 1, "m": m, "W": [[1.0], [0.5]], "c": [0.0, 0.0], "psi": [1.0, 1.0]})

    @pytest.mark.parametrize(
        "field, value", [("m", 3), ("W", [[1.0], [0.5], [0.2]]), ("c", [0.0]), ("psi", [1.0, 1.0, 1.0])]
    )
    def test_m_that_disagrees_with_w_c_or_psi_rejected(self, field, value):
        payload = {**RULE, "k": 1, "m": 2, "W": [[1.0], [0.5]], "c": [0.0, 0.0], "psi": [1.0, 1.0], field: value}
        with pytest.raises(ValidationError, match="field 'm' is "):
            label_model_from_dict(payload)

    @pytest.mark.parametrize("field", ["w", "c", "psi"])
    @pytest.mark.parametrize("value", [[1.0], [[1.0], [0.5]], []])
    def test_vectors_of_another_length_or_shape_rejected(self, field, value):
        vectors = {"w": [1.0, 0.5], "c": [0.0, 0.0], "psi": [1.0, 1.0]}
        with pytest.raises(ValidationError, match=r"must have shape \(m,\) with m = len\(c\) >= 1"):
            FAParams(**{**vectors, field: value})

    def test_malformed_json_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ValidationError, match="invalid JSON"):
            load_label_model(p)


# Reference: the row-wise EM and VI steps, bound and likelihood, which keep the
# centred (n, m) rows and redo the n-row algebra every iteration.


def row_wise_m_step(Xc, M, Ezz, psi_floor):
    n = Xc.shape[0]
    XtM = Xc.T @ M
    W = np.linalg.solve(Ezz.T, XtM.T).T
    psi = (Xc**2).sum(axis=0) / n - np.einsum("jk,jk->j", XtM, W) / n
    return W, np.maximum(psi, psi_floor)


def row_wise_gaussian_ll(Xc, W, psi):
    n, m = Xc.shape
    L = scipy.linalg.cholesky(W @ W.T + np.diag(psi), lower=True)
    z = scipy.linalg.solve_triangular(L, Xc.T, lower=True)
    logdet = 2.0 * float(np.log(np.diag(L)).sum())
    return float(-0.5 * np.sum(z**2) - 0.5 * n * (m * LOG_2PI + logdet))


def row_wise_em_update(Xc, W, psi, psi_floor):
    n, k = Xc.shape[0], W.shape[1]
    precision = 1.0 / psi
    G = np.linalg.inv(np.eye(k) + (W.T * precision) @ W)
    M = Xc @ (precision[:, None] * W) @ G
    W, psi = row_wise_m_step(Xc, M, n * G + M.T @ M, psi_floor)
    return (W, psi), row_wise_gaussian_ll(Xc, W, psi)


def row_wise_vi_update(Xc, W, psi, psi_floor):
    n, k = Xc.shape[0], W.shape[1]
    precision = 1.0 / psi
    H = np.eye(k) + (W.T * precision) @ W
    M = np.linalg.solve(H, (Xc @ (precision[:, None] * W)).T).T
    V = np.broadcast_to(1.0 / np.diag(H), (n, k))
    W, psi = row_wise_m_step(Xc, M, np.diag(V.sum(axis=0)) + M.T @ M, psi_floor)
    precision = 1.0 / psi
    fit_term = -0.5 * float(((Xc - M @ W.T) ** 2 @ precision).sum())
    smear_term = -0.5 * float(V.sum(axis=0) @ ((W**2).T @ precision))
    noise_term = -0.5 * n * float((LOG_2PI + np.log(psi)).sum())
    prior_term = -0.5 * float((M**2).sum() + V.sum())
    entropy_term = 0.5 * float(np.log(V).sum()) + 0.5 * M.size
    return (W, psi), fit_term + smear_term + noise_term + prior_term + entropy_term


def row_wise_fit_fa(X, cfg, route):
    """The row-wise fit from the same initial (W, psi) as the fit under test.

    Each step also takes the second-moment step from the same state.  Returns
    ((W, psi), report, steps), with one (second-moment, row-wise) pair of
    ((W, psi), objective) results per step.
    """
    Xc = X - X.mean(axis=0)
    S = Xc.T @ Xc / len(Xc)
    row_wise = {"fa-em": row_wise_em_update, "fa-vi": row_wise_vi_update}[route]
    steps = []

    def step(state):  # a batch of one: each state array has a member axis
        state = tuple(x[0] for x in state)
        new_state, value = _update(S, len(Xc), *_estep(S, *state), route)
        # the row-wise references hold the loadings as the one column of W
        (W, psi), row_wise_value = row_wise(Xc, state[0][:, None], state[1], PSI_FLOOR)
        steps.append(((new_state[:2], value), ((W[:, 0], psi), row_wise_value)))
        return (W[None, :, 0], psi[None]), np.array([row_wise_value])

    initial = tuple(x[None] for x in _init_params(S))
    state, report = _fit_loop(step, initial, cfg, route)[0]
    return state, report, steps


@st.composite
def lf_matrices_and_configs(draw):
    n, m = draw(st.integers(2, 300)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # rows drawn from a pool of patterns: a small pool repeats rows, a large one rarely does
    pool = rng.choice([-1, 0, 1], p=rng.dirichlet(np.ones(3)), size=(draw(st.integers(1, 300)), m))
    cfg = FitConfig(seed=draw(st.integers(0, 2**16)))
    return pool[rng.integers(0, len(pool), size=n)].astype(float), cfg


@given(lf_matrices_and_configs(), st.sampled_from(["fa-em", "fa-vi"]))
def test_second_moment_fit_matches_row_wise_fit(data, route):
    X, cfg = data
    (W, psi), expected, steps = row_wise_fit_fa(X, cfg, route)
    # objectives within 1e-9 of the trace's largest magnitude: an objective that
    # crosses zero has no per-element relative error there
    atol = 1e-9 * np.abs(expected.ll_trace).max()
    for ((W1, psi1), value1), ((W0, psi0), value0) in steps:
        np.testing.assert_allclose(W1, W0, rtol=0.0, atol=1e-9)
        np.testing.assert_allclose(psi1, psi0, rtol=0.0, atol=1e-9)
        assert abs(value1 - value0) <= atol
    params, report = (fit_fa_em if route == "fa-em" else fit_fa_vi)(X, cfg)
    assert (report.iterations, report.converged) == (expected.iterations, expected.converged)
    np.testing.assert_allclose(report.ll_trace, expected.ll_trace, rtol=0.0, atol=atol)
    np.testing.assert_allclose(params.w, W, rtol=0.0, atol=1e-9)
    np.testing.assert_allclose(params.psi, psi, rtol=0.0, atol=1e-9)


@given(lf_matrices_and_configs())
def test_no_trace_step_falls(data):
    # EM and coordinate ascent never lower their objective: 1e-9 relative allows rounding only
    X, cfg = data
    matrix = LabelMatrix(values=X.astype(int), lf_names=[f"lf{j}" for j in range(X.shape[1])])
    for _, report in (fit_fa_em(X, cfg), fit_fa_vi(X, cfg), fit_ci_em(matrix, cfg)):
        for before, after in zip(report.ll_trace, report.ll_trace[1:]):
            assert after - before >= -1e-9 * max(1.0, abs(before)), (report.route, before, after)


@given(lf_matrices_and_configs(), st.integers(1, 5))
def test_em_and_vi_take_the_same_iterates(data, max_iter):
    # the routes share one update and differ only in the objective they trace
    X, cfg = data
    cfg = replace(cfg, max_iter=max_iter)
    (em, em_report), (vi, vi_report) = fit_fa_em(X, cfg), fit_fa_vi(X, cfg)
    assume(em_report.iterations == vi_report.iterations == max_iter)
    assert em.w.tobytes() == vi.w.tobytes()
    assert em.psi.tobytes() == vi.psi.tobytes()


# Reference: the log-likelihood from an m x m Cholesky factor and solve of
# Sigma, and the bound from the residual map R = I - A W^T, as the fits
# computed them before their objectives came from scalar terms.


def reference_gaussian_ll(S, n, w, psi):
    sigma = np.outer(w, w) + np.diag(psi)
    L = np.linalg.cholesky(sigma)
    logdet = 2.0 * float(np.log(np.diag(L)).sum())
    quad = float(np.trace(np.linalg.solve(sigma, S)))
    return -0.5 * n * (len(psi) * LOG_2PI + logdet + quad)


def exact_posterior(w, psi):
    """(A, v): a centred row x has posterior mean A^T x and variance v."""
    W = w[:, None]
    H = 1.0 + (W.T / psi) @ W
    return W / psi[:, None] / H, 1.0 / H[0]


def reference_elbo(S, n, w, psi, A, v):
    W = w[:, None]
    m, k = W.shape
    precision = 1.0 / psi
    R = np.eye(m) - A @ W.T  # a centred row x leaves the residual R^T x
    fit_term = float(precision @ np.einsum("ij,ij->j", R, S @ R))
    smear_term = float(v @ ((W**2).T @ precision))
    noise_term = float((LOG_2PI + np.log(psi)).sum())
    prior_term = float(np.einsum("ij,ij->", A, S @ A) + v.sum())
    entropy_term = float(np.log(v).sum()) + k
    return -0.5 * n * (fit_term + smear_term + noise_term + prior_term - entropy_term)


@st.composite
def fit_states(draw):
    """(X, W, psi, psi_floor): LF-like rows, some columns constant so that the
    M-step clamps their psi, and a random state with some psi at the floor.

    Loadings stay at most about 1: with loadings of 3 and psi at 1e-6, Sigma is
    so ill-conditioned that the Cholesky reference itself drifts by more than
    1e-9 (mpmath put it 1.2e-9 off and the scalar form 2e-16 off in one case)."""
    n, m = draw(st.integers(2, 200)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.choice([-1.0, 0.0, 1.0], p=rng.dirichlet(np.ones(3)), size=(n, m))
    X[:, rng.random(m) < 0.2] = 1.0
    psi_floor = draw(st.sampled_from([1e-6, 1e-3]))
    psi = np.where(rng.random(m) < 0.3, psi_floor, rng.uniform(0.05, 2.0, size=m))
    return X, rng.normal(0.0, draw(st.sampled_from([0.1, 0.5, 1.0])), size=m), psi, psi_floor


@given(fit_states())
def test_objectives_match_the_m_by_m_references(state):
    X, w, psi, psi_floor = state
    n = len(X)
    Xc = X - X.mean(axis=0)
    S = Xc.T @ Xc / n

    def close(value, expected, psi):
        # within 1e-9 of the magnitude of the terms the objectives add up: with
        # psi near the floor they cancel, and the sum itself can be near zero
        magnitude = 0.5 * n * (len(psi) * LOG_2PI + np.abs(np.log(psi)).sum() + (np.diag(S) / psi).sum())
        assert abs(value - expected) <= 1e-9 * magnitude, (value, expected, magnitude)

    with patch.object(fa_core, "PSI_FLOOR", psi_floor):  # the floor the update clamps at
        (w1, psi1, *_), value = _update(S, n, *_estep(S, w, psi), "fa-em")
    assert (psi1 == psi_floor).any() or not (np.diag(S) == 0).any()
    close(value, reference_gaussian_ll(S, n, w1, psi1), psi1)
    with patch.object(fa_core, "PSI_FLOOR", psi_floor):
        (w1, psi1, *_), value = _update(S, n, *_estep(S, w, psi), "fa-vi")
    close(value, reference_elbo(S, n, w1, psi1, *exact_posterior(w, psi)), psi1)
    params = FAParams(w=w, c=X.mean(axis=0), psi=psi)
    close(log_likelihood(params, X), reference_gaussian_ll(S, n, w, psi), psi)


# The batch contract: the driver steps many fits at once, and each member's
# numbers are those of fitting it alone.

# the rows of test_overflowing_second_moment_raises_numerical_error
OVERFLOWING = np.array([[1e200, 0.0, 1.0], [-1e200, 0.0, 1.0], [1e200, 1.0, 0.0], [-1e200, 0.0, 0.0]])


@st.composite
def lf_batches(draw):
    """1-12 LF matrices sharing m, each with its own n; one of them may be the
    overflowing matrix, its columns cycled to m.  Returns (matrices, index of
    the overflowing member or None)."""
    m = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    datas = []
    for _ in range(draw(st.integers(1, 12))):
        n = draw(st.integers(2, 300))
        pool = rng.choice([-1, 0, 1], p=rng.dirichlet(np.ones(3)), size=(draw(st.integers(1, 300)), m))
        datas.append(pool[rng.integers(0, len(pool), size=n)].astype(float))
    overflowing = draw(st.none() | st.integers(0, len(datas) - 1))
    if overflowing is not None:
        datas[overflowing] = OVERFLOWING[:, np.arange(m) % 3]
    return datas, overflowing


@given(lf_batches(), st.sampled_from(["fa-em", "fa-vi"]))
def test_batched_fit_equals_one_at_a_time_fits(batch, route):
    (datas, overflowing), cfg = batch, FitConfig()
    fit = fit_fa_em if route == "fa-em" else fit_fa_vi
    with np.errstate(all="ignore"):
        if overflowing is not None:
            # the batch is all or nothing: it raises the failing member's solo error
            with pytest.raises(NumericalError) as solo:
                fit(datas[overflowing], cfg)
            with pytest.raises(NumericalError) as batched:
                _fit_fa_batch(datas, cfg, route)
            assert str(batched.value) == str(solo.value)
            return
        results = _fit_fa_batch(datas, cfg, route)
        assert len(results) == len(datas)
        for X, (batched_params, batched_report) in zip(datas, results):
            params, report = fit(X, cfg)
            assert batched_params.w.tobytes() == params.w.tobytes()
            assert batched_params.psi.tobytes() == params.psi.tobytes()
            assert batched_params.c.tobytes() == params.c.tobytes()
            assert np.array(batched_report.ll_trace).tobytes() == np.array(report.ll_trace).tobytes()
            assert (batched_report.iterations, batched_report.converged) == (report.iterations, report.converged)


# The failure contract: any failure ends the whole batch, and _fit_fa_batch
# raises it.


@pytest.mark.parametrize(
    "failure, message",
    [
        (None, "non-finite log-likelihood at iteration 3"),
        (NumericalError("posterior precision not positive definite"), "posterior precision not positive definite"),
    ],
)
def test_a_failing_member_fails_the_whole_batch(failure, message):
    # member 1 fails at its third step, by raising ``failure`` or with a nan
    # objective; members 0 and 2 would go on
    def step(state):
        (x,) = state
        if failure is not None and (x == 2).any():
            raise failure
        x = x + 1
        return (x,), np.where(x == 3, np.nan, -1.0 / x)

    with pytest.raises(NumericalError) as info:
        _fit_loop(step, (np.array([10.0, 0.0, 20.0]),), FitConfig(max_iter=50, tol=1e-9), "fa-em")
    assert str(info.value) == message
    if isinstance(failure, NumericalError):
        assert info.value is failure  # passed through unchanged


def test_a_failed_batch_raises_its_first_failure(failing_em_member):
    # alone, the 50-row member fails at iteration 3 and the 60-row one at 6;
    # in the batch the first failure ends every member's fit
    spec = dict(m=5, class_prior=0.4, accuracies=(0.9, 0.8, 0.7, 0.85, 0.75), propensities=(0.9,) * 5)
    datas = [generate(SyntheticSpec(n=n, seed=n, **spec))[0] for n in (40, 50, 60)]
    failing_em_member({50: 3, 60: 6})
    with pytest.raises(NumericalError, match="^non-finite log-likelihood at iteration 3$"):
        _fit_fa_batch(datas, FitConfig(), "fa-em")
    with pytest.raises(NumericalError, match="^non-finite log-likelihood at iteration 6$"):
        fit_fa_em(datas[2])
