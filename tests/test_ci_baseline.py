import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import logsumexp

from falabel import (
    CIParams,
    FitConfig,
    LabelMatrix,
    ValidationError,
    ci_posterior,
    fit_ci_em,
    load_model,
    majority_vote,
    save_model,
)
from falabel.ci_baseline import EMISSION_VALUES, PROB_FLOOR, _patterns, ci_predict
from falabel.fa_core import _fit_loop


def brute_force_posterior(params: CIParams, matrix: LabelMatrix) -> np.ndarray:
    """Oracle: literal two-class Bayes with per-row Python loops."""
    out = np.zeros(matrix.n)
    priors = {0: 1.0 - params.class_prior, 1: params.class_prior}
    for i, row in enumerate(matrix.values):
        joint = {}
        for y in (0, 1):
            p = priors[y]
            for j, entry in enumerate(row):
                p *= params.emissions[j, y, EMISSION_VALUES.index(int(entry))]
            joint[y] = p
        out[i] = joint[1] / (joint[0] + joint[1])
    return out


def _one_hot(values: np.ndarray) -> np.ndarray:
    """Dense reference: (n, 3m) indicator, column 3j + v is 1 where LF j emits EMISSION_VALUES[v]."""
    return (values[:, :, None] == np.array(EMISSION_VALUES)).reshape(len(values), -1).astype(float)


def _log_class_scores(E: np.ndarray, class_prior: float, emissions: np.ndarray) -> np.ndarray:
    """Dense reference: (n, 2) log P(y) + log P(row | y) for the rows one-hot coded in E."""
    log_em = np.log(emissions).transpose(0, 2, 1).reshape(-1, 2)  # (3m, 2), rows as in E
    return E @ log_em + np.log([1.0 - class_prior, class_prior])


def uniform_params(m: int, class_prior: float = 0.5) -> CIParams:
    emissions = np.full((m, 2, 3), 1.0 / 3.0)
    return CIParams(class_prior=class_prior, emissions=emissions)


def make_params(m, class_prior, tables) -> CIParams:
    return CIParams(class_prior=class_prior, emissions=np.array(tables, dtype=float))


class TestCIParams:
    def test_rejects_bad_prior(self):
        with pytest.raises(ValidationError):
            uniform_params(2, class_prior=0.0)

    def test_rejects_unnormalized(self):
        emissions = np.full((1, 2, 3), 0.5)
        with pytest.raises(ValidationError, match="sum to 1"):
            CIParams(class_prior=0.5, emissions=emissions)

    def test_rejects_below_floor(self):
        emissions = np.array([[[0.0, 0.5, 0.5], [1 / 3, 1 / 3, 1 / 3]]])
        with pytest.raises(ValidationError):
            CIParams(class_prior=0.5, emissions=emissions)

    @pytest.mark.parametrize("class_prior", ["a", [0.5], "0.5"])
    def test_rejects_a_class_prior_that_is_not_one_number(self, class_prior):
        # "a" and [0.5] raised a bare TypeError from the range check
        with pytest.raises(ValidationError, match="^class_prior must"):
            CIParams(class_prior=class_prior, emissions=np.full((1, 2, 3), 1 / 3))

    def test_class_prior_is_stored_as_a_float(self):
        params = CIParams(class_prior=np.float32(0.25), emissions=np.full((1, 2, 3), 1 / 3))
        assert type(params.class_prior) is float and params.class_prior == 0.25

    @pytest.mark.parametrize(
        "emissions",
        [[[[0.2, 0.3, 0.5], [0.2, 0.8]]], [[[0.2, 0.3, 0.5], ["a", 0.3, 0.5]]]],
        ids=["ragged", "string"],
    )
    def test_rejects_ragged_or_non_numeric_tables(self, emissions):
        # numpy's bare ValueError came through
        with pytest.raises(ValidationError, match="^emissions must be a rectangular array of numbers$"):
            CIParams(class_prior=0.5, emissions=emissions)


class TestCIPosterior:
    def test_all_abstain_row_returns_prior(self):
        # symmetric emissions: abstention carries no class information
        table = [[0.6, 0.2, 0.2], [0.6, 0.2, 0.2]]
        params = make_params(2, 0.3, [table, table])
        matrix = LabelMatrix(values=[[-1, -1]], lf_names=("a", "b"))
        assert ci_posterior(params, matrix)[0] == pytest.approx(0.3, abs=1e-12)

    def test_hand_computed_two_term_bayes(self):
        # P(emit 1 | y=1) = 0.9, P(emit 1 | y=0) = 0.1, prior 0.5, row [1] -> 0.9
        table = [[[0.05, 0.85, 0.1], [0.05, 0.05, 0.9]]]
        params = make_params(1, 0.5, table)
        matrix = LabelMatrix(values=[[1]], lf_names=("a",))
        assert ci_posterior(params, matrix)[0] == pytest.approx(0.9, abs=1e-12)

    def test_matches_brute_force_enumeration(self):
        rng = np.random.default_rng(123)
        for m in (1, 2, 3):
            raw = rng.uniform(0.05, 1.0, size=(m, 2, 3))
            emissions = raw / raw.sum(axis=2, keepdims=True)
            params = CIParams(class_prior=float(rng.uniform(0.1, 0.9)), emissions=emissions)
            matrix = LabelMatrix(
                values=rng.integers(-1, 2, size=(30, m)),
                lf_names=tuple(f"lf{i}" for i in range(m)),
            )
            np.testing.assert_allclose(
                ci_posterior(params, matrix),
                brute_force_posterior(params, matrix),
                atol=1e-12,
            )

    def test_dimension_mismatch(self):
        params = uniform_params(2)
        with pytest.raises(ValidationError):
            ci_posterior(params, LabelMatrix(values=[[1]], lf_names=("a",)))


class TestFitCIEM:
    def test_monotone_trace(self):
        rng = np.random.default_rng(9)
        for seed in range(4):
            matrix = LabelMatrix(
                values=rng.integers(-1, 2, size=(60, 4)),
                lf_names=tuple(f"lf{i}" for i in range(4)),
            )
            _, report = fit_ci_em(matrix, FitConfig(seed=seed))
            assert (np.diff(report.ll_trace) >= -1e-9).all()

    def test_perfectly_separating_lfs(self):
        values = np.array([[1, 1], [1, 1], [0, 0], [0, 0]])
        matrix = LabelMatrix(values=values, lf_names=("a", "b"))
        params, _ = fit_ci_em(matrix, FitConfig(seed=0))
        posterior = ci_posterior(params, matrix)
        np.testing.assert_allclose(
            posterior, brute_force_posterior(params, matrix), atol=1e-12
        )
        assert posterior[0] > 0.99 and posterior[1] > 0.99
        assert posterior[2] < 0.01 and posterior[3] < 0.01

    def test_label_swap_leaves_likelihood_unchanged(self):
        rng = np.random.default_rng(77)
        matrix = LabelMatrix(
            values=rng.integers(-1, 2, size=(50, 3)),
            lf_names=("a", "b", "c"),
        )
        params, _ = fit_ci_em(matrix, FitConfig(seed=1))
        swapped = CIParams(
            class_prior=1.0 - params.class_prior,
            emissions=params.emissions[:, ::-1, :].copy(),
        )

        def data_ll(p):
            scores = _log_class_scores(_one_hot(matrix.values), p.class_prior, p.emissions)
            return float(logsumexp(scores, axis=1).sum())

        assert data_ll(swapped) == pytest.approx(data_ll(params), abs=1e-9)

    def test_canonical_class_orientation(self):
        # class 1 must be the component that better matches vote value 1
        rng = np.random.default_rng(5)
        n = 200
        y = rng.integers(0, 2, size=n)
        votes = np.where(rng.random((n, 3)) < 0.85, y[:, None], 1 - y[:, None])
        matrix = LabelMatrix(values=votes, lf_names=("a", "b", "c"))
        params, _ = fit_ci_em(matrix, FitConfig(seed=3))
        assert params.emissions[:, 1, 2].mean() > params.emissions[:, 0, 2].mean()
        posterior = ci_posterior(params, matrix)
        acc = ((posterior > 0.5).astype(int) == y).mean()
        assert acc > 0.9

    @pytest.mark.parametrize("copies, seed", [(5, 3), (10, 123), (20, 1)])
    def test_tied_classes_orient_the_same_in_any_row_order(self, copies, seed):
        # both classes have mean P(emit 1) = 1/2, so only the per-LF tie rule,
        # not the summation order, may decide which class is 1
        rows = np.array([[1, 0], [-1, 1]])
        interleaved = LabelMatrix(values=np.tile(rows, (copies, 1)), lf_names=("a", "b"))
        blocked = LabelMatrix(values=np.repeat(rows, copies, axis=0), lf_names=("a", "b"))
        p1, _ = fit_ci_em(interleaved, FitConfig(seed=seed))
        p2, _ = fit_ci_em(blocked, FitConfig(seed=seed))
        assert p1.class_prior == pytest.approx(p2.class_prior, abs=1e-9)
        np.testing.assert_allclose(p1.emissions, p2.emissions, rtol=0.0, atol=1e-9)
        np.testing.assert_array_equal(
            ci_predict(p1, interleaved).labels, ci_predict(p2, interleaved).labels
        )

    def test_rejects_single_row(self):
        with pytest.raises(ValidationError):
            fit_ci_em(LabelMatrix(values=[[1, 0]], lf_names=("a", "b")))

    def test_rejects_negative_seed(self):
        with pytest.raises(ValidationError, match="seed must be >= 0"):
            fit_ci_em(LabelMatrix(values=[[1, 0], [0, 1]], lf_names=("a", "b")), FitConfig(seed=-3))

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(15)
        matrix = LabelMatrix(
            values=rng.integers(-1, 2, size=(40, 3)),
            lf_names=("a", "b", "c"),
        )
        p1, r1 = fit_ci_em(matrix, FitConfig(seed=11))
        p2, r2 = fit_ci_em(matrix, FitConfig(seed=11))
        np.testing.assert_array_equal(p1.emissions, p2.emissions)
        assert r1.ll_trace == r2.ll_trace

    def test_degenerate_constant_lf(self):
        values = np.column_stack([np.ones(30, dtype=int), np.zeros(30, dtype=int)])
        matrix = LabelMatrix(values=values, lf_names=("a", "b"))
        params, report = fit_ci_em(matrix, FitConfig(seed=2))
        assert (np.diff(report.ll_trace) >= -1e-9).all()
        assert (params.emissions >= 1e-6).all()


class TestMajorityVote:
    def test_majority_wins(self):
        m = LabelMatrix(values=[[1, 1, 0]], lf_names=("a", "b", "c"))
        assert majority_vote(m)[0] == 1

    def test_tie_negative_policy(self):
        m = LabelMatrix(values=[[1, 0, -1]], lf_names=("a", "b", "c"))
        assert majority_vote(m)[0] == 0

    def test_all_abstain_negative_policy(self):
        m = LabelMatrix(values=[[-1, -1, -1]], lf_names=("a", "b", "c"))
        assert majority_vote(m)[0] == 0


class TestCIParamsIO:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(21)
        raw = rng.uniform(0.1, 1.0, size=(3, 2, 3))
        params = CIParams(
            class_prior=0.42, emissions=raw / raw.sum(axis=2, keepdims=True)
        )
        p = tmp_path / "ci.json"
        save_model(p, "ci-em", ["a", "b", "c"], params)
        method, lf_names, loaded = load_model(p)
        assert (method, lf_names) == ("ci-em", ("a", "b", "c"))
        assert loaded.class_prior == params.class_prior
        np.testing.assert_array_equal(loaded.emissions, params.emissions)

    def test_rejects_bad_tables(self, tmp_path):
        p = tmp_path / "ci.json"
        p.write_text('{"version": 3, "method": "ci-em", "lf_names": ["a"], "class_prior": 0.5,'
                     ' "emissions": [[[0.5, 0.5, 0.5], [0.4, 0.3, 0.3]]]}')
        with pytest.raises(ValidationError, match="each emission distribution must sum to 1"):
            load_model(p)


@pytest.mark.parametrize("max_iter", [2, 3, 5])
def test_capped_fit_reports_likelihood_of_returned_params(max_iter):
    matrix = LabelMatrix(
        values=np.random.default_rng(8).integers(-1, 2, size=(500, 5)),
        lf_names=tuple(f"lf{i}" for i in range(5)),
    )
    params, report = fit_ci_em(matrix, FitConfig(max_iter=max_iter, seed=4))
    assert not report.converged and report.iterations == max_iter
    scores = _log_class_scores(_one_hot(matrix.values), params.class_prior, params.emissions)
    recomputed = float(logsumexp(scores, axis=1).sum())
    assert recomputed == pytest.approx(report.final_log_likelihood, rel=1e-12, abs=0.0)


def row_wise_fit_ci_em(matrix: LabelMatrix, cfg=FitConfig()):
    """Reference: the same EM over every row, with an (n, m, 3) one-hot and
    one einsum for each of the M-step and the E-step."""
    E = np.stack([matrix.values == v for v in EMISSION_VALUES], axis=2).astype(float)
    # each row starts from its majority vote, moved by +-0.05 as its pattern's
    # position in sorted order is even or odd
    inverse = np.unique(matrix.values, axis=0, return_inverse=True)[1].ravel()
    r1 = np.where(majority_vote(matrix) == 1, 0.7, 0.3) + np.where(inverse % 2, -0.05, 0.05)

    def step(state):  # a batch of one: each state array has a member axis
        resp1 = state[-1][0]
        resp = np.stack([1.0 - resp1, resp1], axis=1)
        prior = float(np.clip(resp1.mean(), PROB_FLOOR, 1.0 - PROB_FLOOR))
        emissions = np.einsum("ny,njv->jyv", resp, E) / resp.sum(axis=0)[None, :, None]
        emissions = (1.0 - 3.0 * PROB_FLOOR) * emissions + PROB_FLOOR
        scores = np.einsum("njv,jyv->ny", E, np.log(emissions)) + np.log([1.0 - prior, prior])
        row_ll = logsumexp(scores, axis=1)
        resp1 = np.exp(scores[:, 1] - row_ll)
        return (np.array([prior]), emissions[None], resp1[None]), np.array([row_ll.sum()])

    (prior, emissions, _), report = _fit_loop(step, (r1[None],), cfg, "ci-em")[0]
    if emissions[:, 0, 2].mean() > emissions[:, 1, 2].mean():
        prior, emissions = 1.0 - prior, emissions[:, ::-1, :]
    return prior, emissions, report


def assert_fit_matches_row_wise(matrix: LabelMatrix, **kwargs):
    cfg = FitConfig(**kwargs)
    params, report = fit_ci_em(matrix, cfg)
    prior, emissions, expected = row_wise_fit_ci_em(matrix, cfg)
    assert (report.iterations, report.converged) == (expected.iterations, expected.converged)
    tied = abs(emissions[:, 0, 2].mean() - emissions[:, 1, 2].mean()) < 1e-9
    if tied and not np.allclose(params.emissions, emissions, rtol=0.0, atol=1e-9):
        # both classes match vote value 1 equally well, so rounding decides the
        # canonical orientation: either labelling of the classes is the fit
        prior, emissions = 1.0 - prior, emissions[:, ::-1, :]
    np.testing.assert_allclose(report.ll_trace, expected.ll_trace, rtol=1e-9, atol=0.0)
    assert params.class_prior == pytest.approx(prior, abs=1e-9)
    np.testing.assert_allclose(params.emissions, emissions, rtol=0.0, atol=1e-9)


def lf_matrix(values) -> LabelMatrix:
    values = np.asarray(values)
    return LabelMatrix(values=values, lf_names=tuple(f"lf{j}" for j in range(values.shape[1])))


@st.composite
def vote_matrices(draw, max_m=8):
    n, m = draw(st.integers(2, 300)), draw(st.integers(1, max_m))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # rows drawn from a pool of patterns: a small pool repeats rows, a large one rarely does
    pool = rng.choice([-1, 0, 1], p=rng.dirichlet(np.ones(3)), size=(draw(st.integers(1, 300)), m))
    return lf_matrix(pool[rng.integers(0, len(pool), size=n)])


@given(vote_matrices(), st.integers(0, 2**16))
def test_compressed_fit_matches_row_wise_em(matrix, seed):
    assert_fit_matches_row_wise(matrix, seed=seed)


@given(vote_matrices(max_m=6), st.data())
def test_posterior_matches_enumeration(matrix, data):
    tables = st.lists(st.floats(0.01, 1.0), min_size=6 * matrix.m, max_size=6 * matrix.m)
    raw = np.array(data.draw(tables)).reshape(matrix.m, 2, 3)
    emissions = raw / raw.sum(axis=2, keepdims=True)
    params = CIParams(class_prior=data.draw(st.floats(0.01, 0.99)), emissions=emissions)
    np.testing.assert_allclose(
        ci_posterior(params, matrix), brute_force_posterior(params, matrix), rtol=0.0, atol=1e-12
    )


class TestCompressedFitEdgeCases:
    @pytest.mark.parametrize("row", [[1, 0, -1], [-1, -1, -1], [1, 1, 1]])
    def test_every_row_the_same_pattern(self, row):
        matrix = lf_matrix(np.tile(row, (50, 1)))
        assert_fit_matches_row_wise(matrix, seed=6)
        posterior = ci_posterior(fit_ci_em(matrix, FitConfig(seed=6))[0], matrix)
        assert np.isfinite(posterior).all() and np.ptp(posterior) == 0.0

    def test_every_row_distinct(self):
        matrix = lf_matrix(np.random.default_rng(10).integers(-1, 2, size=(300, 50)))
        assert len(np.unique(matrix.values, axis=0)) == matrix.n
        assert_fit_matches_row_wise(matrix, seed=7)

    @pytest.mark.parametrize("values", [[[1, 0], [0, 1]], [[1, -1], [1, -1]], [[-1, -1], [0, 1]]])
    def test_two_rows(self, values):
        assert_fit_matches_row_wise(lf_matrix(values), seed=8)


@given(vote_matrices(), st.integers(0, 2**32 - 1))
def test_fit_does_not_depend_on_row_order(tmp_path_factory, matrix, seed):
    # the start was drawn row by row, so permuting the rows changed the fit
    shuffled = lf_matrix(matrix.values[np.random.default_rng(seed).permutation(matrix.n)])
    (p1, r1), (p2, r2) = fit_ci_em(matrix), fit_ci_em(shuffled)
    directory = tmp_path_factory.mktemp("fits")
    save_model(directory / "rows.json", "ci-em", matrix.lf_names, p1)
    save_model(directory / "shuffled.json", "ci-em", matrix.lf_names, p2)
    assert (directory / "rows.json").read_bytes() == (directory / "shuffled.json").read_bytes()
    assert r1 == r2


@given(st.one_of(st.integers(1, 8), st.integers(38, 41)), st.integers(1, 200), st.integers(0, 2**32 - 1))
def test_patterns_are_the_sorted_distinct_rows_with_their_counts(m, n, seed):
    # up to m = 39 a row's key is a base-3 number in int64; 3**40 overflows it, so m >= 40 keys by bytes
    rng = np.random.default_rng(seed)
    pool = rng.integers(-1, 2, size=(int(rng.integers(1, 20)), m))
    values = pool[rng.integers(0, len(pool), size=n)]
    patterns, counts = _patterns(values)
    expected_patterns, expected_counts = np.unique(values, axis=0, return_counts=True)
    np.testing.assert_array_equal(patterns, expected_patterns)
    np.testing.assert_array_equal(counts, expected_counts)


class TestStartThatDrawsNothing:
    # a start that is the same for every pattern is a fixed point at one class:
    # both classes get the marginal emissions and every row the prior

    def test_patterns_with_the_same_vote_counts_separate(self):
        rows = [[1, -1], [-1, 1]]
        params, _ = fit_ci_em(lf_matrix(np.tile(rows, (20, 1))))
        assert params.class_prior == pytest.approx(0.5, abs=1e-9)
        assert ci_predict(params, lf_matrix(rows)).labels.tolist() == [1, 0]

    def test_rows_with_the_same_majority_vote_separate(self):
        rows = [[1, 1, 1, 1], [1, 1, 1, 0], [1, -1, -1, -1], [-1, 1, -1, -1]]
        matrix = lf_matrix(np.tile(rows, (20, 1)))
        assert (majority_vote(matrix) == 1).all()
        params, _ = fit_ci_em(matrix)
        assert params.class_prior == pytest.approx(0.5, abs=1e-9)
        assert ci_predict(params, lf_matrix(rows)).labels.tolist() == [1, 1, 0, 0]

    def test_the_seed_does_not_change_the_fit(self):
        matrix = lf_matrix(np.random.default_rng(15).integers(-1, 2, size=(40, 3)))
        (p1, r1), (p2, r2) = fit_ci_em(matrix, FitConfig(seed=0)), fit_ci_em(matrix, FitConfig(seed=99))
        assert p1.class_prior == p2.class_prior and r1 == r2
        np.testing.assert_array_equal(p1.emissions, p2.emissions)
