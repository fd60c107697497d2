import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from falabel import (
    LabelMatrix,
    SyntheticSpec,
    ValidationError,
    bayes_oracle,
    evaluate,
    generate,
    load_spec,
    majority_vote,
    predict,
    save_spec,
    train_label_model,
)


def enumeration_oracle(spec: SyntheticSpec, matrix: LabelMatrix) -> np.ndarray:
    """Literal two-class enumeration with the propensity factors included."""
    labels = np.zeros(matrix.n, dtype=int)
    for i, row in enumerate(matrix.values):
        joint = {}
        for y in (0, 1):
            p = spec.class_prior if y == 1 else 1.0 - spec.class_prior
            for j, entry in enumerate(row):
                a, q = spec.accuracies[j], spec.propensities[j]
                if entry == -1:
                    p *= 1.0 - q
                elif entry == y:
                    p *= q * a
                else:
                    p *= q * (1.0 - a)
            joint[y] = p
        labels[i] = 1 if joint[1] > joint[0] else 0
    return labels


def reference_generate(spec: SyntheticSpec):
    """``generate`` as first written: int64 votes through two nested ``np.where``."""
    rng = np.random.default_rng(spec.seed)
    acc = np.asarray(spec.accuracies)
    prop = np.asarray(spec.propensities)
    y = (rng.random(spec.n) < spec.class_prior).astype(np.int64)
    correct = rng.random((spec.n, spec.m)) < acc[None, :]
    votes = np.where(correct, y[:, None], 1 - y[:, None])
    fires = rng.random((spec.n, spec.m)) < prop[None, :]
    return np.where(fires, votes, -1), y


def reference_oracle(spec: SyntheticSpec, matrix: LabelMatrix) -> np.ndarray:
    """``bayes_oracle`` as first written, with the vote terms from two nested ``np.where``."""
    acc = np.asarray(spec.accuracies)
    values = matrix.values
    # an accuracy of 1 has infinite log-odds, and two of them that disagree sum to nan, a tie
    with np.errstate(divide="ignore", invalid="ignore"):
        log_odds_vote = np.log(acc) - np.log1p(-acc)
        contrib = np.where(
            values == 1, log_odds_vote[None, :], np.where(values == 0, -log_odds_vote[None, :], 0.0)
        )
        log_odds = np.log(spec.class_prior) - np.log1p(-spec.class_prior) + contrib.sum(axis=1)
    return (log_odds > 0).astype(np.int64)


@st.composite
def small_specs(draw):
    m = draw(st.integers(1, 12))
    return SyntheticSpec(
        n=draw(st.integers(1, 300)),
        m=m,
        class_prior=draw(st.floats(1e-3, 1 - 1e-3)),
        accuracies=tuple(draw(st.lists(st.floats(0.51, 1.0), min_size=m, max_size=m))),
        propensities=tuple(draw(st.lists(st.floats(1e-3, 1.0), min_size=m, max_size=m))),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


class TestSpecValidation:
    def test_accuracy_range(self):
        with pytest.raises(ValidationError):
            SyntheticSpec(n=10, m=1, class_prior=0.5, accuracies=(0.5,), propensities=(1.0,))

    def test_propensity_range(self):
        with pytest.raises(ValidationError):
            SyntheticSpec(n=10, m=1, class_prior=0.5, accuracies=(0.8,), propensities=(0.0,))

    def test_negative_seed(self):
        # numpy's generators reject a negative seed with a bare ValueError
        with pytest.raises(ValidationError, match="seed must be >= 0"):
            SyntheticSpec(n=10, m=1, class_prior=0.5, accuracies=(0.8,), propensities=(1.0,), seed=-2)

    @pytest.mark.parametrize("field, value", [("n", 10.5), ("m", True), ("seed", 2.5), ("seed", "7")])
    def test_non_integer_count_rejected(self, field, value):
        kwargs = dict(n=10, m=1, class_prior=0.5, accuracies=(0.8,), propensities=(1.0,), seed=3)
        with pytest.raises(ValidationError) as info:
            SyntheticSpec(**{**kwargs, field: value})
        assert str(info.value) == f"{field} must be an integer, got {value!r}"

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            SyntheticSpec(n=10, m=2, class_prior=0.5, accuracies=(0.8,), propensities=(1.0, 1.0))

    @pytest.mark.parametrize(
        "field, value",
        [("accuracies", (0.8, [0.9])), ("propensities", ("a", 1.0)), ("accuracies", [[0.8], [0.9]]), ("class_prior", "a")],
    )
    def test_malformed_field_rejected(self, field, value):
        kwargs = dict(n=10, m=2, class_prior=0.5, accuracies=(0.8, 0.9), propensities=(1.0, 1.0))
        with pytest.raises(ValidationError, match=field):
            SyntheticSpec(**{**kwargs, field: value})

    def test_json_roundtrip(self, tmp_path):
        spec = SyntheticSpec(
            n=10, m=2, class_prior=0.3, accuracies=(0.8, 0.9), propensities=(0.5, 1.0), seed=7
        )
        p = tmp_path / "spec.json"
        save_spec(spec, p)
        assert load_spec(p) == spec


class TestGenerate:
    def test_noiseless_limit(self):
        spec = SyntheticSpec(
            n=50, m=3, class_prior=0.5, accuracies=(1.0,) * 3, propensities=(1.0,) * 3, seed=1
        )
        matrix, gold = generate(spec)
        np.testing.assert_array_equal(matrix.values, np.tile(gold.values[:, None], (1, 3)))

    def test_propensity_concentration(self):
        spec = SyntheticSpec(
            n=10000, m=4, class_prior=0.5, accuracies=(0.8,) * 4, propensities=(0.3,) * 4, seed=2
        )
        matrix, _ = generate(spec)
        fire_rate = (matrix.values != -1).mean(axis=0)
        sigma = np.sqrt(0.3 * 0.7 / 10000)
        assert (np.abs(fire_rate - 0.3) < 3 * sigma).all()

    def test_class_prior_concentration(self):
        spec = SyntheticSpec(
            n=10000, m=1, class_prior=0.1, accuracies=(0.8,), propensities=(1.0,), seed=3
        )
        _, gold = generate(spec)
        sigma = np.sqrt(0.1 * 0.9 / 10000)
        assert abs(gold.values.mean() - 0.1) < 3 * sigma

    def test_deterministic_per_seed(self):
        spec = SyntheticSpec(
            n=100, m=3, class_prior=0.4, accuracies=(0.7, 0.8, 0.9), propensities=(0.5,) * 3, seed=11
        )
        m1, g1 = generate(spec)
        m2, g2 = generate(spec)
        assert m1 == m2
        np.testing.assert_array_equal(g1.values, g2.values)

    def test_output_is_valid_label_matrix(self):
        spec = SyntheticSpec(
            n=500, m=6, class_prior=0.25,
            accuracies=tuple(np.linspace(0.7, 0.95, 6)),
            propensities=tuple(np.linspace(0.2, 1.0, 6)),
            seed=4,
        )
        matrix, gold = generate(spec)
        assert np.isin(matrix.values, (-1, 0, 1)).all()
        assert matrix.n == gold.n == 500


    @given(small_specs())
    def test_matches_the_reference_draws(self, spec):
        matrix, gold = generate(spec)
        values, y = reference_generate(spec)
        np.testing.assert_array_equal(matrix.values, values)
        np.testing.assert_array_equal(gold.values, y)
        assert matrix.values.dtype == gold.values.dtype == np.int64

    def test_traced_peak_is_at_most_12_bytes_per_vote(self):
        # int64 values are 8 bytes per vote; the draws add one float array at a time
        n, m = 20_000, 25
        spec = SyntheticSpec(n=n, m=m, class_prior=0.3, accuracies=(0.8,) * m, propensities=(0.4,) * m)
        generate(SyntheticSpec(n=1, m=1, class_prior=0.3, accuracies=(0.8,), propensities=(0.4,)))  # lazy imports
        tracemalloc.start()
        try:
            generate(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 * n * m


class TestBayesOracle:
    def test_all_abstain_row_prior_map(self):
        spec = SyntheticSpec(
            n=10, m=2, class_prior=0.8, accuracies=(0.7, 0.7), propensities=(0.5, 0.5), seed=5
        )
        matrix = LabelMatrix(values=[[-1, -1]], lf_names=spec.lf_names)
        assert bayes_oracle(spec, matrix)[0] == 1

    def test_unanimous_votes_win(self):
        spec = SyntheticSpec(
            n=10, m=3, class_prior=0.5, accuracies=(0.8,) * 3, propensities=(1.0,) * 3, seed=6
        )
        matrix = LabelMatrix(values=[[1, 1, 1], [0, 0, 0]], lf_names=spec.lf_names)
        np.testing.assert_array_equal(bayes_oracle(spec, matrix), [1, 0])

    def test_matches_enumeration_exactly(self):
        rng = np.random.default_rng(31)
        for m in (1, 2, 3, 4):
            spec = SyntheticSpec(
                n=500,
                m=m,
                class_prior=float(rng.uniform(0.1, 0.9)),
                accuracies=tuple(rng.uniform(0.55, 0.99, size=m)),
                propensities=tuple(rng.uniform(0.2, 1.0, size=m)),
                seed=int(rng.integers(0, 2**31)),
            )
            matrix, _ = generate(spec)
            np.testing.assert_array_equal(
                bayes_oracle(spec, matrix), enumeration_oracle(spec, matrix)
            )

    @given(small_specs())
    def test_matches_the_reference_oracle(self, spec):
        matrix, _ = generate(spec)
        np.testing.assert_array_equal(bayes_oracle(spec, matrix), reference_oracle(spec, matrix))

    def test_a_vote_of_an_accuracy_1_lf_decides_its_row_without_a_warning(self):
        spec = SyntheticSpec(n=6, m=4, class_prior=0.5, accuracies=(1.0, 1.0, 0.9, 0.9), propensities=(1.0,) * 4)
        rows = [
            [1, -1, 0, 0],  # a sure positive vote outweighs any finite votes
            [0, -1, 1, 1],  # and so does a sure negative one
            [-1, 1, 0, -1],
            [1, 0, 1, 1],  # the sure LFs disagree: probability 0 under the spec, an exact tie
            [1, 1, 0, 0],
            [-1, -1, 1, 0],  # no sure vote: the finite terms cancel, a tie
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # log1p(-1) divides by zero, and inf - inf is nan
            labels = bayes_oracle(spec, LabelMatrix(values=rows, lf_names=spec.lf_names))
        np.testing.assert_array_equal(labels, [1, 0, 1, 0, 1, 0])

    def test_dimension_mismatch(self):
        spec = SyntheticSpec(
            n=10, m=2, class_prior=0.5, accuracies=(0.8, 0.8), propensities=(1.0, 1.0), seed=7
        )
        with pytest.raises(ValidationError):
            bayes_oracle(spec, LabelMatrix(values=[[1]], lf_names=("lf1",)))


class TestOracleDominance:
    def test_oracle_bounds_other_methods(self):
        spec = SyntheticSpec(
            n=10000,
            m=5,
            class_prior=0.3,
            accuracies=(0.75, 0.8, 0.85, 0.9, 0.7),
            propensities=(0.6, 0.8, 0.5, 0.9, 0.7),
            seed=8,
        )
        matrix, gold = generate(spec)
        oracle_acc = evaluate(bayes_oracle(spec, matrix), gold).accuracy
        mv_acc = evaluate(majority_vote(matrix), gold).accuracy
        model = train_label_model(matrix)
        fa_acc = evaluate(predict(model, matrix).labels, gold).accuracy
        assert oracle_acc + 0.01 >= mv_acc
        assert oracle_acc + 0.01 >= fa_acc
