import numpy as np
import pytest

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
