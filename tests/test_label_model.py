import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from falabel import (
    FAParams,
    FitConfig,
    LabelMatrix,
    LabelModel,
    SyntheticSpec,
    ValidationError,
    bayes_oracle,
    build_label_model,
    fit_fa_em,
    fit_fa_vi,
    generate,
    load_model,
    posterior_moments,
    predict,
    save_model,
    train_label_model,
    youden_threshold,
)
from falabel.label_model import _latent_threshold


def make_model(threshold=0.0, kind="median"):
    params = FAParams(w=[1.0, 0.5], c=[0.0, 0.0], psi=[0.5, 0.5])
    return LabelModel(params=params, threshold_kind=kind, threshold_value=threshold)


def balanced_spec(n=400, seed=0):
    return SyntheticSpec(
        n=n,
        m=5,
        class_prior=0.5,
        accuracies=(0.9, 0.85, 0.8, 0.9, 0.85),
        propensities=(1.0, 0.9, 0.8, 1.0, 0.9),
        seed=seed,
    )


class TestThresholds:
    def test_median_odd_count(self):
        assert _latent_threshold("median", np.array([-2.0, -1.0, 0.0, 1.0, 2.0])) == 0.0

    def test_median_even_count_mid_average(self):
        assert _latent_threshold("median", np.array([1.0, 2.0, 3.0, 4.0])) == 2.5

    def test_mean(self):
        assert _latent_threshold("mean", np.array([1.0, 2.0, 3.0])) == 2.0

    def test_youden_perfect_cut(self):
        scores = np.array([0.1, 0.2, 0.3, 0.7, 0.8, 0.9])
        gold = np.array([0, 0, 0, 1, 1, 1])
        t, j = youden_threshold(scores, gold)
        assert j == pytest.approx(1.0)
        pred = scores > t
        assert np.array_equal(pred.astype(int), gold)

    def test_youden_matches_exhaustive_search(self):
        rng = np.random.default_rng(6)
        scores = rng.random(40)
        gold = rng.integers(0, 2, size=40)
        _, j = youden_threshold(scores, gold)
        best = -np.inf
        for t in np.concatenate([[-1.0], scores]):
            pred = scores > t
            tpr = (pred & (gold == 1)).sum() / (gold == 1).sum()
            fpr = (pred & (gold == 0)).sum() / (gold == 0).sum()
            best = max(best, tpr - fpr)
        assert j == pytest.approx(best)

    def test_youden_requires_both_classes(self):
        with pytest.raises(ValidationError):
            youden_threshold(np.array([0.1, 0.9]), np.array([1, 1]))

    @pytest.mark.parametrize(
        "scores, gold, message",
        [
            ([0.1, 0.2, 0.3], [0, 1, 2], "gold labels must be in"),  # gave (0.1, 1.0)
            ([0.1, 0.2, 0.3], [0, 1, -1], "gold labels must be in"),
            ([0.1, 0.2, 0.3], [0, 1, 0.5], "gold labels must be in"),
            ([0.1, np.nan, 0.3], [0, 1, 0], "scores must be finite"),  # gave a nan cut
            ([0.1, np.inf, 0.3], [0, 1, 0], "scores must be finite"),
            (["a", 0.2, 0.3], [0, 1, 0], "scores must be a rectangular array of numbers"),
        ],
    )
    def test_youden_rejects_gold_outside_0_1_and_non_finite_scores(self, scores, gold, message):
        with pytest.raises(ValidationError, match=message):
            youden_threshold(np.array(scores), np.array(gold))


def orient_factor(z_train, matrix):
    """The sign rule that falabel kept beside the fit's own: +1 when the factor
    correlates >= 0 with each row's share of positive votes among its votes
    (rows that abstain everywhere left out), and +1 when that is undefined."""
    n_votes = (matrix.values != -1).sum(axis=1)
    has_vote = n_votes > 0
    if has_vote.sum() < 2:
        return 1
    vote_mean = (matrix.values == 1).sum(axis=1)[has_vote] / n_votes[has_vote]
    z = z_train[has_vote]
    if np.std(z) == 0 or np.std(vote_mean) == 0:
        return 1
    corr = float(np.corrcoef(z, vote_mean)[0, 1])
    return 1 if np.isnan(corr) or corr >= 0 else -1


@st.composite
def labelling_worlds(draw):
    """Worlds where each class holds 5 % of the rows or more.  At a prior of 0.01
    over 200 rows (two positives) the share of positive votes is noise, which the
    reference follows and the sum rule does not, so such worlds are left out."""
    m = draw(st.integers(1, 12))
    return SyntheticSpec(
        n=draw(st.integers(200, 2000)),
        m=m,
        class_prior=draw(st.floats(0.05, 0.95)),
        accuracies=tuple(draw(st.lists(st.floats(0.55, 1.0), min_size=m, max_size=m))),
        propensities=tuple(draw(st.lists(st.floats(0.05, 1.0), min_size=m, max_size=m))),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


@settings(max_examples=200, deadline=None)
@given(labelling_worlds())
def test_the_sign_rule_picks_the_sign_of_the_vote_correlation(spec):
    # with signed votes, loadings that sum to >= 0 correlate with the share of positive votes
    train, _ = generate(spec)
    params = fit_fa_em(train)[0]
    sign = orient_factor(posterior_moments(params, train).mean, train)
    assert build_label_model(params, train).params.w.tobytes() == (sign * params.w).tobytes()


def test_median_labels_agree_with_the_bayes_oracle_on_a_tall_world():
    # perfbench's tall world at seed 811: 0.775 of the test rows agree with signed votes,
    # 0.646 with abstain read as -1 and a negative vote as 0
    def split(n, seed):
        spec = SyntheticSpec(n=n, m=10, class_prior=0.3, accuracies=tuple(np.linspace(0.6, 0.9, 10)),
                             propensities=(0.4,) * 10, seed=seed)
        return spec, generate(spec)[0]

    train, (spec, test) = split(10_000, 811)[1], split(5_000, 812)
    agreement = (predict(train_label_model(train), test).labels == bayes_oracle(spec, test)).mean()
    assert agreement >= 0.75


class TestPredict:
    def test_threshold_rule(self):
        model = make_model(threshold=0.0)
        matrix = LabelMatrix(values=[[0, 0], [1, 1]], lf_names=("a", "b"))
        preds = predict(model, matrix)
        expected = (preds.scores > 0.0).astype(int)
        np.testing.assert_array_equal(preds.labels, expected)

    def test_tie_resolves_to_zero(self):
        model = make_model(threshold=0.0)
        matrix = LabelMatrix(values=[[-1, -1]], lf_names=("a", "b"))  # abstentions score 0 with c = 0
        preds = predict(model, matrix)
        assert preds.scores[0] == 0.0
        assert preds.labels[0] == 0

    def test_dimension_mismatch(self):
        model = make_model()
        with pytest.raises(ValidationError):
            predict(model, LabelMatrix(values=[[1, 0, 1]], lf_names=("a", "b", "c")))

    def test_monotone_in_score(self):
        model = make_model(threshold=0.2)
        matrix = LabelMatrix(
            values=[[-1, -1], [0, 0], [0, 1], [1, 0], [1, 1]], lf_names=("a", "b")
        )
        preds = predict(model, matrix)
        order = np.argsort(preds.scores)
        labels_sorted = preds.labels[order]
        assert (np.diff(labels_sorted) >= 0).all()


class TestTrainLabelModel:
    def test_sign_invariance_full_pipeline(self):
        # w and -w must build the same model: the same oriented W and threshold
        matrix, _ = generate(balanced_spec(seed=3))
        params, _ = fit_fa_em(matrix, FitConfig(seed=1))
        flipped_params = FAParams(w=-params.w, c=params.c, psi=params.psi)
        model0 = build_label_model(params, matrix)
        model1 = build_label_model(flipped_params, matrix)
        assert model0.params.w.tobytes() == model1.params.w.tobytes()
        assert model0.threshold_value == model1.threshold_value
        test_matrix, _ = generate(balanced_spec(seed=4))
        p0 = predict(model0, test_matrix)
        p1 = predict(model1, test_matrix)
        np.testing.assert_array_equal(p0.labels, p1.labels)
        assert p0.scores.tobytes() == p1.scores.tobytes()

    def test_median_split_on_training_matrix(self):
        matrix, _ = generate(balanced_spec(seed=5))
        model = train_label_model(matrix)
        preds = predict(model, matrix)
        t = model.threshold_value
        above = (preds.scores > t).sum()
        below = (preds.scores < t).sum()
        ties = (preds.scores == t).sum()
        assert abs(above - below) <= ties

    def test_cdf_youden_requires_dev(self):
        matrix, _ = generate(balanced_spec(seed=6))
        with pytest.raises(ValidationError, match="dev"):
            build_label_model(fit_fa_em(matrix)[0], matrix, "cdf_youden")

    def test_unknown_threshold_kind_rejected(self):
        matrix, _ = generate(balanced_spec(seed=6))
        with pytest.raises(ValidationError, match="threshold_kind must be one of .*, got 'mode'"):
            build_label_model(fit_fa_em(matrix)[0], matrix, "mode")

    def test_cdf_youden_with_dev(self):
        spec = balanced_spec(seed=7)
        train, _ = generate(spec)
        dev_spec = balanced_spec(n=200, seed=8)
        dev_matrix, dev_gold = generate(dev_spec)
        model = build_label_model(
            fit_fa_em(train)[0], train, "cdf_youden", (dev_matrix, dev_gold)
        )
        assert model.threshold_value in predict(model, dev_matrix).scores
        test_matrix, test_gold = generate(balanced_spec(n=300, seed=9))
        preds = predict(model, test_matrix)
        acc = (preds.labels == test_gold.values).mean()
        assert acc > 0.8

    def test_deterministic_predictions(self):
        matrix, _ = generate(balanced_spec(seed=10))
        test_matrix, _ = generate(balanced_spec(n=100, seed=11))
        runs = []
        for _ in range(2):
            model = train_label_model(matrix, FitConfig(seed=2))
            preds = predict(model, test_matrix)
            runs.append((preds.labels.tobytes(), preds.scores.tobytes()))
        assert runs[0] == runs[1]

    def test_vi_route(self):
        matrix, gold = generate(balanced_spec(seed=12))
        model_vi = build_label_model(fit_fa_vi(matrix)[0], matrix)
        model_em = train_label_model(matrix)
        p_vi = predict(model_vi, matrix)
        p_em = predict(model_em, matrix)
        agreement = (p_vi.labels == p_em.labels).mean()
        assert agreement > 0.95

    def test_accuracy_on_easy_balanced_data(self):
        spec = balanced_spec(n=1000, seed=13)
        train, _ = generate(spec)
        test_matrix, test_gold = generate(balanced_spec(n=500, seed=14))
        model = train_label_model(train)
        preds = predict(model, test_matrix)
        acc = (preds.labels == test_gold.values).mean()
        assert acc > 0.85


class TestLabelModelIO:
    def test_roundtrip(self, tmp_path):
        train, _ = generate(balanced_spec(seed=19))
        model = train_label_model(train)
        p = tmp_path / "model.json"
        save_model(p, "fa-em", train.lf_names, model)
        method, lf_names, loaded = load_model(p)
        assert (method, lf_names) == ("fa-em", train.lf_names)
        np.testing.assert_array_equal(loaded.params.w, model.params.w)
        assert loaded.threshold_kind == model.threshold_kind
        assert loaded.threshold_value == model.threshold_value
        test_matrix, _ = generate(balanced_spec(n=60, seed=20))
        np.testing.assert_array_equal(
            predict(loaded, test_matrix).labels, predict(model, test_matrix).labels
        )

    def test_missing_field_rejected(self, tmp_path):
        p = tmp_path / "model.json"
        p.write_text('{"version": 3, "method": "fa-em", "lf_names": ["a"], "w": [1.0], "c": [0.0], "psi": [1.0]}')
        with pytest.raises(ValidationError, match="missing field 'threshold_kind'"):
            load_model(p)


def youden_by_scan(scores, gold):
    """Reference: one full pass per candidate cut, ascending; the first strict
    improvement wins, so ties go to the smallest cut."""
    n_pos, n_neg = int((gold == 1).sum()), int((gold == 0).sum())
    candidates = np.concatenate([[scores.min() - 1.0], np.unique(scores)])
    best_t, best_j = candidates[0], -np.inf
    for t in candidates:
        pred = scores > t
        j = (pred & (gold == 1)).sum() / n_pos - (pred & (gold == 0)).sum() / n_neg
        if j > best_j:
            best_j, best_t = j, t
    return float(best_t), float(best_j)


@given(st.data())
def test_youden_equals_the_per_cut_scan_on_tied_scores(data):
    n = data.draw(st.integers(2, 200))
    # few distinct values, so most scores are tied with others
    levels = data.draw(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=6))
    scores = np.array(data.draw(st.lists(st.sampled_from(levels), min_size=n, max_size=n)))
    gold = np.array(data.draw(st.lists(st.sampled_from([0, 1]), min_size=n, max_size=n)))
    gold[:2] = data.draw(st.permutations([0, 1]))
    assert youden_threshold(scores, gold) == youden_by_scan(scores, gold)


# signed zeros and a few values drawn often, so that ties and runs of -0.0 are common
_FACTOR_VALUES = st.one_of(
    st.sampled_from([-0.0, 0.0, 1.5, -1.5]), st.floats(allow_nan=False, allow_infinity=False)
)


@settings(max_examples=300)  # a median off in the sign of a zero shows on a few drawn arrays in a hundred
@given(st.lists(_FACTOR_VALUES, min_size=1, max_size=40))
def test_median_threshold_is_np_median_bit_for_bit(xs):
    z = np.array(xs)
    with np.errstate(over="ignore"):  # the middle pair of two huge values sums to inf in both
        got, want = _latent_threshold("median", z), float(np.median(z))
    assert got.hex() == want.hex()  # hex() tells -0.0 from 0.0
    assert z.tolist() == xs


def erfc_cdf(x):
    """The standard normal CDF, erfc(-x / sqrt 2) / 2, one ``math.erfc`` call per value."""
    return 0.5 * np.array([math.erfc(v) for v in (x * -math.sqrt(0.5)).tolist()])


@example(seed=46834, n=10, prior=0.5015166739750693)  # the CDF merges 59 dev scores into 55: J 0.8019 there, 0.8068 on the scores
@given(st.integers(0, 2**16), st.integers(10, 300), st.floats(0.2, 0.8))
def test_cdf_youden_cuts_the_dev_scores(seed, n, prior):
    def split(n, seed):
        return generate(SyntheticSpec(
            n=n, m=5, class_prior=prior, accuracies=(0.9, 0.85, 0.8, 0.7, 0.6),
            propensities=(1.0, 0.9, 0.8, 0.6, 0.5), seed=seed,
        ))

    train, _ = split(n, seed)
    (dev, dev_gold), (test, _) = split(100, seed + 1), split(200, seed + 2)
    model = build_label_model(fit_fa_em(train)[0], train, "cdf_youden", (dev, dev_gold))
    dev_scores = predict(model, dev).scores
    cut, j = youden_threshold(dev_scores, dev_gold.values)
    assert model.threshold_value == cut

    # reference: the rule that cut the normal CDF of the dev scores, standardized
    # by the moments of the training scores
    train_scores = predict(model, train).scores
    mean, std = float(train_scores.mean()), float(train_scores.std()) or 1.0
    cdf_cut, cdf_j = youden_threshold(erfc_cdf((dev_scores - mean) / std), dev_gold.values)
    assert j >= cdf_j  # the CDF keeps the order of the scores but can merge nearly equal ones
    scores = [predict(model, m).scores for m in (dev, test)]
    pooled = np.concatenate(scores)
    if np.unique(erfc_cdf((pooled - mean) / std)).size == np.unique(pooled).size:  # no two merged
        assert j == cdf_j
        for m, s in zip((dev, test), scores):
            np.testing.assert_array_equal(predict(model, m).labels, erfc_cdf((s - mean) / std) > cdf_cut)
