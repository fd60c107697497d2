from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import falabel.metrics_eval as metrics_eval
from falabel import (
    FitConfig,
    GoldLabels,
    LabelMatrix,
    NumericalError,
    SyntheticSpec,
    ValidationError,
    evaluate,
    generate,
    imbalance_index,
    robustness_sweep,
)
from falabel.labelling import _write_csv


def counting_oracle(pred, gold):
    """Independent confusion-matrix pass, one pair at a time."""
    tp = fp = tn = fn = 0
    for p, g in zip(pred, gold):
        if p == 1 and g == 1:
            tp += 1
        elif p == 1 and g == 0:
            fp += 1
        elif p == 0 and g == 0:
            tn += 1
        else:
            fn += 1
    return tp, fp, tn, fn


class TestEvaluate:
    def test_perfect_prediction(self):
        r = evaluate([1, 0, 1], [1, 0, 1])
        assert (r.accuracy, r.precision, r.recall, r.f1) == (1.0, 1.0, 1.0, 1.0)
        assert r.undefined == ()

    def test_all_wrong_flags_precision(self):
        r = evaluate([1, 1], [0, 0])
        assert r.accuracy == 0.0
        assert r.precision == 0.0
        assert "precision" not in r.undefined  # tp+fp=2, denominator fine
        assert "recall" in r.undefined  # no gold positives
        assert "f1" in r.undefined

    def test_zero_denominator_precision_flagged(self):
        r = evaluate([0, 0], [1, 0])
        assert r.precision == 0.0
        assert "precision" in r.undefined

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(2024)
        pred = rng.integers(0, 2, size=200)
        gold = rng.integers(0, 2, size=200)
        r = evaluate(pred, gold)
        tp, fp, tn, fn = counting_oracle(pred, gold)
        assert (r.tp, r.fp, r.tn, r.fn) == (tp, fp, tn, fn)
        assert r.accuracy == (tp + tn) / 200
        assert r.tp + r.fp + r.tn + r.fn == r.n == 200

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        pred = rng.integers(0, 2, size=100)
        gold = rng.integers(0, 2, size=100)
        perm = rng.permutation(100)
        assert evaluate(pred, gold) == evaluate(pred[perm], gold[perm])

    def test_length_mismatch(self):
        with pytest.raises(ValidationError, match="mismatch"):
            evaluate([1, 0], [1])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            evaluate(np.array([], dtype=int), np.array([], dtype=int))

    def test_f1_consistency(self):
        rng = np.random.default_rng(12)
        pred = rng.integers(0, 2, size=80)
        gold = rng.integers(0, 2, size=80)
        r = evaluate(pred, gold)
        if not r.undefined:
            assert r.f1 == pytest.approx(
                2 * r.precision * r.recall / (r.precision + r.recall)
            )


class TestImbalanceIndex:
    def test_spouse_test_counts(self):
        gold = np.concatenate([np.ones(218, dtype=int), np.zeros(2483, dtype=int)])
        assert imbalance_index(gold) == pytest.approx(0.8386, abs=1e-4)

    def test_balanced(self):
        assert imbalance_index([0, 1] * 25) == 0.0

    def test_all_positive(self):
        assert imbalance_index([1, 1, 1]) == 1.0

    def test_label_swap_invariant(self):
        rng = np.random.default_rng(9)
        gold = rng.integers(0, 2, size=500)
        assert imbalance_index(gold) == imbalance_index(1 - gold)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            imbalance_index(np.array([], dtype=int))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: evaluate([0.5], [1]), "predictions entries must be integers"),
        (lambda: evaluate([1], [0.5]), "gold labels entries must be integers"),
        (lambda: evaluate(["a"], [1]), "predictions entries must be integers"),
        (lambda: imbalance_index([0.7, 1]), "gold labels entries must be integers"),
        (lambda: GoldLabels(["a"]), "entries must be integers"),
        (lambda: LabelMatrix(values=[["1"]], lf_names=("a",)), "entries must be integers"),
        (lambda: evaluate([[1], [0, 1]], [1, 0]), "predictions entries must be a rectangular array"),
        (lambda: GoldLabels([[1], [0, 1]]), "entries must be a rectangular array"),
    ],
    ids=["fractional-prediction", "fractional-gold", "string-prediction", "fractional-imbalance",
         "string-gold-labels", "string-matrix-entry", "ragged-prediction", "ragged-gold-labels"],
)
def test_a_fractional_or_non_numeric_label_is_rejected(call, message):
    # evaluate and imbalance_index truncated 0.5 and 0.7 to 0 and scored them; a string or
    # a ragged list raised a bare ValueError, and a matrix read the string "1" as a vote
    with pytest.raises(ValidationError, match=f"^{message}$"):
        call()


def small_world(seed=0, n_train=200, n_test=120):
    spec_kwargs = dict(
        m=4,
        class_prior=0.5,
        accuracies=(0.9, 0.85, 0.9, 0.8),
        propensities=(1.0, 0.9, 0.8, 1.0),
    )
    train, _ = generate(SyntheticSpec(n=n_train, seed=seed, **spec_kwargs))
    test, gold = generate(SyntheticSpec(n=n_test, seed=seed + 1, **spec_kwargs))
    return train, test, gold


class TestRobustnessSweep:
    def test_output_shape(self):
        train, test, gold = small_world()
        result = robustness_sweep(
            train, test, gold, sizes=(10, 20), repeats=3, cfg=FitConfig(seed=7)
        )
        assert len(result.records) == 2 * 3 * 3  # sizes x methods x repeats
        assert len(result.summary()) == 2 * 3  # methods x sizes

    def test_full_size_single_repeat_equals_direct_run(self):
        from falabel import predict, train_label_model

        train, test, gold = small_world(seed=5)
        result = robustness_sweep(
            train, test, gold, sizes=(train.n,), repeats=1, cfg=FitConfig(seed=7), methods=("fa-em",)
        )
        model = train_label_model(train, FitConfig(seed=7))
        direct = evaluate(predict(model, test).labels, gold)
        assert result.records[0].metrics == direct

    def test_bit_reproducible(self):
        train, test, gold = small_world(seed=6)
        r1 = robustness_sweep(train, test, gold, sizes=(15, 30), repeats=2, cfg=FitConfig(seed=42))
        r2 = robustness_sweep(train, test, gold, sizes=(15, 30), repeats=2, cfg=FitConfig(seed=42))
        assert r1.to_csv() == r2.to_csv()

    def test_size_exceeding_rows_rejected(self):
        train, test, gold = small_world()
        with pytest.raises(ValidationError, match="exceeds"):
            robustness_sweep(train, test, gold, sizes=(train.n + 1,), repeats=1)

    def test_record_order(self):
        train, test, gold = small_world(seed=8)
        result = robustness_sweep(
            train, test, gold, sizes=(10, 20), repeats=2, cfg=FitConfig(seed=1),
            methods=("fa-em", "majority"),
        )
        keys = [(r.size, r.method, r.repeat) for r in result.records]
        assert keys == sorted(keys, key=lambda k: (k[0], ("fa-em", "majority").index(k[1]), k[2]))

    def test_csv_header(self):
        train, test, gold = small_world(seed=9)
        result = robustness_sweep(train, test, gold, sizes=(10,), repeats=1, cfg=FitConfig(seed=3))
        assert result.to_csv().startswith("method,size,repeat,accuracy,precision,recall,f1")

    @pytest.mark.parametrize(
        "kwargs",
        [{"sizes": (10, 10)}, {"sizes": (10, 20, 10)}, {"methods": ("fa-em", "fa-em")},
         {"methods": ("majority", "ci-em", "majority")}],
    )
    def test_duplicate_sizes_or_methods_rejected(self, kwargs):
        train, test, gold = small_world(seed=10)
        with pytest.raises(ValidationError, match="must be distinct"):
            robustness_sweep(train, test, gold, repeats=2, cfg=FitConfig(seed=5), **{"sizes": (10,), **kwargs})

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"repeats": 2.5}, "repeats must be an integer, got 2.5"),
            ({"repeats": True}, "repeats must be an integer, got True"),
            ({"sizes": (10.5,)}, "sizes must be an integer, got 10.5"),
            ({"repeats": 0}, "repeats must be >= 1, got 0"),
            ({"sizes": (1,)}, "sizes must be >= 2 to fit models, got 1"),
        ],
    )
    def test_bad_count_rejected(self, kwargs, message):
        train, test, gold = small_world(seed=10)
        with pytest.raises(ValidationError) as exc:
            robustness_sweep(train, test, gold, cfg=FitConfig(seed=5), **{"sizes": (10,), "repeats": 1, **kwargs})
        assert str(exc.value) == message

    def test_negative_seed_rejected(self):
        train, test, gold = small_world(seed=10)
        with pytest.raises(ValidationError, match="seed must be >= 0"):
            robustness_sweep(train, test, gold, sizes=(10,), repeats=1, cfg=FitConfig(seed=-3))

    @pytest.mark.parametrize("kwargs, message", [
        ({"sizes": ()}, "at least one size is required"),
        ({"methods": ()}, "at least one method is required"),  # it returned a header-only result
    ])
    def test_empty_sizes_or_methods_rejected(self, kwargs, message):
        train, test, gold = small_world(seed=10)
        with pytest.raises(ValidationError) as exc:
            robustness_sweep(train, test, gold, repeats=1, cfg=FitConfig(seed=5), **{"sizes": (10,), **kwargs})
        assert str(exc.value) == message

    def test_each_method_fits_every_cell_once(self, monkeypatch):
        # an FA method is one lockstep batch over all cells, any other method one
        # METHODS call per cell, in methods order; each record keeps its cell's report
        train, test, gold = small_world(seed=11)
        calls = log_fits(monkeypatch)
        methods = ("majority", "fa-vi", "ci-em", "fa-em")
        result = robustness_sweep(train, test, gold, sizes=(10, 20), repeats=2, cfg=FitConfig(seed=4), methods=methods)
        cells = [10, 10, 20, 20]
        assert calls == [*(("majority", n) for n in cells), ("batch", "fa-vi", 4),
                         *(("ci-em", n) for n in cells), ("batch", "fa-em", 4)]
        for r in result.records:
            if r.method == "majority":
                assert r.report is None
            else:
                assert (r.report.route, r.report.converged) == (r.method, True)

    @pytest.mark.parametrize("fail_at", [1, 4, 5])  # a ci-em cell, the fa-em batch, the fa-vi batch
    def test_a_failing_fit_raises_its_own_error(self, monkeypatch, fail_at):
        # the first failing fit in methods order ends the sweep, and no cell is
        # fitted again: a failed FA batch was refitted cell by cell
        train, test, gold = small_world(seed=11)
        calls = log_fits(monkeypatch, fail_at)
        with pytest.raises(NumericalError, match=f"^fit {fail_at}$"):
            robustness_sweep(
                train, test, gold, sizes=(10, 20), repeats=2, cfg=FitConfig(seed=4),
                methods=("ci-em", "fa-em", "fa-vi"),
            )
        expected = [*(("ci-em", n) for n in (10, 10, 20, 20)), ("batch", "fa-em", 4), ("batch", "fa-vi", 4)]
        assert calls == expected[: fail_at + 1]


def log_fits(monkeypatch, fail_at=None):
    """Log every fit that the sweep makes, as ("batch", route, cells) or (method,
    rows), in order; call number ``fail_at`` (from 0) raises NumericalError."""
    calls = []

    def logged(fit, key):
        def run(data, cfg, *args):
            calls.append(key(data, *args))
            if len(calls) - 1 == fail_at:
                raise NumericalError(f"fit {fail_at}")
            return fit(data, cfg, *args)

        return run

    monkeypatch.setattr(
        metrics_eval, "_fit_fa_batch", logged(metrics_eval._fit_fa_batch, lambda datas, route: ("batch", route, len(datas)))
    )
    for method, fit in list(metrics_eval.METHODS.items()):
        monkeypatch.setitem(metrics_eval.METHODS, method, logged(fit, lambda train, *_, method=method: (method, train.n)))
    return calls


def test_sweep_master_seed_is_cfg_seed():
    # the sweep overwrote cfg.seed with its own seed argument, 123 by default
    train, test, gold = small_world(seed=12)
    world = dict(
        train=train, test=test, gold_test=gold, sizes=(10, 20), repeats=2,
        methods=tuple(metrics_eval.METHODS), cfg=FitConfig(seed=7), threshold_kind="median",
    )
    result = robustness_sweep(**world)
    assert result.seed == 7
    assert result.to_csv() == one_cell_at_a_time(**world)
    assert result.to_csv() != robustness_sweep(**{**world, "cfg": FitConfig()}).to_csv()


def one_cell_at_a_time(train, test, gold_test, sizes, repeats, methods, cfg, threshold_kind):
    """Reference: the sweep loop as it ran before the FA cells were batched,
    fitting every (size, method, repeat) cell alone through the method table."""
    children = np.random.SeedSequence(cfg.seed).spawn(len(sizes) * repeats)
    subsamples = {}
    for si, size in enumerate(sizes):
        for rep in range(repeats):
            child = children[si * repeats + rep]
            idx = np.sort(np.random.default_rng(child).choice(train.n, size=size, replace=False))
            subsamples[(size, rep)] = (idx, int(child.generate_state(1)[0]))
    rows = [("method", "size", "repeat", "accuracy", "precision", "recall", "f1")]
    for size in sizes:
        for method in methods:
            for rep in range(repeats):
                idx, cell_seed = subsamples[(size, rep)]
                sub = LabelMatrix(values=train.values[idx], lf_names=train.lf_names)
                fit = metrics_eval.METHODS[method]
                _, _, labeller = fit(sub, replace(cfg, seed=cell_seed), threshold_kind, None)
                m = evaluate(labeller(test), gold_test)
                rows.append((method, size, rep, m.accuracy, m.precision, m.recall, m.f1))
    return _write_csv(rows)


@st.composite
def sweep_worlds(draw):
    """A small random world and sweep settings: all four methods in a random order."""
    m = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spec = SyntheticSpec(
        n=draw(st.integers(20, 150)), m=m, class_prior=float(rng.uniform(0.2, 0.8)),
        accuracies=tuple(rng.uniform(0.55, 0.95, m)), propensities=tuple(rng.uniform(0.3, 1.0, m)),
        seed=draw(st.integers(0, 2**16)),
    )
    train, _ = generate(spec)
    test, gold = generate(replace(spec, n=draw(st.integers(5, 80)), seed=spec.seed + 1))
    sizes = tuple(draw(st.lists(st.integers(2, train.n), min_size=1, max_size=3, unique=True)))
    return dict(
        train=train, test=test, gold_test=gold, sizes=sizes, repeats=draw(st.integers(1, 3)),
        methods=tuple(draw(st.permutations(list(metrics_eval.METHODS)))),
        cfg=FitConfig(seed=draw(st.integers(0, 2**16))), threshold_kind=draw(st.sampled_from(["median", "mean"])),
    )


def outcome(run, **kwargs):
    try:
        return run(**kwargs)
    except (NumericalError, ValidationError) as exc:
        return type(exc), str(exc)


@given(sweep_worlds())
def test_sweep_csv_equals_one_cell_at_a_time(world):
    expected = outcome(one_cell_at_a_time, **world)
    assert outcome(lambda **kw: robustness_sweep(**kw).to_csv(), **world) == expected


def test_sweep_fit_failure_raises_what_its_fa_batch_raises(failing_em_member, monkeypatch):
    train, test, gold = small_world(seed=3)
    world = dict(
        train=train, test=test, gold_test=gold, sizes=(10, 20, 30), repeats=2,
        methods=("ci-em", "fa-em"), cfg=FitConfig(seed=7), threshold_kind="median",
    )
    # the batch fails at iteration 3, by a size-30 cell, and the sweep raises that;
    # alone, the size-20 cells fail first in sweep order, at iteration 5
    failing_em_member({20: 5, 30: 3})
    raised, fit_batch = [], metrics_eval._fit_fa_batch

    def watched_batch(*args):
        try:
            return fit_batch(*args)
        except NumericalError as exc:
            raised.append(exc)
            raise

    monkeypatch.setattr(metrics_eval, "_fit_fa_batch", watched_batch)
    with pytest.raises(NumericalError) as info:
        robustness_sweep(**world)
    assert raised == [info.value]
    assert str(info.value) == "non-finite log-likelihood at iteration 3"
    assert outcome(one_cell_at_a_time, **world) == (NumericalError, "non-finite log-likelihood at iteration 5")
