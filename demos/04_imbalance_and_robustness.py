"""Class imbalance and training-size robustness.

Sweeps the class prior to show how each method's accuracy moves with the
imbalance index, then shrinks the training set from 1,000 rows down to 10
to measure stability.  On this symmetric synthetic generator (abstention
independent of the class) the median-split factor model degrades under
imbalance because the median forces roughly half the predictions positive;
the conditionally-independent baseline, whose model family matches the
generator, tracks the Bayes oracle closely.
"""

import numpy as np

from falabel import (
    FitConfig,
    SyntheticSpec,
    bayes_oracle,
    evaluate,
    fit_ci_em,
    generate,
    imbalance_index,
    majority_vote,
    predict,
    robustness_sweep,
    train_label_model,
)

kwargs = dict(
    m=7,
    accuracies=tuple(np.linspace(0.7, 0.9, 7)),
    propensities=(0.5,) * 7,
)

print("accuracy vs class imbalance (test n=1500):")
print(f"  {'prior':>5} {'imbalance':>9} {'factor':>7} {'majority':>8} {'ci-em':>7} {'oracle':>7}")
for prior in (0.5, 0.3, 0.2, 0.1):
    train, _ = generate(SyntheticSpec(n=3000, class_prior=prior, seed=123, **kwargs))
    spec_test = SyntheticSpec(n=1500, class_prior=prior, seed=124, **kwargs)
    test, gold = generate(spec_test)

    fa = predict(train_label_model(train), test).labels
    mv = majority_vote(test)
    ci = predict(fit_ci_em(train, FitConfig(seed=123))[0], test).labels
    oracle = bayes_oracle(spec_test, test)

    accs = [evaluate(x, gold).accuracy for x in (fa, mv, ci, oracle)]
    print(f"  {prior:5.2f} {imbalance_index(gold):9.3f} "
          f"{accs[0]:7.3f} {accs[1]:8.3f} {accs[2]:7.3f} {accs[3]:7.3f}")

print("\ntraining-size robustness (balanced data, 5 repeats per size):")
train, _ = generate(SyntheticSpec(n=3000, class_prior=0.5, seed=123, **kwargs))
test, gold = generate(SyntheticSpec(n=1500, class_prior=0.5, seed=124, **kwargs))
result = robustness_sweep(
    train, test, gold, sizes=(10, 20, 30, 40, 50, 60, 1000), repeats=5, cfg=FitConfig(seed=123)
)
print(f"  {'method':<10} " + " ".join(f"{s:>8}" for s in result.sizes))
for method in result.methods:
    cells = []
    for row in result.summary():
        if row["method"] == method:
            cells.append(f"{row['accuracy_mean']:.2f}±{row['accuracy_std']:.2f}")
    print(f"  {method:<10} " + " ".join(f"{c:>8}" for c in cells))
