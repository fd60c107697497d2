"""Choosing the dichotomization threshold.

Compares the three supported rules on the same fitted factor: the median
and mean of the training scores need no labels; the Youden cut maximizes
TPR - FPR on the scores of a labelled dev split.  Every value printed is a
cut in the same oriented score units.  The ranking depends on the data,
which is why all three stay available rather than one being hard-wired.
"""

from falabel import (
    FitConfig,
    SyntheticSpec,
    evaluate,
    fit_fa_em,
    build_label_model,
    generate,
    predict,
)

kwargs = dict(
    m=5,
    accuracies=(0.85, 0.8, 0.9, 0.75, 0.8),
    propensities=(0.9, 0.7, 0.8, 0.9, 0.6),
)

for prior in (0.5, 0.25):
    train, _ = generate(SyntheticSpec(n=2000, class_prior=prior, seed=123, **kwargs))
    dev, dev_gold = generate(SyntheticSpec(n=400, class_prior=prior, seed=124, **kwargs))
    test, gold = generate(SyntheticSpec(n=1000, class_prior=prior, seed=125, **kwargs))

    params, _ = fit_fa_em(train, FitConfig(seed=123))
    print(f"\nclass prior {prior}:")
    print(f"  {'threshold rule':<14} {'value':>9} {'accuracy':>9} {'f1':>7}")
    for kind in ("median", "mean", "cdf_youden"):
        dev_split = (dev, dev_gold) if kind == "cdf_youden" else None
        model = build_label_model(params, train, threshold_kind=kind, dev=dev_split)
        r = evaluate(predict(model, test).labels, gold)
        print(f"  {kind:<14} {model.threshold_value:9.4f} {r.accuracy:9.3f} {r.f1:7.3f}")
