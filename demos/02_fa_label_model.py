"""The factor-analysis label model end to end.

Generates a balanced synthetic labelling matrix with known ground truth,
fits the factor model by EM and by variational inference (their objectives
agree because the single-factor variational family is exact), dichotomizes
the latent factor at the training median, and evaluates the pseudo-labels
against majority vote, the conditionally-independent EM baseline, and the
Bayes oracle.
"""

from falabel import (
    FitConfig,
    SyntheticSpec,
    bayes_oracle,
    evaluate,
    fit_ci_em,
    fit_fa_em,
    fit_fa_vi,
    generate,
    majority_vote,
    posterior_moments,
    predict,
    train_label_model,
)

spec_train = SyntheticSpec(
    n=2000, m=6, class_prior=0.5,
    accuracies=(0.9, 0.85, 0.8, 0.75, 0.9, 0.7),
    propensities=(1.0, 0.95, 0.9, 1.0, 0.9, 0.95),
    seed=123,
)
spec_test = SyntheticSpec(
    n=1000, m=6, class_prior=0.5,
    accuracies=spec_train.accuracies,
    propensities=spec_train.propensities,
    seed=124,
)
train, _ = generate(spec_train)
test, gold = generate(spec_test)

cfg = FitConfig(seed=123)
params_em, rep_em = fit_fa_em(train, cfg)
params_vi, rep_vi = fit_fa_vi(train, cfg)
print(f"EM : {rep_em.iterations:4d} iterations, objective {rep_em.final_log_likelihood:.2f}")
print(f"VI : {rep_vi.iterations:4d} iterations, objective {rep_vi.final_log_likelihood:.2f}")
print(f"objective gap: {abs(rep_em.final_log_likelihood - rep_vi.final_log_likelihood):.2e}")

print("\nfitted loadings (one per LF) and noise variances:")
for name, w, p in zip(train.lf_names, params_em.w, params_em.psi):
    print(f"  {name:<5} loading {w:+.3f}   noise {p:.3f}")

moments = posterior_moments(params_em, train)
print(f"\nposterior factor: shared variance {moments.var:.4f}, "
      f"train scores in [{moments.mean.min():.2f}, {moments.mean.max():.2f}]")

model = train_label_model(train, cfg)
print(f"label model: threshold {model.threshold_value:+.4f} ({model.threshold_kind})")

preds = predict(model, test)
rows = [
    ("factor model (median split)", preds.labels),
    ("majority vote", majority_vote(test)),
]
rows.append(("CI-EM baseline", predict(fit_ci_em(train, cfg)[0], test).labels))
rows.append(("Bayes oracle (true params)", bayes_oracle(spec_test, test)))

print(f"\n{'method':<28} {'acc':>6} {'prec':>6} {'rec':>6} {'f1':>6}")
for name, labels in rows:
    r = evaluate(labels, gold)
    print(f"{name:<28} {r.accuracy:6.3f} {r.precision:6.3f} {r.recall:6.3f} {r.f1:6.3f}")
