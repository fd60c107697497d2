#!/usr/bin/env bash
# Full pipeline through the command-line interface: generate a synthetic
# benchmark, fit the factor label model, predict, evaluate, compare all
# methods, and run the robustness sweep.  Everything is seeded, so rerunning
# the script reproduces identical files.
set -euo pipefail

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

falabel synth --n 2000 --m 6 --class-prior 0.5 \
    --accuracy 0.7:0.9 --propensity 0.8 --seed 123 \
    --out-matrix "$work/train.csv" --out-gold "$work/train_gold.csv"
falabel synth --n 800 --m 6 --class-prior 0.5 \
    --accuracy 0.7:0.9 --propensity 0.8 --seed 124 \
    --out-matrix "$work/test.csv" --out-gold "$work/test_gold.csv"

echo; echo "== matrix statistics =="
falabel stats "$work/train.csv" | head -6

echo; echo "== fit (factor model, EM route) =="
falabel fit "$work/train.csv" --route fa-em --seed 123 \
    --out "$work/model.json" --report "$work/report.json"
python3 -c "import json; r = json.load(open('$work/report.json')); \
print(f'converged={r[\"converged\"]} after {r[\"iterations\"]} iterations')"

echo; echo "== predict + evaluate =="
falabel predict "$work/model.json" "$work/test.csv" --out "$work/pred.csv"
falabel evaluate "$work/pred.csv" "$work/test_gold.csv"

echo; echo "== compare all methods =="
falabel compare "$work/train.csv" "$work/test.csv" "$work/test_gold.csv" \
    --seed 123 --out "$work/table.csv"
cat "$work/table.csv"

echo; echo "== robustness sweep (mean accuracy per size) =="
falabel sweep "$work/train.csv" "$work/test.csv" "$work/test_gold.csv" \
    --sizes 10,30,60 --repeats 3 --seed 123 --out "$work/sweep.csv"
head -10 "$work/sweep.csv"

echo; echo "== covariance export =="
falabel cov "$work/train.csv" | head -3
