"""Workload definitions, seeded input generation and the per-cycle command list.

Every workload runs every CLI command once per cycle, so every end-to-end
metric exists on every workload; what differs is the shape of the inputs,
which decides the layer that dominates.  Matrices come from the CLI's own
``synth`` (driven by spec files the benchmark writes); text records and
labelling-function specs come from a seeded vocabulary generator here.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

METHODS = ("fa-em", "fa-vi", "ci-em", "majority")  # as listed by compare, and swept
CLASS_PRIOR = 0.3
ACCURACY = (0.6, 0.9)  # per-LF accuracies are linspace(lo, hi, m)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    train_n: int
    test_n: int
    dev_n: int
    m: int
    propensity: float
    records_n: int  # text records for apply-lfs
    lf_specs: int  # keyword/regex LFs for apply-lfs
    sweep_sizes: tuple[int, ...]
    sweep_repeats: int


# One cycle takes 16-26 s on a 2-core machine, of which 12-17 s is
# interpreter start and `import falabel.cli`, paid once per command; a run
# of two cycles takes 36-54 s.  That keeps a set of 22 runs per workload
# under an hour for two workloads but not for three, so the many-small-fits
# load (a sweep over n <= 60) rides on `tall` instead of a workload of its own.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="tall",
            why="m=10, half the train rows repeat a pattern: CSV parse, FA E-step, CI-EM, the Youden loop "
            "and a 48-cell sweep of small fits dominate",
            train_n=10_000, test_n=5_000, dev_n=2_000, m=10, propensity=0.4,
            records_n=1_000, lf_specs=10, sweep_sizes=(10, 20, 30, 40, 50, 60), sweep_repeats=2,
        ),
        Workload(
            name="wide",
            why="m=50 with nearly all rows distinct, so dedup is bypassed; "
            "the only heavy load on the keyword/regex LF engine",
            train_n=2_000, test_n=2_000, dev_n=1_000, m=50, propensity=0.15,
            records_n=3_000, lf_specs=50, sweep_sizes=(10, 60), sweep_repeats=1,
        ),
        # Not a benchmark workload: exercises every command and check in seconds.
        Workload(
            name="smoke",
            why="tiny inputs for the harness's own smoke test",
            train_n=300, test_n=200, dev_n=200, m=5, propensity=0.6,
            records_n=60, lf_specs=4, sweep_sizes=(10, 20), sweep_repeats=1,
        ),
    )
}
BENCHMARK_WORKLOADS = ("tall", "wide")


def spec_payload(w: Workload, n: int, seed: int) -> dict:
    return {
        "n": n,
        "m": w.m,
        "class_prior": CLASS_PRIOR,
        "accuracies": [float(a) for a in np.linspace(*ACCURACY, w.m)],
        "propensities": [w.propensity] * w.m,
        "seed": seed,
    }


def _vocabulary(rng: random.Random, size: int) -> list[str]:
    letters = "abcdefghijklmnopqrstuvwxyz"
    words: set[str] = set()
    while len(words) < size:
        words.add("".join(rng.choice(letters) for _ in range(rng.randint(3, 8))))
    return sorted(words)


def text_inputs(w: Workload, seed: int) -> tuple[list[str], list[dict]]:
    """Seeded records (one line each) and LF specs, half keyword and half regex.

    Words are drawn with Zipf-like weights; LFs key on mid-frequency words
    so that each fires on a few percent of records.
    """
    rng = random.Random(seed)
    vocab = _vocabulary(rng, 400)
    weights = [1.0 / (rank + 1) for rank in range(len(vocab))]
    records = []
    for _ in range(w.records_n):
        words = rng.choices(vocab, weights=weights, k=rng.randint(6, 18))
        if rng.random() < 0.3:
            words[0] = words[0].capitalize()
        if rng.random() < 0.2:
            words.append(str(rng.randint(0, 999)))
        records.append(" ".join(words))
    keywords = rng.sample(vocab[10:120], w.lf_specs)
    specs = []
    for j, word in enumerate(keywords):
        if j % 2 == 0:
            spec = {"kind": "keyword", "pattern": word.upper() if j % 4 == 0 else word}
        else:
            other = vocab[rng.randrange(0, 40)]
            pattern = rf"\b{word}\b.*\b{other}\b" if j % 4 == 1 else rf"(?i)^{word[:3]}|\b{word}\s+\d+"
            spec = {"kind": "regex", "pattern": pattern}
        specs.append({"name": f"lf{j + 1}", **spec, "vote_on_match": j % 2})
    return records, specs


@dataclass(frozen=True)
class Command:
    name: str
    stage: str  # "fit" if it fits a label model, else "score": its end-to-end metric
    args: tuple[str, ...]  # CLI arguments after the program name
    outputs: tuple[str, ...]  # files the command must write, relative to the run dir


def commands(w: Workload, seed: int) -> list[Command]:
    """One cycle of the pipeline, in the order a user's script would run it."""
    seed_flag = ("--seed", str(seed))
    dev = ("--dev-matrix", "dev.csv", "--dev-gold", "dev_gold.csv")
    split = ("train.csv", "test.csv", "test_gold.csv")
    sweep = ("--sizes", ",".join(str(s) for s in w.sweep_sizes), "--repeats", str(w.sweep_repeats),
             "--methods", ",".join(METHODS))

    def fit(name, route, stem, *extra, report=True):
        outputs = (f"out/{stem}.json",) + ((f"out/{stem}_report.json",) if report else ())
        args = ("fit", "train.csv", "--route", route, *extra, *seed_flag, "--out", outputs[0])
        return Command(name, "fit", args + (("--report", outputs[1]) if report else ()), outputs)

    return [
        Command("synth", "score", ("synth", "--spec", "train_spec.json", "--out-matrix", "out/train.csv",
                                   "--out-gold", "out/train_gold.csv"), ("out/train.csv", "out/train_gold.csv")),
        Command("apply-lfs", "score", ("apply-lfs", "records.txt", "lfs.json", "--out", "out/lf_matrix.csv"),
                ("out/lf_matrix.csv",)),
        fit("fit.fa-em", "fa-em", "fa"),
        fit("fit.fa-vi", "fa-vi", "vi"),
        fit("fit.ci-em", "ci-em", "ci"),
        fit("fit.cdf-youden", "fa-em", "youden", "--threshold", "cdf-youden", *dev, report=False),
        Command("predict.fa", "score", ("predict", "out/fa.json", "test.csv", "--out", "out/pred_fa.csv"),
                ("out/pred_fa.csv",)),
        Command("predict.ci", "score", ("predict", "out/ci.json", "test.csv", "--out", "out/pred_ci.csv"),
                ("out/pred_ci.csv",)),
        Command("evaluate", "score", ("evaluate", "out/pred_fa.csv", "test_gold.csv", "--out", "out/eval.json"),
                ("out/eval.json",)),
        Command("compare", "fit", ("compare", *split, *seed_flag, "--out", "out/compare.csv"),
                ("out/compare.csv",)),
        Command("sweep", "fit", ("sweep", *split, *sweep, *seed_flag, "--out", "out/sweep.csv"),
                ("out/sweep.csv",)),
    ]


def setup_inputs(w: Workload, seed: int, run_dir: Path, cli_main, synthetic) -> dict:
    """Write every input file into ``run_dir``; return the oracle test labels,
    the text records and the LF specs.

    Matrices are produced by the CLI's own ``synth`` (called in-process);
    the oracle labels come from ``bayes_oracle`` on the test split's spec.
    """
    (run_dir / "out").mkdir(parents=True, exist_ok=True)
    splits = {"train": (w.train_n, seed), "test": (w.test_n, seed + 1), "dev": (w.dev_n, seed + 2)}
    for split, (n, split_seed) in splits.items():
        spec_path = run_dir / f"{split}_spec.json"
        spec_path.write_text(json.dumps(spec_payload(w, n, split_seed), indent=2) + "\n", encoding="utf-8")
        rc = cli_main(["synth", "--spec", str(spec_path), "--out-matrix", str(run_dir / f"{split}.csv"),
                       "--out-gold", str(run_dir / f"{split}_gold.csv")])
        if rc != 0:
            raise RuntimeError(f"setup synth of the {split} split exited {rc}")
    records, specs = text_inputs(w, seed)
    (run_dir / "records.txt").write_text("\n".join(records) + "\n", encoding="utf-8")
    (run_dir / "lfs.json").write_text(json.dumps(specs, indent=2) + "\n", encoding="utf-8")
    test_spec = synthetic.load_spec(run_dir / "test_spec.json")
    test_matrix, _ = synthetic.generate(test_spec)
    return {"oracle": synthetic.bayes_oracle(test_spec, test_matrix), "records": records, "specs": specs}
