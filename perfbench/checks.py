"""Output checks for every benchmarked command.

The benchmark parses the CLI's outputs with its own readers and compares
them with its own recounts, so a command that writes nothing, writes the
wrong shape, or miscounts is a failed operation rather than a fast one.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np

from workloads import METHODS, Command, Workload

COMPARE_HEADER = "method,accuracy,precision,recall,f1,tp,fp,tn,fn,n"
SWEEP_HEADER = "method,size,repeat,accuracy,precision,recall,f1"
PREDICTIONS_HEADER = "index,score,label"
DECREASE_RTOL = 1e-9  # an objective step below -1e-9 * |previous| counts as a decrease


def read_matrix(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array(rows[1:], dtype=np.int64)


def read_gold(path: Path) -> np.ndarray:
    lines = path.read_text(encoding="utf-8").splitlines()
    if lines[0] != "y":
        raise ValueError(f"{path.name}: header {lines[0]!r}")
    return np.array(lines[1:], dtype=np.int64)


def read_predictions(path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    lines = path.read_text(encoding="utf-8").splitlines()
    if lines[0] != PREDICTIONS_HEADER:
        raise ValueError(f"{path.name}: header {lines[0]!r}")
    cols = list(zip(*(line.split(",") for line in lines[1:])))
    if len(cols) != 3:
        raise ValueError(f"{path.name}: expected 3 columns")
    return np.array(cols[0], dtype=np.int64), np.array(cols[1], dtype=float), np.array(cols[2], dtype=np.int64)


def reference_lf_matrix(records: list[str], specs: list[dict]) -> np.ndarray:
    """LF votes by the documented rule: keyword = case-insensitive substring,
    regex = ``re.search``; a match votes ``vote_on_match``, anything else -1."""
    out = np.full((len(records), len(specs)), -1, dtype=np.int64)
    lowered = [r.lower() for r in records]
    for j, spec in enumerate(specs):
        if spec["kind"] == "keyword":
            needle = spec["pattern"].lower()
            hits = [i for i, r in enumerate(lowered) if needle in r]
        else:
            rx = re.compile(spec["pattern"])
            hits = [i for i, r in enumerate(records) if rx.search(r)]
        out[hits, j] = spec["vote_on_match"]
    return out


def majority_labels(values: np.ndarray) -> np.ndarray:
    """Majority of non-abstain votes; ties and all-abstain rows go to 0."""
    pos = (values == 1).sum(axis=1)
    neg = (values == 0).sum(axis=1)
    return (pos > neg).astype(np.int64)


def confusion(pred: np.ndarray, gold: np.ndarray) -> dict:
    return {
        "tp": int(((pred == 1) & (gold == 1)).sum()),
        "fp": int(((pred == 1) & (gold == 0)).sum()),
        "tn": int(((pred == 0) & (gold == 0)).sum()),
        "fn": int(((pred == 0) & (gold == 1)).sum()),
        "n": int(gold.size),
    }


def objective_decreases(trace: list[float]) -> int:
    return sum(1 for a, b in zip(trace, trace[1:]) if b - a < -DECREASE_RTOL * abs(a))


class Checker:
    """Checks one run's outputs; remembers each command's first output bytes."""

    def __init__(self, w: Workload, run_dir: Path, oracle: np.ndarray, records: list[str], specs: list[dict]):
        self.w = w
        self.run_dir = run_dir
        self.oracle = oracle
        self.records = records
        self.specs = specs
        self.test_values = read_matrix(run_dir / "test.csv")[1]
        self.test_gold = read_gold(run_dir / "test_gold.csv")
        self.first_digest: dict[str, list[str]] = {}
        self.reports: dict[str, dict] = {}  # route -> counts from --report JSON
        self.oracle_agreement: dict[str, float] = {}
        self._lf_reference = None

    def check(self, cmd: Command) -> list[str]:
        """Return the problems found in ``cmd``'s outputs (empty when correct)."""
        paths = [self.run_dir / p for p in cmd.outputs]
        missing = [p.name for p in paths if not p.is_file()]
        if missing:
            return [f"missing output {', '.join(missing)}"]
        problems = []
        digests = [hashlib.sha256(p.read_bytes()).hexdigest() for p in paths]
        first = self.first_digest.setdefault(cmd.name, digests)
        if digests != first:
            problems.append("output bytes differ from the first invocation")
        handler = getattr(self, "_" + cmd.args[0].replace("-", "_"))
        try:
            problems += handler(cmd, paths)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            problems.append(f"unreadable output: {exc!r}")
        return problems

    def _synth(self, cmd, paths):
        same = all(p.read_bytes() == (self.run_dir / p.name).read_bytes() for p in paths)
        return [] if same else ["synth output differs from the set-up matrix for the same spec"]

    def _apply_lfs(self, cmd, paths):
        header, values = read_matrix(paths[0])
        if self._lf_reference is None:
            self._lf_reference = reference_lf_matrix(self.records, self.specs)
        if header != [s["name"] for s in self.specs]:
            return ["LF matrix header does not list the spec names in order"]
        if values.shape != self._lf_reference.shape or not np.array_equal(values, self._lf_reference):
            return ["LF matrix differs from the reference votes"]
        return []

    def _fit(self, cmd, paths):
        model = json.loads(paths[0].read_text(encoding="utf-8"))
        route = cmd.args[cmd.args.index("--route") + 1]
        key = "emissions" if route == "ci-em" else "threshold_kind"
        problems = [] if key in model else [f"model JSON lacks '{key}'"]
        if "cdf-youden" in cmd.args and model.get("threshold_kind") != "cdf_youden":
            problems.append("model threshold_kind is not cdf_youden")
        if len(paths) > 1:
            report = json.loads(paths[1].read_text(encoding="utf-8"))
            trace = report["ll_trace"]
            if report["iterations"] < 1 or len(trace) != report["iterations"]:
                problems.append("report iterations do not match the trace")
            if not all(math.isfinite(v) for v in trace):
                problems.append("report trace has non-finite values")
            self.reports[route] = {
                "iterations": report["iterations"],
                "converged": int(bool(report["converged"])),
                "objective_decreases": objective_decreases(trace),
            }
        return problems

    def _predict(self, cmd, paths):
        index, scores, labels = read_predictions(paths[0])
        problems = []
        if index.size != self.w.test_n or not np.array_equal(index, np.arange(self.w.test_n)):
            problems.append(f"predictions have {index.size} rows or a bad index, expected {self.w.test_n}")
        elif not np.isin(labels, (0, 1)).all():
            problems.append("predicted labels outside {0, 1}")
        elif not np.isfinite(scores).all():
            problems.append("non-finite prediction scores")
        else:
            route = "fa-em" if cmd.name == "predict.fa" else "ci-em"
            self.oracle_agreement[route] = float((labels == self.oracle).mean())
        return problems

    def _evaluate(self, cmd, paths):
        report = json.loads(paths[0].read_text(encoding="utf-8"))
        _, _, labels = read_predictions(self.run_dir / cmd.args[1])
        expected = confusion(labels, read_gold(self.run_dir / cmd.args[2]))
        got = {k: report[k] for k in expected}
        return [] if got == expected else [f"confusion counts {got} differ from the recount {expected}"]

    def _compare(self, cmd, paths):
        lines = paths[0].read_text(encoding="utf-8").splitlines()
        rows = [line.split(",") for line in lines[1:]]
        if lines[0] != COMPARE_HEADER or [r[0] for r in rows] != list(METHODS):
            return ["compare table has the wrong header or methods"]
        if any(len(r) != 10 for r in rows):
            return ["compare table has ragged rows"]
        problems = []
        for r in rows:
            counts = [int(v) for v in r[5:10]]
            if counts[4] != self.w.test_n or sum(counts[:4]) != counts[4]:
                problems.append(f"compare row {r[0]} counts {counts} do not sum to n={self.w.test_n}")
        majority = confusion(majority_labels(self.test_values), self.test_gold)
        if [int(v) for v in rows[-1][5:10]] != list(majority.values()):
            problems.append("compare majority row differs from the recount")
        return problems

    def _sweep(self, cmd, paths):
        lines = paths[0].read_text(encoding="utf-8").splitlines()
        rows = [line.split(",") for line in lines[1:]]
        expected = {
            (m, s, r) for m in METHODS for s in self.w.sweep_sizes for r in range(self.w.sweep_repeats)
        }
        if lines[0] != SWEEP_HEADER or any(len(r) != 7 for r in rows):
            return ["sweep table has the wrong header or ragged rows"]
        if len(rows) != len(expected) or {(r[0], int(r[1]), int(r[2])) for r in rows} != expected:
            return [f"sweep table has {len(rows)} rows, expected the {len(expected)} (method, size, repeat) cells"]
        if not all(0.0 <= float(v) <= 1.0 for r in rows for v in r[3:]):
            return ["sweep metrics outside [0, 1]"]
        majority_acc = float((majority_labels(self.test_values) == self.test_gold).mean())
        if any(r[0] == "majority" and abs(float(r[3]) - majority_acc) > 1e-12 for r in rows):
            return ["sweep majority accuracy differs from the recount"]
        return []
