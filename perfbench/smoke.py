"""Smoke test of the benchmark harness at tiny sizes.

    python3 -m pytest -q perfbench/smoke.py

Runs the ``smoke`` workload end to end in both modes, feeds each output
check a deliberately broken output, and confirms that the benchmark
refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args, cwd=run.ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_smoke_run_reports_every_metric(trace, section):
    proc = _bench("--workload", "smoke", "--seed", "5", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 11
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


@pytest.fixture(scope="module")
def smoke_run():
    r = run.Run("smoke", 7, 1.0, run.import_falabel())
    r._replay(None)
    assert r.failed == 0, r.failures
    yield r
    r.close()


BROKEN = {
    "predict.fa": lambda t: "\n".join(t.splitlines()[:-1]) + "\n",  # a row dropped
    "predict.ci": lambda t: t[: t.rstrip("\n").rfind(",")] + ",2\n",  # label outside {0, 1}
    "evaluate": lambda t: t.replace('"tp": ', '"tp": 1'),  # miscounted confusion
    "compare": lambda t: "\n".join(t.splitlines()[:-1]) + "\n",  # majority row missing
    "sweep": lambda t: "\n".join(t.splitlines()[:-1]) + "\n",  # one cell missing
    "apply-lfs": lambda t: t.replace("-1", "1", 1),  # one vote changed
    "synth": lambda t: t + "1,1,1,1,1\n",  # differs from the set-up matrix
    "fit.fa-em": lambda t: t.replace('"median"', '"mean"'),  # a valid model, but not the same bytes
}
REPEAT_ONLY = {"fit.fa-em"}


@pytest.mark.parametrize("metric", sorted(BROKEN))
def test_checks_flag_broken_output(smoke_run, metric):
    """Each check on its own catches its defect: the remembered first-run bytes
    are dropped, except where the byte comparison is the check under test."""
    checker = smoke_run.checker
    cmd = next(c for c in smoke_run.cmds if c.name == metric)
    path = smoke_run.dir / cmd.outputs[0]
    original = path.read_text(encoding="utf-8")
    path.write_text(BROKEN[metric](original), encoding="utf-8")
    try:
        if metric not in REPEAT_ONLY:
            checker.first_digest.pop(metric)
        problems = checker.check(cmd)
    finally:
        path.write_text(original, encoding="utf-8")
        checker.first_digest.pop(metric)
    assert problems
    repeat = "output bytes differ from the first invocation"
    assert (problems == [repeat]) if metric in REPEAT_ONLY else (repeat not in problems)
    assert checker.check(cmd) == []


def test_missing_output_is_a_failure(smoke_run):
    cmd = next(c for c in smoke_run.cmds if c.name == "predict.fa")
    path = smoke_run.dir / cmd.outputs[0]
    saved = path.read_bytes()
    path.unlink()
    try:
        assert smoke_run.checker.check(cmd) == ["missing output pred_fa.csv"]
    finally:
        path.write_bytes(saved)


def test_refuses_to_run_without_the_program():
    bare = run.WORK / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = _bench("--workload", "tall", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
