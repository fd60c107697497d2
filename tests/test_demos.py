"""Every demo runs to completion against the package in ``src``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0[1-4]_*.py"))


def test_the_four_python_demos_are_found():
    assert [demo.name[:2] for demo in DEMOS] == ["01", "02", "03", "04"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda demo: demo.stem)
def test_demo_exits_0(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr


def test_cli_pipeline_demo_exits_0(tmp_path):
    # the shell demo calls ``falabel``: a shim on PATH runs the CLI from ``src``;
    # it is seeded and names no temporary path, so two runs print the same stdout
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    shim = bin_dir / "falabel"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m falabel.cli "$@"\n')
    shim.chmod(0o755)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PATH=f"{bin_dir}{os.pathsep}{os.environ['PATH']}")
    stdouts = []
    for _ in range(2):
        proc = subprocess.run(
            ["bash", str(ROOT / "demos" / "05_cli_pipeline.sh")],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        stdouts.append(proc.stdout)
    assert stdouts[0] == stdouts[1]
