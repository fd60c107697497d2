#!/usr/bin/env python3
"""CLI pipeline benchmark for falabel.

    python3 perfbench/run.py --workload tall --seed 1 --seconds 50 --trace 0

With ``--trace 0`` every command of the workload runs as a fresh
subprocess, as a user's shell script would run it: a closed loop with one
client, each command started after the previous one exits, cycling
through the pipeline (at least twice) until ``--seconds`` is used up.  A
reference process (``import numpy``) is timed between commands and each
command's time is expressed in multiples of it; the end-to-end metrics
sum the per-command medians by pipeline stage.

With ``--trace 1`` the same commands are replayed in-process through
``falabel.cli.main`` with span wrappers around every public falabel
function (see tracer.py), alternating with untraced in-process passes so
that the tracing overhead is measured; per-layer metrics are self times
and counts per pass, as medians over the passes.

Every output is checked (checks.py); a failed check counts as a failed
operation.  The last stdout line is the JSON result; the line before it
records the environment, the workload's inputs and the raw per-command
seconds.  ``--workload all`` runs the benchmark workloads in turn.
See README.md for the metrics and the reasons behind them.
"""

from __future__ import annotations

import os
import sys

# Set before numpy is imported, here and in every child process.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

from checks import Checker, read_matrix  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import BENCHMARK_WORKLOADS, WORKLOADS, commands, setup_inputs  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
LAUNCH = "from falabel.cli import entrypoint; entrypoint()"
REFERENCE = [sys.executable, "-c", "import numpy"]
STAGES = ("score", "fit")
MIN_CYCLES = 2  # every command is timed at least twice per run
COMMAND_TIMEOUT_S = 60.0
MB = float(1 << 20)
FALABEL_MODULES = ("cli", "ci_baseline", "fa_core", "label_model", "labelling", "metrics_eval", "synthetic")
SELF_TIMED = (
    "labelling.load_label_matrix", "labelling.save_label_matrix", "labelling.load_gold_labels",
    "labelling.apply_lfs", "synthetic.generate", "fa_core.fit_fa_em", "fa_core.fit_fa_vi",
    "fa_core.posterior_moments", "label_model.build_label_model", "label_model.orient_factor",
    "label_model.youden_threshold", "label_model.predict", "label_model.save_predictions",
    "ci_baseline.fit_ci_em", "ci_baseline.ci_posterior", "ci_baseline.majority_vote",
    "metrics_eval.evaluate", "metrics_eval.robustness_sweep",
)


def import_falabel():
    """Import the checkout's own falabel from ``src``; exit non-zero if it is absent."""
    sys.path.insert(0, str(SRC))
    try:
        modules = {m: importlib.import_module(f"falabel.{m}") for m in FALABEL_MODULES}
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import falabel from {SRC}: {exc}")
    where = Path(modules["cli"].__file__).resolve().parent.parent
    if where != SRC:
        sys.exit(f"perfbench: imported falabel from {where}, not from {SRC}")
    return modules


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def environment() -> dict:
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


class Run:
    """One benchmark run of one workload: set-up, measurement, checks."""

    def __init__(self, workload: str, seed: int, seconds: float, modules: dict):
        self.w = WORKLOADS[workload]
        self.seconds = seconds
        self.cli = modules["cli"]
        self.synthetic = modules["synthetic"]
        self.modules = list(modules.values())
        self.dir = WORK / f"{workload}-{seed}-{os.getpid()}"
        self.cmds = commands(self.w, seed)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.pass_id = 0
        self.seed = seed
        self.setup_times: list[float] = []
        made = self.setup()
        self.checker = Checker(self.w, self.dir, made["oracle"], made["records"], made["specs"])

    def setup(self) -> dict:
        """Write the inputs (identical bytes on every call) and time it."""
        start = perf_counter()
        made = setup_inputs(self.w, self.seed, self.dir, self.cli.main, self.synthetic)
        self.setup_times.append(perf_counter() - start)
        return made

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def inputs(self) -> dict:
        train = read_matrix(self.dir / "train.csv")[1]
        files = [p for p in self.dir.iterdir() if p.is_file()]
        return {
            "rows": self.w.train_n,
            "lfs": self.w.m,
            "csv_MB": sum(p.stat().st_size for p in files if p.suffix in (".csv", ".txt")) / MB,
            "train_distinct_row_frac": len(np.unique(train, axis=0)) / len(train),
            "train_all_abstain_frac": float((train == -1).all(axis=1).mean()),
        }

    def _record(self, metric: str, problems: list[str]) -> None:
        self.attempted += 1
        self.failed += bool(problems)
        self.failures += [f"{metric}: {p}" for p in problems]
        if problems:
            print(f"perfbench: {metric} failed: {'; '.join(problems)}", file=sys.stderr)

    def _clear_outputs(self, cmd) -> None:
        for out in cmd.outputs:
            (self.dir / out).unlink(missing_ok=True)

    def _spawn(self, argv: list[str]) -> tuple[float, list[str]]:
        start = perf_counter()
        try:
            proc = subprocess.run(argv, cwd=self.dir, env=child_env(), stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, timeout=COMMAND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return perf_counter() - start, [f"timed out after {COMMAND_TIMEOUT_S} s"]
        elapsed = perf_counter() - start
        if proc.returncode != 0:
            return elapsed, [f"exit {proc.returncode}: {proc.stderr.decode(errors='replace').strip()[-300:]}"]
        return elapsed, []

    # -- untraced: one fresh subprocess per command ----------------------
    def measure(self) -> dict[str, float]:
        """Whole cycles of the pipeline: at least two, then more while the
        next one fits in ``seconds``.

        Between commands a reference process (``import numpy``) is timed;
        each command's time is divided by the mean of the references just
        before and after it, which cancels the machine's drift in process
        start-up speed (measured: 25-35% between back-to-back starts).
        """
        self._spawn(REFERENCE)  # warm the file cache
        raw: dict[str, list[float]] = {c.name: [] for c in self.cmds}
        rel: dict[str, list[float]] = {c.name: [] for c in self.cmds}
        refs = [self._spawn(REFERENCE)[0]]
        start = perf_counter()
        cycles, last_cycle = 0, 0.0
        while cycles < MIN_CYCLES or perf_counter() - start + last_cycle <= self.seconds:
            cycle_start = perf_counter()
            for position, cmd in enumerate(self.cmds):
                self._clear_outputs(cmd)
                elapsed, problems = self._spawn([sys.executable, "-c", LAUNCH, *cmd.args])
                ref, ref_problems = self._spawn(REFERENCE)
                if not problems:
                    problems = self.checker.check(cmd)
                self._record(cmd.name, problems + ref_problems)
                raw[cmd.name].append(elapsed)
                rel[cmd.name].append(elapsed / ((refs[-1] + ref) / 2))
                refs.append(ref)
                if position % 2:
                    self.setup()  # spread over the run, so that its median spans the machine's phases
            cycles += 1
            last_cycle = perf_counter() - cycle_start
        per_command = {name: statistics.median(v) for name, v in rel.items()}
        self.details = {
            "cycles": cycles,
            "reference_s": statistics.median(refs),
            "command_s": {name: statistics.median(v) for name, v in raw.items()},
            "command_x_ref": per_command,
        }
        metrics = {"setup_s": statistics.median(self.setup_times), "pipeline_x": sum(per_command.values())}
        for stage in STAGES:
            metrics[f"{stage}_x"] = sum(per_command[c.name] for c in self.cmds if c.stage == stage)
        metrics["peak_rss_MB"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024 / MB
        for route in ("fa-em", "ci-em"):
            metrics[f"oracle_agreement.{route}"] = self.checker.oracle_agreement.get(route, 0.0)
        return metrics

    # -- traced: in-process replay with span wrappers --------------------
    def _replay(self, tracer: Tracer | None) -> dict[str, float]:
        """Run every command in-process; return each command's wall time."""
        times = {}
        cwd = os.getcwd()
        os.chdir(self.dir)
        try:
            for index, cmd in enumerate(self.cmds):
                self._clear_outputs(cmd)
                if tracer is not None:
                    tracer.command = f"{self.pass_id}:{index}:{cmd.name}"
                start = perf_counter()
                try:
                    rc = self.cli.main(list(cmd.args))
                except Exception as exc:  # a crash is a failed operation, not a harness failure
                    rc = f"raised {exc!r}"
                times[cmd.name] = perf_counter() - start
                problems = [f"exit {rc}"] if rc != 0 else self.checker.check(cmd)
                self._record(cmd.name, problems)
        finally:
            os.chdir(cwd)
        self.pass_id += 1
        return times

    def measure_traced(self) -> dict[str, float]:
        """Alternate untraced and traced in-process passes (order swapped
        every cycle), plus one timed ``import falabel.cli`` per cycle."""
        tracer = Tracer(self.modules)
        passes, untraced, traced, imports = [], [], [], []
        start = perf_counter()
        last_cycle = 0.0
        while not passes or perf_counter() - start + last_cycle <= self.seconds:
            cycle_start = perf_counter()
            for with_trace in ((False, True) if len(passes) % 2 == 0 else (True, False)):
                if not with_trace:
                    untraced.append(self._replay(None))
                    continue
                first_span = len(tracer.spans)
                tracer.counts.clear()
                tracer.install()
                try:
                    traced.append(sum(self._replay(tracer).values()))
                finally:
                    tracer.uninstall()
                passes.append(self._layer_values(tracer.summary(first_span), dict(tracer.counts)))
            elapsed, problems = self._spawn([sys.executable, "-c", "import falabel.cli"])
            self._record("cli.import", problems)
            imports.append(elapsed)
            last_cycle = perf_counter() - cycle_start
        self.spans = tracer.span_records()
        self.details = {"passes": len(passes)}
        metrics = {"cli.import_s": statistics.median(imports)}
        metrics.update({k: statistics.median(p[k] for p in passes) for k in passes[0]})
        for cmd in self.cmds:
            metrics[f"inproc.{cmd.name}_s"] = statistics.median(u[cmd.name] for u in untraced)
        metrics["trace.untraced_s"] = statistics.median(sum(u.values()) for u in untraced)
        metrics["trace.traced_s"] = statistics.median(traced)
        metrics["trace.overhead_s"] = metrics["trace.traced_s"] - metrics["trace.untraced_s"]
        inputs = self.inputs()
        for key in ("rows", "lfs", "csv_MB"):
            metrics[f"workload.{key}"] = inputs[key]
        for route in ("fa-em", "fa-vi", "ci-em"):
            for key, value in self.checker.reports.get(route, {}).items():
                metrics[f"report.{route}.{key}"] = value
        metrics["env.nproc"] = os.cpu_count()
        metrics["env.blas_threads"] = BLAS_THREADS
        return metrics

    @staticmethod
    def _layer_values(summary: dict, counts: dict) -> dict[str, float]:
        def get(name, key):
            return summary.get(name, {}).get(key, 0.0)

        v = {f"{name}.s": get(name, "self") for name in SELF_TIMED}
        load = "labelling.load_label_matrix"
        v[f"{load}.MB_per_s"] = ratio(counts.get(f"{load}.bytes", 0.0) / MB, get(load, "incl"))
        for fit in ("fa_core.fit_fa_em", "fa_core.fit_fa_vi", "ci_baseline.fit_ci_em"):
            iterations = counts.get(f"{fit}.iterations", 0.0)
            v[f"{fit}.iterations"] = iterations
            v[f"{fit}.s_per_iter"] = ratio(get(fit, "self"), iterations)
        v["fa_core.posterior_moments.calls"] = get("fa_core.posterior_moments", "calls")
        v["ci_baseline.majority_vote.calls"] = get("ci_baseline.majority_vote", "calls")
        v["labelling.apply_lfs.lf_evals"] = counts.get("labelling.apply_lfs.lf_evals", 0.0)
        v["label_model.youden_threshold.candidates"] = counts.get("label_model.youden_threshold.candidates", 0.0)
        sweep = "metrics_eval.robustness_sweep"
        cells = counts.get(f"{sweep}.cells", 0.0)
        v[f"{sweep}.cells"] = cells
        v[f"{sweep}.s_per_cell"] = ratio(get(sweep, "incl"), cells)
        attempted = counts.get("rows.attempted", 0.0)
        v["workload.distinct_row_frac"] = ratio(counts.get("rows.distinct", 0.0), attempted)
        v["workload.all_abstain_frac"] = ratio(counts.get("rows.all_abstain", 0.0), attempted)
        return v


def load_metric_specs(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def run_one(workload: str, seed: int, seconds: float, trace: bool, modules: dict) -> dict:
    run = Run(workload, seed, seconds, modules)
    try:
        values = run.measure_traced() if trace else run.measure()
        info = {
            "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
            "env": environment(), "inputs": run.inputs(), **run.details,
            "error_rate": ratio(run.failed, run.attempted), "failures": run.failures[:10],
        }
    finally:
        run.close()
    if trace:
        WORK.mkdir(exist_ok=True)
        (WORK / f"spans-{workload}-{seed}.json").write_text(json.dumps(run.spans), encoding="utf-8")
    metrics = {}
    for spec in load_metric_specs(trace):
        name = spec["name"]
        metrics[name] = {"value": float(values[name]), "unit": spec["unit"]}
        print(f"  {workload:6s} {name:45s} {values[name]:14.6g} {spec['unit']}")
    print(json.dumps(info, sort_keys=True))
    return {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    modules = import_falabel()
    if not (ROOT / "BENCHMARK.json").is_file():
        sys.exit(f"perfbench: {ROOT / 'BENCHMARK.json'} not found")
    names = BENCHMARK_WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: run_one(w, args.seed, args.seconds, bool(args.trace), modules) for w in names}
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
