"""Command-line surface for the label-model pipeline.

Subcommands: fit, predict, evaluate, compare, sweep, stats, cov, synth,
apply-lfs.  Exit codes: 0 success, 2 invalid input or an unreadable or
unwritable file, 3 numerical failure.  No fit draws a random number: --seed
drives only synth and the sweep's subsamples.  Every subcommand is bit-reproducible.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .errors import NumericalError, ValidationError

THRESHOLD_FLAGS = {"median": "median", "mean": "mean", "cdf-youden": "cdf_youden"}


def _fit_config(args):
    from .fa_core import FitConfig

    return FitConfig(max_iter=args.max_iter, tol=args.tol, seed=args.seed)


def _parse_per_lf(text: str, m: int, what: str) -> tuple[float, ...]:
    """Per-LF value spec: a single float, a comma list, or a 'lo:hi' range
    expanded with linspace."""
    text = text.strip()
    parts = text.split(":", 1) if ":" in text else text.split(",")
    try:
        values = tuple(float(p) for p in parts)
    except ValueError:
        raise ValidationError(f"{what}: cannot parse {text!r}") from None
    if ":" in text:
        return tuple(float(v) for v in np.linspace(*values, m))
    if len(values) == 1:
        return values * m
    if len(values) != m:
        raise ValidationError(f"{what}: expected {m} values, got {len(values)}")
    return values


def _emit(text: str, out) -> None:
    """Write ``text`` to the file ``out``, or to stdout when ``out`` is None."""
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _warn_unconverged(method: str, cap: int, reports, cells: bool = False) -> None:
    """Warn on stderr when any of ``method``'s fit reports (None for majority)
    stopped at the iteration cap; the sweep's warning says in how many of its cells."""
    stopped = sum(report is not None and not report.converged for report in reports)
    if stopped:
        where = f" in {stopped} of {len(reports)} cells" if cells else ""
        print(f"warning: {method} stopped at max_iter={cap} without converging{where}", file=sys.stderr)


def _dev_split(args, train):
    """The dev split of the flags, checked against ``train`` before any fit; None unless cdf-youden."""
    from .labelling import _check_split, load_gold_labels, load_label_matrix

    if args.dev_matrix is None and args.dev_gold is None:
        if args.threshold == "cdf-youden":
            raise ValidationError("--threshold cdf-youden requires --dev-matrix and --dev-gold")
        return None
    if args.threshold != "cdf-youden":
        raise ValidationError("--dev-matrix and --dev-gold are read only with --threshold cdf-youden")
    if args.dev_matrix is None or args.dev_gold is None:
        raise ValidationError("--dev-matrix and --dev-gold must be given together")
    dev = load_label_matrix(args.dev_matrix), load_gold_labels(args.dev_gold)
    _check_split(train, *dev, "dev")
    return dev


def cmd_fit(args) -> int:
    from dataclasses import asdict

    from .label_model import METHODS, save_model
    from .labelling import _dump_json, load_label_matrix

    if args.route not in METHODS:
        raise ValidationError(f"unknown route {args.route!r}, expected one of {tuple(METHODS)}")
    if args.route == "majority":
        raise ValidationError("route 'majority' requires no fitting; use it with compare or sweep")
    if args.route == "ci-em" and args.threshold != "median":  # dev flags alone fail in _dev_split
        raise ValidationError(
            f"--threshold {args.threshold} is read only by the FA routes; route 'ci-em' labels by its posterior"
        )
    train = load_label_matrix(args.matrix)
    dev = _dev_split(args, train)
    model, report, _ = METHODS[args.route](train, _fit_config(args), THRESHOLD_FLAGS[args.threshold], dev)
    save_model(args.out, args.route, train.lf_names, model)
    _warn_unconverged(args.route, args.max_iter, [report])
    if args.report is not None:
        _dump_json(asdict(report), args.report)
    return 0


def cmd_predict(args) -> int:
    from .label_model import load_model, predict, save_predictions
    from .labelling import _check_lf_names, load_label_matrix

    _, lf_names, model = load_model(args.model)
    matrix = load_label_matrix(args.matrix)
    _check_lf_names(lf_names, matrix, "scored", "the model")
    save_predictions(predict(model, matrix), args.out)
    return 0


def cmd_evaluate(args) -> int:
    from .label_model import _load_prediction_labels
    from .labelling import load_gold_labels
    from .metrics_eval import evaluate

    pred = _load_prediction_labels(args.predictions)
    gold = load_gold_labels(args.gold)
    _emit(evaluate(pred, gold).to_json(), args.out)
    return 0


def cmd_compare(args) -> int:
    from .label_model import METHODS
    from .labelling import _check_split, _write_csv, load_gold_labels, load_label_matrix
    from .metrics_eval import evaluate

    train = load_label_matrix(args.train)
    test = load_label_matrix(args.test)
    gold = load_gold_labels(args.gold)
    _check_split(train, test, gold, "test")
    cfg = _fit_config(args)
    threshold_kind = THRESHOLD_FLAGS[args.threshold]
    dev = _dev_split(args, train)
    rows = [("method", "accuracy", "precision", "recall", "f1", "tp", "fp", "tn", "fn", "n")]
    reports = {}
    for method, fit in METHODS.items():
        _, reports[method], labeller = fit(train, cfg, threshold_kind, dev)
        r = evaluate(labeller(test), gold)
        rows.append((method, r.accuracy, r.precision, r.recall, r.f1, r.tp, r.fp, r.tn, r.fn, r.n))
    _write_csv(rows, args.out)
    for method, report in reports.items():
        _warn_unconverged(method, args.max_iter, [report])
    return 0


def cmd_sweep(args) -> int:
    from .labelling import load_gold_labels, load_label_matrix
    from .metrics_eval import robustness_sweep

    train = load_label_matrix(args.train)
    test = load_label_matrix(args.test)
    gold = load_gold_labels(args.gold)
    try:
        sizes = tuple(int(s) for s in args.sizes.split(","))
    except ValueError:
        raise ValidationError(f"--sizes: cannot parse {args.sizes!r}") from None
    methods = tuple(args.methods.split(","))
    result = robustness_sweep(
        train,
        test,
        gold,
        sizes=sizes,
        repeats=args.repeats,
        methods=methods,
        cfg=_fit_config(args),
        threshold_kind=THRESHOLD_FLAGS[args.threshold],
    )
    _emit(result.to_csv(), args.out)
    for method in methods:
        reports = [r.report for r in result.records if r.method == method]
        _warn_unconverged(method, args.max_iter, reports, cells=True)
    return 0


def cmd_stats(args) -> int:
    from .labelling import _write_csv, load_label_matrix, matrix_stats

    stats = matrix_stats(load_label_matrix(args.matrix))
    rows = [("metric", "lf", "value")]
    for metric in ("n_rows", "n_lfs", "n_all_abstain_rows", "all_abstain_fraction"):
        rows.append((metric, "", getattr(stats, metric)))
    for name, counts in zip(stats.lf_names, stats.counts.tolist()):
        for kind, count in zip(("abstain", "negative", "positive"), counts):
            rows.append((f"count_{kind}", name, count))
    _emit(_write_csv(rows), args.out)
    return 0


def cmd_cov(args) -> int:
    from .labelling import _write_csv, covariance_matrix, load_label_matrix

    matrix = load_label_matrix(args.matrix)
    _emit(_write_csv([matrix.lf_names, *covariance_matrix(matrix).tolist()]), args.out)
    return 0


def cmd_synth(args) -> int:
    from .labelling import _check_count, save_gold_labels, save_label_matrix
    from .synthetic import SyntheticSpec, generate, load_spec

    if args.spec is not None:
        spec = load_spec(args.spec)
    else:
        _check_count("m", args.m, 1)  # first, since the per-LF values are expanded to m
        spec = SyntheticSpec(
            n=args.n,
            m=args.m,
            class_prior=args.class_prior,
            accuracies=_parse_per_lf(args.accuracy, args.m, "--accuracy"),
            propensities=_parse_per_lf(args.propensity, args.m, "--propensity"),
            seed=args.seed,
        )
    matrix, gold = generate(spec)
    save_label_matrix(matrix, args.out_matrix)
    save_gold_labels(gold, args.out_gold)
    return 0


def cmd_apply_lfs(args) -> int:
    from .labelling import _read_input, _text_mode, save_label_matrix
    from .lf_engine import apply_lfs, load_lf_specs

    # a record ends only at "\r\n", "\r" or "\n"; splitlines() would also split at U+2028
    lines = _text_mode(_read_input(args.records, "records")).split("\n")
    matrix = apply_lfs(lines[:-1] if lines[-1] == "" else lines, load_lf_specs(args.specs))
    save_label_matrix(matrix, args.out)
    return 0


def _add_fit_flags(p: argparse.ArgumentParser, thresholds=tuple(THRESHOLD_FLAGS)) -> None:
    p.add_argument("--seed", type=int, default=123, help="sweep subsample seed; fit and compare draw nothing (default 123)")
    p.add_argument("--tol", type=float, default=1e-4, help="convergence tolerance (default 1e-4)")
    p.add_argument("--max-iter", type=int, default=1000, help="iteration cap (default 1000)")
    p.add_argument(
        "--threshold",
        choices=thresholds,
        default="median",
        help="dichotomization threshold (default median)",
    )
    if "cdf-youden" in thresholds:
        p.add_argument("--dev-matrix", default=None, help="dev labelling matrix (cdf-youden only)")
        p.add_argument("--dev-gold", default=None, help="dev gold labels (cdf-youden only)")


def _args_fit(p: argparse.ArgumentParser) -> None:
    p.add_argument("matrix", help="training labelling-matrix CSV")
    p.add_argument(
        "--route", default="fa-em", help="label method (default fa-em); see the README's table"
    )
    p.add_argument("--out", required=True, help="output model JSON")
    p.add_argument("--report", default=None, help="optional fit-report JSON")
    _add_fit_flags(p)


def _args_predict(p: argparse.ArgumentParser) -> None:
    p.add_argument("model", help="model JSON from fit")
    p.add_argument("matrix", help="labelling-matrix CSV to score")
    p.add_argument("--out", required=True, help="output predictions CSV")


def _args_evaluate(p: argparse.ArgumentParser) -> None:
    p.add_argument("predictions", help="predictions CSV from predict")
    p.add_argument("gold", help="gold labels CSV (header 'y')")
    p.add_argument("--out", default=None, help="output report JSON (default stdout)")


def _args_split(p: argparse.ArgumentParser) -> None:
    p.add_argument("train", help="training labelling-matrix CSV")
    p.add_argument("test", help="test labelling-matrix CSV")
    p.add_argument("gold", help="test gold labels CSV")


def _args_compare(p: argparse.ArgumentParser) -> None:
    _args_split(p)
    p.add_argument("--out", required=True, help="output table CSV")
    _add_fit_flags(p)


def _args_sweep(p: argparse.ArgumentParser) -> None:
    _args_split(p)
    p.add_argument("--sizes", default="10,20,30,40,50,60", help="comma list of subsample sizes")
    p.add_argument("--repeats", type=int, default=5, help="repeats per size (default 5)")
    p.add_argument("--methods", default="fa-em,ci-em,majority", help="comma list of methods")
    p.add_argument("--out", required=True, help="output sweep CSV")
    _add_fit_flags(p, ("median", "mean"))  # the sweep has no dev split


def _args_matrix(p: argparse.ArgumentParser) -> None:
    p.add_argument("matrix", help="labelling-matrix CSV")
    p.add_argument("--out", default=None, help="output CSV (default stdout)")


def _args_synth(p: argparse.ArgumentParser) -> None:
    p.add_argument("--spec", default=None, help="synthetic spec JSON (overrides flags)")
    p.add_argument("--n", type=int, default=1000, help="rows (default 1000)")
    p.add_argument("--m", type=int, default=5, help="labelling functions (default 5)")
    p.add_argument("--class-prior", type=float, default=0.5, help="P(y=1) (default 0.5)")
    p.add_argument(
        "--accuracy",
        default="0.8",
        help="per-LF accuracy: float, comma list, or lo:hi linspace range",
    )
    p.add_argument(
        "--propensity",
        default="1.0",
        help="per-LF vote propensity: float, comma list, or lo:hi range",
    )
    p.add_argument("--seed", type=int, default=123, help="random seed (default 123)")
    p.add_argument("--out-matrix", required=True, help="output labelling-matrix CSV")
    p.add_argument("--out-gold", required=True, help="output gold labels CSV")


def _args_apply_lfs(p: argparse.ArgumentParser) -> None:
    p.add_argument("records", help="UTF-8 text file, one record per line")
    p.add_argument("specs", help="JSON array of LF specs")
    p.add_argument("--out", required=True, help="output labelling-matrix CSV")


# Each subcommand's help line, the function adding its arguments, and its handler.
COMMANDS = {
    "fit": ("fit a label model on a labelling matrix", _args_fit, cmd_fit),
    "predict": ("predict labels with a saved model", _args_predict, cmd_predict),
    "evaluate": ("score predictions against gold labels", _args_evaluate, cmd_evaluate),
    "compare": ("run all methods on one train/test split", _args_compare, cmd_compare),
    "sweep": ("training-size robustness sweep", _args_sweep, cmd_sweep),
    "stats": ("labelling-matrix summary statistics", _args_matrix, cmd_stats),
    "cov": ("column covariance matrix of a labelling matrix", _args_matrix, cmd_cov),
    "synth": ("generate a synthetic matrix with gold labels", _args_synth, cmd_synth),
    "apply-lfs": ("apply keyword/regex LFs to text records", _args_apply_lfs, cmd_apply_lfs),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI parser.  Every subcommand is listed, but when ``command`` names one
    only that one gets its arguments, which is all a parse of its argv reads."""
    parser = argparse.ArgumentParser(
        prog="falabel",
        description="Weak-supervision label models over labelling-matrix CSVs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if command not in COMMANDS or command == name:
            add_arguments(p)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return COMMANDS[args.command][2](args)
    except (ValidationError, OSError) as exc:  # bad input, or an unreadable or unwritable path
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
