import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from falabel import LabelMatrix, generate, load_label_matrix, save_gold_labels, save_label_matrix
from falabel.cli import COMMANDS, build_parser, main
from falabel.synthetic import SyntheticSpec


@pytest.fixture
def world(tmp_path):
    """Train/test matrices plus gold labels written as CSV files."""
    kwargs = dict(
        m=4,
        class_prior=0.5,
        accuracies=(0.9, 0.85, 0.8, 0.9),
        propensities=(1.0, 0.9, 0.8, 1.0),
    )
    train, train_gold = generate(SyntheticSpec(n=300, seed=1, **kwargs))
    test, test_gold = generate(SyntheticSpec(n=150, seed=2, **kwargs))
    paths = {
        "train": tmp_path / "train.csv",
        "test": tmp_path / "test.csv",
        "gold": tmp_path / "gold.csv",
        "train_gold": tmp_path / "train_gold.csv",
    }
    save_label_matrix(train, paths["train"])
    save_label_matrix(test, paths["test"])
    save_gold_labels(test_gold, paths["gold"])
    save_gold_labels(train_gold, paths["train_gold"])
    return tmp_path, paths


class TestFit:
    def test_fit_writes_valid_model(self, world):
        tmp, paths = world
        model_path = tmp / "model.json"
        report_path = tmp / "report.json"
        code = main(
            ["fit", str(paths["train"]), "--out", str(model_path), "--report", str(report_path)]
        )
        assert code == 0
        from falabel import load_model

        method, lf_names, model = load_model(model_path)
        assert (method, lf_names) == ("fa-em", ("lf1", "lf2", "lf3", "lf4"))
        assert model.params.m == 4
        report = json.loads(report_path.read_text())
        assert report["route"] == "fa-em" and report["converged"]

    def test_fit_deterministic(self, world):
        tmp, paths = world
        p1, p2 = tmp / "m1.json", tmp / "m2.json"
        assert main(["fit", str(paths["train"]), "--out", str(p1), "--seed", "9"]) == 0
        assert main(["fit", str(paths["train"]), "--out", str(p2), "--seed", "9"]) == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_fit_ci_route(self, world):
        tmp, paths = world
        out, report = tmp / "ci.json", tmp / "ci_report.json"
        code = main(["fit", str(paths["train"]), "--route", "ci-em", "--out", str(out), "--report", str(report)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert "emissions" in payload and "class_prior" in payload
        assert json.loads(report.read_text())["route"] == "ci-em"  # it was "em", as FA-EM's

    def test_fit_vi_route(self, world):
        tmp, paths = world
        out = tmp / "vi.json"
        report = tmp / "vi_report.json"
        code = main(
            ["fit", str(paths["train"]), "--route", "fa-vi", "--out", str(out), "--report", str(report)]
        )
        assert code == 0
        assert json.loads(report.read_text())["route"] == "fa-vi"

    @pytest.mark.parametrize("route", ["fa-em", "fa-vi", "ci-em"])
    def test_unconverged_fit_warns_on_stderr(self, world, capsys, route):
        # a fit that stopped at --max-iter used to exit 0 without a word
        tmp, paths = world
        fit = ["fit", str(paths["train"]), "--route", route, "--out", str(tmp / "m.json")]
        assert main([*fit, "--report", str(tmp / "r.json")]) == 0
        assert capsys.readouterr().err == ""
        assert main([*fit, "--max-iter", "2", "--report", str(tmp / "r.json")]) == 0
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"warning: {route} stopped at max_iter=2 without converging\n"
        report = json.loads((tmp / "r.json").read_text())
        assert report["iterations"] == 2 and not report["converged"]

    def test_fit_majority_rejected(self, world, capsys):
        tmp, paths = world
        code = main(["fit", str(paths["train"]), "--route", "majority", "--out", str(tmp / "m.json")])
        assert code == 2

    def test_majority_route_rejected_before_any_read(self, world, capsys):
        # the matrix was read first, so a missing file was named instead of the route
        tmp, _ = world
        assert main(["fit", str(tmp / "missing.csv"), "--route", "majority", "--out", str(tmp / "m.json")]) == 2
        assert capsys.readouterr().err == "error: route 'majority' requires no fitting; use it with compare or sweep\n"

    def test_missing_file_exits_2(self, world, capsys):
        tmp, _ = world
        assert main(["fit", str(tmp / "nope.csv"), "--out", str(tmp / "m.json")]) == 2

    def test_unknown_flag_exits_2(self, world, capsys):
        tmp, paths = world
        assert main(["fit", str(paths["train"]), "--out", str(tmp / "m.json"), "--bogus"]) == 2

    def test_numerical_failure_exits_3(self, world, capsys, monkeypatch):
        from falabel import NumericalError
        import falabel.label_model as methods_mod

        def boom(*args, **kwargs):
            raise NumericalError("synthetic breakdown at iteration 3")

        monkeypatch.setattr(methods_mod, "fit_fa_em", boom)
        tmp, paths = world
        code = main(["fit", str(paths["train"]), "--out", str(tmp / "m.json")])
        assert code == 3
        assert "numerical error" in capsys.readouterr().err

    def test_youden_threshold_requires_dev(self, world, capsys):
        tmp, paths = world
        code = main(
            ["fit", str(paths["train"]), "--out", str(tmp / "m.json"), "--threshold", "cdf-youden"]
        )
        assert code == 2

    def test_youden_threshold_with_dev(self, world):
        tmp, paths = world
        code = main(
            [
                "fit", str(paths["train"]), "--out", str(tmp / "m.json"),
                "--threshold", "cdf-youden",
                "--dev-matrix", str(paths["train"]),
                "--dev-gold", str(paths["train_gold"]),
            ]
        )
        assert code == 0


class TestPredictEvaluate:
    def test_roundtrip(self, world):
        tmp, paths = world
        model_path = tmp / "model.json"
        pred_path = tmp / "pred.csv"
        report_path = tmp / "metrics.json"
        assert main(["fit", str(paths["train"]), "--out", str(model_path)]) == 0
        assert main(["predict", str(model_path), str(paths["test"]), "--out", str(pred_path)]) == 0
        lines = pred_path.read_text().strip().split("\n")
        assert lines[0] == "index,score,label"
        assert len(lines) == 151
        code = main(["evaluate", str(pred_path), str(paths["gold"]), "--out", str(report_path)])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["accuracy"] > 0.8

    def test_predict_dimension_mismatch_exits_2(self, world, tmp_path):
        tmp, paths = world
        model_path = tmp / "model.json"
        assert main(["fit", str(paths["train"]), "--out", str(model_path)]) == 0
        bad = tmp / "bad.csv"
        bad.write_text("a,b\n1,0\n")
        assert main(["predict", str(model_path), str(bad), "--out", str(tmp / "p.csv")]) == 2

    def test_predict_with_ci_model(self, world):
        tmp, paths = world
        model_path = tmp / "ci.json"
        pred_path = tmp / "pred.csv"
        assert main(["fit", str(paths["train"]), "--route", "ci-em", "--out", str(model_path)]) == 0
        assert main(["predict", str(model_path), str(paths["test"]), "--out", str(pred_path)]) == 0
        assert pred_path.read_text().startswith("index,score,label")

    def test_predict_deterministic(self, world):
        tmp, paths = world
        model_path = tmp / "model.json"
        assert main(["fit", str(paths["train"]), "--out", str(model_path)]) == 0
        p1, p2 = tmp / "p1.csv", tmp / "p2.csv"
        assert main(["predict", str(model_path), str(paths["test"]), "--out", str(p1)]) == 0
        assert main(["predict", str(model_path), str(paths["test"]), "--out", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("route", ["fa-em", "fa-vi", "ci-em"])
    def test_the_library_labels_every_model_file_as_the_cli_does(self, world, route):
        # the library's predict raised AttributeError on the CIParams of a ci-em file
        from falabel import FitConfig, load_model, predict, save_predictions
        from falabel.label_model import METHODS

        tmp, paths = world
        model_path, cli_out, library_out = tmp / "model.json", tmp / "cli.csv", tmp / "library.csv"
        assert main(["fit", str(paths["train"]), "--route", route, "--out", str(model_path)]) == 0
        assert main(["predict", str(model_path), str(paths["test"]), "--out", str(cli_out)]) == 0
        test = load_label_matrix(paths["test"])
        preds = predict(load_model(model_path)[2], test)
        save_predictions(preds, library_out)
        assert library_out.read_bytes() == cli_out.read_bytes()
        _, _, labeller = METHODS[route](load_label_matrix(paths["train"]), FitConfig(), "median", None)
        np.testing.assert_array_equal(preds.labels, labeller(test))


class TestCompare:
    def test_four_method_rows(self, world):
        tmp, paths = world
        out = tmp / "table.csv"
        code = main(
            ["compare", str(paths["train"]), str(paths["test"]), str(paths["gold"]), "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("method,accuracy")
        methods = [line.split(",")[0] for line in lines[1:]]
        assert methods == ["fa-em", "fa-vi", "ci-em", "majority"]

    def test_unconverged_fits_warn_on_stderr(self, world, capsys):
        # compare fitted past --max-iter without a word, while fit warned
        tmp, paths = world
        compare = ["compare", str(paths["train"]), str(paths["test"]), str(paths["gold"])]
        assert main([*compare, "--out", str(tmp / "c1.csv")]) == 0
        assert capsys.readouterr().err == ""
        assert main([*compare, "--out", str(tmp / "c2.csv"), "--max-iter", "2"]) == 0
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "".join(
            f"warning: {method} stopped at max_iter=2 without converging\n" for method in ("fa-em", "fa-vi", "ci-em")
        )

    def test_easy_instance_all_methods_strong(self, tmp_path):
        kwargs = dict(m=4, class_prior=0.5, accuracies=(0.95,) * 4, propensities=(1.0,) * 4)
        train, _ = generate(SyntheticSpec(n=400, seed=3, **kwargs))
        test, gold = generate(SyntheticSpec(n=200, seed=4, **kwargs))
        tpath, epath, gpath = tmp_path / "tr.csv", tmp_path / "te.csv", tmp_path / "g.csv"
        save_label_matrix(train, tpath)
        save_label_matrix(test, epath)
        save_gold_labels(gold, gpath)
        out = tmp_path / "table.csv"
        assert main(["compare", str(tpath), str(epath), str(gpath), "--out", str(out)]) == 0
        for line in out.read_text().strip().split("\n")[1:]:
            accuracy = float(line.split(",")[1])
            assert accuracy >= 0.9

    def test_fa_row_matches_manual_composition(self, world):
        tmp, paths = world
        out = tmp / "table.csv"
        assert main(
            ["compare", str(paths["train"]), str(paths["test"]), str(paths["gold"]),
             "--out", str(out), "--seed", "123"]
        ) == 0
        fa_row = out.read_text().strip().split("\n")[1].split(",")
        model_path, pred_path, rep_path = tmp / "m.json", tmp / "p.csv", tmp / "r.json"
        assert main(["fit", str(paths["train"]), "--out", str(model_path), "--seed", "123"]) == 0
        assert main(["predict", str(model_path), str(paths["test"]), "--out", str(pred_path)]) == 0
        assert main(["evaluate", str(pred_path), str(paths["gold"]), "--out", str(rep_path)]) == 0
        manual = json.loads(rep_path.read_text())
        assert float(fa_row[1]) == manual["accuracy"]
        assert float(fa_row[4]) == manual["f1"]


class TestSweepStatsCovSynth:
    def test_sweep_csv(self, world):
        tmp, paths = world
        out = tmp / "sweep.csv"
        code = main(
            ["sweep", str(paths["train"]), str(paths["test"]), str(paths["gold"]),
             "--sizes", "10,20", "--repeats", "2", "--out", str(out), "--seed", "5"]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "method,size,repeat,accuracy,precision,recall,f1"
        assert len(lines) == 1 + 2 * 3 * 2  # sizes x methods x repeats

    def test_sweep_deterministic(self, world):
        tmp, paths = world
        o1, o2 = tmp / "s1.csv", tmp / "s2.csv"
        args = ["sweep", str(paths["train"]), str(paths["test"]), str(paths["gold"]),
                "--sizes", "10", "--repeats", "2", "--seed", "5"]
        assert main(args + ["--out", str(o1)]) == 0
        assert main(args + ["--out", str(o2)]) == 0
        assert o1.read_bytes() == o2.read_bytes()

    def test_unconverged_sweep_warns_once_per_method(self, world, capsys):
        # the sweep fitted past --max-iter without a word, while fit warned;
        # at 9 iterations every fa-em cell and two of the four ci-em cells stop short
        tmp, paths = world
        sweep = ["sweep", str(paths["train"]), str(paths["test"]), str(paths["gold"]),
                 "--sizes", "10,20", "--repeats", "2", "--seed", "5"]
        assert main([*sweep, "--out", str(tmp / "s1.csv")]) == 0
        assert capsys.readouterr().err == ""
        assert main([*sweep, "--out", str(tmp / "s2.csv"), "--max-iter", "9"]) == 0
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "warning: fa-em stopped at max_iter=9 without converging in 4 of 4 cells\n"
            "warning: ci-em stopped at max_iter=9 without converging in 2 of 4 cells\n"
        )

    def test_stats_reports_abstain_fraction(self, tmp_path, capsys):
        values = np.full((100, 3), -1, dtype=int)
        values[:26] = 1  # 74 all-abstain rows
        from falabel import LabelMatrix

        path = tmp_path / "m.csv"
        save_label_matrix(LabelMatrix(values=values, lf_names=("a", "b", "c")), path)
        assert main(["stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert "n_all_abstain_rows,,74" in out
        assert "all_abstain_fraction,,0.74" in out

    def test_cov_is_m_by_m(self, world):
        tmp, paths = world
        out = tmp / "cov.csv"
        assert main(["cov", str(paths["train"]), "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 5  # header + 4 rows
        assert len(lines[1].split(",")) == 4

    def test_synth_generates_loadable_files(self, tmp_path):
        mpath, gpath = tmp_path / "m.csv", tmp_path / "y.csv"
        code = main(
            ["synth", "--n", "50", "--m", "3", "--class-prior", "0.4",
             "--accuracy", "0.7:0.9", "--propensity", "0.5",
             "--out-matrix", str(mpath), "--out-gold", str(gpath), "--seed", "3"]
        )
        assert code == 0
        matrix = load_label_matrix(mpath)
        assert matrix.n == 50 and matrix.m == 3

    def test_synth_deterministic(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            mpath, gpath = tmp_path / f"m{tag}.csv", tmp_path / f"y{tag}.csv"
            assert main(
                ["synth", "--n", "30", "--m", "2", "--accuracy", "0.8",
                 "--out-matrix", str(mpath), "--out-gold", str(gpath), "--seed", "4"]
            ) == 0
            outs.append(mpath.read_bytes() + gpath.read_bytes())
        assert outs[0] == outs[1]


class TestApplyLFs:
    def test_apply_lfs_end_to_end(self, tmp_path):
        records = tmp_path / "records.txt"
        records.write_text("buy cheap meds now\njust a normal comment\ncheap cheap cheap\n")
        specs = tmp_path / "lfs.json"
        specs.write_text(
            json.dumps(
                [
                    {"name": "kw_cheap", "kind": "keyword", "pattern": "cheap", "vote_on_match": 1},
                    {"name": "re_normal", "kind": "regex", "pattern": "normal", "vote_on_match": 0},
                ]
            )
        )
        out = tmp_path / "matrix.csv"
        assert main(["apply-lfs", str(records), str(specs), "--out", str(out)]) == 0
        matrix = load_label_matrix(out)
        np.testing.assert_array_equal(matrix.values, [[1, -1], [-1, 0], [1, -1]])

    def test_apply_lfs_rejects_a_name_the_matrix_csv_would_strip(self, tmp_path, capsys):
        # the header " buy" was written and read back as "buy" by every later command
        records = tmp_path / "records.txt"
        records.write_text("buy now\n")
        specs = tmp_path / "lfs.json"
        specs.write_text(json.dumps([{"name": " buy", "kind": "keyword", "pattern": "buy", "vote_on_match": 1}]))
        out = tmp_path / "matrix.csv"
        assert main(["apply-lfs", str(records), str(specs), "--out", str(out)]) == 2
        assert "LF name ' buy'" in capsys.readouterr().err
        assert not out.exists()

    def test_apply_lfs_rejects_a_name_holding_a_carriage_return(self, tmp_path, capsys):
        # the writer left the "\r" unquoted, so every reader of the matrix saw a line break there
        records = tmp_path / "records.txt"
        records.write_text("buy now\n")
        specs = tmp_path / "lfs.json"
        specs.write_text(json.dumps([{"name": "a\rb", "kind": "keyword", "pattern": "buy", "vote_on_match": 1},
                                     {"name": "c", "kind": "keyword", "pattern": "now", "vote_on_match": 0}]))
        out = tmp_path / "matrix.csv"
        assert main(["apply-lfs", str(records), str(specs), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: LF name 'a\\rb' must be a string without surrounding spaces or a carriage return\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "content, rows",
        [
            # U+2028, U+0085 and \x1c-\x1e end a line for str.splitlines, not for a records file
            ("cheap\u2028deal\nnormal\n", [[1, -1], [-1, 0]]),
            ("a\x85b\x1ccheap\x1dc\x1ed\nnormal", [[1, -1], [-1, 0]]),
            ("cheap\r\nnormal\r\n\r\ncheap normal\r\n", [[1, -1], [-1, 0], [-1, -1], [1, 0]]),
            ("cheap\rnormal\r", [[1, -1], [-1, 0]]),
        ],
        ids=["u2028", "u0085-x1c-x1e", "crlf", "cr"],
    )
    def test_apply_lfs_one_row_per_line(self, tmp_path, content, rows):
        records = tmp_path / "records.txt"
        records.write_bytes(content.encode("utf-8"))
        specs = tmp_path / "lfs.json"
        specs.write_text(
            json.dumps(
                [
                    {"name": "kw_cheap", "kind": "keyword", "pattern": "cheap", "vote_on_match": 1},
                    {"name": "re_normal", "kind": "regex", "pattern": "normal", "vote_on_match": 0},
                ]
            )
        )
        out = tmp_path / "matrix.csv"
        assert main(["apply-lfs", str(records), str(specs), "--out", str(out)]) == 0
        np.testing.assert_array_equal(load_label_matrix(out).values, rows)


@pytest.mark.parametrize(
    "route, field, value",
    [
        ("fa-em", "threshold_value", "abc"),
        ("fa-em", "threshold_value", None),
        ("ci-em", "class_prior", 1.5),
        ("ci-em", "class_prior", True),
        ("fa-em", "psi", [-1.0] * 4),
        ("fa-em", "threshold_kind", None),
        ("fa-em", "threshold_kind", "x"),
        ("fa-em", "threshold_value", float("inf")),
        ("ci-em", "emissions", [[[0.5, 0.5, 0.5]] * 2] * 4),
        ("fa-em", "w", [float("nan")] * 4),
        ("fa-em", "c", [0.0] * 3),
        ("fa-em", "psi", [1.0] * 3),
        ("ci-em", "emissions", [[[float("nan"), 0.5, 0.5]] * 2] * 4),
        ("ci-em", "emissions", [[[0.5, 0.5]] * 2] * 4),
    ],
)
def test_malformed_model_field_exits_2(world, capsys, route, field, value):
    tmp, paths = world
    model_path = tmp / "model.json"
    assert main(["fit", str(paths["train"]), "--route", route, "--out", str(model_path)]) == 0
    payload = json.loads(model_path.read_text())
    payload[field] = value
    model_path.write_text(json.dumps(payload))
    code = main(["predict", str(model_path), str(paths["test"]), "--out", str(tmp / "p.csv")])
    assert code == 2
    assert "error: malformed" in capsys.readouterr().err


def test_predict_on_a_json_of_neither_model_kind_exits_2(world, capsys):
    # one reader takes every JSON object as a model file, and this one has no version
    tmp, paths = world
    model_path = tmp / "model.json"
    model_path.write_text('{"k": 1}')
    assert main(["predict", str(model_path), str(paths["test"]), "--out", str(tmp / "p.csv")]) == 2
    assert capsys.readouterr().err == REFIT.format("missing")


# A fitted model file in the format that falabel writes: "version" 3, the method,
# the LF names and the FA fields.  PREDICTIONS is what predict wrote for it.
SAVED_MATRIX = "a,b,c\n1,1,0\n1,-1,1\n0,0,-1\n1,1,1\n0,1,0\n-1,0,0\n"
SAVED_MODEL = {
    "version": 3,
    "method": "fa-em",
    "lf_names": ["a", "b", "c"],
    "w": [0.8638835139799281, 0.3469215420925324, 0.41231654959848796],
    "c": [0.16666666666666666, 0.16666666666666666, -0.16666666666666666],
    "psi": [0.057110230245077664, 0.684854173128291, 0.635060714783354],
    "threshold_kind": "median",
    "threshold_value": 0.30436975081834017,
}
SAVED_PREDICTIONS = (
    "index,score,label\n0,0.8604879475696102,1\n1,0.9150634414117214,1\n2,-1.2494252433511606,0\n"
    "3,0.949972181077023,1\n4,-1.2243498807742639,0\n5,-0.25174844593292994,0\n"
)


def test_a_saved_one_factor_model_loads_and_predicts(tmp_path):
    (tmp_path / "m.csv").write_text(SAVED_MATRIX)
    (tmp_path / "model.json").write_text(json.dumps(SAVED_MODEL, indent=2) + "\n")
    argv = ["predict", str(tmp_path / "model.json"), str(tmp_path / "m.csv"), "--out", str(tmp_path / "p.csv")]
    assert main(argv) == 0
    assert (tmp_path / "p.csv").read_text() == SAVED_PREDICTIONS


# The same model as a version-2 file, which named neither its method nor its LFs:
# "k" was 1 and W held m one-element lists.
VERSION_2_MODEL = {
    "version": 2,
    "k": 1,
    "m": 3,
    "W": [[w] for w in SAVED_MODEL["w"]],
    **{key: SAVED_MODEL[key] for key in ("c", "psi", "threshold_kind", "threshold_value")},
}
# A CI model of the same matrix as the CI file was written before version 3, with no version.
UNVERSIONED_CI_MODEL = {
    "class_prior": 0.5000181808792997,
    "emission_values": [-1, 0, 1],
    "emissions": [
        [[0.3333454543231617, 0.6666529869515722, 1.5587252661881973e-06],
         [1.0000007501091035e-06, 3.791901127377546e-05, 0.9999610809879762]],
        [[1e-06, 0.6666899086470736, 0.33330909135292647], [0.33332121322420377, 1.000000750275174e-06, 0.6666777867750461]],
        [[0.33334545432391177, 0.666653545675669, 1.0000004191601831e-06],
         [1.0000000001660705e-06, 0.3333575735520114, 0.6666414264479885]],
    ],
}
# A model of the same matrix written by an older falabel, which read abstain as -1
# and a negative vote as 0; it carries no version.  Files of that age with
# "orientation" -1 stored W and the cut negated.
OLDER_MODEL = {
    "k": 1,
    "m": 3,
    "W": [[0.6502102168672904], [0.05005415709402993], [0.42461567567028097]],
    "c": [0.3333333333333333, 0.3333333333333333, 0.16666666666666666],
    "psi": [0.13208791994435293, 0.5530460223301481, 0.2916276507678982],
    "threshold_kind": "median",
    "threshold_value": 0.13228917563994774,
    "orientation": 1,
    "train_mean": 3.700743415417188e-17,
    "train_std": 0.8913372376702323,
}
REFIT = (
    "error: label model file is not version 3 (its field 'version' is {}); older files do not name their LFs,"
    " and those before version 2 score votes coded abstain -1 and negative 0: refit it with falabel fit\n"
)


@pytest.mark.parametrize(
    "payload, found",
    [
        ({k: v for k, v in SAVED_MODEL.items() if k != "version"}, "missing"),
        (OLDER_MODEL, "missing"),
        ({**OLDER_MODEL, "W": [[-w] for (w,) in OLDER_MODEL["W"]], "threshold_value": -0.13228917563994774,
          "orientation": -1}, "missing"),
        ({**SAVED_MODEL, "version": 1}, "1"),
        ({**SAVED_MODEL, "version": 2.0}, "2.0"),
        ({**SAVED_MODEL, "version": True}, "True"),
        ({**SAVED_MODEL, "version": "2"}, "'2'"),
        (VERSION_2_MODEL, "2"),
        (UNVERSIONED_CI_MODEL, "missing"),
        ({**SAVED_MODEL, "version": 3.0}, "3.0"),
        ({**SAVED_MODEL, "version": "3"}, "'3'"),
    ],
    ids=["no-version", "orientation-1", "orientation-minus-1", "version-1", "version-2.0", "version-true",
         "version-string-2", "version-2-fa-file", "unversioned-ci-file", "version-3.0", "version-string-3"],
)
def test_an_older_model_file_exits_2_asking_for_a_refit(tmp_path, capsys, payload, found):
    (tmp_path / "m.csv").write_text(SAVED_MATRIX)
    (tmp_path / "model.json").write_text(json.dumps(payload))
    argv = ["predict", str(tmp_path / "model.json"), str(tmp_path / "m.csv"), "--out", str(tmp_path / "p.csv")]
    assert main(argv) == 2
    assert capsys.readouterr().err == REFIT.format(found)
    assert not (tmp_path / "p.csv").exists()


def test_an_older_cdf_youden_model_file_exits_2_asking_for_a_refit(tmp_path, capsys):
    # its cut is in normal-CDF units of the standardized scores, and its W scores the older coding
    (tmp_path / "m.csv").write_text(SAVED_MATRIX)
    payload = {**OLDER_MODEL, "threshold_kind": "cdf_youden", "threshold_value": 0.5559}
    (tmp_path / "model.json").write_text(json.dumps(payload))
    argv = ["predict", str(tmp_path / "model.json"), str(tmp_path / "m.csv"), "--out", str(tmp_path / "p.csv")]
    assert main(argv) == 2
    assert capsys.readouterr().err == REFIT.format("missing")
    assert not (tmp_path / "p.csv").exists()


@pytest.mark.parametrize(
    "payload, field",
    [({k: v for k, v in SAVED_MODEL.items() if k != "psi"}, "psi"),
     ({k: v for k, v in SAVED_MODEL.items() if k != "threshold_kind"}, "threshold_kind"),
     ({k: v for k, v in SAVED_MODEL.items() if k != "method"}, "method"),
     ({k: v for k, v in SAVED_MODEL.items() if k != "lf_names"}, "lf_names")],
    ids=["no-psi", "without-threshold-kind", "no-method", "no-lf-names"],
)
def test_a_model_file_missing_a_field_exits_2_naming_it(tmp_path, capsys, payload, field):
    # one reader owns the file: psi was a "model file" field, and a version-2 file
    # with no threshold_kind was "not a label-model or CI-model file"
    (tmp_path / "m.csv").write_text(SAVED_MATRIX)
    (tmp_path / "model.json").write_text(json.dumps(payload))
    argv = ["predict", str(tmp_path / "model.json"), str(tmp_path / "m.csv"), "--out", str(tmp_path / "p.csv")]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: label model file missing field '{field}'\n"
    assert not (tmp_path / "p.csv").exists()


@pytest.mark.parametrize(
    "route, field, value, message",
    [
        ("fa-em", "method", "majority", "must be one of ('fa-em', 'fa-vi', 'ci-em'), got 'majority'"),
        ("ci-em", "method", None, "must be one of ('fa-em', 'fa-vi', 'ci-em'), got None"),
        ("fa-em", "lf_names", "lf1,lf2,lf3,lf4", "must be a list of distinct strings"),
        ("fa-em", "lf_names", [1, 2, 3, 4], "must be a list of distinct strings"),
        ("ci-em", "lf_names", ["lf1", "lf2", "lf2", "lf4"], "must be a list of distinct strings"),
        ("fa-em", "lf_names", ["lf1", "lf2", "lf3"], "names 3 LFs but field 'w' has 4"),
        ("ci-em", "lf_names", ["lf1", "lf2", "lf3", "lf4", "lf5"], "names 5 LFs but field 'emissions' has 4"),
    ],
    ids=["method-majority", "method-null", "lf_names-string", "lf_names-numbers", "lf_names-repeated",
         "lf_names-fewer-than-w", "lf_names-more-than-emissions"],
)
def test_a_model_file_of_an_unknown_method_or_bad_lf_names_exits_2_naming_the_field(
    world, capsys, route, field, value, message
):
    tmp, paths = world
    model_path = tmp / "model.json"
    assert main(["fit", str(paths["train"]), "--route", route, "--out", str(model_path)]) == 0
    model_path.write_text(json.dumps({**json.loads(model_path.read_text()), field: value}))
    pred = tmp / "p.csv"
    assert main(["predict", str(model_path), str(paths["test"]), "--out", str(pred)]) == 2
    assert capsys.readouterr().err.startswith(f"error: malformed label model file: field '{field}' {message}")
    assert not pred.exists()


@pytest.mark.parametrize("header", ["lf4,lf3,lf2,lf1", "lf1,lf2,lf3,x"], ids=["permuted", "renamed"])
@pytest.mark.parametrize("route", ["fa-em", "ci-em"])
def test_predict_on_a_matrix_of_other_lfs_exits_2_naming_both_lists(world, capsys, route, header):
    # neither model file named its LFs, so a matrix of the right width was scored
    tmp, paths = world
    model_path, pred = tmp / "model.json", tmp / "p.csv"
    assert main(["fit", str(paths["train"]), "--route", route, "--out", str(model_path)]) == 0
    test = paths["test"].read_text().split("\n", 1)[1]
    (tmp / "other.csv").write_text(f"{header}\n{test}")
    assert main(["predict", str(model_path), str(tmp / "other.csv"), "--out", str(pred)]) == 2
    names = header.split(",")
    assert capsys.readouterr().err == (
        f"error: the scored matrix has LFs {names} but the model has ['lf1', 'lf2', 'lf3', 'lf4']\n"
    )
    assert not pred.exists()


def write_split(tmp_path, name, m, n, seed, lf_names=None):
    """A synthetic matrix of m LFs and its gold labels, as <name>.csv and <name>_gold.csv."""
    spec = SyntheticSpec(n=n, m=m, class_prior=0.5, accuracies=(0.8,) * m, propensities=(0.9,) * m, seed=seed)
    matrix, gold = generate(spec)
    if lf_names is not None:
        matrix = LabelMatrix(values=matrix.values, lf_names=lf_names)
    save_label_matrix(matrix, tmp_path / f"{name}.csv")
    save_gold_labels(gold, tmp_path / f"{name}_gold.csv")
    return str(tmp_path / f"{name}.csv"), str(tmp_path / f"{name}_gold.csv")


def test_sweep_on_a_test_matrix_of_other_lfs_exits_2(tmp_path, capsys):
    # majority vote fits nothing, so a 3-LF test matrix was scored against 5-LF training rows
    train, _ = write_split(tmp_path, "train", 5, 100, 1)
    test, gold = write_split(tmp_path, "test", 3, 50, 2)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", train, test, gold, "--methods", "majority", "--sizes", "10", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: the test matrix has LFs ['lf1', 'lf2', 'lf3'] but the training matrix has"
        " ['lf1', 'lf2', 'lf3', 'lf4', 'lf5']\n"
    )
    assert not out.exists()


def test_compare_with_renamed_training_lfs_exits_2_before_any_fit(tmp_path, capsys, monkeypatch):
    from falabel import label_model

    fits = []  # each method is replaced by a recorder of its call
    recorders = {name: (lambda *args, name=name: fits.append(name)) for name in label_model.METHODS}
    monkeypatch.setattr(label_model, "METHODS", recorders)
    train, _ = write_split(tmp_path, "train", 4, 100, 1, lf_names=("a", "b", "c", "d"))
    test, gold = write_split(tmp_path, "test", 4, 50, 2)
    out = tmp_path / "table.csv"
    assert main(["compare", train, test, gold, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: the test matrix has LFs ['lf1', 'lf2', 'lf3', 'lf4'] but the training matrix has ['a', 'b', 'c', 'd']\n"
    )
    assert fits == [] and not out.exists()


def test_cdf_youden_fit_on_a_dev_split_of_other_lfs_exits_2_naming_it(tmp_path, capsys):
    # this failed as "matrix has 3 columns but the model expects 5", after the fit
    train, _ = write_split(tmp_path, "train", 5, 100, 1)
    dev, dev_gold = write_split(tmp_path, "dev", 3, 50, 3)
    out = tmp_path / "model.json"
    argv = ["fit", train, "--threshold", "cdf-youden", "--dev-matrix", dev, "--dev-gold", dev_gold, "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: the dev matrix has LFs ['lf1', 'lf2', 'lf3'] but the training matrix has"
        " ['lf1', 'lf2', 'lf3', 'lf4', 'lf5']\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("command", ["fit", "compare"])
def test_a_dev_split_of_other_lfs_exits_2_before_any_fit(tmp_path, capsys, monkeypatch, command):
    # the dev split was checked inside build_label_model, after a whole fa-em fit
    from falabel import fa_core

    fits, fit_loop = [], fa_core._fit_loop
    monkeypatch.setattr(fa_core, "_fit_loop", lambda *args: fits.append(args[-1]) or fit_loop(*args))
    train, _ = write_split(tmp_path, "train", 5, 100, 1)
    test, gold = write_split(tmp_path, "test", 5, 50, 2)
    dev, dev_gold = write_split(tmp_path, "dev", 3, 50, 3)
    inputs = [train] if command == "fit" else [train, test, gold]
    dev_flags = ["--threshold", "cdf-youden", "--dev-matrix", dev, "--dev-gold", dev_gold]
    assert main([command, *inputs, *dev_flags, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "error: the dev matrix has LFs ['lf1', 'lf2', 'lf3'] but the training matrix has"
        " ['lf1', 'lf2', 'lf3', 'lf4', 'lf5']\n"
    )
    assert fits == [] and not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["fit", "compare"])
def test_cdf_youden_without_a_dev_split_exits_2_before_any_fit(world, capsys, monkeypatch, command):
    # build_label_model refused the missing dev split, after a whole fa-em fit
    from falabel import label_model

    def no_fit(*args):
        raise AssertionError("fit_fa_em ran")

    monkeypatch.setattr(label_model, "fit_fa_em", no_fit)
    assert run_with_flag(world, command, "--threshold", "cdf-youden") == 2
    assert capsys.readouterr().err == "error: --threshold cdf-youden requires --dev-matrix and --dev-gold\n"


@pytest.mark.parametrize("command", ["compare", "sweep", "fit"])
def test_a_gold_file_of_another_length_exits_2_naming_the_split(tmp_path, capsys, command):
    train, _ = write_split(tmp_path, "train", 4, 100, 1)
    test, _ = write_split(tmp_path, "test", 4, 50, 2)
    _, short_gold = write_split(tmp_path, "short", 4, 40, 3)
    out = ["--out", str(tmp_path / "out")]
    argv = {
        "compare": ["compare", train, test, short_gold, *out],
        "sweep": ["sweep", train, test, short_gold, "--sizes", "10", *out],
        "fit": ["fit", train, "--threshold", "cdf-youden", "--dev-matrix", test, "--dev-gold", short_gold, *out],
    }[command]
    split = "dev" if command == "fit" else "test"
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {split} gold labels have 40 rows but the {split} matrix has 50\n"
    assert not (tmp_path / "out").exists()


def run_with_flag(world, command, *flag):
    """``command`` on the world's files with ``flag`` appended; its exit code."""
    tmp, paths = world
    inputs = [paths["train"]] if command == "fit" else [paths["train"], paths["test"], paths["gold"]]
    code = main([command, *map(str, inputs), "--out", str(tmp / "out"), *flag])
    assert not (tmp / "out").exists()
    return code


@pytest.mark.parametrize("command", ["fit", "compare", "sweep"])
def test_there_is_no_k_flag(world, capsys, command):
    assert run_with_flag(world, command, "--k", "2") == 2
    assert "unrecognized arguments: --k 2" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["fit", "compare", "sweep"])
def test_there_is_no_init_flag(world, capsys, command):
    # the fit always starts from the svd of S
    assert run_with_flag(world, command, "--init", "random") == 2
    assert "unrecognized arguments: --init random" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["fit", "compare", "sweep"])
@pytest.mark.parametrize("tol", ["inf", "nan"])
def test_non_finite_tol_exits_2(world, capsys, command, tol):
    # --tol inf stopped every fit after two iterations and reported it converged
    assert run_with_flag(world, command, "--tol", tol) == 2
    assert capsys.readouterr().err == f"error: tol must be finite and > 0, got {tol}\n"


@pytest.mark.parametrize("threshold", [[], ["--threshold", "mean"]], ids=["median", "mean"])
@pytest.mark.parametrize("command", ["fit", "compare"])
def test_dev_split_without_cdf_youden_exits_2(world, capsys, command, threshold):
    # the dev files were read and checked, then ignored, with exit 0
    _, paths = world
    dev = ["--dev-matrix", str(paths["train"]), "--dev-gold", str(paths["train_gold"])]
    assert run_with_flag(world, command, *threshold, *dev) == 2
    assert capsys.readouterr().err == "error: --dev-matrix and --dev-gold are read only with --threshold cdf-youden\n"


@pytest.mark.parametrize(
    "threshold, dev",
    [("cdf-youden", False), ("mean", False), ("cdf-youden", True)],
    ids=["cdf-youden", "mean", "cdf-youden-with-dev"],
)
def test_ci_em_fit_with_an_fa_threshold_exits_2(world, capsys, threshold, dev):
    # each wrote the bytes of a plain ci-em fit, with exit 0
    _, paths = world
    flags = ["--dev-matrix", str(paths["train"]), "--dev-gold", str(paths["train_gold"])] if dev else []
    assert run_with_flag(world, "fit", "--route", "ci-em", "--threshold", threshold, *flags) == 2
    assert capsys.readouterr().err == (
        f"error: --threshold {threshold} is read only by the FA routes; route 'ci-em' labels by its posterior\n"
    )


def test_dev_matrix_without_dev_gold_exits_2(world, capsys):
    tmp, paths = world
    argv = ["fit", str(paths["train"]), "--out", str(tmp / "m.json"), "--threshold", "cdf-youden",
            "--dev-matrix", str(paths["train"])]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: --dev-matrix and --dev-gold must be given together\n"


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--m", "3", "--accuracy", "0.6,0.7"], "--accuracy: expected 3 values, got 2"),
        (["--m", "-1", "--accuracy", "0.6:0.9"], "m must be >= 1, got -1"),
        (["--m", "3", "--accuracy", "0.6,x,0.7"], "--accuracy: cannot parse '0.6,x,0.7'"),
        (["--m", "3", "--accuracy", "0.6:0.7:0.8"], "--accuracy: cannot parse '0.6:0.7:0.8'"),
    ],
)
def test_synth_per_lf_value_error_names_the_fault(tmp_path, capsys, flags, message):
    argv = ["synth", *flags, "--out-matrix", str(tmp_path / "m.csv"), "--out-gold", str(tmp_path / "g.csv")]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_cov_header_quotes_lf_names(tmp_path):
    import csv

    from falabel import LabelMatrix

    names = ("a,b", "c")
    path = tmp_path / "m.csv"
    save_label_matrix(LabelMatrix(values=[[1, 0], [0, 1], [1, 1]], lf_names=names), path)
    out = tmp_path / "cov.csv"
    assert main(["cov", str(path), "--out", str(out)]) == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert tuple(rows[0]) == names
    assert all(len(row) == 2 for row in rows)


def test_python_m_runs_the_cli(tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import falabel

    env = dict(os.environ, PYTHONPATH=str(Path(falabel.__file__).parent.parent))
    mpath, gpath = tmp_path / "m.csv", tmp_path / "y.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "falabel.cli", "synth", "--n", "20", "--m", "3",
         "--out-matrix", str(mpath), "--out-gold", str(gpath)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert load_label_matrix(mpath).n == 20
    assert gpath.read_text().startswith("y\n")


def test_importing_the_cli_leaves_scipy_stats_unloaded():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import falabel

    env = dict(os.environ, PYTHONPATH=str(Path(falabel.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, falabel.cli; print('scipy.stats' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_importing_the_cli_leaves_scipy_linalg_unloaded():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import falabel

    env = dict(os.environ, PYTHONPATH=str(Path(falabel.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, falabel.cli; print('scipy.linalg' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_default_commands_leave_scipy_unloaded(tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import falabel

    script = """
import sys
from falabel.cli import COMMANDS, build_parser, main

d = sys.argv[1]
commands = [
    ["synth", "--n", "80", "--m", "4", "--seed", "1",
     "--out-matrix", f"{d}/train.csv", "--out-gold", f"{d}/train_gold.csv"],
    ["synth", "--n", "40", "--m", "4", "--seed", "2",
     "--out-matrix", f"{d}/test.csv", "--out-gold", f"{d}/gold.csv"],
    ["fit", f"{d}/train.csv", "--route", "fa-em", "--out", f"{d}/fa.json"],
    ["fit", f"{d}/train.csv", "--route", "ci-em", "--out", f"{d}/ci.json"],
    ["predict", f"{d}/fa.json", f"{d}/test.csv", "--out", f"{d}/pred.csv"],
    ["evaluate", f"{d}/pred.csv", f"{d}/gold.csv", "--out", f"{d}/eval.json"],
    ["compare", f"{d}/train.csv", f"{d}/test.csv", f"{d}/gold.csv", "--out", f"{d}/compare.csv"],
    ["sweep", f"{d}/train.csv", f"{d}/test.csv", f"{d}/gold.csv",
     "--sizes", "10,20", "--repeats", "1", "--out", f"{d}/sweep.csv"],
]
for argv in commands:
    assert main(argv) == 0, argv
print(sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy.")))
"""
    env = dict(os.environ, PYTHONPATH=str(Path(falabel.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cdf_youden_fit_and_predict_leave_scipy_unloaded(world):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import falabel

    tmp, paths = world
    script = """
import sys
from falabel.cli import COMMANDS, build_parser, main

train, train_gold, test, d = sys.argv[1:]
assert main(["fit", train, "--threshold", "cdf-youden", "--dev-matrix", train,
             "--dev-gold", train_gold, "--out", f"{d}/youden.json"]) == 0
assert main(["predict", f"{d}/youden.json", test, "--out", f"{d}/pred.csv"]) == 0
print(sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy.")))
"""
    env = dict(os.environ, PYTHONPATH=str(Path(falabel.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(paths["train"]), str(paths["train_gold"]),
         str(paths["test"]), str(tmp)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_each_command_imports_only_the_modules_it_runs(world):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import falabel

    tmp, paths = world
    train, test, gold = (str(paths[k]) for k in ("train", "test", "gold"))
    (tmp / "records.txt").write_text("buy now\nhello\n")
    (tmp / "lfs.json").write_text(
        json.dumps([{"name": "buy", "kind": "keyword", "pattern": "buy", "vote_on_match": 1}])
    )
    for route in ("fa-em", "ci-em"):
        assert main(["fit", train, "--route", route, "--out", str(tmp / f"{route}.json")]) == 0
    assert main(["predict", str(tmp / "fa-em.json"), test, "--out", str(tmp / "pred.csv")]) == 0
    commands = {
        "synth": ["synth", "--n", "20", "--m", "3", "--out-matrix", str(tmp / "s.csv"),
                  "--out-gold", str(tmp / "s_gold.csv")],
        "apply-lfs": ["apply-lfs", str(tmp / "records.txt"), str(tmp / "lfs.json"),
                      "--out", str(tmp / "lf.csv")],
        "stats": ["stats", train, "--out", str(tmp / "stats.csv")],
        "cov": ["cov", train, "--out", str(tmp / "cov.csv")],
        "predict.fa": ["predict", str(tmp / "fa-em.json"), test, "--out", str(tmp / "p_fa.csv")],
        "predict.ci": ["predict", str(tmp / "ci-em.json"), test, "--out", str(tmp / "p_ci.csv")],
        "evaluate": ["evaluate", str(tmp / "pred.csv"), gold, "--out", str(tmp / "eval.json")],
        "fit": ["fit", train, "--out", str(tmp / "fit.json")],
        "compare": ["compare", train, test, gold, "--out", str(tmp / "compare.csv")],
        "sweep": ["sweep", train, test, gold, "--sizes", "10", "--repeats", "1",
                  "--out", str(tmp / "sweep.csv")],
    }
    script = (
        "import sys\n"
        "from falabel.cli import main\n"
        "assert main(sys.argv[1:]) == 0\n"
        "print(' '.join(sorted(n[8:] for n in sys.modules if n.startswith('falabel.'))))\n"
        "print(' '.join(n for n in ('numpy.ma', 'numpy.random') if n in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(falabel.__file__).parent.parent))
    loaded, numpy_loaded = {}, {}
    for name, argv in commands.items():
        proc = subprocess.run(
            [sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, (name, proc.stderr)
        falabel_line, numpy_line = proc.stdout.split("\n")[:2]
        loaded[name] = set(falabel_line.split()) - {"cli", "errors"}
        numpy_loaded[name] = set(numpy_line.split())
    # np.median's NaN check imports numpy.ma; no command calls it
    assert {name: mods for name, mods in numpy_loaded.items() if mods} == {
        "synth": {"numpy.random"},
        "sweep": {"numpy.random"},
    }
    # the method table lives in label_model, so a fit loads no metrics_eval,
    # and only apply-lfs loads the LF engine
    fa = {"labelling", "fa_core", "label_model"}
    fitters = fa | {"metrics_eval", "ci_baseline"}
    assert loaded == {
        "synth": {"labelling", "synthetic"},
        "apply-lfs": {"labelling", "lf_engine"},
        "stats": {"labelling"},
        "cov": {"labelling"},
        "predict.fa": fa,
        "predict.ci": fa | {"ci_baseline"},
        "evaluate": fa | {"metrics_eval"},
        "fit": fa,
        "compare": fitters,
        "sweep": fitters,
    }


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # BLAS may split a sum over many rows across threads, and so add it in another
    # order at each thread count: every sum over rows must have a fixed order
    import os
    import subprocess
    import sys
    from pathlib import Path

    import falabel

    matrix = str(tmp_path / "train.csv")
    assert main(["synth", "--n", "200000", "--m", "10", "--class-prior", "0.3", "--accuracy", "0.6:0.9",
                 "--propensity", "0.4", "--seed", "11", "--out-matrix", matrix,
                 "--out-gold", str(tmp_path / "gold.csv")]) == 0
    script = (
        "import sys\n"
        "from falabel.cli import main\n"
        "matrix, d = sys.argv[1:]\n"
        "for route in ('fa-em', 'fa-vi', 'ci-em'):\n"
        "    assert main(['fit', matrix, '--route', route, '--out', f'{d}/{route}.json']) == 0\n"
        "    assert main(['predict', f'{d}/{route}.json', matrix, '--out', f'{d}/{route}.csv']) == 0\n"
    )
    outputs = {}
    for threads in ("1", "2"):
        out = tmp_path / threads
        out.mkdir()
        env = dict(os.environ, PYTHONPATH=str(Path(falabel.__file__).parent.parent),
                   OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-c", script, matrix, str(out)], env=env, capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr
        outputs[threads] = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
    assert len(outputs["1"]) == 6
    assert [name for name in outputs["1"] if outputs["1"][name] != outputs["2"][name]] == []


def perfbench_argvs() -> list[list[str]]:
    """The argv of each command of perfbench's cycle, on each of its workloads."""
    import importlib.util
    import sys

    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # a dataclass looks its module up while it is built
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    return [list(cmd.args) for w in workloads.WORKLOADS.values() for cmd in workloads.commands(w, 7)]


MORE_ARGVS = [
    ["stats", "m.csv"],
    ["stats", "m.csv", "--out", "s.csv"],
    ["cov", "m.csv", "--out", "c.csv"],
    ["synth", "--n", "20", "--m", "3", "--accuracy", "0.6:0.9", "--out-matrix", "m.csv", "--out-gold", "y.csv"],
    ["fit", "m.csv", "--out", "f.json", "--tol", "1e-6", "--max-iter", "5", "--threshold", "mean"],
    ["sweep", "a.csv", "b.csv", "y.csv", "--out", "s.csv"],
]


@pytest.mark.parametrize("command", list(COMMANDS))
def test_the_one_command_parser_reads_as_the_full_parser(command, capsys):
    # main adds arguments only to the subcommand named first
    one, full = build_parser(command), build_parser()
    helps = []
    for parser in (one, full):
        with pytest.raises(SystemExit):
            parser.parse_args([command, "--help"])
        helps.append(capsys.readouterr().out)
    assert helps[0] == helps[1]
    argvs = [argv for argv in perfbench_argvs() + MORE_ARGVS if argv[0] == command]
    assert argvs
    for argv in argvs:
        assert one.parse_args(argv) == full.parse_args(argv)


def test_unknown_route_exits_2_naming_the_routes(world, capsys):
    tmp, paths = world
    assert main(["fit", str(paths["train"]), "--route", "nope", "--out", str(tmp / "m.json")]) == 2
    err = capsys.readouterr().err
    assert "unknown route 'nope'" in err
    assert all(route in err for route in ("fa-em", "fa-vi", "ci-em", "majority"))


def test_stats_quotes_lf_names(tmp_path, capsys):
    import csv
    import io

    records = tmp_path / "records.txt"
    records.write_text("buy now\nhello there\nbuy, hello\n")
    specs = tmp_path / "lfs.json"
    specs.write_text(
        json.dumps(
            [
                {"name": "kw,buy", "kind": "keyword", "pattern": "buy", "vote_on_match": 1},
                {"name": 'say "hi"', "kind": "keyword", "pattern": "hello", "vote_on_match": 0},
            ]
        )
    )
    matrix = tmp_path / "m.csv"
    assert main(["apply-lfs", str(records), str(specs), "--out", str(matrix)]) == 0
    assert main(["stats", str(matrix)]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out, newline="")))
    assert rows[0] == ["metric", "lf", "value"]
    assert all(len(row) == 3 for row in rows)
    assert [row[1] for row in rows if row[0] == "count_abstain"] == ["kw,buy", 'say "hi"']


@pytest.mark.parametrize("command", ["stats", "cov"])
def test_a_quoted_header_name_holding_a_carriage_return_exits_2(tmp_path, capsys, command):
    # it was read as the name "a\rb", which no writer can give back
    path = tmp_path / "m.csv"
    path.write_bytes(b'"a\rb",c\n1,0\n0,1\n')
    assert main([command, str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: LF name 'a\\rb' must be a string without surrounding spaces or a carriage return\n"
    )


@pytest.mark.parametrize(
    "content, message",
    [
        ("index,score,label\n0,0.1,x\n", "non-integer label 'x' at line 2"),
        ("", "empty file"),
        ("index,score,label\n0,0.1,1\n1,0.2\n", "line 3 has 2 fields, expected 3"),
        ("index,score,label\n0,0.1,2\n", "label 2 at line 2 is not in {0, 1}"),
        ("index,score,y\n0,0.1,1\n", "expected header 'index,score,label'"),
    ],
    ids=["non-integer", "empty", "ragged", "label-2", "header"],
)
def test_malformed_predictions_exit_2(tmp_path, capsys, content, message):
    pred = tmp_path / "pred.csv"
    pred.write_text(content)
    gold = tmp_path / "gold.csv"
    gold.write_text("y\n1\n")
    assert main(["evaluate", str(pred), str(gold)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize(
    "content, message",
    [
        ("index,score,label\n5,abc,1\n1,0.2,0\n", "index '5' at line 2, expected 0"),
        ("index,score,label\n0,0.2,1\n0,0.2,0\n", "index '0' at line 3, expected 1"),
        ("index,score,label\n0,abc,1\n1,0.2,0\n", "score 'abc' at line 2 is not a finite number"),
        ("index,score,label\n0,0.2,1\n1,nan,0\n", "score 'nan' at line 3 is not a finite number"),
        ("index,score,label\n0,0.2,1\n1,5,0\n", "score '5' at line 3 is not a finite number spelled as repr"),
    ],
    ids=["index-5", "repeated-index", "score-abc", "score-nan", "score-5"],
)
def test_predictions_with_a_bad_index_or_score_exit_2(tmp_path, capsys, content, message):
    # the reader checked the label column only, so each of these was evaluated
    pred = tmp_path / "pred.csv"
    pred.write_text(content)
    gold = tmp_path / "gold.csv"
    gold.write_text("y\n1\n0\n")
    assert main(["evaluate", str(pred), str(gold)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {pred}: ") and message in err


@pytest.mark.parametrize(
    "extra",
    [
        ["--threshold", "cdf-youden", "--dev-matrix", "train", "--dev-gold", "train_gold"],
        ["--dev-matrix", "train", "--dev-gold", "train_gold"],
    ],
    ids=["cdf-youden", "dev-split-alone"],
)
def test_sweep_has_no_dev_split_flags(world, capsys, extra):
    tmp, paths = world
    argv = ["sweep", str(paths["train"]), str(paths["test"]), str(paths["gold"]),
            "--sizes", "10", "--repeats", "1", "--out", str(tmp / "sweep.csv")]
    assert main(argv + [str(paths[a]) if a in paths else a for a in extra]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "requires a labelled dev set" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["fit", "{train}", "--out", "{missing}/m.json"],
        ["fit", "{train}", "--out", "{tmp}/m.json", "--report", "{tmp}"],
        ["synth", "--n", "20", "--out-matrix", "{missing}/m.csv", "--out-gold", "{tmp}/y.csv"],
        ["predict", "{tmp}/fa.json", "{test}", "--out", "{missing}/p.csv"],
        ["evaluate", "{tmp}/pred.csv", "{gold}", "--out", "{missing}/e.json"],
    ],
    ids=["fit-out", "report-dir", "synth-out-matrix", "predict-out", "evaluate-out"],
)
def test_unwritable_output_exits_2(world, capsys, argv):
    tmp, paths = world
    assert main(["fit", str(paths["train"]), "--out", str(tmp / "fa.json")]) == 0
    assert main(["predict", str(tmp / "fa.json"), str(paths["test"]), "--out", str(tmp / "pred.csv")]) == 0
    names = {"tmp": tmp, "missing": tmp / "missing", **paths}
    assert main([a.format(**names) for a in argv]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["fit", "{train}", "--route", "ci-em", "--seed", "-3", "--out", "{tmp}/m.json"],
        ["fit", "{train}", "--seed", "-3", "--out", "{tmp}/m.json"],
        ["compare", "{train}", "{test}", "{gold}", "--seed", "-3", "--out", "{tmp}/c.csv"],
        ["sweep", "{train}", "{test}", "{gold}", "--sizes", "10", "--repeats", "1", "--seed", "-3",
         "--out", "{tmp}/s.csv"],
    ],
    ids=["fit-ci-em", "fit-svd-init", "compare", "sweep"],
)
def test_negative_seed_exits_2(world, capsys, argv):
    tmp, paths = world
    assert main([a.format(tmp=tmp, **paths) for a in argv]) == 2
    assert capsys.readouterr().err == "error: seed must be >= 0, got -3\n"


@pytest.mark.parametrize(
    "extra",
    [["--sizes", "10,10"], ["--sizes", "10,20,10"], ["--methods", "fa-em,fa-em"]],
    ids=["sizes", "sizes-apart", "methods"],
)
def test_sweep_with_duplicate_sizes_or_methods_exits_2(world, capsys, extra):
    tmp, paths = world
    argv = ["sweep", str(paths["train"]), str(paths["test"]), str(paths["gold"]),
            "--repeats", "2", "--seed", "5", "--out", str(tmp / "sweep.csv"), *extra]
    assert main(argv) == 2
    assert "must be distinct" in capsys.readouterr().err
    assert not (tmp / "sweep.csv").exists()


@pytest.mark.parametrize("field, value", [("psi", 1e-320), ("w", 1e200)])
def test_predict_with_degenerate_model_exits_3(world, capsys, field, value):
    tmp, paths = world
    model_path = tmp / "model.json"
    assert main(["fit", str(paths["train"]), "--out", str(model_path)]) == 0
    payload = json.loads(model_path.read_text())
    payload[field] = [value] * 4
    model_path.write_text(json.dumps(payload))
    pred = tmp / "p.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would print lines before the error
        assert main(["predict", str(model_path), str(paths["test"]), "--out", str(pred)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical error: ") and err.count("\n") == 1
    assert not pred.exists()


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("pattern", 5, "pattern must be a non-empty string"),
        ("name", ["a"], "LF name must be a non-empty string"),
        ("name", 5, "LF name must be a non-empty string"),
        ("vote_on_match", True, "vote_on_match must be the integer 0 or 1"),
        ("vote_on_match", 1.0, "vote_on_match must be the integer 0 or 1"),
    ],
)
def test_malformed_lf_spec_exits_2(tmp_path, capsys, field, value, message):
    records = tmp_path / "records.txt"
    records.write_text("buy cheap now\nhello\n")
    specs = tmp_path / "lfs.json"
    specs.write_text(json.dumps([{"name": "buy", "kind": "keyword", "pattern": "buy", "vote_on_match": 1,
                                  field: value}]))
    out = tmp_path / "matrix.csv"
    assert main(["apply-lfs", str(records), str(specs), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("field, value", [("n", 40.5), ("m", 3.0), ("seed", 12.7), ("seed", False)])
def test_synthetic_spec_with_a_non_integer_field_exits_2(tmp_path, capsys, field, value):
    spec = {"n": 40, "m": 3, "class_prior": 0.5, "accuracies": [0.9, 0.8, 0.7],
            "propensities": [1.0, 0.9, 0.8], "seed": 12, field: value}
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    out = tmp_path / "matrix.csv"
    argv = ["synth", "--spec", str(tmp_path / "spec.json"), "--out-matrix", str(out),
            "--out-gold", str(tmp_path / "gold.csv")]
    assert main(argv) == 2
    assert f"field '{field}' must be an integer, got {value!r}" in capsys.readouterr().err
    assert not out.exists()


def as_strings(value):
    """``value`` with every number of its nested lists written as a JSON string."""
    return [as_strings(v) for v in value] if isinstance(value, list) else str(value)


@pytest.mark.parametrize(
    "route, field, value",
    [
        ("fa-em", "threshold_value", as_strings),
        ("fa-em", "w", as_strings),
        ("fa-em", "psi", lambda psi: [True] + psi[1:]),
        ("ci-em", "class_prior", lambda prior: "0.4"),
        ("ci-em", "emissions", as_strings),
    ],
)
def test_model_file_with_a_non_numeric_field_exits_2(world, capsys, route, field, value):
    # these loaded through float() and np.array(..., dtype=float) and predicted with exit 0
    tmp, paths = world
    model_path = tmp / "model.json"
    assert main(["fit", str(paths["train"]), "--route", route, "--out", str(model_path)]) == 0
    payload = json.loads(model_path.read_text())
    payload[field] = value(payload[field])
    model_path.write_text(json.dumps(payload))
    pred = tmp / "p.csv"
    assert main(["predict", str(model_path), str(paths["test"]), "--out", str(pred)]) == 2
    assert f"field '{field}' must hold JSON numbers only, got " in capsys.readouterr().err
    assert not pred.exists()


@pytest.mark.parametrize(
    "field, value, leaf",
    [("class_prior", "0.4", "0.4"), ("accuracies", ["0.7", True, 0.8], "0.7"),
     ("accuracies", [0.7, True, 0.8], True), ("propensities", [1.0, None, 0.8], None)],
)
def test_synthetic_spec_with_a_non_numeric_field_exits_2(tmp_path, capsys, field, value, leaf):
    spec = {"n": 40, "m": 3, "class_prior": 0.5, "accuracies": [0.9, 0.8, 0.7],
            "propensities": [1.0, 0.9, 0.8], "seed": 12, field: value}
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    out = tmp_path / "matrix.csv"
    argv = ["synth", "--spec", str(tmp_path / "spec.json"), "--out-matrix", str(out),
            "--out-gold", str(tmp_path / "gold.csv")]
    assert main(argv) == 2
    assert f"field '{field}' must hold JSON numbers only, got {leaf!r}" in capsys.readouterr().err
    assert not out.exists()


SPEC = {"n": 40, "m": 3, "class_prior": 0.5, "accuracies": [0.9, 0.8, 0.7], "propensities": [1.0, 0.9, 0.8]}


@pytest.mark.parametrize(
    "kind, field, value",
    [
        ("spec", "accuracies", lambda accuracies: 0.7),
        ("spec", "class_prior", lambda prior: [0.5]),
        ("fa-em", "threshold_value", lambda threshold: [0.1]),
        ("fa-em", "w", lambda w: [[w[0], 0.1], *w[1:]]),
        ("ci-em", "class_prior", lambda prior: [0.4]),
        ("ci-em", "emissions", lambda emissions: [emissions[0][:1], *emissions[1:]]),
    ],
    ids=["spec-accuracies", "spec-class_prior", "fa-threshold_value", "fa-w-ragged", "ci-class_prior",
         "ci-emissions-ragged"],
)
def test_json_field_of_the_wrong_shape_exits_2_naming_it(world, capsys, kind, field, value):
    # these exited 2 with a message that did not name the field
    tmp, paths = world
    if kind == "spec":
        path, out = tmp / "spec.json", tmp / "matrix.csv"
        path.write_text(json.dumps({**SPEC, field: value(SPEC[field])}))
        argv = ["synth", "--spec", str(path), "--out-matrix", str(out), "--out-gold", str(tmp / "g.csv")]
    else:
        path, out = tmp / "model.json", tmp / "p.csv"
        assert main(["fit", str(paths["train"]), "--route", kind, "--out", str(path)]) == 0
        payload = json.loads(path.read_text())
        path.write_text(json.dumps({**payload, field: value(payload[field])}))
        argv = ["predict", str(path), str(paths["test"]), "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: malformed ") and f"field '{field}' must be " in err
    assert not out.exists()


# One valid file of each kind the CLI reads, and a command that reads each.
INPUTS = ("matrix.csv", "gold.csv", "pred.csv", "fa.json", "ci.json", "lfs.json", "spec.json", "records.txt")
READERS = (
    ("fit", "matrix.csv", "--out", "out.json", "--report", "report.json"),
    ("fit", "matrix.csv", "--threshold", "cdf-youden", "--dev-matrix", "matrix.csv",
     "--dev-gold", "gold.csv", "--out", "out.json"),
    ("predict", "fa.json", "matrix.csv", "--out", "out.csv"),
    ("predict", "ci.json", "matrix.csv", "--out", "out.csv"),
    ("evaluate", "pred.csv", "gold.csv", "--out", "out.json"),
    ("compare", "matrix.csv", "matrix.csv", "gold.csv", "--out", "out.csv"),
    ("sweep", "matrix.csv", "matrix.csv", "gold.csv", "--sizes", "10", "--repeats", "1",
     "--out", "out.csv"),
    ("stats", "matrix.csv", "--out", "out.csv"),
    ("cov", "matrix.csv", "--out", "out.csv"),
    ("synth", "--spec", "spec.json", "--out-matrix", "out.csv", "--out-gold", "out_gold.csv"),
    ("apply-lfs", "records.txt", "lfs.json", "--out", "out.csv"),
)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The bytes of each file in INPUTS, all consistent with one another."""
    d = tmp_path_factory.mktemp("inputs")
    spec = {"n": 40, "m": 3, "class_prior": 0.5, "accuracies": [0.9, 0.8, 0.7],
            "propensities": [1.0, 0.9, 0.8], "seed": 12}
    (d / "spec.json").write_text(json.dumps(spec))
    (d / "records.txt").write_text("buy cheap now\nhello\ncheap, hello\n")
    (d / "lfs.json").write_text(json.dumps(
        [{"name": "buy", "kind": "keyword", "pattern": "buy", "vote_on_match": 1},
         {"name": "hi", "kind": "regex", "pattern": "^hel+o", "vote_on_match": 0}]
    ))
    for argv in (
        ["synth", "--spec", "spec.json", "--out-matrix", "matrix.csv", "--out-gold", "gold.csv"],
        ["fit", "matrix.csv", "--out", "fa.json"],
        ["fit", "matrix.csv", "--route", "ci-em", "--out", "ci.json"],
        ["predict", "fa.json", "matrix.csv", "--out", "pred.csv"],
    ):
        assert main([str(d / a) if "." in a else a for a in argv]) == 0
    return {name: (d / name).read_bytes() for name in INPUTS}


def run_reader(argv, files, tmp) -> int:
    """``main`` on ``argv`` with each file of ``files`` (name -> bytes) written into ``tmp``."""
    for name, content in files.items():
        (tmp / name).write_bytes(content)
    return main([str(tmp / a) if "." in a else a for a in argv])


@pytest.mark.parametrize("name", INPUTS)
def test_undecodable_input_exits_2_naming_the_file(inputs, tmp_path, capsys, name):
    argv = next(argv for argv in READERS if name in argv)
    content = inputs[name]
    bad = {**inputs, name: content[: len(content) // 2] + b"\xff" + content[len(content) // 2 :]}
    assert run_reader(argv, bad, tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(tmp_path / name) in err and "Traceback" not in err


def test_oversized_csv_field_exits_2(inputs, tmp_path, capsys):
    import csv

    matrix = inputs["matrix.csv"] + b"1" * (csv.field_size_limit() + 1) + b",0,1\n"
    assert run_reader(READERS[0], {**inputs, "matrix.csv": matrix}, tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(tmp_path / "matrix.csv") in err


@given(st.data())
def test_any_input_file_ends_in_exit_0_2_or_3(inputs, data):
    argv = data.draw(st.sampled_from(READERS))
    name = data.draw(st.sampled_from(sorted({a for a in argv if a in inputs})))
    valid = inputs[name]
    content = data.draw(
        st.one_of(
            st.binary(max_size=200),
            st.tuples(st.integers(0, len(valid) - 1), st.integers(0, 255)).map(
                lambda at: valid[: at[0]] + bytes([at[1]]) + valid[at[0] + 1 :]
            ),
        )
    )
    with tempfile.TemporaryDirectory() as tmp:
        assert run_reader(argv, {**inputs, name: content}, Path(tmp)) in (0, 2, 3)
