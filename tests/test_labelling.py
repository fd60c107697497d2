import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import falabel
from falabel import (
    LFSpec,
    LabelMatrix,
    ValidationError,
    apply_lfs,
    covariance_matrix,
    load_gold_labels,
    load_label_matrix,
    load_lf_specs,
    matrix_stats,
    save_gold_labels,
    save_label_matrix,
)
from falabel.labelling import _WRITE_BLOCK, GoldLabels

# Pieces of regexes and records for the prefilter's property test.  The records hold the
# characters that re folds with ASCII ones under (?i) but str.lower() does not, or the
# reverse: long s, Kelvin sign, dotted and dotless i, sharp s and its capital.
_TRAPS = ["\u017f", "\u212a", "\u0130", "\u0131", "\u00df", "\u1e9e"]
_RECORD_PIECES = st.sampled_from(["k", "K", "s", "S", "i", "I", "ks", "KS", " ", "1", *_TRAPS])
_REGEX_ATOMS = st.sampled_from(["k", "K", "s", "S", "i", "ks", "sk", *_TRAPS[:3], "[ks]", ".", r"\d", r"\b", "^", "$"])


def _regex_compounds(inner):
    return st.one_of(
        st.lists(inner, min_size=2, max_size=3).map("".join),
        st.tuples(inner, inner).map("|".join),
        inner.map("({})".format),
        st.tuples(st.sampled_from(["(?:", "(?i:", "(?-i:", "(?=", "(?!"]), inner).map("{0[0]}{0[1]})".format),
        st.tuples(st.sampled_from(["(?<=", "(?<!"]), _REGEX_ATOMS).map("{0[0]}{0[1]})".format),  # fixed width
        st.tuples(inner, st.sampled_from(["*", "+", "?", "{2}"])).map("(?:{0[0]}){0[1]}".format),
    )


_REGEXES = st.tuples(
    st.sampled_from(["", "(?i)"]), st.recursive(_REGEX_ATOMS, _regex_compounds, max_leaves=4)
).map("".join)


class _CountingRegex:
    """A compiled regex that records the text of every ``search`` call."""

    def __init__(self, regex):
        self.regex, self.searched = regex, []

    def __getattr__(self, name):
        return getattr(self.regex, name)

    def search(self, text):
        self.searched.append(text)
        return self.regex.search(text)


class TestLabelMatrix:
    def test_valid_construction(self):
        m = LabelMatrix(values=[[1, -1], [0, 0]], lf_names=("a", "b"))
        assert m.n == 2 and m.m == 2

    def test_rejects_out_of_range_entry(self):
        with pytest.raises(ValidationError, match="row 0, column 'b'"):
            LabelMatrix(values=[[1, 2]], lf_names=("a", "b"))

    def test_rejects_fractional_entry(self):
        with pytest.raises(ValidationError, match="entries must be integers"):
            LabelMatrix(values=[[0.5]], lf_names=("a",))

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValidationError, match="duplicate"):
            LabelMatrix(values=[[1, 0]], lf_names=("a", "a"))

    @pytest.mark.parametrize("names", [(" a", "b"), ("a ", "b"), ("\ta", "b"), (1, 2), ("a\rb", "c")], ids=repr)
    def test_rejects_names_the_csv_readers_would_change(self, names):
        # the readers strip header names and read them as text: " a" came back as "a", 1 as "1";
        # the writer leaves a lone "\r" unquoted, so the readers split the header there
        with pytest.raises(ValidationError, match="^LF name " + re.escape(repr(names[0])) + " must be a string without"):
            LabelMatrix(values=[[1, 0]], lf_names=names)

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            LabelMatrix(values=np.zeros((0, 2), dtype=int), lf_names=("a", "b"))

    def test_values_immutable(self):
        m = LabelMatrix(values=[[1, 0]], lf_names=("a", "b"))
        with pytest.raises(ValueError):
            m.values[0, 0] = 0


class TestLoadSave:
    def test_load_basic(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("lf1,lf2\n1,-1\n0,0\n")
        m = load_label_matrix(p)
        assert m.n == 2 and m.m == 2
        assert np.array_equal(m.values, [[1, -1], [0, 0]])
        assert m.lf_names == ("lf1", "lf2")

    def test_load_rejects_out_of_range(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("lf1,lf2\n1,2\n")
        with pytest.raises(ValidationError, match="row 1, column 'lf2'"):
            load_label_matrix(p)

    def test_load_rejects_non_integer(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("lf1\nx\n")
        with pytest.raises(ValidationError, match="non-integer"):
            load_label_matrix(p)

    def test_load_rejects_ragged(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("lf1,lf2\n1,0\n1\n")
        with pytest.raises(ValidationError, match="line 3"):
            load_label_matrix(p)

    def test_load_rejects_duplicate_names(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("lf1,lf1\n1,0\n")
        with pytest.raises(ValidationError, match="duplicate"):
            load_label_matrix(p)

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="not found"):
            load_label_matrix(tmp_path / "nope.csv")

    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(42)
        m = LabelMatrix(
            values=rng.integers(-1, 2, size=(37, 5)),
            lf_names=tuple(f"lf{i}" for i in range(5)),
        )
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_label_matrix(m, p1)
        loaded = load_label_matrix(p1)
        assert loaded == m
        save_label_matrix(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_save_peak_is_set_by_the_block_not_by_n(self, tmp_path):
        # a block's int64 temporaries and its cells: about 16 bytes per vote of the block,
        # and under one byte per vote of this matrix
        m = LabelMatrix(values=np.resize([-1, 0, 1, 1, 0], (100_000, 10)), lf_names=tuple(f"lf{i}" for i in range(10)))
        tracemalloc.start()
        try:
            save_label_matrix(m, tmp_path / "m.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * _WRITE_BLOCK < m.values.size
        assert load_label_matrix(tmp_path / "m.csv") == m

    def test_gold_roundtrip(self, tmp_path):
        g = GoldLabels(values=[1, 0, 1, 1])
        p = tmp_path / "y.csv"
        save_gold_labels(g, p)
        assert p.read_text() == "y\n1\n0\n1\n1\n"
        loaded = load_gold_labels(p)
        assert np.array_equal(loaded.values, g.values)

    def test_gold_rejects_bad_value(self, tmp_path):
        p = tmp_path / "y.csv"
        p.write_text("y\n2\n")
        with pytest.raises(ValidationError):
            load_gold_labels(p)


class TestApplyLFs:
    def test_keyword_match(self):
        specs = [LFSpec(name="buy", kind="keyword", pattern="buy", vote_on_match=1)]
        m = apply_lfs(["buy now", "hello"], specs)
        assert np.array_equal(m.values[:, 0], [1, -1])

    def test_keyword_case_insensitive(self):
        specs = [LFSpec(name="buy", kind="keyword", pattern="BUY", vote_on_match=1)]
        m = apply_lfs(["please buy this"], specs)
        assert m.values[0, 0] == 1

    def test_empty_records_rejected(self):
        specs = [LFSpec(name="x", kind="keyword", pattern="x", vote_on_match=1)]
        with pytest.raises(ValidationError):
            apply_lfs([], specs)

    def test_empty_specs_rejected(self):
        with pytest.raises(ValidationError):
            apply_lfs(["a record"], [])

    def test_per_lf_independence(self):
        specs = [
            LFSpec(name="spam", kind="keyword", pattern="spam", vote_on_match=1),
            LFSpec(name="startx", kind="regex", pattern="^x", vote_on_match=0),
        ]
        m = apply_lfs(["spam spam"], specs)
        assert np.array_equal(m.values[0], [1, -1])

    def test_regex_vote_zero(self):
        specs = [LFSpec(name="startx", kind="regex", pattern="^x", vote_on_match=0)]
        m = apply_lfs(["xylophone", "nope"], specs)
        assert np.array_equal(m.values[:, 0], [0, -1])

    def test_invalid_regex_rejected(self):
        with pytest.raises(ValidationError, match="invalid regex"):
            LFSpec(name="bad", kind="regex", pattern="([", vote_on_match=1)

    def test_output_entries_always_vote_or_abstain(self):
        rng = np.random.default_rng(7)
        words = ["alpha", "beta", "gamma", "delta"]
        records = [" ".join(rng.choice(words, size=5)) for _ in range(50)]
        specs = [
            LFSpec(name=f"kw_{w}", kind="keyword", pattern=w, vote_on_match=int(v))
            for w, v in zip(words, [1, 0, 1, 0])
        ]
        m = apply_lfs(records, specs)
        for j, spec in enumerate(specs):
            col = set(m.values[:, j].tolist())
            assert col <= {spec.vote_on_match, -1}

    @given(
        st.lists(st.text("aAbBxX1 9äÄßİı\u00e9\t", max_size=12), min_size=1, max_size=8),
        st.lists(
            st.one_of(
                st.tuples(st.just("keyword"), st.text("aAbBxXäÄßİı9 ", min_size=1, max_size=3)),
                st.tuples(
                    st.just("regex"),
                    st.sampled_from(
                        ["^a", "^X", r"\ba", r"b\b", r"\bab\b", "(?i)ä", "(?i)^x", r"\d", r"\d\s", "ß$"]
                    ),
                ),
            ),
            min_size=1,
            max_size=6,
        ),
        st.data(),
    )
    def test_matches_a_per_cell_reference_loop(self, records, kinds_patterns, data):
        specs = [
            LFSpec(name=f"lf{j}", kind=kind, pattern=pattern, vote_on_match=data.draw(st.integers(0, 1)))
            for j, (kind, pattern) in enumerate(kinds_patterns)
        ]
        expected = np.full((len(records), len(specs)), -1)
        for i, record in enumerate(records):
            for j, spec in enumerate(specs):
                if spec.kind == "keyword":
                    hit = spec.pattern.lower() in record.lower()
                else:
                    hit = re.search(spec.pattern, record) is not None
                if hit:
                    expected[i, j] = spec.vote_on_match
                assert spec._hits([record], [record.lower()])[0] == hit
        assert np.array_equal(apply_lfs(records, specs).values, expected)

    @settings(max_examples=300)  # a wrong prefilter misses on about one drawn example in a hundred
    @given(
        st.lists(_REGEXES, min_size=1, max_size=4),
        st.lists(st.lists(_RECORD_PIECES, max_size=6).map("".join), min_size=1, max_size=8),
    )
    # Each pattern matches the record below it and is missed by one wrong prefilter: one that
    # reads (?i:…) as plain, skips a record that is not ASCII, keeps a non-ASCII literal,
    # compares (?i) needles with the unlowered record, or keeps one branch of an alternation.
    @example(["(?i:k)", "(?i)s", "(?i)\u017f", "(?i)k", "ks|sk"], ["K", "\u017f", "s", "K", "sk"])
    def test_regexes_vote_as_re_search(self, patterns, records):
        specs = [LFSpec(name=f"lf{j}", kind="regex", pattern=p, vote_on_match=1) for j, p in enumerate(patterns)]
        expected = [[1 if re.search(p, record) else -1 for p in patterns] for record in records]
        assert apply_lfs(records, specs).values.tolist() == expected

    @pytest.mark.parametrize(
        "pattern, searched",
        [
            # "foo" and "bar" tie as the longest literal run, so "foo" is the needle;
            # "café" has no needle but is not ASCII
            (r"\bfoo\b.*\bbar\b", ["foo and bar", "food bar", "café", "foo"]),
            (r"\d\s", ["foo and bar", "bar alone", "food bar", "café", "1 2", "foo"]),  # no literal
        ],
    )
    def test_regex_searches_only_records_holding_a_needle(self, pattern, searched):
        records = ["foo and bar", "bar alone", "food bar", "café", "1 2", "foo"]
        spec = LFSpec(name="lf", kind="regex", pattern=pattern, vote_on_match=1)
        counter = _CountingRegex(spec._regex)
        object.__setattr__(spec, "_regex", counter)
        hits = apply_lfs(records, [spec]).values[:, 0] == 1
        assert counter.searched == searched
        assert hits.tolist() == [re.search(pattern, record) is not None for record in records]

    def test_lf_specs_json(self, tmp_path):
        p = tmp_path / "specs.json"
        p.write_text(
            '[{"name": "buy", "kind": "keyword", "pattern": "buy", "vote_on_match": 1}]'
        )
        specs = load_lf_specs(p)
        assert len(specs) == 1 and specs[0].name == "buy"


class TestMatrixStats:
    def test_all_abstain_counting(self):
        m = LabelMatrix(values=[[-1, -1], [1, -1]], lf_names=("a", "b"))
        s = matrix_stats(m)
        assert s.n_all_abstain_rows == 1
        assert s.all_abstain_fraction == 0.5

    def test_all_zero_matrix(self):
        m = LabelMatrix(values=np.zeros((3, 2), dtype=int), lf_names=("a", "b"))
        assert matrix_stats(m).n_all_abstain_rows == 0

    def test_counts_sum_to_n(self):
        rng = np.random.default_rng(3)
        m = LabelMatrix(
            values=rng.integers(-1, 2, size=(40, 6)),
            lf_names=tuple(f"lf{i}" for i in range(6)),
        )
        s = matrix_stats(m)
        assert (s.counts.sum(axis=1) == 40).all()

    def test_spouse_shaped_fraction(self):
        # 16,520 fully-abstaining rows out of 22,254 comes to ~74%
        n, n_abs, m = 22254, 16520, 9
        values = np.zeros((n, m), dtype=int)
        values[:n_abs] = -1
        stats = matrix_stats(LabelMatrix(values=values, lf_names=tuple(f"lf{i}" for i in range(m))))
        assert stats.n_all_abstain_rows == 16520
        assert stats.all_abstain_fraction == pytest.approx(0.74, abs=0.005)


class TestCovariance:
    def test_identical_columns(self):
        m = LabelMatrix(values=[[1, 1], [0, 0], [-1, -1]], lf_names=("a", "b"))
        cov = covariance_matrix(m)
        assert cov == pytest.approx(np.ones((2, 2)))

    def test_constant_column_zero_row(self):
        m = LabelMatrix(values=[[1, 1], [0, 1], [1, 1]], lf_names=("a", "b"))
        cov = covariance_matrix(m)
        assert cov[1] == pytest.approx([0.0, 0.0])
        assert cov[:, 1] == pytest.approx([0.0, 0.0])

    def test_hand_computed_value(self):
        m = LabelMatrix(values=[[1, 0], [0, 1], [1, 0]], lf_names=("a", "b"))
        cov = covariance_matrix(m)
        assert cov[0, 1] == pytest.approx(-1.0 / 3.0)

    def test_requires_two_rows(self):
        m = LabelMatrix(values=[[1, 0]], lf_names=("a", "b"))
        with pytest.raises(ValidationError):
            covariance_matrix(m)

    def test_symmetric_and_psd(self):
        rng = np.random.default_rng(11)
        m = LabelMatrix(
            values=rng.integers(-1, 2, size=(60, 7)),
            lf_names=tuple(f"lf{i}" for i in range(7)),
        )
        cov = covariance_matrix(m)
        assert np.array_equal(cov, cov.T)
        assert np.linalg.eigvalsh(cov).min() >= -1e-10


def test_lf_names_with_commas_and_quotes_roundtrip(tmp_path):
    names = ("votes, strong", 'says "spam"', "plain")
    matrix = LabelMatrix(values=[[1, 0, -1], [0, -1, 1]], lf_names=names)
    p = tmp_path / "m.csv"
    save_label_matrix(matrix, p)
    assert load_label_matrix(p) == matrix
    plain = tmp_path / "plain.csv"
    save_label_matrix(LabelMatrix(values=[[1, 0]], lf_names=("lf1", "lf2")), plain)
    assert plain.read_text() == "lf1,lf2\n1,0\n"


_FA = dict(w=[1.0], c=[0.0], psi=[1.0])


# float() parses "1.0", so each of these numeric strings was accepted as a number
@pytest.mark.parametrize(
    "run, what",
    [
        (lambda: falabel.FAParams(w=["1.0"], c=["0"], psi=["1"]), "c"),
        (lambda: falabel.CIParams(class_prior=0.5, emissions=np.full((1, 2, 3), "0.33")), "emissions"),
        (lambda: falabel.SyntheticSpec(n=5, m=1, class_prior="0.5", accuracies=(0.8,), propensities=(1.0,)), "class_prior"),
        (lambda: falabel.SyntheticSpec(n=5, m=1, class_prior=0.5, accuracies=("0.8",), propensities=(1.0,)), "accuracies"),
        (lambda: falabel.fit_fa_em([["1"], ["0"]]), "data"),
        (lambda: falabel.fit_fa_vi([["1"], ["0"]]), "data"),
        (lambda: falabel.posterior_moments(falabel.FAParams(**_FA), [["1"]]), "data"),
        (lambda: falabel.log_likelihood(falabel.FAParams(**_FA), [["1"]]), "data"),
        (lambda: falabel.youden_threshold(["0.1", "0.9"], [0, 1]), "scores"),
    ],
    ids=["FAParams", "CIParams", "SyntheticSpec-prior", "SyntheticSpec-vector", "fit_fa_em", "fit_fa_vi",
         "posterior_moments", "log_likelihood", "youden_threshold"],
)
def test_numeric_strings_are_not_numbers(run, what):
    with pytest.raises(ValidationError, match=f"^{what} must be a rectangular array of numbers$"):
        run()


INT64 = np.iinfo(np.int64)
# each entry check: its allowed set, the array's dimensions, the call, and the message for the
# first bad entry at an index, which each call's former np.isin scan gave
ENTRY_CHECKS = {
    "LabelMatrix": (
        (-1, 0, 1), 2,
        lambda v: LabelMatrix(values=v, lf_names=tuple(f"lf{j}" for j in range(v.shape[1]))),
        lambda v, i, j: f"entry {v[i, j]} at row {i}, column 'lf{j}' is not in {{-1, 0, 1}}",
    ),
    "GoldLabels": ((0, 1), 1, GoldLabels, lambda v, i: f"gold label {v[i]} at row {i} is not in {{0, 1}}"),
    "evaluate-predictions": (
        (0, 1), 1, lambda v: falabel.evaluate(v, np.zeros_like(v)), lambda v, i: "predictions entries must be in {0, 1}",
    ),
    "evaluate-gold": (
        (0, 1), 1, lambda v: falabel.evaluate(np.zeros_like(v), v), lambda v, i: "gold labels entries must be in {0, 1}",
    ),
}


@pytest.mark.parametrize("check", list(ENTRY_CHECKS))
@given(data=st.data())
def test_entry_checks_name_the_first_entry_an_isin_scan_finds(check, data):
    allowed, ndim, run, message = ENTRY_CHECKS[check]
    shape = tuple(data.draw(st.lists(st.integers(1, 5), min_size=ndim, max_size=ndim)))
    cells = data.draw(st.lists(st.sampled_from(allowed), min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
    values = np.array(cells, np.int64).reshape(shape)
    outside = st.one_of(st.integers(-3, 3), st.sampled_from([INT64.min, INT64.min + 1, INT64.max - 1, INT64.max]))
    for _ in range(data.draw(st.integers(0, 3))):  # no bad entry, or up to three anywhere
        index = tuple(data.draw(st.integers(0, size - 1)) for size in shape)
        values[index] = data.draw(outside.filter(lambda x: x not in allowed))
    bad = np.argwhere(~np.isin(values, allowed))
    if len(bad) == 0:
        run(values)
    else:
        with pytest.raises(ValidationError) as exc:
            run(values)
        assert str(exc.value) == message(values, *bad[0])


def _fa_params():
    return falabel.FAParams(w=[0.5, 0.4], c=[0.1, 0.2], psi=[1.0, 0.5])


# Each record that holds arrays, built small, and its fields in __init__'s order
RECORDS = {
    "LabelMatrix": (lambda: LabelMatrix(values=[[1, -1], [0, 1]], lf_names=("a", "b")), ("values", "lf_names")),
    "GoldLabels": (lambda: GoldLabels(values=[0, 1, 1]), ("values",)),
    "MatrixStats": (
        lambda: matrix_stats(LabelMatrix(values=[[1, -1], [-1, -1]], lf_names=("a", "b"))),
        ("n_rows", "n_lfs", "lf_names", "counts", "n_all_abstain_rows", "all_abstain_fraction"),
    ),
    "FAParams": (_fa_params, ("w", "c", "psi")),
    "PosteriorMoments": (lambda: falabel.PosteriorMoments(mean=np.array([0.5, -0.5]), var=0.25), ("mean", "var")),
    "LabelModel": (
        lambda: falabel.LabelModel(params=_fa_params(), threshold_kind="median", threshold_value=0.0),
        ("params", "threshold_kind", "threshold_value"),
    ),
    "Predictions": (lambda: falabel.Predictions(labels=np.array([0, 1]), scores=np.array([-1.0, 2.0])), ("labels", "scores")),
    "CIParams": (lambda: falabel.CIParams(class_prior=0.3, emissions=np.full((2, 2, 3), 1 / 3)), ("class_prior", "emissions")),
}


def flat_fields(record) -> dict:
    """Each field of a record, those of a nested record flattened, an array as its dtype, shape and bytes."""
    fields = {}
    for name, value in vars(record).items():
        if isinstance(value, falabel.labelling._Frozen):
            fields.update(flat_fields(value))
        else:
            fields[name] = (value.dtype, value.shape, value.tobytes()) if isinstance(value, np.ndarray) else value
    return fields


@pytest.mark.parametrize("name", list(RECORDS))
def test_array_records_are_frozen_and_survive_copy_and_pickle(name):
    import copy
    import inspect
    import pickle

    build, names = RECORDS[name]
    record = build()
    assert type(record).__name__ == name
    assert tuple(vars(record)) == names == tuple(inspect.signature(type(record)).parameters)
    assert repr(record).startswith(f"{name}({names[0]}=")
    for field in (*names, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    for field in names:
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert tuple(vars(record)) == names
    for twin in (copy.copy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record) and flat_fields(twin) == flat_fields(record)
        assert twin == record if name == "LabelMatrix" else twin != record  # identity but for LabelMatrix's values
    assert record == record and hash(record) == hash(record)


def test_label_matrix_equality_and_hash_compare_values_and_names():
    matrix = LabelMatrix(values=[[1, -1], [0, 1]], lf_names=("a", "b"))
    same = LabelMatrix(values=np.array([[1, -1], [0, 1]]), lf_names=["a", "b"])
    assert matrix == same and hash(matrix) == hash(same)
    assert matrix != LabelMatrix(values=[[1, -1], [0, 0]], lf_names=("a", "b"))
    assert matrix != LabelMatrix(values=[[1, -1], [0, 1]], lf_names=("a", "c"))
    assert matrix != [[1, -1], [0, 1]]
