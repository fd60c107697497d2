"""Labelling functions and matrix handling.

Writes a handful of keyword/regex labelling functions, applies them to toy
comment records, and inspects the resulting labelling matrix: per-LF vote
counts, fully-abstaining rows, and the column covariance of the votes as
stored.  The factor model later reads the same votes signed (abstain 0,
negative -1, positive 1), so its second moment differs from this one.
"""

import tempfile
from pathlib import Path

import numpy as np

from falabel import (
    LFSpec,
    apply_lfs,
    covariance_matrix,
    load_label_matrix,
    matrix_stats,
    save_label_matrix,
)

records = [
    "subscribe to my channel for free iphones",
    "check out my channel!!!",
    "this song is so good",
    "free money click here http://spam.example",
    "I remember watching this in 2010",
    "who is listening in 2024?",
    "win a FREE gift card, click the link",
    "the guitar solo at 3:05 is amazing",
]

specs = [
    LFSpec(name="kw_free", kind="keyword", pattern="free", vote_on_match=1),
    LFSpec(name="kw_subscribe", kind="keyword", pattern="subscribe", vote_on_match=1),
    LFSpec(name="re_link", kind="regex", pattern=r"https?://|click", vote_on_match=1),
    LFSpec(name="kw_song", kind="keyword", pattern="song", vote_on_match=0),
    LFSpec(name="re_year", kind="regex", pattern=r"\b20\d\d\b", vote_on_match=0),
]

matrix = apply_lfs(records, specs)
print("labelling matrix (1 = spam vote, 0 = ham vote, -1 = abstain):")
print("  ", " ".join(f"{name:<12}" for name in matrix.lf_names))
for i, row in enumerate(matrix.values):
    print(f" {i}:", " ".join(f"{v:<12}" for v in row), "|", records[i][:40])

stats = matrix_stats(matrix)
print(f"\n{stats.n_rows} rows, {stats.n_lfs} LFs, "
      f"{stats.n_all_abstain_rows} rows with no votes at all "
      f"({stats.all_abstain_fraction:.0%})")
print("per-LF counts (abstain / negative / positive):")
for name, (n_abs, n_neg, n_pos) in zip(stats.lf_names, stats.counts):
    print(f"  {name:<13} {n_abs} / {n_neg} / {n_pos}")

print("\ncolumn covariance (spam LFs co-fire, so they covary):")
cov = covariance_matrix(matrix)
with np.printoptions(precision=2, suppress=True):
    print(cov)

# CSV round-trip: the canonical on-disk form is bit-stable
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "matrix.csv"
    save_label_matrix(matrix, path)
    reloaded = load_label_matrix(path)
    assert reloaded == matrix
    print(f"\nCSV round-trip OK ({path.stat().st_size} bytes); first lines:")
    print("\n".join(path.read_text().splitlines()[:3]))
