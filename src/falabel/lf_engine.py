"""The labelling-function engine: keyword and regex LFs applied to text records.

Only ``falabel apply-lfs`` loads this module, so no other command compiles
it or builds its dataclass.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .labelling import ABSTAIN, LabelMatrix, _fields, _read_json

try:
    from re import _parser as _sre_parse  # Python 3.11+
except ImportError:  # Python 3.10
    import sre_parse as _sre_parse


def _needles(items, fold: bool) -> frozenset[str]:
    """Strings one of which every match of the parsed regex sequence ``items`` contains.

    Each maximal run of ASCII literals is a candidate set of one needle; a group
    that sets or clears no flag gives its own sequence's set, and a branch the
    union of its branches' sets.  Every other op is opaque.  The first candidate
    whose shortest needle is longest wins, without the needles that contain
    another one.  With no candidate the set is ``{""}``, which every record
    contains, so a branch with such a branch gives ``{""}`` too.  ``fold``
    lowercases the needles, for a pattern under a global ``(?i)``.
    """
    candidates, run = [], ""
    for op, arg in [*items, (None, None)]:
        if op == _sre_parse.LITERAL and arg < 128:
            run += chr(arg).lower() if fold else chr(arg)
            continue
        if run:
            candidates.append({run})
            run = ""
        if op == _sre_parse.SUBPATTERN and not arg[1] and not arg[2]:
            candidates.append(_needles(arg[3], fold))
        elif op == _sre_parse.BRANCH:
            candidates.append(set().union(*(_needles(branch, fold) for branch in arg[1])))
    best = max(candidates, key=lambda needles: min(map(len, needles)), default={""})
    return frozenset(n for n in best if not any(o != n and o in n for o in best))


@dataclass(frozen=True)
class LFSpec:
    """A keyword or regex labelling function.

    Matching records receive ``vote_on_match`` (0 or 1); everything else
    abstains.  Keyword matching is case-insensitive substring search;
    regex patterns are compiled as given (use inline flags such as
    ``(?i)`` for case-insensitive regexes) and vote exactly as
    ``re.search``.  A regex runs only on the records that contain one of
    its needles (see ``_needles``) or are not ASCII, since ``str.lower``
    does not fold case as ``re`` does (ſ and s, K and k).
    """

    name: str
    kind: str  # "keyword" | "regex"
    pattern: str
    vote_on_match: int
    _regex: re.Pattern | None = field(init=False, repr=False, compare=False, default=None)
    _needles: frozenset[str] = field(init=False, repr=False, compare=False, default=frozenset())

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name:
            raise ValidationError(f"LF name must be a non-empty string, got {self.name!r}")
        if self.kind not in ("keyword", "regex"):
            raise ValidationError(f"LF '{self.name}': kind must be 'keyword' or 'regex', got {self.kind!r}")
        if not isinstance(self.pattern, str) or not self.pattern:
            raise ValidationError(f"LF '{self.name}': pattern must be a non-empty string, got {self.pattern!r}")
        if type(self.vote_on_match) is not int or self.vote_on_match not in (0, 1):
            raise ValidationError(f"LF '{self.name}': vote_on_match must be the integer 0 or 1")
        if self.kind == "regex":
            try:
                object.__setattr__(self, "_regex", re.compile(self.pattern))
            except re.error as exc:
                raise ValidationError(f"LF '{self.name}': invalid regex: {exc}") from exc
            fold = bool(self._regex.flags & re.IGNORECASE)
            object.__setattr__(self, "_needles", _needles(_sre_parse.parse(self.pattern), fold))

    def _hits(self, records: list[str], lowered: list[str]) -> list[bool]:
        """Whether this LF fires on each record; ``lowered`` holds the records
        lowercased, so a caller with many LFs lowercases each record once."""
        if self.kind == "keyword":
            keyword = self.pattern.lower()
            return [keyword in text for text in lowered]
        texts = lowered if self._regex.flags & re.IGNORECASE else records
        maybe = [not text.isascii() for text in records]
        for needle in self._needles:
            maybe = [hit or needle in text for hit, text in zip(maybe, texts)]
        search = self._regex.search
        return [hit and search(text) is not None for hit, text in zip(maybe, records)]


def load_lf_specs(path) -> list[LFSpec]:
    """Read labelling functions from a JSON array of spec objects."""
    raw = _read_json(path, "LF spec", list, "a JSON array of LF specs")
    specs = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise ValidationError(f"{path}: spec {i} is not an object")
        with _fields(f"{path}: spec {i}"):
            specs.append(
                LFSpec(
                    name=entry["name"],
                    kind=entry["kind"],
                    pattern=entry["pattern"],
                    vote_on_match=entry["vote_on_match"],
                )
            )
    return specs


def apply_lfs(records: list[str], specs: list[LFSpec]) -> LabelMatrix:
    """Vote each labelling function on each record.

    Entry (i, j) is ``specs[j].vote_on_match`` when record i matches
    pattern j and -1 (abstain) otherwise.  Column order follows spec
    order; each column depends only on its own spec.
    """
    if not specs:
        raise ValidationError("at least one LF spec is required")
    if not records:
        raise ValidationError("at least one record is required (n >= 1)")
    names = tuple(s.name for s in specs)
    if len(set(names)) != len(names):
        raise ValidationError("LF spec names must be unique")
    values = np.full((len(records), len(specs)), ABSTAIN, dtype=np.int64)
    lowered = [record.lower() for record in records]
    for j, spec in enumerate(specs):
        values[np.array(spec._hits(records, lowered), bool), j] = spec.vote_on_match
    return LabelMatrix(values=values, lf_names=names)
