"""Categorized insult lexicon with exact multi-pattern matching.

The lexicon is a flat list of terms, each carrying a category (four
targeted-group categories plus general swearwords), a surface class
(explicit or implicit), and a tag naming the derivation rule that
produced the term (or ``none`` for base forms).

Matching indexes the terms by their first character.  One compiled
character class of those first characters finds, in C, the positions
that can start a term, and the matcher visits only those.  At each, it
looks up that character's distinct term lengths and tries one slice per
length as a dict lookup, so the cost per visited position is the number
of distinct term lengths that share its first character; it does not
depend on lexicon size.  Overlapping and nested occurrences are all
reported.  ``token_category`` projects matches down to one category id
per character — the per-token toxic signal consumed by the classifier.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum, IntEnum
from pathlib import Path
from typing import Iterable, Iterator

from .corpus import read_lines
from .normalize import normalize_text


class LexiconError(ValueError):
    """Malformed lexicon file or inconsistent entry set."""


class Category(IntEnum):
    SEXISM = 1
    RACISM = 2
    REGIONAL_BIAS = 3
    ANTI_LGBTQ = 4
    GENERAL = 5


class Surface(str, Enum):
    EXPLICIT = "explicit"
    IMPLICIT = "implicit"


class RuleTag(str, Enum):
    NONE = "none"
    DEFORMATION = "deformation"
    HOMOPHONIC = "homophonic"
    IRONY = "irony"
    ABBREVIATION = "abbreviation"
    METAPHOR = "metaphor"
    CODE_MIXING = "code_mixing"
    BORROWED_WORD = "borrowed_word"


# each TSV column's accepted values, lowercased -> member; a category is
# written as its name or as its id, one of the digits 1-5
_COLUMNS = {
    "category": {key: c for c in Category for key in (c.name.lower(), str(c.value))},
    "surface": {e.value: e for e in Surface},
    "rule_tag": {e.value: e for e in RuleTag},
}


@dataclass(frozen=True)
class InsultEntry:
    term: str
    category: Category
    surface: Surface
    rule_tag: RuleTag = RuleTag.NONE

    def __post_init__(self):
        if not self.term:
            raise LexiconError("empty term")


@dataclass(frozen=True)
class LexiconMatch:
    """One occurrence of a lexicon term: text[start:end] == entry.term."""

    start: int
    end: int
    entry: InsultEntry


class Lexicon:
    """Immutable term collection, indexed for matching by first character.

    ``_lengths`` maps each character that starts a term to the distinct
    lengths of the terms it starts, longest first, and ``_starts`` is the
    compiled character class of those characters (None for an empty
    lexicon, which matches nothing).
    """

    def __init__(self, entries: Iterable[InsultEntry]):
        self.entries: tuple[InsultEntry, ...] = tuple(entries)
        seen: dict[str, InsultEntry] = {}
        lengths: dict[str, set[int]] = {}
        for entry in self.entries:
            if entry.term in seen:
                raise LexiconError(f"duplicate term {entry.term!r}")
            seen[entry.term] = entry
            lengths.setdefault(entry.term[0], set()).add(len(entry.term))
        self._by_term = seen
        self._lengths = {ch: sorted(ns, reverse=True) for ch, ns in lengths.items()}
        self._starts = re.compile(f"[{''.join(map(re.escape, lengths))}]") if lengths else None

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[InsultEntry]:
        return iter(self.entries)

    def __contains__(self, term: str) -> bool:
        return term in self._by_term

    def get(self, term: str) -> InsultEntry | None:
        return self._by_term.get(term)

    def extended(self, new_entries: Iterable[InsultEntry]) -> "Lexicon":
        """A new Lexicon with the extra entries appended (self unchanged)."""
        return Lexicon(self.entries + tuple(new_entries))


def _parse_column(what: str, raw: str, where: str):
    try:
        return _COLUMNS[what][raw.strip().lower()]
    except KeyError:
        raise LexiconError(f"{where}: unknown {what} {raw!r}") from None


def load_lexicon(path: str | Path) -> Lexicon:
    """Load a TSV lexicon: columns term, category, surface, rule_tag.

    Lines are read by ``read_lines``; there is no header row.  Terms are
    run through normalize_text so they match against normalized corpus
    text.  Duplicate terms and unknown enum values are load errors
    carrying the line number.
    """
    entries: list[InsultEntry] = []
    seen: set[str] = set()
    for where, line in read_lines(path):
        columns = line.split("\t")
        if len(columns) != 4:
            raise LexiconError(f"{where}: expected 4 tab-separated columns, got {len(columns)}")
        raw_term, raw_cat, raw_surface, raw_tag = columns
        term = normalize_text(raw_term)
        if not term:
            raise LexiconError(f"{where}: term is empty after normalization")
        if term in seen:
            raise LexiconError(f"{where}: duplicate term {term!r}")
        seen.add(term)
        entries.append(
            InsultEntry(
                term=term,
                category=_parse_column("category", raw_cat, where),
                surface=_parse_column("surface", raw_surface, where),
                rule_tag=_parse_column("rule_tag", raw_tag, where),
            )
        )
    return Lexicon(entries)


def find_matches(text: str, lex: Lexicon) -> list[LexiconMatch]:
    """All occurrences of all terms, overlaps included.

    Ordered by (start ascending, length descending), since the positions
    that hold a term's first character are visited left to right and
    lengths tried longest first; that order is total because two matches
    with equal span would be the same term.  The bound check keeps a
    slice cut short by the end of the text from passing for a shorter
    term.
    """
    if lex._starts is None:
        return []
    by_term, lengths, size = lex._by_term, lex._lengths, len(text)
    return [
        LexiconMatch(start=start, end=start + n, entry=entry)
        for start in [m.start() for m in lex._starts.finditer(text)]
        for n in lengths[text[start]]
        if start + n <= size and (entry := by_term.get(text[start : start + n])) is not None
    ]


def token_category(text: str, lex: Lexicon) -> list[int]:
    """Category id (0..5) per character of ``text``.

    A token covered by a match gets that match's category; when several
    matches cover it, the longest wins, ties broken by the smallest
    category id.  Uncovered tokens get 0 (non-toxic).
    """
    cats = [0] * len(text)
    matches = find_matches(text, lex)
    if not matches:
        return cats
    best_len = [0] * len(text)
    for match in matches:
        length = match.end - match.start
        cat = int(match.entry.category)
        for i in range(match.start, match.end):
            if length > best_len[i]:
                best_len[i] = length
                cats[i] = cat
            elif length == best_len[i] and cat < cats[i]:
                cats[i] = cat
    return cats
