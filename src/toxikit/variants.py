"""Profanity variant derivation: homophones, initials, glyph splits, script mixing.

Four surface rules are generative; the semantic classes (irony, metaphor,
borrowed word) exist only as lexicon tags because producing them needs
world knowledge, not string transforms.  Homophone equivalence is
toneless-syllable equality (满/蛮 both read "man").  Generated candidates
are proposals for human review — nothing here writes into a lexicon.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Sequence

from .corpus import read_lines


class VariantError(ValueError):
    """Unusable table row or an unmapped character where one is required."""


class DerivationRule(str, Enum):
    HOMOPHONIC = "homophonic"
    ABBREVIATION = "abbreviation"
    CODE_MIXING = "code_mixing"
    DEFORMATION = "deformation"


@dataclass(frozen=True)
class VariantCandidate:
    variant: str
    source_term: str
    rule: DerivationRule
    note: str = ""

    def __post_init__(self):
        if self.variant == self.source_term:
            raise VariantError(f"variant equals source term {self.variant!r}")


def _load_table(path: str | Path, sep: str, what: str) -> dict[str, list[str]]:
    """Rows ``char<TAB>items`` of a pinyin or glyph table, items split on ``sep``; each char once."""
    mapping: dict[str, list[str]] = {}
    for where, line in read_lines(path):
        columns = line.split("\t")
        if len(columns) != 2:
            raise VariantError(f"{where}: expected char<TAB>{what}")
        if columns[0] in mapping:
            raise VariantError(f"{where}: duplicate character {columns[0]!r}")
        mapping[columns[0]] = columns[1].split(sep)
    return mapping


class PinyinTable:
    """character → toneless syllables; first listed is the canonical reading."""

    def __init__(self, mapping: dict[str, Sequence[str]]):
        self._map: dict[str, tuple[str, ...]] = {}
        for ch, syllables in mapping.items():
            if len(ch) != 1:
                raise VariantError(f"pinyin key must be one character, got {ch!r}")
            cleaned = tuple(s.strip().lower() for s in syllables if s.strip())
            if not cleaned or not all(s.isascii() and s.isalpha() for s in cleaned):
                raise VariantError(f"bad syllable list for {ch!r}: {syllables!r}")
            self._map[ch] = cleaned

    @classmethod
    def load(cls, path: str | Path) -> "PinyinTable":
        return cls(_load_table(path, ",", "syllables"))

    def __contains__(self, ch: str) -> bool:
        return ch in self._map

    def syllables(self, ch: str) -> tuple[str, ...]:
        if ch not in self._map:
            raise VariantError(f"character {ch!r} not in pinyin table")
        return self._map[ch]


class GlyphTable:
    """character → ordered component characters (partial by design)."""

    def __init__(self, mapping: dict[str, Sequence[str]]):
        self._map: dict[str, tuple[str, ...]] = {}
        for ch, components in mapping.items():
            comps = tuple(components)
            if len(ch) != 1 or not comps or any(len(c) != 1 for c in comps):
                raise VariantError(f"bad glyph row for {ch!r}: {components!r}")
            self._map[ch] = comps
        for ch, comps in self._map.items():
            if ch in comps:
                raise VariantError(f"glyph row for {ch!r} contains itself")

    @classmethod
    def load(cls, path: str | Path) -> "GlyphTable":
        return cls(_load_table(path, "+", "components"))

    def __contains__(self, ch: str) -> bool:
        return ch in self._map

    def components(self, ch: str) -> tuple[str, ...] | None:
        return self._map.get(ch)

    def items(self):
        return self._map.items()


@dataclass(frozen=True)
class Expansion:
    """Glyph components of a character; empty with a note when not covered."""

    components: tuple[str, ...]
    note: str = ""


@dataclass(frozen=True)
class ScriptRun:
    script: str  # "latin" | "cjk" | "other"
    text: str


@dataclass(frozen=True)
class CodeMixResult:
    mixed: bool
    runs: tuple[ScriptRun, ...] = field(default=())


def _script_of(ch: str) -> str:
    cp = ord(ch)
    if ch.isascii() and ch.isalnum():
        return "latin"
    if 0x3400 <= cp <= 0x4DBF or 0x4E00 <= cp <= 0x9FFF:
        return "cjk"
    return "other"


def gen_homophones(
    term: str, table: PinyinTable, pool: Iterable[str]
) -> list[VariantCandidate]:
    """Every string reachable by swapping ≥1 character for a same-sound pool character.

    Two characters count as homophones when their toneless syllable sets
    intersect.  Pool characters missing from the table are skipped (their
    reading is unknown).  Each position's options are distinct characters,
    the term's own first, so every combination after the first is a new
    variant: output holds no repeat and not the term, and preserves length.
    """
    readings = [set(table.syllables(ch)) for ch in term]  # raises on unmapped term char
    pool_chars = sorted(set(pool))
    per_position: list[list[str]] = []
    for i, ch in enumerate(term):
        options = [ch]
        for cand in pool_chars:
            if cand != ch and cand in table and readings[i] & set(table.syllables(cand)):
                options.append(cand)
        per_position.append(options)

    out: list[VariantCandidate] = []
    for combo in itertools.islice(itertools.product(*per_position), 1, None):
        variant = "".join(combo)
        swaps = ",".join(
            f"{term[i]}→{combo[i]}" for i in range(len(term)) if combo[i] != term[i]
        )
        out.append(
            VariantCandidate(
                variant=variant,
                source_term=term,
                rule=DerivationRule.HOMOPHONIC,
                note=swaps,
            )
        )
    return out


def gen_abbreviation(term: str, table: PinyinTable) -> VariantCandidate:
    """Pinyin-initial abbreviation: first letter of each character's canonical reading."""
    initials = []
    for ch in term:
        initials.append(table.syllables(ch)[0][0])  # raises on unmapped char
    variant = "".join(initials)
    syllable_note = " ".join(table.syllables(ch)[0] for ch in term)
    return VariantCandidate(
        variant=variant,
        source_term=term,
        rule=DerivationRule.ABBREVIATION,
        note=syllable_note,
    )


def detect_code_mixing(token: str) -> CodeMixResult:
    """True iff the token mixes Latin letters/digits with CJK ideographs."""
    if not token:
        raise VariantError("empty token")
    runs: list[ScriptRun] = []
    for script, group in itertools.groupby(token, key=_script_of):
        runs.append(ScriptRun(script=script, text="".join(group)))
    scripts = {r.script for r in runs}
    return CodeMixResult(mixed="latin" in scripts and "cjk" in scripts, runs=tuple(runs))


def expand_deformation(ch: str, table: GlyphTable) -> Expansion:
    """Ordered glyph components of ch; not-covered characters come back empty."""
    components = table.components(ch)
    if components is None:
        return Expansion(components=(), note=f"not covered: {ch}")
    return Expansion(components=components)


def compose_deformation(components: Sequence[str], table: GlyphTable) -> list[str]:
    """Characters whose component list equals the query exactly, in table order."""
    if not components:
        raise VariantError("empty component list")
    query = tuple(components)
    return [ch for ch, comps in table.items() if comps == query]
