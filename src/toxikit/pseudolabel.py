"""Lexicon-driven weak labels plus the review loop that grows the lexicon.

A sample is pseudo-toxic iff it contains at least one lexicon match.
New insult candidates are surfaced as character n-grams that skew toward
the pseudo-toxic set; a human reviews them into an accept list, and
``iterate_to_fixpoint`` replays match → extract → accept until no
accepted term is newly discoverable.  Because the lexicon only ever
grows, the pseudo-toxic set grows monotonically and the loop terminates.

The fixpoint counts n-gram document frequencies once, in its first
round, and keeps the toxic and clean tables across rounds: a later round
recounts only the documents whose matches changed, subtracting the grams
they gave under their old spans and label and adding those under the new.
Its final, quiet round's ranking is returned as ``candidates``, the same
list ``extract_candidates`` computes from scratch on the final labels.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate
from typing import Iterable, Sequence

from .lexicon import Category, InsultEntry, Lexicon, LexiconMatch, RuleTag, Surface, find_matches
from .normalize import normalize_text


class PseudoLabel(str, Enum):
    TOXIC = "toxic"
    NON_TOXIC = "non_toxic"


@dataclass(frozen=True)
class PseudoLabeledSample:
    sample_id: int
    pseudo_label: PseudoLabel
    matches: tuple[LexiconMatch, ...]


@dataclass(frozen=True)
class CandidateTerm:
    term: str
    toxic_freq: int
    clean_freq: int
    score: float  # add-one smoothed: (toxic_freq + 1) / (clean_freq + 1)


@dataclass(frozen=True)
class FixpointResult:
    lexicon: Lexicon
    labels: tuple[PseudoLabeledSample, ...]
    iterations: int
    added_per_round: tuple[tuple[str, ...], ...]
    candidates: tuple[CandidateTerm, ...]  # the final, quiet round's ranking


def pseudo_label(
    corpus: Sequence[tuple[int, str]], lex: Lexicon
) -> list[PseudoLabeledSample]:
    """Label each (id, normalized text) pair: toxic ⟺ ≥1 lexicon match."""
    out = []
    for sample_id, text in corpus:
        matches = tuple(find_matches(text, lex))
        label = PseudoLabel.TOXIC if matches else PseudoLabel.NON_TOXIC
        out.append(PseudoLabeledSample(sample_id=sample_id, pseudo_label=label, matches=matches))
    return out


_WORD = re.compile(r"\S+")


# The gram tables key each n-gram by its UTF-32 bytes, four per character.
# A 1-4 character CJK str object takes 80-96 bytes and these bytes 48-64,
# and a 12k-comment corpus has over a million distinct grams.
def _key(term: str) -> bytes:
    return term.encode("utf-32-le", "surrogatepass")


def _term(key: bytes) -> str:
    return key.decode("utf-32-le", "surrogatepass")


def _doc_ngrams(text: str, spans: Sequence[tuple[int, int]], max_n: int) -> set[bytes]:
    """Keys of the distinct n-grams with ≥1 occurrence not fully inside a match span.

    Whitespace-bearing n-grams are skipped; they straddle what the
    normalizer already decided are separate fragments.  ``reach[i]`` is
    the furthest end of any span starting at or before ``i``, so the gram
    ``text[i:j]`` lies inside a span exactly when ``j <= reach[i]``; each
    whitespace-free run is then walked once, with no per-gram span test.
    """
    reach = [0] * len(text)
    for s, e in spans:
        if s < len(text) and e > reach[s]:
            reach[s] = e
    if spans:
        reach = list(accumulate(reach, max))
    data = _key(text)
    grams: set[bytes] = set()
    add = grams.add
    for word in _WORD.finditer(text):
        start, end = word.span()
        for i in range(start, end):
            # plain comparisons rather than min()/max()/range(): this loop is the hot path
            stop = i + max_n
            if stop > end:
                stop = end
            j = reach[i] + 1 if reach[i] > i else i + 1
            head, j, stop = 4 * i, 4 * j, 4 * stop  # character offsets to byte offsets
            while j <= stop:
                add(data[head:j])
                j += 4
    return grams


def _row_grams(row: PseudoLabeledSample, text: str, max_n: int) -> set[bytes]:
    return _doc_ngrams(text, [(m.start, m.end) for m in row.matches], max_n)


def _count(rows: Iterable[tuple[PseudoLabeledSample, str]], max_n: int) -> dict[PseudoLabel, Counter[bytes]]:
    """Document frequency of each gram key among the toxic and among the clean rows."""
    if max_n < 1:
        raise ValueError(f"max_n must be ≥ 1, got {max_n}")
    df: dict[PseudoLabel, Counter[bytes]] = {label: Counter() for label in PseudoLabel}
    for row, text in rows:
        df[row.pseudo_label].update(_row_grams(row, text, max_n))
    return df


def _rank(
    df: dict[PseudoLabel, Counter[bytes]], known: Iterable[str], min_freq: int, min_score: float
) -> list[CandidateTerm]:
    """Candidates from per-label document-frequency tables; see extract_candidates.

    A gram whose toxic count fell to zero (``Counter.subtract`` keeps the
    key) is no candidate, whatever ``min_freq`` is.
    """
    known_keys = {_key(term) for term in known}
    clean_df = df[PseudoLabel.NON_TOXIC]
    candidates = []
    for gram, tf in df[PseudoLabel.TOXIC].items():
        if tf == 0 or tf < min_freq or gram in known_keys:
            continue
        cf = clean_df[gram]
        score = (tf + 1) / (cf + 1)
        if score >= min_score:
            candidates.append(CandidateTerm(term=_term(gram), toxic_freq=tf, clean_freq=cf, score=score))
    candidates.sort(key=lambda c: (-c.score, -c.toxic_freq, c.term))
    return candidates


def extract_candidates(
    labeled: Sequence[PseudoLabeledSample],
    texts: Sequence[tuple[int, str]],
    min_freq: int,
    min_score: float,
    max_n: int = 4,
    lex: Lexicon | None = None,
) -> list[CandidateTerm]:
    """Rank out-of-lexicon n-grams by how strongly they indicate pseudo-toxicity.

    Frequencies are document frequencies.  Occurrences fully inside an
    existing lexicon match do not count — the evidence there is already
    explained by the matched term.  Candidates need toxic_freq ≥ min_freq
    and score ≥ min_score; ties rank by toxic_freq, then term.
    """
    by_id = dict(texts)
    df = _count(((row, by_id[row.sample_id]) for row in labeled), max_n)
    known_terms = {m.entry.term for row in labeled for m in row.matches}
    if lex is not None:
        known_terms.update(e.term for e in lex)
    return _rank(df, known_terms, min_freq, min_score)


def iterate_to_fixpoint(
    corpus: Sequence[tuple[int, str]],
    seed_lex: Lexicon,
    accept_list: Iterable[str],
    *,
    min_freq: int = 3,
    min_score: float = 3.0,
    max_n: int = 4,
) -> FixpointResult:
    """Grow the lexicon from reviewed terms until labeling stabilizes.

    Each round: pseudo-label under the current lexicon, extract
    candidates, and admit those present in the (human-reviewed) accept
    list.  Admitted terms enter as general-category base entries — the
    accept list carries no category metadata.  Stops the first round that
    admits nothing; the round count includes that final quiet round.
    Only the first round mines every document; later rounds recount the
    documents whose matches changed.
    """
    accepted = {normalize_text(t) for t in accept_list}
    accepted.discard("")
    lex = seed_lex
    labels = pseudo_label(corpus, lex)
    df = _count(zip(labels, (text for _, text in corpus)), max_n)
    added_rounds: list[tuple[str, ...]] = []
    while True:
        candidates = _rank(df, (e.term for e in lex), min_freq, min_score)
        new_terms = tuple(c.term for c in candidates if c.term in accepted)
        if not new_terms:
            return FixpointResult(
                lexicon=lex,
                labels=tuple(labels),
                iterations=len(added_rounds) + 1,
                added_per_round=tuple(added_rounds),
                candidates=tuple(candidates),
            )
        added_rounds.append(new_terms)
        lex = lex.extended(
            InsultEntry(term=t, category=Category.GENERAL, surface=Surface.EXPLICIT, rule_tag=RuleTag.NONE)
            for t in new_terms
        )
        relabeled = pseudo_label(corpus, lex)
        for old, new, (_, text) in zip(labels, relabeled, corpus):
            if old.matches != new.matches:
                df[old.pseudo_label].subtract(_row_grams(old, text, max_n))
                df[new.pseudo_label].update(_row_grams(new, text, max_n))
        labels = relabeled
