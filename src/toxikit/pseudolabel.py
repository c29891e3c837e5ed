"""Lexicon-driven weak labels plus the review loop that grows the lexicon.

A sample is pseudo-toxic iff it contains at least one lexicon match.
New insult candidates are surfaced as character n-grams that skew toward
the pseudo-toxic set; a human reviews them into an accept list, and
``iterate_to_fixpoint`` replays match → extract → accept until no
accepted term is newly discoverable.  Because the lexicon only ever
grows, the pseudo-toxic set grows monotonically and the loop terminates.

Gram counts live in NumPy arrays (``_GramTables``): the corpus is
encoded once as dense character ids, and for each n a sorted table of
exact int64 gram codes carries the toxic and clean document frequencies.
A table keeps only the grams held by at least ``min_freq`` documents (and
at least one), the least a candidate needs; a gram is never in more
documents than its prefix, so a longer gram is formed only where its
prefix was kept.
The fixpoint labels and counts the whole corpus in its first round only.
A term admitted later can change only the documents that contain it, so
a later round relabels just those with ``pseudo_label`` under the grown
lexicon and moves their grams from the counts under the old spans and
label to those under the new.  Its final, quiet round's ranking is
returned as ``candidates``, the same list a from-scratch count over the
final labels would rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Sequence

import numpy as np

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


def _code_points(text: str) -> np.ndarray:
    return np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype="<u4")


# positions, prefix ranks and counts are int32, so a corpus laid end to end
# with one separator per document may hold at most this many characters
_MAX_CHARS = 2**31 - 1


class _GramTables:
    """Toxic and clean document frequencies of a corpus's n-grams, n = 1..max_n.

    Characters get dense ids (their index in the sorted ``alphabet``).  An
    n-gram's code is the dense rank of its (n−1)-character prefix among
    ``codes[n-2]`` times the alphabet size, plus the id of its last
    character (a 1-gram's prefix rank is 0).  Codes are exact and stay
    below corpus length × alphabet size, so they fit int64 for every n.
    ``codes[n-1]`` lists, sorted, the code of every whitespace-free n-gram
    held by at least ``min_df`` documents of the corpus, masked or not
    (its raw document frequency); ``toxic[n-1]`` and ``clean[n-1]`` are the
    int32 counts beside it.  A gram's toxic count never exceeds its raw
    document frequency, so no dropped gram can reach a ``min_freq`` of
    ``min_df``, and since no gram is in more documents than its prefix, an
    (n+1)-gram is formed only where its n-prefix was kept (the Apriori
    principle).  Every kept prefix thus has a rank, and any document of the
    corpus can later be looked up in the tables: a gram missing from them
    was dropped, and counts as absent and unextended.  ``tally`` moves the
    counts by run lengths over sorted gram indices, so a tally costs time
    in the grams it counts, not in the table size.

    Memory: character ids, document indices, positions, prefix ranks and
    counts are int32, and only the gram codes of the n being counted are
    int64, so a corpus may hold at most ``_MAX_CHARS`` characters (one
    separator per document included); a larger one is refused with a
    ValueError.  Each n's temporaries are freed before the next n is
    built, so counting holds the kept tables plus a bounded number of
    bytes per corpus character, whatever ``max_n`` is.
    """

    def __init__(self, texts: Sequence[str], rows: Sequence[PseudoLabeledSample], max_n: int, min_df: int = 1):
        if max_n < 1:
            raise ValueError(f"max_n must be ≥ 1, got {max_n}")
        self.max_n = max_n
        self.min_df = max(min_df, 1)
        self.alphabet: np.ndarray | None = None  # set by the first ``grams``, from the corpus it encodes
        self.codes: list[np.ndarray] = []
        self.toxic: list[np.ndarray] = []
        self.clean: list[np.ndarray] = []
        self.tally(texts, rows, 1)

    def tally(self, texts: Sequence[str], rows: Sequence[PseudoLabeledSample], sign: int) -> None:
        """Add ``sign`` to the toxic or clean count of each row's grams.

        ``grams`` yields each n's gram indices sorted, so a label's share of
        them is sorted too: one ``_add_runs`` per (n, label).
        """
        toxic = np.array([row.pseudo_label is PseudoLabel.TOXIC for row in rows], bool)
        for n, docs, grams in self.grams(texts, rows):
            is_toxic = toxic[docs]
            _add_runs(self.toxic[n - 1], grams[is_toxic], sign)
            _add_runs(self.clean[n - 1], grams[~is_toxic], sign)
            del docs, grams, is_toxic  # not held while the next n is built

    def grams(
        self, texts: Sequence[str], rows: Sequence[PseudoLabeledSample]
    ) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        """Yield (n, document index, gram table index), both int32, for each
        distinct (document, n-gram) pair with ≥1 occurrence not fully inside
        a match span.

        Whitespace-bearing n-grams are skipped; they straddle what the
        normalizer already decided are separate fragments.  Documents are
        laid end to end, each followed by a space, so no gram crosses two.
        ``reach[i]`` is the furthest end of any match starting at or before
        ``i``, so the gram at ``i..j`` lies inside a match exactly when
        ``j <= reach[i]``.  The first texts given, the whole corpus, build the
        alphabet and the n-gram tables; later texts are looked up in them.
        A gram index of −1 marks a gram the tables dropped: it is neither
        counted nor extended.
        """
        lengths = np.fromiter((len(t) + 1 for t in texts), np.int64, len(texts))
        if (total := int(lengths.sum())) > _MAX_CHARS:
            raise ValueError(
                f"corpus too large to mine: {total} characters with one separator per document,"
                f" over the limit of {_MAX_CHARS} that int32 positions hold"
            )
        starts = np.cumsum(lengths) - lengths
        ids = _code_points(" ".join(texts) + " ")  # code points, until replaced by their dense ids
        if build := self.alphabet is None:  # the corpus: its characters are the alphabet
            self.alphabet = np.unique(ids)
            self.space = np.array([chr(c).isspace() for c in self.alphabet.tolist()])
        ids = np.searchsorted(self.alphabet, ids).astype(np.int32)
        space = self.space[ids]
        doc = np.repeat(np.arange(len(texts), dtype=np.int32), lengths)
        reach = np.zeros(len(ids), np.int32)
        spans = [(start + m.start, start + m.end) for start, row in zip(starts.tolist(), rows) for m in row.matches]
        if spans:
            at, end = np.array(spans, np.int32).T
            del spans
            np.maximum.at(reach, at, end)
            np.maximum.accumulate(reach, out=reach)
        size = len(self.alphabet)
        pos = np.flatnonzero(~space).astype(np.int32)
        prefix = np.zeros(len(pos), np.int32)
        for n in range(1, self.max_n + 1):
            if not len(pos):
                return
            # each array is deleted once spent, so none is held while a later one is built
            code = prefix.astype(np.int64)  # the only int64 array per position
            code *= size
            code += ids[pos + (n - 1)]
            rank = self._build(n, code, doc, pos, len(texts)) if build else self._lookup(n, code)
            del code
            kept = rank >= 0
            counted = kept & (pos + n > reach[pos])
            docs, grams = doc[pos[counted]], rank[counted]
            # an (n+1)-gram is kept only where its n-prefix is, and is
            # whitespace-free when its n-prefix and its last character are
            longer = kept & ~space[pos + n]
            pos, prefix = pos[longer], rank[longer]
            del rank, kept, counted, longer
            pairs = _distinct_pairs(docs, grams, len(texts))
            del docs, grams
            yield (n, *pairs)
            del pairs

    def _build(self, n: int, code: np.ndarray, doc: np.ndarray, pos: np.ndarray, n_docs: int) -> np.ndarray:
        """Build the n-gram table from the corpus's codes at positions ``pos``,
        sorting ``code`` in place and reusing it; return each code's int32
        index in the table, −1 where its gram was dropped.

        The table is the sorted distinct codes, and each code's index is the
        running count of run starts scattered back through the argsort.  A
        gram held by fewer than ``min_df`` documents (``doc`` gives each
        position's document) is then dropped and the indices renumbered.
        """
        order = np.argsort(code)
        code.sort()
        first = _run_starts(code)
        table = code[first]
        rank = np.cumsum(first, dtype=np.int32)
        rank -= 1
        del first
        index = np.empty(len(code), np.int32)
        index[order] = rank
        del order, rank
        if self.min_df > 1:
            keep = _document_frequency(doc[pos], index, n_docs, code) >= self.min_df
            table = table[keep]
            renumber = np.cumsum(keep, dtype=np.int32) - 1
            renumber[~keep] = -1
            index = renumber[index]
        self.codes.append(table)
        self.toxic.append(np.zeros(len(table), np.int32))
        self.clean.append(np.zeros(len(table), np.int32))
        return index

    def _lookup(self, n: int, code: np.ndarray) -> np.ndarray:
        """Each code's int32 index in the n-gram table, −1 for a code the table lacks.

        A code falls between two kept codes when its gram was dropped for
        too few documents; its insertion point is a neighbour's index, so
        only an exact hit counts.
        """
        table = self.codes[n - 1]
        index = np.searchsorted(table, code)
        hit = index < len(table)
        hit[hit] = table[index[hit]] == code[hit]
        return np.where(hit, index, -1).astype(np.int32)

    def decode(self, n: int, index: np.ndarray) -> list[str]:
        """The n-grams at ``index`` of the n-gram table, by following prefix ranks down."""
        size = len(self.alphabet)
        ids = []
        for k in range(n, 0, -1):
            code = self.codes[k - 1][index]
            ids.append(code % size)
            index = code // size
        flat = self.alphabet[np.stack(ids[::-1], axis=1)].tobytes().decode("utf-32-le", "surrogatepass")
        return [flat[i:i + n] for i in range(0, len(flat), n)]


def _sorted_keys(docs: np.ndarray, grams: np.ndarray, n_docs: int, out: np.ndarray | None = None) -> np.ndarray:
    """The int64 keys gram × n_docs + document, sorted in place, so that
    repeats of a (document, gram) pair sit side by side and the pairs of a
    gram in one run; the keys stay below (distinct grams) × n_docs, within
    int64.  They are written into ``out`` when given, an int64 array as
    long as ``docs``.
    """
    keys = np.multiply(grams, n_docs, out=out, dtype=np.int64)
    keys += docs
    keys.sort()
    return keys


def _distinct_pairs(docs: np.ndarray, grams: np.ndarray, n_docs: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct (document, gram) pairs, as int32 arrays, sorted by gram."""
    keys = _sorted_keys(docs, grams, n_docs)
    keys = keys[_run_starts(keys)]
    docs = (keys % n_docs).astype(np.int32)
    keys //= n_docs
    return docs, keys.astype(np.int32)


def _document_frequency(docs: np.ndarray, grams: np.ndarray, n_docs: int, out: np.ndarray) -> np.ndarray:
    """The number of distinct documents that hold each gram index, as int32,
    for gram indices that run 0..max(grams) without a gap; the sorted keys
    are written into ``out``.

    A (document, gram) pair starts each run of equal keys, and a gram each
    run of equal key // n_docs.
    """
    keys = _sorted_keys(docs, grams, n_docs, out)
    pair = _run_starts(keys)
    keys //= n_docs
    return np.add.reduceat(pair, np.flatnonzero(_run_starts(keys)), dtype=np.int32)


def _run_starts(values: np.ndarray) -> np.ndarray:
    """True where a run of equal values of the sorted array ``values`` begins."""
    first = np.ones(len(values), bool)
    first[1:] = values[1:] != values[:-1]
    return first


def _add_runs(table: np.ndarray, index: np.ndarray, sign: int) -> None:
    """Add ``sign`` to ``table`` at each element of the sorted ``index``, as
    ``np.add.at`` would, by one fancy add over the distinct indices, each by
    ``sign`` times its run length.

    Its time is linear in ``len(index)``: a table-sized ``np.bincount`` is
    faster over a whole corpus but slower on the few documents a later
    fixpoint round recounts.  The temporaries end with the call, so none is
    held while ``grams`` builds the next n's pairs.
    """
    first = np.flatnonzero(_run_starts(index))
    table[index[first]] += sign * np.diff(first, append=len(index))


def _rank(tables: _GramTables, known: Iterable[str], min_freq: int, min_score: float) -> list[CandidateTerm]:
    """Rank the tables' n-grams outside ``known`` by how strongly they
    indicate pseudo-toxicity.

    Frequencies are document frequencies, counted outside every lexicon
    match: evidence inside a match is already explained by the matched
    term.  Candidates need toxic_freq ≥ min_freq and score ≥ min_score;
    they rank by score, ties by toxic_freq, then term.

    A gram whose toxic count is zero — never seen in a toxic document, or
    fallen to zero as matches grew — is no candidate, whatever ``min_freq`` is.
    """
    known = set(known)
    candidates = []
    for n, (tf, cf) in enumerate(zip(tables.toxic, tables.clean), start=1):
        score = (tf + 1) / (cf + 1)
        keep = np.flatnonzero((tf >= max(min_freq, 1)) & (score >= min_score))
        rows = zip(tables.decode(n, keep), tf[keep].tolist(), cf[keep].tolist(), score[keep].tolist())
        candidates.extend(
            CandidateTerm(term=term, toxic_freq=t, clean_freq=c, score=s)
            for term, t, c, s in rows
            if term not in known
        )
    candidates.sort(key=lambda c: (-c.score, -c.toxic_freq, c.term))
    return candidates


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
    Only the first round matches and mines every document; later rounds
    relabel and recount the documents that contain a newly admitted term.
    """
    accepted = {normalize_text(t) for t in accept_list}
    lex = seed_lex
    texts = [text for _, text in corpus]
    labels = pseudo_label(corpus, lex)
    tables = _GramTables(texts, labels, max_n, min_freq)
    added_rounds: list[tuple[str, ...]] = []
    while True:
        candidates = _rank(tables, (e.term for e in lex), min_freq, min_score)
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
        entries = [
            InsultEntry(term=t, category=Category.GENERAL, surface=Surface.EXPLICIT, rule_tag=RuleTag.NONE)
            for t in new_terms
        ]
        lex = lex.extended(entries)
        # matches are only ever added, so exactly the documents holding a new
        # term change; a text without any new term's first character holds none
        starts = Lexicon(entries)._starts
        changed = [i for i, text in enumerate(texts) if starts.search(text) and any(t in text for t in new_terms)]
        before = [labels[i] for i in changed]
        after = pseudo_label([corpus[i] for i in changed], lex)
        for i, row in zip(changed, after):
            labels[i] = row
        changed_texts = [texts[i] for i in changed]
        tables.tally(changed_texts, before, -1)
        tables.tally(changed_texts, after, 1)
