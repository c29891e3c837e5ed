"""Lexicon-driven weak labels plus the review loop that grows the lexicon.

A sample is pseudo-toxic iff it contains at least one lexicon match.
New insult candidates are surfaced as character n-grams that skew toward
the pseudo-toxic set; a human reviews them into an accept list, and
``iterate_to_fixpoint`` replays match → extract → accept until no
accepted term is newly discoverable.  Because the lexicon only ever
grows, the pseudo-toxic set grows monotonically and the loop terminates.

Gram counts live in NumPy arrays (``_GramTables``): for each n a sorted
table of exact int64 gram codes carries the toxic and clean document
frequencies.  A table keeps only the grams held by at least ``min_freq``
documents (and at least one), the least a candidate needs; a gram is
never in more documents than its prefix or its suffix, so a longer gram
is formed only where both were kept.  The tables are counted level by
level over chunks of whole documents, each encoded once as dense
character ids, so the count holds a few bytes per position where a gram
may still start, not per-position arrays of the whole corpus.
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


# gram ranks and counts are int32, and a level's table holds at most one gram
# per character, so a corpus laid end to end with one separator per document
# may hold at most this many characters
_MAX_CHARS = 2**31 - 1
# documents are mined in chunks of at most this many characters, a longer
# document in a chunk of its own
_CHUNK_CHARS = 2**16


def _chunk_bounds(texts: Sequence[str]) -> Iterator[tuple[int, int]]:
    """(start, stop) of each chunk of consecutive documents, counting one separator per document."""
    start = chars = 0
    for i, text in enumerate(texts):
        if chars + len(text) + 1 > _CHUNK_CHARS and i > start:
            yield start, i
            start, chars = i, 0
        chars += len(text) + 1
    if start < len(texts):
        yield start, len(texts)


class _Chunk:
    """Consecutive documents of a tally, laid end to end, each followed by a
    space so that no gram crosses two, and the positions where a gram of
    the level being counted starts.

    A position survives to level n when the tables hold the (n−1)-grams
    that start at it and at the next position, so its n-gram's prefix and
    suffix were both kept; a gram containing whitespace is never kept.  For
    each survivor the chunk keeps ``prefix``, the index of its (n−1)-gram
    among the chunk's distinct (n−1)-grams sorted by code (``rank`` maps
    that index to the gram's table index); ``doc``, its document within
    the chunk; and ``cover``, up to ``max_n``, how many characters from it
    lie inside one match, so the n-gram there is inside a match exactly
    when ``n <= cover``.

    Table indices rise with gram codes, so sorting the survivors by
    (prefix index, last character) sorts them by gram code: one sort per
    level gives the chunk's distinct grams, its distinct (document, gram)
    pairs and whether a pair has an occurrence outside every match.  The
    sort key stays within int64 for every alphabet: a chunk of several
    documents holds at most ``_CHUNK_CHARS`` characters, and one of a
    single document needs no document bits.
    """

    def __init__(self, texts: Sequence[str], rows: Sequence[PseudoLabeledSample], max_n: int):
        lengths = [len(text) + 1 for text in texts]
        self.chars = _code_points(" ".join(texts) + " ")  # code points, until ``start`` makes them dense ids
        self.doc_bits = (len(texts) - 1).bit_length()
        self.toxic = np.array([row.pseudo_label is PseudoLabel.TOXIC for row in rows], bool)
        self.doc = np.repeat(np.arange(len(texts), dtype=np.min_scalar_type(len(texts))), lengths)
        # reach[i] is the furthest end of any match starting at or before i
        reach = np.zeros(len(self.chars), np.int32)
        starts = np.cumsum(lengths) - lengths
        spans = [(start + m.start, start + m.end) for start, row in zip(starts.tolist(), rows) for m in row.matches]
        if spans:
            at, end = np.array(spans, np.int32).T
            np.maximum.at(reach, at, end)
            np.maximum.accumulate(reach, out=reach)
        reach -= np.arange(len(reach), dtype=np.int32)
        self.cover = np.clip(reach, 0, max_n).astype(np.min_scalar_type(max_n))

    def start(self, lut: np.ndarray, space: np.ndarray) -> None:
        """Turn the code points into dense ids, ``lut`` mapping one to the
        other, and make every position that is not whitespace a survivor."""
        self.chars = lut[self.chars]
        pos = np.flatnonzero(~space[self.chars])
        # a survivor's n-gram ends before its document's separator, so pos + n stays below len(chars)
        self.pos = pos.astype(np.min_scalar_type(len(self.chars)))
        self.doc, self.cover = self.doc[pos], self.cover[pos]
        self.prefix = np.zeros(len(pos), np.min_scalar_type(len(pos)))
        self.rank = np.zeros(1, np.int32)
        self.size = len(space)
        self.char_bits = (self.size - 1).bit_length()

    def count(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """The codes of the survivors' distinct n-grams, sorted, and the
        number of documents that hold each, as int32.

        ``prefix`` becomes each survivor's index among these grams, kept
        until ``advance`` as ``grams``, each the gram's prefix index and
        last character; ``first`` marks, for each distinct (document,
        gram) pair with an occurrence outside every match, one survivor.
        """
        key = self.prefix.astype(np.int64)
        key <<= self.char_bits
        key |= self.chars[self.pos + (n - 1)]
        key <<= self.doc_bits
        key |= self.doc
        key <<= 1
        key |= self.cover >= n  # so a pair's first occurrence sorts outside a match if any is
        order = np.argsort(key)
        key = key[order]
        inside = (key & 1).astype(bool)
        key >>= 1
        pair = _run_starts(key)
        self.first = np.zeros(len(key), bool)
        self.first[order[pair & ~inside]] = True
        del inside
        key >>= self.doc_bits
        gram = _run_starts(key)
        self.prefix[order] = np.cumsum(gram, dtype=np.int32) - 1
        del order
        at = np.flatnonzero(gram)
        self.grams = key[at]
        if self.grams[-1] < 2**32:  # the common case: held in half the bytes until ``advance``
            self.grams = self.grams.astype(np.uint32)
        return self.codes(), np.add.reduceat(pair, at, dtype=np.int32)

    def codes(self) -> np.ndarray:
        """The table codes of ``grams``: the prefix's table index times the
        alphabet size, plus the last character's id."""
        code = self.rank[self.grams >> self.char_bits].astype(np.int64)
        code *= self.size
        code += self.grams & ((1 << self.char_bits) - 1)
        return code

    def advance(self, n: int, index: np.ndarray, toxic: np.ndarray, clean: np.ndarray, sign: int) -> None:
        """Add ``sign`` to the ``toxic`` or ``clean`` table count of each
        pair marked ``first``, then keep the survivors of level n + 1;
        ``index`` is each of ``grams``' table index, −1 where the table
        lacks it."""
        found = index >= 0
        hit = np.flatnonzero(found)
        in_toxic = self.toxic[self.doc]
        for table, marked in ((toxic, self.first & in_toxic), (clean, self.first & ~in_toxic)):
            table[index[hit]] += sign * np.bincount(self.prefix[marked], minlength=len(index))[hit]
        kept = found[self.prefix]
        held = np.zeros(len(self.chars), bool)
        held[self.pos[kept]] = True
        kept &= held[self.pos + 1]
        # one index array serves every column: faster than a boolean mask per column
        kept = np.flatnonzero(kept)
        self.pos, self.prefix = self.pos[kept], self.prefix[kept]
        self.doc, self.cover = self.doc[kept], self.cover[kept]
        self.rank = index
        del self.grams, self.first


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
    ``min_df``, and since no gram is in more documents than its prefix or
    its suffix, an (n+1)-gram is formed only where both its n-prefix and
    its n-suffix were kept (the Apriori principle).  Every kept prefix thus
    has a rank, and any document of the corpus can later be looked up in
    the tables: a gram missing from them was dropped, and counts as absent
    and unextended.

    Counting goes level by level over chunks of whole documents
    (``_Chunk``), as in partition counting of frequent itemsets.  Each
    chunk sorts its survivors once per level; its distinct grams and their
    document counts are merged into one sorted running table, which is
    pruned to ``min_df`` documents when the level ends.  Each chunk then
    looks its grams up in the pruned table, adds its toxic and clean
    counts, and keeps the positions whose gram was kept.  A later tally,
    of the few documents a fixpoint round recounts, takes the same path
    but skips the running table, so its time follows the grams it counts,
    not the table size.

    Memory: a level holds a few bytes per surviving position and each
    chunk's distinct grams, and one chunk's sort at a time.  The running
    table grows with the level's distinct grams, which grow more slowly
    than the corpus but do grow.  Gram ranks and counts are int32, so a
    corpus may hold at most ``_MAX_CHARS`` characters (one separator per
    document included); a larger one is refused with a ValueError.
    """

    def __init__(self, texts: Sequence[str], rows: Sequence[PseudoLabeledSample], max_n: int, min_df: int = 1):
        if max_n < 1:
            raise ValueError(f"max_n must be ≥ 1, got {max_n}")
        self.max_n = max_n
        self.min_df = max(min_df, 1)
        self.alphabet: np.ndarray | None = None  # set by the first tally, from the corpus it encodes
        self.codes: list[np.ndarray] = []
        self.toxic: list[np.ndarray] = []
        self.clean: list[np.ndarray] = []
        self.tally(texts, rows, 1)

    def tally(self, texts: Sequence[str], rows: Sequence[PseudoLabeledSample], sign: int) -> None:
        """Add ``sign`` to the toxic or clean count of each row's distinct
        grams with ≥1 occurrence not fully inside a match span.

        Whitespace-bearing n-grams are skipped; they straddle what the
        normalizer already decided are separate fragments.  The first
        texts given, the whole corpus, build the alphabet and the tables;
        later texts are looked up in them.
        """
        if (total := sum(len(text) + 1 for text in texts)) > _MAX_CHARS:
            raise ValueError(
                f"corpus too large to mine: {total} characters with one separator per document,"
                f" over the limit of {_MAX_CHARS} that int32 gram ranks hold"
            )
        chunks = [_Chunk(texts[a:b], rows[a:b], self.max_n) for a, b in _chunk_bounds(texts)]
        if build := self.alphabet is None:  # the corpus: its characters are the alphabet
            seen = np.zeros(max((int(chunk.chars.max()) + 1 for chunk in chunks), default=0), bool)
            for chunk in chunks:
                seen[chunk.chars] = True
            self.alphabet = np.flatnonzero(seen).astype("<u4")
            self.space = np.array([chr(c).isspace() for c in self.alphabet.tolist()])
            del seen
        size = len(self.alphabet)
        lut = np.zeros(int(self.alphabet[-1]) + 1 if size else 0, np.min_scalar_type(max(size - 1, 0)))
        lut[self.alphabet] = np.arange(size)
        for chunk in chunks:
            chunk.start(lut, self.space)
        del lut
        for n in range(1, self.max_n + 1):
            chunks = [chunk for chunk in chunks if len(chunk.pos)]
            if not chunks:
                return
            if build:
                codes, df = _merged(chunk.count(n) for chunk in chunks)
                self.codes.append(codes[df >= self.min_df])
                self.toxic.append(np.zeros(len(self.codes[-1]), np.int32))
                self.clean.append(np.zeros(len(self.codes[-1]), np.int32))
                del codes, df  # not held while the chunks advance
            else:
                for chunk in chunks:
                    chunk.count(n)
            for chunk in chunks:
                chunk.advance(n, self._lookup(n, chunk.codes()), self.toxic[n - 1], self.clean[n - 1], sign)

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


def _merged(counts: Iterable[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """The sorted union of the chunks' sorted distinct gram codes, with their
    document counts summed: a code already in the running union adds its
    count, and a new one is inserted in order."""
    codes, total = np.empty(0, np.int64), np.empty(0, np.int32)
    for grams, df in counts:
        at = np.searchsorted(codes, grams)
        hit = at < len(codes)
        hit[hit] = codes[at[hit]] == grams[hit]
        total[at[hit]] += df[hit]
        new = np.flatnonzero(~hit)
        fresh = at[new] + np.arange(len(new))  # the k-th new code goes k places past its insertion point
        old = np.ones(len(codes) + len(new), bool)
        old[fresh] = False
        del at, hit
        # one column at a time, so a merge holds one new column beside the old ones
        codes = _spliced(codes, old, grams[new], fresh)
        total = _spliced(total, old, df[new], fresh)
    return codes, total


def _spliced(values: np.ndarray, old: np.ndarray, new: np.ndarray, fresh: np.ndarray) -> np.ndarray:
    """``values`` at the positions ``old`` marks and ``new`` at the indices ``fresh``."""
    out = np.empty(len(old), values.dtype)
    out[old] = values
    out[fresh] = new
    return out


def _run_starts(values: np.ndarray) -> np.ndarray:
    """True where a run of equal values of the sorted array ``values`` begins."""
    first = np.ones(len(values), bool)
    first[1:] = values[1:] != values[:-1]
    return first


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
