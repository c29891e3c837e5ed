import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import naive_candidates, naive_doc_ngrams
from synthcorpus import labeled_corpus
from toxikit import pseudolabel
from toxikit.lexicon import Category, InsultEntry, Lexicon, LexiconMatch, Surface, load_lexicon
from toxikit.normalize import normalize_text
from toxikit.pseudolabel import (
    PseudoLabel,
    PseudoLabeledSample,
    iterate_to_fixpoint,
    pseudo_label,
)
from toxikit.resources import lexicon_path


def lex_of(*terms):
    return Lexicon(
        InsultEntry(term=t, category=Category.GENERAL, surface=Surface.EXPLICIT) for t in terms
    )


# ---------------------------------------------------------------- pseudo_label

def test_label_is_toxic_iff_matched():
    lex = load_lexicon(lexicon_path())
    corpus = [(1, "他是个蠢驴"), (2, "今天天气不错"), (3, "我们去散步")]
    labeled = pseudo_label(corpus, lex)
    assert [row.pseudo_label for row in labeled] == [
        PseudoLabel.TOXIC,
        PseudoLabel.NON_TOXIC,
        PseudoLabel.NON_TOXIC,
    ]
    assert labeled[0].matches[0].entry.term == "蠢驴"
    assert labeled[1].matches == ()


def test_empty_lexicon_labels_all_clean():
    labeled = pseudo_label([(1, "任何話"), (2, "文本")], Lexicon([]))
    assert all(row.pseudo_label is PseudoLabel.NON_TOXIC for row in labeled)


def test_label_agrees_with_bruteforce_substring_check():
    rng = random.Random(3)
    terms = ["蛆", "老黑", "ab"]
    lex = lex_of(*terms)
    alphabet = "蛆老黑ab文字xy "
    corpus = [
        (i, "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 20))))
        for i in range(500)
    ]
    labeled = pseudo_label(corpus, lex)
    for (_, text), row in zip(corpus, labeled):
        expected = any(t in text for t in terms)
        assert (row.pseudo_label is PseudoLabel.TOXIC) == expected


# ---------------------------------------------------------------- candidates

def _laohei_fixture():
    """4 pseudo-toxic texts carry 老黑 beside a lexicon hit; 6 clean texts."""
    lex = lex_of("蠢驴")
    corpus = [
        (0, "蠢驴和老黑甲"),
        (1, "蠢驴和老黑乙"),
        (2, "蠢驴和老黑丙"),
        (3, "蠢驴和老黑丁"),
        (4, "平常话一"),
        (5, "平常话二"),
        (6, "平常话三"),
        (7, "安静的文字"),
        (8, "没有什么特别"),
        (9, "再来一条平常"),
    ]
    return lex, corpus


def test_candidate_scores_hand_counted():
    lex, corpus = _laohei_fixture()
    found = iterate_to_fixpoint(corpus, lex, [], min_freq=3, min_score=3.0).candidates
    by_term = {c.term: c for c in found}
    laohei = by_term["老黑"]
    assert (laohei.toxic_freq, laohei.clean_freq) == (4, 0)
    assert laohei.score == 5.0


def test_lexicon_terms_never_emitted():
    lex, corpus = _laohei_fixture()
    found = iterate_to_fixpoint(corpus, lex, [], min_freq=1, min_score=0.1).candidates
    assert "蠢驴" not in {c.term for c in found}
    # n-grams strictly inside the 蠢驴 match span are excluded too
    assert "蠢" not in {c.term for c in found}


def test_balanced_term_excluded_by_score():
    lex = lex_of("骂")
    corpus = [(0, "骂常见"), (1, "骂常见"), (2, "骂常见"), (3, "常见一"), (4, "常见二"), (5, "常见三")]
    found = iterate_to_fixpoint(corpus, lex, [], min_freq=3, min_score=3.0).candidates
    assert "常见" not in {c.term for c in found}  # score = 4/4 = 1


def test_candidates_ranked_by_score_then_freq():
    lex = lex_of("骂")
    corpus = [
        (0, "骂蛆甲"),
        (1, "骂蛆乙"),
        (2, "骂蛆丙"),
        (3, "骂虫虫子"),
        (4, "骂虫虫子"),
        (5, "骂虫虫子"),
    ]
    found = iterate_to_fixpoint(corpus, lex, [], min_freq=3, min_score=2.0).candidates
    scores = [c.score for c in found]
    assert scores == sorted(scores, reverse=True)


def test_whitespace_grams_skipped():
    lex = lex_of("骂")
    corpus = [(0, "骂一 二"), (1, "骂一 二"), (2, "骂一 二")]
    found = iterate_to_fixpoint(corpus, lex, [], min_freq=1, min_score=0.1).candidates
    assert all(" " not in c.term for c in found)


def test_max_n_validation():
    with pytest.raises(ValueError):
        iterate_to_fixpoint([], lex_of(), [], min_freq=1, min_score=1.0, max_n=0)


# ---------------------------------------------------------------- fixpoint

def chained_fixture():
    """虫 only clears min_freq once 蛆 has flipped the 蛆虫 texts toxic."""
    seed = lex_of("骂")
    corpus = [
        (0, "骂蛆一句"),
        (1, "骂蛆两句"),
        (2, "骂蛆三句"),
        (3, "骂蛆四句"),
        (4, "蛆虫飞呀"),
        (5, "蛆虫爬呀"),
    ]
    return corpus, seed, ["蛆", "虫"]


def test_fixpoint_runs_hand_simulated_rounds():
    corpus, seed, accept = chained_fixture()
    result = iterate_to_fixpoint(corpus, seed, accept, min_freq=2, min_score=1.5)
    assert result.iterations == 3
    assert result.added_per_round == (("蛆",), ("虫",))
    assert {e.term for e in result.lexicon} == {"骂", "蛆", "虫"}
    assert all(row.pseudo_label is PseudoLabel.TOXIC for row in result.labels)


def test_fixpoint_toxic_set_grows_monotonically():
    corpus, seed, accept = chained_fixture()
    result = iterate_to_fixpoint(corpus, seed, accept, min_freq=2, min_score=1.5)
    lex = seed
    previous: set[int] = set()
    for added in (*result.added_per_round, ()):
        toxic_ids = {
            row.sample_id
            for row in pseudo_label(corpus, lex)
            if row.pseudo_label is PseudoLabel.TOXIC
        }
        assert previous <= toxic_ids
        previous = toxic_ids
        lex = lex.extended(
            InsultEntry(term=t, category=Category.GENERAL, surface=Surface.EXPLICIT)
            for t in added
        )


def test_empty_accept_list_is_single_round():
    corpus, seed, _ = chained_fixture()
    result = iterate_to_fixpoint(corpus, seed, [])
    assert result.iterations == 1
    assert result.added_per_round == ()
    assert list(result.labels) == pseudo_label(corpus, seed)


def test_fixpoint_is_stable_under_rerun():
    corpus, seed, accept = chained_fixture()
    first = iterate_to_fixpoint(corpus, seed, accept, min_freq=2, min_score=1.5)
    again = iterate_to_fixpoint(corpus, first.lexicon, accept, min_freq=2, min_score=1.5)
    assert again.iterations == 1
    assert list(again.labels) == list(first.labels)


def test_final_labels_satisfy_postcondition():
    corpus, seed, accept = chained_fixture()
    result = iterate_to_fixpoint(corpus, seed, accept, min_freq=2, min_score=1.5)
    assert list(result.labels) == pseudo_label(corpus, result.lexicon)


def test_accept_terms_are_normalized():
    seed = lex_of("骂")
    corpus = [(0, "骂sb一"), (1, "骂sb二"), (2, "骂sb三"), (3, "平静文字")]
    result = iterate_to_fixpoint(corpus, seed, ["ｓｂ"], min_freq=2, min_score=1.5, max_n=2)
    assert "sb" in result.lexicon


def test_fixpoint_rejects_max_n_below_one():
    corpus, seed, accept = chained_fixture()
    with pytest.raises(ValueError):
        iterate_to_fixpoint(corpus, seed, accept, max_n=0)


# ---------------------------------------------------------------- incremental mining vs the brute-force reference

# CJK, ASCII, a character outside the BMP, a lone surrogate and three kinds of whitespace
_MINING_ALPHABET = "骂蛆虫老黑甲乙ab1\U0001F600\ud800 \t\u3000"


@st.composite
def _text_spans_n(draw):
    text = draw(st.text(alphabet=_MINING_ALPHABET, max_size=24))
    bound = st.integers(0, len(text))
    spans = draw(st.lists(st.tuples(bound, bound).map(sorted).map(tuple), max_size=5))
    return text, spans, draw(st.integers(1, 5))


@settings(max_examples=400, deadline=None)
@given(_text_spans_n())
def test_doc_ngrams_matches_bruteforce(case):
    # spans overlap, nest, touch and may be empty; whitespace splits the grams
    text, spans, max_n = case
    entry = InsultEntry(term="x", category=Category.GENERAL, surface=Surface.EXPLICIT)
    row = PseudoLabeledSample(0, PseudoLabel.TOXIC, tuple(LexiconMatch(s, e, entry) for s, e in spans))
    grams = {c.term for c in pseudolabel._rank(pseudolabel._GramTables([text], [row], max_n), (), 1, 0.0)}
    assert grams == naive_doc_ngrams(text, spans, max_n)


# characters outside the BMP from a block wider than 2^13, so a corpus can
# outgrow any fixed number of bits per character
_WIDE = st.characters(min_codepoint=0x20000, max_codepoint=0x2A6DF)


@st.composite
def _mining_case(draw):
    chars = st.one_of(st.sampled_from(_MINING_ALPHABET), _WIDE)
    texts = draw(st.lists(st.text(alphabet=chars, max_size=16), max_size=12))
    pieces = [text[i:j] for text in texts for i in range(len(text)) for j in range(i + 1, min(i + 3, len(text)) + 1)]
    terms = draw(st.lists(st.sampled_from(pieces), max_size=3, unique=True)) if pieces else []
    return (
        list(enumerate(texts)),
        lex_of(*terms),
        draw(st.integers(1, 6)),
        draw(st.integers(0, 3)),
        draw(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0])),
    )


def _naive_extraction(labeled, corpus, lex, min_freq, min_score, max_n):
    docs = [
        (row.pseudo_label is PseudoLabel.TOXIC, text, [(m.start, m.end) for m in row.matches])
        for row, (_, text) in zip(labeled, corpus)
    ]
    known = {e.term for e in lex} | {m.entry.term for row in labeled for m in row.matches}
    return naive_candidates(docs, known, min_freq, min_score, max_n)


def _as_rows(candidates):
    return [(c.term, c.toxic_freq, c.clean_freq, c.score) for c in candidates]


@settings(max_examples=200, deadline=None)
@given(_mining_case())
def test_first_round_candidates_match_bruteforce(case):
    # empty documents, an empty corpus, non-BMP text, lone surrogates, tab and U+3000
    corpus, lex, max_n, min_freq, min_score = case
    found = iterate_to_fixpoint(corpus, lex, [], min_freq=min_freq, min_score=min_score, max_n=max_n).candidates
    labeled = pseudo_label(corpus, lex)
    assert _as_rows(found) == _naive_extraction(labeled, corpus, lex, min_freq, min_score, max_n)


def test_first_round_candidates_over_an_alphabet_wider_than_2_to_the_13():
    rng = random.Random(5)
    common = [chr(0x4E00 + i) for i in range(40)]
    rare = [chr(0x4E00 + i) for i in range(40, 2**13 + 500)]
    rng.shuffle(rare)
    # every rare character once, each followed by a common one
    texts = ["".join(ch + rng.choice(common) for ch in rare[k:k + 24]) for k in range(0, len(rare), 24)]
    corpus = list(enumerate(texts + ["", ""]))
    assert len({ch for _, text in corpus for ch in text}) > 2**13
    lex = lex_of(*common[:3])
    found = iterate_to_fixpoint(corpus, lex, [], min_freq=1, min_score=1.0, max_n=6).candidates
    assert len(found) > 0
    assert _as_rows(found) == _naive_extraction(pseudo_label(corpus, lex), corpus, lex, 1, 1.0, 6)


# ---------------------------------------------------------------- _GramTables counts

def _table_counts(tables):
    """{gram: (toxic df, clean df)} over every table entry with a nonzero count."""
    counts = {}
    for n, codes in enumerate(tables.codes, start=1):
        for gram, t, c in zip(tables.decode(n, np.arange(len(codes))), tables.toxic[n - 1], tables.clean[n - 1]):
            if t or c:
                counts[gram] = (int(t), int(c))
    return counts


def _naive_table_counts(rows, texts, max_n):
    toxic, clean = Counter(), Counter()
    for row, text in zip(rows, texts):
        spans = [(m.start, m.end) for m in row.matches]
        (toxic if row.pseudo_label is PseudoLabel.TOXIC else clean).update(naive_doc_ngrams(text, spans, max_n))
    return {gram: (toxic[gram], clean[gram]) for gram in toxic | clean}


@settings(max_examples=200, deadline=None)
@given(_mining_case())
def test_gram_tables_count_distinct_document_grams_outside_matches(case):
    corpus, lex, max_n, _, _ = case
    texts = [text for _, text in corpus]
    rows = pseudo_label(corpus, lex)
    tables = pseudolabel._GramTables(texts, rows, max_n)
    assert _table_counts(tables) == _naive_table_counts(rows, texts, max_n)
    assert all(t.dtype == np.int32 for t in tables.toxic + tables.clean)


@settings(max_examples=100, deadline=None)
@given(_mining_case())
def test_gram_tables_tally_back_out_to_zero_and_of_no_rows_to_nothing(case):
    corpus, lex, max_n, _, _ = case
    texts = [text for _, text in corpus]
    rows = pseudo_label(corpus, lex)
    tables = pseudolabel._GramTables(texts, rows, max_n)
    before = [t.copy() for t in tables.toxic + tables.clean]
    tables.tally([], [], 1)
    tables.tally([], [], -1)
    assert all(np.array_equal(a, b) for a, b in zip(before, tables.toxic + tables.clean))
    tables.tally(texts, rows, 1)
    assert all(np.array_equal(2 * a, b) for a, b in zip(before, tables.toxic + tables.clean))
    tables.tally(texts, rows, -1)
    tables.tally(texts, rows, -1)
    assert all(t.dtype == np.int32 and not t.any() for t in tables.toxic + tables.clean)


def swallowed_fixture():
    """Admitting 蛆虫 puts 蛆 and 虫 inside its spans in the only toxic texts
    that held them: their toxic counts fall to zero, but the keys remain."""
    return [(0, "骂蛆虫"), (1, "骂蛆虫"), (2, "平常话")], lex_of("骂"), ["蛆虫"]


def _general(terms):
    return (InsultEntry(term=t, category=Category.GENERAL, surface=Surface.EXPLICIT) for t in terms)


def _replay_fixpoint(corpus, seed_lex, accept, min_freq, min_score, max_n):
    """The fixpoint recomputed from scratch each round with the brute-force
    miner: (final lexicon, final labels, added per round, candidates per round)."""
    accepted = {normalize_text(t) for t in accept} - {""}
    lex, added, ranked = seed_lex, [], []
    while True:
        labels = pseudo_label(corpus, lex)
        ranked.append(_naive_extraction(labels, corpus, lex, min_freq, min_score, max_n))
        new = tuple(term for term, *_ in ranked[-1] if term in accepted)
        if not new:
            return lex, labels, added, ranked
        added.append(new)
        lex = lex.extended(_general(new))


def _random_fixpoint_case(seed):
    """A small corpus over a few characters whose every 2-gram is accepted, so
    admitted terms swallow single characters that then drop out of the counts."""
    rng = random.Random(seed)
    corpus = [(i, "".join(rng.choice("骂蛆虫甲乙丙a ") for _ in range(rng.randint(0, 10)))) for i in range(40)]
    accept = sorted({text[i:i + 2] for _, text in corpus for i in range(len(text) - 1)})
    return corpus, lex_of("骂"), accept


def _labeled_fixpoint_case(n=200, seed=11):
    """The bundled lexicon over labeled_corpus texts, accepting every 1- and 2-gram."""
    corpus = [(s.id, s.text) for s in labeled_corpus(n, seed=seed)]
    accept = sorted({text[i:i + k] for _, text in corpus for k in (1, 2) for i in range(len(text) - k + 1)})
    return corpus, load_lexicon(lexicon_path()), accept


_REPLAY_CASES = [
    ("chained", chained_fixture, 2, 1.5),
    ("chained-min-freq-0", chained_fixture, 0, 1.0),
    ("swallowed-min-freq-0", swallowed_fixture, 0, 0.5),
    ("labeled", lambda: _labeled_fixpoint_case(120), 3, 2.0),
    ("labeled-min-freq-1", lambda: _labeled_fixpoint_case(120), 1, 2.0),
    *[(f"random-{seed}-min-freq-{mf}", lambda seed=seed: _random_fixpoint_case(seed), mf, ms)
      for seed in range(6) for mf, ms in ((0, 0.5), (1, 1.5), (3, 2.0))],
]


@pytest.mark.parametrize("name,make,min_freq,min_score", _REPLAY_CASES, ids=[c[0] for c in _REPLAY_CASES])
def test_incremental_fixpoint_matches_from_scratch_replay(monkeypatch, name, make, min_freq, min_score):
    corpus, seed_lex, accept = make()
    ranked = []
    real_rank = pseudolabel._rank

    def recording_rank(*args):
        ranked.append(real_rank(*args))
        return ranked[-1]

    monkeypatch.setattr(pseudolabel, "_rank", recording_rank)
    result = iterate_to_fixpoint(corpus, seed_lex, accept, min_freq=min_freq, min_score=min_score, max_n=3)
    lex, labels, added, expected = _replay_fixpoint(corpus, seed_lex, accept, min_freq, min_score, 3)
    assert result.added_per_round == tuple(added)
    assert list(result.labels) == labels
    assert [e.term for e in result.lexicon] == [e.term for e in lex]
    assert [[(c.term, c.toxic_freq, c.clean_freq, c.score) for c in rows] for rows in ranked] == expected
    assert list(result.candidates) == ranked[-1]


def test_replay_cases_exercise_several_rounds():
    rounds = [
        iterate_to_fixpoint(*make(), min_freq=min_freq, min_score=min_score, max_n=3).iterations
        for _, make, min_freq, min_score in _REPLAY_CASES
    ]
    assert max(rounds) >= 4
    assert sum(r >= 3 for r in rounds) >= len(rounds) // 2


def test_gram_whose_toxic_count_drops_to_zero_is_no_candidate():
    corpus, seed, accept = swallowed_fixture()
    result = iterate_to_fixpoint(corpus, seed, accept, min_freq=0, min_score=0.5)
    assert result.added_per_round == (("蛆虫",),)
    terms = {c.term for c in result.candidates}
    assert "骂蛆" in terms
    assert not terms & {"蛆", "虫"}
    assert _as_rows(result.candidates) == _naive_extraction(result.labels, corpus, result.lexicon, 0, 0.5, 4)


@pytest.mark.parametrize("make,min_freq,min_score", [(chained_fixture, 2, 1.5), (_labeled_fixpoint_case, 3, 2.0)])
def test_final_candidates_equal_a_from_scratch_extraction(make, min_freq, min_score):
    corpus, seed_lex, accept = make()
    result = iterate_to_fixpoint(corpus, seed_lex, accept, min_freq=min_freq, min_score=min_score)
    assert result.iterations >= 3
    expected = _naive_extraction(result.labels, corpus, result.lexicon, min_freq, min_score, 4)
    assert _as_rows(result.candidates) == expected


# ---------------------------------------------------------------- how much the fixpoint mines

def _changed_documents(corpus, seed_lex, added_per_round):
    """Documents whose matches differ between consecutive rounds, summed over rounds."""
    lex = seed_lex
    before = pseudo_label(corpus, lex)
    changed = 0
    for added in added_per_round:
        lex = lex.extended(_general(added))
        after = pseudo_label(corpus, lex)
        changed += sum(old.matches != new.matches for old, new in zip(before, after))
        before = after
    return changed


def _record_mined(monkeypatch):
    """Patch the gram miner to log how many documents each call mines."""
    mined = []
    real = pseudolabel._GramTables.grams

    def recording(self, texts, rows):
        mined.append(len(texts))
        return real(self, texts, rows)

    monkeypatch.setattr(pseudolabel._GramTables, "grams", recording)
    return mined


@pytest.mark.parametrize("make,min_freq,min_score", [(chained_fixture, 2, 1.5), (_labeled_fixpoint_case, 3, 2.0)])
def test_fixpoint_mines_each_document_once_plus_twice_per_change(monkeypatch, make, min_freq, min_score):
    corpus, seed_lex, accept = make()
    mined = _record_mined(monkeypatch)
    result = iterate_to_fixpoint(corpus, seed_lex, accept, min_freq=min_freq, min_score=min_score)
    changed = _changed_documents(corpus, seed_lex, result.added_per_round)
    assert result.iterations >= 3
    assert 0 < changed
    assert sum(mined) == len(corpus) + 2 * changed


def test_labeled_fixpoint_mines_less_than_once_per_round(monkeypatch):
    corpus, seed_lex, accept = _labeled_fixpoint_case()
    mined = _record_mined(monkeypatch)
    result = iterate_to_fixpoint(corpus, seed_lex, accept, min_freq=3, min_score=2.0)
    assert result.iterations == 3
    assert sum(mined) < len(corpus) * result.iterations


@pytest.mark.parametrize("make,min_freq,min_score", [(chained_fixture, 2, 1.5), (_labeled_fixpoint_case, 3, 2.0)])
def test_fixpoint_relabels_only_documents_holding_an_admitted_term(monkeypatch, make, min_freq, min_score):
    corpus, seed_lex, accept = make()
    matched = []
    real = pseudolabel.find_matches

    def recording(text, lex):
        matched.append(text)
        return real(text, lex)

    # the first round matches every document; a later one only those holding a term it admitted
    monkeypatch.setattr(pseudolabel, "find_matches", recording)
    result = iterate_to_fixpoint(corpus, seed_lex, accept, min_freq=min_freq, min_score=min_score)
    monkeypatch.undo()
    added = [t for batch in result.added_per_round for t in batch]
    assert result.iterations >= 3
    assert matched[: len(corpus)] == [text for _, text in corpus]
    assert all(any(t in text for t in added) for text in matched[len(corpus):])
    assert len(matched) == len(corpus) + _changed_documents(corpus, seed_lex, result.added_per_round)
    assert list(result.labels) == pseudo_label(corpus, result.lexicon)
