import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import naive_find_matches
from toxikit.lexicon import (
    Category,
    InsultEntry,
    Lexicon,
    LexiconError,
    RuleTag,
    Surface,
    find_matches,
    load_lexicon,
    token_category,
)
from toxikit.resources import lexicon_path


def entry(term, category=Category.GENERAL, surface=Surface.EXPLICIT):
    return InsultEntry(term=term, category=category, surface=surface)


def lex_of(*terms_with_cats):
    return Lexicon(
        entry(t, c) if isinstance(t, str) else t
        for t, c in terms_with_cats
    )


# ---------------------------------------------------------------- matching

def test_single_match():
    lex = lex_of(("老黑", Category.RACISM))
    found = find_matches("别叫他老黑了", lex)
    assert [(m.start, m.end, m.entry.term) for m in found] == [(3, 5, "老黑")]


def test_nested_and_overlapping_matches_all_reported():
    lex = lex_of(("黑", Category.RACISM), ("老黑", Category.RACISM), ("黑鬼", Category.RACISM))
    found = find_matches("老黑鬼", lex)
    assert {(m.start, m.end, m.entry.term) for m in found} == {
        (0, 2, "老黑"),
        (1, 2, "黑"),
        (1, 3, "黑鬼"),
    }
    # sorted by start ascending, then length descending
    assert [(m.start, m.end) for m in found] == [(0, 2), (1, 3), (1, 2)]


def test_repeated_occurrences():
    lex = lex_of(("哈", Category.GENERAL),)
    found = find_matches("哈哈哈", lex)
    assert [(m.start, m.end) for m in found] == [(0, 1), (1, 2), (2, 3)]


def test_no_match_and_empty_text():
    lex = lex_of(("坏", Category.GENERAL),)
    assert find_matches("好话", lex) == []
    assert find_matches("", lex) == []


def test_empty_lexicon_matches_nothing():
    assert find_matches("任何文本", Lexicon([])) == []


def test_matcher_equals_naive_scan_on_fuzz():
    rng = random.Random(7)
    alphabet = "abc黑鬼老人"
    patterns = set()
    while len(patterns) < 30:
        patterns.add("".join(rng.choice(alphabet) for _ in range(rng.randint(1, 4))))
    lex = Lexicon(entry(p) for p in patterns)
    for _ in range(300):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 60)))
        got = [(m.start, m.end, m.entry.term) for m in find_matches(text, lex)]
        want = sorted(naive_find_matches(text, list(patterns)), key=lambda hit: (hit[0], hit[0] - hit[1]))
        assert got == want


# Regex metacharacters first: an unescaped one in the first-character class
# would form a range or a negation and visit positions that start no term.
_META_FIRST = "][\\^-.*?黑鬼老"
_META_TEXT = _META_FIRST + "+,/09AZ_a人"
_META_TERMS = st.lists(
    st.tuples(st.sampled_from(_META_FIRST), st.text(alphabet=_META_TEXT, max_size=3)).map("".join),
    min_size=1, max_size=12, unique=True,
)


@settings(max_examples=300, deadline=None)
@given(_META_TERMS, st.text(alphabet=_META_TEXT, max_size=40))
@example(["]", "\\", "-", "^"], "a]b\\c-d^e0")
@example([".-^", "*"], "+,/09AZ_[]")
def test_matcher_equals_naive_scan_on_regex_metacharacters(terms, text):
    lex = Lexicon(entry(t) for t in terms)
    got = [(m.start, m.end, m.entry.term) for m in find_matches(text, lex)]
    want = sorted(naive_find_matches(text, terms), key=lambda hit: (hit[0], hit[0] - hit[1]))
    assert got == want


def test_term_prefixes_at_end_of_text():
    # slices past the end are cut short; 'ab' at 1 must not pass for 'abc'
    lex = lex_of(("a", Category.GENERAL), ("ab", Category.GENERAL), ("abc", Category.GENERAL))
    assert [(m.start, m.end, m.entry.term) for m in find_matches("xab", lex)] == [(1, 3, "ab"), (1, 2, "a")]


# ---------------------------------------------------------------- token_category

def test_token_category_longest_match_wins():
    lex = lex_of(("黑", Category.GENERAL), ("老黑", Category.RACISM))
    assert token_category("叫老黑呀", lex) == [0, 2, 2, 0]


def test_token_category_tie_breaks_to_smaller_id():
    # two equal-length terms overlap on 拳; sexism=1 < regional_bias=3
    lex = lex_of(("拳师", Category.REGIONAL_BIAS), ("女拳", Category.SEXISM))
    assert token_category("女拳师", lex) == [1, 1, 3]


def _painted(text, cats_by_term):
    """The painting rule over the naive scan: each character takes the
    category of the longest match covering it, ties to the smallest id."""
    hits = naive_find_matches(text, list(cats_by_term))
    cats = []
    for i in range(len(text)):
        covering = [(start - end, int(cats_by_term[term])) for start, end, term in hits if start <= i < end]
        cats.append(min(covering)[1] if covering else 0)
    return cats


def test_token_category_uncovered_is_zero():
    assert token_category("和平文字", lex_of(("骂", Category.GENERAL))) == [0, 0, 0, 0]
    # texts that hold first characters of terms, or none, but no whole term
    cats_by_term = {"]x": Category.RACISM, "-": Category.SEXISM, "黑鬼": Category.RACISM}
    lex = Lexicon(entry(t, c) for t, c in cats_by_term.items())
    for text in ("", "a+b0Z_人", "]]", "黑"):
        assert token_category(text, lex) == _painted(text, cats_by_term) == [0] * len(text)


@settings(max_examples=200, deadline=None)
@given(_META_TERMS, st.text(alphabet=_META_TEXT, max_size=40))
# two equal-length terms of different categories overlap, both inside a longer
# third term; the text holds them once with the longer term and once without
@example(["黑鬼", "鬼老", "]黑鬼老"], "]黑鬼老+黑鬼老")
@example(["-^", "*-", ".*-^"], "a.*-^0*-^")
def test_token_category_follows_the_painting_rule(terms, text):
    cats_by_term = {t: Category(1 + sum(map(ord, t)) % 5) for t in terms}
    lex = Lexicon(entry(t, c) for t, c in cats_by_term.items())
    assert token_category(text, lex) == _painted(text, cats_by_term)


# ---------------------------------------------------------------- construction

def test_duplicate_terms_rejected():
    with pytest.raises(LexiconError, match="duplicate term"):
        lex_of(("骂", Category.GENERAL), ("骂", Category.SEXISM))


def test_empty_term_rejected():
    with pytest.raises(LexiconError, match="empty term"):
        entry("")


def test_extended_returns_new_lexicon():
    base = lex_of(("骂", Category.GENERAL),)
    grown = base.extended([entry("蛆")])
    assert "蛆" in grown and "蛆" not in base
    assert len(base) == 1 and len(grown) == 2
    assert grown.get("蛆").category is Category.GENERAL


# ---------------------------------------------------------------- loading

def test_load_bundled_lexicon():
    lex = load_lexicon(lexicon_path())
    assert len(lex) >= 100
    categories = {e.category for e in lex}
    assert categories == set(Category)
    surfaces = {e.surface for e in lex}
    assert surfaces == {Surface.EXPLICIT, Surface.IMPLICIT}


def test_load_parses_columns(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_text(
        "# comment line\n"
        "老黑\tracism\texplicit\tnone\n"
        "\n"
        "小仙女\t1\timplicit\tirony\n",
        encoding="utf-8",
    )
    lex = load_lexicon(path)
    assert lex.get("老黑").category is Category.RACISM
    assert lex.get("小仙女").category is Category.SEXISM
    assert lex.get("小仙女").surface is Surface.IMPLICIT

    # CRLF ends, an indented comment and a line's surrounding whitespace
    # (here a trailing tab) are all dropped before the tab split
    path.write_bytes(
        "  # comment line\r\n老黑\tracism\texplicit\tnone\r\n\r\n 小仙女\t1\timplicit\tirony\t\r\n".encode()
    )
    assert load_lexicon(path).entries == lex.entries


def test_load_normalizes_terms(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_text("ｓｂ\tgeneral\texplicit\tabbreviation\n", encoding="utf-8")
    assert "sb" in load_lexicon(path)


def test_load_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_text("骂\tgeneral\texplicit\n", encoding="utf-8")
    with pytest.raises(LexiconError, match=r"lex\.tsv:1: expected 4"):
        load_lexicon(path)

    path.write_text(
        "骂\tgeneral\texplicit\tnone\n骂\tgeneral\texplicit\tnone\n", encoding="utf-8"
    )
    with pytest.raises(LexiconError, match=r"lex\.tsv:2: duplicate term"):
        load_lexicon(path)

    path.write_text("骂\tinsults\texplicit\tnone\n", encoding="utf-8")
    with pytest.raises(LexiconError, match="unknown category 'insults'"):
        load_lexicon(path)

    path.write_text("骂\tgeneral\tloud\tnone\n", encoding="utf-8")
    with pytest.raises(LexiconError, match="unknown surface"):
        load_lexicon(path)

    path.write_text("骂\tgeneral\texplicit\tsarcasm\n", encoding="utf-8")
    with pytest.raises(LexiconError, match="unknown rule_tag"):
        load_lexicon(path)


@pytest.mark.parametrize(
    "raw",
    ["²", "①", "05", "٥", "1" * 5000, "0", "6"],
    ids=["superscript-2", "circled-1", "leading-zero", "arabic-indic-5", "5000-digits", "0", "6"],
)
def test_load_refuses_a_category_that_is_neither_name_nor_digit(tmp_path, raw):
    path = tmp_path / "lex.tsv"
    path.write_text(f"好\tgeneral\texplicit\tnone\n骂\t{raw}\texplicit\tnone\n", encoding="utf-8")
    with pytest.raises(LexiconError) as info:
        load_lexicon(path)
    assert str(info.value) == f"{path}:2: unknown category {raw!r}"


def test_load_accepts_every_category_digit_and_name_in_any_case(tmp_path):
    rows = {}
    for category in Category:
        spellings = (str(category.value), category.name.lower(), category.name, category.name.title(), f" {category.value} ")
        for spelling, suffix in zip(spellings, "甲乙丙丁戊"):
            rows[f"骂{'一二三四五'[category.value - 1]}{suffix}"] = (spelling, category)
    path = tmp_path / "lex.tsv"
    path.write_text("".join(f"{term}\t{raw}\tExplicit\tNONE\n" for term, (raw, _) in rows.items()), encoding="utf-8")
    lex = load_lexicon(path)
    assert {e.term: e.category for e in lex} == {term: category for term, (_, category) in rows.items()}
    assert {(e.surface, e.rule_tag) for e in lex} == {(Surface.EXPLICIT, RuleTag.NONE)}
