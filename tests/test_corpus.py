import itertools
import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synthcorpus import labeled_corpus
from toxikit.corpus import (
    CorpusError,
    Expression,
    Platform,
    SplitSpec,
    TargetGroup,
    Topic,
    ToxiSample,
    corpus_stats,
    parse_sample,
    read_corpus,
    read_lines,
    sample_to_record,
    split_dataset,
    validate_hierarchy,
    write_corpus,
    write_jsonl,
)


def make(i=0, text="样本文本", toxic=0, hate=0, groups=(), expression=None, topic=Topic.GENDER):
    return ToxiSample(
        id=i,
        platform=Platform.ZHIHU,
        topic=topic,
        text=text,
        toxic=toxic,
        hate=hate,
        groups=frozenset(groups),
        expression=expression,
    )


# ---------------------------------------------------------------- hierarchy

def test_offensive_sample_is_valid():
    assert validate_hierarchy(make(toxic=1)) == []


def test_hate_without_group():
    sample = make(toxic=1, hate=1, expression=Expression.EXPLICIT)
    assert "hate requires targeted group" in validate_hierarchy(sample)


def test_expression_on_non_toxic():
    sample = make(expression=Expression.REPORTING)
    assert "expression on non-toxic" in validate_hierarchy(sample)


def test_all_violations_reported_not_just_first():
    sample = make(toxic=0, hate=1, groups=(), expression=None)
    found = validate_hierarchy(sample)
    assert "hate requires toxic" in found
    assert "hate requires targeted group" in found
    assert "hate requires expression" in found


def test_legal_label_tuples_match_bruteforce_enumeration():
    """Enumerate every (toxic, hate, groups, expression) combination and
    compare the validator's verdict with the frame spelled out directly:
    non-toxic (1 tuple), offensive (1), hate = any non-empty group set
    with any expression (15 × 3)."""
    group_subsets = [
        frozenset(c)
        for r in range(len(TargetGroup) + 1)
        for c in itertools.combinations(TargetGroup, r)
    ]
    expressions = [None, *Expression]
    legal = set()
    checked = 0
    for toxic, hate, groups, expr in itertools.product((0, 1), (0, 1), group_subsets, expressions):
        checked += 1
        sample = make(toxic=toxic, hate=hate, groups=groups, expression=expr)
        expected_legal = (
            (toxic == 0 and hate == 0 and not groups and expr is None)
            or (toxic == 1 and hate == 0 and not groups and expr is None)
            or (toxic == 1 and hate == 1 and bool(groups) and expr is not None)
        )
        assert (validate_hierarchy(sample) == []) == expected_legal
        if expected_legal:
            legal.add((toxic, hate, groups, expr))
    assert checked == 2 * 2 * 16 * 4
    assert len(legal) == 1 + 1 + 15 * 3


# ---------------------------------------------------------------- parsing

def _record(**overrides):
    base = {
        "id": 7,
        "platform": "tieba",
        "topic": "race",
        "text": "一些文字",
        "toxic": 1,
        "hate": 1,
        "groups": ["racism"],
        "expression": "implicit",
    }
    base.update(overrides)
    return base


def test_parse_roundtrip():
    sample = parse_sample(_record())
    assert sample.groups == frozenset({TargetGroup.RACISM})
    assert sample.expression is Expression.IMPLICIT
    assert parse_sample(sample_to_record(sample)) == sample


def test_parse_normalizes_empty_to_absent():
    record = _record(toxic=1, hate=0, groups=[], expression="")
    sample = parse_sample(record)
    assert sample.groups == frozenset() and sample.expression is None


def test_samples_with_the_same_groups_share_one_set():
    both = ["sexism", "racism"]
    a, b = parse_sample(_record(groups=both)), parse_sample(_record(groups=both[::-1] + both))
    assert a.groups == frozenset({TargetGroup.SEXISM, TargetGroup.RACISM}) and a.groups is b.groups
    clean = _record(toxic=0, hate=0, groups=[], expression=None)
    assert parse_sample(clean).groups is parse_sample(dict(clean, id=8)).groups


def test_parse_errors_name_field_and_record():
    for field in _record():
        with pytest.raises(CorpusError, match=rf"^record 3: missing field '{field}'$"):
            parse_sample({k: v for k, v in _record().items() if k != field}, index=3)
    # a missing field is reported before a bad value in a field checked earlier
    with pytest.raises(CorpusError, match=r"^record 3: missing field 'text'$"):
        parse_sample({k: v for k, v in _record(id=-1).items() if k != "text"}, index=3)
    with pytest.raises(CorpusError, match="record 0: field 'toxic'"):
        parse_sample(_record(toxic=2))
    with pytest.raises(CorpusError, match="record 5: hierarchy violation"):
        parse_sample(_record(hate=1, groups=[]), index=5)


@pytest.mark.parametrize(
    "overrides,field,enum_cls,bad",
    [
        ({"platform": "weibo"}, "field 'platform'", Platform, "weibo"),
        ({"topic": "religion"}, "field 'topic'", Topic, "religion"),
        ({"groups": ["racism", "women"]}, "field 'groups' entry", TargetGroup, "women"),
        ({"expression": "sarcastic"}, "field 'expression' (if not null)", Expression, "sarcastic"),
        # a JSON array or object cannot be a dict key; it is refused like any other bad value
        ({"platform": ["zhihu"]}, "field 'platform'", Platform, ["zhihu"]),
        ({"topic": {"race": 1}}, "field 'topic'", Topic, {"race": 1}),
        ({"groups": [["racism"]]}, "field 'groups' entry", TargetGroup, ["racism"]),
        ({"expression": {"implicit": True}}, "field 'expression' (if not null)", Expression, {"implicit": True}),
    ],
    ids=["platform", "topic", "groups", "expression",
         "platform-array", "topic-object", "groups-entry-array", "expression-object"],
)
def test_enum_errors_name_field_allowed_values_and_value(overrides, field, enum_cls, bad):
    with pytest.raises(CorpusError) as info:
        parse_sample(_record(**overrides), index=4)
    allowed = ", ".join(e.value for e in enum_cls)
    assert str(info.value) == f"record 4: {field} must be one of {allowed}, got {bad!r}"


def test_lone_surrogate_in_text_refused_with_its_index():
    for text, at in (("\ud800甲", 0), ("甲乙\udfff", 2), ("甲\udc00\ud83d", 1)):
        with pytest.raises(CorpusError, match=rf"^record 2: field 'text' holds a lone surrogate at index {at}$"):
            parse_sample(_record(text=text), index=2)
    # a JSON surrogate pair decodes to one astral character, which is kept
    pair = json.loads('"\\ud83d\\ude00甲"')
    assert pair == "\U0001F600甲"
    assert parse_sample(_record(text=pair)).text == pair


def test_bool_not_accepted_as_id():
    with pytest.raises(CorpusError, match="field 'id'"):
        parse_sample(_record(id=True))


# ---------------------------------------------------------------- files

def _tiny_corpus():
    return [
        make(1, text="第一条", toxic=0),
        make(2, text="第二条骂人", toxic=1),
        make(
            3,
            text="第三条",
            toxic=1,
            hate=1,
            groups=(TargetGroup.SEXISM, TargetGroup.RACISM),
            expression=Expression.REPORTING,
            topic=Topic.RACE,
        ),
    ]


def test_file_roundtrip_and_stability(tmp_path):
    path = tmp_path / "c.jsonl"
    write_corpus(path, _tiny_corpus())
    loaded = read_corpus(path)
    assert loaded == _tiny_corpus()
    again = tmp_path / "c2.jsonl"
    write_corpus(again, loaded)
    assert path.read_bytes() == again.read_bytes()
    crlf = tmp_path / "crlf.jsonl"
    crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    assert read_corpus(crlf) == _tiny_corpus()


def test_labeled_corpus_round_trips(tmp_path):
    corpus = labeled_corpus(300, seed=5)
    write_corpus(tmp_path / "c.jsonl", corpus)
    assert read_corpus(tmp_path / "c.jsonl") == corpus


_JSON_TEXT = st.text(st.sampled_from('甲骂😀"\\\x00\x1f\x7f\n\r\t\u2028 a') | st.characters(codec="utf-8"), max_size=12)
_JSON_VALUES = st.recursive(
    st.none() | st.integers() | _JSON_TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_JSON_TEXT, inner, max_size=4),
    max_leaves=12,
)


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(_JSON_VALUES, max_size=6))
def test_write_jsonl_writes_json_dumps_lines(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("jsonl") / "rows.jsonl"
    write_jsonl(path, iter(rows))
    expected = "".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows)
    assert path.read_bytes() == expected.encode("utf-8")


def test_header_required(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps(sample_to_record(make())) + "\n", encoding="utf-8")
    with pytest.raises(CorpusError, match="line 1"):
        read_corpus(path)
    path.write_text("", encoding="utf-8")
    with pytest.raises(CorpusError, match="empty file"):
        read_corpus(path)


def test_malformed_line_reports_lineno(tmp_path):
    path = tmp_path / "c.jsonl"
    # the column points into the line itself, not past its newline
    unquoted = "Expecting property name enclosed in double quotes"
    path.write_text('{"toxicn_schema": 1}\n{not json\n', encoding="utf-8")
    with pytest.raises(CorpusError, match=rf"c\.jsonl:2: malformed JSON: {unquoted} at column 2$"):
        read_corpus(path)
    path.write_text('{"toxicn_schema": 1}\n{"id": 1,\r\n', encoding="utf-8")
    with pytest.raises(CorpusError, match=rf"c\.jsonl:2: malformed JSON: {unquoted} at column 10$"):
        read_corpus(path)
    path.write_text('{"toxicn_schema": 1,\n', encoding="utf-8")
    with pytest.raises(CorpusError, match=rf"c\.jsonl:1: malformed JSON header: {unquoted} at column 21$"):
        read_corpus(path)
    record = json.dumps(sample_to_record(make()))
    path.write_text('{"toxicn_schema": 1}\n' + record + "\r" + record + "\n", encoding="utf-8")
    extra = rf"c\.jsonl:2: malformed JSON: Extra data at column {len(record) + 2}$"
    with pytest.raises(CorpusError, match=extra):  # a lone CR ends no line
        read_corpus(path)
    path.write_text('{"toxicn_schema": 1}\n{"id": ' + "9" * 5000 + "}\n", encoding="utf-8")
    with pytest.raises(CorpusError, match=r"c\.jsonl:2: malformed JSON: Exceeds the limit \(4300 digits\)"):
        read_corpus(path)
    path.write_text('{"toxicn_schema": 1}\n' + "[" * 100_000 + "\n", encoding="utf-8")
    with pytest.raises(CorpusError, match=r"c\.jsonl:2: malformed JSON: maximum recursion depth"):
        read_corpus(path)
    path.write_bytes(b'{"toxicn_schema": 1}\n\n"\xff"\n')
    with pytest.raises(CorpusError, match=r"c\.jsonl:3: not UTF-8: invalid start byte at byte 1"):
        read_corpus(path)


def test_read_lines_one_rule_for_every_line_oriented_file(tmp_path):
    path = tmp_path / "side.txt"
    path.write_bytes(
        b"# comment\r\n"
        b"  # indented comment\n"
        b"\n"
        b" \t \r\n"
        b"  a b\t\r\n"  # surrounding whitespace goes, inner whitespace stays
        + "甲\x0b乙\u2028丙\x1c丁\r戊\n".encode()  # split at newline bytes only
        + b"last"  # no final newline
    )
    assert list(read_lines(path)) == [
        (f"{path}:5", "a b"),
        (f"{path}:6", "甲\x0b乙\u2028丙\x1c丁\r戊"),
        (f"{path}:7", "last"),
    ]
    path.write_bytes("一\n二\n".encode() + b"\xe4\xb8\n")  # a character cut short
    lines = read_lines(path)
    assert next(lines) == (f"{path}:1", "一")
    assert next(lines) == (f"{path}:2", "二")
    with pytest.raises(CorpusError, match=rf"^{re.escape(str(path))}:3: not UTF-8: "):
        next(lines)


# ---------------------------------------------------------------- split

def _corpus_of(n, seed=0):
    rng = random.Random(seed)
    out = []
    for i in range(n):
        toxic = rng.random() < 0.5
        hate = toxic and rng.random() < 0.5
        out.append(
            make(
                i,
                toxic=int(toxic),
                hate=int(hate),
                groups=(TargetGroup.SEXISM,) if hate else (),
                expression=Expression.EXPLICIT if hate else None,
            )
        )
    return out


def test_split_sizes_round_half_up():
    train, test = split_dataset(_corpus_of(5), SplitSpec(train_ratio=0.8, seed=1))
    assert (len(train), len(test)) == (4, 1)
    train, test = split_dataset(_corpus_of(12_011), SplitSpec(train_ratio=0.8, seed=1))
    assert (len(train), len(test)) == (9_609, 2_402)
    # banker's rounding would give 2 here; half always rounds up
    train, test = split_dataset(_corpus_of(5), SplitSpec(train_ratio=0.5, seed=1))
    assert (len(train), len(test)) == (3, 2)


def test_split_deterministic_and_seed_sensitive():
    corpus = _corpus_of(10)
    spec = SplitSpec(train_ratio=0.8, seed=3)
    assert split_dataset(corpus, spec) == split_dataset(corpus, spec)
    other = split_dataset(corpus, SplitSpec(train_ratio=0.8, seed=4))
    assert [s.id for s in other[0]] != [s.id for s in split_dataset(corpus, spec)[0]]


def test_plain_split_is_the_cut_of_one_seeded_shuffle():
    """Without stratify, train is the first round-half-up(ratio·n) samples of
    random.Random(seed)'s shuffle of the corpus, and test is the rest."""
    for n, ratio, seed in ((2, 0.5, 0), (5, 0.5, 1), (10, 0.8, 3), (37, 0.7, 11), (200, 0.9, 5)):
        corpus = _corpus_of(n, seed=seed)
        items = list(corpus)
        random.Random(seed).shuffle(items)
        k = int(ratio * n + 0.5)
        assert split_dataset(corpus, SplitSpec(train_ratio=ratio, seed=seed)) == (items[:k], items[k:])


def test_split_partitions_1000_random_corpora():
    rng = random.Random(11)
    for trial in range(1_000):
        n = rng.randint(2, 24)
        corpus = _corpus_of(n, seed=trial)
        spec = SplitSpec(
            train_ratio=rng.choice((0.5, 0.7, 0.8, 0.9)),
            seed=rng.randint(0, 99),
            stratify=rng.random() < 0.5,
        )
        train, test = split_dataset(corpus, spec)
        train_ids = {s.id for s in train}
        test_ids = {s.id for s in test}
        assert train_ids | test_ids == {s.id for s in corpus}
        assert not train_ids & test_ids
        assert len(train) + len(test) == n


def test_stratified_split_preserves_class_balance():
    corpus = _corpus_of(200, seed=9)
    train, test = split_dataset(corpus, SplitSpec(train_ratio=0.8, seed=5, stratify=True))
    for key in {(s.toxic, s.hate) for s in corpus}:
        members = sum(1 for s in corpus if (s.toxic, s.hate) == key)
        in_train = sum(1 for s in train if (s.toxic, s.hate) == key)
        assert in_train == int(0.8 * members + 0.5)


def test_split_rejects_tiny_corpus():
    with pytest.raises(CorpusError, match="cannot split"):
        split_dataset(_corpus_of(1), SplitSpec(train_ratio=0.8, seed=0))
    with pytest.raises(CorpusError, match="train_ratio"):
        split_dataset(_corpus_of(4), SplitSpec(train_ratio=1.0, seed=0))


def test_split_spec_rejects_negative_seed():
    # random.Random seeds by absolute value, so -1 would silently give seed 1's split
    with pytest.raises(CorpusError, match="split seed must be ≥ 0, got -1"):
        SplitSpec(train_ratio=0.8, seed=-1)


# ---------------------------------------------------------------- stats

def test_stats_identities():
    corpus = _corpus_of(300, seed=2)
    report = corpus_stats(corpus)
    for field in ("non_toxic", "toxic", "offensive", "hate", "hate_explicit", "total"):
        assert getattr(report.overall, field) == sum(
            getattr(row, field) for row in report.by_topic.values()
        )
    assert report.overall.toxic == report.overall.offensive + report.overall.hate
    assert report.overall.total == len(corpus)
    assert report.overall.hate == (
        report.overall.hate_explicit + report.overall.hate_implicit + report.overall.hate_reporting
    )


def test_stats_avg_length_and_empty():
    report = corpus_stats([make(1, text="十二三四"), make(2, text="五六")])
    assert report.overall.avg_length == 3.0
    empty = corpus_stats([])
    assert empty.overall.total == 0 and empty.overall.avg_length == 0.0


def test_stats_group_expression_counts_multilabel():
    corpus = [
        make(
            1,
            toxic=1,
            hate=1,
            groups=(TargetGroup.SEXISM, TargetGroup.RACISM),
            expression=Expression.EXPLICIT,
        ),
        make(2, toxic=1, hate=1, groups=(TargetGroup.SEXISM,), expression=Expression.IMPLICIT),
    ]
    report = corpus_stats(corpus)
    sexism = report.group_expression[TargetGroup.SEXISM]
    assert (sexism.explicit, sexism.implicit, sexism.reporting, sexism.total) == (1, 1, 0, 2)
    racism = report.group_expression[TargetGroup.RACISM]
    assert (racism.explicit, racism.total) == (1, 1)


def test_stats_rejects_invalid_samples_listing_ids():
    bad = make(9, toxic=0, hate=1)
    with pytest.raises(CorpusError, match=r"ids \[9\]"):
        corpus_stats([make(1), bad])
