"""Sample schema, label-hierarchy validation, splitting and statistics.

Labels form a four-level hierarchy: is the comment toxic; if toxic, is it
general offense or hate speech; if hate, which groups are attacked (one or
more) and through which expression (explicit, implicit, or reporting).
Offensive (non-hate) samples carry no group or expression fields: their
expression is by definition explicit, so storing it adds nothing.

Corpus files are UTF-8 JSON Lines.  Line 1 is a header object
``{"toxicn_schema": 1}``; each following line is one sample object with
keys id, platform, topic, text, toxic, hate, groups, expression.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass
from enum import Enum
from itertools import chain, combinations
from pathlib import Path
from typing import Iterable, Iterator, Sequence

SCHEMA_KEY = "toxicn_schema"
SCHEMA_VERSION = 1


class CorpusError(ValueError):
    """Malformed record, file, or label combination."""


class Platform(str, Enum):
    ZHIHU = "zhihu"
    TIEBA = "tieba"


class Topic(str, Enum):
    GENDER = "gender"
    RACE = "race"
    REGION = "region"
    LGBTQ = "lgbtq"


class TargetGroup(str, Enum):
    SEXISM = "sexism"
    RACISM = "racism"
    REGIONAL_BIAS = "regional_bias"
    ANTI_LGBTQ = "anti_lgbtq"


class Expression(str, Enum):
    EXPLICIT = "explicit"
    IMPLICIT = "implicit"
    REPORTING = "reporting"


@dataclass(frozen=True)
class ToxiSample:
    """One labeled comment. Immutable; safe to share across workers."""

    id: int
    platform: Platform
    topic: Topic
    text: str
    toxic: int
    hate: int
    groups: frozenset[TargetGroup]
    expression: Expression | None


@dataclass(frozen=True)
class SplitSpec:
    """Train/test split settings.

    Train size is round-half-up(train_ratio * N) per stratum.  Without
    ``stratify`` the whole corpus is one stratum.  With it each (toxic,
    hate) pair is a stratum, so class balance is preserved exactly;
    per-stratum rounding may then shift the overall train size by a
    sample or two.
    """

    train_ratio: float
    seed: int
    stratify: bool = False

    def __post_init__(self):
        if not 0.0 < self.train_ratio < 1.0:
            raise CorpusError(f"train_ratio must be in (0, 1), got {self.train_ratio}")
        if self.seed < 0:  # random.Random seeds by absolute value, so -1 would be 1's split
            raise CorpusError(f"split seed must be ≥ 0, got {self.seed}")


def validate_hierarchy(sample: ToxiSample) -> list[str]:
    """Return every violated hierarchy rule; empty list means valid."""
    violations = []
    if sample.hate == 1 and sample.toxic == 0:
        violations.append("hate requires toxic")
    if sample.toxic == 0 and sample.groups:
        violations.append("groups on non-toxic")
    if sample.toxic == 0 and sample.expression is not None:
        violations.append("expression on non-toxic")
    if sample.hate == 1 and not sample.groups:
        violations.append("hate requires targeted group")
    if sample.hate == 1 and sample.expression is None:
        violations.append("hate requires expression")
    if sample.toxic == 1 and sample.hate == 0 and sample.groups:
        violations.append("groups on offensive (non-hate) sample")
    if sample.toxic == 1 and sample.hate == 0 and sample.expression is not None:
        violations.append("expression on offensive (non-hate) sample")
    return violations


# a record's fields, in the order a missing one is reported
_FIELDS = ("id", "text", "platform", "topic", "toxic", "hate", "groups", "expression")
_FIELD_SET = frozenset(_FIELDS)
# a lone surrogate, such as JSON's "\ud800" decodes to, cannot be written as UTF-8
_LONE_SURROGATE = re.compile("[\ud800-\udfff]")


def _decode_flag(value, field: str, index: int) -> int:
    if isinstance(value, bool):
        value = int(value)
    if not isinstance(value, int) or value not in (0, 1):
        raise CorpusError(f"record {index}: field '{field}' must be 0 or 1, got {value!r}")
    return value


# each enum's value -> member, so decoding a record costs dict lookups, not enum calls
_MEMBERS = {cls: {e.value: e for e in cls} for cls in (Platform, Topic, TargetGroup, Expression)}
# every set of target groups, each mapped to itself, so that samples share one object per set
_GROUP_SETS = {
    groups: groups
    for groups in map(frozenset, chain.from_iterable(combinations(TargetGroup, k) for k in range(len(TargetGroup) + 1)))
}


def _decode_enum(value, what: str, enum_cls, index: int):
    try:
        return _MEMBERS[enum_cls][value]
    except (KeyError, TypeError):  # TypeError: an unhashable JSON array or object
        allowed = ", ".join(_MEMBERS[enum_cls])
        raise CorpusError(f"record {index}: {what} must be one of {allowed}, got {value!r}") from None


def parse_sample(record: dict, index: int = 0) -> ToxiSample:
    """Decode one JSON object into a validated ToxiSample.

    Unknown extra keys are ignored.  Empty ``groups`` / null ``expression``
    are normalized to absent.  Raises CorpusError naming the offending
    field and record index, or listing the violated hierarchy rules.
    """
    if not isinstance(record, dict):
        raise CorpusError(f"record {index}: expected a JSON object, got {type(record).__name__}")

    if not record.keys() >= _FIELD_SET:
        missing = next(field for field in _FIELDS if field not in record)
        raise CorpusError(f"record {index}: missing field '{missing}'")

    sample_id = record["id"]
    if not isinstance(sample_id, int) or isinstance(sample_id, bool) or sample_id < 0:
        raise CorpusError(f"record {index}: field 'id' must be a non-negative integer")
    text = record["text"]
    if not isinstance(text, str):
        raise CorpusError(f"record {index}: field 'text' must be a string")
    if (lone := _LONE_SURROGATE.search(text)) is not None:
        raise CorpusError(f"record {index}: field 'text' holds a lone surrogate at index {lone.start()}")

    platform = _decode_enum(record["platform"], "field 'platform'", Platform, index)
    topic = _decode_enum(record["topic"], "field 'topic'", Topic, index)
    toxic = _decode_flag(record["toxic"], "toxic", index)
    hate = _decode_flag(record["hate"], "hate", index)

    raw_groups = record["groups"]
    if not isinstance(raw_groups, list):
        raise CorpusError(f"record {index}: field 'groups' must be an array")
    groups = _GROUP_SETS[frozenset(_decode_enum(g, "field 'groups' entry", TargetGroup, index) for g in raw_groups)]

    raw_expr = record["expression"]
    expression = None
    if raw_expr not in (None, ""):
        expression = _decode_enum(raw_expr, "field 'expression' (if not null)", Expression, index)

    sample = ToxiSample(
        id=sample_id,
        platform=platform,
        topic=topic,
        text=text,
        toxic=toxic,
        hate=hate,
        groups=groups,
        expression=expression,
    )
    violations = validate_hierarchy(sample)
    if violations:
        raise CorpusError(f"record {index}: hierarchy violation: {'; '.join(violations)}")
    return sample


def sample_to_record(sample: ToxiSample) -> dict:
    """Serialize to the JSON Lines wire form (group names, not indices)."""
    return {
        "id": sample.id,
        "platform": sample.platform.value,
        "topic": sample.topic.value,
        "text": sample.text,
        "toxic": sample.toxic,
        "hate": sample.hate,
        "groups": sorted(g.value for g in sample.groups),
        "expression": sample.expression.value if sample.expression else None,
    }


def _decode(raw: bytes, path, lineno: int) -> str:
    """Line ``lineno`` of ``path`` as text; line 1 loses one leading byte-order mark."""
    try:
        line = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CorpusError(f"{path}:{lineno}: not UTF-8: {exc.reason} at byte {exc.start}") from None
    return line.removeprefix("\ufeff") if lineno == 1 else line


def read_lines(path: str | Path) -> Iterator[tuple[str, str]]:
    """Yield ("path:line", line) for each content line of a UTF-8 text file.

    The one reader of the line-oriented input files.  The file is streamed
    and split at each newline byte; each line is stripped of surrounding
    whitespace, and blank lines and lines starting with '#' are skipped.
    A line that is not UTF-8 raises CorpusError naming its path and line.
    """
    with Path(path).open("rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = _decode(raw, path, lineno).strip()
            if line and not line.startswith("#"):
                yield f"{path}:{lineno}", line


def _json_line(line: str, path: Path, lineno: int, what: str):
    """Decode one line of JSON; an error names ``path:lineno`` and the
    column within the line, its newline stripped."""
    try:
        return json.loads(line.rstrip("\r\n"))
    except json.JSONDecodeError as exc:
        raise CorpusError(f"{path}:{lineno}: {what}: {exc.msg} at column {exc.colno}") from None
    except (RecursionError, ValueError) as exc:  # ValueError: an integer over int()'s digit limit
        raise CorpusError(f"{path}:{lineno}: {what}: {exc}") from None


def iter_corpus_samples(path: str | Path) -> Iterator[ToxiSample | CorpusError]:
    """Yield each record of a corpus file as a ToxiSample, or as the
    CorpusError that rejects it.

    The header on line 1 is checked first.  Lines are streamed and decoded
    one at a time, as in ``read_lines``, but only blank lines are skipped:
    a JSONL line has no comment syntax.  A record that breaks the schema
    or the hierarchy, or repeats a sample id, is rejected with its path
    and line.  A missing header, a
    line that is not UTF-8 or not JSON raises instead, ending the file.
    """
    path = Path(path)
    seen: set[int] = set()
    with path.open("rb") as fh:
        first = _decode(fh.readline(), path, 1)
        if not first.strip():
            raise CorpusError(f"{path}: empty file, expected schema header")
        header = _json_line(first, path, 1, "malformed JSON header")
        if not isinstance(header, dict) or header.get(SCHEMA_KEY) != SCHEMA_VERSION:
            raise CorpusError(
                f"{path}: line 1 must be the header object {{\"{SCHEMA_KEY}\": {SCHEMA_VERSION}}}"
            )
        for lineno, raw in enumerate(fh, start=2):
            line = _decode(raw, path, lineno)
            if not line.strip():
                continue
            record = _json_line(line, path, lineno, "malformed JSON")
            index = lineno - 2
            try:
                sample = parse_sample(record, index=index)
            except CorpusError as exc:
                yield CorpusError(f"{path}:{lineno}: {exc}")
                continue
            if sample.id in seen:
                yield CorpusError(f"{path}:{lineno}: record {index}: duplicate id {sample.id}")
                continue
            seen.add(sample.id)
            yield sample


def iter_corpus(path: str | Path) -> Iterator[ToxiSample]:
    """Yield each sample of a corpus file, checking the schema header on line 1.

    Sample ids must be unique within the file.  The first rejected record
    raises its CorpusError (see ``iter_corpus_samples``).
    """
    for item in iter_corpus_samples(path):
        if isinstance(item, CorpusError):
            raise item
        yield item


def read_corpus(path: str | Path) -> list[ToxiSample]:
    """Every sample of a corpus file, as ``iter_corpus`` yields them."""
    return list(iter_corpus(path))


def write_jsonl(path: str | Path, rows: Iterable) -> None:
    """The one JSON Lines writer: each row on a line, as ``json.dumps(row, ensure_ascii=False)`` writes it."""
    encode = json.JSONEncoder(ensure_ascii=False).encode
    with Path(path).open("w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(encode(row) + "\n")


def write_corpus(path: str | Path, samples: Iterable[ToxiSample]) -> None:
    write_jsonl(path, chain([{SCHEMA_KEY: SCHEMA_VERSION}], map(sample_to_record, samples)))


def _round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


def split_dataset(
    corpus: Sequence[ToxiSample], spec: SplitSpec
) -> tuple[list[ToxiSample], list[ToxiSample]]:
    """Shuffle the corpus, then cut each stratum into (train, test) in
    sorted stratum order; deterministic per seed.  Without ``stratify`` the
    whole shuffled corpus is one stratum, so the cut is one prefix of it."""
    if len(corpus) < 2:
        raise CorpusError(f"cannot split a corpus of {len(corpus)} sample(s)")
    items = list(corpus)
    random.Random(spec.seed).shuffle(items)
    strata: dict[tuple[int, ...], list[ToxiSample]] = {}
    for sample in items:
        strata.setdefault((sample.toxic, sample.hate) if spec.stratify else (), []).append(sample)
    train: list[ToxiSample] = []
    test: list[ToxiSample] = []
    for _, members in sorted(strata.items()):
        k = _round_half_up(spec.train_ratio * len(members))
        train.extend(members[:k])
        test.extend(members[k:])
    return train, test


# the fields of a stats row, in the order stats.json writes them
_ROW_KEYS = ("non_toxic", "toxic", "offensive", "hate", "hate_explicit", "hate_implicit", "hate_reporting", "total", "avg_length")


def corpus_stats(corpus: Iterable[ToxiSample]) -> dict:
    """The ``stats.json`` payload: label counts and average text length per
    topic and overall, and the hate samples of each target group by expression.

    ``corpus`` may be any iterable, an iterator included; it is read once and
    only the counters are kept.  Every sample must pass validate_hierarchy;
    otherwise the offending ids, in input order, are collected into one
    CorpusError.
    """
    by_topic = {topic.value: dict.fromkeys(_ROW_KEYS, 0) for topic in Topic}
    group_expression = {group.value: dict.fromkeys((*(e.value for e in Expression), "total"), 0) for group in TargetGroup}
    bad = []
    for s in corpus:
        if validate_hierarchy(s):
            bad.append(s.id)
            continue
        row = by_topic[s.topic.value]
        row["avg_length"] += len(s.text)  # the character sum until the loop ends
        row["total"] += 1
        if not s.toxic:
            row["non_toxic"] += 1
            continue
        row["toxic"] += 1
        if not s.hate:
            row["offensive"] += 1
            continue
        row["hate"] += 1
        row["hate_" + s.expression.value] += 1
        for group in s.groups:
            group_expression[group.value][s.expression.value] += 1
            group_expression[group.value]["total"] += 1
    if bad:
        raise CorpusError(f"invalid samples (hierarchy violations): ids {bad}")
    overall = {key: sum(row[key] for row in by_topic.values()) for key in _ROW_KEYS}
    for row in (*by_topic.values(), overall):
        row["avg_length"] = row["avg_length"] / row["total"] if row["total"] else 0.0
    return {"by_topic": by_topic, "overall": overall, "group_expression": group_expression}
