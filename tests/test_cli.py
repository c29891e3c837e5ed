import argparse
import base64
import json
import math
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from oracles import naive_candidates
from synthcorpus import labeled_corpus, separable_corpus
from toxikit import cli
from toxikit.classifier import (
    ClassifierError,
    Task,
    TkeConfig,
    Vocab,
    eligible_samples,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from toxikit.cli import EXIT_CHECK, EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from toxikit.corpus import (
    SCHEMA_KEY,
    SCHEMA_VERSION,
    Platform,
    Topic,
    ToxiSample,
    read_corpus,
    read_lines,
    sample_to_record,
    write_corpus,
)
from toxikit.lexicon import load_lexicon
from toxikit.pseudolabel import PseudoLabel, iterate_to_fixpoint
from toxikit.resources import lexicon_path
from toxikit.variants import PinyinTable


@pytest.fixture
def corpus_file(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_corpus(path, labeled_corpus(40, seed=2))
    return path


# ---------------------------------------------------------------- exit codes

def test_usage_errors_exit_1(capsys):
    assert main([]) == EXIT_USAGE
    assert main(["normalize"]) == EXIT_USAGE  # missing --in/--out
    assert main(["derive", "--term", "x", "--rule", "nonsense"]) == EXIT_USAGE
    capsys.readouterr()


def test_missing_file_exits_2(tmp_path, capsys):
    out = tmp_path / "out.jsonl"
    assert main(["normalize", "--in", str(tmp_path / "nope.jsonl"), "--out", str(out)]) == EXIT_DATA
    assert "error:" in capsys.readouterr().err


def test_bad_record_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        '{"toxicn_schema": 1}\n{"id": 1, "platform": "zhihu", "topic": "race", "text": "字",'
        ' "toxic": 0, "hate": 1, "groups": [], "expression": null}\n',
        encoding="utf-8",
    )
    assert main(["stats", "--in", str(path)]) == EXIT_DATA
    capsys.readouterr()


# ---------------------------------------------------------------- normalize

def test_normalize_summary_and_output(tmp_path, capsys):
    samples = [
        ToxiSample(1, Platform.ZHIHU, Topic.RACE, "@某人 你好呀朋友", 0, 0, frozenset(), None),
        ToxiSample(2, Platform.ZHIHU, Topic.RACE, "你好呀朋友", 0, 0, frozenset(), None),
        ToxiSample(3, Platform.ZHIHU, Topic.RACE, "嗯", 0, 0, frozenset(), None),
        ToxiSample(4, Platform.ZHIHU, Topic.RACE, "另一条不同的文本", 0, 0, frozenset(), None),
    ]
    infile = tmp_path / "raw.jsonl"
    write_corpus(infile, samples)
    out = tmp_path / "clean.jsonl"
    assert main(["normalize", "--in", str(infile), "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "kept=2 dropped_brief=1 dropped_dup=1"

    kept = read_corpus(out)
    assert [s.id for s in kept] == [1, 4]
    assert kept[0].text == "你好呀朋友"


def test_normalize_exclude_list(tmp_path, capsys):
    samples = [
        ToxiSample(1, Platform.ZHIHU, Topic.RACE, "广告广告广告", 0, 0, frozenset(), None),
        ToxiSample(2, Platform.ZHIHU, Topic.RACE, "正常的文本啊", 0, 0, frozenset(), None),
    ]
    infile = tmp_path / "raw.jsonl"
    write_corpus(infile, samples)
    exclude = tmp_path / "ads.txt"
    exclude.write_text("1\n", encoding="utf-8")
    out = tmp_path / "clean.jsonl"
    assert main(
        ["normalize", "--in", str(infile), "--out", str(out), "--exclude", str(exclude)]
    ) == EXIT_OK
    assert "kept=1" in capsys.readouterr().out

    exclude.write_text("1\n\nad-7\n", encoding="utf-8")
    assert main(
        ["normalize", "--in", str(infile), "--out", str(out), "--exclude", str(exclude)]
    ) == EXIT_DATA
    assert f"{exclude}:3: expected an integer, got 'ad-7'" in capsys.readouterr().err

    exclude.write_text("# ads\n1\n", encoding="utf-8")  # '#' lines are comments
    assert main(
        ["normalize", "--in", str(infile), "--out", str(out), "--exclude", str(exclude)]
    ) == EXIT_OK
    assert "kept=1" in capsys.readouterr().out


@pytest.mark.parametrize("min_chars", ["0", "-2", "x"])
def test_normalize_min_chars_below_one_is_a_usage_error(tmp_path, capsys, min_chars):
    samples = [
        ToxiSample(1, Platform.ZHIHU, Topic.RACE, "https://example.com/a", 0, 0, frozenset(), None),
        ToxiSample(2, Platform.ZHIHU, Topic.RACE, "正常的文本啊", 0, 0, frozenset(), None),
    ]
    infile = tmp_path / "raw.jsonl"
    write_corpus(infile, samples)
    out = tmp_path / "clean.jsonl"
    argv = ["normalize", "--in", str(infile), "--out", str(out), "--min-chars"]
    assert main(argv + [min_chars]) == EXIT_USAGE
    assert "--min-chars" in capsys.readouterr().err
    assert not out.exists()
    assert main(argv + ["1"]) == EXIT_OK  # the URL cleans to "" and is dropped as brief
    assert capsys.readouterr().out.strip() == "kept=1 dropped_brief=1 dropped_dup=0"


def test_normalize_rejects_duplicate_ids(tmp_path, capsys):
    samples = [
        ToxiSample(i, Platform.ZHIHU, Topic.RACE, "同一条文本内容", 0, 0, frozenset(), None)
        for i in (1, 1, 2)
    ]
    infile = tmp_path / "raw.jsonl"
    write_corpus(infile, samples)
    out = tmp_path / "clean.jsonl"
    assert main(["normalize", "--in", str(infile), "--out", str(out)]) == EXIT_DATA
    captured = capsys.readouterr()
    assert f"{infile}:3: record 1: duplicate id 1" in captured.err
    assert captured.out == ""
    assert not out.exists()


# ---------------------------------------------------------------- match / derive

def test_match_writes_jsonl(tmp_path, corpus_file, capsys):
    out = tmp_path / "matches.jsonl"
    assert main(["match", "--in", str(corpus_file), "--out", str(out)]) == EXIT_OK
    rows = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
    assert len(rows) == 40
    flagged = [r for r in rows if r["matches"]]
    assert flagged, "synthetic corpus plants lexicon terms in toxic texts"
    first = flagged[0]["matches"][0]
    assert set(first) == {"start", "end", "term", "category"}
    capsys.readouterr()


def test_match_reads_the_lexicon_under_toxikit_resources(tmp_path, capsys, monkeypatch):
    resource_dir = tmp_path / "resources"
    resource_dir.mkdir()
    (resource_dir / "lexicon.tsv").write_text("某词\tgeneral\texplicit\tnone\n", encoding="utf-8")
    bundled_term = next(iter(load_lexicon(lexicon_path()))).term
    infile = tmp_path / "corpus.jsonl"
    write_corpus(infile, [replace(labeled_corpus(1, seed=2)[0], text=f"甲{bundled_term}乙某词丙")])
    out = tmp_path / "matches.jsonl"
    monkeypatch.setenv("TOXIKIT_RESOURCES", str(resource_dir))
    assert main(["match", "--in", str(infile), "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    rows = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
    assert [(m["term"], m["category"]) for m in rows[0]["matches"]] == [("某词", "general")]


def test_derive_outputs(capsys):
    assert main(["derive", "--term", "同性恋", "--rule", "abbreviation"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "txl"

    assert main(["derive", "--term", "南蛮", "--rule", "homophonic", "--pool", "满"]) == EXIT_OK
    assert "南满\t蛮→满" in capsys.readouterr().out

    assert main(["derive", "--term", "默", "--rule", "deformation"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "黑+犬"

    assert main(["derive", "--term", "黑犬", "--rule", "deformation"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "默"

    assert main(["derive", "--term", "ni哥", "--rule", "code_mixing"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "mixed=true runs=latin:ni cjk:哥"


def test_derive_homophonic_requires_pool(capsys):
    for pool in ([], ["--pool", ""], ["--pool="]):
        assert main(["derive", "--term", "南蛮", "--rule", "homophonic", *pool]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage: toxikit derive")
        assert "toxikit derive: error: argument --pool: " in err and "Traceback" not in err


# ---------------------------------------------------------------- pseudolabel / validate / stats

def test_pseudolabel_end_to_end(tmp_path, capsys):
    texts = ["骂蛆一句", "骂蛆两句", "骂蛆三句", "骂蛆四句", "蛆虫飞呀", "蛆虫爬呀"]
    samples = [
        ToxiSample(i, Platform.ZHIHU, Topic.RACE, t, 0, 0, frozenset(), None)
        for i, t in enumerate(texts)
    ]
    infile = tmp_path / "c.jsonl"
    write_corpus(infile, samples)
    lexfile = tmp_path / "seed.tsv"
    lexfile.write_text("骂\tgeneral\texplicit\tnone\n", encoding="utf-8")
    accept = tmp_path / "accept.txt"
    accept.write_text("蛆\n虫\n", encoding="utf-8")
    labels = tmp_path / "labels.jsonl"
    report = tmp_path / "cand.tsv"
    code = main(
        [
            "pseudolabel", "--lexicon", str(lexfile), "--in", str(infile),
            "--accept", str(accept), "--out", str(labels), "--report", str(report),
            "--min-freq", "2", "--min-score", "1.5",
        ]
    )
    assert code == EXIT_OK
    assert "iterations=3 toxic=6 non_toxic=0 added=2" in capsys.readouterr().out
    rows = [json.loads(line) for line in labels.read_text(encoding="utf-8").splitlines()]
    assert all(r["pseudo_label"] == "toxic" for r in rows)
    assert report.read_text(encoding="utf-8").startswith("term\ttoxic_freq\tclean_freq\tscore")


def test_pseudolabel_streams_its_read_but_writes_nothing_after_a_bad_record(tmp_path, capsys, corpus_file):
    # the last record repeats the first one's id: the read fails after 40 good samples
    lines = corpus_file.read_text(encoding="utf-8").splitlines()
    corpus_file.write_text("\n".join(lines + [lines[1]]) + "\n", encoding="utf-8")
    labels, report = tmp_path / "labels.jsonl", tmp_path / "cand.tsv"
    argv = ["pseudolabel", "--in", str(corpus_file), "--out", str(labels), "--report", str(report)]
    assert main(argv) == EXIT_DATA
    assert f"{corpus_file}:{len(lines) + 1}: record {len(lines) - 1}: duplicate id" in capsys.readouterr().err
    assert not labels.exists() and not report.exists()


def test_pseudolabel_report_is_the_final_rounds_candidates(tmp_path, capsys):
    samples = labeled_corpus(200, seed=11)
    infile = tmp_path / "c.jsonl"
    write_corpus(infile, samples)
    pairs = [(s.id, s.text) for s in samples]
    grams = sorted({text[i:i + 2] for _, text in pairs for i in range(len(text) - 1)})
    accept = tmp_path / "accept.txt"
    accept.write_text("\n".join(grams) + "\n", encoding="utf-8")
    report = tmp_path / "cand.tsv"
    argv = ["pseudolabel", "--in", str(infile), "--accept", str(accept), "--out", str(tmp_path / "labels.jsonl"),
            "--report", str(report), "--min-score", "2.0"]
    assert main(argv) == EXIT_OK
    assert "iterations=3 " in capsys.readouterr().out

    final = iterate_to_fixpoint(pairs, load_lexicon(lexicon_path()), grams, min_freq=3, min_score=2.0)
    docs = [
        (row.pseudo_label is PseudoLabel.TOXIC, text, [(m.start, m.end) for m in row.matches])
        for row, (_, text) in zip(final.labels, pairs)
    ]
    expected = naive_candidates(docs, {e.term for e in final.lexicon}, 3, 2.0, 4)
    rows = [line.split("\t") for line in report.read_text(encoding="utf-8").splitlines()[1:]]
    assert expected and [row[0] for row in rows] == [term for term, *_ in expected]
    assert [(int(row[1]), int(row[2])) for row in rows] == [(tf, cf) for _, tf, cf, _ in expected]


def test_pseudolabel_max_n_below_one_is_a_usage_error(tmp_path, capsys):
    # rejected while parsing the flags, before the corpus is read
    argv = ["pseudolabel", "--in", str(tmp_path / "absent.jsonl"), "--out", str(tmp_path / "labels.jsonl")]
    assert main(argv + ["--max-n", "0"]) == EXIT_USAGE
    assert "--max-n" in capsys.readouterr().err
    assert main(argv + ["--max-n", "two"]) == EXIT_USAGE
    assert "--max-n" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag,value", [("--min-score", "nan"), ("--min-score", "inf"), ("--min-score", "-inf"), ("--min-score", "x"),
                   ("--min-freq", "-1"), ("--min-freq", "1.5")],
)
def test_pseudolabel_bad_thresholds_are_usage_errors(tmp_path, capsys, flag, value):
    # a NaN --min-score used to admit nothing and exit 0: a silent wrong answer
    argv = ["pseudolabel", "--in", str(tmp_path / "absent.jsonl"), "--out", str(tmp_path / "labels.jsonl")]
    assert main(argv + [f"{flag}={value}"]) == EXIT_USAGE
    assert flag in capsys.readouterr().err


def _reader_argv(kind: str, path, corpus_file, out) -> list[str]:
    """argv of the command that reads ``path`` as an input file of the given kind."""
    path, corpus, folder = str(path), str(corpus_file), str(Path(path).parent)
    return {
        "pseudolabel": ["pseudolabel", "--in", corpus, "--accept", path, "--out", out],
        "normalize": ["normalize", "--in", corpus, "--exclude", path, "--out", out],
        "match": ["match", "--lexicon", path, "--in", corpus, "--out", out],
        "derive-pinyin": ["derive", "--term", "南蛮", "--rule", "abbreviation", "--resources", folder],
        "derive-glyph": ["derive", "--term", "默", "--rule", "deformation", "--resources", folder],
        "train": ["train", "--config", path, "--task", "toxic", "--in", corpus, "--out", out],
        "kappa": ["kappa", "--in", path],
        "validate": ["validate", "--in", path],
        "stats": ["stats", "--in", path],
        "eval": ["eval", "--model", path, "--test", corpus],
    }[kind]


_READERS = ["pseudolabel", "normalize", "match", "derive-pinyin", "derive-glyph", "train", "kappa", "validate",
            "stats", "eval"]
_READER_FILE = {"derive-pinyin": "pinyin.tsv", "derive-glyph": "glyph.tsv"}


@pytest.mark.parametrize("command", _READERS)
def test_non_utf8_side_file_names_the_file(tmp_path, capsys, corpus_file, command):
    side = tmp_path / _READER_FILE.get(command, "side.txt")
    if command in ("validate", "stats"):  # a bad byte after 40 good records
        side.write_bytes(corpus_file.read_bytes() + b"\xff\n")
    else:
        side.write_bytes(b"\xff\xfe1\n")
    assert main(_reader_argv(command, side, corpus_file, str(tmp_path / "out.jsonl"))) == EXIT_DATA
    last_line = len(side.read_bytes().splitlines())  # the bad one
    where = str(side) if command == "eval" else f"{side}:{last_line}"
    assert f"error: {where}: not UTF-8" in capsys.readouterr().err


# arbitrary bytes, and byte strings spliced from fragments of every input format
_FRAGMENTS = [b"\n", b"\r\n", b"\t", b" ", b"#", b"=", b",", b"+", b"0", b"1", b"2", b"-1", b"\xff", b"\xe9",
              "骂南蛮默".encode(), b"general", b"explicit", b"none", b"task", b"toxic", b"d", b'{"toxicn_schema": 1}',
              b"{", b"}", b"[", b"]", b'"', b":", b"null"]
_FUZZ_BYTES = st.binary(max_size=200) | st.lists(st.sampled_from(_FRAGMENTS), max_size=40).map(b"".join)


@pytest.mark.parametrize("kind", _READERS)
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=_FUZZ_BYTES)
@example(data=b"[" * 100_000)  # JSON nested past the recursion limit
@example(data=(b"9" * 400 + b"\t0\n") * 2)  # counts too large for a float
def test_every_reader_exits_0_or_2_on_arbitrary_bytes(tmp_path, corpus_file, kind, data):
    path = tmp_path / _READER_FILE.get(kind, "input")
    path.write_bytes(data)
    if kind == "train":  # the config is parsed only: a fuzzed d, h or epochs must not allocate or train
        args = cli.read_command_line(["train", "--in", "x", "--out", "y", "--config", str(path)])
        try:
            cli._assemble_config(args)
        except (ValueError, OSError):  # what main reports with exit 2
            pass
        return
    assert main(_reader_argv(kind, path, corpus_file, str(tmp_path / "out"))) in (EXIT_OK, EXIT_DATA)


def _pack(values) -> str:
    return base64.b64encode(np.asarray(values, dtype="<f4").tobytes()).decode("ascii")


def _unpack(data: str) -> np.ndarray:
    return np.frombuffer(base64.b64decode(data), "<f4")


def _checkpoint_paths(blob) -> dict[str, list[tuple]]:
    """The places in a saved checkpoint that the structure-aware fuzz may overwrite, by kind."""
    return {
        "top": [("version",), ("lexicon_sha256",), ("config",), ("vocab",), ("params",)],
        "config": [("config", key) for key in blob["config"]],
        "vocab": [("vocab",)],
        "params": [("params",)],
    }


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
_B64_TEXT_ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/="
_B64_TEXT = st.text(_B64_TEXT_ALPHABET, max_size=48)
_B64_BYTES = st.binary(max_size=96).map(lambda raw: base64.b64encode(raw).decode("ascii"))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(draw=st.data())
def test_checkpoint_fuzz_reaches_every_check(tmp_path, corpus_file, draw):
    cfg = TkeConfig(task=Task.TOXIC, d=2, h=3, pad_len=8)
    vocab = Vocab.build(["文字老黑很"])
    model = tmp_path / "model.json"
    save_checkpoint(model, init_params(len(vocab), cfg), cfg, vocab, load_lexicon(lexicon_path()))
    blob = json.loads(model.read_text(encoding="utf-8"))
    paths = _checkpoint_paths(blob)
    kind = draw.draw(st.sampled_from(sorted(paths)), label="kind")
    *parents, last = draw.draw(st.sampled_from(paths[kind]), label="path")
    target = blob
    for step in parents:
        target = target[step]
    value = _JSON | st.integers(-1, 8) | _B64_TEXT | _B64_BYTES
    if kind == "vocab":  # its own characters, one of them maybe twice or one more: the distinct check, the byte count
        chars = target[last]
        value |= st.text(st.sampled_from(chars + "甲"), min_size=len(chars) - 1, max_size=len(chars) + 1)
    if kind == "params":  # text of the blob's own length reaches the decoder; floats of its size, the finite check
        size = len(target[last])
        n = len(_unpack(target[last]))
        floats = st.floats(width=32) | st.sampled_from([math.nan, math.inf, -math.inf])
        value |= st.text(_B64_TEXT_ALPHABET, min_size=size, max_size=size)
        value |= st.lists(floats, min_size=n - 1, max_size=n + 1).map(_pack)
    target[last] = draw.draw(value, label="value")
    model.write_text(json.dumps(blob, ensure_ascii=False), encoding="utf-8")

    try:
        load_checkpoint(model)
    except ClassifierError as exc:
        assert str(exc).startswith(f"{model}: ")
    assert main(["eval", "--model", str(model), "--test", str(corpus_file)]) in (EXIT_OK, EXIT_DATA)


def test_validate_reports_each_bad_record(tmp_path, capsys):
    good = '{"id": 1, "platform": "zhihu", "topic": "race", "text": "字", "toxic": 0, "hate": 0, "groups": [], "expression": null}'
    bad1 = '{"id": 2, "platform": "zhihu", "topic": "race", "text": "字", "toxic": 0, "hate": 1, "groups": [], "expression": null}'
    bad2 = '{"id": 3, "platform": "zhihu", "topic": "race", "text": "字", "toxic": 1, "hate": 0, "groups": ["racism"], "expression": null}'
    path = tmp_path / "mixed.jsonl"
    path.write_text('{"toxicn_schema": 1}\n' + "\n".join([good, bad1, bad2]) + "\n", encoding="utf-8")
    assert main(["validate", "--in", str(path)]) == EXIT_DATA
    out = capsys.readouterr().out
    assert "record 1" in out and "record 2" in out
    assert "records=3 invalid=2" in out


def test_bad_record_names_file_and_line(tmp_path, capsys):
    path = tmp_path / "arr.jsonl"
    path.write_text('{"toxicn_schema": 1}\n\n[1]\n', encoding="utf-8")
    expected = f"{path}:3: record 1: expected a JSON object, got list"
    json_out = tmp_path / "stats.json"
    assert main(["stats", "--in", str(path), "--json", str(json_out)]) == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.err == f"error: {expected}\n"
    assert captured.out == "" and not json_out.exists()  # stats streams, yet shows nothing before the last record
    assert main(["validate", "--in", str(path)]) == EXIT_DATA
    assert capsys.readouterr().out == f"{expected}\nrecords=1 invalid=1\n"


def test_validate_reports_unhashable_enum_values(tmp_path, capsys):
    good = {"id": 1, "platform": "zhihu", "topic": "race", "text": "字", "toxic": 1, "hate": 1,
            "groups": ["racism"], "expression": "implicit"}
    bad = [
        {"platform": ["zhihu"]},
        {"topic": {"race": 1}},
        {"groups": [["racism"]]},
        {"expression": ["implicit"]},
    ]
    lines = [json.dumps(dict(good, id=i + 2, **override)) for i, override in enumerate(bad)]
    path = tmp_path / "unhashable.jsonl"
    path.write_text('{"toxicn_schema": 1}\n' + "\n".join([json.dumps(good)] + lines) + "\n", encoding="utf-8")
    assert main(["validate", "--in", str(path)]) == EXIT_DATA
    out = capsys.readouterr().out.splitlines()
    assert [line.split(": record")[0] for line in out[:-1]] == [f"{path}:{n}" for n in (3, 4, 5, 6)]
    assert out[0] == f"{path}:3: record 1: field 'platform' must be one of zhihu, tieba, got ['zhihu']"
    assert out[-1] == "records=5 invalid=4"


def test_validate_clean_corpus_exits_0(corpus_file, capsys):
    assert main(["validate", "--in", str(corpus_file)]) == EXIT_OK
    assert "invalid=0" in capsys.readouterr().out


def test_validate_reports_duplicate_ids(tmp_path, capsys):
    samples = [
        ToxiSample(i, Platform.ZHIHU, Topic.RACE, "同一条文本内容", 0, 0, frozenset(), None)
        for i in (1, 2, 1)
    ]
    infile = tmp_path / "dup.jsonl"
    write_corpus(infile, samples)
    assert main(["validate", "--in", str(infile)]) == EXIT_DATA
    out = capsys.readouterr().out
    assert f"{infile}:4: record 2: duplicate id 1" in out
    assert "records=3 invalid=1" in out


def test_stats_table_and_json(tmp_path, corpus_file, capsys):
    json_out = tmp_path / "stats.json"
    assert main(["stats", "--in", str(corpus_file), "--json", str(json_out)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "topic" in out and "total" in out
    payload = json.loads(json_out.read_text(encoding="utf-8"))
    assert payload["overall"]["total"] == 40
    assert set(payload["group_expression"]) == {
        "sexism", "racism", "regional_bias", "anti_lgbtq",
    }


def test_stats_memory_grows_only_with_the_id_set(tmp_path, capsys):
    # stats folds each sample into counters as it is read; what grows with the
    # file is the reader's set of seen ids, about 70 bytes a record, where
    # holding every sample costs several hundred
    n = 3_000
    paths = []
    for size in (n, 4 * n):
        paths.append(tmp_path / f"{size}.jsonl")
        write_corpus(paths[-1], labeled_corpus(size, seed=3))
    assert main(["stats", "--in", str(paths[0])]) == EXIT_OK  # imports and caches load untraced
    peaks = []
    for path in paths:
        tracemalloc.start()
        try:
            assert main(["stats", "--in", str(path)]) == EXIT_OK
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    capsys.readouterr()
    per_record = (peaks[1] - peaks[0]) / (3 * n)
    assert per_record < 150, f"traced peaks {peaks} bytes: {per_record:.0f} bytes per added record"


# ---------------------------------------------------------------- kappa / gradcheck

def test_kappa_cli(tmp_path, capsys):
    ratings = tmp_path / "r.tsv"
    ratings.write_text("3\t0\n0\t3\n", encoding="utf-8")
    assert main(["kappa", "--in", str(ratings)]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "kappa=1.0000"
    ratings.write_text("1\t1\n1\t1\n", encoding="utf-8")
    main(["kappa", "--in", str(ratings)])
    assert capsys.readouterr().out.strip() == "kappa=-1.0000"
    ratings.write_text("# items x categories\n3\t0\n0\tthree\n", encoding="utf-8")
    assert main(["kappa", "--in", str(ratings)]) == EXIT_DATA
    assert f"{ratings}:3: expected an integer, got 'three'" in capsys.readouterr().err
    # an error about one row names its line; one about the whole matrix names the file
    for text, where, message in [
        ("3\t0\n1\t1\n", ":2", "every item must be rated by the same number of raters"),
        ("# items x categories\n\n2\t0\n2\t0\t0\n", ":4", "rating matrix rows must share a width"),
        ("2\t0\n3\t-1\n", ":2", "negative rating count"),
        ("1\t0\n0\t1\n", "", "need at least 2 raters per item"),
        ("# nothing rated\n", "", "empty rating matrix"),
    ]:
        ratings.write_text(text, encoding="utf-8")
        assert main(["kappa", "--in", str(ratings)]) == EXIT_DATA
        assert capsys.readouterr().err.startswith(f"error: {ratings}{where}: {message}")


def test_gradcheck_cli(capsys):
    assert main(["gradcheck", "--configs", "2", "--seed", "3"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "max_rel_error=" in out and "corrupted_self_test=" in out


@pytest.mark.parametrize(
    "flag, value, minimum", [("--configs", "0", 1), ("--configs", "-3", 1), ("--seed", "-1", 0)], ids=["0", "-3", "seed"]
)
def test_gradcheck_needs_at_least_one_config(capsys, flag, value, minimum):
    assert main(["gradcheck", flag, value]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{flag}: expected an integer ≥ {minimum}, got '{value}'" in captured.err


# ---------------------------------------------------------------- train / eval

@pytest.mark.parametrize("task", ["toxic", "group", "expression"])
def test_train_then_eval(tmp_path, capsys, task):
    corpus = labeled_corpus(120, seed=4)
    train_file = tmp_path / "train.jsonl"
    write_corpus(train_file, corpus[:90])
    test_file = tmp_path / "test.jsonl"
    write_corpus(test_file, corpus[90:])
    model = tmp_path / "model.json"
    code = main(
        [
            "train", "--task", task, "--in", str(train_file), "--out", str(model),
            "--d", "8", "--h", "8", "--pad-len", "16", "--epochs", "3", "--seed", "1",
        ]
    )
    assert code == EXIT_OK
    assert f"task={task}" in capsys.readouterr().out
    assert model.exists()

    report = tmp_path / "report.json"
    assert main(["eval", "--model", str(model), "--test", str(test_file), "--json", str(report)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "P=" in out and "F1=" in out
    payload = json.loads(report.read_text(encoding="utf-8"))
    assert payload["task"] == task
    assert payload["n_test"] == len(eligible_samples(corpus[90:], Task(task)))
    assert len(payload["support"]) == TkeConfig(task=Task(task)).n_classes
    assert ("expression_accuracy" in payload) == (task == "toxic")


def test_train_and_eval_refuse_an_empty_text(tmp_path, capsys):
    corpus = separable_corpus(12, seed=4)
    good = tmp_path / "good.jsonl"
    write_corpus(good, corpus)
    bad = tmp_path / "bad.jsonl"
    write_corpus(bad, corpus[:3] + [replace(corpus[3], text="")] + corpus[4:])
    model = tmp_path / "model.json"
    flags = ["--task", "toxic", "--out", str(model), "--d", "4", "--h", "4", "--pad-len", "8", "--epochs", "1"]
    assert main(["train", "--in", str(bad), *flags]) == EXIT_DATA
    assert capsys.readouterr().err == f"error: {bad}: sample {corpus[3].id} has an empty text\n"
    assert not model.exists()
    assert main(["train", "--in", str(good), *flags]) == EXIT_OK
    capsys.readouterr()
    assert main(["eval", "--model", str(model), "--test", str(bad)]) == EXIT_DATA
    assert capsys.readouterr().err == f"error: {bad}: sample {corpus[3].id} has an empty text\n"


def test_a_lone_surrogate_is_refused_before_anything_is_written(tmp_path, capsys):
    records = [sample_to_record(s) for s in labeled_corpus(6, seed=2)]
    records[1]["text"] = "\ud800" + records[1]["text"]
    infile = tmp_path / "lone.jsonl"  # json.dumps escapes the surrogate as \ud800
    infile.write_text("".join(json.dumps(r) + "\n" for r in [{"toxicn_schema": 1}, *records]), encoding="utf-8")
    refusal = f"{infile}:3: record 1: field 'text' holds a lone surrogate at index 0"
    assert main(["validate", "--in", str(infile)]) == EXIT_DATA
    assert capsys.readouterr().out == f"{refusal}\nrecords=6 invalid=1\n"
    out, model, outdir = tmp_path / "clean.jsonl", tmp_path / "model.json", tmp_path / "run"
    for argv in (
        ["normalize", "--in", str(infile), "--out", str(out)],
        ["train", "--task", "toxic", "--in", str(infile), "--out", str(model)],
        ["pipeline", "--task", "toxic", "--seeds", "1", "--in", str(infile), "--outdir", str(outdir)],
    ):
        assert main(argv) == EXIT_DATA
        assert capsys.readouterr().err == f"error: {refusal}\n"
    assert not out.exists() and not model.exists() and not outdir.exists()


def test_train_with_no_usable_sample_names_the_file(tmp_path, capsys):
    corpus_path = tmp_path / "c.jsonl"
    write_corpus(corpus_path, [s for s in separable_corpus(10, seed=1) if not s.hate])
    argv = ["train", "--task", "group", "--in", str(corpus_path), "--out", str(tmp_path / "m.json")]
    assert main(argv) == EXIT_DATA
    assert capsys.readouterr().err == f"error: {corpus_path}: no samples usable for task group\n"


def _trained_model(tmp_path, *flags) -> tuple[Path, Path]:
    """A tiny toxic-task model trained through main, and its training corpus."""
    train_file = tmp_path / "train.jsonl"
    write_corpus(train_file, separable_corpus(40, seed=4))
    model = tmp_path / "model.json"
    argv = ["train", "--task", "toxic", "--in", str(train_file), "--out", str(model), "--d", "4", "--h", "4",
            "--pad-len", "8", "--epochs", "1", *flags]
    assert main(argv) == EXIT_OK
    return model, train_file


def test_eval_rejects_malformed_checkpoint(tmp_path, capsys):
    model, train_file = _trained_model(tmp_path)
    saved = model.read_text(encoding="utf-8")
    blob = json.loads(saved)
    values = _unpack(blob["params"]).copy()
    blob["params"] = _pack(values[:-1])
    model.write_text(json.dumps(blob), encoding="utf-8")
    capsys.readouterr()
    assert main(["eval", "--model", str(model), "--test", str(train_file)]) == EXIT_DATA
    assert f"error: {model}: params does not hold the {values.nbytes} bytes of the blocks" in capsys.readouterr().err
    values[-1] = np.nan  # in b, the last block
    blob["params"] = _pack(values)
    model.write_text(json.dumps(blob), encoding="utf-8")
    assert main(["eval", "--model", str(model), "--test", str(train_file)]) == EXIT_DATA
    assert f"error: {model}: params must be finite" in capsys.readouterr().err
    for text in (saved[: len(saved) // 2], '{"version": ' + "9" * 5000 + "}"):  # truncated; too long an integer
        model.write_text(text, encoding="utf-8")
        assert main(["eval", "--model", str(model), "--test", str(train_file)]) == EXIT_DATA
        assert f"error: {model}: not a JSON checkpoint" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key,value",
    [("d", 3.0), ("pad_len", 1.5), ("batch", 2.5), ("enhancement", "no"), ("seed", "x"), ("lam", True)],
)
def test_eval_rejects_ill_typed_config(tmp_path, capsys, key, value):
    model, train_file = _trained_model(tmp_path)
    blob = json.loads(model.read_text(encoding="utf-8"))
    blob["config"][key] = value
    model.write_text(json.dumps(blob), encoding="utf-8")
    capsys.readouterr()
    assert main(["eval", "--model", str(model), "--test", str(train_file)]) == EXIT_DATA
    assert f"error: {model}: bad config: {key} must be " in capsys.readouterr().err


def test_eval_checks_the_training_lexicon(tmp_path, capsys, monkeypatch):
    lines = [line for line in lexicon_path().read_text(encoding="utf-8").splitlines() if line and line[0] != "#"]
    lex_file = tmp_path / "lexicon.tsv"
    lex_file.write_text("\n".join(lines) + "\n", encoding="utf-8")
    model, train_file = _trained_model(tmp_path, "--lexicon", str(lex_file))
    capsys.readouterr()
    eval_argv = ["eval", "--model", str(model), "--test", str(train_file)]
    assert main([*eval_argv, "--lexicon", str(lex_file)]) == EXIT_OK

    reordered = tmp_path / "reordered.tsv"
    reordered.write_text("# the same pairs, bottom up\n" + "\n".join(reversed(lines)) + "\n", encoding="utf-8")
    assert main([*eval_argv, "--lexicon", str(reordered)]) == EXIT_OK
    capsys.readouterr()

    term, category, *rest = lines[0].split("\t")
    other = "racism" if category != "racism" else "sexism"
    changed = tmp_path / "changed.tsv"
    changed.write_text("\n".join(["\t".join([term, other, *rest]), *lines[1:]]) + "\n", encoding="utf-8")
    assert main([*eval_argv, "--lexicon", str(changed)]) == EXIT_DATA
    assert capsys.readouterr().err == f"error: {model}: trained with a different lexicon than {changed}\n"

    lex_file.write_text("\n".join(lines[1:]) + "\n", encoding="utf-8")  # one term fewer than at training
    assert main([*eval_argv, "--lexicon", str(lex_file)]) == EXIT_DATA
    capsys.readouterr()
    model, _ = _trained_model(tmp_path, "--lexicon", str(changed))
    capsys.readouterr()
    assert main(eval_argv) == EXIT_DATA
    assert capsys.readouterr().err == f"error: {model}: trained with a different lexicon than {lexicon_path()}\n"

    resource_dir = tmp_path / "resources"
    resource_dir.mkdir()
    (resource_dir / "lexicon.tsv").write_text("某词\tgeneral\texplicit\tnone\n", encoding="utf-8")
    monkeypatch.setenv("TOXIKIT_RESOURCES", str(resource_dir))
    assert main(eval_argv) == EXIT_DATA
    expected = f"error: {model}: trained with a different lexicon than {resource_dir / 'lexicon.tsv'}\n"
    assert capsys.readouterr().err == expected


@pytest.mark.parametrize("corrupt", ["repeated id", "id past the table"])
def test_eval_rejects_bad_vocab_ids(tmp_path, capsys, corrupt):
    model, train_file = _trained_model(tmp_path)
    # a character's id is its place in the vocab string: a repeated one has two ids, an appended one a row past W's
    blob = json.loads(model.read_text(encoding="utf-8"))
    chars = blob["vocab"]
    blob["vocab"] = chars[0] + chars if corrupt == "repeated id" else chars + "\U0010ffff"
    model.write_text(json.dumps(blob), encoding="utf-8")
    capsys.readouterr()
    assert main(["eval", "--model", str(model), "--test", str(train_file)]) == EXIT_DATA
    expected = "vocab must be a non-empty string" if corrupt == "repeated id" else "params does not hold"
    assert f"error: {model}: {expected}" in capsys.readouterr().err


def test_train_config_file_with_cli_override(tmp_path, capsys):
    corpus = separable_corpus(40, seed=6)
    train_file = tmp_path / "train.jsonl"
    write_corpus(train_file, corpus)
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(
        "# comment\ntask=toxic\nd=4\nh=4\npad_len=8\nepochs=1\nseed=2\n", encoding="utf-8"
    )
    model = tmp_path / "m.json"
    assert main(["train", "--config", str(cfgfile), "--in", str(train_file), "--out", str(model), "--d", "6"]) == EXIT_OK
    capsys.readouterr()
    blob = json.loads(model.read_text(encoding="utf-8"))
    assert blob["config"]["d"] == 6  # CLI flag wins
    assert blob["config"]["h"] == 4  # config file fills the rest


def test_config_file_errors(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("pad_len=oops\n", encoding="utf-8")
    assert main(["train", "--config", str(cfgfile), "--task", "toxic", "--in", "x", "--out", "y"]) == EXIT_DATA
    assert "bad value" in capsys.readouterr().err

    cfgfile.write_text("cleverness=11\n", encoding="utf-8")
    assert main(["train", "--config", str(cfgfile), "--task", "toxic", "--in", "x", "--out", "y"]) == EXIT_DATA
    assert "unknown config key" in capsys.readouterr().err

    cfgfile.write_text("# task\ntask=bogus\n", encoding="utf-8")
    assert main(["train", "--config", str(cfgfile), "--in", "x", "--out", "y"]) == EXIT_DATA
    assert f"{cfgfile}:2: bad value 'bogus' for task" in capsys.readouterr().err


_BOM_SAMPLES = [
    ToxiSample(i, Platform.ZHIHU, Topic.RACE, text, 0, 0, frozenset(), None) for i, text in enumerate(["傻逼啊", "你好"])
]
_CORPUS_ROWS = [{SCHEMA_KEY: SCHEMA_VERSION}, *map(sample_to_record, _BOM_SAMPLES)]
_SIDE_FILES = {  # each file's first line holds an entry, the one a byte-order mark would spoil
    "lexicon": ("傻逼\tgeneral\texplicit\tnone\n蛆\t1\timplicit\tirony\n", lambda p: load_lexicon(p).entries),
    "accept": ("蛆\n虫\n", lambda p: [line for _, line in read_lines(p)]),
    "config": ("epochs=2\n# comment\nd=8\n", cli._parse_config_file),
    "pinyin": ("傻\tsha\n逼\tbi\n", lambda p: PinyinTable.load(p)._map),
    "corpus": ("".join(json.dumps(row, ensure_ascii=False) + "\n" for row in _CORPUS_ROWS), read_corpus),
}


@pytest.mark.parametrize("kind", sorted(_SIDE_FILES))
def test_a_byte_order_mark_does_not_change_what_a_file_holds(tmp_path, kind):
    text, load = _SIDE_FILES[kind]
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
    assert load(marked) == load(plain)
    if kind == "corpus":
        assert load(plain) == _BOM_SAMPLES


def test_match_counts_the_first_term_of_a_lexicon_with_a_byte_order_mark(tmp_path, capsys):
    infile = tmp_path / "c.jsonl"
    write_corpus(infile, _BOM_SAMPLES + [replace(_BOM_SAMPLES[0], id=2)])
    for encoding in ("utf-8", "utf-8-sig"):
        lexfile = tmp_path / f"{encoding}.tsv"
        lexfile.write_text("傻逼\tgeneral\texplicit\tnone\n", encoding=encoding)
        argv = ["match", "--lexicon", str(lexfile), "--in", str(infile), "--out", str(tmp_path / "m.jsonl")]
        assert main(argv) == EXIT_OK
        assert "matched=2" in capsys.readouterr().out


def test_config_file_keys_are_the_tke_config_fields(tmp_path, capsys):
    values = {
        "task": "group", "d": "3", "h": "5", "lam": "0.25", "pad_len": "9", "epochs": "2",
        "batch": "7", "lr": "0.02", "dropout": "0.25", "seed": "11", "enhancement": "false",
        "weight_decay": "0.01", "val_fraction": "0.2", "patience": "5",
    }
    assert set(values) == {f.name for f in fields(TkeConfig)}
    train_file = tmp_path / "train.jsonl"
    write_corpus(train_file, labeled_corpus(60, seed=3))
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("".join(f"{k}={v}\n" for k, v in values.items()), encoding="utf-8")
    model = tmp_path / "m.json"
    assert main(["train", "--config", str(cfgfile), "--in", str(train_file), "--out", str(model)]) == EXIT_OK
    capsys.readouterr()
    _, cfg, _ = load_checkpoint(model)
    for f in fields(TkeConfig):
        assert getattr(cfg, f.name) != getattr(TkeConfig(), f.name), f"{f.name} kept its default"

    cfgfile.write_text("n_classes=4\n", encoding="utf-8")  # a TkeConfig property, not a field
    assert main(["train", "--config", str(cfgfile), "--task", "group", "--in", "x", "--out", "y"]) == EXIT_DATA
    assert "unknown config key 'n_classes'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--epochs", "0"], "epochs and batch must be positive"),
        (["--lr", "nan"], "lr and weight_decay must be finite and ≥ 0"),
        (["--weight-decay", "inf"], "lr and weight_decay must be finite and ≥ 0"),
        (["--seed", "-1"], "seed must be ≥ 0, got -1"),
    ],
    ids=["zero-epochs", "nan-lr", "inf-weight-decay", "negative-seed"],
)
def test_train_rejects_zero_epochs_and_non_finite_steps(tmp_path, capsys, flags, message):
    corpus_path = tmp_path / "c.jsonl"
    write_corpus(corpus_path, separable_corpus(5, seed=1))
    model = tmp_path / "m.json"
    argv = ["train", "--task", "toxic", "--in", str(corpus_path), "--out", str(model), "--d", "4", "--h", "4"]
    assert main(argv + flags) == EXIT_USAGE  # a bad value on the command line
    err = capsys.readouterr().err
    assert f"error: argument {flags[0]}: " in err and message in err
    assert not model.exists()
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"{flags[0].removeprefix('--').replace('-', '_')}={flags[1]}\n", encoding="utf-8")
    assert main(argv + ["--config", str(cfgfile)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"error: {cfgfile}:1: " in err and message in err


@pytest.mark.parametrize(
    "kind,content,bad",
    [
        ("normalize", "1\n٣\n", "٣"),
        ("kappa", "3\t0\n١\t2\n", "١"),
        ("train", "d=4\nepochs=٢\n", "٢"),
        ("train", "d=4\nlr=1_0e-3\n", "1_0e-3"),
    ],
    ids=["exclude-id", "kappa-cell", "config-int", "config-float"],
)
def test_a_file_number_in_other_digits_or_with_underscores_names_its_line(
    tmp_path, capsys, corpus_file, kind, content, bad
):
    # int() and float() take both; a file read as '3' where it says '٣' is a silent wrong answer
    path = tmp_path / "side.txt"
    path.write_text(content, encoding="utf-8")
    assert main(_reader_argv(kind, path, corpus_file, str(tmp_path / "out"))) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"error: {path}:2: " in err and repr(bad) in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "flag,value", [("--epochs", "٢"), ("--d", "abc"), ("--lr", "1_0e-3"), ("--pad-len", "８"), ("--task", "bogus")]
)
def test_a_bad_model_flag_exits_1_naming_the_flag(tmp_path, capsys, corpus_file, flag, value):
    model = tmp_path / "m.json"
    argv = ["train", "--task", "toxic", "--in", str(corpus_file), "--out", str(model), flag, value]
    assert main(argv) == EXIT_USAGE
    key = flag.removeprefix("--").replace("-", "_")
    assert f"error: argument {flag}: bad value {value!r} for {key}" in capsys.readouterr().err
    assert not model.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["normalize", "--in", "x", "--out", "y", "--min-chars", "٤"],
        ["pseudolabel", "--in", "x", "--out", "y", "--min-score", "1_0"],
        ["pipeline", "--in", "x", "--outdir", "y", "--seeds", "١,2"],
        ["pipeline", "--in", "x", "--outdir", "y", "--train-ratio", "٠.5"],
    ],
    ids=["int-at-least", "finite-float", "seed-list", "train-ratio"],
)
def test_a_flag_number_in_other_digits_or_with_underscores_is_a_usage_error(capsys, argv):
    assert main(argv) == EXIT_USAGE
    assert f"argument {argv[-2]}: " in capsys.readouterr().err


(_COMMANDS,) = (a.choices for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction))
# (command, flag) for each flag of each subcommand that takes a value: the flags read_command_line reads
_VALUE_FLAGS = [
    (name, action.option_strings[0]) for name, command in _COMMANDS.items() for action in cli._value_flags(command)
]


def test_the_value_flags_include_every_typed_flag():
    # every number flag, and the model flags, are declared as text and read after argparse
    assert {("normalize", "--min-chars"), ("pseudolabel", "--min-freq"), ("pseudolabel", "--min-score"),
            ("pseudolabel", "--max-n"), ("gradcheck", "--configs"), ("gradcheck", "--seed"),
            ("pipeline", "--seeds"), ("pipeline", "--train-ratio"), ("pipeline", "--split-seed"),
            ("train", "--epochs")} <= set(_VALUE_FLAGS)
    dests = {action.dest for command in _COMMANDS.values() for action in cli._value_flags(command)}
    assert set(cli._NUMBER_FLAGS) <= dests
    assert all(action.type is None for command in _COMMANDS.values() for action in command._actions)


def _argv_for(command: str, flag: str, root: Path) -> list[str]:
    """``command`` with each of its required flags but ``flag``, naming files under ``root``."""
    required = {
        "--in": root / "inputs" / "c.jsonl", "--test": root / "inputs" / "c.jsonl", "--out": root / "out" / "o",
        "--outdir": root / "out", "--model": root / "inputs" / "m.json", "--term": "x", "--rule": "code_mixing",
    }
    argv = [command]
    for action in _COMMANDS[command]._actions:
        if action.required and action.option_strings[0] != flag:
            argv += [action.option_strings[0], str(required[action.option_strings[0]])]
    return argv


@pytest.mark.parametrize("command,flag", _VALUE_FLAGS, ids=[f"{c}{f}" for c, f in _VALUE_FLAGS])
def test_a_flag_given_as_equals_dashes_is_refused_naming_it(tmp_path, capsys, command, flag):
    # argparse drops the "--" of --flag=-- and hands the flag [] without
    # calling its type; read_command_line refuses it, model flag or not
    (tmp_path / "inputs").mkdir()
    write_corpus(tmp_path / "inputs" / "c.jsonl", labeled_corpus(20, seed=2))
    assert main(_argv_for(command, flag, tmp_path) + [f"{flag}=--"]) == EXIT_USAGE
    assert f"error: argument {flag}: expected a value, got '--'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,flag", _VALUE_FLAGS, ids=[f"{c}{f}" for c, f in _VALUE_FLAGS])
def test_an_empty_flag_value_is_refused_naming_it(tmp_path, capsys, command, flag):
    (action,) = (a for a in _COMMANDS[command]._actions if a.option_strings[:1] == [flag])
    why = "invalid choice: ''" if action.choices else "expected a value, got ''"  # argparse checks a choice itself
    for given in ([f"{flag}="], [flag, ""]):
        assert main(_argv_for(command, flag, tmp_path) + given) == EXIT_USAGE
        assert f"error: argument {flag}: {why}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


_FLAG_TEXT = st.text(max_size=10) | st.lists(
    st.sampled_from(["--", "-", "-1", "0", "1", "3", ",", ".", "5", "e", "nan", "inf", "_", "٣", "８", " ", "=", "+",
                     "toxic", "code_mixing", "x", "-h", "--in", "--out"]),
    max_size=5,
).map("".join)


def _read_or_exit_1(argv):
    """The namespace main would run its command with, or EXIT_USAGE where main exits 1 before any command."""
    try:
        return vars(cli.read_command_line(argv))
    except SystemExit as exc:
        assert exc.code == EXIT_USAGE
        assert main(argv) == EXIT_USAGE
        return EXIT_USAGE


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command_flag=st.sampled_from(_VALUE_FLAGS), text=_FLAG_TEXT)
@example(command_flag=("pipeline", "--seeds"), text="2,1")
@example(command_flag=("train", "--lam"), text=" 0.5")
@example(command_flag=("gradcheck", "--seed"), text="-1")
@example(command_flag=("train", "--epochs"), text="--")
@example(command_flag=("normalize", "--out"), text="--")
def test_a_value_flag_reads_the_same_value_in_both_forms_or_exits_1(tmp_path, capsys, command_flag, text):
    command, flag = command_flag
    (dest,) = {a.dest for a in cli._value_flags(_COMMANDS[command]) if a.option_strings[0] == flag}
    argv = _argv_for(command, flag, tmp_path)
    joined = _read_or_exit_1(argv + [f"{flag}={text}"])
    spaced = _read_or_exit_1(argv + [flag, text])
    if joined != EXIT_USAGE and spaced != EXIT_USAGE:
        assert joined == spaced
    for read in (joined, spaced):  # a path or a word is its text, never argparse's [] for --flag=--
        if read != EXIT_USAGE and dest not in cli._CONFIG_FIELDS and dest not in cli._NUMBER_FLAGS:
            assert read[dest] == text
    assert not (tmp_path / "out").exists()
    capsys.readouterr()


# TkeConfig fields with no flag that takes a value (enhancement has only --no-enhancement)
_FLAGLESS_KEYS = {"enhancement", "val_fraction", "patience"}
_CONFIG_TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\n"), max_size=12) | st.lists(
    st.sampled_from(["0", "1", "3", "-", ".", "5", "e", "nan", "inf", "_", "٣", "８", " ", "\u3000", "\t", "#", "=",
                     "+", "toxic", "group", "true", "x"]),
    max_size=6,
).map("".join)


def _config_or_exit_code(argv):
    """The TkeConfig that train would use, or the code main would exit with."""
    try:
        return cli._assemble_config(cli.read_command_line(argv))
    except SystemExit as exc:  # a bad flag value
        return exc.code
    except ValueError:  # main reports every data error with exit 2
        return EXIT_DATA


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(key=st.sampled_from(sorted({f.name for f in fields(TkeConfig)} - _FLAGLESS_KEYS)), text=_CONFIG_TEXT)
@example(key="epochs", text="0")
@example(key="lam", text=" 0.5\u3000")
@example(key="batch", text="--")  # argparse hands the flag [], not a string
def test_a_model_flag_and_a_config_line_read_the_same_value(tmp_path, capsys, key, text):
    base = ["train", "--in", "x", "--out", "y"] + (["--task", "toxic"] if key != "task" else [])
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"{key}={text}\n", encoding="utf-8")
    from_flag = _config_or_exit_code(base + [f"--{key.replace('_', '-')}={text}"])
    from_file = _config_or_exit_code(base + ["--config", str(cfgfile)])
    if isinstance(from_file, TkeConfig):
        assert from_flag == from_file
    else:  # refused: on the command line a usage error, in a file a data error
        assert (from_flag, from_file) == (EXIT_USAGE, EXIT_DATA)
    capsys.readouterr()


def test_train_requires_task(tmp_path, capsys):
    corpus_path = tmp_path / "c.jsonl"
    write_corpus(corpus_path, separable_corpus(10, seed=1))
    assert main(["train", "--in", str(corpus_path), "--out", str(tmp_path / "m.json")]) == EXIT_DATA
    assert "no task" in capsys.readouterr().err


# ---------------------------------------------------------------- pipeline

def test_pipeline_end_to_end_and_rerun_identical(tmp_path, capsys):
    corpus = separable_corpus(160, seed=8)
    infile = tmp_path / "raw.jsonl"
    write_corpus(infile, corpus)
    outdir = tmp_path / "run"
    argv = [
        "pipeline", "--task", "toxic", "--in", str(infile), "--outdir", str(outdir),
        "--seeds", "1,2", "--d", "8", "--h", "8", "--pad-len", "16", "--epochs", "2",
    ]
    assert main(argv) == EXIT_OK
    out = capsys.readouterr().out
    assert "f1:" in out
    for name in (
        "stats.json", "train.jsonl", "test.jsonl",
        "model_seed_1.json", "model_seed_2.json",
        "report_seed_1.json", "report_seed_2.json", "aggregate.json",
    ):
        assert (outdir / name).exists(), name
    aggregate = json.loads((outdir / "aggregate.json").read_text(encoding="utf-8"))
    assert aggregate["seeds"] == [1, 2]
    assert set(aggregate["f1"]) == {"mean", "sd"}

    first = (outdir / "aggregate.json").read_bytes()
    assert main(argv) == EXIT_OK
    capsys.readouterr()
    assert (outdir / "aggregate.json").read_bytes() == first


def test_pipeline_encodes_each_split_once(tmp_path, capsys, monkeypatch):
    infile = tmp_path / "raw.jsonl"
    write_corpus(infile, separable_corpus(60, seed=8))
    encoded = []
    real = cli.encode_corpus
    monkeypatch.setattr(cli, "encode_corpus", lambda samples, *rest: encoded.append(len(samples)) or real(samples, *rest))
    outdir = tmp_path / "run"
    argv = ["pipeline", "--task", "toxic", "--in", str(infile), "--outdir", str(outdir), "--seeds", "1,2,3",
            "--d", "4", "--h", "4", "--pad-len", "8", "--epochs", "1"]
    assert main(argv) == EXIT_OK
    capsys.readouterr()
    n_clean = json.loads((outdir / "stats.json").read_text(encoding="utf-8"))["overall"]["total"]
    assert len(encoded) == 2
    assert sum(encoded) == n_clean


_SMALL_MODEL = ["--task", "toxic", "--d", "8", "--h", "8", "--pad-len", "16", "--epochs", "2"]


@pytest.mark.parametrize("n_seeds", [1, 2, 4])
def test_pipeline_models_equal_training_alone(tmp_path, capsys, n_seeds):
    infile = tmp_path / "raw.jsonl"
    write_corpus(infile, separable_corpus(120, seed=8))
    outdir = tmp_path / "run"
    seeds = range(1, n_seeds + 1)
    argv = ["pipeline", "--in", str(infile), "--outdir", str(outdir), "--seeds", ",".join(map(str, seeds)), *_SMALL_MODEL]
    assert main(argv) == EXIT_OK
    for seed in seeds:
        alone = tmp_path / f"alone_{seed}.json"
        argv = ["train", "--in", str(outdir / "train.jsonl"), "--out", str(alone), "--seed", str(seed), *_SMALL_MODEL]
        assert main(argv) == EXIT_OK
        assert alone.read_bytes() == (outdir / f"model_seed_{seed}.json").read_bytes(), seed
    capsys.readouterr()


def test_pipeline_stops_at_a_failing_seed(tmp_path, capsys, monkeypatch):
    infile = tmp_path / "raw.jsonl"
    write_corpus(infile, separable_corpus(60, seed=8))
    real = cli.train
    called = []

    def train(encoded, cfg, vocab_size):
        called.append(cfg.seed)
        if cfg.seed == 2:
            raise ClassifierError("no model for this seed")
        return real(encoded, cfg, vocab_size)

    monkeypatch.setattr(cli, "train", train)
    outdir = tmp_path / "run"
    argv = ["pipeline", "--in", str(infile), "--outdir", str(outdir), "--seeds", "1,2,3,4", *_SMALL_MODEL]
    assert (main(argv), capsys.readouterr().err) == (EXIT_DATA, "error: no model for this seed\n")
    assert called == [1, 2]  # seeds 3 and 4 never start
    written = sorted(p.name for p in outdir.iterdir())
    assert written == ["model_seed_1.json", "report_seed_1.json", "stats.json", "test.jsonl", "train.jsonl"]


def test_pipeline_bad_seeds_is_a_usage_error(tmp_path, capsys):
    infile = tmp_path / "raw.jsonl"
    write_corpus(infile, separable_corpus(20, seed=8))
    outdir = tmp_path / "run"
    argv = ["pipeline", "--task", "toxic", "--in", str(infile), "--outdir", str(outdir)]
    for seeds in ("1,x", "1,1", "-1", "2,-3"):
        assert main(argv + ["--seeds", seeds]) == EXIT_USAGE
        assert "--seeds" in capsys.readouterr().err
    assert not outdir.exists()


def test_pipeline_negative_split_seed_is_a_usage_error(tmp_path, capsys):
    infile = tmp_path / "raw.jsonl"
    write_corpus(infile, separable_corpus(20, seed=8))
    outdir = tmp_path / "run"
    argv = ["pipeline", "--task", "toxic", "--in", str(infile), "--outdir", str(outdir)]
    for split_seed in ("-1", "x"):
        assert main(argv + ["--split-seed", split_seed]) == EXIT_USAGE
        assert "--split-seed" in capsys.readouterr().err
    assert not outdir.exists()


def test_pipeline_bad_train_ratio_leaves_no_outdir(tmp_path, capsys):
    infile = tmp_path / "raw.jsonl"
    write_corpus(infile, separable_corpus(20, seed=8))
    outdir = tmp_path / "run"
    argv = ["pipeline", "--task", "toxic", "--in", str(infile), "--outdir", str(outdir), "--train-ratio", "1.5"]
    assert main(argv) == EXIT_USAGE
    assert "train_ratio" in capsys.readouterr().err
    assert not outdir.exists()


def test_pipeline_split_without_task_samples_leaves_no_outdir(tmp_path, capsys):
    # a corpus with no hate sample has nothing to train the group task on
    infile = tmp_path / "raw.jsonl"
    write_corpus(infile, separable_corpus(40, seed=8))
    outdir = tmp_path / "run"
    argv = ["pipeline", "--task", "group", "--in", str(infile), "--outdir", str(outdir), "--seeds", "1"]
    assert main(argv) == EXIT_DATA
    assert capsys.readouterr().err == f"error: {infile} (train split): no samples usable for task group\n"
    assert not outdir.exists()
