"""End-to-end acceptance checks, one test per release criterion.

Each test carries its own wall-clock budget; the conftest summary hook
prints a PASS/FAIL line per criterion at the end of the run.
"""

import os
import random
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from oracles import fleiss_kappa_exact, naive_find_matches
from synthcorpus import labeled_corpus, rare_term_corpus, separable_corpus
from toxikit.classifier import (
    Task,
    TkeConfig,
    Vocab,
    eligible_samples,
    encode_corpus,
    predict,
    train,
)
from toxikit.cli import run_gradcheck
from toxikit.corpus import (
    Expression,
    SplitSpec,
    TargetGroup,
    Topic,
    corpus_stats,
    read_corpus,
    split_dataset,
    validate_hierarchy,
)
from toxikit.lexicon import Category, InsultEntry, Lexicon, Surface, find_matches
from toxikit.metrics import fleiss_kappa
from toxikit.pseudolabel import PseudoLabel, iterate_to_fixpoint, pseudo_label
from toxikit.resources import glyph_path, lexicon_path, pinyin_path
from toxikit.variants import (
    GlyphTable,
    PinyinTable,
    detect_code_mixing,
    expand_deformation,
    gen_abbreviation,
    gen_homophones,
)


def _bundled_lexicon() -> Lexicon:
    from toxikit.lexicon import load_lexicon

    return load_lexicon(lexicon_path())


def _accuracy(preds: np.ndarray, golds: list[int]) -> float:
    return float(np.mean(np.asarray(preds).reshape(-1) == np.asarray(golds)))


# ------------------------------------------------------------------ 1


def test_criterion_1_lambda_zero_bitwise():
    """λ=0 and enhancement-off runs are bitwise identical: parameters,
    predicted labels, and probabilities, across 3 seeds × all 4 tasks."""
    start = time.perf_counter()
    corpus = labeled_corpus(500, seed=42)
    lex = _bundled_lexicon()
    for task in Task:
        eligible = eligible_samples(corpus, task)
        assert len(eligible) >= 50, f"synthetic corpus too thin for {task.value}"
        vocab = Vocab.build(s.text for s in eligible)
        for seed in (1, 2, 3):
            base = dict(task=task, d=16, h=16, pad_len=24, epochs=3, seed=seed)
            cfg_zero = TkeConfig(lam=0.0, enhancement=True, **base)
            cfg_off = TkeConfig(lam=0.5, enhancement=False, **base)
            enc_zero = encode_corpus(eligible, vocab, lex, cfg_zero)
            enc_off = encode_corpus(eligible, vocab, lex, cfg_off)
            params_zero, _ = train(enc_zero, cfg_zero, len(vocab))
            params_off, _ = train(enc_off, cfg_off, len(vocab))
            for name, block in params_zero.blocks().items():
                assert np.array_equal(block, params_off.blocks()[name]), (
                    f"{task.value} seed {seed}: block {name} diverged"
                )
            labels_zero, probs_zero = predict(enc_zero, params_zero, cfg_zero)
            labels_off, probs_off = predict(enc_off, params_off, cfg_off)
            assert np.array_equal(labels_zero, labels_off)
            assert np.array_equal(probs_zero, probs_off)
    assert time.perf_counter() - start < 30.0


# ------------------------------------------------------------------ 2


def test_criterion_2_matching_oracle():
    """The matcher agrees exactly with a naive scan: 1,000 random
    texts against 50 patterns, full (start, end, term) set equality."""
    start = time.perf_counter()
    rng = random.Random(20)
    alphabet = "黑鬼蛆母狗拳师卖国贼一二三四五 abx"
    patterns: set[str] = set()
    while len(patterns) < 50:
        length = rng.randint(1, 4)
        patterns.add("".join(rng.choice(alphabet.replace(" ", "")) for _ in range(length)))
    pattern_list = sorted(patterns)
    lex = Lexicon(
        InsultEntry(term=p, category=Category.GENERAL, surface=Surface.EXPLICIT)
        for p in pattern_list
    )
    total_matches = 0
    for _ in range(1_000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 60)))
        got = {(m.start, m.end, m.entry.term) for m in find_matches(text, lex)}
        want = naive_find_matches(text, pattern_list)
        assert got == want
        total_matches += len(got)
    assert total_matches > 1_000, "fuzz corpus produced too few matches to be meaningful"
    assert time.perf_counter() - start < 2.0


# ------------------------------------------------------------------ 3


def test_criterion_3_gradient_check():
    """Analytic gradients match finite differences (step 1e-5) to < 1e-4
    relative error on 10 random configurations; a deliberately corrupted
    gradient trips the harness at > 1e-1."""
    start = time.perf_counter()
    worst, corrupted = run_gradcheck(10, seed=7)
    assert worst < 1e-4, f"max relative error {worst:.3e}"
    assert corrupted > 1e-1, f"corrupted self-test only reached {corrupted:.3e}"
    assert time.perf_counter() - start < 10.0


# ------------------------------------------------------------------ 4


def test_criterion_4_fleiss_kappa():
    """Unanimous matrices give exactly 1.0; 200 random matrices agree with
    an exact-fraction oracle to 1e-12; a perfect two-rater disagreement
    pattern gives exactly −1.0."""
    start = time.perf_counter()

    rng = random.Random(4)
    for _ in range(20):
        raters = rng.randint(2, 6)
        k = rng.randint(2, 5)
        rows = []
        for _ in range(rng.randint(1, 12)):
            winner = rng.randrange(k)
            rows.append([raters if j == winner else 0 for j in range(k)])
        assert fleiss_kappa(rows) == 1.0

    for trial in range(200):
        raters = rng.randint(2, 8)
        k = rng.randint(2, 6)
        n = rng.randint(2, 15)
        rows = []
        for _ in range(n):
            counts = [0] * k
            for _ in range(raters):
                counts[rng.randrange(k)] += 1
            rows.append(counts)
        got = fleiss_kappa(rows)
        exact = fleiss_kappa_exact(rows)
        if exact is None:
            assert got == 1.0  # chance agreement saturated ⇒ observed is too
        else:
            assert abs(got - float(exact)) < 1e-12, f"trial {trial}"
            assert abs(Fraction(got).limit_denominator(10**15) - exact) < Fraction(1, 10**12)

    assert fleiss_kappa([[1, 1], [1, 1]]) == -1.0
    assert time.perf_counter() - start < 1.0


# ------------------------------------------------------------------ 5


def test_criterion_5_separable_learning():
    """On a 2,000-sample synthetic corpus whose toxic texts carry planted
    lexicon terms, λ=0.5 reaches ≥ 95% held-out accuracy within the default
    20 epochs, while label-shuffled training stays at chance (50% ± 5)."""
    start = time.perf_counter()
    corpus = separable_corpus(2_000, seed=11)
    lex = _bundled_lexicon()
    train_set, test_set = split_dataset(
        corpus, SplitSpec(train_ratio=0.8, seed=0, stratify=True)
    )
    cfg = TkeConfig(task=Task.TOXIC, d=32, h=32, lam=0.5, pad_len=32, seed=1)
    vocab = Vocab.build(s.text for s in train_set)
    enc_train = encode_corpus(train_set, vocab, lex, cfg)
    enc_test = encode_corpus(test_set, vocab, lex, cfg)
    params, history = train(enc_train, cfg, len(vocab))
    assert len(history) <= 20
    preds, _ = predict(enc_test, params, cfg)
    acc = _accuracy(preds, [s.toxic for s in test_set])
    assert acc >= 0.95, f"held-out accuracy {acc:.3f}"

    # A single shuffled run has ±2.5pt sampling noise at n=400, so the
    # control averages three label shuffles against the same window.
    control_accs = []
    for shuffle_seed in (99, 7, 13):
        flags = [s.toxic for s in train_set]
        random.Random(shuffle_seed).shuffle(flags)
        shuffled = [
            replace(s, toxic=t, hate=0, groups=frozenset(), expression=None)
            for s, t in zip(train_set, flags)
        ]
        enc_shuffled = encode_corpus(shuffled, vocab, lex, cfg)
        params_s, _ = train(enc_shuffled, cfg, len(vocab))
        preds_s, _ = predict(enc_test, params_s, cfg)
        control_accs.append(_accuracy(preds_s, [s.toxic for s in test_set]))
    acc_s = sum(control_accs) / len(control_accs)
    assert 0.45 <= acc_s <= 0.55, f"shuffled-label control at {acc_s:.3f} ({control_accs})"
    assert time.perf_counter() - start < 60.0


# ------------------------------------------------------------------ 6


def test_criterion_6_rare_term_enhancement():
    """When every insult term appears at most twice in training, category
    enhancement (λ=0.5) beats the ablated model (λ=0) by ≥ 5 accuracy
    points on unseen insult terms, averaged over 5 seeds."""
    start = time.perf_counter()
    lex = _bundled_lexicon()
    gaps = []
    for seed in (1, 2, 3, 4, 5):
        train_corpus, test_corpus = rare_term_corpus(seed)
        vocab = Vocab.build(s.text for s in train_corpus)
        accs = {}
        for lam in (0.5, 0.0):
            cfg = TkeConfig(
                task=Task.TOXIC, d=32, h=32, lam=lam, pad_len=16, seed=seed,
                epochs=80, lr=5e-3, batch=16, dropout=0.0, patience=80,
            )
            enc_train = encode_corpus(train_corpus, vocab, lex, cfg)
            enc_test = encode_corpus(test_corpus, vocab, lex, cfg)
            params, _ = train(enc_train, cfg, len(vocab))
            preds, _ = predict(enc_test, params, cfg)
            accs[lam] = _accuracy(preds, [s.toxic for s in test_corpus])
        gaps.append(100.0 * (accs[0.5] - accs[0.0]))
    avg_gap = sum(gaps) / len(gaps)
    assert avg_gap >= 5.0, f"per-seed gaps {gaps}, average {avg_gap:.1f}"
    assert time.perf_counter() - start < 120.0


# ------------------------------------------------------------------ 7


def _check_reference_census(corpus) -> None:
    for sample in corpus:
        assert validate_hierarchy(sample) == []
    stats = corpus_stats(corpus)
    overall = stats["overall"]
    assert overall["total"] == 12_011
    assert overall["toxic"] == 6_461
    assert overall["offensive"] == 816
    assert overall["hate"] == 5_645
    assert overall["hate_explicit"] == 2_737
    assert overall["hate_implicit"] == 1_995
    assert overall["hate_reporting"] == 913
    assert overall["total"] == sum(t["total"] for t in stats["by_topic"].values())
    assert set(stats["by_topic"]) == {topic.value for topic in Topic}
    expected_groups = {
        TargetGroup.SEXISM: 2_302,
        TargetGroup.RACISM: 1_874,
        TargetGroup.REGIONAL_BIAS: 1_289,
        TargetGroup.ANTI_LGBTQ: 1_075,
    }
    for group, total in expected_groups.items():
        row = stats["group_expression"][group.value]
        assert row["total"] == total
        assert row["explicit"] + row["implicit"] + row["reporting"] == total


@pytest.mark.skipif(
    not os.environ.get("TOXICN_PATH"),
    reason="set TOXICN_PATH to the public dataset file to run the census check",
)
def test_criterion_7_reference_stats():
    """The published corpus reproduces its reference census exactly and
    every record satisfies the label hierarchy."""
    start = time.perf_counter()
    corpus = read_corpus(os.environ["TOXICN_PATH"])
    _check_reference_census(corpus)
    assert time.perf_counter() - start < 5.0


def test_census_checker_on_synthetic_clone(tmp_path):
    """A generated corpus with the reference marginals passes the census
    checker, so the conditional test above is known-runnable."""
    from toxikit.corpus import Expression, Platform, ToxiSample, write_corpus

    topics = list(Topic)
    samples = []

    def add(toxic, hate, groups, expression):
        i = len(samples)
        samples.append(
            ToxiSample(
                id=i + 1,
                platform=Platform.ZHIHU if i % 2 else Platform.TIEBA,
                topic=topics[i % len(topics)],
                text=f"样本文字第{i}号",
                toxic=toxic,
                hate=hate,
                groups=frozenset(groups),
                expression=expression,
            )
        )

    for _ in range(5_550):
        add(0, 0, (), None)
    for _ in range(816):
        add(1, 0, (), None)

    # Group multiset: 6,540 slots over 5,645 hate samples ⇒ 895 two-group
    # samples; pairing sexism+racism keeps every single-group count ≥ 0.
    group_plans = (
        [(TargetGroup.SEXISM, TargetGroup.RACISM)] * 895
        + [(TargetGroup.SEXISM,)] * (2_302 - 895)
        + [(TargetGroup.RACISM,)] * (1_874 - 895)
        + [(TargetGroup.REGIONAL_BIAS,)] * 1_289
        + [(TargetGroup.ANTI_LGBTQ,)] * 1_075
    )
    expressions = (
        [Expression.EXPLICIT] * 2_737
        + [Expression.IMPLICIT] * 1_995
        + [Expression.REPORTING] * 913
    )
    assert len(group_plans) == len(expressions) == 5_645
    for groups, expression in zip(group_plans, expressions):
        add(1, 1, groups, expression)

    path = tmp_path / "clone.jsonl"
    write_corpus(path, samples)
    _check_reference_census(read_corpus(path))


# ------------------------------------------------------------------ 8


def test_criterion_8_variant_fixtures():
    """The four derivation rules reproduce their reference examples."""
    start = time.perf_counter()
    pinyin = PinyinTable.load(pinyin_path())
    glyph = GlyphTable.load(glyph_path())

    assert gen_abbreviation("同性恋", pinyin).variant == "txl"
    homophones = {c.variant for c in gen_homophones("南蛮", pinyin, "满曼男慢")}
    assert "南满" in homophones
    assert expand_deformation("默", glyph).components == ("黑", "犬")
    assert detect_code_mixing("ni哥").mixed is True
    assert time.perf_counter() - start < 1.0


# ------------------------------------------------------------------ 9


def test_criterion_9_pseudo_fixpoint():
    """Lexicon growth terminates in the hand-simulated round count and the
    pseudo-toxic set only ever grows between rounds."""
    start = time.perf_counter()
    seed_lex = Lexicon(
        [InsultEntry(term="骂", category=Category.GENERAL, surface=Surface.EXPLICIT)]
    )
    corpus = [
        (0, "骂蛆一句"),
        (1, "骂蛆两句"),
        (2, "骂蛆三句"),
        (3, "骂蛆四句"),
        (4, "蛆虫飞呀"),
        (5, "蛆虫爬呀"),
    ]
    # Hand simulation: round 1 labels {0..3} toxic and admits 蛆; round 2
    # labels {4, 5} toxic too and admits 虫; round 3 admits nothing.
    result = iterate_to_fixpoint(
        corpus, seed_lex, ["蛆", "虫"], min_freq=2, min_score=1.5
    )
    assert result.iterations == 3
    assert result.added_per_round == (("蛆",), ("虫",))
    assert all(row.pseudo_label is PseudoLabel.TOXIC for row in result.labels)

    lex = seed_lex
    previous_toxic: set[int] = set()
    for added in result.added_per_round + ((),):
        labeled = pseudo_label(corpus, lex)
        toxic_ids = {r.sample_id for r in labeled if r.pseudo_label is PseudoLabel.TOXIC}
        assert previous_toxic <= toxic_ids, "pseudo-toxic set shrank between rounds"
        previous_toxic = toxic_ids
        lex = lex.extended(
            InsultEntry(term=t, category=Category.GENERAL, surface=Surface.EXPLICIT)
            for t in added
        )
    assert previous_toxic == {0, 1, 2, 3, 4, 5}
    assert time.perf_counter() - start < 1.0
