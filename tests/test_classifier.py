import base64
import json
import math
import re
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from oracles import padded_tke_backward, padded_tke_forward
from synthcorpus import labeled_corpus
from toxikit.classifier import (
    GROUP_ORDER,
    UNK_ID,
    ClassifierError,
    EncodedSet,
    LexiconMismatchError,
    ModelParams,
    Task,
    TkeConfig,
    Vocab,
    _AdamW,
    _batch_loss,
    _eval_loss_acc,
    _flat_grads,
    _forward_batch,
    class_weights_for,
    eligible_samples,
    encode_corpus,
    grad_check,
    init_params,
    load_checkpoint,
    loss_and_grads,
    predict,
    save_checkpoint,
    task_label,
    train,
)
from toxikit.cli import _random_check_batch
from toxikit.corpus import Expression, Platform, TargetGroup, Topic, ToxiSample
from toxikit.lexicon import Category, InsultEntry, Lexicon, RuleTag, Surface
from toxikit.resources import lexicon_path
from toxikit.lexicon import load_lexicon


def tiny_lex():
    return Lexicon(
        [
            InsultEntry(term="老黑", category=Category.RACISM, surface=Surface.EXPLICIT),
            InsultEntry(term="女拳", category=Category.SEXISM, surface=Surface.IMPLICIT),
        ]
    )


def sample(i=0, text="文字老黑文", toxic=1, hate=0, groups=(), expression=None):
    return ToxiSample(
        id=i,
        platform=Platform.TIEBA,
        topic=Topic.RACE,
        text=text,
        toxic=toxic,
        hate=hate,
        groups=frozenset(groups),
        expression=expression,
    )


# ---------------------------------------------------------------- vocab

def test_vocab_order_frequency_then_codepoint():
    vocab = Vocab.build(["aa", "ab"])
    # 'a' ×3 then 'b' ×1; reserved ids 0/1
    assert vocab.token_to_id == {"a": 2, "b": 3}
    assert len(vocab) == 4


def test_vocab_ties_break_by_codepoint():
    vocab = Vocab.build(["ba"])
    assert vocab.token_to_id == {"a": 2, "b": 3}


def test_vocab_deterministic():
    corpus = ["你好吗", "好得很"]
    assert Vocab.build(corpus).token_to_id == Vocab.build(corpus).token_to_id


def test_vocab_encode_unknown_to_unk():
    vocab = Vocab.build(["ab"])
    assert vocab.encode("axb") == [2, UNK_ID, 3]


def test_vocab_empty_corpus_rejected():
    with pytest.raises(ClassifierError):
        Vocab.build([])


# ---------------------------------------------------------------- encoding

def test_encode_pads_and_truncates():
    cfg = TkeConfig(task=Task.TOXIC, pad_len=6)
    vocab = Vocab.build(["文字老黑文"])
    enc = encode_corpus([sample()], vocab, tiny_lex(), cfg)
    # the text's 5 tokens and nothing after them
    assert enc.tok.shape == (5,)
    assert list(enc.tok) == vocab.encode("文字老黑文")
    assert list(enc.tox) == [0, 0, 2, 2, 0]
    assert list(enc.offsets) == [0, 5]
    assert list(enc.labels) == [1]

    short_cfg = TkeConfig(task=Task.TOXIC, pad_len=3)
    enc = encode_corpus([sample()], vocab, tiny_lex(), short_cfg)
    assert enc.tok.shape == (3,)
    assert list(enc.tox) == [0, 0, 2]
    assert list(enc.offsets) == [0, 3]


def test_encodings_hold_only_the_texts_tokens():
    lex = load_lexicon(lexicon_path())
    corpus = labeled_corpus(300, seed=11, lex=lex)
    cfg = TkeConfig(task=Task.TOXIC, pad_len=24)
    vocab = Vocab.build(s.text for s in corpus)
    encoded = encode_corpus(corpus, vocab, lex, cfg)
    held = encoded.tok.nbytes + encoded.tox.nbytes
    # an int32 token id and an int8 category id per kept character, none for padding
    assert encoded.tok.dtype == np.int32 and encoded.tox.dtype == np.int8
    assert held == 5 * sum(min(len(s.text), cfg.pad_len) for s in corpus)


@pytest.mark.parametrize("task", [Task.TOXIC, Task.GROUP])
def test_take_equals_encoding_the_taken_samples(task):
    lex = load_lexicon(lexicon_path())
    corpus = eligible_samples(labeled_corpus(80, seed=13, lex=lex), task)
    cfg = TkeConfig(task=task, pad_len=10)
    vocab = Vocab.build(s.text for s in corpus)
    perm = np.random.default_rng(3).permutation(len(corpus))
    taken = encode_corpus(corpus, vocab, lex, cfg).take(perm)
    direct = encode_corpus([corpus[i] for i in perm], vocab, lex, cfg)
    for field in fields(EncodedSet):
        got, want = getattr(taken, field.name), getattr(direct, field.name)
        assert got.dtype == want.dtype and got.shape == want.shape, field.name
        np.testing.assert_array_equal(got, want)


def test_eligible_samples_gold_cascade():
    samples = [
        sample(0, toxic=0),
        sample(1, toxic=1),
        sample(
            2,
            toxic=1,
            hate=1,
            groups=(TargetGroup.RACISM,),
            expression=Expression.EXPLICIT,
        ),
    ]
    assert len(eligible_samples(samples, Task.TOXIC)) == 3
    assert [s.id for s in eligible_samples(samples, Task.TYPE)] == [1, 2]
    assert [s.id for s in eligible_samples(samples, Task.GROUP)] == [2]
    assert [s.id for s in eligible_samples(samples, Task.EXPRESSION)] == [2]


def test_task_label_values_and_errors():
    hate = sample(
        0,
        toxic=1,
        hate=1,
        groups=(TargetGroup.SEXISM, TargetGroup.ANTI_LGBTQ),
        expression=Expression.REPORTING,
    )
    assert task_label(hate, Task.TOXIC) == 1
    assert task_label(hate, Task.TYPE) == 1
    np.testing.assert_array_equal(task_label(hate, Task.GROUP), [1.0, 0.0, 0.0, 1.0])
    assert task_label(hate, Task.EXPRESSION) == 2
    assert GROUP_ORDER[0] is TargetGroup.SEXISM

    with pytest.raises(ClassifierError, match="type task"):
        task_label(sample(toxic=0), Task.TYPE)
    with pytest.raises(ClassifierError, match="group task"):
        task_label(sample(toxic=1, hate=0), Task.GROUP)


# ---------------------------------------------------------------- embedding

def _fixture_params(d=2, h=2, k=2, vocab_size=4):
    W = np.zeros((vocab_size, d))
    W[2] = (0.1, -0.2)
    W[3] = (0.3, 0.05)
    C = np.zeros((6, d))
    C[0] = (0.01, 0.02)
    C[1] = (-0.1, 0.4)
    U = np.array([[0.5, -0.3], [0.2, 0.1]])
    b_h = np.array([0.01, -0.02])
    V = np.array([[1.0, -1.0], [0.5, 0.25]])
    b = np.array([0.0, 0.1])
    return ModelParams(W=W, C=C, U=U, b_h=b_h, V=V, b=b)


def _set(tokens, toxic, labels):
    """An EncodedSet of per-sample token id lists, category id lists and labels."""
    return EncodedSet(
        tok=np.array([t for ids in tokens for t in ids], dtype=np.int64),
        tox=np.array([c for ids in toxic for c in ids], dtype=np.int64),
        offsets=np.cumsum([0] + [len(ids) for ids in tokens]),
        labels=np.array(labels),
    )


def _enc(tokens, toxic, label=0):
    """A set of one sample."""
    return _set([tokens], [toxic], [label])


def _cfg(**kw):
    base = dict(task=Task.TOXIC, d=2, h=2, pad_len=5, seed=1, dropout=0.0)
    base.update(kw)
    return TkeConfig(**base)


def _embed_rows(enc, params, lam):
    """Per-token rows W[token_i] + λ·C[toxic_i], read off the batch forward.

    Each token goes in as its own one-token sample, so the mean-pooled
    vector the forward caches is exactly that token's row.
    """
    cfg = _cfg(d=params.W.shape[1], pad_len=1, lam=lam)
    n = len(enc.tok)
    one_token_each = EncodedSet(enc.tok, enc.tox, np.arange(n + 1), np.zeros(n, dtype=np.int64))
    _, (_, _, _, _, _, pooled, _, _) = _forward_batch(one_token_each, params, cfg)
    return pooled


def test_embed_lambda_zero_is_plain_rows():
    params = _fixture_params()
    enc = _enc([2, 3], [0, 1])
    np.testing.assert_array_equal(_embed_rows(enc, params, 0.0), params.W[[2, 3]])


def test_embed_all_nontoxic_adds_c0():
    params = _fixture_params()
    enc = _enc([2, 3], [0, 0])
    expected = params.W[[2, 3]] + params.C[0]
    np.testing.assert_allclose(_embed_rows(enc, params, 1.0), expected, rtol=0, atol=0)


def test_embed_hand_arithmetic():
    params = _fixture_params()
    params.W[2] = (1.0, 0.0)
    params.C[1] = (0.0, 2.0)
    enc = _enc([2, 2], [1, 0])
    rows = _embed_rows(enc, params, 0.5)
    np.testing.assert_allclose(rows[0], [1.0, 1.0], rtol=0, atol=0)


def test_embed_range_checks():
    params = _fixture_params(vocab_size=4)
    for enc in (_enc([9], [0]), _enc([2], [7]), _enc([-1], [0])):
        with pytest.raises(ClassifierError, match="token or toxic id out of range"):
            train(enc, _cfg(), vocab_size=4)
        with pytest.raises(ClassifierError, match="token or toxic id out of range"):
            grad_check(params, enc, _cfg())


def test_predict_rejects_out_of_range_ids():
    params = _fixture_params(vocab_size=4)
    bad = [
        _enc([9], [0]),  # token id past the vocabulary
        _enc([-1, 2], [0, 0]),  # negative token id
        _enc([2], [7]),  # category id past C
        _enc([0, 2], [0, 0]),  # id 0 is reserved and never encoded
    ]
    for enc in bad:
        with pytest.raises(ClassifierError, match="out of range"):
            predict(enc, params, _cfg())


# ---------------------------------------------------------------- parameter buffer

def test_init_params_draws_the_blocks_in_order_from_one_stream():
    cfg = TkeConfig(task=Task.EXPRESSION, d=5, h=4, seed=13)
    rng = np.random.default_rng(cfg.seed)
    shapes = {"W": (9, 5), "C": (6, 5), "U": (5, 4), "b_h": (4,), "V": (4, 3), "b": (3,)}
    drawn = {name: rng.uniform(-0.1, 0.1, size=shape) for name, shape in shapes.items()}
    blocks = init_params(9, cfg).blocks()
    assert list(blocks) == list(drawn)
    for name, block in blocks.items():
        assert block.tobytes() == drawn[name].astype(np.float32).tobytes(), name


def test_blocks_are_views_into_flat():
    params = init_params(7, _cfg(d=3, h=2))
    for name, block in params.blocks().items():
        assert np.shares_memory(block, params.flat), name
    params.W[4] = (1.5, -2.5, 3.5)
    np.testing.assert_array_equal(params.flat[12:15], [1.5, -2.5, 3.5])


def test_dense_blocks_follow_w_in_flat():
    params = _fixture_params()
    dense = [params.C, params.U, params.b_h, params.V, params.b]
    np.testing.assert_array_equal(params.flat[: params.W.size], params.W.ravel())
    np.testing.assert_array_equal(params.flat[params.W.size :], np.concatenate([a.ravel() for a in dense]))


def test_params_copy_shares_no_memory():
    params = init_params(5, _cfg())
    snapshot = params.copy()
    assert not np.shares_memory(snapshot.flat, params.flat)
    for a, b in zip(params.blocks().values(), snapshot.blocks().values()):
        assert not np.shares_memory(a, b) and np.shares_memory(b, snapshot.flat)
        np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------- forward

def _scores(enc, params, cfg):
    """Class scores of a one-sample set through the batch forward."""
    scores, _ = _forward_batch(enc, params, cfg)
    return scores[0]


def test_forward_zero_weights_gives_bias():
    cfg = _cfg()
    params = ModelParams(
        W=np.zeros((4, 2)),
        C=np.zeros((6, 2)),
        U=np.zeros((2, 2)),
        b_h=np.zeros(2),
        V=np.zeros((2, 2)),
        b=np.array([0.3, -0.7]),
    )
    enc = _enc([2, 3], [0, 0])
    np.testing.assert_array_equal(_scores(enc, params, cfg), [0.3, -0.7])


def test_forward_token_permutation_invariant():
    cfg = _cfg()
    params = _fixture_params()
    a = _scores(_enc([2, 3, 2], [0, 1, 0]), params, cfg)
    b = _scores(_enc([3, 2, 2], [1, 0, 0]), params, cfg)
    np.testing.assert_allclose(a, b, rtol=0, atol=1e-15)


def test_forward_matches_hand_computation():
    cfg = _cfg(lam=0.5)
    params = _fixture_params()
    enc = _enc([2, 3, 2], [0, 1, 0])
    scores = _scores(enc, params, cfg)

    # the same arithmetic spelled out scalar by scalar
    r0 = (0.1 + 0.5 * 0.01, -0.2 + 0.5 * 0.02)
    r1 = (0.3 + 0.5 * -0.1, 0.05 + 0.5 * 0.4)
    p0 = (r0[0] + r1[0] + r0[0]) / 3
    p1 = (r0[1] + r1[1] + r0[1]) / 3
    z0 = p0 * 0.5 + p1 * 0.2 + 0.01
    z1 = p0 * -0.3 + p1 * 0.1 - 0.02
    h0, h1 = math.tanh(z0), math.tanh(z1)
    s0 = h0 * 1.0 + h1 * 0.5 + 0.0
    s1 = h0 * -1.0 + h1 * 0.25 + 0.1
    assert abs(scores[0] - s0) < 1e-12
    assert abs(scores[1] - s1) < 1e-12


def test_forward_all_pad_rejected():
    cfg = _cfg()
    params = _fixture_params()
    # offsets that run backwards give a sample a negative length
    backwards = EncodedSet(np.array([2, 3]), np.array([0, 0]), np.array([0, 2, 1, 2]), np.zeros(3, dtype=np.int64))
    for enc in (_enc([], []), backwards):
        with pytest.raises(ClassifierError, match="empty sequence"):
            predict(enc, params, cfg)
        with pytest.raises(ClassifierError, match="empty sequence"):
            train(enc, cfg, vocab_size=4)


def test_prediction_depends_on_c_only_through_c0_when_nontoxic():
    cfg = TkeConfig(task=Task.TOXIC, d=8, h=8, pad_len=6, lam=0.7, seed=3)
    params = init_params(10, cfg)
    enc = _enc([2, 5, 9], [0, 0, 0])
    before = _scores(enc, params, cfg)
    params.C[1:] += 123.0  # rows for category ids never used by this input
    np.testing.assert_array_equal(_scores(enc, params, cfg), before)
    params.C[0] += 1.0
    assert not np.array_equal(_scores(enc, params, cfg), before)


# ---------------------------------------------------------------- loss

def _loss(scores, label, class_weights):
    """Weighted CE of one sample through the batch loss."""
    return _batch_loss(np.asarray(scores)[None], np.asarray(label)[None], class_weights)[0]


def test_loss_probability_one_tends_to_zero():
    loss = _loss(np.array([40.0, -40.0]), 0, np.array([1.0, 1.0]))
    assert 0.0 <= loss < 1e-12


def test_loss_weight_linearity():
    scores = np.array([0.2, -0.4, 1.1])
    base = _loss(scores, 2, np.array([1.0, 1.0, 1.0]))
    doubled = _loss(scores, 2, np.array([1.0, 1.0, 2.0]))
    assert math.isclose(doubled, 2 * base, rel_tol=1e-12)


def test_loss_uniform_two_class_ln2():
    loss = _loss(np.array([0.0, 0.0]), 0, np.array([1.0, 1.0]))
    assert math.isclose(loss, math.log(2), rel_tol=1e-15)


def test_loss_multilabel_mean_of_weighted_bce():
    scores = np.array([0.0, 0.0, 0.0, 0.0])
    label = np.array([1.0, 0.0, 1.0, 0.0])
    loss = _loss(scores, label, np.array([1.0, 1.0, 1.0, 1.0]))
    assert math.isclose(loss, math.log(2), rel_tol=1e-12)
    heavier = _loss(scores, label, np.array([2.0, 1.0, 1.0, 1.0]))
    assert math.isclose(heavier, math.log(2) * 5 / 4, rel_tol=1e-12)


def test_loss_rejects_non_finite():
    with pytest.raises(ClassifierError):
        _loss(np.array([np.inf, 0.0]), 0, np.array([1.0, 1.0]))


def test_loss_rejects_bad_weights_and_labels():
    cfg = _cfg()
    params = _fixture_params()
    with pytest.raises(ClassifierError, match="class weights must be positive"):
        grad_check(params, _enc([2, 3], [0, 1], 0), cfg, class_weights=np.array([1.0, 0.0]))
    for label in (2, -1):
        with pytest.raises(ClassifierError, match="label out of range for 2 classes"):
            grad_check(params, _enc([2, 3], [0, 1], label), cfg)
        with pytest.raises(ClassifierError, match="label out of range for 2 classes"):
            train(_enc([2, 3], [0, 1], label), cfg, vocab_size=4)


def test_class_weights_inverse_frequency_mean_one():
    cfg = _cfg()
    weights = class_weights_for([0, 0, 0, 1], cfg)
    # counts 3,1 → raw 1/3,1 → mean 2/3 → normalized 0.5, 1.5
    np.testing.assert_allclose(weights, [0.5, 1.5], rtol=1e-15)
    assert math.isclose(weights.mean(), 1.0)


def test_class_weights_clamp_absent_class():
    cfg = _cfg(task=Task.EXPRESSION)
    weights = class_weights_for([0, 0, 1], cfg)  # class 2 absent → counted as 1
    assert weights.shape == (3,)
    assert np.isfinite(weights).all()
    assert math.isclose(weights.mean(), 1.0)


# ---------------------------------------------------------------- gradients

def test_gradients_match_finite_differences():
    rng = np.random.default_rng(5)
    for task in (Task.TOXIC, Task.GROUP, Task.EXPRESSION):
        cfg = TkeConfig(task=task, d=4, h=3, pad_len=5, lam=0.5, seed=2, dropout=0.0)
        params = init_params(8, cfg)
        tokens, toxic, labels = [], [], []
        for _ in range(3):
            n = int(rng.integers(1, 6))
            tokens.append(rng.integers(2, 8, size=n))
            toxic.append(rng.integers(0, 6, size=n))
            if task is Task.GROUP:
                label = np.zeros(4)
                label[rng.integers(4)] = 1.0
            else:
                label = int(rng.integers(cfg.n_classes))
            labels.append(label)
        err = grad_check(params, _set(tokens, toxic, labels), cfg)
        assert err < 1e-4, f"{task}: {err}"


def test_grad_check_corrupt_self_test():
    cfg = _cfg(d=4, h=3)
    params = init_params(6, cfg)
    batch = _enc([2, 3, 4], [0, 1, 0], 1)
    assert grad_check(params, batch, cfg, corrupt=True) > 1e-1


def test_lambda_zero_c_gradient_exactly_zero():
    cfg = _cfg(d=4, h=3, lam=0.0)
    params = init_params(6, cfg)
    batch = _enc([2, 3], [1, 2], 1)
    _, grads, _ = loss_and_grads(batch, params, cfg, np.ones(2))
    assert np.all(grads["C"] == 0.0)


def test_w_gradient_carries_a_copy_of_the_gathered_rows():
    cfg = _cfg(d=4, h=3)
    params = init_params(6, cfg)
    rows, values, W_rows = loss_and_grads(_enc([4, 2, 4], [0, 1, 0], 1), params, cfg, np.ones(2))[1]["W"]
    np.testing.assert_array_equal(rows, [2, 4])
    assert values.shape == W_rows.shape == (2, 4)
    np.testing.assert_array_equal(W_rows, params.W[rows])
    assert not np.shares_memory(W_rows, params.flat)


def test_grad_check_batch_cap():
    cfg = _cfg()
    params = init_params(4, cfg)
    batch = _enc([2], [0], 0).take([0] * 9)
    with pytest.raises(ClassifierError):
        grad_check(params, batch, cfg)


# ---------------------------------------------------------------- bag-of-counts hot path

def _rel_err(a, b):
    """Largest entry-wise difference relative to the largest reference entry."""
    scale = np.abs(b).max()
    return float(np.abs(a - b).max() / scale) if scale else float(np.abs(a).max())


# float32 rounds each operation to 2**-24 relative; the scores and gradients
# come from chains of a few dot products over at most pad_len * batch terms
F32_REL_BOUND = 1e-5


@pytest.mark.parametrize("task", [Task.TOXIC, Task.GROUP])
@pytest.mark.parametrize("lam,enhancement", [(0.0, True), (0.5, True), (1.0, True), (0.5, False)])
def test_bag_forward_backward_match_padded_reference(task, lam, enhancement):
    """The float64 bag path matches the padded float64 reference to 1e-12, and
    the float32 path, on the same parameter values and batches, to F32_REL_BOUND."""
    rng = np.random.default_rng(17)
    cfg = TkeConfig(task=task, d=6, h=5, pad_len=12, lam=lam, enhancement=enhancement, seed=3)
    vocab_size = 7
    params32 = init_params(vocab_size, cfg)
    params = ModelParams(**{name: a.astype(np.float64) for name, a in params32.blocks().items()})
    P = params.blocks()
    ref_lam = lam if enhancement else 0.0
    weights = rng.uniform(0.5, 2.0, size=cfg.n_classes)
    for trial in range(6):
        # a small vocab_size makes tokens repeat within and across samples
        batch = _random_check_batch(rng, cfg, vocab_size, size=int(rng.integers(1, 10)))
        # the reference reads a (B, pad_len) batch padded with id 0
        tok = np.zeros((len(batch), cfg.pad_len), dtype=np.int64)
        tox = np.zeros_like(tok)
        for i, (start, end) in enumerate(zip(batch.offsets[:-1], batch.offsets[1:])):
            tok[i, : end - start] = batch.tok[start:end]
            tox[i, : end - start] = batch.tox[start:end]
        mask = None if trial % 2 else (rng.random((len(batch), cfg.d)) >= 0.3) / 0.7

        ref_scores, ref_cache = padded_tke_forward(
            tok, tox, P["W"], P["C"], P["U"], P["b_h"], P["V"], P["b"], ref_lam, mask
        )
        _, dscores = _batch_loss(ref_scores, batch.labels, weights)
        ref_grads = padded_tke_backward(
            tok, tox, P["W"], P["C"], P["U"], P["V"], ref_lam, ref_cache, dscores, mask
        )
        for run, bound in ((params, 1e-12), (params32, F32_REL_BOUND)):
            scores, _ = _forward_batch(batch, run, cfg, mask)
            assert scores.dtype == run.flat.dtype
            assert _rel_err(scores, ref_scores) <= bound

            flat = _flat_grads(loss_and_grads(batch, run, cfg, weights, mask)[1], run)
            assert flat.dtype == run.flat.dtype
            grads = ModelParams(**{name: np.empty_like(a) for name, a in run.blocks().items()})
            grads.flat[:] = flat
            assert list(grads.blocks()) == list(ref_grads)
            for name, ref in ref_grads.items():
                assert _rel_err(grads.blocks()[name], ref) <= bound, (name, run.flat.dtype)


@pytest.mark.parametrize("task", [Task.TOXIC, Task.GROUP])
def test_chunked_scoring_matches_one_batch(task):
    rng = np.random.default_rng(23)
    cfg = TkeConfig(task=task, d=6, h=5, pad_len=12, batch=8, seed=4)
    whole = replace(cfg, batch=1000)  # one chunk holds the whole set
    params = init_params(30, cfg)
    test_set = _random_check_batch(rng, cfg, 30, size=53)

    labels, probs = predict(test_set, params, cfg)
    ref_labels, ref_probs = predict(test_set, params, whole)
    np.testing.assert_array_equal(labels, ref_labels)
    assert _rel_err(probs, ref_probs) <= 1e-12

    weights = rng.uniform(0.5, 2.0, size=cfg.n_classes)
    loss, acc = _eval_loss_acc(test_set, params, cfg, weights)
    ref_loss, ref_acc = _eval_loss_acc(test_set, params, whole, weights)
    assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
    assert acc == ref_acc


def test_predict_memory_grows_with_batch_not_set_size():
    rng = np.random.default_rng(29)
    cfg = TkeConfig(task=Task.TOXIC, d=32, h=16, pad_len=50, batch=64, seed=1)
    params = init_params(400, cfg)
    test_set = _random_check_batch(rng, cfg, 400, size=2000)
    # one (2000, pad_len, d) float64 intermediate of a whole-set padded forward
    padded_bytes = len(test_set) * cfg.pad_len * cfg.d * 8
    tracemalloc.start()
    try:
        predict(test_set, params, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < padded_bytes / 8, f"peak {peak} bytes"


def _adamw_params(rng, vocab_size, d=3, h=2, k=2):
    return ModelParams(
        W=rng.normal(size=(vocab_size, d)),
        C=rng.normal(size=(6, d)),
        U=rng.normal(size=(d, h)),
        b_h=rng.normal(size=h),
        V=rng.normal(size=(h, k)),
        b=rng.normal(size=k),
    )


def test_adamw_in_place_matches_textbook_expression():
    """The step writes into the existing parameter and moment buffers, and
    the five dense blocks get bitwise the textbook update while W's
    gradient lists only some rows."""
    rng = np.random.default_rng(30)
    lr, wd = 1e-2, 0.01
    params = _adamw_params(rng, vocab_size=5)
    dense = {k: a.copy() for k, a in params.blocks().items() if k != "W"}
    m = {k: np.zeros_like(a) for k, a in dense.items()}
    v = {k: np.zeros_like(a) for k, a in dense.items()}
    optimizer = _AdamW(params, lr=lr, weight_decay=wd)
    held = (params.flat, optimizer.m, optimizer.v, *params.blocks().values())
    for t in range(1, 21):
        grads = {k: rng.normal(size=a.shape) for k, a in dense.items()}
        rows = np.flatnonzero(rng.random(5) < 0.5)
        optimizer.step(params, grads | {"W": (rows, rng.normal(size=(len(rows), 3)), params.W[rows])})
        for k, g in grads.items():
            m[k] = 0.9 * m[k] + (1 - 0.9) * g
            v[k] = 0.999 * v[k] + (1 - 0.999) * g * g
            mhat = m[k] / (1 - 0.9 ** t)
            vhat = v[k] / (1 - 0.999 ** t)
            dense[k] -= lr * (mhat / (np.sqrt(vhat) + 1e-8) + wd * dense[k])
    now = (params.flat, optimizer.m, optimizer.v, *params.blocks().values())
    assert all(a is b for a, b in zip(held, now))
    assert all(np.shares_memory(a, params.flat) for a in params.blocks().values())
    for k in dense:
        np.testing.assert_array_equal(params.blocks()[k], dense[k])


def test_adamw_lazy_step_on_every_row_matches_textbook_expression():
    """20 AdamW steps on all six blocks against the textbook expression,
    bitwise; W's gradient comes row-sparse, listing every row."""
    rng = np.random.default_rng(31)
    lr = 1e-2
    for wd in (0.0, 0.01):
        params = _adamw_params(rng, vocab_size=6)
        ref = {k: v.copy() for k, v in params.blocks().items()}
        m = {k: np.zeros_like(v) for k, v in ref.items()}
        v = {k: np.zeros_like(v) for k, v in ref.items()}
        optimizer = _AdamW(params, lr=lr, weight_decay=wd)
        for t in range(1, 21):
            grads = {k: rng.normal(size=p.shape) * (rng.random(p.shape) < 0.5) for k, p in ref.items()}
            optimizer.step(params, grads | {"W": (np.arange(6), grads["W"], params.W[np.arange(6)])})
            for k, g in grads.items():
                m[k] = 0.9 * m[k] + (1 - 0.9) * g
                v[k] = 0.999 * v[k] + (1 - 0.999) * g * g
                mhat = m[k] / (1 - 0.9 ** t)
                vhat = v[k] / (1 - 0.999 ** t)
                ref[k] -= lr * (mhat / (np.sqrt(vhat) + 1e-8) + wd * ref[k])
        for k in ref:
            np.testing.assert_array_equal(params.blocks()[k], ref[k])


def test_adamw_lazy_step_leaves_untouched_rows_alone():
    rng = np.random.default_rng(37)
    params = _adamw_params(rng, vocab_size=8)
    init = params.W.copy()
    optimizer = _AdamW(params, lr=1e-2, weight_decay=0.01)
    moment_rows = [a[: params.W.size].reshape(params.W.shape) for a in (optimizer.m, optimizer.v)]
    dense = {k: np.zeros_like(a) for k, a in params.blocks().items() if k != "W"}
    for _ in range(10):
        rows = np.flatnonzero(rng.random(7) < 0.5)  # row 7 is never listed
        before = [a.copy() for a in (params.W, *moment_rows)]
        optimizer.step(params, dense | {"W": (rows, rng.normal(size=(len(rows), 3)), params.W[rows])})
        still = np.setdiff1d(np.arange(8), rows)
        for old, new in zip(before, (params.W, *moment_rows)):
            np.testing.assert_array_equal(new[still], old[still])
    np.testing.assert_array_equal(params.W[7], init[7])
    assert not moment_rows[0][7].any() and not moment_rows[1][7].any()


@pytest.mark.parametrize("task", [Task.TOXIC, Task.GROUP])
def test_float32_step_stays_float32(task):
    """float64 class weights, dropout mask and multilabel targets are cast, not
    promoted: every gradient, moment and block of a float32 model stays float32."""
    rng = np.random.default_rng(41)
    cfg = TkeConfig(task=task, d=6, h=5, pad_len=12, seed=3)
    params = init_params(9, cfg)
    optimizer = _AdamW(params, lr=1e-2, weight_decay=0.01)
    for _ in range(3):
        batch = _random_check_batch(rng, cfg, 9, size=6)
        mask = (rng.random((len(batch), cfg.d)) >= 0.5) / 0.5
        weights = rng.uniform(0.5, 2.0, size=cfg.n_classes)
        assert batch.labels.dtype != np.float32 and mask.dtype == weights.dtype == np.float64
        loss, grads, scores = loss_and_grads(batch, params, cfg, weights, mask)
        optimizer.step(params, grads)
        rows, values, W_rows = grads.pop("W")
        assert math.isfinite(loss) and scores.dtype == values.dtype == W_rows.dtype == np.float32
        assert {g.dtype for g in grads.values()} == {np.dtype(np.float32)}
    assert params.flat.dtype == optimizer.m.dtype == optimizer.v.dtype == np.float32
    assert {a.dtype for a in params.blocks().values()} == {np.dtype(np.float32)}


# ---------------------------------------------------------------- training

def _train_corpus(lex, n=40, seed=0):
    return labeled_corpus(n, seed, lex)


def test_train_loss_is_size_weighted_minibatch_mean(monkeypatch):
    import toxikit.classifier as classifier

    lex = load_lexicon(lexicon_path())
    corpus = _train_corpus(lex, n=45)
    cfg = TkeConfig(task=Task.TOXIC, d=8, h=8, pad_len=12, epochs=3, batch=8, seed=4)
    vocab = Vocab.build(s.text for s in corpus)
    enc = encode_corpus(corpus, vocab, lex, cfg)
    calls = []

    def recording(batch, *args, **kwargs):
        result = loss_and_grads(batch, *args, **kwargs)
        calls.append((result[0], len(batch)))
        return result

    monkeypatch.setattr(classifier, "loss_and_grads", recording)
    _, history = train(enc, cfg, vocab_size=len(vocab))
    n_fit = len(enc) - max(1, int(len(enc) * cfg.val_fraction))
    per_epoch = math.ceil(n_fit / cfg.batch)  # the last minibatch is short
    assert len(history) == cfg.epochs and len(calls) == cfg.epochs * per_epoch
    for stats in history:
        epoch = calls[stats.epoch * per_epoch : (stats.epoch + 1) * per_epoch]
        assert sum(n for _, n in epoch) == n_fit
        loss_sum = 0.0
        for loss, n in epoch:
            loss_sum += loss * n
        assert stats.train_loss == loss_sum / n_fit


def test_train_steps_with_the_current_rows_of_w(monkeypatch):
    # _AdamW.step writes the gradient's copy of W's rows back unchecked, so a
    # stale copy would silently revert rows; train must hand it a fresh one
    lex = load_lexicon(lexicon_path())
    corpus = _train_corpus(lex, n=45)
    cfg = TkeConfig(task=Task.TOXIC, d=8, h=8, pad_len=12, epochs=3, batch=8, seed=4)
    vocab = Vocab.build(s.text for s in corpus)
    enc = encode_corpus(corpus, vocab, lex, cfg)
    real = _AdamW.step
    steps = []

    def checking(self, params, grads):
        rows, _, W_rows = grads["W"]
        np.testing.assert_array_equal(W_rows, params.W[rows])
        steps.append(len(rows))
        real(self, params, grads)

    monkeypatch.setattr(_AdamW, "step", checking)
    train(enc, cfg, vocab_size=len(vocab))
    assert len(steps) == cfg.epochs * math.ceil((len(enc) - max(1, int(len(enc) * cfg.val_fraction))) / cfg.batch)


def test_train_deterministic_per_seed():
    lex = load_lexicon(lexicon_path())
    corpus = _train_corpus(lex)
    cfg = TkeConfig(task=Task.TOXIC, d=8, h=8, pad_len=12, epochs=3, seed=4)
    vocab = Vocab.build(s.text for s in corpus)
    enc = encode_corpus(corpus, vocab, lex, cfg)
    p1, h1 = train(enc, cfg, vocab_size=len(vocab))
    p2, h2 = train(enc, cfg, vocab_size=len(vocab))
    for a, b in zip(p1.blocks().values(), p2.blocks().values()):
        np.testing.assert_array_equal(a, b)
    assert h1 == h2

    p3, _ = train(enc, TkeConfig(task=Task.TOXIC, d=8, h=8, pad_len=12, epochs=3, seed=5), vocab_size=len(vocab))
    assert any(
        not np.array_equal(a, b) for a, b in zip(p1.blocks().values(), p3.blocks().values())
    )


def test_train_lr_zero_leaves_params_at_init():
    lex = load_lexicon(lexicon_path())
    corpus = _train_corpus(lex, n=20)
    cfg = TkeConfig(task=Task.TOXIC, d=8, h=8, pad_len=12, epochs=2, seed=4, lr=0.0)
    vocab = Vocab.build(s.text for s in corpus)
    enc = encode_corpus(corpus, vocab, lex, cfg)
    params, _ = train(enc, cfg, vocab_size=len(vocab))
    init = init_params(len(vocab), cfg)
    for a, b in zip(params.blocks().values(), init.blocks().values()):
        np.testing.assert_array_equal(a, b)


def test_train_returns_best_validation_snapshot():
    lex = load_lexicon(lexicon_path())
    corpus = _train_corpus(lex, n=30, seed=7)
    cfg = TkeConfig(
        task=Task.TOXIC, d=8, h=8, pad_len=12, epochs=40, seed=9, lr=5e-2, patience=40
    )
    vocab = Vocab.build(s.text for s in corpus)
    enc = encode_corpus(corpus, vocab, lex, cfg)
    params, history = train(enc, cfg, vocab_size=len(vocab))
    best = min(range(len(history)), key=lambda e: history[e].val_loss)  # the first epoch at the least loss
    assert best < len(history) - 1, "the snapshot must not be the last epoch"

    # a run stopped at the best epoch ends on it, so it returns that epoch's parameters
    stopped, stopped_history = train(enc, replace(cfg, epochs=best + 1), vocab_size=len(vocab))
    assert stopped_history == history[: best + 1]
    assert stopped.flat.tobytes() == params.flat.tobytes()


@pytest.mark.parametrize("n", [5, 7, 9])
def test_train_carves_out_one_validation_sample_from_five_samples_up(n):
    """0.1 of 5-9 samples rounds down to none; the carve-out still takes one."""
    lex = load_lexicon(lexicon_path())
    corpus = _train_corpus(lex, n=n, seed=3)
    cfg = TkeConfig(task=Task.TOXIC, d=8, h=8, pad_len=12, epochs=2, seed=4, val_fraction=0.1)
    vocab = Vocab.build(s.text for s in corpus)
    _, history = train(encode_corpus(corpus, vocab, lex, cfg), cfg, vocab_size=len(vocab))
    assert history[0].val_loss is not None and history[0].val_accuracy in (0.0, 1.0)


def test_early_stopping_cuts_run_short():
    lex = load_lexicon(lexicon_path())
    corpus = _train_corpus(lex, n=30, seed=8)
    cfg = TkeConfig(
        task=Task.TOXIC, d=8, h=8, pad_len=12, epochs=400, seed=2, lr=5e-2, patience=2
    )
    vocab = Vocab.build(s.text for s in corpus)
    enc = encode_corpus(corpus, vocab, lex, cfg)
    _, history = train(enc, cfg, vocab_size=len(vocab))
    assert len(history) < 400


@pytest.mark.parametrize("n, val_fraction", [(40, 0.0), (4, 0.1)], ids=["val_fraction_0", "four_samples"])
def test_train_without_validation_runs_every_epoch_and_returns_the_last(n, val_fraction):
    """No carve-out (val_fraction=0, or fewer than 5 samples): no early stop,
    no validation scores, and the last epoch's parameters come back."""
    lex = load_lexicon(lexicon_path())
    corpus = _train_corpus(lex, n=n, seed=3)
    cfg = TkeConfig(task=Task.TOXIC, d=8, h=8, pad_len=12, epochs=3, seed=4, patience=1, val_fraction=val_fraction)
    vocab = Vocab.build(s.text for s in corpus)
    enc = encode_corpus(corpus, vocab, lex, cfg)
    params, history = train(enc, cfg, vocab_size=len(vocab))
    assert [stats.epoch for stats in history] == [0, 1, 2]
    assert all(stats.val_loss is None and stats.val_accuracy is None for stats in history)
    shorter, short_history = train(enc, replace(cfg, epochs=2), vocab_size=len(vocab))
    assert short_history == history[:2]
    assert all(not np.array_equal(a, b) for a, b in zip(params.blocks().values(), shorter.blocks().values()))


def test_train_empty_set_rejected():
    no_offsets = EncodedSet(np.array([2]), np.array([0]), np.array([], dtype=np.int64), np.zeros(0, dtype=np.int64))
    for empty in (_set([], [], []), no_offsets):
        with pytest.raises(ClassifierError, match="empty set"):
            train(empty, _cfg(), vocab_size=4)


def test_train_refuses_a_bad_id_in_the_last_sample_before_any_step(monkeypatch):
    import toxikit.classifier as classifier

    cfg = TkeConfig(task=Task.TOXIC, d=4, h=3, pad_len=6, epochs=2, batch=8, seed=3)
    good = _random_check_batch(np.random.default_rng(5), cfg, 12, size=40)
    tok = good.tok.copy()
    tok[-1] = 12  # one past the vocabulary, in the last sample only
    steps = []
    real_step = classifier._AdamW.step
    monkeypatch.setattr(classifier._AdamW, "step", lambda self, *a: steps.append(1) or real_step(self, *a))
    train(good, cfg, vocab_size=12)
    assert steps, "the spy saw no step of a good set"
    steps.clear()
    with pytest.raises(ClassifierError, match="token or toxic id out of range"):
        train(EncodedSet(tok, good.tox, good.offsets, good.labels), cfg, vocab_size=12)
    assert steps == []


@pytest.mark.parametrize(
    "task, labels",
    [
        (Task.GROUP, np.ones((8, 1))),  # the BCE would broadcast one flag over the four groups
        (Task.GROUP, np.ones(8)),
        (Task.TOXIC, np.zeros((8, 1), dtype=np.int64)),
        (Task.TOXIC, np.zeros((8, 2), dtype=np.int64)),
        (Task.TYPE, np.zeros(8)),  # float class indices
        (Task.EXPRESSION, np.zeros(7, dtype=np.int64)),  # one label short
    ],
)
def test_labels_that_do_not_fit_the_task_are_refused(task, labels):
    cfg = TkeConfig(task=task, d=4, h=3, pad_len=6, epochs=1, batch=4, seed=1)
    tokens = [[2, 3], [3], [2, 2, 3], [3, 2], [2], [3, 3], [2, 3, 3], [3, 2, 2]]
    bad = _set(tokens, [[0] * len(t) for t in tokens], labels)
    for run in (lambda: train(bad, cfg, vocab_size=4), lambda: predict(bad, init_params(4, cfg), cfg)):
        with pytest.raises(ClassifierError, match=rf"task {task.value} needs .*got {labels.dtype} labels of shape "
                                                  rf"{re.escape(str(labels.shape))}"):
            run()


@pytest.mark.parametrize("tox, offsets", [([0, 0, 0], [1, 3]), ([0, 0, 0], [0, 5]), ([0, 0], [0, 1, 3])],
                         ids=["offsets_start_past_0", "offsets_end_past_the_ids", "tox_shorter_than_tok"])
def test_offsets_must_span_the_ids_exactly(tox, offsets):
    # offsets [1, 3] trained on without token 0, and [0, 5] failed in NumPy
    cfg = TkeConfig(task=Task.TOXIC, d=4, h=3, pad_len=6, epochs=1, batch=4, seed=1)
    bad = EncodedSet(np.array([2, 3, 2]), np.array(tox), np.array(offsets), np.zeros(len(offsets) - 1, dtype=np.int64))
    for run in (lambda: train(bad, cfg, vocab_size=4), lambda: predict(bad, init_params(4, cfg), cfg)):
        with pytest.raises(ClassifierError, match=rf"got offsets {offsets[0]} to {offsets[-1]}, 3 token ids "
                                                  rf"and {len(tox)} category ids"):
            run()


# ---------------------------------------------------------------- predict

def test_predict_single_label_argmax():
    cfg = _cfg()
    params = ModelParams(
        W=np.zeros((4, 2)),
        C=np.zeros((6, 2)),
        U=np.zeros((2, 2)),
        b_h=np.zeros(2),
        V=np.zeros((2, 2)),
        b=np.array([2.0, -1.0]),
    )
    labels, probs = predict(_enc([2], [0], 0), params, cfg)
    assert labels.tolist() == [0]
    assert probs.shape == (1, 2)
    assert math.isclose(probs[0].sum(), 1.0)


@pytest.mark.parametrize("task", [Task.TOXIC, Task.EXPRESSION, Task.GROUP])
def test_predict_float32_model_gives_float64_probabilities(task):
    rng = np.random.default_rng(43)
    cfg = TkeConfig(task=task, d=6, h=5, pad_len=12, batch=8, seed=5)
    params = init_params(30, cfg)  # float32: its own softmax rows would miss 1 by ~1e-7
    assert params.flat.dtype == np.float32
    test_set = _random_check_batch(rng, cfg, 30, size=53)
    labels, probs = predict(test_set, params, cfg)
    assert probs.dtype == np.float64
    scores = _forward_batch(test_set, params, cfg)[0].astype(np.float64)
    if cfg.multilabel:
        np.testing.assert_allclose(probs, 1.0 / (1.0 + np.exp(-scores)), rtol=1e-12, atol=0)
    else:
        assert np.abs(probs.sum(axis=1) - 1.0).max() <= 1e-12
        np.testing.assert_array_equal(labels, scores.argmax(axis=1))


def test_predict_group_threshold_and_fallback():
    cfg = TkeConfig(task=Task.GROUP, d=2, h=2, pad_len=3, seed=1)

    def with_bias(bias):
        return ModelParams(
            W=np.zeros((4, 2)),
            C=np.zeros((6, 2)),
            U=np.zeros((2, 2)),
            b_h=np.zeros(2),
            V=np.zeros((2, 4)),
            b=np.array(bias),
        )

    enc = _enc([2], [0], np.array([1.0, 0, 0, 0]))
    # sigmoid: 0.9, 0.6, 0.1, 0.2 ≈ logits 2.2, 0.4, -2.2, -1.4
    labels, _ = predict(enc, with_bias([2.2, 0.4, -2.2, -1.4]), cfg)
    assert labels[0].tolist() == [1.0, 1.0, 0.0, 0.0]

    # all below 0.5: highest (regional_bias, index 2) wins the fallback
    labels, _ = predict(enc, with_bias([-3.0, -2.0, -0.5, -1.0]), cfg)
    assert labels[0].tolist() == [0.0, 0.0, 1.0, 0.0]


def test_predict_shape_mismatch_rejected():
    cfg = TkeConfig(task=Task.EXPRESSION, d=2, h=2, pad_len=3, seed=1)
    params = init_params(4, _cfg())  # toxic head: 2 classes, expression needs 3
    with pytest.raises(ClassifierError):
        predict(_enc([2], [0], 0), params, cfg)


# ---------------------------------------------------------------- ablation

def test_lambda_zero_equals_ablated_build():
    lex = load_lexicon(lexicon_path())
    corpus = _train_corpus(lex, n=60, seed=3)
    vocab = Vocab.build(s.text for s in corpus)
    outputs = []
    for lam, enhancement in ((0.0, True), (0.5, False)):
        cfg = TkeConfig(
            task=Task.TOXIC, d=8, h=8, pad_len=12, epochs=3, seed=6,
            lam=lam, enhancement=enhancement,
        )
        enc = encode_corpus(corpus, vocab, lex, cfg)
        params, _ = train(enc, cfg, vocab_size=len(vocab))
        labels, probs = predict(enc, params, cfg)
        outputs.append((params, labels, probs))
    (pa, la, ra), (pb, lb, rb) = outputs
    for a, b in zip(pa.blocks().values(), pb.blocks().values()):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(la, lb)
    np.testing.assert_array_equal(ra, rb)


# ---------------------------------------------------------------- checkpoints

def _pack(values) -> str:
    """A v3 checkpoint's params: base64 of little-endian float32 bytes."""
    return base64.b64encode(np.asarray(values, dtype="<f4").tobytes()).decode("ascii")


def _unpack(data: str) -> np.ndarray:
    return np.frombuffer(base64.b64decode(data), "<f4")


def test_checkpoint_roundtrip_bitwise(tmp_path):
    lex = load_lexicon(lexicon_path())
    corpus = _train_corpus(lex, n=30, seed=5)
    cfg = TkeConfig(task=Task.TOXIC, d=8, h=8, pad_len=12, epochs=2, seed=7)
    vocab = Vocab.build(s.text for s in corpus)
    enc = encode_corpus(corpus, vocab, lex, cfg)
    params, _ = train(enc, cfg, vocab_size=len(vocab))

    path = tmp_path / "model.json"
    save_checkpoint(path, params, cfg, vocab, lex)
    loaded_params, loaded_cfg, loaded_vocab = load_checkpoint(path)
    assert loaded_cfg == cfg
    assert loaded_vocab.token_to_id == vocab.token_to_id
    for a, b in zip(params.blocks().values(), loaded_params.blocks().values()):
        np.testing.assert_array_equal(a, b)
        assert a.tobytes() == b.tobytes()
        assert b.dtype == np.float32 and b.flags.writeable and b.flags.c_contiguous

    before = predict(enc, params, cfg)
    after = predict(enc, loaded_params, loaded_cfg)
    np.testing.assert_array_equal(before[1], after[1])
    assert load_checkpoint(path, lex)[1] == cfg


def test_checkpoint_params_are_base64_float32(tmp_path):
    path, blob = _saved_checkpoint(tmp_path)
    params, _, vocab = load_checkpoint(path)
    assert blob["params"] == _pack(params.flat)
    assert blob["vocab"] == "字很文老黑" and vocab.token_to_id == {"字": 2, "很": 3, "文": 4, "老": 5, "黑": 6}


def test_checkpoint_config_roundtrip_every_field(tmp_path):
    cfg = TkeConfig(
        task=Task.GROUP, d=3, h=5, lam=0.25, pad_len=9, epochs=2, batch=7, lr=0.02, dropout=0.25,
        seed=11, enhancement=False, weight_decay=0.01, val_fraction=0.2, patience=5,
    )
    for f in fields(TkeConfig):
        assert getattr(cfg, f.name) != getattr(TkeConfig(), f.name), f"{f.name} kept its default"
    vocab = Vocab.build(["文字老黑"])
    path = tmp_path / "model.json"
    save_checkpoint(path, init_params(len(vocab), cfg), cfg, vocab, tiny_lex())
    assert load_checkpoint(path)[1] == cfg


def test_checkpoint_version_checked(tmp_path):
    lex = load_lexicon(lexicon_path())
    corpus = _train_corpus(lex, n=10, seed=5)
    cfg = TkeConfig(task=Task.TOXIC, d=4, h=4, pad_len=8, epochs=1, seed=7)
    vocab = Vocab.build(s.text for s in corpus)
    params, _ = train(encode_corpus(corpus, vocab, lex, cfg), cfg, vocab_size=len(vocab))
    path = tmp_path / "model.json"
    save_checkpoint(path, params, cfg, vocab, lex)
    blob = json.loads(path.read_text(encoding="utf-8"))
    for version in (99, 1, 2):  # v1 holds number lists, v2 float64 blocks; both are refused, not read
        blob["version"] = version
        path.write_text(json.dumps(blob), encoding="utf-8")
        with pytest.raises(ClassifierError, match=f"unsupported checkpoint version {version}; retrain"):
            load_checkpoint(path)


def test_checkpoint_lexicon_checked(tmp_path):
    path, _ = _saved_checkpoint(tmp_path)
    entries = list(tiny_lex())
    assert load_checkpoint(path, Lexicon(reversed(entries)))[1].task is Task.EXPRESSION  # order is not hashed
    relabelled = [replace(entries[0], surface=Surface.IMPLICIT, rule_tag=RuleTag.HOMOPHONIC), entries[1]]
    load_checkpoint(path, Lexicon(relabelled))  # nor surface or rule tag
    for other in (
        [replace(entries[0], category=Category.GENERAL), entries[1]],
        entries[:1],
        entries + [InsultEntry(term="南蛮", category=Category.REGIONAL_BIAS, surface=Surface.EXPLICIT)],
    ):
        with pytest.raises(LexiconMismatchError, match=f"{re.escape(str(path))}: trained with a different lexicon"):
            load_checkpoint(path, Lexicon(other))


def _saved_checkpoint(tmp_path):
    cfg = TkeConfig(task=Task.EXPRESSION, d=3, h=4, pad_len=8, seed=2)
    vocab = Vocab.build(["文字老黑很"])
    path = tmp_path / "model.json"
    save_checkpoint(path, init_params(len(vocab), cfg), cfg, vocab, tiny_lex())
    return path, json.loads(path.read_text(encoding="utf-8"))


def _rejected(path, blob, message=""):
    path.write_text(json.dumps(blob), encoding="utf-8")
    with pytest.raises(ClassifierError, match=re.escape(f"{path}: {message}")):
        load_checkpoint(path)


def _params_without(path, blob, block, cut=None) -> str:
    """The saved params with the last ``cut`` bytes of block ``block`` taken out, or all of its bytes."""
    blocks = load_checkpoint(path)[0].blocks()
    end = 4 * sum(a.size for a in list(blocks.values())[: list(blocks).index(block) + 1])
    raw = base64.b64decode(blob["params"])
    return base64.b64encode(raw[: end - (cut or 4 * blocks[block].size)] + raw[end:]).decode("ascii")


@pytest.mark.parametrize(
    "key", ["version", "config", "vocab", "lexicon_sha256", "params", "W", "C", "U", "b_h", "V", "b"]
)
def test_checkpoint_missing_key_rejected(tmp_path, key):
    path, blob = _saved_checkpoint(tmp_path)
    if key in blob:
        del blob[key]
    else:  # a block has no key: missing, its bytes are absent from params
        blob["params"] = _params_without(path, blob, key)
    _rejected(path, blob)


def test_checkpoint_extra_block_rejected(tmp_path):
    path, blob = _saved_checkpoint(tmp_path)
    blob["params"] = _pack([*_unpack(blob["params"]), 0.0])  # a seventh block, of one value
    _rejected(path, blob, "params does not hold the 280 bytes")


@pytest.mark.parametrize("section,key,value", [("config", "d", "x"), ("config", "task", "bogus")])
def test_checkpoint_bad_config_or_vocab_rejected(tmp_path, section, key, value):
    path, blob = _saved_checkpoint(tmp_path)
    blob[section][key] = value
    _rejected(path, blob)


@pytest.mark.parametrize("value", ["0" * 63, "A" * 64, 7, None], ids=["short", "upper-case", "number", "null"])
def test_checkpoint_bad_lexicon_digest_rejected(tmp_path, value):
    path, blob = _saved_checkpoint(tmp_path)
    blob["lexicon_sha256"] = value
    _rejected(path, blob, "lexicon_sha256 must be 64 lowercase hex digits")


_NOT_A_VOCAB = "vocab must be a non-empty string of distinct characters"


@pytest.mark.parametrize(
    "vocab,message",
    [
        (list("字很文老黑"), _NOT_A_VOCAB),
        ([["字", 2], ["很", 3]], _NOT_A_VOCAB),  # the v2 form
        (7, _NOT_A_VOCAB),
        (None, _NOT_A_VOCAB),
        ("", _NOT_A_VOCAB),
        ("字很文老黑甲", "params does not hold the 292 bytes of the blocks {'W': [8, 3]"),
    ],
    ids=["non-str", "pairs", "number", "null", "empty", "id-past-table"],
)
def test_checkpoint_bad_vocab_entry_rejected(tmp_path, vocab, message):
    # the saved vocab is 字很文老黑, ids 2 to 6; 甲, a sixth character, has no row in W
    path, blob = _saved_checkpoint(tmp_path)
    blob["vocab"] = vocab
    _rejected(path, blob, message)


def test_checkpoint_repeated_token_rejected(tmp_path):
    path, blob = _saved_checkpoint(tmp_path)
    blob["vocab"] = blob["vocab"][0] * 2 + blob["vocab"][2:]  # 字字文老黑: as long as before, one character twice
    _rejected(path, blob, _NOT_A_VOCAB)


@pytest.mark.parametrize("block", ["W", "C", "U", "b_h", "V", "b"])
def test_checkpoint_corrupt_shape_rejected(tmp_path, block):
    for cut in (4, 1):  # one float short, one byte short, inside the block: params no longer fill the shapes
        path, blob = _saved_checkpoint(tmp_path)
        blob["params"] = _params_without(path, blob, block, cut)
        _rejected(path, blob, "params does not hold the 280 bytes of the blocks")


@pytest.mark.parametrize(
    "corrupt,message",
    [
        (lambda data: None, "must be base64 text"),
        (lambda data: "0.5", "does not hold"),
        (lambda data: True, "must be base64 text"),
        (lambda data: _unpack(data).tolist(), "must be base64 text"),  # the v1 form
        (lambda data: {}, "must be base64 text"),  # the v2 form is an object of blocks
        (lambda data: _pack([math.nan, *_unpack(data)[1:]]), "must be finite"),
        (lambda data: _pack([math.inf, *_unpack(data)[1:]]), "must be finite"),
        (lambda data: _pack([-math.inf, *_unpack(data)[1:]]), "must be finite"),
        (lambda data: 0.5, "must be base64 text"),
        (lambda data: "!" + data[1:], "is not base64 text"),
        (lambda data: "é" + data[1:], "is not base64 text"),
        (lambda data: "=" + data[1:], "is not base64 text"),
    ],
    ids=["null", "string", "bool", "list", "object", "nan", "inf", "-inf", "number", "non-alphabet", "non-ascii",
         "padding"],
)
def test_checkpoint_non_number_data_rejected(tmp_path, corrupt, message):
    path, blob = _saved_checkpoint(tmp_path)
    blob["params"] = corrupt(blob["params"])
    _rejected(path, blob, f"params {message}")


# ---------------------------------------------------------------- config

def test_config_validation():
    with pytest.raises(ClassifierError):
        TkeConfig(task=Task.TOXIC, lam=1.5)
    with pytest.raises(ClassifierError):
        TkeConfig(task=Task.TOXIC, d=0)
    with pytest.raises(ClassifierError):
        TkeConfig(task=Task.TOXIC, dropout=1.0)
    with pytest.raises(ClassifierError):
        TkeConfig(task=Task.TOXIC, val_fraction=0.9)
    with pytest.raises(ClassifierError, match="epochs"):
        TkeConfig(task=Task.TOXIC, epochs=0)
    for bad in ({"lr": math.nan}, {"lr": math.inf}, {"lr": -1e-3}, {"weight_decay": math.nan}, {"weight_decay": math.inf}):
        with pytest.raises(ClassifierError, match="lr and weight_decay must be finite"):
            TkeConfig(task=Task.TOXIC, **bad)
    with pytest.raises(ClassifierError, match="seed must be ≥ 0, got -3"):
        TkeConfig(task=Task.TOXIC, seed=-3)
    assert TkeConfig(seed=0).seed == 0
    for bad in ({"d": 3.0}, {"seed": True}, {"enhancement": "no"}, {"enhancement": 1}, {"lam": True}, {"task": "toxic"}):
        with pytest.raises(ClassifierError, match=f"{next(iter(bad))} must be "):
            TkeConfig(**bad)
    assert TkeConfig(lam=1, lr=0, dropout=0, weight_decay=0, val_fraction=0).lam == 1  # a float field takes an int
    cfg = TkeConfig(task=Task.GROUP)
    assert cfg.multilabel and cfg.n_classes == 4
    assert not TkeConfig(task=Task.EXPRESSION).multilabel
