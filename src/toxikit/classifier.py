"""Lexicon-enhanced text classifier for the four hierarchy subtasks.

Each character token i contributes W[token_i] + λ·C[toxic_i] to the
sample representation, where C holds one embedding per insult category
(row 0 = non-toxic) and toxic_i comes from lexicon.token_category.  The
encoder is deliberately minimal — mean pooling over the sample's
tokens, one tanh hidden layer, a linear head — so the enhancement term is
isolated and every gradient is checkable against finite differences.

Mean pooling is linear, so no per-token embedding tensor is built (the
bag-of-embeddings trick of fastText).  An ``EncodedSet`` packs a set's
ids end to end with n+1 offsets, each sample's own tokens cut to
``pad_len`` and nothing padded; ``_check_set`` checks it once, where it
enters ``train``, ``predict`` or ``grad_check``.  A batch's token ids
are reduced to their unique set U; ``bag[i, j]`` counts occurrences of
U[j] in sample i and ``catbag[i, c]`` counts tokens of category c, so
the pooled vector is ``(bag @ W[U] + λ·catbag @ C) / n``.  The backward
pass is the transpose: ``dW[U] = bagᵀ g`` and ``dC = λ·catbagᵀ g`` with
``g = dpooled / n``, and W's gradient is kept as those rows alone, beside
the rows ``W[U]`` that the forward pass gathered, which the AdamW step
updates and scatters back without gathering them again.

Setting λ=0, or flipping ``enhancement`` off, skips the category term
entirely; both builds execute identical floating-point operations and
consume identical RNG draws (C is always initialized), so their trained
parameters and predictions agree bitwise.

Training: AdamW on weighted cross-entropy (class weights = inverse
label frequency, normalized to mean 1), deterministic per seed, early
stopping on an internal validation carve-out with patience 3, inverted
dropout on the pooled vector during training only.  The parameters and
each AdamW moment are one float32 buffer that the blocks view, and every
step computes in the parameters' dtype; ``grad_check`` upcasts to
float64, and ``predict`` takes its probabilities from float64-cast
scores.  AdamW is lazy on W (a step updates only the rows of the tokens
its batch holds); the dense blocks update in full, as one slice.  An
epoch's training loss and accuracy are the size-weighted means over its
minibatches, taken with dropout on; only the validation carve-out is
re-scored after each epoch.
"""

from __future__ import annotations

import base64
import json
import math
import re
from array import array
from collections import Counter
from dataclasses import dataclass, fields
from enum import Enum
from itertools import chain, repeat
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .corpus import Expression, TargetGroup, ToxiSample
from .lexicon import Lexicon, token_category

NUM_CATEGORIES = 5  # four targeted-group categories + general swearwords
UNK_ID = 1  # id 0 is reserved and never emitted

GROUP_ORDER = (
    TargetGroup.SEXISM,
    TargetGroup.RACISM,
    TargetGroup.REGIONAL_BIAS,
    TargetGroup.ANTI_LGBTQ,
)
EXPRESSION_ORDER = (Expression.EXPLICIT, Expression.IMPLICIT, Expression.REPORTING)


class ClassifierError(ValueError):
    """Bad configuration, shape mismatch, or task/label mismatch."""


class Task(str, Enum):
    TOXIC = "toxic"            # toxic vs non-toxic, all samples
    TYPE = "type"              # offensive vs hate, toxic samples only
    GROUP = "group"            # multi-label targeted groups, hate samples only
    EXPRESSION = "expression"  # explicit/implicit/reporting, hate samples only


TASK_CLASSES = {Task.TOXIC: 2, Task.TYPE: 2, Task.GROUP: 4, Task.EXPRESSION: 3}
MULTILABEL_TASKS = frozenset({Task.GROUP})


@dataclass(frozen=True)
class TkeConfig:
    task: Task = Task.TOXIC
    d: int = 64
    h: int = 64
    lam: float = 0.5
    pad_len: int = 100
    epochs: int = 20
    batch: int = 64
    lr: float = 1e-3
    dropout: float = 0.5
    seed: int = 1
    enhancement: bool = True
    weight_decay: float = 0.0
    val_fraction: float = 0.1
    patience: int = 3

    def __post_init__(self):
        for f in fields(self):  # each value has its default's type; a float field also takes an int
            kind, value = type(f.default), getattr(self, f.name)
            if kind is float:
                ok = isinstance(value, (int, float)) and type(value) is not bool
            else:
                ok = type(value) is kind
            if not ok:
                raise ClassifierError(f"{f.name} must be {kind.__name__}, got {value!r}")
        if not 0.0 <= self.lam <= 1.0:
            raise ClassifierError(f"lambda must be in [0, 1], got {self.lam}")
        if min(self.d, self.h, self.pad_len, self.epochs, self.batch) < 1:
            raise ClassifierError("d, h, pad_len, epochs and batch must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ClassifierError(f"dropout must be in [0, 1), got {self.dropout}")
        if not 0.0 <= self.val_fraction < 0.5:
            raise ClassifierError(f"val_fraction must be in [0, 0.5), got {self.val_fraction}")
        if self.patience < 1:
            raise ClassifierError(f"patience must be ≥ 1, got {self.patience}")
        if self.seed < 0:
            raise ClassifierError(f"seed must be ≥ 0, got {self.seed}")
        if not all(0.0 <= x < math.inf for x in (self.lr, self.weight_decay)):  # NaN fails both
            raise ClassifierError(f"lr and weight_decay must be finite and ≥ 0, got {self.lr} and {self.weight_decay}")

    @property
    def n_classes(self) -> int:
        return TASK_CLASSES[self.task]

    @property
    def multilabel(self) -> bool:
        return self.task in MULTILABEL_TASKS


@dataclass(frozen=True)
class Vocab:
    """Character → id. Id 0 is reserved (no token has it), id 1 is unknown."""

    token_to_id: dict[str, int]

    @classmethod
    def build(cls, texts: Iterable[str]) -> "Vocab":
        freq = Counter(chain.from_iterable(texts))
        if not freq:
            raise ClassifierError("cannot build a vocabulary from an empty corpus")
        ordered = sorted(freq, key=lambda ch: (-freq[ch], ord(ch)))
        return cls(token_to_id={ch: i + 2 for i, ch in enumerate(ordered)})

    def __len__(self) -> int:
        return len(self.token_to_id) + 2

    def encode(self, text: str) -> list[int]:
        return list(map(self.token_to_id.get, text, repeat(UNK_ID)))


@dataclass
class EncodedSet:
    """Encoded samples packed end to end; sample i's ids are ``offsets[i]:offsets[i + 1]``."""

    tok: np.ndarray      # (N,) int32 token ids, each sample cut to pad_len
    tox: np.ndarray      # (N,) int8 category ids in [0, NUM_CATEGORIES]
    offsets: np.ndarray  # (n+1,) int64, from 0 to N
    labels: np.ndarray   # (n,) int64 class indices, or n×k float64 flags for a multilabel task

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def take(self, idx: Sequence[int] | np.ndarray | slice) -> "EncodedSet":
        """The samples at ``idx`` (index array or slice), in that order, packed anew
        in the same dtypes."""
        starts = self.offsets[:-1][idx]
        counts = self.offsets[1:][idx] - starts
        offsets = np.concatenate(([0], np.cumsum(counts)))
        gather = np.repeat(starts - offsets[:-1], counts) + np.arange(offsets[-1])
        return EncodedSet(self.tok[gather], self.tox[gather], offsets, self.labels[idx])


BLOCK_NAMES = ("W", "C", "U", "b_h", "V", "b")


class ModelParams:
    """The six parameter blocks, each a reshaped view into one buffer.

    ``flat`` holds them end to end in BLOCK_NAMES order, the order that
    ``init_params`` draws them in, so ``flat[W.size:]`` is the five dense
    blocks as one slice.  The constructor copies its arrays into ``flat``,
    whose dtype is the one the arrays promote to.
    """

    W: np.ndarray    # |V| × d word embeddings
    C: np.ndarray    # (m+1) × d category embeddings, row 0 = non-toxic
    U: np.ndarray    # d × h
    b_h: np.ndarray  # h
    V: np.ndarray    # h × k
    b: np.ndarray    # k

    def __init__(self, W, C, U, b_h, V, b):
        blocks = (W, C, U, b_h, V, b)
        self.flat = np.concatenate([np.ravel(a) for a in blocks])
        pieces = np.split(self.flat, np.cumsum([np.size(a) for a in blocks[:-1]]))
        for name, a, piece in zip(BLOCK_NAMES, blocks, pieces):
            setattr(self, name, piece.reshape(np.shape(a)))

    def blocks(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in BLOCK_NAMES}

    def copy(self) -> "ModelParams":
        return ModelParams(**self.blocks())


def _block_shapes(vocab_size: int, cfg: TkeConfig) -> dict[str, list[int]]:
    d, h, k = cfg.d, cfg.h, cfg.n_classes
    return {"W": [vocab_size, d], "C": [NUM_CATEGORIES + 1, d], "U": [d, h], "b_h": [h], "V": [h, k], "b": [k]}


def eligible_samples(samples: Sequence[ToxiSample], task: Task) -> list[ToxiSample]:
    """The subset a task is defined on: the cascade is gold-filtered (type
    on gold-toxic samples, group/expression on gold-hate)."""
    if task is Task.TOXIC:
        return list(samples)
    if task is Task.TYPE:
        return [s for s in samples if s.toxic == 1]
    return [s for s in samples if s.hate == 1]


def task_label(sample: ToxiSample, task: Task) -> int | np.ndarray:
    if task is Task.TOXIC:
        return sample.toxic
    if task is Task.TYPE:
        if sample.toxic != 1:
            raise ClassifierError(f"sample {sample.id}: type task needs a toxic sample")
        return sample.hate
    if sample.hate != 1:
        raise ClassifierError(f"sample {sample.id}: {task.value} task needs a hate sample")
    if task is Task.GROUP:
        return np.array([float(g in sample.groups) for g in GROUP_ORDER])
    return EXPRESSION_ORDER.index(sample.expression)


def encode_corpus(
    samples: Sequence[ToxiSample], vocab: Vocab, lex: Lexicon, cfg: TkeConfig
) -> EncodedSet:
    tok = array("i")  # int32: a vocabulary of characters stays far below 2**31 ids
    tox = array("b")  # int8: category ids run from 0 to NUM_CATEGORIES
    offsets = [0]
    for sample in samples:
        tok.fromlist(vocab.encode(sample.text[: cfg.pad_len]))
        tox.fromlist(token_category(sample.text, lex)[: cfg.pad_len])
        offsets.append(len(tok))
    labels = [task_label(sample, cfg.task) for sample in samples]
    return EncodedSet(
        tok=np.frombuffer(tok, dtype=np.int32),
        tox=np.frombuffer(tox, dtype=np.int8),
        offsets=np.array(offsets, dtype=np.int64),
        labels=np.array(labels, dtype=np.float64 if cfg.multilabel else np.int64),
    )


def init_params(vocab_size: int, cfg: TkeConfig) -> ModelParams:
    """Uniform [-0.1, 0.1] float64 init from a generator seeded with cfg.seed, one draw
    over ``flat``, cast to float32.

    C is drawn even when enhancement is off so that ablated and λ=0
    builds see identical RNG streams.
    """
    shapes = _block_shapes(vocab_size, cfg)
    params = ModelParams(**{name: np.empty(shape, dtype=np.float32) for name, shape in shapes.items()})
    params.flat[:] = np.random.default_rng(cfg.seed).uniform(-0.1, 0.1, size=params.flat.size)
    return params


def _check_set(encoded: EncodedSet, params: ModelParams, cfg: TkeConfig) -> None:
    """Refuse a set that ``params`` cannot score for ``cfg``'s task, once for all its batches:
    ``take`` of a checked set is checked.  Every rule of a model's input is here, and only here."""
    k, labels = cfg.n_classes, encoded.labels
    if len(encoded.offsets) < 2:  # no sample, or no offsets at all
        raise ClassifierError("empty set")
    if params.V.shape[1] != k:
        raise ClassifierError(f"head has {params.V.shape[1]} classes but task {cfg.task.value} needs {k}")
    start, end, n_tok, n_tox = encoded.offsets[0], encoded.offsets[-1], len(encoded.tok), len(encoded.tox)
    if start != 0 or not end == n_tok == n_tox:
        raise ClassifierError("offsets must run from 0 to the number of token ids, one category id per token id; "
                              f"got offsets {start} to {end}, {n_tok} token ids and {n_tox} category ids")
    if (encoded.offsets[1:] - encoded.offsets[:-1] < 1).any():
        raise ClassifierError("empty sequence")
    if not (UNK_ID <= encoded.tok.min(initial=UNK_ID) and encoded.tok.max(initial=UNK_ID) < len(params.W)
            and 0 <= encoded.tox.min(initial=0) and encoded.tox.max(initial=0) < len(params.C)):
        raise ClassifierError("token or toxic id out of range for the parameter tables")
    shape = (len(encoded), k) if cfg.multilabel else (len(encoded),)
    if labels.shape != shape or not (cfg.multilabel or labels.dtype.kind in "iu"):
        raise ClassifierError(f"task {cfg.task.value} needs {'' if cfg.multilabel else 'integer '}labels of shape "
                              f"{shape}, got {labels.dtype} labels of shape {labels.shape}")
    if not cfg.multilabel and (labels.min(initial=0) < 0 or labels.max(initial=0) >= k):
        raise ClassifierError(f"label out of range for {k} classes")


def _forward_batch(
    batch: EncodedSet,
    params: ModelParams,
    cfg: TkeConfig,
    dropout_mask: np.ndarray | None = None,
):
    """Class scores for a packed batch of a set that ``_check_set`` passed, and the cache the backward pass reads.

    Every operand is cast to the parameters' dtype: one float64 array would upcast the whole step."""
    dtype = params.flat.dtype
    lengths = batch.offsets[1:] - batch.offsets[:-1]
    B = len(lengths)
    rows = np.repeat(np.arange(B), lengths)
    uniq, inverse = np.unique(batch.tok, return_inverse=True)
    bag = np.bincount(rows * len(uniq) + inverse, minlength=B * len(uniq))
    bag = bag.reshape(B, len(uniq)).astype(dtype)
    W_rows = params.W[uniq]
    pooled = bag @ W_rows
    catbag = None
    if cfg.enhancement and cfg.lam != 0.0:
        m1 = params.C.shape[0]
        catbag = np.bincount(rows * m1 + batch.tox, minlength=B * m1)
        catbag = catbag.reshape(B, m1).astype(dtype)
        pooled += cfg.lam * (catbag @ params.C)
    counts = lengths.astype(dtype)
    pooled /= counts[:, None]
    if dropout_mask is not None:
        dropout_mask = dropout_mask.astype(dtype, copy=False)
    dropped = pooled if dropout_mask is None else pooled * dropout_mask
    z = dropped @ params.U + params.b_h
    hidden = np.tanh(z)
    scores = hidden @ params.V + params.b
    cache = (uniq, W_rows, bag, catbag, counts, dropped, dropout_mask, hidden)
    return scores, cache


def _log_softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    expx = np.exp(x[~pos])
    out[~pos] = expx / (1.0 + expx)
    return out


def _bce_with_logits(scores: np.ndarray, targets: np.ndarray) -> np.ndarray:
    # max(s,0) - s*y + log(1 + exp(-|s|)), stable for large |s|
    return np.maximum(scores, 0.0) - scores * targets + np.log1p(np.exp(-np.abs(scores)))


def _batch_loss(
    scores: np.ndarray, labels: np.ndarray, weights: np.ndarray, need_grad: bool = True
) -> tuple[float, np.ndarray | None]:
    """Mean weighted cross-entropy over a batch, and its gradient in the scores.

    Single-label (labels are B class indices): softmax CE scaled by the
    true class's weight.  Multi-label (labels are B×k rows of 0/1 flags):
    mean over all entries of the weighted per-label binary cross-entropies.
    ``need_grad=False`` skips the gradient and returns None in its place.
    """
    if not np.isfinite(scores).all():
        raise ClassifierError("non-finite scores")
    B, k = scores.shape
    if labels.ndim == 2:
        loss = float((weights * _bce_with_logits(scores, labels)).mean())
        if not need_grad:
            return loss, None
        return loss, weights * (_sigmoid(scores) - labels) / (B * k)
    logp = _log_softmax(scores)
    w_true = weights[labels]
    loss = float(np.mean(-w_true * logp[np.arange(B), labels]))
    if not need_grad:
        return loss, None
    probs = np.exp(logp)
    onehot = np.zeros_like(probs)
    onehot[np.arange(B), labels] = 1.0
    return loss, (w_true[:, None] / B) * (probs - onehot)


def class_weights_for(labels: Sequence[int] | np.ndarray, cfg: TkeConfig) -> np.ndarray:
    """Inverse label-frequency weights, normalized to mean 1.

    Classes absent from the data are counted as 1 so the weights stay
    finite; they get the largest weight, which is the intended bias.
    """
    k = cfg.n_classes
    if cfg.multilabel:
        rows = np.asarray(labels, dtype=np.float64).reshape(-1, k)
        counts = rows.sum(axis=0)
    else:
        counts = np.bincount(np.asarray(labels, dtype=np.int64), minlength=k).astype(np.float64)
    counts = np.maximum(counts, 1.0)
    raw = 1.0 / counts
    return raw / raw.mean()


def loss_and_grads(
    batch: EncodedSet,
    params: ModelParams,
    cfg: TkeConfig,
    class_weights: np.ndarray,
    dropout_mask: np.ndarray | None = None,
) -> tuple[float, dict, np.ndarray]:
    """Mean weighted CE over a checked batch (see ``_check_set``), analytic
    gradients for every block, and the batch's class scores, all in the
    parameters' dtype: the class weights and multilabel targets are cast to it.

    W's gradient is row-sparse: the triple ``(rows, values, W_rows)`` of
    the batch's distinct token ids, ascending, their gradient rows (every
    other row of it is zero) and ``W[rows]``, the copy of those rows that
    the forward pass gathered.  The other blocks' gradients are dense arrays.
    The copy serves one optimizer step on the W it was gathered from:
    ``_AdamW.step`` writes it back unchecked, so a step after W has changed,
    or a second step with the same gradients, would undo that change.
    """
    dtype = params.flat.dtype
    scores, cache = _forward_batch(batch, params, cfg, dropout_mask)
    uniq, W_rows, bag, catbag, counts, dropped, dmask, hidden = cache
    labels = batch.labels.astype(dtype, copy=False) if cfg.multilabel else batch.labels
    loss, dscores = _batch_loss(scores, labels, np.asarray(class_weights, dtype=dtype))

    dhidden = dscores @ params.V.T
    dz = dhidden * (1.0 - hidden * hidden)
    ddropped = dz @ params.U.T
    dpooled = ddropped if dmask is None else ddropped * dmask
    g = dpooled / counts[:, None]
    dC = np.zeros_like(params.C) if catbag is None else cfg.lam * (catbag.T @ g)
    grads = {
        "W": (uniq, bag.T @ g, W_rows),
        "C": dC,
        "U": dropped.T @ dz,
        "b_h": dz.sum(axis=0),
        "V": hidden.T @ dscores,
        "b": dscores.sum(axis=0),
    }
    return loss, grads, scores


def _dense_flat(grads: dict) -> np.ndarray:
    """The dense blocks' gradients end to end, laid out like ``flat[W.size:]``."""
    return np.concatenate([grads[name].ravel() for name in BLOCK_NAMES[1:]])


def _flat_grads(grads: dict, params: ModelParams) -> np.ndarray:
    """``grads`` laid out like ``params.flat``, W's row-sparse gradient scattered in."""
    rows, values, _ = grads["W"]
    dW = np.zeros_like(params.W)
    dW[rows] = values
    return np.concatenate([dW.ravel(), _dense_flat(grads)])


def finite_diff_grads(
    batch: EncodedSet,
    params: ModelParams,
    cfg: TkeConfig,
    class_weights: np.ndarray,
    step: float = 1e-5,
) -> np.ndarray:
    """Central-difference gradients of a checked batch, laid out like ``params.flat``; the oracle for loss_and_grads."""

    def batch_loss() -> float:
        scores, _ = _forward_batch(batch, params, cfg)
        return _batch_loss(scores, batch.labels, class_weights, need_grad=False)[0]

    flat = params.flat
    numeric = np.zeros_like(flat)
    for idx in range(flat.size):
        orig = flat[idx]
        flat[idx] = orig + step
        up = batch_loss()
        flat[idx] = orig - step
        down = batch_loss()
        flat[idx] = orig
        numeric[idx] = (up - down) / (2.0 * step)
    return numeric


def grad_check(
    params: ModelParams,
    batch: EncodedSet,
    cfg: TkeConfig,
    class_weights: np.ndarray | None = None,
    step: float = 1e-5,
    corrupt: bool = False,
) -> float:
    """Max relative error between analytic and finite-difference gradients,
    both computed on a float64 copy of ``params``.

    Relative error uses max(|analytic|, |numeric|, 1e-6) as denominator
    so near-zero entries compare on an absolute scale.  ``corrupt``
    sign-flips the largest analytic entry first — the self-test that
    proves the harness can fail.
    """
    if len(batch) > 8:
        raise ClassifierError("grad_check batches are capped at 8 samples")
    class_weights = np.ones(cfg.n_classes) if class_weights is None else np.asarray(class_weights, dtype=np.float64)
    if (class_weights <= 0).any():
        raise ClassifierError("class weights must be positive")
    _check_set(batch, params, cfg)
    params = ModelParams(**{name: block.astype(np.float64) for name, block in params.blocks().items()})
    analytic = _flat_grads(loss_and_grads(batch, params, cfg, class_weights)[1], params)
    numeric = finite_diff_grads(batch, params, cfg, class_weights, step=step)
    if corrupt:
        idx = int(np.abs(analytic).argmax())
        analytic[idx] = -analytic[idx]
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
    return float((np.abs(analytic - numeric) / denom).max())


class _AdamW:
    """AdamW whose moments and parameters update in place.

    ``m`` and ``v`` are one buffer each, laid out like ``ModelParams.flat``.
    W's gradient is, as ``loss_and_grads`` gives it, the row-sparse triple
    ``(rows, values, W_rows)`` with distinct rows, ``W_rows`` being a copy
    of ``W[rows]`` as it stands before the step; the step updates that copy
    in place and scatters it back, so W's rows are not gathered twice.
    Nothing checks that the copy is current (checking would cost the gather
    it saves), so each gradient must be stepped once, before W changes.
    W's step is the lazy update (LazyAdam, torch's SparseAdam): only the
    listed rows of m, v and W move, the bias correction uses the global
    step t, and weight decay reaches those rows only.  The five dense
    blocks step as one slice, ``flat[W.size:]``, in place.  The operations
    and their order are those of the textbook expression, so a dense block,
    or a row listed at every step, gets bitwise the textbook update.  The
    moments and the arithmetic take the parameters' dtype; a gradient of
    another dtype is cast to it.
    """

    def __init__(self, params: ModelParams, lr: float, weight_decay: float):
        self.lr = lr
        self.wd = weight_decay
        self.beta1, self.beta2, self.eps = 0.9, 0.999, 1e-8
        self.t = 0
        self.m, self.v = np.zeros_like(params.flat), np.zeros_like(params.flat)

    def step(self, params: ModelParams, grads: dict) -> None:
        self.t += 1
        W, n = params.W, params.W.size
        rows, g, q = grads["W"]
        mW, vW = self.m[:n].reshape(W.shape), self.v[:n].reshape(W.shape)
        m, v = mW[rows], vW[rows]
        self._update(m, v, q, g)
        mW[rows], vW[rows], W[rows] = m, v, q
        self._update(self.m[n:], self.v[n:], params.flat[n:], _dense_flat(grads))

    def _update(self, m, v, p, g) -> None:
        g = g.astype(p.dtype, copy=False)
        s1, s2 = np.empty_like(g), np.empty_like(g)
        # m = β1·m + (1-β1)·g ;  v = β2·v + (1-β2)·g·g
        np.multiply(m, self.beta1, out=m)
        np.multiply(g, 1 - self.beta1, out=s1)
        np.add(m, s1, out=m)
        np.multiply(v, self.beta2, out=v)
        np.multiply(g, 1 - self.beta2, out=s1)
        np.multiply(s1, g, out=s1)
        np.add(v, s1, out=v)
        # p -= lr·(m̂ / (√v̂ + ε) + wd·p)
        np.divide(m, 1 - self.beta1 ** self.t, out=s1)
        np.divide(v, 1 - self.beta2 ** self.t, out=s2)
        np.sqrt(s2, out=s2)
        np.add(s2, self.eps, out=s2)
        np.divide(s1, s2, out=s1)
        if self.wd != 0.0:
            np.multiply(p, self.wd, out=s2)
            np.add(s1, s2, out=s1)
        np.multiply(s1, self.lr, out=s1)
        np.subtract(p, s1, out=p)


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    train_accuracy: float
    val_loss: float | None
    val_accuracy: float | None


def _chunked_scores(encoded: EncodedSet, params: ModelParams, cfg: TkeConfig) -> np.ndarray:
    """Scores of a whole set, computed cfg.batch samples at a time so that
    memory grows with the batch size, not with the set."""
    if len(encoded) <= cfg.batch:
        return _forward_batch(encoded, params, cfg)[0]
    return np.concatenate(
        [
            _forward_batch(encoded.take(slice(start, start + cfg.batch)), params, cfg)[0]
            for start in range(0, len(encoded), cfg.batch)
        ]
    )


def _eval_loss_acc(
    encoded: EncodedSet,
    params: ModelParams,
    cfg: TkeConfig,
    class_weights: np.ndarray,
) -> tuple[float, float]:
    scores = _chunked_scores(encoded, params, cfg)
    loss, _ = _batch_loss(scores, encoded.labels, class_weights, need_grad=False)
    return loss, _hits(scores, encoded.labels, cfg) / len(encoded)


def _hits(scores: np.ndarray, labels: np.ndarray, cfg: TkeConfig) -> int:
    """How many samples get every label right."""
    hits = _predict_from_scores(scores, cfg) == labels
    return int(hits.reshape(len(labels), -1).all(axis=1).sum())


def train(
    train_set: EncodedSet, cfg: TkeConfig, vocab_size: int
) -> tuple[ModelParams, list[EpochStats]]:
    """Train from scratch; deterministic per cfg.seed.

    A validation slice (cfg.val_fraction, at least one sample, only when
    val_fraction > 0 and the set has ≥ 5 samples) is carved off the end
    of a seeded shuffle and drives early stopping: no improvement for
    cfg.patience epochs stops the run, and the best-validation-loss
    snapshot is returned.
    Without a carve-out every epoch runs, with None for its validation
    scores, and the last epoch's parameters are returned.
    Each epoch's training loss and accuracy are the size-weighted means
    over its minibatches, scored as they were trained (dropout on, each
    before its own step).
    """
    params = init_params(vocab_size, cfg)
    _check_set(train_set, params, cfg)
    class_weights = class_weights_for(train_set.labels, cfg).astype(params.flat.dtype)
    loop_rng = np.random.default_rng([cfg.seed, 1])

    order = loop_rng.permutation(len(train_set))
    n_val = max(1, int(len(train_set) * cfg.val_fraction)) if len(train_set) >= 5 and cfg.val_fraction > 0 else 0
    fit_idx = order[: len(order) - n_val]
    val = train_set.take(order[len(order) - n_val :])

    history: list[EpochStats] = []
    best_loss = np.inf
    best_params = params.copy()  # the one snapshot buffer of the run
    stale = 0
    optimizer = _AdamW(params, lr=cfg.lr, weight_decay=cfg.weight_decay)
    for epoch in range(cfg.epochs):
        perm = loop_rng.permutation(len(fit_idx))
        loss_sum = 0.0
        hits = 0
        for start in range(0, len(fit_idx), cfg.batch):
            chunk = train_set.take(fit_idx[perm[start : start + cfg.batch]])
            dropout_mask = None
            if cfg.dropout > 0.0:
                keep = loop_rng.random((len(chunk), cfg.d)) >= cfg.dropout
                dropout_mask = keep.astype(params.flat.dtype) / (1.0 - cfg.dropout)
            loss, grads, scores = loss_and_grads(chunk, params, cfg, class_weights, dropout_mask)
            optimizer.step(params, grads)
            loss_sum += loss * len(chunk)
            hits += _hits(scores, chunk.labels, cfg)

        val_loss, val_acc = _eval_loss_acc(val, params, cfg, class_weights) if val else (None, None)
        history.append(EpochStats(epoch, loss_sum / len(fit_idx), hits / len(fit_idx), val_loss, val_acc))
        if val_loss is None or val_loss < best_loss:  # without a carve-out, every epoch is the best so far
            best_loss, best_params.flat[:], stale = val_loss, params.flat, 0
        else:
            stale += 1
            if stale >= cfg.patience:
                break
    return best_params, history


def _predict_from_scores(scores: np.ndarray, cfg: TkeConfig) -> np.ndarray:
    if not cfg.multilabel:
        return scores.argmax(axis=1)
    probs = _sigmoid(scores)
    labels = (probs >= 0.5).astype(np.float64)
    empty = labels.sum(axis=1) == 0
    if empty.any():
        # a hate sample must attack at least one group
        fallback = probs[empty].argmax(axis=1)
        labels[np.nonzero(empty)[0], fallback] = 1.0
    return labels


def predict(
    test_set: EncodedSet, params: ModelParams, cfg: TkeConfig
) -> tuple[np.ndarray, np.ndarray]:
    """(labels, float64 probabilities). Argmax for single-label tasks; 0.5-threshold
    per label for the group task with a highest-probability fallback.

    Both come from the scores cast to float64, so each softmax row sums to 1
    within float64 rounding whatever the parameters' dtype."""
    _check_set(test_set, params, cfg)
    scores = _chunked_scores(test_set, params, cfg).astype(np.float64)
    if cfg.multilabel:
        probs = _sigmoid(scores)
    else:
        probs = np.exp(_log_softmax(scores))
    return _predict_from_scores(scores, cfg), probs


CHECKPOINT_VERSION = 3


class LexiconMismatchError(ClassifierError):
    """A checkpoint was trained with a lexicon other than the one given."""


def lexicon_sha256(lex: Lexicon) -> str:
    """SHA-256 of the lexicon's sorted (term, category id) pairs, the only part
    of it that ``token_category`` reads: file order, surface and rule tag do
    not change it."""
    import hashlib  # here, not at the top: it loads libcrypto, +3.5 MB RSS in every process

    pairs = sorted((entry.term, int(entry.category)) for entry in lex)
    return hashlib.sha256(json.dumps(pairs, ensure_ascii=False).encode("utf-8")).hexdigest()


def save_checkpoint(
    path: str | Path, params: ModelParams, cfg: TkeConfig, vocab: Vocab, lex: Lexicon
) -> None:
    """JSON container: config echo, the vocabulary as one string of its
    characters in id order (the first has id 2), the training lexicon's
    ``lexicon_sha256``, and ``params`` as the base64 text of ``params.flat``
    in little-endian float32 bytes (bitwise round trip).  Block shapes are
    not stored: the config and the vocabulary size give them.
    """
    payload = {
        "version": CHECKPOINT_VERSION,
        "config": {f.name: getattr(cfg, f.name) for f in fields(TkeConfig)} | {"task": cfg.task.value},
        "vocab": "".join(sorted(vocab.token_to_id, key=vocab.token_to_id.get)),
        "lexicon_sha256": lexicon_sha256(lex),
        "params": base64.b64encode(params.flat.astype("<f4", copy=False).tobytes()).decode("ascii"),
    }
    # streamed: the whole text at once would be a 2-byte-per-character string
    # (the vocabulary is CJK) twice the size of the file, plus its encoding
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, ensure_ascii=False)


def load_checkpoint(path: str | Path, lex: Lexicon | None = None) -> tuple[ModelParams, TkeConfig, Vocab]:
    """Read a version-3 checkpoint written by save_checkpoint.

    Raises ClassifierError naming ``path`` when the file is not UTF-8
    JSON, its version is not CHECKPOINT_VERSION (a v1 or v2 file must be
    retrained), a top-level key is missing, a config value has the wrong
    type or range, the vocab is not a non-empty string of distinct
    characters, or ``params`` is not base64 text of exactly the float32
    bytes of the blocks that the config and vocabulary size give, or holds
    a NaN or an infinity.  With ``lex`` given, a checkpoint trained with a
    different lexicon raises LexiconMismatchError.
    """

    def bad(message: str) -> ClassifierError:
        return ClassifierError(f"{path}: {message}")

    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise bad(f"not UTF-8: {exc.reason} at byte {exc.start}") from None
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, or an integer too long to convert
        raise bad(f"not a JSON checkpoint: {exc}") from None
    if not isinstance(payload, dict):
        raise bad("not a JSON object")
    if "version" in payload and payload["version"] != CHECKPOINT_VERSION:
        raise bad(f"unsupported checkpoint version {payload['version']!r}; retrain the model")
    missing = [key for key in ("version", "config", "vocab", "lexicon_sha256", "params") if key not in payload]
    if missing:
        raise bad(f"missing key(s) {', '.join(missing)}")
    digest = payload["lexicon_sha256"]
    if not isinstance(digest, str) or not re.fullmatch("[0-9a-f]{64}", digest):
        raise bad("lexicon_sha256 must be 64 lowercase hex digits")
    if lex is not None and digest != lexicon_sha256(lex):
        raise LexiconMismatchError(f"{path}: trained with a different lexicon")
    raw_cfg = payload["config"]
    if not isinstance(raw_cfg, dict) or raw_cfg.keys() != {f.name for f in fields(TkeConfig)}:
        raise bad("config keys must be exactly the TkeConfig fields")
    try:
        cfg = TkeConfig(**raw_cfg | {"task": Task(raw_cfg["task"])})
    except (TypeError, ValueError) as exc:
        raise bad(f"bad config: {exc}") from None
    chars = payload["vocab"]
    if not isinstance(chars, str) or not chars or len(set(chars)) != len(chars):
        raise bad("vocab must be a non-empty string of distinct characters")
    vocab = Vocab(token_to_id={ch: i for i, ch in enumerate(chars, start=2)})
    shapes = _block_shapes(len(vocab), cfg)
    data, nbytes = payload["params"], 4 * sum(math.prod(shape) for shape in shapes.values())
    if not isinstance(data, str):
        raise bad("params must be base64 text")
    unfilled = f"params does not hold the {nbytes} bytes of the blocks {shapes}"
    if len(data) != 4 * -(-nbytes // 3):  # refused before decoding allocates anything
        raise bad(unfilled)
    try:
        raw = base64.b64decode(data, validate=True)
    except ValueError:  # a non-ASCII or non-alphabet character, or bad padding
        raise bad("params is not base64 text") from None
    if len(raw) != nbytes:  # padding in the text can shorten it
        raise bad(unfilled)
    values = np.frombuffer(raw, "<f4")
    if not np.isfinite(values).all():
        raise bad("params must be finite")
    params = ModelParams(**{name: np.empty(shape, dtype=np.float32) for name, shape in shapes.items()})
    params.flat[:] = values
    return params, cfg, vocab
