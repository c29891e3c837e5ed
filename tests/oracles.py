"""Independent reference implementations the tests compare against.

Everything here is deliberately naive and written from the textbook
definition, sharing no code with the package: a quadratic substring
scanner, a character-by-character text normalizer, an exact-rational
Fleiss' kappa, a by-hand precision/recall/F1 tally, the TKE forward and
backward pass over a padded per-token embedding tensor, and candidate
n-gram mining that tests every gram against every match span.
"""

from __future__ import annotations

import re
import unicodedata
from fractions import Fraction
from typing import Sequence

import numpy as np


def naive_find_matches(text: str, patterns: Sequence[str]) -> set[tuple[int, int, str]]:
    """Every occurrence of every pattern via the obvious O(n·m·L) double loop."""
    hits = set()
    for pattern in patterns:
        for start in range(len(text) - len(pattern) + 1):
            if text.startswith(pattern, start):
                hits.add((start, start + len(pattern), pattern))
    return hits


_NAIVE_URL_RE = re.compile(
    r"(?:[A-Za-z][A-Za-z0-9+.\-]*://|www\.)[A-Za-z0-9\-._~:/?#\[\]@!$&'()*+,;=%]+"
)
_NAIVE_EMOJI_RANGES = (
    (0x1F300, 0x1F5FF), (0x1F600, 0x1F64F), (0x1F680, 0x1F6FF),
    (0x1F900, 0x1F9FF), (0x1FA70, 0x1FAFF), (0x1F1E6, 0x1F1FF),
    (0x2600, 0x26FF), (0x2700, 0x27BF), (0x2B00, 0x2BFF),
)


def _naive_fold_fullwidth(text: str) -> str:
    """Fold full-width alphanumerics, ＠ and the ideographic space to ASCII."""
    out = []
    for ch in text:
        cp = ord(ch)
        if 0xFF10 <= cp <= 0xFF19 or 0xFF21 <= cp <= 0xFF3A or 0xFF41 <= cp <= 0xFF5A:
            out.append(chr(cp - 0xFEE0))
        elif cp == 0xFF20:  # ＠
            out.append("@")
        elif cp == 0x3000:  # ideographic space
            out.append(" ")
        else:
            out.append(ch)
    return "".join(out)


def _naive_strip_mentions(text: str) -> str:
    """Delete each '@' plus the maximal run of name characters after it
    (not whitespace, punctuation or emoji); a bare '@' is kept."""
    out = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "@":
            j = i + 1
            while j < n:
                c = text[j]
                cp = ord(c)
                if (
                    c.isspace()
                    or unicodedata.category(c).startswith("P")
                    or any(lo <= cp <= hi for lo, hi in _NAIVE_EMOJI_RANGES)
                ):
                    break
                j += 1
            if j > i + 1:
                i = j
                continue
        out.append(ch)
        i += 1
    return "".join(out)


def naive_normalize_text(raw: str) -> str:
    """Fold full-width forms, then delete image placeholders, URLs and
    @-mentions until nothing changes, then collapse whitespace runs."""
    text = _naive_fold_fullwidth(raw)
    while True:
        before = text
        for marker in ("[图片]", "[image]", "[img]"):
            while marker in text:
                text = text.replace(marker, "")
        text = _NAIVE_URL_RE.sub("", text)
        text = _naive_strip_mentions(text)
        if text == before:
            return re.sub(r"\s+", " ", text).strip()


def naive_doc_ngrams(text: str, spans: Sequence[tuple[int, int]], max_n: int) -> set[str]:
    """Distinct n-grams with ≥1 occurrence not fully inside a match span.

    Whitespace-bearing n-grams are skipped; they straddle what the
    normalizer already decided are separate fragments.
    """
    grams: set[str] = set()
    for n in range(1, max_n + 1):
        for i in range(len(text) - n + 1):
            j = i + n
            if any(s <= i and j <= e for s, e in spans):
                continue
            gram = text[i:j]
            if any(ch.isspace() for ch in gram):
                continue
            grams.add(gram)
    return grams


def naive_candidates(
    docs: Sequence[tuple[bool, str, Sequence[tuple[int, int]]]],
    known: set[str],
    min_freq: int,
    min_score: float,
    max_n: int,
) -> list[tuple[str, int, int, float]]:
    """(term, toxic df, clean df, add-one score) for each candidate, best first,
    counted from scratch over (is_toxic, text, match spans) documents."""
    toxic_df: dict[str, int] = {}
    clean_df: dict[str, int] = {}
    for is_toxic, text, spans in docs:
        table = toxic_df if is_toxic else clean_df
        for gram in naive_doc_ngrams(text, spans, max_n):
            table[gram] = table.get(gram, 0) + 1
    ranked = []
    for gram, tf in toxic_df.items():
        cf = clean_df.get(gram, 0)
        score = (tf + 1) / (cf + 1)
        if gram not in known and tf >= min_freq and score >= min_score:
            ranked.append((gram, tf, cf, score))
    return sorted(ranked, key=lambda row: (-row[3], -row[1], row[0]))


def fleiss_kappa_exact(counts: Sequence[Sequence[int]]) -> Fraction | None:
    """Fleiss' kappa in exact rational arithmetic; None when 1 − P̄e = 0."""
    n_items = len(counts)
    raters = sum(counts[0])
    p_bar = Fraction(0)
    for row in counts:
        agree = sum(c * c for c in row) - raters
        p_bar += Fraction(agree, raters * (raters - 1))
    p_bar /= n_items

    pe = Fraction(0)
    total = n_items * raters
    for j in range(len(counts[0])):
        col = sum(row[j] for row in counts)
        pe += Fraction(col, total) ** 2

    if pe == 1:
        return None
    return (p_bar - pe) / (1 - pe)


def prf_by_hand(preds: Sequence[int], golds: Sequence[int], n_classes: int) -> tuple[float, float, float]:
    """Support-weighted P/R/F1 (percent) tallied class by class."""
    weighted_p = weighted_r = weighted_f = 0.0
    total_support = 0
    for cls in range(n_classes):
        tp = sum(1 for p, g in zip(preds, golds) if p == cls and g == cls)
        fp = sum(1 for p, g in zip(preds, golds) if p == cls and g != cls)
        fn = sum(1 for p, g in zip(preds, golds) if p != cls and g == cls)
        support = tp + fn
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        weighted_p += support * precision
        weighted_r += support * recall
        weighted_f += support * f1
        total_support += support
    scale = 100.0 / total_support
    return weighted_p * scale, weighted_r * scale, weighted_f * scale


def padded_tke_forward(tok, tox, W, C, U, b_h, V, b, lam, dropout_mask=None):
    """TKE class scores by gathering every token's row into a (B, L, d) tensor.

    Row i of the pooled matrix is the mean over non-pad positions (token id
    0 is pad) of W[tok] + lam·C[tox]; pass lam=0 for the ablated build.
    Returns the scores and the intermediates padded_tke_backward needs.
    """
    nonpad = tok != 0
    counts = nonpad.sum(axis=1)
    E = W[tok]
    if lam != 0.0:
        E = E + lam * C[tox]
    pooled = (E * nonpad[:, :, None]).sum(axis=1) / counts[:, None]
    dropped = pooled if dropout_mask is None else pooled * dropout_mask
    hidden = np.tanh(dropped @ U + b_h)
    return hidden @ V + b, (nonpad, counts, dropped, hidden)


def padded_tke_backward(tok, tox, W, C, U, V, lam, cache, dscores, dropout_mask=None):
    """Gradients of every parameter block given the loss gradient in the
    scores, scattering the per-token gradient back with np.add.at."""
    nonpad, counts, dropped, hidden = cache
    dz = (dscores @ V.T) * (1.0 - hidden * hidden)
    ddropped = dz @ U.T
    dpooled = ddropped if dropout_mask is None else ddropped * dropout_mask
    dE = (dpooled[:, None, :] / counts[:, None, None]) * nonpad[:, :, None]
    dW = np.zeros_like(W)
    np.add.at(dW, tok.ravel(), dE.reshape(-1, W.shape[1]))
    dC = np.zeros_like(C)
    if lam != 0.0:
        np.add.at(dC, tox.ravel(), (lam * dE).reshape(-1, C.shape[1]))
    return {
        "W": dW,
        "C": dC,
        "U": dropped.T @ dz,
        "b_h": dz.sum(axis=0),
        "V": hidden.T @ dscores,
        "b": dscores.sum(axis=0),
    }
