"""Web-comment text cleaning for Chinese social-media corpora.

The cleaning pipeline desensitizes and regularizes raw comments so that
downstream lexicon matching sees a stable surface form:

  * full-width letters, digits and the at sign are folded to ASCII
    (Chinese punctuation is left alone: 「我靠！」 keeps its ！),
  * @-mentions, URLs and image placeholders are deleted,
  * whitespace runs collapse to a single space,
  * emoji are preserved verbatim, since reactions carry signal.

Deletions are iterated to a fixpoint: removing one token can splice the
surrounding text into a new removable token (e.g. an @-mention sitting
inside a URL), so the removal passes repeat until the text stops
changing.  This makes ``normalize_text`` idempotent by construction.

No step loops over every character in Python: folding is one
``str.translate``, run only when a compiled class finds a full-width
character, and mention stripping returns at once on a text without '@'
and otherwise jumps from one '@' to the next with ``str.find``.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import replace
from typing import Sequence

from .corpus import ToxiSample


# Placeholders that platforms substitute for inline images.
IMAGE_PLACEHOLDERS = ("[图片]", "[image]", "[img]")

# URL bodies are restricted to ASCII URL characters so a trailing CJK
# clause is never swallowed ("点这里http://a.b/c然后" keeps 然后).
_URL_RE = re.compile(
    r"(?:[A-Za-z][A-Za-z0-9+.\-]*://|www\.)[A-Za-z0-9\-._~:/?#\[\]@!$&'()*+,;=%]+"
)

_WS_RE = re.compile(r"\s+")

# Emoji blocks preserved through mention stripping.
_EMOJI_RANGES = (
    (0x1F300, 0x1F5FF),
    (0x1F600, 0x1F64F),
    (0x1F680, 0x1F6FF),
    (0x1F900, 0x1F9FF),
    (0x1FA70, 0x1FAFF),
    (0x1F1E6, 0x1F1FF),
    (0x2600, 0x26FF),
    (0x2700, 0x27BF),
    (0x2B00, 0x2BFF),
)


def is_emoji(ch: str) -> bool:
    cp = ord(ch)
    return any(lo <= cp <= hi for lo, hi in _EMOJI_RANGES)


# Full-width digits, ＠, letters and the ideographic space, and their ASCII forms.
_FOLD_RE = re.compile("[０-９＠-Ｚａ-ｚ\u3000]")
_FOLD_TABLE = {
    cp: cp - 0xFEE0
    for lo, hi in ((0xFF10, 0xFF19), (0xFF20, 0xFF3A), (0xFF41, 0xFF5A))
    for cp in range(lo, hi + 1)
}
_FOLD_TABLE[0x3000] = ord(" ")


def _fold_fullwidth(text: str) -> str:
    """Fold full-width alphanumerics, ＠ and the ideographic space to ASCII."""
    return text.translate(_FOLD_TABLE) if _FOLD_RE.search(text) else text


def _is_name_char(ch: str) -> bool:
    return not (ch.isspace() or unicodedata.category(ch).startswith("P") or is_emoji(ch))


def _strip_mentions(text: str) -> str:
    """Delete each '@' plus the maximal run of name characters after it.

    A name character is anything that is not whitespace, not punctuation
    and not an emoji; a bare '@' (empty run) is kept.  The scan jumps
    from one '@' to the next with ``str.find``.
    """
    at = text.find("@")
    if at < 0:
        return text
    out = []
    kept_from, n = 0, len(text)
    while at >= 0:
        end = at + 1
        while end < n and _is_name_char(text[end]):
            end += 1
        if end > at + 1:
            out.append(text[kept_from:at])
            kept_from = end
        at = text.find("@", end)
    out.append(text[kept_from:])
    return "".join(out)


def _strip_placeholders(text: str) -> str:
    for marker in IMAGE_PLACEHOLDERS:
        while marker in text:
            text = text.replace(marker, "")
    return text


def normalize_text(raw: str) -> str:
    """Normalize one comment. Total: never raises on valid Unicode."""
    text = _fold_fullwidth(raw)

    # Iterate removals to a fixpoint; each pass strictly shrinks the text
    # or leaves it unchanged, so this terminates.
    while True:
        before = text
        text = _strip_placeholders(text)
        text = _URL_RE.sub("", text)
        text = _strip_mentions(text)
        if text == before:
            break

    return _WS_RE.sub(" ", text).strip()


def is_substantive(text: str, min_chars: int = 4) -> bool:
    """True iff the text has at least ``min_chars`` content characters.

    Content characters are letters (CJK ideographs included) and digits.
    """
    return sum(map(str.isalnum, text)) >= min_chars


def deduplicate(corpus: list[tuple[int, str]]) -> list[int]:
    """Return ids whose normalized text is the first of its kind.

    Comparison is exact (case-sensitive); input order is preserved.
    """
    seen: set[str] = set()
    survivors: list[int] = []
    for sample_id, text in corpus:
        if text not in seen:
            seen.add(text)
            survivors.append(sample_id)
    return survivors


def clean_corpus(
    samples: Sequence[ToxiSample], min_chars: int = 4
) -> tuple[list[ToxiSample], int, int]:
    """Normalize every text, then drop brief samples and repeated texts.

    Brief means fewer than ``min_chars`` content characters (see
    ``is_substantive``).  Returns (kept, dropped_brief, dropped_dup).  A
    repeated text keeps its first sample; kept samples stay in input order.
    A sample whose text normalizes to itself is kept as the same object;
    only a changed text costs a new ``ToxiSample``.
    """
    substantive = []
    for sample in samples:
        text = normalize_text(sample.text)
        if is_substantive(text, min_chars):
            substantive.append(sample if text == sample.text else replace(sample, text=text))
    firsts = deduplicate([(i, s.text) for i, s in enumerate(substantive)])
    kept = [substantive[i] for i in firsts]
    return kept, len(samples) - len(substantive), len(substantive) - len(kept)
