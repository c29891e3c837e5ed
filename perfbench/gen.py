"""Seeded ToxiCN-shaped inputs for the benchmark.

One call of ``generate(seed, outdir, resource_dir)`` writes, byte for byte
the same for the same seed:

* ``raw.jsonl`` — 12,011 raw comments with valid labels at every
  hierarchy level.  Bodies are Zipf-distributed characters over 3,000
  CJK characters that no lexicon, pinyin or glyph row uses, so lexicon
  matches happen only where a term is inserted on purpose.  Lengths are
  log-normal with a tail above ``pad_len=100``.  Raw-text noise:
  @-mentions, URLs, ``[图片]``, full-width ASCII, ideographic spaces;
  about 2% duplicate texts and 1% brief texts, both counted exactly.
  Label noise: some toxic texts carry no lexicon term and some clean
  texts quote one, so the classifier cannot saturate.
* Two planted tiers of hidden terms for the weak-label fixpoint.  Tier-1
  terms sit beside seed-lexicon terms in toxic texts; tier-2 terms appear
  only beside tier-1 terms in texts with no seed term.  With the default
  ``min_freq=3``/``min_score=3`` the fixpoint admits tier 1 in round 1,
  tier 2 in round 2 and stops after a quiet round 3.
* ``accept.txt`` — the reviewed accept list: both tiers plus decoys that
  never occur in any text.
* ``heldout.jsonl`` — 3,000 comments for scoring, sharing no text with
  ``raw.jsonl`` and all substantive after cleaning.
* ``manifest.json`` — the counts and terms the output checks compare
  against, and the score-stream request sizes.

Run ``python3 perfbench/gen.py --seed 1 --out DIR`` to write one set.
"""

from __future__ import annotations

import argparse
import json
import math
import random
from pathlib import Path
from statistics import NormalDist

N_COMMENTS = 12_011
N_BRIEF = 120          # ~1%: fewer than 4 content characters after cleaning
N_DUP = 240            # ~2%: normalize to the text of an earlier comment
N_HELDOUT = 3_000
ALPHABET_SIZE = 3_000

TIER_SIZE = 6
TIER_TERM_LEN = 3
TIER1_TEXTS_PER_TERM = 30
TIER2_TEXTS_PER_TERM = 5
N_DECOYS = 4

N_REQUESTS = 1_200     # requests in one sweep of the score stream
MAX_REQUEST = 1_024

TOXIC_RATE = 0.52
HATE_GIVEN_TOXIC = 0.6
TOXIC_WITHOUT_TERM = 0.12   # label noise: toxic but nothing to match
CLEAN_QUOTES_TERM = 0.06    # label noise: clean but quotes an insult

_GROUP_TOPIC = {
    "sexism": "gender",
    "racism": "race",
    "regional_bias": "region",
    "anti_lgbtq": "lgbtq",
}
_CATEGORY_DIGITS = {"1": "sexism", "2": "racism", "3": "regional_bias", "4": "anti_lgbtq", "5": "general"}
_FULLWIDTH_POOL = "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"


def _read_tsv_column(path: Path, columns: int) -> list[list[str]]:
    rows = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        rows.append(line.split("\t")[:columns])
    return rows


def _lexicon_terms(resource_dir: Path) -> dict[str, list[str]]:
    """category name → terms of the bundled lexicon."""
    by_cat: dict[str, list[str]] = {}
    for term, cat in _read_tsv_column(resource_dir / "lexicon.tsv", 2):
        cat = _CATEGORY_DIGITS.get(cat.strip(), cat.strip().lower())
        by_cat.setdefault(cat, []).append(term)
    return by_cat


def _reserved_chars(resource_dir: Path, by_cat: dict[str, list[str]]) -> set[str]:
    chars = {ch for terms in by_cat.values() for term in terms for ch in term}
    for name in ("pinyin.tsv", "glyph.tsv"):
        for row in _read_tsv_column(resource_dir / name, 2):
            chars.update(ch for cell in row for ch in cell)
    return chars


def _alphabets(reserved: set[str]) -> tuple[list[str], list[str]]:
    """(body alphabet, tier alphabet), disjoint from each other and the tables."""
    free = [chr(cp) for cp in range(0x4E00, 0x9FA6) if chr(cp) not in reserved]
    tier_needed = 2 * TIER_SIZE * TIER_TERM_LEN + N_DECOYS * TIER_TERM_LEN
    tier = free[-tier_needed:]
    step = (len(free) - tier_needed) // ALPHABET_SIZE
    body = free[: len(free) - tier_needed : step][:ALPHABET_SIZE]
    return body, tier


class _Writer:
    """Draws bodies, labels and noise from one seeded stream."""

    def __init__(self, rng: random.Random, body_alphabet: list[str], by_cat: dict[str, list[str]]):
        self.rng = rng
        order = list(body_alphabet)
        rng.shuffle(order)
        self.alphabet = order
        weights = [1.0 / (rank + 2.7) for rank in range(len(order))]
        total = 0.0
        self.cum = []
        for w in weights:
            total += w
            self.cum.append(total)
        self.by_cat = by_cat
        self.all_terms = [t for terms in by_cat.values() for t in terms]
        self.seen_bodies: set[str] = set()

    def lengths(self, count: int) -> list[int]:
        """Log-normal body lengths (median 30, sigma 0.7, clamped to 6..400).

        One draw per equal-probability stratum, shuffled: every seed gets
        nearly the same multiset of lengths, so the work per pass does not
        swing with the seed.
        """
        rng = self.rng
        unit = NormalDist()
        out = []
        for i in range(count):
            z = unit.inv_cdf((i + rng.random()) / count)
            out.append(min(max(int(round(math.exp(math.log(30) + 0.7 * z))), 6), 400))
        rng.shuffle(out)
        return out

    def body(self, length: int) -> str:
        while True:
            text = "".join(self.rng.choices(self.alphabet, cum_weights=self.cum, k=length))
            if text not in self.seen_bodies:
                self.seen_bodies.add(text)
                return text

    def labels(self, toxic: bool | None = None) -> dict:
        rng = self.rng
        if toxic is None:
            toxic = rng.random() < TOXIC_RATE
        hate = toxic and rng.random() < HATE_GIVEN_TOXIC
        groups: list[str] = []
        expression = None
        if hate:
            groups = rng.sample(sorted(_GROUP_TOPIC), 1 if rng.random() < 0.85 else 2)
            expression = rng.choices(["explicit", "implicit", "reporting"], weights=[50, 35, 15])[0]
            topic = _GROUP_TOPIC[groups[0]]
        else:
            topic = rng.choice(sorted(_GROUP_TOPIC.values()))
        return {
            "platform": rng.choice(["zhihu", "tieba"]),
            "topic": topic,
            "toxic": int(toxic),
            "hate": int(hate),
            "groups": sorted(groups),
            "expression": expression,
        }

    def insult(self, labels: dict) -> str:
        """A bundled-lexicon term that fits the labels."""
        rng = self.rng
        if labels["hate"] and rng.random() < 0.7:
            return rng.choice(self.by_cat.get(rng.choice(labels["groups"]), self.all_terms))
        if labels["toxic"]:
            return rng.choice(self.by_cat["general"])
        return rng.choice(self.all_terms)

    def noise(self) -> list[str]:
        rng = self.rng
        out = []
        if rng.random() < 0.08:
            name = "".join(rng.choices("abcdefghijklmnopqrstuvwxyz0123456789_", k=rng.randint(3, 9)))
            out.append(rng.choice(["@", "＠"]) + name + " ")
        if rng.random() < 0.06:
            path = "".join(rng.choices("abcdefghijkABCDEFGHIJK0123456789", k=rng.randint(5, 9)))
            out.append(" " + rng.choice(["http://t.cn/", "https://www.zhihu.com/p/"]) + path + " ")
        if rng.random() < 0.05:
            out.append("[图片]")
        if rng.random() < 0.05:
            chunk = rng.choices(_FULLWIDTH_POOL, k=rng.randint(2, 4))
            out.append(" " + "".join(chr(ord(c) + 0xFEE0) for c in chunk) + " ")
        if rng.random() < 0.03:
            out.append(rng.choice(["  ", "　", " \t "]))
        return out

    def compose(self, body: str, tokens: list[str]) -> str:
        """Insert tokens at random cut points of body; tokens never split each other."""
        rng = self.rng
        cuts = sorted(rng.randint(0, len(body)) for _ in tokens)
        rng.shuffle(tokens)
        parts = []
        prev = 0
        for cut, token in zip(cuts, tokens):
            parts.append(body[prev:cut])
            parts.append(token)
            prev = cut
        parts.append(body[prev:])
        return "".join(parts)


def _tier_terms(tier_alphabet: list[str]) -> tuple[list[str], list[str], list[str]]:
    terms = [
        "".join(tier_alphabet[i : i + TIER_TERM_LEN])
        for i in range(0, len(tier_alphabet), TIER_TERM_LEN)
    ]
    return terms[:TIER_SIZE], terms[TIER_SIZE : 2 * TIER_SIZE], terms[2 * TIER_SIZE :]


def request_sizes() -> list[int]:
    """Score-stream request sizes: P(size ≥ k) = 1/k, capped at MAX_REQUEST.

    One size per equal-probability stratum (its midpoint quantile), in one
    fixed shuffled order.  Every seed sends the same sequence of sizes, so
    the tail that sets p99 and the allocator's state before the largest
    request do not change with the seed; the seed picks the comments.
    """
    sizes = [min(MAX_REQUEST, int(1.0 / (1.0 - (i + 0.5) / N_REQUESTS))) for i in range(N_REQUESTS)]
    random.Random(0).shuffle(sizes)
    return sizes


def _record(sample_id: int, text: str, labels: dict) -> str:
    return json.dumps({"id": sample_id, **labels, "text": text}, ensure_ascii=False)


def generate(seed: int, outdir: Path, resource_dir: Path) -> dict:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    by_cat = _lexicon_terms(resource_dir)
    body_alphabet, tier_alphabet = _alphabets(_reserved_chars(resource_dir, by_cat))
    tier1, tier2, decoys = _tier_terms(tier_alphabet)
    w = _Writer(random.Random(seed), body_alphabet, by_cat)
    rng = w.rng

    n_unique = N_COMMENTS - N_BRIEF - N_DUP
    roles = ["t1"] * (TIER_SIZE * TIER1_TEXTS_PER_TERM) + ["t2"] * (TIER_SIZE * TIER2_TEXTS_PER_TERM)
    roles += ["plain"] * (n_unique - len(roles))
    rng.shuffle(roles)
    kinds = ["brief"] * N_BRIEF + ["dup"] * N_DUP + ["unique"] * (n_unique - 1)
    rng.shuffle(kinds)
    kinds.insert(0, "unique")  # a duplicate always has an earlier original

    lines = []
    originals: list[tuple[str, dict]] = []
    planted_ids: list[int] = []
    t1_next = 0
    t2_next = 0
    role_iter = iter(roles)
    length_iter = iter(w.lengths(n_unique))
    for sample_id, kind in enumerate(kinds, start=1):
        if kind == "brief":
            labels = w.labels(toxic=False)
            stub = "".join(rng.choices(w.alphabet, cum_weights=w.cum, k=rng.randint(1, 3)))
            text = stub + rng.choice(["", "[图片]", " @user ", " http://t.cn/brief "])
        elif kind == "dup":
            text, labels = rng.choice(originals)
            text = text + rng.choice(["", " [图片]", " http://t.cn/dup0 ", "　"])
        else:
            role = next(role_iter)
            tokens = w.noise()
            if role == "t1":
                labels = w.labels(toxic=True)
                tokens += [w.insult(labels), tier1[t1_next % TIER_SIZE]]
                t1_next += 1
                planted_ids.append(sample_id)
            elif role == "t2":
                labels = w.labels(toxic=True)
                tokens += [tier1[t2_next % TIER_SIZE], tier2[t2_next % TIER_SIZE]]
                t2_next += 1
                planted_ids.append(sample_id)
            else:
                labels = w.labels()
                quotes = rng.random() < (1 - TOXIC_WITHOUT_TERM if labels["toxic"] else CLEAN_QUOTES_TERM)
                if quotes:
                    tokens += [w.insult(labels) for _ in range(1 if rng.random() < 0.8 else 2)]
            text = w.compose(w.body(next(length_iter)), tokens)
            originals.append((text, labels))
        lines.append(_record(sample_id, text, labels))

    heldout = []
    for i, length in enumerate(w.lengths(N_HELDOUT)):
        labels = w.labels()
        tokens = w.noise()
        if rng.random() < (1 - TOXIC_WITHOUT_TERM if labels["toxic"] else CLEAN_QUOTES_TERM):
            tokens.append(w.insult(labels))
        heldout.append(_record(N_COMMENTS + 1 + i, w.compose(w.body(length), tokens), labels))

    header = json.dumps({"toxicn_schema": 1})
    (outdir / "raw.jsonl").write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")
    (outdir / "heldout.jsonl").write_text("\n".join([header, *heldout]) + "\n", encoding="utf-8")
    accept = ["# reviewed terms, one per line"] + tier1 + tier2 + decoys
    (outdir / "accept.txt").write_text("\n".join(accept) + "\n", encoding="utf-8")
    manifest = {
        "seed": seed,
        "n_raw": N_COMMENTS,
        "n_brief": N_BRIEF,
        "n_dup": N_DUP,
        "expected_clean": n_unique,
        "tier1": tier1,
        "tier2": tier2,
        "planted_ids": planted_ids,
        "n_heldout": N_HELDOUT,
        "request_sizes": request_sizes(),
    }
    (outdir / "manifest.json").write_text(json.dumps(manifest, ensure_ascii=False) + "\n", encoding="utf-8")
    return manifest


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument(
        "--resources",
        default=str(Path(__file__).resolve().parent.parent / "src" / "toxikit" / "resources"),
    )
    args = parser.parse_args()
    generate(args.seed, Path(args.out), Path(args.resources))


if __name__ == "__main__":
    main()
