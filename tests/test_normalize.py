import random
import unicodedata

from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import naive_normalize_text
from toxikit.normalize import (
    deduplicate,
    is_emoji,
    is_substantive,
    normalize_text,
)


def test_mentions_urls_and_spacing():
    assert normalize_text("@user1 你好   http://a.b/c") == "你好"


def test_emoji_preserved():
    assert normalize_text("真棒👍") == "真棒👍"


def test_newlines_collapse_but_cjk_punctuation_survives():
    assert normalize_text("我靠！\n\n我们居然输了。") == "我靠！ 我们居然输了。"


def test_fullwidth_ascii_folds():
    assert normalize_text("ｈｅｌｌｏ１２３") == "hello123"
    assert normalize_text("＠someone 好") == "好"


def test_image_placeholders_removed():
    assert normalize_text("看这个[图片]笑死") == "看这个笑死"
    # nested placeholder re-forms after inner removal; fixpoint catches it
    assert normalize_text("[图[图片]片]") == ""


def test_url_does_not_swallow_following_clause():
    assert normalize_text("点这里http://a.b/c然后呢") == "点这里然后呢"
    assert normalize_text("www.example.com/x 以及") == "以及"


def test_bare_at_sign_kept():
    assert normalize_text("价格@ 每斤") == "价格@ 每斤"


def test_mention_stops_at_emoji():
    assert normalize_text("@张三👍不错") == "👍不错"


def test_is_substantive():
    assert not is_substantive("啊啊")
    assert is_substantive("河南人经常偷井盖")
    assert not is_substantive("")
    assert is_substantive("啊啊", min_chars=2)
    assert not is_substantive("！？。…", min_chars=1)


def test_deduplicate_first_wins():
    assert deduplicate([(1, "a b"), (2, "a b"), (3, "c")]) == [1, 3]
    assert deduplicate([(1, "x"), (2, "y"), (3, "z")]) == [1, 2, 3]
    assert deduplicate([(1, "x"), (2, "X")]) == [1, 2]


def test_deduplicate_matches_pairwise_bruteforce():
    rng = random.Random(5)
    texts = ["".join(rng.choice("abAB好坏") for _ in range(rng.randint(1, 4))) for _ in range(100)]
    corpus = list(enumerate(texts))
    expected = [i for i, t in corpus if t not in texts[:i]]
    assert deduplicate(corpus) == expected


_FUZZ_TOKENS = [
    "你", "好", "河", "南", "人", "a", "B", "1", "＠", "@", " ", "\n", "\t",
    "！", "。", "，", "👍", "😅", "🤔", "Ａ", "１", "[图片]", "[img]",
    "http://x.y/z", "https://a.b?q=1", "www.site.cn/p", "@某人", "@user_1",
]


def _fuzz_text(rng: random.Random) -> str:
    return "".join(rng.choice(_FUZZ_TOKENS) for _ in range(rng.randint(0, 12)))


def test_idempotent_on_fuzz():
    rng = random.Random(1)
    for _ in range(10_000):
        once = normalize_text(_fuzz_text(rng))
        assert normalize_text(once) == once


def _has_mention(text: str) -> bool:
    """An '@' followed by a name character (not space/punct/emoji)."""
    for i, ch in enumerate(text[:-1]):
        nxt = text[i + 1]
        if ch == "@" and not (
            nxt.isspace() or unicodedata.category(nxt).startswith("P") or is_emoji(nxt)
        ):
            return True
    return False


def test_fuzz_output_invariants():
    rng = random.Random(2)
    for _ in range(2_000):
        raw = _fuzz_text(rng)
        out = normalize_text(raw)
        # every input emoji survives
        for ch in raw:
            if is_emoji(ch):
                assert ch in out
        assert "  " not in out and "\n" not in out and "\t" not in out
        assert "http://" not in out and "https://" not in out
        assert not _has_mention(out)


_ORACLE_PIECES = st.one_of(
    st.sampled_from(_FUZZ_TOKENS),
    st.characters(min_codepoint=0xFF10, max_codepoint=0xFF5A),  # full-width digits, ＠, letters
    st.sampled_from(["＠", "@", "\u3000", "👍", "🇨🇳", "☀", "✂", "、", "。", "「", "」", "《", "…", "～"]),
    st.text(max_size=6),
)


@settings(max_examples=500, deadline=None)
@given(st.lists(_ORACLE_PIECES, max_size=16).map("".join))
@example("＠某人\u3000ｈｉ＠＠ａ@@b@")
@example("[图@x片]http://ａ.ｂ/c＠d　@")
def test_normalize_equals_naive_oracle(raw):
    assert normalize_text(raw) == naive_normalize_text(raw)


def test_normalize_equals_naive_oracle_on_each_fullwidth_character():
    # one character at a time, so a class that misses an end of a range shows
    for cp in [*range(0xFF00, 0xFF66), 0x3000, 0x3001, 0x2FFF]:
        raw = f"a{chr(cp)}b"
        assert normalize_text(raw) == naive_normalize_text(raw), hex(cp)
