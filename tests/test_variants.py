import random

import pytest

from toxikit.resources import glyph_path, pinyin_path
from toxikit.variants import (
    DerivationRule,
    GlyphTable,
    PinyinTable,
    VariantCandidate,
    VariantError,
    compose_deformation,
    detect_code_mixing,
    expand_deformation,
    gen_abbreviation,
    gen_homophones,
)


@pytest.fixture(scope="module")
def pinyin():
    return PinyinTable.load(pinyin_path())


@pytest.fixture(scope="module")
def glyphs():
    return GlyphTable.load(glyph_path())


# ---------------------------------------------------------------- abbreviation

def test_abbreviation_txl(pinyin):
    cand = gen_abbreviation("同性恋", pinyin)
    assert cand.variant == "txl"
    assert cand.source_term == "同性恋"
    assert cand.rule is DerivationRule.ABBREVIATION


def test_abbreviation_xxn(pinyin):
    assert gen_abbreviation("小仙女", pinyin).variant == "xxn"


def test_abbreviation_single_char(pinyin):
    assert gen_abbreviation("黑", pinyin).variant == "h"


def test_abbreviation_unmapped_char_named(pinyin):
    with pytest.raises(VariantError, match="㒦"):
        gen_abbreviation("㒦", pinyin)


# ---------------------------------------------------------------- homophones

def test_homophones_include_nan_man(pinyin):
    variants = {c.variant for c in gen_homophones("南蛮", pinyin, "满曼男")}
    assert "南满" in variants


def test_homophones_single_char_pool(pinyin):
    variants = {c.variant for c in gen_homophones("蛮", pinyin, "满慢")}
    assert variants == {"满", "慢"}


def test_homophones_empty_pool(pinyin):
    assert gen_homophones("蛮", pinyin, "") == []


def test_homophones_exclude_original_and_preserve_length(pinyin):
    # the pool repeats a character and holds the term's own characters
    cands = gen_homophones("南蛮", pinyin, "满满曼男南蛮")
    assert cands and len({cand.variant for cand in cands}) == len(cands)
    for cand in cands:
        assert cand.variant != "南蛮"
        assert len(cand.variant) == 2
        assert cand.rule is DerivationRule.HOMOPHONIC


def test_homophones_unmapped_term_char_errors(pinyin):
    with pytest.raises(VariantError, match="㒦"):
        gen_homophones("㒦蛮", pinyin, "满")


# ---------------------------------------------------------------- deformation

def test_expand_mo(glyphs):
    assert expand_deformation("默", glyphs).components == ("黑", "犬")


def test_compose_inverse(glyphs):
    assert compose_deformation(["黑", "犬"], glyphs) == ["默"]


def test_expand_uncovered_char(glyphs):
    expansion = expand_deformation("一", glyphs)
    assert expansion.components == ()
    assert "not covered" in expansion.note


def test_compose_expand_round_trip(glyphs):
    for ch, components in glyphs.items():
        assert ch in compose_deformation(list(components), glyphs)


def test_compose_empty_components_rejected(glyphs):
    with pytest.raises(VariantError):
        compose_deformation([], glyphs)


# ---------------------------------------------------------------- code mixing

def test_code_mixing_ni_ge():
    result = detect_code_mixing("ni哥")
    assert result.mixed
    assert [(r.script, r.text) for r in result.runs] == [("latin", "ni"), ("cjk", "哥")]


def test_code_mixing_pure_strings():
    assert not detect_code_mixing("你好").mixed
    assert not detect_code_mixing("txl").mixed


def test_code_mixing_digits_count_as_latin():
    assert detect_code_mixing("6个").mixed


def test_code_mixing_empty_rejected():
    with pytest.raises(VariantError):
        detect_code_mixing("")


def test_single_script_never_mixed_fuzz():
    rng = random.Random(13)
    latin = "abcdefghijklmnopqrstuvwxyz0123456789"
    cjk = "你好我他是的一不了人在有这中大来上国们"
    for _ in range(10_000):
        alphabet = latin if rng.random() < 0.5 else cjk
        token = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 12)))
        assert not detect_code_mixing(token).mixed


# ---------------------------------------------------------------- rule enum

def test_semantic_classes_are_not_generation_rules():
    names = {r.value for r in DerivationRule}
    assert names == {"homophonic", "abbreviation", "code_mixing", "deformation"}


def test_variant_must_differ_from_source():
    with pytest.raises(VariantError):
        VariantCandidate(variant="同", source_term="同", rule=DerivationRule.HOMOPHONIC)


# ---------------------------------------------------------------- tables

def test_pinyin_table_lists_all_readings(pinyin):
    assert "nan" in pinyin.syllables("南")
    assert set(pinyin.syllables("蛮")) & set(pinyin.syllables("满"))


def test_tables_load_errors(tmp_path):
    bad = tmp_path / "p.tsv"
    bad.write_text("南蛮\tnan\n", encoding="utf-8")
    with pytest.raises(VariantError):
        PinyinTable.load(bad)
    bad.write_text("南\tNAN!\n", encoding="utf-8")
    with pytest.raises(VariantError):
        PinyinTable.load(bad)
    bad.write_text("南\tnan\n# 南 again\n南\tnam\n", encoding="utf-8")
    with pytest.raises(VariantError, match=r"p\.tsv:3: duplicate character '南'"):
        PinyinTable.load(bad)
    badg = tmp_path / "g.tsv"
    badg.write_text("默\t黑犬+口\n", encoding="utf-8")
    with pytest.raises(VariantError):
        GlyphTable.load(badg)
    badg.write_text("默\t黑+犬\n默\t黑+口\n", encoding="utf-8")
    with pytest.raises(VariantError, match=r"g\.tsv:2: duplicate character '默'"):
        GlyphTable.load(badg)
