import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from logotree import phono
from logotree.errors import DataError, SegmentationError
from logotree.phono import (DatasetSplit, PronEntry, ScriptClass, build_scenario,
                            classify_script, parse_unihan_readings,
                            parse_unihan_variants, pick_reading,
                            read_split_csv, segment_jyutping, write_split_csv)


# ---------------------------------------------------------------------------
# UniHan parsing
# ---------------------------------------------------------------------------

def test_parse_readings_basic(tmp_path):
    path = tmp_path / "r.txt"
    path.write_text("U+86DB\tkCantonese\tzyu1\n", encoding="utf-8")
    assert parse_unihan_readings(path) == {"蛛": ["zyu1"]}


def test_parse_readings_no_cantonese(tmp_path):
    path = tmp_path / "r.txt"
    path.write_text("U+86DB\tkMandarin\tzhu1\n# comment\n", encoding="utf-8")
    assert parse_unihan_readings(path) == {}


def test_parse_readings_multiple_order(tmp_path):
    path = tmp_path / "r.txt"
    path.write_text("U+8ACB\tkCantonese\tcing2 ceng2\n", encoding="utf-8")
    assert parse_unihan_readings(path) == {"請": ["cing2", "ceng2"]}


def test_parse_readings_malformed_codepoint_skipped(tmp_path):
    path = tmp_path / "r.txt"
    path.write_text("U+ZZZZ\tkCantonese\tzyu1\nU+86DB\tkCantonese\tzyu1\n",
                    encoding="utf-8")
    assert parse_unihan_readings(path) == {"蛛": ["zyu1"]}


# ---------------------------------------------------------------------------
# pick_reading
# ---------------------------------------------------------------------------

def test_pick_singleton():
    assert pick_reading(["zing1"], random.Random(0)) == "zing1"


def test_pick_deterministic():
    picks1 = [pick_reading(["a", "b"], random.Random(42)) for _ in range(20)]
    picks2 = [pick_reading(["a", "b"], random.Random(42)) for _ in range(20)]
    assert picks1 == picks2


def test_pick_uniform():
    rng = random.Random(123)
    n = 10000
    hits = sum(pick_reading(["x", "y"], rng) == "x" for _ in range(n))
    assert 0.45 <= hits / n <= 0.55


def test_pick_empty_is_error():
    with pytest.raises(DataError):
        pick_reading([], random.Random(0))


# ---------------------------------------------------------------------------
# segmentation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("syllable,expected", [
    ("zing1", ("z", "i", "ng")),
    ("fui3", ("f", "ui", "#")),
    ("jau6", ("j", "au", "#")),
    ("m4", ("#", "m", "#")),
    ("ng5", ("#", "ng", "#")),
    ("gwok3", ("gw", "o", "k")),
    ("kwan3", ("kw", "a", "n")),
    ("ngaa4", ("ng", "aa", "#")),
    ("aap3", ("#", "aa", "p")),
    ("on1", ("#", "o", "n")),
    ("jyut6", ("j", "yu", "t")),
    ("seon3", ("s", "eo", "n")),
    ("ceoi1", ("c", "eoi", "#")),
    ("joeng4", ("j", "oe", "ng")),
])
def test_segment_examples(syllable, expected):
    assert segment_jyutping(syllable) == expected


@pytest.mark.parametrize("bad", ["", "1", "q!", "Zing1", "bcd1"])
def test_segment_rejects_garbage(bad):
    with pytest.raises(SegmentationError):
        segment_jyutping(bad)


def test_segment_memo_raises_on_every_call():
    before = segment_jyutping.cache_info()
    for _ in range(3):
        with pytest.raises(SegmentationError):
            segment_jyutping("bcd1")
    after = segment_jyutping.cache_info()
    assert after.misses - before.misses == 3  # a failure is never stored
    assert after.currsize == before.currsize


def test_segment_memo_gives_the_unmemoized_corpus(readings, monkeypatch):
    memoized = phono.build_corpus(readings, seed=3)
    for r in ("zing1", "zing1", "m4", "ng5"):
        assert segment_jyutping(r) == segment_jyutping.__wrapped__(r)
    monkeypatch.setattr(phono, "segment_jyutping", segment_jyutping.__wrapped__)
    assert phono.build_corpus(readings, seed=3) == memoized


def test_segment_totality_over_corpus(readings):
    for ch, rs in readings.items():
        for r in rs:
            onset, nucleus, coda = segment_jyutping(r)
            rebuilt = "".join(u for u in (onset, nucleus, coda) if u != "#")
            assert rebuilt == r.rstrip("0123456789"), (ch, r)


_onset = st.sampled_from(list(phono.ONSETS) + ["#"])
_nucleus = st.sampled_from(["aa", "a", "e", "i", "o", "u", "oe", "eo", "yu",
                            "ai", "au", "ui", "iu", "eoi", "aau", "ei", "ou"])
_coda = st.sampled_from(list(phono.CODAS) + ["#"])


@given(_onset, _nucleus, _coda, st.integers(min_value=1, max_value=6))
def test_segment_reassembly_property(onset, nucleus, coda, tone):
    """Any syllable assembled from the inventories splits back losslessly."""
    syllable = "".join(u for u in (onset, nucleus, coda) if u != "#") + str(tone)
    o, n, c = segment_jyutping(syllable)
    rebuilt = "".join(u for u in (o, n, c) if u != "#")
    assert rebuilt == syllable[:-1]


@given(st.text(max_size=10))
def test_segment_fuzz_total(s):
    """Arbitrary strings either segment losslessly or raise cleanly."""
    try:
        o, n, c = segment_jyutping(s)
    except SegmentationError:
        return
    rebuilt = "".join(u for u in (o, n, c) if u != "#")
    assert rebuilt == s.rstrip("0123456789")


# ---------------------------------------------------------------------------
# script classification
# ---------------------------------------------------------------------------

def test_classify_self_variant_is_shared(tmp_path):
    path = tmp_path / "v.txt"
    path.write_text("U+4E00\tkSimplifiedVariant\tU+4E00\n", encoding="utf-8")
    vmap = parse_unihan_variants(path)
    assert classify_script("一", vmap) is ScriptClass.SHARED


def test_classify_traditional_and_simplified(variants):
    assert classify_script("賄", variants) is ScriptClass.TRADITIONAL
    assert classify_script("贿", variants) is ScriptClass.SIMPLIFIED
    assert classify_script("蒸", variants) is ScriptClass.SHARED


def test_variant_annotations_stripped(tmp_path):
    path = tmp_path / "v.txt"
    path.write_text("U+8CC4\tkSimplifiedVariant\tU+8D3F<kHanyu\n", encoding="utf-8")
    vmap = parse_unihan_variants(path)
    assert vmap.simplified_counterparts("賄") == ("贿",)


def test_traditional_variant_links_mirror_simplified_ones(tmp_path):
    links = [("U+8A9E", "U+8BED"), ("U+8CC4", "U+8D3F U+4E00"), ("U+4E00", "U+4E00")]

    def parse(lines):
        path = tmp_path / "v.txt"
        path.write_text("".join(f"{a}\t{field}\t{b}\n" for a, field, b in lines),
                        encoding="utf-8")
        return parse_unihan_variants(path)

    simp = parse([(a, "kSimplifiedVariant", b) for a, b in links])
    trad = parse([(a, "kTraditionalVariant", b) for a, b in links])
    assert simp.simplified_of == {"語": ("语",), "賄": ("贿", "一"), "一": ("一",)}
    assert simp.traditional_of == {"语": ("語",), "贿": ("賄",), "一": ("賄",)}
    for mirror, own in ((trad.traditional_of, simp.simplified_of),
                        (trad.simplified_of, simp.traditional_of)):
        assert list(mirror.items()) == list(own.items())  # order included
    # a link stated from both sides records its back-link once
    both = parse([("U+8A9E", "kSimplifiedVariant", "U+8BED"),
                  ("U+8BED", "kTraditionalVariant", "U+8A9E")])
    assert both.simplified_of == {"語": ("语",)}


def test_variant_links_recorded_once(variants):
    # the fixture states every link from both sides: the own link and the
    # other side's back-link name the same counterpart
    for vmap in (variants.simplified_of, variants.traditional_of):
        assert vmap
        for ch, links in vmap.items():
            assert len(set(links)) == len(links), (ch, links)
    assert variants.traditional_of["语"] == ("語",)
    assert variants.simplified_of["語"] == ("语",)


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

def _assert_disjoint(split: DatasetSplit):
    seen = set()
    for _, entries in split.partitions():
        chars = {e.ch for e in entries}
        assert len(chars) == len(entries)
        assert not (chars & seen)
        seen |= chars


def test_scenario1_sizes(corpus):
    split = build_scenario(corpus, 1, seed=3, sizes=(120, 30, 40))
    assert (len(split.train), len(split.validation), len(split.test)) == (120, 30, 40)
    _assert_disjoint(split)


def test_scenario1_insufficient(corpus):
    with pytest.raises(DataError):
        build_scenario(corpus, 1, seed=3, sizes=(100000, 30, 40))


def test_scenario2_purity(corpus, variants):
    split = build_scenario(corpus, 2, seed=3, sizes=(100, 20, 30),
                           variants=variants)
    _assert_disjoint(split)
    for e in split.train + split.validation:
        assert classify_script(e.ch, variants) is not ScriptClass.SIMPLIFIED
    for e in split.test:
        assert classify_script(e.ch, variants) is ScriptClass.SIMPLIFIED


def test_scenario3_pairing(corpus, variants):
    split = build_scenario(corpus, 3, seed=3, sizes=(40, 5, 50),
                           variants=variants)
    _assert_disjoint(split)
    for e in split.test:
        assert classify_script(e.ch, variants) is ScriptClass.SIMPLIFIED
    test_chars = {e.ch for e in split.test}
    for e in split.train + split.validation:
        simps = set(variants.simplified_counterparts(e.ch))
        assert simps & test_chars


def test_scenario_seed_reproducibility(corpus, variants):
    a = build_scenario(corpus, 2, seed=11, sizes=(100, 20, 30), variants=variants)
    b = build_scenario(corpus, 2, seed=11, sizes=(100, 20, 30), variants=variants)
    assert a == b
    c = build_scenario(corpus, 2, seed=12, sizes=(100, 20, 30), variants=variants)
    assert a != c


def test_split_csv_roundtrip(corpus, tmp_path):
    split = build_scenario(corpus, 1, seed=3, sizes=(50, 10, 10))
    path = tmp_path / "split.csv"
    write_split_csv(split, path)
    loaded = read_split_csv(path)
    assert loaded.train == split.train
    assert loaded.validation == split.validation
    assert loaded.test == split.test


@pytest.mark.parametrize("scenario, sizes, seed", [
    (1, (120, 30, 40), 3), (1, (50, 10, 10), 8), (2, (100, 20, 30), 3),
    (2, (100, 20, 30), 11), (3, (40, 5, 50), 3), (3, (40, 5, 50), 5)])
def test_every_built_split_round_trips(corpus, variants, tmp_path, scenario,
                                       sizes, seed):
    # built splits never repeat a character, so the reader's repeat check
    # accepts every one of them
    split = build_scenario(corpus, scenario, seed=seed, sizes=sizes,
                           variants=variants)
    path = tmp_path / "split.csv"
    write_split_csv(split, path)
    assert read_split_csv(path).partitions() == split.partitions()


@pytest.mark.parametrize("rows, first, again", [
    (["河,h,o,#,train", "河,h,o,#,test"], "train", "test"),
    (["河,h,o,#,validation", "江,g,o,ng,test", "河,h,o,#,validation"],
     "validation", "validation"),
    (["河,h,o,#,test", "河,k,a,#,train"], "test", "train"),
])
def test_read_split_rejects_a_repeated_character(tmp_path, rows, first, again):
    path = tmp_path / "leak.csv"
    path.write_text("\n".join(["char,onset,nucleus,coda,partition",
                               "湖,w,u,#,train", *rows]) + "\n", encoding="utf-8")
    with pytest.raises(DataError, match=rf"leak\.csv: character '河' listed in "
                                        rf"{first} and again in {again}$"):
        read_split_csv(path)


def test_read_split_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n", encoding="utf-8")
    with pytest.raises(DataError):
        read_split_csv(path)


@pytest.mark.parametrize("row, problem", [
    (",b,a,#,train", "one character"),
    ("河湖,h,o,#,test", "one character"),
    ("河,,o,#,train", "empty unit"),
    ("河,h,,#,validation", "empty unit"),
    ("河,h,o,,train", "empty unit"),
])
def test_read_split_rejects_empty_or_multi_character_fields(tmp_path, row, problem):
    path = tmp_path / "bad.csv"
    path.write_text(f"char,onset,nucleus,coda,partition\n湖,w,u,#,train\n{row}\n",
                    encoding="utf-8")
    with pytest.raises(DataError, match=rf"bad\.csv: row .*{problem}"):
        read_split_csv(path)


def test_build_corpus_drops_unsegmentable(tmp_path):
    path = tmp_path / "r.txt"
    path.write_text("U+86DB\tkCantonese\tzyu1\nU+4E00\tkCantonese\txyzzy9x\n",
                    encoding="utf-8")
    entries, dropped = phono.build_corpus(parse_unihan_readings(path))
    assert dropped == 1
    assert [e.ch for e in entries] == ["蛛"]
