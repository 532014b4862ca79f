"""Cantonese pronunciation data: UniHan ingestion, syllable segmentation,
script classification, and train/validation/test scenario construction.

A jyutping syllable (tone stripped) splits into onset, nucleus, and coda;
the null marker ``#`` stands for an empty onset or coda. Splits are written
as ``char,onset,nucleus,coda,partition`` CSV, the interchange format the
pronunciation pipeline consumes.
"""

from __future__ import annotations

import csv
import functools
import io
import logging
import random
from dataclasses import dataclass, field
from enum import Enum

from .atomic import read_text, write_csv
from .errors import DataError, SegmentationError

log = logging.getLogger(__name__)

NULL = "#"

ONSETS = ("b", "p", "m", "f", "d", "t", "n", "l", "g", "k", "ng", "h",
          "gw", "kw", "w", "z", "c", "s", "j")
CODAS = ("m", "n", "ng", "p", "t", "k")
SYLLABIC_NASALS = ("m", "ng")
_VOWELS = frozenset("aeiouy")
# longest first so digraphs win over their single-letter prefixes
_ONSETS_BY_LENGTH = sorted(ONSETS, key=len, reverse=True)
_CODAS_BY_LENGTH = sorted(CODAS, key=len, reverse=True)


@dataclass(frozen=True)
class PronEntry:
    ch: str
    onset: str
    nucleus: str
    coda: str


class ScriptClass(Enum):
    TRADITIONAL = "traditional"
    SIMPLIFIED = "simplified"
    SHARED = "shared"


@dataclass
class VariantMap:
    """Simplified/traditional correspondences from UniHan variant fields."""

    simplified_of: dict[str, tuple[str, ...]] = field(default_factory=dict)
    traditional_of: dict[str, tuple[str, ...]] = field(default_factory=dict)

    def simplified_counterparts(self, ch: str) -> tuple[str, ...]:
        return self.simplified_of.get(ch, ())

    def traditional_counterparts(self, ch: str) -> tuple[str, ...]:
        return self.traditional_of.get(ch, ())


@dataclass
class DatasetSplit:
    train: list[PronEntry]
    validation: list[PronEntry]
    test: list[PronEntry]
    scenario: int = 0
    seed: int = 0

    def partitions(self):
        return (("train", self.train), ("validation", self.validation),
                ("test", self.test))


# ---------------------------------------------------------------------------
# UniHan parsing
# ---------------------------------------------------------------------------

def _parse_unihan_lines(path, wanted_fields: set[str]):
    for lineno, line in enumerate(read_text(path, "UniHan file").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) < 3 or parts[1] not in wanted_fields:
            continue
        try:
            ch = chr(int(parts[0].removeprefix("U+"), 16))
        except ValueError:
            log.warning("%s:%d: malformed codepoint %r", path, lineno, parts[0])
            continue
        yield ch, parts[1], parts[2]


def parse_unihan_readings(path) -> dict[str, list[str]]:
    """Character to its kCantonese readings, preserved in file order."""
    readings: dict[str, list[str]] = {}
    for ch, _, value in _parse_unihan_lines(path, {"kCantonese"}):
        readings.setdefault(ch, []).extend(value.split())
    return readings


def _variant_chars(value: str) -> tuple[str, ...]:
    # values look like "U+8D3F" or "U+8D3F<kMatthews U+XXXX"; annotations
    # after "<" apply to the preceding codepoint
    out = []
    for item in value.split():
        cp = item.split("<")[0]
        try:
            out.append(chr(int(cp.removeprefix("U+"), 16)))
        except ValueError:
            continue
    return tuple(out)


def parse_unihan_variants(path) -> VariantMap:
    vmap = VariantMap()
    fields = {"kSimplifiedVariant", "kTraditionalVariant"}
    for ch, fieldname, value in _parse_unihan_lines(path, fields):
        chars = _variant_chars(value)
        if not chars:
            continue
        # a field's own map takes its links, the other map the back-links, each once
        own, back = ((vmap.simplified_of, vmap.traditional_of)
                     if fieldname == "kSimplifiedVariant"
                     else (vmap.traditional_of, vmap.simplified_of))
        own[ch] = tuple(dict.fromkeys(own.get(ch, ()) + chars))
        for other in chars:
            if other != ch:
                back[other] = tuple(dict.fromkeys(back.get(other, ()) + (ch,)))
    return vmap


# ---------------------------------------------------------------------------
# segmentation
# ---------------------------------------------------------------------------

def pick_reading(readings: list[str], rng: random.Random) -> str:
    """Uniform choice among pronunciation variants, reproducible under seed."""
    if not readings:
        raise DataError("no readings to pick from")
    return readings[rng.randrange(len(readings))]


@functools.lru_cache(maxsize=4096)
def segment_jyutping(s: str) -> tuple[str, str, str]:
    """Split a jyutping syllable into (onset, nucleus, coda).

    The trailing tone digit is stripped first. The onset is the longest
    leading match from the initial inventory, the coda the longest trailing
    consonantal final; what remains must be a vowel nucleus. Syllabic
    nasals (``m``, ``ng`` standing alone) become the nucleus.

    Results are memoized per syllable (a corpus repeats a few hundred
    syllables); a syllable that does not segment raises on every call.
    """
    base = s.rstrip("0123456789")
    if not base or not base.isascii() or not base.isalpha() or not base.islower():
        raise SegmentationError(f"not a jyutping syllable: {s!r}")
    if base in SYLLABIC_NASALS:
        return (NULL, base, NULL)

    onset = NULL
    for cand in _ONSETS_BY_LENGTH:
        if base.startswith(cand):
            onset = cand
            break
    rest = base[len(onset):] if onset != NULL else base
    if rest in SYLLABIC_NASALS:
        return (onset, rest, NULL)

    coda = NULL
    for cand in _CODAS_BY_LENGTH:
        if rest.endswith(cand) and len(rest) > len(cand):
            coda = cand
            break
    nucleus = rest[:-len(coda)] if coda != NULL else rest
    if not nucleus or not set(nucleus) <= _VOWELS:
        raise SegmentationError(f"no vowel nucleus in {s!r} "
                                f"(onset={onset}, remainder={rest!r})")
    return (onset, nucleus, coda)


def build_corpus(readings: dict[str, list[str]], seed: int = 0
                 ) -> tuple[list[PronEntry], int]:
    """Segment one picked reading per character.

    Returns the corpus plus the count of characters dropped because none of
    their readings segmented.
    """
    rng = random.Random(seed)
    corpus: list[PronEntry] = []
    dropped = 0
    for ch in sorted(readings):
        try:
            onset, nucleus, coda = segment_jyutping(pick_reading(readings[ch], rng))
        except SegmentationError:
            dropped += 1
            continue
        corpus.append(PronEntry(ch, onset, nucleus, coda))
    return corpus, dropped


# ---------------------------------------------------------------------------
# script classification and scenarios
# ---------------------------------------------------------------------------

def classify_script(ch: str, variants: VariantMap) -> ScriptClass:
    trads = [t for t in variants.traditional_counterparts(ch) if t != ch]
    if trads:
        return ScriptClass.SIMPLIFIED
    simps = [s for s in variants.simplified_counterparts(ch) if s != ch]
    if simps:
        return ScriptClass.TRADITIONAL
    return ScriptClass.SHARED


DEFAULT_SIZES = {1: (16000, 2400, 2400), 2: (16000, 2400, 2400), 3: (2302, 200, 2400)}


def build_scenario(corpus: list[PronEntry], scenario: int, seed: int,
                   sizes: tuple[int, int, int] | None = None,
                   variants: VariantMap | None = None) -> DatasetSplit:
    """Assemble one of the three evaluation scenarios.

    1: random split over all characters. 2: test on simplified characters,
    train/validate on non-simplified ones. 3: test on simplified characters,
    train/validate on their traditional counterparts.
    """
    if scenario not in (1, 2, 3):
        raise DataError(f"scenario must be 1, 2 or 3, got {scenario}")
    n_train, n_val, n_test = sizes or DEFAULT_SIZES[scenario]
    rng = random.Random(seed)
    by_char = {e.ch: e for e in corpus}
    if len(by_char) != len(corpus):
        raise DataError("corpus contains duplicate characters")

    def take(pool: list[PronEntry], n: int, label: str) -> list[PronEntry]:
        if len(pool) < n:
            raise DataError(f"scenario {scenario}: need {n} characters for "
                            f"{label}, only {len(pool)} available")
        return [pool.pop() for _ in range(n)]

    if scenario == 1:
        pool = sorted(corpus, key=lambda e: e.ch)
        rng.shuffle(pool)
        test = take(pool, n_test, "test")
        val = take(pool, n_val, "validation")
        train = take(pool, n_train, "train")
        return DatasetSplit(train, val, test, scenario, seed)

    if variants is None:
        raise DataError(f"scenario {scenario} requires a variant map")
    classes = {e.ch: classify_script(e.ch, variants) for e in corpus}
    simplified = sorted((e for e in corpus
                         if classes[e.ch] is ScriptClass.SIMPLIFIED),
                        key=lambda e: e.ch)
    rng.shuffle(simplified)

    if scenario == 2:
        non_simplified = sorted((e for e in corpus
                                 if classes[e.ch] is not ScriptClass.SIMPLIFIED),
                                key=lambda e: e.ch)
        rng.shuffle(non_simplified)
        test = take(simplified, n_test, "test (simplified)")
        val = take(non_simplified, n_val, "validation (non-simplified)")
        train = take(non_simplified, n_train, "train (non-simplified)")
        return DatasetSplit(train, val, test, scenario, seed)

    # scenario 3: simplified test, traditional counterparts for train/val
    pairable = [e for e in simplified
                if any(t in by_char and t != e.ch
                       for t in variants.traditional_counterparts(e.ch))]
    test = take(pairable, n_test, "test (simplified with counterpart)")
    counterpart_pool: list[PronEntry] = []
    seen: set[str] = set()
    for e in test:
        trad = next(t for t in variants.traditional_counterparts(e.ch)
                    if t in by_char and t != e.ch)
        if trad not in seen:
            seen.add(trad)
            counterpart_pool.append(by_char[trad])
    test_chars = {e.ch for e in test}
    counterpart_pool = [e for e in counterpart_pool if e.ch not in test_chars]
    counterpart_pool.sort(key=lambda e: e.ch)
    rng.shuffle(counterpart_pool)
    val = take(counterpart_pool, n_val, "validation (traditional)")
    train = take(counterpart_pool, n_train, "train (traditional)")
    return DatasetSplit(train, val, test, scenario, seed)


# ---------------------------------------------------------------------------
# CSV interchange
# ---------------------------------------------------------------------------

CSV_HEADER = ["char", "onset", "nucleus", "coda", "partition"]


def write_split_csv(split: DatasetSplit, path) -> None:
    write_csv(path, CSV_HEADER, ([e.ch, e.onset, e.nucleus, e.coda, name]
                                 for name, entries in split.partitions()
                                 for e in entries))


def read_split_csv(path) -> DatasetSplit:
    """The split a ``write_split_csv`` file holds; a character listed twice,
    in one partition or in two, is a ``DataError``."""
    split = DatasetSplit([], [], [])
    parts = dict(split.partitions())
    first: dict[str, str] = {}  # character -> the partition it was listed in
    reader = csv.reader(io.StringIO(read_text(path, "split"), newline=""))
    try:
        header = next(reader, None)
        if header != CSV_HEADER:
            raise DataError(f"{path}: expected header {CSV_HEADER}, got {header}")
        for row in reader:
            if len(row) != 5:
                raise DataError(f"{path}: malformed row {row}")
            if row[4] not in parts:
                raise DataError(f"{path}: unknown partition {row[4]!r}")
            if len(row[0]) != 1:
                raise DataError(f"{path}: row {row}: char must be one character")
            if not all(row[1:4]):
                raise DataError(f"{path}: row {row}: empty unit ('#' marks none)")
            if row[0] in first:
                raise DataError(f"{path}: character {row[0]!r} listed in "
                                f"{first[row[0]]} and again in {row[4]}")
            first[row[0]] = row[4]
            parts[row[4]].append(PronEntry(*row[:4]))
    except csv.Error as exc:
        raise DataError(f"{path}: {exc}") from exc
    return split
