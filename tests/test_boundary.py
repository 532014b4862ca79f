"""The file boundary: every user file that cannot be read, decoded or parsed
ends in a typed ``LogotreeError`` (``error[<category>]`` and exit 1 through
the CLI), and malformed command-line values are usage errors (exit 2)."""

import contextlib
import io
import json
import struct
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from logotree import ids, lm, phono
from logotree.checkpoint import MAGIC, load_checkpoint
from logotree.cli import dispatch
from logotree.config import DATA_KEYS, PATH_KEYS, LoadedConfig, load_config
from logotree.errors import (CheckpointError, ConfigError, IoError,
                             LogotreeError)

DATA = Path(__file__).parent / "data"
RULES = str(DATA / "mini_ids.txt")
NOT_UTF8 = b"\xff\xfe"
DEEP_JSON = "[" * 100_000 + "]" * 100_000
HUGE_INT = "9" * 5000  # past Python's 4300-digit int conversion limit
TINY_RUN = {"epochs": 1, "hidden": 4, "d_in": 4, "batch_size": 4,
            "cnn_filters": 2}
TINY_LM = {"input_kind": "standard", "layer_sizes": [4], "embed_dim": 4,
           "epochs": 1, "batch_size": 2, "bptt": 4}


def run(argv):
    """``dispatch(argv)`` as (exit code, stdout, stderr); an argparse usage
    error is its ``SystemExit`` code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = dispatch(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def write(path, content):
    path.write_bytes(content if isinstance(content, bytes)
                     else content.encode("utf-8"))
    return str(path)


def checkpoint_bytes(header: str) -> bytes:
    raw = header.encode("utf-8")
    return MAGIC + struct.pack("<I", len(raw)) + raw


@pytest.fixture(scope="module")
def split_csv(tmp_path_factory, corpus):
    path = tmp_path_factory.mktemp("split") / "split.csv"
    phono.write_split_csv(phono.DatasetSplit(corpus[:8], corpus[8:12],
                                             corpus[12:16]), path)
    return str(path)


# ---------------------------------------------------------------------------
# every text input that is not UTF-8
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("load", [
    ids.load_rule_table, phono.parse_unihan_readings,
    phono.parse_unihan_variants, phono.read_split_csv, lm.read_corpus])
def test_data_file_that_is_not_utf8_is_io_error(tmp_path, load):
    path = write(tmp_path / "bad.txt", "U+4ED5\tkCantonese\tsi6\n".encode()
                 + NOT_UTF8)
    with pytest.raises(IoError, match="cannot read .*utf-8"):
        load(path)


def test_config_that_is_not_utf8_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(write(tmp_path / "bad.json", NOT_UTF8))


def test_cli_reports_a_file_that_is_not_utf8(tmp_path, split_csv):
    bad = write(tmp_path / "bad.txt", NOT_UTF8)
    config = write(tmp_path / "c.json", json.dumps({"run": TINY_RUN}))
    lm_config = write(tmp_path / "lm.json", json.dumps({"run": TINY_LM}))
    out = str(tmp_path / "out")
    cases = [
        (["validate-rules", bad], "io"),
        (["decompose", "仕", "--rules", bad], "io"),
        (["prepare-data", "--readings", bad, "--out", out + "/s.csv"], "io"),
        (["prepare-data", "--readings", str(DATA / "mini_readings.txt"),
          "--variants", bad, "--scenario", "2", "--out", out + "/s.csv"], "io"),
        (["train-pron", "--config", config, "--split", bad, "--rules", RULES],
         "io"),
        (["train-pron", "--config", bad, "--split", split_csv, "--rules",
          RULES], "config"),
        (["train-lm", "--config", lm_config, "--corpus", bad], "io"),
    ]
    for argv, category in cases:
        rc, _, err = run(["--out-dir", out] + argv)
        assert (rc, err.split(":")[0]) == (1, f"error[{category}]"), argv


# ---------------------------------------------------------------------------
# JSON that parses into a RecursionError or a ValueError
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("text", [
    DEEP_JSON, '{"run": ' * 50_000 + "{}" + "}" * 50_000,
    '{"run": {"seed": ' + HUGE_INT + "}}"], ids=["list", "object", "int"])
def test_deep_or_huge_integer_config_is_config_error(tmp_path, text,
                                                     split_csv):
    path = write(tmp_path / "c.json", text)
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(path)
    rc, _, err = run(["train-pron", "--config", path, "--split", split_csv,
                      "--rules", RULES])
    assert rc == 1 and err.startswith("error[config]")


@pytest.mark.parametrize("header", [
    DEEP_JSON, '{"format_version": ' + HUGE_INT + "}",
    '{"format_version": 1, "manifest": {"kind": "pronunciation", "n": '
    + HUGE_INT + '}, "tensors": []}'], ids=["deep", "version", "manifest"])
def test_deep_or_huge_integer_checkpoint_header_is_checkpoint_error(
        tmp_path, header, split_csv):
    path = write(tmp_path / "h.ckpt", checkpoint_bytes(header))
    with pytest.raises(CheckpointError, match="corrupt header"):
        load_checkpoint(path)
    rc, _, err = run(["eval-pron", "--checkpoint", path, "--split", split_csv,
                      "--rules", RULES])
    assert rc == 1 and err.startswith("error[checkpoint]")


def test_checkpoint_header_is_strict_utf8(tmp_path):
    # UTF-16 with a byte order mark is JSON that json.loads would accept as
    # bytes; the header is decoded as UTF-8 first, so it is refused
    raw = '{"format_version": 1}'.encode("utf-16")
    path = write(tmp_path / "u16.ckpt",
                 MAGIC + struct.pack("<I", len(raw)) + raw)
    with pytest.raises(CheckpointError, match="corrupt header"):
        load_checkpoint(path)


# ---------------------------------------------------------------------------
# config data keys
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("data", [
    {"split": 5}, {"rules": None}, {"corpus_valid": ["a.txt"]},
    {"corpus_train": 1.5}, {"rules": {"a": 1}},
    {"splits": {"x": "a.csv"}}, {"splits": {"1": 5}}, {"splits": ["a.csv"]},
    {"splits": {"": "a.csv"}}, {"grid": [0.1]},
    {"grid": {"learning_rates": ["a"]}}, {"grid": {"dropouts": [True]}},
    {"grid": {"learning_rates": 0.1}}, {"grid": {"lr": [0.1]}},
    {"matrix": {"encoders": [["lstm", "1"]]}},
    {"matrix": {"encoders": [["lstm"]]}}, {"matrix": {"encoders": [1]}},
    {"matrix": {"scenarios": ["1"]}}, {"matrix": {"orders": [1]}},
    {"matrix": {"ablations": [0]}}, {"matrix": {"widths": []}},
    {"matrix": "all"}])
def test_wrongly_typed_data_key_is_config_error(tmp_path, data):
    path = write(tmp_path / "c.json", json.dumps({**data, "run": {}}))
    with pytest.raises(ConfigError, match=f"{next(iter(data))}="):
        load_config(path)


@pytest.mark.parametrize("data", [
    {"readings": ["a.txt"]}, {"out_dir": {"a": 1}}, {"out_dir": "runs"},
    {"variants": "v.txt"}, {"corpus_test": "t.txt"}])
def test_data_keys_no_command_reads_are_unknown(tmp_path, data):
    path = write(tmp_path / "c.json", json.dumps({**data, "run": {}}))
    with pytest.raises(ConfigError, match=f"unknown keys .*{next(iter(data))}"):
        load_config(path)


def test_documented_data_shapes_load(tmp_path):
    data = {"split": "s.csv", "splits": {"1": "a.csv", "3": "b.csv"},
            "grid": {"learning_rates": [1e-2, 3], "dropouts": []},
            "matrix": {"encoders": [["lstm", 2], "cnn"], "scenarios": [1],
                       "orders": ["on_nu_cd"], "ablations": [True]}}
    loaded = load_config(write(tmp_path / "c.json",
                               json.dumps({**data, "run": {}})))
    assert loaded.data == data
    for name in ("pron_example.json", "lm_example.json"):
        path = Path(__file__).parents[1] / "configs" / name
        kind = "lm" if name.startswith("lm") else "run"
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert load_config(path, kind).data == {
            k: v for k, v in payload.items() if k != "run"}


def test_cli_reports_wrongly_typed_data_keys(tmp_path, split_csv):
    cases = [("train-pron", {"split": 5, "rules": RULES}),
             ("run-matrix", {"rules": RULES, "splits": {"x": split_csv}}),
             ("run-matrix", {"rules": RULES, "splits": {"1": split_csv},
                             "matrix": {"encoders": [["lstm", "1"]]}}),
             ("grid-search", {"split": split_csv, "rules": RULES,
                              "grid": {"dropouts": ["0.1"]}})]
    for command, data in cases:
        config = write(tmp_path / "c.json",
                       json.dumps({"run": TINY_RUN, **data}))
        rc, _, err = run(["--out-dir", str(tmp_path), command, "--config",
                          config])
        assert rc == 1 and err.startswith("error[config]"), (command, err)


# ---------------------------------------------------------------------------
# prepare-data --sizes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("sizes", ["a,b,c", "5,5", "1,2,3,4", "1,,2", "",
                                   "1.5,2,3", "-1,2,3", "1,-2,3"])
def test_malformed_sizes_are_usage_errors(tmp_path, sizes):
    rc, _, err = run(["prepare-data", "--readings",
                      str(DATA / "mini_readings.txt"), f"--sizes={sizes}",
                      "--out", str(tmp_path / "s.csv")])
    assert rc == 2 and "--sizes" in err
    assert not (tmp_path / "s.csv").exists()


def test_sizes_accept_three_non_negative_ints(tmp_path):
    out = tmp_path / "s.csv"
    rc, _, _ = run(["--out-dir", str(tmp_path), "prepare-data", "--readings",
                    str(DATA / "mini_readings.txt"), "--sizes", "5, 0,3",
                    "--out", str(out)])
    assert rc == 0
    partitions = [line.rsplit(",", 1)[1] for line in
                  out.read_text(encoding="utf-8").splitlines()[1:]]
    assert [partitions.count(p) for p in ("train", "validation", "test")] \
        == [5, 0, 3]



# ---------------------------------------------------------------------------
# a command's character
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def pron_checkpoint(tmp_path_factory, rule_table, corpus):
    from logotree import pron
    from logotree.config import RunConfig
    path = tmp_path_factory.mktemp("probe") / "pron.ckpt"
    pron.save_model(path, pron.build_model(
        RunConfig(encoder="treelstm", hidden=4, d_in=4),
        pron.Inventories.from_entries(corpus), sorted(rule_table.leaf_set)))
    return str(path)


@pytest.mark.parametrize("command", ["probe", "decompose", "neighbors"])
@pytest.mark.parametrize("char", ["", "河湖"], ids=["empty", "two-chars"])
def test_anything_but_one_character_is_a_usage_error(
        tmp_path, pron_checkpoint, command, char):
    # each command's positional logograph
    flags = ["--rules", RULES]
    if command != "decompose":
        flags += ["--checkpoint", pron_checkpoint]
    rc, out, err = run(["--out-dir", str(tmp_path), command, char, *flags])
    assert rc == 2 and "one character" in err and "Traceback" not in err
    assert out == "" and list(tmp_path.iterdir()) == []


def test_probe_of_one_character_writes_its_trace(tmp_path, pron_checkpoint):
    rc, _, _ = run(["--out-dir", str(tmp_path), "probe", "河",
                    "--checkpoint", pron_checkpoint, "--rules", RULES])
    assert rc == 0
    assert (tmp_path / f"probe_{ord('河'):05X}.csv").is_file()

# ---------------------------------------------------------------------------
# properties: a result, a typed error, or a usage error; nothing else
# ---------------------------------------------------------------------------

_JUNK = st.just(b"") | st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80",
                                        b"\x00", b"\r", b"\"", NOT_UTF8])


def _spliced(texts):
    """Encoded text, with a byte string that is often not UTF-8 spliced in."""
    def splice(args):
        raw, junk, pos = args
        pos %= len(raw) + 1
        return raw[:pos] + junk + raw[pos:]
    return st.tuples(texts.map(lambda t: t.encode("utf-8")), _JUNK,
                     st.integers(0, 1 << 16)).map(splice)


def _lines(cells, sep):
    return st.lists(st.lists(cells, max_size=6).map(sep.join),
                    max_size=6).map("\n".join)


_SPLIT_ROW = st.tuples(
    st.sampled_from(["仕", "位", "河", '"a,b"', ""]), st.sampled_from("sw#"),
    st.sampled_from(["i", "ai", "i", '"']), st.sampled_from(["#", "ng"]),
    st.sampled_from(["train", "validation", "test"] * 2 + ["dev"])
).map(",".join)
_SPLIT_TEXT = st.tuples(
    st.just(",".join(phono.CSV_HEADER) + "\n") | st.sampled_from(["", "c\n"]),
    st.lists(_SPLIT_ROW, max_size=6).map("\n".join),
    st.just("") | _lines(st.sampled_from(["仕", "s", "train", '"', "", "\r"]),
                         ",").map("\n".__add__)
).map("".join)
_UNIHAN_TEXT = _lines(st.sampled_from(["U+4ED5", "U+ZZZZ", "U+110000",
                                       "kCantonese", "kSimplifiedVariant",
                                       "si6", "U+4F4D<kMatthews", "#", ""]),
                      "\t")
_RULES_TEXT = _lines(st.sampled_from(["U+4ED5", "仕", "亻", "士", "⿰亻士",
                                      "⿰仕仕", "⿱", "&CDP-8BF1;", ";", ""]),
                     "\t")
_CORPUS_TEXT = st.text(st.sampled_from("仕位河 \n\r\t\x85a"), max_size=30)
# JSON text built from fragments, so it can hold what json.dumps cannot
# write: deep nesting, integers past the digit limit, NaN and 1e999
_JSON_TEXT = st.recursive(
    st.sampled_from(["null", "true", "0", "-1", "3", "0.5", "1e999", "NaN",
                     '"x"', '"1"', '"lstm"', '"a.csv"', '"a\\u0000b"',
                     HUGE_INT, DEEP_JSON]),
    lambda kids: st.lists(kids, max_size=2).map(
        lambda v: "[" + ",".join(v) + "]")
    | st.lists(st.tuples(st.sampled_from(
        ["1", "x", "learning_rates", "dropouts", "encoders", "scenarios",
         "orders", "ablations", "epochs", "encoder"]), kids),
        max_size=2).map(lambda kv: "{" + ",".join(
            f'"{k}": {v}' for k, v in kv) + "}"),
    max_leaves=4)
_CONFIG_TEXT = st.lists(st.tuples(st.sampled_from(("run", "other", *DATA_KEYS)),
                                  _JSON_TEXT), max_size=4).map(
    lambda kv: "{" + ",".join(f'"{k}": {v}' for k, v in kv) + "}")

_PROPERTY = settings(max_examples=60, deadline=None, derandomize=True,
                     suppress_health_check=[HealthCheck.function_scoped_fixture,
                                            HealthCheck.too_slow])


@_PROPERTY
@given(_spliced(_SPLIT_TEXT))
def test_read_split_csv_returns_a_split_or_raises_typed(tmp_path, raw):
    try:
        split = phono.read_split_csv(write(tmp_path / "s.csv", raw))
    except LogotreeError:
        return
    assert all(isinstance(e, phono.PronEntry)
               for _, part in split.partitions() for e in part)


@_PROPERTY
@given(_spliced(_CONFIG_TEXT) | _spliced(_JSON_TEXT))
def test_load_config_returns_a_config_or_raises_config_error(tmp_path, raw):
    try:
        loaded = load_config(write(tmp_path / "c.json", raw))
    except ConfigError:
        return
    assert isinstance(loaded, LoadedConfig)
    assert all(isinstance(loaded.data[k], str) for k in PATH_KEYS
               if k in loaded.data)


@_PROPERTY
@given(_spliced(_CORPUS_TEXT))
def test_read_corpus_returns_lines_or_raises_typed(tmp_path, raw):
    try:
        lines = lm.read_corpus(write(tmp_path / "corpus.txt", raw))
    except LogotreeError:
        return
    assert lines and all(isinstance(line, str) and line for line in lines)


def _tiny_config(run_section):
    """Config text with a tiny run section and up to two fuzzed data keys."""
    data = st.lists(st.tuples(st.sampled_from(DATA_KEYS),
                              _JSON_TEXT | st.just(json.dumps(RULES))),
                    max_size=2)
    return _spliced(data.map(lambda kv: "{" + "".join(
        f'"{k}": {v}, ' for k, v in kv) + f'"run": {json.dumps(run_section)}}}'))


@pytest.mark.parametrize("command", [
    "validate-rules", "prepare-data", "train-pron", "train-pron-config",
    "run-matrix", "train-lm", "eval-pron"])
@settings(_PROPERTY, max_examples=15)
@given(data=st.data())
def test_dispatch_ends_in_a_result_a_typed_error_or_a_usage_error(
        tmp_path, split_csv, command, data):
    path = tmp_path / "input"
    if command == "validate-rules":
        argv = ["validate-rules", write(path, data.draw(_spliced(_RULES_TEXT)))]
    elif command == "prepare-data":
        sizes = data.draw(st.sampled_from(["2,1,1", "1,1,0"])
                          | st.text(st.sampled_from("0123,-a "), max_size=8))
        argv = ["prepare-data", "--readings",
                write(path, data.draw(_spliced(_UNIHAN_TEXT))),
                f"--sizes={sizes}", "--out", str(tmp_path / "out.csv")]
    elif command == "train-pron":
        argv = ["train-pron", "--config",
                write(tmp_path / "c.json", json.dumps({"run": TINY_RUN})),
                "--split", write(path, data.draw(_spliced(_SPLIT_TEXT))),
                "--rules", RULES]
    elif command in ("train-pron-config", "run-matrix"):
        argv = [command.removesuffix("-config"), "--config",
                write(tmp_path / "c.json", data.draw(_tiny_config(TINY_RUN)))]
    elif command == "train-lm":
        argv = ["train-lm", "--config",
                write(tmp_path / "c.json", data.draw(_tiny_config(TINY_LM))),
                "--corpus", write(path, data.draw(_spliced(_CORPUS_TEXT)))]
    else:
        argv = ["eval-pron", "--checkpoint",
                write(path, checkpoint_bytes(data.draw(_JSON_TEXT))),
                "--split", split_csv, "--rules", RULES]
    rc, out, err = run(["--out-dir", str(tmp_path / "runs")] + argv)
    assert rc in (0, 1, 2)
    if rc == 1:
        assert err.startswith("error[") or "cycle detected" in out
    if rc == 2:
        assert err.startswith("usage:")
