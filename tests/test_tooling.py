import ast
import hashlib
import json
import os
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

from logotree import ids, lm, pron
from logotree.checkpoint import save_checkpoint
from logotree.cli import dispatch
from logotree.config import (LmConfig, RunConfig, config_to_dict, load_config,
                             validate_config, validate_lm_config)
from logotree.errors import ConfigError, LogotreeError
from logotree.manifest import config_hash

DATA = Path(__file__).parent / "data"


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# config loading
# ---------------------------------------------------------------------------

def test_minimal_config_gets_defaults(tmp_path):
    path = write_config(tmp_path, {"run": {"encoder": "treelstm", "scenario": 1}})
    loaded = load_config(path)
    assert loaded.run.hidden == 256
    assert loaded.run.batch_size == 128
    assert loaded.run.output_order == "cd_nu_on"


def test_learning_rate_out_of_range_rejected(tmp_path):
    path = write_config(tmp_path, {"run": {"learning_rate": 1.0}})
    with pytest.raises(ConfigError, match="learning_rate"):
        load_config(path)


def test_unknown_key_rejected(tmp_path):
    path = write_config(tmp_path, {"run": {"encoder": "treelstm",
                                           "warp_speed": 9}})
    with pytest.raises(ConfigError, match="warp_speed"):
        load_config(path)


def test_unknown_top_level_key_rejected(tmp_path):
    path = write_config(tmp_path, {"run": {}, "mystery": 1})
    with pytest.raises(ConfigError, match="mystery"):
        load_config(path)


def test_dropout_out_of_range_rejected(tmp_path):
    path = write_config(tmp_path, {"run": {"dropout": 0.9}})
    with pytest.raises(ConfigError, match="dropout"):
        load_config(path)


@pytest.mark.parametrize("field,value", [
    ("learning_rate", -1.0), ("learning_rate", float("nan")),
    ("learning_rate", float("inf")), ("clip_norm", 0.0), ("clip_norm", -1.0),
    ("clip_norm", float("nan")), ("clip_norm", float("inf"))])
def test_validate_config_rejects_bad_rate_and_clip(field, value):
    with pytest.raises(ConfigError, match=field):
        validate_config(RunConfig(**{field: value}))


def test_validate_config_accepts_zero_learning_rate():
    assert validate_config(RunConfig(learning_rate=0.0)).learning_rate == 0.0


@pytest.mark.parametrize("field,value", [
    ("learning_rate", 0.0), ("learning_rate", float("nan")),
    ("learning_rate", float("inf")), ("clip_norm", 0.0), ("clip_norm", -2.0),
    ("clip_norm", float("nan"))])
def test_validate_lm_config_rejects_bad_rate_and_clip(field, value):
    with pytest.raises(ConfigError, match=field):
        validate_lm_config(LmConfig(**{field: value}))


@pytest.mark.parametrize("kind,key,value", [
    ("run", "learning_rate", "fast"), ("run", "epochs", 2.0),
    ("run", "operators", 1), ("run", "encoder", 3), ("run", "dropout", True),
    ("run", "hidden", None), ("lm", "layer_sizes", [8, "8"]),
    ("lm", "layer_sizes", 8), ("lm", "layer_sizes", [8, True]),
    ("lm", "tree_bias", "yes")])
def test_field_of_wrong_type_rejected(tmp_path, kind, key, value):
    path = write_config(tmp_path, {"run": {key: value}})
    with pytest.raises(ConfigError, match=f"{key}=.* is not "):
        load_config(path, kind=kind)


def test_int_accepted_for_float_field(tmp_path):
    path = write_config(tmp_path, {"run": {"clip_norm": 2}})
    assert load_config(path).run.clip_norm == 2


@pytest.mark.parametrize("kind", ["pronunciation", "language-model"])
def test_checkpoint_config_with_unknown_key_is_typed_error(tmp_path, kind):
    config, load = {"pronunciation": (RunConfig(), pron.load_model),
                    "language-model": (LmConfig(), lm.load_lm)}[kind]
    path = tmp_path / "model.ckpt"
    manifest = {"kind": kind, "config": {**config_to_dict(config), "warp": 9}}
    save_checkpoint(path, {}, manifest)
    with pytest.raises(LogotreeError, match="warp"):
        load(path)


def test_lm_config_kind(tmp_path):
    path = write_config(tmp_path, {"run": {"layer_sizes": [32, 16],
                                           "embed_dim": 8}})
    loaded = load_config(path, kind="lm")
    assert isinstance(loaded.run, LmConfig)
    assert loaded.run.layer_sizes == (32, 16)


def test_config_hash_canonical():
    a = config_hash({"b": 1, "a": 2})
    b = config_hash({"a": 2, "b": 1})
    assert a == b


# ---------------------------------------------------------------------------
# CLI dispatch
# ---------------------------------------------------------------------------

def test_decompose_exit_zero(capsys):
    rc = dispatch(["decompose", "仕", "--rules", str(DATA / "mini_ids.txt")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "bracketed:" in out
    assert "pre-order:" in out and "post-order:" in out and "in-order:" in out


def test_validate_rules_reports(capsys):
    rc = dispatch(["validate-rules", str(DATA / "mini_ids.txt")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "rules:" in out and "terminals:" in out and "cycles: none" in out
    assert "depth histogram" in out


def test_validate_rules_cycle(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("U+0058\tX\t⿰X一\n", encoding="utf-8")
    rc = dispatch(["validate-rules", str(bad)])
    assert rc == 1
    assert "cycle detected" in capsys.readouterr().out


def test_missing_data_file_is_io_error(capsys):
    rc = dispatch(["decompose", "仕", "--rules", "/nonexistent/ids.txt"])
    assert rc == 1
    assert "error[" in capsys.readouterr().err


class ClosedPipe:
    """A stdout whose reader has gone: every write fails as on a closed pipe."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


def test_closed_stdout_exits_141_quietly(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    rc = dispatch(["validate-rules", str(DATA / "mini_ids.txt")])
    assert rc == 141
    assert capsys.readouterr().err == ""
    # later output, such as the interpreter's flush at exit, goes nowhere
    assert sys.stdout.name == os.devnull
    print("dropped")
    sys.stdout.close()


def test_closed_pipe_descriptor_is_pointed_at_devnull(monkeypatch, capsys):
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w") as stream:
        monkeypatch.setattr(sys, "stdout", stream)
        rc = dispatch(["validate-rules", str(DATA / "mini_ids.txt")])
        assert rc == 141
        assert capsys.readouterr().err == ""
        # the output still buffered flushes into the null device on close
        assert os.path.samestat(os.fstat(write_end), os.stat(os.devnull))


def test_unknown_subcommand_usage():
    with pytest.raises(SystemExit) as exc:
        dispatch(["frobnicate"])
    assert exc.value.code == 2


def test_no_subcommand_usage():
    assert dispatch([]) == 2


def test_prepare_data_writes_split_and_manifest(tmp_path, capsys):
    out = tmp_path / "split.csv"
    rc = dispatch(["--out-dir", str(tmp_path), "--seed", "3",
                   "prepare-data", "--readings", str(DATA / "mini_readings.txt"),
                   "--variants", str(DATA / "mini_variants.txt"),
                   "--scenario", "2", "--sizes", "100,20,30",
                   "--out", str(out)])
    assert rc == 0
    assert out.exists()
    manifest = json.loads((tmp_path / "manifest-prepare-data.json")
                          .read_text(encoding="utf-8"))
    assert manifest["seed"] == 3
    assert "readings" in manifest["data_hashes"]
    assert manifest["environment"]["usable_cpus"] >= 1


def test_manifest_records_the_environment(tmp_path, monkeypatch):
    import platform
    from concurrent.futures import ThreadPoolExecutor

    import numpy as np

    from logotree import encoders
    from logotree.manifest import write_manifest

    def environment():
        path = write_manifest(tmp_path, "train-pron", {}, {}, 1, "start", [])
        return json.loads(path.read_text(encoding="utf-8"))["environment"]

    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setattr(encoders, "_helper", False)
    env = environment()
    assert env == {"python": platform.python_version(), "numpy": np.__version__,
                   "blas": env["blas"],
                   "blas_threads_env": {"OPENBLAS_NUM_THREADS": "1",
                                        "OMP_NUM_THREADS": None},
                   "usable_cpus": len(os.sched_getaffinity(0)),
                   "weight_grad_helper": False}
    name, version = env["blas"].split()
    assert "blas" in name.lower() and version[0].isdigit()
    with ThreadPoolExecutor(1) as helper:
        monkeypatch.setattr(encoders, "_helper", helper)
        assert environment()["weight_grad_helper"] is False  # no job yet
        helper.submit(int).result()
        assert environment()["weight_grad_helper"] is True


def _train_once(tmp_path, tag):
    split = tmp_path / "split.csv"
    rc = dispatch(["--out-dir", str(tmp_path / tag), "--seed", "3",
                   "prepare-data", "--readings", str(DATA / "mini_readings.txt"),
                   "--scenario", "1", "--sizes", "48,12,12",
                   "--out", str(split)]) if not split.exists() else 0
    assert rc == 0
    cfg = write_config(tmp_path, {
        "run": {"encoder": "treelstm", "hidden": 8, "d_in": 6,
                "batch_size": 16, "epochs": 2, "learning_rate": 3e-3,
                "dropout": 0.1, "seed": 5},
        "split": str(split),
        "rules": str(DATA / "mini_ids.txt"),
    }, name=f"cfg-{tag}.json")
    out_dir = tmp_path / tag
    rc = dispatch(["--config", str(cfg), "--out-dir", str(out_dir),
                   "train-pron"])
    assert rc == 0
    return out_dir


def test_train_eval_replay_byte_identical(tmp_path):
    run1 = _train_once(tmp_path, "run1")
    run2 = _train_once(tmp_path, "run2")
    h1 = (run1 / "history.csv").read_bytes()
    h2 = (run2 / "history.csv").read_bytes()
    assert h1 == h2
    c1 = (run1 / "pron.ckpt").read_bytes()
    c2 = (run2 / "pron.ckpt").read_bytes()
    assert c1 == c2

    rc = dispatch(["--out-dir", str(run1), "eval-pron",
                   "--checkpoint", str(run1 / "pron.ckpt"),
                   "--split", str(tmp_path / "split.csv"),
                   "--rules", str(DATA / "mini_ids.txt")])
    assert rc == 0
    rc = dispatch(["--out-dir", str(run2), "eval-pron",
                   "--checkpoint", str(run2 / "pron.ckpt"),
                   "--split", str(tmp_path / "split.csv"),
                   "--rules", str(DATA / "mini_ids.txt")])
    assert rc == 0
    assert (run1 / "eval_test.csv").read_bytes() == (run2 / "eval_test.csv").read_bytes()


@pytest.mark.parametrize("command,output", [("eval-pron", "eval_{}.csv"),
                                            ("gate-bias", "gate_bias_{}.json")])
def test_partitions_into_one_out_dir_keep_their_own_outputs(tmp_path, command,
                                                           output):
    run = _train_once(tmp_path, "parts")
    for part in ("validation", "test"):
        rc = dispatch(["--out-dir", str(run), command,
                       "--checkpoint", str(run / "pron.ckpt"),
                       "--split", str(tmp_path / "split.csv"),
                       "--rules", str(DATA / "mini_ids.txt"), "--partition", part])
        assert rc == 0
    for part in ("validation", "test"):
        out = run / output.format(part)
        manifest = json.loads((run / f"manifest-{out.stem}.json").read_text(
            encoding="utf-8"))
        assert manifest["command"] == command
        assert manifest["outputs"] == [str(out)]
        assert out.stat().st_size > 0


def test_diagnostics_cli_round(tmp_path, capsys):
    run = _train_once(tmp_path, "diag")
    ckpt = str(run / "pron.ckpt")
    rules = str(DATA / "mini_ids.txt")
    split = str(tmp_path / "split.csv")

    rc = dispatch(["--out-dir", str(run), "gate-bias", "--checkpoint", ckpt,
                   "--split", split, "--rules", rules])
    assert rc == 0
    payload = json.loads((run / "gate_bias_test.json").read_text(encoding="utf-8"))
    assert payload["total"] >= 0

    rc = dispatch(["--out-dir", str(run), "probe", "賄", "--checkpoint", ckpt,
                   "--rules", rules])
    assert rc == 0

    # each diagnostic writes a manifest that hashes its inputs and lists
    # its output
    for name, command, inputs, output in (
            ("gate_bias_test", "gate-bias", {"checkpoint", "split", "rules"},
             "gate_bias_test.json"),
            (f"probe_{ord('賄'):05X}", "probe", {"checkpoint", "rules"},
             f"probe_{ord('賄'):05X}.csv")):
        manifest = json.loads((run / f"manifest-{name}.json").read_text(
            encoding="utf-8"))
        assert manifest["command"] == command
        assert set(manifest["data_hashes"]) == inputs
        assert manifest["outputs"] == [str(run / output)]

    rc = dispatch(["neighbors", "河", "-k", "3", "--checkpoint", ckpt,
                   "--rules", rules, "--split", split])
    assert rc == 0
    out = capsys.readouterr().out
    assert len([l for l in out.splitlines() if "\t" in l]) == 3


def test_probes_keep_one_manifest_each(tmp_path):
    run = _train_once(tmp_path, "probes")
    ckpt = str(run / "pron.ckpt")
    rules = str(DATA / "mini_ids.txt")
    for ch in "賄河":
        rc = dispatch(["--out-dir", str(run), "probe", ch,
                       "--checkpoint", ckpt, "--rules", rules])
        assert rc == 0
    assert sorted(p.name for p in run.glob("manifest-probe*.json")) == sorted(
        f"manifest-probe_{ord(ch):05X}.json" for ch in "賄河")
    for ch in "賄河":
        manifest = json.loads((run / f"manifest-probe_{ord(ch):05X}.json")
                              .read_text(encoding="utf-8"))
        assert manifest["command"] == "probe"
        assert manifest["outputs"] == [str(run / f"probe_{ord(ch):05X}.csv")]


def test_lm_cli_round(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("\n".join(["河湖海江"] * 12) + "\n", encoding="utf-8")
    cfg = write_config(tmp_path, {
        "run": {"input_kind": "hierarchical", "layer_sizes": [12],
                "embed_dim": 8, "batch_size": 2, "bptt": 8, "epochs": 2,
                "learning_rate": 5e-3, "dropout_input": 0.0,
                "dropout_hidden": 0.0, "dropout_output": 0.0, "seed": 4},
        "corpus_train": str(corpus),
        "rules": str(DATA / "mini_ids.txt"),
    }, name="lm.json")
    out_dir = tmp_path / "lmrun"
    rc = dispatch(["--config", str(cfg), "--out-dir", str(out_dir), "train-lm"])
    assert rc == 0
    last = (out_dir / "lm_history.csv").read_text(encoding="utf-8").splitlines()[-1]
    assert f"final train BPC {float(last.split(',')[1]):.4f};" in capsys.readouterr().out
    rc = dispatch(["--out-dir", str(out_dir), "eval-lm",
                   "--checkpoint", str(out_dir / "lm.ckpt"),
                   "--corpus", str(corpus),
                   "--rules", str(DATA / "mini_ids.txt")])
    assert rc == 0
    result = json.loads((out_dir / "lm_eval.json").read_text(encoding="utf-8"))
    assert result["PPL"] == pytest.approx(2 ** result["BPC"])


def test_train_lm_reports_the_epoch_its_checkpoint_holds(tmp_path, capsys):
    # validation BPC falls for one epoch, then rises as the model learns the
    # training order: the checkpoint holds epoch 1, not the last
    train, valid = tmp_path / "train.txt", tmp_path / "valid.txt"
    train.write_text("河湖海江\n" * 12, encoding="utf-8")
    valid.write_text("河湖海江\n江海湖河\n", encoding="utf-8")
    cfg = write_config(tmp_path, {
        "run": {"input_kind": "hierarchical", "layer_sizes": [12],
                "embed_dim": 8, "batch_size": 2, "bptt": 8, "epochs": 4,
                "learning_rate": 2e-2, "dropout_input": 0.0,
                "dropout_hidden": 0.0, "dropout_output": 0.0, "seed": 4},
        "rules": str(DATA / "mini_ids.txt"),
    }, name="lm.json")
    out_dir = tmp_path / "lmrun"
    assert dispatch(["--config", str(cfg), "--out-dir", str(out_dir), "train-lm",
                     "--corpus", str(train), "--valid", str(valid)]) == 0
    rows = (out_dir / "lm_history.csv").read_text(encoding="utf-8").splitlines()[1:]
    history = [[float(v) for v in row.split(",")] for row in rows]
    assert [h[2] for h in history].index(min(h[2] for h in history)) == 1
    epoch, train_bpc, valid_bpc = history[1]
    assert capsys.readouterr().out.startswith(
        f"kept epoch 1: train BPC {train_bpc:.4f}, valid BPC {valid_bpc:.4f};")
    model = lm.load_lm(out_dir / "lm.ckpt", rules=ids.load_rule_table(DATA / "mini_ids.txt"))
    assert lm.eval_lm(model, lm.read_corpus(valid))[0] == pytest.approx(valid_bpc, abs=1e-6)


def test_eval_lm_cli_writes_null_ppl_past_the_float_range(tmp_path, capsys):
    # the output weights of a confident model put BPC past 1024, where
    # 2**BPC overflows: the command still succeeds, and its JSON stays strict
    model = lm.build_lm(LmConfig(layer_sizes=(8,), embed_dim=4, seed=4),
                        list("abcd"))
    model.w_out.data[:] *= 1e5
    ckpt = tmp_path / "lm.ckpt"
    lm.save_lm(ckpt, model)
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("abcd\ndcba\n", encoding="utf-8")
    rc = dispatch(["--out-dir", str(tmp_path), "eval-lm", "--checkpoint",
                   str(ckpt), "--corpus", str(corpus)])
    assert rc == 0
    out = capsys.readouterr().out
    assert " PPL inf\n" in out

    def reject(name):
        raise AssertionError(f"non-standard JSON constant {name}")

    result = json.loads((tmp_path / "lm_eval.json").read_text(encoding="utf-8"),
                        parse_constant=reject)
    assert result["BPC"] > 1024 and result["PPL"] is None


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------

RULES = str(DATA / "mini_ids.txt")
READINGS = str(DATA / "mini_readings.txt")
VARIANTS = str(DATA / "mini_variants.txt")
TINY_PRON = {"epochs": 1, "hidden": 4, "d_in": 4, "batch_size": 8, "seed": 1}
TINY_LM = {"input_kind": "hierarchical", "layer_sizes": [4], "embed_dim": 4,
           "epochs": 1, "batch_size": 2, "bptt": 4, "seed": 1}


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    """A split, a corpus and one trained checkpoint of each kind."""
    d = tmp_path_factory.mktemp("cli")
    assert dispatch(["--out-dir", str(d), "--seed", "3", "prepare-data",
                     "--readings", READINGS, "--sizes", "24,6,6",
                     "--out", str(d / "split.csv")]) == 0
    (d / "corpus.txt").write_text("河湖海江\n" * 6, encoding="utf-8")
    pron_cfg = write_config(d, {"run": TINY_PRON, "split": str(d / "split.csv"),
                                "rules": RULES}, "pron.json")
    lm_cfg = write_config(d, {"run": TINY_LM, "rules": RULES,
                              "corpus_train": str(d / "corpus.txt")}, "lm.json")
    assert dispatch(["--config", str(pron_cfg), "--out-dir", str(d / "pron"),
                     "train-pron"]) == 0
    assert dispatch(["--config", str(lm_cfg), "--out-dir", str(d / "lm"),
                     "train-lm"]) == 0
    return d


def _manifest_case(case, d, tmp_path):
    """argv, manifest name and the input files by data-hash key of one run;
    a config path that a flag overrides names no file, so reading it fails."""
    split, corpus = str(d / "split.csv"), str(d / "corpus.txt")
    pron_ckpt, lm_ckpt = str(d / "pron" / "pron.ckpt"), str(d / "lm" / "lm.ckpt")
    missing = str(tmp_path / "missing")

    def config(name, run, **data):
        path = write_config(tmp_path, {"run": run, **data}, f"{name}.json")
        return ["--config", str(path)]

    return {
        "prepare-data": (
            ["prepare-data", "--readings", READINGS, "--variants", VARIANTS,
             "--scenario", "2", "--sizes", "20,5,5",
             "--out", str(tmp_path / "split2.csv")],
            "prepare-data", {"readings": READINGS, "variants": VARIANTS}),
        "train-pron": (
            config("pron", TINY_PRON, split=split, rules=RULES) + ["train-pron"],
            "train-pron", {"split": split, "rules": RULES}),
        "train-pron-flags": (
            config("flags", TINY_PRON, split=missing, rules=missing)
            + ["train-pron", "--split", split, "--rules", RULES],
            "train-pron", {"split": split, "rules": RULES}),
        "eval-pron": (
            ["eval-pron", "--checkpoint", pron_ckpt, "--split", split,
             "--rules", RULES],
            "eval_test", {"checkpoint": pron_ckpt, "split": split,
                          "rules": RULES}),
        "grid-search": (
            config("grid", TINY_PRON, split=missing, rules=RULES,
                   grid={"learning_rates": [1e-3], "dropouts": [0.0]})
            + ["grid-search", "--split", split],
            "grid-search", {"split": split, "rules": RULES}),
        "run-matrix": (
            config("matrix", TINY_PRON, split=missing, rules=RULES,
                   splits={"1": split})
            + ["run-matrix"],
            "run-matrix", {"rules": RULES, "split1": split}),
        "train-lm": (
            config("lm", TINY_LM, corpus_train=missing,
                   corpus_valid=missing, rules=RULES)
            + ["train-lm", "--corpus", corpus, "--valid", corpus],
            "train-lm", {"corpus_train": corpus, "corpus_valid": corpus,
                         "rules": RULES}),
        "eval-lm": (
            ["eval-lm", "--checkpoint", lm_ckpt, "--corpus", corpus,
             "--rules", RULES],
            "eval-lm", {"checkpoint": lm_ckpt, "corpus": corpus,
                        "rules": RULES}),
        "gate-bias": (
            ["gate-bias", "--checkpoint", pron_ckpt, "--split", split,
             "--rules", RULES],
            "gate_bias_test", {"checkpoint": pron_ckpt, "split": split,
                               "rules": RULES}),
        "probe": (
            ["probe", "賄", "--checkpoint", pron_ckpt, "--rules", RULES],
            f"probe_{ord('賄'):05X}", {"checkpoint": pron_ckpt,
                                       "rules": RULES}),
    }[case]


@pytest.mark.parametrize("case", [
    "prepare-data", "train-pron", "train-pron-flags", "eval-pron",
    "grid-search", "run-matrix", "train-lm", "eval-lm", "gate-bias", "probe"])
def test_manifest_hashes_every_input_file_the_command_was_given(
        cli_inputs, tmp_path, case):
    argv, name, inputs = _manifest_case(case, cli_inputs, tmp_path)
    out = tmp_path / "out"
    assert dispatch(["--out-dir", str(out)] + argv) == 0
    manifest = json.loads((out / f"manifest-{name}.json").read_text(
        encoding="utf-8"))
    assert manifest["command"] == case.removesuffix("-flags")
    assert manifest["data_hashes"] == {
        key: hashlib.sha256(Path(path).read_bytes()).hexdigest()
        for key, path in inputs.items()}


def test_perfbench_trace_targets_resolve(monkeypatch):
    # the benchmark's tracer patches these names; a renamed or deleted
    # function would otherwise surface only in the benchmark's own smoke run
    import importlib
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    trace = importlib.import_module("perfbench.trace")
    targets = {t.name for t in trace.PROBES + trace.TRACED}
    assert {"lm.StackedLstm.step", "pron.decode_batch",
            "encoders.lstm_batch_forward", "encoders.treelstm_forward"} <= targets
    for name in sorted(targets):
        module, *attrs = name.split(".")
        obj = importlib.import_module(f"logotree.{module}")
        for attr in attrs:
            assert hasattr(obj, attr), name
            obj = getattr(obj, attr)
        assert callable(obj), name


def test_perfbench_schedule_counts_match_the_schedule(monkeypatch):
    # the traced counts behind encoders.slots_per_call, levels_per_call and
    # leaf_slot_share read the schedule's slot total and level ranges
    import importlib

    import numpy as np

    from logotree import encoders as enc
    from logotree.ids import Leaf, Op
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    trace = importlib.import_module("perfbench.trace")
    rng = np.random.default_rng(5)
    embeds = enc.VocabEmbeddings(list("abc"), 3, rng)
    p = enc.TreeLstmParams.init(4, 3, rng)
    twin = Op("⿱", Leaf("a"), Leaf("b"))
    trees = [Op("⿰", twin, Leaf("c")), twin, Leaf("a"),
             Op("⿰", Op("⿱", Leaf("a"), Leaf("b")), twin)]
    schedule = enc.build_level_schedule(trees, share=True)
    rec = trace.Recorder()
    rec.install(trace.TRACED)
    try:
        enc.treelstm_batch_forward(trees, embeds, p)
    finally:
        rec.uninstall()
    spans, counts, _ = rec.take()
    assert [s[0] for s in spans].count("encoders.build_level_schedule") == 1
    assert counts["encoders.slots"] == schedule.total_slots == 6
    assert counts["encoders.levels"] == len(schedule.levels) == 3
    assert counts["encoders.leaf_slots"] == len(schedule.levels[0]) == 3


@pytest.mark.parametrize("encoder", ["treelstm", "bilstm"])
def test_evaluate_keeps_the_benchmark_probe_contract(monkeypatch, tmp_path,
                                                     encoder):
    # the benchmark sizes each pron.decode_batch span by len() of its second
    # argument, and takes compose-scale's loop steps from the intervals
    # between those spans' ends inside pron.evaluate; evaluate decodes 256
    # rows at a time in input order
    import importlib

    import numpy as np

    from logotree import phono
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    trace = importlib.import_module("perfbench.trace")
    measure = importlib.import_module("perfbench.measure")
    data = importlib.import_module("perfbench.data")
    dataset = data.generate(data.DataSpec(n_chars=600), 4711, tmp_path)
    rules = ids.load_rule_table(dataset.rules_path)
    entries, _ = phono.build_corpus(
        phono.parse_unihan_readings(dataset.readings_path), seed=7)
    entries = entries[:600]
    assert len(entries) == 600
    model = pron.build_model(RunConfig(encoder=encoder, hidden=8, d_in=6, seed=1),
                             pron.Inventories.from_entries(entries),
                             sorted(rules.leaf_set))
    decoded = []
    decode = pron.decode_batch

    def spy(model, h):
        decoded.append(h.data.copy())
        return decode(model, h)

    monkeypatch.setattr(pron, "decode_batch", spy)
    rec = trace.Recorder()
    rec.install(trace.PROBES)
    try:
        with rec.span("job"):
            pron.evaluate(model, entries, rules)
    finally:
        rec.uninstall()
    spans, counts, losses = rec.take()
    sizes = [s[4] for s in spans if s[0] == "pron.decode_batch"]
    assert sizes and max(sizes) <= 256 and sum(sizes) == 600
    assert sizes == [len(h) for h in decoded] == [256, 256, 88]
    inputs = pron.encode_inputs(model, [e.ch for e in entries], rules)
    np.testing.assert_array_equal(np.concatenate(decoded),
                                  pron.embed_rows(model, inputs))
    rep = measure.Rep(False, {}, spans, counts, losses)
    timings = measure.timings(measure.WORKLOADS["compose-scale"], rep)
    assert len(timings["intervals"]) >= 2


BENCHMARK = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json")
                       .read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_perfbench_reference_job_reproduces_reference_json(monkeypatch, tmp_path,
                                                           workload):
    # the tiny job each benchmark run checks first (rtol 1e-9), run here so
    # that drift from perfbench/reference.json fails the tests, not only a
    # benchmark run
    import importlib
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    measure = importlib.import_module("perfbench.measure")
    checks = measure.Checks()
    measure.reference_check(measure.WORKLOADS[workload], measure.Recorder(),
                            checks, tmp_path)
    assert checks.attempted > 0
    assert checks.failed == 0, checks.notes


# ---------------------------------------------------------------------------
# atomic outputs
# ---------------------------------------------------------------------------

def test_atomic_write_failure_keeps_previous_file(tmp_path):
    from logotree.atomic import atomic_write
    path = tmp_path / "out.json"
    with atomic_write(path, encoding="utf-8") as fh:
        fh.write("old\n")
    with pytest.raises(RuntimeError):
        with atomic_write(path, encoding="utf-8") as fh:
            fh.write("partial")
            raise RuntimeError("disk full")
    assert path.read_text(encoding="utf-8") == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


def test_csv_write_failing_midway_keeps_previous_file(tmp_path):
    # the third row has a field the header lacks, so the writer raises after
    # the header and two rows have gone out
    path = tmp_path / "matrix.csv"
    row = {"model": "treelstm", "scenario": 1, "order": "cd_nu_on",
           "ablation": "full", "SER": 1.0, "TER": 0.5, "onset": 0.1,
           "nucleus": 0.2, "coda": 0.3}
    pron.write_matrix_csv([row], path)
    before = path.read_bytes()
    with pytest.raises(ValueError):
        pron.write_matrix_csv([row, row, {**row, "extra": 1}], path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["matrix.csv"]


def test_checkpoint_save_failing_midway_keeps_previous_file(tmp_path,
                                                          monkeypatch):
    import numpy as np
    from logotree import checkpoint
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, {"w": np.ones((4, 4))}, {"v": 1})

    class FailingStruct:  # fails after the magic bytes are written
        @staticmethod
        def pack(*args):
            raise OSError("disk full")

    monkeypatch.setattr(checkpoint, "struct", FailingStruct)
    with pytest.raises(OSError):
        save_checkpoint(path, {"w": np.zeros(2)}, {"v": 2})
    monkeypatch.undo()
    tensors, manifest = checkpoint.load_checkpoint(path)
    assert manifest == {"v": 1} and tensors["w"].tolist() == [[1.0] * 4] * 4
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


# ---------------------------------------------------------------------------
# dead code
# ---------------------------------------------------------------------------

REPO = Path(__file__).resolve().parents[1]

#: Library functions that nothing outside the tests names, each with why it
#: stays.
UNREFERENCED_ALLOWED = {
    "treelstm_forward": "the per-tree oracle of the batched tree paths",
    "lstm_cell": "the per-step oracle of the fused LSTM layer",
    "check_gradient": "the finite-difference oracle of every primitive",
    "set_default_dtype": "stays until precision is model configuration",
    "cnn_batch_forward": "reached only by pron.forward_batch's getattr dispatch",
    "greedy_continue": "public LM API that the README names",
}


def _definitions(module):
    """A module's top-level functions and its classes' methods."""
    for node in module.body:
        for f in node.body if isinstance(node, ast.ClassDef) else [node]:
            if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield f


def test_every_library_function_is_named_outside_the_tests():
    # a name that occurs only inside its own definitions has no caller but
    # the tests
    words = Counter(word for part in ("src", "scripts", "perfbench")
                    for path in (REPO / part).rglob("*.py")
                    for word in re.findall(r"\w+", path.read_text(encoding="utf-8")))
    own = Counter()
    for path in (REPO / "src" / "logotree").glob("*.py"):
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        for f in _definitions(ast.parse(text)):
            body = "\n".join(lines[f.lineno - 1:f.end_lineno])
            own[f.name] += re.findall(r"\w+", body).count(f.name)
    assert set(UNREFERENCED_ALLOWED) <= set(own)
    unnamed = sorted(name for name, count in own.items()
                     if words[name] <= count and not name.startswith("__"))
    assert [n for n in unnamed if n not in UNREFERENCED_ALLOWED] == []
