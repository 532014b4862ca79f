import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from logotree.autodiff import Tensor
from logotree.checkpoint import (MAGIC, load_checkpoint, restore_tensors,
                                 save_checkpoint)
from logotree.errors import (CheckpointError, ContractError, LogotreeError,
                             ShapeError)


@pytest.fixture
def saved(tmp_path):
    path = tmp_path / "model.ckpt"
    tensors = {"a": np.arange(6.0).reshape(2, 3), "b": np.array([1.5])}
    save_checkpoint(path, tensors, {"hidden": 3})
    return path, tensors


def test_roundtrip(saved):
    path, tensors = saved
    loaded, manifest = load_checkpoint(path)
    assert manifest == {"hidden": 3}
    for name, value in tensors.items():
        np.testing.assert_array_equal(loaded[name], value)


def test_file_shorter_than_header_length_field(tmp_path):
    path = tmp_path / "short.ckpt"
    path.write_bytes(MAGIC + b"\x01\x00")  # 10 bytes: magic, half a length
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


def test_header_length_past_end_of_file(saved):
    path, _ = saved
    raw = path.read_bytes()
    path.write_bytes(raw[:8] + struct.pack("<I", len(raw)) + raw[12:])
    with pytest.raises(CheckpointError, match="header length"):
        load_checkpoint(path)


def test_tensor_past_end_of_payload(saved):
    path, _ = saved
    path.write_bytes(path.read_bytes()[:-4])  # cut into the last tensor
    with pytest.raises(CheckpointError, match="runs past"):
        load_checkpoint(path)


def test_tensor_offset_past_payload(saved):
    path, _ = saved
    raw = path.read_bytes()
    (hlen,) = struct.unpack("<I", raw[8:12])
    header = json.loads(raw[12:12 + hlen])
    header["tensors"][0]["offset"] = 10 ** 6
    new = json.dumps(header).encode("utf-8")
    path.write_bytes(MAGIC + struct.pack("<I", len(new)) + new + raw[12 + hlen:])
    with pytest.raises(CheckpointError, match="runs past"):
        load_checkpoint(path)


def test_restore_tensors_checks_names_and_shapes():
    params = {"a": Tensor(np.zeros((2, 3)), name="a")}
    with pytest.raises(ContractError, match="missing tensor a"):
        restore_tensors("m.ckpt", params, {})
    with pytest.raises(ShapeError, match="a shape"):
        restore_tensors("m.ckpt", params, {"a": np.zeros((3, 2))})
    restore_tensors("m.ckpt", params, {"a": np.arange(6.0).reshape(2, 3)})
    np.testing.assert_array_equal(params["a"].data, np.arange(6.0).reshape(2, 3))


# ---------------------------------------------------------------------------
# malformed files: loaded, or a typed error
# ---------------------------------------------------------------------------

def _header(raw: bytes) -> dict:
    (hlen,) = struct.unpack("<I", raw[8:12])
    return json.loads(raw[12:12 + hlen])


def _with_header(raw: bytes, header) -> bytes:
    """The checkpoint ``raw`` with its header replaced by ``header``."""
    (hlen,) = struct.unpack("<I", raw[8:12])
    new = json.dumps(header).encode("utf-8")
    return MAGIC + struct.pack("<I", len(new)) + new + raw[12 + hlen:]


def _rewrite_header(path, edit):
    raw = path.read_bytes()
    path.write_bytes(_with_header(raw, edit(_header(raw))))


def _set_index(field, value):
    def edit(header):
        header["tensors"][0][field] = value
        return header
    return edit


@pytest.mark.parametrize("edit", [
    _set_index("name", ["a"]), _set_index("name", 3),
    _set_index("shape", "12"), _set_index("shape", [2, "3"]),
    _set_index("shape", [2, -3]), _set_index("shape", [2.0, 3]),
    _set_index("shape", [True, 6]), _set_index("shape", [1] * 65 + [6]),
    _set_index("offset", "0"), _set_index("offset", None),
    lambda h: {**h, "manifest": [1, 2]}, lambda h: {**h, "manifest": None},
    lambda h: {**h, "tensors": {"a": 1}}, lambda h: {**h, "tensors": [7]},
], ids=["name-list", "name-int", "shape-str", "shape-str-dim", "shape-negative",
        "shape-float", "shape-bool", "shape-65-dims", "offset-str",
        "offset-null", "manifest-list", "manifest-null", "index-object",
        "index-entry-int"])
def test_malformed_header_field_is_checkpoint_error(saved, edit):
    path, _ = saved
    _rewrite_header(path, edit)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


@pytest.fixture(scope="module")
def model_checkpoints(tmp_path_factory, rule_table, corpus):
    """Raw bytes of a saved pronunciation model, standard LM and
    hierarchical LM, each small."""
    from logotree import lm, pron
    from logotree.config import LmConfig, RunConfig
    out = {}
    path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
    model = pron.build_model(RunConfig(encoder="treelstm", hidden=3, d_in=2),
                             pron.Inventories.from_entries(corpus[:20]),
                             sorted(rule_table.leaf_set))
    pron.save_model(path, model)
    out["pron"] = path.read_bytes()
    for kind in ("standard", "hierarchical"):
        config = LmConfig(input_kind=kind, layer_sizes=(3,), embed_dim=2)
        lm.save_lm(path, lm.build_lm(config, list("河湖海江"), rule_table))
        out[kind] = path.read_bytes()
    return out


def _loader(kind, rule_table):
    from logotree import lm, pron
    if kind == "pron":
        return pron.load_model
    return lambda path: lm.load_lm(path, rules=rule_table)


@pytest.mark.parametrize("kind,edit", [
    ("pron", lambda m: {k: v for k, v in m.items() if k != "inventories"}),
    ("pron", lambda m: {**m, "inventories": {"onset": ["#"]}}),
    ("pron", lambda m: {**m, "inventories": ["#"]}),
    ("pron", lambda m: {**m, "vocab": "abc"}),
    ("pron", lambda m: {**m, "vocab": [1, 2]}),
    ("standard", lambda m: {k: v for k, v in m.items() if k != "vocab"}),
    ("standard", lambda m: {**m, "vocab": None}),
    ("hierarchical", lambda m: {k: v for k, v in m.items() if k != "leaf_vocab"}),
    ("hierarchical", lambda m: {**m, "tree_chars": [["河"]]}),
], ids=["pron-no-inventories", "pron-inventory-missing", "pron-inventories-list",
        "pron-vocab-str", "pron-vocab-ints", "lm-no-vocab", "lm-vocab-null",
        "hier-no-leaf-vocab", "hier-tree-chars-nested"])
def test_manifest_without_a_loader_field_is_checkpoint_error(
        model_checkpoints, rule_table, tmp_path, kind, edit):
    path = tmp_path / "model.ckpt"
    path.write_bytes(model_checkpoints[kind])
    _rewrite_header(path, lambda h: {**h, "manifest": edit(h["manifest"])})
    with pytest.raises(CheckpointError, match="manifest field"):
        _loader(kind, rule_table)(path)



def _repeat(*keys):
    """The manifest with entry 2 of the list at ``keys`` overwritten by
    entry 3."""
    def edit(manifest):
        target = manifest
        for key in keys:
            target = target[key]
        target[2] = target[3]
        return manifest
    return edit


@pytest.mark.parametrize("kind,keys", [
    ("pron", ("vocab",)), ("pron", ("inventories", "onset")),
    ("standard", ("vocab",)), ("hierarchical", ("leaf_vocab",)),
    ("hierarchical", ("tree_chars",)),
], ids=["pron-vocab", "pron-onset", "lm-vocab", "hier-leaf-vocab",
        "hier-tree-chars"])
def test_manifest_repeating_an_entry_is_checkpoint_error(
        model_checkpoints, rule_table, tmp_path, kind, keys):
    # a repeated token would leave one index entry short of the table rows
    path = tmp_path / "model.ckpt"
    path.write_bytes(model_checkpoints[kind])
    field = ".".join(keys)
    repeated = _header(model_checkpoints[kind])["manifest"]
    for key in keys:
        repeated = repeated[key]
    _rewrite_header(path, lambda h: {**h, "manifest": _repeat(*keys)(h["manifest"])})
    with pytest.raises(CheckpointError,
                       match=f"manifest field {field} repeats {repeated[3]!r}"):
        _loader(kind, rule_table)(path)

def test_saved_models_load(model_checkpoints, rule_table, tmp_path):
    # the fuzz below mutates these files; unmutated, each one loads
    for kind, raw in model_checkpoints.items():
        path = tmp_path / f"{kind}.ckpt"
        path.write_bytes(raw)
        load_checkpoint(path)
        _loader(kind, rule_table)(path)


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2 ** 70, 2 ** 70)
    | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=6)


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(["pron", "standard", "hierarchical"]), st.data())
def test_mutated_checkpoints_load_or_raise_typed_errors(
        model_checkpoints, rule_table, tmp_path, kind, data):
    raw = model_checkpoints[kind]
    header = _header(raw)
    how = data.draw(st.sampled_from(["byte", "cut", "index", "manifest"]))
    if how == "byte":  # the magic, the header length or the header itself
        (hlen,) = struct.unpack("<I", raw[8:12])
        pos = data.draw(st.integers(0, 12 + hlen - 1))
        mutated = raw[:pos] + bytes([data.draw(st.integers(0, 255))]) + raw[pos + 1:]
    elif how == "cut":
        mutated = raw[:data.draw(st.integers(0, len(raw) - 1))]
    else:
        if how == "index":
            target = data.draw(st.sampled_from(header["tensors"]))
            key = data.draw(st.sampled_from(["name", "shape", "offset"]))
        else:
            target = header["manifest"]
            key = data.draw(st.sampled_from(sorted(target)))
        if data.draw(st.booleans()):
            del target[key]
        else:
            target[key] = data.draw(_json_values)
        mutated = _with_header(raw, header)
    path = tmp_path / "fuzz.ckpt"
    path.write_bytes(mutated)
    for load in (load_checkpoint, _loader(kind, rule_table)):
        try:
            load(path)
        except LogotreeError:
            pass


def test_eval_pron_on_a_malformed_checkpoint_exits_1(tmp_path, capsys):
    from pathlib import Path

    from logotree.cli import dispatch
    data = Path(__file__).parent / "data"
    path = tmp_path / "bad.ckpt"
    save_checkpoint(path, {}, {"kind": "pronunciation"})
    _rewrite_header(path, lambda h: {**h, "manifest": ["pronunciation"]})
    rc = dispatch(["--out-dir", str(tmp_path / "out"), "eval-pron",
                   "--checkpoint", str(path), "--split", str(tmp_path / "s.csv"),
                   "--rules", str(data / "mini_ids.txt")])
    assert rc == 1
    assert "error[checkpoint]" in capsys.readouterr().err
