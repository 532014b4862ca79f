import json
import struct

import numpy as np
import pytest

from logotree.autodiff import Tensor
from logotree.checkpoint import (MAGIC, load_checkpoint, restore_tensors,
                                 save_checkpoint)
from logotree.errors import CheckpointError, ContractError, ShapeError


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
