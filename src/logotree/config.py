"""Run configurations: dataclasses, validation, and JSON loading.

Hyperparameter ranges follow the experiment protocol: learning rates in
[1e-4, 3e-2], dropout in [0, 0.5], hidden size 256 and batch size 128 by
default. ``load_config`` fills defaults and rejects unknown keys.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .atomic import parse_json, read_text
from .errors import ConfigError

ENCODER_KINDS = ("treelstm", "lstm", "bilstm", "cnn")
LINEARIZATIONS = ("pre", "post", "in")
OUTPUT_ORDERS = ("cd_nu_on", "on_nu_cd")

LR_RANGE = (1e-4, 3e-2)
DROPOUT_RANGE = (0.0, 0.5)


@dataclass
class RunConfig:
    """Pronunciation-task configuration."""

    encoder: str = "treelstm"
    layers: int = 1
    scenario: int = 1
    linearization: str = "pre"
    operators: bool = True
    output_order: str = "cd_nu_on"
    learning_rate: float = 3e-3
    dropout: float = 0.1
    epochs: int = 200
    batch_size: int = 128
    hidden: int = 256
    d_in: int = 64
    seed: int = 0
    head_bias: bool = True
    tree_bias: bool = True
    cnn_filters: int = 200
    clip_norm: float = 5.0


@dataclass
class LmConfig:
    """Character language-model configuration."""

    input_kind: str = "standard"  # standard lookup or hierarchical composition
    layer_sizes: tuple[int, ...] = (1000, 1000, 200)
    embed_dim: int = 200
    learning_rate: float = 2e-3
    dropout_input: float = 0.1
    dropout_hidden: float = 0.1
    dropout_output: float = 0.25
    epochs: int = 300
    batch_size: int = 100
    bptt: int = 32
    seed: int = 0
    tree_bias: bool = True
    clip_norm: float = 5.0


def _check_range(name: str, value: float, lo: float, hi: float) -> None:
    if not lo <= value <= hi:
        raise ConfigError(f"{name}={value} outside allowed range [{lo}, {hi}]")


def _check_choice(name: str, value, allowed) -> None:
    if value not in allowed:
        raise ConfigError(f"{name}={value!r} not one of {sorted(allowed)}")


def _check_finite_above(name: str, value: float, lo: float, inclusive: bool) -> None:
    if not (math.isfinite(value) and (value >= lo if inclusive else value > lo)):
        bound = f">= {lo}" if inclusive else f"> {lo}"
        raise ConfigError(f"{name}={value} must be finite and {bound}")


def validate_config(config: RunConfig) -> RunConfig:
    _check_choice("encoder", config.encoder, ENCODER_KINDS)
    _check_choice("linearization", config.linearization, LINEARIZATIONS)
    _check_choice("output_order", config.output_order, OUTPUT_ORDERS)
    _check_choice("scenario", config.scenario, (1, 2, 3))
    _check_choice("layers", config.layers, (1, 2))
    _check_range("dropout", config.dropout, *DROPOUT_RANGE)
    for name in ("epochs", "batch_size", "hidden", "d_in", "cnn_filters"):
        if getattr(config, name) < 1:
            raise ConfigError(f"{name} must be positive")
    _check_finite_above("learning_rate", config.learning_rate, 0.0, inclusive=True)
    _check_finite_above("clip_norm", config.clip_norm, 0.0, inclusive=False)
    return config


def validate_strict(config: RunConfig) -> RunConfig:
    """Full validation including the search-range bound on the learning rate
    (training code itself accepts any non-negative rate)."""
    validate_config(config)
    _check_range("learning_rate", config.learning_rate, *LR_RANGE)
    return config


def validate_lm_config(config: LmConfig) -> LmConfig:
    _check_choice("input_kind", config.input_kind, ("standard", "hierarchical"))
    if not config.layer_sizes or any(s < 1 for s in config.layer_sizes):
        raise ConfigError("layer_sizes must be positive")
    for name in ("dropout_input", "dropout_hidden", "dropout_output"):
        _check_range(name, getattr(config, name), 0.0, 0.5)
    for name in ("epochs", "batch_size", "bptt", "embed_dim"):
        if getattr(config, name) < 1:
            raise ConfigError(f"{name} must be positive")
    _check_finite_above("learning_rate", config.learning_rate, 0.0, inclusive=False)
    _check_finite_above("clip_norm", config.clip_norm, 0.0, inclusive=False)
    return config


def config_to_dict(config) -> dict:
    out = dataclasses.asdict(config)
    for key, value in out.items():
        if isinstance(value, tuple):
            out[key] = list(value)
    return out


def _has_type(value, kind: str) -> bool:
    """Whether a JSON value fits a field annotated ``kind`` (annotations are
    strings here); an int fits a float field, a bool fits only a bool one."""
    if kind == "tuple[int, ...]":
        return (isinstance(value, (list, tuple))
                and all(_has_type(v, "int") for v in value))
    if kind == "encoder":  # an encoder kind, or a [kind, layers] pair
        return _has_type(value, "str") or (
            isinstance(value, list) and len(value) == 2
            and _has_type(value[0], "str") and _has_type(value[1], "int"))
    allowed = {"bool": bool, "int": int, "float": (int, float), "str": str}[kind]
    return (isinstance(value, allowed)
            and (kind == "bool" or not isinstance(value, bool)))


def config_from_dict(cls, payload: dict, context: str):
    """Build a config dataclass from JSON values, rejecting unknown keys and
    values of the wrong type; ``layer_sizes`` arrives as a list."""
    if not isinstance(payload, dict):
        raise ConfigError(f"{context}: config must be an object")
    known = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(payload) - set(known)
    if unknown:
        raise ConfigError(f"{context}: unknown keys {sorted(unknown)}")
    for key, value in payload.items():
        if not _has_type(value, known[key].type):
            raise ConfigError(f"{context}: {key}={value!r} is not "
                              f"{known[key].type}")
    kwargs = dict(payload)
    if "layer_sizes" in kwargs:
        kwargs["layer_sizes"] = tuple(kwargs["layer_sizes"])
    return cls(**kwargs)


#: JSON keys that name an input or output file.
PATH_KEYS = ("split", "rules", "corpus_train", "corpus_valid")
#: Item type of each list under the ``grid`` and ``matrix`` keys.
LIST_KEYS = {"grid": {"learning_rates": "float", "dropouts": "float"},
             "matrix": {"encoders": "encoder", "scenarios": "int",
                        "orders": "str", "ablations": "bool"}}
#: JSON keys beside ``"run"``: input/output files and experiment settings.
DATA_KEYS = PATH_KEYS + ("splits", *LIST_KEYS)


def _check_data(data: dict, context: str) -> None:
    """Path keys hold str, ``splits`` maps scenario numbers to str, and
    ``grid``/``matrix`` map their documented keys to typed lists."""
    for key, value in data.items():
        if key in LIST_KEYS:
            shape = f"an object of lists {LIST_KEYS[key]}"
            ok = isinstance(value, dict) and all(
                k in LIST_KEYS[key] and isinstance(v, list)
                and all(_has_type(x, LIST_KEYS[key][k]) for x in v)
                for k, v in value.items())
        elif key == "splits":
            shape = "an object of scenario numbers to str"
            ok = isinstance(value, dict) and all(
                k.isdecimal() and isinstance(v, str) for k, v in value.items())
        else:
            shape, ok = "str", isinstance(value, str)
        if not ok:
            raise ConfigError(f"{context}: {key}={value!r} is not {shape}")


@dataclass
class LoadedConfig:
    run: RunConfig | LmConfig
    data: dict


def load_config(path, kind: str = "run") -> LoadedConfig:
    """Read and validate a JSON config file.

    Hyperparameters live under ``"run"``; file paths and experiment-matrix
    settings live beside it under the documented data keys.
    """
    payload = parse_json(read_text(path, "config", ConfigError),
                         f"{path} is not valid JSON", ConfigError)
    if not isinstance(payload, dict):
        raise ConfigError(f"{path}: top level must be an object")
    unknown = set(payload) - set(DATA_KEYS) - {"run"}
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    run_payload = payload.get("run", {})
    if kind == "run":
        config = config_from_dict(RunConfig, run_payload, str(path))
        validate_strict(config)
    elif kind == "lm":
        config = config_from_dict(LmConfig, run_payload, str(path))
        validate_lm_config(config)
    else:
        raise ConfigError(f"unknown config kind {kind!r}")
    data = {k: payload[k] for k in DATA_KEYS if k in payload}
    _check_data(data, str(path))
    return LoadedConfig(config, data)
