"""The four benchmark workloads, each one repeatable job.

A job does what a user of the library does for that task, start to
result, through the production entry points only (``pron.train``,
``pron.evaluate``, ``lm.train_lm``, ``lm.build_cache``, ``lm.eval_lm``,
``ids.load_rule_table``, ``ids.decompose``, ``ids.depth_histogram``). The
benchmark's own code around those calls only collects outputs to compare.
Batch sizes are the library's defaults: ``RunConfig.batch_size`` (128) for
pronunciation training, ``pron.evaluate``'s 256, ``LmConfig.batch_size``
(100) and ``bptt`` (32) for the LM.

Why these four:

* ``pron-tree`` trains the treeLSTM at paper width (hidden 256, d_in 64)
  with per-epoch validation; tree forward and ``Tape.backward`` dominate,
  so tree-cell and autodiff changes act here.
* ``pron-seq`` is the same split, head and width with a biLSTM over
  preorder linearizations: it bypasses the tree layer but shares
  autodiff, Adam and the head, so a tree-only change predicts no change.
* ``lm-hier`` trains the hierarchical character LM (thousands of
  per-timestep ops) and scores held-out lines at batch 1 through the
  embedding cache; LSTM-cell and loss changes show here.
* ``compose-scale`` is the read-only path: a large table, the
  ``validate-rules`` depth histogram, and ``pron.evaluate`` of an
  initialized treeLSTM; no tape and no Adam, ``ids`` dominates.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from logotree import encoders, ids, lm, phono, pron
from logotree.config import LmConfig, RunConfig

from .data import Dataset, DataSpec, generate, tree_stats
from .trace import TAPE

#: Seed of the job whose outputs are stored in reference.json.
REFERENCE_SEED = 2019
#: Loss, BPC and TER must match the stored reference to this relative
#: tolerance; the last digits move when a change reorders float sums.
REFERENCE_RTOL = 1e-9
#: Level-batched embeddings must equal the sequential oracle to this.
ORACLE_ATOL = 1e-9

PAPER_WIDTH = {"hidden": 256, "d_in": 64}
#: LM width. The LmConfig default, layers (1000, 1000, 200) with embed 200,
#: did not finish three optimizer steps in 200 s on a 2.0 GHz Xeon core;
#: at this width a step of the default batch 100 x bptt 32 takes about 1.1 s.
LM_LAYERS = (128, 128)
LM_EMBED = 32


@dataclass(frozen=True)
class Size:
    data: DataSpec
    batch: int = 0                            # training batch size
    split: tuple[int, int, int] = (0, 0, 0)   # pron train/validation/test
    epochs: int = 1
    sample: int = 0                           # compose-scale evaluated chars


@dataclass
class Inputs:
    seed: int
    size: Size
    data: Dataset
    work_dir: Path


@dataclass
class Workload:
    name: str
    sizes: dict[str, Size]      # "full" is measured, "tiny" is the smoke/reference size
    job: Callable               # Inputs -> outputs compared across repetitions
    chars: Callable             # Inputs -> characters the job encodes
    train_chars: Callable | None = None   # (outputs, spans) -> characters trained;
                                          # None: the job does not train
    extra_checks: Callable | None = None  # Inputs -> [(name, ok, detail)]


# ---------------------------------------------------------------------------
# pronunciation
# ---------------------------------------------------------------------------

def _pron_split(inp: Inputs):
    rules = ids.load_rule_table(inp.data.rules_path)
    readings = phono.parse_unihan_readings(inp.data.readings_path)
    corpus, _ = phono.build_corpus(readings, seed=inp.seed)
    split = phono.build_scenario(corpus, 1, inp.seed, sizes=inp.size.split)
    return rules, split


def _pron_job(encoder: str):
    def job(inp: Inputs) -> dict:
        rules, split = _pron_split(inp)
        config = RunConfig(encoder=encoder, batch_size=inp.size.batch,
                           epochs=inp.size.epochs, seed=inp.seed, **PAPER_WIDTH)
        model, history = pron.train(config, split, rules)
        test = pron.evaluate(model, split.test, rules)
        out = {"val_ter": history[-1].val_ter, "test_ter": test.ter,
               "train_chars": config.epochs * len(split.train)}
        if encoder == "treelstm":
            path = inp.work_dir / "pron.ckpt"
            pron.save_model(path, model)
            saved, loaded = model.params(), pron.load_model(path).params()
            out["checkpoint_equal"] = saved.keys() == loaded.keys() and all(
                np.array_equal(saved[k].data, loaded[k].data) for k in saved)
        return out
    return job


def _pron_train_chars(out: dict, spans: list[list]) -> int:
    return out["train_chars"]


def _pron_chars(inp: Inputs) -> list[str]:
    _, split = _pron_split(inp)
    return [e.ch for _, part in split.partitions() for e in part]


# ---------------------------------------------------------------------------
# language model
# ---------------------------------------------------------------------------

def _lm_job(inp: Inputs) -> dict:
    rules = ids.load_rule_table(inp.data.rules_path)
    train_lines = lm.read_corpus(inp.data.lm_train)
    heldout = lm.read_corpus(inp.data.lm_heldout)
    config = LmConfig(input_kind="hierarchical", layer_sizes=LM_LAYERS,
                      embed_dim=LM_EMBED, batch_size=inp.size.batch,
                      epochs=inp.size.epochs, seed=inp.seed)
    model, history = lm.train_lm(config, train_lines, None, rules)
    cache = lm.build_cache(model)
    bpc, _ = lm.eval_lm(model, heldout, cache=cache)
    return {"val_bpc": bpc, "train_bpc": history[-1]["train_bpc"],
            "cache_rebuilds": cache.rebuilds}


def _lm_chars(inp: Inputs) -> list[str]:
    lines = lm.read_corpus(inp.data.lm_train)
    return sorted({ch for line in lines for ch in line})


def _lm_train_chars(out: dict, spans: list[list]) -> int:
    """Predicted characters: batch rows of every training timestep."""
    return sum(s[4] for s in spans
               if s[0] == "lm.StackedLstm.step" and spans[s[3]][0] == TAPE)


# ---------------------------------------------------------------------------
# compose at scale
# ---------------------------------------------------------------------------

def _compose_model(inp: Inputs):
    rules = ids.load_rule_table(inp.data.rules_path)
    readings = phono.parse_unihan_readings(inp.data.readings_path)
    corpus, _ = phono.build_corpus(readings, seed=inp.seed)
    sample = random.Random(inp.seed).sample(corpus, inp.size.sample)
    inventories = pron.Inventories.from_entries(corpus)
    model = pron.build_model(RunConfig(seed=inp.seed, **PAPER_WIDTH),
                             inventories, sorted(rules.leaf_set))
    return rules, sample, model


def _compose_job(inp: Inputs) -> dict:
    rules, sample, model = _compose_model(inp)
    hist = ids.depth_histogram(rules)
    report = pron.evaluate(model, sample, rules)
    return {"histogram": sorted(hist.items()), "test_ter": report.ter,
            "histogram_total": sum(hist.values()) == len(rules.rules)}


def _compose_chars(inp: Inputs) -> list[str]:
    _, sample, _ = _compose_model(inp)
    return [e.ch for e in sample]


def _oracle_check(inp: Inputs) -> list[tuple[str, bool, str]]:
    """Level-batched embeddings against ``treelstm_forward``, tree by tree."""
    rules, sample, model = _compose_model(inp)
    picked = random.Random(inp.seed + 1).sample(sample, min(16, len(sample)))
    trees = [ids.decompose(e.ch, rules) for e in picked]
    batched = encoders.treelstm_batch_forward(trees, model.embeds, model.encoder).data
    worst = max(float(np.max(np.abs(
        encoders.treelstm_forward(t, model.embeds, model.encoder)[0].data[0] - row)))
        for t, row in zip(trees, batched))
    return [("batched == sequential", worst <= ORACLE_ATOL,
             f"max |diff| {worst:.3g} over {len(trees)} trees")]


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

# full sizes fill a 24-s run with three to five repetitions; tiny sizes
# are the smoke and reference jobs
_PRON_FULL = Size(DataSpec(n_chars=4000), batch=128, split=(512, 256, 256),
                  epochs=2)
_PRON_TINY = Size(DataSpec(n_chars=200), batch=16, split=(48, 24, 24),
                  epochs=2)

WORKLOADS = {w.name: w for w in (
    Workload("pron-tree", {"full": _PRON_FULL, "tiny": _PRON_TINY},
             _pron_job("treelstm"), _pron_chars, train_chars=_pron_train_chars),
    Workload("pron-seq", {"full": _PRON_FULL, "tiny": _PRON_TINY},
             _pron_job("bilstm"), _pron_chars, train_chars=_pron_train_chars),
    Workload("lm-hier",
             {"full": Size(DataSpec(n_chars=1500, lm_lines=640, lm_heldout=32), batch=100),
              "tiny": Size(DataSpec(n_chars=200, lm_lines=12, lm_heldout=4), batch=4)},
             _lm_job, _lm_chars, train_chars=_lm_train_chars),
    Workload("compose-scale",
             {"full": Size(DataSpec(n_chars=20000), sample=2048),
              "tiny": Size(DataSpec(n_chars=600), sample=96)},
             _compose_job, _compose_chars, extra_checks=_oracle_check),
)}


def prepare(workload: Workload, size: str, seed: int, work_dir: Path) -> Inputs:
    spec = workload.sizes[size]
    data = generate(spec.data, seed, work_dir)
    return Inputs(seed, spec, data, work_dir)


def data_stats(workload: Workload, inp: Inputs) -> dict[str, float]:
    rules = ids.load_rule_table(inp.data.rules_path)
    return tree_stats(ids.decompose(ch, rules) for ch in workload.chars(inp))


def matches(value, expected) -> bool:
    """Output comparison against the stored reference: floats to
    ``REFERENCE_RTOL``, everything else exactly."""
    if isinstance(value, dict) and isinstance(expected, dict):
        return (value.keys() == expected.keys()
                and all(matches(value[k], expected[k]) for k in value))
    if isinstance(value, float) or isinstance(expected, float):
        return math.isclose(value, expected, rel_tol=REFERENCE_RTOL, abs_tol=1e-12)
    if isinstance(value, (list, tuple)):
        return (len(value) == len(expected)
                and all(matches(v, e) for v, e in zip(value, expected)))
    return value == expected
