"""Pronunciation prediction: chained sub-syllabic head, training loop,
error-rate metrics, grid search, and the experiment matrix.

The task head predicts coda, nucleus, and onset in a chain: each unit's
softmax consumes the logograph embedding concatenated with the probability
vectors of the units already predicted. Predicted soft distributions feed
the chain during both training and evaluation.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from itertools import product

import numpy as np

from . import autodiff as ad
from . import encoders as enc
from .atomic import write_csv
from .autodiff import Adam, Tape, Tensor, concat, dropout, matmul, softmax
from .checkpoint import (load_checkpoint, manifest_strings, restore_tensors,
                         save_checkpoint)
from .config import RunConfig, config_from_dict, config_to_dict, validate_config
from .errors import ContractError, DataError
from .ids import LinearOrder, RuleTable, decompose, linearize, strip_operators
from .phono import NULL, DatasetSplit, PronEntry

log = logging.getLogger(__name__)

UNITS = ("onset", "nucleus", "coda")
ORDERS = {"cd_nu_on": ("coda", "nucleus", "onset"),
          "on_nu_cd": ("onset", "nucleus", "coda")}


@dataclass
class Inventories:
    """Class inventories per sub-syllabic unit, built from training data."""

    onset: list[str]
    nucleus: list[str]
    coda: list[str]

    @classmethod
    def from_entries(cls, entries) -> "Inventories":
        def inv(get):
            return sorted({get(e) for e in entries} | {NULL})
        return cls(inv(lambda e: e.onset), inv(lambda e: e.nucleus),
                   inv(lambda e: e.coda))

    def __post_init__(self):
        self._ids = {u: {c: i for i, c in enumerate(self.classes(u))} for u in UNITS}

    def classes(self, unit: str) -> list[str]:
        return getattr(self, unit)

    def index(self, unit: str, value: str) -> int:
        if value not in self._ids[unit]:
            raise DataError(f"{unit} class {value!r} not in inventory")
        return self._ids[unit][value]


@dataclass
class PronHead:
    """Chained fully-connected layers, one per sub-syllabic unit."""

    order: tuple[str, str, str]
    use_bias: bool = True
    weights: dict[str, Tensor] = field(default_factory=dict)

    @classmethod
    def init(cls, embed_dim: int, inventories: Inventories,
             rng: np.random.Generator, order_name: str = "cd_nu_on",
             use_bias: bool = True) -> "PronHead":
        order = ORDERS[order_name]
        head = cls(order, use_bias)
        in_dim = embed_dim
        for unit in order:
            n_classes = len(inventories.classes(unit))
            head.weights[f"W_{unit}"] = enc._weight(rng, n_classes, in_dim,
                                                    f"head.W_{unit}")
            if use_bias:
                head.weights[f"b_{unit}"] = Tensor(np.zeros(n_classes),
                                                   name=f"head.b_{unit}")
            in_dim += n_classes
        return head

    def params(self) -> dict[str, Tensor]:
        return {t.name: t for t in self.weights.values()}


@dataclass
class HeadOutput:
    """Per-unit logits and the distributions computed from them."""

    logits: dict[str, Tensor]
    probs: dict[str, Tensor]


def predict_pron(h: Tensor, head: PronHead) -> HeadOutput:
    """Logits and distributions for each unit, chained in the head's order.

    ``h`` has one row per logograph; each distribution row sums to 1 over
    that unit's inventory.
    """
    feats = h
    out = HeadOutput({}, {})
    for unit in head.order:
        logits = matmul(feats, head.weights[f"W_{unit}"].T)
        if head.use_bias:
            logits = logits + head.weights[f"b_{unit}"]
        p = softmax(logits)
        out.logits[unit] = logits
        out.probs[unit] = p
        if unit != head.order[-1]:  # the last distribution feeds no unit
            feats = concat([feats, p], axis=-1)
    return out


def pron_loss(out: HeadOutput, targets: list[PronEntry],
              inventories: Inventories) -> Tensor:
    """Mean over the batch of the summed per-unit cross-entropies."""
    n = len(targets)
    total = None
    for unit in UNITS:
        ids = [inventories.index(unit, getattr(e, unit)) for e in targets]
        ce = ad.softmax_cross_entropy(out.logits[unit], ids)
        total = ce if total is None else total + ce
    return total * (1.0 / n)


# ---------------------------------------------------------------------------
# model bundle
# ---------------------------------------------------------------------------

@dataclass
class PronModel:
    config: RunConfig
    embeds: enc.VocabEmbeddings
    encoder: object
    head: PronHead
    inventories: Inventories

    def params(self) -> dict[str, Tensor]:
        return {**self.embeds.params(), **self.encoder.params(),
                **self.head.params()}

    def model_name(self) -> str:
        return model_name(self.config)


def model_name(config: RunConfig) -> str:
    """The report name of an encoder: its kind, and the layer count of an
    LSTM or biLSTM."""
    if config.encoder in ("lstm", "bilstm"):
        return f"{config.encoder}-{config.layers}"
    return config.encoder


def build_model(config: RunConfig, inventories: Inventories,
                leaf_tokens) -> PronModel:
    validate_config(config)
    rng = np.random.default_rng(config.seed)
    embeds = enc.VocabEmbeddings(leaf_tokens, config.d_in, rng)
    kind = config.encoder
    if kind == "treelstm":
        encoder = enc.TreeLstmParams.init(config.hidden, config.d_in, rng,
                                          use_bias=config.tree_bias,
                                          operator_inputs=config.operators)
    elif kind == "lstm":
        encoder = enc.LstmParams.init(config.hidden, config.d_in, rng,
                                      layers=config.layers)
    elif kind == "bilstm":
        encoder = enc.BiLstmParams.init(config.hidden, config.d_in, rng,
                                        layers=config.layers)
    elif kind == "cnn":
        encoder = enc.CnnParams.init(config.d_in, config.hidden, rng,
                                     n_filters=config.cnn_filters)
    else:
        raise ContractError(f"unknown encoder {kind!r}")
    embed_dim = 2 * config.hidden if kind == "bilstm" else config.hidden
    head = PronHead.init(embed_dim, inventories, rng,
                         order_name=config.output_order,
                         use_bias=config.head_bias)
    return PronModel(config, embeds, encoder, head, inventories)


def encode_inputs(model: PronModel, chars, rules: RuleTable):
    """Characters to encoder inputs: trees for the recursive encoder,
    linearized (optionally operator-stripped) token sequences otherwise."""
    cfg = model.config
    trees = [decompose(ch, rules) for ch in chars]
    if cfg.encoder == "treelstm":
        return trees
    order = LinearOrder(cfg.linearization)
    seqs = [linearize(t, order) for t in trees]
    if not cfg.operators:
        seqs = [strip_operators(s) for s in seqs]
    return seqs


def forward_batch(model: PronModel, inputs, rng=None,
                  training: bool = False) -> Tensor:
    """Embeddings for a batch of encoder inputs, one row each."""
    cfg = model.config
    # looked up per call, so a wrapped ``encoders.<kind>_batch_forward`` is seen
    forward = getattr(enc, f"{cfg.encoder}_batch_forward")
    h = forward(inputs, model.embeds, model.encoder, input_dropout=cfg.dropout,
                rng=rng, training=training)
    return dropout(h, cfg.dropout, rng, training)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

@dataclass
class EvalReport:
    n: int
    string_errors: int
    token_errors: int
    unit_errors: dict[str, int]

    @property
    def ser(self) -> float:
        return 100.0 * self.string_errors / self.n

    @property
    def ter(self) -> float:
        return 100.0 * self.token_errors / (3 * self.n)

    def unit_rate(self, unit: str) -> float:
        return 100.0 * self.unit_errors[unit] / self.n

    def row(self) -> dict:
        return {"SER": round(self.ser, 2), "TER": round(self.ter, 2),
                "onset": round(self.unit_rate("onset"), 2),
                "nucleus": round(self.unit_rate("nucleus"), 2),
                "coda": round(self.unit_rate("coda"), 2)}


def decode_batch(model: PronModel, h: Tensor) -> list[dict[str, str]]:
    """The argmax class of every unit, for each row of embeddings ``h``."""
    probs = predict_pron(h, model.head).probs
    picks = [[model.inventories.classes(u)[k] for k in probs[u].data.argmax(axis=1)]
             for u in UNITS]
    return [dict(zip(UNITS, row)) for row in zip(*picks)]


#: Rows per sequence-encoder forward in ``embed_rows``, per head decode in
#: ``evaluate`` and per root-gate batch in ``diagnostics.root_forget_gates``.
EVAL_BATCH = 256


def embed_rows(model: PronModel, inputs) -> np.ndarray:
    """Untaped embeddings of encoder inputs, row k embedding ``inputs[k]``.
    The tree encoder runs one untaped pass over all inputs, so each distinct
    subtree is computed once; a sequence encoder runs ``forward_batch`` on
    ``EVAL_BATCH`` inputs at a time."""
    if model.config.encoder == "treelstm":
        return enc.treelstm_batch_forward(inputs, model.embeds, model.encoder).data
    return np.concatenate([forward_batch(model, inputs[start:start + EVAL_BATCH]).data
                           for start in range(0, len(inputs), EVAL_BATCH)])


def evaluate(model: PronModel, entries: list[PronEntry],
             rules: RuleTable) -> EvalReport:
    """Argmax decoding of each unit; token and string error rates. The
    entries are embedded by ``embed_rows``, and each ``EVAL_BATCH`` rows of
    them, in input order, are decoded by one ``decode_batch`` call."""
    if not entries:
        raise DataError("cannot evaluate an empty partition")
    h = embed_rows(model, encode_inputs(model, [e.ch for e in entries], rules))
    preds = [pred for start in range(0, len(entries), EVAL_BATCH)
             for pred in decode_batch(model, Tensor(h[start:start + EVAL_BATCH]))]
    wrong = [{u for u in UNITS if pred[u] != getattr(entry, u)}
             for entry, pred in zip(entries, preds)]
    unit_errors = {u: sum(u in w for w in wrong) for u in UNITS}
    return EvalReport(len(entries), sum(map(bool, wrong)),
                      sum(unit_errors.values()), unit_errors)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_ter: float


def train(config: RunConfig, split: DatasetSplit, rules: RuleTable
          ) -> tuple[PronModel, list[EpochStats]]:
    """Mini-batch Adam over shuffled epochs (``autodiff.fit``), keeping the
    best-validation parameters; deterministic from (config, split, rules)."""
    if not split.train or not split.validation:
        raise DataError("train and validation partitions must be non-empty")
    inventories = Inventories.from_entries(split.train)
    model = build_model(config, inventories, sorted(rules.leaf_set))
    rng = np.random.default_rng(config.seed)
    train_inputs = encode_inputs(model, [e.ch for e in split.train], rules)
    n = len(split.train)

    def batches(epoch):
        perm = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = perm[start:start + config.batch_size]
            with Tape() as tape:
                h = forward_batch(model, [train_inputs[i] for i in idx],
                                  rng=rng, training=True)
                loss = pron_loss(predict_pron(h, model.head),
                                 [split.train[i] for i in idx], inventories)
            yield tape, loss, len(idx)

    history = ad.fit(model.params(), Adam(lr=config.learning_rate),
                     config.clip_norm, config.epochs, batches,
                     validate=lambda: evaluate(model, split.validation, rules).ter)
    return model, [EpochStats(epoch, loss, ter)
                   for epoch, (loss, ter) in enumerate(history)]


# ---------------------------------------------------------------------------
# grid search and the experiment matrix
# ---------------------------------------------------------------------------

DEFAULT_LR_GRID = (3e-2, 1e-2, 3e-3, 1e-3, 3e-4, 1e-4)
DEFAULT_DROPOUT_GRID = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)


def _grid_cell(args) -> float:
    config, split, rules = args
    _, history = train(config, split, rules)
    return min(h.val_ter for h in history)


def grid_search(base: RunConfig, split: DatasetSplit, rules: RuleTable,
                learning_rates=DEFAULT_LR_GRID, dropouts=DEFAULT_DROPOUT_GRID,
                n_jobs: int = 1) -> tuple[RunConfig, list[dict]]:
    """Train every (learning rate, dropout) cell; lowest validation TER wins,
    ties broken by lower learning rate then lower dropout.

    Cells are independent, so ``n_jobs`` > 1 runs them in worker processes,
    which add their tree weight gradients without a helper thread since
    they already fill the CPUs; the selection is deterministic either way.
    """
    cells = list(product(learning_rates, dropouts))
    if not cells:
        raise DataError("empty grid")
    configs = [replace(base, learning_rate=lr, dropout=dr) for lr, dr in cells]
    if n_jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=n_jobs,
                                 initializer=enc._run_inline) as pool:
            ters = list(pool.map(_grid_cell,
                                 [(c, split, rules) for c in configs]))
    else:
        ters = [_grid_cell((c, split, rules)) for c in configs]
    table = []
    best = None
    for (lr, dr), config, dev_ter in zip(cells, configs, ters):
        table.append({"learning_rate": lr, "dropout": dr, "dev_TER": dev_ter})
        key = (dev_ter, lr, dr)
        if best is None or key < best[0]:
            best = (key, config)
    return best[1], table


def run_matrix(base: RunConfig, splits: dict[int, DatasetSplit],
               rules: RuleTable, encoders=(("treelstm", 1),),
               scenarios=(1,), orders=("cd_nu_on",),
               ablations=(False,)) -> list[dict]:
    """Train/evaluate each cell of the experiment grid; one report row per
    (encoder, scenario, output order, ablation) combination."""
    rows = []
    for (kind, layers), scenario, order, ablated in product(
            encoders, scenarios, orders, ablations):
        if scenario not in splits:
            raise DataError(f"no split provided for scenario {scenario}")
        config = replace(base, encoder=kind, layers=layers, scenario=scenario,
                         output_order=order, operators=not ablated)
        model, _ = train(config, splits[scenario], rules)
        row = report_row(model, evaluate(model, splits[scenario].test, rules))
        rows.append(row)
        log.info("matrix row: %s", row)
    return rows


SEQUENCE_ENCODERS = (("lstm", 1), ("lstm", 2), ("bilstm", 1), ("bilstm", 2),
                     ("cnn", 1))


def linearization_study(base: RunConfig, split: DatasetSplit, rules: RuleTable,
                        encoders=SEQUENCE_ENCODERS,
                        linearizations=("pre", "post", "in"),
                        learning_rates=DEFAULT_LR_GRID,
                        dropouts=DEFAULT_DROPOUT_GRID,
                        n_jobs: int = 1) -> list[dict]:
    """Best development TER per (sequence encoder, linearization) pair.

    Each combination gets its own hyperparameter search, so the comparison
    is between tuned models, not between a fixed hyperparameter point.
    """
    rows = []
    for (kind, layers), lin in product(encoders, linearizations):
        config = replace(base, encoder=kind, layers=layers, linearization=lin)
        _, table = grid_search(config, split, rules, learning_rates, dropouts,
                               n_jobs=n_jobs)
        rows.append({"model": model_name(config), "linearization": lin,
                     "dev_TER": min(r["dev_TER"] for r in table)})
        log.info("linearization study: %s", rows[-1])
    return rows


MATRIX_HEADER = ["model", "scenario", "order", "ablation", "SER", "TER",
                 "onset", "nucleus", "coda"]


def report_row(model: PronModel, report: EvalReport) -> dict:
    """One ``MATRIX_HEADER`` row: the model's cell of the experiment grid,
    read from its config, and its error rates."""
    cfg = model.config
    return {"model": model.model_name(), "scenario": cfg.scenario,
            "order": cfg.output_order,
            "ablation": "full" if cfg.operators else "no-operators",
            **report.row()}


def write_matrix_csv(rows: list[dict], path) -> None:
    write_csv(path, MATRIX_HEADER, rows)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def save_model(path, model: PronModel) -> None:
    manifest = {
        "kind": "pronunciation",
        "config": config_to_dict(model.config),
        "inventories": {u: model.inventories.classes(u) for u in UNITS},
        "vocab": model.embeds.tokens,
    }
    save_checkpoint(path, {k: t.data for k, t in model.params().items()}, manifest)


def load_model(path) -> PronModel:
    tensors, manifest = load_checkpoint(path)
    if manifest.get("kind") != "pronunciation":
        raise ContractError(f"{path} is not a pronunciation checkpoint")
    config = config_from_dict(RunConfig, manifest.get("config"), str(path))
    inv = Inventories(**{u: manifest_strings(path, manifest, "inventories", u)
                         for u in UNITS})
    vocab = manifest_strings(path, manifest, "vocab")
    model = build_model(config, inv, vocab)
    # the vocabulary must keep the exact saved token order
    model.embeds = enc.VocabEmbeddings.from_tokens(vocab, config.d_in)
    restore_tensors(path, model.params(), tensors)
    return model
