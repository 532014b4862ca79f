"""Character-level language modeling with lookup or tree-composed embeddings.

The recurrent core is the stacked recurrent cell of the sequence encoders,
with configurable per-layer sizes. Training, ``eval_lm``, ``lm_step`` and
``greedy_continue`` all run it through ``StackedLstm.step``: layer by
layer, one window at a time.
Input embeddings are either a standard lookup table or hierarchical
embeddings composed by the tree encoder from each character's
decomposition. During training only the embeddings of characters present
in the current batch window are updated, and their trees run through the
taped tree kernel; inference reads hierarchical embeddings only from an
``EmbeddingCache``, which composes every tree character in one untaped
pass and is stamped with the parameter version.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import encoders as enc
from .atomic import read_text
from .autodiff import Adam, Tape, Tensor, concat, dropout, matmul, rows, softmax
from .checkpoint import (load_checkpoint, manifest_strings, restore_tensors,
                         save_checkpoint)
from .config import (LmConfig, config_from_dict, config_to_dict,
                     validate_lm_config)
from .errors import ContractError, DataError
from .ids import RuleTable, decompose, Leaf, UNK_TOKEN

EOS_TOKEN = "<EOS>"


# ---------------------------------------------------------------------------
# stacked recurrent core with per-layer sizes
# ---------------------------------------------------------------------------

class StackedLstm(enc.LstmParams):
    """Stacked cell weights run over a window at a time, carrying state."""

    def zero_state(self, batch: int) -> list[tuple[Tensor, Tensor]]:
        return [(Tensor(np.zeros((batch, s))), Tensor(np.zeros((batch, s))))
                for s in self.sizes]

    def step(self, x: Tensor, state, hidden_dropout: float = 0.0,
             rng=None, training: bool = False, output_dropout: float = 0.0):
        """A window's batch-major rows ``x`` (B*T, E) through every layer,
        one ``encoders.lstm_layer`` each, from the carried ``state`` of
        batch B; returns the top layer's rows in time-major order (T*B, H),
        as the loss reads its targets, and the new state.

        In training, hidden dropout follows each layer but the top one and
        output dropout the top one. Their masks are one ``dropout_mask``
        whose row t holds step t's masks in layer order, the order of a
        core stepped one timestep at a time; a rate of 0 draws nothing.
        """
        batch = state[0][0].data.shape[0]
        steps = x.data.shape[0] // batch
        rates = [hidden_dropout] * (len(self.sizes) - 1) + [output_dropout]
        dropped = [k for k, rate in enumerate(rates) if training and rate]
        widths = [batch * self.sizes[k] for k in dropped]
        masks = {}
        if dropped:
            drawn = ad.dropout_mask(np.repeat([rates[k] for k in dropped], widths),
                                    rng, (steps, sum(widths)))
            masks = dict(zip(dropped, np.split(drawn, np.cumsum(widths)[:-1], 1)))
        inp = ad.reshape(x, (batch, steps, x.data.shape[1]))
        new_state = []
        for layer, carried in enumerate(state):
            inp, carried = enc.lstm_layer(inp, self, layer, carried)
            new_state.append(carried)
            if layer in masks:
                inp = ad.apply_mask(inp, masks[layer].reshape(steps, batch, -1)
                                    .swapaxes(0, 1))
        # lstm_layer's buffer, and a mask product over it, are time-major in
        # memory: the swap and the reshape are views
        return ad.reshape(ad.transpose(inp, 0, 1), (steps * batch, -1)), new_state


# ---------------------------------------------------------------------------
# model
# ---------------------------------------------------------------------------

@dataclass
class LmModel:
    config: LmConfig
    vocab: list[str]
    core: StackedLstm
    w_out: Tensor
    b_out: Tensor
    # standard input path
    lookup: Tensor | None = None
    # hierarchical input path
    tree: enc.TreeLstmParams | None = None
    leaf_embeds: enc.VocabEmbeddings | None = None
    aux: Tensor | None = None  # rows for characters composed by lookup anyway
    trees: dict[str, object] = field(default_factory=dict)
    version: int = 0  # bumped on every optimizer step; stamps caches

    def __post_init__(self):
        self.index = {ch: i for i, ch in enumerate(self.vocab)}

    @property
    def hierarchical(self) -> bool:
        return self.config.input_kind == "hierarchical"

    def params(self) -> dict[str, Tensor]:
        out = {self.w_out.name: self.w_out, self.b_out.name: self.b_out,
               **self.core.params()}
        if self.hierarchical:
            out.update(self.tree.params())
            out.update(self.leaf_embeds.params())
            out[self.aux.name] = self.aux
        else:
            out[self.lookup.name] = self.lookup
        return out

    def char_id(self, ch: str) -> int:
        return self.index.get(ch, self.index[UNK_TOKEN])


def build_lm(config: LmConfig, vocab_chars, rules: RuleTable | None = None
             ) -> LmModel:
    """Assemble a model over the training vocabulary (+ EOS and UNK)."""
    validate_lm_config(config)
    rng = np.random.default_rng(config.seed)
    vocab = sorted(set(vocab_chars) - {EOS_TOKEN, UNK_TOKEN})
    vocab = vocab + [EOS_TOKEN, UNK_TOKEN]
    e = config.embed_dim
    core = StackedLstm.init(config.layer_sizes, e, rng, prefix="core")
    w_out = enc._weight(rng, len(vocab), config.layer_sizes[-1], "out.W")
    b_out = Tensor(np.zeros(len(vocab)), name="out.b")
    model = LmModel(config, vocab, core, w_out, b_out)
    if config.input_kind == "hierarchical":
        if rules is None:
            raise ContractError("hierarchical embeddings need a rule table")
        model.tree = enc.TreeLstmParams.init(e, e, rng,
                                             use_bias=config.tree_bias)
        model.leaf_embeds = enc.VocabEmbeddings(sorted(rules.leaf_set), e, rng,
                                                name="leaf_embeddings")
        model.aux = Tensor(np.random.default_rng(config.seed + 1)
                           .uniform(-0.1, 0.1, (len(vocab), e)), name="aux")
        for ch in vocab:
            if ch not in (EOS_TOKEN, UNK_TOKEN):
                tree = decompose(ch, rules)
                if tree != Leaf(UNK_TOKEN):
                    model.trees[ch] = tree
    else:
        model.lookup = Tensor(rng.uniform(-0.1, 0.1, (len(vocab), e)),
                              name="lookup")
    return model


# ---------------------------------------------------------------------------
# input embedding assembly
# ---------------------------------------------------------------------------

def window_embeddings(model: LmModel, ids: np.ndarray,
                      cache: "EmbeddingCache | None" = None,
                      rng=None, training: bool = False):
    """Embedding matrix for one (batch, time) id window plus gather indices.

    Hierarchical models compose tree embeddings for the unique characters
    present in the window when training, and read them from ``cache``
    otherwise; everything else reads the auxiliary table. Returns
    (matrix (U, E), flat gather index (batch*time,)).
    """
    unique = np.unique(ids)
    if not model.hierarchical:
        return rows(model.lookup, unique), np.searchsorted(unique, ids.reshape(-1))
    composed = [int(v) for v in unique if model.vocab[int(v)] in model.trees]
    plain = [int(v) for v in unique if model.vocab[int(v)] not in model.trees]
    parts = []
    if composed and training:
        trees = [model.trees[model.vocab[v]] for v in composed]
        parts.append(enc.treelstm_batch_forward(
            trees, model.leaf_embeds, model.tree,
            input_dropout=model.config.dropout_input, rng=rng, training=True))
    elif composed:
        if cache is None:
            raise ContractError("inference reads hierarchical embeddings "
                                "from an EmbeddingCache")
        vecs = [cache.lookup(model, model.vocab[v]) for v in composed]
        parts.append(Tensor(np.stack(vecs)))
    if plain:
        parts.append(rows(model.aux, np.array(plain, dtype=np.intp)))
    matrix = parts[0] if len(parts) == 1 else concat(parts, axis=0)
    row_of = np.empty(len(model.vocab), dtype=np.intp)
    row_of[composed + plain] = np.arange(len(unique))
    return matrix, row_of[ids.reshape(-1)]


def _run_window(model: LmModel, ids: np.ndarray, state, rng):
    """The training window: embed a (batch, time) id window and run the
    core over it with input, hidden and output dropout. Returns the
    top-layer rows in time-major order (time*batch, H) and the final
    state."""
    cfg = model.config
    matrix, flat = window_embeddings(model, ids, rng=rng, training=True)
    x = dropout(rows(matrix, flat), cfg.dropout_input, rng, True)
    return model.core.step(x, state, cfg.dropout_hidden, rng, True,
                           cfg.dropout_output)


def _forward(model: LmModel, ids: np.ndarray, state, cache: "EmbeddingCache"):
    """Embed a (1, T) id window and run the core over it from ``state``
    (zeros for None); returns the top-layer (T, H) rows and the new state."""
    matrix, flat = window_embeddings(model, ids, cache)
    return model.core.step(rows(matrix, flat),
                           state or model.core.zero_state(1))


def _logits(model: LmModel, h: Tensor) -> Tensor:
    """The output layer alone, for ``lm_step``'s distribution; training and
    ``eval_lm`` score through ``autodiff.affine_cross_entropy``."""
    return matmul(h, model.w_out.T) + model.b_out


# ---------------------------------------------------------------------------
# streams
# ---------------------------------------------------------------------------

def read_corpus(path) -> list[str]:
    lines = [line for line in read_text(path, "corpus").splitlines() if line]
    if not lines:
        raise DataError(f"corpus {path} is empty")
    return lines


def stream_ids(model: LmModel, lines: list[str]) -> np.ndarray:
    """Sentence stream with an end-of-sentence symbol closing every line and
    opening the stream (so the first character is predicted too)."""
    eos = model.index[EOS_TOKEN]
    out = [eos]
    for line in lines:
        out.extend(model.char_id(ch) for ch in line)
        out.append(eos)
    return np.array(out, dtype=np.intp)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def train_lm(config: LmConfig, train_lines: list[str],
             valid_lines: list[str] | None = None,
             rules: RuleTable | None = None) -> tuple[LmModel, list[dict]]:
    """Truncated-backpropagation training; per-epoch train BPC recorded.

    Only embedding rows with gradient contributions from the current batch
    window are updated (the shared tree weights always are). With a
    validation corpus, the best-validation parameters are restored at the
    end.
    """
    if not train_lines:
        raise DataError("empty training corpus")
    chars = sorted({ch for line in train_lines for ch in line})
    model = build_lm(config, chars, rules)
    rng = np.random.default_rng(config.seed)
    tables = ([model.leaf_embeds.table.name, model.aux.name] if model.hierarchical
              else [model.lookup.name])

    stream = stream_ids(model, train_lines)
    B = min(config.batch_size, max(1, (len(stream) - 1) // max(1, config.bptt)))
    L = (len(stream) - 1) // B
    if L < 1:
        raise DataError("corpus too small for the requested batch size")
    inputs = stream[:B * L].reshape(B, L)
    targets = stream[1:B * L + 1].reshape(B, L)

    def windows(epoch):
        state = model.core.zero_state(B)
        for start in range(0, L, config.bptt):
            width = min(config.bptt, L - start)
            with Tape() as tape:
                h, state = _run_window(model, inputs[:, start:start + width],
                                       state, rng)
                # rows are time-major, as are the flattened transposed targets
                losses = ad.affine_cross_entropy(
                    h, model.w_out, model.b_out,
                    targets[:, start:start + width].T.reshape(-1))
                loss = losses.sum() * (1.0 / (B * width))
            yield tape, loss, B * width
            model.version += 1
            # the next window starts from this one's values, not its graph
            state = [(Tensor(h.data.copy()), Tensor(c.data.copy()))
                     for h, c in state]

    history = ad.fit(model.params(), Adam(lr=config.learning_rate),
                     config.clip_norm, config.epochs, windows,
                     validate=(lambda: eval_lm(model, valid_lines)[0])
                     if valid_lines else None, lazy=tables)
    if valid_lines:
        model.version += 1  # the restored parameters
    return model, [{"epoch": epoch, "train_bpc": nats / math.log(2),
                    **({"valid_bpc": bpc} if valid_lines else {})}
                   for epoch, (nats, bpc) in enumerate(history)]


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def eval_lm(model: LmModel, lines: list[str],
            cache: "EmbeddingCache | None" = None,
            chunk: int = 256) -> tuple[float, float]:
    """Bits per character over the whole corpus and its perplexity 2**BPC,
    ``math.inf`` once that passes the float range (BPC of about 1024).

    The stream runs at batch 1 in windows of ``chunk`` characters through
    ``_forward``: each window is embedded once, run layer by layer and
    scored by one output product. The (h, c) state carries from window to
    window. A hierarchical model without ``cache`` composes its embeddings
    into one new cache, once for all windows.
    """
    if chunk < 1:
        raise ContractError(f"chunk must be at least 1, got {chunk}")
    if not lines:
        raise DataError("empty evaluation corpus")
    cache = EmbeddingCache() if cache is None else cache
    stream = stream_ids(model, lines)
    ids = stream[:-1].reshape(1, -1)
    tgts = stream[1:]
    state = None
    bits = 0.0
    n = ids.shape[1]
    for start in range(0, n, chunk):
        h, state = _forward(model, ids[:, start:start + chunk], state, cache)
        nats = ad.affine_cross_entropy(h, model.w_out, model.b_out,
                                       tgts[start:start + chunk]).data
        # row by row in stream order: a uniform model then scores exactly
        # log2(V) bits
        for value in (nats / math.log(2)).tolist():
            bits += value
    bpc = bits / n
    try:
        return bpc, 2.0 ** bpc
    except OverflowError:
        return bpc, math.inf


def lm_step(prev_chars, state, model: LmModel,
            cache: "EmbeddingCache | None" = None):
    """Feed characters from the given state; returns (distribution, state).

    ``state`` of None starts from the zero state. The characters run as one
    ``_forward`` window and the distribution, over the model vocabulary and
    summing to 1, is read from its last row. A hierarchical model without
    ``cache`` composes its embeddings into one new cache.
    """
    ids = [model.char_id(ch) for ch in prev_chars]
    if not ids:
        raise ContractError("prev_chars must be non-empty")
    cache = EmbeddingCache() if cache is None else cache
    h, state = _forward(model, np.array([ids], dtype=np.intp), state, cache)
    return softmax(_logits(model, Tensor(h.data[-1:]))).data[0], state


def greedy_continue(model: LmModel, prefix: str, n: int) -> str:
    """Argmax continuation of a prefix; EOS stops generation early."""
    cache = EmbeddingCache()
    dist, state = lm_step([EOS_TOKEN] + list(prefix), None, model, cache)
    out = []
    for _ in range(n):
        ch = model.vocab[int(np.argmax(dist))]
        if ch == EOS_TOKEN:
            break
        out.append(ch)
        dist, state = lm_step([ch], state, model, cache)
    return "".join(out)


# ---------------------------------------------------------------------------
# embedding cache
# ---------------------------------------------------------------------------

@dataclass
class EmbeddingCache:
    """Composed character embeddings, the rows of one untaped pass, stamped
    with the parameter version; an empty cache composes them on first lookup."""

    vectors: dict[str, np.ndarray] = field(default_factory=dict)
    stamp: int = -1
    rebuilds: int = 0

    def lookup(self, model: LmModel, ch: str) -> np.ndarray:
        if self.stamp != model.version:
            self.rebuild(model)
        return self.vectors[ch]

    def rebuild(self, model: LmModel) -> None:
        if not model.hierarchical:
            raise ContractError("cache applies to hierarchical embeddings")
        chars = sorted(model.trees)
        self.vectors = dict(zip(chars, enc.treelstm_batch_forward(
            [model.trees[ch] for ch in chars], model.leaf_embeds, model.tree).data))
        self.stamp = model.version
        self.rebuilds += 1


def build_cache(model: LmModel) -> EmbeddingCache:
    """One tree composition per unique character, stamped and reusable until
    the next parameter update."""
    cache = EmbeddingCache()
    cache.rebuild(model)
    return cache


def oov_stats(model: LmModel, lines: list[str],
              rules: RuleTable | None = None) -> dict:
    """How many corpus characters fall outside the training vocabulary, and
    how many of those the hierarchical path can still compose."""
    seen = {ch for line in lines for ch in line}
    oov = {ch for ch in seen if ch not in model.index}
    composable = set()
    if rules is not None:
        composable = {ch for ch in oov
                      if decompose(ch, rules) != Leaf(UNK_TOKEN)}
    return {"n_chars": len(seen), "n_oov": len(oov),
            "n_oov_composable": len(composable)}


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def save_lm(path, model: LmModel) -> None:
    manifest = {
        "kind": "language-model",
        "config": config_to_dict(model.config),
        "vocab": model.vocab,
        "leaf_vocab": model.leaf_embeds.tokens if model.hierarchical else None,
        "tree_chars": sorted(model.trees) if model.hierarchical else None,
    }
    save_checkpoint(path, {k: t.data for k, t in model.params().items()},
                    manifest)


def load_lm(path, rules: RuleTable | None = None) -> LmModel:
    tensors, manifest = load_checkpoint(path)
    if manifest.get("kind") != "language-model":
        raise ContractError(f"{path} is not a language-model checkpoint")
    stored = manifest.get("config")
    if isinstance(stored, dict):
        # older checkpoints store a field LmConfig no longer has; nothing
        # read it (``eval-lm`` always caches a hierarchical model)
        stored.pop("cache_embeddings", None)
    config = config_from_dict(LmConfig, stored, str(path))
    vocab_chars = [ch for ch in manifest_strings(path, manifest, "vocab")
                   if ch not in (EOS_TOKEN, UNK_TOKEN)]
    if config.input_kind == "hierarchical" and rules is None:
        raise ContractError("loading a hierarchical model needs the rule table")
    model = build_lm(config, vocab_chars, rules)
    if model.hierarchical:
        model.leaf_embeds = enc.VocabEmbeddings.from_tokens(
            manifest_strings(path, manifest, "leaf_vocab"), config.embed_dim,
            name="leaf_embeddings")
        if sorted(model.trees) != manifest_strings(path, manifest, "tree_chars"):
            raise ContractError(f"{path}: rule table does not reproduce the "
                                "decompositions this model was trained with")
    restore_tensors(path, model.params(), tensors)
    return model
