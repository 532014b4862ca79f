"""Interpretability tooling over trained models.

Three read-only analyses: forget-gate asymmetry at the root of
horizontally-arranged logographs (does the model prefer the right child,
the usual phonetic side), per-node prediction probing (feeding intermediate
hidden states to the task head), and cosine nearest neighbors in embedding
space. The first two run on the batched encoders of training and evaluation.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import encoders as enc
from .atomic import write_csv
from .errors import ContractError, DataError
from .ids import IDC_ACROSS, GlyphTree, Leaf, Op, RuleTable, decompose
from .pron import (EVAL_BATCH, PronModel, decode_rows, encode_inputs,
                   forward_batch)

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# forget-gate bias
# ---------------------------------------------------------------------------

@dataclass
class GateBiasReport:
    total: int           # logographs with a left-right arranged root
    prefer_right: int    # of those, where the right forget gate dominates

    @property
    def percentage(self) -> float | None:
        if self.total == 0:
            return None
        return 100.0 * self.prefer_right / self.total


def _check_tree_model(model: PronModel) -> None:
    if model.config.encoder != "treelstm":
        raise ContractError("gate analysis needs a tree-structured model")


def root_forget_gates(model: PronModel, trees
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Left and right forget-gate activations at the roots of inner-rooted
    trees, each (n, hidden): one batched pass over all children, then the
    cell kernel's two forget gates over all roots."""
    _check_tree_model(model)
    trees = list(trees)
    if any(isinstance(tree, Leaf) for tree in trees):
        raise ContractError("gate analysis needs an inner root node")
    p, embeds = model.encoder, model.embeds
    kids = [t.left for t in trees] + [t.right for t in trees]
    h_l, h_r = np.split(enc.treelstm_batch_forward(kids, embeds, p).data, 2)
    x = np.split(embeds.lookup([enc._input_token(t) for t in trees + kids]).data, 3)
    act = enc._cell_gates(p.packed, enc.GATES, enc._tree_terms(p, h_l, h_r, x),
                          "b" if p.use_bias else None, ("fl", "fr"))
    return act["fl"], act["fr"]


def gate_bias(model: PronModel, trees) -> GateBiasReport:
    """Count left-right-rooted trees whose right forget gate has the larger
    L2 norm. An exact tie does not count as preferring the right child, and
    a gap within rounding of one (under 1e-9) is logged."""
    _check_tree_model(model)
    across = [t for t in trees if isinstance(t, Op) and t.idc == IDC_ACROSS]
    prefer_right = 0
    for start in range(0, len(across), EVAL_BATCH):
        f_l, f_r = root_forget_gates(model, across[start:start + EVAL_BATCH])
        gap = np.linalg.norm(f_r, axis=1) - np.linalg.norm(f_l, axis=1)
        prefer_right += int(np.count_nonzero(gap > 0))
        for k in np.flatnonzero(np.abs(gap) < 1e-9).tolist():
            log.warning("left-right root %d: forget-gate norms differ by %.3g",
                        start + k, gap[k])
    return GateBiasReport(len(across), prefer_right)


# ---------------------------------------------------------------------------
# per-node probing
# ---------------------------------------------------------------------------

@dataclass
class ProbeRow:
    node_id: int
    token: str
    magnitudes: np.ndarray  # |h| per hidden unit, for heat-map export
    onset: str
    nucleus: str
    coda: str


@dataclass
class ProbeTrace:
    char: str
    rows: list[ProbeRow]

    def final_decoding(self) -> dict[str, str]:
        last = self.rows[-1]
        return {"onset": last.onset, "nucleus": last.nucleus, "coda": last.coda}


def probe(model: PronModel, ch: str, rules: RuleTable) -> ProbeTrace:
    """Per-node (or per-timestep) hidden states fed to the task head: every
    node occurrence of the tree in post-order, or every prefix of the
    linearization, encoded as one batch. The last row is the model's own
    prediction for the logograph."""
    if model.config.encoder == "treelstm":
        parts = _post_order(decompose(ch, rules))
        tokens = [enc._input_token(node) for node in parts]
    elif model.config.encoder == "lstm":
        tokens = encode_inputs(model, [ch], rules)[0]
        parts = [tokens[:t + 1] for t in range(len(tokens))]
    else:
        raise ContractError("probing supports the tree and unidirectional "
                            "sequence encoders")
    h = forward_batch(model, parts)
    return ProbeTrace(ch, [ProbeRow(node_id, token, np.abs(row), **decoded)
                           for node_id, (token, row, decoded) in enumerate(
                               zip(tokens, h.data, decode_rows(model, h)))])


def _post_order(tree: GlyphTree) -> list[GlyphTree]:
    kids = [] if isinstance(tree, Leaf) else [tree.left, tree.right]
    return [node for kid in kids for node in _post_order(kid)] + [tree]


def probe_to_csv(trace: ProbeTrace, path) -> None:
    width = len(trace.rows[0].magnitudes)
    header = ["node_id", "token", "onset", "nucleus", "coda"]
    header += [f"h{k}" for k in range(width)]
    write_csv(path, header, ([row.node_id, row.token, row.onset, row.nucleus,
                              row.coda] + [f"{v:.6g}" for v in row.magnitudes]
                             for row in trace.rows))


# ---------------------------------------------------------------------------
# nearest neighbors
# ---------------------------------------------------------------------------

def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise DataError("cosine similarity undefined for zero-norm vectors")
    return float(np.dot(a, b) / (na * nb))


def nearest_neighbors(table: dict[str, np.ndarray], query: str,
                      k: int) -> list[tuple[str, float]]:
    """Top-k characters by cosine similarity to the query's embedding.

    The query itself is excluded; zero-norm entries are skipped with a
    warning; ties break toward the smaller codepoint.
    """
    if k < 1:
        raise ContractError("k must be at least 1")
    if query not in table:
        raise DataError(f"query {query!r} has no embedding")
    q = table[query]
    if np.linalg.norm(q) == 0.0:
        raise DataError(f"query {query!r} has a zero-norm embedding")
    scored = []
    for ch, vec in table.items():
        if ch == query:
            continue
        if np.linalg.norm(vec) == 0.0:
            log.warning("excluding zero-norm embedding for %r", ch)
            continue
        scored.append((ch, cosine_similarity(q, vec)))
    scored.sort(key=lambda item: (-item[1], item[0]))
    return scored[:k]


def lm_embedding_table(model) -> dict[str, np.ndarray]:
    """Character embeddings of a language model, as its input layer reads
    them: composed where a tree exists, else the lookup or auxiliary row."""
    from .lm import EOS_TOKEN, UNK_TOKEN, build_cache, window_embeddings
    chars = [ch for ch in model.vocab if ch not in (EOS_TOKEN, UNK_TOKEN)]
    if not chars:
        return {}
    ids = np.array([[model.index[ch] for ch in chars]], dtype=np.intp)
    cache = build_cache(model) if model.hierarchical else None
    matrix, flat = window_embeddings(model, ids, cache=cache)
    return dict(zip(chars, matrix.data[flat]))
