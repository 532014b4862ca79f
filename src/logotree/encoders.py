"""Logograph encoders: a recursive tree cell plus sequence baselines.

The tree encoder evaluates a gated cell bottom-up over a strictly binary
decomposition tree; the root hidden state is the logograph embedding.
Sequence baselines (unidirectional/bidirectional recurrent nets and a
multi-width convolutional bank) consume linearized trees instead.

Training batches trees with dynamic level scheduling: nodes are grouped by
height so each level evaluates as one matrix operation across the batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, concat, dropout, matmul, rows, sigmoid, tanh
from .errors import ContractError, ShapeError
from .ids import BINARY_IDCS, ALL_IDCS, GlyphTree, Leaf, Op, UNK_TOKEN

GATES = ("i", "fl", "fr", "o", "c")
LSTM_GATES = ("i", "f", "o", "c")


def _uniform(rng: np.random.Generator, shape, bound: float) -> np.ndarray:
    return rng.uniform(-bound, bound, size=shape)


def _weight(rng, rows_, cols, name) -> Tensor:
    return Tensor(_uniform(rng, (rows_, cols), 1.0 / np.sqrt(cols)), name=name)


# ---------------------------------------------------------------------------
# vocabulary embeddings
# ---------------------------------------------------------------------------

class VocabEmbeddings:
    """Token-to-vector table over terminals, operators, and UNK."""

    def __init__(self, leaf_tokens, d_in: int, rng: np.random.Generator,
                 name: str = "embeddings"):
        self.d_in = d_in
        tokens = [UNK_TOKEN]
        tokens += sorted(set(leaf_tokens) - {UNK_TOKEN} - ALL_IDCS)
        tokens += sorted(BINARY_IDCS)
        self.tokens = tokens
        self.index = {tok: i for i, tok in enumerate(tokens)}
        self.table = Tensor(_uniform(rng, (len(tokens), d_in), 0.1), name=name)

    @classmethod
    def from_tokens(cls, tokens: list[str], d_in: int,
                    name: str = "embeddings") -> "VocabEmbeddings":
        """Rebuild with an exact saved token order (zero-filled table)."""
        self = cls.__new__(cls)
        self.d_in = d_in
        self.tokens = list(tokens)
        self.index = {tok: i for i, tok in enumerate(self.tokens)}
        self.table = Tensor(np.zeros((len(self.tokens), d_in)), name=name)
        return self

    def token_ids(self, tokens) -> np.ndarray:
        unk = self.index[UNK_TOKEN]
        return np.array([self.index.get(t, unk) for t in tokens], dtype=np.intp)

    def lookup(self, tokens) -> Tensor:
        """Embedding rows for a token sequence, shape (len(tokens), d_in)."""
        return rows(self.table, self.token_ids(tokens))

    def params(self) -> dict[str, Tensor]:
        return {self.table.name: self.table}


# ---------------------------------------------------------------------------
# tree cell
# ---------------------------------------------------------------------------

@dataclass
class TreeLstmParams:
    """Per-gate weights of the binary tree cell.

    Each gate g has recurrent matrices Ul/Ur (hidden x hidden) applied to
    the child hidden states and input matrices V/Vl/Vr (hidden x d_in)
    applied to the node's own input vector and the children's input
    vectors, plus an optional bias. ``packed`` holds one gate-major buffer
    per kind (``Ul`` (5H, H), ..., ``b`` (5H,)), gates in ``GATES`` order,
    and each per-gate tensor in ``weights`` a row-block view of it.
    """

    hidden: int
    d_in: int
    use_bias: bool = True
    operator_inputs: bool = True  # ablation switch: drop V terms at inner nodes
    weights: dict[str, Tensor] = field(default_factory=dict)
    packed: dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def init(cls, hidden: int, d_in: int, rng: np.random.Generator,
             use_bias: bool = True, operator_inputs: bool = True,
             prefix: str = "tree") -> "TreeLstmParams":
        p = cls(hidden, d_in, use_bias, operator_inputs)
        drawn = {}
        for g in GATES:
            drawn[f"Ul_{g}"] = _weight(rng, hidden, hidden, None).data
            drawn[f"Ur_{g}"] = _weight(rng, hidden, hidden, None).data
            drawn[f"V_{g}"] = _weight(rng, hidden, d_in, None).data
            drawn[f"Vl_{g}"] = _weight(rng, hidden, d_in, None).data
            drawn[f"Vr_{g}"] = _weight(rng, hidden, d_in, None).data
            if use_bias:
                drawn[f"b_{g}"] = Tensor(np.zeros(hidden)).data
        _pack(p, drawn, GATES, prefix)
        return p

    def params(self) -> dict[str, Tensor]:
        return {t.name: t for t in self.weights.values()}


def _pack(p, drawn: dict, gates, prefix: str, scope: str = "") -> None:
    """Stack the per-gate arrays ``drawn[f"{kind}_{g}"]`` of each kind
    gate-major into ``p.packed[scope + kind]`` and keep, in the order of
    ``drawn``, a tensor per gate in ``p.weights`` that views its row block,
    so whatever writes a gate's ``.data`` in place (the optimizer, a
    checkpoint restore) writes the buffer too."""
    blocks = {}
    for kind in dict.fromkeys(key.rsplit("_", 1)[0] for key in drawn):
        # stacked cast arrays keep their dtype
        buf = np.concatenate([drawn[f"{kind}_{g}"] for g in gates])
        p.packed[scope + kind] = buf
        blocks.update(zip((f"{kind}_{g}" for g in gates),
                          np.split(buf, len(gates))))
    for key in drawn:
        p.weights[scope + key] = Tensor(blocks[key],
                                        name=f"{prefix}.{scope}{key}")


def _gate_preact(p: TreeLstmParams, g: str, x_n, x_l, x_r, h_l, h_r,
                 inputs_on: bool) -> Tensor:
    w = p.weights
    pre = matmul(h_l, w[f"Ul_{g}"].T) + matmul(h_r, w[f"Ur_{g}"].T)
    if inputs_on:
        pre = pre + matmul(x_n, w[f"V_{g}"].T)
        pre = pre + matmul(x_l, w[f"Vl_{g}"].T) + matmul(x_r, w[f"Vr_{g}"].T)
    if p.use_bias:
        pre = pre + w[f"b_{g}"]
    return pre


def treelstm_node(x_n: Tensor, x_l: Tensor, x_r: Tensor, h_l: Tensor,
                  h_r: Tensor, c_l: Tensor, c_r: Tensor, p: TreeLstmParams,
                  inputs_on: bool = True,
                  return_gates: bool = False):
    """One cell evaluation; all arguments are (n, dim) row matrices.

    i, fl, fr, o gate through sigmoids of five-term affine forms; the
    candidate goes through tanh; the new cell is i*cand + fl*c_l + fr*c_r
    and the hidden state is o*tanh(cell). Composed from primitives, it is
    the oracle of the fused ``treelstm_levels``.
    """
    if x_n.data.shape[-1] != p.d_in or h_l.data.shape[-1] != p.hidden:
        raise ShapeError(f"treelstm_node: x {x_n.data.shape} h {h_l.data.shape} "
                         f"vs d_in={p.d_in} hidden={p.hidden}")
    i = sigmoid(_gate_preact(p, "i", x_n, x_l, x_r, h_l, h_r, inputs_on))
    f_l = sigmoid(_gate_preact(p, "fl", x_n, x_l, x_r, h_l, h_r, inputs_on))
    f_r = sigmoid(_gate_preact(p, "fr", x_n, x_l, x_r, h_l, h_r, inputs_on))
    o = sigmoid(_gate_preact(p, "o", x_n, x_l, x_r, h_l, h_r, inputs_on))
    cand = tanh(_gate_preact(p, "c", x_n, x_l, x_r, h_l, h_r, inputs_on))
    c_n = i * cand + f_l * c_l + f_r * c_r
    h_n = o * tanh(c_n)
    if return_gates:
        return c_n, h_n, {"i": i, "fl": f_l, "fr": f_r, "o": o}
    return c_n, h_n


@dataclass
class NodeState:
    """Evaluation record of one tree node, children before parents."""

    token: str
    is_leaf: bool
    c: Tensor
    h: Tensor


def treelstm_forward(tree: GlyphTree, embeds: VocabEmbeddings,
                     p: TreeLstmParams) -> tuple[Tensor, list[NodeState]]:
    """Sequential bottom-up evaluation of one tree.

    Leaves read their own embedding with zero child states and zero child
    inputs; inner nodes read the operator embedding, with each child input
    vector being that child's own input embedding.
    """
    zeros_h = Tensor(np.zeros((1, p.hidden)))
    zeros_x = Tensor(np.zeros((1, p.d_in)))
    states: list[NodeState] = []

    def walk(node) -> tuple[Tensor, Tensor]:
        if isinstance(node, Leaf):
            c, h = treelstm_node(embeds.lookup([node.token]), zeros_x, zeros_x,
                                 zeros_h, zeros_h, zeros_h, zeros_h, p)
        else:
            c_l, h_l = walk(node.left)
            c_r, h_r = walk(node.right)
            c, h = treelstm_node(
                embeds.lookup([node.idc]),
                embeds.lookup([_input_token(node.left)]),
                embeds.lookup([_input_token(node.right)]), h_l, h_r, c_l, c_r,
                p, inputs_on=p.operator_inputs)
        states.append(NodeState(_input_token(node), isinstance(node, Leaf), c, h))
        return c, h

    _, h_root = walk(tree)
    return h_root, states


# ---------------------------------------------------------------------------
# dynamic level batching
# ---------------------------------------------------------------------------

@dataclass
class LevelSchedule:
    """Slots grouped by height; children always sit in earlier levels.

    Per slot: its own input token (leaf character or operator) and its
    children's slot ids, -1 at leaves. Each level is a range of slots.
    """

    label: list[str]
    left: np.ndarray
    right: np.ndarray
    levels: list[range]
    roots: list[int]  # per-tree slot id of the root
    shared: bool = False  # built with ``share``: a slot may have several users

    @property
    def total_slots(self) -> int:
        return len(self.label)


def build_level_schedule(trees, share: bool = False) -> LevelSchedule:
    """Group every node of every tree by height (leaves at level 0).

    Slot ids number the nodes level by level, each level in the post-order
    of the nodes' first occurrences, so a node's children always have
    smaller slot ids than the node itself. With ``share`` each distinct
    subtree gets one slot (hash-consing): a node is interned by its token
    and its children's ids, so recurring components and repeated trees
    share slots, roots included. Without it every node occurrence gets its
    own slot.
    """
    trees = list(trees)
    if not trees:
        raise ContractError("empty batch")
    nodes = []  # (label, left, right) per walk id, in post-order
    height: list[int] = []
    interned: dict[tuple, int] = {}
    done: list[int] = []  # walk ids of finished subtrees; ends with the roots
    for tree in trees:
        stack = [(tree, False)]
        while stack:
            node, children_done = stack.pop()
            if type(node) is Op and not children_done:
                stack += ((node, True), (node.right, False), (node.left, False))
                continue
            if type(node) is Leaf:
                key, h = (node.token, -1, -1), 0
            else:  # the children's walk ids end ``done``
                rid, lid = done.pop(), done.pop()
                key, h = (node.idc, lid, rid), 1 + max(height[lid], height[rid])
            wid = interned.setdefault(key, len(nodes)) if share else len(nodes)
            if wid == len(nodes):
                nodes.append(key)
                height.append(h)
            done.append(wid)
    # a stable sort by height keeps the post-order within each level; its
    # inverse maps walk ids to slot ids, and the appended -1 maps -1 to -1
    label, left, right = zip(*nodes)
    order = np.argsort(height, kind="stable")
    slot = np.append(np.argsort(order), -1)
    ends = np.cumsum(np.bincount(height)).tolist()
    return LevelSchedule([label[k] for k in order.tolist()],
                         slot[np.array(left)[order]], slot[np.array(right)[order]],
                         [range(a, b) for a, b in zip([0] + ends[:-1], ends)],
                         slot[done].tolist(), share)


def _input_token(node) -> str:
    return node.token if isinstance(node, Leaf) else node.idc


def _add_rows(dst: np.ndarray, idx: np.ndarray, src: np.ndarray,
              repeats: bool) -> None:
    """``dst[idx] += src`` that also adds every row whose index repeats."""
    if repeats:
        np.add.at(dst, idx, src)
    else:
        dst[idx] += src


def _add_grad(grads: dict, key: str, g: np.ndarray) -> None:
    if key in grads:
        grads[key] += g
    else:
        grads[key] = g


# ---------------------------------------------------------------------------
# gated cell kernel
# ---------------------------------------------------------------------------

def _cell_gates(w: dict, layout, terms, bias: str | None,
                gates=None) -> dict:
    """Each gate g of ``gates`` (a subsequence of ``layout``, by default all
    of it), in order: the sum of ``x @ W_g.T`` over the ordered ``(key, x)``
    terms, plus the bias ``b_g`` unless ``bias`` is None, through tanh for
    the candidate ``c`` and through the logistic for the others. ``w[key]``
    stacks the gates of ``layout`` gate-major, the candidate last, and W_g
    is gate g's row block.

    The grouping follows the row count. A single row, where the cost per
    call dominates, takes one product per term over every gate of the
    layout and one logistic, in place, over all but the candidate. More
    rows take one product per term and gate, which keeps the work and the
    temporaries to the gates asked for."""
    size = len(w[terms[0][0]]) // len(layout)
    gates = gates or layout
    if len(terms[0][1]) == 1:
        pre = None
        for key, x in terms:
            term = x @ w[key].T
            pre = term if pre is None else np.add(pre, term, out=pre)
        if bias is not None:
            pre += w[bias]
        sig, cand = pre[:, :-size], pre[:, -size:]
        ad.logistic(sig, out=sig)
        np.tanh(cand, out=cand)
        return {g: pre[:, j * size:(j + 1) * size]
                for j, g in enumerate(layout) if g in gates}
    act = {}
    for g in gates:
        j = layout.index(g) * size
        pre = None
        for key, x in terms:
            term = x @ w[key][j:j + size].T
            pre = term if pre is None else np.add(pre, term, out=pre)
        if bias is not None:
            pre += w[bias][j:j + size]
        act[g] = (np.tanh(pre, out=pre) if g == "c"
                  else ad.logistic(pre, out=pre))
    return act


def _cell_state(act: dict, forget, h, c=None):
    """c = i*cand + f*c_prev over the ``(forget gate, c_prev)`` pairs in order,
    into ``c`` if given, and h = o*tanh(c) into ``h``; returns c, tanh(c)."""
    c = np.multiply(act["i"], act["c"], out=c)
    for gate, c_prev in forget:
        c += act[gate] * c_prev
    tc = np.tanh(c)
    np.multiply(act["o"], tc, out=h)
    return c, tc


def _cell_backward(w: dict, layout, terms, bias: str | None, act: dict, tc,
                   forget, dh, dc, grads: dict, want=None):
    """The reverse of ``_cell_gates`` and ``_cell_state``, given h's gradient
    ``dh`` and c's gradient from its other uses ``dc``: adds each weight's
    C-ordered ``dp.T @ x`` and each bias's row sum into ``grads`` under the
    per-gate key ``f"{key}_{g}"``, gate by gate in reverse, and returns c's
    whole gradient and, per term, its input gradient if its index is in
    ``want`` (default all), else None."""
    i, o, cand = act["i"], act["o"], act["c"]
    size = len(w[terms[0][0]]) // len(layout)
    # product by product in the order the tape would take them
    dcn = dc + dh * o * (1.0 - tc * tc)
    d_pre = {"i": dcn * cand * i * (1.0 - i),
             "o": dh * tc * o * (1.0 - o),
             "c": dcn * i * (1.0 - cand * cand)}
    # a comprehension, so that no gathered c_prev outlives its use
    d_pre.update({gate: dcn * c_prev * act[gate] * (1.0 - act[gate])
                  for gate, c_prev in forget})
    d_terms = [None] * len(terms)
    for gate in reversed(act):  # gates in forward order; an input's uses, last first
        dp, j = d_pre[gate], layout.index(gate) * size
        for k, (key, x) in enumerate(terms):
            _add_grad(grads, f"{key}_{gate}", dp.T @ x)
            if want is None or k in want:
                dx = dp @ w[key][j:j + size]
                d_terms[k] = dx if d_terms[k] is None else np.add(
                    d_terms[k], dx, out=d_terms[k])
        if bias is not None:
            _add_grad(grads, f"{bias}_{gate}", dp.sum(axis=0))
    return dcn, d_terms


def _tree_terms(p: TreeLstmParams, h_l, h_r, xs) -> list:
    """Inner nodes' ordered terms: child states, then inputs if read."""
    terms = [("Ul", h_l), ("Ur", h_r)]
    if p.operator_inputs:
        terms += zip(("V", "Vl", "Vr"), xs)
    return terms


def treelstm_levels(schedule: LevelSchedule, inputs, p: TreeLstmParams) -> Tensor:
    """Root hidden states of a whole level schedule, one row per root,
    recorded as one tape entry.

    ``inputs`` yields each level's input rows in turn: ``(x_n,)`` at level
    0 and ``(x_n, x_l, x_r)`` above, which only ``p.operator_inputs``
    reads; a generator lets evaluation drop each level's rows once used.
    Each level is one cell-kernel evaluation with ``treelstm_node``'s
    arithmetic into (total_slots, hidden) state buffers; level 0 is the leaf
    cell, gates i, o and c of V·x + b and the cell i*cand. The backward pass
    walks the levels in reverse; weights no level reads get zeros.
    """
    w = p.packed
    bias = "b" if p.use_bias else None
    taped = ad.taping()
    read: list[Tensor] = []  # under a tape: the input tensors the cell reads
    saved = []  # under a tape: per level, what the backward pass needs

    def forget(kids):  # each child's forget gate and cell, gathered anew
        return zip(("fl", "fr"), (c_buf[kid] for kid in kids))

    for lvl, (span, xs) in enumerate(zip(schedule.levels, inputs)):
        rows_ = slice(span.start, span.stop)
        if lvl == 0:
            h_buf = np.empty((schedule.total_slots, p.hidden),
                             dtype=xs[0].data.dtype)
            c_buf = np.empty_like(h_buf)
            kids, gates = (), ("i", "o", "c")
            terms, used = [("V", xs[0].data)], xs[:1]
        else:
            kids = (schedule.left[rows_], schedule.right[rows_])
            gates, used = GATES, (xs if p.operator_inputs else ())
            terms = _tree_terms(p, h_buf[kids[0]], h_buf[kids[1]],
                                [x.data for x in xs])
        if taped:
            read.extend(used)
        act = _cell_gates(w, GATES, terms, bias, gates)
        _, tc = _cell_state(act, forget(kids), h_buf[rows_], c_buf[rows_])
        if taped:
            saved.append((rows_, kids, terms, act, tc))
        del act  # untaped, the next level's gates need not wait for these

    roots = np.array(schedule.roots, dtype=np.intp)
    out = Tensor(h_buf[roots])
    if not taped:
        return out
    weights = tuple(p.weights.values())
    shared = schedule.shared

    def backward(g):
        dh = np.zeros_like(h_buf)
        dc = np.zeros_like(c_buf)
        _add_rows(dh, roots, g, shared)
        grads: dict[str, np.ndarray] = {}
        x_grads = []  # per read input, from the top level down
        for rows_, kids, terms, act, tc in reversed(saved):
            dcn, d_terms = _cell_backward(w, GATES, terms, bias, act, tc,
                                          forget(kids), dh[rows_], dc[rows_],
                                          grads)
            if kids:
                left, right = kids
                _add_rows(dc, right, dcn * act["fr"], shared)
                _add_rows(dc, left, dcn * act["fl"], shared)
                _add_rows(dh, right, d_terms[1], shared)
                _add_rows(dh, left, d_terms[0], shared)
                d_terms = d_terms[2:]
            x_grads.extend(reversed(d_terms))
        return (*(grads[key] if key in grads else np.zeros_like(t.data)
                  for key, t in p.weights.items()),
                *reversed(x_grads))

    return ad.record(out, (*weights, *read), backward)


def treelstm_batch_forward(trees, embeds: VocabEmbeddings, p: TreeLstmParams,
                           input_dropout: float = 0.0,
                           rng: np.random.Generator | None = None,
                           training: bool = False) -> Tensor:
    """Level-batched evaluation; returns root hidden states, one row per tree.

    Per-tree results match the sequential evaluation: ``treelstm_levels``
    does the same arithmetic, grouped into one matrix operation per level.
    The input rows are looked up (and dropped out) level by level, in that
    order, as the cell reaches each level.

    Each distinct subtree is evaluated once, and its gradients accumulate
    over every use, unless training draws an input-dropout mask: then every
    node occurrence keeps its own slot and its own mask rows.
    """
    share = not (training and input_dropout > 0)
    schedule = build_level_schedule(trees, share=share)
    tok = embeds.token_ids(schedule.label)

    def look_up(ids_) -> Tensor:
        return dropout(rows(embeds.table, ids_), input_dropout, rng, training)

    def level_inputs():
        for lvl, span in enumerate(schedule.levels):
            rows_ = slice(span.start, span.stop)
            xs = [look_up(tok[rows_])]
            if lvl:
                xs += [look_up(tok[schedule.left[rows_]]),
                       look_up(tok[schedule.right[rows_]])]
            yield xs

    return treelstm_levels(schedule, level_inputs(), p)


# ---------------------------------------------------------------------------
# sequence baselines
# ---------------------------------------------------------------------------

@dataclass
class LstmParams:
    """Stacked unidirectional recurrent cell weights, one size per layer.

    Each layer keeps one gate-major buffer per kind in ``packed``:
    ``L{layer}.Wx`` (4H, d_in), ``L{layer}.Wh`` (4H, H) and ``L{layer}.b``
    (4H,), gates in ``LSTM_GATES`` order, and each per-gate tensor in
    ``weights`` a row-block view of its buffer.
    """

    sizes: tuple[int, ...]
    d_in: int
    weights: dict[str, Tensor] = field(default_factory=dict)
    packed: dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def init(cls, hidden: int | tuple[int, ...], d_in: int,
             rng: np.random.Generator, layers: int = 1,
             prefix: str = "lstm") -> "LstmParams":
        """``hidden`` is one size for ``layers`` layers, or a tuple of
        per-layer sizes (which sets the layer count)."""
        sizes = (hidden,) * layers if isinstance(hidden, int) else tuple(hidden)
        p = cls(sizes, d_in)
        for layer, size in enumerate(sizes):
            ind = d_in if layer == 0 else sizes[layer - 1]
            drawn = {}
            for g in LSTM_GATES:
                drawn[f"Wx_{g}"] = _weight(rng, size, ind, None).data
                drawn[f"Wh_{g}"] = _weight(rng, size, size, None).data
                drawn[f"b_{g}"] = Tensor(np.zeros(size)).data
            _pack(p, drawn, LSTM_GATES, prefix, f"L{layer}.")
        return p

    def params(self) -> dict[str, Tensor]:
        return {t.name: t for t in self.weights.values()}


def lstm_cell(x: Tensor, h: Tensor, c: Tensor, p: LstmParams,
              layer: int = 0) -> tuple[Tensor, Tensor]:
    """One step of layer ``layer``, composed from primitives: the oracle
    of ``lstm_layer``, which fuses it over a window."""
    w = p.weights

    def pre(g):
        return (matmul(x, w[f"L{layer}.Wx_{g}"].T)
                + matmul(h, w[f"L{layer}.Wh_{g}"].T) + w[f"L{layer}.b_{g}"])

    i = sigmoid(pre("i"))
    f = sigmoid(pre("f"))
    o = sigmoid(pre("o"))
    cand = tanh(pre("c"))
    c_new = f * c + i * cand
    h_new = o * tanh(c_new)
    return h_new, c_new


def _pad_ids(seqs: list[list[str]], embeds: VocabEmbeddings,
             min_len: int) -> tuple[np.ndarray, np.ndarray]:
    """End-padded token ids (n, max_len) and each sequence's length (n,),
    with max_len at least ``min_len``."""
    if not seqs or any(len(s) == 0 for s in seqs):
        raise ContractError("sequences must be non-empty")
    lengths = np.array([len(s) for s in seqs], dtype=np.intp)
    ids_ = np.zeros((len(seqs), max(min_len, lengths.max())), dtype=np.intp)
    for k, seq in enumerate(seqs):
        ids_[k, :len(seq)] = embeds.token_ids(seq)
    return ids_, lengths


def split_steps(x: Tensor, batch: int, steps: int) -> list[Tensor]:
    """Batch-major rows (batch*steps, d) as ``steps`` step inputs (batch, d)."""
    return ad.unstack(ad.reshape(x, (batch, steps, x.data.shape[-1])), axis=1)


def _running_rows(lengths, n: int, steps: int) -> list[int]:
    """n_t = #(lengths > t) for each step t: the rows that still run."""
    if lengths is None:
        return [n] * steps
    lengths = np.asarray(lengths)
    if (lengths.shape != (n,) or np.any(lengths[1:] > lengths[:-1])
            or np.any(lengths < 0) or np.any(lengths > steps)):
        raise ContractError(f"lengths must be {n} non-increasing values in "
                            f"[0, {steps}], got {lengths.tolist()}")
    return np.count_nonzero(lengths[:, None] > np.arange(steps), axis=0).tolist()


def lstm_layer(x: Tensor, p: LstmParams, layer: int, state=None,
               lengths: np.ndarray | None = None):
    """One layer of the stacked cell over a (n, T, d) window, recorded as
    one tape entry.

    ``state`` is the carried ``(h, c)``, each (n, H), or None for zeros.
    ``lengths`` are the rows' numbers of real steps in non-increasing order,
    or None when every row runs all T steps. Step t is one cell-kernel
    evaluation with ``lstm_cell``'s arithmetic on the first n_t =
    #(lengths > t) rows only; the rows whose sequence has ended carry h and
    c through unchanged. Returns the outputs (n, T, H) and the final
    ``(h, c)``, handed out of one buffer; the final h equals the outputs at
    step T-1. The backward pass runs the steps in reverse over the same row
    prefixes.
    """
    n, steps, _ = x.data.shape
    running = _running_rows(lengths, n, steps)
    wx, wh, bias = (f"L{layer}.{kind}" for kind in ("Wx", "Wh", "b"))
    names = [f"{key}_{g}" for g in LSTM_GATES for key in (wx, wh, bias)]
    taped = ad.taping()
    xs = np.ascontiguousarray(x.data.swapaxes(0, 1))  # (T, n, d)
    if state is None:
        h = np.zeros((n, p.sizes[layer]), dtype=xs.dtype)
        c = np.zeros_like(h)
    else:
        h, c = state[0].data, state[1].data
    buf = np.empty((steps + 1,) + h.shape, dtype=h.dtype)  # every h, final c
    if running[0] < n:  # rows of length 0 keep the carried c
        buf[steps, running[0]:] = c[running[0]:]
    saved = []  # per step, only under a tape

    for t, k in enumerate(running):
        terms, c_t = [(wx, xs[t, :k]), (wh, h[:k])], c[:k]
        act = _cell_gates(p.packed, LSTM_GATES, terms, bias)
        c, tc = _cell_state(act, [("f", c_t)], buf[t, :k])
        if taped:
            saved.append((terms, act, tc, c_t))
        del act  # untaped, the next step's gates need not wait for these
        if k < n:
            buf[t, k:] = h[k:]
        h = buf[t]
        ending = running[t + 1] if t + 1 < steps else 0
        if ending < k:  # the rows whose sequence ends at step t
            buf[steps, ending:k] = c[ending:]

    whole = Tensor(buf)

    def backward(g_buf):
        whole.grad = None
        grads: dict[str, np.ndarray] = {}
        dx = np.empty_like(xs)
        dh, dc = g_buf[steps - 1], g_buf[steps]
        for t in reversed(range(steps)):
            k = running[t]
            terms, act, tc, c_prev = saved[t]
            # the h that step 0 reads is a parent only when it was carried in
            want = (0, 1) if t or state is not None else (0,)
            dcn, (dx_t, dh_t) = _cell_backward(
                p.packed, LSTM_GATES, terms, bias, act, tc, [("f", c_prev)],
                dh[:k], dc[:k], grads, want)
            dx[t, :k] = dx_t
            if k < n:  # the ended rows get no input gradient and keep their dc
                dx[t, k:] = 0.0
                np.multiply(dcn, act["f"], out=dc[:k])
            else:  # a fresh dc: a view of g_buf would keep all of it alive
                dc = dcn * act["f"]
            # step t-1's h: its outside uses (already in g_buf) plus this
            # step's gates in the running rows and the carry in the others
            if t:
                prev = g_buf[t - 1]
                prev[:k] += dh_t
                if k < n:
                    prev[k:] += dh[k:]
                dh = prev
            elif state is not None:
                if k < n:
                    dh[:k] = dh_t
                else:
                    dh = dh_t
        carried = () if state is None else (dh, dc)
        return (dx.swapaxes(0, 1), *(grads[key] for key in names), *carried)

    parents = (x, *(p.weights[key] for key in names), *(state or ()))
    ad.record(whole, parents, backward)
    outs = ad.hand_out(whole, lambda d: d[:steps].swapaxes(0, 1))
    return outs, (ad.hand_out(whole, lambda d: d[steps - 1]),
                  ad.hand_out(whole, lambda d: d[steps]))


def lstm_batch_forward(seqs: list[list[str]], embeds: VocabEmbeddings,
                       p: LstmParams, input_dropout: float = 0.0,
                       rng: np.random.Generator | None = None,
                       training: bool = False) -> Tensor:
    """Batched recurrence over variable-length sequences; returns final h
    (n, H), each row at its sequence's true last token.

    The rows run packed: sorted by length (stable, longest first), so step
    t of every layer computes only the sequences that have not ended. The
    input-dropout mask is drawn over the end-padded batch in the caller's
    order, before the sort moves its rows along with the inputs, so the
    random draws do not depend on the packing. Results come back in the
    caller's row order.
    """
    ids_, lengths = _pad_ids(seqs, embeds, 1)
    n, max_len = ids_.shape
    order = np.argsort(-lengths, kind="stable")
    x_all = dropout(rows(embeds.table, ids_.reshape(-1)), input_dropout, rng,
                    training)
    out = ad.permute(ad.reshape(x_all, (n, max_len, embeds.d_in)), order)
    lengths = lengths[order]
    for layer in range(len(p.sizes)):
        out, (h, _) = lstm_layer(out, p, layer, lengths=lengths)
    return ad.permute(h, np.argsort(order))


@dataclass
class BiLstmParams:
    forward: LstmParams
    backward: LstmParams

    @classmethod
    def init(cls, hidden: int, d_in: int, rng: np.random.Generator,
             layers: int = 1, prefix: str = "bilstm") -> "BiLstmParams":
        return cls(LstmParams.init(hidden, d_in, rng, layers, f"{prefix}.fwd"),
                   LstmParams.init(hidden, d_in, rng, layers, f"{prefix}.bwd"))

    def params(self) -> dict[str, Tensor]:
        return {**self.forward.params(), **self.backward.params()}


def bilstm_batch_forward(seqs: list[list[str]], embeds: VocabEmbeddings,
                         p: BiLstmParams, input_dropout: float = 0.0,
                         rng: np.random.Generator | None = None,
                         training: bool = False) -> Tensor:
    """Concatenation [forward final state, backward final state], (n, 2H)."""
    h_f = lstm_batch_forward(seqs, embeds, p.forward, input_dropout, rng, training)
    rev = [list(reversed(s)) for s in seqs]
    h_b = lstm_batch_forward(rev, embeds, p.backward, input_dropout, rng, training)
    return concat([h_f, h_b], axis=-1)


# ---------------------------------------------------------------------------
# convolutional encoder
# ---------------------------------------------------------------------------

@dataclass
class CnnParams:
    """Parallel 1-D convolution banks of widths 1..7 with max-pooling.

    Each bank applies ``n_filters`` kernels over windows of token vectors,
    a tanh nonlinearity, then a global max-pool over positions; the pooled
    bank outputs are concatenated and projected to the embedding size.
    """

    d_in: int
    out_dim: int
    n_filters: int = 200
    widths: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7)
    weights: dict[str, Tensor] = field(default_factory=dict)

    @classmethod
    def init(cls, d_in: int, out_dim: int, rng: np.random.Generator,
             n_filters: int = 200, prefix: str = "cnn") -> "CnnParams":
        p = cls(d_in, out_dim, n_filters)
        for w in p.widths:
            p.weights[f"K{w}"] = _weight(rng, w * d_in, n_filters, f"{prefix}.K{w}")
            p.weights[f"kb{w}"] = Tensor(np.zeros(n_filters), name=f"{prefix}.kb{w}")
        total = n_filters * len(p.widths)
        p.weights["W_fc"] = _weight(rng, out_dim, total, f"{prefix}.W_fc")
        p.weights["b_fc"] = Tensor(np.zeros(out_dim), name=f"{prefix}.b_fc")
        return p

    def params(self) -> dict[str, Tensor]:
        return {t.name: t for t in self.weights.values()}


def cnn_pooled(seqs: list[list[str]], embeds: VocabEmbeddings,
               p: CnnParams, input_dropout: float = 0.0,
               rng: np.random.Generator | None = None,
               training: bool = False) -> Tensor:
    """Concatenated per-bank max-pooled responses, (n, n_filters * n_widths).

    Each width gathers its windows with one ``rows`` call, window (r, t)
    holding positions t..t+w-1 of row r one after another, and multiplies
    them by the whole kernel in one product. Each row pools over the
    windows it would have alone, padded to the widest kernel: windows that
    start past max(len, max width) - w lie in the batch's padding only and
    are left out of the max.
    """
    widest = max(p.widths)
    ids_, lengths = _pad_ids(seqs, embeds, widest)
    n, max_len = ids_.shape
    mask = np.arange(max_len) < lengths[:, None]
    x = ad.reshape(rows(embeds.table, ids_.reshape(-1)), (n, max_len, embeds.d_in))
    # pad positions become zero vectors
    x = dropout(x * Tensor(mask[:, :, None]), input_dropout, rng, training)
    flat = ad.reshape(x, (n * max_len, embeds.d_in))
    reach = np.maximum(lengths, widest)
    pooled = []
    for w in p.widths:
        positions = max_len - w + 1
        starts = (np.arange(n)[:, None] * max_len + np.arange(positions)).reshape(-1)
        windows = rows(flat, starts[:, None] + np.arange(w))
        windows = ad.reshape(windows, (n * positions, w * embeds.d_in))
        resp = matmul(windows, p.weights[f"K{w}"]) + p.weights[f"kb{w}"]
        resp = tanh(ad.reshape(resp, (n, positions, p.n_filters)))
        beyond = np.arange(positions) > (reach - w)[:, None]
        if beyond.any():
            resp = resp + Tensor(np.where(beyond, -np.inf, 0.0)[:, :, None])
        pooled.append(resp.max(axis=1))
    return concat(pooled, axis=-1)


def cnn_batch_forward(seqs, embeds, p: CnnParams, input_dropout: float = 0.0,
                      rng=None, training: bool = False) -> Tensor:
    pooled = cnn_pooled(seqs, embeds, p, input_dropout, rng, training)
    return matmul(pooled, p.weights["W_fc"].T) + p.weights["b_fc"]
