"""Logograph encoders: a recursive tree cell plus sequence baselines.

The tree encoder evaluates a gated cell bottom-up over a strictly binary
decomposition tree; the root hidden state is the logograph embedding.
Sequence baselines (unidirectional/bidirectional recurrent nets and a
multi-width convolutional bank) consume linearized trees instead.

Training batches trees with dynamic level scheduling: nodes are grouped by
height so each level evaluates as one matrix operation across the batch.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial

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
             use_bias: bool = True, operator_inputs: bool = True
             ) -> "TreeLstmParams":
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
        _pack(p, drawn, GATES, "tree")
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


def _weight_grads(terms, bias: str | None, d_pre: dict, gates, grads: dict,
                  bufs: dict):
    """Adds each weight's C-ordered ``dp.T @ x`` and each bias's row sum
    into ``grads`` under the per-gate key ``f"{key}_{g}"``, for the gates
    in the order given. A key's first term goes into ``bufs.pop(key)`` if
    ``bufs`` holds a buffer for it."""
    for gate in gates:
        dp = d_pre[gate]
        for key, x in terms:
            key = f"{key}_{gate}"
            _add_grad(grads, key, np.matmul(dp.T, x, out=bufs.pop(key, None)))
        if bias is not None:
            key = f"{bias}_{gate}"
            _add_grad(grads, key, dp.sum(axis=0, out=bufs.pop(key, None)))


def _cell_backward(w: dict, layout, terms, bias: str | None, act: dict, tc,
                   forget, dh, dc, grads: dict, run, bufs: dict, want=None):
    """The reverse of ``_cell_gates`` and ``_cell_state``, given h's gradient
    ``dh`` and c's gradient from its other uses ``dc``: adds the weight
    gradients into ``grads`` (``_weight_grads``, gate by gate in reverse)
    and returns c's whole gradient and, per term, its input gradient if
    its index is in ``want`` (default all), else None.

    Nothing returned depends on the weight gradients, so ``run`` takes
    them as ``run(job, work)``, one job of ``work`` multiply-adds to run at
    a time of its choosing, after every job it took before
    (``_weight_grad_jobs``). ``bufs`` are the ``_weight_grads`` buffers."""
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
    gates = tuple(reversed(act))  # gates in forward order; an input's uses, last first
    run(partial(_weight_grads, terms, bias, d_pre, gates, grads, bufs),
        len(dh) * len(gates) * size * sum(x.shape[1] for _, x in terms))
    d_terms = [None] * len(terms)
    for gate in gates:
        dp, j = d_pre[gate], layout.index(gate) * size
        for k, (key, _) in enumerate(terms):
            if want is None or k in want:
                dx = dp @ w[key][j:j + size]
                d_terms[k] = dx if d_terms[k] is None else np.add(
                    d_terms[k], dx, out=d_terms[k])
    return dcn, d_terms


# ---------------------------------------------------------------------------
# the helper thread of the reverse passes, the untaped tree pass and the biLSTM
# ---------------------------------------------------------------------------

#: The one thread of the process that adds up the gated cells' weight
#: gradients while a tree or LSTM reverse pass goes on, shares the large
#: levels' chunks of an untaped tree pass with the main thread, and runs a
#: biLSTM layer's reverse-order window while the main thread runs the
#: forward one: None until the first pass that wants it starts it, False
#: where each pass runs inline.
_helper = None
_helper_lock = threading.Lock()


def _run_inline() -> None:
    """Have every later pass of this process run inline: in a forked
    child, whose copy of the helper has no thread, and in worker
    processes, which already fill the CPUs."""
    global _helper
    _helper = False


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_run_inline)


#: The fewest multiply-adds of a weight-gradient job (a tree level or an
#: LSTM step), of each chunk of an untaped level, or of a biLSTM window,
#: that the helper takes; a smaller one costs more to hand off than it
#: saves, and runs inline (a weight-gradient job unless it must queue behind
#: one still running).
#: One tree reverse pass took, with every job / jobs from 2**23 / no job
#: handed off (median of 15, one OpenBLAS thread, 2-vCPU VM): 64 trees at
#: hidden 48, d_in 24: 7.3 / 3.9 / 3.8 ms; 64 at hidden 128, d_in 32:
#: 13.3 / 12.8 / 15.4 ms; 128 at hidden 256, d_in 64 (no shared slots):
#: 55.0 / 55.6 / 81.8 ms. An untaped pass of 1,500 trees at the LM's width
#: (hidden 32, d_in 32: about 3.3M per 128-row chunk) took 15-16 ms inline
#: and 20-22 ms with every level of two or more chunks shared (median of
#: 30, same VM).
_HAND_OFF = 1 << 23


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        return os.cpu_count() or 1


def _weight_grad_helper():
    """The process's helper, started on the first call where the process
    may use two or more CPUs, else False; False on the helper's own thread
    too, so that a pass started there runs inline rather than wait on jobs
    queued behind itself. One worker takes the jobs in the order they come,
    so every gradient adds its terms in the order the inline pass does, and
    the results are the same bits; an untaped chunk or a biLSTM window
    computes the same products on either thread."""
    global _helper
    with _helper_lock:
        if _helper is None:
            _helper = (ThreadPoolExecutor(1, thread_name_prefix="logotree-grads")
                       if usable_cpus() >= 2 else False)
        if _helper and threading.current_thread() in _helper._threads:
            return False
        return _helper


def helper_ran() -> bool:
    """Whether this process's helper has taken a job: weight gradients,
    untaped chunks or a biLSTM layer's reverse-order window."""
    return bool(_helper and _helper._threads)


@contextmanager
def _weight_grad_jobs():
    """Yields one reverse pass's ``run(job, work)`` for ``_cell_backward``.
    The helper, if the process has one, takes a job of ``work``
    multiply-adds that is large (``_HAND_OFF``) or must queue behind one
    still running, once the job handed off two before has ended, so at
    most two jobs' operands wait on it; other jobs run at once. Leaving
    waits for every job, even on an error, so that no job writes into an
    ended pass, then raises a job's exception with its own type."""
    helper, jobs = _weight_grad_helper(), []

    def run(job, work):
        # a small job costs the helper more than it saves, unless it must
        # queue behind one still running to keep every sum in order
        if helper and (work >= _HAND_OFF or jobs and not jobs[-1].done()):
            if len(jobs) >= 2:
                jobs[-2].result()
            jobs.append(helper.submit(job))
        else:
            job()

    try:
        yield run
    finally:
        wait(jobs)
    for job in jobs:
        job.result()


def _share_chunks(helper, run, parts) -> None:
    """``run(part)`` for every part, each pulled in turn by this thread or
    by the helper, whichever is free; returns once both have stopped. A
    helper that is busy or late takes fewer parts or none, so it never
    holds the parts back. After an exception no part starts; the one in
    flight ends, then the first exception is raised with its own type."""
    lock, parts, failed = threading.Lock(), iter(parts), []

    def drain():
        while True:
            with lock:
                part = None if failed else next(parts, None)
            if part is None:
                return
            try:
                run(part)
            except BaseException as exc:  # raised below, once both stop
                with lock:
                    failed.append(exc)

    job = helper.submit(drain)
    try:
        drain()
    finally:
        if not job.cancel():  # a job the helper never started needs no wait
            wait((job,))
    if failed:
        raise failed[0]


def _tree_terms(p: TreeLstmParams, h_l, h_r, xs) -> list:
    """Inner nodes' ordered terms: child states, then inputs if read."""
    terms = [("Ul", h_l), ("Ur", h_r)]
    if p.operator_inputs:
        terms += zip(("V", "Vl", "Vr"), xs)
    return terms


#: Rows per product of an untaped pass over a shared schedule. One
#: ``pron.evaluate`` of the benchmark's 2,048-character compose-scale sample
#: (seed 31, hidden 256, one OpenBLAS thread on a 2-vCPU VM) took, with the
#: helper sharing the levels / inline, 0.16-0.18 / 0.26 s at a 17.5-18.1 /
#: 15.0 MB tracemalloc peak with 128 rows, 0.18-0.21 / 0.26 s at 15.0 / 13.5
#: MB with 64 and 0.15-0.19 / 0.26 s at 22.5-23.0 / 18.0 MB with 256.
_FOREST_ROWS = 128


def _chunks(span: range, most: int) -> list[range]:
    """``span`` cut into ceil(len / most) near-equal ranges: a product of a
    few rows rounds differently from the same rows in a larger one, so no
    chunk is a small remainder unless the whole span is small."""
    k = -(-len(span) // most)
    ends = [span.start + len(span) * j // k for j in range(k + 1)]
    return [range(a, b) for a, b in zip(ends, ends[1:])]


def _kept_rows(schedule: LevelSchedule) -> np.ndarray:
    """Per slot, its row among the slots some parent reads (numbered in
    slot order), or -1 for a slot no parent reads."""
    read = np.zeros(schedule.total_slots + 1, dtype=bool)  # [-1] takes leaves' -1
    read[schedule.left] = read[schedule.right] = True
    read = read[:-1]
    return np.where(read, np.cumsum(read) - 1, -1)


def treelstm_levels(schedule: LevelSchedule, inputs, p: TreeLstmParams) -> Tensor:
    """Root hidden states of a whole level schedule, one row per root: the
    one tree kernel, one tape entry under a tape.

    ``inputs(lvl, rows)`` returns the input rows of the slots ``rows``, a
    slice of level ``lvl``: ``(x_n,)`` at level 0 and ``(x_n, x_l, x_r)``
    above, which only ``p.operator_inputs`` reads; without it, ``inputs``
    may return no rows above level 0. Each slice is one
    cell-kernel evaluation with ``treelstm_node``'s arithmetic; level 0 is
    the leaf cell, gates i, o and c of V·x + b and the cell i*cand. (h, c)
    is kept only for the slots a later level reads, and each slice writes
    the roots it completes straight into their rows.

    Without a tape, over a shared schedule, a level runs in near-equal
    slices of at most ``_FOREST_ROWS`` rows; where the process has the
    helper, a level of two or more slices of at least ``_HAND_OFF``
    multiply-adds each is shared with it (``_share_chunks``). A row of a
    product rounds as in the whole level's product (the tests pin this), so
    the rows are the same bits on either thread, in slices or whole. Under
    a tape, or over an unshared schedule (whose inputs may draw dropout
    masks), a level is one slice, on this thread, in level order.

    The backward pass walks the levels in reverse; weights no level reads
    get zeros. It hands each large level's weight gradients (``dp.T @ x``
    per gate and term, and the bias row sums) to the helper as one job, if
    the process has one, and computes the input gradients and the scatter
    to the level below meanwhile; it returns once its jobs are done. The
    helper runs the jobs in the order given, so every gradient keeps its
    order of sums: the results are the same bits either way.
    """
    w = p.packed
    bias = "b" if p.use_bias else None
    taped = ad.taping()
    most = _FOREST_ROWS if schedule.shared and not taped else schedule.total_slots
    read: list[Tensor] = []  # the input tensors the cell reads
    saved = []  # per level, what the backward pass needs, only under a tape
    out = Tensor(np.zeros((len(schedule.roots), p.hidden)))  # every input's dtype
    kept = _kept_rows(schedule)
    h_keep = np.empty((int(kept.max()) + 1, p.hidden), dtype=out.data.dtype)
    c_keep = np.empty_like(h_keep)
    # output rows grouped by root slot, slots ascending
    roots = np.asarray(schedule.roots, dtype=np.intp)
    order = np.argsort(roots, kind="stable")
    roots = roots[order]

    def forget(kids):  # each child's forget gate and cell, gathered anew
        return zip(("fl", "fr"), (c_keep[kept[kid]] for kid in kids))

    def chunk(lvl, part):
        rows_ = slice(part.start, part.stop)
        xs = inputs(lvl, rows_)
        if lvl == 0:
            kids, gates, used = (), ("i", "o", "c"), xs[:1]
            terms = [("V", xs[0].data)]
        else:
            kids = (schedule.left[rows_], schedule.right[rows_])
            gates, used = GATES, (xs if p.operator_inputs else ())
            terms = _tree_terms(p, h_keep[kept[kids[0]]], h_keep[kept[kids[1]]],
                                [x.data for x in xs])
        act = _cell_gates(w, GATES, terms, bias, gates)
        h = np.empty((len(part), p.hidden), dtype=h_keep.dtype)
        c, tc = _cell_state(act, forget(kids), h)
        if taped:
            read.extend(used)
            saved.append((rows_, kids, terms, act, tc))
        del xs, used, act, terms, tc  # the next chunk's gathers need not wait
        dest = kept[rows_]
        keep = dest >= 0
        h_keep[dest[keep]] = h[keep]
        c_keep[dest[keep]] = c[keep]
        lo, hi = np.searchsorted(roots, (part.start, part.stop))
        out.data[order[lo:hi]] = h[roots[lo:hi] - part.start]

    # a row's multiply-adds at the leaves and above, counted as
    # _cell_backward counts them: gates x hidden x summed term widths
    per_row = (3 * p.hidden * p.d_in, len(GATES) * p.hidden
               * (2 * p.hidden + (3 * p.d_in if p.operator_inputs else 0)))
    for lvl, span in enumerate(schedule.levels):
        parts = _chunks(span, most)
        work = len(parts[0]) * per_row[lvl > 0]  # the smallest chunk's
        helper = len(parts) >= 2 and work >= _HAND_OFF and _weight_grad_helper()
        if helper:
            _share_chunks(helper, partial(chunk, lvl), parts)
        else:
            for part in parts:
                chunk(lvl, part)

    shared = schedule.shared

    def backward(g):
        dh = np.zeros((schedule.total_slots, p.hidden), dtype=h_keep.dtype)
        dc = np.zeros_like(dh)
        _add_rows(dh, roots, g[order], shared)  # a slot's rows in input order
        grads: dict[str, np.ndarray] = {}
        # the weight gradients' buffers come from this thread: the helper's
        # allocator arena would keep its own copy of the memory they take
        bufs = {key: np.zeros(t.data.shape, np.result_type(dh, t.data))
                for key, t in p.weights.items()}
        x_grads = []  # per read input, from the top level down
        with _weight_grad_jobs() as run:
            for rows_, kids, terms, act, tc in reversed(saved):
                dcn, d_terms = _cell_backward(w, GATES, terms, bias, act, tc,
                                              forget(kids), dh[rows_],
                                              dc[rows_], grads, run, bufs)
                if kids:
                    left, right = kids
                    _add_rows(dc, right, dcn * act["fr"], shared)
                    _add_rows(dc, left, dcn * act["fl"], shared)
                    _add_rows(dh, right, d_terms[1], shared)
                    _add_rows(dh, left, d_terms[0], shared)
                    d_terms = d_terms[2:]
                x_grads.extend(reversed(d_terms))
        return (*(grads[key] if key in grads else bufs[key] for key in p.weights),
                *reversed(x_grads))

    return ad.record(out, (*p.weights.values(), *read), backward)


def treelstm_batch_forward(trees, embeds: VocabEmbeddings, p: TreeLstmParams,
                           input_dropout: float = 0.0,
                           rng: np.random.Generator | None = None,
                           training: bool = False) -> Tensor:
    """Root hidden states of ``trees``, row k that of ``trees[k]``, by
    ``treelstm_levels``, whose rows match the sequential evaluation; (0,
    hidden) for no trees. The input rows are looked up (and dropped out)
    slice by slice, in that order, as the cell reaches each slice; above
    the leaves, only where operator inputs read them or a dropout mask is
    drawn for them.

    Each distinct subtree is evaluated once, and its gradients accumulate
    over every use, unless training draws an input-dropout mask: then every
    node occurrence keeps its own slot and its own mask rows.
    """
    if not trees:
        return Tensor(np.empty((0, p.hidden)))
    share = not (training and input_dropout > 0)
    schedule = build_level_schedule(trees, share=share)
    tok = embeds.token_ids(schedule.label)

    def look_up(ids_) -> Tensor:
        return dropout(rows(embeds.table, ids_), input_dropout, rng, training)

    # the cell reads inner slots' inputs only with operator inputs; a
    # dropout forward still draws their masks, which keeps the random stream
    inner = p.operator_inputs or not share

    def level_inputs(lvl, rows_):
        if lvl and not inner:
            return []
        xs = [look_up(tok[rows_])]
        if lvl:
            xs += [look_up(tok[schedule.left[rows_]]),
                   look_up(tok[schedule.right[rows_]])]
        return xs

    return treelstm_levels(schedule, level_inputs, p)


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


def _lstm_names(layer: int) -> list[str]:
    """Layer ``layer``'s per-gate weight keys, in its gradients' order."""
    return [f"L{layer}.{kind}_{g}" for g in LSTM_GATES for kind in ("Wx", "Wh", "b")]


def _lstm_window(x: np.ndarray, p: LstmParams, layer: int, state, running,
                 taped: bool):
    """``lstm_layer``'s arithmetic on arrays: it records nothing and hands
    nothing out, so it may run on the helper thread.

    ``x`` is the (n, T, d) window, ``state`` the carried ``(h, c)`` arrays
    or None and ``running`` the rows n_t that run at each step. Returns the
    buffer of every step's h and the final c, (T+1, n, H), and the backward
    pass from that buffer's gradient to the gradients of ``x``, of the
    weights in ``_lstm_names(layer)`` order and of the carried state, which
    keeps what it needs only if ``taped``.
    """
    n, steps, _ = x.shape
    wx, wh, bias = (f"L{layer}.{kind}" for kind in ("Wx", "Wh", "b"))
    xs = np.ascontiguousarray(x.swapaxes(0, 1))  # (T, n, d)
    if state is None:
        h = np.zeros((n, p.sizes[layer]), dtype=xs.dtype)
        c = np.zeros_like(h)
    else:
        h, c = state
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

    def backward(g_buf):
        names = _lstm_names(layer)
        grads: dict[str, np.ndarray] = {}
        # from this thread, as in treelstm_levels
        bufs = {key: np.zeros(p.weights[key].data.shape,
                              np.result_type(buf, p.weights[key].data))
                for key in names}
        dx = np.empty_like(xs)
        dh, dc = g_buf[steps - 1], g_buf[steps]
        with _weight_grad_jobs() as run:
            for t in reversed(range(steps)):
                k = running[t]
                terms, act, tc, c_prev = saved[t]
                # the h that step 0 reads is a parent only when it was carried in
                want = (0, 1) if t or state is not None else (0,)
                dcn, (dx_t, dh_t) = _cell_backward(
                    p.packed, LSTM_GATES, terms, bias, act, tc, [("f", c_prev)],
                    dh[:k], dc[:k], grads, run, bufs, want)
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

    return buf, backward


def _record_window(x: Tensor, p: LstmParams, layer: int, state, buf, backward):
    """``_lstm_window``'s result as one tape entry: the outputs (n, T, H)
    and the final ``(h, c)``, handed out of ``buf``."""
    steps = len(buf) - 1
    whole = Tensor(buf)

    def hand_back(g_buf):
        whole.grad = None
        return backward(g_buf)

    parents = (x, *(p.weights[key] for key in _lstm_names(layer)), *(state or ()))
    ad.record(whole, parents, hand_back)
    outs = ad.hand_out(whole, lambda d: d[:steps].swapaxes(0, 1))
    return outs, (ad.hand_out(whole, lambda d: d[steps - 1]),
                  ad.hand_out(whole, lambda d: d[steps]))


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
    prefixes. It hands each large step's weight gradients to the helper
    thread as ``treelstm_levels`` does each level's, and computes the step's
    input and carried gradients meanwhile: the same bits either way.
    """
    running = _running_rows(lengths, *x.data.shape[:2])
    carried = None if state is None else (state[0].data, state[1].data)
    window = _lstm_window(x.data, p, layer, carried, running, ad.taping())
    return _record_window(x, p, layer, state, *window)


def _packed_inputs(seqs: list[list[str]], embeds: VocabEmbeddings,
                   input_dropout: float, rng, training: bool):
    """The first layer's (n, max_len, d_in) window of ``seqs``, its rows
    sorted by length (stable, longest first), with the sorted lengths and
    the sorting order. The input-dropout mask is drawn over the end-padded
    batch in the caller's order, before the sort moves its rows along with
    the inputs, so the random draws do not depend on the packing."""
    ids_, lengths = _pad_ids(seqs, embeds, 1)
    n, max_len = ids_.shape
    order = np.argsort(-lengths, kind="stable")
    x_all = dropout(rows(embeds.table, ids_.reshape(-1)), input_dropout, rng,
                    training)
    x = ad.permute(ad.reshape(x_all, (n, max_len, embeds.d_in)), order)
    return x, lengths[order], order


def lstm_batch_forward(seqs: list[list[str]], embeds: VocabEmbeddings,
                       p: LstmParams, input_dropout: float = 0.0,
                       rng: np.random.Generator | None = None,
                       training: bool = False) -> Tensor:
    """Batched recurrence over variable-length sequences; returns final h
    (n, H), each row at its sequence's true last token.

    The rows run packed (``_packed_inputs``), so step t of every layer
    computes only the sequences that have not ended. Results come back in
    the caller's row order.
    """
    x, lengths, order = _packed_inputs(seqs, embeds, input_dropout, rng, training)
    for layer in range(len(p.sizes)):
        x, (h, _) = lstm_layer(x, p, layer, lengths=lengths)
    return ad.permute(h, np.argsort(order))


@dataclass
class BiLstmParams:
    forward: LstmParams
    backward: LstmParams

    @classmethod
    def init(cls, hidden: int, d_in: int, rng: np.random.Generator,
             layers: int = 1) -> "BiLstmParams":
        return cls(LstmParams.init(hidden, d_in, rng, layers, "bilstm.fwd"),
                   LstmParams.init(hidden, d_in, rng, layers, "bilstm.bwd"))

    def params(self) -> dict[str, Tensor]:
        return {**self.forward.params(), **self.backward.params()}


def _alongside(helper, here, there) -> list:
    """``[here(), there()]``, the helper running ``there`` meanwhile.
    Leaving waits for both, even on an error, so that neither runs on past
    the pass; then an exception of ``here``'s, else of ``there``'s, is
    raised with its own type."""
    job = helper.submit(there)
    try:
        mine = here()
    finally:
        wait((job,))
    return [mine, job.result()]


def bilstm_batch_forward(seqs: list[list[str]], embeds: VocabEmbeddings,
                         p: BiLstmParams, input_dropout: float = 0.0,
                         rng: np.random.Generator | None = None,
                         training: bool = False) -> Tensor:
    """Concatenation [forward final state, backward final state], (n, 2H):
    ``lstm_batch_forward``'s rows over ``seqs`` with ``p.forward`` and over
    the reversed sequences with ``p.backward``, the same bits.

    Both directions' inputs are looked up and dropped out first, the
    forward direction's first, which keeps the random draws in that order.
    Then each layer runs the two directions' windows (``_lstm_window``):
    where the process has the helper and a window's multiply-adds reach
    ``_HAND_OFF``, the reverse-order direction's on the helper while this
    thread runs the forward direction's, else one after the other here.
    The helper records nothing: this thread records each layer's two tape
    entries, forward direction first, and the reverse pass runs them one
    after the other as ``lstm_layer``'s.
    """
    x, lengths, order = _packed_inputs(seqs, embeds, input_dropout, rng, training)
    rev = [list(reversed(s)) for s in seqs]
    # the same lengths, so the same order
    xs = [x, _packed_inputs(rev, embeds, input_dropout, rng, training)[0]]
    params, finals = (p.forward, p.backward), [None, None]
    running = _running_rows(lengths, *x.data.shape[:2])
    taped = ad.taping()
    for layer, size in enumerate(p.forward.sizes):
        runs = [partial(_lstm_window, x_.data, q, layer, None, running, taped)
                for x_, q in zip(xs, params)]
        # as _cell_backward counts a step's: gates x hidden x term widths
        work = sum(running) * len(LSTM_GATES) * size * (xs[0].data.shape[-1] + size)
        helper = work >= _HAND_OFF and _weight_grad_helper()
        windows = _alongside(helper, *runs) if helper else [run() for run in runs]
        for k, window in enumerate(windows):
            xs[k], (finals[k], _) = _record_window(xs[k], params[k], layer, None,
                                                   *window)
    restore = np.argsort(order)
    return concat([ad.permute(h, restore) for h in finals], axis=-1)


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
             n_filters: int = 200) -> "CnnParams":
        p = cls(d_in, out_dim, n_filters)
        for w in p.widths:
            p.weights[f"K{w}"] = _weight(rng, w * d_in, n_filters, f"cnn.K{w}")
            p.weights[f"kb{w}"] = Tensor(np.zeros(n_filters), name=f"cnn.kb{w}")
        total = n_filters * len(p.widths)
        p.weights["W_fc"] = _weight(rng, out_dim, total, "cnn.W_fc")
        p.weights["b_fc"] = Tensor(np.zeros(out_dim), name="cnn.b_fc")
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
