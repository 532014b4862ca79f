"""The fused recurrent primitives against finite differences and against the
composed cells they replace.

``treelstm_levels`` evaluates a whole level schedule and ``lstm_layer`` one
layer over a whole window, each as one tape entry with a hand-written
backward pass. The composed oracles below rebuild the same computation from
``treelstm_node`` / ``lstm_cell`` and single-op primitives; where the
slots of a schedule are not shared, the fused primitives must equal them
bit for bit, forward values and gradients alike.
"""

import contextlib
import os
import pickle
import random
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from logotree import autodiff as ad
from logotree import encoders as enc
from logotree import lm
from logotree.autodiff import Tape, Tensor, check_gradient
from logotree.config import LmConfig
from logotree.errors import ContractError
from logotree.ids import Leaf, Op
from oracles import narrow


def random_tree(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.3:
        return Leaf(rng.choice("abcdef"))
    return Op(rng.choice("⿰⿱"), random_tree(rng, depth - 1),
              random_tree(rng, depth - 1))


class LevelInputs(list):
    """Input rows per level, looked up as ``treelstm_batch_forward`` does;
    called as ``treelstm_levels``' ``inputs(lvl, rows)``, it returns the
    rows of a slice of a level, the level's own tensors for a whole level."""

    def __init__(self, schedule, levels):
        super().__init__(levels)
        self.starts = [span.start for span in schedule.levels]

    def __call__(self, lvl, rows):
        xs, start = self[lvl], self.starts[lvl]
        if len(xs[0]) == rows.stop - rows.start:
            return xs
        return [Tensor(x.data[rows.start - start:rows.stop - start]) for x in xs]


def level_inputs(schedule, embeds):
    label = schedule.label
    inputs = []
    for lvl, span in enumerate(schedule.levels):
        xs = [embeds.lookup([label[k] for k in span])]
        if lvl:
            xs += [embeds.lookup([label[k] for k in schedule.left[span]]),
                   embeds.lookup([label[k] for k in schedule.right[span]])]
        inputs.append(xs)
    return LevelInputs(schedule, inputs)


def composed_levels(schedule, inputs, p):
    """The level loop the fused primitive replaced: ``treelstm_node`` per
    level over row gathers of concatenated state pools, leaves included
    (with zero child states and inputs)."""
    h_pool = c_pool = None
    for lvl, (span, xs) in enumerate(zip(schedule.levels, inputs)):
        if lvl == 0:
            zx = Tensor(np.zeros_like(xs[0].data))
            zh = Tensor(np.zeros((len(span), p.hidden)))
            c, h = enc.treelstm_node(xs[0], zx, zx, zh, zh, zh, zh, p)
        else:
            left = schedule.left[span]
            right = schedule.right[span]
            c, h = enc.treelstm_node(*xs, ad.rows(h_pool, left),
                                     ad.rows(h_pool, right),
                                     ad.rows(c_pool, left),
                                     ad.rows(c_pool, right), p,
                                     inputs_on=p.operator_inputs)
        h_pool = h if h_pool is None else ad.concat([h_pool, h], axis=0)
        c_pool = c if c_pool is None else ad.concat([c_pool, c], axis=0)
    return ad.rows(h_pool, schedule.roots)


def composed_layer(x, p, layer, state, mask):
    """The padded program: an ``lstm_cell`` loop over every row at every
    step, with the padding mask applied per step; returns (per-step outputs,
    final h, final c)."""
    n, steps, d = x.data.shape
    h, c = state
    outs = []
    for t in range(steps):
        x_t = narrow(x, 1, t, 1).reshape(n, d)
        m, keep = Tensor(mask[:, t]), Tensor(1.0 - mask[:, t])
        h_new, c_new = enc.lstm_cell(x_t, h, c, p, layer)
        h = h_new * m + h * keep
        c = c_new * m + c * keep
        outs.append(h)
    return outs, h, c


def packed_layer(x, p, layer, state, lengths):
    """``lstm_layer`` as an ``lstm_cell`` loop over the rows that still run
    at each step, a prefix since ``lengths`` do not increase, with the
    others carried; returns (per-step outputs, final h, final c)."""
    n, steps, d = x.data.shape
    h, c = state
    outs = []
    for t in range(steps):
        x_t = narrow(x, 1, t, 1).reshape(n, d)
        k = int(np.count_nonzero(lengths > t))
        h_new, c_new = enc.lstm_cell(narrow(x_t, 0, 0, k),
                                     narrow(h, 0, 0, k),
                                     narrow(c, 0, 0, k), p, layer)
        if k < n:
            h_new = ad.concat([h_new, narrow(h, 0, k, n - k)], axis=0)
            c_new = ad.concat([c_new, narrow(c, 0, k, n - k)], axis=0)
        h, c = h_new, c_new
        outs.append(h)
    return outs, h, c


def run_and_grad(build, tensors):
    """Forward values of ``build()`` (a list of tensors, the first summed
    with weights into the loss) and the gradients of ``tensors``."""
    tp = Tape()
    with tp:
        outs = build()
        rng = np.random.default_rng(99)
        loss = None
        for o in outs:
            term = (o * Tensor(rng.standard_normal(o.data.shape))).sum()
            loss = term if loss is None else loss + term
    for t in tensors:
        t.grad = None
    tp.backward(loss)
    return [o.data.copy() for o in outs], [t.grad for t in tensors]


def tree_setup(seed, use_bias=True, operator_inputs=True, hidden=3, d_in=2):
    rng = np.random.default_rng(seed)
    p = enc.TreeLstmParams.init(hidden, d_in, rng, use_bias=use_bias,
                                operator_inputs=operator_inputs)
    for key, w in p.weights.items():
        if key.startswith("b_"):
            w.data[:] = rng.standard_normal(hidden)
    embeds = enc.VocabEmbeddings("abcdef", d_in, rng)
    return p, embeds


SHARED_TREES = [Op("⿰", Leaf("a"), Leaf("a")),
                Op("⿱", Op("⿰", Leaf("a"), Leaf("a")), Leaf("b")),
                Op("⿰", Leaf("a"), Leaf("a")), Leaf("b"),
                Op("⿰", Op("⿱", Leaf("c"), Leaf("a")),
                   Op("⿱", Op("⿰", Leaf("a"), Leaf("a")), Leaf("b")))]
ALL_LEAVES = [Leaf("a"), Leaf("c"), Leaf("a"), Leaf("f")]
CELLS = [(True, True), (False, True), (True, False), (False, False)]


# ---------------------------------------------------------------------------
# treelstm_levels
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("use_bias,operator_inputs", CELLS)
@pytest.mark.parametrize("trees", [SHARED_TREES, ALL_LEAVES],
                         ids=["shared-subtrees", "all-leaves"])
@pytest.mark.parametrize("share", [True, False])
def test_tree_levels_gradients_match_finite_differences(trees, share, use_bias,
                                                       operator_inputs):
    p, embeds = tree_setup(61, use_bias, operator_inputs)
    schedule = enc.build_level_schedule(trees, share=share)
    if share and trees is SHARED_TREES:
        assert len(set(schedule.roots)) < len(trees)
    weights = Tensor(np.random.default_rng(62).standard_normal((len(trees), 3)))

    def loss():
        h = enc.treelstm_levels(schedule, level_inputs(schedule, embeds), p)
        return (h * weights).sum() + (h * h).sum()

    for name, t in {**p.params(), **embeds.params()}.items():
        assert check_gradient(lambda _t: loss(), t) < 1e-6, name


@pytest.mark.parametrize("use_bias,operator_inputs", CELLS)
def test_tree_levels_equal_composed_levels_bitwise(use_bias, operator_inputs):
    p, embeds = tree_setup(63, use_bias, operator_inputs, hidden=6, d_in=4)
    pyrng = random.Random(64)
    trees = [random_tree(pyrng, pyrng.randint(0, 5)) for _ in range(30)]
    schedule = enc.build_level_schedule(trees, share=False)
    tensors = [*p.weights.values(), embeds.table]
    fused = run_and_grad(
        lambda: [enc.treelstm_levels(schedule, level_inputs(schedule, embeds), p)],
        tensors)
    composed = run_and_grad(
        lambda: [composed_levels(schedule, level_inputs(schedule, embeds), p)],
        tensors)
    np.testing.assert_array_equal(fused[0][0], composed[0][0])
    for t, g_fused, g_composed in zip(tensors, fused[1], composed[1]):
        np.testing.assert_array_equal(g_fused, g_composed, err_msg=t.name)


def assert_same_bits(a, b, what):
    if a is None or b is None:
        assert a is b, what
        return
    np.testing.assert_array_equal(a, b, err_msg=what)
    assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), what


def tree_pass(schedule, p, inputs):
    """A function running one taped ``treelstm_levels`` pass, for
    ``run_and_grad``'s root values and the gradients of every weight and
    input tensor."""
    tensors = [*p.weights.values(), *(x for xs in inputs for x in xs)]
    return lambda: run_and_grad(
        lambda: [enc.treelstm_levels(schedule, inputs, p)], tensors)


def assert_same_passes(a, b):
    assert_same_bits(a[0][0], b[0][0], "roots")
    for k, (g_a, g_b) in enumerate(zip(a[1], b[1], strict=True)):
        assert_same_bits(g_a, g_b, f"gradient {k}")


def tree_levels_both_ways(weight_grads, schedule, p, inputs):
    """``tree_pass`` with the weight gradients on the helper and inline;
    asserts that both give the same bits."""
    on, off = weight_grads.both_ways(tree_pass(schedule, p, inputs))
    assert_same_passes(on, off)
    return on


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("use_bias,operator_inputs", CELLS)
@pytest.mark.parametrize("share", [True, False])
def test_tree_levels_hand_off_equals_inline(weight_grads, share, use_bias,
                                           operator_inputs, dtype):
    ad.set_default_dtype(dtype)
    try:
        p, embeds = tree_setup(65, use_bias, operator_inputs, hidden=8, d_in=4)
        pyrng = random.Random(66)
        trees = [random_tree(pyrng, pyrng.randint(0, 6)) for _ in range(40)]
        schedule = enc.build_level_schedule(trees, share=share)
        (roots,), _ = tree_levels_both_ways(
            weight_grads, schedule, p, level_inputs(schedule, embeds))
    finally:
        ad.set_default_dtype(np.float64)
    assert roots.dtype == dtype


class JobError(Exception):
    pass


def test_a_failing_job_raises_from_backward_with_its_own_type(weight_grads,
                                                               monkeypatch):
    p, embeds = tree_setup(67, hidden=8, d_in=4)
    pyrng = random.Random(68)
    trees = [random_tree(pyrng, pyrng.randint(0, 5)) for _ in range(20)]
    schedule = enc.build_level_schedule(trees, share=True)
    run = tree_pass(schedule, p, level_inputs(schedule, embeds))
    weight_grads.use(True)
    before = run()
    matmul = np.matmul

    def failing(*args, **kwargs):  # a product that fails on the helper only
        if threading.current_thread().name.startswith("test-grads"):
            raise JobError("a weight-gradient product failed")
        return matmul(*args, **kwargs)

    monkeypatch.setattr(np, "matmul", failing)
    with pytest.raises(JobError):
        run()
    monkeypatch.setattr(np, "matmul", matmul)
    assert_same_passes(before, run())


class ScatterError(Exception):
    pass


def test_a_pass_that_fails_waits_for_its_jobs(weight_grads, monkeypatch):
    p, embeds = tree_setup(69, hidden=8, d_in=4)
    schedule = enc.build_level_schedule(SHARED_TREES, share=True)
    inputs = level_inputs(schedule, embeds)
    log = []
    weight_grads.use(True)
    recording = enc._weight_grads

    def slow(*args):  # each job outlasts the main thread's work by far
        log.append("start")
        time.sleep(0.05)
        recording(*args)
        log.append("end")

    scatters = []
    add_rows = enc._add_rows

    def failing_scatter(*args):  # the top level's first scatter fails
        scatters.append(1)
        if len(scatters) == 2:
            raise ScatterError("a scatter failed")
        return add_rows(*args)

    monkeypatch.setattr(enc, "_weight_grads", slow)
    monkeypatch.setattr(enc, "_add_rows", failing_scatter)
    tp = Tape()
    with tp:
        loss = enc.treelstm_levels(schedule, inputs, p).sum()
    with pytest.raises(ScatterError):
        tp.backward(loss)
    assert log == ["start", "end"]  # the top level's job, finished
    time.sleep(0.1)
    assert log == ["start", "end"]  # and no later job


# ---------------------------------------------------------------------------
# lstm_layer
# ---------------------------------------------------------------------------

def lstm_setup(seed, lengths, d_in=2, hidden=3):
    rng = np.random.default_rng(seed)
    p = enc.LstmParams.init(hidden, d_in, rng)
    n, steps = len(lengths), max(lengths)
    x = Tensor(rng.standard_normal((n, steps, d_in)))
    state = (Tensor(rng.standard_normal((n, hidden))),
             Tensor(rng.standard_normal((n, hidden))))
    return p, x, state, np.array(lengths)


def padding_mask(lengths, steps):
    """The (n, T, 1) mask of the real positions of end-padded rows."""
    return (np.arange(steps) < np.asarray(lengths)[:, None])[:, :, None] * 1.0


def test_lstm_layer_gradients_match_finite_differences():
    # unsorted lengths with ties and length 1, sorted and restored around
    # the layer as ``lstm_batch_forward`` does, with a carried state
    p, x, state, lengths = lstm_setup(71, [2, 4, 1, 4, 1])
    order = np.argsort(-lengths, kind="stable")
    restore = np.argsort(order)

    def outputs():
        outs, (h, c) = enc.lstm_layer(
            ad.permute(x, order), p, 0,
            (ad.permute(state[0], order), ad.permute(state[1], order)),
            lengths[order])
        return [ad.permute(o, restore) for o in (outs, h, c)]

    coefs = [Tensor(np.random.default_rng(72 + k).standard_normal(o.data.shape))
             for k, o in enumerate(outputs())]

    def loss():
        terms = [(o * w).sum() for o, w in zip(outputs(), coefs)]
        return terms[0] + terms[1] + terms[2] + (terms[2] * terms[1])

    for t in [x, *state, *p.weights.values()]:
        assert check_gradient(lambda _t: loss(), t) < 1e-6, t.name


def run_layer_and_oracle(oracle, carried, lengths):
    p, x, state, lengths = lstm_setup(73, lengths, d_in=3, hidden=4)
    n, steps, _ = x.data.shape
    zeros = (Tensor(np.zeros((n, 4))), Tensor(np.zeros((n, 4))))
    tensors = [x, *p.weights.values()] + (list(state) if carried else [])

    def fused():
        outs, (h, c) = enc.lstm_layer(x, p, 0, state if carried else None,
                                      lengths)
        return [outs, h, c]

    def composed():
        outs, h, c = oracle(x, p, 0, state if carried else zeros, lengths)
        return [ad.concat([ad.reshape(o, (n, 1, 4)) for o in outs], axis=1), h, c]

    return run_and_grad(fused, tensors), run_and_grad(composed, tensors), tensors


@pytest.mark.parametrize("carried", [True, False])
def test_lstm_layer_equals_cell_loop_bitwise(carried):
    # ties, length 1 and steps at which every row still runs
    (f_vals, f_grads), (c_vals, c_grads), tensors = run_layer_and_oracle(
        packed_layer, carried, [5, 5, 3, 3, 2, 1, 1])
    for a, b in zip(f_vals, c_vals):
        np.testing.assert_array_equal(a, b)
    for t, a, b in zip(tensors, f_grads, c_grads):
        np.testing.assert_array_equal(a, b, err_msg=t.name)


@pytest.mark.parametrize("carried", [True, False])
def test_lstm_layer_equals_padded_mask_loop(carried):
    # the padded program runs every row at every step; products over fewer
    # rows may round differently, so values agree to rounding only
    (f_vals, f_grads), (c_vals, c_grads), tensors = run_layer_and_oracle(
        lambda x, p, layer, state, lengths: composed_layer(
            x, p, layer, state, padding_mask(lengths, x.data.shape[1])),
        carried, [5, 5, 3, 3, 2, 1, 1])
    for a, b in zip(f_vals, c_vals):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)
    for t, a, b in zip(tensors, f_grads, c_grads):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12, err_msg=t.name)


@pytest.mark.parametrize("lengths", [[1, 2, 2], [3, 1, 0], [2, 2, 2, 2], [2, 1, -1]],
                         ids=["increasing", "past-the-window", "wrong-count",
                              "negative"])
def test_lstm_layer_rejects_unsorted_or_invalid_lengths(lengths):
    p, x, _, _ = lstm_setup(75, [2, 2, 2])
    with pytest.raises(ContractError, match="non-increasing"):
        enc.lstm_layer(x, p, 0, lengths=np.array(lengths))


def test_stacked_batch_forward_equals_cell_loop_bitwise():
    # two layers, dropout and unsorted lengths: the mask is drawn over the
    # padded batch in the caller's order, the rows then run sorted by length,
    # and the layer-1 input is layer 0's handed-out outputs
    rng = np.random.default_rng(74)
    p = enc.LstmParams.init((5, 4), 3, rng)
    embeds = enc.VocabEmbeddings("abcdef", 3, rng)
    seqs = [list("abc"), list("b"), list("fcaed"), list("dab"), list("e")]
    tensors = [*p.weights.values(), embeds.table]

    def composed():
        ids_, lengths = enc._pad_ids(seqs, embeds, 1)
        n, steps = ids_.shape
        order = np.argsort(-lengths, kind="stable")
        x = ad.dropout(ad.rows(embeds.table, ids_.reshape(-1)), 0.2,
                       np.random.default_rng(5), True)
        x = ad.rows(ad.reshape(x, (n, steps, 3)), order)
        for layer, size in enumerate(p.sizes):
            zeros = (Tensor(np.zeros((n, size))), Tensor(np.zeros((n, size))))
            outs, h, _ = packed_layer(x, p, layer, zeros, lengths[order])
            x = ad.concat([ad.reshape(o, (n, 1, size)) for o in outs], axis=1)
        return [ad.rows(h, np.argsort(order))]

    fused = run_and_grad(lambda: [enc.lstm_batch_forward(
        seqs, embeds, p, 0.2, np.random.default_rng(5), True)], tensors)
    oracle = run_and_grad(composed, tensors)
    np.testing.assert_array_equal(fused[0][0], oracle[0][0])
    for t, a, b in zip(tensors, fused[1], oracle[1]):
        np.testing.assert_array_equal(a, b, err_msg=t.name)


def test_lm_step_equals_cell_steps_bitwise():
    # as in an LM window, each step's output is used (dropped out) before
    # the next step reads the carried state
    model = lm.build_lm(LmConfig(layer_sizes=(4, 3), embed_dim=3, seed=5),
                        list("abc"))
    core = model.core
    xs = [Tensor(np.random.default_rng(80 + t).standard_normal((2, 3)))
          for t in range(3)]
    tensors = list(core.params().values())

    def stepped():
        state = core.zero_state(2)
        outs = []
        for x in xs:
            out, state = core.step(x, state, 0.3, np.random.default_rng(1), True)
            outs.append(ad.dropout(out, 0.25, np.random.default_rng(2), True))
        return outs

    def cells():
        state = core.zero_state(2)
        outs = []
        for x in xs:
            inp, new, drop_rng = x, [], np.random.default_rng(1)
            for layer, (h, c) in enumerate(state):
                h, c = enc.lstm_cell(inp, h, c, core, layer)
                new.append((h, c))
                inp = h if layer == 1 else ad.dropout(h, 0.3, drop_rng, True)
            state = new
            outs.append(ad.dropout(inp, 0.25, np.random.default_rng(2), True))
        return outs

    (a_vals, a_grads), (b_vals, b_grads) = (run_and_grad(stepped, tensors),
                                            run_and_grad(cells, tensors))
    for a, b in zip(a_vals, b_vals):
        np.testing.assert_array_equal(a, b)
    for t, a, b in zip(tensors, a_grads, b_grads):
        np.testing.assert_array_equal(a, b, err_msg=t.name)


# ---------------------------------------------------------------------------
# lstm_layer's weight gradients on the helper
# ---------------------------------------------------------------------------

def layer_pass(lengths, carried, seed=76):
    """A function running one taped ``lstm_layer`` pass, for ``run_and_grad``'s
    outputs, final h and final c and the gradients of the input, every
    weight and the carried state. Unsorted ``lengths`` are sorted and
    restored around the layer, as ``lstm_batch_forward`` does; None runs
    every row at every step."""
    p, x, state, lengths_ = lstm_setup(seed, lengths or [4, 4, 4], d_in=3,
                                       hidden=5)
    order = np.argsort(-lengths_, kind="stable")
    restore = np.argsort(order)
    tensors = [x, *p.weights.values()] + (list(state) if carried else [])

    def build():
        carry = tuple(ad.permute(s, order) for s in state) if carried else None
        outs, (h, c) = enc.lstm_layer(ad.permute(x, order), p, 0, carry,
                                      None if lengths is None else lengths_[order])
        return [ad.permute(o, restore) for o in (outs, h, c)]

    return lambda: run_and_grad(build, tensors)


def assert_same_runs(a, b):
    for k, (v_a, v_b) in enumerate(zip(a[0], b[0], strict=True)):
        assert_same_bits(v_a, v_b, f"output {k}")
    for k, (g_a, g_b) in enumerate(zip(a[1], b[1], strict=True)):
        assert_same_bits(g_a, g_b, f"gradient {k}")


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("carried", [True, False])
@pytest.mark.parametrize("lengths", [[2, 4, 1, 4, 1, 3], None],
                         ids=["unsorted-ties-length-1", "full"])
def test_lstm_layer_hand_off_equals_inline(weight_grads, lengths, carried,
                                           dtype):
    ad.set_default_dtype(dtype)
    try:
        on, off = weight_grads.both_ways(layer_pass(lengths, carried))
    finally:
        ad.set_default_dtype(np.float64)
    assert_same_runs(on, off)
    assert on[0][0].dtype == dtype
    assert all(g is not None and g.dtype == dtype for g in on[1])


def test_sequence_encoders_hand_off_equals_inline(weight_grads):
    # two stacked layers with dropout and unsorted lengths, both directions
    # of a biLSTM, and an LM window of carried one-step windows
    rng = np.random.default_rng(77)
    stacked = enc.LstmParams.init((5, 4), 3, rng)
    bi = enc.BiLstmParams.init(4, 3, rng)
    embeds = enc.VocabEmbeddings("abcdef", 3, rng)
    seqs = [list("abc"), list("b"), list("fcaed"), list("dab"), list("e"),
            list("ab")]
    core = lm.build_lm(LmConfig(layer_sizes=(4, 3), embed_dim=3, seed=5),
                       list("abc")).core
    xs = [Tensor(np.random.default_rng(78 + t).standard_normal((2, 3)))
          for t in range(3)]

    def window():
        state, outs = core.zero_state(2), []
        for x in xs:
            out, state = core.step(x, state, 0.3, np.random.default_rng(1), True)
            outs.append(out)
        return outs + [h for pair in state for h in pair]

    for build, tensors in (
            (lambda: [enc.lstm_batch_forward(seqs, embeds, stacked, 0.2,
                                             np.random.default_rng(5), True)],
             [*stacked.weights.values(), embeds.table]),
            (lambda: [enc.bilstm_batch_forward(seqs, embeds, bi, 0.2,
                                               np.random.default_rng(6), True)],
             [*bi.params().values(), embeds.table]),
            (window, [*core.params().values(), *xs])):
        on, off = weight_grads.both_ways(lambda: run_and_grad(build, tensors))
        assert_same_runs(on, off)


@pytest.mark.parametrize("layers", [1, 2])
def test_bilstm_directions_on_two_threads_equal_inline(
        weight_grads, monkeypatch, corpus, rule_table, layers):
    # with the helper forced, the first window of each layer waits for the
    # other, so the layer's two windows run one on each thread, taped and
    # untaped; each window's steps run on one thread, and the loss, the
    # gradients and the untaped embeddings are the inline run's bits
    from logotree import pron
    from logotree.config import RunConfig
    entries = corpus[:40]
    model = pron.build_model(
        RunConfig(encoder="bilstm", layers=layers, hidden=6, d_in=4,
                  dropout=0.2, seed=87),
        pron.Inventories.from_entries(entries), sorted(rule_table.leaf_set))
    inputs = pron.encode_inputs(model, [e.ch for e in entries], rule_table)
    params = list(model.params().values())
    kernel, window, ran = enc._cell_gates, enc._lstm_window, []
    meet = threading.Barrier(2)

    def spy(w, layout, terms, *args):  # a step: its window and thread
        side = "forward" if w is model.encoder.forward.packed else "reverse"
        ran.append(((side, terms[0][0]), threading.current_thread().name))
        return kernel(w, layout, terms, *args)

    def met(*args):  # with the helper, a layer's windows start together
        if enc._helper:
            meet.wait(10)
        return window(*args)

    def run():
        ran.clear()
        with Tape() as tape:
            h = pron.forward_batch(model, inputs, np.random.default_rng(88), True)
            loss = pron.pron_loss(pron.predict_pron(h, model.head), entries,
                                  model.inventories)
        ad.zero_grads(params)
        tape.backward(loss)
        taped_ran = list(ran)
        ran.clear()
        rows = pron.embed_rows(model, inputs)
        return loss.data, [t.grad for t in params], rows, taped_ran, list(ran)

    monkeypatch.setattr(enc, "_cell_gates", spy)
    monkeypatch.setattr(enc, "_lstm_window", met)
    on, off = weight_grads.both_ways(run)
    main = threading.current_thread().name
    for ran_, helper in ((on[3], True), (on[4], True), (off[3], False),
                         (off[4], False)):
        assert len(ran_) == 2 * layers * max(map(len, inputs))  # every step
        threads: dict = {}
        for window_, name in ran_:
            threads.setdefault(window_, set()).add(
                "main" if name == main else "helper" if name.startswith("test-grads")
                else name)
        assert len(threads) == 2 * layers
        assert all(len(names) == 1 for names in threads.values())  # one thread each
        for layer in range(layers):
            pair = sorted(threads[side, f"L{layer}.Wx"].pop()
                          for side in ("forward", "reverse"))
            assert pair == (["helper", "main"] if helper else ["main", "main"])
    assert_same_bits(on[0], off[0], "loss")
    for t, g_on, g_off in zip(params, on[1], off[1], strict=True):
        assert_same_bits(g_on, g_off, t.name)
    assert_same_bits(on[2], off[2], "embed_rows")


class WindowError(Exception):
    pass


@pytest.mark.parametrize("failing", ["forward", "reverse"])
def test_a_failing_bilstm_window_ends_the_pass_with_its_own_type(
        weight_grads, monkeypatch, failing):
    # the two windows start together, one on each thread: the failing
    # direction's raises while the other's is in flight, which ends before
    # the pass raises, and nothing runs on after the pass returns
    rng = np.random.default_rng(89)
    p = enc.BiLstmParams.init(4, 3, rng)
    embeds = enc.VocabEmbeddings("abcdef", 3, rng)
    weight_grads.use(True)
    log, threads, meet = [], set(), threading.Barrier(2)
    window = enc._lstm_window

    def failing_window(x, q, *args):  # a window's start, and its end once it ran
        side = "forward" if q is p.forward else "reverse"
        threads.add(threading.current_thread().name)
        log.append(("start", side))
        try:
            meet.wait(10)
            if side == failing:
                log.append(("raise", side))
                raise WindowError("a window failed")
            time.sleep(0.05)
            return window(x, q, *args)
        finally:
            log.append(("end", side))

    monkeypatch.setattr(enc, "_lstm_window", failing_window)
    with pytest.raises(WindowError):
        enc.bilstm_batch_forward([list("abc"), list("de")], embeds, p)
    returned = list(log)
    assert sorted(returned) == [("end", "forward"), ("end", "reverse"), ("raise", failing),
                                ("start", "forward"), ("start", "reverse")]
    assert len(threads) == 2
    time.sleep(0.2)
    assert log == returned  # nothing ran on after the pass returned


def helper_passes() -> tuple:
    """A shared untaped forest pass whose every level has two or more
    chunks, a taped ``lstm_layer`` reverse pass and a two-layer biLSTM
    forward with its reverse pass: each hands work to the helper when it
    has one."""
    leaves = [Leaf(chr(0x4E00 + k)) for k in range(300)]
    trees = [Op("⿰", leaves[k], leaves[(k + 1) % 300]) for k in range(300)]
    schedule = enc.build_level_schedule(trees, share=True)
    assert all(len(enc._chunks(span, enc._FOREST_ROWS)) >= 2
               for span in schedule.levels)
    rng = np.random.default_rng(90)
    p = enc.TreeLstmParams.init(8, 4, rng)
    embeds = enc.VocabEmbeddings([leaf.token for leaf in leaves], 4, rng)
    bi = enc.BiLstmParams.init(4, 3, rng, layers=2)
    chars = enc.VocabEmbeddings("abcdef", 3, rng)
    seqs = [list("abc"), list("fcaed"), list("b"), list("dab")]

    def bilstm():
        return [enc.bilstm_batch_forward(seqs, chars, bi, 0.2,
                                         np.random.default_rng(92), True)]

    return (lambda: enc.treelstm_batch_forward(trees, embeds, p).data,
            layer_pass([6, 5, 5, 2], True, seed=91),
            lambda: run_and_grad(bilstm, [*bi.params().values(), chars.table]))


def run_passes_on_a_helper(out) -> None:
    """Submits each of ``helper_passes`` to a helper of this process's own
    that takes every job, as ``weight_grads.use(True)`` forces it, and
    pickles their results into ``out``."""
    from concurrent.futures import ThreadPoolExecutor
    helper = ThreadPoolExecutor(1, thread_name_prefix="test-grads")
    enc._helper, enc._HAND_OFF = helper, 0
    jobs = [helper.submit(run) for run in helper_passes()]
    pickle.dump([job.result() for job in jobs], out)


def test_passes_started_on_the_helper_run_inline(weight_grads):
    # a pass that handed work to the helper from the helper's own thread and
    # then waited for it would never end: there, a shared untaped forest
    # pass, a taped LSTM reverse pass and a biLSTM forward and reverse pass
    # run inline, with the inline bits.
    # The helper runs them in a child process, so that a pass that waits
    # on itself ends with the child and not with a hung test run
    weight_grads.use(False)
    inline = [run() for run in helper_passes()]
    child = subprocess.run(
        [sys.executable, "-c", "import sys, test_fused; "
         "test_fused.run_passes_on_a_helper(sys.stdout.buffer)"],
        capture_output=True, timeout=60,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert child.returncode == 0, child.stderr.decode()
    on_helper = pickle.loads(child.stdout)
    assert_same_bits(on_helper[0], inline[0], "forest rows")
    assert_same_runs(on_helper[1], inline[1])
    assert_same_runs(on_helper[2], inline[2])


def test_a_failing_lstm_job_raises_from_backward_with_its_own_type(
        weight_grads, monkeypatch):
    run = layer_pass([3, 1, 3, 2], True, seed=79)
    weight_grads.use(True)
    before = run()
    matmul = np.matmul

    def failing(*args, **kwargs):  # a product that fails on the helper only
        if threading.current_thread().name.startswith("test-grads"):
            raise JobError("a weight-gradient product failed")
        return matmul(*args, **kwargs)

    monkeypatch.setattr(np, "matmul", failing)
    with pytest.raises(JobError):
        run()
    monkeypatch.setattr(np, "matmul", matmul)
    assert_same_runs(before, run())


@pytest.mark.parametrize("kernel", ["tree", "lstm"])
def test_the_helper_lags_at_most_two_jobs_behind(weight_grads, monkeypatch,
                                                  kernel):
    # job k is handed off only once job k-2 has ended, so at most two jobs'
    # operands wait on the helper however far its work lags
    if kernel == "tree":
        p, embeds = tree_setup(80, hidden=4, d_in=3)
        pyrng = random.Random(81)
        trees = [random_tree(pyrng, 5) for _ in range(8)]
        schedule = enc.build_level_schedule(trees, share=False)
        run = tree_pass(schedule, p, level_inputs(schedule, embeds))
    else:
        run = layer_pass([6, 5, 5, 2], False, seed=82)
    weight_grads.use(True)
    ended = []
    recording = enc._weight_grads

    def slow(*args):  # each job outlasts the main thread's work by far
        time.sleep(0.02)
        recording(*args)
        ended.append(1)

    helper, ended_at_submit = enc._helper, []
    submit = helper.submit

    def counting(job):
        ended_at_submit.append(len(ended))
        return submit(job)

    monkeypatch.setattr(enc, "_weight_grads", slow)
    monkeypatch.setattr(helper, "submit", counting)
    expected = run()
    assert len(ended_at_submit) == len(ended) >= 4
    assert all(done >= k - 1 for k, done in enumerate(ended_at_submit))
    assert any(done < k for k, done in enumerate(ended_at_submit))  # it lagged
    monkeypatch.setattr(enc, "_weight_grads", recording)
    weight_grads.use(False)
    assert_same_runs(expected, run())


# ---------------------------------------------------------------------------
# tape entries and gradient layout
# ---------------------------------------------------------------------------

def test_tree_batch_records_its_lookups_and_one_cell_entry():
    # each level records its input lookups (one at the leaves, three
    # above) and the whole cell is one entry, however many levels there are
    p, embeds = tree_setup(81)
    for depth in (2, 4):
        tree = Leaf("a")
        for _ in range(depth):
            tree = Op("⿰", tree, Leaf("b"))
        trees = [tree, Op("⿱", Leaf("c"), Leaf("d"))]
        tp = Tape()
        with tp:
            enc.treelstm_batch_forward(trees, embeds, p)
        levels = depth + 1
        assert len(enc.build_level_schedule(trees).levels) == levels
        assert len(tp) == 1 + 3 * (levels - 1) + 1
    assert levels == 5


@pytest.mark.parametrize("length", [2, 9])
def test_lstm_batch_records_a_fixed_number_of_entries(length):
    # the embedding gather, its reshape and the sort by length, then per
    # layer the fused entry and its three handed-out outputs, then the final
    # h put back in the caller's order, for any sequence length
    rng = np.random.default_rng(82)
    p = enc.LstmParams.init(4, 3, rng, layers=2)
    embeds = enc.VocabEmbeddings("abcdef", 3, rng)
    tp = Tape()
    with tp:
        enc.lstm_batch_forward([list("abcdefabc"[:length]), list("ab")], embeds, p)
    assert len(tp) == 3 + 2 * 4 + 1


def test_tree_and_lstm_weight_gradients_are_c_ordered():
    # Adam updates C-ordered gradients faster than the transposed views a
    # composed ``x @ W.T`` hands back
    rng = np.random.default_rng(83)
    embeds = enc.VocabEmbeddings("abcdef", 3, rng)
    tree = enc.TreeLstmParams.init(4, 3, rng)
    seq = enc.BiLstmParams.init(4, 3, rng, layers=2)
    trees = [random_tree(random.Random(84), 4) for _ in range(6)]
    seqs = [list("abc"), list("fedcb")]
    drop = np.random.default_rng(85)
    tp = Tape()
    with tp:
        h_tree = enc.treelstm_batch_forward(trees, embeds, tree, 0.1, drop, True)
        h_seq = enc.bilstm_batch_forward(seqs, embeds, seq, 0.1, drop, True)
        loss = (h_tree * h_tree).sum() + (h_seq * h_seq).sum()
    params = {**tree.params(), **seq.params()}
    ad.zero_grads(params.values())
    tp.backward(loss)
    for name, t in params.items():
        assert t.grad.flags.c_contiguous, name


def test_fused_primitives_keep_float32():
    ad.set_default_dtype(np.float32)
    try:
        rng = np.random.default_rng(86)
        embeds = enc.VocabEmbeddings("abcdef", 3, rng)
        tree = enc.TreeLstmParams.init(4, 3, rng)
        seq = enc.LstmParams.init(4, 3, rng, layers=2)
        tp = Tape()
        with tp:
            h_tree = enc.treelstm_batch_forward(SHARED_TREES, embeds, tree)
            h_seq = enc.lstm_batch_forward([list("abc"), list("d")], embeds, seq)
            loss = (h_tree * h_tree).sum() + (h_seq * h_seq).sum()
        tp.backward(loss)
        assert h_tree.data.dtype == h_seq.data.dtype == np.float32
        for t in [*tree.params().values(), *seq.params().values()]:
            assert t.grad.dtype == np.float32, t.name
    finally:
        ad.set_default_dtype(np.float64)


# ---------------------------------------------------------------------------
# gate-major weights and the grouping by row count
# ---------------------------------------------------------------------------

def assert_packed(p):
    """Every gate tensor of a tree cell, an LSTM, a biLSTM or a stacked LM
    core shares memory with its kind's packed buffer, in that buffer's
    dtype, and equals its row block."""
    for core in [p.forward, p.backward] if isinstance(p, enc.BiLstmParams) else [p]:
        tree = isinstance(core, enc.TreeLstmParams)
        gates = enc.GATES if tree else enc.LSTM_GATES
        assert len(core.weights) == len(gates) * len(core.packed)
        for key, t in core.weights.items():
            kind, g = key.rsplit("_", 1)
            buf = core.packed[kind]
            size = core.hidden if tree else core.sizes[int(kind[1:kind.index(".")])]
            assert buf.shape[0] == len(gates) * size, kind
            j = gates.index(g) * size
            assert np.shares_memory(t.data, buf), key
            assert t.data.dtype == buf.dtype
            np.testing.assert_array_equal(t.data, buf[j:j + size])


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_init_packs_each_layer_gate_major(dtype):
    ad.set_default_dtype(dtype)
    try:
        p = enc.LstmParams.init((5, 4), 3, np.random.default_rng(90))
    finally:
        ad.set_default_dtype(np.float64)
    assert_packed(p)
    assert p.packed["L1.Wx"].shape == (16, 5) and p.packed["L1.Wx"].dtype == dtype
    # the draws keep their order: the same weights as per-gate draws
    rng = np.random.default_rng(90)
    for layer, (size, ind) in enumerate([(5, 3), (4, 5)]):
        for g in enc.LSTM_GATES:
            for key, cols in (("Wx", ind), ("Wh", size)):
                want = enc._weight(rng, size, cols, None).data.astype(dtype)
                np.testing.assert_array_equal(
                    p.weights[f"L{layer}.{key}_{g}"].data, want)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_tree_init_packs_gate_major(dtype):
    ad.set_default_dtype(dtype)
    try:
        p = enc.TreeLstmParams.init(5, 3, np.random.default_rng(94))
        bare = enc.TreeLstmParams.init(5, 3, np.random.default_rng(94),
                                       use_bias=False)
    finally:
        ad.set_default_dtype(np.float64)
    assert_packed(p)
    assert_packed(bare)
    assert p.packed["Ul"].shape == (25, 5) and p.packed["Ul"].dtype == dtype
    assert p.packed["Vr"].shape == (25, 3) and p.packed["b"].shape == (25,)
    assert "b" not in bare.packed
    # tensor names and their order stay those of the per-gate draws, and so
    # do the weights
    kinds = ("Ul", "Ur", "V", "Vl", "Vr")
    assert list(p.params()) == [f"tree.{key}_{g}" for g in enc.GATES
                                for key in (*kinds, "b")]
    rng = np.random.default_rng(94)
    for g in enc.GATES:
        for key in kinds:
            want = enc._weight(rng, 5, 5 if key[0] == "U" else 3, None).data
            np.testing.assert_array_equal(p.weights[f"{key}_{g}"].data,
                                          want.astype(dtype))
            np.testing.assert_array_equal(bare.weights[f"{key}_{g}"].data,
                                          want.astype(dtype))


def test_packing_survives_training_and_loading(rule_table, corpus, tmp_path):
    from logotree import phono, pron
    from logotree.config import RunConfig
    split = phono.build_scenario(corpus, 1, seed=5, sizes=(64, 16, 16))
    for encoder, layers in (("lstm", 2), ("bilstm", 1), ("treelstm", 1)):
        config = RunConfig(encoder=encoder, layers=layers, hidden=6, d_in=4,
                           batch_size=32, epochs=2, learning_rate=3e-2,
                           dropout=0.1, seed=5)
        model, _ = pron.train(config, split, rule_table)
        assert_packed(model.encoder)
        path = tmp_path / f"{encoder}.ckpt"
        pron.save_model(path, model)
        assert_packed(pron.load_model(path).encoder)
    lines = ["河湖海江", "江海湖", "海河"] * 4
    for kind in ("standard", "hierarchical"):
        config = LmConfig(input_kind=kind, layer_sizes=(6, 5), embed_dim=4,
                          batch_size=2, bptt=4, epochs=2, learning_rate=3e-2,
                          seed=3)
        rules = rule_table if kind == "hierarchical" else None
        built = lm.build_lm(config, list("河湖"), rules)
        model, _ = lm.train_lm(config, lines, lines[:3], rules)
        path = tmp_path / f"lm-{kind}.ckpt"
        lm.save_lm(path, model)
        for m in (built, model, lm.load_lm(path, rules)):
            assert_packed(m.core)
            if kind == "hierarchical":
                assert_packed(m.tree)


def test_finite_differences_perturb_the_packed_buffer():
    # ``check_gradient`` writes each coordinate of the gate weight in place
    # and evaluates untaped, through the packed buffers: a stale copy there
    # would give a zero finite difference
    p, x, state, lengths = lstm_setup(91, [3, 2, 2])
    gate = p.weights["L0.Wh_o"]
    seen = []

    def loss(_t):
        assert_packed(p)
        seen.append(p.packed["L0.Wh"][6:9].copy())
        outs, (h, c) = enc.lstm_layer(x, p, 0, state, lengths)
        return (outs * outs).sum() + (c * h).sum()

    assert check_gradient(loss, gate) < 1e-6
    assert len({block.tobytes() for block in seen}) > 1


def untaped_taped_and_composed_layer(lengths, carried, dtype, hidden):
    """(untaped, taped, composed) triples of the outputs, the final h and
    the final c; the composed ones from the ``lstm_cell`` loop, untaped."""
    ad.set_default_dtype(dtype)
    try:
        p, x, state, lengths = lstm_setup(92, lengths, d_in=5, hidden=hidden)
        n = len(lengths)
        state = state if carried else None
        untaped = enc.lstm_layer(x, p, 0, state, lengths)
        with Tape():
            taped = enc.lstm_layer(x, p, 0, state, lengths)
        zeros = (Tensor(np.zeros((n, hidden))), Tensor(np.zeros((n, hidden))))
        outs, h, c = packed_layer(x, p, 0, state or zeros, lengths)
        composed = (ad.concat([ad.reshape(o, (n, 1, hidden)) for o in outs],
                              axis=1), h, c)
    finally:
        ad.set_default_dtype(np.float64)
    return [(a.data, b.data, c.data) for a, b, c in zip(
        (untaped[0], *untaped[1]), (taped[0], *taped[1]), composed)]


def drawn_lengths(n):
    return sorted(np.random.default_rng(92).integers(1, 12, size=n).tolist(),
                  reverse=True)


@pytest.mark.parametrize("dtype,atol", [(np.float64, 1e-12), (np.float32, 1e-6)])
@pytest.mark.parametrize("carried", [True, False])
@pytest.mark.parametrize("lengths,hidden", [([5, 5, 3, 3, 2, 1, 1], 7), ([1], 7),
                                            ([4, 4], 7), (drawn_lengths(7), 64),
                                            (drawn_lengths(45), 64)],
                         ids=["ragged", "length-1", "full", "ragged-7x64",
                              "ragged-45x64"])
def test_untaped_layer_equals_taped_layer(lengths, hidden, carried, dtype, atol):
    # a step groups its products by its row count alone, with or without a
    # tape, so inference repeats the training forward bit for bit; the
    # packed product of a single row may round differently from per-gate
    # products (one ulp in float32), so the cell loop agrees to ``atol``
    for a, b, c in untaped_taped_and_composed_layer(lengths, carried, dtype,
                                                    hidden):
        assert a.dtype == b.dtype == dtype
        np.testing.assert_array_equal(a, b)
        np.testing.assert_allclose(a, c, rtol=0, atol=atol)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("share", [True, False])
def test_untaped_tree_levels_equal_taped_levels(weight_grads, share, dtype):
    ad.set_default_dtype(dtype)
    try:
        p, embeds = tree_setup(95, hidden=64, d_in=16)
        pyrng = random.Random(96)
        trees = [random_tree(pyrng, pyrng.randint(0, 6)) for _ in range(40)]
        schedule = enc.build_level_schedule(trees, share=share)
        untaped = enc.treelstm_levels(schedule, level_inputs(schedule, embeds), p)
        with Tape():
            taped = enc.treelstm_levels(schedule, level_inputs(schedule, embeds), p)
        # and the reverse pass of the taped one: the same bits whether the
        # weight gradients run on the helper or inline
        tree_levels_both_ways(weight_grads, schedule, p,
                              level_inputs(schedule, embeds))
    finally:
        ad.set_default_dtype(np.float64)
    # the top levels hold a single row, the lower ones many
    assert {len(span) == 1 for span in schedule.levels} == {True, False}
    assert untaped.data.dtype == taped.data.dtype == dtype
    np.testing.assert_array_equal(untaped.data, taped.data)


def expected_logistics(rows_per_call, sigmoid_gates, layout_sigmoids, hidden):
    """One logistic over every sigmoid gate of the layout for a single row,
    else one per sigmoid gate read."""
    calls = []
    for n in rows_per_call:
        calls += ([(1, layout_sigmoids * hidden)] if n == 1
                  else [(n, hidden)] * sigmoid_gates)
    return calls


@pytest.mark.parametrize("taped", [False, True])
def test_grouping_follows_the_row_count(monkeypatch, taped):
    calls = []
    logistic = ad.logistic

    def counting(x, *args, **kwargs):
        calls.append(x.shape)
        return logistic(x, *args, **kwargs)

    monkeypatch.setattr(ad, "logistic", counting)
    # an LSTM step: 3 rows, 2 rows for three steps, 1 row for two
    p, x, state, lengths = lstm_setup(93, [6, 4, 1], d_in=3, hidden=4)
    with Tape() if taped else contextlib.nullcontext():
        enc.lstm_layer(x, p, 0, state, lengths)
    assert calls == expected_logistics([3, 2, 2, 2, 1, 1], 3, 3, 4)
    # tree levels: 5 leaves, 2 inner nodes, 1 root; then a shared leaf and
    # its parent, one row each
    p, embeds = tree_setup(97, hidden=4)
    for trees, rows_ in ((
            [Op("⿰", Op("⿱", Leaf("a"), Leaf("b")), Leaf("c")),
             Op("⿱", Leaf("d"), Leaf("e"))], [5, 2, 1]),
            ([Op("⿰", Leaf("a"), Leaf("a"))], [1, 1])):
        calls.clear()
        with Tape() if taped else contextlib.nullcontext():
            enc.treelstm_batch_forward(trees, embeds, p)
        leaves, *inner = rows_
        assert calls == (expected_logistics([leaves], 2, 4, 4)
                         + expected_logistics(inner, 4, 4, 4))
