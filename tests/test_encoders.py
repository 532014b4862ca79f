import contextlib
import math
import random
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logotree import autodiff as ad
from logotree import encoders as enc
from logotree.autodiff import Tape, Tensor, check_gradient
from logotree.encoders import (BiLstmParams, CnnParams, LstmParams, TreeLstmParams,
                               VocabEmbeddings, bilstm_batch_forward, build_level_schedule,
                               cnn_batch_forward, cnn_pooled, lstm_batch_forward,
                               treelstm_batch_forward, treelstm_forward, treelstm_node)
from logotree.errors import ContractError
from logotree.ids import Leaf, Op
from oracles import all_slot_forest


def make_embeds(rng, d_in=4, tokens="abcdefgh"):
    return VocabEmbeddings(list(tokens), d_in, rng)


# ---------------------------------------------------------------------------
# scalar oracles (independent reimplementations, plain Python floats)
# ---------------------------------------------------------------------------

def _sig(v):
    return 1.0 / (1.0 + math.exp(-v))


def _mv(M, v):
    return [sum(M[r][c] * v[c] for c in range(len(v))) for r in range(len(M))]


def scalar_treelstm_node(x_n, x_l, x_r, h_l, h_r, c_l, c_r, w, bias, inputs_on=True):
    """Element-by-element evaluation of the tree cell equations."""
    H = len(h_l)
    out_c, out_h = [], []
    acts = {}
    for g in ("i", "fl", "fr", "o", "c"):
        pre = _mv(w[f"Ul_{g}"], h_l)
        pre = [a + b for a, b in zip(pre, _mv(w[f"Ur_{g}"], h_r))]
        if inputs_on:
            for mat, vec in ((f"V_{g}", x_n), (f"Vl_{g}", x_l), (f"Vr_{g}", x_r)):
                pre = [a + b for a, b in zip(pre, _mv(w[mat], vec))]
        if bias:
            pre = [a + b for a, b in zip(pre, w[f"b_{g}"])]
        acts[g] = [math.tanh(v) if g == "c" else _sig(v) for v in pre]
    for k in range(H):
        c = (acts["i"][k] * acts["c"][k] + acts["fl"][k] * c_l[k]
             + acts["fr"][k] * c_r[k])
        out_c.append(c)
        out_h.append(acts["o"][k] * math.tanh(c))
    return out_c, out_h


def scalar_lstm(seq_vectors, w, H):
    """Plain-float recurrence for a single-layer cell."""
    h = [0.0] * H
    c = [0.0] * H
    for x in seq_vectors:
        gates = {}
        for g in ("i", "f", "o", "c"):
            pre = _mv(w[f"Wx_{g}"], x)
            pre = [a + b for a, b in zip(pre, _mv(w[f"Wh_{g}"], h))]
            pre = [a + b for a, b in zip(pre, w[f"b_{g}"])]
            gates[g] = [math.tanh(v) if g == "c" else _sig(v) for v in pre]
        c = [gates["f"][k] * c[k] + gates["i"][k] * gates["c"][k] for k in range(H)]
        h = [gates["o"][k] * math.tanh(c[k]) for k in range(H)]
    return h


# ---------------------------------------------------------------------------
# tree cell
# ---------------------------------------------------------------------------

def test_node_zero_child_cells_drop_forget_paths():
    rng = np.random.default_rng(0)
    p = TreeLstmParams.init(3, 2, rng)
    x = Tensor(rng.standard_normal((1, 2)))
    z2 = Tensor(np.zeros((1, 2)))
    h = Tensor(rng.standard_normal((1, 3)))
    z3 = Tensor(np.zeros((1, 3)))
    c_n, _, gates = treelstm_node(x, z2, z2, h, h, z3, z3, p, return_gates=True)
    # with c_l = c_r = 0 the cell reduces to i * candidate
    pre = enc._gate_preact(p, "c", x, z2, z2, h, h, True)
    expected = gates["i"].data * np.tanh(pre.data)
    np.testing.assert_allclose(c_n.data, expected, atol=1e-12)


def test_node_all_zero_weights_closed_form():
    rng = np.random.default_rng(1)
    p = TreeLstmParams.init(3, 2, rng, use_bias=False)
    for t in p.weights.values():
        t.data[:] = 0.0
    x = Tensor(rng.standard_normal((1, 2)))
    c_l = Tensor(rng.standard_normal((1, 3)))
    c_r = Tensor(rng.standard_normal((1, 3)))
    h = Tensor(rng.standard_normal((1, 3)))
    c_n, h_n = treelstm_node(x, x, x, h, h, c_l, c_r, p)
    np.testing.assert_allclose(c_n.data, 0.5 * (c_l.data + c_r.data), atol=1e-12)
    np.testing.assert_allclose(h_n.data, 0.5 * np.tanh(c_n.data), atol=1e-12)


@pytest.mark.parametrize("use_bias", [True, False])
def test_leaf_cell_equals_node_with_zero_children(use_bias):
    rng = np.random.default_rng(47)
    p = TreeLstmParams.init(5, 3, rng, use_bias=use_bias)
    for key, w in p.weights.items():
        if key.startswith("b_"):
            w.data[:] = rng.standard_normal(5)
    x = Tensor(rng.standard_normal((4, 3)))
    zx, zh = Tensor(np.zeros((4, 3))), Tensor(np.zeros((4, 5)))
    # level 0 of the fused primitive is the leaf cell; with every slot a
    # root its output is that level's h
    leaves = build_level_schedule([Leaf(t) for t in "abcd"])
    results = []
    for fused in (True, False):
        tp = Tape()
        with tp:
            if fused:
                h = enc.treelstm_levels(leaves, lambda lvl, rows: [x], p)
            else:
                h = treelstm_node(x, zx, zx, zh, zh, zh, zh, p)[1]
            loss = (h * h).sum()
        x.grad = None
        tp.backward(loss)
        results.append((h.data, x.grad))
    (h_leaf, g_leaf), (h_node, g_node) = results
    np.testing.assert_array_equal(h_leaf, h_node)
    np.testing.assert_array_equal(g_leaf, g_node)


@pytest.mark.parametrize("inputs_on", [True, False])
@pytest.mark.parametrize("bias", [True, False])
def test_node_matches_scalar_oracle(inputs_on, bias):
    rng = np.random.default_rng(2)
    H, D = 4, 4
    p = TreeLstmParams.init(H, D, rng, use_bias=bias)
    w = {k: t.data.tolist() for k, t in p.weights.items()}
    args = [rng.standard_normal((1, D)) for _ in range(3)]
    states = [rng.standard_normal((1, H)) for _ in range(4)]
    c_n, h_n = treelstm_node(*[Tensor(a) for a in args],
                             *[Tensor(s) for s in states], p,
                             inputs_on=inputs_on)
    oc, oh = scalar_treelstm_node(*[a[0].tolist() for a in args],
                                  *[s[0].tolist() for s in states],
                                  w, bias, inputs_on)
    np.testing.assert_allclose(c_n.data[0], oc, atol=1e-12)
    np.testing.assert_allclose(h_n.data[0], oh, atol=1e-12)


def test_node_shape_error():
    rng = np.random.default_rng(3)
    p = TreeLstmParams.init(3, 2, rng)
    bad = Tensor(np.zeros((1, 5)))
    good_h = Tensor(np.zeros((1, 3)))
    with pytest.raises(Exception):
        treelstm_node(bad, bad, bad, good_h, good_h, good_h, good_h, p)


# ---------------------------------------------------------------------------
# tree forward
# ---------------------------------------------------------------------------

def test_forward_single_leaf_equals_node():
    rng = np.random.default_rng(4)
    p = TreeLstmParams.init(3, 4, rng)
    embeds = make_embeds(rng)
    h_root, states = treelstm_forward(Leaf("a"), embeds, p)
    z2 = Tensor(np.zeros((1, 4)))
    z3 = Tensor(np.zeros((1, 3)))
    _, h_direct = treelstm_node(embeds.lookup(["a"]), z2, z2, z3, z3, z3, z3, p)
    np.testing.assert_array_equal(h_root.data, h_direct.data)
    assert len(states) == 1


def test_forward_evaluation_count_is_node_count():
    rng = np.random.default_rng(5)
    p = TreeLstmParams.init(3, 4, rng)
    embeds = make_embeds(rng)
    # 7-node tree: ⿱(a, ⿱(⿱(b, c), d))
    tree = Op("⿱", Leaf("a"), Op("⿱", Op("⿱", Leaf("b"), Leaf("c")), Leaf("d")))
    _, states = treelstm_forward(tree, embeds, p)
    assert len(states) == 7
    assert states[-1].is_leaf is False  # root evaluated last


def test_forward_mirrored_tree_differs():
    rng = np.random.default_rng(6)
    p = TreeLstmParams.init(4, 4, rng)
    embeds = make_embeds(rng)
    tree = Op("⿰", Leaf("a"), Leaf("b"))
    mirror = Op("⿰", Leaf("b"), Leaf("a"))
    h1, _ = treelstm_forward(tree, embeds, p)
    h2, _ = treelstm_forward(mirror, embeds, p)
    assert np.abs(h1.data - h2.data).max() > 1e-6


def test_forward_ablation_ignores_operator_labels():
    rng = np.random.default_rng(7)
    p = TreeLstmParams.init(4, 4, rng, operator_inputs=False)
    embeds = make_embeds(rng)
    t1 = Op("⿰", Leaf("a"), Op("⿱", Leaf("b"), Leaf("c")))
    t2 = Op("⿺", Leaf("a"), Op("⿴", Leaf("b"), Leaf("c")))
    h1, _ = treelstm_forward(t1, embeds, p)
    h2, _ = treelstm_forward(t2, embeds, p)
    np.testing.assert_array_equal(h1.data, h2.data)
    p.operator_inputs = True
    h3, _ = treelstm_forward(t1, embeds, p)
    h4, _ = treelstm_forward(t2, embeds, p)
    assert np.abs(h3.data - h4.data).max() > 1e-8


# ---------------------------------------------------------------------------
# level schedule + batched forward
# ---------------------------------------------------------------------------

def random_tree(rng, depth):
    if depth == 0 or rng.random() < 0.35:
        return Leaf(rng.choice("abcdefgh"))
    return Op(rng.choice("⿰⿱⿴⿵"), random_tree(rng, depth - 1),
              random_tree(rng, depth - 1))


def test_schedule_single_leaves():
    sched = build_level_schedule([Leaf("a"), Leaf("b"), Leaf("c")])
    assert len(sched.levels) == 1
    assert len(sched.levels[0]) == 3
    assert sched.roots == [0, 1, 2]


def test_schedule_full_depth2_tree():
    tree = Op("⿰", Op("⿱", Leaf("a"), Leaf("b")), Op("⿱", Leaf("c"), Leaf("d")))
    sched = build_level_schedule([tree])
    assert [len(lv) for lv in sched.levels] == [4, 2, 1]
    assert sched.roots == [6]


def test_schedule_slot_totals():
    from logotree.ids import node_count
    rng = random.Random(8)
    trees = [random_tree(rng, rng.randint(1, 6)) for _ in range(128)]
    sched = build_level_schedule(trees)
    assert sched.total_slots == sum(node_count(t) for t in trees)
    # every inner node's children live at strictly lower levels, hence at
    # strictly smaller slot ids
    for span in sched.levels[1:]:
        for kids in (sched.left[span], sched.right[span]):
            assert np.all((kids >= 0) & (kids < span.start))
    assert len(sched.levels[0]) >= 1
    assert np.all(sched.left[sched.levels[0]] == -1)
    assert np.all(sched.right[sched.levels[0]] == -1)


def _subtrees(tree, out: set) -> set:
    out.add(tree)
    if isinstance(tree, Op):
        _subtrees(tree.left, out)
        _subtrees(tree.right, out)
    return out


def test_shared_schedule_gives_duplicates_one_slot():
    t1 = Op("⿰", Leaf("a"), Op("⿱", Leaf("b"), Leaf("a")))
    t2 = Op("⿱", Op("⿱", Leaf("b"), Leaf("a")), Leaf("c"))
    # an equal tree built from separate objects shares too
    t1_copy = Op("⿰", Leaf("a"), Op("⿱", Leaf("b"), Leaf("a")))
    sched = build_level_schedule([t1, t2, t1_copy, Leaf("a"), t1],
                                 share=True)
    # a, b, c | ⿱(b,a) | t1, t2
    assert [len(lv) for lv in sched.levels] == [3, 1, 2]
    assert sched.roots[0] == sched.roots[2] == sched.roots[4]
    assert sched.roots[3] == 0  # the leaf "a" is the first leaf slot
    assert len(set(sched.roots)) == 3


def test_shared_schedule_has_one_slot_per_distinct_subtree():
    from logotree.ids import node_count
    rng = random.Random(8)
    trees = [random_tree(rng, rng.randint(1, 6)) for _ in range(128)]
    trees += trees[:16]  # repeated trees
    sched = build_level_schedule(trees, share=True)
    distinct = set()
    for t in trees:
        _subtrees(t, distinct)
    assert sched.total_slots == len(distinct)
    assert sched.total_slots < sum(node_count(t) for t in trees)
    # children still sit at smaller slot ids, and every slot is a distinct
    # (token, left, right) triple
    for span in sched.levels:
        assert np.all(sched.left[span] < span.start)
        assert np.all(sched.right[span] < span.start)
    seen = set(zip(sched.label, sched.left.tolist(), sched.right.tolist()))
    assert len(seen) == sched.total_slots
    assert sched.roots[128:] == sched.roots[:16]


def test_schedule_without_sharing_counts_every_occurrence():
    from logotree.ids import node_count
    rng = random.Random(8)
    trees = [random_tree(rng, rng.randint(1, 6)) for _ in range(64)] * 2
    sched = build_level_schedule(trees, share=False)
    assert sched.total_slots == sum(node_count(t) for t in trees)
    assert sched.roots == build_level_schedule(trees).roots
    assert len(set(sched.roots)) == len(trees)


def _oracle_schedule(trees, share):
    """Per level, the nodes in post-order of their first occurrence: a node
    is its structural value with ``share`` (equal subtrees are one node)
    and its (tree, path) position without. Returns labels, children and
    roots in slot ids, and the level sizes."""
    nodes = {}  # node -> (label, height, left node, right node), first seen first

    def visit(tree, pos):
        if isinstance(tree, Leaf):
            entry = (tree.token, 0, None, None)
        else:
            left, right = visit(tree.left, pos + "l"), visit(tree.right, pos + "r")
            entry = (tree.idc, 1 + max(nodes[left][1], nodes[right][1]),
                     left, right)
        node = tree if share else pos
        nodes.setdefault(node, entry)
        return node

    roots = [visit(t, f"{k}:") for k, t in enumerate(trees)]
    top = max(e[1] for e in nodes.values())
    levels = [[n for n, e in nodes.items() if e[1] == h] for h in range(top + 1)]
    slot = {n: k for k, n in enumerate(n for lv in levels for n in lv)}
    slots = [nodes[n] for lv in levels for n in lv]
    return ([e[0] for e in slots],
            [slot.get(e[2], -1) for e in slots],
            [slot.get(e[3], -1) for e in slots],
            [slot[n] for n in roots], [len(lv) for lv in levels])


def _rebuild(tree):
    if isinstance(tree, Leaf):
        return Leaf(tree.token)
    return Op(tree.idc, _rebuild(tree.left), _rebuild(tree.right))


_glyph_trees = st.recursive(
    st.builds(Leaf, st.sampled_from("abc")),
    lambda kids: st.builds(Op, st.sampled_from("⿰⿱"), kids, kids),
    max_leaves=10)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(_glyph_trees, min_size=1, max_size=8),
       st.lists(st.integers(0, 7), max_size=4))
def test_schedule_matches_recursive_oracle(trees, repeats):
    # repeated trees are the same objects; rebuilt ones are equal trees made
    # of separate objects, which must share slots too
    batch = trees + [trees[k % len(trees)] for k in repeats]
    batch += [_rebuild(t) for t in trees[::2]]
    for share in (False, True):
        sched = build_level_schedule(batch, share=share)
        label, left, right, roots, sizes = _oracle_schedule(batch, share)
        assert sched.label == label
        assert sched.left.tolist() == left
        assert sched.right.tolist() == right
        assert sched.roots == roots
        assert [len(lv) for lv in sched.levels] == sizes
        assert sched.total_slots == sum(sizes) and sched.shared == share


def test_shared_subtree_gradients_match_summed_sequential_gradients():
    # dropout 0 under a tape: shared slots receive the gradient of every
    # occurrence through the row gathers
    from logotree.ids import node_count
    rng = np.random.default_rng(31)
    p = TreeLstmParams.init(5, 4, rng)
    embeds = make_embeds(rng)
    pyrng = random.Random(32)
    trees = [random_tree(pyrng, pyrng.randint(1, 5)) for _ in range(24)]
    trees += trees[::3]
    shared = build_level_schedule(trees, share=True).total_slots
    assert shared < sum(node_count(t) for t in trees)
    batched = _tree_grads(trees, embeds, p, batched=True)
    sequential = _tree_grads(trees, embeds, p, batched=False)
    for k, g in sequential.items():
        np.testing.assert_allclose(batched[k], g, rtol=0, atol=1e-9, err_msg=k)


def test_input_dropout_training_keeps_one_slot_per_occurrence(monkeypatch):
    calls = []
    real = enc.build_level_schedule

    def spy(trees, share=False):
        calls.append(share)
        return real(trees, share=share)

    monkeypatch.setattr(enc, "build_level_schedule", spy)
    rng = np.random.default_rng(33)
    p = TreeLstmParams.init(3, 4, rng)
    embeds = make_embeds(rng)
    trees = [Op("⿰", Leaf("a"), Leaf("a"))] * 2
    treelstm_batch_forward(trees, embeds, p)
    treelstm_batch_forward(trees, embeds, p, input_dropout=0.3)
    treelstm_batch_forward(trees, embeds, p, input_dropout=0.0, training=True)
    treelstm_batch_forward(trees, embeds, p, input_dropout=0.3,
                           rng=np.random.default_rng(0), training=True)
    assert calls == [True, True, True, False]


def test_batch_of_one_equals_sequential():
    rng = np.random.default_rng(9)
    p = TreeLstmParams.init(5, 4, rng)
    embeds = make_embeds(rng)
    tree = random_tree(random.Random(10), 4)
    h_seq, _ = treelstm_forward(tree, embeds, p)
    h_bat = treelstm_batch_forward([tree], embeds, p)
    np.testing.assert_allclose(h_bat.data, h_seq.data, atol=1e-12)


@pytest.mark.parametrize("ablated", [False, True])
def test_batched_equals_sequential_50_random_trees(ablated):
    rng = np.random.default_rng(11)
    p = TreeLstmParams.init(6, 4, rng, operator_inputs=not ablated)
    embeds = make_embeds(rng)
    pyrng = random.Random(12)
    trees = [random_tree(pyrng, pyrng.randint(1, 8)) for _ in range(50)]
    h_bat = treelstm_batch_forward(trees, embeds, p)
    for k, tree in enumerate(trees):
        h_seq, _ = treelstm_forward(tree, embeds, p)
        assert np.abs(h_bat.data[k] - h_seq.data[0]).max() < 1e-9


# ---------------------------------------------------------------------------
# untaped forest pass
# ---------------------------------------------------------------------------

WIDE_TOKENS = "".join(chr(0x4E00 + k) for k in range(129))
_wide_leaves = [Leaf(tok) for tok in WIDE_TOKENS]
# 129 distinct leaves under 257 distinct pairs: levels of 129 and 257 rows
WIDE = [Op("⿰", _wide_leaves[k // 2], _wide_leaves[(k // 2 + 1 + k % 2) % 129])
        for k in range(257)]
_t1 = Op("⿰", Leaf("a"), Op("⿱", Leaf("b"), Leaf("a")))
_t2 = Op("⿱", Op("⿱", Leaf("b"), Leaf("a")), Leaf("c"))
FORESTS = {
    "duplicate-roots": [_t1, _t2, _t1, _rebuild(_t1), _t2],
    "bare-leaf-root": [Leaf("a"), _t1, Leaf("h"), Leaf("a")],
    "root-is-a-child": [_t1, _t1.right, Op("⿴", _t1, _t2), _t2.left, Leaf("b")],
    "single-root": [_t2],
    "wide-levels": WIDE + _wide_leaves[:3] + WIDE[:5],
}


def _assert_forest_matches(trees, embeds, p) -> None:
    rows = treelstm_batch_forward(trees, embeds, p).data
    assert rows.shape == (len(trees), p.hidden)
    first = {}
    for tree, row in zip(trees, rows):  # equal trees get equal rows
        np.testing.assert_array_equal(row, first.setdefault(tree, row))
    np.testing.assert_allclose(
        rows, all_slot_forest(trees, embeds, p), rtol=0, atol=1e-12)
    for tree, row in zip(trees, rows):
        np.testing.assert_allclose(row, treelstm_forward(tree, embeds, p)[0].data[0],
                                   rtol=0, atol=1e-9)


@pytest.mark.parametrize("use_bias,operator_inputs",
                         [(True, True), (False, True), (True, False)])
@pytest.mark.parametrize("case", sorted(FORESTS))
def test_forest_rows_equal_batched_and_sequential(case, use_bias, operator_inputs):
    rng = np.random.default_rng(43)
    p = TreeLstmParams.init(5, 4, rng, use_bias=use_bias,
                            operator_inputs=operator_inputs)
    embeds = make_embeds(rng, tokens="abcdefgh" + WIDE_TOKENS)
    _assert_forest_matches(FORESTS[case], embeds, p)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(_glyph_trees, min_size=1, max_size=8),
       st.lists(st.integers(0, 7), max_size=4))
def test_forest_rows_equal_batched_and_sequential_on_shared_forests(trees, repeats):
    # repeated trees, equal trees of separate objects, and every root's
    # children as roots too
    batch = trees + [trees[k % len(trees)] for k in repeats]
    batch += [_rebuild(t) for t in trees[::2]]
    batch += [kid for t in trees if isinstance(t, Op) for kid in (t.left, t.right)]
    rng = np.random.default_rng(len(batch))
    _assert_forest_matches(batch, make_embeds(rng), TreeLstmParams.init(4, 4, rng))


def test_forest_levels_run_in_near_equal_chunks(monkeypatch):
    # 129 and 257 rows split into 2 and 3 chunks, none a small remainder
    rng = np.random.default_rng(44)
    p = TreeLstmParams.init(3, 4, rng)
    embeds = make_embeds(rng, tokens=WIDE_TOKENS)
    rows_per_call = []
    kernel = enc._cell_gates

    def spy(w, layout, terms, *args):
        rows_per_call.append(len(terms[0][1]))
        return kernel(w, layout, terms, *args)

    monkeypatch.setattr(enc, "_cell_gates", spy)
    treelstm_batch_forward(WIDE, embeds, p)
    assert rows_per_call == [64, 65, 85, 86, 86]
    for n in range(1, 700):
        parts = enc._chunks(range(5, 5 + n), 128)
        sizes = [len(part) for part in parts]
        assert len(parts) == -(-n // 128) and max(sizes) <= 128
        assert max(sizes) - min(sizes) <= 1
        assert [i for part in parts for i in part] == list(range(5, 5 + n))


def test_forest_keeps_rows_only_for_slots_a_parent_reads():
    pyrng = random.Random(45)
    forests = list(FORESTS.values())
    forests.append([random_tree(pyrng, pyrng.randint(0, 6)) for _ in range(80)])
    for trees in forests:
        sched = build_level_schedule(trees, share=True)
        kept = enc._kept_rows(sched)
        read = sorted((set(sched.left.tolist()) | set(sched.right.tolist())) - {-1})
        assert np.flatnonzero(kept >= 0).tolist() == read
        assert kept[read].tolist() == list(range(len(read)))


def test_forest_of_no_trees_is_an_empty_array():
    rng = np.random.default_rng(46)
    rows = treelstm_batch_forward([], make_embeds(rng), TreeLstmParams.init(3, 4, rng))
    assert rows.data.shape == (0, 3)


def test_forest_pass_peaks_under_a_quarter_of_one_unbounded_batch(tmp_path,
                                                                  monkeypatch):
    # a benchmark table of 8,321 trees at hidden 64: the untaped pass keeps
    # rows only for slots with a parent and computes 128 rows at a time,
    # where the all-slot walk holds (h, c) for every slot and each whole
    # level's gates
    import tracemalloc
    from pathlib import Path

    from logotree import ids
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    from perfbench.data import DataSpec, generate
    rules = ids.load_rule_table(generate(DataSpec(n_chars=8000), 4711,
                                         tmp_path).rules_path)
    trees = [ids.decompose(ch, rules) for ch in sorted(rules.rules)]
    assert len(trees) == 8321
    rng = np.random.default_rng(47)
    embeds = VocabEmbeddings(sorted(rules.leaf_set), 32, rng)
    p = TreeLstmParams.init(64, 32, rng)

    def peak(run) -> int:
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    batch = peak(lambda: all_slot_forest(trees, embeds, p))
    forest = peak(lambda: treelstm_batch_forward(trees, embeds, p))
    assert forest < batch / 4, (forest, batch)


# WIDE with one pair of its roots above: levels of 2, 3 and 1 chunks
SPLIT_LEVELS = WIDE + [Op("⿱", WIDE[0], WIDE[1])]


def _on_helper() -> bool:
    return threading.current_thread().name.startswith("test-grads")


def both_threads_and_inline(weight_grads, monkeypatch, run) -> list:
    """``run()``'s result with the helper sharing every forest level of two
    or more chunks, then inline; asserts that the helper took chunks in the
    first run and none in the second. The first chunk of the first run
    waits until the helper has started one, so that both threads take part
    however late the helper starts."""
    kernel, results = enc._cell_gates, []
    for on in (True, False):
        weight_grads.use(on)
        names, helper_in = [], threading.Event()

        def spy(*args):
            names.append(threading.current_thread().name)
            if _on_helper():
                helper_in.set()
            elif on and len(names) == 1:
                assert helper_in.wait(10)
            return kernel(*args)

        monkeypatch.setattr(enc, "_cell_gates", spy)
        results.append(run())
        assert any(name.startswith("test-grads") for name in names) == on
    monkeypatch.setattr(enc, "_cell_gates", kernel)
    return results


def test_forest_rows_on_two_threads_equal_inline(weight_grads, monkeypatch):
    rng = np.random.default_rng(49)
    p = TreeLstmParams.init(256, 64, rng)
    embeds = make_embeds(rng, 64, WIDE_TOKENS)
    levels = build_level_schedule(SPLIT_LEVELS, share=True).levels
    assert [len(enc._chunks(span, enc._FOREST_ROWS)) for span in levels] == [2, 3, 1]
    on, off = both_threads_and_inline(
        weight_grads, monkeypatch,
        lambda: treelstm_batch_forward(SPLIT_LEVELS, embeds, p).data)
    assert on.tobytes() == off.tobytes()


def test_evaluate_and_lm_cache_on_two_threads_equal_inline(
        weight_grads, monkeypatch, corpus, rule_table):
    from logotree import lm, pron
    from logotree.config import LmConfig, RunConfig
    model = pron.build_model(RunConfig(hidden=256, d_in=64, seed=50),
                             pron.Inventories.from_entries(corpus),
                             sorted(rule_table.leaf_set))
    on, off = both_threads_and_inline(
        weight_grads, monkeypatch, lambda: pron.evaluate(model, corpus, rule_table))
    assert on == off
    language = lm.build_lm(LmConfig(input_kind="hierarchical", layer_sizes=(8,),
                                    embed_dim=64, seed=51),
                           sorted(rule_table.rules), rule_table)
    on, off = both_threads_and_inline(
        weight_grads, monkeypatch,
        lambda: {ch: v.tobytes() for ch, v in lm.build_cache(language).vectors.items()})
    assert len(on) == len(language.trees) and on == off


class ChunkError(Exception):
    pass


@pytest.mark.parametrize("failing", ["main", "helper"])
def test_a_failing_chunk_ends_the_forest_pass_with_its_own_type(
        weight_grads, monkeypatch, failing):
    # one leaf chunk, then three chunks of 128 pairs: the failing chunk waits
    # until the other thread has one in flight, which ends before the pass
    # raises, and the third chunk never starts
    leaves = _wide_leaves[:128]
    trees = [Op("⿰", leaves[k % 128], leaves[(k + 1 + k // 128) % 128])
             for k in range(384)]
    rng = np.random.default_rng(52)
    p = TreeLstmParams.init(8, 4, rng)
    embeds = make_embeds(rng, 4, WIDE_TOKENS)
    weight_grads.use(True)
    log, other_in = [], threading.Event()
    kernel, share = enc._cell_gates, enc._share_chunks

    def who() -> str:
        return "helper" if _on_helper() else "main"

    def gates(w, layout, terms, *args):
        if len(terms) > 1:  # an inner chunk
            if who() == failing:
                assert other_in.wait(10)
                log.append(("raise", who()))
                raise ChunkError("a chunk failed")
            other_in.set()
            time.sleep(0.05)
        return kernel(w, layout, terms, *args)

    def logged_share(helper, run, parts):
        def logged(part):  # a chunk's start, and its end once it has written
            log.append(("start", who()))
            try:
                run(part)
            finally:
                log.append(("end", who()))
        share(helper, logged, parts)

    monkeypatch.setattr(enc, "_cell_gates", gates)
    monkeypatch.setattr(enc, "_share_chunks", logged_share)
    assert [len(span) for span in build_level_schedule(trees, share=True).levels] == [128, 384]
    with pytest.raises(ChunkError):
        treelstm_batch_forward(trees, embeds, p)
    returned = list(log)
    assert sorted(returned) == [("end", "helper"), ("end", "main"), ("raise", failing),
                                ("start", "helper"), ("start", "main")]
    after = returned[returned.index(("raise", failing)):]
    assert all(event != "start" for event, _ in after)
    time.sleep(0.2)
    assert log == returned  # nothing ran on after the pass returned


def test_shared_chunks_run_once_each_under_fast_thread_switching(weight_grads):
    # every part is pulled once, by one thread or the other, however often
    # the interpreter switches threads between the lock and the run
    import sys
    weight_grads.use(True)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            ran = []
            enc._share_chunks(enc._helper, ran.append, range(500))
            assert sorted(ran) == list(range(500))
    finally:
        sys.setswitchinterval(interval)


def test_forest_chunks_below_the_hand_off_stay_inline(weight_grads, monkeypatch):
    # at the LM's width (hidden 32, d_in 32) an 85-row chunk is about 2.2M
    # multiply-adds and every level runs inline; at paper width only level
    # 1's three chunks are shared: the leaves' are small, level 2 is one chunk
    hand_off = enc._HAND_OFF
    weight_grads.use(True)
    monkeypatch.setattr(enc, "_HAND_OFF", hand_off)
    submitted, submit = [], enc._helper.submit

    def counting(job):
        submitted.append(job)
        return submit(job)

    monkeypatch.setattr(enc._helper, "submit", counting)
    for hidden, d_in, shared in ((32, 32, 0), (256, 64, 1)):
        rng = np.random.default_rng(53)
        p = TreeLstmParams.init(hidden, d_in, rng)
        submitted.clear()
        treelstm_batch_forward(SPLIT_LEVELS, make_embeds(rng, d_in, WIDE_TOKENS), p)
        assert len(submitted) == shared, hidden


# 300 distinct leaves under 300 distinct pairs under 300 distinct pairs of
# pairs, with a few of the lower nodes as roots too: three levels of three
# chunks each
MANY_TOKENS = "".join(chr(0x4E00 + k) for k in range(300))
_many_leaves = [Leaf(tok) for tok in MANY_TOKENS]
_pairs = [Op("⿰", _many_leaves[k], _many_leaves[(k + 1) % 300]) for k in range(300)]
THREE_CHUNK_LEVELS = ([Op("⿱", _pairs[k], _pairs[(k + 7) % 300]) for k in range(300)]
                      + _pairs[:5] + _many_leaves[:3])


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("operator_inputs", [True, False])
@pytest.mark.parametrize("hidden,d_in", [(8, 4), (64, 16), (256, 64)])
def test_untaped_slices_equal_whole_levels_bitwise(hidden, d_in, operator_inputs,
                                                   dtype):
    # the premise of one tree kernel: each row of a product over a slice of
    # a level rounds as in the whole level's product, so the untaped
    # kernel's rows are the all-slot walk's bit for bit
    ad.set_default_dtype(dtype)
    try:
        rng = np.random.default_rng(54)
        p = TreeLstmParams.init(hidden, d_in, rng, operator_inputs=operator_inputs)
        for key, w in p.weights.items():
            if key.startswith("b_"):
                w.data[:] = rng.standard_normal(hidden)
        embeds = make_embeds(rng, d_in, MANY_TOKENS)
        levels = build_level_schedule(THREE_CHUNK_LEVELS, share=True).levels
        assert [len(enc._chunks(span, enc._FOREST_ROWS)) for span in levels] == [3, 3, 3]
        rows = treelstm_batch_forward(THREE_CHUNK_LEVELS, embeds, p).data
        whole = all_slot_forest(THREE_CHUNK_LEVELS, embeds, p)
    finally:
        ad.set_default_dtype(np.float64)
    assert rows.dtype == whole.dtype == dtype
    assert rows.tobytes() == whole.tobytes()


def test_untaped_training_forward_runs_whole_levels_inline(weight_grads,
                                                           monkeypatch):
    # input dropout draws its masks as the kernel reaches each slice: over
    # the unshared schedule of a dropout forward, each level is one product
    # on this thread, with no tape as with one, even where the helper would
    # take every chunk, so the rows are the taped forward's from the same seed
    rng = np.random.default_rng(55)
    p = TreeLstmParams.init(256, 64, rng)
    embeds = make_embeds(rng, 64, WIDE_TOKENS)
    weight_grads.use(True)
    kernel, calls = enc._cell_gates, []

    def spy(w, layout, terms, *args):
        calls.append((len(terms[0][1]), threading.current_thread().name))
        return kernel(w, layout, terms, *args)

    monkeypatch.setattr(enc, "_cell_gates", spy)
    spans = build_level_schedule(SPLIT_LEVELS, share=False).levels
    assert max(len(enc._chunks(span, enc._FOREST_ROWS)) for span in spans) >= 2
    runs = []
    for tape in (contextlib.nullcontext(), Tape()):
        calls.clear()
        with tape:
            runs.append(treelstm_batch_forward(
                SPLIT_LEVELS, embeds, p, input_dropout=0.2,
                rng=np.random.default_rng(56), training=True).data)
        main = threading.current_thread().name
        assert calls == [(len(span), main) for span in spans]
    assert runs[0].tobytes() == runs[1].tobytes()


def test_untaped_level_kernel_keeps_no_level_for_a_reverse_pass():
    # with no tape to record it, no level's gates are kept for a backward
    # pass: the same rows at about 0.6 of the taped peak here, where keeping
    # them reads about 0.97
    import tracemalloc
    pyrng = random.Random(48)
    trees = [random_tree(pyrng, 6) for _ in range(64)]
    rng = np.random.default_rng(48)
    embeds, p = make_embeds(rng), TreeLstmParams.init(32, 4, rng)

    def run(tape):
        tracemalloc.start()
        try:
            with tape:
                out = treelstm_batch_forward(trees, embeds, p).data
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    taped, taped_peak = run(Tape())
    untaped, untaped_peak = run(contextlib.nullcontext())
    assert len(build_level_schedule(trees, share=True).levels) >= 4
    np.testing.assert_array_equal(untaped, taped)
    assert untaped_peak < 0.8 * taped_peak, (untaped_peak, taped_peak)


def _tree_grads(trees, embeds, p, batched: bool) -> dict:
    """Gradients of sum(root h) by the level-batched or the sequential path."""
    params = {**p.params(), **embeds.params()}
    tp = Tape()
    with tp:
        if batched:
            loss = treelstm_batch_forward(trees, embeds, p).sum()
        else:
            hs = [treelstm_forward(t, embeds, p)[0] for t in trees]
            loss = ad.concat(hs, axis=0).sum()
    ad.zero_grads(params.values())
    tp.backward(loss)
    return {k: t.grad for k, t in params.items()}


def test_batched_gradients_match_sequential():
    # (tree_bias, operator_inputs): the default cell and both ablations
    for use_bias, operator_inputs in ((True, True), (False, True), (True, False)):
        rng = np.random.default_rng(13)
        p = TreeLstmParams.init(3, 3, rng, use_bias=use_bias,
                                operator_inputs=operator_inputs)
        embeds = VocabEmbeddings("abc", 3, rng)
        pyrng = random.Random(14)
        trees = [random_tree(pyrng, 3) for _ in range(5)]
        assert max(len(build_level_schedule([t]).levels) for t in trees) > 1
        batched = _tree_grads(trees, embeds, p, batched=True)
        sequential = _tree_grads(trees, embeds, p, batched=False)
        for k, g in sequential.items():
            assert batched[k] is not None, k
            np.testing.assert_allclose(g, batched[k], atol=1e-9, err_msg=k)


@pytest.mark.parametrize("use_bias,operator_inputs",
                         [(True, True), (False, True), (True, False)])
def test_all_leaf_batch_gradients_match_sequential(use_bias, operator_inputs):
    # leaves skip the child and forget-gate terms; the weights only those
    # terms read still get zero arrays, as in the sequential cell
    rng = np.random.default_rng(41)
    p = TreeLstmParams.init(4, 3, rng, use_bias=use_bias,
                            operator_inputs=operator_inputs)
    embeds = VocabEmbeddings("abc", 3, rng)
    trees = [Leaf("a"), Leaf("c"), Leaf("a"), Leaf("z")]
    batched = _tree_grads(trees, embeds, p, batched=True)
    sequential = _tree_grads(trees, embeds, p, batched=False)
    for k, g in sequential.items():
        assert isinstance(batched[k], np.ndarray), k
        np.testing.assert_allclose(batched[k], g, rtol=0, atol=1e-12, err_msg=k)
    assert not batched["tree.Ul_i"].any() and not batched["tree.V_fl"].any()


def test_all_leaf_batch_keeps_adam_update():
    # Adam decays its moments on a zero gradient but skips a None one, so
    # an all-leaf step after a mixed one must move the same parameters
    mixed = [Op("⿰", Leaf("a"), Leaf("b")), Leaf("c")]
    leaves = [Leaf("a"), Leaf("b")]
    finals = []
    for batched in (True, False):
        rng = np.random.default_rng(42)
        p = TreeLstmParams.init(4, 3, rng)
        embeds = VocabEmbeddings("abc", 3, rng)
        params = {**p.params(), **embeds.params()}
        opt = ad.Adam(0.01)
        for trees in (mixed, leaves):
            _tree_grads(trees, embeds, p, batched)
            opt.step(params)
        finals.append({k: t.data.copy() for k, t in params.items()})
    for k, value in finals[1].items():
        np.testing.assert_allclose(finals[0][k], value, rtol=0, atol=1e-12,
                                   err_msg=k)


def _assert_grads_unshared(params: dict) -> None:
    items = list(params.items())
    for a, (ka, ta) in enumerate(items):
        assert ta.grad is not None, ka
        for kb, tb in items[a + 1:]:
            assert not np.shares_memory(ta.grad, tb.grad), (ka, kb)


def test_tree_batch_gradients_do_not_alias():
    rng = np.random.default_rng(43)
    p = TreeLstmParams.init(5, 4, rng)
    embeds = make_embeds(rng)
    pyrng = random.Random(44)
    trees = [random_tree(pyrng, 3) for _ in range(8)]
    params = {**p.params(), **embeds.params()}
    _tree_grads(trees, embeds, p, batched=True)
    _assert_grads_unshared(params)


def test_lstm_batch_gradients_do_not_alias():
    rng = np.random.default_rng(45)
    p = BiLstmParams.init(5, 4, rng, layers=2)
    embeds = make_embeds(rng)
    params = {**p.params(), **embeds.params()}
    tp = Tape()
    with tp:
        h = enc.bilstm_batch_forward([list("abc"), list("de"), list("fgha")],
                                     embeds, p)
        loss = (h * h).sum()
    ad.zero_grads(params.values())
    tp.backward(loss)
    _assert_grads_unshared(params)


# ---------------------------------------------------------------------------
# sequence encoders
# ---------------------------------------------------------------------------

def test_lstm_length_one_is_single_cell():
    rng = np.random.default_rng(15)
    p = LstmParams.init(4, 4, rng)
    embeds = make_embeds(rng)
    h = lstm_batch_forward([["a"]], embeds, p)
    h_cell, _ = enc.lstm_cell(embeds.lookup(["a"]), Tensor(np.zeros((1, 4))),
                              Tensor(np.zeros((1, 4))), p)
    np.testing.assert_allclose(h.data, h_cell.data, atol=1e-12)


def test_lstm_matches_scalar_oracle():
    rng = np.random.default_rng(16)
    H, D = 4, 4
    p = LstmParams.init(H, D, rng)
    embeds = make_embeds(rng, d_in=D)
    seq = ["a", "c", "b", "e", "d"]
    h = lstm_batch_forward([seq], embeds, p)
    w = {k.split(".", 1)[1]: t.data.tolist() for k, t in p.weights.items()}
    vectors = [embeds.table.data[embeds.index[t]].tolist() for t in seq]
    oracle = scalar_lstm(vectors, w, H)
    np.testing.assert_allclose(h.data[0], oracle, atol=1e-12)


def test_lstm_rejects_empty():
    rng = np.random.default_rng(17)
    p = LstmParams.init(4, 4, rng)
    embeds = make_embeds(rng)
    with pytest.raises(ContractError, match="non-empty"):
        lstm_batch_forward([[]], embeds, p)


@pytest.mark.parametrize("seqs", [[], [list("ab"), []]],
                         ids=["empty-batch", "empty-sequence"])
@pytest.mark.parametrize("kind", ["lstm", "bilstm", "cnn"])
def test_sequence_encoders_reject_empty(kind, seqs):
    rng = np.random.default_rng(17)
    embeds = make_embeds(rng)
    p = {"lstm": lambda: LstmParams.init(4, 4, rng),
         "bilstm": lambda: BiLstmParams.init(4, 4, rng),
         "cnn": lambda: CnnParams.init(4, 4, rng, n_filters=3)}[kind]()
    forward = getattr(enc, f"{kind}_batch_forward")
    with pytest.raises(ContractError, match="non-empty"):
        forward(seqs, embeds, p)


def test_lstm_batch_padding_matches_single():
    rng = np.random.default_rng(18)
    p = LstmParams.init(4, 4, rng, layers=2)
    embeds = make_embeds(rng)
    seqs = [["a", "b", "c", "d", "e"], ["b"], ["c", "a"]]
    h_batch = enc.lstm_batch_forward(seqs, embeds, p)
    for k, seq in enumerate(seqs):
        h_one = lstm_batch_forward([seq], embeds, p)
        np.testing.assert_allclose(h_batch.data[k], h_one.data[0], atol=1e-12)


UNSORTED = [list("ab"), list("cdeab"), list("e"), list("bcdhg"), list("fa"),
            list("g"), list("hgfedcb")]  # lengths unsorted, with ties and 1


@pytest.mark.parametrize("kind,layers", [("lstm", 1), ("lstm", 2), ("bilstm", 1)])
def test_packed_batch_rows_equal_single_forward(kind, layers):
    rng = np.random.default_rng(26)
    embeds = make_embeds(rng)
    params = LstmParams if kind == "lstm" else BiLstmParams
    p = params.init(4, 4, rng, layers=layers)
    forward = getattr(enc, f"{kind}_batch_forward")
    h_batch = forward(UNSORTED, embeds, p)
    for k, seq in enumerate(UNSORTED):
        h_one = forward([seq], embeds, p)
        np.testing.assert_allclose(h_batch.data[k], h_one.data[0], rtol=0,
                                   atol=1e-12)


def test_lstm_input_dropout_rows_keep_their_sequence_and_position():
    # the reference draws the mask over the end-padded batch in the caller's
    # order and runs each sequence alone on its own rows of it
    rng = np.random.default_rng(27)
    p = LstmParams.init(4, 4, rng, layers=2)
    embeds = make_embeds(rng)
    rate, n, steps = 0.3, len(UNSORTED), max(len(s) for s in UNSORTED)
    h_batch = enc.lstm_batch_forward(UNSORTED, embeds, p, rate,
                                     np.random.default_rng(6), True)
    draw = np.random.default_rng(6).random((n * steps, 4))
    mask = ((draw >= rate) / (1.0 - rate)).reshape(n, steps, 4)
    for k, seq in enumerate(UNSORTED):
        out = Tensor((embeds.lookup(seq).data * mask[k, :len(seq)])[None])
        for layer in range(2):
            out, (h_one, _) = enc.lstm_layer(out, p, layer)
        np.testing.assert_allclose(h_batch.data[k], h_one.data[0], rtol=0,
                                   atol=1e-12)


def test_bilstm_palindrome_tied_weights():
    rng = np.random.default_rng(19)
    fwd = LstmParams.init(4, 4, rng)
    p = BiLstmParams(fwd, fwd)  # tied directions
    embeds = make_embeds(rng)
    h = bilstm_batch_forward([["a", "b", "a"]], embeds, p)
    assert h.data.shape == (1, 8)
    np.testing.assert_array_equal(h.data[0, :4], h.data[0, 4:])


def test_bilstm_reversed_sequence_differs():
    rng = np.random.default_rng(20)
    p = BiLstmParams.init(4, 4, rng)
    embeds = make_embeds(rng)
    h1 = bilstm_batch_forward([["a", "b", "c"]], embeds, p)
    h2 = bilstm_batch_forward([["c", "b", "a"]], embeds, p)
    assert np.abs(h1.data - h2.data).max() > 1e-8


def test_lstm_reversed_sequence_differs():
    rng = np.random.default_rng(30)
    p = LstmParams.init(4, 4, rng)
    embeds = make_embeds(rng)
    h1 = lstm_batch_forward([["a", "b", "c"]], embeds, p)
    h2 = lstm_batch_forward([["c", "b", "a"]], embeds, p)
    assert np.abs(h1.data - h2.data).max() > 1e-8


# ---------------------------------------------------------------------------
# convolutional encoder
# ---------------------------------------------------------------------------

def naive_cnn_pooled(seq, embeds, p: CnnParams):
    """Direct sliding-window evaluation with explicit window vectors."""
    vecs = [embeds.table.data[embeds.index[t]] for t in seq]
    L = max(len(vecs), max(p.widths))
    vecs = vecs + [np.zeros(p.d_in)] * (L - len(vecs))
    banks = []
    for w in p.widths:
        K = p.weights[f"K{w}"].data
        b = p.weights[f"kb{w}"].data
        best = np.full(p.n_filters, -np.inf)
        for pos in range(L - w + 1):
            window = np.concatenate(vecs[pos:pos + w])
            best = np.maximum(best, np.tanh(window @ K + b))
        banks.append(best)
    return np.concatenate(banks)


def test_cnn_matches_sliding_window_oracle():
    rng = np.random.default_rng(21)
    p = CnnParams.init(3, 5, rng, n_filters=4)
    embeds = make_embeds(rng, d_in=3)
    seq = ["a", "b", "c", "d", "e", "f", "g", "h", "a", "c"]
    pooled = cnn_pooled([seq], embeds, p)
    np.testing.assert_allclose(pooled.data[0], naive_cnn_pooled(seq, embeds, p),
                               atol=1e-12)
    out = cnn_batch_forward([seq], embeds, p)
    expected = p.weights["W_fc"].data @ pooled.data[0] + p.weights["b_fc"].data
    np.testing.assert_allclose(out.data[0], expected, atol=1e-12)


@pytest.mark.parametrize("bias", [0.0, 0.7])
def test_cnn_batch_rows_equal_sliding_window_oracle(bias):
    # a short row must not pool over windows that lie wholly in the padding
    # its longer neighbours bring into the batch
    rng = np.random.default_rng(28)
    p = CnnParams.init(3, 5, rng, n_filters=4)
    for w in p.widths:
        p.weights[f"kb{w}"].data[:] = bias
    embeds = make_embeds(rng, d_in=3)
    seqs = UNSORTED + [list("abcdefghabcdefgh")]
    pooled = cnn_pooled(seqs, embeds, p)
    for k, seq in enumerate(seqs):
        np.testing.assert_allclose(pooled.data[k], naive_cnn_pooled(seq, embeds, p),
                                   rtol=0, atol=1e-12)


def test_cnn_records_a_window_gather_and_one_product_per_width():
    # each width records one gather, one product and a fixed set of
    # elementwise entries, however wide its kernel
    rng = np.random.default_rng(31)
    p = CnnParams.init(3, 5, rng, n_filters=4)
    embeds = make_embeds(rng, d_in=3)
    tape = Tape()
    with tape:
        cnn_batch_forward(UNSORTED + [list("abcdefghabcdefgh")], embeds, p, 0.3,
                          np.random.default_rng(7), True)
    assert len(tape) <= 10 * len(p.widths)


def test_cnn_constant_sequence_single_window_response():
    rng = np.random.default_rng(22)
    p = CnnParams.init(3, 5, rng, n_filters=4)
    embeds = make_embeds(rng, d_in=3)
    pooled = cnn_pooled([["a"] * 9], embeds, p)
    vec = embeds.table.data[embeds.index["a"]]
    for bank, w in enumerate(p.widths):
        window = np.concatenate([vec] * w)
        resp = np.tanh(window @ p.weights[f"K{w}"].data + p.weights[f"kb{w}"].data)
        np.testing.assert_allclose(pooled.data[0, bank * 4:(bank + 1) * 4], resp,
                                   atol=1e-12)


def test_cnn_smaller_response_token_leaves_pool_unchanged():
    rng = np.random.default_rng(23)
    p = CnnParams.init(3, 5, rng, n_filters=4)
    embeds = make_embeds(rng, d_in=3)
    # nonnegative kernels and embeddings make window responses monotone in
    # the token vectors; a token scaled toward zero cannot raise any max
    for w in p.widths:
        p.weights[f"K{w}"].data[:] = np.abs(p.weights[f"K{w}"].data)
    embeds.table.data[:] = np.abs(embeds.table.data)
    embeds.table.data[embeds.index["b"]] = 0.5 * embeds.table.data[embeds.index["a"]]
    base = cnn_pooled([["a"] * 9], embeds, p)
    extended = cnn_pooled([["a"] * 9 + ["b"]], embeds, p)
    np.testing.assert_allclose(extended.data, base.data, atol=1e-12)


def test_cnn_pads_short_sequences():
    rng = np.random.default_rng(24)
    p = CnnParams.init(3, 5, rng, n_filters=4)
    embeds = make_embeds(rng, d_in=3)
    out = cnn_batch_forward([["a"]], embeds, p)  # shorter than the widest kernel
    assert out.data.shape == (1, 5)


def test_cnn_default_geometry():
    rng = np.random.default_rng(25)
    p = CnnParams.init(8, 16, rng)
    assert p.widths == (1, 2, 3, 4, 5, 6, 7)
    assert p.n_filters == 200
    assert p.weights["W_fc"].data.shape == (16, 1400)


# ---------------------------------------------------------------------------
# end-to-end gradient fidelity (dims <= 8)
# ---------------------------------------------------------------------------

def _check_params(build_loss, params, eps=1e-5, tol=1e-4):
    worst = 0.0
    for name, tensor in params.items():
        err = check_gradient(lambda _t: build_loss(), tensor, eps=eps)
        worst = max(worst, err)
        assert err < tol, f"{name}: {err}"
    return worst


def test_treelstm_end_to_end_gradients():
    rng = np.random.default_rng(26)
    p = TreeLstmParams.init(3, 3, rng)
    embeds = VocabEmbeddings("abcd", 3, rng)
    tree = Op("⿰", Op("⿱", Leaf("a"), Leaf("b")), Leaf("c"))
    params = {**p.params(), **embeds.params()}
    _check_params(lambda: treelstm_batch_forward([tree], embeds, p).sum(), params)


def test_lstm_end_to_end_gradients():
    rng = np.random.default_rng(27)
    p = LstmParams.init(3, 3, rng)
    embeds = VocabEmbeddings("abcd", 3, rng)
    params = {**p.params(), **embeds.params()}
    _check_params(lambda: lstm_batch_forward([["a", "b", "c"]], embeds, p).sum(), params)


def test_bilstm_end_to_end_gradients():
    rng = np.random.default_rng(28)
    p = BiLstmParams.init(3, 3, rng)
    embeds = VocabEmbeddings("abcd", 3, rng)
    params = {**p.params(), **embeds.params()}
    _check_params(lambda: bilstm_batch_forward([["a", "b"]], embeds, p).sum(), params)


def test_cnn_end_to_end_gradients():
    rng = np.random.default_rng(29)
    p = CnnParams.init(2, 3, rng, n_filters=2)
    embeds = VocabEmbeddings("abcd", 2, rng)
    params = {**p.params(), **embeds.params()}
    # one row longer and one shorter than the widest kernel: the windows
    # overlap, reach into padding and are masked out of the max, so the
    # gather's backward sums over all three
    for seqs in ([list("abcd")], [list("abcdabcda"), list("cb")]):
        _check_params(lambda: cnn_batch_forward(seqs, embeds, p).sum(), params)
