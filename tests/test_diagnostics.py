import sys
from pathlib import Path

import numpy as np
import pytest

from logotree import autodiff as ad
from logotree import diagnostics as diag
from logotree import encoders as enc
from logotree import ids
from logotree.autodiff import Tensor
from logotree.config import RunConfig
from logotree.errors import ContractError, DataError
from logotree.ids import Leaf, Op, decompose
from logotree.phono import build_scenario
from logotree.pron import (Inventories, build_model, decode_batch, encode_inputs,
                           evaluate, forward_batch, train)


@pytest.fixture(scope="module")
def small_model(rule_table, corpus_entries):
    split = build_scenario(corpus_entries, 1, seed=5, sizes=(64, 16, 16))
    config = RunConfig(encoder="treelstm", hidden=16, d_in=8, batch_size=32,
                       epochs=4, learning_rate=3e-3, dropout=0.0, seed=1)
    model, _ = train(config, split, rule_table)
    return model, split


@pytest.fixture(scope="module")
def corpus_entries():
    from logotree import phono
    readings = phono.parse_unihan_readings(
        Path(__file__).parent / "data" / "mini_readings.txt")
    entries, _ = phono.build_corpus(readings, seed=7)
    return entries


@pytest.fixture(scope="module")
def synthetic_table(tmp_path_factory):
    # the benchmark's seeded generator: 600 characters composed from the
    # fixtures' components, with shared subtrees and ternary operators
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(Path(__file__).resolve().parents[1]))
        from perfbench.data import DataSpec, generate
        dataset = generate(DataSpec(n_chars=600), 4711,
                           tmp_path_factory.mktemp("synthetic"))
    rules = ids.load_rule_table(dataset.rules_path)
    return rules, [decompose(ch, rules) for ch in dataset.chars]


def oracle_root_gates(model, tree):
    """Root forget gates assembled by hand: each child walked on its own
    by ``treelstm_forward``, the root cell called directly."""
    p, embeds = model.encoder, model.embeds

    def x(node):
        return embeds.lookup([node.token if isinstance(node, Leaf) else node.idc])

    _, left = enc.treelstm_forward(tree.left, embeds, p)
    _, right = enc.treelstm_forward(tree.right, embeds, p)
    _, _, gates = enc.treelstm_node(
        x(tree), x(tree.left), x(tree.right), left[-1].h, right[-1].h,
        left[-1].c, right[-1].c, p, inputs_on=p.operator_inputs,
        return_gates=True)
    return gates["fl"].data[0], gates["fr"].data[0]


# ---------------------------------------------------------------------------
# gate bias
# ---------------------------------------------------------------------------

def test_gate_bias_symmetric_weights_tie(rule_table, caplog):
    rng = np.random.default_rng(0)
    inv = Inventories(onset=["#", "b"], nucleus=["a"], coda=["#"])
    config = RunConfig(encoder="treelstm", hidden=6, d_in=4, seed=0)
    model = build_model(config, inv, sorted(rule_table.leaf_set))
    p = model.encoder
    # tie the left/right weight roles and feed mirror-symmetric children
    for g in ("i", "fl", "fr", "o", "c"):
        p.weights[f"Ur_{g}"].data[:] = p.weights[f"Ul_{g}"].data
        p.weights[f"Vr_{g}"].data[:] = p.weights[f"Vl_{g}"].data
    # make the two forget gates identical functions as well
    for part in ("Ul", "Ur", "V", "Vl", "Vr", "b"):
        p.weights[f"{part}_fr"].data[:] = p.weights[f"{part}_fl"].data
    tree = Op("⿰", Leaf("人"), Leaf("人"))
    f_l, f_r = diag.root_forget_gates(model, [tree])
    np.testing.assert_allclose(f_l, f_r, atol=1e-15)
    with caplog.at_level("WARNING", logger="logotree.diagnostics"):
        report = diag.gate_bias(model, [Op("⿱", tree, tree), tree])
    assert report.total == 1
    assert report.prefer_right == 0  # exact tie is not a right preference
    assert [r.getMessage() for r in caplog.records] == [
        "left-right root 0: forget-gate norms differ by 0"]


@pytest.mark.parametrize("operators", [True, False])
def test_root_forget_gates_equal_hand_assembled_root_step(
        rule_table, synthetic_table, caplog, operators):
    # the batched gates and counts equal a root step assembled by hand per
    # tree, on the fixtures and on a synthetic table with more left-right
    # roots than one batch
    fixtures = [decompose(ch, rule_table) for ch in sorted(rule_table.rules)]
    for rules, trees in ((rule_table, fixtures), synthetic_table):
        inner = [t for t in trees if isinstance(t, Op)]
        inv = Inventories(onset=["#", "b"], nucleus=["a"], coda=["#"])
        config = RunConfig(encoder="treelstm", hidden=6, d_in=4, seed=3,
                           operators=operators)
        model = build_model(config, inv, sorted(rules.leaf_set))
        with caplog.at_level("WARNING", logger="logotree.diagnostics"):
            f_l, f_r = diag.root_forget_gates(model, inner)
            report = diag.gate_bias(model, trees)
        assert not caplog.records  # random weights: no gap within 1e-9
        assert f_l.shape == f_r.shape == (len(inner), 6)
        oracle = [oracle_root_gates(model, tree) for tree in inner]
        np.testing.assert_allclose(f_l, [o[0] for o in oracle], rtol=0, atol=1e-9)
        np.testing.assert_allclose(f_r, [o[1] for o in oracle], rtol=0, atol=1e-9)
        across = [o for t, o in zip(inner, oracle) if t.idc == "⿰"]
        expected = sum(np.linalg.norm(fr) > np.linalg.norm(fl) for fl, fr in across)
        assert report == diag.GateBiasReport(len(across), expected)
    assert len(across) > 256  # the synthetic table's roots span two batches


def test_gate_bias_no_matching_trees(small_model):
    model, _ = small_model
    report = diag.gate_bias(model, [Op("⿱", Leaf("人"), Leaf("一"))])
    assert report.total == 0
    assert report.percentage is None


def test_gate_bias_counts_and_determinism(small_model, rule_table):
    model, split = small_model
    trees = [decompose(e.ch, rule_table) for e in split.test]
    r1 = diag.gate_bias(model, trees)
    r2 = diag.gate_bias(model, trees)
    assert r1 == r2
    across = sum(1 for t in trees if isinstance(t, Op) and t.idc == "⿰")
    assert r1.total == across
    assert 0 <= r1.prefer_right <= r1.total


def test_gate_bias_rejects_sequence_model(rule_table, corpus_entries):
    split = build_scenario(corpus_entries, 1, seed=5, sizes=(32, 8, 8))
    config = RunConfig(encoder="lstm", hidden=8, d_in=6, batch_size=16,
                       epochs=1, learning_rate=3e-3, dropout=0.0, seed=2)
    model, _ = train(config, split, rule_table)
    # the encoder is checked before any root is filtered out
    for trees in ([Op("⿰", Leaf("人"), Leaf("一"))],
                  [Op("⿱", Leaf("人"), Leaf("一"))], []):
        with pytest.raises(ContractError, match="tree-structured"):
            diag.gate_bias(model, trees)


def test_gates_reached_only_through_the_cell_kernel(small_model, rule_table,
                                                    monkeypatch):
    # the fused tree levels, the fused LSTM layer and the gate diagnostics
    # compute gates in one kernel; the per-gate composition serves only the
    # per-node oracle
    model, split = small_model
    calls = {"kernel": 0, "preact": []}
    kernel, preact = enc._cell_gates, enc._gate_preact

    def counted_kernel(*args, **kwargs):
        calls["kernel"] += 1
        return kernel(*args, **kwargs)

    def counted_preact(*args, **kwargs):
        calls["preact"].append(sys._getframe(1).f_code.co_name)
        return preact(*args, **kwargs)

    monkeypatch.setattr(enc, "_cell_gates", counted_kernel)
    monkeypatch.setattr(enc, "_gate_preact", counted_preact)
    trees = [decompose(e.ch, rule_table) for e in split.test]
    lstm = enc.LstmParams.init(8, model.embeds.d_in, np.random.default_rng(3))
    for run in (lambda: enc.treelstm_batch_forward(trees, model.embeds,
                                                   model.encoder),
                lambda: enc.lstm_batch_forward([list("人一"), list("人")],
                                               model.embeds, lstm),
                lambda: diag.gate_bias(model, trees)):
        before = calls["kernel"]
        run()
        assert calls["kernel"] > before
    assert calls["preact"] == []
    enc.treelstm_forward(trees[0], model.embeds, model.encoder)
    assert calls["preact"] and set(calls["preact"]) == {"treelstm_node"}


def test_diagnostics_never_walk_single_trees(small_model, rule_table,
                                             monkeypatch):
    # both analyses run on the batched encoders; the per-tree walk is the
    # tests' oracle only
    model, split = small_model
    lstm = build_model(RunConfig(encoder="lstm", hidden=8, d_in=6, seed=3),
                       model.inventories, sorted(rule_table.leaf_set))

    def forbidden(*args, **kwargs):
        raise AssertionError("treelstm_forward called")

    monkeypatch.setattr(enc, "treelstm_forward", forbidden)
    trees = [decompose(e.ch, rule_table) for e in split.test]
    assert diag.gate_bias(model, trees).total > 0
    for m in (model, lstm):
        assert len(diag.probe(m, "賄", rule_table).rows) > 1


def test_untaped_paths_run_the_tree_kernel_in_slices(small_model, rule_table,
                                                     monkeypatch):
    # with no tape, every tree embedding runs the kernel's products over
    # slices of at most _FOREST_ROWS rows (2 here); a taped forward runs
    # each level as one product
    from logotree import lm
    from logotree.config import LmConfig
    model, split = small_model
    trees = [decompose(e.ch, rule_table) for e in split.test]
    config = LmConfig(input_kind="hierarchical", layer_sizes=(6,),
                      embed_dim=4, seed=2)
    hier = lm.build_lm(config, list("河湖海江龍"), rules=rule_table)
    products, levels, kernel, running = [], enc.treelstm_levels, enc._cell_gates, []

    def tree_kernel(*args):
        running.append(True)
        try:
            return levels(*args)
        finally:
            running.pop()

    def spy(w, layout, terms, *args):
        if running:
            products.append(len(terms[0][1]))
        return kernel(w, layout, terms, *args)

    monkeypatch.setattr(enc, "treelstm_levels", tree_kernel)
    monkeypatch.setattr(enc, "_cell_gates", spy)
    monkeypatch.setattr(enc, "_FOREST_ROWS", 2)
    paths = {"probe": lambda: diag.probe(model, "賄", rule_table),
             "evaluate": lambda: evaluate(model, split.test, rule_table),
             "gate_bias": lambda: diag.gate_bias(model, trees),
             "eval_lm": lambda: lm.eval_lm(hier, ["河湖海", "江龍河"], chunk=3),
             "lm_step": lambda: lm.lm_step(["河", "湖"], None, hier),
             "greedy_continue": lambda: lm.greedy_continue(hier, "河", 3),
             "lm_embedding_table": lambda: diag.lm_embedding_table(hier)}
    results = {}
    for name, run in paths.items():
        products.clear()
        results[name] = run()
        assert products and max(products) <= 2, (name, products)
    assert len(results["probe"].rows) > 1 and results["gate_bias"].total > 0
    assert set(results["lm_embedding_table"]) >= set("河湖海江龍")
    products.clear()
    with ad.Tape():
        enc.treelstm_batch_forward(trees, model.embeds, model.encoder)
    spans = enc.build_level_schedule(trees, share=True).levels
    assert products == [len(span) for span in spans] and max(products) > 2


# ---------------------------------------------------------------------------
# probing
# ---------------------------------------------------------------------------

def test_probe_single_leaf(small_model, rule_table):
    model, _ = small_model
    trace = diag.probe(model, "一", rule_table)
    assert len(trace.rows) == 1


def test_probe_final_row_equals_model_prediction(small_model, rule_table):
    model, split = small_model
    for entry in split.test[:5]:
        trace = diag.probe(model, entry.ch, rule_table)
        inputs = encode_inputs(model, [entry.ch], rule_table)
        decoded = decode_batch(model, forward_batch(model, inputs))[0]
        last = trace.rows[-1]
        assert {"onset": last.onset, "nucleus": last.nucleus,
                "coda": last.coda} == decoded


def test_probe_trace_length_is_node_count(small_model, rule_table):
    from logotree.ids import node_count
    model, _ = small_model
    tree = decompose("賄", rule_table)
    trace = diag.probe(model, "賄", rule_table)
    assert len(trace.rows) == node_count(tree)


def test_probe_lstm_per_timestep(rule_table, corpus_entries):
    split = build_scenario(corpus_entries, 1, seed=5, sizes=(32, 8, 8))
    config = RunConfig(encoder="lstm", hidden=8, d_in=6, batch_size=16,
                       epochs=1, learning_rate=3e-3, dropout=0.0, seed=3)
    model, _ = train(config, split, rule_table)
    trace = diag.probe(model, "賄", rule_table)
    seq = encode_inputs(model, ["賄"], rule_table)[0]
    assert len(trace.rows) == len(seq)
    inputs = encode_inputs(model, ["賄"], rule_table)
    decoded = decode_batch(model, forward_batch(model, inputs))[0]
    last = trace.rows[-1]
    assert {"onset": last.onset, "nucleus": last.nucleus,
            "coda": last.coda} == decoded


def test_probe_rows_equal_per_tree_oracle(small_model, rule_table):
    # one batch of every node occurrence equals the per-tree walk, node by
    # node in post-order
    model, _ = small_model
    for ch in ["一"] + sorted(rule_table.rules)[:40]:
        trace = diag.probe(model, ch, rule_table)
        _, states = enc.treelstm_forward(decompose(ch, rule_table),
                                         model.embeds, model.encoder)
        assert [row.token for row in trace.rows] == [s.token for s in states]
        for k, (row, state) in enumerate(zip(trace.rows, states)):
            assert row.node_id == k
            np.testing.assert_allclose(row.magnitudes, np.abs(state.h.data[0]),
                                       rtol=0, atol=1e-9)
            assert {"onset": row.onset, "nucleus": row.nucleus,
                    "coda": row.coda} == decode_batch(model, state.h)[0]


def lstm_prefix_oracle(model, seq):
    """Top-layer hidden state after each step, one ``lstm_cell`` at a time."""
    p = model.encoder
    h = [Tensor(np.zeros((1, size))) for size in p.sizes]
    c = [Tensor(np.zeros((1, size))) for size in p.sizes]
    out = []
    for token in seq:
        x = model.embeds.lookup([token])
        for layer in range(len(p.sizes)):
            h[layer], c[layer] = enc.lstm_cell(x, h[layer], c[layer], p, layer)
            x = h[layer]
        out.append(x)
    return out


def test_probe_lstm_rows_are_prefix_final_states(rule_table):
    # each row of a two-layer LSTM's trace is the final state of the
    # linearization's prefix up to that token
    inv = Inventories(onset=["#", "b"], nucleus=["a", "o"], coda=["#"])
    for operators in (True, False):
        config = RunConfig(encoder="lstm", layers=2, hidden=5, d_in=4, seed=19,
                           operators=operators)
        model = build_model(config, inv, sorted(rule_table.leaf_set))
        for ch in ["一", "賄"] + sorted(rule_table.rules)[:20]:
            trace = diag.probe(model, ch, rule_table)
            seq = encode_inputs(model, [ch], rule_table)[0]
            assert [row.token for row in trace.rows] == seq
            for row, h in zip(trace.rows, lstm_prefix_oracle(model, seq),
                              strict=True):
                np.testing.assert_allclose(row.magnitudes, np.abs(h.data[0]),
                                           rtol=0, atol=1e-9)
                assert {"onset": row.onset, "nucleus": row.nucleus,
                        "coda": row.coda} == decode_batch(model, h)[0]


def test_probe_csv_export(small_model, rule_table, tmp_path):
    model, _ = small_model
    trace = diag.probe(model, "賄", rule_table)
    path = tmp_path / "trace.csv"
    diag.probe_to_csv(trace, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("node_id,token,onset,nucleus,coda,h0")
    assert len(lines) == 1 + len(trace.rows)


# ---------------------------------------------------------------------------
# nearest neighbors
# ---------------------------------------------------------------------------

def test_neighbors_excludes_query_and_scales():
    table = {"a": np.array([1.0, 0.0]), "b": np.array([2.0, 0.0]),
             "c": np.array([0.0, 1.0])}
    out = diag.nearest_neighbors(table, "a", 2)
    assert out[0] == ("b", pytest.approx(1.0))  # positive scalar multiple
    assert out[1][0] == "c"


def test_neighbors_orthogonal_tie_breaks_by_codepoint():
    table = {"q": np.array([1.0, 0.0, 0.0]),
             "乙": np.array([0.0, 1.0, 0.0]),
             "甲": np.array([0.0, 0.0, 1.0])}
    out = diag.nearest_neighbors(table, "q", 2)
    assert [ch for ch, _ in out] == ["乙", "甲"]  # U+4E59 < U+7532
    assert all(sim == pytest.approx(0.0) for _, sim in out)


def test_neighbors_zero_norm_excluded():
    table = {"a": np.array([1.0, 0.0]), "z": np.zeros(2),
             "b": np.array([1.0, 1.0])}
    out = diag.nearest_neighbors(table, "a", 5)
    assert [ch for ch, _ in out] == ["b"]


def test_neighbors_rejects_unknown_query():
    with pytest.raises(DataError):
        diag.nearest_neighbors({"a": np.ones(2)}, "x", 1)


def test_cosine_symmetric_and_scale_invariant():
    rng = np.random.default_rng(4)
    a, b = rng.standard_normal(5), rng.standard_normal(5)
    assert diag.cosine_similarity(a, b) == pytest.approx(
        diag.cosine_similarity(b, a))
    assert diag.cosine_similarity(3.0 * a, b) == pytest.approx(
        diag.cosine_similarity(a, 0.5 * b))


def test_lm_embedding_table_sources(rule_table):
    from logotree.config import LmConfig
    from logotree.lm import train_lm
    config = LmConfig(input_kind="hierarchical", layer_sizes=(10,),
                      embed_dim=8, batch_size=1, bptt=4, epochs=1,
                      learning_rate=5e-3, dropout_input=0.0,
                      dropout_hidden=0.0, dropout_output=0.0, seed=5)
    model, _ = train_lm(config, ["河湖海", "江海"], rules=rule_table)
    table = diag.lm_embedding_table(model)
    assert set("河湖海江") <= set(table)
    out = diag.nearest_neighbors(table, "河", 2)
    assert len(out) == 2


@pytest.mark.parametrize("kind", ["standard", "hierarchical"])
def test_lm_embedding_table_values(rule_table, kind):
    # the table holds exactly what the input layer reads: cached composed
    # vectors, auxiliary rows for characters without a tree, lookup rows
    from logotree.config import LmConfig
    from logotree.lm import EOS_TOKEN, UNK_TOKEN, build_cache, train_lm
    config = LmConfig(input_kind=kind, layer_sizes=(10,), embed_dim=8,
                      batch_size=1, bptt=4, epochs=1, learning_rate=5e-3,
                      seed=5)
    model, _ = train_lm(config, ["河湖海龍", "江海"], rules=rule_table)
    table = diag.lm_embedding_table(model)
    assert set(table) == set(model.vocab) - {EOS_TOKEN, UNK_TOKEN}
    cache = build_cache(model) if kind == "hierarchical" else None
    for ch, vec in table.items():
        if kind == "standard":
            expected = model.lookup.data[model.index[ch]]
        elif ch in model.trees:
            expected = cache.vectors[ch]
        else:
            expected = model.aux.data[model.index[ch]]
        assert np.array_equal(vec, expected), ch
    if kind == "hierarchical":
        assert "龍" not in model.trees and "河" in model.trees
