"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Criteria 8 and 9 need the full UniHan + decomposition
download (hours of CPU); they skip unless LOGOTREE_UNIHAN_DIR is set.
"""

import math
import random
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from logotree import diagnostics, encoders as enc, ids, lm, phono, pron
from logotree.autodiff import Tape, Tensor, check_gradient
from logotree.config import LmConfig, RunConfig
from logotree.phono import DatasetSplit, build_scenario, segment_jyutping
from logotree.pron import Inventories, PronHead, predict_pron, pron_loss

import oracles
from conftest import requires_unihan, unihan_dir

DATA = Path(__file__).parent / "data"


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {number:2d} PASS: {description}")


# ---------------------------------------------------------------------------
# 1. gradient fidelity
# ---------------------------------------------------------------------------

def _max_err_over(loss, tensors, eps=1e-5):
    return max(check_gradient(lambda _x: loss(), t, eps=eps) for t in tensors)


def test_criterion_1_gradient_fidelity():
    tol, n_instances = 1e-4, 20
    worst = {}

    for k in range(n_instances):
        rng = np.random.default_rng(1000 + k)

        # treeLSTM node
        p = enc.TreeLstmParams.init(3, 2, rng)
        xs = [Tensor(rng.standard_normal((1, 2))) for _ in range(3)]
        st = [Tensor(rng.standard_normal((1, 3))) for _ in range(4)]

        def tree_loss():
            c, h = enc.treelstm_node(*xs, *st, p)
            return (h * h).sum() + c.sum()

        err = _max_err_over(tree_loss, list(p.weights.values()) + xs + st)
        worst["treelstm-node"] = max(worst.get("treelstm-node", 0), err)

        # LSTM cell
        lp = enc.LstmParams.init(3, 2, rng)
        x = Tensor(rng.standard_normal((1, 2)))
        h0 = Tensor(rng.standard_normal((1, 3)))
        c0 = Tensor(rng.standard_normal((1, 3)))

        def lstm_loss():
            h, c = enc.lstm_cell(x, h0, c0, lp)
            return (h * c).sum()

        err = _max_err_over(lstm_loss, list(lp.weights.values()) + [x, h0, c0])
        worst["lstm-cell"] = max(worst.get("lstm-cell", 0), err)

        # biLSTM end to end
        bp = enc.BiLstmParams.init(2, 2, rng)
        be = enc.VocabEmbeddings("abc", 2, rng)

        def bilstm_loss():
            out = enc.bilstm_batch_forward([["a", "b", "c"]], be, bp)
            return (out * out).sum()

        err = _max_err_over(bilstm_loss,
                            list(bp.params().values()) + [be.table])
        worst["bilstm"] = max(worst.get("bilstm", 0), err)

        # CNN bank
        cp = enc.CnnParams.init(2, 2, rng, n_filters=2)
        ce = enc.VocabEmbeddings("abcd", 2, rng)

        def cnn_loss():
            out = enc.cnn_batch_forward([["a", "b", "c", "d"]], ce, cp)
            return (out * out).sum()

        err = _max_err_over(cnn_loss, list(cp.params().values()) + [ce.table])
        worst["cnn-bank"] = max(worst.get("cnn-bank", 0), err)

        # chained pronunciation head
        inv = Inventories(onset=["#", "b"], nucleus=["a", "i"], coda=["#", "k"])
        head = PronHead.init(3, inv, rng)
        hvec = Tensor(rng.standard_normal((2, 3)))
        targets = [phono.PronEntry("X", "b", "a", "k"),
                   phono.PronEntry("Y", "#", "i", "#")]

        def head_loss():
            return pron_loss(predict_pron(hvec, head), targets, inv)

        err = _max_err_over(head_loss, list(head.weights.values()) + [hvec])
        worst["pron-head"] = max(worst.get("pron-head", 0), err)

    with criterion(1, "gradient fidelity < 1e-4 for all five components "
                      f"(worst: {max(worst.values()):.2e})"):
        for name, err in worst.items():
            assert err < tol, f"{name}: {err}"


# ---------------------------------------------------------------------------
# 2. batching oracle
# ---------------------------------------------------------------------------

def _random_tree(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return ids.Leaf(rng.choice("abcdefgh"))
    return ids.Op(rng.choice("⿰⿱⿴⿵"), _random_tree(rng, depth - 1),
                  _random_tree(rng, depth - 1))


def _oracle_batches(rule_table, readings):
    """Criterion 2's (trees, embeddings, cell) batches: 50 random trees,
    then 200 real ones."""
    rng = np.random.default_rng(2)
    p = enc.TreeLstmParams.init(8, 6, rng)
    embeds = enc.VocabEmbeddings("abcdefgh", 6, rng)
    pyrng = random.Random(2)
    trees = [_random_tree(pyrng, pyrng.randint(1, 8)) for _ in range(50)]

    real_chars = sorted(readings)[:200]
    real_trees = [ids.decompose(ch, rule_table) for ch in real_chars]
    rng = np.random.default_rng(3)
    p2 = enc.TreeLstmParams.init(16, 8, rng)
    embeds2 = enc.VocabEmbeddings(sorted(rule_table.leaf_set), 8, rng)
    return [(trees, embeds, p), (real_trees, embeds2, p2)]


def test_criterion_2_batching_oracle(rule_table, readings):
    max_err = 0.0
    batches = _oracle_batches(rule_table, readings)
    for trees, embeds, p in batches:
        h_bat = enc.treelstm_batch_forward(trees, embeds, p)
        for k, tree in enumerate(trees):
            h_seq, _ = enc.treelstm_forward(tree, embeds, p)
            max_err = max(max_err, float(np.abs(h_bat.data[k] - h_seq.data[0]).max()))

    with criterion(2, "level-batched forward equals sequential within 1e-9 "
                      f"on 50 random + {len(batches[1][0])} real trees "
                      f"(max err {max_err:.2e})"):
        assert max_err < 1e-9


def test_criterion_2_trees_reverse_pass_on_the_helper_equals_inline(
        rule_table, readings, weight_grads):
    # criterion 2 checks the untaped forward, which no helper takes part
    # in; the reverse pass over its trees gives the same bits either way
    for trees, embeds, p in _oracle_batches(rule_table, readings):
        tensors = [*p.weights.values(), embeds.table]

        def run():
            for t in tensors:
                t.grad = None
            with Tape() as tape:
                h = enc.treelstm_batch_forward(trees, embeds, p)
                loss = (h * h).sum()
            tape.backward(loss)
            return [t.grad.copy() for t in tensors]

        on, off = weight_grads.both_ways(run)
        for t, g_on, g_off in zip(tensors, on, off):
            assert g_on.tobytes() == g_off.tobytes(), t.name


# ---------------------------------------------------------------------------
# 3. parser suite
# ---------------------------------------------------------------------------

def test_criterion_3_parser_suite(rule_table):
    with criterion(3, "parser: case tree, corpus-wide termination, "
                      "pre-order round trip, ternary leaf order"):
        tree = ids.decompose("仕", rule_table)
        lv = ids.leaves(tree)
        assert len(lv) == 4
        assert set(lv) == {"人", "丨", "一"}

        # corpus-wide: every rule head terminates with no cycle errors
        for head in rule_table.rules:
            t = ids.decompose(head, rule_table)
            seq = ids.linearize(t, ids.LinearOrder.PRE)
            assert oracles.parse_ids(seq) == t

        # 1000 random ternary trees: binarize preserves leaf order
        pyrng = random.Random(33)

        def raw(depth, budget):
            if depth == 0 or pyrng.random() < 0.3:
                return ids.Leaf(chr(ord("a") + pyrng.randrange(26))), budget
            if budget > 0 and pyrng.random() < 0.5:
                kids = []
                budget -= 1
                for _ in range(3):
                    kid, budget = raw(depth - 1, budget)
                    kids.append(kid)
                return oracles.Nary(pyrng.choice("⿲⿳"), tuple(kids)), budget
            left, budget = raw(depth - 1, budget)
            right, budget = raw(depth - 1, budget)
            return oracles.Nary(pyrng.choice("⿰⿱"), (left, right)), budget

        def raw_leaves(node):
            if isinstance(node, ids.Leaf):
                return [node.token]
            out = []
            for child in node.children:
                out.extend(raw_leaves(child))
            return out

        for _ in range(1000):
            tree, _ = raw(4, 3)
            assert ids.leaves(oracles.binarize(tree)) == raw_leaves(tree)


# ---------------------------------------------------------------------------
# 4. segmentation totality
# ---------------------------------------------------------------------------

def test_criterion_4_segmentation_totality(readings):
    sources = {"shipped corpus": readings}
    full = unihan_dir()
    if full is not None:
        sources["full UniHan"] = phono.parse_unihan_readings(
            full / "Unihan_Readings.txt")
    checked = 0
    with criterion(4, "every kCantonese reading segments and reassembles "
                      "(plus the three exemplars)"):
        assert segment_jyutping("zing") == ("z", "i", "ng")
        assert segment_jyutping("fui") == ("f", "ui", "#")
        assert segment_jyutping("jau") == ("j", "au", "#")
        for name, rmap in sources.items():
            for ch, rs in rmap.items():
                for r in rs:
                    onset, nucleus, coda = segment_jyutping(r)
                    rebuilt = "".join(u for u in (onset, nucleus, coda)
                                      if u != "#")
                    assert rebuilt == r.rstrip("0123456789"), (name, ch, r)
                    checked += 1
    print(f"    segmented {checked} readings")


# ---------------------------------------------------------------------------
# 5. metric identities
# ---------------------------------------------------------------------------

def test_criterion_5_metric_identities():
    with criterion(5, "TER/SER hand counts; uniform-model BPC=2, PPL=4"):
        report = pron.EvalReport(n=2, string_errors=1, token_errors=1,
                                 unit_errors={"onset": 1, "nucleus": 0,
                                              "coda": 0})
        assert round(report.ter, 2) == 16.67
        assert report.ser == 50.0

        config = LmConfig(layer_sizes=(8,), embed_dim=4, epochs=1,
                          batch_size=1, bptt=4, dropout_input=0.0,
                          dropout_hidden=0.0, dropout_output=0.0)
        model = lm.build_lm(config, list("ab"))  # vocab: a, b, EOS, UNK
        model.w_out.data[:] = 0.0
        model.b_out.data[:] = 0.0
        bpc, ppl = lm.eval_lm(model, ["abab", "ba"])
        assert bpc == 2.0
        assert ppl == 4.0


# ---------------------------------------------------------------------------
# 6. overfit capacity
# ---------------------------------------------------------------------------

def test_criterion_6_overfit_capacity(rule_table, corpus):
    split = build_scenario(corpus, 1, seed=6, sizes=(64, 16, 16))
    subset = DatasetSplit(split.train, split.train, split.train, 1, 0)
    first_zero = []
    for seed in (1, 2, 3):
        config = RunConfig(encoder="treelstm", hidden=48, d_in=24,
                           batch_size=64, epochs=500, learning_rate=1e-2,
                           dropout=0.0, seed=seed)
        _, history = pron.train(config, subset, rule_table)
        epochs = [h.epoch for h in history if h.val_ter == 0.0]
        first_zero.append(epochs[0] if epochs else None)
    reached = sum(e is not None for e in first_zero)
    with criterion(6, "treeLSTM reaches training TER 0 on 64 characters "
                      f"within 500 epochs for {reached}/3 seeds "
                      f"(first-zero epochs: {first_zero})"):
        assert reached >= 2


# ---------------------------------------------------------------------------
# 7. cache transparency
# ---------------------------------------------------------------------------

def test_criterion_7_cache_transparency(rule_table):
    lines = ["河湖海江波", "江波海湖河", "湖河波江海"] * 3
    config = LmConfig(input_kind="hierarchical", layer_sizes=(16,),
                      embed_dim=10, batch_size=2, bptt=8, epochs=3,
                      learning_rate=5e-3, dropout_input=0.0,
                      dropout_hidden=0.0, dropout_output=0.0, seed=7)
    model, _ = lm.train_lm(config, lines, rules=rule_table)
    t0 = time.time()
    bpc_plain, _ = lm.eval_lm(model, lines)
    t_plain = time.time() - t0
    cache = lm.build_cache(model)
    t0 = time.time()
    bpc_cached, _ = lm.eval_lm(model, lines, cache=cache)
    t_cached = time.time() - t0
    with criterion(7, f"cached vs uncached BPC differ by "
                      f"{abs(bpc_plain - bpc_cached):.2e} "
                      f"(times {t_plain:.2f}s vs {t_cached:.2f}s)"):
        assert abs(bpc_plain - bpc_cached) < 1e-9


# ---------------------------------------------------------------------------
# 8 + 9. extended stochastic reproduction (full UniHan required)
# ---------------------------------------------------------------------------

@requires_unihan
def test_criterion_8_and_9_stochastic_reproduction():
    base_dir = unihan_dir()
    readings = phono.parse_unihan_readings(base_dir / "Unihan_Readings.txt")
    variants = phono.parse_unihan_variants(base_dir / "Unihan_Variants.txt")
    rules = ids.load_rule_table(base_dir / "ids.txt")
    corpus, dropped = phono.build_corpus(readings, seed=0)
    print(f"full corpus: {len(corpus)} characters ({dropped} dropped)")

    split1 = build_scenario(corpus, 1, seed=0)
    base = RunConfig(encoder="treelstm", epochs=200, seed=0)
    best, _ = pron.grid_search(base, split1, rules)
    model, _ = pron.train(best, split1, rules)
    report = pron.evaluate(model, split1.test, rules)
    with criterion(8, f"scenario-1 treeLSTM test TER {report.ter:.1f} in "
                      "[28, 35]; scenario-2 gap vs 1-layer LSTM"):
        assert 28.0 <= report.ter <= 35.0
        split2 = build_scenario(corpus, 2, seed=0, variants=variants)
        wins = 0
        for seed in range(5):
            from dataclasses import replace
            tree_cfg = replace(best, scenario=2, seed=seed)
            lstm_cfg = replace(best, encoder="lstm", layers=1, scenario=2,
                               seed=seed)
            tree_model, _ = pron.train(tree_cfg, split2, rules)
            lstm_model, _ = pron.train(lstm_cfg, split2, rules)
            tree_ter = pron.evaluate(tree_model, split2.test, rules).ter
            lstm_ter = pron.evaluate(lstm_model, split2.test, rules).ter
            wins += tree_ter < lstm_ter
        assert wins >= 4

    trees = [ids.decompose(e.ch, rules) for e in split1.test]
    gb = diagnostics.gate_bias(model, trees)
    with criterion(9, f"gate bias: {gb.prefer_right}/{gb.total} "
                      f"({gb.percentage:.0f}%) prefer the right forget gate"):
        assert gb.percentage is not None and gb.percentage >= 80.0


# ---------------------------------------------------------------------------
# 10. batching throughput
# ---------------------------------------------------------------------------

def test_criterion_10_batching_throughput(rule_table, readings):
    rng = np.random.default_rng(10)
    chars = sorted(readings)
    trees = [ids.decompose(ch, rule_table) for ch in chars]
    trees = (trees * (1000 // len(trees) + 1))[:1000]
    embeds = enc.VocabEmbeddings(sorted(rule_table.leaf_set), 64, rng)
    p = enc.TreeLstmParams.init(256, 64, rng)

    t0 = time.time()
    for start in range(0, 1000, 128):
        enc.treelstm_batch_forward(trees[start:start + 128], embeds, p)
    t_batched = time.time() - t0

    t0 = time.time()
    for tree in trees:
        enc.treelstm_forward(tree, embeds, p)
    t_single = time.time() - t0

    speedup = t_single / t_batched
    with criterion(10, f"batch-128 forward {speedup:.1f}x faster than "
                       f"batch-1 on 1000 trees "
                       f"({t_batched:.2f}s vs {t_single:.2f}s)"):
        assert speedup >= 3.0
