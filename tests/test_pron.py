import math
import os

import numpy as np
import pytest

from logotree import pron
from logotree.config import ENCODER_KINDS, RunConfig
from logotree.autodiff import Tensor, softmax
from logotree.errors import ContractError, DataError, NumericsError
from logotree.phono import DatasetSplit, PronEntry, build_scenario
from logotree.pron import (EvalReport, HeadOutput, Inventories, PronHead,
                           build_model, evaluate, forward_batch, grid_search,
                           predict_pron, pron_loss, run_matrix, train)

TOY_CONFIG = RunConfig(encoder="treelstm", hidden=24, d_in=12, batch_size=32,
                       epochs=5, learning_rate=3e-3, dropout=0.0, seed=1)


@pytest.fixture(scope="module")
def toy_split(corpus_module):
    corpus = corpus_module
    return build_scenario(corpus, 1, seed=5, sizes=(64, 16, 16))


@pytest.fixture(scope="module")
def corpus_module():
    from logotree import phono
    from pathlib import Path
    readings = phono.parse_unihan_readings(
        Path(__file__).parent / "data" / "mini_readings.txt")
    entries, _ = phono.build_corpus(readings, seed=7)
    return entries


def scalar_head_oracle(h, weights, biases, order, inventories_sizes):
    """Plain-float chained softmax, one unit at a time."""
    feats = list(h)
    probs = {}
    for unit in order:
        W = weights[unit]
        logits = [sum(W[r][c] * feats[c] for c in range(len(feats)))
                  + biases[unit][r] for r in range(len(W))]
        mx = max(logits)
        exps = [math.exp(v - mx) for v in logits]
        s = sum(exps)
        p = [v / s for v in exps]
        probs[unit] = p
        feats = feats + p
    return probs


def make_inventories():
    return Inventories(onset=["#", "b", "z"], nucleus=["a", "i", "u", "o"],
                       coda=["#", "ng", "p", "t", "k"])


def make_head(rng, embed_dim=6, order="cd_nu_on", bias=True):
    return PronHead.init(embed_dim, make_inventories(), rng, order, bias)


# ---------------------------------------------------------------------------
# head
# ---------------------------------------------------------------------------

def test_predict_distributions_sum_to_one():
    rng = np.random.default_rng(0)
    head = make_head(rng)
    h = Tensor(rng.standard_normal((5, 6)))
    out = predict_pron(h, head)
    for unit in pron.UNITS:
        np.testing.assert_allclose(out.probs[unit].data.sum(axis=-1), 1.0, atol=1e-12)
        np.testing.assert_array_equal(out.probs[unit].data,
                                      softmax(out.logits[unit]).data)


def test_predict_zero_weights_uniform():
    rng = np.random.default_rng(1)
    head = make_head(rng)
    for t in head.weights.values():
        t.data[:] = 0.0
    probs = predict_pron(Tensor(np.ones((1, 6))), head).probs
    inv = make_inventories()
    for unit in pron.UNITS:
        n = len(inv.classes(unit))
        np.testing.assert_allclose(probs[unit].data, np.full((1, n), 1.0 / n),
                                   atol=1e-15)


@pytest.mark.parametrize("order", ["cd_nu_on", "on_nu_cd"])
def test_predict_matches_scalar_oracle(order):
    rng = np.random.default_rng(2)
    head = make_head(rng, order=order)
    h = rng.standard_normal((1, 6))
    probs = predict_pron(Tensor(h), head).probs
    weights = {u: head.weights[f"W_{u}"].data.tolist() for u in pron.UNITS}
    biases = {u: head.weights[f"b_{u}"].data.tolist() for u in pron.UNITS}
    oracle = scalar_head_oracle(h[0].tolist(), weights, biases, head.order,
                                None)
    for unit in pron.UNITS:
        np.testing.assert_allclose(probs[unit].data[0], oracle[unit], atol=1e-12)


def test_predict_chain_feeds_probabilities():
    # the second unit's input must include the first unit's distribution
    rng = np.random.default_rng(3)
    head = make_head(rng)
    first = head.order[0]
    h = Tensor(rng.standard_normal((1, 6)))
    base = predict_pron(h, head).probs
    head.weights[f"b_{first}"].data[0] += 3.0  # skew the first unit only
    shifted = predict_pron(h, head).probs
    assert np.abs(base[head.order[1]].data - shifted[head.order[1]].data).max() > 1e-9


def test_decoding_invariant_to_positive_logit_scaling():
    rng = np.random.default_rng(4)
    head = make_head(rng, bias=False)
    h = Tensor(rng.standard_normal((8, 6)))
    first = head.order[0]
    before = predict_pron(h, head).probs[first].data.argmax(axis=-1)
    head.weights[f"W_{first}"].data *= 7.5
    after = predict_pron(h, head).probs[first].data.argmax(axis=-1)
    np.testing.assert_array_equal(before, after)


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------

def head_output(logits: dict) -> HeadOutput:
    """A head output from plain per-unit logit arrays."""
    ts = {u: Tensor(z) for u, z in logits.items()}
    return HeadOutput(ts, {u: softmax(t) for u, t in ts.items()})


def one_hot_logits(inv, entry, scale):
    """Per-unit logits: ``scale`` at the entry's class, 0 elsewhere."""
    out = {}
    for unit in pron.UNITS:
        z = np.zeros((1, len(inv.classes(unit))))
        z[0, inv.index(unit, getattr(entry, unit))] = scale
        out[unit] = z
    return out


def test_loss_perfect_prediction_zero():
    inv = make_inventories()
    target = PronEntry("X", "b", "a", "ng")
    out = head_output(one_hot_logits(inv, target, 1000.0))
    assert all(float(p.data.max()) == 1.0 for p in out.probs.values())
    loss = pron_loss(out, [target], inv)
    assert float(loss.data) == 0.0


def test_loss_confidently_wrong_is_finite():
    inv = make_inventories()
    wrong = PronEntry("X", "z", "o", "k")
    out = head_output(one_hot_logits(inv, wrong, 1000.0))
    assert all(float(p.data.min()) == 0.0 for p in out.probs.values())
    loss = pron_loss(out, [PronEntry("X", "b", "a", "ng")], inv)
    assert float(loss.data) == 3000.0


def test_loss_uniform_closed_form():
    inv = make_inventories()
    a, b, c = (len(inv.classes(u)) for u in ("coda", "nucleus", "onset"))
    out = head_output({u: np.zeros((1, len(inv.classes(u)))) for u in pron.UNITS})
    loss = pron_loss(out, [PronEntry("X", "b", "a", "ng")], inv)
    assert float(loss.data) == pytest.approx(math.log(a) + math.log(b) + math.log(c))


def test_loss_matches_direct_recomputation():
    rng = np.random.default_rng(5)
    inv = make_inventories()
    targets = [PronEntry("X", "b", "a", "ng"), PronEntry("Y", "#", "u", "#")]
    logits = {}
    expected = 0.0
    for unit in pron.UNITS:
        z = rng.standard_normal((2, len(inv.classes(unit)))) * 3
        logits[unit] = z
        for k, t in enumerate(targets):
            row = z[k].tolist()
            target = row[inv.index(unit, getattr(t, unit))]
            expected -= target - math.log(sum(math.exp(v) for v in row))
    loss = pron_loss(head_output(logits), targets, inv)
    assert float(loss.data) == pytest.approx(expected / 2, rel=1e-13)


def test_loss_rejects_out_of_inventory():
    inv = make_inventories()
    out = head_output({u: np.zeros((1, len(inv.classes(u)))) for u in pron.UNITS})
    with pytest.raises(DataError, match=r"^onset class 'q' not in inventory$"):
        pron_loss(out, [PronEntry("X", "q", "a", "ng")], inv)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def test_eval_report_hand_counted():
    report = EvalReport(n=2, string_errors=1, token_errors=1,
                        unit_errors={"onset": 1, "nucleus": 0, "coda": 0})
    assert report.ter == pytest.approx(100 / 6)  # 16.67%
    assert report.ser == pytest.approx(50.0)


def test_eval_report_all_correct():
    report = EvalReport(n=5, string_errors=0, token_errors=0,
                        unit_errors=dict.fromkeys(pron.UNITS, 0))
    assert report.ser == report.ter == 0.0


def test_evaluate_counts(rule_table, toy_split):
    inv = Inventories.from_entries(toy_split.train)
    model = build_model(TOY_CONFIG, inv, sorted(rule_table.leaf_set))
    report = evaluate(model, toy_split.test, rule_table)
    assert 0 <= report.ter <= 100 and 0 <= report.ser <= 100
    # SER >= every per-unit rate; TER is the mean of the three unit rates
    for unit in pron.UNITS:
        assert report.ser >= report.unit_rate(unit) - 1e-9
    mean_units = sum(report.unit_rate(u) for u in pron.UNITS) / 3
    assert report.ter == pytest.approx(mean_units)
    assert report.ser >= report.ter / 3 - 1e-9


def test_decode_rows_equals_row_by_row_argmax_ties_included(rule_table, toy_split):
    inv = Inventories.from_entries(toy_split.train)
    model = build_model(TOY_CONFIG, inv, sorted(rule_table.leaf_set))
    head = model.head
    tied = head.order[1]
    head.weights[f"W_{tied}"].data[:] = 0.0  # a uniform unit: every class ties
    head.weights[f"b_{tied}"].data[:] = 0.0
    width = head.weights[f"W_{head.order[0]}"].data.shape[1]
    h = Tensor(np.random.default_rng(8).standard_normal((10, width)))
    probs = predict_pron(h, head).probs
    row_by_row = [{u: inv.classes(u)[int(np.argmax(probs[u].data[k]))]
                   for u in pron.UNITS} for k in range(10)]
    assert pron.decode_batch(model, h) == row_by_row
    assert {row[tied] for row in row_by_row} == {inv.classes(tied)[0]}
    assert len({row[head.order[0]] for row in row_by_row}) > 1


def test_evaluate_rejects_empty(rule_table, toy_split):
    inv = Inventories.from_entries(toy_split.train)
    model = build_model(TOY_CONFIG, inv, sorted(rule_table.leaf_set))
    with pytest.raises(DataError):
        evaluate(model, [], rule_table)


def test_evaluate_is_pure(rule_table, toy_split):
    inv = Inventories.from_entries(toy_split.train)
    model = build_model(TOY_CONFIG, inv, sorted(rule_table.leaf_set))
    r1 = evaluate(model, toy_split.test, rule_table)
    r2 = evaluate(model, toy_split.test, rule_table)
    assert r1 == r2


@pytest.mark.parametrize("encoder", ["treelstm", "lstm", "bilstm", "cnn"])
def test_embed_rows_are_the_forward_rows_in_input_order(rule_table, encoder):
    # 300 inputs cross the 256-input boundary of a sequence encoder's batches
    chars = sorted(rule_table.rules)
    rng = np.random.default_rng(9)
    chars = [chars[k] for k in rng.integers(0, len(chars), 300)]
    model = build_model(RunConfig(encoder=encoder, hidden=6, d_in=5, seed=2),
                        make_inventories(), sorted(rule_table.leaf_set))
    inputs = pron.encode_inputs(model, chars, rule_table)
    rows = pron.embed_rows(model, inputs)
    assert rows.shape[0] == 300
    for k in range(300):
        np.testing.assert_allclose(rows[k], forward_batch(model, [inputs[k]]).data[0],
                                   rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def test_train_zero_learning_rate_keeps_params(rule_table, toy_split):
    config = RunConfig(encoder="treelstm", hidden=8, d_in=6, batch_size=16,
                       epochs=1, learning_rate=0.0, dropout=0.0, seed=2)
    model, _ = train(config, toy_split, rule_table)
    fresh = build_model(config, Inventories.from_entries(toy_split.train),
                        sorted(rule_table.leaf_set))
    for name, t in model.params().items():
        np.testing.assert_array_equal(t.data, fresh.params()[name].data)


def test_train_deterministic_history(rule_table, toy_split):
    config = RunConfig(encoder="treelstm", hidden=8, d_in=6, batch_size=16,
                       epochs=3, learning_rate=3e-3, dropout=0.1, seed=3)
    _, h1 = train(config, toy_split, rule_table)
    _, h2 = train(config, toy_split, rule_table)
    assert h1 == h2


# per-step losses and a digest of the final parameters of this run, recorded
# before evaluation shared the level slots of repeated subtrees: training
# with input dropout must keep one slot, and one mask row, per occurrence
DROPOUT_RUN = RunConfig(encoder="treelstm", hidden=8, d_in=6, batch_size=16,
                        epochs=2, learning_rate=1e-2, dropout=0.1, seed=4)
DROPOUT_RUN_LOSSES = [7.603580140311129, 7.646708901717796, 7.568760699226836,
                      7.523491159873158, 7.458165293692185, 7.469603194702772,
                      7.451466938227296, 7.39696666166909]
DROPOUT_RUN_DIGEST = ("49f021d7c16abad079e4036c5f8195c4"
                      "cb1a90969dff8079a8f7783ec7515a8f")
# its per-epoch (train_loss, val_ter), recorded before ``autodiff.fit``
# took over the epoch loop
DROPOUT_RUN_HISTORY = [(7.58563522528223, 75.0),
                       (7.4440505220728355, 72.91666666666667)]


def params_digest(model) -> str:
    """The sha256 of a model's parameters, by name, names sorted."""
    import hashlib
    digest = hashlib.sha256()
    for name, t in sorted(model.params().items()):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(t.data).tobytes())
    return digest.hexdigest()


def dropout_run(rule_table, toy_split, monkeypatch):
    """``DROPOUT_RUN``'s step losses and the sha256 of its parameters."""
    losses = []

    def recording_loss(*args, **kwargs):
        loss = real_loss(*args, **kwargs)
        losses.append(float(loss.data))
        return loss

    real_loss = pron.pron_loss
    monkeypatch.setattr(pron, "pron_loss", recording_loss)
    model, history = train(DROPOUT_RUN, toy_split, rule_table)
    monkeypatch.setattr(pron, "pron_loss", real_loss)
    return losses, params_digest(model), history


def test_train_with_input_dropout_reproduces_recorded_run(rule_table, toy_split,
                                                          monkeypatch):
    losses, digest, history = dropout_run(rule_table, toy_split, monkeypatch)
    assert losses == DROPOUT_RUN_LOSSES
    assert digest == DROPOUT_RUN_DIGEST
    assert [(h.train_loss, h.val_ter) for h in history] == DROPOUT_RUN_HISTORY


def test_recorded_run_with_tree_weight_gradients_on_the_helper_and_inline(
        rule_table, toy_split, monkeypatch, weight_grads):
    for losses, digest, history in weight_grads.both_ways(
            lambda: dropout_run(rule_table, toy_split, monkeypatch)):
        assert losses == DROPOUT_RUN_LOSSES
        assert digest == DROPOUT_RUN_DIGEST
        assert [(h.train_loss, h.val_ter) for h in history] == DROPOUT_RUN_HISTORY


# the sha256 of the parameters after one epoch (four Adam steps) of a small
# biLSTM with input dropout, per layer count, recorded while the two
# directions ran one after the other on one thread
BILSTM_DROPOUT_RUN_DIGEST = {
    1: "e7aaf77d50a1a003f69ae374404a661d105111c76a58bdda95cc7e36bf4604d2",
    2: "95fa9cf38ff1f778e62dfe3db53cce56209a97beb3a78552ec3df3dc35332415"}


def bilstm_dropout_run(rule_table, toy_split, layers: int) -> str:
    config = RunConfig(encoder="bilstm", layers=layers, hidden=8, d_in=6,
                       batch_size=16, epochs=1, learning_rate=1e-2,
                       dropout=0.2, seed=6)
    model, _ = train(config, toy_split, rule_table)
    return params_digest(model)


@pytest.mark.parametrize("layers", [1, 2])
def test_bilstm_dropout_run_reproduces_recorded_parameters(
        rule_table, toy_split, weight_grads, layers):
    # with the helper forced to take every window and job, and inline
    for digest in weight_grads.both_ways(
            lambda: bilstm_dropout_run(rule_table, toy_split, layers)):
        assert digest == BILSTM_DROPOUT_RUN_DIGEST[layers]


def test_train_loss_decreases(rule_table, toy_split):
    config = RunConfig(encoder="treelstm", hidden=16, d_in=8, batch_size=32,
                       epochs=10, learning_rate=3e-3, dropout=0.0, seed=4)
    _, history = train(config, toy_split, rule_table)
    assert history[-1].train_loss < history[0].train_loss


@pytest.mark.parametrize("lr,dropout", [(1e-2, 0.0), (3e-3, 0.1), (1e-3, 0.3)])
def test_train_loss_decreases_across_grid_and_seeds(rule_table, toy_split,
                                                    lr, dropout):
    # statistical check: a majority of seeds must improve within 10 epochs
    improved = 0
    for seed in (1, 2, 3):
        config = RunConfig(encoder="treelstm", hidden=16, d_in=8,
                           batch_size=32, epochs=10, learning_rate=lr,
                           dropout=dropout, seed=seed)
        _, history = train(config, toy_split, rule_table)
        improved += history[9].train_loss < history[0].train_loss
    assert improved >= 2


@pytest.mark.parametrize("encoder,layers", [("lstm", 1), ("lstm", 2),
                                            ("bilstm", 1), ("cnn", 1)])
def test_train_all_encoders_smoke(rule_table, toy_split, encoder, layers):
    config = RunConfig(encoder=encoder, layers=layers, hidden=8, d_in=6,
                       cnn_filters=8, batch_size=32, epochs=2,
                       learning_rate=3e-3, dropout=0.1, seed=5)
    model, history = train(config, toy_split, rule_table)
    assert len(history) == 2
    assert all(np.isfinite(h.train_loss) for h in history)
    report = evaluate(model, toy_split.test, rule_table)
    assert 0 <= report.ter <= 100


@pytest.mark.parametrize("encoder", ENCODER_KINDS)
def test_forward_batch_training_dropout_needs_rng(rule_table, toy_split,
                                                  encoder):
    config = RunConfig(encoder=encoder, hidden=8, d_in=6, cnn_filters=8,
                       dropout=0.2, seed=5)
    model = build_model(config, Inventories.from_entries(toy_split.train),
                        sorted(rule_table.leaf_set))
    inputs = pron.encode_inputs(model, [e.ch for e in toy_split.train[:4]],
                                rule_table)
    with pytest.raises(ContractError, match="rng"):
        forward_batch(model, inputs, rng=None, training=True)


def test_train_raises_numerics_error_on_nan_parameter(rule_table, toy_split,
                                                      monkeypatch):
    def poisoned(*args, **kwargs):
        model = build_model(*args, **kwargs)
        model.head.weights["W_onset"].data[0, 0] = np.nan
        return model

    monkeypatch.setattr(pron, "build_model", poisoned)
    with pytest.raises(NumericsError, match="step 0: loss nan.*non-finite gradient entries in"):
        train(TOY_CONFIG, toy_split, rule_table)


def test_train_empty_partition_rejected(rule_table):
    split = DatasetSplit([], [], [])
    with pytest.raises(DataError):
        train(TOY_CONFIG, split, rule_table)


def test_overfit_small_subset(rule_table, toy_split):
    # capacity check scaled down for the unit suite; the acceptance suite
    # runs the full 64-character version
    split = DatasetSplit(toy_split.train[:16], toy_split.train[:16],
                         toy_split.train[:16], scenario=1, seed=0)
    config = RunConfig(encoder="treelstm", hidden=32, d_in=16, batch_size=16,
                       epochs=150, learning_rate=1e-2, dropout=0.0, seed=6)
    model, history = train(config, split, rule_table)
    assert min(h.val_ter for h in history) == 0.0


# ---------------------------------------------------------------------------
# grid search and matrix
# ---------------------------------------------------------------------------

def test_grid_single_cell(rule_table, toy_split):
    config = RunConfig(encoder="treelstm", hidden=8, d_in=6, batch_size=32,
                       epochs=2, dropout=0.0, seed=7)
    best, table = grid_search(config, toy_split, rule_table,
                              learning_rates=(3e-3,), dropouts=(0.1,))
    assert best.learning_rate == 3e-3
    assert best.dropout == 0.1
    assert len(table) == 1


def test_grid_zero_lr_never_beats_learning_cell(rule_table, toy_split):
    config = RunConfig(encoder="treelstm", hidden=16, d_in=8, batch_size=32,
                       epochs=8, dropout=0.0, seed=8)
    best, table = grid_search(config, toy_split, rule_table,
                              learning_rates=(0.0, 1e-2), dropouts=(0.0,))
    zero_cell = next(r for r in table if r["learning_rate"] == 0.0)
    learn_cell = next(r for r in table if r["learning_rate"] == 1e-2)
    assert learn_cell["dev_TER"] < zero_cell["dev_TER"]
    assert best.learning_rate == 1e-2


GRID_IN_FORKED_WORKERS = """
import concurrent.futures, json, multiprocessing, sys
from functools import partial
from pathlib import Path
import numpy as np
from logotree import encoders, ids, phono, pron
from logotree.autodiff import Tape
from logotree.config import RunConfig

data = Path(sys.argv[1])
rules = ids.load_rule_table(data / "mini_ids.txt")
corpus, _ = phono.build_corpus(
    phono.parse_unihan_readings(data / "mini_readings.txt"), seed=7)
split = phono.build_scenario(corpus, 1, seed=5, sizes=(64, 16, 16))
encoder = sys.argv[2]
config = RunConfig(encoder="treelstm" if encoder == "forest" else encoder,
                   hidden=8, d_in=6, batch_size=32, epochs=2, dropout=0.0, seed=7)
# the helper thread is running, with a reverse pass of the encoder or a
# paper-width evaluation done, when the pool forks its workers
encoders._helper = concurrent.futures.ThreadPoolExecutor(1)
if encoder == "forest":  # the forest's level 1 is two chunks, each large
    model = pron.build_model(RunConfig(hidden=256, d_in=64, seed=7),
                             pron.Inventories.from_entries(corpus),
                             sorted(rules.leaf_set))
    pron.evaluate(model, corpus, rules)
else:
    encoders._HAND_OFF = 0
    rng = np.random.default_rng(0)
    embeds = encoders.VocabEmbeddings(sorted(rules.leaf_set), 6, rng)
    trees = [ids.decompose(e.ch, rules) for e in split.train]
    with Tape() as tape:
        if encoder == "treelstm":
            out = encoders.treelstm_batch_forward(
                trees, embeds, encoders.TreeLstmParams.init(8, 6, rng))
        else:
            out = encoders.lstm_batch_forward(
                [ids.linearize(t, ids.LinearOrder.PRE) for t in trees], embeds,
                encoders.LstmParams.init(8, 6, rng))
        loss = out.sum()
    tape.backward(loss)
assert encoders._helper._threads
concurrent.futures.ProcessPoolExecutor = partial(
    concurrent.futures.ProcessPoolExecutor,
    mp_context=multiprocessing.get_context("fork"))
grid = dict(learning_rates=(1e-2, 3e-3), dropouts=(0.0, 0.2))
tables = [pron.grid_search(config, split, rules, n_jobs=n, **grid)[1]
          for n in (2, 1)]
print(json.dumps(tables))
"""


def test_grid_search_in_forked_workers_after_a_tree_backward(tmp_path):
    # a forked worker never waits on its parent's helper thread, which does
    # not exist in the child, and its cells equal those run in-process
    grid_in_forked_workers(tmp_path, "treelstm")


def test_grid_search_in_forked_workers_after_an_lstm_backward(tmp_path):
    grid_in_forked_workers(tmp_path, "lstm")


def test_grid_search_in_forked_workers_after_a_forest_pass(tmp_path):
    # a paper-width evaluate shared its forest levels with the helper
    grid_in_forked_workers(tmp_path, "forest")


def grid_in_forked_workers(tmp_path, encoder):
    import json
    import signal
    import subprocess
    import sys
    from pathlib import Path
    script = tmp_path / "grid.py"
    script.write_text(GRID_IN_FORKED_WORKERS, encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(pron.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.Popen([sys.executable, str(script),
                             str(Path(__file__).parent / "data"), encoder],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=env, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the workers too
        proc.communicate()
        pytest.fail("grid search in forked workers did not finish in 120 s")
    assert proc.returncode == 0, err[-2000:]
    forked, in_process = json.loads(out)
    assert len(forked) == 4
    assert forked == in_process


def test_matrix_single_cell(rule_table, toy_split, tmp_path):
    config = RunConfig(hidden=8, d_in=6, batch_size=32, epochs=2,
                       learning_rate=3e-3, dropout=0.0, seed=9)
    rows = run_matrix(config, {1: toy_split}, rule_table,
                      encoders=(("treelstm", 1),), scenarios=(1,))
    assert len(rows) == 1
    assert rows[0]["model"] == "treelstm"
    path = tmp_path / "matrix.csv"
    pron.write_matrix_csv(rows, path)
    header = path.read_text(encoding="utf-8").splitlines()[0]
    assert header == "model,scenario,order,ablation,SER,TER,onset,nucleus,coda"


def test_matrix_ablation_two_rows(rule_table, toy_split):
    config = RunConfig(hidden=8, d_in=6, batch_size=32, epochs=2,
                       learning_rate=3e-3, dropout=0.0, seed=10)
    rows = run_matrix(config, {1: toy_split}, rule_table,
                      encoders=(("treelstm", 1),), ablations=(False, True))
    assert [r["ablation"] for r in rows] == ["full", "no-operators"]


def test_linearization_study_rows(rule_table, toy_split):
    config = RunConfig(hidden=8, d_in=6, batch_size=32, epochs=2,
                       dropout=0.0, seed=11)
    rows = pron.linearization_study(config, toy_split, rule_table,
                                    encoders=(("lstm", 1),),
                                    linearizations=("pre", "post"),
                                    learning_rates=(3e-3,), dropouts=(0.0,))
    assert [(r["model"], r["linearization"]) for r in rows] == \
        [("lstm-1", "pre"), ("lstm-1", "post")]
    assert all(0 <= r["dev_TER"] <= 100 for r in rows)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def test_save_load_roundtrip(rule_table, toy_split, tmp_path):
    config = RunConfig(encoder="treelstm", hidden=8, d_in=6, batch_size=32,
                       epochs=2, learning_rate=3e-3, dropout=0.0, seed=11)
    model, _ = train(config, toy_split, rule_table)
    path = tmp_path / "model.ckpt"
    pron.save_model(path, model)
    loaded = pron.load_model(path)
    r1 = evaluate(model, toy_split.test, rule_table)
    r2 = evaluate(loaded, toy_split.test, rule_table)
    assert r1 == r2
    for name, t in model.params().items():
        np.testing.assert_array_equal(t.data, loaded.params()[name].data)
