import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from logotree import autodiff as ad
from logotree import lm
from logotree.autodiff import (Tape, Tensor, rows, softmax,
                               softmax_cross_entropy)
from logotree.checkpoint import save_checkpoint
from logotree.config import LmConfig, config_to_dict
from logotree.errors import ContractError, DataError, NumericsError
from logotree.lm import (EOS_TOKEN, EmbeddingCache, build_cache, build_lm,
                         eval_lm, greedy_continue, lm_step, train_lm)
from oracles import params_digest

TOY = LmConfig(layer_sizes=(24,), embed_dim=12, batch_size=4, bptt=8,
               epochs=5, learning_rate=5e-3, dropout_input=0.0,
               dropout_hidden=0.0, dropout_output=0.0, seed=1)


def toy_lines(n=40, seed=0):
    """Sentences assembled from a small word list: strong local structure."""
    import random
    words = ["人口", "水火", "山水", "日月", "木林", "田土"]
    rng = random.Random(seed)
    return ["".join(rng.choice(words) for _ in range(4)) for _ in range(n)]


def unigram_entropy_bits(lines):
    """Per-character entropy of the empirical unigram distribution over the
    evaluation stream (EOS openers and closers included)."""
    counts = Counter([EOS_TOKEN])
    for line in lines:
        counts.update(line)
        counts[EOS_TOKEN] += 1
    total = sum(counts.values())
    return -sum(c / total * math.log2(c / total) for c in counts.values())


# ---------------------------------------------------------------------------
# lm_step
# ---------------------------------------------------------------------------

def test_step_zero_output_weights_uniform():
    model = build_lm(TOY, list("ab"))
    model.w_out.data[:] = 0.0
    model.b_out.data[:] = 0.0
    dist, _ = lm_step(["a"], None, model)
    np.testing.assert_allclose(dist, np.full(4, 0.25), atol=1e-15)


def test_step_distribution_sums_to_one():
    model = build_lm(TOY, list("abcd"))
    dist, state = lm_step(["a", "b"], None, model)
    assert dist.sum() == pytest.approx(1.0, abs=1e-12)
    dist2, _ = lm_step(["c"], state, model)
    assert dist2.sum() == pytest.approx(1.0, abs=1e-12)


def test_step_unknown_char_maps_to_unk():
    model = build_lm(TOY, list("ab"))
    d1, _ = lm_step(["z"], None, model)
    d2, _ = lm_step([lm.UNK_TOKEN], None, model)
    np.testing.assert_array_equal(d1, d2)


@pytest.mark.parametrize("kind", ["standard", "hierarchical"])
def test_step_prefix_equals_per_character_steps(rule_table, kind):
    # feeding a prefix at once = feeding it one character per call, bit for
    # bit; without a cache given, each call of the hierarchical model
    # composes its trees into a new cache of its own
    config = LmConfig(**{**TOY.__dict__, "input_kind": kind})
    model = build_lm(config, list("河湖海江龍"), rules=rule_table)
    prefix = [EOS_TOKEN] + list("河湖海河龍江z")
    dist, state = lm_step(prefix, None, model)
    one_state = None
    for ch in prefix:
        one_dist, one_state = lm_step([ch], one_state, model)
    assert np.array_equal(dist, one_dist)
    for (h, c), (one_h, one_c) in zip(state, one_state, strict=True):
        assert np.array_equal(h.data, one_h.data)
        assert np.array_equal(c.data, one_c.data)


def test_step_rejects_empty_prefix():
    with pytest.raises(ContractError, match="non-empty"):
        lm_step([], None, build_lm(TOY, list("ab")))


def stepwise_lm_step(model, chars, state, cache=None):
    """One ``StackedLstm.step`` per character: the time-major reference for
    ``lm_step``."""
    if state is None:
        state = model.core.zero_state(1)
    for ch in chars:
        ids = np.array([[model.char_id(ch)]], dtype=np.intp)
        matrix, flat = lm.window_embeddings(model, ids, cache)
        out, state = model.core.step(rows(matrix, flat), state)
    return softmax(lm._logits(model, out)).data[0], state


@pytest.mark.parametrize("kind, cached", [("standard", False),
                                          ("hierarchical", True)])
def test_step_equals_time_major_reference(rule_table, kind, cached):
    config = LmConfig(**{**TOY.__dict__, "input_kind": kind,
                         "layer_sizes": (10, 6)})
    model = build_lm(config, list("河湖海江龍"), rules=rule_table)
    cache = build_cache(model) if cached else None
    state = ref_state = None
    for chars in ([EOS_TOKEN] + list("河湖海龍z"), list("江"), list("波河")):
        kept = [(h.data.copy(), c.data.copy()) for h, c in state or []]
        dist, new_state = lm_step(chars, state, model, cache)
        ref_dist, ref_state = stepwise_lm_step(model, chars, ref_state, cache)
        assert np.array_equal(dist, ref_dist)
        assert len(new_state) == len(ref_state) == 2
        for (h, c), (ref_h, ref_c) in zip(new_state, ref_state):
            assert np.array_equal(h.data, ref_h.data)
            assert np.array_equal(c.data, ref_c.data)
        # the state handed in is left as it was
        for (h, c), (h0, c0) in zip(state or [], kept, strict=True):
            assert np.array_equal(h.data, h0) and np.array_equal(c.data, c0)
        state = new_state


def count_step_rows(monkeypatch) -> list[int]:
    """The rows of every ``StackedLstm.step`` call from now on: one call per
    window, never one per timestep."""
    rows_ = []
    step = lm.StackedLstm.step

    def counting(self, x, *args, **kwargs):
        rows_.append(x.data.shape[0])
        return step(self, x, *args, **kwargs)

    monkeypatch.setattr(lm.StackedLstm, "step", counting)
    return rows_


def test_step_and_greedy_run_one_lstm_layer_per_layer_and_character(monkeypatch):
    calls = []
    layer = lm.enc.lstm_layer

    def counting(x, p, k, state=None, lengths=None):
        calls.append((x.data.shape, k))
        return layer(x, p, k, state, lengths)

    monkeypatch.setattr(lm.enc, "lstm_layer", counting)
    windows = count_step_rows(monkeypatch)
    config = LmConfig(**{**TOY.__dict__, "layer_sizes": (10, 6)})
    model = build_lm(config, list("河湖海"))
    dist, _ = lm_step([EOS_TOKEN, "河", "湖"], None, model)
    assert dist.sum() == pytest.approx(1.0, abs=1e-12)
    assert calls == [((1, 3, 12), 0), ((1, 3, 10), 1)]
    assert windows == [3]
    calls.clear()
    windows.clear()
    model.w_out.data[:] = 0.0
    model.b_out.data[model.index["湖"]] = 1.0
    assert greedy_continue(model, "河", 4) == "湖湖湖湖"
    # the prefix with its EOS opener, then one window per emitted character
    opener = [((1, 2, 12), 0), ((1, 2, 10), 1)]
    assert calls == opener + [((1, 1, 12), 0), ((1, 1, 10), 1)] * 4
    assert windows == [2, 1, 1, 1, 1]


def test_memorization_greedy_continuation():
    line = "abcdefghijklmnopqrst"  # every character has a unique successor
    config = LmConfig(layer_sizes=(32,), embed_dim=16, batch_size=1, bptt=21,
                      epochs=150, learning_rate=1e-2, dropout_input=0.0,
                      dropout_hidden=0.0, dropout_output=0.0, seed=3)
    model, history = train_lm(config, [line])
    assert history[-1]["train_bpc"] < 0.2
    assert greedy_continue(model, "a", len(line) - 1) == line[1:]


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def test_train_beats_unigram_entropy():
    lines = toy_lines()
    config = LmConfig(layer_sizes=(32,), embed_dim=16, batch_size=8, bptt=16,
                      epochs=50, learning_rate=5e-3, dropout_input=0.0,
                      dropout_hidden=0.0, dropout_output=0.0, seed=2)
    model, history = train_lm(config, lines)
    bpc, _ = eval_lm(model, lines)
    assert bpc < unigram_entropy_bits(lines)


def test_train_seed_determinism():
    lines = toy_lines(10)
    m1, h1 = train_lm(TOY, lines)
    m2, h2 = train_lm(TOY, lines)
    assert h1 == h2
    for name, t in m1.params().items():
        np.testing.assert_array_equal(t.data, m2.params()[name].data)
    m3, h3 = train_lm(LmConfig(**{**TOY.__dict__, "seed": 9}), lines)
    assert h1 != h3


def test_train_updates_only_the_embedding_rows_the_windows_touch():
    # no training character maps to <UNK>, so its lookup row never gets a
    # gradient and the lazy Adam update leaves it at its initial value
    lines = toy_lines(10)
    model, _ = train_lm(TOY, lines)
    fresh = build_lm(TOY, sorted({ch for line in lines for ch in line}))
    unk = model.index[lm.UNK_TOKEN]
    np.testing.assert_array_equal(model.lookup.data[unk], fresh.lookup.data[unk])
    moved = np.abs(model.lookup.data - fresh.lookup.data).max(axis=1) > 0
    assert moved.sum() == len(model.vocab) - 1 and not moved[unk]


# per-epoch train_bpc of this run, recorded before the LM's recurrent core
# and loss were replaced by the shared cell and the fused cross-entropy:
# drift in weight initialization order, gate arithmetic or the order of
# dropout draws changes these values
UNEQUAL = LmConfig(layer_sizes=(6, 4), embed_dim=5, batch_size=3, bptt=4,
                   epochs=2, learning_rate=1e-2, dropout_input=0.1,
                   dropout_hidden=0.2, dropout_output=0.25, seed=3)
RECORDED_BPC = {"standard": [3.691065896222854, 3.652572988077062],
                "hierarchical": [2.805988974289567, 2.7916887121434804]}


@pytest.mark.parametrize("kind", sorted(RECORDED_BPC))
def test_unequal_layer_sizes_reproduce_recorded_training(rule_table, kind):
    if kind == "standard":
        lines, rules = toy_lines(12), None
    else:
        lines, rules = ["河湖海江波", "江波海湖河", "湖河波江海"] * 2, rule_table
    config = LmConfig(**{**UNEQUAL.__dict__, "input_kind": kind})
    model, history = train_lm(config, lines, rules=rules)
    np.testing.assert_allclose([h["train_bpc"] for h in history],
                               RECORDED_BPC[kind], rtol=0, atol=1e-12)
    core = {f"core.L{k}.{w}_{g}" for k in (0, 1) for w in ("Wx", "Wh", "b")
            for g in "ifoc"}
    names = set(model.params())
    assert core <= names and {"out.W", "out.b"} <= names
    if kind == "standard":
        assert names == core | {"out.W", "out.b", "lookup"}
    assert model.params()["core.L1.Wx_i"].data.shape == (4, 6)
    assert model.params()["core.L1.Wh_i"].data.shape == (4, 4)


# the sha256 of the trained parameters of this run, recorded while the
# training window stepped the core one timestep at a time: three unequal
# layers, every dropout, and windows of 5 ending in a short one (36
# steps a row standard, 12 hierarchical)
LM_DROPOUT_RUN = LmConfig(layer_sizes=(9, 6, 4), embed_dim=5, batch_size=3,
                          bptt=5, epochs=2, learning_rate=1e-2,
                          dropout_input=0.1, dropout_hidden=0.2,
                          dropout_output=0.25, seed=8)
LM_DROPOUT_RUN_DIGEST = {
    "standard": "c156113486e9e804b16bc5bcc1a890a3e0360371826bc302bc3943165d923544",
    "hierarchical": "0289ce06844d35232a6e8ad114d844be2e7df82b8f542babe4657763708c0a77"}


def lm_dropout_run(rule_table, kind) -> str:
    if kind == "standard":
        lines, rules = toy_lines(12), None
    else:
        lines, rules = ["河湖海江波", "江波海湖河", "湖河波江海"] * 2, rule_table
    config = LmConfig(**{**LM_DROPOUT_RUN.__dict__, "input_kind": kind})
    model, _ = train_lm(config, lines, rules=rules)
    return params_digest(model)


@pytest.mark.parametrize("kind", sorted(LM_DROPOUT_RUN_DIGEST))
def test_lm_dropout_run_reproduces_recorded_parameters(rule_table, kind):
    assert lm_dropout_run(rule_table, kind) == LM_DROPOUT_RUN_DIGEST[kind]


@pytest.mark.parametrize("kind", sorted(LM_DROPOUT_RUN_DIGEST))
def test_lm_dropout_run_with_the_helper_and_inline(rule_table, weight_grads,
                                                    kind):
    # every weight-gradient job on a forced helper, then every job inline
    for digest in weight_grads.both_ways(lambda: lm_dropout_run(rule_table,
                                                                 kind)):
        assert digest == LM_DROPOUT_RUN_DIGEST[kind]


def test_step_training_dropout_needs_rng():
    model = build_lm(UNEQUAL, list("ab"))
    state = model.core.zero_state(2)
    with pytest.raises(ContractError, match="rng"):
        model.core.step(Tensor(np.ones((2, 5))), state, 0.2, None, True)


def test_train_raises_numerics_error_on_nan_parameter(monkeypatch):
    def poisoned(*args, **kwargs):
        model = build_lm(*args, **kwargs)
        model.b_out.data[0] = np.nan
        return model

    monkeypatch.setattr(lm, "build_lm", poisoned)
    with pytest.raises(NumericsError, match="step 0: loss nan.*non-finite gradient entries in"):
        train_lm(TOY, toy_lines(10))


def test_train_empty_corpus_rejected():
    with pytest.raises(DataError):
        train_lm(TOY, [])


def test_train_monotone_smoke_three_seeds():
    lines = toy_lines(30)
    for seed in (1, 2, 3):
        config = LmConfig(layer_sizes=(24,), embed_dim=12, batch_size=4,
                          bptt=16, epochs=10, learning_rate=5e-3,
                          dropout_input=0.0, dropout_hidden=0.0,
                          dropout_output=0.0, seed=seed)
        _, history = train_lm(config, lines)
        assert history[-1]["train_bpc"] < history[0]["train_bpc"]


def test_train_hierarchical_smoke(rule_table):
    lines = ["河湖海江", "河海湖池", "江池湖海"] * 4
    config = LmConfig(input_kind="hierarchical", layer_sizes=(16,),
                      embed_dim=10, batch_size=2, bptt=8, epochs=6,
                      learning_rate=5e-3, dropout_input=0.0,
                      dropout_hidden=0.0, dropout_output=0.0, seed=4)
    model, history = train_lm(config, lines, rules=rule_table)
    assert all(np.isfinite(h["train_bpc"]) for h in history)
    bpc, ppl = eval_lm(model, lines)
    assert np.isfinite(bpc) and ppl == 2.0 ** bpc


def test_train_validation_keeps_best(rule_table):
    lines = toy_lines(20)
    config = LmConfig(layer_sizes=(16,), embed_dim=8, batch_size=4, bptt=8,
                      epochs=6, learning_rate=5e-3, dropout_input=0.0,
                      dropout_hidden=0.0, dropout_output=0.0, seed=5)
    model, history = train_lm(config, lines, valid_lines=lines[:5])
    best = min(h["valid_bpc"] for h in history)
    bpc, _ = eval_lm(model, lines[:5])
    assert bpc == pytest.approx(best, abs=1e-9)


# ---------------------------------------------------------------------------
# the output head: logits and loss as one tape entry
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("kind", ["standard", "hierarchical"])
def test_training_head_equals_logits_and_softmax_cross_entropy_bitwise(
        rule_table, kind, dtype):
    # one training window with every dropout on, scored by the one-entry
    # head and by the composed ``_logits`` + ``softmax_cross_entropy``
    ad.set_default_dtype(dtype)
    try:
        config = LmConfig(**{**UNEQUAL.__dict__, "input_kind": kind})
        model = build_lm(config, list("河湖海江波"), rules=rule_table)
        stream = lm.stream_ids(model, EVAL_LINES)
        window = stream[:18].reshape(3, 6)
        tgts = stream[1:19].reshape(3, 6).T.reshape(-1)  # time-major rows
        params = model.params()

        def run(score):
            ad.zero_grads(params.values())
            tape = Tape()
            with tape:
                h, _ = lm._run_window(model, window, model.core.zero_state(3),
                                      np.random.default_rng(4))
                loss = score(h) * (1.0 / 18)
            tape.backward(loss)
            return loss.data, {k: p.grad for k, p in params.items()}

        want_loss, want = run(lambda h: softmax_cross_entropy(lm._logits(model, h),
                                                              tgts))
        loss, got = run(lambda h: ad.affine_cross_entropy(
            h, model.w_out, model.b_out, tgts).sum())
    finally:
        ad.set_default_dtype(np.float64)
    assert loss.dtype == want_loss.dtype == dtype
    np.testing.assert_array_equal(loss, want_loss)
    assert got.keys() == want.keys() and got["out.W"] is not None
    for name, grad in got.items():
        if want[name] is None:
            assert grad is None, name
            continue
        assert grad.dtype == want[name].dtype == dtype, name
        np.testing.assert_array_equal(grad, want[name], err_msg=name)


def test_train_scores_each_window_with_one_head_entry(monkeypatch):
    entries = []
    head = ad.affine_cross_entropy

    def counting(*args):
        before = len(ad._TAPES[-1])
        out = head(*args)
        entries.append(len(ad._TAPES[-1]) - before)
        return out

    def forbidden(*args):
        raise AssertionError("training built the logits as taped operations")

    monkeypatch.setattr(ad, "affine_cross_entropy", counting)
    monkeypatch.setattr(lm, "_logits", forbidden)
    lines = toy_lines(10)
    train_lm(TOY, lines)
    steps = sum(len(line) + 1 for line in lines) // TOY.batch_size
    windows = -(-steps // TOY.bptt) * TOY.epochs
    assert entries == [1] * windows


def test_train_window_tape_entries_do_not_grow_with_bptt(monkeypatch):
    # the core runs layer by layer over the window, so a window records
    # O(layers) entries, not O(bptt x layers); three layers, every dropout
    entries = []
    step = ad.train_step

    def counting(tape, *args, **kwargs):
        entries.append(len(tape))
        return step(tape, *args, **kwargs)

    monkeypatch.setattr(ad, "train_step", counting)
    counts = {}
    for bptt in (4, 32):
        entries.clear()
        train_lm(LmConfig(**{**LM_DROPOUT_RUN.__dict__, "bptt": bptt,
                             "epochs": 1}), toy_lines(40))
        counts[bptt] = set(entries)
    # 120 steps a row: 30 windows of 4, and 32, 32, 32 and 24
    assert counts[4] == counts[32] and len(counts[4]) == 1


def test_training_head_holds_at_most_two_logit_sized_buffers(monkeypatch):
    # a vocabulary of about 2,000 symbols and 400-row windows: from the end
    # of the window's forward pass through its optimizer step, the head adds
    # one (rows, V) buffer, where the composed path held four or more
    chars = [chr(0x4E00 + k) for k in range(2000)]
    lines = ["".join(chars[k:k + 20]) for k in range(0, 2000, 20)]
    config = LmConfig(layer_sizes=(8,), embed_dim=8, batch_size=100, bptt=4,
                      epochs=1, dropout_input=0.0, dropout_hidden=0.0,
                      dropout_output=0.0, seed=2)
    run_window, step = lm._run_window, ad.train_step
    live, above = [], []

    def forward(*args):
        out = run_window(*args)
        live.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return out

    def measured(tape, loss, *args, **kwargs):
        value = step(tape, loss, *args, **kwargs)
        above.append(tracemalloc.get_traced_memory()[1] - live[-1])
        return value

    monkeypatch.setattr(lm, "_run_window", forward)
    monkeypatch.setattr(ad, "train_step", measured)
    tracemalloc.start()
    try:
        model, _ = train_lm(config, lines)
    finally:
        tracemalloc.stop()
    buffer = 400 * len(model.vocab) * 8
    assert len(model.vocab) == 2002 and len(above) == 6  # five 400-row windows
    assert max(above) <= 2 * buffer, (above, buffer)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def test_uniform_model_bpc_is_log2_vocab():
    # vocabulary of exactly 4: two characters plus EOS and UNK
    model = build_lm(TOY, list("ab"))
    model.w_out.data[:] = 0.0
    model.b_out.data[:] = 0.0
    bpc, ppl = eval_lm(model, ["abab", "ba"])
    assert bpc == pytest.approx(2.0, abs=1e-12)
    assert ppl == pytest.approx(4.0, abs=1e-12)


def test_eval_finite_when_target_probability_underflows():
    model = build_lm(TOY, list("ab"))
    model.w_out.data[:] = 0.0
    model.b_out.data[:] = 0.0
    model.b_out.data[model.index["a"]] = 1000.0  # every other symbol: p = 0
    bpc, _ = eval_lm(model, ["abab", "ba"])
    # targets a b a b EOS b a EOS: five at 1000 nats, three at 0
    assert bpc == pytest.approx(5000.0 / math.log(2) / 8, rel=1e-15)


def test_eval_ppl_is_inf_past_the_float_range():
    # a confident model: 2**BPC overflows a float beyond BPC 1024
    model = build_lm(TOY, list("ab"))
    model.w_out.data[:] = 0.0
    model.b_out.data[:] = 0.0
    model.b_out.data[model.index["a"]] = 2000.0
    bpc, ppl = eval_lm(model, ["abab", "ba"])
    assert bpc == pytest.approx(10000.0 / math.log(2) / 8, rel=1e-15)
    assert ppl == math.inf


def test_ppl_exactly_two_to_bpc():
    model = build_lm(TOY, list("abc"))
    bpc, ppl = eval_lm(model, ["abc", "cab"])
    assert ppl == 2.0 ** bpc


def stepwise_bpc(model, lines, cache=None):
    """BPC from one ``StackedLstm.step`` and one cross-entropy per character:
    the time-major reference for ``eval_lm``."""
    stream = lm.stream_ids(model, lines)
    state = model.core.zero_state(1)
    bits = 0.0
    for t in range(len(stream) - 1):
        matrix, flat = lm.window_embeddings(model, stream[t:t + 1].reshape(1, 1),
                                            cache)
        out, state = model.core.step(rows(matrix, flat), state)
        nats = softmax_cross_entropy(lm._logits(model, out), stream[t + 1:t + 2])
        bits += float(nats.data) / math.log(2)
    return bits / (len(stream) - 1)


# 19 predicted characters: chunks of 1, 3 and 7 end in a partial chunk
EVAL_LINES = ["河湖海江波", "江波海湖河龍", "湖河波江海"]


@pytest.mark.parametrize("kind", ["standard", "hierarchical"])
@pytest.mark.parametrize("chunk", [1, 3, 7, 19])
def test_eval_chunks_equal_step_by_step_reference(rule_table, kind, chunk):
    config = LmConfig(**{**UNEQUAL.__dict__, "input_kind": kind})
    model = build_lm(config, list("河湖海江波"), rules=rule_table)
    cache = build_cache(model) if model.hierarchical else None
    assert len(lm.stream_ids(model, EVAL_LINES)) - 1 == 19
    bpc, ppl = eval_lm(model, EVAL_LINES, cache=cache, chunk=chunk)
    assert bpc == pytest.approx(stepwise_bpc(model, EVAL_LINES, cache),
                                rel=1e-12, abs=0)
    assert ppl == 2.0 ** bpc


@pytest.mark.parametrize("kind", ["standard", "hierarchical"])
def test_eval_chunk_rows_equal_logits_and_cross_entropy_rows_bitwise(
        rule_table, monkeypatch, kind):
    config = LmConfig(**{**UNEQUAL.__dict__, "input_kind": kind})
    model = build_lm(config, list("河湖海江波"), rules=rule_table)
    cache = build_cache(model) if model.hierarchical else None
    scored = []
    head = ad.affine_cross_entropy

    def recording(h, w, b, target_ids):
        out = head(h, w, b, target_ids)
        scored.append((h, target_ids, out.data))
        return out

    monkeypatch.setattr(ad, "affine_cross_entropy", recording)
    eval_lm(model, EVAL_LINES, cache=cache, chunk=7)
    assert [len(t) for _, t, _ in scored] == [7, 7, 5]
    for h, target_ids, nats in scored:
        want, _, _ = ad.cross_entropy_rows(lm._logits(model, h).data, target_ids)
        np.testing.assert_array_equal(nats, want)


@pytest.mark.parametrize("chunk", [1, 4, 256])
def test_eval_runs_one_lstm_layer_per_layer_and_chunk(monkeypatch, chunk):
    calls = []
    layer = lm.enc.lstm_layer

    def counting(x, p, k, state=None, lengths=None):
        calls.append((x.data.shape, k))
        return layer(x, p, k, state, lengths)

    monkeypatch.setattr(lm.enc, "lstm_layer", counting)
    windows = count_step_rows(monkeypatch)
    model = build_lm(UNEQUAL, list("河湖海江波"))
    eval_lm(model, EVAL_LINES, chunk=chunk)
    chunks = -(-19 // chunk)
    assert len(calls) == len(UNEQUAL.layer_sizes) * chunks
    assert [k for _, k in calls] == [0, 1] * chunks
    assert calls[-1][0] == (1, 19 - (chunks - 1) * chunk, 6)
    assert windows == [chunk] * (chunks - 1) + [19 - (chunks - 1) * chunk]


@pytest.mark.parametrize("chunk", [0, -3])
def test_eval_rejects_chunk_below_one(chunk):
    with pytest.raises(ContractError, match="chunk"):
        eval_lm(build_lm(TOY, list("ab")), ["ab"], chunk=chunk)


def test_eval_empty_rejected():
    model = build_lm(TOY, list("ab"))
    with pytest.raises(DataError):
        eval_lm(model, [])


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------

def hier_model(rule_table, seed=6):
    lines = ["河湖海", "江海湖"]
    config = LmConfig(input_kind="hierarchical", layer_sizes=(12,),
                      embed_dim=8, batch_size=1, bptt=6, epochs=2,
                      learning_rate=5e-3, dropout_input=0.0,
                      dropout_hidden=0.0, dropout_output=0.0, seed=seed)
    model, _ = train_lm(config, lines, rules=rule_table)
    return model, lines


def test_cache_matches_fresh_forward(rule_table):
    model, _ = hier_model(rule_table)
    cache = build_cache(model)
    import logotree.encoders as enc
    for ch, vec in cache.vectors.items():
        fresh = enc.treelstm_batch_forward([model.trees[ch]],
                                           model.leaf_embeds, model.tree)
        np.testing.assert_allclose(vec, fresh.data[0], atol=1e-12)


def test_cache_transparent_for_eval(rule_table):
    model, lines = hier_model(rule_table)
    bpc_plain, _ = eval_lm(model, lines)
    bpc_cached, _ = eval_lm(model, lines, cache=build_cache(model))
    assert bpc_plain == bpc_cached


def test_cache_stale_stamp_triggers_rebuild(rule_table):
    model, _ = hier_model(rule_table)
    cache = build_cache(model)
    assert cache.rebuilds == 1
    _ = cache.lookup(model, next(iter(cache.vectors)))
    assert cache.rebuilds == 1  # fresh stamp, no rebuild
    model.version += 1  # parameter update elsewhere
    _ = cache.lookup(model, next(iter(cache.vectors)))
    assert cache.rebuilds == 2


def counted_rebuilds(monkeypatch) -> list[int]:
    """The parameter version of every ``EmbeddingCache.rebuild`` from now on."""
    versions = []
    rebuild = EmbeddingCache.rebuild

    def counted(self, model):
        versions.append(model.version)
        return rebuild(self, model)

    monkeypatch.setattr(EmbeddingCache, "rebuild", counted)
    return versions


@pytest.mark.parametrize("kind", ["standard", "hierarchical"])
def test_uncached_eval_composes_once_for_all_chunks(rule_table, monkeypatch,
                                                    kind):
    config = LmConfig(**{**UNEQUAL.__dict__, "input_kind": kind})
    model = build_lm(config, list("河湖海江波"), rules=rule_table)
    cache = build_cache(model) if model.hierarchical else None
    explicit = eval_lm(model, EVAL_LINES, cache=cache, chunk=7)
    versions = counted_rebuilds(monkeypatch)
    # 19 predicted characters in three chunks; a standard model has no trees
    assert eval_lm(model, EVAL_LINES, chunk=7) == explicit
    assert versions == ([model.version] if model.hierarchical else [])


def test_hierarchical_validation_composes_once_per_epoch(rule_table,
                                                         monkeypatch):
    versions = counted_rebuilds(monkeypatch)
    config = LmConfig(input_kind="hierarchical", layer_sizes=(6,),
                      embed_dim=4, batch_size=1, bptt=4, epochs=3, seed=2)
    model, history = train_lm(config, ["河湖海", "江海湖"], ["湖河江"],
                              rules=rule_table)
    assert [h["epoch"] for h in history if "valid_bpc" in h] == [0, 1, 2]
    # one rebuild after each epoch's steps, every version a new one
    assert len(versions) == 3 and versions == sorted(set(versions))
    assert versions[0] > 0


# ---------------------------------------------------------------------------
# out-of-vocabulary accounting
# ---------------------------------------------------------------------------

def test_oov_stats(rule_table):
    model = build_lm(TOY, list("河湖"))
    stats = lm.oov_stats(model, ["河湖海", "龍蒸"], rules=rule_table)
    assert stats["n_oov"] == 3  # 海, 蒸, 龍
    assert stats["n_oov_composable"] == 2  # 海 and 蒸 decompose; 龍 cannot


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def test_lm_save_load_roundtrip(tmp_path, rule_table):
    model, lines = hier_model(rule_table)
    path = tmp_path / "lm.ckpt"
    lm.save_lm(path, model)
    loaded = lm.load_lm(path, rules=rule_table)
    b1, _ = eval_lm(model, lines)
    b2, _ = eval_lm(loaded, lines)
    assert b1 == pytest.approx(b2, abs=1e-12)


def test_load_lm_drops_stored_cache_embeddings_key(tmp_path):
    # older checkpoints store a ``cache_embeddings`` field that LmConfig no
    # longer has; they load, and the key is ignored
    model, _ = train_lm(LmConfig(**{**TOY.__dict__, "epochs": 1}), toy_lines(8))
    manifest = {"kind": "language-model",
                "config": {**config_to_dict(model.config),
                           "cache_embeddings": False},
                "vocab": model.vocab, "leaf_vocab": None, "tree_chars": None}
    path = tmp_path / "old.ckpt"
    save_checkpoint(path, {k: t.data for k, t in model.params().items()},
                    manifest)
    loaded = lm.load_lm(path)
    assert loaded.config == model.config
    for name, t in model.params().items():
        assert np.array_equal(loaded.params()[name].data, t.data)
