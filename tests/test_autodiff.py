import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logotree import autodiff as ad
from logotree.autodiff import (Adam, Tape, Tensor, check_gradient, concat,
                               dropout, matmul, rows,
                               sigmoid, softmax, softmax_cross_entropy, tanh)
from logotree.errors import ContractError, NumericsError, ShapeError
from oracles import narrow


def rnd(rng, *shape):
    return Tensor(rng.standard_normal(shape))


# ---------------------------------------------------------------------------
# forward values
# ---------------------------------------------------------------------------

def test_softmax_uniform():
    p = softmax(Tensor([[0.0, 0.0, 0.0]]))
    np.testing.assert_allclose(p.data, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-15)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    p = softmax(Tensor(rng.standard_normal((40, 7)) * 30))
    np.testing.assert_allclose(p.data.sum(axis=-1), 1.0, atol=1e-12)


def test_matmul_identity():
    x = Tensor([[1.0], [2.0], [3.0]])
    out = matmul(Tensor(np.eye(3)), x)
    np.testing.assert_array_equal(out.data, x.data)


def test_tanh_zero():
    out = tanh(Tensor(np.zeros((2, 3))))
    np.testing.assert_array_equal(out.data, np.zeros((2, 3)))


def test_shape_errors_name_op():
    with pytest.raises(ShapeError, match="matmul"):
        matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
    with pytest.raises(ShapeError, match="add"):
        ad.add(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))))


def test_cross_entropy_of_certain_prediction_is_zero():
    # -log p of a one-hot target with probability 1
    p = Tensor([[1.0, 0.0, 0.0]])
    onehot = Tensor([[1.0, 0.0, 0.0]])
    picked = (rows(p, [0]) * onehot).sum()
    loss = -float(np.log(picked.data))
    assert loss == 0.0


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------

def test_backward_outer_product_structure():
    rng = np.random.default_rng(1)
    W = rnd(rng, 3, 4)
    x = rnd(rng, 4, 2)
    tp = Tape()
    with tp:
        loss = matmul(W, x).sum()
    tp.backward(loss)
    # d/dW sum(Wx) = ones @ x^T
    np.testing.assert_allclose(W.grad, np.ones((3, 2)) @ x.data.T, atol=1e-12)


def test_backward_unused_parameter_zero():
    x = Tensor(np.ones((2, 2)))
    unused = Tensor(np.ones((2, 2)))
    tp = Tape()
    with tp:
        loss = x.sum()
    tp.backward(loss)
    assert unused.grad is None  # read as zero


def test_backward_sum_gives_ones():
    x = Tensor(np.arange(6.0).reshape(2, 3))
    tp = Tape()
    with tp:
        loss = x.sum()
    tp.backward(loss)
    np.testing.assert_array_equal(x.grad, np.ones((2, 3)))


def test_backward_requires_scalar():
    x = Tensor(np.ones((2, 2)))
    tp = Tape()
    with tp:
        y = x * x
    with pytest.raises(ContractError):
        tp.backward(y)


def test_backward_accumulates_over_reuse():
    x = Tensor([[2.0]])
    tp = Tape()
    with tp:
        loss = (x * x + x * x).sum()
    tp.backward(loss)
    np.testing.assert_allclose(x.grad, [[8.0]])


def _rows_backward(table, idx, g):
    """The gradient ``rows`` hands its table for the output gradient ``g``."""
    tp = Tape()
    with tp:
        rows(table, idx)
    (backward,) = [fn for _, _, fn in tp._entries]
    return backward(g)[0]


@pytest.mark.parametrize("shape", [(1920, 64, 300), (2000, 8, 5), (182, 64, 182),
                                   (24, 64, 182), (0, 3, 4)])
def test_rows_backward_equals_add_at_bitwise(shape):
    n_idx, width, n_rows = shape
    rng = np.random.default_rng(5)
    idx = rng.integers(0, n_rows, n_idx)  # indices repeat
    g = rng.standard_normal((n_idx, width))
    g[::3] = -0.0  # rows that only ever get -0.0 must still read +0.0
    g[1::4, 0] = 0.0
    want = np.zeros((n_rows, width))
    np.add.at(want, idx, g)
    got = _rows_backward(rnd(rng, n_rows, width), idx, g)
    assert got.flags.c_contiguous
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


def test_rows_backward_flattens_indices_and_wraps_negative_ones():
    rng = np.random.default_rng(6)
    table = rnd(rng, 5, 2, 3)
    idx = np.array([[0, -1, 4], [4, 2, -5]])
    g = rng.standard_normal((2, 3, 2, 3))
    want = np.zeros((5, 2, 3))
    np.add.at(want, idx, g)
    np.testing.assert_array_equal(_rows_backward(table, idx, g), want)


def test_rows_backward_keeps_float32():
    ad.set_default_dtype(np.float32)
    try:
        rng = np.random.default_rng(7)
        g = rng.standard_normal((6, 4)).astype(np.float32)
        got = _rows_backward(rnd(rng, 3, 4), [0, 2, 2, 1, 0, 2], g)
    finally:
        ad.set_default_dtype(np.float64)
    want = np.zeros((3, 4), dtype=np.float32)
    np.add.at(want, [0, 2, 2, 1, 0, 2], g)
    assert got.dtype == np.float32
    np.testing.assert_allclose(got, want, rtol=1e-6)


# ---------------------------------------------------------------------------
# check_gradient oracle
# ---------------------------------------------------------------------------

def test_check_gradient_sigmoid():
    rng = np.random.default_rng(2)
    x = rnd(rng, 3, 3)
    assert check_gradient(lambda t: sigmoid(t).sum(), x) < 1e-6


def test_check_gradient_linear_nearly_exact():
    rng = np.random.default_rng(3)
    W = rng.standard_normal((4, 4))
    x = rnd(rng, 4, 1)
    err = check_gradient(lambda t: matmul(Tensor(W), t).sum(), x)
    assert err < 1e-9


def test_check_gradient_full_tree_cell_4dim():
    # the module's own end-to-end oracle: one recursive-cell evaluation
    from logotree import encoders as enc
    rng = np.random.default_rng(99)
    p = enc.TreeLstmParams.init(4, 4, rng)
    xs = [Tensor(rng.standard_normal((1, 4))) for _ in range(3)]
    st = [Tensor(rng.standard_normal((1, 4))) for _ in range(4)]

    def loss():
        c, h = enc.treelstm_node(*xs, *st, p)
        return (h * h).sum() + c.sum()

    for t in list(p.weights.values()) + xs + st:
        assert check_gradient(lambda _x: loss(), t) < 1e-4


def test_check_gradient_rejects_nonscalar():
    x = Tensor(np.ones((2, 2)))
    with pytest.raises(ContractError):
        check_gradient(lambda t: t * t, x)


def test_check_gradient_eps_bounds():
    x = Tensor(np.ones((2,)))
    with pytest.raises(ContractError):
        check_gradient(lambda t: t.sum(), x, eps=0.5)


_PRIMITIVE_CASES = {
    "sigmoid": lambda t: sigmoid(t).sum(),
    "tanh": lambda t: tanh(t).sum(),
    "softmax": lambda t: (softmax(t) * softmax(t)).sum(),
    "softmax_cross_entropy": lambda t: softmax_cross_entropy(t * t, [3, 0, 0, 2]),
    # t in all three roles, so one check covers every gradient it returns
    "affine_cross_entropy": lambda t: ad.affine_cross_entropy(
        tanh(t), t * t, narrow(t, 1, 2, 1).reshape(4), [3, 0, 0, 2]).sum(),
    "mul": lambda t: (t * t).sum(),
    "matmul": lambda t: matmul(t, t.T).sum(),
    "concat": lambda t: concat([t, tanh(t)], axis=-1).sum(),
    "rows": lambda t: (rows(t, [1, 1, 0]) * rows(t, [0, 2, 2])).sum(),
    "permute": lambda t: (ad.permute(t, [2, 0, 3, 1]) * t).sum(),
    "max": lambda t: t.max(axis=1).sum(),
    "reshape": lambda t: (t.reshape(1, 16) * 2.0).sum(),
    "sub": lambda t: (t - tanh(t)).sum(),
}


@pytest.mark.parametrize("name", sorted(_PRIMITIVE_CASES))
def test_primitive_gradients(name):
    rng = np.random.default_rng(hash(name) % 2**32)
    x = rnd(rng, 4, 4)
    assert check_gradient(_PRIMITIVE_CASES[name], x) < 1e-4


@pytest.mark.parametrize("order", [[0, 1, 1], [0, 1], [0, 1, 3], [-1, 0, 1]])
def test_permute_rejects_what_is_not_a_permutation(order):
    with pytest.raises(ContractError, match="not a permutation"):
        ad.permute(Tensor(np.zeros((3, 2))), order)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1,
                max_size=16))
def test_sigmoid_tanh_ranges(values):
    x = Tensor(np.array(values))
    s = sigmoid(x).data
    t = tanh(x).data
    assert np.all(s >= 0.0) and np.all(s <= 1.0)
    assert np.all(t >= -1.0) and np.all(t <= 1.0)
    # strict bounds hold where float64 has not saturated yet
    interior = np.abs(np.array(values)) < 15
    assert np.all(s[interior] > 0.0) and np.all(s[interior] < 1.0)
    assert np.all(t[interior] > -1.0) and np.all(t[interior] < 1.0)


def _masked_sigmoid(x):
    """The boolean-mask form: 1/(1+exp(-x)) where x >= 0, exp(x)/(1+exp(x))
    elsewhere, each evaluated on the gathered entries only."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_bitwise_equals_masked_form():
    rng = np.random.default_rng(46)
    edges = [1000.0, -1000.0, 710.0, -710.0, 745.0, -745.0, 0.0, -0.0, 1e-300,
             -1e-300, 36.0, -36.0]
    x = np.concatenate([rng.standard_normal(500) * 40, edges]).reshape(8, -1)
    with np.errstate(all="raise"):
        got = sigmoid(Tensor(x)).data
    assert np.all(np.isfinite(got))
    assert got.dtype == x.dtype and got.shape == x.shape
    want = _masked_sigmoid(x)
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=2**31 - 1))
def test_gradient_fidelity_random_compositions(n, m, seed):
    rng = np.random.default_rng(seed)
    W = Tensor(rng.standard_normal((m, n)))
    x = rnd(rng, n, 2)

    def f(t):
        h = tanh(matmul(Tensor(W.data), t))
        return (softmax(h.T) * sigmoid(h.T)).sum()

    assert check_gradient(f, x) < 1e-4


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

def test_adam_zero_gradients_leave_params():
    p = Tensor(np.ones((3, 3)), name="w")
    p.grad = np.zeros((3, 3))
    opt = Adam(lr=0.1)
    opt.step({"w": p})
    np.testing.assert_array_equal(p.data, np.ones((3, 3)))


def test_adam_constant_gradient_magnitude_approaches_lr():
    p = Tensor(np.zeros(4), name="w")
    g = np.array([0.5, -2.0, 1.0, -0.1])
    opt = Adam(lr=1e-3)
    prev = p.data.copy()
    for _ in range(200):
        p.grad = g.copy()
        prev = p.data.copy()
        opt.step({"w": p})
    step = np.abs(p.data - prev)
    np.testing.assert_allclose(step, 1e-3, rtol=1e-3)


def test_adam_first_step_is_lr_times_sign():
    p = Tensor(np.zeros(3), name="w")
    p.grad = np.array([4.0, -0.25, 1e3])
    opt = Adam(lr=1e-2)
    opt.step({"w": p})
    np.testing.assert_allclose(p.data, [-1e-2, 1e-2, -1e-2], rtol=1e-4)


def test_adam_shape_mismatch():
    p = Tensor(np.zeros((2, 2)), name="w")
    p.grad = np.zeros(3)
    with pytest.raises(ShapeError):
        Adam(lr=0.1).step({"w": p})


def test_adam_sparse_rows_update_only_touched():
    table = Tensor(np.zeros((5, 2)), name="emb")
    g = np.zeros((5, 2))
    g[1] = 1.0
    g[3] = -1.0
    table.grad = g
    opt = Adam(lr=0.1)
    opt.step({"emb": table}, sparse_rows={"emb": np.array([1, 3])})
    assert np.all(table.data[[0, 2, 4]] == 0.0)
    assert np.all(table.data[1] != 0.0)
    assert np.all(table.data[3] != 0.0)


def test_clip_global_norm():
    a = Tensor(np.zeros(3), name="a")
    a.grad = np.array([3.0, 0.0, 0.0])
    b = Tensor(np.zeros(3), name="b")
    b.grad = np.array([0.0, 4.0, 0.0])
    norm = ad.clip_global_norm([a, b], 1.0)
    assert norm == pytest.approx(5.0)
    total = np.sqrt((a.grad ** 2).sum() + (b.grad ** 2).sum())
    assert total == pytest.approx(1.0)


def test_clip_global_norm_scales_shared_gradients_once():
    # a copy-free reverse pass may leave gradients sharing memory; each must
    # still be scaled exactly once, and the shared array left as it was
    g = np.array([[3.0, 0.0], [0.0, 4.0]])
    a = Tensor(np.zeros((2, 2)), name="a")
    b = Tensor(np.zeros((2, 2)), name="b")
    c = Tensor(np.zeros(2), name="c")
    a.grad, b.grad, c.grad = g, g, g[1]
    norm = ad.clip_global_norm([a, b, c], 2.0)
    hand = np.sqrt(3.0 ** 2 + 4.0 ** 2 + 3.0 ** 2 + 4.0 ** 2 + 4.0 ** 2)
    assert norm == pytest.approx(hand, rel=1e-15)
    s = 2.0 / hand
    np.testing.assert_allclose(a.grad, [[3.0 * s, 0.0], [0.0, 4.0 * s]], rtol=1e-15)
    np.testing.assert_allclose(b.grad, a.grad, rtol=1e-15)
    np.testing.assert_allclose(c.grad, [0.0, 4.0 * s], rtol=1e-15)
    np.testing.assert_array_equal(g, [[3.0, 0.0], [0.0, 4.0]])


def test_clip_global_norm_below_bound_keeps_arrays():
    a = Tensor(np.zeros(2), name="a")
    a.grad = np.array([0.3, 0.4])
    before = a.grad
    assert ad.clip_global_norm([a, Tensor(np.zeros(1))], 1.0) == pytest.approx(0.5)
    assert a.grad is before


# ---------------------------------------------------------------------------
# the epoch loop
# ---------------------------------------------------------------------------

def _fit_step(p: Tensor, value: float, slope: float):
    """A recorded loss ``slope * sum(p) + value - slope * sum(p)``: it reads
    ``value`` and gives ``p`` the gradient ``slope`` everywhere."""
    with Tape() as tape:
        offset = Tensor(value - slope * float(p.data.sum()))
        loss = (p * Tensor(np.full(p.shape, slope))).sum() + offset
    return tape, loss


def test_fit_restores_the_first_best_epoch():
    p = Tensor(np.zeros(2), name="w")
    after, scores = [], iter([3.0, 1.0, 1.0, 2.0])

    def batches(epoch):
        yield (*_fit_step(p, 1.0, 1.0), 1)

    def validate():
        after.append(p.data.copy())
        return next(scores)

    history = ad.fit({"w": p}, Adam(lr=0.1), 5.0, 4, batches, validate)
    assert [score for _, score in history] == [3.0, 1.0, 1.0, 2.0]
    assert all(not np.array_equal(a, b) for a, b in zip(after, after[1:]))
    np.testing.assert_array_equal(p.data, after[1])  # a tie keeps the first


def test_fit_mean_loss_is_weighted_by_step():
    p = Tensor(np.zeros(2), name="w")
    steps = ((1.0, 1), (2.0, 2), (4.0, 5))

    def batches(epoch):
        for value, weight in steps:
            yield (*_fit_step(p, value * (epoch + 1), 0.0), weight)

    history = ad.fit({"w": p}, Adam(lr=0.1), 5.0, 2, batches)
    assert history == [(25.0 / 8, None), (50.0 / 8, None)]


def test_fit_without_validation_keeps_the_last_parameters():
    p = Tensor(np.zeros(2), name="w")
    after = []

    def batches(epoch):
        for _ in range(2):
            yield (*_fit_step(p, 1.0, 1.0), 1)
            after.append(p.data.copy())

    history = ad.fit({"w": p}, Adam(lr=0.1), 5.0, 3, batches)
    assert [score for _, score in history] == [None] * 3
    assert len(after) == 6
    np.testing.assert_array_equal(p.data, after[-1])
    assert not np.array_equal(after[-1], after[-2])


def test_fit_lets_go_of_each_tape_before_the_next_batch():
    # the next batch's forward pass runs while the loop waits for it, so a
    # tape the loop still holds would live through that pass
    import weakref
    p = Tensor(np.zeros(2), name="w")
    checked = []

    def batches(epoch):
        for _ in range(3):
            tape, loss = _fit_step(p, 1.0, 1.0)
            yield tape, loss, 1
            previous = weakref.ref(tape)
            del tape, loss
            checked.append(previous() is None)

    ad.fit({"w": p}, Adam(lr=0.1), 5.0, 2, batches)
    assert checked == [True] * 6


def test_every_gradient_reaches_adam_c_ordered(monkeypatch, rule_table, corpus):
    # a weight read as ``W.T`` (the LM output layer, the pron head, the CNN's
    # projection) gets its gradient through ``transpose``; Adam and the norm
    # clip should still see contiguous C-ordered arrays
    from logotree import lm, pron
    from logotree.config import LmConfig, RunConfig
    from logotree.phono import build_scenario

    seen = []
    step = Adam.step

    def recording_step(self, params, sparse_rows=None):
        seen.append({name: p.grad.flags.c_contiguous
                     for name, p in params.items() if p.grad is not None})
        step(self, params, sparse_rows)

    monkeypatch.setattr(Adam, "step", recording_step)
    lm.train_lm(LmConfig(layer_sizes=(8, 6), embed_dim=4, batch_size=2,
                         bptt=64, epochs=1, seed=1), ["abcab", "bca"])
    split = build_scenario(corpus, 1, seed=5, sizes=(16, 4, 4))
    for encoder in ("treelstm", "cnn"):
        pron.train(RunConfig(encoder=encoder, hidden=8, d_in=6, cnn_filters=4,
                             batch_size=16, epochs=1, seed=5), split,
                   rule_table)
    assert len(seen) == 3  # one LM window, one step of each pron model
    assert {"out.W", "cnn.W_fc"} <= set().union(*seen)
    assert any(name.startswith("head.W_") for name in seen[1])
    assert [sorted(name for name, c in grads.items() if not c)
            for grads in seen] == [[], [], []]


# ---------------------------------------------------------------------------
# dropout
# ---------------------------------------------------------------------------

def test_dropout_rate_zero_all_ones():
    m = dropout(Tensor(np.ones((4, 4))), 0.0, np.random.default_rng(0), True)
    np.testing.assert_array_equal(m.data, np.ones((4, 4)))


def test_dropout_eval_all_ones():
    m = dropout(Tensor(np.ones((4, 4))), 0.4, np.random.default_rng(0), False)
    np.testing.assert_array_equal(m.data, np.ones((4, 4)))


def test_dropout_inverted_mean_near_one():
    m = dropout(Tensor(np.ones(100000)), 0.5, np.random.default_rng(7), True)
    assert 0.98 <= float(m.data.mean()) <= 1.02


def test_dropout_rate_one_rejected():
    with pytest.raises(ContractError):
        dropout(Tensor(np.ones(2)), 1.0, np.random.default_rng(0), True)


def test_dropout_equals_mask_product_bitwise():
    x = rnd(np.random.default_rng(8), 5, 7)
    mask = dropout(Tensor(np.ones(x.data.shape)), 0.3, np.random.default_rng(4), True)
    keep = np.random.default_rng(4).random(x.data.shape) >= 0.3
    np.testing.assert_array_equal(mask.data, keep / 0.7)
    expected = (x * mask).data
    rng = np.random.default_rng(4)
    tp = Tape()
    with tp:
        y = dropout(x, 0.3, rng, True)
        loss = y.sum()
    np.testing.assert_array_equal(y.data, expected)
    tp.backward(loss)
    np.testing.assert_array_equal(x.grad, mask.data)  # g * mask with g = 1
    assert len(tp) == 2  # the constant mask records nothing of its own


def test_dropout_off_returns_input_and_draws_nothing():
    x = Tensor(np.ones((3, 3)))
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    assert dropout(x, 0.4, rng, training=False) is x
    assert dropout(x, 0.0, rng, training=True) is x
    assert dropout(x, 0.0, None, training=True) is x
    assert rng.bit_generator.state == state


def test_dropout_checks_rate_and_rng():
    x = Tensor(np.ones((2, 2)))
    with pytest.raises(ContractError, match="rate"):
        dropout(x, 1.0, np.random.default_rng(0), training=False)
    with pytest.raises(ContractError, match="rng"):
        dropout(x, 0.2, None, training=True)


# ---------------------------------------------------------------------------
# softmax cross-entropy
# ---------------------------------------------------------------------------

def test_cross_entropy_confident_wrong_row_is_finite():
    z = Tensor([[1000.0, 0.0]])
    tp = Tape()
    with tp:
        loss = softmax_cross_entropy(z, [1])
    assert float(loss.data) == 1000.0
    tp.backward(loss)
    np.testing.assert_array_equal(z.grad, [[1.0, -1.0]])


def test_cross_entropy_matches_log_softmax_sum():
    z = rnd(np.random.default_rng(6), 4, 5)
    t = [0, 4, 4, 2]
    p = softmax(z).data
    expected = -sum(np.log(p[k, j]) for k, j in enumerate(t))
    assert float(softmax_cross_entropy(z, t).data) == pytest.approx(expected, rel=1e-14)


def test_cross_entropy_rejects_mismatched_targets():
    with pytest.raises(ShapeError, match="softmax_cross_entropy"):
        softmax_cross_entropy(Tensor(np.zeros((2, 3))), [0])


_CROSS_ENTROPY_CALLS = {
    "softmax_cross_entropy": lambda t: softmax_cross_entropy(Tensor(np.zeros((2, 3))), t),
    "cross_entropy_rows": lambda t: ad.cross_entropy_rows(np.zeros((2, 3)), t),
    "affine_cross_entropy": lambda t: ad.affine_cross_entropy(
        Tensor(np.zeros((2, 4))), Tensor(np.zeros((3, 4))), Tensor(np.zeros(3)), t),
}


@pytest.mark.parametrize("op", sorted(_CROSS_ENTROPY_CALLS))
@pytest.mark.parametrize("targets", [[0], [0, 1, 2], [[0], [1]]])
def test_cross_entropy_shape_errors_name_the_primitive_called(op, targets):
    with pytest.raises(ShapeError, match=rf"^{op}: logits \(2, 3\) and targets"):
        _CROSS_ENTROPY_CALLS[op](targets)


@pytest.mark.parametrize("shapes", [((2, 4), (3, 5), (3,)), ((2, 4), (3, 4), (4,)),
                                    ((2, 4), (3, 4), (3, 1)), ((8,), (3, 8), (3,)),
                                    ((2, 4), (3, 4, 1), (3,))])
def test_affine_cross_entropy_rejects_mismatched_operands(shapes):
    x, w, b = (Tensor(np.zeros(s)) for s in shapes)
    with pytest.raises(ShapeError, match="^affine_cross_entropy: rows"):
        ad.affine_cross_entropy(x, w, b, [0, 1])


def _affine_case(rng, n=7, h=5, v=11):
    x, w, b = rnd(rng, n, h), rnd(rng, v, h), rnd(rng, v)
    t = rng.integers(0, v, n)
    t[1] = t[0]  # a repeated target
    return x, w, b, t


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_affine_cross_entropy_equals_composed_path_bitwise(dtype):
    # one entry against matmul(x, w.T) + b and softmax_cross_entropy: the
    # same operations in the same order, so nothing may differ in any bit
    ad.set_default_dtype(dtype)
    try:
        x, w, b, t = _affine_case(np.random.default_rng(31))

        def run(head):
            for p in (x, w, b):
                p.grad = None
            tp = Tape()
            with tp:
                loss = head() * 0.125
            tp.backward(loss)
            return [loss.data, x.grad, w.grad, b.grad]

        composed = run(lambda: softmax_cross_entropy(matmul(x, w.T) + b, t))
        fused = run(lambda: ad.affine_cross_entropy(x, w, b, t).sum())
        rows_want, _, _ = ad.cross_entropy_rows((matmul(x, w.T) + b).data, t)
        rows_got = ad.affine_cross_entropy(x, w, b, t).data
    finally:
        ad.set_default_dtype(np.float64)
    np.testing.assert_array_equal(rows_got, rows_want)
    for got, want in zip(fused, composed, strict=True):
        assert got.dtype == want.dtype == dtype
        np.testing.assert_array_equal(got, want)
    assert w.grad.flags.c_contiguous


def test_affine_cross_entropy_is_one_tape_entry():
    x, w, b, t = _affine_case(np.random.default_rng(32))
    tp = Tape()
    with tp:
        losses = ad.affine_cross_entropy(x, w, b, t)
    assert len(tp) == 1 and losses.shape == (7,)


def test_affine_cross_entropy_survives_a_1000_logit_margin():
    x = Tensor([[1.0, 0.0], [0.0, 1.0]])
    w = Tensor([[1000.0, 0.0], [0.0, 1000.0], [0.0, 0.0]])
    b = Tensor([0.0, 0.0, 0.0])
    tp = Tape()
    with tp:
        losses = ad.affine_cross_entropy(x, w, b, [1, 2])
        loss = losses.sum()
    np.testing.assert_array_equal(losses.data, [1000.0, 1000.0])
    tp.backward(loss)
    for p in (x, w, b):
        assert np.all(np.isfinite(p.grad))
    np.testing.assert_array_equal(b.grad, [1.0, 0.0, -1.0])


@pytest.mark.parametrize("head", ["softmax_cross_entropy", "affine_cross_entropy"])
def test_cross_entropy_backward_runs_once(head):
    # the backward pass writes the gradient over the forward pass's buffer,
    # so a second reverse pass over the same recording is refused
    x, w, b, t = _affine_case(np.random.default_rng(33))
    tp = Tape()
    with tp:
        if head == "softmax_cross_entropy":
            loss = softmax_cross_entropy(matmul(x, w.T) + b, t)
        else:
            loss = ad.affine_cross_entropy(x, w, b, t).sum()
    tp.backward(loss)
    with pytest.raises(ContractError, match=f"^{head}: a second reverse pass"):
        tp.backward(loss)


# ---------------------------------------------------------------------------
# per-step finiteness
# ---------------------------------------------------------------------------

def test_check_finite_step_names_step_and_worst_parameter():
    a = Tensor(np.zeros(3), name="a")
    b = Tensor(np.zeros((2, 2)), name="b")
    a.grad = np.ones(3)
    b.grad = np.array([[np.inf, np.nan], [1.0, 0.0]])
    norm = ad.clip_global_norm([a, b], 1.0)
    with pytest.raises(NumericsError,
                       match="step 7: loss 0.5, gradient norm nan; 2 non-finite "
                             "gradient entries in 'b'"):
        ad.check_finite_step(7, 0.5, norm, [a, b])
    with pytest.raises(NumericsError, match="step 1: loss nan"):
        ad.check_finite_step(1, float("nan"), 1.0, [a])
    a.grad, b.grad = np.ones(3), np.ones((2, 2))
    ad.check_finite_step(0, 0.5, ad.clip_global_norm([a, b], 1.0), [a, b])


# ---------------------------------------------------------------------------
# misc engine behavior
# ---------------------------------------------------------------------------

def test_float32_mode_forward_backward():
    ad.set_default_dtype(np.float32)
    try:
        rng = np.random.default_rng(11)
        W = Tensor(rng.standard_normal((3, 3)))
        x = Tensor(rng.standard_normal((3, 2)))
        assert W.data.dtype == np.float32
        tp = Tape()
        with tp:
            loss = tanh(matmul(W, x)).sum()
        tp.backward(loss)
        assert W.grad.dtype == np.float32
        assert np.all(np.isfinite(W.grad))
    finally:
        ad.set_default_dtype(np.float64)


def test_set_default_dtype_rejects_others():
    with pytest.raises(ContractError):
        ad.set_default_dtype(np.int32)


def test_no_tape_means_no_recording():
    tp = Tape()
    x = Tensor(np.ones((2, 2)))
    _ = tanh(x)  # outside any tape
    assert len(tp) == 0

