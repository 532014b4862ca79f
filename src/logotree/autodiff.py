"""Minimal dense-tensor engine with reverse-mode differentiation.

Deliberately small: float64 numpy storage, an explicit tape of executed
primitives, and only the operations the encoders need (matmul, add, mul,
sigmoid, tanh, softmax, softmax cross-entropy and its fused affine head,
dropout, concat, gather, sum, max). When no tape is active all
operations run untracked, which is the evaluation path. ``record``,
``taping`` and ``hand_out`` let a module add a fused primitive with its
own backward pass (the encoders' recurrent cells do).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractError, NumericsError, ShapeError

_DEFAULT_DTYPE = np.dtype(np.float64)


def set_default_dtype(dtype) -> None:
    """Select float64 (default) or float32 storage for new tensors."""
    global _DEFAULT_DTYPE
    dt = np.dtype(dtype)
    if dt not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ContractError(f"unsupported dtype {dt}")
    _DEFAULT_DTYPE = dt


class Tensor:
    """Dense row-major array plus the gradient accumulated by a reverse pass."""

    __slots__ = ("data", "grad", "name")

    def __init__(self, data, name: str | None = None):
        self.data = np.asarray(data, dtype=_DEFAULT_DTYPE)
        self.grad = None
        self.name = name

    @property
    def shape(self):
        return self.data.shape

    def __len__(self):
        return len(self.data)

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        return f"Tensor{tag}(shape={self.data.shape})"

    # -- operator sugar over the primitives below ------------------------
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, float(other))
        return mul(self, other)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self):
        return tsum(self)

    def max(self, axis):
        return tmax(self, axis)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 else shape[0])

    @property
    def T(self):
        return transpose(self)


class Tape:
    """Ordered record of executed primitives.

    The record is appended in execution order, which is a topological order
    of the computation graph, so the reverse pass is a single reversed scan.
    """

    def __init__(self):
        self._entries: list = []  # (out, parents, backward_fn)

    def __enter__(self):
        _TAPES.append(self)
        return self

    def __exit__(self, *exc):
        popped = _TAPES.pop()
        assert popped is self
        return False

    def __len__(self):
        return len(self._entries)

    def backward(self, loss: Tensor) -> None:
        """Accumulate d(loss)/d(t) into ``t.grad`` for every tensor on the tape.

        Gradients add across multiple uses of a tensor; tensors not on any
        path to ``loss`` keep ``grad is None`` (read as zero). Gradient
        arrays are values: they may share memory with each other and are
        replaced, never modified in place.
        """
        if loss.data.size != 1:
            raise ContractError(f"loss must be scalar, got shape {loss.data.shape}")
        loss.grad = np.ones_like(loss.data)
        for out, parents, backward_fn in reversed(self._entries):
            g = out.grad
            if g is None:
                continue
            for parent, pg in zip(parents, backward_fn(g)):
                if pg is None:
                    continue
                # gradient arrays are never written in place, so a parent may
                # share memory with ``g``; accumulation builds a fresh array
                parent.grad = pg if parent.grad is None else parent.grad + pg


_TAPES: list[Tape] = []


def record(out: Tensor, parents, backward_fn) -> Tensor:
    """Append one primitive to the active tape, if any, and return ``out``.

    ``backward_fn(g)`` maps the gradient of ``out`` to one gradient (or
    ``None``) per parent. A fused primitive records a whole computation as
    one entry; see ``taping`` and ``hand_out``.
    """
    if _TAPES:
        _TAPES[-1]._entries.append((out, parents, backward_fn))
    return out


def taping() -> bool:
    """Whether operations are being recorded: a fused primitive keeps the
    intermediates of its backward pass only then."""
    return bool(_TAPES)


def zero_grads(params) -> None:
    for p in params:
        p.grad = None


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum-reduce a broadcast gradient back to the operand's shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = Tensor(a.data + b.data)
    except ValueError:
        raise ShapeError(f"add: shapes {a.data.shape} and {b.data.shape}") from None
    return record(out, (a, b), lambda g: (_unbroadcast(g, a.data.shape),
                                          _unbroadcast(g, b.data.shape)))


def sub(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = Tensor(a.data - b.data)
    except ValueError:
        raise ShapeError(f"sub: shapes {a.data.shape} and {b.data.shape}") from None
    return record(out, (a, b), lambda g: (_unbroadcast(g, a.data.shape),
                                          _unbroadcast(-g, b.data.shape)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = Tensor(a.data * b.data)
    except ValueError:
        raise ShapeError(f"mul: shapes {a.data.shape} and {b.data.shape}") from None
    return record(out, (a, b), lambda g: (_unbroadcast(g * b.data, a.data.shape),
                                          _unbroadcast(g * a.data, b.data.shape)))


def scale(a: Tensor, s: float) -> Tensor:
    out = Tensor(a.data * s)
    return record(out, (a,), lambda g: (g * s,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul: operands must be >=2-D, got {a.data.shape} "
                         f"and {b.data.shape}")
    try:
        out = Tensor(np.matmul(a.data, b.data))
    except ValueError:
        raise ShapeError(f"matmul: shapes {a.data.shape} and {b.data.shape}") from None

    def backward(g):
        ad, bd = a.data, b.data
        ga = np.matmul(g, np.swapaxes(bd, -1, -2))
        gb = np.matmul(np.swapaxes(ad, -1, -2), g)
        return _unbroadcast(ga, ad.shape), _unbroadcast(gb, bd.shape)

    return record(out, (a, b), backward)


def transpose(a: Tensor, axis1: int = -1, axis2: int = -2) -> Tensor:
    """``a`` with two axes swapped, by default the last two."""
    if a.data.ndim < 2:
        raise ShapeError(f"transpose: need >=2 dims, got {a.data.shape}")
    out = Tensor(np.swapaxes(a.data, axis1, axis2))  # a view; BLAS reads it in place
    # a C-ordered gradient: a weight read as ``W.T`` reaches the optimizer
    # contiguous, not as a strided view of the product's result
    return record(out, (a,), lambda g: (
        np.ascontiguousarray(np.swapaxes(g, axis1, axis2)),))


def logistic(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The values of ``sigmoid``, into ``out`` (which may be ``x`` itself)
    or else as a new array."""
    # 1/(1+e) for x >= 0 and e/(1+e) below, with e = exp(-|x|): it cannot
    # overflow, and its underflow to 0 at very negative x is expected
    with np.errstate(under="ignore"):
        positive = x >= 0  # read before ``out`` overwrites x
        # e = exp(-|x|), an array even at 0-d
        e = np.abs(x, out=np.empty_like(x) if out is None else out)
        np.exp(np.negative(e, out=e), out=e)
        d = 1.0 + e
        # e becomes the numerator: e <= 1, so max(e, x >= 0) is 1 where
        # x >= 0 and e below, without copyto's branch per element
        np.maximum(e, positive, out=e)
        return np.divide(e, d, out=e)


def sigmoid(a: Tensor) -> Tensor:
    out = Tensor(logistic(a.data))
    return record(out, (a,), lambda g: (g * out.data * (1.0 - out.data),))


def tanh(a: Tensor) -> Tensor:
    out = Tensor(np.tanh(a.data))
    return record(out, (a,), lambda g: (g * (1.0 - out.data * out.data),))


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis; rows sum to 1."""
    z = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(p)

    def backward(g):
        dot = (g * p).sum(axis=-1, keepdims=True)
        return (p * (g - dot),)

    return record(out, (a,), backward)


def _target_ids(op: str, z_shape: tuple, target_ids) -> np.ndarray:
    """``target_ids`` as indices, one per row of (n, V) logits of ``z_shape``."""
    t = np.asarray(target_ids, dtype=np.intp)
    if len(z_shape) != 2 or t.shape != z_shape[:1]:
        raise ShapeError(f"{op}: logits {z_shape} and targets {t.shape}")
    return t


def cross_entropy_rows(z: np.ndarray, target_ids, out: np.ndarray | None = None):
    """Per-row ``-log softmax(z)[row, target_ids[row]]`` of a (n, V) array.

    Each row's loss is computed as logsumexp(row) - row[target], so a target
    whose probability underflows gets a large finite loss rather than inf.
    Returns the (n,) losses and the row softmax's numerators
    ``exp(z - max)`` (n, V), written into ``out`` when given (it may be
    ``z`` itself), and denominators (n, 1).
    """
    t = _target_ids("cross_entropy_rows", z.shape, target_ids)
    m = z.max(axis=-1, keepdims=True)
    picked = z[np.arange(t.size), t]  # read before ``out`` overwrites z
    e = np.subtract(z, m, out=out)
    np.exp(e, out=e)
    s = e.sum(axis=-1, keepdims=True)
    return np.log(s[:, 0]) + (m[:, 0] - picked), e, s


def _logit_grad(op: str, e: np.ndarray, s: np.ndarray, t: np.ndarray):
    """The gradient of ``cross_entropy_rows`` for its numerators ``e`` and
    denominators ``s``: a function of the upstream gradient ``g`` that turns
    ``e`` into (softmax - onehot) * g in place, so it runs once."""
    held = [e]

    def grad(g):
        if not held:
            raise ContractError(f"{op}: a second reverse pass over one "
                                "recording; its buffer holds the first's gradient")
        gz = held.pop()  # the entry lets go of the buffer with its gradient
        gz /= s
        gz[np.arange(t.size), t] -= 1.0
        gz *= g
        return gz

    return grad


def softmax_cross_entropy(logits: Tensor, target_ids) -> Tensor:
    """Sum over rows of ``cross_entropy_rows``.

    The backward pass is (softmax - onehot) * g, written over the forward
    pass's numerators; no one-hot is built.
    """
    t = _target_ids("softmax_cross_entropy", logits.data.shape, target_ids)
    losses, e, s = cross_entropy_rows(logits.data, t)
    grad = _logit_grad("softmax_cross_entropy", e, s, t)
    return record(Tensor(losses.sum()), (logits,), lambda g: (grad(g),))


def affine_cross_entropy(x: Tensor, w: Tensor, b: Tensor, target_ids) -> Tensor:
    """Per-row softmax cross-entropy of the logits ``x @ w.T + b``, one entry.

    The entry owns one (n, V) buffer: the logits, the bias added in place,
    the softmax numerators of ``cross_entropy_rows`` over them, and in the
    backward pass the logit gradient over those. It makes no other (n, V)
    array, where ``softmax_cross_entropy(matmul(x, w.T) + b, ...)`` keeps
    three on the tape and makes two more going back. Every floating-point
    operation is the composed path's, in its order, so losses and
    gradients are equal bit for bit, and the weight gradient is C-ordered.
    """
    xd, wd, bd = x.data, w.data, b.data
    if xd.ndim != 2 or wd.ndim != 2 or xd.shape[1] != wd.shape[1] \
            or bd.shape != wd.shape[:1]:
        raise ShapeError(f"affine_cross_entropy: rows {xd.shape}, weight "
                         f"{wd.shape} and bias {bd.shape}")
    t = _target_ids("affine_cross_entropy", (xd.shape[0], wd.shape[0]),
                    target_ids)
    z = np.matmul(xd, wd.T)
    z += bd
    losses, e, s = cross_entropy_rows(z, t, out=z)
    grad = _logit_grad("affine_cross_entropy", e, s, t)

    def backward(g):
        gz = grad(g[:, None])
        return gz @ wd, np.ascontiguousarray((xd.T @ gz).T), gz.sum(axis=0)

    return record(Tensor(losses), (x, w, b), backward)


def concat(tensors, axis: int = -1) -> Tensor:
    tensors = list(tensors)
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]
    return record(out, tuple(tensors),
                  lambda g: tuple(np.split(g, splits, axis=axis)))


def rows(a: Tensor, idx) -> Tensor:
    """Gather rows ``a[idx]`` along axis 0 (embedding lookup)."""
    idx = np.asarray(idx, dtype=np.intp)
    out = Tensor(a.data[idx])

    def backward(g):
        n, width = a.data.shape[0], math.prod(a.data.shape[1:])
        if idx.size < n:  # few rows: a scatter beats a full-length count per column
            ga = np.zeros_like(a.data)
            np.add.at(ga, idx, g)
            return (ga,)
        # one bincount per column adds the rows in index order, as
        # np.add.at would, bit for bit, at a fraction of its cost
        flat = idx.reshape(-1)
        if flat.size and flat.min() < 0:
            flat = np.where(flat < 0, flat + n, flat)
        cols = np.ascontiguousarray(g.reshape(flat.size, width).T)
        ga = np.empty((n, width), dtype=a.data.dtype)
        for j, col in enumerate(cols):
            ga[:, j] = np.bincount(flat, weights=col, minlength=n)
        return (ga.reshape(a.data.shape),)

    return record(out, (a,), backward)


def permute(a: Tensor, order) -> Tensor:
    """Rows ``a[order]`` for a permutation ``order`` of axis 0.

    As ``rows``, but every row is used once, so the backward pass puts the
    gradient back with one assignment instead of ``np.add.at``.
    """
    order = np.asarray(order, dtype=np.intp)
    if not np.array_equal(np.sort(order), np.arange(a.data.shape[0])):
        raise ContractError(f"permute: {order.tolist()} is not a permutation "
                            f"of {a.data.shape[0]} rows")
    out = Tensor(a.data[order])

    def backward(g):
        ga = np.empty_like(a.data)
        ga[order] = g
        return (ga,)

    return record(out, (a,), backward)


def hand_out(whole: Tensor, view) -> Tensor:
    """``view(whole.data)``, which must be a view, as a tensor of its own.

    The buffer pattern for primitives with several outputs: the primitive
    records one entry whose output is ``whole`` and hands its outputs out
    through this. Their backward passes add into ``view`` of one gradient
    buffer of ``whole``'s shape, allocated by the first of them, which
    ``whole``'s own backward pass then reads. That pass resets
    ``whole.grad`` to ``None``, so a later reverse pass starts afresh.
    """
    out = Tensor(view(whole.data))

    def backward(g):
        if whole.grad is None:
            whole.grad = np.zeros_like(whole.data)
        part = view(whole.grad)
        part += g
        return (None,)

    return record(out, (whole,), backward)


def reshape(a: Tensor, shape) -> Tensor:
    out = Tensor(a.data.reshape(shape))
    return record(out, (a,), lambda g: (g.reshape(a.data.shape),))


def tsum(a: Tensor) -> Tensor:
    """Sum of all entries."""
    out = Tensor(a.data.sum())
    return record(out, (a,), lambda g: (np.broadcast_to(g, a.data.shape).copy(),))


def tmax(a: Tensor, axis: int) -> Tensor:
    """Max-reduce along one axis; gradient routes to the (first) argmax."""
    out = Tensor(a.data.max(axis=axis))
    arg = a.data.argmax(axis=axis)

    def backward(g):
        ga = np.zeros_like(a.data)
        np.put_along_axis(ga, np.expand_dims(arg, axis),
                          np.expand_dims(g, axis), axis=axis)
        return (ga,)

    return record(out, (a,), backward)


# ---------------------------------------------------------------------------
# dropout
# ---------------------------------------------------------------------------

def dropout_mask(rate, rng: np.random.Generator | None, shape) -> np.ndarray:
    """Inverted dropout's constant over ``shape``: each entry 0 with
    probability ``rate`` (a number, or an array that broadcasts against
    ``shape``), else 1/(1-rate), from uniforms drawn in row-major order."""
    if rng is None:
        raise ContractError("training dropout needs an rng")
    return Tensor((rng.random(shape) >= rate) / (1.0 - rate)).data


def apply_mask(x: Tensor, mask: np.ndarray) -> Tensor:
    """``x`` times the constant ``mask``: the backward pass is ``g * mask``
    and, unlike a ``mul`` entry's, computes no gradient for the mask."""
    return record(Tensor(x.data * mask), (x,), lambda g: (g * mask,))


def dropout(x: Tensor, rate: float, rng: np.random.Generator | None,
            training: bool) -> Tensor:
    """Inverted dropout: ``x`` times a ``dropout_mask`` of its shape.

    Returns ``x`` itself when not training or at rate 0, so evaluation
    records nothing.
    """
    if not 0.0 <= rate < 1.0:
        raise ContractError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    return apply_mask(x, dropout_mask(rate, rng, x.data.shape))


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

class Adam:
    """Adam with bias correction.

    Moment tensors are keyed by parameter name and match parameter shapes.
    ``sparse_rows`` restricts a named parameter's update (moments included)
    to the given rows, the lazy variant used for large embedding tables.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8  # Kingma & Ba's defaults

    def __init__(self, lr: float):
        self.lr = lr
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self, params: dict[str, Tensor],
             sparse_rows: dict[str, np.ndarray] | None = None) -> None:
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for name, p in params.items():
            g = p.grad
            if g is None:
                continue
            if g.shape != p.data.shape:
                raise ShapeError(f"adam: grad {g.shape} vs param {p.data.shape}"
                                 f" for {name!r}")
            if name not in self.m:
                self.m[name] = np.zeros_like(p.data)
                self.v[name] = np.zeros_like(p.data)
            m, v = self.m[name], self.v[name]
            if sparse_rows is not None and name in sparse_rows:
                r = np.asarray(sparse_rows[name], dtype=np.intp)
                m[r] = self.beta1 * m[r] + (1 - self.beta1) * g[r]
                v[r] = self.beta2 * v[r] + (1 - self.beta2) * g[r] ** 2
                p.data[r] -= self.lr * (m[r] / c1) / (np.sqrt(v[r] / c2) + self.eps)
            else:
                m *= self.beta1
                m += (1 - self.beta1) * g
                v *= self.beta2
                v += (1 - self.beta2) * g ** 2
                p.data -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.eps)


def clip_global_norm(params, max_norm: float) -> float:
    """Scale all gradients so the global L2 norm is at most ``max_norm``."""
    params = [p for p in params if p.grad is not None]
    total = 0.0
    for p in params:
        total += float((p.grad * p.grad).sum())
    norm = math.sqrt(total)
    if norm > max_norm and norm > 0:
        s = max_norm / norm
        for p in params:
            p.grad = p.grad * s  # rebind: gradients may share memory
    return norm


def check_finite_step(step: int, loss: float, norm: float, params) -> None:
    """Raise ``NumericsError`` when a training step's loss or global gradient
    norm is not finite, naming the step and the parameter with the most
    non-finite gradient entries."""
    if math.isfinite(loss) and math.isfinite(norm):
        return
    counts = {p.name: int(np.count_nonzero(~np.isfinite(p.grad)))
              for p in params if p.grad is not None}
    worst = max(counts, key=counts.get, default=None)
    raise NumericsError(f"step {step}: loss {loss}, gradient norm {norm}; "
                        f"{counts.get(worst, 0)} non-finite gradient entries "
                        f"in {worst!r}")


def train_step(tape: Tape, loss: Tensor, params: dict[str, Tensor],
               optimizer: Adam, clip_norm: float, lazy=()) -> float:
    """One optimizer step on the loss ``tape`` recorded; returns the loss.

    Gradients are zeroed, filled by the reverse pass, clipped to global
    norm ``clip_norm`` and checked finite before ``optimizer`` steps. Each
    table named in ``lazy`` has only its rows with a nonzero gradient
    updated (the lazy Adam of large embedding tables).
    """
    zero_grads(params.values())
    tape.backward(loss)
    norm = clip_global_norm(params.values(), clip_norm)
    value = float(loss.data)
    check_finite_step(optimizer.t, value, norm, params.values())
    sparse = {name: np.flatnonzero(np.abs(params[name].grad).sum(axis=1))
              for name in lazy if params[name].grad is not None}
    optimizer.step(params, sparse_rows=sparse)
    return value


def fit(params: dict[str, Tensor], optimizer: Adam, clip_norm: float,
        epochs: int, batches, validate=None, lazy=()) -> list[tuple]:
    """The epoch loop of both training tasks; returns each epoch's
    ``(mean loss, score)``.

    ``batches(epoch)`` yields one ``(tape, loss, weight)`` per step, each
    recorded after the previous step's ``train_step``; an epoch's mean loss
    is the ``weight``-weighted mean of its step losses. ``validate()``, if
    given, scores the parameters after each epoch, lower being better, and
    the parameters of the first epoch with the lowest score are restored at
    the end. Without it the scores are None and the last parameters stay.
    """
    history = []
    best = None  # (score, parameter snapshot)
    for epoch in range(epochs):
        total, count = 0.0, 0
        for tape, loss, weight in batches(epoch):
            total += train_step(tape, loss, params, optimizer, clip_norm,
                                lazy) * weight
            count += weight
            # the step's tape would otherwise live through the next forward
            del tape, loss
        score = None if validate is None else validate()
        if score is not None and (best is None or score < best[0]):
            best = (score, {k: t.data.copy() for k, t in params.items()})
        history.append((total / count, score))
    if best is not None:
        for k, t in params.items():
            t.data[:] = best[1][k]
    return history


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

def check_gradient(f, x: Tensor, eps: float = 1e-5) -> float:
    """Compare the tape gradient of scalar ``f(x)`` against central differences.

    Returns max over coordinates of |g_ad - g_fd| / max(1, |g_ad|, |g_fd|).
    """
    if not 1e-7 <= eps <= 1e-3:
        raise ContractError(f"eps must be in [1e-7, 1e-3], got {eps}")
    tp = Tape()
    with tp:
        out = f(x)
    if out.data.size != 1:
        raise ContractError("f must be scalar-valued")
    x.grad = None
    tp.backward(out)
    g_ad = np.zeros_like(x.data) if x.grad is None else x.grad.copy()

    g_fd = np.zeros_like(x.data)
    flat = x.data.reshape(-1)
    fd = g_fd.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = float(f(x).data)
        flat[i] = orig - eps
        lo = float(f(x).data)
        flat[i] = orig
        fd[i] = (hi - lo) / (2.0 * eps)

    denom = np.maximum(1.0, np.maximum(np.abs(g_ad), np.abs(g_fd)))
    return float(np.max(np.abs(g_ad - g_fd) / denom)) if flat.size else 0.0
