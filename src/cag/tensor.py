"""Dense float64 tensors with reverse-mode automatic differentiation.

Every operation records a backward closure on the output tensor; calling
:func:`backward` on a scalar loss walks the recorded graph once in reverse
topological order and accumulates gradients into ``.grad``. Gradients on
leaf tensors accumulate across calls, except on the ``params`` that
:func:`backward` is given, which it zero-fills first. Intermediate
tensors are created fresh per forward pass, so a pass owns its tape.
:func:`no_grad` switches recording through one process-global flag, so
passes must not run concurrently: a ``no_grad`` block in one thread turns
recording off for every other thread too.

The LSTM recurrence is one fused primitive (:func:`lstm_sequence`): a whole
sequence records a single tape node. Its products with the input weights,
the inputs and the hidden states are formed once per sequence, so only the
recurrence runs per timestep, and each step's four gates take one ``tanh``
call. The sigmoid is one formula everywhere, ``0.5 + 0.5 * tanh(0.5 * x)``
(:func:`_sigmoid`). For a one-token sequence, values and gradients are
bit-identical to the same LSTM composed from the per-op primitives; for
longer ones the per-sequence products sum in another order, and agree with
that composition to within 1e-12 of each array's largest entry.
"""

from __future__ import annotations

import contextlib
import functools
from typing import Iterable, Sequence

import numpy as np

EPS_L2NORM = 1e-12


class ShapeError(ValueError):
    """Operand shapes do not conform for the requested operation."""


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the block (evaluation fast path)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """A float64 array plus an optional gradient slot.

    ``requires_grad`` marks trainable leaves; operation outputs require
    grad whenever any input does and tape recording is enabled.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._backward = None
        self._parents: tuple = ()

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def __add__(self, other: "Tensor") -> "Tensor":
        return add(self, other)

    def __mul__(self, other: "Tensor") -> "Tensor":
        return mul(self, other)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        return matmul(self, other)

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return tensor_sum(self, axis=axis, keepdims=keepdims)

    def item(self) -> float:
        return float(self.data)


def _out(data: np.ndarray, parents: tuple, backward) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    return out


def _accum(t: Tensor, g: np.ndarray) -> None:
    if t.requires_grad:
        if t.grad is None:
            t.grad = g.copy() if isinstance(g, np.ndarray) else np.asarray(g)
        else:
            t.grad = t.grad + g


def constant(data) -> Tensor:
    return Tensor(np.asarray(data, dtype=np.float64))


def parameter(shape: tuple[int, ...], rng: np.random.Generator | None = None,
              scale_: float | None = None) -> Tensor:
    """Leaf tensor with ``requires_grad=True``, drawn from uniform(-scale, scale);
    zeros when ``rng`` is None (a shell for checkpoint loading to fill in)."""
    data = np.zeros(shape) if rng is None else rng.uniform(-scale_, scale_, size=shape)
    return Tensor(data, requires_grad=True)


# ---------------------------------------------------------------------------
# elementwise / structural primitives
# ---------------------------------------------------------------------------


def _check_same_shape(op: str, a: Tensor, b: Tensor) -> None:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{op}: shapes {a.data.shape} and {b.data.shape} do not match")


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape("add", a, b)

    def bw(g):
        _accum(a, g)
        _accum(b, g)

    return _out(a.data + b.data, (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Hadamard (elementwise) product."""
    _check_same_shape("mul", a, b)
    ad, bd = a.data, b.data

    def bw(g):
        _accum(a, g * bd)
        _accum(b, g * ad)

    return _out(ad * bd, (a, b), bw)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul: shapes {a.data.shape} and {b.data.shape} do not conform")
    ad, bd = a.data, b.data

    def bw(g):
        _accum(a, g @ bd.T)
        _accum(b, ad.T @ g)

    return _out(ad @ bd, (a, b), bw)


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError(f"transpose: expected a matrix, got shape {a.data.shape}")

    def bw(g):
        _accum(a, g.T)

    return _out(a.data.T.copy(), (a,), bw)


def concat(parts: Sequence[Tensor], axis: int) -> Tensor:
    if not parts:
        raise ShapeError("concat: no operands")
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)
    parts = tuple(parts)

    def bw(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            _accum(p, g[tuple(sl)])

    return _out(np.concatenate([p.data for p in parts], axis=axis), parts, bw)


def take_rows(a: Tensor, start: int, stop: int) -> Tensor:
    """Contiguous row slice of a matrix; backward scatters into the slice."""
    if a.data.ndim != 2 or not (0 <= start < stop <= a.data.shape[0]):
        raise ShapeError(f"take_rows: rows [{start}:{stop}] invalid for shape {a.data.shape}")
    shape = a.data.shape

    def bw(g):
        full = np.zeros(shape)
        full[start:stop] = g
        _accum(a, full)

    return _out(a.data[start:stop].copy(), (a,), bw)


def take_col(a: Tensor, j: int) -> Tensor:
    """Column j of a matrix as a (rows, 1) tensor."""
    if a.data.ndim != 2 or not (0 <= j < a.data.shape[1]):
        raise ShapeError(f"take_col: column {j} invalid for shape {a.data.shape}")
    shape = a.data.shape

    def bw(g):
        full = np.zeros(shape)
        full[:, j : j + 1] = g
        _accum(a, full)

    return _out(a.data[:, j : j + 1].copy(), (a,), bw)


def broadcast_cols(a: Tensor, n: int) -> Tensor:
    """Tile a (d, 1) column against a length-n row of ones, giving (d, n)."""
    if a.data.ndim != 2 or a.data.shape[1] != 1:
        raise ShapeError(f"broadcast_cols: expected a column (d, 1), got {a.data.shape}")
    if n < 1:
        raise ShapeError(f"broadcast_cols: need n >= 1, got {n}")

    def bw(g):
        _accum(a, g.sum(axis=1, keepdims=True))

    return _out(np.repeat(a.data, n, axis=1), (a,), bw)


def tensor_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    shape = a.data.shape

    def bw(g):
        if axis is None:
            _accum(a, np.broadcast_to(g, shape).copy())
        else:
            gg = g if keepdims else np.expand_dims(g, axis)
            _accum(a, np.broadcast_to(gg, shape).copy())

    return _out(a.data.sum(axis=axis, keepdims=keepdims), (a,), bw)


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)

    def bw(g):
        _accum(a, g * (1.0 - y * y))

    return _out(y, (a,), bw)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """0.5 + 0.5 * tanh(0.5 * x), in place on one buffer. tanh saturates
    without overflow: +-inf give exactly 1 and 0, and NaN stays NaN. The
    absolute error is at most 2.2e-16; below x = -38 the result is 0."""
    y = np.multiply(x, 0.5, out=np.empty(np.shape(x)))
    np.tanh(y, out=y)
    y *= 0.5
    y += 0.5
    return y


def sigmoid(a: Tensor) -> Tensor:
    y = _sigmoid(a.data)

    def bw(g):
        _accum(a, g * y * (1.0 - y))

    return _out(y, (a,), bw)


def dropout(a: Tensor, keep_prob: float, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: a random mask scaled by 1/keep_prob (identity at keep_prob 1)."""
    if not (0.0 < keep_prob <= 1.0):
        raise ValueError(f"dropout: keep_prob must be in (0, 1], got {keep_prob}")
    if keep_prob == 1.0:
        return a
    if rng is None:
        raise ValueError("dropout: needs an rng")
    mask = (rng.random(a.data.shape) < keep_prob) / keep_prob

    def bw(g):
        _accum(a, g * mask)

    return _out(a.data * mask, (a,), bw)


# ---------------------------------------------------------------------------
# normalizations
# ---------------------------------------------------------------------------


def masked_softmax(a: Tensor, mask: np.ndarray | None, axis: int) -> Tensor:
    """Stable (max-subtracted) softmax along ``axis`` restricted to ``mask``
    positions; masked-out entries are exactly 0. ``mask=None`` keeps every
    position: the plain softmax, bit for bit the all-True mask's result.

    The mask is a routing decision, not a variable: no gradient flows to
    masked-out entries.
    """
    if a.data.shape[axis] == 0:
        raise ShapeError(f"masked_softmax: empty axis {axis} in shape {a.data.shape}")
    if mask is None:
        e = np.exp(a.data - a.data.max(axis=axis, keepdims=True))
    else:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != a.data.shape:
            raise ShapeError(f"masked_softmax: mask {mask.shape} vs data {a.data.shape}")
        if not mask.any(axis=axis).all():
            raise ValueError("masked_softmax: some slice has no unmasked entry")
        neg = np.where(mask, a.data, -np.inf)
        z = neg - neg.max(axis=axis, keepdims=True)
        e = np.where(mask, np.exp(z), 0.0)
    y = e / e.sum(axis=axis, keepdims=True)

    def bw(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        _accum(a, y * (g - dot))

    return _out(y, (a,), bw)


def l2_normalize(a: Tensor, axis: int) -> Tensor:
    """Scale each slice along ``axis`` to unit norm; sqrt(sum(x^2) + eps) guards zero."""
    x = a.data
    norm = np.sqrt((x * x).sum(axis=axis, keepdims=True) + EPS_L2NORM)
    y = x / norm

    def bw(g):
        dot = (g * x).sum(axis=axis, keepdims=True)
        _accum(a, g / norm - x * dot / norm**3)

    return _out(y, (a,), bw)


def softmax_cross_entropy(logits: Tensor, target: int) -> Tensor:
    """-log softmax(logits)[target] for a single row of logits, as a scalar."""
    flat = logits.data.reshape(-1)
    n = flat.shape[0]
    if logits.data.ndim > 2 or (logits.data.ndim == 2 and logits.data.shape[0] != 1):
        raise ShapeError(f"softmax_cross_entropy: expected a logit row, got {logits.data.shape}")
    if not (0 <= target < n):
        raise ValueError(f"softmax_cross_entropy: target {target} out of range [0, {n})")
    m = flat.max()
    e = np.exp(flat - m)
    lse = m + np.log(e.sum())
    probs = e / e.sum()
    shape = logits.data.shape

    def bw(g):
        d = probs.copy()
        d[target] -= 1.0
        _accum(logits, float(g) * d.reshape(shape))

    return _out(np.asarray(lse - flat[target]), (logits,), bw)


# ---------------------------------------------------------------------------
# embedding lookup
# ---------------------------------------------------------------------------


def embedding_cols(table: Tensor, ids: Sequence[int]) -> Tensor:
    """Columns of word vectors for ``ids``: column j is table row ids[j]."""
    ids = np.asarray(ids, dtype=np.intp)
    vocab = table.data.shape[0]
    if ids.size == 0:
        raise ShapeError("embedding_cols: empty id sequence")
    if (ids < 0).any() or (ids >= vocab).any():
        bad = ids[(ids < 0) | (ids >= vocab)][0]
        raise ValueError(f"embedding_cols: id {bad} out of range for vocab size {vocab}")
    out = table.data[ids].T.copy()
    tshape = table.data.shape

    def bw(g):
        gt = np.zeros(tshape)
        np.add.at(gt, ids, g.T)
        _accum(table, gt)

    return _out(out, (table,), bw)


# ---------------------------------------------------------------------------
# fused recurrence
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=8)
def _gate_affine(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (scale, offset) rows that give all four gates from one tanh
    call: ``tanh(pre * scale) * scale + offset``. On the i/f/o rows (scale
    0.5, offset 0.5) these are :func:`_sigmoid`'s operations, in its order;
    on the cell rows (scale 1, offset -0.0) it is ``tanh`` itself, since
    multiplying by 1 and adding -0.0 change no bit, -0.0 included."""
    scale = np.full(4 * d, 0.5)
    scale[2 * d : 3 * d] = 1.0
    offset = np.full(4 * d, 0.5)
    offset[2 * d : 3 * d] = -0.0
    scale.flags.writeable = offset.flags.writeable = False
    return scale, offset


def lstm_sequence(seq: Tensor, w_x: Tensor, w_h: Tensor, b: Tensor) -> Tensor:
    """Hidden states (d, m) of a single-layer LSTM run over the columns of ``seq``.

    Gates are stacked [input, forget, cell, output] along the rows of ``w_x``
    (4d, d_in), ``w_h`` (4d, d) and ``b`` (4d, 1). Hidden and cell states
    start at zero.

    The run records one tape node whose backward is hand-written BPTT. Every
    product with ``w_x``, the input or the hidden states is one matrix
    product per sequence; only the recurrence (``w_h @ h`` forward, ``w_h.T
    @ dpre`` backward) runs per step:

    - forward computes ``w_x @ seq + b`` once and keeps it time-major, as
      an (m, 4d) array whose row t is step t's pre-activation. Step t adds
      ``w_h @ h`` to its row from t = 1 on (the initial state is zero), then
      turns the row into the four gates in place with one ``tanh`` call:
      ``tanh(pre * scale) * scale + offset`` (:func:`_gate_affine`), which
      is :func:`_sigmoid` on the i/f/o rows and ``tanh`` on the cell rows;
    - backward writes each step's pre-activation gradient into column t of
      one (4d, m) array ``dpre``, then adds ``dpre @ seq.T`` to ``w_x``,
      ``dpre[:, 1:] @ out[:, :m-1].T`` to ``w_h`` (the output holds the
      h_{t-1} of every step t >= 1), the row sums of ``dpre`` to ``b`` and
      ``w_x.T @ dpre`` to ``seq``, one add each.

    At m = 1 this evaluates the expressions of the same LSTM composed from
    ``matmul``, ``add``, ``take_rows``, ``sigmoid``, ``tanh`` and ``mul``
    (the gate rows round exactly as ``sigmoid`` and ``tanh`` do), so values
    and gradients equal that composition bit for bit; a ``w_h``
    whose ``.grad`` was None gets zeros, the gradient of its product with
    the zero state. From m = 2 on, the per-sequence products sum in another
    order than the per-step composition, and the results agree with it to
    within 1e-12 of each array's largest entry.
    """
    xs, wx, wh, bd = seq.data, w_x.data, w_h.data, b.data
    d = wh.shape[-1]
    if (xs.ndim != 2 or xs.shape[1] < 1
            or wx.shape != (4 * d, xs.shape[0]) or wh.shape != (4 * d, d)
            or bd.shape != (4 * d, 1)):
        raise ShapeError(
            f"lstm_sequence: seq {xs.shape}, w_x {wx.shape}, "
            f"w_h {wh.shape}, b {bd.shape} do not conform")
    m = xs.shape[1]
    parents = (seq, w_x, w_h, b)
    record = _grad_enabled and any(p.requires_grad for p in parents)

    # time-major: row t holds step t's pre-activation, then its four gates
    gates = (wx @ xs + bd).T.copy()
    scale, offset = _gate_affine(d)
    out = np.empty((d, m))
    h = c = np.zeros(d)
    cache = []
    for t in range(m):
        z = gates[t]
        if t:
            z += wh @ h
        z *= scale
        np.tanh(z, out=z)
        z *= scale
        z += offset
        i, f, g, o = z[:d], z[d : 2 * d], z[2 * d : 3 * d], z[3 * d :]
        c_prev = c
        c = f * c + i * g
        tc = np.tanh(c)
        h = o * tc
        out[:, t] = h
        if record:
            cache.append((c_prev, i, f, g, o, tc))

    def bw(gout):
        dpre_all = np.empty((4 * d, m))
        dh_rec = dc_rec = None  # gradients reaching step t's state from step t+1
        for t in range(m - 1, -1, -1):
            c_prev, i, f, g, o, tc = cache[t]
            # the output column, then the recurrent term
            dh = gout[:, t]
            if dh_rec is not None:
                dh = dh + dh_rec
            dc = (dh * o) * (1.0 - tc * tc)
            if dc_rec is not None:
                dc = dc + dc_rec
            dpre = dpre_all[:, t]
            dpre[:d] = dc * g * i * (1.0 - i)
            dpre[d : 2 * d] = dc * c_prev * f * (1.0 - f)
            dpre[2 * d : 3 * d] = dc * i * (1.0 - g * g)
            dpre[3 * d :] = dh * tc * o * (1.0 - o)
            if t:
                dh_rec = wh.T @ dpre
                dc_rec = dc * f
        _accum(b, dpre_all.sum(axis=1, keepdims=True))
        _accum(w_x, dpre_all @ xs.T)
        if m > 1:
            _accum(w_h, dpre_all[:, 1:] @ out[:, : m - 1].T)
        elif w_h.requires_grad and w_h.grad is None:
            # m = 1: the only w_h term is the product with the zero state. It
            # is not added onto a held gradient: -0.0 + 0.0 flips a sign bit
            w_h.grad = np.zeros(wh.shape)
        _accum(seq, wx.T @ dpre_all)

    return _out(out, parents, bw)


# ---------------------------------------------------------------------------
# reverse pass
# ---------------------------------------------------------------------------


def backward(loss: Tensor, params: Iterable[Tensor] | None = None) -> None:
    """Populate ``.grad`` with d(loss)/d(tensor) for everything reachable.

    ``loss`` must be scalar. Gradients accumulate into existing ``.grad``
    slots; passing ``params`` zero-fills them first so parameters the loss
    never touches read back as exact zeros.
    """
    if loss.data.shape != ():
        raise ShapeError(f"backward: loss must be scalar, got shape {loss.data.shape}")
    if params is not None:
        zero_grad(params)

    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))

    loss.grad = np.ones(())
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


def zero_grad(params: Iterable[Tensor]) -> None:
    for p in params:
        p.grad = np.zeros_like(p.data)
