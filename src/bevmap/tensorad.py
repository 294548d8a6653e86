"""Dense double-precision tensors with a reverse-mode autodiff tape.

Values are plain numpy float64 arrays.  Recording is explicit: primitives
applied while a `Tape` is active append nodes to it; outside any tape they
are plain numpy math (used for inference and benchmarking).  Shapes never
broadcast implicitly -- alignment is done with explicit reshape / repeat,
which keeps the attention wiring free of silent shape bugs.

A primitive is one function: it checks its inputs, computes its output and
hands `_op` a backward closure over exactly the arrays that backward reads,
or, where they are large and cheap to rebuild, the arrays it rebuilds them from.
A tape is rebuilt on every forward pass.  Each op node keeps only its input
ids and that closure, not its output, so an activation is freed as soon as
no caller and no backward closure holds it.  Tensors link to their tape
weakly, so a tape, and every closure on it, is freed with its `with` block:
a tensor that outlives the step, such as a parameter the caller keeps, pins
no tape.  `backward` walks the tape in reverse, runs each node's closure and
then drops it, and returns a `GradMap` of leaf gradients; so a tape is swept
once, and a second sweep is refused.  `grad_check` compares analytic
gradients against central finite differences.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import math
import os
import weakref
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp

__all__ = [
    "ContractViolation",
    "Tensor",
    "Tape",
    "GradMap",
    "backward",
    "grad_check",
    "active_tape",
    "add",
    "subtract",
    "multiply",
    "matmul",
    "linear",
    "softmax",
    "relu",
    "sigmoid",
    "stable_sigmoid",
    "inverse_sigmoid",
    "layer_norm",
    "concat",
    "slice_axis",
    "reduce_sum",
    "reduce_mean",
    "scale",
    "bilinear_sample",
    "level_table",
    "sample_levels",
    "squared_hinge",
    "reshape",
    "transpose",
    "repeat_axis",
    "gather",
    "sqrt",
    "absolute",
    "sin",
    "cos",
    "softplus",
    "power",
    "add_rows",
]


class ContractViolation(ValueError):
    """An operation was called outside its contract (shape, range, or kind)."""


# --------------------------------------------------------------------------
# Tensor / tape machinery
# --------------------------------------------------------------------------


class Tensor:
    """Immutable dense float64 array, optionally linked to a node on a tape.

    The link is the tape's own weak reference (`Tape._ref`), compared by
    identity: it keeps no tape alive, and a dead tape's link still differs
    from every other tape's.
    """

    __slots__ = ("values", "_tape", "_nid")

    def __init__(self, values, _tape: "weakref.ref[Tape] | None" = None, _nid: int | None = None):
        arr = np.asarray(values, dtype=np.float64)
        self.values = arr
        self._tape = _tape
        self._nid = _nid

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def size(self) -> int:
        return self.values.size

    def item(self) -> float:
        return float(self.values.reshape(()))

    def detach(self) -> "Tensor":
        """Same values, no tape link (blocks gradient flow)."""
        return Tensor(self.values)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


class Node:
    """One tape entry: what its backward reads, not its forward output.

    An op node keeps its input ids and its backward closure, which maps the
    upstream gradient to a list of gradients aligned with the inputs (None
    for no gradient) and holds the arrays it reads, until the sweep runs it
    and drops it.  A leaf keeps neither, since its gradient is shaped like
    its tensor.
    """

    __slots__ = ("kind", "inputs", "backward")

    def __init__(self, kind, inputs, backward):
        self.kind = kind
        self.inputs = inputs  # tuple of node ids, topologically earlier
        self.backward = backward


_TAPE_STACK: list["Tape"] = []


def active_tape() -> "Tape | None":
    return _TAPE_STACK[-1] if _TAPE_STACK else None


class Tape:
    """Ordered record of primitive applications; context manager enables recording."""

    def __init__(self):
        self.nodes: list[Node] = []
        self._leaf_ids: set[int] = set()
        self._ref = weakref.ref(self)  # the one link every tensor on this tape holds
        self._swept = False  # backward drops each closure it ran

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPE_STACK.pop()
        assert popped is self

    def __len__(self) -> int:
        return len(self.nodes)

    def _ensure(self, t: Tensor) -> int:
        """Node id of `t` on this tape, registering it as a leaf if needed."""
        if t._tape is self._ref and t._nid is not None:
            return t._nid
        nid = len(self.nodes)
        self.nodes.append(Node("leaf", (), None))
        self._leaf_ids.add(nid)
        t._tape = self._ref
        t._nid = nid
        return nid


class GradMap(dict):
    """Leaf node id -> gradient array, shaped like that leaf's value.

    `backward` keeps leaf gradients only: each intermediate gradient is freed
    as soon as its node's backward has consumed it.  A leaf the output does
    not depend on has no entry; `of` returns zeros for it.  Like a tensor, the
    map links to its tape weakly and keeps no tape alive: the tape is freed
    with its `with` block.  It keeps the tape's leaf ids instead, so after the
    tape has died it still refuses an intermediate, and a tensor since relinked
    to another tape is refused rather than read under a foreign id.
    """

    def __init__(self, tape: "Tape"):
        super().__init__()
        self._tape = tape._ref
        self._leaf_ids = tape._leaf_ids

    def of(self, t: Tensor) -> np.ndarray:
        """Gradient for a leaf recorded on the tape this map came from (zeros if unreached)."""
        if t._tape is not None and t._tape is not self._tape:
            raise ContractViolation("GradMap.of: tensor is recorded on another tape than this map's")
        if t._tape is not None and t._nid not in self._leaf_ids:
            raise ContractViolation("GradMap.of: tensor is an intermediate; backward keeps leaf gradients only")
        if t._nid in self:
            return self[t._nid]
        return np.zeros(t.shape)


def _op(kind: str, out: np.ndarray, inputs: Sequence[Tensor], backward: Callable) -> Tensor:
    """A primitive's output; on an active tape, recorded as a node of `kind`.

    `backward(g)` returns the gradients of `inputs`, in order, for the
    upstream gradient `g` (None for no gradient).  It is a closure over the
    arrays it reads, or rebuilds what it reads from, and no others: the node
    keeps it, not `out`.  Outside
    any tape it is dropped with the call.
    """
    tape = active_tape()
    if tape is None:
        return Tensor(out)
    ids = tuple(tape._ensure(t) for t in inputs)
    tape.nodes.append(Node(kind, ids, backward))
    return Tensor(out, tape._ref, len(tape.nodes) - 1)


def backward(tape: Tape, output: Tensor) -> GradMap:
    """Reverse sweep from a scalar output tensor; returns leaf gradients only.

    Each node's backward closure is dropped once it has run, so a tape can be
    swept only once.
    """
    if output._tape is not tape._ref or output._nid is None:
        raise ContractViolation("backward: output tensor is not recorded on this tape")
    if output.size != 1:
        raise ContractViolation(f"backward: output must be scalar-shaped, got shape {output.shape}")
    if tape._swept:
        raise ContractViolation("backward: this tape was swept already; record a new tape")
    tape._swept = True
    out_id = output._nid
    grads = GradMap(tape)
    grads[out_id] = np.ones(output.shape)
    # ids whose gradient is a sum this sweep allocated, so no other id holds
    # it and later terms add into it in place; a term a backward closure
    # returned may be its upstream gradient or another input's, so it is
    # never summed into
    owned: set[int] = set()
    for nid in range(out_id, -1, -1):
        if nid not in grads:
            continue
        node = tape.nodes[nid]
        if node.kind == "leaf":
            continue
        input_grads = node.backward(grads.pop(nid))
        node.backward = None
        for inp, g in zip(node.inputs, input_grads):
            if g is None:
                continue
            if inp not in grads:
                grads[inp] = g
                continue
            acc = grads[inp]
            like = acc.shape == g.shape and acc.dtype == g.dtype
            if like and inp in owned:
                np.add(acc, g, out=acc)
            elif like and not g.flags.c_contiguous:
                # a sampler's level gradient is a transposed view, and so are the
                # terms after it: the sum takes their layout, so they add in stride
                grads[inp] = np.add(acc, g, out=np.empty_like(g))
            else:
                grads[inp] = acc + g
            owned.add(inp)
    return grads


def grad_check(fn: Callable, inputs: Sequence[Tensor], eps: float = 1e-5) -> float:
    """Max relative error between tape gradients and central finite differences.

    `fn` must map the given tensors to a scalar tensor.  Error per coordinate is
    |analytic - numeric| / max(1, |analytic|, |numeric|); non-finite anywhere
    yields inf.
    """
    if not (1e-7 <= eps <= 1e-3):
        raise ContractViolation(f"grad_check: eps {eps} outside [1e-7, 1e-3]")
    inputs = [t if isinstance(t, Tensor) else Tensor(t) for t in inputs]
    with Tape() as tape:
        out = fn(*inputs)
        if out.size != 1:
            raise ContractViolation("grad_check: function must return a scalar")
        if not np.isfinite(out.values).all():
            return math.inf
        grads = backward(tape, out)
    analytic = [grads.of(t) for t in inputs]

    worst = 0.0
    for i, t in enumerate(inputs):
        base = t.values
        flat = base.reshape(-1)
        for j in range(flat.size):
            for sign, store in ((1.0, "plus"), (-1.0, "minus")):
                shifted = base.copy()
                shifted.reshape(-1)[j] += sign * eps
                probe = [Tensor(shifted) if k == i else Tensor(inputs[k].values) for k in range(len(inputs))]
                val = fn(*probe).item()
                if not math.isfinite(val):
                    return math.inf
                if store == "plus":
                    f_plus = val
                else:
                    f_minus = val
            numeric = (f_plus - f_minus) / (2.0 * eps)
            a = float(analytic[i].reshape(-1)[j])
            if not math.isfinite(a):
                return math.inf
            err = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
            worst = max(worst, err)
    return worst


# --------------------------------------------------------------------------
# Shape helpers
# --------------------------------------------------------------------------


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ContractViolation(msg)


def _same_shape(kind: str, a: np.ndarray, b: np.ndarray) -> None:
    _require(a.shape == b.shape, f"{kind}: shape mismatch {a.shape} vs {b.shape}")


def _norm_axes(axis, ndim: int) -> tuple[int, ...]:
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(a % ndim for a in axis)


# --------------------------------------------------------------------------
# Primitives: each checks its inputs, computes its output and hands `_op` a
# backward closure over the arrays that backward reads
# --------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    _same_shape("add", a.values, b.values)
    return _op("add", a.values + b.values, (a, b), lambda g: [g, g])


def subtract(a: Tensor, b: Tensor) -> Tensor:
    _same_shape("subtract", a.values, b.values)
    return _op("subtract", a.values - b.values, (a, b), lambda g: [g, -g])


def multiply(a: Tensor, b: Tensor) -> Tensor:
    x, y = a.values, b.values
    _same_shape("multiply", x, y)
    return _op("multiply", x * y, (a, b), lambda g: [g * y, g * x])


def matmul(a: Tensor, b: Tensor) -> Tensor:
    x, y = a.values, b.values
    _require(x.ndim >= 2 and y.ndim >= 2, f"matmul: inputs must be >=2-d, got {x.shape} @ {y.shape}")
    _require(x.ndim == y.ndim, f"matmul: rank mismatch {x.shape} @ {y.shape}")
    _require(x.shape[:-2] == y.shape[:-2], f"matmul: batch dims differ {x.shape} @ {y.shape}")
    _require(x.shape[-1] == y.shape[-2], f"matmul: inner dims differ {x.shape} @ {y.shape}")
    return _op("matmul", x @ y, (a, b), lambda g: [g @ np.swapaxes(y, -1, -2), np.swapaxes(x, -1, -2) @ g])


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b over the trailing axis of an N-d x, with w (C_in, C_out) and b (C_out,)."""
    shape, wv = x.shape, w.values
    _require(wv.ndim == 2 and shape[-1:] == wv.shape[:1] and b.shape == wv.shape[1:],
             f"linear: {shape} @ {wv.shape} + {b.shape} do not align on the trailing axis")
    x2 = x.values.reshape(-1, wv.shape[0])
    y = x2 @ wv
    y += b.values

    def backward(g):
        g2 = g.reshape(x2.shape[0], wv.shape[1])
        return [(g2 @ wv.T).reshape(shape), x2.T @ g2, g2.sum(axis=0)]

    return _op("linear", y.reshape(shape[:-1] + wv.shape[1:]), (x, w, b), backward)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    xv = x.values
    axis = axis % xv.ndim
    shifted = xv - xv.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)
    return _op("softmax", y, (x,), lambda g: [y * (g - (g * y).sum(axis=axis, keepdims=True))])


def relu(x: Tensor) -> Tensor:
    # the backward reads only the sign test, kept as a bool mask: 1/8 of x's bytes
    mask = x.values > 0
    return _op("relu", np.maximum(x.values, 0.0), (x,), lambda g: [g * mask])


def stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function on a plain array, overflow-free for large |x|."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(x: Tensor) -> Tensor:
    y = stable_sigmoid(x.values)
    return _op("sigmoid", y, (x,), lambda g: [g * y * (1.0 - y)])


def inverse_sigmoid(x: Tensor) -> Tensor:
    """Logit of x clipped to [1e-6, 1 - 1e-6]; no gradient flows where it clips."""
    xv, margin = x.values, 1e-6
    xc = np.clip(xv, margin, 1.0 - margin)

    def backward(g):
        inside = (xv > margin) & (xv < 1.0 - margin)
        return [g * inside / (xc * (1.0 - xc))]

    return _op("inverse_sigmoid", np.log(xc) - np.log1p(-xc), (x,), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the trailing axis (eps 1e-5), then scale by gain and shift by bias."""
    xv, gv = x.values, gain.values
    _require(gv.shape == bias.shape == xv.shape[-1:],
             f"layer_norm: gain {gv.shape} and bias {bias.shape} must match the trailing axis of {xv.shape}")
    mu = xv.mean(axis=-1, keepdims=True)
    var = xv.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat = (xv - mu) * inv

    def backward(g):
        lead = tuple(range(g.ndim - 1))
        g_hat = g * gv
        gm = g_hat.mean(axis=-1, keepdims=True)
        gx = (g_hat * xhat).mean(axis=-1, keepdims=True)
        return [inv * (g_hat - gm - xhat * gx), (g * xhat).sum(axis=lead), g.sum(axis=lead)]

    return _op("layer_norm", xhat * gv + bias.values, (x, gain, bias), backward)


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    ins = [t.values for t in tensors]
    ndim = ins[0].ndim
    axis = axis % ndim
    for a in ins[1:]:
        _require(a.ndim == ndim, f"concat: rank mismatch {[x.shape for x in ins]}")
        _require(
            a.shape[:axis] + a.shape[axis + 1 :] == ins[0].shape[:axis] + ins[0].shape[axis + 1 :],
            f"concat: incompatible shapes {[x.shape for x in ins]} along axis {axis}",
        )
    sizes = [a.shape[axis] for a in ins]

    def backward(g):
        splits = np.cumsum(sizes)[:-1]
        return list(np.split(g, splits, axis=axis))

    return _op("concat", np.concatenate(ins, axis=axis), tensors, backward)


def slice_axis(x: Tensor, axis: int, start: int, stop: int) -> Tensor:
    shape = x.shape
    axis = axis % len(shape)
    _require(0 <= start < stop <= shape[axis], f"slice: [{start}:{stop}] out of range for axis {axis} of {shape}")
    idx = [slice(None)] * len(shape)
    idx[axis] = slice(start, stop)

    def backward(g):
        gx = np.zeros(shape)
        gx[tuple(idx)] = g
        return [gx]

    return _op("slice", np.ascontiguousarray(x.values[tuple(idx)]), (x,), backward)


def _expand_reduced(g, shape, axes, keepdims):
    if not keepdims:
        for a in sorted(axes):
            g = np.expand_dims(g, a)
    return np.broadcast_to(g, shape).copy()


def reduce_sum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    shape = x.shape
    axes = _norm_axes(axis, len(shape))
    return _op("reduce_sum", x.values.sum(axis=axes, keepdims=keepdims), (x,),
               lambda g: [_expand_reduced(g, shape, axes, keepdims)])


def reduce_mean(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    shape = x.shape
    axes = _norm_axes(axis, len(shape))
    count = 1
    for a in axes:
        count *= shape[a]
    return _op("reduce_mean", x.values.mean(axis=axes, keepdims=keepdims), (x,),
               lambda g: [_expand_reduced(g, shape, axes, keepdims) / count])


def scale(x: Tensor, factor: float) -> Tensor:
    factor = float(factor)
    return _op("scale", x.values * factor, (x,), lambda g: [g * factor])


def squared_hinge(x: Tensor) -> Tensor:
    h = np.maximum(x.values, 0.0)
    return _op("squared_hinge", h * h, (x,), lambda g: [g * 2.0 * h])


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    shape, old = tuple(int(s) for s in shape), x.shape
    _require(int(np.prod(shape)) == x.size, f"reshape: cannot reshape {old} into {shape}")
    return _op("reshape", x.values.reshape(shape), (x,), lambda g: [g.reshape(old)])


def transpose(x: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(int(a) for a in axes)
    _require(sorted(axes) == list(range(len(x.shape))), f"transpose: axes {axes} invalid for {x.shape}")
    return _op("transpose", np.ascontiguousarray(x.values.transpose(axes)), (x,),
               lambda g: [np.ascontiguousarray(g.transpose(np.argsort(axes)))])


def repeat_axis(x: Tensor, axis: int, times: int) -> Tensor:
    shape, times = x.shape, int(times)
    axis = axis % len(shape)
    _require(times >= 1, f"repeat: times must be >= 1, got {times}")

    def backward(g):
        expanded = g.reshape(shape[: axis + 1] + (times,) + shape[axis + 1 :])
        return [expanded.sum(axis=axis + 1)]

    return _op("repeat", np.repeat(x.values, times, axis=axis), (x,), backward)


def _scatter_rows(rows: np.ndarray, src: np.ndarray, n_rows: int, weights: np.ndarray | None = None,
                  src_rows: np.ndarray | None = None) -> np.ndarray:
    """Sum weights[r] * src[src_rows[r]] into row rows[r] of an (n_rows, C)
    zero array; without `src_rows`, entry r reads src[r % len(src)].

    Each row sums in increasing r, the order of numpy's unbuffered `ufunc.at`
    scatter, so results match it bit for bit: a stable sort on `rows` lays
    out an (n_rows, len(src)) CSR matrix whose row i lists, in that order,
    the entries that land in row i.
    """
    # numpy sorts 16-bit keys stably by radix and wider ones by timsort, which
    # is ~6x slower on sampler rows; so sort by the low 16 bits, then the rest
    order = np.argsort(rows.astype(np.uint16), kind="stable")
    if n_rows > 1 << 16:
        order = order[np.argsort((rows[order] >> 16).astype(np.uint16), kind="stable")]
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n_rows), out=indptr[1:])
    data = np.ones(rows.size) if weights is None else weights[order]
    cols = order % len(src) if src_rows is None else src_rows[order]
    spread = sp.csr_array((data, cols, indptr), shape=(n_rows, len(src)))
    return spread @ src


def gather(x: Tensor, indices, axis: int = 0) -> Tensor:
    shape = x.shape
    axis = axis % len(shape)
    idx = np.asarray(indices, dtype=np.int64)
    _require(idx.ndim == 1, "gather: indices must be 1-d")
    _require(
        idx.size == 0 or (idx.min() >= 0 and idx.max() < shape[axis]),
        f"gather: indices out of range for axis {axis} of {shape}",
    )
    increasing = bool((idx[1:] > idx[:-1]).all())

    def backward(g):
        g_m = np.moveaxis(g, axis, 0)
        if increasing:
            # distinct indices: each target row sums one term, 0 + g, as the
            # scatter does (so -0.0 lands as +0.0), written in place
            out = np.zeros(shape)
            np.moveaxis(out, axis, 0)[idx] = g_m + 0.0
            return [out]
        rest = g_m.shape[1:]
        flat = _scatter_rows(idx, g_m.reshape(idx.size, math.prod(rest)), shape[axis])
        return [np.ascontiguousarray(np.moveaxis(flat.reshape((shape[axis],) + rest), 0, axis))]

    return _op("gather", np.take(x.values, idx, axis=axis), (x,), backward)


def sqrt(x: Tensor) -> Tensor:
    xv = x.values
    return _op("sqrt", np.sqrt(xv), (x,), lambda g: [g * 0.5 / np.sqrt(np.maximum(xv, 1e-24))])


def absolute(x: Tensor) -> Tensor:
    xv = x.values
    return _op("absolute", np.abs(xv), (x,), lambda g: [g * np.sign(xv)])


def sin(x: Tensor) -> Tensor:
    xv = x.values
    return _op("sin", np.sin(xv), (x,), lambda g: [g * np.cos(xv)])


def cos(x: Tensor) -> Tensor:
    xv = x.values
    return _op("cos", np.cos(xv), (x,), lambda g: [-g * np.sin(xv)])


def softplus(x: Tensor) -> Tensor:
    xv = x.values
    y = np.maximum(xv, 0.0) + np.log1p(np.exp(-np.abs(xv)))
    return _op("softplus", y, (x,), lambda g: [g * stable_sigmoid(xv)])


def power(x: Tensor, exponent: float) -> Tensor:
    xv, exponent = x.values, float(exponent)
    _require((xv >= 0).all(), "power: base must be non-negative")

    def backward(g):
        if exponent == 0:
            return [np.zeros_like(xv)]
        base = np.power(np.maximum(xv, 1e-300), exponent - 1.0)
        return [g * exponent * base]

    return _op("power", np.power(xv, exponent), (x,), backward)


def add_rows(x: Tensor, b: Tensor) -> Tensor:
    """Add a vector to the trailing axis of every row (explicit bias add)."""
    _require(len(b.shape) == 1 and x.shape[-1] == b.shape[0],
             f"add_rows: trailing dim of {x.shape} must match vector {b.shape}")
    axes = tuple(range(len(x.shape) - 1))
    return _op("add_rows", x.values + b.values, (x, b), lambda g: [g, g.sum(axis=axes)])


# --------------------------------------------------------------------------
# Multi-level bilinear sampling, weighted and projected per head
# (align-corners-false, zero padding outside the grid)
#
# The kernel is a sparse blend operator applied to a single channel-last
# table that stacks every level's (h*w, C) rows.  One CSR row belongs to one
# (head, query): it holds that query's 4*M*N corners for that head in (level,
# point, corner) order, each with its sample's attention weight times its
# bilinear corner weight.  So U = blend @ table is each query's weighted sum
# of its samples, (T, C) per head, and U @ val_w[h] is the head's output.
# Deformable DETR's kernel samples and weights in one pass the same way, with
# no per-sample output (Zhu et al., arXiv 2010.04159).
#
# Two sums are pinned on purpose: a CSR row sums its entries in their stored
# order, ((0 + a0 r0) + a1 r1) + ..., and the grid gradient scatters in
# numpy's `ufunc.at` order (`_scatter_rows`).  The other sums do not follow
# the dense gather / einsum / batched-matmul chain, so the outputs and every
# gradient are compared at 1e-12 relative to the largest magnitude, with that
# chain (tests/test_tensorad.py) and with the per-level kernel
# (tests/test_attention.py).  `bilinear_sample`'s unit weights and identity
# projection pass every sample and gradient through exactly, so it stays
# byte-equal to the dense reference.
#
# A call works in head blocks.  A block computes its own points' locations,
# ref + off * cell size on each level as Deformable DETR's sampler does, their
# corners, their weighted blend rows, U and U @ val_w[h], and keeps only the
# output.  So no call holds every level's locations, and a caller records no
# location chain on the tape.
# A forward call of fewer than _PARALLEL_VALUES sampled values (Nh*T*M*N*C)
# is one block of all heads on the calling thread: the C=32 training shapes
# make at most ~1.0 M values, and there hand-offs cost more than they save.
# A larger call runs one head per task on a pool of one thread per usable
# CPU; numpy, scipy's sparse product and BLAS release the GIL.  So no
# whole-call blend matrix or corner array is built, and each thread holds one
# head's (T, C) rows and (T, D) output.  A head's block is the same row
# products and the same dgemm calls as the all-heads block, so the bytes do
# not depend on the path.  A head's rows are never split further: a block of
# rows of A @ B is not byte-equal to that block's own product with B.
#
# The tape node keeps the reference points and offsets (16 B per sample),
# the weights, the shared table and val_w, and recomputes the rest in the
# backward (Chen et al., arXiv 1604.06174: recompute instead of keep).  The
# backward maps the upstream gradient back through the projection,
# g_u = g @ val_w[h]^T, one (T, C) block per head.  The calling thread
# recomputes the locations and corners with the forward's code.  Per level it
# scatters each sample's g_u row, times its weight and corner weight, into
# the grid gradient, and dots each corner's table row with that g_u row once:
# the dots times the weight give the location gradients (times the cell
# size, the offsets'; summed, ref's), and the dots summed with the corner
# weights give the weight gradients.  One pool task rebuilds the weighted
# blend from those corners, recomputes U and returns val_w's gradient
# U^T @ g.  Every pool task goes through `_on_pool`.  This module is the only
# one in the package that starts threads.
# --------------------------------------------------------------------------

def _usable_cpus() -> int:
    """CPUs this process may run on; all of them where the OS has no
    affinity call (macOS, Windows)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_PARALLEL_VALUES = 2**21
_DOT_ROWS = 1024  # samples per gathered block in the backward's corner dots
_WORKERS = _usable_cpus()
_POOL = ThreadPoolExecutor(_WORKERS, thread_name_prefix="bevmap")  # threads start with the first hand-off


def _on_pool(fn: Callable, items=None):
    """Hand `fn` to the pool: fn(item) for each of `items`, waited for and
    returned as a list in order; with no items, one call fn(), returned as a
    future.

    Every task runs in its own copy of the caller's context, made on the
    calling thread: numpy's error state (`np.errstate`) is context-local, so
    a pool thread would otherwise ignore the caller's.  A context can be
    entered by one thread at a time, hence one fresh copy per task.
    """
    if items is None:
        return _POOL.submit(contextvars.copy_context().run, fn)
    tasks = [(contextvars.copy_context(), item) for item in items]
    return list(_POOL.map(lambda task: task[0].run(fn, task[1]), tasks))


def _bilinear_pieces(h: int, w: int, pts: np.ndarray):
    """Corner indices and masked blend weights for K points on an h x w grid.

    Returns lin (4, K) clipped flat indices into h*w, valid (4, K), weights
    (4, K) with out-of-bounds corners zeroed (zero padding), and the
    fractional offsets fi, fj (K,).  Corners run (0,0), (0,1), (1,0), (1,1).
    Each corner row's index, mask and weight vector is computed once and the
    four corner rows are filled from them in place.
    """
    # in place where a value is not read again: each fresh array costs page faults
    ci = pts[:, 0] * h
    ci -= 0.5
    cj = pts[:, 1] * w
    cj -= 0.5
    i0 = np.floor(ci).astype(np.int64)
    j0 = np.floor(cj).astype(np.int64)
    fi = np.subtract(ci, i0, out=ci)
    fj = np.subtract(cj, j0, out=cj)
    # per corner row (di) and column (dj): in-grid mask, clipped index, weight
    rows = [((ii >= 0) & (ii < h), ii, wi) for ii, wi in ((i0, 1.0 - fi), (i0 + 1, fi))]
    cols = [((jj >= 0) & (jj < w), jj, wj) for jj, wj in ((j0, 1.0 - fj), (j0 + 1, fj))]
    for _, ii, _ in rows:
        np.clip(ii, 0, h - 1, out=ii)
        ii *= w
    for _, jj, _ in cols:
        np.clip(jj, 0, w - 1, out=jj)
    lin = np.empty((4, len(pts)), np.int64)
    valid = np.empty((4, len(pts)), bool)
    weights = np.empty((4, len(pts)))
    for corner, ((valid_i, row, wi), (valid_j, col, wj)) in enumerate(itertools.product(rows, cols)):
        np.add(row, col, out=lin[corner])
        np.logical_and(valid_i, valid_j, out=valid[corner])
        np.multiply(wi, wj, out=weights[corner])
        weights[corner] *= valid[corner]  # masking the weight implements zero padding
    return lin, valid, weights, fi, fj


def _check_levels(levels: Sequence[np.ndarray]) -> None:
    _require(len(levels) >= 1, "sample_levels: needs at least one level")
    for lv in levels:
        _require(lv.ndim == 3, f"sample_levels: levels must be C x h x w, got {lv.shape}")
        _require(lv.shape[0] == levels[0].shape[0],
                 f"sample_levels: levels differ in channels, {[x.shape for x in levels]}")


def _stack_channel_last(levels: Sequence[np.ndarray]) -> np.ndarray:
    # filled level by level: `np.concatenate` of the transposed views would
    # come out column-major, and the CSR product would copy it on every call;
    # a large table is filled in one row span per pool thread and level
    c = levels[0].shape[0]
    sizes = [lv.shape[1] * lv.shape[2] for lv in levels]
    table = np.empty((sum(sizes), c))
    parts = _WORKERS if table.size >= _PARALLEL_VALUES else 1
    spans = []
    for lv, start, size in zip(levels, np.cumsum([0] + sizes[:-1]), sizes):
        cuts = np.linspace(0, size, parts + 1).astype(np.int64)
        spans += [(lv.reshape(c, -1), start, a, b) for a, b in zip(cuts[:-1], cuts[1:])]

    def copy(span):
        flat, start, a, b = span
        table[start + a : start + b] = flat[:, a:b].T

    list((map if parts == 1 else _on_pool)(copy, spans))
    return table


def _corner_dots(level_rows: np.ndarray, lin: np.ndarray, g_rows: np.ndarray, src: np.ndarray) -> np.ndarray:
    """(4, K): the dot of table row lin[j, k] with g_rows[src[k]], for each corner j.

    Both rows are gathered _DOT_ROWS samples at a time into reused buffers,
    so they are read from cache and no (K, C) array is allocated; each dot is
    the same `einsum` over C as one call on all K rows.
    """
    k = lin.shape[1]
    dots = np.empty(lin.shape)
    rows, g_blk = np.empty((2, min(_DOT_ROWS, k), g_rows.shape[1]))
    for a in range(0, k, _DOT_ROWS):
        b = min(a + _DOT_ROWS, k)
        np.take(g_rows, src[a:b], axis=0, out=g_blk[: b - a])
        for j, lin_f in enumerate(lin):
            np.take(level_rows, lin_f[a:b], axis=0, out=rows[: b - a])
            np.einsum("kc,kc->k", rows[: b - a], g_blk[: b - a], out=dots[j, a:b])
    return dots


def level_table(levels: Sequence[Tensor]) -> np.ndarray:
    """The stacked channel-last rows `sample_levels` blends: (sum of h*w, C).

    Level l's rows follow level l-1's, so this table also serves any prefix
    of `levels`: build it once and pass it to every `sample_levels` call.
    A table of at least _PARALLEL_VALUES values is copied on the pool.
    """
    arrays = [lv.values for lv in levels]
    _check_levels(arrays)
    return _stack_channel_last(arrays)


def sample_levels(
    levels: Sequence[Tensor],
    ref: Tensor,
    off: Tensor,
    weights: Tensor,
    val_w: Tensor,
    table: np.ndarray | None = None,
) -> Tensor:
    """Bilinearly sample M C x h_l x w_l levels at N points per level for each
    query and head, level l at the normalized (row, col) locations
    ref + off[:, :, l] * (1/h_l, 1/w_l), for reference points ref (T, 2) and
    offsets off (T, Nh, M, N, 2) in cells of each level.  Sum each query's
    M*N samples of head h with its weights[:, h] of shape (T, M, N), and
    project that sum by val_w[h] of shape (C, D).

    Returns (Nh, T, D).  `table` is `level_table` of `levels` or of a list
    they begin; it is built here when omitted.  The weights are folded into
    the blend rows, so each (head, query) is one CSR row of 4*M*N corners:
    one sparse product and one projection per head.
    """
    # from here on these names hold arrays; the tape gets the tensors
    inputs = [*levels, ref, off, weights, val_w]
    levels, ref, off = [lv.values for lv in levels], ref.values, off.values
    weights, val_w = weights.values, val_w.values
    m = len(levels)
    _check_levels(levels)
    _require(off.ndim == 5 and off.shape[2::2] == (m, 2) and ref.shape == (off.shape[0], 2),
             f"sample_levels: ref must be T x 2 and off T x Nh x M x N x 2 with M={m}, "
             f"got {ref.shape} and {off.shape}")
    t, nh, _, n, _ = off.shape
    c = levels[0].shape[0]
    _require(weights.shape == (t, nh, m, n),
             f"sample_levels: weights must be T x Nh x M x N = {(t, nh, m, n)}, got {weights.shape}")
    _require(val_w.ndim == 3 and val_w.shape[:2] == (nh, c),
             f"sample_levels: val_w must be Nh x C x D with Nh={nh}, C={c}, got {val_w.shape}")
    sizes = [lv.shape[1] * lv.shape[2] for lv in levels]
    table = _stack_channel_last(levels) if table is None else table
    _require(table.shape[0] >= sum(sizes) and table.shape[1:] == (c,),
             f"sample_levels: table {table.shape} does not hold {sum(sizes)} rows of {c} channels")
    table = table[: sum(sizes)]
    offsets = np.cumsum([0] + sizes[:-1])
    shapes = [lv.shape for lv in levels]
    cells = [np.array([1.0 / h, 1.0 / w]) for _, h, w in shapes]

    def level_pieces(h0, h1):
        """Per level, the corners of heads h0..h1-1's locations."""
        return [_bilinear_pieces(h, w, (ref[:, None, None] + off[:, h0:h1, lvl] * cell).reshape(-1, 2))
                for lvl, ((_, h, w), cell) in enumerate(zip(shapes, cells))]

    def head_major(per_level):
        """(4, T*k*N) per level -> (k, T, M, N, 4): (head, query, level, point, corner) order."""
        k = per_level[0].shape[1] // (t * n)
        out = np.empty((k, t, m, n, 4), per_level[0].dtype)
        for lvl, a in enumerate(per_level):
            out[:, :, lvl] = a.T.reshape(t, k, n, 4).swapaxes(0, 1)
        return out

    def blend_matrix(h0, h1, pieces):
        """Heads h0..h1-1's weighted blend, one row per (head, query)."""
        # a row holds its corners in (level, point, corner) order; explicit zeros
        # and clipped duplicates stay, so each row sums its 4*M*N terms in order
        cols = head_major([pc[0] for pc in pieces])
        cols += offsets[:, None, None]
        data = head_major([pc[2] for pc in pieces])
        data *= weights[:, h0:h1].transpose(1, 0, 2, 3)[..., None]
        return sp.csr_array((data.ravel(), cols.ravel(), np.arange(0, cols.size + 1, 4 * m * n)),
                            shape=((h1 - h0) * t, table.shape[0]))

    def fused_rows(h0, h1, pieces):
        """U: each query's weighted sum of heads h0..h1-1's samples, (k, T, C)."""
        return (blend_matrix(h0, h1, pieces) @ table).reshape(h1 - h0, t, c)

    def block(h0, h1):
        """Heads h0..h1-1's outputs (k, T, D); their corners and U die with the call."""
        return fused_rows(h0, h1, level_pieces(h0, h1)) @ val_w[h0:h1]

    if nh * t * m * n * c < _PARALLEL_VALUES:
        out = block(0, nh)
    else:
        out = np.empty((nh, t, val_w.shape[2]))

        def head(h):
            out[h] = block(h, h + 1)[0]

        _on_pool(head, range(nh))

    # the node keeps ref, the offsets and the weights, not their locations,
    # corners and blend: the backward recomputes them
    def backward(g):
        pieces = level_pieces(0, nh)
        g_val_w = _on_pool(lambda: np.swapaxes(fused_rows(0, nh, pieces), -1, -2) @ g)
        g_u = (g @ np.swapaxes(val_w, -1, -2)).reshape(nh * t, c)  # row h*T + q
        src = np.repeat(np.arange(t)[:, None] + t * np.arange(nh), n)  # each sample's g_u row
        g_levels, g_locs, g_off, g_weights = [], [], np.empty(off.shape), np.empty((t, nh, m, n))
        for lvl, ((_, h, w), start, (lin, valid, corner_w, fi, fj)) in enumerate(zip(shapes, offsets, pieces)):
            w_l = weights[:, :, lvl].ravel()  # samples run (query, head, point)
            # grid gradient: scatter each sample's g_u row, times its weight and corner
            # weight, into its 4 corners, corner-major then by sample; out-of-bounds
            # corners carry weight 0, so their clipped scatter adds zero
            g_flat = _scatter_rows(lin.ravel(), g_u, h * w, (corner_w * w_l).ravel(), np.tile(src, 4))
            g_levels.append(g_flat.T.reshape(c, h, w))
            # out-of-bounds corners contribute zero, so mask their dots
            dots = _corner_dots(table[start : start + h * w], lin, g_u, src) * valid  # (4, K)
            # location gradient: derivative of the blend weights wrt the fractional offsets
            v00, v01, v10, v11 = dots
            d_fi = -(1.0 - fj) * v00 - fj * v01 + (1.0 - fj) * v10 + fj * v11
            d_fj = -(1.0 - fi) * v00 + (1.0 - fi) * v01 - fi * v10 + fi * v11
            g_locs.append((np.stack([d_fi * h, d_fj * w], axis=1) * w_l[:, None]).reshape(t, nh, n, 2))
            # the sums of a location chain on the tape: its zero-filled level slices
            # turned -0.0 into +0.0 (x + -0.0 is x), and its broadcast of ref summed
            # over the levels in reverse, then points, then heads.  numpy's sum starts
            # from +0.0, so one head and point (bilinear_sample) skip the last two
            np.add(g_locs[-1] * cells[lvl], 0.0 if m > 1 else -0.0, out=g_off[:, :, lvl])
            g_weights[:, :, lvl] = (corner_w * dots).sum(axis=0).reshape(t, nh, n)
        g_loc = functools.reduce(np.add, g_locs[::-1])
        g_ref = g_loc.reshape(t, 2) if nh * n == 1 else g_loc.sum(axis=2).sum(axis=1)
        return g_levels + [g_ref, g_off, g_weights, g_val_w.result()]

    return _op("sample_levels", out, inputs, backward)


def bilinear_sample(grid: Tensor, pts: Tensor) -> Tensor:
    """Sample a C x h x w grid at K normalized (row, col) points -> K x C.

    The one-level, one-head, one-point case of `sample_levels`, with the
    points as reference points, zero offsets, unit weights and the identity
    projection, which pass every finite sample and gradient through exactly.
    """
    _require(len(pts.shape) == 2 and pts.shape[1] == 2, f"bilinear_sample: pts must be K x 2, got {pts.shape}")
    k = pts.shape[0]
    unit = Tensor(np.ones((k, 1, 1, 1)))
    identity = Tensor(np.eye(grid.shape[0])[None])
    out = sample_levels([grid], pts, Tensor(np.zeros((k, 1, 1, 1, 2))), unit, identity)
    return reshape(out, (k, out.shape[-1]))
