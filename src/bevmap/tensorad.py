"""Dense double-precision tensors with a reverse-mode autodiff tape.

Values are plain numpy float64 arrays.  Recording is explicit: primitives
applied while a `Tape` is active append nodes to it; outside any tape they
are plain numpy math (used for inference and benchmarking).  Shapes never
broadcast implicitly -- alignment is done with explicit reshape / repeat,
which keeps the attention wiring free of silent shape bugs.

A tape is rebuilt on every forward pass.  `backward` walks it once in
reverse and returns a `GradMap` (node id -> gradient array).  `grad_check`
compares analytic gradients against central finite differences.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp

__all__ = [
    "ContractViolation",
    "Tensor",
    "Tape",
    "GradMap",
    "tensor",
    "primitive_forward",
    "registered_primitives",
    "backward",
    "grad_check",
    "active_tape",
    "add",
    "subtract",
    "multiply",
    "matmul",
    "softmax",
    "relu",
    "sigmoid",
    "stable_sigmoid",
    "inverse_sigmoid",
    "layer_normalize",
    "concat",
    "slice_axis",
    "reduce_sum",
    "reduce_mean",
    "scale",
    "bilinear_sample",
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
    "scale_rows",
]


class ContractViolation(ValueError):
    """An operation was called outside its contract (shape, range, or kind)."""


# --------------------------------------------------------------------------
# Tensor / tape machinery
# --------------------------------------------------------------------------


class Tensor:
    """Immutable dense float64 array, optionally linked to a node on a tape."""

    __slots__ = ("values", "_tape", "_nid")

    def __init__(self, values, _tape: "Tape | None" = None, _nid: int | None = None):
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

    @property
    def node_id(self) -> int | None:
        """Node id on the currently active tape, if this tensor is recorded there."""
        tape = active_tape()
        if tape is not None and self._tape is tape:
            return self._nid
        return None

    def item(self) -> float:
        return float(self.values.reshape(()))

    def detach(self) -> "Tensor":
        """Same values, no tape link (blocks gradient flow)."""
        return Tensor(self.values)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"

    # Operator sugar; scalars are allowed on elementwise ops for convenience.
    def __add__(self, other):
        if isinstance(other, (int, float)):
            other = Tensor(np.full(self.shape, float(other)))
        return add(self, other)

    def __sub__(self, other):
        if isinstance(other, (int, float)):
            other = Tensor(np.full(self.shape, float(other)))
        return subtract(self, other)

    def __rsub__(self, other):
        if isinstance(other, (int, float)):
            return subtract(Tensor(np.full(self.shape, float(other))), self)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, float(other))
        return multiply(self, other)

    __rmul__ = __mul__

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return scale(self, -1.0)


def tensor(values) -> Tensor:
    return Tensor(values)


class Node:
    __slots__ = ("kind", "inputs", "params", "output", "ctx")

    def __init__(self, kind, inputs, params, output, ctx):
        self.kind = kind
        self.inputs = inputs  # tuple of node ids, topologically earlier
        self.params = params
        self.output = output
        self.ctx = ctx


_TAPE_STACK: list["Tape"] = []


def active_tape() -> "Tape | None":
    return _TAPE_STACK[-1] if _TAPE_STACK else None


class Tape:
    """Ordered record of primitive applications; context manager enables recording."""

    def __init__(self):
        self.nodes: list[Node] = []

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
        if t._tape is self and t._nid is not None:
            return t._nid
        nid = len(self.nodes)
        self.nodes.append(Node("leaf", (), {}, t.values, ()))
        t._tape = self
        t._nid = nid
        return nid

    def _record(self, kind, input_ids, params, output, ctx) -> int:
        nid = len(self.nodes)
        self.nodes.append(Node(kind, tuple(input_ids), params, output, ctx))
        return nid

    def replay(self) -> bool:
        """Recompute every node from its recorded inputs; True iff bit-identical."""
        outs: list[np.ndarray] = []
        for node in self.nodes:
            if node.kind == "leaf":
                outs.append(node.output)
                continue
            ins = [outs[i] for i in node.inputs]
            recomputed, _ = _FORWARD[node.kind](ins, node.params)
            if recomputed.shape != node.output.shape:
                return False
            if not np.array_equal(recomputed, node.output):
                return False
            outs.append(recomputed)
        return True


class GradMap(dict):
    """node_id -> gradient array, each shaped like that node's output."""

    def of(self, t: Tensor) -> np.ndarray:
        """Gradient for a tensor recorded on the tape this map came from (zeros if unreached)."""
        if t._nid is not None and t._nid in self:
            return self[t._nid]
        return np.zeros(t.shape)


# --------------------------------------------------------------------------
# Primitive registry and application
# --------------------------------------------------------------------------

# forward: (input arrays, params) -> (output array, ctx)
# backward: (node, upstream grad) -> list of grads aligned with node.inputs (None = no grad)
_FORWARD: dict[str, Callable] = {}
_BACKWARD: dict[str, Callable] = {}


def _register(kind: str, fwd: Callable, bwd: Callable) -> None:
    _FORWARD[kind] = fwd
    _BACKWARD[kind] = bwd


def registered_primitives() -> list[str]:
    return sorted(_FORWARD)


def _apply(kind: str, inputs: Sequence[Tensor], params: dict) -> Tensor:
    arrays = [t.values for t in inputs]
    out, ctx = _FORWARD[kind](arrays, params)
    tape = active_tape()
    if tape is None:
        return Tensor(out)
    ids = [tape._ensure(t) for t in inputs]
    nid = tape._record(kind, ids, params, out, ctx)
    return Tensor(out, tape, nid)


def primitive_forward(kind: str, inputs: Sequence[Tensor], params: dict | None = None) -> Tensor:
    """Generic entry point: apply a registered primitive by name."""
    if kind not in _FORWARD:
        raise ContractViolation(f"unknown primitive {kind!r}; registered: {registered_primitives()}")
    return _apply(kind, list(inputs), dict(params or {}))


def backward(tape: Tape, output: Tensor | int) -> GradMap:
    """Reverse sweep from a scalar output node; leaves unreachable from it get zeros."""
    if isinstance(output, Tensor):
        if output._tape is not tape or output._nid is None:
            raise ContractViolation("backward: output tensor is not recorded on this tape")
        out_id = output._nid
    else:
        out_id = int(output)
    out_node = tape.nodes[out_id]
    if out_node.output.size != 1:
        raise ContractViolation(
            f"backward: output must be scalar-shaped, got shape {out_node.output.shape}"
        )
    grads = GradMap()
    grads[out_id] = np.ones(out_node.output.shape)
    for nid in range(out_id, -1, -1):
        if nid not in grads:
            continue
        node = tape.nodes[nid]
        if node.kind == "leaf":
            continue
        input_grads = _BACKWARD[node.kind](node, grads[nid])
        for inp, g in zip(node.inputs, input_grads):
            if g is None:
                continue
            if inp in grads:
                grads[inp] = grads[inp] + g
            else:
                grads[inp] = g
    for nid, node in enumerate(tape.nodes):
        if node.kind == "leaf" and nid not in grads:
            grads[nid] = np.zeros(node.output.shape)
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
# Primitive definitions
# --------------------------------------------------------------------------


def _fwd_add(ins, p):
    a, b = ins
    _same_shape("add", a, b)
    return a + b, ()


_register("add", _fwd_add, lambda node, g: [g, g])


def _fwd_subtract(ins, p):
    a, b = ins
    _same_shape("subtract", a, b)
    return a - b, ()


_register("subtract", _fwd_subtract, lambda node, g: [g, -g])


def _fwd_multiply(ins, p):
    a, b = ins
    _same_shape("multiply", a, b)
    return a * b, (a, b)


_register("multiply", _fwd_multiply, lambda node, g: [g * node.ctx[1], g * node.ctx[0]])


def _fwd_matmul(ins, p):
    a, b = ins
    _require(a.ndim >= 2 and b.ndim >= 2, f"matmul: inputs must be >=2-d, got {a.shape} @ {b.shape}")
    _require(a.ndim == b.ndim, f"matmul: rank mismatch {a.shape} @ {b.shape}")
    _require(a.shape[:-2] == b.shape[:-2], f"matmul: batch dims differ {a.shape} @ {b.shape}")
    _require(a.shape[-1] == b.shape[-2], f"matmul: inner dims differ {a.shape} @ {b.shape}")
    return a @ b, (a, b)


def _bwd_matmul(node, g):
    a, b = node.ctx
    return [g @ np.swapaxes(b, -1, -2), np.swapaxes(a, -1, -2) @ g]


_register("matmul", _fwd_matmul, _bwd_matmul)


def _fwd_softmax(ins, p):
    (x,) = ins
    axis = p["axis"] % x.ndim
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)
    return y, (y, axis)


def _bwd_softmax(node, g):
    y, axis = node.ctx
    return [y * (g - (g * y).sum(axis=axis, keepdims=True))]


_register("softmax", _fwd_softmax, _bwd_softmax)

_register(
    "relu",
    lambda ins, p: (np.maximum(ins[0], 0.0), (ins[0],)),
    lambda node, g: [g * (node.ctx[0] > 0)],
)


def stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function on a plain array, overflow-free for large |x|."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _fwd_sigmoid(ins, p):
    y = stable_sigmoid(ins[0])
    return y, (y,)


_register("sigmoid", _fwd_sigmoid, lambda node, g: [g * node.ctx[0] * (1.0 - node.ctx[0])])


def _fwd_inverse_sigmoid(ins, p):
    (x,) = ins
    margin = p.get("margin", 1e-6)
    xc = np.clip(x, margin, 1.0 - margin)
    y = np.log(xc) - np.log1p(-xc)
    return y, (x, xc, margin)


def _bwd_inverse_sigmoid(node, g):
    x, xc, margin = node.ctx
    inside = (x > margin) & (x < 1.0 - margin)
    return [g * inside / (xc * (1.0 - xc))]


_register("inverse_sigmoid", _fwd_inverse_sigmoid, _bwd_inverse_sigmoid)


def _fwd_layer_normalize(ins, p):
    (x,) = ins
    axis = p.get("axis", -1) % x.ndim
    eps = p.get("eps", 1e-5)
    mu = x.mean(axis=axis, keepdims=True)
    var = x.var(axis=axis, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv
    return xhat, (xhat, inv, axis)


def _bwd_layer_normalize(node, g):
    xhat, inv, axis = node.ctx
    gm = g.mean(axis=axis, keepdims=True)
    gx = (g * xhat).mean(axis=axis, keepdims=True)
    return [inv * (g - gm - xhat * gx)]


_register("layer_normalize", _fwd_layer_normalize, _bwd_layer_normalize)


def _fwd_concat(ins, p):
    axis = p["axis"]
    ndim = ins[0].ndim
    axis = axis % ndim
    for a in ins[1:]:
        _require(a.ndim == ndim, f"concat: rank mismatch {[x.shape for x in ins]}")
        _require(
            a.shape[:axis] + a.shape[axis + 1 :] == ins[0].shape[:axis] + ins[0].shape[axis + 1 :],
            f"concat: incompatible shapes {[x.shape for x in ins]} along axis {axis}",
        )
    sizes = [a.shape[axis] for a in ins]
    return np.concatenate(ins, axis=axis), (sizes, axis)


def _bwd_concat(node, g):
    sizes, axis = node.ctx
    splits = np.cumsum(sizes)[:-1]
    return list(np.split(g, splits, axis=axis))


_register("concat", _fwd_concat, _bwd_concat)


def _fwd_slice(ins, p):
    (x,) = ins
    axis = p["axis"] % x.ndim
    start, stop = p["start"], p["stop"]
    _require(0 <= start < stop <= x.shape[axis], f"slice: [{start}:{stop}] out of range for axis {axis} of {x.shape}")
    idx = [slice(None)] * x.ndim
    idx[axis] = slice(start, stop)
    return np.ascontiguousarray(x[tuple(idx)]), (x.shape, axis, start, stop)


def _bwd_slice(node, g):
    shape, axis, start, stop = node.ctx
    gx = np.zeros(shape)
    idx = [slice(None)] * len(shape)
    idx[axis] = slice(start, stop)
    gx[tuple(idx)] = g
    return [gx]


_register("slice", _fwd_slice, _bwd_slice)


def _fwd_reduce_sum(ins, p):
    (x,) = ins
    axes = _norm_axes(p.get("axis"), x.ndim)
    keepdims = p.get("keepdims", False)
    return x.sum(axis=axes, keepdims=keepdims), (x.shape, axes, keepdims)


def _expand_reduced(g, shape, axes, keepdims):
    if not keepdims:
        for a in sorted(axes):
            g = np.expand_dims(g, a)
    return np.broadcast_to(g, shape).copy()


def _bwd_reduce_sum(node, g):
    shape, axes, keepdims = node.ctx
    return [_expand_reduced(g, shape, axes, keepdims)]


_register("reduce_sum", _fwd_reduce_sum, _bwd_reduce_sum)


def _fwd_reduce_mean(ins, p):
    (x,) = ins
    axes = _norm_axes(p.get("axis"), x.ndim)
    keepdims = p.get("keepdims", False)
    count = 1
    for a in axes:
        count *= x.shape[a]
    return x.mean(axis=axes, keepdims=keepdims), (x.shape, axes, keepdims, count)


def _bwd_reduce_mean(node, g):
    shape, axes, keepdims, count = node.ctx
    return [_expand_reduced(g, shape, axes, keepdims) / count]


_register("reduce_mean", _fwd_reduce_mean, _bwd_reduce_mean)

_register(
    "scale",
    lambda ins, p: (ins[0] * p["factor"], ()),
    lambda node, g: [g * node.params["factor"]],
)


def _fwd_squared_hinge(ins, p):
    (x,) = ins
    h = np.maximum(x, 0.0)
    return h * h, (h,)


_register("squared_hinge", _fwd_squared_hinge, lambda node, g: [g * 2.0 * node.ctx[0]])


def _fwd_reshape(ins, p):
    (x,) = ins
    shape = tuple(p["shape"])
    _require(
        int(np.prod(shape)) == x.size,
        f"reshape: cannot reshape {x.shape} into {shape}",
    )
    return x.reshape(shape), (x.shape,)


_register("reshape", _fwd_reshape, lambda node, g: [g.reshape(node.ctx[0])])


def _fwd_transpose(ins, p):
    (x,) = ins
    axes = tuple(p["axes"])
    _require(sorted(axes) == list(range(x.ndim)), f"transpose: axes {axes} invalid for {x.shape}")
    return np.ascontiguousarray(x.transpose(axes)), (axes,)


def _bwd_transpose(node, g):
    axes = node.ctx[0]
    inverse = np.argsort(axes)
    return [np.ascontiguousarray(g.transpose(inverse))]


_register("transpose", _fwd_transpose, _bwd_transpose)


def _fwd_repeat(ins, p):
    (x,) = ins
    axis = p["axis"] % x.ndim
    times = p["times"]
    _require(times >= 1, f"repeat: times must be >= 1, got {times}")
    return np.repeat(x, times, axis=axis), (x.shape, axis, times)


def _bwd_repeat(node, g):
    shape, axis, times = node.ctx
    expanded = g.reshape(shape[: axis + 1] + (times,) + shape[axis + 1 :])
    return [expanded.sum(axis=axis + 1)]


_register("repeat", _fwd_repeat, _bwd_repeat)


def _fwd_gather(ins, p):
    (x,) = ins
    axis = p["axis"] % x.ndim
    idx = np.asarray(p["indices"], dtype=np.int64)
    _require(idx.ndim == 1, "gather: indices must be 1-d")
    _require(
        idx.size == 0 or (idx.min() >= 0 and idx.max() < x.shape[axis]),
        f"gather: indices out of range for axis {axis} of {x.shape}",
    )
    return np.take(x, idx, axis=axis), (x.shape, axis, idx)


def _scatter_rows(rows: np.ndarray, src: np.ndarray, n_rows: int, weights: np.ndarray | None = None) -> np.ndarray:
    """Sum weights[r] * src[r] into row rows[r] of an (n_rows, C) zero array.

    The sum runs in increasing r, the order of numpy's unbuffered `ufunc.at`
    scatter, so results match it bit for bit: the transpose of a
    one-nonzero-per-row CSR matrix is applied column by column.
    """
    n = rows.size
    data = np.ones(n) if weights is None else weights
    spread = sp.csr_array((data, rows, np.arange(n + 1)), shape=(n, n_rows))
    return spread.T @ src


def _bwd_gather(node, g):
    shape, axis, idx = node.ctx
    g_m = np.moveaxis(g, axis, 0)
    rest = g_m.shape[1:]
    flat = _scatter_rows(idx, g_m.reshape(idx.size, math.prod(rest)), shape[axis])
    return [np.ascontiguousarray(np.moveaxis(flat.reshape((shape[axis],) + rest), 0, axis))]


_register("gather", _fwd_gather, _bwd_gather)

_register("sqrt", lambda ins, p: (np.sqrt(ins[0]), (ins[0],)),
          lambda node, g: [g * 0.5 / np.sqrt(np.maximum(node.ctx[0], 1e-24))])

_register("absolute", lambda ins, p: (np.abs(ins[0]), (ins[0],)),
          lambda node, g: [g * np.sign(node.ctx[0])])

_register("sin", lambda ins, p: (np.sin(ins[0]), (ins[0],)), lambda node, g: [g * np.cos(node.ctx[0])])

_register("cos", lambda ins, p: (np.cos(ins[0]), (ins[0],)), lambda node, g: [-g * np.sin(node.ctx[0])])


def _fwd_softplus(ins, p):
    (x,) = ins
    y = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
    return y, (x,)


_register("softplus", _fwd_softplus, lambda node, g: [g * stable_sigmoid(node.ctx[0])])


def _fwd_add_rows(ins, p):
    x, b = ins
    _require(b.ndim == 1 and x.shape[-1] == b.shape[0],
             f"add_rows: trailing dim of {x.shape} must match vector {b.shape}")
    return x + b, (x.ndim,)


def _bwd_add_rows(node, g):
    ndim = node.ctx[0]
    axes = tuple(range(ndim - 1))
    return [g, g.sum(axis=axes)]


_register("add_rows", _fwd_add_rows, _bwd_add_rows)


def _fwd_scale_rows(ins, p):
    x, b = ins
    _require(b.ndim == 1 and x.shape[-1] == b.shape[0],
             f"scale_rows: trailing dim of {x.shape} must match vector {b.shape}")
    return x * b, (x, b)


def _bwd_scale_rows(node, g):
    x, b = node.ctx
    axes = tuple(range(x.ndim - 1))
    return [g * b, (g * x).sum(axis=axes)]


_register("scale_rows", _fwd_scale_rows, _bwd_scale_rows)


def _fwd_power(ins, p):
    (x,) = ins
    exponent = p["exponent"]
    _require((x >= 0).all(), "power: base must be non-negative")
    return np.power(x, exponent), (x, exponent)


def _bwd_power(node, g):
    x, exponent = node.ctx
    if exponent == 0:
        return [np.zeros_like(x)]
    base = np.power(np.maximum(x, 1e-300), exponent - 1.0)
    return [g * exponent * base]


_register("power", _fwd_power, _bwd_power)


# --------------------------------------------------------------------------
# Bilinear sampling (align-corners-false, zero padding outside the grid)
#
# The kernel is a sparse blend operator: a K x h*w CSR matrix holding each
# sample's four corner weights, applied to a channel-last (h*w, C) copy of
# the grid.  Every summation order is pinned on purpose and matches the
# dense gather / einsum / `ufunc.at` scatter formulation bit for bit
# (tests/test_tensorad.py keeps it as the reference): training is chaotic
# in rounding, so a reordered sum grows into a different model within a
# few dozen steps.
# --------------------------------------------------------------------------


def _bilinear_pieces(grid: np.ndarray, pts: np.ndarray):
    """Corner indices and masked blend weights for K points on a C x h x w grid.

    Returns lin (4, K) clipped flat indices into h*w, valid (4, K), weights
    (4, K) with out-of-bounds corners zeroed (zero padding), and the
    fractional offsets fi, fj (K,).  Corners run (0,0), (0,1), (1,0), (1,1).
    """
    c, h, w = grid.shape
    ci = pts[:, 0] * h - 0.5
    cj = pts[:, 1] * w - 0.5
    i0 = np.floor(ci).astype(np.int64)
    j0 = np.floor(cj).astype(np.int64)
    fi = ci - i0
    fj = cj - j0
    di = np.array([0, 0, 1, 1])[:, None]
    dj = np.array([0, 1, 0, 1])[:, None]
    ii = i0[None, :] + di  # (4, K)
    jj = j0[None, :] + dj
    valid = (ii >= 0) & (ii < h) & (jj >= 0) & (jj < w)
    lin = np.clip(ii, 0, h - 1) * w + np.clip(jj, 0, w - 1)
    wi = np.where(di == 1, fi[None, :], 1.0 - fi[None, :])
    wj = np.where(dj == 1, fj[None, :], 1.0 - fj[None, :])
    weights = wi * wj * valid  # masking the weight implements zero padding
    return lin, valid, weights, fi, fj


def _fwd_bilinear(ins, p):
    grid, pts = ins
    _require(grid.ndim == 3, f"bilinear_sample: grid must be C x h x w, got {grid.shape}")
    _require(pts.ndim == 2 and pts.shape[1] == 2, f"bilinear_sample: pts must be K x 2, got {pts.shape}")
    c, h, w = grid.shape
    k = pts.shape[0]
    lin, valid, weights, fi, fj = _bilinear_pieces(grid, pts)
    table = np.ascontiguousarray(grid.reshape(c, h * w).T)  # (h*w, C), channel-last
    # row k holds its four corners in corner order; explicit zeros and clipped
    # duplicates stay, so each output is ((0 + w00 v00) + w01 v01) + ... in order
    blend = sp.csr_array((weights.T.ravel(), lin.T.ravel(), np.arange(0, 4 * k + 1, 4)), shape=(k, h * w))
    return blend @ table, (grid.shape, table, lin, valid, weights, fi, fj)


def _bwd_bilinear(node, g):
    shape, table, lin, valid, weights, fi, fj = node.ctx
    c, h, w = shape
    # grid gradient: scatter weighted upstream grads into the 4 corners, corner-
    # major then by sample; out-of-bounds corners carry weight 0, so their
    # clipped scatter adds zero
    g_flat = _scatter_rows(lin.ravel(), np.tile(g, (4, 1)), h * w, weights.ravel())
    g_grid = g_flat.T.reshape(c, h, w)
    # point gradient: derivative of the blend weights wrt the fractional offsets;
    # out-of-bounds corners contribute zero, so mask their value dot products
    dots = np.stack([np.einsum("kc,kc->k", table[lin_f], g) for lin_f in lin]) * valid  # (4, K)
    v00, v01, v10, v11 = dots
    d_fi = -(1.0 - fj) * v00 - fj * v01 + (1.0 - fj) * v10 + fj * v11
    d_fj = -(1.0 - fi) * v00 + (1.0 - fi) * v01 - fi * v10 + fi * v11
    g_pts = np.stack([d_fi * h, d_fj * w], axis=1)
    return [g_grid, g_pts]


_register("bilinear_sample", _fwd_bilinear, _bwd_bilinear)


# --------------------------------------------------------------------------
# Functional wrappers
# --------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    return _apply("add", [a, b], {})


def subtract(a: Tensor, b: Tensor) -> Tensor:
    return _apply("subtract", [a, b], {})


def multiply(a: Tensor, b: Tensor) -> Tensor:
    return _apply("multiply", [a, b], {})


def matmul(a: Tensor, b: Tensor) -> Tensor:
    return _apply("matmul", [a, b], {})


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    return _apply("softmax", [x], {"axis": axis})


def relu(x: Tensor) -> Tensor:
    return _apply("relu", [x], {})


def sigmoid(x: Tensor) -> Tensor:
    return _apply("sigmoid", [x], {})


def inverse_sigmoid(x: Tensor, margin: float = 1e-6) -> Tensor:
    return _apply("inverse_sigmoid", [x], {"margin": margin})


def layer_normalize(x: Tensor, axis: int = -1, eps: float = 1e-5) -> Tensor:
    return _apply("layer_normalize", [x], {"axis": axis, "eps": eps})


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    return _apply("concat", list(tensors), {"axis": axis})


def slice_axis(x: Tensor, axis: int, start: int, stop: int) -> Tensor:
    return _apply("slice", [x], {"axis": axis, "start": start, "stop": stop})


def reduce_sum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    return _apply("reduce_sum", [x], {"axis": axis, "keepdims": keepdims})


def reduce_mean(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    return _apply("reduce_mean", [x], {"axis": axis, "keepdims": keepdims})


def scale(x: Tensor, factor: float) -> Tensor:
    return _apply("scale", [x], {"factor": float(factor)})


def bilinear_sample(grid: Tensor, pts: Tensor) -> Tensor:
    """Sample a C x h x w grid at K normalized (row, col) points -> K x C."""
    return _apply("bilinear_sample", [grid, pts], {})


def squared_hinge(x: Tensor) -> Tensor:
    return _apply("squared_hinge", [x], {})


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    return _apply("reshape", [x], {"shape": tuple(int(s) for s in shape)})


def transpose(x: Tensor, axes: Sequence[int]) -> Tensor:
    return _apply("transpose", [x], {"axes": tuple(int(a) for a in axes)})


def repeat_axis(x: Tensor, axis: int, times: int) -> Tensor:
    return _apply("repeat", [x], {"axis": axis, "times": int(times)})


def gather(x: Tensor, indices, axis: int = 0) -> Tensor:
    return _apply("gather", [x], {"axis": axis, "indices": np.asarray(indices, dtype=np.int64)})


def sqrt(x: Tensor) -> Tensor:
    return _apply("sqrt", [x], {})


def absolute(x: Tensor) -> Tensor:
    return _apply("absolute", [x], {})


def sin(x: Tensor) -> Tensor:
    return _apply("sin", [x], {})


def cos(x: Tensor) -> Tensor:
    return _apply("cos", [x], {})


def softplus(x: Tensor) -> Tensor:
    return _apply("softplus", [x], {})


def power(x: Tensor, exponent: float) -> Tensor:
    return _apply("power", [x], {"exponent": float(exponent)})


def add_rows(x: Tensor, b: Tensor) -> Tensor:
    """Add a vector to the trailing axis of every row (explicit bias add)."""
    return _apply("add_rows", [x, b], {})


def scale_rows(x: Tensor, b: Tensor) -> Tensor:
    """Multiply the trailing axis of every row by a vector (explicit gain)."""
    return _apply("scale_rows", [x, b], {})
