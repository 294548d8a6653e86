import math

import numpy as np
import pytest

from bevmap import tensorad as ta
from bevmap.tensorad import ContractViolation, GradMap, Tape, Tensor


def test_softmax_symmetry():
    out = ta.softmax(Tensor([0.0, 0.0]))
    assert np.allclose(out.values, [0.5, 0.5], atol=1e-15)


def test_matmul_identity():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(3, 5))
    out = ta.matmul(Tensor(np.eye(3)), Tensor(x))
    assert np.array_equal(out.values, x)


def test_relu_definition():
    assert ta.relu(Tensor([-1.5])).values[0] == 0.0
    assert ta.relu(Tensor([2.5])).values[0] == 2.5


def test_product_rule():
    with Tape() as tape:
        x = Tensor([2.0])
        y = Tensor([3.0])
        f = ta.reduce_sum(ta.multiply(x, y))
        grads = ta.backward(tape, f)
    assert grads.of(x)[0] == 3.0
    assert grads.of(y)[0] == 2.0


def test_sum_of_squares_gradient():
    with Tape() as tape:
        x = Tensor([1.0, 2.0])
        f = ta.reduce_sum(ta.multiply(x, x))
        grads = ta.backward(tape, f)
    assert np.allclose(grads.of(x), [2.0, 4.0])


def test_softmax_sum_is_constant():
    rng = np.random.default_rng(1)
    with Tape() as tape:
        x = Tensor(rng.normal(size=6))
        f = ta.reduce_sum(ta.softmax(x))
        grads = ta.backward(tape, f)
    assert np.abs(grads.of(x)).max() < 1e-12


def test_backward_requires_scalar():
    with Tape() as tape:
        x = Tensor([1.0, 2.0])
        y = ta.relu(x)
        with pytest.raises(ContractViolation, match="scalar"):
            ta.backward(tape, y)


def test_shape_mismatch_names_primitive():
    with pytest.raises(ContractViolation, match="add"):
        ta.add(Tensor(np.zeros(3)), Tensor(np.zeros(4)))
    with pytest.raises(ContractViolation, match="matmul"):
        ta.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))


def test_inverse_sigmoid_clamps_instead_of_erroring():
    out = ta.inverse_sigmoid(Tensor([0.0, 1.0, 0.5]))
    assert np.isfinite(out.values).all()
    assert out.values[2] == 0.0


def test_unreached_leaves_get_zero_gradients():
    with Tape() as tape:
        x = Tensor([1.0, 2.0])
        y = Tensor([5.0, 5.0])  # never used downstream of f
        _ = ta.relu(y)
        f = ta.reduce_sum(x)
        grads = ta.backward(tape, f)
    assert np.array_equal(grads.of(y), np.zeros(2))
    assert np.array_equal(grads.of(x), np.ones(2))


def test_gradmap_shapes_match_outputs():
    with Tape() as tape:
        x = Tensor(np.ones((2, 3)))
        f = ta.reduce_sum(ta.sigmoid(x))
        grads = ta.backward(tape, f)
    assert isinstance(grads, GradMap)
    for nid, g in grads.items():
        assert g.shape == tape.nodes[nid].output.shape


def test_tape_replay_bit_identical():
    rng = np.random.default_rng(2)
    with Tape() as tape:
        a = Tensor(rng.normal(size=(4, 4)))
        b = Tensor(rng.normal(size=(4, 4)))
        h = ta.relu(ta.matmul(a, b))
        out = ta.reduce_mean(ta.softmax(h, axis=1))
        assert out.size == 1
    assert tape.replay()


def test_sum_of_losses_gradients_add():
    rng = np.random.default_rng(3)
    xv = rng.normal(size=(3, 3))

    def build(x):
        l1 = ta.reduce_sum(ta.multiply(x, x))
        l2 = ta.reduce_sum(ta.sigmoid(x))
        return l1, l2

    with Tape() as t1:
        x = Tensor(xv)
        l1, _ = build(x)
        g1 = ta.backward(t1, l1).of(x)
    with Tape() as t2:
        x = Tensor(xv)
        _, l2 = build(x)
        g2 = ta.backward(t2, l2).of(x)
    with Tape() as t3:
        x = Tensor(xv)
        l1, l2 = build(x)
        g12 = ta.backward(t3, ta.add(l1, l2)).of(x)
    assert np.allclose(g12, g1 + g2, atol=1e-12)


def test_linear_layer_gradcheck_tight():
    rng = np.random.default_rng(4)
    w = Tensor(rng.normal(size=(4, 4)))
    x = Tensor(rng.normal(size=(4, 4)))
    b = Tensor(rng.normal(size=(4, 4)))

    def f(wv, xv, bv):
        return ta.reduce_sum(ta.add(ta.matmul(wv, xv), bv))

    assert ta.grad_check(f, [w, x, b], eps=1e-5) <= 1e-6


def test_grad_check_eps_contract():
    with pytest.raises(ContractViolation):
        ta.grad_check(lambda x: ta.reduce_sum(x), [Tensor([1.0])], eps=1e-2)


def test_primitive_forward_generic_entry():
    out = ta.primitive_forward("relu", [Tensor([-1.0, 1.0])])
    assert np.array_equal(out.values, [0.0, 1.0])
    with pytest.raises(ContractViolation, match="unknown primitive"):
        ta.primitive_forward("does_not_exist", [Tensor([1.0])])


# --------------------------------------------------------------------------
# Per-primitive gradient checks on random small shapes
# --------------------------------------------------------------------------

def _case_add(rng):
    a, b = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
    return lambda x, y: ta.reduce_sum(ta.multiply(ta.add(x, y), ta.add(x, y))), [a, b]


def _case_subtract(rng):
    a, b = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
    return lambda x, y: ta.reduce_sum(ta.multiply(ta.subtract(x, y), ta.subtract(x, y))), [a, b]


def _case_multiply(rng):
    a, b = rng.normal(size=(2, 5)), rng.normal(size=(2, 5))
    return lambda x, y: ta.reduce_sum(ta.multiply(x, y)), [a, b]


def _case_matmul(rng):
    a, b = rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 4, 2))
    return lambda x, y: ta.reduce_sum(ta.multiply(ta.matmul(x, y), ta.matmul(x, y))), [a, b]


def _case_softmax(rng):
    x = rng.normal(size=(3, 5))
    w = rng.normal(size=(3, 5))
    return lambda v: ta.reduce_sum(ta.multiply(ta.softmax(v, axis=1), Tensor(w))), [x]


def _case_relu(rng):
    x = rng.normal(size=(4, 4)) + 0.05  # keep away from the kink
    return lambda v: ta.reduce_sum(ta.multiply(ta.relu(v), ta.relu(v))), [x]


def _case_sigmoid(rng):
    x = rng.normal(size=6)
    return lambda v: ta.reduce_sum(ta.multiply(ta.sigmoid(v), ta.sigmoid(v))), [x]


def _case_inverse_sigmoid(rng):
    x = rng.uniform(0.1, 0.9, size=7)
    return lambda v: ta.reduce_sum(ta.multiply(ta.inverse_sigmoid(v), ta.inverse_sigmoid(v))), [x]


def _case_layer_normalize(rng):
    x = rng.normal(size=(3, 6))
    w = rng.normal(size=(3, 6))
    return lambda v: ta.reduce_sum(ta.multiply(ta.layer_normalize(v), Tensor(w))), [x]


def _case_concat(rng):
    a, b = rng.normal(size=(2, 3)), rng.normal(size=(2, 2))
    return lambda x, y: ta.reduce_sum(ta.multiply(ta.concat([x, y], axis=1), ta.concat([x, y], axis=1))), [a, b]


def _case_slice(rng):
    x = rng.normal(size=(4, 5))
    return lambda v: ta.reduce_sum(ta.multiply(ta.slice_axis(v, 1, 1, 4), ta.slice_axis(v, 1, 1, 4))), [x]


def _case_reduce_sum(rng):
    x = rng.normal(size=(3, 4))
    return lambda v: ta.reduce_sum(ta.multiply(ta.reduce_sum(v, axis=1), ta.reduce_sum(v, axis=1))), [x]


def _case_reduce_mean(rng):
    x = rng.normal(size=(3, 4))
    return lambda v: ta.reduce_sum(ta.multiply(ta.reduce_mean(v, axis=0), ta.reduce_mean(v, axis=0))), [x]


def _case_scale(rng):
    x = rng.normal(size=(2, 3))
    return lambda v: ta.reduce_sum(ta.multiply(ta.scale(v, -2.5), ta.scale(v, -2.5))), [x]


def _case_bilinear(rng):
    grid = rng.normal(size=(2, 5, 4))
    pts = rng.uniform(0.05, 0.95, size=(6, 2))
    return lambda g, p: ta.reduce_sum(ta.multiply(ta.bilinear_sample(g, p), ta.bilinear_sample(g, p))), [grid, pts]


def _case_squared_hinge(rng):
    x = rng.normal(size=8)
    x = x[np.abs(x) > 0.05]
    return lambda v: ta.reduce_sum(ta.squared_hinge(v)), [x]


def _case_reshape(rng):
    x = rng.normal(size=(2, 6))
    return lambda v: ta.reduce_sum(ta.multiply(ta.reshape(v, (3, 4)), ta.reshape(v, (3, 4)))), [x]


def _case_transpose(rng):
    x = rng.normal(size=(2, 3, 4))
    w = rng.normal(size=(4, 3, 2))
    return lambda v: ta.reduce_sum(ta.multiply(ta.transpose(v, (2, 1, 0)), Tensor(w))), [x]


def _case_repeat(rng):
    x = rng.normal(size=(2, 3))
    return lambda v: ta.reduce_sum(ta.multiply(ta.repeat_axis(v, 0, 2), ta.repeat_axis(v, 0, 2))), [x]


def _case_gather(rng):
    x = rng.normal(size=(5, 3))
    idx = [1, 3, 3, 0]
    return lambda v: ta.reduce_sum(ta.multiply(ta.gather(v, idx, axis=0), ta.gather(v, idx, axis=0))), [x]


def _case_sqrt(rng):
    x = rng.uniform(0.2, 3.0, size=6)
    return lambda v: ta.reduce_sum(ta.multiply(ta.sqrt(v), ta.sqrt(v))), [x]


def _case_absolute(rng):
    x = rng.normal(size=8)
    x = x[np.abs(x) > 0.05]
    return lambda v: ta.reduce_sum(ta.multiply(ta.absolute(v), ta.absolute(v))), [x]


def _case_sin(rng):
    x = rng.normal(size=6)
    return lambda v: ta.reduce_sum(ta.multiply(ta.sin(v), ta.sin(v))), [x]


def _case_cos(rng):
    x = rng.normal(size=6)
    return lambda v: ta.reduce_sum(ta.multiply(ta.cos(v), ta.cos(v))), [x]


def _case_softplus(rng):
    x = rng.normal(size=6)
    return lambda v: ta.reduce_sum(ta.multiply(ta.softplus(v), ta.softplus(v))), [x]


def _case_power(rng):
    x = rng.uniform(0.2, 2.0, size=6)
    return lambda v: ta.reduce_sum(ta.power(v, 2.0)), [x]


def _case_add_rows(rng):
    x, b = rng.normal(size=(4, 3)), rng.normal(size=3)
    return lambda v, u: ta.reduce_sum(ta.multiply(ta.add_rows(v, u), ta.add_rows(v, u))), [x, b]


def _case_scale_rows(rng):
    x, b = rng.normal(size=(4, 3)), rng.normal(size=3)
    return lambda v, u: ta.reduce_sum(ta.multiply(ta.scale_rows(v, u), ta.scale_rows(v, u))), [x, b]


_PRIMITIVE_CASES = {
    "add": _case_add,
    "subtract": _case_subtract,
    "multiply": _case_multiply,
    "matmul": _case_matmul,
    "softmax": _case_softmax,
    "relu": _case_relu,
    "sigmoid": _case_sigmoid,
    "inverse_sigmoid": _case_inverse_sigmoid,
    "layer_normalize": _case_layer_normalize,
    "concat": _case_concat,
    "slice": _case_slice,
    "reduce_sum": _case_reduce_sum,
    "reduce_mean": _case_reduce_mean,
    "scale": _case_scale,
    "bilinear_sample": _case_bilinear,
    "squared_hinge": _case_squared_hinge,
    "reshape": _case_reshape,
    "transpose": _case_transpose,
    "repeat": _case_repeat,
    "gather": _case_gather,
    "sqrt": _case_sqrt,
    "absolute": _case_absolute,
    "sin": _case_sin,
    "cos": _case_cos,
    "softplus": _case_softplus,
    "power": _case_power,
    "add_rows": _case_add_rows,
    "scale_rows": _case_scale_rows,
}


def test_every_registered_primitive_has_a_gradcheck_case():
    assert set(ta.registered_primitives()) == set(_PRIMITIVE_CASES)


@pytest.mark.parametrize("kind", sorted(_PRIMITIVE_CASES))
def test_primitive_gradcheck_random_inputs(kind):
    for trial in range(10):
        rng = np.random.default_rng(1000 + 17 * trial)
        fn, arrays = _PRIMITIVE_CASES[kind](rng)
        err = ta.grad_check(fn, [Tensor(a) for a in arrays], eps=1e-5)
        assert err <= 1e-4, f"{kind} trial {trial}: rel error {err}"


def test_grad_check_reports_inf_on_non_finite():
    def f(x):
        return ta.reduce_sum(ta.scale(x, math.inf))

    assert ta.grad_check(f, [Tensor([1.0])]) == math.inf


# --------------------------------------------------------------------------
# Bilinear and gather kernels: byte-identical to the dense reference
# --------------------------------------------------------------------------


def _dense_bilinear(grid, pts, g, corner_major=True):
    """Reference kernel: corner gather through the transposed (C, h*w) view,
    einsum blend and dot products, `np.add.at` scatter.  Returns the output,
    the grid gradient and the point gradient for upstream gradient g."""
    c, h, w = grid.shape
    ci = pts[:, 0] * h - 0.5
    cj = pts[:, 1] * w - 0.5
    i0 = np.floor(ci).astype(np.int64)
    j0 = np.floor(cj).astype(np.int64)
    fi = ci - i0
    fj = cj - j0
    di = np.array([0, 0, 1, 1])[:, None]
    dj = np.array([0, 1, 0, 1])[:, None]
    ii = i0[None, :] + di
    jj = j0[None, :] + dj
    valid = (ii >= 0) & (ii < h) & (jj >= 0) & (jj < w)
    lin = np.clip(ii, 0, h - 1) * w + np.clip(jj, 0, w - 1)
    vals = grid.reshape(c, h * w).T[lin]
    wi = np.where(di == 1, fi[None, :], 1.0 - fi[None, :])
    wj = np.where(dj == 1, fj[None, :], 1.0 - fj[None, :])
    weights = wi * wj * valid
    out = np.einsum("fkc,fk->kc", vals, weights)
    g_grid_flat = np.zeros((h * w, c))
    scaled = weights[:, :, None] * g[None, :, :]
    if corner_major:
        np.add.at(g_grid_flat, lin.reshape(-1), scaled.reshape(-1, c))
    else:
        np.add.at(g_grid_flat, lin.T.reshape(-1), scaled.transpose(1, 0, 2).reshape(-1, c))
    g_grid = g_grid_flat.T.reshape(c, h, w)
    dots = np.einsum("fkc,kc->fk", vals, g) * valid
    v00, v01, v10, v11 = dots
    d_fi = -(1.0 - fj) * v00 - fj * v01 + (1.0 - fj) * v10 + fj * v11
    d_fj = -(1.0 - fi) * v00 + (1.0 - fi) * v01 - fi * v10 + fi * v11
    g_pts = np.stack([d_fi * h, d_fj * w], axis=1)
    return out, g_grid, g_pts


def _tape_bilinear(grid, pts, g):
    with Tape() as tape:
        gt, pt = Tensor(grid), Tensor(pts)
        out = ta.bilinear_sample(gt, pt)
        grads = ta.backward(tape, ta.reduce_sum(ta.multiply(out, Tensor(g))))
    return out.values, grads.of(gt), grads.of(pt)


@pytest.mark.parametrize("c,h,w,k", [(1, 5, 4, 60), (3, 6, 7, 200), (16, 4, 4, 500), (256, 12, 9, 300)])
def test_bilinear_matches_dense_reference_bytes(c, h, w, k):
    rng = np.random.default_rng(c * 1000 + k)
    grid = rng.normal(size=(c, h, w))
    pts = rng.uniform(-0.2, 1.2, size=(k, 2))  # some corners fall outside
    pts[:8, 0] = 1.0 - 0.25 / h  # last row: clipped bottom corners collide
    pts[8:16, 1] = 1.0 - 0.25 / w  # last column
    pts[16] = (3.0, -2.0)  # all four weights zero
    g = rng.normal(size=(k, c))
    got = _tape_bilinear(grid, pts, g)
    want = _dense_bilinear(grid, pts, g)
    for name, a, b in zip(("output", "grid grad", "point grad"), got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
    # many samples share each cell, so the scatter order is visible in the bytes
    sample_major = _dense_bilinear(grid, pts, g, corner_major=False)[1]
    assert sample_major.tobytes() != want[1].tobytes()


@pytest.mark.parametrize("shape,axis", [((6, 5), 0), ((3, 6, 4), 1)])
def test_gather_backward_matches_add_at_bytes(shape, axis):
    rng = np.random.default_rng(7)
    x = rng.normal(size=shape)
    idx = rng.permutation(np.repeat(np.arange(shape[axis]), 5))  # every index five times
    out_shape = list(shape)
    out_shape[axis] = idx.size
    g = rng.normal(size=out_shape)
    with Tape() as tape:
        xt = Tensor(x)
        grads = ta.backward(tape, ta.reduce_sum(ta.multiply(ta.gather(xt, idx, axis=axis), Tensor(g))))
    want = np.zeros(shape)
    np.add.at(np.moveaxis(want, axis, 0), idx, np.moveaxis(g, axis, 0))
    got = grads.of(xt)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
