import ast
import inspect
import math
import pathlib
import weakref

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


def test_backward_keeps_shared_gradients_apart():
    # `add` hands one upstream array to both of its inputs; a gradient that
    # already is a sum takes later terms in place, and no input may see
    # another's terms
    c, d, e = np.array([1.0, 2.0, 3.0]), np.array([10.0, 20.0, 30.0]), np.array([0.5, 4.0, 8.0])
    with Tape() as tape:
        x = Tensor([0.5, 0.25, 2.0])
        y = Tensor([1.0, 3.0, 1.0])
        a = ta.multiply(x, Tensor(c))
        b = ta.multiply(y, Tensor(d))
        p = ta.multiply(a, Tensor(e))  # a's second consumer, swept after z
        z = ta.add(a, b)
        f = ta.add(ta.reduce_sum(z), ta.reduce_sum(ta.multiply(p, p)))
        grads = ta.backward(tape, f)
    assert np.array_equal(grads.of(y), d)
    assert np.array_equal(grads.of(x), c * (1.0 + 2.0 * p.values * e))


def test_gradmap_shapes_match_outputs():
    with Tape() as tape:
        x = Tensor(np.ones((2, 3)))
        f = ta.reduce_sum(ta.sigmoid(x))
        grads = ta.backward(tape, f)
    assert isinstance(grads, GradMap)
    for nid, g in grads.items():
        assert g.shape == x.shape


def test_gradmap_holds_leaf_gradients_only():
    with Tape() as tape:
        x = Tensor([1.0, -2.0])
        w = Tensor([3.0, 4.0])
        unreached = Tensor([5.0])
        _ = ta.sigmoid(unreached)
        h = ta.relu(ta.multiply(x, w))
        f = ta.reduce_sum(ta.sigmoid(h))
        grads = ta.backward(tape, f)
    assert grads and all(tape.nodes[nid].kind == "leaf" for nid in grads)
    assert np.array_equal(grads.of(unreached), np.zeros(1))
    for intermediate in (h, f):
        with pytest.raises(ContractViolation, match="intermediate"):
            grads.of(intermediate)


def test_gradmap_refuses_a_tensor_relinked_to_another_tape():
    a, b = Tensor([2.0]), Tensor([5.0])
    with Tape() as t_a:
        g_a = ta.backward(t_a, ta.reduce_sum(ta.multiply(a, b)))
    assert np.array_equal(g_a.of(b), [2.0])
    with Tape():
        ta.relu(b)  # relinks b to the new tape, where its node id is a's
    with pytest.raises(ContractViolation, match="another tape"):
        g_a.of(b)
    assert np.array_equal(g_a.of(a), [5.0])


def test_gradmap_refuses_an_intermediate_of_a_dead_tape():
    with Tape() as tape:
        x = Tensor([1.0, -2.0])
        h = ta.relu(x)
        f = ta.reduce_sum(h)
        grads = ta.backward(tape, f)
    dead = weakref.ref(tape)
    del tape  # x, h, f and the map outlive the tape but link it weakly
    assert dead() is None
    assert np.array_equal(grads.of(x), [1.0, 0.0])
    for intermediate in (h, f):
        with pytest.raises(ContractViolation, match="intermediate"):
            grads.of(intermediate)


def test_gradmap_refuses_a_tensor_relinked_to_a_tape_since_dead():
    a, b = Tensor([2.0]), Tensor([5.0])
    with Tape() as t_a:
        g_a = ta.backward(t_a, ta.reduce_sum(ta.multiply(a, b)))
    with Tape() as t_b:
        ta.relu(b)  # relinks b to t_b, where its node id is a's
    dead = weakref.ref(t_b)
    del t_b
    assert dead() is None
    with pytest.raises(ContractViolation, match="another tape"):
        g_a.of(b)
    assert np.array_equal(g_a.of(a), [5.0])


def test_relu_keeps_a_sign_mask_and_its_backward_bytes_equal_upstream_times_sign():
    x = np.array([-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, 2.5, -1.5, 5e-324, -5e-324])
    g = -np.array([1.0, 2.0, 3.0, 0.0, np.inf, 4.0, 0.5, 7.0, np.inf, 0.25])
    with Tape() as tape:
        xt = Tensor(x)
        y = ta.relu(xt)
        (mask,) = inspect.getclosurevars(tape.nodes[y._nid].backward).nonlocals.values()
        with np.errstate(invalid="ignore"):  # g * 0 is nan where g is -inf
            grads = ta.backward(tape, ta.reduce_sum(ta.multiply(y, Tensor(g))))
            want = g * (x > 0)
    assert mask.dtype == np.bool_ and mask.shape == x.shape
    assert y.values.tobytes() == np.maximum(x, 0.0).tobytes()
    got = grads.of(xt)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_tape_frees_op_outputs_its_backward_does_not_read():
    with Tape() as tape:
        x = Tensor(np.ones(4))
        h = ta.add(x, x)
        f = ta.reduce_sum(h)
        h_values = weakref.ref(h.values)
        del h
        assert h_values() is None
        assert np.array_equal(ta.backward(tape, f).of(x), np.full(4, 2.0))


def test_backward_sweeps_a_tape_once():
    with Tape() as tape:
        x = Tensor(np.ones(3))
        h = ta.multiply(x, x)
        ta.backward(tape, ta.reduce_sum(h))
        for out in (ta.reduce_sum(h), ta.reduce_mean(h)):
            with pytest.raises(ContractViolation, match="swept already; record a new tape"):
                ta.backward(tape, out)


def _reachable(obj):
    """Every object a backward closure's variables reach through lists, tuples
    and the nested functions it calls."""
    if isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _reachable(item)
    elif inspect.isfunction(obj):
        yield from _reachable(list(inspect.getclosurevars(obj).nonlocals.values()))
    else:
        yield obj


def _arrays(obj):
    """Every array reachable from a backward closure's variables, sparse parts included."""
    for item in _reachable(obj):
        if isinstance(item, np.ndarray):
            yield item
        elif hasattr(item, "indptr"):
            yield from (item.data, item.indices, item.indptr)


def test_sample_levels_node_keeps_no_samples_and_backward_frees_every_context():
    rng = np.random.default_rng(8)
    t, nh, n, c = 5, 2, 3, 6
    levels = [Tensor(rng.normal(size=(c, 4, 5))), Tensor(rng.normal(size=(c, 2, 3)))]
    ref = Tensor(rng.uniform(-0.1, 1.1, size=(t, 2)))
    off = Tensor(rng.uniform(-1.5, 1.5, size=(t, nh, len(levels), n, 2)))
    weights = Tensor(rng.uniform(size=(t, nh, len(levels), n)))
    val_w = Tensor(rng.normal(size=(nh, c, 3)))
    with Tape() as tape:
        out = ta.sample_levels(levels, ref, off, weights, val_w)
        kept = inspect.getclosurevars(tape.nodes[out._nid].backward).nonlocals
        sizes = {a.size for a in _arrays(list(kept.values()))}
        assert sizes and nh * t * len(levels) * n * c not in sizes
        ta.backward(tape, ta.reduce_sum(ta.multiply(ta.relu(out), out)))
    assert all(node.backward is None for node in tape.nodes)


def test_sample_levels_node_keeps_its_points_not_their_corners():
    rng = np.random.default_rng(9)
    t, nh, n, c = 5, 2, 3, 6
    # three levels: at two, the offsets (T, Nh, 2, N, 2) would be as large as one level's corner array
    levels = [Tensor(rng.normal(size=(c, h, w))) for h, w in [(4, 5), (2, 3), (1, 2)]]
    ref = Tensor(rng.uniform(-0.1, 1.1, size=(t, 2)))
    off = Tensor(rng.uniform(-1.5, 1.5, size=(t, nh, len(levels), n, 2)))
    weights = Tensor(rng.uniform(size=(t, nh, len(levels), n)))
    val_w = Tensor(rng.normal(size=(nh, c, 3)))
    table = ta.level_table(levels)
    with Tape() as tape:
        out = ta.sample_levels(levels, ref, off, weights, val_w, table)
        kept = list(_reachable(list(inspect.getclosurevars(tape.nodes[out._nid].backward).nonlocals.values())))
    assert not [x for x in kept if hasattr(x, "indptr")]  # no blend matrix
    arrays = list(_arrays(kept))
    assert 4 * t * nh * n not in {a.size for a in arrays}  # no corner array of any level
    # beyond the level offsets and cell sizes: ref, the offsets, the weights, the table and val_w, as the
    # caller passed them
    large = [a for a in arrays if a.size > len(levels)]
    assert large and all(any(a is x.values for x in [ref, off, weights, val_w]) or a.base is table for a in large)


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


def _case_linear(rng):
    x, w, b = rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 5)), rng.normal(size=5)
    return lambda v, u, c: ta.reduce_sum(ta.multiply(ta.linear(v, u, c), ta.linear(v, u, c))), [x, w, b]


def _case_layer_norm(rng):
    x, gain, bias = rng.normal(size=(2, 3, 6)), rng.normal(size=6), rng.normal(size=6)
    w = rng.normal(size=(2, 3, 6))
    return lambda v, u, c: ta.reduce_sum(ta.multiply(ta.layer_norm(v, u, c), Tensor(w))), [x, gain, bias]


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


def _case_sample_levels(rng):
    levels = [rng.normal(size=(2, 5, 4)), rng.normal(size=(2, 3, 2))]
    ref = rng.uniform(-0.1, 1.1, size=(2, 2))  # 2 queries, some outside [0, 1]
    off = rng.uniform(-1.5, 1.5, size=(2, 2, 2, 1, 2))  # queries x heads x levels x points, in cells
    weights = rng.uniform(0.1, 1.0, size=(2, 2, 2, 1))  # queries x heads x levels x points
    val_w = rng.normal(size=(2, 2, 3))  # 2 heads, C=2, D=3

    def fn(l0, l1, r, o, wt, vw):
        out = ta.sample_levels([l0, l1], r, o, wt, vw)
        return ta.reduce_sum(ta.multiply(out, out))

    return fn, levels + [ref, off, weights, val_w]


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


_PRIMITIVE_CASES = {
    "add": _case_add,
    "subtract": _case_subtract,
    "multiply": _case_multiply,
    "matmul": _case_matmul,
    "linear": _case_linear,
    "softmax": _case_softmax,
    "relu": _case_relu,
    "sigmoid": _case_sigmoid,
    "inverse_sigmoid": _case_inverse_sigmoid,
    "layer_norm": _case_layer_norm,
    "concat": _case_concat,
    "slice": _case_slice,
    "reduce_sum": _case_reduce_sum,
    "reduce_mean": _case_reduce_mean,
    "scale": _case_scale,
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
    "sample_levels": _case_sample_levels,
}


def _recorded_kinds(source: str) -> set[str]:
    """The kind each `_op(kind, ...)` call in a module's source records (None if not a literal)."""
    return {
        getattr(node.args[0], "value", None)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "_op"
    }


def test_every_registered_primitive_has_a_gradcheck_case():
    assert _recorded_kinds(pathlib.Path(ta.__file__).read_text()) == set(_PRIMITIVE_CASES)


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
# Affine primitives: byte-identical to the primitive chains they replace
# --------------------------------------------------------------------------


def _linear_chain(x, w, b, g):
    """reshape -> matmul -> add_rows -> reshape, forward and backward as those
    primitives compute them, for upstream gradient g.  Returns the output and
    the gradients of x, w and b."""
    x2 = x.reshape(-1, x.shape[-1])
    y = (x2 @ w + b).reshape(x.shape[:-1] + (w.shape[1],))
    g2 = g.reshape(x2.shape[0], w.shape[1])
    return y, (g2 @ np.swapaxes(w, -1, -2)).reshape(x.shape), np.swapaxes(x2, -1, -2) @ g2, g2.sum(axis=(0,))


def _layer_norm_chain(x, gain, bias, g):
    """layer normalization (eps 1e-5) -> scale by gain -> add bias, forward and
    backward as three primitives computed them, for upstream gradient g.
    Returns the output and the gradients of x, gain and bias."""
    axis, lead = x.ndim - 1, tuple(range(x.ndim - 1))
    inv = 1.0 / np.sqrt(x.var(axis=axis, keepdims=True) + 1e-5)
    xhat = (x - x.mean(axis=axis, keepdims=True)) * inv
    y = xhat * gain + bias
    g_bias, g_hat, g_gain = g.sum(axis=lead), g * gain, (g * xhat).sum(axis=lead)
    gm = g_hat.mean(axis=axis, keepdims=True)
    gx = (g_hat * xhat).mean(axis=axis, keepdims=True)
    return y, inv * (g_hat - gm - xhat * gx), g_gain, g_bias


def _tape_output_and_grads(fn, arrays, g):
    with Tape() as tape:
        tensors = [Tensor(a) for a in arrays]
        out = fn(*tensors)
        grads = ta.backward(tape, ta.reduce_sum(ta.multiply(out, Tensor(g))))
    return [out.values] + [grads.of(t) for t in tensors]


def _assert_bytes_equal(got, want, names):
    assert len(got) == len(want) == len(names)
    for name, a, b in zip(names, got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("x_shape", [(7, 24), (1, 9, 24), (12, 20, 24)])
def test_linear_bytes_equal_matmul_chain(x_shape):
    rng = np.random.default_rng(sum(x_shape))
    x, w, b = rng.normal(size=x_shape), rng.normal(size=(24, 40)), rng.normal(size=40)
    g = rng.normal(size=x_shape[:-1] + (40,))
    got = _tape_output_and_grads(ta.linear, [x, w, b], g)
    _assert_bytes_equal(got, _linear_chain(x, w, b, g), ["output", "x grad", "w grad", "b grad"])


def test_linear_input_read_by_two_calls_sums_both_gradients_bytes():
    # as attention's query and key projections both read one token set
    rng = np.random.default_rng(3)
    x = rng.normal(size=(6, 20, 16))
    wq, wk = rng.normal(size=(16, 16)), rng.normal(size=(16, 16))
    bq, bk = rng.normal(size=16), rng.normal(size=16)
    gq, gk = rng.normal(size=(6, 20, 16)), rng.normal(size=(6, 20, 16))

    def two_projections(xv, wqv, bqv, wkv, bkv):
        return ta.concat([ta.linear(xv, wqv, bqv), ta.linear(xv, wkv, bkv)], axis=0)

    got = _tape_output_and_grads(two_projections, [x, wq, bq, wk, bk], np.concatenate([gq, gk]))
    yq, gxq, gwq, gbq = _linear_chain(x, wq, bq, gq)
    yk, gxk, gwk, gbk = _linear_chain(x, wk, bk, gk)
    want = [np.concatenate([yq, yk]), gxk + gxq, gwq, gbq, gwk, gbk]
    _assert_bytes_equal(got, want, ["output", "x grad", "wq grad", "bq grad", "wk grad", "bk grad"])


@pytest.mark.parametrize("x_shape", [(7, 16), (6, 20, 16)])
def test_layer_norm_bytes_equal_normalize_scale_shift_chain(x_shape):
    rng = np.random.default_rng(sum(x_shape))
    x, gain, bias = rng.normal(size=x_shape), rng.normal(size=16), rng.normal(size=16)
    g = rng.normal(size=x_shape)
    got = _tape_output_and_grads(ta.layer_norm, [x, gain, bias], g)
    _assert_bytes_equal(got, _layer_norm_chain(x, gain, bias, g), ["output", "x grad", "gain grad", "bias grad"])


@pytest.mark.parametrize("fn,shapes,match", [
    (ta.linear, [(3, 4), (5, 2), (2,)], "linear: .* do not align"),
    (ta.linear, [(3, 4), (4, 2), (3,)], "linear: .* do not align"),
    (ta.layer_norm, [(3, 4), (4,), (3,)], "layer_norm: gain"),
])
def test_affine_primitives_refuse_misaligned_parameters(fn, shapes, match):
    with pytest.raises(ContractViolation, match=match):
        fn(*[Tensor(np.zeros(s)) for s in shapes])


# --------------------------------------------------------------------------
# Bilinear and gather kernels: byte-identical to the dense reference
# --------------------------------------------------------------------------


def _reference_pieces(h, w, pts):
    """Reference corners: all four at once, as (4, K) index and weight arrays."""
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
    wi = np.where(di == 1, fi[None, :], 1.0 - fi[None, :])
    wj = np.where(dj == 1, fj[None, :], 1.0 - fj[None, :])
    weights = wi * wj * valid
    return lin, valid, weights, fi, fj


def _dense_bilinear(grid, pts, g, corner_major=True):
    """Reference kernel: corner gather through the transposed (C, h*w) view,
    einsum blend and dot products, `np.add.at` scatter.  Returns the output,
    the grid gradient and the point gradient for upstream gradient g."""
    c, h, w = grid.shape
    lin, valid, weights, fi, fj = _reference_pieces(h, w, pts)
    vals = grid.reshape(c, h * w).T[lin]
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


def _formula_sample_levels(grids, ref, off, weights, val_w, g):
    """Reference chain for `sample_levels`: each level's locations
    ref + off[:, :, l] * (1/h, 1/w), `_dense_bilinear` on each level, then
    numpy's batched projection and weighting matmuls.  Returns the output
    and the gradients wrt each grid, ref, off, the weights and val_w for
    upstream gradient g (Nh, T, D)."""
    t, nh, m, n = weights.shape
    c, d = grids[0].shape[0], val_w.shape[2]
    cells = [np.array([1.0 / grid.shape[1], 1.0 / grid.shape[2]]) for grid in grids]
    pts = [ref[:, None, None] + off[:, :, lvl] * cell for lvl, cell in enumerate(cells)]
    samples = np.empty((nh, t, m, n, c))
    for lvl, (grid, x) in enumerate(zip(grids, pts)):
        out_l = _dense_bilinear(grid, x.reshape(-1, 2), np.zeros((t * nh * n, c)))[0]
        samples[:, :, lvl] = out_l.reshape(t, nh, n, c).swapaxes(0, 1)
    s = samples.reshape(nh, t * m * n, c)
    v = (s @ val_w).reshape(nh, t, m * n, d)
    w_h = np.ascontiguousarray(weights.transpose(1, 0, 2, 3)).reshape(nh, t, 1, m * n)
    out = (w_h @ v).reshape(nh, t, d)
    g4 = g.reshape(nh, t, 1, d)
    g_weights = np.ascontiguousarray((g4 @ np.swapaxes(v, -1, -2)).reshape(nh, t, m, n).transpose(1, 0, 2, 3))
    g_v = (np.swapaxes(w_h, -1, -2) @ g4).reshape(nh, t * m * n, d)
    g_val_w = np.swapaxes(s, -1, -2) @ g_v
    g_s = (g_v @ np.swapaxes(val_w, -1, -2)).reshape(nh, t, m, n, c)
    g_grids, g_pts = [], []
    for lvl, (grid, x) in enumerate(zip(grids, pts)):
        g_l = np.ascontiguousarray(g_s[:, :, lvl].swapaxes(0, 1)).reshape(t * nh * n, c)
        _, g_grid, g_x = _dense_bilinear(grid, x.reshape(-1, 2), g_l)
        g_grids.append(g_grid)
        g_pts.append(g_x.reshape(x.shape))
    g_off = np.stack([g_x * cell for g_x, cell in zip(g_pts, cells)], axis=2)
    g_ref = sum(g_pts[::-1]).sum(axis=2).sum(axis=1)
    return [out, *g_grids, g_ref, g_off, g_weights, g_val_w]


@pytest.mark.parametrize("pooled", [False, True])
def test_sample_levels_bytes_equal_formula_chain(monkeypatch, pooled):
    # the sampler folds the weights into its blend rows and projects their sum,
    # an order of sums the chain does not share: each array must agree with
    # the chain's within 1e-12 of its largest magnitude
    if pooled:
        monkeypatch.setattr(ta, "_PARALLEL_VALUES", 0)  # one head per pool task
    rng = np.random.default_rng(29)
    t, nh, n, c, d = 7, 3, 2, 5, 4
    grids = [rng.normal(size=(c, 6, 7)), rng.normal(size=(c, 3, 4))]
    ref = rng.uniform(-0.2, 1.2, size=(t, 2))  # some corners fall outside
    off = rng.uniform(-1.5, 1.5, size=(t, nh, len(grids), n, 2))  # up to 1.5 cells
    ref[0, 0], off[0, :, 0, :, 0] = 1.0 - 0.25 / 6, 0.0  # last row: clipped bottom corners collide
    off[1, :, 1] = (12.0, -12.0)  # 4 and 3 grid widths away: all four weights zero
    weights = rng.uniform(size=(t, nh, len(grids), n))
    val_w = rng.normal(size=(nh, c, d))
    g = rng.normal(size=(nh, t, d))
    with Tape() as tape:
        leaves = [Tensor(x) for x in [*grids, ref, off, weights, val_w]]
        out = ta.sample_levels(leaves[:2], *leaves[2:])
        grads = ta.backward(tape, ta.reduce_sum(ta.multiply(out, Tensor(g))))
    got = [out.values] + [grads.of(x) for x in leaves]
    want = _formula_sample_levels(grids, ref, off, weights, val_w, g)
    names = ["output", "level 0", "level 1", "ref", "off", "weights", "val_w"]
    for name, a, b in zip(names, got, want, strict=True):
        assert a.shape == b.shape and np.abs(a - b).max() <= 1e-12 * np.abs(b).max(), name


@pytest.mark.parametrize("h,w", [(1, 1), (1, 6), (5, 1), (4, 7)])
def test_bilinear_pieces_bytes_equal_reference(h, w):
    rng = np.random.default_rng(10 * h + w)
    rows, cols = np.meshgrid((np.arange(h) + 0.5) / h, (np.arange(w) + 0.5) / w, indexing="ij")
    edges = [0.0, 1.0, -0.0, 0.5 / h, 1.0 - 0.5 / w, -1e-12, 1.0 + 1e-12, -0.7, 2.5, np.nan]
    pts = np.concatenate([
        np.stack([rows.ravel(), cols.ravel()], axis=1),  # cell centres: one weight is 1
        np.array([(a, b) for a in edges for b in edges]),  # the border, just outside it, far out, NaN
        rng.uniform(-0.3, 1.3, size=(200, 2)),
    ])
    with np.errstate(invalid="ignore"):  # a NaN point's floor has no integer
        got = ta._bilinear_pieces(h, w, pts)
        want = _reference_pieces(h, w, pts)
    for name, a, b in zip(("lin", "valid", "weights", "fi", "fj"), got, want):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name


def test_pool_tasks_run_under_the_callers_error_state():
    big = np.array([1e308])
    with np.errstate(all="raise"):
        with pytest.raises(FloatingPointError):
            ta._on_pool(lambda x: x * 10.0, [big, big])
        with pytest.raises(FloatingPointError):
            ta._on_pool(lambda: big * 10.0).result()
    with np.errstate(all="ignore"):
        assert [x[0] for x in ta._on_pool(lambda x: x * 10.0, [big, -big])] == [np.inf, -np.inf]


def test_pooled_call_holds_one_head_of_samples_per_worker(monkeypatch):
    # a worker holds one head's weighted rows U (T x C) and output (T x D),
    # and while it builds U, that head's corners and blend matrix; one head's
    # samples (T*M*N x C), their projections or a whole-call blend matrix
    # would not fit the bound
    import tracemalloc

    monkeypatch.setattr(ta, "_PARALLEL_VALUES", 0)  # every call and table goes to the pool
    rng = np.random.default_rng(31)
    t, nh, m, n, c, d = 250, 8, 1, 16, 64, 8
    level = Tensor(rng.normal(size=(c, 40, 50)))
    ref = Tensor(rng.uniform(size=(t, 2)))
    off = Tensor(rng.uniform(-2.0, 2.0, size=(t, nh, m, n, 2)))
    weights = Tensor(rng.uniform(size=(t, nh, m, n)))
    val_w = Tensor(rng.normal(size=(nh, c, d)))
    rows = t * m * n  # samples per head
    table_b, out_b = 8 * 40 * 50 * c, 8 * nh * t * d
    head_b = 8 * t * (c + d)  # one head's U and output
    slack = 192 * rows  # one head's corners (84 B a sample) and blend matrix (48 B), and their build
    assert slack + head_b < 8 * rows * c  # one head's samples alone would exceed a worker's share
    ta.sample_levels([level], ref, off, weights, val_w)  # the pool's threads start outside the trace
    tracemalloc.start()
    try:
        ta.sample_levels([level], ref, off, weights, val_w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < table_b + out_b + ta._WORKERS * (head_b + slack)


def test_usable_cpus_counts_every_cpu_where_the_os_has_no_affinity_call(monkeypatch):
    assert ta._usable_cpus() >= 1
    monkeypatch.delattr(ta.os, "sched_getaffinity", raising=False)  # macOS, Windows
    assert ta._usable_cpus() == (ta.os.cpu_count() or 1)


_REF_OFF = "ref must be T x 2 and off T x Nh x M x N x 2"


# pts_shapes: the shapes of ref and off, which place the points
@pytest.mark.parametrize("level_shapes,pts_shapes,match", [
    ([(2, 4, 4), (3, 2, 2)], [(1, 2), (1, 1, 2, 1, 2)], "levels differ in channels"),
    ([(2, 4)], [(1, 2), (1, 1, 1, 1, 2)], "levels must be C x h x w"),
    ([(2, 4, 4), (2, 2, 2)], [(2, 2), (1, 1, 2, 1, 2)], _REF_OFF + r" with M=2, got \(2, 2\)"),
    ([(2, 4, 4)], [(1, 2), (1, 1, 1, 1, 3)], _REF_OFF),
    ([(2, 4, 4)], [(1, 2), (1, 1, 1, 2)], _REF_OFF + r" with M=1, got \(1, 2\) and \(1, 1, 1, 2\)"),
    ([(2, 4, 4), (2, 2, 2)], [(1, 2), (1, 1, 3, 1, 2)], _REF_OFF + " with M=2"),
    ([(2, 4, 4)], [(1, 1, 2), (1, 1, 1, 1, 2)], _REF_OFF + r" with M=1, got \(1, 1, 2\)"),
])
def test_sample_levels_contract_violations(level_shapes, pts_shapes, match):
    levels = [Tensor(np.zeros(s)) for s in level_shapes]
    ref_shape, off_shape = pts_shapes
    t, nh, n = off_shape[0], off_shape[1], off_shape[-2]
    weights = Tensor(np.zeros((t, nh, len(levels), n)))
    val_w = Tensor(np.zeros((nh, level_shapes[0][0], 1)))
    with pytest.raises(ContractViolation, match=match) as err:
        ta.sample_levels(levels, Tensor(np.zeros(ref_shape)), Tensor(np.zeros(off_shape)), weights, val_w)
    assert "\n" not in str(err.value)


@pytest.mark.parametrize("weights_shape", [(2, 3, 1, 4), (3, 2, 4), (3, 1, 1, 4), (2, 2, 1, 4), (3, 2, 2, 4)])
def test_sample_levels_refuses_weights_not_queries_heads_levels_points(weights_shape):
    # T=3, 2 heads, M=1, N=4
    level, ref, off = Tensor(np.zeros((2, 4, 4))), Tensor(np.zeros((3, 2))), Tensor(np.zeros((3, 2, 1, 4, 2)))
    with pytest.raises(ContractViolation, match=r"weights must be T x Nh x M x N = \(3, 2, 1, 4\)") as err:
        ta.sample_levels([level], ref, off, Tensor(np.zeros(weights_shape)), Tensor(np.zeros((2, 2, 1))))
    assert "\n" not in str(err.value)


@pytest.mark.parametrize("val_w_shape", [(2, 3), (1, 2, 3), (2, 3, 3), (2, 2, 3, 1)])
def test_sample_levels_refuses_a_val_w_not_heads_by_channels(val_w_shape):
    # C=2, 2 heads
    level, ref, off = Tensor(np.zeros((2, 4, 4))), Tensor(np.zeros((1, 2))), Tensor(np.zeros((1, 2, 1, 1, 2)))
    with pytest.raises(ContractViolation, match="val_w must be Nh x C x D with Nh=2, C=2") as err:
        ta.sample_levels([level], ref, off, Tensor(np.zeros((1, 2, 1, 1))), Tensor(np.zeros(val_w_shape)))
    assert "\n" not in str(err.value)


def test_sample_levels_refuses_a_table_too_short_for_its_levels():
    level, ref, off = Tensor(np.zeros((2, 4, 4))), Tensor(np.zeros((1, 2))), Tensor(np.zeros((1, 1, 1, 1, 2)))
    with pytest.raises(ContractViolation, match="does not hold 16 rows of 2 channels"):
        ta.sample_levels([level], ref, off, Tensor(np.zeros((1, 1, 1, 1))), Tensor(np.zeros((1, 2, 2))),
                         table=np.zeros((15, 2)))


@pytest.mark.parametrize("n_rows", [7, 1 << 16, (1 << 16) + 9])
def test_scatter_rows_matches_add_at_bytes(n_rows):
    # rows that share their low 16 bits (r and r + 2**16) sort apart, and
    # every row collects several entries, in increasing entry order
    rng = np.random.default_rng(n_rows)
    cells = np.unique(np.concatenate([[0, n_rows - 1], rng.integers(0, n_rows, 6)]))
    cells = np.unique(np.concatenate([cells, cells[cells + (1 << 16) < n_rows] + (1 << 16)]))
    rows = rng.permutation(np.repeat(cells, 8))
    src = rng.normal(size=(rows.size // 4, 3))
    weights = rng.normal(size=rows.size)
    want = np.zeros((n_rows, 3))
    np.add.at(want, rows, weights[:, None] * src[np.arange(rows.size) % len(src)])
    got = ta._scatter_rows(rows, src, n_rows, weights)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _assert_gather_backward_is_add_at(x, idx, axis, g):
    with Tape() as tape:
        xt = Tensor(x)
        grads = ta.backward(tape, ta.reduce_sum(ta.multiply(ta.gather(xt, idx, axis=axis), Tensor(g))))
    want = np.zeros(x.shape)
    np.add.at(np.moveaxis(want, axis, 0), idx, np.moveaxis(g, axis, 0))
    got = grads.of(xt)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("shape,axis", [((6, 5), 0), ((3, 6, 4), 1)])
def test_gather_backward_matches_add_at_bytes(shape, axis):
    rng = np.random.default_rng(7)
    x = rng.normal(size=shape)
    idx = rng.permutation(np.repeat(np.arange(shape[axis]), 5))  # every index five times
    out_shape = list(shape)
    out_shape[axis] = idx.size
    _assert_gather_backward_is_add_at(x, idx, axis, rng.normal(size=out_shape))


@pytest.mark.parametrize("shape,axis", [((6, 5), 0), ((3, 6, 4), 1)])
def test_gather_backward_distinct_indices_match_add_at_bytes(shape, axis):
    # sorted distinct indices, as `np.flatnonzero` gives, take the one-term path
    rng = np.random.default_rng(8)
    x = rng.normal(size=shape)
    idx = np.delete(np.arange(shape[axis]), 2)
    out_shape = list(shape)
    out_shape[axis] = idx.size
    g = rng.normal(size=out_shape)
    g.reshape(-1)[::3] = -0.0  # summed onto a zero, -0.0 comes out +0.0
    _assert_gather_backward_is_add_at(x, idx, axis, g)
