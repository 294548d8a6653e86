import numpy as np
import pytest

from bevmap import attention as att
from bevmap import tensorad as ta
from bevmap.attention import (
    ALL_VARIANTS,
    VARIANT_SCALE_THEN_SAMPLE,
    VARIANT_VANILLA,
    count_samples,
    init_msda_params,
    msda,
    sinusoidal_pe,
)
from bevmap.decoder import DecoderConfig
from bevmap.tensorad import ContractViolation, Tape, Tensor


def _random_setup(seed=0, queries=5, channels=16, heads=2, levels=2, points=2, grid=8):
    rng = np.random.default_rng(seed)
    lv = []
    h = grid
    for _ in range(levels):
        lv.append(rng.normal(size=(channels, h, h)))
        h = (h + 1) // 2
    q = rng.normal(size=(queries, channels))
    r = rng.uniform(0.15, 0.85, (queries, 2))
    return q, r, lv


# --------------------------------------------------------------------------
# sinusoidal encoding
# --------------------------------------------------------------------------

def test_pe_zero_phase_pattern():
    pe = sinusoidal_pe(Tensor(np.array([[0.0, 0.7]])), 16)
    x_half = pe.values[0, :8]
    assert np.allclose(x_half, [0, 1, 0, 1, 0, 1, 0, 1], atol=1e-15)


def test_pe_channel_layout_split_by_axis():
    rng = np.random.default_rng(1)
    c = 32
    base = rng.uniform(0.1, 0.9, (4, 2))
    pe0 = sinusoidal_pe(Tensor(base), c).values
    moved_y = base.copy()
    moved_y[:, 1] = rng.uniform(0.1, 0.9, 4)
    pe1 = sinusoidal_pe(Tensor(moved_y), c).values
    assert np.array_equal(pe0[:, : c // 2], pe1[:, : c // 2])  # x half unchanged
    assert not np.array_equal(pe0[:, c // 2 :], pe1[:, c // 2 :])
    moved_x = base.copy()
    moved_x[:, 0] = rng.uniform(0.1, 0.9, 4)
    pe2 = sinusoidal_pe(Tensor(moved_x), c).values
    assert np.array_equal(pe0[:, c // 2 :], pe2[:, c // 2 :])  # y half unchanged


def test_pe_pairwise_distinct_on_grid():
    n = 32
    xs, ys = np.meshgrid(np.linspace(0, 1, n), np.linspace(0, 1, n), indexing="ij")
    coords = np.stack([xs.ravel(), ys.ravel()], axis=1)
    emb = sinusoidal_pe(Tensor(coords), 64).values
    # min pairwise L2 > 0: nearest-neighbor distance via sorted lexicographic trick
    # is unreliable; use the fact that equal embeddings imply equal rows
    unique = np.unique(emb.round(12), axis=0)
    assert unique.shape[0] == coords.shape[0]


def test_pe_channel_divisibility_contract():
    with pytest.raises(ContractViolation, match="divisible by 4"):
        sinusoidal_pe(Tensor(np.zeros((3, 2))), 18)


def test_pe_gradcheck():
    rng = np.random.default_rng(2)
    r = rng.uniform(0.2, 0.8, (3, 2))
    w = rng.normal(size=(3, 8))

    def f(v):
        return ta.reduce_sum(ta.multiply(sinusoidal_pe(v, 8), Tensor(w)))

    assert ta.grad_check(f, [Tensor(r)]) <= 1e-4


# --------------------------------------------------------------------------
# vanilla MSDA
# --------------------------------------------------------------------------

def test_identity_configuration_reduces_to_bilinear():
    rng = np.random.default_rng(3)
    c = 6
    params = init_msda_params(VARIANT_VANILLA, 1, 1, 1, c, seed=3)
    params.stage.off_w = Tensor(np.zeros((c, 2)))
    params.stage.off_b = Tensor(np.zeros(2))
    params.stage.val_w = Tensor(np.eye(c)[None])
    params.stage.out_w = Tensor(np.eye(c)[None])
    grid = rng.normal(size=(c, 8, 8))
    refs = rng.uniform(0.1, 0.9, (5, 2))
    out = msda(Tensor(rng.normal(size=(5, c))), [Tensor(grid)], Tensor(refs), params)
    direct = ta.bilinear_sample(Tensor(grid), Tensor(refs))
    assert np.allclose(out.output.values, direct.values, atol=1e-12)
    assert out.sample_count == 1


def test_attention_weights_normalized_all_variants():
    q, r, lv = _random_setup(seed=4)
    for variant in ALL_VARIANTS:
        for trial in range(5):
            qv = np.random.default_rng(100 + trial).normal(size=q.shape)
            params = init_msda_params(variant, 2, 2, 2, 16, seed=trial)
            levels = [Tensor(x) for x in lv]
            if variant == VARIANT_VANILLA:
                groups = [att._msda_stage(Tensor(qv), levels, Tensor(r), params.stage)[1]]
            else:
                groups = att._dmd(Tensor(qv), levels, Tensor(r), params)[1:]
            for g in (w.values for w in groups):
                assert (g >= 0).all()
                assert np.abs(g.sum(axis=-1) - 1.0).max() <= 1e-6


def test_vanilla_gradcheck():
    q, r, lv = _random_setup(seed=5)
    params = init_msda_params(VARIANT_VANILLA, 2, 2, 2, 16, seed=6)

    def f(qt, rt, l0, l1):
        return ta.reduce_sum(msda(qt, [l0, l1], rt, params).output)

    err = ta.grad_check(f, [Tensor(q), Tensor(r), Tensor(lv[0]), Tensor(lv[1])])
    assert err <= 1e-4


@pytest.mark.parametrize("variant", [VARIANT_SCALE_THEN_SAMPLE])
def test_dmd_gradcheck(variant):
    q, r, lv = _random_setup(seed=7)
    params = init_msda_params(variant, 2, 2, 2, 16, seed=8)

    def f(qt, rt, l0, l1):
        return ta.reduce_sum(msda(qt, [l0, l1], rt, params).output)

    err = ta.grad_check(f, [Tensor(q), Tensor(r), Tensor(lv[0]), Tensor(lv[1])])
    assert err <= 1e-4


def test_level_count_mismatch():
    q, r, lv = _random_setup()
    params = init_msda_params(VARIANT_VANILLA, 2, 3, 2, 16, seed=0)
    with pytest.raises(ContractViolation, match="levels"):
        msda(Tensor(q), [Tensor(x) for x in lv], Tensor(r), params)


def test_permutation_equivariance_over_queries():
    q, r, lv = _random_setup(seed=9, queries=7)
    perm = np.random.default_rng(10).permutation(7)
    lv = [Tensor(x) for x in lv]
    for variant in ALL_VARIANTS:
        params = init_msda_params(variant, 2, 2, 2, 16, seed=11)
        base = msda(Tensor(q), lv, Tensor(r), params).output.values
        permuted = msda(Tensor(q[perm]), lv, Tensor(r[perm]), params).output.values
        assert np.allclose(permuted, base[perm], atol=1e-12)


def _per_level_stage(tokens, levels, ref, stage, table=None):
    """`_msda_stage` as it sampled before the fused sampler: one
    `bilinear_sample` per level, then concat, a head-major transpose and a
    reshape into the (Nh, T*M*N, C) rows the value projection reads.  It
    ignores `table`, which `_dmd` passes."""
    t_n = tokens.shape[0]
    nh, m, n, c = stage.num_heads, stage.num_levels, stage.num_points, stage.channels
    off = ta.reshape(ta.linear(tokens, stage.off_w, stage.off_b), (t_n, nh, m, n, 2))
    atn = ta.linear(tokens, stage.atn_w, stage.atn_b)
    atn = ta.softmax(ta.reshape(atn, (t_n, nh, m * n)), axis=-1)
    weights = ta.reshape(atn, (t_n, nh, m, n))
    ref_e = ta.repeat_axis(ta.reshape(ref, (t_n, 1, 1, 2)), axis=1, times=nh)
    ref_e = ta.repeat_axis(ref_e, axis=2, times=n)
    per_level = []
    for lvl in range(m):
        grid = levels[lvl]
        h_l, w_l = grid.shape[1], grid.shape[2]
        off_l = ta.reshape(ta.slice_axis(off, axis=2, start=lvl, stop=lvl + 1), (t_n, nh, n, 2))
        cell = Tensor(np.broadcast_to(np.array([1.0 / h_l, 1.0 / w_l]), (t_n, nh, n, 2)).copy())
        pts = ta.add(ref_e, ta.multiply(off_l, cell))
        sampled = ta.bilinear_sample(grid, ta.reshape(pts, (t_n * nh * n, 2)))
        per_level.append(ta.reshape(sampled, (t_n, nh, 1, n, c)))
    samples = per_level[0] if m == 1 else ta.concat(per_level, axis=2)
    s_h = ta.reshape(ta.transpose(samples, (1, 0, 2, 3, 4)), (nh, t_n * m * n, c))
    v = ta.reshape(ta.matmul(s_h, stage.val_w), (nh, t_n, m * n, c // nh))
    w_h = ta.reshape(ta.transpose(weights, (1, 0, 2, 3)), (nh, t_n, 1, m * n))
    agg = ta.reshape(ta.matmul(w_h, v), (nh, t_n, c // nh))
    return ta.reduce_sum(ta.matmul(agg, stage.out_w), axis=0), atn


def _msda_case(variant, heads, m, n, seed):
    """Tokens, ref, levels, params and an upstream gradient: levels of
    different shapes and points that fall outside the grid and on every
    level's last row and column."""
    rng = np.random.default_rng(seed)
    c, t_n = 16, 9
    levels = [rng.normal(size=(c, h, w)) for h, w in [(5, 7), (4, 3), (2, 2)][:m]]
    tokens = rng.normal(size=(t_n, c))
    # offsets stay well within a cell (no offset bias, generator sd 0.02), so
    # ref 1.0 puts a point on each level's last row or column, and refs
    # outside [0, 1] put corners, or whole samples, outside the grid
    ref = np.concatenate([[[1.0, 0.5], [0.5, 1.0], [1.0, 1.0], [1.4, -0.3], [-0.02, 0.5]],
                          rng.uniform(-0.1, 1.1, (t_n - 5, 2))])
    params = init_msda_params(variant, heads, m, n, c, seed=seed)
    for stage in (params.stage, params.stage_ms, params.stage_sp):
        if stage is not None:
            stage.off_b = Tensor(np.zeros_like(stage.off_b.values))
    upstream = Tensor(rng.normal(size=(t_n, c)))
    return tokens, ref, levels, params, upstream


def _msda_bytes(variant, heads, m, n, seed):
    """msda's output and its gradients wrt tokens, ref, each level and each
    parameter, as bytes, on `_msda_case`'s inputs."""
    tokens, ref, levels, params, upstream = _msda_case(variant, heads, m, n, seed)
    with Tape() as tape:
        inputs = [Tensor(tokens), Tensor(ref)] + [Tensor(lv) for lv in levels]
        out = msda(inputs[0], inputs[2:], inputs[1], params).output
        grads = ta.backward(tape, ta.reduce_sum(ta.multiply(out, upstream)))
        leaves = inputs + list(att.named_parameters(params).values())
        return [out.values.tobytes()] + [grads.of(x).tobytes() for x in leaves]


@pytest.mark.parametrize("variant", ALL_VARIANTS)
@pytest.mark.parametrize("m,n", [(1, 1), (1, 4), (2, 1), (2, 4), (3, 1), (3, 4)])
@pytest.mark.parametrize("heads", [1, 2, 8])
def test_fused_sampler_bytes_equal_per_level_chain(monkeypatch, variant, m, n, heads):
    seed = 100 * m + 10 * n + heads
    fused = _msda_bytes(variant, heads, m, n, seed)
    monkeypatch.setattr(att, "_msda_stage", _per_level_stage)
    chain = _msda_bytes(variant, heads, m, n, seed)
    names = ["output", "tokens", "ref"] + [f"level {i}" for i in range(m)] + list(
        att.named_parameters(init_msda_params(variant, heads, m, n, 16, seed=0)))
    assert len(fused) == len(chain) == len(names)
    for name, a, b in zip(names, fused, chain):
        assert a == b, name


class _CountingPool:
    """Runs on the sampler's pool and counts the calls handed to it."""

    def __init__(self, pool):
        self.pool, self.maps, self.submits = pool, 0, 0

    def map(self, fn, items):
        self.maps += 1
        return self.pool.map(fn, items)

    def submit(self, fn, *args):
        self.submits += 1
        return self.pool.submit(fn, *args)


def _msda_forward_bytes(variant, heads, m, n, seed):
    """msda's output with no tape recording, as bytes."""
    tokens, ref, levels, params, _ = _msda_case(variant, heads, m, n, seed)
    return msda(Tensor(tokens), [Tensor(lv) for lv in levels], Tensor(ref), params).output.values.tobytes()


@pytest.mark.parametrize("variant", ALL_VARIANTS)
@pytest.mark.parametrize("m,n", [(1, 1), (1, 4), (3, 1), (3, 4)])
@pytest.mark.parametrize("heads", [1, 2, 8])
def test_pooled_head_blocks_bytes_equal_one_thread_path(monkeypatch, variant, m, n, heads):
    seed = 100 * m + 10 * n + heads
    inline = _msda_bytes(variant, heads, m, n, seed)
    inline_forward = _msda_forward_bytes(variant, heads, m, n, seed)
    pool = _CountingPool(ta._POOL)
    monkeypatch.setattr(ta, "_POOL", pool)
    monkeypatch.setattr(ta, "_PARALLEL_VALUES", 0)  # every call and table goes to the pool
    pooled = _msda_bytes(variant, heads, m, n, seed)
    assert pool.maps > 0 and pool.submits > 0
    names = ["output", "tokens", "ref"] + [f"level {i}" for i in range(m)] + list(
        att.named_parameters(init_msda_params(variant, heads, m, n, 16, seed=0)))
    assert len(pooled) == len(inline) == len(names)
    for name, a, b in zip(names, pooled, inline):
        assert a == b, name
    assert _msda_forward_bytes(variant, heads, m, n, seed) == inline_forward == inline[0]


def test_two_concurrent_pooled_calls_give_equal_bytes(monkeypatch):
    from concurrent.futures import ThreadPoolExecutor

    args = (VARIANT_VANILLA, 8, 3, 4, 17)
    inline = _msda_forward_bytes(*args)
    monkeypatch.setattr(ta, "_PARALLEL_VALUES", 0)
    with ThreadPoolExecutor(2) as callers:  # forward only: a tape records one thread's ops
        first, second = callers.map(lambda _: _msda_forward_bytes(*args), range(2))
    assert first == second == inline


# --------------------------------------------------------------------------
# decoupled variants
# --------------------------------------------------------------------------

def test_dmd_two_stage_composition_oracle():
    # M=1, N=1: scale_then_sample must equal the hand-composed two stages
    q, r, lv = _random_setup(seed=12, levels=1, points=1)
    params = init_msda_params(VARIANT_SCALE_THEN_SAMPLE, 2, 1, 1, 16, seed=13)
    out = msda(Tensor(q), [Tensor(lv[0])], Tensor(r), params).output.values

    from bevmap.attention import _msda_stage

    stage1, _ = _msda_stage(Tensor(q), [Tensor(lv[0])], Tensor(r), params.stage_ms)
    q1 = ta.linear(stage1, params.lin1_w, params.lin1_b)
    stage2, _ = _msda_stage(q1, [Tensor(lv[0])], Tensor(r), params.stage_sp)
    expected = ta.add(q1, ta.linear(stage2, params.lin2_w, params.lin2_b)).values
    assert np.allclose(out, expected, atol=1e-12)


def test_sample_counts():
    assert count_samples(VARIANT_VANILLA, 3, 4) == 12
    assert count_samples(VARIANT_SCALE_THEN_SAMPLE, 3, 4) == 7
    assert count_samples(VARIANT_VANILLA, 1, 1) == 1
    assert count_samples(VARIANT_SCALE_THEN_SAMPLE, 1, 1) == 2
    with pytest.raises(ContractViolation):
        count_samples(VARIANT_VANILLA, 0, 1)


@pytest.mark.parametrize("variant", ALL_VARIANTS)
@pytest.mark.parametrize("m", [1, 3])
@pytest.mark.parametrize("n", [1, 4])
def test_count_samples_equals_points_the_sampler_produces(monkeypatch, variant, m, n):
    produced = []
    sample_levels = ta.sample_levels

    def counting(levels, pts, val_w, table=None):
        out = sample_levels(levels, pts, val_w, table)
        heads, rows, _ = out.shape  # (Nh, T*M*N, D)
        assert heads == 2
        produced.append(rows // pts[0].shape[0])
        return out

    monkeypatch.setattr(ta, "sample_levels", counting)
    q, r, lv = _random_setup(seed=30, levels=m, points=n)
    params = init_msda_params(variant, 2, m, n, 16, seed=31)
    result = msda(Tensor(q), [Tensor(x) for x in lv], Tensor(r), params)
    assert len(produced) == (1 if variant == VARIANT_VANILLA else 2)
    assert sum(produced) == result.sample_count == count_samples(variant, m, n)


def test_sampled_value_reports_cost():
    q, r, lv = _random_setup(seed=14, levels=3, points=4, channels=16, heads=2)
    lv = [Tensor(x) for x in lv[:3]]
    params = init_msda_params(VARIANT_VANILLA, 2, 3, 4, 16, seed=15)
    assert msda(Tensor(q), lv, Tensor(r), params).sample_count == 12
    params = init_msda_params(VARIANT_SCALE_THEN_SAMPLE, 2, 3, 4, 16, seed=15)
    assert msda(Tensor(q), lv, Tensor(r), params).sample_count == 7


def test_params_from_named_inverts_named_parameters():
    for variant in ALL_VARIANTS:
        params = init_msda_params(variant, 2, 3, 4, 16, seed=18)
        named = att.named_parameters(params, prefix="x.")
        back = att.params_from_named(named, "x.", variant, 2, 3, 4, 16)
        assert back == params
        assert att.named_parameters(back, prefix="x.").keys() == named.keys()
    with pytest.raises(ContractViolation, match="unknown attention variant"):
        att.params_from_named({}, "x.", "dmd_parallel", 2, 3, 4, 16)


def test_default_decoder_variant_is_scale_then_sample():
    assert DecoderConfig().variant == VARIANT_SCALE_THEN_SAMPLE


def test_benchmark_rows_shape():
    rows = att.benchmark_attention(
        [VARIANT_VANILLA, VARIANT_SCALE_THEN_SAMPLE],
        repeats=3, channels=16, n_heads=2, num_levels=2, num_points=2,
        queries=20, h=16, w=8, seed=0, warmup=1,
    )
    assert [r["variant"] for r in rows] == [VARIANT_VANILLA, VARIANT_SCALE_THEN_SAMPLE]
    assert rows[0]["sample_count"] == 4 and rows[1]["sample_count"] == 4
    assert all(r["mean_ms"] > 0 for r in rows)
