import collections
import threading

import numpy as np
import pytest

from bevmap import tensorad as ta
from bevmap.attention import VARIANT_SCALE_THEN_SAMPLE, VARIANT_VANILLA
from bevmap.config import RunConfig
from bevmap.decoder import (
    DecoderConfig,
    LayerOutput,
    NumericalError,
    assemble_queries,
    decoder_layer,
    forward,
    init_model_params,
    init_reference_points,
)
from bevmap.priors import PriorBank, PriorShape
from bevmap.tensorad import ContractViolation, Tape, Tensor


def _tiny_cfg(**kw):
    base = dict(
        n_instances=6, n_prior=2, n_points=8, channels=16, n_layers=2,
        n_heads=2, ffn_dim=32, head_hidden=16, num_levels=2, num_points_attn=2,
    )
    base.update(kw)
    return DecoderConfig(**base)


def _bank(n_pri, n_points, seed=0):
    rng = np.random.default_rng(seed)
    return PriorBank([PriorShape("polyline", rng.uniform(0.1, 0.9, (n_points, 2))) for _ in range(n_pri)])


def _levels(channels, seed=0, h=20, w=10, num=2):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(num):
        out.append(Tensor(rng.normal(size=(channels, h, w))))
        h, w = (h + 1) // 2, (w + 1) // 2
    return out


def _draw_reg2(params, seed, sd=0.02):
    """Replace every layer's zero-initialized `reg2.w` by a Gaussian draw, so
    layer 0 moves its reference points."""
    rng = np.random.default_rng(seed)
    for name in sorted(params):
        if name.endswith(".reg2.w"):
            params[name] = Tensor(rng.normal(0.0, sd, params[name].shape))
    return params


# --------------------------------------------------------------------------
# configuration and reference initialization
# --------------------------------------------------------------------------

def test_default_config_matches_stated_sizes():
    cfg = DecoderConfig()
    assert cfg.n_instances == 50
    assert cfg.n_prior == 9
    assert cfg.n_points == 20
    assert cfg.n_layers == 6


def test_prior_rows_copied_exactly():
    cfg = _tiny_cfg()
    params = init_model_params(cfg, seed=1)
    bank = _bank(2, 8)
    refs = init_reference_points(bank, cfg, params)
    assert refs.shape == (6, 8, 2)
    assert np.array_equal(refs.values[:2], np.stack([p.points for p in bank.priors]))
    assert np.array_equal(refs.values[2:], ta.sigmoid(params["ref_logits"]).values)


def test_learnable_rows_strictly_inside_unit_square():
    cfg = _tiny_cfg()
    params = init_model_params(cfg, seed=2)
    refs = init_reference_points(_bank(2, 8), cfg, params)
    learnable = refs.values[2:]
    assert (learnable > 0.0).all() and (learnable < 1.0).all()


def test_bank_shape_mismatch_rejected():
    cfg = _tiny_cfg()
    params = init_model_params(cfg, seed=3)
    with pytest.raises(ContractViolation, match="points"):
        init_reference_points(_bank(2, 5), cfg, params)
    with pytest.raises(ContractViolation, match="bank"):
        init_reference_points(_bank(1, 8), cfg, params)


# --------------------------------------------------------------------------
# query assembly
# --------------------------------------------------------------------------

def test_assemble_broadcast_sum():
    rng = np.random.default_rng(4)
    q_ins = rng.normal(size=(3, 5))
    q_pts = rng.normal(size=(4, 5))
    q = assemble_queries(Tensor(q_ins), Tensor(q_pts)).values
    assert q.shape == (3, 4, 5)
    for i in range(3):
        for p in range(4):
            assert np.allclose(q[i, p], q_ins[i] + q_pts[p], atol=1e-15)


def test_assemble_zero_points_identity():
    rng = np.random.default_rng(5)
    q_ins = rng.normal(size=(3, 5))
    q = assemble_queries(Tensor(q_ins), Tensor(np.zeros((4, 5)))).values
    for p in range(4):
        assert np.array_equal(q[:, p, :], q_ins)


def test_assemble_row_differences_independent_of_instance():
    rng = np.random.default_rng(6)
    q_ins = rng.normal(size=(3, 5))
    q_pts = rng.normal(size=(4, 5))
    q = assemble_queries(Tensor(q_ins), Tensor(q_pts)).values
    expected = q_pts[1] - q_pts[3]
    for i in range(3):
        assert np.allclose(q[i, 1] - q[i, 3], expected, atol=1e-12)


def test_assemble_width_mismatch():
    with pytest.raises(ContractViolation, match="channel"):
        assemble_queries(Tensor(np.zeros((3, 5))), Tensor(np.zeros((4, 6))))


# --------------------------------------------------------------------------
# decoder layer behavior
# --------------------------------------------------------------------------

def test_zero_regression_head_keeps_references():
    cfg = _tiny_cfg()
    params = init_model_params(cfg, seed=7)
    bank = _bank(2, 8)
    outs = forward(params, bank, _levels(16), cfg)
    refs = init_reference_points(bank, cfg, params)
    assert np.allclose(outs[0].point_coords.values, refs.values, atol=1e-12)


def test_residual_passthrough_with_zeroed_block_outputs():
    from bevmap.decoder import _mha

    cfg = _tiny_cfg()
    params = init_model_params(cfg, seed=8)
    prefix = "layers.0.self_inst"
    params[f"{prefix}.o.w"] = Tensor(np.zeros((16, 16)))
    params[f"{prefix}.o.b"] = Tensor(np.zeros(16))
    rng = np.random.default_rng(9)
    tokens = Tensor(rng.normal(size=(1, 6, 16)))
    out = _mha(tokens, tokens, tokens, params, prefix, cfg.n_heads)
    assert np.abs(out.values).max() == 0.0
    # residual + LN: the sublayer output equals LN(q) exactly
    combined = ta.layer_norm(ta.add(tokens, out), params[f"{prefix}.ln_g"], params[f"{prefix}.ln_b"])
    direct = ta.layer_norm(tokens, Tensor(np.ones(16)), Tensor(np.zeros(16)))
    assert np.allclose(combined.values, direct.values, atol=1e-12)


@pytest.mark.parametrize("variant,cross_linears", [(VARIANT_SCALE_THEN_SAMPLE, 6), (VARIANT_VANILLA, 2)])
def test_each_affine_map_and_layer_norm_is_one_tape_node(variant, cross_linears):
    # per layer: the PE, 4 + 4 self-attention projections, 2 FFN and 4 head
    # linears, the cross-attention's linears, and 4 layer norms
    cfg = _tiny_cfg(variant=variant)
    with Tape() as tape:
        forward(init_model_params(cfg, seed=8), _bank(2, 8), _levels(16), cfg)
    kinds = collections.Counter(node.kind for node in tape.nodes)
    assert kinds["add_rows"] == 0
    assert kinds["layer_norm"] == 4 * cfg.n_layers
    assert kinds["linear"] == (15 + cross_linears) * cfg.n_layers


def test_per_layer_pe_maps_are_independent():
    cfg = _tiny_cfg()
    bank = _bank(2, 8)
    levels = _levels(16, seed=10)
    params = _draw_reg2(init_model_params(cfg, seed=11), seed=111)
    base = forward(params, bank, levels, cfg)
    perturbed = dict(params)
    perturbed["layers.1.pe.w"] = Tensor(params["layers.1.pe.w"].values + 0.01)
    after = forward(perturbed, bank, levels, cfg)
    # layer 0 unchanged, layer 1 changed
    assert np.array_equal(base[0].point_coords.values, after[0].point_coords.values)
    assert np.array_equal(base[0].class_logits.values, after[0].class_logits.values)
    assert not np.array_equal(base[1].class_logits.values, after[1].class_logits.values)


def test_forward_output_contract():
    cfg = _tiny_cfg(n_layers=3)
    params = init_model_params(cfg, seed=12)
    bank = _bank(2, 8)
    outs = forward(params, bank, _levels(16, seed=13), cfg)
    assert len(outs) == 3
    for out in outs:
        assert isinstance(out, LayerOutput)
        assert out.class_logits.shape == (6, 3)
        assert out.point_coords.shape == (6, 8, 2)
        assert (out.point_coords.values >= 0).all() and (out.point_coords.values <= 1).all()


def test_forward_deterministic():
    cfg = _tiny_cfg()
    params = _draw_reg2(init_model_params(cfg, seed=14), seed=114)
    bank = _bank(2, 8)
    levels = _levels(16, seed=15)
    a = forward(params, bank, levels, cfg)
    b = forward(params, bank, levels, cfg)
    for x, y in zip(a, b):
        assert np.array_equal(x.point_coords.values, y.point_coords.values)
        assert np.array_equal(x.class_logits.values, y.class_logits.values)


def test_gradient_flow_no_dead_parameters():
    cfg = _tiny_cfg()
    params = _draw_reg2(init_model_params(cfg, seed=16), seed=116)
    bank = _bank(2, 8)
    levels = _levels(16, seed=17)
    with Tape() as tape:
        outs = forward(params, bank, levels, cfg)
        loss = Tensor(0.0)
        for out in outs:
            loss = ta.add(loss, ta.reduce_sum(ta.multiply(out.point_coords, out.point_coords)))
            loss = ta.add(loss, ta.reduce_sum(ta.multiply(out.class_logits, out.class_logits)))
        grads = ta.backward(tape, loss)
    dead = [name for name, t in params.items() if np.abs(grads.of(t)).max() == 0.0]
    assert dead == []


def test_prior_coordinates_receive_no_gradient():
    cfg = _tiny_cfg()
    params = _draw_reg2(init_model_params(cfg, seed=18), seed=118)
    bank = _bank(2, 8)
    levels = _levels(16, seed=19)
    prior_const = Tensor(np.stack([p.points for p in bank.priors]))
    with Tape() as tape:
        # splice the tracked constant in to observe any gradient into it
        refs = ta.concat([prior_const, ta.sigmoid(params["ref_logits"])], axis=0)
        q = assemble_queries(params["q_ins"], params["q_pts"])
        out = decoder_layer(q, refs, levels, params, cfg, 0)
        loss = ta.reduce_sum(ta.multiply(out.point_coords, out.point_coords))
        grads = ta.backward(tape, loss)
    # gradients do flow to the spliced constant tensor through PE/sampling,
    # but init_reference_points itself uses an untracked constant: verify by
    # rebuilding through the public path and checking the bank is untouched
    assert np.abs(grads.of(params["ref_logits"])).max() > 0
    before = [p.points.copy() for p in bank.priors]
    with Tape() as tape2:
        outs = forward(params, bank, levels, cfg)
        loss = ta.reduce_sum(outs[-1].point_coords)
        ta.backward(tape2, loss)
    for a, b in zip(before, bank.priors):
        assert np.array_equal(a, b.points)


def test_refinement_stability_with_small_weights():
    cfg = _tiny_cfg(n_layers=3)
    params = _draw_reg2(init_model_params(cfg, seed=20, init_sd=1e-3), seed=120, sd=1e-3)
    bank = _bank(2, 8)
    outs = forward(params, bank, _levels(16, seed=21), cfg)
    prev = init_reference_points(bank, cfg, params).values
    for out in outs:
        cur = out.point_coords.values
        displacement = np.abs(cur - prev).mean()
        assert displacement < 0.05
        prev = cur


def test_non_finite_input_names_stage():
    cfg = _tiny_cfg()
    params = init_model_params(cfg, seed=22)
    bank = _bank(2, 8)
    levels = _levels(16, seed=23)
    levels[0].values[0, 0, 0] = np.nan
    with pytest.raises(NumericalError, match="stage"):
        forward(params, bank, levels, cfg)


def test_frozen_references_match_normal_forward():
    cfg = _tiny_cfg()
    params = _draw_reg2(init_model_params(cfg, seed=28), seed=128)
    bank = _bank(2, 8)
    levels = _levels(16, seed=29)
    base = forward(params, bank, levels, cfg)
    frozen = [out.point_coords.values for out in base[:-1]]
    again = forward(params, bank, levels, cfg, frozen_references=frozen)
    for a, b in zip(base, again):
        assert np.array_equal(a.point_coords.values, b.point_coords.values)


def test_end_to_end_gradcheck_tiny_config():
    # N_I=4, N_P=4, C=16, L=2 against finite differences of a scalar loss;
    # the inter-layer references are frozen at their base values so the
    # probes respect the same gradient-stop semantics as the tape
    cfg = DecoderConfig(
        n_instances=4, n_prior=2, n_points=4, channels=16, n_layers=2,
        n_heads=2, ffn_dim=16, head_hidden=8, num_levels=2, num_points_attn=2,
    )
    params = _draw_reg2(init_model_params(cfg, seed=24), seed=124)
    bank = _bank(2, 4, seed=25)
    levels = _levels(16, seed=26, h=10, w=8)
    rng = np.random.default_rng(27)
    w_pts = rng.normal(size=(4, 4, 2))
    w_cls = rng.normal(size=(4, 3))
    frozen = [out.point_coords.values for out in forward(params, bank, levels, cfg)[:-1]]

    def loss_for(*probe):
        names = ["q_ins", "ref_logits", "layers.0.reg2.w", "layers.1.cross.ms.off_w"]
        local = dict(params)
        for name, tensor in zip(names, probe):
            local[name] = tensor
        outs = forward(local, bank, levels, cfg, frozen_references=frozen)
        loss = Tensor(0.0)
        for out in outs:
            loss = ta.add(loss, ta.reduce_sum(ta.multiply(out.point_coords, Tensor(w_pts))))
            loss = ta.add(loss, ta.reduce_sum(ta.multiply(out.class_logits, Tensor(w_cls))))
        return loss

    probes = [params["q_ins"], params["ref_logits"], params["layers.0.reg2.w"],
              params["layers.1.cross.ms.off_w"]]
    err = ta.grad_check(loss_for, probes, eps=1e-5)
    assert err <= 1e-4


def test_cli_default_decoder_forward_under_a_tape_starts_no_thread(monkeypatch):
    # C=32 calls stay below the pool's threshold, samples and level table alike
    class NoPool:
        def map(self, fn, items):
            raise AssertionError("a C=32 call went to the pool")

    cfg = RunConfig().decoder_cfg
    params = init_model_params(cfg, seed=0)
    levels = _levels(cfg.channels, h=200, w=100, num=cfg.num_levels)
    monkeypatch.setattr(ta, "_POOL", NoPool())
    before = threading.active_count()
    with Tape():
        forward(params, _bank(cfg.n_prior, cfg.n_points), levels, cfg)
    assert threading.active_count() == before
