import numpy as np
import pytest

from bevmap import tensorad as ta
from bevmap.decoder import DecoderConfig, forward, init_model_params
from bevmap.geometry import BevExtent, CLASS_DIVIDER, KIND_POLYLINE, MapElement
from bevmap.losses import (
    LossConfig,
    LossConfigError,
    discriminative_loss,
    focal_classification_loss,
    point_l1_loss,
    total_loss,
)
from bevmap.matching import gt_targets, match_layer
from bevmap.priors import PriorBank, PriorShape
from bevmap.synth import InstanceMask
from bevmap.tensorad import Tape, Tensor


CFG = LossConfig()


# --------------------------------------------------------------------------
# discriminative loss
# --------------------------------------------------------------------------

def test_single_instance_has_no_distance_term():
    rng = np.random.default_rng(0)
    emb = rng.normal(size=(3, 4, 4))
    mask = np.zeros((4, 4), dtype=int)
    mask[1:3, 1:3] = 1
    var_only = LossConfig(lambda_dist=0.0)
    with_dist = LossConfig(lambda_dist=1.0)
    a = discriminative_loss(Tensor(emb), mask, var_only).item()
    b = discriminative_loss(Tensor(emb), mask, with_dist).item()
    assert a == pytest.approx(b, abs=1e-15)  # K=1: distance term contributes 0


def test_saturated_margins_give_zero():
    emb = np.zeros((2, 4, 4))
    emb[0, :2, :] = 0.0
    emb[0, 2:, :] = 10.0  # means 10 apart > delta_d = 3
    mask = np.zeros((4, 4), dtype=int)
    mask[:2] = 1
    mask[2:] = 2
    assert discriminative_loss(Tensor(emb), mask, CFG).item() == 0.0


def test_scalar_case_exact_quarter():
    emb = Tensor(np.array([[[0.0, 2.0]]]))  # one channel, two cells
    mask = np.array([[1, 1]])
    val = discriminative_loss(emb, mask, CFG).item()
    assert abs(val - 0.25) < 1e-12


def test_empty_mask_zero():
    assert discriminative_loss(Tensor(np.zeros((2, 3, 3))), np.zeros((3, 3), int), CFG).item() == 0.0


def test_instance_mask_object_accepted():
    emb = Tensor(np.zeros((2, 2, 2)))
    mask = InstanceMask(np.array([[1, 1], [0, 0]]), 1)
    assert discriminative_loss(emb, mask, CFG).item() == 0.0


def test_discriminative_gradcheck():
    rng = np.random.default_rng(1)
    mask = rng.integers(0, 3, (5, 5))

    def f(e):
        return discriminative_loss(e, mask, CFG)

    err = ta.grad_check(f, [Tensor(rng.normal(size=(3, 5, 5)))], eps=1e-5)
    assert err <= 1e-4


def test_invariant_under_instance_relabeling():
    rng = np.random.default_rng(2)
    emb = Tensor(rng.normal(size=(3, 6, 6)))
    mask = rng.integers(0, 4, (6, 6))
    relabeled = np.select([mask == 1, mask == 2, mask == 3], [3, 1, 2], default=0)
    a = discriminative_loss(emb, mask, CFG).item()
    b = discriminative_loss(emb, relabeled, CFG).item()
    assert a == pytest.approx(b, abs=1e-12)


def test_invariant_under_channel_rotation():
    rng = np.random.default_rng(3)
    emb = rng.normal(size=(3, 6, 6))
    mask = rng.integers(0, 3, (6, 6))
    # random orthogonal rotation of the embedding channels
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    rotated = np.einsum("dc,chw->dhw", q, emb)
    a = discriminative_loss(Tensor(emb), mask, CFG).item()
    b = discriminative_loss(Tensor(rotated), mask, CFG).item()
    assert a == pytest.approx(b, abs=1e-10)


def test_monotone_hinge_in_margins():
    rng = np.random.default_rng(4)
    emb = rng.normal(size=(3, 6, 6))
    mask = rng.integers(0, 4, (6, 6))
    # increasing delta_d never decreases the distance term
    prev = -1.0
    for dd in (2.0, 3.0, 5.0, 8.0):
        cfg = LossConfig(delta_v=0.5, delta_d=dd, lambda_var=0.0)
        val = discriminative_loss(Tensor(emb), mask, cfg).item()
        assert val >= prev - 1e-12
        prev = val
    # increasing delta_v never increases the variance term
    prev = np.inf
    for dv in (0.1, 0.5, 1.0, 2.0):
        cfg = LossConfig(delta_v=dv, delta_d=10.0, lambda_dist=0.0)
        val = discriminative_loss(Tensor(emb), mask, cfg).item()
        assert val <= prev + 1e-12
        prev = val


def test_margin_geometry_validated():
    with pytest.raises(LossConfigError, match="delta_d"):
        LossConfig(delta_v=2.0, delta_d=3.0)


# --------------------------------------------------------------------------
# detection losses
# --------------------------------------------------------------------------

def _tiny_model(seed=0):
    cfg = DecoderConfig(
        n_instances=4, n_prior=2, n_points=4, channels=16, n_layers=2,
        n_heads=2, ffn_dim=16, head_hidden=8, num_levels=2, num_points_attn=2,
    )
    params = init_model_params(cfg, seed=seed)
    reg_rng = np.random.default_rng(seed + 100)
    for layer in range(cfg.n_layers):
        name = f"layers.{layer}.reg2.w"
        params[name] = Tensor(reg_rng.normal(0.0, 0.02, params[name].shape))
    rng = np.random.default_rng(seed + 1)
    bank = PriorBank([PriorShape("polyline", rng.uniform(0.1, 0.9, (4, 2))) for _ in range(2)])
    levels = [Tensor(rng.normal(size=(16, 10, 8))), Tensor(rng.normal(size=(16, 5, 4)))]
    ext = BevExtent(0.0, 1.0, 0.0, 1.0, 10, 8)
    gts = gt_targets(
        [
            MapElement(CLASS_DIVIDER, KIND_POLYLINE, rng.uniform(0.1, 0.9, (4, 2))),
            MapElement(CLASS_DIVIDER, KIND_POLYLINE, rng.uniform(0.1, 0.9, (4, 2))),
        ],
        ext,
    )
    return cfg, params, bank, levels, gts


def test_zero_gt_scene_losses():
    cfg, params, bank, levels, _ = _tiny_model()
    outs = forward(params, bank, levels, cfg)
    loss, breakdown, assignments = total_loss(outs, [], None, None, CFG)
    assert breakdown["loss_pts"] == 0.0
    assert breakdown["loss_disc"] == 0.0
    assert breakdown["loss_cls"] > 0.0  # everything pushed to background
    assert all(a.pairs == [] for a in assignments)


def test_saturated_correct_logits_floor():
    logits = Tensor(np.array([[40.0, -40.0, -40.0], [-40.0, -40.0, -40.0]]))
    targets = np.array([0, -1])
    val = focal_classification_loss(logits, targets, CFG).item()
    assert val < 1e-3


def test_point_loss_uses_chosen_ordering():
    ext = BevExtent(0.0, 1.0, 0.0, 1.0, 4, 4)
    gt = gt_targets([MapElement(CLASS_DIVIDER, KIND_POLYLINE, np.array([[0.1, 0.5], [0.9, 0.5]]))], ext)
    pred_points = np.stack([gt[0].orderings[1], np.full((2, 2), 0.05)])  # query 0 reversed
    assignment = match_layer(np.zeros((2, 3)), pred_points, gt, CFG)
    loss = point_l1_loss(Tensor(pred_points), assignment, gt).item()
    assert loss == pytest.approx(0.0, abs=1e-15)


def test_perfect_predictions_tiny_total_loss():
    cfg, params, bank, levels, gts = _tiny_model(seed=5)
    outs = forward(params, bank, levels, cfg)

    class FakeOut:
        def __init__(self, logits, points):
            self.class_logits = Tensor(logits)
            self.point_coords = Tensor(points)

    points = np.stack([g.orderings[0] for g in gts] + [np.full((4, 2), 0.5)] * 2)
    logits = np.full((4, 3), -40.0)
    logits[0, gts[0].class_id] = 40.0
    logits[1, gts[1].class_id] = 40.0
    fake = [FakeOut(logits, points) for _ in range(2)]
    loss, breakdown, _ = total_loss(fake, gts, None, None, CFG)
    assert breakdown["loss_pts"] == pytest.approx(0.0, abs=1e-12)
    assert breakdown["loss_cls"] < 1e-3


def test_total_loss_gradcheck_tiny():
    cfg, params, bank, levels, gts = _tiny_model(seed=7)
    mask = np.random.default_rng(8).integers(0, 3, (10, 8))
    frozen = [o.point_coords.values for o in forward(params, bank, levels, cfg)[:-1]]
    base_outs = forward(params, bank, levels, cfg)
    fixed_assignments = [
        match_layer(o.class_logits.values, o.point_coords.values, gts, CFG)
        for o in base_outs
    ]

    def f(q_ins, adapter_like):
        local = dict(params)
        local["q_ins"] = q_ins
        emb = ta.multiply(adapter_like, adapter_like)  # any differentiable embedding map
        outs = forward(local, bank, levels, cfg, frozen_references=frozen)
        loss, _, _ = total_loss(outs, gts, emb, mask, CFG, assignments=fixed_assignments)
        return loss

    rng = np.random.default_rng(9)
    emb_src = Tensor(rng.normal(size=(3, 10, 8)))
    err = ta.grad_check(f, [params["q_ins"], emb_src], eps=1e-5)
    assert err <= 1e-4


def test_total_loss_breakdown_sums():
    cfg, params, bank, levels, gts = _tiny_model(seed=11)
    rng = np.random.default_rng(12)
    emb = Tensor(rng.normal(size=(3, 10, 8)))
    mask = rng.integers(0, 3, (10, 8))
    outs = forward(params, bank, levels, cfg)
    loss, breakdown, assignments = total_loss(outs, gts, emb, mask, CFG)
    assert breakdown["loss_total"] == pytest.approx(
        breakdown["loss_cls"] + breakdown["loss_pts"] + breakdown["loss_disc"], abs=1e-12
    )
    assert len(assignments) == cfg.n_layers
