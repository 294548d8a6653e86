import dataclasses
import json
import weakref

import numpy as np
import pytest

from bevmap import synth, training
from bevmap import tensorad as ta
from bevmap.decoder import DecoderConfig
from bevmap.geometry import BevExtent
from bevmap.matching import Assignment
from bevmap.priors import abstract, fit_clusters
from bevmap.tensorad import ContractViolation
from bevmap.training import (
    CheckpointError,
    TrainConfig,
    build_dataset,
    load_checkpoint,
    save_checkpoint,
    setup_run,
    train,
)

EXT = BevExtent(-30, 30, -15, 15, 32, 16)


@pytest.fixture(scope="module")
def world():
    scfg = synth.SceneConfig(extent=EXT, n_points=8, divider_lanes=4, crossing_slots=2)
    scenes = [synth.generate_scene(scfg, seed=100 + i) for i in range(3)]
    dcfg = DecoderConfig(
        n_instances=8, n_prior=4, n_points=8, channels=16, n_layers=2,
        n_heads=2, ffn_dim=32, head_hidden=16, num_levels=2, num_points_attn=2,
    )
    dataset = build_dataset(scenes, channels=16, num_levels=2, seed=7)
    elements = [e for s in scenes for e in s.elements]
    bank = abstract(fit_clusters(elements, EXT, k=4, seed=3).clusters, 4)
    return scenes, dcfg, dataset, bank


def test_overfit_single_scene(world):
    scenes, dcfg, dataset, bank = world
    tcfg = TrainConfig(steps=500, lr=0.2, seed=1)
    params, eff_bank, eff_cfg = setup_run(dcfg, bank, tcfg)
    result = train(params, eff_bank, dataset[:1], eff_cfg, tcfg)
    first = result.log[0]["loss_total"]
    last = result.log[-1]["loss_total"]
    assert last < 0.10 * first, f"loss {first:.3f} -> {last:.3f}"


def _diverge(world, lr):
    import warnings

    from bevmap.training import TrainingDiverged

    scenes, dcfg, dataset, bank = world
    tcfg = TrainConfig(steps=200, lr=lr, seed=1)
    params, eff_bank, eff_cfg = setup_run(dcfg, bank, tcfg)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(TrainingDiverged) as exc:
            train(params, eff_bank, dataset[:1], eff_cfg, tcfg)
    assert 1 <= exc.value.step < tcfg.steps
    return exc.value


def test_divergence_aborts_with_step_index(world, monkeypatch):
    # the loss goes non-finite from step 1 on, after every decoder stage
    total_loss, calls = training.total_loss, []

    def nan_from_step_1(*args, **kwargs):
        loss, breakdown, assignments = total_loss(*args, **kwargs)
        calls.append(None)
        return (ta.Tensor(loss.values * np.nan) if len(calls) > 1 else loss), breakdown, assignments

    monkeypatch.setattr(training, "total_loss", nan_from_step_1)
    err = _diverge(world, 0.1)
    assert str(err) == f"non-finite loss at step {err.step}"


def test_divergence_in_a_decoder_stage_names_the_stage_and_step(world):
    err = _diverge(world, 1e300)
    assert str(err) == f"non-finite values after stage 'instance self-attention' at step {err.step}"


def test_training_deterministic(world):
    scenes, dcfg, dataset, bank = world
    logs = []
    for _ in range(2):
        tcfg = TrainConfig(steps=8, lr=0.1, seed=5)
        params, eff_bank, eff_cfg = setup_run(dcfg, bank, tcfg)
        result = train(params, eff_bank, dataset, eff_cfg, tcfg)
        logs.append(result.log)
    assert logs[0] == logs[1]


def test_each_step_frees_its_tape_before_the_next_forward(world, monkeypatch):
    scenes, dcfg, dataset, bank = world
    tapes, alive_at_forward = [], []
    project_pyramid, total_loss = training.project_pyramid, training.total_loss

    def forward_start(levels, params):
        alive_at_forward.append([t() is not None for t in tapes])
        return project_pyramid(levels, params)

    def recording_loss(*args, **kwargs):
        tapes.append(weakref.ref(ta.active_tape()))
        return total_loss(*args, **kwargs)

    monkeypatch.setattr(training, "project_pyramid", forward_start)
    monkeypatch.setattr(training, "total_loss", recording_loss)
    tcfg = TrainConfig(steps=3, lr=0.1, seed=5)
    params, eff_bank, eff_cfg = setup_run(dcfg, bank, tcfg)
    train(params, eff_bank, dataset, eff_cfg, tcfg)
    assert alive_at_forward == [[], [False], [False, False]]


def test_params_kept_by_the_caller_pin_no_tape(world, monkeypatch):
    # the caller's tensors were the step's leaves; their links to its tape are weak
    scenes, dcfg, dataset, bank = world
    tapes = []
    total_loss = training.total_loss

    def recording_loss(*args, **kwargs):
        tapes.append(weakref.ref(ta.active_tape()))
        return total_loss(*args, **kwargs)

    monkeypatch.setattr(training, "total_loss", recording_loss)
    tcfg = TrainConfig(steps=1, lr=0.1, seed=5)
    params, eff_bank, eff_cfg = setup_run(dcfg, bank, tcfg)
    result = train(dict(params), eff_bank, dataset, eff_cfg, tcfg)
    assert params and result.params
    assert len(tapes) == 1 and tapes[0]() is None


def test_modes_differ_only_through_reference_path(world):
    scenes, dcfg, dataset, bank = world
    tcfg = TrainConfig(steps=1, lr=0.1, seed=5)
    params_p, bank_p, cfg_p = setup_run(dcfg, bank, tcfg)
    params_r, bank_r, cfg_r = setup_run(dataclasses.replace(dcfg, n_prior=0), bank, tcfg)
    assert bank_p is bank and bank_r is None
    assert cfg_p.n_prior == 4 and cfg_r.n_prior == 0
    # every non-reference parameter is identical between the two modes
    for name in params_p:
        if name == "ref_logits":
            continue
        assert np.array_equal(params_p[name].values, params_r[name].values), name
    # the shared learnable tail rows are drawn identically
    assert np.array_equal(params_p["ref_logits"].values, params_r["ref_logits"].values[cfg_p.n_prior:])


def test_setup_run_refuses_priors_without_a_bank(world):
    scenes, dcfg, dataset, bank = world
    with pytest.raises(ContractViolation, match="decoder configured with priors but no bank supplied"):
        setup_run(dcfg, None, TrainConfig(steps=1, seed=5))


def test_log_columns(world):
    scenes, dcfg, dataset, bank = world
    tcfg = TrainConfig(steps=3, lr=0.1, seed=2)
    params, eff_bank, eff_cfg = setup_run(dcfg, bank, tcfg)
    result = train(params, eff_bank, dataset, eff_cfg, tcfg)
    expected = {"step", "scene", "loss_total", "loss_cls", "loss_pts", "loss_disc", "u_layer1", "u_t", "is",
                "prior_share"}
    assert set(result.log[0]) == expected
    assert [row["step"] for row in result.log] == [0, 1, 2]
    assert all(0.0 <= row["u_t"] <= 1.0 for row in result.log)
    # the first epoch visits each of the 3 scenes once, so no step has an earlier visit
    assert sorted(row["scene"] for row in result.log) == [0, 1, 2]
    assert all(np.isnan(row["is"]) and 0.0 <= row["prior_share"] <= 1.0 for row in result.log)


@pytest.mark.parametrize("n_gts,last_layer,expected_is,expected_share", [
    # one scene visited three times; n_prior is 4, so queries 0-3 are prior rows
    (2, [{0: 5, 1: 6}, {0: 5, 1: 2}, {0: 5, 1: 2}], [None, 0.5, 0.0], [0.0, 0.5, 0.5]),
    (2, [{0: 1, 1: 2}, {0: 2, 1: 1}, {0: 6, 1: 7}], [None, 1.0, 1.0], [1.0, 1.0, 0.0]),
    (0, [{}, {}, {}], [None, None, None], [None, None, None]),
])
def test_is_and_prior_share_on_a_hand_made_visit_sequence(world, monkeypatch, n_gts, last_layer, expected_is,
                                                          expected_share):
    scenes, dcfg, dataset, bank = world
    item = dataclasses.replace(dataset[0], gts=dataset[0].gts[:n_gts])
    visits = iter(last_layer)
    total_loss = training.total_loss

    def fixed_matches(*args, **kwargs):
        loss, breakdown, assignments = total_loss(*args, **kwargs)
        pairs = [(g, q, 0) for g, q in next(visits).items()]
        return loss, breakdown, [Assignment(pairs, 0.0) for _ in assignments]

    monkeypatch.setattr(training, "total_loss", fixed_matches)
    tcfg = TrainConfig(steps=3, lr=0.1, seed=5)
    params, eff_bank, eff_cfg = setup_run(dcfg, bank, tcfg)
    log = train(params, eff_bank, [item], eff_cfg, tcfg).log
    nan_as_none = [[None if np.isnan(row[k]) else row[k] for row in log] for k in ("is", "prior_share")]
    assert nan_as_none == [expected_is, expected_share]


def test_checkpoint_round_trip(tmp_path, world):
    scenes, dcfg, dataset, bank = world
    tcfg = TrainConfig(steps=2, lr=0.1, seed=9)
    params, eff_bank, eff_cfg = setup_run(dcfg, bank, tcfg)
    result = train(params, eff_bank, dataset, eff_cfg, tcfg)
    path = str(tmp_path / "ckpt.npz")
    save_checkpoint(result.params, path, eff_cfg, eff_bank, {"truncation": 3.0}, "abc123", scenes[0].extent)
    loaded = load_checkpoint(path)
    assert sorted(loaded) == sorted(result.params)
    for name in loaded:
        assert np.array_equal(loaded[name].values, result.params[name].values)
    assert loaded.decoder_cfg == eff_cfg
    assert [p.points.tolist() for p in loaded.bank.priors] == [p.points.tolist() for p in eff_bank.priors]
    assert (loaded.features, loaded.dataset_fingerprint) == ({"truncation": 3.0}, "abc123")
    assert loaded.extent == scenes[0].extent


@pytest.mark.parametrize("missing", ["decoder", "features", "dataset_fingerprint", "extent"])
def test_checkpoint_without_run_record_refused(tmp_path, world, missing):
    scenes, dcfg, dataset, bank = world
    path = str(tmp_path / "ckpt.npz")
    save_checkpoint({"w": ta.Tensor(np.zeros(2))}, path, dcfg, None, {"truncation": 3.0}, "abc123", scenes[0].extent)
    with np.load(path) as data:
        meta = json.loads(str(data["_meta"]))
    meta[missing] = None
    np.savez(path, _meta=np.array(json.dumps(meta)), w=np.zeros(2))
    with pytest.raises(CheckpointError) as err:
        load_checkpoint(path)
    assert str(err.value) == f"{path}: _meta records no {missing}"


def test_empty_dataset_rejected(world):
    scenes, dcfg, dataset, bank = world
    tcfg = TrainConfig(steps=1, lr=0.1, seed=0)
    params, eff_bank, eff_cfg = setup_run(dcfg, bank, tcfg)
    with pytest.raises(ValueError, match="empty"):
        train(params, eff_bank, [], eff_cfg, tcfg)
