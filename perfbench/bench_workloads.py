"""The three workloads: `train`, `eval` and `attn`.

Each workload is one closed loop in this process: the next op starts when
the previous one has returned.  It drives bevmap only through the public
functions of its modules, looked up as module attributes at call time, so
the tracer in bench_trace.py sees every call.  The workload seed makes the
inputs (scenes, or the attention inputs); model parameters, the prior fit,
the feature rendering and the training order use fixed program seeds, so the
program sees only the generated inputs.

A workload has `setup()`, which does everything up to the first timed op,
warm-up included, `run(clock, deadline, min_ops)`, the timed loop, and
`check()`, the untimed run-level output checks, which return failure
messages.
"""

from __future__ import annotations

import hashlib
import math
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from bevmap import attention, decoder, evaluate, losses, priors, synth, training
from bevmap import tensorad as ta
from bevmap.geometry import BevExtent
from bevmap.tensorad import Tensor

PROGRAM_SEED = 0  # model init, prior fit, feature rendering, training order
FD_EPS = 1e-6
FD_TOL = 1e-5  # |analytic - numeric| / max(1, |analytic|, |numeric|)
REF_TOL = 1e-9  # attention reference, relative to the largest output


@dataclass(frozen=True)
class ModelSize:
    """The CLI default model and feature pyramid, and the scene mix.

    Scenes hold exactly 3 dividers, 2 crossings and 2 boundaries, snapped
    to 3 lanes and 2 slots.  Matching and the discriminative loss cost more
    with more elements, so with the generator's random counts the median
    train step spread 0.21 (quartile distance over median, six seeds)
    against 0.10 with fixed counts.
    """

    extent: BevExtent = field(default_factory=BevExtent)
    n_points: int = 20
    channels: int = 32
    num_levels: int = 2
    n_instances: int = 50
    n_prior: int = 9
    n_layers: int = 6
    n_heads: int = 8
    ffn_dim: int = 256
    head_hidden: int = 64
    num_points_attn: int = 4
    train_scenes: int = 6
    held_out_scenes: int = 8
    prior_k: int = 16  # 6 scenes hold 42 elements; the CLI's k=50 needs more
    guard_steps: int = 8  # loss_final and u_t_final come from steps [4, 8)
    guard_window: int = 4
    fd_coords: int = 3

    def scene_config(self) -> synth.SceneConfig:
        return synth.SceneConfig(
            extent=self.extent, n_points=self.n_points,
            divider_count=(3, 3), crossing_count=(2, 2), boundary_count=(2, 2),
            divider_lanes=3, crossing_slots=2,
        )

    def decoder_config(self) -> decoder.DecoderConfig:
        return decoder.DecoderConfig(
            n_instances=self.n_instances, n_prior=self.n_prior, n_points=self.n_points,
            channels=self.channels, n_layers=self.n_layers, n_heads=self.n_heads,
            ffn_dim=self.ffn_dim, head_hidden=self.head_hidden,
            variant=attention.VARIANT_SCALE_THEN_SAMPLE,
            num_levels=self.num_levels, num_points_attn=self.num_points_attn,
        )


@dataclass(frozen=True)
class AttnSize:
    """The `bench-attn` shape: 1000 queries, C=256, 8 heads, M=3, N=4, 200x100."""

    queries: int = 1000
    channels: int = 256
    heads: int = 8
    levels: int = 3
    points: int = 4
    h: int = 200
    w: int = 100
    ref_queries: int = 8  # queries checked against the reference in check()


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


def _generate_scenes(seed: int, count: int, size: ModelSize):
    scene_seeds = np.random.default_rng(seed).integers(0, 2**63, size=count)
    cfg = size.scene_config()
    return [synth.generate_scene(cfg, int(s)) for s in scene_seeds]


def _model_setup(scenes, size: ModelSize):
    """Prior bank fitted on `scenes`, then parameters as `bevmap train` makes them."""
    elements = [e for s in scenes for e in s.elements]
    fit = priors.fit_clusters(elements, size.extent, size.prior_k, PROGRAM_SEED)
    bank = priors.abstract(fit.clusters, size.n_prior)
    train_cfg = training.TrainConfig(steps=1, seed=PROGRAM_SEED)
    params, bank, cfg = training.setup_run(size.decoder_config(), bank, train_cfg)
    params.update(training.init_adapter(size.channels, (size.extent.h, size.extent.w), PROGRAM_SEED))
    return params, bank, cfg


class OpClock:
    """Times ops and counts failures; in a traced run, traces every other op."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.latencies: list[float] = []
        self.traced: list[bool] = []
        self.failed = 0
        self._t0 = 0.0

    @property
    def ops(self) -> int:
        return len(self.latencies)

    def start(self, op_name: str = "bench.op") -> None:
        self._t0 = time.perf_counter()
        if self.tracer is not None and self.ops % 2 == 1:
            self.tracer.begin_op(self.ops, op_name)

    def done(self, ok: bool) -> None:
        traced = self.tracer is not None and self.tracer.active
        if traced:
            self.tracer.end_op()
        self.latencies.append(time.perf_counter() - self._t0)
        self.traced.append(traced)
        self.failed += not ok

    def phase(self, name: str):
        return nullcontext() if self.tracer is None else self.tracer.phase(name)


def _report_failed_op(workload: str, op: int) -> None:
    print(f"{workload}: op {op} raised", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


# --------------------------------------------------------------------------
# train
# --------------------------------------------------------------------------


class _Stop(Exception):
    """Raised at a step boundary to end training when the time is up."""


class TrainWorkload:
    """One trainer: an op is one step of `training.train`, tape and Adagrad included."""

    name = "train"

    def __init__(self, seed: int, size: ModelSize = ModelSize()):
        self.seed = seed
        self.size = size

    def setup(self) -> None:
        self.scenes = _generate_scenes(self.seed, self.size.train_scenes, self.size)
        self.params, self.bank, self.cfg = _model_setup(self.scenes, self.size)
        self.dataset = training.build_dataset(
            self.scenes, self.size.channels, self.size.num_levels, seed=PROGRAM_SEED
        )
        # warm-up: one full step on a copy; train() rebinds entries, never mutates tensors
        training.train(dict(self.params), self.bank, self.dataset, self.cfg, self._train_config(1))
        self.losses: list[dict] = []
        self.u_t: list[float] = []

    def _train_config(self, steps: int) -> training.TrainConfig:
        return training.TrainConfig(steps=steps, seed=PROGRAM_SEED)

    def input_digest(self) -> str:
        return _digest(e.points for s in self.scenes for e in s.elements)

    def run(self, clock: OpClock, deadline: float, min_ops: int) -> None:
        min_ops = max(min_ops, self.size.guard_steps)
        total_loss, unstable_scores = training.total_loss, training.unstable_scores

        def capture_loss(*args, **kwargs):
            result = total_loss(*args, **kwargs)
            self.losses.append(result[1])
            return result

        def step_boundary(assignments):
            report = unstable_scores(assignments)
            self.u_t.append(report.u_t)
            breakdown = self.losses[-1]
            ok = all(math.isfinite(v) for v in breakdown.values()) and 0.0 <= report.u_t <= 1.0
            clock.done(ok)
            if clock.ops >= min_ops and time.perf_counter() >= deadline:
                raise _Stop
            clock.start("training.step")
            return report

        training.total_loss, training.unstable_scores = capture_loss, step_boundary
        try:
            clock.start("training.step")
            training.train(self.params, self.bank, self.dataset, self.cfg, self._train_config(10**9))
        except _Stop:
            pass
        except Exception:  # the step that raised is a failed op; training cannot go on
            _report_failed_op(self.name, clock.ops)
            clock.done(False)
        finally:
            training.total_loss, training.unstable_scores = total_loss, unstable_scores

    def guards(self) -> dict:
        lo, hi = self.size.guard_steps - self.size.guard_window, self.size.guard_steps
        if len(self.losses) < hi:
            return {}
        return {
            "loss_final": float(np.mean([row["loss_total"] for row in self.losses[lo:hi]])),
            "u_t_final": float(np.mean(self.u_t[lo:hi])),
        }

    def output_digest(self) -> str:
        steps = self.size.guard_steps
        return _digest([[row["loss_total"] for row in self.losses[:steps]], self.u_t[:steps]])

    def check(self) -> list[str]:
        """Analytic gradients of the trained parameters against central differences."""
        item = self.dataset[0]
        loss_cfg = losses.LossConfig()
        levels = training.project_pyramid(item.pyramid.levels, self.params)
        outputs = decoder.forward(self.params, self.bank, levels, self.cfg)
        frozen = [out.point_coords.values for out in outputs[:-1]]
        _, _, assignments = losses.total_loss(outputs, item.gts, levels[0], item.mask, loss_cfg)

        def loss_of(params):
            lv = training.project_pyramid(item.pyramid.levels, params)
            outs = decoder.forward(params, self.bank, lv, self.cfg, frozen_references=frozen)
            return losses.total_loss(outs, item.gts, lv[0], item.mask, loss_cfg, assignments=assignments)[0]

        with ta.Tape() as tape:
            grads = ta.backward(tape, loss_of(self.params))
        last = self.size.n_layers - 1
        candidates = ["adapter.w", "q_ins", "ref_logits", "layers.0.cross.ms.val_w",
                      f"layers.{last}.cross.sp.off_w", f"layers.{last}.ffn1.w", "layers.0.self_inst.q.w"]
        rng = np.random.default_rng(self.seed)
        failures = []
        for name in rng.choice(candidates, size=self.size.fd_coords, replace=False).tolist():
            base = self.params[name].values
            j = int(rng.integers(base.size))
            analytic = float(grads.of(self.params[name]).reshape(-1)[j])
            probes = []
            for sign in (1.0, -1.0):
                shifted = base.copy()
                shifted.reshape(-1)[j] += sign * FD_EPS
                probes.append(loss_of({**self.params, name: Tensor(shifted)}).item())
            numeric = (probes[0] - probes[1]) / (2 * FD_EPS)
            err = abs(analytic - numeric) / max(1.0, abs(analytic), abs(numeric))
            if not err <= FD_TOL:
                failures.append(f"gradient of {name}[{j}]: analytic {analytic!r}, numeric {numeric!r}")
        return failures


# --------------------------------------------------------------------------
# eval
# --------------------------------------------------------------------------


class EvalWorkload:
    """One client: an op takes a held-out scene to scored predictions."""

    name = "eval"

    def __init__(self, seed: int, size: ModelSize = ModelSize()):
        self.seed = seed
        self.size = size

    def setup(self) -> None:
        scenes = _generate_scenes(self.seed, self.size.train_scenes + self.size.held_out_scenes, self.size)
        self.held_out = scenes[self.size.train_scenes:]
        self.params, self.bank, self.cfg = _model_setup(scenes[: self.size.train_scenes], self.size)
        self._op(self.held_out[0])  # warm-up
        self.predictions: list = []
        self.report = None

    def input_digest(self) -> str:
        return _digest(e.points for s in self.held_out for e in s.elements)

    def _op(self, scene):
        pyramid = synth.render_bev(scene, self.size.channels, self.size.num_levels, seed=PROGRAM_SEED)
        levels = training.project_pyramid(pyramid.levels, self.params)
        final = decoder.forward(self.params, self.bank, levels, self.cfg)[-1]
        return evaluate.predictions_from_output(
            final.class_logits.values, final.point_coords.values, scene.extent
        )

    def _valid(self, preds) -> bool:
        return len(preds) == self.size.n_instances and all(
            np.isfinite(p.element.points).all() and 0.0 <= p.score <= 1.0 for p in preds
        )

    def run(self, clock: OpClock, deadline: float, min_ops: int) -> None:
        gts = []
        while clock.ops < min_ops or time.perf_counter() < deadline:
            scene = self.held_out[clock.ops % len(self.held_out)]
            clock.start()
            try:
                preds = self._op(scene)
            except Exception:  # a failed op; the loop goes on
                _report_failed_op(self.name, clock.ops)
                clock.done(False)
                continue
            clock.done(self._valid(preds))
            self.predictions.append(preds)
            gts.append(scene.elements)
        with clock.phase("close"):
            try:
                self.report = evaluate.evaluate(self.predictions, gts)
            except Exception:  # check() reports the missing mAP
                _report_failed_op(self.name, clock.ops)

    def output_digest(self) -> str:
        first = self.predictions[: len(self.held_out)]
        return _digest([[p.element.points for p in preds] for preds in first])

    def check(self) -> list[str]:
        failures = []
        if self.report is None or not 0.0 <= self.report.mean_ap <= 1.0:
            failures.append("closing evaluate gave no mAP in [0, 1]")
        oracle = evaluate.evaluate(
            [[evaluate.Prediction(e, 1.0) for e in s.elements] for s in self.held_out],
            [s.elements for s in self.held_out],
        )
        if oracle.mean_ap != 1.0:
            failures.append(f"ground truth as predictions scored mAP {oracle.mean_ap!r}, not 1.0")
        return failures


# --------------------------------------------------------------------------
# attn
# --------------------------------------------------------------------------


class AttnWorkload:
    """An op is one `attention.msda` call for vanilla, then one for DMD, on the same inputs."""

    name = "attn"
    variants = (attention.VARIANT_VANILLA, attention.VARIANT_SCALE_THEN_SAMPLE)

    def __init__(self, seed: int, size: AttnSize = AttnSize()):
        self.seed = seed
        self.size = size

    def setup(self) -> None:
        s = self.size
        rng = np.random.default_rng(self.seed)
        self.levels = [Tensor(lvl) for lvl in attention.random_pyramid(s.channels, s.levels, s.h, s.w, self.seed)]
        self.tokens = Tensor(rng.normal(0.0, 1.0, (s.queries, s.channels)))
        self.ref = Tensor(rng.uniform(0.05, 0.95, (s.queries, 2)))
        self.params = [
            attention.init_msda_params(v, s.heads, s.levels, s.points, s.channels, PROGRAM_SEED)
            for v in self.variants
        ]
        self._op()  # warm-up
        self.digests: list[str] | None = None
        self.outputs: list[np.ndarray] | None = None

    def input_digest(self) -> str:
        return _digest([lvl.values for lvl in self.levels] + [self.tokens.values, self.ref.values])

    def _op(self):
        return [attention.msda(self.tokens, self.levels, self.ref, p) for p in self.params]

    def _valid(self, results) -> bool:
        expected = [attention.count_samples(p.variant, p.num_levels, p.num_points) for p in self.params]
        if [r.sample_count for r in results] != expected:
            return False
        outs = [r.output.values for r in results]
        if not all(np.isfinite(o).all() for o in outs):
            return False
        digests = [_digest([o]) for o in outs]
        if self.digests is None:
            self.digests, self.outputs = digests, outs
        return digests == self.digests

    def run(self, clock: OpClock, deadline: float, min_ops: int) -> None:
        while clock.ops < min_ops or time.perf_counter() < deadline:
            clock.start()
            try:
                results = self._op()
            except Exception:  # a failed op; the loop goes on
                _report_failed_op(self.name, clock.ops)
                clock.done(False)
                continue
            clock.done(self._valid(results))

    def output_digest(self) -> str:
        return "".join(self.digests or [])

    def check(self) -> list[str]:
        failures = []
        reads = [attention.count_samples(v, 3, 4) for v in self.variants]
        if reads != [12, 7]:
            failures.append(f"count_samples at M=3, N=4 gave {reads}, not [12, 7]")
        if self.outputs is None:
            return failures + ["no op produced an output"]
        rows = np.random.default_rng(self.seed).choice(self.size.queries, self.size.ref_queries, replace=False)
        levels = [lvl.values for lvl in self.levels]
        tokens, ref = self.tokens.values[rows], self.ref.values[rows]
        for params, out in zip(self.params, self.outputs):
            expected = reference_msda(tokens, levels, ref, params)
            err = np.abs(out[rows] - expected).max() / max(1.0, np.abs(out).max())
            if not err <= REF_TOL:
                failures.append(f"{params.variant} differs from the reference by {err!r}")
        return failures


# --------------------------------------------------------------------------
# Reference deformable attention, written from the formulas in
# bevmap/attention.py's docstring, one head, level and point at a time
# --------------------------------------------------------------------------


def _reference_bilinear(grid: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """(C, h, w) grid at normalized (row, col) points; cell centres, zero outside."""
    c, h, w = grid.shape
    y = pts[:, 0] * h - 0.5
    x = pts[:, 1] * w - 0.5
    out = np.zeros((pts.shape[0], c))
    for yy in (np.floor(y), np.floor(y) + 1):
        for xx in (np.floor(x), np.floor(x) + 1):
            weight = (1.0 - np.abs(y - yy)) * (1.0 - np.abs(x - xx))
            inside = (yy >= 0) & (yy < h) & (xx >= 0) & (xx < w)
            vals = np.zeros((pts.shape[0], c))
            vals[inside] = grid[:, yy[inside].astype(int), xx[inside].astype(int)].T
            out += weight[:, None] * vals
    return out


def _reference_stage(tokens, levels, ref, stage) -> np.ndarray:
    nh, m, n, c = stage.num_heads, stage.num_levels, stage.num_points, stage.channels
    t = tokens.shape[0]
    off = (tokens @ stage.off_w.values + stage.off_b.values).reshape(t, nh, m, n, 2)
    logits = (tokens @ stage.atn_w.values + stage.atn_b.values).reshape(t, nh, m * n)
    weights = np.exp(logits - logits.max(axis=-1, keepdims=True))
    weights = (weights / weights.sum(axis=-1, keepdims=True)).reshape(t, nh, m, n)
    out = np.zeros((t, c))
    for head in range(nh):
        acc = np.zeros((t, c // nh))
        for lvl in range(m):
            grid = levels[lvl]
            cell = np.array([1.0 / grid.shape[1], 1.0 / grid.shape[2]])
            for p in range(n):
                sampled = _reference_bilinear(grid, ref + off[:, head, lvl, p] * cell)
                acc += weights[:, head, lvl, p, None] * (sampled @ stage.val_w.values[head])
        out += acc @ stage.out_w.values[head]
    return out


def reference_msda(tokens, levels, ref, params) -> np.ndarray:
    """Vanilla or scale-then-sample attention for a few query rows."""
    if params.variant == attention.VARIANT_VANILLA:
        return _reference_stage(tokens, levels, ref, params.stage)
    if params.variant != attention.VARIANT_SCALE_THEN_SAMPLE:
        raise ValueError(f"no reference for {params.variant!r}")
    q1 = _reference_stage(tokens, levels, ref, params.stage_ms) @ params.lin1_w.values + params.lin1_b.values
    sampled = _reference_stage(q1, levels[:1], ref, params.stage_sp)
    return q1 + sampled @ params.lin2_w.values + params.lin2_b.values


WORKLOADS = {w.name: w for w in (TrainWorkload, EvalWorkload, AttnWorkload)}
