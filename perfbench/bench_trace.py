"""Span tracing of bevmap from outside the package, and the per-layer metrics.

`instrument(tracer)` replaces public functions of bevmap's modules with
wrappers that record one span per call.  Each name is patched where the
caller looks it up (`bevmap.decoder.msda`, not only `bevmap.attention.msda`),
so calls made inside the package are seen too.  A span is
`[name, start, end, parent, op, info]`: `parent` is the index of the
enclosing span, `op` is the op number, or "setup" / "close" for the set-up
and the closing evaluation, and `info` holds counts taken at the boundary.
Spans stay in memory until the run ends.

A span's self time is its duration minus the durations of its direct
children.  Spans nest strictly (one thread, wrappers close in `finally`), so
the self times of the spans inside an op add up to the op's duration.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager


class Tracer:
    """In-memory span recorder; records only while `active` is true."""

    def __init__(self):
        self.spans: list[list] = []
        self.active = False
        self.op = None
        self._stack: list[int] = []

    def open(self, name: str, info: dict | None = None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op, info])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.spans[idx][0]!r} closed out of order")

    def begin_op(self, op, name: str = "bench.op") -> None:
        if self._stack:
            raise RuntimeError("an op began while another span was open")
        self.op = op
        self.active = True
        self.open(name)

    def end_op(self) -> None:
        self.close(self._stack[0])
        self.active = False
        self.op = None

    @contextmanager
    def phase(self, op):
        """Record everything inside the block under one phase label."""
        self.op, self.active = op, True
        try:
            yield
        finally:
            self.op, self.active = None, False


# --------------------------------------------------------------------------
# What is wrapped
# --------------------------------------------------------------------------


def _note_msda(info, args, result):
    info["variant"] = args[3].variant
    info["reads"] = result.sample_count


def _note_bilinear(info, args, result):
    grid, pts = args[0], args[1]
    # computed, not measured: 4 corners x K points x C channels x 8 bytes
    info["bytes"] = 4 * pts.shape[0] * grid.shape[0] * 8


def _note_backward(info, args, result):
    info["tape_nodes"] = len(args[0])


def _note_fit(info, args, result):
    info["iterations"] = result.iterations


# (module, attribute, span name, note). One function may be patched under
# several modules; each entry is the place a caller looks the name up.
PATCHES = [
    ("bevmap.synth", "generate_scene", "synth.generate_scene", None),
    ("bevmap.synth", "resample", "geometry.resample", None),
    ("bevmap.synth", "render_bev", "synth.render_bev", None),
    ("bevmap.training", "render_bev", "synth.render_bev", None),
    ("bevmap.training", "rasterize_instances", "synth.rasterize_instances", None),
    ("bevmap.priors", "fit_clusters", "priors.fit_clusters", _note_fit),
    ("bevmap.training", "build_dataset", "training.build_dataset", None),
    ("bevmap.training", "project_pyramid", "training.project_pyramid", None),
    ("bevmap.training", "forward", "decoder.forward", None),
    ("bevmap.decoder", "forward", "decoder.forward", None),
    ("bevmap.decoder", "decoder_layer", "decoder.decoder_layer", None),
    ("bevmap.decoder", "msda", "attention.msda", _note_msda),
    ("bevmap.attention", "msda", "attention.msda", _note_msda),
    ("bevmap.tensorad", "bilinear_sample", "tensorad.bilinear_sample", _note_bilinear),
    ("bevmap.tensorad", "matmul", "tensorad.matmul", None),
    ("bevmap.tensorad", "backward", "tensorad.backward", _note_backward),
    ("bevmap.training", "total_loss", "losses.total_loss", None),
    ("bevmap.losses", "discriminative_loss", "losses.discriminative_loss", None),
    ("bevmap.losses", "match_layer", "matching.match_layer", None),
    ("bevmap.matching", "hungarian", "matching.hungarian", None),
    ("bevmap.matching", "linear_sum_assignment", "matching.linear_sum_assignment", None),
    ("bevmap.evaluate", "predictions_from_output", "evaluate.predictions_from_output", None),
    ("bevmap.evaluate", "evaluate", "evaluate.evaluate", None),
    ("bevmap.evaluate", "chamfer", "geometry.chamfer", None),
]


def _wrap(fn, name, tracer, note):
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        info = {} if note else None
        idx = tracer.open(name, info)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if note:
            note(info, args, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


@contextmanager
def instrument(tracer: Tracer):
    """Patch every entry of PATCHES for the duration of the block."""
    saved = []
    try:
        for module_name, attr, name, note in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, _wrap(original, name, tracer, note))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# --------------------------------------------------------------------------
# Per-layer metrics
# --------------------------------------------------------------------------

OP_SPANS = ("bench.op", "training.step")

# name, unit, better, phase it is taken from, and what it should move.
# "op" values are per traced op, "setup" values per set-up, "scene" values
# per scene taken through the closing evaluation.
PER_LAYER = [
    ("synth.generate_scene.ms", "ms", "lower", "setup", "setup_s on train and eval"),
    ("synth.render_bev.ms", "ms", "lower", "op", "op_ms_p50 and ops_per_s on eval"),
    ("synth.render_bev.setup_ms", "ms", "lower", "setup", "setup_s on train"),
    ("synth.rasterize_instances.ms", "ms", "lower", "setup", "setup_s on train"),
    ("geometry.resample.calls", "count", "lower", "setup", "setup_s on train and eval"),
    ("geometry.resample.ms", "ms", "lower", "setup", "setup_s on train and eval"),
    ("geometry.chamfer.calls", "count", "lower", "scene", "ops_per_s on eval, through the closing AP"),
    ("geometry.chamfer.ms", "ms", "lower", "scene", "ops_per_s on eval, through the closing AP"),
    ("priors.fit_clusters.ms", "ms", "lower", "setup", "setup_s on train and eval"),
    ("priors.fit_clusters.iterations", "count", "lower", "setup", "setup_s on train and eval"),
    ("training.build_dataset.ms", "ms", "lower", "setup", "setup_s on train"),
    ("training.project_pyramid.ms", "ms", "lower", "op", "op_ms_p50 on train and eval"),
    ("training.step_other.ms", "ms", "lower", "op", "op_ms_p50 on train"),
    ("decoder.forward.ms", "ms", "lower", "op", "op_ms_p50 on train and eval"),
    ("decoder.decoder_layer.ms", "ms", "lower", "op", "op_ms_p50 on train and eval"),
    ("decoder.decoder_layer.self_ms", "ms", "lower", "op", "op_ms_p50 on train and eval"),
    ("attention.msda.ms", "ms", "lower", "op", "op_ms_p50 on train, eval and attn"),
    ("attention.msda.calls", "count", "lower", "op", "op_ms_p50 on train, eval and attn"),
    ("attention.vanilla.ms", "ms", "lower", "op", "op_ms_p50 on attn"),
    ("attention.dmd_scale_then_sample.ms", "ms", "lower", "op", "op_ms_p50 on attn, train and eval"),
    ("attention.vanilla.reads_per_query", "count", "lower", "op", "a count; 12 on attn"),
    ("attention.dmd_scale_then_sample.reads_per_query", "count", "lower", "op", "a count; 7 on attn, 6 on train and eval"),
    ("attention.bytes_gathered", "B-computed", "lower", "op", "op_ms_p50 on attn, train and eval"),
    ("attention.vanilla_over_dmd", "ratio", "higher", "op", "op_ms_p50 on attn; compare with 12/7"),
    ("tensorad.backward.ms", "ms", "lower", "op", "op_ms_p50 on train; 0 on eval and attn"),
    ("tensorad.tape_nodes", "count", "lower", "op", "op_ms_p50 and peak_rss_mb on train"),
    ("tensorad.bilinear_sample.ms", "ms", "lower", "op", "op_ms_p50 on train, eval and attn"),
    ("tensorad.bilinear_sample.calls", "count", "lower", "op", "op_ms_p50 on train, eval and attn"),
    ("tensorad.matmul.ms", "ms", "lower", "op", "op_ms_p50 on train, eval and attn"),
    ("tensorad.matmul.calls", "count", "lower", "op", "op_ms_p50 on train, eval and attn"),
    ("matching.match_layer.ms", "ms", "lower", "op", "op_ms_p50 on train"),
    ("matching.hungarian.ms", "ms", "lower", "op", "op_ms_p50 on train"),
    ("matching.lsa_calls", "count", "lower", "op", "op_ms_p50 on train"),
    ("matching.lsa_useful_ratio", "ratio", "higher", "op", "op_ms_p50 on train"),
    ("losses.total_loss.self_ms", "ms", "lower", "op", "op_ms_p50 on train"),
    ("losses.discriminative_loss.ms", "ms", "lower", "op", "op_ms_p50 on train"),
    ("evaluate.evaluate.ms", "ms", "lower", "scene", "ops_per_s on eval"),
    ("evaluate.predictions_from_output.ms", "ms", "lower", "op", "op_ms_p50 on eval"),
    ("training.loss_final", "loss", "lower", "run", "guard on train: changes only if the arithmetic changes"),
    ("matching.u_t_final", "ratio", "lower", "run", "guard on train: changes only if the arithmetic changes"),
    ("trace.op_self_share", "ratio", "lower", "op", "nothing; op time in no traced layer (on train that is step_other)"),
    ("trace.overhead_ratio", "ratio", "lower", "op", "nothing; median of traced op over the untraced op before it, minus 1"),
]


def self_times(spans: list[list]) -> list[float]:
    covered = [0.0] * len(spans)
    for span in spans:
        if span[3] is not None:
            covered[span[3]] += span[2] - span[1]
    return [s[2] - s[1] - c for s, c in zip(spans, covered)]


def layer_metrics(spans: list[list], scenes_evaluated: int, extra: dict) -> dict[str, float]:
    """Per-layer values from the spans; `extra` supplies the train guards
    and the tracing overhead, measured outside the spans."""
    selfs = self_times(spans)
    ops = {s[4] for s in spans if isinstance(s[4], int)}
    per_op = 1.0 / max(len(ops), 1)
    per_scene = 1.0 / max(scenes_evaluated, 1)

    def phase_of(span):
        return "op" if isinstance(span[4], int) else span[4]

    def total(name, phase, what="ms", variant=None):
        out = 0.0
        for span in spans:
            if span[0] != name or phase_of(span) != phase:
                continue
            if variant is not None and span[5]["variant"] != variant:
                continue
            if what == "ms":
                out += (span[2] - span[1]) * 1000.0
            elif what == "calls":
                out += 1
            else:
                out += span[5][what]
        return out

    def ms_minus_children(name, child):
        """Time in `name` spans minus their direct `child` spans, per op."""
        out = total(name, "op")
        for span in spans:
            if span[0] == child and phase_of(span) == "op" and spans[span[3]][0] == name:
                out -= (span[2] - span[1]) * 1000.0
        return out * per_op

    def reads(variant):
        counts = [s[5]["reads"] for s in spans if s[0] == "attention.msda" and s[5]["variant"] == variant]
        return float(max(counts)) if counts else 0.0

    op_total = sum(s[2] - s[1] for s in spans if s[3] is None and s[0] in OP_SPANS)
    op_self = sum(t for s, t in zip(spans, selfs) if s[3] is None and s[0] == "bench.op")
    step_self = sum(t for s, t in zip(spans, selfs) if s[3] is None and s[0] == "training.step")
    vanilla_ms = total("attention.msda", "op", variant="vanilla")
    dmd_ms = total("attention.msda", "op", variant="dmd_scale_then_sample")
    lsa = total("matching.linear_sum_assignment", "op", "calls")
    values = {
        "synth.generate_scene.ms": total("synth.generate_scene", "setup"),
        "synth.render_bev.ms": total("synth.render_bev", "op") * per_op,
        "synth.render_bev.setup_ms": total("synth.render_bev", "setup"),
        "synth.rasterize_instances.ms": total("synth.rasterize_instances", "setup"),
        "geometry.resample.calls": total("geometry.resample", "setup", "calls"),
        "geometry.resample.ms": total("geometry.resample", "setup"),
        "geometry.chamfer.calls": total("geometry.chamfer", "close", "calls") * per_scene,
        "geometry.chamfer.ms": total("geometry.chamfer", "close") * per_scene,
        "priors.fit_clusters.ms": total("priors.fit_clusters", "setup"),
        "priors.fit_clusters.iterations": total("priors.fit_clusters", "setup", "iterations"),
        "training.build_dataset.ms": total("training.build_dataset", "setup"),
        "training.project_pyramid.ms": total("training.project_pyramid", "op") * per_op,
        "training.step_other.ms": step_self * 1000.0 * per_op,
        "decoder.forward.ms": total("decoder.forward", "op") * per_op,
        "decoder.decoder_layer.ms": total("decoder.decoder_layer", "op") * per_op,
        "decoder.decoder_layer.self_ms": ms_minus_children("decoder.decoder_layer", "attention.msda"),
        "attention.msda.ms": total("attention.msda", "op") * per_op,
        "attention.msda.calls": total("attention.msda", "op", "calls") * per_op,
        "attention.vanilla.ms": vanilla_ms * per_op,
        "attention.dmd_scale_then_sample.ms": dmd_ms * per_op,
        "attention.vanilla.reads_per_query": reads("vanilla"),
        "attention.dmd_scale_then_sample.reads_per_query": reads("dmd_scale_then_sample"),
        "attention.bytes_gathered": total("tensorad.bilinear_sample", "op", "bytes") * per_op,
        "attention.vanilla_over_dmd": vanilla_ms / dmd_ms if vanilla_ms and dmd_ms else 0.0,
        "tensorad.backward.ms": total("tensorad.backward", "op") * per_op,
        "tensorad.tape_nodes": total("tensorad.backward", "op", "tape_nodes") * per_op,
        "tensorad.bilinear_sample.ms": total("tensorad.bilinear_sample", "op") * per_op,
        "tensorad.bilinear_sample.calls": total("tensorad.bilinear_sample", "op", "calls") * per_op,
        "tensorad.matmul.ms": total("tensorad.matmul", "op") * per_op,
        "tensorad.matmul.calls": total("tensorad.matmul", "op", "calls") * per_op,
        "matching.match_layer.ms": total("matching.match_layer", "op") * per_op,
        "matching.hungarian.ms": total("matching.hungarian", "op") * per_op,
        "matching.lsa_calls": lsa * per_op,
        "matching.lsa_useful_ratio": total("matching.hungarian", "op", "calls") / lsa if lsa else 0.0,
        "losses.total_loss.self_ms": ms_minus_children("losses.total_loss", "matching.match_layer"),
        "losses.discriminative_loss.ms": total("losses.discriminative_loss", "op") * per_op,
        "evaluate.evaluate.ms": total("evaluate.evaluate", "close") * per_scene,
        "evaluate.predictions_from_output.ms": total("evaluate.predictions_from_output", "op") * per_op,
        "training.loss_final": extra.get("loss_final", 0.0),
        "matching.u_t_final": extra.get("u_t_final", 0.0),
        "trace.op_self_share": op_self / op_total if op_total else 0.0,
        "trace.overhead_ratio": extra.get("overhead", 0.0),
    }
    return {name: values[name] for name, *_ in PER_LAYER}
