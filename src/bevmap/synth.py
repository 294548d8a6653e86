"""Procedural scenes and synthetic BEV feature pyramids.

Stands in for the camera-to-BEV pipeline: feature maps are seeded random
projections of per-class truncated distance transforms, so cross-attention
sees a dense signal that actually correlates with element geometry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    BevExtent,
    CLASS_BOUNDARY,
    CLASS_DIVIDER,
    CLASS_PED_CROSSING,
    KIND_POLYGON,
    KIND_POLYLINE,
    MapElement,
    Scene,
    resample,
)
from .rngutil import substream


class GenerationError(ValueError):
    """The scene configuration cannot be realized inside its extent."""


@dataclass
class SceneConfig:
    """Knobs for the procedural scene generator.

    With divider_lanes > 0, divider base positions snap to that many evenly
    spaced lateral lane centers (plus lane_jitter); crossing_slots does the
    same for crossing centers along the longitudinal axis.  Snapping gives
    the element distribution the discrete structure real road layouts have,
    which is what makes clustered priors informative.
    """

    extent: BevExtent = field(default_factory=BevExtent)
    n_points: int = 20
    divider_count: tuple[int, int] = (2, 4)
    crossing_count: tuple[int, int] = (1, 2)
    boundary_count: tuple[int, int] = (1, 2)
    divider_curvature: tuple[float, float] = (0.0, 0.004)  # 1/m
    divider_span: tuple[float, float] = (1.0, 1.0)  # fraction of the x range
    divider_lanes: int = 0
    lane_jitter: float = 0.3  # m
    crossing_size: tuple[float, float] = (4.0, 8.0)  # m
    crossing_slots: int = 0
    slot_jitter: float = 1.0  # m
    boundary_margin: float = 1.5  # m
    noise_sd: float = 0.1  # m

    def __post_init__(self):
        if self.n_points < 2:
            raise GenerationError(f"n_points must be >= 2, got {self.n_points}")
        for name in ("divider_count", "crossing_count", "boundary_count"):
            lo, hi = getattr(self, name)
            if lo < 0 or hi < lo:
                raise GenerationError(f"{name} range ({lo}, {hi}) invalid")
        for name in ("lane_jitter", "slot_jitter", "boundary_margin", "noise_sd"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise GenerationError(f"{name} must be a finite number >= 0, got {value!r}")
        lo, hi = self.crossing_size
        if not 0 < lo <= hi < math.inf:
            raise GenerationError(f"crossing_size range {self.crossing_size} invalid")
        lo, hi = self.divider_curvature
        if not -math.inf < lo <= hi < math.inf:
            raise GenerationError(f"divider_curvature range {self.divider_curvature} invalid")
        lo, hi = self.divider_span
        if not (0.1 <= lo <= hi <= 1.0):
            raise GenerationError(f"divider_span range {self.divider_span} invalid")


@dataclass
class FeaturePyramid:
    """Multi-scale dense BEV grids; level l is shaped C x ceil(H/2^l) x ceil(W/2^l)."""

    levels: list[np.ndarray]
    extent: BevExtent

    @property
    def num_levels(self) -> int:
        return len(self.levels)

    @property
    def channels(self) -> int:
        return int(self.levels[0].shape[0])


@dataclass
class InstanceMask:
    """H x W grid of instance ids; 0 is background, k the k-th scene element."""

    ids: np.ndarray
    count: int


# --------------------------------------------------------------------------
# Scene generation
# --------------------------------------------------------------------------


def generate_scene(cfg: SceneConfig, seed: int) -> Scene:
    """Deterministic synthetic scene: smooth dividers, rectangular crossings,
    margin-hugging boundaries; every element resampled to cfg.n_points and
    jittered by cfg.noise_sd, then clamped to the extent."""
    rng = substream(seed, "scene")
    ext = cfg.extent
    elements: list[MapElement] = []

    n_div = int(rng.integers(cfg.divider_count[0], cfg.divider_count[1] + 1))
    n_cross = int(rng.integers(cfg.crossing_count[0], cfg.crossing_count[1] + 1))
    n_bound = int(rng.integers(cfg.boundary_count[0], cfg.boundary_count[1] + 1))

    inner = cfg.boundary_margin + 1.0
    lane_lo, lane_hi = ext.y_min + inner, ext.y_max - inner
    for _ in range(n_div):
        if cfg.divider_lanes > 0:
            centers = np.linspace(lane_lo, lane_hi, cfg.divider_lanes)
            y0 = float(centers[rng.integers(cfg.divider_lanes)]) + rng.normal(0.0, cfg.lane_jitter)
        else:
            y0 = rng.uniform(lane_lo, lane_hi)
        slope = rng.uniform(-0.05, 0.05)
        curv = rng.uniform(*cfg.divider_curvature) * rng.choice([-1.0, 1.0])
        frac = rng.uniform(*cfg.divider_span)
        span = frac * ext.x_span
        x_start = ext.x_min if frac >= 1.0 else rng.uniform(ext.x_min, ext.x_max - span)
        xs = np.linspace(x_start, x_start + span, 64)
        xc = xs.mean()
        ys = y0 + slope * (xs - xc) + 0.5 * curv * (xs - xc) ** 2
        ys = np.clip(ys, ext.y_min, ext.y_max)
        pts = resample(np.stack([xs, ys], axis=1), cfg.n_points, closed=False)
        elements.append(MapElement(CLASS_DIVIDER, KIND_POLYLINE, pts))

    for _ in range(n_cross):
        sx = rng.uniform(*cfg.crossing_size)
        sy = rng.uniform(*cfg.crossing_size)
        half_diag = 0.5 * float(np.hypot(sx, sy))
        if 2 * half_diag >= min(ext.x_span, ext.y_span):
            raise GenerationError(
                f"crossing of size {sx:.1f}x{sy:.1f} m does not fit extent "
                f"{ext.x_span:.1f}x{ext.y_span:.1f} m"
            )
        if cfg.crossing_slots > 0:
            slots = np.linspace(ext.x_min + half_diag, ext.x_max - half_diag, cfg.crossing_slots)
            cx = float(slots[rng.integers(cfg.crossing_slots)]) + rng.normal(0.0, cfg.slot_jitter)
            cx = float(np.clip(cx, ext.x_min + half_diag, ext.x_max - half_diag))
        else:
            cx = rng.uniform(ext.x_min + half_diag, ext.x_max - half_diag)
        cy = rng.uniform(ext.y_min + half_diag, ext.y_max - half_diag)
        theta = rng.uniform(-np.pi / 12, np.pi / 12)
        c, s = np.cos(theta), np.sin(theta)
        rot = np.array([[c, -s], [s, c]])
        corners = np.array(
            [[-sx / 2, -sy / 2], [sx / 2, -sy / 2], [sx / 2, sy / 2], [-sx / 2, sy / 2]]
        ) @ rot.T + np.array([cx, cy])
        pts = resample(corners, cfg.n_points, closed=True)
        elements.append(MapElement(CLASS_PED_CROSSING, KIND_POLYGON, pts))

    for i in range(n_bound):
        side = i % 2  # alternate low-y / high-y margins
        offset = cfg.boundary_margin * (1.0 + 0.8 * (i // 2))
        base = ext.y_min + offset if side == 0 else ext.y_max - offset
        xs = np.linspace(ext.x_min, ext.x_max, 64)
        phase = rng.uniform(0, 2 * np.pi)
        wobble = rng.uniform(0.0, cfg.boundary_margin / 3.0)
        ys = np.clip(base + wobble * np.sin(2 * np.pi * xs / ext.x_span + phase), ext.y_min, ext.y_max)
        pts = resample(np.stack([xs, ys], axis=1), cfg.n_points, closed=False)
        elements.append(MapElement(CLASS_BOUNDARY, KIND_POLYLINE, pts))

    if cfg.noise_sd > 0:
        for e in elements:
            e.points = e.points + rng.normal(0.0, cfg.noise_sd, e.points.shape)
    for e in elements:
        e.points[:, 0] = np.clip(e.points[:, 0], ext.x_min, ext.x_max)
        e.points[:, 1] = np.clip(e.points[:, 1], ext.y_min, ext.y_max)
    return Scene(ext, elements, seed)


# --------------------------------------------------------------------------
# Distance-transform features
# --------------------------------------------------------------------------


def _cell_centers(extent: BevExtent) -> tuple[np.ndarray, np.ndarray]:
    dx, dy = extent.cell_size
    xs = extent.x_min + (np.arange(extent.h) + 0.5) * dx
    ys = extent.y_min + (np.arange(extent.w) + 0.5) * dy
    return xs, ys


def _segments_of(element: MapElement) -> np.ndarray:
    pts = element.points
    if element.kind == KIND_POLYGON:
        nxt = np.roll(pts, -1, axis=0)
    else:
        nxt = pts[1:]
        pts = pts[:-1]
    return np.stack([pts, nxt], axis=1)  # (n_seg, 2, 2)


def _min_dist_to_segments(px: np.ndarray, py: np.ndarray, segments: np.ndarray) -> np.ndarray:
    """Min distance from each grid cell center to any segment; px (H,), py (W,)."""
    h, w = px.size, py.size
    if segments.shape[0] == 0:
        return np.full((h, w), np.inf)
    p = np.stack(np.meshgrid(px, py, indexing="ij"), axis=-1).reshape(-1, 2)  # (HW, 2)
    a = segments[:, 0]  # (S, 2)
    b = segments[:, 1]
    ab = b - a
    denom = (ab * ab).sum(axis=1)
    denom = np.where(denom > 0, denom, 1.0)
    # t = clamp(<p-a, ab> / |ab|^2): (HW, S)
    t = ((p[:, None, :] - a[None, :, :]) * ab[None, :, :]).sum(axis=2) / denom[None, :]
    t = np.clip(t, 0.0, 1.0)
    proj = a[None, :, :] + t[:, :, None] * ab[None, :, :]
    d = np.linalg.norm(p[:, None, :] - proj, axis=2)
    return d.min(axis=1).reshape(h, w)


_TILE = 16  # cells per side of a distance tile


def class_distance_channels(scene: Scene, truncation: float = 3.0) -> np.ndarray:
    """Per-class truncated distance transform channels, shape (3, H, W).

    Computed per `_TILE` x `_TILE` block of cells over only the segments that can
    come within `truncation` of the block; byte-equal to clipping
    `_min_dist_to_segments` over every segment of the class."""
    xs, ys = _cell_centers(scene.extent)
    out = np.full((3, xs.size, ys.size), truncation, dtype=np.float64)
    for c, class_id in enumerate((CLASS_DIVIDER, CLASS_PED_CROSSING, CLASS_BOUNDARY)):
        segs = [_segments_of(e) for e in scene.elements if e.class_id == class_id]
        if not segs:
            continue
        seg = np.concatenate(segs, axis=0)
        lo, hi = seg.min(axis=1), seg.max(axis=1)  # (S, 2) bounding boxes
        # Culling is exact.  A culled segment's box is more than r from every
        # cell centre of the tile, so its true distance exceeds truncation +
        # pad; pad (1e-9 of the largest coordinate) dwarfs the rounding of the
        # computed distance, which therefore stays >= truncation and cannot
        # change the clipped minimum.  Kept segments go through the same float
        # ops as in the dense call, and a minimum over a subset holding the
        # nearest segment is the same float.
        pad = 1e-9 * max(np.abs(xs).max(), np.abs(ys).max(), np.abs(seg).max())
        r = truncation + pad
        for i in range(0, xs.size, _TILE):
            px = xs[i : i + _TILE]
            near_x = (lo[:, 0] <= px[-1] + r) & (hi[:, 0] >= px[0] - r)
            for j in range(0, ys.size, _TILE):
                py = ys[j : j + _TILE]
                keep = near_x & (lo[:, 1] <= py[-1] + r) & (hi[:, 1] >= py[0] - r)
                if keep.any():
                    d = _min_dist_to_segments(px, py, seg[keep])
                    out[c, i : i + _TILE, j : j + _TILE] = np.minimum(d, truncation)
    return out


def average_pool2(a: np.ndarray) -> np.ndarray:
    """2x2 average pooling over the trailing two axes, ceiling partial blocks."""
    c, h, w = a.shape
    ho, wo = (h + 1) // 2, (w + 1) // 2
    out = np.zeros((c, ho, wo))
    counts = np.zeros((ho, wo))
    for di in range(2):
        for dj in range(2):
            block = a[:, di::2, dj::2]
            out[:, : block.shape[1], : block.shape[2]] += block
            counts[: block.shape[1], : block.shape[2]] += 1.0
    return out / counts


def render_bev(
    scene: Scene,
    channels: int,
    num_levels: int,
    seed: int,
    truncation: float = 3.0,
    noise_sd: float = 0.01,
) -> FeaturePyramid:
    """Feature pyramid from distance-transform channels plus a bias channel,
    mapped to `channels` dims with a seed-derived random projection and noise."""
    if channels < 4:
        raise GenerationError(f"render_bev: channels must be >= 4, got {channels}")
    if num_levels < 1:
        raise GenerationError(f"render_bev: num_levels must be >= 1, got {num_levels}")
    rng = substream(seed, "render")
    base = np.concatenate(
        [class_distance_channels(scene, truncation), np.ones((1, scene.extent.h, scene.extent.w))]
    )  # (4, H, W)
    proj = rng.normal(0.0, 0.5, (channels, 4))
    level0 = np.einsum("cf,fhw->chw", proj, base)
    level0 = level0 + rng.normal(0.0, noise_sd, level0.shape)
    levels = [level0]
    for _ in range(1, num_levels):
        levels.append(average_pool2(levels[-1]))
    return FeaturePyramid(levels, scene.extent)


# --------------------------------------------------------------------------
# Instance rasterization
# --------------------------------------------------------------------------


def _cell_index(extent: BevExtent, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    dx, dy = extent.cell_size
    i = np.clip(((pts[:, 0] - extent.x_min) / dx).astype(np.int64), 0, extent.h - 1)
    j = np.clip(((pts[:, 1] - extent.y_min) / dy).astype(np.int64), 0, extent.w - 1)
    return i, j


def _mark_polyline(ids: np.ndarray, extent: BevExtent, pts: np.ndarray, value: int) -> None:
    dx, dy = extent.cell_size
    step = 0.5 * min(dx, dy)
    for a, b in zip(pts[:-1], pts[1:]):
        length = float(np.linalg.norm(b - a))
        n = max(2, int(np.ceil(length / step)) + 1)
        t = np.linspace(0.0, 1.0, n)
        samples = a[None, :] + t[:, None] * (b - a)[None, :]
        i, j = _cell_index(extent, samples)
        ids[i, j] = value


def _points_in_polygon(px: np.ndarray, py: np.ndarray, poly: np.ndarray) -> np.ndarray:
    """Even-odd rule for grid cell centers; px (H,), py (W,) -> (H, W) bool."""
    gx, gy = np.meshgrid(px, py, indexing="ij")
    inside = np.zeros(gx.shape, dtype=bool)
    n = poly.shape[0]
    for k in range(n):
        x1, y1 = poly[k]
        x2, y2 = poly[(k + 1) % n]
        crosses = (y1 > gy) != (y2 > gy)
        with np.errstate(divide="ignore", invalid="ignore"):
            x_at = x1 + (gy - y1) * (x2 - x1) / (y2 - y1)
        inside ^= crosses & (gx < x_at)
    return inside


def rasterize_instances(scene: Scene, extent: BevExtent | None = None) -> InstanceMask:
    """Rasterize elements to an instance-id grid; later elements overwrite earlier."""
    ext = extent or scene.extent
    ids = np.zeros((ext.h, ext.w), dtype=np.int64)
    xs, ys = _cell_centers(ext)
    for k, e in enumerate(scene.elements, start=1):
        if e.kind == KIND_POLYGON:
            ids[_points_in_polygon(xs, ys, e.points)] = k
            ring = np.concatenate([e.points, e.points[:1]], axis=0)
            _mark_polyline(ids, ext, ring, k)
        else:
            _mark_polyline(ids, ext, e.points, k)
    return InstanceMask(ids, len(scene.elements))
