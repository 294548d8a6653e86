"""Vectorized map elements: resampling, equivalent orderings, Chamfer, normalization.

Coordinates are meters in the BEV vehicle frame (x longitudinal, y lateral).
Normalized coordinates map the scene extent onto the unit square; grids are
indexed [i, j] with i along x (H cells) and j along y (W cells).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

CLASS_DIVIDER = 0
CLASS_PED_CROSSING = 1
CLASS_BOUNDARY = 2
CLASS_NAMES = {CLASS_DIVIDER: "divider", CLASS_PED_CROSSING: "ped_crossing", CLASS_BOUNDARY: "boundary"}

KIND_POLYLINE = "polyline"
KIND_POLYGON = "polygon"


class GeometryError(ValueError):
    """Contract violation in a geometric operation."""


class DegenerateGeometryError(GeometryError):
    """Input collapses to a point or has no usable extent."""


@dataclass(frozen=True)
class BevExtent:
    """Metric BEV range and its feature-grid resolution."""

    x_min: float = -30.0
    x_max: float = 30.0
    y_min: float = -15.0
    y_max: float = 15.0
    h: int = 200
    w: int = 100

    def __post_init__(self):
        if not (self.x_max > self.x_min and self.y_max > self.y_min):
            raise GeometryError(f"extent must have positive spans, got {self}")
        if self.h < 2 or self.w < 2:
            raise GeometryError(f"extent grid must be at least 2x2, got {self.h}x{self.w}")

    @property
    def x_span(self) -> float:
        return self.x_max - self.x_min

    @property
    def y_span(self) -> float:
        return self.y_max - self.y_min

    @property
    def cell_size(self) -> tuple[float, float]:
        return self.x_span / self.h, self.y_span / self.w

    def contains(self, points: np.ndarray, tol: float = 1e-9) -> bool:
        p = np.asarray(points, dtype=np.float64)
        return bool(
            (p[:, 0] >= self.x_min - tol).all()
            and (p[:, 0] <= self.x_max + tol).all()
            and (p[:, 1] >= self.y_min - tol).all()
            and (p[:, 1] <= self.y_max + tol).all()
        )


@dataclass
class MapElement:
    """One classed map element: an ordered fixed-length 2D point sequence.

    Polygons are stored open-ringed; the closing segment is implicit.
    """

    class_id: int
    kind: str
    points: np.ndarray

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64)
        if self.class_id not in CLASS_NAMES:
            raise GeometryError(f"unknown class_id {self.class_id}")
        if self.kind not in (KIND_POLYLINE, KIND_POLYGON):
            raise GeometryError(f"unknown kind {self.kind!r}")
        if self.points.ndim != 2 or self.points.shape[1] != 2 or self.points.shape[0] < 2:
            raise GeometryError(f"points must be N x 2 with N >= 2, got {self.points.shape}")

    @property
    def n_points(self) -> int:
        return int(self.points.shape[0])


@dataclass
class Scene:
    """A set of map elements over one extent, with seed provenance."""

    extent: BevExtent
    elements: list[MapElement] = field(default_factory=list)
    seed: int = 0

    def validate(self, n_points: int) -> None:
        for k, e in enumerate(self.elements):
            if not np.isfinite(e.points).all():
                raise GeometryError(f"element {k} has non-finite points")
            if e.n_points != n_points:
                raise GeometryError(f"element {k} has {e.n_points} points, expected {n_points}")
            if not self.extent.contains(e.points):
                raise GeometryError(f"element {k} has points outside the extent")


# --------------------------------------------------------------------------
# Resampling and orderings
# --------------------------------------------------------------------------


# Relative margin of the walk's plain-float "inside the chord circle" test;
# see `_walk_equal_chords` for the bound it has to meet.
_INSIDE_MARGIN = 1e-9


def _chain_steps(chain: np.ndarray) -> tuple[list, list, np.ndarray]:
    """Per-segment invariants of every walk along `chain`: for each segment
    a -> b its start, its step d = b - a (as plain floats, and as an array
    for the dot products) and d @ d; its end b with the pad mu * (d @ d) of
    the inside test; and the segment lengths."""
    ds = np.diff(chain, axis=0)
    qas = [float(d @ d) for d in ds]
    segs = [(*a, *dl, d, qa) for a, dl, d, qa in zip(chain.tolist(), ds.tolist(), ds, qas)]
    ends = [(b0, b1, _INSIDE_MARGIN * qa) for (b0, b1), qa in zip(chain[1:].tolist(), qas)]
    return segs, ends, np.linalg.norm(ds, axis=1)


def _walk_equal_chords(steps: tuple, hops: int, c: float):
    """Place `hops` points along a chain from its first vertex, each at
    Euclidean distance c from the previous one (first circle crossing);
    `steps` is `_chain_steps(chain)`.  Returns (points, leftover arc);
    leftover is negative when the chain ends before all hops are placed.

    A segment is tested exactly (the quadratic below, with numpy dots, whose
    BLAS kernel rounds differently from plain floats) unless the part of it
    still ahead provably lies inside the circle about the last point x; then
    the exact test would reject it, and it is skipped.  That needs both ends
    of the part inside by the margin mu = _INSIDE_MARGIN in plain floats:
    its end vertex b with |b - x|^2 + mu |d|^2 < c^2 (1 - mu), and its start
    either x itself (the walk start or a point just placed) or a vertex that
    passed this test on the previous segment.  After a segment is tested
    exactly, the next one is too, until a point is placed.  Why the exact
    test rejects a skipped segment, for the computed roots u1 <= u2 of
    |a + u d - x|^2 = c^2:

    * With L the chord of the segment's line in the circle, -f(1) =
      c^2 - |b - x|^2 = |d|^2 (1 - u1)(u2 - 1) and (1 - u1)|d| <= L <= 2c,
      so (u2 - 1)|d| >= mu (c^2 + |d|^2) / L and u2 - 1 >= mu: far above
      the 1e-12 by which the test accepts a root past the segment end.
    * With e = a - x, the computed u2 is off by about
      9 eps (|e| + c)^2 / (|d| L) (eps the float epsilon): the rounding of
      d @ d, e @ d and e @ e - c^2 over the root's slope |d| L.  |e| <= c
      when the start is a vertex inside the circle, |e| <= |d| when it is
      x on the segment, so the margin exceeds that error by at least
      mu / (36 eps) > 1e5.
    * The entry root u1 stays at or below the start by the same argument:
      a vertex start is inside by mu c^2, and x itself lies c / |d| past
      u1, against an error of about 9 eps (|d| / c)^2 c / |d|, which is
      below 1e-5 c / |d| because the test needs mu |d|^2 < c^2.

    So the points, the leftover and every bisection decision are those of
    the walk that tests each segment exactly.  Coordinates are plain floats
    wherever numpy rounds the same (elementwise + - *), and `e.dot(d)` is
    the BLAS ddot that `e @ d` calls, for half the call overhead."""
    segs, ends, seg_len = steps
    inside = c * c * (1.0 - _INSIDE_MARGIN)
    x0, x1 = segs[0][:2]
    pts = [(x0, x1)]
    seg_idx = 0
    seg_u = 0.0  # fraction already consumed of the current segment
    n_seg = len(segs)
    for _ in range(hops):
        ahead_inside = True  # the part ahead starts at x
        placed = False
        while seg_idx < n_seg:
            if ahead_inside:
                b0, b1, pad = ends[seg_idx]
                if (b0 - x0) ** 2 + (b1 - x1) ** 2 + pad < inside:
                    seg_idx += 1
                    seg_u = 0.0
                    continue
                ahead_inside = False
            a0, a1, d0, d1, d, qa = segs[seg_idx]
            # |a + u d - x|^2 = c^2 for u in (seg_u, 1]; the first root is the smaller
            e = np.array((a0 - x0, a1 - x1))
            qb = 2.0 * float(e.dot(d))
            qc = float(e.dot(e)) - c * c
            disc = qb * qb - 4.0 * qa * qc
            if qa > 0.0 and disc >= 0.0:
                sq = math.sqrt(disc)
                u = (-qb - sq) / (2 * qa)
                if not seg_u < u <= 1.0 + 1e-12:
                    u = (-qb + sq) / (2 * qa)
                if seg_u < u <= 1.0 + 1e-12:
                    seg_u = min(u, 1.0)
                    x0, x1 = a0 + seg_u * d0, a1 + seg_u * d1
                    pts.append((x0, x1))
                    placed = True
                    break
            seg_idx += 1
            seg_u = 0.0
        if not placed:
            return np.asarray(pts), -1.0
    # leftover arc from the last placed point to the chain end
    if seg_idx >= n_seg:
        leftover = 0.0
    else:
        leftover = (1.0 - seg_u) * seg_len[seg_idx] + float(seg_len[seg_idx + 1 :].sum())
    return np.asarray(pts), leftover


def resample(points: np.ndarray, n: int, closed: bool = False) -> np.ndarray:
    """Resample a chain to n points on it with uniform consecutive spacing.

    Output points lie on the input chain and are equidistant (equal chord
    length, solved by bisection), which makes the operation idempotent.
    Open chains keep their endpoints exactly; closed chains include the
    closing segment and omit the duplicate end point.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
        raise GeometryError(f"resample: need at least 2 points, got shape {pts.shape}")
    finite = np.isfinite(pts).all(axis=1)
    if not finite.all():
        raise GeometryError(f"resample: non-finite point at index {int(finite.argmin())}")
    if n < 2:
        raise GeometryError(f"resample: n must be >= 2, got {n}")
    chain = np.concatenate([pts, pts[:1]], axis=0) if closed else pts
    seg = np.linalg.norm(np.diff(chain, axis=0), axis=1)
    total = float(seg.sum())
    if total <= 0.0:
        raise DegenerateGeometryError("resample: all input points identical")
    chain = chain[np.concatenate([[True], seg > 0.0])]

    hops = n if closed else n - 1
    # chord <= arc per hop, so the equal-arc hop bounds the chord from above
    hi = total / hops
    lo = 0.0
    steps = _chain_steps(chain)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        _, leftover = _walk_equal_chords(steps, hops, mid)
        if leftover > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * total:
            break
    out, _ = _walk_equal_chords(steps, hops, 0.5 * (lo + hi))
    if out.shape[0] < hops + 1:
        out = np.concatenate([out, np.repeat(chain[-1:], hops + 1 - out.shape[0], axis=0)])
    if closed:
        out = out[:n]
    else:
        out[-1] = pts[-1]  # endpoints exact
    out[0] = pts[0]
    return out


def orderings_for(kind: str, n: int) -> np.ndarray:
    """All point-index permutations treated as the same element, identity first.

    Polylines: identity and full reversal.  Polygons: every cyclic shift in
    both directions (2n permutations).
    """
    idx = np.arange(n)
    if kind == KIND_POLYLINE:
        return np.stack([idx, idx[::-1]])
    if kind == KIND_POLYGON:
        fwd = [(idx + s) % n for s in range(n)]
        rev = [(s - idx) % n for s in range(n)]
        return np.stack(fwd + rev)
    raise GeometryError(f"unknown kind {kind!r}")


def equivalent_orderings(element: MapElement) -> np.ndarray:
    return orderings_for(element.kind, element.n_points)


# --------------------------------------------------------------------------
# Distances and coordinates
# --------------------------------------------------------------------------


def chamfer(a: np.ndarray, b: np.ndarray) -> float:
    """Symmetric Chamfer distance: half the sum of both mean nearest-neighbor distances."""
    pa = np.asarray(a, dtype=np.float64)
    pb = np.asarray(b, dtype=np.float64)
    if pa.size == 0 or pb.size == 0:
        raise GeometryError("chamfer: point sets must be non-empty")
    from scipy.spatial.distance import cdist  # scipy.spatial costs ~15 MB of RSS; loaded where it runs

    d = cdist(pa, pb)
    return 0.5 * (float(d.min(axis=1).mean()) + float(d.min(axis=0).mean()))


def normalize(points: np.ndarray, extent: BevExtent) -> np.ndarray:
    """Affine map from metric extent coordinates onto the unit square."""
    p = np.asarray(points, dtype=np.float64)
    if not extent.contains(p):
        bad = p[~((p[:, 0] >= extent.x_min) & (p[:, 0] <= extent.x_max)
                  & (p[:, 1] >= extent.y_min) & (p[:, 1] <= extent.y_max))]
        raise GeometryError(f"normalize: point outside extent, e.g. {bad[0].tolist() if len(bad) else p[0].tolist()}")
    out = np.empty_like(p)
    out[..., 0] = (p[..., 0] - extent.x_min) / extent.x_span
    out[..., 1] = (p[..., 1] - extent.y_min) / extent.y_span
    return out


def denormalize(points: np.ndarray, extent: BevExtent) -> np.ndarray:
    """Inverse of `normalize`; input must lie in the unit square."""
    p = np.asarray(points, dtype=np.float64)
    if p.size and ((p < -1e-9).any() or (p > 1.0 + 1e-9).any()):
        bad = p[(p[..., 0] < 0) | (p[..., 0] > 1) | (p[..., 1] < 0) | (p[..., 1] > 1)]
        raise GeometryError(f"denormalize: point outside unit square, e.g. {bad[0].tolist()}")
    out = np.empty_like(p)
    out[..., 0] = extent.x_min + p[..., 0] * extent.x_span
    out[..., 1] = extent.y_min + p[..., 1] * extent.y_span
    return out


# --------------------------------------------------------------------------
# Scene serialization
# --------------------------------------------------------------------------


def scene_to_dict(scene: Scene) -> dict:
    return {
        "extent": {
            "x_min": scene.extent.x_min,
            "x_max": scene.extent.x_max,
            "y_min": scene.extent.y_min,
            "y_max": scene.extent.y_max,
            "h": scene.extent.h,
            "w": scene.extent.w,
        },
        "elements": [
            {
                "class_id": e.class_id,
                "kind": e.kind,
                "points": [[float(x), float(y)] for x, y in e.points],
            }
            for e in scene.elements
        ],
        "seed": int(scene.seed),
    }


def scene_from_dict(doc: dict) -> Scene:
    ext = doc["extent"]
    extent = BevExtent(ext["x_min"], ext["x_max"], ext["y_min"], ext["y_max"], ext["h"], ext["w"])
    elements = [
        MapElement(el["class_id"], el["kind"], np.asarray(el["points"], dtype=np.float64))
        for el in doc["elements"]
    ]
    return Scene(extent, elements, int(doc["seed"]))


def save_scene(scene: Scene, path: str) -> None:
    with open(path, "w") as f:
        json.dump(scene_to_dict(scene), f)


def load_scene(path: str) -> Scene:
    with open(path) as f:
        return scene_from_dict(json.load(f))
