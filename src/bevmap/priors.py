"""Offline shape priors: permutation-invariant K-Means and cluster abstraction.

Elements are clustered in normalized extent coordinates as flattened 2*N_p
vectors.  The assignment distance is the minimum squared L2 over an element's
equivalent orderings, so a reversed polyline or a cyclically shifted polygon
lands in the same cluster as its canonical form.  The largest clusters are
abstracted to regular archetypes: a least-squares quadratic curve for
polylines, a minimum-area rotated rectangle for polygons.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    BevExtent,
    KIND_POLYGON,
    KIND_POLYLINE,
    DegenerateGeometryError,
    MapElement,
    normalize,
    orderings_for,
    resample,
)
from .rngutil import substream


class FitError(ValueError):
    """Clustering preconditions violated."""


class BankParseError(ValueError):
    """A prior-bank file could not be parsed."""


@dataclass
class Cluster:
    centroid: np.ndarray  # (N_p, 2) normalized
    member_count: int
    dominant_kind: str


@dataclass
class PriorShape:
    kind: str
    points: np.ndarray  # (N_p, 2) normalized


@dataclass
class PriorBank:
    priors: list[PriorShape]
    meta: dict = field(default_factory=dict)

    @property
    def n_pri(self) -> int:
        return len(self.priors)

    @property
    def n_p(self) -> int:
        return int(self.priors[0].points.shape[0]) if self.priors else 0


@dataclass
class KMeansFit:
    clusters: list[Cluster]
    labels: np.ndarray
    objective_history: list[float]
    iterations: int


# --------------------------------------------------------------------------
# Permutation-invariant Lloyd iterations
# --------------------------------------------------------------------------


def _ordering_variants(elements: list[MapElement], extent: BevExtent) -> np.ndarray:
    """All equivalent-ordering vectors per element, (n, max_ord, 2*N_p).

    Elements with fewer orderings pad by repeating the identity ordering,
    which never changes a minimum.
    """
    n_p = elements[0].n_points
    max_ord = max(orderings_for(e.kind, n_p).shape[0] for e in elements)
    out = np.empty((len(elements), max_ord, 2 * n_p))
    for i, e in enumerate(elements):
        if e.n_points != n_p:
            raise FitError(f"element {i} has {e.n_points} points, expected {n_p}")
        pts = normalize(e.points, extent)
        perms = orderings_for(e.kind, n_p)
        variants = pts[perms].reshape(perms.shape[0], -1)
        out[i, : variants.shape[0]] = variants
        out[i, variants.shape[0] :] = variants[0]
    return out


def _min_dists(variants: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per element/centroid: min squared distance over orderings, plus argmin ordering.

    Returns (dists (n, k), best_ord (n, k)).
    """
    # ||v||^2 + ||c||^2 - 2 v.c, all orderings at once
    v2 = (variants * variants).sum(axis=2)  # (n, o)
    c2 = (centroids * centroids).sum(axis=1)  # (k,)
    cross = np.einsum("nod,kd->nok", variants, centroids)
    d = v2[:, :, None] + c2[None, None, :] - 2.0 * cross  # (n, o, k)
    np.maximum(d, 0.0, out=d)
    best_ord = d.argmin(axis=1)  # (n, k)
    dists = d.min(axis=1)
    return dists, best_ord


def _kmeanspp_init(variants: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = variants.shape[0]
    first = int(rng.integers(n))
    centroids = [variants[first, 0].copy()]
    for _ in range(1, k):
        d, _ = _min_dists(variants, np.stack(centroids))
        closest = d.min(axis=1)
        total = float(closest.sum())
        if total <= 0:
            probs = np.full(n, 1.0 / n)
        else:
            probs = closest / total
        nxt = int(rng.choice(n, p=probs))
        centroids.append(variants[nxt, 0].copy())
    return np.stack(centroids)


def fit_clusters(
    elements: list[MapElement],
    extent: BevExtent,
    k: int,
    seed: int,
    max_iters: int = 100,
) -> KMeansFit:
    """Lloyd iterations with min-over-orderings assignment distance.

    The objective (sum of assignment distances) is non-increasing per
    iteration; terminates at an assignment fixpoint or max_iters.
    """
    if not elements:
        raise FitError("fit_clusters: no elements")
    if k < 1:
        raise FitError(f"fit_clusters: k must be >= 1, got {k}")
    if k > len(elements):
        raise FitError(f"fit_clusters: k={k} exceeds element count {len(elements)}")
    if max_iters < 1:
        raise FitError(f"fit_clusters: max_iters must be >= 1, got {max_iters}")
    rng = substream(seed, "kmeans")
    variants = _ordering_variants(elements, extent)
    centroids = _kmeanspp_init(variants, k, rng)

    labels = np.full(len(elements), -1, dtype=np.int64)
    history: list[float] = []
    iterations = 0
    for _ in range(max_iters):
        iterations += 1
        dists, best_ord = _min_dists(variants, centroids)
        new_labels = dists.argmin(axis=1)  # ties -> lowest cluster index
        history.append(float(dists.min(axis=1).sum()))
        if np.array_equal(new_labels, labels):
            labels = new_labels
            break
        labels = new_labels
        for c in range(k):
            members = np.flatnonzero(labels == c)
            if members.size == 0:
                continue  # keep previous centroid
            ords = best_ord[members, c]
            centroids[c] = variants[members, ords].mean(axis=0)

    n_p = elements[0].n_points
    clusters = []
    for c in range(k):
        members = np.flatnonzero(labels == c)
        polygons = sum(elements[i].kind == KIND_POLYGON for i in members)
        clusters.append(
            Cluster(
                centroid=centroids[c].reshape(n_p, 2).copy(),
                member_count=int(members.size),
                dominant_kind=KIND_POLYGON if polygons * 2 > members.size else KIND_POLYLINE,
            )
        )
    return KMeansFit(clusters, labels, history, iterations)


# --------------------------------------------------------------------------
# Abstraction to regular archetypes
# --------------------------------------------------------------------------


def fit_quadratic_curve(points: np.ndarray, n_out: int) -> np.ndarray:
    """Least-squares parametric quadratic through the chain, resampled by arc length."""
    n = points.shape[0]
    t = np.linspace(0.0, 1.0, n)
    basis = np.stack([np.ones(n), t, t * t], axis=1)
    coef, *_ = np.linalg.lstsq(basis, points, rcond=None)  # (3, 2)
    td = np.linspace(0.0, 1.0, 256)
    dense = np.stack([np.ones_like(td), td, td * td], axis=1) @ coef
    return resample(dense, n_out, closed=False)


def min_area_rect(points: np.ndarray) -> np.ndarray:
    """Corners (4, 2) of the minimum-area enclosing rotated rectangle.

    Corner order is canonical and stable under small point noise: CCW
    starting from the corner that sits at (-long/2, -short/2) in the
    rectangle's own frame, with the long-side direction sign-fixed to the
    upper half plane (ties toward +x).  A stable phase matters because the
    perimeter is later resampled starting from the first corner.
    """
    from scipy.spatial import ConvexHull, QhullError  # loaded where it runs, as in `chamfer`

    pts = np.asarray(points, dtype=np.float64)
    try:
        hull = pts[ConvexHull(pts).vertices]
    except (QhullError, ValueError):
        return _degenerate_rect(pts)
    edges = np.diff(np.concatenate([hull, hull[:1]]), axis=0)
    best = None
    for edge in edges:
        norm = float(np.hypot(*edge))
        if norm == 0.0:
            continue
        ux, uy = edge / norm
        rot = np.array([[ux, uy], [-uy, ux]])  # rotates edge onto +x
        local = hull @ rot.T
        lo = local.min(axis=0)
        hi = local.max(axis=0)
        area = float(np.prod(hi - lo))
        if best is None or area < best[0]:
            best = (area, rot, lo, hi)
    if best is None:
        return _degenerate_rect(pts)
    _, rot, lo, hi = best
    center = (0.5 * (lo + hi)) @ rot
    half = 0.5 * (hi - lo)
    axes = rot  # rows: box u (edge direction), box v
    if half[1] > half[0]:
        long_dir, short_dir = axes[1], axes[0]
        long_half, short_half = half[1], half[0]
    else:
        long_dir, short_dir = axes[0], axes[1]
        long_half, short_half = half[0], half[1]
    # canonical sign: long axis points into the upper half plane (+x on ties)
    if long_dir[1] < 0 or (long_dir[1] == 0 and long_dir[0] < 0):
        long_dir = -long_dir
    short_dir = np.array([-long_dir[1], long_dir[0]])  # +90 degrees, keeps CCW
    u = long_half * long_dir
    v = short_half * short_dir
    return np.stack([center - u - v, center + u - v, center + u + v, center - u + v])


def _degenerate_rect(pts: np.ndarray) -> np.ndarray:
    """Fallback for collinear inputs: a sliver rectangle along the principal axis."""
    center = pts.mean(axis=0)
    centered = pts - center
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    axis = vt[0]
    proj = centered @ axis
    lo, hi = float(proj.min()), float(proj.max())
    if hi - lo <= 0:
        raise DegenerateGeometryError("min_area_rect: all points identical")
    if axis[1] < 0 or (axis[1] == 0 and axis[0] < 0):
        axis = -axis
        lo, hi = -hi, -lo
    perp = np.array([-axis[1], axis[0]])
    eps = 1e-9 * (hi - lo)
    return np.stack(
        [
            center + lo * axis - eps * perp,
            center + hi * axis - eps * perp,
            center + hi * axis + eps * perp,
            center + lo * axis + eps * perp,
        ]
    )


def abstract(clusters: list[Cluster], n_pri: int, meta: dict | None = None) -> PriorBank:
    """Abstract the n_pri largest clusters into canonical prior shapes.

    Ordering is by descending member count (ties by cluster index).
    """
    if n_pri < 0:
        raise FitError(f"abstract: n_pri must be >= 0, got {n_pri}")
    if n_pri > len(clusters):
        raise FitError(f"abstract: n_pri={n_pri} exceeds cluster count {len(clusters)}")
    order = sorted(range(len(clusters)), key=lambda i: (-clusters[i].member_count, i))
    priors = []
    for i in order[:n_pri]:
        cluster = clusters[i]
        n_p = cluster.centroid.shape[0]
        if cluster.dominant_kind == KIND_POLYGON:
            corners = min_area_rect(cluster.centroid)
            shape = resample(corners, n_p, closed=True)
        else:
            shape = fit_quadratic_curve(cluster.centroid, n_p)
        priors.append(PriorShape(cluster.dominant_kind, np.clip(shape, 0.0, 1.0)))
    return PriorBank(priors, dict(meta or {}))


# --------------------------------------------------------------------------
# Persistence
# --------------------------------------------------------------------------


def bank_to_dict(bank: PriorBank) -> dict:
    return {
        "n_pri": bank.n_pri,
        "n_p": bank.n_p,
        "priors": [
            {"kind": p.kind, "points": [[float(x), float(y)] for x, y in p.points]}
            for p in bank.priors
        ],
        "meta": bank.meta,
    }


def bank_from_dict(doc: dict) -> PriorBank:
    priors = [
        PriorShape(p["kind"], np.asarray(p["points"], dtype=np.float64)) for p in doc["priors"]
    ]
    bank = PriorBank(priors, dict(doc.get("meta", {})))
    if doc.get("n_pri") != bank.n_pri or (bank.priors and doc.get("n_p") != bank.n_p):
        raise BankParseError("prior bank header does not match its shape list")
    return bank


def save_bank(bank: PriorBank, path: str) -> None:
    with open(path, "w") as f:
        json.dump(bank_to_dict(bank), f)


def load_bank(path: str) -> PriorBank:
    with open(path) as f:
        text = f.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise BankParseError(f"{path}: line {e.lineno} column {e.colno}: {e.msg}") from e
    try:
        return bank_from_dict(doc)
    except (KeyError, TypeError) as e:
        raise BankParseError(f"{path}: malformed prior bank ({e})") from e


def check_fingerprint(bank: PriorBank, dataset_fingerprint: str) -> bool:
    """Warn when a bank is applied to a dataset it was not fitted on."""
    expected = bank.meta.get("dataset_fingerprint")
    if expected is not None and expected != dataset_fingerprint:
        warnings.warn(
            f"prior bank was fitted on dataset {expected[:12]}..., "
            f"applied to {dataset_fingerprint[:12]}...",
            stacklevel=2,
        )
        return False
    return True
