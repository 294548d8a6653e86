import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bevmap import geometry as geo
from bevmap import priors, synth
from bevmap.geometry import (
    BevExtent,
    DegenerateGeometryError,
    GeometryError,
    KIND_POLYGON,
    KIND_POLYLINE,
    MapElement,
    Scene,
    chamfer,
    denormalize,
    equivalent_orderings,
    normalize,
    orderings_for,
    resample,
)


# --------------------------------------------------------------------------
# resample
# --------------------------------------------------------------------------

def test_resample_uniform_segment():
    out = resample(np.array([[0.0, 0.0], [0.0, 3.0]]), 4)
    assert np.allclose(out, [[0, 0], [0, 1], [0, 2], [0, 3]], atol=1e-12)


def test_resample_idempotent():
    rng = np.random.default_rng(0)
    pts = np.cumsum(rng.normal(size=(7, 2)), axis=0)
    once = resample(pts, 12)
    twice = resample(once, 12)
    assert np.abs(once - twice).max() < 1e-9


def test_resample_unit_square_closed():
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    out = resample(square, 8, closed=True)
    ring = np.concatenate([out, out[:1]])
    spacing = np.linalg.norm(np.diff(ring, axis=0), axis=1)
    assert np.allclose(spacing, 0.5, atol=1e-12)


def test_resample_preserves_open_endpoints():
    rng = np.random.default_rng(1)
    pts = np.cumsum(rng.normal(size=(5, 2)), axis=0)
    out = resample(pts, 9)
    assert np.array_equal(out[0], pts[0])
    assert np.array_equal(out[-1], pts[-1])


def test_resample_spacing_coefficient_of_variation():
    # smooth map-like chain (the operation's domain); spacing is the arc
    # length along the output chain between consecutive output points
    xs = np.linspace(0.0, 10.0, 40)
    pts = np.stack([xs, np.sin(0.4 * xs) * 2.0], axis=1)
    out = resample(pts, 30)
    spacing = np.linalg.norm(np.diff(out, axis=0), axis=1)
    assert spacing.std() / spacing.mean() < 1e-9


def test_resample_degenerate_input():
    with pytest.raises(DegenerateGeometryError):
        resample(np.zeros((4, 2)), 5)


def _reference_walk(chain, start, hops, c):
    """`_walk_equal_chords` as it was before its per-segment terms were
    hoisted: d and d @ d recomputed on every walk."""
    pts = [start]
    seg_idx = 0
    seg_u = 0.0
    n_seg = chain.shape[0] - 1
    for _ in range(hops):
        x = pts[-1]
        placed = False
        while seg_idx < n_seg:
            a = chain[seg_idx]
            b = chain[seg_idx + 1]
            d = b - a
            e = a - x
            qa = float(d @ d)
            qb = 2.0 * float(e @ d)
            qc = float(e @ e) - c * c
            disc = qb * qb - 4.0 * qa * qc
            root = None
            if qa > 0.0 and disc >= 0.0:
                sq = math.sqrt(disc)
                for u in ((-qb - sq) / (2 * qa), (-qb + sq) / (2 * qa)):
                    if seg_u < u <= 1.0 + 1e-12:
                        root = min(u, 1.0) if root is None else min(root, min(u, 1.0))
            if root is not None:
                seg_u = root
                pts.append(a + root * d)
                placed = True
                break
            seg_idx += 1
            seg_u = 0.0
        if not placed:
            return np.asarray(pts), -1.0
    seg_len = np.linalg.norm(np.diff(chain, axis=0), axis=1)
    if seg_idx >= n_seg:
        leftover = 0.0
    else:
        leftover = (1.0 - seg_u) * seg_len[seg_idx] + float(seg_len[seg_idx + 1 :].sum())
    return np.asarray(pts), leftover


def _reference_resample(points, n, closed=False):
    pts = np.asarray(points, dtype=np.float64)
    chain = np.concatenate([pts, pts[:1]], axis=0) if closed else pts
    seg = np.linalg.norm(np.diff(chain, axis=0), axis=1)
    total = float(seg.sum())
    chain = chain[np.concatenate([[True], seg > 0.0])]
    hops = n if closed else n - 1
    hi = total / hops
    lo = 0.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        _, leftover = _reference_walk(chain, chain[0], hops, mid)
        if leftover > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * total:
            break
    out, _ = _reference_walk(chain, chain[0], hops, 0.5 * (lo + hi))
    if out.shape[0] < hops + 1:
        out = np.concatenate([out, np.repeat(chain[-1:], hops + 1 - out.shape[0], axis=0)])
    if closed:
        out = out[:n]
    else:
        out[-1] = pts[-1]
    out[0] = pts[0]
    return out


_SCENE_CFG = synth.SceneConfig(
    n_points=20, divider_count=(3, 3), crossing_count=(2, 2), boundary_count=(2, 2),
    divider_lanes=3, crossing_slots=2,
)


def _scenes_then_priors():
    """Two generated scenes (14 resampled elements), then 6 prior shapes
    abstracted from their elements, each resampled: fitted curves are dense
    256-vertex chains in the unit square."""
    scenes = [synth.generate_scene(_SCENE_CFG, seed) for seed in (7000, 7001)]
    fit = priors.fit_clusters([e for s in scenes for e in s.elements], _SCENE_CFG.extent, 6, 0)
    priors.abstract(fit.clusters, 6)


def test_resample_bytes_equal_reference_on_generated_scenes(monkeypatch):
    calls = []

    def recording(points, n, closed=False):
        calls.append((np.array(points), n, closed))
        return resample(points, n, closed)

    monkeypatch.setattr(synth, "resample", recording)
    monkeypatch.setattr(priors, "resample", recording)
    _scenes_then_priors()
    assert len(calls) == 14 + 6 and {c for _, _, c in calls} == {False, True}
    assert max(pts.shape[0] for pts, _, _ in calls[14:]) == 256
    for pts, n, closed in calls:
        assert resample(pts, n, closed).tobytes() == _reference_resample(pts, n, closed).tobytes()


def test_resample_bytes_equal_reference_on_random_chains():
    rng = np.random.default_rng(5)
    for k in range(40):
        m = int(rng.integers(2, 30))
        step = 10.0 ** rng.uniform(-3, 1)
        pts = np.cumsum(rng.normal(0.0, step, (m, 2)), axis=0)
        if k % 5 == 0:
            pts = np.insert(pts, m // 2, pts[m // 2], axis=0)  # a repeated vertex
        n = int(rng.integers(2, 25))
        closed = bool(k % 2)
        assert resample(pts, n, closed).tobytes() == _reference_resample(pts, n, closed).tobytes()


def _assert_walk_equals_reference(chain, hops, c):
    pts, leftover = geo._walk_equal_chords(geo._chain_steps(chain), hops, c)
    ref, ref_leftover = _reference_walk(chain, chain[0], hops, c)
    assert (pts.tobytes(), leftover) == (ref.tobytes(), ref_leftover), (chain.tolist(), hops, c)


def _recorded_walks(run):
    """(chain, hops, chord) of every walk that `resample` makes in `run()`:
    each bisection mid and the final chord."""
    chain_steps, walk = geo._chain_steps, geo._walk_equal_chords
    chains, walks = {}, []

    def recording_steps(chain):
        steps = chain_steps(chain)
        chains[id(steps)] = (chain, steps)  # holds steps, so its id stays unique
        return steps

    def recording_walk(steps, hops, c):
        walks.append((chains[id(steps)][0], hops, c))
        return walk(steps, hops, c)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geo, "_chain_steps", recording_steps)
        mp.setattr(geo, "_walk_equal_chords", recording_walk)
        run()
    return walks


def test_walk_bytes_equal_reference_at_every_bisection_mid():
    walks = _recorded_walks(_scenes_then_priors)
    assert len({id(chain) for chain, _, _ in walks}) == 14 + 6 and len(walks) > 900
    for chain, hops, c in walks:
        _assert_walk_equals_reference(chain, hops, c)


def _random_chain(rng, k):
    """Random walk, collinear back-and-forth or dense smooth chain, at a
    scale of 1e-4 to 1e2 and an offset of up to 1e4, some with a repeated vertex."""
    m = int(rng.integers(2, 40))
    scale = 10.0 ** rng.uniform(-4, 2)
    if k % 3 == 0:
        steps = rng.normal(0.0, scale, (m, 2))
    elif k % 3 == 1:
        steps = np.outer(rng.uniform(-0.5, 1.0, m) * scale, rng.normal(size=2))
    else:
        t = np.linspace(0.0, 1.0, m + 40)[:, None]
        steps = np.diff(scale * np.hstack([t, rng.normal() * t * t]), axis=0)
    pts = rng.uniform(-1e4, 1e4, 2) + np.cumsum(steps, axis=0)
    if k % 4 == 0:
        pts = np.insert(pts, m // 2, pts[m // 2], axis=0)
    return pts


def test_walk_bytes_equal_reference_on_random_chains_and_boundary_chords():
    rng = np.random.default_rng(11)
    for k in range(60):
        chain = _random_chain(rng, k)
        total = float(np.linalg.norm(np.diff(chain, axis=0), axis=1).sum())
        hops = int(rng.integers(1, 25))
        chords = [f * total / hops for f in (0.3, 0.7, 0.99, 1.0)]
        # chords that put a later vertex on the circle about a placed point,
        # and one ulp either side: the skip test's boundary
        placed, _ = _reference_walk(chain, chain[0], hops, chords[1])
        for p in placed[:: max(1, len(placed) // 4)]:
            nearest = int(np.linalg.norm(chain - p, axis=1).argmin())
            for v in chain[nearest + 1 : nearest + 4]:
                r = float(np.hypot(*(v - p)))
                if r > 0.0:
                    chords += [r, np.nextafter(r, 0.0), np.nextafter(r, np.inf)]
        for c in chords:
            _assert_walk_equals_reference(chain, hops, c)


@pytest.mark.parametrize("length,hops,c", [
    (1.9229741707058658, 974, 0.001972281200723965),
    (1.223318582299005, 905, 0.0013502412608134794),
])
def test_walk_keeps_the_exact_tests_tolerance_past_a_long_segment(length, hops, c):
    # The exact test takes a root up to 1e-12 of a segment past its end.  At
    # these chords the reference places hop hops+1 on the end vertex of a
    # segment about hops chords long, though that vertex lies inside the
    # circle by more than 1e-9 c^2; a skip margin blind to the segment's
    # length would skip the segment and cross on the next one instead.
    chain = np.array([[0.0, 0.0], [length, 0.0], [length, 1.0]])
    ref, _ = _reference_walk(chain, chain[0], hops + 2, c)
    assert np.array_equal(ref[hops + 1], chain[1])
    assert (length - ref[hops, 0]) ** 2 < c * c * (1.0 - 1e-9)
    _assert_walk_equals_reference(chain, hops + 2, c)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_resample_rejects_non_finite_points(bad):
    with pytest.raises(GeometryError, match="^resample: non-finite point at index 1$"):
        resample(np.array([[0.0, 0.0], [bad, 1.0], [2.0, 2.0]]), 4)


# --------------------------------------------------------------------------
# equivalent orderings
# --------------------------------------------------------------------------

def test_polyline_orderings():
    e = MapElement(0, KIND_POLYLINE, np.random.default_rng(0).normal(size=(6, 2)))
    perms = equivalent_orderings(e)
    assert perms.shape == (2, 6)
    assert np.array_equal(perms[0], np.arange(6))
    assert np.array_equal(perms[1], np.arange(6)[::-1])


def test_polygon_orderings_count():
    perms = orderings_for(KIND_POLYGON, 4)
    assert perms.shape == (8, 4)
    assert np.array_equal(perms[0], np.arange(4))
    # no duplicates among the 2n orderings
    assert len({tuple(p) for p in perms}) == 8


@given(st.integers(min_value=3, max_value=9))
@settings(max_examples=20, deadline=None)
def test_orderings_are_bijections(n):
    for kind in (KIND_POLYLINE, KIND_POLYGON):
        for perm in orderings_for(kind, n):
            assert sorted(perm.tolist()) == list(range(n))


def test_orderings_preserve_point_set():
    rng = np.random.default_rng(3)
    e = MapElement(1, KIND_POLYGON, rng.uniform(-5, 5, (5, 2)))
    base = {tuple(p) for p in e.points}
    for perm in equivalent_orderings(e):
        assert {tuple(p) for p in e.points[perm]} == base


# --------------------------------------------------------------------------
# chamfer
# --------------------------------------------------------------------------

def test_chamfer_identity_and_pair():
    a = np.random.default_rng(4).normal(size=(6, 2))
    assert chamfer(a, a) == 0.0
    assert chamfer(np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]])) == 5.0


def test_chamfer_brute_force_oracle():
    rng = np.random.default_rng(5)
    for _ in range(10):
        a = rng.normal(size=(20, 2))
        b = rng.normal(size=(20, 2))
        # exhaustive double loop
        fwd = np.mean([min(np.hypot(*(p - q)) for q in b) for p in a])
        bwd = np.mean([min(np.hypot(*(p - q)) for p in a) for q in b])
        assert abs(chamfer(a, b) - 0.5 * (fwd + bwd)) < 1e-12


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=12), st.integers())
@settings(max_examples=30, deadline=None)
def test_chamfer_symmetric_and_reorder_invariant(na, nb, seed):
    rng = np.random.default_rng(abs(seed) % 2**32)
    a = rng.normal(size=(na, 2))
    b = rng.normal(size=(nb, 2))
    assert chamfer(a, b) == pytest.approx(chamfer(b, a), abs=1e-12)
    assert chamfer(a[::-1], b) == pytest.approx(chamfer(a, b), abs=1e-12)


def test_chamfer_empty_set_rejected():
    with pytest.raises(GeometryError):
        chamfer(np.zeros((0, 2)), np.ones((2, 2)))


# --------------------------------------------------------------------------
# normalize / denormalize
# --------------------------------------------------------------------------

def test_normalize_corners_and_center():
    ext = BevExtent()
    assert np.allclose(normalize(np.array([[-30.0, -15.0]]), ext), [[0.0, 0.0]])
    assert np.allclose(normalize(np.array([[0.0, 0.0]]), ext), [[0.5, 0.5]])
    assert np.allclose(normalize(np.array([[30.0, 15.0]]), ext), [[1.0, 1.0]])


def test_normalize_round_trip():
    rng = np.random.default_rng(6)
    ext = BevExtent(-12.0, 8.0, -3.0, 9.0, 40, 30)
    pts = np.stack([rng.uniform(-12, 8, 100), rng.uniform(-3, 9, 100)], axis=1)
    back = denormalize(normalize(pts, ext), ext)
    assert np.abs(back - pts).max() < 1e-12


def test_normalize_out_of_range_lists_coordinate():
    ext = BevExtent()
    with pytest.raises(GeometryError, match="outside"):
        normalize(np.array([[100.0, 0.0]]), ext)
    with pytest.raises(GeometryError, match="outside"):
        denormalize(np.array([[1.5, 0.2]]), ext)


# --------------------------------------------------------------------------
# scene serialization
# --------------------------------------------------------------------------

def test_scene_json_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    ext = BevExtent()
    elements = [
        MapElement(0, KIND_POLYLINE, rng.uniform(-10, 10, (20, 2))),
        MapElement(1, KIND_POLYGON, rng.uniform(-10, 10, (20, 2))),
    ]
    scene = Scene(ext, elements, seed=99)
    path = tmp_path / "scene.json"
    geo.save_scene(scene, str(path))
    loaded = geo.load_scene(str(path))
    assert loaded.seed == 99
    assert loaded.extent == ext
    assert len(loaded.elements) == 2
    for a, b in zip(scene.elements, loaded.elements):
        assert a.class_id == b.class_id and a.kind == b.kind
        assert np.array_equal(a.points, b.points)  # repr round trip is exact
