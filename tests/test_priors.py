import numpy as np
import pytest

from bevmap import priors
from bevmap.geometry import (
    BevExtent,
    CLASS_DIVIDER,
    CLASS_PED_CROSSING,
    KIND_POLYGON,
    KIND_POLYLINE,
    MapElement,
    chamfer,
    denormalize,
    normalize,
    orderings_for,
    resample,
)
from bevmap.priors import (
    BankParseError,
    FitError,
    PriorBank,
    PriorShape,
    abstract,
    bank_to_dict,
    check_fingerprint,
    fit_clusters,
    fit_quadratic_curve,
    load_bank,
    min_area_rect,
    save_bank,
)

EXT = BevExtent(0.0, 10.0, 0.0, 10.0, 20, 20)


def _line_element(y, n=8, x0=1.0, x1=9.0, reverse=False):
    pts = np.stack([np.linspace(x0, x1, n), np.full(n, y)], axis=1)
    if reverse:
        pts = pts[::-1].copy()
    return MapElement(CLASS_DIVIDER, KIND_POLYLINE, pts)


def _rect_element(cx, cy, w, h, n=8, roll=0):
    corners = np.array(
        [[cx - w / 2, cy - h / 2], [cx + w / 2, cy - h / 2],
         [cx + w / 2, cy + h / 2], [cx - w / 2, cy + h / 2]]
    )
    pts = resample(corners, n, closed=True)
    pts = np.roll(pts, roll, axis=0)
    return MapElement(CLASS_PED_CROSSING, KIND_POLYGON, pts)


def test_identical_elements_single_cluster():
    elements = [_line_element(5.0) for _ in range(5)]
    fit = fit_clusters(elements, EXT, k=1, seed=0)
    assert fit.objective_history[-1] < 1e-20
    expected = normalize(elements[0].points, EXT)
    assert np.allclose(fit.clusters[0].centroid, expected, atol=1e-12)
    assert fit.clusters[0].member_count == 5


def test_objective_non_increasing():
    rng = np.random.default_rng(0)
    for trial in range(5):
        elements = []
        for _ in range(30):
            y = rng.uniform(1, 9)
            elements.append(_line_element(y, x0=rng.uniform(0.5, 3), x1=rng.uniform(6, 9.5)))
        fit = fit_clusters(elements, EXT, k=4, seed=trial)
        hist = fit.objective_history
        assert all(hist[i + 1] <= hist[i] + 1e-12 for i in range(len(hist) - 1))


def test_two_separated_groups_match_brute_force_labels():
    elements = [_line_element(2.0 + 0.01 * i) for i in range(10)]
    elements += [_line_element(8.0 + 0.01 * i) for i in range(10)]
    fit = fit_clusters(elements, EXT, k=2, seed=3)
    # brute-force nearest-centroid labeling with min-over-orderings distance
    variants = priors._ordering_variants(elements, EXT)
    cents = np.stack([c.centroid.reshape(-1) for c in fit.clusters])
    dists, _ = priors._min_dists(variants, cents)
    assert np.array_equal(fit.labels, dists.argmin(axis=1))
    # groups end up in different clusters
    assert len(set(fit.labels[:10])) == 1
    assert fit.labels[0] != fit.labels[10]


def test_assignment_distance_invariant_under_orderings():
    # exhaustive check on small polygons: replacing an element by any
    # equivalent ordering leaves its min-over-orderings distance unchanged
    rng = np.random.default_rng(1)
    base = _rect_element(5.0, 5.0, 4.0, 2.0, n=6)
    centroid = rng.uniform(0.2, 0.8, (6, 2)).reshape(-1)
    variants = priors._ordering_variants([base], EXT)
    d0, _ = priors._min_dists(variants, centroid[None, :])
    for perm in orderings_for(KIND_POLYGON, 6):
        permuted = MapElement(base.class_id, base.kind, base.points[perm])
        v2 = priors._ordering_variants([permuted], EXT)
        d, _ = priors._min_dists(v2, centroid[None, :])
        assert d[0, 0] == pytest.approx(d0[0, 0], abs=1e-12)


def test_reversed_members_cluster_together():
    elements = [_line_element(5.0, reverse=bool(i % 2)) for i in range(6)]
    fit = fit_clusters(elements, EXT, k=1, seed=0)
    assert fit.objective_history[-1] < 1e-18


def test_k_exceeds_elements():
    with pytest.raises(FitError):
        fit_clusters([_line_element(5.0)], EXT, k=2, seed=0)


def test_canonical_kmeans_surface():
    elements = [_line_element(2.0), _line_element(8.0), _line_element(2.1)]
    clusters = fit_clusters(elements, EXT, k=2, seed=0).clusters
    assert len(clusters) == 2
    assert sum(c.member_count for c in clusters) == 3


# --------------------------------------------------------------------------
# abstraction
# --------------------------------------------------------------------------

def test_straight_line_abstraction_is_identity():
    pts = np.stack([np.linspace(0.1, 0.9, 10), np.linspace(0.2, 0.6, 10)], axis=1)
    out = fit_quadratic_curve(pts, 10)
    assert np.abs(out - pts).max() < 1e-6


def test_noisy_line_abstraction_reduces_residual():
    rng = np.random.default_rng(4)
    t = np.linspace(0.1, 0.9, 12)
    clean = np.stack([t, 0.5 * np.ones_like(t)], axis=1)
    noisy = clean + rng.normal(0, 0.02, clean.shape)
    fitted = fit_quadratic_curve(noisy, 12)
    resid_fit = np.abs(fitted[:, 1] - 0.5).max()
    resid_noisy = np.abs(noisy[:, 1] - 0.5).max()
    assert resid_fit < resid_noisy


def test_min_area_rect_square_oracle():
    square = np.array([[0.2, 0.2], [0.8, 0.2], [0.8, 0.8], [0.2, 0.8]])
    dense = resample(square, 16, closed=True)
    rect = min_area_rect(dense)
    # every true corner recovered within 1e-6
    for corner in square:
        assert np.linalg.norm(rect - corner, axis=1).min() < 1e-6


def test_min_area_rect_rotated():
    theta = 0.3
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    base = np.array([[-2.0, -1.0], [2.0, -1.0], [2.0, 1.0], [-2.0, 1.0]])
    pts = base @ rot.T + 5.0
    rect = min_area_rect(resample(pts, 20, closed=True))
    u, v = rect[1] - rect[0], rect[3] - rect[0]
    area = abs(u[0] * v[1] - u[1] * v[0])
    assert area == pytest.approx(8.0, rel=1e-6)


def test_abstract_orders_by_member_count():
    elements = [_line_element(2.0 + 0.02 * i) for i in range(12)]
    elements += [_line_element(8.0 + 0.02 * i) for i in range(4)]
    elements += [_rect_element(5.0, 5.0, 3.0, 2.0) for _ in range(7)]
    fit = fit_clusters(elements, EXT, k=3, seed=2)
    bank = abstract(fit.clusters, 3)
    counts = sorted((c.member_count for c in fit.clusters), reverse=True)
    ordered = sorted(range(3), key=lambda i: (-fit.clusters[i].member_count, i))
    assert [fit.clusters[i].member_count for i in ordered] == counts
    assert bank.n_pri == 3
    for shape in bank.priors:
        assert shape.points.min() >= 0.0 and shape.points.max() <= 1.0


def test_archetype_recovery_small():
    # line and rectangle archetypes plus small noise; abstraction recovers both
    rng = np.random.default_rng(5)
    elements = []
    for _ in range(20):
        e = _line_element(3.0)
        e.points = e.points + rng.normal(0, 0.05, e.points.shape)  # 0.005 normalized
        elements.append(e)
    for _ in range(15):
        e = _rect_element(5.0, 7.0, 4.0, 2.0)
        e.points = e.points + rng.normal(0, 0.05, e.points.shape)
        elements.append(e)
    fit = fit_clusters(elements, EXT, k=2, seed=1)
    bank = abstract(fit.clusters, 2)
    line_archetype = normalize(_line_element(3.0).points, EXT)
    rect_archetype = normalize(_rect_element(5.0, 7.0, 4.0, 2.0).points, EXT)
    best_line = min(chamfer(p.points, line_archetype) for p in bank.priors)
    best_rect = min(chamfer(p.points, rect_archetype) for p in bank.priors)
    assert best_line < 0.015
    assert best_rect < 0.015


# --------------------------------------------------------------------------
# persistence
# --------------------------------------------------------------------------

def test_bank_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(6)
    bank = PriorBank(
        [PriorShape(KIND_POLYLINE, rng.uniform(0, 1, (8, 2))) for _ in range(3)],
        meta={"k": 12, "seed": 5, "iterations": 9, "dataset_fingerprint": "abc"},
    )
    path = tmp_path / "bank.json"
    save_bank(bank, str(path))
    loaded = load_bank(str(path))
    assert loaded.meta == bank.meta
    assert loaded.n_pri == 3 and loaded.n_p == 8
    for a, b in zip(bank.priors, loaded.priors):
        assert a.kind == b.kind
        assert np.array_equal(a.points, b.points)


def test_truncated_bank_file_errors(tmp_path):
    path = tmp_path / "bank.json"
    save_bank(PriorBank([PriorShape(KIND_POLYLINE, np.zeros((4, 2)))]), str(path))
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    with pytest.raises(BankParseError, match="line"):
        load_bank(str(path))


def test_bank_header_mismatch_errors(tmp_path):
    bank = PriorBank([PriorShape(KIND_POLYLINE, np.zeros((4, 2)))])
    doc = bank_to_dict(bank)
    doc["n_pri"] = 7
    path = tmp_path / "bank.json"
    import json

    path.write_text(json.dumps(doc))
    with pytest.raises(BankParseError):
        load_bank(str(path))


def test_fingerprint_mismatch_warns():
    bank = PriorBank(
        [PriorShape(KIND_POLYLINE, np.zeros((4, 2)))],
        meta={"dataset_fingerprint": "aaaa" * 16},
    )
    with pytest.warns(UserWarning, match="fitted on dataset"):
        assert not check_fingerprint(bank, "bbbb" * 16)
    assert check_fingerprint(bank, "aaaa" * 16)
