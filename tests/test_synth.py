import json

import numpy as np
import pytest

from bevmap import synth
from bevmap.geometry import (
    BevExtent,
    CLASS_BOUNDARY,
    CLASS_DIVIDER,
    CLASS_PED_CROSSING,
    KIND_POLYGON,
    MapElement,
    Scene,
    scene_to_dict,
)
from bevmap.synth import (
    FeaturePyramid,
    GenerationError,
    SceneConfig,
    average_pool2,
    class_distance_channels,
    generate_scene,
    rasterize_instances,
    render_bev,
)


@pytest.fixture
def cfg():
    return SceneConfig(extent=BevExtent(-30, 30, -15, 15, 60, 30), n_points=12)


def test_generate_deterministic(cfg):
    a = generate_scene(cfg, 42)
    b = generate_scene(cfg, 42)
    assert json.dumps(scene_to_dict(a)) == json.dumps(scene_to_dict(b))


def test_generate_counts_within_ranges(cfg):
    for seed in range(10):
        scene = generate_scene(cfg, seed)
        counts = {CLASS_DIVIDER: 0, CLASS_PED_CROSSING: 0, CLASS_BOUNDARY: 0}
        for e in scene.elements:
            counts[e.class_id] += 1
        assert cfg.divider_count[0] <= counts[CLASS_DIVIDER] <= cfg.divider_count[1]
        assert cfg.crossing_count[0] <= counts[CLASS_PED_CROSSING] <= cfg.crossing_count[1]
        assert cfg.boundary_count[0] <= counts[CLASS_BOUNDARY] <= cfg.boundary_count[1]


def test_generate_points_within_extent(cfg):
    for seed in range(10):
        scene = generate_scene(cfg, seed)
        scene.validate(cfg.n_points)


def test_generate_infeasible_crossing():
    # refused with the config, before any scene is drawn
    with pytest.raises(GenerationError, match="crossing"):
        SceneConfig(
            extent=BevExtent(-3, 3, -3, 3, 10, 10),
            crossing_size=(20.0, 25.0),
            boundary_margin=0.5,
        )


def test_render_level_shapes():
    scene = generate_scene(SceneConfig(), 3)
    pyr = render_bev(scene, channels=8, num_levels=3, seed=1)
    assert [l.shape for l in pyr.levels] == [(8, 200, 100), (8, 100, 50), (8, 50, 25)]
    for level in pyr.levels:
        assert np.isfinite(level).all()


def test_render_deterministic(cfg):
    scene = generate_scene(cfg, 5)
    a = render_bev(scene, 8, 2, seed=11)
    b = render_bev(scene, 8, 2, seed=11)
    assert all(np.array_equal(x, y) for x, y in zip(a.levels, b.levels))
    c = render_bev(scene, 8, 2, seed=12)
    assert not np.array_equal(a.levels[0], c.levels[0])


def test_distance_channel_zero_on_divider():
    # an element running exactly through cell centers on one row
    ext = BevExtent(-5, 5, -5, 5, 10, 10)
    y = -5 + (3 + 0.5) * 1.0  # center of column 3
    pts = np.stack([np.linspace(-5, 5, 12), np.full(12, y)], axis=1)
    scene = Scene(ext, [MapElement(CLASS_DIVIDER, "polyline", pts)], 0)
    channels = class_distance_channels(scene)
    assert channels[0][:, 3].max() < 1e-9
    # untouched classes carry the truncation value everywhere
    assert np.all(channels[1] == 3.0)


def _dense_distance_channels(scene, truncation):
    """The untiled transform: every cell against every segment of a class."""
    xs, ys = synth._cell_centers(scene.extent)
    out = []
    for class_id in (CLASS_DIVIDER, CLASS_PED_CROSSING, CLASS_BOUNDARY):
        segs = [synth._segments_of(e) for e in scene.elements if e.class_id == class_id]
        seg = np.concatenate(segs, axis=0) if segs else np.zeros((0, 2, 2))
        out.append(np.minimum(synth._min_dist_to_segments(xs, ys, seg), truncation))
    return np.stack(out)


@pytest.mark.parametrize("truncation", [0.5, 2, 3.0, 100.0])
def test_tiled_distance_channels_equal_dense_on_edge_cases(truncation):
    # 37 x 23 cells is no multiple of the tile; 100 m exceeds the extent
    ext = BevExtent(-30, 30, -15, 15, 37, 23)
    dx, dy = ext.cell_size
    x_edge = ext.x_min + synth._TILE * dx  # the border between tile rows 0 and 1
    y_edge = ext.y_min + synth._TILE * dy
    x_centre = ext.x_min + (synth._TILE + 0.5) * dx  # first cell centre of tile row 1
    elements = [
        # one-segment class, lying on a tile edge
        MapElement(CLASS_DIVIDER, "polyline", [[x_edge, -10.0], [x_edge, 10.0]]),
        # a repeated vertex gives a zero-length segment; one leg runs on the
        # other tile edge, one through a row of cell centres
        MapElement(CLASS_BOUNDARY, "polyline",
                   [[-20.0, 12.0], [-20.0, 12.0], [-20.0, y_edge], [x_centre, y_edge],
                    [x_centre, -14.0]]),
    ]  # no crossing: an empty class
    scene = Scene(ext, elements, 0)
    got = class_distance_channels(scene, truncation)
    assert got.tobytes() == _dense_distance_channels(scene, truncation).tobytes()
    assert np.all(got[1] == truncation)
    if truncation == 3.0:
        assert (got[0] < truncation).any() and (got[0] == truncation).any()


BENCH_SCENES = SceneConfig(
    n_points=20, divider_count=(3, 3), crossing_count=(2, 2), boundary_count=(2, 2),
    divider_lanes=3, crossing_slots=2,
)


@pytest.mark.parametrize("seed", [7000, 7001, 7002, 7003])
def test_tiled_distance_channels_equal_dense_on_bench_scenes(seed):
    scene = generate_scene(BENCH_SCENES, seed)
    got = class_distance_channels(scene, 3.0)
    assert got.tobytes() == _dense_distance_channels(scene, 3.0).tobytes()
    # cells both inside and outside the truncation radius, in every class
    assert all((c < 3.0).any() and (c == 3.0).any() for c in got)


def test_average_pooling_preserves_mean_even_dims():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 8, 6))
    pooled = average_pool2(a)
    assert pooled.shape == (3, 4, 3)
    assert np.abs(pooled.mean(axis=(1, 2)) - a.mean(axis=(1, 2))).max() < 1e-9


def test_render_lipschitz_in_scene(cfg):
    # moving one element by less than a cell changes distance channels by
    # at most ~2x the move distance (statistical check on the raw channels)
    scene = generate_scene(cfg, 8)
    move = 0.2  # meters, well under the 1 m cells
    base = class_distance_channels(scene)
    shifted_elements = [
        MapElement(e.class_id, e.kind, e.points.copy()) for e in scene.elements
    ]
    shifted_elements[0].points[:, 1] = np.clip(
        shifted_elements[0].points[:, 1] + move, cfg.extent.y_min, cfg.extent.y_max
    )
    shifted = Scene(cfg.extent, shifted_elements, scene.seed)
    delta = np.abs(class_distance_channels(shifted) - base)
    assert delta.max() <= 2.0 * move + 1e-9


def test_rasterize_empty_scene():
    mask = rasterize_instances(Scene(BevExtent(), [], 0))
    assert mask.count == 0
    assert not mask.ids.any()


def test_rasterize_single_row_divider():
    ext = BevExtent(-5, 5, -5, 5, 10, 10)
    x = -5 + (4 + 0.5) * 1.0  # row 4 centers
    pts = np.stack([np.full(8, x), np.linspace(-5, 5, 8)], axis=1)
    scene = Scene(ext, [MapElement(CLASS_DIVIDER, "polyline", pts)], 0)
    mask = rasterize_instances(scene)
    assert (mask.ids[4, :] == 1).all()
    assert mask.ids.sum() == mask.ids[4, :].sum()  # nothing outside row 4


def test_rasterize_rectangle_area_oracle():
    ext = BevExtent(-10, 10, -10, 10, 40, 40)  # 0.5 m cells
    rect = np.array([[-4.0, -3.0], [4.0, -3.0], [4.0, 3.0], [-4.0, 3.0]])
    scene = Scene(ext, [MapElement(CLASS_PED_CROSSING, KIND_POLYGON, rect)], 0)
    mask = rasterize_instances(scene)
    cells = int((mask.ids == 1).sum())
    cell_area = 0.25
    area_cells = (8.0 * 6.0) / cell_area
    perimeter_cells = 2 * (8.0 + 6.0) / 0.5
    assert abs(cells - area_cells) <= perimeter_cells


def test_rasterize_overlap_later_wins():
    ext = BevExtent(-5, 5, -5, 5, 10, 10)
    pts = np.stack([np.linspace(-5, 5, 8), np.zeros(8)], axis=1)
    e1 = MapElement(CLASS_DIVIDER, "polyline", pts)
    e2 = MapElement(CLASS_BOUNDARY, "polyline", pts.copy())
    mask = rasterize_instances(Scene(ext, [e1, e2], 0))
    covered = mask.ids[mask.ids > 0]
    assert covered.size > 0
    assert (covered == 2).all()


def test_rasterize_components_at_least_disjoint_elements():
    from scipy.ndimage import label

    cfg = SceneConfig(extent=BevExtent(-30, 30, -15, 15, 60, 30), n_points=12, noise_sd=0.0)
    scene = generate_scene(cfg, 21)
    mask = rasterize_instances(scene)
    # count elements whose footprint survived overwriting entirely
    surviving = 0
    for k in range(1, mask.count + 1):
        if (mask.ids == k).any():
            surviving += 1
    _, n_components = label(mask.ids > 0)
    assert n_components >= 1
    assert surviving >= 1
    # every element with a nonzero footprint appears
    assert set(np.unique(mask.ids)) - {0} <= set(range(1, mask.count + 1))


def test_render_rejects_bad_params():
    scene = generate_scene(SceneConfig(), 0)
    with pytest.raises(GenerationError):
        render_bev(scene, channels=2, num_levels=1, seed=0)
    with pytest.raises(GenerationError):
        render_bev(scene, channels=8, num_levels=0, seed=0)
