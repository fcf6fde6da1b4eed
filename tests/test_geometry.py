import numpy as np

from qecentropy import geometry

EPS = 1e-10


def test_convex_hull_square_ccw():
    pts = np.array([0, 1, 1 + 1j, 1j, 0.5 + 0.5j, 0.25 + 0.1j])
    hull = geometry.convex_hull(pts, EPS)
    assert len(hull) == 4
    # CCW orientation: all consecutive cross products positive.
    n = len(hull)
    for i in range(n):
        assert geometry._cross(hull[i], hull[(i + 1) % n], hull[(i + 2) % n]) > 0


def test_convex_hull_collinear_collapses_to_segment():
    pts = np.array([0, 0.5, 1.0, 0.25])
    hull = geometry.convex_hull(pts, EPS)
    assert len(hull) == 2
    assert {complex(z) for z in hull} == {0, 1}


def test_dedupe_points():
    pts = np.array([0, 1e-12, 1.0])
    assert len(geometry.dedupe_points(pts, EPS)) == 2


def test_contains_and_vectorized_agree():
    tri = np.array([0, 2, 1 + 2j])
    rng = np.random.default_rng(0)
    zs = rng.uniform(-1, 3, 200) + 1j * rng.uniform(-1, 3, 200)
    single = np.array([geometry.contains(tri, complex(z), EPS) for z in zs])
    many = geometry.contains_many(tri, zs, EPS)
    assert np.array_equal(single, many)
    assert geometry.contains(tri, 1 + 0.5j, EPS)
    assert not geometry.contains(tri, -0.5 + 0j, EPS)


def test_contains_degenerate_sets():
    assert geometry.contains(np.array([1j]), 1j, EPS)
    assert not geometry.contains(np.array([1j]), 0, EPS)
    seg = np.array([0, 1.0 + 0j])
    assert geometry.contains(seg, 0.5, EPS)
    assert not geometry.contains(seg, 0.5 + 0.1j, EPS)
    assert not geometry.contains(np.array([], dtype=complex), 0, EPS)


def test_canonical_vertices_rotation_invariant():
    square = np.array([0, 1, 1 + 1j, 1j])
    rolled = np.roll(square, 2)
    a = geometry.canonical_vertices(square, EPS)
    b = geometry.canonical_vertices(rolled, EPS)
    assert np.allclose(a, b, atol=1e-12)
    assert complex(a[0]) == 0  # lexicographically smallest start


def test_closest_point():
    square = np.array([1 + 1j, 2 + 1j, 2 + 2j, 1 + 2j])
    assert abs(geometry.closest_point(square, 0j, EPS) - (1 + 1j)) < 1e-12
    assert abs(geometry.closest_point(square, 1.5 + 1.5j, EPS) - (1.5 + 1.5j)) < 1e-12
    assert abs(geometry.closest_point(square, 1.5 + 0j, EPS) - (1.5 + 1j)) < 1e-12
    seg = np.array([-1.0 + 0j, 1.0 + 0j])
    assert abs(geometry.closest_point(seg, 0.3 + 1j, EPS) - 0.3) < 1e-12


def test_segment_distance():
    assert abs(geometry.segment_distance(0, 1, 0.5 + 1j) - 1.0) < 1e-12
    assert abs(geometry.segment_distance(0, 1, 2 + 0j) - 1.0) < 1e-12
    assert geometry.segment_distance(1j, 1j, 1j) == 0.0


def test_predicates_compare_distances_at_every_scale():
    # A point 0.5 eps outside a line is kept and one 2 eps outside is not,
    # however long the edge or the normal: the tests measure distance, not area.
    for scale in (0.01, 1.0, 100.0):
        for off, kept in ((0.5 * EPS, True), (2 * EPS, False)):
            z = 0.5 * scale - 1j * off
            assert geometry.clip_halfplane([z], -1j * scale, 0.0, EPS) == ([z] if kept else [])
            tri = np.array([0, scale, scale * (0.5 + 1j)])
            assert geometry.contains(tri, z, EPS) is kept
            assert geometry.contains_many(tri, np.array([z]), EPS)[0] == kept
            hull = geometry.convex_hull(np.array([0, z, scale, scale * (0.5 + 1j)]), EPS)
            assert len(hull) == (3 if kept else 4)
