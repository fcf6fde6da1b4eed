import numpy as np
import pytest

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


def _winding_inside(pts, z):
    """Inside test by the angle the polygon subtends at z: 2 pi inside, 0
    outside."""
    angles = np.angle((np.roll(pts, -1) - z) / (pts - z))
    return abs(angles.sum()) > np.pi


def test_signed_distance_matches_a_sampled_boundary():
    # The distance to 20001 points on each edge is within 1e-4 of the true
    # distance; the sign is the winding test's.
    tri = np.array([0, 2, 1 + 2j])
    boundary = np.concatenate([a + np.linspace(0, 1, 20001) * (b - a)
                               for a, b in zip(tri, np.roll(tri, -1))])
    rng = np.random.default_rng(0)
    zs = rng.uniform(-1, 3, 200) + 1j * rng.uniform(-1, 3, 200)
    for z in zs.tolist():
        d = geometry.signed_distance(tri, z)
        assert abs(abs(d) - np.abs(boundary - z).min()) <= 1e-4
        assert (d < 0) == _winding_inside(tri, z)
        nearest = geometry.closest_point(tri, z)
        assert nearest == z if d < 0 else abs(abs(nearest - z) - d) <= 1e-15


def test_contains_degenerate_sets():
    # Membership is signed_distance <= eps, for a point, a segment and the
    # empty set as for a polygon.
    assert geometry.signed_distance(np.array([1j]), 1j) == 0.0
    assert geometry.signed_distance(np.array([1j]), 0) == 1.0
    assert not geometry.signed_distance(np.array([1j]), 0) <= EPS
    seg = np.array([0, 1.0 + 0j])
    assert geometry.signed_distance(seg, 0.5) == 0.0
    assert not geometry.signed_distance(seg, 0.5 + 0.1j) <= EPS
    assert geometry.signed_distance(np.array([], dtype=complex), 0) == np.inf


def test_segment_distance():
    # A two-point set is a segment: off it, past an end, and of zero length.
    seg = np.array([0, 1.0 + 0j])
    assert abs(geometry.signed_distance(seg, 0.5 + 1j) - 1.0) < 1e-12
    assert abs(geometry.signed_distance(seg, 2 + 0j) - 1.0) < 1e-12
    assert geometry.signed_distance(np.array([1j, 1j]), 1j) == 0.0


def test_a_point_past_a_sharp_vertex_is_outside():
    # Interior angle 2 atan(0.1) at the vertex 0: a point 1.5 eps past it on
    # the bisector is 0.15 eps from both edge lines, but 1.5 eps from the set.
    tri = np.array([0, 1 - 0.1j, 1 + 0.1j])
    z = -1.5 * EPS
    assert abs(geometry.signed_distance(tri, z) - 1.5 * EPS) < 1e-20
    assert not geometry.signed_distance(tri, z) <= EPS
    assert geometry.signed_distance(tri, 0.5) < 0


def test_canonical_vertices_rotation_invariant():
    square = np.array([0, 1, 1 + 1j, 1j])
    rolled = np.roll(square, 2)
    a = geometry.canonical_vertices(square, EPS)
    b = geometry.canonical_vertices(rolled, EPS)
    assert np.allclose(a, b, atol=1e-12)
    assert complex(a[0]) == 0  # lexicographically smallest start


def test_closest_point():
    square = np.array([1 + 1j, 2 + 1j, 2 + 2j, 1 + 2j])
    assert abs(geometry.closest_point(square, 0j) - (1 + 1j)) < 1e-12
    assert geometry.closest_point(square, 1.5 + 1.5j) == 1.5 + 1.5j
    assert abs(geometry.closest_point(square, 1.5 + 0j) - (1.5 + 1j)) < 1e-12
    seg = np.array([-1.0 + 0j, 1.0 + 0j])
    assert abs(geometry.closest_point(seg, 0.3 + 1j) - 0.3) < 1e-12
    assert geometry.closest_point(np.array([1j]), 0) == 1j
    with pytest.raises(ValueError, match="empty"):
        geometry.closest_point(np.array([], dtype=complex), 0)


def test_predicates_compare_distances_at_every_scale():
    # A point 0.5 eps outside a line is kept and one 2 eps outside is not,
    # however long the edge or the normal: the tests measure distance, not area.
    # The point lies outside an edge, not past a vertex, so its distance from
    # the triangle is its distance from the edge line.
    for scale in (0.01, 1.0, 100.0):
        for off, kept in ((0.5 * EPS, True), (2 * EPS, False)):
            z = 0.5 * scale - 1j * off
            assert geometry.clip_halfplane([z], -1j * scale, 0.0, EPS) == ([z] if kept else [])
            tri = np.array([0, scale, scale * (0.5 + 1j)])
            assert (geometry.signed_distance(tri, z) <= EPS) is kept
            hull = geometry.convex_hull(np.array([0, z, scale, scale * (0.5 + 1j)]), EPS)
            assert len(hull) == (3 if kept else 4)



def test_clip_halfplane_keeps_a_vertex_past_the_line_only_near_the_chord():
    # The half-plane Im z >= 0 bounded by the chord from 0 to 1.  A vertex
    # 0.5 eps below the line is kept above the chord, but not 1e-3 past its
    # end, however close to the line: there the edges are cut at the line.
    normal = -1j
    for x, kept in ((0.5, True), (1.0 + 0.5 * EPS, True), (1.0 + 1e-3, False), (-1e-3, False)):
        z = x - 0.5j * EPS
        assert geometry.clip_halfplane([z], normal, 0.0, EPS) == [z]
        assert geometry.clip_halfplane([z], normal, 0.0, EPS, (0j, 1 + 0j)) == ([z] if kept else [])
    tri = [2 - 0.5j * EPS, 1.5 + 1j, 0.5 + 1j]
    got = geometry.clip_halfplane(tri, normal, 0.0, EPS, (0j, 1 + 0j))
    assert tri[0] not in got and min(abs(z.imag) for z in got) <= 1e-15

def _segment_clip_reference(pts, normal, offset, eps):
    """A two-point list clipped on its own: the inside end, then the cut
    (clamped to that end when the end lies on the line or past it), unless
    the cut is within ``eps`` of the end."""
    conj, slack = normal.conjugate(), eps * abs(normal)
    (a, b), (va, vb) = pts, [(conj * z).real - offset for z in pts]
    if va <= slack and vb <= slack:
        return pts
    if va > slack and vb > slack:
        return []
    kept, vk = (a, va) if va <= slack else (b, vb)
    cut = kept if vk >= 0 else a + va / (va - vb) * (b - a)
    return [kept] if abs(cut - kept) <= eps else [kept, cut]


# Segments in a frame where the line is the real axis and the inside is
# Im z >= 0, with the number of points the clip keeps, and how far they may
# lie from the segment clip's when the inside end is the second point.  Of
# an end and its cut within eps of it, the 2-gon keeps the one that comes
# first in its output: the end when it is the first point, else the cut.
SEGMENT_CLIPS = [
    ((-0.3 + 0.7j, 0.9 - 0.4j), 2, 1e-15),  # crosses the line
    ((0.1 + 0.2j, 0.4 - 0.9j), 2, 1e-15),
    ((0.2 + 0.5 * EPS * 1j, 0.9 - 0.6j), 1, EPS),  # an end inside by less than the slack
    ((0.2 - 0.5 * EPS * 1j, 0.9 - 0.6j), 1, 1e-15),  # an end past the line, within the slack
    ((0.2 - 0.5 * EPS * 1j, 0.9 - 1e-6j), 1, 1e-15),  # the same, nearly parallel to the line
    ((0.3 + 0j, 0.8 - 0.6j), 1, 1e-15),  # an end exactly on the line
    ((0.3 + 0.2j, 0.8 + 0.6j), 2, 1e-15),  # both ends inside
    ((0.3 - 0.2j, 0.8 - 0.6j), 0, 1e-15),  # both ends outside
    ((0.5 + 0.5j, 0.5 + 0.5j), 1, 1e-15),  # equal endpoints, inside
    ((0.5 - 0.5j, 0.5 - 0.5j), 0, 1e-15),  # equal endpoints, outside
]


@pytest.mark.parametrize("pair, count, reversed_atol", SEGMENT_CLIPS)
def test_clip_halfplane_on_two_points_matches_the_segment_clip(pair, count, reversed_atol):
    # A two-point list is clipped as a 2-gon, whose cut can come twice; once
    # canonical it is the segment's own clip, in frames of every orientation.
    rng = np.random.default_rng(7)
    for _ in range(20):
        rot, centre = np.exp(1j * rng.uniform(0, 2 * np.pi)), complex(*rng.uniform(-1, 1, 2))
        normal = -1j * rot * rng.uniform(0.1, 10)
        offset = (normal.conjugate() * centre).real
        for order, atol in ((1, 1e-15), (-1, reversed_atol)):
            pts = [centre + rot * z for z in pair[::order]]
            got = geometry.canonical_vertices(geometry.clip_halfplane(pts, normal, offset, EPS), EPS)
            want = geometry.canonical_vertices(_segment_clip_reference(pts, normal, offset, EPS), EPS)
            assert len(got) == len(want) == count
            assert np.abs(got - want).max(initial=0.0) <= atol
