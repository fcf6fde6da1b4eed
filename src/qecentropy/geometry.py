"""Planar convex geometry on complex points: hulls, half-plane clipping,
and the signed distance that membership tests compare with a tolerance.

A convex set is carried as an array of complex vertices: empty array,
single point, segment endpoints, or a CCW convex polygon.  All tolerances
are absolute distances: a side test compares a point's distance from a line
with one, never an area, and membership compares the true distance to the
set, which past a polygon vertex exceeds the distance to either edge line.
"""

from __future__ import annotations

import numpy as np


def _cross(o: complex, a: complex, b: complex) -> float:
    """Twice the signed area of the triangle o, a, b: positive for a left turn.
    Divided by the length of one side it is the distance of the third vertex
    from that side's line, which is what the predicates compare with ``eps``."""
    return ((a - o).conjugate() * (b - o)).imag


def dedupe_points(pts: np.ndarray, eps: float) -> np.ndarray:
    """Drop points within ``eps`` of an already-kept point (greedy, ordered).

    numpy's complex ``abs`` can differ from ``abs()`` in the last bit, so one
    numpy test settles only the pairs more than 2 eps apart (as a rule, all
    but each point paired with itself); ``abs()`` decides the others."""
    pts = np.array(pts, dtype=complex)
    close = ~(np.abs(pts[:, None] - pts) > 2 * eps)
    if np.count_nonzero(close) == len(pts):
        return pts
    zs, dropped = pts.tolist(), set()
    rows, cols = np.nonzero(close)
    for i, j in zip(rows.tolist(), cols.tolist()):
        if i < j and i not in dropped and j not in dropped and not abs(zs[j] - zs[i]) > eps:
            dropped.add(j)
    return pts[[i for i in range(len(zs)) if i not in dropped]]


def convex_hull(pts: np.ndarray, eps: float) -> np.ndarray:
    """Monotone-chain hull, CCW from the lexicographically smallest vertex;
    a vertex within ``eps`` of the chord of its neighbours is dropped, and
    collinear inputs collapse to a segment."""
    pts = dedupe_points(pts, eps)
    if len(pts) <= 2:
        return pts
    zs = pts[np.lexsort((pts.imag, pts.real))].tolist()

    def chain(zs: list[complex]) -> list[complex]:
        out: list[complex] = []
        for z in zs:
            while len(out) >= 2 and _cross(out[-2], out[-1], z) <= eps * abs(z - out[-2]):
                out.pop()
            out.append(z)
        return out

    return np.array(chain(zs)[:-1] + chain(zs[::-1])[:-1], dtype=complex)


def _segment_distance(z: complex, a: complex, b: complex) -> float:
    """Distance from ``z`` to the segment from ``a`` to ``b``."""
    d = b - a
    t = (d.conjugate() * (z - a)).real / (abs(d) ** 2 or 1.0)
    return abs(z - a - min(max(t, 0.0), 1.0) * d)


def clip_halfplane(pts: list[complex], normal: complex, offset: float, eps: float,
                   chord: tuple[complex, complex] | None = None) -> list[complex]:
    """Intersect a convex vertex list with {z : Re(conj(normal) z) <= offset},
    keeping vertices within distance ``eps`` outside the line.

    ``chord``, when given, is the segment of the line that bounds the set the
    half-plane stands for, such as a polygon cut by one of its chords; a
    vertex outside the line is then kept only within ``eps`` of that segment.
    Where the chord meets an edge of that set at a small angle theta, the
    band along the whole line reaches about eps/theta past the chord's end,
    out of the set's eps-neighbourhood.

    The list is a point, a segment's endpoints (a 2-gon) or a CCW polygon,
    which may repeat vertices or hold collinear ones; so may the result.
    An edge is cut where it crosses the line, unless its inside end lies on
    the line or up to the slack past it: the crossing is then on the edge's
    extension (about slack/theta beyond the end, for an edge at angle theta
    to the line), outside the region clipped, and the cut is the end itself.

    Only the vertices past the line are tested against the slack and the
    chord.  Each run of consecutive outside vertices is replaced by the cuts
    on the two edges that leave it, and the inside vertices between runs are
    copied as slices.
    """
    conj, slack = normal.conjugate(), eps * abs(normal)
    vals = [(conj * z).real - offset for z in pts]
    outside = [i for i, v in enumerate(vals)
               if not (v <= 0 or v <= slack and (chord is None or _segment_distance(pts[i], *chord) <= eps))]
    n = len(pts)
    if not outside:
        return pts
    if len(outside) == n:
        return []

    def cut(i: int, j: int, e: int) -> tuple[complex, bool]:
        # The crossing of edge i -> j, whose inside end is e, and whether it
        # lies within eps of that end.
        if vals[e] >= 0:
            return pts[e], True
        z = pts[i] + vals[i] / (vals[i] - vals[j]) * (pts[j] - pts[i])
        return z, abs(z - pts[e]) <= eps

    # A cut lands next to the inside end of its edge in the output.  When the
    # two are within eps, only the one that comes first is kept, as a greedy
    # dedupe in output order would.  A chord through two vertices would
    # otherwise add a near-copy of each.  Runs are found in index order, so a
    # run through the last vertex and the first is found as two pieces, and
    # the edge between them crosses nothing.
    runs = [[outside[0], outside[0]]]
    for i in outside[1:]:
        if i == runs[-1][1] + 1:
            runs[-1][1] = i
        else:
            runs.append([i, i])
    out: list[complex] = []
    start = 0
    for a, b in runs:
        if a:  # edge a-1 -> a: its cut follows vertex a-1, which comes first
            out += pts[start:a]
            z, near = cut(a - 1, a, a - 1)
            if not near:
                out.append(z)
        if b < n - 1:  # edge b -> b+1: its cut comes first, and replaces a near vertex b+1
            z, near = cut(b, b + 1, b + 1)
            out.append(z)
            start = b + 1 + near
        else:
            start = n
    out += pts[start:]
    # Edge n-1 -> 0 crosses when exactly one of its ends is outside.  Its cut
    # comes last in the output, after vertex n-1 or after vertex 0 at the
    # start: either way its inside end comes first.
    if (outside[0] == 0) != (outside[-1] == n - 1):
        z, near = cut(n - 1, 0, n - 1 if outside[0] == 0 else 0)
        if not near:
            out.append(z)
    return out


def canonical_vertices(pts: np.ndarray, eps: float) -> np.ndarray:
    """Reduce to canonical form: dedupe and re-hull, which starts a polygon at
    its lexicographically smallest vertex; a segment's endpoints are sorted
    the same way."""
    hull = convex_hull(pts, eps)
    if len(hull) == 2:
        return hull[np.lexsort((hull.imag, hull.real))]
    return hull


def _nearest(pts: np.ndarray, z: complex) -> tuple[complex, bool]:
    """The point of the non-empty convex set's boundary nearest to ``z``, and
    whether ``z`` lies inside the polygon (never inside a point or segment).

    One pass over the edges: for edge a -> b, conj(b - a) (z - a) carries the
    projection of z on the edge in its real part and twice the signed area
    of a, b, z (``_cross``) in its imaginary part.  ``z`` is inside when it
    is on the left of every CCW edge; the nearest boundary point is the
    nearest of the edges' nearest points, the first of equals."""
    zs = np.asarray(pts, dtype=complex).tolist()
    if len(zs) == 1:
        return zs[0], False
    best, best_dist, inside = zs[0], np.inf, len(zs) > 2
    a = zs[0]
    for b in zs[1:] + zs[:1] if inside else zs[1:]:
        d = b - a
        w = d.conjugate() * (z - a)
        if w.imag < 0:
            inside = False
        den = abs(d) ** 2
        t = w.real / den if den else 0.0
        if not t > 0.0:
            t = 0.0
        elif t > 1.0:
            t = 1.0
        cand = a + t * d
        dist = abs(cand - z)
        if dist < best_dist:
            best, best_dist = cand, dist
        a = b
    return best, inside


def signed_distance(pts: np.ndarray, z: complex) -> float:
    """Euclidean distance from ``z`` to the convex set carried by ``pts``,
    negated inside a polygon (the distance to its boundary); +inf for the
    empty set.  A membership test within ``eps`` is ``<= eps``."""
    if len(pts) == 0:
        return np.inf
    near, inside = _nearest(pts, z)
    return -abs(near - z) if inside else abs(near - z)


def closest_point(pts: np.ndarray, z: complex) -> complex:
    """Point of the non-empty convex set closest to ``z``."""
    if len(pts) == 0:
        raise ValueError("empty set has no closest point")
    near, inside = _nearest(pts, z)
    return complex(z) if inside else complex(near)
