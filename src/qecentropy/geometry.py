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
    """Drop points within ``eps`` of an already-kept point (greedy, ordered)."""
    kept: list[complex] = []
    for z in np.asarray(pts, dtype=complex).tolist():
        if all(abs(z - w) > eps for w in kept):
            kept.append(z)
    return np.array(kept, dtype=complex)


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


def clip_halfplane(pts: list[complex], normal: complex, offset: float, eps: float) -> list[complex]:
    """Intersect a convex vertex list with {z : Re(conj(normal) z) <= offset},
    keeping vertices within distance ``eps`` outside the line.

    The list is a point, a segment's endpoints or a CCW polygon, which may
    repeat vertices or hold collinear ones; the result is of the same form.
    An edge is cut where it crosses the line, unless its inside end lies on
    the line or up to the slack past it: the crossing is then on the edge's
    extension (about slack/theta beyond the end, for an edge at angle theta
    to the line), outside the region clipped, and the cut is the end itself.
    """
    conj, slack = normal.conjugate(), eps * abs(normal)
    vals = [(conj * z).real - offset for z in pts]
    inside = [v <= slack for v in vals]
    if all(inside):
        return pts
    if not any(inside):
        return []
    if len(pts) == 2:
        (a, b), (va, vb) = pts, vals
        kept, vk = (a, va) if inside[0] else (b, vb)
        cut = kept if vk >= 0 else a + va / (va - vb) * (b - a)
        return [kept] if abs(cut - kept) <= eps else [kept, cut]
    # A cut lands next to the inside end of its edge in the output.  When the
    # two are within eps, only the one that comes first is kept, as a greedy
    # dedupe in output order would.  A chord through two vertices would
    # otherwise add a near-copy of each.
    out: list[complex] = []
    n, skip = len(pts), False
    for i in range(n):
        j = (i + 1) % n
        if inside[i] and not skip:
            out.append(pts[i])
        skip = False
        if inside[i] != inside[j]:
            e = i if inside[i] else j
            if vals[e] >= 0:
                cut, near = pts[e], True
            else:
                cut = pts[i] + vals[i] / (vals[i] - vals[j]) * (pts[j] - pts[i])
                near = abs(cut - pts[e]) <= eps
            if inside[i] or j == 0:  # the vertex comes first
                if not near:
                    out.append(cut)
            else:
                out.append(cut)
                skip = near
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
