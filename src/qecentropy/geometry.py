"""Planar convex geometry on complex points: hulls, half-plane clipping,
membership tests.

A convex set is carried as an array of complex vertices: empty array,
single point, segment endpoints, or a CCW convex polygon.  All predicates
take an absolute tolerance, a distance: a side test compares a point's
distance from a line with it, never an area.
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
        kept, cut = (a if inside[0] else b), a + va / (va - vb) * (b - a)
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
            cut = pts[i] + vals[i] / (vals[i] - vals[j]) * (pts[j] - pts[i])
            near = abs(cut - pts[i if inside[i] else j]) <= eps
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


def contains(pts: np.ndarray, z: complex, eps: float) -> bool:
    """Membership of a point in the convex set carried by ``pts``, within
    distance ``eps``."""
    if len(pts) == 0:
        return False
    if len(pts) == 1:
        return abs(z - pts[0]) <= eps
    if len(pts) == 2:
        return segment_distance(pts[0], pts[1], z) <= eps
    zs = np.asarray(pts, dtype=complex).tolist()
    n = len(zs)
    for i in range(n):
        a, b = zs[i], zs[(i + 1) % n]
        if _cross(a, b, z) < -eps * abs(b - a):
            return False
    return True


def contains_many(pts: np.ndarray, zs: np.ndarray, eps: float) -> np.ndarray:
    """Vectorised membership of many points; same semantics as :func:`contains`."""
    zs = np.asarray(zs, dtype=complex)
    if len(pts) == 0:
        return np.zeros(zs.shape, dtype=bool)
    if len(pts) == 1:
        return np.abs(zs - pts[0]) <= eps
    if len(pts) == 2:
        return segment_distance_many(pts[0], pts[1], zs) <= eps
    ok = np.ones(zs.shape, dtype=bool)
    n = len(pts)
    for i in range(n):
        a, b = pts[i], pts[(i + 1) % n]
        ok &= (np.conj(b - a) * (zs - a)).imag >= -eps * abs(b - a)
    return ok


def segment_distance(a: complex, b: complex, z: complex) -> float:
    d = b - a
    den = abs(d) ** 2
    if den == 0:
        return abs(z - a)
    t = min(1.0, max(0.0, (d.conjugate() * (z - a)).real / den))
    return abs(a + t * d - z)


def segment_distance_many(a: complex, b: complex, zs: np.ndarray) -> np.ndarray:
    d = b - a
    den = abs(d) ** 2
    if den == 0:
        return np.abs(zs - a)
    t = np.clip((np.conj(d) * (zs - a)).real / den, 0.0, 1.0)
    return np.abs(a + t * d - zs)


def closest_point(pts: np.ndarray, z: complex, eps: float) -> complex:
    """Point of the convex set closest to ``z``."""
    if len(pts) == 0:
        raise ValueError("empty set has no closest point")
    if len(pts) == 1:
        return complex(pts[0])
    if len(pts) == 2:
        a, b = pts
        d = b - a
        t = min(1.0, max(0.0, (d.conjugate() * (z - a)).real / abs(d) ** 2))
        return complex(a + t * d)
    if contains(pts, z, eps):
        return complex(z)
    best, best_dist = None, np.inf
    n = len(pts)
    for i in range(n):
        a, b = pts[i], pts[(i + 1) % n]
        d = b - a
        t = min(1.0, max(0.0, (d.conjugate() * (z - a)).real / abs(d) ** 2))
        cand = a + t * d
        if abs(cand - z) < best_dist:
            best, best_dist = complex(cand), abs(cand - z)
    return best
