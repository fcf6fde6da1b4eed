"""Planar convex geometry on complex points: hulls, half-plane clipping,
membership tests.

A convex set is carried as an array of complex vertices: empty array,
single point, segment endpoints, or a CCW convex polygon.  All predicates
take an absolute tolerance; coordinates here are O(1) (inside the unit
disk), so no rescaling is needed.
"""

from __future__ import annotations

import numpy as np


def _cross(o: complex, a: complex, b: complex) -> float:
    return ((a - o).conjugate() * (b - o)).imag


def dedupe_points(pts: np.ndarray, eps: float) -> np.ndarray:
    """Drop points within ``eps`` of an already-kept point (greedy, ordered)."""
    kept: list[complex] = []
    for z in pts:
        if all(abs(z - w) > eps for w in kept):
            kept.append(complex(z))
    return np.array(kept, dtype=complex)


def convex_hull(pts: np.ndarray, eps: float) -> np.ndarray:
    """Monotone-chain hull, CCW; collinear inputs collapse to a segment."""
    pts = dedupe_points(np.asarray(pts, dtype=complex), eps)
    if len(pts) <= 2:
        return pts
    order = np.lexsort((pts.imag, pts.real))
    pts = pts[order]
    lower: list[complex] = []
    for z in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], z) <= eps:
            lower.pop()
        lower.append(complex(z))
    upper: list[complex] = []
    for z in pts[::-1]:
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], z) <= eps:
            upper.pop()
        upper.append(complex(z))
    return np.array(lower[:-1] + upper[:-1], dtype=complex)


def _clip_halfplane(pts: np.ndarray, normal: complex, offset: float, eps: float) -> np.ndarray:
    """Intersect a convex vertex set with {z : Re(conj(normal) z) <= offset}."""

    def value(z: complex) -> float:
        return (normal.conjugate() * z).real - offset

    if len(pts) == 0:
        return pts
    if len(pts) == 1:
        return pts if value(pts[0]) <= eps else pts[:0]
    if len(pts) == 2:
        a, b = pts
        va, vb = value(a), value(b)
        if va <= eps and vb <= eps:
            return pts
        if va > eps and vb > eps:
            return pts[:0]
        t = va / (va - vb)
        cut = a + t * (b - a)
        inside = a if va <= eps else b
        return np.array([inside, cut], dtype=complex)
    out: list[complex] = []
    n = len(pts)
    for i in range(n):
        cur, nxt = pts[i], pts[(i + 1) % n]
        vc, vn = value(cur), value(nxt)
        if vc <= eps:
            out.append(complex(cur))
        if (vc <= eps) != (vn <= eps) and abs(vc - vn) > 0:
            t = vc / (vc - vn)
            out.append(complex(cur + t * (nxt - cur)))
    return np.array(out, dtype=complex)


def _hull_halfplanes(hull: np.ndarray) -> list[tuple[complex, float]]:
    """Half-planes whose intersection is the hull (polygon or segment slab)."""
    planes: list[tuple[complex, float]] = []
    if len(hull) == 2:
        a, b = hull
        d = b - a
        n = 1j * d  # left normal of the segment direction
        planes.append((n, (n.conjugate() * a).real))
        planes.append((-n, (-n.conjugate() * a).real))
        planes.append((-d, (-d.conjugate() * a).real))
        planes.append((d, (d.conjugate() * b).real))
        return planes
    m = len(hull)
    for i in range(m):
        a, b = hull[i], hull[(i + 1) % m]
        n = -1j * (b - a)  # inward side of a CCW edge is the left side
        planes.append((n, (n.conjugate() * a).real))
    return planes


def clip_by_hull(pts: np.ndarray, hull: np.ndarray, eps: float) -> np.ndarray:
    """Intersect a convex vertex set with the hull of another point set."""
    if len(pts) == 0 or len(hull) == 0:
        return pts[:0]
    if len(hull) == 1:
        p = complex(hull[0])
        return np.array([p], dtype=complex) if contains(pts, p, eps) else pts[:0]
    for normal, offset in _hull_halfplanes(hull):
        pts = _clip_halfplane(pts, normal, offset, eps)
        if len(pts) == 0:
            break
    return canonical_vertices(pts, eps)


def clip_left_of(pts: np.ndarray, a: complex, b: complex, eps: float) -> np.ndarray:
    """Intersect a convex vertex set with the closed half-plane left of the
    directed line a -> b (the inner side of a CCW hull edge)."""
    normal = -1j * (b - a)
    pts = _clip_halfplane(pts, normal, (normal.conjugate() * a).real, eps)
    return canonical_vertices(pts, eps)


def canonical_vertices(pts: np.ndarray, eps: float) -> np.ndarray:
    """Reduce to canonical form: dedupe, re-hull, rotate to a fixed start."""
    pts = dedupe_points(np.asarray(pts, dtype=complex), eps)
    if len(pts) <= 2:
        if len(pts) == 2:
            order = np.lexsort((pts.imag, pts.real))
            return pts[order]
        return pts
    hull = convex_hull(pts, eps)
    if len(hull) <= 2:
        return canonical_vertices(hull, eps)
    start = int(np.lexsort((hull.imag, hull.real))[0])
    return np.roll(hull, -start)


def contains(pts: np.ndarray, z: complex, eps: float) -> bool:
    """Membership of a point in the convex set carried by ``pts``."""
    if len(pts) == 0:
        return False
    if len(pts) == 1:
        return abs(z - pts[0]) <= eps
    if len(pts) == 2:
        return segment_distance(pts[0], pts[1], z) <= eps
    n = len(pts)
    for i in range(n):
        if _cross(pts[i], pts[(i + 1) % n], z) < -eps:
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
        ok &= (np.conj(b - a) * (zs - a)).imag >= -eps
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
