"""Bit-for-bit oracles for the range's hot paths: the decomposition's
stacked cluster split, the representatives cached on a decomposition, the
clip that copies the vertices between outside runs as slices, the dedupe
pass that settles far pairs with one numpy test, and the clustering pass.

Each reference below is the simpler implementation that the library's code
replaced: one eigh per degenerate cluster, one np.mean per cluster on every
call, a clip in three passes over all vertices (line values, inside flags,
then the crossing loop), and the pairwise predicates in Python alone.  Equal
bytes are equal float.hex of every part."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qecentropy import binary_unitary, geometry, numerics
from qecentropy.binary_unitary import constituent_hulls, dfs_exists, numerical_range
from qecentropy.numerics import DEFAULT_TOL, EigenDecomposition, dag
from qecentropy.sampling import haar_unitary

EPS = DEFAULT_TOL.eps_geom


def _chain_clusters_reference(values, threshold):
    z = values.tolist()
    if not z:
        return ()
    breaks = [i for i in range(1, len(z)) if abs(z[i] - z[i - 1]) > threshold]
    bounds = [0, *breaks, len(z)]
    groups = [tuple(range(a, b)) for a, b in zip(bounds, bounds[1:])]
    if breaks and abs(z[-1] - z[0]) <= threshold:
        groups[0] = groups[0] + groups.pop()
    return tuple(groups)


def _decompose_reference(u, tol=DEFAULT_TOL):
    u = numerics._require_unitary(u, tol)
    n = u.shape[0]
    h = (u + dag(u)) / 2
    k = (u - dag(u)) / (2j)
    w, v = np.linalg.eigh(h)
    for cluster in _chain_clusters_reference(w, tol.eps_eig * n):
        if len(cluster) > 1:
            idx = list(cluster)
            block = dag(v[:, idx]) @ k @ v[:, idx]
            _, rot = np.linalg.eigh((block + dag(block)) / 2)
            v[:, idx] = v[:, idx] @ rot
    eigs = np.sum(np.conj(v) * (u @ v), axis=0)
    phases = np.mod(np.angle(eigs), 2 * np.pi)
    phases[phases > 2 * np.pi - tol.eps_eig * n] -= 2 * np.pi
    order = np.argsort(phases, kind="stable")
    eigs, v = eigs[order], v[:, order]
    return eigs, v, _chain_clusters_reference(eigs, tol.eps_eig * n)


def _representatives_reference(dec):
    eigs = dec.eigenvalues
    z = eigs.tolist()
    return [z[c[0]] if len(c) == 1 else complex(np.mean(eigs[list(c)])) for c in dec.cluster_map]


def _segment_distance(z, a, b):
    d = b - a
    t = (d.conjugate() * (z - a)).real / (abs(d) ** 2 or 1.0)
    return abs(z - a - min(max(t, 0.0), 1.0) * d)


def _clip_reference(pts, normal, offset, eps, chord=None):
    conj, slack = normal.conjugate(), eps * abs(normal)
    vals = [(conj * z).real - offset for z in pts]
    inside = ([v <= slack for v in vals] if chord is None else
              [v <= 0 or v <= slack and _segment_distance(z, *chord) <= eps for z, v in zip(pts, vals)])
    if all(inside):
        return pts
    if not any(inside):
        return []
    out, n, skip = [], len(pts), False
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
            if inside[i] or j == 0:
                if not near:
                    out.append(cut)
            else:
                out.append(cut)
                skip = near
    return out


def _dedupe_reference(pts, eps):
    kept = []
    for z in np.asarray(pts, dtype=complex).tolist():
        if all(abs(z - w) > eps for w in kept):
            kept.append(z)
    return np.array(kept, dtype=complex)


def _hexed(zs):
    return [(complex(z).real.hex(), complex(z).imag.hex()) for z in zs]


# Spectra: random, evenly spaced, repeated values, exact pairs, and twins
# 1e-7 to 1e-5 rad apart among other eigenvalues (the crowded spectra that
# probe item 1's fallback in ROADMAP.md); in a Haar basis or diagonal.
FAMILIES = ("random", "even", "repeated", "pairs", "twins")


def _phases(family, n, rng):
    if family == "random":
        return rng.uniform(0, 2 * np.pi, n)
    if family == "even":
        return rng.uniform(0, 2 * np.pi) + 2 * np.pi * np.arange(n) / n
    if family == "repeated":
        base = rng.uniform(0, 2 * np.pi, int(rng.integers(1, n + 1)))
        return base[rng.integers(0, len(base), n)]
    base = rng.uniform(0, 2 * np.pi, (n + 1) // 2)
    if family == "pairs":
        return np.concatenate([base, base[: n // 2]])
    twins = min(n // 2, int(rng.integers(2, 5)))
    gaps = 10.0 ** rng.uniform(-7, -5, twins)
    return np.concatenate([base, base[:twins] + gaps, rng.uniform(0, 2 * np.pi, n // 2 - twins)])


@st.composite
def unitaries(draw, max_n=16):
    family = draw(st.sampled_from(FAMILIES))
    n = draw(st.integers(1, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    phases = _phases(family, n, rng)
    if draw(st.booleans()):
        return np.diag(np.exp(1j * phases))
    q = haar_unitary(n, rng)
    return (q * np.exp(1j * phases)) @ dag(q)


@settings(max_examples=300, deadline=None)
@given(unitaries())
@example(np.diag(np.exp(1j * np.array([0.3, 0.3, 1.1, 1.1, 1.1, 2.0, 4.0]))))
def test_decomposition_matches_the_per_cluster_split(u):
    dec = numerics._decompose_unitary(u, DEFAULT_TOL)
    eigs, vecs, clusters = _decompose_reference(u)
    assert dec.eigenvalues.tobytes() == eigs.tobytes()
    assert dec.eigenvectors.tobytes() == vecs.tobytes()
    assert dec.cluster_map == clusters
    assert _hexed(dec._representatives) == _hexed(_representatives_reference(dec))
    assert all(type(z) is complex for z in dec._representatives)


def test_representatives_match_per_cluster_means_on_large_clusters():
    # Up to four clusters of one size, 2 to 40 eigenvalues, past numpy's
    # 8-way unrolled pairwise sum, among single eigenvalues; each size's
    # clusters are averaged as one stack, whose rows must sum as lone arrays.
    rng = np.random.default_rng(31)
    for size in range(2, 41):
        for count in (1, 2, 4):
            singles = int(rng.integers(0, 4))
            n = size * count + singles
            eigs = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
            blocks = tuple(tuple(range(i, i + size)) for i in range(0, size * count, size))
            clusters = blocks + tuple((i,) for i in range(size * count, n))
            dec = EigenDecomposition(eigs, np.eye(n), clusters)
            assert _hexed(dec._representatives) == _hexed(_representatives_reference(dec)), (size, count)


def test_representatives_are_read_only_and_built_once():
    u = np.diag(np.exp(1j * np.array([0.3, 0.3, 1.1, 1.1, 1.1, 2.0, 4.0])))
    dec = numerics.unitary_eigen(u)
    assert isinstance(dec._representatives, tuple)
    reps = dec._representatives
    for k in range(1, 8):
        numerical_range(u, k)
        constituent_hulls(u, k)
        dfs_exists(u, k)
        assert binary_unitary._run_arcs(dec, k)[0] is reps


@settings(max_examples=150, deadline=None)
@given(unitaries(max_n=14))
def test_every_clip_and_dedupe_of_a_range_matches_the_references(u):
    clip, dedupe = geometry.clip_halfplane, geometry.dedupe_points

    def checked_clip(pts, normal, offset, eps, chord=None):
        got = clip(pts, normal, offset, eps, chord)
        assert _hexed(got) == _hexed(_clip_reference(list(pts), normal, offset, eps, chord))
        return got

    def checked_dedupe(pts, eps):
        got = dedupe(pts, eps)
        assert got.tobytes() == _dedupe_reference(pts, eps).tobytes()
        return got

    with pytest.MonkeyPatch.context() as m:
        m.setattr(geometry, "clip_halfplane", checked_clip)
        m.setattr(geometry, "dedupe_points", checked_dedupe)
        numerics._eigen_memo.last = None
        for k in range(1, len(u) + 1):
            numerical_range(u, k)


def _line(a, b):
    normal = -1j * (b - a)
    return normal, (normal.conjugate() * a).real


# Line Im z = 0, inside below it; chord from 0 to 1.  Vertices within EPS
# above the line are kept only on the chord, so a kept vertex can sit
# between two that go, and the outside set splits into runs.
MULTI_RUN_LISTS = [
    # The flat top: off the chord, on it, off it.
    [0.5 - 1j, 2 + 3e-11j, 0.5 + 5e-11j, -1 + 3e-11j],
    # Two runs past the line proper, split by a vertex on the chord.
    [0.5 - 1j, 3 + 1j, 0.4 + 2e-11j, -2 + 1j],
    # A run through the last vertex and the first, and one more.
    [2 + 3e-11j, 0.5 + 5e-11j, -1 + 3e-11j, 0.5 - 1j],
    [-1 + 3e-11j, -0.5 - 1j, 1.5 - 1j, 2 + 3e-11j, 0.7 + 6e-11j],
    # Cuts within EPS of their inside end, which replace or drop it.
    [0.5 + 5e-11j, -1 + 1j, 0.2 - 2e-11j, 0.9 - 5e-11j, 3 + 2j],
    [0.25 - 0.5e-10j, 2 + 2e-11j, 0.75 - 1e-11j, -1 + 2e-11j, 0.5 - 1j],
    # A segment's endpoints, either way round.
    [0.5 - 1j, 0.5 + 1j],
    [0.5 + 1j, 0.5 - 1j],
    [0.5 + 5e-11j, 3 + 5e-11j],
]


@pytest.mark.parametrize("pts", MULTI_RUN_LISTS)
def test_clip_matches_the_three_pass_clip_on_split_outside_sets(pts):
    normal, offset = _line(1 + 0j, 0j)
    for chord in ((0j, 1 + 0j), None):
        for shift in range(len(pts)):
            rolled = pts[shift:] + pts[:shift]
            got = geometry.clip_halfplane(rolled, normal, offset, EPS, chord)
            assert _hexed(got) == _hexed(_clip_reference(rolled, normal, offset, EPS, chord))


def test_a_vertex_on_the_chord_splits_the_outside_set():
    normal, offset = _line(1 + 0j, 0j)
    pts = MULTI_RUN_LISTS[0]
    got = geometry.clip_halfplane(pts, normal, offset, EPS, (0j, 1 + 0j))
    # Each off-chord vertex gives way to the crossing on its edge to the
    # vertex below the line; on its edge to the kept vertex, which is past
    # the line, the cut is that vertex itself, so it appears once.
    assert len(got) == 4 and got[0] == pts[0] and got[2] == pts[2]
    assert got[1].imag == got[3].imag == 0.0
    assert abs(got[1] - 2) < 1e-9 and abs(got[3] + 1) < 1e-9


# Vertices by kind: deep inside, on the line, within EPS past it on the
# chord, within EPS past it off the chord, and past it beyond the slack.
_KINDS = {
    "inside": st.floats(0.01, 0.99).map(lambda x: complex(x, -0.5)),
    "on": st.floats(0.0, 1.0).map(lambda x: complex(x, 0.0)),
    "slack_on_chord": st.tuples(st.floats(0.0, 1.0), st.floats(1e-12, 1e-10)).map(lambda p: complex(*p)),
    "slack_off_chord": st.tuples(st.floats(1.5, 3.0), st.floats(1e-12, 1e-10)).map(lambda p: complex(*p)),
    "past": st.tuples(st.floats(-3.0, 3.0), st.floats(1e-9, 2.0)).map(lambda p: complex(*p)),
}


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(sorted(_KINDS)).flatmap(lambda kind: _KINDS[kind]), min_size=1, max_size=12),
       st.booleans())
def test_clip_matches_the_three_pass_clip_on_any_list(pts, with_chord):
    normal, offset = _line(1 + 0j, 0j)
    chord = (0j, 1 + 0j) if with_chord else None
    got = geometry.clip_halfplane(pts, normal, offset, EPS, chord)
    assert _hexed(got) == _hexed(_clip_reference(pts, normal, offset, EPS, chord))


# Values whose neighbour gaps sit around the threshold, where numpy's and
# Python's complex abs can round apart, and points as close to each other.
_gap_factors = st.lists(st.sampled_from([0.5, 1.0, 1.0, 2.0]).flatmap(
    lambda f: st.floats(0.999 * f, 1.001 * f)) | st.floats(2.1, 50.0), min_size=0, max_size=24)


@settings(max_examples=300, deadline=None)
@given(_gap_factors, st.floats(0.0, 2 * np.pi), st.sampled_from([1e-9, 1.6e-9, 1e-6, 0.1]))
def test_chain_clusters_matches_the_python_predicate_near_the_threshold(factors, start, threshold):
    # A chord of length t subtends the angle 2 asin(t / 2).
    steps = [2 * np.arcsin(min(1.0, f * threshold / 2)) for f in factors]
    phases = start + np.concatenate([[0.0], np.cumsum(steps)])
    if phases[-1] - phases[0] >= 2 * np.pi:
        return
    values = np.exp(1j * phases)
    assert numerics._chain_clusters(values, threshold) == _chain_clusters_reference(values, threshold)
    reals = np.cumsum(np.concatenate([[start], np.multiply(factors, threshold)]))
    assert numerics._chain_clusters(reals, threshold) == _chain_clusters_reference(reals, threshold)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.floats(0.0, 2 * np.pi), st.floats(0.3, 2.5)),
                min_size=0, max_size=16))
def test_dedupe_matches_the_greedy_python_pass_near_eps(draws):
    # Points near a few centres, at 0.3 to 2.5 EPS in random directions.
    centres = np.exp(1j * np.arange(6))
    pts = [centres[c] + r * EPS * np.exp(1j * a) for c, a, r in draws]
    assert geometry.dedupe_points(pts, EPS).tobytes() == _dedupe_reference(pts, EPS).tobytes()


def _pairs_where_numpy_abs_rounds_apart(count, seed):
    """Seeded pairs of unimodular values whose gap numpy's abs and abs()
    round to different floats."""
    rng = np.random.default_rng(seed)
    found = []
    while len(found) < count:
        a = np.exp(1j * rng.uniform(0, 2 * np.pi, 64))
        b = a * np.exp(1j * 10.0 ** rng.uniform(-9, -1, 64))
        gaps = np.abs(b - a)
        found += [(x, y) for x, y, g in zip(a.tolist(), b.tolist(), gaps.tolist()) if g != abs(y - x)]
    return found[:count]


def test_gaps_at_the_threshold_are_decided_by_the_python_predicate():
    # With the threshold or eps at abs() of the gap itself, the pair is
    # joined (not > threshold) and dropped (not > eps), whichever way
    # numpy's abs rounds.
    pairs = _pairs_where_numpy_abs_rounds_apart(40, 3131)
    for x, y in pairs:
        threshold = abs(y - x)
        values = np.array([x, y, y * np.exp(0.5j)])
        assert numerics._chain_clusters(values, threshold) == _chain_clusters_reference(values, threshold)
        assert numerics._chain_clusters(values, threshold)[0] == (0, 1)
        assert geometry.dedupe_points([x, y], threshold).tobytes() == np.array([x]).tobytes()
    assert any(np.abs(y - x) > abs(y - x) for x, y in pairs)
    assert any(np.abs(y - x) < abs(y - x) for x, y in pairs)
