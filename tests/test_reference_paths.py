"""Bit-for-bit oracles for the hot paths of the range and grouping requests:
the decomposition's stacked cluster split, the representatives cached on a
decomposition, the clip that copies the vertices between outside runs as
slices, the dedupe pass that settles far pairs with one numpy test, the
clustering pass, the grouping basis summed over its weighted members, the
KL threshold read from the channel's Gram solve, the extremes read from
vertex lists, and the closed-form entropy of one spectrum array.

Each reference below is the simpler implementation that the library's code
replaced: one eigh per degenerate cluster, one np.mean per cluster on every
call, a clip in three passes over all vertices (line values, inside flags,
then the crossing loop), the pairwise predicates in Python alone, a basis
summed over every member of a group, a threshold from a whole ``ChoiGram``,
numpy scalars in ``extremal_lambda``, a spectrum sent through a tuple, and
``np.linalg.norm`` and ``np.eye`` in the residuals.  Equal bytes are equal
float.hex of every part."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qecentropy import BinaryUnitaryChannel, binary_unitary, code as code_module, geometry, numerics
from qecentropy.binary_unitary import (constituent_hulls, dfs_exists, extremal_lambda, grouping_code,
                                       numerical_range)
from qecentropy.channel import choi_gram, validate_channel
from qecentropy.code import code_subspace
from qecentropy.entropy import _entropy_of_spectrum
from qecentropy.errors import LambdaOutsideRegionError, NoCodeError, NoFeasiblePartitionError, NotCorrectable
from qecentropy.numerics import DEFAULT_TOL, EigenDecomposition, dag
from qecentropy.sampling import haar_unitary, random_channel

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
def unitaries(draw, max_n=16, families=FAMILIES):
    family = draw(st.sampled_from(families))
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


# The grouping request: numerical_range, extremal_lambda, grouping_code,
# kl_check and biunitary_code_entropy, as the min-entropy-code command runs them.


def _frobenius_reference(a):
    return float(np.linalg.norm(a))


def _support_weights_reference(z, lam, slack, members):
    w = [z[i] for i in members]
    if len(w) == 1:
        t, near = [1.0], w[0]
    elif len(w) == 2:
        d = w[1] - w[0]
        den = abs(d) ** 2
        tj = min(max((d.conjugate() * (lam - w[0])).real / den, 0.0), 1.0) if den else 0.0
        t, near = [1.0 - tj, tj], w[0] + tj * d
    else:
        w = np.array(w)
        try:
            t = np.linalg.solve(np.array([w.real, w.imag, np.ones(3)]), np.array([lam.real, lam.imag, 1.0]))
        except np.linalg.LinAlgError:
            return None
        if t.min() < -slack:
            return None
        t = np.clip(t, 0.0, None)
        t /= t.sum()
        near = complex((t * w.real).sum(), (t * w.imag).sum())
    return t if abs(near - lam) <= slack else None


_support_weights = binary_unitary._support_weights


def _checked_support_weights(z, lam, slack, members):
    assert len(members) in (2, 3)
    got = _support_weights(z, lam, slack, members)
    want = _support_weights_reference(z, lam, slack, members)
    assert (got is None) == (want is None)
    if got is not None:
        assert [float(x).hex() for x in got] == [float(x).hex() for x in want]
    return got


def _grouping_reference(u, k, lam, tol=DEFAULT_TOL):
    """grouping_code with every member in its group's basis vector: one sqrt,
    column, product and sum per member, the weights held in an n-vector."""
    u = numerics.as_matrix(u)
    n = u.shape[0]
    dec = binary_unitary._eigen_holding(u, k, lam, tol)
    slack = binary_unitary._membership_slack(tol)
    z = dec.eigenvalues.tolist()
    at = [i for i in range(n) if abs(z[i] - lam) <= slack]
    angle = {i: cmath.phase(z[i] - lam) for i in range(n) if abs(z[i] - lam) > slack}
    order = at + sorted(angle, key=angle.__getitem__)
    grouped = []
    for j in range(k):
        group = order[j::k]
        support = binary_unitary._group_support(z, lam, slack, group, angle)
        if support is None:
            raise NoFeasiblePartitionError(lam)
        t = np.zeros(n)
        t[support[0]] = support[1]
        group.sort()
        grouped.append((tuple(group), t[group]))
    grouped.sort(key=lambda pair: pair[0])
    basis = [sum(np.sqrt(t[a]) * dec.eigenvectors[:, idx] for a, idx in enumerate(group)) for group, t in grouped]
    weights = tuple(tuple(float(x) for x in t) for _, t in grouped)
    return tuple(group for group, _ in grouped), weights, code_subspace(basis, tol).basis


def _kl_reference(c, code, tol=DEFAULT_TOL):
    """_kl_analysis with the threshold and the Choi rank read from a whole ChoiGram."""
    validate_channel(c, tol)
    m, n, k = c.num_kraus, code.ambient_dim, code.k
    compressed = c.kraus @ code.basis
    cols = compressed.transpose(1, 0, 2).reshape(n, m * k)
    t = (dag(cols) @ cols).reshape(m, k, m, k)
    lam = np.einsum("iaja->ij", t) / k
    residual = _frobenius_reference(t - lam[:, None, :, None] * np.eye(k)[:, None])
    gram = choi_gram(c, tol)
    threshold = tol.eps_kl * max(1.0, float(gram.weights[-1]))
    if residual > threshold:
        raise NotCorrectable(residual, threshold)
    lam = (lam + dag(lam)) / 2
    w, vectors = np.linalg.eigh(lam)
    rank = numerics._psd_rank(w, tol, "error correction matrix")
    return compressed, lam, np.clip(w, 0.0, None), vectors, rank, residual, threshold, gram.choi_rank


def _extremal_reference(region):
    """extremal_lambda over the vertex array's numpy scalars."""
    if region.kind is binary_unitary.RegionKind.EMPTY:
        raise NoCodeError("empty")
    moduli = np.abs(region.vertices)
    best = float(moduli.max())
    winners = [complex(z) for z, m in zip(region.vertices, moduli) if best - m <= binary_unitary.VERTEX_TIE_ATOL]
    winners.sort(key=lambda z: (z.real, z.imag))
    return tuple(winners), geometry.closest_point(region.vertices, 0.0 + 0.0j)


def _outcome(fn, *args):
    """What ``fn`` returns, or the type of the domain or value error it raises."""
    try:
        return fn(*args)
    except (LambdaOutsideRegionError, NoFeasiblePartitionError, NoCodeError, ValueError) as exc:
        return type(exc)


def _kl_outcome(fn, c, code):
    try:
        return fn(c, code, DEFAULT_TOL)
    except NotCorrectable as exc:
        return "NotCorrectable", exc.residual.hex(), exc.threshold.hex()


def _assert_same_kl(c, code):
    got = _kl_outcome(code_module._kl_analysis, c, code)
    want = _kl_outcome(_kl_reference, c, code)
    if isinstance(want[0], str):
        assert got == want
        return
    compressed, lam, residual, threshold, choi_rank = got
    assert compressed.tobytes() == want[0].tobytes()
    assert lam.matrix.tobytes() == want[1].tobytes()
    assert lam.spectrum.tobytes() == want[2].tobytes()
    assert lam.vectors.tobytes() == want[3].tobytes()
    assert lam.rank == want[4]
    assert (residual.hex(), threshold.hex()) == (want[5].hex(), want[6].hex())
    assert choi_rank == want[7]


def _assert_same_grouping(u, k, lam, c):
    got = _outcome(grouping_code, u, k, lam)
    want = _outcome(_grouping_reference, u, k, lam)
    if isinstance(want, type):
        assert got is want
        return
    partition, weights, basis = want
    assert got.partition == partition
    assert [[x.hex() for x in t] for t in got.weights] == [[x.hex() for x in t] for t in weights]
    assert all(type(x) is float for t in got.weights for x in t)
    assert got.code.basis.tobytes() == basis.tobytes()
    _assert_same_kl(c, got.code)


def _edge_points(vertices):
    """Points on each edge of a segment or polygon: a quarter and half way along."""
    zs = vertices.tolist()
    edges = list(zip(zs, zs[1:] + zs[:1])) if len(zs) > 2 else list(zip(zs, zs[1:]))
    return [a + f * (b - a) for a, b in edges for f in (0.25, 0.5)]


GROUPING_FAMILIES = ("random", "even", "pairs", "repeated")


@settings(max_examples=100, deadline=None)
@given(unitaries(max_n=16, families=GROUPING_FAMILIES), st.floats(0.0, 1.0))
@example(np.diag(np.exp(1j * np.array([0.3, 0.3, 1.1, 1.1, 2.0, 2.0, 4.0, 4.0]))), 0.1)
@example(np.diag(np.exp(2j * np.pi * np.arange(9) / 9)), 0.25)
def test_grouping_requests_match_the_references(u, p):
    # Every k dividing N; lambda at each vertex of the rank-k range and on
    # each edge, where a group's weights include exact zeros; diagonal U,
    # whose eigenvectors hold exact zeros, and U in a Haar basis.
    n = len(u)
    c = BinaryUnitaryChannel(p, u).to_channel()
    with pytest.MonkeyPatch.context() as m:
        m.setattr(binary_unitary, "_support_weights", _checked_support_weights)
        for k in [k for k in range(1, n + 1) if n % k == 0]:
            region = numerical_range(u, k)
            got, want = _outcome(extremal_lambda, region), _outcome(_extremal_reference, region)
            if want is NoCodeError:
                assert got is NoCodeError
                continue
            assert _hexed(got.min_entropy_lambdas) == _hexed(want[0])
            assert _hexed([got.max_entropy_lambda]) == _hexed([want[1]])
            assert all(type(z) is complex for z in (*got.min_entropy_lambdas, got.max_entropy_lambda))
            for lam in region.vertices.tolist() + _edge_points(region.vertices):
                entropy = binary_unitary.biunitary_code_entropy(p, lam)
                assert entropy.hex() == _entropy_of_spectrum(binary_unitary.lambda_spectrum(p, lam)).hex()
                _assert_same_grouping(u, k, lam, c)


def test_zero_weights_of_either_sign_change_no_bit_of_the_basis():
    # Supports padded with every other member of the group at -0.0 and the
    # support's own exact zeros made -0.0: the sum over the weighted members
    # alone must equal the sum over all members, bit for bit.
    group_support = binary_unitary._group_support

    def padded(z, lam, slack, group, angle):
        members, t = group_support(z, lam, slack, group, angle)
        weight = dict(zip(members, t))
        every = sorted(group)
        return every, [weight.get(i, -0.0) or -0.0 for i in every]

    rng = np.random.default_rng(33)
    seen = 0
    with pytest.MonkeyPatch.context() as m:
        m.setattr(binary_unitary, "_group_support", padded)
        for family in GROUPING_FAMILIES:
            for diagonal in (True, False):
                n = 12
                phases = _phases(family, n, rng)
                if diagonal:
                    u = np.diag(np.exp(1j * phases))
                else:
                    q = haar_unitary(n, rng)
                    u = (q * np.exp(1j * phases)) @ dag(q)
                c = BinaryUnitaryChannel(0.3, u).to_channel()
                for k in (1, 2, 3, 4, 6):
                    region = numerical_range(u, k)
                    for lam in region.vertices.tolist() + _edge_points(region.vertices):
                        built = _outcome(grouping_code, u, k, lam)
                        seen += not isinstance(built, type) and any(
                            math.copysign(1.0, x) < 0 for t in built.weights for x in t)
                        _assert_same_grouping(u, k, lam, c)
    assert seen > 0


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 12), st.integers(1, 6), st.integers(0, 2**32 - 1), st.booleans())
def test_kl_analysis_matches_the_choi_gram_threshold(n, m, seed, near_code):
    # Random channels on random subspaces (mostly refused, with residual and
    # threshold compared) and on subspaces nudged from a code of the
    # channel's own making (accepted), every k up to n.
    rng = np.random.default_rng(seed)
    c = random_channel(n, m, rng)
    for k in range(1, n + 1):
        q = haar_unitary(n, rng)[:, :k]
        _assert_same_kl(c, code_subspace(q.T))
    if near_code:
        u = haar_unitary(n, rng)
        for k in range(1, n + 1):
            _assert_same_kl(BinaryUnitaryChannel(0.5, u).to_channel(),
                            code_subspace(numerics.unitary_eigen(u).eigenvectors[:, :k].T))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40), st.integers(1, 40), st.integers(0, 2**32 - 1), st.booleans())
def test_residual_helpers_match_norm_and_eye(rows, cols, seed, transposed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    a = a.T if transposed else a
    assert numerics.frobenius(a).hex() == _frobenius_reference(a).hex()
    assert numerics.frobenius(a.real).hex() == _frobenius_reference(a.real).hex()
    b, _ = np.linalg.qr(a) if a.shape[0] >= a.shape[1] else np.linalg.qr(a.T)
    assert numerics._isometry_residual(b).hex() == _frobenius_reference(dag(b) @ b - np.eye(b.shape[1])).hex()
    c = random_channel(rows % 12 + 1, cols % 5 + 1, rng)
    flat = c.kraus.reshape(-1, c.dim)
    assert c._trace_residual.hex() == _frobenius_reference(dag(flat) @ flat - np.eye(c.dim)).hex()
