import collections
import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qecentropy
from qecentropy import binary_unitary, geometry, numerics
from qecentropy.binary_unitary import (
    BinaryUnitaryChannel,
    RegionKind,
    biunitary_code_entropy,
    constituent_hulls,
    dfs_exists,
    entropy_vs_p,
    extremal_lambda,
    LAMBDA_MEMBERSHIP_FLOOR,
    grouping_code,
    lambda_spectrum,
    numerical_range,
)
from qecentropy.code import kl_check
from qecentropy.errors import (
    LambdaOutsideRegionError,
    NoCodeError,
    NoFeasiblePartitionError,
    UnsupportedCodeDimensionError,
)
from qecentropy.numerics import DEFAULT_TOL, ToleranceConfig, dag, unitary_eigen
from qecentropy.sampling import haar_unitary

U4 = np.diag(np.exp(1j * np.pi * np.array([1, 3, 5, 7]) / 4))
U9 = np.diag(np.exp(2j * np.pi * np.arange(9) / 9))
ZZ = np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex)


def test_from_pair_reduces_to_single_unitary():
    rng = np.random.default_rng(0)
    w1, w2 = haar_unitary(3, rng), haar_unitary(3, rng)
    c = BinaryUnitaryChannel.from_pair(0.3, w1, w2)
    assert np.allclose(c.u, dag(w1) @ w2, atol=1e-14)
    with pytest.raises(ValueError):
        BinaryUnitaryChannel(1.2, np.eye(2))


def test_binary_unitary_channel_checks_u_under_the_callers_tolerances():
    # Unitary to 3e-7: accepted at eps_eig = 1e-7, rejected at the default.
    c = BinaryUnitaryChannel(0.1, U9 @ np.diag(1 + 1e-8 * np.arange(9)))
    assert c.to_channel(ToleranceConfig(eps_eig=1e-7)).num_kraus == 2
    with pytest.raises(ValueError, match="unitary"):
        c.to_channel()


def test_numerical_range_point_at_origin():
    region = numerical_range(U4, 2)
    assert region.kind is RegionKind.POINT
    assert abs(region.vertices[0]) <= 1e-9


def test_numerical_range_segment_for_zz():
    region = numerical_range(ZZ, 2)
    assert region.kind is RegionKind.SEGMENT
    assert np.allclose(sorted(region.vertices, key=lambda z: z.real), [-1, 1], atol=1e-9)


def test_numerical_range_qutrit_polygon():
    region = numerical_range(U9, 3)
    assert region.kind is RegionKind.POLYGON
    assert region.distance(0j) < 0
    best = max(np.abs(region.vertices))
    target = 0.09246 - 0.52400j
    assert min(abs(z - target) for z in region.vertices) < 1e-3
    assert all(abs(z) <= 1 + 1e-9 for z in region.vertices)
    assert abs(best - abs(target)) < 1e-3


def test_rank_one_range_is_classical_numerical_range():
    region = numerical_range(U4, 1)
    assert region.kind is RegionKind.POLYGON
    assert sorted(np.round(region.vertices, 9).tolist(), key=lambda z: (z.real, z.imag)) == \
        sorted(np.round(np.diag(U4), 9).tolist(), key=lambda z: (z.real, z.imag))


def test_numerical_range_empty_and_full_rank():
    # N distinct eigenvalues and k = N leaves nothing after clipping.
    region = numerical_range(U4, 4)
    assert region.kind is RegionKind.EMPTY
    with pytest.raises(NoCodeError):
        extremal_lambda(region)


def test_numerical_range_conjugation_invariant():
    rng = np.random.default_rng(1)
    base = numerical_range(U9, 3)
    for _ in range(5):
        v = haar_unitary(9, rng)
        region = numerical_range(v @ U9 @ dag(v), 3)
        assert region.kind is base.kind
        assert len(region.vertices) == len(base.vertices)
        for z in region.vertices:
            assert min(abs(z - w) for w in base.vertices) < 1e-8


def test_extremal_lambda_segment_endpoints():
    region = numerical_range(ZZ, 2)
    ext = extremal_lambda(region)
    assert set(np.round(ext.min_entropy_lambdas, 9)) == {-1, 1}
    assert abs(ext.max_entropy_lambda) < 1e-9


def test_lambda_spectrum_matches_2x2_eigensolver():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        p = float(rng.uniform())
        lam = complex(*rng.uniform(-1, 1, 2)) / np.sqrt(2)
        plus, minus = lambda_spectrum(p, lam)
        root = np.sqrt(p * (1 - p))
        m = np.array([[1 - p, root * lam], [root * np.conj(lam), p]])
        w = np.linalg.eigvalsh(m)
        assert abs(plus - w[1]) < 1e-12 and abs(minus - w[0]) < 1e-12


def test_lambda_spectrum_closed_forms():
    plus, minus = lambda_spectrum(0.01, 0j)
    assert abs(plus - 0.99) < 1e-12 and abs(minus - 0.01) < 1e-12
    plus, minus = lambda_spectrum(0.5, 0.6 + 0j)
    assert abs(plus - 0.8) < 1e-12 and abs(minus - 0.2) < 1e-12
    with pytest.raises(ValueError):
        lambda_spectrum(0.3, 1.5 + 0j)


def test_entropy_closed_forms_and_monotonicity():
    assert abs(biunitary_code_entropy(0.01, 0j) - 0.0807931) < 1e-6
    assert biunitary_code_entropy(0.5, 1 + 0j) == 0.0
    assert abs(biunitary_code_entropy(0.5, 0j) - 1.0) < 1e-12
    # Strictly decreasing in |lambda| for fixed p.
    values = [biunitary_code_entropy(0.3, complex(r)) for r in np.linspace(0, 0.99, 12)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_entropy_vs_p_profile():
    grid = np.linspace(0, 1, 11)
    rows = entropy_vs_p(U4, 2, 0j, grid)
    entropies = [s for _, s in rows]
    assert entropies[0] == 0.0 and entropies[-1] == 0.0
    assert np.argmax(entropies) == 5  # grid point nearest p = 1/2
    assert all(a < b for a, b in zip(entropies[:6], entropies[1:6]))
    with pytest.raises(LambdaOutsideRegionError):
        entropy_vs_p(U4, 2, 0.5 + 0j, grid)


@pytest.mark.parametrize("u, k", [
    (np.diag(np.exp(1j * np.array([0, 0, 0, 1, 2, 3.5]))), 3),  # a 3-fold eigenvalue at 1
    (np.diag(np.exp(2j * np.pi * np.arange(6) / 6)), 1),  # k = 1: the vertex 1 of the hexagon
])
def test_entropy_vs_p_takes_every_lambda_the_range_holds(u, k):
    # lambda = 1 + 5e-10 lies past a range vertex on the unit circle, but
    # within the membership slack, so it must get entropies, not a ValueError
    # about its modulus.
    lam = 1 + 5e-10
    assert abs(lam) - 1 < LAMBDA_MEMBERSHIP_FLOOR
    rows = entropy_vs_p(u, k, lam, [0.0, 0.25, 0.5])
    assert [p for p, _ in rows] == [0.0, 0.25, 0.5]
    assert all(s == 0.0 for _, s in rows)
    with pytest.raises(ValueError, match="exceeds 1"):
        lambda_spectrum(0.25, 1 + 2 * LAMBDA_MEMBERSHIP_FLOOR)
    # A looser eps_geom widens the membership slack past the floor that
    # lambda_spectrum allows |lambda| above 1.
    loose = ToleranceConfig(eps_geom=1e-6)
    assert entropy_vs_p(u, k, 1 + 5e-7, [0.25], loose) == [(0.25, 0.0)]


def _closed_form_reference(p, modulus):
    """{L+, L-} and their entropy for one p in scalar arithmetic, in the
    closed form's order of operations; the sum runs over the positive
    weights alone."""
    root = np.sqrt(max(0.0, 1.0 - 4.0 * p * (1.0 - p) * (1.0 - min(1.0, modulus**2))))
    spectrum = (0.5 * (1.0 + root), 0.5 * (1.0 - root))
    w = np.array([x for x in spectrum if x > 0])
    return spectrum, max(0.0, float(-(w * np.log2(w)).sum()))


def _assert_grid_matches_pointwise(u, k, lam, grid):
    """entropy_vs_p's stacked closed form gives, to the last bit, what
    biunitary_code_entropy and the scalar reference give at each p, and
    +0.0 for every zero; lambda_spectrum matches the reference too."""
    rows = entropy_vs_p(u, k, lam, grid)
    modulus = min(abs(lam), 1.0)
    ps = [float(p) for p in grid]
    for entropy in (biunitary_code_entropy, lambda p, m: _closed_form_reference(p, m)[1]):
        expected = [(p, entropy(p, modulus)) for p in ps]
        assert [(p.hex(), s.hex()) for p, s in rows] == [(p.hex(), s.hex()) for p, s in expected], lam
    for p in ps:
        spectrum = [float(x).hex() for x in lambda_spectrum(p, modulus)]
        assert spectrum == [x.hex() for x in _closed_form_reference(p, modulus)[0]], (p, lam)
    assert all(np.copysign(1.0, s) == 1.0 for _, s in rows)
    return rows


# (U, k, lambda): the centre of a square, its vertex on the unit circle, a
# lambda 5e-10 past a 3-fold eigenvalue at 1 (inside the membership slack)
# and 1 + 5e-10 past the hexagon's vertex 1 at k = 1.
GRID_LAMBDAS = [
    (U4, 2, 0j),
    (U4, 1, complex(U4[0, 0])),
    (np.diag(np.exp(1j * np.array([0, 0, 0, 1, 2, 3.5]))), 3, 1 + 5e-10),
    (np.diag(np.exp(2j * np.pi * np.arange(6) / 6)), 1, 1 + 5e-10),
]


def test_entropy_vs_p_matches_the_pointwise_closed_form():
    rng = np.random.default_rng(1620)
    grids = [[0.0, 0.5, 1.0], [i / 20 for i in range(21)], np.linspace(0, 1, 101),
             [1.0, 0.0, 0.5, 0.5, *rng.uniform(0, 1, 40)], []]
    for u, k, lam in GRID_LAMBDAS:
        for grid in grids:
            _assert_grid_matches_pointwise(u, k, lam, grid)
    assert [s for _, s in _assert_grid_matches_pointwise(U4, 2, 0j, [0.0, 0.5, 1.0])] == [0.0, 1.0, 0.0]
    for n in (3, 8, 16):
        u = _unitary_with_phases(rng.uniform(0, 2 * np.pi, n), rng)
        for k in range(1, n // 2 + 2):
            region = numerical_range(u, k)
            if region.kind is not RegionKind.EMPTY:
                for lam in _grouping_lambdas(region, rng)[:2]:
                    _assert_grid_matches_pointwise(u, k, lam, grids[1] + list(rng.uniform(0, 1, 10)))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), max_size=30), st.integers(0, len(GRID_LAMBDAS) - 1),
       st.permutations([0.0, 0.5, 1.0]))
def test_entropy_vs_p_matches_the_pointwise_closed_form_property(grid, case, ends):
    u, k, lam = GRID_LAMBDAS[case]
    _assert_grid_matches_pointwise(u, k, lam, [*ends, *grid])


def test_entropy_vs_p_checks_the_grid_in_order():
    with pytest.raises(ValueError, match=r"must be in \[0, 1\], got 1.5"):
        entropy_vs_p(U4, 2, 0j, [0.5, 1.5, -0.5])
    with pytest.raises(ValueError, match="got nan"):
        entropy_vs_p(U4, 2, 0j, [0.5, float("nan")])
    # lambda is checked first, as before any entropy.
    with pytest.raises(LambdaOutsideRegionError):
        entropy_vs_p(U4, 2, 0.5 + 0j, [1.5])


# U with three 3-fold eigenvalues, k = 3: the range is the triangle of the
# three eigenvalues, and this lambda lies 1.5e-9 past its vertex 1, within
# 1e-9 of both edge lines through it.
CORNER_U = np.diag(np.exp(1j * np.array([0, 0, 0, 1, 1, 1, 2.5, 2.5, 2.5])))
CORNER_LAMBDA = 1.0000000011513153 - 9.614952872449876e-10j


def test_a_lambda_past_a_corner_is_outside_the_range():
    region = numerical_range(CORNER_U, 3)
    assert region.kind is RegionKind.POLYGON
    assert 1.4e-9 < region.distance(CORNER_LAMBDA) < 1.6e-9
    with pytest.raises(LambdaOutsideRegionError):
        grouping_code(CORNER_U, 3, CORNER_LAMBDA)
    with pytest.raises(LambdaOutsideRegionError):
        entropy_vs_p(CORNER_U, 3, CORNER_LAMBDA, [0.25])


def test_grouping_code_example_antipodal_pairing():
    built = grouping_code(U4, 2, 0j)
    assert built.partition == ((0, 2), (1, 3))
    for t in built.weights:
        assert np.allclose(t, [0.5, 0.5], atol=1e-12)
    lam, _ = kl_check(BinaryUnitaryChannel(0.01, U4).to_channel(), built.code)
    extracted = lam.matrix[0, 1] / np.sqrt(0.01 * 0.99)
    assert abs(extracted) < 1e-12


def test_grouping_code_qutrit_lambda0():
    region = numerical_range(U9, 3)
    lam0 = min(extremal_lambda(region).min_entropy_lambdas,
               key=lambda z: abs(z - (0.09246 - 0.52400j)))
    built = grouping_code(U9, 3, lam0)
    assert built.code.k == 3
    c = BinaryUnitaryChannel(0.01, U9).to_channel()
    lam, residual = kl_check(c, built.code)
    assert residual <= 1e-8
    extracted = lam.matrix[0, 1] / np.sqrt(0.01 * 0.99)
    assert abs(extracted - lam0) <= 1e-8


def test_grouping_code_degenerate_eigenvalue():
    built = grouping_code(ZZ, 2, 1 + 0j)
    c = BinaryUnitaryChannel(0.5, ZZ).to_channel()
    _, residual = kl_check(c, built.code)
    assert residual <= 1e-10
    # lambda on the unit circle: zero entropy despite p = 1/2.
    assert biunitary_code_entropy(0.5, 1 + 0j) == 0.0


def test_grouping_code_errors():
    with pytest.raises(UnsupportedCodeDimensionError):
        grouping_code(U9, 2, 0j)
    with pytest.raises(LambdaOutsideRegionError):
        grouping_code(U4, 2, 0.5 + 0j)


def test_dfs_exists():
    exists, lam = dfs_exists(ZZ, 2)
    assert exists and abs(abs(lam) - 1.0) < 1e-12
    exists, lam = dfs_exists(U4, 2)
    assert not exists and lam is None
    exists, lam = dfs_exists(np.eye(5), 3)
    assert exists and abs(lam - 1.0) < 1e-12


def test_constituent_hulls_cover_region():
    hulls = constituent_hulls(U9, 3)
    region = numerical_range(U9, 3)
    for hull in hulls:
        for z in region.vertices:
            assert geometry.signed_distance(hull, complex(z)) <= 1e-9


def test_region_json():
    obj = numerical_range(ZZ, 2).to_json()
    assert obj["k"] == 2 and obj["kind"] == "Segment" and len(obj["vertices"]) == 2


# Differential oracle: the rank-k range as the intersection of the hulls of
# every (N-k+1)-subset of the spectrum, C(N, k-1) of them, deduplicated by the
# distinct eigenvalues each subset holds.  Slow, and kept only as a reference
# for the phase-contiguous run construction in numerical_range; the clipping
# by a whole hull below serves only this oracle.


def _hull_halfplanes(hull: np.ndarray) -> list[tuple[complex, float]]:
    """Half-planes whose intersection is the hull (polygon or segment slab)."""
    planes: list[tuple[complex, float]] = []
    if len(hull) == 2:
        a, b = hull.tolist()
        d = b - a
        n = 1j * d  # left normal of the segment direction
        planes.append((n, (n.conjugate() * a).real))
        planes.append((-n, (-n.conjugate() * a).real))
        planes.append((-d, (-d.conjugate() * a).real))
        planes.append((d, (d.conjugate() * b).real))
        return planes
    zs = hull.tolist()
    m = len(zs)
    for i in range(m):
        a, b = zs[i], zs[(i + 1) % m]
        n = -1j * (b - a)  # inward side of a CCW edge is the left side
        planes.append((n, (n.conjugate() * a).real))
    return planes


def _clip_by_hull(pts: np.ndarray, hull: np.ndarray, eps: float) -> np.ndarray:
    """Intersect a convex vertex set with the hull of another point set."""
    if len(pts) == 0 or len(hull) == 0:
        return pts[:0]
    if len(hull) == 1:
        p = complex(hull[0])
        return np.array([p], dtype=complex) if geometry.signed_distance(pts, p) <= eps else pts[:0]
    zs = np.asarray(pts, dtype=complex).tolist()
    for normal, offset in _hull_halfplanes(hull):
        zs = geometry.clip_halfplane(zs, normal, offset, eps)
        if not zs:
            break
    return geometry.canonical_vertices(np.array(zs, dtype=complex), eps)


def test_clip_by_hull_polygon_intersection():
    square = np.array([0, 2, 2 + 2j, 2j])
    shifted = np.array([1 + 1j, 3 + 1j, 3 + 3j, 1 + 3j])
    out = _clip_by_hull(square, shifted, DEFAULT_TOL.eps_geom)
    assert len(out) == 4
    assert {complex(z) for z in np.round(out, 9)} == {1 + 1j, 2 + 1j, 2 + 2j, 1 + 2j}


def test_clip_by_hull_to_point_and_empty():
    square = np.array([0, 1, 1 + 1j, 1j])
    touching = np.array([1 + 1j, 2 + 1j, 2 + 2j, 1 + 2j])
    out = _clip_by_hull(square, touching, DEFAULT_TOL.eps_geom)
    assert len(out) == 1 and abs(out[0] - (1 + 1j)) < 1e-9
    disjoint = touching + 1 + 1j
    assert len(_clip_by_hull(square, disjoint, DEFAULT_TOL.eps_geom)) == 0


def test_clip_polygon_by_segment_gives_chord():
    square = np.array([-1 - 1j, 1 - 1j, 1 + 1j, -1 + 1j])
    seg = np.array([-2.0 + 0j, 2.0 + 0j])
    out = _clip_by_hull(seg, square, DEFAULT_TOL.eps_geom)
    assert len(out) == 2
    assert np.allclose(sorted(out, key=lambda z: z.real), [-1, 1], atol=1e-9)


def _subset_range_reference(u, k, tol=DEFAULT_TOL):
    dec = unitary_eigen(u, tol)
    eigs, clusters = dec.eigenvalues, dec.cluster_map
    n, eps = len(eigs), tol.eps_geom
    owner = np.empty(n, dtype=int)
    reps = []
    for ci, cluster in enumerate(clusters):
        owner[list(cluster)] = ci
        reps.append(complex(np.mean(eigs[list(cluster)])))
    counts = np.array([len(c) for c in clusters])
    supports = set()
    for excl in itertools.combinations(range(n), k - 1):
        remaining = counts.copy()
        for idx in excl:
            remaining[owner[idx]] -= 1
        supports.add(frozenset(np.flatnonzero(remaining > 0).tolist()))
    region = geometry.canonical_vertices(geometry.convex_hull(np.array(reps), eps), eps)
    full = frozenset(range(len(reps)))
    for support in sorted(supports, key=sorted):
        if support == full:
            continue
        hull = geometry.convex_hull(np.array([reps[i] for i in sorted(support)]), eps)
        region = _clip_by_hull(region, hull, eps)
        if len(region) == 0:
            break
    region = geometry.canonical_vertices(region, eps)
    kinds = (RegionKind.EMPTY, RegionKind.POINT, RegionKind.SEGMENT)
    return (kinds[len(region)] if len(region) < 3 else RegionKind.POLYGON), region


def _assert_matches_reference(u, k, tol=DEFAULT_TOL):
    kind, expected = _subset_range_reference(u, k, tol)
    region = numerical_range(u, k, tol)
    assert region.kind is kind, (k, kind, region.kind)
    assert len(region.vertices) == len(expected)
    if len(expected):
        dist = np.abs(region.vertices[:, None] - expected[None, :])
        assert dist.min(axis=1).max() <= tol.eps_geom
        assert dist.min(axis=0).max() <= tol.eps_geom


def _oracle_phases(family, n, rng):
    """even: evenly spaced; random: uniform; paired: clusters of two phases
    0.02-0.1 apart; repeated: 1 to N-1 distinct phases with multiplicity."""
    if family == "even":
        return rng.uniform(0, 2 * np.pi) + 2 * np.pi * np.arange(n) / n
    if family == "random":
        return rng.uniform(0, 2 * np.pi, n)
    if family == "paired":
        centres = rng.uniform(0, 2 * np.pi, (n + 1) // 2)
        return np.concatenate([centres, centres[: n // 2] + rng.uniform(0.02, 0.1, n // 2)])
    distinct = int(rng.integers(1, n))
    base = rng.uniform(0, 2 * np.pi, distinct)
    phases = base[rng.integers(0, distinct, n)]
    phases[:distinct] = base
    return phases


def _unitary_with_phases(phases, rng):
    q = haar_unitary(len(phases), rng)
    return (q * np.exp(1j * np.asarray(phases))) @ dag(q)


# Spectra per dimension: 500 in all, fewer where the reference costs 2^N clips.
ORACLE_SPECTRA = {3: 80, 4: 80, 5: 80, 6: 80, 7: 60, 8: 50, 9: 32, 10: 20, 11: 10, 12: 8}
ORACLE_FAMILIES = ("even", "random", "paired", "repeated")


@pytest.mark.parametrize("n", sorted(ORACLE_SPECTRA))
def test_numerical_range_matches_subset_reference(n):
    rng = np.random.default_rng(100 + n)
    for trial in range(ORACLE_SPECTRA[n]):
        family = ORACLE_FAMILIES[trial % len(ORACLE_FAMILIES)]
        u = _unitary_with_phases(_oracle_phases(family, n, rng), rng)
        for k in range(1, n + 1):
            _assert_matches_reference(u, k)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 23), min_size=3, max_size=9), st.data())
def test_numerical_range_matches_subset_reference_property(steps, data):
    # Phases on a 24-point grid, so equal eigenvalues and antipodal pairs are common.
    k = data.draw(st.integers(1, len(steps)), label="k")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    u = _unitary_with_phases(2 * np.pi * np.array(steps) / 24, np.random.default_rng(seed))
    _assert_matches_reference(u, k)


# Evenly spaced spectra have a closed-form range: each run of N-k+1
# eigenvalues cuts a chord at distance cos(pi k/N) from 0, so the range is a
# regular N-gon with that inradius when 2k < N, the point 0 when 2k = N and
# empty when 2k > N.  At 2k = N the N/2 chords are diameters, and in floats
# they do not meet in one point, so the exact range of the float eigenvalues
# is empty there; the clipping slack makes it the Point 0, which perfbench's
# numrange check requires.  Exact predicates (ROADMAP item 1) must keep it.


@pytest.mark.parametrize("n", range(4, 17))
def test_evenly_spaced_ranges_have_the_closed_form(n):
    rng = np.random.default_rng(2000 + n)
    for _ in range(3):
        offset = rng.uniform(0, 2 * np.pi)
        u = _unitary_with_phases(offset + 2 * np.pi * np.arange(n) / n, rng)
        for k in range(1, n + 1):
            region = numerical_range(u, k)
            if 2 * k > n:
                assert region.kind is RegionKind.EMPTY, (n, k)
            elif 2 * k == n:
                assert region.kind is RegionKind.POINT and abs(region.vertices[0]) <= 1e-9, (n, k)
            else:
                assert region.kind is RegionKind.POLYGON and len(region.vertices) == n, (n, k)
                modulus = np.cos(np.pi * k / n) / np.cos(np.pi / n)
                assert np.abs(np.abs(region.vertices) - modulus).max() <= 1e-9, (n, k)
                steps = (np.angle(region.vertices) - offset - np.pi * (k + 1) / n) / (2 * np.pi / n)
                assert np.abs(steps - np.round(steps)).max() <= 1e-9, (n, k)
        if n >= 12 and n % 2 == 0:
            assert _exact_vertex_count(unitary_eigen(u).eigenvalues, n // 2) == 0


def test_numerical_range_canonicalises_once(monkeypatch):
    # One pass over the chord half-planes, then one dedupe and re-hull.
    calls = {"canonical_vertices": 0, "convex_hull": 0}
    for name in calls:
        def counting(*args, _name=name, _f=getattr(geometry, name)):
            calls[_name] += 1
            return _f(*args)

        monkeypatch.setattr(geometry, name, counting)
    region = numerical_range(U9, 3)
    assert region.kind is RegionKind.POLYGON
    assert calls == {"canonical_vertices": 1, "convex_hull": 1}


def test_range_with_a_cluster_across_phase_zero_matches_subset_reference():
    # The cluster of eigenvalues 0, 1 and 4 wraps past phase 0.
    u = np.diag(np.exp(1j * np.array([2 * np.pi - 5.5e-10, 1.0, 2 * np.pi - 1e-10, 2.0, 0.0])))
    assert unitary_eigen(u).cluster_map == ((0, 1, 4), (2,), (3,))
    for k in range(1, 6):
        _assert_matches_reference(u, k)


# Exact oracle for spectra with close eigenvalues: the range cut from the
# float eigenvalues in rational arithmetic, with no tolerance, by the hull
# edges of every cyclic run; its vertex count after dropping repeated and
# collinear vertices.


def _exact_clip_left_of(pts, a, b):
    def side(p):
        return (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])

    out = []
    for i, p in enumerate(pts):
        q = pts[(i + 1) % len(pts)]
        sp, sq = side(p), side(q)
        if sp >= 0:
            out.append(p)
        if (sp >= 0) != (sq >= 0):
            t = sp / (sp - sq)
            out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    return out


def _exact_vertex_count(eigs, k):
    """Vertex count of the rank-k range of ``eigs``: distinct unimodular
    values in phase order."""
    zs = [(Fraction(float(z.real)), Fraction(float(z.imag))) for z in eigs]
    n = len(zs)
    region = list(zs)
    for start in range(n):
        run = [zs[(start + j) % n] for j in range(n - k + 1)]
        if len(run) == 1:
            inside = len(region) > 2 and all(
                _exact_clip_left_of([run[0]], region[i - 1], region[i]) for i in range(len(region)))
            region = [run[0]] if run[0] in region or inside else []
        else:
            for i in range(len(run) if len(run) > 2 else 2):
                region = _exact_clip_left_of(region, run[i - 1], run[i])
        if not region:
            return 0
    pts = list(dict.fromkeys(region))
    while len(pts) > 2:
        flat = [i for i in range(len(pts)) if _exact_clip_left_of(
            [pts[i]], pts[i - 1], pts[(i + 1) % len(pts)]) and _exact_clip_left_of(
            [pts[i]], pts[(i + 1) % len(pts)], pts[i - 1])]
        if not flat:
            break
        del pts[flat[0]]
    return len(pts)


def _near_phases(n, rng):
    """Spread phases, some replaced by a twin 1e-7 to 1e-5 from another."""
    phases = 2 * np.pi * (np.arange(n) + rng.uniform(-0.3, 0.3, n)) / n + rng.uniform(0, 2 * np.pi)
    twins = rng.choice(n, size=2 * int(rng.integers(1, n // 3 + 1)), replace=False)
    for i, j in twins.reshape(-1, 2):
        phases[i] = phases[j] + rng.choice([-1, 1]) * 10 ** rng.uniform(-7, -5)
    return phases


@pytest.mark.parametrize("d", [1e-7, 1e-6, 1e-5])
def test_numerical_range_keeps_vertices_near_a_close_pair(d):
    # Comparing an area with eps_geom drops one of these vertices for
    # d <= 1e-6; the side tests compare distances with it.
    u = np.diag(np.exp(1j * np.array([0, d, 1, 2, 3, 4, 5])))
    region = numerical_range(u, 2)
    assert _exact_vertex_count(unitary_eigen(u).eigenvalues, 2) == 7
    assert region.kind is RegionKind.POLYGON and len(region.vertices) == 7


def test_numerical_range_near_spectra_match_exact_vertex_count():
    rng = np.random.default_rng(23)
    for _ in range(30):
        n = int(rng.integers(4, 13))
        u = _unitary_with_phases(_near_phases(n, rng), rng)
        eigs = unitary_eigen(u).eigenvalues
        for k in range(1, n + 1):
            assert len(numerical_range(u, k).vertices) == _exact_vertex_count(eigs, k), (n, k)


def _assert_ranges_nest_and_exist(u):
    """Lambda_{k+1} lies in Lambda_k: each vertex of the smaller range within
    the membership slack of the larger; and Lambda_k is not empty when
    N >= 3k - 2, as for every N x N matrix (Li, Poon & Sze 2009)."""
    n = u.shape[0]
    slack = binary_unitary._membership_slack(DEFAULT_TOL)
    regions = [numerical_range(u, k) for k in range(1, n + 1)]
    for wide, narrow in zip(regions, regions[1:]):
        assert all(wide.distance(v) <= slack for v in narrow.vertices), (n, narrow.k)
    for region in regions[: (n + 2) // 3]:
        assert region.kind is not RegionKind.EMPTY, (n, region.k)


@pytest.mark.parametrize("family", ("random", "even", "twin"))
def test_ranges_nest_and_exist_up_to_the_bound(family):
    rng = np.random.default_rng(1300 + ("random", "even", "twin").index(family))
    for n in range(3, 17):
        for _ in range(4):
            phases = _near_phases(n, rng) if family == "twin" else _oracle_phases(family, n, rng)
            _assert_ranges_nest_and_exist(_unitary_with_phases(phases, rng))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 23), min_size=3, max_size=12), st.integers(0, 2**32 - 1))
def test_ranges_nest_and_exist_up_to_the_bound_property(steps, seed):
    # Phases on a 24-point grid, so repeated eigenvalues and collinear
    # triples are common.
    _assert_ranges_nest_and_exist(
        _unitary_with_phases(2 * np.pi * np.array(steps) / 24, np.random.default_rng(seed)))


def test_constituent_hulls_are_the_distinct_runs():
    # Nine distinct eigenvalues, k = 3: nine runs of seven, none repeated.
    assert len(constituent_hulls(U9, 3)) == 9
    # ZZ has two clusters of two; every run of three holds both.
    assert [len(h) for h in constituent_hulls(ZZ, 2)] == [2]
    assert len(constituent_hulls(U4, 4)) == 4


def _constituent_hulls_reference(u, k, tol=DEFAULT_TOL):
    # constituent_hulls as a numpy pass per hull: the arc by modular fancy
    # indexing, rolled to the first index of the smallest (re, im).
    reps, arcs = binary_unitary._run_arcs(unitary_eigen(u, tol), k)
    reps, m = np.array(reps), len(reps)
    hulls = []
    for first, size in arcs:
        pts = reps[(first + np.arange(size)) % m]
        hulls.append(np.roll(pts, -int(np.lexsort((pts.imag, pts.real))[0])))
    return hulls


@pytest.mark.parametrize("family", ("random", "even", "repeated"))
def test_constituent_hulls_match_the_numpy_reference(family):
    rng = np.random.default_rng(1700 + ["random", "even", "repeated"].index(family))
    for n in range(1, 65):
        u = np.diag(np.exp(1j * _scalar_pass_phases(family, n, rng)))
        for k in range(1, n + 1):
            hulls, expected = constituent_hulls(u, k), _constituent_hulls_reference(u, k)
            assert [h.dtype for h in hulls] == [complex] * len(expected), (n, k)
            # Bit for bit: equal bytes are equal float.hex of every part.
            assert [h.tobytes() for h in hulls] == [h.tobytes() for h in expected], (n, k)


# Bit-for-bit oracles for the scalar passes: the numpy bodies of
# _chain_clusters and _run_arcs before them, with the representatives as
# _representatives formed them.


def _chain_clusters_reference(values, threshold):
    n = len(values)
    if n == 0:
        return ()
    breaks = (np.flatnonzero(np.abs(np.diff(values)) > threshold) + 1).tolist()
    if not breaks:
        return (tuple(range(n)),)
    bounds = [0, *breaks, n]
    groups = [tuple(range(a, b)) for a, b in zip(bounds, bounds[1:])]
    if abs(values[-1] - values[0]) <= threshold:
        groups[0] = groups[0] + groups.pop()
    return tuple(groups)


def _run_arcs_reference(dec, k):
    eigs, clusters = dec.eigenvalues, dec.cluster_map
    n, m = len(eigs), len(clusters)
    reps = [complex(eigs[c[0]] if len(c) == 1 else np.mean(eigs[list(c)])) for c in clusters]
    owner = np.empty(n, dtype=int)
    owner[np.concatenate(clusters)] = np.repeat(np.arange(m), [len(c) for c in clusters])
    boundary = np.tile(owner != np.roll(owner, 1), 2)
    crossed = np.concatenate([[0], np.cumsum(boundary)])
    starts = np.arange(n)
    sizes = np.minimum(crossed[starts + n - k + 1] - crossed[starts + 1] + 1, m)
    firsts = np.where(sizes == m, 0, owner)
    return reps, list(dict.fromkeys(zip(firsts.tolist(), sizes.tolist())))


SCALAR_FAMILIES = ("random", "even", "repeated", "twin", "wrap")


def _scalar_pass_phases(family, n, rng):
    """Phases: random, evenly spaced, repeated, near twins 1e-7 apart, or
    a run 1e-7 apart across phase 0."""
    if family == "random":
        return rng.uniform(0, 2 * np.pi, n)
    if family == "even":
        return rng.uniform(0, 2 * np.pi) + 2 * np.pi * np.arange(n) / n
    if family == "repeated":
        base = rng.uniform(0, 2 * np.pi, int(rng.integers(1, n + 1)))
        return base[rng.integers(0, len(base), n)]
    if family == "twin":
        base = rng.uniform(0, 2 * np.pi, (n + 1) // 2)
        return np.concatenate([base, base[: n // 2] + 1e-7])[:n]
    return np.concatenate([2 * np.pi + 1e-7 * (np.arange(n // 2 + 1) - n // 4),
                           rng.uniform(1, 5, n - n // 2 - 1)])


def _assert_arcs_match_reference(dec):
    for k in range(1, len(dec.eigenvalues) + 1):
        reps, arcs = binary_unitary._run_arcs(dec, k)
        expected_reps, expected_arcs = _run_arcs_reference(dec, k)
        assert arcs == expected_arcs, (len(reps), k)
        hexed = [(z.real.hex(), z.imag.hex()) for z in reps]
        assert hexed == [(z.real.hex(), z.imag.hex()) for z in expected_reps], k
        assert all(type(z) is complex for z in reps)


@pytest.mark.parametrize("family", SCALAR_FAMILIES)
def test_scalar_passes_match_the_numpy_reference(family):
    rng = np.random.default_rng(1610 + SCALAR_FAMILIES.index(family))
    for n in range(1, 65):
        phases = np.sort(np.mod(_scalar_pass_phases(family, n, rng), 2 * np.pi))
        eigs = np.exp(1j * phases)
        # Clustered as unitary_eigen clusters, and with thresholds that join
        # the near twins, the run across phase 0 and then whole arcs.
        for threshold in (DEFAULT_TOL.eps_eig * n, 1e-6, 1e-3, 0.5):
            clusters = numerics._chain_clusters(eigs, threshold)
            assert clusters == _chain_clusters_reference(eigs, threshold), (n, threshold)
            reals = np.sort(eigs.real)
            assert numerics._chain_clusters(reals, threshold) == _chain_clusters_reference(reals, threshold)
            _assert_arcs_match_reference(numerics.EigenDecomposition(eigs, np.eye(n), clusters))
        if n <= 16:
            dec = unitary_eigen(_unitary_with_phases(phases, rng))
            assert dec.cluster_map == _chain_clusters_reference(dec.eigenvalues, DEFAULT_TOL.eps_eig * n)
            _assert_arcs_match_reference(dec)


def test_scalar_passes_match_the_numpy_reference_on_one_cluster():
    for n in (1, 2, 5, 16):
        eigs = np.full(n, np.exp(0.3j))
        clusters = numerics._chain_clusters(eigs, 1e-9)
        assert clusters == _chain_clusters_reference(eigs, 1e-9) == ((*range(n),),)
        _assert_arcs_match_reference(numerics.EigenDecomposition(eigs, np.eye(n), clusters))
        assert binary_unitary._run_arcs(numerics.EigenDecomposition(eigs, np.eye(n), clusters), 1)[1] == [(0, 1)]
    # Evenly spaced: one cluster chained round the whole circle, or none.
    eigs = np.exp(2j * np.pi * np.arange(8) / 8)
    assert numerics._chain_clusters(eigs, 0.8) == _chain_clusters_reference(eigs, 0.8) == (tuple(range(8)),)
    assert numerics._chain_clusters(eigs[:0], 1.0) == _chain_clusters_reference(eigs[:0], 1.0) == ()


# Existence oracle for grouping_code: the equal-size partition search as it
# was before the table of minimal supports, which solves for the weights of
# every candidate group (up to C(N/k, 3) 3x3 solves each) and prunes nothing.
# Slow, and kept only as a reference: both find a code or both fail, and each
# code grouping_code returns is then checked on its own terms.


def _solve_group_weights(zs, lam, atol):
    m = len(zs)
    for i in range(m):
        if abs(zs[i] - lam) <= atol:
            t = np.zeros(m)
            t[i] = 1.0
            return t
    for i, j in itertools.combinations(range(m), 2):
        d = zs[j] - zs[i]
        den = abs(d) ** 2
        if den == 0:
            continue
        tj = float(np.clip((np.conj(d) * (lam - zs[i])).real / den, 0.0, 1.0))
        if abs(zs[i] + tj * d - lam) <= atol:
            t = np.zeros(m)
            t[i], t[j] = 1.0 - tj, tj
            return t
    for i, j, l in itertools.combinations(range(m), 3):
        a = np.array([
            [zs[i].real, zs[j].real, zs[l].real],
            [zs[i].imag, zs[j].imag, zs[l].imag],
            [1.0, 1.0, 1.0],
        ])
        try:
            sol = np.linalg.solve(a, np.array([lam.real, lam.imag, 1.0]))
        except np.linalg.LinAlgError:
            continue
        if np.min(sol) < -atol:
            continue
        sol = np.clip(sol, 0.0, None)
        sol /= sol.sum()
        if abs(sol[0] * zs[i] + sol[1] * zs[j] + sol[2] * zs[l] - lam) <= atol:
            t = np.zeros(m)
            t[[i, j, l]] = sol
            return t
    return None


def _grouping_reference(u, k, lam, tol=DEFAULT_TOL):
    """The partition the old search found, raising as it did."""
    n = u.shape[0]
    if k < 1 or n % k != 0:
        raise UnsupportedCodeDimensionError(f"k={k}, N={n}")
    dec = unitary_eigen(u, tol)
    atol = max(tol.eps_geom, LAMBDA_MEMBERSHIP_FLOOR)
    if not numerical_range(u, k, tol).distance(lam) <= atol:
        raise LambdaOutsideRegionError(f"lambda {lam}")
    eigs, size = dec.eigenvalues, n // k
    groups = []

    def backtrack(unused):
        if not unused:
            return True
        anchor, rest = unused[0], unused[1:]
        for combo in itertools.combinations(rest, size - 1):
            group = (anchor,) + combo
            if _solve_group_weights(eigs[list(group)], lam, atol) is None:
                continue
            groups.append(group)
            if backtrack(tuple(i for i in rest if i not in combo)):
                return True
            groups.pop()
        return False

    if not backtrack(tuple(range(n))):
        raise NoFeasiblePartitionError(f"lambda {lam}")
    return tuple(groups)


def _assert_grouping_code(u, k, lam, built):
    """Checks of a grouping code on its own terms: k groups of N/k that
    partition the eigenstates, each with convex weights on at most three
    members whose eigenvalues they average to lam within the membership
    slack, and an orthonormal basis with B^dag U B = lam I that passes
    kl_check."""
    n = u.shape[0]
    eigs = unitary_eigen(u).eigenvalues
    assert len(built.partition) == k and all(len(g) == n // k for g in built.partition)
    assert sorted(i for g in built.partition for i in g) == list(range(n))
    slack = binary_unitary._membership_slack(DEFAULT_TOL)
    for group, t in zip(built.partition, built.weights):
        t = np.array(t)
        assert len(t) == len(group) and t.min() >= 0 and np.count_nonzero(t) <= 3
        assert abs(t.sum() - 1) <= 1e-12
        assert abs(t @ eigs[list(group)] - lam) <= slack, (group, t, lam)
    b = built.code.basis
    assert np.abs(dag(b) @ b - np.eye(k)).max() <= 1e-10
    assert np.abs(dag(b) @ u @ b - lam * np.eye(k)).max() <= 1e-8
    kl_check(BinaryUnitaryChannel(0.1, u).to_channel(), built.code)


def _assert_grouping_matches_reference(u, k, lam):
    """The reference's outcome, a code or the same error; a code is then
    checked on its own terms.  Returns the error type or None."""
    try:
        _grouping_reference(u, k, lam)
    except (LambdaOutsideRegionError, NoFeasiblePartitionError) as exc:
        with pytest.raises(type(exc)):
            grouping_code(u, k, lam)
        return type(exc)
    _assert_grouping_code(u, k, lam, grouping_code(u, k, lam))
    return None


def _grouping_lambdas(region, rng):
    """A vertex, a random interior point, and a vertex pushed outward by up to
    3e-9, which the membership test keeps when it lands within its slack."""
    vertices = region.vertices
    vertex = complex(vertices[rng.integers(len(vertices))])
    interior = complex(rng.dirichlet(np.ones(len(vertices))) @ vertices)
    outward = vertex - complex(np.mean(vertices))
    if outward == 0:
        outward = vertex or 1.0
    nudged = vertex + outward / abs(outward) * rng.uniform(0, 3e-9)
    return vertex, interior, nudged


def _corner_lambdas(region, rng):
    """Points just past each vertex of a polygonal region that lies on the
    unit circle, a k-fold eigenvalue, along the outward bisector.

    A point within eps of every edge line reaches, past a vertex of interior
    angle theta, eps / sin(theta / 2) from it.  These points lie between eps
    and that reach: within eps of both edge lines, but more than eps from the
    region, so the membership test, which measures the distance to the
    region, refuses them.  An edge-line test would keep them, and then no
    group hull comes within eps of them, since a group hull holds a point of
    the circle only as a vertex: such a test answered NoFeasiblePartitionError
    on every one of them in the seeded cases."""
    if region.kind is not RegionKind.POLYGON:
        return []
    eps = max(DEFAULT_TOL.eps_geom, LAMBDA_MEMBERSHIP_FLOOR)
    vertices = [complex(z) for z in region.vertices]
    corners = []
    for prev, vertex, nxt in zip(np.roll(vertices, 1), vertices, np.roll(vertices, -1)):
        if abs(abs(vertex) - 1.0) > 1e-12:
            continue
        along, back = (nxt - vertex) / abs(nxt - vertex), (prev - vertex) / abs(prev - vertex)
        reach = 2 / abs(along - back)  # 1 / sin(theta / 2)
        inward = (along + back) / abs(along + back)
        corners.append(vertex - inward * eps * (1 + rng.uniform(0.2, 0.8) * (reach - 1)))
    return corners


# Spectra per dimension N with a divisor k, 2k <= N (families in turn, so
# N = 15 and 16 get one evenly spaced spectrum); fewer where the old search is
# slow.  With the other families it takes 2-40 s per case at N = 15 and 16.
GROUPING_SPECTRA = {4: 24, 6: 24, 8: 16, 9: 12, 10: 12, 12: 8, 14: 4, 15: 1, 16: 1}
# Corner points are tried up to this N: the old search proves that no
# partition exists by trying every one, about 1.5 s per case at N = 14.
GROUPING_CORNERS_MAX_N = 12
# Fewest (codes, LambdaOutsideRegionError) per N among the vertex, interior
# and nudged points, about half of what the seeded cases give, so that a
# change in which candidates reach each outcome shows.  Every corner point
# must be refused as outside; N = 4 and 9 draw no polygon with a vertex on
# the circle.
GROUPING_MIN_OUTCOMES = {4: (29, 7), 6: (39, 12), 8: (25, 9), 9: (14, 4), 10: (19, 4),
                         12: (30, 9), 14: (5, 2), 15: (2, 0), 16: (4, 0)}


@pytest.mark.parametrize("n", sorted(GROUPING_SPECTRA))
def test_grouping_code_matches_reference(n):
    rng = np.random.default_rng(400 + n)
    corner_rng = np.random.default_rng(700 + n)
    outcomes, corners = [], []
    for trial in range(GROUPING_SPECTRA[n]):
        family = ORACLE_FAMILIES[trial % len(ORACLE_FAMILIES)]
        u = _unitary_with_phases(_oracle_phases(family, n, rng), rng)
        for k in range(2, n // 2 + 1):
            if n % k:
                continue
            region = numerical_range(u, k)
            if region.kind is RegionKind.EMPTY:
                continue
            for lam in _grouping_lambdas(region, rng):
                outcomes.append(_assert_grouping_matches_reference(u, k, lam))
            if n <= GROUPING_CORNERS_MAX_N:
                for lam in _corner_lambdas(region, corner_rng):
                    corners.append(_assert_grouping_matches_reference(u, k, lam))
    counts = (outcomes.count(None), outcomes.count(LambdaOutsideRegionError))
    assert all(c >= low for c, low in zip(counts, GROUPING_MIN_OUTCOMES[n])), counts
    assert corners == [LambdaOutsideRegionError] * len(corners)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([4, 6, 8, 9, 10]), st.data())
def test_grouping_code_matches_reference_property(n, data):
    # Phases on a 24-point grid, so repeated eigenvalues and collinear triples
    # (through antipodal pairs) are common.
    steps = data.draw(st.lists(st.integers(0, 23), min_size=n, max_size=n), label="steps")
    k = data.draw(st.sampled_from([k for k in range(2, n // 2 + 1) if n % k == 0]), label="k")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    u = _unitary_with_phases(2 * np.pi * np.array(steps) / 24, rng)
    region = numerical_range(u, k)
    if region.kind is not RegionKind.EMPTY:
        for lam in _grouping_lambdas(region, rng):
            _assert_grouping_matches_reference(u, k, lam)


@pytest.mark.parametrize("n, k, family", [(48, 8, "random"), (48, 8, "even"), (64, 16, "even"),
                                          (256, 32, "even")])
def test_grouping_code_past_the_reference_reach(n, k, family):
    rng = np.random.default_rng(n + k)
    u = _unitary_with_phases(_oracle_phases(family, n, rng), rng)
    region = numerical_range(u, k)
    vertex, interior, _ = _grouping_lambdas(region, rng)
    for lam in (extremal_lambda(region).min_entropy_lambdas[0], vertex, interior):
        _assert_grouping_code(u, k, lam, grouping_code(u, k, lam))


def test_grouping_code_at_large_n_holds_no_table():
    # At N=256, k=32, evenly spaced, at the min-entropy lambda, packing
    # disjoint supports from a table of all minimal supports of lambda (its
    # (N, N, N) triple masks and rows 113 MiB alone) peaked at 201 MiB; the
    # interleaved groups hold O(N) numbers past U's memoised decomposition.
    n, k = 256, 32
    u = np.diag(np.exp(2j * np.pi * np.arange(n) / n))
    lam = extremal_lambda(numerical_range(u, k)).min_entropy_lambdas[0]
    tracemalloc.start()
    try:
        built = grouping_code(u, k, lam)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    _assert_grouping_code(u, k, lam, built)
    assert peak < 8 * 2 ** 20


# Depth oracle.  For normal U, lambda is in the rank-k range exactly when
# every closed half-plane bounded by a line through lambda holds at least k
# eigenvalues (Li and Sze, Proc. AMS 2008), that is when its Tukey depth in
# the spectrum is at least k.  The depth is computed exactly on the float
# eigenvalues, so it shares no arithmetic with the clipping it checks.


def _tukey_depth(eigs, lam):
    """The fewest eigenvalues in a closed half-plane bounded by a line
    through lam, counted exactly.

    Eigenvalues at lam are in every such half-plane.  For the rest, the
    count is least on a line through none of them, and such a line turns
    until it meets one, z_j: then each of the others strictly off the line
    through lam and z_j keeps its side, and those on it fall on the side
    that the turn gives to one of the line's two rays from lam.  So the depth
    is the eigenvalues at lam plus, minimised over j, the fewer strictly on
    one side plus the fewer on one ray.  Coordinates relative to lam are
    dyadic rationals; scaled to a common denominator they are integers."""
    lx, ly = Fraction(lam.real), Fraction(lam.imag)
    v = [(Fraction(z.real) - lx, Fraction(z.imag) - ly) for z in np.asarray(eigs).tolist()]
    scale = max(f.denominator for xy in v for f in xy)
    v = [(int(x * scale), int(y * scale)) for x, y in v]
    at = v.count((0, 0))
    v = [xy for xy in v if xy != (0, 0)]
    least = len(v)
    for xj, yj in v:
        cross = [xj * y - yj * x for x, y in v]
        ray = [xj * x + yj * y for (x, y), c in zip(v, cross) if c == 0]
        sides = min(sum(c > 0 for c in cross), sum(c < 0 for c in cross))
        least = min(least, sides + min(sum(d > 0 for d in ray), sum(d < 0 for d in ray)))
    return at + least


def test_tukey_depth_closed_forms():
    # Exact vertices of a square: its centre has depth N/2, a point off it
    # fewer, a point outside none, and an edge's midpoint one.
    square = np.array([1, 1j, -1, -1j])
    assert _tukey_depth(square, 0j) == 2
    assert _tukey_depth(square, 0.1 + 0.05j) == 1
    assert _tukey_depth(square, 1.5 + 0j) == 0
    assert _tukey_depth(square, 0.5 + 0.5j) == 1
    # An eigenvalue on the unit circle has depth its multiplicity.
    assert _tukey_depth(np.array([1, 1, 1, -1, 1j]), 1 + 0j) == 3


def _depth_lambdas(region, rng):
    """Points uniform in the unit disc, interior points of the region, and
    each vertex pushed out and in by 1e-5 to 1e-3 from the vertex mean."""
    r, theta = np.sqrt(rng.uniform(0, 1, 12)), rng.uniform(0, 2 * np.pi, 12)
    lams = list(r * np.exp(1j * theta))
    vertices = region.vertices
    if len(vertices):
        lams += list(rng.dirichlet(np.ones(len(vertices)), 3) @ vertices)
        centre = np.mean(vertices)
        for vertex in vertices:
            outward = vertex - centre
            outward = outward / abs(outward) if outward else 1.0
            lams += [vertex + c * outward for c in (1e-5, 1e-4, 1e-3, -1e-5, -1e-4, -1e-3)]
    return [complex(z) for z in lams]


# lambda this far or farther from the boundary of the computed range is
# compared with its exact depth; nearer, the clipping's rounding may decide.
DEPTH_MARGIN = 1e-6


def _assert_depth_matches_distance(u, k, rng):
    """Depth >= k exactly where the rank-k range holds lambda, for the
    points of ``_depth_lambdas`` more than DEPTH_MARGIN from its boundary.
    Returns how many points were compared."""
    eigs = unitary_eigen(u).eigenvalues
    region = numerical_range(u, k)
    compared = 0
    for lam in _depth_lambdas(region, rng):
        d = region.distance(lam)
        if abs(d) > DEPTH_MARGIN:
            assert (_tukey_depth(eigs, lam) >= k) == (d <= 0), (k, region.kind, lam, d)
            compared += 1
    return compared


def _depth_phases(family, n, rng):
    if family == "grid":
        return 2 * np.pi * rng.integers(0, 24, n) / 24
    if family == "twin":
        return _near_phases(n, rng)
    return _oracle_phases(family, n, rng)


@pytest.mark.parametrize("family", ("random", "grid", "twin", "repeated"))
def test_tukey_depth_agrees_with_the_range(family):
    rng = np.random.default_rng(1500 + ["random", "grid", "twin", "repeated"].index(family))
    compared = polygons = 0
    for trial in range(24):
        n = int(rng.integers(3, 13))
        phases = _depth_phases(family, n, rng)
        # Every other spectrum on a diagonal U, where repeats stay exact.
        u = np.diag(np.exp(1j * phases)) if trial % 2 else _unitary_with_phases(phases, rng)
        for k in range(1, n + 1):
            compared += _assert_depth_matches_distance(u, k, rng)
            polygons += numerical_range(u, k).kind is RegionKind.POLYGON
    assert compared > 2500 and polygons > 25


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 10), st.data())
def test_tukey_depth_agrees_with_the_range_property(n, data):
    # Phases on a 24-point grid, some moved by a twin offset of 1e-7 to 1e-5,
    # so repeated, antipodal and nearly repeated eigenvalues are common.
    steps = data.draw(st.lists(st.integers(0, 23), min_size=n, max_size=n), label="steps")
    twins = data.draw(st.lists(st.sampled_from([0.0, 1e-7, -1e-6, 1e-5]), min_size=n, max_size=n),
                      label="twins")
    k = data.draw(st.integers(1, n), label="k")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    u = _unitary_with_phases(2 * np.pi * np.array(steps) / 24 + np.array(twins), rng)
    _assert_depth_matches_distance(u, k, rng)


# Seven pairs of twins 1e-7 apart.  While clip_halfplane put cuts on the
# extension of an edge, the computed rank-4 range was a polygon that held this
# lambda 3.7e-4 inside, where its exact depth is 2.
TWIN_PAIRS_PHASES = [2.4497190319322275, 2.8446727395453015, 5.64315386902388, 6.157184726067705,
                     1.9972449074352558, 4.416918235006219, 5.263724467583784, 2.4497191319322273,
                     2.8446728395453014, 5.643153969023881, 6.157184826067705, 1.997245007435256,
                     4.416918335006219, 5.263724567583784]
TWIN_PAIRS_LAMBDA = -0.6842350133833718 + 0.6008002869237405j


def test_tukey_depth_agrees_with_the_range_on_twin_pairs():
    u = np.diag(np.exp(1j * np.array(TWIN_PAIRS_PHASES)))
    region = numerical_range(u, 4)
    depth = _tukey_depth(unitary_eigen(u).eigenvalues, TWIN_PAIRS_LAMBDA)
    distance = region.distance(TWIN_PAIRS_LAMBDA)
    assert (depth >= 4) == (distance <= 0), (depth, distance)


# epsilon-depth oracle.  D(lambda) is the largest distance from lambda to the
# hull of any N-k+1 eigenvalues; it is 0 exactly on the rank-k range (Li and
# Sze's intersection form), and the range to report is {D <= eps_geom}.  On
# the unit circle a closed half-plane holds an arc of eigenvalues, so the
# farthest hull is one of the N cyclic runs of N-k+1 in angle order.


def _eps_depth(eigs, k, lam):
    """D(lam), the max over the N cyclic runs of the distance from lam to the
    run's hull.  The distance to a hull is the largest u.lam - max_p u.p over
    unit u (any u gives a lower bound), and the best u is the direction from
    the nearest hull point: an edge normal, or lam - p for a vertex p.  So
    the max is taken over the normals of every pair of the run's points and
    the directions to each; no inside test is made, and a normal's rounding
    moves the bound by at most its error times the edge's length."""
    z = np.asarray(eigs)[np.argsort(np.angle(eigs))]
    n = len(z)
    runs = z[(np.arange(n)[:, None] + np.arange(n - k + 1)) % n]
    pairs = (runs[:, None, :] - runs[:, :, None]).reshape(n, -1)
    cand = np.concatenate([-1j * pairs, lam - runs], axis=1)
    length = np.abs(cand)
    u = np.divide(cand, length, out=np.zeros_like(cand), where=length > 0)
    support = (np.conj(u)[:, :, None] * runs[:, None, :]).real.max(axis=2)
    return max(0.0, float(((np.conj(u) * lam).real - support).max()))


def test_eps_depth_closed_forms():
    square = np.array([1, 1j, -1, -1j])
    # Rank 2: every run of three is a triangle with a diagonal for an edge,
    # so the range is the centre, and 0.1 is 0.1 from the diagonal (i, -i).
    assert _eps_depth(square, 2, 0j) == 0.0
    assert abs(_eps_depth(square, 2, 0.1 + 0j) - 0.1) <= 1e-15
    # Rank 1: the runs are the whole spectrum, whose hull is the square.
    assert _eps_depth(square, 1, 0.5 + 0.5j) == 0.0
    assert abs(_eps_depth(square, 1, 1 + 1j) - 1 / np.sqrt(2)) <= 1e-15
    # Rank N: each run is one eigenvalue, and D is the farthest of them.
    assert abs(_eps_depth(square, 4, 0j) - 1.0) <= 1e-15


def _assert_vertices_have_eps_depth(u):
    """Every vertex of every rank-k range of u has D <= eps_geom against u's
    computed spectrum; returns how many vertices were checked."""
    eigs = unitary_eigen(u).eigenvalues
    checked = 0
    for k in range(1, len(eigs) + 1):
        for vertex in numerical_range(u, k).vertices:
            assert _eps_depth(eigs, k, complex(vertex)) <= DEFAULT_TOL.eps_geom, (k, vertex)
            checked += 1
    return checked


def _eps_depth_unitary(family, n, diagonal, rng):
    """U with n random phases, or n/2 random phases each with a twin 10^-7.5
    to 10^-6.5 away, on the diagonal or in a Haar basis."""
    if family == "twin-pairs":
        centres = rng.uniform(0, 2 * np.pi, n // 2)
        phases = np.concatenate([centres, centres + 10 ** rng.uniform(-7.5, -6.5, n // 2)])
    else:
        phases = rng.uniform(0, 2 * np.pi, n)
    return np.diag(np.exp(1j * phases)) if diagonal else _unitary_with_phases(phases, rng)


@pytest.mark.parametrize("family", ("twin-pairs", "random"))
def test_reported_vertices_have_eps_depth_within_the_slack(family):
    rng = np.random.default_rng(1900 + ["twin-pairs", "random"].index(family))
    checked = _assert_vertices_have_eps_depth(np.diag(np.exp(1j * np.array(TWIN_PAIRS_PHASES))))
    for trial in range(24):
        # Twins on every other spectrum on a diagonal U, where they stay exact.
        diagonal = family == "twin-pairs" and trial % 2 == 1
        u = _eps_depth_unitary(family, 2 * int(rng.integers(2, 9)), diagonal, rng)
        checked += _assert_vertices_have_eps_depth(u)
    assert checked > 500


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 8), st.sampled_from(("twin-pairs", "random")), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_reported_vertices_have_eps_depth_within_the_slack_property(pairs, family, diagonal, seed):
    u = _eps_depth_unitary(family, 2 * pairs, diagonal, np.random.default_rng(seed))
    _assert_vertices_have_eps_depth(u)


def _covariance_phases(family, n, rng):
    """random: uniform; twin-1e-7 and twin-1e-6: random phases each with a
    twin that far away (one single for odd n); grid: 24 equal steps."""
    if family == "grid":
        return 2 * np.pi * rng.integers(0, 24, n) / 24
    if family == "random":
        return rng.uniform(0, 2 * np.pi, n)
    centres = rng.uniform(0, 2 * np.pi, (n + 1) // 2)
    return np.concatenate([centres, centres[: n // 2] + float(family[len("twin-"):])])


COVARIANCE_FAMILIES = ("random", "twin-1e-7", "twin-1e-6", "grid")


def _assert_covariant_ranges_are_sound(u, rng):
    """Soundness under rotation, adjoint and conjugation: every vertex of the
    ranges of e^{i theta} U, U^dag and V U V^dag, mapped back by e^{-i theta},
    conjugation and the identity, has D <= eps_geom against U's computed
    spectrum, and each range is Empty exactly when U's is.  Kinds may differ:
    rounding moves chord crossings of near twins by about 1e-15/theta.
    Returns how many vertices were checked."""
    eigs = unitary_eigen(u).eigenvalues
    theta, v = rng.uniform(0, 2 * np.pi), haar_unitary(len(u), rng)
    maps = [(np.exp(1j * theta) * u, lambda z: z * np.exp(-1j * theta)),
            (dag(u), np.conj), (v @ u @ dag(v), lambda z: z)]
    checked = 0
    for k in range(1, len(u) + 1):
        empty = numerical_range(u, k).kind is RegionKind.EMPTY
        for mapped, back in maps:
            region = numerical_range(mapped, k)
            assert (region.kind is RegionKind.EMPTY) is empty, k
            for vertex in back(region.vertices):
                assert _eps_depth(eigs, k, complex(vertex)) <= DEFAULT_TOL.eps_geom, (k, vertex)
                checked += 1
    return checked


@pytest.mark.parametrize("family", COVARIANCE_FAMILIES)
def test_rotated_adjoint_and_conjugated_ranges_are_sound(family):
    rng = np.random.default_rng(2200 + COVARIANCE_FAMILIES.index(family))
    checked = 0
    for n in range(3, 13):
        for _ in range(3):
            checked += _assert_covariant_ranges_are_sound(
                _unitary_with_phases(_covariance_phases(family, n, rng), rng), rng)
    assert checked > 300


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 12), st.sampled_from(COVARIANCE_FAMILIES), st.integers(0, 2**32 - 1))
def test_rotated_adjoint_and_conjugated_ranges_are_sound_property(n, family, seed):
    rng = np.random.default_rng(seed)
    _assert_covariant_ranges_are_sound(_unitary_with_phases(_covariance_phases(family, n, rng), rng), rng)


@pytest.mark.parametrize("n", [12, 24, 36, 48, 64])
def test_grouping_code_holds_every_lambda_of_depth_k(n):
    # The interleaved grouping's theorem: for k | N, every lambda of exact
    # depth k or more (so in the exact range) gets a code, never
    # NoFeasiblePartitionError.  Vertices, interior points and points pushed
    # in or out past each vertex, on spectra of five families; repeated
    # spectra give vertices at k-fold eigenvalues.
    rng = np.random.default_rng(1600 + n)
    held = 0
    for family in ("random", "even", "grid", "twin", "repeated"):
        phases = _depth_phases(family, n, rng)
        u = np.diag(np.exp(1j * phases)) if family == "grid" else _unitary_with_phases(phases, rng)
        eigs = unitary_eigen(u).eigenvalues
        for k in [k for k in range(2, n // 2 + 1) if n % k == 0][-3:]:
            region = numerical_range(u, k)
            lams = _depth_lambdas(region, rng) + [complex(z) for z in region.vertices]
            for pos in rng.permutation(len(lams))[:60]:
                if _tukey_depth(eigs, lams[pos]) >= k:
                    _assert_grouping_code(u, k, lams[pos], grouping_code(u, k, lams[pos]))
                    held += 1
    assert held > 150


def test_grouping_code_at_a_k_fold_eigenvalue():
    # lambda at an eigenvalue of multiplicity k or more lies on the unit
    # circle, where the range holds it only as a vertex: each group takes
    # one of those eigenstates, with weight 1, so the code has entropy 0.
    rng = np.random.default_rng(1700)
    for n, k, extra in [(6, 2, 0), (12, 3, 2), (16, 4, 3), (24, 6, 0), (24, 4, 7)]:
        phases = np.concatenate([np.full(k + extra, 0.7), rng.uniform(0, 2 * np.pi, n - k - extra)])
        for u in (np.diag(np.exp(1j * phases)), _unitary_with_phases(phases, rng)):
            exists, lam = dfs_exists(u, k)
            assert exists and abs(lam - np.exp(0.7j)) <= 1e-12
            built = grouping_code(u, k, lam)
            _assert_grouping_code(u, k, lam, built)
            assert all(sorted(t) == [0.0] * (n // k - 1) + [1.0] for t in built.weights)


# lambda accepted within the slack just past a 2-fold eigenvalue on the unit
# circle: 8.6e-10 outside an edge of the range, 1.06e-9 from the eigenvalue,
# where a group's nearest hull point is on an edge between members adjacent
# in phase, not among the edges tried about its first member.
K_FOLD_SLACK_CASES = [
    ([0, 0, 0, 0, 1, 1, 5, 5, 6, 7], 8, 0.25881904447684295 + 0.9659258271446001j),
    ([10, 10, 13, 15, 14, 17, 18, 18, 20, 20], 17, 7.135099572470685e-10 - 1.0000000008129672j),
]


@pytest.mark.parametrize("steps, seed, lam", K_FOLD_SLACK_CASES)
def test_grouping_code_just_past_a_k_fold_eigenvalue(steps, seed, lam):
    u = _unitary_with_phases(2 * np.pi * np.array(steps) / 24, np.random.default_rng(seed))
    assert _assert_grouping_matches_reference(u, 2, lam) is None


def test_grouping_code_matches_reference_just_past_unit_circle_vertices():
    # lambda 0.3e-9 to 1.2e-9 from each vertex on the unit circle, in a
    # random direction: inside, within the slack outside, or beyond it.
    rng = np.random.default_rng(2100)
    verdicts = collections.Counter()
    for _ in range(600):
        n = int(rng.choice([4, 6, 8, 9, 10]))
        k = int(rng.choice([k for k in range(2, n // 2 + 1) if n % k == 0]))
        u = _unitary_with_phases(2 * np.pi * rng.integers(0, 24, n) / 24, rng)
        region = numerical_range(u, k)
        for vertex in region.vertices if region.kind is not RegionKind.EMPTY else ():
            if abs(abs(vertex) - 1) <= 1e-9:
                step = np.exp(1j * rng.uniform(0, 2 * np.pi)) * rng.uniform(0.3e-9, 1.2e-9)
                lam = complex(vertex + step)
                verdict = _assert_grouping_matches_reference(u, k, lam)
                verdicts[verdict or ("outside, grouped" if region.distance(lam) > 0 else "grouped")] += 1
    assert min(verdicts["grouped"], verdicts["outside, grouped"], verdicts[LambdaOutsideRegionError]) >= 10, verdicts


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 10), st.data())
def test_entropy_vs_p_gives_entropies_for_every_lambda_the_range_holds(n, data):
    # Phases on a 24-point grid, so vertices on the unit circle (k-fold
    # eigenvalues) are common; lambda is a vertex, an interior point, a
    # nudged vertex or a corner point.
    steps = data.draw(st.lists(st.integers(0, 23), min_size=n, max_size=n), label="steps")
    k = data.draw(st.integers(1, n), label="k")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    u = _unitary_with_phases(2 * np.pi * np.array(steps) / 24, rng)
    region = numerical_range(u, k)
    if region.kind is RegionKind.EMPTY:
        return
    for lam in [*_grouping_lambdas(region, rng), *_corner_lambdas(region, rng)]:
        if region.distance(lam) <= LAMBDA_MEMBERSHIP_FLOOR:
            rows = entropy_vs_p(u, k, lam, [0.0, 0.25, 0.5])
            assert all(0.0 <= s <= 1.0 for _, s in rows)
        else:
            with pytest.raises(LambdaOutsideRegionError):
                entropy_vs_p(u, k, lam, [0.25])


def _dfs_reference(u, k, tol=DEFAULT_TOL):
    """Slow reference: the first cluster of >= k members whose mean passes the
    rank-k range's membership test."""
    dec = unitary_eigen(u, tol)
    region = numerical_range(u, k, tol)
    for cluster in dec.cluster_map:
        rep = complex(np.mean(dec.eigenvalues[list(cluster)]))
        if len(cluster) >= k and region.distance(rep) <= max(tol.eps_geom, LAMBDA_MEMBERSHIP_FLOOR):
            return True, rep
    return False, None


def _wrapped_cluster_phases(n, rng):
    """A cluster of 1 to N eigenvalues within 5e-11 of phase 0, either side."""
    phases = rng.uniform(0, 2 * np.pi, n)
    size = int(rng.integers(1, n + 1))
    phases[:size] = np.mod(rng.uniform(-5e-11, 5e-11, size), 2 * np.pi)
    return phases


DFS_TOLERANCES = (DEFAULT_TOL, ToleranceConfig(eps_eig=1e-6), ToleranceConfig(eps_geom=1e-6))


@pytest.mark.parametrize("family", ["repeated", "near", "jittered", "wrapped"])
def test_dfs_exists_matches_range_reference(family):
    rng = np.random.default_rng(["repeated", "near", "jittered", "wrapped"].index(family))
    for _ in range(25):
        n = int(rng.integers(2, 11))
        if family == "repeated":
            phases = _oracle_phases("repeated", n, rng)
        elif family == "near":
            phases = _near_phases(max(n, 3), rng)
        elif family == "jittered":
            phases = _oracle_phases("repeated", n, rng) + rng.uniform(-1e-11, 1e-11, n)
        else:
            phases = _wrapped_cluster_phases(n, rng)
        u = _unitary_with_phases(phases, rng)
        for tol in DFS_TOLERANCES:
            for k in range(1, len(phases) + 1):
                assert dfs_exists(u, k, tol) == _dfs_reference(u, k, tol), (family, k, tol)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 23), min_size=2, max_size=10), st.data())
def test_dfs_exists_matches_range_reference_property(steps, data):
    # Phases on a 24-point grid, so repeated eigenvalues are common.
    k = data.draw(st.integers(1, len(steps)), label="k")
    tol = data.draw(st.sampled_from(DFS_TOLERANCES), label="tol")
    u = _unitary_with_phases(2 * np.pi * np.array(steps) / 24,
                             np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed")))
    assert dfs_exists(u, k, tol) == _dfs_reference(u, k, tol)


def test_dfs_exists_builds_no_range(monkeypatch):
    calls = []
    original = binary_unitary._range_from_eigen

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(binary_unitary, "_range_from_eigen", counting)
    assert dfs_exists(ZZ, 2)[0] and not dfs_exists(U4, 2)[0]
    assert calls == []
    with pytest.raises(ValueError, match=r"rank k must be in \[1, 4\], got 5"):
        dfs_exists(ZZ, 5)


# The binary-unitary entry points and unitary_eigen share one memo of the
# most recent U's decomposition, and the former the rank-k ranges built from it.


def test_one_unitary_is_decomposed_once_across_the_calls(analysis_counts):
    eigen_calls, range_ks = analysis_counts
    region = numerical_range(U9, 3)
    assert qecentropy.unitary_eigen(U9) is qecentropy.unitary_eigen(U9.copy())
    lam = extremal_lambda(region).min_entropy_lambdas[0]
    assert not dfs_exists(U9, 3)[0]
    entropy_vs_p(U9, 3, lam, [0.1, 0.5])
    constituent_hulls(U9, 3)
    grouping_code(U9, 3, lam)
    assert numerical_range(U9, 3) is region
    numerical_range(U9, 2)
    entropy_vs_p(U9, 2, 0j, [0.1])
    assert len(eigen_calls) == 1
    assert range_ks == [3, 2]


def test_memo_follows_the_bytes_of_u_and_the_tolerances():
    rng = np.random.default_rng(5)
    u = _unitary_with_phases(_oracle_phases("random", 8, rng), rng)
    other = _unitary_with_phases(_oracle_phases("repeated", 8, rng), rng)

    def cold(v, k, tol=DEFAULT_TOL):
        numerics._eigen_memo.last = None
        return numerical_range(v.copy(), k, tol)

    def same(a, b):
        return a.kind is b.kind and a.vertices.tobytes() == b.vertices.tobytes()

    numerical_range(u, 3)
    u[:] = other  # changed in place after a call
    warm_region, warm_dfs = numerical_range(u, 3), dfs_exists(u, 2)
    assert same(warm_region, cold(other, 3))
    numerics._eigen_memo.last = None
    assert warm_dfs == dfs_exists(other.copy(), 2)

    # Two eigenvalues 1e-8 apart: one cluster under eps_eig = 1e-6 only.
    near = _unitary_with_phases([0.0, 1e-8, 1.0, 2.0, 3.0, 4.0], rng)
    loose = ToleranceConfig(eps_eig=1e-6)
    default_region = numerical_range(near, 2)
    loose_region = numerical_range(near, 2, loose)
    assert same(loose_region, cold(near, 2, loose))
    assert not same(loose_region, default_region)
    assert same(numerical_range(near, 2), cold(near, 2))

    # A unitarity verdict holds only for the tolerances that reached it.
    skewed = near.copy()
    skewed[0, 0] += 1e-8
    numerical_range(skewed, 2, loose)
    with pytest.raises(ValueError, match="not unitary"):
        numerical_range(skewed, 2)
    numerical_range(near, 2)
    near[0, 0] += 1e-8
    with pytest.raises(ValueError, match="not unitary"):
        numerical_range(near, 2)


def test_memoised_arrays_are_read_only():
    region = numerical_range(U9, 3)
    with pytest.raises(ValueError, match="read-only"):
        region.vertices[0] = 0
    dec = unitary_eigen(U9, DEFAULT_TOL)
    for array in (dec.eigenvalues, dec.eigenvectors):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


def _exact(x):
    """A result in comparable exact form: floats by float.hex, arrays element
    by element, regions and codes by their fields, errors by type and text."""
    if isinstance(x, Exception):
        return type(x).__name__, str(x)
    if isinstance(x, binary_unitary.NumRangeRegion):
        return x.k, x.kind.value, _exact(x.vertices)
    if isinstance(x, binary_unitary.GroupingCode):
        return _exact(x.lam), x.partition, _exact(x.weights), _exact(x.code.basis)
    if isinstance(x, np.ndarray):
        return x.shape, _exact(x.ravel().tolist())
    if isinstance(x, (list, tuple)):
        return tuple(_exact(y) for y in x)
    if isinstance(x, complex):
        return float(x.real).hex(), float(x.imag).hex()
    if isinstance(x, float):
        return float(x).hex()
    return x


def _memo_calls(u, rng):
    """Every entry point on u at every k (and one k out of range), with a
    vertex, an interior point, a point 1e-3 outside and the corner points of
    each region as lambda, as (function, arguments, whether lambda is a
    corner point)."""
    n = u.shape[0]
    calls = []
    for k in range(1, n + 2):
        calls += [(numerical_range, (u, k), False), (constituent_hulls, (u, k), False),
                  (dfs_exists, (u, k), False)]
        if k > n:
            continue
        region = binary_unitary._range_from_eigen(unitary_eigen(u), k, DEFAULT_TOL)
        if region.kind is RegionKind.EMPTY:
            continue
        vertex = complex(region.vertices[0])
        centre = complex(np.mean(region.vertices))
        lams = [vertex, centre, vertex + 1e-3 * ((vertex - centre) or 1.0)]
        corners = _corner_lambdas(region, rng)
        for lam in lams + corners:
            calls.append((entropy_vs_p, (u, k, lam, [0.0, 0.25, 0.5]), lam in corners))
            if n % k == 0 and 2 * k <= n:
                calls.append((grouping_code, (u, k, lam), lam in corners))
    return calls


def _run(fn, args):
    """("ok", result) or (error type name, error text), in exact form."""
    try:
        return "ok", _exact(fn(*args))
    except (ValueError, LambdaOutsideRegionError, NoFeasiblePartitionError) as exc:
        return _exact(exc)


def test_memo_gives_the_cold_results():
    rng = np.random.default_rng(31)
    calls = []
    for family in ORACLE_FAMILIES:
        for n in (6, 8, 9, 12):
            for _ in range(2):
                calls += _memo_calls(_unitary_with_phases(_oracle_phases(family, n, rng), rng), rng)
    cold = []
    for fn, args, _ in calls:
        numerics._eigen_memo.last = None
        cold.append(_run(fn, args))
    numerics._eigen_memo.last = None
    warm = [_run(fn, args) for fn, args, _ in calls]
    assert warm == cold
    outcomes = [outcome for outcome, _ in cold]
    assert outcomes.count("ValueError") >= 10
    assert outcomes.count("LambdaOutsideRegionError") >= 10
    at_corners = [outcome for (_, _, corner), outcome in zip(calls, outcomes) if corner]
    assert at_corners and set(at_corners) == {"LambdaOutsideRegionError"}
