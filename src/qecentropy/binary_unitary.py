"""Binary unitary channels: higher-rank numerical ranges by convex clipping,
extremal compression values, eigenstate-grouping code construction, and the
closed-form coefficient spectrum and entropy."""

from __future__ import annotations

import dataclasses
import enum
import itertools

import numpy as np

from . import geometry, serialization
from .channel import QuantumChannel, binary_unitary_kraus
from .code import CodeSubspace, code_subspace
from .errors import (
    LambdaOutsideRegionError,
    NoCodeError,
    NoFeasiblePartitionError,
    UnsupportedCodeDimensionError,
)
from .numerics import (
    DEFAULT_TOL,
    EigenDecomposition,
    ToleranceConfig,
    as_matrix,
    dag,
    is_unitary,
    unitary_eigen,
)

# Smallest slack when testing whether a lambda lies in a rank-k range, and
# how far |lambda| may exceed 1 in lambda_spectrum.  A lambda taken from the
# range of another copy of U (another eigenbasis, or entries rounded on the
# way through a file) can sit a little outside this U's polygon, by more than
# eps_geom (1e-10 by default) allows.
LAMBDA_MEMBERSHIP_FLOOR = 1e-9

# Vertices whose moduli agree within this count as tied maxima of |lambda|.
# Symmetric spectra give vertices of equal modulus in exact arithmetic, which
# rounding in the clipping leaves apart; all of them are minimum-entropy values.
VERTEX_TIE_ATOL = 1e-9


@dataclasses.dataclass(frozen=True)
class BinaryUnitaryChannel:
    """The two-term mixing channel rho -> (1-p) rho + p U rho U^dag."""

    p: float
    u: np.ndarray

    @classmethod
    def from_pair(cls, p: float, w1, w2, tol: ToleranceConfig = DEFAULT_TOL):
        """Channel mixing two arbitrary unitaries; reduces to U = W1^dag W2."""
        w1, w2 = as_matrix(w1), as_matrix(w2)
        if not (is_unitary(w1, tol) and is_unitary(w2, tol)):
            raise ValueError("both operators must be unitary")
        return cls(p, dag(w1) @ w2)

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"mixing probability must be in [0, 1], got {self.p}")

    def to_channel(self, tol: ToleranceConfig = DEFAULT_TOL) -> QuantumChannel:
        """Kraus form; checks U for unitarity under ``tol``."""
        return binary_unitary_kraus(self.p, self.u, tol)


class RegionKind(str, enum.Enum):
    EMPTY = "Empty"
    POINT = "Point"
    SEGMENT = "Segment"
    POLYGON = "Polygon"


@dataclasses.dataclass(frozen=True)
class NumRangeRegion:
    """Geometric form of the rank-k numerical range of a unitary matrix."""

    k: int
    kind: RegionKind
    vertices: np.ndarray

    def distance(self, lam: complex) -> float:
        """Euclidean distance from ``lam`` to the region, negative inside a
        polygon and +inf for the empty region (``geometry.signed_distance``)."""
        return geometry.signed_distance(self.vertices, lam)

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "kind": self.kind.value,
            "vertices": [serialization.complex_to_json(z) for z in self.vertices],
        }


@dataclasses.dataclass(frozen=True)
class ExtremalLambdas:
    """Compression values attaining the entropy extremes over a region."""

    min_entropy_lambdas: tuple[complex, ...]
    max_entropy_lambda: complex


@dataclasses.dataclass(frozen=True)
class GroupingCode:
    """A rank-k code built by grouping eigenstates around one compression value."""

    lam: complex
    partition: tuple[tuple[int, ...], ...]
    weights: tuple[tuple[float, ...], ...]
    code: CodeSubspace


def _representatives(dec: EigenDecomposition, k: int) -> list[complex]:
    """Cluster means in phase order, once k is checked to lie in [1, N]."""
    eigs = dec.eigenvalues
    if not 1 <= k <= len(eigs):
        raise ValueError(f"rank k must be in [1, {len(eigs)}], got {k}")
    # A single eigenvalue is its own mean, without a numpy call.
    return [complex(eigs[c[0]] if len(c) == 1 else np.mean(eigs[list(c)])) for c in dec.cluster_map]


def _run_arcs(dec: EigenDecomposition, k: int) -> tuple[list[complex], list[tuple[int, int]]]:
    """Cluster representatives in phase order, and the distinct arcs of
    clusters, as (first, size), held by the N cyclic runs of N-k+1
    eigenvalues in phase order.

    For normal U the rank-k range is the intersection of the closed
    half-planes that hold at least N-k+1 eigenvalues counted with
    multiplicity.  The eigenvalues inside such a half-plane fill an arc of
    the unit circle, so each of these half-planes holds one of the runs, and
    the run hulls alone cut out the same region as all (N-k+1)-subset hulls.

    Clusters are contiguous in phase order, so a run holds the clusters from
    its first eigenvalue's on, one more for each cluster boundary it crosses.
    A run that holds all m clusters is the arc (0, m).
    """
    eigs, clusters = dec.eigenvalues, dec.cluster_map
    n, m = len(eigs), len(clusters)
    reps = _representatives(dec, k)
    owner = np.empty(n, dtype=int)
    owner[np.concatenate(clusters)] = np.repeat(np.arange(m), [len(c) for c in clusters])
    # crossed[i]: how many of eigenvalues 0..i-1, twice round, start a cluster.
    boundary = np.tile(owner != np.roll(owner, 1), 2)
    crossed = np.concatenate([[0], np.cumsum(boundary)])
    starts = np.arange(n)
    sizes = np.minimum(crossed[starts + n - k + 1] - crossed[starts + 1] + 1, m)
    firsts = np.where(sizes == m, 0, owner)
    return reps, list(dict.fromkeys(zip(firsts.tolist(), sizes.tolist())))


def _range_from_eigen(dec: EigenDecomposition, k: int, tol: ToleranceConfig) -> NumRangeRegion:
    """Rank-k range in one pass: the polygon of the cluster representatives
    cut by one or two chord half-planes per distinct run.

    The representatives come in phase order on the unit circle, so they are
    already the vertices of their CCW hull, and a run holds an arc of them.
    The hull of a run of three or more clusters is the full hull cut by one
    chord, from the run's last cluster to its first across the excluded arc.
    A run of two clusters holds the chord between two hull vertices, which is
    where the two opposite half-planes through it meet the hull.  A run of one
    cluster holds only its representative: the range is then that point, if
    every other run keeps it, or empty.

    The clips run on a plain vertex list and may leave collinear vertices;
    ``_classify_region`` canonicalises once, at the end.
    """
    reps, arcs = _run_arcs(dec, k)
    m, eps = len(reps), tol.eps_geom
    points = [reps[first] for first, size in arcs if size == 1]
    region = points[:1] or reps
    for first, size in arcs:
        if not region:
            break
        if size == 1:
            region = [reps[first]] if abs(region[0] - reps[first]) <= eps else []
        elif size < m:
            a, b = reps[(first + size - 1) % m], reps[first]
            normal = -1j * (b - a)
            offset = (normal.conjugate() * a).real
            region = geometry.clip_halfplane(region, normal, offset, eps)
            if size == 2 and region:
                region = geometry.clip_halfplane(region, -normal, -offset, eps)
    return _classify_region(k, np.array(region, dtype=complex), tol)


# The most recent U's analysis, (key, decomposition, {k: rank-k range}), so
# that the calls made in turn on one U decompose it once and build each range
# once.  The key is (shape, bytes of U as a complex matrix, tolerances): U is
# not hashable and a caller may change it in place, so its bytes are compared,
# and a hit reuses a unitarity verdict reached on the same bytes under equal
# tolerances.  The entry is replaced by one assignment, so concurrent callers
# at worst compute the same thing twice; its arrays are read-only, since a hit
# hands the same objects to every caller.
_last_u: tuple | None = None


def _analysis(u, tol: ToleranceConfig) -> tuple[EigenDecomposition, dict[int, NumRangeRegion]]:
    """U's decomposition and the ranges built from it so far."""
    global _last_u
    u = as_matrix(u)
    key = (u.shape, u.tobytes(), tol)
    last = _last_u
    if last is not None and last[0] == key:
        return last[1], last[2]
    dec = unitary_eigen(u, tol)
    dec.eigenvalues.flags.writeable = False
    dec.eigenvectors.flags.writeable = False
    ranges: dict[int, NumRangeRegion] = {}
    _last_u = (key, dec, ranges)
    return dec, ranges


def _analysed_range(u, k: int, tol: ToleranceConfig) -> tuple[EigenDecomposition, NumRangeRegion]:
    dec, ranges = _analysis(u, tol)
    region = ranges.get(k)
    if region is None:
        region = ranges[k] = _range_from_eigen(dec, k, tol)
    return dec, region


def numerical_range(u, k: int, tol: ToleranceConfig = DEFAULT_TOL) -> NumRangeRegion:
    """Rank-k numerical range: intersection of the phase-contiguous run hulls,
    the hulls of the N cyclic runs of N-k+1 eigenvalues in phase order.

    Later calls on the same U return the same read-only region."""
    return _analysed_range(u, k, tol)[1]


def constituent_hulls(u, k: int, tol: ToleranceConfig = DEFAULT_TOL) -> list[np.ndarray]:
    """Vertex sets of the distinct phase-contiguous run hulls (at most N)
    whose intersection is the rank-k range: each run's representatives in
    arc order, which is CCW, started at the lexicographically smallest as
    ``geometry.canonical_vertices`` would."""
    reps, arcs = _run_arcs(_analysis(u, tol)[0], k)
    reps, m = np.array(reps), len(reps)
    hulls = []
    for first, size in arcs:
        pts = reps[(first + np.arange(size)) % m]
        hulls.append(np.roll(pts, -int(np.lexsort((pts.imag, pts.real))[0])))
    return hulls


def _classify_region(k: int, pts: np.ndarray, tol: ToleranceConfig) -> NumRangeRegion:
    pts = geometry.canonical_vertices(pts, tol.eps_geom)
    pts.flags.writeable = False
    if len(pts) == 0:
        return NumRangeRegion(k, RegionKind.EMPTY, pts)
    if len(pts) == 1:
        return NumRangeRegion(k, RegionKind.POINT, pts)
    if len(pts) == 2:
        return NumRangeRegion(k, RegionKind.SEGMENT, pts)
    return NumRangeRegion(k, RegionKind.POLYGON, pts)


def _membership_slack(tol: ToleranceConfig) -> float:
    """How far lambda may lie from a rank-k range and still be taken as in
    it; the grouping search's supports hold lambda within the same slack."""
    return max(tol.eps_geom, LAMBDA_MEMBERSHIP_FLOOR)


def _eigen_holding(u, k: int, lam: complex, tol: ToleranceConfig) -> EigenDecomposition:
    """U's decomposition, once lam is checked to lie within the membership
    slack of its rank-k range; both come from the memo of the most recent U."""
    dec, region = _analysed_range(u, k, tol)
    if not region.distance(lam) <= _membership_slack(tol):
        raise LambdaOutsideRegionError(f"lambda {lam} is not in the rank-{k} numerical range")
    return dec


def extremal_lambda(region: NumRangeRegion) -> ExtremalLambdas:
    """Entropy extremes over a region.

    The modulus is convex, so its maximum over a convex set is attained at a
    vertex; all maximizing vertices are returned (sorted by (re, im)).  The
    maximum-entropy value is the point of the region closest to the origin.
    """
    if region.kind is RegionKind.EMPTY:
        raise NoCodeError("the rank-k numerical range is empty; no rank-k code exists")
    moduli = np.abs(region.vertices)
    best = float(moduli.max())
    winners = [complex(z) for z, m in zip(region.vertices, moduli) if best - m <= VERTEX_TIE_ATOL]
    winners.sort(key=lambda z: (z.real, z.imag))
    closest = geometry.closest_point(region.vertices, 0.0 + 0.0j)
    return ExtremalLambdas(tuple(winners), closest)


def lambda_spectrum(p: float, lam: complex) -> tuple[float, float]:
    """Spectrum {L+, L-} of the 2x2 coefficient matrix of a binary unitary code."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"mixing probability must be in [0, 1], got {p}")
    mod2 = abs(lam) ** 2
    if mod2 > (1.0 + LAMBDA_MEMBERSHIP_FLOOR) ** 2:
        raise ValueError(f"|lambda| = {abs(lam)} exceeds 1")
    disc = max(0.0, 1.0 - 4.0 * p * (1.0 - p) * (1.0 - min(1.0, mod2)))
    root = np.sqrt(disc)
    return 0.5 * (1.0 + root), 0.5 * (1.0 - root)


def biunitary_code_entropy(p: float, lam: complex) -> float:
    """Closed-form code entropy (bits) for a binary unitary channel."""
    plus, minus = lambda_spectrum(p, lam)
    s = 0.0
    for x in (plus, minus):
        if x > 0.0:
            s -= x * np.log2(x)
    return float(s)


def entropy_vs_p(u, k: int, lam: complex, p_grid, tol: ToleranceConfig = DEFAULT_TOL):
    """Code entropy along a grid of mixing probabilities for a fixed lambda."""
    _eigen_holding(u, k, lam, tol)
    # An accepted lambda past a vertex on the unit circle has |lambda| above 1
    # by up to the membership slack; its entropy, which depends on |lambda|
    # alone, is that of the vertex.
    modulus = min(abs(lam), 1.0)
    return [(float(p), biunitary_code_entropy(float(p), modulus)) for p in p_grid]


def _solve_each(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.linalg.solve`` on a stack of systems; a singular system's row is
    -inf, so that it fails any feasibility test, and the others are solved
    exactly as one ``solve`` call each would solve them."""
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        if len(a) == 1:
            return np.full(b.shape, -np.inf)
        half = len(a) // 2
        return np.concatenate([_solve_each(a[:half], b[:half]), _solve_each(a[half:], b[half:])])


def _lambda_supports(eigs: np.ndarray, lam: complex, atol: float, size: int) -> tuple[np.ndarray, list]:
    """Minimal supports of ``lam``, one boolean row of members each, and
    their weights t in ascending member order: the singles, pairs and
    triples of eigen-indices (at most ``size`` long) whose eigenvalues have
    convex coefficients t with sum(t z) = lam within ``atol``, in table
    order: singles, then pairs, then triples, each lexicographic.

    Basic feasible solutions of sum(t) = 1, sum(t z) = lam have at most three
    nonzero coefficients (Caratheodory), so a group of eigenvalues holds lam
    in its hull exactly when it contains one of these supports, and the
    grouping search only packs disjoint ones.  A pair or triple that contains
    a feasible single or pair is left out: any group holding it holds that
    smaller support too, which leaves more eigenstates to the other groups.
    Distances are ``np.hypot`` and the pair step loops over Python complex
    numbers, which round as scalar arithmetic does, where ``np.abs`` and
    products of complex arrays may not.
    """
    n = len(eigs)
    single = np.hypot(eigs.real - lam.real, eigs.imag - lam.imag) <= atol
    pair = np.zeros((n, n), dtype=bool)
    weights = [(1.0,)] * int(single.sum())
    if size >= 2:
        z = eigs.tolist()
        for i, j in itertools.combinations(np.flatnonzero(~single).tolist(), 2):
            d = z[j] - z[i]
            den = abs(d) ** 2
            if den == 0:
                continue
            tj = min(max((d.conjugate() * (lam - z[i])).real / den, 0.0), 1.0)
            if abs(z[i] + tj * d - lam) <= atol:
                pair[i, j] = True
                weights.append((1.0 - tj, tj))
    triples = np.array(list(itertools.combinations(range(n if size >= 3 else 0), 3)), int).reshape(-1, 3)
    z = eigs[triples]
    a = np.stack([z.real, z.imag, np.ones(z.shape)], axis=1)
    b = np.broadcast_to(np.array([lam.real, lam.imag, 1.0])[:, None], (len(triples), 3, 1))
    sols = _solve_each(a, b)[..., 0]
    i, j, l = triples.T
    keep = ~(sols.min(axis=1) < -atol)
    keep &= ~(single[i] | single[j] | single[l] | pair[i, j] | pair[i, l] | pair[j, l])
    sols, z, triples = np.clip(sols[keep], 0.0, None), z[keep], triples[keep]
    sols /= sols.sum(axis=1, keepdims=True)
    held = np.hypot((sols * z.real).sum(axis=1) - lam.real, (sols * z.imag).sum(axis=1) - lam.imag) <= atol
    weights.extend(map(tuple, sols[held].tolist()))
    eye = np.eye(n, dtype=bool)
    rows = np.concatenate([eye[single], eye[np.argwhere(pair)].any(axis=1), eye[triples[held]].any(axis=1)])
    return rows, weights


def grouping_code(u, k: int, lam: complex, tol: ToleranceConfig = DEFAULT_TOL) -> GroupingCode:
    """Build a rank-k code by partitioning the eigenstates into k groups of
    N/k whose eigenvalue hulls all contain ``lam``.

    Group members are combined as sum_j sqrt(t_j) |psi_j>, which is
    orthonormal across groups because the eigenbasis is.  A group's hull
    holds ``lam`` exactly when the group contains one of the minimal supports
    of ``_lambda_supports``, so such a partition exists exactly when k
    pairwise disjoint supports of at most N/k members do: a partition holds
    one in each group, and k disjoint supports padded with the eigenstates
    left over make a partition.

    The search is depth first over k-subsets of the supports, in table order
    (singles, then pairs, then triples, each in lexicographic order), so a
    smaller support, which frees eigenstates for the other groups, is tried
    first.  A branch is cut when the supports still disjoint from the chosen
    ones cannot hold one for each group still to fill: when a greedy set of
    eigenstates that meets every such support is smaller than the number of
    those groups.  Each chosen support, in the order found, is padded with
    the unused eigenstates in ascending order up to N/k members; the support
    keeps its convex weights and the padding takes weight 0.  Groups are
    sorted, and listed by their first member.
    """
    u = as_matrix(u)
    n = u.shape[0]
    if k < 1 or n % k != 0:
        raise UnsupportedCodeDimensionError(
            f"eigenstate grouping requires k | N; got k={k}, N={n}"
        )
    dec = _eigen_holding(u, k, lam, tol)
    size = n // k
    rows, weights = _lambda_supports(dec.eigenvalues, lam, _membership_slack(tol), size)

    def can_hold(free: np.ndarray, need: int) -> bool:
        # Disjoint supports need distinct members of any set that meets every
        # one of them, so a greedy such hitting set smaller than ``need``
        # proves the branch fails.
        inside = rows[free]
        for _ in range(need):
            if len(inside) == 0:
                return False
            inside = inside[~inside[:, inside.sum(axis=0).argmax()]]
        return True

    def pack(free: np.ndarray, need: int) -> list[int] | None:
        # ``free``: the rows after the last chosen one that are disjoint from
        # every chosen one.
        if need == 0:
            return []
        if not can_hold(free, need):
            return None
        for pos, row in enumerate(free.tolist()):
            rest = free[pos + 1 :]
            found = pack(rest[~(rows[rest] & rows[row]).any(axis=1)], need - 1)
            if found is not None:
                return [row, *found]
        return None

    chosen = pack(np.arange(len(rows)), k)
    if chosen is None:
        raise NoFeasiblePartitionError(
            f"no size-{size} eigenstate partition realises lambda {lam}"
        )
    spare = iter(np.flatnonzero(~rows[chosen].any(axis=0)).tolist())
    grouped = []
    for row in chosen:
        group = rows[row].copy()
        group[list(itertools.islice(spare, size - int(group.sum())))] = True
        t = np.zeros(n)
        t[rows[row]] = weights[row]
        grouped.append((tuple(np.flatnonzero(group).tolist()), t[group]))
    grouped.sort(key=lambda pair: pair[0])
    basis = [
        sum(np.sqrt(t[a]) * dec.eigenvectors[:, idx] for a, idx in enumerate(group))
        for group, t in grouped
    ]
    return GroupingCode(
        complex(lam),
        tuple(group for group, _ in grouped),
        tuple(tuple(float(x) for x in t) for _, t in grouped),
        code_subspace(basis, tol),
    )


def dfs_exists(u, k: int, tol: ToleranceConfig = DEFAULT_TOL) -> tuple[bool, complex | None]:
    """Whether a zero-entropy rank-k code exists: some eigenvalue with
    multiplicity >= k, returned as the mean of the first such cluster.

    It lies in the rank-k range with no test: a cluster of k or more members
    is contiguous in phase order, so every run of N-k+1 eigenvalues holds one,
    and its mean is a vertex of every run hull.  A run of one cluster elsewhere
    would need N-k+1 more eigenvalues, which do not exist."""
    dec = _analysis(u, tol)[0]
    for cluster, rep in zip(dec.cluster_map, _representatives(dec, k)):
        if len(cluster) >= k:
            return True, rep
    return False, None
