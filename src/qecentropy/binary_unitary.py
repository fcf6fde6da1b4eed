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

# Smallest slack when testing whether a lambda lies in a rank-k range.  A
# vertex of a range rebuilt through another clip order, or the mean of a
# degenerate cluster whose members spread over up to eps_eig * N, can sit a
# little outside the computed polygon, by more than eps_geom (1e-10 by
# default) allows.
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
        if not is_unitary(self.u):
            raise ValueError("binary unitary channel requires a unitary matrix")

    def to_channel(self, tol: ToleranceConfig = DEFAULT_TOL) -> QuantumChannel:
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

    def contains(self, lam: complex, eps: float) -> bool:
        return geometry.contains(self.vertices, lam, eps)

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


def _run_supports(dec: EigenDecomposition, k: int) -> tuple[np.ndarray, list[frozenset]]:
    """Cluster representatives and the distinct cluster sets of the N cyclic
    runs of N-k+1 eigenvalues in phase order.

    For normal U the rank-k range is the intersection of the closed
    half-planes that hold at least N-k+1 eigenvalues counted with
    multiplicity.  The eigenvalues inside such a half-plane fill an arc of
    the unit circle, so each of these half-planes holds one of the runs, and
    the run hulls alone cut out the same region as all (N-k+1)-subset hulls.
    """
    n = len(dec.eigenvalues)
    if not 1 <= k <= n:
        raise ValueError(f"rank k must be in [1, {n}], got {k}")
    owner = np.empty(n, dtype=int)
    reps = []
    for ci, cluster in enumerate(dec.cluster_map):
        owner[list(cluster)] = ci
        reps.append(complex(np.mean(dec.eigenvalues[list(cluster)])))
    runs = (np.arange(n)[:, None] + np.arange(n - k + 1)[None, :]) % n
    supports = dict.fromkeys(frozenset(row) for row in owner[runs].tolist())
    return np.array(reps), list(supports)


def _range_from_eigen(dec: EigenDecomposition, k: int, tol: ToleranceConfig) -> NumRangeRegion:
    """Rank-k range: the hull of the cluster representatives clipped by every
    phase-contiguous run hull.

    The representatives lie in convex position on the unit circle and a run
    holds a contiguous arc of them, so a run hull with three or more vertices
    is the full hull cut by one chord: from the run's last cluster to its
    first, across the excluded arc.  Runs of one or two clusters are clipped
    by their point or segment hull.
    """
    reps, supports = _run_supports(dec, k)
    m, eps = len(reps), tol.eps_geom
    region = geometry.canonical_vertices(geometry.convex_hull(reps, eps), eps)
    for support in supports:
        if len(region) == 0:
            break
        if len(support) == m:
            continue
        if len(support) >= 3:
            last = next(c for c in support if (c + 1) % m not in support)
            first = next(c for c in support if (c - 1) % m not in support)
            region = geometry.clip_left_of(region, reps[last], reps[first], eps)
        else:
            hull = geometry.convex_hull(reps[sorted(support)], eps)
            region = geometry.clip_by_hull(region, hull, eps)
    return _classify_region(k, region, tol)


def numerical_range(u, k: int, tol: ToleranceConfig = DEFAULT_TOL) -> NumRangeRegion:
    """Rank-k numerical range: intersection of the phase-contiguous run hulls,
    the hulls of the N cyclic runs of N-k+1 eigenvalues in phase order."""
    return _range_from_eigen(unitary_eigen(as_matrix(u), tol), k, tol)


def constituent_hulls(u, k: int, tol: ToleranceConfig = DEFAULT_TOL) -> list[np.ndarray]:
    """Vertex sets of the distinct phase-contiguous run hulls (at most N)
    whose intersection is the rank-k range."""
    return _hulls_from_eigen(unitary_eigen(as_matrix(u), tol), k, tol)


def _hulls_from_eigen(dec: EigenDecomposition, k: int, tol: ToleranceConfig) -> list[np.ndarray]:
    reps, supports = _run_supports(dec, k)
    return [
        geometry.canonical_vertices(
            geometry.convex_hull(reps[sorted(s)], tol.eps_geom), tol.eps_geom
        )
        for s in supports
    ]


def _classify_region(k: int, pts: np.ndarray, tol: ToleranceConfig) -> NumRangeRegion:
    pts = geometry.canonical_vertices(pts, tol.eps_geom)
    if len(pts) == 0:
        return NumRangeRegion(k, RegionKind.EMPTY, pts)
    if len(pts) == 1:
        return NumRangeRegion(k, RegionKind.POINT, pts)
    if len(pts) == 2:
        return NumRangeRegion(k, RegionKind.SEGMENT, pts)
    return NumRangeRegion(k, RegionKind.POLYGON, pts)


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
    closest = geometry.closest_point(region.vertices, 0.0 + 0.0j, 0.0)
    return ExtremalLambdas(tuple(winners), closest)


def lambda_spectrum(p: float, lam: complex, eps_geom: float = DEFAULT_TOL.eps_geom) -> tuple[float, float]:
    """Spectrum {L+, L-} of the 2x2 coefficient matrix of a binary unitary code."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"mixing probability must be in [0, 1], got {p}")
    mod2 = abs(lam) ** 2
    if mod2 > (1.0 + eps_geom) ** 2:
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
    region = numerical_range(u, k, tol)
    if not region.contains(lam, max(tol.eps_geom, LAMBDA_MEMBERSHIP_FLOOR)):
        raise LambdaOutsideRegionError(f"lambda {lam} is not in the rank-{k} numerical range")
    return [(float(p), biunitary_code_entropy(float(p), lam)) for p in p_grid]


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


def _lambda_supports(eigs: np.ndarray, lam: complex, atol: float, size: int) -> dict:
    """Minimal supports of ``lam``: the singles, pairs and triples of
    eigen-indices (ascending, at most ``size`` long) whose eigenvalues have
    convex coefficients t with sum(t z) = lam within ``atol``, mapped to t.

    Basic feasible solutions of sum(t) = 1, sum(t z) = lam have at most three
    nonzero coefficients (Caratheodory), so a group of eigenvalues holds lam
    in its hull exactly when it contains one of these supports.  A pair or
    triple that contains a feasible single or pair is left out: any group
    holding it holds that smaller support too, which comes first.
    """
    n = len(eigs)
    supports: dict[tuple[int, ...], tuple[float, ...]] = {}
    for i in range(n):
        if abs(eigs[i] - lam) <= atol:
            supports[(i,)] = (1.0,)
    if size >= 2:
        for i, j in itertools.combinations(range(n), 2):
            if (i,) in supports or (j,) in supports:
                continue
            d = eigs[j] - eigs[i]
            den = abs(d) ** 2
            if den == 0:
                continue
            tj = float(np.clip((np.conj(d) * (lam - eigs[i])).real / den, 0.0, 1.0))
            if abs(eigs[i] + tj * d - lam) <= atol:
                supports[(i, j)] = (1.0 - tj, tj)
    if size < 3 or n < 3:
        return supports
    triples = np.array(list(itertools.combinations(range(n), 3)))
    z = eigs[triples]
    a = np.stack([z.real, z.imag, np.ones(z.shape)], axis=1)
    b = np.broadcast_to(np.array([lam.real, lam.imag, 1.0])[:, None], (len(triples), 3, 1))
    sols = _solve_each(a, b)[..., 0]
    keep = ~(sols.min(axis=1) < -atol)
    for (i, j, l), sol in zip(triples[keep].tolist(), sols[keep]):
        if any(sub in supports for r in (1, 2) for sub in itertools.combinations((i, j, l), r)):
            continue
        sol = np.clip(sol, 0.0, None)
        sol /= sol.sum()
        if abs(sol[0] * eigs[i] + sol[1] * eigs[j] + sol[2] * eigs[l] - lam) <= atol:
            supports[(i, j, l)] = tuple(sol)
    return supports


def _group_weights(group: tuple[int, ...], supports: dict) -> np.ndarray | None:
    """Weights of the first support the group contains (singles, then pairs,
    then triples, each in lexicographic order), or None."""
    for r in (1, 2, 3):
        for support in itertools.combinations(group, r):
            w = supports.get(support)
            if w is not None:
                t = np.zeros(len(group))
                t[[group.index(i) for i in support]] = w
                return t
    return None


def _require_divides(n: int, k: int) -> None:
    if k < 1 or n % k != 0:
        raise UnsupportedCodeDimensionError(
            f"eigenstate grouping requires k | N; got k={k}, N={n}"
        )


def _grouping_from_eigen(
    dec: EigenDecomposition, k: int, lam: complex, tol: ToleranceConfig
) -> GroupingCode:
    """Grouping search on one eigendecomposition; the caller has checked that
    lam lies in the rank-k range."""
    eigs = dec.eigenvalues
    n = len(eigs)
    _require_divides(n, k)
    size = n // k
    supports = _lambda_supports(eigs, lam, max(tol.eps_geom, LAMBDA_MEMBERSHIP_FLOOR), size)
    members = np.zeros((len(supports), n), dtype=bool)
    for row, support in enumerate(supports):
        members[row, list(support)] = True

    def can_hold(unused: tuple[int, ...]) -> bool:
        # Disjoint supports need distinct members of any set that meets every
        # support inside ``unused``, so a greedy such hitting set smaller than
        # the number of groups to fill proves the branch fails.
        used = np.ones(n, dtype=bool)
        used[list(unused)] = False
        inside = members[~members[:, used].any(axis=1)]
        need = len(unused) // size
        for _ in range(need):
            if len(inside) == 0:
                return False
            inside = inside[~inside[:, inside.sum(axis=0).argmax()]]
        return True

    weights_of: dict[tuple[int, ...], np.ndarray | None] = {}

    def group_weights(group: tuple[int, ...]) -> np.ndarray | None:
        # Groups holding eigenstate 0 are tried once each, at the root, so
        # only the others are kept.
        if group[0] == 0:
            return _group_weights(group, supports)
        if group not in weights_of:
            weights_of[group] = _group_weights(group, supports)
        return weights_of[group]

    groups: list[tuple[int, ...]] = []
    weights: list[np.ndarray] = []

    def backtrack(unused: tuple[int, ...]) -> bool:
        if not unused:
            return True
        if not can_hold(unused):
            return False
        anchor, rest = unused[0], unused[1:]
        for combo in itertools.combinations(rest, size - 1):
            group = (anchor,) + combo
            t = group_weights(group)
            if t is None:
                continue
            groups.append(group)
            weights.append(t)
            if backtrack(tuple(i for i in rest if i not in combo)):
                return True
            groups.pop()
            weights.pop()
        return False

    if not backtrack(tuple(range(n))):
        raise NoFeasiblePartitionError(
            f"no size-{size} eigenstate partition realises lambda {lam}"
        )
    basis = [
        sum(np.sqrt(t[a]) * dec.eigenvectors[:, idx] for a, idx in enumerate(group))
        for group, t in zip(groups, weights)
    ]
    return GroupingCode(
        complex(lam),
        tuple(groups),
        tuple(tuple(float(x) for x in t) for t in weights),
        code_subspace(basis, tol),
    )


def grouping_code(u, k: int, lam: complex, tol: ToleranceConfig = DEFAULT_TOL) -> GroupingCode:
    """Build a rank-k code by partitioning the eigenstates into k groups of
    N/k whose eigenvalue hulls all contain ``lam``.

    Group members are combined as sum_j sqrt(t_j) |psi_j>, which is
    orthonormal across groups because the eigenbasis is.  Backtracking over
    partitions is lexicographic in phase order: each level fills the group of
    the first unused eigenstate with every choice of N/k - 1 others in turn.

    Feasibility of a group depends only on which eigenvalues it holds, so the
    search first tabulates the minimal supports of ``lam``: the singles,
    pairs and triples of eigenstates whose hull holds it (Caratheodory), each
    with its convex weights.  A group is feasible when it contains one, and
    takes the weights of the first it contains (singles, then pairs, then
    triples, each in lexicographic order), looked up by the group's own
    singles, pairs and triples and memoised per group.  A branch is cut when
    its unused eigenstates cannot hold one disjoint support for each group
    still to fill: when a greedy set of them that meets every support among
    them is smaller than the number of those groups.  That only drops
    branches that fail, so the partition found is the first in the
    lexicographic order.
    """
    u = as_matrix(u)
    _require_divides(u.shape[0], k)
    dec = unitary_eigen(u, tol)
    region = _range_from_eigen(dec, k, tol)
    if not region.contains(lam, max(tol.eps_geom, LAMBDA_MEMBERSHIP_FLOOR)):
        raise LambdaOutsideRegionError(f"lambda {lam} is not in the rank-{k} numerical range")
    return _grouping_from_eigen(dec, k, lam, tol)


def dfs_exists(u, k: int, tol: ToleranceConfig = DEFAULT_TOL) -> tuple[bool, complex | None]:
    """Whether a zero-entropy rank-k code exists: some eigenvalue with
    multiplicity >= k that lies in the rank-k numerical range."""
    dec = unitary_eigen(as_matrix(u), tol)
    region = _range_from_eigen(dec, k, tol)
    for cluster in dec.cluster_map:
        if len(cluster) < k:
            continue
        rep = complex(np.mean(dec.eigenvalues[list(cluster)]))
        if region.contains(rep, max(tol.eps_geom, LAMBDA_MEMBERSHIP_FLOOR)):
            return True, rep
    return False, None
