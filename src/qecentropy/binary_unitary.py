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


def extremal_lambda(region: NumRangeRegion, tie_atol: float = 1e-9) -> ExtremalLambdas:
    """Entropy extremes over a region.

    The modulus is convex, so its maximum over a convex set is attained at a
    vertex; all maximizing vertices are returned (sorted by (re, im)).  The
    maximum-entropy value is the point of the region closest to the origin.
    """
    if region.kind is RegionKind.EMPTY:
        raise NoCodeError("the rank-k numerical range is empty; no rank-k code exists")
    moduli = np.abs(region.vertices)
    best = float(moduli.max())
    winners = [complex(z) for z, m in zip(region.vertices, moduli) if best - m <= tie_atol]
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


def _solve_group_weights(zs: np.ndarray, lam: complex, atol: float):
    """Convex coefficients with sum(t) = 1 and sum(t z) = lam, or None.

    Basic feasible solutions have at most three nonzero coefficients (two
    equality constraints plus normalisation), so enumeration over singles,
    pairs and triples is exhaustive.  Enumeration order is lexicographic,
    which keeps the construction deterministic.
    """
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


def grouping_code(u, k: int, lam: complex, tol: ToleranceConfig = DEFAULT_TOL) -> GroupingCode:
    """Build a rank-k code by partitioning the eigenstates into k groups of
    N/k whose eigenvalue hulls all contain ``lam``.

    Group members are combined as sum_j sqrt(t_j) |psi_j>, which is
    orthonormal across groups because the eigenbasis is.  Backtracking over
    partitions is lexicographic in phase order.
    """
    u = as_matrix(u)
    n = u.shape[0]
    if k < 1 or n % k != 0:
        raise UnsupportedCodeDimensionError(
            f"eigenstate grouping requires k | N; got k={k}, N={n}"
        )
    dec = unitary_eigen(u, tol)
    region = _range_from_eigen(dec, k, tol)
    atol = max(tol.eps_geom, LAMBDA_MEMBERSHIP_FLOOR)
    if not region.contains(lam, atol):
        raise LambdaOutsideRegionError(f"lambda {lam} is not in the rank-{k} numerical range")
    eigs = dec.eigenvalues
    size = n // k

    groups: list[tuple[int, ...]] = []
    weights: list[np.ndarray] = []

    def backtrack(unused: tuple[int, ...]) -> bool:
        if not unused:
            return True
        anchor, rest = unused[0], unused[1:]
        for combo in itertools.combinations(rest, size - 1):
            group = (anchor,) + combo
            t = _solve_group_weights(eigs[list(group)], lam, atol)
            if t is None:
                continue
            groups.append(group)
            weights.append(t)
            remaining = tuple(i for i in rest if i not in combo)
            if backtrack(remaining):
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
    code = code_subspace(basis, tol)
    return GroupingCode(
        complex(lam),
        tuple(groups),
        tuple(tuple(float(x) for x in t) for t in weights),
        code,
    )


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
