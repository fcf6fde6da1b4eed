"""Binary unitary channels: higher-rank numerical ranges by convex clipping,
extremal compression values, eigenstate-grouping code construction, and the
closed-form coefficient spectrum and entropy."""

from __future__ import annotations

import bisect
import cmath
import dataclasses
import enum
import itertools
import math

import numpy as np

from . import geometry, serialization
from .channel import QuantumChannel, channel
from .code import CodeSubspace, code_subspace
from .entropy import _entropy_of_spectrum, _entropy_rows
from .errors import (
    LambdaOutsideRegionError,
    NoCodeError,
    NoFeasiblePartitionError,
    UnsupportedCodeDimensionError,
)
from .numerics import DEFAULT_TOL, EigenDecomposition, ToleranceConfig, _require_unitary, as_matrix, unitary_eigen

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


@dataclasses.dataclass(frozen=True, eq=False)
class BinaryUnitaryChannel:
    """The two-term mixing channel rho -> (1-p) rho + p U rho U^dag."""

    p: float
    u: np.ndarray

    def __post_init__(self):
        _check_mixing_probability(self.p)

    def to_channel(self, tol: ToleranceConfig = DEFAULT_TOL) -> QuantumChannel:
        """Kraus form {sqrt(1-p) I, sqrt(p) U}; checks U for unitarity under ``tol``."""
        u = _require_unitary(self.u, tol)
        return channel([np.sqrt(1 - self.p) * np.eye(u.shape[0]), np.sqrt(self.p) * u])


def _check_mixing_probability(p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"mixing probability must be in [0, 1], got {p}")


class RegionKind(str, enum.Enum):
    EMPTY = "Empty"
    POINT = "Point"
    SEGMENT = "Segment"
    POLYGON = "Polygon"


# The kind of a canonical vertex array, by its length capped at 3.
_KINDS = (RegionKind.EMPTY, RegionKind.POINT, RegionKind.SEGMENT, RegionKind.POLYGON)


@dataclasses.dataclass(frozen=True, eq=False)
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


@dataclasses.dataclass(frozen=True, eq=False)
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
    z = eigs.tolist()
    return [z[c[0]] if len(c) == 1 else complex(np.mean(eigs[list(c)])) for c in dec.cluster_map]


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
    clusters = dec.cluster_map
    n, m = len(dec.eigenvalues), len(clusters)
    reps = _representatives(dec, k)
    owner = {i: c for c, members in enumerate(clusters) for i in members}
    # crossed[i]: how many of eigenvalues 0..i-1, twice round, start a cluster.
    opens = [owner[i] != owner[(i - 1) % n] for i in range(n)]
    crossed = list(itertools.accumulate(opens * 2, initial=0))
    sizes = [min(crossed[s + n - k + 1] - crossed[s + 1] + 1, m) for s in range(n)]
    return reps, list(dict.fromkeys((0 if size == m else owner[s], size) for s, size in enumerate(sizes)))


def _range_from_eigen(dec: EigenDecomposition, k: int, tol: ToleranceConfig) -> NumRangeRegion:
    """Rank-k range in one pass: the polygon of the cluster representatives
    cut by one chord half-plane per distinct run.

    The representatives come in phase order on the unit circle, so they are
    already the vertices of their CCW hull, and a run holds an arc of them.
    The hull of a run of two or more clusters is the full hull cut by one
    chord, from the run's last cluster to its first across the excluded arc.
    For a run of two clusters that chord joins representatives adjacent in
    phase order, so it is an edge of the polygon, which lies in the opposite
    half-plane, as does each region below (it starts as the polygon or one
    representative, and each cut lies on an edge of its input): one cut
    leaves the region's part on the edge.  A run of one cluster holds its
    representative alone: the range is then that point, if every other run
    keeps it, or empty.

    Each cut keeps a vertex past its chord's line only within eps_geom of the
    chord itself.  Where two runs' chords cross at a small angle, the bands
    along their whole lines would otherwise meet in a sliver that reaches
    past a representative, out of every run hull's eps_geom-neighbourhood.

    The clips run on a plain vertex list and may leave collinear vertices
    or near-copies; it is canonicalised once, at the end.
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
            region = geometry.clip_halfplane(region, normal, offset, eps, (a, b))
    pts = geometry.canonical_vertices(region, eps)
    pts.flags.writeable = False
    return NumRangeRegion(k, _KINDS[min(len(pts), 3)], pts)


def _analysed_range(u, k: int, tol: ToleranceConfig) -> tuple[EigenDecomposition, NumRangeRegion]:
    dec = unitary_eigen(u, tol)
    if k not in dec._ranges:
        dec._ranges[k] = _range_from_eigen(dec, k, tol)
    return dec, dec._ranges[k]


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
    reps, arcs = _run_arcs(unitary_eigen(u, tol), k)
    ring, keys = reps * 2, [(z.real, z.imag) for z in reps] * 2
    hulls = []
    for first, size in arcs:
        arc = keys[first : first + size]
        start = first + arc.index(min(arc))
        hulls.append(np.array(ring[start : first + size] + ring[first:start]))
    return hulls


def _membership_slack(tol: ToleranceConfig) -> float:
    """How far lambda may lie from a rank-k range and still be taken as in
    it; the grouping code's groups hold lambda within the same slack."""
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


def _closed_form_spectra(p, mod2: float) -> np.ndarray:
    """{L+, L-} along a last axis for the mixing probability or array ``p``,
    at |lambda|^2 = mod2 capped at 1."""
    root = np.sqrt(np.maximum(0.0, 1.0 - 4.0 * p * (1.0 - p) * (1.0 - min(1.0, mod2))))
    return 0.5 * (1.0 + np.multiply.outer(root, (1.0, -1.0)))


def lambda_spectrum(p: float, lam: complex) -> tuple[float, float]:
    """Spectrum {L+, L-} of the 2x2 coefficient matrix of a binary unitary code."""
    _check_mixing_probability(p)
    mod2 = abs(lam) ** 2
    if mod2 > (1.0 + LAMBDA_MEMBERSHIP_FLOOR) ** 2:
        raise ValueError(f"|lambda| = {abs(lam)} exceeds 1")
    return tuple(_closed_form_spectra(p, mod2))


def biunitary_code_entropy(p: float, lam: complex) -> float:
    """Closed-form code entropy (bits) for a binary unitary channel: the
    entropy of the spectrum {L+, L-}."""
    return _entropy_of_spectrum(lambda_spectrum(p, lam))


def entropy_vs_p(u, k: int, lam: complex, p_grid, tol: ToleranceConfig = DEFAULT_TOL):
    """Code entropy along a grid of mixing probabilities for a fixed lambda."""
    _eigen_holding(u, k, lam, tol)
    ps = [float(p) for p in p_grid]
    for p in ps:
        _check_mixing_probability(p)
    # One (G, 2) stack, with biunitary_code_entropy's bits at each p.  An
    # accepted lambda past a vertex on the unit circle, by up to the
    # membership slack, has the vertex's entropy: |lambda|^2 is capped at 1.
    entropies = _entropy_rows(_closed_form_spectra(np.array(ps), abs(lam) ** 2))
    return list(zip(ps, entropies.tolist()))


def _support_weights(z: list, lam: complex, slack: float, members: list):
    """Convex weights over one, two or three ``members`` of the point of their
    hull nearest ``lam`` (for three, lam's barycentric coordinates clipped at
    0), if it is within ``slack`` of ``lam``, or None."""
    w = [z[i] for i in members]
    if len(w) == 1:
        t, near = [1.0], w[0]
    elif len(w) == 2:
        d = w[1] - w[0]
        den = abs(d) ** 2
        # Equal members (den 0) are tested as the one point.
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


def _group_support(z: list, lam: complex, slack: float, group: list, angle: dict):
    """Members, ascending, and convex weights of the first point, edge or
    triangle of ``group`` (in angle order) that holds ``lam`` within
    ``slack``, as ``grouping_code`` tries them, or None."""
    p0 = group[0]
    # A member within the slack of lam has no angle, so p0 is tried first.
    t = _support_weights(z, lam, slack, [p0])
    if t is not None:
        return [p0], t
    # Angles relative to p0's, as differences of the sorted phases, so that a
    # member tied with p0 sits at 0, not just below 2 pi.
    pos = bisect.bisect_right([angle[i] - angle[p0] for i in group], math.pi)
    a = group[pos - 1]
    b = group[pos] if pos < len(group) else a
    candidates = [(a, b), (p0, a), (p0, b), (p0, a, b)] if p0 != a != b else [(p0, b)]
    for members in map(sorted, candidates):
        t = _support_weights(z, lam, slack, members)
        if t is not None:
            return members, t
    # A lam outside the group's hull (its members span less than pi about
    # it) is nearest a hull edge, which joins members adjacent in phase.
    ring = sorted(group, key=lambda i: cmath.phase(z[i]))
    for members in map(sorted, zip(ring, ring[1:] + ring[:1])):
        t = _support_weights(z, lam, slack, members)
        if t is not None:
            return members, t
    return None


def grouping_code(u, k: int, lam: complex, tol: ToleranceConfig = DEFAULT_TOL) -> GroupingCode:
    """Build a rank-k code from k groups of N/k eigenstates whose eigenvalue
    hulls all hold ``lam``, interleaved around it: the eigenvalues within the
    membership slack of ``lam`` in index order, then the rest by
    arg(z - lam), ties in index order; group j takes places j, j+k, j+2k, ...
    Members combine as sum_j sqrt(t_j) |psi_j>, orthonormal across groups as
    the eigenbasis is.

    Every group holds lam.  For normal U, lam is in the rank-k range exactly
    when every closed half-plane bounded by a line through lam holds k or
    more eigenvalues (Li and Sze, Proc. AMS 2008).  An eigenvalue equal to
    lam is on the unit circle, where the tangent half-plane holds only those,
    so there are k or more and each of the first k groups takes one.
    Otherwise neighbours in a group have k-1 eigenvalues between them in
    angle order; a gap over pi between them would leave a closed half-plane
    through lam with at most k-1, so no gap exceeds pi.

    The weights sit on one member within the slack of lam, or on the first
    of the edges (a, b), (p0, a), (p0, b) and the triangle (p0, a, b) that
    holds lam within the slack, where p0 is the group's first member and a, b
    the consecutive members whose angles bracket p0's plus pi: the triangle
    holds lam by the gap bound, and an edge gives exact zeros where lam is on
    it.  Other members take weight 0.  A lam accepted within the slack but
    outside the exact range lies by a vertex, and takes the groups around it,
    which hold lam within the slack; where none of those supports does (lam
    just past a k-fold eigenvalue), the group's nearest hull edge is tried,
    between members adjacent in phase.  A group with no support raises
    NoFeasiblePartitionError.  Groups are sorted, and listed by their first
    member.
    """
    u = as_matrix(u)
    n = u.shape[0]
    if k < 1 or n % k != 0:
        raise UnsupportedCodeDimensionError(
            f"eigenstate grouping requires k | N; got k={k}, N={n}"
        )
    dec = _eigen_holding(u, k, lam, tol)
    size, slack = n // k, _membership_slack(tol)
    z = dec.eigenvalues.tolist()
    at = [i for i in range(n) if abs(z[i] - lam) <= slack]
    angle = {i: cmath.phase(z[i] - lam) for i in range(n) if abs(z[i] - lam) > slack}
    order = at + sorted(angle, key=angle.__getitem__)
    grouped = []
    for j in range(k):
        group = order[j::k]
        support = _group_support(z, lam, slack, group, angle)
        if support is None:
            raise NoFeasiblePartitionError(
                f"no size-{size} eigenstate partition realises lambda {lam}"
            )
        t = np.zeros(n)
        t[support[0]] = support[1]
        group.sort()
        grouped.append((tuple(group), t[group]))
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
    dec = unitary_eigen(u, tol)
    for cluster, rep in zip(dec.cluster_map, _representatives(dec, k)):
        if len(cluster) >= k:
            return True, rep
    return False, None
