"""The library-level workloads: numrange, grouping and kraus.

A workload is a fixed schedule of request shapes, one *round*, whose inputs
are drawn from the seed.  Every round has the same sizes, so runs with
different seeds do the same amount of work up to the values drawn; a run
repeats its round's requests in whole passes.

Each request runs one pipeline of public qecentropy calls (the timed part)
and returns its outputs; ``check`` then verifies them by an independent route
outside the timed part and returns None or the reason they are wrong.
Expected refusals (an empty range, a subspace that is not a code) are part of
the outputs and are checked like any other result.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable

import numpy as np

from qecentropy import (
    BinaryUnitaryChannel,
    NoCodeError,
    NoFeasiblePartitionError,
    NotCorrectable,
    biunitary_code_entropy,
    build_recovery,
    check_lindblad_bounds,
    choi_gram,
    classify_code,
    constituent_hulls,
    dfs_exists,
    entropy_exchange,
    entropy_vs_p,
    extremal_lambda,
    grouping_code,
    kl_check,
    lindblad_omega,
    numerical_range,
    purification_exchange_entropy,
    random_channel,
    random_density,
    sigma_equals_lambda_check,
    unitary_eigen,
)
from qecentropy.cli import render_region_svg

import inputs

ATOL = 1e-8
P_GRID = [i / 20 for i in range(21)]


@dataclasses.dataclass
class Request:
    label: str
    run: Callable  # run(tracer) -> outputs; the timed part
    check: Callable  # check(outputs) -> None, or the reason the outputs are wrong


# Independent checks -------------------------------------------------------


def shannon_bits(weights) -> float:
    w = np.asarray(weights, dtype=float)
    w = w[w > 1e-300]
    return float(-(w * np.log2(w)).sum())


def binary_code_entropy(p: float, lam: complex) -> float:
    """Entropy of the 2x2 correction matrix of a binary unitary code, by eigensolve."""
    off = math.sqrt(p * (1 - p)) * lam
    mat = np.array([[1 - p, off], [np.conj(off), p]])
    return shannon_bits(np.clip(np.linalg.eigvalsh(mat), 0.0, None))


def _circle_polygon(points: np.ndarray, eps: float) -> np.ndarray:
    """Distinct points on the unit circle in phase order.

    Points on a circle taken in phase order are the vertices of a convex
    polygon in counter-clockwise order, so no hull algorithm is needed.
    """
    pts = points[np.argsort(np.mod(np.angle(points), 2 * np.pi))]
    keep = [pts[0]]
    for p in pts[1:]:
        if abs(p - keep[-1]) > eps and abs(p - keep[0]) > eps:
            keep.append(p)
    return np.array(keep)


def _in_circle_hull(points: np.ndarray, z: np.ndarray, eps: float) -> np.ndarray:
    """Whether each z lies in the hull of points on the unit circle."""
    pts = _circle_polygon(points, eps)
    if len(pts) == 1:
        return np.abs(z - pts[0]) <= eps
    if len(pts) == 2:
        a, b = pts
        t = np.clip(((z - a) * np.conj(b - a)).real / abs(b - a) ** 2, 0.0, 1.0)
        return np.abs(a + t * (b - a) - z) <= eps
    a, b = pts, np.roll(pts, -1)
    cross = (np.conj(b - a)[None, :] * (z[:, None] - a[None, :])).imag / np.abs(b - a)[None, :]
    return np.all(cross >= -eps, axis=1)


def _half_planes(pts: np.ndarray) -> list[tuple[complex, complex]]:
    """(a, d) pairs whose half-planes {z : Im(conj(d) (z - a)) >= 0}, the left
    of d through a, cut out the hull of a counter-clockwise convex polygon,
    a segment or a point."""
    if len(pts) == 1:
        return [(pts[0], d) for d in (1, 1j, -1, -1j)]
    if len(pts) == 2:
        a, b = pts
        return [(a, b - a), (b, a - b), (a, -1j * (b - a)), (b, -1j * (a - b))]
    return list(zip(pts, np.roll(pts, -1) - pts))


def _clip(poly: np.ndarray, a: complex, d: complex, eps: float) -> np.ndarray:
    """Sutherland-Hodgman: the part of a convex polygon within eps of a half-plane."""
    s = (np.conj(d) * (poly - a)).imag / abs(d) + eps
    out = []
    for i in range(len(poly)):
        prev, cur, sp, sc = poly[i - 1], poly[i], s[i - 1], s[i]
        if (sp >= 0) != (sc >= 0):
            out.append(prev + sp / (sp - sc) * (cur - prev))
        if sc >= 0:
            out.append(cur)
    return np.array(out, dtype=complex)


def _distance_to_hull(z: complex, vertices: np.ndarray) -> float:
    """Distance from z to the convex polygon, segment or point with these vertices in order."""
    a, b = vertices, np.roll(vertices, -1)
    if len(vertices) >= 3:
        cross = (np.conj(b - a) * (z - a)).imag
        if np.all(cross >= 0) or np.all(cross <= 0):
            return 0.0
    edge = b - a
    t = np.clip(((z - a) * np.conj(edge)).real / np.maximum(np.abs(edge) ** 2, 1e-300), 0.0, 1.0)
    return float(np.min(np.abs(a + t * edge - z)))


CLIP_EPS = 1e-10  # slack of each half-plane in the reference intersection
REGION_TOL = 1e-6  # largest distance allowed between the range and the reference
KIND_VERTICES = {"Point": (1, 1), "Segment": (2, 2), "Polygon": (3, None)}


def _check_region(eigs: np.ndarray, k: int, kind: str, vertices: np.ndarray) -> str | None:
    """Compare the range with an independent one: a square clipped by the
    half-planes of the hull of every phase-contiguous run of N-k+1 eigenvalues.
    Each returned vertex must lie in that intersection and each of its
    vertices in the returned region, so a shrunken, grown or misplaced
    region fails, and so does a dropped or an interior vertex."""
    n = len(eigs)
    ref = np.array([2 - 2j, 2 + 2j, -2 + 2j, -2 - 2j])
    for start in range(n):
        run = _circle_polygon(eigs[(start + np.arange(n - k + 1)) % n], 1e-12)
        for a, d in _half_planes(run):
            ref = _clip(ref, a, d, CLIP_EPS)
    if kind == "Empty":
        if len(ref) and np.max(np.abs(ref - ref[0])) > REGION_TOL:
            return "range is Empty, but the run hulls intersect"
        return None
    lo, hi = KIND_VERTICES[kind]
    if not lo <= len(vertices) <= (hi or len(vertices)):
        return f"{kind} with {len(vertices)} vertices"
    if not len(ref):
        return f"range is a {kind}, but the run hulls do not intersect"
    if max(_distance_to_hull(v, ref) for v in vertices) > REGION_TOL:
        return "a vertex lies outside the intersection of the run hulls"
    if max(_distance_to_hull(r, vertices) for r in ref) > REGION_TOL:
        return "the range misses part of the intersection of the run hulls"
    return None


def _check_even_closed_form(n: int, k: int, offset: float, kind: str, vertices) -> str | None:
    """Evenly spaced spectrum: regular N-gon with inradius cos(pi k/N) when 2k < N,
    the point 0 when 2k = N, empty when 2k > N."""
    if 2 * k > n:
        return None if kind == "Empty" else f"expected Empty, got {kind}"
    if 2 * k == n:
        ok = kind == "Point" and abs(vertices[0]) <= 1e-8
        return None if ok else f"expected the point 0, got {kind} {vertices}"
    if kind != "Polygon" or len(vertices) != n:
        return f"expected a regular {n}-gon, got {kind} with {len(vertices)} vertices"
    inradius = math.cos(math.pi * k / n)
    if np.max(np.abs(np.abs(vertices) - inradius / math.cos(math.pi / n))) > 1e-8:
        return "vertex modulus differs from cos(pi k/N)/cos(pi/N)"
    steps = (np.angle(vertices) - offset - math.pi * (k + 1) / n) / (2 * math.pi / n)
    if np.max(np.abs(steps - np.round(steps))) > 1e-7:
        return "vertices are not at the N-gon's angles"
    return None


def _check_extremal(vertices: np.ndarray, lam: complex) -> str | None:
    moduli = np.abs(vertices)
    if np.min(np.abs(vertices - lam)) > 1e-12 or abs(lam) < moduli.max() - 1e-9:
        return "extremal lambda is not a vertex of largest modulus"
    return None


# numrange -------------------------------------------------------------------

# (N, k, spectrum family); every fourth request also draws the SVG with hulls.
# A round has 34 requests.  The k=2 shapes cost about the same as each other
# and fill the middle of the latency distribution, so the median does not sit on a jump between shapes;
# the top tenth falls among the six costliest shapes (0.35-0.5 s each).
NUMRANGE_ROUND = (
    (12, 2, "even"), (12, 3, "random"), (16, 9, "repeated"), (14, 2, "random"),
    (12, 6, "even"), (16, 3, "random"), (12, 5, "repeated"), (13, 2, "even"),
    (15, 2, "random"), (14, 8, "even"), (16, 7, "repeated"), (12, 4, "random"),
    (16, 2, "even"), (13, 3, "random"), (14, 6, "repeated"), (12, 7, "even"),
    (13, 2, "random"), (15, 3, "even"), (12, 8, "repeated"), (14, 3, "random"),
    (16, 3, "even"), (12, 7, "random"), (16, 5, "repeated"), (12, 3, "even"),
    (16, 2, "random"), (14, 9, "repeated"), (14, 2, "even"), (12, 2, "random"),
    (15, 2, "even"), (13, 5, "repeated"), (16, 2, "random"), (14, 2, "random"),
    (12, 2, "repeated"), (16, 2, "repeated"),
)


def _numrange_request(seed: int, rnd: int, slot: int, n: int, k: int, family: str) -> Request:
    rng = inputs.rng_for(seed, 1, rnd, slot)
    phases = inputs.spectrum(family, n, rng)
    u = inputs.unitary_with_phases(phases, rng)
    eigs = np.exp(1j * phases)
    draw_svg = slot % 4 == 3

    def run(tr):
        region = tr.call("binary_unitary.numerical_range", numerical_range, u, k)
        tr.count("binary_unitary.numerical_range.subsets", math.comb(n, k - 1))
        out = {"kind": region.kind.value, "vertices": np.array(region.vertices)}
        try:
            ext = tr.call("binary_unitary.extremal_lambda", extremal_lambda, region)
        except NoCodeError:
            out["lam"] = None
        else:
            lam = ext.min_entropy_lambdas[0]
            out["lam"] = lam
            out["dfs"] = tr.call("binary_unitary.dfs_exists", dfs_exists, u, k)
            out["entropy"] = tr.call("binary_unitary.entropy_vs_p", entropy_vs_p, u, k, lam, P_GRID)
        if draw_svg:
            dec = tr.call("numerics.unitary_eigen", unitary_eigen, u)
            hulls = tr.call("binary_unitary.constituent_hulls", constituent_hulls, u, k)
            svg = tr.call("cli.render_region_svg", render_region_svg, region, dec.eigenvalues, hulls)
            tr.count("binary_unitary.constituent_hulls.hulls", len(hulls))
            tr.count("cli.render_region_svg.bytes_out", len(svg))
            out["hulls"], out["svg"] = hulls, svg
        return out

    def check(out):
        kind, vertices = out["kind"], out["vertices"]
        if family == "even":
            err = _check_even_closed_form(n, k, phases[0], kind, vertices)
            if err:
                return err
        err = _check_region(eigs, k, kind, vertices)
        if err:
            return err
        # A k-fold eigenvalue's eigenspace is itself a zero-entropy code.
        _, counts = np.unique(phases, return_counts=True)
        if kind == "Empty" and counts.max() >= k:
            return "range is Empty, but a k-fold eigenvalue lies in every run hull"
        if (out["lam"] is None) != (kind == "Empty"):
            return "NoCodeError raised on a non-empty range, or not raised on an empty one"
        if out["lam"] is not None:
            err = _check_extremal(vertices, out["lam"])
            if err:
                return err
            found, point = out["dfs"]
            if found != bool(counts.max() >= k):
                return f"dfs_exists said {found} with largest multiplicity {counts.max()}"
            if found and np.min(np.abs(eigs[np.repeat(counts, counts) >= k] - point)) > 1e-8:
                return "dfs_exists returned a point that is not a k-fold eigenvalue"
            expected = [binary_code_entropy(p, out["lam"]) for p in P_GRID]
            got = [s for _, s in out["entropy"]]
            if np.max(np.abs(np.subtract(got, expected))) > 1e-9:
                return "entropy_vs_p differs from the eigenvalues of the correction matrix"
        if draw_svg:
            svg, hulls = out["svg"], out["hulls"]
            if not (svg.startswith("<?xml") and svg.endswith("</svg>\n")):
                return "SVG is not a complete document"
            if svg.count('class="eigenvalue"') != n:
                return "SVG does not draw every eigenvalue"
            if svg.count('class="hull"') != sum(len(h) >= 2 for h in hulls):
                return "SVG does not draw every constituent hull"
            if len(hulls) > math.comb(n, k - 1):
                return "more constituent hulls than eigenvalue subsets"
            for hull in hulls:
                if np.min(np.abs(hull[:, None] - eigs[None, :]), axis=1).max() > 1e-8:
                    return "a constituent hull vertex is not an eigenvalue"
                if len(vertices) and not np.all(_in_circle_hull(hull, vertices, 1e-7)):
                    return "the range is not inside a constituent hull"
        return None

    return Request(f"numrange N={n} k={k} {family}", run, check)


def numrange_round(seed: int, rnd: int) -> list[Request]:
    return [_numrange_request(seed, rnd, slot, *shape) for slot, shape in enumerate(NUMRANGE_ROUND)]


def numrange_warmup(seed: int) -> list[Request]:
    return [_numrange_request(seed, inputs.WARMUP_ROUND, 3, 12, 2, "even")]


# grouping -------------------------------------------------------------------

# (N, k, spectrum family), k | N; 34 requests a round.  Small cases dominate
# the count so a run holds many requests.  N=15 and N=16 use evenly spaced
# spectra: with random or paired spectra their backtracking cost is
# heavy-tailed (single seeds of N=15, k=3 took 10 s and of N=16, k=4 40-100 s),
# which no run of this length averages out, while an evenly spaced spectrum
# costs the same for every seed.
#
# The spectra are a fixed corpus, the same in every round, and only the
# eigenbasis and p come from the workload seed and the round.  The search cost
# depends on the spectrum alone and is heavy-tailed in it (per-request
# coefficient of variation 1-1.4 for N=12-14), so spectra drawn per seed would
# add that tail to the run-to-run spread; with a fixed corpus every run holds
# the same cases, and every round costs the same.
GROUPING_CORPUS_SEED = 0
GROUPING_ROUND = (
    (12, 2, "random"), (12, 3, "pairs"), (12, 2, "pairs"), (14, 2, "random"),
    (12, 4, "random"), (16, 2, "even"), (12, 2, "random"), (12, 3, "random"),
    (14, 2, "pairs"), (12, 2, "pairs"), (12, 2, "random"), (12, 4, "pairs"),
    (12, 2, "random"), (14, 2, "random"), (15, 3, "even"), (12, 2, "pairs"),
    (12, 4, "random"), (14, 2, "pairs"), (12, 2, "random"), (12, 3, "pairs"),
    (12, 2, "pairs"), (14, 2, "random"), (12, 2, "random"), (12, 3, "random"),
    (14, 2, "pairs"), (12, 2, "pairs"), (12, 2, "random"), (14, 2, "random"),
    (12, 2, "pairs"), (12, 3, "pairs"), (12, 2, "random"), (14, 2, "pairs"),
    (12, 2, "pairs"), (16, 2, "even"),
)


def _grouping_request(seed: int, rnd: int, slot: int, n: int, k: int, family: str) -> Request:
    corpus = inputs.rng_for(GROUPING_CORPUS_SEED, 2, slot)
    phases = inputs.spectrum(family, n, corpus)
    rng = inputs.rng_for(seed, 2, rnd, slot)
    u = inputs.unitary_with_phases(phases, rng)
    p = float(rng.uniform(0.01, 0.49))
    binary = BinaryUnitaryChannel(p, u).to_channel()

    def run(tr):
        region = tr.call("binary_unitary.numerical_range", numerical_range, u, k)
        tr.count("binary_unitary.numerical_range.subsets", math.comb(n, k - 1))
        lam = tr.call("binary_unitary.extremal_lambda", extremal_lambda, region).min_entropy_lambdas[0]
        tr.count("binary_unitary.grouping_code.first_level_combos", math.comb(n - 1, n // k - 1))
        try:
            built = tr.call("binary_unitary.grouping_code", grouping_code, u, k, lam)
        except NoFeasiblePartitionError:
            tr.count("binary_unitary.grouping_code.no_partition")
            raise
        lam_matrix, residual = tr.call("code.kl_check", kl_check, binary, built.code)
        entropy = tr.call("binary_unitary.biunitary_code_entropy", biunitary_code_entropy, p, lam)
        return {"vertices": np.array(region.vertices), "lam": lam, "partition": built.partition,
                "basis": built.code.basis, "spectrum": lam_matrix.spectrum,
                "residual": residual, "entropy": entropy}

    def check(out):
        err = _check_extremal(out["vertices"], out["lam"])
        if err:
            return err
        part = out["partition"]
        if len(part) != k or any(len(g) != n // k for g in part):
            return f"partition is not {k} groups of {n // k}"
        if sorted(i for g in part for i in g) != list(range(n)):
            return "partition does not cover every eigenstate once"
        b = out["basis"]
        if np.max(np.abs(b.conj().T @ b - np.eye(k))) > ATOL:
            return "code basis is not orthonormal"
        compressions = np.einsum("ij,ik,kj->j", b.conj(), u, b)
        if np.max(np.abs(compressions - out["lam"])) > ATOL:
            return "<psi|U|psi> differs from lambda for a basis vector"
        if abs(out["entropy"] - shannon_bits(out["spectrum"])) > ATOL:
            return "closed-form entropy differs from the entropy of the KL spectrum"
        if abs(out["entropy"] - binary_code_entropy(p, out["lam"])) > ATOL:
            return "closed-form entropy differs from the correction-matrix eigensolve"
        return None

    return Request(f"grouping N={n} k={k} {family}", run, check)


def grouping_round(seed: int, rnd: int) -> list[Request]:
    return [_grouping_request(seed, rnd, slot, *shape) for slot, shape in enumerate(GROUPING_ROUND)]


def grouping_warmup(seed: int) -> list[Request]:
    return [_grouping_request(seed, inputs.WARMUP_ROUND, 0, 12, 2, "random")]


# kraus ----------------------------------------------------------------------

# 34 requests a round.  Only two are far costlier than the rest (the n=32
# entropy routes and the Steane code), so the top tenth of a run's latencies
# reaches into the middle of the 0.25-0.35 s requests and p90 does not sit on
# the edge of a cluster.
# ("code", Pauli family, qubits, code) runs the analysis of a correctable
# code; ("subspace", family, qubits, None) the same entry point on a random
# 2-dim subspace, which must be refused; ("entropy", n, m, None) the entropy
# routes of a random channel with m Kraus operators on a random n-dim state.
KRAUS_ROUND = (
    ("code", "bitflip", 3, "repetition"), ("entropy", 8, 4, None),
    ("code", "bitflip", 4, "repetition"), ("entropy", 12, 8, None),
    ("subspace", "bitflip", 4, None), ("code", "xz", 5, "five-qubit"),
    ("entropy", 16, 4, None), ("code", "bitflip", 5, "repetition"),
    ("entropy", 8, 16, None), ("code", "bitflip", 6, "repetition"),
    ("subspace", "xz", 5, None), ("entropy", 20, 6, None),
    ("code", "bitflip", 7, "repetition"), ("entropy", 16, 16, None),
    ("code", "xz", 7, "steane"), ("entropy", 20, 8, None),
    ("code", "bitflip", 3, "repetition"), ("entropy", 10, 5, None),
    ("subspace", "bitflip", 6, None), ("code", "bitflip", 4, "repetition"),
    ("entropy", 12, 12, None), ("code", "xz", 5, "five-qubit"),
    ("entropy", 32, 4, None), ("code", "bitflip", 5, "repetition"),
    ("entropy", 16, 8, None), ("code", "bitflip", 3, "repetition"),
    ("subspace", "bitflip", 3, None), ("code", "xz", 5, "five-qubit"),
    ("code", "bitflip", 4, "repetition"), ("code", "bitflip", 5, "repetition"),
    ("entropy", 8, 8, None), ("code", "bitflip", 3, "repetition"),
    ("entropy", 10, 10, None), ("code", "bitflip", 4, "repetition"),
)

_CODES = {
    "repetition": inputs.repetition_code,
    "five-qubit": lambda nq: inputs.stabilizer_code(inputs.FIVE_QUBIT_STABILIZERS),
    "steane": lambda nq: inputs.stabilizer_code(inputs.STEANE_STABILIZERS),
}


def _sandwich(kraus, rho: np.ndarray) -> np.ndarray:
    return sum(e @ rho @ e.conj().T for e in kraus)


def _code_request(seed, rnd, slot, kind, family, nq, code_name) -> Request:
    rng = inputs.rng_for(seed, 3, rnd, slot)
    chan, weights = inputs.pauli_noise(family, nq, rng)
    refuse = kind == "subspace"
    code = inputs.random_subspace(chan.dim, rng) if refuse else _CODES[code_name](nq)
    state = code.basis @ random_density(code.k, rng) @ code.basis.conj().T
    sigma_seed = int(rng.integers(2 ** 31))
    m = chan.num_kraus

    def run(tr):
        tr.count("channel.kraus_pairs", m * m)
        gram = tr.call("channel.choi_gram", choi_gram, chan)
        try:
            tr.call("code.kl_check", kl_check, chan, code)
        except NotCorrectable:
            tr.count("code.kl_check.not_correctable")
            return {"choi_rank": gram.choi_rank, "correctable": False}
        report = tr.call("code.classify_code", classify_code, chan, code)
        recovery = tr.call("code.build_recovery", build_recovery, chan, code)
        sigma_ok = tr.call("code.sigma_equals_lambda_check", sigma_equals_lambda_check,
                           chan, code, 3, seed=sigma_seed)
        return {"choi_rank": gram.choi_rank, "correctable": True,
                "entropy": report.entropy_bits, "lambda_rank": report.lambda_rank,
                "recovery": recovery.channel.kraus, "sigma_ok": sigma_ok}

    def check(out):
        if out["choi_rank"] != m:
            return f"Choi rank {out['choi_rank']} of a channel with {m} distinct Pauli errors"
        if refuse:
            return "a random subspace passed the KL check" if out["correctable"] else None
        if not out["correctable"]:
            return f"the {code_name} code was refused"
        # Single-qubit errors have distinct syndromes on these codes, so the
        # correction matrix is diagonal in the Kraus weights.
        if abs(out["entropy"] - shannon_bits(weights)) > 1e-9:
            return "S(Lambda) differs from the Shannon entropy of the Kraus weights"
        if out["lambda_rank"] != m:
            return f"Lambda rank {out['lambda_rank']}, expected {m}"
        if not out["sigma_ok"]:
            return "exchange state differs from Lambda on a code state"
        restored = _sandwich(out["recovery"], _sandwich(chan.kraus, state))
        if np.max(np.abs(restored - state)) > ATOL:
            return "recovery after the channel does not return the code state"
        return None

    return Request(f"kraus {kind} {family} {nq}q", run, check)


def _entropy_request(seed, rnd, slot, n, m) -> Request:
    rng = inputs.rng_for(seed, 3, rnd, slot)
    chan, rho = random_channel(n, m, rng), random_density(n, rng)

    def run(tr):
        tr.count("channel.kraus_pairs", m * m)
        _, s_exchange = tr.call("entropy.entropy_exchange", entropy_exchange, chan, rho)
        s_pure = tr.call("entropy.purification_exchange_entropy", purification_exchange_entropy, chan, rho)
        omega = tr.call("entropy.lindblad_omega", lindblad_omega, chan, rho)
        report = tr.call("entropy.check_lindblad_bounds", check_lindblad_bounds, chan, rho)
        return {"s_exchange": s_exchange, "s_pure": s_pure, "omega": omega,
                "S_rho": report.S_rho, "S_sigma": report.S_sigma, "holds": report.holds}

    def check(out):
        if abs(out["s_exchange"] - out["s_pure"]) > ATOL:
            return "entropy exchange differs from the purification route"
        if abs(out["S_sigma"] - out["s_exchange"]) > ATOL:
            return "Lindblad report disagrees with entropy_exchange"
        if not out["holds"]:
            return "Lindblad bounds do not hold"
        omega = out["omega"]
        if abs(np.trace(omega) - 1) > ATOL or np.max(np.abs(omega - omega.conj().T)) > ATOL:
            return "system-environment state is not a unit-trace Hermitian matrix"
        env_traced = np.einsum("aibi->ab", omega.reshape(n, m, n, m))
        if np.max(np.abs(env_traced - _sandwich(chan.kraus, rho))) > ATOL:
            return "tracing out the environment does not give the channel output"
        w = np.clip(np.linalg.eigvalsh((omega + omega.conj().T) / 2), 0.0, None)
        if abs(shannon_bits(w) - out["S_rho"]) > 1e-7:
            return "S(omega) differs from S(rho) for a pure environment"
        return None

    return Request(f"kraus entropy n={n} m={m}", run, check)


def _kraus_request(seed, rnd, slot, kind, a, b, code_name) -> Request:
    if kind == "entropy":
        return _entropy_request(seed, rnd, slot, a, b)
    return _code_request(seed, rnd, slot, kind, a, b, code_name)


def kraus_round(seed: int, rnd: int) -> list[Request]:
    return [_kraus_request(seed, rnd, slot, *shape) for slot, shape in enumerate(KRAUS_ROUND)]


def kraus_warmup(seed: int) -> list[Request]:
    return [_kraus_request(seed, inputs.WARMUP_ROUND, 0, *KRAUS_ROUND[0]), _kraus_request(seed, inputs.WARMUP_ROUND, 1, *KRAUS_ROUND[1])]
