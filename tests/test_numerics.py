import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qecentropy import numerics
from qecentropy.numerics import (
    DEFAULT_TOL,
    ToleranceConfig,
    _chain_clusters,
    _psd_rank,
    _require_unitary,
    dag,
    unitary_eigen,
)


def test_tolerance_config_rejects_nonpositive():
    with pytest.raises(ValueError):
        ToleranceConfig(eps_rank=0.0)
    with pytest.raises(ValueError):
        ToleranceConfig(eps_kl=-1e-8)


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_tolerance_config_rejects_non_finite(value):
    for name in ("eps_rank", "eps_kl", "eps_geom", "eps_eig"):
        with pytest.raises(ValueError, match="finite positive"):
            ToleranceConfig(**{name: value})


def test_tolerance_config_rejects_rank_cutoff_of_one_or_more():
    # eps_rank * max(1, largest) would reach the largest eigenvalue: every rank 0.
    for value in (1.0, 1e300):
        with pytest.raises(ValueError, match="eps_rank must be below 1"):
            ToleranceConfig(eps_rank=value)
    assert ToleranceConfig(eps_rank=0.5).eps_rank == 0.5
    # The other thresholds may be 1 or more: eps_kl = 1 is a legal loose test.
    assert ToleranceConfig(eps_kl=1.0, eps_geom=2.0, eps_eig=1.0).eps_kl == 1.0


@pytest.mark.parametrize("value", [True, np.True_, "1e-8", None, 1e-8j, [1e-8]])
def test_tolerance_config_rejects_bools_and_non_reals(value):
    for name in ("eps_rank", "eps_kl", "eps_geom", "eps_eig"):
        with pytest.raises(ValueError, match="finite positive"):
            ToleranceConfig(**{name: value})


def test_tolerance_config_accepts_numpy_and_integer_reals():
    assert ToleranceConfig(eps_kl=np.float64(1e-6)).eps_kl == 1e-6
    assert ToleranceConfig(eps_kl=np.int64(2), eps_geom=1).eps_geom == 1
    # An integer past the float range is no finite float; the CLI reports it.
    with pytest.raises(OverflowError):
        ToleranceConfig(eps_kl=10 ** 400)


def test_decompositions_compare_and_hash_by_identity():
    u = np.diag([1.0, 1j])
    a, b = numerics._decompose_unitary(u, DEFAULT_TOL), numerics._decompose_unitary(u, DEFAULT_TOL)
    assert a == a and a != b
    assert len({a, b, a}) == 2


def test_unitary_eigen_reconstructs_and_sorts_by_phase():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        q, r = np.linalg.qr(g)
        u = q * (np.diag(r) / np.abs(np.diag(r)))
        dec = unitary_eigen(u)
        v, eig = dec.eigenvectors, dec.eigenvalues
        assert np.allclose(v @ np.diag(eig) @ dag(v), u, atol=1e-12)
        assert np.allclose(np.abs(eig), 1.0, atol=1e-12)
        assert np.allclose(dag(v) @ v, np.eye(n), atol=1e-12)
        phases = np.mod(np.angle(eig), 2 * np.pi)
        assert np.all(np.diff(phases) >= -1e-12)


def test_unitary_eigen_degenerate_clusters():
    u = np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex)  # Z (x) Z
    dec = unitary_eigen(u)
    sizes = sorted(len(c) for c in dec.cluster_map)
    assert sizes == [2, 2]
    assert np.allclose(sorted(dec.eigenvalues.real), [-1, -1, 1, 1], atol=1e-12)


def test_unitary_eigen_rejects_nonunitary():
    with pytest.raises(ValueError, match="not unitary"):
        unitary_eigen(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_require_unitary():
    assert np.array_equal(_require_unitary(np.eye(3), DEFAULT_TOL), np.eye(3))
    with pytest.raises(ValueError, match="remix matrix is not unitary"):
        _require_unitary(2 * np.eye(3), DEFAULT_TOL, "remix matrix")
    with pytest.raises(ValueError, match=r"matrix must be square, got shape \(2, 3\)"):
        _require_unitary(np.ones((2, 3)), DEFAULT_TOL)


def test_psd_rank_and_invariance():
    a = np.array([[1, 1, 0], [1, 1, 0], [0, 0, 1]], dtype=complex) / 3
    w, v = np.linalg.eigh(a)
    assert _psd_rank(w, DEFAULT_TOL, "matrix") == 2
    assert np.all(np.diff(w) >= 0)
    assert np.allclose((v * w) @ dag(v), a, atol=1e-12)
    rng = np.random.default_rng(5)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    q, _ = np.linalg.qr(g)
    assert _psd_rank(np.linalg.eigvalsh(q @ a @ dag(q)), DEFAULT_TOL, "matrix") == 2


def test_psd_rank_rejects_indefinite():
    with pytest.raises(ValueError, match="matrix is not positive semidefinite"):
        _psd_rank(np.linalg.eigvalsh(np.diag([1.0, -0.5])), DEFAULT_TOL, "matrix")


def test_default_tolerances():
    assert DEFAULT_TOL.eps_rank == 1e-9
    assert DEFAULT_TOL.eps_kl == 1e-8
    assert DEFAULT_TOL.eps_geom == 1e-10
    assert DEFAULT_TOL.eps_eig == 1e-10


# Differential oracle for _chain_clusters: the transitive closure of every
# pair within the threshold, an O(N^2) double loop over values in any order.


def _chain_clusters_reference(values, threshold):
    n = len(values)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(values[i] - values[j]) <= threshold:
                parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return tuple(tuple(sorted(g)) for g in sorted(groups.values(), key=lambda g: g[0]))


# Gaps between neighbours, as multiples of the threshold: equal, near-equal,
# within it and beyond it, kept off the threshold itself so that rounding in
# chord lengths cannot decide a comparison.
GAP_FACTORS = (0.0, 1e-6, 0.3, 0.9, 1.2, 3.0, 1e4)


def _phase_order(phases):
    """Unimodular values sorted by phase in [0, 2pi), as unitary_eigen orders them."""
    phases = np.mod(phases, 2 * np.pi)
    return np.exp(1j * np.sort(phases))


def test_chain_clusters_matches_reference_on_seeded_spectra():
    rng = np.random.default_rng(11)
    threshold = 1e-9
    for trial in range(300):
        n = int(rng.integers(1, 40))
        gaps = threshold * rng.choice(GAP_FACTORS, n)
        # Start just below 2pi half the time, so runs wrap past phase 0.
        start = 2 * np.pi - threshold * rng.uniform(0, 2 * n) if trial % 2 else rng.uniform(0, 6)
        values = _phase_order(start + np.cumsum(gaps))
        assert _chain_clusters(values, threshold) == _chain_clusters_reference(values, threshold)
        reals = np.sort(rng.uniform(-1, 1) + np.cumsum(gaps))
        assert _chain_clusters(reals, threshold) == _chain_clusters_reference(reals, threshold)
    # Evenly spaced on the circle: every value chained to the next, round the wrap.
    values = _phase_order(2 * np.pi * np.arange(8) / 8)
    assert _chain_clusters(values, 0.8) == ((0, 1, 2, 3, 4, 5, 6, 7),)
    assert _chain_clusters(values, 0.7) == tuple((i,) for i in range(8))
    assert _chain_clusters(np.array([]), 1.0) == ()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(GAP_FACTORS), min_size=1, max_size=30),
       st.floats(0, 2 * np.pi), st.sampled_from([1e-10, 1e-9 * 7, 1e-6]))
def test_chain_clusters_matches_reference_property(factors, start, threshold):
    gaps = threshold * np.array(factors)
    values = _phase_order(start + np.cumsum(gaps))
    assert _chain_clusters(values, threshold) == _chain_clusters_reference(values, threshold)
    reals = np.sort(start + np.cumsum(gaps))
    assert _chain_clusters(reals, threshold) == _chain_clusters_reference(reals, threshold)


def test_unitary_eigen_clusters_across_phase_zero():
    # 2pi - 1e-10 sorts first (as -1e-10), 2pi - 5.5e-10 last; they are
    # 4.5e-10 apart across phase 0, inside the threshold 5 * 1e-10.
    u = np.diag(np.exp(1j * np.array([2 * np.pi - 5.5e-10, 1.0, 2 * np.pi - 1e-10, 2.0, 0.0])))
    assert unitary_eigen(u).cluster_map == ((0, 1, 4), (2,), (3,))


# unitary_eigen remembers the most recent U's decomposition, keyed on U's
# shape and bytes and the tolerances.


def _unitary_with_phases(phases, rng):
    q, r = np.linalg.qr(rng.standard_normal((len(phases),) * 2)
                        + 1j * rng.standard_normal((len(phases),) * 2))
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return (q * np.exp(1j * np.asarray(phases))) @ dag(q)


def _same_decomposition(a, b):
    return (a.eigenvalues.tobytes() == b.eigenvalues.tobytes()
            and a.eigenvectors.tobytes() == b.eigenvectors.tobytes()
            and a.cluster_map == b.cluster_map)


def _cold_eigen(u, tol=DEFAULT_TOL):
    numerics._eigen_memo.last = None
    return unitary_eigen(u.copy(), tol)


def test_unitary_eigen_memo_hits_on_equal_bytes():
    rng = np.random.default_rng(41)
    u = _unitary_with_phases(rng.uniform(0, 2 * np.pi, 7), rng)
    dec = unitary_eigen(u)
    # An equal-bytes copy, and the same values as a list, are hits.
    assert unitary_eigen(u.copy()) is dec
    assert unitary_eigen(u.tolist()) is dec
    # A Fortran-ordered copy has the same C-order bytes.
    assert unitary_eigen(np.asfortranarray(u)) is dec
    assert _same_decomposition(dec, _cold_eigen(u))


def test_unitary_eigen_memo_follows_u_changed_in_place():
    rng = np.random.default_rng(42)
    u = _unitary_with_phases(rng.uniform(0, 2 * np.pi, 6), rng)
    other = _unitary_with_phases([0.5, 0.5, 0.5, 2.0, 2.0, 4.0], rng)
    first = unitary_eigen(u)
    u[:] = other
    changed = unitary_eigen(u)
    assert changed is not first
    assert _same_decomposition(changed, _cold_eigen(other))
    assert [len(c) for c in changed.cluster_map] == [3, 2, 1]


def test_unitary_eigen_memo_follows_the_tolerances():
    rng = np.random.default_rng(43)
    # Two eigenvalues 1e-8 apart: one cluster under eps_eig = 1e-6 only.
    u = _unitary_with_phases([0.0, 1e-8, 1.0, 2.0, 3.0], rng)
    loose = ToleranceConfig(eps_eig=1e-6)
    default = unitary_eigen(u)
    assert len(default.cluster_map) == 5
    clustered = unitary_eigen(u, loose)
    assert clustered is not default and len(clustered.cluster_map) == 4
    assert _same_decomposition(clustered, _cold_eigen(u, loose))
    # Only the most recent entry is kept: back at the default, a fresh one.
    again = unitary_eigen(u)
    assert again is not default and _same_decomposition(again, default)
    # Equal tolerances built anew are the same key.
    assert unitary_eigen(u, ToleranceConfig()) is again


def test_unitary_eigen_memo_arrays_are_read_only():
    dec = unitary_eigen(np.diag(np.exp(1j * np.array([0.1, 0.1, 2.0]))))
    for array in (dec.eigenvalues, dec.eigenvectors):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    # A copy is writable, and writing to it leaves the memo alone.
    values = dec.eigenvalues.copy()
    values[0] = 0
    assert unitary_eigen(np.diag(np.exp(1j * np.array([0.1, 0.1, 2.0])))).eigenvalues[0] != 0


def test_unitary_eigen_memo_keeps_the_unitarity_check_per_tolerance():
    rng = np.random.default_rng(44)
    u = _unitary_with_phases([0.0, 1.0, 2.0, 3.0], rng)
    skewed = u.copy()
    skewed[0, 0] += 1e-8
    loose = ToleranceConfig(eps_eig=1e-6)
    # Accepted under loose tolerances, and remembered there ...
    unitary_eigen(skewed, loose)
    assert unitary_eigen(skewed.copy(), loose) is unitary_eigen(skewed, loose)
    # ... but the verdict does not carry over to the default ones.
    with pytest.raises(ValueError, match="not unitary"):
        unitary_eigen(skewed)
    # Nor to U changed in place after an accepted call.
    unitary_eigen(u)
    u[0, 0] += 1e-8
    with pytest.raises(ValueError, match="not unitary"):
        unitary_eigen(u)
    # A refusal is not remembered: the same matrix is refused again.
    with pytest.raises(ValueError, match="not unitary"):
        unitary_eigen(u)
