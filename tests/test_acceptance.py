"""Acceptance gate: one test per criterion, each printing a single
pass/fail line at its pinned tolerance.

Criterion 4's minimal-entropy reference value (0.060) is derived from a
rounded spectrum; the exact value is 0.06123, outside the stated 5e-4
window, so that criterion is expected to fail and is left red on purpose.
"""

import itertools

import numpy as np

from qecentropy.binary_unitary import (
    RegionKind,
    biunitary_code_entropy,
    entropy_vs_p,
    extremal_lambda,
    grouping_code,
    lambda_spectrum,
    numerical_range,
)
from qecentropy.catalog import (
    all_instances,
    bitflip_channel,
    example33_instance,
    qutrit_instance,
    stabilizer_code,
)
from qecentropy.channel import apply_channel, remix_kraus, validate_channel
from qecentropy.code import (
    CodeClass,
    build_recovery,
    classify_code,
    code_entropy,
    kl_check,
    rank_bound_check,
    sigma_equals_lambda_check,
)
from qecentropy.entropy import (
    check_lindblad_bounds,
    entropy_exchange,
    lindblad_omega,
    purification_exchange_entropy,
    von_neumann_entropy,
)
from qecentropy.errors import NotTracePreserving
from qecentropy.numerics import DEFAULT_TOL, dag
from qecentropy.sampling import haar_unitary, random_density

LOG2_3 = np.log2(3.0)


def _report(num: int, label: str, ok: bool):
    print(f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {label}")
    assert ok


def _instance_code_pairs():
    """All correctable (channel, code) pairs exercised by the suite,
    including the grouping code of the qutrit instance."""
    pairs = []
    for inst in all_instances().values():
        for label, code in inst.codes:
            pairs.append((f"{inst.name}/{label}", inst.channel, code))
    qutrit = qutrit_instance()
    region = numerical_range(qutrit.binary.u, 3)
    lam0 = min(extremal_lambda(region).min_entropy_lambdas,
               key=lambda z: abs(z - (0.09246 - 0.52400j)))
    built = grouping_code(qutrit.binary.u, 3, lam0)
    pairs.append(("qutrit/grouping", qutrit.channel, built.code))
    return pairs


def test_criterion_01_table1_regression():
    inst = all_instances()["table1"]
    targets = {
        "code1": (LOG2_3, CodeClass.NON_DEGENERATE),
        "code2": (LOG2_3 - 2 / 3, CodeClass.PARTIALLY_DEGENERATE),
        "code3": (0.0, CodeClass.DECOHERENCE_FREE),
    }
    ok = True
    for label, (entropy, cls) in targets.items():
        report = classify_code(inst.channel, inst.code(label))
        ok &= abs(report.entropy_bits - entropy) <= 1e-9
        ok &= report.classification is cls
    _report(1, "Table 1 entropies and classifications", ok)


def test_criterion_02_stabilizer_example():
    code = stabilizer_code()
    rng = np.random.default_rng(42)
    ok = True
    for _ in range(50):
        p, q, r = rng.uniform(0, 1, 3)
        chan = bitflip_channel(p, q, r)
        spectrum = np.array([(3 - p - q - r) / 3, p / 3, q / 3, r / 3])
        spectrum = spectrum[spectrum > 0]
        expected = float(-(spectrum * np.log2(spectrum)).sum())
        ok &= abs(code_entropy(chan, code) - expected) <= 1e-9
    report = classify_code(bitflip_channel(0.75, 0.75, 0.75), code)
    ok &= abs(report.entropy_bits - 2.0) <= 1e-9
    ok &= report.classification is CodeClass.NON_DEGENERATE and report.choi_rank == 4
    _report(2, "stabilizer entropy formula, entropy 2 at (3/4,3/4,3/4)", ok)


def test_criterion_03_example_33():
    inst = example33_instance()
    region = numerical_range(inst.binary.u, 2)
    ok = region.kind is RegionKind.POINT and abs(region.vertices[0]) <= 1e-9
    code = inst.code("paired")
    lam, _ = kl_check(inst.channel, code)
    extracted = lam.matrix[0, 1] / np.sqrt(0.01 * 0.99)
    ok &= abs(extracted) <= 1e-8
    ok &= abs(code_entropy(inst.channel, code) - 0.081) <= 5e-4
    _report(3, "Omega_2 = {0}, displayed code correct, S(p=0.01) = 0.081", ok)


def test_criterion_04_qutrit_example():
    inst = qutrit_instance()
    region = numerical_range(inst.binary.u, 3)
    target = 0.09246 - 0.52400j
    lam0 = min(extremal_lambda(region).min_entropy_lambdas,
               key=lambda z: abs(z - target))
    ok = abs(lam0 - target) <= 1e-3
    plus, minus = lambda_spectrum(0.01, lam0)
    ok &= abs(plus - 0.993) <= 5e-4 and abs(minus - 0.007) <= 5e-4
    ok &= abs(biunitary_code_entropy(0.01, 0j) - 0.081) <= 5e-4
    built = grouping_code(inst.binary.u, 3, lam0)
    _, residual = kl_check(inst.channel, built.code)
    ok &= residual <= 1e-8
    # Red on purpose: the 0.060 reference is the entropy of the rounded
    # spectrum {0.007, 0.993}; the exact value is 0.061230.
    ok &= abs(biunitary_code_entropy(0.01, lam0) - 0.060) <= 5e-4
    _report(4, "qutrit lambda_0, spectrum, min entropy 0.060, S(0) = 0.081", ok)


def test_criterion_05_lindblad_property_suite():
    rng = np.random.default_rng(7)
    from qecentropy.sampling import random_channel

    ok = True
    for _ in range(100):
        n, m = int(rng.integers(2, 5)), int(rng.integers(1, 7))
        c = random_channel(n, m, rng)
        rho = random_density(n, rng)
        ok &= check_lindblad_bounds(c, rho).holds
        omega = lindblad_omega(c, rho)
        sigma, s_sigma = entropy_exchange(c, rho)
        ok &= abs(von_neumann_entropy(omega) - von_neumann_entropy(rho)) <= 1e-8
        blocks = omega.reshape(n, m, n, m)  # [system, environment, system, environment]
        ok &= np.max(np.abs(np.einsum("aiaj->ij", blocks) - sigma)) <= 1e-8
        ok &= np.max(np.abs(np.einsum("aibi->ab", blocks) - apply_channel(c, rho))) <= 1e-8
        ok &= abs(s_sigma - purification_exchange_entropy(c, rho)) <= 1e-8
    _report(5, "Lindblad bounds, S(omega)=S(rho), marginals, route agreement (100 instances)", ok)


def test_criterion_06_sigma_equals_lambda():
    ok = True
    for name, chan, code in _instance_code_pairs():
        ok &= sigma_equals_lambda_check(chan, code, samples=20, seed=11)
    _report(6, "sigma = Lambda entrywise for 20 code states per instance", ok)


def test_criterion_07_entropy_interval_and_extremes():
    ok = True
    for name, chan, code in _instance_code_pairs():
        report = classify_code(chan, code)
        log2d = np.log2(report.choi_rank)
        ok &= -1e-12 <= report.entropy_bits <= log2d + 1e-9
        ok &= (report.lambda_rank == 1) == (report.entropy_bits <= 1e-9)
        flat = report.lambda_rank == report.choi_rank and \
            abs(report.entropy_bits - log2d) <= 1e-9
        ok &= flat == (report.classification is CodeClass.NON_DEGENERATE)
        ok &= rank_bound_check(chan, code)
    _report(7, "0 <= S <= log2 D with rank-1 and flat-spectrum extremes, rank bound", ok)


def test_criterion_08_recovery_verification():
    ok = True
    for name, chan, code in _instance_code_pairs():
        rec = build_recovery(chan, code)
        ok &= rec.residual <= 1e-6
        try:
            validate_channel(rec.channel)
        except NotTracePreserving:
            ok = False
    _report(8, "recovery process identity <= 1e-6 and trace preservation", ok)


def _oracle_membership(eigs: np.ndarray, k: int, zs: np.ndarray, eps: float) -> np.ndarray:
    """Independent membership check: point in every hull of every
    (N-k+1)-element eigenvalue subset, via Caratheodory triangle tests."""
    n = len(eigs)
    inside_all = np.ones(len(zs), dtype=bool)
    for subset in itertools.combinations(range(n), n - k + 1):
        pts = eigs[list(subset)]
        inside = np.zeros(len(zs), dtype=bool)
        for a, b, c in itertools.combinations(pts, 3):
            d1 = np.conj(b - a) * (zs - a)
            d2 = np.conj(c - b) * (zs - b)
            d3 = np.conj(a - c) * (zs - c)
            pos = (d1.imag >= -eps) & (d2.imag >= -eps) & (d3.imag >= -eps)
            neg = (d1.imag <= eps) & (d2.imag <= eps) & (d3.imag <= eps)
            inside |= pos | neg
        for a, b in itertools.combinations(pts, 2):
            d = b - a
            den = abs(d) ** 2
            if den == 0:
                continue
            t = np.clip((np.conj(d) * (zs - a)).real / den, 0.0, 1.0)
            inside |= np.abs(a + t * d - zs) <= eps
        inside_all &= inside
    return inside_all


def test_criterion_09_geometry_oracle():
    from qecentropy import geometry

    rng = np.random.default_rng(23)
    step = 0.01
    axis = np.arange(-1.0, 1.0 + step / 2, step)
    re, im = np.meshgrid(axis, axis)
    grid = (re + 1j * im).reshape(-1)
    grid = grid[np.abs(grid) <= 1.0]
    eps = DEFAULT_TOL.eps_geom
    ok = True
    for trial in range(20):
        n = int(rng.choice([4, 5, 6]))
        k = int(rng.choice([2, 3]))
        eigs = np.exp(2j * np.pi * rng.uniform(size=n))
        region = numerical_range(np.diag(eigs), k)
        dists = np.array([geometry.signed_distance(region.vertices, z) for z in grid.tolist()])
        oracle = _oracle_membership(eigs, k, grid, eps)
        # Disagreements must sit on the region boundary.
        ok &= bool(np.all(np.abs(dists[(dists <= eps) != oracle]) <= eps * 10))
    _report(9, "grid membership matches independent subset-hull oracle (20 unitaries)", ok)


def test_criterion_10_invariance_suite():
    rng = np.random.default_rng(31)
    ok = True
    for name, chan, code in _instance_code_pairs():
        lam, _ = kl_check(chan, code)
        base_entropy = code_entropy(chan, code)
        for _ in range(10):
            v = haar_unitary(chan.num_kraus, rng)
            mixed = remix_kraus(chan, v)
            lam2, _ = kl_check(mixed, code)
            ok &= np.max(np.abs(lam.spectrum - lam2.spectrum)) <= 1e-9
            ok &= abs(code_entropy(mixed, code) - base_entropy) <= 1e-9
    for inst in all_instances().values():
        if inst.binary is None:
            continue
        n = inst.binary.u.shape[0]
        base = numerical_range(inst.binary.u, inst.k)
        for _ in range(10):
            v = haar_unitary(n, rng)
            region = numerical_range(v @ inst.binary.u @ dag(v), inst.k)
            ok &= region.kind is base.kind
            ok &= len(region.vertices) == len(base.vertices)
            for z in region.vertices:
                ok &= min(abs(z - w) for w in base.vertices) <= 1e-8
    _report(10, "Lambda spectrum under remixes; Omega_k under conjugations", ok)


def test_criterion_11_binary_unitary_closed_forms():
    rng = np.random.default_rng(37)
    ok = True
    for _ in range(1000):
        p = float(rng.uniform())
        lam = complex(*rng.uniform(-1, 1, 2)) / np.sqrt(2)
        plus, minus = lambda_spectrum(p, lam)
        root = np.sqrt(p * (1 - p))
        w = np.linalg.eigvalsh(np.array([[1 - p, root * lam],
                                         [root * np.conj(lam), p]]))
        ok &= abs(plus - w[1]) <= 1e-12 and abs(minus - w[0]) <= 1e-12
    u4 = np.diag(np.exp(1j * np.pi * np.array([1, 3, 5, 7]) / 4))
    rows = entropy_vs_p(u4, 2, 0j, np.linspace(0, 1, 21))
    entropies = [s for _, s in rows]
    grid = [p for p, _ in rows]
    ok &= int(np.argmax(entropies)) == int(np.argmin(np.abs(np.array(grid) - 0.5)))
    ok &= entropies[0] == 0.0 and entropies[-1] == 0.0
    _report(11, "lambda_spectrum vs eigensolver (1000 draws); p-sweep profile", ok)
