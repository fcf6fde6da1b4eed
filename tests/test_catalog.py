import numpy as np
import pytest

from qecentropy import binary_unitary, catalog
from qecentropy import code as code_module
from qecentropy.code import kl_check
from qecentropy.numerics import dag


def test_bitflip_channel_lambda_is_diagonal():
    rng = np.random.default_rng(0)
    code = catalog.stabilizer_code()
    for _ in range(20):
        p, q, r = rng.uniform(0, 1, 3)
        chan = catalog.bitflip_channel(p, q, r)
        lam, residual = kl_check(chan, code)
        assert residual < 1e-12
        expected = np.diag([(3 - p - q - r) / 3, p / 3, q / 3, r / 3])
        assert np.allclose(lam.matrix, expected, atol=1e-12)
    with pytest.raises(ValueError):
        catalog.bitflip_channel(-0.1, 0, 0)
    with pytest.raises(ValueError):
        catalog.bitflip_channel(2, 2, 2)


def test_stabilizer_code_projector():
    code = catalog.stabilizer_code()
    p = code.projector()
    expected = np.zeros((8, 8))
    expected[0, 0] = expected[7, 7] = 1.0
    assert np.allclose(p, expected, atol=1e-14)


def test_all_instances_have_unique_names_and_provenance():
    instances = catalog.all_instances()
    assert set(instances) == {"table1", "stabilizer", "example33", "qutrit", "pauli-zz"}
    for inst in instances.values():
        for exp in inst.expected:
            assert exp.provenance


def test_instance_code_lookup():
    inst = catalog.table1_instances()
    assert inst.code("code2").k == 2
    with pytest.raises(KeyError):
        inst.code("nope")


def test_expected_quantities_status():
    # Everything in the catalog reproduces except the qutrit minimal entropy:
    # the 0.060 reference value comes from entropy of the rounded spectrum
    # {0.007, 0.993}; the exact spectrum gives 0.06123, outside the stated
    # 5e-4 window.  That row is expected to fail and is asserted as such.
    instances = catalog.all_instances()
    for name, inst in instances.items():
        for row in catalog.evaluate_instance(inst):
            if name == "qutrit" and row["quantity"] == "min_entropy":
                assert not row["passed"]
                assert abs(row["computed"] - 0.0612297) < 1e-6
            else:
                assert row["passed"], (name, row)


def test_example33_compression_value_is_zero():
    inst = catalog.example33_instance()
    code = inst.code("paired")
    value = np.trace(dag(code.basis) @ inst.binary.u @ code.basis) / code.k
    assert abs(value) < 1e-12


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_evaluate_instance_analyses_each_code_once(monkeypatch):
    # table1 reads code_entropy and classification for each of its three codes.
    calls = _count_calls(monkeypatch, code_module, "kl_check")
    catalog.evaluate_instance(catalog.table1_instances())
    assert len(calls) == 3


def test_evaluate_instance_builds_each_range_once(monkeypatch):
    # qutrit reads numrange_vertex, lambda_plus, lambda_minus and min_entropy at k = 3.
    calls = _count_calls(monkeypatch, binary_unitary, "_range_from_eigen")
    catalog.evaluate_instance(catalog.qutrit_instance())
    assert len(calls) == 1
