"""Named reference instances: channels, codes and their expected quantities.

These are the concrete worked examples the regression suite and the
``reproduce`` command check against; each expected value carries a
provenance note naming where the reference quantity is stated.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .binary_unitary import (
    BinaryUnitaryChannel,
    biunitary_code_entropy,
    extremal_lambda,
    lambda_spectrum,
    numerical_range,
)
from .channel import QuantumChannel, choi_gram, pauli_channel
from .code import CodeSubspace, classify_code, code_subspace
from .numerics import DEFAULT_TOL, ToleranceConfig, dag

LOG2_3 = float(np.log2(3.0))


@dataclasses.dataclass(frozen=True)
class Expectation:
    quantity: str
    target: object
    tolerance: float
    provenance: str
    code_label: str | None = None
    params: dict = dataclasses.field(default_factory=dict)


@dataclasses.dataclass(frozen=True)
class NamedInstance:
    name: str
    channel: QuantumChannel
    codes: tuple[tuple[str, CodeSubspace], ...]
    expected: tuple[Expectation, ...]
    binary: BinaryUnitaryChannel | None = None
    k: int | None = None

    def code(self, label: str) -> CodeSubspace:
        for name, code in self.codes:
            if name == label:
                return code
        raise KeyError(f"instance {self.name!r} has no code {label!r}")


def _ket(dim: int, index: int) -> np.ndarray:
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


def bitflip_channel(p: float, q: float, r: float) -> QuantumChannel:
    """Three-qubit bit-flip channel on {I, X1, X2, X3} with the usual weights."""
    if min(p, q, r) < 0 or p + q + r > 3:
        raise ValueError("parameters must satisfy p,q,r >= 0 and p+q+r <= 3")
    return pauli_channel([
        ((3 - p - q - r) / 3, "III"),
        (p / 3, "XII"),
        (q / 3, "IXI"),
        (r / 3, "IIX"),
    ])


def stabilizer_code() -> CodeSubspace:
    """The single-qubit code spanned by |000> and |111>."""
    return code_subspace([_ket(8, 0), _ket(8, 7)])


def stabilizer_instance(p: float = 0.75, q: float = 0.75, r: float = 0.75) -> NamedInstance:
    expected = (
        Expectation("choi_rank", 4, 0.0, "Sec. 2.4 bit-flip example"),
        Expectation("code_entropy", 2.0, 1e-9, "Sec. 2.4, entropy log 4 = 2", "stabilizer"),
        Expectation("classification", "NonDegenerate", 0.0, "Sec. 2.4", "stabilizer"),
    )
    return NamedInstance(
        "stabilizer",
        bitflip_channel(p, q, r),
        (("stabilizer", stabilizer_code()),),
        expected,
    )


def table1_instances() -> NamedInstance:
    """The noise model {I, X1, X2}/sqrt(3) with its three reference codes."""
    chan = pauli_channel([(1 / 3, "III"), (1 / 3, "XII"), (1 / 3, "IXI")])
    k = [_ket(8, i) for i in range(8)]
    code1 = code_subspace([k[0], k[7]])
    code2 = code_subspace([(k[0] + k[4]) / np.sqrt(2), (k[3] + k[7]) / np.sqrt(2)])
    code3 = code_subspace([
        (k[0] + k[4] + k[2] + k[6]) / 2,
        (k[3] + k[7] + k[1] + k[5]) / 2,
    ])
    expected = (
        Expectation("choi_rank", 3, 0.0, "Table 1 noise model"),
        Expectation("code_entropy", LOG2_3, 1e-9, "Table 1, row 1", "code1"),
        Expectation("code_entropy", LOG2_3 - 2 / 3, 1e-9, "Table 1, row 2", "code2"),
        Expectation("code_entropy", 0.0, 1e-9, "Table 1, row 3", "code3"),
        Expectation("classification", "NonDegenerate", 0.0, "Sec. 2.4, first code", "code1"),
        Expectation("classification", "PartiallyDegenerate", 0.0, "Sec. 2.4, second code", "code2"),
        Expectation("classification", "DecoherenceFree", 0.0, "Sec. 2.4, third code", "code3"),
    )
    return NamedInstance(
        "table1", chan, (("code1", code1), ("code2", code2), ("code3", code3)), expected
    )


def example33_instance() -> NamedInstance:
    """Two-qubit binary unitary case with spectrum exp(i pi k/4), k = 1,3,5,7."""
    u = np.diag(np.exp(1j * np.pi * np.array([1, 3, 5, 7]) / 4))
    binary = BinaryUnitaryChannel(0.01, u)
    k = [_ket(4, i) for i in range(4)]
    code = code_subspace([(k[0] + k[2]) / np.sqrt(2), (k[1] + k[3]) / np.sqrt(2)])
    expected = (
        Expectation("numrange_vertex", 0j, 1e-9, "Example 3.3, Omega_2 = {0}", params={"k": 2}),
        Expectation("compression_value", 0j, 1e-8, "Example 3.3 code display", "paired"),
        Expectation("code_entropy", 0.081, 5e-4, "Example 3.3, S = 0.081 at p = 0.01", "paired"),
    )
    return NamedInstance(
        "example33", binary.to_channel(), (("paired", code),), expected, binary=binary, k=2
    )


def qutrit_instance() -> NamedInstance:
    """Two-qutrit binary unitary case: nine evenly spaced eigenvalues from phase 0."""
    u = np.diag(np.exp(2j * np.pi * np.arange(9) / 9))
    binary = BinaryUnitaryChannel(0.01, u)
    expected = (
        Expectation(
            "numrange_vertex",
            complex(0.09246, -0.52400),
            1e-3,
            "Sec. 3 qutrit example, lambda_0 = 0.092 - 0.524i",
            params={"k": 3},
        ),
        Expectation("lambda_plus", 0.993, 5e-4, "Sec. 3 qutrit example spectrum", params={"k": 3}),
        Expectation("lambda_minus", 0.007, 5e-4, "Sec. 3 qutrit example spectrum", params={"k": 3}),
        Expectation("min_entropy", 0.060, 5e-4, "Sec. 3 qutrit example, minimal entropy", params={"k": 3}),
        Expectation(
            "entropy_at_lambda", 0.081, 5e-4, "Sec. 3 qutrit example, entropy at lambda = 0",
            params={"lam": 0j},
        ),
    )
    return NamedInstance("qutrit", binary.to_channel(), (), expected, binary=binary, k=3)


def pauli_zz_instance() -> NamedInstance:
    """Degenerate two-qubit case U = Z (x) Z at the worst mixing probability."""
    u = np.diag(np.array([1.0, -1.0, -1.0, 1.0], dtype=complex))
    binary = BinaryUnitaryChannel(0.5, u)
    k = [_ket(4, i) for i in range(4)]
    code = code_subspace([k[0], k[3]])
    expected = (
        Expectation("code_entropy", 0.0, 1e-9, "Sec. 3, |lambda| = 1 implies S = 0", "plus-eigenspace"),
        Expectation("classification", "DecoherenceFree", 0.0, "Sec. 3 Pauli-group remark", "plus-eigenspace"),
        Expectation("min_entropy", 0.0, 1e-9, "Sec. 3, spectrum {1, 0}", params={"k": 2}),
    )
    return NamedInstance(
        "pauli-zz", binary.to_channel(), (("plus-eigenspace", code),), expected, binary=binary, k=2
    )


def all_instances() -> dict[str, NamedInstance]:
    instances = [table1_instances(), stabilizer_instance(), example33_instance(), qutrit_instance(),
                 pauli_zz_instance()]
    return {inst.name: inst for inst in instances}


def evaluate_instance(inst: NamedInstance, tol: ToleranceConfig = DEFAULT_TOL) -> list[dict]:
    """Compute each expected quantity and compare it against its target.
    Each code is analysed once, by one ``classify_code``, and each rank-k
    range is built once, however many quantities read them."""
    labels = dict.fromkeys(e.code_label for e in inst.expected
                           if e.quantity in ("code_entropy", "classification"))
    reports = {label: classify_code(inst.channel, inst.code(label), tol) for label in labels}
    # Maximizers of |lambda| per range, sorted: the first is kept under ties.
    winners = {k: extremal_lambda(numerical_range(inst.binary.u, k, tol)).min_entropy_lambdas
               for k in dict.fromkeys(e.params["k"] for e in inst.expected if "k" in e.params)}
    rows = []
    for exp in inst.expected:
        q = exp.quantity
        if q == "choi_rank":
            computed = choi_gram(inst.channel, tol).choi_rank
        elif q == "code_entropy":
            computed = reports[exp.code_label].entropy_bits
        elif q == "classification":
            computed = reports[exp.code_label].classification.value
        elif q == "compression_value":
            code = inst.code(exp.code_label)
            computed = complex(np.trace(dag(code.basis) @ inst.binary.u @ code.basis) / code.k)
        elif q == "numrange_vertex":
            computed = min(winners[exp.params["k"]], key=lambda z: abs(z - exp.target))
        elif q in ("lambda_plus", "lambda_minus"):
            plus, minus = lambda_spectrum(inst.binary.p, winners[exp.params["k"]][0])
            computed = plus if q == "lambda_plus" else minus
        elif q == "min_entropy":
            computed = biunitary_code_entropy(inst.binary.p, winners[exp.params["k"]][0])
        elif q == "entropy_at_lambda":
            computed = biunitary_code_entropy(inst.binary.p, exp.params["lam"])
        else:
            raise ValueError(f"unknown expectation quantity {q!r}")
        err = float(computed != exp.target if q == "classification" else abs(computed - exp.target))
        rows.append({
            "quantity": q if exp.code_label is None else f"{q}[{exp.code_label}]",
            "expected": exp.target,
            "computed": computed,
            "abs_error": err,
            "tolerance": exp.tolerance,
            "passed": err <= exp.tolerance,
            "provenance": exp.provenance,
        })
    return rows
