"""Entropy of quantum error-correcting codes.

Channels in Kraus form, Knill-Laflamme verification, code entropy and
classification, and the convex-geometric treatment of binary unitary
channels (higher-rank numerical ranges, minimum-entropy code construction).
"""

import types

from .binary_unitary import (
    BinaryUnitaryChannel,
    ExtremalLambdas,
    GroupingCode,
    NumRangeRegion,
    RegionKind,
    biunitary_code_entropy,
    constituent_hulls,
    dfs_exists,
    entropy_vs_p,
    extremal_lambda,
    grouping_code,
    lambda_spectrum,
    numerical_range,
)
from .channel import (
    ChoiGram,
    QuantumChannel,
    apply_channel,
    canonical_kraus,
    channel,
    channel_from_json,
    choi_gram,
    pauli_channel,
    pauli_word,
    remix_kraus,
    validate_channel,
)
from .code import (
    CodeClass,
    CodeReport,
    CodeSubspace,
    ErrorCorrectionMatrix,
    RecoveryOperation,
    build_recovery,
    classify_code,
    code_entropy,
    code_from_json,
    code_subspace,
    kl_check,
    rank_bound_check,
    sigma_equals_lambda_check,
)
from .entropy import (
    LindbladReport,
    check_lindblad_bounds,
    entropy_exchange,
    exchange_matrix,
    lindblad_omega,
    purification_exchange_entropy,
    von_neumann_entropy,
)
from .errors import (
    LambdaOutsideRegionError,
    NoCodeError,
    NoFeasiblePartitionError,
    NotCorrectable,
    NotTracePreserving,
    QecError,
    RecoveryVerificationError,
    UnsupportedCodeDimensionError,
)
from .numerics import DEFAULT_TOL, EigenDecomposition, ToleranceConfig, unitary_eigen
from .sampling import haar_unitary, random_channel, random_density

# Every public name bound above, written once: the submodules are left out.
__all__ = sorted(n for n, v in globals().items() if not n.startswith("_") and not isinstance(v, types.ModuleType))
