"""Simulator and verification library for a six-qubit code that protects
three message qubits against an arbitrary error on one known site, plus a
2n-qubit generalization whose single-qubit marginals reveal nothing about
the encoded state.

Everything is dense linear algebra on small registers: states stay pure by
tracking error environments explicitly, so exact-recovery and data-hiding
claims can be certified to tight numerical tolerances.
"""

from .codes import (
    CodeSpec,
    RecoveryPlan,
    decoder_for,
    hiding_code,
    hiding_encoder,
    hiding_recovery,
    recovery_for,
    six_qubit_logical_basis,
    w_code,
)
from .gates import (
    Circuit,
    CircuitOp,
    Gate,
    apply_circuit,
    custom_gate,
    invert_circuit,
    standard_gate,
)
from .noise import (
    DecoherenceIsometry,
    ErasureEvent,
    apply_erasure,
    leakage_decoherence,
    pauli_error,
    random_decoherence,
)
from .states import (
    DensityMatrix,
    MessageState,
    PureState,
    SiteDims,
    apply_local_operator,
    fidelity_with_pure,
    partial_trace,
)
from .verify import (
    CheckResult,
    ErrorOperatorSet,
    RecoverySynthesisError,
    TrialResult,
    VerificationReport,
    certify,
    check_erasure_kl,
    check_hiding,
    check_kl_general,
    run_recovery_trial,
    run_recovery_trials,
    sector_overlaps,
    synthesize_recovery,
)

__version__ = "0.1.0"

__all__ = [
    "CheckResult",
    "Circuit",
    "CircuitOp",
    "CodeSpec",
    "DecoherenceIsometry",
    "DensityMatrix",
    "ErasureEvent",
    "ErrorOperatorSet",
    "Gate",
    "MessageState",
    "PureState",
    "RecoveryPlan",
    "RecoverySynthesisError",
    "SiteDims",
    "TrialResult",
    "VerificationReport",
    "apply_circuit",
    "apply_erasure",
    "apply_local_operator",
    "certify",
    "check_erasure_kl",
    "check_hiding",
    "check_kl_general",
    "custom_gate",
    "decoder_for",
    "fidelity_with_pure",
    "hiding_code",
    "hiding_encoder",
    "hiding_recovery",
    "invert_circuit",
    "leakage_decoherence",
    "partial_trace",
    "pauli_error",
    "random_decoherence",
    "recovery_for",
    "run_recovery_trial",
    "run_recovery_trials",
    "sector_overlaps",
    "six_qubit_logical_basis",
    "standard_gate",
    "synthesize_recovery",
    "w_code",
]
