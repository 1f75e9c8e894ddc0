"""Simulator and verification library for a six-qubit code that protects
three message qubits against an arbitrary error on one known site, plus a
2n-qubit generalization whose single-qubit marginals reveal nothing about
the encoded state.

States stay pure by tracking error environments explicitly, so
exact-recovery and data-hiding claims can be certified to tight numerical
tolerances.  Circuits run on a state's nonzero entries wherever their gates
allow, and sparse codes are certified from their stored entries.
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
