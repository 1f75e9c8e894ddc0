"""End-to-end acceptance harness.

One test per release criterion, each run at its stated tolerance over the
full grid (no sampling) and against its time budget.  Every test registers
a PASS/FAIL line through conftest.record_criterion.
"""

import json
import time

import numpy as np

from conftest import record_criterion
from test_codes import expected_logical

from erasurelab.cli import main
from erasurelab.codes import (
    CodeSpec,
    hiding_code,
    recovery_for,
    six_qubit_logical_basis,
    w_code,
)
from erasurelab.noise import (
    ErasureEvent,
    apply_erasure,
    leakage_decoherence,
    pauli_error,
    random_decoherence,
)
from erasurelab.states import MessageState, partial_trace
from erasurelab.verify import (
    ErrorOperatorSet,
    RecoverySynthesisError,
    check_erasure_kl,
    check_hiding,
    check_kl_general,
    run_recovery_trial,
    synthesize_recovery,
)

TOLERANCE = 1e-10
TRIALS = 25


def seeded_messages(code, count=TRIALS, seed=42):
    rng = np.random.default_rng(seed)
    return [code.random_message(rng) for _ in range(count)]


def criterion_3_channels():
    """4 definite Pauli errors plus 5 seeded generic entangling channels."""
    return [pauli_error(k) for k in "IXYZ"] + [
        random_decoherence(101 + j, env_dim=4) for j in range(5)
    ]


def test_criterion_1_encoder_reproduces_the_logical_basis():
    start = time.perf_counter()
    code = six_qubit_logical_basis()
    worst = 0.0
    for i in range(8):
        out = code.encode(MessageState.basis(3, i))
        worst = max(worst, float(np.max(np.abs(out.amps - expected_logical(i)))))
        worst = max(worst, float(np.max(np.abs(out.amps - code.basis[i]))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    record_criterion(1, "encoding fidelity", ok)
    assert worst <= 1e-12, f"worst amplitude deviation {worst:.3e}"
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_2_kl_certification():
    start = time.perf_counter()
    six = six_qubit_logical_basis()
    w5 = w_code()
    worst = 0.0
    for pos in range(6):
        worst = max(worst, check_erasure_kl(six, pos, TOLERANCE).checks[0].worst_deviation)
    for pos in range(5):
        worst = max(worst, check_erasure_kl(w5, pos, TOLERANCE).checks[0].worst_deviation)
    pairwise = [
        check_kl_general(six, ErrorOperatorSet.pauli_set(pos), TOLERANCE).passed
        for pos in range(6)
    ]
    elapsed = time.perf_counter() - start
    ok = worst <= TOLERANCE and all(pairwise) and elapsed < 5.0
    record_criterion(2, "erasure KL certification", ok)
    assert worst <= TOLERANCE, f"worst violation {worst:.3e}"
    assert all(pairwise)
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_3_exact_recovery_over_the_full_grid():
    start = time.perf_counter()
    code = six_qubit_logical_basis()
    messages = seeded_messages(code)
    channels = criterion_3_channels()
    worst_fidelity = 1.0
    worst_purity = 1.0
    for pos in range(6):
        plan = recovery_for(pos)
        for msg in messages:
            for channel in channels:
                result = run_recovery_trial(code, msg, ErasureEvent(pos, channel), plan)
                worst_fidelity = min(worst_fidelity, result.fidelity)
                worst_purity = min(worst_purity, result.purity)
    elapsed = time.perf_counter() - start
    ok = worst_fidelity >= 1 - TOLERANCE and worst_purity >= 1 - TOLERANCE and elapsed < 60.0
    record_criterion(3, "exact recovery, 25 messages x 6 positions x 9 channels", ok)
    assert worst_fidelity >= 1 - TOLERANCE, f"worst fidelity {worst_fidelity!r}"
    assert worst_purity >= 1 - TOLERANCE, f"worst purity {worst_purity!r}"
    assert elapsed < 60.0, f"took {elapsed:.2f}s"


def test_criterion_4_leakage_robustness():
    start = time.perf_counter()
    code = six_qubit_logical_basis()
    messages = seeded_messages(code)
    worst_fidelity = 1.0
    for leak_dim in (3, 4):
        channels = [
            leakage_decoherence(201 + j, leak_dim=leak_dim, env_dim=4) for j in range(5)
        ]
        for pos in range(6):
            plan = recovery_for(pos)
            for msg in messages:
                for channel in channels:
                    result = run_recovery_trial(
                        code, msg, ErasureEvent(pos, channel), plan
                    )
                    worst_fidelity = min(worst_fidelity, result.fidelity)
    elapsed = time.perf_counter() - start
    ok = worst_fidelity >= 1 - TOLERANCE and elapsed < 60.0
    record_criterion(4, "leakage robustness, leak_dim 3 and 4", ok)
    assert worst_fidelity >= 1 - TOLERANCE, f"worst fidelity {worst_fidelity!r}"
    assert elapsed < 60.0, f"took {elapsed:.2f}s"


def test_criterion_5_decoder_equivalence_on_reduced_states():
    code = six_qubit_logical_basis()
    messages = seeded_messages(code)
    channels = criterion_3_channels()
    worst = 0.0
    for pos in range(6):
        plan = recovery_for(pos)
        synthesized = synthesize_recovery(
            code, pos, output_register=plan.output_register, tolerance=TOLERANCE
        )
        for msg in messages:
            encoded = code.encode(msg)
            for channel in channels:
                hit = apply_erasure(encoded, ErasureEvent(pos, channel))
                rho_plan = partial_trace(plan.apply(hit), plan.output_register)
                rho_syn = partial_trace(synthesized.apply(hit), synthesized.output_register)
                worst = max(worst, float(np.max(np.abs(rho_plan.matrix - rho_syn.matrix))))
    ok = worst <= TOLERANCE
    record_criterion(5, "synthesized decoder matches the circuit plans", ok)
    assert worst <= TOLERANCE, f"worst reduced-state mismatch {worst:.3e}"


def test_criterion_6_hiding():
    start = time.perf_counter()
    worst = 0.0
    all_passed = True
    for code in [six_qubit_logical_basis()] + [hiding_code(n) for n in (2, 3, 4, 5)]:
        report = check_hiding(code, trials=TRIALS, seed=42, tolerance=TOLERANCE)
        all_passed = all_passed and report.passed
        worst = max(worst, max(c.worst_deviation for c in report.checks))
    elapsed = time.perf_counter() - start
    ok = all_passed and worst <= TOLERANCE and elapsed < 30.0
    record_criterion(6, "maximally mixed marginals, six-qubit and hiding 2..5", ok)
    assert all_passed and worst <= TOLERANCE, f"worst marginal deviation {worst:.3e}"
    assert elapsed < 30.0, f"took {elapsed:.2f}s"


def test_criterion_7_negative_controls():
    bare = CodeSpec("bare", 3, 3, np.eye(8), range(8))
    check_failed = not check_erasure_kl(bare, 0, TOLERANCE).passed
    refused = False
    try:
        synthesize_recovery(bare, 0, tolerance=TOLERANCE)
    except RecoverySynthesisError:
        refused = True
    ok = check_failed and refused
    record_criterion(7, "negative controls refuse the unencoded register", ok)
    assert check_failed, "unencoded register passed the erasure conditions"
    assert refused, "synthesize_recovery emitted a decoder for an uncorrectable code"


def test_criterion_8_byte_identical_reports(capsys):
    def run(argv):
        exit_code = main(list(argv))
        return exit_code, capsys.readouterr().out

    verify_argv = ("verify", "--code", "six")
    recover_argv = ("recover", "--pos", "0", "--channel", "random:4")
    v_code_a, v_out_a = run(verify_argv)
    v_code_b, v_out_b = run(verify_argv)
    r_code_a, r_out_a = run(recover_argv)
    r_code_b, r_out_b = run(recover_argv)
    ok = (
        v_code_a == v_code_b == r_code_a == r_code_b == 0
        and v_out_a == v_out_b
        and r_out_a == r_out_b
    )
    record_criterion(8, "deterministic byte-identical reports", ok)
    assert v_code_a == 0 and r_code_a == 0
    assert v_out_a == v_out_b
    assert r_out_a == r_out_b
    # and the output really is the documented JSON shape
    report = json.loads(r_out_a)
    assert set(report) == {"meta", "checks", "trials"}
    assert len(report["trials"]) == 25
