"""Code constructions against an independently written amplitude oracle.

The expected logical states are rebuilt here from bitstring literals only:
message label i = (b1 b2 b3) maps to the block pattern u = (b1, b2, 0) with
sign (-1)^b3, and the code state is (|u> + s|u~>)/sqrt(2) twice over, where
u~ is the bitwise complement.  No code from the package is used to generate
the expectations.
"""

import math

import numpy as np
import pytest

from test_gates import circuit_matrix

from erasurelab.codes import (
    HIDING_MAX_QUBITS,
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
from erasurelab.gates import Circuit, apply_circuit, circuit_rows, op
from erasurelab.noise import ErasureEvent, apply_erasure, random_decoherence
from erasurelab.states import (
    MessageState,
    PureState,
    SiteDims,
    fidelity_with_pure,
    partial_trace,
)
from erasurelab.verify import synthesize_recovery

# label -> (block bit pattern, sign), transcribed by hand
GHZ_PAIRS = {
    0: ("000", +1),
    1: ("000", -1),
    2: ("010", +1),
    3: ("010", -1),
    4: ("100", +1),
    5: ("100", -1),
    6: ("110", +1),
    7: ("110", -1),
}


def block_amps(pattern: str, sign: int) -> np.ndarray:
    v = np.zeros(2 ** len(pattern))
    idx = int(pattern, 2)
    comp = 2 ** len(pattern) - 1 - idx
    v[idx] += 1 / math.sqrt(2)
    v[comp] += sign / math.sqrt(2)
    return v


def expected_logical(label: int) -> np.ndarray:
    pattern, sign = GHZ_PAIRS[label]
    g = block_amps(pattern, sign)
    return np.kron(g, g)


def ghz_signature(v: np.ndarray) -> tuple[int, int]:
    """(index of |u>, sign) of a GHZ-type vector (|u> + sign |u~>)/sqrt(2)
    whose lower-index amplitude is real positive; AssertionError otherwise."""
    nz = np.flatnonzero(np.abs(v) > 1e-12)
    assert len(nz) == 2 and nz[0] + nz[1] == len(v) - 1, "not on complementary patterns"
    a, b = v[nz[0]], v[nz[1]]
    assert abs(a - 1 / math.sqrt(2)) <= 1e-12, "leading amplitude is not 1/sqrt(2)"
    assert min(abs(b / a - 1), abs(b / a + 1)) <= 1e-12, "amplitude ratio is not +/-1"
    return int(nz[0]), 1 if abs(b / a - 1) <= 1e-12 else -1


def _fix_phase(v: np.ndarray) -> np.ndarray:
    # SVD factors of a complex array carry an arbitrary phase; pin the
    # lowest-index significant entry to be real positive
    lead = v[np.flatnonzero(np.abs(v) > 1e-12)[0]]
    return v * (lead.conjugate() / abs(lead))


class TestSixQubitBasis:
    def test_every_state_matches_the_oracle(self):
        code = six_qubit_logical_basis()
        assert code.n_physical == 6
        assert code.k_logical == 3
        for i in range(8):
            np.testing.assert_allclose(code.basis[i], expected_logical(i), atol=1e-15)

    def test_first_state_literal(self):
        amps = six_qubit_logical_basis().basis[0]
        expected = np.zeros(64)
        expected[[0, 7, 56, 63]] = 0.5
        np.testing.assert_allclose(amps, expected, atol=1e-15)

    def test_last_state_literal(self):
        # +1/2 |110110>, -1/2 |110001>, -1/2 |001110>, +1/2 |001001>
        amps = six_qubit_logical_basis().basis[7]
        expected = np.zeros(64)
        expected[0b110110] = 0.5
        expected[0b110001] = -0.5
        expected[0b001110] = -0.5
        expected[0b001001] = 0.5
        np.testing.assert_allclose(amps, expected, atol=1e-15)

    def test_gram_matrix_is_identity(self):
        basis = six_qubit_logical_basis().basis
        np.testing.assert_allclose(basis.conj() @ basis.T, np.eye(8), atol=1e-12)

    def test_each_state_is_a_product_of_two_equal_ghz_blocks(self):
        for i in range(8):
            amps = six_qubit_logical_basis().basis[i]
            m = amps.reshape(8, 8)
            u, sv, vh = np.linalg.svd(m)
            assert sv[0] > 1 - 1e-12 and sv[1] < 1e-12  # rank one across the split
            block = u[:, 0]
            nz = np.flatnonzero(np.abs(block) > 1e-12)
            assert len(nz) == 2
            assert abs(abs(block[nz[0]]) - abs(block[nz[1]])) <= 1e-12
            # each block is itself entangled: Schmidt rank 2 across 1|2 sites
            bsv = np.linalg.svd(block.reshape(2, 4), compute_uv=False)
            assert bsv[0] > 1e-6 and bsv[1] > 1e-6


class TestEncoder:
    def test_encoder_reproduces_every_basis_state(self):
        code = six_qubit_logical_basis()
        for i in range(8):
            out = code.encode(MessageState.basis(3, i))
            np.testing.assert_allclose(out.amps, expected_logical(i), atol=1e-12)

    def test_message_two_literal(self):
        out = six_qubit_logical_basis().encode(MessageState.basis(3, 2))
        expected = np.zeros(64)
        expected[[0b010010, 0b010101, 0b101010, 0b101101]] = 0.5
        np.testing.assert_allclose(out.amps, expected, atol=1e-12)

    def test_encoder_is_linear_over_the_basis(self):
        code = six_qubit_logical_basis()
        rng = np.random.default_rng(31)
        for _ in range(10):
            msg = code.random_message(rng)
            direct = code.encode(msg)
            combo = code.logical_combination(msg)
            np.testing.assert_allclose(direct.amps, combo.amps, atol=1e-12)

    def test_encoder_columns_reproduce_basis_exhaustively(self):
        mat = circuit_matrix(hiding_encoder(3))
        for i in range(8):
            np.testing.assert_allclose(mat[:, i * 8], expected_logical(i), atol=1e-12)


class TestDecodeAndRecovery:
    def test_decoder_targets_stay_on_the_intact_block(self):
        for bad in range(3):
            touched = {t for o in decoder_for(bad).ops for t in o.targets}
            assert touched <= {3, 4, 5}
        for bad in range(3, 6):
            touched = {t for o in decoder_for(bad).ops for t in o.targets}
            assert touched <= {0, 1, 2}
        with pytest.raises(ValueError):
            decoder_for(6)
        with pytest.raises(ValueError):
            recovery_for(-1)

    def test_decode_reads_message_index_onto_the_ancilla_register(self):
        code = six_qubit_logical_basis()
        decode = decoder_for(0)
        for i in range(8):
            folded = apply_circuit(PureState(code.dims, code.basis[i]), decode)
            rho = partial_trace(folded, (3, 4, 5))
            target = MessageState.basis(3, i)
            assert fidelity_with_pure(rho, target) >= 1 - 1e-12

    def test_decode_after_damage_keeps_the_readout_and_block_structure(self):
        # a bit flip on site 0 cannot reach the second block, so decoding
        # still yields |000> there and leaves the damaged block pure
        code = six_qubit_logical_basis()
        damaged = apply_circuit(
            PureState(code.dims, code.basis[0]), Circuit([op("X", 0)], SiteDims.qubits(6))
        )
        folded = apply_circuit(damaged, decoder_for(0))
        anc = partial_trace(folded, (3, 4, 5))
        assert fidelity_with_pure(anc, MessageState.basis(3, 0)) >= 1 - 1e-12
        blk = partial_trace(folded, (0, 1, 2))
        flipped_block = PureState((2, 2, 2), (np.eye(8)[4] + np.eye(8)[3]) / math.sqrt(2))
        assert fidelity_with_pure(blk, flipped_block) >= 1 - 1e-12

    def test_plans_never_touch_the_bad_site(self):
        for bad in range(6):
            plan = recovery_for(bad)
            assert plan.bad_position == bad
            assert bad not in {t for o in plan.circuit.ops for t in o.targets}
            # written last, so the decoder runs first
            decoder = decoder_for(bad).ops
            assert [(o.gate.kind, o.targets) for o in plan.circuit.ops[-len(decoder):]] == [
                (o.gate.kind, o.targets) for o in decoder]
            assert bad not in plan.output_register
            assert plan.output_register == ((3, 4, 5) if bad < 3 else (0, 1, 2))

    def test_primed_plans_follow_the_block_swap(self):
        # the circuits for bad sites 3..5 must equal the unprimed ones with
        # the two blocks exchanged; checked mechanically via relabeling
        swap = {0: 3, 1: 4, 2: 5, 3: 0, 4: 1, 5: 2}
        for bad in range(3):
            a, b = recovery_for(bad), recovery_for(bad + 3)
            relabeled = [tuple(swap[t] for t in o.targets) for o in a.circuit.ops]
            assert relabeled == [o.targets for o in b.circuit.ops]
            assert [o.gate.kind for o in a.circuit.ops] == [o.gate.kind for o in b.circuit.ops]

    def test_recovery_plan_validation(self):
        dims = SiteDims.qubits(6)
        touching = Circuit([op("H", 0)], dims)
        empty = Circuit([], dims)
        with pytest.raises(ValueError):
            RecoveryPlan(0, touching, (3, 4, 5))
        with pytest.raises(ValueError):
            RecoveryPlan(0, empty, (0, 4, 5))
        with pytest.raises(ValueError):
            RecoveryPlan(0, empty, (4, 4, 5))

    def test_identity_error_roundtrip(self):
        # an erasure code must also correct "nothing happened"
        code = six_qubit_logical_basis()
        for bad in range(6):
            plan = recovery_for(bad)
            encoded = code.encode(MessageState.basis(3, 0))
            out = plan.apply(encoded)
            rho = partial_trace(out, plan.output_register)
            assert fidelity_with_pure(rho, MessageState.basis(3, 0)) >= 1 - 1e-12


class TestWCode:
    def test_image_literals(self):
        code = w_code()
        assert code.message_labels == (1, 2, 4)
        expect = {
            1: (0b00001, 0b11110),
            2: (0b00100, 0b11011),
            4: (0b00010, 0b11101),
        }
        for label, row in zip(code.message_labels, code.basis):
            lo, hi = expect[label]
            v = np.zeros(32)
            v[lo] = v[hi] = 1 / math.sqrt(2)
            np.testing.assert_allclose(row, v, atol=1e-15)

    def test_images_orthonormal(self):
        basis = w_code().basis
        np.testing.assert_allclose(basis.conj() @ basis.T, np.eye(3), atol=1e-12)

    def test_uniform_superposition_encodes_linearly(self):
        amps = np.zeros(8)
        amps[[1, 2, 4]] = 1 / math.sqrt(3)
        out = w_code().logical_combination(MessageState(3, amps))
        expected = np.zeros(32)
        expected[[1, 30, 4, 27, 2, 29]] = 1 / math.sqrt(6)
        np.testing.assert_allclose(out.amps, expected, atol=1e-12)

    def test_support_outside_the_single_excitation_subspace(self):
        code = w_code()
        with pytest.raises(ValueError):
            code.logical_combination(MessageState.basis(3, 0))
        with pytest.raises(ValueError):
            code.logical_combination(MessageState.basis(3, 3))
        bad = np.ones(8) / math.sqrt(8)
        with pytest.raises(ValueError):
            code.logical_combination(MessageState(3, bad))

    def test_one_support_check_for_a_message_or_a_stack(self):
        code = w_code()
        rows = np.zeros((2, 3, 8), dtype=np.complex128)
        rows[..., 1] = 1.0
        code._check_support(rows)  # any leading axes
        rows[1, 2, 6] = 1e-11
        rows[0, 0, 0] = 2e-12
        with pytest.raises(ValueError, match=r"encodable subspace at \[0, 6\]"):
            code._check_support(rows)
        rows[0, 0, 0] = rows[1, 2, 6] = 1e-12  # at SUPPORT_TOL, still supported
        code._check_support(rows)
        with pytest.raises(ValueError, match="3 qubits"):
            code._check_support(np.ones(4))


class TestHidingFamily:
    def test_n2_basis_input_literal(self):
        out = hiding_code(2).encode(MessageState.basis(2, 0))
        expected = np.zeros(16)
        expected[[0b0000, 0b0011, 0b1100, 0b1111]] = 0.5
        np.testing.assert_allclose(out.amps, expected, atol=1e-12)

    def test_n3_encoder_matrix_equals_the_six_qubit_one(self):
        # the six-qubit encoder as transcribed from the paper: CNOTs copy the
        # message onto the ancillas, Hadamards on sites 2 and 5, CNOT fans
        paper = Circuit(
            [op("CNOT", 5, 4), op("CNOT", 5, 3), op("CNOT", 2, 1), op("CNOT", 2, 0),
             op("H", 5), op("H", 2), op("CNOT", 2, 5), op("CNOT", 1, 4), op("CNOT", 0, 3)],
            SiteDims.qubits(6),
        )
        np.testing.assert_allclose(circuit_matrix(hiding_encoder(3)), circuit_matrix(paper),
                                   atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_every_basis_output_is_a_double_ghz_block(self, n):
        code = hiding_code(n)
        for i in range(2**n):
            amps = code.encode(MessageState.basis(n, i)).amps
            m = amps.reshape(2**n, 2**n)
            u, sv, vh = np.linalg.svd(m)
            assert sv[0] > 1 - 1e-12 and sv[1] < 1e-12
            col = _fix_phase(u[:, 0])
            row = _fix_phase(vh[0].conj())
            assert ghz_signature(col) == ghz_signature(row)

    @pytest.mark.parametrize("n", [2, 4])
    def test_encoder_agrees_with_basis_expansion(self, n):
        code = hiding_code(n)
        rng = np.random.default_rng(77 + n)
        for _ in range(5):
            msg = code.random_message(rng)
            np.testing.assert_allclose(
                code.encode(msg).amps, code.logical_combination(msg).amps, atol=1e-12
            )

    def test_range_validation(self):
        with pytest.raises(ValueError, match="out of range"):
            hiding_encoder(1)
        with pytest.raises(ValueError, match="out of range"):
            hiding_encoder(9)
        with pytest.raises(ValueError, match="out of range"):
            hiding_code(9)
        with pytest.raises(ValueError):
            hiding_code(0)

    def test_bell_pair_case(self):
        code = hiding_code(1)
        assert code.n_physical == 2
        out = code.encode(MessageState.basis(1, 0))
        np.testing.assert_allclose(out.amps, np.array([1, 0, 0, 1]) / math.sqrt(2), atol=1e-12)
        out1 = code.encode(MessageState.basis(1, 1))
        np.testing.assert_allclose(out1.amps, np.array([1, 0, 0, -1]) / math.sqrt(2), atol=1e-12)
        # both classical code states have maximally mixed shares
        for state in (out, out1):
            for s in (0, 1):
                np.testing.assert_allclose(
                    partial_trace(state, (s,)).matrix, np.eye(2) / 2, atol=1e-12
                )


def ghz_pair_oracle(n: int) -> np.ndarray:
    """hiding:n rows as kron products of GHZ blocks: label i has pattern i
    with its last bit cleared and sign (-1)^(last bit); n = 1 is the single
    two-site block of the Bell pair."""
    rows = []
    for i in range(2**n):
        sign = -1 if i & 1 else 1
        if n == 1:
            rows.append(block_amps("00", sign))
        else:
            g = block_amps(format(i & ~1, f"0{n}b"), sign)
            rows.append(np.kron(g, g))
    return np.array(rows)


class TestBuiltinBasis:
    """The rows written entry by entry equal the kron of GHZ blocks bit for
    bit: every amplitude is (1/sqrt 2)^2, not 0.5, so reports do not move."""

    def test_six_matches_the_hand_transcribed_table_exactly(self):
        basis = six_qubit_logical_basis().basis
        assert np.array_equal(basis, [expected_logical(i) for i in range(8)])

    @pytest.mark.parametrize("n", range(1, 8))
    def test_hiding_matches_the_kron_oracle_exactly(self, n):
        basis = hiding_code(n).basis
        assert basis.dtype == np.complex128
        assert np.array_equal(basis, ghz_pair_oracle(n))

    @pytest.mark.parametrize("code", [six_qubit_logical_basis()]
                             + [hiding_code(n) for n in range(1, 8)], ids=lambda code: code.label)
    def test_the_encoder_gives_the_rows_bit_for_bit(self, code):
        # recover runs its plan on code.basis in place of the encoder's outputs
        encoded = np.stack([code.encode(MessageState.basis(code.k_logical, m)).amps
                            for m in code.message_labels])
        assert np.array_equal(encoded.view(np.uint64), code.basis.view(np.uint64))

    def test_six_is_the_hiding_code_at_three_under_the_paper_label(self):
        six, three = six_qubit_logical_basis(), hiding_code(3)
        assert (six.label, three.label) == ("six-qubit-erasure", "hiding-3")
        assert (six.n_physical, six.k_logical) == (three.n_physical, three.k_logical)
        assert np.array_equal(six.rows.view(np.uint64), three.rows.view(np.uint64))
        assert np.array_equal(six.support, three.support)
        assert six.message_labels == three.message_labels
        ops = [[(o.gate.kind, o.targets) for o in c.encoder.ops] for c in (six, three)]
        assert ops[0] == ops[1]


class TestMessageDraws:
    """``recover`` normalizes each chunk of message draws in one stacked step;
    every row must be the draw normalized alone, bit for bit."""

    @pytest.mark.parametrize("code", [six_qubit_logical_basis(), w_code()]
                             + [hiding_code(n) for n in range(2, 8)], ids=lambda code: code.label)
    def test_the_stacked_normalization_is_each_draw_normalized_alone(self, code):
        count, labels = 1000, list(code.message_labels)
        z = np.random.default_rng(23).standard_normal((count, len(labels), 2))
        stacked = code.message_amplitudes(z)
        replay = np.random.default_rng(23)  # the same stream, one draw at a time
        alone = np.stack([code.random_amplitudes(replay) for _ in range(count)])
        assert np.array_equal(stacked.view(np.uint64), alone.view(np.uint64))
        # the per-draw formula: the label amplitudes over np.linalg.norm
        want = np.zeros((count, 2**code.k_logical), dtype=np.complex128)
        want[:, labels] = z[..., 0] + 1j * z[..., 1]
        want = np.stack([amps / np.linalg.norm(amps) for amps in want])
        assert np.array_equal(stacked.view(np.uint64), want.view(np.uint64))


class TestEncoderBuiltOnRead:
    @pytest.mark.parametrize("n", [3, 4, 8])
    def test_the_ghz_pair_encoder_is_built_on_first_read_and_kept(self, monkeypatch, n):
        from erasurelab import codes

        calls = []
        real = codes.hiding_encoder
        monkeypatch.setattr(codes, "hiding_encoder", lambda n: calls.append(n) or real(n))
        code = six_qubit_logical_basis() if n == 3 else hiding_code(n)
        _ = code.rows, code.support
        assert calls == []
        encoder = code.encoder
        assert code.encoder is encoder and calls == [n]
        assert ([(o.gate.kind, o.targets) for o in encoder.ops]
                == [(o.gate.kind, o.targets) for o in real(n).ops])

    def test_an_encoder_given_as_a_circuit_is_kept_as_given(self):
        bell = hiding_code(1)
        assert bell.encoder is bell.encoder and isinstance(bell.encoder, Circuit)
        assert w_code().encoder is None


class TestCodeSpecValidation:
    def test_rejects_non_orthonormal_basis(self):
        with pytest.raises(ValueError, match="orthonormal"):
            CodeSpec("dup", 2, 1, np.eye(4)[[0, 0]], (0, 1))

    def test_rejects_non_finite_amplitudes(self):
        basis = np.eye(4)[[0, 1]].astype(complex)
        basis[1, 3] = complex(0, np.inf)
        with pytest.raises(ValueError, match="non-finite"):
            CodeSpec("inf", 2, 1, basis, (0, 1))

    def test_rejects_mismatched_labels(self):
        basis = np.eye(4)[[0, 1]]
        with pytest.raises(ValueError):
            CodeSpec("short", 2, 1, basis, (0,))
        with pytest.raises(ValueError):
            CodeSpec("dup-label", 2, 1, basis, (1, 1))
        with pytest.raises(ValueError):
            CodeSpec("range", 2, 1, basis, (0, 2))
        with pytest.raises(ValueError):
            CodeSpec("empty", 2, 1, basis, ())

    def test_rejects_wrong_register(self):
        with pytest.raises(ValueError, match="shape"):
            CodeSpec("reg", 3, 1, np.eye(4)[[0, 1]], (0, 1))

    def test_explicit_basis_is_a_frozen_copy(self):
        rows = np.eye(4)[[0, 1]]
        code = CodeSpec("pair", 2, 1, rows, (0, 1))
        rows[0, 0] = 7.0
        assert code.basis[0, 0] == 1.0
        assert not code.basis.flags.writeable

    def test_builder_runs_once_on_first_read_and_is_checked(self):
        calls = []

        def build(rows, support):
            calls.append(1)
            return rows, support

        code = CodeSpec("lazy", 2, 1, lambda: build(np.eye(2, dtype=complex), [0, 3]), (0, 1))
        assert calls == []
        assert np.array_equal(code.rows, code.rows)
        assert calls == [1]
        assert not code.rows.flags.writeable
        assert np.array_equal(code.basis, np.eye(4)[[0, 3]])
        bad = CodeSpec("lazy-bad", 2, 1, lambda: build(np.ones((2, 2)), [0, 3]), (0, 1))
        with pytest.raises(ValueError, match="orthonormal"):
            bad.rows

    def test_logical_basis_gives_the_rows_as_states(self):
        code = w_code()
        states = code.logical_basis
        assert [s.dims for s in states] == [code.dims] * 3
        assert np.array_equal(np.stack([s.amps for s in states]), code.basis)

    def test_random_message_stays_on_supported_labels(self):
        code = w_code()
        rng = np.random.default_rng(12)
        for _ in range(10):
            msg = code.random_message(rng)
            off = [abs(msg.amps[i]) for i in range(8) if i not in (1, 2, 4)]
            assert max(off) == 0.0


def factorization_deviation(basis: np.ndarray, plan: RecoveryPlan) -> float:
    """max |W[i] - |i>_out (x) phi| over the rows of W, the plan run on the
    logical ``basis`` rows (labels 0..L-1), with phi the mean of the junk
    states W[i, i].  The plan never touches its bad site, so it commutes
    with any error there: it undoes every such error iff this is 0."""
    n = int(basis.shape[1]).bit_length() - 1
    w = circuit_rows(basis, SiteDims.qubits(n), plan.circuit)
    out = list(plan.output_register)
    axes = [1 + s for s in out] + [1 + s for s in range(n) if s not in out]
    w = w.reshape((len(w),) + (2,) * n).transpose([0] + axes).reshape(len(w), 2 ** len(out), -1)
    rows = np.arange(len(w))
    w[rows, rows] -= w[rows, rows].mean(axis=0)
    return float(np.max(np.abs(w)))


def reversed_fan(plan: RecoveryPlan, n: int) -> RecoveryPlan:
    """The plan with its fan on the damaged block, CNOTs from q onto the
    other sites of that block, turned around."""
    block = range(0, n) if plan.bad_position < n else range(n, 2 * n)
    q = next(s for s in block if s != plan.bad_position)
    ops = []
    for o in plan.circuit.ops:
        if o.gate.kind == "CNOT" and o.targets[0] == q and o.targets[1] in block:
            o = op("CNOT", o.targets[1], q)
        ops.append(o)
    return RecoveryPlan(plan.bad_position, Circuit(ops, plan.circuit.dims), plan.output_register)


def repaired_output_states(code, plan, seed: int) -> list[np.ndarray]:
    """Output-register states of three random messages after a random
    channel at the plan's bad site and then the plan."""
    rng = np.random.default_rng(seed)
    states = []
    for trial in range(3):
        event = ErasureEvent(plan.bad_position, random_decoherence(seed + trial))
        hit = apply_erasure(code.encode(code.random_message(rng)), event)
        states.append(partial_trace(plan.apply(hit), plan.output_register).matrix)
    return states


class TestHidingRecovery:
    @pytest.mark.parametrize("n", range(2, HIDING_MAX_QUBITS + 1))
    def test_only_cnot_h_and_cz_3n_minus_2_of_them_and_never_on_the_bad_site(self, n):
        for p in range(2 * n):
            plan = hiding_recovery(n, p)
            assert {o.gate.kind for o in plan.circuit.ops} <= {"CNOT", "H", "CZ"}
            assert len(plan.circuit) == 3 * n - 2
            assert p not in {t for o in plan.circuit.ops for t in o.targets}
            assert plan.bad_position == p
            assert plan.output_register == tuple(range(n, 2 * n) if p < n else range(n))

    @pytest.mark.parametrize("n, sites", [(n, range(2 * n)) for n in range(2, 7)] + [(7, [3])])
    def test_every_row_factors_as_the_message_times_one_junk_state(self, n, sites):
        basis = ghz_pair_oracle(n)
        for p in sites:
            assert factorization_deviation(basis, hiding_recovery(n, p)) <= 2e-15

    @pytest.mark.parametrize("n", [3, 4])
    def test_a_reversed_fan_fails_the_oracle(self, n):
        basis = ghz_pair_oracle(n)
        for p in range(2 * n):
            plan = hiding_recovery(n, p)
            wrong = reversed_fan(plan, n)
            assert [o.targets for o in wrong.circuit.ops] != [o.targets for o in plan.circuit.ops]
            if n % 2 == 0 and p % n == n - 1:
                # the reversed fan leaves q the parity of the other n - 1
                # sites, which is q's own value when n - 1 is odd and p
                # carries no pattern bit: still an exact plan
                assert factorization_deviation(basis, wrong) <= 1e-15
            else:
                assert factorization_deviation(basis, wrong) > 0.3

    def test_six_qubit_plans_give_the_same_output_states(self):
        code = six_qubit_logical_basis()
        for p in range(6):
            want = repaired_output_states(code, recovery_for(p), 40 + p)
            got = repaired_output_states(code, hiding_recovery(3, p), 40 + p)
            np.testing.assert_allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("n", range(2, 6))
    def test_synthesized_decoders_give_the_same_output_states(self, n):
        code = hiding_code(n)
        for p in range(2 * n):
            plan = hiding_recovery(n, p)
            syn = synthesize_recovery(code, p, output_register=plan.output_register)
            want = repaired_output_states(code, syn, 60 + p)
            np.testing.assert_allclose(repaired_output_states(code, plan, 60 + p), want,
                                       atol=1e-12)

    def test_range_validation(self):
        for n, p in [(1, 0), (HIDING_MAX_QUBITS + 1, 0), (3, 6), (3, -1)]:
            with pytest.raises(ValueError, match="out of range"):
                hiding_recovery(n, p)
