"""Gate constructors, the right-to-left circuit convention, and inversion."""

import numpy as np
import pytest

from erasurelab import gates, states
from erasurelab.gates import (
    CNOT_MATRIX,
    Circuit,
    CircuitOp,
    Gate,
    apply_circuit,
    circuit_rows,
    custom_gate,
    haar_unitary,
    invert_circuit,
    op,
    standard_gate,
)
from erasurelab.states import PureState, SiteDims, apply_local_operator

from conftest import random_state


def random_gate(dim: int, seed: int) -> Gate:
    return custom_gate(haar_unitary(dim, np.random.default_rng(seed)))


def circuit_matrix(circuit: Circuit) -> np.ndarray:
    """Dense reference: the circuit's unitary, one basis column at a time."""
    d = circuit.dims.total
    columns = [apply_circuit(PureState(circuit.dims, column), circuit).amps for column in np.eye(d)]
    return np.stack(columns, axis=1)


class TestStandardGates:
    def test_hadamard_involution(self):
        s = PureState((2,), [1, 0])
        twice = apply_circuit(s, Circuit([op("H", 0), op("H", 0)], (2,)))
        np.testing.assert_allclose(twice.amps, s.amps, atol=1e-15)

    def test_toffoli_control_condition(self):
        c = Circuit([op("TOFFOLI", 0, 1, 2)], (2, 2, 2))
        fired = apply_circuit(PureState((2, 2, 2), np.eye(8)[0b110]), c)
        assert fired.amps[7] == 1.0
        idle = apply_circuit(PureState((2, 2, 2), np.eye(8)[0b100]), c)
        assert idle.amps[4] == 1.0

    def test_cz_phase(self):
        c = Circuit([op("CZ", 0, 1)], (2, 2))
        assert apply_circuit(PureState((2, 2), np.eye(4)[3]), c).amps[3] == -1.0
        assert apply_circuit(PureState((2, 2), np.eye(4)[1]), c).amps[1] == 1.0

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            standard_gate("SWAP")

    def test_each_standard_gate_is_built_once(self):
        cnot = op("CNOT", 0, 1).gate
        assert op("CNOT", 2, 3).gate is cnot
        assert not cnot.matrix.flags.writeable
        with pytest.raises(ValueError):
            cnot.matrix[0, 0] = 0

    def test_gate_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            Gate("CUSTOM", np.diag([1.0, 2.0]))
        with pytest.raises(ValueError):
            Gate("CUSTOM", np.ones((2, 3)))

    def test_dagger(self):
        g = random_gate(4, 11)
        np.testing.assert_allclose(g.dagger().matrix @ g.matrix, np.eye(4), atol=1e-12)


class TestCircuitPlumbing:
    def test_circuitop_validation(self):
        with pytest.raises(ValueError):
            CircuitOp(standard_gate("CNOT"), (0,))
        with pytest.raises(ValueError):
            CircuitOp(standard_gate("CNOT"), (1, 1))
        with pytest.raises(ValueError):
            CircuitOp(standard_gate("H"), (-1,))

    def test_circuit_validates_targets_against_register(self):
        with pytest.raises(ValueError):
            Circuit([op("H", 2)], (2, 2))
        with pytest.raises(ValueError):
            Circuit([op("CNOT", 0, 1)], (2, 3))  # gate side 4 vs site product 6

    def test_empty_circuit_is_identity(self):
        s = random_state((2, 2), np.random.default_rng(0))
        out = apply_circuit(s, Circuit([], (2, 2)))
        np.testing.assert_array_equal(out.amps, s.amps)

    def test_written_order_applies_right_to_left(self):
        # [X0, H0] on |0> must run H first: H|0> is X-invariant, so the
        # result distinguishes the two composition conventions
        out = apply_circuit(
            PureState((2,), [1, 0]), Circuit([op("X", 0), op("H", 0)], (2,))
        )
        np.testing.assert_allclose(out.amps, [1, 1] / np.sqrt(2), atol=1e-15)

    def test_apply_circuit_rejects_missing_or_promoted_sites(self):
        c = Circuit([op("H", 1)], (2, 2))
        with pytest.raises(ValueError):
            apply_circuit(PureState((2,), [1, 0]), c)
        with pytest.raises(ValueError):
            apply_circuit(PureState((2, 3), np.eye(6)[0]), c)
        # extra appended sites and promoted untouched sites are both fine
        c0 = Circuit([op("H", 0)], (2, 2))
        out = apply_circuit(PureState((2, 3, 4), np.eye(24)[0]), c0)
        assert out.dims == (2, 3, 4)

    def test_inner_products_preserved(self):
        rng = np.random.default_rng(3)
        c = Circuit(
            [op("CNOT", 0, 2), op("H", 1), CircuitOp(random_gate(4, 8), (2, 1))],
            (2, 2, 2),
        )
        for _ in range(10):
            a = random_state((2, 2, 2), rng)
            b = random_state((2, 2, 2), rng)
            before = np.vdot(a.amps, b.amps)
            after = np.vdot(apply_circuit(a, c).amps, apply_circuit(b, c).amps)
            assert abs(after - before) <= 1e-12


def tensordot_apply(state: PureState, matrix: np.ndarray, targets) -> np.ndarray:
    """Reference for one gate: tensordot over the target axes, then moveaxis."""
    k = len(targets)
    m = matrix.reshape([state.dims[t] for t in targets] * 2)
    out = np.tensordot(m, state.tensor, axes=(list(range(k, 2 * k)), list(targets)))
    return np.moveaxis(out, list(range(k)), list(targets)).reshape(-1)


class TestOneContraction:
    OPS = [op("CNOT", 2, 0), CircuitOp(random_gate(4, 5), (1, 0)), op("TOFFOLI", 0, 2, 1),
           op("H", 2)]

    def test_matches_gate_by_gate_references(self):
        # an appended qutrit the circuit never touches rides along
        circuit = Circuit(self.OPS, (2, 2, 2))
        rng = np.random.default_rng(23)
        for _ in range(5):
            state = random_state((2, 2, 2, 3), rng)
            ref, validated = state, state
            for c_op in reversed(self.OPS):
                ref_amps = tensordot_apply(ref, c_op.gate.matrix, c_op.targets)
                ref = PureState(state.dims, ref_amps)
                validated = apply_local_operator(validated, c_op.gate.matrix, c_op.targets)
            out = apply_circuit(state, circuit).amps
            np.testing.assert_allclose(out, ref.amps, atol=1e-12)
            np.testing.assert_array_equal(out, validated.amps)

    def test_a_stack_of_rows_gets_the_per_row_result(self):
        circuit = Circuit(self.OPS, (2, 2, 2))
        rng = np.random.default_rng(29)
        rows = [random_state((2, 2, 2, 3), rng) for _ in range(4)]
        stacked = circuit_rows(np.stack([r.amps for r in rows]), (2, 2, 2, 3), circuit)
        assert np.array_equal(stacked, np.stack([apply_circuit(r, circuit).amps for r in rows]))
        with pytest.raises(ValueError, match="does not fit"):
            circuit_rows(stacked, (2, 3, 2, 3), circuit)

    def test_builds_one_state_per_circuit(self, monkeypatch):
        built = []
        init = states.PureState.__init__

        def counting_init(self, *args):
            built.append(args[0])
            init(self, *args)

        def refuse(*args, **kwargs):
            raise AssertionError("apply_circuit validated a single gate")

        state = random_state((2, 2, 2), np.random.default_rng(4))
        monkeypatch.setattr(states.PureState, "__init__", counting_init)
        monkeypatch.setattr(gates, "apply_local_operator", refuse)
        apply_circuit(state, Circuit(self.OPS, (2, 2, 2)))
        assert len(built) == 1


class TestInversion:
    def test_self_inverse_gate(self):
        inv = invert_circuit(Circuit([op("H", 0)], (2,)))
        assert [o.gate.kind for o in inv.ops] == ["H"]
        np.testing.assert_allclose(inv.ops[0].gate.matrix, standard_gate("H").matrix)

    def test_reversal_and_dagger(self):
        c = Circuit([op("CNOT", 0, 1), op("H", 0)], (2, 2))
        inv = invert_circuit(c)
        assert [o.gate.kind for o in inv.ops] == ["H", "CNOT"]
        assert [o.targets for o in inv.ops] == [(0,), (0, 1)]

    def test_inverse_undoes_random_circuit(self):
        rng = np.random.default_rng(17)
        c = Circuit(
            [op("TOFFOLI", 2, 0, 1), CircuitOp(random_gate(2, 4), (2,)), op("CZ", 1, 2)],
            (2, 2, 2),
        )
        inv = invert_circuit(c)
        for _ in range(20):
            s = random_state((2, 2, 2), rng)
            back = apply_circuit(apply_circuit(s, c), inv)
            np.testing.assert_allclose(back.amps, s.amps, atol=1e-12)


def test_haar_unitary_seeded():
    u1 = haar_unitary(6, np.random.default_rng(99))
    u2 = haar_unitary(6, np.random.default_rng(99))
    np.testing.assert_array_equal(u1, u2)
    np.testing.assert_allclose(u1.conj().T @ u1, np.eye(6), atol=1e-12)


def test_haar_unitary_stack_is_one_per_generator():
    stack = haar_unitary(6, [np.random.default_rng(s) for s in (99, 5, 99)])
    assert stack.shape == (3, 6, 6)
    for u, seed in zip(stack, (99, 5, 99)):
        np.testing.assert_array_equal(u, haar_unitary(6, np.random.default_rng(seed)))


def test_circuit_matrix_matches_kron():
    c = Circuit([op("CNOT", 0, 1)], (2, 2))
    np.testing.assert_allclose(circuit_matrix(c), CNOT_MATRIX, atol=1e-15)
    two_layer = Circuit([op("X", 1), op("H", 1)], (2, 2))
    h, x = standard_gate("H").matrix, standard_gate("X").matrix
    np.testing.assert_allclose(
        circuit_matrix(two_layer), np.kron(np.eye(2), x @ h), atol=1e-15
    )


def test_custom_gate_on_qudit():
    shift = custom_gate(np.roll(np.eye(3), 1, axis=0))
    c = Circuit([CircuitOp(shift, (0,))], (3,))
    out = apply_circuit(PureState((3,), [0, 0, 1]), c)
    assert out.amps[0] == 1.0


def test_arity_is_read_off_the_matrix():
    kinds = ("H", "X", "Y", "Z", "CNOT", "CZ", "TOFFOLI")
    assert [standard_gate(k).arity for k in kinds] == [1, 1, 1, 1, 2, 2, 3]
    assert standard_gate("TOFFOLI").dagger().arity == 3
    assert custom_gate(np.roll(np.eye(3), 1, axis=0)).arity == 1  # a qudit gate
    with pytest.raises(TypeError):
        Gate("CUSTOM", np.eye(4), 2)


def test_sitedims_reuse_in_circuit():
    dims = SiteDims((2, 2))
    c = Circuit([op("CZ", 0, 1)], dims)
    assert c.dims is dims
