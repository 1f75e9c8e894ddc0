"""The sparse circuit runner against the dense contraction it replaces: every
built-in circuit, recover's W, the dense fallback, and share-demo's
single-site marginals taken from entries."""

import numpy as np
import pytest

from erasurelab import gates, verify
from erasurelab.codes import (decoder_for, hiding_code, hiding_encoder, hiding_recovery,
                              recovery_for, six_qubit_logical_basis, w_code)
from erasurelab.gates import (HADAMARD, Circuit, CircuitOp, Gate, circuit_entries,
                              circuit_rows, custom_gate, haar_unitary, invert_circuit, op)
from erasurelab.states import MessageState, PureState, partial_trace
from erasurelab.verify import CheckResult, entry_marginals

from conftest import random_state
from test_verify import marginal_deviations, stacked_w

SWAP = np.eye(4)[[0, 2, 1, 3]]


def entries(amps):
    idx = np.flatnonzero(amps)
    return idx, amps.reshape(-1)[idx]


def scattered(idx, val, shape):
    out = np.zeros(int(np.prod(shape)), dtype=np.complex128)
    out[idx] = val
    return out.reshape(shape)


def dense_rows(code, rows):
    """Rows of ``code.basis`` without the whole dense basis (256 MiB at hiding:8)."""
    out = np.zeros((len(rows), 2**code.n_physical), dtype=np.complex128)
    out[:, code.support] = code.rows[rows]
    return out


def spot_rows(code):
    """Every row up to hiding:6; a spread of rows above, each row being
    independent of the others in both the runner and the dense contraction."""
    n_rows = len(code.message_labels)
    return np.arange(n_rows) if code.n_physical <= 12 else np.r_[0:n_rows:16, n_rows - 1]


@pytest.fixture
def dense_calls(monkeypatch):
    """Every call the runner makes to the dense contraction."""
    calls = []
    real = gates.circuit_rows

    def counted(amps, dims, circuit):
        calls.append(circuit)
        return real(amps, dims, circuit)

    monkeypatch.setattr(gates, "circuit_rows", counted)
    return calls


def builtin_circuits():
    """(name, circuit, code on its register) for every circuit the library builds."""
    six = six_qubit_logical_basis()
    out = [(f"hiding_encoder({n})", hiding_encoder(n), hiding_code(n)) for n in range(2, 9)]
    out.append(("hiding:1 encoder", hiding_code(1).encoder, hiding_code(1)))
    out += [(f"recovery_for({p})", recovery_for(p).circuit, six) for p in range(6)]
    out += [(f"decoder_for({p})", decoder_for(p), six) for p in range(6)]
    out += [(f"hiding_recovery({n}, {p})", hiding_recovery(n, p).circuit, hiding_code(n))
            for n in range(2, 8) for p in range(2 * n)]
    return out


BUILTIN = builtin_circuits()


class TestBuiltinCircuits:
    @pytest.mark.parametrize("name, circuit, code", BUILTIN, ids=[b[0] for b in BUILTIN])
    def test_runner_is_the_dense_contraction(self, dense_calls, name, circuit, code):
        rng = np.random.default_rng(len(circuit.ops))
        shape = (2, code.dims.total)
        z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        inputs = [dense_rows(code, spot_rows(code)), z / np.linalg.norm(z, axis=1, keepdims=True)]
        for c in (circuit, invert_circuit(circuit)):
            for amps in inputs:
                got = scattered(*circuit_entries(*entries(amps), code.dims, c), amps.shape)
                assert dense_calls == []  # every op ran on the entries
                want = circuit_rows(amps, code.dims, c)
                assert np.max(np.abs(got - want)) <= 1e-15

    def test_encoding_a_message_gives_the_code_state(self):
        code = hiding_code(8)  # no dense basis: rows scattered one at a time
        for m in (0, 1, 77, 255):
            idx, val = circuit_entries([m << 8], [1.0], code.dims, code.encoder)
            assert np.array_equal(idx, code.support[np.flatnonzero(code.rows[m])])
            assert np.max(np.abs(val - code.rows[m][code.rows[m] != 0])) <= 1e-15


def dense_w(code, plan, rows):
    """W = plan∘basis on ``rows``, densely, its columns in (output register,
    other intact sites, damaged site) order."""
    n, pos, out = code.n_physical, plan.bad_position, plan.output_register
    w = circuit_rows(dense_rows(code, rows), code.dims, plan.circuit)
    order = [*out, *[s for s in range(n) if s != pos and s not in out], pos]
    return w.reshape((len(rows),) + (2,) * n).transpose([0, *(1 + s for s in order)]).reshape(
        len(rows), -1)


def recover_plans():
    six = six_qubit_logical_basis()
    out = [("six", six, recovery_for(p), True) for p in range(6)]
    out += [(f"hiding:{n}", hiding_code(n), hiding_recovery(n, p), True)
            for n in range(2, 8) for p in range(2 * n)]
    w5 = w_code()
    out += [("w5", w5, verify.synthesize_recovery(w5, p), False) for p in range(5)]
    return out


PLANS = recover_plans()


class TestRecoveryMap:
    @pytest.mark.parametrize("name, code, plan, sparse", PLANS,
                             ids=[f"{p[0]}-pos{p[2].bad_position}" for p in PLANS])
    def test_w_is_the_dense_plan_on_the_basis(self, dense_calls, name, code, plan, sparse):
        w = stacked_w(code, plan)
        assert len(dense_calls) == (0 if sparse else 1)  # w5's decoder is one CUSTOM gate
        rows = spot_rows(code)
        assert np.max(np.abs(w[rows] - dense_w(code, plan, rows))) <= 1e-15
        if len(rows) < len(w):  # the rows not compared hold the plan's image all the same
            assert np.count_nonzero(w) == 4 * len(w)

    @pytest.mark.parametrize("n", [2, 3])
    def test_synthesized_hiding_decoders_take_the_dense_path(self, dense_calls, n):
        code = hiding_code(n)
        for pos in range(2 * n):
            plan = verify.synthesize_recovery(code, pos)
            w = stacked_w(code, plan)
            assert np.max(np.abs(w - dense_w(code, plan, spot_rows(code)))) <= 1e-15
        assert len(dense_calls) == 2 * n


class TestDispatch:
    @pytest.mark.parametrize("circuit, dims", [
        (Circuit([op("H", 0), CircuitOp(Gate("CNOT", SWAP), (0, 1))], (2, 2)), (2, 2)),
        (Circuit([CircuitOp(Gate("H", -HADAMARD), (1,)), op("CNOT", 0, 1)], (2, 2)), (2, 2)),
        (Circuit([op("H", 0), CircuitOp(custom_gate(haar_unitary(4, np.random.default_rng(3))),
                                        (1, 0))], (2, 2)), (2, 2)),
        (Circuit([op("CNOT", 0, 1), op("H", 0)], (2, 2, 3)), (2, 2, 3)),  # a qutrit site
        (Circuit([op("CNOT", 0, 1), op("H", 0)], (2, 2, 2)), (2, 2, 3)),  # a promoted one
        (Circuit([op("Y", 1), op("H", 0)], (2, 2)), (2, 2)),  # a kind the runner leaves alone
    ], ids=["CNOT-labelled SWAP", "H-labelled -H", "CUSTOM", "qutrit register",
            "promoted site", "Y"])
    def test_anything_else_gets_exactly_the_dense_result(self, dense_calls, circuit, dims):
        rng = np.random.default_rng(8)
        amps = np.stack([random_state(dims, rng).amps for _ in range(3)])
        amps[1, ::2] = 0  # entries need not fill a row
        got = scattered(*circuit_entries(*entries(amps), dims, circuit), amps.shape)
        assert len(dense_calls) == 1
        assert np.array_equal(got, circuit_rows(amps, dims, circuit))

    def test_inverted_standard_gates_stay_on_the_entries(self, dense_calls):
        circuit = Circuit([op("TOFFOLI", 0, 2, 1), op("CZ", 1, 2), op("X", 0), op("Z", 2),
                           op("H", 1), op("CNOT", 2, 0)], (2, 2, 2))
        for c in (circuit, invert_circuit(circuit)):
            amps = random_state((2, 2, 2), np.random.default_rng(1)).amps
            got = scattered(*circuit_entries(*entries(amps), (2, 2, 2), c), amps.shape)
            assert np.max(np.abs(got - circuit_rows(amps, (2, 2, 2), c))) <= 1e-15
        assert dense_calls == []

    def test_a_circuit_that_does_not_fit_is_refused(self):
        with pytest.raises(ValueError, match="does not fit"):
            circuit_entries([0], [1.0], (2,), Circuit([op("CNOT", 0, 1)], (2, 2)))

    def test_keys_ascend_and_only_exact_zeros_are_dropped(self):
        # H (|0> + |1>) / 2: h / 2 is exact, so the |1> amplitude cancels to exactly 0
        idx, val = circuit_entries([0, 1], [0.5, 0.5], (2,), Circuit([op("H", 0)], (2,)))
        assert idx.tolist() == [0] and val.tolist() == [HADAMARD[0, 0]]
        idx, val = circuit_entries([3, 0, 6], [np.nan, 0.5, 0.5], (2, 2),
                                   Circuit([op("CNOT", 0, 1)], (2, 2)))
        assert idx.tolist() == [0, 2, 7] and np.isnan(val[1])  # row 1 holds keys 4..7
        idx, val = circuit_entries([], [], (2, 2), Circuit([op("H", 0)], (2, 2)))
        assert idx.size == val.size == 0


def random_sparse_state(n, rng, size):
    idx = np.sort(rng.choice(2**n, size=size, replace=False))
    val = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return idx, val / np.linalg.norm(val)


class TestEntryMarginals:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_hiding_messages_match_the_dense_marginals(self, n):
        code = hiding_code(n)
        rng = np.random.default_rng(n)
        for _ in range(3):
            message = MessageState.basis(1, int(rng.integers(2))) if n == 1 else \
                code.random_message(rng)
            state = code.encode(message)
            deviations = np.abs(entry_marginals(*entries(state.amps), 2 * n) - np.eye(2) / 2)
            got = deviations.max(axis=(1, 2))
            assert np.max(np.abs(got - marginal_deviations(state))) <= 1e-15

    @pytest.mark.parametrize("n, size", [(1, 1), (2, 3), (3, 8), (5, 7), (6, 40), (9, 100)])
    def test_random_sparse_states_match_the_partial_traces(self, n, size):
        rng = np.random.default_rng([n, size])
        far = 0.0
        for _ in range(5):
            idx, val = random_sparse_state(n, rng, size)
            state = PureState((2,) * n, scattered(idx, val, 2**n))
            rho = entry_marginals(idx, val, n)
            for s in range(n):
                assert np.max(np.abs(rho[s] - partial_trace(state, (s,)).matrix)) <= 1e-15
            got = np.abs(rho - np.eye(2) / 2).max(axis=(1, 2))
            assert np.max(np.abs(got - marginal_deviations(state))) <= 1e-15
            far = max(far, got.max())
        assert far > 0.05  # these marginals are not I/2

    def test_a_nan_entry_gives_nan_and_fails_its_row(self):
        idx, val = random_sparse_state(4, np.random.default_rng(2), 6)
        val[3] = np.nan
        deviations = np.abs(entry_marginals(idx, val, 4) - np.eye(2) / 2).max(axis=(1, 2))
        assert np.isnan(deviations).all()
        assert not any(CheckResult.within(f"marginal_site{s}", d, 1e-10).passed
                       for s, d in enumerate(deviations))
        with pytest.raises(ValueError, match="site 0: matrix is not Hermitian"):
            verify.check_density_stack(entry_marginals(idx, val, 4), "site")
