"""share-demo's scorer: the restored secret read off the Gram matrix of its
ancilla-side rows (``states.gram_scores``), against the dense density matrix
of the message sites, psi psi^H, as the oracle."""

import json
import math

import numpy as np
import pytest

from erasurelab import cli, states, verify
from erasurelab.gates import Circuit, invert_circuit
from erasurelab.states import (DensityMatrix, MessageState, fidelity_with_pure, gram_scores,
                               partial_trace)

TOLERANCE = 1e-10


def dense_scores(branches, message):
    """The dense route: DensityMatrix(psi psi^H) with psi = branches^T, then
    ``fidelity_with_pure`` and ``purity``."""
    psi = branches.T
    rho = DensityMatrix(message.dims, psi @ psi.conj().T)
    return fidelity_with_pure(rho, message), rho.purity()


def run_share(capsys, monkeypatch, *argv):
    """Run share-demo, keeping what it passes to the scorer."""
    seen = []

    def keep(branches, target):
        seen.append((branches.copy(), target))
        return gram_scores(branches, target)

    monkeypatch.setattr(cli, "gram_scores", keep)
    code = cli.main(["share-demo", *argv])
    out, err = capsys.readouterr()
    return code, out, err, seen


@pytest.mark.parametrize("n", range(1, 9))
def test_matches_the_dense_density_matrix(capsys, monkeypatch, n):
    for seed in range(1, 11):
        code, out, _, seen = run_share(capsys, monkeypatch, "--code", f"hiding:{n}",
                                       "--seed", str(seed))
        (branches, message), = seen
        report = json.loads(out)
        want_fid, want_purity = dense_scores(branches, message)
        fid, purity = gram_scores(branches, message)
        assert abs(fid - want_fid) <= 1e-15 and abs(purity - want_purity) <= 1e-15
        assert [report["trials"][0]["fidelity"], report["trials"][0]["purity"]] == [fid, purity]
        row = report["checks"][-1]
        assert row["name"] == "joint_reconstruction"
        assert row["pass"] == verify.CheckResult.within("", 1 - want_fid, TOLERANCE).passed
        assert code == 0 and len(branches) <= 2


def test_an_inverse_with_a_dropped_cnot_gives_the_dense_values(capsys, monkeypatch):
    def broken(circuit):
        ops = invert_circuit(circuit).ops
        return Circuit(ops[:1] + ops[2:], circuit.dims)  # CNOT(1, 9): the copy of bit 1

    monkeypatch.setattr(cli, "invert_circuit", broken)
    code, out, err, seen = run_share(capsys, monkeypatch, "--code", "hiding:8", "--seed", "3")
    (branches, message), = seen
    assert len(branches) == 4  # a correct inverse leaves at most 2
    want_fid, want_purity = dense_scores(branches, message)
    fid, purity = gram_scores(branches, message)
    assert abs(fid - want_fid) <= 1e-15 and abs(purity - want_purity) <= 1e-15
    assert purity < 1 - 1e-6
    report = json.loads(out)
    row = report["checks"][-1]
    assert verify.CheckResult.within("", 1 - want_fid, TOLERANCE).passed is False
    assert row["pass"] is False and code == 1 and err == ""


def test_equal_weight_rows_read_purity_one_half():
    branches = np.eye(2, dtype=np.complex128) / math.sqrt(2)
    message = MessageState.basis(1, 0)
    assert gram_scores(branches, message) == pytest.approx((0.5, 0.5), abs=1e-15)
    assert dense_scores(branches, message) == pytest.approx((0.5, 0.5), abs=1e-15)


def test_a_traced_register_gives_the_partial_trace_scores():
    # the kept site's rows of a random two-qubit state, one per state of the traced site
    rng = np.random.default_rng(5)
    amps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    state = states.PureState((2, 2), amps / np.linalg.norm(amps))
    target = MessageState.basis(1, 1)
    rho = partial_trace(state, (0,))
    branches = np.ascontiguousarray(state.tensor.T)
    got = gram_scores(branches, target)
    assert got == pytest.approx((fidelity_with_pure(rho, target), rho.purity()), abs=1e-15)


@pytest.mark.parametrize("branches, message", [
    (np.array([[np.nan, 0]]), "matrix is not Hermitian within tolerance"),
    (np.array([[1.0, 0], [0, 1.0]]), "trace (2+0j) differs from 1 by more than 1e-12"),
    (np.zeros((0, 2)), "trace 0j differs from 1 by more than 1e-12"),
])
def test_a_failed_check_is_the_density_matrix_error(branches, message):
    with pytest.raises(ValueError) as exc:
        gram_scores(branches.astype(np.complex128), MessageState.basis(1, 0))
    assert str(exc.value) == message


def test_a_nan_in_the_inverse_entries_is_one_error_line(capsys, monkeypatch):
    real, calls = cli.circuit_entries, []

    def damaged(*args):
        calls.append(args)
        idx, val = real(*args)
        if len(calls) == 2:
            val = val.copy()
            val[0] = np.nan
        return idx, val

    monkeypatch.setattr(cli, "circuit_entries", damaged)
    code = cli.main(["share-demo", "--code", "hiding:4"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == "error: matrix is not Hermitian within tolerance\n"


def test_eigvalsh_never_sees_a_matrix_wider_than_the_held_rows(capsys, monkeypatch):
    real, shapes = np.linalg.eigvalsh, []

    def record(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", record)
    code, _, _, seen = run_share(capsys, monkeypatch, "--code", "hiding:8")
    (branches, _), = seen
    assert code == 0 and shapes
    assert max(shape[-1] for shape in shapes) <= len(branches) == 2


def test_the_density_checks_have_one_definition():
    assert verify.check_density_stack is states.check_density_stack
    with pytest.raises(ValueError, match=r"^site 3: trace \(2\+0j\) differs from 1 by more"):
        verify.check_density_stack(np.stack([np.eye(2) / 2] * 3 + [np.eye(2)]), "site")
    for matrix, message in (([[1, 0], [0, 0.5]], r"^trace \(1\.5\+0j\) differs from 1 by more"),
                            ([[0.5, 1], [0, 0.5]], r"^matrix is not Hermitian within tolerance$"),
                            ([[1.5, 0], [0, -0.5]], r"^matrix has an eigenvalue below the PSD")):
        with pytest.raises(ValueError, match=message):
            DensityMatrix((2,), matrix)
