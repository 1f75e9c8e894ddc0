import itertools
import math

import numpy as np
import pytest

from erasurelab.states import (
    DensityMatrix,
    MessageState,
    PureState,
    SiteDims,
    apply_local_operator,
    fidelity_with_pure,
    orthonormality_deviation,
    partial_trace,
)

from conftest import random_state

RNG = np.random.default_rng(20240817)


def test_sitedims_rejects_small_and_oversized():
    with pytest.raises(ValueError, match="at least one site"):
        SiteDims(())
    with pytest.raises(ValueError, match=">= 2"):
        SiteDims((2, 1, 2))
    with pytest.raises(ValueError, match="exceeds the cap"):
        SiteDims((2,) * 21)  # 2^21 over the default cap
    SiteDims((2,) * 20)  # exactly at the cap is fine


def test_sitedims_equality_and_helpers():
    d = SiteDims((2, 3, 2))
    assert d == SiteDims((2, 3, 2))
    assert d == (2, 3, 2)
    assert d != (2, 3)
    assert d.total == 12
    assert len(d) == 3
    assert d[1] == 3
    assert d.replaced(1, 4) == (2, 4, 2)
    assert d.appended(5) == (2, 3, 2, 5)
    assert hash(d) == hash(SiteDims((2, 3, 2)))


def test_sitedims_is_a_checked_tuple():
    d = SiteDims.qubits(2)
    assert isinstance(d, tuple)
    assert d == (2, 2) and hash(d) == hash((2, 2))
    assert repr(d) == "SiteDims((2, 2))"
    assert PureState(d, np.eye(4)[0]).tensor.shape == (2, 2)


MIXED = (2, 3, 2)


def mixed_basis_state(labels) -> PureState:
    return PureState(MIXED, np.eye(12)[np.ravel_multi_index(labels, MIXED)])


@pytest.mark.parametrize("dims", [(2,), (3,), (2, 2), (2, 3), (2, 2, 2), (3, 2, 4), MIXED])
def test_index_convention_exhaustive(dims):
    # leftmost site is the most significant mixed-radix digit; checked by
    # enumerating every label tuple of every register up to three sites and
    # reading each site, and the last and first sites kept in that order, off
    # the partial traces of the basis state at the tuple's index
    for index, labels in enumerate(itertools.product(*(range(d) for d in dims))):
        assert np.ravel_multi_index(labels, dims) == index
        state = PureState(dims, np.eye(math.prod(dims))[index])
        for s, b in enumerate(labels):
            assert partial_trace(state, (s,)).matrix[b, b] == 1.0
        if len(dims) > 1:
            pair = np.ravel_multi_index((labels[-1], labels[0]), (dims[-1], dims[0]))
            assert partial_trace(state, (len(dims) - 1, 0)).matrix[pair, pair] == 1.0


@pytest.mark.parametrize("labels", list(itertools.product(*(range(d) for d in MIXED))))
def test_apply_local_operator_acts_on_the_mixed_radix_digits_of_its_targets(labels):
    # the operator's index runs over its targets, the first target most significant
    u = np.linalg.qr(np.random.default_rng(8).standard_normal((6, 6)))[0]
    out = apply_local_operator(mixed_basis_state(labels), u, (2, 1)).amps
    a, b, c = labels
    col = np.ravel_multi_index((c, b), (2, 3))
    for b2, c2 in itertools.product(range(3), range(2)):
        got = out[np.ravel_multi_index((a, b2, c2), MIXED)]
        assert got == u[np.ravel_multi_index((c2, b2), (2, 3)), col]


def test_pure_state_norm_enforced():
    with pytest.raises(ValueError):
        PureState((2,), [1.0, 1.0])
    with pytest.raises(ValueError):
        PureState((2,), [1.0])  # wrong length
    with pytest.raises(ValueError):
        PureState((2,), [0.0, 0.0])
    s = PureState((2,), np.array([1.0, 1.0]) / math.sqrt(2))
    np.testing.assert_allclose(s.amps, [1 / math.sqrt(2)] * 2)


def test_pure_state_amps_are_readonly():
    s = PureState((2, 2), np.eye(4)[0])
    with pytest.raises(ValueError):
        s.amps[0] = 0.0


def test_apply_identity_leaves_state_unchanged():
    s = random_state((2, 2, 2), RNG)
    out = apply_local_operator(s, np.eye(2), (1,))
    np.testing.assert_array_equal(out.amps, s.amps)


def test_apply_x_flips_first_site():
    x = np.array([[0, 1], [1, 0]])
    s = PureState((2, 2, 2), np.eye(8)[0])
    out = apply_local_operator(s, x, (0,))
    assert out.amps[4] == 1.0


def test_apply_cnot_entangles():
    cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    plus0 = PureState((2, 2), np.array([1, 0, 1, 0]) / math.sqrt(2))
    out = apply_local_operator(plus0, cnot, (0, 1))
    np.testing.assert_allclose(out.amps, np.array([1, 0, 0, 1]) / math.sqrt(2))


def test_apply_local_operator_validates():
    s = PureState((2, 2), np.eye(4)[0])
    with pytest.raises(ValueError):
        apply_local_operator(s, np.eye(2), ())
    with pytest.raises(ValueError):
        apply_local_operator(s, np.eye(4), (0, 0))
    with pytest.raises(ValueError):
        apply_local_operator(s, np.eye(2), (2,))
    with pytest.raises(ValueError):
        apply_local_operator(s, np.eye(4), (0,))  # shape mismatch
    # refused even though it keeps this particular state normalized
    with pytest.raises(ValueError, match="not unitary"):
        apply_local_operator(s, np.diag([1.0, 2.0]), (0,))


def test_apply_on_middle_site_of_mixed_radix_register():
    # site 1 has dimension 3; a cyclic shift there must permute blocks of 2
    shift = np.roll(np.eye(3), 1, axis=0)
    s = mixed_basis_state((1, 0, 1))
    out = apply_local_operator(s, shift, (1,))
    assert out.amps[np.ravel_multi_index((1, 1, 1), MIXED)] == 1.0


def test_partial_trace_product_state():
    s = PureState((2, 2), np.eye(4)[0b01])
    rho = partial_trace(s, (0,))
    np.testing.assert_allclose(rho.matrix, [[1, 0], [0, 0]], atol=1e-15)


def test_partial_trace_bell_marginal():
    bell = PureState((2, 2), np.array([1, 0, 0, 1]) / math.sqrt(2))
    rho = partial_trace(bell, (0,))
    np.testing.assert_allclose(rho.matrix, np.eye(2) / 2, atol=1e-15)


def test_partial_trace_keep_all_is_projector():
    s = random_state((2, 3, 2), RNG)
    rho = partial_trace(s, (0, 1, 2))
    np.testing.assert_allclose(rho.matrix, np.outer(s.amps, s.amps.conj()), atol=1e-12)


def test_partial_trace_respects_keep_order():
    s = random_state((2, 3), RNG)
    swapped = partial_trace(s, (1, 0))
    direct = partial_trace(s, (0, 1)).matrix.reshape(2, 3, 2, 3).transpose(1, 0, 3, 2)
    np.testing.assert_allclose(swapped.matrix, direct.reshape(6, 6), atol=1e-12)


def test_tensor_then_trace_roundtrip():
    for _ in range(5):
        a = random_state((2, 2), RNG)
        b = random_state((3,), RNG)
        rho = partial_trace(PureState((2, 2, 3), np.kron(a.amps, b.amps)), (0, 1))
        np.testing.assert_allclose(rho.matrix, np.outer(a.amps, a.amps.conj()), atol=1e-12)


def test_partial_trace_of_density_matrix():
    # only pure states are traced; reduced states are never traced again
    bell = PureState((2, 2), np.array([1, 0, 0, 1]) / math.sqrt(2))
    with pytest.raises(TypeError):
        partial_trace(partial_trace(bell, (0, 1)), (1,))


def test_partial_trace_validates():
    s = PureState((2, 2), np.eye(4)[0])
    with pytest.raises(ValueError):
        partial_trace(s, ())
    with pytest.raises(ValueError):
        partial_trace(s, (0, 0))
    with pytest.raises(ValueError):
        partial_trace(s, (2,))
    with pytest.raises(TypeError):
        partial_trace(np.eye(4) / 4, (0,))


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix((2,), [[1, 1], [0, 0]])  # not Hermitian
    with pytest.raises(ValueError):
        DensityMatrix((2,), np.eye(2))  # trace 2
    bad = np.diag([1.5, -0.5])
    with pytest.raises(ValueError):
        DensityMatrix((2,), bad)  # negative eigenvalue
    with pytest.raises(ValueError):
        DensityMatrix((2,), np.eye(4) / 4)  # shape mismatch


def test_maximally_mixed_purity():
    rho = DensityMatrix((2, 2), np.eye(4) / 4)
    assert abs(rho.purity() - 0.25) <= 1e-12
    pure = partial_trace(PureState((2, 2), np.eye(4)[3]), (0, 1))
    assert abs(pure.purity() - 1.0) <= 1e-12


def test_fidelity_with_pure():
    psi = random_state((2, 2), RNG)
    rho = partial_trace(psi, (0, 1))
    assert abs(fidelity_with_pure(rho, psi) - 1.0) <= 1e-12
    zero = PureState((2,), [1, 0])
    one = PureState((2,), [0, 1])
    assert fidelity_with_pure(partial_trace(zero, (0,)), one) == 0.0
    with pytest.raises(ValueError):
        fidelity_with_pure(partial_trace(zero, (0,)), PureState((3,), [1, 0, 0]))


def test_message_state():
    m = MessageState.basis(3, 5)
    assert m.n == 3
    assert m.amps[5] == 1.0
    assert m.dims == (2, 2, 2)
    with pytest.raises(ValueError, match="at least one site"):
        MessageState(0, [1.0])
    with pytest.raises(ValueError, match="length 2, register needs 4"):
        MessageState(2, [1.0, 0.0])
    with pytest.raises(ValueError, match="state norm"):
        MessageState(1, [1.0, 1.0])


def test_a_message_is_the_pure_state_of_its_qubits():
    m = MessageState(2, random_state((2, 2), np.random.default_rng(3)).amps)
    assert isinstance(m, PureState)
    assert m.dims == SiteDims.qubits(2) and m.n == 2
    rho = partial_trace(PureState((2, 2, 3), np.kron(m.amps, [0, 1, 0])), (0, 1))
    assert abs(fidelity_with_pure(rho, m) - 1.0) <= 1e-12


def test_orthonormality_deviation_of_a_stack_is_its_worst_matrix():
    rng = np.random.default_rng(5)
    stack = np.linalg.qr(rng.standard_normal((4, 6, 2)))[0]
    stack[2] *= 1.0 + 1e-6
    assert orthonormality_deviation(stack) == max(orthonormality_deviation(m) for m in stack)
    assert orthonormality_deviation(stack[:2]) <= 1e-14
    stack[3, 0, 1] = np.nan
    assert math.isnan(orthonormality_deviation(stack))

