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
    tensor_product,
)

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
    assert PureState.basis_state(d, 0).tensor.shape == (2, 2)


@pytest.mark.parametrize("dims", [(2,), (3,), (2, 2), (2, 3), (2, 2, 2), (3, 2, 4)])
def test_index_convention_exhaustive(dims):
    # leftmost site is the most significant mixed-radix digit; checked by
    # enumerating every label tuple of every register up to three sites
    sd = SiteDims(dims)
    expected = 0
    for labels in itertools.product(*(range(d) for d in dims)):
        assert sd.index_of(labels) == expected
        state = PureState.basis_state(sd, labels)
        assert state.amps[expected] == 1.0
        expected += 1
    assert expected == sd.total


def test_index_out_of_range_errors():
    sd = SiteDims((2, 3))
    with pytest.raises(ValueError):
        sd.index_of((0, 3))
    with pytest.raises(ValueError):
        sd.index_of((0, 1, 0))


def test_pure_state_norm_enforced():
    with pytest.raises(ValueError):
        PureState((2,), [1.0, 1.0])
    with pytest.raises(ValueError):
        PureState((2,), [1.0])  # wrong length
    s = PureState.from_unnormalized((2,), [1.0, 1.0])
    np.testing.assert_allclose(s.amps, [1 / math.sqrt(2)] * 2)
    with pytest.raises(ValueError):
        PureState.from_unnormalized((2,), [0.0, 0.0])


def test_pure_state_amps_are_readonly():
    s = PureState.basis_state((2, 2), 0)
    with pytest.raises(ValueError):
        s.amps[0] = 0.0


def test_random_state_is_normalized_and_seeded():
    for _ in range(20):
        s = PureState.random((2, 2, 2), RNG)
        assert abs(np.linalg.norm(s.amps) - 1.0) <= 1e-12
    a = PureState.random((2, 2), np.random.default_rng(5))
    b = PureState.random((2, 2), np.random.default_rng(5))
    np.testing.assert_array_equal(a.amps, b.amps)


def test_tensor_product_basis():
    zero = PureState.basis_state((2,), 0)
    one = PureState.basis_state((2,), 1)
    joint = tensor_product(zero, one)
    assert joint.dims == (2, 2)
    np.testing.assert_array_equal(joint.amps, [0, 1, 0, 0])


def test_tensor_product_of_two_ghz_blocks():
    ghz = PureState.from_unnormalized((2, 2, 2), np.eye(8)[0] + np.eye(8)[7])
    joint = tensor_product(ghz, ghz)
    expected = np.zeros(64)
    expected[[0, 7, 56, 63]] = 0.5
    np.testing.assert_allclose(joint.amps, expected, atol=1e-15)


def test_tensor_product_preserves_norm():
    for _ in range(10):
        a = PureState.random((2, 3), RNG)
        b = PureState.random((2, 2), RNG)
        assert abs(np.linalg.norm(tensor_product(a, b).amps) - 1.0) <= 1e-12


def test_apply_identity_leaves_state_unchanged():
    s = PureState.random((2, 2, 2), RNG)
    out = apply_local_operator(s, np.eye(2), (1,))
    np.testing.assert_array_equal(out.amps, s.amps)


def test_apply_x_flips_first_site():
    x = np.array([[0, 1], [1, 0]])
    s = PureState.basis_state((2, 2, 2), (0, 0, 0))
    out = apply_local_operator(s, x, (0,))
    assert out.amps[4] == 1.0


def test_apply_cnot_entangles():
    cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    plus0 = PureState.from_unnormalized((2, 2), [1, 0, 1, 0])
    out = apply_local_operator(plus0, cnot, (0, 1))
    np.testing.assert_allclose(out.amps, np.array([1, 0, 0, 1]) / math.sqrt(2))


def test_apply_local_operator_validates():
    s = PureState.basis_state((2, 2), 0)
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
    s = PureState.basis_state((2, 3, 2), (1, 0, 1))
    out = apply_local_operator(s, shift, (1,))
    assert out.amps[SiteDims((2, 3, 2)).index_of((1, 1, 1))] == 1.0


def test_partial_trace_product_state():
    s = PureState.basis_state((2, 2), (0, 1))
    rho = partial_trace(s, (0,))
    np.testing.assert_allclose(rho.matrix, [[1, 0], [0, 0]], atol=1e-15)


def test_partial_trace_bell_marginal():
    bell = PureState.from_unnormalized((2, 2), [1, 0, 0, 1])
    rho = partial_trace(bell, (0,))
    np.testing.assert_allclose(rho.matrix, np.eye(2) / 2, atol=1e-15)


def test_partial_trace_keep_all_is_projector():
    s = PureState.random((2, 3, 2), RNG)
    rho = partial_trace(s, (0, 1, 2))
    np.testing.assert_allclose(rho.matrix, np.outer(s.amps, s.amps.conj()), atol=1e-12)


def test_partial_trace_respects_keep_order():
    s = PureState.random((2, 3), RNG)
    swapped = partial_trace(s, (1, 0))
    direct = partial_trace(s, (0, 1)).matrix.reshape(2, 3, 2, 3).transpose(1, 0, 3, 2)
    np.testing.assert_allclose(swapped.matrix, direct.reshape(6, 6), atol=1e-12)


def test_tensor_then_trace_roundtrip():
    for _ in range(5):
        a = PureState.random((2, 2), RNG)
        b = PureState.random((3,), RNG)
        rho = partial_trace(tensor_product(a, b), (0, 1))
        np.testing.assert_allclose(rho.matrix, np.outer(a.amps, a.amps.conj()), atol=1e-12)


def test_partial_trace_of_density_matrix():
    # only pure states are traced; reduced states are never traced again
    bell = PureState.from_unnormalized((2, 2), [1, 0, 0, 1])
    with pytest.raises(TypeError):
        partial_trace(partial_trace(bell, (0, 1)), (1,))


def test_partial_trace_validates():
    s = PureState.basis_state((2, 2), 0)
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
    pure = partial_trace(PureState.basis_state((2, 2), 3), (0, 1))
    assert abs(pure.purity() - 1.0) <= 1e-12


def test_fidelity_with_pure():
    psi = PureState.random((2, 2), RNG)
    rho = partial_trace(psi, (0, 1))
    assert abs(fidelity_with_pure(rho, psi) - 1.0) <= 1e-12
    zero = PureState.basis_state((2,), 0)
    one = PureState.basis_state((2,), 1)
    assert fidelity_with_pure(partial_trace(zero, (0,)), one) == 0.0
    with pytest.raises(ValueError):
        fidelity_with_pure(partial_trace(zero, (0,)), PureState.basis_state((3,), 0))


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
    r = MessageState.random(2, np.random.default_rng(9))
    assert abs(np.linalg.norm(r.amps) - 1.0) <= 1e-12


def test_a_message_is_the_pure_state_of_its_qubits():
    m = MessageState.random(2, np.random.default_rng(3))
    assert isinstance(m, PureState)
    assert m.dims == SiteDims.qubits(2) and m.n == 2
    rho = partial_trace(tensor_product(m, PureState.basis_state((3,), 1)), (0, 1))
    assert abs(fidelity_with_pure(rho, m) - 1.0) <= 1e-12


def test_the_register_builders_give_a_message_of_that_register():
    m = MessageState.basis_state((2, 2), 3)
    assert type(m) is MessageState and m.n == 2
    assert np.array_equal(m.amps, MessageState.basis(2, 3).amps)
    u = MessageState.from_unnormalized(SiteDims.qubits(3), np.ones(8))
    assert type(u) is MessageState and u.n == 3
    np.testing.assert_allclose(u.amps, np.ones(8) / math.sqrt(8), atol=1e-15)
    for build in (lambda: MessageState.basis_state((2, 3), 0),
                  lambda: MessageState.from_unnormalized((3,), np.ones(3))):
        with pytest.raises(ValueError, match="holds qubits only"):
            build()


def test_orthonormality_deviation_of_a_stack_is_its_worst_matrix():
    rng = np.random.default_rng(5)
    stack = np.linalg.qr(rng.standard_normal((4, 6, 2)))[0]
    stack[2] *= 1.0 + 1e-6
    assert orthonormality_deviation(stack) == max(orthonormality_deviation(m) for m in stack)
    assert orthonormality_deviation(stack[:2]) <= 1e-14
    stack[3, 0, 1] = np.nan
    assert math.isnan(orthonormality_deviation(stack))


def test_random_message_keeps_its_draws_for_a_seed():
    # the amplitudes MessageState.random(3, rng) drew before it checked its count
    m = MessageState.random(3, np.random.default_rng(2024))
    assert type(m) is MessageState and m.n == 3
    assert m.amps.tolist() == [
        (0.24359865402029116+0.42861465035154794j), (0.3887513628403209+0.17777444469770423j),
        (0.2715045610528482+0.15147351413002447j), (-0.23041613084543186-0.17315254078236245j),
        (-0.32976815083474703-0.26227008403596946j), (0.015909833587945774+0.3514572452666107j),
        (0.203938885535637+0.011580809590035839j), (0.12055828364860498+0.19214063025868297j),
    ]
    assert MessageState.random(np.int64(2), np.random.default_rng(1)).n == 2


@pytest.mark.parametrize("n", [(2, 2), SiteDims.qubits(2), 2.0, "2", True, 0, -1, None])
def test_random_message_refuses_anything_but_a_qubit_count(n):
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match=r"MessageState.random\(n, rng\) takes a qubit count n"):
        MessageState.random(n, rng)
    assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state  # no draw
