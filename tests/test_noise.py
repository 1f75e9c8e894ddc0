import numpy as np
import pytest

from erasurelab.codes import six_qubit_logical_basis
from erasurelab.gates import PAULI_BY_KIND
from erasurelab.noise import (
    DecoherenceIsometry,
    ErasureEvent,
    apply_erasure,
    decoherence_columns,
    leakage_decoherence,
    pauli_error,
    random_decoherence,
)
from erasurelab.states import PureState, partial_trace

from conftest import random_state


def encoded_zero():
    code = six_qubit_logical_basis()
    return PureState(code.dims, code.basis[0])


def test_pauli_identity_channel_is_a_no_op():
    state = encoded_zero()
    out = apply_erasure(state, ErasureEvent(0, pauli_error("I")))
    assert out.dims == state.dims  # env_dim=1 appends nothing
    np.testing.assert_array_equal(out.amps, state.amps)


def test_bit_flip_moves_support_to_the_flipped_block():
    out = apply_erasure(encoded_zero(), ErasureEvent(0, pauli_error("X")))
    expected = np.zeros(64)
    expected[[0b100000, 0b100111, 0b011000, 0b011111]] = 0.5
    np.testing.assert_allclose(out.amps, expected, atol=1e-15)


def test_phase_flip_negates_the_excited_block():
    out = apply_erasure(encoded_zero(), ErasureEvent(0, pauli_error("Z")))
    expected = np.zeros(64)
    expected[[0b000000, 0b000111]] = 0.5
    expected[[0b111000, 0b111111]] = -0.5
    np.testing.assert_allclose(out.amps, expected, atol=1e-15)


def test_pauli_error_unknown_kind():
    with pytest.raises(ValueError):
        pauli_error("Q")


def test_isometry_constraint_over_many_seeds():
    for seed in range(100):
        ch = random_decoherence(seed)
        v = ch.columns
        np.testing.assert_allclose(v.conj().T @ v, np.eye(2), atol=1e-12)


def test_random_decoherence_is_seeded():
    a = random_decoherence(7, env_dim=3)
    b = random_decoherence(7, env_dim=3)
    np.testing.assert_array_equal(a.columns, b.columns)
    c = random_decoherence(8, env_dim=3)
    assert np.max(np.abs(a.columns - c.columns)) > 1e-3


def test_trivial_environment_degenerates_to_a_unitary():
    ch = random_decoherence(5, env_dim=1)
    assert ch.columns.shape == (2, 2)
    np.testing.assert_allclose(ch.columns.conj().T @ ch.columns, np.eye(2), atol=1e-12)
    # and that unitary expands cleanly in the Pauli basis, c_k = Tr(P_k^dag U) / 2
    paulis = [PAULI_BY_KIND[k] for k in "IXYZ"]
    rebuilt = sum(np.trace(p.conj().T @ ch.columns) / 2 * p for p in paulis)
    np.testing.assert_allclose(rebuilt, ch.columns, atol=1e-12)


def test_apply_erasure_appends_the_environment_site():
    state = encoded_zero()
    out = apply_erasure(state, ErasureEvent(2, random_decoherence(3, env_dim=4)))
    assert out.dims == (2, 2, 2, 2, 2, 2, 4)
    assert abs(np.linalg.norm(out.amps) - 1.0) <= 1e-12
    traced = partial_trace(out, tuple(range(6)))
    assert abs(float(np.real(np.trace(traced.matrix))) - 1.0) <= 1e-12


def test_apply_erasure_position_checks():
    state = encoded_zero()
    with pytest.raises(ValueError):
        apply_erasure(state, ErasureEvent(6, pauli_error("X")))
    damaged = apply_erasure(state, ErasureEvent(1, leakage_decoherence(0, leak_dim=3)))
    with pytest.raises(ValueError, match="already damaged"):
        apply_erasure(damaged, ErasureEvent(1, pauli_error("X")))


def test_erasure_only_disturbs_the_bad_site():
    rng = np.random.default_rng(41)
    state = random_state((2,) * 6, rng)
    out = apply_erasure(state, ErasureEvent(3, random_decoherence(12, env_dim=4)))
    for s in range(6):
        if s == 3:
            continue
        before = partial_trace(state, (s,))
        after = partial_trace(out, (s,))
        np.testing.assert_allclose(after.matrix, before.matrix, atol=1e-12)
    # joint marginal of all intact sites is also untouched
    keep = (0, 1, 2, 4, 5)
    np.testing.assert_allclose(
        partial_trace(out, keep).matrix, partial_trace(state, keep).matrix, atol=1e-12
    )


class TestLeakage:
    def test_zero_weight_matches_plain_decoherence(self):
        leak = leakage_decoherence(21, leak_dim=3, env_dim=4, leak_weight=0.0)
        plain = random_decoherence(21, env_dim=4)
        np.testing.assert_allclose(leak.columns[:8], plain.columns, atol=1e-15)
        assert np.max(np.abs(leak.columns[8:])) == 0.0
        assert leak.qubit_out_dim == 3

    def test_full_leak_images_live_above_the_qubit_levels(self):
        ch = leakage_decoherence(4, leak_dim=3, env_dim=2, leak_weight=1.0)
        assert np.max(np.abs(ch.columns[:4])) == 0.0  # nothing on levels 0,1
        v = ch.columns
        np.testing.assert_allclose(v.conj().T @ v, np.eye(2), atol=1e-12)

    def test_isometry_across_seeds_and_weights(self):
        for seed in range(30):
            ch = leakage_decoherence(seed, leak_dim=4, env_dim=4)
            v = ch.columns
            np.testing.assert_allclose(v.conj().T @ v, np.eye(2), atol=1e-12)

    def test_weight_is_drawn_from_the_seed_when_not_given(self):
        a = leakage_decoherence(33, leak_dim=3, env_dim=4)
        b = leakage_decoherence(33, leak_dim=3, env_dim=4)
        np.testing.assert_array_equal(a.columns, b.columns)

    def test_promotes_the_damaged_site(self):
        out = apply_erasure(encoded_zero(), ErasureEvent(4, leakage_decoherence(2, leak_dim=4)))
        assert out.dims == (2, 2, 2, 2, 4, 2, 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            leakage_decoherence(0, leak_dim=2)
        with pytest.raises(ValueError):
            leakage_decoherence(0, leak_dim=3, leak_weight=1.5)
        with pytest.raises(ValueError):
            leakage_decoherence(0, leak_dim=3, env_dim=0)
        # a single leaked level with a trivial environment cannot host two
        # orthonormal images
        with pytest.raises(ValueError, match="leaked subspace"):
            leakage_decoherence(0, leak_dim=3, env_dim=1, leak_weight=0.5)
        leakage_decoherence(0, leak_dim=3, env_dim=1, leak_weight=0.0)  # fine


def test_decoherence_isometry_validation():
    with pytest.raises(ValueError):
        DecoherenceIsometry(1, 2, np.ones((2, 2)))  # columns not orthonormal
    with pytest.raises(ValueError):
        DecoherenceIsometry(2, 2, np.eye(2))  # shape mismatch
    with pytest.raises(ValueError):
        DecoherenceIsometry(0, 2, np.eye(2))
    with pytest.raises(ValueError):
        DecoherenceIsometry(1, 1, np.eye(2))


SEEDS = [3, 2**62 + 5, 0, 17, 3]


class TestStackedColumns:
    @pytest.mark.parametrize("env_dim", [1, 2, 4])
    def test_random_rows_are_the_per_seed_channels(self, env_dim):
        stack = decoherence_columns(SEEDS, env_dim)
        want = np.stack([random_decoherence(s, env_dim).columns for s in SEEDS])
        assert np.array_equal(stack, want)

    @pytest.mark.parametrize("leak_dim, env_dim, weight", [
        (3, 4, None), (4, 2, None), (4, 2, 0.0), (4, 2, 1.0), (3, 2, 0.3), (3, 1, 0.0),
    ])
    def test_leak_rows_are_the_per_seed_channels(self, leak_dim, env_dim, weight):
        stack = decoherence_columns(SEEDS, env_dim, leak_dim, weight)
        want = np.stack([leakage_decoherence(s, leak_dim, env_dim, weight).columns
                         for s in SEEDS])
        assert np.array_equal(stack, want)

    def test_validation(self):
        with pytest.raises(ValueError, match="environment"):
            decoherence_columns(SEEDS, 0)
        with pytest.raises(ValueError, match="output site"):
            decoherence_columns(SEEDS, 2, 1)
        with pytest.raises(ValueError, match="outside"):
            decoherence_columns(SEEDS, 2, 3, 1.5)
        with pytest.raises(ValueError, match="leaked subspace"):
            decoherence_columns(SEEDS, 1, 3, 0.5)

    def test_a_non_finite_draw_fails_the_isometry_check(self, monkeypatch):
        from erasurelab import noise

        real = noise.haar_unitary

        def with_nan(dim, rngs):
            u = real(dim, rngs).copy()
            u[-1, 0, 0] = np.nan
            return u

        monkeypatch.setattr(noise, "haar_unitary", with_nan)
        with pytest.raises(ValueError, match="not an isometry"):
            decoherence_columns(SEEDS, 2)
