"""Certification checks, decoder synthesis, and end-to-end trials."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erasurelab import gates, verify
from erasurelab.cli import code_from_json_dict, code_to_json_dict, parse_channel
from erasurelab.codes import (
    CodeSpec,
    RecoveryPlan,
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
from erasurelab.gates import GATE_UNITARITY_TOL, PAULI_BY_KIND, haar_unitary
from erasurelab.states import MessageState, PureState, apply_local_operator, partial_trace
from erasurelab.verify import (
    CheckResult,
    ErrorOperatorSet,
    RecoverySynthesisError,
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


def unprotected_pair_code():
    """Two logical states differing only on site 1; site 1 is defenseless."""
    return CodeSpec("pair", 2, 1, np.eye(4)[[0, 1]], (0, 1))


def bare_three_qubit_code():
    """The identity "encoding": message qubits sent as they are."""
    return CodeSpec("bare", 3, 3, np.eye(8), range(8))


def product_code(k=3, n_ancilla=3):
    """Message qubits followed by blank ancillas: |m> (x) |0...0>."""
    n = k + n_ancilla
    basis = np.eye(2**n)[[m << n_ancilla for m in range(2**k)]]
    return CodeSpec("product", n, k, basis, range(2**k))


def leaky_hiding_code():
    """hiding:5 with 5e-10 of Z on site 0 mixed into the logical |0>.

    Z_0|0_L> is orthogonal to every logical state, so the basis stays
    orthonormal, but site 0 of a message with weight on |0_L> is no longer
    exactly I/2.  The 25 messages `check_hiding` samples by default see only
    7.3e-11 of it.
    """
    code = hiding_code(5)
    basis = code.basis.copy()
    z0 = np.where(np.arange(basis.shape[1]) >> 9 & 1, -1.0, 1.0) * basis[0]
    leaky = basis[0] + 5e-10 * z0
    basis[0] = leaky / np.linalg.norm(leaky)
    return CodeSpec("leaky-hiding-5", 10, 5, basis, code.message_labels)


def nudged_six_qubit_code(nudge):
    """The six-qubit basis with row 0 moved by ``nudge`` along a fixed unit
    direction, then re-orthonormalized (QR of the rows)."""
    basis = np.array(six_qubit_logical_basis().basis)
    rng = np.random.default_rng(0)
    direction = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    basis[0] += nudge * direction / np.linalg.norm(direction)
    q, _ = np.linalg.qr(basis.T)
    return CodeSpec("nudged-six", 6, 3, q.T, range(8))


def code_from_rows(rows, label="rows"):
    n = rows.shape[1].bit_length() - 1
    k = max(1, (len(rows) - 1).bit_length())
    return CodeSpec(label, n, k, rows, range(len(rows)))


def locally_rotated(code, rng):
    rows = code.basis
    full = np.ones((1, 1))
    for _ in range(code.n_physical):
        full = np.kron(full, haar_unitary(2, rng))
    return code_from_rows(rows @ full.T, "rotated")


# Dense reference for the sector-overlap kernel: apply the operators to every
# logical state and take inner products, with no shared code.


def apply_at_site(amps, op, position, n):
    t = np.moveaxis(amps.reshape((2,) * n), position, 0)
    return np.moveaxis(np.tensordot(op, t, axes=([1], [0])), 0, position).reshape(-1)


def distance_from_scalar(m):
    diag = np.diag(m)
    off = np.max(np.abs(m - np.diag(diag)))
    return max(off, np.max(np.abs(diag[:, None] - diag[None, :])))


def reference_rows(code, position):
    """(kl_general, erasure_kl, hiding) deviations at one site."""
    n = code.n_physical
    basis = code.basis
    applied = [
        np.stack([apply_at_site(b, p, position, n) for b in basis])
        for p in PAULI_BY_KIND.values()
    ]
    kl = max(distance_from_scalar(ta.conj() @ tb.T) for ta in applied for tb in applied)
    erasure = max(distance_from_scalar(basis.conj() @ ta.T) for ta in applied)
    rest = [s for s in range(n) if s != position]
    tensors = [b.reshape((2,) * n) for b in basis]
    hiding = 0.0
    for i, ti in enumerate(tensors):
        for j, tj in enumerate(tensors):
            reduced = np.tensordot(ti, tj.conj(), axes=(rest, rest))  # Tr_rest |i><j|
            expected = np.eye(2) / 2 if i == j else np.zeros((2, 2))
            hiding = max(hiding, np.max(np.abs(reduced - expected)))
    return kl, erasure, hiding


def dense_overlaps(code, position):
    """sector_overlaps over the whole rest space, split with moveaxis: the
    dense product the support path must reproduce."""
    n = code.n_physical
    basis = code.basis.reshape((-1,) + (2,) * n)
    sectors = np.moveaxis(basis, position + 1, 1).reshape(2 * len(basis), -1)
    n_logical = len(basis)
    return (sectors.conj() @ sectors.T).reshape(n_logical, 2, n_logical, 2)


def reference_kl_row(name, overlaps, ops, tolerance):
    """The certificate rows before they became one matmul over flat stacks:
    the oracle for their bits."""
    m = np.tensordot(ops, overlaps, axes=([1, 2], [1, 3]))
    diag = np.diagonal(m, axis1=-2, axis2=-1)
    off = m * (1 - np.eye(m.shape[-1]))
    spread = diag[..., :, None] - diag[..., None, :]
    worst = float(np.maximum(np.max(np.abs(off)), np.max(np.abs(spread))))
    return CheckResult(name, worst <= tolerance, worst)


def reference_block_deviation(overlaps, g):
    blocks = np.einsum("ij,ab->iajb", np.eye(overlaps.shape[0]), g)
    return float(np.max(np.abs(overlaps - blocks)))


def dense_route(code, tolerance=1e-10):
    """certify's rows from one sector-overlap tensor per site, its dense
    route: the oracle for the stored-entry path."""
    half, n = np.eye(2) / 2, code.n_physical
    kl = [check_erasure_kl(code, p, tolerance).checks[0].worst_deviation for p in range(n)]
    hiding = [verify._block_deviation(verify.sector_overlaps(code, p), half) for p in range(n)]
    return [CheckResult.within(f"{name}{p}", dev, tolerance)
            for name, devs in (("kl_general_pos", kl), ("erasure_kl_pos", kl),
                               ("hiding_site", hiding)) for p, dev in enumerate(devs)]


def scattered_entries(code, keys, values):
    """The stored entries scattered to a dense (n, L, 2, L, 2) stack, one site at a time."""
    n_logical = len(code.message_labels)
    size = 4 * n_logical**2
    bounds = np.searchsorted(keys, np.arange(code.n_physical + 1) * size)
    for p in range(code.n_physical):
        site = np.zeros(size, dtype=np.complex128)
        site[keys[bounds[p]:bounds[p + 1]] - p * size] = values[bounds[p]:bounds[p + 1]]
        yield site.reshape(n_logical, n_logical, 2, 2).transpose(0, 2, 1, 3)


def random_subspace_code(rng, n=6, dim=8):
    z = rng.standard_normal((2**n, dim)) + 1j * rng.standard_normal((2**n, dim))
    return code_from_rows(np.linalg.qr(z)[0].T, "random-subspace")


def phased(code, rng, per_site):
    """The code under diagonal phases, which keep its support: one phase gate
    per site (a local unitary, so the verdicts stay) or one phase per column."""
    bits = np.arange(2**code.n_physical)[:, None] >> np.arange(code.n_physical) & 1
    angles = rng.uniform(0, 2 * np.pi, code.n_physical if per_site else len(bits))
    return code_from_rows(code.basis * np.exp(1j * (bits @ angles if per_site else angles)),
                          "phased-per-site" if per_site else "phased-per-column")


@st.composite
def small_codes(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    kind = draw(st.sampled_from(["isometry", "rotated_six", "product"]))
    if kind == "isometry":
        return random_subspace_code(rng, draw(st.integers(3, 5)), draw(st.integers(2, 8)))
    if kind == "rotated_six":
        return locally_rotated(six_qubit_logical_basis(), rng)
    code = product_code(draw(st.integers(1, 3)), draw(st.integers(1, 2)))
    return locally_rotated(code, rng) if draw(st.booleans()) else code


class TestErrorOperatorSet:
    def test_pauli_set(self):
        s = ErrorOperatorSet.pauli_set(2)
        assert s.position == 2
        assert len(s.operators) == 4

    def test_must_include_identity(self):
        x = np.array([[0, 1], [1, 0]])
        with pytest.raises(ValueError, match="identity"):
            ErrorOperatorSet(0, [x])

    def test_must_span_the_algebra(self):
        z = np.diag([1.0, -1.0])
        with pytest.raises(ValueError, match="span"):
            ErrorOperatorSet(0, [np.eye(2), z])

    def test_shape_checks(self):
        with pytest.raises(ValueError):
            ErrorOperatorSet(0, [])
        with pytest.raises(ValueError):
            ErrorOperatorSet(0, [np.eye(2), np.eye(3)])
        with pytest.raises(ValueError, match="2x2"):
            ErrorOperatorSet(0, [np.eye(3)])  # logical bases live on qubits
        with pytest.raises(ValueError):
            ErrorOperatorSet(-1, [np.eye(2)])


class TestKlChecks:
    def test_six_qubit_code_passes_pairwise_at_every_position(self):
        code = six_qubit_logical_basis()
        for pos in range(6):
            report = check_kl_general(code, ErrorOperatorSet.pauli_set(pos))
            assert report.passed
            assert report.checks[0].name == f"kl_general_pos{pos}"
            assert report.checks[0].worst_deviation <= 1e-10

    def test_six_qubit_code_passes_erasure_form_everywhere(self):
        code = six_qubit_logical_basis()
        for pos in range(6):
            report = check_erasure_kl(code, pos)
            assert report.passed, report.checks

    def test_w_code_passes_erasure_form_everywhere(self):
        code = w_code()
        for pos in range(5):
            assert check_erasure_kl(code, pos).passed

    def test_unprotected_pair_fails_where_the_data_sits(self):
        code = unprotected_pair_code()
        report = check_kl_general(code, ErrorOperatorSet.pauli_set(1))
        assert not report.passed
        # X on site 1 maps one logical state onto the other, deviation 1
        assert report.checks[0].worst_deviation >= 1 - 1e-12
        # ...while erasing site 0 loses nothing, so that position is fine
        assert check_kl_general(code, ErrorOperatorSet.pauli_set(0)).passed

    def test_bare_code_fails_erasure_form(self):
        report = check_erasure_kl(bare_three_qubit_code(), 0)
        assert not report.passed
        assert report.checks[0].worst_deviation >= 1 - 1e-12

    def test_position_out_of_range(self):
        with pytest.raises(ValueError):
            check_erasure_kl(six_qubit_logical_basis(), 6)
        with pytest.raises(ValueError):
            check_kl_general(six_qubit_logical_basis(), ErrorOperatorSet.pauli_set(6))


class TestSectorOverlaps:
    @settings(max_examples=60, deadline=None)
    @given(small_codes())
    def test_certify_matches_the_dense_reference(self, code):
        report = certify(code)
        n = code.n_physical
        assert [c.name for c in report.checks] == (
            [f"kl_general_pos{p}" for p in range(n)]
            + [f"erasure_kl_pos{p}" for p in range(n)]
            + [f"hiding_site{p}" for p in range(n)]
        )
        for p in range(n):
            kl, erasure, hiding = reference_rows(code, p)
            assert abs(report.checks[p].worst_deviation - kl) <= 1e-12
            assert abs(report.checks[n + p].worst_deviation - erasure) <= 1e-12
            assert abs(report.checks[2 * n + p].worst_deviation - hiding) <= 1e-12

    @settings(max_examples=20, deadline=None)
    @given(small_codes())
    def test_single_checks_are_the_certify_rows(self, code):
        report = certify(code)
        n = code.n_physical
        for p in range(n):
            general = check_kl_general(code, ErrorOperatorSet.pauli_set(p)).checks[0]
            erasure = check_erasure_kl(code, p).checks[0]
            assert general == report.checks[p]
            assert erasure == report.checks[n + p]
            # the Pauli products A^dag B are the Paulis up to a phase
            assert general.worst_deviation == erasure.worst_deviation

    def test_tensor_layout(self):
        # |i> = sum_a |a>_p (x) |w_ia>: for the bare register, w_ia is the
        # basis vector of the other bits of i when a is bit p of i, else zero
        o = sector_overlaps(bare_three_qubit_code(), 1)
        expected = np.zeros((8, 2, 8, 2))
        for i in range(8):
            for j in range(8):
                if i & 0b101 == j & 0b101:
                    expected[i, (i >> 1) & 1, j, (j >> 1) & 1] = 1.0
        np.testing.assert_array_equal(o, expected)

    @pytest.mark.parametrize(
        "code",
        [six_qubit_logical_basis(), w_code(), product_code()]
        + [hiding_code(n) for n in (2, 3, 4, 5)],
        ids=lambda c: c.label,
    )
    def test_exact_hiding_verdict_matches_the_sampled_one(self, code):
        n = code.n_physical
        exact = [c.passed for c in certify(code).checks[2 * n:]]
        sampled = [bool(c.passed) for c in check_hiding(code).checks]
        assert exact == sampled

    def test_exact_hiding_catches_a_leak_that_sampling_misses(self):
        by_name = {c.name: c for c in certify(leaky_hiding_code()).checks}
        assert not by_name["hiding_site0"].passed
        assert by_name["hiding_site0"].worst_deviation == pytest.approx(5e-10, rel=1e-6)

    @pytest.mark.parametrize("nan_at", [(0, 0, 0, 0), (3, 1, 5, 0)])
    def test_non_finite_overlaps_never_pass(self, monkeypatch, nan_at):
        # a full-support code takes the dense route, one tensor per site
        code = locally_rotated(six_qubit_logical_basis(), np.random.default_rng(7))
        overlaps = sector_overlaps(code, 0)
        overlaps[nan_at] = np.nan
        monkeypatch.setattr(verify, "sector_overlaps", lambda code, position: overlaps)
        assert not any(c.passed for c in certify(code).checks)

    def test_position_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            sector_overlaps(six_qubit_logical_basis(), 6)


class TestSupport:
    """The certificate runs on the code's support; the dense split is its oracle."""

    @pytest.mark.parametrize(
        "code", [six_qubit_logical_basis(), w_code()] + [hiding_code(n) for n in range(1, 8)],
        ids=lambda c: c.label,
    )
    def test_overlaps_and_verdicts_match_the_dense_product(self, monkeypatch, code):
        dense = [dense_overlaps(code, p) for p in range(code.n_physical)]
        for p, want in enumerate(dense):
            assert np.max(np.abs(sector_overlaps(code, p) - want)) <= 1e-15
        report = certify(code)
        monkeypatch.setattr(verify, "sector_overlaps", lambda code, p: dense[p])
        reference = dense_route(code)
        assert [(c.name, c.passed) for c in report.checks] == [
            (c.name, c.passed) for c in reference
        ]
        for got, want in zip(report.checks, reference):
            assert abs(got.worst_deviation - want.worst_deviation) <= 1e-15

    @pytest.mark.parametrize("code, size", [
        (six_qubit_logical_basis(), 16),  # 2^(n+1) for two GHZ blocks of n = 3
        (w_code(), 6),
        (hiding_code(4), 32),
    ], ids=["six", "w5", "hiding-4"])
    def test_support_is_every_nonzero_column(self, code, size):
        nonzero = np.flatnonzero(np.abs(code.basis).sum(axis=0))
        np.testing.assert_array_equal(code.support, nonzero)
        assert len(code.support) == size
        assert not code.support.flags.writeable

    def test_full_support_takes_every_rest_index_in_order(self):
        rng = np.random.default_rng(7)
        code = locally_rotated(six_qubit_logical_basis(), rng)
        assert len(code.support) == 64
        for p in range(6):
            np.testing.assert_array_equal(sector_overlaps(code, p), dense_overlaps(code, p))

    @settings(max_examples=40, deadline=None)
    @given(small_codes())
    def test_rows_are_bit_identical_to_the_reference_rows(self, code):
        half = np.eye(2) / 2
        for p in range(code.n_physical):
            overlaps = sector_overlaps(code, p)
            for ops in (verify._pair_products(verify.PAULIS), verify.PAULIS):
                got = verify._kl_row("row", overlaps, ops, 1e-10)
                assert got == reference_kl_row("row", overlaps, ops, 1e-10)
            assert (verify._block_deviation(overlaps, half)
                    == reference_block_deviation(overlaps, half))

    @pytest.mark.parametrize("at", [(0, 0, 0, 0), (0, 0, 1, 1), (2, 1, 5, 0)])
    def test_non_finite_overlaps_give_nan_rows(self, at):
        overlaps = sector_overlaps(six_qubit_logical_basis(), 0).copy()
        overlaps[at] = np.nan
        for ops in (verify._pair_products(verify.PAULIS), verify.PAULIS):
            assert np.isnan(verify._kl_row("row", overlaps, ops, 1e-10).worst_deviation)
        assert np.isnan(verify._block_deviation(overlaps, np.eye(2) / 2))

    @pytest.mark.parametrize("code", [locally_rotated(c, np.random.default_rng(3))
                                      for c in (six_qubit_logical_basis(), hiding_code(4))],
                             ids=["rotated-six", "rotated-hiding-4"])
    def test_certify_contracts_each_site_once(self, code, monkeypatch):
        # full-support codes take the dense route, one tensor per site
        calls, real = [], verify._kl_row

        def counted(*args):
            calls.append(args[0])
            return real(*args)

        monkeypatch.setattr(verify, "_kl_row", counted)
        report = certify(code)
        assert calls == [f"erasure_kl_pos{p}" for p in range(code.n_physical)]
        assert report.passed


SPARSE_CODES = [six_qubit_logical_basis(), w_code()] + [hiding_code(n) for n in range(2, 9)] + [
    phased(six_qubit_logical_basis(), np.random.default_rng(13), per_site) for per_site in (1, 0)]
DENSE_CODES = [locally_rotated(six_qubit_logical_basis(), np.random.default_rng(11)),
               random_subspace_code(np.random.default_rng(12))]
NEGATIVE_CONTROLS = [product_code(), bare_three_qubit_code(), unprotected_pair_code(),
                     leaky_hiding_code()]


class TestStoredEntries:
    """Codes whose split columns are sparse are certified from the stored
    entries of every site's overlap tensor; the dense tensor is the oracle."""

    @pytest.mark.parametrize("code", SPARSE_CODES + DENSE_CODES, ids=lambda c: c.label)
    def test_entries_are_the_dense_overlaps(self, code):
        keys, values = verify.overlap_entries(code)
        assert (keys[1:] > keys[:-1]).all()
        for p, got in enumerate(scattered_entries(code, keys, values)):
            assert np.max(np.abs(got - sector_overlaps(code, p))) <= 1e-15

    @pytest.mark.parametrize("code", SPARSE_CODES + NEGATIVE_CONTROLS, ids=lambda c: c.label)
    def test_rows_match_the_dense_route_without_a_dense_tensor(self, code, monkeypatch):
        want = dense_route(code)
        monkeypatch.setattr(verify, "sector_overlaps", lambda *args: pytest.fail("dense route"))
        got = certify(code).checks
        assert [(c.name, c.passed) for c in got] == [(c.name, c.passed) for c in want]
        for g, w in zip(got, want):
            assert abs(g.worst_deviation - w.worst_deviation) <= 1e-15

    @pytest.mark.parametrize("code", DENSE_CODES + [nudged_six_qubit_code(1e-3)],
                             ids=lambda c: c.label)
    def test_dense_codes_keep_the_dense_route(self, code, monkeypatch):
        calls, real = [], verify.sector_overlaps
        monkeypatch.setattr(verify, "sector_overlaps",
                            lambda code, p: calls.append(p) or real(code, p))
        got = certify(code).checks
        assert calls == list(range(code.n_physical))
        assert list(got) == dense_route(code)

    @pytest.mark.parametrize("code", [six_qubit_logical_basis(), hiding_code(4)],
                             ids=lambda c: c.label)
    @pytest.mark.parametrize("at", ["first", "off-diagonal", "last"])
    def test_a_nan_entry_fails_every_row_of_its_site(self, code, at, monkeypatch):
        keys, values = verify.overlap_entries(code)
        n_logical = len(code.message_labels)
        off = np.flatnonzero((keys >> 2) // n_logical % n_logical != (keys >> 2) % n_logical)
        at = {"first": 0, "off-diagonal": off[len(off) // 2], "last": -1}[at]
        values = values.copy()
        values[at] = np.nan
        site = keys[at] // (4 * n_logical**2)
        monkeypatch.setattr(verify, "overlap_entries", lambda *args: (keys, values))
        failed = [c.name for c in certify(code).checks if not c.passed]
        assert failed == [f"kl_general_pos{site}", f"erasure_kl_pos{site}", f"hiding_site{site}"]

    @pytest.mark.parametrize("code", SPARSE_CODES, ids=lambda c: c.label)
    def test_certify_computes_every_sites_entries_in_one_pass(self, code, monkeypatch):
        calls, real = [], verify.overlap_entries

        def counted(*args):
            calls.append(args[0])
            return real(*args)

        monkeypatch.setattr(verify, "overlap_entries", counted)
        certify(code)
        assert calls == [code]


class TestSynthesis:
    def test_six_qubit_synthesized_decoder_recovers(self):
        code = six_qubit_logical_basis()
        rng = np.random.default_rng(1001)
        for pos in (0, 4):
            syn = synthesize_recovery(code, pos)
            assert isinstance(syn, RecoveryPlan) and syn.bad_position == pos
            for trial in range(4):
                msg = code.random_message(rng)
                event = ErasureEvent(pos, random_decoherence(500 + trial))
                result = run_recovery_trial(code, msg, event, syn)
                assert result.fidelity >= 1 - 1e-10
                assert result.purity >= 1 - 1e-10

    def test_gram_matrix_is_half_identity_for_the_hiding_family(self):
        # erasure correctability with a maximally mixed site marginal means
        # the sector overlap matrix must be I/2 exactly
        for code in (six_qubit_logical_basis(), hiding_code(2)):
            overlaps = sector_overlaps(code, 0)
            diagonal = np.arange(len(overlaps))
            gram = overlaps[diagonal, :, diagonal, :].mean(axis=0)  # as the synthesis takes it
            np.testing.assert_allclose(gram, np.eye(2) / 2, atol=1e-12)

    def test_matches_the_circuit_plan_on_reduced_states(self):
        code = six_qubit_logical_basis()
        rng = np.random.default_rng(7)
        for pos in (1, 5):
            plan = recovery_for(pos)
            syn = synthesize_recovery(code, pos, output_register=plan.output_register)
            for kind in "IXZ":
                msg = code.random_message(rng)
                hit = apply_erasure(code.encode(msg), ErasureEvent(pos, pauli_error(kind)))
                rho_plan = partial_trace(plan.apply(hit), plan.output_register)
                rho_syn = partial_trace(syn.apply(hit), syn.output_register)
                np.testing.assert_allclose(rho_plan.matrix, rho_syn.matrix, atol=1e-10)

    def test_w_code_every_position(self):
        code = w_code()
        rng = np.random.default_rng(88)
        for pos in range(5):
            syn = synthesize_recovery(code, pos)
            msg = code.random_message(rng)
            event = ErasureEvent(pos, random_decoherence(300 + pos))
            result = run_recovery_trial(code, msg, event, syn)
            assert result.fidelity >= 1 - 1e-10

    def test_refuses_uncorrectable_codes(self):
        with pytest.raises(RecoverySynthesisError) as exc_info:
            synthesize_recovery(bare_three_qubit_code(), 0)
        assert exc_info.value.worst_deviation > 1e-10
        with pytest.raises(RecoverySynthesisError):
            synthesize_recovery(unprotected_pair_code(), 1)

    def test_refusal_is_aligned_with_the_erasure_check(self):
        # soundness: a failing erasure condition must imply refusal
        for code, pos in ((bare_three_qubit_code(), 0), (unprotected_pair_code(), 1)):
            assert not check_erasure_kl(code, pos).passed
            with pytest.raises(RecoverySynthesisError):
                synthesize_recovery(code, pos)

    def test_output_register_validation(self):
        code = six_qubit_logical_basis()
        with pytest.raises(ValueError):
            synthesize_recovery(code, 0, output_register=(0, 1, 2))  # contains bad site
        with pytest.raises(ValueError):
            synthesize_recovery(code, 0, output_register=(1, 2))  # wrong size
        with pytest.raises(ValueError):
            synthesize_recovery(code, 6)

    @pytest.mark.parametrize("nudge", [1e-7, 1e-9])
    def test_a_nudged_basis_is_refused_as_a_synthesis_error(self, nudge):
        # the overlap structure holds to 1e-6; the orthonormalized sectors do
        # not hold to the gate tolerance, and that is a refusal too
        code = nudged_six_qubit_code(nudge)
        assert check_erasure_kl(code, 0, tolerance=1e-6).passed
        with pytest.raises(RecoverySynthesisError, match="drifted") as exc_info:
            synthesize_recovery(code, 0, tolerance=1e-6)
        assert exc_info.value.worst_deviation > GATE_UNITARITY_TOL

    def test_a_decoder_the_gate_refuses_is_a_synthesis_error(self, monkeypatch):
        # completing the sources to a square matrix can lose a little of their
        # orthonormality; the gate's check then refuses the decoder
        code = nudged_six_qubit_code(1e-13)
        synthesize_recovery(code, 0, tolerance=1e-6)
        monkeypatch.setattr(gates, "GATE_UNITARITY_TOL", 0.0)
        with pytest.raises(RecoverySynthesisError, match="not unitary") as exc_info:
            synthesize_recovery(code, 0, tolerance=1e-6)
        assert exc_info.value.worst_deviation > 0.0

    def test_dimension_cap(self, monkeypatch):
        monkeypatch.setattr(verify, "SYNTHESIS_DIM_CAP", 16)
        with pytest.raises(ValueError, match="cap"):
            synthesize_recovery(six_qubit_logical_basis(), 0)

    def test_unitary_output(self):
        syn = synthesize_recovery(w_code(), 2)
        (decoder,) = syn.circuit.ops
        assert decoder.gate.kind == "CUSTOM" and decoder.targets == (0, 1, 3, 4)
        assert len(syn.circuit) == 1
        u = decoder.gate.matrix
        np.testing.assert_allclose(u.conj().T @ u, np.eye(16), atol=1e-12)
        assert not u.flags.writeable  # apply() relies on the one check at Gate construction
        assert syn.output_register == (1, 3, 4)  # the junk register is site 0

    @pytest.mark.parametrize("name", ["w5", "hiding:2", "hiding:3", "hiding:4", "hiding:5"])
    def test_unitary_is_the_dense_permutation_product(self, monkeypatch, name):
        code = w_code() if name == "w5" else hiding_code(int(name.split(":")[1]))
        sources = []
        complete = verify._complete_orthonormal_basis

        def keep(cols):
            sources.append(complete(cols))
            return sources[-1]

        monkeypatch.setattr(verify, "_complete_orthonormal_basis", keep)
        for pos in range(code.n_physical):
            unitary = synthesize_recovery(code, pos).circuit.ops[0].gate.matrix
            source = sources[-1]
            # unitary = P source^H for a permutation P, read back off the result
            perm = np.rint(np.abs(unitary @ source))
            ones = np.ones(len(perm))
            assert set(np.unique(perm)) == {0.0, 1.0}
            assert np.array_equal(perm.sum(axis=0), ones) and np.array_equal(perm.sum(axis=1), ones)
            assert np.array_equal(unitary, perm.astype(np.complex128) @ source.conj().T)

    def test_apply_matches_the_validated_path_and_checks_its_sites(self):
        code = w_code()
        syn = synthesize_recovery(code, 2)
        (decoder,) = syn.circuit.ops
        state = PureState(code.dims, code.basis[1])
        hit = apply_erasure(state, ErasureEvent(2, leakage_decoherence(3, 3)))
        reference = apply_local_operator(hit, decoder.gate.matrix, decoder.targets)
        np.testing.assert_array_equal(syn.apply(hit).amps, reference.amps)
        leaked_rest = apply_erasure(state, ErasureEvent(1, leakage_decoherence(3, 3)))
        with pytest.raises(ValueError, match="does not fit the state register"):
            syn.apply(leaked_rest)
        with pytest.raises(ValueError, match="does not fit the state register"):
            syn.apply(PureState((2, 2, 2), np.eye(8)[0]))


class TestHidingCheck:
    def test_six_qubit_code_hides_every_site(self):
        report = check_hiding(six_qubit_logical_basis(), trials=10, seed=3)
        assert report.passed
        assert len(report.checks) == 6
        assert {c.name for c in report.checks} == {f"hiding_site{s}" for s in range(6)}

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_hiding_family(self, n):
        report = check_hiding(hiding_code(n), trials=5, seed=n)
        assert report.passed
        assert len(report.checks) == 2 * n

    def test_product_code_does_not_hide(self):
        # appending blank ancillas is not hiding: those sites stay |0>
        code = CodeSpec("product", 6, 3, np.eye(64)[[i << 3 for i in range(8)]], range(8))
        report = check_hiding(code, trials=3, seed=0)
        assert not report.passed
        by_name = {c.name: c for c in report.checks}
        assert by_name["hiding_site3"].worst_deviation >= 0.5 - 1e-12

    @pytest.mark.parametrize("trials", [0, -5])
    def test_refuses_to_pass_on_no_samples(self, trials):
        with pytest.raises(ValueError, match="at least one trial"):
            check_hiding(bare_three_qubit_code(), trials=trials)

    def test_marginal_deviations_are_each_sites_distance_from_half(self):
        state = PureState((2, 2, 2), np.eye(8)[0b010])  # |010>: every marginal is pure
        np.testing.assert_array_equal(verify.marginal_deviations(state), [0.5, 0.5, 0.5])
        ghz = six_qubit_logical_basis().encode(MessageState.basis(3, 5))
        assert np.max(verify.marginal_deviations(ghz)) <= 1e-15

    def test_reports_are_reproducible(self):
        a = check_hiding(six_qubit_logical_basis(), trials=4, seed=11)
        b = check_hiding(six_qubit_logical_basis(), trials=4, seed=11)
        assert a == b


class TestRecoveryTrials:
    def test_basis_message_identity_error(self):
        code = six_qubit_logical_basis()
        result = run_recovery_trial(
            code, MessageState.basis(3, 0), ErasureEvent(0, pauli_error("I")), recovery_for(0)
        )
        assert result.fidelity >= 1 - 1e-12
        assert result.purity >= 1 - 1e-12

    def test_uniform_message_bit_phase_error(self):
        code = six_qubit_logical_basis()
        msg = MessageState(3, np.ones(8) / np.sqrt(8))
        result = run_recovery_trial(
            code, msg, ErasureEvent(4, pauli_error("Y")), recovery_for(4)
        )
        assert result.fidelity >= 1 - 1e-10
        assert result.purity >= 1 - 1e-10

    def test_leakage_channel(self):
        code = six_qubit_logical_basis()
        msg = code.random_message(np.random.default_rng(2))
        event = ErasureEvent(2, leakage_decoherence(9, leak_dim=4))
        result = run_recovery_trial(code, msg, event, recovery_for(2))
        assert result.fidelity >= 1 - 1e-10

    def test_full_leak_with_orthogonal_environments(self):
        code = six_qubit_logical_basis()
        msg = code.random_message(np.random.default_rng(6))
        event = ErasureEvent(1, leakage_decoherence(14, leak_dim=3, env_dim=2, leak_weight=1.0))
        result = run_recovery_trial(code, msg, event, recovery_for(1))
        assert result.fidelity >= 1 - 1e-10
        assert result.purity >= 1 - 1e-10


TRIAL_CHANNELS = ("pauli:I", "pauli:X", "pauli:Y", "pauli:Z", "random:1", "random:4",
                  "leak:3,4", "leak:4,2,0.0", "leak:4,2,1.0")


def draw_trials(code, spec, count, rng):
    """Seeded message rows and channel seeds, drawn as `recover` draws them."""
    return [(code.random_message(rng).amps, int(rng.integers(0, 2**63 - 1)))
            for _ in range(count)]


def assert_matches_the_reference(code, plan, channel, trials):
    """The engine against `run_recovery_trial` on each trial's message and
    the channel `channel.build(seed)` at the plan's site, one at a time."""
    batched = run_recovery_trials(code, plan, channel, iter(trials))
    assert len(batched) == len(trials)
    for got, (amps, seed) in zip(batched, trials):
        message = MessageState(code.k_logical, amps)
        event = ErasureEvent(plan.bad_position, channel.build(seed))
        want = run_recovery_trial(code, message, event, plan)
        assert abs(got.fidelity - want.fidelity) <= 1e-14
        assert abs(got.purity - want.purity) <= 1e-14
    return batched


def reported_norm(text: str, what: str) -> float:
    """The norm an engine error names: printed as a plain float, as
    `PureState` and `MessageState` print it, never as numpy's repr."""
    assert "np.float64" not in text
    return float(text.split(f"{what} norm ", 1)[1].split(" differs")[0])


def scaled(columns):
    return columns * 1.01


def with_nan(columns):
    columns = columns.copy()
    columns[1, 0] = np.nan
    return columns


class Tampered:
    """A channel family whose stack has one row changed after it was built."""

    def __init__(self, spec, row, damage):
        self.spec, self.row, self.damage = spec, row, damage
        self.shape = spec.shape

    def columns(self, seeds):
        columns = self.spec.columns(seeds).copy()
        columns[self.row] = self.damage(columns[self.row])
        return columns


def stacked_w(code, plan, spec="pauli:I"):
    """The plan∘encode stack the engine hands its chunks, for one trial."""
    seen = []
    chunk = verify._trial_chunk

    def capture(code, w, *args):
        seen.append(w)
        return chunk(code, w, *args)

    trial = draw_trials(code, spec, 1, np.random.default_rng(0))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "_trial_chunk", capture)
        run_recovery_trials(code, plan, parse_channel(spec), trial)
    return seen[0]


def per_label_w(code, plan):
    return np.stack([plan.apply(code.encode(MessageState.basis(code.k_logical, m))).amps
                     for m in code.message_labels])


class TestBatchedTrials:
    @pytest.mark.parametrize("spec", TRIAL_CHANNELS)
    def test_six_matches_the_per_trial_reference_at_every_site(self, spec):
        code = six_qubit_logical_basis()
        rng = np.random.default_rng(TRIAL_CHANNELS.index(spec))
        for pos in range(6):
            trials = draw_trials(code, spec, 5, rng)
            results = assert_matches_the_reference(code, recovery_for(pos), parse_channel(spec),
                                                   trials)
            assert min(r.fidelity for r in results) >= 1 - 1e-10

    @pytest.mark.parametrize("name, pos", [("w5", 2)] + [
        (f"hiding:{n}", pos) for n in (2, 3, 4, 5) for pos in (0, n, 2 * n - 1)
    ])
    def test_synthesized_decoders_match_the_per_trial_reference(self, name, pos):
        code = w_code() if name == "w5" else hiding_code(int(name.split(":")[1]))
        plan = synthesize_recovery(code, pos)
        for spec in ("random:4", "leak:3,2"):
            trials = draw_trials(code, spec, 4, np.random.default_rng(pos))
            assert_matches_the_reference(code, plan, parse_channel(spec), trials)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 5), st.sampled_from(TRIAL_CHANNELS))
    def test_drawn_seeds_match_the_per_trial_reference(self, seed, pos, spec):
        code = six_qubit_logical_basis()
        trials = draw_trials(code, spec, 3, np.random.default_rng(seed))
        assert_matches_the_reference(code, recovery_for(pos), parse_channel(spec), trials)

    @pytest.mark.parametrize("spec", TRIAL_CHANNELS)
    def test_channel_stacks_are_the_per_seed_builds(self, spec):
        channel = parse_channel(spec)
        seeds = [int(s) for s in np.random.default_rng(7).integers(0, 2**63 - 1, size=6)]
        stack = channel.columns(seeds)
        assert stack.shape == (6, channel.shape[0] * channel.shape[1], 2)
        assert np.array_equal(stack, np.stack([channel.build(seed).columns for seed in seeds]))

    def test_chunks_keep_the_trial_order(self, monkeypatch):
        code = six_qubit_logical_basis()
        rng = np.random.default_rng(3)
        for spec in ("pauli:Y", "random:4", "leak:3,4"):
            trials = draw_trials(code, spec, 7, rng)
            whole = assert_matches_the_reference(code, recovery_for(4), parse_channel(spec), trials)
            with monkeypatch.context() as mp:
                mp.setattr(verify, "TRIAL_CHUNK_AMPS", 512)  # at most two trials a chunk
                chunked = run_recovery_trials(code, recovery_for(4), parse_channel(spec),
                                              iter(trials))
            assert len(chunked) == len(whole)
            for got, want in zip(chunked, whole):
                assert abs(got.fidelity - want.fidelity) <= 1e-14
                assert abs(got.purity - want.purity) <= 1e-14

    @pytest.mark.parametrize("pos", range(6))
    def test_stacked_w_is_the_per_label_path_on_six(self, pos):
        code = six_qubit_logical_basis()
        plan = recovery_for(pos)
        assert np.array_equal(stacked_w(code, plan), per_label_w(code, plan))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_stacked_w_is_the_per_label_path_on_hiding(self, n):
        code = hiding_code(n)
        for pos in range(2 * n):
            plan = synthesize_recovery(code, pos)
            assert np.array_equal(stacked_w(code, plan), per_label_w(code, plan))

    def test_stacked_w_matches_the_per_label_path_without_an_encoder(self):
        rotated = locally_rotated(six_qubit_logical_basis(), np.random.default_rng(12))
        from_file = code_from_json_dict(code_to_json_dict(rotated))
        for code in (w_code(), from_file):
            for pos in range(code.n_physical):
                plan = synthesize_recovery(code, pos)
                got, want = stacked_w(code, plan), per_label_w(code, plan)
                assert np.max(np.abs(got - want)) <= 1e-15

    def test_refuses_a_plan_that_acts_on_the_damaged_site(self):
        # damage at site 0, repaired with the plan for site 3
        code = six_qubit_logical_basis()
        channel = parse_channel("random:4")
        trials = draw_trials(code, "random:4", 3, np.random.default_rng(5))
        for amps, seed in trials:
            event = ErasureEvent(0, channel.build(seed))
            wrong = run_recovery_trial(code, MessageState(3, amps), event, recovery_for(3))
            assert wrong.fidelity < 1 - 1e-6

        class Opaque:
            output_register = (3, 4, 5)

            def apply(self, state):
                return state

        with pytest.raises(ValueError, match="not a RecoveryPlan"):
            run_recovery_trials(code, Opaque(), channel, trials)

    @pytest.mark.parametrize("site", [6, -1])
    def test_refuses_a_plan_whose_site_is_outside_the_code(self, site):
        code = six_qubit_logical_basis()
        plan = recovery_for(0)
        outside = RecoveryPlan(site, plan.circuit, plan.output_register)
        trials = draw_trials(code, "random:4", 1, np.random.default_rng(2))
        with pytest.raises(ValueError, match=f"position {site} out of range for 6 sites"):
            run_recovery_trials(code, outside, parse_channel("random:4"), trials)

    def test_refuses_an_output_register_that_cannot_hold_the_message(self):
        code = six_qubit_logical_basis()
        short = RecoveryPlan(0, recovery_for(0).circuit, (3, 4))
        trials = draw_trials(code, "random:4", 1, np.random.default_rng(2))
        with pytest.raises(ValueError, match=r"output register \(3, 4\) does not hold 3"):
            run_recovery_trials(code, short, parse_channel("random:4"), trials)

    def test_rejects_messages_the_code_cannot_encode(self):
        code = w_code()
        plan = synthesize_recovery(code, 2)
        channel = parse_channel("random:4")
        with pytest.raises(ValueError, match=r"encodable subspace at \[0\]"):
            run_recovery_trials(code, plan, channel, [(MessageState.basis(3, 0).amps, 1)])
        with pytest.raises(ValueError, match=r"encodable subspace at \[0\]"):
            code.encode(MessageState.basis(3, 0))
        with pytest.raises(ValueError, match="qubits"):
            run_recovery_trials(code, plan, channel, [(MessageState.basis(2, 0).amps, 1)])

    @pytest.mark.parametrize("amps", [np.full(8, 0.5), np.full(8, np.nan)])
    def test_rejects_messages_that_are_not_unit_vectors(self, amps):
        code = six_qubit_logical_basis()
        trials = draw_trials(code, "random:4", 2, np.random.default_rng(1)) + [(amps, 3)]
        with pytest.raises(ValueError, match="trial 2: message norm") as exc_info:
            run_recovery_trials(code, recovery_for(0), parse_channel("random:4"), trials)
        np.testing.assert_equal(reported_norm(str(exc_info.value), "message"),
                                float(np.linalg.norm(amps)))

    @pytest.mark.parametrize("damage", [scaled, with_nan])
    def test_a_channel_changed_after_construction_is_refused(self, damage):
        code = six_qubit_logical_basis()
        trials = draw_trials(code, "random:4", 4, np.random.default_rng(9))
        channel = Tampered(parse_channel("random:4"), 2, damage)
        with pytest.raises(ValueError, match="trial 2: damaged state norm") as exc_info:
            run_recovery_trials(code, recovery_for(1), channel, trials)
        assert not abs(reported_norm(str(exc_info.value), "damaged state") - 1.0) <= 1e-10


def test_report_dataclasses():
    ok = CheckResult("x", True, 0.0)
    bad = CheckResult("y", False, 0.5)
    assert VerificationReport((ok,)).passed
    assert not VerificationReport((ok, bad)).passed


class TestMeasuredRows:
    def test_passes_at_the_tolerance_and_fails_just_above_it(self):
        tol = 1e-10
        assert CheckResult.within("x", tol, tol) == CheckResult("x", True, tol)
        above = np.nextafter(tol, 1.0)
        assert CheckResult.within("x", above, tol) == CheckResult("x", False, above)

    def test_a_negative_deviation_prints_as_zero_and_passes(self):
        row = CheckResult.within("min_purity", 1.0 - np.nextafter(1.0, 2.0), 1e-10)
        assert row == CheckResult("min_purity", True, 0.0)
        assert type(row.worst_deviation) is float

    def test_nan_fails_and_stays_nan(self):
        row = CheckResult.within("x", np.nan, 1e-10)
        assert not row.passed and np.isnan(row.worst_deviation)
