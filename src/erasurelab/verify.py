"""Code certification and end-to-end recovery trials.

Three families of checks live here:

* exact per-site certificates, all contractions of one sector-overlap
  tensor (``sector_overlaps``) gathered from the code's compact rows: the
  pairwise error-correction conditions for a general operator set, the
  single-operator form for an erasure at a known position, and maximally
  mixed single-site marginals (``certify`` gives all three at every site,
  from one Pauli contraction and one block check),
* numerical synthesis of a recovery unitary from the same tensor, which
  refuses whenever the code cannot correct the erasure; the decoder is a
  ``RecoveryPlan`` whose circuit is one ``CUSTOM`` gate on the intact
  sites.  ``recover`` synthesizes only for codes without a circuit plan
  (w5, the Bell pair), since the dense decoder is capped at
  ``SYNTHESIS_DIM_CAP`` rest amplitudes,
* seeded checks through the encoder: sampled marginals of random messages,
  and encode / damage / repair trials measured by fidelity and purity, one
  trial at a time (``run_recovery_trial``) or stacked
  (``run_recovery_trials``, which builds plan∘encode densely and refuses
  one of more than ``RECOVERY_MAP_CAP`` entries before building it).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .codes import CodeSpec, RecoveryPlan
from .gates import GATE_UNITARITY_TOL, PAULI_BY_KIND, Circuit, CircuitOp, circuit_rows, custom_gate
from .noise import ErasureEvent, apply_erasure
from .states import (DEFAULT_DIMENSION_CAP, EIGENVALUE_FLOOR, HERMITICITY_TOL, NORM_TOL,
                     TRACE_TOL, MessageState, fidelity_with_pure, orthonormality_deviation,
                     partial_trace)

DEFAULT_TOLERANCE = 1e-10
DEFAULT_TRIALS = 25
DEFAULT_SEED = 42
RANK_CUTOFF = 1e-12
SYNTHESIS_DIM_CAP = 1024
RECOVERY_MAP_CAP = 2**21  # entries of W = plan∘encode: hiding:7's (128, 2^14), 32 MiB
TRIALS_CAP = 100_000  # recover --trials: the report keeps one row per trial
TRIAL_CHUNK_AMPS = DEFAULT_DIMENSION_CAP // 16  # damaged amplitudes per stacked chunk
PAULIS = np.stack([PAULI_BY_KIND[k] for k in "IXYZ"])
PAULIS.setflags(write=False)


class RecoverySynthesisError(ValueError):
    """Raised when a code fails the overlap structure an erasure decoder needs."""

    def __init__(self, message: str, worst_deviation: float):
        super().__init__(message)
        self.worst_deviation = worst_deviation


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst_deviation: float

    @classmethod
    def within(cls, name: str, deviation: float, tolerance: float) -> "CheckResult":
        """A measured row: it passes iff ``deviation <= tolerance``, so NaN
        fails.  A negative deviation is reported as 0.0; NaN stays NaN."""
        deviation = float(deviation)
        return cls(name, deviation <= tolerance, 0.0 if deviation < 0 else deviation)


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[CheckResult, ...]
    tolerance: float
    seed: int | None = None

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


@dataclass(frozen=True)
class TrialResult:
    fidelity: float
    purity: float


class ErrorOperatorSet:
    """Single-qubit error operators at one known position.

    The set must contain the identity and span the full one-qubit operator
    algebra (the Pauli directions), so that passing the pairwise conditions
    on it certifies arbitrary errors at that site.
    """

    __slots__ = ("position", "operators")

    def __init__(self, position: int, operators):
        position = int(position)
        if position < 0:
            raise ValueError("position must be nonnegative")
        operators = tuple(np.array(a, dtype=np.complex128) for a in operators)
        if not operators:
            raise ValueError("operator set must be nonempty")
        if any(a.shape != (2, 2) for a in operators):
            raise ValueError("logical bases live on qubit sites; operators must be 2x2")
        if not any(np.max(np.abs(a - np.eye(2))) <= 1e-12 for a in operators):
            raise ValueError("operator set must include the identity")
        stacked = np.stack([a.reshape(-1) for a in operators], axis=1)
        for target in PAULI_BY_KIND.values():
            vec = target.reshape(-1)
            coeff, *_ = np.linalg.lstsq(stacked, vec, rcond=None)
            if not np.linalg.norm(stacked @ coeff - vec) <= 1e-10:
                raise ValueError("operator set does not span the one-site algebra")
        for a in operators:
            a.setflags(write=False)
        self.position = position
        self.operators = operators

    @classmethod
    def pauli_set(cls, position: int) -> "ErrorOperatorSet":
        return cls(position, PAULIS)


def _sectors(code: CodeSpec, position: int, columns: np.ndarray) -> np.ndarray:
    """Rows w_ia of the split |i> = sum_a |a>_position (x) |w_ia>, in (i, a)
    order, over the rest indices r of ``columns``, ascending: shape (2L, R)."""
    n = code.n_physical
    if not 0 <= position < n:
        raise ValueError(f"position {position} out of range for {n} sites")
    bit = 1 << (n - 1 - position)
    hit = np.zeros(2**n, dtype=bool)  # not np.unique: its first call imports numpy.ma (1.3 MB)
    hit[columns & ~bit] = True  # the a = 0 column of each r
    cols = np.flatnonzero(hit)
    return code.columns(np.stack([cols, cols | bit])).reshape(2 * len(code.message_labels), -1)


def sector_overlaps(code: CodeSpec, position: int) -> np.ndarray:
    """O[i, a, j, b] = <w_ia|w_jb> for the split of every logical state at
    ``position``.

    Every per-site certificate is a contraction of this tensor: for an
    operator M on the site, <i|M|j> = sum_ab M[a, b] O[i, a, j, b].  The
    erasure is correctable iff O = delta_ij g (Knill-Laflamme), and the site
    shows nothing about any message iff, in addition, g = I/2.

    The split runs only over the rest indices r of the code's support
    columns; every other r would add exact zeros.
    """
    sectors = _sectors(code, position, code.support)
    n_logical = len(sectors) // 2
    return (sectors.conj() @ sectors.T).reshape(n_logical, 2, n_logical, 2)


def _delta_deviation(m: np.ndarray, side: int) -> float:
    """Largest distance from (constant * identity) of a stack of side x side
    matrices, each flattened to one row of ``m``.  NaN anywhere gives NaN,
    which fails every tolerance."""
    diag = m[:, :: side + 1]
    off = np.abs(m)
    off[:, :: side + 1] = 0  # a NaN there still reaches the spread
    spread = np.abs(diag[:, :, None] - diag[:, None, :])
    return float(np.maximum(off.max(), spread.max()))


def _block_deviation(overlaps: np.ndarray, g: np.ndarray) -> float:
    """max |O[i, :, j, :] - delta_ij g|.  NaN anywhere gives NaN."""
    dev = overlaps.copy()
    np.einsum("iaib->iab", dev)[...] -= g  # the diagonal blocks, as a view
    return float(np.max(np.abs(dev)))


def _kl_row(name: str, overlaps: np.ndarray, ops: np.ndarray, tolerance: float) -> CheckResult:
    """<i|M|j> must be delta_ij times a constant, for every M in ``ops``."""
    side = overlaps.shape[0]
    m = ops.reshape(len(ops), 4) @ overlaps.transpose(1, 3, 0, 2).reshape(4, side * side)
    return CheckResult.within(name, _delta_deviation(m, side), tolerance)


def _pair_products(operators) -> np.ndarray:
    return np.stack([a.conj().T @ b for a in operators for b in operators])


def check_kl_general(
    code: CodeSpec,
    errors: ErrorOperatorSet,
    tolerance: float = DEFAULT_TOLERANCE,
) -> VerificationReport:
    """Pairwise conditions: <i|A_a^dag A_b|j> must be delta_ij times a
    constant that does not depend on the logical index, for every pair."""
    overlaps = sector_overlaps(code, errors.position)
    products = _pair_products(errors.operators)
    check = _kl_row(f"kl_general_pos{errors.position}", overlaps, products, tolerance)
    return VerificationReport(checks=(check,), tolerance=tolerance)


def check_erasure_kl(
    code: CodeSpec,
    position: int,
    tolerance: float = DEFAULT_TOLERANCE,
) -> VerificationReport:
    """Single-operator conditions for a known erased site: every Pauli must
    have equal diagonal matrix elements and no off-diagonal ones."""
    check = _kl_row(f"erasure_kl_pos{position}", sector_overlaps(code, position), PAULIS, tolerance)
    return VerificationReport(checks=(check,), tolerance=tolerance)


def certify(code: CodeSpec, tolerance: float = DEFAULT_TOLERANCE) -> VerificationReport:
    """Every certificate at every site from one sector-overlap tensor per
    site: the pairwise Pauli conditions (``kl_general_pos*``), the erasure
    conditions (``erasure_kl_pos*``) and exact marginal hiding
    (``hiding_site*``), in that order.  Each product P_a^dag P_b is a unit
    phase times a Pauli, so both KL rows carry the one Pauli contraction's
    worst deviation."""
    kl, erasure, hiding = [], [], []
    for p in range(code.n_physical):
        overlaps = sector_overlaps(code, p)
        row = _kl_row(f"erasure_kl_pos{p}", overlaps, PAULIS, tolerance)
        kl.append(CheckResult(f"kl_general_pos{p}", row.passed, row.worst_deviation))
        erasure.append(row)
        # Tr_rest |j><i| at the site is O[i, :, j, :] transposed, so every
        # encoded message has marginal I/2 iff O = delta_ij I/2
        hiding.append(CheckResult.within(f"hiding_site{p}",
                                         _block_deviation(overlaps, np.eye(2) / 2), tolerance))
    return VerificationReport(checks=tuple(kl + erasure + hiding), tolerance=tolerance)


def _complete_orthonormal_basis(cols: np.ndarray) -> np.ndarray:
    """Extend orthonormal columns to a full square unitary: the trailing
    left singular vectors span the orthogonal complement of the columns."""
    u, _, _ = np.linalg.svd(cols, full_matrices=True)
    return np.concatenate([cols, u[:, cols.shape[1]:]], axis=1)


def synthesize_recovery(
    code: CodeSpec,
    position: int,
    output_register=None,
    tolerance: float = DEFAULT_TOLERANCE,
) -> RecoveryPlan:
    """Build an erasure decoder directly from the logical basis.

    Splitting each logical state |i> = sum_k |k>_position x w_ik, the code
    corrects the erasure exactly when <w_ik|w_jk'> = delta_ij g_kk' with a
    common 2x2 overlap matrix g.  The synthesized unitary rotates the
    orthonormalized sectors onto junk-register states tensor the message
    basis.  It is returned as a RecoveryPlan whose circuit is one CUSTOM gate
    on the intact sites.
    Raises RecoverySynthesisError when the overlap structure fails, or when
    the orthonormalized sectors, or the decoder completed from them, are not
    orthonormal to GATE_UNITARITY_TOL.
    """
    rest = tuple(s for s in range(code.n_physical) if s != position)
    rest_dim = 2 ** len(rest)
    if rest_dim > SYNTHESIS_DIM_CAP:
        raise ValueError(
            f"undamaged register dimension {rest_dim} exceeds the synthesis cap "
            f"{SYNTHESIS_DIM_CAP}"
        )
    n_logical = len(code.message_labels)
    k = code.k_logical

    overlaps = sector_overlaps(code, position)
    # the split over the whole rest space, which the decoder's columns live on
    sectors = _sectors(code, position, np.arange(2**code.n_physical)).reshape(n_logical, 2, -1)
    diagonal = np.arange(n_logical)
    gram = overlaps[diagonal, :, diagonal, :].mean(axis=0)
    worst = _block_deviation(overlaps, gram)
    if not worst <= tolerance:
        raise RecoverySynthesisError(
            f"logical sectors at site {position} do not have the overlap structure "
            f"an erasure decoder needs (worst deviation {worst:.3e})",
            worst,
        )
    gram = (gram + gram.conj().T) / 2

    vals, vecs = np.linalg.eigh(gram)
    vals, vecs = vals[::-1], vecs[:, ::-1]  # dominant sector first
    rank = int(np.sum(vals > RANK_CUTOFF))

    if output_register is None:
        output_register = rest[-k:]
    output_register = tuple(int(s) for s in output_register)
    if len(output_register) != k or len(set(output_register) & set(rest)) != k:
        raise ValueError(f"output register must be {k} distinct sites other than {position}")
    junk = tuple(s for s in rest if s not in output_register)
    if 2 ** len(junk) < rank:
        raise ValueError(
            f"junk register of {len(junk)} sites cannot index {rank} overlap sectors"
        )

    # the rest index of (junk label m, message label j): the rest axes with
    # the junk sites first, then the output register, each most significant first
    axes = [rest.index(s) for s in junk + output_register]
    index = np.arange(rest_dim).reshape((2,) * len(rest)).transpose(axes).reshape(-1, 2**k)
    target_idx = index[:rank, list(code.message_labels)].reshape(-1)

    source_cols = []
    for m in range(rank):
        for j in range(n_logical):
            w = np.tensordot(vecs[:, m].conj(), sectors[j], axes=([0], [0]))
            source_cols.append(w / np.linalg.norm(w))
    source = np.stack(source_cols, axis=1)
    ortho_dev = orthonormality_deviation(source)
    if not ortho_dev <= GATE_UNITARITY_TOL:
        raise RecoverySynthesisError(
            f"orthonormalized sectors drifted (deviation {ortho_dev:.3e})", ortho_dev
        )

    full_source = _complete_orthonormal_basis(source)
    free = np.ones(rest_dim, dtype=bool)
    free[target_idx] = False
    order = np.concatenate([target_idx, np.flatnonzero(free)])  # the unused rows, ascending
    # the permutation sending column c to row order[c], times full_source^H:
    # row order[c] of the product is row c of full_source^H
    unitary = np.empty((rest_dim, rest_dim), dtype=np.complex128)
    unitary[order] = full_source.conj().T
    del full_source, sectors  # freed before the gate copies the matrix: recover's peak memory
    try:  # the one unitarity check, at GATE_UNITARITY_TOL
        gate = custom_gate(unitary)
    except ValueError as exc:  # completing the sources can lose a little orthonormality
        raise RecoverySynthesisError(f"synthesized decoder refused: {exc}",
                                     orthonormality_deviation(unitary)) from exc
    return RecoveryPlan(position, Circuit([CircuitOp(gate, rest)], code.dims), output_register)


def marginal_deviations(state) -> np.ndarray:
    """max |rho_s - I/2| for the marginal rho_s of each qubit site s of
    ``state``.  NaN anywhere gives NaN."""
    half = np.eye(2) / 2
    return np.array([np.max(np.abs(partial_trace(state, (s,)).matrix - half))
                     for s in range(state.n_sites)])


def check_hiding(
    code: CodeSpec,
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
    tolerance: float = DEFAULT_TOLERANCE,
) -> VerificationReport:
    """Encode seeded random messages and compare every single-site marginal
    against the maximally mixed state."""
    if trials < 1:
        raise ValueError(f"check_hiding needs at least one trial, got {trials}")
    rng = np.random.default_rng(seed)
    worst = np.zeros(code.n_physical)
    for _ in range(trials):
        worst = np.maximum(worst, marginal_deviations(code.encode(code.random_message(rng))))
    checks = tuple(CheckResult.within(f"hiding_site{s}", w, tolerance) for s, w in enumerate(worst))
    return VerificationReport(checks=checks, tolerance=tolerance, seed=seed)


def run_recovery_trial(
    code: CodeSpec,
    message: MessageState,
    event: ErasureEvent,
    plan,
) -> TrialResult:
    """Encode, damage one site, run the plan, and score the output register.

    ``plan`` needs only ``apply`` and ``output_register``, as a
    ``RecoveryPlan`` has.  Returns the fidelity of the reduced
    output-register state against the original message and its purity (1
    means the register fully disentangled).
    """
    encoded = code.encode(message)
    damaged = apply_erasure(encoded, event)
    repaired = plan.apply(damaged)
    rho = partial_trace(repaired, plan.output_register)
    return TrialResult(
        fidelity=fidelity_with_pure(rho, message),
        purity=rho.purity(),
    )


def run_recovery_trials(code: CodeSpec, plan: RecoveryPlan, channel, trials) -> list[TrialResult]:
    """``run_recovery_trial`` for every trial at the plan's damaged site,
    ``plan.bad_position``, with the trials stacked.

    ``trials`` yields (message amplitudes, channel seed) pairs and is taken
    lazily.  ``channel`` is a seeded channel family such as
    ``cli.ChannelSpec``: ``channel.shape`` is its (output site dimension,
    environment dimension), and ``channel.columns(seeds)`` the (T, out * env,
    2) stack of the seeds' isometry columns, built and checked once per chunk.

    The plan never touches its bad position and a channel touches only that
    site and a new environment, so the two commute: plan∘encode is one fixed
    (L, D) map W, built once with one contraction per gate, and each trial is
    its message's coefficients times W with its channel then applied at that
    site.  Trials run in chunks of at most ``TRIAL_CHUNK_AMPS`` damaged
    amplitudes, and of at most as many entries of the matrices the channels
    are built from (one trial, if a single trial is larger); every trial
    gets the checks that ``MessageState``, ``PureState`` and
    ``DensityMatrix`` make.  Raises ValueError for anything but a
    ``RecoveryPlan`` (which may not commute with the channel), for a bad
    position outside the code or an output register that does not hold the
    message, before building it for a W of more than ``RECOVERY_MAP_CAP``
    entries, or when a check fails.
    """
    if not isinstance(plan, RecoveryPlan):
        raise ValueError(f"{plan!r} is not a RecoveryPlan, so it may not commute with the "
                         "channel at the damaged site")
    n, k = code.n_physical, code.k_logical
    if not 0 <= plan.bad_position < n:
        raise ValueError(f"position {plan.bad_position} out of range for {n} sites")
    if len(plan.output_register) != k:
        raise ValueError(f"output register {plan.output_register} does not hold {k} message qubits")
    size = len(code.message_labels) * 2**n
    if size > RECOVERY_MAP_CAP:
        raise ValueError(f"recovery map of {len(code.message_labels)} x 2^{n} amplitudes "
                         f"({size}) exceeds the cap {RECOVERY_MAP_CAP}")
    w = circuit_rows(code.encoded_labels(), code.dims, plan.circuit)
    out_dim, env_dim = channel.shape
    rows = out_dim * env_dim
    # a channel's columns come from square matrices of at most rows^2 entries
    per_chunk = max(1, TRIAL_CHUNK_AMPS // max(w.shape[1] // 2 * rows, rows * rows))
    trials = iter(trials)
    results: list[TrialResult] = []
    while chunk := list(itertools.islice(trials, per_chunk)):
        msgs = _message_stack(code, [m for m, _ in chunk], len(results))
        v = channel.columns([seed for _, seed in chunk])
        results += _trial_chunk(code, w, plan, msgs, v.reshape(len(chunk), out_dim, env_dim, 2),
                                len(results))
    return results


def _message_stack(code, rows, first) -> np.ndarray:
    """The (T, 2^k) stack of message amplitude rows, each checked as
    ``MessageState`` and ``encode`` check it."""
    k = code.k_logical
    if any(np.shape(m) != (2**k,) for m in rows):
        raise ValueError(f"a message does not have the {k} qubits the code expects")
    msgs = np.array(rows, dtype=np.complex128)
    norm = np.linalg.norm(msgs, axis=1)
    _require(np.abs(norm - 1.0) <= NORM_TOL, first,
             lambda i: f"message norm {float(norm[i])!r} differs from 1 by more than {NORM_TOL}")
    code._check_support(msgs)
    return msgs


def _trial_chunk(code, w, plan, msgs, v, first) -> list[TrialResult]:
    """Encode-and-plan, damage and score T trials in stacked numpy steps:
    ``msgs`` holds their message amplitudes and ``v`` their channels'
    columns, shaped (T, output site dimension, environment dimension, 2)."""
    n, k, position = code.n_physical, code.k_logical, plan.bad_position
    t, out_dim, env_dim, _ = v.shape
    psi = (msgs[:, list(code.message_labels)] @ w).reshape(t, 2**position, 2, -1)
    # the channel at the damaged site, the environment appended last (apply_erasure)
    damaged = np.einsum("toei,taib->taobe", v, psi)
    norm = np.linalg.norm(damaged.reshape(t, -1), axis=1)
    _require(np.abs(norm - 1.0) <= NORM_TOL, first, lambda i: f"damaged state norm "
             f"{float(norm[i])!r} differs from 1 by more than {NORM_TOL}")

    # output-register axes first, in the register's order, then everything traced
    sites = damaged.reshape((t,) + (2,) * position + (out_dim,)
                            + (2,) * (n - position - 1) + (env_dim,))
    keep = [1 + s for s in plan.output_register]
    x = sites.transpose([0] + keep + [a for a in range(1, sites.ndim) if a not in keep])
    x = x.reshape(t, 2**k, -1)
    rho = x @ x.conj().transpose(0, 2, 1)

    herm = np.max(np.abs(rho - rho.conj().transpose(0, 2, 1)), axis=(1, 2))
    _require(herm <= HERMITICITY_TOL, first, lambda i: "matrix is not Hermitian within tolerance")
    tr = np.trace(rho, axis1=1, axis2=2)
    _require(np.abs(tr - 1.0) <= TRACE_TOL, first,
             lambda i: f"trace {complex(tr[i])!r} differs from 1 by more than {TRACE_TOL}")
    _require(np.linalg.eigvalsh(rho).min(axis=1) >= EIGENVALUE_FLOOR, first,
             lambda i: "matrix has an eigenvalue below the PSD floor")

    overlap = np.einsum("ti,ti->t", msgs.conj(), (rho @ msgs[:, :, None])[:, :, 0]).real
    fidelity = np.minimum(1.0, np.maximum(0.0, overlap))
    purity = np.einsum("tij,tji->t", rho, rho).real
    return [TrialResult(float(f), float(p)) for f, p in zip(fidelity, purity)]


def _require(ok: np.ndarray, first: int, message) -> None:
    """Raise for the first trial where ``ok`` is not True; NaN is never ok."""
    bad = np.flatnonzero(~ok)
    if bad.size:
        raise ValueError(f"trial {first + bad[0]}: {message(bad[0])}")
