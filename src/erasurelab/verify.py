"""Code certification and end-to-end recovery trials.

Three families of checks live here:

* exact per-site certificates, all contractions of one sector-overlap
  tensor (``sector_overlaps``) gathered from the code's compact rows: the
  pairwise error-correction conditions for the Paulis at one site, the
  single-operator form for an erasure at a known position, and maximally
  mixed single-site marginals (``certify`` gives all three at every site,
  for sparse codes from every site's stored entries, ``overlap_entries``),
  each scored from the tensor's 2x2 blocks by one scorer, ``_score_blocks``,
* numerical synthesis of a recovery unitary from the same tensor, which
  refuses whenever the code cannot correct the erasure; the decoder is a
  ``RecoveryPlan`` whose circuit is one ``CUSTOM`` gate on the intact
  sites.  ``recover`` synthesizes only for codes without a circuit plan
  (w5, the Bell pair), since the dense decoder is capped at
  ``SYNTHESIS_DIM_CAP`` rest amplitudes,
* seeded checks: marginals of random messages through the encoder, from
  the encoded nonzeros (``site_deviations``), and encode / damage / repair
  trials scored by fidelity and purity, one at a time through the encoder
  (``run_recovery_trial``) or stacked on the held columns of W = plan∘basis
  (``run_recovery_trials``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .codes import CodeSpec, RecoveryPlan
from .gates import (GATE_UNITARITY_TOL, PAULI_BY_KIND, Circuit, CircuitOp, circuit_entries,
                    custom_gate)
from .noise import ErasureEvent, apply_erasure
from .states import (DEFAULT_DIMENSION_CAP, NORM_TOL, MessageState, _require,
                     check_density_stack, fidelity_with_pure, orthonormality_deviation,
                     partial_trace)

DEFAULT_TOLERANCE = 1e-10
DEFAULT_TRIALS = 25
DEFAULT_SEED = 42
RANK_CUTOFF = 1e-12
SYNTHESIS_DIM_CAP = 1024
TRIALS_CAP = 100_000  # recover --trials: the report keeps one row per trial
TRIAL_CHUNK_AMPS = DEFAULT_DIMENSION_CAP // 16  # amplitudes or block entries per stacked chunk
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

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


@dataclass(frozen=True)
class TrialResult:
    fidelity: float
    purity: float


class ErrorOperatorSet:
    """The four Paulis, ``PAULIS``, at one known position.  They span the
    one-qubit operator algebra, so passing the pairwise conditions on them
    certifies arbitrary errors at that site."""

    __slots__ = ("position",)
    operators = PAULIS

    def __init__(self, position: int):
        position = int(position)
        if position < 0:
            raise ValueError("position must be nonnegative")
        self.position = position

    @classmethod
    def pauli_set(cls, position: int) -> "ErrorOperatorSet":
        return cls(position)


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


def _blocks(overlaps: list[np.ndarray]):
    """``_score_blocks``'s input from some sites' ``sector_overlaps``
    tensors: every block B = O[i, :, j, :], in (site, i, j) order."""
    # the one copy, made straight into (a, b, site, i, j) order
    blocks = np.stack([o.transpose(1, 3, 0, 2) for o in overlaps], axis=2)
    n_sites, n_logical = blocks.shape[2:4]
    blocks = blocks.reshape(4, -1)
    diag = np.tile(np.eye(n_logical, dtype=bool).ravel(), n_sites)
    return blocks, diag, np.arange(n_sites) * n_logical**2


def _score_blocks(blocks, diag, sites, g=None):
    """Per-site deviations of overlap blocks B = O[i, :, j, :]: column c of
    ``blocks`` holds B[a, b] at row 2a + b, ``diag[c]`` marks i == j, and a
    site's blocks, all L diagonal ones among them, start at its ``sites`` column.

    Returns, per site, the KL deviation for the Paulis M, the larger of max
    |<i|M|j>| over i != j and the spread of <i|M|i> = sum_ab M[a, b] B[a, b]
    over i, and max |B - delta_ij g| (g = I/2 by default).  The spread, the
    hypot of the real and imaginary ranges, bounds max |<i|M|i> - <j|M|j>|
    above and equals it when each <i|M|i> is real.  NaN gives NaN rows."""
    g = (PAULIS[0] / 2 if g is None else g).reshape(4, 1)
    m = PAULIS.reshape(4, 4) @ blocks
    off = np.where(diag, 0, np.abs(m).max(axis=0))
    dev = np.abs(blocks).max(axis=0)
    dev[diag] = np.abs(blocks[:, diag] - g).max(axis=0)
    worst = np.maximum.reduceat(np.stack([off, dev]), sites, axis=1)
    d = m[:, diag].reshape(4, len(sites), -1)
    spread = np.hypot(np.ptp(d.real, axis=2), np.ptp(d.imag, axis=2)).max(axis=0)
    return np.maximum(worst[0], spread), worst[1]


def check_kl_general(code: CodeSpec, errors: ErrorOperatorSet,
                     tolerance: float = DEFAULT_TOLERANCE) -> VerificationReport:
    """Pairwise conditions: <i|A_a^dag A_b|j> must be delta_ij times a
    constant that does not depend on the logical index, for every pair of
    Paulis.  Each product is a unit phase times a Pauli, so the one Pauli
    contraction scores them all, as in ``certify``."""
    p = errors.position
    (kl,), _ = _score_blocks(*_blocks([sector_overlaps(code, p)]))
    return VerificationReport((CheckResult.within(f"kl_general_pos{p}", kl, tolerance),))


def check_erasure_kl(code: CodeSpec, position: int,
                     tolerance: float = DEFAULT_TOLERANCE) -> VerificationReport:
    """Single-operator conditions for a known erased site: every Pauli must
    have equal diagonal matrix elements and no off-diagonal ones."""
    (kl,), _ = _score_blocks(*_blocks([sector_overlaps(code, position)]))
    return VerificationReport((CheckResult.within(f"erasure_kl_pos{position}", kl, tolerance),))


def overlap_entries(code: CodeSpec, max_pairs: float = np.inf):
    """The stored entries of ``sector_overlaps`` at every site at once: the
    ascending keys ((p * L + i) * L + j) * 4 + 2a + b of O[i, a, j, b] at site
    p and their values, or None if they take more than ``max_pairs`` pairs.

    The nonzeros (i, s, v) of ``code.rows`` meet in O only within one rest
    column r = support[s] & ~bit_p of a site's split, so each such group adds
    conj(v) v' for every ordered pair of its nonzeros, and equal keys are
    merged; every entry not stored is exactly 0."""
    n, rows, n_logical = code.n_physical, code.rows, len(code.message_labels)
    i, s = rows.nonzero()
    # a site puts its nonzeros in at most |support| groups: n nnz^2 / |support| pairs at least
    if n * len(s) ** 2 > max_pairs * len(code.support):
        return None
    bit = 1 << np.arange(n - 1, -1, -1)[:, None]  # site p holds bit n - 1 - p of a column
    col = code.support[s]
    group = ((np.arange(n)[:, None] << n) | (col & ~bit)).ravel()
    order = group.argsort(kind="stable")  # each group in ascending x = 2i + a, a the bit at p
    group = group[order]
    starts = np.flatnonzero(np.concatenate(([True], group[1:] != group[:-1])))
    sizes = np.diff(starts, append=len(order))
    per = sizes.repeat(sizes)  # the pairs each nonzero starts, as the left one
    if per.sum() > max_pairs:
        return None
    x, v = (2 * i + (col & bit > 0)).ravel()[order], rows[i, s][order % len(s)]
    left = np.arange(len(order)).repeat(per)
    right = (starts.repeat(sizes) - per.cumsum() + per).repeat(per) + np.arange(len(left))
    xl, xr = x[left], x[right]
    keys = ((order[left] // len(s) * n_logical + xl // 2) * n_logical + xr // 2) * 4
    keys += 2 * (xl % 2) + xr % 2
    order = keys.argsort(kind="stable")  # not np.unique: its first call imports numpy.ma
    keys = keys[order]
    first = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    return keys[first], np.add.reduceat((v[left].conj() * v[right])[order], first)


def certify(code: CodeSpec, tolerance: float = DEFAULT_TOLERANCE) -> VerificationReport:
    """Every certificate at every site: the pairwise Pauli conditions
    (``kl_general_pos*``), the erasure conditions (``erasure_kl_pos*``) and
    exact marginal hiding (``hiding_site*``), in that order.  Each product
    P_a^dag P_b is a unit phase times a Pauli, so both KL rows carry the one
    Pauli contraction's worst deviation.  Tr_rest |j><i| at a site is
    O[i, :, j, :] transposed, so every message's marginal there is I/2 iff
    O = delta_ij I/2.  NaN in a site's O fails its rows.

    A code whose splits pair up at most L n |support| nonzeros, no more than
    all dense splits hold, is scored from the stored entries of every site's
    O at once (each site stores all L diagonal blocks: every row has a
    nonzero); any other from dense tensors, ``TRIAL_CHUNK_AMPS`` entries at a time."""
    n, n_logical = code.n_physical, len(code.message_labels)
    if (entries := overlap_entries(code, n_logical * n * len(code.support))) is not None:
        keys, values = entries
        pairs = keys >> 2  # (p * L + i) * L + j
        new = np.concatenate(([True], pairs[1:] != pairs[:-1]))  # each block's first entry
        blocks = np.zeros((4, np.count_nonzero(new)), dtype=np.complex128)
        blocks[keys & 3, new.cumsum() - 1] = values
        pairs = pairs[new]
        kl, hiding = _score_blocks(blocks, pairs // n_logical % n_logical == pairs % n_logical,
                                   np.searchsorted(pairs, np.arange(n) * n_logical**2))
    else:
        per = max(1, TRIAL_CHUNK_AMPS // (4 * n_logical**2))
        chunks = [range(n)[first:first + per] for first in range(0, n, per)]
        kl, hiding = map(np.concatenate, zip(*(
            _score_blocks(*_blocks([sector_overlaps(code, p) for p in c])) for c in chunks)))
    rows = (("kl_general_pos", kl), ("erasure_kl_pos", kl), ("hiding_site", hiding))
    return VerificationReport(checks=tuple(CheckResult.within(f"{name}{p}", deviation, tolerance)
                                           for name, column in rows
                                           for p, deviation in enumerate(column)))


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
    worst = float(_score_blocks(*_blocks([overlaps]), g=gram)[1][0])
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
    # freed before the gate copies the matrix, so the peak holds two rest_dim^2
    # matrices, not three (16 MiB each at SYNTHESIS_DIM_CAP)
    del full_source, sectors
    try:  # the one unitarity check, at GATE_UNITARITY_TOL
        gate = custom_gate(unitary)
    except ValueError as exc:  # completing the sources can lose a little orthonormality
        raise RecoverySynthesisError(f"synthesized decoder refused: {exc}",
                                     orthonormality_deviation(unitary)) from exc
    return RecoveryPlan(position, Circuit([CircuitOp(gate, rest)], code.dims), output_register)


def entry_marginals(idx: np.ndarray, val: np.ndarray, n_sites: int) -> np.ndarray:
    """The (n, 2, 2) stack of single-site marginals of the n-qubit state whose
    amplitudes are ``val`` at the ascending, distinct indices ``idx`` and 0
    elsewhere, in one pass over the entries: rho_s[a, a] is the weight with
    site s's bit equal to a, and rho_s[0, 1] = sum v[x] conj(v[x | bit]) over
    the x with the bit clear whose partner is stored.  ``partial_trace(state,
    (s,))`` is the dense oracle.  NaN anywhere gives NaN marginals."""
    bits = 1 << np.arange(n_sites - 1, -1, -1)[:, None]  # site s holds bit n - 1 - s
    weight = val.real**2 + val.imag**2
    ones = (idx & bits) > 0
    partner = idx | bits
    at = np.minimum(np.searchsorted(idx, partner), len(idx) - 1)
    paired = ~ones & (idx[at] == partner)
    rho = np.empty((n_sites, 2, 2), dtype=np.complex128)
    rho[:, 0, 0], rho[:, 1, 1] = ~ones @ weight, ones @ weight
    rho[:, 0, 1] = np.where(paired, val * val[at].conj(), 0).sum(axis=1)
    rho[:, 1, 0] = rho[:, 0, 1].conj()
    return rho


def site_deviations(idx: np.ndarray, val: np.ndarray, n_sites: int) -> np.ndarray:
    """max |rho_s - I/2| for each marginal rho_s (``entry_marginals``), once
    ``check_density_stack`` passes them all; its ValueError names the site."""
    marginals = entry_marginals(idx, val, n_sites)
    check_density_stack(marginals, "site")
    return np.abs(marginals - np.eye(2) / 2).max(axis=(1, 2))


def check_hiding(
    code: CodeSpec,
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
    tolerance: float = DEFAULT_TOLERANCE,
) -> VerificationReport:
    """Encode seeded random messages and compare every single-site marginal
    against the maximally mixed state, from each encoded state's nonzeros."""
    if trials < 1:
        raise ValueError(f"check_hiding needs at least one trial, got {trials}")
    rng = np.random.default_rng(seed)
    worst = np.zeros(code.n_physical)
    for _ in range(trials):
        amps = code.encode(code.random_message(rng)).amps
        idx = np.flatnonzero(amps)
        worst = np.maximum(worst, site_deviations(idx, amps[idx], code.n_physical))
    checks = tuple(CheckResult.within(f"hiding_site{s}", w, tolerance) for s, w in enumerate(worst))
    return VerificationReport(checks=checks)


def run_recovery_trial(code: CodeSpec, message: MessageState, event: ErasureEvent,
                       plan) -> TrialResult:
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
    return TrialResult(fidelity_with_pure(rho, message), rho.purity())


def run_recovery_trials(code: CodeSpec, plan: RecoveryPlan, channel, trials) -> list[TrialResult]:
    """``run_recovery_trial`` for every trial at the plan's damaged site,
    ``plan.bad_position``, with the trials stacked.

    ``trials`` yields (message amplitudes, channel seed) pairs and is taken
    lazily.  ``channel`` is a seeded channel family such as
    ``noise.ChannelSpec``: ``channel.shape`` is its (output site dimension,
    environment dimension), and ``channel.columns(seeds)`` the (T, out * env,
    2) stack V of the seeds' isometry columns, built and checked once per chunk.

    The plan never touches its bad position and a channel touches only that
    site and a new environment, so the two commute: plan∘encode is one fixed
    map W, the plan run once on the nonzeros of ``code.rows`` (only the
    reference, ``run_recovery_trial``, runs the encoder) and kept on its held
    columns (``_recovery_map``).  T trials take two batched products: psi =
    messages @ W, shaped (T, 2^k held, 2), and the damaged branches x = psi @
    V^T, shaped (T, 2^k, held out env).  The output register's state rho = x
    x^H has the nonzero spectrum of x^H x (Schmidt), so each trial is checked
    and scored on the smaller of the two.  A chunk holds at most
    ``TRIAL_CHUNK_AMPS`` damaged amplitudes, and at most as many entries of
    the matrices the channels are built from (one trial, if a single trial is
    larger); every trial gets the checks that ``MessageState``, ``PureState``
    and ``DensityMatrix`` make.  Raises ValueError for anything but a
    ``RecoveryPlan`` (which may not commute with the channel), for a bad
    position outside the code or an output register that does not hold the
    message, or when a check fails.
    """
    if not isinstance(plan, RecoveryPlan):
        raise ValueError(f"{plan!r} is not a RecoveryPlan, so it may not commute with the "
                         "channel at the damaged site")
    n, k, position = code.n_physical, code.k_logical, plan.bad_position
    if not 0 <= position < n:
        raise ValueError(f"position {position} out of range for {n} sites")
    if len(plan.output_register) != k:
        raise ValueError(f"output register {plan.output_register} does not hold {k} message qubits")
    _, w = _recovery_map(code, plan)
    rows = int(np.prod(channel.shape))
    # a channel's columns come from square matrices of at most rows^2 entries
    per_chunk = max(1, TRIAL_CHUNK_AMPS // max(w.shape[1] // 2 * rows, rows * rows))
    trials = iter(trials)
    results: list[TrialResult] = []
    while chunk := list(itertools.islice(trials, per_chunk)):
        # each message checked as MessageState and encode check it (ragged rows raise here)
        msgs = np.array([m for m, _ in chunk], dtype=np.complex128)
        if msgs.shape[1:] != (2**k,):
            raise ValueError(f"a message does not have the {k} qubits the code expects")
        norm = np.linalg.norm(msgs, axis=1)
        _require(np.abs(norm - 1.0) <= NORM_TOL, len(results), lambda i: f"message norm "
                 f"{float(norm[i])!r} differs from 1 by more than {NORM_TOL}")
        code._check_support(msgs)
        results += _trial_chunk(code, w, msgs, channel.columns([s for _, s in chunk]), len(results))
    return results


def _recovery_map(code: CodeSpec, plan: RecoveryPlan):
    """W = plan∘basis, by ``circuit_entries``, on its held columns: the held
    indices r of the other intact sites (ascending) at which some column (o,
    r, a) of W holds an entry, and W as (L, 2^k held 2), its columns in
    (output register o, held r, damaged bit a) order; the rest are 0."""
    n, k, position = code.n_physical, code.k_logical, plan.bad_position
    i, j = code.rows.nonzero()
    keys, values = circuit_entries(i << n | code.support[j], code.rows[i, j], code.dims,
                                   plan.circuit)
    rest = [s for s in range(n) if s != position and s not in plan.output_register]
    column = np.zeros_like(keys)  # each key's bits at (output register, rest), the first highest
    for site in (*plan.output_register, *rest):
        column = column << 1 | keys >> n - 1 - site & 1
    r = column & (1 << len(rest)) - 1
    held = np.flatnonzero(np.bincount(r))  # not np.unique: its first call imports numpy.ma
    column = ((column >> len(rest)) * len(held) + np.searchsorted(held, r)) * 2
    w = np.zeros((len(code.message_labels), 2**k * len(held) * 2), dtype=np.complex128)
    w[keys >> n, column | keys >> n - 1 - position & 1] = values
    return held, w


def _trial_chunk(code, w, msgs, v, first) -> list[TrialResult]:
    """Score T trials: ``w`` is W on its held columns (``_recovery_map``),
    ``msgs`` the (T, 2^k) message amplitudes and ``v`` the channels' (T, out
    * env, 2) columns."""
    t = len(msgs)
    psi = (msgs[:, list(code.message_labels)] @ w).reshape(t, -1, 2)
    # the channel at the damaged site, the environment after its output (apply_erasure)
    x = (psi @ v.transpose(0, 2, 1)).reshape(t, 2**code.k_logical, -1)
    parts = x.reshape(t, -1).view(np.float64)  # each amplitude's real and imaginary parts
    norm = np.sqrt(np.einsum("ti,ti->t", parts, parts))
    _require(np.abs(norm - 1.0) <= NORM_TOL, first, lambda i: f"damaged state norm "
             f"{float(norm[i])!r} differs from 1 by more than {NORM_TOL}")
    xh = x.conj().transpose(0, 2, 1)
    gram = x @ xh if x.shape[1] <= x.shape[2] else xh @ x  # rho = x x^H, or its Schmidt twin
    check_density_stack(gram, "trial", first)
    parts = (msgs[:, None].conj() @ x).reshape(t, -1).view(np.float64)  # |m^H x|^2 = <m|rho|m>
    fidelity = np.minimum(1.0, np.maximum(0.0, np.einsum("ti,ti->t", parts, parts)))
    parts = gram.reshape(t, -1).view(np.float64)
    purity = np.einsum("ti,ti->t", parts, parts)  # tr rho^2 = sum |G_ab|^2
    return [TrialResult(f, p) for f, p in zip(fidelity.tolist(), purity.tolist())]
