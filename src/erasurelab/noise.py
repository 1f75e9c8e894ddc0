"""Known-position single-site error channels.

Every channel is kept as an explicit isometry V from the damaged qubit into
(site-out tensor environment), so the global state stays pure and recovery
claims can be checked exactly.  Pauli errors are the env_dim=1 special case;
leakage promotes the site to dimension d > 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gates import PAULI_BY_KIND, haar_unitary
from .states import DEFAULT_DIMENSION_CAP, PureState, orthonormality_deviation

ISOMETRY_TOL = 1e-12
DEFAULT_ENV_DIM = 4


def _check_isometry(columns) -> None:
    """Refuse columns, or a stack of them, that are not orthonormal."""
    dev = orthonormality_deviation(columns)
    if not dev <= ISOMETRY_TOL:
        raise ValueError(f"columns are not an isometry (deviation {dev:.3e})")


class DecoherenceIsometry:
    """Isometry columns mapping qubit basis states into site-out x env.

    ``columns`` has shape (qubit_out_dim * env_dim, 2); row index runs over
    (site level, env level) with the site level most significant.
    """

    __slots__ = ("env_dim", "qubit_out_dim", "columns")

    def __init__(self, env_dim: int, qubit_out_dim: int, columns):
        env_dim = int(env_dim)
        qubit_out_dim = int(qubit_out_dim)
        ChannelSpec(env_dim=env_dim, leak_dim=qubit_out_dim)  # the spec's dimension rules
        columns = np.array(columns, dtype=np.complex128)
        if columns.shape != (qubit_out_dim * env_dim, 2):
            raise ValueError(
                f"columns shape {columns.shape} does not match "
                f"({qubit_out_dim * env_dim}, 2)"
            )
        _check_isometry(columns)
        self.env_dim = env_dim
        self.qubit_out_dim = qubit_out_dim
        self.columns = columns
        columns.setflags(write=False)

    def __repr__(self) -> str:
        return f"DecoherenceIsometry(env_dim={self.env_dim}, out_dim={self.qubit_out_dim})"


class ErasureEvent:
    """One damaged site plus the channel that hit it."""

    __slots__ = ("position", "channel")

    def __init__(self, position: int, channel: DecoherenceIsometry):
        self.position = int(position)
        self.channel = channel

    def __repr__(self) -> str:
        return f"ErasureEvent(position={self.position}, channel={self.channel!r})"


def pauli_error(kind: str) -> DecoherenceIsometry:
    """A definite Pauli rotation: unitary on the site, trivial environment."""
    ChannelSpec(pauli_kind=kind)  # the spec's rules
    return DecoherenceIsometry(1, 2, PAULI_BY_KIND[kind])


def random_decoherence(seed, env_dim: int = DEFAULT_ENV_DIM) -> DecoherenceIsometry:
    """Seeded generic entangling channel: two orthonormal columns of a Haar
    unitary on qubit x environment.  env_dim=1 degenerates to a random
    single-qubit unitary."""
    ChannelSpec(env_dim=env_dim)  # the spec's rules, before anything is drawn
    u = haar_unitary(2 * env_dim, np.random.default_rng(seed))
    return DecoherenceIsometry(env_dim, 2, u[:, :2])


def leakage_decoherence(
    seed,
    leak_dim: int,
    env_dim: int = DEFAULT_ENV_DIM,
    leak_weight: float | None = None,
) -> DecoherenceIsometry:
    """Seeded channel that leaks out of the qubit subspace.

    The damaged site is promoted to ``leak_dim`` levels; both qubit images
    carry weight ``leak_weight`` on the levels >= 2 (drawn uniformly from
    [0, 1] when not given).  At zero weight the qubit block equals
    random_decoherence for the same seed.
    """
    ChannelSpec(env_dim=env_dim, leak_dim=leak_dim, leak_weight=leak_weight)  # as above
    rng = np.random.default_rng(seed)
    qubit_block = haar_unitary(2 * env_dim, rng)[:, :2]
    if leak_weight is None:
        leak_weight = float(rng.uniform())
    columns = np.zeros((leak_dim * env_dim, 2), dtype=np.complex128)
    columns[: 2 * env_dim] = np.sqrt(1.0 - leak_weight) * qubit_block
    if leak_weight > 0.0:
        leak_block = haar_unitary((leak_dim - 2) * env_dim, rng)[:, :2]
        columns[2 * env_dim :] = np.sqrt(leak_weight) * leak_block
    return DecoherenceIsometry(env_dim, leak_dim, columns)


@dataclass(frozen=True)
class ChannelSpec:
    """A seeded channel family: a Pauli (``pauli_kind``), or else the channel
    ``random_decoherence`` (``leak_dim`` 2, the default weight 0) or
    ``leakage_decoherence`` builds from ``env_dim``, ``leak_dim`` and
    ``leak_weight`` (None: drawn from each seed).

    Every rule on a channel is checked here, once, when the spec is made;
    the builders above take theirs from it."""

    pauli_kind: str | None = None
    env_dim: int = 1
    leak_dim: int = 2
    leak_weight: float | None = 0.0

    def __post_init__(self):
        if self.pauli_kind not in (None, *PAULI_BY_KIND):
            raise ValueError(f"unknown Pauli kind {self.pauli_kind!r}, expected one of I, X, Y, Z")
        if self.pauli_kind is not None and self.shape != (2, 1):
            raise ValueError("a Pauli channel has no environment and no leaked levels")
        if self.env_dim < 1:
            raise ValueError("environment dimension must be at least 1")
        if self.leak_dim < 2:
            raise ValueError("output site dimension must be at least 2")
        if self.leak_weight is not None and not 0.0 <= self.leak_weight <= 1.0:
            raise ValueError(f"leak weight {self.leak_weight} outside [0, 1]")
        leak_levels = (self.leak_dim - 2) * self.env_dim
        if self.leak_weight != 0.0 and leak_levels < 2:
            raise ValueError(
                "leaked subspace too small for two orthonormal images; "
                f"need (leak_dim - 2) * env_dim >= 2, got {leak_levels}"
            )

    @property
    def shape(self) -> tuple[int, int]:
        """(output site dimension, environment dimension) of every channel."""
        return self.leak_dim, self.env_dim

    def check_size(self, n_sites: int) -> None:
        """Refuse, before anything is allocated, a channel whose damaged
        n-qubit register or whose Haar matrices (side squared) would exceed
        the dimension cap."""
        sizes = {
            "damaged register dimension": 2 ** (n_sites - 1) * self.leak_dim * self.env_dim,
            "channel Haar matrix size": (2 * self.env_dim) ** 2,
            "leak block Haar matrix size": ((self.leak_dim - 2) * self.env_dim) ** 2,
        }
        for what, size in sizes.items():
            if size > DEFAULT_DIMENSION_CAP:
                raise ValueError(f"{what} {size} exceeds the cap {DEFAULT_DIMENSION_CAP}")

    def columns(self, seeds) -> np.ndarray:
        """The columns of each seed's channel as one (T, leak_dim * env_dim, 2)
        stack.  A Pauli is built once and broadcast.  Otherwise each seed
        gets its own generator and the same draws, in the same order, as in
        ``random_decoherence`` (``leak_dim`` 2) or ``leakage_decoherence``,
        so row t equals that builder's columns for ``seeds[t]``; each Haar
        block is one batched QR of the two columns kept, and one isometry
        check covers the stack."""
        if self.pauli_kind is not None:
            return np.broadcast_to(pauli_error(self.pauli_kind).columns, (len(seeds), 2, 2))
        env_dim, leak_dim = self.env_dim, self.leak_dim
        rngs = [np.random.default_rng(seed) for seed in seeds]
        columns = haar_unitary(2 * env_dim, rngs, 2)
        if leak_dim > 2:
            weights = np.array([rng.uniform() for rng in rngs] if self.leak_weight is None
                               else [self.leak_weight] * len(rngs))
            leak_levels = (leak_dim - 2) * env_dim
            columns = np.concatenate([np.sqrt(1.0 - weights)[:, None, None] * columns,
                                      np.zeros((len(rngs), leak_levels, 2))], axis=1)
            leaky = weights > 0.0
            if leaky.any():
                leak_block = haar_unitary(leak_levels, [g for g, x in zip(rngs, leaky) if x], 2)
                columns[leaky, 2 * env_dim :] = np.sqrt(weights[leaky])[:, None, None] * leak_block
        _check_isometry(columns)
        return columns


def apply_erasure(state: PureState, event: ErasureEvent) -> PureState:
    """Send one site through the channel.

    The damaged site keeps its place (promoted to the channel's output
    dimension if it leaks); the environment, when nontrivial, is appended as
    a new site at the end of the register.
    """
    position = event.position
    if not 0 <= position < state.n_sites:
        raise ValueError(f"position {position} out of range for {state.n_sites} sites")
    if state.dims[position] != 2:
        raise ValueError(
            f"site {position} has dimension {state.dims[position]}; "
            "it is not an intact qubit (already damaged?)"
        )
    ch = event.channel
    v = ch.columns.reshape(ch.qubit_out_dim, ch.env_dim, 2)
    out = np.tensordot(v, state.tensor, axes=([2], [position]))
    # axes are now (site-out, env, untouched sites...); put them back in place
    out = np.moveaxis(out, [0, 1], [position, out.ndim - 1])
    dims = state.dims.replaced(position, ch.qubit_out_dim)
    if ch.env_dim == 1:
        return PureState(dims, out.reshape(-1))
    return PureState(dims.appended(ch.env_dim), out.reshape(-1))
