"""Known-position single-site error channels.

Every channel is kept as an explicit isometry V from the damaged qubit into
(site-out tensor environment), so the global state stays pure and recovery
claims can be checked exactly.  Pauli errors are the env_dim=1 special case;
leakage promotes the site to dimension d > 2.
"""

from __future__ import annotations

import numpy as np

from .gates import PAULI_BY_KIND, haar_unitary
from .states import PureState, orthonormality_deviation

ISOMETRY_TOL = 1e-12
DEFAULT_ENV_DIM = 4


class DecoherenceIsometry:
    """Isometry columns mapping qubit basis states into site-out x env.

    ``columns`` has shape (qubit_out_dim * env_dim, 2); row index runs over
    (site level, env level) with the site level most significant.
    """

    __slots__ = ("env_dim", "qubit_out_dim", "columns")

    def __init__(self, env_dim: int, qubit_out_dim: int, columns):
        env_dim = int(env_dim)
        qubit_out_dim = int(qubit_out_dim)
        if env_dim < 1:
            raise ValueError("environment dimension must be at least 1")
        if qubit_out_dim < 2:
            raise ValueError("output site dimension must be at least 2")
        columns = np.array(columns, dtype=np.complex128)
        if columns.shape != (qubit_out_dim * env_dim, 2):
            raise ValueError(
                f"columns shape {columns.shape} does not match "
                f"({qubit_out_dim * env_dim}, 2)"
            )
        dev = orthonormality_deviation(columns)
        if not dev <= ISOMETRY_TOL:
            raise ValueError(f"columns are not an isometry (deviation {dev:.3e})")
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
    if kind not in PAULI_BY_KIND:
        raise ValueError(f"unknown Pauli kind {kind!r}, expected one of I, X, Y, Z")
    return DecoherenceIsometry(1, 2, PAULI_BY_KIND[kind])


def random_decoherence(seed, env_dim: int = DEFAULT_ENV_DIM) -> DecoherenceIsometry:
    """Seeded generic entangling channel: two orthonormal columns of a Haar
    unitary on qubit x environment.  env_dim=1 degenerates to a random
    single-qubit unitary."""
    if env_dim < 1:
        raise ValueError("environment dimension must be at least 1")
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
    if leak_dim < 3:
        raise ValueError("leakage needs at least 3 site levels")
    if env_dim < 1:
        raise ValueError("environment dimension must be at least 1")
    rng = np.random.default_rng(seed)
    qubit_block = haar_unitary(2 * env_dim, rng)[:, :2]
    if leak_weight is None:
        leak_weight = float(rng.uniform())
    if not 0.0 <= leak_weight <= 1.0:
        raise ValueError(f"leak weight {leak_weight} outside [0, 1]")
    leak_levels = (leak_dim - 2) * env_dim
    columns = np.zeros((leak_dim * env_dim, 2), dtype=np.complex128)
    columns[: 2 * env_dim] = np.sqrt(1.0 - leak_weight) * qubit_block
    if leak_weight > 0.0:
        if leak_levels < 2:
            raise ValueError(
                "leaked subspace too small for two orthonormal images; "
                f"need (leak_dim - 2) * env_dim >= 2, got {leak_levels}"
            )
        leak_block = haar_unitary(leak_levels, rng)[:, :2]
        columns[2 * env_dim :] = np.sqrt(leak_weight) * leak_block
    return DecoherenceIsometry(env_dim, leak_dim, columns)


def decoherence_columns(
    seeds,
    env_dim: int = DEFAULT_ENV_DIM,
    leak_dim: int = 2,
    leak_weight: float | None = None,
) -> np.ndarray:
    """The columns of ``random_decoherence`` (``leak_dim`` 2) or of
    ``leakage_decoherence`` for every seed, as one (T, leak_dim * env_dim, 2)
    stack.

    Each seed gets its own generator and the same draws, in the same order,
    as there, so row t equals that builder's columns for ``seeds[t]``.  Each
    Haar block is one batched QR of the two columns kept, and one isometry
    check covers the stack.
    """
    if env_dim < 1:
        raise ValueError("environment dimension must be at least 1")
    if leak_dim < 2:
        raise ValueError("output site dimension must be at least 2")
    if leak_weight is not None and not 0.0 <= leak_weight <= 1.0:
        raise ValueError(f"leak weight {leak_weight} outside [0, 1]")
    rngs = [np.random.default_rng(seed) for seed in seeds]
    columns = haar_unitary(2 * env_dim, rngs, 2)
    if leak_dim > 2:
        weights = np.array([rng.uniform() for rng in rngs] if leak_weight is None
                           else [leak_weight] * len(rngs))
        leak_levels = (leak_dim - 2) * env_dim
        columns = np.concatenate([np.sqrt(1.0 - weights)[:, None, None] * columns,
                                  np.zeros((len(rngs), leak_levels, 2))], axis=1)
        leaky = weights > 0.0
        if leaky.any():
            if leak_levels < 2:
                raise ValueError(
                    "leaked subspace too small for two orthonormal images; "
                    f"need (leak_dim - 2) * env_dim >= 2, got {leak_levels}"
                )
            leak_block = haar_unitary(leak_levels, [g for g, x in zip(rngs, leaky) if x], 2)
            columns[leaky, 2 * env_dim :] = np.sqrt(weights[leaky])[:, None, None] * leak_block
    dev = orthonormality_deviation(columns)
    if not dev <= ISOMETRY_TOL:
        raise ValueError(f"columns are not an isometry (deviation {dev:.3e})")
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
