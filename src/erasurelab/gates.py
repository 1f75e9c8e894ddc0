"""Gate constructors and circuit plumbing.

Circuits are stored in written order and executed from the last element to
the first, so a list transcribing an operator product U3 U2 U1 applies U1
first.  Controlled gates list their control sites before the target site.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# apply_local_operator is re-exported: perfbench's tracer test patches the name here
from .states import (PureState, SiteDims, _contract, apply_local_operator,  # noqa: F401
                     orthonormality_deviation)

GATE_UNITARITY_TOL = 1e-12

PAULI_I = np.eye(2, dtype=np.complex128)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2)

CNOT_MATRIX = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=np.complex128
)
CZ_MATRIX = np.diag([1, 1, 1, -1]).astype(np.complex128)
TOFFOLI_MATRIX = np.eye(8, dtype=np.complex128)
TOFFOLI_MATRIX[6:8, 6:8] = PAULI_X

PAULI_BY_KIND = {"I": PAULI_I, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}

_STANDARD = {
    "H": HADAMARD,
    "X": PAULI_X,
    "Y": PAULI_Y,
    "Z": PAULI_Z,
    "CNOT": CNOT_MATRIX,
    "CZ": CZ_MATRIX,
    "TOFFOLI": TOFFOLI_MATRIX,
}

GATE_KINDS = frozenset(_STANDARD) | {"CUSTOM"}
_SPARSE_KINDS = frozenset(["H", "X", "Z", "CNOT", "CZ", "TOFFOLI"])  # circuit_entries runs these


class Gate:
    """A unitary with a kind label.  Its arity, the number of sites it acts
    on, is read off the matrix: log2 of a power-of-two side, else 1 (one
    qudit)."""

    __slots__ = ("kind", "matrix", "arity")

    def __init__(self, kind: str, matrix):
        if kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {kind!r}")
        matrix = np.array(matrix, dtype=np.complex128)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"gate matrix must be square, got shape {matrix.shape}")
        side = matrix.shape[0]
        dev = orthonormality_deviation(matrix)
        if not dev <= GATE_UNITARITY_TOL:
            raise ValueError(f"gate matrix is not unitary (deviation {dev:.3e})")
        self.kind = kind
        matrix.setflags(write=False)
        self.matrix = matrix
        log = side.bit_length() - 1
        self.arity = log if 2**log == side else 1

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def dagger(self) -> "Gate":
        """The adjoint: the gate itself if exactly Hermitian (every standard gate)."""
        adjoint = self.matrix.conj().T
        return self if np.array_equal(adjoint, self.matrix) else Gate(self.kind, adjoint)

    def __repr__(self) -> str:
        return f"Gate({self.kind}, arity={self.arity})"


@functools.cache
def standard_gate(kind: str) -> Gate:
    """The gate of a standard kind, built and checked once per process."""
    if kind not in _STANDARD:
        raise ValueError(f"unknown standard gate kind {kind!r}")
    return Gate(kind, _STANDARD[kind])


def custom_gate(matrix) -> Gate:
    return Gate("CUSTOM", matrix)


def haar_unitary(dim: int, rng, columns: int | None = None) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix, with the
    phases of R's diagonal moved into Q (Mezzadri, math-ph/0609050).

    ``rng`` is one generator, or a sequence of them: then each draws its own
    matrix, exactly as it would alone, and the (T, dim, dim) stack of
    unitaries comes from one batched QR.  With ``columns``, every entry is
    drawn but the QR runs on the first ``columns`` only, which is all they need.
    """
    if dim < 1:
        raise ValueError("dimension must be positive")
    single = isinstance(rng, np.random.Generator)
    generators = [rng] if single else list(rng)
    draws = np.reshape([g.standard_normal((2, dim, dim)) for g in generators], (-1, 2, dim, dim))
    z = np.empty((len(generators), dim, min(dim, columns or dim)), dtype=np.complex128)
    z.real, z.imag = draws[:, 0, :, : z.shape[2]], draws[:, 1, :, : z.shape[2]]  # real first
    z /= math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    q = q * (d / np.abs(d))[:, None, :]
    return q[0] if single else q


class CircuitOp:
    """One gate bound to an ordered tuple of distinct target sites."""

    __slots__ = ("gate", "targets")

    def __init__(self, gate: Gate, targets):
        targets = tuple(int(t) for t in targets)
        if len(targets) != gate.arity:
            raise ValueError(f"gate {gate.kind} needs {gate.arity} sites, got {len(targets)}")
        if len(set(targets)) != len(targets):
            raise ValueError(f"duplicate sites in {targets}")
        if any(t < 0 for t in targets):
            raise ValueError(f"negative site index in {targets}")
        self.gate = gate
        self.targets = targets

    def __repr__(self) -> str:
        return f"{self.gate.kind}{self.targets}"


class Circuit:
    """Sequence of gate applications on a fixed register, in written order."""

    __slots__ = ("ops", "dims")

    def __init__(self, ops, dims):
        self.dims = dims if isinstance(dims, SiteDims) else SiteDims(dims)
        ops = tuple(ops)
        n = len(self.dims)
        for op in ops:
            if any(t >= n for t in op.targets):
                raise ValueError(f"op {op!r} targets a site outside the {n}-site register")
            side = math.prod(self.dims[t] for t in op.targets)
            if side != op.gate.dim:
                raise ValueError(
                    f"op {op!r} acts on dimension {side}, gate matrix is {op.gate.dim}x{op.gate.dim}"
                )
        self.ops = ops

    def __len__(self) -> int:
        return len(self.ops)

    def __repr__(self) -> str:
        return f"Circuit({list(self.ops)!r}, dims={tuple(self.dims)})"


def op(kind: str, *targets: int) -> CircuitOp:
    """Shorthand for CircuitOp(standard_gate(kind), targets)."""
    return CircuitOp(standard_gate(kind), targets)


def apply_circuit(state: PureState, circuit: Circuit) -> PureState:
    """Run the circuit on a state, last written op first.

    The state may carry extra sites (for example an appended environment) and
    sites whose dimension differs from the circuit register, as long as every
    site the circuit actually touches exists and has the dimension the
    circuit was built for.
    """
    return PureState(state.dims, circuit_rows(state.amps, state.dims, circuit))


def circuit_rows(amps: np.ndarray, dims: tuple[int, ...], circuit: Circuit) -> np.ndarray:
    """``apply_circuit`` on a flat amplitude vector over ``dims``, or on a
    stack of them (leading axes) with one contraction per op for the whole
    stack.  Checks once that the circuit fits the register."""
    _check_fits(circuit, dims)
    # gate unitarity was checked once, at Gate construction (1e-12)
    for c_op in reversed(circuit.ops):
        amps = _contract(amps, dims, c_op.gate.matrix, c_op.targets)
    return amps


def _check_fits(circuit: Circuit, dims) -> None:
    for c_op in circuit.ops:
        for t in c_op.targets:
            if t >= len(dims) or dims[t] != circuit.dims[t]:
                raise ValueError(f"op {c_op!r} does not fit the state register {tuple(dims)}")


def circuit_entries(idx: np.ndarray, val: np.ndarray, dims, circuit: Circuit):
    """``circuit_rows`` on a stack of amplitude rows over ``dims`` kept as
    entries: ``val[e]`` sits at row ``idx[e] // total``, column ``idx[e] %
    total``, keys distinct.  Returns the result's nonzero entries, keys ascending.

    X, CNOT and Toffoli send a basis state to a basis state, Z and CZ to a
    signed one, and H to two (Gottesman, quant-ph/9807006).  So X, CNOT and
    Toffoli flip the target bit of each key whose controls are set, Z and CZ
    negate each value whose targets are all set, and H takes the dense
    contraction's product with each pair of keys that differ in its bit, bit
    for bit.  Any other op, one whose matrix is not exactly its kind's
    standard one, or a site that is not a qubit sends the whole circuit
    through ``circuit_rows``."""
    _check_fits(circuit, dims)
    n = len(dims)
    idx, val = np.asarray(idx, dtype=np.int64), np.asarray(val, dtype=np.complex128)
    if any(d != 2 for d in dims) or not all(
            c_op.gate.kind in _SPARSE_KINDS
            and np.array_equal(c_op.gate.matrix, _STANDARD[c_op.gate.kind])
            for c_op in circuit.ops):
        total = math.prod(dims)
        dense = np.zeros((int(idx.max(initial=-1)) // total + 1, total), dtype=np.complex128)
        dense.flat[idx] = val
        out = circuit_rows(dense, dims, circuit).reshape(-1)
        idx = np.flatnonzero(out)
        return idx, out[idx]
    for c_op in reversed(circuit.ops):
        kind, bits = c_op.gate.kind, [1 << n - 1 - t for t in c_op.targets]
        if kind in ("Z", "CZ"):
            val = np.where(idx & sum(bits) == sum(bits), -val, val)
        elif kind != "H":  # X, CNOT, TOFFOLI: the last target flips when the others are set
            idx = idx ^ (idx & sum(bits[:-1]) == sum(bits[:-1])) * bits[-1]
        else:
            rest = idx & ~bits[0]
            order = rest.argsort(kind="stable")
            rest = rest[order]
            first = np.ones(len(rest), dtype=bool)  # each pair's first entry
            first[1:] = rest[1:] != rest[:-1]
            pairs = np.count_nonzero(first)
            # at least two columns, so the product is the matrix-matrix one the dense
            # contraction takes: a lone column would take a matrix-vector product
            block = np.zeros((2, max(2, pairs)), dtype=np.complex128)
            block[idx[order] // bits[0] & 1, first.cumsum() - 1] = val[order]
            val = (c_op.gate.matrix @ block)[:, :pairs].reshape(-1)
            idx = np.concatenate([rest[first], rest[first] | bits[0]])
    order = idx.argsort()
    idx, val = idx[order], val[order]
    keep = val != 0  # NaN is kept
    return idx[keep], val[keep]


def invert_circuit(circuit: Circuit) -> Circuit:
    """Reversed op list with every gate conjugate-transposed."""
    ops = tuple(CircuitOp(c_op.gate.dagger(), c_op.targets) for c_op in reversed(circuit.ops))
    return Circuit(ops, circuit.dims)
