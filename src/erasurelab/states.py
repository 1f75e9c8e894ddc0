"""Dense state vectors and density matrices over tensor products of finite
dimensional sites.

Basis convention: the leftmost site is the most significant digit of the
mixed-radix index, so a qubit register |b0 b1 ... bk-1> sits at index
sum_i b_i * 2**(k-1-i).  Sites may have dimension greater than 2, which is
how leakage out of the qubit subspace is modeled.
"""

from __future__ import annotations

import math

import numpy as np

DEFAULT_DIMENSION_CAP = 2**20
NORM_TOL = 1e-12
HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-12
OPERATOR_UNITARITY_TOL = 1e-10


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class SiteDims(tuple):
    """Ordered per-site dimensions of a register: a tuple of ints, each at
    least 2, whose product (the total dimension) is capped so that a
    mistyped register cannot silently allocate gigabytes.
    """

    __slots__ = ()

    def __new__(cls, dims):
        dims = tuple(int(d) for d in dims)
        if not dims:
            raise ValueError("a register needs at least one site")
        if any(d < 2 for d in dims):
            raise ValueError(f"every site dimension must be >= 2, got {dims}")
        total = math.prod(dims)
        if total > DEFAULT_DIMENSION_CAP:
            raise ValueError(f"total dimension {total} exceeds the cap {DEFAULT_DIMENSION_CAP}")
        return super().__new__(cls, dims)

    @classmethod
    def qubits(cls, n: int) -> "SiteDims":
        return cls((2,) * n)

    @property
    def total(self) -> int:
        return math.prod(self)

    def __repr__(self) -> str:
        return f"SiteDims({tuple(self)})"

    def replaced(self, position: int, dim: int) -> "SiteDims":
        new = list(self)
        new[position] = dim
        return SiteDims(new)

    def appended(self, dim: int) -> "SiteDims":
        return SiteDims(self + (dim,))


class PureState:
    """Unit-norm pure state over a SiteDims register.  Immutable."""

    __slots__ = ("dims", "amps")

    def __init__(self, dims, amps):
        self.dims = dims if isinstance(dims, SiteDims) else SiteDims(dims)
        amps = np.array(amps, dtype=np.complex128).reshape(-1)
        if amps.size != self.dims.total:
            raise ValueError(
                f"amplitude vector has length {amps.size}, register needs {self.dims.total}"
            )
        norm = float(np.linalg.norm(amps))
        if not abs(norm - 1.0) <= NORM_TOL:
            raise ValueError(f"state norm {norm!r} differs from 1 by more than {NORM_TOL}")
        self.amps = _frozen(amps)

    @property
    def n_sites(self) -> int:
        return len(self.dims)

    @property
    def tensor(self) -> np.ndarray:
        """Amplitudes reshaped to one axis per site (read-only view)."""
        return self.amps.reshape(self.dims)

    def __repr__(self) -> str:
        return f"PureState(dims={tuple(self.dims)})"


class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite operator on a register."""

    __slots__ = ("dims", "matrix")

    def __init__(self, dims, matrix):
        self.dims = dims if isinstance(dims, SiteDims) else SiteDims(dims)
        matrix = np.array(matrix, dtype=np.complex128)
        d = self.dims.total
        if matrix.shape != (d, d):
            raise ValueError(f"matrix shape {matrix.shape} does not match register dimension {d}")
        check_density_stack(matrix[None])
        self.matrix = _frozen(matrix)

    def purity(self) -> float:
        return float(np.real(np.trace(self.matrix @ self.matrix)))

    def __repr__(self) -> str:
        return f"DensityMatrix(dims={tuple(self.dims)})"


def check_density_stack(rho: np.ndarray, what: str | None = None, first: int = 0) -> None:
    """The checks ``DensityMatrix`` makes, on a (T, d, d) stack: Hermitian,
    unit trace, no eigenvalue below the floor.  Raises ValueError naming the
    first failing matrix as ``what`` and its index, counted from ``first``;
    with no ``what``, the message alone."""
    herm = np.max(np.abs(rho - rho.conj().transpose(0, 2, 1)), axis=(1, 2), initial=0.0)
    _require(herm <= HERMITICITY_TOL, first, lambda i: "matrix is not Hermitian within tolerance",
             what)
    tr = np.trace(rho, axis1=1, axis2=2)
    _require(np.abs(tr - 1.0) <= TRACE_TOL, first,
             lambda i: f"trace {complex(tr[i])!r} differs from 1 by more than {TRACE_TOL}", what)
    _require(np.linalg.eigvalsh(rho).min(axis=1) >= EIGENVALUE_FLOOR, first,
             lambda i: "matrix has an eigenvalue below the PSD floor", what)


def _require(ok: np.ndarray, first: int, message, what: str | None = "trial") -> None:
    """Raise for the first item where ``ok`` is not True; NaN is never ok."""
    bad = np.flatnonzero(~ok)
    if bad.size:
        raise ValueError(("" if what is None else f"{what} {first + bad[0]}: ") + message(bad[0]))


class MessageState(PureState):
    """State of n message qubits prior to encoding: the PureState of
    ``SiteDims.qubits(n)``."""

    __slots__ = ()

    def __init__(self, n: int, amps):
        super().__init__(SiteDims.qubits(int(n)), amps)

    @classmethod
    def basis(cls, n: int, index: int) -> "MessageState":
        amps = np.zeros(2**n, dtype=np.complex128)
        amps[index] = 1.0
        return cls(n, amps)

    @property
    def n(self) -> int:
        return len(self.dims)

    def __repr__(self) -> str:
        return f"MessageState(n={self.n})"


def orthonormality_deviation(matrix: np.ndarray) -> float:
    """max |M^H M - I|: how far the columns of M are from orthonormal (for a
    square M, from unitary), over every matrix of a stack with leading axes.
    NaN anywhere gives NaN."""
    gram = matrix.conj().swapaxes(-1, -2) @ matrix
    # in place on the fresh product: no identity and no difference array
    gram.reshape(gram.shape[:-2] + (-1,))[..., :: gram.shape[-1] + 1] -= 1
    return float(np.max(np.abs(gram)))


def _contract(amps: np.ndarray, dims: tuple[int, ...], op: np.ndarray, targets) -> np.ndarray:
    """Apply ``op`` to the ``targets`` of a flat amplitude vector over ``dims``,
    or of each row of a stack of them (leading axes), and return the new
    vector or stack.  Each row gets the same matrix product a lone vector
    gets.  No checks: callers validate once."""
    lead = amps.shape[:-1]
    b = len(lead)
    perm = list(range(b)) + [b + t for t in targets]
    perm += [b + s for s in range(len(dims)) if s not in targets]
    moved = amps.reshape(lead + tuple(dims)).transpose(perm)
    out = (op @ moved.reshape(lead + (op.shape[0], -1))).reshape(moved.shape)
    return out.transpose(np.argsort(perm)).reshape(amps.shape)


def apply_local_operator(state: PureState, op, targets) -> PureState:
    """Apply a unitary to the listed sites of a pure state.

    The operator acts on the tensor factor picked out by ``targets`` in the
    order given, i.e. its row index runs over the targets with the first
    target most significant.  It must be unitary within
    ``OPERATOR_UNITARITY_TOL``.
    """
    targets = tuple(int(t) for t in targets)
    if not targets:
        raise ValueError("need at least one target site")
    if len(set(targets)) != len(targets):
        raise ValueError(f"duplicate target sites in {targets}")
    n = state.n_sites
    if any(t < 0 or t >= n for t in targets):
        raise ValueError(f"target sites {targets} out of range for {n} sites")
    side = math.prod(state.dims[t] for t in targets)
    op = np.asarray(op, dtype=np.complex128)
    if op.shape != (side, side):
        raise ValueError(f"operator shape {op.shape} does not match target dimension {side}")
    dev = orthonormality_deviation(op)
    if not dev <= OPERATOR_UNITARITY_TOL:
        raise ValueError(f"operator is not unitary (deviation {dev:.3e})")
    return PureState(state.dims, _contract(state.amps, state.dims, op, targets))


def partial_trace(state: PureState, keep) -> DensityMatrix:
    """Reduced density matrix on the kept sites, in the order given."""
    if not isinstance(state, PureState):
        raise TypeError(f"cannot take a partial trace of {type(state).__name__}")
    keep = tuple(int(s) for s in keep)
    if not keep:
        raise ValueError("must keep at least one site")
    if len(set(keep)) != len(keep):
        raise ValueError(f"duplicate sites in keep list {keep}")
    dims = state.dims
    n = len(dims)
    if any(s < 0 or s >= n for s in keep):
        raise ValueError(f"keep list {keep} out of range for {n} sites")
    keep_set = set(keep)
    traced = [s for s in range(n) if s not in keep_set]
    kept_sorted = [s for s in range(n) if s in keep_set]

    psi = state.tensor
    rho_t = np.tensordot(psi, psi.conj(), axes=(traced, traced))
    k = len(keep)
    perm = [kept_sorted.index(s) for s in keep]
    rho_t = rho_t.transpose(perm + [p + k for p in perm])
    d = math.prod(dims[s] for s in keep)
    return DensityMatrix(SiteDims(dims[s] for s in keep), rho_t.reshape(d, d))


def fidelity_with_pure(rho: DensityMatrix, target: PureState) -> float:
    """<target| rho |target>, clamped into [0, 1]."""
    if rho.dims != target.dims:
        raise ValueError(f"register mismatch: {rho.dims} vs {target.dims}")
    val = complex(np.vdot(target.amps, rho.matrix @ target.amps))
    return float(min(1.0, max(0.0, val.real)))


def gram_scores(branches: np.ndarray, target: PureState) -> tuple[float, float]:
    """Fidelity with ``target`` and purity of the kept sites of sum_a |b_a>|a>, from the (h, d)
    rows b_a, one per traced state a that holds any amplitude: rho = sum_a |b_a><b_a| has the
    nonzero spectrum of G_ab = <b_a|b_b> (Schmidt), so G gets rho's checks, tr rho^2 =
    sum |G_ab|^2, and <t|rho|t> = sum_a |<t|b_a>|^2, clamped as ``fidelity_with_pure`` does."""
    # vdot on contiguous rows: a matrix product, or strided rows, lands up to 1.5e-15 further off
    gram = np.array([np.vdot(a, b) for a in branches for b in branches], dtype=np.complex128)
    check_density_stack(gram.reshape(1, len(branches), len(branches)))
    overlap = np.array([np.vdot(target.amps, b) for b in branches])
    fidelity = float(np.vdot(overlap, overlap).real)
    return min(1.0, max(0.0, fidelity)), float(np.vdot(gram, gram).real)
