"""Independent reference for the benchmark's correctness checks.

Plain numpy only; nothing here imports erasurelab.  Logical states are
built straight from the paper's formulas, and the two claims are decided
from one per-site overlap tensor:

    split |i> = sum_a |a>_p (x) |w_ia>   over the erased site p,
    O[i, a, j, b] = <w_ia | w_jb>.

An erasure at p is correctable exactly when O[i, :, j, :] = delta_ij g for
one 2x2 matrix g (the Knill-Laflamme condition for the full one-site
operator algebra).  Every single-site marginal of every encoded message is
I/2 exactly when, in addition, g = I/2, because Tr_rest |i><j| at site p is
O[j, :, i, :] transposed.
"""

from __future__ import annotations

import math

import numpy as np

TOLERANCE = 1e-10

# Images of the single-excitation messages |001>, |010>, |100> in the
# five-qubit code, each (|u> + |u-complement>)/sqrt(2): message index -> u.
W5_PATTERNS = {0b001: 0b00001, 0b010: 0b00100, 0b100: 0b00010}


def ghz_block(bits: list[int], sign: int) -> np.ndarray:
    """(|bits> + sign |bits-complement>)/sqrt(2) on len(bits) qubits."""
    n = len(bits)
    idx = int("".join(str(b) for b in bits), 2)
    amps = np.zeros(2**n, dtype=np.complex128)
    amps[idx] = 1 / math.sqrt(2)
    amps[2**n - 1 - idx] += sign / math.sqrt(2)
    return amps


def ghz_pair_basis(n: int) -> np.ndarray:
    """Rows: logical states of the 2n-qubit hiding code (n = 3 is the
    six-qubit code).  Message bits b_0..b_{n-1} select the block
    (|b_0 .. b_{n-2} 0> + (-1)^{b_{n-1}} |complement>)/sqrt(2), and the
    logical state is that block on the message half times the same block
    on the ancilla half.  n = 1 is the Bell pair (|00> +/- |11>)/sqrt(2)."""
    if n == 1:
        return np.stack([ghz_block([0, 0], 1), ghz_block([0, 0], -1)])
    rows = []
    for i in range(2**n):
        bits = [(i >> (n - 1 - j)) & 1 for j in range(n)]
        block = ghz_block(bits[:-1] + [0], -1 if bits[-1] else 1)
        rows.append(np.kron(block, block))
    return np.stack(rows)


def w5_basis() -> np.ndarray:
    """Rows: the five-qubit code's logical states, in message-index order."""
    rows = []
    for m in sorted(W5_PATTERNS):
        amps = np.zeros(32, dtype=np.complex128)
        amps[W5_PATTERNS[m]] = amps[31 - W5_PATTERNS[m]] = 1 / math.sqrt(2)
        rows.append(amps)
    return np.stack(rows)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def locally_rotated(basis: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """The same code under a product of independent single-site unitaries."""
    n = int(round(math.log2(basis.shape[1])))
    full = np.ones((1, 1), dtype=np.complex128)
    for _ in range(n):
        full = np.kron(full, haar_unitary(2, rng))
    return basis @ full.T


def random_subspace(n_qubits: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """Rows: an orthonormal basis of a random dim-dimensional subspace."""
    z = rng.standard_normal((2**n_qubits, dim)) + 1j * rng.standard_normal((2**n_qubits, dim))
    q, _ = np.linalg.qr(z)
    return q.T.copy()


def site_overlaps(basis: np.ndarray, site: int) -> np.ndarray:
    """O[i, a, j, b] = <w_ia | w_jb> for the split at one site."""
    n = int(round(math.log2(basis.shape[1])))
    sectors = basis.reshape((basis.shape[0],) + (2,) * n)
    sectors = np.moveaxis(sectors, site + 1, 1).reshape(2 * basis.shape[0], -1)
    return (sectors.conj() @ sectors.T).reshape(basis.shape[0], 2, basis.shape[0], 2)


def site_verdict(basis: np.ndarray, site: int, tol: float = TOLERANCE) -> tuple[bool, bool]:
    """(erasure at `site` is correctable, every marginal at `site` is I/2)."""
    o = site_overlaps(basis, site)
    n_logical = basis.shape[0]
    diag = np.stack([o[i, :, i, :] for i in range(n_logical)])
    cross = o.copy()
    for i in range(n_logical):
        cross[i, :, i, :] = 0.0
    g = diag[0]
    # NaN compares false, so a non-finite basis never passes
    cross_ok = bool(np.max(np.abs(cross)) <= tol)
    correctable = cross_ok and bool(np.max(np.abs(diag - g)) <= tol)
    hidden = correctable and bool(np.max(np.abs(g - np.eye(2) / 2)) <= tol)
    return correctable, hidden


def code_verdict(basis: np.ndarray, tol: float = TOLERANCE) -> list[tuple[bool, bool]]:
    n = int(round(math.log2(basis.shape[1])))
    return [site_verdict(basis, p, tol) for p in range(n)]
