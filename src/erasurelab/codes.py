"""Code constructions: the six-qubit single-erasure code, its 2n-qubit
marginal-hiding generalization, and a five-qubit code for single-excitation
three-qubit states.

Site layout for the six-qubit code: sites 0..2 carry the three message
qubits, sites 3..5 the three ancillas.  The hiding family for n message
qubits uses sites 0..n-1 for the message and n..2n-1 for the ancillas.

Every logical basis state of the six-qubit and hiding codes is a product of
two identical GHZ-type blocks (|u> + s|u-complement>)/sqrt(2), one on the
message half and one on the ancilla half.

Recovery plans for one known bad site: ``recovery_for`` gives the paper's
circuits for the six-qubit code, and ``hiding_recovery`` gives 3n - 2
Clifford gates for every hiding code with n >= 2 (at n = 3 a second plan
for the six-qubit code).  Erasure decoders of stabilizer codes can be
Clifford (Gottesman, quant-ph/9705052).
"""

from __future__ import annotations

import math

import numpy as np

from .gates import Circuit, apply_circuit, op
from .states import MessageState, PureState, SiteDims, _frozen

GRAM_TOL = 1e-12
SUPPORT_TOL = 1e-12
HIDING_MAX_QUBITS = 8


class CodeSpec:
    """A code given by its orthonormal logical basis over qubit sites.

    ``rows`` is one read-only (L, |support|) array: row j is the state that
    the message index ``message_labels[j]`` (over k qubits) encodes to, on
    the sorted, read-only columns ``support``; every other column is exactly
    zero.  Codes whose message space is a proper subspace (such as the
    five-qubit single-excitation code) list only the labels they support.
    ``logical_basis`` is a dense (L, 2^n) array, compacted and checked here,
    or a zero-argument builder of (rows, support), run and checked on the
    first read of ``rows``.  ``basis`` scatters the rows to (L, 2^n).
    """

    __slots__ = ("label", "n_physical", "k_logical", "message_labels", "encoder", "_rows",
                 "_support", "_where")

    def __init__(self, label, n_physical, k_logical, logical_basis, message_labels, encoder=None):
        n_physical = int(n_physical)
        k_logical = int(k_logical)
        message_labels = tuple(int(m) for m in message_labels)
        if n_physical < 1 or k_logical < 1:
            raise ValueError("physical and logical qubit counts must be positive")
        if not message_labels:
            raise ValueError("logical basis must be nonempty")
        if len(set(message_labels)) != len(message_labels):
            raise ValueError("message labels must be distinct")
        if any(m < 0 or m >= 2**k_logical for m in message_labels):
            raise ValueError(f"message labels out of range for {k_logical} qubits")
        self.label = str(label)
        self.n_physical = n_physical
        self.k_logical = k_logical
        self.message_labels = message_labels
        self.encoder = encoder
        self._rows = logical_basis
        if not callable(logical_basis):
            basis = np.array(logical_basis, dtype=np.complex128)
            want = (len(message_labels), 2**n_physical)
            if basis.shape != want:
                raise ValueError(f"logical basis has shape {basis.shape}, expected {want}")
            support = np.flatnonzero(basis.any(axis=0))  # NaN and inf count as nonzero
            self._rows = self._checked((basis[:, support], support))

    def _checked(self, compact) -> np.ndarray:
        """Check the support, then the rows' shape, values and Gram matrix; keep the
        rows with a trailing zero column and each column's row position, -1 off support."""
        rows, support = compact
        support, dim = np.array(support, dtype=np.intp), 2**self.n_physical
        if not (support.ndim == 1 and (support[1:] > support[:-1]).all()
                and (not support.size or 0 <= support[0] and support[-1] < dim)):
            raise ValueError(f"support is not a sorted list of distinct columns in 0..{dim - 1}")
        want = (len(self.message_labels), len(support))
        if np.shape(rows) != want:
            raise ValueError(f"logical basis rows have shape {np.shape(rows)}, expected {want}")
        padded = np.concatenate([rows, np.zeros((want[0], 1))], axis=1, dtype=np.complex128)
        rows = padded[:, :-1]
        if not np.isfinite(rows).all():
            raise ValueError("logical basis has non-finite amplitudes")
        if (np.abs(rows) > 1 + GRAM_TOL).any():  # before the Gram product can overflow
            raise ValueError("logical basis is not orthonormal: an amplitude has modulus above 1")
        dev = float(np.max(np.abs(rows.conj() @ rows.T - np.eye(len(rows)))))
        if not dev <= GRAM_TOL:
            raise ValueError(f"logical basis is not orthonormal (deviation {dev:.3e})")
        where = np.full(dim, -1, dtype=np.intp)
        where[support] = np.arange(len(support))
        self._support, self._where = _frozen(support), _frozen(where)
        return _frozen(padded)

    @property
    def rows(self) -> np.ndarray:
        if callable(self._rows):
            self._rows = self._checked(self._rows())
        return self._rows[:, :-1]

    @property
    def support(self) -> np.ndarray:
        _ = self.rows  # a builder runs, and so sets the support, on the first read
        return self._support

    def columns(self, cols) -> np.ndarray:
        """``basis[:, cols]`` for ``cols`` of any shape; a column off the support reads zeros."""
        _ = self.rows
        return self._rows.take(self._where[cols], axis=1)  # C-ordered, so reshapes are views

    @property
    def basis(self) -> np.ndarray:
        return _frozen(self.columns(np.arange(2**self.n_physical)))

    @property
    def logical_basis(self) -> tuple[PureState, ...]:
        """The rows of ``basis`` as states, for the benchmark's library checks."""
        return tuple(PureState(self.dims, row) for row in self.basis)

    @property
    def dims(self) -> SiteDims:
        return SiteDims.qubits(self.n_physical)

    def _check_support(self, amps: np.ndarray) -> None:
        """Refuse message amplitude rows (any leading axes) that are not over
        the code's k qubits or that have weight outside the encodable subspace."""
        if amps.shape[-1] != 2**self.k_logical:
            raise ValueError(f"message has {amps.shape[-1]} amplitudes, not the "
                             f"{2**self.k_logical} of the code's {self.k_logical} qubits")
        stray = np.abs(amps.reshape(-1, amps.shape[-1])) > SUPPORT_TOL
        stray[:, list(self.message_labels)] = False
        if stray.any():
            raise ValueError("message has weight outside the encodable subspace at "
                             f"{np.flatnonzero(stray.any(axis=0)).tolist()}")

    def logical_combination(self, message: MessageState) -> PureState:
        """Encode by expanding the message directly in the logical basis: one
        product with the rows, scattered onto the support."""
        self._check_support(message.amps)
        amps = np.zeros(2**self.n_physical, dtype=np.complex128)
        amps[self.support] = message.amps[list(self.message_labels)] @ self.rows
        return PureState(self.dims, amps)

    def encode(self, message: MessageState) -> PureState:
        """Encode through the encoding circuit when one exists, else the basis."""
        if self.encoder is None:
            return self.logical_combination(message)
        self._check_support(message.amps)
        # the register state message (x) |0...0>, the ancillas following the message sites
        padded = np.zeros(2**self.n_physical, dtype=np.complex128)
        padded[:: 2 ** (self.n_physical - self.k_logical)] = message.amps
        return apply_circuit(PureState(self.dims, padded), self.encoder)

    def random_message(self, rng: np.random.Generator) -> MessageState:
        return MessageState(self.k_logical, self.random_amplitudes(rng))

    def random_amplitudes(self, rng: np.random.Generator) -> np.ndarray:
        """Amplitudes of a random message: a complex Gaussian on every label,
        drawn as (real, imaginary) pairs in label order, normalized."""
        z = rng.standard_normal((len(self.message_labels), 2))
        amps = np.zeros(2**self.k_logical, dtype=np.complex128)
        amps[list(self.message_labels)] = z[:, 0] + 1j * z[:, 1]
        return amps / np.linalg.norm(amps)

    def __repr__(self) -> str:
        return f"CodeSpec({self.label!r}, n={self.n_physical}, k={self.k_logical})"


class RecoveryPlan:
    """The recovery circuit for one known bad position.

    The circuit never touches the bad site, so it commutes with whatever
    happened there; after it runs, the message sits on ``output_register``.
    """

    __slots__ = ("bad_position", "circuit", "output_register")

    def __init__(self, bad_position: int, circuit: Circuit, output_register):
        bad_position = int(bad_position)
        output_register = tuple(int(s) for s in output_register)
        if bad_position in {t for c_op in circuit.ops for t in c_op.targets}:
            raise ValueError(f"circuit touches the bad position {bad_position}")
        if bad_position in output_register:
            raise ValueError("output register contains the bad position")
        if len(set(output_register)) != len(output_register):
            raise ValueError("output register has repeated sites")
        self.bad_position = bad_position
        self.circuit = circuit
        self.output_register = output_register

    def apply(self, state: PureState) -> PureState:
        return apply_circuit(state, self.circuit)

    def __repr__(self) -> str:
        return f"RecoveryPlan(bad_position={self.bad_position})"


def _ghz_pair_rows(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Logical states indexed 0..2^n-1, compact: two copies of the GHZ block
    (|u> + s|u~>)/sqrt(2) whose pattern u is the message index with its last
    bit cleared and whose sign s is set by that bit.  Column a<<n | b, b in
    {a, a~}, sits at position 2a + (top bit of b).  Each row's 4 entries are
    products of block amplitudes, exactly as a kron of the blocks."""
    h = 1 / math.sqrt(2)
    i = np.arange(2**n)
    u = i & ~1
    block = ((u, h), (2**n - 1 - u, np.where(i & 1, -h, h)))  # (pattern, amplitude)
    rows = np.zeros((2**n, 2 ** (n + 1)), dtype=np.complex128)
    support = np.empty(2 ** (n + 1), dtype=np.intp)
    for a, x in block:
        for b, y in block:
            at = 2 * a + (b >> (n - 1))
            rows[i, at], support[at] = x * y, a << n | b
    return rows, support


def _ghz_pair_code(label: str, n: int) -> CodeSpec:
    """The GHZ-pair code of n >= 2 message qubits on 2n sites, with its encoder."""
    return CodeSpec(
        label=label,
        n_physical=2 * n,
        k_logical=n,
        logical_basis=lambda: _ghz_pair_rows(n),
        message_labels=range(2**n),
        encoder=hiding_encoder(n),
    )


def six_qubit_logical_basis() -> CodeSpec:
    """The six-qubit code: 3 message qubits in 6, one erasable site; the
    hiding code at n = 3 under the paper's label."""
    return _ghz_pair_code("six-qubit-erasure", 3)


def decoder_for(bad_position: int) -> Circuit:
    """Decoding circuit for a known bad site: always works on the intact
    block, folding it down so the ancillary half reads out the message index."""
    if bad_position in (0, 1, 2):
        ops = [op("H", 5), op("CNOT", 5, 4), op("CNOT", 5, 3)]
    elif bad_position in (3, 4, 5):
        ops = [op("H", 2), op("CNOT", 2, 1), op("CNOT", 2, 0)]
    else:
        raise ValueError(f"bad position {bad_position} out of range 0..5")
    return Circuit(ops, SiteDims.qubits(6))


_RECOVERY_OPS = {
    0: [("TOFFOLI", 3, 5, 1), ("CZ", 5, 1), ("TOFFOLI", 3, 5, 1),
        ("CNOT", 4, 1), ("CNOT", 3, 1), ("CNOT", 3, 2)],
    1: [("TOFFOLI", 4, 5, 0), ("CZ", 5, 0), ("TOFFOLI", 4, 5, 0),
        ("CNOT", 3, 0), ("CNOT", 4, 0), ("CNOT", 4, 2)],
    2: [("CZ", 5, 1), ("CNOT", 4, 1), ("CNOT", 3, 0)],
    3: [("TOFFOLI", 0, 2, 4), ("CZ", 2, 4), ("TOFFOLI", 0, 2, 4),
        ("CNOT", 1, 4), ("CNOT", 0, 4), ("CNOT", 0, 5)],
    4: [("TOFFOLI", 1, 2, 3), ("CZ", 2, 3), ("TOFFOLI", 1, 2, 3),
        ("CNOT", 0, 3), ("CNOT", 1, 3), ("CNOT", 1, 5)],
    5: [("CZ", 2, 4), ("CNOT", 1, 4), ("CNOT", 0, 3)],
}


def recovery_for(bad_position: int) -> RecoveryPlan:
    """Full decode-plus-repair plan for one bad site of the six-qubit code:
    the repair gates written before the decoder's, so the decoder runs first."""
    if bad_position not in _RECOVERY_OPS:
        raise ValueError(f"bad position {bad_position} out of range 0..5")
    repair = [op(kind, *targets) for kind, *targets in _RECOVERY_OPS[bad_position]]
    circuit = Circuit(repair + list(decoder_for(bad_position).ops), SiteDims.qubits(6))
    output_register = (3, 4, 5) if bad_position in (0, 1, 2) else (0, 1, 2)
    return RecoveryPlan(bad_position, circuit, output_register)


# Images of the three single-excitation message states |001>, |010>, |100>
# as (basis index in, pair of basis indices out) over five qubits.
_W_IMAGES = {
    0b001: (0b00001, 0b11110),
    0b010: (0b00100, 0b11011),
    0b100: (0b00010, 0b11101),
}


def w_code() -> CodeSpec:
    """Five-qubit code for three-qubit states with exactly one excitation."""
    labels = sorted(_W_IMAGES)

    def basis():
        support = sorted(c for m in labels for c in _W_IMAGES[m])
        rows = np.array([[c in _W_IMAGES[m] for c in support] for m in labels]) / math.sqrt(2)
        return rows, support

    return CodeSpec(
        label="w5",
        n_physical=5,
        k_logical=3,
        logical_basis=basis,
        message_labels=labels,
    )


def hiding_encoder(n: int) -> Circuit:
    """Encoding circuit for n message qubits into 2n sites (written order,
    applied right to left): CNOTs copy the message onto the ancillas,
    Hadamards on sites n-1 and 2n-1 open the superposition, then CNOT fans
    spread it over each block."""
    if not 2 <= n <= HIDING_MAX_QUBITS:
        raise ValueError(f"message qubit count {n} out of range 2..{HIDING_MAX_QUBITS}")
    ops = []
    ops += [op("CNOT", 2 * n - 1, n + i - 1) for i in range(n - 1, 0, -1)]
    ops += [op("CNOT", n - 1, i - 1) for i in range(n - 1, 0, -1)]
    ops += [op("H", 2 * n - 1), op("H", n - 1)]
    ops += [op("CNOT", i - 1, n + i - 1) for i in range(n, 0, -1)]
    return Circuit(ops, SiteDims.qubits(2 * n))


def hiding_recovery(n: int, bad_position: int) -> RecoveryPlan:
    """Decode-plus-repair plan for one bad site p of ``hiding_code(n)``,
    n >= 2: 3n - 2 CNOT, H and CZ gates, none on p, that leave the message
    on the intact block I and one Bell pair, the same for every message, on
    the damaged block D.

    In order of application (the circuit lists them reversed): a CNOT fan
    from I's last site l, then H(l), folds I's GHZ block to |i>; a CNOT from
    I's copy of each pattern bit clears it on D, except at p; a CNOT fan
    from q, the first site of D other than p, folds D's GHZ block onto q
    and p; CZ(l, q) removes the sign bit; and, when p carries a pattern
    bit, a CNOT from I's copy of it onto q makes the pair on q and p the
    same for every message.
    """
    if not 2 <= n <= HIDING_MAX_QUBITS:
        raise ValueError(f"message qubit count {n} out of range 2..{HIDING_MAX_QUBITS}")
    if not 0 <= bad_position < 2 * n:
        raise ValueError(f"bad position {bad_position} out of range 0..{2 * n - 1}")
    damaged = 0 if bad_position < n else n  # first site of each block
    intact = n - damaged
    last = intact + n - 1
    rest = [damaged + t for t in range(n) if damaged + t != bad_position]
    q = rest[0]
    applied = [op("CNOT", last, intact + t) for t in range(n - 1)] + [op("H", last)]
    applied += [op("CNOT", intact + t, damaged + t) for t in range(n - 1)
                if damaged + t != bad_position]
    applied += [op("CNOT", q, s) for s in rest[1:]]
    applied.append(op("CZ", last, q))
    if bad_position != damaged + n - 1:
        applied.append(op("CNOT", intact + bad_position - damaged, q))
    circuit = Circuit(reversed(applied), SiteDims.qubits(2 * n))
    return RecoveryPlan(bad_position, circuit, range(intact, intact + n))


def hiding_code(n: int) -> CodeSpec:
    """Marginal-hiding code on 2n sites: every single-site reduced state of
    any encoded message is maximally mixed.

    n=1 is the Bell-pair case: a single two-site GHZ block rather than a
    product of two one-site blocks (which would not hide anything).  The
    Bell pair hides one classical bit (both basis code states have I/2
    marginals) but cannot correct an erasure, and superposition messages
    do show up in its marginals.
    """
    if n == 1:
        encoder = Circuit([op("CNOT", 0, 1), op("H", 0)], SiteDims.qubits(2))
        return CodeSpec(
            label="hiding-1",
            n_physical=2,
            k_logical=1,
            logical_basis=lambda: (np.array([[1, 1], [1, -1]]) / math.sqrt(2), [0, 3]),
            message_labels=(0, 1),
            encoder=encoder,
        )
    if not 2 <= n <= HIDING_MAX_QUBITS:
        raise ValueError(f"message qubit count {n} out of range 1..{HIDING_MAX_QUBITS}")
    return _ghz_pair_code(f"hiding-{n}", n)
