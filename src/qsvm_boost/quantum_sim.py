"""Dense statevector simulation of Pauli feature-map circuits.

A feature map encodes a classical vector ``x`` as the quantum state produced
by ``reps`` repetitions of [Hadamard layer, then one Pauli rotation
``exp(i * theta * P)`` per term], applied to |0...0>. Rotation angles are
``theta = alpha * phi_S(x)`` where ``phi_S`` is the fixed Havlicek data map
for the subset S of qubits the term acts on.

The batched simulator works on the float64 view of its (m, 2^n) complex
states, real and imaginary parts interleaved. The Hadamard layer H^{(x)n} is
two real matmuls: H^{(x)(n-h)} on the high half of the amplitude index and
H^{(x)h} on the low half, h = n // 2. A rotation is exact real arithmetic:
i*P moves every amplitude and multiplies it by +-1 or +-i, so on the float
view it is one column gather and a +-1 sign, memoized per Pauli string, and
the rotation does the floating-point operations of the complex product. At
one and two qubits the states are bit-for-bit those of a qubit-by-qubit
Hadamard layer; above that they agree to round-off.

Conventions (fixed; the simulator and the dense oracle must share them):
  - qubit 0 is the least-significant bit of the amplitude index
  - letter i of a Pauli string acts on qubit i
  - a rotation term applies exp(i*theta*P) = cos(theta)*I + i*sin(theta)*P
"""
from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

MAX_QUBITS = 12
MAX_ORACLE_QUBITS = 6

PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
DATA_MAP = "havlicek-default"


def check_label(label: str) -> None:
    """Reject a menu label that is not 1-2 letters from IXYZ with a non-I letter."""
    if not isinstance(label, str) or not 1 <= len(label) <= 2:
        raise ValueError(f"Pauli label {label!r} must be a string of 1 or 2 letters")
    bad = set(label) - set("IXYZ")
    if bad:
        raise ValueError(f"invalid Pauli letters {sorted(bad)} in {label!r}")
    if set(label) == {"I"}:
        raise ValueError(f"Pauli label {label!r} needs at least one non-identity letter")


def is_integer(value) -> bool:
    """True for a Python or numpy integer; a bool or an integral float is not one."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def havlicek_data_map(subset: tuple[int, ...], X: np.ndarray) -> np.ndarray:
    """phi_S for every row of X: x_i for S = (i,), (pi - x_i)(pi - x_j) for S = (i, j)."""
    if len(subset) == 1:
        return X[:, subset[0]]
    i, j = subset
    return (math.pi - X[:, i]) * (math.pi - X[:, j])


@dataclass(frozen=True)
class FeatureMapSpec:
    """Pauli menu, repetition count and rotation factor defining one feature map.

    ``labels`` holds the menu form ("Z" = one rotation per qubit, "ZZ" = the
    two-qubit string on each pair); :meth:`terms` lists the full-length
    strings it expands to. The data map is always ``havlicek-default``.
    """

    n_qubits: int
    labels: tuple[str, ...]
    reps: int = 2
    alpha: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        if not 1 <= self.n_qubits <= MAX_QUBITS:
            raise ValueError(f"n_qubits must be in [1, {MAX_QUBITS}], got {self.n_qubits}")
        if not (is_integer(self.reps) and self.reps >= 1):
            raise ValueError("reps must be a positive integer")
        if not self.labels:
            raise ValueError("feature map needs at least one Pauli label")
        for label in self.labels:
            check_label(label)
            if len(label) > self.n_qubits:
                raise ValueError(f"label {label!r} does not fit on {self.n_qubits} qubits")

    def terms(self) -> list[tuple[str, tuple[int, ...]]]:
        """(full-length Pauli string, qubits with a non-I letter) pairs, in circuit order.

        A k-letter label sits on every ascending k-subset of qubits, in
        itertools.combinations order.
        """
        out = []
        for label in self.labels:
            for qubits in itertools.combinations(range(self.n_qubits), len(label)):
                letters = ["I"] * self.n_qubits
                for letter, q in zip(label, qubits):
                    letters[q] = letter
                support = tuple(q for letter, q in zip(label, qubits) if letter != "I")
                out.append(("".join(letters), support))
        return out

    def canonical(self) -> str:
        """Canonical text form, e.g. ``paulis=Z,ZZ;reps=2;alpha=1.0;map=havlicek-default``."""
        return (
            f"paulis={','.join(self.labels)};reps={self.reps};"
            f"alpha={self.alpha!r};map={DATA_MAP}"
        )


def parse_feature_map(text: str, n_qubits: int) -> FeatureMapSpec:
    """Parse the canonical text form back into a spec."""
    fields: dict[str, str] = {}
    for part in text.strip().split(";"):
        if not part:
            continue
        key, sep, value = part.partition("=")
        if not sep:
            raise ValueError(f"malformed feature-map field {part!r}")
        fields[key.strip()] = value.strip()
    if "paulis" not in fields:
        raise ValueError(f"feature-map text missing paulis= field: {text!r}")
    if fields.get("map", DATA_MAP) != DATA_MAP:
        raise ValueError(f"unknown data map {fields['map']!r}, only {DATA_MAP} is supported")
    return FeatureMapSpec(
        n_qubits=n_qubits,
        labels=tuple(fields["paulis"].split(",")),
        reps=int(fields.get("reps", 2)),
        alpha=float(fields.get("alpha", 1.0)),
    )


# --- statevector kernels (batched over samples; shape (m, 2^n)) ---

def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.flags.writeable = False
    return arrays


@functools.lru_cache(maxsize=None)
def _hadamard_factors(n: int) -> tuple[np.ndarray, np.ndarray]:
    """H^{(x)(n-h)} for the high axis and H^{(x)h} (x) I_2 for the low axis of the
    float view, h = n // 2; real, symmetric, with _HADAMARD's 1/sqrt(2) entries."""
    def power(k):
        return functools.reduce(np.kron, [_HADAMARD.real] * k, np.eye(1))

    h = n // 2
    return _frozen(power(n - h), np.kron(power(h), np.eye(2)))


def _hadamard_all_batch(psi: np.ndarray) -> np.ndarray:
    """H on every qubit of every row: the float64 view reshaped to (m, high, low
    parts) takes one real matmul per axis. At one or two qubits each matmul
    covers one qubit, so the bits are those of a per-qubit 2x2 layer."""
    m, dim = psi.shape
    n = dim.bit_length() - 1
    high, low = _hadamard_factors(n)
    v = np.ascontiguousarray(psi).view(np.float64).reshape(m, len(high), len(low))
    v = high @ v
    if n > 1:
        v = v @ low
    return v.reshape(m, 2 * dim).view(complex)


def _pauli_action(letters: str) -> tuple[np.ndarray, np.ndarray]:
    """Index and phase with (P psi)[k] = phase[k] * psi[index[k]], index[k] = k XOR xmask.

    xmask has bit q set for each X or Y letter; the phase takes one factor per
    letter from bit q of the output index k: Z gives -1 on 1, Y gives +i on 1
    and -i on 0.
    """
    k = np.arange(1 << len(letters))
    xmask = 0
    phase = np.ones(k.size, dtype=complex)
    for q, letter in enumerate(letters):
        bit = (k >> q) & 1 == 1
        if letter in "XY":
            xmask |= 1 << q
        if letter == "Z":
            phase[bit] *= -1
        elif letter == "Y":
            phase *= np.where(bit, 1j, -1j)
    return k ^ xmask, phase


@functools.lru_cache(maxsize=None)
def _rotation_gather(letters: str) -> tuple[np.ndarray, np.ndarray]:
    """Column index and sign with (i P psi) = sign * v[:, index] on the float64 view v of psi.

    v interleaves real and imaginary parts. Every phase c of i*P is +-1 or
    +-i, and c * (a + ib) is (c a, c b) for real c and (-d b, d a) for
    c = i d, so each output part is one input part times +-1: the exact
    arithmetic of the complex product.
    """
    index, phase = _pauli_action(letters)
    c = 1j * phase
    swap = c.imag != 0
    column = np.stack([2 * index + swap, 2 * index + ~swap], axis=1).ravel()
    sign = np.stack([c.real - c.imag, c.real + c.imag], axis=1).ravel()
    return _frozen(column, sign)


def _rotate_batch(v: np.ndarray, gather: tuple[np.ndarray, np.ndarray],
                  cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """exp(i*theta*P)|psi> = cos(theta)|psi> + sin(theta) iP|psi> per row, since P^2 = I,
    on the float64 view ``v`` with iP as its :func:`_rotation_gather`; cos and sin are (m, 1)."""
    column, sign = gather
    turned = np.take(v, column, axis=1)
    turned *= sign
    turned *= sin
    out = cos * v
    out += turned
    return out


def feature_map_states(spec: FeatureMapSpec, X: np.ndarray) -> np.ndarray:
    """Encoded statevectors for each sample row, as an (m, 2^n) array."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != spec.n_qubits:
        raise ValueError(f"samples have {X.shape[1]} features, spec needs {spec.n_qubits}")
    terms = []
    for letters, subset in spec.terms():
        thetas = spec.alpha * havlicek_data_map(subset, X)
        terms.append((_rotation_gather(letters), np.cos(thetas)[:, None], np.sin(thetas)[:, None]))
    psi = np.zeros((X.shape[0], 1 << spec.n_qubits), dtype=complex)
    psi[:, 0] = 1.0
    for _ in range(spec.reps):
        v = _hadamard_all_batch(psi).view(np.float64)
        for gather, cos, sin in terms:
            v = _rotate_batch(v, gather, cos, sin)
        psi = v.view(complex)
    return psi


# --- dense-matrix oracle (independent verification path) ---

def _kron_chain(mats: list[np.ndarray]) -> np.ndarray:
    """Tensor product with list index 0 as the least-significant factor."""
    out = np.eye(1, dtype=complex)
    for m in mats:
        out = np.kron(m, out)
    return out


def dense_pauli_matrix(letters: str) -> np.ndarray:
    return _kron_chain([PAULI_MATRICES[c] for c in letters])


def dense_term_unitary(letters: str, theta: float) -> np.ndarray:
    """exp(i*theta*P) as an explicit dense matrix, cos(theta)*I + i*sin(theta)*P."""
    dim = 1 << len(letters)
    return math.cos(theta) * np.eye(dim, dtype=complex) + 1j * math.sin(theta) * dense_pauli_matrix(letters)


def dense_unitary_oracle(spec: FeatureMapSpec, x: np.ndarray) -> np.ndarray:
    """Full circuit unitary as an explicit product of dense layer matrices.

    Intended as a verification oracle, so it is kept deliberately naive;
    limited to small qubit counts.
    """
    if spec.n_qubits > MAX_ORACLE_QUBITS:
        raise ValueError(f"dense oracle supports at most {MAX_ORACLE_QUBITS} qubits")
    x = np.asarray(x, dtype=float)
    if x.shape != (spec.n_qubits,):
        raise ValueError(f"feature vector shape {x.shape} does not match {spec.n_qubits} qubits")
    h_layer = _kron_chain([_HADAMARD] * spec.n_qubits)
    u = np.eye(1 << spec.n_qubits, dtype=complex)
    for _ in range(spec.reps):
        u = h_layer @ u
        for letters, subset in spec.terms():
            theta = spec.alpha * havlicek_data_map(subset, x[None])[0]
            u = dense_term_unitary(letters, theta) @ u
    return u
