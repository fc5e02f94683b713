"""Dense statevector simulation of Pauli feature-map circuits.

A feature map encodes a classical vector ``x`` as the quantum state produced
by ``reps`` repetitions of [Hadamard layer, then one Pauli rotation
``exp(i * theta * P)`` per term], applied to |0...0>. Rotation angles are
``theta = alpha * phi_S(x)`` where ``phi_S`` is the fixed Havlicek data map
for the subset S of qubits the term acts on.

The batched simulator works on the float64 view of its (m, 2^n) complex
states, real and imaginary parts interleaved. A circuit that opens with a
Hadamard layer starts all rows from one H|0...0> row in its plan. The Hadamard
layer H^{(x)n} is two real matmuls per row: H^{(x)(n-h)} on the high half of
the amplitude index and H^{(x)h} on the low half, h = n // 2; one GEMM
across rows would let a row's bits depend on its batch. At one and two
qubits every term is its own rotation in exact real arithmetic: i*P moves
every amplitude and multiplies it by +-1 or +-i, so on the float view it is
one gather of float parts and a +-1 sign, memoized per Pauli string. A run
of rotations works rows last, on one (2^(n+1), m) transpose, so each
operation runs along the batch, in the same order. Those states keep the
bits of a qubit-by-qubit circuit, which the study's 2-D datasets' records
rest on. Above two qubits, a run of labels with one non-I letter L commutes,
so it is one diagonal phase exp(i * sum_t theta_t B[t]) in L's eigenbasis
(theta_t: a row's term angles, B[t]: term t's +-1 eigenvalues), equal to the
per-term rotations up to round-off. Every term acts on at most two qubits,
so with the amplitude index split into its low h and high n - h bits, B[t]
is a low-half table times a high-half table, and the phase is built from
half-register exponentials: one for the terms inside the low half, one for
those inside the high half, and one per high qubit q for the cross terms on
q, applied as itself or its conjugate by q's bit. That is (n - h + 1) * 2^h
+ 2^(n-h) complex exponentials per row instead of 2^n. Either way a row's
bits do not depend on the other rows of its batch.

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


def is_real(value) -> bool:
    """True for a Python or numpy real number; a bool or a complex number is not one."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


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
        if not isinstance(self.labels, (list, tuple)) or not self.labels:  # a string reads as its letters
            raise ValueError(f"feature maps take non-empty lists of Pauli labels, got {self.labels!r}")
        object.__setattr__(self, "labels", tuple(self.labels))
        if not (is_integer(self.n_qubits) and 1 <= self.n_qubits <= MAX_QUBITS):
            raise ValueError(f"n_qubits must be an integer in [1, {MAX_QUBITS}], got {self.n_qubits!r}")
        if not (is_integer(self.reps) and self.reps >= 1):
            raise ValueError("reps must be a positive integer")
        if not is_real(self.alpha):
            raise ValueError(f"alpha must be a real number, got {self.alpha!r}")
        object.__setattr__(self, "alpha", float(self.alpha))  # one canonical text per value
        if not math.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite, got {self.alpha!r}")
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
    """The spec whose :meth:`~FeatureMapSpec.canonical` text is ``text``; any other text is refused."""
    fields = dict(part.partition("=")[::2] for part in text.split(";"))
    try:
        spec = FeatureMapSpec(n_qubits, tuple(fields["paulis"].split(",")),
                              int(fields["reps"]), float(fields["alpha"]))
    except (KeyError, ValueError) as exc:
        raise ValueError(f"feature-map text {text!r} has a missing or malformed field: {exc}") from exc
    if spec.canonical() != text:
        raise ValueError(f"feature-map text {text!r} is not its spec's canonical text {spec.canonical()!r}")
    return spec


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


def _hadamard_all_batch(psi: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """H on every qubit of every row: the float64 view reshaped to (m, high, low
    parts) takes one real matmul per axis. At one or two qubits each matmul
    covers one qubit, so the bits are those of a per-qubit 2x2 layer. Given a
    float64 ``scratch`` of psi's size (above two qubits), the first matmul goes
    there and the second back into psi, which is returned."""
    m, dim = psi.shape
    n = dim.bit_length() - 1
    high, low = _hadamard_factors(n)
    v = np.ascontiguousarray(psi).view(np.float64).reshape(m, len(high), len(low))
    if scratch is not None:
        np.matmul(high, v, out=scratch.reshape(v.shape))
        np.matmul(scratch.reshape(v.shape), low, out=v)
        return psi
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


def _rotation_gather(letters: str) -> tuple[np.ndarray, np.ndarray]:
    """Part index and (parts, 1) sign with (i P psi) = sign * v[part] on the rows-last float64
    view v of psi, one row per float part.

    The parts interleave real and imaginary. Every phase c of i*P is +-1 or
    +-i, and c * (a + ib) is (c a, c b) for real c and (-d b, d a) for
    c = i d, so each output part is one input part times +-1: the exact
    arithmetic of the complex product.
    """
    index, phase = _pauli_action(letters)
    c = 1j * phase
    swap = c.imag != 0
    part = np.stack([2 * index + swap, 2 * index + ~swap], axis=1).ravel()
    sign = np.stack([c.real - c.imag, c.real + c.imag], axis=1).reshape(-1, 1)
    return _frozen(part, sign)


def _rotate_batch(v: np.ndarray, gather: tuple[np.ndarray, np.ndarray],
                  cos: np.ndarray, sin: np.ndarray, out: np.ndarray) -> np.ndarray:
    """exp(i*theta*P)|psi> = cos(theta)|psi> + sin(theta) iP|psi> per row, since P^2 = I,
    on the rows-last float64 view ``v`` (2^(n+1), rows) with iP as its :func:`_rotation_gather`;
    cos and sin are (rows,). Written into and returned as ``out``, a buffer of v's shape, not v."""
    part, sign = gather
    turned = v[part]
    turned *= sign
    turned *= sin
    np.multiply(cos, v, out=out)
    out += turned
    return out


def _parity(masks: np.ndarray, bits: int) -> np.ndarray:
    """(-1)^popcount(k & mask) for each mask (rows) and each k < 2^bits (columns)."""
    return 1.0 - 2.0 * (np.bitwise_count(np.arange(1 << bits) & masks[:, None]) & 1)


def _half_tables(masks: np.ndarray, n_qubits: int) -> tuple:
    """A phase run's operand (b_lo, b_hi, lo, hi, cross) for its terms' qubit masks.

    With h = n // 2 and amplitude index k = k_hi * 2^h + k_lo, term t's
    eigenvalue is b_lo[t, k_lo] * b_hi[t, k_hi]. lo and hi index the terms
    inside the low and the high half; cross[j] indexes the terms on one low
    qubit and high qubit h + j, whose b_hi is bit j's sign.
    """
    h = n_qubits // 2
    low, high = masks & ((1 << h) - 1), masks >> h
    b_lo, b_hi, lo, hi = _frozen(_parity(low, h), _parity(high, n_qubits - h),
                                 np.flatnonzero(high == 0), np.flatnonzero(low == 0))
    cross = _frozen(*(np.flatnonzero((high == 1 << j) & (low != 0)) for j in range(n_qubits - h)))
    return b_lo, b_hi, lo, hi, cross


def _phase_factor(theta: np.ndarray, b_lo, b_hi, lo, hi, cross) -> np.ndarray:
    """exp(i * sum_t theta_t B[t]) for each row of theta (terms x rows), as (rows, 2^n),
    from the :func:`_half_tables` of its terms."""
    def exp_sum(table, idx):  # einsum, unlike BLAS, sums every row alike
        return np.exp(1j * np.einsum("tm,tk->mk", theta[idx], table[idx]))

    factor = np.empty((theta.shape[1], b_hi.shape[1], b_lo.shape[1]), dtype=complex)
    factor[:, 0] = exp_sum(b_lo, lo)
    filled = 1  # rows of the high axis set so far
    for idx in cross:  # each doubling puts the next high qubit's bit on top: + then -
        done, new = factor[:, :filled], factor[:, filled:2 * filled]
        if len(idx):
            e = exp_sum(b_lo, idx)[:, None]
            np.multiply(done, np.conj(e), out=new)
            done *= e
        else:  # no cross term on this qubit: both halves are the same
            new[...] = done
        filled *= 2
    factor *= exp_sum(b_hi, hi)[:, :, None]
    return factor.reshape(-1, b_lo.shape[1] * b_hi.shape[1])


@functools.lru_cache(maxsize=None)
def _circuit(n_qubits: int, labels: tuple[str, ...], reps: int) -> tuple:
    """A spec's plan (data_map, start, groups, steps), built once per (n_qubits, labels, reps).

    data_map: the single-qubit terms and their qubits, then the pair terms and their (2, pairs)
    qubits. start: the (1, 2^n) row H|0...0> in place of an opening Hadamard layer, else |0...0>.
    A group is ("rotate", gathers, terms), applied term by term, or ("phase", halves, terms),
    one product with the :func:`_phase_factor` of its :func:`_half_tables` ``halves``; its terms
    are a slice of the spec's. A step is ("hadamard", None), ("diagonal", vector) or (group kind,
    group index).
    """
    terms = FeatureMapSpec(n_qubits, labels).terms()
    k = np.arange(1 << n_qubits)
    s_gate, s_dagger = _frozen(*np.array([[1, 1j, -1, -1j], [1, -1j, -1, 1j]])[:, np.bitwise_count(k) % 4])
    hadamard = ("hadamard", None)
    basis = {"X": ((hadamard,), (hadamard,)),
             "Y": ((("diagonal", s_dagger), hadamard), (hadamard, ("diagonal", s_gate)))}
    # a run of terms with one non-I letter commutes; "" keeps each term's own rotation
    keys = [used.pop() if n_qubits > 2 and len(used) == 1 else ""
            for used in (set(letters) - {"I"} for letters, _ in terms)]
    groups, repetition = [], [hadamard]
    for key, run in itertools.groupby(range(len(terms)), key=keys.__getitem__):
        run = list(run)
        masks = np.array([sum(1 << q for q in terms[t][1]) for t in run])
        operand = (_half_tables(masks, n_qubits) if key
                   else tuple(_rotation_gather(terms[t][0]) for t in run))
        groups.append(("phase" if key else "rotate", operand, slice(run[0], run[-1] + 1)))
        before, after = basis.get(key, ((), ()))
        repetition += [*before, (groups[-1][0], len(groups) - 1), *after]
    steps = []
    for step in repetition * reps:
        if steps and step[0] == steps[-1][0] == "hadamard":  # H H = I
            steps.pop()
        else:
            steps.append(step)
    ones, pairs = ([t for t, (_, s) in enumerate(terms) if len(s) == size] for size in (1, 2))
    one_qubits = [terms[t][1][0] for t in ones]
    pair_qubits = np.array([terms[t][1] for t in pairs], dtype=int).reshape(-1, 2).T
    data_map = _frozen(np.array(ones, dtype=int), np.array(one_qubits, dtype=int),
                       np.array(pairs, dtype=int), pair_qubits)
    start = np.eye(1, 1 << n_qubits, dtype=complex)  # |0...0>
    if steps[0][0] == "hadamard":  # every row starts from one shared row
        start, steps = _hadamard_all_batch(start), steps[1:]
    return data_map, *_frozen(start), tuple(groups), tuple(steps)


def feature_map_states(spec: FeatureMapSpec, X: np.ndarray) -> np.ndarray:
    """Encoded statevectors for each sample row, as an (m, 2^n) array, by :func:`_circuit`."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != spec.n_qubits:
        raise ValueError(f"samples have {X.shape[1]} features, spec needs {spec.n_qubits}")
    if not np.isfinite(X).all():
        raise ValueError("samples must be finite")
    (ones, one_qubits, pairs, pair_qubits), start, groups, steps = _circuit(
        spec.n_qubits, spec.labels, spec.reps)
    angles = np.empty((len(ones) + len(pairs), len(X)))
    angles[ones] = X.T[one_qubits]
    shifted = math.pi - X.T[pair_qubits]
    angles[pairs] = shifted[0] * shifted[1]
    angles *= spec.alpha
    # one factor per group serves every repetition
    factors = [_phase_factor(angles[terms], *op) if kind == "phase"
               else (np.cos(angles[terms]), np.sin(angles[terms])) for kind, op, terms in groups]
    psi = np.repeat(start, len(X), axis=0)
    scratch = np.empty(2 * psi.size) if spec.n_qubits > 2 else None  # the Hadamard layers' first matmul
    for kind, operand in steps:
        if kind == "hadamard":
            psi = _hadamard_all_batch(psi, scratch)
        elif kind == "rotate":  # rows last: each term's operations run along the batch
            rows = psi.view(np.float64)
            v = np.ascontiguousarray(rows.T)
            spare = np.empty_like(v)
            for gather, cos, sin in zip(groups[operand][1], *factors[operand]):
                v, spare = _rotate_batch(v, gather, cos, sin, spare), v
            rows[...] = v.T
        else:
            psi *= operand if kind == "diagonal" else factors[operand]
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
