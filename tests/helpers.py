"""Shared test utilities: independent oracles and random-case generators."""
from __future__ import annotations

import itertools

import numpy as np

from qsvm_boost.quantum_sim import FeatureMapSpec

SINGLE_LABELS = ("X", "Y", "Z")
PAIR_LABELS = ("XX", "YY", "ZZ", "XZ", "ZX", "XY", "YZ")


def phase_align(reference: np.ndarray, other: np.ndarray) -> np.ndarray:
    """Rotate ``other`` by the global phase best aligning it with ``reference``."""
    overlap = np.vdot(other, reference)
    if abs(overlap) < 1e-15:
        return other
    return other * (overlap / abs(overlap))


def random_feature_map_spec(rng: np.random.Generator, max_qubits: int = 3) -> FeatureMapSpec:
    n = int(rng.integers(1, max_qubits + 1))
    pool = list(SINGLE_LABELS) + ([] if n < 2 else list(PAIR_LABELS))
    count = int(rng.integers(1, min(3, len(pool)) + 1))
    labels = tuple(rng.choice(pool, size=count, replace=False))
    return FeatureMapSpec(
        n_qubits=n,
        labels=labels,
        reps=int(rng.integers(1, 4)),
        alpha=float(rng.uniform(0.05, 2.0)),
    )


def rbf_kernel(x, y, gamma: float) -> float:
    """exp(-gamma * ||x - y||^2) for one pair of feature vectors."""
    d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    return float(np.exp(-gamma * np.dot(d, d)))


def linear_kernel(x, y) -> float:
    """Dot product x . y for one pair of feature vectors."""
    return float(np.dot(np.asarray(x, dtype=float), np.asarray(y, dtype=float)))


def random_statevector(rng: np.random.Generator, n_qubits: int) -> np.ndarray:
    amps = rng.normal(size=1 << n_qubits) + 1j * rng.normal(size=1 << n_qubits)
    return amps / np.linalg.norm(amps)


def random_psd_kernel(rng: np.random.Generator, n: int, unit_diag: bool = True) -> np.ndarray:
    """Gram matrix of random vectors in general position; PSD by construction."""
    vectors = rng.normal(size=(n, n + 2))
    if unit_diag:
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    gram = vectors @ vectors.T
    return (gram + gram.T) / 2.0


def brute_force_qp(K: np.ndarray, labels: np.ndarray, upper: np.ndarray,
                   box_tol: float = 1e-9) -> tuple[float, np.ndarray]:
    """Exhaustive active-set solve of the SVM dual, for problems with <= ~8 points.

    Maximizes sum(a) - 1/2 (a*t)' K (a*t) subject to 0 <= a <= upper and
    sum(a*t) = 0 by enumerating every lower/upper/free bound pattern and
    solving the equality-constrained KKT system on the free block.
    """
    K = np.asarray(K, dtype=float)
    upper = np.asarray(upper, dtype=float)
    n = len(upper)
    t = 2.0 * np.asarray(labels, dtype=float) - 1.0
    Q = np.outer(t, t) * K

    def objective(a):
        at = a * t
        return float(np.sum(a) - 0.5 * at @ K @ at)

    best_obj, best_a = -np.inf, None
    for pattern in itertools.product((0, 1, 2), repeat=n):
        a = np.zeros(n)
        free = [i for i, p in enumerate(pattern) if p == 2]
        pinned = [i for i, p in enumerate(pattern) if p != 2]
        for i in pinned:
            if pattern[i] == 1:
                a[i] = upper[i]
        target = -float(t[pinned] @ a[pinned]) if pinned else 0.0
        if free:
            nf = len(free)
            kkt = np.zeros((nf + 1, nf + 1))
            kkt[:nf, :nf] = Q[np.ix_(free, free)]
            kkt[:nf, nf] = t[free]
            kkt[nf, :nf] = t[free]
            rhs = np.zeros(nf + 1)
            rhs[:nf] = 1.0 - Q[np.ix_(free, pinned)] @ a[pinned] if pinned else 1.0
            rhs[nf] = target
            sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
            a_free = sol[:nf]
            if np.any(a_free < -box_tol) or np.any(a_free > upper[free] + box_tol):
                continue
            if abs(t[free] @ a_free - target) > 1e-8:
                continue  # inconsistent KKT system on this face
            a[free] = np.clip(a_free, 0.0, upper[free])
        elif abs(target) > 1e-10:
            continue
        if abs(t @ a) > 1e-8:
            continue
        obj = objective(a)
        if obj > best_obj:
            best_obj, best_a = obj, a.copy()
    return best_obj, best_a
