"""Fidelity quantum kernel, classical baseline kernels, and Gram assembly.

The fidelity kernel is k(x, y) = |<phi(x)|phi(y)>|^2, the squared overlap of
the encoded statevectors, taken pairwise. Each row set is simulated once per
Gram pair: :class:`GramCache` hands its last train-side states to the next
Gram on those rows. Every kernel's Gram, fidelity, rbf or linear, goes
through one assembly that mirrors a self Gram's upper triangle. :class:`GramCache`
memoizes fidelity Grams, grid searches and fitted cells' observables; the
classical baseline's Grams are built per use.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .quantum_sim import FeatureMapSpec, feature_map_states, is_real


@dataclass(frozen=True, eq=False)
class GramMatrix:
    """Matrix of pairwise kernel values."""

    values: np.ndarray


def _assemble(values: np.ndarray, X_b) -> GramMatrix:
    # a self Gram (X_b=None) keeps its upper triangle, mirrored below the diagonal: exact symmetry
    if X_b is None:
        values = np.triu(values) + np.triu(values, 1).T
    return GramMatrix(values)


def gram_matrix(spec: FeatureMapSpec, X_a: np.ndarray, X_b: np.ndarray | None = None, *,
                states_b: np.ndarray | None = None) -> GramMatrix:
    """Fidelity kernel between every row of X_a and X_b.

    With ``X_b=None`` the Gram of X_a against itself is returned, with the
    upper triangle computed and mirrored so the result is exactly symmetric.
    ``states_b``, if given, are X_b's states (X_a's for a self Gram).
    """
    if states_b is None:
        states_b = feature_map_states(spec, X_a if X_b is None else X_b)
    states_a = states_b if X_b is None else feature_map_states(spec, X_a)
    values = np.abs(states_a @ states_b.conj().T)
    return _assemble(np.square(values, out=values), X_b)


def _operands(X_a: np.ndarray, X_b: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """Both sample sets of a classical Gram as 2-D float arrays, X_a twice for a self Gram."""
    X_a = np.atleast_2d(np.asarray(X_a, dtype=float))
    X_b2 = X_a if X_b is None else np.atleast_2d(np.asarray(X_b, dtype=float))
    if not (np.isfinite(X_a).all() and np.isfinite(X_b2).all()):
        raise ValueError("samples must be finite")
    return X_a, X_b2


def rbf_gram(X_a: np.ndarray, X_b: np.ndarray | None = None, *, gamma: float) -> GramMatrix:
    if not is_real(gamma):
        raise ValueError(f"gamma must be a real number, got {gamma!r}")
    gamma = float(gamma)  # a Fraction would make the Gram an object array
    if not 0 < gamma < np.inf:
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
    X_a, X_b2 = _operands(X_a, X_b)
    sq = (
        np.sum(X_a**2, axis=1)[:, None]
        + np.sum(X_b2**2, axis=1)[None, :]
        - 2.0 * (X_a @ X_b2.T)
    )
    return _assemble(np.exp(-gamma * np.maximum(sq, 0.0)), X_b)


def linear_gram(X_a: np.ndarray, X_b: np.ndarray | None = None) -> GramMatrix:
    X_a, X_b2 = _operands(X_a, X_b)
    return _assemble(X_a @ X_b2.T, X_b)


def _digest(X: np.ndarray) -> str:
    X = np.ascontiguousarray(X)
    h = hashlib.sha1()
    h.update(str(X.shape).encode())
    h.update(X.dtype.str.encode())
    h.update(X.tobytes())
    return h.hexdigest()


class GramCache:
    """Memoizes fidelity Gram matrices, keyed on (feature map, dataset content hash),
    and ``search`` results: grid searches, keyed on grid, excluded maps, data, labels
    and weights, and fitted cells' observables W (``boosted_qsvm.decisions``).

    One cache serves one dataset and keeps every fidelity Gram it builds, self
    and val x train, for its own life: grid search reuses the same (feature
    map, alpha) Grams across all C values and boosting rounds. A repeated
    search, such as boosting's unit-weight round 1 after the single QSVM's
    search on the same split, is not run again. A hit returns the stored
    object unchanged; ``len`` counts every entry. Classical baseline Grams are
    not held here: no study asks for one twice, so each is built per use.
    Scoring new points adds no entry per batch.

    A fidelity miss keeps the states of its train side (X_a of a self Gram,
    X_b of a cross Gram), read-only and outside ``len``, for the grid's next
    Gram on those rows: one entry, about 0.2 MB for 50 rows at 8 qubits.
    """

    def __init__(self):
        self._grams: dict[tuple, GramMatrix] = {}
        self._searches: dict[tuple, object] = {}
        self._states: tuple = ((), None)  # ((feature map, rows digest), states)

    def __len__(self) -> int:
        return len(self._grams) + len(self._searches)

    @staticmethod
    def _search_key(params: tuple, arrays) -> tuple:
        return params, tuple(None if a is None else _digest(a) for a in arrays)

    def search(self, params: tuple, arrays, run):
        """``run()``'s result, memoized on hashable ``params`` plus the content
        of ``arrays`` (each an array or None); ``run`` is called on a miss only."""
        key = self._search_key(params, arrays)
        if key not in self._searches:
            self._searches[key] = run()
        return self._searches[key]

    def resumable_search(self, params: tuple, arrays, rounds):
        """``search`` for a resumable run: a generator that, on a miss only, yields from the
        generator ``rounds`` and stores what it returns."""
        key = self._search_key(params, arrays)
        if key not in self._searches:
            self._searches[key] = yield from rounds
        return self._searches[key]

    def fidelity(self, spec: FeatureMapSpec, X_a: np.ndarray, X_b: np.ndarray | None = None) -> GramMatrix:
        key = (spec.canonical(), _digest(X_a), None if X_b is None else _digest(X_b))
        if key not in self._grams:
            self._grams[key] = self._build(spec, X_a, X_b, (key[0], key[2] or key[1]))
        return self._grams[key]

    def _build(self, spec: FeatureMapSpec, X_a: np.ndarray, X_b, states_key: tuple) -> GramMatrix:
        if self._states[0] != states_key:
            self._states = (states_key, feature_map_states(spec, X_a if X_b is None else X_b))
            self._states[1].flags.writeable = False
        return gram_matrix(spec, X_a, X_b, states_b=self._states[1])
