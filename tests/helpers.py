"""Shared test utilities: independent oracles and random-case generators."""
from __future__ import annotations

import itertools
import math
import os
from pathlib import Path

import numpy as np

from qsvm_boost import boosted_qsvm, kernels, svm_solver
from qsvm_boost.kernels import GramMatrix
from qsvm_boost.quantum_sim import _HADAMARD, FeatureMapSpec, _pauli_action, havlicek_data_map
from qsvm_boost.svm_solver import TrainedSVM

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


ETA_FLOOR = 1e-12


def reference_pick(t: np.ndarray, alpha: np.ndarray, u: np.ndarray, upper: np.ndarray) -> tuple:
    """The oracle's maximal violating pair (i, j, gap) of one state, first index on ties.

    i maximizes neg_e = t - u over the up candidates and j minimizes it over
    the low ones; gap = neg_e[i] - neg_e[j] is -inf when a side has no candidate.
    """
    neg_e = t - u
    up_mask = ((t > 0) & (alpha < upper)) | ((t < 0) & (alpha > 0))
    low_mask = ((t < 0) & (alpha < upper)) | ((t > 0) & (alpha > 0))
    up_vals = np.where(up_mask, neg_e, -np.inf)
    low_vals = np.where(low_mask, neg_e, np.inf)
    i = int(np.argmax(up_vals))
    j = int(np.argmin(low_vals))
    return i, j, up_vals[i] - low_vals[j]


def reference_smo(
    gram: GramMatrix | np.ndarray,
    labels: np.ndarray,
    C: float,
    weights: np.ndarray | None = None,
    *,
    tol: float | None = None,
    max_passes: int | None = None,
) -> TrainedSVM:
    """The scalar SMO loop, one problem at a time: the oracle for the batched solver.

    ``tol`` and ``max_passes`` default to the solver's constants as they are at the call.
    The fit is converged when ``reference_pick`` finds its final state's gap within ``tol``,
    however the loop stopped.
    """
    K = gram.values if isinstance(gram, GramMatrix) else np.asarray(gram, dtype=float)
    n = K.shape[0]
    if K.shape[1] != n:
        raise ValueError(f"training gram must be square, got {K.shape}")
    y = np.asarray(labels)
    if y.shape != (n,):
        raise ValueError(f"labels shape {y.shape} does not match gram size {n}")
    if not np.isin(y, (0, 1)).all():
        raise ValueError("labels must be 0 or 1")
    if C <= 0:
        raise ValueError(f"C must be positive, got {C}")
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=float)
    if w.shape != (n,):
        raise ValueError(f"weights shape {w.shape} does not match gram size {n}")
    if (w < 0).any():
        raise ValueError("weights must be nonnegative")

    t = 2.0 * np.asarray(y, dtype=float) - 1.0
    effective_classes = np.unique(y[w > 0])
    if effective_classes.size == 0:
        raise ValueError("no training samples with positive weight")
    if effective_classes.size == 1:
        sole = float(2 * int(effective_classes[0]) - 1)
        return TrainedSVM(
            dual_coefs=np.zeros(n),
            bias=sole,
            C=float(C),
            degenerate=True,
        )

    upper = C * w
    alpha = np.zeros(n)
    u = np.zeros(n)  # u_k = sum_l alpha_l t_l K_lk
    tol = svm_solver._KKT_TOLERANCE if tol is None else tol
    max_passes = svm_solver._MAX_PASSES if max_passes is None else max_passes

    for _ in range(max_passes):
        i, j, gap = reference_pick(t, alpha, u, upper)
        if gap <= tol:  # a side with no candidate gives gap -inf
            break

        ti, tj = t[i], t[j]
        ai, aj = alpha[i], alpha[j]
        if ti != tj:
            lo = max(0.0, aj - ai)
            hi = min(upper[j], upper[i] + aj - ai)
        else:
            lo = max(0.0, ai + aj - upper[i])
            hi = min(upper[j], ai + aj)
        eta = K[i, i] + K[j, j] - 2.0 * K[i, j]
        if eta > ETA_FLOOR:
            # E_i - E_j = neg_e[j] - neg_e[i] = -gap
            aj_new = aj - tj * gap / eta
            aj_new = min(hi, max(lo, aj_new))
        else:
            # flat direction: step to the improving end of the box
            aj_new = lo if tj > 0 else hi
        if aj_new == aj:
            break  # numerically stuck; report the best iterate
        delta_j = aj_new - aj
        ai_new = min(upper[i], max(0.0, ai - ti * tj * delta_j))
        delta_i = ai_new - ai
        alpha[i] = ai_new
        alpha[j] = aj_new
        u = u + (delta_i * ti) * K[i] + (delta_j * tj) * K[j]

    converged = bool(reference_pick(t, alpha, u, upper)[2] <= tol)
    neg_e = t - u
    free = (alpha > 0) & (alpha < upper)
    if free.any():
        bias = float(np.mean(neg_e[free]))
    else:
        up_mask = ((t > 0) & (alpha < upper)) | ((t < 0) & (alpha > 0))
        low_mask = ((t < 0) & (alpha < upper)) | ((t > 0) & (alpha > 0))
        lo_b = np.max(neg_e[up_mask]) if up_mask.any() else -np.inf
        hi_b = np.min(neg_e[low_mask]) if low_mask.any() else np.inf
        if np.isinf(lo_b) and np.isinf(hi_b):
            bias = 0.0
        elif np.isinf(lo_b):
            bias = float(hi_b)
        elif np.isinf(hi_b):
            bias = float(lo_b)
        else:
            bias = float((lo_b + hi_b) / 2.0)

    return TrainedSVM(
        dual_coefs=alpha * t,
        bias=bias,
        C=float(C),
        converged=converged,
    )


def reference_hadamard(psi: np.ndarray) -> np.ndarray:
    """H on every qubit, one moveaxis and complex 2x2 matmul per qubit: the oracle
    for the simulator's two-matmul Hadamard layer."""
    m, dim = psi.shape
    n = dim.bit_length() - 1
    t = psi.reshape((m,) + (2,) * n)
    for ax in range(1, n + 1):
        t = np.moveaxis(np.moveaxis(t, ax, -1) @ _HADAMARD, -1, ax)
    return t.reshape(m, dim)


def reference_real_hadamard(psi: np.ndarray) -> np.ndarray:
    """H on every qubit of psi's float64 parts, (m, 2^n * 2) with each amplitude's real and
    imaginary part side by side: one moveaxis and real 2x2 matmul per qubit. Its zeros take their
    sign from the matmul's sums alone, as the simulator's do, where the complex oracle's products
    with a zero imaginary part of H can give -0.0."""
    m, dim = psi.shape
    n = dim.bit_length() - 1
    t = np.ascontiguousarray(psi).view(np.float64).reshape((m,) + (2,) * n + (2,))
    for ax in range(1, n + 1):
        t = np.moveaxis(_HADAMARD.real @ np.moveaxis(t, ax, -2), -2, ax)
    return t.reshape(m, 2 * dim)


def reference_apply_pauli(psi: np.ndarray, action: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Return P|psi> for each row of psi, P given by its ``_pauli_action``."""
    index, phase = action
    return np.take(psi, index, axis=1) * phase


def reference_rotate(
    psi: np.ndarray, action: tuple[np.ndarray, np.ndarray], thetas: np.ndarray
) -> np.ndarray:
    """exp(i*theta*P)|psi> in complex arithmetic: the oracle for the real-view rotation."""
    flipped = reference_apply_pauli(psi, action)
    c = np.cos(thetas)[:, None]
    s = np.sin(thetas)[:, None]
    return c * psi + 1j * s * flipped


def reference_states(spec: FeatureMapSpec, X: np.ndarray) -> np.ndarray:
    """``feature_map_states`` built from the oracle Hadamard layer and rotation."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    terms = [
        (_pauli_action(letters), spec.alpha * havlicek_data_map(subset, X))
        for letters, subset in spec.terms()
    ]
    psi = np.zeros((X.shape[0], 1 << spec.n_qubits), dtype=complex)
    psi[:, 0] = 1.0
    for _ in range(spec.reps):
        psi = reference_hadamard(psi)
        for action, thetas in terms:
            psi = reference_rotate(psi, action, thetas)
    return psi


def reference_moons(n: int, noise_std: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """``(X, y)`` of moons, each class built on its own and then noised."""
    n0, n1 = n // 2, n - n // 2
    t0 = np.linspace(0.0, math.pi, n0)
    t1 = np.linspace(0.0, math.pi, n1)
    X = np.concatenate([
        np.column_stack([np.cos(t0), np.sin(t0)]),
        np.column_stack([1.0 - np.cos(t1), 0.5 - np.sin(t1)]),
    ])
    X = X + np.random.default_rng(seed).normal(0.0, noise_std, size=X.shape)
    return X, np.concatenate([np.zeros(n0, dtype=int), np.ones(n1, dtype=int)])


def reference_circles(n: int, factor: float, noise_std: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """``(X, y)`` of circles, each class built on its own and then noised."""
    n0, n1 = n // 2, n - n // 2
    a0 = np.linspace(0.0, 2.0 * math.pi, n0, endpoint=False)
    a1 = np.linspace(0.0, 2.0 * math.pi, n1, endpoint=False)
    X = np.concatenate([
        np.column_stack([np.cos(a0), np.sin(a0)]),
        factor * np.column_stack([np.cos(a1), np.sin(a1)]),
    ])
    X = X + np.random.default_rng(seed).normal(0.0, noise_std, size=X.shape)
    return X, np.concatenate([np.zeros(n0, dtype=int), np.ones(n1, dtype=int)])


def reference_scale(fit_X: np.ndarray, X: np.ndarray) -> np.ndarray:
    """``X`` under the per-feature affine map sending ``fit_X``'s min/max range onto [0, pi];
    a feature constant in ``fit_X`` maps to 0."""
    mins, maxs = fit_X.min(axis=0), fit_X.max(axis=0)
    span = maxs - mins
    scale = np.where(span > 0, math.pi / np.where(span > 0, span, 1.0), 0.0)
    return (X - mins) * scale


def reference_split(X: np.ndarray, y: np.ndarray, sizes, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Train, val and test ``(X, y)``: slices of the first permutation, drawn with up to
    100 retries, whose every part holds both classes, scaled on the train part."""
    n_train, n_val, n_test = sizes
    rng = np.random.default_rng(seed)
    for _ in range(100):
        perm = rng.permutation(len(y))
        idx = [perm[:n_train], perm[n_train:n_train + n_val],
               perm[n_train + n_val:n_train + n_val + n_test]]
        if all(np.unique(y[ix]).size == 2 for ix in idx):
            break
    else:
        raise ValueError("could not produce splits containing both classes")
    return [(reference_scale(X[idx[0]], X[ix]), y[ix]) for ix in idx]


def count_solver_calls(monkeypatch) -> list:
    """Record the arguments of every batched solver call the grid search makes."""
    calls = []
    solve = boosted_qsvm.train_weighted_svms

    def counting(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(boosted_qsvm, "train_weighted_svms", counting)
    return calls


def count_simulations(monkeypatch) -> list:
    """Record (spec, rows, states) for every simulator call the Gram layer makes."""
    calls = []
    simulate = kernels.feature_map_states

    def counting(spec, X):
        states = simulate(spec, X)
        calls.append((spec, np.array(X, dtype=float), states))
        return states

    monkeypatch.setattr(kernels, "feature_map_states", counting)
    return calls


def count_cross_grams(monkeypatch) -> list:
    """Record (spec id, X_a bytes, X_b bytes) for every Gram between two row sets that the
    Gram layer builds; a self Gram is not recorded."""
    calls = []
    build = kernels.gram_matrix

    def counting(spec, X_a, X_b=None, **kwargs):
        if X_b is not None:
            calls.append((spec.canonical(), np.asarray(X_a, dtype=float).tobytes(),
                          np.asarray(X_b, dtype=float).tobytes()))
        return build(spec, X_a, X_b, **kwargs)

    monkeypatch.setattr(kernels, "gram_matrix", counting)
    return calls


def src_env() -> dict:
    """This process's environment with the checkout's ``src`` first on PYTHONPATH,
    so a subprocess imports the package under test without it being installed."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env
