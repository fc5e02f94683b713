"""Weighted soft-margin binary SVM on a precomputed kernel, trained by SMO.

Solves  max sum(a_i) - 1/2 sum_ij a_i a_j t_i t_j K_ij
        s.t.  0 <= a_i <= C * w_i,   sum_i a_i t_i = 0

with t_i = 2 y_i - 1 for labels y in {0, 1}. Per-sample weights enter as the
box bound C*w_i, the sample-weight semantics of the classical SVC this
mirrors. Working-set selection is the maximal violating pair with
first-index tie-breaking, so training is deterministic.

One solver fits every problem. ``train_weighted_svms`` takes the (Gram, C)
problems of a grid search, which share labels and weights, and runs their
SMO loops in lock-step: each step picks every row's pair with a few numpy
calls over (rows, n) arrays, takes each row's two-variable step in Python
floats, and adds the K-row updates of all rows at once. A finished row,
converged or stuck, leaves the working arrays at the top of a pass; a stuck
step leaves ``alpha`` and ``u`` as they were, so every row takes exactly the
steps, and gives exactly the bits, of a fit of its problem alone. A Gram with
a non-finite entry is refused. ``train_weighted_svm`` is the same solver
called with one problem.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .kernels import GramMatrix

_ETA_FLOOR = 1e-12


@dataclass(frozen=True)
class SolverSettings:
    kkt_tolerance: float = 1e-3
    max_passes: int = 10_000

    def __post_init__(self):
        if self.kkt_tolerance <= 0:
            raise ValueError("kkt_tolerance must be positive")
        if self.max_passes <= 0:
            raise ValueError("max_passes must be positive")


DEFAULT_SETTINGS = SolverSettings()

LABEL_CONVENTION = "y{0,1}<->t{-1,+1}:t=2y-1"


@dataclass(frozen=True, eq=False)
class TrainedSVM:
    """Fitted dual solution; immutable after fit.

    ``dual_coefs[i]`` is alpha_i * t_i over the full training set, nonzero
    exactly at ``support_indices``. A degenerate model (single effective class)
    has zero dual coefficients and bias equal to the sole class's t value.
    """

    dual_coefs: np.ndarray
    bias: float
    C: float
    converged: bool = True
    degenerate: bool = False

    @property
    def support_indices(self) -> np.ndarray:
        """Indices with alpha_i > 0: alpha is never negative or -0.0 and t_i is +-1."""
        return np.flatnonzero(self.dual_coefs)


def _gram_values(gram: GramMatrix | np.ndarray) -> np.ndarray:
    values = gram.values if isinstance(gram, GramMatrix) else np.asarray(gram, dtype=float)
    if values.ndim != 2:
        raise ValueError("gram must be a 2-D matrix")
    return values


def train_weighted_svm(
    gram: GramMatrix | np.ndarray,
    labels: np.ndarray,
    C: float,
    weights: np.ndarray | None = None,
    settings: SolverSettings = DEFAULT_SETTINGS,
) -> TrainedSVM:
    """Fit the weighted SVM dual on a precomputed train x train kernel."""
    return train_weighted_svms([gram], labels, [C], weights, settings)[0]


def train_weighted_svms(
    grams: Sequence[GramMatrix | np.ndarray],
    labels: np.ndarray,
    Cs: Sequence[float],
    weights: np.ndarray | None = None,
    settings: SolverSettings = DEFAULT_SETTINGS,
) -> list[TrainedSVM]:
    """Fit every (gram, C) pair on shared labels and weights, in lock-step.

    Models come back grams outer, Cs inner. Each is bit-identical to a fit of
    its pair alone.
    """
    Ks = [_gram_values(gram) for gram in grams]
    y = np.asarray(labels)
    for K in Ks:
        n = K.shape[0]
        if K.shape[1] != n:
            raise ValueError(f"training gram must be square, got {K.shape}")
        if y.shape != (n,):
            raise ValueError(f"labels shape {y.shape} does not match gram size {n}")
    if not Ks or len(Cs) == 0:
        return []
    stack = np.stack(Ks)
    if not np.isfinite(stack).all():
        raise ValueError("training grams must be finite")
    if not np.isin(y, (0, 1)).all():
        raise ValueError("labels must be 0 or 1")
    for C in Cs:
        if not 0 < C < np.inf:
            raise ValueError(f"C must be positive and finite, got {C}")
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=float)
    if w.shape != (n,):
        raise ValueError(f"weights shape {w.shape} does not match gram size {n}")
    if not ((w >= 0) & (w < np.inf)).all():
        raise ValueError("weights must be nonnegative and finite")

    Cs = [float(C) for C in Cs]
    effective_classes = np.unique(y[w > 0])
    if effective_classes.size == 0:
        raise ValueError("no training samples with positive weight")
    if effective_classes.size == 1:
        sole = float(2 * int(effective_classes[0]) - 1)
        return [
            TrainedSVM(np.zeros(n), sole, C, degenerate=True)
            for _ in Ks for C in Cs
        ]

    t = 2.0 * np.asarray(y, dtype=float) - 1.0
    upper = np.tile(np.asarray(Cs)[:, None] * w, (len(Ks), 1))
    gram_of = np.repeat(np.arange(len(Ks)), len(Cs))
    alpha, u, converged = _smo_lockstep(stack, gram_of, t, upper, settings)
    return [
        TrainedSVM(
            dual_coefs=alpha[r] * t,
            bias=_bias(t, alpha[r], u[r], upper[r]),
            C=Cs[r % len(Cs)],
            converged=bool(converged[r]),
        )
        for r in range(len(gram_of))
    ]


def _smo_lockstep(
    stack: np.ndarray,
    gram_of: np.ndarray,
    t: np.ndarray,
    upper: np.ndarray,
    settings: SolverSettings,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run SMO on every row at once: row r solves Gram ``stack[gram_of[r]]`` under box ``upper[r]``.

    Every row starts at step 0 and picks its pair by first-index argmax over
    its up candidates and argmin over its low ones. A row stops when it has
    no violating pair or its gap is within tolerance (converged), when its
    last step left ``a_j`` unchanged (stuck) or after ``max_passes`` steps.
    Finished rows are copied out and dropped from the working arrays at the
    top of a pass where some row finishes; the Gram stack is never copied.

    Returns the final ``alpha`` and ``u`` (u_k = sum_l alpha_l t_l K_lk) of
    every row, and whether it converged.
    """
    n_grams, n, _ = stack.shape
    rows = len(gram_of)
    alpha_out, u_out = np.zeros((rows, n)), np.zeros((rows, n))
    converged = np.zeros(rows, dtype=bool)
    k_rows = stack.reshape(n_grams * n, n)  # row g*n + i is K[g, i]
    pos = t > 0
    # up candidates take alpha < upper where t > 0 and alpha > 0 where t < 0; low ones the reverse
    below_picks = np.stack([pos, ~pos])
    up_low_sign = np.array([[1.0], [-1.0]])
    tol = settings.kkt_tolerance

    # working set: one entry per unfinished row
    live = np.arange(rows)
    alpha, u, box = np.zeros((rows, n)), np.zeros((rows, n)), upper
    k_base = (gram_of * n)[:, None]

    def bases(count):
        r = np.arange(count)[:, None]
        return r * n, r * (2 * n) + np.array([0, n])

    row_base, pair_base = bases(rows)

    def finish(done, ok, *step_arrays):
        """Copy the finished rows out; the rest of every working and per-step array."""
        alpha_out[live[done]] = alpha[done]
        u_out[live[done]] = u[done]
        converged[live[done]] = ok
        return [a[~done] for a in (live, alpha, u, box, k_base, *step_arrays)]

    stalled = False
    for _ in range(settings.max_passes):
        below = alpha < box
        above = alpha > 0.0
        candidates = np.where(below_picks, below[:, None], above[:, None])
        # [:, 0] is neg_e over up candidates, [:, 1] is -neg_e over low candidates, so one
        # first-index argmax gives i = argmax up and j = argmin low, and
        # gap = neg_e[i] - neg_e[j] = best[:, 0] + best[:, 1] exactly
        values = np.where(candidates, (t - u)[:, None] * up_low_sign, -np.inf)
        ij = values.argmax(2)
        flat = ij + pair_base
        best = values.take(flat)
        gap = best[:, 0] + best[:, 1]
        if stalled or not (gap > tol).all():
            ok = gap <= tol  # a side with no candidate gives gap -inf
            done = ok | (moved == 0.0) if stalled else ok
            if done.any():
                live, alpha, u, box, k_base, ij, gap = finish(done, ok[done], ij, gap)
                if not live.size:
                    break
                row_base, pair_base = bases(live.size)
                flat = ij + pair_base

        cell = ij + row_base  # a_i, a_j in alpha; C w_i, C w_j in box
        k_pair = k_rows.take(ij + k_base, axis=0)  # (rows, 2, n): K[g, i] and K[g, j]
        # in k_pair, flat points at K_ii and K_jj, and flat[:, 1] - n at K_ij
        new = np.array([_pair_step(*args) for args in zip(
            gap.tolist(), alpha.take(cell).tolist(), box.take(cell).tolist(), t.take(ij).tolist(),
            k_pair.take(flat).tolist(), k_pair.take(flat[:, 1] - n).tolist(),
        )])
        alpha.put(cell, new[:, :2])
        u += new[:, 2:3] * k_pair[:, 0]
        u += new[:, 3:4] * k_pair[:, 1]
        moved = new[:, 3]  # delta_j t_j: 0.0 where a_j, and so alpha and u, did not change
        stalled = not moved.all()
    else:
        finish(np.ones(live.size, dtype=bool), False)  # out of passes
    return alpha_out, u_out, converged


def _pair_step(gap, a, box, t, k_diag, k_ij):
    """One SMO step of one row on its pair (i, j), in Python floats.

    Takes the gap, ``[a_i, a_j]``, ``[C w_i, C w_j]``, ``[t_i, t_j]``,
    ``[K_ii, K_jj]`` and ``K_ij``; returns the new ``a_i`` and ``a_j`` with
    the coefficients ``delta_i t_i`` and ``delta_j t_j`` of the K rows added
    to ``u``. Both are 0.0, and ``a_i`` comes back unchanged, when ``a_j`` does not move.
    """
    (ai, aj), (upper_i, upper_j), (ti, tj), (k_ii, k_jj) = a, box, t, k_diag
    if ti != tj:
        lo = max(0.0, aj - ai)
        hi = min(upper_j, upper_i + aj - ai)
    else:
        lo = max(0.0, ai + aj - upper_i)
        hi = min(upper_j, ai + aj)
    eta = k_ii + k_jj - 2.0 * k_ij
    if eta > _ETA_FLOOR:
        # E_i - E_j = neg_e[j] - neg_e[i] = -gap
        aj_new = min(hi, max(lo, aj - tj * gap / eta))
    else:
        # flat direction: step to the improving end of the box
        aj_new = lo if tj > 0 else hi
    delta_j = aj_new - aj
    ai_new = min(upper_i, max(0.0, ai - ti * tj * delta_j))
    return ai_new, aj_new, (ai_new - ai) * ti, delta_j * tj


def _bias(t: np.ndarray, alpha: np.ndarray, u: np.ndarray, upper: np.ndarray) -> float:
    """Bias of one fitted row: the mean over free vectors, else the middle of the feasible interval."""
    neg_e = t - u
    free = (alpha > 0) & (alpha < upper)
    if free.any():
        return float(np.mean(neg_e[free]))
    up_mask = ((t > 0) & (alpha < upper)) | ((t < 0) & (alpha > 0))
    low_mask = ((t < 0) & (alpha < upper)) | ((t > 0) & (alpha > 0))
    lo_b = np.max(neg_e[up_mask]) if up_mask.any() else -np.inf
    hi_b = np.min(neg_e[low_mask]) if low_mask.any() else np.inf
    if np.isinf(lo_b):
        return float(hi_b)
    if np.isinf(hi_b):
        return float(lo_b)
    return float((lo_b + hi_b) / 2.0)


def decision_function(model: TrainedSVM, kernel_row: np.ndarray) -> np.float64 | np.ndarray:
    """sum_i dual_coefs[i] * k(x_i, x_new) + bias.

    Accepts a single row (k(x_i, x_new) per training sample i) or a 2-D
    stack of rows, returning a numpy scalar or a vector accordingly. A row is
    summed in one order whatever the batch, so its decision keeps its bits.
    """
    rows = np.ascontiguousarray(kernel_row, dtype=float)
    if rows.shape[-1] != model.dual_coefs.shape[0]:
        raise ValueError(
            f"kernel row length {rows.shape[-1]} does not match "
            f"training size {model.dual_coefs.shape[0]}"
        )
    return np.einsum("...i,i->...", rows, model.dual_coefs) + model.bias


def predict(model: TrainedSVM, kernel_row: np.ndarray) -> np.int64 | np.ndarray:
    """Label in {0, 1} per row, a numpy scalar for one row; a decision of exactly 0 maps to 1."""
    return (decision_function(model, kernel_row) >= 0).astype(int)


def dual_objective(gram: GramMatrix | np.ndarray, labels: np.ndarray, alphas: np.ndarray) -> float:
    """Value of the dual objective sum(a) - 1/2 (a*t)' K (a*t)."""
    K = _gram_values(gram)
    t = 2.0 * np.asarray(labels, dtype=float) - 1.0
    at = np.asarray(alphas, dtype=float) * t
    return float(np.sum(alphas) - 0.5 * at @ K @ at)


def svm_to_json(model: TrainedSVM) -> dict:
    return {
        "dual_coefs": [float(v) for v in model.dual_coefs],
        "bias": model.bias,
        "support_indices": [int(i) for i in model.support_indices],
        "C": model.C,
        "converged": model.converged,
        "label_convention": LABEL_CONVENTION,
        "degenerate": model.degenerate,
    }


def svm_from_json(obj: dict) -> TrainedSVM:
    model = TrainedSVM(
        dual_coefs=np.asarray(obj["dual_coefs"], dtype=float),
        bias=float(obj["bias"]),
        C=float(obj["C"]),
        converged=bool(obj["converged"]),
        degenerate=bool(obj["degenerate"]),
    )
    if not np.array_equal(obj["support_indices"], model.support_indices):
        raise ValueError(f"support_indices {obj['support_indices']} disagree with the nonzero dual_coefs")
    return model
