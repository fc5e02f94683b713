"""Weighted soft-margin binary SVM on a precomputed kernel, trained by SMO.

Solves  max sum(a_i) - 1/2 sum_ij a_i a_j t_i t_j K_ij
        s.t.  0 <= a_i <= C * w_i,   sum_i a_i t_i = 0

with t_i = 2 y_i - 1 for labels y in {0, 1}. Per-sample weights enter as the
box bound C*w_i, the sample-weight semantics of the classical SVC this
mirrors. Working-set selection is the maximal violating pair with
first-index tie-breaking, so training is deterministic.
"""
from __future__ import annotations

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

    ``dual_coefs[i]`` is alpha_i * t_i over the full training set, zero
    outside ``support_indices``. A degenerate model (single effective class)
    has zero dual coefficients and bias equal to the sole class's t value.
    """

    dual_coefs: np.ndarray
    bias: float
    support_indices: np.ndarray
    C: float
    converged: bool = True
    degenerate: bool = False


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
    K = _gram_values(gram)
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
            support_indices=np.array([], dtype=int),
            C=float(C),
            degenerate=True,
        )

    upper = C * w
    alpha = np.zeros(n)
    u = np.zeros(n)  # u_k = sum_l alpha_l t_l K_lk
    tol = settings.kkt_tolerance
    converged = False

    for _ in range(settings.max_passes):
        neg_e = t - u
        up_mask = ((t > 0) & (alpha < upper)) | ((t < 0) & (alpha > 0))
        low_mask = ((t < 0) & (alpha < upper)) | ((t > 0) & (alpha > 0))
        if not up_mask.any() or not low_mask.any():
            converged = True
            break
        up_vals = np.where(up_mask, neg_e, -np.inf)
        low_vals = np.where(low_mask, neg_e, np.inf)
        i = int(np.argmax(up_vals))
        j = int(np.argmin(low_vals))
        gap = up_vals[i] - low_vals[j]
        if gap <= tol:
            converged = True
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
        if eta > _ETA_FLOOR:
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
        support_indices=np.flatnonzero(alpha > 0),
        C=float(C),
        converged=converged,
    )


def decision_function(model: TrainedSVM, kernel_row: np.ndarray) -> float | np.ndarray:
    """sum_i dual_coefs[i] * k(x_i, x_new) + bias.

    Accepts a single row (k(x_i, x_new) per training sample i) or a 2-D
    stack of rows, returning a scalar or a vector accordingly.
    """
    rows = np.asarray(kernel_row, dtype=float)
    if rows.shape[-1] != model.dual_coefs.shape[0]:
        raise ValueError(
            f"kernel row length {rows.shape[-1]} does not match "
            f"training size {model.dual_coefs.shape[0]}"
        )
    values = rows @ model.dual_coefs + model.bias
    return float(values) if rows.ndim == 1 else values


def predict(model: TrainedSVM, kernel_row: np.ndarray) -> int | np.ndarray:
    """Label in {0, 1}; a decision value of exactly 0 maps to 1."""
    values = decision_function(model, kernel_row)
    if np.ndim(values) == 0:
        return 1 if values >= 0 else 0
    return (values >= 0).astype(int)


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
    return TrainedSVM(
        dual_coefs=np.asarray(obj["dual_coefs"], dtype=float),
        bias=float(obj["bias"]),
        support_indices=np.asarray(obj["support_indices"], dtype=int),
        C=float(obj["C"]),
        converged=bool(obj.get("converged", True)),
        degenerate=bool(obj.get("degenerate", False)),
    )
