"""Weighted soft-margin binary SVM on a precomputed kernel, trained by SMO.

Solves  max sum(a_i) - 1/2 sum_ij a_i a_j t_i t_j K_ij
        s.t.  0 <= a_i <= C * w_i,   sum_i a_i t_i = 0

with t_i = 2 y_i - 1 for labels y in {0, 1}. Per-sample weights enter as the
box bound C*w_i, the sample-weight semantics of the classical SVC this
mirrors. Working-set selection is the maximal violating pair with
first-index tie-breaking, so training is deterministic.

One solver fits every problem. ``train_problems`` runs the (Gram, C) rows of
several problems in lock-step, each problem with its own labels and weights:
the grid searches of a study's datasets, or of one dataset alone;
``train_weighted_svm`` is one problem of one (Gram, C) row. Each pass picks
every row's pair in ``_pick`` (masks from two comparisons, -inf written off
them into one two-sided buffer, one argmax), takes every row's step in
``_pair_steps`` over (rows,) arrays and adds all K-row updates at once. A
finished row, within tolerance or stuck, leaves at the top of a pass. Once at
most ``_TAIL_ROWS`` rows are live, each finishes alone in ``_smo_row`` with
the scalar ``_pair_step``; a single fit runs only that loop. Every row's bias
and verdict are read from one last ``_pick`` over all rows, so the pair, the
bias and ``converged`` (the returned duals' maximal KKT violation is within
``_KKT_TOLERANCE``) share their candidates.

Every row takes exactly the steps, and gives exactly the bits (the sign of
zero included), of a fit of its problem alone: every pick is a first-index
argmax over the same values, and ``_pair_steps`` repeats ``_pair_step``'s
float operations in order, its clips keeping Python's ``max``/``min`` tie
rule (``_max``, ``_min``). A Gram with a non-finite entry is refused.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .quantum_sim import is_real

_KKT_TOLERANCE = 1e-3  # a fit stops, converged, once its duals' maximal KKT violation is within this,
_MAX_PASSES = 10_000  # or, converged or not, after this many passes; both are read at each call
_ETA_FLOOR = 1e-12
# at most this many live rows finish one by one: a lock-step pass over a few rows costs
# more than their 1-D passes (replay sweep in BENCH_lean_pass.json: 4 to 16 tie, 2 loses)
_TAIL_ROWS = 8

LABEL_CONVENTION = "y{0,1}<->t{-1,+1}:t=2y-1"


@dataclass(frozen=True, eq=False)
class TrainedSVM:
    """Fitted dual solution; immutable after fit.

    ``dual_coefs[i]`` is alpha_i * t_i over the full training set, nonzero
    exactly at ``support_indices``; ``converged`` is whether their maximal KKT
    violation is within the solver's tolerance. A degenerate model (single effective
    class) has zero dual coefficients and bias equal to the sole class's t value.
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


def _gram_values(gram: np.ndarray) -> np.ndarray:
    values = np.asarray(gram, dtype=float)
    if values.ndim != 2:
        raise ValueError("gram must be a 2-D matrix")
    return values


def train_weighted_svm(
    gram: np.ndarray,
    labels: np.ndarray,
    C: float,
    weights: np.ndarray | None = None,
) -> TrainedSVM:
    """Fit the weighted SVM dual on a precomputed train x train kernel."""
    return train_problems([([gram], labels, [C], weights)])[0][0]


def train_problems(problems: Sequence[tuple]) -> list[list[TrainedSVM]]:
    """Each ``(grams, labels, Cs, weights)`` problem's models, grams outer and Cs inner, every row
    of every problem in one lock-step call with its own labels and box (weights ``None``: all 1).

    A problem's models are bit-identical to its call alone, and each model to a
    fit of its (Gram, C) pair alone. Every problem is checked before any is
    solved, and one that a lone call refuses is refused with the same message.
    The problems that need a solve must share their training size.
    """
    checked = [_checked(*problem) for problem in problems]
    solved = [rows for models, rows in checked if models is None]
    if solved:
        sizes = sorted({len(problem_t) for _, problem_t, _, _ in solved})
        if len(sizes) > 1:
            raise ValueError(f"problems solved together must share their training size, got {sizes}")
        Ks, gram_of, t, upper, Cs = [], [], [], [], []  # rows: each problem's grams outer, Cs inner
        for problem_Ks, problem_t, problem_Cs, w in solved:
            rows = len(problem_Ks) * len(problem_Cs)
            gram_of.append(len(Ks) + np.arange(rows) // len(problem_Cs))
            Ks += problem_Ks
            t.append(np.broadcast_to(problem_t, (rows, len(problem_t))))
            upper.append(np.tile(np.asarray(problem_Cs)[:, None] * w, (len(problem_Ks), 1)))
            Cs += problem_Cs * len(problem_Ks)
        t, upper = np.concatenate(t), np.concatenate(upper)
        alpha, bias, converged = _smo_lockstep(np.stack(Ks), np.concatenate(gram_of), t, upper)
        fits = iter([TrainedSVM(alpha[r] * t[r], bias[r], C, converged[r]) for r, C in enumerate(Cs)])
    return [models if models is not None else [next(fits) for _ in range(len(rows[0]) * len(rows[2]))]
            for models, rows in checked]


def _checked(grams, labels, Cs, weights) -> tuple:
    """``(models, None)`` for a problem that needs no solve (no Gram or C, or one effective class),
    else ``(None, (Grams, t, Cs, weights))`` with t = 2y - 1; a ValueError for an invalid problem."""
    Ks = [_gram_values(gram) for gram in grams]
    y = np.asarray(labels)
    for K in Ks:
        n = K.shape[0]
        if K.shape[1] != n:
            raise ValueError(f"training gram must be square, got {K.shape}")
        if y.shape != (n,):
            raise ValueError(f"labels shape {y.shape} does not match gram size {n}")
    if not Ks or len(Cs) == 0:
        return [], None
    if not all(np.isfinite(K).all() for K in Ks):
        raise ValueError("training grams must be finite")
    if not np.isin(y, (0, 1)).all():
        raise ValueError("labels must be 0 or 1")
    for C in Cs:
        if not is_real(C):
            raise ValueError(f"C must be a real number, got {C!r}")
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
        return [TrainedSVM(np.zeros(n), sole, C, degenerate=True) for _ in Ks for C in Cs], None
    return None, (Ks, 2.0 * np.asarray(y, dtype=float) - 1.0, Cs, w)


def _smo_lockstep(stack, gram_of, t, upper) -> tuple[np.ndarray, list[float], list[bool]]:
    """Run SMO on every row at once: row r solves Gram ``stack[gram_of[r]]`` with labels ``t[r]``
    under box ``upper[r]``.

    A row stops when it has no violating pair or its gap is within
    ``_KKT_TOLERANCE``, when its last step left ``a_j`` unchanged (stuck) or
    after ``_MAX_PASSES`` steps. Finished rows leave the working
    arrays at the top of a pass; the Gram stack is never copied. Once at most
    ``_TAIL_ROWS`` rows are live, each finishes alone in ``_smo_row`` from its
    own ``alpha``, ``u`` (u_k = sum_l alpha_l t_l K_lk) and remaining passes; a row with
    passes left has yet to step or was just kept by a top-of-pass check, so it is not stuck.
    Returns every row's final ``alpha``, its bias and its verdict from one last ``_pick`` over
    all rows: the bias is the mean of neg_e = t - u over the free vectors (on both sides), else
    the middle of the up and low ends, else the finite end; the verdict is that gap <= tol.
    """
    n_grams, n, _ = stack.shape
    rows = len(gram_of)
    alpha_out, u_out = np.zeros((rows, n)), np.zeros((rows, n))
    k_rows = stack.reshape(n_grams * n, n)  # row g*n + i is K[g, i]
    tol, max_passes = _KKT_TOLERANCE, _MAX_PASSES

    # working set: one entry per unfinished row, in alpha_out and u_out until a row finishes
    live = np.arange(rows)
    alpha, u, box, t_m, neg_m = alpha_out, u_out, upper, t, t < 0
    k_base = gram_of * n
    moved = np.ones(rows)  # no row has stuck before its first step
    # the pick's buffers, of which m live rows use the first m rows; a pass's step takes its
    # K rows into the values once the pick has read them
    value_buf, off_buf = np.empty(2 * rows * n), np.empty(2 * rows * n, dtype=bool)

    def scratch(m):
        return (value_buf[:2 * m * n].reshape(2, m, n), off_buf[:2 * m * n].reshape(2, m, n),
                np.arange(0, 2 * m * n, n).reshape(2, m))

    def finish(done, *step_arrays):
        """Copy the finished rows out; the rest of every working and per-step array."""
        alpha_out[live[done]] = alpha[done]
        u_out[live[done]] = u[done]
        keep = ~done
        return ([a[keep] for a in (live, alpha, u, box, t_m, neg_m, k_base)]
                + [a[..., keep] for a in step_arrays])

    values, off, base = scratch(rows)
    passes = 0
    while live.size > _TAIL_ROWS and passes < max_passes:
        ij, gap = _pick(t_m, neg_m, alpha, u, box, values, off, base)
        if not (gap > tol).all() or not moved.all():
            done = (gap <= tol) | (moved == 0.0)  # a side with no candidate gives gap -inf
            live, alpha, u, box, t_m, neg_m, k_base, moved, ij, gap = finish(done, moved, ij, gap)
            if live.size <= _TAIL_ROWS:
                break  # the tail takes this pass again, row by row
            values, off, base = scratch(live.size)

        # (2, m) flat indices: a_i, a_j in alpha and C w_i, C w_j in box; in k_pair, K_ii and
        # K_jj, with K_ij at cell[1]
        cell, flat = ij + base[0], ij + base
        k_pair = k_rows.take(ij + k_base, axis=0, out=values)  # (2, m, n): K[g, i] and K[g, j]
        ai, aj, ci, cj = _pair_steps(gap, alpha.take(cell), box.take(cell), t_m.take(cell),
                                     k_pair.take(flat), k_pair.take(cell[1]))
        alpha.put(cell[0], ai)
        alpha.put(cell[1], aj)
        k_pair *= np.stack([ci, cj])[..., None]
        u += k_pair[0]
        u += k_pair[1]
        moved = cj  # delta_j t_j: 0.0 where a_j, and so alpha and u, did not change
        passes += 1

    alpha_out[live], u_out[live] = alpha, u
    for r, row in enumerate(live.tolist()):
        _smo_row(stack[gram_of[row]], t[row], box[r], alpha_out[row], u_out[row], max_passes - passes, tol)

    values, off, base = scratch(rows)
    ij, gap = _pick(t, t < 0, alpha_out, u_out, upper, values, off, base)
    free, ends = ~(off[0] | off[1]), values.take(ij + base).T.tolist()
    bias = []
    for r, (up, low) in enumerate(ends):  # low is -min low neg_e
        if free[r].any():
            bias.append(float(np.mean(values[0, r][free[r]])))
        else:
            bias.append(-low if up == -np.inf else up if low == -np.inf else (up - low) / 2.0)
    return alpha_out, bias, (gap <= tol).tolist()


def _pick(t, neg, alpha, u, box, values, off, base):
    """Every row's maximal violating pair: ``ij`` (2, rows), i over up and j over low, and the gap.

    ``t`` and ``neg`` (``t < 0``) are every row's labels, (rows, n); ``values``
    and ``off`` are contiguous (2, rows, n) scratch with (2, rows) flat row
    offsets ``base``. An up candidate has alpha < C w where t > 0 and alpha > 0
    where t < 0, a low one the reverse; ``off`` marks the rest. ``values`` is
    neg_e = t - u on the up side and -neg_e on the low side, -inf off the
    candidates, so one first-index argmax gives i = argmax up, j = argmin low
    and gap = neg_e[i] - neg_e[j] exactly; a side with no candidate gives -inf.
    """
    full, empty = off
    np.greater_equal(alpha, box, out=full)
    np.less_equal(alpha, 0.0, out=empty)
    flip = full ^ empty
    flip &= neg
    off ^= flip  # where t < 0, up is off when empty and low when full
    np.subtract(t, u, out=values[0])
    np.negative(values[0], out=values[1])
    np.copyto(values, -np.inf, where=off)
    ij = values.argmax(-1)
    best = values.take(ij + base)
    return ij, best[0] + best[1]


def _smo_row(K, t, box, alpha, u, passes, tol) -> None:
    """Finish one row alone: the lock-step pass on (n,) arrays, with the scalar step.

    Updates ``alpha`` and ``u`` in place from where the batch left them and
    runs at most ``passes`` more passes. The batch hands over a row that is not
    stuck, so its first pass reads only the gap. Its verdict is read from the
    final ``_pick``, as every row's is.

    ``sides`` stacks t on the up candidates (-inf elsewhere), u, and t on the
    low ones (+inf elsewhere), so ``sides[:2] - sides[1:]`` is ``_pick``'s
    values in one subtraction: u - t is -neg_e but for the sign of an exact
    zero, which moves neither j nor the gap's bits. A step changes sides at i, j.
    """
    n = len(t)
    values, off = np.empty((2, n)), np.empty((2, n), dtype=bool)
    _pick(t, t < 0, alpha, u, box, values, off, np.array([0, n]))
    sides = np.stack([np.where(off[0], -np.inf, t), u, np.where(off[1], np.inf, t)])
    ends, starts, row_u = sides[:2], sides[1:], sides[1]
    a, upper, labels, k_diag = alpha.tolist(), box.tolist(), t.tolist(), K.diagonal().tolist()
    k_rows, moved = list(K), 1.0
    for _ in range(passes):
        np.subtract(ends, starts, out=values)
        i, j = values.argmax(1).tolist()
        gap = values.item(0, i) + values.item(1, j)
        if gap <= tol or moved == 0.0:
            break
        a[i], a[j], ci, moved = _pair_step(gap, (a[i], a[j]), (upper[i], upper[j]), (labels[i], labels[j]),
                                           (k_diag[i], k_diag[j]), K.item(i, j))
        for k in (i, j):
            full, empty = a[k] >= upper[k], a[k] <= 0.0
            up_off, low_off = (full, empty) if labels[k] > 0 else (empty, full)
            sides[0, k], sides[2, k] = -np.inf if up_off else labels[k], np.inf if low_off else labels[k]
        row_u += ci * k_rows[i]
        row_u += moved * k_rows[j]
    alpha[:], u[:] = a, row_u


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


def _max(first, x):
    """Python's ``max(first, x)`` elementwise: ``first`` unless ``x`` is larger, so 0.0 over -0.0."""
    return np.where(x > first, x, first)


def _min(first, x):
    """Python's ``min(first, x)`` elementwise: ``first`` unless ``x`` is smaller."""
    return np.where(x < first, x, first)


def _pair_steps(gap, a, box, t, k_diag, k_ij):
    """``_pair_step`` on a batch of rows, bit for bit.

    ``a``, ``box``, ``t`` and ``k_diag`` are (2, rows), the rest and the four
    results (rows,): the scalar step's operations in order, each branch an
    ``np.where``, each clip ``_max``/``_min``, a flat row's quotient dropped.
    """
    (ai, aj), (upper_i, upper_j), (ti, tj), (k_ii, k_jj) = a, box, t, k_diag
    both, same = ai + aj, ti == tj
    lo = _max(0.0, np.where(same, both - upper_i, aj - ai))
    hi = _min(upper_j, np.where(same, both, upper_i + aj - ai))
    eta = k_ii + k_jj - 2.0 * k_ij
    flat = eta <= _ETA_FLOOR
    some_flat = flat.any()
    if some_flat:
        eta = np.where(flat, 1.0, eta)
    aj_new = _min(hi, _max(lo, aj - tj * gap / eta))
    if some_flat:
        aj_new = np.where(flat, np.where(tj > 0, lo, hi), aj_new)
    delta_j = aj_new - aj
    ai_new = _min(upper_i, _max(0.0, ai - ti * tj * delta_j))
    return ai_new, aj_new, (ai_new - ai) * ti, delta_j * tj


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


def dual_objective(gram: np.ndarray, labels: np.ndarray, alphas: np.ndarray) -> float:
    """Value of the dual objective sum(a) - 1/2 (a*t)' K (a*t)."""
    K = _gram_values(gram)
    t = 2.0 * np.asarray(labels, dtype=float) - 1.0
    at = np.asarray(alphas, dtype=float) * t
    return float(np.sum(alphas) - 0.5 * at @ K @ at)


def svm_to_json(model: TrainedSVM) -> dict:
    return {
        "dual_coefs": [float(v) for v in model.dual_coefs],
        "bias": model.bias,
        "C": model.C,
        "converged": model.converged,
        "label_convention": LABEL_CONVENTION,
        "degenerate": model.degenerate,
    }


def svm_from_json(obj: dict) -> TrainedSVM:
    """The SVM that ``svm_to_json`` wrote, if it writes ``obj`` back."""
    return written_back(obj, svm_to_json, TrainedSVM(
        np.asarray(obj["dual_coefs"], dtype=float), float(obj["bias"]), float(obj["C"]),
        bool(obj["converged"]), bool(obj["degenerate"])))


def written_back(stored: dict, write, loaded):
    """``loaded``, built from ``stored``, if ``write(loaded)`` gives ``stored`` back, apart from the
    ``test_accuracy`` a study adds; else a ValueError naming the keys that differ."""
    stored, written = {key: value for key, value in stored.items() if key != "test_accuracy"}, write(loaded)
    keys = [key for key in sorted(stored.keys() | written.keys(), key=str)
            if key not in stored or key not in written or _differ(stored[key], written[key])]
    if keys:
        raise ValueError(f"stored keys {keys} differ from what their writer gives back")
    return loaded


def _differ(stored, written) -> bool:
    """``stored != written`` as a dict compares its values; a comparison that gives no one
    truth value (a numpy array against a list) differs."""
    try:
        return stored is not written and bool(stored != written)
    except ValueError:
        return True
