"""Seeded generators for XOR, moons and circles data, with splitting and scaling.

All generators use numpy's PCG64 generator with an explicit seed, so datasets
reproduce bit-exactly. Features are min-max scaled to [0, pi] by a scaling
fitted on the training split only; validation/test features may slightly
exceed that range.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

_SPLIT_RETRIES = 100
_SPLIT_NAMES = ("train", "val", "test")


class OneClassError(ValueError):
    """Every label of a dataset is one class: a fault of the draw, not of the parameters."""


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    """Two-feature samples with binary labels."""

    X: np.ndarray
    y: np.ndarray
    kind: str
    seed: int
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        y = np.asarray(self.y)
        if X.ndim != 2 or X.shape[1] != 2:
            raise ValueError(f"expected (n, 2) features, got {X.shape}")
        if y.shape != (X.shape[0],):
            raise ValueError("labels must match sample count")
        bad = ~np.isin(y, (0, 1))
        if bad.any():
            raise ValueError(f"labels must be 0 or 1, got {np.unique(y[bad]).tolist()}")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y.astype(int))
        if np.unique(self.y).size != 2:
            raise OneClassError("dataset must contain both classes")

    def __len__(self) -> int:
        return len(self.y)


@dataclass(frozen=True)
class SplitDataset:
    train: LabeledDataset
    val: LabeledDataset
    test: LabeledDataset


def make_xor(n: int, margin: float = 0.0, seed: int = 0) -> LabeledDataset:
    """Uniform points on [-1, 1]^2 outside the band |x1*x2| < margin."""
    if n < 4:
        raise ValueError("need at least 4 samples")
    if not 0.0 <= margin < 1.0:
        raise ValueError(f"margin must lie in [0, 1), got {margin}")
    if margin > 0 and n > 1e9 * (1.0 - margin + margin * math.log(margin)):  # P(draw kept) = 1 - m + m ln m
        raise ValueError(f"margin {margin} keeps too few uniform draws: n={n} points need over 1e9")
    rng = np.random.default_rng(seed)
    kept: list[np.ndarray] = []
    total = 0
    while total < n:
        batch = rng.uniform(-1.0, 1.0, size=(max(n, 64), 2))
        batch = batch[np.abs(batch[:, 0] * batch[:, 1]) >= margin]
        kept.append(batch)
        total += len(batch)
    X = np.concatenate(kept)[:n]
    y = (X[:, 0] * X[:, 1] > 0).astype(int)
    return LabeledDataset(X, y, kind="xor", seed=seed, params={"margin": margin})


def _two_class(kind: str, n: int, noise_std: float, seed: int, params: dict, curves) -> LabeledDataset:
    """``n // 2`` class-0 points on ``curves[0]`` and the rest on ``curves[1]``, plus Gaussian noise.

    A curve maps a point count ``m`` to its ``(m, 2)`` noise-free points.
    """
    if n < 4:
        raise ValueError("need at least 4 samples")
    if not 0 <= noise_std < math.inf:
        raise ValueError("noise_std must be nonnegative and finite")
    counts = (n // 2, n - n // 2)
    X = np.concatenate([curve(m) for curve, m in zip(curves, counts)])
    X = X + np.random.default_rng(seed).normal(0.0, noise_std, size=X.shape)
    return LabeledDataset(X, np.repeat([0, 1], counts), kind=kind, seed=seed, params=params)


def make_moons(n: int, noise_std: float = 0.2, seed: int = 0) -> LabeledDataset:
    """Two interleaving half-circles with additive Gaussian noise."""
    def upper(m):
        t = np.linspace(0.0, math.pi, m)
        return np.column_stack([np.cos(t), np.sin(t)])

    return _two_class("moons", n, noise_std, seed, {"noise_std": noise_std},
                      (upper, lambda m: [1.0, 0.5] - upper(m)))


def make_circles(
    n: int, factor: float = 0.5, noise_std: float = 0.1, seed: int = 0
) -> LabeledDataset:
    """Concentric circles: class 0 at radius 1, class 1 at radius ``factor``."""
    if not 0.0 < factor < 1.0:
        raise ValueError(f"factor must lie in (0, 1), got {factor}")

    def ring(m):
        a = np.linspace(0.0, 2.0 * math.pi, m, endpoint=False)
        return np.column_stack([np.cos(a), np.sin(a)])

    return _two_class("circles", n, noise_std, seed, {"factor": factor, "noise_std": noise_std},
                      (ring, lambda m: factor * ring(m)))


GENERATORS = {"xor": make_xor, "moons": make_moons, "circles": make_circles}


def split_and_scale(
    data: LabeledDataset,
    sizes: tuple[int, int, int] = (50, 50, 50),
    seed: int = 0,
) -> SplitDataset:
    """Random disjoint train/val/test split plus min-max scaling to [0, pi].

    Reshuffles (bounded retries) until every split contains both classes.
    The scaling is fitted on the training split only: each feature's train
    minimum maps to 0 and its train maximum to pi, and a constant feature maps to 0.
    """
    if np.shape(sizes) != (3,):
        raise ValueError(f"sizes must be three counts (train, val, test), got {sizes!r}")
    if min(sizes) < 1:
        raise ValueError("every split needs at least one sample")
    if sum(sizes) > len(data):
        raise ValueError(f"split sizes {sizes} exceed dataset size {len(data)}")
    rng = np.random.default_rng(seed)
    for _ in range(_SPLIT_RETRIES):
        idx = np.split(rng.permutation(len(data))[: sum(sizes)], np.cumsum(sizes[:2]))
        if all(np.unique(data.y[ix]).size == 2 for ix in idx):
            break
    else:
        raise ValueError("could not produce splits containing both classes")
    train_X = data.X[idx[0]]
    mins = train_X.min(axis=0)
    span = train_X.max(axis=0) - mins
    scale = np.where(span > 0, math.pi / np.where(span > 0, span, 1.0), 0.0)
    return SplitDataset(*(
        LabeledDataset((data.X[ix] - mins) * scale, data.y[ix], data.kind, data.seed, dict(data.params))
        for ix in idx
    ))


def dataset_to_csv(path, data: LabeledDataset | SplitDataset) -> None:
    """Write x1,x2,y rows (plus a split column post-split) with a comment header."""
    if isinstance(data, SplitDataset):
        ref = data.train
        blocks = [(name, getattr(data, name)) for name in _SPLIT_NAMES]
    else:
        ref = data
        blocks = [(None, data)]
    with open(path, "w") as fh:
        fh.write(f"# kind={ref.kind} seed={ref.seed} params={json.dumps(ref.params, sort_keys=True)}\n")
        fh.write("x1,x2,y,split\n" if isinstance(data, SplitDataset) else "x1,x2,y\n")
        for name, part in blocks:
            suffix = f",{name}" if name else ""
            for (x1, x2), label in zip(part.X, part.y):
                fh.write(f"{float(x1)!r},{float(x2)!r},{int(label)}{suffix}\n")


def _parsed(convert, text: str, name: str, path, lineno: int):
    """``convert(text)`` for ``int``, ``float`` or ``json.loads`` (a JSON object only), or a
    ValueError naming the field, file and line."""
    kind, noun = {int: (int, "an integer"), float: (float, "a number"),
                  json.loads: (dict, "a JSON object")}[convert]
    try:
        value = convert(text)
    except ValueError:  # json.JSONDecodeError is one
        value = None
    if not isinstance(value, kind):
        raise ValueError(f"{path} line {lineno}: {name} {text!r} is not {noun}")
    return value


def dataset_from_csv(path) -> LabeledDataset | SplitDataset:
    """Read a dataset written by :func:`dataset_to_csv`."""
    kind, seed, params = "unknown", 0, {}
    rows: list[tuple[float, float, int, str | None]] = []
    has_split: bool | None = None  # set by the column-header line
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                for token in line[1:].strip().split(" ", 2):
                    key, _, value = token.partition("=")
                    if key == "kind":
                        kind = value
                    elif key == "seed":
                        seed = _parsed(int, value, "seed", path, lineno)
                    elif key == "params":
                        params = _parsed(json.loads, value, "params", path, lineno)
                continue
            if has_split is None:
                has_split = "split" in line.split(",")
                continue
            parts = line.split(",")
            n_fields = 4 if has_split else 3
            if len(parts) != n_fields:
                raise ValueError(f"{path} line {lineno}: expected {n_fields} fields, got {len(parts)}")
            if has_split and parts[3] not in _SPLIT_NAMES:
                raise ValueError(f"{path} line {lineno}: unknown split {parts[3]!r}")
            rows.append(
                (_parsed(float, parts[0], "x1", path, lineno), _parsed(float, parts[1], "x2", path, lineno),
                 _parsed(int, parts[2], "label", path, lineno), parts[3] if has_split else None)
            )
    if not rows:
        raise ValueError(f"no data rows in {path}")
    X = np.array([[r[0], r[1]] for r in rows])
    y = np.array([r[2] for r in rows])
    if has_split:
        parts = {}
        for name in _SPLIT_NAMES:
            mask = np.array([r[3] == name for r in rows])
            if not mask.any():
                raise ValueError(f"no {name} rows in {path}")
            parts[name] = LabeledDataset(X[mask], y[mask], kind, seed, params)
        return SplitDataset(parts["train"], parts["val"], parts["test"])
    return LabeledDataset(X, y, kind, seed, params)
