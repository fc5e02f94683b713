"""Seeded generators for XOR, moons and circles data, with splitting, scaling and CSV files.

All generators use numpy's PCG64 generator with an explicit seed, so datasets
reproduce bit-exactly. Features are min-max scaled to [0, pi] by a scaling
fitted on the training split only; validation/test features may slightly
exceed that range. One line builder defines the CSV format: ``dataset_to_csv``
writes its lines, and ``dataset_from_csv`` keeps a dataset it built from a file
only if the builder gives back every line of that file.
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
        if not isinstance(self.params, dict):
            raise ValueError(f"params must be a dict, got {self.params!r}")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y.astype(int))
        # a numpy scalar is kept as the Python number it equals, which JSON can write
        object.__setattr__(self, "params", {key: value.item() if isinstance(value, np.generic) else value
                                            for key, value in self.params.items()})
        try:  # as the CSV header writes it
            json.dumps(self.params, sort_keys=True)
        except TypeError as exc:
            raise ValueError(f"params must be writable as JSON, got {self.params!r}: {exc}") from exc
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


def _csv_lines(data: LabeledDataset | SplitDataset) -> list[str]:
    """The lines :func:`dataset_to_csv` writes for ``data``, each ending in a newline. A kind
    that holds whitespace, which would end its header field, is refused."""
    split = isinstance(data, SplitDataset)
    ref = data.train if split else data
    if any(char.isspace() for char in ref.kind):
        raise ValueError(f"dataset kind {ref.kind!r} holds whitespace, which the CSV header cannot")
    blocks = [(f",{name}", getattr(data, name)) for name in _SPLIT_NAMES] if split else [("", data)]
    return [f"# kind={ref.kind} seed={ref.seed} params={json.dumps(ref.params, sort_keys=True)}\n",
            "x1,x2,y,split\n" if split else "x1,x2,y\n",
            *(f"{float(x1)!r},{float(x2)!r},{int(label)}{suffix}\n"
              for suffix, part in blocks for (x1, x2), label in zip(part.X, part.y))]


def dataset_to_csv(path, data: LabeledDataset | SplitDataset) -> None:
    """Write a comment header, the column names and one x1,x2,y row per sample; a split
    dataset's rows end with their split's name."""
    lines = _csv_lines(data)
    with open(path, "w", newline="") as fh:  # "\n" on every platform
        fh.writelines(lines)


def dataset_from_csv(path) -> LabeledDataset | SplitDataset:
    """The dataset that :func:`dataset_to_csv` wrote, if it writes every line of ``path`` back.

    Else a ValueError names the first line that cannot be read or is not written back, and its
    text; a split with no rows is named instead. The dataset refuses its own bad values."""
    def unwritten(at: int) -> ValueError:  # of line index ``at`` of ``lines``, read below
        return ValueError(f"{path} line {at + 1} is not a line dataset_to_csv writes: {lines[at]!r}")

    with open(path, newline="") as fh:  # a line keeps its own ending: "\r\n" is not written back
        lines = list(fh) or [""]  # an empty file reads as one empty line
    at = 0  # index of the line being read
    try:
        _, kind, seed, params = (token.partition("=")[2] for token in lines[0].split(" ", 3))
        seed, params = int(seed), json.loads(params)
        parts = {name: [] for name in (_SPLIT_NAMES if lines[1].endswith(",split\n") else ("",))}
        for at, line in enumerate(lines[2:], 2):
            x1, x2, label, *name = line.removesuffix("\n").split(",")
            # a row of no part is left out, so the line that holds it is not written back
            parts.get(",".join(name), []).append(((float(x1), float(x2)), int(label)))
    except (ValueError, IndexError) as exc:
        raise unwritten(at) from exc
    for name, rows in parts.items():
        if not rows:
            raise ValueError(f"no {name or 'data'} rows in {path}")
    built = [LabeledDataset(*map(np.array, zip(*rows)), kind, seed, params) for rows in parts.values()]
    data = SplitDataset(*built) if len(built) > 1 else built[0]
    for at, (line, written) in enumerate(zip(lines, [*_csv_lines(data), None])):  # None: beyond the end
        if line != written:
            raise unwritten(at)
    return data
