"""The benchmark's three workloads: study, kernel_wide and predict_stream.

Each workload builds its inputs in ``setup()``, does one unit of measured work
per ``unit()`` call and checks its outputs as it goes; ``check()`` runs the
checks that need the whole run. Library calls go through module attributes
(``boosted_qsvm.fit_boosted``, not a name imported into this file), so the
shims of a traced run see the benchmark's own calls too.
"""
from __future__ import annotations

import csv
import io
import math
import statistics
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from qsvm_boost import boosted_qsvm, datasets, experiment, kernels, quantum_sim

# sizes for the smoke test; the real workloads use the library defaults
TINY_GRID = boosted_qsvm.GridSpec(feature_maps=(("Z",), ("X", "XX")), alphas=(1.0,), Cs=(1.0, 10.0))
TINY_STUDY = dict(
    n_points=60, split_sizes=(20, 20, 20), grid=TINY_GRID, max_rounds=2,
    baseline_Cs=(1.0,), baseline_gammas=(1.0,),
)
VALUE_TOL = 1e-12  # fidelities may leave [0, 1] by round-off only
PSD_TOL = 1e-9


@dataclass
class Op:
    """One operation: a dataset, a Gram or a batch.

    Ops of one ``kind`` do the same work, so their times differ only by noise.
    """

    kind: str
    seconds: float
    problem: str = ""  # empty when the op succeeded and passed its output checks
    start: float = 0.0  # perf_counter() when the op began
    unit: int = 0  # index of the unit of work the op belongs to

    @property
    def failed(self) -> bool:
        return bool(self.problem)


class Workload:
    name: str
    op_name: str
    setup_reps: int = 3

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        self.seed = seed
        self.workdir = Path(workdir)
        self.tiny = tiny
        self.tracer = None  # set by the runner while shims are installed

    def setup(self) -> None:
        raise NotImplementedError

    def unit(self) -> list[Op]:
        """Run one unit of work, in which each kind of op occurs once."""
        raise NotImplementedError

    def check(self) -> list[Op]:
        """Checks that need the whole run; returns the extra ops they performed."""
        return []

    def reference_unit(self) -> None:
        """A fixed slice of work timed untraced and traced to measure tracing overhead."""
        self.unit()

    def _next_op(self) -> None:
        if self.tracer is not None:
            self.tracer.op += 1


def per_unit_percentile(units, seconds, q: float) -> float:
    """Median over units of the q-th percentile of op times within each unit.

    A slowdown from another tenant shifts the percentiles of the units it
    overlaps; the median over units leaves them out.
    """
    by_unit = defaultdict(list)
    for unit, s in zip(units, seconds):
        by_unit[unit].append(s)
    return statistics.median(float(np.percentile(times, q)) for times in by_unit.values())


def ops_per_second(kinds, seconds) -> float:
    """Throughput of a unit in which every kind of op runs once at its median time."""
    by_kind = defaultdict(list)
    for kind, s in zip(kinds, seconds):
        by_kind[kind].append(s)
    return len(by_kind) / sum(statistics.median(times) for times in by_kind.values())


def _exc_text(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


# --- study ---

def _records_without_wall_time(path: Path) -> bytes:
    rows = list(csv.reader(io.StringIO(path.read_text())))
    wall = rows[0].index("wall_time")
    return "\n".join(",".join(r[:wall] + r[wall + 1:]) for r in rows).encode()


class Study(Workload):
    """``run_experiment`` on the default config, one dataset per family per unit.

    The measured datasets are those of the default master seed, the study that
    users and the acceptance suite run: seeded datasets differ up to 3x in SMO
    work, which no run short enough for the benchmark can average out. The
    benchmark seed is the master seed of the check slice, a circles study whose
    bundles are re-evaluated like those of the measured units. Repeated units
    must give the same records and bundles byte for byte, wall time aside.
    """

    name = "study"
    op_name = "datasets"

    def setup(self) -> None:
        extra = TINY_STUDY if self.tiny else {}
        self.config = experiment.ExperimentConfig(datasets_per_family=1, **extra)
        self.check_config = replace(self.config, families=("circles",), master_seed=self.seed)
        self.runs: list[tuple[Path, list[Op], list]] = []
        self.check_runs: list[Path] = []

    def _run(self, config) -> tuple[Path, list]:
        out = Path(tempfile.mkdtemp(prefix="study-", dir=self.workdir))
        return out, experiment.run_experiment(replace(config, output_dir=str(out)))

    def unit(self) -> list[Op]:
        self._next_op()
        t0 = time.perf_counter()
        try:
            out, records = self._run(self.config)
        except Exception as exc:  # a crash of the whole study fails each of its datasets
            share = (time.perf_counter() - t0) / len(self.config.families)
            return [Op(family, share, _exc_text(exc), t0 + i * share)
                    for i, family in enumerate(self.config.families)]
        ops = [_dataset_op(recs) for recs in _by_dataset(records).values()]
        # datasets run one after another in family order; records carry no start times
        for op in sorted(ops, key=lambda op: self.config.families.index(op.kind)):
            op.start, t0 = t0, t0 + op.seconds
        self.runs.append((out, ops, records))
        return ops

    def reference_unit(self) -> None:
        self.check_runs.append(self._run(self.check_config)[0])

    def check(self) -> list[Op]:
        """Bundles re-evaluate to their records; runs of the same seed agree byte for byte."""
        if not self.check_runs:  # a traced run has already run the slice twice
            self.reference_unit()
        extra = []
        for out, ops, records in self.runs:
            for op, recs in zip(ops, _by_dataset(records).values()):
                op.problem = op.problem or _reload_problem(out, recs)
        for out in self.check_runs[:1]:
            records = experiment.read_records_csv(out / "records.csv")
            for recs in _by_dataset(records).values():
                op = _dataset_op(recs)
                op.problem = op.problem or _reload_problem(out, recs)
                extra.append(op)
        for out, ops, _ in self.runs[1:]:
            problem = _difference(self.runs[0][0], out)
            for op in ops:
                op.problem = op.problem or problem
        if len(self.check_runs) > 1:
            problem = _difference(self.check_runs[0], self.check_runs[1])
            for op in extra:
                op.problem = op.problem or problem
        return extra


def _dataset_op(recs) -> Op:
    errors = "; ".join(r.error for r in recs if r.error)
    return Op(recs[0].family, sum(r.wall_time for r in recs), errors)


def _difference(a: Path, b: Path) -> str:
    """Why two output directories of the same config differ, or '' when they agree."""
    if _records_without_wall_time(a / "records.csv") != _records_without_wall_time(b / "records.csv"):
        return f"records of {a.name} and {b.name} differ beyond wall time"
    for bundle in sorted((a / "models").iterdir()):
        if bundle.read_bytes() != (b / "models" / bundle.name).read_bytes():
            return f"model bundle {bundle.name} differs between {a.name} and {b.name}"
    return ""


def _by_dataset(records) -> dict[tuple, list]:
    groups: dict[tuple, list] = {}
    for r in records:
        groups.setdefault((r.family, r.dataset_seed), []).append(r)
    return groups


def _reload_problem(out: Path, recs) -> str:
    """Re-evaluate a dataset's model bundle from disk; empty when it matches the records."""
    stem = f"{recs[0].family}_{recs[0].dataset_seed}"
    try:
        bundle = experiment.reload_bundle(out / "models" / f"{stem}.json")
        split = datasets.dataset_from_csv(out / "datasets" / f"{stem}.csv")
        reloaded = experiment.evaluate_reloaded(bundle, split)
    except Exception as exc:
        return f"reload failed: {_exc_text(exc)}"
    for r in recs:
        if not r.error and reloaded.get(r.model_id) != r.test_accuracy:
            return f"{stem} {r.model_id}: reloaded accuracy {reloaded.get(r.model_id)} != {r.test_accuracy}"
    return ""


def study_metrics(runs) -> dict[str, float]:
    """Per-model wall time, accuracy and ensemble size summed or averaged over the measured records."""
    records = [r for _, _, recs in runs for r in recs if not r.error]

    def of(model_id, key):
        return [getattr(r, key) for r in records if r.model_id == model_id]

    def mean(values):
        return float(np.mean(values)) if values else 0.0

    names = {"single": experiment.MODEL_SINGLE, "boosted": experiment.MODEL_BOOSTED,
             "baseline": experiment.MODEL_BASELINE}
    out = {f"study.{short}_s": float(sum(of(model, "wall_time"))) for short, model in names.items()}
    out.update({f"study.acc_{short}_mean": mean(of(model, "test_accuracy")) for short, model in names.items()})
    out["study.ensemble_size_mean"] = mean(of(experiment.MODEL_BOOSTED, "ensemble_size"))
    return out


# --- kernel_wide ---

def gram_problem(values: np.ndarray, square: bool) -> str:
    """Why a fidelity Gram is invalid, or '' when it is valid."""
    if not np.isfinite(values).all():
        return "non-finite entry"
    if values.min() < -VALUE_TOL or values.max() > 1.0 + VALUE_TOL:
        return "entry outside [0, 1]"
    if square:
        if not np.array_equal(values, values.T):
            return "not symmetric"
        if np.abs(np.diag(values) - 1.0).max() > PSD_TOL:
            return "diagonal is not 1"
        if np.linalg.eigvalsh(values).min() < -PSD_TOL * len(values):
            return "not positive semidefinite"
    return ""


class KernelWide(Workload):
    """Cold-cache fidelity Grams for one full default grid round at 8 qubits, no SMO."""

    name = "kernel_wide"
    op_name = "grams"

    def setup(self) -> None:
        n_qubits, rows = (2, 8) if self.tiny else (8, 50)
        grid = TINY_GRID if self.tiny else boosted_qsvm.GridSpec()
        rng = np.random.default_rng(self.seed)
        self.X_train = rng.uniform(0.0, math.pi, size=(rows, n_qubits))
        self.X_val = rng.uniform(0.0, math.pi, size=(rows, n_qubits))
        self.specs = [grid.spec_for(labels, alpha, n_qubits)
                      for labels in grid.feature_maps for alpha in grid.alphas]

    def unit(self) -> list[Op]:
        cache = kernels.GramCache()
        ops = []
        for spec in self.specs:
            for X_a, X_b in ((self.X_train, None), (self.X_val, self.X_train)):
                self._next_op()
                t0 = time.perf_counter()
                try:
                    gram = cache.fidelity(spec, X_a, X_b)
                    seconds = time.perf_counter() - t0
                    problem = gram_problem(gram.values, square=X_b is None)
                except Exception as exc:
                    seconds, problem = time.perf_counter() - t0, _exc_text(exc)
                kind = f"{spec.canonical()} {'train' if X_b is None else 'val'}"
                ops.append(Op(kind, seconds, problem and f"{kind}: {problem}", t0))
        return ops

    def check(self) -> list[Op]:
        """A 2-qubit Gram against the dense-unitary oracle."""
        spec = quantum_sim.FeatureMapSpec(2, ("X", "Y", "ZZ"), reps=2, alpha=1.5)
        points = np.random.default_rng(self.seed).uniform(0.0, math.pi, size=(6, 2))
        t0 = time.perf_counter()
        gram = kernels.GramCache().fidelity(spec, points).values
        seconds = time.perf_counter() - t0
        states = np.array([quantum_sim.dense_unitary_oracle(spec, x)[:, 0] for x in points])
        expected = np.abs(states.conj() @ states.T) ** 2
        error = float(np.abs(gram - expected).max())
        return [Op("oracle", seconds, "" if error < 1e-10 else f"2-qubit Gram differs from the oracle by {error:.3g}")]


# --- predict_stream ---

class PredictStream(Workload):
    """Fresh batches scored by one fitted ensemble through one long-lived cache per pass.

    The ensemble is fitted in setup on the default study's first moons
    dataset; the batches come from the benchmark seed. Every lookup misses,
    so the cache grows by one entry per batch and active round until the pass
    ends; passes are fixed-length so memory does not depend on speed.
    """

    name = "predict_stream"
    op_name = "batches"
    setup_reps = 2

    def setup(self) -> None:
        config = experiment.ExperimentConfig(**(TINY_STUDY if self.tiny else {}))
        family = config.families.index("moons")
        data = datasets.make_moons(
            config.n_points, seed=experiment.derive_seed(config.master_seed, family, 0, 0),
            **config.dataset_params["moons"],
        )
        split = datasets.split_and_scale(
            data, config.split_sizes, seed=experiment.derive_seed(config.master_seed, family, 0, 1)
        )
        self.X_train = split.train.X
        self.ensemble = boosted_qsvm.fit_boosted(
            split.train.X, split.train.y, split.val.X, split.val.y,
            config.grid, config.max_rounds, kernels.GramCache(),
        )
        self.batch_size, self.batches_per_pass = (16, 4) if self.tiny else (500, 64)
        self.rng = np.random.default_rng(self.seed)

    def _score(self, X, cache):
        return boosted_qsvm.predict_ensemble_batch(self.ensemble, X, self.X_train, cache)

    def unit(self) -> list[Op]:
        batches = self.rng.uniform(0.0, math.pi, size=(self.batches_per_pass, self.batch_size, 2))
        sampled = int(self.rng.integers(self.batches_per_pass))
        cache = kernels.GramCache()
        ops = []
        for k, X in enumerate(batches):
            self._next_op()
            t0 = time.perf_counter()
            try:
                scores, labels = self._score(X, cache)
                seconds = time.perf_counter() - t0
                problem = _batch_problem(scores, labels)
                if k == sampled and not problem:
                    fresh_scores, fresh_labels = self._score(X, kernels.GramCache())
                    if not (np.array_equal(fresh_scores, scores) and np.array_equal(fresh_labels, labels)):
                        problem = "a fresh cache gives another output"
            except Exception as exc:
                seconds, problem = time.perf_counter() - t0, _exc_text(exc)
            ops.append(Op("batch", seconds, problem, t0))
        return ops


def _batch_problem(scores: np.ndarray, labels: np.ndarray) -> str:
    if scores.shape != labels.shape:
        return "scores and labels differ in shape"
    if not (np.isfinite(scores).all() and scores.min() >= 0.0 and scores.max() <= 1.0):
        return "score outside [0, 1]"
    if not np.isin(labels, (0, 1)).all():
        return "label outside {0, 1}"
    return ""


WORKLOADS = {w.name: w for w in (Study, KernelWide, PredictStream)}
