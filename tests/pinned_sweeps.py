"""The pinned outputs of two study sweeps, and the script that writes them.

``tests/data/<sweep>/`` holds, for each sweep in ``SWEEPS``:

- ``records.csv``: the sweep's records CSV without its wall-time column;
- ``files.sha256``: one ``sha256sum`` line per ``models/*.json`` and ``datasets/*.csv``;
- ``summary.json`` and ``boxplot.csv``: what ``emit_report(aggregate(records))`` writes;
- ``numpy_version.txt``: the numpy version that made them, since the bits depend on it.

Records and files are pinned apart, so a change that moves a bundle's bytes and no record
shows as that. ``tests/test_pinned_sweeps.py`` holds each sweep to its files. A change that
moves the outputs on purpose writes them again, from the repository root:

    PYTHONPATH=src python tests/pinned_sweeps.py
"""
from __future__ import annotations

import csv
import hashlib
import io
import shutil
import tempfile
from pathlib import Path

import numpy as np

from qsvm_boost.boosted_qsvm import GridSpec
from qsvm_boost.experiment import ExperimentConfig, aggregate, emit_report, run_experiment

DATA = Path(__file__).resolve().parent / "data"
NUMPY_VERSION = "numpy_version.txt"

# each pinned sweep's ExperimentConfig fields, output_dir aside
SWEEPS = {
    "default_sweep": {},
    "criterion_8_sweep": dict(
        families=("xor", "moons", "circles"),
        datasets_per_family=1,
        n_points=90,
        split_sizes=(30, 30, 30),
        grid=GridSpec(feature_maps=(("Z", "ZZ"), ("X", "XX")), alphas=(1.0, 2.0), Cs=(1.0, 10.0)),
        max_rounds=3,
        master_seed=12345,
    ),
}


def run_sweep(name: str, output_dir) -> tuple[ExperimentConfig, list, dict]:
    """``(config, records, aggregate(records))`` of the named sweep, run into ``output_dir``."""
    config = ExperimentConfig(output_dir=str(output_dir), **SWEEPS[name])
    records = run_experiment(config)
    return config, records, aggregate(records)


def records_without_wall_time(path) -> bytes:
    """A records CSV's rows without the ``wall_time`` column, one line each."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    drop = rows[0].index("wall_time")
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows([v for i, v in enumerate(row) if i != drop] for row in rows)
    return text.getvalue().encode()


def pinned_files(output_dir, summary: dict) -> dict[str, bytes]:
    """Each pinned file's bytes, for a sweep that wrote ``output_dir`` and aggregated to ``summary``."""
    out = Path(output_dir)
    written = sorted([*out.glob("models/*.json"), *out.glob("datasets/*.csv")])
    with tempfile.TemporaryDirectory() as report_dir:
        report = {path.name: path.read_bytes() for path in emit_report(summary, report_dir).values()}
    return {
        "records.csv": records_without_wall_time(out / "records.csv"),
        "files.sha256": "".join(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(out)}\n"
                                for path in written).encode(),
        **report,
        NUMPY_VERSION: f"{np.__version__}\n".encode(),
    }


def differences(got: dict[str, bytes], pinned: dict[str, bytes]) -> list[str]:
    """What differs between two sets of pinned files: the first differing record, then each
    differing file, then the numpy versions if they differ too. Empty if only the versions do."""
    got_lines, pinned_lines = (files["records.csv"].decode().splitlines() for files in (got, pinned))
    found = [f"records.csv line {number} reads {line!r}, pinned {pin!r}"
             for number, (line, pin) in enumerate(zip(got_lines, pinned_lines), start=1) if line != pin][:1]
    if len(got_lines) != len(pinned_lines):
        found.append(f"records.csv has {len(got_lines)} lines, pinned {len(pinned_lines)}")
    got_hashes, pinned_hashes = (dict(line.split("  ", 1)[::-1] for line in files["files.sha256"].decode().splitlines())
                                 for files in (got, pinned))
    found += [f"{path} differs from its pinned SHA-256" for path in sorted(got_hashes.keys() | pinned_hashes.keys())
              if got_hashes.get(path) != pinned_hashes.get(path)]
    found += [f"{name} differs" for name in ("summary.json", "boxplot.csv") if got[name] != pinned[name]]
    if found and got[NUMPY_VERSION] != pinned[NUMPY_VERSION]:
        found.append(f"made with numpy {pinned[NUMPY_VERSION].decode().strip()}, "
                     f"run with numpy {got[NUMPY_VERSION].decode().strip()}")
    return found


def main() -> None:
    for name in SWEEPS:
        with tempfile.TemporaryDirectory() as output_dir:
            _, _, summary = run_sweep(name, output_dir)
            files = pinned_files(output_dir, summary)
        shutil.rmtree(DATA / name, ignore_errors=True)
        (DATA / name).mkdir(parents=True)
        for file_name, content in files.items():
            (DATA / name / file_name).write_bytes(content)
        print(f"wrote {len(files)} files to {DATA / name}")


if __name__ == "__main__":
    main()
