"""Run a small seeded sweep and aggregate it into report files.

Three models per dataset: the boosted ensemble, the single best
grid-searched quantum-kernel SVM, and a classical RBF/linear SVM baseline.
The default study (10 datasets per family) takes about 27 seconds on one
core; this demo shrinks it to 2 datasets per family. It writes its records,
models and report files to qsvm_boost_demo/ in the current directory. Run:
python3 demos/05_experiment_sweep.py
"""
from pathlib import Path

from qsvm_boost import ExperimentConfig, aggregate, emit_report, run_experiment

config = ExperimentConfig(
    datasets_per_family=2,
    output_dir="qsvm_boost_demo",
)
print(f"families={config.families}, {config.datasets_per_family} datasets each, "
      f"master seed {config.master_seed}")
records = run_experiment(config, verbose=True)

stats = aggregate(records)
print()
print(f"{'family':<8} {'model':<13} {'median':>7} {'Q1':>6} {'Q3':>6}")
for (family, model), box in sorted(stats.box.items()):
    print(f"{family:<8} {model:<13} {box.median:>7.3f} {box.q1:>6.3f} {box.q3:>6.3f}")

print()
for family, fs in sorted(stats.families.items()):
    print(f"{family}: mean ensemble size {fs.mean_ensemble_size:.2f} "
          f"(max {fs.max_ensemble_size}), ensembles with >2 learners: {fs.n_more_than_2}")

paths = emit_report(stats, config.output_dir)
print()
print("report files:")
print(f"  records: {Path(config.output_dir) / 'records.csv'}")
for name, path in paths.items():
    print(f"  {name}: {path}")
