"""Shared fixtures."""
import pytest

from qsvm_boost import svm_solver
from pinned_sweeps import run_sweep


@pytest.fixture
def tight_solver(monkeypatch):
    """Every SMO fit of the test, and every ``reference_smo`` run, stops at a KKT gap of 1e-8
    or after 200,000 passes."""
    monkeypatch.setattr(svm_solver, "_KKT_TOLERANCE", 1e-8)
    monkeypatch.setattr(svm_solver, "_MAX_PASSES", 200_000)


@pytest.fixture(scope="session")
def default_sweep(tmp_path_factory):
    """The default study, run once a session: ``(config, records, aggregate(records))``."""
    return run_sweep("default_sweep", tmp_path_factory.mktemp("default_sweep"))


@pytest.fixture(scope="session")
def criterion_8_sweep(tmp_path_factory):
    """Acceptance criterion 8's small study, run once a session, in ``default_sweep``'s form."""
    return run_sweep("criterion_8_sweep", tmp_path_factory.mktemp("criterion_8_sweep"))
