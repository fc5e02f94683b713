"""Shared fixtures."""
import pytest

from qsvm_boost import svm_solver


@pytest.fixture
def tight_solver(monkeypatch):
    """Every SMO fit of the test, and every ``reference_smo`` run, stops at a KKT gap of 1e-8
    or after 200,000 passes."""
    monkeypatch.setattr(svm_solver, "_KKT_TOLERANCE", 1e-8)
    monkeypatch.setattr(svm_solver, "_MAX_PASSES", 200_000)
