"""Fixtures shared by the test modules."""

import pytest

from hamlearn import optimizer


@pytest.fixture
def bfgs_runs(monkeypatch) -> list:
    """(home, BfgsOutcome) of every BFGS run the test makes, in order, on either solve path."""
    runs = []
    steps = optimizer._bfgs_steps

    def recording(x0, cfg, f_target, home=None):
        out = yield from steps(x0, cfg, f_target, home)
        runs.append((home, out))
        return out

    monkeypatch.setattr(optimizer, "_bfgs_steps", recording)
    return runs
