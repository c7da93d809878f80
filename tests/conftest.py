import numpy as np
import pytest

from vqebench import simulator


@pytest.fixture
def passes(monkeypatch):
    """Every pass of a compiled plan, in call order, as (start, rows): start is "zero" from
    |0...0>, "state" from a given state or block, "derivative", or "sweep" (a gradient's
    adjoint sweep over [psi, H psi]); rows is the returned block's."""
    calls = []
    run = simulator._Plan.run

    def counted(plan, x, theta, derivatives=False, sweep=None):
        out = run(plan, x, theta, derivatives, sweep)
        start = "derivative" if derivatives else "sweep" if sweep is not None else "zero" if x is None else "state"
        calls.append((start, len(np.atleast_2d(out))))
        return out

    monkeypatch.setattr(simulator._Plan, "run", counted)
    return calls
