"""Shared test settings and fixtures.

Every ``hypothesis`` test runs 30 examples with no per-example deadline:
on a small shared machine a timing deadline fails at random.
"""

import numpy as np
import pytest
from hypothesis import settings

settings.register_profile("falabel", max_examples=30, deadline=None)
settings.load_profile("falabel")


@pytest.fixture
def failing_em_member(monkeypatch):
    """``fail(at)`` makes the EM step of every member with n rows raise
    LinAlgError("Singular matrix") at that member's step ``at[n]``, in a batch
    or alone; other members step as before.  Each member counts its steps in
    an extra state entry."""
    from falabel import fa_core

    start, update, objective = fa_core._ROUTES["em"]

    def fail(at: dict):
        def counting_start(S, W, psi):
            return (*start(S, W, psi), 0.0)

        def counting_update(S, rows, *state):
            *fit, steps, psi_floor = state
            steps = steps + 1
            if any(at.get(n) == step for n, step in zip(rows.tolist(), steps.tolist())):
                raise np.linalg.LinAlgError("Singular matrix")
            fit, objectives = update(S, rows, *fit, psi_floor)
            return (*fit, steps), objectives

        monkeypatch.setitem(fa_core._ROUTES, "em", (counting_start, counting_update, objective))

    return fail
