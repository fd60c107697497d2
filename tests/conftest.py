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
    """``fail(at)`` makes the FA-EM step of every member with n rows raise
    LinAlgError("Singular matrix") at that member's step ``at[n]``, in a batch
    or alone; other members step as before.  The members of a batch start
    together and step in lockstep, so a member's step is the batch's."""
    from falabel import fa_core

    fit_loop = fa_core._fit_loop

    def fail(at: dict):
        def failing_loop(step, state, cfg, route):
            steps = 0

            def failing_step(state):
                nonlocal steps
                steps += 1
                if route == "fa-em" and any(at.get(n) == steps for n in state[1].tolist()):
                    raise np.linalg.LinAlgError("Singular matrix")
                return step(state)

            return fit_loop(failing_step, state, cfg, route)

        monkeypatch.setattr(fa_core, "_fit_loop", failing_loop)

    return fail
