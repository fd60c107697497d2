"""Shared test settings.

Every ``hypothesis`` test runs 30 examples with no per-example deadline:
on a small shared machine a timing deadline fails at random.
"""

from hypothesis import settings

settings.register_profile("falabel", max_examples=30, deadline=None)
settings.load_profile("falabel")
