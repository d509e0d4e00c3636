"""Test-suite settings: every hypothesis test draws the same examples on
every run, so a failure reproduces and the suite's verdict is repeatable.
Each test keeps its own ``max_examples`` and ``deadline``."""

from hypothesis import settings

settings.register_profile("repeatable", derandomize=True, database=None)
settings.load_profile("repeatable")
