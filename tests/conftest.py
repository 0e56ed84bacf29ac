"""Tier-1's hypothesis profile: every property test draws the same examples on every run.

derandomize=True derives each test's examples from the test itself, so that
a verdict is a function of the commit, and database=None keeps an example
saved by one run from being replayed by the next.  Each test's own
max_examples, deadline and health checks apply on top of this profile.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")
