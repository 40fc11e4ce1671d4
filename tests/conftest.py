"""Shared test configuration.

Property tests draw their examples from a fixed seed, so two runs of one
commit test the same inputs and a failure reproduces on the next run.  Each
test's ``max_examples`` and ``deadline`` stay as its ``@settings`` sets them.
"""

from hypothesis import settings

settings.register_profile("riskspace", derandomize=True)
settings.load_profile("riskspace")
