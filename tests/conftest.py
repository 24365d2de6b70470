"""One hypothesis profile for the whole suite: examples are derived from
each test's source, not drawn afresh, and none are stored between runs, so
every run of the suite draws the same examples."""

from hypothesis import settings

settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")
