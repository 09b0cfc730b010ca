"""Hypothesis runs with no example database: a draw that failed once is not
replayed first in later runs, so every run draws what its settings say.  A
failing draw is kept only as a pinned ``@example``."""

from hypothesis import settings

settings.register_profile("no-database", database=None)
settings.load_profile("no-database")
