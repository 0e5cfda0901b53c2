"""Test-suite settings shared by every module.

Property tests draw their examples under one ``hypothesis`` profile:
derandomized (each test's examples follow from its source, so every run
draws the same ones), with no example database and no deadline (a draw
may build and solve a whole problem).  A test sets only its own
``max_examples``.
"""

from hypothesis import settings

settings.register_profile("groundstate", derandomize=True, database=None, deadline=None)
settings.load_profile("groundstate")
