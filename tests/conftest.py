"""Test-suite settings shared by every module.

Property tests draw their examples under one ``hypothesis`` profile:
derandomized (each test's examples follow from its source, so every run
draws the same ones), with no example database, no deadline (a draw
may build and solve a whole problem) and no shrink phase: a failing draw
is reported as drawn, because shrinking re-solves a fresh problem per
candidate and can keep the suite busy for minutes.  A test sets only its
own ``max_examples``.
"""

from hypothesis import Phase, settings

settings.register_profile(
    "groundstate",
    derandomize=True,
    database=None,
    deadline=None,
    phases=[phase for phase in Phase if phase is not Phase.shrink],
)
settings.load_profile("groundstate")
