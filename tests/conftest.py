"""One Hypothesis profile for every test module.

Derandomized, so each run draws the same examples and a tier-1 result does
not depend on luck; no deadline, because the command-line fuzz examples can
take longer than the 200 ms default on a loaded machine.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
