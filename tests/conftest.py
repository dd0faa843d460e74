"""Hypothesis settings profiles.

``HYPOTHESIS_PROFILE=ci`` loads the ``ci`` profile: every phase but
shrinking, so a failing property reports its first counterexample at once
instead of minimising it first.  Each test keeps its own ``max_examples``,
examples and bounds.
"""

import os

from hypothesis import Phase, settings

settings.register_profile("ci", phases=[phase for phase in Phase if phase is not Phase.shrink])
if os.environ.get("HYPOTHESIS_PROFILE") == "ci":
    settings.load_profile("ci")
