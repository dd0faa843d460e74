"""Hypothesis settings profiles, and the ``parts`` fixture.

``HYPOTHESIS_PROFILE=ci`` loads the ``ci`` profile: every phase but
shrinking, so a failing property reports its first counterexample at once
instead of minimising it first.  Each test keeps its own ``max_examples``,
examples and bounds.
"""

import os
import tempfile

import pytest
from hypothesis import Phase, settings

settings.register_profile("ci", phases=[phase for phase in Phase if phase is not Phase.shrink])
if os.environ.get("HYPOTHESIS_PROFILE") == "ci":
    settings.load_profile("ci")


@pytest.fixture
def parts(monkeypatch):
    """Every ``tempfile.TemporaryFile`` opened during the test, so that it
    can assert each one closed: a fork part has no directory entry even
    while it is open, so no directory listing can show one left open."""
    opened, make = [], tempfile.TemporaryFile

    def recorded(*args, **kwargs):
        opened.append(make(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(tempfile, "TemporaryFile", recorded)
    return opened
