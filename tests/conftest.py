"""Hypothesis profiles.  The `ci` profile derandomizes every property test,
so each run draws the same examples; HYPOTHESIS_PROFILE names the profile to
load, and without it the default profile draws new examples on every run."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
