"""Hypothesis profiles: CI runs a fixed example sequence, local runs random ones."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
if os.environ.get("CI"):
    settings.load_profile("ci")
