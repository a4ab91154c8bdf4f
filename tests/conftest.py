"""Hypothesis profiles (CI runs a fixed example sequence, local runs random
ones) and a counter of real training steps."""

import os

import pytest
from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture
def step_counter(monkeypatch):
    """List that grows by one per real optimizer step `train` takes."""
    from lota import training

    steps = []
    original = training._forward_backward_state

    def counting(*args):
        steps.append(None)
        return original(*args)

    monkeypatch.setattr(training, "_forward_backward_state", counting)
    return steps
