"""Hypothesis profiles (CI runs a fixed example sequence, local runs random
ones) and counters of real training steps."""

import os

import pytest
from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture
def step_counter(monkeypatch):
    """List that grows by one per real optimizer step of each run: a step of
    a replica stack of R runs adds R."""
    from lota import training

    steps = []
    original = training._forward_backward_state

    def counting(*args):
        loss = original(*args)
        steps.extend([None] * loss.size)
        return loss

    monkeypatch.setattr(training, "_forward_backward_state", counting)
    return steps


@pytest.fixture
def fwd_bwd_calls(monkeypatch):
    """List that grows by one per `_forward_backward_state` call, which is
    one step of a whole replica stack."""
    from lota import training

    calls = []
    original = training._forward_backward_state

    def counting(*args):
        calls.append(None)
        return original(*args)

    monkeypatch.setattr(training, "_forward_backward_state", counting)
    return calls
