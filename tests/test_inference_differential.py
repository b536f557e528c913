"""``simulate_inference`` (the forward-only plan walk) against the
hand-written loop it replaced (``inference_reference.py``).

Every :class:`~repro.core.executor.IterationResult` field must match,
the ``Timeline`` event for event.  The usage curve may differ only in
same-instant samples (the walk frees a layer's inputs before its
workspace, and its end sweep samples each block it frees), so the test
compares its step function: the last sample at each timestamp, plus the
peak, the time-weighted average and the first and last samples.
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import simulate_inference
from repro.core.api import algo_config
from repro.hw import PAPER_SYSTEM
from repro.zoo import available, build

from inference_reference import reference_inference
from test_properties import random_dag_network


def _step_function(usage):
    """The live bytes left at each distinct timestamp, in time order."""
    last = {}
    for time, live in usage.curve():
        last[time] = live
    return list(last.items())


def assert_matches_reference(network, algo):
    algos = algo_config(network, algo)
    walked = simulate_inference(network, PAPER_SYSTEM, algos)
    expected = reference_inference(network, PAPER_SYSTEM, algos)
    for field in dataclasses.fields(expected):
        if field.name == "usage":
            continue
        assert getattr(walked, field.name) == getattr(expected, field.name), \
            field.name
    assert walked.timeline.events == expected.timeline.events
    got, want = walked.usage, expected.usage
    assert _step_function(got) == _step_function(want)
    assert got.max_bytes == want.max_bytes
    assert got.average_bytes == want.average_bytes
    assert got.curve()[0] == want.curve()[0]
    assert got.curve()[-1] == want.curve()[-1]


@pytest.mark.parametrize("algo", ["m", "p"])
@pytest.mark.parametrize("batch", [None, 4])
@pytest.mark.parametrize("name", available())
def test_zoo_matches_reference(name, batch, algo):
    assert_matches_reference(build(name, batch), algo)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(network=random_dag_network(), algo=st.sampled_from(["m", "p"]))
def test_random_dag_matches_reference(network, algo):
    assert_matches_reference(network, algo)

