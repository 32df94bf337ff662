"""Fixtures the system tests share."""

import pytest

from repro.systems import SessionConfig, prepare_artifacts
from repro.world import load_game


@pytest.fixture(scope="module")
def racing():
    """The racing world and its offline artifacts, built once per module."""
    world = load_game("racing")
    return world, prepare_artifacts(world, SessionConfig(duration_s=4.0, seed=1))
