"""Shared fixtures: tiny model specs and hand-buildable posterior draws."""

import pytest
from hypothesis import HealthCheck, settings

from surrogate_forge import ModelSpec, PosteriorDraws

from draw_sets import make_draws

# single-core box; wall-time deadlines only add flakiness
settings.register_profile(
    "ci", deadline=None, suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("ci")


@pytest.fixture
def spec3() -> ModelSpec:
    return ModelSpec(J=3)


@pytest.fixture
def spec2_identity() -> ModelSpec:
    return ModelSpec(J=2, link="identity")


@pytest.fixture
def draws3(spec3) -> PosteriorDraws:
    return make_draws(spec3, M=8, seed=42)
