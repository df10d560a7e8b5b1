"""Shared fixtures."""

import numpy as np
import pytest

from sphereuni.sampling import SeedSpec


class NoAcceptGenerator:
    """A seed's generator whose `random` draws 2.0: log(2) lies above every log
    acceptance ratio of the FvML cosine sampler, so it accepts no proposal."""

    def __init__(self, rng):
        self._rng = rng

    def __getattr__(self, name):
        return getattr(self._rng, name)

    def random(self, size=None):
        return np.full(size, 2.0)


@pytest.fixture
def fvml_never_accepts(monkeypatch):
    """Every SeedSpec stream refuses every FvML proposal."""
    real = SeedSpec.generator
    monkeypatch.setattr(SeedSpec, "generator", lambda seed: NoAcceptGenerator(real(seed)))
