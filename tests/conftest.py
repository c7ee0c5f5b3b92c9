"""Shared fixtures."""

import pytest

from cae import _numerics


@pytest.fixture
def solve_spans(monkeypatch) -> list:
    """The (t0, *stops) of every ``_numerics.shoot`` call while the test
    runs."""
    spans = []
    shoot = _numerics.shoot

    def recording(terms, t0, stops, *args, **kwargs):
        spans.append((t0, *stops))
        return shoot(terms, t0, stops, *args, **kwargs)

    monkeypatch.setattr(_numerics, "shoot", recording)
    return spans
