"""Shared fixtures."""

import pytest
from scipy import integrate


@pytest.fixture
def solve_spans(monkeypatch) -> list:
    """The (t0, t1) span of every solve_ivp call made through
    ``scipy.integrate`` while the test runs."""
    spans = []
    solve = integrate.solve_ivp

    def recording(fun, t_span, *args, **kwargs):
        spans.append(tuple(t_span))
        return solve(fun, t_span, *args, **kwargs)

    monkeypatch.setattr(integrate, "solve_ivp", recording)
    return spans
