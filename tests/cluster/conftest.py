"""Shared fixtures for the cluster tests."""

from __future__ import annotations

import pytest

from repro.faults.failpoints import FAILPOINTS


@pytest.fixture(autouse=True)
def clean_failpoints():
    """No test may leak armed failpoints into the rest of the suite."""
    FAILPOINTS.clear()
    FAILPOINTS.seed(0)
    yield
    FAILPOINTS.clear()


class FakeClock:
    """A clock the test moves by hand (ledger TTLs)."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now
