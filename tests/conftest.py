"""Shared fixtures.

A whole-catalog replay is the most expensive thing the suite does, so the
seed-42 report is computed once per test run and shared by the tests that only
read it.  Tests that need an independent run (determinism, the CLI replays)
still make their own.
"""

import pytest

from minkact.catalog import verify_all


@pytest.fixture(scope="session")
def seed42_report():
    """One ``verify_all(seed=42)`` report with the default settings."""
    return verify_all(seed=42)
