"""Fixtures for the end-to-end benchmark's own tests.

Run them explicitly: ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.
"""

import pytest


@pytest.fixture(scope="session", autouse=True)
def warm_caches():
    """Override ``benchmarks/conftest.py``'s prefetch of seven datasets
    and a fitted predictor: these tests build their own state, mostly
    in child processes."""
