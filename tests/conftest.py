"""Fixtures shared by the test modules."""

from concurrent.futures import ThreadPoolExecutor

import pytest

from shiftpose import autodiff as ad


@pytest.fixture
def split_every_product(monkeypatch):
    """Every GEMM and ``shift`` pass runs as two halves, the first on a
    worker thread of its own, whatever the core count."""
    monkeypatch.setattr(ad, "_SPLIT_WORK", 0)
    with ThreadPoolExecutor(1) as pool:
        monkeypatch.setattr(ad, "_POOL", pool)
        yield
