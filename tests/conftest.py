"""Shared fixtures."""
from __future__ import annotations

import pytest

from regprobe import elliptic


@pytest.fixture
def count_factorizations(monkeypatch):
    """Count the sparse LU factorizations made while the test runs.

    Returns a list that gains one entry (the positional arguments) per
    ``splu`` call, so ``len(count_factorizations)`` is the count so far.
    """
    calls = []
    splu = elliptic.spla.splu

    def counting_splu(*args, **kwargs):
        calls.append(args)
        return splu(*args, **kwargs)

    monkeypatch.setattr(elliptic.spla, "splu", counting_splu)
    return calls

