"""Shared fixtures."""
from __future__ import annotations

import pytest

from regprobe import elliptic, modulus


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


@pytest.fixture
def count_segment_quadratures(monkeypatch):
    """Count the Gauss-Legendre segment quadratures of ``modulus``.

    Returns the list of ``(xa, xb)`` segments so far.  Past 1000 calls it
    raises, so a runaway bisection fails the test instead of hanging it.
    """
    calls = []
    segment = modulus._gl_segment_log

    def counting_segment(omega, xa, xb):
        calls.append((xa, xb))
        if len(calls) > 1000:
            raise AssertionError("runaway bisection: over 1000 segments")
        return segment(omega, xa, xb)

    monkeypatch.setattr(modulus, "_gl_segment_log", counting_segment)
    return calls
