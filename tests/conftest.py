"""Shared fixtures."""
from __future__ import annotations

import pytest

from regprobe import campanato, elliptic, grid


def _record_factorizations(patch) -> list:
    """Patch ``splu`` through the MonkeyPatch ``patch`` to record its calls.

    The process-wide comparison operators are dropped first, so a frozen
    operator an earlier test factored is factored again and recorded.
    """
    campanato._frozen_comparison.cache_clear()
    calls = []
    splu = elliptic.spla.splu

    def counting_splu(matrix, **kwargs):
        calls.append((matrix, kwargs))
        return splu(matrix, **kwargs)

    patch.setattr(elliptic.spla, "splu", counting_splu)
    return calls


@pytest.fixture
def count_factorizations(monkeypatch):
    """Count the sparse LU factorizations made while the test runs.

    Returns a list that gains one entry, the matrix and the keyword
    arguments, per ``splu`` call, so ``len(count_factorizations)`` is the
    count so far.
    """
    return _record_factorizations(monkeypatch)


@pytest.fixture(scope="session")
def calibration():
    """``(constants, factorizations)``: one ``calibrate_constants()`` run
    shared by the session, and the LU factorizations it made, counted as
    ``count_factorizations`` counts them.  Readers must not mutate it."""
    with pytest.MonkeyPatch.context() as patch:
        calls = _record_factorizations(patch)
        constants = campanato.calibrate_constants()
    return constants, len(calls)


@pytest.fixture
def count_grid_builds(monkeypatch):
    """Record the ``(radius, h)`` of every disk grid built while the test
    runs.

    The process-wide grids and comparison operators are dropped first, so
    a grid an earlier test built is built again and recorded.
    """
    grid._GRIDS.clear()
    campanato._frozen_comparison.cache_clear()
    builds = []
    post_init = grid.DiskGrid.__post_init__

    def counting_post_init(self):
        builds.append((self.radius, self.h))
        post_init(self)

    monkeypatch.setattr(grid.DiskGrid, "__post_init__", counting_post_init)
    return builds
