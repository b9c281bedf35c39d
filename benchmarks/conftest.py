"""Shared benchmark fixtures.

Every benchmark both *times* its pipeline stage (pytest-benchmark) and
*checks* the reproduced artifact against the paper's expectation; the
check is the experiment, the timing is a bonus.  Measured facts are
attached to ``benchmark.extra_info`` so ``--benchmark-json`` exports a
machine-readable record of the reproduction.
"""

from __future__ import annotations

import random

import pytest

from repro.obs import clear_caches


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xBEEF)


@pytest.fixture(autouse=True)
def fresh_caches():
    """Isolate automata caches between benchmarks.

    The language procedures memoize DFAs; without clearing, a later
    benchmark would measure cache hits of an earlier one.  Delegates to
    the kernel registry, so newly added caches are covered
    automatically.
    """
    clear_caches()
    yield

