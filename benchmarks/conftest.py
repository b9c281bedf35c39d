"""Shared benchmark fixtures and the paper-vs-measured report helper.

Every benchmark both *times* its pipeline stage (pytest-benchmark) and
*checks* the reproduced artifact against the paper's expectation; the
check is the experiment, the timing is a bonus.  Measured facts are
attached to ``benchmark.extra_info`` so ``--benchmark-json`` exports a
machine-readable record of the reproduction.  The language kernel's
counters are attached under the reserved ``kernel`` key, which the
comparison script (``compare_bench.py``) excludes when it checks that
two runs reproduced the same facts -- cache counters legitimately
drift between kernel versions, reproduction facts must not.
"""

from __future__ import annotations

import random

import pytest

from repro.obs import clear_caches, kernel_summary


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


@pytest.fixture(autouse=True)
def kernel_extra_info(request):
    """Record the kernel's counters in ``extra_info`` after each benchmark."""
    benchmark = (
        request.getfixturevalue("benchmark")
        if "benchmark" in request.fixturenames
        else None
    )
    yield
    if benchmark is not None:
        benchmark.extra_info["kernel"] = kernel_summary()
