"""Benchmark-suite configuration.

Every benchmark regenerates one of the paper's tables/figures and
asserts its headline claims.  Run with ``pytest benchmarks/
--benchmark-only``.  The suite saves what it regenerates under each
test's temporary directory, so running it never rewrites the tracked
``results/``; refresh those with the runner
(``python -m repro.experiments.runner run <id> --save results``).
"""

import pytest


@pytest.fixture
def regen(benchmark, tmp_path):
    """Run an experiment once under the benchmark timer, save it under
    the test's temporary directory and return its result."""

    def _run(runner, fast: bool = True):
        result = benchmark.pedantic(
            runner, kwargs={"fast": fast}, iterations=1, rounds=1
        )
        result.save(str(tmp_path))
        return result

    return _run
