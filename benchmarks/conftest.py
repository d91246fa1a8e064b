"""The session runner behind the paper-claims gate.

One :class:`ExperimentRunner` at the report's settings (``DEFAULT_OPS``
micro-ops per trace, seed ``DEFAULT_SEED``) serves the whole session, with
one worker process per CPU.  Its result cache is a throwaway directory:
the cache key ignores most of ``CoreConfig`` and all of the simulator's
code, so a warm ``.bench_cache`` could feed the gate numbers from older
code.  The runner is closed at session end, so no worker outlives pytest.
"""

import os

import pytest

from repro.analysis import ExperimentRunner


@pytest.fixture(scope="session")
def runner(tmp_path_factory):
    runner = ExperimentRunner(
        cache_dir=str(tmp_path_factory.mktemp("cache")), jobs=os.cpu_count()
    )
    yield runner
    runner.close()
