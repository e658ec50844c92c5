"""Shared fixtures: the suite profiles are expensive (~10 s), so they
are computed once per session through the experiments-level cache.
The fixture bodies live in :mod:`repro.testing`, shared with
``benchmarks/conftest.py`` so the two harnesses warm identical caches.
The experiment battery also runs once per session (``results``), for
``tests/experiments`` and ``tests/golden`` alike.  The uncached battery
(``uncached_battery``) starts in a subprocess as soon as its test is
collected, so it runs on a second core beside the in-process tests.

Also registers the ``--update-golden`` flag used by ``tests/golden``
to refresh the committed golden JSON files and ``EXPERIMENTS.md``
after an intentional performance-model change."""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from repro.experiments.runner import EXPERIMENTS
from repro.testing import suite_model_map, suite_profile_map

REPO_ROOT = Path(__file__).resolve().parents[1]
UNCACHED_BATTERY_TEST = "test_all_experiments_identical_without_caches"
_uncached_battery = pytest.StashKey[tuple]()


def _start_uncached_battery() -> tuple:
    """``(process, stdout, stderr)`` of ``REPRO_NO_CACHE=1
    tools/gen_experiments_md.py``, its output going to temporary files
    (a full pipe would stall it until the test reads)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env["REPRO_NO_CACHE"] = "1"
    stdout = tempfile.TemporaryFile(mode="w+")
    stderr = tempfile.TemporaryFile(mode="w+")
    process = subprocess.Popen(
        [sys.executable, "tools/gen_experiments_md.py"],
        stdout=stdout, stderr=stderr, env=env, cwd=REPO_ROOT,
    )
    return process, stdout, stderr


def pytest_collection_finish(session):
    """Start the uncached battery when its test is among the items."""
    if session.config.option.collectonly:
        return
    if any(item.name == UNCACHED_BATTERY_TEST for item in session.items):
        session.config.stash[_uncached_battery] = _start_uncached_battery()


def pytest_sessionfinish(session):
    """Stop the uncached battery if its test never waited for it (say,
    ``-x`` stopped first), so no process outlives the session."""
    started = session.config.stash.get(_uncached_battery, None)
    if started is None:
        return
    process, stdout, stderr = started
    if process.poll() is None:
        process.terminate()
        process.wait()
    stdout.close()
    stderr.close()


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite tests/golden/<experiment>.json and EXPERIMENTS.md "
        "from the current model instead of comparing against them",
    )


@pytest.fixture(scope="session")
def update_golden(request):
    """True when the run should refresh golden files, not check them."""
    return request.config.getoption("--update-golden")


@pytest.fixture(scope="session")
def suite_profiles():
    """{name: (baseline ProfileResult, flash ProfileResult)}."""
    return suite_profile_map()


@pytest.fixture(scope="session")
def suite_models():
    """{name: GenerativeModel} singletons matching the cached profiles."""
    return suite_model_map()


@pytest.fixture(scope="session")
def results():
    """{experiment id: ExperimentResult}: the battery, run once."""
    return {name: run() for name, run in EXPERIMENTS.items()}


@pytest.fixture(scope="session")
def uncached_battery(request):
    """``(process, stdout, stderr)`` of the uncached battery run that
    :func:`pytest_collection_finish` started."""
    return request.config.stash[_uncached_battery]
