"""Shared fixtures: the suite profiles are expensive (~10 s), so they
are computed once per session through the experiments-level cache.
The fixture bodies live in :mod:`repro.testing`, shared with
``benchmarks/conftest.py`` so the two harnesses warm identical caches.
The experiment battery also runs once per session (``results``), for
``tests/experiments`` and ``tests/golden`` alike.

Also registers the ``--update-golden`` flag used by ``tests/golden``
to refresh the committed golden JSON files and ``EXPERIMENTS.md``
after an intentional performance-model change."""

from __future__ import annotations

import pytest

from repro.experiments.runner import EXPERIMENTS
from repro.testing import suite_model_map, suite_profile_map


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
