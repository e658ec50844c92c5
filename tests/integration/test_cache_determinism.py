"""Cache layers must not change a single output byte.

The kernel-cost cache, subgraph replay and the profile memo exist only
to make the simulator faster; ``REPRO_NO_CACHE=1`` switches every layer
off.  This suite regenerates ``EXPERIMENTS.md`` with every cache off in
a fresh interpreter and diffs it against the committed file — the
strongest end-to-end statement of cache transparency (the property
tests cover the per-kernel contract; this covers accumulation order,
replay re-rooting, shared block memos, everything).  The cached side
is ``tests/golden``, which requires the session's in-process battery
to render that same file byte for byte.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]


def _run(*args: str, no_cache: bool) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    if no_cache:
        env["REPRO_NO_CACHE"] = "1"
    else:
        env.pop("REPRO_NO_CACHE", None)
    result = subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
        check=True,
        timeout=600,
    )
    return result.stdout


@pytest.mark.slow
def test_all_experiments_identical_without_caches():
    """The uncached battery renders the committed EXPERIMENTS.md."""
    committed = (REPO_ROOT / "EXPERIMENTS.md").read_text()
    uncached = _run("tools/gen_experiments_md.py", no_cache=True)
    assert uncached, "experiment run produced no output"
    if committed != uncached:
        committed_lines = committed.splitlines()
        uncached_lines = uncached.splitlines()
        for index, (want, got) in enumerate(
            zip(committed_lines, uncached_lines)
        ):
            assert want == got, (
                f"first divergence at line {index}:\n"
                f"  committed: {want!r}\n"
                f"  uncached:  {got!r}"
            )
        raise AssertionError(
            f"outputs differ in length: {len(committed_lines)} vs "
            f"{len(uncached_lines)} lines"
        )


def test_repeated_cached_runs_identical():
    """Two cached runs of one experiment agree byte for byte (the cache
    is deterministic run to run, not only against the uncached path)."""
    first = _run("-m", "repro.experiments", "fig5", no_cache=False)
    second = _run("-m", "repro.experiments", "fig5", no_cache=False)
    assert first == second
