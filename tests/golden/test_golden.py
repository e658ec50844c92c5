"""Golden suite: every experiment's numbers and the rendered battery.

Each experiment's ``values`` tree — the full-precision numbers its rows
and claim checks are formatted from — is pinned to
``tests/golden/<experiment_id>.json`` at a relative tolerance of 1e-9
(loose enough for libm variation across platforms, tight enough that
any real model change trips it), and ``EXPERIMENTS.md`` pins the
rendered battery byte for byte.  Both read the session's one
in-process battery (the ``results`` fixture).  The experiment claim
checks tolerate recalibration by design; this suite exists so that a
kernel-cost change which silently shifts the paper numbers fails
tier-1 instead of drifting unnoticed.

Refresh after an intentional model change with::

    PYTHONPATH=src python -m pytest tests/golden --update-golden

and commit the diff — the diff *is* the review artifact for the
number shift.
"""

import dataclasses
import importlib.util
import json
import math
from pathlib import Path

import pytest

from repro.distributed.scaling import strong_scaling
from repro.experiments.runner import EXPERIMENTS
from repro.experiments.suite_cache import model_instance
from repro.kernels.base import DEFAULT_TUNING

GOLDEN_DIR = Path(__file__).resolve().parent
REPO_ROOT = GOLDEN_DIR.parents[1]
EXPERIMENTS_MD = REPO_ROOT / "EXPERIMENTS.md"
# Pinned by tests/serving/test_fleet_corpus.py, never by a refresh.
NOT_AN_EXPERIMENT = {"fleet_corpus"}

_SPEC = importlib.util.spec_from_file_location(
    "gen_experiments_md", REPO_ROOT / "tools" / "gen_experiments_md.py"
)
gen_experiments_md = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(gen_experiments_md)


def golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.json"


def write_golden(values: dict, path: Path) -> None:
    """The one on-disk format of a golden file."""
    path.write_text(json.dumps(values, indent=2, sort_keys=True) + "\n")


def _flatten(tree: dict, prefix: str = "") -> dict[str, object]:
    flat: dict[str, object] = {}
    for key, value in tree.items():
        path = f"{prefix}.{key}" if prefix else str(key)
        if isinstance(value, dict):
            flat.update(_flatten(value, path))
        else:
            flat[path] = value
    return flat


def compare_summaries(
    expected: dict,
    actual: dict,
    *,
    rel_tol: float = 1e-9,
    abs_tol: float = 1e-12,
) -> list[str]:
    """Diff two value trees; returns human-readable mismatches.

    An empty list means the trees agree to within the tolerances.
    Missing or extra keys are mismatches too — a model that stops (or
    starts) reporting a number is as much a regression as one that
    shifts it.
    """
    flat_expected = _flatten(expected)
    flat_actual = _flatten(actual)
    mismatches: list[str] = []
    for path in sorted(set(flat_expected) | set(flat_actual)):
        if path not in flat_expected:
            mismatches.append(f"{path}: unexpected new value")
            continue
        if path not in flat_actual:
            mismatches.append(f"{path}: missing from actual")
            continue
        want, got = flat_expected[path], flat_actual[path]
        if isinstance(want, float) and isinstance(got, (int, float)):
            if not math.isclose(
                want, float(got), rel_tol=rel_tol, abs_tol=abs_tol
            ):
                drift = (
                    (float(got) - want) / want * 100.0 if want else 0.0
                )
                mismatches.append(
                    f"{path}: expected {want!r}, got {got!r} "
                    f"({drift:+.3f}%)"
                )
        elif want != got:
            mismatches.append(f"{path}: expected {want!r}, got {got!r}")
    return mismatches


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_values_match_golden(name, results, update_golden):
    path = golden_path(name)
    values = results[name].values
    if update_golden:
        write_golden(values, path)
        return
    assert path.exists(), (
        f"{path} missing; generate it with --update-golden"
    )
    mismatches = compare_summaries(json.loads(path.read_text()), values)
    assert not mismatches, (
        f"{name} drifted from golden ({len(mismatches)} values):\n  "
        + "\n  ".join(mismatches[:20])
        + "\nIf intentional, refresh with --update-golden and commit."
    )


def test_experiments_md_is_the_rendered_battery(results, update_golden):
    """EXPERIMENTS.md holds every experiment's ``render()``, byte for
    byte, as ``tools/gen_experiments_md.py`` prints it."""
    text = gen_experiments_md.experiments_md(results.values())
    if update_golden:
        EXPERIMENTS_MD.write_text(text)
        return
    committed = EXPERIMENTS_MD.read_text()
    if text != committed:
        pairs = zip(committed.splitlines(), text.splitlines())
        for line, (want, got) in enumerate(pairs, start=1):
            assert want == got, (
                f"EXPERIMENTS.md line {line} differs:\n"
                f"  committed: {want!r}\n  rendered:  {got!r}\n"
                "If intentional, refresh with --update-golden and commit."
            )
        raise AssertionError(
            f"EXPERIMENTS.md has {len(committed.splitlines())} lines, "
            f"the battery renders {len(text.splitlines())}"
        )


class TestCoverage:
    """Every experiment is pinned, and every golden file pins one."""

    def test_every_experiment_has_a_golden_file(self):
        missing = [
            name for name in EXPERIMENTS if not golden_path(name).exists()
        ]
        assert not missing, f"no tests/golden/<id>.json for {missing}"

    def test_every_experiment_reports_values(self, results):
        empty = [name for name, result in results.items()
                 if not result.values]
        assert not empty, f"experiments with empty values: {empty}"

    def test_every_golden_file_names_an_experiment(self):
        stray = sorted(
            path.name for path in GOLDEN_DIR.glob("*.json")
            if path.stem not in EXPERIMENTS
            and path.stem not in NOT_AN_EXPERIMENT
        )
        assert not stray, f"golden files that pin no experiment: {stray}"


class TestRefreshPath:
    def test_refresh_round_trips(self, results, tmp_path):
        """What --update-golden writes reads back equal, for every
        experiment (tuples or non-str keys would not)."""
        for name, result in results.items():
            path = tmp_path / f"{name}.json"
            write_golden(result.values, path)
            assert compare_summaries(
                json.loads(path.read_text()), result.values
            ) == [], name


class TestComparison:
    def test_identical_trees_match(self):
        tree = {"a": {"b": 1.0, "c": 2.0}}
        assert compare_summaries(tree, tree) == []

    def test_value_drift_detected(self):
        expected = {"a": {"b": 1.0}}
        actual = {"a": {"b": 1.0 + 1e-6}}
        mismatches = compare_summaries(expected, actual)
        assert len(mismatches) == 1 and "a.b" in mismatches[0]

    def test_tolerance_respected(self):
        expected = {"a": 1.0}
        actual = {"a": 1.0 + 1e-12}
        assert compare_summaries(expected, actual) == []

    def test_missing_and_extra_keys_detected(self):
        mismatches = compare_summaries({"a": 1.0}, {"b": 1.0})
        assert len(mismatches) == 2

    def test_non_numeric_leaves_compared_exactly(self):
        assert compare_summaries({"a": "x"}, {"a": "y"})


def _scaling_values(points) -> dict:
    """dist1's pinned fields for one strong-scaling sweep."""
    return {
        str(point.world): {
            "time_s": point.time_s,
            "efficiency": point.efficiency,
            "comm_time_s": point.comm_time_s,
        }
        for point in points
    }


class TestPerturbationIsDetected:
    """The acceptance demonstration: nudge one kernel-cost constant
    and the golden comparison must fail (and the numbers must actually
    move — the suite is sensitive, not vacuously green).  One
    model/machine/world pair of dist1 is enough to show it without
    re-running the whole sweep."""

    KEY = "stable_diffusion|dgx-a100-80g"

    def _pinned(self, worlds):
        expected = json.loads(golden_path("dist1").read_text())[self.KEY]
        return {
            world: {field: expected[world][field]
                    for field in ("time_s", "efficiency", "comm_time_s")}
            for world in worlds
        }

    def test_gemm_utilization_perturbation_fails_golden(self):
        perturbed = dataclasses.replace(
            DEFAULT_TUNING,
            gemm_base_utilization=(
                DEFAULT_TUNING.gemm_base_utilization * 1.02
            ),
        )
        actual = _scaling_values(strong_scaling(
            model_instance("stable_diffusion"), "dgx-a100-80g", (1, 2),
            tuning=perturbed,
        ))
        mismatches = compare_summaries(
            self._pinned(["1"]), {"1": actual["1"]}
        )
        assert mismatches, (
            "a 2% GEMM-utilization change did not move dist1 latency; "
            "the golden suite has lost its sensitivity"
        )

    def test_unperturbed_subset_still_matches(self):
        actual = _scaling_values(strong_scaling(
            model_instance("stable_diffusion"), "dgx-a100-80g", (1, 2),
        ))
        assert compare_summaries(self._pinned(["1", "2"]), actual) == []
