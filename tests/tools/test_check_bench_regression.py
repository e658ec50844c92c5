"""Unit tests for the benchmark-regression gate.

The checker script is plain Python with an importable ``main``; these
tests exercise the update path (the baseline file), the
pass/fail threshold, the missing benchmark case, and the calibration
normalization that keeps a slower CI runner from tripping the gate.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
_SPEC = importlib.util.spec_from_file_location(
    "check_bench_regression",
    REPO_ROOT / "tools" / "check_bench_regression.py",
)
checker = importlib.util.module_from_spec(_SPEC)
sys.modules.setdefault("check_bench_regression", checker)
_SPEC.loader.exec_module(checker)

CAL = "benchmarks/x.py::test_calibration_reference"
SIM = "benchmarks/x.py::test_full_sd_profile"
FLEET = "benchmarks/x.py::test_fleet_10k_requests"


def results_file(tmp_path: Path, medians: dict[str, float]) -> Path:
    path = tmp_path / "bench.json"
    path.write_text(json.dumps({
        "benchmarks": [
            {"fullname": name, "stats": {"median": median}}
            for name, median in medians.items()
        ]
    }))
    return path


def baseline_file(tmp_path: Path, medians: dict[str, float]) -> Path:
    path = tmp_path / "BENCH_baseline.json"
    checker.write_baseline(medians, path)
    return path


BASE = {CAL: 0.100, SIM: 0.050, FLEET: 0.160}


class TestUpdate:
    def test_update_writes_sorted_baseline(self, tmp_path):
        results = results_file(tmp_path, BASE)
        target = tmp_path / "out.json"
        rc = checker.main([str(results), "--update",
                           "--baseline", str(target)])
        assert rc == 0
        payload = json.loads(target.read_text())
        assert payload["format"] == "repro-bench-baseline-v1"
        assert payload["median_s"] == dict(sorted(BASE.items()))
        assert payload["threshold"] == pytest.approx(0.30)


class TestCompare:
    def test_identical_run_passes(self, tmp_path):
        baseline = baseline_file(tmp_path, BASE)
        results = results_file(tmp_path, BASE)
        assert checker.main(
            [str(results), "--baseline", str(baseline)]) == 0

    def test_regression_beyond_threshold_fails(self, tmp_path):
        baseline = baseline_file(tmp_path, BASE)
        slow = dict(BASE)
        slow[SIM] = BASE[SIM] * 1.5
        results = results_file(tmp_path, slow)
        assert checker.main(
            [str(results), "--baseline", str(baseline)]) == 1

    def test_threshold_flag_overrides_baseline(self, tmp_path):
        baseline = baseline_file(tmp_path, BASE)
        slow = dict(BASE)
        slow[SIM] = BASE[SIM] * 1.2
        results = results_file(tmp_path, slow)
        assert checker.main(
            [str(results), "--baseline", str(baseline)]) == 0
        assert checker.main(
            [str(results), "--baseline", str(baseline),
             "--threshold", "0.1"]) == 1

    def test_missing_benchmark_fails(self, tmp_path):
        baseline = baseline_file(tmp_path, BASE)
        partial = {k: v for k, v in BASE.items() if k != FLEET}
        results = results_file(tmp_path, partial)
        assert checker.main(
            [str(results), "--baseline", str(baseline)]) == 1

    def test_noise_floor_spares_microsecond_benchmarks(self, tmp_path):
        """Sub-ms entries flap 1.5-2x from timer/layout noise; an
        absolute 2 ms floor absorbs that without loosening the gate
        for benchmarks of meaningful duration (see the 1.5x SIM
        regression test above, which still fails at 50 ms)."""
        micro = "benchmarks/x.py::test_tiny"
        base = dict(BASE)
        base[micro] = 0.0002
        baseline = baseline_file(tmp_path, base)
        flapped = dict(base)
        flapped[micro] = 0.0004  # 2x — within the 2 ms floor
        results = results_file(tmp_path, flapped)
        assert checker.main(
            [str(results), "--baseline", str(baseline)]) == 0
        beyond = dict(base)
        beyond[micro] = 0.004  # past the floor: a real regression
        results = results_file(tmp_path, beyond)
        assert checker.main(
            [str(results), "--baseline", str(baseline)]) == 1

    def test_new_unbaselined_benchmark_warns_not_fails(self, tmp_path):
        baseline = baseline_file(tmp_path, BASE)
        extra = dict(BASE)
        extra["benchmarks/x.py::test_brand_new"] = 0.010
        results = results_file(tmp_path, extra)
        assert checker.main(
            [str(results), "--baseline", str(baseline)]) == 0


class TestCalibration:
    def test_uniformly_slower_machine_passes(self, tmp_path):
        """2x slower runner slows the calibration loop too: no failure."""
        baseline = baseline_file(tmp_path, BASE)
        slower = {name: median * 2.0 for name, median in BASE.items()}
        results = results_file(tmp_path, slower)
        assert checker.main(
            [str(results), "--baseline", str(baseline)]) == 0

    def test_real_regression_on_slower_machine_fails(self, tmp_path):
        """Machine 2x slower AND the simulator regressed 1.5x on top."""
        baseline = baseline_file(tmp_path, BASE)
        slower = {name: median * 2.0 for name, median in BASE.items()}
        slower[SIM] *= 1.5
        results = results_file(tmp_path, slower)
        assert checker.main(
            [str(results), "--baseline", str(baseline)]) == 1

    def test_missing_calibration_in_run_aborts(self, tmp_path):
        baseline = baseline_file(tmp_path, BASE)
        results = results_file(
            tmp_path, {k: v for k, v in BASE.items() if k != CAL})
        with pytest.raises(SystemExit):
            checker.main([str(results), "--baseline", str(baseline)])

    def test_committed_baseline_is_current_format(self):
        payload = json.loads(
            (REPO_ROOT / "benchmarks" / "BENCH_baseline.json").read_text()
        )
        assert payload["format"] == "repro-bench-baseline-v1"
        assert any(
            checker.CALIBRATION_KEY in name
            for name in payload["median_s"]
        )
        assert len(payload["median_s"]) >= 30
