"""Examples stay runnable.

The cheap examples run end-to-end; the expensive ones are checked for
importability and a ``main`` entry point (their logic is covered by the
library tests they are built on).
"""

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"

ALL_EXAMPLES = sorted(path.name for path in EXAMPLES_DIR.glob("*.py"))

# Cheap enough to execute in the unit-test suite.
RUNNABLE = [
    "fleet_report.py",
    "denoising_steps_study.py",
    "observability_study.py",
    "resilience_study.py",
    "serving_study.py",
]


def _load(name: str):
    path = EXAMPLES_DIR / name
    spec = importlib.util.spec_from_file_location(
        f"example_{name.removesuffix('.py')}", path
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestExamples:
    def test_expected_examples_present(self):
        assert ALL_EXAMPLES == [
            "denoising_steps_study.py",
            "deployment_study.py",
            "distributed_study.py",
            "fleet_report.py",
            "image_size_study.py",
            "model_comparison.py",
            "observability_study.py",
            "quickstart.py",
            "resilience_study.py",
            "serving_and_future_hw_study.py",
            "serving_study.py",
            "training_and_optimizations_study.py",
            "video_frames_study.py",
        ]

    @pytest.mark.parametrize("name", ALL_EXAMPLES)
    def test_importable_with_main(self, name):
        module = _load(name)
        assert callable(module.main)

    @pytest.mark.parametrize("name", RUNNABLE)
    def test_runs_end_to_end(self, name, capsys):
        module = _load(name)
        module.main()
        out = capsys.readouterr().out
        assert len(out.splitlines()) > 5

    def test_observability_save_reproduces_committed_telemetry(
        self, capsys, monkeypatch, tmp_path
    ):
        path = tmp_path / "telemetry.jsonl"
        monkeypatch.setattr(
            sys, "argv", ["observability_study.py", "--save", str(path)]
        )
        _load("observability_study.py").main()
        capsys.readouterr()
        committed = EXAMPLES_DIR / "traces" / "telemetry_small.jsonl"
        assert path.read_bytes() == committed.read_bytes()

    def test_quickstart_accepts_model_argument(self, capsys, monkeypatch):
        module = _load("quickstart.py")
        monkeypatch.setattr(sys, "argv", ["quickstart.py", "muse"])
        module.main()
        out = capsys.readouterr().out
        assert "muse" in out
        assert "end-to-end speedup" in out
