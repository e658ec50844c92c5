"""The ``python -m repro.obs`` CLI over a saved telemetry file."""

import json
from pathlib import Path

import pytest

from repro.obs import save_telemetry
from repro.obs.cli import main


COMMITTED = str(
    Path(__file__).resolve().parents[2]
    / "examples" / "traces" / "telemetry_small.jsonl"
)


@pytest.fixture(scope="module")
def telemetry_file(small_log, tmp_path_factory):
    path = tmp_path_factory.mktemp("obs") / "telemetry.jsonl"
    save_telemetry(small_log, path)
    return str(path)


def test_summary(telemetry_file, capsys):
    assert main(["summary", telemetry_file]) == 0
    out = capsys.readouterr().out
    assert "pools: a100, h100" in out
    assert "spans:" in out
    assert "counters:" in out
    assert "fleet events:" in out


def test_spans_listing_and_filters(telemetry_file, capsys, small_log):
    assert main(["spans", telemetry_file, "--limit", "3"]) == 0
    out = capsys.readouterr().out
    assert f"(3 of {len(small_log.spans)} spans shown)" in out

    rid = small_log.spans[0].request_id
    assert main(["spans", telemetry_file, "--request", str(rid)]) == 0
    out = capsys.readouterr().out
    assert f"request {rid} " in out
    assert "submit" in out

    assert main(
        ["spans", telemetry_file, "--state", "complete"]
    ) == 0
    assert "-> complete" in capsys.readouterr().out


def test_spans_unknown_request_exits_with_one_line(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["spans", COMMITTED, "--request", "99999"])
    assert exit_info.value.code == (
        "no span for request 99999 (234 spans recorded)"
    )
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("limit", ["-2", "-1", "x"])
def test_spans_rejects_a_bad_limit_at_parse_time(limit, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["spans", COMMITTED, "--limit", limit])
    assert exit_info.value.code == 2  # argparse's usage error
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: argument --limit: " in captured.err


def test_spans_limit_zero_shows_none(capsys):
    assert main(["spans", COMMITTED, "--limit", "0"]) == 0
    assert capsys.readouterr().out == "(0 of 234 spans shown)\n"


def test_metrics_listing_and_single_series(telemetry_file, capsys):
    assert main(["metrics", telemetry_file]) == 0
    out = capsys.readouterr().out
    assert "fleet.completed" in out
    assert "histogram fleet.latency_s" in out

    assert main(
        ["metrics", telemetry_file, "--name", "fleet.completed"]
    ) == 0
    assert capsys.readouterr().out.strip()


def test_alerts_scalar_and_per_model(telemetry_file, capsys):
    assert main(
        ["alerts", telemetry_file, "--deadline", "0.001",
         "--objective", "0.9", "--threshold", "2"]
    ) == 0
    assert "cli [page]" in capsys.readouterr().out

    assert main(
        ["alerts", telemetry_file,
         "--deadline", "sd=500", "--deadline", "muse=500"]
    ) == 0
    assert "no firings" in capsys.readouterr().out


def test_alerts_rejects_malformed_deadline(telemetry_file):
    with pytest.raises(SystemExit, match="model=seconds"):
        main([
            "alerts", telemetry_file,
            "--deadline", "sd=3", "--deadline", "muse:4",
        ])
    for deadlines, message in (
        (["m=-1"], "model 'm' must be finite and positive, got -1.0"),
        (["sd=3", "muse=nan"], "model 'muse' must be finite"),
        (["-1"], "must be finite and positive, got -1.0"),
        (["sd=3"], "no deadline for model 'muse'"),
    ):
        args = ["alerts", telemetry_file]
        for deadline in deadlines:
            args += ["--deadline", deadline]
        with pytest.raises(SystemExit, match=message):
            main(args)


def test_perfetto_writes_trace(telemetry_file, capsys, tmp_path):
    out_path = tmp_path / "trace.json"
    assert main(
        ["perfetto", telemetry_file, "-o", str(out_path)]
    ) == 0
    assert f"wrote {out_path}" in capsys.readouterr().out
    assert json.loads(out_path.read_text())["traceEvents"]


def test_module_entry_point(telemetry_file):
    import subprocess
    import sys
    from pathlib import Path

    repo = Path(__file__).resolve().parents[2]
    result = subprocess.run(
        [sys.executable, "-m", "repro.obs", "summary", telemetry_file],
        capture_output=True, text=True, cwd=repo,
        env={"PYTHONPATH": str(repo / "src"), "PATH": "/usr/bin:/bin"},
        timeout=120,
    )
    assert result.returncode == 0
    assert "pools:" in result.stdout
