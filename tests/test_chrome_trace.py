"""The one Chrome-trace writer: pinned view bytes and the import graph.

Each view is pinned by the SHA-256 of ``json.dumps`` of its payload,
recorded before the views shared a writer.  The inputs give the same
bytes on every platform: the op view renders a hand-built trace whose
costs and intervals are literals, and the fleet view renders the
committed telemetry example.
"""

import hashlib
import json
import re
import subprocess
import sys
from pathlib import Path

from repro.chrome_trace import write_chrome_trace
from repro.ir.ops import Elementwise, Gemm, Softmax
from repro.ir.trace import KernelCost, Trace, TraceEvent
from repro.obs import load_telemetry, telemetry_to_chrome_trace
from repro.profiler.trace_export import to_chrome_trace

ROOT = Path(__file__).resolve().parent.parent
TELEMETRY = ROOT / "examples" / "traces" / "telemetry_small.jsonl"

OP_VIEW = "94493706cc51fab7306fdafb7b504bbf75cefdb7b6ad51913d6209990a6a31dc"
FLEET_VIEW = "9cb3f8633307788479854818f00b6538cb3d93712d2d0098b0186da03a5f0024"


def _digest(payload):
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


def op_trace():
    """Three kernels on three category lanes, costs as literals."""
    proj = KernelCost(2.5e-05, 2.0e-05, 1.25e-05, 5.0e-06,
                      4194304.0, 98304.0, "compute")
    gelu = KernelCost(1.0e-05, 1.0e-06, 8.0e-06, 5.0e-06,
                      4096.0, 16384.0, "memory")
    softmax = KernelCost(7.5e-06, 2.5e-07, 2.5e-06, 5.0e-06,
                         81920.0, 131072.0, "launch")
    return Trace([
        TraceEvent(0, "unet.proj", Gemm("proj", m=128, n=128, k=128),
                   proj, 0.0),
        TraceEvent(1, "unet.act", Elementwise("gelu", numel=4096),
                   gelu, 2.5e-05),
        TraceEvent(2, "unet.attn", Softmax("softmax", rows=128, cols=128),
                   softmax, 3.5e-05),
    ])


class TestPinnedBytes:
    def test_op_view(self):
        assert _digest(to_chrome_trace(op_trace())) == OP_VIEW

    def test_fleet_view(self):
        log = load_telemetry(TELEMETRY)
        assert _digest(telemetry_to_chrome_trace(log)) == FLEET_VIEW


def test_written_file_is_the_json_of_the_view(tmp_path):
    payload = to_chrome_trace(op_trace())
    path = write_chrome_trace(payload, tmp_path / "op.json")
    assert path == tmp_path / "op.json"
    assert path.read_text() == json.dumps(payload)


def test_only_the_writer_builds_trace_events():
    """No other module spells an event's ``"ph"`` key or the envelope."""
    literal = re.compile(r"""["'](ph|traceEvents)["']\s*:""")
    builders = sorted(
        path.relative_to(ROOT / "src").as_posix()
        for path in (ROOT / "src" / "repro").rglob("*.py")
        if literal.search(path.read_text())
    )
    assert builders == ["repro/chrome_trace.py"]


def test_import_loads_no_serving_or_obs_module():
    """``import repro`` stays off the serving stack (fresh interpreter)."""
    code = (
        "import sys, repro, repro.profiler, repro.chrome_trace\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.startswith(('repro.serving', 'repro.obs'))))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"},
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
