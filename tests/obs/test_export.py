"""JSONL telemetry export: round trips, header counts and the envelope."""

import json

import pytest

from repro.obs import (
    TELEMETRY_SCHEMA,
    TELEMETRY_VERSION,
    dumps_telemetry,
    load_telemetry,
    loads_telemetry,
    save_telemetry,
)
from tests.jsonl_helpers import CodecContract


class TestRoundTrip:
    def test_loads_inverts_dumps(self, small_log):
        text = dumps_telemetry(small_log)
        assert loads_telemetry(text) == small_log

    def test_dumps_loads_dumps_is_byte_identity(self, small_log):
        text = dumps_telemetry(small_log)
        assert dumps_telemetry(loads_telemetry(text)) == text

    def test_file_round_trip(self, small_log, tmp_path):
        path = save_telemetry(small_log, tmp_path / "telemetry.jsonl")
        assert load_telemetry(path) == small_log


class TestHeader(CodecContract):
    loads = staticmethod(loads_telemetry)
    schema = TELEMETRY_SCHEMA
    version = TELEMETRY_VERSION

    @pytest.fixture()
    def text(self, small_log):
        return dumps_telemetry(small_log)

    def test_header_first_with_counts(self, small_log):
        header = json.loads(
            dumps_telemetry(small_log).splitlines()[0]
        )
        assert header["kind"] == "header"
        assert header["schema"] == TELEMETRY_SCHEMA
        assert header["version"] == TELEMETRY_VERSION
        assert header["num_spans"] == len(small_log.spans)
        assert header["num_events"] == len(small_log.events)
        assert header["meta"] == {"scenario": "conftest"}

    def test_count_mismatch_rejected(self, small_log):
        lines = dumps_telemetry(small_log).splitlines()
        with pytest.raises(ValueError, match="promised"):
            loads_telemetry("\n".join(lines[:-1]))
