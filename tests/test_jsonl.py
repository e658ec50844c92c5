"""The canonical-JSONL envelope: committed examples and direct tests.

Each codec's own tests run the shared envelope contract
(``tests/jsonl_helpers.py``); this module pins what they do not
reach: every committed example file round-trips byte for byte through
the loader its header names and passes ``tools/check_jsonl.py``, and
:mod:`repro.jsonl` writes, groups and orders records as documented.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import jsonl
from repro.obs.export import (
    TELEMETRY_SCHEMA,
    dumps_telemetry,
    loads_telemetry,
)
from repro.serving.chaos import (
    CAMPAIGN_SCHEMA,
    dumps_campaign,
    loads_campaign,
)
from repro.serving.traffic import TRACE_SCHEMA, dumps_trace, loads_trace
from tests.jsonl_helpers import checker

REPO_ROOT = Path(__file__).resolve().parents[1]

CODECS = {
    TRACE_SCHEMA: (dumps_trace, loads_trace),
    TELEMETRY_SCHEMA: (dumps_telemetry, loads_telemetry),
    CAMPAIGN_SCHEMA: (dumps_campaign, loads_campaign),
}
EXAMPLES = sorted((REPO_ROOT / "examples" / "traces").glob("*.jsonl"))


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.name)
def test_committed_example_round_trips(path):
    data = path.read_bytes()
    header = json.loads(data.split(b"\n", 1)[0])
    dumps, loads = CODECS[header["schema"]]
    assert dumps(loads(data.decode("utf-8"))).encode("utf-8") == data
    assert checker.check_file(path) == []


def test_every_schema_has_a_committed_example():
    schemas = {
        json.loads(path.read_text().split("\n", 1)[0])["schema"]
        for path in EXAMPLES
    }
    assert schemas == set(CODECS) == set(checker.SCHEMAS)


PARSERS = {"a": lambda r: r["x"], "b": lambda r: int(r["y"])}


def test_dumps_stamps_the_header_and_ends_with_a_newline():
    text = jsonl.dumps(
        {"version": 1, "schema": "s"}, [{"x": 1, "kind": "a"}]
    )
    assert text == (
        '{"kind":"header","schema":"s","version":1}\n{"kind":"a","x":1}\n'
    )


def test_loads_groups_values_by_kind_and_skips_blank_lines():
    text = jsonl.dumps(
        {"schema": "s", "version": 1},
        [{"kind": "a", "x": 1}, {"kind": "a", "x": 2},
         {"kind": "b", "y": 3}],
    )
    header, values = jsonl.loads(
        text.replace("\n", "\n\n"), schema="s", version=1,
        parsers=PARSERS,
    )
    assert header == {"kind": "header", "schema": "s", "version": 1}
    assert values == {"a": [1, 2], "b": [3]}


@pytest.mark.parametrize("line, message", [
    ('{"kind":"a","x":1}', "a record out of order"),
    ('{"kind":"a"', "invalid JSON"),
    ("[1]", "record is not a JSON object"),
    ('{"kind":"b"}', r"bad b record \(KeyError: 'y'\)"),
    ('{"kind":"b","y":{}}', r"bad b record \(TypeError: "),
    ('{"kind":"b","y":"x"}', r"bad b record \(ValueError: "),
])
def test_loads_names_the_schema_and_the_line(line, message):
    text = (
        '{"kind":"header","schema":"s","version":1}\n'
        '{"kind":"b","y":0}\n' + line + "\n"
    )
    with pytest.raises(ValueError, match=f"^s line 3: {message}"):
        jsonl.loads(text, schema="s", version=1, parsers=PARSERS)
