"""Shared test helpers for the canonical-JSONL record files.

Traffic traces, telemetry logs and chaos campaigns share one envelope
(:mod:`repro.jsonl`).  Each codec's test class inherits
:class:`CodecContract`, so every envelope test runs once per format
with that format's loader and a sample it serialized.  ``checker`` is
``tools/check_jsonl.py`` loaded as a module.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path
from typing import Callable

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "check_jsonl",
    Path(__file__).resolve().parents[1] / "tools" / "check_jsonl.py",
)
checker = importlib.util.module_from_spec(_SPEC)
sys.modules.setdefault("check_jsonl", checker)
_SPEC.loader.exec_module(checker)


class CodecContract:
    """Envelope tests; subclasses name their codec and give a sample.

    A subclass sets ``loads`` (as a ``staticmethod``), ``schema`` and
    ``version``, and defines a ``text`` fixture: one serialized sample
    with at least one record after the header.
    """

    loads: Callable[[str], object]
    schema: str
    version: int

    def test_lines_are_canonical(self, text):
        assert text.endswith("\n")
        for line in text.splitlines():
            assert line == json.dumps(
                json.loads(line), sort_keys=True, separators=(",", ":")
            )

    def test_empty_file_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            self.loads("")

    def test_missing_header_rejected(self, text):
        with pytest.raises(ValueError, match="header"):
            self.loads("\n".join(text.splitlines()[1:]))

    def test_wrong_schema_rejected(self, text):
        text = text.replace(
            f'"schema":"{self.schema}"', '"schema":"not-a-schema"', 1
        )
        with pytest.raises(ValueError, match="schema 'not-a-schema'"):
            self.loads(text)

    def test_wrong_version_rejected(self, text):
        text = text.replace(
            f'"version":{self.version}',
            f'"version":{self.version + 1}', 1,
        )
        with pytest.raises(ValueError, match="version"):
            self.loads(text)

    def test_unknown_record_kind_rejected(self, text):
        with pytest.raises(ValueError, match="unknown record kind"):
            self.loads(text + '{"kind":"mystery"}\n')
