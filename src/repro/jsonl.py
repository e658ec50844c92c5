"""The canonical-JSONL envelope shared by every record format.

Traffic traces, telemetry logs and chaos campaigns are files of one
canonical JSON record per line (sorted keys, compact separators): a
``header`` on line 1 with the schema id and version, then kind-tagged
records in the order the schema declares (``docs/RECORDS.md``).  This
module writes and reads that envelope; each codec builds its own
record dicts and parses its own kinds.  ``tools/check_jsonl.py``
validates the same contract without importing this module, so a
serializer bug cannot certify itself.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Iterable, Mapping


def canonical(record: object) -> str:
    """One canonical JSON line: sorted keys, no whitespace."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def dumps(header: Mapping, records: Iterable[Mapping | str]) -> str:
    """Serialize a header and kind-tagged records to canonical JSONL.

    The header is stamped ``kind: "header"``; each record is written
    as given (it carries its own ``kind``), one canonical line each,
    and the text ends with a newline.  A record that is a ``str`` is
    taken to be its canonical line already and written as is.
    """
    lines = [canonical({"kind": "header", **header})]
    lines.extend(
        record if isinstance(record, str) else canonical(record)
        for record in records
    )
    lines.append("")
    return "\n".join(lines)


def loads(
    text: str,
    *,
    schema: str,
    version: int,
    parsers: Mapping[str, Callable[[dict], Any]],
) -> tuple[dict, dict[str, list]]:
    """Parse canonical JSONL into its header and per-kind values.

    ``parsers`` maps each record kind, in file order, to a function
    from a record to a value; blank lines are skipped.  Returns the
    header and ``{kind: [parsed values in file order]}``.  Raises a
    ``ValueError`` naming the schema and the line for an empty file, a
    first line that is not this schema's header at this version, a
    line that is not a JSON object, an unknown or out-of-order kind,
    and a parser's ``KeyError``, ``TypeError`` or ``ValueError``.
    """
    def fail(number: int, message: str) -> ValueError:
        return ValueError(f"{schema} line {number}: {message}")

    def record_at(number: int, line: str) -> dict:
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            raise fail(number, f"invalid JSON ({error.msg})") from None
        if not isinstance(record, dict):
            raise fail(number, "record is not a JSON object")
        return record

    lines = [
        (number, line)
        for number, line in enumerate(text.splitlines(), start=1)
        if line.strip()
    ]
    if not lines:
        raise ValueError(f"empty {schema} file (no header record)")
    header = record_at(*lines[0])
    if header.get("kind") != "header":
        raise fail(lines[0][0], "first record must be the header, got "
                   f"kind {header.get('kind')!r}")
    if header.get("schema") != schema:
        raise fail(lines[0][0], f"schema {header.get('schema')!r} is not "
                   f"{schema!r}")
    if header.get("version") != version:
        raise fail(lines[0][0], "unsupported version "
                   f"{header.get('version')!r} (expected {version})")
    rank = {kind: index for index, kind in enumerate(parsers)}
    values: dict[str, list] = {kind: [] for kind in parsers}
    last = 0
    for number, line in lines[1:]:
        record = record_at(number, line)
        kind = record.get("kind")
        if not isinstance(kind, str) or kind not in rank:
            raise fail(number, f"unknown record kind {kind!r}")
        if rank[kind] < last:
            raise fail(number, f"{kind} record out of order (file order "
                       f"is {', '.join(parsers)})")
        last = rank[kind]
        try:
            values[kind].append(parsers[kind](record))
        except (KeyError, TypeError, ValueError) as error:
            raise fail(number, f"bad {kind} record "
                       f"({type(error).__name__}: {error})") from error
    return header, values
