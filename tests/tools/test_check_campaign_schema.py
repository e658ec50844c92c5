"""The record-schema CI gate (``tools/check_jsonl.py``) on campaigns.

The checker validates committed chaos campaigns line-by-line without
going through ``repro.serving.chaos`` — these tests pin that it
accepts a freshly serialized campaign (including the committed
example) and rejects each class of corruption the schema forbids:
wrong header, non-canonical bytes, inconsistent topology nesting,
unknown events, out-of-range staggers/factors, domains that do not
exist in the topology.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.serving.chaos import (
    CAMPAIGN_SCHEMA,
    CAMPAIGN_VERSION,
    ChaosCampaign,
    ChaosConfig,
    generate_campaign,
    save_campaign,
)
from repro.serving.domains import (
    EVENT_KIND_NAMES,
    EVENT_SCOPES,
    DegradedLink,
    NetworkPartition,
    RackOutage,
    ZoneOutage,
    grid_topology,
)
from tests.jsonl_helpers import checker

REPO_ROOT = Path(__file__).resolve().parents[2]

EXAMPLE = REPO_ROOT / "examples" / "traces" / "zone_outage_small.jsonl"


@pytest.fixture()
def campaign_path(tmp_path: Path) -> Path:
    topology = grid_topology(
        12, servers_per_host=1, hosts_per_rack=3, racks_per_zone=2
    )
    campaign = ChaosCampaign(
        topology=topology,
        events=(
            ZoneOutage(zone=1, at_s=30.0, duration_s=60.0,
                       stagger_s=5.0),
            RackOutage(rack=0, at_s=120.0, duration_s=40.0),
            NetworkPartition(scope="rack", index=3, at_s=200.0,
                             duration_s=25.0),
            DegradedLink(scope="zone", index=0, at_s=260.0,
                         duration_s=30.0, bandwidth_factor=0.5,
                         comm_fraction=0.2),
        ),
        duration_s=400.0,
        seed=5,
    )
    path = tmp_path / "campaign.jsonl"
    save_campaign(campaign, path)
    return path


def rewrite(path: Path, line_index: int, mutate) -> Path:
    """Apply ``mutate(record_dict)`` to one line, keep bytes canonical."""
    lines = path.read_text().splitlines()
    record = json.loads(lines[line_index])
    mutate(record)
    lines[line_index] = checker.canonical(record)
    path.write_text("\n".join(lines) + "\n")
    return path


class TestAccepts:
    def test_fresh_campaign_passes(self, campaign_path):
        assert checker.check_file(campaign_path) == []

    def test_committed_example_passes(self):
        assert checker.check_file(EXAMPLE) == []

    def test_generated_campaign_passes(self, tmp_path):
        topology = grid_topology(16)
        campaign = generate_campaign(
            topology,
            ChaosConfig(zone_outage_rate=1 / 120.0,
                        degraded_rate=1 / 90.0),
            duration_s=600.0, seed=7,
        )
        path = tmp_path / "generated.jsonl"
        save_campaign(campaign, path)
        assert checker.check_file(path) == []

    def test_constants_match_the_library(self):
        assert checker.SCHEMAS[CAMPAIGN_SCHEMA].version == CAMPAIGN_VERSION
        assert checker.CAMPAIGN_EVENTS == tuple(EVENT_KIND_NAMES.values())
        assert checker.SCOPES == EVENT_SCOPES

    def test_cli_reports_ok(self, campaign_path, capsys):
        assert checker.main([str(campaign_path)]) == 0
        assert "ok" in capsys.readouterr().out


class TestRejectsFraming:
    def test_missing_trailing_newline(self, campaign_path):
        campaign_path.write_text(
            campaign_path.read_text().rstrip("\n")
        )
        errors = checker.check_file(campaign_path)
        assert any("trailing newline" in e for e in errors)

    def test_non_canonical_bytes(self, campaign_path):
        lines = campaign_path.read_text().splitlines()
        record = json.loads(lines[0])
        lines[0] = json.dumps(record, sort_keys=True, indent=None)
        campaign_path.write_text("\n".join(lines) + "\n")
        errors = checker.check_file(campaign_path)
        assert any("canonical" in e for e in errors)

    def test_truncated_file(self, campaign_path):
        header = campaign_path.read_text().splitlines()[0]
        campaign_path.write_text(header + "\n")
        errors = checker.check_file(campaign_path)
        assert any("topology record" in e for e in errors)


class TestRejectsHeader:
    def test_wrong_schema(self, campaign_path):
        rewrite(campaign_path, 0, lambda r: r.update(schema="nope"))
        errors = checker.check_file(campaign_path)
        assert any("schema" in e for e in errors)

    def test_wrong_version(self, campaign_path):
        rewrite(campaign_path, 0, lambda r: r.update(version=2))
        errors = checker.check_file(campaign_path)
        assert any("version" in e for e in errors)

    def test_negative_seed(self, campaign_path):
        rewrite(campaign_path, 0, lambda r: r.update(seed=-1))
        errors = checker.check_file(campaign_path)
        assert any("seed" in e for e in errors)

    def test_bad_duration(self, campaign_path):
        rewrite(campaign_path, 0, lambda r: r.update(duration_s=0.0))
        errors = checker.check_file(campaign_path)
        assert any("duration_s" in e for e in errors)


class TestRejectsTopology:
    def test_server_count_mismatch(self, campaign_path):
        rewrite(
            campaign_path, 1,
            lambda r: r.update(host_of=r["host_of"] + [99],
                               rack_of=r["rack_of"] + [0],
                               zone_of=r["zone_of"] + [0]),
        )
        errors = checker.check_file(campaign_path)
        assert any("header promised" in e for e in errors)

    def test_unequal_columns(self, campaign_path):
        rewrite(
            campaign_path, 1,
            lambda r: r.update(rack_of=r["rack_of"][:-1]),
        )
        errors = checker.check_file(campaign_path)
        assert any("unequal lengths" in e for e in errors)

    def test_host_spanning_racks(self, campaign_path):
        def mutate(record):
            record["host_of"] = [0] * len(record["host_of"])

        rewrite(campaign_path, 1, mutate)
        errors = checker.check_file(campaign_path)
        assert any("spans racks" in e for e in errors)

    def test_rack_spanning_zones(self, campaign_path):
        def mutate(record):
            record["rack_of"] = [0] * len(record["rack_of"])

        rewrite(campaign_path, 1, mutate)
        errors = checker.check_file(campaign_path)
        assert any("spans zones" in e for e in errors)


class TestRejectsEvents:
    def test_unknown_event(self, campaign_path):
        rewrite(campaign_path, 2, lambda r: r.update(event="meteor"))
        errors = checker.check_file(campaign_path)
        assert any("'meteor'" in e for e in errors)

    def test_zone_not_in_topology(self, campaign_path):
        rewrite(campaign_path, 2, lambda r: r.update(zone=9))
        errors = checker.check_file(campaign_path)
        assert any("zone 9" in e for e in errors)

    def test_stagger_exceeds_duration(self, campaign_path):
        rewrite(campaign_path, 2, lambda r: r.update(stagger_s=60.0))
        errors = checker.check_file(campaign_path)
        assert any("stagger_s" in e for e in errors)

    def test_bad_scope(self, campaign_path):
        rewrite(campaign_path, 4, lambda r: r.update(scope="pod"))
        errors = checker.check_file(campaign_path)
        assert any("scope" in e for e in errors)

    def test_bandwidth_factor_out_of_range(self, campaign_path):
        rewrite(
            campaign_path, 5,
            lambda r: r.update(bandwidth_factor=1.5),
        )
        errors = checker.check_file(campaign_path)
        assert any("bandwidth_factor" in e for e in errors)

    def test_event_past_campaign_duration(self, campaign_path):
        rewrite(campaign_path, 3, lambda r: r.update(at_s=1000.0))
        errors = checker.check_file(campaign_path)
        assert any("after the" in e for e in errors)

    def test_cli_reports_failure(self, campaign_path, capsys):
        rewrite(campaign_path, 0, lambda r: r.update(schema="nope"))
        assert checker.main([str(campaign_path)]) == 1
        assert "FAIL" in capsys.readouterr().err
