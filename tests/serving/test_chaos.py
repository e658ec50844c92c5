"""Chaos harness tests: generation, serialization and invariants —
plus the hypothesis invariant gate over the engine."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving.chaos import (
    CAMPAIGN_SCHEMA,
    CAMPAIGN_VERSION,
    INVARIANTS,
    ChaosCampaign,
    ChaosConfig,
    check_invariants,
    dumps_campaign,
    generate_campaign,
    load_campaign,
    loads_campaign,
    save_campaign,
)
from repro.serving.domains import (
    NetworkPartition,
    OrchestrationConfig,
    RackOutage,
    ZoneOutage,
    grid_topology,
    topology_for_pools,
)
from repro.serving.faults import (
    FAULT_FREE,
    NO_RETRIES,
    RetryPolicy,
    generate_faults,
)
from repro.serving.fleet import (
    PoolSpec,
    affine_batch_latency,
    simulate_fleet,
)
from repro.serving.resilience import (
    AdmissionConfig,
    BrownoutConfig,
    DegradedRung,
    ResilienceConfig,
)
from repro.serving.workload import WorkloadMix, generate_requests
from tests.jsonl_helpers import CodecContract

FNS = {"sd": affine_batch_latency(2.0, marginal_fraction=0.6)}
MIX = WorkloadMix(shares={"sd": 1.0}, service_s={"sd": 2.0})


def _pools(zones=2, servers=3, standby=1):
    return [
        PoolSpec(
            name=f"zone{z}", machine="dgx-a100-80g",
            servers=servers, latency_fns=FNS,
            max_servers=servers + standby, zone=z,
        )
        for z in range(zones)
    ]


def _campaign(seed=0, duration=400.0):
    topology = grid_topology(
        8, hosts_per_rack=2, racks_per_zone=2
    )
    config = ChaosConfig(
        zone_outage_rate=1 / 150.0,
        rack_outage_rate=1 / 200.0,
        partition_rate=1 / 250.0,
        degraded_rate=1 / 250.0,
        mean_duration_s=30.0,
        stagger_s=3.0,
    )
    return generate_campaign(
        topology, config, duration_s=duration, seed=seed
    )


class TestConfigValidation:
    """NaN and inf fail naming the field.

    A NaN rate used to yield an empty campaign, a NaN duration or
    stagger failed later naming ``ZoneOutage``'s field, and an
    infinite stagger was accepted.
    """

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "field", [f.name for f in dataclasses.fields(ChaosConfig)]
    )
    def test_every_float_must_be_finite(self, field, bad):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            ChaosConfig(**{field: bad})

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_duration_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="duration_s must be finite"):
            generate_campaign(
                grid_topology(4), ChaosConfig(zone_outage_rate=0.01),
                duration_s=bad,
            )


class TestGeneration:
    def test_deterministic_per_seed(self):
        assert _campaign(seed=3) == _campaign(seed=3)
        assert _campaign(seed=3) != _campaign(seed=4)

    def test_events_ordered_and_inside_window(self):
        campaign = _campaign(seed=1)
        assert campaign.events
        last = 0.0
        for event in campaign.events:
            assert event.at_s >= last
            assert event.at_s < campaign.duration_s
            last = event.at_s

    def test_streams_never_overlap_within_domain_and_kind(self):
        campaign = _campaign(seed=2, duration=2000.0)
        by_stream = {}
        for event in campaign.events:
            from repro.serving.domains import event_domain
            key = (type(event).__name__,) + event_domain(event)
            by_stream.setdefault(key, []).append(event)
        for stream in by_stream.values():
            for first, second in zip(stream, stream[1:]):
                assert (
                    second.at_s >= first.at_s + first.duration_s
                )

    def test_zero_rates_give_empty_campaign(self):
        campaign = generate_campaign(
            grid_topology(4), ChaosConfig(),
            duration_s=100.0, seed=0,
        )
        assert campaign.events == ()


class TestSerialization(CodecContract):
    loads = staticmethod(loads_campaign)
    schema = CAMPAIGN_SCHEMA
    version = CAMPAIGN_VERSION

    @pytest.fixture()
    def text(self):
        return dumps_campaign(_campaign(seed=9))

    def test_round_trip_is_identity(self, text):
        assert loads_campaign(text) == _campaign(seed=9)
        assert dumps_campaign(loads_campaign(text)) == text

    def test_save_load_files(self, tmp_path):
        campaign = _campaign(seed=4)
        path = tmp_path / "campaign.jsonl"
        save_campaign(campaign, path)
        assert load_campaign(path) == campaign

    def test_first_line_must_be_the_header(self, text):
        text = text.replace('"kind":"header"', '"kind":"topology"', 1)
        with pytest.raises(ValueError, match="line 1: .*must be the header"):
            loads_campaign(text)

    def test_event_line_of_another_kind_rejected(self, text):
        lines = text.splitlines()
        lines[2] = lines[2].replace('"kind":"event"', '"kind":"client"')
        with pytest.raises(ValueError, match="line 3: unknown record kind"):
            loads_campaign("\n".join(lines))

    def test_missing_event_field_named(self, text):
        lines = text.splitlines()
        event = json.loads(lines[2])
        del event["at_s"]
        lines[2] = json.dumps(event)
        with pytest.raises(ValueError, match="line 3: bad event .*'at_s'"):
            loads_campaign("\n".join(lines))


def _completion_columns(report, rows):
    """The report with its completion columns re-indexed by ``rows``."""
    return dataclasses.replace(report, **{
        spec.name: getattr(report, spec.name)[rows]
        for spec in dataclasses.fields(report)
        if spec.name.startswith("comp_")
    })


class TestInvariants:
    def _run(self, requests, pools, **kwargs):
        return simulate_fleet(requests, pools, **kwargs)

    def test_healthy_run_passes(self):
        pools = _pools()
        requests = generate_requests(
            MIX, arrival_rate=2.0, duration_s=120.0, seed=1
        )
        verdict = check_invariants(
            requests, self._run(requests, pools)
        )
        assert verdict.ok
        assert verdict.checked == INVARIANTS
        assert "ok" in verdict.render()

    def test_chaotic_run_passes_with_protection_on(self):
        pools = _pools(standby=2)
        topology = topology_for_pools(pools)
        requests = generate_requests(
            MIX, arrival_rate=3.0, duration_s=300.0, seed=2
        )
        campaign = ChaosCampaign(
            topology=topology,
            events=(
                ZoneOutage(
                    zone=0, at_s=50.0, duration_s=80.0, stagger_s=4.0
                ),
                NetworkPartition(
                    scope="rack", index=1, at_s=180.0, duration_s=40.0
                ),
            ),
            duration_s=300.0,
            seed=6,
        )
        compiled = campaign.compile(
            pools=pools, orchestration=OrchestrationConfig()
        )
        brownout = BrownoutConfig(
            rungs=(
                DegradedRung(
                    label="fast",
                    latency_fns={
                        "sd": affine_batch_latency(
                            1.0, marginal_fraction=0.6
                        )
                    },
                    quality=0.8,
                ),
            ),
            step_down_backlog=2.0,
        )
        report = self._run(
            requests, pools,
            faults=compiled.faults, plan=compiled.plan,
            retry=RetryPolicy(
                max_retries=3, backoff_s=0.5, timeout_s=20.0
            ),
            resilience=ResilienceConfig(
                admission=AdmissionConfig(max_queue_depth=32),
                brownout=brownout,
            ),
        )
        verdict = check_invariants(
            requests, report, brownout=brownout
        )
        assert verdict.ok, verdict.render()

    def test_detects_duplicated_terminal_state(self):
        pools = _pools()
        requests = generate_requests(
            MIX, arrival_rate=2.0, duration_s=60.0, seed=3
        )
        report = self._run(requests, pools)
        rows = np.arange(report.completed_count)
        corrupt = _completion_columns(
            report, np.concatenate([rows, rows[:1]])
        )
        assert len(corrupt.completed) == report.completed_count + 1
        verdict = check_invariants(requests, corrupt)
        assert not verdict.ok
        assert any(
            "terminal_exactly_once" in violation
            for violation in verdict.violations
        )
        assert any(
            "conservation" in violation
            for violation in verdict.violations
        )

    def test_detects_post_makespan_event(self):
        pools = _pools()
        requests = generate_requests(
            MIX, arrival_rate=2.0, duration_s=60.0, seed=3
        )
        report = self._run(requests, pools)
        corrupt = dataclasses.replace(
            report, makespan_s=report.makespan_s / 2.0
        )
        verdict = check_invariants(requests, corrupt)
        assert any(
            "no_post_makespan_events" in violation
            for violation in verdict.violations
        )

    def test_detects_quality_outside_ladder(self):
        pools = _pools()
        requests = generate_requests(
            MIX, arrival_rate=2.0, duration_s=60.0, seed=3
        )
        report = self._run(requests, pools)
        rung = report.comp_rung.copy()
        quality = report.comp_quality.copy()
        rung[0], quality[0] = 3, 0.5
        corrupt = dataclasses.replace(
            report, comp_rung=rung, comp_quality=quality
        )
        verdict = check_invariants(requests, corrupt)
        assert any(
            "quality_debt_bounded" in violation
            for violation in verdict.violations
        )

    def test_detects_clock_reversal(self):
        pools = _pools()
        requests = generate_requests(
            MIX, arrival_rate=2.0, duration_s=60.0, seed=4
        )
        report = self._run(requests, pools)
        start = report.comp_start_s.copy()
        start[0] = report.comp_finish_s[0] + 1.0
        verdict = check_invariants(
            requests, dataclasses.replace(report, comp_start_s=start)
        )
        assert any(
            violation.startswith("clock_monotone")
            for violation in verdict.violations
        )

    @pytest.mark.parametrize("makespan", [math.inf, math.nan])
    def test_detects_non_finite_makespan(self, makespan):
        requests = generate_requests(
            MIX, arrival_rate=2.0, duration_s=60.0, seed=3
        )
        report = self._run(requests, _pools())
        verdict = check_invariants(
            requests, dataclasses.replace(report, makespan_s=makespan)
        )
        assert verdict.violations == (
            f"finite_times: makespan {makespan}",
        )

    def test_detects_a_day_that_ends_at_infinity(self):
        """An infinite finish under an infinite makespan passes the
        clock and makespan checks; only ``finite_times`` sees it."""
        requests = generate_requests(
            MIX, arrival_rate=2.0, duration_s=60.0, seed=3
        )
        report = self._run(requests, _pools())
        finish = report.comp_finish_s.copy()
        finish[-1] = math.inf
        verdict = check_invariants(
            requests,
            dataclasses.replace(
                report, comp_finish_s=finish, makespan_s=math.inf
            ),
        )
        rid = report.req_request_ids[report.comp_req[-1]]
        assert verdict.violations == (
            f"finite_times: completion finish of {rid} at inf",
            "finite_times: makespan inf",
        )

    def test_every_fleet_run_in_the_session_is_checked(self, monkeypatch):
        """``tests/conftest.py`` checks each engine run: a run whose
        report breaks an invariant fails the call that made it."""
        from repro.serving.columnar import _ColumnarState

        build = _ColumnarState._build_report
        monkeypatch.setattr(
            _ColumnarState, "_build_report",
            lambda state, offered: dataclasses.replace(
                build(state, offered), makespan_s=math.inf
            ),
        )
        requests = generate_requests(
            MIX, arrival_rate=2.0, duration_s=60.0, seed=3
        )
        with pytest.raises(
            AssertionError, match="finite_times: makespan inf"
        ):
            self._run(requests, _pools())


class TestCli:
    def test_smoke_exits_clean(self):
        from repro.serving.chaos import main

        assert main(["--seed", "1", "--duration", "200"]) == 0


@st.composite
def independent_fault_runs(draw):
    """A random fleet under random *independent* fault schedules —
    the invariant checker's permanent engine-correctness gate."""
    requests = generate_requests(
        MIX,
        arrival_rate=draw(st.floats(min_value=0.5, max_value=5.0)),
        duration_s=draw(st.floats(min_value=30.0, max_value=120.0)),
        seed=draw(st.integers(min_value=0, max_value=2**16)),
    )
    servers = draw(st.integers(min_value=1, max_value=4))
    standby = draw(st.integers(min_value=0, max_value=2))
    pools = [
        PoolSpec(
            name="pool0", machine="dgx-a100-80g", servers=servers,
            latency_fns=FNS,
            max_batch=draw(st.integers(min_value=1, max_value=4)),
            max_servers=servers + standby,
        )
    ]
    if draw(st.booleans()):
        faults = generate_faults(
            servers=servers + standby,
            duration_s=120.0,
            seed=draw(st.integers(min_value=0, max_value=2**16)),
            crash_rate_per_hour=draw(st.sampled_from((60.0, 240.0))),
            mean_downtime_s=10.0,
            straggler_rate_per_hour=draw(
                st.sampled_from((0.0, 120.0))
            ),
            mean_straggler_s=15.0,
            slowdown=3.0,
        )
    else:
        faults = FAULT_FREE
    retry = draw(st.sampled_from((
        NO_RETRIES,
        RetryPolicy(max_retries=2, backoff_s=0.5, timeout_s=10.0),
        RetryPolicy(max_retries=1, backoff_s=0.0, timeout_s=None),
    )))
    return requests, pools, faults, retry


@settings(max_examples=40, deadline=None)
@given(scenario=independent_fault_runs())
def test_invariants_hold(scenario):
    """Every fleet run — any faults, any retry policy — must satisfy
    the structural invariants.  A violation here is an engine bug, not
    a chaos artifact."""
    requests, pools, faults, retry = scenario
    report = simulate_fleet(requests, pools, faults=faults, retry=retry)
    verdict = check_invariants(requests, report)
    assert verdict.ok, verdict.render()
