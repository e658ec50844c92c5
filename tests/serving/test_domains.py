"""Failure-domain topology and campaign-compiler tests."""

import math

import pytest

from repro.serving.domains import (
    CompiledEvent,
    DegradedLink,
    DomainTopology,
    NetworkPartition,
    OrchestrationConfig,
    RackOutage,
    ZoneOutage,
    collective_slowdown,
    compile_campaign,
    domain_downtime,
    fleet_server_ids,
    grid_topology,
    topology_for_pools,
)
from repro.serving.fleet import (
    PoolSpec,
    affine_batch_latency,
    simulate_fleet,
)
from repro.serving.workload import WorkloadMix, generate_requests

FNS = {"sd": affine_batch_latency(2.0, marginal_fraction=0.6)}


def _pools(zones=2, servers=3, standby=1):
    return [
        PoolSpec(
            name=f"zone{z}", machine="dgx-a100-80g",
            servers=servers, latency_fns=FNS,
            max_servers=servers + standby, zone=z,
        )
        for z in range(zones)
    ]


class TestTopology:
    def test_grid_nesting(self):
        topo = grid_topology(
            16, servers_per_host=2, hosts_per_rack=2,
            racks_per_zone=2,
        )
        assert topo.servers == 16
        assert topo.zones == 2
        assert topo.racks == 4
        assert topo.servers_in("zone", 0) == tuple(range(8))
        assert topo.servers_in("rack", 1) == (4, 5, 6, 7)
        assert topo.domain_of(5, "host") == 2

    def test_columns_must_align(self):
        with pytest.raises(ValueError):
            DomainTopology(
                host_of=(0, 1), rack_of=(0,), zone_of=(0, 0)
            )

    def test_domains_must_nest(self):
        # Host 0 cannot live in two racks.
        with pytest.raises(ValueError, match="spans racks"):
            DomainTopology(
                host_of=(0, 0), rack_of=(0, 1), zone_of=(0, 0)
            )
        with pytest.raises(ValueError, match="spans zones"):
            DomainTopology(
                host_of=(0, 1), rack_of=(0, 0), zone_of=(0, 1)
            )

    def test_unknown_scope_and_sid(self):
        topo = grid_topology(4)
        with pytest.raises(ValueError):
            topo.domain_of(0, "datacenter")
        with pytest.raises(ValueError):
            topo.domain_of(99, "zone")

    def test_pool_topology_covers_standbys(self):
        pools = _pools(zones=2, servers=3, standby=1)
        topo = topology_for_pools(pools)
        assert topo.servers == 8  # 2 pools x (3 active + 1 standby)
        assert topo.zones == 2
        # Standby sid 3 shares pool 0's zone/rack.
        assert topo.domain_of(3, "zone") == 0
        assert topo.domain_of(3, "rack") == 0
        assert fleet_server_ids(pools) == ((0, 3, 4), (4, 3, 4))

    def test_pool_zone_defaults_to_index(self):
        pools = [
            PoolSpec(
                name=f"p{i}", machine="dgx-a100-80g", servers=2,
                latency_fns=FNS,
            )
            for i in range(3)
        ]
        topo = topology_for_pools(pools)
        assert topo.zones == 3
        # Shared zone id groups pools into one zone.
        grouped = [
            PoolSpec(
                name=f"p{i}", machine="dgx-a100-80g", servers=2,
                latency_fns=FNS, zone=0,
            )
            for i in range(3)
        ]
        assert topology_for_pools(grouped).zones == 1


class TestEventValidation:
    def test_windows(self):
        with pytest.raises(ValueError):
            ZoneOutage(zone=0, at_s=-1.0, duration_s=10.0)
        with pytest.raises(ValueError):
            RackOutage(rack=0, at_s=0.0, duration_s=0.0)
        with pytest.raises(ValueError):
            ZoneOutage(zone=0, at_s=0.0, duration_s=5.0, stagger_s=5.0)

    def test_partition_scope(self):
        with pytest.raises(ValueError):
            NetworkPartition(
                scope="host", index=0, at_s=0.0, duration_s=1.0
            )

    def test_degraded_link_ranges(self):
        with pytest.raises(ValueError):
            DegradedLink(
                scope="zone", index=0, at_s=0.0, duration_s=1.0,
                bandwidth_factor=1.5, comm_fraction=0.5,
            )
        with pytest.raises(ValueError):
            DegradedLink(
                scope="zone", index=0, at_s=0.0, duration_s=1.0,
                bandwidth_factor=0.5, comm_fraction=1.5,
            )


NAN, INF = math.nan, math.inf
WINDOW = {"at_s": 10.0, "duration_s": 60.0}


def _rejects(cls, base, field, values):
    for value in values:
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            cls(**{**base, field: value})


class TestFieldsMustBeFinite:
    """NaN, inf and out-of-bound floats fail naming the field."""

    @pytest.mark.parametrize("field, values", [
        ("at_s", (NAN, INF, -1.0)),
        ("duration_s", (NAN, INF, 0.0)),
        ("stagger_s", (NAN, INF, -1.0, 60.0)),
    ])
    def test_zone_outage(self, field, values):
        _rejects(ZoneOutage, {"zone": 0, **WINDOW}, field, values)

    @pytest.mark.parametrize("field, values", [
        ("at_s", (NAN, INF, -1.0)),
        ("duration_s", (NAN, INF, 0.0)),
        ("stagger_s", (NAN, INF, -1.0, 60.0)),
    ])
    def test_rack_outage(self, field, values):
        _rejects(RackOutage, {"rack": 0, **WINDOW}, field, values)

    @pytest.mark.parametrize("field, values", [
        ("at_s", (NAN, INF, -1.0)),
        ("duration_s", (NAN, INF, 0.0)),
    ])
    def test_network_partition(self, field, values):
        _rejects(
            NetworkPartition, {"scope": "zone", "index": 0, **WINDOW},
            field, values,
        )

    @pytest.mark.parametrize("field, values", [
        ("at_s", (NAN, INF, -1.0)),
        ("duration_s", (NAN, INF, 0.0)),
        ("bandwidth_factor", (NAN, INF, 0.0, 1.0)),
        ("comm_fraction", (NAN, INF, -0.1, 1.5)),
    ])
    def test_degraded_link(self, field, values):
        _rejects(DegradedLink, {
            "scope": "rack", "index": 0, **WINDOW,
            "bandwidth_factor": 0.25, "comm_fraction": 0.3,
        }, field, values)

    @pytest.mark.parametrize("field", [
        "detection_delay_s", "readmission_stagger_s", "promote_stagger_s",
    ])
    def test_orchestration(self, field):
        _rejects(OrchestrationConfig, {}, field, (NAN, INF, -1.0))


class TestCollectiveSlowdown:
    def test_formula(self):
        # 40% of latency is collectives; link at quarter bandwidth:
        # 0.6 + 0.4/0.25 = 2.2x.
        assert collective_slowdown(0.4, 0.25) == pytest.approx(2.2)
        assert collective_slowdown(0.0, 0.25) == 1.0
        assert collective_slowdown(1.0, 0.5) == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            collective_slowdown(-0.1, 0.5)
        with pytest.raises(ValueError):
            collective_slowdown(0.5, 0.0)


class TestCompile:
    def test_unorchestrated_outage_is_thundering_herd(self):
        topo = grid_topology(4, hosts_per_rack=2, racks_per_zone=1)
        event = ZoneOutage(zone=0, at_s=10.0, duration_s=20.0)
        campaign = compile_campaign(topo, [event], seed=0)
        assert campaign.plan is None
        assert len(campaign.faults.crashes) == 2
        # No stagger: all crash at onset, all recover at the same
        # instant (the retry-storm baseline).
        recoveries = {c.recover_s for c in campaign.faults.crashes}
        assert recoveries == {30.0}
        assert campaign.events[0].detected_s is None
        assert campaign.events[0].mttr_s == pytest.approx(20.0)

    def test_jitter_is_deterministic_and_bounded(self):
        topo = grid_topology(8, hosts_per_rack=4, racks_per_zone=1)
        event = ZoneOutage(
            zone=0, at_s=10.0, duration_s=60.0, stagger_s=5.0
        )
        one = compile_campaign(topo, [event], seed=7)
        two = compile_campaign(topo, [event], seed=7)
        other = compile_campaign(topo, [event], seed=8)
        assert one.faults == two.faults
        assert one.faults != other.faults
        for crash in one.faults.crashes:
            assert 10.0 <= crash.at_s < 15.0

    def test_orchestrated_readmission_staggers(self):
        topo = grid_topology(3, hosts_per_rack=3, racks_per_zone=1)
        event = ZoneOutage(zone=0, at_s=10.0, duration_s=20.0)
        orchestration = OrchestrationConfig(
            detection_delay_s=4.0, readmission_stagger_s=5.0
        )
        campaign = compile_campaign(
            topo, [event], seed=0, orchestration=orchestration
        )
        recoveries = sorted(
            c.recover_s for c in campaign.faults.crashes
        )
        assert recoveries == [30.0, 35.0, 40.0]
        compiled = campaign.events[0]
        assert compiled.detected_s == pytest.approx(14.0)
        assert compiled.mttd_s == pytest.approx(4.0)
        assert compiled.restored_s == pytest.approx(40.0)
        kinds = [m.kind for m in campaign.plan.markers]
        assert kinds == [
            "domain_down", "domain_detected", "domain_up"
        ]

    def test_partition_fencing(self):
        topo = grid_topology(2, hosts_per_rack=2, racks_per_zone=1)
        event = NetworkPartition(
            scope="rack", index=0, at_s=100.0, duration_s=30.0
        )
        orchestration = OrchestrationConfig(
            detection_delay_s=10.0, readmission_stagger_s=2.0
        )
        campaign = compile_campaign(
            topo, [event], seed=0, orchestration=orchestration
        )
        # Crash covers only the undetected window; a cordon holds the
        # server out until its staggered rejoin.
        for crash in campaign.faults.crashes:
            assert crash.at_s == 100.0
            assert crash.recover_s == pytest.approx(110.0)
        cordons = [
            a for a in campaign.plan.actions if a.kind == "cordon"
        ]
        uncordons = [
            a for a in campaign.plan.actions if a.kind == "uncordon"
        ]
        assert {a.at_s for a in cordons} == {110.0}
        assert sorted(a.at_s for a in uncordons) == [130.0, 132.0]

    def test_partition_detection_past_end_degrades_gracefully(self):
        topo = grid_topology(2, hosts_per_rack=2, racks_per_zone=1)
        event = NetworkPartition(
            scope="rack", index=0, at_s=100.0, duration_s=5.0
        )
        orchestration = OrchestrationConfig(detection_delay_s=10.0)
        campaign = compile_campaign(
            topo, [event], seed=0, orchestration=orchestration
        )
        # Never detected before it healed: no fence, no markers.
        assert campaign.events[0].detected_s is None
        assert not [
            a for a in campaign.plan.actions if a.kind == "cordon"
        ]

    def test_standby_promotion_outside_failed_domain(self):
        pools = _pools(zones=2, servers=3, standby=1)
        topo = topology_for_pools(pools)
        event = ZoneOutage(zone=0, at_s=10.0, duration_s=30.0)
        orchestration = OrchestrationConfig(
            detection_delay_s=5.0, readmission_stagger_s=0.0,
            promote_stagger_s=2.0, max_promotions=1,
        )
        campaign = compile_campaign(
            topo, [event], pools=pools, seed=0,
            orchestration=orchestration,
        )
        promotions = [
            a for a in campaign.plan.actions
            if a.kind == "uncordon"
        ]
        # Only zone 1's standby (sid 7) qualifies; zone 0's own
        # standby is down with its zone.
        assert [a.server for a in promotions] == [7]
        assert promotions[0].at_s == pytest.approx(15.0)
        demotions = [
            a for a in campaign.plan.actions if a.kind == "cordon"
        ]
        assert [a.server for a in demotions] == [7]
        assert demotions[0].at_s == pytest.approx(40.0)

    def test_degraded_link_compiles_to_stragglers(self):
        topo = grid_topology(4, hosts_per_rack=2, racks_per_zone=2)
        event = DegradedLink(
            scope="rack", index=1, at_s=50.0, duration_s=30.0,
            bandwidth_factor=0.25, comm_fraction=0.4,
        )
        campaign = compile_campaign(topo, [event], seed=0)
        assert not campaign.faults.crashes
        assert len(campaign.faults.stragglers) == 2
        for window in campaign.faults.stragglers:
            assert window.slowdown == pytest.approx(2.2)
            assert window.server in (2, 3)

    def test_pools_must_match_topology(self):
        pools = _pools(zones=2)
        topo = grid_topology(3)
        with pytest.raises(ValueError, match="pools define"):
            compile_campaign(
                topo, [ZoneOutage(zone=0, at_s=0.0, duration_s=1.0)],
                pools=pools,
            )

    def test_empty_domain_rejected(self):
        topo = grid_topology(4)
        with pytest.raises(ValueError, match="no servers"):
            compile_campaign(
                topo,
                [ZoneOutage(zone=9, at_s=0.0, duration_s=1.0)],
            )


class TestDowntime:
    def test_windows_clip_to_makespan(self):
        topo = grid_topology(2, hosts_per_rack=2, racks_per_zone=1)
        event = ZoneOutage(zone=0, at_s=10.0, duration_s=20.0)
        campaign = compile_campaign(topo, [event], seed=0)
        down = domain_downtime(campaign, 15.0)
        assert down["zone:0"] == pytest.approx(10.0)  # 2 x 5s
        full = domain_downtime(campaign, 1000.0)
        assert full["zone:0"] == pytest.approx(40.0)


class TestEngineIntegration:
    def test_plan_markers_only_do_not_change_report(self):
        # A plan with nothing but markers is observational: the
        # report must match the plan-free run bit-for-bit.
        from repro.serving.faults import DomainMarker, RecoveryPlan

        pools = _pools(zones=2, standby=0)
        mix = WorkloadMix(shares={"sd": 1.0}, service_s={"sd": 2.0})
        requests = generate_requests(
            mix, arrival_rate=2.0, duration_s=120.0, seed=3
        )
        plan = RecoveryPlan(markers=(
            DomainMarker(
                at_s=10.0, kind="domain_down", domain="zone:0",
                event="zone_outage",
            ),
        ))
        assert simulate_fleet(requests, pools, plan=plan) == \
            simulate_fleet(requests, pools)

    def test_orchestration_restores_capacity_earlier(self):
        pools = _pools(zones=2, servers=3, standby=2)
        topo = topology_for_pools(pools)
        mix = WorkloadMix(shares={"sd": 1.0}, service_s={"sd": 2.0})
        requests = generate_requests(
            mix, arrival_rate=3.0, duration_s=300.0, seed=5
        )
        event = ZoneOutage(zone=0, at_s=60.0, duration_s=120.0)
        plain = compile_campaign(topo, [event], pools=pools, seed=0)
        orchestrated = compile_campaign(
            topo, [event], pools=pools, seed=0,
            orchestration=OrchestrationConfig(
                detection_delay_s=5.0, readmission_stagger_s=3.0,
                promote_stagger_s=0.0,
            ),
        )
        base = simulate_fleet(
            requests, pools, faults=plain.faults
        )
        managed = simulate_fleet(
            requests, pools, faults=orchestrated.faults,
            plan=orchestrated.plan,
        )
        # Standby promotion adds capacity during the outage, so the
        # orchestrated arm completes at least as much work.
        assert len(managed.completed) >= len(base.completed)
        latency = sorted(
            r.latency_s for r in managed.completed
        )
        base_latency = sorted(
            r.latency_s for r in base.completed
        )
        assert latency[len(latency) // 2] <= \
            base_latency[len(base_latency) // 2]

    def test_compiled_event_accessors(self):
        event = CompiledEvent(
            kind="zone_outage", label="zone:0", at_s=10.0,
            detected_s=14.0, restored_s=40.0, servers=(0, 1),
        )
        assert event.mttd_s == pytest.approx(4.0)
        assert event.mttr_s == pytest.approx(30.0)
