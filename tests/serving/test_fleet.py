"""Fleet simulator tests: pools, routing, faults, retries, scaling."""

import pytest

from repro.serving.faults import (
    Crash,
    FaultSchedule,
    RetryPolicy,
    Straggler,
)
from repro.serving.fleet import (
    AutoscalerConfig,
    PoolSpec,
    affine_batch_latency,
    machine_speed_factor,
    pool_from_replicas,
    simulate_fleet,
)
from repro.serving.sharded import ShardedReplica
from repro.serving.slo import slo_report
from repro.serving.workload import Request


def burst(count, spacing, service=1.0, model="sd", start=0.0, first_id=0):
    return [
        Request(
            request_id=first_id + index,
            arrival_s=start + index * spacing,
            model=model,
            service_s=service,
        )
        for index in range(count)
    ]


def pool(name="p0", servers=2, models=("sd",), service=1.0, **kwargs):
    return PoolSpec(
        name=name,
        machine="dgx-a100-80g",
        servers=servers,
        latency_fns={
            model: affine_batch_latency(service) for model in models
        },
        **kwargs,
    )


class TestAffineBatchLatency:
    def test_single_request_costs_base(self):
        assert affine_batch_latency(2.0)(1) == pytest.approx(2.0)

    def test_marginal_cost_linear(self):
        curve = affine_batch_latency(1.0, marginal_fraction=0.5)
        assert curve(4) == pytest.approx(0.5 + 0.5 * 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            affine_batch_latency(0.0)
        with pytest.raises(ValueError):
            affine_batch_latency(1.0, marginal_fraction=0.0)
        with pytest.raises(ValueError):
            affine_batch_latency(1.0)(0)


class TestMachineSpeedFactor:
    def test_h100_faster_than_a100(self):
        assert machine_speed_factor("dgx-h100") > 1.5

    def test_reference_is_unity(self):
        assert machine_speed_factor("dgx-a100-80g") == pytest.approx(1.0)

    def test_unknown_machine(self):
        with pytest.raises(ValueError):
            machine_speed_factor("tpu-v9000")


class TestPoolSpecValidation:
    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            pool(servers=0)
        with pytest.raises(ValueError):
            pool(max_batch=0)

    def test_rejects_empty_models(self):
        with pytest.raises(ValueError):
            PoolSpec(
                name="p", machine="dgx-a100-80g", servers=1,
                latency_fns={},
            )

    def test_rejects_bad_scaling_bounds(self):
        with pytest.raises(ValueError):
            pool(servers=2, min_servers=3)
        with pytest.raises(ValueError):
            pool(servers=2, max_servers=1)

    def test_rejects_bad_swap_cost(self):
        # ``nan < 0`` is False: a NaN swap cost needs its own check.
        for swap_cost_s in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="swap_cost_s"):
                pool(swap_cost_s=swap_cost_s)

    def test_unknown_machine_rejected_at_simulate(self):
        spec = PoolSpec(
            name="p", machine="not-a-machine", servers=1,
            latency_fns={"sd": affine_batch_latency(1.0)},
        )
        with pytest.raises(ValueError):
            simulate_fleet(burst(1, 1.0), [spec])

    def test_repeated_request_ids_rejected_at_simulate(self):
        # Two bursts numbered from 0: ids 0-3 repeat.  Hedge dedup,
        # retry jitter, spans and the invariants all key on the id.
        requests = burst(10, 1.0) + burst(4, 2.5, start=0.5)
        with pytest.raises(
            ValueError,
            match=r"request_ids must be unique; repeated: \[0, 1, 2, 3\]",
        ):
            simulate_fleet(requests, [pool()])


class TestBasicFleet:
    def test_all_requests_complete(self):
        report = simulate_fleet(burst(20, 0.5), [pool()])
        assert len(report.completed) == 20
        assert report.failed == ()
        assert report.completion_rate == 1.0

    def test_matches_single_pool_intuition(self):
        # Under-loaded: no queueing, latency == service time.
        report = simulate_fleet(burst(5, 10.0), [pool(servers=1)])
        for record in report.completed:
            assert record.latency_s == pytest.approx(1.0)
            assert record.queueing_s == pytest.approx(0.0)

    def test_empty_requests(self):
        report = simulate_fleet([], [pool()])
        assert report.completed == () and report.makespan_s == 0.0
        assert report.completion_rate == 0.0

    def test_requires_pools(self):
        with pytest.raises(ValueError):
            simulate_fleet(burst(1, 1.0), [])

    def test_duplicate_pool_names_rejected(self):
        with pytest.raises(ValueError):
            simulate_fleet(burst(1, 1.0), [pool(), pool()])

    def test_unroutable_model_fails(self):
        requests = burst(3, 1.0, model="unknown")
        report = simulate_fleet(requests, [pool()])
        assert len(report.failed) == 3
        assert all(f.reason == "unroutable" for f in report.failed)

    def test_batching_respects_cap(self):
        requests = burst(33, 0.0)
        report = simulate_fleet(
            requests, [pool(servers=1, max_batch=4)]
        )
        sizes: dict[float, int] = {}
        for record in report.completed:
            sizes[record.finish_s] = sizes.get(record.finish_s, 0) + 1
        assert max(sizes.values()) == 4
        # Greedy no-wait dispatch: the first arrival finds the server
        # free and launches alone before the other 32 simultaneous
        # arrivals queue; full batches then drain the backlog:
        # 1 + ceil(32 / 4) launches.
        assert len(sizes) == 9

    def test_routing_prefers_less_loaded_pool(self):
        fast = pool(name="fast", servers=4)
        slow = pool(name="slow", servers=1)
        report = simulate_fleet(burst(40, 0.2), [fast, slow])
        assert report.pool_stats("fast").completed > (
            report.pool_stats("slow").completed
        )

    def test_model_restricted_routing(self):
        sd_pool = pool(name="sd-only", models=("sd",))
        video_pool = pool(name="video-only", models=("mav",), service=4.0)
        requests = burst(10, 1.0, model="sd") + burst(
            4, 2.5, model="mav", service=4.0, first_id=10
        )
        report = simulate_fleet(requests, [sd_pool, video_pool])
        assert report.pool_stats("sd-only").completed == 10
        assert report.pool_stats("video-only").completed == 4

    def test_pool_stats_lookup(self):
        report = simulate_fleet(burst(4, 1.0), [pool()])
        assert report.pool_stats("p0").machine == "dgx-a100-80g"
        with pytest.raises(ValueError):
            report.pool_stats("nope")


class TestCrashSemantics:
    def test_crash_fails_inflight_without_retries(self):
        # One server, one long request, crash mid-service.
        requests = [
            Request(request_id=0, arrival_s=0.0, model="sd", service_s=10.0)
        ]
        faults = FaultSchedule(
            crashes=(Crash(server=0, at_s=5.0, downtime_s=100.0),)
        )
        report = simulate_fleet(
            requests, [pool(servers=1, service=10.0)], faults=faults
        )
        assert len(report.failed) == 1
        assert report.failed[0].reason == "crash"

    def test_crash_retries_and_completes(self):
        requests = [
            Request(request_id=0, arrival_s=0.0, model="sd", service_s=5.0)
        ]
        faults = FaultSchedule(
            crashes=(Crash(server=0, at_s=2.0, downtime_s=4.0),)
        )
        report = simulate_fleet(
            requests, [pool(servers=1, service=5.0)],
            retry=RetryPolicy(max_retries=2, backoff_s=1.0),
            faults=faults,
        )
        assert len(report.completed) == 1
        record = report.completed[0]
        assert record.attempts == 2
        # Retry enqueued at 3.0, server down until 6.0, service 5.0.
        assert record.queued_since_s == 3.0
        assert not record.hedged
        assert record.finish_s == pytest.approx(11.0)

    def test_crash_degrades_goodput_under_load(self):
        """The serve1 acceptance scenario in miniature: same traffic,
        one crash, measurably worse goodput and violation seconds."""
        requests = burst(120, 0.26)  # ~77% load on 2 servers, batch 1
        spec = pool(servers=2, max_batch=1)
        retry = RetryPolicy(max_retries=2, backoff_s=1.0)
        healthy = simulate_fleet(requests, [spec], retry=retry)
        crashed = simulate_fleet(
            requests, [spec], retry=retry,
            faults=FaultSchedule(
                crashes=(Crash(server=0, at_s=5.0, downtime_s=20.0),)
            ),
        )
        healthy_slo = slo_report(healthy, 3.0)
        crashed_slo = slo_report(crashed, 3.0)
        assert crashed_slo.goodput < healthy_slo.goodput
        assert crashed_slo.violation_s > healthy_slo.violation_s
        assert crashed_slo.availability < 1.0
        assert healthy_slo.availability == pytest.approx(1.0)

    def test_downtime_accounted(self):
        requests = burst(40, 0.5)
        faults = FaultSchedule(
            crashes=(Crash(server=0, at_s=2.0, downtime_s=6.0),)
        )
        report = simulate_fleet(
            requests, [pool(servers=2)],
            retry=RetryPolicy(max_retries=1, backoff_s=0.5),
            faults=faults,
        )
        assert report.pools[0].down_s == pytest.approx(6.0)

    def test_crash_on_idle_server_loses_nothing(self):
        requests = burst(3, 20.0)
        faults = FaultSchedule(
            crashes=(Crash(server=1, at_s=1.0, downtime_s=2.0),)
        )
        report = simulate_fleet(
            requests, [pool(servers=2)], faults=faults
        )
        assert len(report.completed) == 3
        assert report.pools[0].wasted_s == 0.0


class TestStragglerSemantics:
    def test_straggler_slows_batches_in_window(self):
        requests = [
            Request(request_id=0, arrival_s=0.0, model="sd", service_s=1.0)
        ]
        faults = FaultSchedule(
            stragglers=(
                Straggler(
                    server=0, at_s=0.0, duration_s=10.0, slowdown=3.0
                ),
            )
        )
        report = simulate_fleet(
            requests, [pool(servers=1)], faults=faults
        )
        assert report.completed[0].service_s == pytest.approx(3.0)

    def test_batch_after_window_unaffected(self):
        requests = burst(2, 20.0)
        faults = FaultSchedule(
            stragglers=(
                Straggler(
                    server=0, at_s=0.0, duration_s=10.0, slowdown=3.0
                ),
            )
        )
        report = simulate_fleet(
            requests, [pool(servers=1)], faults=faults
        )
        by_id = {
            record.request.request_id: record
            for record in report.completed
        }
        assert by_id[0].service_s == pytest.approx(3.0)
        assert by_id[1].service_s == pytest.approx(1.0)


class TestTimeouts:
    def test_queue_timeout_fails_request(self):
        # One server busy for 10 s; the second request times out at 2 s.
        requests = [
            Request(request_id=0, arrival_s=0.0, model="sd",
                    service_s=10.0),
            Request(request_id=1, arrival_s=0.1, model="sd",
                    service_s=1.0),
        ]
        spec = PoolSpec(
            name="p", machine="dgx-a100-80g", servers=1,
            latency_fns={
                "sd": lambda batch: 10.0 if batch else 10.0
            },
            max_batch=1,
        )
        report = simulate_fleet(
            requests, [spec],
            retry=RetryPolicy(max_retries=0, backoff_s=0.0,
                              timeout_s=2.0),
        )
        assert len(report.completed) == 1
        assert len(report.failed) == 1
        assert report.failed[0].reason == "timeout"
        assert report.failed[0].failed_at_s == pytest.approx(2.1)

    def test_timeout_retry_eventually_served(self):
        requests = [
            Request(request_id=0, arrival_s=0.0, model="sd",
                    service_s=3.0),
            Request(request_id=1, arrival_s=0.1, model="sd",
                    service_s=1.0),
        ]
        report = simulate_fleet(
            requests, [pool(servers=1, service=3.0, max_batch=1)],
            retry=RetryPolicy(max_retries=3, backoff_s=0.5,
                              timeout_s=1.0),
        )
        assert len(report.completed) == 2
        retried = next(
            record for record in report.completed
            if record.request.request_id == 1
        )
        assert retried.attempts > 1


class TestSwapCost:
    def test_model_switch_charges_swap(self):
        requests = [
            Request(request_id=0, arrival_s=0.0, model="a", service_s=1.0),
            Request(request_id=1, arrival_s=0.1, model="b", service_s=1.0),
        ]
        spec = PoolSpec(
            name="p", machine="dgx-a100-80g", servers=1,
            latency_fns={
                "a": affine_batch_latency(1.0),
                "b": affine_batch_latency(1.0),
            },
            max_batch=1,
            swap_cost_s=2.0,
        )
        report = simulate_fleet(requests, [spec])
        by_id = {
            record.request.request_id: record
            for record in report.completed
        }
        assert by_id[0].service_s == pytest.approx(1.0)  # first load free
        assert by_id[1].service_s == pytest.approx(3.0)  # swap charged
        assert report.pools[0].swaps == 1


class TestAutoscaler:
    def test_validation(self):
        with pytest.raises(ValueError):
            AutoscalerConfig(scale_up_backlog=1.0,
                             scale_down_backlog=2.0)
        nan, inf = float("nan"), float("inf")
        for field, values in (
            ("check_interval_s", (0.0, nan, inf)),
            ("startup_s", (-1.0, nan, inf)),
            ("cooldown_s", (-1.0, nan, inf)),
            ("scale_down_backlog", (-1.0, nan, inf)),
            ("scale_up_backlog", (nan, inf)),
        ):
            for value in values:
                with pytest.raises(ValueError, match=field):
                    AutoscalerConfig(**{field: value})

    def test_scales_up_under_backlog(self):
        requests = burst(60, 0.1)
        spec = pool(servers=1, max_batch=1, max_servers=3)
        config = AutoscalerConfig(
            check_interval_s=1.0, scale_up_backlog=3.0,
            scale_down_backlog=0.1, startup_s=0.5, cooldown_s=1.0,
        )
        scaled = simulate_fleet(requests, [spec], autoscaler=config)
        static = simulate_fleet(requests, [spec])
        assert scaled.pool_stats("p0").peak_servers > 1
        assert scaled.makespan_s < static.makespan_s

    def test_never_exceeds_max_servers(self):
        requests = burst(100, 0.02)
        spec = pool(servers=1, max_batch=1, max_servers=2)
        config = AutoscalerConfig(
            check_interval_s=0.5, scale_up_backlog=1.0,
            scale_down_backlog=0.0, startup_s=0.1, cooldown_s=0.0,
        )
        report = simulate_fleet(requests, [spec], autoscaler=config)
        assert report.pool_stats("p0").peak_servers <= 2

    def test_no_scaling_without_headroom(self):
        requests = burst(30, 0.1)
        spec = pool(servers=2, max_batch=1)  # max_servers defaults
        config = AutoscalerConfig(
            check_interval_s=1.0, scale_up_backlog=1.0,
            scale_down_backlog=0.5, startup_s=0.1, cooldown_s=0.0,
        )
        report = simulate_fleet(requests, [spec], autoscaler=config)
        assert report.pool_stats("p0").peak_servers == 2
        assert len(report.completed) == 30


class TestPoolFromReplicas:
    def replica(self, model="sd", machine="dgx-a100-80g", world=2):
        return ShardedReplica(
            model_name=model,
            machine_name=machine,
            world=world,
            strategy=f"tp={world}",
            latency_fn=affine_batch_latency(1.0),
        )

    def test_replicas_serve_as_fleet_servers(self):
        spec = pool_from_replicas(
            "tp2", [self.replica()], servers=2, max_batch=2
        )
        assert spec.machine == "dgx-a100-80g"
        report = simulate_fleet(burst(10, 0.5), [spec])
        assert len(report.completed) == 10
        assert not report.failed

    def test_multi_model_pool(self):
        spec = pool_from_replicas(
            "tp2",
            [self.replica("sd"), self.replica("muse")],
            servers=1,
        )
        assert set(spec.latency_fns) == {"sd", "muse"}

    def test_mixed_machines_rejected(self):
        with pytest.raises(ValueError):
            pool_from_replicas(
                "bad",
                [self.replica(), self.replica(machine="dgx-h100")],
                servers=1,
            )

    def test_duplicate_model_rejected(self):
        with pytest.raises(ValueError):
            pool_from_replicas(
                "bad", [self.replica(), self.replica()], servers=1
            )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            pool_from_replicas("bad", [], servers=1)
