"""Resilience-layer tests: each mechanism in isolation, then together.

Every scenario is a tiny single-pool fleet, so each assertion can be
checked by hand against the event timeline.  The conservation law
``offered == completed + failed + shed`` is asserted everywhere — a
protection mechanism that loses requests is worse than none.
"""

import pytest

from repro.serving.faults import (
    Crash,
    FaultSchedule,
    RetryPolicy,
    Straggler,
)
from repro.serving.fleet import (
    PoolSpec,
    affine_batch_latency,
    simulate_fleet,
)
from repro.serving.resilience import (
    RESILIENCE_OFF,
    AdmissionConfig,
    BrownoutConfig,
    CircuitBreakerConfig,
    DegradedRung,
    HedgeConfig,
    ResilienceConfig,
)
from repro.serving.slo import slo_report
from repro.serving.workload import Request


def burst(count, spacing, service=1.0, model="sd", start=0.0):
    return [
        Request(
            request_id=index,
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
            model: affine_batch_latency(model_service)
            for model, model_service in (
                models.items() if isinstance(models, dict)
                else {model: service for model in models}.items()
            )
        },
        **kwargs,
    )


def conserve(report):
    assert report.offered == (
        len(report.completed) + len(report.failed) + len(report.shed)
    )


class TestConfigValidation:
    def test_admission(self):
        nan, inf = float("nan"), float("inf")
        with pytest.raises(ValueError):
            AdmissionConfig(max_queue_depth=-1)
        for field, values in (
            ("wait_budget_s",
             (0.0, nan, inf, {"sd": -1.0}, {"sd": nan})),
            ("rate_per_s", (0.0, nan, inf)),
            ("burst", (0.5, nan, inf)),
        ):
            for value in values:
                with pytest.raises(ValueError, match=field):
                    AdmissionConfig(**{"rate_per_s": 1.0, field: value})

    def test_breaker(self):
        nan, inf = float("nan"), float("inf")
        with pytest.raises(ValueError):
            CircuitBreakerConfig(failure_threshold=0)
        for field, values in (
            ("window_s", (0.0, nan, inf)),
            ("cooldown_s", (0.0, nan, inf)),
            ("slow_factor", (1.0, nan, inf)),
        ):
            for value in values:
                with pytest.raises(ValueError, match=field):
                    CircuitBreakerConfig(**{field: value})

    def test_hedge(self):
        with pytest.raises(ValueError):
            HedgeConfig()  # neither delay nor quantile
        with pytest.raises(ValueError):
            HedgeConfig(delay_s=1.0, quantile=95.0)  # both
        nan, inf = float("nan"), float("inf")
        for field, values in (
            ("delay_s", (0.0, nan, inf)),
            ("quantile", (0.0, nan, inf)),
        ):
            for value in values:
                with pytest.raises(ValueError, match=field):
                    HedgeConfig(**{field: value})

    def test_brownout(self):
        rung = DegradedRung(
            label="r1",
            latency_fns={"sd": affine_batch_latency(0.5)},
            quality=0.8,
        )
        with pytest.raises(ValueError):
            BrownoutConfig(rungs=())
        with pytest.raises(ValueError):
            BrownoutConfig(
                rungs=(rung,), step_down_backlog=1.0,
                step_up_backlog=2.0,
            )
        nan, inf = float("nan"), float("inf")
        for field, values in (
            ("step_up_backlog", (-1.0, nan, inf)),
            ("step_down_backlog", (nan, inf)),
            ("check_interval_s", (0.0, nan, inf)),
            ("dwell_s", (-1.0, nan, inf)),
        ):
            for value in values:
                with pytest.raises(ValueError, match=field):
                    BrownoutConfig(**{"rungs": (rung,), field: value})
        with pytest.raises(ValueError):
            DegradedRung(label="r", latency_fns={}, quality=0.5)
        with pytest.raises(ValueError):
            DegradedRung(
                label="r",
                latency_fns={"sd": affine_batch_latency(1.0)},
                quality=1.0,
            )
        worse = DegradedRung(
            label="r2",
            latency_fns={"sd": affine_batch_latency(0.2)},
            quality=0.9,
        )
        with pytest.raises(ValueError):
            # Qualities must decrease down the ladder.
            BrownoutConfig(rungs=(rung, worse))

    def test_enabled_flag(self):
        assert not RESILIENCE_OFF.enabled
        assert ResilienceConfig(
            admission=AdmissionConfig(max_queue_depth=1)
        ).enabled


class TestOffIsIdentical:
    def test_default_equals_explicit_off(self):
        requests = burst(25, 0.2)
        faults = FaultSchedule(
            crashes=(Crash(server=0, at_s=1.0, downtime_s=5.0),)
        )
        retry = RetryPolicy(max_retries=2, backoff_s=0.5)
        plain = simulate_fleet(
            requests, [pool()], retry=retry, faults=faults
        )
        off = simulate_fleet(
            requests, [pool()], retry=retry, faults=faults,
            resilience=RESILIENCE_OFF,
        )
        assert plain == off
        assert plain.shed == ()
        assert plain.resilience.rung_completions == (
            len(plain.completed),
        )

    def test_resilient_run_is_deterministic(self):
        config = ResilienceConfig(
            admission=AdmissionConfig(max_queue_depth=4),
            breaker=CircuitBreakerConfig(
                failure_threshold=2, window_s=50.0, cooldown_s=5.0
            ),
            hedge=HedgeConfig(delay_s=2.0),
            brownout=BrownoutConfig(
                rungs=(
                    DegradedRung(
                        label="fast",
                        latency_fns={"sd": affine_batch_latency(0.5)},
                        quality=0.8,
                    ),
                ),
                step_down_backlog=3.0,
                step_up_backlog=0.5,
                check_interval_s=1.0,
                dwell_s=0.0,
            ),
        )
        requests = burst(40, 0.1)
        faults = FaultSchedule(
            crashes=(Crash(server=0, at_s=0.7, downtime_s=2.0),)
        )
        retry = RetryPolicy(max_retries=1, backoff_s=0.3)
        first = simulate_fleet(
            requests, [pool()], retry=retry, faults=faults,
            resilience=config,
        )
        second = simulate_fleet(
            requests, [pool()], retry=retry, faults=faults,
            resilience=config,
        )
        assert first == second
        conserve(first)


class TestAdmissionControl:
    def test_queue_depth_shedding(self):
        config = ResilienceConfig(
            admission=AdmissionConfig(max_queue_depth=2)
        )
        report = simulate_fleet(
            burst(12, 0.05),
            [pool(servers=1, max_batch=1)],
            resilience=config,
        )
        conserve(report)
        assert report.shed
        assert {record.reason for record in report.shed} == {
            "shed-depth"
        }
        assert all(record.pool == "p0" for record in report.shed)
        # The queue never held more than the cap.
        assert len(report.completed) + len(report.shed) == 12
        assert report.resilience.shed == len(report.shed)
        assert report.pool_stats("p0").shed == len(report.shed)

    def test_wait_budget_shedding(self):
        config = ResilienceConfig(
            admission=AdmissionConfig(wait_budget_s=2.0)
        )
        report = simulate_fleet(
            burst(12, 0.05),
            [pool(servers=1, max_batch=1)],
            resilience=config,
        )
        conserve(report)
        assert report.shed
        assert {record.reason for record in report.shed} == {"shed-wait"}

    def test_wait_budget_is_per_model(self):
        # Only "sd" has a budget; "muse" rides the same deep queue
        # unshed.
        requests = burst(8, 0.05, model="sd") + burst(
            8, 0.05, model="muse", start=0.01
        )
        requests.sort(key=lambda r: r.arrival_s)
        config = ResilienceConfig(
            admission=AdmissionConfig(wait_budget_s={"sd": 1.0})
        )
        report = simulate_fleet(
            requests,
            [pool(servers=1, max_batch=1, models=("sd", "muse"))],
            resilience=config,
        )
        conserve(report)
        assert report.shed
        assert all(
            record.request.model == "sd" for record in report.shed
        )

    def test_token_bucket_rate_limit(self):
        config = ResilienceConfig(
            admission=AdmissionConfig(rate_per_s=2.0, burst=1.0)
        )
        # 20 arrivals in 2 s against a 2/s bucket: most are shed at
        # the front door, before routing (pool is empty).
        report = simulate_fleet(
            burst(20, 0.1), [pool(servers=4)], resilience=config
        )
        conserve(report)
        assert len(report.shed) >= 10
        assert {record.reason for record in report.shed} == {"shed-rate"}
        assert all(record.pool == "" for record in report.shed)

    def test_shedding_improves_tail_latency(self):
        requests = burst(40, 0.05)
        unprotected = simulate_fleet(
            requests, [pool(servers=1, max_batch=1)]
        )
        protected = simulate_fleet(
            requests,
            [pool(servers=1, max_batch=1)],
            resilience=ResilienceConfig(
                admission=AdmissionConfig(max_queue_depth=2)
            ),
        )
        slowest_unprotected = max(
            record.latency_s for record in unprotected.completed
        )
        slowest_protected = max(
            record.latency_s for record in protected.completed
        )
        assert slowest_protected < slowest_unprotected

    def test_shed_counts_against_goodput(self):
        config = ResilienceConfig(
            admission=AdmissionConfig(max_queue_depth=1)
        )
        report = simulate_fleet(
            burst(10, 0.05),
            [pool(servers=1, max_batch=1)],
            resilience=config,
        )
        slo = slo_report(report, 100.0)
        entry = slo.model("sd")
        assert entry.shed == len(report.shed) > 0
        assert entry.offered == 10
        assert slo.goodput < 1.0
        assert slo.shed == entry.shed


class TestCircuitBreaker:
    def test_repeated_crashes_open_the_breaker(self):
        faults = FaultSchedule(
            crashes=(
                Crash(server=0, at_s=1.0, downtime_s=1.0),
                Crash(server=0, at_s=3.0, downtime_s=1.0),
            )
        )
        config = ResilienceConfig(
            breaker=CircuitBreakerConfig(
                failure_threshold=2, window_s=60.0, cooldown_s=20.0,
                slow_factor=None,
            )
        )
        report = simulate_fleet(
            burst(60, 0.4),
            [pool(servers=2)],
            retry=RetryPolicy(max_retries=2, backoff_s=0.2),
            faults=faults,
            resilience=config,
        )
        conserve(report)
        assert report.resilience.breaker_opens == 1
        assert report.resilience.breaker_open_s > 0.0
        # While open (roughly t in [3, 23]) server 0 takes no batches
        # even though it recovered at t=4.
        for record in report.completed:
            if record.server == 0:
                assert not 4.0 <= record.start_s < 23.0

    def test_half_open_probe_recovers(self):
        faults = FaultSchedule(
            crashes=(
                Crash(server=0, at_s=1.0, downtime_s=1.0),
                Crash(server=0, at_s=3.0, downtime_s=1.0),
            )
        )
        config = ResilienceConfig(
            breaker=CircuitBreakerConfig(
                failure_threshold=2, window_s=60.0, cooldown_s=5.0,
                slow_factor=None,
            )
        )
        report = simulate_fleet(
            burst(80, 0.4),
            [pool(servers=2)],
            retry=RetryPolicy(max_retries=2, backoff_s=0.2),
            faults=faults,
            resilience=config,
        )
        conserve(report)
        # After the cooldown the probe succeeds and the server serves
        # again.
        late_on_zero = [
            record for record in report.completed
            if record.server == 0 and record.start_s > 8.0
        ]
        assert late_on_zero
        assert report.resilience.breaker_opens == 1

    def test_straggler_hits_count_as_failures(self):
        faults = FaultSchedule(
            stragglers=(
                Straggler(
                    server=0, at_s=0.0, duration_s=200.0, slowdown=5.0
                ),
            )
        )
        config = ResilienceConfig(
            breaker=CircuitBreakerConfig(
                failure_threshold=2, window_s=100.0, cooldown_s=50.0,
                slow_factor=2.0,
            )
        )
        protected = simulate_fleet(
            burst(50, 0.6),
            [pool(servers=2)],
            faults=faults,
            resilience=config,
        )
        unprotected = simulate_fleet(
            burst(50, 0.6), [pool(servers=2)], faults=faults
        )
        conserve(protected)
        assert protected.resilience.breaker_opens >= 1
        # Quarantining the straggler cuts total straggler-inflated
        # service time.
        slow_batches = lambda report: sum(  # noqa: E731
            1 for record in report.completed
            if record.server == 0 and record.service_s > 2.0
        )
        assert slow_batches(protected) < slow_batches(unprotected)


class TestHedging:
    def test_hedge_beats_straggler(self):
        faults = FaultSchedule(
            stragglers=(
                Straggler(
                    server=0, at_s=0.0, duration_s=100.0, slowdown=10.0
                ),
            )
        )
        config = ResilienceConfig(hedge=HedgeConfig(delay_s=2.0))
        report = simulate_fleet(
            burst(10, 2.0),
            [pool(servers=2)],
            faults=faults,
            resilience=config,
        )
        conserve(report)
        stats = report.resilience
        assert stats.hedges_launched >= 1
        assert stats.hedge_wins >= 1
        assert stats.hedge_wasted_s > 0.0
        first = next(
            record for record in report.completed
            if record.request.request_id == 0
        )
        # The straggled primary would have taken 10 s; the hedge won.
        # The winner is the copy: queued since its launch at 0 + 2 s.
        assert first.hedged
        assert first.latency_s < 10.0
        assert first.queued_since_s == 2.0
        assert first.attempts == 1
        assert first.server == 1
        # Each request completed exactly once.
        ids = [r.request.request_id for r in report.completed]
        assert len(ids) == len(set(ids)) == 10

    def test_hedge_covers_terminal_failure(self):
        # The primary's only attempt dies in a crash after the hedge
        # copy launched; the copy completes and no failure is recorded.
        faults = FaultSchedule(
            crashes=(Crash(server=0, at_s=0.5, downtime_s=10.0),)
        )
        config = ResilienceConfig(hedge=HedgeConfig(delay_s=0.2))
        report = simulate_fleet(
            burst(1, 1.0),
            [pool(servers=2)],
            faults=faults,
            resilience=config,
        )
        conserve(report)
        assert report.failed == ()
        assert len(report.completed) == 1
        (record,) = report.completed
        # The copy launched at 0 + 0.2 s on the surviving server.
        assert record.hedged
        assert record.queued_since_s == 0.2
        assert record.attempts == 1
        assert record.server == 1

    def test_quantile_delay_needs_samples(self):
        config = ResilienceConfig(
            hedge=HedgeConfig(quantile=95.0, min_samples=5)
        )
        # Underloaded, no stragglers: latencies are uniform 1.0 s, so
        # once samples exist the p95 delay is ~1.0 s and hedges fire
        # only for requests still unfinished after that — none are.
        report = simulate_fleet(
            burst(20, 2.0), [pool(servers=2)], resilience=config
        )
        conserve(report)
        assert report.resilience.hedges_launched == 0
        assert len(report.completed) == 20

    def test_hedges_do_not_share_a_batch(self):
        # Force primary and hedge into the same pool with one free
        # server and batching: the two copies must never co-schedule.
        faults = FaultSchedule(
            stragglers=(
                Straggler(
                    server=0, at_s=0.0, duration_s=50.0, slowdown=8.0
                ),
            )
        )
        config = ResilienceConfig(hedge=HedgeConfig(delay_s=0.5))
        report = simulate_fleet(
            burst(6, 0.4),
            [pool(servers=2, max_batch=4)],
            faults=faults,
            resilience=config,
        )
        conserve(report)
        ids = [r.request.request_id for r in report.completed]
        assert len(ids) == len(set(ids)) == 6


def ladder(step1=0.5, step2=0.25):
    return BrownoutConfig(
        rungs=(
            DegradedRung(
                label="steps-30",
                latency_fns={"sd": affine_batch_latency(step1)},
                quality=0.85,
            ),
            DegradedRung(
                label="steps-20",
                latency_fns={"sd": affine_batch_latency(step2)},
                quality=0.65,
            ),
        ),
        step_down_backlog=3.0,
        step_up_backlog=0.5,
        check_interval_s=1.0,
        dwell_s=0.0,
    )


class TestBrownout:
    def test_backlog_steps_down_and_drains(self):
        config = ResilienceConfig(brownout=ladder())
        report = simulate_fleet(
            burst(30, 0.02),
            [pool(servers=1, max_batch=1)],
            resilience=config,
        )
        conserve(report)
        stats = report.resilience
        assert len(stats.rung_completions) == 3
        assert sum(stats.rung_completions) == len(report.completed) == 30
        assert stats.degraded_completions > 0
        # The pool stepped down under backlog and back up as it
        # drained (at least down+down+up+up).
        assert stats.rung_changes >= 4
        degraded = [r for r in report.completed if r.rung > 0]
        assert degraded
        assert all(r.quality < 1.0 for r in degraded)
        assert all(r.service_s < 1.0 for r in degraded)

    def test_quality_debt_in_slo(self):
        config = ResilienceConfig(brownout=ladder())
        report = simulate_fleet(
            burst(30, 0.02),
            [pool(servers=1, max_batch=1)],
            resilience=config,
        )
        slo = slo_report(report, 100.0)
        entry = slo.model("sd")
        assert entry.degraded == report.resilience.degraded_completions
        expected_debt = sum(
            1.0 - record.quality
            for record in report.completed
            if record.rung > 0
        )
        assert entry.quality_debt == pytest.approx(expected_debt)
        assert entry.quality_debt > 0.0
        assert "debt" in slo.render()

    def test_brownout_improves_drain_time(self):
        requests = burst(30, 0.02)
        browned = simulate_fleet(
            requests,
            [pool(servers=1, max_batch=1)],
            resilience=ResilienceConfig(brownout=ladder()),
        )
        plain = simulate_fleet(
            requests, [pool(servers=1, max_batch=1)]
        )
        assert browned.makespan_s < plain.makespan_s

    def test_unladdered_model_serves_at_nominal(self):
        # The ladder only re-prices "sd"; "muse" keeps nominal latency
        # and accrues no quality debt even when the pool is degraded.
        requests = burst(15, 0.02, model="sd") + burst(
            15, 0.02, model="muse", start=0.01
        )
        requests.sort(key=lambda r: r.arrival_s)
        config = ResilienceConfig(brownout=ladder())
        report = simulate_fleet(
            requests,
            [pool(servers=1, max_batch=1, models=("sd", "muse"))],
            resilience=config,
        )
        conserve(report)
        muse = [
            record for record in report.completed
            if record.request.model == "muse"
        ]
        assert all(record.rung == 0 for record in muse)
        assert all(record.quality == 1.0 for record in muse)
        slo = slo_report(report, 100.0)
        assert slo.model("muse").quality_debt == 0.0


class TestAllTogether:
    def test_all_mechanisms_compose(self):
        faults = FaultSchedule(
            crashes=(
                Crash(server=0, at_s=2.0, downtime_s=2.0),
                Crash(server=0, at_s=6.0, downtime_s=2.0),
            ),
            stragglers=(
                Straggler(
                    server=1, at_s=0.0, duration_s=30.0, slowdown=6.0
                ),
            ),
        )
        config = ResilienceConfig(
            admission=AdmissionConfig(max_queue_depth=12),
            breaker=CircuitBreakerConfig(
                failure_threshold=2, window_s=30.0, cooldown_s=10.0,
                slow_factor=2.0,
            ),
            hedge=HedgeConfig(delay_s=3.0),
            brownout=ladder(),
        )
        report = simulate_fleet(
            burst(60, 0.15),
            [pool(servers=3)],
            retry=RetryPolicy(
                max_retries=2, backoff_s=0.2, multiplier=2.0,
                jitter=0.5, max_backoff_s=5.0,
            ),
            faults=faults,
            resilience=config,
        )
        conserve(report)
        stats = report.resilience
        assert sum(stats.rung_completions) == len(report.completed)
        slo = slo_report(report, 30.0)
        assert slo.shed == len(report.shed)
        assert slo.degraded == stats.degraded_completions
