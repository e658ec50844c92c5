"""Fault-model tests: event validation and schedule generation."""

import pytest

from repro.serving.faults import (
    FAULT_FREE,
    NO_RETRIES,
    Crash,
    FaultSchedule,
    RetryPolicy,
    Straggler,
    generate_faults,
)


class TestEvents:
    def test_crash_recover_time(self):
        crash = Crash(server=0, at_s=10.0, downtime_s=5.0)
        assert crash.recover_s == pytest.approx(15.0)

    def test_crash_validation(self):
        nan, inf = float("nan"), float("inf")
        for field, values in (
            ("at_s", (-1.0, nan, inf)),
            ("downtime_s", (0.0, nan, inf)),
        ):
            for value in values:
                with pytest.raises(ValueError, match=field):
                    Crash(**{"server": 0, "at_s": 1.0, "downtime_s": 5.0,
                             field: value})

    def test_straggler_window(self):
        event = Straggler(
            server=1, at_s=3.0, duration_s=4.0, slowdown=2.0
        )
        assert event.until_s == pytest.approx(7.0)

    def test_straggler_validation(self):
        nan, inf = float("nan"), float("inf")
        for field, values in (
            ("at_s", (-1.0, nan, inf)),
            ("duration_s", (0.0, nan, inf)),
            ("slowdown", (1.0, nan, inf)),
        ):
            for value in values:
                with pytest.raises(ValueError, match=field):
                    Straggler(**{"server": 0, "at_s": 0.0,
                                 "duration_s": 1.0, "slowdown": 2.0,
                                 field: value})


class TestRetryPolicy:
    def test_max_attempts(self):
        assert RetryPolicy(max_retries=2).max_attempts == 3
        assert NO_RETRIES.max_attempts == 1

    def test_validation(self):
        nan, inf = float("nan"), float("inf")
        for field, values in (
            ("max_retries", (-1,)),
            ("backoff_s", (-1.0, nan, inf)),
            ("timeout_s", (0.0, nan, inf)),
            ("multiplier", (0.5, nan, inf)),
            ("max_backoff_s", (0.0, nan, inf)),
            ("jitter", (1.5, nan, inf)),
        ):
            for value in values:
                with pytest.raises(ValueError, match=field):
                    RetryPolicy(**{field: value})
        with pytest.raises(ValueError, match="backoff_s"):
            RetryPolicy(backoff_s=nan, timeout_s=2.0)


class TestBackoff:
    def test_defaults_are_bit_exact_fixed_backoff(self):
        # Golden traces recorded before exponential backoff existed
        # must not move: at the defaults every failure backs off by
        # exactly backoff_s.
        policy = RetryPolicy(backoff_s=0.7)
        for failures in (1, 2, 5):
            assert policy.backoff_for(failures, request_id=9) == 0.7

    def test_exponential_growth_and_cap(self):
        policy = RetryPolicy(
            max_retries=6, backoff_s=1.0, multiplier=2.0,
            max_backoff_s=5.0,
        )
        delays = [
            policy.backoff_for(n, request_id=0) for n in range(1, 6)
        ]
        assert delays == [1.0, 2.0, 4.0, 5.0, 5.0]

    def test_jitter_is_deterministic_per_request(self):
        policy = RetryPolicy(backoff_s=1.0, multiplier=2.0, jitter=1.0)
        first = policy.backoff_for(3, request_id=42)
        again = policy.backoff_for(3, request_id=42)
        assert first == again
        other = policy.backoff_for(3, request_id=43)
        assert other != first  # distinct streams per request

    def test_jitter_stays_within_bounds(self):
        policy = RetryPolicy(
            backoff_s=1.0, multiplier=2.0, jitter=1.0, max_backoff_s=8.0,
        )
        for request_id in range(50):
            for failures in range(1, 5):
                delay = policy.backoff_for(failures, request_id)
                assert 1.0 <= delay <= 8.0

    def test_jitter_blend(self):
        # jitter=0.5 lands halfway between the pure schedule and the
        # pure-jitter draw for the same request.
        pure = RetryPolicy(backoff_s=1.0, multiplier=2.0)
        noisy = RetryPolicy(backoff_s=1.0, multiplier=2.0, jitter=1.0)
        blend = RetryPolicy(backoff_s=1.0, multiplier=2.0, jitter=0.5)
        expected = 0.5 * pure.backoff_for(2, 7) + 0.5 * noisy.backoff_for(2, 7)
        assert blend.backoff_for(2, 7) == pytest.approx(expected)

    def test_failures_validated(self):
        with pytest.raises(ValueError):
            RetryPolicy().backoff_for(0, request_id=1)

    def test_huge_failure_counts_never_overflow(self):
        # 2.0 ** 10_000 overflows a float; the exponent clamp must
        # keep backoff_for total and finite however deep the retry
        # loop went (chaos campaigns produce very long failure runs).
        policy = RetryPolicy(
            max_retries=5, backoff_s=1.0, multiplier=2.0,
            max_backoff_s=30.0, jitter=0.5,
        )
        for failures in (100, 10_000, 1_000_000):
            value = policy.backoff_for(failures, request_id=9)
            assert value <= 30.0
            assert value == value  # not NaN

    def test_clamp_is_bit_exact_below_threshold(self):
        # The clamp only rewrites exponents past 64 doublings; every
        # backoff the golden traces can observe is untouched.
        pure = RetryPolicy(
            max_retries=5, backoff_s=0.5, multiplier=2.0,
            max_backoff_s=1e12, jitter=0.0,
        )
        for failures in range(1, 40):
            expected = min(1e12, 0.5 * 2.0 ** (failures - 1))
            assert pure.backoff_for(failures, request_id=3) == expected


class TestSchedule:
    def test_fault_free_is_empty(self):
        assert FAULT_FREE.is_empty
        assert not FaultSchedule(
            crashes=(Crash(server=0, at_s=1.0, downtime_s=1.0),)
        ).is_empty

    def test_events_must_be_ordered(self):
        with pytest.raises(ValueError):
            FaultSchedule(
                crashes=(
                    Crash(server=0, at_s=5.0, downtime_s=1.0),
                    Crash(server=1, at_s=1.0, downtime_s=1.0),
                )
            )

    def test_for_server_filters(self):
        schedule = FaultSchedule(
            crashes=(
                Crash(server=0, at_s=1.0, downtime_s=1.0),
                Crash(server=1, at_s=2.0, downtime_s=1.0),
            ),
            stragglers=(
                Straggler(
                    server=1, at_s=0.5, duration_s=1.0, slowdown=2.0
                ),
            ),
        )
        sub = schedule.for_server(1)
        assert len(sub.crashes) == 1 and sub.crashes[0].server == 1
        assert len(sub.stragglers) == 1

    def test_for_server_on_empty_schedule_is_allocation_free(self):
        # The chaos-off fast path: an empty schedule returns itself
        # instead of constructing a fresh FaultSchedule per server,
        # so fault scanning costs nothing when no faults exist.
        assert FAULT_FREE.for_server(3) is FAULT_FREE
        empty = FaultSchedule()
        assert empty.for_server(0) is empty


class TestGeneration:
    def test_zero_rates_give_empty_schedule(self):
        schedule = generate_faults(servers=4, duration_s=100.0, seed=0)
        assert schedule.is_empty

    def test_rates_scale_event_counts(self):
        sparse = generate_faults(
            servers=8, duration_s=3600.0, seed=1,
            crash_rate_per_hour=0.5,
        )
        dense = generate_faults(
            servers=8, duration_s=3600.0, seed=1,
            crash_rate_per_hour=8.0,
        )
        assert len(dense.crashes) > len(sparse.crashes)

    def test_events_within_horizon_and_ordered(self):
        schedule = generate_faults(
            servers=4, duration_s=500.0, seed=2,
            crash_rate_per_hour=30.0, straggler_rate_per_hour=30.0,
        )
        assert all(0 <= c.at_s < 500.0 for c in schedule.crashes)
        assert all(0 <= s.at_s < 500.0 for s in schedule.stragglers)
        crash_times = [c.at_s for c in schedule.crashes]
        assert crash_times == sorted(crash_times)

    def test_adding_stragglers_keeps_crash_times(self):
        # The documented draw-order contract: the straggler process is
        # drawn after the crash process per server, so enabling it must
        # not perturb crash times.
        crashes_only = generate_faults(
            servers=4, duration_s=1000.0, seed=3,
            crash_rate_per_hour=10.0,
        )
        both = generate_faults(
            servers=4, duration_s=1000.0, seed=3,
            crash_rate_per_hour=10.0, straggler_rate_per_hour=10.0,
        )
        assert crashes_only.crashes == both.crashes

    def test_crash_intervals_never_overlap_per_server(self):
        # Regression for a clock-drift bug: the generator advanced its
        # clock by a *fresh* downtime draw instead of the clamped value
        # stored on the Crash, so with small mean downtimes (where the
        # 1 s clamp often binds) consecutive crashes on one server
        # could overlap the previous recovery window.
        schedule = generate_faults(
            servers=6, duration_s=3600.0, seed=7,
            crash_rate_per_hour=120.0, mean_downtime_s=0.2,
        )
        assert schedule.crashes  # the scenario actually exercises it
        for server in range(6):
            crashes = schedule.for_server(server).crashes
            for earlier, later in zip(crashes, crashes[1:]):
                assert later.at_s >= earlier.recover_s

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_faults(servers=0, duration_s=10.0)
        with pytest.raises(ValueError):
            generate_faults(
                servers=1, duration_s=10.0, crash_rate_per_hour=-1.0
            )
        with pytest.raises(ValueError):
            generate_faults(servers=1, duration_s=10.0, slowdown=1.0)

    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), float("-inf")]
    )
    @pytest.mark.parametrize(
        "field",
        [
            "duration_s", "crash_rate_per_hour", "straggler_rate_per_hour",
            "mean_downtime_s", "mean_straggler_s", "slowdown",
        ],
    )
    def test_non_finite_fields_rejected(self, field, value):
        # Both rates positive: a horizon check that let NaN through
        # would never end the arrival loops.
        kwargs = dict(
            servers=2, duration_s=60.0, crash_rate_per_hour=30.0,
            straggler_rate_per_hour=30.0,
        )
        kwargs[field] = value
        with pytest.raises(ValueError, match=field):
            generate_faults(**kwargs)

    @pytest.mark.parametrize("servers", [0, -1, 2.0, 1.5, "2", None])
    def test_servers_must_be_a_positive_int(self, servers):
        with pytest.raises(ValueError, match="servers"):
            generate_faults(servers=servers, duration_s=10.0)
