"""Determinism tests: the simulators are pure functions of their seeds.

Every stochastic entry point (workload generation, client-structured
traffic generation, fault-schedule generation, the fleet simulator
itself) must yield byte-identical output for a fixed seed and
different output for a different seed.  The draw-order contracts that
make this hold are documented in ``repro.serving.workload``,
``repro.serving.traffic`` and ``repro.serving.faults``.
"""

import hashlib
import json

from repro.serving.faults import Crash, FaultSchedule, RetryPolicy, generate_faults
from repro.serving.fleet import (
    PoolSpec,
    affine_batch_latency,
    simulate_fleet,
)
from repro.serving.traffic import (
    BurstModel,
    ClientPopulation,
    RateWindow,
    cards_from_mix,
    dumps_trace,
    generate_traffic,
    poissonized,
    save_trace,
    steps_spec,
)
from repro.serving.workload import (
    WorkloadMix,
    bursty_rate,
    diurnal_rate,
    generate_requests,
    generate_requests_pattern,
)

MIX = WorkloadMix(
    shares={"sd": 0.7, "muse": 0.3},
    service_s={"sd": 1.0, "muse": 0.5},
)


def requests_as_json(requests):
    """Canonical byte-level encoding of a request stream."""
    return json.dumps(
        [
            [r.request_id, r.arrival_s, r.model, r.service_s]
            for r in requests
        ],
        sort_keys=True,
    )


class TestWorkloadDeterminism:
    def test_same_seed_identical_stream(self):
        kwargs = dict(arrival_rate=2.0, duration_s=120.0, seed=7)
        first = generate_requests(MIX, **kwargs)
        second = generate_requests(MIX, **kwargs)
        assert requests_as_json(first) == requests_as_json(second)

    def test_different_seed_differs(self):
        first = generate_requests(
            MIX, arrival_rate=2.0, duration_s=120.0, seed=7
        )
        second = generate_requests(
            MIX, arrival_rate=2.0, duration_s=120.0, seed=8
        )
        assert requests_as_json(first) != requests_as_json(second)

    def test_pattern_streams_deterministic(self):
        for rate_fn in (
            diurnal_rate(2.0, period_s=600.0),
            bursty_rate(1.0, burst_rate=4.0, bursts=((60.0, 30.0),)),
        ):
            runs = [
                generate_requests_pattern(
                    MIX,
                    rate_fn,
                    peak_rate=8.0,
                    duration_s=300.0,
                    seed=3,
                )
                for _ in range(2)
            ]
            assert requests_as_json(runs[0]) == requests_as_json(runs[1])


class TestTrafficDeterminism:
    """The traffic generator's draw-order contract, pinned at the byte
    level: a seed fully determines the serialized trace, and every
    representation of one trace (JSONL file, ``Request`` list,
    ``RequestBatch``) describes the identical stream."""

    def population(self):
        return ClientPopulation(
            cards=cards_from_mix(MIX),
            n_clients=30,
            mean_rate_per_client=0.1,
            burst=BurstModel(
                mean_on_s=30.0, mean_off_s=120.0, on_factor=4.0
            ),
            model_loyalty=0.4,
            property_spread=0.5,
        )

    def test_same_seed_byte_identical_trace_file(self, tmp_path):
        paths = []
        for run in range(2):
            trace = generate_traffic(
                self.population(), duration_s=600.0, seed=21
            )
            path = tmp_path / f"run{run}.jsonl"
            save_trace(trace, str(path))
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_different_seed_differs(self):
        first = generate_traffic(
            self.population(), duration_s=600.0, seed=21
        )
        second = generate_traffic(
            self.population(), duration_s=600.0, seed=22
        )
        assert dumps_trace(first) != dumps_trace(second)

    def test_representations_describe_one_stream(self):
        # Cross-representation pin: materializing the trace as Request
        # objects and reading its columnar batch must yield the same
        # (id, arrival, model, service) stream, element for element.
        trace = generate_traffic(
            self.population(), duration_s=600.0, seed=23
        )
        requests = trace.batch.to_requests()
        assert len(requests) == len(trace.batch)
        for i, request in enumerate(requests):
            assert request.request_id == int(
                trace.batch.request_ids[i]
            )
            assert request.arrival_s == float(trace.batch.arrival_s[i])
            assert request.service_s == float(trace.batch.service_s[i])
            assert request.model == trace.models[
                int(trace.batch.model_ids[i])
            ]

    def test_columns_pinned_with_a_rate_window(self):
        # Every column's dtype and bytes, for a population that sets
        # each feature shaping a stream: bursts, a steps property,
        # loyalty, spread and a 3x rate window.  Any change to a draw,
        # a float expression or a dtype of the generator moves it.
        population = ClientPopulation(
            cards=cards_from_mix(MIX, {"sd": (steps_spec(),)}),
            n_clients=50,
            mean_rate_per_client=0.1,
            burst=BurstModel(
                mean_on_s=30.0, mean_off_s=120.0, on_factor=4.0
            ),
            model_loyalty=0.4,
            property_spread=0.5,
            rate_windows=(RateWindow(240.0, 120.0, multiplier=3.0),),
        )
        trace = generate_traffic(population, duration_s=600.0, seed=21)
        digest = hashlib.sha256()
        for column in (
            trace.batch.arrival_s, trace.batch.service_s,
            trace.batch.model_ids, trace.batch.request_ids,
            trace.client_ids, trace.combo_ids,
            trace.client_rates, trace.client_tiers,
        ):
            digest.update(column.dtype.str.encode())
            digest.update(column.tobytes())
        assert len(trace) == 7401
        assert digest.hexdigest() == (
            "b3bf4e0cd8ac15b1583b4ff48af9f895"
            "1f988095435fc16a88bb17aaeba98184"
        )

    def test_poissonized_twin_deterministic(self):
        trace = generate_traffic(
            self.population(), duration_s=600.0, seed=21
        )
        assert dumps_trace(poissonized(trace, seed=2)) == dumps_trace(
            poissonized(trace, seed=2)
        )


class TestFaultDeterminism:
    KWARGS = dict(
        servers=6,
        duration_s=1800.0,
        crash_rate_per_hour=4.0,
        straggler_rate_per_hour=4.0,
    )

    def test_same_seed_identical_schedule(self):
        first = generate_faults(seed=5, **self.KWARGS)
        second = generate_faults(seed=5, **self.KWARGS)
        assert first.crashes == second.crashes
        assert first.stragglers == second.stragglers

    def test_different_seed_differs(self):
        first = generate_faults(seed=5, **self.KWARGS)
        second = generate_faults(seed=6, **self.KWARGS)
        assert first.crashes != second.crashes


class TestFleetDeterminism:
    def run_once(self):
        requests = generate_requests(
            MIX, arrival_rate=3.0, duration_s=200.0, seed=11
        )
        pool = PoolSpec(
            name="p0",
            machine="dgx-a100-80g",
            servers=3,
            latency_fns={
                "sd": affine_batch_latency(1.0),
                "muse": affine_batch_latency(0.5),
            },
            max_batch=4,
        )
        faults = FaultSchedule(
            crashes=(Crash(server=1, at_s=40.0, downtime_s=30.0),)
        )
        return simulate_fleet(
            requests,
            [pool],
            retry=RetryPolicy(max_retries=2, backoff_s=0.5),
            faults=faults,
        )

    def test_repeat_runs_identical(self):
        first = self.run_once()
        second = self.run_once()
        assert first.completed == second.completed
        assert first.failed == second.failed
        assert first.pools == second.pools
        assert first.makespan_s == second.makespan_s
