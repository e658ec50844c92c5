"""Unit tests for the fleet engine's public surface.

The engine's exact output is pinned by the recorded corpus
(``tests/serving/test_fleet_corpus.py``); this file covers the pieces
around the hot loop: the :class:`RequestBatch` container and its
validation, the batched workload generator's determinism, fail-fast
input checks at the engine boundary, the :class:`FleetReport`
accessors and lazy records, and the shared empty-sample helpers
(``nearest_rank_index`` / ``fmt_missing``).
"""

import dataclasses
import math

import numpy as np
import pytest

from repro.serving.fleet import (
    PoolSpec,
    affine_batch_latency,
    simulate_fleet,
)
from repro.serving.slo import fmt_missing, nearest_rank_index, percentile
from repro.serving.workload import (
    Request,
    RequestBatch,
    WorkloadMix,
    generate_requests,
    generate_requests_batch,
)

MIX = WorkloadMix(
    shares={"sd": 0.6, "video": 0.4},
    service_s={"sd": 2.0, "video": 6.0},
)


def _pool(**kwargs):
    base = dict(
        name="pool0",
        machine="dgx-a100-80g",
        servers=2,
        latency_fns={
            "sd": affine_batch_latency(2.0, marginal_fraction=0.6),
            "video": affine_batch_latency(6.0, marginal_fraction=0.6),
        },
        max_batch=4,
    )
    base.update(kwargs)
    return PoolSpec(**base)


class TestRequestBatch:
    def test_round_trip_preserves_requests(self):
        requests = generate_requests(
            MIX, arrival_rate=3.0, duration_s=30.0, seed=7
        )
        batch = RequestBatch.from_requests(requests)
        assert len(batch) == len(requests)
        assert batch.to_requests() == requests

    def test_model_table_is_sorted_and_indexed(self):
        requests = [
            Request(request_id=0, model="video", arrival_s=0.0,
                    service_s=6.0),
            Request(request_id=1, model="sd", arrival_s=1.0,
                    service_s=2.0),
        ]
        batch = RequestBatch.from_requests(requests)
        assert batch.models == ("sd", "video")
        assert batch.models[batch.model_ids[0]] == "video"
        assert batch.models[batch.model_ids[1]] == "sd"

    def test_empty_batch_allowed(self):
        batch = RequestBatch.from_requests([])
        assert len(batch) == 0
        assert batch.to_requests() == []

    def test_misaligned_columns_rejected(self):
        with pytest.raises(ValueError, match="aligned"):
            RequestBatch(
                models=("sd",),
                arrival_s=np.zeros(3),
                service_s=np.ones(2),
                model_ids=np.zeros(3, dtype=np.int64),
                request_ids=np.arange(3),
            )

    def test_negative_arrival_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            RequestBatch(
                models=("sd",),
                arrival_s=np.array([-1.0]),
                service_s=np.ones(1),
                model_ids=np.zeros(1, dtype=np.int64),
                request_ids=np.arange(1),
            )

    def test_out_of_range_model_id_rejected(self):
        with pytest.raises(ValueError, match="model table"):
            RequestBatch(
                models=("sd",),
                arrival_s=np.zeros(1),
                service_s=np.ones(1),
                model_ids=np.array([1], dtype=np.int64),
                request_ids=np.arange(1),
            )


class TestGenerateRequestsBatch:
    def test_deterministic_per_seed(self):
        a = generate_requests_batch(
            MIX, arrival_rate=40.0, duration_s=30.0, seed=3
        )
        b = generate_requests_batch(
            MIX, arrival_rate=40.0, duration_s=30.0, seed=3
        )
        assert np.array_equal(a.arrival_s, b.arrival_s)
        assert np.array_equal(a.service_s, b.service_s)
        assert np.array_equal(a.model_ids, b.model_ids)
        c = generate_requests_batch(
            MIX, arrival_rate=40.0, duration_s=30.0, seed=4
        )
        assert not np.array_equal(a.arrival_s, c.arrival_s)

    def test_columns_well_formed(self):
        batch = generate_requests_batch(
            MIX, arrival_rate=40.0, duration_s=30.0, seed=3
        )
        assert len(batch) > 0
        assert batch.arrival_s.max() < 30.0
        assert np.all(np.diff(batch.arrival_s) >= 0)
        assert np.all(batch.service_s > 0)
        assert set(np.unique(batch.model_ids)) <= {0, 1}
        assert np.array_equal(batch.request_ids, np.arange(len(batch)))

    def test_rate_roughly_met(self):
        batch = generate_requests_batch(
            MIX, arrival_rate=100.0, duration_s=100.0, seed=0
        )
        assert 9_000 < len(batch) < 11_000

    def test_invalid_parameters_rejected(self):
        # Zero rate is a valid empty scenario: empty columns, but the
        # model table survives.
        empty = generate_requests_batch(
            MIX, arrival_rate=0.0, duration_s=10.0
        )
        assert len(empty) == 0
        assert empty.models == tuple(MIX.shares)
        with pytest.raises(ValueError):
            generate_requests_batch(
                MIX, arrival_rate=-1.0, duration_s=10.0
            )
        with pytest.raises(ValueError):
            generate_requests_batch(
                MIX, arrival_rate=1.0, duration_s=10.0,
                service_jitter=1.0,
            )


class TestSimulateFleetInputs:
    def test_request_batch_and_list_give_equal_records(self):
        batch = generate_requests_batch(
            MIX, arrival_rate=4.0, duration_s=30.0, seed=9
        )
        from_batch = simulate_fleet(batch, [_pool()])
        from_list = simulate_fleet(batch.to_requests(), [_pool()])
        assert from_batch.completed == from_list.completed
        assert from_batch.failed == from_list.failed

    def test_empty_pools_rejected(self):
        with pytest.raises(ValueError):
            simulate_fleet([], [])


class TestFailFast:
    """Non-finite or negative inputs raise a ValueError naming the
    field.  NaN compares False against every bound, so an unchecked NaN
    arrival or latency flows into the event order and yields a
    plausible-looking report."""

    def _requests(self, arrival=5.0):
        return [
            Request(request_id=i, arrival_s=at, model="sd", service_s=2.0)
            for i, at in enumerate([0.0, 1.0, 2.0, 3.0, 4.0, arrival])
        ]

    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    def test_request_arrival_rejected(self, value):
        with pytest.raises(ValueError, match="arrival_s"):
            self._requests(arrival=value)

    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0])
    def test_request_service_rejected(self, value):
        with pytest.raises(ValueError, match="service_s"):
            Request(request_id=0, arrival_s=0.0, model="sd",
                    service_s=value)

    @pytest.mark.parametrize("column", ["arrival_s", "service_s"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_batch_non_finite_rejected(self, column, value):
        columns = dict(
            arrival_s=np.zeros(2), service_s=np.ones(2),
        )
        columns[column][1] = value
        with pytest.raises(ValueError, match=column):
            RequestBatch(
                models=("sd",),
                model_ids=np.zeros(2, dtype=np.int64),
                request_ids=np.arange(2),
                **columns,
            )

    @pytest.mark.parametrize("value", [math.nan, -1.0, math.inf])
    def test_bad_latency_names_pool_model_rung_and_batch(self, value):
        pool = _pool(latency_fns={"sd": lambda batch: value})
        with pytest.raises(ValueError) as excinfo:
            simulate_fleet(self._requests(), [pool])
        message = str(excinfo.value)
        for part in ("'pool0'", "'sd'", "rung 0", "batch size 1"):
            assert part in message


class TestFleetReport:
    @pytest.fixture(scope="class")
    def report(self):
        requests = generate_requests(
            MIX, arrival_rate=4.0, duration_s=60.0, seed=2
        )
        return simulate_fleet(requests, [_pool()])

    def test_counts_are_consistent(self, report):
        assert report.offered == (
            report.completed_count
            + report.failed_count
            + report.shed_count
        )
        assert 0.0 <= report.completion_rate <= 1.0
        assert 0.0 <= report.shed_rate <= 1.0

    def test_latency_columns_aligned(self, report):
        n = report.completed_count
        assert len(report.latency_s) == n
        assert len(report.service_s) == n
        assert len(report.queueing_s) == n
        assert np.all(report.latency_s >= report.service_s)
        assert np.all(report.queueing_s >= 0.0)

    def test_pool_stats_lookup(self, report):
        stats = report.pool_stats("pool0")
        assert stats.completed == report.completed_count
        with pytest.raises(ValueError, match="unknown pool"):
            report.pool_stats("missing")

    def test_records_built_lazily_from_columns(self, report):
        assert "completed" not in vars(report)
        records = report.completed
        assert records is report.completed  # built once
        assert len(records) == report.completed_count
        assert [c.request.model for c in records] == [
            report.models[m]
            for m in report.req_model_ids[report.comp_req]
        ]
        assert [c.latency_s for c in records] == report.latency_s.tolist()
        assert report.retried_count == sum(c.retried for c in records)

    def test_equality_compares_columns(self, report):
        requests = generate_requests(
            MIX, arrival_rate=4.0, duration_s=60.0, seed=2
        )
        again = simulate_fleet(requests, [_pool()])
        assert again == report
        later = report.comp_finish_s.copy()
        later[-1] += 1.0
        assert dataclasses.replace(report, comp_finish_s=later) != report


class TestSharedEmptySampleHelpers:
    """The one-helper-one-test satellite: both SLO paths share
    ``nearest_rank_index`` for percentiles and ``fmt_missing`` for
    the ``None`` -> ``—`` rendering convention."""

    def test_nearest_rank_index_matches_percentile(self):
        values = [5.0, 1.0, 3.0, 2.0, 4.0]
        ordered = sorted(values)
        for p in (1.0, 50.0, 95.0, 99.0, 100.0):
            assert percentile(values, p) == ordered[
                nearest_rank_index(len(values), p)
            ]

    def test_nearest_rank_index_bounds(self):
        assert nearest_rank_index(1, 99.0) == 0
        assert nearest_rank_index(100, 100.0) == 99
        assert nearest_rank_index(100, 1.0) == 0
        with pytest.raises(ValueError):
            nearest_rank_index(5, 0.0)
        with pytest.raises(ValueError):
            nearest_rank_index(5, 101.0)
        with pytest.raises(ValueError):
            nearest_rank_index(0, 50.0)

    def test_percentile_empty_returns_none_but_validates_p(self):
        assert percentile([], 99.0) is None
        with pytest.raises(ValueError):
            percentile([], 0.0)

    def test_fmt_missing_renders_dash_for_none(self):
        assert fmt_missing(None) == "—"
        assert fmt_missing(None, ".3f") == "—"
        assert fmt_missing(1.2345) == "1.23"
        assert fmt_missing(1.2345, ".3f") == "1.234"
