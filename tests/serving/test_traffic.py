"""Unit tests for the client-structured traffic layer.

Covers the population model (cards, properties, bursts), tier
assignment, trace generation invariants, the versioned JSONL round
trip, the poissonized twin, and the per-tier SLO breakdown — including
every empty-stream edge (zero clients, zero rate, idle tiers) as
first-class outputs rather than errors.
"""

import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from repro.serving.fleet import (
    PoolSpec,
    affine_batch_latency,
    simulate_fleet,
)
from repro.serving.slo import tier_slo_report
from repro.serving.traffic import (
    HEAVY_TIER_FRACTION,
    MEDIUM_TIER_FRACTION,
    TIER_NAMES,
    TRACE_SCHEMA,
    TRACE_VERSION,
    BurstModel,
    ClientPopulation,
    ModelTrafficCard,
    PropertySpec,
    RateWindow,
    assign_tiers,
    cards_from_mix,
    combos_for_card,
    dumps_trace,
    generate_traffic,
    image_size_spec,
    load_trace,
    loads_trace,
    poissonized,
    save_trace,
    steps_spec,
    video_length_spec,
)
from repro.serving.workload import WorkloadMix
from tests.jsonl_helpers import CodecContract

CARDS = (
    ModelTrafficCard(
        name="sd", base_service_s=1.5, share=0.6,
        properties=(steps_spec(),),
    ),
    ModelTrafficCard(name="muse", base_service_s=0.5, share=0.4),
)


def population(**overrides) -> ClientPopulation:
    base = dict(
        cards=CARDS, n_clients=20, mean_rate_per_client=0.05
    )
    base.update(overrides)
    return ClientPopulation(**base)


def pool(servers=4, max_batch=4) -> PoolSpec:
    return PoolSpec(
        name="p0",
        machine="dgx-a100-80g",
        servers=servers,
        latency_fns={
            "sd": affine_batch_latency(1.5),
            "muse": affine_batch_latency(0.5),
        },
        max_batch=max_batch,
    )


class TestPropertySpec:
    def test_factories_scale_from_cheapest(self):
        image = image_size_spec()
        assert image.scales[0] == pytest.approx(1.0)
        assert image.scales[2] == pytest.approx((1024 / 512) ** 2)
        assert steps_spec().scales == pytest.approx((1.0, 1.5, 2.5))
        assert video_length_spec().scales == pytest.approx(
            (1.0, 2.0, 4.0)
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            PropertySpec("x", (1.0,), (0.5,), (1.0, 2.0))
        with pytest.raises(ValueError):
            PropertySpec("x", (1.0, 2.0), (0.5, 0.4), (1.0, 2.0))
        with pytest.raises(ValueError):
            PropertySpec("x", (1.0,), (1.0,), (0.0,))
        with pytest.raises(ValueError):
            PropertySpec("", (1.0,), (1.0,), (1.0,))


def _window(**overrides):
    base = dict(start_s=0.0, duration_s=10.0, multiplier=2.0)
    base.update(overrides)
    return RateWindow(**base)


class TestRateWindow:
    @pytest.mark.parametrize("overrides, message", [
        pytest.param(
            {"start_s": -1.0}, "start_s must be finite and non-negative",
            id="negative-start",
        ),
        pytest.param(
            {"duration_s": 0.0}, "duration_s must be finite and positive",
            id="empty",
        ),
        pytest.param(
            {"duration_s": -5.0}, "duration_s must be finite and positive",
            id="negative-duration",
        ),
        pytest.param(
            {"multiplier": -0.5},
            "multiplier must be finite and non-negative",
            id="negative-multiplier",
        ),
    ])
    def test_rejects_out_of_bound_fields(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            _window(**overrides)


class TestFiniteConfigs:
    """NaN and inf fail naming the field; ``nan < 0`` is False, so a
    bare bound would let them through into a plausible wrong stream."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "make, field",
        [
            pytest.param(
                lambda v: PropertySpec("x", (v, 2.0), (0.5, 0.5), (1.0, 2.0)),
                "values[0]", id="PropertySpec.values",
            ),
            pytest.param(
                lambda v: PropertySpec("x", (1.0,), (v,), (1.0,)),
                "weights[0]", id="PropertySpec.weights",
            ),
            pytest.param(
                lambda v: PropertySpec("x", (1.0, 2.0), (0.5, 0.5), (1.0, v)),
                "scales[1]", id="PropertySpec.scales",
            ),
            pytest.param(
                lambda v: ModelTrafficCard("sd", v, 1.0),
                "base_service_s", id="ModelTrafficCard.base_service_s",
            ),
            pytest.param(
                lambda v: ModelTrafficCard("sd", 1.0, v),
                "share", id="ModelTrafficCard.share",
            ),
            pytest.param(
                lambda v: BurstModel(v, 10.0, 1.5),
                "mean_on_s", id="BurstModel.mean_on_s",
            ),
            pytest.param(
                lambda v: BurstModel(10.0, v, 1.5),
                "mean_off_s", id="BurstModel.mean_off_s",
            ),
            pytest.param(
                lambda v: BurstModel(10.0, 10.0, v),
                "on_factor", id="BurstModel.on_factor",
            ),
            pytest.param(
                lambda v: _window(start_s=v),
                "start_s", id="RateWindow.start_s",
            ),
            pytest.param(
                lambda v: _window(duration_s=v),
                "duration_s", id="RateWindow.duration_s",
            ),
            pytest.param(
                lambda v: _window(multiplier=v),
                "multiplier", id="RateWindow.multiplier",
            ),
        ],
    )
    def test_rejects_non_finite(self, make, field, bad):
        message = re.escape(f"{field} must be finite")
        with pytest.raises(ValueError, match=message):
            make(bad)

    def test_infinite_tail_alpha_names_the_field(self):
        with pytest.raises(ValueError, match="tail_alpha"):
            population(tail_alpha=math.inf)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_duration_must_be_finite(self, bad):
        # An infinite duration would never end a bursty client's
        # segments; a NaN one would never end the arrival loop.
        bursty = population(burst=BurstModel(5.0, 15.0, 3.0))
        with pytest.raises(ValueError, match="duration_s must be finite"):
            generate_traffic(bursty, duration_s=bad)


class TestCombos:
    def test_card_without_properties_has_identity_combo(self):
        (combo,) = combos_for_card(CARDS[1])
        assert combo.props == ()
        assert combo.scale == 1.0
        assert combo.weight == 1.0

    def test_cartesian_product_sorted_cheapest_first(self):
        card = ModelTrafficCard(
            name="sd", base_service_s=1.0, share=1.0,
            properties=(image_size_spec(), steps_spec()),
        )
        combos = combos_for_card(card)
        assert len(combos) == 9
        scales = [combo.scale for combo in combos]
        assert scales == sorted(scales)
        assert sum(c.weight for c in combos) == pytest.approx(1.0)

    def test_props_canonically_sorted_by_name(self):
        card = ModelTrafficCard(
            name="v", base_service_s=1.0, share=1.0,
            properties=(video_length_spec(), image_size_spec()),
        )
        for combo in combos_for_card(card):
            names = [name for name, _ in combo.props]
            assert names == sorted(names)


class TestBurstModel:
    def test_stationary_mean_multiplier_is_unity(self):
        burst = BurstModel(
            mean_on_s=60.0, mean_off_s=540.0, on_factor=6.0
        )
        mean = (
            burst.p_on * burst.on_factor
            + (1.0 - burst.p_on) * burst.off_factor
        )
        assert mean == pytest.approx(1.0)

    def test_on_factor_capped_by_stationary_share(self):
        # p_on = 0.5 allows on_factor up to 2.
        BurstModel(mean_on_s=10.0, mean_off_s=10.0, on_factor=2.0)
        with pytest.raises(ValueError):
            BurstModel(mean_on_s=10.0, mean_off_s=10.0, on_factor=2.5)
        with pytest.raises(ValueError):
            BurstModel(mean_on_s=0.0, mean_off_s=10.0, on_factor=1.5)
        with pytest.raises(ValueError):
            BurstModel(mean_on_s=10.0, mean_off_s=10.0, on_factor=0.5)


class TestPopulation:
    def test_validation(self):
        with pytest.raises(ValueError):
            population(cards=())
        with pytest.raises(ValueError):
            population(cards=(CARDS[0], CARDS[0]))
        bad_shares = (
            ModelTrafficCard("sd", 1.0, 0.6),
            ModelTrafficCard("muse", 1.0, 0.6),
        )
        with pytest.raises(ValueError):
            population(cards=bad_shares)
        with pytest.raises(ValueError):
            population(n_clients=-1)
        with pytest.raises(ValueError):
            population(mean_rate_per_client=-0.1)
        with pytest.raises(ValueError):
            population(tail_alpha=1.0)
        with pytest.raises(ValueError):
            population(model_loyalty=1.5)
        with pytest.raises(ValueError):
            population(service_jitter=1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "field",
        [
            "mean_rate_per_client", "tail_alpha", "model_loyalty",
            "property_spread", "service_jitter",
        ],
    )
    def test_float_fields_must_be_finite(self, field, bad):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            population(**{field: bad})

    def test_mean_service_weights_shares_and_combos(self):
        # sd: 1.5 s * (0.5*1 + 0.4*1.5 + 0.1*2.5) = 1.5 * 1.35
        # muse: 0.5 s.  Population mean: 0.6*2.025 + 0.4*0.5.
        assert population().mean_service_s() == pytest.approx(
            0.6 * 1.5 * 1.35 + 0.4 * 0.5
        )

    def test_cards_from_mix_preserves_order_and_shapes(self):
        mix = WorkloadMix(
            shares={"sd": 0.7, "muse": 0.3},
            service_s={"sd": 2.0, "muse": 0.5},
        )
        cards = cards_from_mix(mix, {"sd": (steps_spec(),)})
        assert tuple(card.name for card in cards) == ("sd", "muse")
        assert cards[0].properties == (steps_spec(),)
        assert cards[1].properties == ()
        assert cards[0].base_service_s == 2.0


class TestTiers:
    def test_rank_cut_sizes(self):
        rates = np.linspace(1.0, 0.1, 100)
        tiers = assign_tiers(rates)
        heavy = int((tiers == TIER_NAMES.index("heavy")).sum())
        medium = int((tiers == TIER_NAMES.index("medium")).sum())
        assert heavy == math.ceil(HEAVY_TIER_FRACTION * 100)
        assert medium == math.ceil(MEDIUM_TIER_FRACTION * 100)
        # Highest-rate client is heavy; lowest is light.
        assert tiers[0] == TIER_NAMES.index("heavy")
        assert tiers[-1] == TIER_NAMES.index("light")

    def test_ties_break_by_client_id(self):
        tiers = assign_tiers(np.ones(10))
        assert tiers[0] == TIER_NAMES.index("heavy")
        assert (
            tiers.tolist().count(TIER_NAMES.index("heavy")) == 1
        )

    def test_empty_population(self):
        assert assign_tiers(np.array([])).tolist() == []


def _rate_over(arrivals: np.ndarray, lo: float, hi: float) -> float:
    """Arrivals per second inside ``[lo, hi)``."""
    return int(((arrivals >= lo) & (arrivals < hi)).sum()) / (hi - lo)


class TestGenerate:
    def test_stream_invariants(self):
        trace = generate_traffic(
            population(n_clients=50, mean_rate_per_client=0.1),
            duration_s=300.0,
            seed=2,
        )
        arrivals = trace.batch.arrival_s
        assert (np.diff(arrivals) >= 0).all()
        assert arrivals.min() >= 0.0 and arrivals.max() <= 300.0
        assert trace.batch.request_ids.tolist() == list(
            range(len(trace))
        )
        assert trace.client_ids.min() >= 0
        assert trace.client_ids.max() < trace.n_clients
        assert (trace.batch.service_s > 0).all()

    def test_service_times_match_combo_scales_within_jitter(self):
        trace = generate_traffic(
            population(service_jitter=0.1), duration_s=600.0, seed=3
        )
        for i in range(len(trace)):
            model_id = int(trace.batch.model_ids[i])
            combo = trace.combos[model_id][int(trace.combo_ids[i])]
            base = CARDS[model_id].base_service_s * combo.scale
            service = float(trace.batch.service_s[i])
            assert base * 0.9 - 1e-9 <= service <= base * 1.1 + 1e-9

    def test_blackout_window_silences_traffic(self):
        pop = population(
            n_clients=30,
            mean_rate_per_client=0.5,
            rate_windows=(RateWindow(100.0, 100.0, multiplier=0.0),),
        )
        trace = generate_traffic(pop, duration_s=300.0, seed=5)
        arrivals = trace.batch.arrival_s
        assert len(trace) > 0
        assert not ((arrivals > 100.0) & (arrivals < 200.0)).any()

    def test_spike_window_multiplies_the_arrival_rate(self):
        # serve3's launch-day shape: 3x over the middle fifth.
        pop = population(
            n_clients=200,
            rate_windows=(RateWindow(400.0, 200.0, multiplier=3.0),),
        )
        arrivals = generate_traffic(
            pop, duration_s=1000.0, seed=16
        ).batch.arrival_s
        inside = _rate_over(arrivals, 400.0, 600.0)
        outside = (len(arrivals) - inside * 200.0) / 800.0
        assert inside / outside == pytest.approx(3.0, rel=0.1)

    def test_overlapping_windows_multiply(self):
        pop = population(
            n_clients=200,
            rate_windows=(
                RateWindow(200.0, 400.0, multiplier=2.0),
                RateWindow(400.0, 400.0, multiplier=1.5),
            ),
        )
        arrivals = generate_traffic(
            pop, duration_s=1000.0, seed=17
        ).batch.arrival_s
        base = 0.5 * (
            _rate_over(arrivals, 0.0, 200.0)
            + _rate_over(arrivals, 800.0, 1000.0)
        )
        for lo, hi, multiplier in (
            (200.0, 400.0, 2.0), (400.0, 600.0, 3.0), (600.0, 800.0, 1.5)
        ):
            assert _rate_over(arrivals, lo, hi) / base == pytest.approx(
                multiplier, rel=0.1
            )

    def test_window_from_the_horizon_on_changes_no_column(self):
        plain = generate_traffic(population(), duration_s=600.0, seed=18)
        late = generate_traffic(
            population(
                rate_windows=(RateWindow(600.0, 100.0, multiplier=5.0),)
            ),
            duration_s=600.0, seed=18,
        )
        assert len(plain) > 0
        for column in ("arrival_s", "service_s", "model_ids", "request_ids"):
            np.testing.assert_array_equal(
                getattr(late.batch, column), getattr(plain.batch, column)
            )
        for column in (
            "client_ids", "combo_ids", "client_rates", "client_tiers"
        ):
            np.testing.assert_array_equal(
                getattr(late, column), getattr(plain, column)
            )
        assert late.meta["rate_windows"] == [[600.0, 100.0, 5.0]]

    def test_empty_streams_are_valid(self):
        zero_rate = generate_traffic(
            population(mean_rate_per_client=0.0),
            duration_s=100.0, seed=0,
        )
        assert len(zero_rate) == 0
        assert zero_rate.n_clients == 20
        no_clients = generate_traffic(
            population(n_clients=0), duration_s=100.0, seed=0
        )
        assert len(no_clients) == 0
        assert no_clients.n_clients == 0
        assert no_clients.offered_rate == 0.0

    def test_full_loyalty_single_model_population(self):
        cards = (ModelTrafficCard("sd", 1.0, 1.0),)
        trace = generate_traffic(
            population(cards=cards, model_loyalty=1.0),
            duration_s=300.0, seed=6,
        )
        assert set(trace.batch.model_ids.tolist()) <= {0}


def _set(column: np.ndarray, index: int, value: int) -> np.ndarray:
    """A copy of ``column`` with entry ``index`` set to ``value``."""
    column = column.copy()
    column[index] = value
    return column


class TestTraceValidation:
    """A trace whose columns break an invariant fails to construct."""

    @pytest.fixture(scope="class")
    def trace(self):
        return generate_traffic(population(), duration_s=120.0, seed=8)

    @pytest.mark.parametrize("corrupt, message", [
        pytest.param(
            lambda t: replace(t, duration_s=0.0),
            "trace duration must be positive", id="zero-duration",
        ),
        pytest.param(
            lambda t: replace(t, combos=t.combos[:1]),
            "combo tables must align with models", id="short-combo-tables",
        ),
        pytest.param(
            lambda t: replace(
                t, batch=replace(t.batch, models=("sd", "flux"))
            ),
            "batch model table must match trace", id="batch-model-table",
        ),
        pytest.param(
            lambda t: replace(t, client_ids=t.client_ids[:-1]),
            "request annotations must be aligned", id="short-client-ids",
        ),
        pytest.param(
            lambda t: replace(t, combo_ids=t.combo_ids[:-1]),
            "request annotations must be aligned", id="short-combo-ids",
        ),
        pytest.param(
            lambda t: replace(t, client_tiers=t.client_tiers[:-1]),
            "client columns must be aligned", id="short-client-tiers",
        ),
        pytest.param(
            lambda t: replace(t, batch=replace(
                t.batch, arrival_s=t.batch.arrival_s[::-1].copy()
            )),
            "trace arrivals must be sorted", id="unsorted-arrivals",
        ),
        pytest.param(
            lambda t: replace(t, batch=replace(
                t.batch, request_ids=t.batch.request_ids + 1
            )),
            "trace request ids must be 0..n-1", id="shifted-request-ids",
        ),
        pytest.param(
            lambda t: replace(
                t, client_ids=_set(t.client_ids, 0, t.n_clients)
            ),
            "client ids must index the client base",
            id="client-id-past-base",
        ),
        pytest.param(
            lambda t: replace(t, client_ids=_set(t.client_ids, 0, -1)),
            "client ids must index the client base",
            id="negative-client-id",
        ),
        pytest.param(
            lambda t: replace(t, combo_ids=_set(
                t.combo_ids, 0, len(t.combos[int(t.batch.model_ids[0])])
            )),
            "combo ids must index the combo table",
            id="combo-id-past-table",
        ),
        pytest.param(
            lambda t: replace(t, combo_ids=_set(t.combo_ids, 0, -1)),
            "combo ids must index the combo table",
            id="negative-combo-id",
        ),
        pytest.param(
            lambda t: replace(
                t, client_tiers=_set(t.client_tiers, 0, len(TIER_NAMES))
            ),
            "tier ids must index TIER_NAMES", id="tier-past-names",
        ),
        pytest.param(
            lambda t: replace(t, client_tiers=_set(t.client_tiers, 0, -1)),
            "tier ids must index TIER_NAMES", id="negative-tier",
        ),
    ])
    def test_rejects_broken_columns(self, trace, corrupt, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            corrupt(trace)


class TestRoundTrip(CodecContract):
    loads = staticmethod(loads_trace)
    schema = TRACE_SCHEMA
    version = TRACE_VERSION

    @pytest.fixture()
    def text(self):
        return dumps_trace(
            generate_traffic(population(), duration_s=60.0, seed=9)
        )

    def roundtrip(self, trace):
        text = dumps_trace(trace)
        again = loads_trace(text)
        assert dumps_trace(again) == text
        return again

    def test_lossless_and_byte_stable(self):
        trace = generate_traffic(
            population(burst=BurstModel(30.0, 120.0, 4.0)),
            duration_s=300.0, seed=7,
        )
        again = self.roundtrip(trace)
        assert again.models == trace.models
        assert again.combos == trace.combos
        np.testing.assert_array_equal(
            again.batch.arrival_s, trace.batch.arrival_s
        )
        np.testing.assert_array_equal(
            again.batch.service_s, trace.batch.service_s
        )
        np.testing.assert_array_equal(
            again.client_ids, trace.client_ids
        )
        np.testing.assert_array_equal(
            again.combo_ids, trace.combo_ids
        )
        np.testing.assert_array_equal(
            again.client_rates, trace.client_rates
        )
        np.testing.assert_array_equal(
            again.client_tiers, trace.client_tiers
        )
        assert again.meta == trace.meta

    def test_empty_trace_roundtrips(self):
        trace = generate_traffic(
            population(n_clients=0), duration_s=50.0, seed=0
        )
        assert len(self.roundtrip(trace)) == 0

    def test_file_roundtrip(self, tmp_path):
        trace = generate_traffic(population(), duration_s=120.0, seed=8)
        path = tmp_path / "t.jsonl"
        save_trace(trace, str(path))
        save_trace(load_trace(str(path)), str(tmp_path / "t2.jsonl"))
        assert path.read_bytes() == (tmp_path / "t2.jsonl").read_bytes()

    @pytest.mark.parametrize("line, changes, message", [
        pytest.param(
            2, {"id": 0}, "line 3: bad client record .*id 0, expected 1",
            id="repeated-client-id",
        ),
        pytest.param(
            1, {"id": -1}, "line 2: bad client record .*id -1, expected 0",
            id="negative-client-id",
        ),
        pytest.param(
            21, {"id": 999999}, "line 22: bad request record .*id 999999",
            id="request-id-out-of-sequence",
        ),
        pytest.param(
            21, {"model": "nope"}, "request 0 names model 'nope'",
            id="unknown-model",
        ),
        pytest.param(
            1, {"tier": "platinum"},
            "line 2: bad client record .*unknown tier 'platinum'",
            id="unknown-tier",
        ),
        pytest.param(
            21, {"client": 20}, "client ids must index the client base",
            id="request-client-past-base",
        ),
        pytest.param(
            21, {"combo": 99}, "combo ids must index the combo table",
            id="request-combo-past-table",
        ),
        pytest.param(
            21, {"arrival_s": 60.0}, "trace arrivals must be sorted",
            id="arrivals-out-of-order",
        ),
    ])
    def test_parser_rejects_malformed_traces(
        self, text, line, changes, message
    ):
        lines = text.splitlines()
        record = json.loads(lines[line])
        record.update(changes)
        lines[line] = json.dumps(record)
        with pytest.raises(ValueError, match=message):
            loads_trace("\n".join(lines))

    def test_parser_checks_the_promised_client_count(self, text):
        lines = text.splitlines()
        del lines[20]  # the last of the 20 clients
        with pytest.raises(ValueError, match="promised 20 clients"):
            loads_trace("\n".join(lines))


class TestPoissonized:
    def test_same_request_multiset_different_arrivals(self):
        trace = generate_traffic(
            population(burst=BurstModel(30.0, 120.0, 4.0)),
            duration_s=300.0, seed=10,
        )
        twin = poissonized(trace, seed=11)
        assert len(twin) == len(trace)
        key = lambda t: sorted(zip(  # noqa: E731
            t.batch.model_ids.tolist(),
            t.batch.service_s.tolist(),
        ))
        assert key(twin) == key(trace)
        assert (np.diff(twin.batch.arrival_s) >= 0).all()
        assert twin.batch.arrival_s.max() <= trace.duration_s
        assert twin.n_clients == 1

    def test_deterministic_in_seed(self):
        trace = generate_traffic(population(), duration_s=300.0, seed=1)
        assert dumps_trace(poissonized(trace, seed=5)) == dumps_trace(
            poissonized(trace, seed=5)
        )
        assert dumps_trace(poissonized(trace, seed=5)) != dumps_trace(
            poissonized(trace, seed=6)
        )


class TestTierSloReport:
    def run_trace(self, trace):
        deadlines = {"sd": 6.0, "muse": 2.0}
        report = simulate_fleet(trace, [pool()])
        return tier_slo_report(report, trace, deadlines)

    def test_rows_partition_offered_requests(self):
        trace = generate_traffic(
            population(n_clients=40, mean_rate_per_client=0.1),
            duration_s=300.0, seed=12,
        )
        tiers = self.run_trace(trace)
        assert tuple(e.tier for e in tiers.per_tier) == TIER_NAMES
        assert sum(e.offered for e in tiers.per_tier) == len(trace)
        assert sum(e.clients for e in tiers.per_tier) == 40

    def test_empty_trace_reports_every_tier_without_data(self):
        trace = generate_traffic(
            population(n_clients=0), duration_s=60.0, seed=0
        )
        tiers = self.run_trace(trace)
        assert tuple(e.tier for e in tiers.per_tier) == TIER_NAMES
        for entry in tiers.per_tier:
            assert entry.offered == 0
            assert entry.p50_s is None
            assert entry.goodput is None

    def test_idle_tier_reported_not_skipped(self):
        # 2 clients: one heavy, one medium, zero light — the light row
        # must still exist with None percentiles.
        trace = generate_traffic(
            population(n_clients=2, mean_rate_per_client=0.2),
            duration_s=200.0, seed=14,
        )
        tiers = self.run_trace(trace)
        assert tiers.tier("light").clients == 0
        assert tiers.tier("light").p95_s is None

    def test_requires_a_trace_and_valid_ids(self):
        trace = generate_traffic(population(), duration_s=60.0, seed=15)
        report = simulate_fleet(trace, [pool()])
        with pytest.raises(TypeError):
            tier_slo_report(report, object(), 5.0)
        with pytest.raises(ValueError):
            tiers = tier_slo_report(report, trace, 5.0)
            tiers.tier("platinum")
